//! The lean default session changes nothing observable: with the
//! transfer memo off by default, every fixture gets the same verdict,
//! report and cleaned-component counters as a run that opts into an
//! explicit memo ([`Relation::Memo`]), under all three strategies.

mod oracle;

use std::sync::Arc;

use oracle::{as_is, campaign, gen, Relation::Memo};
use verifier::{AnalyzerOptions, Strategy, TransferMemo};

#[test]
fn default_runs_match_explicit_memo_runs_on_every_fixture() {
    assert!(AnalyzerOptions::default().memo_cache.is_none());
    // One explorer thread keeps the parallel strategy's counters
    // deterministic; its job-count invariance is locked elsewhere.
    let lean = AnalyzerOptions {
        explore_jobs: 1,
        ..AnalyzerOptions::default()
    };
    // One memo for the whole campaign, strategy by strategy: later runs
    // are served by entries that earlier fixtures and strategies wrote.
    let memo = Arc::new(TransferMemo::new());
    let cases: Vec<_> = [
        Strategy::WideningFixpoint,
        Strategy::PathSensitive,
        Strategy::PathParallel,
    ]
    .into_iter()
    .flat_map(|strategy| {
        gen::fixtures()
            .into_iter()
            .map(move |c| c.strategy(strategy))
    })
    .map(|c| c.options(lean.clone()).shared_memo(&memo))
    .collect();
    campaign(&cases, as_is, &[Memo]);
}
