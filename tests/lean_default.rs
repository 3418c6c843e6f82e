//! The lean default session changes nothing observable: with the
//! transfer memo off by default (and reaching definitions no longer
//! solved per analysis), every fixture gets the same verdict, the same
//! per-pc states and the same cleaned-component counters as a run that
//! opts into an explicit memo, under all three exploration strategies.

use std::sync::Arc;

use ebpf::asm::assemble;
use ebpf::Program;
use verifier::{AnalyzerOptions, Strategy, TransferMemo, VerificationSession};

/// Every `fixtures/*.ebpf` program, with its file name.
fn fixtures() -> Vec<(String, Program)> {
    let mut paths: Vec<_> = std::fs::read_dir("fixtures")
        .expect("fixtures directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ebpf"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures found");
    paths
        .into_iter()
        .map(|p| {
            let source = std::fs::read_to_string(&p).expect("fixture reads");
            let prog = assemble(&source).expect("fixture assembles");
            (p.display().to_string(), prog)
        })
        .collect()
}

#[test]
fn default_runs_match_explicit_memo_runs_on_every_fixture() {
    assert!(AnalyzerOptions::default().memo_cache.is_none());
    // One explorer thread keeps the parallel strategy's counters
    // deterministic; its job-count invariance is locked elsewhere.
    let lean = AnalyzerOptions {
        explore_jobs: 1,
        ..AnalyzerOptions::default()
    };
    let memo = AnalyzerOptions {
        memo_cache: Some(Arc::new(TransferMemo::new())),
        ..lean.clone()
    };
    for strategy in [
        Strategy::WideningFixpoint,
        Strategy::PathSensitive,
        Strategy::PathParallel,
    ] {
        let session = |options: &AnalyzerOptions| {
            VerificationSession::new()
                .with_strategy(strategy)
                .with_options(options.clone())
        };
        for (name, prog) in fixtures() {
            let at = format!("{name} under {strategy:?}");
            let lean_run = session(&lean).run(&prog);
            let memo_run = session(&memo).run(&prog);
            match (&lean_run, &memo_run) {
                (Ok(a), Ok(b)) => {
                    let (sa, sb) = (a.stats(), b.stats());
                    assert_eq!(sa.memo_hits + sa.memo_misses, 0, "{at}: {sa:?}");
                    assert!(sb.memo_hits + sb.memo_misses > 0, "{at}: {sb:?}");
                    assert_eq!(
                        sa.dead_components_cleared, sb.dead_components_cleared,
                        "{at}"
                    );
                    for pc in 0..prog.len() {
                        assert_eq!(a.state_before(pc), b.state_before(pc), "{at}, pc {pc}");
                    }
                }
                (Err(a), Err(b)) => assert_eq!(a, b, "{at}"),
                _ => panic!("{at}: verdicts differ: {lean_run:?} vs {memo_run:?}"),
            }
        }
    }
}
