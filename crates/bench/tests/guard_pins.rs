//! Exact pins for the deterministic counters of the bench sweep.
//!
//! The counters are deterministic, so they are pinned here exactly and
//! run with every `cargo test`: a change that moves one of them changed
//! what the engines do, not how fast they do it. (How fast is what
//! `fixpoint_guard` judges, in same-run pairs.)

use bench::fixpoint_suite;
use verifier::AnalysisStats;

/// The deep-unroll sweep row, where visited-chain scans used to grow
/// quadratically before the fingerprint-indexed table.
const DEEP_UNROLL_LABEL: &str = "path/trips=1024/unroll=64";

/// Its liveness-masking ablation twin.
const MASKING_OFF_LABEL: &str = "path/trips=1024/unroll=64/masking=off";

fn row<'a>(stats: &'a [(String, AnalysisStats)], label: &str) -> &'a AnalysisStats {
    &stats
        .iter()
        .find(|(l, _)| l == label)
        .unwrap_or_else(|| panic!("sweep has no row {label}"))
        .1
}

#[test]
fn deterministic_guard_gates_are_pinned() {
    let stats = fixpoint_suite::collect_stats();
    let total = |field: fn(&AnalysisStats) -> u64| stats.iter().map(|(_, s)| field(s)).sum::<u64>();

    assert_eq!(total(|s| s.states_allocated), 4_227, "states allocated");
    assert_eq!(
        (total(|s| s.states_pruned), total(|s| s.subset_checks)),
        (140, 2_667),
        "pruned / subset checks"
    );

    let masked = row(&stats, DEEP_UNROLL_LABEL).subset_checks;
    let unmasked = row(&stats, MASKING_OFF_LABEL).subset_checks;
    assert_eq!((masked, unmasked), (146, 291), "deep-unroll subset checks");

    let maps: u64 = stats
        .iter()
        .filter(|(label, _)| label.starts_with("maps/"))
        .map(|(_, s)| s.subset_checks)
        .sum();
    assert_eq!(maps, 138, "maps/ subset checks");

    // The one memo-on row: on one worker its cache hits are deterministic.
    let (_, memo) = fixpoint_suite::throughput_memo_row();
    assert_eq!(memo.memo_hits, 4_330, "memo hits");
}
