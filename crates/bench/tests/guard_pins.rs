//! Exact pins for the deterministic gates of `fixpoint_guard`.
//!
//! The guard compares these counters against `BENCH_PR13.json` with a
//! ±20% tolerance, next to wall-clock gates that are noisy on shared
//! hosts. The counters themselves are deterministic, so they are pinned
//! here exactly and run with every `cargo test`: a change that moves
//! one of them changed what the engines do, not how fast they do it.

use bench::fixpoint_suite;
use verifier::AnalysisStats;

/// The sweep row whose subset checks the guard's deep-unroll gate reads.
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

    assert_eq!(total(|s| s.states_allocated), 8_044, "states allocated");
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
}
