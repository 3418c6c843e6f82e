//! The path explorer's work counters, pinned exactly.
//!
//! Performance work on `PathSensitive` (cheaper joins, fewer stack
//! round-trips, faster liveness cleaning) must not change *what* it
//! visits. Every counter below depends on the DFS visit order, so a
//! reordered walk, a lost prune or an extra materialization fails here
//! even when verdicts and reported states still agree.

use ebpf::asm::assemble;
use verifier::{AnalysisStats, AnalyzerOptions, Strategy, VerificationSession};

/// The counters pinned per fixture, in this order: visits, subset
/// checks, states pruned, visited entries evicted, unrolled trips,
/// states allocated, dead components cleared.
type Counters = [u64; 7];

fn counters(s: &AnalysisStats) -> Counters {
    [
        s.visits,
        s.subset_checks,
        s.states_pruned,
        s.visited_evicted,
        s.unrolled_trips,
        s.states_allocated,
        s.dead_components_cleared,
    ]
}

/// A diamond whose counters depend on which edge of the fork is walked
/// first. The taken edge goes first: its wide `r3` is recorded at
/// `join`, and the narrow fall-through arrival is then inserted beside
/// it. Walked the other way round, the wide arrival would evict the
/// narrow entry (`visited_evicted` 1). The loop fixtures alone do not
/// notice a swapped fork order.
const FORK_ORDER: &str = "
    if r2 > 5 goto wide
    r3 = 1
    goto join
wide:
    r3 = *(u8 *)(r1 + 0)
join:
    r0 = r3
    exit
";

#[test]
fn path_explorer_work_counters_are_pinned() {
    let fixture = |name: &str| {
        std::fs::read_to_string(format!("fixtures/{name}.ebpf")).expect("fixture reads")
    };
    let expected: [(&str, String, Counters); 5] = [
        (
            "memset_loop",
            fixture("memset_loop"),
            [131, 29, 0, 0, 16, 45, 46],
        ),
        (
            "spill_loop",
            fixture("spill_loop"),
            [388, 125, 0, 32, 64, 208, 190],
        ),
        (
            "two_back_edge",
            fixture("two_back_edge"),
            [228, 47, 0, 0, 25, 72, 48],
        ),
        (
            "map_update_loop",
            fixture("map_update_loop"),
            [91, 13, 0, 0, 8, 40, 23],
        ),
        ("fork_order", FORK_ORDER.to_string(), [8, 1, 0, 0, 0, 8, 4]),
    ];
    let options = AnalyzerOptions {
        unroll_k: 64,
        ..AnalyzerOptions::default()
    };
    for (name, source, want) in expected {
        let prog = assemble(&source).expect("program assembles");
        let analysis = VerificationSession::new()
            .with_strategy(Strategy::PathSensitive)
            .with_options(options.clone())
            .run(&prog)
            .unwrap_or_else(|e| panic!("{name} rejected: {e}"));
        assert_eq!(
            counters(&analysis.stats()),
            want,
            "{name}: [visits, subset_checks, states_pruned, visited_evicted, \
             unrolled_trips, states_allocated, dead_components_cleared]"
        );
    }
}

/// The counters the parallel explorer must reproduce when it never
/// spawns, in this order: visits, subset checks, states pruned, visited
/// entries evicted, unrolled trips, dead components cleared, fingerprint
/// rejects, live-masked prunes. States allocated stay out: the shared
/// table stores snapshots instead of sharing `Rc`s, so its allocation
/// count legitimately differs.
fn walk_counters(s: &AnalysisStats) -> [u64; 8] {
    [
        s.visits,
        s.subset_checks,
        s.states_pruned,
        s.visited_evicted,
        s.unrolled_trips,
        s.dead_components_cleared,
        s.fingerprint_rejects,
        s.live_masked_prunes,
    ]
}

#[test]
fn parallel_explorer_without_spawns_walks_like_the_sequential_one() {
    // The accepted fixtures and the ones every strategy must reject: a
    // rejection must come out the same, with the same diagnosis.
    let mut programs: Vec<(String, String)> = ["fixtures", "fixtures/rejected"]
        .into_iter()
        .flat_map(|dir| std::fs::read_dir(dir).expect("fixtures directory"))
        .map(|entry| entry.expect("fixture entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "ebpf"))
        .map(|path| {
            let source = std::fs::read_to_string(&path).expect("fixture reads");
            (path.display().to_string(), source)
        })
        .collect();
    programs.sort();
    assert_eq!(programs.len(), 10, "every fixture is covered");
    programs.push(("fork_order".to_string(), FORK_ORDER.to_string()));
    for (name, source) in programs {
        let prog = assemble(&source).expect("program assembles");
        let run = |strategy: Strategy, explore_jobs: u32| {
            let options = AnalyzerOptions {
                unroll_k: 64,
                explore_jobs,
                // Deeper than any fork nesting: no subtree is spawned.
                spawn_depth: 1_000_000,
                ..AnalyzerOptions::default()
            };
            VerificationSession::new()
                .with_strategy(strategy)
                .with_options(options)
                .run(&prog)
                .map(|analysis| walk_counters(&analysis.stats()))
        };
        let sequential = run(Strategy::PathSensitive, 1);
        for jobs in [1, 2] {
            assert_eq!(
                run(Strategy::PathParallel, jobs),
                sequential,
                "{name} at {jobs} jobs: [visits, subset_checks, states_pruned, \
                 visited_evicted, unrolled_trips, dead_components_cleared, \
                 fingerprint_rejects, live_masked_prunes]"
            );
        }
    }
}
