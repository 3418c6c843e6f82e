//! `fixpoint_guard` — the CI smoke check for the exploration engines:
//! re-runs the strategy sweep (`bench::fixpoint_suite`), compares the
//! totals against the committed `BENCH_PR13.json` baseline, and fails
//! when any of the gated quantities regresses by more than 20%:
//!
//! * **`states_allocated`** (absolute total): a refactor that quietly
//!   re-introduces clone-everything state propagation fails CI;
//! * **pruned-state ratio** (`states_pruned / subset_checks`,
//!   relative): a change that makes the path-sensitive visited table
//!   stop covering arrivals — more probes buying fewer prunes — fails
//!   CI even if it stays sound;
//! * **`subset_checks` at the deep-unroll point**
//!   (`path/trips=1024/unroll=64`, absolute): the quadratic
//!   chain-scan growth the fingerprint-indexed table eliminated; a
//!   change that reopens it (losing the fingerprint gate, the chain
//!   cap, or dominance eviction) fails CI long before the wall-clock
//!   noise would show it;
//! * **masked `subset_checks`** (absolute, vs the baseline's
//!   `masking=off` ablation row): with liveness masking ON, the
//!   deep-unroll point must spend at least
//!   [`MASKED_GATE_PERCENT`]% fewer deep subset checks than the
//!   unmasked twin recorded in the baseline — a change that quietly
//!   defeats checkpoint cleaning or the strict-budget-0 masked probe
//!   (so masked states stop fingerprinting equally) fails CI;
//! * **`memo_hits`** (absolute, on the one memo-on row
//!   `throughput/batch=64/memo=on/jobs=1`): the memo is opt-in, so the
//!   default sweep never touches it; this row opts in explicitly and,
//!   on one worker, counts its hits deterministically — a change that
//!   silently disables the opted-in cache or makes its keys stop
//!   matching fails CI;
//! * **`maps/` family `subset_checks`** (absolute total over the
//!   family's rows): helper transfers are never memoized, so the
//!   map-helper workloads pay full per-visit cost — a change that makes
//!   the visited table stop covering the update loop's back edge (or
//!   starts re-exploring the NULL-check split) shows up here first;
//! * **`maps/` family wall clock** (best of three per row, summed,
//!   vs the baseline's `ns_per_iter` timings): a deliberately generous
//!   [`MAPS_WALL_TOLERANCE_PERCENT`]% budget — timings are noisy across
//!   runner classes, and the deterministic subset-check gate above is
//!   the precise instrument; this one only catches a helper-path
//!   verification cost blow-up too large for noise to explain;
//! * **batched `programs_per_sec` at jobs=4** (wall-clock, best of
//!   three runs of the 64-program mixed batch, the same best-of-three
//!   the baseline records): a timing-based gate,
//!   guarding the batch engine's throughput against a >20%
//!   regression on the same runner class that produced the baseline;
//! * **parallel path exploration at jobs=4** (wall-clock, best of
//!   three, measured live — no baseline involved): on a multi-core
//!   runner the parshard strategy must verify the branchy-tree
//!   workload at least [`PARSHARD_GATE_PERCENT`]% faster with four
//!   jobs than with one. On a single-core runner the gate is skipped
//!   with a logged notice — there is no parallelism to buy the saving
//!   with, and the determinism contract (identical verdicts at every
//!   job count) is what the test suite checks instead;
//! * **governance overhead on the batched throughput** (wall-clock,
//!   measured live — governed best-of-five vs the ungoverned rate just
//!   measured): arming a generous per-program deadline (the full
//!   per-visit governance stack: deadline check, fail-point gate,
//!   visit ledger) must cost at most
//!   [`GOVERNANCE_TOLERANCE_PERCENT`]% of the ungoverned
//!   programs/sec — fault tolerance that taxes the hot path fails CI.
//!
//! The counter gates are deterministic (unlike the timings), so they
//! are stable even on noisy runners; the wall-clock gates take the best
//! of three runs to shave scheduler noise.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin fixpoint_guard -- [--baseline BENCH_PR13.json]
//! ```
//!
//! Exit status: 0 when within budget, 1 on regression or a missing/old
//! baseline.

use std::process::ExitCode;

use bench::cli::Args;
use bench::fixpoint_suite;
use bench::table;
use verifier::VerificationSession;

/// Allowed regression over the committed baseline, in percent — applied
/// to the allocation total, the pruned-state ratio, and the deep-unroll
/// `subset_checks` count alike.
const TOLERANCE_PERCENT: u64 = 20;

/// The sweep label whose `subset_checks` count the deep-unroll gate
/// regresses on: the configuration where visited-chain scans used to
/// grow quadratically (2.7k probes before the fingerprint-indexed
/// table).
const DEEP_UNROLL_LABEL: &str = "path/trips=1024/unroll=64";

/// The deep-unroll configuration's unmasked ablation twin
/// (`liveness_pruning` off) — the row the masked-pruning gate compares
/// [`DEEP_UNROLL_LABEL`] against.
const MASKING_OFF_LABEL: &str = "path/trips=1024/unroll=64/masking=off";

/// Minimum saving the liveness-masked probe path must keep delivering
/// at the deep-unroll point, in percent of the unmasked twin's
/// `subset_checks` — the PR 7 acceptance bar.
const MASKED_GATE_PERCENT: u64 = 25;

/// The throughput configuration the wall-clock gate replays: the
/// 64-program mixed batch on four workers.
const THROUGHPUT_GATE_JOBS: usize = 4;

/// Maximum throughput the resource-governance machinery — per-visit
/// deadline checks, the disarmed fail-point gate, and the visit ledger
/// — may cost on the `throughput/` batch, in percent of the ungoverned
/// rate measured in the same process moments earlier. Governance is
/// designed to be a relaxed load and an `Option` test per visit;
/// anything above noise here means a hot-path regression.
const GOVERNANCE_TOLERANCE_PERCENT: u64 = 5;

/// Minimum wall-clock saving parallel path exploration must deliver on
/// the branchy-tree workload at jobs=[`PARSHARD_GATE_JOBS`] vs jobs=1,
/// in percent — measured live, multi-core runners only.
const PARSHARD_GATE_PERCENT: u64 = 25;

/// Job count of the parallel-exploration wall-clock gate.
const PARSHARD_GATE_JOBS: usize = 4;

/// Allowed wall-clock regression of the `maps/` family over the
/// baseline's `ns_per_iter` timings, in percent — deliberately generous
/// (the deterministic subset-check gate is the precise instrument;
/// this one only catches a blow-up noise cannot explain).
const MAPS_WALL_TOLERANCE_PERCENT: u64 = 150;

fn main() -> ExitCode {
    let args = Args::parse(&["baseline"]);
    let path = args
        .get_str("baseline")
        .unwrap_or("BENCH_PR13.json")
        .to_string();

    let stats = fixpoint_suite::collect_stats();
    let current: u64 = stats.iter().map(|(_, s)| s.states_allocated).sum();
    let shared: u64 = stats.iter().map(|(_, s)| s.states_shared).sum();
    let clone_everything: u64 = stats
        .iter()
        .map(|(_, s)| s.clone_everything_equivalent())
        .sum();
    let pruned: u64 = stats.iter().map(|(_, s)| s.states_pruned).sum();
    let checks: u64 = stats.iter().map(|(_, s)| s.subset_checks).sum();
    let fp_rejects: u64 = stats.iter().map(|(_, s)| s.fingerprint_rejects).sum();
    let evicted: u64 = stats.iter().map(|(_, s)| s.visited_evicted).sum();
    let deep_checks = stats
        .iter()
        .find(|(label, _)| label == DEEP_UNROLL_LABEL)
        .map(|(_, s)| s.subset_checks);

    let rows = vec![
        vec!["states allocated (deep)".to_string(), current.to_string()],
        vec![
            "states shared (O(1) clones)".to_string(),
            shared.to_string(),
        ],
        vec![
            "clone-everything equivalent".to_string(),
            clone_everything.to_string(),
        ],
        vec!["states pruned (visited)".to_string(), pruned.to_string()],
        vec!["subset checks".to_string(), checks.to_string()],
        vec!["fingerprint rejects".to_string(), fp_rejects.to_string()],
        vec!["visited evicted".to_string(), evicted.to_string()],
    ];
    println!(
        "{}",
        table::render(&["strategy sweep total", "count"], &rows)
    );

    let doc = match std::fs::read_to_string(&path) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("fixpoint_guard: cannot read baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let Some(baseline) = fixpoint_suite::total_allocated_in_json(&doc) else {
        eprintln!("fixpoint_guard: {path} carries no states_allocated stats");
        return ExitCode::FAILURE;
    };
    let (Some(base_pruned), Some(base_checks)) = (
        fixpoint_suite::total_field_in_json(&doc, "states_pruned"),
        fixpoint_suite::total_field_in_json(&doc, "subset_checks"),
    ) else {
        eprintln!("fixpoint_guard: {path} carries no pruning stats");
        return ExitCode::FAILURE;
    };

    let budget = baseline + baseline * TOLERANCE_PERCENT / 100;
    println!(
        "baseline {baseline} deep copies, budget {budget} (+{TOLERANCE_PERCENT}%), current {current}"
    );
    if current > budget {
        eprintln!(
            "fixpoint_guard: states_allocated regressed: {current} > {budget} \
             (baseline {baseline} + {TOLERANCE_PERCENT}%)"
        );
        return ExitCode::FAILURE;
    }

    // Pruned-state ratio, compared cross-multiplied to stay in integers:
    // fail when  pruned/checks  <  (base_pruned/base_checks) · (1 - tol).
    println!(
        "baseline pruning {base_pruned}/{base_checks} probes, current {pruned}/{checks} \
         (tolerance -{TOLERANCE_PERCENT}% relative)"
    );
    if base_pruned > 0
        && (checks == 0
            || pruned * base_checks * 100 < base_pruned * checks * (100 - TOLERANCE_PERCENT))
    {
        eprintln!(
            "fixpoint_guard: pruned-state ratio regressed: {pruned}/{checks} is more than \
             {TOLERANCE_PERCENT}% below the baseline {base_pruned}/{base_checks}"
        );
        return ExitCode::FAILURE;
    }

    // Deep-unroll subset_checks gate: the quadratic chain-scan
    // regression surface.
    let Some(base_deep) =
        fixpoint_suite::label_field_in_json(&doc, DEEP_UNROLL_LABEL, "subset_checks")
    else {
        eprintln!("fixpoint_guard: {path} carries no {DEEP_UNROLL_LABEL} subset_checks");
        return ExitCode::FAILURE;
    };
    let Some(deep_checks) = deep_checks else {
        eprintln!("fixpoint_guard: sweep no longer contains {DEEP_UNROLL_LABEL}");
        return ExitCode::FAILURE;
    };
    let deep_budget = base_deep + base_deep * TOLERANCE_PERCENT / 100;
    println!(
        "baseline {DEEP_UNROLL_LABEL} subset_checks {base_deep}, budget {deep_budget} \
         (+{TOLERANCE_PERCENT}%), current {deep_checks}"
    );
    if deep_checks > deep_budget {
        eprintln!(
            "fixpoint_guard: deep-unroll subset_checks regressed: {deep_checks} > {deep_budget} \
             (baseline {base_deep} + {TOLERANCE_PERCENT}%) — the visited table is scanning \
             chains it should fingerprint-reject, cap, or evict"
        );
        return ExitCode::FAILURE;
    }

    // Masked-pruning gate: the liveness-masked deep-unroll row must
    // keep spending at least MASKED_GATE_PERCENT% fewer subset checks
    // than the unmasked ablation twin recorded in the baseline.
    let Some(base_unmasked) =
        fixpoint_suite::label_field_in_json(&doc, MASKING_OFF_LABEL, "subset_checks")
    else {
        eprintln!("fixpoint_guard: {path} carries no {MASKING_OFF_LABEL} subset_checks");
        return ExitCode::FAILURE;
    };
    let masked_ceiling = base_unmasked * (100 - MASKED_GATE_PERCENT) / 100;
    println!(
        "baseline {MASKING_OFF_LABEL} subset_checks {base_unmasked}, masked ceiling \
         {masked_ceiling} (-{MASKED_GATE_PERCENT}%), current masked {deep_checks}"
    );
    if deep_checks > masked_ceiling {
        eprintln!(
            "fixpoint_guard: liveness masking stopped paying for itself: the masked \
             deep-unroll row spends {deep_checks} subset checks, more than \
             {masked_ceiling} ({MASKED_GATE_PERCENT}% below the unmasked baseline \
             {base_unmasked}) — checkpoint cleaning or the masked probe path regressed"
        );
        return ExitCode::FAILURE;
    }

    // Memo-hit gate: a change that silently disables an opted-in
    // transfer memo (or makes its keys stop matching) drops the
    // deterministic hit count of the one memo-on throughput row.
    let memo_label = fixpoint_suite::throughput_memo_label();
    let Some(base_hits) = fixpoint_suite::label_float_in_json(&doc, &memo_label, "batch_memo_hits")
        .map(|hits| hits as u64)
    else {
        eprintln!("fixpoint_guard: {path} carries no {memo_label} batch_memo_hits");
        return ExitCode::FAILURE;
    };
    let (_, memo) = fixpoint_suite::throughput_memo_row();
    let memo_hits = memo.memo_hits;
    println!(
        "baseline {memo_label} memo {base_hits} hits, current {memo_hits}/{} lookups \
         (tolerance -{TOLERANCE_PERCENT}%)",
        memo_hits + memo.memo_misses
    );
    if memo_hits * 100 < base_hits * (100 - TOLERANCE_PERCENT) {
        eprintln!(
            "fixpoint_guard: memo hits regressed: {memo_hits} is more than \
             {TOLERANCE_PERCENT}% below the baseline {base_hits} — the transfer \
             memo stopped serving lookups it used to"
        );
        return ExitCode::FAILURE;
    }

    // Map-helper family gates. Counters first: helper transfers are
    // never memoized, so the maps rows' subset_checks are the
    // deterministic cost signature of the helper verification path —
    // registry check, NULL-refinement split, map-value bounds proofs.
    let maps = fixpoint_suite::maps_configs();
    let maps_checks: u64 = maps
        .iter()
        .map(|(label, _, _)| {
            stats
                .iter()
                .find(|(l, _)| l == label)
                .map_or(0, |(_, s)| s.subset_checks)
        })
        .sum();
    let mut base_maps_checks = 0u64;
    for (label, _, _) in &maps {
        let Some(n) = fixpoint_suite::label_field_in_json(&doc, label, "subset_checks") else {
            eprintln!("fixpoint_guard: {path} carries no {label} subset_checks");
            return ExitCode::FAILURE;
        };
        base_maps_checks += n;
    }
    let maps_budget = base_maps_checks + base_maps_checks * TOLERANCE_PERCENT / 100;
    println!(
        "baseline maps/ subset_checks {base_maps_checks}, budget {maps_budget} \
         (+{TOLERANCE_PERCENT}%), current {maps_checks}"
    );
    if maps_checks > maps_budget {
        eprintln!(
            "fixpoint_guard: maps/ subset_checks regressed: {maps_checks} > {maps_budget} \
             (baseline {base_maps_checks} + {TOLERANCE_PERCENT}%) — the helper verification \
             path is re-exploring states the visited table used to cover"
        );
        return ExitCode::FAILURE;
    }

    // Maps wall clock: best of three per row, summed, against the
    // baseline's ns_per_iter timings under a generous budget.
    let mut maps_ns = 0.0f64;
    let mut base_maps_ns = 0.0f64;
    for (label, prog, session) in &maps {
        let Some(base) = fixpoint_suite::label_float_in_json(&doc, label, "ns_per_iter") else {
            eprintln!("fixpoint_guard: {path} carries no {label} ns_per_iter");
            return ExitCode::FAILURE;
        };
        base_maps_ns += base;
        maps_ns += (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                session.run(prog).expect("maps program stays safe");
                start.elapsed().as_nanos() as f64
            })
            .fold(f64::INFINITY, f64::min);
    }
    let maps_ns_budget = base_maps_ns
        * f64::from(100 + u32::try_from(MAPS_WALL_TOLERANCE_PERCENT).expect("small"))
        / 100.0;
    println!(
        "baseline maps/ wall {:.1} µs, budget {:.1} µs (+{MAPS_WALL_TOLERANCE_PERCENT}%), \
         current {:.1} µs (best of 3 per row)",
        base_maps_ns / 1e3,
        maps_ns_budget / 1e3,
        maps_ns / 1e3
    );
    if maps_ns > maps_ns_budget {
        eprintln!(
            "fixpoint_guard: maps/ wall clock regressed: {:.1} µs is more than \
             {MAPS_WALL_TOLERANCE_PERCENT}% over the baseline {:.1} µs — helper-call \
             verification cost blew up beyond what runner noise explains",
            maps_ns / 1e3,
            base_maps_ns / 1e3
        );
        return ExitCode::FAILURE;
    }

    // Batched-throughput gate: replay the 64-program mixed batch at
    // jobs=4, best of three as the baseline recorded it, against the
    // baseline rate.
    let gate_label = fixpoint_suite::throughput_label(THROUGHPUT_GATE_JOBS);
    let Some(base_rate) =
        fixpoint_suite::label_float_in_json(&doc, &gate_label, "programs_per_sec")
    else {
        eprintln!("fixpoint_guard: {path} carries no {gate_label} programs_per_sec");
        return ExitCode::FAILURE;
    };
    let batch = fixpoint_suite::throughput_batch();
    let rate =
        fixpoint_suite::throughput_run(VerificationSession::new, &batch, THROUGHPUT_GATE_JOBS)
            .programs_per_sec();
    let floor =
        base_rate * f64::from(100 - u32::try_from(TOLERANCE_PERCENT).expect("small")) / 100.0;
    println!(
        "baseline {gate_label} {base_rate:.1} programs/sec, floor {floor:.1} \
         (-{TOLERANCE_PERCENT}%), current {rate:.1} (best of {})",
        fixpoint_suite::THROUGHPUT_RUNS
    );
    if rate < floor {
        eprintln!(
            "fixpoint_guard: batched throughput regressed: {rate:.1} programs/sec is more \
             than {TOLERANCE_PERCENT}% below the baseline {base_rate:.1} at jobs={THROUGHPUT_GATE_JOBS}"
        );
        return ExitCode::FAILURE;
    }

    // Governance-overhead gate: replay the same batch with the full
    // governance stack armed — a generous per-program deadline (so the
    // cooperative check runs on every visit but never fires) on top of
    // the always-compiled fail-point gate and visit ledger — and
    // require the rate to stay within GOVERNANCE_TOLERANCE_PERCENT% of
    // the ungoverned rate just measured on this same runner. Best of
    // five runs to shave scheduler noise under the tight budget.
    let governed_session = VerificationSession::new().with_options(verifier::AnalyzerOptions {
        deadline: Some(std::time::Duration::from_secs(30)),
        ..verifier::AnalyzerOptions::default()
    });
    let governed = (0..5)
        .map(|_| {
            let report = governed_session.run_batch(&batch, THROUGHPUT_GATE_JOBS);
            assert_eq!(report.stats.rejected, 0, "governed batch stays safe");
            assert_eq!(
                report.stats.deadline_exceeded, 0,
                "30 s deadline never fires"
            );
            report.stats.programs_per_sec()
        })
        .fold(0.0f64, f64::max);
    let governed_floor =
        rate * f64::from(100 - u32::try_from(GOVERNANCE_TOLERANCE_PERCENT).expect("small")) / 100.0;
    println!(
        "ungoverned {gate_label} {rate:.1} programs/sec, governed floor {governed_floor:.1} \
         (-{GOVERNANCE_TOLERANCE_PERCENT}%), current governed {governed:.1} (best of 5)"
    );
    if governed < governed_floor {
        eprintln!(
            "fixpoint_guard: resource governance stopped being free: {governed:.1} \
             programs/sec with a generous deadline armed is more than \
             {GOVERNANCE_TOLERANCE_PERCENT}% below the ungoverned {rate:.1} — the per-visit \
             deadline check, fail-point gate, or visit ledger grew a hot-path cost"
        );
        return ExitCode::FAILURE;
    }

    // Parallel-exploration gate (measured live, no baseline): on a
    // multi-core runner, the parshard strategy at jobs=4 must clear the
    // branchy-tree workload at least PARSHARD_GATE_PERCENT% faster
    // than at jobs=1, best of three runs each. A single-core runner
    // has no parallelism to spend, so the gate logs a skip — the
    // determinism contract (same verdict at every job count) is
    // enforced by the test suite, not here.
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if cores < 2 {
        println!(
            "fixpoint_guard: single-core runner ({cores} hardware thread), skipping the \
             parallel-exploration wall-clock gate (jobs={PARSHARD_GATE_JOBS} vs jobs=1)"
        );
    } else {
        let prog = fixpoint_suite::branchy_tree(
            fixpoint_suite::PARSHARD_DEPTH,
            fixpoint_suite::PARSHARD_TRIPS,
        );
        let time_at = |jobs: usize| -> f64 {
            let session = VerificationSession::new()
                .with_strategy(verifier::Strategy::PathParallel)
                .with_options(verifier::AnalyzerOptions {
                    unroll_k: fixpoint_suite::PARSHARD_TRIPS.max(64),
                    explore_jobs: u32::try_from(jobs).expect("small"),
                    ..verifier::AnalyzerOptions::default()
                });
            (0..3)
                .map(|_| {
                    let start = std::time::Instant::now();
                    session.run(&prog).expect("branchy tree stays safe");
                    start.elapsed().as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let seq = time_at(1);
        let par = time_at(PARSHARD_GATE_JOBS);
        let ceiling =
            seq * f64::from(u32::try_from(100 - PARSHARD_GATE_PERCENT).expect("small")) / 100.0;
        println!(
            "parallel exploration on branchy-tree: jobs=1 {:.1} ms, jobs={PARSHARD_GATE_JOBS} \
             {:.1} ms, ceiling {:.1} ms (-{PARSHARD_GATE_PERCENT}%), best of 3",
            seq * 1e3,
            par * 1e3,
            ceiling * 1e3
        );
        if par > ceiling {
            eprintln!(
                "fixpoint_guard: parallel exploration stopped paying for itself: \
                 jobs={PARSHARD_GATE_JOBS} takes {:.1} ms, more than {PARSHARD_GATE_PERCENT}% \
                 short of the {:.1} ms single-job walk on a {cores}-core runner",
                par * 1e3,
                seq * 1e3
            );
            return ExitCode::FAILURE;
        }
    }
    println!("fixpoint_guard: OK");
    ExitCode::SUCCESS
}
