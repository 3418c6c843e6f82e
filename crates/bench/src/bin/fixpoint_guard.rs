//! `fixpoint_guard` — the CI wall-clock check for the exploration
//! engines. Every gate times a reference and a subject alternately in
//! this one process ([`bench::harness::paired`]) and judges the median
//! of the per-pair ratios, so a slow or noisy runner slows both sides
//! alike:
//!
//! * **throughput** — the 64-program mixed batch at jobs=4 against the
//!   same batch at jobs=1: the median speedup must be at least
//!   [`THROUGHPUT_SPEEDUP`] and jobs=4 must win at least [`MIN_WINS`] of
//!   [`PAIRS`] pairs;
//! * **governance** — the same batch at jobs=1 with a generous 30 s
//!   per-program deadline armed (the full per-visit governance stack:
//!   deadline check, fail-point gate, visit ledger) against the
//!   ungoverned batch, over [`GOVERNANCE_PAIRS`] pairs: the governed
//!   rate must keep a median of at least [`GOVERNANCE_FLOOR`] of the
//!   ungoverned one — fault tolerance that taxes the hot path fails;
//! * **maps** — nanoseconds per visit of the map-helper `maps/` family
//!   against nanoseconds per visit of the rest of the strategy sweep:
//!   the median ratio must stay at most [`MAPS_CEILING`], which only
//!   catches a helper-path verification cost blow-up;
//! * **parallel** — parshard on the branchy-tree workload at jobs=4
//!   against jobs=1: jobs=4 must take at least
//!   [`PARSHARD_SAVING_PERCENT`]% less time in the median and win at
//!   least [`MIN_WINS`] of [`PAIRS`] pairs.
//!
//! The throughput and parallel gates are skipped, with a logged line,
//! on a single-core runner: there is no parallelism to buy the saving
//! with. The engines' deterministic counters (allocations, pruning,
//! subset checks, memo hits) are pinned exactly in
//! `tests/guard_pins.rs` instead.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin fixpoint_guard
//! ```
//!
//! Every gate runs and prints one verdict line (`PASS`, `FAIL` or
//! `SKIP`) followed by its per-pair ratios. Exit status: 0 when no gate
//! failed, 1 otherwise.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use bench::cli::Args;
use bench::fixpoint_suite;
use bench::harness::{median, paired};
use ebpf::Program;
use verifier::{AnalyzerOptions, Strategy, VerificationSession};

/// Pairs per "faster" gate.
const PAIRS: usize = 10;

/// Pairs the subject of a "faster" gate must win, of [`PAIRS`].
const MIN_WINS: usize = 9;

/// Worker count of the throughput gate's subject.
const THROUGHPUT_GATE_JOBS: usize = 4;

/// Minimum median speedup of the batch at [`THROUGHPUT_GATE_JOBS`] workers
/// over one worker.
const THROUGHPUT_SPEEDUP: f64 = 1.25;

/// Pairs of the governance gate: its bar is tight, so it takes more.
const GOVERNANCE_PAIRS: usize = 20;

/// Minimum median governed/ungoverned batch rate: arming a deadline may
/// cost at most 5% of throughput.
const GOVERNANCE_FLOOR: f64 = 0.95;

/// Maximum median ratio of the `maps/` family's ns per visit to the rest
/// of the sweep's — generous, as the family's exact subset checks are
/// pinned in Tier-1.
const MAPS_CEILING: f64 = 2.5;

/// Minimum wall-clock saving of parallel path exploration at
/// [`PARSHARD_GATE_JOBS`] jobs over one, in percent.
const PARSHARD_SAVING_PERCENT: u32 = 25;

/// Job count of the parallel-exploration gate's subject.
const PARSHARD_GATE_JOBS: u32 = 4;

/// Prints a gate's verdict line and its per-pair ratios; returns `pass`.
fn report(gate: &str, pass: bool, summary: &str, ratios: &[f64]) -> bool {
    println!("{} {gate}: {summary}", if pass { "PASS" } else { "FAIL" });
    let pairs: Vec<String> = ratios.iter().map(|r| format!("{r:.3}")).collect();
    println!("    per pair: {}", pairs.join(" "));
    pass
}

/// Judges a "faster" gate whose ratios are subject rate over reference
/// rate: the median must reach `bar` and the subject must win at least
/// [`MIN_WINS`] pairs.
fn faster(gate: &str, what: &str, ratios: &[f64], bar: f64) -> bool {
    let m = median(ratios);
    let wins = ratios.iter().filter(|&&r| r > 1.0).count();
    let summary = format!(
        "median {what} {m:.3} (needs >= {bar:.3}), faster in {wins}/{} pairs (needs >= {MIN_WINS})",
        ratios.len()
    );
    report(gate, m >= bar && wins >= MIN_WINS, &summary, ratios)
}

/// Verifies `batch` on `jobs` workers, best of
/// [`fixpoint_suite::THROUGHPUT_RUNS`], and returns programs/sec. (One
/// 64-program batch takes about 10 ms at jobs=1, short enough that a
/// single preemption moves it by a third.) Panics if any program is
/// rejected, a blown deadline included.
fn batch_rate(session: &VerificationSession, batch: &[Program], jobs: usize) -> f64 {
    fixpoint_suite::throughput_run(|| session.clone(), batch, jobs).programs_per_sec()
}

/// Runs every configuration once and returns wall-clock ns per visit.
fn ns_per_visit(configs: &[(String, Program, VerificationSession)]) -> f64 {
    let (mut ns, mut visits) = (0u128, 0u64);
    for (label, prog, session) in configs {
        let start = Instant::now();
        let analysis = session
            .run(prog)
            .unwrap_or_else(|e| panic!("{label}: sweep program rejected: {e}"));
        ns += start.elapsed().as_nanos();
        visits += analysis.stats().visits;
    }
    ns as f64 / visits as f64
}

fn main() -> ExitCode {
    // The guard takes no flags; any flag is a usage error (exit 2).
    let _ = Args::parse(&[]);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let skip = |gate: &str| {
        println!(
            "SKIP {gate}: single-core runner ({cores} hardware thread), no parallelism to measure"
        );
        true
    };
    let batch = fixpoint_suite::throughput_batch();
    let ungoverned = VerificationSession::new();
    let mut ok = true;

    ok &= if cores < 2 {
        skip("throughput")
    } else {
        let ratios = paired(
            PAIRS,
            || batch_rate(&ungoverned, &batch, 1),
            || batch_rate(&ungoverned, &batch, THROUGHPUT_GATE_JOBS),
        );
        faster(
            "throughput",
            &format!("jobs={THROUGHPUT_GATE_JOBS}/jobs=1 speedup"),
            &ratios,
            THROUGHPUT_SPEEDUP,
        )
    };

    let governed = VerificationSession::new().with_options(AnalyzerOptions {
        deadline: Some(Duration::from_secs(30)),
        ..AnalyzerOptions::default()
    });
    let ratios = paired(
        GOVERNANCE_PAIRS,
        || batch_rate(&ungoverned, &batch, 1),
        || batch_rate(&governed, &batch, 1),
    );
    let m = median(&ratios);
    ok &= report(
        "governance",
        m >= GOVERNANCE_FLOOR,
        &format!("median governed/ungoverned rate at jobs=1 {m:.3} (needs >= {GOVERNANCE_FLOOR})"),
        &ratios,
    );

    let (maps, sweep): (Vec<_>, Vec<_>) = fixpoint_suite::sweep_configs()
        .into_iter()
        .partition(|(label, _, _)| label.starts_with("maps/"));
    let ratios = paired(PAIRS, || ns_per_visit(&sweep), || ns_per_visit(&maps));
    let m = median(&ratios);
    ok &= report(
        "maps",
        m <= MAPS_CEILING,
        &format!("median maps/sweep ns per visit {m:.3} (needs <= {MAPS_CEILING})"),
        &ratios,
    );

    ok &= if cores < 2 {
        skip("parallel")
    } else {
        let prog = fixpoint_suite::branchy_tree(
            fixpoint_suite::PARSHARD_DEPTH,
            fixpoint_suite::PARSHARD_TRIPS,
        );
        let session_at = |jobs: u32| {
            VerificationSession::new()
                .with_strategy(Strategy::PathParallel)
                .with_options(AnalyzerOptions {
                    unroll_k: fixpoint_suite::PARSHARD_TRIPS.max(64),
                    explore_jobs: jobs,
                    ..AnalyzerOptions::default()
                })
        };
        let rate = |session: &VerificationSession| {
            let start = Instant::now();
            session.run(&prog).expect("branchy tree stays safe");
            1.0 / start.elapsed().as_secs_f64()
        };
        let (seq, par) = (session_at(1), session_at(PARSHARD_GATE_JOBS));
        let ratios = paired(PAIRS, || rate(&seq), || rate(&par));
        faster(
            "parallel",
            &format!("branchy-tree jobs={PARSHARD_GATE_JOBS}/jobs=1 speedup"),
            &ratios,
            100.0 / f64::from(100 - PARSHARD_SAVING_PERCENT),
        )
    };

    if ok {
        println!("fixpoint_guard: OK");
        ExitCode::SUCCESS
    } else {
        eprintln!("fixpoint_guard: at least one gate failed");
        ExitCode::FAILURE
    }
}
