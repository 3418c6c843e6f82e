//! The exploration-strategy sweep shared by the `fixpoint` bench and the
//! `fixpoint_guard` CI binary: the masked-memset workload across trip
//! counts under the fixpoint strategy and × unroll bounds under the
//! path-sensitive strategy, the register-bounded loop (proved by the
//! fixpoint's narrowing walks), the two-back-edge pruning workload, the
//! spill-heavy workload behind the chunked-frame `bytes_materialized`
//! numbers, the visited-cap ablation at the deep-unroll point, the
//! batched `throughput/` family (the 64-program mixed batch per worker
//! count, plus one memo-on row), the parallel-exploration `parshard/`
//! family (branchy-tree and deep-unroll workloads per job count), the
//! map-helper `maps/` family (the fixture-shaped lookup filter and
//! update loop under both strategies), and the [`AnalysisStats`]
//! collection.
//!
//! Keeping the sweep definition in one place means the bench, the
//! guard's same-run timing gates and the exact counter pins in
//! `tests/guard_pins.rs` all run the same configurations.

use std::sync::Arc;

use ebpf::asm::assemble;
use ebpf::Program;
use verifier::{
    AnalysisStats, AnalyzerOptions, BatchStats, Strategy, TransferMemo, VerificationSession,
};

/// A memset-style loop over a 16-byte buffer with a masked index, safe
/// for every trip count; `trips` only changes how long the counter
/// climbs.
#[must_use]
pub fn masked_memset(trips: u32) -> Program {
    assemble(&format!(
        r"
            r1 = 0
        loop:
            r2 = r1
            r2 &= 15
            r3 = r10
            r3 += -16
            r3 += r2
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if r1 < {trips} goto loop
            r0 = r1
            exit
        "
    ))
    .expect("assembles")
}

/// The register-bounded store loop of `fixtures/reg_bound_loop.ebpf`
/// at `trips` trips, plus an accumulator `r6 += r1`. No comparison
/// immediate bounds the counter, so the fixpoint's ascent widens it past
/// the buffer and the store check fails there; the narrowing walks
/// re-tighten the counter to the exit test and prove the store.
#[must_use]
pub fn reg_bound_loop(trips: u32) -> Program {
    assemble(&format!(
        r"
            r1 = 0
            r6 = 0
            r7 = {trips}
        loop:
            r6 += r1
            r3 = r10
            r3 += -{trips}
            r3 += r1
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if r1 < r7 goto loop
            r0 = r6
            exit
        "
    ))
    .expect("assembles")
}

/// The two-back-edge counter+accumulator loop of
/// `fixtures/two_back_edge.ebpf` (13 trips over a 13-byte buffer): a
/// continue-style loop whose accumulator differs across the two paths
/// back to the head. Under the path-sensitive strategy the re-converging
/// paths are where visited-state pruning actually fires — the workload
/// behind the sweep's `states_pruned` counters.
#[must_use]
pub fn two_back_edge() -> Program {
    assemble(include_str!("../../../fixtures/two_back_edge.ebpf")).expect("assembles")
}

/// A spill-heavy loop: two loop-carried values are spilled to slots in
/// *different* stack chunks every trip, so each loop-head join grows two
/// chunks of the frame. Under whole-frame copy-on-write this
/// materialized the full 4 KiB frame per change; chunked frames copy two
/// ~0.5 KiB chunks — the sweep's `bytes_materialized` counter is the
/// observable effect.
#[must_use]
pub fn spill_loop(trips: u32) -> Program {
    assemble(&format!(
        r"
            r1 = 0              ; i
            r6 = 0              ; acc
        loop:
            r6 += r1
            *(u64 *)(r10 - 8) = r6      ; spill in the last chunk
            *(u64 *)(r10 - 264) = r1    ; spill in the fourth chunk
            r7 = *(u64 *)(r10 - 8)
            r1 += 1
            if r1 < {trips} goto loop
            r0 = r7
            exit
        "
    ))
    .expect("assembles")
}

/// A bounded loop whose two branch arms differ **only in a dead
/// register**: each trip takes one of two paths that write different
/// constants into a scratch register nothing ever reads, then
/// re-converge on the same masked store. Unmasked, the two arrivals at
/// the join are distinct states and both get explored; with liveness
/// masking the checkpoint cleaning sets the dead scratch to ⊤ on both,
/// they fingerprint equally, and the second arrival prunes through the
/// masked probe — the workload behind the `live_masked_prunes` counter.
#[must_use]
pub fn dead_scratch_loop(trips: u32) -> Program {
    assemble(&format!(
        r"
            r1 = 0              ; i
        loop:
            r6 = r2             ; unknown bit decides the arm…
            r6 &= 1
            if r6 > 0 goto odd
            r6 = 11             ; …and both arms overwrite it, so the
            goto join
        odd:
            r6 = 22             ; arrivals differ only in dead r6
        join:
            r4 = r1
            r4 &= 15
            r3 = r10
            r3 += -16
            r3 += r4
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if r1 < {trips} goto loop
            r0 = r1
            exit
        "
    ))
    .expect("assembles")
}

/// A binary branch tree feeding a per-path bounded loop: `depth`
/// unknown-bit diamonds each fold a distinct power of two into `r6`, so
/// all `2^depth` paths reach the loop with pairwise-distinct *live*
/// accumulators — none of them prune each other, and the parallel
/// explorer can hand every subtree out as a stealable job. The loop
/// body masks its store index into the 16-byte window, so the program
/// is safe for every trip count and accumulator value.
#[must_use]
pub fn branchy_tree(depth: u32, trips: u32) -> Program {
    let mut src = String::from("    r2 = *(u8 *)(r1 + 0)\n    r6 = 0\n");
    for i in 0..depth {
        let bit = 1u64 << i;
        src.push_str(&format!(
            "    r3 = r2\n    r3 >>= {i}\n    r3 &= 1\n    if r3 > 0 goto join{i}\n    r6 += {bit}\njoin{i}:\n"
        ));
    }
    src.push_str(&format!(
        "    r7 = 0\nloop:\n    r4 = r7\n    r4 += r6\n    r4 &= 15\n    r3 = r10\n    r3 += -16\n    r3 += r4\n    *(u8 *)(r3 + 0) = 0\n    r7 += 1\n    if r7 < {trips} goto loop\n    r0 = r6\n    exit\n"
    ));
    assemble(&src).expect("assembles")
}

/// A loop-free packet-filter-style program: an untrusted byte bounded
/// by a branch guard (`bound` ≤ 63 keeps the store inside the 64-byte
/// window), a checked store, and a pure scalar ALU tail — the acyclic
/// workload in the mixed throughput batch, and a memo-friendly one (the
/// ALU tail repeats across `bound` variants).
///
/// # Panics
///
/// Panics when `bound > 63` (the store would not be provable).
#[must_use]
pub fn packet_filter(bound: u32) -> Program {
    assert!(bound <= 63, "bound {bound} would defeat the bounds proof");
    assemble(&format!(
        r"
            r2 = *(u8 *)(r1 + 0)
            if r2 > {bound} goto drop
            r3 = r10
            r3 += -64
            r3 += r2
            *(u8 *)(r3 + 0) = 1
            r4 = r2
            r4 <<= 2
            r4 += 14
            r4 &= 255
            r0 = r4
            exit
        drop:
            r0 = 0
            exit
        "
    ))
    .expect("assembles")
}

/// The canonical map-helper filter of `fixtures/map_filter.ebpf`: build a key on the stack, `map_lookup` it, NULL-check the
/// returned value pointer, and bump the counter through the refined
/// edge. Exercises the helper registry check, the `or_null` refinement
/// in `branch_states`, and the map-value bounds proof — none of which
/// the memo cache may serve.
#[must_use]
pub fn map_filter() -> Program {
    assemble(include_str!("../../../fixtures/map_filter.ebpf")).expect("assembles")
}

/// A bounded `map_update` loop (the `fixtures/map_update_loop.ebpf`
/// shape at a parameterized trip count): the key and value regions are
/// re-proved initialized on every trip and every call clobbers
/// `r1`–`r5`, so only `r6` carries the counter. Because helper
/// transfers are never memoized, this is the loop workload whose
/// per-trip cost the memo cache cannot amortize — the `maps/` rows'
/// `subset_checks` are pinned in `tests/guard_pins.rs`.
#[must_use]
pub fn map_update_loop(trips: u32) -> Program {
    assemble(&format!(
        r"
            r6 = 0
        loop:
            *(u32 *)(r10 - 4) = r6
            *(u64 *)(r10 - 16) = r6
            r1 = map 0
            r2 = r10
            r2 += -4
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
            r6 += 1
            if r6 < {trips} goto loop
            r0 = 0
            exit
        "
    ))
    .expect("assembles")
}

/// Programs in the mixed throughput batch.
pub const THROUGHPUT_BATCH: usize = 64;

/// Worker counts the throughput family sweeps.
pub const THROUGHPUT_JOBS: [usize; 4] = [1, 2, 4, 8];

/// The 64-program mixed batch behind the `throughput/` bench family:
/// loopy workloads (masked memset at varied trip counts, the
/// two-back-edge loop, the spill loop) interleaved with loop-free
/// packet filters, so work stealing has real cost variance to level and
/// an opted-in shared memo cache sees both repeated and fresh transfer
/// arguments.
#[must_use]
pub fn throughput_batch() -> Vec<Program> {
    (0..THROUGHPUT_BATCH)
        .map(|i| {
            let k = (i / 4) as u32;
            match i % 4 {
                0 => masked_memset(4 + (k % 8) * 8),
                1 => packet_filter(7 + (k % 8) * 8),
                2 => two_back_edge(),
                _ => spill_loop(8 + (k % 8) * 8),
            }
        })
        .collect()
}

/// The bench label of one throughput configuration.
#[must_use]
pub fn throughput_label(jobs: usize) -> String {
    format!("throughput/batch={THROUGHPUT_BATCH}/jobs={jobs}")
}

/// The bench label of the memo-on throughput row: the mixed batch on
/// one worker, every program sharing one explicit memo cache. One
/// worker makes its memo counters deterministic, so
/// `tests/guard_pins.rs` pins this row's memo hits.
#[must_use]
pub fn throughput_memo_label() -> String {
    format!("throughput/batch={THROUGHPUT_BATCH}/memo=on/jobs=1")
}

/// A default session that opts into one fresh transfer memo cache,
/// shared by every program it verifies.
#[must_use]
pub fn memo_session() -> VerificationSession {
    VerificationSession::new().with_options(AnalyzerOptions {
        memo_cache: Some(Arc::new(TransferMemo::new())),
        ..AnalyzerOptions::default()
    })
}

/// Runs per throughput measurement (a bench row, or one side of one of
/// `fixpoint_guard`'s pairs); the fastest one is kept.
pub const THROUGHPUT_RUNS: usize = 3;

/// Runs the mixed batch [`THROUGHPUT_RUNS`] times with `jobs` workers,
/// each on a fresh `session()` (so an opted-in memo starts cold every
/// time), checks that every program is accepted, and returns the
/// fastest run's stats.
#[must_use]
pub fn throughput_run(
    session: impl Fn() -> VerificationSession,
    batch: &[Program],
    jobs: usize,
) -> BatchStats {
    (0..THROUGHPUT_RUNS)
        .map(|_| {
            let report = session().run_batch(batch, jobs);
            assert_eq!(
                report.stats.rejected, 0,
                "throughput batch programs are all safe"
            );
            report.stats
        })
        .max_by(|a, b| a.programs_per_sec().total_cmp(&b.programs_per_sec()))
        .expect("at least one run")
}

/// The [`throughput_memo_label`] row: the mixed batch on one worker
/// through a cold, explicitly opted-in memo cache.
#[must_use]
pub fn throughput_memo_row() -> (String, BatchStats) {
    let stats = throughput_run(memo_session, &throughput_batch(), 1);
    (throughput_memo_label(), stats)
}

/// Measures the mixed batch at each [`THROUGHPUT_JOBS`] worker count on
/// default (memo-off) sessions, then once more as the
/// [`throughput_memo_row`], and returns the `(label, stats)` rows the
/// bench prints.
#[must_use]
pub fn throughput_rows() -> Vec<(String, BatchStats)> {
    let batch = throughput_batch();
    let mut rows: Vec<(String, BatchStats)> = THROUGHPUT_JOBS
        .iter()
        .map(|&jobs| {
            (
                throughput_label(jobs),
                throughput_run(VerificationSession::new, &batch, jobs),
            )
        })
        .collect();
    rows.push(throughput_memo_row());
    rows
}

/// Job counts the parallel-exploration (`parshard/`) family sweeps.
pub const PARSHARD_JOBS: [usize; 4] = [1, 2, 4, 8];

/// Diamond count of the branchy-tree parshard workload: 64 distinct
/// paths, each an independent loop walk.
pub const PARSHARD_DEPTH: u32 = 6;

/// Per-path loop trips of the branchy-tree parshard workload — chosen
/// so one subtree is a few thousand visits, far above the spawn
/// overhead of a stealable job.
pub const PARSHARD_TRIPS: u32 = 400;

/// The bench label of one parshard configuration.
#[must_use]
pub fn parshard_label(workload: &str, jobs: usize) -> String {
    format!("parshard/{workload}/jobs={jobs}")
}

/// Every `(label, program, session)` configuration of the `parshard/`
/// family: the branchy tree (`2^depth` independent subtrees — the
/// workload intra-program parallelism actually helps) and the
/// deep-unroll masked memset (one serial chain — the honest
/// no-parallelism-to-find row) under [`Strategy::PathParallel`] at each
/// [`PARSHARD_JOBS`] count. Every configuration unrolls its loop
/// exactly, so the whole cost is path exploration.
#[must_use]
pub fn parshard_configs(depth: u32, trips: u32) -> Vec<(String, Program, VerificationSession)> {
    let mut out = Vec::new();
    for &jobs in &PARSHARD_JOBS {
        out.push((
            parshard_label("branchy_tree", jobs),
            branchy_tree(depth, trips),
            VerificationSession::new()
                .with_strategy(Strategy::PathParallel)
                .with_options(AnalyzerOptions {
                    unroll_k: trips.max(64),
                    explore_jobs: jobs as u32,
                    ..AnalyzerOptions::default()
                }),
        ));
        out.push((
            parshard_label("deep_unroll", jobs),
            masked_memset(1024),
            VerificationSession::new()
                .with_strategy(Strategy::PathParallel)
                .with_options(AnalyzerOptions {
                    unroll_k: 1024,
                    explore_jobs: jobs as u32,
                    ..AnalyzerOptions::default()
                }),
        ));
    }
    out
}

/// Runs the full-size parshard family once per configuration and
/// returns `(label, wall-clock ms, stats)` rows. Unlike the sweep's
/// counters these are *not* deterministic — visit/prune totals shift
/// with scheduling — so the bench prints them in their own table and
/// nothing pins them.
#[must_use]
pub fn parshard_rows() -> Vec<(String, f64, AnalysisStats)> {
    parshard_configs(PARSHARD_DEPTH, PARSHARD_TRIPS)
        .into_iter()
        .map(|(label, prog, session)| {
            let start = std::time::Instant::now();
            let analysis = session
                .run(&prog)
                .unwrap_or_else(|e| panic!("{label}: parshard program rejected: {e}"));
            let ms = start.elapsed().as_secs_f64() * 1e3;
            (label, ms, analysis.stats())
        })
        .collect()
}

/// Trip counts straddling the default unroll bound (32).
pub const TRIPS: [u32; 5] = [4, 8, 16, 64, 1024];

/// Trips of the sweep's [`reg_bound_loop`].
pub const REG_BOUND_TRIPS: u32 = 4;

/// Unroll bounds swept per trip count (path-sensitive strategy): 0 is
/// the pure widening fallback, 64 unrolls everything but the 1024-trip
/// configuration exactly.
pub const UNROLLS: [u32; 3] = [0, 16, 64];

/// Every `(label, program, session)` configuration of the sweep, in the
/// order the bench reports them: the masked-memset trips under the
/// fixpoint strategy, trips × unrolls under the path-sensitive
/// strategy, the register-bounded loop, the
/// ablation and pruning workloads, then the map-helper
/// `maps/` family ([`maps_configs`]).
#[must_use]
pub fn sweep_configs() -> Vec<(String, Program, VerificationSession)> {
    let mut out = Vec::new();
    for &trips in &TRIPS {
        let prog = masked_memset(trips);
        out.push((
            format!("fixpoint/trips={trips}"),
            prog.clone(),
            VerificationSession::new(),
        ));
        for &unroll in &UNROLLS {
            out.push((
                format!("path/trips={trips}/unroll={unroll}"),
                prog.clone(),
                VerificationSession::new()
                    .with_strategy(Strategy::PathSensitive)
                    .with_options(AnalyzerOptions {
                        unroll_k: unroll,
                        ..AnalyzerOptions::default()
                    }),
            ));
        }
    }
    out.push((
        format!("fixpoint/reg_bound_loop/trips={REG_BOUND_TRIPS}"),
        reg_bound_loop(REG_BOUND_TRIPS),
        VerificationSession::new(),
    ));
    // Visited-cap ablation at the deep-unroll point (trips=1024,
    // unroll=64): unbounded chains isolate what fingerprint gating alone
    // buys; cap=8 shows the chain cap's marginal effect past the default.
    for &cap in &[0u32, 8] {
        out.push((
            format!("path/trips=1024/unroll=64/cap={cap}"),
            masked_memset(1024),
            VerificationSession::new()
                .with_strategy(Strategy::PathSensitive)
                .with_options(AnalyzerOptions {
                    unroll_k: 64,
                    visited_cap: cap,
                    ..AnalyzerOptions::default()
                }),
        ));
    }
    // Liveness-masking ablation: the same deep-unroll configuration with
    // `liveness_pruning` off is the unmasked twin the masked-pruning pin
    // in `tests/guard_pins.rs` (and EXPERIMENTS E18) compares against,
    // under both strategies.
    out.push((
        "path/trips=1024/unroll=64/masking=off".to_string(),
        masked_memset(1024),
        VerificationSession::new()
            .with_strategy(Strategy::PathSensitive)
            .with_options(AnalyzerOptions {
                unroll_k: 64,
                liveness_pruning: false,
                ..AnalyzerOptions::default()
            }),
    ));
    out.push((
        "fixpoint/trips=1024/masking=off".to_string(),
        masked_memset(1024),
        VerificationSession::new().with_options(AnalyzerOptions {
            liveness_pruning: false,
            ..AnalyzerOptions::default()
        }),
    ));
    // The dead-scratch loop, masked vs unmasked: per-trip arrivals at
    // the join differ only in the dead scratch register, so the masked
    // run collapses the two paths at every trip (`live_masked_prunes`)
    // while the unmasked run walks both.
    for masking in [true, false] {
        out.push((
            format!(
                "path/dead_scratch/trips=64{}",
                if masking { "" } else { "/masking=off" }
            ),
            dead_scratch_loop(64),
            VerificationSession::new()
                .with_strategy(Strategy::PathSensitive)
                .with_options(AnalyzerOptions {
                    liveness_pruning: masking,
                    ..AnalyzerOptions::default()
                }),
        ));
    }
    let pruning = two_back_edge();
    out.push((
        "fixpoint/two_back_edge".to_string(),
        pruning.clone(),
        VerificationSession::new(),
    ));
    for &unroll in &[4u32, 32] {
        // Below the 13 trips (fallback widening + summary pruning) and
        // above them (exact unrolling, pruning on path re-convergence).
        out.push((
            format!("path/two_back_edge/unroll={unroll}"),
            pruning.clone(),
            VerificationSession::new()
                .with_strategy(Strategy::PathSensitive)
                .with_options(AnalyzerOptions {
                    unroll_k: unroll,
                    ..AnalyzerOptions::default()
                }),
        ));
    }
    // The spill-heavy workload: loop-carried spills in two different
    // chunks, under both strategies — the chunked-frame
    // `bytes_materialized` showcase.
    let spills = spill_loop(64);
    out.push((
        "fixpoint/spill_loop/trips=64".to_string(),
        spills.clone(),
        VerificationSession::new(),
    ));
    out.push((
        "path/spill_loop/trips=64/unroll=16".to_string(),
        spills,
        VerificationSession::new()
            .with_strategy(Strategy::PathSensitive)
            .with_options(AnalyzerOptions {
                unroll_k: 16,
                ..AnalyzerOptions::default()
            }),
    ));
    out.extend(maps_configs());
    out
}

/// The map-helper `maps/` family (appended to [`sweep_configs`]; its
/// subset checks are pinned in `tests/guard_pins.rs`, and
/// `fixpoint_guard` times it per visit against the rest of the sweep):
/// the lookup filter under both strategies, and the update loop at a
/// short and a deep trip count. Helper transfers are never memoized, so these rows measure
/// the registry check, the NULL-refinement split, and the map-value
/// bounds proofs at full per-visit cost.
#[must_use]
pub fn maps_configs() -> Vec<(String, Program, VerificationSession)> {
    let mut out = Vec::new();
    out.push((
        "maps/filter/fixpoint".to_string(),
        map_filter(),
        VerificationSession::new(),
    ));
    out.push((
        "maps/filter/path".to_string(),
        map_filter(),
        VerificationSession::new().with_strategy(Strategy::PathSensitive),
    ));
    for &(trips, unroll) in &[(8u32, 16u32), (64, 64)] {
        out.push((
            format!("maps/update_loop/trips={trips}/fixpoint"),
            map_update_loop(trips),
            VerificationSession::new(),
        ));
        out.push((
            format!("maps/update_loop/trips={trips}/path/unroll={unroll}"),
            map_update_loop(trips),
            VerificationSession::new()
                .with_strategy(Strategy::PathSensitive)
                .with_options(AnalyzerOptions {
                    unroll_k: unroll,
                    ..AnalyzerOptions::default()
                }),
        ));
    }
    out
}

/// Runs every sweep configuration once and returns its statistics.
/// Panics if any configuration is rejected — the sweep programs are safe
/// under every configuration (the masked index carries the memset proof
/// even when the counter widens; the two-back-edge exit test is
/// harvested as a threshold), so a rejection is an engine regression.
#[must_use]
pub fn collect_stats() -> Vec<(String, AnalysisStats)> {
    sweep_configs()
        .into_iter()
        .map(|(label, prog, session)| {
            let analysis = session
                .run(&prog)
                .unwrap_or_else(|e| panic!("{label}: sweep program rejected: {e}"));
            (label, analysis.stats())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_accepted_and_prunes() {
        let stats = collect_stats();
        assert_eq!(
            stats.len(),
            // trips sweep + register-bounded loop (1) + cap ablation
            // (2) + masking ablation (2) + dead-scratch masking pair (2)
            // + two-back-edge (3) + spill loop (2) + maps family (6).
            TRIPS.len() * (1 + UNROLLS.len()) + 18
        );
        let total: u64 = stats.iter().map(|(_, s)| s.states_allocated).sum();
        assert!(total > 0);
        let pruned: u64 = stats.iter().map(|(_, s)| s.states_pruned).sum();
        assert!(pruned > 0, "the sweep must exercise pruning");
        // Labels are exact: the deep-unroll row and its /cap ablation
        // variants are distinct rows.
        for label in [
            "path/trips=1024/unroll=64",
            "path/trips=1024/unroll=64/cap=0",
        ] {
            assert_eq!(
                stats.iter().filter(|(l, _)| l == label).count(),
                1,
                "{label}"
            );
        }
    }

    #[test]
    fn maps_family_rows_are_accepted_and_probe_the_visited_table() {
        let rows: Vec<(String, AnalysisStats)> = maps_configs()
            .into_iter()
            .map(|(label, prog, session)| {
                let analysis = session
                    .run(&prog)
                    .unwrap_or_else(|e| panic!("{label}: maps program rejected: {e}"));
                (label, analysis.stats())
            })
            .collect();
        assert_eq!(rows.len(), 6);
        assert!(rows.iter().all(|(l, _)| l.starts_with("maps/")));
        // The deep update loop is the family's regression surface: it
        // must actually probe the visited table on its back edge.
        let deep = rows
            .iter()
            .find(|(l, _)| l == "maps/update_loop/trips=64/path/unroll=64")
            .expect("deep maps row present");
        assert!(deep.1.subset_checks > 0, "{:?}", deep.1);
    }

    #[test]
    fn fingerprint_and_eviction_counters_fire_on_the_sweep() {
        let stats = collect_stats();
        let by_label = |needle: &str| {
            stats
                .iter()
                .find(|(l, _)| l == needle)
                .unwrap_or_else(|| panic!("{needle} missing from sweep"))
                .1
        };
        // Deep unrolling floods the loop-head chain: fingerprint gating
        // must dismiss most candidates and the cap must evict.
        let deep = by_label("path/trips=1024/unroll=64");
        assert!(deep.fingerprint_rejects > 0, "{deep:?}");
        assert!(deep.visited_evicted > 0, "{deep:?}");
        // Unbounded chains never capacity-evict; dominance eviction may
        // still fire, but the probe side must dismiss more than the
        // capped run examines in full.
        let uncapped = by_label("path/trips=1024/unroll=64/cap=0");
        assert!(uncapped.fingerprint_rejects >= deep.fingerprint_rejects);
        // The spill loop materializes chunks, not whole frames: the
        // copied volume stays far below a 4 KiB-per-join regime.
        let spills = by_label("fixpoint/spill_loop/trips=64");
        assert!(spills.bytes_materialized > 0);
        assert!(
            spills.bytes_materialized < spills.states_allocated * 4096,
            "chunked frames must copy less than whole-frame semantics: {spills:?}"
        );
    }

    #[test]
    fn masking_cuts_subset_checks_at_the_deep_unroll_point() {
        let stats = collect_stats();
        let by_label = |needle: &str| {
            stats
                .iter()
                .find(|(l, _)| l == needle)
                .unwrap_or_else(|| panic!("{needle} missing from sweep"))
                .1
        };
        let masked = by_label("path/trips=1024/unroll=64");
        let unmasked = by_label("path/trips=1024/unroll=64/masking=off");
        println!("masked:   {masked:?}");
        println!("unmasked: {unmasked:?}");
        // The ablation twin runs with masking off: its new counters are
        // structurally zero.
        assert_eq!(unmasked.live_masked_prunes, 0, "{unmasked:?}");
        assert_eq!(unmasked.dead_components_cleared, 0, "{unmasked:?}");
        // The masked run cleans dead components at checkpoints and
        // spends at least 25% fewer deep subset checks than its
        // unmasked twin (the PR 7 acceptance bar; the exact counts are
        // pinned in `tests/guard_pins.rs`).
        assert!(masked.dead_components_cleared > 0, "{masked:?}");
        assert!(
            masked.subset_checks * 4 <= unmasked.subset_checks * 3,
            "masked {} vs unmasked {} subset checks",
            masked.subset_checks,
            unmasked.subset_checks
        );
        // The dead-scratch loop is where masked probes actually *prune*:
        // per-trip arrivals at the join differ only in the dead scratch
        // register, so cleaning makes them collide by fingerprint and
        // the masked run explores strictly less than the unmasked one.
        let ds_masked = by_label("path/dead_scratch/trips=64");
        let ds_unmasked = by_label("path/dead_scratch/trips=64/masking=off");
        assert!(ds_masked.live_masked_prunes > 0, "{ds_masked:?}");
        assert!(
            ds_masked.visits < ds_unmasked.visits,
            "masked {} vs unmasked {} visits",
            ds_masked.visits,
            ds_unmasked.visits
        );
        // The fixpoint strategy keeps its verdict-relevant work identical
        // under masking (same visits), it only cleans.
        let fx_masked = by_label("fixpoint/trips=1024");
        let fx_unmasked = by_label("fixpoint/trips=1024/masking=off");
        assert_eq!(fx_masked.visits, fx_unmasked.visits);
        assert!(fx_masked.dead_components_cleared > 0, "{fx_masked:?}");
    }

    #[test]
    fn throughput_batch_is_mixed_and_accepted() {
        let batch = throughput_batch();
        assert_eq!(batch.len(), THROUGHPUT_BATCH);
        // Mixed sizes: the batch must contain more than one distinct
        // program length (loopy and loop-free workloads differ).
        let mut lens: Vec<usize> = batch.iter().map(ebpf::Program::len).collect();
        lens.sort_unstable();
        lens.dedup();
        assert!(lens.len() > 1, "batch must mix workload shapes: {lens:?}");
        // A slice through the batched engine: every program accepted,
        // and an explicitly shared cache sees cross-program hits.
        let report = memo_session().run_batch(&batch[..8], 2);
        assert_eq!(report.stats.accepted, 8, "{:?}", report.stats);
        assert!(report.stats.memo_hits > 0, "{:?}", report.stats);
    }

    #[test]
    fn throughput_rate_is_programs_per_elapsed_second() {
        use std::time::Duration;
        let stats = BatchStats {
            programs: THROUGHPUT_BATCH,
            accepted: THROUGHPUT_BATCH,
            rejected: 0,
            jobs: 4,
            inner_jobs: 1,
            elapsed: Duration::from_millis(128),
            per_worker_programs: vec![16; 4],
            per_worker_visits: vec![100; 4],
            memo_hits: 375,
            memo_misses: 225,
            memo_evicted: 3,
            deadline_exceeded: 0,
            internal_faults: 0,
            degradations: 0,
        };
        assert!((stats.programs_per_sec() - 500.0).abs() < 1e-9);
        assert_eq!(throughput_label(4), "throughput/batch=64/jobs=4");
    }

    #[test]
    fn parshard_rows_spawn_on_the_branchy_tree_only() {
        // A scaled-down family (8 paths × 24 trips) keeps the debug-mode
        // test fast; the bench runs the full-size rows.
        let rows: Vec<(String, AnalysisStats)> = parshard_configs(3, 24)
            .into_iter()
            .map(|(label, prog, session)| {
                let analysis = session.run(&prog).expect("parshard workload accepted");
                (label, analysis.stats())
            })
            .collect();
        assert_eq!(rows.len(), PARSHARD_JOBS.len() * 2);
        // The branchy tree spawns subtrees at every job count (spawning
        // is a property of the walk, not the worker count)…
        let branchy = rows
            .iter()
            .find(|(l, _)| l == &parshard_label("branchy_tree", 4))
            .expect("branchy row present");
        assert!(branchy.1.subtrees_spawned > 0, "{:?}", branchy.1);
        // …while the serial deep-unroll chain has nothing to hand out
        // except its final loop exit.
        let serial = rows
            .iter()
            .find(|(l, _)| l == &parshard_label("deep_unroll", 4))
            .expect("deep-unroll row present");
        assert!(serial.1.subtrees_spawned <= 1, "{:?}", serial.1);
    }

    #[test]
    fn pruning_workload_prunes_under_path_sensitivity() {
        let stats = collect_stats();
        let pruned_on_two_back_edge: u64 = stats
            .iter()
            .filter(|(label, _)| label.starts_with("path/two_back_edge"))
            .map(|(_, s)| s.states_pruned)
            .sum();
        assert!(pruned_on_two_back_edge > 0, "two-back-edge suite prunes");
    }
}
