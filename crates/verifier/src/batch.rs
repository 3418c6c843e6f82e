//! The batched verification engine: verify many programs concurrently
//! on a scoped-thread worker pool, measured in **programs/sec**.
//!
//! This is the "verification-as-a-service" throughput layer from the
//! ROADMAP: a load-time verifier is rarely handed one program at a time
//! — it sees fleets (every variant of a packet filter, a CI sweep of
//! fixtures) — and the per-program analyses are independent. Because
//! [`AbsState`] is `Rc`-backed and `!Send`,
//! parallelism is **program-granular**: each worker owns every state it
//! allocates, and nothing `Rc`-backed ever crosses a thread boundary.
//! Two mechanisms make the pool more than N independent loops:
//!
//! * **Work stealing.** Workers claim programs from a shared
//!   [`WorkQueue`] instead of a static partition, so a worker that drew
//!   cheap acyclic programs immediately steals the remaining loopy
//!   ones. Analysis costs within one batch differ by orders of
//!   magnitude, which is exactly when static chunking idles.
//! * **Cross-program memoization (opt-in).** Items whose options hold
//!   one shared [`TransferMemo`](crate::memo::TransferMemo) `Arc` reuse
//!   each other's pure scalar transfer results, with full operand
//!   equality checked before each reuse. Off by default: see
//!   [`AnalyzerOptions::memo_cache`] for when it pays.
//!
//! Results come back **in submission order** as real
//! [`Analysis`] values: each worker flattens its per-instruction states
//! into dense `Copy` snapshots (which *are* `Send`), and the submitting
//! thread rebuilds them — fingerprints and all — after the scope joins.

use std::time::{Duration, Instant};

use domain::parallel::{default_threads, par_workers, WorkQueue};
use ebpf::Program;

use crate::analyzer::{Analysis, AnalyzerOptions, DegradationPolicy, VerificationSession};
use crate::error::VerifierError;
use crate::explore::Strategy;
use crate::fixpoint::{self, AnalysisStats};
use crate::memo;
use crate::state::{AbsState, SparseStack, REGS};
use crate::value::RegValue;

/// One unit of batch work: a program with its own options and strategy.
/// Heterogeneous batches (per-program configuration) are first-class;
/// [`VerificationSession::run_batch`] builds homogeneous ones sharing
/// the session's options — including its memo cache `Arc`, if any.
#[derive(Clone, Debug)]
pub struct BatchItem {
    /// The program to verify.
    pub prog: Program,
    /// The analysis options for this program. Items whose options hold
    /// the same `memo_cache` `Arc` share cached transfer results.
    pub options: AnalyzerOptions,
    /// The exploration strategy for this program.
    pub strategy: Strategy,
    /// What the worker's session does when a governance fault (a
    /// contained panic or a blown deadline) hits this program: walk the
    /// degradation ladder (the default) or fail fast.
    pub degradation: DegradationPolicy,
}

/// The roll-up of one batch run: throughput, verdict counts, how the
/// work spread across workers, and the memo-cache traffic.
#[derive(Clone, Debug)]
pub struct BatchStats {
    /// Programs submitted.
    pub programs: usize,
    /// Programs accepted.
    pub accepted: usize,
    /// Programs rejected (any [`VerifierError`]).
    pub rejected: usize,
    /// Worker threads the pool actually ran (the *outer*,
    /// program-granular level).
    pub jobs: usize,
    /// Intra-program explorer threads granted to each
    /// [`Strategy::PathParallel`] item that left
    /// [`AnalyzerOptions::explore_jobs`] at `0`: the batch thread
    /// budget divided by the outer worker count, so outer × inner never
    /// oversubscribes it. `1` when the batch has no such items or the
    /// budget is spent on the outer level.
    pub inner_jobs: usize,
    /// Wall-clock time from first claim to scope join.
    pub elapsed: Duration,
    /// Programs each worker claimed — the work-stealing distribution.
    pub per_worker_programs: Vec<usize>,
    /// Instruction visits each worker's analyses consumed — including
    /// the partial walks of *rejected* runs (which abort at the first
    /// error and report no `AnalysisStats` of their own): the work a
    /// rejection burned is real batch load and is not dropped from the
    /// roll-up.
    pub per_worker_visits: Vec<u64>,
    /// Memo-cache hits across all workers (accepted and rejected runs).
    pub memo_hits: u64,
    /// Memo-cache misses across all workers.
    pub memo_misses: u64,
    /// Memo-cache entries evicted by the per-shard caps.
    pub memo_evicted: u64,
    /// Programs whose final verdict was
    /// [`VerifierError::DeadlineExceeded`] — the wall-clock governance
    /// rejections ([`AnalyzerOptions::deadline`]).
    pub deadline_exceeded: usize,
    /// Programs whose final verdict was
    /// [`VerifierError::InternalFault`] — per-program contained panics
    /// that did not take the batch down.
    pub internal_faults: usize,
    /// Total strategy downgrades the sessions' degradation ladders took
    /// across the batch's *accepted* programs
    /// ([`AnalysisStats::degradations`] summed).
    pub degradations: u64,
}

impl BatchStats {
    /// Verification throughput: programs per wall-clock second.
    #[must_use]
    pub fn programs_per_sec(&self) -> f64 {
        self.programs as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// Fraction of memo lookups that hit, in `[0, 1]` (0 when the cache
    /// was disabled or never consulted).
    #[must_use]
    pub fn memo_hit_rate(&self) -> f64 {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            0.0
        } else {
            self.memo_hits as f64 / total as f64
        }
    }
}

/// The result of a batch run: per-program outcomes in submission order
/// plus the [`BatchStats`] roll-up.
#[derive(Debug)]
pub struct BatchReport {
    /// One verdict per submitted program, index-aligned with the input.
    pub results: Vec<Result<Analysis, VerifierError>>,
    /// The run's throughput and distribution counters.
    pub stats: BatchStats,
}

/// One per-instruction state flattened to the `Send` representation
/// that crosses the worker boundary: a dense register file plus a
/// *sparse* stack — one boxed chunk per materialized frame position,
/// `None` where the chunk is entirely uninitialized (untouched, or
/// cleaned to ⊤ by liveness pruning). A stackless or mostly-dead point
/// is therefore ~11 register values and eight `None`s, not ~5 KiB.
struct DensePoint {
    regs: [RegValue; REGS],
    chunks: SparseStack,
}

/// A whole [`Analysis`] in `Send` form.
struct SendAnalysis {
    strategy: Strategy,
    states: Vec<Option<Box<DensePoint>>>,
    stats: AnalysisStats,
}

impl SendAnalysis {
    fn capture(a: &Analysis) -> SendAnalysis {
        SendAnalysis {
            strategy: a.strategy(),
            states: a
                .raw_states()
                .iter()
                .map(|s| {
                    s.as_ref().map(|st| {
                        let (regs, chunks) = st.to_parts();
                        Box::new(DensePoint { regs, chunks })
                    })
                })
                .collect(),
            stats: a.stats(),
        }
    }

    fn rebuild(self) -> Analysis {
        Analysis::from_raw(
            self.strategy,
            self.states
                .into_iter()
                .map(|p| p.map(|p| AbsState::from_parts(p.regs, p.chunks)))
                .collect(),
            self.stats,
        )
    }
}

/// What one worker brings back across the scope join.
struct WorkerOutput {
    results: Vec<(usize, Result<SendAnalysis, VerifierError>)>,
    visits: u64,
    memo: (u64, u64, u64),
}

/// Verifies every item concurrently on `jobs` workers (0 =
/// [`default_threads`], which honors `TNUM_THREADS`), returning
/// per-program results in submission order.
///
/// This is the heterogeneous entry point;
/// [`VerificationSession::run_batch`] is the common homogeneous wrapper.
#[must_use]
pub fn run(items: &[BatchItem], jobs: usize) -> BatchReport {
    let jobs = if jobs == 0 { default_threads() } else { jobs };
    let workers = jobs.min(items.len()).max(1);
    // One thread budget, two levels: `workers` outer threads verify
    // whole programs, and every `PathParallel` item that left
    // `explore_jobs` at 0 (= auto) gets the leftover budget as its
    // intra-program worker count, so `outer × inner ≤ jobs` (plus the
    // coordinator, which only blocks).
    let inner_jobs = (jobs / workers).max(1);
    let queue = WorkQueue::new(items.len());
    let start = Instant::now();
    let per_worker = par_workers(workers, |_worker| {
        let mut results = Vec::new();
        let mut visits: u64 = 0;
        let mut memo = (0u64, 0u64, 0u64);
        while let Some(i) = queue.claim() {
            let item = &items[i];
            let mut options = item.options.clone();
            if item.strategy == Strategy::PathParallel && options.explore_jobs == 0 {
                options.explore_jobs = inner_jobs as u32;
            }
            let session = VerificationSession::new()
                .with_options(options)
                .with_strategy(item.strategy)
                .with_degradation(item.degradation);
            memo::counters::reset();
            fixpoint::ledger::reset();
            // Belt over the session's own containment: a panic anywhere
            // in this program's run (including the dense-state capture
            // below) costs only this slot, never the batch.
            let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.run(&item.prog).map(|a| SendAnalysis::capture(&a))
            }))
            .unwrap_or_else(|payload| Err(VerifierError::from_panic(payload.as_ref())));
            // The thread-local memo counters and visit ledger now hold
            // exactly this program's traffic — harvested here so
            // rejected runs (which produce no `AnalysisStats`) still
            // contribute the partial work they burned.
            visits += fixpoint::ledger::snapshot();
            let (h, m, e) = memo::counters::snapshot();
            memo = (memo.0 + h, memo.1 + m, memo.2 + e);
            results.push((i, res));
        }
        WorkerOutput {
            results,
            visits,
            memo,
        }
    });
    let elapsed = start.elapsed();

    let mut slots: Vec<Option<Result<Analysis, VerifierError>>> =
        std::iter::repeat_with(|| None).take(items.len()).collect();
    let mut per_worker_programs = Vec::with_capacity(workers);
    let mut per_worker_visits = Vec::with_capacity(workers);
    let (mut memo_hits, mut memo_misses, mut memo_evicted) = (0, 0, 0);
    for w in per_worker {
        per_worker_programs.push(w.results.len());
        per_worker_visits.push(w.visits);
        memo_hits += w.memo.0;
        memo_misses += w.memo.1;
        memo_evicted += w.memo.2;
        for (i, res) in w.results {
            slots[i] = Some(res.map(SendAnalysis::rebuild));
        }
    }
    let results: Vec<Result<Analysis, VerifierError>> = slots
        .into_iter()
        .map(|r| r.expect("the queue hands every index to exactly one worker"))
        .collect();
    let accepted = results.iter().filter(|r| r.is_ok()).count();
    let (mut deadline_exceeded, mut internal_faults, mut degradations) = (0usize, 0usize, 0u64);
    for res in &results {
        match res {
            Ok(a) => degradations += a.stats().degradations,
            Err(VerifierError::DeadlineExceeded { .. }) => deadline_exceeded += 1,
            Err(VerifierError::InternalFault { .. }) => internal_faults += 1,
            Err(_) => {}
        }
    }
    BatchReport {
        stats: BatchStats {
            programs: items.len(),
            accepted,
            rejected: results.len() - accepted,
            jobs: workers,
            inner_jobs,
            elapsed,
            per_worker_programs,
            per_worker_visits,
            memo_hits,
            memo_misses,
            memo_evicted,
            deadline_exceeded,
            internal_faults,
            degradations,
        },
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf::asm::assemble;
    use ebpf::Reg;

    fn progs(srcs: &[&str]) -> Vec<Program> {
        srcs.iter().map(|s| assemble(s).unwrap()).collect()
    }

    /// A session that opts into one explicit memo cache, shared by every
    /// program of its batches.
    fn memo_session() -> VerificationSession {
        VerificationSession::new().with_options(AnalyzerOptions {
            memo_cache: Some(std::sync::Arc::new(crate::memo::TransferMemo::new())),
            ..AnalyzerOptions::default()
        })
    }

    #[test]
    fn dense_snapshots_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SendAnalysis>();
        assert_send::<WorkerOutput>();
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Distinct return constants identify each program; one reject in
        // the middle must stay at its own index.
        let batch = progs(&[
            "r0 = 10\nexit",
            "r0 = r9\nexit", // uninit read: rejected
            "r0 = 30\nexit",
            "r0 = 40\nexit",
        ]);
        for jobs in [1, 2, 8] {
            let report = VerificationSession::new().run_batch(&batch, jobs);
            assert_eq!(report.results.len(), 4);
            assert!(matches!(
                report.results[1],
                Err(VerifierError::UninitRead { .. })
            ));
            for (i, want) in [(0, 10), (2, 30), (3, 40)] {
                let a = report.results[i].as_ref().unwrap();
                let r0 = a.state_before(1).unwrap().reg(Reg::R0).as_scalar().unwrap();
                assert_eq!(r0.as_constant(), Some(want), "index {i} at jobs={jobs}");
            }
            assert_eq!(report.stats.accepted, 3);
            assert_eq!(report.stats.rejected, 1);
            assert_eq!(report.stats.programs, 4);
            assert_eq!(
                report.stats.per_worker_programs.iter().sum::<usize>(),
                4,
                "every program claimed exactly once"
            );
            assert_eq!(report.stats.jobs, jobs.min(4));
        }
    }

    #[test]
    fn rebuilt_states_match_a_sequential_run_exactly() {
        let prog = assemble(
            r"
                r2 = *(u8 *)(r1 + 0)
                r2 &= 7
                r3 = r10
                r3 += -8
                r3 += r2
                *(u8 *)(r3 + 0) = 0
                r0 = 0
                exit
            ",
        )
        .unwrap();
        let session = memo_session();
        let direct = session.run(&prog).unwrap();
        let report = session.run_batch(std::slice::from_ref(&prog), 1);
        let batched = report.results[0].as_ref().unwrap();
        assert_eq!(batched.strategy(), direct.strategy());
        // The session's memo cache is shared across runs, so the second
        // run hits where the first missed; every other counter (and all
        // verdict-relevant output below) must be identical.
        let neutral = |mut s: crate::AnalysisStats| {
            s.memo_hits = 0;
            s.memo_misses = 0;
            s.memo_evicted = 0;
            s
        };
        assert_eq!(neutral(batched.stats()), neutral(direct.stats()));
        assert!(direct.stats().memo_misses > 0, "{:?}", direct.stats());
        assert_eq!(
            batched.stats().memo_hits + batched.stats().memo_misses,
            direct.stats().memo_hits + direct.stats().memo_misses,
            "memo traffic volume matches even when hit/miss split differs"
        );
        for pc in 0..prog.len() {
            match (direct.state_before(pc), batched.state_before(pc)) {
                (None, None) => {}
                (Some(a), Some(b)) => {
                    assert_eq!(a, b, "state at pc {pc}");
                    assert_eq!(a.fingerprint(), b.fingerprint(), "fingerprint at pc {pc}");
                }
                (a, b) => panic!("reachability diverged at pc {pc}: {a:?} vs {b:?}"),
            }
        }
        assert_eq!(batched.annotate(&prog), direct.annotate(&prog));
    }

    #[test]
    fn snapshots_skip_uninit_stack_chunks_and_rebuilds_share_them() {
        // A stackless program: every captured point crosses the thread
        // boundary with zero dense chunks.
        let prog = assemble("r0 = 0\nexit").unwrap();
        let direct = VerificationSession::new().run(&prog).unwrap();
        let send = SendAnalysis::capture(&direct);
        for point in send.states.iter().flatten() {
            assert!(
                point.chunks.iter().all(Option::is_none),
                "untouched frame snapshots dense chunks"
            );
        }
        // One spill materializes exactly one chunk in the snapshot …
        let prog = assemble("r3 = 1\n*(u64 *)(r10 - 8) = r3\nr0 = 0\nexit").unwrap();
        let direct = VerificationSession::new().run(&prog).unwrap();
        let send = SendAnalysis::capture(&direct);
        let at_exit = send.states[3].as_ref().unwrap();
        assert_eq!(
            at_exit.chunks.iter().filter(|c| c.is_some()).count(),
            1,
            "one spilled chunk is dense, the other seven stay sparse"
        );
        // … and rebuilt frames share one empty-chunk allocation: two
        // rebuilt pre-spill states agree on all chunks by *pointer*.
        let rebuilt = send.rebuild();
        let (a, b) = (
            rebuilt.state_before(0).unwrap(),
            rebuilt.state_before(1).unwrap(),
        );
        assert_eq!(a.shared_stack_chunks(b), crate::STACK_CHUNKS);
        assert_eq!(rebuilt.state_before(3), direct.state_before(3));
    }

    #[test]
    fn batch_shares_the_memo_cache_across_programs() {
        // Two identical programs through one session: on jobs=1 the
        // second run must hit the entries the first one inserted.
        let batch = progs(&["r2 = 5\nr2 += 3\nr2 *= 2\nr0 = r2\nexit"; 2]);
        let report = memo_session().run_batch(&batch, 1);
        assert!(
            report.stats.memo_hits > 0,
            "second program reuses the first's transfer results: {:?}",
            report.stats
        );
        let hit_rate = report.stats.memo_hit_rate();
        assert!(hit_rate > 0.0 && hit_rate <= 1.0);
        // And the per-program stats surface the same traffic.
        let second = report.results[1].as_ref().unwrap().stats();
        assert!(second.memo_hits > 0, "{second:?}");
    }

    #[test]
    fn region_checks_share_the_memo_cache() {
        // A program whose only memoizable work is the memory check: no
        // scalar×scalar ALU, no scalar branch. The second identical
        // program must hit the first one's cached region verdict.
        let batch = progs(&["r3 = 1\n*(u64 *)(r10 - 8) = r3\nr0 = 0\nexit"; 2]);
        let report = memo_session().run_batch(&batch, 1);
        assert!(
            report.stats.memo_hits > 0,
            "second program reuses the first's region-check verdict: {:?}",
            report.stats
        );
        let (a, b) = (
            report.results[0].as_ref().unwrap(),
            report.results[1].as_ref().unwrap(),
        );
        assert_eq!(a.annotate(&batch[0]), b.annotate(&batch[1]));
    }

    #[test]
    fn path_parallel_items_split_the_batch_thread_budget() {
        let batch = progs(&[
            "r2 = *(u8 *)(r1 + 0)\nif r2 > 3 goto a\nr2 += 1\na:\nr2 &= 6\nr0 = r2\nexit",
            "r0 = 7\nexit",
        ]);
        let report = VerificationSession::new()
            .with_strategy(Strategy::PathParallel)
            .run_batch(&batch, 8);
        // 8 threads over 2 programs: 2 outer workers × 4 inner explorer
        // jobs each.
        assert_eq!(report.stats.jobs, 2);
        assert_eq!(report.stats.inner_jobs, 4);
        // And the rebuilt analyses match the sequential strategy's.
        let seq = VerificationSession::new()
            .with_strategy(Strategy::PathSensitive)
            .run_batch(&batch, 1);
        for (i, (p, s)) in report.results.iter().zip(seq.results.iter()).enumerate() {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.annotate(&batch[i]), s.annotate(&batch[i]));
        }
        // An explicit per-item explore_jobs is never overridden.
        let items = vec![BatchItem {
            prog: batch[0].clone(),
            options: AnalyzerOptions {
                explore_jobs: 1,
                ..AnalyzerOptions::default()
            },
            strategy: Strategy::PathParallel,
            degradation: DegradationPolicy::default(),
        }];
        let report = run(&items, 8);
        assert!(report.results[0].is_ok());
        assert_eq!(report.results[0].as_ref().unwrap().stats().steals, 0);
    }

    #[test]
    fn empty_batch_is_a_clean_noop() {
        let report = VerificationSession::new().run_batch(&[], 4);
        assert!(report.results.is_empty());
        assert_eq!(report.stats.programs, 0);
        assert_eq!(report.stats.accepted, 0);
        assert_eq!(report.stats.memo_hit_rate(), 0.0);
    }

    #[test]
    fn zero_jobs_selects_default_threads() {
        let report = VerificationSession::new().run_batch(&progs(&["r0 = 0\nexit"]), 0);
        assert_eq!(report.stats.jobs, 1, "capped by batch size");
        assert!(report.results[0].is_ok());
    }

    #[test]
    fn heterogeneous_items_run_their_own_configuration() {
        let loopy = assemble("l:\nr0 = 0\ngoto l\nexit").unwrap();
        let items = vec![
            BatchItem {
                prog: loopy.clone(),
                options: AnalyzerOptions::default(),
                strategy: Strategy::WideningFixpoint,
                degradation: DegradationPolicy::default(),
            },
            BatchItem {
                prog: loopy,
                options: AnalyzerOptions {
                    reject_loops: true,
                    ..AnalyzerOptions::default()
                },
                strategy: Strategy::WideningFixpoint,
                degradation: DegradationPolicy::default(),
            },
        ];
        let report = run(&items, 2);
        assert!(report.results[0].is_ok(), "fixpoint accepts the loop");
        assert!(
            matches!(report.results[1], Err(VerifierError::LoopDetected { .. })),
            "reject_loops item keeps its own policy"
        );
    }
}
