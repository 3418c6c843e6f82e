//! Work-stealing **intra-program** path exploration — the parallel
//! driver of the path explorers' shared walk.
//!
//! [`PathSensitive`] and [`PathParallel`]
//! run the same depth-first walk over the same per-program plan (see
//! [`crate::explore`]); this module only adds the pool, the jobs, the
//! merge and the error policy. Past a configurable nesting depth
//! ([`AnalyzerOptions::spawn_depth`]) the walk's policy takes a fork's
//! *fall-through* arm — the subtree the DFS would walk last — off the
//! walk's stack and packages it as a stealable **job** on a per-worker
//! deque ([`domain::parallel::StealPool`]); idle workers steal the oldest
//! (largest) outstanding subtree and walk it with a fresh job-local walk.
//! States cross the shard boundary as the same dense
//! `to_parts`/`from_parts` snapshots `verifier::batch` ships finished
//! analyses with, so `AbsState` stays `Rc`-backed and allocation-cheap
//! inside each worker. All workers prune against one shared, striped
//! visited table with the sequential table's chain policy, so a subtree
//! explored on one worker prunes re-convergent arrivals on every other
//! (`AnalysisStats::shared_prunes`).
//!
//! Each worker's state and memo traffic lands in its own thread's
//! counter block, and its visits in one shared atomic (the global
//! budget). The coordinator folds both into its own block with one
//! credit, so, as under every strategy, the run's
//! [`AnalysisStats`] are what the coordinator's block gained during the
//! run.
//!
//! ## Determinism contract
//!
//! While no job widens a loop head (every loop a job walks stays within
//! [`AnalyzerOptions::unroll_k`] trips), verdicts, errors, and per-pc
//! reported joins are **bit-identical** to the sequential explorer at
//! any job count; only visit/prune counters may differ. Past that bound
//! the reports may differ (see the second mechanism). Three mechanisms
//! carry the contract:
//!
//! * **Structured merge.** Each job accumulates its per-pc report joins
//!   locally, and records its spawned children in order. The
//!   coordinator folds job accumulators in the job tree's pre-order
//!   with children visited in *reverse spawn order* — exactly the
//!   sequential DFS ordering of the same subtrees — so the global fold
//!   regroups, but never reorders, the sequential fold. `Scalar::union`
//!   is insensitive to such regrouping at the representation level
//!   (`flow_join` with a covered operand is the identity on the
//!   accumulator's representation), which the `parallel_explore` fuzz
//!   lock enforces across the whole options matrix.
//! * **Back edges never spawn.** Every lap of a cycle stays inside the
//!   job that entered it, so the spawn tree stays acyclic. A job does
//!   start with fresh loop-head summaries, though: one spawned inside a
//!   loop that runs past `unroll_k` widens from its own arrival, not
//!   from the sequential walk's summary, and its reported states can
//!   differ (still sound: every job widens soundly). `tests/report_pins.rs`
//!   pins one such case as it stands: `two_back_edge` at unroll 4, where
//!   `r6` differs.
//! * **Sequential rerun on any error.** Shared pruning can change
//!   *which* unsafe path is discovered first across workers, so the
//!   moment any job errors (including budget exhaustion) the parallel
//!   result is discarded wholesale and the sequential explorer's
//!   verdict is returned verbatim — rejections are reproduced
//!   bit-identically by construction. (Inclusion-monotonicity of the
//!   transfer checks guarantees a parallel run never *accepts* a
//!   program the sequential walk would reject: any pruned arrival is
//!   covered by a recorded state whose own walk errors no later.) The
//!   one caveat: a program within ε of `analysis_budget` may be
//!   accepted in parallel — shared prunes can save just enough visits —
//!   where the sequential walk exhausts; budgets are a resource policy,
//!   not a safety verdict, and the default budget leaves three orders
//!   of magnitude of headroom over every workload in the repo.
//!   *Governance* failures are the exception to the rerun: a contained
//!   job panic ([`VerifierError::InternalFault`]) or a blown deadline
//!   ([`VerifierError::DeadlineExceeded`]) is a fault of the analyzer
//!   run, not a verdict about the program, so it propagates to the
//!   session's [`DegradationPolicy`](crate::DegradationPolicy), which
//!   owns (and counts) the downgrade to the sequential explorer.

use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use domain::parallel::{default_threads, lock_recover, par_workers, StealPool};
use ebpf::Program;

use crate::analyzer::AnalyzerOptions;
use crate::error::VerifierError;
use crate::explore::{
    Exploration, ExplorationStrategy, PathSensitive, Plan, Walk, WalkPolicy, WalkTotals,
};
use crate::failpoint::FaultSite;
use crate::fixpoint::AnalysisStats;
use crate::state::{AbsState, SparseStack, REGS};
use crate::tally::{self, Tally};
use crate::value::RegValue;
use crate::visited::ConcurrentVisitedTable;

/// A state's dense `to_parts` snapshot: plain `Send` data.
type Snapshot = ([RegValue; REGS], SparseStack);

/// One stealable DFS subtree: the frontier state as a dense snapshot
/// plus the path-local trip counts and the branch nesting depth at the
/// subtree root. Everything is `Send` — the receiving worker rebuilds
/// the `AbsState` with one `from_parts`.
struct Job {
    id: usize,
    pc: usize,
    state: Snapshot,
    trips: Vec<u32>,
    depth: u32,
}

/// What one job's local walk produced: the per-pc report accumulators
/// (as snapshots — they cross back to the coordinator), the ids of the
/// jobs it spawned in spawn order, and its walk totals.
struct JobResult {
    id: usize,
    children: Vec<usize>,
    report: Vec<(usize, Snapshot)>,
    error: Option<VerifierError>,
    totals: WalkTotals,
}

impl JobResult {
    /// The result of a job that walked nothing.
    fn unwalked(id: usize, error: Option<VerifierError>) -> JobResult {
        JobResult {
            id,
            children: Vec::new(),
            report: Vec::new(),
            error,
            totals: WalkTotals::default(),
        }
    }
}

/// Everything the workers share: the plan, the steal pool, the visited
/// table, the global visit budget, the first-error latch, and the job id
/// counter.
struct SharedCtx<'a> {
    plan: Plan<'a>,
    pool: StealPool<Job>,
    visited: ConcurrentVisitedTable,
    visits: AtomicU64,
    errored: AtomicBool,
    next_id: AtomicUsize,
    results: Mutex<Vec<JobResult>>,
}

/// The work-stealing path-parallel strategy. Reads
/// [`AnalyzerOptions::explore_jobs`] (0 = all available cores) and
/// [`AnalyzerOptions::spawn_depth`]; at one job the walk degenerates to
/// the sequential DFS order with a shared-table probe sequence, and
/// while no job widens a loop head the reported analysis is
/// bit-identical to [`PathSensitive`] at any job count (see the module
/// docs for the contract and where it stops).
#[derive(Clone, Copy, Debug, Default)]
pub struct PathParallel;

impl ExplorationStrategy for PathParallel {
    fn name(&self) -> &'static str {
        "parshard"
    }

    fn explore(
        &self,
        prog: &Program,
        options: &AnalyzerOptions,
    ) -> Result<Exploration, VerifierError> {
        let jobs = match options.explore_jobs {
            0 => default_threads(),
            n => n as usize,
        };
        // The root's snapshot is taken before the plan reads the counter
        // block: worker 0 counts the state it rebuilds from it.
        let state = AbsState::entry().to_parts();
        let plan = Plan::new(prog, options);
        let root = Job {
            id: 0,
            pc: 0,
            state,
            trips: plan.entry_trips(),
            depth: 0,
        };
        let ctx = SharedCtx {
            plan,
            pool: StealPool::new(jobs),
            visited: ConcurrentVisitedTable::with_cap(prog.len(), options.visited_cap as usize),
            visits: AtomicU64::new(0),
            errored: AtomicBool::new(false),
            next_id: AtomicUsize::new(1), // 0 is the root job
            results: Mutex::new(Vec::new()),
        };
        ctx.pool.push(0, root);
        // Worker 0 claims the root before any worker polls, so an idle
        // worker can never steal it: steals count only spawned subtrees.
        // Claimed, it stays outstanding until worker 0 completes it.
        let root = Mutex::new(ctx.pool.pop(0));

        let worker_spent = par_workers(jobs, |worker| {
            let before = tally::read();
            let mut claimed = if worker == 0 {
                lock_recover(&root).take()
            } else {
                None
            };
            while let Some(job) = claimed.take().or_else(|| ctx.pool.pop(worker)) {
                let job_id = job.id;
                let result = if ctx.errored.load(Ordering::SeqCst) {
                    // The run is already doomed to the sequential rerun:
                    // drain remaining jobs without walking them.
                    JobResult::unwalked(job_id, None)
                } else {
                    // Containment boundary: a panic inside one job must
                    // not unwind through `par_workers`'s join (which
                    // would take down the whole exploration). It becomes
                    // this job's error, trips the errored latch like any
                    // other job failure, and — crucially — still reaches
                    // `pool.complete()` below, so sibling workers
                    // terminate normally instead of spinning on an
                    // outstanding count that never drains.
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        run_job(&ctx, worker, job)
                    }))
                    .unwrap_or_else(|payload| {
                        JobResult::unwalked(
                            job_id,
                            Some(VerifierError::from_panic(payload.as_ref())),
                        )
                    })
                };
                if result.error.is_some() {
                    ctx.errored.store(true, Ordering::SeqCst);
                }
                lock_recover(&ctx.results).push(result);
                ctx.pool.complete();
            }
            tally::read() - before
        });

        // One credit folds the workers' counters and the shared visit
        // total into this thread's block, whether the run succeeds,
        // degrades or reruns sequentially: the run's own stats (below)
        // and the batch engine read them from there.
        let visits = Tally {
            visits: ctx.visits.load(Ordering::Relaxed),
            ..Tally::default()
        };
        tally::credit(worker_spent.into_iter().fold(visits, |sum, w| sum + w));

        let results = ctx
            .results
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if ctx.errored.load(Ordering::SeqCst) {
            // Governance failures — a contained panic or a blown
            // deadline — are faults of the *analyzer run*, not verdicts
            // about the program, so they propagate to the session,
            // whose degradation ladder decides whether (and how) to
            // re-run. Every other error — unsafe path or budget — hands
            // the program to the sequential explorer so the reported
            // rejection (which path, which pc) is the canonical one.
            // See module docs.
            let governance = results
                .iter()
                .filter_map(|r| r.error.as_ref())
                .find(|e| {
                    matches!(
                        e,
                        VerifierError::InternalFault { .. }
                            | VerifierError::DeadlineExceeded { .. }
                    )
                })
                .cloned();
            return match governance {
                Some(e) => Err(e),
                None => PathSensitive.explore(prog, options),
            };
        }

        // Job ids are dense: every spawned job reported.
        let spawned = results.len() as u64;
        let mut by_id: Vec<Option<JobResult>> = results.iter().map(|_| None).collect();
        for r in results {
            let id = r.id;
            by_id[id] = Some(r);
        }

        // Merge per-job report accumulators in the job tree's pre-order
        // with children in reverse spawn order — the sequential DFS
        // ordering of the same subtrees.
        let mut report: Vec<Option<AbsState>> = vec![None; prog.len()];
        let mut totals = WalkTotals::default();
        let mut walk = vec![0usize];
        while let Some(id) = walk.pop() {
            let job = by_id[id].take().expect("every spawned job reported");
            totals.unrolled_trips += job.totals.unrolled_trips;
            totals.dead_components_cleared += job.totals.dead_components_cleared;
            for (pc, (regs, chunks)) in job.report {
                let rebuilt = AbsState::from_parts(regs, chunks);
                match &mut report[pc] {
                    slot @ None => *slot = Some(rebuilt),
                    Some(existing) => {
                        existing.flow_join(&rebuilt, None);
                    }
                }
            }
            // Reverse spawn order: the DFS walks the *latest* deferred
            // subtree first, so pre-order pushes children as spawned and
            // pops them newest-first.
            walk.extend(job.children.iter().copied());
        }

        let stats = AnalysisStats::of_run(ctx.plan.spent(), ctx.visited.ledger(), totals);
        Ok(Exploration {
            states: report,
            stats: AnalysisStats {
                subtrees_spawned: spawned.saturating_sub(1),
                steals: ctx.pool.steals(),
                shared_prunes: ctx.visited.shared_prunes(),
                ..stats
            },
        })
    }
}

/// Runs one job's walk: the shared walk with job-local summaries and
/// report accumulators, under the [`Shard`] policy.
fn run_job(ctx: &SharedCtx<'_>, worker: usize, job: Job) -> JobResult {
    let mut walk = Walk::new(&ctx.plan);
    let mut shard = Shard {
        ctx,
        worker,
        children: Vec::new(),
    };
    let (regs, chunks) = job.state;
    let state = AbsState::from_parts(regs, chunks);
    let error = walk
        .run(&mut shard, job.pc, state, Rc::new(job.trips), job.depth)
        .err();
    JobResult {
        id: job.id,
        children: shard.children,
        report: walk
            .finish_report()
            .into_iter()
            .enumerate()
            .filter_map(|(pc, state)| Some((pc, state?.to_parts())))
            .collect(),
        error,
        totals: walk.totals,
    }
}

/// [`PathParallel`]'s walk policy for one job on `worker`: visits
/// charged to the shared atomic budget, the `parshard-job` fail-point,
/// the shared visited table, and the spawn rule at forks.
struct Shard<'c, 'a> {
    ctx: &'c SharedCtx<'a>,
    worker: usize,
    /// Ids of the jobs this walk spawned, in spawn order.
    children: Vec<usize>,
}

impl WalkPolicy for Shard<'_, '_> {
    type Depth = u32;
    const VISIT_SITE: FaultSite = FaultSite::ParshardJob;

    fn count_visit(&mut self, _plan: &Plan<'_>) -> Option<u64> {
        // Once another worker doomed the run, stop walking: the
        // sequential rerun will produce the canonical result.
        let doomed = self.ctx.errored.load(Ordering::Relaxed);
        (!doomed).then(|| self.ctx.visits.fetch_add(1, Ordering::Relaxed) + 1)
    }

    fn prune_or_record(&mut self, pc: usize, state: &AbsState, masked: bool) -> bool {
        let visited = &self.ctx.visited;
        let covered = visited.probe(pc, state, masked, self.worker);
        if !covered {
            visited.insert(pc, state, self.worker);
        }
        covered
    }

    fn note_summary_prune(&mut self, pc: usize) {
        self.ctx.visited.note_summary_prune(pc);
    }

    /// Past the spawn depth the fall-through arm — the subtree the DFS
    /// would walk *last* — becomes a stealable job, unless its edge is a
    /// back edge (cycles stay job-local).
    fn fork(
        &mut self,
        pc: usize,
        depth: u32,
        fall_pc: usize,
        fall: AbsState,
        trips: &Rc<Vec<u32>>,
    ) -> (u32, Option<AbsState>) {
        let ctx = self.ctx;
        if depth < ctx.plan.options.spawn_depth || ctx.plan.cfg.is_back_edge(pc, fall_pc) {
            return (depth + 1, Some(fall));
        }
        let child = ctx.next_id.fetch_add(1, Ordering::Relaxed);
        self.children.push(child);
        ctx.pool.push(
            self.worker,
            Job {
                id: child,
                pc: fall_pc,
                state: fall.to_parts(),
                trips: trips.to_vec(),
                depth: depth + 1,
            },
        );
        (depth + 1, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf::asm::assemble;

    fn options_with(jobs: u32, spawn_depth: u32) -> AnalyzerOptions {
        AnalyzerOptions {
            explore_jobs: jobs,
            spawn_depth,
            ..AnalyzerOptions::default()
        }
    }

    /// A three-level branch tree over ALU ops feeding one guarded
    /// store: enough forks to spawn subtrees at every tested depth.
    fn branchy() -> ebpf::Program {
        assemble(
            r"
            r2 = *(u8 *)(r1 + 0)
            r3 = *(u8 *)(r1 + 1)
            if r2 > 3 goto a
            r3 += 1
        a:
            if r3 > 7 goto b
            r2 += 2
        b:
            if r2 s> r3 goto c
            r2 ^= r3
        c:
            r2 &= 6
            r4 = r10
            r4 += -16
            r4 += r2
            *(u8 *)(r4 + 0) = 0
            r0 = 0
            exit
        ",
        )
        .expect("assembles")
    }

    fn assert_bit_identical(prog: &ebpf::Program, options: &AnalyzerOptions) {
        let seq = PathSensitive.explore(prog, options);
        let par = PathParallel.explore(prog, options);
        match (seq, par) {
            (Ok(s), Ok(p)) => {
                assert_eq!(s.states.len(), p.states.len());
                for (pc, (a, b)) in s.states.iter().zip(p.states.iter()).enumerate() {
                    match (a, b) {
                        (None, None) => {}
                        (Some(a), Some(b)) => {
                            assert!(
                                a.fingerprint() == b.fingerprint()
                                    && a.is_subset_of(b)
                                    && b.is_subset_of(a),
                                "reported join diverges at pc {pc}"
                            );
                        }
                        _ => panic!("reachability diverges at pc {pc}"),
                    }
                }
            }
            (Err(s), Err(p)) => assert_eq!(s.to_string(), p.to_string()),
            (s, p) => panic!(
                "verdicts diverge: sequential {:?} vs parallel {:?}",
                s.is_ok(),
                p.is_ok()
            ),
        }
    }

    #[test]
    fn parallel_matches_sequential_on_branchy_program() {
        let prog = branchy();
        for jobs in [1, 2, 8] {
            for depth in [0, 2, 8] {
                assert_bit_identical(&prog, &options_with(jobs, depth));
            }
        }
    }

    #[test]
    fn parallel_matches_sequential_on_bounded_loop() {
        let prog = assemble(
            r"
            r1 = 0
        loop:
            r3 = r10
            r3 += -16
            r3 += r1
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if r1 < 16 goto loop
            r0 = r1
            exit
        ",
        )
        .expect("assembles");
        for jobs in [1, 2, 8] {
            assert_bit_identical(&prog, &options_with(jobs, 0));
        }
    }

    #[test]
    fn parallel_reproduces_sequential_rejection_verbatim() {
        // The branch tree hides an out-of-bounds store: whichever worker
        // finds it first, the reported rejection is the sequential one.
        let prog = assemble(
            r"
            r2 = *(u8 *)(r1 + 0)
            if r2 > 3 goto bad
            r0 = 0
            exit
        bad:
            r4 = r10
            r4 += -16
            r4 += r2
            *(u8 *)(r4 + 0) = 0
            r0 = 0
            exit
        ",
        )
        .expect("assembles");
        for jobs in [1, 2, 8] {
            let seq = PathSensitive.explore(&prog, &options_with(jobs, 0));
            let par = PathParallel.explore(&prog, &options_with(jobs, 0));
            assert!(seq.is_err() && par.is_err());
            assert_eq!(
                seq.expect_err("rejected").to_string(),
                par.expect_err("rejected").to_string()
            );
        }
    }

    #[test]
    fn spawn_depth_zero_spawns_subtrees_and_counts_them() {
        let prog = branchy();
        let stats = PathParallel
            .explore(&prog, &options_with(4, 0))
            .expect("accepted")
            .stats;
        assert!(stats.subtrees_spawned > 0, "forks past depth 0 must spawn");
        // Sequential strategies never report the parallel counters.
        let seq = PathSensitive
            .explore(&prog, &options_with(1, 0))
            .expect("accepted")
            .stats;
        assert_eq!(
            (seq.subtrees_spawned, seq.steals, seq.shared_prunes),
            (0, 0, 0)
        );
    }

    #[test]
    fn deep_spawn_depth_degenerates_to_local_walk() {
        let prog = branchy();
        let stats = PathParallel
            .explore(&prog, &options_with(4, 64))
            .expect("accepted")
            .stats;
        assert_eq!(stats.subtrees_spawned, 0);
        assert_eq!(stats.steals, 0);
    }
}
