//! Pluggable exploration strategies: *how* the analyzer walks a program
//! is a first-class choice, not a hardwired worklist.
//!
//! The [`ExplorationStrategy`] trait is the seam between the transfer
//! layer (one abstract instruction step, [`crate::transfer`]) and the
//! driver that schedules those steps. Three built-in strategies
//! implement it, selectable through [`Strategy`] on a
//! [`VerificationSession`](crate::VerificationSession):
//!
//! * [`WideningFixpoint`] — the reverse-postorder priority worklist of
//!   [`crate::fixpoint`]: joins every path at merge points, widens
//!   eagerly at loop heads (harvested thresholds), and runs the safety
//!   checks on the narrowing walks after the ascent, which decide the
//!   verdict; the walks start from the ascent's heads reduced once, so
//!   a loop that narrows no head settles in one walk. States live only
//!   at loop heads and merge points, the code between them is stepped
//!   in place; cost is near-linear in the program, precision pays the
//!   join/widening toll.
//! * [`PathSensitive`] — a kernel-style depth-first branch walker: each
//!   conditional forks an O(1) copy-on-write state, a per-pc
//!   [`VisitedTable`] prunes any arrival included in an already-explored
//!   state (the kernel's `is_state_visited`), the first
//!   [`AnalyzerOptions::unroll_k`] trips of every loop are unrolled with
//!   full per-trip precision, and past the bound the loop head falls
//!   back to widening (with the same harvested thresholds), so unbounded
//!   loops still terminate.
//! * [`PathParallel`](crate::parshard::PathParallel) — the work-stealing
//!   sibling of [`PathSensitive`]: past a fork depth the fall-through
//!   subtrees become stealable jobs, pruning runs against one shared
//!   striped table, and verdicts/errors/reported joins stay
//!   bit-identical to the sequential walk while no job widens a loop
//!   head; past that, reports can vary from run to run — see
//!   [`crate::parshard`] for the contract and its limit.
//!
//! Every strategy first builds one crate-private `Plan` per
//! exploration: the CFG, the [`Transfer`] layer, the widening
//! thresholds, the loop-head index, checkpoint liveness, the deadline's
//! start and the counter reading the run's [`AnalysisStats`] start
//! from. The plan also charges every visit against the budget, the
//! deadline and the strategy's fail-point site (`Plan::charge`).
//!
//! Both path explorers run **one walk**: the crate-private `Walk` owns
//! the per-walk accumulators (reported joins, loop-head summaries,
//! trip and cleaning totals) and runs the
//! arrival protocol documented on [`PathSensitive`]. Each path
//! exploration also builds one crate-private `Chains` map, outside the
//! plan because the fixpoint never folds a report: per pc, the one
//! predecessor every arrival there is a step of, whose report the pc's
//! own report finishes from. What differs between
//! the two — where a visit is counted, which fail-point site fires,
//! which visited table prunes, and what happens to a fork's
//! fall-through arm — is a `WalkPolicy` resolved at compile time.
//!
//! All return an [`Exploration`] — per-instruction states plus
//! [`AnalysisStats`] — which the session tags with its [`Strategy`] into
//! an [`Analysis`](crate::Analysis). Every future scaling direction
//! (per-function caching, strategy portfolios) plugs in behind the same
//! trait.

use std::rc::Rc;
use std::time::Instant;

use ebpf::Program;
use interval_domain::WidenThresholds;

use crate::analyzer::AnalyzerOptions;
use crate::cfg::Cfg;
use crate::error::VerifierError;
use crate::failpoint::FaultSite;
use crate::fixpoint::{self, AnalysisStats};
use crate::passes::CheckpointLiveness;
use crate::state::{AbsState, ReportAcc, WidenCtx, WriteSet};
use crate::tally::{self, Tally};
use crate::transfer::{self, Transfer};
use crate::visited::VisitedTable;

/// The raw result of one exploration run: the abstract state *before*
/// every instruction (`None` for instructions proven unreachable) and
/// the run's counters. Wrapped into a strategy-tagged
/// [`Analysis`](crate::Analysis) by
/// [`VerificationSession::run`](crate::VerificationSession::run).
#[derive(Clone, Debug)]
pub struct Exploration {
    /// Per-instruction abstract states; under [`PathSensitive`] each is
    /// the *join over the explored path states* reaching that pc, as
    /// [`AbsState::join_all`] folds them (raw joins, reduced once per pc
    /// when the walk ends).
    pub states: Vec<Option<AbsState>>,
    /// The run's sharing, widening, and pruning counters.
    pub stats: AnalysisStats,
}

/// An exploration strategy: a driver that schedules
/// [`Transfer`] steps over a program until every reachable instruction
/// has a sound abstract state — or the program is rejected.
///
/// Implementations own iteration order, state storage, pruning, and
/// termination (widening and/or budgets); they share the transfer layer,
/// so every safety check is identical across strategies.
pub trait ExplorationStrategy {
    /// A short stable name for logs, bench labels, and baselines.
    fn name(&self) -> &'static str;

    /// Runs the strategy over `prog`.
    ///
    /// # Errors
    ///
    /// A [`VerifierError`] from the transfer layer (the program is
    /// unsafe) or [`VerifierError::AnalysisBudgetExhausted`] when the
    /// exploration exceeds
    /// [`AnalyzerOptions::analysis_budget`].
    fn explore(
        &self,
        prog: &Program,
        options: &AnalyzerOptions,
    ) -> Result<Exploration, VerifierError>;
}

/// Built-in strategy selector for
/// [`VerificationSession`](crate::VerificationSession) — enum dispatch
/// over the three built-in [`ExplorationStrategy`] implementations, and
/// the tag an [`Analysis`](crate::Analysis) carries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// The widening fixpoint worklist ([`WideningFixpoint`]) — the
    /// default, and the only engine previous revisions had.
    #[default]
    WideningFixpoint,
    /// The kernel-style path-sensitive explorer ([`PathSensitive`]).
    PathSensitive,
    /// The work-stealing parallel path explorer
    /// ([`PathParallel`](crate::parshard::PathParallel)): the
    /// path-sensitive walk sharded over
    /// [`AnalyzerOptions::explore_jobs`] workers, with verdicts, errors,
    /// and reported joins bit-identical to [`Strategy::PathSensitive`]
    /// while no job widens a loop head. Past
    /// [`AnalyzerOptions::unroll_k`] the reports can differ from the
    /// sequential walk's, and from one run to the next, since which job
    /// widens which loop depends on scheduling (see [`crate::parshard`]).
    PathParallel,
}

impl Strategy {
    /// Every built-in strategy, for sweeps and differential campaigns.
    pub const ALL: [Strategy; 3] = [
        Strategy::WideningFixpoint,
        Strategy::PathSensitive,
        Strategy::PathParallel,
    ];

    /// The implementation behind this selector.
    #[must_use]
    pub fn implementation(self) -> &'static dyn ExplorationStrategy {
        match self {
            Strategy::WideningFixpoint => &WideningFixpoint,
            Strategy::PathSensitive => &PathSensitive,
            Strategy::PathParallel => &crate::parshard::PathParallel,
        }
    }

    /// The strategy's stable name (`"fixpoint"` / `"path"` /
    /// `"parshard"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        self.implementation().name()
    }
}

/// The widening-fixpoint strategy: the RPO priority worklist with joins
/// at merge points, eager widening with harvested thresholds at loop
/// heads, a decreasing sequence of narrowing walks from the reduced
/// ascent heads that runs the checks after the ascent, and the visit
/// budget — see [`crate::fixpoint`] for the engine itself.
#[derive(Clone, Copy, Debug, Default)]
pub struct WideningFixpoint;

impl ExplorationStrategy for WideningFixpoint {
    fn name(&self) -> &'static str {
        "fixpoint"
    }

    fn explore(
        &self,
        prog: &Program,
        options: &AnalyzerOptions,
    ) -> Result<Exploration, VerifierError> {
        fixpoint::run(&Plan::new(prog, options))
    }
}

/// The kernel-style path-sensitive strategy: DFS over branch paths with
/// visited-state pruning and bounded loop unrolling.
///
/// Per arrival at an instruction the explorer:
///
/// 1. at a loop head, charges the path's per-head trip counter; within
///    [`AnalyzerOptions::unroll_k`] the trip is explored with full
///    per-trip precision (no join, no widening — this is what recovers
///    exact exit bounds the fixpoint's loop-head join destroys), past it
///    the arrival is widened into the head's *summary* state (harvested
///    thresholds) and exploration continues from the summary —
///    the widening fallback that bounds the state space. An arrival that
///    does not grow the summary is pruned on the spot: the recorded
///    re-entry state's walk already covers it (this is what keeps a
///    second back-edge from re-walking the body every trip);
/// 2. at a *checkpoint* (loop head or merge point), probes the
///    [`VisitedTable`]: an arrival included in an already-explored state
///    is pruned (`is_state_visited`), otherwise it is recorded. Probes
///    are fingerprint-indexed — chains are scanned by 64-bit state
///    fingerprint with full inclusion checks reserved for fingerprint
///    matches plus a small newest-first budget — and chains are kept
///    short by dominance eviction and the
///    [`AnalyzerOptions::visited_cap`] chain cap;
/// 3. folds the arrival into the pc's report accumulator, then steps
///    the transfer layer. A single successor is visited next in place,
///    without touching the DFS stack; a fork pushes both edges
///    (fall-through below taken, so the taken edge is walked first), each
///    carrying the path's `Rc`'d trip vector. The accumulator skips, by
///    write stamp, every register and slot whose value it already holds,
///    and folds the rest with raw joins: tnum join and interval hulls,
///    without the tnum ⇄ bounds reduction. At a *chained* pc (no
///    checkpoint, one CFG predecessor, and that predecessor neither a
///    conditional jump nor `exit`) every arrival is one step of an
///    arrival at the predecessor, so the accumulator folds only the
///    positions that step writes (`dst`; the stack for a store; r0–r5
///    and the stack for a call; nothing for `goto`). Once the walk is
///    over, the reports are finished in reverse postorder: each pc's is
///    reduced once, at the positions that changed, and a chained pc
///    takes every other position from its predecessor's finished
///    report. So [`Analysis::state_before`](crate::Analysis::state_before)
///    is the join over explored paths that a reduced join per arrival
///    (`AbsState::flow_join`) gives; an arrival with an unreduced value
///    (a widened summary) can leave it tighter than that fold (never
///    looser in the property tests).
///
/// Termination: acyclic path segments are finite, every cycle passes a
/// loop head, and past the unroll bound the head's summary chain is a
/// widening sequence — once it stabilizes, the next arrival is included
/// in the recorded summary and pruned. The
/// [`AnalyzerOptions::analysis_budget`] still bounds the total work
/// (path explosion on branch-heavy programs surfaces as
/// [`VerifierError::AnalysisBudgetExhausted`], the kernel's complexity
/// limit).
#[derive(Clone, Copy, Debug, Default)]
pub struct PathSensitive;

impl ExplorationStrategy for PathSensitive {
    fn name(&self) -> &'static str {
        "path"
    }

    fn explore(
        &self,
        prog: &Program,
        options: &AnalyzerOptions,
    ) -> Result<Exploration, VerifierError> {
        let plan = Plan::new(prog, options);
        let chains = Chains::new(&plan);
        let mut policy = Sequential {
            visited: VisitedTable::with_cap(prog.len(), options.visited_cap as usize),
        };
        let mut walk = Walk::new(&plan, &chains);
        walk.run(
            &mut policy,
            0,
            AbsState::entry(),
            Rc::new(plan.entry_trips()),
            (),
        )?;
        let states = walk.finish_report();
        let stats = AnalysisStats::of_run(plan.spent(), policy.visited.ledger(), walk.totals);
        Ok(Exploration { states, stats })
    }
}

/// Visits between two clock reads of an armed deadline: reading
/// `Instant::elapsed` on every visit cost about 10% of batch throughput
/// (EXPERIMENTS E29), one read per 256 visits costs nothing measurable.
const DEADLINE_STRIDE: u64 = 256;

/// What every strategy builds once per exploration before walking it.
pub(crate) struct Plan<'a> {
    pub(crate) prog: &'a Program,
    pub(crate) options: &'a AnalyzerOptions,
    pub(crate) cfg: Cfg,
    pub(crate) transfer: Transfer,
    pub(crate) thresholds: WidenThresholds,
    /// Dense loop-head index per pc (`usize::MAX` = not a head), for the
    /// path walk's per-path trip counters and its per-head summaries.
    head_idx: Vec<usize>,
    /// RPO position per head: heads *later* in RPO are (for reducible
    /// CFGs) nested inside or sequenced after earlier ones, and get
    /// their unroll budget reset when an earlier head takes a trip — an
    /// inner loop is unrolled per *entry*, not once per program.
    head_rpo: Vec<usize>,
    /// Checkpoint liveness feeds checkpoint cleaning ([`Plan::clear_dead`]).
    /// `None` with [`AnalyzerOptions::liveness_pruning`] off or without
    /// checkpoints (only the checkpoints' live-in masks are solved).
    liveness: Option<CheckpointLiveness>,
    /// When exploration started, for the cooperative deadline check
    /// (on the first visit and every [`DEADLINE_STRIDE`]th after it).
    start: Instant,
    /// This thread's counter block when the plan was built: the run's
    /// counters are what the block gained since ([`Plan::spent`]).
    before: Tally,
}

impl<'a> Plan<'a> {
    pub(crate) fn new(prog: &'a Program, options: &'a AnalyzerOptions) -> Plan<'a> {
        let cfg = Cfg::build(prog);
        // Thresholds only matter where widening can fire: acyclic
        // programs (the bulk of real workloads) skip the harvest scan.
        let thresholds = if options.harvest_thresholds && !cfg.back_edges().is_empty() {
            fixpoint::harvest_thresholds(prog)
        } else {
            WidenThresholds::EMPTY
        };
        let mut head_idx = vec![usize::MAX; prog.len()];
        let mut head_rpo = Vec::new();
        for pc in (0..prog.len()).filter(|&pc| cfg.is_loop_head(pc)) {
            head_idx[pc] = head_rpo.len();
            head_rpo.push(cfg.rpo_pos(pc));
        }
        let liveness = options
            .liveness_pruning
            .then(|| CheckpointLiveness::compute(prog, &cfg))
            .flatten();
        Plan {
            prog,
            options,
            cfg,
            transfer: Transfer::new(options.clone()),
            thresholds,
            head_idx,
            head_rpo,
            liveness,
            start: Instant::now(),
            before: tally::read(),
        }
    }

    /// The number of loop heads.
    pub(crate) fn heads(&self) -> usize {
        self.head_rpo.len()
    }

    /// The dense loop-head index of `pc`, `None` if it is no loop head.
    pub(crate) fn head(&self, pc: usize) -> Option<usize> {
        Some(self.head_idx[pc]).filter(|&h| h != usize::MAX)
    }

    /// The entry path's trip counts: zero at every loop head.
    pub(crate) fn entry_trips(&self) -> Vec<u32> {
        vec![0; self.heads()]
    }

    /// Counts one visit in this thread's counter block, returning the
    /// exploration's 1-based visit count.
    #[inline]
    pub(crate) fn count_visit(&self) -> u64 {
        tally::bump_visit() - self.before.visits
    }

    /// Charges visit number `visits` (1-based, this exploration's) at
    /// `pc`: the visit budget, then the deadline (read on visit 1 and
    /// every [`DEADLINE_STRIDE`]th after it), then `site`'s fail-point.
    #[inline]
    pub(crate) fn charge(
        &self,
        visits: u64,
        pc: usize,
        site: FaultSite,
    ) -> Result<(), VerifierError> {
        let budget = self.options.analysis_budget;
        if visits > budget {
            return Err(VerifierError::AnalysisBudgetExhausted { pc, budget });
        }
        if let Some(deadline) = self.options.deadline {
            if visits % DEADLINE_STRIDE == 1 {
                let elapsed = self.start.elapsed();
                if elapsed >= deadline {
                    return Err(VerifierError::DeadlineExceeded { elapsed, pc });
                }
            }
        }
        crate::failpoint::fire(site);
        Ok(())
    }

    /// Checkpoint cleaning: every arrival at a checkpoint drops its dead
    /// components (kernel `clean_verifier_state`) before it joins, widens
    /// or probes the visited table, so states differing only in dead
    /// registers or slots join, subset-skip and prune alike, and dead
    /// components never widen. Cleaning to `Uninit` (the
    /// join/order top) is monotone, so every engine stays sound on the
    /// live components. Returns how many components it reset.
    pub(crate) fn clear_dead(&self, pc: usize, state: &mut AbsState) -> u64 {
        match &self.liveness {
            Some(live) if self.cfg.is_checkpoint(pc) => {
                let mask = live.live_in(pc);
                u64::from(state.clear_dead(mask.regs, mask.slots))
            }
            _ => 0,
        }
    }

    /// The counters this thread's block gained since the plan was built.
    pub(crate) fn spent(&self) -> Tally {
        tally::read() - self.before
    }
}

/// Where the path walk's report leans on a predecessor's: per pc `q`,
/// the predecessor `p` and what its step can write ([`transfer::write_set`])
/// when `q` is *chained*: `q` is no checkpoint, `p` is its one CFG
/// predecessor, and `p` is an instruction with one successor whatever
/// the state. Then every arrival at `q` is one step of an arrival at
/// `p`, walked right after it: nothing between them cleans, prunes,
/// summarizes or forks, and an error ends the walk (a doomed parallel
/// job's report is discarded). So `q`'s report folds only the positions
/// `p` writes and takes the rest from `p`'s ([`ReportAcc`]). Built once
/// per path exploration; the parallel explorer's jobs share one.
pub(crate) struct Chains(Vec<Option<(usize, WriteSet)>>);

impl Chains {
    pub(crate) fn new(plan: &Plan<'_>) -> Chains {
        let (cfg, insns) = (&plan.cfg, plan.prog.insns());
        Chains(
            (0..insns.len())
                .map(|q| match cfg.predecessors(q) {
                    &[p] if !cfg.is_checkpoint(q) => transfer::write_set(insns[p]).map(|w| (p, w)),
                    _ => None,
                })
                .collect(),
        )
    }

    /// The positions the report at `pc` folds itself.
    fn folds(&self, pc: usize) -> WriteSet {
        self.0[pc].map_or(WriteSet::ALL, |(_, writes)| writes)
    }
}

/// The per-walk counters that add up across the parallel explorer's
/// jobs.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct WalkTotals {
    pub(crate) unrolled_trips: u64,
    pub(crate) dead_components_cleared: u64,
}

/// What the two path explorers do differently at the walk's seams.
pub(crate) trait WalkPolicy {
    /// Carried with every pending arrival: the fork nesting depth for
    /// the parallel walk's spawn rule, nothing for the sequential one.
    type Depth: Copy;

    /// The fail-point site every visit fires.
    const VISIT_SITE: FaultSite;

    /// Counts one visit, returning the exploration's 1-based visit
    /// count, or `None` to abandon the walk without an error of its own.
    /// By default the visit is counted in this thread's counter block.
    fn count_visit(&mut self, plan: &Plan<'_>) -> Option<u64> {
        Some(plan.count_visit())
    }

    /// Probes the visited table at checkpoint `pc`: `true` prunes the
    /// arrival, `false` records it.
    fn prune_or_record(&mut self, pc: usize, state: &AbsState, masked: bool) -> bool;

    /// Counts a summary prune at loop head `pc` in the visited table's
    /// ledger.
    fn note_summary_prune(&mut self, pc: usize);

    /// A fork at `pc`, reached at nesting `depth`, whose fall-through arm
    /// enters `fall_pc` with `fall`. Returns both arms' depth and the
    /// fall-through state when it stays on this walk's stack (`None`:
    /// the policy took it elsewhere). By default both arms stay.
    fn fork(
        &mut self,
        _pc: usize,
        depth: Self::Depth,
        _fall_pc: usize,
        fall: AbsState,
        _trips: &Rc<Vec<u32>>,
    ) -> (Self::Depth, Option<AbsState>) {
        (depth, Some(fall))
    }
}

/// A pending arrival: `(pc, in-state, per-head trip counts, depth)`.
type Arrival<D> = (usize, AbsState, Rc<Vec<u32>>, D);

/// One depth-first walk over a [`Plan`] and the accumulators it fills.
/// Its per-pc reports lean on the exploration's [`Chains`]: a chained
/// pc's accumulator folds only what its predecessor's step writes, and
/// [`Walk::finish_report`] fills in the rest from the predecessor's.
pub(crate) struct Walk<'p> {
    plan: &'p Plan<'p>,
    chains: &'p Chains,
    /// The per-pc join over every arrival this walk explored, reduced
    /// once by [`Walk::finish_report`]; a chained pc's accumulator folds
    /// only what its predecessor's step writes.
    report: Vec<Option<ReportAcc>>,
    summaries: Vec<Option<AbsState>>,
    pub(crate) totals: WalkTotals,
}

impl<'p> Walk<'p> {
    pub(crate) fn new(plan: &'p Plan<'p>, chains: &'p Chains) -> Walk<'p> {
        Walk {
            plan,
            chains,
            report: (0..plan.prog.len()).map(|_| None).collect(),
            summaries: vec![None; plan.heads()],
            totals: WalkTotals::default(),
        }
    }

    /// Walks depth-first from `pc` with `state` (the arrival protocol of
    /// [`PathSensitive`]) until the stack drains, the policy abandons
    /// the walk, or an error rejects the program.
    ///
    /// The DFS worklist holds `(pc, in-state, per-head trip counts,
    /// depth)`. Only forks touch it: a step with one successor continues
    /// in place (`next`) with the moved state and trip vector, a fork
    /// pushes both edges (the second takes the moved trip vector, the
    /// first an `Rc` clone), and a dead end or a pruned arrival pops.
    /// The copy-on-write layer is what makes the multiplied live states
    /// affordable; the trip counts only materialize at loop heads, where
    /// they change.
    pub(crate) fn run<P: WalkPolicy>(
        &mut self,
        policy: &mut P,
        pc: usize,
        state: AbsState,
        trips: Rc<Vec<u32>>,
        depth: P::Depth,
    ) -> Result<(), VerifierError> {
        let plan = self.plan;
        let masked = plan.options.liveness_pruning;
        let mut stack: Vec<Arrival<P::Depth>> = Vec::new();
        let mut next = Some((pc, state, trips, depth));
        while let Some((pc, mut state, mut trips, depth)) = next.take().or_else(|| stack.pop()) {
            let Some(visits) = policy.count_visit(plan) else {
                break;
            };
            plan.charge(visits, pc, P::VISIT_SITE)?;
            // Checkpoints — where paths can re-converge, so where
            // pruning can fire: loop heads plus merge points.
            let checkpoint = plan.cfg.is_checkpoint(pc);
            self.totals.dead_components_cleared += plan.clear_dead(pc, &mut state);
            if let Some(h) = plan.head(pc) {
                // A new trip of this loop restarts the unroll budget of
                // every head nested inside it (later in RPO), so an
                // 8×8 nested loop unrolls 8 fresh inner trips per outer
                // trip instead of exhausting the inner budget across
                // outer iterations. Termination is untouched: in any
                // cycle, the head earliest in RPO is never reset by the
                // others, saturates, and drives the widening fallback.
                // (Resets never touch `h` itself — only heads later in
                // RPO — so the trip test below is unaffected by them.)
                let take_trip = trips[h] < plan.options.unroll_k;
                let needs_reset = plan
                    .head_rpo
                    .iter()
                    .enumerate()
                    .any(|(j, &pos)| pos > plan.head_rpo[h] && trips[j] != 0);
                if take_trip || needs_reset {
                    let t = Rc::make_mut(&mut trips);
                    for (j, &pos) in plan.head_rpo.iter().enumerate() {
                        if pos > plan.head_rpo[h] {
                            t[j] = 0;
                        }
                    }
                    if take_trip {
                        t[h] += 1;
                    }
                }
                if take_trip {
                    // Unrolled trip: keep the path state exact.
                    self.totals.unrolled_trips += 1;
                } else {
                    // Past the unroll bound: widen into the head's
                    // summary and continue from it. The trip counter
                    // stays saturated, so this path keeps flowing
                    // through the summary on every further lap. Back
                    // edges never leave a parallel job, so a job-local
                    // summary still stabilizes, but it starts from the
                    // job's own arrival rather than the sequential walk's
                    // summary: it is sound, yet its widened states (and
                    // the reports fed from them) can differ from the
                    // sequential walk's (the `two_back_edge` unroll-4 pin
                    // in `tests/report_pins.rs`).
                    match &mut self.summaries[h] {
                        slot @ None => *slot = Some(state.clone()),
                        Some(summary) => {
                            let grew = summary.flow_join(
                                &state,
                                Some(WidenCtx {
                                    thresholds: &plan.thresholds,
                                    tnum_jump: false,
                                }),
                            );
                            // The widened re-entry state is recorded at
                            // the head (inserted below whenever it
                            // grows), so an arrival that adds nothing —
                            // typically the *second* back-edge of the
                            // same trip — is covered by the walk the
                            // summary already took: prune it here
                            // instead of re-walking the body. This is
                            // also what keeps the fallback terminating
                            // even if cap eviction dropped the recorded
                            // summary from the chain.
                            if !grew {
                                policy.note_summary_prune(pc);
                                continue;
                            }
                            state = summary.clone();
                        }
                    }
                }
            }
            if checkpoint && policy.prune_or_record(pc, &state, masked) {
                continue;
            }
            match &mut self.report[pc] {
                slot @ None => {
                    *slot = Some(ReportAcc::new(state.clone(), self.chains.folds(pc)));
                }
                Some(report) => report.absorb(&state),
            }
            let mut succs = plan.transfer.step(plan.prog, state, pc)?.into_iter();
            match (succs.next(), succs.next()) {
                (Some((succ, out)), None) => next = Some((succ, out, trips, depth)),
                (Some((fall, fall_out)), Some((taken, taken_out))) => {
                    let (depth, fall_out) = policy.fork(pc, depth, fall, fall_out, &trips);
                    if let Some(fall_out) = fall_out {
                        stack.push((fall, fall_out, trips.clone(), depth));
                    }
                    stack.push((taken, taken_out, trips, depth));
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The per-pc reported states: each pc's accumulator finished, `None`
    /// where no arrival was explored. Reverse postorder finishes a
    /// chained pc's predecessor before it.
    pub(crate) fn finish_report(&mut self) -> Vec<Option<AbsState>> {
        let mut accs = std::mem::take(&mut self.report);
        let mut report: Vec<Option<AbsState>> = vec![None; accs.len()];
        for &pc in self.plan.cfg.rpo() {
            let Some(acc) = accs[pc].take() else { continue };
            let pred = self.chains.0[pc].map(|(p, _)| {
                report[p]
                    .as_ref()
                    .expect("a chained pc's arrivals come from its predecessor")
            });
            let state = acc.finish(pred);
            report[pc] = Some(state);
        }
        report
    }
}

/// [`PathSensitive`]'s policy: visits counted in the thread's counter
/// block and every fork arm on the stack (the defaults), the
/// `path-visit` fail-point and a private [`VisitedTable`].
struct Sequential {
    visited: VisitedTable,
}

impl WalkPolicy for Sequential {
    type Depth = ();
    const VISIT_SITE: FaultSite = FaultSite::PathVisit;

    fn prune_or_record(&mut self, pc: usize, state: &AbsState, masked: bool) -> bool {
        let covered = if masked {
            self.visited.is_covered_masked(pc, state)
        } else {
            self.visited.is_covered(pc, state)
        };
        if !covered {
            self.visited.insert(pc, state.clone());
        }
        covered
    }

    fn note_summary_prune(&mut self, _pc: usize) {
        self.visited.note_summary_prune();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strategy_selector_round_trips_names() {
        assert_eq!(Strategy::default(), Strategy::WideningFixpoint);
        assert_eq!(Strategy::WideningFixpoint.name(), "fixpoint");
        assert_eq!(Strategy::PathSensitive.name(), "path");
        assert_eq!(Strategy::PathParallel.name(), "parshard");
        for s in Strategy::ALL {
            assert_eq!(s.implementation().name(), s.name());
        }
    }
}
