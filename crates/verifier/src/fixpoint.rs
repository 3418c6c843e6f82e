//! The fixpoint layer: the reverse-postorder priority worklist over
//! loop heads and merge points, the eager widening ascent and the
//! narrowing walks that check it, and [`AnalysisStats`], the counters
//! every exploration reports.
//!
//! The engine knows nothing about instruction semantics — it asks the
//! per-exploration plan's [`crate::transfer::Transfer`] for successor
//! contributions, and the plan charges each visit — and owns only *how*
//! states flow. States are kept only where paths meet (the entry and
//! every [`Cfg::is_checkpoint`](crate::Cfg::is_checkpoint) pc); the
//! code between two such heads is stepped in place on one state, like
//! the path walk does.
//! Arrivals join at merge points ([`crate::AbsState::flow_join`]) and
//! widen at loop heads, with widening thresholds harvested from the
//! program's comparison immediates, and a decreasing sequence of
//! narrowing walks after stabilization records the per-pc report (see
//! `run`).
//!
//! The ascent is eager: every changing loop-head join widens at once.
//! It decides nothing: a failed check is recorded and the ascent goes on
//! (an access past its region met with the region), so a widened head
//! that narrowing repairs costs no second ascent. The narrowing walks
//! run the checks, and the verdict is theirs.
//!
//! A widened scalar's tnum half jumps ([`tnum::Tnum::widen`]): every
//! trit from the lowest newly unknown one upward turns unknown, since
//! the paper's add, sub and mul carry uncertainty only upward. A
//! churning accumulator then settles in one widening instead of giving
//! up about one trit per round, and the narrowing walks re-derive the
//! report from the widened heads, recovering what the jump
//! over-extrapolates. The ascent never reduces a widened head (as Miné
//! never closes a widened DBM iterate); the heads are reduced once the
//! ascent is stable, so the first narrowing walk starts from them
//! reduced and, unless it narrows a head, is the only one. The path
//! walk's loop-head summaries keep the tnum join: they are its report,
//! and nothing re-derives them.

use ebpf::{Insn, Program, Src};
use interval_domain::WidenThresholds;

use crate::cfg::RpoWorklist;
use crate::error::VerifierError;
use crate::explore::{Exploration, Plan, WalkTotals};
use crate::failpoint::FaultSite;
use crate::state::{AbsState, WidenCtx};
use crate::tally::Tally;
use crate::transfer::{Checks, Strict};
use crate::visited::Ledger;

/// Counters describing one analysis run — the observable effect of the
/// copy-on-write state layer and (under the path-sensitive strategy) of
/// kernel-style visited-state pruning, printed by the fixpoint bench,
/// pinned exactly over its sweep in `crates/bench/tests/guard_pins.rs`,
/// and pinned per fixture for the path explorer in
/// `tests/explorer_counters.rs`.
///
/// The state traffic, memo traffic and visits are counted in a
/// thread-local block that nothing resets; a run's fields are what the
/// block gained between the run's start and end, so they do not depend
/// on earlier work on the same thread. A result the degradation ladder
/// produced counts only the exploration that produced it (the batch
/// roll-up, [`crate::BatchStats`], counts every attempt).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Deep copies of a register file or stack frame actually performed
    /// (materializations of shared components plus fresh allocations).
    /// The clone-everything engine of PR 2 performed two of these for
    /// *every* state clone and join.
    pub states_allocated: u64,
    /// `AbsState` clones that only bumped refcounts — each one is a
    /// full-state deep copy the previous engine would have made.
    pub states_shared: u64,
    /// Joins/inclusion checks that resolved a whole component (register
    /// file or stack frame) by pointer identity without pointwise work.
    /// Only `flow_join` counts here: the fixpoint's merges and the path
    /// walk's loop-head summaries. The path walk's per-pc report folds
    /// without it (on `deep_path`, seed 1, traced, this row fell from
    /// 1,149,309 to 14,749 when the report stopped going through
    /// `flow_join`).
    pub joins_short_circuited: u64,
    /// Widening operator applications to individual registers or stack
    /// slots at loop heads.
    pub widenings_applied: u64,
    /// Instruction visits consumed from the analysis budget: every
    /// instruction a strategy stepped. Under the widening fixpoint that
    /// is every instruction of its one ascent's widening walks and of
    /// the narrowing walks that check it.
    pub visits: u64,
    /// Branch states discarded because they were included in an
    /// already-explored state at the same instruction (the kernel's
    /// `is_state_visited` pruning). Always zero under the widening
    /// fixpoint, which joins instead of pruning.
    pub states_pruned: u64,
    /// Full `AbsState::is_subset_of` probes run against the
    /// visited-state table (covering probes plus dominance-eviction
    /// probes) — the cost side of the pruning ledger, and the counter
    /// the deep-unroll pin in `crates/bench/tests/guard_pins.rs` fixes.
    pub subset_checks: u64,
    /// Loop-head arrivals explored with full per-trip precision, within
    /// the path-sensitive strategy's
    /// [`AnalyzerOptions::unroll_k`](crate::AnalyzerOptions::unroll_k)
    /// unroll bound.
    pub unrolled_trips: u64,
    /// Visited-table probe candidates dismissed in O(1) on fingerprint
    /// mismatch, without a full inclusion check — each one is a
    /// pointwise `is_subset_of` the pre-fingerprint table would have
    /// run.
    pub fingerprint_rejects: u64,
    /// Visited-table entries dropped from pruning chains: dominated by
    /// a newer insertion, or displaced oldest-first by the per-pc chain
    /// cap ([`AnalyzerOptions::visited_cap`](crate::AnalyzerOptions::visited_cap)).
    pub visited_evicted: u64,
    /// Bytes copied by all state materializations (register files,
    /// stack chunks, and chunk spines) — the working-set proxy showing
    /// what chunked copy-on-write frames save over whole-frame copies.
    pub bytes_materialized: u64,
    /// Transfer memo cache lookups served from a verified entry
    /// (operand equality confirmed — see [`crate::memo::TransferMemo`]).
    /// Zero when [`crate::AnalyzerOptions::memo_cache`] is `None`.
    pub memo_hits: u64,
    /// Transfer memo cache lookups that found no entry (or only a
    /// colliding one with different operands) and computed afresh.
    pub memo_misses: u64,
    /// Transfer memo entries this run's inserts displaced through the
    /// per-shard capacity caps.
    pub memo_evicted: u64,
    /// Arrivals pruned through the liveness-masked visited probe
    /// ([`crate::VisitedTable::is_covered_masked`]) — the pruning wins
    /// attributable to checkpoint cleaning under
    /// [`crate::AnalyzerOptions::liveness_pruning`]. A subset of
    /// `states_pruned`; always zero under the widening fixpoint and
    /// with masking off.
    pub live_masked_prunes: u64,
    /// Registers and stack slots reset to their uninitialized top by
    /// checkpoint cleaning (`AbsState::clear_dead`) because the
    /// liveness pass proved them dead.
    pub dead_components_cleared: u64,
    /// DFS subtrees packaged as stealable jobs by the parallel path
    /// explorer ([`Strategy::PathParallel`](crate::Strategy)). Zero for
    /// the sequential strategies.
    pub subtrees_spawned: u64,
    /// Jobs an idle worker took from another worker's deque
    /// ([`StealPool`](domain::parallel::StealPool) steals). Zero for
    /// the sequential strategies.
    pub steals: u64,
    /// Path prunes where the covering entry in the parallel explorer's
    /// shared visited table was inserted by a *different* worker —
    /// exploration one worker did that saved another worker's walk.
    /// Zero for the sequential strategies.
    pub shared_prunes: u64,
    /// Strategy downgrades the session's
    /// [`DegradationPolicy::Ladder`](crate::DegradationPolicy) took to
    /// produce this result after a governance failure (contained panic
    /// or blown deadline): `0` means the requested strategy succeeded
    /// directly, `1` that one re-run with the next-simpler strategy was
    /// needed, and so on. Set by the session, not the strategies (which
    /// always report `0`).
    pub degradations: u64,
}

impl AnalysisStats {
    /// One run's counters: what its thread's counter block gained
    /// (`spent`: state traffic, memo traffic, visits), its visited-table
    /// ledger (`chains`) and its walk totals. The parallel explorer's
    /// own counters start at zero.
    pub(crate) fn of_run(spent: Tally, chains: Ledger, totals: WalkTotals) -> AnalysisStats {
        AnalysisStats {
            states_allocated: spent.allocated,
            states_shared: spent.shared,
            joins_short_circuited: spent.short_circuited,
            widenings_applied: spent.widenings,
            visits: spent.visits,
            states_pruned: chains.states_pruned,
            subset_checks: chains.subset_checks,
            unrolled_trips: totals.unrolled_trips,
            fingerprint_rejects: chains.fingerprint_rejects,
            visited_evicted: chains.visited_evicted,
            bytes_materialized: spent.bytes,
            memo_hits: spent.memo_hits,
            memo_misses: spent.memo_misses,
            memo_evicted: spent.memo_evicted,
            live_masked_prunes: chains.masked_prunes,
            dead_components_cleared: totals.dead_components_cleared,
            ..AnalysisStats::default()
        }
    }

    /// Deep component copies an engine without structural sharing would
    /// have performed for the same run: two (register file + stack) per
    /// state clone, on top of what this engine still materialized.
    #[must_use]
    pub fn clone_everything_equivalent(&self) -> u64 {
        self.states_allocated + 2 * self.states_shared
    }
}

/// Harvests widening thresholds from the program's conditional-jump
/// immediates — the constants of `if rX op N` guards — so a widened
/// bound can land on the loop's actual exit test (classic "widening with
/// thresholds") instead of a register-width extreme.
///
/// Immediates are widened exactly as the comparison will see them:
/// sign-extended for 64-bit jumps, **zero-extended** for 32-bit jumps
/// (`if w8 < -5` compares against `0xffff_fffb` on the zero-extended
/// sub-register, so that is the useful rung, not the sign-extended
/// 64-bit pattern).
///
/// Harvested once per exploration by the `Plan` every strategy builds
/// (only with [`crate::AnalyzerOptions::harvest_thresholds`] on and a
/// back edge in the CFG), so the fixpoint and the path explorers'
/// widening fallback extrapolate through the same program-derived
/// ladder.
pub(crate) fn harvest_thresholds(prog: &Program) -> WidenThresholds {
    WidenThresholds::harvest(prog.insns().iter().filter_map(|insn| match insn {
        Insn::Jmp {
            width,
            src: Src::Imm(v),
            ..
        } => Some(match width {
            ebpf::Width::W64 => *v as i64,
            ebpf::Width::W32 => i64::from(*v as u32),
        }),
        _ => None,
    }))
}

/// The most narrowing walks one ascent's decreasing sequence takes. On
/// both benchmark corpora under the fixpoint, from the reduced ascent
/// heads, most accepted sequences settle in one walk and none needed
/// more than two.
const NARROWING_WALKS: usize = 4;

/// Runs the head worklist over `plan`'s program to a (widened)
/// post-fixpoint and, for a cyclic program, the narrowing walks that
/// check it, returning per-instruction states and the run's counters.
///
/// States are kept only at **heads**: the entry plus every
/// [`Cfg::is_checkpoint`](crate::Cfg::is_checkpoint) pc. Every other
/// reachable pc belongs to exactly one head's **segment**, the code that
/// follows the head up to the next head or `exit`. Popping a head
/// (earliest in reverse postorder first) walks its segment on one
/// in-place state, forking only at branch arms, and flows each arrival
/// at a head into that head's state: a subset test, else a join
/// (widening at loop heads) that re-queues the head when it grew. Every
/// instruction of every walk is one visit the plan charges against the
/// budget, the deadline and the `fixpoint-visit` fail-point. An acyclic
/// program pops every head once: its one pass checks every pc and is
/// its report.
///
/// A cyclic program's ascent records its failed checks instead of
/// failing (see [`Checks`]). Each narrowing walk steps every segment
/// once from the previous walk's head states — the first from the
/// reduction of the ascent's — records every non-head pc's state
/// (reduced), and joins the arrivals at each head into its next state.
/// A walk's report is accepted only if the walk recorded no failure and
/// its start heads cover every reachable state: they are the reduction
/// of the ascent's heads (the same concretization, so still a
/// post-fixpoint of what the ascent walked, and a walk from them that
/// fails nothing proves that the ascent's last walks cut no concrete
/// path), the walk's arrivals, entry included, lie inside them (a
/// post-fixpoint of the transfer), or an accepted walk produced them.
/// That holds though the transfers are not monotone (EXPERIMENTS E30).
/// The sequence stops when a walk leaves every head as it found it, or
/// after [`NARROWING_WALKS`] walks. Past an accepted walk the walks
/// check strictly, and one that fails ends the sequence with the
/// accepted report. With none accepted, the run is rejected with the
/// first failure of the last walk that recorded one.
///
/// # Errors
///
/// A [`VerifierError`] from the transfer layer (the program is unsafe)
/// or [`VerifierError::AnalysisBudgetExhausted`] when the iteration
/// exceeds its visit budget.
pub(crate) fn run(plan: &Plan<'_>) -> Result<Exploration, VerifierError> {
    let mut fixpoint = Fixpoint::new(plan);
    let states = fixpoint.solve(|_, _| {});
    let stats = AnalysisStats::of_run(plan.spent(), Ledger::default(), fixpoint.totals);
    Ok(Exploration {
        states: states?,
        stats,
    })
}

/// A test hook: the start heads of each narrowing walk of the
/// fixpoint's run over `prog` under `options`, in order, each with
/// whether its report was accepted (none for an acyclic program).
///
/// # Errors
///
/// The run's rejection.
#[doc(hidden)]
#[allow(clippy::type_complexity)]
pub fn narrowing_walks(
    prog: &Program,
    options: &crate::AnalyzerOptions,
) -> Result<Vec<(Vec<Option<AbsState>>, bool)>, VerifierError> {
    let plan = Plan::new(prog, options);
    let mut walks = Vec::new();
    Fixpoint::new(&plan).solve(|heads, accepted| walks.push((heads.to_vec(), accepted)))?;
    Ok(walks)
}

/// Which pass a segment walk serves. Every instruction of either is a
/// charged visit.
#[derive(Clone, Copy)]
enum Pass {
    /// The widening iteration: head arrivals join (widening at loop
    /// heads) into the head states, re-queueing the heads that grew.
    /// With `record`, each non-head pc's state is stored as reached
    /// (acyclic programs, whose one pass is their report).
    Widen { record: bool },
    /// A narrowing walk: each non-head pc's state is recorded and head
    /// arrivals are joined plainly into the report.
    Narrow,
}

/// One run's engine state, shared by its widening iteration and its
/// narrowing walks.
struct Fixpoint<'p> {
    plan: &'p Plan<'p>,
    /// Pending heads by RPO position: always popping the earliest, so
    /// inner regions settle before outer ones re-fire (the classic
    /// weak-topological iteration strategy).
    queue: RpoWorklist,
    /// The current segment walk's pending instructions, reused across
    /// walks.
    arms: Vec<(usize, AbsState)>,
    /// The fixpoint joins instead of pruning and never unrolls: of the
    /// walk totals it only counts cleaned components.
    totals: WalkTotals,
}

impl<'p> Fixpoint<'p> {
    fn new(plan: &'p Plan<'p>) -> Fixpoint<'p> {
        Fixpoint {
            plan,
            queue: RpoWorklist::new(plan.cfg.rpo().len()),
            arms: Vec::new(),
            totals: WalkTotals::default(),
        }
    }

    /// The ascent and, for a cyclic program, the narrowing walks that
    /// check it: the per-pc report. `on_walk` sees each walk's start
    /// heads and whether its report was accepted.
    fn solve(
        &mut self,
        on_walk: impl FnMut(&[Option<AbsState>], bool),
    ) -> Result<Vec<Option<AbsState>>, VerifierError> {
        let cfg = &self.plan.cfg;
        let acyclic = cfg.back_edges().is_empty();
        let mut heads: Vec<Option<AbsState>> = vec![None; self.plan.prog.len()];
        heads[0] = Some(self.entry());
        self.queue.push(cfg.rpo_pos(0));
        // Acyclic programs never widen: the single pass already recorded
        // the exact states, and narrowing would reproduce them verbatim
        // at the cost of re-running every transfer.
        if acyclic {
            self.ascend(&mut heads, &mut Strict)?;
            return Ok(heads);
        }
        // The ascent's own failures decide nothing: the narrowing walks
        // check again from its heads. Its widened heads are unreduced;
        // reducing them once here (it keeps γ) lets an accepted loop
        // settle in one walk instead of a second that only re-derives
        // the first's reduction.
        self.ascend(&mut heads, &mut None)?;
        for head in heads.iter_mut().flatten() {
            head.reduce();
        }
        self.check(heads, on_walk)
    }

    /// The head worklist, run to a fixpoint under `checks`.
    fn ascend(
        &mut self,
        heads: &mut [Option<AbsState>],
        checks: &mut impl Checks,
    ) -> Result<(), VerifierError> {
        let cfg = &self.plan.cfg;
        let record = cfg.back_edges().is_empty();
        while let Some(pos) = self.queue.pop() {
            let head = cfg.rpo()[pos];
            let state = heads[head].clone().expect("queued heads have a state");
            self.walk(Pass::Widen { record }, head, state, heads, checks)?;
        }
        Ok(())
    }

    /// The decreasing sequence of narrowing walks from the ascent's
    /// reduced `heads`, and its verdict (see [`run`]).
    fn check(
        &mut self,
        mut heads: Vec<Option<AbsState>>,
        mut on_walk: impl FnMut(&[Option<AbsState>], bool),
    ) -> Result<Vec<Option<AbsState>>, VerifierError> {
        let mut covered = true;
        let mut accepted = None;
        let mut rejection = None;
        for walk in 1..=NARROWING_WALKS {
            let mut failed = None;
            let report = if accepted.is_some() {
                self.narrow(&heads, &mut Strict)
            } else {
                self.narrow(&heads, &mut failed)
            };
            let report = match report {
                Ok(report) => report,
                Err(
                    e @ (VerifierError::AnalysisBudgetExhausted { .. }
                    | VerifierError::DeadlineExceeded { .. }),
                ) => return Err(e),
                Err(_) => break,
            };
            // The next walk's heads; the last walk needs them only to
            // test its own heads for coverage.
            let next = (walk < NARROWING_WALKS || (failed.is_none() && !covered))
                .then(|| self.head_states(&report));
            covered = failed.is_none()
                && (covered || next.as_ref().is_some_and(|next| within(next, &heads)));
            on_walk(&heads, covered);
            if covered {
                accepted = Some(report);
            } else {
                rejection = failed.or(rejection);
            }
            match next {
                Some(next) if next != heads => heads = next,
                _ => break,
            }
        }
        accepted.ok_or_else(|| rejection.expect("the ascent's heads are checked first"))
    }

    /// `report`'s states at the heads, `None` elsewhere.
    fn head_states(&self, report: &[Option<AbsState>]) -> Vec<Option<AbsState>> {
        let cfg = &self.plan.cfg;
        report
            .iter()
            .enumerate()
            .map(|(pc, state)| state.clone().filter(|_| pc == 0 || cfg.is_checkpoint(pc)))
            .collect()
    }

    /// One narrowing walk: every segment stepped once from its head's
    /// state in `heads`, in reverse postorder, under `checks`.
    fn narrow(
        &mut self,
        heads: &[Option<AbsState>],
        checks: &mut impl Checks,
    ) -> Result<Vec<Option<AbsState>>, VerifierError> {
        let mut report: Vec<Option<AbsState>> = vec![None; heads.len()];
        report[0] = Some(self.entry());
        for &pc in self.plan.cfg.rpo() {
            if let Some(state) = &heads[pc] {
                self.walk(Pass::Narrow, pc, state.clone(), &mut report, checks)?;
            }
        }
        Ok(report)
    }

    /// The entry state, cleaned when the entry is a checkpoint.
    fn entry(&mut self) -> AbsState {
        let mut entry = AbsState::entry();
        self.totals.dead_components_cleared += self.plan.clear_dead(0, &mut entry);
        entry
    }

    /// Walks the segment of `head` from `state` under `checks`, writing
    /// what `pass` records and joins into `out`. The state is stepped in
    /// place; a branch whose two arms stay in the segment pushes both,
    /// the taken arm on top, so the walk follows reverse postorder.
    fn walk(
        &mut self,
        pass: Pass,
        head: usize,
        state: AbsState,
        out: &mut [Option<AbsState>],
        checks: &mut impl Checks,
    ) -> Result<(), VerifierError> {
        let plan = self.plan;
        self.arms.push((head, state));
        while let Some((pc, state)) = self.arms.pop() {
            plan.charge(plan.count_visit(), pc, FaultSite::FixpointVisit)?;
            match pass {
                Pass::Widen { record } => {
                    if record && pc != head {
                        out[pc] = Some(state.clone());
                    }
                }
                Pass::Narrow if pc != head => {
                    // The walk steps on from widened (unreduced) values;
                    // the report holds their reduction.
                    let mut record = state.clone();
                    record.reduce();
                    out[pc] = Some(record);
                }
                Pass::Narrow => {}
            }
            let succs = match plan.transfer.step_with(plan.prog, state, pc, checks) {
                Ok(succs) => succs,
                // A failed check the step cannot go on past ends the path.
                Err(e) => {
                    checks.fail(e)?;
                    continue;
                }
            };
            for (succ, mut next) in succs {
                // The entry is re-entered only through a back edge,
                // which makes it a checkpoint too.
                if !plan.cfg.is_checkpoint(succ) {
                    self.arms.push((succ, next));
                    continue;
                }
                self.totals.dead_components_cleared += plan.clear_dead(succ, &mut next);
                match pass {
                    Pass::Widen { .. } => self.absorb(succ, next, out),
                    Pass::Narrow => match &mut out[succ] {
                        slot @ None => *slot = Some(next),
                        Some(existing) => {
                            existing.flow_join(&next, None);
                        }
                    },
                }
            }
        }
        Ok(())
    }

    /// Flows the widening pass's arrival `next` into head `succ`'s
    /// state, re-queueing the head if it grew.
    fn absorb(&mut self, succ: usize, next: AbsState, heads: &mut [Option<AbsState>]) {
        let plan = self.plan;
        let grew = match &mut heads[succ] {
            slot @ None => {
                *slot = Some(next);
                true
            }
            Some(existing) => {
                let widen = plan.cfg.is_loop_head(succ).then_some(WidenCtx {
                    thresholds: &plan.thresholds,
                    tnum_jump: true,
                });
                !next.is_subset_of(existing) && existing.flow_join(&next, widen)
            }
        };
        if grew {
            self.queue.push(plan.cfg.rpo_pos(succ));
        }
    }
}

/// Whether every state of `states` is ⊑ `bounds`' state at its pc:
/// included, or absorbed by a join that leaves the bound as it is (an
/// unreduced arrival can be covered without being included
/// componentwise).
fn within(states: &[Option<AbsState>], bounds: &[Option<AbsState>]) -> bool {
    states.iter().zip(bounds).all(|pair| match pair {
        (None, _) => true,
        (Some(_), None) => false,
        (Some(state), Some(bound)) => {
            state.is_subset_of(bound) || !bound.clone().flow_join(state, None)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StackSlot;
    use ebpf::asm::assemble;

    fn analyze(src: &str) -> (Vec<Option<AbsState>>, AnalysisStats) {
        analyze_with(src, true)
    }

    /// `src` under the default options, with or without harvested
    /// widening thresholds.
    fn analyze_with(src: &str, harvest_thresholds: bool) -> (Vec<Option<AbsState>>, AnalysisStats) {
        let prog = assemble(src).expect("assembles");
        let options = crate::AnalyzerOptions {
            harvest_thresholds,
            ..crate::AnalyzerOptions::default()
        };
        let Exploration { states, stats } = run(&Plan::new(&prog, &options)).expect("accepted");
        (states, stats)
    }

    /// A counted loop whose body is `body` ALU instructions.
    fn counted_loop(body: usize) -> String {
        format!(
            "r1 = 0\nr2 = 0\nloop:\n{}r1 += 1\nif r1 < 64 goto loop\nr0 = r1\nexit\n",
            "r2 += r1\n".repeat(body)
        )
    }

    /// The per-body-instruction visits and the allocation growth of
    /// the counted loop with a 4- and a 32-instruction body.
    fn body_costs(harvest_thresholds: bool) -> (u64, u64, u64) {
        let (_, short) = analyze_with(&counted_loop(4), harvest_thresholds);
        let (_, long) = analyze_with(&counted_loop(32), harvest_thresholds);
        let visits = (long.visits - short.visits) / (32 - 4);
        (visits, short.states_allocated, long.states_allocated)
    }

    #[test]
    fn loop_body_length_costs_one_report_record_per_instruction() {
        // Without thresholds the counter jumps straight to the built-in
        // rung: the ascent settles in 5 rounds and two narrowing walks
        // follow, so each body instruction costs seven visits. The
        // in-place walk materializes the register file once per segment
        // walk, not once per instruction: only the narrowing walks'
        // records cost an allocation per body instruction.
        let (visits, short, long) = body_costs(false);
        assert_eq!(visits, 7);
        assert!(long <= short + 28, "allocations grew {short} -> {long}");
    }

    #[test]
    fn eager_ascent_walks_a_long_body_fewer_rounds_at_the_same_record_cost() {
        // The default path on the same loops: with the harvested `< 64`
        // rung the ascent settles in 7 rounds and one narrowing walk
        // from its reduced heads follows, so each body instruction costs
        // eight visits, and the walk allocates at most one record per
        // body instruction.
        let (visits, short, long) = body_costs(true);
        assert_eq!(visits, 8);
        assert!(long <= short + 28, "allocations grew {short} -> {long}");
    }

    /// 48 trips of a counter `r1` and an accumulator `r6` that churns
    /// its low bits every round.
    const CHURNING: &str = "r1 = 0\nr6 = 0\nloop:\nr6 *= 3\nr6 ^= 5\nr6 += r1\nr1 += 1\n\
                            if r1 < 48 goto loop\nr0 = r6\nexit\n";

    #[test]
    fn churning_accumulator_widens_in_one_jump() {
        // The tnum ∇ jumps (every trit from the lowest newly unknown one
        // upward turns unknown), so one widening settles `r6`. The
        // visits count the one narrowing walk (9). With the tnum join as
        // ∇, `r6` gave up about one trit per round.
        let (states, stats) = analyze(CHURNING);
        assert_eq!((stats.visits, stats.widenings_applied), (42, 6));
        let report = |pc: usize| format!("{:?}", states[pc].as_ref().expect("reachable"));
        assert_eq!(
            report(2),
            "AbsState {\n  r1: tnum=xx u[0, 47]\n  r6: unknown\n  r10: stack+0\n  \
             stack: 0/64 slots written\n}"
        );
        assert_eq!(
            report(8),
            "AbsState {\n  r0: unknown\n  r1: 48\n  r6: unknown\n  r10: stack+0\n  \
             stack: 0/64 slots written\n}"
        );
    }

    #[test]
    fn reduced_ascent_heads_settle_in_one_narrowing_walk() {
        // The ascent's widened heads are reduced before the first walk,
        // so that walk starts from heads equal to their own reduction,
        // its arrivals leave them as they are, and it is the only walk.
        let prog = assemble(CHURNING).expect("assembles");
        let walks = narrowing_walks(&prog, &crate::AnalyzerOptions::default()).expect("accepted");
        assert_eq!(walks.len(), 1);
        let (heads, accepted) = &walks[0];
        assert!(accepted);
        for head in heads.iter().flatten() {
            let mut reduced = head.clone();
            reduced.reduce();
            assert_eq!(&reduced, head);
        }
    }

    #[test]
    fn churning_accumulator_ascends_eagerly_to_the_same_report() {
        // Without thresholds the counter jumps to the built-in rung: 44
        // visits (two narrowing walks included, the first of which
        // narrows the counter's head) and 5 widenings instead of 42 and
        // 6, and the narrowing walks re-tighten the counter to the exit
        // test, reporting exactly what the run with thresholds does.
        let (states, stats) = analyze_with(CHURNING, false);
        assert_eq!((stats.visits, stats.widenings_applied), (44, 5));
        assert_eq!(states, analyze(CHURNING).0);
    }

    #[test]
    fn the_budget_bounds_the_narrowing_walks() {
        // The accumulator's ascent takes 33 visits and its one narrowing
        // walk 9 more: a budget of 41 fits the ascent but not the
        // narrowing.
        let prog = assemble(CHURNING).expect("assembles");
        let budget = |analysis_budget| crate::AnalyzerOptions {
            analysis_budget,
            ..crate::AnalyzerOptions::default()
        };
        let fits = run(&Plan::new(&prog, &budget(42))).expect("the narrowing fits");
        assert_eq!(fits.stats.visits, 42);
        let err = run(&Plan::new(&prog, &budget(41))).expect_err("the narrowing is charged");
        assert!(
            matches!(
                err,
                VerifierError::AnalysisBudgetExhausted { budget: 41, .. }
            ),
            "{err}"
        );
    }

    /// The 13-trip store loop bounded by a register (`r7`), which no
    /// harvested threshold catches.
    const REG_BOUND_LOOP: &str = include_str!("../../../fixtures/reg_bound_loop.ebpf");

    #[test]
    fn the_narrowing_walks_prove_the_store_the_widened_ascent_fails() {
        // The ascent widens the counter past the 13-byte window, so the
        // first walk, from its reduced heads, fails the store check; its
        // arrivals re-tighten the head to `r1 ∈ [0, 12]`, and the second
        // walk, whose arrivals stay inside its heads, proves the store.
        // Both with and without thresholds (no immediate names 13).
        let prog = assemble(REG_BOUND_LOOP).expect("assembles");
        for harvest_thresholds in [true, false] {
            let options = crate::AnalyzerOptions {
                harvest_thresholds,
                ..crate::AnalyzerOptions::default()
            };
            let walks =
                narrowing_walks(&prog, &options).expect("the narrowing walks prove the store");
            let accepted: Vec<bool> = walks.iter().map(|(_, accepted)| *accepted).collect();
            assert_eq!(accepted, [false, true], "thresholds {harvest_thresholds}");
            let Exploration { states, stats } = run(&Plan::new(&prog, &options)).expect("accepted");
            let r1 = states[2].as_ref().expect("reachable").reg(ebpf::Reg::R1);
            let r1 = r1.as_scalar().expect("scalar");
            assert_eq!((r1.bounds().umin(), r1.bounds().umax()), (0, 12));
            // The run fits a budget of exactly its visits.
            let tight = crate::AnalyzerOptions {
                analysis_budget: stats.visits,
                ..options
            };
            run(&Plan::new(&prog, &tight)).expect("fits its budget");
        }
        // One trip past the window: every walk fails the store.
        let overrun = assemble(include_str!(
            "../../../fixtures/rejected/reg_bound_overrun.ebpf"
        ))
        .expect("assembles");
        let options = crate::AnalyzerOptions::default();
        let err = run(&Plan::new(&overrun, &options)).expect_err("overruns");
        assert!(
            matches!(err, VerifierError::OutOfBounds { pc: 5, .. }),
            "{err}"
        );
    }

    /// A random counted loop storing through its counter into a buffer
    /// that may be one byte short, bounded by an immediate or a register,
    /// with an accumulator that may churn: safe and unsafe.
    fn store_loop(rng: &mut domain::rng::SplitMix64) -> String {
        let trips = 1 + rng.below(24);
        let buf = trips + rng.below(3) - 1;
        let bound = if rng.coin() {
            format!("r7 = {trips}\nr6 = 0\nloop:\n")
        } else {
            "r6 = 0\nloop:\n".to_string()
        };
        let guard = if bound.starts_with("r7") {
            "r7".to_string()
        } else {
            trips.to_string()
        };
        let churn = ["", "r6 += r1\n", "r6 *= 3\nr6 ^= 5\n", "r6 += 1\n"][rng.below(4) as usize];
        format!(
            "r1 = 0\n{bound}{churn}r3 = r10\nr3 += -{}\nr3 += r1\n*(u8 *)(r3 + 0) = 0\n\
             r1 += 1\nif r1 < {guard} goto loop\nr0 = r6\nexit\n",
            buf.max(1)
        )
    }

    /// Re-walks `heads` with strict checks: `None` if a check fails,
    /// else the walk's arrivals at the heads.
    fn strict_arrivals(
        fixpoint: &mut Fixpoint<'_>,
        heads: &[Option<AbsState>],
    ) -> Option<Vec<Option<AbsState>>> {
        let report = fixpoint.narrow(heads, &mut Strict).ok()?;
        Some(fixpoint.head_states(&report))
    }

    #[test]
    fn accepted_runs_are_checked_from_covering_heads() {
        // Every fixture, every program of the bench sweep under its own
        // options, and random programs. Every accepted program runs on
        // the VM without a fault, and its accepted walks' start heads are
        // walked again with strict checks: no check fails, the first
        // accepted walk's heads are inductive (arrivals ⊑ heads), and
        // every accepted walk's arrivals lie inside the next one's heads.
        // The accepted count is pinned; the delayed retry these checks
        // replaced accepted 169 of the same programs, and 67 are accepted
        // only past a walk that failed a check. So is the number of
        // narrowing walks, accepted programs or not: 535, where walks
        // from the ascent's unreduced heads took 678.
        let defaults = crate::AnalyzerOptions::default();
        let mut progs: Vec<(String, Program, crate::AnalyzerOptions)> = Vec::new();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
        for dir in [dir.to_string(), format!("{dir}/rejected")] {
            for entry in std::fs::read_dir(dir).expect("fixtures directory") {
                let path = entry.expect("dir entry").path();
                if path.extension().is_some_and(|x| x == "ebpf") {
                    let source = std::fs::read_to_string(&path).expect("fixture reads");
                    let prog = assemble(&source).expect("fixture assembles");
                    progs.push((path.display().to_string(), prog, defaults.clone()));
                }
            }
        }
        // The bench crate links its own build of this one: carry over
        // the options the fixpoint reads.
        for (label, prog, session) in bench::fixpoint_suite::sweep_configs() {
            let theirs = session.options();
            let options = crate::AnalyzerOptions {
                harvest_thresholds: theirs.harvest_thresholds,
                liveness_pruning: theirs.liveness_pruning,
                ..defaults.clone()
            };
            progs.push((label, prog, options));
        }
        let mut rng = domain::rng::SplitMix64::new(0x7E7_2A11);
        for round in 0..400 {
            let len = 2 + rng.below(30) as usize;
            let prog = crate::cfg::tests::random_program(&mut rng, len);
            progs.push((format!("random round {round}"), prog, defaults.clone()));
        }
        for round in 0..200 {
            let prog = assemble(&store_loop(&mut rng)).expect("assembles");
            progs.push((format!("store loop {round}"), prog, defaults.clone()));
        }
        let (mut accepted, mut narrowed, mut walked) = (0, 0, 0);
        for (label, prog, options) in &progs {
            let at = || format!("{label}:\n{}", prog.disassemble());
            let plan = Plan::new(prog, options);
            let mut walks = Vec::new();
            let verdict = Fixpoint::new(&plan).solve(|heads, ok| walks.push((heads.to_vec(), ok)));
            walked += walks.len();
            assert_eq!(verdict.is_ok(), run(&plan).is_ok(), "{}", at());
            if verdict.is_err() {
                continue;
            }
            accepted += 1;
            // The concrete run on a zero and a random context never
            // faults (it may run out of fuel: unbounded loops are safe).
            for fill in [0, rng.next_u64()] {
                let mut ctx = fill.to_le_bytes().repeat(options.ctx_size as usize / 8);
                match ebpf::Vm::new().run(prog, &mut ctx) {
                    Ok(_) | Err(ebpf::VmError::OutOfFuel) => {}
                    Err(e) => panic!("accepted, but the VM faults ({e}): {}", at()),
                }
            }
            let Some(first) = walks.iter().position(|(_, ok)| *ok) else {
                continue;
            };
            narrowed += usize::from(first > 0);
            let mut fixpoint = Fixpoint::new(&plan);
            let checked: Vec<&Vec<Option<AbsState>>> = walks[first..]
                .iter()
                .filter(|(_, ok)| *ok)
                .map(|(heads, _)| heads)
                .collect();
            let arrivals: Vec<Vec<Option<AbsState>>> = checked
                .iter()
                .map(|heads| {
                    strict_arrivals(&mut fixpoint, heads)
                        .unwrap_or_else(|| panic!("a strict re-walk fails: {}", at()))
                })
                .collect();
            let inductive = within(&arrivals[0], checked[0]);
            let descends = arrivals
                .iter()
                .zip(&checked[1..])
                .all(|(a, h)| within(a, h));
            assert!(inductive && descends, "heads do not cover: {}", at());
        }
        println!(
            "{} programs: {accepted} accepted, {narrowed} only past a failed walk, \
             {walked} narrowing walks",
            progs.len()
        );
        assert_eq!((progs.len(), accepted, narrowed), (648, 187, 67));
        assert_eq!(walked, 535);
    }

    #[test]
    fn memset_loop_exit_keeps_the_smeared_slot() {
        // Once widened, the loop's variable-offset store smears all of
        // `[-16, -1]`; the first round's stored only at -16. The exit
        // segment is stepped from the widened head state alone, so slot
        // -8 reads `Misc`. Joining every round's state per pc (as a
        // per-instruction worklist does) keeps the first round's
        // `Uninit` there, the top.
        let (states, _) = analyze(include_str!("../../../fixtures/memset_loop.ebpf"));
        for pc in [9, 10] {
            let state = states[pc].as_ref().expect("reachable");
            assert_eq!(state.stack_slot(-8), Some(StackSlot::Misc), "pc {pc}");
        }
    }
}
