//! The fixpoint layer: the reverse-postorder priority worklist over
//! loop heads and merge points, the per-register delayed-widening/
//! narrowing schedule, and [`AnalysisStats`], the counters every
//! exploration reports.
//!
//! The engine knows nothing about instruction semantics — it asks the
//! per-exploration plan's [`crate::transfer::Transfer`] for successor
//! contributions, and the plan charges each visit — and owns only *how*
//! states flow. States are kept only where paths meet (the entry and
//! every [`Cfg::is_checkpoint`](crate::Cfg::is_checkpoint) pc); the
//! code between two such heads is stepped in place on one state, like
//! the path walk does.
//! Arrivals join at merge points ([`crate::AbsState::flow_join`]) and
//! widen per component at loop heads, with widening thresholds
//! harvested from the program's comparison immediates, and a decreasing
//! sequence of narrowing walks after stabilization records the per-pc
//! report (see `run`).
//!
//! The ascent is eager: every changing loop-head join widens at once.
//! Only when that ascent fails does the run ascend again with a delay:
//! each register and stack slot then absorbs
//! [`crate::AnalyzerOptions::widen_delay`] changing joins of its own
//! exactly before it widens (see [`crate::state::JoinCounters`]). The
//! retry keeps the loops only the delay proves (a counter bounded by a
//! register, which no threshold names), so a rejection is always the
//! delayed ascent's; the narrowing walks recover what eager widening
//! gives up, so the common loop no longer pays the delay's rounds.
//!
//! A widened scalar's tnum half jumps ([`tnum::Tnum::widen`]): every
//! trit from the lowest newly unknown one upward turns unknown, since
//! the paper's add, sub and mul carry uncertainty only upward. A
//! churning accumulator then settles in one widening instead of giving
//! up about one trit per round, and the narrowing walks re-derive the
//! report from the widened heads, recovering what the jump
//! over-extrapolates. The path walk's loop-head summaries keep the tnum
//! join: they are its report, and nothing re-derives them.

use ebpf::{Insn, Program, Src};
use interval_domain::WidenThresholds;

use crate::cfg::RpoWorklist;
use crate::error::VerifierError;
use crate::explore::{Exploration, Plan, WalkTotals};
use crate::failpoint::FaultSite;
use crate::state::{AbsState, JoinCounters, WidenCtx};
use crate::tally::Tally;
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
    /// is every instruction of its widening walks and of its narrowing
    /// walks; a run whose eager ascent failed and was retried with the
    /// widening delay counts the visits of both ascents (each was
    /// charged against the whole budget).
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
/// the benchmark corpus no sequence needed more than two.
const NARROWING_WALKS: usize = 4;

/// Runs the head worklist over `plan`'s program to a (widened)
/// post-fixpoint and, for a cyclic program, a decreasing sequence of
/// narrowing walks, returning per-instruction states and the run's
/// counters.
///
/// **Eager ascent, delayed retry.** The run first ascends with no
/// widening delay: every changing join at a loop head widens. Where the
/// delay's exact rounds are what proves a loop (a counter bounded by a
/// register, which no harvested threshold can catch), that ascent fails;
/// if it failed after its first changing loop-head join — the first
/// point where an ascent with a delay can differ — the run ascends again
/// from scratch with [`crate::AnalyzerOptions::widen_delay`] and returns
/// that result. So every rejection is the delayed ascent's rejection,
/// and every acceptance comes from a completed ascent. Both ascents
/// share the plan; the retry gets the whole visit budget, and a retried
/// run's counters count both ascents. A blown deadline is returned as
/// it stands: the retry would start past it.
///
/// States are kept only at **heads**: the entry plus every
/// [`Cfg::is_checkpoint`](crate::Cfg::is_checkpoint) pc (loop heads and
/// merge points). Every other reachable pc has exactly one reachable
/// predecessor edge, so it belongs to exactly one head's **segment** —
/// the straight-line code and branch arms that follow the head up to
/// the next head or `exit`.
/// Popping a head (earliest in reverse postorder first) walks its
/// segment on one in-place state, forking only at branch arms, and
/// flows each arrival at a head into that head's state: a subset test,
/// else a join (per-component delayed widening at loop heads) that
/// re-queues the head when it grew. Every instruction of every walk,
/// widening or narrowing, is one visit the plan charges against the
/// budget, the deadline and the `fixpoint-visit` fail-point.
///
/// The report: an acyclic program pops every head once, so its walks
/// record each pc's state directly. A cyclic program is reported by a
/// decreasing sequence of narrowing walks (Miné's widening-then-narrowing
/// scheme). Each walk steps every segment once from the previous walk's
/// head states — the first from the widened ones — records every
/// non-head pc's state as reached (reduced: widened values are carried
/// unreduced), and joins the arrivals at each head (without widening)
/// into that head's new state; the entry's starts from the entry state.
/// The sequence stops when a walk leaves every head state as it found
/// it, or after [`NARROWING_WALKS`] walks, and the last walk's records
/// and head states are the report. Every walk starts from head states
/// that cover every reachable state, so every walk's report is sound,
/// though the transfers are not monotone: a variable-offset stack store
/// marks every slot its offset range touches `Misc`, below the `Uninit`
/// top, so a wider range leaves tighter slots. For the same reason a
/// later walk can fail a check an earlier one passed; the sequence then
/// ends with the earlier walk's report, which checked every pc. A blown
/// budget or deadline in any walk fails the ascent. A loop
/// head re-tightens to `entry ⊔ refined back-edge`, and a loop body is
/// reported as walked from the last head state alone, not as the join
/// of every round's walk.
///
/// # Errors
///
/// A [`VerifierError`] from the transfer layer (the program is unsafe)
/// or [`VerifierError::AnalysisBudgetExhausted`] when the iteration
/// exceeds its visit budget.
pub(crate) fn run(plan: &Plan<'_>) -> Result<Exploration, VerifierError> {
    let delay = plan.options.widen_delay;
    let mut eager = Fixpoint::new(plan, 0);
    let mut states = eager.solve();
    let mut totals = eager.totals;
    if let Err(e) = &states {
        let retry =
            eager.diverged && delay > 0 && !matches!(e, VerifierError::DeadlineExceeded { .. });
        if retry {
            let mut delayed = Fixpoint::new(plan, delay);
            states = delayed.solve();
            totals.dead_components_cleared += delayed.totals.dead_components_cleared;
        }
    }
    let stats = AnalysisStats::of_run(plan.spent(), Ledger::default(), totals);
    Ok(Exploration {
        states: states?,
        stats,
    })
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

/// One ascent's engine state, shared by its widening iteration and its
/// narrowing walks.
struct Fixpoint<'p> {
    plan: &'p Plan<'p>,
    /// How many changing joins each loop-head component absorbs exactly
    /// before it widens.
    delay: u32,
    /// Per-loop-head (by the plan's dense head index), per-component
    /// changing-join counters driving the per-register delayed widening.
    counters: Vec<JoinCounters>,
    /// Pending heads by RPO position: always popping the earliest, so
    /// inner regions settle before outer ones re-fire (the classic
    /// weak-topological iteration strategy).
    queue: RpoWorklist,
    /// The current segment walk's pending instructions, reused across
    /// walks.
    arms: Vec<(usize, AbsState)>,
    /// The exploration's visits before this ascent: each ascent is
    /// charged against the whole budget.
    visits_before: u64,
    /// Whether a loop-head join has changed a head state: from then on,
    /// ascents with different delays can differ.
    diverged: bool,
    /// The fixpoint joins instead of pruning and never unrolls: of the
    /// walk totals it only counts cleaned components.
    totals: WalkTotals,
}

impl<'p> Fixpoint<'p> {
    fn new(plan: &'p Plan<'p>, delay: u32) -> Fixpoint<'p> {
        Fixpoint {
            plan,
            delay,
            counters: vec![JoinCounters::new(); plan.heads()],
            queue: RpoWorklist::new(plan.cfg.rpo().len()),
            arms: Vec::new(),
            visits_before: plan.spent().visits,
            diverged: false,
            totals: WalkTotals::default(),
        }
    }

    /// One ascent and its narrowing walks: the per-pc report.
    fn solve(&mut self) -> Result<Vec<Option<AbsState>>, VerifierError> {
        let cfg = &self.plan.cfg;
        let acyclic = cfg.back_edges().is_empty();
        let mut heads: Vec<Option<AbsState>> = vec![None; self.plan.prog.len()];
        heads[0] = Some(self.entry());
        self.queue.push(cfg.rpo_pos(0));
        while let Some(pos) = self.queue.pop() {
            let head = cfg.rpo()[pos];
            let state = heads[head].clone().expect("queued heads have a state");
            self.walk(Pass::Widen { record: acyclic }, head, state, &mut heads)?;
        }
        // Acyclic programs never widen: the single pass already recorded
        // the exact states, and narrowing would reproduce them verbatim
        // at the cost of re-running every transfer.
        if acyclic {
            return Ok(heads);
        }
        let mut report = self.narrow(&heads)?;
        for _ in 1..NARROWING_WALKS {
            let from = self.head_states(&report);
            if from == heads {
                break;
            }
            match self.narrow(&from) {
                Ok(next) => report = next,
                Err(
                    e @ (VerifierError::AnalysisBudgetExhausted { .. }
                    | VerifierError::DeadlineExceeded { .. }),
                ) => return Err(e),
                Err(_) => break,
            }
            heads = from;
        }
        Ok(report)
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
    /// state in `heads`, in reverse postorder.
    fn narrow(
        &mut self,
        heads: &[Option<AbsState>],
    ) -> Result<Vec<Option<AbsState>>, VerifierError> {
        let mut report: Vec<Option<AbsState>> = vec![None; heads.len()];
        report[0] = Some(self.entry());
        for &pc in self.plan.cfg.rpo() {
            if let Some(state) = &heads[pc] {
                self.walk(Pass::Narrow, pc, state.clone(), &mut report)?;
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

    /// Walks the segment of `head` from `state`, writing what `pass`
    /// records and joins into `out`. The state is stepped in place; a
    /// branch whose two arms stay in the segment pushes both, the taken
    /// arm on top, so the walk follows reverse postorder.
    fn walk(
        &mut self,
        pass: Pass,
        head: usize,
        state: AbsState,
        out: &mut [Option<AbsState>],
    ) -> Result<(), VerifierError> {
        let plan = self.plan;
        self.arms.push((head, state));
        while let Some((pc, state)) = self.arms.pop() {
            let visits = plan.count_visit() - self.visits_before;
            plan.charge(visits, pc, FaultSite::FixpointVisit)?;
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
            for (succ, mut next) in plan.transfer.step(plan.prog, state, pc)? {
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
        let grew = match &mut heads[succ] {
            slot @ None => {
                *slot = Some(next);
                true
            }
            Some(existing) => {
                !next.is_subset_of(existing) && {
                    let plan = self.plan;
                    let loop_head = plan.head(succ);
                    let widen = loop_head.map(|h| WidenCtx {
                        counters: &mut self.counters[h],
                        delay: self.delay,
                        thresholds: &plan.thresholds,
                        tnum_jump: true,
                    });
                    let grew = existing.flow_join(&next, widen);
                    self.diverged |= grew && loop_head.is_some();
                    grew
                }
            }
        };
        if grew {
            self.queue.push(self.plan.cfg.rpo_pos(succ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::StackSlot;
    use ebpf::asm::assemble;

    fn analyze(src: &str) -> (Vec<Option<AbsState>>, AnalysisStats) {
        let prog = assemble(src).expect("assembles");
        let options = crate::AnalyzerOptions::default();
        let Exploration { states, stats } = run(&Plan::new(&prog, &options)).expect("accepted");
        (states, stats)
    }

    /// The delayed ascent alone, as `run` retries it: no eager ascent
    /// first.
    fn delayed(
        prog: &Program,
        options: &crate::AnalyzerOptions,
    ) -> Result<Exploration, VerifierError> {
        let plan = Plan::new(prog, options);
        let mut fixpoint = Fixpoint::new(&plan, options.widen_delay);
        let states = fixpoint.solve()?;
        let stats = AnalysisStats::of_run(plan.spent(), Ledger::default(), fixpoint.totals);
        Ok(Exploration { states, stats })
    }

    fn analyze_delayed(src: &str) -> (Vec<Option<AbsState>>, AnalysisStats) {
        let prog = assemble(src).expect("assembles");
        let options = crate::AnalyzerOptions::default();
        let Exploration { states, stats } = delayed(&prog, &options).expect("accepted");
        (states, stats)
    }

    /// A counted loop whose body is `body` ALU instructions.
    fn counted_loop(body: usize) -> String {
        format!(
            "r1 = 0\nr2 = 0\nloop:\n{}r1 += 1\nif r1 < 64 goto loop\nr0 = r1\nexit\n",
            "r2 += r1\n".repeat(body)
        )
    }

    #[test]
    fn loop_body_length_costs_one_report_record_per_instruction() {
        let (_, short) = analyze_delayed(&counted_loop(4));
        let (_, long) = analyze_delayed(&counted_loop(32));
        let extra: u64 = 32 - 4;
        // The longer body is walked once per round...
        let rounds = (long.visits - short.visits) / extra;
        assert!(rounds >= 10, "{rounds} rounds: too few to tell");
        // ...but allocates only where the narrowing pass records each of
        // its pcs: the in-place walk materializes the register file once
        // per segment walk, not once per instruction.
        assert!(
            long.states_allocated <= short.states_allocated + extra,
            "allocations grew {} -> {} over {rounds} rounds",
            short.states_allocated,
            long.states_allocated
        );
    }

    #[test]
    fn eager_ascent_walks_a_long_body_fewer_rounds_at_the_same_record_cost() {
        // The default path on the same loops: the eager ascent settles in
        // 7 rounds (the delayed one takes at least 10) and two narrowing
        // walks follow, so each body instruction costs nine visits. The
        // narrowing walks still allocate at most one record per body
        // instruction.
        let (_, short) = analyze(&counted_loop(4));
        let (_, long) = analyze(&counted_loop(32));
        let extra: u64 = 32 - 4;
        assert_eq!((long.visits - short.visits) / extra, 9);
        assert!(
            long.states_allocated <= short.states_allocated + extra,
            "allocations grew {} -> {}",
            short.states_allocated,
            long.states_allocated
        );
    }

    #[test]
    fn churning_accumulator_widens_in_one_jump() {
        // 48 trips of a counter `r1` and an accumulator `r6` that churns
        // its low bits every round. The tnum ∇ jumps (every trit from the
        // lowest newly unknown one upward turns unknown), so once `r6`
        // has burned its delay one widening settles it. The visits count
        // the two narrowing walks (9 each). With the tnum join as ∇, `r6`
        // gave up about one trit per round: 164 ascent visits and 13
        // widenings, for the same report.
        let (states, stats) = analyze_delayed(
            "r1 = 0\nr6 = 0\nloop:\nr6 *= 3\nr6 ^= 5\nr6 += r1\nr1 += 1\n\
             if r1 < 48 goto loop\nr0 = r6\nexit\n",
        );
        assert_eq!((stats.visits, stats.widenings_applied), (119, 4));
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
    fn churning_accumulator_ascends_eagerly_to_the_same_report() {
        // The default path on the accumulator above: the eager ascent
        // needs no retry and takes 51 visits (two narrowing walks
        // included) and 6 widenings instead of the delayed ascent's 119
        // and 4, and the narrowing walks report exactly what the delayed
        // ascent does.
        let src = "r1 = 0\nr6 = 0\nloop:\nr6 *= 3\nr6 ^= 5\nr6 += r1\nr1 += 1\n\
                   if r1 < 48 goto loop\nr0 = r6\nexit\n";
        let (states, stats) = analyze(src);
        assert_eq!((stats.visits, stats.widenings_applied), (51, 6));
        assert_eq!(states, analyze_delayed(src).0);
    }

    #[test]
    fn the_budget_bounds_the_narrowing_walks() {
        // The accumulator's eager ascent takes 33 visits and its two
        // narrowing walks 18 more: a budget of 50 fits the ascent but not
        // the narrowing, and the delayed retry (119 visits) fits neither.
        let prog = assemble(
            "r1 = 0\nr6 = 0\nloop:\nr6 *= 3\nr6 ^= 5\nr6 += r1\nr1 += 1\n\
             if r1 < 48 goto loop\nr0 = r6\nexit\n",
        )
        .expect("assembles");
        let budget = |analysis_budget| crate::AnalyzerOptions {
            analysis_budget,
            ..crate::AnalyzerOptions::default()
        };
        let fits = run(&Plan::new(&prog, &budget(51))).expect("the narrowing fits");
        assert_eq!(fits.stats.visits, 51);
        let err = run(&Plan::new(&prog, &budget(50))).expect_err("the narrowing is charged");
        assert!(
            matches!(
                err,
                VerifierError::AnalysisBudgetExhausted { budget: 50, .. }
            ),
            "{err}"
        );
    }

    /// The 13-trip store loop bounded by a register (`r7`), which no
    /// harvested threshold catches.
    const REG_BOUND_LOOP: &str = include_str!("../../../fixtures/reg_bound_loop.ebpf");

    #[test]
    fn a_failed_eager_ascent_retries_with_the_delay() {
        let prog = assemble(REG_BOUND_LOOP).expect("assembles");
        let options = crate::AnalyzerOptions::default();
        let plan = Plan::new(&prog, &options);
        let mut eager = Fixpoint::new(&plan, 0);
        let err = eager.solve().expect_err("the eager ascent loses the bound");
        assert!(matches!(err, VerifierError::OutOfBounds { .. }), "{err}");
        assert!(eager.diverged);
        let eager_visits = plan.spent().visits;
        // The retry reports what the delayed ascent alone does, and
        // counts both ascents' visits.
        let Exploration { states, stats } = run(&Plan::new(&prog, &options)).expect("retried");
        let alone = delayed(&prog, &options).expect("the delay keeps the bound");
        assert_eq!(states, alone.states);
        assert_eq!(stats.visits, eager_visits + alone.stats.visits);
        // The retry gets the whole budget: a budget the delayed ascent
        // fits in, but not with the eager ascent's visits on top.
        let tight = crate::AnalyzerOptions {
            analysis_budget: alone.stats.visits,
            ..options
        };
        run(&Plan::new(&prog, &tight)).expect("the retry fits its budget");
    }

    /// A random counted loop storing through its counter into a buffer
    /// that may be one byte short, bounded by an immediate or a register,
    /// with an accumulator that may churn: safe, unsafe, and safe only
    /// with the delay.
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

    #[test]
    fn rejections_are_the_delayed_ascents_rejections() {
        // Every fixture, every program of the bench sweep under its own
        // options, and random programs: whenever `run` rejects, the
        // delayed ascent alone rejects with the same error, and whenever
        // the delayed ascent accepts, `run` accepts. `run` may accept
        // where the delayed ascent rejects (its eager ascent proved the
        // program); that is sound, and counted.
        let defaults = crate::AnalyzerOptions::default();
        let mut progs: Vec<(String, Program, crate::AnalyzerOptions)> = Vec::new();
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
        for entry in std::fs::read_dir(dir).expect("fixtures directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "ebpf") {
                let source = std::fs::read_to_string(&path).expect("fixture reads");
                let prog = assemble(&source).expect("fixture assembles");
                progs.push((path.display().to_string(), prog, defaults.clone()));
            }
        }
        // The bench crate links its own build of this one: carry over
        // the options the fixpoint reads.
        for (label, prog, session) in bench::fixpoint_suite::sweep_configs() {
            let theirs = session.options();
            let options = crate::AnalyzerOptions {
                widen_delay: theirs.widen_delay,
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
        let (mut rejected, mut retried, mut eager_only) = (0, 0, 0);
        for (label, prog, options) in &progs {
            let plan = Plan::new(prog, options);
            let mut eager = Fixpoint::new(&plan, 0);
            if eager.solve().is_err() && eager.diverged {
                retried += 1;
            }
            let at = || format!("{label}:\n{}", prog.disassemble());
            match (run(&Plan::new(prog, options)), delayed(prog, options)) {
                (Err(got), Err(want)) => {
                    assert_eq!(got, want, "{}", at());
                    rejected += 1;
                }
                (Err(got), Ok(_)) => panic!("rejected ({got}) where the delay accepts: {}", at()),
                (Ok(_), Err(_)) => eager_only += 1,
                (Ok(_), Ok(_)) => {}
            }
        }
        println!(
            "{} programs: {rejected} rejected, {retried} retried, {eager_only} accepted by \
             the eager ascent alone",
            progs.len()
        );
        assert!(
            rejected >= 100 && retried >= 50,
            "{rejected} rejected, {retried} retried"
        );
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
