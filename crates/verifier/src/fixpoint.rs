//! The fixpoint layer: the reverse-postorder priority worklist, the
//! per-register delayed-widening/narrowing schedule, the visit budget,
//! and the [`AnalysisStats`] accounting of copy-on-write state traffic.
//!
//! The engine knows nothing about instruction semantics — it asks
//! [`crate::transfer::Transfer`] for successor contributions and owns
//! only *how* states flow: joins at merge points
//! ([`crate::AbsState::flow_join`]), per-component widening at loop heads
//! (each register and stack slot burns its own
//! [`crate::AnalyzerOptions::widen_delay`], see
//! [`crate::state::JoinCounters`]), widening thresholds harvested from
//! the program's comparison immediates, and one narrowing pass after
//! stabilization.

use ebpf::{Insn, Program, Src};
use interval_domain::WidenThresholds;

use crate::analyzer::AnalyzerOptions;
use crate::cfg::{Cfg, RpoWorklist};
use crate::error::VerifierError;
use crate::explore::WalkTotals;
use crate::passes::CheckpointLiveness;
use crate::state::{stats, AbsState, JoinCounters, WidenCtx};
use crate::transfer::Transfer;
use crate::visited::Ledger;

/// Thread-local visit ledger: every strategy bumps it once per
/// instruction visit (the parallel explorer credits its shared atomic
/// back on the coordinator thread), and [`crate::batch::run`] resets
/// and harvests it around each program so a *rejected* run's partial
/// walk still lands in `BatchStats::per_worker_visits` — an
/// error return discards the strategy's local counters, and before
/// this ledger existed that burned work silently vanished from the
/// batch roll-up.
pub(crate) mod ledger {
    use std::cell::Cell;

    thread_local! {
        static VISITS: Cell<u64> = const { Cell::new(0) };
    }

    /// Counts one instruction visit on this thread.
    pub(crate) fn bump() {
        VISITS.with(|v| v.set(v.get() + 1));
    }

    /// Credits `n` visits performed elsewhere (parallel explorer jobs)
    /// to this thread's ledger.
    pub(crate) fn credit(n: u64) {
        VISITS.with(|v| v.set(v.get() + n));
    }

    /// Zeroes the ledger (start of one batch item).
    pub(crate) fn reset() {
        VISITS.with(|v| v.set(0));
    }

    /// Reads the ledger (end of one batch item, `Ok` or `Err`).
    pub(crate) fn snapshot() -> u64 {
        VISITS.with(Cell::get)
    }
}

/// Counters describing one analysis run — the observable effect of the
/// copy-on-write state layer and (under the path-sensitive strategy) of
/// kernel-style visited-state pruning, emitted by the fixpoint bench
/// (`BENCH_PR13.json`), guarded by CI against regression, and pinned
/// per fixture for the path explorer in `tests/explorer_counters.rs`.
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
    /// Instruction visits consumed from the analysis budget.
    pub visits: u64,
    /// Branch states discarded because they were included in an
    /// already-explored state at the same instruction (the kernel's
    /// `is_state_visited` pruning). Always zero under the widening
    /// fixpoint, which joins instead of pruning.
    pub states_pruned: u64,
    /// Full `AbsState::is_subset_of` probes run against the
    /// visited-state table (covering probes plus dominance-eviction
    /// probes) — the cost side of the pruning ledger, and the counter
    /// the `fixpoint_guard` deep-unroll gate regresses on.
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
    /// Zero when [`AnalyzerOptions::memo_cache`] is `None`.
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
    /// [`AnalyzerOptions::liveness_pruning`]. A subset of
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
    /// One run's counters: its state-layer `traffic`, `memo` `(hits,
    /// misses, evicted)`, visits, visited-table ledger (`chains`) and
    /// walk totals. The parallel explorer's own counters start at zero.
    pub(crate) fn of_run(
        traffic: stats::Traffic,
        memo: (u64, u64, u64),
        visits: u64,
        chains: Ledger,
        totals: WalkTotals,
    ) -> AnalysisStats {
        AnalysisStats {
            states_allocated: traffic.allocated,
            states_shared: traffic.shared,
            joins_short_circuited: traffic.short_circuited,
            widenings_applied: traffic.widenings,
            visits,
            states_pruned: chains.states_pruned,
            subset_checks: chains.subset_checks,
            unrolled_trips: totals.unrolled_trips,
            fingerprint_rejects: chains.fingerprint_rejects,
            visited_evicted: chains.visited_evicted,
            bytes_materialized: traffic.bytes,
            memo_hits: memo.0,
            memo_misses: memo.1,
            memo_evicted: memo.2,
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

    /// Renders the counters as a JSON object fragment (hand-rolled — the
    /// workspace is dependency-free), for bench baselines.
    #[must_use]
    pub fn to_json_object(&self) -> String {
        format!(
            "{{\"states_allocated\": {}, \"states_shared\": {}, \
             \"joins_short_circuited\": {}, \"widenings_applied\": {}, \
             \"visits\": {}, \"states_pruned\": {}, \"subset_checks\": {}, \
             \"unrolled_trips\": {}, \"fingerprint_rejects\": {}, \
             \"visited_evicted\": {}, \"bytes_materialized\": {}, \
             \"memo_hits\": {}, \"memo_misses\": {}, \"memo_evicted\": {}, \
             \"live_masked_prunes\": {}, \"dead_components_cleared\": {}, \
             \"subtrees_spawned\": {}, \
             \"steals\": {}, \"shared_prunes\": {}, \"degradations\": {}}}",
            self.states_allocated,
            self.states_shared,
            self.joins_short_circuited,
            self.widenings_applied,
            self.visits,
            self.states_pruned,
            self.subset_checks,
            self.unrolled_trips,
            self.fingerprint_rejects,
            self.visited_evicted,
            self.bytes_materialized,
            self.memo_hits,
            self.memo_misses,
            self.memo_evicted,
            self.live_masked_prunes,
            self.dead_components_cleared,
            self.subtrees_spawned,
            self.steals,
            self.shared_prunes,
            self.degradations
        )
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
/// Shared with the path explorers' widening fallback (see
/// [`thresholds_for`]), so every strategy extrapolates through the same
/// program-derived ladder.
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

/// The widening thresholds a strategy runs `prog` with: harvested when
/// [`AnalyzerOptions::harvest_thresholds`] is on and the CFG has a back
/// edge. Thresholds only matter where widening can fire; acyclic
/// programs (the bulk of real workloads) skip the harvest scan entirely.
pub(crate) fn thresholds_for(
    prog: &Program,
    cfg: &Cfg,
    options: &AnalyzerOptions,
) -> WidenThresholds {
    if options.harvest_thresholds && !cfg.back_edges().is_empty() {
        harvest_thresholds(prog)
    } else {
        WidenThresholds::EMPTY
    }
}

/// Runs the worklist to a (widened) post-fixpoint and applies one
/// narrowing pass, returning per-instruction states and the run's
/// sharing statistics.
///
/// # Errors
///
/// A [`VerifierError`] from the transfer layer (the program is unsafe)
/// or [`VerifierError::AnalysisBudgetExhausted`] when the iteration
/// exceeds its visit budget.
pub fn run(
    transfer: &Transfer,
    prog: &Program,
    cfg: &Cfg,
    options: &AnalyzerOptions,
) -> Result<(Vec<Option<AbsState>>, AnalysisStats), VerifierError> {
    stats::reset();
    crate::memo::counters::reset();
    let thresholds = thresholds_for(prog, cfg, options);

    // Liveness feeds checkpoint cleaning: states flowing into a loop
    // head or merge point drop their dead components first, so
    // contributions differing only in dead registers/slots subset-skip
    // instead of re-joining, and dead components never burn widening
    // delay. Cleaning to `Uninit` (the join/order top) is monotone, so
    // the fixpoint stays a sound over-approximation on live components.
    // Only the checkpoints' live-in masks are solved (none at all for a
    // program without checkpoints).
    let liveness = options
        .liveness_pruning
        .then(|| CheckpointLiveness::compute(prog, cfg))
        .flatten();
    // The fixpoint joins instead of pruning and never unrolls: of the
    // walk totals it only counts cleaned components.
    let mut totals = WalkTotals::default();

    let mut entry = AbsState::entry();
    totals.dead_components_cleared += clear_dead_at(cfg, liveness.as_ref(), 0, &mut entry);
    let mut states: Vec<Option<AbsState>> = vec![None; prog.len()];
    states[0] = Some(entry);
    // Per-loop-head, per-component changing-join counters driving the
    // per-register delayed widening (allocated lazily: only heads join).
    let mut counters: Vec<Option<Box<JoinCounters>>> = vec![None; prog.len()];

    // Priority worklist: always pop the pending instruction earliest
    // in reverse postorder, so inner regions settle before outer ones
    // re-fire (the classic weak-topological iteration strategy).
    let mut queue = RpoWorklist::new(cfg.rpo().len());
    queue.push(cfg.rpo_pos(0));

    let start = std::time::Instant::now();
    let mut visits: u64 = 0;
    while let Some(pos) = queue.pop() {
        let pc = cfg.rpo()[pos];
        visits += 1;
        ledger::bump();
        if visits > options.analysis_budget {
            return Err(VerifierError::AnalysisBudgetExhausted {
                pc,
                budget: options.analysis_budget,
            });
        }
        crate::analyzer::check_deadline(start, options, pc)?;
        crate::failpoint::fire(crate::failpoint::FaultSite::FixpointVisit);
        let state = states[pc]
            .clone()
            .expect("queued instructions have a state");
        for (succ, mut out) in transfer.step(prog, state, pc)? {
            totals.dead_components_cleared += clear_dead_at(cfg, liveness.as_ref(), succ, &mut out);
            let changed = match &mut states[succ] {
                slot @ None => {
                    *slot = Some(out);
                    true
                }
                Some(existing) => {
                    if out.is_subset_of(existing) {
                        false
                    } else {
                        let widen = cfg.is_loop_head(succ).then(|| WidenCtx {
                            counters: counters[succ].get_or_insert_with(Default::default),
                            delay: options.widen_delay,
                            thresholds: &thresholds,
                        });
                        existing.flow_join(&out, widen)
                    }
                }
            };
            if changed {
                queue.push(cfg.rpo_pos(succ));
            }
        }
    }

    // Acyclic programs never widen: the single worklist pass already
    // computed the exact join states, and narrowing would reproduce
    // them verbatim at the cost of re-running every transfer.
    let states = if cfg.back_edges().is_empty() {
        states
    } else {
        narrow(
            transfer,
            prog,
            cfg,
            &states,
            liveness.as_ref(),
            &mut totals.dead_components_cleared,
        )?
    };

    let stats = AnalysisStats::of_run(
        stats::snapshot(),
        crate::memo::counters::snapshot(),
        visits,
        Ledger::default(),
        totals,
    );
    Ok((states, stats))
}

/// Checkpoint cleaning: when liveness was solved and `pc` is a
/// checkpoint, resets `state`'s components dead at `pc` to their
/// uninitialized top, returning how many it reset.
pub(crate) fn clear_dead_at(
    cfg: &Cfg,
    liveness: Option<&CheckpointLiveness>,
    pc: usize,
    state: &mut AbsState,
) -> u64 {
    match liveness {
        Some(live) if cfg.is_checkpoint(pc) => {
            let mask = live.live_in(pc);
            u64::from(state.clear_dead(mask.regs, mask.slots))
        }
        _ => 0,
    }
}

/// The narrowing pass: one plain-join recomputation of every reachable
/// state from the stabilized `states`. From a post-fixpoint, one
/// application of the (monotone) transfer functions stays a
/// post-fixpoint while undoing over-extrapolated widening jumps — e.g. a
/// loop head re-tightens to `entry ⊔ refined back-edge`.
fn narrow(
    transfer: &Transfer,
    prog: &Program,
    cfg: &Cfg,
    states: &[Option<AbsState>],
    liveness: Option<&CheckpointLiveness>,
    dead_components_cleared: &mut u64,
) -> Result<Vec<Option<AbsState>>, VerifierError> {
    let mut narrowed: Vec<Option<AbsState>> = vec![None; prog.len()];
    let mut entry = AbsState::entry();
    *dead_components_cleared += clear_dead_at(cfg, liveness, 0, &mut entry);
    narrowed[0] = Some(entry);
    for &pc in cfg.rpo() {
        let Some(state) = states[pc].clone() else {
            continue;
        };
        for (succ, mut out) in transfer.step(prog, state, pc)? {
            // The same checkpoint cleaning the widened pass applied:
            // narrowing must not resurrect dead components the
            // fixpoint already dropped.
            *dead_components_cleared += clear_dead_at(cfg, liveness, succ, &mut out);
            match &mut narrowed[succ] {
                slot @ None => *slot = Some(out),
                // In-place join: the cell materializes once and then
                // absorbs later edges without fresh allocations.
                Some(existing) => {
                    existing.flow_join(&out, None);
                }
            }
        }
    }
    Ok(narrowed)
}
