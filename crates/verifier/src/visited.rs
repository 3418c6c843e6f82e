//! The per-pc visited-state tables of the path explorers — the analogue
//! of the kernel verifier's `explored_states` / `is_state_visited`
//! machinery, rebuilt around **state fingerprints**.
//!
//! The kernel prunes a branch the moment its verifier state is *included
//! in* a state it has already fully explored at the same instruction:
//! everything the new state could do, the old one already proved safe.
//! It also keeps its `explored_states` lists healthy — hashed lookup,
//! capped list lengths (`states_maxlen`-style), and dropping states a
//! newer insertion subsumes — because an unbounded linear scan of full
//! state comparisons grows quadratically on long loops. One chain policy
//! applies the same hygiene to both tables:
//!
//! * **Fingerprint-indexed probes.** Each chain entry stores the state's
//!   64-bit [`AbsState::fingerprint`] next to it. A probe first compares
//!   fingerprints: a mismatch proves the candidate *unequal* in O(1)
//!   (the property suite pins `equal states ⟹ equal fingerprints`), so
//!   the expensive pointwise [`AbsState::is_subset_of`] runs only for
//!   fingerprint matches — plus a small newest-first budget of
//!   strict-inclusion probes (`STRICT_PROBES`), since a strictly
//!   smaller arrival can hide behind any fingerprint. Skipped candidates
//!   are counted as [`VisitedTable::fingerprint_rejects`]. Skipping a
//!   probe is always sound: pruning is an optimization, and the
//!   equality path (which termination of the widening fallback leans
//!   on) is probed against the *entire* chain.
//! * **Dominance eviction.** Inserting a state compares it against the
//!   newest `DOMINANCE_PROBES` entries; any entry *included in* the
//!   newcomer is dropped — everything it covered, the newcomer covers.
//!   This is what keeps widening-fallback chains short: each widened
//!   summary subsumes (and evicts) its predecessor.
//! * **Chain caps.** Each pc keeps at most `cap` entries
//!   ([`crate::AnalyzerOptions::visited_cap`], default
//!   [`DEFAULT_CAP`]); a full chain evicts oldest-first, kernel-style.
//!   Evictions of both kinds are counted in
//!   [`VisitedTable::visited_evicted`].
//!
//! The policy is written once, generic over how a recorded entry is
//! tested: [`VisitedTable`] stores `AbsState`s, and the parallel
//! explorer's striped `ConcurrentVisitedTable` stores the dense
//! `to_parts` snapshots that can cross threads.
//!
//! The tables also own the pruning accounting surfaced through
//! [`crate::AnalysisStats`]: how many full inclusion probes ran
//! (`subset_checks`), how many candidates were dismissed by fingerprint
//! (`fingerprint_rejects`), how many entries were evicted
//! (`visited_evicted`), and how many branch states were pruned
//! (`states_pruned`) — pinned per fixture in `tests/explorer_counters.rs`
//! and over the bench sweep in `crates/bench/tests/guard_pins.rs`, which
//! fixes the deep-unroll `subset_checks` exactly.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use domain::parallel::lock_recover;

use crate::state::{AbsState, SparseStack, REGS};
use crate::value::RegValue;

/// Default per-pc chain cap (the kernel caps its `explored_states`
/// lists the same way).
pub const DEFAULT_CAP: usize = 32;

/// Newest-first budget of full strict-inclusion probes per arrival:
/// candidates beyond it whose fingerprint already mismatched are skipped
/// outright. Newest entries are the likeliest covers (the most recent
/// trip or summary), so the budget is spent where pruning actually
/// fires.
const STRICT_PROBES: usize = 2;

/// Newest-first budget of dominance probes per insertion: how many
/// existing entries an insertion checks for being subsumed by the
/// newcomer. Widening chains grow monotonically, so the predecessor a
/// new summary dominates is always the newest entry.
const DOMINANCE_PROBES: usize = 2;

/// Strict-probe budget of the liveness-masked probe path
/// ([`VisitedTable::is_covered_masked`]): zero. Checkpoint cleaning
/// (`AbsState::clear_dead`) sets every dead component to its top, so
/// states that differ only in dead components *fingerprint equally* and
/// take the fingerprint-match probe; a mismatch means the live parts
/// genuinely differ, and spending deep probes on those rarely prunes.
const MASKED_STRICT_PROBES: usize = 0;

/// A table's pruning ledger — the `AnalysisStats` fields it feeds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Ledger {
    pub(crate) subset_checks: u64,
    pub(crate) states_pruned: u64,
    pub(crate) fingerprint_rejects: u64,
    pub(crate) visited_evicted: u64,
    pub(crate) masked_prunes: u64,
}

impl Ledger {
    /// Counts a prune established outside the table — the explorer's
    /// loop-head summary covering an arrival without a chain probe — like
    /// one inclusion probe that hit (the cover was established by one
    /// inclusion-shaped `flow_join`).
    fn note_summary_prune(&mut self) {
        self.subset_checks += 1;
        self.states_pruned += 1;
    }

    fn add(&mut self, other: Ledger) {
        self.subset_checks += other.subset_checks;
        self.states_pruned += other.states_pruned;
        self.fingerprint_rejects += other.fingerprint_rejects;
        self.visited_evicted += other.visited_evicted;
        self.masked_prunes += other.masked_prunes;
    }
}

/// One recorded exploration: the state (an `AbsState`, or the shared
/// table's snapshot) plus its cached fingerprint.
#[derive(Clone, Debug)]
struct Entry<S> {
    fp: u64,
    state: S,
}

/// How the chain policy tests a recorded state.
trait Recorded {
    /// Whether `state` is included in the recorded state.
    fn covers(&self, state: &AbsState) -> bool;
    /// Whether the recorded state is included in `newer`.
    fn dominated_by(&self, newer: &Self) -> bool;
}

impl Recorded for AbsState {
    fn covers(&self, state: &AbsState) -> bool {
        state.is_subset_of(self)
    }

    fn dominated_by(&self, newer: &AbsState) -> bool {
        self.is_subset_of(newer)
    }
}

/// The chain probe: newest first, a full inclusion check for every
/// fingerprint match and for the first `STRICT_PROBES` (masked:
/// `MASKED_STRICT_PROBES`) mismatches, an O(1) reject for the rest.
/// Returns the covering entry, if any.
fn probe<'c, S: Recorded>(
    chain: &'c [Entry<S>],
    state: &AbsState,
    masked: bool,
    ledger: &mut Ledger,
) -> Option<&'c S> {
    let fp = state.fingerprint();
    let mut strict_left = if masked {
        MASKED_STRICT_PROBES
    } else {
        STRICT_PROBES
    };
    for seen in chain.iter().rev() {
        if seen.fp != fp {
            if strict_left == 0 {
                ledger.fingerprint_rejects += 1;
                continue;
            }
            strict_left -= 1;
        }
        ledger.subset_checks += 1;
        if seen.state.covers(state) {
            ledger.states_pruned += 1;
            ledger.masked_prunes += u64::from(masked);
            return Some(&seen.state);
        }
    }
    None
}

/// The chain insert: dominance eviction over the newest
/// `DOMINANCE_PROBES` entries, then oldest-first eviction down to
/// `cap`, then the append.
fn record<S: Recorded>(
    chain: &mut Vec<Entry<S>>,
    entry: Entry<S>,
    cap: usize,
    ledger: &mut Ledger,
) {
    let lo = chain.len().saturating_sub(DOMINANCE_PROBES);
    for i in (lo..chain.len()).rev() {
        ledger.subset_checks += 1;
        if chain[i].state.dominated_by(&entry.state) {
            chain.remove(i);
            ledger.visited_evicted += 1;
        }
    }
    while chain.len() >= cap {
        chain.remove(0);
        ledger.visited_evicted += 1;
    }
    chain.push(entry);
}

/// Per-instruction chains of already-explored abstract states, with
/// fingerprint-gated inclusion pruning ([`VisitedTable::is_covered`]),
/// dominance and oldest-first eviction, and the counters behind
/// [`crate::AnalysisStats`].
///
/// Entries are only recorded at *checkpoints* chosen by the explorer
/// (loop heads and control-flow merge points — where paths can actually
/// re-converge); straight-line instructions are never probed.
#[derive(Clone, Debug, Default)]
pub struct VisitedTable {
    buckets: Vec<Vec<Entry<AbsState>>>,
    cap: usize,
    ledger: Ledger,
}

impl VisitedTable {
    /// An empty table for a program of `len` instructions, with the
    /// default per-pc chain cap ([`DEFAULT_CAP`]).
    #[must_use]
    pub fn new(len: usize) -> VisitedTable {
        VisitedTable::with_cap(len, DEFAULT_CAP)
    }

    /// An empty table with an explicit per-pc chain cap; `cap == 0`
    /// means unbounded chains (no capacity eviction).
    #[must_use]
    pub fn with_cap(len: usize, cap: usize) -> VisitedTable {
        VisitedTable {
            buckets: vec![Vec::new(); len],
            cap: NonZeroUsize::new(cap).map_or(usize::MAX, NonZeroUsize::get),
            ledger: Ledger::default(),
        }
    }

    /// Whether `state` is included in an already-recorded state at `pc`
    /// — if so, exploring it can prove nothing new and the caller should
    /// prune the path (counted in [`VisitedTable::states_pruned`]).
    ///
    /// Newest entries are probed first: in a loop the most recent trip's
    /// state is the likeliest cover for a re-converging path. Candidates
    /// whose fingerprint matches get a full inclusion probe wherever
    /// they sit in the chain; mismatched candidates (provably unequal)
    /// get one only within a small newest-first budget (two probes) and
    /// are otherwise dismissed in O(1).
    pub fn is_covered(&mut self, pc: usize, state: &AbsState) -> bool {
        probe(&self.buckets[pc], state, false, &mut self.ledger).is_some()
    }

    /// [`VisitedTable::is_covered`] for liveness-*cleaned* arrivals:
    /// identical semantics, but the strict-probe budget drops to zero —
    /// after `AbsState::clear_dead` has set every dead component to its
    /// top, arrivals that differ only in dead components already land
    /// on the fingerprint-match path, so deep probes on mismatched
    /// fingerprints buy almost nothing. Prunes through this path are
    /// additionally counted in [`VisitedTable::masked_prunes`] (the
    /// `live_masked_prunes` stat).
    pub fn is_covered_masked(&mut self, pc: usize, state: &AbsState) -> bool {
        probe(&self.buckets[pc], state, true, &mut self.ledger).is_some()
    }

    /// Records `state` as fully explored at `pc`, so later arrivals it
    /// covers are pruned.
    ///
    /// Insertion performs **dominance eviction** — the newest two
    /// entries are dropped if the newcomer includes them (their pruning
    /// power is subsumed) — and then enforces the chain cap by evicting
    /// the oldest entry.
    pub fn insert(&mut self, pc: usize, state: AbsState) {
        let entry = Entry {
            fp: state.fingerprint(),
            state,
        };
        record(&mut self.buckets[pc], entry, self.cap, &mut self.ledger);
    }

    /// Notes a prune that happened outside the table — the explorer's
    /// loop-head summary covering an arrival without a chain probe — so
    /// the `states_pruned`/`subset_checks` ledger stays complete (the
    /// cover was established by one inclusion-shaped `flow_join`).
    pub fn note_summary_prune(&mut self) {
        self.ledger.note_summary_prune();
    }

    /// The surviving states recorded at `pc`, oldest first.
    ///
    /// This is *insertion order minus evictions*: dominance eviction and
    /// the chain cap may have removed entries anywhere in (respectively
    /// the newest and oldest end of) the chain, so consecutive returned
    /// states need not be consecutive insertions.
    pub fn entries(&self, pc: usize) -> impl ExactSizeIterator<Item = &AbsState> {
        self.buckets[pc].iter().map(|e| &e.state)
    }

    /// Total number of states recorded across all instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buckets.iter().map(Vec::len).sum()
    }

    /// Whether no state has been recorded yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buckets.iter().all(Vec::is_empty)
    }

    /// Full inclusion probes performed so far (covering probes plus
    /// dominance-eviction probes).
    #[must_use]
    pub fn subset_checks(&self) -> u64 {
        self.ledger.subset_checks
    }

    /// Arrivals pruned as covered so far.
    #[must_use]
    pub fn states_pruned(&self) -> u64 {
        self.ledger.states_pruned
    }

    /// Probe candidates dismissed in O(1) on fingerprint mismatch
    /// without a full inclusion check.
    #[must_use]
    pub fn fingerprint_rejects(&self) -> u64 {
        self.ledger.fingerprint_rejects
    }

    /// Entries dropped from chains: dominated by a newer insertion, or
    /// displaced oldest-first by the chain cap.
    #[must_use]
    pub fn visited_evicted(&self) -> u64 {
        self.ledger.visited_evicted
    }

    /// Arrivals pruned through the liveness-masked probe path
    /// ([`VisitedTable::is_covered_masked`]) — a subset of
    /// [`VisitedTable::states_pruned`].
    #[must_use]
    pub fn masked_prunes(&self) -> u64 {
        self.ledger.masked_prunes
    }

    /// The whole pruning ledger.
    pub(crate) fn ledger(&self) -> Ledger {
        self.ledger
    }
}

/// How many lock stripes a [`ConcurrentVisitedTable`] spreads its per-pc
/// chains over (bounded by the program length): pc `i` lives in stripe
/// `i % stripes`, so the hot checkpoints of a loop — consecutive pcs —
/// land in *different* stripes and workers probing different program
/// points rarely contend.
const STRIPES: usize = 64;

/// A state recorded in the shared table: its dense
/// [`AbsState::to_parts`] snapshot. `AbsState` is `Rc`-backed and cannot
/// cross threads; its snapshot is plain `Send` data, and probes test
/// arrivals against it in place ([`AbsState::is_subset_of_parts`])
/// without ever rebuilding a state.
#[derive(Debug)]
struct Shared {
    regs: [RegValue; REGS],
    chunks: SparseStack,
    /// The worker that inserted the entry — prunes observed by a
    /// *different* worker count as cross-worker `shared_prunes`.
    worker: usize,
}

impl Recorded for Shared {
    fn covers(&self, state: &AbsState) -> bool {
        state.is_subset_of_parts(&self.regs, &self.chunks)
    }

    fn dominated_by(&self, newer: &Shared) -> bool {
        AbsState::parts_subset_of_parts((&self.regs, &self.chunks), (&newer.regs, &newer.chunks))
    }
}

/// One lock stripe: the chains of pcs `s, s + n, s + 2n, …` (`n` the
/// stripe count, chain index `pc / n`) and the ledger of every probe and
/// insert on them.
#[derive(Debug)]
struct Stripe {
    chains: Vec<Vec<Entry<Shared>>>,
    ledger: Ledger,
}

/// The concurrent sibling of [`VisitedTable`] for the work-stealing
/// path explorer (`verifier::parshard`): the same chain policy over
/// per-pc chains sharded into [`STRIPES`] mutex stripes, so a pruning
/// decision made on one worker is immediately visible to (and
/// byte-for-byte the same decision as on) every other worker.
///
/// States are stored as their dense `to_parts` snapshots, which keeps
/// the table `Send + Sync` while `AbsState` itself stays `Rc`-backed and
/// allocation-cheap inside each worker. Each stripe keeps its share of
/// the [`Ledger`] under its own lock; the table also counts cross-worker
/// [`ConcurrentVisitedTable::shared_prunes`].
#[derive(Debug)]
pub(crate) struct ConcurrentVisitedTable {
    stripes: Vec<Mutex<Stripe>>,
    cap: usize,
    shared_prunes: AtomicU64,
}

impl ConcurrentVisitedTable {
    /// An empty shared table for a program of `len` instructions with an
    /// explicit per-pc chain cap; `cap == 0` means unbounded chains,
    /// exactly as in [`VisitedTable::with_cap`].
    pub(crate) fn with_cap(len: usize, cap: usize) -> ConcurrentVisitedTable {
        let stripes = STRIPES.min(len.max(1));
        ConcurrentVisitedTable {
            stripes: (0..stripes)
                .map(|s| {
                    // Chains for pcs s, s + stripes, … — div_ceil many.
                    let chains = len.saturating_sub(s).div_ceil(stripes);
                    Mutex::new(Stripe {
                        chains: (0..chains).map(|_| Vec::new()).collect(),
                        ledger: Ledger::default(),
                    })
                })
                .collect(),
            cap: NonZeroUsize::new(cap).map_or(usize::MAX, NonZeroUsize::get),
            shared_prunes: AtomicU64::new(0),
        }
    }

    /// The locked stripe holding `pc`'s chain, and the chain's index in
    /// it. Poison recovery: a contained worker panic can only have left
    /// the stripe's chains structurally intact (entries are appended or
    /// removed whole under the lock), so siblings keep probing — at
    /// worst a prune opportunity is missing.
    fn stripe(&self, pc: usize) -> (MutexGuard<'_, Stripe>, usize) {
        let n = self.stripes.len();
        (lock_recover(&self.stripes[pc % n]), pc / n)
    }

    /// [`VisitedTable::is_covered`] (`masked`:
    /// [`VisitedTable::is_covered_masked`]) against the shared chains:
    /// whether `state` is included in a state *any* worker already
    /// recorded at `pc`. `worker` identifies the prober — a hit on an
    /// entry inserted by a different worker additionally counts as a
    /// [`ConcurrentVisitedTable::shared_prunes`] cross-worker prune.
    pub(crate) fn probe(&self, pc: usize, state: &AbsState, masked: bool, worker: usize) -> bool {
        let (mut stripe, i) = self.stripe(pc);
        // Fired while the stripe lock is held (see FaultSite docs).
        crate::failpoint::fire(crate::failpoint::FaultSite::VisitedProbe);
        let Stripe { chains, ledger } = &mut *stripe;
        let inserter = probe(&chains[i], state, masked, ledger).map(|e| e.worker);
        drop(stripe);
        if inserter.is_some_and(|w| w != worker) {
            self.shared_prunes.fetch_add(1, Ordering::Relaxed);
        }
        inserter.is_some()
    }

    /// [`VisitedTable::insert`], against the shared chains: records
    /// `state`'s snapshot at `pc` on behalf of `worker`.
    pub(crate) fn insert(&self, pc: usize, state: &AbsState, worker: usize) {
        let (regs, chunks) = state.to_parts();
        let entry = Entry {
            fp: state.fingerprint(),
            state: Shared {
                regs,
                chunks,
                worker,
            },
        };
        let (mut stripe, i) = self.stripe(pc);
        let Stripe { chains, ledger } = &mut *stripe;
        record(&mut chains[i], entry, self.cap, ledger);
    }

    /// [`VisitedTable::note_summary_prune`], for a worker's job-local
    /// summary at loop head `pc`.
    pub(crate) fn note_summary_prune(&self, pc: usize) {
        self.stripe(pc).0.ledger.note_summary_prune();
    }

    /// The pruning ledger summed over all stripes.
    pub(crate) fn ledger(&self) -> Ledger {
        let mut total = Ledger::default();
        for stripe in &self.stripes {
            total.add(lock_recover(stripe).ledger);
        }
        total
    }

    /// Cross-worker prunes: arrivals pruned by an entry a *different*
    /// worker inserted — the observable payoff of sharing the table
    /// instead of giving each worker a private one.
    pub(crate) fn shared_prunes(&self) -> u64 {
        self.shared_prunes.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::Scalar;
    use crate::value::RegValue;
    use ebpf::Reg;

    /// The sequential table's probe and ledger API on the shared table,
    /// so both tables read alike below.
    impl ConcurrentVisitedTable {
        fn is_covered(&self, pc: usize, state: &AbsState, worker: usize) -> bool {
            self.probe(pc, state, false, worker)
        }

        fn is_covered_masked(&self, pc: usize, state: &AbsState, worker: usize) -> bool {
            self.probe(pc, state, true, worker)
        }

        fn subset_checks(&self) -> u64 {
            self.ledger().subset_checks
        }

        fn states_pruned(&self) -> u64 {
            self.ledger().states_pruned
        }

        fn fingerprint_rejects(&self) -> u64 {
            self.ledger().fingerprint_rejects
        }

        fn visited_evicted(&self) -> u64 {
            self.ledger().visited_evicted
        }

        fn masked_prunes(&self) -> u64 {
            self.ledger().masked_prunes
        }
    }

    fn join(a: &AbsState, b: &AbsState) -> AbsState {
        let mut j = a.clone();
        j.flow_join(b, None);
        j
    }

    fn with_r3(c: u64) -> AbsState {
        let mut s = AbsState::entry();
        s.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(c)));
        s
    }

    #[test]
    fn covers_equal_and_included_states_only() {
        let mut table = VisitedTable::new(4);
        let a = with_r3(1);
        assert!(!table.is_covered(2, &a), "empty bucket covers nothing");
        table.insert(2, a.clone());
        // Identical state: covered (fingerprint match, one probe).
        assert!(table.is_covered(2, &a));
        // A strictly smaller state is covered too (strict-probe path:
        // its fingerprint differs from the recorded join's)…
        let joined = join(&a, &with_r3(5));
        table.insert(2, joined);
        assert!(table.is_covered(2, &with_r3(5)));
        // …but a different pc is a different bucket…
        assert!(!table.is_covered(3, &a));
        // …and an incomparable state is not covered.
        assert!(!table.is_covered(2, &with_r3(9)));
        assert_eq!(table.states_pruned(), 2);
        assert!(table.subset_checks() >= table.states_pruned());
        assert!(!table.is_empty());
    }

    #[test]
    fn dominance_eviction_drops_subsumed_entries() {
        let mut table = VisitedTable::new(2);
        let a = with_r3(1);
        table.insert(1, a.clone());
        assert_eq!(table.entries(1).len(), 1);
        // The join subsumes `a`: inserting it evicts `a`, and anything
        // `a` covered is still covered by the survivor.
        let joined = join(&a, &with_r3(5));
        table.insert(1, joined);
        assert_eq!(table.entries(1).len(), 1, "dominated entry evicted");
        assert_eq!(table.visited_evicted(), 1);
        assert!(table.is_covered(1, &a), "survivor still covers");
        // An incomparable insertion evicts nothing.
        table.insert(1, with_r3(9));
        assert_eq!(table.entries(1).len(), 2);
        assert_eq!(table.visited_evicted(), 1);
    }

    #[test]
    fn chain_cap_evicts_oldest_first() {
        let mut table = VisitedTable::with_cap(1, 2);
        table.insert(0, with_r3(1));
        table.insert(0, with_r3(2));
        table.insert(0, with_r3(3)); // displaces with_r3(1)
        assert_eq!(table.entries(0).len(), 2);
        assert_eq!(table.visited_evicted(), 1);
        // The oldest entry is gone: its state no longer covers.
        assert!(!table.is_covered(0, &with_r3(1)));
        assert!(table.is_covered(0, &with_r3(3)), "newest survives");
        // cap == 0 means unbounded.
        let mut unbounded = VisitedTable::with_cap(1, 0);
        for k in 0..100 {
            unbounded.insert(0, with_r3(k));
        }
        assert_eq!(unbounded.entries(0).len(), 100);
        assert_eq!(unbounded.visited_evicted(), 0);
    }

    #[test]
    fn fingerprint_mismatches_skip_deep_probes_past_the_budget() {
        let mut table = VisitedTable::with_cap(1, 0);
        for k in 0..16 {
            table.insert(0, with_r3(100 + k));
        }
        let checks_before = table.subset_checks();
        // An incomparable arrival: every candidate's fingerprint
        // mismatches, so only the strict-probe budget runs deep checks
        // and the rest are O(1) rejects.
        assert!(!table.is_covered(0, &with_r3(7)));
        assert_eq!(table.subset_checks() - checks_before, 2);
        assert_eq!(table.fingerprint_rejects(), 14);
        // An arrival *equal* to the oldest entry is still found: the
        // fingerprint match forces the deep probe wherever it sits.
        assert!(table.is_covered(0, &with_r3(100)));
    }

    #[test]
    fn masked_probes_skip_every_mismatched_fingerprint() {
        let mut table = VisitedTable::with_cap(1, 0);
        for k in 0..16 {
            table.insert(0, with_r3(100 + k));
        }
        let checks_before = table.subset_checks();
        // Incomparable arrival: all fingerprints mismatch, and the
        // masked path spends no strict probes on them at all.
        assert!(!table.is_covered_masked(0, &with_r3(7)));
        assert_eq!(table.subset_checks(), checks_before, "no deep probes");
        assert_eq!(table.fingerprint_rejects(), 16);
        assert_eq!(table.masked_prunes(), 0);
        // The equality path is untouched: a fingerprint match forces
        // the deep probe wherever the entry sits in the chain.
        assert!(table.is_covered_masked(0, &with_r3(100)));
        assert_eq!(table.masked_prunes(), 1);
        assert_eq!(table.states_pruned(), 1);
    }

    #[test]
    fn flow_join_over_entries_covers_every_entry() {
        let mut table = VisitedTable::new(2);
        table.insert(1, with_r3(1));
        table.insert(1, with_r3(4));
        let entries: Vec<&AbsState> = table.entries(1).collect();
        assert_eq!((entries.len(), table.len()), (2, 2));
        let r3 = join(entries[0], entries[1])
            .reg(Reg::R3)
            .as_scalar()
            .unwrap();
        assert!(r3.contains(1) && r3.contains(4));
    }

    #[test]
    fn concurrent_table_matches_sequential_probe_semantics() {
        // The same insert/probe script against both tables must make the
        // same decisions and count the same ledger (the concurrent table
        // is a drop-in for one worker).
        let mut seq = VisitedTable::with_cap(4, 0);
        let par = ConcurrentVisitedTable::with_cap(4, 0);
        for k in 0..16 {
            seq.insert(0, with_r3(100 + k));
            par.insert(0, &with_r3(100 + k), 0);
        }
        // Incomparable arrival: strict budget + fingerprint rejects.
        assert!(!seq.is_covered(0, &with_r3(7)));
        assert!(!par.is_covered(0, &with_r3(7), 0));
        assert_eq!(seq.subset_checks(), par.subset_checks());
        assert_eq!(seq.fingerprint_rejects(), par.fingerprint_rejects());
        // Equality hit deep in the chain; a strictly smaller arrival hits
        // through the strict budget.
        assert!(par.is_covered(0, &with_r3(100), 0));
        let joined = join(&with_r3(1), &with_r3(5));
        seq.insert(1, joined.clone());
        par.insert(1, &joined, 0);
        assert!(par.is_covered(1, &with_r3(5), 0));
        assert_eq!(par.states_pruned(), 2);
        // Same-worker prunes are not "shared".
        assert_eq!(par.shared_prunes(), 0);
        // Masked probes spend no strict probes on mismatches.
        let before = par.subset_checks();
        assert!(!par.is_covered_masked(0, &with_r3(7), 0));
        assert_eq!(par.subset_checks(), before);
        assert_eq!(par.masked_prunes(), 0);
    }

    #[test]
    fn concurrent_table_counts_cross_worker_prunes() {
        let par = ConcurrentVisitedTable::with_cap(2, 0);
        par.insert(1, &with_r3(3), 0);
        // Worker 1 pruned by worker 0's entry: a shared prune.
        assert!(par.is_covered(1, &with_r3(3), 1));
        assert_eq!(par.shared_prunes(), 1);
        // Worker 0 pruned by its own entry: not shared.
        assert!(par.is_covered(1, &with_r3(3), 0));
        assert_eq!(par.shared_prunes(), 1);
        assert_eq!(par.states_pruned(), 2);
    }

    #[test]
    fn concurrent_table_dominance_eviction_and_chain_cap() {
        // Dominance: a covering insertion evicts the newest entries it
        // subsumes, exactly as in the sequential table.
        let par = ConcurrentVisitedTable::with_cap(2, 0);
        par.insert(1, &with_r3(1), 0);
        let joined = join(&with_r3(1), &with_r3(5));
        par.insert(1, &joined, 0);
        assert_eq!(par.visited_evicted(), 1);
        assert!(par.is_covered(1, &with_r3(1), 0), "survivor still covers");
        // Chain cap: oldest-first displacement.
        let capped = ConcurrentVisitedTable::with_cap(1, 2);
        capped.insert(0, &with_r3(1), 0);
        capped.insert(0, &with_r3(2), 0);
        capped.insert(0, &with_r3(3), 0);
        assert_eq!(capped.visited_evicted(), 1);
        assert!(!capped.is_covered(0, &with_r3(1), 0), "oldest evicted");
        assert!(capped.is_covered(0, &with_r3(3), 0), "newest survives");
    }

    #[test]
    fn concurrent_table_stripes_cover_every_pc() {
        // More pcs than stripes: every pc must map to its own chain.
        let par = ConcurrentVisitedTable::with_cap(200, 0);
        for pc in 0..200 {
            par.insert(pc, &with_r3(pc as u64), 0);
        }
        for pc in 0..200 {
            assert!(par.is_covered(pc, &with_r3(pc as u64), 0), "pc {pc}");
            assert!(!par.is_covered(pc, &with_r3(pc as u64 + 1000), 0));
        }
    }

    #[test]
    fn concurrent_table_probes_spilled_stack_snapshots() {
        use crate::state::StackSlot;
        // A state with a spilled slot: the snapshot keeps the chunk
        // dense, and probes compare slotwise (Uninit covers everything,
        // a spill covers only included spills).
        let mut spilled = AbsState::entry();
        spilled.set_stack_slot(-8, StackSlot::Spill(RegValue::Scalar(Scalar::constant(9))));
        let par = ConcurrentVisitedTable::with_cap(1, 0);
        par.insert(0, &spilled, 0);
        assert!(par.is_covered(0, &spilled, 0), "equal spill covers");
        // The entry (all-Uninit stack = ⊤) covers the spilled arrival…
        let entry = AbsState::entry();
        par.insert(0, &entry, 0);
        assert!(par.is_covered(0, &spilled, 0));
        // …but the spilled entry does not cover an all-Uninit arrival
        // (Uninit only fits under Uninit): probe a fresh table.
        let only_spill = ConcurrentVisitedTable::with_cap(1, 0);
        only_spill.insert(0, &spilled, 0);
        assert!(!only_spill.is_covered(0, &entry, 0));
    }
}
