//! The per-program-point abstract machine state: registers and stack,
//! with **copy-on-write structural sharing**, **chunked stack frames**,
//! and **incrementally maintained structural fingerprints**.
//!
//! The kernel's verifier goes to great lengths to share and prune
//! `bpf_verifier_state` rather than copy it; this module does the same
//! for the exploration engines, in three layers:
//!
//! * **Sharing.** An [`AbsState`] is two [`Rc`]-backed components — the
//!   11-register file and the stack frame — so cloning a state is two
//!   reference-count bumps. The `Rc` identity doubles as change
//!   tracking: a component that was never written keeps its pointer,
//!   letting [`AbsState::is_subset_of`] and [`AbsState::flow_join`]
//!   short-circuit whole components on `Rc::ptr_eq` before falling into
//!   pointwise lattice operations.
//! * **Chunking.** The 64-slot stack frame is not one array but
//!   [`STACK_CHUNKS`] independently-`Rc`'d chunks of [`CHUNK_SLOTS`]
//!   slots behind a small shared spine, so a single spill materializes
//!   one ~0.5 KiB chunk (plus the pointer spine) instead of the whole
//!   4 KiB frame, and joins/inclusions short-circuit chunk by chunk.
//!   The copied volume is tracked as the `bytes_materialized` counter.
//! * **Fingerprints.** Every component carries a 64-bit structural
//!   fingerprint — SplitMix64-mixed, position-salted summaries of its
//!   values, XOR-combined so register and slot writes update it in
//!   O(1). Equal states always have equal fingerprints
//!   ([`AbsState::fingerprint`]), so an equality probe can reject in
//!   O(1) on fingerprint mismatch before falling back to the pointwise
//!   comparison; [`crate::VisitedTable`] indexes its pruning chains by
//!   exactly this fingerprint.
//! * **Write stamps.** Every register and stack slot also carries a
//!   64-bit stamp, drawn fresh — unique across the whole process — each
//!   time a value is written, and copied unchanged by copy-on-write
//!   materialization. So **equal stamps ⟹ equal values**, even between
//!   components that no longer share a pointer: two states forked from
//!   one ancestor keep the stamps of every position neither path wrote.
//!   [`AbsState::flow_join`] (with or without widening),
//!   [`AbsState::is_subset_of`] and `==` skip a position whose stamps
//!   match before touching its value. The `Send` snapshots of
//!   `AbsState::to_parts` carry no stamps, so
//!   `AbsState::is_subset_of_parts` compares values throughout.
//!
//! Those properties are what make the path-sensitive exploration
//! strategy ([`crate::explore::PathSensitive`]) viable: forking a state
//! at every branch is O(1), and its kernel-style pruning probes
//! (`is_state_visited` via [`crate::VisitedTable`]) lean on the
//! fingerprint index and the [`AbsState::is_subset_of`] identity
//! short-circuits. The soundness of pruning rests on `is_subset_of`
//! implying concrete-state containment — locked in by the property
//! suite in `tests/properties.rs`, which also pins the fingerprint
//! invariant (equal contents ⟹ equal fingerprint) and the
//! chunked-frame equivalence with whole-frame semantics.
//!
//! The loop-head merge ([`AbsState::flow_join`]) also owns **per-register
//! widening stabilization** ([`JoinCounters`]): each register and stack
//! slot burns its *own* widening delay, so an accumulator that keeps
//! changing no longer spends the precise joins a bounded counter needed.
//!
//! Sharing traffic is counted in the crate's thread-local counter block
//! (`crate::tally`); an exploration's `AnalysisStats` take what it
//! gained during the run.

use core::fmt;
use std::cell::Cell;
use std::rc::Rc;

use ebpf::{Reg, STACK_SIZE};
use interval_domain::WidenThresholds;

use crate::scalar::Scalar;
use crate::tally;
use crate::value::RegValue;

/// Number of 8-byte stack slots tracked (512 / 8 = 64).
pub(crate) const SLOTS: usize = (STACK_SIZE / 8) as usize;

/// Number of architectural registers tracked (r0–r10).
pub(crate) const REGS: usize = 11;

/// Slots per copy-on-write stack chunk: the sharing granularity of the
/// frame. A spill materializes one chunk of this many slots, not the
/// whole frame.
pub const CHUNK_SLOTS: usize = 8;

/// Number of independently-`Rc`'d chunks the stack frame is split into.
pub const STACK_CHUNKS: usize = SLOTS / CHUNK_SLOTS;

/// The abstract contents of one 8-byte stack slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StackSlot {
    /// Never written on this path.
    Uninit,
    /// Written with bytes whose value is not tracked (partial or variable
    /// writes, or non-slot-aligned stores). Reads yield unknown scalars.
    Misc,
    /// An aligned 8-byte spill of a tracked value.
    Spill(RegValue),
}

impl StackSlot {
    /// The shared shape of [`StackSlot::union`] and [`StackSlot::widen`]:
    /// agreeing spills merge their values with `f`, and any disagreement
    /// invalidates the slot ([`StackSlot::Misc`] for incompatible
    /// initialized contents, [`StackSlot::Uninit`] when one path never
    /// wrote it).
    fn merge(self, other: StackSlot, f: impl Fn(RegValue, RegValue) -> RegValue) -> StackSlot {
        match (self, other) {
            (StackSlot::Uninit, _) | (_, StackSlot::Uninit) => StackSlot::Uninit,
            (StackSlot::Spill(a), StackSlot::Spill(b)) => match f(a, b) {
                RegValue::Uninit => StackSlot::Misc,
                v => StackSlot::Spill(v),
            },
            _ => StackSlot::Misc,
        }
    }

    /// Join of slot states at merge points.
    #[must_use]
    pub fn union(self, other: StackSlot) -> StackSlot {
        self.merge(other, RegValue::union)
    }

    /// [`StackSlot::union`] without the reduction of spilled scalars.
    fn raw_union(self, other: StackSlot) -> StackSlot {
        self.merge(other, RegValue::raw_union)
    }

    /// Widening of slot states at a loop head: spills widen their tracked
    /// values; disagreement invalidates the slot exactly as in the join.
    #[must_use]
    pub fn widen(self, newer: StackSlot) -> StackSlot {
        self.merge(newer, RegValue::widen)
    }

    /// Whether reading this slot is allowed.
    #[must_use]
    pub fn is_initialized(self) -> bool {
        !matches!(self, StackSlot::Uninit)
    }

    /// Slot inclusion for state-inclusion checks: everything is included
    /// in [`StackSlot::Uninit`] (the top of the safety order — it only
    /// forbids reads), initialized slots are included in
    /// [`StackSlot::Misc`], and spills compare their tracked values.
    #[must_use]
    pub fn is_subset_of(self, other: StackSlot) -> bool {
        match (self, other) {
            (_, StackSlot::Uninit) => true,
            (StackSlot::Spill(x), StackSlot::Spill(y)) => x.is_subset_of(y),
            (StackSlot::Misc | StackSlot::Spill(_), StackSlot::Misc) => true,
            // Misc is not included in a tracked spill.
            (StackSlot::Uninit, _) | (StackSlot::Misc, StackSlot::Spill(_)) => false,
        }
    }
}

// ---------------------------------------------------------------------
// Fingerprinting
// ---------------------------------------------------------------------

/// The SplitMix64 output mixer (Steele, Lea & Flood, OOPSLA 2014): three
/// xor-shift-multiply rounds, the same finalizer `domain::rng` uses.
/// All structural fingerprints are built from it.
pub(crate) const fn mix(z: u64) -> u64 {
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The SplitMix64 increment (golden-ratio constant), used to derive
/// position salts.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// The position salt folded into a value hash before mixing: makes the
/// XOR-combined component fingerprint sensitive to *where* a value sits,
/// with `domain` separating registers, slots, and the chunk spine.
const fn pos_salt(domain: u64, index: usize) -> u64 {
    mix(domain ^ (index as u64 + 1).wrapping_mul(PHI))
}

/// Hash of a scalar's full representation (tnum and both bound pairs).
/// Two equal scalars always hash equally (the hash reads exactly the
/// fields `PartialEq` compares). A multiply-fold — each field scaled by
/// its own odd constant, one final mix — keeps the per-write cost of
/// incremental fingerprint maintenance to a handful of multiplies;
/// collisions only cost a confirming pointwise probe, never soundness.
fn hash_scalar(s: Scalar) -> u64 {
    let h = s.tnum().value().wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ s.tnum().mask().wrapping_mul(0xbf58_476d_1ce4_e5b9)
        ^ s.bounds().umin().wrapping_mul(0x94d0_49bb_1331_11eb)
        ^ s.bounds().umax().wrapping_mul(0x2545_f491_4f6c_dd1d)
        ^ (s.bounds().smin() as u64).wrapping_mul(0xd6e8_feb8_6659_fd93)
        ^ (s.bounds().smax() as u64).wrapping_mul(0xa076_1d64_78bd_642f);
    mix(h)
}

/// The pointwise lattice interface shared by the two state component
/// types, letting the generic [`Cells`] store, the joins, and the flows
/// merge the register file and the stack chunks through one code path.
trait Component: Copy + PartialEq {
    /// Fingerprint domain separating this component type's hashes.
    const DOMAIN: u64;
    fn union(self, other: Self) -> Self;
    /// `union` with the carried scalars joined but not reduced.
    fn raw_union(self, other: Self) -> Self;
    /// Whether every carried scalar is reduced.
    fn is_reduced(self) -> bool;
    /// The value with every carried scalar reduced.
    fn reduced(self) -> Self;
    fn is_subset_of(self, other: Self) -> bool;
    /// `union`'s kind rules, with the carried scalars merged by `f`.
    fn merge_scalars(self, other: Self, f: impl Fn(Scalar, Scalar) -> Scalar) -> Self;
    /// Equality-respecting content hash: `a == b ⟹ hash(a) == hash(b)`.
    fn content_hash(self) -> u64;
}

impl Component for RegValue {
    const DOMAIN: u64 = 0x5249_4c45_5f52_4547; // "RILE_REG"

    fn union(self, other: Self) -> Self {
        RegValue::union(self, other)
    }
    fn raw_union(self, other: Self) -> Self {
        RegValue::raw_union(self, other)
    }
    fn is_reduced(self) -> bool {
        RegValue::is_reduced(self)
    }
    fn reduced(self) -> Self {
        RegValue::reduced(self)
    }
    fn is_subset_of(self, other: Self) -> bool {
        RegValue::is_subset_of(self, other)
    }
    fn merge_scalars(self, other: Self, f: impl Fn(Scalar, Scalar) -> Scalar) -> Self {
        RegValue::merge(self, other, f)
    }
    fn content_hash(self) -> u64 {
        match self {
            RegValue::Uninit => 0x1,
            RegValue::Scalar(s) => mix(hash_scalar(s) ^ 0x2),
            RegValue::StackPtr { offset } => mix(hash_scalar(offset) ^ 0x3),
            RegValue::CtxPtr { offset } => mix(hash_scalar(offset) ^ 0x4),
            RegValue::MapHandle { map } => mix(u64::from(map) ^ 0x5),
            RegValue::MapValuePtr {
                map,
                or_null,
                offset,
            } => mix(hash_scalar(offset) ^ mix(u64::from(map) << 1 | u64::from(or_null)) ^ 0x6),
        }
    }
}

impl Component for StackSlot {
    const DOMAIN: u64 = 0x4652_414d_455f_534c; // "FRAME_SL"

    fn union(self, other: Self) -> Self {
        StackSlot::union(self, other)
    }
    fn raw_union(self, other: Self) -> Self {
        StackSlot::raw_union(self, other)
    }
    fn is_reduced(self) -> bool {
        match self {
            StackSlot::Spill(v) => v.is_reduced(),
            StackSlot::Uninit | StackSlot::Misc => true,
        }
    }
    fn reduced(self) -> Self {
        match self {
            StackSlot::Spill(v) => StackSlot::Spill(v.reduced()),
            StackSlot::Uninit | StackSlot::Misc => self,
        }
    }
    fn is_subset_of(self, other: Self) -> bool {
        StackSlot::is_subset_of(self, other)
    }
    fn merge_scalars(self, other: Self, f: impl Fn(Scalar, Scalar) -> Scalar) -> Self {
        self.merge(other, |a, b| a.merge(b, &f))
    }
    fn content_hash(self) -> u64 {
        match self {
            StackSlot::Uninit => 0x10,
            StackSlot::Misc => 0x20,
            StackSlot::Spill(v) => mix(v.content_hash() ^ 0x30),
        }
    }
}

/// Process-unique write stamps: every value written into a [`Cells`]
/// position gets a stamp no other write — on any thread, in any
/// analysis — ever draws. Each thread hands stamps out of a private
/// block it takes from a global counter, so a draw is a thread-local
/// bump; the counter is never reset (2^64 stamps do not run out).
mod stamp {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Stamps a thread takes from the global counter at a time.
    const BLOCK: u64 = 1 << 16;

    static NEXT_BLOCK: AtomicU64 = AtomicU64::new(0);

    thread_local! {
        /// This thread's next stamp. A multiple of [`BLOCK`] means the
        /// current block is used up (or none was taken yet).
        static NEXT: Cell<u64> = const { Cell::new(0) };
    }

    /// A stamp no earlier draw returned.
    pub(super) fn fresh() -> u64 {
        NEXT.with(|next| {
            let mut stamp = next.get();
            if stamp % BLOCK == 0 {
                // A new block, minus its first stamp, the used-up marker.
                // `Relaxed` suffices: the counter publishes no other
                // data, and `fetch_add` alone makes the blocks disjoint.
                stamp = NEXT_BLOCK.fetch_add(BLOCK, Ordering::Relaxed) + 1;
            }
            next.set(stamp + 1);
            stamp
        })
    }
}

/// One fingerprinted, write-stamped array of components — the
/// representation of both the register file and each stack chunk.
///
/// `fp` is the XOR over all positions of the position-salted value hash;
/// the per-position hashes are cached in `hashes`, so a write re-hashes
/// only the *new* value and folds the cached old hash out of `fp` in
/// O(1). `stamps` holds each position's write stamp: [`Cells::new`] and
/// [`Cells::set`] are the only writers and draw a fresh process-unique
/// stamp per written position, while copy-on-write materialization
/// copies values and stamps together. Hence **equal stamps ⟹ equal
/// values**, at any positions of any two cells of one type, which lets
/// the joins and inclusion tests skip a position whose stamps match
/// before touching the values.
#[derive(Clone, Debug)]
struct Cells<T, const N: usize> {
    fp: u64,
    hashes: [u64; N],
    stamps: [u64; N],
    vals: [T; N],
    /// Positions whose value is known to be reduced: a memo of
    /// [`Component::is_reduced`] for the report accumulator, which asks
    /// about every value it folds. A value reaches the reports of every
    /// pc it lives through in the same cells (or a copy-on-write copy),
    /// so it is decided once; a write forgets its position.
    reduced: Cell<u32>,
}

impl<T: Component, const N: usize> Cells<T, N> {
    fn new(vals: [T; N]) -> Cells<T, N> {
        let mut hashes = [0u64; N];
        let mut fp = 0;
        for (i, v) in vals.iter().enumerate() {
            hashes[i] = mix(v.content_hash() ^ pos_salt(T::DOMAIN, i));
            fp ^= hashes[i];
        }
        Cells {
            fp,
            hashes,
            stamps: std::array::from_fn(|_| stamp::fresh()),
            vals,
            reduced: Cell::new(0),
        }
    }

    /// Writes position `i` under a fresh stamp, updating the fingerprint
    /// in O(1).
    fn set(&mut self, i: usize, v: T) {
        let new = mix(v.content_hash() ^ pos_salt(T::DOMAIN, i));
        self.fp ^= self.hashes[i] ^ new;
        self.hashes[i] = new;
        self.stamps[i] = stamp::fresh();
        self.vals[i] = v;
        self.reduced.set(self.reduced.get() & !(1 << i));
    }

    /// Whether the value at position `i` is reduced, memoized.
    fn is_reduced_at(&self, i: usize) -> bool {
        let bit = 1 << i;
        if self.reduced.get() & bit != 0 {
            return true;
        }
        let reduced = self.vals[i].is_reduced();
        if reduced {
            self.reduced.set(self.reduced.get() | bit);
        }
        reduced
    }

    /// Pointwise equality, skipping positions whose stamps match.
    fn vals_eq(&self, other: &Cells<T, N>) -> bool {
        (0..N).all(|i| self.stamps[i] == other.stamps[i] || self.vals[i] == other.vals[i])
    }

    /// Pointwise inclusion, skipping positions whose stamps match.
    fn vals_subset_of(&self, other: &Cells<T, N>) -> bool {
        (0..N)
            .all(|i| self.stamps[i] == other.stamps[i] || self.vals[i].is_subset_of(other.vals[i]))
    }

    #[cfg(test)]
    fn recomputed_fp(&self) -> u64 {
        Cells::new(self.vals).fp
    }
}

/// The register file: eleven fingerprinted registers.
type RegFile = Cells<RegValue, REGS>;

/// One stack chunk: [`CHUNK_SLOTS`] fingerprinted slots. The chunk
/// fingerprint is over chunk-*local* positions, so chunks with equal
/// contents are interchangeable (and the all-`Uninit` chunk is shared
/// across all eight positions of a fresh frame); the frame spine mixes
/// the chunk's position in when combining.
type Chunk = Cells<StackSlot, CHUNK_SLOTS>;

/// The `Send` sparse stack snapshot produced by [`AbsState::to_parts`]:
/// one boxed dense chunk per frame position, or `None` where the chunk
/// is entirely [`StackSlot::Uninit`] (untouched or liveness-cleaned).
pub(crate) type SparseStack = [Option<Box<[StackSlot; CHUNK_SLOTS]>>; STACK_CHUNKS];

/// The stack frame spine: [`STACK_CHUNKS`] `Rc`'d chunks plus the
/// XOR-combined, position-mixed frame fingerprint.
#[derive(Clone, Debug)]
struct Frame {
    fp: u64,
    chunks: [Rc<Chunk>; STACK_CHUNKS],
}

/// The fingerprint domain of the chunk spine's position mixing.
const FRAME_DOMAIN: u64 = 0x4652_414d_455f_4650; // "FRAME_FP"

/// One chunk's position-mixed contribution to the frame fingerprint.
const fn chunk_contrib(c: usize, chunk_fp: u64) -> u64 {
    mix(chunk_fp ^ pos_salt(FRAME_DOMAIN, c))
}

impl Frame {
    fn compute_fp(chunks: &[Rc<Chunk>; STACK_CHUNKS]) -> u64 {
        let mut fp = 0;
        for (c, chunk) in chunks.iter().enumerate() {
            fp ^= chunk_contrib(c, chunk.fp);
        }
        fp
    }

    fn from_chunks(chunks: [Rc<Chunk>; STACK_CHUNKS]) -> Frame {
        Frame {
            fp: Frame::compute_fp(&chunks),
            chunks,
        }
    }

    /// The slot at flat index `i`.
    fn slot(&self, i: usize) -> StackSlot {
        self.chunks[i / CHUNK_SLOTS].vals[i % CHUNK_SLOTS]
    }

    /// Writes the slot at flat index `i`, materializing only its chunk
    /// and keeping the frame fingerprint incremental.
    fn set_slot(&mut self, i: usize, v: StackSlot) {
        let (c, j) = (i / CHUNK_SLOTS, i % CHUNK_SLOTS);
        if self.chunks[c].vals[j] == v {
            return;
        }
        let old = chunk_contrib(c, self.chunks[c].fp);
        cells_mut(&mut self.chunks[c]).set(j, v);
        self.fp ^= old ^ chunk_contrib(c, self.chunks[c].fp);
    }
}

thread_local! {
    /// The all-uninitialized frame every analysis starts from: eight
    /// positions sharing *one* empty chunk allocation. Cached so
    /// `AbsState::entry` is two refcount bumps, not nine allocations.
    static EMPTY_FRAME: Rc<Frame> = {
        let empty_chunk = Rc::new(Chunk::new([StackSlot::Uninit; CHUNK_SLOTS]));
        let chunks = std::array::from_fn(|_| Rc::clone(&empty_chunk));
        Rc::new(Frame::from_chunks(chunks))
    };
}

/// Mutable access to a fingerprinted component (register file or stack
/// chunk), materializing — and counting in `states_allocated` — a
/// private copy if it is currently shared. The single copy-on-write
/// fault path: every component materialization in this module goes
/// through here so the `states_allocated` accounting the counter pins
/// check cannot drift between call sites.
fn cells_mut<T: Component, const N: usize>(rc: &mut Rc<Cells<T, N>>) -> &mut Cells<T, N> {
    if Rc::strong_count(rc) > 1 {
        tally::bump_allocated(size_of::<Cells<T, N>>());
    }
    Rc::make_mut(rc)
}

/// Per-component changing-join counters at one loop head, driving
/// **per-register delayed widening**.
///
/// The engine of PR 2 kept one counter per loop head: any changing join
/// burned the shared `widen_delay`, so a still-growing accumulator (or a
/// second back-edge) could exhaust the delay a bounded counter needed to
/// reach its exit-test fixpoint, widening the counter to a threshold and
/// losing the bounds proof. Here every register and every stack slot
/// counts its *own* changing joins and is widened only once it has
/// individually absorbed `widen_delay` of them — stable components are
/// never penalized for their neighbours' churn.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JoinCounters {
    regs: [u32; REGS],
    slots: [u32; SLOTS],
}

impl JoinCounters {
    /// Fresh counters: no changing joins seen yet.
    #[must_use]
    pub fn new() -> JoinCounters {
        JoinCounters {
            regs: [0; REGS],
            slots: [0; SLOTS],
        }
    }

    /// The number of changing joins register `reg` has absorbed.
    #[must_use]
    pub fn reg_joins(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }
}

impl Default for JoinCounters {
    fn default() -> JoinCounters {
        JoinCounters::new()
    }
}

/// The widening context of a loop-head merge: the head's per-component
/// counters, the configured delay, and the harvested interval thresholds.
pub struct WidenCtx<'a> {
    /// Per-register / per-slot changing-join counters of this loop head.
    pub counters: &'a mut JoinCounters,
    /// How many changing joins each component absorbs exactly before its
    /// own widening kicks in.
    pub delay: u32,
    /// Program-derived extra thresholds for the interval ladders.
    pub thresholds: &'a WidenThresholds,
    /// Whether a widened scalar's tnum half jumps ([`Scalar::widen_with`])
    /// or joins ([`Scalar::widen_bounds_with`]). The fixpoint jumps: its
    /// narrowing pass re-derives the report from the widened heads. The
    /// path walk's summaries are its report, so they join.
    pub(crate) tnum_jump: bool,
}

/// A [`WidenCtx`] without its counters: what one loop-head merge widens
/// each component that exhausted its delay with.
#[derive(Clone, Copy)]
struct Widening<'a> {
    delay: u32,
    thresholds: &'a WidenThresholds,
    tnum_jump: bool,
}

impl Widening<'_> {
    /// `cur ∇ grown` for one register or stack slot.
    fn widen<T: Component>(self, cur: T, grown: T) -> T {
        let thresholds = self.thresholds;
        if self.tnum_jump {
            cur.merge_scalars(grown, |a, b| a.widen_with(b, thresholds))
        } else {
            cur.merge_scalars(grown, |a, b| a.widen_bounds_with(b, thresholds))
        }
    }
}

/// Abstract machine state at one program point: the eleven registers plus
/// the 64 stack slots (as [`STACK_CHUNKS`] copy-on-write chunks), both
/// behind [`Rc`]s, with a structural [`fingerprint`](AbsState::fingerprint)
/// maintained on every write.
///
/// # Examples
///
/// ```
/// use verifier::{AbsState, RegValue};
/// use ebpf::Reg;
///
/// let state = AbsState::entry();
/// assert!(matches!(state.reg(Reg::R1), RegValue::CtxPtr { .. }));
/// assert!(matches!(state.reg(Reg::R10), RegValue::StackPtr { .. }));
/// assert!(matches!(state.reg(Reg::R0), RegValue::Uninit));
///
/// // Clones share storage until written.
/// let mut copy = state.clone();
/// copy.set_reg(Reg::R0, RegValue::unknown_scalar());
/// assert!(matches!(state.reg(Reg::R0), RegValue::Uninit));
/// // The fingerprint tracks the divergence in O(1).
/// assert_ne!(state.fingerprint(), copy.fingerprint());
/// ```
pub struct AbsState {
    regs: Rc<RegFile>,
    stack: Rc<Frame>,
}

impl Clone for AbsState {
    /// O(1): bumps the two component refcounts. The deep copy happens
    /// lazily, only for the component (or stack chunk) a later write
    /// actually touches.
    fn clone(&self) -> AbsState {
        tally::bump_shared();
        AbsState {
            regs: Rc::clone(&self.regs),
            stack: Rc::clone(&self.stack),
        }
    }
}

impl PartialEq for AbsState {
    fn eq(&self, other: &AbsState) -> bool {
        // Fingerprint mismatch proves inequality in O(1); a match still
        // needs the pointwise confirmation (hashes can collide).
        if self.fingerprint() != other.fingerprint() {
            return false;
        }
        let regs_eq = Rc::ptr_eq(&self.regs, &other.regs) || self.regs.vals_eq(&other.regs);
        regs_eq
            && (Rc::ptr_eq(&self.stack, &other.stack)
                || self
                    .stack
                    .chunks
                    .iter()
                    .zip(other.stack.chunks.iter())
                    .all(|(a, b)| Rc::ptr_eq(a, b) || a.vals_eq(b)))
    }
}

impl Eq for AbsState {}

impl AbsState {
    /// The state on program entry: `r1` points at the context, `r2` holds
    /// the (unknown) context length, `r10` is the frame pointer, and
    /// everything else — registers and stack — is uninitialized.
    #[must_use]
    pub fn entry() -> AbsState {
        let mut regs = [RegValue::Uninit; REGS];
        regs[Reg::R1.index()] = RegValue::CtxPtr {
            offset: Scalar::constant(0),
        };
        regs[Reg::R2.index()] = RegValue::unknown_scalar();
        regs[Reg::R10.index()] = RegValue::StackPtr {
            offset: Scalar::constant(0),
        };
        tally::bump_allocated(size_of::<RegFile>());
        AbsState {
            regs: Rc::new(Cells::new(regs)),
            stack: EMPTY_FRAME.with(Rc::clone),
        }
    }

    /// The 64-bit structural fingerprint of this state: a pure function
    /// of the register and slot contents, maintained incrementally on
    /// every write. **Equal states always have equal fingerprints**, so
    /// a fingerprint mismatch rejects an equality probe in O(1); the
    /// converse does not hold (hashes can collide), so a match must be
    /// confirmed pointwise.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.regs.fp ^ self.stack.fp
    }

    /// Mutable access to the register file, materializing a private copy
    /// if it is currently shared.
    fn regs_mut(&mut self) -> &mut RegFile {
        cells_mut(&mut self.regs)
    }

    /// Mutable access to the stack spine, materializing a private copy
    /// (pointer array only — the chunks stay shared) if needed.
    fn frame_mut(&mut self) -> &mut Frame {
        frame_spine_mut(&mut self.stack)
    }

    /// Reduces every unreduced value in place — values of widened
    /// loop-head states are left unreduced on purpose — materializing
    /// only the register file and the stack chunks that hold one. The
    /// concretization is unchanged.
    pub(crate) fn reduce(&mut self) {
        for i in 0..REGS {
            if !self.regs.is_reduced_at(i) {
                let v = self.regs.vals[i].reduced();
                self.regs_mut().set(i, v);
            }
        }
        for i in 0..SLOTS {
            if !self.stack.chunks[i / CHUNK_SLOTS].is_reduced_at(i % CHUNK_SLOTS) {
                let v = Component::reduced(self.stack.slot(i));
                self.frame_mut().set_slot(i, v);
            }
        }
    }

    /// The abstract value of a register.
    #[must_use]
    pub fn reg(&self, reg: Reg) -> RegValue {
        self.regs.vals[reg.index()]
    }

    /// Replaces the abstract value of a register.
    pub fn set_reg(&mut self, reg: Reg, value: RegValue) {
        // No-op writes (common for `mov` round-trips and re-deriving the
        // same refinement) keep the file shared.
        if self.regs.vals[reg.index()] != value {
            self.regs_mut().set(reg.index(), value);
        }
    }

    /// The abstract content of the 8-byte slot covering stack offset
    /// `offset` (negative, relative to the top of the stack).
    ///
    /// Returns `None` when the offset is outside the frame.
    #[must_use]
    pub fn stack_slot(&self, offset: i64) -> Option<StackSlot> {
        Some(self.stack.slot(slot_index(offset)?))
    }

    /// Overwrites the slot covering `offset`, materializing only the
    /// ~0.5 KiB chunk holding it (plus the pointer spine), never the
    /// whole frame.
    ///
    /// Returns `false` (and does nothing) when the offset is outside the
    /// frame.
    pub fn set_stack_slot(&mut self, offset: i64, slot: StackSlot) -> bool {
        match slot_index(offset) {
            Some(i) => {
                if self.stack.slot(i) != slot {
                    self.frame_mut().set_slot(i, slot);
                }
                true
            }
            None => false,
        }
    }

    /// Marks every slot intersecting `[start, end)` (stack-relative byte
    /// offsets) as [`StackSlot::Misc`]: the effect of a write whose exact
    /// location or value is not tracked.
    pub fn smear_stack(&mut self, start: i64, end: i64) {
        let slots = || (align_down(start)..end).step_by(8).filter_map(slot_index);
        // Decide before materializing: an all-Misc range keeps sharing.
        if slots().all(|i| self.stack.slot(i) == StackSlot::Misc) {
            return;
        }
        let frame = self.frame_mut();
        for i in slots() {
            frame.set_slot(i, StackSlot::Misc);
        }
    }

    /// Sets every register and stack slot *outside* the live masks to
    /// its uninitialized top (`RegValue::Uninit` / `StackSlot::Uninit`)
    /// — the kernel's `clean_verifier_state`. A cleaned component is
    /// covered by anything in inclusion probes and hashes as a fixed
    /// salt in the fingerprint, so states that differed only in dead
    /// components become equal and prune each other.
    ///
    /// Register bits follow `Reg::index()` (`live_regs` bit `i` keeps
    /// `r{i}`); slot bits follow the frame's slot indices. Components
    /// already at top are left untouched (no materialization), so
    /// cleaning an already-clean state is free and preserves sharing.
    ///
    /// Returns the number of components actually cleared.
    pub fn clear_dead(&mut self, live_regs: u16, live_slots: u64) -> u32 {
        let mut cleared = 0;
        for r in Reg::ALL {
            if live_regs & (1 << r.index()) == 0 && self.regs.vals[r.index()] != RegValue::Uninit {
                self.regs_mut().set(r.index(), RegValue::Uninit);
                cleared += 1;
            }
        }
        // Walk only the dead slot bits, chunk by chunk; a chunk still
        // shared with the empty frame is all-`Uninit` already.
        let dead = !live_slots;
        if dead != 0 {
            let empty = EMPTY_FRAME.with(|f| Rc::as_ptr(&f.chunks[0]));
            for c in 0..STACK_CHUNKS {
                let mut bits = (dead >> (c * CHUNK_SLOTS)) & ((1 << CHUNK_SLOTS) - 1);
                if bits == 0 || std::ptr::eq(Rc::as_ptr(&self.stack.chunks[c]), empty) {
                    continue;
                }
                while bits != 0 {
                    let i = c * CHUNK_SLOTS + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    if self.stack.slot(i) != StackSlot::Uninit {
                        self.frame_mut().set_slot(i, StackSlot::Uninit);
                        cleared += 1;
                    }
                }
            }
        }
        cleared
    }

    /// Whether every byte of `[start, end)` has been initialized.
    #[must_use]
    pub fn stack_range_initialized(&self, start: i64, end: i64) -> bool {
        if start >= end {
            return true;
        }
        (align_down(start)..end)
            .step_by(8)
            .all(|off| slot_index(off).is_some_and(|i| self.stack.slot(i).is_initialized()))
    }

    /// Merges `incoming` into `self` in place — the join the fixpoint
    /// engine performs when an edge flows into an instruction that
    /// already has a state — and reports whether `self` actually grew.
    ///
    /// At a loop head (`widen` is `Some`), each register and stack slot
    /// first absorbs [`WidenCtx::delay`] *of its own* changing joins
    /// exactly; every later one widens that component
    /// (`cur ∇ (cur ⊔ incoming)`), extrapolating through the built-in
    /// and harvested interval thresholds while components that already
    /// stabilized are left untouched. Components (and chunks) equal by
    /// `Rc` identity short-circuit without any pointwise work.
    pub fn flow_join(&mut self, incoming: &AbsState, widen: Option<WidenCtx<'_>>) -> bool {
        // Split the widening context into per-component halves so each
        // array flows with its own counters.
        let (regs_widen, stack_widen) = match widen {
            Some(WidenCtx {
                counters,
                delay,
                thresholds,
                tnum_jump,
            }) => {
                let widening = Widening {
                    delay,
                    thresholds,
                    tnum_jump,
                };
                let JoinCounters { regs, slots } = counters;
                (
                    Some((&mut regs[..], widening)),
                    Some((&mut slots[..], widening)),
                )
            }
            None => (None, None),
        };
        let regs_changed = flow_cells(&mut self.regs, &incoming.regs, regs_widen);
        let stack_changed = flow_frame(&mut self.stack, &incoming.stack, stack_widen);
        regs_changed || stack_changed
    }

    /// The join of `states`, or `None` for none: equal to folding them
    /// left to right with [`AbsState::flow_join`], computed the way the
    /// path walk builds its per-pc report — raw joins per arrival and
    /// one reduction per changed position at the end (see
    /// [`crate::explore::PathSensitive`]). Components no later state
    /// changes stay shared with the first.
    pub fn join_all<'a>(states: impl IntoIterator<Item = &'a AbsState>) -> Option<AbsState> {
        let mut states = states.into_iter();
        let mut report = ReportAcc::new(states.next()?.clone());
        for state in states {
            report.absorb(state);
        }
        Some(report.finish())
    }

    /// Pointwise widening `self ∇ newer` (kept for completeness and the
    /// domain-law tests; the engine itself widens through
    /// [`AbsState::flow_join`], which applies ∇ per component).
    #[must_use]
    pub fn widen(&self, newer: &AbsState) -> AbsState {
        let mut out = self.clone();
        let mut counters = JoinCounters::new();
        out.flow_join(
            newer,
            Some(WidenCtx {
                counters: &mut counters,
                delay: 0,
                thresholds: &WidenThresholds::EMPTY,
                tnum_jump: true,
            }),
        );
        out
    }

    /// Pointwise abstract-order test (state inclusion), with whole
    /// components — and individual stack chunks — short-circuited on
    /// `Rc` identity, and single registers and slots on equal write
    /// stamps.
    #[must_use]
    pub fn is_subset_of(&self, other: &AbsState) -> bool {
        let regs_ok = Rc::ptr_eq(&self.regs, &other.regs) || self.regs.vals_subset_of(&other.regs);
        if !regs_ok {
            return false;
        }
        Rc::ptr_eq(&self.stack, &other.stack)
            || self
                .stack
                .chunks
                .iter()
                .zip(other.stack.chunks.iter())
                .all(|(a, b)| Rc::ptr_eq(a, b) || a.vals_subset_of(b))
    }

    /// Whether the two states share their register file (used by tests
    /// and stats reporting; `true` implies equal register values).
    #[must_use]
    pub fn shares_regs_with(&self, other: &AbsState) -> bool {
        Rc::ptr_eq(&self.regs, &other.regs)
    }

    /// Whether the two states share their stack frame spine.
    #[must_use]
    pub fn shares_stack_with(&self, other: &AbsState) -> bool {
        Rc::ptr_eq(&self.stack, &other.stack)
    }

    /// How many of the [`STACK_CHUNKS`] stack chunks the two states share
    /// by pointer — the observable grain of chunked copy-on-write (a
    /// single spill leaves `STACK_CHUNKS - 1` chunks shared).
    #[must_use]
    pub fn shared_stack_chunks(&self, other: &AbsState) -> usize {
        self.stack
            .chunks
            .iter()
            .zip(other.stack.chunks.iter())
            .filter(|(a, b)| Rc::ptr_eq(a, b))
            .count()
    }

    /// Flattens the state into the register file plus **sparse**
    /// per-chunk stack snapshots — plain `Copy` data behind `Box`es with
    /// no `Rc`s, so the result is `Send` and can cross the
    /// program-granular thread boundary of `verifier::batch`. Chunks
    /// that are entirely [`StackSlot::Uninit`] — untouched chunks, and
    /// chunks the liveness pass cleaned to ⊤ — snapshot as `None`
    /// instead of eight dense slots, so a mostly-dead frame crosses the
    /// thread boundary as eight `None`s.
    pub(crate) fn to_parts(&self) -> ([RegValue; REGS], SparseStack) {
        let chunks = std::array::from_fn(|c| {
            let chunk = &self.stack.chunks[c];
            if chunk.vals.iter().all(|s| *s == StackSlot::Uninit) {
                None
            } else {
                Some(Box::new(chunk.vals))
            }
        });
        (self.regs.vals, chunks)
    }

    /// Rebuilds a state from the sparse arrays of
    /// [`to_parts`](AbsState::to_parts) on the receiving thread. Every
    /// `None` chunk maps to *one* shared all-`Uninit` chunk allocation
    /// (the same the empty frame uses), so rebuilt mostly-dead frames
    /// stay as cheap as freshly-forked ones. Fingerprints are
    /// recomputed from the contents — chunk fingerprints are
    /// position-independent, so the shared empty chunk fingerprints
    /// identically to a dense all-`Uninit` one and a round-trip
    /// preserves both equality and [`AbsState::fingerprint`].
    pub(crate) fn from_parts(regs: [RegValue; REGS], chunks: SparseStack) -> AbsState {
        let empty = EMPTY_FRAME.with(|f| Rc::clone(&f.chunks[0]));
        let chunks: [Rc<Chunk>; STACK_CHUNKS] = std::array::from_fn(|c| match &chunks[c] {
            Some(vals) => Rc::new(Chunk::new(**vals)),
            None => Rc::clone(&empty),
        });
        AbsState {
            regs: Rc::new(Cells::new(regs)),
            stack: Rc::new(Frame::from_chunks(chunks)),
        }
    }

    /// Pointwise inclusion of this state in a
    /// [`to_parts`](AbsState::to_parts) snapshot, without rebuilding the
    /// snapshot into a state. This is the probe of the concurrent
    /// visited table: snapshots are `Send` where `AbsState` is not, so
    /// the shared table stores parts and in-flight frontier states test
    /// against them in place. A `None` snapshot chunk is all-`Uninit` —
    /// the ⊤ of the slot safety order — and therefore covers any
    /// arrival chunk.
    pub(crate) fn is_subset_of_parts(&self, regs: &[RegValue; REGS], chunks: &SparseStack) -> bool {
        if !(0..REGS).all(|i| self.regs.vals[i].is_subset_of(regs[i])) {
            return false;
        }
        self.stack
            .chunks
            .iter()
            .zip(chunks.iter())
            .all(|(mine, snap)| match snap {
                // All-Uninit covers everything slotwise.
                None => true,
                Some(vals) => mine
                    .vals
                    .iter()
                    .zip(vals.iter())
                    .all(|(x, y)| x.is_subset_of(*y)),
            })
    }

    /// Pointwise inclusion between two [`to_parts`](AbsState::to_parts)
    /// snapshots — the dominance-eviction test of the concurrent visited
    /// table (is the *stored* snapshot covered by the arriving one?),
    /// again without rebuilding either side. `None` chunks are
    /// all-`Uninit`: they cover everything and are covered only by
    /// chunks whose slots are all `Uninit`-or-covering — i.e. by `None`
    /// (or a dense all-`Uninit` chunk).
    pub(crate) fn parts_subset_of_parts(
        a: (&[RegValue; REGS], &SparseStack),
        b: (&[RegValue; REGS], &SparseStack),
    ) -> bool {
        if !(0..REGS).all(|i| a.0[i].is_subset_of(b.0[i])) {
            return false;
        }
        a.1.iter().zip(b.1.iter()).all(|(x, y)| match (x, y) {
            (_, None) => true,
            (None, Some(vals)) => vals.iter().all(|s| StackSlot::Uninit.is_subset_of(*s)),
            (Some(xs), Some(ys)) => xs.iter().zip(ys.iter()).all(|(p, q)| p.is_subset_of(*q)),
        })
    }
}

/// The 64-bit structural fingerprint of one abstract register value — a
/// pure function of the value's contents (two equal values always
/// fingerprint equally), built from the same SplitMix64 mixing as
/// [`AbsState::fingerprint`] but *without* position salting, so the same
/// value fingerprints identically wherever (and in whichever program) it
/// appears. This is the stable per-value key the fingerprint-keyed
/// transfer memo cache ([`crate::memo::TransferMemo`]) shards on; as with
/// the state fingerprint, collisions are possible and any consumer must
/// confirm equality pointwise before trusting a match.
#[must_use]
pub fn value_fingerprint(v: RegValue) -> u64 {
    v.content_hash()
}

/// In-place flow of `inc` into `dst` with optional per-index delayed
/// widening — the shared half of [`AbsState::flow_join`]. Returns
/// whether `dst` grew; materializes `dst` only on the first real change.
///
/// `widen` carries the counter slice for exactly this array's indices
/// (the register counters, or one chunk's slice of the slot counters).
fn flow_cells<T: Component, const N: usize>(
    dst: &mut Rc<Cells<T, N>>,
    inc: &Rc<Cells<T, N>>,
    mut widen: Option<(&mut [u32], Widening<'_>)>,
) -> bool {
    if Rc::ptr_eq(dst, inc) {
        tally::bump_short_circuited();
        return false;
    }
    let mut changed = false;
    for i in 0..N {
        // Equal stamps are equal values: nothing can flow.
        if dst.stamps[i] == inc.stamps[i] {
            continue;
        }
        let cur = dst.vals[i];
        let incoming = inc.vals[i];
        if incoming == cur || incoming.is_subset_of(cur) {
            continue;
        }
        let grown = cur.union(incoming);
        let next = match &mut widen {
            Some((counters, widening)) => {
                let joins = &mut counters[i];
                let next = if *joins >= widening.delay {
                    tally::bump_widenings();
                    widening.widen(cur, grown)
                } else {
                    grown
                };
                *joins = joins.saturating_add(1);
                next
            }
            None => grown,
        };
        // The join re-normalizes, which may canonicalize without
        // enlarging; only a real change re-fires the successor.
        if next != cur {
            cells_mut(dst).set(i, next);
            changed = true;
        }
    }
    changed
}

/// Mutable access to a frame spine behind an `Rc`, materializing a
/// private copy if shared. The spine is only the chunk pointer array
/// (the chunks themselves stay shared until they change), so the copy
/// is a few dozen bytes — counted in `bytes_materialized` but not as a
/// component allocation.
fn frame_spine_mut(rc: &mut Rc<Frame>) -> &mut Frame {
    if Rc::strong_count(rc) > 1 {
        tally::bump_bytes(size_of::<Frame>());
    }
    Rc::make_mut(rc)
}

/// The frame half of [`AbsState::flow_join`]: flows chunk by chunk, with
/// `Rc` identity short-circuits per chunk, slicing the slot counters to
/// each chunk's window. The spine is materialized up front once any
/// chunk pair differs by pointer — a deliberate trade against re-scanning
/// every chunk twice (the copy is the pointer array, a few dozen bytes,
/// even when the flow then turns out to change nothing).
fn flow_frame(
    dst: &mut Rc<Frame>,
    inc: &Rc<Frame>,
    mut widen: Option<(&mut [u32], Widening<'_>)>,
) -> bool {
    if Rc::ptr_eq(dst, inc) {
        tally::bump_short_circuited();
        return false;
    }
    // All chunks identical by pointer: nothing can flow.
    if dst
        .chunks
        .iter()
        .zip(inc.chunks.iter())
        .all(|(a, b)| Rc::ptr_eq(a, b))
    {
        tally::bump_short_circuited();
        return false;
    }
    let frame = frame_spine_mut(dst);
    let mut changed = false;
    for c in 0..STACK_CHUNKS {
        if Rc::ptr_eq(&frame.chunks[c], &inc.chunks[c]) {
            tally::bump_short_circuited();
            continue;
        }
        let chunk_widen = widen.as_mut().map(|(slots, widening)| {
            (
                &mut slots[c * CHUNK_SLOTS..(c + 1) * CHUNK_SLOTS],
                *widening,
            )
        });
        let old = chunk_contrib(c, frame.chunks[c].fp);
        if flow_cells(&mut frame.chunks[c], &inc.chunks[c], chunk_widen) {
            frame.fp ^= old ^ chunk_contrib(c, frame.chunks[c].fp);
            changed = true;
        }
    }
    changed
}

/// The per-pc report of the path walk: the join of every state that
/// arrived at one pc, folded with raw joins and reduced once, in
/// [`ReportAcc::finish`].
///
/// Folding the arrivals with [`AbsState::flow_join`] would pay a full
/// reduced-product join per changed register and slot per arrival: the
/// reduction (`Product::normalize`, the kernel's `reg_bounds_sync`), a
/// fingerprint update and a fresh write stamp. The report is read only
/// once the walk is over, so the accumulator keeps what it needs to
/// produce the same state then:
///
/// * the first arrival, as an `Rc` clone, whose components the result
///   reuses wherever nothing changed;
/// * dense values for the register file and for each stack chunk, copied
///   only once an arrival's write stamps there differ from the first
///   arrival's;
/// * per position, the stamp of an arrival known to change nothing, so a
///   value the fold already holds is skipped in O(1).
///
/// Reduced values fold by raw join: tnum join and interval hulls under
/// the kind rules of [`RegValue::union`] and [`StackSlot::union`], and
/// no reduction. For reduced scalars, folding `Product::union` equals
/// reducing the raw fold once (the join-then-reduce law, checked in
/// `product.rs`), so `finish` reduces each changed position once and
/// gets what the `flow_join` fold would hold. The law does not cover
/// unreduced values, and widened loop-head summaries are left unreduced
/// on purpose: a position that meets one takes that arrival as one
/// `flow_join` step, whose result is reduced, and folds raw again from
/// there. Whether a value is reduced is memoized per position in the
/// arrival's cells, so each written value is tested once.
pub(crate) struct ReportAcc {
    first: AbsState,
    regs: Option<Box<Folded<RegValue, REGS>>>,
    chunks: [Option<Box<Folded<StackSlot, CHUNK_SLOTS>>>; STACK_CHUNKS],
}

impl ReportAcc {
    /// A report holding only its first arrival.
    pub(crate) fn new(first: AbsState) -> ReportAcc {
        ReportAcc {
            first,
            regs: None,
            chunks: Default::default(),
        }
    }

    /// Joins one more arrival into the report.
    pub(crate) fn absorb(&mut self, arrival: &AbsState) {
        fold_cells(&mut self.regs, &self.first.regs, &arrival.regs);
        if Rc::ptr_eq(&self.first.stack, &arrival.stack) {
            return;
        }
        for (c, folded) in self.chunks.iter_mut().enumerate() {
            fold_cells(
                folded,
                &self.first.stack.chunks[c],
                &arrival.stack.chunks[c],
            );
        }
    }

    /// The joined state: the first arrival with every changed position
    /// written (reduced once), sharing every component that did not
    /// change.
    pub(crate) fn finish(self) -> AbsState {
        let ReportAcc {
            mut first,
            regs,
            chunks,
        } = self;
        if let Some(folded) = regs {
            for (i, v) in folded.changed() {
                if first.regs.vals[i] != v {
                    first.regs_mut().set(i, v);
                }
            }
        }
        for (c, folded) in chunks.iter().enumerate() {
            let Some(folded) = folded else { continue };
            for (j, v) in folded.changed() {
                let i = c * CHUNK_SLOTS + j;
                if first.stack.slot(i) != v {
                    first.frame_mut().set_slot(i, v);
                }
            }
        }
        first
    }
}

// Position sets of a `Folded` are `u32` bit masks.
const _: () = assert!(REGS <= 32 && CHUNK_SLOTS <= 32);

/// One array's share of a [`ReportAcc`] — the register file, or one
/// stack chunk — from the first arrival that differed there.
struct Folded<T, const N: usize> {
    /// Per position: a raw join of reduced values (`raw` positions), or
    /// the first arrival's unreduced value.
    vals: [T; N],
    /// Per position, the stamp of an arrival known to change nothing;
    /// 0, which no write draws, once there is none.
    skip: [u64; N],
    /// Positions whose first-arrival value has been classified.
    seen: u32,
    /// Positions holding a raw join of reduced values: the report holds
    /// its reduction.
    raw: u32,
    /// Positions whose raw join still includes the first arrival's
    /// (reduced) value, so that arrival's stamp changes nothing.
    first_in: u32,
    /// Positions whose value may differ from the first arrival's; all
    /// of them are `raw`.
    changed: u32,
}

impl<T: Component, const N: usize> Folded<T, N> {
    /// Whether an arrival's value at position `i`, written under stamp
    /// `s`, is known to change nothing there; `first_stamp` is the first
    /// arrival's stamp at `i`.
    fn skips(&self, i: usize, first_stamp: u64, s: u64) -> bool {
        s == self.skip[i] || (s == first_stamp && self.first_in & (1 << i) != 0)
    }

    /// Folds the arrival's value at position `i` into the report; `first`
    /// is the first arrival's array.
    fn absorb(&mut self, i: usize, first: &Cells<T, N>, arrival: &Cells<T, N>) {
        let bit = 1 << i;
        if self.seen & bit == 0 {
            self.seen |= bit;
            if first.is_reduced_at(i) {
                self.raw |= bit;
                self.first_in |= bit;
            }
        }
        let (v, s) = (arrival.vals[i], arrival.stamps[i]);
        let v_reduced = arrival.is_reduced_at(i);
        if self.raw & bit != 0 && v_reduced {
            // Re-folding a value the raw join already holds changes
            // nothing, by the join-then-reduce law.
            if !v.is_subset_of(self.vals[i]) {
                self.vals[i] = self.vals[i].raw_union(v);
                self.changed |= bit;
            }
            self.skip[i] = s;
            return;
        }
        // An unreduced value on either side (widened loop-head summaries
        // are left unreduced on purpose), which the law does not cover:
        // one `flow_join` step from the value the report holds.
        let cur = if self.raw & bit != 0 {
            self.vals[i].reduced()
        } else {
            self.vals[i]
        };
        if v == cur || v.is_subset_of(cur) {
            return;
        }
        // The union is reduced, so the position folds raw again from it.
        // The stamps skipped so far need not be included in it.
        self.vals[i] = cur.union(v);
        self.raw |= bit;
        self.first_in &= !bit;
        self.skip[i] = 0;
        self.changed |= bit;
    }

    /// The positions that may have changed, with their reported values.
    fn changed(&self) -> impl Iterator<Item = (usize, T)> + '_ {
        (0..N)
            .filter(|i| self.changed & (1 << i) != 0)
            .map(|i| (i, self.vals[i].reduced()))
    }
}

/// Folds one array of an arrival into its share of a [`ReportAcc`],
/// copying the first arrival's values only once a stamp differs.
fn fold_cells<T: Component, const N: usize>(
    folded: &mut Option<Box<Folded<T, N>>>,
    first: &Rc<Cells<T, N>>,
    arrival: &Rc<Cells<T, N>>,
) {
    if Rc::ptr_eq(first, arrival) || (folded.is_none() && first.stamps == arrival.stamps) {
        return;
    }
    let folded = folded.get_or_insert_with(|| {
        Box::new(Folded {
            vals: first.vals,
            skip: first.stamps,
            seen: 0,
            raw: 0,
            first_in: 0,
            changed: 0,
        })
    });
    for i in 0..N {
        if !folded.skips(i, first.stamps[i], arrival.stamps[i]) {
            folded.absorb(i, first, arrival);
        }
    }
}

/// Maps a stack-relative byte offset (negative) to its slot index.
fn slot_index(offset: i64) -> Option<usize> {
    if (-(STACK_SIZE as i64)..0).contains(&offset) {
        Some(((offset + STACK_SIZE as i64) / 8) as usize)
    } else {
        None
    }
}

fn align_down(off: i64) -> i64 {
    off & !7
}

impl fmt::Debug for AbsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "AbsState {{")?;
        for r in Reg::ALL {
            if self.regs.vals[r.index()] != RegValue::Uninit {
                writeln!(f, "  {r}: {}", self.regs.vals[r.index()])?;
            }
        }
        let written = (0..SLOTS)
            .filter(|&i| self.stack.slot(i).is_initialized())
            .count();
        writeln!(f, "  stack: {written}/{SLOTS} slots written")?;
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domain::rng::SplitMix64;

    #[test]
    fn slot_index_covers_frame() {
        assert_eq!(slot_index(-512), Some(0));
        assert_eq!(slot_index(-8), Some(63));
        assert_eq!(slot_index(-1), Some(63));
        assert_eq!(slot_index(-505), Some(0));
        assert_eq!(slot_index(0), None);
        assert_eq!(slot_index(-513), None);
    }

    #[test]
    fn entry_state_matches_abi() {
        let s = AbsState::entry();
        assert!(matches!(s.reg(Reg::R1), RegValue::CtxPtr { .. }));
        assert!(s.reg(Reg::R2).as_scalar().is_some());
        assert!(matches!(s.reg(Reg::R10), RegValue::StackPtr { .. }));
        for r in [Reg::R0, Reg::R3, Reg::R6, Reg::R9] {
            assert_eq!(s.reg(r), RegValue::Uninit);
        }
        assert_eq!(s.stack_slot(-8), Some(StackSlot::Uninit));
    }

    #[test]
    fn clones_share_until_written() {
        let base = AbsState::entry();
        let mut copy = base.clone();
        assert!(base.shares_regs_with(&copy) && base.shares_stack_with(&copy));
        // Writing a register materializes only the register file…
        copy.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(9)));
        assert!(!base.shares_regs_with(&copy));
        assert!(base.shares_stack_with(&copy), "stack still shared");
        // …and the original is unaffected.
        assert_eq!(base.reg(Reg::R3), RegValue::Uninit);
        // A stack write materializes the spine and exactly one chunk.
        copy.set_stack_slot(-8, StackSlot::Misc);
        assert!(!base.shares_stack_with(&copy));
        assert_eq!(base.stack_slot(-8), Some(StackSlot::Uninit));
        assert_eq!(
            base.shared_stack_chunks(&copy),
            STACK_CHUNKS - 1,
            "one chunk materialized, the rest stay shared"
        );
        // No-op writes keep sharing.
        let mut noop = base.clone();
        noop.set_reg(Reg::R0, RegValue::Uninit);
        noop.set_stack_slot(-16, StackSlot::Uninit);
        assert!(base.shares_regs_with(&noop) && base.shares_stack_with(&noop));
    }

    #[test]
    fn stack_write_read_round_trip() {
        let mut s = AbsState::entry();
        let v = RegValue::Scalar(Scalar::constant(77));
        assert!(s.set_stack_slot(-8, StackSlot::Spill(v)));
        assert_eq!(s.stack_slot(-8), Some(StackSlot::Spill(v)));
        // Out-of-frame writes are refused.
        assert!(!s.set_stack_slot(-520, StackSlot::Misc));
        assert!(!s.set_stack_slot(8, StackSlot::Misc));
    }

    #[test]
    fn smear_marks_touched_slots() {
        let mut s = AbsState::entry();
        s.smear_stack(-20, -10); // touches slots for offsets [-24, -10)
        assert_eq!(s.stack_slot(-17), Some(StackSlot::Misc));
        assert_eq!(s.stack_slot(-12), Some(StackSlot::Misc));
        assert_eq!(s.stack_slot(-30), Some(StackSlot::Uninit));
        assert!(s.stack_range_initialized(-20, -10));
        assert!(!s.stack_range_initialized(-32, -10));
    }

    #[test]
    fn join_of_slots() {
        let spill = StackSlot::Spill(RegValue::Scalar(Scalar::constant(1)));
        assert_eq!(spill.union(StackSlot::Uninit), StackSlot::Uninit);
        assert_eq!(spill.union(StackSlot::Misc), StackSlot::Misc);
        match spill.union(StackSlot::Spill(RegValue::Scalar(Scalar::constant(3)))) {
            StackSlot::Spill(RegValue::Scalar(s)) => {
                assert!(s.contains(1) && s.contains(3));
            }
            other => panic!("unexpected join {other:?}"),
        }
        // Spills of incompatible kinds degrade to Misc, not Uninit: the
        // bytes are initialized on both paths.
        let ptr = StackSlot::Spill(RegValue::StackPtr {
            offset: Scalar::constant(0),
        });
        assert_eq!(spill.union(ptr), StackSlot::Misc);
    }

    #[test]
    fn state_join_and_order() {
        let mut a = AbsState::entry();
        let mut b = AbsState::entry();
        a.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(1)));
        b.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(2)));
        let mut j = a.clone();
        j.flow_join(&b, None);
        assert!(a.is_subset_of(&j));
        assert!(b.is_subset_of(&j));
        let r3 = j.reg(Reg::R3).as_scalar().unwrap();
        assert!(r3.contains(1) && r3.contains(2));
        // The untouched stack is shared through the join, not copied.
        assert!(j.shares_stack_with(&a));
        // A state with an initialized slot is included in one without.
        let mut with_slot = AbsState::entry();
        with_slot.set_stack_slot(-8, StackSlot::Misc);
        assert!(with_slot.is_subset_of(&AbsState::entry()));
        assert!(!AbsState::entry().is_subset_of(&with_slot));
    }

    #[test]
    fn flow_join_is_per_component_and_reports_growth() {
        let mut head = AbsState::entry();
        head.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(0)));
        let mut incoming = head.clone();
        // Identical states: no growth, no materialization.
        assert!(!head.clone().flow_join(&incoming, None));
        incoming.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(1)));
        assert!(head.flow_join(&incoming, None));
        let r3 = head.reg(Reg::R3).as_scalar().unwrap();
        assert!(r3.contains(0) && r3.contains(1));
    }

    #[test]
    fn flow_join_into_a_shared_clone_materializes_nothing() {
        let mut entry = AbsState::entry();
        entry.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(7)));
        let mut j = entry.clone();
        let before = tally::read();
        assert!(!j.flow_join(&entry, None), "a state joined into itself");
        let traffic = tally::read() - before;
        assert_eq!((traffic.bytes, traffic.allocated), (0, 0));
        // The join literally shares the operand's components.
        assert!(j.shares_regs_with(&entry) && j.shares_stack_with(&entry));
    }

    #[test]
    fn fingerprint_is_incremental_and_content_pure() {
        // Same contents reached through different histories fingerprint
        // identically, and the incremental maintenance matches a from-
        // scratch recomputation.
        let mut a = AbsState::entry();
        a.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(7)));
        a.set_reg(Reg::R4, RegValue::Scalar(Scalar::constant(9)));
        a.set_stack_slot(-8, StackSlot::Misc);
        let mut b = AbsState::entry();
        b.set_stack_slot(-8, StackSlot::Misc);
        b.set_reg(Reg::R4, RegValue::Scalar(Scalar::constant(1)));
        b.set_reg(Reg::R4, RegValue::Scalar(Scalar::constant(9))); // overwrite
        b.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(7)));
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.regs.fp, a.regs.recomputed_fp());
        assert_eq!(a.stack.fp, Frame::compute_fp(&a.stack.chunks));
        for c in &a.stack.chunks {
            assert_eq!(c.fp, c.recomputed_fp());
        }
        // Divergence flips the fingerprint (and equality) in O(1).
        b.set_stack_slot(-16, StackSlot::Misc);
        assert_ne!(a.fingerprint(), b.fingerprint());
        assert_ne!(a, b);
    }

    #[test]
    fn generations_count_materializations() {
        let base = AbsState::entry();
        let before = tally::read();
        let allocated = || (tally::read() - before).allocated;
        let mut copy = base.clone();
        assert_eq!(allocated(), 0, "a clone shares");
        copy.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(1)));
        assert_eq!(allocated(), 1);
        copy.set_stack_slot(-8, StackSlot::Misc);
        assert_eq!(allocated(), 2, "one chunk, not the frame");
        // Writes into an already-private component do not count again.
        copy.set_reg(Reg::R4, RegValue::Scalar(Scalar::constant(2)));
        assert_eq!(allocated(), 2);
    }

    #[test]
    fn per_register_delay_widens_only_exhausted_components() {
        let th = WidenThresholds::EMPTY;
        let mut counters = JoinCounters::new();
        let mut head = AbsState::entry();
        head.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(0)));
        head.set_reg(Reg::R4, RegValue::Scalar(Scalar::constant(0)));
        // r4 churns for 3 rounds while r3 is stable; with delay 2, r4
        // widens on its 3rd changing join but r3's budget stays unburned.
        for k in 1..=3u64 {
            let mut inc = head.clone();
            inc.set_reg(Reg::R4, RegValue::Scalar(Scalar::constant(k)));
            head.flow_join(
                &inc,
                Some(WidenCtx {
                    counters: &mut counters,
                    delay: 2,
                    thresholds: &th,
                    tnum_jump: true,
                }),
            );
        }
        assert_eq!(counters.reg_joins(Reg::R4), 3);
        assert_eq!(counters.reg_joins(Reg::R3), 0, "stable reg burns nothing");
        let r4 = head.reg(Reg::R4).as_scalar().unwrap();
        assert!(r4.bounds().umax() >= 3, "r4 was widened or joined past 3");
        // Now r3 grows once: it still gets a precise join (its own
        // counter is below the delay) even though r4 exhausted its.
        let mut inc = head.clone();
        inc.set_reg(Reg::R3, RegValue::Scalar(Scalar::constant(1)));
        head.flow_join(
            &inc,
            Some(WidenCtx {
                counters: &mut counters,
                delay: 2,
                thresholds: &th,
                tnum_jump: true,
            }),
        );
        let r3 = head.reg(Reg::R3).as_scalar().unwrap();
        assert_eq!(
            (r3.bounds().umin(), r3.bounds().umax()),
            (0, 1),
            "precise join, not a widening jump"
        );
    }

    /// A small pool of register values, so equal values written under
    /// different stamps are common.
    fn random_value(rng: &mut SplitMix64) -> RegValue {
        match rng.below(6) {
            0 => RegValue::Uninit,
            1 => RegValue::unknown_scalar(),
            2 => RegValue::StackPtr {
                offset: Scalar::constant(rng.below(3).wrapping_neg()),
            },
            3 => RegValue::Scalar(Scalar::from_tnum(tnum::Tnum::masked(rng.below(4), 3))),
            _ => RegValue::Scalar(Scalar::constant(rng.below(4))),
        }
    }

    fn random_slot(rng: &mut SplitMix64) -> StackSlot {
        match rng.below(4) {
            0 => StackSlot::Uninit,
            1 => StackSlot::Misc,
            _ => StackSlot::Spill(random_value(rng)),
        }
    }

    /// The stamp-free view of a state: its register and slot values.
    fn values(s: &AbsState) -> ([RegValue; REGS], [StackSlot; SLOTS]) {
        (s.regs.vals, std::array::from_fn(|i| s.stack.slot(i)))
    }

    /// Pointwise reference of one array's half of `flow_join`, blind to
    /// stamps and `Rc` identity.
    fn reference_flow<T: Component>(
        cur: &mut [T],
        inc: &[T],
        mut widen: Option<(&mut [u32], u32)>,
    ) -> bool {
        let mut changed = false;
        for i in 0..cur.len() {
            if inc[i] == cur[i] || inc[i].is_subset_of(cur[i]) {
                continue;
            }
            let grown = cur[i].union(inc[i]);
            let next = match &mut widen {
                Some((counters, delay)) => {
                    let next = if counters[i] >= *delay {
                        cur[i].merge_scalars(grown, |a, b| a.widen_with(b, &WidenThresholds::EMPTY))
                    } else {
                        grown
                    };
                    counters[i] += 1;
                    next
                }
                None => grown,
            };
            if next != cur[i] {
                cur[i] = next;
                changed = true;
            }
        }
        changed
    }

    /// Flows `inc` into a copy of `dst` both ways — through the stamped
    /// state layer and through the reference — and checks that result,
    /// grew flag and widening counters agree. Returns the stamped result.
    fn checked_flow(
        dst: &AbsState,
        inc: &AbsState,
        widen: Option<(&JoinCounters, u32)>,
    ) -> (AbsState, Option<JoinCounters>) {
        let (mut want_regs, mut want_slots) = values(dst);
        let (inc_regs, inc_slots) = values(inc);
        let mut out = dst.clone();
        let (grew, want_grew, counters) = match widen {
            None => {
                let grew = out.flow_join(inc, None);
                let want = reference_flow(&mut want_regs, &inc_regs, None)
                    | reference_flow(&mut want_slots, &inc_slots, None);
                (grew, want, None)
            }
            Some((counters, delay)) => {
                let mut got = counters.clone();
                let grew = out.flow_join(
                    inc,
                    Some(WidenCtx {
                        counters: &mut got,
                        delay,
                        thresholds: &WidenThresholds::EMPTY,
                        tnum_jump: true,
                    }),
                );
                let mut want = counters.clone();
                let want_grew =
                    reference_flow(&mut want_regs, &inc_regs, Some((&mut want.regs, delay)))
                        | reference_flow(
                            &mut want_slots,
                            &inc_slots,
                            Some((&mut want.slots, delay)),
                        );
                assert_eq!(got, want, "widening counters diverge");
                (grew, want_grew, Some(got))
            }
        };
        assert_eq!(grew, want_grew, "flow_join grew flag diverges");
        assert_eq!(
            values(&out),
            (want_regs, want_slots),
            "flow_join result diverges"
        );
        (out, counters)
    }

    /// Every live cell's stamp maps to exactly one value.
    fn assert_stamps_determine_values(pool: &[AbsState]) {
        let mut regs = std::collections::HashMap::new();
        let mut slots = std::collections::HashMap::new();
        for s in pool {
            for (stamp, v) in s.regs.stamps.iter().zip(s.regs.vals) {
                assert_eq!(
                    *regs.entry(*stamp).or_insert(v),
                    v,
                    "register stamp {stamp} reused"
                );
            }
            for chunk in &s.stack.chunks {
                for (stamp, v) in chunk.stamps.iter().zip(chunk.vals) {
                    assert_eq!(
                        *slots.entry(*stamp).or_insert(v),
                        v,
                        "slot stamp {stamp} reused"
                    );
                }
            }
        }
    }

    #[test]
    fn stamp_fast_paths_match_stamp_free_reference() {
        // Random writes, smears, cleanings, clones and joins over a pool
        // of states that share components and stamps. After every step,
        // inclusion, equality and both flows of every ordered pair must
        // agree with the pointwise reference, and no stamp may label two
        // different values.
        const POOL: usize = 4;
        let mut rng = SplitMix64::new(0x57A4);
        for _ in 0..24 {
            let mut pool: Vec<AbsState> = (0..POOL).map(|_| AbsState::entry()).collect();
            let mut counters: Vec<JoinCounters> = (0..POOL).map(|_| JoinCounters::new()).collect();
            for _ in 0..48 {
                let a = rng.below(POOL as u64) as usize;
                let b = rng.below(POOL as u64) as usize;
                match rng.below(6) {
                    0 => {
                        let reg = Reg::ALL[rng.below(REGS as u64) as usize];
                        pool[a].set_reg(reg, random_value(&mut rng));
                    }
                    1 => {
                        let slot = random_slot(&mut rng);
                        let off = rng.below(SLOTS as u64) as i64 * 8 - 512;
                        pool[a].set_stack_slot(off, slot);
                    }
                    2 => {
                        let start = -(rng.range(1, 512) as i64);
                        pool[a].smear_stack(start, (start + rng.range(1, 40) as i64).min(0));
                    }
                    3 => {
                        // Mostly-live masks: about one dead bit in four.
                        let regs = (rng.next_u32() | rng.next_u32()) as u16;
                        let slots = rng.next_u64() | rng.next_u64();
                        pool[a].clear_dead(regs, slots);
                    }
                    4 => pool[a] = pool[b].clone(),
                    _ => {
                        let widen = rng.coin().then(|| (&counters[a], rng.below(3) as u32));
                        let (out, got) = checked_flow(&pool[a], &pool[b], widen);
                        pool[a] = out;
                        if let Some(got) = got {
                            counters[a] = got;
                        }
                    }
                }
                for x in &pool {
                    for y in &pool {
                        let (xr, xs) = values(x);
                        let (yr, ys) = values(y);
                        let subset = xr.iter().zip(yr).all(|(p, q)| p.is_subset_of(q))
                            && xs.iter().zip(ys).all(|(p, q)| p.is_subset_of(q));
                        assert_eq!(x.is_subset_of(y), subset, "inclusion diverges");
                        assert_eq!(x == y, (xr, xs) == (yr, ys), "equality diverges");
                        checked_flow(x, y, None);
                        checked_flow(x, y, Some((&JoinCounters::new(), 1)));
                    }
                }
                assert_stamps_determine_values(&pool);
            }
        }
    }

    #[test]
    fn slot_widening_flows_through_chunk_counters() {
        // A churning spill burns the *slot's* counter, not its chunk
        // neighbours': after `delay` changing joins the slot widens while
        // a stable slot in the same chunk keeps precise joins available.
        let th = WidenThresholds::EMPTY;
        let mut counters = JoinCounters::new();
        let mut head = AbsState::entry();
        head.set_stack_slot(-8, StackSlot::Spill(RegValue::Scalar(Scalar::constant(0))));
        for k in 1..=3u64 {
            let mut inc = head.clone();
            inc.set_stack_slot(-8, StackSlot::Spill(RegValue::Scalar(Scalar::constant(k))));
            head.flow_join(
                &inc,
                Some(WidenCtx {
                    counters: &mut counters,
                    delay: 2,
                    thresholds: &th,
                    tnum_jump: true,
                }),
            );
        }
        assert_eq!(counters.slots[63], 3, "slot -8 is flat index 63");
        assert_eq!(counters.slots[62], 0, "neighbour slot burns nothing");
        match head.stack_slot(-8).unwrap() {
            StackSlot::Spill(RegValue::Scalar(s)) => {
                assert!(s.bounds().umax() >= 3, "widened or joined past 3")
            }
            other => panic!("unexpected slot {other:?}"),
        }
    }

    /// A register value for the report-accumulator pool: every kind, and
    /// scalars that are reduced joins of small constants or unreduced
    /// widening outputs.
    fn report_value(rng: &mut SplitMix64) -> RegValue {
        let small = |rng: &mut SplitMix64| {
            let s = Scalar::constant(rng.below(6));
            if rng.coin() {
                s.union(Scalar::constant(rng.below(9)))
            } else {
                s
            }
        };
        match rng.below(10) {
            0 => RegValue::Uninit,
            1 => RegValue::unknown_scalar(),
            2 => RegValue::StackPtr {
                offset: small(rng).alu64(ebpf::AluOp::Sub, Scalar::constant(16)),
            },
            3 => RegValue::CtxPtr { offset: small(rng) },
            4 => RegValue::MapHandle {
                map: rng.below(2) as u32,
            },
            5 => RegValue::MapValuePtr {
                map: rng.below(2) as u32,
                or_null: rng.coin(),
                offset: small(rng),
            },
            6 | 7 => {
                // Widening leaves its output unreduced on purpose, with
                // the tnum half jumped (the fixpoint's heads) or joined
                // (the path walk's summaries).
                let (a, b) = (small(rng), small(rng));
                let th = &WidenThresholds::EMPTY;
                RegValue::Scalar(if rng.coin() {
                    a.widen_with(a.union(b), th)
                } else {
                    a.widen_bounds_with(a.union(b), th)
                })
            }
            8 => RegValue::Scalar(Scalar::raw(
                Scalar::constant(rng.below(4)).tnum(),
                Scalar::constant(0).union(Scalar::constant(100)).bounds(),
            )),
            _ => RegValue::Scalar(small(rng)),
        }
    }

    #[test]
    fn report_accumulator_matches_the_flow_join_fold() {
        // A pool of states forked from each other, so arrivals share
        // components and write stamps the way a walk's arrivals do, is
        // snapshotted after every write; each round folds a random
        // sequence of snapshots both ways and compares the results.
        let mut rng = SplitMix64::new(0x4E_9047);
        let mut unreduced = 0;
        for _ in 0..200 {
            let mut pool: Vec<AbsState> = vec![AbsState::entry(); 3];
            let mut history = Vec::new();
            for _ in 0..48 {
                let a = rng.below(3) as usize;
                match rng.below(6) {
                    0 | 1 => {
                        // Four registers take most writes, so arrivals
                        // fold several values at each.
                        let regs = if rng.coin() { 4 } else { REGS as u64 };
                        let reg = Reg::ALL[rng.below(regs) as usize];
                        pool[a].set_reg(reg, report_value(&mut rng));
                    }
                    2 => {
                        // Two chunks take most writes, so chunk stamps
                        // collide; any slot may be written.
                        let i = if rng.coin() {
                            rng.below(2 * CHUNK_SLOTS as u64)
                        } else {
                            rng.below(SLOTS as u64)
                        };
                        let slot = match rng.below(4) {
                            0 => StackSlot::Uninit,
                            1 => StackSlot::Misc,
                            _ => StackSlot::Spill(report_value(&mut rng)),
                        };
                        pool[a].set_stack_slot(i as i64 * 8 - 512, slot);
                    }
                    3 => {
                        let start = -(rng.range(1, 512) as i64);
                        pool[a].smear_stack(start, (start + rng.range(1, 24) as i64).min(0));
                    }
                    4 => {
                        // Liveness cleaning: one dead register, one dead
                        // chunk.
                        let dead_chunk = 0xFFu64 << (CHUNK_SLOTS * rng.below(2) as usize);
                        pool[a].clear_dead(!(1 << rng.below(10)), !dead_chunk);
                    }
                    _ => pool[a] = pool[rng.below(3) as usize].clone(),
                }
                history.push(pool[a].clone());
            }
            for _ in 0..8 {
                let arrivals: Vec<&AbsState> = (0..rng.range(2, 12))
                    .map(|_| &history[rng.below(history.len() as u64) as usize])
                    .collect();
                let got = AbsState::join_all(arrivals.iter().copied()).unwrap();
                let mut want = arrivals[0].clone();
                for &arrival in &arrivals[1..] {
                    want.flow_join(arrival, None);
                }
                assert_eq!(
                    values(&got),
                    values(&want),
                    "report diverges from flow_join"
                );
                assert_eq!(got.fingerprint(), want.fingerprint());
                assert_eq!(
                    got.shares_regs_with(arrivals[0]),
                    want.shares_regs_with(arrivals[0]),
                    "register file shared differently"
                );
                assert_eq!(
                    got.shared_stack_chunks(arrivals[0]),
                    want.shared_stack_chunks(arrivals[0]),
                    "stack chunks shared differently"
                );
                unreduced += arrivals
                    .iter()
                    .filter(|s| s.regs.vals.iter().any(|v| !v.is_reduced()))
                    .count();
            }
        }
        assert!(
            unreduced > 500,
            "only {unreduced} arrivals carry unreduced values"
        );
    }
}
