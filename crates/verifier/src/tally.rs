//! The crate's one thread-local counter block: the state layer's
//! copy-on-write traffic, the transfer memo's traffic and the
//! instruction visits, counted where they happen, so the state layer's
//! internals stay free of `&mut` counter threading.
//!
//! Nothing resets it. An exploration reads it when its plan is built
//! and again when it ends, and its `AnalysisStats` are the difference.
//! The batch engine reads the same difference around each worker, so
//! the work of rejected, panicked and re-run explorations stays in its
//! roll-up. The parallel path explorer folds each worker thread's
//! difference and its shared visit total into the coordinator's block
//! with one [`credit`].

use std::cell::Cell;
use std::ops::{Add, Sub};

/// One reading of the counter block (`T = u64`), or the difference of
/// two; the block itself is a `Tally<Cell<u64>>`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct Tally<T = u64> {
    /// Deep copies of a component (register file or stack chunk).
    pub(crate) allocated: T,
    /// O(1) `AbsState` clones (refcount bumps only).
    pub(crate) shared: T,
    /// Whole components (or chunks) resolved by pointer identity.
    pub(crate) short_circuited: T,
    /// Widening operator applications to individual components.
    pub(crate) widenings: T,
    /// Bytes copied by all materializations, including the chunk spine.
    pub(crate) bytes: T,
    /// Memo lookups served from a verified entry.
    pub(crate) memo_hits: T,
    /// Memo lookups that computed afresh.
    pub(crate) memo_misses: T,
    /// Memo entries displaced by the shard caps.
    pub(crate) memo_evicted: T,
    /// Instruction visits.
    pub(crate) visits: T,
}

impl<T> Tally<T> {
    fn fields(&self) -> [&T; 9] {
        [
            &self.allocated,
            &self.shared,
            &self.short_circuited,
            &self.widenings,
            &self.bytes,
            &self.memo_hits,
            &self.memo_misses,
            &self.memo_evicted,
            &self.visits,
        ]
    }
}

impl Tally {
    /// The reading whose `i`th field (in [`Tally::fields`] order) is
    /// `f(i)`.
    fn from_fn(f: impl FnMut(usize) -> u64) -> Tally {
        let [allocated, shared, short_circuited, widenings, bytes, memo_hits, memo_misses, memo_evicted, visits] =
            std::array::from_fn(f);
        Tally {
            allocated,
            shared,
            short_circuited,
            widenings,
            bytes,
            memo_hits,
            memo_misses,
            memo_evicted,
            visits,
        }
    }

    fn zip(self, other: Tally, f: impl Fn(u64, u64) -> u64) -> Tally {
        let (a, b) = (self.fields(), other.fields());
        Tally::from_fn(|i| f(*a[i], *b[i]))
    }
}

impl Add for Tally {
    type Output = Tally;
    fn add(self, other: Tally) -> Tally {
        self.zip(other, |a, b| a + b)
    }
}

impl Sub for Tally {
    type Output = Tally;
    fn sub(self, before: Tally) -> Tally {
        self.zip(before, |a, b| a - b)
    }
}

thread_local! {
    static BLOCK: Tally<Cell<u64>> = const {
        Tally {
            allocated: Cell::new(0),
            shared: Cell::new(0),
            short_circuited: Cell::new(0),
            widenings: Cell::new(0),
            bytes: Cell::new(0),
            memo_hits: Cell::new(0),
            memo_misses: Cell::new(0),
            memo_evicted: Cell::new(0),
            visits: Cell::new(0),
        }
    };
}

/// Adds `n` to the counter `field` picks, returning its new value.
#[inline]
fn bump(field: impl FnOnce(&Tally<Cell<u64>>) -> &Cell<u64>, n: u64) -> u64 {
    BLOCK.with(|block| {
        let cell = field(block);
        cell.set(cell.get() + n);
        cell.get()
    })
}

/// A deep copy of `bytes` bytes (register file or stack chunk).
pub(crate) fn bump_allocated(bytes: usize) {
    bump(|t| &t.allocated, 1);
    bump(|t| &t.bytes, bytes as u64);
}

/// Bytes copied without a component materialization (the frame spine).
pub(crate) fn bump_bytes(bytes: usize) {
    bump(|t| &t.bytes, bytes as u64);
}

/// An `AbsState` clone that shared both components.
pub(crate) fn bump_shared() {
    bump(|t| &t.shared, 1);
}

/// A join or inclusion resolved a component or chunk by pointer.
pub(crate) fn bump_short_circuited() {
    bump(|t| &t.short_circuited, 1);
}

/// One register or stack slot widened.
pub(crate) fn bump_widenings() {
    bump(|t| &t.widenings, 1);
}

/// A memo lookup hit.
pub(crate) fn bump_memo_hit() {
    bump(|t| &t.memo_hits, 1);
}

/// A memo lookup missed.
pub(crate) fn bump_memo_miss() {
    bump(|t| &t.memo_misses, 1);
}

/// A memo insert displaced an entry.
pub(crate) fn bump_memo_evicted() {
    bump(|t| &t.memo_evicted, 1);
}

/// One instruction visit; returns this thread's visit total.
#[inline]
pub(crate) fn bump_visit() -> u64 {
    bump(|t| &t.visits, 1)
}

/// This thread's block as it reads now.
pub(crate) fn read() -> Tally {
    BLOCK.with(|block| {
        let cells = block.fields();
        Tally::from_fn(|i| cells[i].get())
    })
}

/// Adds `work` done on other threads to this thread's block.
pub(crate) fn credit(work: Tally) {
    BLOCK.with(|block| {
        for (cell, n) in block.fields().into_iter().zip(work.fields()) {
            cell.set(cell.get() + n);
        }
    });
}
