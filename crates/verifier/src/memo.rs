//! The fingerprint-keyed **transfer memo cache**: cross-program sharing
//! of pure transfer-function results for the batched throughput engine
//! ([`crate::batch`]).
//!
//! `AbsState` is `Rc`-backed and `!Send`, so batch parallelism is
//! program-granular — workers never share states. What they *can* share
//! is the arithmetic: the scalar halves of the transfer layer
//! ([`crate::transfer`]) are pure functions of their operand values, and
//! real batches (64 variants of a packet filter, a fleet of similar
//! loops) recompute the same `(operands, operation)` pairs constantly.
//! [`TransferMemo`] caches exactly those:
//!
//! * **ALU**: `(width, op, lhs, rhs) → result` for scalar × scalar
//!   arithmetic ([`MemoEffect::Alu`]);
//! * **branches**: `(width, op, lhs, rhs) → both refined edges`
//!   ([`MemoEffect::Branch`]) — including edges proven infeasible, which
//!   is verdict-relevant and reproduced exactly;
//! * **memory checks**: `(offset scalar, packed check parameters) →
//!   proven access extremes` ([`MemoEffect::Mem`]) — the region kind,
//!   static displacement, access size, strictness flag, and region
//!   extent are packed losslessly into the `rhs` operand
//!   ([`MemoKey::mem`]), so the cached verdict is still a pure function
//!   of its two operands.
//!
//! Pointer arithmetic and errors are never cached: pointer ops depend on
//! more than the operand values, and errors carry the failing `pc` and
//! terminate the walk — caching only total functions of the stored
//! operands is what makes a hit unconditionally sound.
//!
//! Keys are [`MemoKey`]s — a packed instruction word plus the
//! XOR-mixed operand fingerprints ([`crate::state::value_fingerprint`]).
//! Fingerprints can collide, so every entry stores its exact operands
//! and [`TransferMemo::lookup`] verifies full operand equality before
//! reuse; a key match with unequal operands is a miss, never a wrong
//! answer. The table is split into [`SHARDS`] independently-locked
//! shards (selected by key hash) so concurrent workers rarely contend,
//! and each shard evicts oldest-first past its cap — the same bounded
//! "LRU-ish" hygiene as the visited table's chain cap.
//!
//! Per-run traffic is counted in thread-local `counters` the
//! exploration engines snapshot into
//! [`AnalysisStats`](crate::AnalysisStats)
//! (`memo_hits` / `memo_misses` / `memo_evicted`).
//!
//! **The memo is opt-in.** [`AnalyzerOptions::memo_cache`] is `None` by
//! default; a caller that wants it passes an explicit
//! `Some(Arc::new(TransferMemo::new()))`, typically one `Arc` shared by
//! every program of a batch. Every memoized transfer pays a fingerprint,
//! a SipHash, a shard lock and a map insert, while a recomputed tnum or
//! bounds operation costs a few dozen nanoseconds. The memo only pays
//! when one long-lived cache sees the same scalar operands again and
//! again, across many programs, and most lookups hit. No committed
//! workload shows it winning: on the per-program benchmark corpus only
//! about a third of lookups hit and the memo-off run is far faster,
//! single loopy programs run faster without it, and even the mixed
//! throughput batch, where one shared cache hits 93% of lookups, runs
//! no faster with it on one worker and slower on two.
//!
//! [`AnalyzerOptions::memo_cache`]: crate::AnalyzerOptions::memo_cache

use std::collections::{HashMap, VecDeque};
use std::sync::Mutex;

use domain::parallel::lock_recover;
use ebpf::{AluOp, JmpOp, Width};

use crate::scalar::Scalar;
use crate::state::mix;

/// Number of independently-locked shards. A power of two so shard
/// selection is a mask; 16 keeps contention negligible at the jobs
/// counts the batch engine targets (≤ 8 on typical hosts).
pub const SHARDS: usize = 16;

/// Default per-shard entry cap (≈ 16 K entries across the cache).
const DEFAULT_SHARD_CAP: usize = 1024;

/// Thread-local memo traffic counters, reset per analysis run and
/// snapshotted into `AnalysisStats` — same pattern as
/// [`crate::state::stats`].
pub(crate) mod counters {
    use std::cell::Cell;

    thread_local! {
        static HITS: Cell<u64> = const { Cell::new(0) };
        static MISSES: Cell<u64> = const { Cell::new(0) };
        static EVICTED: Cell<u64> = const { Cell::new(0) };
    }

    pub(crate) fn bump_hit() {
        HITS.with(|v| v.set(v.get() + 1));
    }

    pub(crate) fn bump_miss() {
        MISSES.with(|v| v.set(v.get() + 1));
    }

    pub(crate) fn bump_evicted() {
        EVICTED.with(|v| v.set(v.get() + 1));
    }

    /// Adds externally-accumulated traffic to this thread's counters —
    /// how the parallel explorer folds its worker threads' totals back
    /// onto the coordinator before outer aggregators snapshot it.
    pub(crate) fn credit(hits: u64, misses: u64, evicted: u64) {
        HITS.with(|v| v.set(v.get() + hits));
        MISSES.with(|v| v.set(v.get() + misses));
        EVICTED.with(|v| v.set(v.get() + evicted));
    }

    /// Zeroes the counters (start of an analysis run).
    pub(crate) fn reset() {
        for c in [&HITS, &MISSES, &EVICTED] {
            c.with(|v| v.set(0));
        }
    }

    /// `(hits, misses, evicted)` accumulated since the last [`reset`].
    pub(crate) fn snapshot() -> (u64, u64, u64) {
        (
            HITS.with(Cell::get),
            MISSES.with(Cell::get),
            EVICTED.with(Cell::get),
        )
    }
}

/// A memo cache key: the packed instruction word plus the mixed operand
/// fingerprints.
///
/// The instruction word packs the *semantic* identity of the operation —
/// kind (ALU vs. branch), opcode, and width — and deliberately omits
/// register numbers and jump offsets: the cached results are pure value
/// functions, so `r3 += r1` and `r7 += r2` over equal operand values hit
/// the same entry, across programs. The fields are public so tests can
/// forge colliding keys and prove the operand-equality check holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MemoKey {
    /// Packed operation word: kind tag, opcode, and width.
    pub insn: u64,
    /// Mixed fingerprints of both operand values.
    pub fp: u64,
}

/// Order-sensitive combination of the two operand fingerprints (ALU and
/// comparisons are not commutative in general).
const fn mix_operands(lhs_fp: u64, rhs_fp: u64) -> u64 {
    mix(lhs_fp ^ mix(rhs_fp ^ 0x4d45_4d4f_5f52_4853)) // "MEMO_RHS"
}

const fn width_bit(width: Width) -> u64 {
    match width {
        Width::W64 => 0,
        Width::W32 => 1,
    }
}

impl MemoKey {
    /// The key of a scalar × scalar ALU computation.
    #[must_use]
    pub fn alu(width: Width, op: AluOp, lhs_fp: u64, rhs_fp: u64) -> MemoKey {
        MemoKey {
            insn: 0x100 | (op as u64) << 1 | width_bit(width),
            fp: mix_operands(lhs_fp, rhs_fp),
        }
    }

    /// The key of a scalar × scalar conditional-branch refinement.
    #[must_use]
    pub fn branch(width: Width, op: JmpOp, lhs_fp: u64, rhs_fp: u64) -> MemoKey {
        MemoKey {
            insn: 0x200 | (op as u64) << 1 | width_bit(width),
            fp: mix_operands(lhs_fp, rhs_fp),
        }
    }

    /// The key of a memory region check: the variable offset scalar's
    /// fingerprint mixed with the packed remaining check inputs (region
    /// kind, static displacement, access size, strict-alignment flag,
    /// region extent) — the word the caller also passes as the entry's
    /// `rhs` operand, so a hit verifies *every* input of the check by
    /// exact equality. Tagged disjointly from ALU and branch keys.
    #[must_use]
    pub fn mem(offset_fp: u64, params: u64) -> MemoKey {
        MemoKey {
            insn: 0x400,
            fp: mix_operands(offset_fp, params),
        }
    }

    /// The shard this key lands in.
    fn shard(self) -> usize {
        (mix(self.fp ^ self.insn) as usize) & (SHARDS - 1)
    }
}

/// The verdict-relevant output of one memoized transfer computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemoEffect {
    /// The result scalar of an ALU operation.
    Alu(Scalar),
    /// Both refined edges of a conditional branch, `[fall, taken]`:
    /// each edge's refined `(dst, src)` scalar pair, or `None` for an
    /// edge proven infeasible.
    Branch([Option<(Scalar, Scalar)>; 2]),
    /// The `(lo, hi)` extreme byte offsets of a memory access proven in
    /// bounds (and aligned, under strict alignment) by the transfer
    /// layer's region check. Only successful checks are cached —
    /// rejections abort the walk and are never replayed.
    Mem((i64, i64)),
}

/// One cached computation: the *exact* operands (for collision-proof
/// verification on lookup) and the effect they produced.
#[derive(Clone, Copy, Debug)]
struct MemoEntry {
    lhs: Scalar,
    rhs: Scalar,
    effect: MemoEffect,
}

/// One locked shard: the key → entry map plus insertion order for
/// oldest-first eviction.
#[derive(Debug, Default)]
struct Shard {
    map: HashMap<MemoKey, MemoEntry>,
    order: VecDeque<MemoKey>,
}

/// The sharded, fingerprint-keyed transfer memo cache shared across the
/// programs of a batch (via `Arc` in
/// [`AnalyzerOptions::memo_cache`](crate::AnalyzerOptions::memo_cache)).
///
/// Thread-safe: shards are `Mutex`-protected and selected by key hash,
/// so workers verifying different programs contend only when they touch
/// the same shard at the same instant.
#[derive(Debug)]
pub struct TransferMemo {
    shards: [Mutex<Shard>; SHARDS],
    shard_cap: usize,
}

impl Default for TransferMemo {
    fn default() -> TransferMemo {
        TransferMemo::new()
    }
}

impl TransferMemo {
    /// A cache with the default per-shard capacity.
    #[must_use]
    pub fn new() -> TransferMemo {
        TransferMemo::with_shard_capacity(DEFAULT_SHARD_CAP)
    }

    /// A cache holding at most `shard_cap` entries per shard (evicting
    /// oldest-first past the cap). A cap of 0 disables insertion — every
    /// lookup misses — which is occasionally useful for ablations.
    #[must_use]
    pub fn with_shard_capacity(shard_cap: usize) -> TransferMemo {
        TransferMemo {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            shard_cap,
        }
    }

    /// Looks up `key`, returning the cached effect only when the stored
    /// operands are *exactly equal* to `(lhs, rhs)` — a fingerprint
    /// collision therefore reads as a miss, never as a wrong result.
    /// Counts a hit or miss in the calling thread's `counters`.
    #[must_use]
    pub fn lookup(&self, key: MemoKey, lhs: Scalar, rhs: Scalar) -> Option<MemoEffect> {
        // Poison recovery, not unwrap: a worker that panicked (and was
        // contained) mid-insert leaves at worst an absent entry — the
        // map itself is updated atomically under the lock — so siblings
        // sharing the cache keep working.
        let shard = lock_recover(&self.shards[key.shard()]);
        match shard.map.get(&key) {
            Some(entry) if entry.lhs == lhs && entry.rhs == rhs => {
                counters::bump_hit();
                Some(entry.effect)
            }
            _ => {
                counters::bump_miss();
                None
            }
        }
    }

    /// Records a computed effect under `key`, evicting the shard's
    /// oldest entry when full. A later insert under an existing key
    /// overwrites in place (the colliding-operand case), keeping map and
    /// eviction order consistent.
    pub fn insert(&self, key: MemoKey, lhs: Scalar, rhs: Scalar, effect: MemoEffect) {
        if self.shard_cap == 0 {
            return;
        }
        let mut shard = lock_recover(&self.shards[key.shard()]);
        // Fired while the shard lock is held, so an injected panic
        // poisons a real lock — the scenario the `lock_recover`
        // accessors exist for.
        crate::failpoint::fire(crate::failpoint::FaultSite::MemoInsert);
        let entry = MemoEntry { lhs, rhs, effect };
        if shard.map.insert(key, entry).is_some() {
            return; // overwrote in place; key already in `order`
        }
        shard.order.push_back(key);
        while shard.map.len() > self.shard_cap {
            let Some(oldest) = shard.order.pop_front() else {
                break;
            };
            if shard.map.remove(&oldest).is_some() {
                counters::bump_evicted();
            }
        }
    }

    /// Total number of live entries across all shards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    /// Whether the cache currently holds no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: u64) -> Scalar {
        Scalar::constant(v)
    }

    #[test]
    fn round_trips_an_alu_entry() {
        counters::reset();
        let memo = TransferMemo::new();
        let key = MemoKey::alu(Width::W64, AluOp::Add, 11, 22);
        assert_eq!(memo.lookup(key, s(1), s(2)), None);
        memo.insert(key, s(1), s(2), MemoEffect::Alu(s(3)));
        assert_eq!(memo.lookup(key, s(1), s(2)), Some(MemoEffect::Alu(s(3))));
        let (hits, misses, _) = counters::snapshot();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn forged_key_collision_is_rejected_by_operand_equality() {
        // Two *distinct* operand pairs under the very same key: the
        // cache must refuse to serve the first pair's effect to the
        // second — full operand equality is checked before reuse.
        let memo = TransferMemo::new();
        let key = MemoKey {
            insn: 0x101,
            fp: 42,
        }; // forged: same for both
        memo.insert(key, s(1), s(2), MemoEffect::Alu(s(3)));
        assert_eq!(memo.lookup(key, s(1), s(2)), Some(MemoEffect::Alu(s(3))));
        assert_eq!(
            memo.lookup(key, s(9), s(2)),
            None,
            "colliding key with different lhs must miss"
        );
        assert_eq!(
            memo.lookup(key, s(1), s(7)),
            None,
            "colliding key with different rhs must miss"
        );
    }

    #[test]
    fn alu_branch_and_mem_keys_never_overlap() {
        // Same opcode byte value, same operands — the kind tag keeps the
        // key spaces disjoint.
        let a = MemoKey::alu(Width::W64, AluOp::Add, 5, 6);
        let b = MemoKey::branch(Width::W64, JmpOp::Eq, 5, 6);
        let m = MemoKey::mem(5, 6);
        assert_ne!(a.insn & 0x700, b.insn & 0x700);
        assert_ne!(a.insn & 0x700, m.insn & 0x700);
        assert_ne!(b.insn & 0x700, m.insn & 0x700);
    }

    #[test]
    fn mem_entries_verify_both_operands_on_hit() {
        // A forged collision: one key, two different (offset, params)
        // pairs — the equality check must keep them apart.
        let memo = TransferMemo::new();
        let key = MemoKey::mem(77, 88);
        memo.insert(key, s(8), s(100), MemoEffect::Mem((-8, -8)));
        assert_eq!(
            memo.lookup(key, s(8), s(100)),
            Some(MemoEffect::Mem((-8, -8)))
        );
        assert_eq!(
            memo.lookup(key, s(16), s(100)),
            None,
            "different offset scalar under a colliding key must miss"
        );
        assert_eq!(
            memo.lookup(key, s(8), s(101)),
            None,
            "different packed check parameters must miss"
        );
    }

    #[test]
    fn operand_order_matters_in_the_key() {
        let ab = MemoKey::alu(Width::W64, AluOp::Sub, 1, 2);
        let ba = MemoKey::alu(Width::W64, AluOp::Sub, 2, 1);
        assert_ne!(ab, ba, "sub is not commutative; keys must differ");
    }

    #[test]
    fn shard_cap_evicts_oldest_first() {
        counters::reset();
        let memo = TransferMemo::with_shard_capacity(2);
        // Generate enough distinct keys that some shard overflows.
        for i in 0..(SHARDS as u64 * 8) {
            let key = MemoKey::alu(Width::W64, AluOp::Add, i, i + 1);
            memo.insert(key, s(i), s(i), MemoEffect::Alu(s(i)));
        }
        assert!(memo.len() <= SHARDS * 2, "caps hold: {}", memo.len());
        let (_, _, evicted) = counters::snapshot();
        assert!(evicted > 0, "overflow evicted oldest entries");
    }

    #[test]
    fn zero_capacity_disables_the_cache() {
        let memo = TransferMemo::with_shard_capacity(0);
        let key = MemoKey::alu(Width::W64, AluOp::Add, 1, 2);
        memo.insert(key, s(1), s(2), MemoEffect::Alu(s(3)));
        assert!(memo.is_empty());
        assert_eq!(memo.lookup(key, s(1), s(2)), None);
    }

    #[test]
    fn concurrent_use_is_safe_and_coherent() {
        let memo = TransferMemo::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let memo = &memo;
                scope.spawn(move || {
                    for i in 0..256 {
                        let key = MemoKey::alu(Width::W64, AluOp::Add, i, t % 2);
                        let (l, r) = (s(i), s(t % 2));
                        if let Some(MemoEffect::Alu(out)) = memo.lookup(key, l, r) {
                            assert_eq!(out, s(i + t % 2), "hits are coherent");
                        } else {
                            memo.insert(key, l, r, MemoEffect::Alu(s(i + t % 2)));
                        }
                    }
                });
            }
        });
        assert!(!memo.is_empty());
    }
}
