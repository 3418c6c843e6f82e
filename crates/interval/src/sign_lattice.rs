//! The 64-bit sign-boundary lattice: a small set of tnums and bound views
//! that sits on every edge the tnum ↔ bounds reduction cares about.
//!
//! Exhaustive checks at width ≤ 6 never set bit 63, so every value is
//! non-negative there and the signed view of [`Bounds`] is a copy of the
//! unsigned one. This lattice is the complement: tnums with free trits
//! at bits {0, 1, 2, 62, 63} and interval endpoints around 0, 2⁶²,
//! `i64::MAX`, 2⁶³ and `u64::MAX`, so ranges cross (or stop one short
//! of) the sign boundary in both views. The reduced-product tests run
//! their laws over it.

use std::collections::HashSet;

use tnum::Tnum;

use crate::{Bounds, SInterval, UInterval};

/// Interval endpoints, read as `u64` for the unsigned view and as `i64`
/// (two's complement) for the signed one.
const ENDPOINTS: [u64; 17] = [
    0,
    1,
    2,
    3,
    5,
    7,
    8,
    (1 << 62) - 1,
    1 << 62,
    i64::MAX as u64 - 1,
    i64::MAX as u64,
    1 << 63,
    (1 << 63) + 1,
    (1 << 63) + 7,
    u64::MAX - 8,
    u64::MAX - 1,
    u64::MAX,
];

/// The bits a lattice tnum may leave unknown.
pub const FREE_BITS: u64 = 0b111 | (0b11 << 62);

/// The values the known bits of a lattice tnum are taken from.
const BASES: [u64; 4] = [0, u64::MAX, 0x5555_5555_5555_5555, 1 << 63];

/// Every tnum that takes the bits outside [`FREE_BITS`] from one of the
/// bases 0, `u64::MAX`, `0x5555…` and 2⁶³ and gives each free bit any
/// trit, without duplicates: 729, since 0 and 2⁶³ differ only in a free
/// bit and so span the same 243.
#[must_use]
pub fn tnums() -> Vec<Tnum> {
    let free: Vec<u64> = (0..64)
        .map(|i| 1u64 << i)
        .filter(|b| FREE_BITS & b != 0)
        .collect();
    let mut out = Vec::new();
    for base in BASES {
        // One base-3 digit per free bit: 0, 1 or unknown.
        for code in 0..3u32.pow(free.len() as u32) {
            let (mut value, mut mask, mut c) = (base & !FREE_BITS, 0, code);
            for &bit in &free {
                match c % 3 {
                    0 => {}
                    1 => value |= bit,
                    _ => mask |= bit,
                }
                c /= 3;
            }
            let t = Tnum::masked(value, mask);
            if !out.contains(&t) {
                out.push(t);
            }
        }
    }
    out
}

/// Every pair of an unsigned and a signed interval whose endpoints are
/// 0, 1, 2, 3, 5, 7, 8, 2⁶² − 1, 2⁶², `i64::MAX` − 1, `i64::MAX`, 2⁶³,
/// 2⁶³ + 1, 2⁶³ + 7, `u64::MAX` − 8, `u64::MAX` − 1 or `u64::MAX` (read
/// as `i64` in the signed view): 153 × 153 `Bounds` whose views are **not**
/// deduced from each other — the shape [`Bounds::widen`] produces. Some
/// pairs are not reduced, and some contradict (a `deduce` of them is
/// `None`).
#[must_use]
pub fn views() -> Vec<Bounds> {
    let mut signed_ends: Vec<i64> = ENDPOINTS.iter().map(|&e| e as i64).collect();
    signed_ends.sort_unstable();
    let us: Vec<UInterval> = pairs(&ENDPOINTS, UInterval::new);
    let ss: Vec<SInterval> = pairs(&signed_ends, SInterval::new);
    us.iter()
        .flat_map(|&u| ss.iter().map(move |&s| Bounds::from_views(u, s)))
        .collect()
}

/// Every pair of [`views`] that [`Bounds::deduce`] does not reject,
/// deduced, without duplicates.
#[must_use]
pub fn bounds() -> Vec<Bounds> {
    let mut seen = HashSet::new();
    views()
        .into_iter()
        .filter_map(Bounds::deduce)
        .filter(|&b| seen.insert(b))
        .collect()
}

/// Every member of every lattice tnum, sorted. A tnum ↔ bounds law
/// checked at these probes is checked exhaustively whenever one side is
/// a lattice tnum: the common members of the two sides are members of
/// the tnum.
#[must_use]
pub fn probes() -> Vec<u64> {
    let mut out: Vec<u64> = tnums().iter().flat_map(|t| t.concretize()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Every interval `[lo, hi]` with `lo <= hi` drawn from sorted `ends`.
fn pairs<T: Copy, I>(ends: &[T], new: impl Fn(T, T) -> Option<I>) -> Vec<I> {
    let mut out = Vec::new();
    for (i, &lo) in ends.iter().enumerate() {
        for &hi in &ends[i..] {
            out.extend(new(lo, hi));
        }
    }
    out
}
