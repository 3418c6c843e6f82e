//! Relative precision measurement between two abstract operators — the
//! machinery behind Fig. 4 and Table I of the paper — generic over the
//! abstract domain.

use domain::AbstractDomain;
use tnum::Tnum;

use crate::ops::Op2;
use domain::parallel::{default_threads, par_chunks};

/// Table-I-style comparison of two operators at one width.
///
/// Counts follow the paper's columns exactly: for every input pair the
/// outputs either agree, or differ; differing outputs are either
/// comparable under ⊑ or not; comparable differing outputs have a
/// strictly more precise side.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PrecisionReport {
    /// Name of the first operator (the paper's `kern_mul` column).
    pub name_a: &'static str,
    /// Name of the second operator (the paper's `our_mul` column).
    pub name_b: &'static str,
    /// Bit width.
    pub width: u32,
    /// Total input pairs (`9^width` for tnums when exhaustive).
    pub total: u64,
    /// Pairs with identical outputs.
    pub equal: u64,
    /// Pairs with differing outputs.
    pub different: u64,
    /// Differing pairs whose outputs are comparable under ⊑.
    pub comparable: u64,
    /// Comparable pairs where the first operator is strictly more precise.
    pub a_more_precise: u64,
    /// Comparable pairs where the second operator is strictly more precise.
    pub b_more_precise: u64,
}

impl PrecisionReport {
    /// Percentage helper: `part / total * 100`.
    #[must_use]
    pub fn pct(part: u64, total: u64) -> f64 {
        if total == 0 {
            0.0
        } else {
            part as f64 / total as f64 * 100.0
        }
    }
}

/// Classifies one output pair into the accumulator columns
/// `[equal, different, comparable, a_wins, b_wins]`.
fn classify<D: AbstractDomain>(ra: D, rb: D, acc: &mut [u64; 5]) {
    if ra == rb {
        acc[0] += 1;
        return;
    }
    acc[1] += 1;
    if ra.le(rb) {
        acc[2] += 1;
        acc[3] += 1;
    } else if rb.le(ra) {
        acc[2] += 1;
        acc[4] += 1;
    }
}

fn merge(partials: Vec<[u64; 5]>) -> [u64; 5] {
    let mut acc = [0u64; 5];
    for partial in partials {
        for (slot, v) in acc.iter_mut().zip(partial) {
            *slot += v;
        }
    }
    acc
}

/// Exhaustively compares two abstract operators over all input pairs of
/// the domain's bounded enumeration (Table I / §VII-E).
///
/// # Panics
///
/// Panics if `width > 10`.
#[must_use]
pub fn compare_precision<D: AbstractDomain>(a: Op2<D>, b: Op2<D>, width: u32) -> PrecisionReport {
    assert!(
        width <= 10,
        "exhaustive precision sweeps are limited to width 10"
    );
    let elems = D::enumerate_at_width(width);
    let n = elems.len() as u64;
    let partials = par_chunks(n, default_threads(), |lo, hi| {
        let mut acc = [0u64; 5];
        for pi in lo..hi {
            let p = elems[pi as usize];
            for &q in &elems {
                classify(
                    (a.abstract_op)(p, q, width),
                    (b.abstract_op)(p, q, width),
                    &mut acc,
                );
            }
        }
        acc
    });
    let acc = merge(partials);
    PrecisionReport {
        name_a: a.name,
        name_b: b.name,
        width,
        total: n * n,
        equal: acc[0],
        different: acc[1],
        comparable: acc[2],
        a_more_precise: acc[3],
        b_more_precise: acc[4],
    }
}

/// [`compare_precision`] over *unordered* input pairs (`P ≤ Q` in
/// enumeration order) — the convention the paper's artifact uses for the
/// differing-pair statistics of Table I. With this enumeration the counts
/// reproduce the paper exactly (width 5: 8 differing, 2 vs 6; width 6:
/// 180 differing, 41 vs 139). `total` reports the number of unordered
/// pairs, `n (n + 1) / 2` over the enumeration size `n`.
///
/// # Panics
///
/// Panics if `width > 10`.
#[must_use]
pub fn compare_precision_unordered<D: AbstractDomain>(
    a: Op2<D>,
    b: Op2<D>,
    width: u32,
) -> PrecisionReport {
    assert!(
        width <= 10,
        "exhaustive precision sweeps are limited to width 10"
    );
    let elems = D::enumerate_at_width(width);
    let n = elems.len() as u64;
    let partials = par_chunks(n, default_threads(), |lo, hi| {
        let mut acc = [0u64; 5];
        for pi in lo..hi {
            let p = elems[pi as usize];
            for &q in &elems[pi as usize..] {
                classify(
                    (a.abstract_op)(p, q, width),
                    (b.abstract_op)(p, q, width),
                    &mut acc,
                );
            }
        }
        acc
    });
    let acc = merge(partials);
    PrecisionReport {
        name_a: a.name,
        name_b: b.name,
        width,
        total: n * (n + 1) / 2,
        equal: acc[0],
        different: acc[1],
        comparable: acc[2],
        a_more_precise: acc[3],
        b_more_precise: acc[4],
    }
}

/// Sampled variant of [`compare_precision`] for widths where the full
/// enumeration is impractical: draws `samples` input pairs uniformly
/// (with a fixed seed for reproducibility).
#[must_use]
pub fn compare_precision_sampled<D: AbstractDomain>(
    a: Op2<D>,
    b: Op2<D>,
    width: u32,
    samples: u64,
) -> PrecisionReport {
    let elems = D::enumerate_at_width(width);
    let n = elems.len() as u64;
    let partials = par_chunks(samples, default_threads(), |lo, hi| {
        let mut acc = [0u64; 5];
        // Per-thread SplitMix64 stream, deterministic in `lo`.
        let mut rng = domain::rng::SplitMix64::new(0x9e37_79b9_7f4a_7c15u64.wrapping_add(lo));
        for _ in lo..hi {
            let p = elems[rng.below(n) as usize];
            let q = elems[rng.below(n) as usize];
            classify(
                (a.abstract_op)(p, q, width),
                (b.abstract_op)(p, q, width),
                &mut acc,
            );
        }
        acc
    });
    let acc = merge(partials);
    PrecisionReport {
        name_a: a.name,
        name_b: b.name,
        width,
        total: samples,
        equal: acc[0],
        different: acc[1],
        comparable: acc[2],
        a_more_precise: acc[3],
        b_more_precise: acc[4],
    }
}

/// The Fig. 4 histogram: for every input pair where the two operators
/// disagree, the log₂ of the ratio `|γ(a)| / |γ(b)|`.
///
/// Because `|γ(t)| = 2^popcount(mask)`, the log-ratio is the integer
/// difference in unknown-bit counts; the histogram maps that difference
/// to its number of occurrences. Positive entries mean operator `b`
/// (the paper's `our_mul`) was more precise. Tnum-specific: the measure
/// relies on the cardinality structure of the value/mask encoding.
#[must_use]
pub fn ratio_histogram(
    a: Op2<Tnum>,
    b: Op2<Tnum>,
    width: u32,
) -> std::collections::BTreeMap<i32, u64> {
    assert!(width <= 10, "exhaustive sweeps are limited to width 10");
    let n = tnum::enumerate::count(width);
    let partials = par_chunks(n, default_threads(), |lo, hi| {
        let mut hist = std::collections::BTreeMap::new();
        for pi in lo..hi {
            let p = tnum::enumerate::nth(width, pi);
            for qi in 0..n {
                let q = tnum::enumerate::nth(width, qi);
                let ra = (a.abstract_op)(p, q, width);
                let rb = (b.abstract_op)(p, q, width);
                if ra == rb {
                    continue;
                }
                let diff = ra.unknown_bits() as i32 - rb.unknown_bits() as i32;
                *hist.entry(diff).or_insert(0u64) += 1;
            }
        }
        hist
    });
    let mut out = std::collections::BTreeMap::new();
    for partial in partials {
        for (k, v) in partial {
            *out.entry(k).or_insert(0) += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::OpCatalog;
    use bitwise_domain::KnownBits;

    #[test]
    fn table1_row_width_5_reproduced_exactly() {
        // Table I, row n=5 (unordered-pair convention): 8 differing pairs,
        // all comparable, our_mul more precise in 6 (75%), kern_mul in 2.
        let r = compare_precision_unordered(
            OpCatalog::<Tnum>::mul_kernel(),
            OpCatalog::<Tnum>::mul(),
            5,
        );
        assert_eq!(r.equal + r.different, r.total);
        assert_eq!(r.different, 8);
        assert_eq!(r.comparable, 8);
        assert_eq!(r.b_more_precise, 6);
        assert_eq!(r.a_more_precise, 2);
    }

    #[test]
    fn ordered_counts_are_the_mirrored_doubling() {
        // Over ordered pairs every off-diagonal difference appears twice;
        // at width 5 all 8 unordered differences are off-diagonal.
        let r = compare_precision(OpCatalog::<Tnum>::mul_kernel(), OpCatalog::<Tnum>::mul(), 5);
        assert_eq!(r.total, 243u64 * 243);
        assert_eq!(r.different, 16);
        assert_eq!(r.b_more_precise, 12);
        assert_eq!(r.a_more_precise, 4);
    }

    #[test]
    fn identical_operators_report_all_equal() {
        let r = compare_precision(
            OpCatalog::<Tnum>::mul(),
            OpCatalog::<Tnum>::mul_simplified(),
            4,
        );
        assert_eq!(r.equal, r.total);
        assert_eq!(r.different, 0);
    }

    #[test]
    fn cross_domain_precision_through_the_bijection() {
        // The knownbits mul *is* bitwise_mul through the encoding, so the
        // generic comparison against the kernel mul must reproduce the
        // tnum-level comparison exactly.
        let kb = compare_precision(
            OpCatalog::<KnownBits>::mul(),
            OpCatalog::<KnownBits>::add(),
            3,
        );
        let tn = compare_precision(
            OpCatalog::<Tnum>::mul_bitwise(),
            OpCatalog::<Tnum>::add(),
            3,
        );
        assert_eq!(kb.equal, tn.equal);
        assert_eq!(kb.different, tn.different);
        assert_eq!(kb.comparable, tn.comparable);
    }

    #[test]
    fn histogram_counts_match_difference_counts() {
        let r = compare_precision(OpCatalog::<Tnum>::mul_kernel(), OpCatalog::<Tnum>::mul(), 5);
        let hist = ratio_histogram(OpCatalog::<Tnum>::mul_kernel(), OpCatalog::<Tnum>::mul(), 5);
        let hist_total: u64 = hist.values().sum();
        assert_eq!(hist_total, r.different);
        // Positive diffs are cases where our_mul was more precise.
        let positive: u64 = hist.iter().filter(|(k, _)| **k > 0).map(|(_, v)| *v).sum();
        assert_eq!(positive, r.b_more_precise);
    }

    #[test]
    fn sampled_comparison_is_deterministic_and_consistent() {
        let a = compare_precision_sampled(
            OpCatalog::<Tnum>::mul_kernel(),
            OpCatalog::<Tnum>::mul(),
            6,
            20_000,
        );
        let b = compare_precision_sampled(
            OpCatalog::<Tnum>::mul_kernel(),
            OpCatalog::<Tnum>::mul(),
            6,
            20_000,
        );
        assert_eq!(a, b, "fixed seed ⇒ reproducible");
        assert_eq!(a.total, 20_000);
        assert_eq!(a.equal + a.different, a.total);
        // Differences are rare (Table I: ~0.034% at width 6).
        assert!(a.different < 100);
    }

    #[test]
    fn pct_helper() {
        assert!((PrecisionReport::pct(1, 8) - 12.5).abs() < 1e-12);
        assert_eq!(PrecisionReport::pct(1, 0), 0.0);
    }
}
