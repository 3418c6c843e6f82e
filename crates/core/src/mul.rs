//! Abstract multiplication: the paper's new algorithm (`our_mul`, §III-C),
//! its reference form (`our_mul_simplified`, Listing 3), and the legacy
//! kernel algorithm (`kern_mul`, Listing 2).
//!
//! All three are *sound* abstractions of wrapping 64-bit multiplication;
//! none is optimal. `our_mul` is the algorithm merged into the Linux kernel
//! by the paper's authors: it is empirically more precise than `kern_mul`
//! and the Regehr–Duongsaa `bitwise_mul` (see the `tnum-verify` crate and
//! the Fig. 4 / Table I experiments), and ~33% faster.

use crate::tnum::Tnum;

impl Tnum {
    /// Abstract multiplication — the paper's `our_mul` (Listing 4), now the
    /// Linux kernel's `tnum_mul`.
    ///
    /// Generalizes binary long multiplication to tnums while keeping the
    /// *known* and *unknown* partial-product contributions in two separate
    /// accumulators:
    ///
    /// * `acc_v` accumulates `P.value * Q.value` — all the fully-known
    ///   partial products, summed with one concrete multiply;
    /// * `acc_m` accumulates mask-only tnums `(0, m)` for every partial
    ///   product that carries uncertainty, using [`Tnum::add`].
    ///
    /// The two are combined with a single final abstract addition. This
    /// *value/mask decomposition* (Lemma 9) postpones mixing certain and
    /// uncertain trits until the very last step, which is why `our_mul`
    /// out-performs algorithms that accumulate mixed tnums (§IV-A).
    ///
    /// Runs in O(n) for n-bit operands; exits early once the remaining
    /// multiplier bits are all known zero or all unknown, or the shifted
    /// multiplicand has no possibly-set bit left, and returns the product
    /// of two constants at once. Each exit returns exactly what the full
    /// loop would.
    ///
    /// # Examples
    ///
    /// The Fig. 3 worked example: `μ01 * μ10 = μμμ10`.
    ///
    /// ```
    /// use tnum::Tnum;
    /// let p: Tnum = "x01".parse()?;
    /// let q: Tnum = "x10".parse()?;
    /// let r = p.mul(q);
    /// assert_eq!(r.to_bin_string(5), "xxx10");
    /// // Soundness: all 4 concrete products are members.
    /// for x in p.concretize() {
    ///     for y in q.concretize() {
    ///         assert!(r.contains(x * y));
    ///     }
    /// }
    /// # Ok::<(), tnum::ParseTnumError>(())
    /// ```
    #[must_use]
    pub const fn mul(self, other: Tnum) -> Tnum {
        let acc_v = self.value().wrapping_mul(other.value());
        if self.mask() == 0 && other.mask() == 0 {
            return Tnum::constant(acc_v);
        }
        // The loop ends when the multiplier `a`, shifted right, is
        // known zero, or when the multiplicand `b`, shifted left, has no
        // possibly-set bit left: every further partial product is (0, 0),
        // which leaves `acc_m` as it is. It also ends at the bit from
        // which every trit of the multiplier is unknown.
        let a_len = u64::BITS - (self.value() | self.mask()).leading_zeros();
        let b_len = u64::BITS - (other.value() | other.mask()).trailing_zeros();
        let unknown_from = u64::BITS - self.mask().leading_ones();
        let mut steps = if a_len < b_len { a_len } else { b_len };
        if unknown_from < steps {
            steps = unknown_from;
        }
        let mut acc_m = Tnum::ZERO;
        let mut a = self;
        let mut b = other;
        let mut i = 0;
        while i < steps {
            if a.value() & 1 == 1 {
                // LSB of `a` is a certain 1: partial product contributes
                // exactly b's uncertainty.
                acc_m = acc_m.add(Tnum::masked(0, b.mask()));
            } else if a.mask() & 1 == 1 {
                // LSB of `a` is unknown: partial product is 0 or any member
                // of b — every possibly-set bit of b becomes uncertain
                // (Lemma 8, "tnum set union with zero").
                acc_m = acc_m.add(Tnum::masked(0, b.value() | b.mask()));
            }
            // Note: no case for a certain-0 LSB — zero partial product.
            a = a.rshift(1);
            b = b.lshift(1);
            i += 1;
        }
        if steps < a_len && steps < b_len {
            // Every remaining trit of `a` is unknown: step j would add
            // (0, live << j). Adding a mask-only tnum never clears a mask
            // bit nor touches a bit below the addend's lowest set bit, and
            // the addends' lowest bits cover every bit from `live`'s
            // lowest up.
            let live = b.value() | b.mask();
            acc_m = Tnum::masked(0, acc_m.mask() | (u64::MAX << live.trailing_zeros()));
        }
        Tnum::constant(acc_v).add(acc_m)
    }

    /// The legacy Linux kernel abstract multiplication — the paper's
    /// `kern_mul` (Listing 2), built on the half-multiply-accumulate
    /// helper [`hma`].
    ///
    /// Sound (verified exhaustively up to width 8, matching the paper's
    /// bounded verification) but less precise and slower than [`Tnum::mul`]:
    /// it performs up to 2n abstract additions of *mixed* tnums versus
    /// `our_mul`'s n+1 additions of mask-only tnums.
    ///
    /// # Examples
    ///
    /// At width 9 the two algorithms produce incomparable results (§IV-A):
    ///
    /// ```
    /// use tnum::Tnum;
    /// let p: Tnum = "000000011".parse()?;
    /// let q: Tnum = "011x011xx".parse()?;
    /// let kern = p.mul_kernel_legacy(q);
    /// let ours = p.mul(q);
    /// assert_eq!(kern.to_bin_string(9), "xxxx0xxxx");
    /// assert_eq!(ours.to_bin_string(9), "0xxxxxxxx");
    /// assert!(!kern.is_comparable_to(ours));
    /// # Ok::<(), tnum::ParseTnumError>(())
    /// ```
    #[must_use]
    pub const fn mul_kernel_legacy(self, other: Tnum) -> Tnum {
        let pi = self.value().wrapping_mul(other.value());
        let acc = hma(
            Tnum::constant(pi),
            self.mask(),
            other.mask() | other.value(),
        );
        hma(acc, other.mask(), self.value())
    }
}

/// The kernel's "half-multiply-accumulate" helper used by
/// [`Tnum::mul_kernel_legacy`]: accumulates `(0, x << i)` into `acc` for
/// every set bit `i` of `y`.
#[must_use]
pub const fn hma(mut acc: Tnum, mut x: u64, mut y: u64) -> Tnum {
    while y != 0 {
        if y & 1 == 1 {
            acc = acc.add(Tnum::masked(0, x));
        }
        y >>= 1;
        x <<= 1;
    }
    acc
}

/// The paper's `our_mul_simplified` (Listing 3): semantically equivalent to
/// [`Tnum::mul`] but structured for the soundness proof — it materializes
/// *both* accumulators as tnums and always loops over the full bitwidth.
///
/// Lemma 11 ("correctness of strength reductions") states the equivalence
/// with `our_mul`; the `tnum-verify` crate checks it exhaustively.
///
/// # Examples
///
/// ```
/// use tnum::{mul::our_mul_simplified, Tnum};
/// let p: Tnum = "x01".parse()?;
/// let q: Tnum = "x10".parse()?;
/// assert_eq!(our_mul_simplified(p, q), p.mul(q));
/// # Ok::<(), tnum::ParseTnumError>(())
/// ```
#[must_use]
pub fn our_mul_simplified(p: Tnum, q: Tnum) -> Tnum {
    let mut acc_v = Tnum::ZERO;
    let mut acc_m = Tnum::ZERO;
    let mut a = p;
    let mut b = q;
    for _ in 0..crate::BITS {
        if a.value() & 1 == 1 {
            // LSB of `a` is a certain 1.
            acc_v = acc_v.add(Tnum::constant(b.value()));
            acc_m = acc_m.add(Tnum::masked(0, b.mask()));
        } else if a.mask() & 1 == 1 {
            // LSB of `a` is uncertain.
            acc_m = acc_m.add(Tnum::masked(0, b.value() | b.mask()));
        }
        a = a.rshift(1);
        b = b.lshift(1);
    }
    acc_v.add(acc_m)
}

/// Operator form of [`Tnum::mul`].
impl core::ops::Mul for Tnum {
    type Output = Tnum;
    fn mul(self, rhs: Tnum) -> Tnum {
        Tnum::mul(self, rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::enumerate::tnums;
    use domain::rng::SplitMix64;
    use domain::AbstractDomain;

    fn sound_mul(mul: impl Fn(Tnum, Tnum) -> Tnum, width: u32) {
        let m = crate::low_bits(width);
        for a in tnums(width) {
            for b in tnums(width) {
                let r = mul(a, b).truncate(width);
                for x in a.concretize() {
                    for y in b.concretize() {
                        let prod = x.wrapping_mul(y) & m;
                        assert!(
                            r.contains(prod),
                            "{x}*{y}={prod} missing from mul({a},{b})={r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn our_mul_sound_exhaustive_w4() {
        sound_mul(Tnum::mul, 4);
    }

    #[test]
    fn kern_mul_sound_exhaustive_w4() {
        sound_mul(Tnum::mul_kernel_legacy, 4);
    }

    #[test]
    fn simplified_sound_exhaustive_w4() {
        sound_mul(our_mul_simplified, 4);
    }

    #[test]
    fn our_mul_equals_simplified_exhaustive_w8() {
        // Lemma 11: the strength-reduced our_mul, early exits included,
        // has identical input/output behaviour to our_mul_simplified.
        // Every pair at width 8 (43M) reaches the constant exit, but
        // neither of the others: they bind only near bit 63. So every
        // width-7 pair (4.8M) runs again with one operand moved to the
        // top seven bits: a multiplicand there runs out of live bits
        // within seven steps, and a multiplier there whose top trits
        // are unknown takes the all-unknown exit.
        let all: Vec<Tnum> = tnums(8).collect();
        for &a in &all {
            for &b in &all {
                assert_eq!(a.mul(b), our_mul_simplified(a, b), "{a} * {b}");
            }
        }
        let all: Vec<Tnum> = tnums(7).collect();
        for &a in &all {
            for &b in &all {
                for (p, q) in [(a, b.lshift(57)), (a.lshift(57), b)] {
                    assert_eq!(p.mul(q), our_mul_simplified(p, q), "{p:?} * {q:?}");
                }
            }
        }
    }

    /// A 64-bit operand of one of the shapes the exits of [`Tnum::mul`]
    /// branch on: ⊤, known low bits under unknown high ones, a constant,
    /// a byte (small constant or unknown low bits), or a random tnum.
    fn shaped(rng: &mut SplitMix64) -> Tnum {
        let s = rng.below(65) as u32;
        let high = u64::MAX.checked_shl(s).unwrap_or(0);
        match rng.below(5) {
            0 => Tnum::UNKNOWN,
            1 => Tnum::masked(rng.next_u64() & !high, high),
            2 => Tnum::constant(rng.next_u64() >> rng.below(64)),
            3 => Tnum::random(rng).truncate(8),
            _ => Tnum::random(rng),
        }
    }

    /// `pairs` seeded pairs of [`shaped`] operands: `Tnum::mul` equals
    /// `our_mul_simplified` on each.
    fn fast_paths_match_simplified(seed: u64, pairs: u64) {
        let mut rng = SplitMix64::new(seed);
        for _ in 0..pairs {
            let (a, b) = (shaped(&mut rng), shaped(&mut rng));
            assert_eq!(a.mul(b), our_mul_simplified(a, b), "{a:?} * {b:?}");
        }
    }

    #[test]
    fn our_mul_equals_simplified_on_64_bit_shapes() {
        fast_paths_match_simplified(0x7E57_3A11, 200_000);
        // The exits' edges, exactly: ⊤ by small constants, both ways.
        for c in 0..64 {
            for t in [Tnum::UNKNOWN, Tnum::masked(1, u64::MAX << 1)] {
                let c = Tnum::constant(c);
                assert_eq!(t.mul(c), our_mul_simplified(t, c), "{t:?} * {c:?}");
                assert_eq!(c.mul(t), our_mul_simplified(c, t), "{c:?} * {t:?}");
            }
        }
    }

    #[test]
    #[ignore = "long campaign: 50M seeded 64-bit pairs, about 30 s in release"]
    fn our_mul_equals_simplified_long_campaign() {
        fast_paths_match_simplified(0x10A6_CA3E, 50_000_000);
    }

    #[test]
    fn fig3_worked_example() {
        let p: Tnum = "x01".parse().unwrap();
        let q: Tnum = "x10".parse().unwrap();
        let r = p.mul(q);
        assert_eq!((r.value(), r.mask()), (0b00010, 0b11100));
        // γ(R) = {2, 6, 10, 14, 18, 22, 26, 30}.
        assert_eq!(
            r.concretize().collect::<Vec<_>>(),
            vec![2, 6, 10, 14, 18, 22, 26, 30]
        );
    }

    #[test]
    fn mul_constants_is_concrete() {
        assert_eq!(Tnum::constant(6).mul(Tnum::constant(7)), Tnum::constant(42));
        assert_eq!(
            Tnum::constant(u64::MAX).mul(Tnum::constant(2)),
            Tnum::constant(u64::MAX.wrapping_mul(2))
        );
        assert_eq!(Tnum::UNKNOWN.mul(Tnum::ZERO), Tnum::ZERO);
    }

    #[test]
    fn mul_by_power_of_two_is_shift() {
        for t in tnums(4) {
            assert_eq!(t.mul(Tnum::constant(4)), t.lshift(2));
        }
    }

    #[test]
    fn mul_not_commutative_witness() {
        // §III-A observation (3): tnum multiplication is not commutative.
        let mut found = false;
        'outer: for a in tnums(4) {
            for b in tnums(4) {
                if a.mul(b) != b.mul(a) {
                    found = true;
                    break 'outer;
                }
            }
        }
        assert!(found, "expected a non-commutativity witness at width 4");
    }

    #[test]
    fn paper_incomparability_example_w9() {
        // §IV-A: at n = 9, P = 000000011, Q = 011x011xx gives incomparable
        // outputs from kern_mul and our_mul.
        let p: Tnum = "000000011".parse().unwrap();
        let q: Tnum = "011x011xx".parse().unwrap();
        let kern = p.mul_kernel_legacy(q).truncate(9);
        let ours = p.mul(q).truncate(9);
        assert_eq!(kern.to_bin_string(9), "xxxx0xxxx");
        assert_eq!(ours.to_bin_string(9), "0xxxxxxxx");
        assert!(!kern.is_comparable_to(ours));
    }

    #[test]
    fn our_mul_never_less_precise_when_comparable_w5() {
        // §IV-A empirical claim at small width: when outputs differ and are
        // comparable, count how often each is more precise; our_mul must win
        // the majority (Table I shows 75% at width 5).
        let mut ours_wins = 0u32;
        let mut kern_wins = 0u32;
        for a in tnums(5) {
            for b in tnums(5) {
                let k = a.mul_kernel_legacy(b).truncate(5);
                let o = a.mul(b).truncate(5);
                if k == o {
                    continue;
                }
                if o.is_strict_subset_of(k) {
                    ours_wins += 1;
                } else if k.is_strict_subset_of(o) {
                    kern_wins += 1;
                }
            }
        }
        assert!(
            ours_wins > kern_wins,
            "ours {ours_wins} vs kern {kern_wins}"
        );
    }

    #[test]
    fn hma_accumulates_shifted_masks() {
        // hma(acc, x, y) adds (0, x << i) for each set bit i of y.
        let acc = hma(Tnum::ZERO, 0b1, 0b101);
        let expect = Tnum::masked(0, 0b1).add(Tnum::masked(0, 0b100));
        assert_eq!(acc, expect);
        assert_eq!(hma(Tnum::constant(9), 0b11, 0), Tnum::constant(9));
    }

    #[test]
    fn operator_matches_method() {
        let a: Tnum = "1x".parse().unwrap();
        let b: Tnum = "x1".parse().unwrap();
        assert_eq!(a * b, a.mul(b));
    }

    #[test]
    fn mul_not_monotone_witness() {
        // Unlike tnum_add (optimal, hence monotone), our_mul is *not*
        // monotone in its arguments: refining an input can coarsen the
        // output. This is a consequence of branching on the certainty of
        // the multiplier's LSB. Soundness is unaffected. We pin this
        // property with an exhaustively-found witness at width 3.
        let all: Vec<Tnum> = tnums(3).collect();
        let mut witness = None;
        'outer: for &a in &all {
            for &a2 in &all {
                if !a.is_subset_of(a2) {
                    continue;
                }
                for &b in &all {
                    if !a.mul(b).is_subset_of(a2.mul(b)) {
                        witness = Some((a, a2, b));
                        break 'outer;
                    }
                }
            }
        }
        assert!(
            witness.is_some(),
            "expected a non-monotonicity witness for our_mul at width 3"
        );
    }
}
