//! The scalar register abstraction: the reduced product of tnum × bounds.

use core::fmt;

use ebpf::{AluOp, Width};
use interval_domain::Bounds;
use tnum::Tnum;

use crate::product::Product;

/// The abstract value of a scalar (non-pointer) register: the reduced
/// product of a [`Tnum`] and [`Bounds`].
///
/// `Scalar` is a type alias for the generic [`Product`], which supplies
/// the lattice operations (`union`, `intersect`, `is_subset_of`,
/// `contains`) and the kernel's `reg_bounds_sync` cross-refinement
/// ([`Product::normalize`], built on `domain::RefineFrom`). This module
/// adds the BPF-specific transfer functions — the 64-bit and 32-bit ALU
/// semantics the analyzer interprets instructions with.
///
/// # Examples
///
/// ```
/// use ebpf::AluOp;
/// use verifier::Scalar;
/// use tnum::Tnum;
///
/// let s = Scalar::unknown().alu64(AluOp::And, Scalar::constant(0b110));
/// assert_eq!(s.tnum(), "xx0".parse::<Tnum>()?);
/// assert_eq!(s.bounds().umax(), 6);   // range recovered from the tnum
/// assert!(s.contains(0b100) && !s.contains(1));
/// # Ok::<(), tnum::ParseTnumError>(())
/// ```
pub type Scalar = Product<Tnum, Bounds>;

impl Scalar {
    /// Builds the scalar equivalent of a tnum.
    #[must_use]
    pub fn from_tnum(tnum: Tnum) -> Scalar {
        Scalar::raw(tnum, Bounds::from_tnum(tnum))
    }

    /// The bit-level component.
    #[must_use]
    pub const fn tnum(self) -> Tnum {
        self.a
    }

    /// Widening `self ∇ newer` with the interval half extended by
    /// harvested thresholds ([`Bounds::widen_with`]) and the tnum half
    /// jumping ([`Tnum::widen`]: every trit from the lowest newly unknown
    /// one upward turns unknown). Like the generic [`Product::widen`], the
    /// result is deliberately not re-normalized.
    #[must_use]
    pub fn widen_with(
        self,
        newer: Scalar,
        thresholds: &interval_domain::WidenThresholds,
    ) -> Scalar {
        Scalar::raw(
            self.a.widen(newer.a),
            self.b.widen_with(newer.b, thresholds),
        )
    }

    /// [`Scalar::widen_with`] with the tnum half joined instead of
    /// widened: the path walk's loop-head summaries, which are its report
    /// and which no later pass re-derives, extrapolate only their bounds.
    pub(crate) fn widen_bounds_with(
        self,
        newer: Scalar,
        thresholds: &interval_domain::WidenThresholds,
    ) -> Scalar {
        Scalar::raw(
            self.a.union(newer.a),
            self.b.widen_with(newer.b, thresholds),
        )
    }

    /// The range component.
    #[must_use]
    pub const fn bounds(self) -> Bounds {
        self.b
    }

    /// Applies a 64-bit ALU operation.
    #[must_use]
    pub fn alu64(self, op: AluOp, rhs: Scalar) -> Scalar {
        let raw = match op {
            AluOp::Add => Scalar::raw(self.a.add(rhs.a), self.b.add(rhs.b)),
            AluOp::Sub => Scalar::raw(self.a.sub(rhs.a), self.b.sub(rhs.b)),
            AluOp::Mul => Scalar::raw(self.a.mul(rhs.a), self.b.mul(rhs.b)),
            AluOp::Or => Scalar::raw(self.a.or(rhs.a), self.b.or(rhs.b)),
            AluOp::And => Scalar::raw(self.a.and(rhs.a), self.b.and(rhs.b)),
            AluOp::Xor => Scalar::raw(self.a.xor(rhs.a), self.b.xor(rhs.b)),
            AluOp::Div => Scalar::raw(self.a.div(rhs.a), self.b.div(rhs.b)),
            AluOp::Mod => Scalar::raw(self.a.rem(rhs.a), self.b.rem(rhs.b)),
            AluOp::Neg => Scalar::raw(self.a.neg(), self.b.neg()),
            AluOp::Mov => rhs,
            AluOp::Lsh => self.shift64(rhs, Tnum::lshift, Bounds::lshift, Tnum::lshift_tnum),
            AluOp::Rsh => self.shift64(rhs, Tnum::rshift, Bounds::rshift, Tnum::rshift_tnum),
            AluOp::Arsh => self.shift64(rhs, Tnum::arshift, Bounds::arshift, Tnum::arshift_tnum),
        };
        raw.normalize().unwrap_or_else(Scalar::unknown)
    }

    fn shift64(
        self,
        amount: Scalar,
        tnum_const: impl Fn(Tnum, u32) -> Tnum,
        bounds_const: impl Fn(Bounds, u32) -> Bounds,
        tnum_var: impl Fn(Tnum, Tnum) -> Tnum,
    ) -> Scalar {
        // BPF masks the shift amount to the operand width.
        match amount.as_constant() {
            Some(k) => {
                let k = (k & 63) as u32;
                Scalar::raw(tnum_const(self.a, k), bounds_const(self.b, k))
            }
            None => {
                let masked = amount.a.and(Tnum::constant(63));
                let t = tnum_var(self.a, masked);
                Scalar::raw(t, Bounds::from_tnum(t))
            }
        }
    }

    /// Applies a 32-bit ALU operation: computed on the low halves, with the
    /// result zero-extended, exactly as the concrete `alu32` semantics.
    #[must_use]
    pub fn alu32(self, op: AluOp, rhs: Scalar) -> Scalar {
        let a = self.subreg();
        let b = rhs.subreg();
        // Compute in the 64-bit domain on zero-extended halves, then wrap
        // to 32 bits. For every ALU op, the low 32 result bits of the
        // 64-bit computation equal the 32-bit computation (shifts use the
        // masked amount below).
        let wide = match op {
            AluOp::Lsh | AluOp::Rsh | AluOp::Arsh => {
                let k = b.as_constant().map(|k| (k & 31) as u32);
                match (op, k) {
                    (AluOp::Lsh, Some(k)) => Scalar::raw(a.a.lshift(k), a.b.lshift(k)),
                    (AluOp::Rsh, Some(k)) => Scalar::raw(a.a.subreg().rshift(k), a.b.rshift(k)),
                    (AluOp::Arsh, Some(k)) => {
                        let t = a.a.arshift_width(k, 32);
                        Scalar::raw(t, Bounds::from_tnum(t.subreg()))
                    }
                    // Variable 32-bit shift amounts: give up precision on
                    // the subreg (sound: any 32-bit value).
                    _ => Scalar::from_tnum(Tnum::masked(0, u32::MAX as u64)),
                }
            }
            AluOp::Div => Scalar::raw(a.a.div(b.a), a.b.div(b.b)),
            AluOp::Mod => Scalar::raw(a.a.rem(b.a), a.b.rem(b.b)),
            AluOp::Neg => Scalar::raw(a.a.neg(), Bounds::FULL),
            _ => a.alu64(op, b),
        };
        let t = wide.a.subreg();
        let b32 = wrap32(wide.b)
            .intersect(Bounds::from_tnum(t))
            .unwrap_or_else(|| Bounds::from_tnum(t));
        Scalar::raw(t, b32)
            .normalize()
            .unwrap_or_else(Scalar::unknown)
    }

    /// The abstraction of the low 32 bits, zero-extended.
    #[must_use]
    pub fn subreg(self) -> Scalar {
        let t = self.a.subreg();
        let mut b = Bounds::from_tnum(t);
        // The 64-bit range carries over exactly when it fits in 32 bits.
        if self.b.umax() <= u32::MAX as u64 {
            b = b.intersect(self.b).unwrap_or(b);
        }
        Scalar::raw(t, b)
            .normalize()
            .unwrap_or_else(Scalar::unknown)
    }
}

/// Wraps 64-bit bounds into the `[0, u32::MAX]` window: exact if the range
/// already fits, full 32-bit range if it may wrap.
fn wrap32(b: Bounds) -> Bounds {
    if b.umax() <= u32::MAX as u64 {
        b
    } else {
        Bounds::from_unsigned(
            interval_domain::UInterval::new(0, u32::MAX as u64).expect("valid range"),
        )
    }
}

impl fmt::Debug for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scalar({} {:?})", self.a, self.b)
    }
}

/// Compact human-readable form, as used by the verifier log
/// ([`Analysis::annotate`](crate::Analysis::annotate)): constants print
/// as numbers (signed when that is shorter), otherwise only the
/// informative components are shown — the tnum in hex when it knows
/// anything, unsigned/signed ranges when they are not full — and a value
/// with no information prints as `unknown`.
impl fmt::Display for Scalar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(c) = self.as_constant() {
            return if (c as i64) < 0 && (c as i64) > -65536 {
                write!(f, "{}", c as i64)
            } else {
                write!(f, "{c}")
            };
        }
        let mut parts: Vec<String> = Vec::new();
        if !self.a.is_unknown() {
            parts.push(format!("tnum={:x}", self.a));
        }
        let b = self.b;
        if !(b.umin() == 0 && b.umax() == u64::MAX) {
            parts.push(format!("u[{}, {}]", b.umin(), b.umax()));
        }
        if !(b.smin() == i64::MIN && b.smax() == i64::MAX)
            && (b.smin() < 0 || b.smax() != b.umax() as i64 || b.smin() != b.umin() as i64)
        {
            parts.push(format!("s[{}, {}]", b.smin(), b.smax()));
        }
        if parts.is_empty() {
            f.write_str("unknown")
        } else {
            f.write_str(&parts.join(" "))
        }
    }
}

/// Convenience: apply an ALU op at either width.
impl Scalar {
    /// Dispatches on the instruction width.
    #[must_use]
    pub fn alu(self, width: Width, op: AluOp, rhs: Scalar) -> Scalar {
        match width {
            Width::W64 => self.alu64(op, rhs),
            Width::W32 => self.alu32(op, rhs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive small-domain soundness: every op, every width, over
    /// abstract operands derived from small concrete sets.
    #[test]
    fn alu_ops_sound_on_sampled_abstractions() {
        let abstractions: Vec<(Scalar, Vec<u64>)> = vec![
            (Scalar::constant(0), vec![0]),
            (Scalar::constant(7), vec![7]),
            (Scalar::constant(u64::MAX), vec![u64::MAX]),
            (
                Scalar::from_tnum("x1x".parse().unwrap()),
                "x1x".parse::<Tnum>().unwrap().concretize().collect(),
            ),
            (
                Scalar::from_tnum("1xx0".parse().unwrap()),
                "1xx0".parse::<Tnum>().unwrap().concretize().collect(),
            ),
            (
                Scalar::from_parts(
                    Tnum::UNKNOWN,
                    Bounds::from_unsigned(interval_domain::UInterval::new(3, 6).unwrap()),
                )
                .unwrap(),
                vec![3, 4, 5, 6],
            ),
            (
                Scalar::from_tnum(Tnum::masked(1 << 63, 0b11)),
                Tnum::masked(1 << 63, 0b11).concretize().collect(),
            ),
        ];
        for (sa, xs) in &abstractions {
            for (sb, ys) in &abstractions {
                for op in AluOp::ALL {
                    for width in [Width::W64, Width::W32] {
                        let r = sa.alu(width, op, *sb);
                        for &x in xs {
                            for &y in ys {
                                let concrete = concrete_alu(width, op, x, y);
                                assert!(
                                    r.contains(concrete),
                                    "{op:?}/{width:?}: {x} op {y} = {concrete} \
                                     not in {r:?} (a={sa:?}, b={sb:?})"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    fn concrete_alu(width: Width, op: AluOp, x: u64, y: u64) -> u64 {
        // Mirrors the VM's semantics.
        match width {
            Width::W64 => match op {
                AluOp::Add => x.wrapping_add(y),
                AluOp::Sub => x.wrapping_sub(y),
                AluOp::Mul => x.wrapping_mul(y),
                AluOp::Div => {
                    if y == 0 {
                        0
                    } else {
                        x / y
                    }
                }
                AluOp::Mod => {
                    if y == 0 {
                        x
                    } else {
                        x % y
                    }
                }
                AluOp::Or => x | y,
                AluOp::And => x & y,
                AluOp::Xor => x ^ y,
                AluOp::Lsh => x.wrapping_shl(y as u32 & 63),
                AluOp::Rsh => x.wrapping_shr(y as u32 & 63),
                AluOp::Arsh => ((x as i64).wrapping_shr(y as u32 & 63)) as u64,
                AluOp::Neg => x.wrapping_neg(),
                AluOp::Mov => y,
            },
            Width::W32 => {
                let (a, b) = (x as u32, y as u32);
                (match op {
                    AluOp::Add => a.wrapping_add(b),
                    AluOp::Sub => a.wrapping_sub(b),
                    AluOp::Mul => a.wrapping_mul(b),
                    AluOp::Div => {
                        if b == 0 {
                            0
                        } else {
                            a / b
                        }
                    }
                    AluOp::Mod => {
                        if b == 0 {
                            a
                        } else {
                            a % b
                        }
                    }
                    AluOp::Or => a | b,
                    AluOp::And => a & b,
                    AluOp::Xor => a ^ b,
                    AluOp::Lsh => a.wrapping_shl(b & 31),
                    AluOp::Rsh => a.wrapping_shr(b & 31),
                    AluOp::Arsh => ((a as i32).wrapping_shr(b & 31)) as u32,
                    AluOp::Neg => a.wrapping_neg(),
                    AluOp::Mov => b,
                }) as u64
            }
        }
    }

    #[test]
    fn masking_bounds_via_tnum() {
        // The paper's §I story: after `r &= 6`, the range is [0, 6] even
        // though the interval domain alone knows nothing.
        let s = Scalar::unknown().alu64(AluOp::And, Scalar::constant(6));
        assert_eq!(s.bounds().umax(), 6);
        assert_eq!(s.bounds().umin(), 0);
        assert_eq!(s.bounds().smin(), 0);
    }

    #[test]
    fn range_knowledge_sharpens_tnum() {
        // Conversely, a range [8, 11] pins the tnum prefix 10xx.
        let b = Bounds::from_unsigned(interval_domain::UInterval::new(8, 11).unwrap());
        let s = Scalar::from_parts(Tnum::UNKNOWN, b).unwrap();
        assert_eq!(s.tnum(), "10xx".parse().unwrap());
    }

    #[test]
    fn constants_fold_through_all_ops() {
        let a = Scalar::constant(24);
        let b = Scalar::constant(5);
        assert_eq!(a.alu64(AluOp::Add, b).as_constant(), Some(29));
        assert_eq!(a.alu64(AluOp::Div, b).as_constant(), Some(4));
        assert_eq!(a.alu64(AluOp::Mod, b).as_constant(), Some(4));
        assert_eq!(a.alu64(AluOp::Lsh, b).as_constant(), Some(24 << 5));
        assert_eq!(a.alu32(AluOp::Sub, b).as_constant(), Some(19));
    }

    #[test]
    fn alu32_zero_extends() {
        let max = Scalar::constant(u64::MAX);
        let r = max.alu32(AluOp::Add, Scalar::constant(1));
        assert_eq!(r.as_constant(), Some(0));
        let copy = max.alu32(AluOp::Mov, max);
        assert_eq!(copy.as_constant(), Some(0xffff_ffff));
    }

    #[test]
    fn join_and_order() {
        let a = Scalar::constant(4);
        let b = Scalar::constant(6);
        let j = a.union(b);
        assert!(a.is_subset_of(j) && b.is_subset_of(j));
        assert!(j.contains(4) && j.contains(6));
        // The join knows bit 0 is zero and the range is [4, 6].
        assert_eq!(j.bounds().umin(), 4);
        assert_eq!(j.bounds().umax(), 6);
        assert!(!j.tnum().contains(5) || !j.bounds().contains(5) || j.contains(5));
    }

    #[test]
    fn intersect_detects_contradiction() {
        let low = Scalar::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_unsigned(interval_domain::UInterval::new(0, 3).unwrap()),
        )
        .unwrap();
        let high_bit = Scalar::from_tnum("1xxx".parse().unwrap());
        assert_eq!(low.intersect(high_bit), None);
    }

    #[test]
    fn empty_pair_straddling_both_sign_boundaries_is_bottom() {
        // u [i64::MAX, 2^63] and s [-1, 0] share no value, though both
        // views straddle their sign boundaries.
        use interval_domain::{sign_lattice, SInterval, UInterval};
        let u = UInterval::new(i64::MAX as u64, 1 << 63).unwrap();
        let s = SInterval::new(-1, 0).unwrap();
        let (by_u, by_s) = (Bounds::from_unsigned(u), Bounds::from_signed(s));
        assert_eq!(by_u.intersect(by_s), None);
        let [a, b] = [by_u, by_s].map(|b| Scalar::from_parts(Tnum::UNKNOWN, b).unwrap());
        assert_eq!(a.intersect(b), None);
        // The raw pair, as widening can leave it.
        let raw = sign_lattice::views()
            .into_iter()
            .find(|b| b.unsigned() == u && b.signed() == s)
            .expect("a lattice view pair");
        assert_eq!(Scalar::from_parts(Tnum::UNKNOWN, raw), None);
    }

    #[test]
    fn variable_shift_is_sound() {
        let v = Scalar::constant(1);
        let amt = Scalar::from_tnum("xx".parse().unwrap()); // 0..=3
        let r = v.alu64(AluOp::Lsh, amt);
        for k in 0..4u64 {
            assert!(r.contains(1 << k), "1 << {k}");
        }
    }
}
