//! Branch refinement: sharpening register states along the taken and
//! fall-through edges of a conditional jump — the crate-level analogue of
//! the kernel's `reg_set_min_max` and friends.

use ebpf::JmpOp;
use interval_domain::{Bounds, SInterval, UInterval};
use tnum::Tnum;

use crate::scalar::Scalar;

/// Refines `(dst, src)` assuming the **64-bit** comparison `dst op src`
/// evaluated to `taken`.
///
/// Returns `None` when the assumption is contradictory — the edge is
/// infeasible and the analyzer skips it (path-sensitive dead-code
/// elimination, exactly how the kernel prunes impossible branches).
/// 32-bit comparisons go through [`refine32`].
#[must_use]
pub fn refine(op: JmpOp, taken: bool, dst: Scalar, src: Scalar) -> Option<(Scalar, Scalar)> {
    let effective = if taken { Some(op) } else { op.negated() };
    let Some(op) = effective else {
        // !(dst & src): all common bits are zero.
        return refine_not_set(dst, src);
    };
    match op {
        JmpOp::Eq => {
            let both = dst.intersect(src)?;
            Some((both, both))
        }
        JmpOp::Ne => refine_ne(dst, src),
        JmpOp::Gt => refine_unsigned(dst, src, 1),
        JmpOp::Ge => refine_unsigned(dst, src, 0),
        JmpOp::Lt => refine_unsigned_lt(dst, src, 1),
        JmpOp::Le => refine_unsigned_lt(dst, src, 0),
        JmpOp::Sgt => refine_signed(dst, src, 1),
        JmpOp::Sge => refine_signed(dst, src, 0),
        JmpOp::Slt => refine_signed_lt(dst, src, 1),
        JmpOp::Sle => refine_signed_lt(dst, src, 0),
        JmpOp::Set => refine_set(dst, src),
    }
}

/// Refines `(dst, src)` assuming the **32-bit** comparison
/// `dst.w op src.w` evaluated to `taken` — the kernel's
/// `reg_set_min_max` on the `u32`/`s32` sub-register bounds.
///
/// A 32-bit comparison reads only the zero-extended low halves, so the
/// full [`refine`] machinery runs on [`Scalar::subreg`] of both sides and
/// the refined low-32 knowledge is merged back into the 64-bit values by
/// `merge_subreg`: tnum low bits always transfer; range facts transfer
/// exactly when the 64-bit value provably fits in the low word (then the
/// value *is* its sub-register). `None` still means the edge is
/// infeasible — sound, because an unsigned/equality 32-bit compare is
/// precisely the 64-bit compare of the two sub-register abstractions.
///
/// Signed 32-bit comparisons read the sign at **bit 31**, which the
/// zero-extended sub-register misplaces (`0xffff_ffff` is −1 as `i32`
/// but positive as `i64`), so they refine only when both low words are
/// provably non-negative as `i32` — then the signed compare coincides
/// with the unsigned one — and pass through unrefined otherwise (sound,
/// exactly the pre-PR 3 behaviour).
#[must_use]
pub fn refine32(op: JmpOp, taken: bool, dst: Scalar, src: Scalar) -> Option<(Scalar, Scalar)> {
    let (d, s) = (dst.subreg(), src.subreg());
    let op = match op {
        JmpOp::Sgt | JmpOp::Sge | JmpOp::Slt | JmpOp::Sle => {
            let sign_free =
                d.bounds().umax() <= i32::MAX as u64 && s.bounds().umax() <= i32::MAX as u64;
            if !sign_free {
                return Some((dst, src));
            }
            match op {
                JmpOp::Sgt => JmpOp::Gt,
                JmpOp::Sge => JmpOp::Ge,
                JmpOp::Slt => JmpOp::Lt,
                JmpOp::Sle => JmpOp::Le,
                _ => unreachable!(),
            }
        }
        unsigned_or_eq => unsigned_or_eq,
    };
    let (d32, s32) = refine(op, taken, d, s)?;
    Some((merge_subreg(dst, d32)?, merge_subreg(src, s32)?))
}

/// Folds refined sub-register knowledge back into the full 64-bit value;
/// `None` when the combination is contradictory (infeasible edge).
fn merge_subreg(full: Scalar, sub: Scalar) -> Option<Scalar> {
    const LOW: u64 = u32::MAX as u64;
    // Bit level: the low 32 bits obey the refined subreg, the high 32
    // bits keep whatever the full value knew. Both inputs are
    // well-formed per bit, so the spliced pair is too.
    let (ft, st) = (full.tnum(), sub.tnum());
    let tnum = Tnum::new(
        (ft.value() & !LOW) | (st.value() & LOW),
        (ft.mask() & !LOW) | (st.mask() & LOW),
    )
    .expect("per-bit splice of well-formed tnums is well-formed");
    // Range level: only transferable when the full value provably equals
    // its zero-extended low word.
    let fits_low_word = full.bounds().umax() <= LOW && full.bounds().smin() >= 0;
    let bounds = if fits_low_word {
        full.bounds().intersect(sub.bounds())?
    } else {
        full.bounds()
    };
    Scalar::from_parts(tnum, bounds)
}

/// `dst > src` (strict=1) or `dst >= src` (strict=0):
/// `dst.umin >= src.umin + strict`, `src.umax <= dst.umax - strict`.
fn refine_unsigned(dst: Scalar, src: Scalar, strict: u64) -> Option<(Scalar, Scalar)> {
    let dmin = src.bounds().umin().checked_add(strict)?;
    let smax = dst.bounds().umax().checked_sub(strict)?;
    let d = clamp_u(dst, dmin, u64::MAX)?;
    let s = clamp_u(src, 0, smax)?;
    Some((d, s))
}

/// `dst < src` (strict=1) or `dst <= src` (strict=0).
fn refine_unsigned_lt(dst: Scalar, src: Scalar, strict: u64) -> Option<(Scalar, Scalar)> {
    let (s, d) = refine_unsigned(src, dst, strict)?;
    Some((d, s))
}

/// Signed `dst > src` (strict=1) or `dst >= src` (strict=0).
fn refine_signed(dst: Scalar, src: Scalar, strict: i64) -> Option<(Scalar, Scalar)> {
    let dmin = src.bounds().smin().checked_add(strict)?;
    let smax = dst.bounds().smax().checked_sub(strict)?;
    let d = clamp_s(dst, dmin, i64::MAX)?;
    let s = clamp_s(src, i64::MIN, smax)?;
    Some((d, s))
}

fn refine_signed_lt(dst: Scalar, src: Scalar, strict: i64) -> Option<(Scalar, Scalar)> {
    let (s, d) = refine_signed(src, dst, strict)?;
    Some((d, s))
}

/// `dst != src`: ranges cannot be narrowed in general, but when one side
/// is a constant at the edge of the other's range, the range shrinks by
/// one; and equal constants are contradictory.
fn refine_ne(dst: Scalar, src: Scalar) -> Option<(Scalar, Scalar)> {
    match (dst.as_constant(), src.as_constant()) {
        (Some(a), Some(b)) if a == b => None,
        (_, Some(c)) => Some((shave(dst, c)?, src)),
        (Some(c), _) => Some((dst, shave(src, c)?)),
        _ => Some((dst, src)),
    }
}

/// Removes a constant from a scalar's range when it sits at an endpoint —
/// of **either** view. A constant strictly inside `[umin, umax]` can
/// still sit at `smin`/`smax` (and vice versa), so both views are shaved;
/// the product's normalization then propagates the tightening across.
fn shave(s: Scalar, c: u64) -> Option<Scalar> {
    let b = s.bounds();
    let mut out = s;
    if b.umin() == c {
        out = clamp_u(out, c.checked_add(1)?, u64::MAX)?;
    } else if b.umax() == c {
        out = clamp_u(out, 0, c.checked_sub(1)?)?;
    }
    let (b, ci) = (out.bounds(), c as i64);
    if b.smin() == ci {
        out = clamp_s(out, ci.checked_add(1)?, i64::MAX)?;
    } else if b.smax() == ci {
        out = clamp_s(out, i64::MIN, ci.checked_sub(1)?)?;
    }
    Some(out)
}

/// `dst & src != 0`: when the mask is a single known bit, that bit of dst
/// is known 1.
fn refine_set(dst: Scalar, src: Scalar) -> Option<(Scalar, Scalar)> {
    if let Some(mask) = src.as_constant() {
        if mask == 0 {
            // dst & 0 != 0 is impossible.
            return None;
        }
        if mask.is_power_of_two() {
            let bit_known_one = Tnum::masked(mask, !mask);
            let d = Scalar::from_parts(dst.tnum().intersect(bit_known_one)?, dst.bounds())?;
            return Some((d, src));
        }
    }
    Some((dst, src))
}

/// `dst & src == 0`: every possibly-set bit of the mask is known 0 in dst.
fn refine_not_set(dst: Scalar, src: Scalar) -> Option<(Scalar, Scalar)> {
    if let Some(mask) = src.as_constant() {
        let bits_zero = Tnum::masked(0, !mask);
        let d = Scalar::from_parts(dst.tnum().intersect(bits_zero)?, dst.bounds())?;
        return Some((d, src));
    }
    Some((dst, src))
}

fn clamp_u(s: Scalar, lo: u64, hi: u64) -> Option<Scalar> {
    let range = Bounds::from_unsigned(UInterval::new(lo, hi)?);
    Scalar::from_parts(s.tnum(), s.bounds().intersect(range)?)
}

fn clamp_s(s: Scalar, lo: i64, hi: i64) -> Option<Scalar> {
    let range = Bounds::from_signed(SInterval::new(lo, hi)?);
    Scalar::from_parts(s.tnum(), s.bounds().intersect(range)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unknown() -> Scalar {
        Scalar::unknown()
    }

    fn konst(v: u64) -> Scalar {
        Scalar::constant(v)
    }

    /// Soundness oracle: refined abstractions must keep every concrete
    /// pair that satisfies the branch condition.
    fn check_sound(op: JmpOp, dst: Scalar, src: Scalar, samples: &[(u64, u64)]) {
        for taken in [true, false] {
            let refined = refine(op, taken, dst, src);
            for &(x, y) in samples {
                if !dst.contains(x) || !src.contains(y) {
                    continue;
                }
                if op.eval64(x, y) == taken {
                    let (d, s) = refined
                        .unwrap_or_else(|| panic!("{op:?}/{taken}: feasible but refined to ⊥"));
                    assert!(d.contains(x), "{op:?}/{taken}: lost dst={x}");
                    assert!(s.contains(y), "{op:?}/{taken}: lost src={y}");
                }
            }
        }
    }

    #[test]
    fn all_ops_sound_on_samples() {
        let values = [
            0u64,
            1,
            2,
            5,
            7,
            8,
            100,
            u64::MAX,
            u64::MAX - 1,
            1 << 63,
            (1 << 63) - 1,
            // Signed-boundary members: the endpoints (and their
            // neighbours) of the signed abstractions below, locking in
            // the signed half of `shave`.
            (-5i64) as u64,
            (-4i64) as u64,
            (-1i64) as u64,
            3,
            4,
        ];
        let mut samples = Vec::new();
        for &x in &values {
            for &y in &values {
                samples.push((x, y));
            }
        }
        let abstractions = [
            unknown(),
            konst(5),
            konst(0),
            konst(u64::MAX),
            konst((-5i64) as u64),
            Scalar::from_tnum("1xx".parse().unwrap()),
            Scalar::from_parts(
                Tnum::UNKNOWN,
                Bounds::from_unsigned(UInterval::new(2, 100).unwrap()),
            )
            .unwrap(),
            // Straddles zero: its signed endpoints are strictly inside
            // the unsigned view, the case the signed shave exists for.
            Scalar::from_parts(
                Tnum::UNKNOWN,
                Bounds::from_signed(SInterval::new(-5, 4).unwrap()),
            )
            .unwrap(),
        ];
        for op in JmpOp::ALL {
            for &d in &abstractions {
                for &s in &abstractions {
                    check_sound(op, d, s, &samples);
                }
            }
        }
    }

    /// The 32-bit soundness oracle: refined abstractions must keep every
    /// concrete pair whose *low words* satisfy the branch condition.
    fn check_sound32(op: JmpOp, dst: Scalar, src: Scalar, samples: &[(u64, u64)]) {
        for taken in [true, false] {
            let refined = refine32(op, taken, dst, src);
            for &(x, y) in samples {
                if !dst.contains(x) || !src.contains(y) {
                    continue;
                }
                if op.eval32(x, y) == taken {
                    let (d, s) = refined
                        .unwrap_or_else(|| panic!("{op:?}/{taken} w32: feasible but refined to ⊥"));
                    assert!(d.contains(x), "{op:?}/{taken} w32: lost dst={x:#x}");
                    assert!(s.contains(y), "{op:?}/{taken} w32: lost src={y:#x}");
                }
            }
        }
    }

    #[test]
    fn all_ops_sound_on_samples_w32() {
        // Values whose high and low words stress the subreg split: equal
        // low words with different high words, sign-boundary low words,
        // and plain small values.
        let values = [
            0u64,
            1,
            7,
            8,
            0xffff_ffff,
            0x1_0000_0000,
            0x1_0000_0007,
            0xdead_beef_0000_0008,
            u64::MAX,
            (1 << 31) - 1,
            1 << 31,
            (-5i64) as u64,
        ];
        let mut samples = Vec::new();
        for &x in &values {
            for &y in &values {
                samples.push((x, y));
            }
        }
        let abstractions = [
            unknown(),
            konst(5),
            konst(0xffff_ffff),
            konst(0x1_0000_0007),
            konst((-5i64) as u64),
            Scalar::from_tnum("1xx".parse().unwrap()),
            // High bits unknown, low byte masked: only the tnum can carry
            // the refinement back.
            Scalar::from_tnum(Tnum::masked(0, 0xff)),
            Scalar::from_parts(
                Tnum::UNKNOWN,
                Bounds::from_unsigned(UInterval::new(2, 100).unwrap()),
            )
            .unwrap(),
        ];
        for op in JmpOp::ALL {
            for &d in &abstractions {
                for &s in &abstractions {
                    check_sound32(op, d, s, &samples);
                }
            }
        }
    }

    #[test]
    fn refine32_bounds_small_values_exactly() {
        // A value known to fit the low word transfers range facts fully.
        let byte = Scalar::from_tnum(Tnum::masked(0, 0xff));
        let (d, _) = refine32(JmpOp::Lt, true, byte, konst(16)).unwrap();
        assert_eq!(d.bounds().umax(), 15);
        let (d, _) = refine32(JmpOp::Gt, false, byte, konst(7)).unwrap();
        assert_eq!(d.bounds().umax(), 7);
        // Equal-constant low words with a contradictory condition prune.
        assert!(refine32(JmpOp::Ne, true, konst(3), konst(3)).is_none());
        assert!(refine32(JmpOp::Gt, true, konst(3), konst(9)).is_none());
    }

    #[test]
    fn refine32_keeps_unrelated_high_bits() {
        // dst = 0x1_0000_00xx: the compare sees only the low word, so the
        // taken edge of `w < 16` keeps the high bit and caps the low byte.
        let high_plus_byte =
            Scalar::from_parts(Tnum::masked(1 << 32, 0xff), interval_domain::Bounds::FULL).unwrap();
        let (d, _) = refine32(JmpOp::Lt, true, high_plus_byte, konst(16)).unwrap();
        assert!(d.contains(0x1_0000_0005));
        assert!(!d.contains(0x1_0000_0020), "low word capped below 16");
        assert_eq!(d.tnum().value() & (1 << 32), 1 << 32, "high bit kept");
        // The full-range bounds must NOT be intersected with the subreg
        // range (the value does not fit the low word).
        assert!(d.bounds().umax() >= 1 << 32);
    }

    #[test]
    fn lt_refines_upper_bound() {
        // if r < 8: range becomes [0, 7] on the taken edge.
        let (d, _) = refine(JmpOp::Lt, true, unknown(), konst(8)).unwrap();
        assert_eq!(d.bounds().umax(), 7);
        // ... and [8, MAX] on the fall-through edge.
        let (d, _) = refine(JmpOp::Lt, false, unknown(), konst(8)).unwrap();
        assert_eq!(d.bounds().umin(), 8);
    }

    #[test]
    fn eq_pins_constant_and_detects_dead_branch() {
        let (d, s) = refine(JmpOp::Eq, true, unknown(), konst(42)).unwrap();
        assert_eq!(d.as_constant(), Some(42));
        assert_eq!(s.as_constant(), Some(42));
        // 3 == 4 taken: infeasible.
        assert_eq!(refine(JmpOp::Eq, true, konst(3), konst(4)), None);
        // 3 != 3 taken: infeasible.
        assert_eq!(refine(JmpOp::Ne, true, konst(3), konst(3)), None);
    }

    #[test]
    fn signed_refinement() {
        // if r s< 0 not taken: r >= 0 in the signed view.
        let (d, _) = refine(JmpOp::Slt, false, unknown(), konst(0)).unwrap();
        assert_eq!(d.bounds().smin(), 0);
        // That also fixes the unsigned range below the sign boundary.
        assert!(d.bounds().umax() <= i64::MAX as u64);
    }

    #[test]
    fn set_refines_tnum_bits() {
        // if r & 0x8 taken with single-bit mask: bit 3 known one.
        let (d, _) = refine(JmpOp::Set, true, unknown(), konst(8)).unwrap();
        assert_eq!(d.tnum().value() & 8, 8);
        // Fall-through: bit 3 known zero; multi-bit masks clear all bits.
        let (d, _) = refine(JmpOp::Set, false, unknown(), konst(0b1010)).unwrap();
        assert_eq!(d.tnum().mask() & 0b1010, 0);
        assert_eq!(d.tnum().value() & 0b1010, 0);
        assert!(d.bounds().umax() <= !0b1010u64);
        // dst & 0 is never nonzero.
        assert_eq!(refine(JmpOp::Set, true, unknown(), konst(0)), None);
    }

    #[test]
    fn ne_shaves_range_endpoints() {
        let ranged = Scalar::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_unsigned(UInterval::new(0, 10).unwrap()),
        )
        .unwrap();
        let (d, _) = refine(JmpOp::Ne, true, ranged, konst(10)).unwrap();
        assert_eq!(d.bounds().umax(), 9);
        let (d, _) = refine(JmpOp::Ne, true, ranged, konst(0)).unwrap();
        assert_eq!(d.bounds().umin(), 1);
        // Interior constants do not shrink the range.
        let (d, _) = refine(JmpOp::Ne, true, ranged, konst(5)).unwrap();
        assert_eq!((d.bounds().umin(), d.bounds().umax()), (0, 10));
    }

    #[test]
    fn ne_shaves_signed_endpoints() {
        // [-5, 4] signed: both signed endpoints are strictly inside the
        // unsigned view ([0, u64::MAX]-ish), so the unsigned-only shave
        // used to keep them silently.
        let straddling = Scalar::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_signed(SInterval::new(-5, 4).unwrap()),
        )
        .unwrap();
        let (d, _) = refine(JmpOp::Ne, true, straddling, konst((-5i64) as u64)).unwrap();
        assert_eq!(d.bounds().smin(), -4, "smin endpoint shaved");
        let (d, _) = refine(JmpOp::Ne, true, straddling, konst(4)).unwrap();
        assert_eq!(d.bounds().smax(), 3, "smax endpoint shaved");
        // Signed-interior constants still leave the range alone.
        let (d, _) = refine(JmpOp::Ne, true, straddling, konst(0)).unwrap();
        assert_eq!((d.bounds().smin(), d.bounds().smax()), (-5, 4));
        // A negative-range abstraction whose unsigned endpoints coincide
        // with the signed ones shaves exactly once, from both views.
        let negative = Scalar::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_signed(SInterval::new(-9, -3).unwrap()),
        )
        .unwrap();
        let (d, _) = refine(JmpOp::Ne, true, negative, konst((-3i64) as u64)).unwrap();
        assert_eq!(d.bounds().smax(), -4);
        assert_eq!(d.bounds().umax(), (-4i64) as u64);
    }

    #[test]
    fn gt_between_two_unknowns_refines_both() {
        let lowish = Scalar::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_unsigned(UInterval::new(0, 50).unwrap()),
        )
        .unwrap();
        let highish = Scalar::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_unsigned(UInterval::new(40, 100).unwrap()),
        )
        .unwrap();
        // lowish > highish on the taken edge: lowish in [41, 50],
        // highish in [40, 49].
        let (d, s) = refine(JmpOp::Gt, true, lowish, highish).unwrap();
        assert_eq!((d.bounds().umin(), d.bounds().umax()), (41, 50));
        assert_eq!((s.bounds().umin(), s.bounds().umax()), (40, 49));
        // Infeasible direction: highish <= lowish impossible when disjoint.
        let low = clamp_u(unknown(), 0, 3).unwrap();
        let high = clamp_u(unknown(), 10, 20).unwrap();
        assert!(refine(JmpOp::Gt, true, low, high).is_none());
    }
}
