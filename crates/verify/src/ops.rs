//! The catalog of abstract/concrete operator pairs under verification,
//! generic over the abstract domain.
//!
//! Each [`Op2`] couples a binary abstract operator over some
//! [`AbstractDomain`](domain::AbstractDomain) `D` with the concrete `u64` operation it abstracts,
//! both parameterized by a bit width `w`: abstract results are truncated
//! to `w` bits and concrete results are reduced mod `2^w`, which is exact
//! for all operators in the catalog (carries/borrows/partial products
//! only propagate upward; shift amounts are reduced before use).
//!
//! [`OpCatalog`] builds the pairs from the [`ArithDomain`] /
//! [`BitwiseDomain`] transformer traits, so the *same* catalog definition
//! serves tnums, LLVM known-bits, and kernel bounds; the Tnum-only
//! multiplication variants the paper compares (`kern_mul`, `bitwise_mul`,
//! `our_mul_simplified`) are provided by an additional
//! `impl OpCatalog<Tnum>` block.

use domain::{ArithDomain, BitwiseDomain};
use tnum::{low_bits, Tnum};

/// A verifiable pair of abstract and concrete binary operators over the
/// domain `D`.
pub struct Op2<D> {
    /// Human-readable operator name (matches the paper's terminology).
    pub name: &'static str,
    /// The abstract operator (`opT`), width-adjusted.
    pub abstract_op: fn(D, D, u32) -> D,
    /// The concrete operator (`opC`), width-adjusted.
    pub concrete_op: fn(u64, u64, u32) -> u64,
}

// Manual impls: `D` only appears inside `fn` pointers, which are always
// `Copy`, so no `D: Clone` bound is needed (derive would add one).
impl<D> Clone for Op2<D> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<D> Copy for Op2<D> {}

impl<D> core::fmt::Debug for Op2<D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Op2({})", self.name)
    }
}

/// The operator catalog for the domain `D`: the operators the paper's
/// bounded-verification campaign covers (§III-A), built from the
/// transformer traits. `OpCatalog<Tnum>` additionally carries the three
/// multiplication algorithms compared in §IV.
pub struct OpCatalog<D>(core::marker::PhantomData<D>);

impl<D: ArithDomain + BitwiseDomain> OpCatalog<D> {
    /// Abstract addition vs wrapping addition.
    #[must_use]
    pub fn add() -> Op2<D> {
        Op2 {
            name: "add",
            abstract_op: |a, b, w| a.abs_add(b).truncate(w),
            concrete_op: |x, y, w| x.wrapping_add(y) & low_bits(w),
        }
    }

    /// Abstract subtraction vs wrapping subtraction.
    #[must_use]
    pub fn sub() -> Op2<D> {
        Op2 {
            name: "sub",
            abstract_op: |a, b, w| a.abs_sub(b).truncate(w),
            concrete_op: |x, y, w| x.wrapping_sub(y) & low_bits(w),
        }
    }

    /// The domain's multiplication vs wrapping multiplication (for tnums
    /// this is the paper's `our_mul`, now the kernel's `tnum_mul`).
    #[must_use]
    pub fn mul() -> Op2<D> {
        Op2 {
            name: "mul",
            abstract_op: |a, b, w| a.abs_mul(b).truncate(w),
            concrete_op: |x, y, w| x.wrapping_mul(y) & low_bits(w),
        }
    }

    /// Abstract bitwise AND.
    #[must_use]
    pub fn and() -> Op2<D> {
        Op2 {
            name: "and",
            abstract_op: |a, b, w| a.abs_and(b).truncate(w),
            concrete_op: |x, y, w| (x & y) & low_bits(w),
        }
    }

    /// Abstract bitwise OR.
    #[must_use]
    pub fn or() -> Op2<D> {
        Op2 {
            name: "or",
            abstract_op: |a, b, w| a.abs_or(b).truncate(w),
            concrete_op: |x, y, w| (x | y) & low_bits(w),
        }
    }

    /// Abstract bitwise XOR.
    #[must_use]
    pub fn xor() -> Op2<D> {
        Op2 {
            name: "xor",
            abstract_op: |a, b, w| a.abs_xor(b).truncate(w),
            concrete_op: |x, y, w| (x ^ y) & low_bits(w),
        }
    }

    /// Left shift by an abstract amount. Shift counts follow the 64-bit
    /// BPF instruction semantics (`amount & 63`) at every verification
    /// width; the width only truncates the *value*.
    #[must_use]
    pub fn lshift() -> Op2<D> {
        Op2 {
            name: "lshift",
            abstract_op: |a, b, w| a.abs_shl(b, w).truncate(w),
            concrete_op: |x, y, w| (x << (y & 63)) & low_bits(w),
        }
    }

    /// Logical right shift by an abstract amount (count masked `& 63`).
    #[must_use]
    pub fn rshift() -> Op2<D> {
        Op2 {
            name: "rshift",
            abstract_op: |a, b, w| a.abs_lshr(b, w).truncate(w),
            concrete_op: |x, y, w| (x >> (y & 63)) & low_bits(w),
        }
    }

    /// Arithmetic right shift (width-aware sign) by an abstract amount
    /// (count masked `& 63`).
    #[must_use]
    pub fn arshift() -> Op2<D> {
        Op2 {
            name: "arshift",
            abstract_op: |a, b, w| a.abs_ashr(b, w).truncate(w),
            concrete_op: |x, y, w| {
                let sx = sign_extend(x, w);
                ((sx >> (y & 63)) as u64) & low_bits(w)
            },
        }
    }

    /// Abstract division with BPF `x / 0 = 0` semantics.
    #[must_use]
    pub fn div() -> Op2<D> {
        Op2 {
            name: "div",
            abstract_op: |a, b, w| a.abs_div(b).truncate(w),
            concrete_op: |x, y, w| (if y == 0 { 0 } else { x / y }) & low_bits(w),
        }
    }

    /// Abstract remainder with BPF `x % 0 = x` semantics.
    #[must_use]
    pub fn rem() -> Op2<D> {
        Op2 {
            name: "mod",
            abstract_op: |a, b, w| a.abs_rem(b).truncate(w),
            concrete_op: |x, y, w| (if y == 0 { x } else { x % y }) & low_bits(w),
        }
    }

    /// The domain-generic operator suite the bounded-verification
    /// campaign quantifies over: the operators the paper lists for
    /// §III-A — addition, subtraction, multiplication, and/or/xor, the
    /// three shifts — plus div/mod (conservative) for completeness.
    #[must_use]
    pub fn domain_suite() -> Vec<Op2<D>> {
        vec![
            Self::add(),
            Self::sub(),
            Self::mul(),
            Self::and(),
            Self::or(),
            Self::xor(),
            Self::lshift(),
            Self::rshift(),
            Self::arshift(),
            Self::div(),
            Self::rem(),
        ]
    }
}

impl OpCatalog<Tnum> {
    /// The legacy kernel multiplication (`kern_mul`, Listing 2).
    #[must_use]
    pub fn mul_kernel() -> Op2<Tnum> {
        Op2 {
            name: "kern_mul",
            abstract_op: |a, b, w| a.mul_kernel_legacy(b).truncate(w),
            concrete_op: |x, y, w| x.wrapping_mul(y) & low_bits(w),
        }
    }

    /// The Regehr–Duongsaa `bitwise_mul` (Listing 5, optimized form).
    #[must_use]
    pub fn mul_bitwise() -> Op2<Tnum> {
        Op2 {
            name: "bitwise_mul",
            abstract_op: |a, b, w| bitwise_domain::bitwise_mul(a, b).truncate(w),
            concrete_op: |x, y, w| x.wrapping_mul(y) & low_bits(w),
        }
    }

    /// `our_mul_simplified` (Listing 3) — the proof-friendly form.
    #[must_use]
    pub fn mul_simplified() -> Op2<Tnum> {
        Op2 {
            name: "our_mul_simplified",
            abstract_op: |a, b, w| tnum::mul::our_mul_simplified(a, b).truncate(w),
            concrete_op: |x, y, w| x.wrapping_mul(y) & low_bits(w),
        }
    }

    /// The operators the paper lists for bounded verification of the
    /// kernel's tnums (§III-A) plus the baseline multiplications — the
    /// [`domain_suite`](Self::domain_suite) extended with `kern_mul` and
    /// `bitwise_mul`.
    #[must_use]
    pub fn paper_suite() -> Vec<Op2<Tnum>> {
        let mut suite = Self::domain_suite();
        // Keep the paper's historical name for the headline algorithm.
        let mul = suite
            .iter_mut()
            .find(|o| o.name == "mul")
            .expect("mul in suite");
        mul.name = "our_mul";
        suite.insert(3, Self::mul_kernel());
        suite.insert(4, Self::mul_bitwise());
        suite
    }

    /// The three multiplication algorithms compared in §IV.
    #[must_use]
    pub fn mul_suite() -> Vec<Op2<Tnum>> {
        let mut mul = Self::mul();
        mul.name = "our_mul";
        vec![mul, Self::mul_kernel(), Self::mul_bitwise()]
    }
}

fn sign_extend(x: u64, width: u32) -> i64 {
    debug_assert!((1..=64).contains(&width));
    let shift = 64 - width;
    ((x << shift) as i64) >> shift
}

#[cfg(test)]
mod tests {
    use super::*;
    use bitwise_domain::KnownBits;
    use interval_domain::Bounds;

    #[test]
    fn catalog_names_are_unique() {
        let suite = OpCatalog::<Tnum>::paper_suite();
        let mut names: Vec<&str> = suite.iter().map(|o| o.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), suite.len());
    }

    #[test]
    fn concrete_ops_match_reference_semantics() {
        let w = 8;
        assert_eq!((OpCatalog::<Tnum>::add().concrete_op)(200, 100, w), 44);
        assert_eq!((OpCatalog::<Tnum>::sub().concrete_op)(10, 20, w), 246);
        assert_eq!((OpCatalog::<Tnum>::mul().concrete_op)(16, 16, w), 0);
        assert_eq!((OpCatalog::<Tnum>::div().concrete_op)(10, 0, w), 0);
        assert_eq!((OpCatalog::<Tnum>::rem().concrete_op)(10, 0, w), 10);
        // Shift counts are masked to 64-bit semantics: 1 << 9 escapes the
        // 8-bit window entirely.
        assert_eq!((OpCatalog::<Tnum>::lshift().concrete_op)(1, 9, w), 0);
        assert_eq!((OpCatalog::<Tnum>::lshift().concrete_op)(1, 65, w), 2); // 65 & 63 = 1
        assert_eq!((OpCatalog::<Tnum>::arshift().concrete_op)(0x80, 1, w), 0xc0);
    }

    #[test]
    fn concrete_halves_are_domain_independent() {
        // The `opC` side must be identical across domains — one semantics,
        // three abstractions.
        let t = OpCatalog::<Tnum>::domain_suite();
        let k = OpCatalog::<KnownBits>::domain_suite();
        let b = OpCatalog::<Bounds>::domain_suite();
        for ((ot, ok), ob) in t.iter().zip(&k).zip(&b) {
            assert_eq!(ot.name, ok.name);
            assert_eq!(ot.name, ob.name);
            for (x, y) in [(200u64, 100u64), (10, 0), (1, 65), (0x80, 1)] {
                for w in [4, 8, 64] {
                    let reference = (ot.concrete_op)(x, y, w);
                    assert_eq!((ok.concrete_op)(x, y, w), reference, "{}", ot.name);
                    assert_eq!((ob.concrete_op)(x, y, w), reference, "{}", ot.name);
                }
            }
        }
    }

    #[test]
    fn abstract_ops_stay_within_width() {
        let a: Tnum = "x1".parse().unwrap();
        let b: Tnum = "1x".parse().unwrap();
        for op in OpCatalog::<Tnum>::paper_suite() {
            let r = (op.abstract_op)(a, b, 4);
            assert!(r.fits_width(4), "{} escaped its width", op.name);
        }
    }

    #[test]
    fn abstract_ops_stay_within_width_all_domains() {
        use domain::AbstractDomain;
        let a = KnownBits::constant(0b10);
        let b = KnownBits::UNKNOWN;
        for op in OpCatalog::<KnownBits>::domain_suite() {
            let r = (op.abstract_op)(a, b, 4);
            assert!(
                r.le(KnownBits::top_at_width(4)),
                "{} escaped its width",
                op.name
            );
        }
        let c = Bounds::constant(3);
        let d = <Bounds as AbstractDomain>::top_at_width(4);
        for op in OpCatalog::<Bounds>::domain_suite() {
            let r = (op.abstract_op)(c, d, 4);
            assert!(
                r.le(Bounds::top_at_width(4)),
                "{} escaped its width",
                op.name
            );
        }
    }

    #[test]
    fn sign_extend_reference() {
        assert_eq!(sign_extend(0b1000, 4), -8);
        assert_eq!(sign_extend(0b0111, 4), 7);
        assert_eq!(sign_extend(u64::MAX, 64), -1);
    }
}
