//! # domain — the domain-generic abstraction layer
//!
//! The tnum paper validates one abstract domain (tristate numbers) with a
//! reusable *method*: bounded verification of the soundness predicate
//! (Eqn. 11, §III-A), comparison against the best abstract transformer
//! `α ∘ f ∘ γ` (§II-A), and head-to-head precision measurement against the
//! Regehr–Duongsaa known-bits baseline. This crate captures the vocabulary
//! that method needs, so that *any* bit-level or value-range domain can be
//! plugged into the same verification campaign, the same reduced-product
//! analyzer, and the same benchmarks:
//!
//! * [`AbstractDomain`] — the lattice (⊑ as [`le`](AbstractDomain::le),
//!   join ⊔, meet ⊓ with ⊥ out-of-band), the Galois connection (α as
//!   [`abstract_of`](AbstractDomain::abstract_of), γ membership as
//!   [`contains`](AbstractDomain::contains), bounded enumeration as
//!   [`enumerate_at_width`](AbstractDomain::enumerate_at_width)), and the
//!   width machinery ([`truncate`](AbstractDomain::truncate) /
//!   [`cast`](AbstractDomain::cast)) every campaign quantifies over;
//! * [`ArithDomain`] / [`BitwiseDomain`] — the abstract transformers
//!   (`opT` in the paper's notation) paired with the concrete BPF ALU
//!   semantics (`opC`) by the `tnum_verify::ops` catalog;
//! * [`RefineFrom`] — the cross-refinement hook that lets two domains form
//!   a *reduced product* (the kernel's `reg_bounds_sync` pattern), used by
//!   `verifier::Product<A, B>`;
//! * [`rng`] — a tiny deterministic PRNG (SplitMix64) backing the
//!   randomized width-64 spot checks and the property-test suites (this
//!   workspace has no third-party dependencies);
//! * [`laws`] — reusable checkers for the lattice laws and the Galois
//!   soundness condition `x ∈ γ(α({x}))`, shared by every implementor's
//!   test suite.
//!
//! ## The paper's vocabulary, as code
//!
//! | Paper (§II)                  | Trait surface                                  |
//! |------------------------------|------------------------------------------------|
//! | `P ⊑ Q` (abstract order)     | `p.le(q)`                                      |
//! | `P ⊔ Q` (join)               | `p.join(q)`                                    |
//! | `P ⊓ Q` (meet, may be ⊥)     | `p.meet(q) -> Option<D>`                       |
//! | `α(C)` (abstraction)         | `D::abstract_of(values) -> Option<D>`          |
//! | `x ∈ γ(P)` (concretization)  | `p.contains(x)`; `p.members(w)` enumerates γ   |
//! | `opT` (abstract transformer) | `ArithDomain` / `BitwiseDomain` methods        |
//! | `opC` (concrete operation)   | the `concrete_op` half of `tnum_verify::Op2`   |
//!
//! ⊥ has no in-band representation: all three shipped domains (tnums,
//! known-bits, bounds) only represent non-empty concretizations, exactly
//! as in the kernel, so contradictions surface as `None` (from `meet`,
//! `abstract_of` of ∅, or `RefineFrom::refine_from`) and the consumer
//! treats them as dead paths.
//!
//! ## Plugging in a new domain
//!
//! To add a domain (say, signed intervals or congruences):
//!
//! 1. implement [`AbstractDomain`] — the lattice and Galois methods plus
//!    [`enumerate_at_width`](AbstractDomain::enumerate_at_width), which
//!    must yield every canonical element whose concretization fits in
//!    `width` bits (this is what makes the bounded verification *bounded
//!    and complete*);
//! 2. implement [`ArithDomain`] and [`BitwiseDomain`] with the domain's
//!    transfer functions (conservative fallbacks to
//!    [`top_at_width`](AbstractDomain::top_at_width) are always sound);
//! 3. run `domain::laws::assert_lattice_laws` and
//!    `domain::laws::assert_galois_soundness` over the enumeration in the
//!    domain's tests;
//! 4. the generic campaign (`tnum_verify::campaign::run_campaign::<D>`),
//!    the spot checker, and the benches now accept the new domain with no
//!    further wiring;
//! 5. optionally implement [`RefineFrom`] against an existing domain to
//!    join a reduced product (`verifier::Product`), and check both
//!    directions with `domain::laws::assert_refine_laws`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod laws;
pub mod parallel;
pub mod rng;

use crate::rng::SplitMix64;

/// A bit-level or value-range abstract domain over 64-bit machine words.
///
/// Implementors are small `Copy` values (the kernel's `struct tnum` is two
/// words; bounds are four) representing *non-empty* sets of concrete
/// `u64`s. The trait packages the three faces the paper's method needs:
/// the lattice, the Galois connection, and bit-width manipulation.
pub trait AbstractDomain:
    Copy + Clone + PartialEq + core::fmt::Debug + Send + Sync + Sized + 'static
{
    /// Short human-readable domain name, used in reports and bench tables.
    const NAME: &'static str;

    /// ⊤ — the abstraction of every 64-bit value.
    fn top() -> Self;

    /// ⊥ — the abstraction of the empty set.
    ///
    /// None of the shipped domains represents ⊥ in-band (exactly as in the
    /// kernel), so the default returns `None`; contradiction is reported
    /// out-of-band by [`meet`](Self::meet) and
    /// [`RefineFrom::refine_from`].
    fn bottom() -> Option<Self> {
        None
    }

    /// The abstract order ⊑: `self ⊑ other` iff γ(self) ⊆ γ(other).
    fn le(self, other: Self) -> bool;

    /// Join ⊔ — least upper bound: the tightest element covering both.
    fn join(self, other: Self) -> Self;

    /// Meet ⊓ — greatest lower bound; `None` is ⊥ (no common member).
    fn meet(self, other: Self) -> Option<Self>;

    /// The abstraction function α over a set of concrete values; `None`
    /// is α(∅) = ⊥.
    fn abstract_of<I: IntoIterator<Item = u64>>(values: I) -> Option<Self>;

    /// Membership in the concretization: `x ∈ γ(self)`.
    fn contains(self, x: u64) -> bool;

    /// Cheap may-equality used by containers (reduced products, register
    /// files) to short-circuit joins and inclusion checks before falling
    /// into the pointwise lattice operations.
    ///
    /// Contract: a `true` result must imply `γ(self) = γ(other)` (no
    /// false positives); `false` for semantically equal elements is
    /// allowed (an identity-based override may miss equal copies). The
    /// default is plain structural equality, which is already O(1) for
    /// the shipped word-sized domains; a heap-backed domain (e.g. a
    /// future relational one) would override this with a pointer-identity
    /// test.
    fn fast_eq(&self, other: &Self) -> bool {
        self == other
    }

    /// Every canonical element whose concretization is a subset of
    /// `[0, 2^width)` — the quantification space of the bounded
    /// verification campaign (the analogue of the paper's "for bitvectors
    /// of width n" in Eqn. 11).
    fn enumerate_at_width(width: u32) -> Vec<Self>;

    /// γ(self) restricted to width `width`, materialized. Only call at
    /// small widths (the campaign uses ≤ 10 bits).
    fn members(self, width: u32) -> Vec<u64>;

    /// The exact abstraction of one concrete value.
    fn constant(value: u64) -> Self {
        Self::abstract_of([value]).expect("singleton sets are never empty")
    }

    /// Whether the element pins a single concrete value, and which.
    fn as_constant(self) -> Option<u64>;

    /// Reduction modulo `2^width`: a sound abstraction of
    /// `{x mod 2^width : x ∈ γ(self)}`. `truncate(64)` is the identity.
    fn truncate(self, width: u32) -> Self;

    /// The kernel's `tnum_cast`: keep the low `bytes * 8` bits (zero
    /// extended). `cast(8)` is the identity.
    fn cast(self, bytes: u32) -> Self {
        self.truncate(bytes.min(8) * 8)
    }

    /// ⊤ restricted to `width` bits: the abstraction of `[0, 2^width)`.
    fn top_at_width(width: u32) -> Self {
        Self::top().truncate(width)
    }

    /// A uniformly sampled element at the full 64-bit width, for the
    /// randomized spot-check campaign (§VII-D).
    fn random(rng: &mut SplitMix64) -> Self;

    /// A uniformly sampled member of γ(self), for the same campaign.
    fn random_member(self, rng: &mut SplitMix64) -> u64;
}

/// Abstract transformers for the arithmetic BPF ALU operations.
///
/// Every method is the `opT` half of a verification pair; the matching
/// `opC` (wrapping add/sub/mul, BPF `x / 0 = 0`, `x % 0 = x`) lives in the
/// `tnum_verify::ops` catalog. Transformers operate at the full 64-bit
/// width; the campaign truncates results to the verification width, which
/// is exact for these operators (carries and partial products only
/// propagate upward).
pub trait ArithDomain: AbstractDomain {
    /// Abstract wrapping addition.
    fn abs_add(self, rhs: Self) -> Self;
    /// Abstract wrapping subtraction.
    fn abs_sub(self, rhs: Self) -> Self;
    /// Abstract wrapping multiplication.
    fn abs_mul(self, rhs: Self) -> Self;
    /// Abstract unsigned division with BPF `x / 0 = 0` semantics.
    fn abs_div(self, rhs: Self) -> Self;
    /// Abstract unsigned remainder with BPF `x % 0 = x` semantics.
    fn abs_rem(self, rhs: Self) -> Self;
}

/// Abstract transformers for the bitwise and shift BPF ALU operations.
///
/// Shift amounts are themselves abstract values and follow the 64-bit BPF
/// instruction semantics (`amount & 63`) at every verification width; the
/// `width` parameter only affects the *value* lanes (most relevantly the
/// sign position of [`abs_ashr`](Self::abs_ashr)).
pub trait BitwiseDomain: AbstractDomain {
    /// Abstract bitwise AND.
    fn abs_and(self, rhs: Self) -> Self;
    /// Abstract bitwise OR.
    fn abs_or(self, rhs: Self) -> Self;
    /// Abstract bitwise XOR.
    fn abs_xor(self, rhs: Self) -> Self;
    /// Abstract left shift by an abstract amount (masked `& 63`).
    fn abs_shl(self, rhs: Self, width: u32) -> Self;
    /// Abstract logical right shift by an abstract amount (masked `& 63`).
    fn abs_lshr(self, rhs: Self, width: u32) -> Self;
    /// Abstract arithmetic right shift by an abstract amount, with the
    /// sign bit taken at `width`.
    fn abs_ashr(self, rhs: Self, width: u32) -> Self;
}

/// The widening operator ∇ — the extra ingredient a domain needs before a
/// fixpoint engine may iterate it over *cyclic* control flow.
///
/// `old.widen(newer)` is called at a loop head when the state there grows:
/// `old` is the previously recorded abstraction and `newer` is `old ⊔
/// incoming` (so `newer` is always an upper bound of `old`). The result
/// must satisfy the two classic widening laws (Cousot & Cousot; the same
/// contract as Miné's DBM widening):
///
/// * **covering**: `old ⊑ old ∇ newer` and `newer ⊑ old ∇ newer` — the
///   widened state over-approximates everything seen so far (soundness of
///   the fixpoint);
/// * **termination**: every chain `x₀, x₁ = x₀ ∇ y₁, x₂ = x₁ ∇ y₂, …`
///   with growing `yᵢ` stabilizes after finitely many steps, whatever the
///   `yᵢ` are — this is what bounds the analysis of a loop whose concrete
///   trip count the domain cannot see.
///
/// Finite-height domains (tnums, known-bits: each trit only ever moves
/// known → unknown) may simply use their join. Infinite-ascending-chain
/// domains (intervals) must jump: the shipped `Bounds` widening snaps a
/// growing endpoint to the next value of a small threshold set
/// `{0, 1, i32::MAX, u32::MAX, i64::MAX as u64, u64::MAX}` instead of
/// creeping one trip at a time.
///
/// Checked for every implementor by [`laws::assert_widening_laws`].
pub trait WidenDomain: AbstractDomain {
    /// `self ∇ newer`: an upper bound of both that guarantees termination
    /// of repeated widening. `newer` is expected to satisfy
    /// `self ⊑ newer` (callers pass `self ⊔ incoming`).
    #[must_use]
    fn widen(self, newer: Self) -> Self;
}

/// Cross-refinement between two abstract domains tracking the same value —
/// the hook that turns a pair of domains into a *reduced* product.
///
/// `refine_from` returns the tightening of `self` by everything `other`
/// knows, or `None` when the two contradict (their concretizations are
/// disjoint — the product's ⊥). This is the trait-level rendering of the
/// kernel's `reg_bounds_sync`: bounds are refined by the tnum
/// (`__reg_bound_offset` + intersection) and the tnum is refined by the
/// range (`tnum_range` over `[umin, umax]`).
///
/// Laws (checked for every implementor by [`laws::assert_refine_laws`]):
///
/// * **sound**: `x ∈ γ(self) ∧ x ∈ γ(other)` ⇒ refinement keeps `x`;
/// * **reductive**: the result is ⊑ `self`;
/// * `None` only when `γ(self) ∩ γ(other) = ∅`;
/// * **exact fixpoint test**: [`is_refined_by`](Self::is_refined_by)
///   answers `refine_from(other) == Some(self)`, on every input.
pub trait RefineFrom<O>: Sized {
    /// Tightens `self` using the information carried by `other`.
    fn refine_from(self, other: &O) -> Option<Self>;

    /// Whether `other` has nothing left to teach `self`: exactly
    /// `self.refine_from(other) == Some(self)`, which is what the
    /// default computes.
    ///
    /// A reduced product asks this before every refinement round, and
    /// most of its inputs are already reduced, so an implementor can
    /// override it with a few comparisons that build nothing. The
    /// override must stay exact in both directions: a `true` where
    /// refinement would still tighten publishes an under-reduced
    /// product, and a `false` at a fixpoint never lets the product's
    /// loop exit.
    fn is_refined_by(&self, other: &O) -> bool
    where
        Self: Copy + PartialEq,
    {
        self.refine_from(other) == Some(*self)
    }
}
