//! # tnum-verify — bounded verification and precision measurement
//!
//! The paper (§III-A) performs *automated bounded verification* of the
//! kernel's tnum operators by encoding the soundness predicate (Eqn. 11)
//! in first-order logic and discharging it to Z3. No SMT solver is
//! available in this environment, so this crate checks the **same logical
//! formula by exhaustive enumeration** — exact and complete at a given
//! bitwidth, which is precisely what bounded verification provides.
//!
//! Every checker is **generic over the abstract domain**: the
//! quantification space comes from
//! [`AbstractDomain::enumerate_at_width`](domain::AbstractDomain::enumerate_at_width)
//! and the operator pairs from the [`Op2`] catalog built on the
//! [`ArithDomain`](domain::ArithDomain) /
//! [`BitwiseDomain`](domain::BitwiseDomain) transformer traits, so the
//! same campaign validates the kernel's tnums, LLVM's known-bits
//! encoding, and the kernel's range bounds:
//!
//! * [`soundness`] — ∀ well-formed `P, Q`, ∀ `x ∈ γ(P), y ∈ γ(Q)`:
//!   `opC(x, y) ∈ γ(opT(P, Q))`, enumerated over all `3ⁿ` tnums (or the
//!   domain's canonical elements) and all member pairs (`16ⁿ` checks for
//!   tnums);
//! * [`campaign`] — soundness + optimality over a whole operator suite
//!   from one code path, for any domain;
//! * [`optimality`] — comparison against the brute-forced best abstract
//!   transformer `α ∘ f ∘ γ` (maximal precision, §II-A);
//! * [`precision`] — the Fig. 4 / Table I machinery: relative precision of
//!   two multiplication algorithms over all input pairs at width *n*;
//! * [`spotcheck`] — the randomized 64-bit testing harness of §VII-D,
//!   checking soundness on sampled members of random tnum pairs;
//! * [`algebra`] — witnesses for the paper's algebraic observations
//!   (tnum addition is not associative, add/sub are not inverses, tnum
//!   multiplication is not commutative);
//! * [`ops`] — the catalog of abstract/concrete operator pairs under test,
//!   shared by all of the above and by the `bench` experiment binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Kernel-faithful operator names (`add` mirrors `tnum_add`) and explicit
// BPF division semantics (`x / 0 = 0`) are intentional throughout.
#![allow(clippy::manual_checked_ops)]

pub mod algebra;
pub mod campaign;
pub mod ops;
pub mod optimality;
pub mod precision;
pub mod soundness;
pub mod spotcheck;

pub use campaign::{run_campaign, CampaignConfig, CampaignReport};
pub use ops::{Op2, OpCatalog};
pub use optimality::{check_optimality, OptimalityReport};
pub use precision::{
    compare_precision, compare_precision_sampled, compare_precision_unordered, ratio_histogram,
    PrecisionReport,
};
pub use soundness::{check_soundness, SoundnessReport, Violation};
pub use spotcheck::{spot_check, SpotCheckReport};
