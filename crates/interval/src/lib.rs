//! # interval-domain — kernel-style value bounds
//!
//! The BPF verifier tracks each scalar register in a *reduced product* of
//! two abstract domains: the bit-level tnum domain (the subject of the
//! paper) and value ranges — unsigned `[umin, umax]` and signed
//! `[smin, smax]` bounds, as in the kernel's `struct bpf_reg_state`.
//!
//! This crate provides that range half and the glue between the two
//! domains:
//!
//! * [`UInterval`] / [`SInterval`] — unsigned and signed 64-bit intervals
//!   with sound transfer functions for every BPF ALU operation;
//! * [`Bounds`] — the product of both orders with the kernel's
//!   *deduction* rules (`__reg_deduce_bounds`) that let each view sharpen
//!   the other, plus tnum synchronization (`reg_bounds_sync`):
//!   [`Bounds::from_tnum`], [`Bounds::to_tnum`], [`Bounds::refined_by_tnum`].
//!
//! * [`sign_lattice`] — a small 64-bit test space of tnums and bound
//!   views around the sign boundary, which the reduced-product tests
//!   quantify over.
//!
//! The `verifier` crate combines [`Bounds`] with a
//! [`Tnum`](tnum::Tnum) into its scalar register state.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Kernel-faithful operator names (`add` mirrors `tnum_add`) and explicit
// BPF division semantics (`x / 0 = 0`) are intentional throughout.
#![allow(clippy::should_implement_trait)]
#![allow(clippy::manual_checked_ops)]

mod bounds;
mod domain_impl;
pub mod sign_lattice;
mod signed;
mod thresholds;
mod unsigned;

pub use bounds::Bounds;
pub use signed::SInterval;
pub use thresholds::WidenThresholds;
pub use unsigned::UInterval;
