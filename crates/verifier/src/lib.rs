//! # verifier — a BPF-style static analyzer built on tnums
//!
//! This crate reproduces the *context* of the tnum paper: the Linux
//! kernel's eBPF verifier, which uses abstract interpretation to prove that
//! untrusted programs are memory-safe before they run in kernel context
//! (§I of the paper). Registers are tracked in a reduced product of two
//! domains:
//!
//! * the **tnum domain** ([`tnum::Tnum`]) for bit-level knowledge — the
//!   paper's subject, driving masking, alignment, and bitwise reasoning;
//! * the **bounds domain** ([`interval_domain::Bounds`]) for unsigned and
//!   signed ranges — driving comparisons and access-bounds checks.
//!
//! The two are coupled by the generic reduced product [`Product`], whose
//! [`normalize`](Product::normalize) drives the kernel's
//! `reg_bounds_sync` cross-refinement through the `domain::RefineFrom`
//! hooks; [`Scalar`] is the `Product<Tnum, Bounds>` instance the
//! analyzer tracks registers with. The entry point is the builder-style
//! [`VerificationSession`], which carries the [`AnalyzerOptions`] and
//! selects a pluggable exploration [`Strategy`] over three layers:
//!
//! * [`transfer`] — the abstract semantics of one instruction: ALU and
//!   pointer arithmetic, conditional branches with two-sided refinement
//!   at **both** widths (64-bit and zero-extended 32-bit sub-register
//!   compares), and bounds/alignment-checked memory access;
//! * [`explore`] — *how* those steps are scheduled, behind the
//!   [`ExplorationStrategy`] trait: [`Strategy::WideningFixpoint`]
//!   joins every path at merge points and widens at loop heads, while
//!   [`Strategy::PathSensitive`] DFS-walks branch paths kernel-style,
//!   prunes any state included in an already-explored one
//!   (`is_state_visited`, via a per-pc [`VisitedTable`]), unrolls the
//!   first [`AnalyzerOptions::unroll_k`] trips of each loop with exact
//!   per-trip precision, and falls back to widening past the bound;
//!   [`Strategy::PathParallel`] ([`parshard`]) shards that same walk
//!   over work-stealing workers with one shared, striped visited table,
//!   bit-identical to the sequential walk while no job widens a loop
//!   head;
//! * [`fixpoint`] — the reverse-postorder priority worklist behind the
//!   fixpoint strategy: joins at merge points, eager widening at loop
//!   heads with widening thresholds harvested from the program's
//!   comparison immediates, a decreasing sequence of narrowing walks
//!   from the stable ascent's heads, reduced once (a loop that narrows
//!   no head settles in one walk), that runs the safety checks
//!   (**checks after the fixpoint**: the ascent records a failed check
//!   and goes on, and the verdict is the narrowing walks'), and a
//!   total-visit budget.
//!
//! The per-program-point state ([`state::AbsState`]) is **copy-on-write**:
//! the register file and the stack frame — itself [`STACK_CHUNKS`]
//! independently-`Rc`'d chunks of [`CHUNK_SLOTS`] slots — live behind
//! `Rc`s, so forking a state at a branch is two refcount bumps, a
//! transfer that writes one register shares all 64 stack slots
//! untouched, and a single spill materializes one ~0.5 KiB chunk, not a
//! 4 KiB frame. Every state also carries an incrementally maintained
//! 64-bit structural **fingerprint** ([`AbsState::fingerprint`]): equal
//! states always fingerprint equally, so the [`VisitedTable`] dismisses
//! unequal pruning candidates in O(1) and keeps its per-pc chains short
//! with dominance eviction and the [`AnalyzerOptions::visited_cap`]
//! chain cap. Joins and inclusion checks short-circuit components and
//! chunks on pointer identity — which is what makes path-sensitive
//! exploration (many live states) and its subset-based pruning
//! affordable — and [`AnalysisStats`] (on every [`Analysis`]) counts
//! the saved allocations, the copied bytes, and the pruning ledger
//! (probes, fingerprint rejects, evictions). Every memory access is
//! checked against its region — including tnum-based alignment
//! (`tnum_is_aligned`) under [`AnalyzerOptions::strict_alignment`] —
//! and the classic all-loops rejection survives under
//! [`AnalyzerOptions::reject_loops`].
//!
//! A bounded loop end to end — and because the path-sensitive strategy
//! unrolls the 16 trips instead of joining them at the loop head, it
//! proves the exit counter *exactly*, without a single widening:
//!
//! ```
//! use ebpf::asm::assemble;
//! use ebpf::Reg;
//! use verifier::{Strategy, VerificationSession};
//!
//! // memset(buf[0..16], 0), i bounded by its own exit test.
//! let prog = assemble(r"
//!     r1 = 0
//! loop:
//!     r3 = r10
//!     r3 += -16
//!     r3 += r1
//!     *(u8 *)(r3 + 0) = 0
//!     r1 += 1
//!     if r1 < 16 goto loop
//!     r0 = r1
//!     exit
//! ")?;
//! let analysis = VerificationSession::new()
//!     .with_strategy(Strategy::PathSensitive)
//!     .run(&prog)?;
//! assert!(analysis.is_accepted());
//! let r0 = analysis.state_before(8).unwrap().reg(Reg::R0).as_scalar().unwrap();
//! assert_eq!(r0.as_constant(), Some(16)); // exact, per-trip precision
//! assert_eq!(analysis.stats().widenings_applied, 0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! The motivating example from §I of the paper works end to end under
//! the default session (the widening fixpoint):
//!
//! ```
//! use ebpf::asm::assemble;
//! use verifier::{Strategy, VerificationSession};
//!
//! // A value masked to 0b01x0 can be at most 6 <= 8, so an access at
//! // [r10 - 16 + idx] stays inside a 16-byte stack window.
//! let prog = assemble(r"
//!     r2 = *(u8 *)(r1 + 0)   ; untrusted byte
//!     r2 &= 6                ; tnum: 0000_0xx0, so r2 <= 6
//!     r3 = r10
//!     r3 += -16
//!     r3 += r2               ; within [r10-16, r10-10]
//!     *(u8 *)(r3 + 0) = 0    ; provably in bounds
//!     r0 = 0
//!     exit
//! ")?;
//! let analysis = VerificationSession::new().run(&prog)?;
//! assert!(analysis.is_accepted());
//! assert_eq!(analysis.strategy(), Strategy::WideningFixpoint);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Kernel-faithful operator names (`add` mirrors `tnum_add`) and explicit
// BPF division semantics (`x / 0 = 0`) are intentional throughout.
#![allow(clippy::manual_checked_ops)]

mod analyzer;
pub mod batch;
mod branch;
pub mod cfg;
mod error;
pub mod explore;
pub mod failpoint;
pub mod fixpoint;
pub mod helpers;
pub mod memo;
pub mod parshard;
pub mod passes;
mod product;
mod scalar;
pub mod state;
mod tally;
pub mod transfer;
mod value;
pub mod visited;

pub use analyzer::{Analysis, AnalyzerOptions, DegradationPolicy, VerificationSession};
pub use batch::{BatchReport, BatchStats};
pub use branch::refine as refine_branch;
pub use branch::refine32 as refine_branch32;
pub use cfg::Cfg;
pub use error::VerifierError;
pub use explore::{Exploration, ExplorationStrategy, PathSensitive, Strategy, WideningFixpoint};
pub use failpoint::{FaultPlan, FaultSite};
pub use fixpoint::AnalysisStats;
pub use helpers::check_call;
pub use memo::{MemoEffect, MemoKey, TransferMemo};
pub use parshard::PathParallel;
pub use passes::{LiveSet, ProgramPasses};
pub use product::Product;
pub use scalar::Scalar;
pub use state::value_fingerprint;
pub use state::{AbsState, StackSlot, CHUNK_SLOTS, STACK_CHUNKS};
pub use value::RegValue;
pub use visited::VisitedTable;
