//! # ebpf — an eBPF-subset substrate
//!
//! The tnum paper studies the static analyzer that guards the Linux (and
//! Windows) eBPF runtime. To reproduce that context end-to-end, this crate
//! implements the substrate the analyzer operates on:
//!
//! * the **instruction set** ([`Insn`]): 64-bit and 32-bit ALU ops
//!   (`add sub mul div or and lsh rsh neg mod xor arsh mov`), conditional
//!   and unconditional jumps (`jmp`/`jmp32`), byte/half/word/double-word
//!   loads and stores, 64-bit immediate loads, helper calls, and `exit` —
//!   exactly the concrete operations for which the paper's abstract
//!   operators exist (§II-B);
//! * the **binary encoding** ([`RawInsn`]): the classic 8-byte
//!   `opcode/regs/off/imm` layout with two-slot `lddw`, round-tripping with
//!   the typed form;
//! * a **program container** ([`Program`]) that validates register use and
//!   jump targets and maps between instruction and slot indices;
//! * a line-oriented **assembler** ([`asm`]) and **disassembler**
//!   (`Display for Insn`) using the kernel documentation syntax
//!   (`r0 = 42`, `r2 += r3`, `if r1 > 8 goto drop`, `*(u32 *)(r10 - 4) = r0`);
//!   programs are built from assembly text or from [`Insn`] vectors
//!   through [`Program::new`];
//! * a **helper registry** ([`helpers`]): typed signatures for the
//!   concrete helpers (`map_lookup`, `map_update`, `map_delete`,
//!   `get_prandom`), the static map definitions, and the tagged `lddw`
//!   map-handle convention (`rD = map N`) — shared by the verifier's
//!   call-site type checks and the VM's native implementations;
//! * a concrete **interpreter** ([`Vm`]) with a 512-byte stack, a caller
//!   context buffer, registered helper functions, an in-VM map store
//!   ([`MapStore`]) executing the registry helpers natively, and BPF
//!   arithmetic semantics (wrapping ops, `x / 0 = 0`, `x % 0 = x`,
//!   masked shifts).
//!
//! The `verifier` crate performs abstract interpretation over [`Insn`]
//! using the tnum and interval domains; integration tests execute the same
//! programs concretely on [`Vm`] to validate the analysis.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Kernel-faithful operator names (`add` mirrors `tnum_add`) and explicit
// BPF division semantics (`x / 0 = 0`) are intentional throughout.
#![allow(clippy::manual_checked_ops)]

pub mod asm;
mod disasm;
mod encode;
mod error;
pub mod helpers;
mod insn;
mod program;
mod reg;
mod vm;

pub use encode::RawInsn;
pub use error::{AsmError, DecodeError, ProgramError, VmError};
pub use helpers::{
    helper_sig, map_def, map_handle_imm, map_id_of_imm, ArgKind, HelperSig, MapDef, RegionSize,
    RetKind, DEFAULT_MAPS, HELPERS,
};
pub use insn::{AluOp, Insn, JmpOp, MemSize, Src, UseRegs, Width};
pub use program::Program;
pub use reg::Reg;
pub use vm::{HelperFn, MapStore, Vm, VmOptions, CTX_BASE, MAP_BASE, STACK_SIZE, STACK_TOP};
