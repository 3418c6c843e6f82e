//! Rejection reasons reported by the analyzer.

use core::fmt;

use ebpf::Reg;

/// Why a program was rejected by a
/// [`VerificationSession`](crate::VerificationSession).
///
/// Every variant carries the instruction index (`pc`) at fault, so callers
/// can point at the offending line of disassembly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum VerifierError {
    /// The control-flow graph contains a cycle and the analyzer was
    /// configured with
    /// [`AnalyzerOptions::reject_loops`](crate::AnalyzerOptions::reject_loops)
    /// — the classic pre-bounded-loop verifier behaviour.
    LoopDetected {
        /// An instruction participating in the cycle (a loop head).
        pc: usize,
    },
    /// The exploration exceeded its total-visits budget (the analogue of
    /// the kernel's one-million-instruction complexity limit) before
    /// finishing — the fixpoint iteration failed to stabilize, or the
    /// path-sensitive explorer's branch fan-out outran both pruning and
    /// the unroll fallback (the kernel rejects such programs as "too
    /// complex" for the same reason).
    AnalysisBudgetExhausted {
        /// The instruction being processed when the budget ran out.
        pc: usize,
        /// The configured budget
        /// ([`AnalyzerOptions::analysis_budget`](crate::AnalyzerOptions::analysis_budget)).
        budget: u64,
    },
    /// An instruction reads a register that may be uninitialized.
    UninitRead {
        /// The register read.
        reg: Reg,
        /// Faulting instruction.
        pc: usize,
    },
    /// A load or store dereferences a non-pointer value.
    BadPointer {
        /// The register used as a base address.
        reg: Reg,
        /// Faulting instruction.
        pc: usize,
    },
    /// A memory access cannot be proven inside its region.
    OutOfBounds {
        /// Region name (`"stack"` or `"ctx"`).
        region: &'static str,
        /// Smallest possible byte offset of the access within the region
        /// coordinates used in diagnostics.
        min_off: i64,
        /// Largest possible end offset of the access.
        max_end: i64,
        /// Faulting instruction.
        pc: usize,
    },
    /// Strict alignment checking failed: the access offset cannot be
    /// proven aligned to the access size (via `tnum_is_aligned`).
    Misaligned {
        /// Region name.
        region: &'static str,
        /// Access size in bytes.
        size: u64,
        /// Faulting instruction.
        pc: usize,
    },
    /// A read from a stack slot that was never written.
    UninitStackRead {
        /// Faulting instruction.
        pc: usize,
    },
    /// Arithmetic on pointers that the analyzer does not track
    /// (e.g. multiplying a pointer, or adding two pointers).
    BadPointerArithmetic {
        /// Faulting instruction.
        pc: usize,
    },
    /// The program exits without initializing `r0`.
    NoReturnValue {
        /// Index of the offending `exit`.
        pc: usize,
    },
    /// The program returns a pointer in `r0`, leaking a kernel address.
    PointerLeak {
        /// Index of the offending `exit`.
        pc: usize,
    },
    /// A load or store dereferences a map value pointer that may still
    /// be NULL (no `== 0` / `!= 0` check dominates the access).
    NullMapValue {
        /// The register holding the unchecked pointer.
        reg: Reg,
        /// Faulting instruction.
        pc: usize,
    },
    /// A `call` names a helper that is not in the registry
    /// ([`ebpf::helpers::HELPERS`]).
    UnknownHelper {
        /// The helper id.
        helper: u32,
        /// Index of the offending `call`.
        pc: usize,
    },
    /// A helper argument does not match the kind its signature demands
    /// (e.g. a scalar where a map handle is required, or an
    /// uninitialized stack region passed as a key).
    BadHelperArg {
        /// The helper id.
        helper: u32,
        /// 1-based argument number (the register is `r{arg}`).
        arg: u8,
        /// What the signature expects there.
        expected: &'static str,
        /// Index of the offending `call`.
        pc: usize,
    },
    /// A tagged `lddw` references a map id outside
    /// [`ebpf::DEFAULT_MAPS`].
    UnknownMap {
        /// The invalid map id.
        map: u32,
        /// Index of the offending `lddw`.
        pc: usize,
    },
    /// The exploration ran past its wall-clock deadline
    /// ([`AnalyzerOptions::deadline`](crate::AnalyzerOptions::deadline)).
    /// Checked cooperatively on the first visit and every 256th after
    /// it, so `elapsed` is at least the configured deadline but may
    /// overshoot by up to 255 visits' worth of work.
    DeadlineExceeded {
        /// Wall-clock time spent when the deadline check fired.
        elapsed: std::time::Duration,
        /// The instruction being processed when time ran out.
        pc: usize,
    },
    /// The analyzer itself faulted: a panic inside a batch worker or a
    /// parallel-exploration job was contained by `catch_unwind` and
    /// converted into a per-program rejection instead of taking down
    /// the whole batch. `detail` carries the panic payload when it was
    /// a string.
    InternalFault {
        /// Human-readable description of the contained fault.
        detail: String,
    },
}

impl VerifierError {
    /// The faulting instruction index.
    #[must_use]
    pub fn pc(&self) -> usize {
        match *self {
            VerifierError::LoopDetected { pc }
            | VerifierError::AnalysisBudgetExhausted { pc, .. }
            | VerifierError::UninitRead { pc, .. }
            | VerifierError::BadPointer { pc, .. }
            | VerifierError::OutOfBounds { pc, .. }
            | VerifierError::Misaligned { pc, .. }
            | VerifierError::UninitStackRead { pc }
            | VerifierError::BadPointerArithmetic { pc }
            | VerifierError::NoReturnValue { pc }
            | VerifierError::PointerLeak { pc }
            | VerifierError::NullMapValue { pc, .. }
            | VerifierError::UnknownHelper { pc, .. }
            | VerifierError::BadHelperArg { pc, .. }
            | VerifierError::UnknownMap { pc, .. }
            | VerifierError::DeadlineExceeded { pc, .. } => pc,
            // A contained panic has no faulting instruction — the fault
            // is in the analyzer, not the program. Point at entry.
            VerifierError::InternalFault { .. } => 0,
        }
    }

    /// Converts a payload caught by `std::panic::catch_unwind` into an
    /// [`VerifierError::InternalFault`], extracting the message when
    /// the payload is a string (the overwhelmingly common case:
    /// `panic!`, `assert!`, `expect`, and the fail-point injector all
    /// produce string payloads).
    #[must_use]
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> VerifierError {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic with non-string payload".to_string());
        VerifierError::InternalFault { detail }
    }
}

impl fmt::Display for VerifierError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifierError::LoopDetected { pc } => {
                write!(
                    f,
                    "back-edge detected at instruction {pc}: loops are not allowed"
                )
            }
            VerifierError::AnalysisBudgetExhausted { pc, budget } => {
                write!(
                    f,
                    "analysis budget of {budget} instruction visits exhausted at instruction {pc}"
                )
            }
            VerifierError::UninitRead { reg, pc } => {
                write!(f, "instruction {pc} reads uninitialized register {reg}")
            }
            VerifierError::BadPointer { reg, pc } => {
                write!(
                    f,
                    "instruction {pc} dereferences non-pointer register {reg}"
                )
            }
            VerifierError::OutOfBounds {
                region,
                min_off,
                max_end,
                pc,
            } => write!(
                f,
                "instruction {pc}: cannot prove {region} access in bounds \
                 (offset may span [{min_off}, {max_end}))"
            ),
            VerifierError::Misaligned { region, size, pc } => write!(
                f,
                "instruction {pc}: cannot prove {size}-byte alignment of {region} access"
            ),
            VerifierError::UninitStackRead { pc } => {
                write!(f, "instruction {pc} reads uninitialized stack memory")
            }
            VerifierError::BadPointerArithmetic { pc } => {
                write!(
                    f,
                    "instruction {pc} performs unsupported pointer arithmetic"
                )
            }
            VerifierError::NoReturnValue { pc } => {
                write!(f, "exit at instruction {pc} without a value in r0")
            }
            VerifierError::PointerLeak { pc } => {
                write!(f, "exit at instruction {pc} would leak a pointer in r0")
            }
            VerifierError::NullMapValue { reg, pc } => {
                write!(
                    f,
                    "instruction {pc} dereferences map value pointer {reg} \
                     that may be NULL (no NULL check on this path)"
                )
            }
            VerifierError::UnknownHelper { helper, pc } => {
                write!(f, "call at instruction {pc} names unknown helper {helper}")
            }
            VerifierError::BadHelperArg {
                helper,
                arg,
                expected,
                pc,
            } => {
                write!(
                    f,
                    "call to helper {helper} at instruction {pc}: \
                     argument r{arg} is not {expected}"
                )
            }
            VerifierError::UnknownMap { map, pc } => {
                write!(f, "instruction {pc} references unknown map {map}")
            }
            VerifierError::DeadlineExceeded { elapsed, pc } => {
                write!(
                    f,
                    "analysis deadline exceeded after {:.3} ms at instruction {pc}",
                    elapsed.as_secs_f64() * 1e3
                )
            }
            VerifierError::InternalFault { detail } => {
                write!(f, "internal analyzer fault (contained): {detail}")
            }
        }
    }
}

impl std::error::Error for VerifierError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pc_accessor_and_display() {
        let e = VerifierError::OutOfBounds {
            region: "stack",
            min_off: -520,
            max_end: -512,
            pc: 4,
        };
        assert_eq!(e.pc(), 4);
        assert!(e.to_string().contains("stack"));
        let e = VerifierError::UninitRead {
            reg: Reg::R3,
            pc: 1,
        };
        assert!(e.to_string().contains("r3"));
        assert_eq!(e.pc(), 1);
    }

    #[test]
    fn governance_variants_report_pc_and_display() {
        let e = VerifierError::DeadlineExceeded {
            elapsed: std::time::Duration::from_millis(7),
            pc: 9,
        };
        assert_eq!(e.pc(), 9);
        assert!(e.to_string().contains("deadline"));
        assert!(e.to_string().contains("7.000 ms"));
        let e = VerifierError::InternalFault {
            detail: "worker panicked: boom".to_string(),
        };
        assert_eq!(e.pc(), 0);
        assert!(e.to_string().contains("contained"));
        assert!(e.to_string().contains("boom"));
    }

    #[test]
    fn is_std_error() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<VerifierError>();
    }
}
