//! The transfer layer: abstract semantics of individual instructions —
//! ALU arithmetic (including pointer arithmetic), conditional branches
//! with two-sided refinement, and bounds/alignment-checked memory access.
//!
//! [`Transfer`] is deliberately *stateless across instructions*: it maps
//! one `(state, instruction)` pair to successor contributions and knows
//! nothing about iteration order, joins, or widening — that is
//! [`crate::fixpoint`]'s job. The split mirrors the paper's architecture
//! (abstract operators vs. the analysis driving them) and keeps every
//! safety check in one place regardless of how the engine schedules it.
//!
//! Two properties keep the per-visit hot path cheap for both engines:
//! successor contributions come back in the inline, allocation-free
//! [`Successors`] pair (an instruction has at most a fall-through and a
//! jump target), and every state write goes through the copy-on-write
//! layer — a stack store materializes one ~0.5 KiB chunk of the frame,
//! never the whole 4 KiB array, and a no-op write (a refinement that
//! derived the same value) keeps components shared, which preserves both
//! the `Rc` short-circuits and the state fingerprints downstream pruning
//! probes lean on.

use ebpf::{AluOp, Insn, JmpOp, MemSize, Program, Reg, Src, Width, STACK_SIZE};

use crate::analyzer::AnalyzerOptions;
use crate::branch::{refine, refine32};
use crate::error::VerifierError;
use crate::memo::{MemoEffect, MemoKey};
use crate::scalar::Scalar;
use crate::state::{value_fingerprint, AbsState, StackSlot, WriteSet};
use crate::value::RegValue;

/// The successor contributions of one abstract step: at most two
/// (the fall-through and a jump target), stored inline so the hottest
/// path of both exploration engines — one `step` per visit — performs
/// no heap allocation.
///
/// Iterate it like the `Vec` it replaces:
///
/// ```
/// use ebpf::asm::assemble;
/// use verifier::transfer::Transfer;
/// use verifier::{AbsState, AnalyzerOptions};
///
/// let prog = assemble("r0 = 0\nexit")?;
/// let transfer = Transfer::new(AnalyzerOptions::default());
/// for (succ, _state) in transfer.step(&prog, AbsState::entry(), 0)? {
///     assert_eq!(succ, 1);
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Default)]
pub struct Successors {
    slots: [Option<(usize, AbsState)>; 2],
}

impl Successors {
    /// No successors (`exit`, or a branch with both edges infeasible).
    fn none() -> Successors {
        Successors::default()
    }

    /// A single successor.
    fn one(pc: usize, state: AbsState) -> Successors {
        Successors {
            slots: [Some((pc, state)), None],
        }
    }

    /// Fall-through and/or taken edge of a conditional jump, either of
    /// which may have been refined away as infeasible.
    fn branch(fall: Option<(usize, AbsState)>, taken: Option<(usize, AbsState)>) -> Successors {
        Successors {
            slots: [fall, taken],
        }
    }
}

impl IntoIterator for Successors {
    type Item = (usize, AbsState);
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<(usize, AbsState)>, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.slots.into_iter().flatten()
    }
}

/// The instruction-semantics half of the analyzer: one abstract step.
#[derive(Clone, Debug)]
pub struct Transfer {
    options: AnalyzerOptions,
    /// [`AnalyzerOptions::ctx_size`] as the end of the ctx region,
    /// saturated: a size past `i64::MAX` bounds no access further.
    ctx_end: i64,
}

/// Where a walk's failed checks go: the failure sink of
/// [`Transfer::step_with`].
pub(crate) trait Checks {
    /// Fails with `e`, or records `e` and lets the walk go on.
    fn fail(&mut self, e: VerifierError) -> Result<(), VerifierError>;
}

/// The verdict's checks: a failed check fails the walk.
pub(crate) struct Strict;

impl Checks for Strict {
    fn fail(&mut self, e: VerifierError) -> Result<(), VerifierError> {
        Err(e)
    }
}

/// A recording walk keeps its first failure and goes on: a region check
/// with the access met with the region, where that meet is not empty;
/// any other failed check ends the path.
impl Checks for Option<VerifierError> {
    fn fail(&mut self, e: VerifierError) -> Result<(), VerifierError> {
        self.get_or_insert(e);
        Ok(())
    }
}

/// The positions one [`Transfer::step`] of `insn` can write, for the
/// instructions with one successor whatever the state: `None` for a
/// conditional jump and for `exit`. The path walk's report leans on it
/// (`ReportAcc`), so it must cover every write `step` makes; the
/// `step_writes_only_its_write_set` test checks that it does.
pub(crate) fn write_set(insn: Insn) -> Option<WriteSet> {
    let writes = |regs: u16, stack: bool| Some(WriteSet { regs, stack });
    match insn {
        Insn::Alu { dst, .. } | Insn::LoadImm64 { dst, .. } | Insn::Load { dst, .. } => {
            writes(1 << dst.index(), false)
        }
        Insn::Store { .. } => writes(0, true),
        // r0 takes the return value, r1-r5 are clobbered, and a helper
        // may write a stack region it was handed.
        Insn::Call { .. } => writes(0b11_1111, true),
        Insn::Ja { .. } => writes(0, false),
        Insn::Jmp { .. } | Insn::Exit => None,
    }
}

/// The abstract value produced by a load of `size` bytes whose content is
/// not tracked: zero-extended, so the high `64 - 8·size` bits are known
/// zero (the kernel's `coerce_reg_to_size`). Bounding a `u8` load to
/// `[0, 255]` is what lets a 32-bit guard on it transfer range facts to
/// the full register.
fn loaded_value(size: MemSize) -> RegValue {
    if size == MemSize::DW {
        return RegValue::unknown_scalar();
    }
    let low = u64::MAX >> (64 - 8 * size.bytes());
    RegValue::Scalar(Scalar::from_tnum(tnum::Tnum::masked(0, low)))
}

impl Transfer {
    /// Builds the transfer layer for one analysis configuration.
    #[must_use]
    pub fn new(options: AnalyzerOptions) -> Transfer {
        let ctx_end = i64::try_from(options.ctx_size).unwrap_or(i64::MAX);
        Transfer { options, ctx_end }
    }

    /// Executes one instruction abstractly: runs every safety check and
    /// returns the `(successor, out-state)` contributions.
    ///
    /// # Errors
    ///
    /// A [`VerifierError`] when the instruction is provably unsafe under
    /// `state` — the program must be rejected.
    pub fn step(
        &self,
        prog: &Program,
        state: AbsState,
        pc: usize,
    ) -> Result<Successors, VerifierError> {
        self.step_with(prog, state, pc, &mut Strict)
    }

    /// [`Transfer::step`] under `checks`: the error is a failed check
    /// the step cannot go on past.
    pub(crate) fn step_with(
        &self,
        prog: &Program,
        state: AbsState,
        pc: usize,
        checks: &mut impl Checks,
    ) -> Result<Successors, VerifierError> {
        let insn = prog.insns()[pc];
        self.check_reads(&state, insn, pc)?;
        match insn {
            Insn::Jmp {
                width,
                op,
                dst,
                src,
                off,
            } => {
                let taken_target = prog.jump_target(pc, off).expect("validated");
                let (fall, taken) = self.branch_states(&state, width, op, dst, src)?;
                Ok(Successors::branch(
                    fall.map(|s| (pc + 1, s)),
                    taken.map(|s| (taken_target, s)),
                ))
            }
            Insn::Ja { off } => {
                let target = prog.jump_target(pc, off).expect("validated");
                Ok(Successors::one(target, state))
            }
            Insn::Exit => match state.reg(Reg::R0) {
                RegValue::Uninit => Err(VerifierError::NoReturnValue { pc }),
                RegValue::Scalar(_) => Ok(Successors::none()),
                _ => Err(VerifierError::PointerLeak { pc }),
            },
            _ => {
                let next = self.transfer(state, insn, pc, checks)?;
                Ok(Successors::one(pc + 1, next))
            }
        }
    }

    /// Rejects reads of uninitialized registers.
    fn check_reads(&self, state: &AbsState, insn: Insn, pc: usize) -> Result<(), VerifierError> {
        // Helper calls are checked argument-by-argument against the
        // registry in [`crate::helpers::check_call`], which knows each
        // helper's arity — `use_regs` would over-approximate with all of
        // r1–r5.
        if matches!(insn, Insn::Call { .. }) {
            return Ok(());
        }
        for reg in insn.use_regs() {
            if !state.reg(reg).is_readable() {
                return Err(VerifierError::UninitRead { reg, pc });
            }
        }
        Ok(())
    }

    /// Transfer function for non-control-flow instructions.
    fn transfer(
        &self,
        mut state: AbsState,
        insn: Insn,
        pc: usize,
        checks: &mut impl Checks,
    ) -> Result<AbsState, VerifierError> {
        match insn {
            Insn::Alu {
                width,
                op,
                dst,
                src,
            } => {
                let new = self.alu_value(&state, width, op, dst, src, pc)?;
                state.set_reg(dst, new);
            }
            Insn::LoadImm64 { dst, imm } => {
                // A tagged immediate (`rD = map N`) loads a map handle —
                // the analogue of the kernel's BPF_PSEUDO_MAP_FD lddw,
                // whose fd the loader resolves before verification.
                let value = match ebpf::helpers::map_id_of_imm(imm) {
                    Some(map) if ebpf::helpers::map_def(map).is_some() => {
                        RegValue::MapHandle { map }
                    }
                    Some(map) => return Err(VerifierError::UnknownMap { map, pc }),
                    None => RegValue::Scalar(Scalar::constant(imm)),
                };
                state.set_reg(dst, value);
            }
            Insn::Load {
                size,
                dst,
                base,
                off,
            } => {
                let value = self.check_load(&mut state, size, base, off, pc, checks)?;
                state.set_reg(dst, value);
            }
            Insn::Store {
                size,
                base,
                off,
                src,
            } => {
                let value = match src {
                    Src::Reg(r) => state.reg(r),
                    Src::Imm(v) => RegValue::Scalar(Scalar::constant(v as i64 as u64)),
                };
                self.check_store(&mut state, size, base, off, value, pc, checks)?;
            }
            Insn::Call { helper } => {
                // Never memoized: helper transfers produce pointers and
                // model impure runtime behaviour, so every call site is
                // re-checked against the live state.
                crate::helpers::check_call(&mut state, helper, pc)?;
            }
            Insn::Ja { .. } | Insn::Jmp { .. } | Insn::Exit => unreachable!("handled by caller"),
        }
        Ok(state)
    }

    /// Computes the new value of `dst` for an ALU instruction, modeling
    /// pointer arithmetic on `add`/`sub`/`mov`.
    fn alu_value(
        &self,
        state: &AbsState,
        width: Width,
        op: AluOp,
        dst: Reg,
        src: Src,
        pc: usize,
    ) -> Result<RegValue, VerifierError> {
        let rhs: RegValue = match src {
            Src::Reg(r) => state.reg(r),
            Src::Imm(v) => RegValue::Scalar(Scalar::constant(v as i64 as u64)),
        };
        let lhs = state.reg(dst);

        // Mov just propagates the source value (pointers included) at
        // 64-bit width; 32-bit mov truncates and hence scalarizes.
        if op == AluOp::Mov {
            return Ok(match (width, rhs) {
                (Width::W64, v) => v,
                (Width::W32, RegValue::Scalar(s)) => RegValue::Scalar(s.subreg()),
                (Width::W32, _) => RegValue::unknown_scalar(),
            });
        }

        match (lhs, rhs) {
            (RegValue::Scalar(a), RegValue::Scalar(b)) => {
                Ok(RegValue::Scalar(self.memo_alu(width, op, a, b)))
            }
            // Pointer ± scalar keeps the region, shifting the offset.
            (RegValue::StackPtr { offset }, RegValue::Scalar(b))
                if width == Width::W64 && (op == AluOp::Add || op == AluOp::Sub) =>
            {
                Ok(RegValue::StackPtr {
                    offset: offset.alu64(op, b),
                })
            }
            (RegValue::CtxPtr { offset }, RegValue::Scalar(b))
                if width == Width::W64 && (op == AluOp::Add || op == AluOp::Sub) =>
            {
                Ok(RegValue::CtxPtr {
                    offset: offset.alu64(op, b),
                })
            }
            // Only a NULL-checked map value pointer may be shifted;
            // arithmetic on an `or_null` pointer (or on a map handle)
            // falls through to the rejection below, like the kernel's
            // "pointer arithmetic on map_value_or_null prohibited".
            (
                RegValue::MapValuePtr {
                    map,
                    or_null: false,
                    offset,
                },
                RegValue::Scalar(b),
            ) if width == Width::W64 && (op == AluOp::Add || op == AluOp::Sub) => {
                Ok(RegValue::MapValuePtr {
                    map,
                    or_null: false,
                    offset: offset.alu64(op, b),
                })
            }
            // Same-region pointer difference yields a scalar.
            (RegValue::StackPtr { offset: a }, RegValue::StackPtr { offset: b })
            | (RegValue::CtxPtr { offset: a }, RegValue::CtxPtr { offset: b })
                if width == Width::W64 && op == AluOp::Sub =>
            {
                Ok(RegValue::Scalar(a.alu64(AluOp::Sub, b)))
            }
            (
                RegValue::MapValuePtr {
                    map: ma,
                    or_null: false,
                    offset: a,
                },
                RegValue::MapValuePtr {
                    map: mb,
                    or_null: false,
                    offset: b,
                },
            ) if ma == mb && width == Width::W64 && op == AluOp::Sub => {
                Ok(RegValue::Scalar(a.alu64(AluOp::Sub, b)))
            }
            (RegValue::Uninit, _) | (_, RegValue::Uninit) => {
                unreachable!("checked by check_reads")
            }
            _ => Err(VerifierError::BadPointerArithmetic { pc }),
        }
    }

    /// Scalar × scalar ALU arithmetic, through the transfer memo cache
    /// when [`AnalyzerOptions::memo_cache`] is set: a pure function of
    /// `(width, op, a, b)`, so a verified cache hit returns the
    /// bit-identical scalar the computation would have produced.
    fn memo_alu(&self, width: Width, op: AluOp, a: Scalar, b: Scalar) -> Scalar {
        let Some(cache) = &self.options.memo_cache else {
            return a.alu(width, op, b);
        };
        let key = MemoKey::alu(
            width,
            op,
            value_fingerprint(RegValue::Scalar(a)),
            value_fingerprint(RegValue::Scalar(b)),
        );
        if let Some(MemoEffect::Alu(out)) = cache.lookup(key, a, b) {
            return out;
        }
        let out = a.alu(width, op, b);
        cache.insert(key, a, b, MemoEffect::Alu(out));
        out
    }

    /// Both refined edges (`[fall, taken]`) of a scalar × scalar
    /// comparison, through the memo cache when enabled. Infeasible edges
    /// (`None`) are part of the cached effect — they are verdict-relevant
    /// and must reproduce exactly.
    fn memo_refine(
        &self,
        width: Width,
        op: JmpOp,
        a: Scalar,
        b: Scalar,
    ) -> [Option<(Scalar, Scalar)>; 2] {
        let compute = || {
            let edge = |taken| match width {
                Width::W64 => refine(op, taken, a, b),
                Width::W32 => refine32(op, taken, a, b),
            };
            [edge(false), edge(true)]
        };
        let Some(cache) = &self.options.memo_cache else {
            return compute();
        };
        let key = MemoKey::branch(
            width,
            op,
            value_fingerprint(RegValue::Scalar(a)),
            value_fingerprint(RegValue::Scalar(b)),
        );
        if let Some(MemoEffect::Branch(edges)) = cache.lookup(key, a, b) {
            return edges;
        }
        let edges = compute();
        cache.insert(key, a, b, MemoEffect::Branch(edges));
        edges
    }

    /// Produces the fall-through and taken states of a conditional jump
    /// (`None` for provably infeasible edges).
    ///
    /// 64-bit scalar/scalar comparisons refine through
    /// [`refine`]; 32-bit ones through [`refine32`], which sharpens the
    /// zero-extended low words (so `if w1 < 16` now bounds a 32-bit
    /// counter exactly instead of passing both edges through unrefined).
    #[allow(clippy::type_complexity)]
    fn branch_states(
        &self,
        state: &AbsState,
        width: Width,
        op: JmpOp,
        dst: Reg,
        src: Src,
    ) -> Result<(Option<AbsState>, Option<AbsState>), VerifierError> {
        let rhs: RegValue = match src {
            Src::Reg(r) => state.reg(r),
            Src::Imm(v) => RegValue::Scalar(Scalar::constant(v as i64 as u64)),
        };
        let lhs = state.reg(dst);

        // A NULL check on a may-be-NULL map value pointer splits it: the
        // nonzero edge carries a dereferenceable pointer, the zero edge a
        // known-NULL scalar (the kernel's `mark_ptr_or_null_reg`). This is
        // a safety-typing transition, not a precision refinement, so it is
        // not gated on `refine_branches` — and never memoized: it changes
        // a register's *kind*, outside the scalar-effect cache's domain.
        if let RegValue::MapValuePtr {
            map,
            or_null: true,
            offset,
        } = lhs
        {
            let vs_zero = matches!(rhs, RegValue::Scalar(s) if s.as_constant() == Some(0));
            if width == Width::W64 && vs_zero && matches!(op, JmpOp::Eq | JmpOp::Ne) {
                let with = |v: RegValue| {
                    let mut out = state.clone();
                    out.set_reg(dst, v);
                    Some(out)
                };
                let null = RegValue::Scalar(Scalar::constant(0));
                let ptr = RegValue::MapValuePtr {
                    map,
                    or_null: false,
                    offset,
                };
                return Ok(if op == JmpOp::Eq {
                    (with(ptr), with(null))
                } else {
                    (with(null), with(ptr))
                });
            }
        }

        // Refinement applies to scalar/scalar comparisons; pointers pass
        // both states through unchanged (sound).
        let (lhs_s, rhs_s) = match (lhs, rhs) {
            (RegValue::Scalar(a), RegValue::Scalar(b)) if self.options.refine_branches => (a, b),
            _ => return Ok((Some(state.clone()), Some(state.clone()))),
        };

        let edges = self.memo_refine(width, op, lhs_s, rhs_s);
        let make = |edge: Option<(Scalar, Scalar)>| -> Option<AbsState> {
            let (d, s) = edge?;
            let mut out = state.clone();
            out.set_reg(dst, RegValue::Scalar(d));
            if let Src::Reg(r) = src {
                out.set_reg(r, RegValue::Scalar(s));
            }
            Some(out)
        };
        Ok((make(edges[0]), make(edges[1])))
    }

    /// Bounds- and alignment-checks a load, returning the loaded value.
    fn check_load(
        &self,
        state: &mut AbsState,
        size: MemSize,
        base: Reg,
        off: i16,
        pc: usize,
        checks: &mut impl Checks,
    ) -> Result<RegValue, VerifierError> {
        let stack = (-(STACK_SIZE as i64), 0);
        match state.reg(base) {
            RegValue::StackPtr { offset } => {
                let (lo, hi) = self.check_region("stack", offset, off, size, stack, pc, checks)?;
                if lo == hi && (lo % 8 == 0 || (lo - (lo & !7)) + size.bytes() as i64 <= 8) {
                    // Constant offset: consult the slot contents.
                    match state.stack_slot(lo).expect("in range") {
                        StackSlot::Uninit => Err(VerifierError::UninitStackRead { pc }),
                        StackSlot::Spill(v) if size == MemSize::DW && lo % 8 == 0 => Ok(v),
                        _ => Ok(loaded_value(size)),
                    }
                } else {
                    // Variable offset: every possibly-read byte must be
                    // initialized.
                    if state.stack_range_initialized(lo, hi + size.bytes() as i64) {
                        Ok(loaded_value(size))
                    } else {
                        Err(VerifierError::UninitStackRead { pc })
                    }
                }
            }
            RegValue::CtxPtr { offset } => {
                self.check_region("ctx", offset, off, size, (0, self.ctx_end), pc, checks)?;
                Ok(loaded_value(size))
            }
            RegValue::MapValuePtr { or_null: true, .. } => {
                Err(VerifierError::NullMapValue { reg: base, pc })
            }
            RegValue::MapValuePtr {
                map,
                or_null: false,
                offset,
            } => {
                self.check_map_value_region(map, offset, off, size, pc, checks)?;
                Ok(loaded_value(size))
            }
            RegValue::Uninit => Err(VerifierError::UninitRead { reg: base, pc }),
            RegValue::Scalar(_) | RegValue::MapHandle { .. } => {
                Err(VerifierError::BadPointer { reg: base, pc })
            }
        }
    }

    /// Bounds- and alignment-checks a store, updating the stack state.
    #[allow(clippy::too_many_arguments)]
    fn check_store(
        &self,
        state: &mut AbsState,
        size: MemSize,
        base: Reg,
        off: i16,
        value: RegValue,
        pc: usize,
        checks: &mut impl Checks,
    ) -> Result<(), VerifierError> {
        // Uninitialized store *values* are already rejected by
        // check_reads: a store's use_regs() includes its source register.
        debug_assert!(value.is_readable());
        let stack = (-(STACK_SIZE as i64), 0);
        match state.reg(base) {
            RegValue::StackPtr { offset } => {
                let (lo, hi) = self.check_region("stack", offset, off, size, stack, pc, checks)?;
                if lo == hi && size == MemSize::DW && lo % 8 == 0 {
                    state.set_stack_slot(lo, StackSlot::Spill(value));
                } else {
                    state.smear_stack(lo, hi + size.bytes() as i64);
                }
                Ok(())
            }
            RegValue::CtxPtr { offset } => {
                self.check_region("ctx", offset, off, size, (0, self.ctx_end), pc, checks)?;
                Ok(())
            }
            RegValue::MapValuePtr { or_null: true, .. } => {
                Err(VerifierError::NullMapValue { reg: base, pc })
            }
            RegValue::MapValuePtr {
                map,
                or_null: false,
                offset,
            } => {
                // Map values are shared with user space: storing a
                // pointer into one would publish a kernel address (the
                // kernel's "leaks addr into map" rejection).
                if value.is_pointer() {
                    return Err(VerifierError::PointerLeak { pc });
                }
                self.check_map_value_region(map, offset, off, size, pc, checks)?;
                Ok(())
            }
            RegValue::Uninit => Err(VerifierError::UninitRead { reg: base, pc }),
            RegValue::Scalar(_) | RegValue::MapHandle { .. } => {
                Err(VerifierError::BadPointer { reg: base, pc })
            }
        }
    }

    /// Bounds- and alignment-checks an access through a NULL-checked map
    /// value pointer against its map's `[0, value_size)` region.
    fn check_map_value_region(
        &self,
        map: u32,
        offset: Scalar,
        off: i16,
        size: MemSize,
        pc: usize,
        checks: &mut impl Checks,
    ) -> Result<(i64, i64), VerifierError> {
        // The map id was validated when the handle was loaded, and the
        // pointer kind only arises from a checked handle.
        let def = ebpf::helpers::map_def(map).expect("handle validated at lddw");
        let region = (0, i64::from(def.value_size));
        self.check_region("map_value", offset, off, size, region, pc, checks)
    }

    /// Proves `region_lo <= offset + off` and
    /// `offset + off + size <= region_hi` for every possible offset, plus
    /// alignment under strict mode, through the memo cache when enabled:
    /// the verdict is a pure function of the offset scalar and the
    /// packed remaining inputs ([`Self::mem_check_params`]), so batches
    /// of similar programs (and repeated loop trips) skip the bounds
    /// arithmetic on their recurring accesses. Only `Ok` verdicts are
    /// cached — errors carry the failing `pc`.
    /// Returns the extreme byte offsets of the access start.
    ///
    /// An access past the region fails under `checks`; a recording step
    /// goes on with the access met with the region (`bounds`, as
    /// `[region_lo, region_hi)`), and an empty meet ends its path.
    #[allow(clippy::too_many_arguments)]
    fn check_region(
        &self,
        region: &'static str,
        offset: Scalar,
        off: i16,
        size: MemSize,
        bounds: (i64, i64),
        pc: usize,
        checks: &mut impl Checks,
    ) -> Result<(i64, i64), VerifierError> {
        let (region_lo, region_hi) = bounds;
        let checked = match (
            &self.options.memo_cache,
            self.mem_check_params(region, off, size, region_hi),
        ) {
            (Some(cache), Some(params)) => {
                let key = MemoKey::mem(value_fingerprint(RegValue::Scalar(offset)), params);
                let rhs = Scalar::constant(params);
                if let Some(MemoEffect::Mem(extremes)) = cache.lookup(key, offset, rhs) {
                    return Ok(extremes);
                }
                let checked = self.check_region_uncached(region, offset, off, size, bounds, pc);
                if let Ok(extremes) = checked {
                    cache.insert(key, offset, rhs, MemoEffect::Mem(extremes));
                }
                checked
            }
            _ => self.check_region_uncached(region, offset, off, size, bounds, pc),
        };
        match checked {
            Err(
                e @ VerifierError::OutOfBounds {
                    min_off, max_end, ..
                },
            ) => {
                let lo = min_off.max(region_lo);
                let hi = max_end.min(region_hi) - size.bytes() as i64;
                if lo > hi {
                    return Err(e);
                }
                checks.fail(e)?;
                Ok((lo, hi))
            }
            checked => checked,
        }
    }

    /// Packs every input of a region check except the offset scalar into
    /// one verification word — the memo `rhs` operand — or `None` when
    /// the region extent is too large to pack losslessly (then the check
    /// simply runs uncached). The two-bit kind fixes `region_lo` (the
    /// stack frame's `-512`, zero otherwise) and the packed `region_hi`
    /// the extent, so the word determines the whole check — in
    /// particular a stack verdict can never satisfy a `map_value` check
    /// that happens to share an offset scalar.
    fn mem_check_params(
        &self,
        region: &'static str,
        off: i16,
        size: MemSize,
        region_hi: i64,
    ) -> Option<u64> {
        if !(0..1 << 40).contains(&region_hi) {
            return None;
        }
        let kind = match region {
            "stack" => 0u64,
            "ctx" => 1,
            _ => 2, // map_value
        };
        Some(
            u64::from(off as u16)
                | size.bytes() << 16
                | u64::from(self.options.strict_alignment) << 20
                | kind << 21
                | (region_hi as u64) << 23,
        )
    }

    /// The unmemoized region check: the bounds and alignment arithmetic
    /// itself.
    fn check_region_uncached(
        &self,
        region: &'static str,
        offset: Scalar,
        off: i16,
        size: MemSize,
        (region_lo, region_hi): (i64, i64),
        pc: usize,
    ) -> Result<(i64, i64), VerifierError> {
        let total = offset.alu64(AluOp::Add, Scalar::constant(off as i64 as u64));
        let lo = total.bounds().smin();
        let hi = total.bounds().smax();
        let end = hi.checked_add(size.bytes() as i64);
        let in_bounds = lo >= region_lo && end.is_some_and(|e| e <= region_hi);
        if !in_bounds {
            return Err(VerifierError::OutOfBounds {
                region,
                min_off: lo,
                max_end: end.unwrap_or(i64::MAX),
                pc,
            });
        }
        if self.options.strict_alignment && !total.tnum().is_aligned(size.bytes()) {
            return Err(VerifierError::Misaligned {
                region,
                size: size.bytes(),
                pc,
            });
        }
        Ok((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Strategy, VerificationSession};
    use domain::rng::SplitMix64;
    use ebpf::asm::assemble;

    /// The instruction classes [`write_set`] covers, in table order.
    const CLASSES: [&str; 6] = ["alu", "lddw", "load", "store", "call", "ja"];

    fn class(insn: Insn) -> Option<usize> {
        Some(match insn {
            Insn::Alu { .. } => 0,
            Insn::LoadImm64 { .. } => 1,
            Insn::Load { .. } => 2,
            Insn::Store { .. } => 3,
            Insn::Call { .. } => 4,
            Insn::Ja { .. } => 5,
            Insn::Jmp { .. } | Insn::Exit => return None,
        })
    }

    /// Steps `state` at `pc` while a clone of it stays alive (as the path
    /// walk's report keeps one), checks that an instruction with a write
    /// set has one successor and wrote nothing outside the set, counts it
    /// in `seen` by class, and returns the successors (none on an error).
    fn checked_step(
        transfer: &Transfer,
        prog: &Program,
        state: AbsState,
        pc: usize,
        seen: &mut [u32; 6],
        at: &str,
    ) -> Vec<(usize, AbsState)> {
        let insn = prog.insns()[pc];
        let before = state.clone();
        let Ok(succs) = transfer.step(prog, state, pc) else {
            return Vec::new();
        };
        let succs: Vec<_> = succs.into_iter().collect();
        if let (Some(writes), Some(c)) = (write_set(insn), class(insn)) {
            assert_eq!(succs.len(), 1, "{at}: pc {pc} ({insn:?}) forked");
            let written = succs[0].1.written_since(&before);
            assert!(
                written.regs & !writes.regs == 0 && (writes.stack || !written.stack),
                "{at}: pc {pc} ({insn:?}) wrote {written:?} outside its write set {writes:?}"
            );
            seen[c] += 1;
        }
        succs
    }

    /// Variable-offset loads through stack, ctx and map-value pointers,
    /// both `lddw` forms, a helper call and a `goto` to the next pc: what
    /// the random programs and the fixtures reach rarely or never.
    const SHAPES: &str = "
        r2 = *(u8 *)(r1 + 0)
        r2 &= 6
        *(u64 *)(r10 - 8) = 0
        *(u64 *)(r10 - 16) = 0
        r3 = r10
        r3 += -16
        r3 += r2
        r4 = *(u8 *)(r3 + 0)
        *(u8 *)(r3 + 1) = 7
        r5 = r1
        r5 += r2
        r6 = *(u8 *)(r5 + 0)
        r7 = 4294967296 ll
        goto next
    next:
        *(u32 *)(r10 - 20) = 1
        r1 = map 0
        r2 = r10
        r2 += -20
        call 1
        if r0 == 0 goto out
        r9 = r6
        r9 &= 3
        r0 += r9
        r8 = *(u8 *)(r0 + 0)
    out:
        r0 = 0
        exit
    ";

    #[test]
    fn step_writes_only_its_write_set() {
        // Every state the path walk and the fixpoint report on the
        // fixtures, the bench suite and the shapes above, stepped once.
        let mut seen = [0u32; 6];
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
        let mut progs = vec![("shapes".to_string(), assemble(SHAPES).expect("assembles"))];
        for entry in std::fs::read_dir(dir).expect("fixtures directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "ebpf") {
                let source = std::fs::read_to_string(&path).expect("fixture reads");
                let prog = assemble(&source).expect("fixture assembles");
                progs.push((path.display().to_string(), prog));
            }
        }
        use bench::fixpoint_suite as suite;
        progs.extend(
            suite::sweep_configs()
                .into_iter()
                .chain(suite::parshard_configs(4, 8))
                .map(|(label, prog, _)| (label, prog)),
        );
        let options = AnalyzerOptions::default();
        let transfer = Transfer::new(options.clone());
        for (label, prog) in &progs {
            for strategy in [Strategy::PathSensitive, Strategy::WideningFixpoint] {
                let session = VerificationSession::new()
                    .with_strategy(strategy)
                    .with_options(options.clone());
                let Ok(analysis) = session.run(prog) else {
                    continue;
                };
                for pc in 0..prog.len() {
                    if let Some(state) = analysis.state_before(pc) {
                        checked_step(&transfer, prog, state.clone(), pc, &mut seen, label);
                    }
                }
            }
        }
        // Random programs need not verify: walk each one from the entry,
        // ending a path where a step is rejected, for a few hundred steps.
        let mut rng = SplitMix64::new(0x3B17_5E75);
        for round in 0..1_500 {
            let len = 2 + rng.below(40) as usize;
            let prog = crate::cfg::tests::random_program(&mut rng, len);
            let at = format!("round {round}:\n{}", prog.disassemble());
            let mut stack = vec![(0, AbsState::entry())];
            let mut steps = 0;
            while let Some((pc, state)) = stack.pop() {
                steps += 1;
                if steps > 300 {
                    break;
                }
                stack.extend(checked_step(&transfer, &prog, state, pc, &mut seen, &at));
            }
        }
        for (c, name) in CLASSES.iter().enumerate() {
            assert!(seen[c] >= 8, "only {} {name} steps checked", seen[c]);
        }
    }
}
