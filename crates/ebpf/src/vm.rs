//! A concrete interpreter for the eBPF subset.
//!
//! Implements BPF's defined arithmetic semantics exactly: wrapping ALU
//! operations, `x / 0 = 0`, `x % 0 = x`, shift amounts masked to the
//! operand width, and 32-bit operations that zero-extend into the 64-bit
//! register. Memory is a 512-byte stack frame plus a caller-supplied
//! context buffer plus the value arenas of the in-VM [`MapStore`],
//! addressed through synthetic base addresses ([`STACK_TOP`],
//! [`CTX_BASE`], [`MAP_BASE`]) so that pointer arithmetic behaves like
//! real addresses while remaining fully bounds-checked.
//!
//! The helpers of [`crate::helpers`] execute natively: `map_lookup`
//! returns a real dereferenceable [`MAP_BASE`]-region pointer (or 0),
//! `map_update`/`map_delete` mutate the store, and `get_prandom` steps a
//! deterministic generator — so differential tests can compare verifier
//! verdicts against genuine end-to-end executions.

use std::collections::{BTreeMap, HashMap};

use crate::error::VmError;
use crate::helpers::{
    map_def, map_id_of_imm, DEFAULT_MAPS, HELPER_GET_PRANDOM, HELPER_MAP_DELETE, HELPER_MAP_LOOKUP,
    HELPER_MAP_UPDATE,
};
use crate::insn::{AluOp, Insn, MemSize, Src, Width};
use crate::program::Program;
use crate::reg::Reg;

/// Size of the BPF stack frame in bytes.
pub const STACK_SIZE: u64 = 512;

/// Synthetic address of the top of the stack; `r10` holds this value and
/// valid stack slots live in `[STACK_TOP - STACK_SIZE, STACK_TOP)`.
pub const STACK_TOP: u64 = 0x7fff_ffff_f000;

/// Synthetic base address of the context buffer passed in `r1`.
pub const CTX_BASE: u64 = 0x1000_0000;

/// Synthetic base address of map value storage: the value slot `s` of
/// map `m` lives at `MAP_BASE + (m << 32) + s * value_size`.
pub const MAP_BASE: u64 = 0x4000_0000_0000;

/// A registered helper function: receives the five argument registers
/// `r1`–`r5` and produces the `r0` return value.
pub type HelperFn = Box<dyn FnMut([u64; 5]) -> u64>;

/// The in-VM map store backing the native map helpers: one instance per
/// entry of [`DEFAULT_MAPS`], each a fixed arena of value slots plus a
/// key index (a `BTreeMap`, so iteration order — and thus slot
/// allocation — is deterministic).
///
/// Value slots never move: `map_update` of an existing key overwrites
/// its slot in place, so pointers returned by earlier lookups stay
/// valid, while `map_delete` vacates the slot and any dangling pointer
/// into it faults on the next access.
pub struct MapStore {
    maps: Vec<MapInstance>,
}

struct MapInstance {
    key_size: usize,
    value_size: usize,
    max_entries: usize,
    /// `max_entries * value_size` bytes of value storage.
    values: Vec<u8>,
    occupied: Vec<bool>,
    /// key bytes -> slot index.
    index: BTreeMap<Vec<u8>, usize>,
}

impl Default for MapStore {
    fn default() -> MapStore {
        MapStore::new()
    }
}

impl MapStore {
    /// Creates an empty store with one instance per [`DEFAULT_MAPS`]
    /// entry.
    #[must_use]
    pub fn new() -> MapStore {
        MapStore {
            maps: DEFAULT_MAPS
                .iter()
                .map(|d| MapInstance {
                    key_size: d.key_size as usize,
                    value_size: d.value_size as usize,
                    max_entries: d.max_entries as usize,
                    values: vec![0; d.max_entries as usize * d.value_size as usize],
                    occupied: vec![false; d.max_entries as usize],
                    index: BTreeMap::new(),
                })
                .collect(),
        }
    }

    /// The synthetic address of the value stored under `key`, or `None`
    /// if the map id is invalid, the key has the wrong size, or no entry
    /// exists.
    #[must_use]
    pub fn lookup(&self, map: u32, key: &[u8]) -> Option<u64> {
        let m = self.maps.get(map as usize)?;
        if key.len() != m.key_size {
            return None;
        }
        let slot = *m.index.get(key)?;
        Some(MAP_BASE + (u64::from(map) << 32) + (slot * m.value_size) as u64)
    }

    /// Inserts or overwrites the entry under `key`. Returns `false` if
    /// the map id or key/value sizes are wrong, or the map is full and
    /// the key is new. Existing keys are updated in place (their slot —
    /// and thus their address — is stable).
    pub fn update(&mut self, map: u32, key: &[u8], value: &[u8]) -> bool {
        let Some(m) = self.maps.get_mut(map as usize) else {
            return false;
        };
        if key.len() != m.key_size || value.len() != m.value_size {
            return false;
        }
        let slot = match m.index.get(key) {
            Some(&s) => s,
            None => {
                let Some(free) = (0..m.max_entries).find(|&s| !m.occupied[s]) else {
                    return false;
                };
                m.index.insert(key.to_vec(), free);
                m.occupied[free] = true;
                free
            }
        };
        m.values[slot * m.value_size..(slot + 1) * m.value_size].copy_from_slice(value);
        true
    }

    /// Removes the entry under `key`, vacating its slot (subsequent
    /// accesses through a stale pointer fault). Returns `false` if no
    /// such entry existed.
    pub fn delete(&mut self, map: u32, key: &[u8]) -> bool {
        let Some(m) = self.maps.get_mut(map as usize) else {
            return false;
        };
        let Some(slot) = m.index.remove(key) else {
            return false;
        };
        m.occupied[slot] = false;
        m.values[slot * m.value_size..(slot + 1) * m.value_size].fill(0);
        true
    }

    /// The current value bytes stored under `key`, for test assertions.
    #[must_use]
    pub fn get(&self, map: u32, key: &[u8]) -> Option<&[u8]> {
        let m = self.maps.get(map as usize)?;
        let slot = *m.index.get(key)?;
        Some(&m.values[slot * m.value_size..(slot + 1) * m.value_size])
    }

    /// Resolves `addr..addr+size` to `(map, arena byte offset)` if it
    /// lies wholly inside one *occupied* value slot.
    fn locate(&self, addr: u64, size: u64) -> Option<(usize, usize)> {
        let rest = addr.checked_sub(MAP_BASE)?;
        let map = usize::try_from(rest >> 32).ok()?;
        let inner = (rest & 0xffff_ffff) as usize;
        let m = self.maps.get(map)?;
        let (slot, off) = (inner / m.value_size, inner % m.value_size);
        if slot >= m.max_entries || !m.occupied[slot] {
            return None;
        }
        if off + size as usize > m.value_size {
            return None;
        }
        Some((map, inner))
    }
}

/// Execution options for the [`Vm`].
#[derive(Clone, Copy, Debug)]
pub struct VmOptions {
    /// Maximum number of instructions to execute before aborting with
    /// [`VmError::OutOfFuel`].
    pub fuel: u64,
}

impl Default for VmOptions {
    fn default() -> VmOptions {
        VmOptions { fuel: 1 << 20 }
    }
}

/// A snapshot of the machine state before executing one instruction,
/// produced by [`Vm::run_traced`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Instruction index about to execute.
    pub pc: usize,
    /// All eleven registers at that point.
    pub regs: [u64; 11],
}

/// The concrete interpreter.
///
/// # Examples
///
/// ```
/// use ebpf::{asm::assemble, Vm};
/// let prog = assemble(r"
///     r0 = *(u8 *)(r1 + 0)
///     r0 *= 3
///     exit
/// ")?;
/// let mut ctx = [14u8];
/// let ret = Vm::new().run(&prog, &mut ctx)?;
/// assert_eq!(ret, 42);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Vm {
    options: VmOptions,
    helpers: HashMap<u32, HelperFn>,
    maps: MapStore,
    /// State of the deterministic `get_prandom` generator.
    prandom: u64,
}

/// Seed of the deterministic `get_prandom` stream (an arbitrary odd
/// constant; determinism is what the differential tests rely on).
const PRANDOM_SEED: u64 = 0x853c_49e6_748f_ea9b;

impl Default for Vm {
    fn default() -> Vm {
        Vm::new()
    }
}

impl Vm {
    /// Creates a VM with default options, an empty [`MapStore`], and no
    /// registered helpers.
    #[must_use]
    pub fn new() -> Vm {
        Vm::with_options(VmOptions::default())
    }

    /// Creates a VM with explicit options.
    #[must_use]
    pub fn with_options(options: VmOptions) -> Vm {
        Vm {
            options,
            helpers: HashMap::new(),
            maps: MapStore::new(),
            prandom: PRANDOM_SEED,
        }
    }

    /// Registers (or replaces) a helper callable via `call id`. A
    /// registered closure takes precedence over the native
    /// implementation of the same id (closures cannot touch VM memory,
    /// so the map helpers are normally left to the native path).
    pub fn register_helper(&mut self, id: u32, f: HelperFn) -> &mut Vm {
        self.helpers.insert(id, f);
        self
    }

    /// The in-VM map store (for inspecting end state in tests).
    #[must_use]
    pub fn maps(&self) -> &MapStore {
        &self.maps
    }

    /// Mutable access to the map store, for seeding entries before a run.
    pub fn maps_mut(&mut self) -> &mut MapStore {
        &mut self.maps
    }

    /// Runs the program to completion and returns `r0`.
    ///
    /// On entry `r1 = CTX_BASE`, `r2 = ctx.len()`, `r10 = STACK_TOP`, and
    /// all other registers are zero.
    ///
    /// # Errors
    ///
    /// Returns a [`VmError`] for out-of-bounds memory accesses, unknown
    /// helpers, or fuel exhaustion.
    pub fn run(&mut self, prog: &Program, ctx: &mut [u8]) -> Result<u64, VmError> {
        self.execute(prog, ctx, None)
    }

    /// Runs the program, recording a `Snapshot` of the registers before
    /// every executed instruction. Used by differential tests that check
    /// concrete states against the abstract interpreter's invariants.
    ///
    /// # Errors
    ///
    /// As [`Vm::run`].
    pub fn run_traced(
        &mut self,
        prog: &Program,
        ctx: &mut [u8],
    ) -> Result<(u64, Vec<Snapshot>), VmError> {
        let mut trace = Vec::new();
        let ret = self.execute(prog, ctx, Some(&mut trace))?;
        Ok((ret, trace))
    }

    fn execute(
        &mut self,
        prog: &Program,
        ctx: &mut [u8],
        mut trace: Option<&mut Vec<Snapshot>>,
    ) -> Result<u64, VmError> {
        let mut regs = [0u64; 11];
        regs[Reg::R1.index()] = CTX_BASE;
        regs[Reg::R2.index()] = ctx.len() as u64;
        regs[Reg::R10.index()] = STACK_TOP;
        let mut stack = [0u8; STACK_SIZE as usize];
        let mut pc = 0usize;
        let mut fuel = self.options.fuel;

        loop {
            if fuel == 0 {
                return Err(VmError::OutOfFuel);
            }
            fuel -= 1;
            let insn = *prog.insns().get(pc).ok_or(VmError::PcOutOfRange { pc })?;
            if let Some(t) = trace.as_deref_mut() {
                t.push(Snapshot { pc, regs });
            }
            match insn {
                Insn::Alu {
                    width,
                    op,
                    dst,
                    src,
                } => {
                    let rhs = self.operand(&regs, src);
                    let lhs = regs[dst.index()];
                    regs[dst.index()] = alu(width, op, lhs, rhs);
                    pc += 1;
                }
                Insn::LoadImm64 { dst, imm } => {
                    regs[dst.index()] = imm;
                    pc += 1;
                }
                Insn::Load {
                    size,
                    dst,
                    base,
                    off,
                } => {
                    let addr = regs[base.index()].wrapping_add(off as i64 as u64);
                    regs[dst.index()] = read_mem(&stack, ctx, &self.maps, addr, size).ok_or(
                        VmError::OutOfBounds {
                            addr,
                            size: size.bytes(),
                            pc,
                        },
                    )?;
                    pc += 1;
                }
                Insn::Store {
                    size,
                    base,
                    off,
                    src,
                } => {
                    let addr = regs[base.index()].wrapping_add(off as i64 as u64);
                    let value = self.operand(&regs, src);
                    write_mem(&mut stack, ctx, &mut self.maps, addr, size, value).ok_or(
                        VmError::OutOfBounds {
                            addr,
                            size: size.bytes(),
                            pc,
                        },
                    )?;
                    pc += 1;
                }
                Insn::Ja { off } => {
                    pc = prog
                        .jump_target(pc, off)
                        .ok_or(VmError::PcOutOfRange { pc })?;
                }
                Insn::Jmp {
                    width,
                    op,
                    dst,
                    src,
                    off,
                } => {
                    let lhs = regs[dst.index()];
                    let rhs = self.operand(&regs, src);
                    let taken = match width {
                        Width::W64 => op.eval64(lhs, rhs),
                        Width::W32 => op.eval32(lhs, rhs),
                    };
                    if taken {
                        pc = prog
                            .jump_target(pc, off)
                            .ok_or(VmError::PcOutOfRange { pc })?;
                    } else {
                        pc += 1;
                    }
                }
                Insn::Call { helper } => {
                    let args = [
                        regs[Reg::R1.index()],
                        regs[Reg::R2.index()],
                        regs[Reg::R3.index()],
                        regs[Reg::R4.index()],
                        regs[Reg::R5.index()],
                    ];
                    regs[Reg::R0.index()] = if let Some(f) = self.helpers.get_mut(&helper) {
                        f(args)
                    } else if crate::helpers::helper_sig(helper).is_some() {
                        self.native_helper(helper, args, &stack, ctx, pc)?
                    } else {
                        return Err(VmError::UnknownHelper { helper, pc });
                    };
                    // r1-r5 are caller-saved: clobber deterministically.
                    for reg in &mut regs[1..=5] {
                        *reg = 0;
                    }
                    pc += 1;
                }
                Insn::Exit => return Ok(regs[Reg::R0.index()]),
            }
        }
    }

    fn operand(&self, regs: &[u64; 11], src: Src) -> u64 {
        match src {
            Src::Reg(r) => regs[r.index()],
            // Immediates are sign-extended to 64 bits, as in the kernel.
            Src::Imm(v) => v as i64 as u64,
        }
    }

    /// Executes one registry helper natively. The map helpers read keys
    /// and values out of VM memory (faulting like a load would) and
    /// mutate the [`MapStore`]; `get_prandom` steps the deterministic
    /// generator.
    fn native_helper(
        &mut self,
        helper: u32,
        args: [u64; 5],
        stack: &[u8],
        ctx: &[u8],
        pc: usize,
    ) -> Result<u64, VmError> {
        let map = || map_id_of_imm(args[0]).ok_or(VmError::BadMapHandle { helper, pc });
        match helper {
            HELPER_GET_PRANDOM => {
                // splitmix64 step; the low 32 bits are the result.
                self.prandom = self.prandom.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.prandom;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                Ok((z ^ (z >> 31)) & 0xffff_ffff)
            }
            HELPER_MAP_LOOKUP => {
                let map = map()?;
                let def = map_def(map).ok_or(VmError::BadMapHandle { helper, pc })?;
                let key = read_bytes(stack, ctx, &self.maps, args[1], def.key_size, pc)?;
                Ok(self.maps.lookup(map, &key).unwrap_or(0))
            }
            HELPER_MAP_UPDATE => {
                let map = map()?;
                let def = map_def(map).ok_or(VmError::BadMapHandle { helper, pc })?;
                let key = read_bytes(stack, ctx, &self.maps, args[1], def.key_size, pc)?;
                let value = read_bytes(stack, ctx, &self.maps, args[2], def.value_size, pc)?;
                Ok(if self.maps.update(map, &key, &value) {
                    0
                } else {
                    (-1i64) as u64 // full map, new key
                })
            }
            HELPER_MAP_DELETE => {
                let map = map()?;
                let def = map_def(map).ok_or(VmError::BadMapHandle { helper, pc })?;
                let key = read_bytes(stack, ctx, &self.maps, args[1], def.key_size, pc)?;
                Ok(if self.maps.delete(map, &key) {
                    0
                } else {
                    (-1i64) as u64 // no such entry
                })
            }
            _ => Err(VmError::UnknownHelper { helper, pc }),
        }
    }
}

/// Reads `len` bytes of VM memory starting at `addr` (any region),
/// faulting like a load would.
fn read_bytes(
    stack: &[u8],
    ctx: &[u8],
    maps: &MapStore,
    addr: u64,
    len: u32,
    pc: usize,
) -> Result<Vec<u8>, VmError> {
    (0..u64::from(len))
        .map(|i| {
            read_mem(stack, ctx, maps, addr.wrapping_add(i), MemSize::B)
                .map(|b| b as u8)
                .ok_or(VmError::OutOfBounds {
                    addr,
                    size: u64::from(len),
                    pc,
                })
        })
        .collect()
}

/// BPF ALU semantics for both widths.
fn alu(width: Width, op: AluOp, dst: u64, src: u64) -> u64 {
    match width {
        Width::W64 => alu64(op, dst, src),
        // 32-bit ops take the low halves and zero-extend the result.
        Width::W32 => alu32(op, dst as u32, src as u32) as u64,
    }
}

fn alu64(op: AluOp, dst: u64, src: u64) -> u64 {
    match op {
        AluOp::Add => dst.wrapping_add(src),
        AluOp::Sub => dst.wrapping_sub(src),
        AluOp::Mul => dst.wrapping_mul(src),
        AluOp::Div => {
            if src == 0 {
                0
            } else {
                dst / src
            }
        }
        AluOp::Mod => {
            if src == 0 {
                dst
            } else {
                dst % src
            }
        }
        AluOp::Or => dst | src,
        AluOp::And => dst & src,
        AluOp::Xor => dst ^ src,
        AluOp::Lsh => dst.wrapping_shl(src as u32 & 63),
        AluOp::Rsh => dst.wrapping_shr(src as u32 & 63),
        AluOp::Arsh => ((dst as i64).wrapping_shr(src as u32 & 63)) as u64,
        AluOp::Neg => dst.wrapping_neg(),
        AluOp::Mov => src,
    }
}

fn alu32(op: AluOp, dst: u32, src: u32) -> u32 {
    match op {
        AluOp::Add => dst.wrapping_add(src),
        AluOp::Sub => dst.wrapping_sub(src),
        AluOp::Mul => dst.wrapping_mul(src),
        AluOp::Div => {
            if src == 0 {
                0
            } else {
                dst / src
            }
        }
        AluOp::Mod => {
            if src == 0 {
                dst
            } else {
                dst % src
            }
        }
        AluOp::Or => dst | src,
        AluOp::And => dst & src,
        AluOp::Xor => dst ^ src,
        AluOp::Lsh => dst.wrapping_shl(src & 31),
        AluOp::Rsh => dst.wrapping_shr(src & 31),
        AluOp::Arsh => ((dst as i32).wrapping_shr(src & 31)) as u32,
        AluOp::Neg => dst.wrapping_neg(),
        AluOp::Mov => src,
    }
}

/// Which mapped region an address range falls in, and the byte offset
/// within it.
fn locate(ctx_len: u64, addr: u64, size: u64) -> Option<(Region, usize)> {
    let stack_base = STACK_TOP - STACK_SIZE;
    if addr >= stack_base && addr.checked_add(size)? <= STACK_TOP {
        return Some((Region::Stack, (addr - stack_base) as usize));
    }
    if addr >= CTX_BASE && addr.checked_add(size)? <= CTX_BASE + ctx_len {
        return Some((Region::Ctx, (addr - CTX_BASE) as usize));
    }
    None
}

#[derive(Clone, Copy)]
enum Region {
    Stack,
    Ctx,
}

fn read_mem(stack: &[u8], ctx: &[u8], maps: &MapStore, addr: u64, size: MemSize) -> Option<u64> {
    let n = size.bytes() as usize;
    let bytes = match locate(ctx.len() as u64, addr, size.bytes()) {
        Some((Region::Stack, off)) => &stack[off..off + n],
        Some((Region::Ctx, off)) => &ctx[off..off + n],
        None => {
            let (map, off) = maps.locate(addr, size.bytes())?;
            &maps.maps[map].values[off..off + n]
        }
    };
    let mut buf = [0u8; 8];
    buf[..n].copy_from_slice(bytes);
    Some(u64::from_le_bytes(buf))
}

fn write_mem(
    stack: &mut [u8],
    ctx: &mut [u8],
    maps: &mut MapStore,
    addr: u64,
    size: MemSize,
    value: u64,
) -> Option<()> {
    let n = size.bytes() as usize;
    let bytes = match locate(ctx.len() as u64, addr, size.bytes()) {
        Some((Region::Stack, off)) => &mut stack[off..off + n],
        Some((Region::Ctx, off)) => &mut ctx[off..off + n],
        None => {
            let (map, off) = maps.locate(addr, size.bytes())?;
            &mut maps.maps[map].values[off..off + n]
        }
    };
    bytes.copy_from_slice(&value.to_le_bytes()[..n]);
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn run(src: &str, ctx: &mut [u8]) -> Result<u64, VmError> {
        Vm::new().run(&assemble(src).unwrap(), ctx)
    }

    #[test]
    fn arithmetic_and_return() {
        assert_eq!(run("r0 = 6\nr0 *= 7\nexit", &mut []).unwrap(), 42);
        assert_eq!(run("r0 = 1\nr0 <<= 40\nexit", &mut []).unwrap(), 1 << 40);
        assert_eq!(run("r0 = -1\nr0 >>= 63\nexit", &mut []).unwrap(), 1);
        assert_eq!(
            run("r0 = -16\nr0 s>>= 2\nexit", &mut []).unwrap(),
            (-4i64) as u64
        );
    }

    #[test]
    fn division_by_zero_semantics() {
        assert_eq!(run("r0 = 7\nr1 = 0\nr0 /= r1\nexit", &mut []).unwrap(), 0);
        assert_eq!(run("r0 = 7\nr1 = 0\nr0 %= r1\nexit", &mut []).unwrap(), 7);
    }

    #[test]
    fn shifts_mask_their_amount() {
        // 64-bit shifts use the low 6 bits of the amount.
        assert_eq!(run("r0 = 1\nr1 = 65\nr0 <<= r1\nexit", &mut []).unwrap(), 2);
        // 32-bit shifts use the low 5 bits.
        assert_eq!(run("w0 = 1\nw1 = 33\nw0 <<= w1\nexit", &mut []).unwrap(), 2);
    }

    #[test]
    fn alu32_zero_extends() {
        // w-register ops clear the high half.
        assert_eq!(
            run("r0 = 0xffffffffffffffff ll\nw0 += 1\nexit", &mut []).unwrap(),
            0
        );
        assert_eq!(
            run("r0 = 0xffffffffffffffff ll\nw0 = w0\nexit", &mut []).unwrap(),
            0xffff_ffff
        );
    }

    #[test]
    fn immediates_sign_extend() {
        assert_eq!(run("r0 = -1\nexit", &mut []).unwrap(), u64::MAX);
        // ... but 32-bit mov stays in the low half.
        assert_eq!(run("w0 = -1\nexit", &mut []).unwrap(), 0xffff_ffff);
    }

    #[test]
    fn stack_round_trip_all_sizes() {
        let src = r"
            r1 = 0x1122334455667788 ll
            *(u64 *)(r10 - 8) = r1
            r2 = *(u64 *)(r10 - 8)
            r3 = *(u32 *)(r10 - 8)
            r4 = *(u16 *)(r10 - 8)
            r5 = *(u8 *)(r10 - 8)
            r0 = r2
            r0 ^= r1       ; zero if round-trip worked
            r0 += r3
            r0 += r4
            r0 += r5
            exit
        ";
        // r3 = low word, r4 = low half, r5 = low byte (little-endian).
        let expect = 0x5566_7788u64 + 0x7788 + 0x88;
        assert_eq!(run(src, &mut []).unwrap(), expect);
    }

    #[test]
    fn ctx_access_and_length_register() {
        let src = r"
            r0 = r2              ; ctx length
            r3 = *(u8 *)(r1 + 2)
            r0 += r3
            exit
        ";
        let mut ctx = [10u8, 20, 30, 40];
        assert_eq!(run(src, &mut ctx).unwrap(), 4 + 30);
    }

    #[test]
    fn ctx_writes_are_visible_to_caller() {
        let mut ctx = [0u8; 4];
        run("*(u32 *)(r1 + 0) = 0x01020304\nr0 = 0\nexit", &mut ctx).unwrap();
        assert_eq!(ctx, [0x04, 0x03, 0x02, 0x01]);
    }

    #[test]
    fn out_of_bounds_faults() {
        // One byte past the stack.
        let e = run("r0 = *(u8 *)(r10 + 0)\nexit", &mut []).unwrap_err();
        assert!(matches!(e, VmError::OutOfBounds { .. }));
        // Below the frame.
        let e = run("*(u64 *)(r10 - 513) = 0\nr0 = 0\nexit", &mut []).unwrap_err();
        assert!(matches!(e, VmError::OutOfBounds { .. }));
        // Past the context.
        let e = run("r0 = *(u32 *)(r1 + 2)\nexit", &mut [0u8; 4]).unwrap_err();
        assert!(matches!(e, VmError::OutOfBounds { .. }));
        // Straddling the end of the stack from inside.
        let e = run("r0 = *(u64 *)(r10 - 4)\nexit", &mut []).unwrap_err();
        assert!(matches!(e, VmError::OutOfBounds { .. }));
    }

    #[test]
    fn branches_and_loops() {
        let src = r"
            r0 = 0
            r1 = 10
        loop:
            r0 += r1
            r1 -= 1
            if r1 != 0 goto loop
            exit
        ";
        assert_eq!(run(src, &mut []).unwrap(), 55);
    }

    #[test]
    fn jmp32_uses_low_half() {
        let src = r"
            r1 = 0x100000001 ll
            r0 = 0
            if w1 == 1 goto yes
            exit
        yes:
            r0 = 1
            exit
        ";
        assert_eq!(run(src, &mut []).unwrap(), 1);
    }

    #[test]
    fn fuel_limits_runaway_loops() {
        let mut vm = Vm::with_options(VmOptions { fuel: 100 });
        let prog = assemble("loop:\ngoto loop\nexit").unwrap();
        assert_eq!(vm.run(&prog, &mut []), Err(VmError::OutOfFuel));
    }

    #[test]
    fn helpers_are_called_and_clobber_args() {
        let mut vm = Vm::new();
        vm.register_helper(7, Box::new(|args| args[0] + args[1]));
        let prog = assemble(
            r"
            r1 = 30
            r2 = 12
            call 7
            r0 += r1     ; r1 was clobbered to 0
            exit
        ",
        )
        .unwrap();
        assert_eq!(vm.run(&prog, &mut []).unwrap(), 42);
        // Unknown helper faults.
        let prog = assemble("call 99\nexit").unwrap();
        assert!(matches!(
            vm.run(&prog, &mut []),
            Err(VmError::UnknownHelper { helper: 99, .. })
        ));
    }

    #[test]
    fn map_lookup_miss_returns_null_and_hit_dereferences() {
        let src = r"
            r4 = 7
            *(u32 *)(r10 - 4) = r4   ; key = 7
            r1 = map 0
            r2 = r10
            r2 += -4
            call 1                   ; map_lookup
            if r0 == 0 goto miss
            r0 = *(u64 *)(r0 + 0)
            exit
        miss:
            r0 = 99
            exit
        ";
        let prog = assemble(src).unwrap();
        // Empty store: NULL path.
        assert_eq!(Vm::new().run(&prog, &mut []).unwrap(), 99);
        // Seeded store: the returned pointer reads the stored value.
        let mut vm = Vm::new();
        assert!(vm
            .maps_mut()
            .update(0, &7u32.to_le_bytes(), &1234u64.to_le_bytes()));
        assert_eq!(vm.run(&prog, &mut []).unwrap(), 1234);
    }

    #[test]
    fn map_update_inserts_and_delete_invalidates_pointers() {
        let src = r"
            r4 = 5
            *(u32 *)(r10 - 4) = r4   ; key = 5
            r5 = 42
            *(u64 *)(r10 - 16) = r5  ; value = 42
            r1 = map 0
            r2 = r10
            r2 += -4
            r3 = r10
            r3 += -16
            r4 = 0
            call 2                   ; map_update
            exit
        ";
        let mut vm = Vm::new();
        assert_eq!(vm.run(&assemble(src).unwrap(), &mut []).unwrap(), 0);
        assert_eq!(
            vm.maps().get(0, &5u32.to_le_bytes()),
            Some(&42u64.to_le_bytes()[..])
        );
        // Delete the entry, then dereference a stale lookup pointer: faults.
        let src = r"
            r4 = 5
            *(u32 *)(r10 - 4) = r4
            r1 = map 0
            r2 = r10
            r2 += -4
            call 1                   ; map_lookup -> ptr
            r6 = r0                  ; save the pointer across the delete
            r4 = 5
            *(u32 *)(r10 - 4) = r4
            r1 = map 0
            r2 = r10
            r2 += -4
            call 3                   ; map_delete
            r0 = *(u64 *)(r6 + 0)    ; stale pointer
            exit
        ";
        let e = vm.run(&assemble(src).unwrap(), &mut []).unwrap_err();
        assert!(matches!(e, VmError::OutOfBounds { .. }));
    }

    #[test]
    fn map_store_respects_capacity_and_geometry() {
        let mut s = MapStore::new();
        // Wrong key/value sizes are rejected.
        assert!(!s.update(0, &[1, 2, 3], &8u64.to_le_bytes()));
        assert!(!s.update(0, &1u32.to_le_bytes(), &[0u8; 4]));
        assert!(!s.update(9, &1u32.to_le_bytes(), &[0u8; 8]));
        // Fill map 0 to capacity (16 entries), then one more fails.
        for k in 0u32..16 {
            assert!(s.update(0, &k.to_le_bytes(), &u64::from(k).to_le_bytes()));
        }
        assert!(!s.update(0, &99u32.to_le_bytes(), &[0u8; 8]));
        // In-place update of an existing key still works and keeps the
        // address stable.
        let addr = s.lookup(0, &3u32.to_le_bytes()).unwrap();
        assert!(s.update(0, &3u32.to_le_bytes(), &777u64.to_le_bytes()));
        assert_eq!(s.lookup(0, &3u32.to_le_bytes()), Some(addr));
        // Delete frees a slot for reuse.
        assert!(s.delete(0, &3u32.to_le_bytes()));
        assert!(!s.delete(0, &3u32.to_le_bytes()));
        assert!(s.update(0, &99u32.to_le_bytes(), &[0u8; 8]));
    }

    #[test]
    fn get_prandom_is_deterministic_across_vms() {
        let prog = assemble("call 7\nr0 &= 0xffffffff\nexit").unwrap();
        let a = Vm::new().run(&prog, &mut []).unwrap();
        let b = Vm::new().run(&prog, &mut []).unwrap();
        assert_eq!(a, b);
        assert!(a <= u64::from(u32::MAX));
        // Two calls in one run differ (the stream advances).
        let prog2 = assemble("call 7\nr6 = r0\ncall 7\nr0 ^= r6\nexit").unwrap();
        assert_ne!(Vm::new().run(&prog2, &mut []).unwrap(), 0);
    }

    #[test]
    fn registered_closures_take_precedence_over_native_helpers() {
        let mut vm = Vm::new();
        vm.register_helper(7, Box::new(|_| 1111));
        let prog = assemble("call 7\nexit").unwrap();
        assert_eq!(vm.run(&prog, &mut []).unwrap(), 1111);
    }

    #[test]
    fn traced_run_records_every_step() {
        let prog = assemble("r0 = 1\nr0 += 2\nexit").unwrap();
        let (ret, trace) = Vm::new().run_traced(&prog, &mut []).unwrap();
        assert_eq!(ret, 3);
        assert_eq!(trace.len(), 3);
        assert_eq!(trace[0].pc, 0);
        assert_eq!(trace[1].regs[0], 1);
        assert_eq!(trace[2].regs[0], 3);
        assert_eq!(trace[2].regs[10], STACK_TOP);
    }
}
