//! Static-analysis passes over the [`Cfg`]: per-pc register/stack-slot
//! **liveness** and **unreachable/dead-code** detection.
//!
//! Two private solvers compute them. A forward stack-taint solve marks
//! the registers that may hold a stack-derived pointer; a backward
//! liveness solve, over every reachable pc or over a region closed under
//! successors, marks what may still be read. Both pop a bitset
//! `RpoWorklist`, the one the fixpoint engine iterates with: the taint
//! solve in reverse postorder, liveness in mirrored reverse postorder
//! (post-order), so facts propagate in long runs instead of ping-ponging
//! across back edges. Their edges are the [`Cfg`]'s own successor and
//! CSR predecessor arrays, and their facts are bitsets (`u16` over
//! registers, `u64` over the 64 stack slots), so a solver step is a
//! handful of word operations and a solve allocates only its fact
//! vectors and one worklist word per 64 pcs.
//!
//! Only what the exploration engines read is computed per analysis: the
//! live-in masks at checkpoints, solved by the crate-private
//! `CheckpointLiveness` over the pcs reachable from a checkpoint (with
//! the stack-taint prerequisite only when that region loads through a
//! base other than `r10`, and nothing at all for a program without
//! checkpoints). The whole-program bundle, [`ProgramPasses::compute`]
//! — liveness at every pc plus the unreachable pcs and dead definitions
//! derived from it — runs on demand, for the `annotate --passes` dump
//! and the benchmark's ledger; no session computes it.
//!
//! The kernel's eBPF verifier owes its single biggest pruning lever not
//! to a smarter join but to a *static* fact: per-pc liveness marks
//! (`mark_reg_read` / `clean_verifier_state`) let `is_state_visited`
//! ignore registers no future instruction can read, collapsing
//! exponentially many path states into equivalence classes. This module
//! computes those facts ahead of exploration so both engines can *clean*
//! dead components at checkpoints ([`crate::state::AbsState::clear_dead`])
//! — a cleaned component is [`crate::RegValue::Uninit`], the top of the
//! safety order, so it compares as covered in every inclusion probe and
//! hashes as a fixed salt in every fingerprint. Two states that differ
//! only in dead components become *equal* after cleaning and prune each
//! other for free.
//!
//! Soundness of the liveness facts is calibrated against the transfer
//! layer's *actual* read surface, over-approximated where the static
//! pass cannot know better:
//!
//! * helper calls read the argument registers their registry signature
//!   names (`r1..r1+n` per [`ebpf::helpers::helper_sig`]; all of
//!   `r1`–`r5` for an unknown id) — and when the signature takes a
//!   stack-region argument, conservatively any stack slot — then
//!   clobber `r0`–`r5`; `exit` reads `r0` (return-value and
//!   pointer-leak checks);
//! * a load through `r10` at a constant offset reads exactly the slots
//!   covering its byte range (including the whole-slot reads of
//!   `stack_range_initialized`); a load through any register that *may*
//!   hold a derived stack pointer reads **all** slots — the stack-taint
//!   solve tracks which registers may be stack-derived, including
//!   spilled-and-reloaded pointers;
//! * a store through `r10` overwrites every slot its byte range
//!   intersects (both the tracked-spill and the `Misc`-smear paths
//!   replace the old contents wholesale), so those slots are *killed*;
//!   stores never read slot contents;
//! * `r10` is pinned live everywhere — it is the frame pointer every
//!   stack access re-derives from.

use ebpf::{AluOp, Insn, Program, Reg, Src, Width, STACK_SIZE};

use crate::cfg::{Cfg, RpoWorklist};
use crate::state::SLOTS;

/// Bitmask of all architectural registers (`r0`–`r10`).
const ALL_REGS: u16 = (1 << 11) - 1;

/// Bitmask of the helper-call clobbers `r0`–`r5`.
const CALL_CLOBBERS: u16 = (1 << 6) - 1;

/// The register-bitset bit of `r`.
const fn bit(r: Reg) -> u16 {
    1 << r.index()
}

/// A per-pc liveness fact: which registers (bits `0..=10`) and 8-byte
/// stack slots (one bit per slot, bit `i` = slot `i` = bytes
/// `[-512 + 8i, -512 + 8i + 8)`) may still be read before being
/// overwritten.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LiveSet {
    /// Live registers, bit `r.index()`.
    pub regs: u16,
    /// Live stack slots, bit per slot index.
    pub slots: u64,
}

impl LiveSet {
    /// Everything live — the mask that cleans nothing (used for
    /// unreachable instructions, where no fact was computed).
    pub const ALL: LiveSet = LiveSet {
        regs: ALL_REGS,
        slots: u64::MAX,
    };

    /// Whether register `r` is live.
    #[must_use]
    pub const fn contains_reg(self, r: Reg) -> bool {
        self.regs & bit(r) != 0
    }

    /// Whether stack slot `i` is live.
    #[must_use]
    pub const fn contains_slot(self, i: usize) -> bool {
        i < SLOTS && self.slots & (1 << i) != 0
    }

    /// Number of live registers.
    #[must_use]
    pub const fn reg_count(self) -> u32 {
        self.regs.count_ones()
    }

    /// Number of live stack slots.
    #[must_use]
    pub const fn slot_count(self) -> u32 {
        self.slots.count_ones()
    }
}

/// The slot-index bitmask of every slot intersecting the byte range
/// `[start, start + bytes)` of the stack frame (offsets negative,
/// relative to `r10`). Offsets outside the frame contribute nothing —
/// such an access is rejected by the transfer layer anyway.
fn covering_slots(start: i64, bytes: i64) -> u64 {
    let frame = STACK_SIZE as i64;
    let mut mask = 0u64;
    let mut off = start & !7;
    while off < start + bytes {
        if (-frame..0).contains(&off) {
            mask |= 1 << ((off + frame) / 8);
        }
        off += 8;
    }
    mask
}

// ---------------------------------------------------------------------
// Stack taint (forward)
// ---------------------------------------------------------------------

/// The stack-taint transfer across `insn`: which registers *may* hold a
/// stack-derived pointer after it, given the set `t` before it.
///
/// `r10` is always tainted; 64-bit `mov` copies propagate taint, other
/// ALU ops keep a destination tainted when either operand is (pointer ±
/// scalar keeps the region), and **every load taints its destination** —
/// a spilled stack pointer reloads through an arbitrary slot, and this
/// pass does not track slot contents. Immediate loads and 32-bit moves
/// scalarize and clear; helper calls clobber `r0`–`r5`. Over-tainting is
/// always sound here: taint only ever *adds* stack-slot liveness.
fn taint_step(insn: Insn, mut t: u16) -> u16 {
    match insn {
        Insn::Alu {
            op: AluOp::Mov,
            width: Width::W64,
            dst,
            src: Src::Reg(r),
        } => {
            if t & bit(r) != 0 {
                t |= bit(dst);
            } else {
                t &= !bit(dst);
            }
        }
        // Immediate and 32-bit moves scalarize the destination.
        Insn::Alu {
            op: AluOp::Mov,
            dst,
            ..
        } => t &= !bit(dst),
        Insn::Alu { dst, src, .. } => {
            // Pointer ± scalar keeps the region; anything else with
            // a tainted operand conservatively stays tainted.
            if let Src::Reg(r) = src {
                if t & bit(r) != 0 {
                    t |= bit(dst);
                }
            }
        }
        Insn::LoadImm64 { dst, .. } => t &= !bit(dst),
        // A load may reload a spilled stack pointer.
        Insn::Load { dst, .. } => t |= bit(dst),
        Insn::Call { .. } => t &= !CALL_CLOBBERS,
        Insn::Store { .. } | Insn::Jmp { .. } | Insn::Ja { .. } | Insn::Exit => {}
    }
    t | bit(Reg::R10)
}

/// Solves stack taint over every reachable pc of `prog` in reverse
/// postorder, starting from `r10` at the entry: the taint fact at the
/// point before each instruction (empty at unreachable ones).
fn stack_taint(prog: &Program, cfg: &Cfg) -> Vec<u16> {
    let mut before = vec![0u16; prog.len()];
    let mut after = vec![0u16; prog.len()];
    let mut queue = RpoWorklist::full(cfg.rpo().len());
    while let Some(pos) = queue.pop() {
        let pc = cfg.rpo()[pos];
        let mut input = if pc == 0 { bit(Reg::R10) } else { 0 };
        for &p in cfg.predecessors(pc) {
            input |= after[p];
        }
        let output = taint_step(prog.insns()[pc], input);
        before[pc] = input;
        if output != after[pc] {
            after[pc] = output;
            for &s in cfg.successors(pc) {
                queue.push(cfg.rpo_pos(s));
            }
        }
    }
    before
}

// ---------------------------------------------------------------------
// Liveness (backward)
// ---------------------------------------------------------------------

/// The liveness transfer across instruction `pc`: the live-in set from
/// the live-out set `live`, the kernel's `mark_reg_read` analogue.
/// `taint_in` holds the stack-taint facts before each instruction; it is
/// read only at a load whose base is not `r10`.
///
/// Uses mirror the transfer layer's checks exactly — a helper call
/// reads its registry arity's argument registers (`r1..r1+n` per
/// [`ebpf::helpers::helper_sig`]; all of `r1`–`r5` for an unknown
/// helper) and, when its signature takes a stack-region argument, may
/// read any stack slot; `exit` reads `r0` — plus the slot reads of
/// stack loads (exact covering slots through `r10`, all slots through a
/// possibly-stack-derived base). Kills are the register writes of
/// `def_reg`, the `r0`–`r5` clobber of a call, and the wholesale slot
/// overwrites of `r10`-relative stores.
fn live_step(insn: Insn, pc: usize, taint_in: &[u16], mut live: LiveSet) -> LiveSet {
    // Kills first (live-in = (live-out ∖ defs) ∪ uses).
    match insn {
        Insn::Call { .. } => live.regs &= !CALL_CLOBBERS,
        _ => {
            if let Some(d) = insn.def_reg() {
                live.regs &= !bit(d);
            }
        }
    }
    if let Insn::Store {
        size,
        base,
        off,
        src: _,
    } = insn
    {
        if base == Reg::R10 {
            // Both store paths (tracked spill and `Misc` smear)
            // replace every intersecting slot wholesale.
            live.slots &= !covering_slots(off as i64, size.bytes() as i64);
        }
    }

    // Uses: a call reads its helper's argument registers per the
    // registry arity (conservatively all of r1–r5 when the id is
    // unknown — the verifier will reject it anyway), and any
    // stack-region argument may read arbitrary slots through the
    // passed pointer; everything else reads its `use_regs`. `exit`
    // reads `r0` directly (return-value and pointer-leak checks).
    if let Insn::Call { helper } = insn {
        match ebpf::helpers::helper_sig(helper) {
            Some(sig) => {
                for i in 0..sig.args.len() {
                    live.regs |= 1 << (i + 1);
                }
                if sig
                    .args
                    .iter()
                    .any(|a| matches!(a, ebpf::helpers::ArgKind::StackRegion { .. }))
                {
                    live.slots = u64::MAX;
                }
            }
            None => {
                live.regs |= CALL_CLOBBERS & !bit(Reg::R0);
                live.slots = u64::MAX;
            }
        }
    } else {
        for r in insn.use_regs() {
            live.regs |= bit(r);
        }
    }
    if matches!(insn, Insn::Exit) {
        live.regs |= bit(Reg::R0);
    }
    if let Insn::Load {
        size, base, off, ..
    } = insn
    {
        if base == Reg::R10 {
            live.slots |= covering_slots(off as i64, size.bytes() as i64);
        } else if taint_in[pc] & bit(base) != 0 {
            // A derived stack pointer may read anywhere in the
            // frame (variable offsets probe whole byte ranges).
            live.slots = u64::MAX;
        }
    }

    // The frame pointer is pinned live: every stack access
    // re-derives from it.
    live.regs |= bit(Reg::R10);
    live
}

/// Solves liveness backward over the reachable pcs `region` marks
/// (every reachable pc when `None`) in post-order, returning the
/// live-in and live-out sets of each instruction. Only region pcs start
/// pending, and a changed live-in set re-queues only predecessors
/// inside the region; sets outside it stay empty. Nothing is live after
/// an exit. The result is exact for a region closed under successors,
/// since liveness at a pc depends only on the pcs reachable from it.
fn liveness(
    prog: &Program,
    cfg: &Cfg,
    taint_in: &[u16],
    region: Option<&[bool]>,
) -> (Vec<LiveSet>, Vec<LiveSet>) {
    let mut live_in = vec![LiveSet::default(); prog.len()];
    let mut live_out = vec![LiveSet::default(); prog.len()];
    // Priorities are mirrored RPO positions; the mirror is an
    // involution, so it maps a priority back to its position too.
    let total = cfg.rpo().len();
    let mirror = |pos: usize| total - 1 - pos;
    let in_region = |pc: usize| region.map_or(true, |r| r[pc]);
    let mut queue = match region {
        None => RpoWorklist::full(total),
        Some(_) => {
            let mut queue = RpoWorklist::new(total);
            for (pos, &pc) in cfg.rpo().iter().enumerate() {
                if in_region(pc) {
                    queue.push(mirror(pos));
                }
            }
            queue
        }
    };
    while let Some(prio) = queue.pop() {
        let pc = cfg.rpo()[mirror(prio)];
        let mut out = LiveSet::default();
        for &s in cfg.successors(pc) {
            out.regs |= live_in[s].regs;
            out.slots |= live_in[s].slots;
        }
        let input = live_step(prog.insns()[pc], pc, taint_in, out);
        live_out[pc] = out;
        if input != live_in[pc] {
            live_in[pc] = input;
            for &p in cfg.predecessors(pc) {
                if in_region(p) {
                    queue.push(mirror(cfg.rpo_pos(p)));
                }
            }
        }
    }
    (live_in, live_out)
}

// ---------------------------------------------------------------------
// Checkpoint-scoped liveness: what the engines read
// ---------------------------------------------------------------------

/// Liveness solved only where the exploration engines read it: they
/// need live-in masks at checkpoints and nowhere else (checkpoint
/// cleaning, see [`crate::fixpoint`]), as the kernel cleans dead state
/// only at its pruning points.
///
/// Backward liveness at a pc depends only on the pcs reachable from it,
/// so solving the backward problem over the **checkpoint region** —
/// every pc forward-reachable from a checkpoint, a set closed under
/// successors — yields exactly the live-in facts of the whole-program
/// solve there. The stack-taint prerequisite runs only when the region
/// holds a load whose base is not `r10`, the one instruction whose
/// liveness transfer reads taint. A program with no checkpoint
/// (straight-line and fork-only code) gets no liveness at all.
#[derive(Clone, Debug)]
pub(crate) struct CheckpointLiveness {
    /// Live-in per pc; solved for the checkpoint region only (the
    /// empty set elsewhere, which no engine reads).
    live_in: Vec<LiveSet>,
}

impl CheckpointLiveness {
    /// Solves liveness over `prog`'s checkpoint region, or returns
    /// `None` — without allocating — when the CFG has no checkpoint.
    pub(crate) fn compute(prog: &Program, cfg: &Cfg) -> Option<CheckpointLiveness> {
        let rpo = cfg.rpo();
        // Forward edges climb in RPO and every back edge targets a loop
        // head, itself a checkpoint: nothing before the first checkpoint
        // in RPO is in the region, and one RPO sweep from there decides
        // every pc, since a non-checkpoint's predecessors all come
        // earlier.
        let first = rpo.iter().position(|&pc| cfg.is_checkpoint(pc))?;
        let mut in_region = vec![false; prog.len()];
        let mut reads_taint = false;
        for &pc in &rpo[first..] {
            if cfg.is_checkpoint(pc) || cfg.predecessors(pc).iter().any(|&p| in_region[p]) {
                in_region[pc] = true;
                reads_taint |=
                    matches!(prog.insns()[pc], Insn::Load { base, .. } if base != Reg::R10);
            }
        }
        let taint_in = if reads_taint {
            stack_taint(prog, cfg)
        } else {
            Vec::new()
        };
        let (live_in, _) = liveness(prog, cfg, &taint_in, Some(&in_region));
        Some(CheckpointLiveness { live_in })
    }

    /// The liveness mask at the point before checkpoint `pc` (equal to
    /// [`ProgramPasses::live_in`] there).
    pub(crate) fn live_in(&self, pc: usize) -> LiveSet {
        self.live_in[pc]
    }
}

// ---------------------------------------------------------------------
// The bundled per-program pass results
// ---------------------------------------------------------------------

/// The whole-program pass results: liveness at every pc, unreachable
/// pcs and dead definitions. Computed on demand (the `annotate --passes`
/// dump, diagnostics); the exploration engines solve only the
/// checkpoint-scoped liveness they read.
#[derive(Clone, Debug)]
pub struct ProgramPasses {
    live_in: Vec<LiveSet>,
    live_out: Vec<LiveSet>,
    unreachable: Vec<bool>,
    dead_def: Vec<bool>,
    dead_insns: u64,
}

impl ProgramPasses {
    /// Solves stack taint and liveness over every reachable pc of `prog`
    /// and derives dead code from them.
    #[must_use]
    pub fn compute(prog: &Program, cfg: &Cfg) -> ProgramPasses {
        let (mut live_in, live_out) = liveness(prog, cfg, &stack_taint(prog, cfg), None);
        let mut unreachable = vec![false; prog.len()];
        let mut dead_def = vec![false; prog.len()];
        let mut dead_insns = 0u64;
        for pc in 0..prog.len() {
            if cfg.rpo_pos(pc) == usize::MAX {
                unreachable[pc] = true;
                // No fact was computed; never clean anything here.
                live_in[pc] = LiveSet::ALL;
                dead_insns += 1;
                continue;
            }
            // A side-effect-free definition whose result is dead: the
            // pure ALU and immediate-load forms (loads can fault and
            // calls clobber, so neither is flagged). Diagnostic only —
            // the instruction still runs its safety checks.
            let insn = prog.insns()[pc];
            if let (Some(d), Insn::Alu { .. } | Insn::LoadImm64 { .. }) = (insn.def_reg(), insn) {
                if !live_out[pc].contains_reg(d) {
                    dead_def[pc] = true;
                    dead_insns += 1;
                }
            }
        }
        ProgramPasses {
            live_in,
            live_out,
            unreachable,
            dead_def,
            dead_insns,
        }
    }

    /// The liveness mask at the point *before* `pc` — what a state
    /// arriving at `pc` may still have read. Everything is live at an
    /// unreachable pc (no fact was computed, so nothing may be cleaned).
    #[must_use]
    pub fn live_in(&self, pc: usize) -> LiveSet {
        self.live_in.get(pc).copied().unwrap_or(LiveSet::ALL)
    }

    /// The liveness mask at the point *after* `pc`.
    #[must_use]
    pub fn live_out(&self, pc: usize) -> LiveSet {
        self.live_out.get(pc).copied().unwrap_or(LiveSet::ALL)
    }

    /// Whether `pc` is statically unreachable from the entry.
    #[must_use]
    pub fn is_unreachable(&self, pc: usize) -> bool {
        self.unreachable.get(pc).copied().unwrap_or(false)
    }

    /// Whether `pc` is a side-effect-free definition whose result is
    /// never read (diagnostic; the instruction still runs its checks).
    #[must_use]
    pub fn is_dead_def(&self, pc: usize) -> bool {
        self.dead_def.get(pc).copied().unwrap_or(false)
    }

    /// Total dead instructions: statically unreachable plus dead
    /// definitions.
    #[must_use]
    pub fn dead_insns(&self) -> u64 {
        self.dead_insns
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebpf::asm::assemble;

    fn passes(src: &str) -> (Program, ProgramPasses) {
        let prog = assemble(src).expect("assembles");
        let cfg = Cfg::build(&prog);
        let p = ProgramPasses::compute(&prog, &cfg);
        (prog, p)
    }

    #[test]
    fn straight_line_liveness_kills_overwritten_registers() {
        // r3 is written then overwritten before any read: dead before
        // pc 1. r0 is live into `exit`.
        let (_, p) = passes("r3 = 1\nr3 = 2\nr0 = r3\nexit");
        assert!(!p.live_in(0).contains_reg(Reg::R3));
        assert!(!p.live_in(1).contains_reg(Reg::R3), "about to be killed");
        assert!(p.live_in(2).contains_reg(Reg::R3));
        assert!(p.live_in(3).contains_reg(Reg::R0), "exit reads r0");
        assert!(!p.live_in(3).contains_reg(Reg::R3));
        assert!(p.live_in(0).contains_reg(Reg::R10), "r10 pinned live");
        assert!(p.is_dead_def(0), "r3 = 1 is overwritten unread");
        assert!(!p.is_dead_def(1));
        assert_eq!(p.dead_insns(), 1);
    }

    #[test]
    fn branches_union_liveness_over_both_edges() {
        // r4 is read only on the taken edge; it must stay live at the
        // branch even though the fall-through kills it.
        let (_, p) = passes(
            "r4 = 7\n\
             if r1 > 0 goto use\n\
             r0 = 0\n\
             exit\n\
             use:\n\
             r0 = r4\n\
             exit",
        );
        assert!(p.live_in(1).contains_reg(Reg::R4), "live through branch");
        assert!(!p.live_in(2).contains_reg(Reg::R4), "dead on fall-through");
        assert!(p.live_in(4).contains_reg(Reg::R4), "read on taken edge");
        assert!(p.live_in(1).contains_reg(Reg::R1), "branch reads r1");
    }

    #[test]
    fn stack_slots_live_through_spill_and_reload() {
        // A spill to [r10-8] is reloaded later: slot 63 is live between
        // the store and the load, dead after the load.
        let (_, p) = passes(
            "r3 = 42\n\
             *(u64 *)(r10 - 8) = r3\n\
             r4 = *(u64 *)(r10 - 8)\n\
             r0 = r4\n\
             exit",
        );
        assert!(!p.live_in(1).contains_slot(63), "not yet written");
        assert!(p.live_in(2).contains_slot(63), "awaiting the reload");
        assert!(!p.live_in(3).contains_slot(63), "consumed");
        // The store kills the slot: it is not live *into* the store.
        assert!(!p.live_out(1).contains_slot(62), "neighbors untouched");
    }

    #[test]
    fn derived_stack_pointers_make_all_slots_live() {
        // The load goes through r3 = r10 - 16: a derived pointer, so the
        // pass must assume any slot may be read.
        let (_, p) = passes(
            "r3 = r10\n\
             r3 += -16\n\
             *(u64 *)(r10 - 16) = r1\n\
             r0 = *(u64 *)(r3 + 0)\n\
             r0 = 0\n\
             exit",
        );
        assert_eq!(p.live_in(3).slots, u64::MAX, "tainted base reads all");
        assert_eq!(p.live_out(2).slots, u64::MAX, "all slots await the read");
        // The store fully defines slot 62, so its *old* value is dead
        // into pc 2 even though the derived read keeps everything else.
        assert!(!p.live_in(2).contains_slot(62), "killed by the spill");
        assert!(p.live_in(2).contains_slot(61), "neighbors stay live");
    }

    #[test]
    fn taint_tracks_copies_and_clears_on_scalarization() {
        let prog = assemble(
            "r3 = r10\n\
             r4 = r3\n\
             r4 = 5\n\
             r0 = 0\n\
             exit",
        )
        .expect("assembles");
        let cfg = Cfg::build(&prog);
        let taint = stack_taint(&prog, &cfg);
        assert_eq!(taint[1] & bit(Reg::R3), bit(Reg::R3));
        assert_eq!(taint[2] & bit(Reg::R4), bit(Reg::R4), "copy");
        assert_eq!(taint[3] & bit(Reg::R4), 0, "imm mov clears");
        assert_ne!(taint[0] & bit(Reg::R10), 0, "r10 seeded");
    }

    #[test]
    fn calls_clobber_and_define() {
        let (_, p) = passes(
            "r6 = 1\n\
             r3 = 2\n\
             call 1\n\
             r0 += r6\n\
             exit",
        );
        // r3 dies at the call (clobbered, never read); r6 survives it.
        assert!(!p.live_in(2).contains_reg(Reg::R3), "clobbered unread");
        assert!(p.live_in(2).contains_reg(Reg::R6), "callee-saved use");
        assert!(!p.live_in(0).contains_reg(Reg::R0), "call defines r0");
        assert!(p.live_in(3).contains_reg(Reg::R0));
    }

    #[test]
    fn unreachable_instructions_are_flagged_and_never_cleaned() {
        let (_, p) = passes(
            "r0 = 0\n\
             goto done\n\
             r0 = 9\n\
             done:\n\
             exit",
        );
        assert!(p.is_unreachable(2));
        assert!(!p.is_unreachable(1));
        assert_eq!(p.live_in(2), LiveSet::ALL, "no fact ⇒ clean nothing");
        assert_eq!(p.dead_insns(), 1);
    }

    #[test]
    fn loop_liveness_carries_the_counter_around_the_back_edge() {
        // The memset loop: r1 (counter) must stay live at the head; the
        // stored-to slots are never read, so they stay dead everywhere.
        let (_, p) = passes(
            "r1 = 0\n\
             loop:\n\
             r3 = r10\n\
             r3 += -16\n\
             r3 += r1\n\
             *(u8 *)(r3 + 0) = 0\n\
             r1 += 1\n\
             if r1 < 16 goto loop\n\
             r0 = r1\n\
             exit",
        );
        assert!(p.live_in(1).contains_reg(Reg::R1), "counter live at head");
        assert!(!p.live_in(1).contains_reg(Reg::R0), "r0 dead until set");
        assert_eq!(p.live_in(1).slots, 0, "stores are never read back");
    }

    #[test]
    fn covering_slots_spans_unaligned_ranges() {
        assert_eq!(covering_slots(-8, 8), 1 << 63);
        assert_eq!(covering_slots(-16, 8), 1 << 62);
        // An unaligned 8-byte range touches two slots.
        assert_eq!(covering_slots(-12, 8), (1 << 62) | (1 << 63));
        assert_eq!(covering_slots(-512, 1), 1);
        assert_eq!(covering_slots(-520, 4), 0, "out of frame ignored");
    }

    /// Checkpoint liveness must be `None` exactly for programs without
    /// a checkpoint, and otherwise agree with the whole-program solve at
    /// every checkpoint — the only pcs the engines read it at. Returns
    /// whether the program had a checkpoint.
    fn assert_checkpoint_liveness_exact(prog: &Program, at: &str) -> bool {
        let cfg = Cfg::build(prog);
        let full = ProgramPasses::compute(prog, &cfg);
        let checkpoints: Vec<usize> = (0..prog.len())
            .filter(|&pc| cfg.is_checkpoint(pc))
            .collect();
        match CheckpointLiveness::compute(prog, &cfg) {
            None => assert!(
                checkpoints.is_empty(),
                "{at}: no liveness for {checkpoints:?}"
            ),
            Some(live) => {
                assert!(
                    !checkpoints.is_empty(),
                    "{at}: liveness without checkpoints"
                );
                for &pc in &checkpoints {
                    assert_eq!(live.live_in(pc), full.live_in(pc), "{at}, pc {pc}");
                }
            }
        }
        !checkpoints.is_empty()
    }

    #[test]
    fn checkpoint_liveness_is_exact_on_fixtures_and_bench_programs() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
        let mut fixtures = 0;
        for entry in std::fs::read_dir(dir).expect("fixtures directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "ebpf") {
                let source = std::fs::read_to_string(&path).expect("fixture reads");
                let prog = assemble(&source).expect("fixture assembles");
                assert_checkpoint_liveness_exact(&prog, &path.display().to_string());
                fixtures += 1;
            }
        }
        assert!(fixtures >= 8, "found {fixtures} fixtures");

        use bench::fixpoint_suite as suite;
        let labelled = suite::sweep_configs()
            .into_iter()
            .chain(suite::parshard_configs(4, 8))
            .map(|(label, prog, _)| (label, prog))
            .chain(
                suite::throughput_batch()
                    .into_iter()
                    .enumerate()
                    .map(|(i, prog)| (format!("throughput #{i}"), prog)),
            );
        for (label, prog) in labelled {
            assert_checkpoint_liveness_exact(&prog, &label);
        }
    }

    #[test]
    fn checkpoint_liveness_is_exact_on_random_programs() {
        let mut rng = domain::rng::SplitMix64::new(0x11FE_C4EC);
        let (mut with, mut without) = (0, 0);
        for round in 0..2_000 {
            let len = 2 + rng.below(40) as usize;
            let prog = crate::cfg::tests::random_program(&mut rng, len);
            let at = format!("round {round}:\n{}", prog.disassemble());
            if assert_checkpoint_liveness_exact(&prog, &at) {
                with += 1;
            } else {
                without += 1;
            }
        }
        assert!(
            with > 500 && without > 100,
            "{with} with, {without} without checkpoints"
        );
    }

    #[test]
    fn checkpoint_liveness_taints_a_reloaded_stack_pointer() {
        // The region after the merge reloads a spilled stack pointer
        // and loads through it: only StackTaint knows r3 may point into
        // the frame, so every slot is live at the merge. Skipping the
        // taint pass there would leave just the spill slot live.
        let prog = assemble(
            "r2 = r10\n\
             r2 += -16\n\
             *(u64 *)(r10 - 8) = r2\n\
             *(u64 *)(r10 - 16) = 7\n\
             if r1 == 0 goto merge\n\
             r0 = 0\n\
             merge:\n\
             r3 = *(u64 *)(r10 - 8)\n\
             r0 = *(u64 *)(r3 + 0)\n\
             exit",
        )
        .expect("assembles");
        let cfg = Cfg::build(&prog);
        assert!(cfg.is_checkpoint(6), "merge point");
        assert!(assert_checkpoint_liveness_exact(&prog, "spilled pointer"));
        let live = CheckpointLiveness::compute(&prog, &cfg).expect("has a checkpoint");
        assert_eq!(
            live.live_in(6).slots,
            u64::MAX,
            "reloaded pointer reads anywhere"
        );
    }

    #[test]
    fn checkpoint_free_programs_solve_nothing() {
        let prog = assemble(
            "r0 = 1\n\
             if r1 > 0 goto out\n\
             r0 = 2\n\
             exit\n\
             out:\n\
             exit",
        )
        .expect("assembles");
        assert!(CheckpointLiveness::compute(&prog, &Cfg::build(&prog)).is_none());
    }

    /// The round-robin reference for both solvers: every reachable pc
    /// swept in index order, over predecessor lists rebuilt from
    /// [`Cfg::successors`], until a sweep changes no fact. Returns the
    /// taint facts before each pc and the live-in and live-out sets.
    fn round_robin(prog: &Program, cfg: &Cfg) -> (Vec<u16>, Vec<LiveSet>, Vec<LiveSet>) {
        let n = prog.len();
        let reachable: Vec<usize> = (0..n).filter(|&pc| cfg.rpo_pos(pc) != usize::MAX).collect();
        let mut preds = vec![Vec::new(); n];
        for &pc in &reachable {
            for &s in cfg.successors(pc) {
                preds[s].push(pc);
            }
        }
        let (mut taint_in, mut taint_out) = (vec![0u16; n], vec![0u16; n]);
        let mut changed = true;
        while changed {
            changed = false;
            for &pc in &reachable {
                let mut input = if pc == 0 { bit(Reg::R10) } else { 0 };
                for &p in &preds[pc] {
                    input |= taint_out[p];
                }
                let output = taint_step(prog.insns()[pc], input);
                changed |= (input, output) != (taint_in[pc], taint_out[pc]);
                (taint_in[pc], taint_out[pc]) = (input, output);
            }
        }
        let (mut live_in, mut live_out) =
            (vec![LiveSet::default(); n], vec![LiveSet::default(); n]);
        changed = true;
        while changed {
            changed = false;
            for &pc in &reachable {
                let mut out = LiveSet::default();
                for &s in cfg.successors(pc) {
                    out.regs |= live_in[s].regs;
                    out.slots |= live_in[s].slots;
                }
                let input = live_step(prog.insns()[pc], pc, &taint_in, out);
                changed |= (input, out) != (live_in[pc], live_out[pc]);
                (live_in[pc], live_out[pc]) = (input, out);
            }
        }
        (taint_in, live_in, live_out)
    }

    /// Both solvers, whole-program and checkpoint-scoped, against the
    /// round-robin reference.
    fn assert_solvers_match_round_robin(prog: &Program, at: &str) {
        let cfg = Cfg::build(prog);
        let (taint_in, live_in, live_out) = round_robin(prog, &cfg);
        let taint = stack_taint(prog, &cfg);
        assert_eq!(taint, taint_in, "{at}: stack taint");
        let (got_in, got_out) = liveness(prog, &cfg, &taint, None);
        assert_eq!(got_in, live_in, "{at}: live-in");
        assert_eq!(got_out, live_out, "{at}: live-out");
        if let Some(live) = CheckpointLiveness::compute(prog, &cfg) {
            for pc in (0..prog.len()).filter(|&pc| cfg.is_checkpoint(pc)) {
                assert_eq!(live.live_in(pc), live_in[pc], "{at}: checkpoint {pc}");
            }
        }
    }

    #[test]
    fn solvers_match_the_round_robin_reference_on_fixtures_and_bench_programs() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../fixtures");
        let mut fixtures = 0;
        for entry in std::fs::read_dir(dir).expect("fixtures directory") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|x| x == "ebpf") {
                let source = std::fs::read_to_string(&path).expect("fixture reads");
                let prog = assemble(&source).expect("fixture assembles");
                assert_solvers_match_round_robin(&prog, &path.display().to_string());
                fixtures += 1;
            }
        }
        assert!(fixtures >= 8, "found {fixtures} fixtures");

        use bench::fixpoint_suite as suite;
        let labelled = suite::sweep_configs()
            .into_iter()
            .chain(suite::parshard_configs(4, 8))
            .map(|(label, prog, _)| (label, prog))
            .chain(
                suite::throughput_batch()
                    .into_iter()
                    .enumerate()
                    .map(|(i, prog)| (format!("throughput #{i}"), prog)),
            );
        for (label, prog) in labelled {
            assert_solvers_match_round_robin(&prog, &label);
        }
    }

    #[test]
    fn solvers_match_the_round_robin_reference_on_random_programs() {
        // The programs of `checkpoint_liveness_is_exact_on_random_programs`.
        let mut rng = domain::rng::SplitMix64::new(0x11FE_C4EC);
        for round in 0..2_000 {
            let len = 2 + rng.below(40) as usize;
            let prog = crate::cfg::tests::random_program(&mut rng, len);
            assert_solvers_match_round_robin(
                &prog,
                &format!("round {round}:\n{}", prog.disassemble()),
            );
        }
    }
}
