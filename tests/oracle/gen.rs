//! The random and fixed program generators of the differential suites,
//! each written once. Every campaign generator draws a case's program and
//! its VM contexts from the same stream, in a fixed order, so a seed
//! names one corpus (pinned by [`super::cases`]).

use domain::rng::SplitMix64;
use ebpf::{AluOp, Insn, JmpOp, MemSize, Program, Reg, Src, Width};
use verifier::AnalyzerOptions;

use super::Case;

/// An ALU instruction mix: the registers it uses (each seeded with a
/// constant up front, so every read is initialized), the right shift of
/// the `i`-th seed constant per register index, and the opcodes drawn.
pub struct Mix {
    regs: &'static [Reg],
    seed_shift: usize,
    ops: &'static [AluOp],
}

/// Every ALU opcode over six registers: the soundness campaigns.
pub const WIDE: Mix = Mix {
    regs: &[Reg::R0, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7],
    seed_shift: 4,
    ops: &[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::Div,
        AluOp::Mod,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Lsh,
        AluOp::Rsh,
        AluOp::Arsh,
        AluOp::Neg,
        AluOp::Mov,
    ],
};

/// Eight opcodes over five registers: the parallel and batch campaigns.
pub const NARROW: Mix = Mix {
    regs: &[Reg::R0, Reg::R3, Reg::R4, Reg::R6, Reg::R7],
    seed_shift: 3,
    ops: &[
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Rsh,
        AluOp::Mov,
    ],
};

/// The comparisons a spliced branch draws from; the first six are the
/// ones whose per-path and joined views agree on a store verdict.
pub const CMP: [JmpOp; 7] = [
    JmpOp::Eq,
    JmpOp::Ne,
    JmpOp::Lt,
    JmpOp::Ge,
    JmpOp::Sgt,
    JmpOp::Sle,
    JmpOp::Set,
];

/// How a counted loop's counter `r8` starts.
#[derive(Clone, Copy)]
pub enum Counter {
    /// `ctx[0] & 7`: the trip count depends on untrusted input; limits
    /// 8..=24.
    Ctx,
    /// 0; limits 4..=24.
    Zero,
}

impl Mix {
    pub fn reg(&self, rng: &mut SplitMix64) -> Reg {
        self.regs[rng.below(self.regs.len() as u64) as usize]
    }

    /// One `mov` per register, each from a random constant.
    pub fn seeds(&self, rng: &mut SplitMix64) -> Vec<Insn> {
        self.regs
            .iter()
            .enumerate()
            .map(|(i, &r)| {
                alu(
                    AluOp::Mov,
                    r,
                    Src::Imm(rng.next_i32() >> (i * self.seed_shift)),
                )
            })
            .collect()
    }

    /// One random ALU instruction over the mix's registers.
    pub fn insn(&self, rng: &mut SplitMix64) -> Insn {
        let op = self.ops[rng.below(self.ops.len() as u64) as usize];
        let width = if rng.ratio(3, 10) {
            Width::W32
        } else {
            Width::W64
        };
        let dst = self.reg(rng);
        let src = if op == AluOp::Neg {
            // Canonical no-operand form.
            Src::Imm(0)
        } else if rng.coin() {
            Src::Reg(self.reg(rng))
        } else if matches!(op, AluOp::Lsh | AluOp::Rsh | AluOp::Arsh) {
            // Immediate shift amounts stay in range; register amounts
            // are masked by the semantics.
            Src::Imm(rng.below(if width == Width::W32 { 32 } else { 64 }) as i32)
        } else {
            Src::Imm(rng.next_i32())
        };
        Insn::Alu {
            width,
            op,
            dst,
            src,
        }
    }

    /// The seeds, then `len` random ALU instructions (no exit yet).
    pub fn straight(&self, rng: &mut SplitMix64, len: usize) -> Vec<Insn> {
        let mut insns = self.seeds(rng);
        for _ in 0..len {
            insns.push(self.insn(rng));
        }
        insns
    }

    /// A bounded loop: the counter start, the seeds, a random ALU body
    /// churning the mix's registers every trip, `r8 += 1`, and the back
    /// edge `if r8 < limit` at `width` (32-bit guards exercise
    /// `refine32`). Limits straddle the `unroll_k` values the campaigns
    /// run with.
    pub fn counted_loop(
        &self,
        rng: &mut SplitMix64,
        body_len: usize,
        counter: Counter,
        width: Width,
    ) -> Program {
        let (mut insns, min_limit) = match counter {
            Counter::Ctx => (
                vec![
                    Insn::Load {
                        size: MemSize::B,
                        dst: Reg::R8,
                        base: Reg::R1,
                        off: 0,
                    },
                    alu(AluOp::And, Reg::R8, Src::Imm(7)),
                ],
                8,
            ),
            Counter::Zero => (vec![alu(AluOp::Mov, Reg::R8, Src::Imm(0))], 4),
        };
        insns.extend(self.seeds(rng));
        let head = insns.len();
        for _ in 0..body_len {
            insns.push(self.insn(rng));
        }
        insns.push(alu(AluOp::Add, Reg::R8, Src::Imm(1)));
        let limit = rng.range(min_limit, 25) as i32;
        // Every instruction is one slot, so indices are jump offsets.
        let off = (head as i64 - (insns.len() + 1) as i64) as i16;
        insns.push(Insn::Jmp {
            width,
            op: JmpOp::Lt,
            dst: Reg::R8,
            src: Src::Imm(limit),
            off,
        });
        finish(insns)
    }
}

/// A 64-bit ALU instruction.
fn alu(op: AluOp, dst: Reg, src: Src) -> Insn {
    Insn::Alu {
        width: Width::W64,
        op,
        dst,
        src,
    }
}

/// Appends the exit and validates.
pub fn finish(mut insns: Vec<Insn>) -> Program {
    insns.push(Insn::Exit);
    Program::new(insns).expect("generated programs validate")
}

/// Splices a forward `if r3 <op> (r4 | imm)` over a random distance into
/// `insns` (which has no exit yet), after the first six instructions.
pub fn splice_branch(rng: &mut SplitMix64, insns: &mut Vec<Insn>, ops: &[JmpOp]) {
    let at = rng.range(6, insns.len() as u64) as usize;
    let off = rng.below((insns.len() - at) as u64) as i16;
    let op = ops[rng.below(ops.len() as u64) as usize];
    let src = if rng.coin() {
        Src::Reg(Reg::R4)
    } else {
        Src::Imm(rng.next_i32())
    };
    insns.insert(
        at,
        Insn::Jmp {
            width: Width::W64,
            op,
            dst: Reg::R3,
            src,
            off,
        },
    );
}

/// Appends a byte store to `r10 - 16 + (idx & mask)`: masks 7 and 15
/// stay inside the 16-byte window (accept), 31 and 63 provably overrun
/// it on some path (reject). A hull of in-bounds path states is in
/// bounds too, so the joined and per-path views agree on the verdict.
pub fn store_tail(insns: &mut Vec<Insn>, idx: Reg, mask: i32) {
    insns.extend([
        alu(AluOp::And, idx, Src::Imm(mask)),
        alu(AluOp::Mov, Reg::R9, Src::Reg(Reg::R10)),
        alu(AluOp::Add, Reg::R9, Src::Imm(-16)),
        alu(AluOp::Add, Reg::R9, Src::Reg(idx)),
        Insn::Store {
            size: MemSize::B,
            base: Reg::R9,
            off: 0,
            src: Src::Imm(0),
        },
    ]);
}

/// `n` 8-byte contexts of random bytes (`ctx[0]` drives the trip count
/// of [`Counter::Ctx`] loops).
pub fn random_ctxs(rng: &mut SplitMix64, n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|_| (0..8).map(|_| rng.next_u32() as u8).collect())
        .collect()
}

/// A straight-line [`WIDE`] program: the seeds, then `len` instructions.
pub fn alu_program(rng: &mut SplitMix64, len: usize) -> Case {
    Case::new("", finish(WIDE.straight(rng, len)))
}

/// [`alu_program`] of 12 instructions with one branch spliced in.
pub fn branchy_alu(rng: &mut SplitMix64, _round: usize) -> Case {
    let mut insns = WIDE.straight(rng, 12);
    splice_branch(rng, &mut insns, &CMP);
    Case::new("", finish(insns))
}

/// A [`WIDE`] counted loop at `width` with its bound from the context,
/// run on `ctxs` random contexts.
pub fn ctx_loop(rng: &mut SplitMix64, width: Width, ctxs: usize) -> Case {
    let prog = WIDE.counted_loop(rng, 10, Counter::Ctx, width);
    Case::new("", prog).ctxs(random_ctxs(rng, ctxs))
}

/// Loop-free programs whose verdict the store decides: ALU churn, a
/// spliced branch, and (two rounds in three) a store through a random
/// masked index.
pub fn store_verdict(rng: &mut SplitMix64, _round: usize) -> Case {
    let mut insns = WIDE.straight(rng, 10);
    splice_branch(rng, &mut insns, &CMP[..6]);
    if rng.ratio(2, 3) {
        let mask = [7, 15, 31, 63][rng.below(4) as usize];
        let idx = WIDE.reg(rng);
        store_tail(&mut insns, idx, mask);
    }
    Case::new("", finish(insns))
}

/// The pruning corpus: bounded loops (both guard widths) alternating
/// with store-verdict programs, at `unroll_k = 4` so the widening
/// fallback and its summaries run.
pub fn pruning_mix(rng: &mut SplitMix64, round: usize) -> Case {
    let prog = if round % 2 == 0 {
        let width = if round % 4 == 0 {
            Width::W64
        } else {
            Width::W32
        };
        WIDE.counted_loop(rng, 8, Counter::Ctx, width)
    } else {
        let mask = [7, 15, 31, 63][rng.below(4) as usize];
        let mut insns = WIDE.straight(rng, 6);
        store_tail(&mut insns, Reg::R3, mask);
        finish(insns)
    };
    Case::new("", prog).options(AnalyzerOptions {
        unroll_k: 4,
        ..AnalyzerOptions::default()
    })
}

/// The parallel corpus, round-robin over three shapes: bounded loops
/// (back edges never spawn), a spliced branch before a store whose mask
/// side alternates every three rounds (forks spawn, the mask decides),
/// and doubly spliced branch trees. `unroll_k` alternates between 4
/// (widening-fallback summaries) and 32 (pure unrolling).
pub fn parallel_mix(rng: &mut SplitMix64, round: usize) -> Case {
    let prog = match round % 3 {
        0 => {
            let width = if round % 2 == 0 {
                Width::W64
            } else {
                Width::W32
            };
            NARROW.counted_loop(rng, 8, Counter::Ctx, width)
        }
        1 => {
            let mut insns = NARROW.straight(rng, 10);
            splice_branch(rng, &mut insns, &CMP[..6]);
            let mask = if (round / 3) % 2 == 0 {
                [31, 63][rng.below(2) as usize]
            } else {
                [7, 15][rng.below(2) as usize]
            };
            store_tail(&mut insns, Reg::R3, mask);
            finish(insns)
        }
        _ => {
            let mut insns = NARROW.straight(rng, 12);
            splice_branch(rng, &mut insns, &CMP[..6]);
            splice_branch(rng, &mut insns, &CMP[..6]);
            finish(insns)
        }
    };
    Case::new("", prog).options(AnalyzerOptions {
        unroll_k: if round % 2 == 0 { 4 } else { 32 },
        ..AnalyzerOptions::default()
    })
}

/// The batch corpus: [`NARROW`] straight-line programs and zero-started
/// counted loops, interleaved.
pub fn batch_mix(rng: &mut SplitMix64, round: usize) -> Case {
    let prog = if round % 2 == 0 {
        finish(NARROW.straight(rng, 12))
    } else {
        NARROW.counted_loop(rng, 6, Counter::Zero, Width::W64)
    };
    Case::new("", prog)
}

/// A map-0 helper program (key 4 bytes, value 8): build the key (and
/// value) on the stack, then one of three shapes, each NULL-checking the
/// lookup — 0: update then lookup (hits, returns the value); 1: lookup
/// only against a randomly pre-seeded store (hits iff seeded); 2:
/// update, delete, lookup (misses, returns -1). The case knows its
/// return value from a shadow of the store.
pub fn helper_case(rng: &mut SplitMix64, round: usize) -> Case {
    let shape = round % 3;
    let key = rng.below(16) as u32;
    let value = rng.below(i32::MAX as u64) as u32;
    let stack_args = "r1 = map 0\n r2 = r10\n r2 += -4";
    let update = format!(
        "*(u64 *)(r10 - 16) = {value}\n {stack_args}\n r3 = r10\n r3 += -16\n r4 = 0\n call 2"
    );
    let body = match shape {
        0 => update,
        1 => String::new(),
        _ => format!("{update}\n {stack_args}\n call 3"),
    };
    let source = format!(
        "*(u32 *)(r10 - 4) = {key}\n {body}\n {stack_args}\n call 1\n if r0 == 0 goto miss\n \
         r6 = *(u64 *)(r0 + 0)\n r0 = r6\n exit\n miss:\n r0 = -1\n exit"
    );
    let mut case = Case::asm(&source);
    if shape == 1 {
        for _ in 0..rng.below(8) {
            case.map0
                .push((rng.below(16) as u32, u64::from(rng.next_u32())));
        }
    }
    let seeded = case.map0.iter().rev().find(|&&(k, _)| k == key);
    let ret = match (shape, seeded) {
        (0, _) => u64::from(value),
        (1, Some(&(_, v))) => v,
        _ => u64::MAX,
    };
    case.ret(ret)
}

/// Every `fixtures/*.ebpf` program, sorted by path, named by it.
pub fn fixtures() -> Vec<Case> {
    let mut paths: Vec<_> = std::fs::read_dir("fixtures")
        .expect("fixtures directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "ebpf"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no fixtures found");
    paths
        .into_iter()
        .map(|p| {
            let source = std::fs::read_to_string(&p).expect("fixture reads");
            Case {
                name: p.display().to_string(),
                ..Case::asm(&source)
            }
        })
        .collect()
}
