//! Differential fuzzing: random straight-line ALU programs are (a) always
//! accepted by the verifier (scalars only, no memory), (b) executed on the
//! concrete VM, and (c) checked for per-step abstract containment.
//!
//! This exercises the *entire* transfer-function stack — every tnum
//! operator, every interval transfer, the reduced-product sync — against
//! the concrete BPF semantics, the strongest soundness evidence the test
//! suite produces.

use std::sync::Arc;

use domain::rng::SplitMix64;
use ebpf::{AluOp, Insn, Program, Reg, Src, Vm, Width};
use verifier::{
    AnalyzerOptions, Cfg, ProgramPasses, RegValue, Strategy, TransferMemo, VerificationSession,
};

/// The fuzzed register set: seeded with constants up front so every
/// random use reads an initialized register.
const FUZZ_REGS: [Reg; 6] = [Reg::R0, Reg::R3, Reg::R4, Reg::R5, Reg::R6, Reg::R7];

/// Seed instructions giving every fuzzed register a random constant.
fn seed_regs(rng: &mut SplitMix64) -> Vec<Insn> {
    FUZZ_REGS
        .iter()
        .enumerate()
        .map(|(i, &r)| Insn::Alu {
            width: Width::W64,
            op: AluOp::Mov,
            dst: r,
            src: Src::Imm(rng.next_i32() >> (i * 4)),
        })
        .collect()
}

/// One random ALU instruction over [`FUZZ_REGS`] — the shared body
/// generator of the straight-line and loopy fuzz suites.
fn random_alu_insn(rng: &mut SplitMix64) -> Insn {
    let ops = [
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
    ];
    let op = ops[rng.below(ops.len() as u64) as usize];
    let width = if rng.ratio(3, 10) {
        Width::W32
    } else {
        Width::W64
    };
    let dst = FUZZ_REGS[rng.below(FUZZ_REGS.len() as u64) as usize];
    let src = if op == AluOp::Neg {
        // Canonical no-operand form.
        Src::Imm(0)
    } else if rng.coin() {
        Src::Reg(FUZZ_REGS[rng.below(FUZZ_REGS.len() as u64) as usize])
    } else if matches!(op, AluOp::Lsh | AluOp::Rsh | AluOp::Arsh) {
        // Keep immediate shift amounts in range; register amounts are
        // masked by the semantics.
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

/// Generates a random straight-line ALU program: seeds, then `len`
/// random ALU instructions.
fn random_alu_program(rng: &mut SplitMix64, len: usize) -> Program {
    let mut insns = seed_regs(rng);
    for _ in 0..len {
        insns.push(random_alu_insn(rng));
    }
    insns.push(Insn::Exit);
    Program::new(insns).expect("straight-line ALU programs always validate")
}

#[test]
fn random_alu_programs_abstract_containment() {
    let mut rng = SplitMix64::new(0xBEEF);
    let analyzer = VerificationSession::new().with_options(AnalyzerOptions::default());
    let mut vm = Vm::new();
    for round in 0..200 {
        let prog = random_alu_program(&mut rng, 30);
        let analysis = analyzer
            .run(&prog)
            .unwrap_or_else(|e| panic!("round {round}: ALU program rejected: {e}"));
        let mut ctx = [0u8; 8];
        let (_, trace) = vm
            .run_traced(&prog, &mut ctx)
            .expect("ALU programs cannot fault");
        for snap in &trace {
            let state = analysis.state_before(snap.pc).expect("reachable");
            for reg in Reg::ALL {
                if let RegValue::Scalar(s) = state.reg(reg) {
                    assert!(
                        s.contains(snap.regs[reg.index()]),
                        "round {round} pc {}: {reg} = {:#x} escapes {s:?}\nprogram:\n{}",
                        snap.pc,
                        snap.regs[reg.index()],
                        prog.disassemble(),
                    );
                }
            }
        }
    }
}

#[test]
fn random_alu_programs_with_branches() {
    // Add forward conditional branches (still loop-free): exercises branch
    // refinement soundness against concrete control flow.
    let mut rng = SplitMix64::new(0xFACE);
    let analyzer = VerificationSession::new().with_options(AnalyzerOptions::default());
    let mut vm = Vm::new();
    for round in 0..100 {
        let base = random_alu_program(&mut rng, 12);
        // Splice a conditional jump over a random prefix-safe distance.
        let mut insns: Vec<Insn> = base.insns().to_vec();
        let at = rng.range(6, (insns.len() - 1) as u64) as usize;
        let skip = rng.below((insns.len() - 1 - at) as u64) as i16;
        let cmp_ops = [
            ebpf::JmpOp::Eq,
            ebpf::JmpOp::Ne,
            ebpf::JmpOp::Lt,
            ebpf::JmpOp::Ge,
            ebpf::JmpOp::Sgt,
            ebpf::JmpOp::Sle,
            ebpf::JmpOp::Set,
        ];
        insns.insert(
            at,
            Insn::Jmp {
                width: Width::W64,
                op: cmp_ops[rng.below(cmp_ops.len() as u64) as usize],
                dst: Reg::R3,
                src: if rng.coin() {
                    Src::Reg(Reg::R4)
                } else {
                    Src::Imm(rng.next_i32())
                },
                off: skip,
            },
        );
        let Ok(prog) = Program::new(insns) else {
            continue;
        };
        let analysis = analyzer
            .run(&prog)
            .unwrap_or_else(|e| panic!("round {round}: rejected: {e}\n{}", prog.disassemble()));
        let mut ctx = [0u8; 8];
        let (_, trace) = vm.run_traced(&prog, &mut ctx).expect("cannot fault");
        for snap in &trace {
            let state = analysis
                .state_before(snap.pc)
                .unwrap_or_else(|| panic!("round {round}: executed unreachable pc {}", snap.pc));
            for reg in Reg::ALL {
                if let RegValue::Scalar(s) = state.reg(reg) {
                    assert!(
                        s.contains(snap.regs[reg.index()]),
                        "round {round} pc {}: {reg} escapes\n{}",
                        snap.pc,
                        prog.disassemble(),
                    );
                }
            }
        }
    }
}

/// Generates a bounded-loop program: the counter `r8` starts at a masked
/// untrusted context byte, a random ALU body churns `r0`/`r3`–`r7` every
/// trip, and the back-edge condition `r8 < limit` bounds the loop — at
/// the given comparison `width` (32-bit guards exercise `refine32`).
///
/// All instructions are single-slot, so instruction indices double as
/// jump offsets.
fn random_loop_program_at(rng: &mut SplitMix64, body_len: usize, width: Width) -> Program {
    let mut insns: Vec<Insn> = vec![
        // r8 = ctx[0] & 7: the trip count depends on untrusted input.
        Insn::Load {
            size: ebpf::MemSize::B,
            dst: Reg::R8,
            base: Reg::R1,
            off: 0,
        },
        Insn::Alu {
            width: Width::W64,
            op: AluOp::And,
            dst: Reg::R8,
            src: Src::Imm(7),
        },
    ];
    insns.extend(seed_regs(rng));
    let head = insns.len();
    for _ in 0..body_len {
        insns.push(random_alu_insn(rng));
    }
    insns.push(Insn::Alu {
        width: Width::W64,
        op: AluOp::Add,
        dst: Reg::R8,
        src: Src::Imm(1),
    });
    // Trip counts from 1 (r8 masked to <= 7, limit 8) up to 24 — both
    // sides of the default widening delay.
    let limit = rng.range(8, 25) as i32;
    let jmp_index = insns.len();
    insns.push(Insn::Jmp {
        width,
        op: ebpf::JmpOp::Lt,
        dst: Reg::R8,
        src: Src::Imm(limit),
        off: (head as i64 - (jmp_index + 1) as i64) as i16,
    });
    insns.push(Insn::Exit);
    Program::new(insns).expect("loop programs validate")
}

/// Shared body of the 64-bit and 32-bit loop-fuzz suites: analyze, run
/// on the VM across random contexts, and assert per-step containment
/// plus exit-state containment of the concrete return value.
fn check_loop_containment(seed: u64, rounds: usize, width: Width) {
    let mut rng = SplitMix64::new(seed);
    let analyzer = VerificationSession::new().with_options(AnalyzerOptions::default());
    let mut vm = Vm::new();
    for round in 0..rounds {
        let prog = random_loop_program_at(&mut rng, 10, width);
        let analysis = analyzer
            .run(&prog)
            .unwrap_or_else(|e| panic!("round {round}: loop program rejected: {e}"));
        let exit_pc = prog.len() - 1;
        // SplitMix64-driven inputs vary the trip count through ctx[0].
        for _ in 0..6 {
            let mut ctx = [0u8; 8];
            for byte in &mut ctx {
                *byte = rng.next_u32() as u8;
            }
            let (ret, trace) = vm
                .run_traced(&prog, &mut ctx)
                .expect("ALU loop programs cannot fault");
            // Per-step containment across every trip…
            for snap in &trace {
                let state = analysis.state_before(snap.pc).expect("reachable");
                for reg in Reg::ALL {
                    if let RegValue::Scalar(s) = state.reg(reg) {
                        assert!(
                            s.contains(snap.regs[reg.index()]),
                            "round {round} pc {}: {reg} = {:#x} escapes {s:?}\nprogram:\n{}",
                            snap.pc,
                            snap.regs[reg.index()],
                            prog.disassemble(),
                        );
                    }
                }
            }
            // …and the concrete return value sits in the abstract exit
            // state.
            let exit_state = analysis.state_before(exit_pc).expect("exit reachable");
            let r0 = exit_state
                .reg(Reg::R0)
                .as_scalar()
                .expect("r0 is a scalar at exit");
            assert!(
                r0.contains(ret),
                "round {round}: final r0 = {ret:#x} escapes {r0:?}\nprogram:\n{}",
                prog.disassemble(),
            );
        }
    }
}

#[test]
fn random_loop_programs_abstract_containment() {
    check_loop_containment(0x100D, 60, Width::W64);
}

#[test]
fn random_w32_guarded_loop_programs_abstract_containment() {
    // The same bounded-loop workload guarded by `if w8 < limit`:
    // `refine32` must keep the counter bounded (and sound) through the
    // zero-extended sub-register compare.
    check_loop_containment(0x32B1, 60, Width::W32);
}

#[test]
fn w32_guarded_memset_verifies_and_matches_vm() {
    // A 13-byte memset whose exit test compares the *sub-register*:
    // before `refine32`, both edges of `if w1 < 13` passed through
    // unrefined and the counter widened past the buffer, rejecting a
    // program the concrete VM executes safely. Thresholds stay off so
    // the 32-bit refinement alone carries the proof.
    let prog = ebpf::asm::assemble(
        r"
            r1 = 0
        loop:
            r3 = r10
            r3 += -13
            r3 += r1
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if w1 < 13 goto loop
            r0 = r1
            exit
        ",
    )
    .unwrap();
    let analysis = VerificationSession::new()
        .with_options(AnalyzerOptions {
            harvest_thresholds: false,
            ..AnalyzerOptions::default()
        })
        .run(&prog)
        .expect("32-bit guard refines the counter");
    let (ret, _) = Vm::new()
        .run_traced(&prog, &mut [0u8; 8])
        .expect("verified program executes safely");
    assert_eq!(ret, 13);
    let exit_state = analysis.state_before(prog.len() - 1).unwrap();
    let r0 = exit_state.reg(Reg::R0).as_scalar().unwrap();
    assert!(r0.contains(ret));
}

#[test]
fn per_register_widening_keeps_counter_plus_accumulator_vs_vm() {
    // Regression for per-register widening stabilization: a continue-
    // style loop with two back-edges hands the head two changing joins
    // per trip (the accumulator differs on the two paths). The shared
    // per-head delay counter of PR 2 was burned twice per trip by the
    // accumulator and widened the counter mid-ascent — rejecting a
    // program the VM executes safely. Per-register counters charge the
    // counter only for its own 12 changing joins, inside the default
    // delay of 16.
    let prog = ebpf::asm::assemble(
        r"
            r1 = 0              ; i
            r6 = 0              ; sum
        loop:
            r3 = r10
            r3 += -13
            r3 += r1
            *(u8 *)(r3 + 0) = 0 ; in bounds iff i <= 12
            r1 += 1
            r6 += 1
            if r1 > 12 goto out
            if r2 > 0 goto loop ; back-edge 1
            r6 += 7
            goto loop           ; back-edge 2
        out:
            r0 = r1
            exit
        ",
    )
    .unwrap();
    let analysis = VerificationSession::new()
        .with_options(AnalyzerOptions {
            harvest_thresholds: false,
            ..AnalyzerOptions::default()
        })
        .run(&prog)
        .expect("per-register delay keeps the counter bound");
    // The acceptance is correct: the concrete VM runs it in bounds, and
    // the exit state contains the concrete result.
    let (ret, _) = Vm::new()
        .run_traced(&prog, &mut [0u8; 8])
        .expect("verified program executes safely");
    assert_eq!(ret, 13);
    let exit_state = analysis.state_before(prog.len() - 1).unwrap();
    let r0 = exit_state.reg(Reg::R0).as_scalar().unwrap();
    assert!(r0.contains(ret));
    assert_eq!(r0.as_constant(), Some(13), "narrowing pins the counter");
}

#[test]
fn delayed_widening_regression_vs_vm() {
    // The 13-trip memset: the interval bound i <= 12 is the whole safety
    // argument (the tnum can only offer [0, 15]). Eager widening (delay
    // 0) extrapolates the counter before the exit test caps it and must
    // reject; the default delayed engine accepts, and the acceptance is
    // *correct* — the concrete VM executes the program in bounds.
    let prog = ebpf::asm::assemble(
        r"
            r1 = 0
        loop:
            r3 = r10
            r3 += -13
            r3 += r1
            *(u8 *)(r3 + 0) = 0
            r1 += 1
            if r1 < 13 goto loop
            r0 = r1
            exit
        ",
    )
    .unwrap();
    let eager = VerificationSession::new().with_options(AnalyzerOptions {
        widen_delay: 0,
        harvest_thresholds: false,
        ..AnalyzerOptions::default()
    });
    assert!(
        eager.run(&prog).is_err(),
        "eager widening without thresholds loses the bound"
    );
    // With harvested thresholds ("widening with thresholds"), the same
    // eager configuration lands the counter on the `i < 13` guard and
    // keeps the proof.
    let eager_with_thresholds = VerificationSession::new().with_options(AnalyzerOptions {
        widen_delay: 0,
        ..AnalyzerOptions::default()
    });
    eager_with_thresholds
        .run(&prog)
        .expect("harvested thresholds recover the bound without delay");
    let analysis = VerificationSession::new()
        .with_options(AnalyzerOptions::default())
        .run(&prog)
        .expect("delayed widening keeps the bound");
    let (ret, _) = Vm::new()
        .run_traced(&prog, &mut [0u8; 8])
        .expect("verified program executes safely");
    assert_eq!(ret, 13);
    let exit_state = analysis.state_before(prog.len() - 1).unwrap();
    let r0 = exit_state.reg(Reg::R0).as_scalar().unwrap();
    assert!(r0.contains(ret), "concrete result inside the exit state");
    assert_eq!(r0.as_constant(), Some(13), "narrowing pins the counter");
}

/// One session per built-in strategy: `(widening fixpoint, path-sensitive)`.
fn both_strategies() -> (VerificationSession, VerificationSession) {
    (
        VerificationSession::new(),
        VerificationSession::new().with_strategy(Strategy::PathSensitive),
    )
}

#[test]
fn strategies_agree_on_loop_free_programs() {
    // Random loop-free programs — ALU churn, a spliced conditional
    // branch, and (two rounds in three) a store through a masked index,
    // whose mask decides the verdict: both strategies must agree on
    // accept/reject, and on acceptance the concrete VM execution must be
    // contained in *both* strategies' abstract states.
    let mut rng = SplitMix64::new(0x51AE);
    let (fixpoint, path) = both_strategies();
    let mut vm = Vm::new();
    let (mut accepts, mut rejects) = (0u32, 0u32);
    for round in 0..120 {
        let base = random_alu_program(&mut rng, 10);
        let mut insns: Vec<Insn> = base.insns().to_vec();
        // Drop the exit (re-appended below), then splice a conditional
        // jump over a prefix-safe distance, so the two paths reach the
        // store with differently refined registers.
        insns.pop();
        let at = rng.range(6, insns.len() as u64) as usize;
        let skip = rng.below((insns.len() - at) as u64) as i16;
        let cmp_ops = [
            ebpf::JmpOp::Eq,
            ebpf::JmpOp::Ne,
            ebpf::JmpOp::Lt,
            ebpf::JmpOp::Ge,
            ebpf::JmpOp::Sgt,
            ebpf::JmpOp::Sle,
        ];
        insns.insert(
            at,
            Insn::Jmp {
                width: Width::W64,
                op: cmp_ops[rng.below(cmp_ops.len() as u64) as usize],
                dst: Reg::R3,
                src: if rng.coin() {
                    Src::Reg(Reg::R4)
                } else {
                    Src::Imm(rng.next_i32())
                },
                off: skip,
            },
        );
        if rng.ratio(2, 3) {
            // Store to [r10 - 16 + (idx & mask)]: masks 7/15 keep the
            // byte store inside the 16-byte window (accept), 31/63
            // provably overrun it on some path (reject) — and a hull of
            // in-bounds path states is itself in bounds, so the joined
            // fixpoint view cannot disagree with the per-path one.
            let mask = [7i32, 15, 31, 63][rng.below(4) as usize];
            let idx = FUZZ_REGS[rng.below(FUZZ_REGS.len() as u64) as usize];
            insns.extend([
                Insn::Alu {
                    width: Width::W64,
                    op: AluOp::And,
                    dst: idx,
                    src: Src::Imm(mask),
                },
                Insn::Alu {
                    width: Width::W64,
                    op: AluOp::Mov,
                    dst: Reg::R9,
                    src: Src::Reg(Reg::R10),
                },
                Insn::Alu {
                    width: Width::W64,
                    op: AluOp::Add,
                    dst: Reg::R9,
                    src: Src::Imm(-16),
                },
                Insn::Alu {
                    width: Width::W64,
                    op: AluOp::Add,
                    dst: Reg::R9,
                    src: Src::Reg(idx),
                },
                Insn::Store {
                    size: ebpf::MemSize::B,
                    base: Reg::R9,
                    off: 0,
                    src: Src::Imm(0),
                },
            ]);
        }
        insns.push(Insn::Exit);
        let Ok(prog) = Program::new(insns) else {
            continue;
        };
        let by_fixpoint = fixpoint.run(&prog);
        let by_path = path.run(&prog);
        assert_eq!(
            by_fixpoint.is_ok(),
            by_path.is_ok(),
            "round {round}: verdicts disagree (fixpoint: {by_fixpoint:?}, \
             path: {by_path:?})\n{}",
            prog.disassemble(),
        );
        let (Ok(by_fixpoint), Ok(by_path)) = (by_fixpoint, by_path) else {
            rejects += 1;
            continue;
        };
        accepts += 1;
        let mut ctx = [0u8; 8];
        let (_, trace) = vm
            .run_traced(&prog, &mut ctx)
            .expect("accepted programs execute safely");
        for snap in &trace {
            for analysis in [&by_fixpoint, &by_path] {
                let state = analysis.state_before(snap.pc).expect("reachable");
                for reg in Reg::ALL {
                    if let RegValue::Scalar(s) = state.reg(reg) {
                        assert!(
                            s.contains(snap.regs[reg.index()]),
                            "round {round} pc {} ({:?}): {reg} escapes\n{}",
                            snap.pc,
                            analysis.strategy(),
                            prog.disassemble(),
                        );
                    }
                }
            }
        }
    }
    assert!(
        accepts > 10 && rejects > 10,
        "campaign must exercise both verdicts: {accepts} accepts, {rejects} rejects"
    );
}

#[test]
fn path_sensitive_never_less_precise_on_bounded_loops() {
    // The bounded-loop workload of `check_loop_containment`, run under
    // both strategies: the path-sensitive explorer must accept whatever
    // the fixpoint accepts, stay sound against the concrete VM (ground
    // truth), and report per-pc states *included in* the fixpoint's —
    // per-trip exploration is never less precise than the loop-head
    // join. Trip limits (<= 24) sit inside the default unroll_k (32), so
    // the run is pure unrolling: no widening at all.
    let mut rng = SplitMix64::new(0xC0DE);
    let (fixpoint, path) = both_strategies();
    let mut vm = Vm::new();
    for width in [Width::W64, Width::W32] {
        for round in 0..30 {
            let prog = random_loop_program_at(&mut rng, 10, width);
            let by_fixpoint = fixpoint
                .run(&prog)
                .unwrap_or_else(|e| panic!("round {round}: fixpoint rejected: {e}"));
            let by_path = path.run(&prog).unwrap_or_else(|e| {
                panic!("round {round}: path-sensitive rejected an accepted program: {e}")
            });
            assert_eq!(by_path.stats().widenings_applied, 0, "pure unrolling");
            for _ in 0..4 {
                let mut ctx = [0u8; 8];
                for byte in &mut ctx {
                    *byte = rng.next_u32() as u8;
                }
                let (ret, trace) = vm.run_traced(&prog, &mut ctx).expect("cannot fault");
                for snap in &trace {
                    let ps = by_path.state_before(snap.pc).expect("reachable");
                    let fp = by_fixpoint.state_before(snap.pc).expect("reachable");
                    // Ground truth: the concrete step is inside the
                    // path-sensitive state…
                    for reg in Reg::ALL {
                        if let RegValue::Scalar(s) = ps.reg(reg) {
                            assert!(
                                s.contains(snap.regs[reg.index()]),
                                "round {round} pc {}: {reg} escapes path state\n{}",
                                snap.pc,
                                prog.disassemble(),
                            );
                        }
                    }
                    // …and the path-sensitive state is inside the
                    // fixpoint's (strictly more precise or equal).
                    assert!(
                        ps.is_subset_of(fp),
                        "round {round} pc {}: path state not included in \
                         fixpoint state\n{}",
                        snap.pc,
                        prog.disassemble(),
                    );
                }
                let exit = by_path.state_before(prog.len() - 1).expect("reachable");
                let r0 = exit.reg(Reg::R0).as_scalar().expect("scalar at exit");
                assert!(r0.contains(ret), "round {round}: exit r0 escapes");
            }
        }
    }
}

/// A helper program over map 0 (key 4, value 8, 16 entries): build the
/// key (and value) regions on the stack, then run one of three shapes —
/// update-then-lookup (must hit and return the stored value),
/// lookup-only against a pre-seeded store (hit iff seeded), and
/// update-delete-lookup (must miss). Every shape NULL-checks the lookup.
fn helper_program(shape: usize, key: u32, value: u32) -> Program {
    let source = match shape {
        0 => format!(
            r"
            *(u32 *)(r10 - 4) = {key}
            *(u64 *)(r10 - 16) = {value}
            r1 = map 0
            r2 = r10
            r2 += -4
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
            r1 = map 0
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto miss
            r6 = *(u64 *)(r0 + 0)
            r0 = r6
            exit
        miss:
            r0 = -1
            exit
        "
        ),
        1 => format!(
            r"
            *(u32 *)(r10 - 4) = {key}
            r1 = map 0
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto miss
            r6 = *(u64 *)(r0 + 0)
            r0 = r6
            exit
        miss:
            r0 = -1
            exit
        "
        ),
        _ => format!(
            r"
            *(u32 *)(r10 - 4) = {key}
            *(u64 *)(r10 - 16) = {value}
            r1 = map 0
            r2 = r10
            r2 += -4
            r3 = r10
            r3 += -16
            r4 = 0
            call 2
            r1 = map 0
            r2 = r10
            r2 += -4
            call 3
            r1 = map 0
            r2 = r10
            r2 += -4
            call 1
            if r0 == 0 goto miss
            r6 = *(u64 *)(r0 + 0)
            r0 = r6
            exit
        miss:
            r0 = -1
            exit
        "
        ),
    };
    ebpf::asm::assemble(&source).expect("helper programs assemble")
}

#[test]
fn helper_programs_differential_against_vm_map_store() {
    // The verifier's accept verdict on map-helper programs must be
    // backed by the VM *actually executing* the map semantics: updates
    // land, lookups hit exactly when a shadow model says they should,
    // deletes invalidate, and every scalar the trace produces is
    // contained in the abstract state at its pc (MapValuePtr registers
    // hold VM map-arena addresses and are deliberately not scalars).
    let mut rng = SplitMix64::new(0x3A95);
    let analyzer = VerificationSession::new().with_options(AnalyzerOptions::default());
    for round in 0..60 {
        let shape = round % 3;
        let key = rng.below(16) as u32;
        let value = rng.below(i32::MAX as u64) as u32;
        let prog = helper_program(shape, key, value);
        let analysis = analyzer
            .run(&prog)
            .unwrap_or_else(|e| panic!("round {round}: helper program rejected: {e}"));

        let mut vm = Vm::new();
        // Pre-seed the store for the lookup-only shape, mirrored in a
        // shadow model that decides the expected verdict.
        let mut shadow = std::collections::BTreeMap::new();
        if shape == 1 {
            for _ in 0..rng.below(8) {
                let k = rng.below(16) as u32;
                let v = u64::from(rng.next_u32());
                assert!(vm.maps_mut().update(0, &k.to_le_bytes(), &v.to_le_bytes()));
                shadow.insert(k, v);
            }
        }
        let mut ctx = [0u8; 8];
        let (ret, trace) = vm
            .run_traced(&prog, &mut ctx)
            .expect("verified helper programs execute safely");

        let expected = match shape {
            0 => u64::from(value),
            1 => shadow.get(&key).copied().unwrap_or((-1i64) as u64),
            _ => (-1i64) as u64,
        };
        assert_eq!(
            ret, expected,
            "round {round} shape {shape}: VM map semantics diverged \
             (key {key}, value {value})"
        );
        if shape == 0 {
            assert_eq!(
                vm.maps().get(0, &key.to_le_bytes()),
                Some(u64::from(value).to_le_bytes().as_slice()),
                "round {round}: update did not land in the store"
            );
        }

        for snap in &trace {
            let state = analysis.state_before(snap.pc).expect("reachable");
            for reg in Reg::ALL {
                if let RegValue::Scalar(s) = state.reg(reg) {
                    assert!(
                        s.contains(snap.regs[reg.index()]),
                        "round {round} pc {}: {reg} = {:#x} escapes {s:?}\nprogram:\n{}",
                        snap.pc,
                        snap.regs[reg.index()],
                        prog.disassemble(),
                    );
                }
            }
        }
    }
}

#[test]
fn helper_update_loop_populates_the_store() {
    // The map_update_loop fixture shape, end to end: after the verified
    // program runs, every key 0..8 must sit in map 0 with its trip
    // counter as the value — the loop's helper calls really executed.
    let prog = ebpf::asm::assemble(
        r"
        r6 = 0
    loop:
        *(u32 *)(r10 - 4) = r6
        *(u64 *)(r10 - 16) = r6
        r1 = map 0
        r2 = r10
        r2 += -4
        r3 = r10
        r3 += -16
        r4 = 0
        call 2
        r6 += 1
        if r6 < 8 goto loop
        r0 = 0
        exit
    ",
    )
    .unwrap();
    VerificationSession::new()
        .with_options(AnalyzerOptions::default())
        .run(&prog)
        .expect("update loop verifies");
    let mut vm = Vm::new();
    let (ret, _) = vm
        .run_traced(&prog, &mut [0u8; 8])
        .expect("verified program executes safely");
    assert_eq!(ret, 0);
    for k in 0u32..8 {
        assert_eq!(
            vm.maps().get(0, &k.to_le_bytes()),
            Some(u64::from(k).to_le_bytes().as_slice()),
            "key {k} missing after the update loop"
        );
    }
    assert_eq!(vm.maps().get(0, &8u32.to_le_bytes()), None);
}

#[test]
fn byte_round_trip_of_random_programs() {
    let mut rng = SplitMix64::new(0xD15C);
    for _ in 0..100 {
        let prog = random_alu_program(&mut rng, 20);
        let bytes = prog.to_bytes();
        let back = Program::from_bytes(&bytes).expect("round trip decodes");
        assert_eq!(back, prog);
        // Disassembly round-trips too.
        let text = prog.disassemble();
        let reasm = ebpf::asm::assemble(&text).expect("disassembly reassembles");
        assert_eq!(reasm, prog);
    }
}

/// The mixed pruning-campaign corpus: bounded loops (both guard widths)
/// alternating with store-verdict programs whose mask decides
/// accept/reject — the workload the visited-table hygiene and
/// liveness-masking locks both run on.
fn pruning_campaign_program(rng: &mut SplitMix64, round: usize) -> Program {
    if round % 2 == 0 {
        let width = if round % 4 == 0 {
            Width::W64
        } else {
            Width::W32
        };
        random_loop_program_at(rng, 8, width)
    } else {
        let mask = [7i32, 15, 31, 63][rng.below(4) as usize];
        let mut insns = seed_regs(rng);
        for _ in 0..6 {
            insns.push(random_alu_insn(rng));
        }
        insns.extend([
            Insn::Alu {
                width: Width::W64,
                op: AluOp::And,
                dst: Reg::R3,
                src: Src::Imm(mask),
            },
            Insn::Alu {
                width: Width::W64,
                op: AluOp::Mov,
                dst: Reg::R9,
                src: Src::Reg(Reg::R10),
            },
            Insn::Alu {
                width: Width::W64,
                op: AluOp::Add,
                dst: Reg::R9,
                src: Src::Imm(-16),
            },
            Insn::Alu {
                width: Width::W64,
                op: AluOp::Add,
                dst: Reg::R9,
                src: Src::Reg(Reg::R3),
            },
            Insn::Store {
                size: ebpf::MemSize::B,
                base: Reg::R9,
                off: 0,
                src: Src::Imm(0),
            },
            Insn::Exit,
        ]);
        Program::new(insns).expect("store programs validate")
    }
}

#[test]
fn eviction_and_chain_caps_never_change_verdicts() {
    // Pruning-table hygiene — fingerprint-gated probes, dominance
    // eviction, and per-pc chain caps — is a pure optimization: dropping
    // (or never consulting) a visited entry can only mean re-exploring a
    // path, never accepting or rejecting differently. Run the loopy and
    // store-verdict corpora under the path-sensitive strategy across the
    // whole cap spectrum — unbounded chains (0), the default (32), and
    // pathologically tiny caps that evict almost everything — and
    // require identical verdicts; on acceptance, also identical per-pc
    // report states at the exit (the join over explored paths must not
    // depend on table hygiene).
    let caps: [u32; 4] = [0, 32, 2, 1];
    let sessions: Vec<VerificationSession> = caps
        .iter()
        .map(|&visited_cap| {
            VerificationSession::new()
                .with_strategy(Strategy::PathSensitive)
                .with_options(AnalyzerOptions {
                    visited_cap,
                    unroll_k: 4, // force the widening fallback + summaries
                    ..AnalyzerOptions::default()
                })
        })
        .collect();
    let mut rng = SplitMix64::new(0xE71C);
    let (mut accepts, mut rejects) = (0u32, 0u32);
    for round in 0..60 {
        let prog = pruning_campaign_program(&mut rng, round);
        let results: Vec<_> = sessions.iter().map(|s| s.run(&prog)).collect();
        let baseline_ok = results[0].is_ok();
        if baseline_ok {
            accepts += 1;
        } else {
            rejects += 1;
        }
        for (cap, result) in caps.iter().zip(results.iter()).skip(1) {
            assert_eq!(
                result.is_ok(),
                baseline_ok,
                "round {round}: visited_cap={cap} changed the verdict\n{}",
                prog.disassemble(),
            );
        }
        let exit_pc = prog.len() - 1;
        if let Ok(baseline) = &results[0] {
            for (cap, result) in caps.iter().zip(results.iter()).skip(1) {
                let analysis = result.as_ref().expect("same verdict");
                match (
                    baseline.state_before(exit_pc),
                    analysis.state_before(exit_pc),
                ) {
                    (Some(b), Some(a)) => assert!(
                        a.is_subset_of(b) && b.is_subset_of(a),
                        "round {round}: visited_cap={cap} changed the exit state\n{}",
                        prog.disassemble(),
                    ),
                    (b, a) => assert_eq!(
                        b.is_none(),
                        a.is_none(),
                        "round {round}: visited_cap={cap} changed exit reachability"
                    ),
                }
            }
        }
    }
    assert!(
        accepts > 5 && rejects > 5,
        "campaign must exercise both verdicts: {accepts} accepts, {rejects} rejects"
    );
}

#[test]
fn liveness_masked_pruning_never_changes_verdicts_or_reports() {
    // Liveness-aware masking — checkpoint cleaning plus masked visited
    // probes — must be a pure optimization: dead components compare as ⊤
    // and hash to a fixed salt, so states differing only in dead
    // registers collide and prune, but no *live* fact may move. Lock
    // exactly that, across the full configuration matrix of strategies ×
    // memo on/off × visited caps: a masked run must produce the same
    // verdict (same rejection, rendered identically) as its unmasked
    // twin, reach the same pcs, and agree on every live component of
    // every reported state. Dead components are allowed to differ — the
    // masked run cleans them to ⊤ at checkpoints — so both reports are
    // cleaned with the same per-pc liveness mask before comparing.
    let caps: [u32; 3] = [0, 2, 32];
    let strategies = [Strategy::WideningFixpoint, Strategy::PathSensitive];
    let mut rng = SplitMix64::new(0x11FE);
    let (mut accepts, mut rejects) = (0u32, 0u32);
    for round in 0..30 {
        let prog = pruning_campaign_program(&mut rng, round);
        let cfg = Cfg::build(&prog);
        let passes = ProgramPasses::compute(&prog, &cfg);
        let mut counted = false;
        for strategy in strategies {
            for memo_on in [false, true] {
                for cap in caps {
                    let run_with = |liveness_pruning: bool| {
                        VerificationSession::new()
                            .with_strategy(strategy)
                            .with_options(AnalyzerOptions {
                                visited_cap: cap,
                                unroll_k: 4, // widening fallback + summaries
                                liveness_pruning,
                                memo_cache: memo_on.then(|| Arc::new(TransferMemo::new())),
                                ..AnalyzerOptions::default()
                            })
                            .run(&prog)
                    };
                    let masked = run_with(true);
                    let unmasked = run_with(false);
                    let label =
                        format!("round {round} ({strategy:?}, memo={memo_on}, visited_cap={cap})");
                    let (masked, unmasked) = match (masked, unmasked) {
                        (Ok(m), Ok(u)) => {
                            if !counted {
                                accepts += 1;
                                counted = true;
                            }
                            (m, u)
                        }
                        (Err(m), Err(u)) => {
                            assert_eq!(
                                m.to_string(),
                                u.to_string(),
                                "{label}: masking changed the rejection\n{}",
                                prog.disassemble(),
                            );
                            if !counted {
                                rejects += 1;
                                counted = true;
                            }
                            continue;
                        }
                        (m, u) => panic!(
                            "{label}: masking changed the verdict \
                             (masked: {m:?}, unmasked: {u:?})\n{}",
                            prog.disassemble(),
                        ),
                    };
                    for pc in 0..prog.len() {
                        match (masked.state_before(pc), unmasked.state_before(pc)) {
                            (None, None) => {}
                            (Some(m), Some(u)) => {
                                let live = passes.live_in(pc);
                                let mut mc = m.clone();
                                mc.clear_dead(live.regs, live.slots);
                                let mut uc = u.clone();
                                uc.clear_dead(live.regs, live.slots);
                                assert!(
                                    mc.is_subset_of(&uc) && uc.is_subset_of(&mc),
                                    "{label}: live components diverged at pc {pc}\
                                     \nmasked:   {mc:?}\nunmasked: {uc:?}\n{}",
                                    prog.disassemble(),
                                );
                            }
                            (m, u) => panic!(
                                "{label}: masking changed reachability at pc {pc} \
                                 (masked: {}, unmasked: {})\n{}",
                                m.is_some(),
                                u.is_some(),
                                prog.disassemble(),
                            ),
                        }
                    }
                }
            }
        }
    }
    assert!(
        accepts > 5 && rejects > 5,
        "campaign must exercise both verdicts: {accepts} accepts, {rejects} rejects"
    );
}
