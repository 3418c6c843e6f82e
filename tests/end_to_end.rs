//! Cross-crate integration: programs that pass the verifier must execute
//! safely on the concrete VM, and the abstract states must contain every
//! concrete state along the way.

use ebpf::asm::assemble;
use ebpf::{Reg, Vm};
use verifier::{AnalyzerOptions, RegValue, VerificationSession};

/// Checks the fundamental soundness contract of abstract interpretation
/// on one traced execution: at every step, every register the analyzer
/// tracks as a scalar must contain the concrete value.
fn assert_trace_contained(src: &str, ctx: &mut [u8]) -> u64 {
    let prog = assemble(src).expect("assembles");
    let analysis = VerificationSession::new()
        .with_options(AnalyzerOptions {
            ctx_size: ctx.len() as u64,
            ..AnalyzerOptions::default()
        })
        .run(&prog)
        .expect("verifies");
    let (ret, trace) = Vm::new().run_traced(&prog, ctx).expect("executes");
    for snap in &trace {
        let Some(state) = analysis.state_before(snap.pc) else {
            panic!("executed supposedly unreachable instruction {}", snap.pc);
        };
        for reg in Reg::ALL {
            if let RegValue::Scalar(s) = state.reg(reg) {
                assert!(
                    s.contains(snap.regs[reg.index()]),
                    "pc {}: concrete {reg} = {:#x} escapes abstract {s:?}",
                    snap.pc,
                    snap.regs[reg.index()],
                );
            }
        }
    }
    ret
}

#[test]
fn masked_table_index_program() {
    for byte in 0u8..=255 {
        let mut ctx = [byte, 1, 2, 3];
        let ret = assert_trace_contained(
            r"
                r2 = *(u8 *)(r1 + 0)
                r2 &= 7
                r3 = r10
                r3 += -8
                r3 += r2
                *(u8 *)(r3 + 0) = 1
                r0 = r2
                exit
            ",
            &mut ctx,
        );
        assert_eq!(ret, u64::from(byte & 7));
    }
}

#[test]
fn branchy_arith_program() {
    for byte in [0u8, 1, 7, 8, 100, 255] {
        let mut ctx = [byte; 8];
        let ret = assert_trace_contained(
            r"
                r2 = *(u8 *)(r1 + 0)
                r3 = r2
                r3 *= 3
                if r3 > 300 goto big
                r0 = r3
                r0 += 1
                exit
            big:
                r0 = 300
                exit
            ",
            &mut ctx,
        );
        let expect = if u64::from(byte) * 3 > 300 {
            300
        } else {
            u64::from(byte) * 3 + 1
        };
        assert_eq!(ret, expect);
    }
}

#[test]
fn spill_and_restore_program() {
    let mut ctx = [9u8, 0, 0, 0];
    let ret = assert_trace_contained(
        r"
            r2 = *(u8 *)(r1 + 0)
            *(u64 *)(r10 - 8) = r2
            r3 = 0
            r3 = *(u64 *)(r10 - 8)
            r0 = r3
            r0 *= r3
            exit
        ",
        &mut ctx,
    );
    assert_eq!(ret, 81);
}

#[test]
fn alu32_and_shift_program() {
    for byte in [0u8, 3, 31, 200] {
        let mut ctx = [byte, 0, 0, 0];
        let ret = assert_trace_contained(
            r"
                r2 = *(u8 *)(r1 + 0)
                w3 = w2
                w3 *= 41
                r4 = r2
                r4 &= 3
                r5 = 1
                r5 <<= r4
                r0 = r3
                r0 += r5
                exit
            ",
            &mut ctx,
        );
        let expect = u64::from(u32::from(byte).wrapping_mul(41)) + (1u64 << (byte & 3));
        assert_eq!(ret, expect);
    }
}

#[test]
fn bounded_loop_filter_program() {
    // A counted filter loop: sum the first 8 packet bytes through a
    // stack staging buffer, with the loop bounded by its own exit test —
    // the workload class the fixpoint engine opens up.
    for fill in [0u8, 1, 77, 255] {
        let mut ctx = [fill; 8];
        let ret = assert_trace_contained(
            r"
                r6 = 0              ; i
                r7 = 0              ; sum
            loop:
                r3 = r1
                r3 += r6
                r2 = *(u8 *)(r3 + 0)
                r4 = r10
                r4 += -8
                r4 += r6
                *(u8 *)(r4 + 0) = r2
                r5 = *(u8 *)(r4 + 0)
                r7 += r5
                r6 += 1
                if r6 < 8 goto loop
                r0 = r7
                exit
            ",
            &mut ctx,
        );
        assert_eq!(ret, u64::from(fill) * 8);
    }
}

#[test]
fn every_verified_program_runs_without_fault() {
    // A corpus of accepted programs: acceptance must imply fault-free
    // concrete execution on arbitrary contexts (the verifier's whole job).
    let corpus = [
        "r0 = 0\nexit",
        "r2 = *(u8 *)(r1 + 0)\nr2 &= 62\nr3 = r1\nr3 += r2\nr0 = *(u8 *)(r3 + 0)\nexit",
        "r2 = *(u8 *)(r1 + 0)\nif r2 s> 100 goto +2\nr0 = 1\nexit\nr0 = 2\nexit",
        "*(u64 *)(r10 - 8) = 1\n*(u64 *)(r10 - 16) = 2\nr0 = *(u64 *)(r10 - 16)\nexit",
        "r2 = *(u8 *)(r1 + 0)\nr2 %= 8\nr3 = r10\nr3 -= 8\nr3 += r2\nr0 = 0\nexit",
    ];
    let analyzer = VerificationSession::new().with_options(AnalyzerOptions {
        ctx_size: 64,
        ..AnalyzerOptions::default()
    });
    let mut vm = Vm::new();
    for src in corpus {
        let prog = assemble(src).unwrap();
        analyzer
            .run(&prog)
            .unwrap_or_else(|e| panic!("rejected {src:?}: {e}"));
        for fill in [0u8, 1, 63, 255] {
            let mut ctx = [fill; 64];
            vm.run(&prog, &mut ctx)
                .unwrap_or_else(|e| panic!("verified program faulted ({src:?}, fill {fill}): {e}"));
        }
    }
}

#[test]
fn rejected_programs_do_fault_concretely() {
    // The complement sanity check: programs the verifier rejects for
    // memory safety really can fault when run unchecked.
    let src = r"
        r2 = *(u8 *)(r1 + 0)
        r3 = r10
        r3 -= 8
        r3 += r2          ; unbounded index
        r0 = *(u8 *)(r3 + 0)
        exit
    ";
    let prog = assemble(src).unwrap();
    assert!(VerificationSession::new()
        .with_options(AnalyzerOptions::default())
        .run(&prog)
        .is_err());
    // With a large enough byte the unchecked VM access goes out of bounds.
    let mut ctx = [200u8; 4];
    assert!(Vm::new().run(&prog, &mut ctx).is_err());
}

#[test]
fn strict_alignment_end_to_end() {
    let src = r"
        r2 = *(u8 *)(r1 + 0)
        r2 &= 56           ; multiples of 8 up to 56
        r3 = r10
        r3 += -64
        r3 += r2
        *(u64 *)(r3 + 0) = 7
        r0 = 0
        exit
    ";
    let prog = assemble(src).unwrap();
    let strict = AnalyzerOptions {
        strict_alignment: true,
        ..AnalyzerOptions::default()
    };
    VerificationSession::new()
        .with_options(strict)
        .run(&prog)
        .expect("8-aligned access accepted strictly");
    for byte in 0u8..=255 {
        let mut ctx = [byte, 0, 0, 0];
        Vm::new().run(&prog, &mut ctx).expect("runs");
    }
}
