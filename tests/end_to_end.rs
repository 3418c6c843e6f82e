//! Cross-crate integration: programs that pass the verifier execute
//! safely on the concrete VM, and the abstract states contain every
//! concrete state along the way ([`Relation::Sound`]).

mod oracle;

use ebpf::Vm;
use oracle::{check, Case, Relation::*};
use verifier::AnalyzerOptions;

/// Verifies `src` with a context of the given buffers' size, asserts
/// soundness on each buffer and returns what the VM returned.
fn contained_returns(src: &str, ctxs: impl IntoIterator<Item = Vec<u8>>) -> Vec<u64> {
    let ctxs: Vec<Vec<u8>> = ctxs.into_iter().collect();
    let case = Case::asm(src)
        .options(AnalyzerOptions {
            ctx_size: ctxs[0].len() as u64,
            ..AnalyzerOptions::default()
        })
        .ctxs(ctxs);
    check(&case, &[Accepts, Sound])
        .runs
        .iter()
        .map(|&(ret, _)| ret)
        .collect()
}

#[test]
fn masked_table_index_program() {
    let rets = contained_returns(
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
        (0u8..=255).map(|byte| vec![byte, 1, 2, 3]),
    );
    for (byte, ret) in (0u8..=255).zip(rets) {
        assert_eq!(ret, u64::from(byte & 7));
    }
}

#[test]
fn branchy_arith_program() {
    let bytes = [0u8, 1, 7, 8, 100, 255];
    let rets = contained_returns(
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
        bytes.map(|byte| vec![byte; 8]),
    );
    for (byte, ret) in bytes.into_iter().zip(rets) {
        let tripled = u64::from(byte) * 3;
        assert_eq!(ret, if tripled > 300 { 300 } else { tripled + 1 });
    }
}

#[test]
fn spill_and_restore_program() {
    let rets = contained_returns(
        r"
            r2 = *(u8 *)(r1 + 0)
            *(u64 *)(r10 - 8) = r2
            r3 = 0
            r3 = *(u64 *)(r10 - 8)
            r0 = r3
            r0 *= r3
            exit
        ",
        [vec![9, 0, 0, 0]],
    );
    assert_eq!(rets, [81]);
}

#[test]
fn alu32_and_shift_program() {
    let bytes = [0u8, 3, 31, 200];
    let rets = contained_returns(
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
        bytes.map(|byte| vec![byte, 0, 0, 0]),
    );
    for (byte, ret) in bytes.into_iter().zip(rets) {
        let want = u64::from(u32::from(byte).wrapping_mul(41)) + (1u64 << (byte & 3));
        assert_eq!(ret, want);
    }
}

#[test]
fn bounded_loop_filter_program() {
    // A counted filter loop: sum the first 8 packet bytes through a stack
    // staging buffer, bounded by its own exit test.
    let fills = [0u8, 1, 77, 255];
    let rets = contained_returns(
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
        fills.map(|fill| vec![fill; 8]),
    );
    for (fill, ret) in fills.into_iter().zip(rets) {
        assert_eq!(ret, u64::from(fill) * 8);
    }
}

#[test]
fn every_verified_program_runs_without_fault() {
    // Acceptance implies fault-free (and contained) execution on
    // arbitrary contexts — the verifier's whole job.
    let corpus = [
        "r0 = 0\nexit",
        "r2 = *(u8 *)(r1 + 0)\nr2 &= 62\nr3 = r1\nr3 += r2\nr0 = *(u8 *)(r3 + 0)\nexit",
        "r2 = *(u8 *)(r1 + 0)\nif r2 s> 100 goto +2\nr0 = 1\nexit\nr0 = 2\nexit",
        "*(u64 *)(r10 - 8) = 1\n*(u64 *)(r10 - 16) = 2\nr0 = *(u64 *)(r10 - 16)\nexit",
        "r2 = *(u8 *)(r1 + 0)\nr2 %= 8\nr3 = r10\nr3 -= 8\nr3 += r2\nr0 = 0\nexit",
    ];
    for src in corpus {
        contained_returns(src, [0u8, 1, 63, 255].map(|fill| vec![fill; 64]));
    }
}

#[test]
fn rejected_programs_do_fault_concretely() {
    // The complement: a program rejected for memory safety really can
    // fault when run unchecked.
    let case = Case::asm(
        r"
        r2 = *(u8 *)(r1 + 0)
        r3 = r10
        r3 -= 8
        r3 += r2          ; unbounded index
        r0 = *(u8 *)(r3 + 0)
        exit
    ",
    );
    check(&case, &[Rejects]);
    // With a large enough byte the unchecked access goes out of bounds.
    assert!(Vm::new().run(&case.prog, &mut [200u8; 4]).is_err());
}

#[test]
fn strict_alignment_end_to_end() {
    let case = Case::asm(
        r"
        r2 = *(u8 *)(r1 + 0)
        r2 &= 56           ; multiples of 8 up to 56
        r3 = r10
        r3 += -64
        r3 += r2
        *(u64 *)(r3 + 0) = 7
        r0 = 0
        exit
    ",
    )
    .options(AnalyzerOptions {
        strict_alignment: true,
        ..AnalyzerOptions::default()
    })
    .ctxs((0u8..=255).map(|byte| vec![byte, 0, 0, 0]));
    check(&case, &[Accepts, Sound]);
}
