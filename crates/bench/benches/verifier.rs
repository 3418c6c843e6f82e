//! Benchmarks of the end-to-end substrate: assembling, verifying (with
//! and without branch refinement — an ablation from DESIGN.md), and
//! concretely executing representative programs.
//!
//! Run with: `cargo bench -p bench --bench verifier`

use bench::harness::Group;
use ebpf::asm::assemble;
use ebpf::{Program, Vm};
use verifier::{AnalyzerOptions, VerificationSession};

fn sample_programs() -> Vec<(&'static str, Program)> {
    let masked_index = assemble(
        r"
            r2 = *(u8 *)(r1 + 0)
            r2 &= 7
            r3 = r10
            r3 += -16
            r3 += r2
            *(u8 *)(r3 + 0) = 1
            r0 = 0
            exit
        ",
    )
    .unwrap();
    let branchy = assemble(
        r"
            r2 = *(u8 *)(r1 + 0)
            if r2 > 31 goto out
            r3 = r1
            r3 += r2
            r0 = *(u8 *)(r3 + 0)
            r0 *= 3
            if r0 s> 64 goto out
            r0 += 1
            exit
        out:
            r0 = 0
            exit
        ",
    )
    .unwrap();
    let spill_heavy = assemble(
        r"
            r6 = 1
            r7 = 2
            *(u64 *)(r10 - 8) = r6
            *(u64 *)(r10 - 16) = r7
            *(u64 *)(r10 - 24) = r6
            *(u64 *)(r10 - 32) = r7
            r0 = *(u64 *)(r10 - 8)
            r1 = *(u64 *)(r10 - 16)
            r0 += r1
            r1 = *(u64 *)(r10 - 24)
            r0 += r1
            r1 = *(u64 *)(r10 - 32)
            r0 += r1
            exit
        ",
    )
    .unwrap();
    vec![
        ("masked_index", masked_index),
        ("branchy", branchy),
        ("spill_heavy", spill_heavy),
    ]
}

fn bench_analyze() {
    let programs = sample_programs();
    let mut group = Group::new("verifier_analyze");
    for (name, prog) in &programs {
        let refined = VerificationSession::new().with_options(AnalyzerOptions::default());
        group.bench(&format!("refined/{name}"), || refined.run(prog).is_ok());
        let unrefined = VerificationSession::new().with_options(AnalyzerOptions {
            refine_branches: false,
            ..AnalyzerOptions::default()
        });
        group.bench(&format!("unrefined/{name}"), || unrefined.run(prog).is_ok());
    }
    group.finish();
}

fn bench_vm() {
    let programs = sample_programs();
    let mut group = Group::new("vm_execute");
    for (name, prog) in &programs {
        let mut vm = Vm::new();
        let mut ctx = [7u8; 64];
        group.bench(name, || vm.run(prog, &mut ctx).unwrap());
    }
    group.finish();
}

fn bench_assemble() {
    let source = sample_programs()
        .into_iter()
        .map(|(_, p)| p.disassemble())
        .collect::<Vec<_>>()
        .join("");
    let mut group = Group::new("assemble");
    group.bench("assemble_30_insns", || assemble(&source).unwrap());
    group.finish();
}

fn main() {
    bench_analyze();
    bench_vm();
    bench_assemble();
}
