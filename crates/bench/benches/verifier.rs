//! Benchmarks of the end-to-end substrate: the `Scalar` reduced product
//! every transfer and join goes through, the path walk's per-pc report
//! fold, then assembling, verifying (with and without branch
//! refinement, the `AnalyzerOptions::refine_branches` ablation), and
//! concretely executing representative programs.
//!
//! Run with: `cargo bench -p bench --bench verifier`

use std::hint::black_box;

use bench::harness::Group;
use ebpf::asm::assemble;
use ebpf::{Program, Reg, Vm};
use interval_domain::{Bounds, UInterval};
use tnum::Tnum;
use verifier::{AbsState, AnalyzerOptions, RegValue, Scalar, StackSlot, VerificationSession};

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

/// The `Scalar` layer (tnum × bounds): the joins the explorers' reports
/// and merge points run, the reduction every transfer ends with, and the
/// inclusion test behind pruning.
fn bench_scalar_product() {
    let range = |lo, hi| {
        Scalar::from_parts(
            Tnum::UNKNOWN,
            Bounds::from_unsigned(UInterval::new(lo, hi).unwrap()),
        )
        .unwrap()
    };
    // A loop counter's report growing by one trip, and two values that
    // share nothing but their width.
    let counter = range(0, 12);
    let next = Scalar::constant(13);
    let masked = Scalar::from_tnum("x1x0".parse().unwrap());
    let wide = range(100, 200);
    // Two transfer results before their reduction: `r &= 0b110` on an
    // unknown byte, already reduced (most transfers are), and `r -= 1`
    // on a counter in [1, 12], whose tnum the borrow turns to ⊤ and one
    // round recovers from the bounds.
    let byte = Scalar::from_tnum(Tnum::masked(0, 0xff));
    let mask = Scalar::constant(0b110);
    let and_raw = Scalar::raw(
        byte.tnum().and(mask.tnum()),
        byte.bounds().and(mask.bounds()),
    );
    let one = Scalar::constant(1);
    let count = range(1, 12);
    let sub_raw = Scalar::raw(
        count.tnum().sub(one.tnum()),
        count.bounds().sub(one.bounds()),
    );
    let mut group = Group::new("scalar_product");
    group.bench("union/grow_by_one", || {
        black_box(counter).union(black_box(next))
    });
    group.bench("union/unrelated", || {
        black_box(masked).union(black_box(wide))
    });
    group.bench("normalize/reduced", || black_box(counter).normalize());
    group.bench("normalize/alu_and_result", || {
        black_box(and_raw).normalize()
    });
    group.bench("normalize/alu_sub_result", || {
        black_box(sub_raw).normalize()
    });
    group.bench("is_subset_of", || {
        black_box(next).is_subset_of(black_box(counter))
    });
    group.finish();
}

/// The path walk's per-pc report: the arrivals of one 64-trip loop at
/// its body, where each trip changes three registers and one stack slot
/// and shares the rest with the trip before. Folded through
/// `flow_join` (a reduced join per arrival) and through `join_all` (the
/// walk's accumulator: raw joins, one reduction at the end); each row
/// is one whole fold of 63 joins.
fn bench_report_absorb() {
    let mut trip = AbsState::entry();
    for r in [Reg::R6, Reg::R7, Reg::R8] {
        trip.set_reg(r, RegValue::Scalar(Scalar::constant(0)));
    }
    let mut arrivals = vec![trip.clone()];
    for t in 1..64u64 {
        trip.set_reg(Reg::R6, RegValue::Scalar(Scalar::constant(t)));
        trip.set_reg(Reg::R7, RegValue::Scalar(Scalar::constant(2 * t)));
        trip.set_reg(Reg::R8, RegValue::Scalar(Scalar::constant(t * t)));
        trip.set_stack_slot(-8, StackSlot::Spill(RegValue::Scalar(Scalar::constant(t))));
        arrivals.push(trip.clone());
    }
    let mut group = Group::new("report_absorb");
    group.bench("flow_join/64_trips", || {
        let mut report = black_box(&arrivals[0]).clone();
        for arrival in &arrivals[1..] {
            report.flow_join(black_box(arrival), None);
        }
        report
    });
    group.bench("join_all/64_trips", || {
        AbsState::join_all(black_box(&arrivals))
    });
    group.finish();
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
    bench_scalar_product();
    bench_report_absorb();
    bench_analyze();
    bench_vm();
    bench_assemble();
}
