//! End-to-end demo (experiment E10): the analyzer proves a packet-filter
//! style program memory-safe using tnum reasoning, then the concrete VM
//! executes it — and a buggy variant is rejected before it can run.
//!
//! The program reads an untrusted byte from the packet (context), masks
//! it, and uses it to index a 16-byte scratch table on the stack —
//! exactly the §I scenario where tnums let the analyzer conclude
//! `index <= 8` and accept the access.
//!
//! Run with: `cargo run --example packet_filter`

use ebpf::asm::assemble;
use ebpf::{Reg, Vm};
use verifier::{AnalyzerOptions, VerificationSession};

const FILTER: &str = r"
    ; classify packets by a masked header byte; count into a stack table
    r6 = r1                     ; save packet pointer
    r2 = *(u8 *)(r6 + 0)        ; untrusted byte
    r2 &= 14                    ; tnum 0000xxx0 -> r2 in {0,2,...,14}
    r3 = r10
    r3 += -16                   ; 16-byte table at [r10-16, r10)
    r3 += r2                    ; provably within the table
    *(u8 *)(r3 + 0) = 1         ; mark the bucket
    r0 = *(u8 *)(r6 + 1)        ; verdict byte
    if r0 > 1 goto drop
    exit                        ; accept (0/1 from the packet)
drop:
    r0 = 0
    exit
";

const BUGGY: &str = r"
    ; same program without the mask: the index is unbounded
    r6 = r1
    r2 = *(u8 *)(r6 + 0)
    r3 = r10
    r3 += -16
    r3 += r2
    *(u8 *)(r3 + 0) = 1
    r0 = 0
    exit
";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let prog = assemble(FILTER)?;
    println!(
        "program ({} instructions):\n{}",
        prog.len(),
        prog.disassemble()
    );

    // --- Static analysis -------------------------------------------------
    let analyzer = VerificationSession::new().with_options(AnalyzerOptions::default());
    let analysis = analyzer.run(&prog)?;
    println!("verifier: ACCEPTED");

    // Inspect what the analyzer knew right before the table store (insn 6).
    let state = analysis.state_before(6).expect("reachable");
    println!("\nabstract state before the store:");
    println!("  r2 (masked index) = {}", state.reg(Reg::new(2).unwrap()));
    println!("  r3 (table slot)   = {}", state.reg(Reg::new(3).unwrap()));

    // The full verifier log, kernel-verbose style.
    println!("\nannotated analysis:\n{}", analysis.annotate(&prog));

    // --- The buggy variant is rejected -----------------------------------
    let buggy = assemble(BUGGY)?;
    let err = analyzer.run(&buggy).expect_err("must be rejected");
    println!("\nbuggy variant: REJECTED — {err}");

    // --- Concrete execution ----------------------------------------------
    let mut vm = Vm::new();
    println!("\nconcrete runs:");
    for byte in [0u8, 7, 14, 255] {
        let mut packet = [byte, (byte % 2 == 0) as u8, 0, 0];
        let verdict = vm.run(&prog, &mut packet)?;
        println!(
            "  packet[0]={byte:>3} -> verdict {verdict}, table bucket {} marked",
            byte & 14
        );
    }

    println!("\npacket_filter OK");
    Ok(())
}
