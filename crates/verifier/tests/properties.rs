//! Randomized property tests for the verifier's scalar reduced product,
//! branch refinement at full width, and the `AbsState` inclusion order
//! that path-sensitive pruning leans on, driven by the workspace's
//! deterministic SplitMix64 stream.

// Explicit BPF division semantics (`x / 0 = 0`, `x % 0 = x`) throughout.
#![allow(clippy::manual_checked_ops)]
use domain::rng::SplitMix64;
use ebpf::{AluOp, JmpOp, Reg, Width};
use tnum::Tnum;
use verifier::{AbsState, RegValue, Scalar, StackSlot};

const CASES: u32 = 256;

/// A random scalar abstraction together with a member.
fn scalar_and_member(rng: &mut SplitMix64) -> (Scalar, u64) {
    let t = Tnum::masked(rng.next_u64(), rng.next_u64());
    let x = t.value() | (rng.next_u64() & t.mask());
    (Scalar::from_tnum(t), x)
}

fn concrete_alu(width: Width, op: AluOp, x: u64, y: u64) -> u64 {
    match width {
        Width::W64 => match op {
            AluOp::Add => x.wrapping_add(y),
            AluOp::Sub => x.wrapping_sub(y),
            AluOp::Mul => x.wrapping_mul(y),
            AluOp::Div => {
                if y == 0 {
                    0
                } else {
                    x / y
                }
            }
            AluOp::Mod => {
                if y == 0 {
                    x
                } else {
                    x % y
                }
            }
            AluOp::Or => x | y,
            AluOp::And => x & y,
            AluOp::Xor => x ^ y,
            AluOp::Lsh => x.wrapping_shl(y as u32 & 63),
            AluOp::Rsh => x.wrapping_shr(y as u32 & 63),
            AluOp::Arsh => ((x as i64).wrapping_shr(y as u32 & 63)) as u64,
            AluOp::Neg => x.wrapping_neg(),
            AluOp::Mov => y,
        },
        Width::W32 => {
            let (a, b) = (x as u32, y as u32);
            u64::from(match op {
                AluOp::Add => a.wrapping_add(b),
                AluOp::Sub => a.wrapping_sub(b),
                AluOp::Mul => a.wrapping_mul(b),
                AluOp::Div => {
                    if b == 0 {
                        0
                    } else {
                        a / b
                    }
                }
                AluOp::Mod => {
                    if b == 0 {
                        a
                    } else {
                        a % b
                    }
                }
                AluOp::Or => a | b,
                AluOp::And => a & b,
                AluOp::Xor => a ^ b,
                AluOp::Lsh => a.wrapping_shl(b & 31),
                AluOp::Rsh => a.wrapping_shr(b & 31),
                AluOp::Arsh => ((a as i32).wrapping_shr(b & 31)) as u32,
                AluOp::Neg => a.wrapping_neg(),
                AluOp::Mov => b,
            })
        }
    }
}

#[test]
fn scalar_alu_sound() {
    let mut rng = SplitMix64::new(0x40);
    for _ in 0..CASES {
        let (a, x) = scalar_and_member(&mut rng);
        let (b, y) = scalar_and_member(&mut rng);
        for op in AluOp::ALL {
            for width in [Width::W64, Width::W32] {
                let r = a.alu(width, op, b);
                let z = concrete_alu(width, op, x, y);
                assert!(
                    r.contains(z),
                    "{op:?}/{width:?}: {x} op {y} = {z} not in {r:?}"
                );
            }
        }
    }
}

#[test]
fn normalize_keeps_members() {
    let mut rng = SplitMix64::new(0x41);
    for _ in 0..CASES {
        let (a, x) = scalar_and_member(&mut rng);
        let n = a.normalize().expect("non-empty");
        assert!(n.contains(x));
    }
}

#[test]
fn union_keeps_members() {
    let mut rng = SplitMix64::new(0x42);
    for _ in 0..CASES {
        let (a, x) = scalar_and_member(&mut rng);
        let (b, y) = scalar_and_member(&mut rng);
        let j = a.union(b);
        assert!(j.contains(x));
        assert!(j.contains(y));
        assert!(a.is_subset_of(j));
        assert!(b.is_subset_of(j));
    }
}

#[test]
fn intersect_keeps_common_members() {
    let mut rng = SplitMix64::new(0x43);
    for _ in 0..CASES {
        let (a, x) = scalar_and_member(&mut rng);
        let (b, _) = scalar_and_member(&mut rng);
        match a.intersect(b) {
            Some(m) => {
                if b.contains(x) {
                    assert!(m.contains(x));
                }
            }
            None => assert!(!b.contains(x) || !a.contains(x)),
        }
    }
}

#[test]
fn branch_refinement_sound() {
    let mut rng = SplitMix64::new(0x44);
    for _ in 0..CASES {
        let (a, x) = scalar_and_member(&mut rng);
        let (b, y) = scalar_and_member(&mut rng);
        // Whatever the concrete comparison outcome, the corresponding
        // refined edge must keep the witnessing pair (and hence must not
        // be reported infeasible).
        for op in JmpOp::ALL {
            let taken = op.eval64(x, y);
            match verifier::refine_branch(op, taken, a, b) {
                Some((d, s)) => {
                    assert!(d.contains(x), "{op:?}/{taken}: lost dst {x}");
                    assert!(s.contains(y), "{op:?}/{taken}: lost src {y}");
                }
                None => panic!("{op:?}/{taken}: feasible edge refined to bottom"),
            }
        }
    }
}

#[test]
fn branch_refinement_shrinks_or_keeps() {
    let mut rng = SplitMix64::new(0x45);
    for _ in 0..CASES {
        let (a, _) = scalar_and_member(&mut rng);
        let (b, _) = scalar_and_member(&mut rng);
        // Refinement never widens either side.
        for op in JmpOp::ALL {
            for taken in [false, true] {
                if let Some((d, s)) = verifier::refine_branch(op, taken, a, b) {
                    assert!(d.is_subset_of(a), "{op:?}/{taken} widened dst");
                    assert!(s.is_subset_of(b), "{op:?}/{taken} widened src");
                }
            }
        }
    }
}

// ---- `AbsState::is_subset_of`: the pruning soundness argument ----
//
// The path-sensitive explorer discards a branch state the moment it is
// included in an already-explored one, so `is_subset_of` must be a real
// abstract order: reflexive, absorbed by `union`, and — the load-bearing
// half — it must imply *concrete-state containment*: every concrete
// register/stack assignment the pruned state admits, the covering state
// admits too (otherwise pruning would skip genuinely new behaviour).

/// Registers the random-state generator populates.
const STATE_REGS: [Reg; 5] = [Reg::R0, Reg::R3, Reg::R4, Reg::R6, Reg::R9];

/// Stack offsets (one per distinct slot) the generator populates.
const STATE_SLOTS: [i64; 3] = [-8, -16, -24];

/// Sampled concrete members of a random state: one witness value per
/// scalar register and per tracked spill slot.
type Members = (Vec<(Reg, u64)>, Vec<(i64, u64)>);

/// `a ⊔ b`: `b` flowed into a copy of `a`.
fn join(a: &AbsState, b: &AbsState) -> AbsState {
    let mut j = a.clone();
    j.flow_join(b, None);
    j
}

/// A random abstract state together with its sampled concrete members.
fn state_and_members(rng: &mut SplitMix64) -> (AbsState, Members) {
    let mut state = AbsState::entry();
    let mut reg_members = Vec::new();
    for reg in STATE_REGS {
        match rng.below(4) {
            0 => {} // stays Uninit
            1 => {
                let (s, x) = scalar_and_member(rng);
                state.set_reg(reg, RegValue::Scalar(s));
                reg_members.push((reg, x));
            }
            2 => {
                let (offset, _) = scalar_and_member(rng);
                state.set_reg(reg, RegValue::StackPtr { offset });
            }
            _ => {
                let (offset, _) = scalar_and_member(rng);
                state.set_reg(reg, RegValue::CtxPtr { offset });
            }
        }
    }
    let mut slot_members = Vec::new();
    for off in STATE_SLOTS {
        match rng.below(3) {
            0 => {} // stays Uninit
            1 => {
                state.set_stack_slot(off, StackSlot::Misc);
            }
            _ => {
                let (s, x) = scalar_and_member(rng);
                state.set_stack_slot(off, StackSlot::Spill(RegValue::Scalar(s)));
                slot_members.push((off, x));
            }
        }
    }
    (state, (reg_members, slot_members))
}

#[test]
fn state_inclusion_is_reflexive_and_union_absorbed() {
    let mut rng = SplitMix64::new(0x50);
    for _ in 0..CASES {
        let (a, _) = state_and_members(&mut rng);
        let (b, _) = state_and_members(&mut rng);
        assert!(a.is_subset_of(&a), "reflexivity");
        let j = join(&a, &b);
        assert!(a.is_subset_of(&j), "a below a ⊔ b");
        assert!(b.is_subset_of(&j), "b below a ⊔ b");
        // Absorption: joining an included state changes nothing (up to
        // mutual inclusion) — re-processing a pruned arrival would be
        // pure waste, which is exactly why pruning is safe to do.
        let jj = join(&j, &a);
        assert!(jj.is_subset_of(&j) && j.is_subset_of(&jj), "absorption");
    }
}

#[test]
fn state_inclusion_implies_concrete_containment() {
    let mut rng = SplitMix64::new(0x51);
    for _ in 0..CASES {
        let (a, (reg_members, slot_members)) = state_and_members(&mut rng);
        let (c, _) = state_and_members(&mut rng);
        // `b` is a constructed superset (how visited-table covers arise:
        // the covering state saw at least everything the arrival did).
        let b = join(&a, &c);
        assert!(a.is_subset_of(&b));
        // Every sampled concrete register value of `a` is admitted by
        // `b`: either b tracks a scalar that contains it, or b gave the
        // register up entirely (Uninit — the top of the safety order,
        // which only *forbids* reads and so admits any concrete value).
        for &(reg, x) in &reg_members {
            match b.reg(reg) {
                RegValue::Uninit => {}
                RegValue::Scalar(s) => {
                    assert!(s.contains(x), "{reg}: member {x:#x} escapes cover")
                }
                other => panic!("{reg}: scalar joined into pointer {other:?}"),
            }
        }
        // Same for spilled stack slots: Spill must still contain the
        // member; Misc ("some initialized bytes") and Uninit admit any.
        for &(off, x) in &slot_members {
            match b.stack_slot(off).expect("in frame") {
                StackSlot::Uninit | StackSlot::Misc => {}
                StackSlot::Spill(RegValue::Scalar(s)) => {
                    assert!(s.contains(x), "slot {off}: member {x:#x} escapes cover")
                }
                StackSlot::Spill(other) => {
                    panic!("slot {off}: scalar spill joined into {other:?}")
                }
            }
        }
    }
}

#[test]
fn subreg_contains_low_half() {
    let mut rng = SplitMix64::new(0x46);
    for _ in 0..CASES {
        let (a, x) = scalar_and_member(&mut rng);
        assert!(a.subreg().contains(x & 0xffff_ffff));
    }
}

// ---- Fingerprints: soundness of the O(1) equality reject ----
//
// The visited table dismisses probe candidates whose fingerprint differs
// from the arrival's without running the pointwise comparison. That is
// sound exactly when fingerprint inequality implies state inequality —
// equivalently (contrapositive), when equal states always fingerprint
// equally, regardless of the write history that produced them.

#[test]
fn fingerprint_inequality_implies_state_inequality() {
    let mut rng = SplitMix64::new(0xF1A9);
    for _ in 0..CASES {
        // Two random states: the fingerprint comparison must never
        // contradict structural equality in either direction.
        let (a, _) = state_and_members(&mut rng);
        let (b, _) = state_and_members(&mut rng);
        if a.fingerprint() != b.fingerprint() {
            assert_ne!(a, b, "fingerprint mismatch on equal states");
        }
        if a == b {
            assert_eq!(a.fingerprint(), b.fingerprint());
        }
    }
}

#[test]
fn equal_states_fingerprint_equally_across_histories() {
    // The same contents reached through different write orders,
    // overwrites, clone-then-materialize chains, and joins must
    // fingerprint identically — the incremental maintenance may never
    // depend on history.
    let mut rng = SplitMix64::new(0xF1B0);
    for _ in 0..CASES {
        let (target, _) = state_and_members(&mut rng);
        // Rebuild the same contents in shuffled order with decoy writes.
        let mut rebuilt = AbsState::entry();
        for &reg in STATE_REGS.iter().rev() {
            let (decoy, _) = scalar_and_member(&mut rng);
            rebuilt.set_reg(reg, RegValue::Scalar(decoy));
        }
        for &off in &STATE_SLOTS {
            rebuilt.set_stack_slot(off, StackSlot::Misc);
        }
        for &off in STATE_SLOTS.iter().rev() {
            rebuilt.set_stack_slot(off, target.stack_slot(off).unwrap());
        }
        for &reg in &STATE_REGS {
            rebuilt.set_reg(reg, target.reg(reg));
        }
        assert_eq!(rebuilt, target);
        assert_eq!(
            rebuilt.fingerprint(),
            target.fingerprint(),
            "history-dependent fingerprint"
        );
        // A materialized clone keeps the fingerprint of its contents.
        let mut cloned = target.clone();
        cloned.set_reg(Reg::R3, RegValue::unknown_scalar());
        cloned.set_reg(Reg::R3, target.reg(Reg::R3));
        assert_eq!(cloned.fingerprint(), target.fingerprint());
        // Self-join is a no-op on contents, hence on the fingerprint.
        assert_eq!(join(&target, &target).fingerprint(), target.fingerprint());
    }
}

// ---- Chunked frames: bit-identical to whole-frame semantics ----
//
// The stack frame is stored as 8 copy-on-write chunks of 8 slots. The
// reference model below is the *old* whole-frame semantics: a flat
// 64-slot array with every lattice operation applied pointwise. The
// chunked representation must be observationally identical, slot for
// slot, on every operation — chunk routing, boundary straddling, and
// per-chunk short-circuits may never change a result.

/// All well-formed tnums of width `w` (value and mask within the low
/// `w` bits, no overlap): the 3^w patterns of the exhaustive campaigns.
fn tnums_of_width(w: u32) -> Vec<Tnum> {
    let top = 1u64 << w;
    let mut out = Vec::new();
    for value in 0..top {
        for mask in 0..top {
            if value & mask == 0 {
                out.push(Tnum::masked(value, mask));
            }
        }
    }
    out
}

/// The whole-frame reference for one slot of [`AbsState::flow_join`]:
/// mirror of the engine's per-component flow (skip included arrivals,
/// otherwise join, with optional delay-0 widening).
fn flat_flow(cur: StackSlot, inc: StackSlot, widen: bool) -> StackSlot {
    if inc == cur || inc.is_subset_of(cur) {
        return cur;
    }
    let grown = cur.union(inc);
    if widen {
        cur.widen(grown)
    } else {
        grown
    }
}

/// Offset of flat slot index `i` (0..64), covering both chunk interiors
/// and boundaries.
fn slot_offset(i: usize) -> i64 {
    (i as i64) * 8 - 512
}

#[test]
fn chunked_frame_matches_flat_model_exhaustively() {
    // Exhaustive w ≤ 6 slot campaign: every pair of width-≤6 tnum spills
    // (3^6 = 729 patterns, 531 441 ordered pairs) flows through
    // union / inclusion / join-flow / widen at the *state* level, packed
    // 64 pairs per state so chunk boundaries and interiors are both
    // exercised, and every slot of the result is compared against the
    // flat whole-frame model.
    let tnums = tnums_of_width(6);
    let pairs: Vec<(StackSlot, StackSlot)> = tnums
        .iter()
        .flat_map(|&a| {
            tnums.iter().map(move |&b| {
                (
                    StackSlot::Spill(RegValue::Scalar(Scalar::from_tnum(a))),
                    StackSlot::Spill(RegValue::Scalar(Scalar::from_tnum(b))),
                )
            })
        })
        .collect();
    // Sprinkle the non-spill variants into the stream at a fixed cadence
    // so Uninit/Misc routing is part of the same campaign.
    let variant = |slot: StackSlot, k: usize| match k % 16 {
        3 => StackSlot::Uninit,
        11 => StackSlot::Misc,
        _ => slot,
    };
    for (batch_idx, batch) in pairs.chunks(64).enumerate() {
        let mut a = AbsState::entry();
        let mut b = AbsState::entry();
        for (i, &(sa, sb)) in batch.iter().enumerate() {
            a.set_stack_slot(slot_offset(i), variant(sa, batch_idx + i));
            b.set_stack_slot(slot_offset(i), variant(sb, batch_idx + i + 7));
        }
        let widened = a.widen(&b);
        let flowed = join(&a, &b);
        let mut subset_expected = true;
        for (i, &(sa, sb)) in batch.iter().enumerate() {
            let (sa, sb) = (variant(sa, batch_idx + i), variant(sb, batch_idx + i + 7));
            let off = slot_offset(i);
            assert_eq!(
                flowed.stack_slot(off).unwrap(),
                sa.union(sb),
                "slot {i}: chunked union diverges from flat model"
            );
            assert_eq!(
                flowed.stack_slot(off).unwrap(),
                flat_flow(sa, sb, false),
                "slot {i}: chunked flow-join diverges from flat model"
            );
            assert_eq!(
                widened.stack_slot(off).unwrap(),
                flat_flow(sa, sb, true),
                "slot {i}: chunked widening diverges from flat model"
            );
            subset_expected &= sa.is_subset_of(sb);
        }
        assert_eq!(
            a.is_subset_of(&b),
            subset_expected,
            "chunked inclusion diverges from the flat conjunction"
        );
    }
}

#[test]
fn chunked_frame_matches_flat_model_on_random_op_sequences() {
    // Randomized mirror-model test: a chunked state and a flat 64-slot
    // array absorb the same random writes, smears, and merges; after
    // every step all 64 observable slots must agree. Smear ranges are
    // drawn to straddle chunk boundaries as often as not.
    const SLOT_COUNT: usize = 64;
    let mut rng = SplitMix64::new(0xC4B7);
    for _ in 0..64 {
        let mut state = AbsState::entry();
        let mut flat = [StackSlot::Uninit; SLOT_COUNT];
        for _ in 0..48 {
            match rng.below(4) {
                0 => {
                    let i = rng.below(SLOT_COUNT as u64) as usize;
                    let (s, _) = scalar_and_member(&mut rng);
                    let slot = StackSlot::Spill(RegValue::Scalar(s));
                    state.set_stack_slot(slot_offset(i), slot);
                    flat[i] = slot;
                }
                1 => {
                    // A byte-granular smear across up to 4 chunks.
                    let start = -(rng.range(1, 512) as i64);
                    let len = rng.range(1, 256) as i64;
                    let end = (start + len).min(0);
                    state.smear_stack(start, end);
                    for (i, slot) in flat.iter_mut().enumerate() {
                        let lo = slot_offset(i);
                        if lo < end && lo + 8 > (start & !7) {
                            *slot = StackSlot::Misc;
                        }
                    }
                }
                2 => {
                    // Merge with a random partner, mirrored flatly.
                    let (partner, _) = state_and_members(&mut rng);
                    let widen = rng.coin();
                    for (i, slot) in flat.iter_mut().enumerate() {
                        let p = partner.stack_slot(slot_offset(i)).unwrap();
                        *slot = flat_flow(*slot, p, widen);
                    }
                    if widen {
                        state = state.widen(&partner);
                    } else {
                        state.flow_join(&partner, None);
                    }
                }
                _ => {
                    // Clone-and-diverge: copy-on-write must isolate the
                    // original from writes through the clone.
                    let mut fork = state.clone();
                    let i = rng.below(SLOT_COUNT as u64) as usize;
                    fork.set_stack_slot(slot_offset(i), StackSlot::Misc);
                }
            }
            for (i, &expected) in flat.iter().enumerate() {
                assert_eq!(
                    state.stack_slot(slot_offset(i)).unwrap(),
                    expected,
                    "slot {i} diverged from the flat model"
                );
            }
        }
        // The range-initialization view agrees with the flat model too.
        for _ in 0..8 {
            let start = -(rng.range(1, 512) as i64);
            let end = (start + rng.range(1, 128) as i64).min(0);
            let expect = (0..SLOT_COUNT).all(|i| {
                let lo = slot_offset(i);
                if lo < end && lo + 8 > (start & !7) {
                    flat[i].is_initialized()
                } else {
                    true
                }
            });
            assert_eq!(
                state.stack_range_initialized(start, end),
                expect,
                "range [{start}, {end}) initialization diverged"
            );
        }
    }
}
