//! Control-flow graph construction, back-edge classification, and the
//! weak-topological iteration order of the fixpoint engine.
//!
//! Earlier revisions rejected every cyclic program here, like the
//! pre-5.3 kernel verifier. Loops are now first-class: a depth-first
//! pass computes a reverse postorder (RPO) over the reachable
//! instructions, and every *retreating* edge with respect to that order
//! — an edge from a later to an earlier position, which every cycle must
//! contain — is classified as a back-edge whose target is a **loop
//! head**, the widening point of the fixpoint worklist
//! ([`crate::fixpoint`]). The
//! classic all-loops-rejected behaviour survives behind
//! [`crate::AnalyzerOptions::reject_loops`].

use ebpf::{Insn, Program};

/// The control-flow graph of a program, built once per analysis and
/// shared by the passes and every exploration strategy.
///
/// * **Successors**: at most two per instruction, stored inline (one
///   `[usize; 2]` plus a length each) — fall-through first, then the
///   taken edge.
/// * **Predecessors**: over the reachable subgraph only, in compressed
///   sparse-row form (one offsets array plus one flat list). An edge
///   appears once per occurrence, so `if r1 == 0 goto +0` lists its
///   source twice at the next pc.
/// * **Order**: the reverse postorder (RPO) iteration schedule and each
///   instruction's position in it.
/// * **Loops and checkpoints**: the back edges (retreating in RPO),
///   their targets (the loop heads, where the fixpoint widens), and the
///   checkpoints — loop heads plus merge points with two or more
///   reachable predecessor edges — where the engines clean dead
///   components and the path explorers prune.
#[derive(Clone, Debug)]
pub struct Cfg {
    succs: Vec<[usize; 2]>,
    succ_len: Vec<u8>,
    /// CSR predecessor lists: the predecessors of `pc` are
    /// `pred_list[pred_start[pc]..pred_start[pc + 1]]`.
    pred_start: Vec<usize>,
    pred_list: Vec<usize>,
    rpo: Vec<usize>,
    /// Position of each instruction in `rpo`; `usize::MAX` marks
    /// unreachable instructions.
    rpo_pos: Vec<usize>,
    loop_head: Vec<bool>,
    back_edges: Vec<(usize, usize)>,
}

impl Cfg {
    /// Builds the CFG, classifying back-edges instead of rejecting them.
    #[must_use]
    pub fn build(prog: &Program) -> Cfg {
        let n = prog.len();
        let mut succs = vec![[0; 2]; n];
        let mut succ_len = vec![0u8; n];
        for (i, insn) in prog.insns().iter().enumerate() {
            let (edges, len) = match *insn {
                Insn::Exit => ([0, 0], 0),
                Insn::Ja { off } => ([prog.jump_target(i, off).expect("validated jump"), 0], 1),
                // Fall-through first, then the taken edge.
                Insn::Jmp { off, .. } => (
                    [i + 1, prog.jump_target(i, off).expect("validated jump")],
                    2,
                ),
                _ => ([i + 1, 0], 1),
            };
            succs[i] = edges;
            succ_len[i] = len;
        }
        let succ = |i: usize| &succs[i][..succ_len[i] as usize];

        // Iterative DFS producing a postorder of the reachable subgraph;
        // its reverse is the RPO the worklist iterates in. `rpo_pos`
        // doubles as the visited mark (anything but `usize::MAX`) until
        // the real positions overwrite it. The stack never holds a pc
        // twice, so `n` entries always suffice.
        let mut rpo_pos = vec![usize::MAX; n];
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(usize, usize)> = Vec::with_capacity(n);
        stack.push((0, 0));
        rpo_pos[0] = 0;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&s) = succ(node).get(*next) {
                *next += 1;
                if rpo_pos[s] == usize::MAX {
                    rpo_pos[s] = 0;
                    stack.push((s, 0));
                }
            } else {
                post.push(node);
                stack.pop();
            }
        }
        post.reverse();
        let rpo = post;
        for (pos, &pc) in rpo.iter().enumerate() {
            rpo_pos[pc] = pos;
        }

        // One sweep over the reachable edges counts predecessors and
        // classifies retreating edges w.r.t. the RPO: robust for
        // irreducible CFGs too, and every cycle necessarily contains
        // one, so widening at their targets guarantees termination.
        // `pred_start[pc]` counts `pc`'s predecessor edges first.
        let mut pred_start = vec![0usize; n + 1];
        let mut loop_head = vec![false; n];
        let mut back_edges = Vec::new();
        for &i in &rpo {
            for &s in succ(i) {
                pred_start[s] += 1;
                if rpo_pos[s] <= rpo_pos[i] {
                    loop_head[s] = true;
                    back_edges.push((i, s));
                }
            }
        }
        // Prefix sums turn each count into the end of its list...
        for pc in 1..=n {
            pred_start[pc] += pred_start[pc - 1];
        }
        // ...and filling backwards, in reverse RPO order of the source,
        // moves each end down to its list's start, leaving every list in
        // RPO order of the source.
        let mut pred_list = vec![0; pred_start[n]];
        for &i in rpo.iter().rev() {
            for &s in succ(i) {
                pred_start[s] -= 1;
                pred_list[pred_start[s]] = i;
            }
        }

        Cfg {
            succs,
            succ_len,
            pred_start,
            pred_list,
            rpo,
            rpo_pos,
            loop_head,
            back_edges,
        }
    }

    /// Successor instruction indices of instruction `i`. For conditional
    /// jumps the fall-through edge comes first, then the taken edge.
    /// Used by the path-sensitive explorer to find merge points (its
    /// pruning checkpoints).
    #[must_use]
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succs[i][..self.succ_len[i] as usize]
    }

    /// Reachable predecessors of instruction `pc`, in RPO order of the
    /// source, one entry per edge (a branch whose two edges reach `pc`
    /// appears twice). Empty for the entry unless a back edge targets
    /// it, and for unreachable instructions.
    #[must_use]
    pub fn predecessors(&self, pc: usize) -> &[usize] {
        &self.pred_list[self.pred_start[pc]..self.pred_start[pc + 1]]
    }

    /// Whether paths can re-converge at `pc`: a loop head, or a merge
    /// point with at least two reachable predecessor edges. Checkpoints
    /// are where the engines clean dead components and where the path
    /// explorers probe their visited tables.
    #[must_use]
    pub fn is_checkpoint(&self, pc: usize) -> bool {
        self.loop_head[pc] || self.pred_start[pc + 1] - self.pred_start[pc] > 1
    }

    /// Instructions reachable from the entry, in reverse postorder — a
    /// weak-topological iteration schedule: acyclic regions come in
    /// dependency order, loop bodies after their head.
    #[must_use]
    pub fn rpo(&self) -> &[usize] {
        &self.rpo
    }

    /// The RPO position of instruction `i` — the worklist priority
    /// (`usize::MAX` for unreachable instructions, which are never
    /// queued).
    #[must_use]
    pub fn rpo_pos(&self, i: usize) -> usize {
        self.rpo_pos[i]
    }

    /// Whether instruction `i` is the target of a back-edge — a widening
    /// point of the fixpoint iteration.
    #[must_use]
    pub fn is_loop_head(&self, i: usize) -> bool {
        self.loop_head[i]
    }

    /// Every retreating edge `(from, to)` in RPO terms. Empty exactly for
    /// the loop-free programs the classic verifier accepted.
    #[must_use]
    pub fn back_edges(&self) -> &[(usize, usize)] {
        &self.back_edges
    }

    /// Whether the edge `from → to` of a reachable `from` is a back edge
    /// — an O(1) membership test for [`Cfg::back_edges`].
    #[must_use]
    pub fn is_back_edge(&self, from: usize, to: usize) -> bool {
        self.rpo_pos[to] <= self.rpo_pos[from]
    }
}

/// The priority worklist both solvers iterate with: a set of pending
/// RPO positions that always pops the lowest one.
///
/// A bitset with one bit per position plus a low-water cursor: no
/// pending position lies in a word below `cursor`. Pushing is one
/// bit-or (moving the cursor down when a back edge re-queues an earlier
/// position); pushing a pending position is a no-op. Popping scans
/// forward from the cursor, so the visit order is exactly that of a
/// min-heap of positions with a dedup flag.
#[derive(Debug)]
pub(crate) struct RpoWorklist {
    words: Vec<u64>,
    cursor: usize,
}

impl RpoWorklist {
    /// An empty worklist over positions `0..len`.
    pub(crate) fn new(len: usize) -> RpoWorklist {
        RpoWorklist {
            words: vec![0; len.div_ceil(64)],
            cursor: 0,
        }
    }

    /// A worklist with every position in `0..len` pending.
    pub(crate) fn full(len: usize) -> RpoWorklist {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        if len % 64 != 0 {
            *words.last_mut().expect("len > 0") = (1 << (len % 64)) - 1;
        }
        RpoWorklist { words, cursor: 0 }
    }

    /// Marks position `pos` pending.
    pub(crate) fn push(&mut self, pos: usize) {
        let w = pos / 64;
        self.words[w] |= 1 << (pos % 64);
        self.cursor = self.cursor.min(w);
    }

    /// Removes and returns the lowest pending position.
    pub(crate) fn pop(&mut self) -> Option<usize> {
        while let Some(word) = self.words.get_mut(self.cursor) {
            if *word != 0 {
                let bit = word.trailing_zeros() as usize;
                *word &= *word - 1;
                return Some(self.cursor * 64 + bit);
            }
            self.cursor += 1;
        }
        None
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use domain::rng::SplitMix64;
    use ebpf::asm::assemble;
    use ebpf::{AluOp, JmpOp, MemSize, Reg, Src, Width};

    /// A seeded random program of `len` instructions (the last one
    /// `exit`) for structural tests of the CFG and the passes: forward
    /// and backward jumps, self loops, duplicate edges, early exits,
    /// unreachable code, stack spills and reloads, loads through `r10`
    /// and through derived or reloaded pointers, and helper calls. It
    /// validates as a [`Program`] but need not verify.
    pub(crate) fn random_program(rng: &mut SplitMix64, len: usize) -> Program {
        const REGS: [Reg; 10] = [
            Reg::R0,
            Reg::R1,
            Reg::R2,
            Reg::R3,
            Reg::R4,
            Reg::R5,
            Reg::R6,
            Reg::R7,
            Reg::R8,
            Reg::R9,
        ];
        const SIZES: [MemSize; 4] = [MemSize::B, MemSize::H, MemSize::W, MemSize::DW];
        let pick = |rng: &mut SplitMix64| REGS[rng.below(REGS.len() as u64) as usize];
        let mut insns = Vec::with_capacity(len);
        for i in 0..len - 1 {
            // Jump offsets count from the next instruction (no two-slot
            // `LoadImm64` here, so instructions and slots coincide).
            let off = |rng: &mut SplitMix64| (rng.below(len as u64) as i64 - i as i64 - 1) as i16;
            let stack_off = |rng: &mut SplitMix64| -8 * (1 + rng.below(8) as i16);
            let insn = match rng.below(16) {
                0..=2 => Insn::Jmp {
                    width: if rng.coin() { Width::W64 } else { Width::W32 },
                    op: [JmpOp::Eq, JmpOp::Gt, JmpOp::Lt, JmpOp::Sge][rng.below(4) as usize],
                    dst: pick(rng),
                    src: if rng.coin() {
                        Src::Reg(pick(rng))
                    } else {
                        Src::Imm(rng.below(16) as i32)
                    },
                    off: off(rng),
                },
                3 => Insn::Ja { off: off(rng) },
                4 => Insn::Exit,
                5 | 6 => Insn::Load {
                    size: SIZES[rng.below(4) as usize],
                    dst: pick(rng),
                    base: if rng.coin() { Reg::R10 } else { pick(rng) },
                    off: stack_off(rng),
                },
                7 | 8 => Insn::Store {
                    size: SIZES[rng.below(4) as usize],
                    base: if rng.ratio(3, 4) { Reg::R10 } else { pick(rng) },
                    off: stack_off(rng),
                    src: if rng.coin() {
                        Src::Reg(pick(rng))
                    } else {
                        Src::Imm(0)
                    },
                },
                9 => Insn::Call {
                    helper: rng.below(8) as u32,
                },
                10 => Insn::Alu {
                    width: Width::W64,
                    op: AluOp::Mov,
                    dst: pick(rng),
                    src: Src::Reg(Reg::R10),
                },
                _ => Insn::Alu {
                    width: if rng.ratio(1, 4) {
                        Width::W32
                    } else {
                        Width::W64
                    },
                    op: [AluOp::Mov, AluOp::Add, AluOp::And, AluOp::Sub][rng.below(4) as usize],
                    dst: pick(rng),
                    src: if rng.coin() {
                        Src::Reg(pick(rng))
                    } else {
                        Src::Imm(rng.below(32) as i32 - 16)
                    },
                },
            };
            insns.push(insn);
        }
        insns.push(Insn::Exit);
        Program::new(insns).expect("random programs validate")
    }

    /// The CFG built the obvious way: recursive DFS in successor order,
    /// predecessor lists pushed per edge in RPO order of the source,
    /// back edges as retreating edges, checkpoints as loop heads or
    /// pcs with two or more predecessor edges.
    struct Reference {
        succs: Vec<Vec<usize>>,
        preds: Vec<Vec<usize>>,
        rpo: Vec<usize>,
        back_edges: Vec<(usize, usize)>,
        loop_heads: Vec<bool>,
        checkpoints: Vec<bool>,
    }

    impl Reference {
        fn build(prog: &Program) -> Reference {
            let n = prog.len();
            let succs: Vec<Vec<usize>> = (0..n)
                .map(|i| match prog.insns()[i] {
                    Insn::Exit => vec![],
                    Insn::Ja { off } => vec![prog.jump_target(i, off).unwrap()],
                    Insn::Jmp { off, .. } => vec![i + 1, prog.jump_target(i, off).unwrap()],
                    _ => vec![i + 1],
                })
                .collect();
            fn dfs(pc: usize, succs: &[Vec<usize>], seen: &mut [bool], post: &mut Vec<usize>) {
                seen[pc] = true;
                for &s in &succs[pc] {
                    if !seen[s] {
                        dfs(s, succs, seen, post);
                    }
                }
                post.push(pc);
            }
            let mut post = Vec::new();
            dfs(0, &succs, &mut vec![false; n], &mut post);
            let rpo: Vec<usize> = post.into_iter().rev().collect();
            let pos = |pc: usize| rpo.iter().position(|&p| p == pc).unwrap();
            let mut preds = vec![Vec::new(); n];
            let mut back_edges = Vec::new();
            let mut loop_heads = vec![false; n];
            for &i in &rpo {
                for &s in &succs[i] {
                    preds[s].push(i);
                    if pos(s) <= pos(i) {
                        back_edges.push((i, s));
                        loop_heads[s] = true;
                    }
                }
            }
            let checkpoints = (0..n)
                .map(|pc| loop_heads[pc] || preds[pc].len() > 1)
                .collect();
            Reference {
                succs,
                preds,
                rpo,
                back_edges,
                loop_heads,
                checkpoints,
            }
        }
    }

    #[test]
    fn lean_build_matches_a_naive_reference_on_random_programs() {
        let mut rng = SplitMix64::new(0xCF6_B111D);
        let (mut loops, mut duplicates, mut unreachable) = (0, 0, 0);
        for round in 0..2_000 {
            let len = 2 + rng.below(40) as usize;
            let prog = random_program(&mut rng, len);
            let (cfg, want) = (Cfg::build(&prog), Reference::build(&prog));
            let at = format!("round {round}:\n{}", prog.disassemble());
            assert_eq!(cfg.rpo(), want.rpo, "{at}");
            assert_eq!(cfg.back_edges(), want.back_edges, "{at}");
            for pc in 0..len {
                assert_eq!(cfg.successors(pc), want.succs[pc], "pc {pc}, {at}");
                assert_eq!(cfg.predecessors(pc), want.preds[pc], "pc {pc}, {at}");
                assert_eq!(cfg.is_loop_head(pc), want.loop_heads[pc], "pc {pc}, {at}");
                assert_eq!(cfg.is_checkpoint(pc), want.checkpoints[pc], "pc {pc}, {at}");
                let pos = want.rpo.iter().position(|&p| p == pc);
                assert_eq!(cfg.rpo_pos(pc), pos.unwrap_or(usize::MAX), "pc {pc}, {at}");
                let preds = &want.preds[pc];
                duplicates += usize::from((1..preds.len()).any(|k| preds[k] == preds[k - 1]));
            }
            loops += usize::from(!want.back_edges.is_empty());
            unreachable += usize::from(want.rpo.len() < len);
        }
        // The generator reaches every shape the builder distinguishes.
        assert!(
            loops > 200 && duplicates > 20 && unreachable > 200,
            "{loops} {duplicates} {unreachable}"
        );
    }

    #[test]
    fn straight_line_rpo_is_identity() {
        let prog = assemble("r0 = 1\nr0 += 1\nexit").unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.rpo(), &[0, 1, 2]);
        assert_eq!(cfg.successors(0), &[1]);
        assert!(cfg.successors(2).is_empty());
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn diamond_orders_merge_last() {
        let prog = assemble(
            r"
                r0 = 0
                if r1 == 0 goto other
                r0 = 1
                goto end
            other:
                r0 = 2
            end:
                exit
            ",
        )
        .unwrap();
        let cfg = Cfg::build(&prog);
        let pos = |i: usize| cfg.rpo_pos(i);
        // The merge (exit, index 5) comes after both arms.
        assert!(pos(5) > pos(2) && pos(5) > pos(4));
        // Conditional successors: fall-through then taken.
        assert_eq!(cfg.successors(1), &[2, 4]);
        assert!(cfg.back_edges().is_empty());
    }

    #[test]
    fn back_edges_are_classified_not_rejected() {
        let prog = assemble("loop:\nr0 = 0\nif r1 > 0 goto loop\nexit").unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.back_edges(), &[(1, 0)]);
        assert!(cfg.is_loop_head(0));
        assert!(!cfg.is_loop_head(1));
        // The head precedes its body in the iteration order.
        assert!(cfg.rpo_pos(0) < cfg.rpo_pos(1));

        // A self-loop is its own head.
        let prog = assemble("self:\ngoto self\nexit").unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.back_edges(), &[(0, 0)]);
        assert!(cfg.is_loop_head(0));
    }

    #[test]
    fn unreachable_code_is_not_ordered() {
        let prog = assemble("goto end\nr0 = 9\nend:\nr0 = 0\nexit").unwrap();
        let cfg = Cfg::build(&prog);
        assert!(!cfg.rpo().contains(&1), "dead insn not in rpo");
        assert_eq!(cfg.rpo_pos(1), usize::MAX);
    }

    #[test]
    fn nested_loops_mark_both_heads() {
        let prog = assemble(
            r"
                r0 = 0
            outer:
                r1 = 0
            inner:
                r1 += 1
                if r1 < 4 goto inner
                r0 += 1
                if r0 < 4 goto outer
                exit
            ",
        )
        .unwrap();
        let cfg = Cfg::build(&prog);
        assert!(cfg.is_loop_head(1), "outer head");
        assert!(cfg.is_loop_head(2), "inner head");
        assert_eq!(cfg.back_edges().len(), 2);
    }

    #[test]
    fn diamond_merge_has_two_predecessors() {
        let prog = assemble(
            r"
                r0 = 0
                if r1 == 0 goto other
                r0 = 1
                goto end
            other:
                r0 = 2
            end:
                exit
            ",
        )
        .unwrap();
        let cfg = Cfg::build(&prog);
        // In RPO order of the source: the DFS walks the fall-through arm
        // first, so the taken arm (pc 4) precedes it in RPO.
        assert_eq!(cfg.predecessors(5), &[4, 3]);
        assert!(cfg.is_checkpoint(5), "merge point");
        assert_eq!(cfg.predecessors(0), &[] as &[usize]);
        for pc in 0..5 {
            assert!(!cfg.is_checkpoint(pc), "pc {pc} has one predecessor");
        }
    }

    #[test]
    fn self_loop_is_its_own_predecessor() {
        let prog = assemble(
            "r0 = 0
self:
if r0 > 0 goto self
exit",
        )
        .unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.predecessors(1), &[0, 1]);
        assert!(cfg.is_checkpoint(1));
        assert!(cfg.is_back_edge(1, 1));
        assert!(!cfg.is_back_edge(1, 2));
        assert!(!cfg.is_checkpoint(2));
    }

    #[test]
    fn both_edges_to_one_pc_count_twice() {
        // Fall-through and taken edge both reach pc 1: two predecessor
        // edges, so pc 1 is a checkpoint although it is no loop head.
        let prog = assemble(
            "if r1 == 0 goto +0
r0 = 0
exit",
        )
        .unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.successors(0), &[1, 1]);
        assert_eq!(cfg.predecessors(1), &[0, 0]);
        assert!(!cfg.is_loop_head(1));
        assert!(cfg.is_checkpoint(1));
    }

    #[test]
    fn unreachable_predecessors_are_excluded() {
        // pc 1 is dead; its fall-through into `end` is no reachable edge.
        let prog = assemble(
            "goto end
r0 = 9
end:
r0 = 0
exit",
        )
        .unwrap();
        let cfg = Cfg::build(&prog);
        assert_eq!(cfg.successors(1), &[2]);
        assert_eq!(cfg.predecessors(2), &[0]);
        assert!(!cfg.is_checkpoint(2));
        assert_eq!(cfg.predecessors(1), &[] as &[usize]);
    }

    #[test]
    fn worklist_pops_like_a_deduplicated_min_heap() {
        use domain::rng::SplitMix64;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let mut rng = SplitMix64::new(0x5eed);
        for round in 0..200 {
            let len = 1 + rng.below(300) as usize;
            let (mut list, mut heap, mut queued) = if rng.coin() {
                let heap: BinaryHeap<_> = (0..len).map(Reverse).collect();
                (RpoWorklist::full(len), heap, vec![true; len])
            } else {
                (RpoWorklist::new(len), BinaryHeap::new(), vec![false; len])
            };
            let mut last = 0;
            for _ in 0..4 * len {
                if rng.ratio(1, 2) {
                    // Mostly forward edges from the last pop, sometimes
                    // a back edge to an earlier position.
                    let pos = if rng.ratio(1, 4) {
                        rng.below(last as u64 + 1) as usize
                    } else {
                        rng.range(last as u64, len as u64) as usize
                    };
                    list.push(pos);
                    if !queued[pos] {
                        queued[pos] = true;
                        heap.push(Reverse(pos));
                    }
                } else {
                    let want = heap.pop().map(|Reverse(p)| p);
                    if let Some(p) = want {
                        queued[p] = false;
                        last = p;
                    }
                    assert_eq!(list.pop(), want, "round {round}");
                }
            }
            while let Some(Reverse(p)) = heap.pop() {
                assert_eq!(list.pop(), Some(p), "round {round} drain");
            }
            assert_eq!(list.pop(), None);
        }
    }
}
