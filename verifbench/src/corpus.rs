//! Seeded known-answer corpora.
//!
//! Every program is generated from `(seed, index)` alone, is safe or
//! unsafe *by construction* (a masked index inside its window vs one
//! that reaches one byte past it, a NULL-checked vs an unchecked map
//! value, an initialized vs a never-written stack slot), and is handed
//! on as the bytes `ebpf::Program::to_bytes` produces. The expected
//! verdict is fixed by the generator; it never comes from the verifier
//! under test.
//!
//! Every size parameter (trip counts, body and tail lengths, windows)
//! is drawn from a range, so the per-program latency
//! distribution has no gap between families for a percentile to sit on.

use ebpf::asm::assemble;
use ebpf::Program;

/// SplitMix64, kept inside the benchmark so the corpus never changes
/// with the code under test.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `[lo, hi]` (inclusive).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range {lo}..={hi}");
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() as u64 - 1) as usize]
    }
}

/// The random draws of one program: a stream for its details, a stream
/// for its shape, plus two stratified coordinates in `[0, 1)` for its
/// size parameters. Member `k` of a family of `K` takes stratum `k` on
/// the first axis and stratum `perm(k)` on the second (a seeded Latin
/// hypercube), so every seed covers each size range evenly. The shape
/// stream (which operation, which register) depends on the program's
/// index alone, so the seed only moves details (constants, offsets), not
/// the corpus's overall cost or precision.
pub struct Draw {
    rng: Rng,
    shape: Rng,
    strata: [f64; 2],
}

impl Draw {
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.range(lo, hi)
    }

    pub fn coin(&mut self) -> bool {
        self.rng.coin()
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        self.rng.pick(items)
    }

    /// A structural choice in `[lo, hi]`, the same under every seed.
    pub fn shape_range(&mut self, lo: u64, hi: u64) -> u64 {
        self.shape.range(lo, hi)
    }

    /// A structural pick, the same under every seed.
    pub fn shape_pick<T: Copy>(&mut self, items: &[T]) -> T {
        self.shape.pick(items)
    }

    /// A size in `[lo, hi]` from stratified coordinate `axis`.
    fn size(&self, axis: usize, lo: u64, hi: u64) -> u64 {
        lo + ((self.strata[axis] * (hi - lo + 1) as f64) as u64).min(hi - lo)
    }
}

/// The benchmark's workloads; see `DESIGN.md` for why each was chosen.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    CorpusFixpoint,
    DeepPath,
}

/// The defect an unsafe program plants, and so the error class the
/// verifier must reject it with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Defect {
    /// A stack or map-value access reaching one byte past its region.
    OutOfBounds,
    /// A map value dereferenced without a NULL check.
    NullMapValue,
    /// A read of a stack slot no path writes: a fill, or a helper's key.
    UninitStackRead,
}

/// A program's known answer, fixed by its generator.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Answer {
    Accept,
    Reject(Defect),
}

impl Answer {
    pub fn safe(self) -> bool {
        self == Answer::Accept
    }

    /// `Accept` when `safe`, else a rejection for `defect`.
    fn of(safe: bool, defect: Defect) -> Answer {
        if safe {
            Answer::Accept
        } else {
            Answer::Reject(defect)
        }
    }
}

/// A program generator: `(rng, safe) -> (assembly, answer)`.
type Gen = fn(&mut Draw, bool) -> (String, Answer);

/// The loop-free and short-loop families of the kernel load path.
const LOAD_PATH: &[(&str, Gen)] = &[
    ("filter", filter),
    ("alu", alu),
    ("loop", short_loop),
    ("map", map_lookup),
];

/// The loop-heavy families of the path-sensitive explorer.
const LOOP_HEAVY: &[(&str, Gen)] = &[
    ("memset", deep_memset),
    ("spill", spill_loop),
    ("two_back_edge", two_back_edge),
    ("dead_scratch", dead_scratch),
    ("map_update", map_update_loop),
];

/// Every `UNSAFE_EVERY`-th program of each family is unsafe.
pub const UNSAFE_EVERY: usize = 8;

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::CorpusFixpoint, Workload::DeepPath];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CorpusFixpoint => "corpus_fixpoint",
            Workload::DeepPath => "deep_path",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Programs per corpus: one round verifies each once.
    pub fn corpus_size(self) -> usize {
        match self {
            Workload::CorpusFixpoint => 1024,
            Workload::DeepPath => 320,
        }
    }

    fn families(self) -> &'static [(&'static str, Gen)] {
        match self {
            Workload::CorpusFixpoint => LOAD_PATH,
            Workload::DeepPath => LOOP_HEAVY,
        }
    }

    pub fn family_names(self) -> Vec<&'static str> {
        self.families().iter().map(|&(name, _)| name).collect()
    }
}

/// One generated program with its known answer.
#[derive(Clone, Debug)]
pub struct Item {
    pub family: &'static str,
    pub answer: Answer,
    pub bytes: Vec<u8>,
}

impl Item {
    pub fn safe(&self) -> bool {
        self.answer.safe()
    }
}

/// A workload's corpus, as bytes.
#[derive(Clone, Debug)]
pub struct Corpus {
    pub items: Vec<Item>,
}

/// A uniform draw from `[0, 1)`.
fn unit(rng: &mut Rng) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// The seed of every program's shape stream.
const SHAPE_SEED: u64 = 0x5eed_5a4e;

/// Mixes `(seed, index)` into an independent per-program stream.
fn program_seed(seed: u64, index: usize) -> u64 {
    Rng::new(seed ^ Rng::new(index as u64).next_u64()).next_u64()
}

impl Corpus {
    /// Program `i` belongs to family `i % F` and is unsafe when it is the
    /// last of every [`UNSAFE_EVERY`] programs of its family.
    pub fn generate(workload: Workload, seed: u64) -> Corpus {
        let families = workload.families();
        let members = workload.corpus_size() / families.len();
        // The second axis's strata, one seeded permutation per family.
        let perms: Vec<Vec<usize>> = (0..families.len())
            .map(|f| {
                let mut rng = Rng::new(program_seed(seed, usize::MAX - f));
                let mut perm: Vec<usize> = (0..members).collect();
                for i in (1..members).rev() {
                    perm.swap(i, rng.range(0, i as u64) as usize);
                }
                perm
            })
            .collect();
        let items = (0..workload.corpus_size())
            .map(|i| {
                let (f, k) = (i % families.len(), i / families.len());
                let (family, gen) = families[f];
                let safe = k % UNSAFE_EVERY != UNSAFE_EVERY - 1;
                let mut rng = Rng::new(program_seed(seed, i));
                let strata = [k, perms[f][k]].map(|s| (s as f64 + unit(&mut rng)) / members as f64);
                let shape = Rng::new(program_seed(SHAPE_SEED, i));
                let (src, answer) = gen(&mut Draw { rng, shape, strata }, safe);
                let prog = assemble(&src)
                    .unwrap_or_else(|e| panic!("{family} program {i} fails to assemble: {e}"));
                Item {
                    family,
                    answer,
                    bytes: prog.to_bytes(),
                }
            })
            .collect();
        Corpus { items }
    }

    /// FNV-1a over every item's family, answer and bytes.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        };
        for item in &self.items {
            eat(item.family.as_bytes());
            eat(&[u8::from(item.safe())]);
            eat(&(item.bytes.len() as u64).to_le_bytes());
            eat(&item.bytes);
        }
        h
    }

    /// Decodes every item through the loader's entry point.
    pub fn decode(&self) -> Vec<Program> {
        self.items
            .iter()
            .map(|item| Program::from_bytes(&item.bytes).expect("generated bytes decode"))
            .collect()
    }
}

/// `len` random scalar ALU ops on `reg`, heavy in mul and shifts.
fn alu_tail(rng: &mut Draw, reg: &str, len: u64) -> String {
    let mut src = String::new();
    for _ in 0..len {
        let line = match rng.shape_range(0, 8) {
            0 | 1 => format!("{reg} *= {}", rng.range(2, 40)),
            2 => format!("{reg} <<= {}", rng.range(1, 8)),
            3 => format!("{reg} >>= {}", rng.range(1, 8)),
            4 => format!("{reg} &= {}", rng.range(1, 0xffff)),
            5 => format!("{reg} += {}", rng.range(1, 1000)),
            6 => format!("{reg} ^= {}", rng.range(1, 0xffff)),
            7 => format!("{reg} |= {}", rng.range(1, 0xff)),
            _ => format!("{reg} s>>= {}", rng.range(1, 8)),
        };
        src.push_str(&line);
        src.push('\n');
    }
    src
}

/// Loop-free packet filter: an untrusted byte bounded by a guard indexes
/// a stack window of `w` bytes. Safe: the guard is `w - 1`; unsafe: `w`,
/// one byte past the window.
fn filter(rng: &mut Draw, safe: bool) -> (String, Answer) {
    let w = rng.size(1, 8, 64);
    let bound = if safe { w - 1 } else { w };
    let mut src = format!(
        "r2 = *(u8 *)(r1 + {})\nif r2 > {bound} goto drop\n",
        rng.range(0, 63)
    );
    for _ in 0..rng.range(0, 4) {
        let reg = rng.pick(&["r5", "r6", "r7", "r8"]);
        src.push_str(&format!(
            "{reg} = *(u8 *)(r1 + {})\nif {reg} > {} goto drop\n",
            rng.range(0, 63),
            rng.range(16, 250)
        ));
    }
    src.push_str(&format!(
        "r3 = r10\nr3 += -{w}\nr3 += r2\n*(u8 *)(r3 + 0) = 1\nr4 = r2\n"
    ));
    let len = rng.size(0, 2, 24);
    src.push_str(&alu_tail(rng, "r4", len));
    src.push_str("r0 = r4\nexit\ndrop:\nr0 = 0\nexit\n");
    (src, Answer::of(safe, Defect::OutOfBounds))
}

/// Straight-line ALU program heavy in mul and shifts over three
/// untrusted operands, ending in a store through a masked index. Safe:
/// the mask keeps the index below the window; unsafe: the index is a
/// raw byte masked with `w | (w - 1)`, which reaches `w`.
fn alu(rng: &mut Draw, safe: bool) -> (String, Answer) {
    let mut src = format!(
        "r2 = *(u8 *)(r1 + {})\nr3 = *(u8 *)(r1 + {})\nr4 = *(u16 *)(r1 + {})\nr5 = *(u8 *)(r1 + {})\n",
        rng.range(0, 63),
        rng.range(0, 63),
        rng.range(0, 62),
        rng.range(0, 63)
    );
    let regs = ["r2", "r3", "r4"];
    for _ in 0..rng.size(0, 8, 64) {
        let dst = rng.shape_pick(&regs);
        let line = match rng.shape_range(0, 9) {
            0..=2 => format!("{dst} *= {}", rng.shape_pick(&regs)),
            3 => format!("{dst} *= {}", rng.range(2, 300)),
            4 => format!("{dst} <<= {}", rng.range(1, 12)),
            5 => format!("{dst} >>= {}", rng.range(1, 12)),
            6 => format!("{dst} &= {}", rng.range(1, 0xfff)),
            7 => format!("{dst} += {}", rng.shape_pick(&regs)),
            8 => format!("{dst} ^= {}", rng.shape_pick(&regs)),
            _ => format!("w{} *= {}", &dst[1..], rng.range(2, 64)),
        };
        src.push_str(&line);
        src.push('\n');
    }
    let w = rng.size(1, 8, 64);
    let index = if safe {
        format!("r6 = r4\nr6 &= {}\n", rng.range(w / 2, w - 1))
    } else {
        format!("r6 = r5\nr6 &= {}\n", w | (w - 1))
    };
    src.push_str(&index);
    src.push_str(&format!(
        "r7 = r10\nr7 += -{w}\nr7 += r6\n*(u8 *)(r7 + 0) = 1\nr0 = r2\nr0 ^= r3\nr0 += r4\nexit\n"
    ));
    (src, Answer::of(safe, Defect::OutOfBounds))
}

/// A masked memset loop of `trips` trips over a `w`-byte window, with
/// an optional accumulator body. Safe: mask `w - 1`; unsafe: mask `w`
/// with more than `w` trips, so the index reaches `w`.
fn masked_loop(rng: &mut Draw, safe: bool, trips: (u64, u64), body: u64) -> (String, Answer) {
    let (w, mask, trips) = if safe {
        let w = rng.size(1, 8, 64);
        (w, w - 1, rng.size(0, trips.0, trips.1))
    } else {
        let w = rng.size(1, 8, 40);
        (w, w, w + rng.size(0, 1, 24))
    };
    let mut src = String::from("r6 = 0\nr1 = 0\nloop:\nr2 = r1\n");
    src.push_str(&format!(
        "r2 &= {mask}\nr3 = r10\nr3 += -{w}\nr3 += r2\n*(u8 *)(r3 + 0) = 0\n"
    ));
    // The accumulator body sets how many fixpoint visits the loop costs,
    // and the costliest loops are the latency tail: its length follows
    // the trip stratum and its shape is fixed, so every seed has the same
    // tail and only the constants differ.
    for k in 0..rng.size(0, 0, body) {
        let line = match k % 3 {
            0 => "r6 += r1".to_string(),
            1 => format!("r6 *= {}", rng.range(2, 9)),
            _ => format!("r6 ^= {}", rng.range(1, 255)),
        };
        src.push_str(&line);
        src.push('\n');
    }
    src.push_str(&format!(
        "r1 += 1\nif r1 < {trips} goto loop\nr0 = r1\nexit\n"
    ));
    (src, Answer::of(safe, Defect::OutOfBounds))
}

fn short_loop(rng: &mut Draw, safe: bool) -> (String, Answer) {
    masked_loop(rng, safe, (2, 48), 4)
}

fn deep_memset(rng: &mut Draw, safe: bool) -> (String, Answer) {
    masked_loop(rng, safe, (8, 160), 3)
}

/// The canonical map shape: key on the stack, `map_lookup`, NULL check,
/// read-modify-write of the value. Unsafe: the NULL check is missing,
/// or the access ends one byte past the value.
fn map_lookup(rng: &mut Draw, safe: bool) -> (String, Answer) {
    let map = rng.range(0, 1);
    let (key_store, key_size, value_size) = if map == 0 {
        (format!("*(u32 *)(r10 - 4) = {}", rng.range(0, 15)), 4, 8)
    } else {
        (format!("*(u64 *)(r10 - 8) = {}", rng.range(0, 7)), 8, 32)
    };
    let (name, size) = rng.pick(&[("u8", 1u64), ("u16", 2), ("u32", 4), ("u64", 8)]);
    let unchecked = !safe && rng.coin();
    let off = if safe || unchecked {
        rng.range(0, value_size - size)
    } else {
        value_size - size + 1
    };
    let mut src = format!("{key_store}\nr1 = map {map}\nr2 = r10\nr2 += -{key_size}\ncall 1\n");
    if !unchecked {
        src.push_str("if r0 == 0 goto miss\n");
    }
    src.push_str(&format!("r6 = *({name} *)(r0 + {off})\n"));
    let len = rng.size(0, 1, 16);
    src.push_str(&alu_tail(rng, "r6", len));
    src.push_str(&format!(
        "*({name} *)(r0 + {off}) = r6\nr0 = 1\nexit\nmiss:\nr0 = 0\nexit\n"
    ));
    let defect = if unchecked {
        Defect::NullMapValue
    } else {
        Defect::OutOfBounds
    };
    (src, Answer::of(safe, defect))
}

/// Loop-carried spills to two different stack chunks per trip. Unsafe:
/// the fill reads a slot no path ever writes.
fn spill_loop(rng: &mut Draw, safe: bool) -> (String, Answer) {
    let a = 8 * rng.range(1, 8);
    let b = 8 * rng.range(16, 64);
    let fill = if safe { a } else { a + 8 * rng.range(1, 6) };
    let trips = rng.size(0, 8, 120);
    let src = format!(
        "r1 = 0\nr6 = 0\nloop:\nr6 += r1\n*(u64 *)(r10 - {a}) = r6\n*(u64 *)(r10 - {b}) = r1\n\
         r7 = *(u64 *)(r10 - {fill})\nr1 += 1\nif r1 < {trips} goto loop\nr0 = r7\nexit\n"
    );
    (src, Answer::of(safe, Defect::UninitStackRead))
}

/// The two-back-edge counter+accumulator loop over a window of `w`
/// bytes. Safe: `w` equals the trip count; unsafe: one byte less.
fn two_back_edge(rng: &mut Draw, safe: bool) -> (String, Answer) {
    let trips = rng.size(0, 6, 60);
    let w = if safe { trips } else { trips - 1 };
    let src = format!(
        "r2 = *(u8 *)(r1 + {})\nr1 = 0\nr6 = 0\nloop:\nr3 = r10\nr3 += -{w}\nr3 += r1\n\
         *(u8 *)(r3 + 0) = 0\nr1 += 1\nr6 += 1\nif r1 > {} goto out\nif r2 > {} goto loop\n\
         r6 += 7\ngoto loop\nout:\nr0 = r1\nexit\n",
        rng.range(0, 63),
        trips - 1,
        rng.range(0, 254)
    );
    (src, Answer::of(safe, Defect::OutOfBounds))
}

/// A loop whose two arms differ only in a dead scratch register, then
/// store through a masked index (unsafe: mask `w`, reaching `w`).
fn dead_scratch(rng: &mut Draw, safe: bool) -> (String, Answer) {
    let (w, mask, trips) = if safe {
        let w = rng.size(1, 8, 64);
        (w, w - 1, rng.size(0, 8, 100))
    } else {
        let w = rng.size(1, 8, 40);
        (w, w, w + rng.size(0, 1, 40))
    };
    let src = format!(
        "r2 = *(u8 *)(r1 + {})\nr1 = 0\nloop:\nr6 = r2\nr6 *= {}\nr6 &= 1\nif r6 > 0 goto odd\n\
         r6 = 11\ngoto join\nodd:\nr6 = 22\njoin:\nr4 = r1\nr4 &= {mask}\nr3 = r10\nr3 += -{w}\n\
         r3 += r4\n*(u8 *)(r3 + 0) = 0\nr1 += 1\nif r1 < {trips} goto loop\nr0 = r1\nexit\n",
        rng.range(0, 63),
        2 * rng.range(1, 7) + 1
    );
    (src, Answer::of(safe, Defect::OutOfBounds))
}

/// A bounded `map_update` loop. Unsafe: the key is never written, so
/// the helper reads an uninitialized stack region.
fn map_update_loop(rng: &mut Draw, safe: bool) -> (String, Answer) {
    let key = if safe { "*(u32 *)(r10 - 4) = r6\n" } else { "" };
    let src = format!(
        "r6 = 0\nloop:\n{key}*(u64 *)(r10 - 16) = r6\nr1 = map 0\nr2 = r10\nr2 += -4\nr3 = r10\n\
         r3 += -16\nr4 = 0\ncall 2\nr6 += 1\nif r6 < {} goto loop\nr0 = 0\nexit\n",
        rng.size(0, 4, 48)
    );
    (src, Answer::of(safe, Defect::UninitStackRead))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for w in Workload::ALL {
            let a = Corpus::generate(w, 1);
            let b = Corpus::generate(w, 1);
            assert_eq!(a.hash(), b.hash(), "{}", w.name());
            assert!(a
                .items
                .iter()
                .zip(&b.items)
                .all(|(x, y)| x.bytes == y.bytes));
            assert_ne!(a.hash(), Corpus::generate(w, 2).hash(), "{}", w.name());
        }
    }

    #[test]
    fn every_family_has_its_share_of_unsafe_programs() {
        for w in Workload::ALL {
            let corpus = Corpus::generate(w, 7);
            let per_family = w.corpus_size() / w.family_names().len();
            for family in w.family_names() {
                let of: Vec<&Item> = corpus.items.iter().filter(|i| i.family == family).collect();
                assert_eq!(of.len(), per_family, "{} {family}", w.name());
                let unsafe_count = of.iter().filter(|i| !i.safe()).count();
                assert_eq!(
                    unsafe_count,
                    per_family / UNSAFE_EVERY,
                    "{} {family}",
                    w.name()
                );
            }
        }
    }
}
