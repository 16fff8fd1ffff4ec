//! Deterministic request generation.
//!
//! Every input the benchmark sends is a function of the workload seed
//! alone: the same seed gives byte-identical request lines. Programs are
//! Table-1 kernels rendered as `.cme` text by this module (not by the
//! repository's kernel constructors, so a change there cannot silently
//! change the benchmark's inputs).
//!
//! Cost is stratified so that runs with different seeds do the same
//! amount of work: requests are dealt in blocks, each block holding every
//! `(kernel, N, geometry)` combination of the workload's deck once in a
//! seeded order. The seed moves the order and the array bases; it does
//! not move the mix.
//!
//! `model-replay` cycles a small pool whose replay cost follows each
//! request's conflict pattern, so a pool of seeded patterns would cost
//! differently per seed. Its patterns are fixed per (block, deck slot)
//! instead, and the seed moves the order and shifts each whole layout by
//! a multiple of [`LAYOUT_SHIFT`], which maps every address to the same
//! cache set: every seed replays the same work.

use std::collections::HashSet;

/// splitmix64: a small, seedable, portable generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream, index)` triple, so each request
    /// draws from its own stream and generation order never matters.
    pub fn for_item(seed: u64, stream: u64, index: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        r.next_u64();
        r.0 ^= index.wrapping_mul(0xd1b5_4a32_d192_ed03);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle of `0..n`.
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = self.below(i as u64 + 1) as usize;
            p.swap(i, j);
        }
        p
    }
}

/// The Table-1 kernels the benchmark draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    Mmult,
    Gauss,
    Sor,
    Adi,
    Trans,
    Tom,
}

impl Kernel {
    /// Number of arrays, for base placement.
    fn arrays(self) -> usize {
        match self {
            Kernel::Mmult | Kernel::Adi => 3,
            Kernel::Tom => 4,
            Kernel::Gauss | Kernel::Sor | Kernel::Trans => 1,
        }
    }
}

/// Renders one kernel at problem size `n` as `.cme` text: arrays are
/// `col × n` (`col ≥ n` is the leading dimension) at the given bases (in
/// elements). Loads are written `s = s + R` and stores `R = s`, so the
/// reference order is exactly the kernel's.
pub fn program(kernel: Kernel, n: i64, col: i64, bases: &[i64]) -> String {
    let mut out = String::new();
    let decl = |out: &mut String, name: &str, base: i64| {
        out.push_str(&format!("REAL {name}({col}, {n}) AT {base}\n"));
    };
    let body = |out: &mut String, loops: &[(&str, String, String)], stmts: &[&str]| {
        for (d, (var, lo, hi)) in loops.iter().enumerate() {
            out.push_str(&format!("{:w$}DO {var} = {lo}, {hi}\n", "", w = 2 * d));
        }
        let depth = loops.len();
        for s in stmts {
            out.push_str(&format!("{:w$}{s}\n", "", w = 2 * depth));
        }
        for d in (0..depth).rev() {
            out.push_str(&format!("{:w$}ENDDO\n", "", w = 2 * d));
        }
    };
    let full = |v: &'static str| (v, "1".to_string(), n.to_string());
    let inner = |v: &'static str| (v, "2".to_string(), (n - 1).to_string());
    match kernel {
        Kernel::Mmult => {
            for (name, base) in ["Z", "X", "Y"].iter().zip(bases) {
                decl(&mut out, name, *base);
            }
            body(
                &mut out,
                &[full("i"), full("k"), full("j")],
                &[
                    "s = s + Z(j, i)",
                    "s = s + X(k, i)",
                    "s = s + Y(j, k)",
                    "Z(j, i) = s",
                ],
            );
        }
        Kernel::Gauss => {
            decl(&mut out, "A", bases[0]);
            body(
                &mut out,
                &[
                    ("k", "1".into(), (n - 1).to_string()),
                    ("i", "k + 1".into(), n.to_string()),
                    ("j", "k + 1".into(), n.to_string()),
                ],
                &[
                    "s = s + A(i, k)",
                    "s = s + A(k, j)",
                    "s = s + A(k, k)",
                    "s = s + A(i, j)",
                    "A(i, j) = s",
                ],
            );
        }
        Kernel::Sor => {
            decl(&mut out, "A", bases[0]);
            body(
                &mut out,
                &[inner("j"), inner("i")],
                &[
                    "s = s + A(i - 1, j)",
                    "s = s + A(i + 1, j)",
                    "s = s + A(i, j - 1)",
                    "s = s + A(i, j + 1)",
                    "s = s + A(i, j)",
                    "A(i, j) = s",
                ],
            );
        }
        Kernel::Adi => {
            for (name, base) in ["A", "B", "X"].iter().zip(bases) {
                decl(&mut out, name, *base);
            }
            body(
                &mut out,
                &[("i", "2".into(), n.to_string()), full("k")],
                &[
                    "s = s + X(i, k)",
                    "s = s + X(i - 1, k)",
                    "s = s + A(i, k)",
                    "s = s + B(i - 1, k)",
                    "X(i, k) = s",
                    "s = s + B(i, k)",
                    "s = s + A(i, k)",
                    "s = s + A(i, k)",
                    "B(i, k) = s",
                ],
            );
        }
        Kernel::Trans => {
            decl(&mut out, "A", bases[0]);
            body(
                &mut out,
                &[full("i"), full("j")],
                &[
                    "s = s + A(i, j)",
                    "s = s + A(j, i)",
                    "A(i, j) = s",
                    "A(j, i) = s",
                ],
            );
        }
        Kernel::Tom => {
            for (name, base) in ["X", "Y", "RX", "RY"].iter().zip(bases) {
                decl(&mut out, name, *base);
            }
            body(
                &mut out,
                &[inner("j"), inner("i")],
                &[
                    "s = s + X(i, j)",
                    "s = s + Y(i, j)",
                    "RX(i, j) = s",
                    "s = s + X(i, j)",
                    "s = s + Y(i, j)",
                    "RY(i, j) = s",
                ],
            );
        }
    }
    out
}

/// Array bases for arrays of `col × n` elements: packed in declaration
/// order from a random start, each array followed by a random gap of up
/// to two columns, so conflict patterns vary per request.
fn bases(rng: &mut Rng, kernel: Kernel, n: i64, col: i64) -> Vec<i64> {
    let mut next = 64 * rng.below(64) as i64;
    (0..kernel.arrays())
        .map(|_| {
            let base = next;
            next += col * n + rng.below(2 * col as u64 + 1) as i64;
            base
        })
        .collect()
}

/// A shift, in elements, that keeps every address in its cache set for
/// every geometry here: 16 KiB, a multiple of every cache size.
pub const LAYOUT_SHIFT: i64 = 16384 / Geometry::ELEM;

/// One cache model as it travels on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Geometry {
    pub size: i64,
    pub assoc: i64,
    pub line: i64,
    pub policy: &'static str,
}

impl Geometry {
    const ELEM: i64 = 4;

    fn json(&self) -> String {
        let policy = if self.policy == "lru" {
            String::new()
        } else {
            format!("\"policy\":\"{}\",", self.policy)
        };
        format!(
            "{{\"assoc\":{},\"elem\":{},\"line\":{},{policy}\"size\":{}}}",
            self.assoc,
            Self::ELEM,
            self.line,
            self.size
        )
    }
}

/// JSON string escaping for the program text (only `"`, `\` and
/// newlines occur in generated programs).
fn escape(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The exact analyze line for one program and cache (keys sorted, as
/// `AnalyzeRequest::encode` writes them).
pub fn request_line(id: &str, program: &str, g: &Geometry) -> String {
    format!(
        "{{\"cache\":{},\"epsilon\":0,\"id\":\"{id}\",\"op\":\"analyze\",\"program\":\"{}\"}}",
        g.json(),
        escape(program)
    )
}

/// The `(kernel, N)` slots of the LRU workloads, weighted toward mmult
/// and gauss, which carry the cascade cost.
const LRU_SLOTS: &[(Kernel, i64)] = &[
    (Kernel::Mmult, 24),
    (Kernel::Mmult, 28),
    (Kernel::Mmult, 32),
    (Kernel::Gauss, 28),
    (Kernel::Gauss, 32),
    (Kernel::Gauss, 36),
    (Kernel::Sor, 160),
    (Kernel::Adi, 128),
    (Kernel::Trans, 192),
    (Kernel::Tom, 192),
];

/// The LRU geometries of `cold-mix`: sizes 512 B-16 KiB,
/// 1/2/4 ways, 32/64-byte lines. There are more of them than `cme-serve`
/// keeps sessions for (32 by default), so sessions are evicted as the
/// stream cycles through them: most requests meet a fresh session, and
/// the server's memory stays bounded however long the run.
const LRU_GEOMETRIES: &[(i64, i64, i64, &str)] = &[
    (512, 1, 32, "lru"),
    (512, 2, 32, "lru"),
    (512, 4, 32, "lru"),
    (1024, 1, 32, "lru"),
    (1024, 2, 32, "lru"),
    (1024, 4, 32, "lru"),
    (2048, 1, 32, "lru"),
    (2048, 2, 32, "lru"),
    (2048, 4, 32, "lru"),
    (4096, 1, 32, "lru"),
    (4096, 2, 32, "lru"),
    (4096, 4, 32, "lru"),
    (8192, 1, 32, "lru"),
    (8192, 2, 32, "lru"),
    (8192, 4, 32, "lru"),
    (16384, 1, 32, "lru"),
    (16384, 2, 32, "lru"),
    (16384, 4, 32, "lru"),
    (512, 1, 64, "lru"),
    (512, 2, 64, "lru"),
    (512, 4, 64, "lru"),
    (1024, 1, 64, "lru"),
    (1024, 2, 64, "lru"),
    (1024, 4, 64, "lru"),
    (2048, 1, 64, "lru"),
    (2048, 2, 64, "lru"),
    (2048, 4, 64, "lru"),
    (4096, 1, 64, "lru"),
    (4096, 2, 64, "lru"),
    (4096, 4, 64, "lru"),
    (8192, 1, 64, "lru"),
    (8192, 2, 64, "lru"),
    (8192, 4, 64, "lru"),
    (16384, 1, 64, "lru"),
    (16384, 2, 64, "lru"),
    (16384, 4, 64, "lru"),
];

/// The slots of `model-replay`: the same kernels, larger, since the
/// simulator replay costs per access.
const MODEL_SLOTS: &[(Kernel, i64)] = &[
    (Kernel::Mmult, 40),
    (Kernel::Mmult, 48),
    (Kernel::Mmult, 56),
    (Kernel::Gauss, 56),
    (Kernel::Gauss, 64),
    (Kernel::Gauss, 72),
    (Kernel::Sor, 160),
    (Kernel::Adi, 160),
    (Kernel::Trans, 160),
    (Kernel::Tom, 160),
];

/// The FIFO/PLRU geometries of `model-replay`: k in {2, 4, 8}.
const MODEL_GEOMETRIES: &[(i64, i64, i64, &str)] = &[
    (1024, 2, 32, "fifo"),
    (1024, 4, 32, "fifo"),
    (2048, 8, 32, "fifo"),
    (2048, 2, 32, "plru"),
    (1024, 4, 32, "plru"),
    (1024, 8, 32, "plru"),
];

/// Which deck a stream deals from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// LRU requests (`cold-mix`).
    Lru,
    /// FIFO/PLRU requests (`model-replay`).
    Model,
}

impl Family {
    fn deck(self) -> Vec<(Kernel, i64, Geometry)> {
        let (slots, geometries) = match self {
            Family::Lru => (LRU_SLOTS, LRU_GEOMETRIES),
            Family::Model => (MODEL_SLOTS, MODEL_GEOMETRIES),
        };
        let mut deck = Vec::new();
        for &(kernel, n) in slots {
            for &(size, assoc, line, policy) in geometries {
                let geometry = Geometry {
                    size,
                    assoc,
                    line,
                    policy,
                };
                deck.push((kernel, n, geometry));
            }
        }
        deck
    }

    /// Requests per stratified block: every `(kernel, N, geometry)` once.
    pub fn block(self) -> usize {
        self.deck().len()
    }

    /// True when the seed may not change the conflict patterns (see the
    /// module doc).
    fn fixed_layouts(self) -> bool {
        self == Family::Model
    }
}

/// Deals `count` items from `deck` in blocks: each block is the whole deck
/// in a seeded order, so any whole number of blocks has the same mix.
fn deal<T: Copy>(deck: &[T], seed: u64, stream: u64, count: usize) -> Vec<T> {
    let mut order = Vec::new();
    (0..count)
        .map(|i| {
            if i % deck.len() == 0 {
                order =
                    Rng::for_item(seed, stream, (i / deck.len()) as u64).permutation(deck.len());
            }
            deck[order[i % deck.len()]]
        })
        .collect()
}

/// The protocol lines of the first `count` requests of a family's seeded
/// stream, all distinct. Request `i` has id `r<i>`, so a prefix of a
/// stream is the shorter stream of the same seed.
///
/// Block `b` pads the leading dimension of every array by `b` elements.
/// That changes the nest's structure, so no two requests of a stream
/// share structure-keyed memo work, and a request costs the same however
/// many came before it.
pub fn requests(family: Family, seed: u64, count: usize) -> Vec<String> {
    let stream = match family {
        Family::Lru => 1,
        Family::Model => 2,
    };
    let deck = family.deck();
    let slots: Vec<usize> = (0..deck.len()).collect();
    let mut seen = HashSet::new();
    deal(&slots, seed, stream, count)
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let (kernel, n, geometry) = deck[slot];
            let block = i / deck.len();
            let (mut rng, shift) = if family.fixed_layouts() {
                let pattern = (block * deck.len() + slot) as u64;
                let shift = Rng::for_item(seed, stream + 200, i as u64).below(64) as i64;
                (
                    Rng::for_item(0, stream + 100, pattern),
                    LAYOUT_SHIFT * shift,
                )
            } else {
                (Rng::for_item(seed, stream + 100, i as u64), 0)
            };
            let col = n + block as i64;
            // Redraw the bases until the request is new to this stream.
            let program = loop {
                let bases: Vec<i64> = bases(&mut rng, kernel, n, col)
                    .into_iter()
                    .map(|b| b + shift)
                    .collect();
                let program = program(kernel, n, col, &bases);
                if seen.insert((program.clone(), geometry)) {
                    break program;
                }
            };
            request_line(&format!("r{i}"), &program, &geometry)
        })
        .collect()
}

/// One padding-search input: a kernel instance and the small cache to pad
/// it for.
#[derive(Debug, Clone)]
pub struct PaddingCase {
    pub size: i64,
    pub assoc: i64,
    pub program: String,
}

/// The `(kernel, N, size, assoc)` cases of `padding-search`: small
/// instances in small caches, where these kernels conflict and the search
/// runs (one search is dozens to hundreds of analyses).
const PADDING_DECK: &[(Kernel, i64, i64, i64)] = &[
    (Kernel::Mmult, 8, 256, 1),
    (Kernel::Mmult, 8, 512, 1),
    (Kernel::Mmult, 8, 512, 2),
    (Kernel::Gauss, 12, 256, 1),
    (Kernel::Gauss, 14, 512, 2),
    (Kernel::Gauss, 16, 256, 1),
    (Kernel::Adi, 12, 256, 1),
    (Kernel::Tom, 16, 256, 1),
];

/// Padding cases per stratified block.
pub const PADDING_BLOCK: usize = PADDING_DECK.len();

/// The first `count` padding cases of the seeded stream. Layouts are
/// unpadded (the search chooses the padding) with seeded bases.
pub fn padding_cases(seed: u64, count: usize) -> Vec<PaddingCase> {
    deal(PADDING_DECK, seed, 3, count)
        .into_iter()
        .enumerate()
        .map(|(i, (kernel, n, size, assoc))| {
            let mut rng = Rng::for_item(seed, 103, i as u64);
            PaddingCase {
                size,
                assoc,
                program: program(kernel, n, n, &bases(&mut rng, kernel, n, n)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_all_distinct() {
        let a = requests(Family::Lru, 7, 60);
        let b = requests(Family::Lru, 7, 60);
        assert_eq!(a, b);
        let lines: HashSet<&String> = a.iter().collect();
        assert_eq!(lines.len(), a.len());
        assert_ne!(a, requests(Family::Lru, 8, 60));
    }

    #[test]
    fn generated_lines_decode_and_parse() {
        for family in [Family::Lru, Family::Model] {
            for line in requests(family, 3, family.block()) {
                let req = cme_core::api::AnalyzeRequest::decode(&line).expect("decodes");
                assert_eq!(req.encode(), line, "lines are in the canonical encoding");
                req.parse_program().expect("parses");
                req.cache_model().expect("valid cache model");
            }
        }
        for c in padding_cases(3, 16) {
            cme_ir::parse::parse_nest(&c.program).expect("parses");
        }
    }
}
