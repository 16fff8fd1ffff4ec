//! Symbolic Cache Miss Equations — the objects of Figure 3.
//!
//! For every reference and every one of its reuse vectors, the generator
//! produces one [`ColdEquation`] and one [`ReplacementEquation`] per
//! potentially-interfering reference (self-interference when the two
//! references coincide, cross-interference otherwise — Section 3.2.2).
//!
//! Solutions are never enumerated here; the optimizers of `cme-opt`
//! manipulate these symbolic forms (GCD conditions, parametric counts), and
//! [`crate::solve`] evaluates them exactly over the iteration space.

use cme_cache::CacheConfig;
use cme_ir::{LoopNest, RefId};
use cme_math::{Affine, Interval};
use cme_reuse::{reuse_vectors, ReuseOptions, ReuseVector};
use std::fmt;

/// Cold miss equation for one reference along one reuse vector
/// (Section 3.1): iteration point `i⃗` is a solution when the access at
/// `i⃗` does not reuse the source's line from `i⃗ − r⃗` — because the
/// source point falls outside the iteration space, or because the access
/// crossed a memory-line boundary along the vector.
#[derive(Debug, Clone, PartialEq)]
pub struct ColdEquation {
    /// The reference whose cold misses this equation captures.
    pub dest: RefId,
    /// The reuse vector the equation is formed along.
    pub reuse: ReuseVector,
}

impl ColdEquation {
    /// Evaluates the equation at an iteration point: `true` means `i⃗` is a
    /// cold-CME solution (a *potential* cold miss along this vector).
    pub fn is_solution(&self, nest: &LoopNest, cache: &CacheConfig, point: &[i64]) -> bool {
        let r = self.reuse.vector();
        let p: Vec<i64> = point.iter().zip(r).map(|(a, b)| a - b).collect();
        if !nest.space().contains(&p) {
            return true;
        }
        let dest_line = cache.memory_line(nest.address(self.dest, point));
        let src_line = cache.memory_line(nest.address(self.reuse.source(), &p));
        dest_line != src_line
    }
}

impl fmt::Display for ColdEquation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ColdCME[{} along {}]", self.dest, self.reuse)
    }
}

/// Replacement miss equation (Equation 4 of the paper):
///
/// ```text
/// Mem_dest(i⃗) = Mem_perp(j⃗) + n·Cs/k + b,   n ≠ 0,
/// j⃗ ∈ (i⃗ − r⃗ … i⃗]  (window set by statement order),
/// b ∈ [−L_off, Ls − 1 − L_off]
/// ```
///
/// Each solution `(i⃗, j⃗, n)` is one cache-set contention between the
/// victim (`dest`) and the perpetrator (`perp`); `k` distinct `n` values at
/// the same `i⃗` make a replacement miss.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplacementEquation {
    /// The victim reference (suffers the potential miss at `i⃗`).
    pub dest: RefId,
    /// The perpetrator reference (accesses the conflicting set at `j⃗`).
    pub perp: RefId,
    /// The reuse vector the equation is formed along.
    pub reuse: ReuseVector,
    /// `Mem_dest` as an affine function of the iteration point `i⃗`.
    pub mem_dest: Affine,
    /// `Mem_perp` as an affine function of the interfering point `j⃗`.
    pub mem_perp: Affine,
    /// The way span `Cs/k` in elements (the `n` multiplier).
    pub way_span: i64,
    /// Line size in elements (`Ls`), bounding the `b` range.
    pub line_elems: i64,
}

impl ReplacementEquation {
    /// `true` when victim and perpetrator are the same static reference
    /// (the paper's *self-interference* equations).
    pub fn is_self_interference(&self) -> bool {
        self.dest == self.perp
    }

    /// The widest possible `b` range, `[-(Ls−1), Ls−1]`, used by the
    /// symbolic (padding) analysis which cannot fix `L_off` per point.
    pub fn b_range(&self) -> Interval {
        Interval::new(-(self.line_elems - 1), self.line_elems - 1)
    }

    /// Checks whether concrete points `(i⃗, j⃗)` witness a set contention,
    /// and returns the wraparound count `n ≠ 0` if so.
    ///
    /// This is the semantic form of Equation 4: same cache set, different
    /// memory line; `n` is the (nonzero) number of way-spans separating the
    /// two lines.
    pub fn contention_at(&self, cache: &CacheConfig, i: &[i64], j: &[i64]) -> Option<i64> {
        let a = self.mem_dest.eval(i);
        let b = self.mem_perp.eval(j);
        if cache.cache_set(a) != cache.cache_set(b) {
            return None;
        }
        let (la, lb) = (cache.memory_line(a), cache.memory_line(b));
        if la == lb {
            return None; // n = 0: same line, a reuse rather than a conflict
        }
        // Lines in the same set are spaced by way_span/Ls lines exactly.
        let lines_per_way = self.way_span / self.line_elems;
        debug_assert_eq!((la - lb) % lines_per_way, 0);
        Some((la - lb) / lines_per_way)
    }
}

impl ReplacementEquation {
    /// Counts the `(i⃗, j⃗, n)` solutions of Equation 4 over the whole
    /// iteration space **symbolically**, with the lattice-point counting
    /// engine (Section 5.1.2) — no window scanning, no simulation.
    ///
    /// The equation is linearized exactly by introducing the two memory
    /// lines `q_A`, `q_B` and the wraparound `n` as integer variables:
    ///
    /// ```text
    /// Ls·q_A ≤ Mem_A(i⃗) ≤ Ls·q_A + Ls − 1
    /// Ls·q_B ≤ Mem_B(j⃗) ≤ Ls·q_B + Ls − 1
    /// q_A − q_B = n·Ns,   n ≥ 1  or  n ≤ −1
    /// ```
    ///
    /// and the lexicographic window `p⃗ ≺ j⃗ ≺ i⃗` (`p⃗ = i⃗ − r⃗`) is
    /// decomposed as `count(j⃗ ≺ i⃗) − count(j⃗ ≼ p⃗)`, each a disjoint
    /// union of `depth` polytopes by first differing level. Statement-order
    /// endpoints (`j⃗ = p⃗` when the perpetrator follows the source,
    /// `j⃗ = i⃗` when it precedes the destination) are added per the
    /// paper's access-order rule.
    pub fn count_solutions(&self, nest: &LoopNest, cache: &CacheConfig) -> u64 {
        let n = nest.depth();
        let src = self.reuse.source().index();
        let perp = self.perp.index();
        let dest = self.dest.index();

        let mut total = 0u64;
        if self.reuse.is_intra_iteration() {
            if src < perp && perp < dest {
                total += self.count_with_window(nest, cache, &WindowClass::Equal(Anchor::I));
            }
            return total;
        }
        // Interior: count(j ≺ i) − count(j ≼ p).
        for l in 0..n {
            total += self.count_with_window(nest, cache, &WindowClass::Before(Anchor::I, l));
        }
        for l in 0..n {
            total = total.saturating_sub(self.count_with_window(
                nest,
                cache,
                &WindowClass::Before(Anchor::P, l),
            ));
        }
        total = total.saturating_sub(self.count_with_window(
            nest,
            cache,
            &WindowClass::Equal(Anchor::P),
        ));
        // Endpoints by statement order.
        if perp > src {
            total += self.count_with_window(nest, cache, &WindowClass::Equal(Anchor::P));
        }
        if perp < dest {
            total += self.count_with_window(nest, cache, &WindowClass::Equal(Anchor::I));
        }
        total
    }

    /// Builds and counts one window-class polytope (both `n` sign branches).
    fn count_with_window(&self, nest: &LoopNest, cache: &CacheConfig, class: &WindowClass) -> u64 {
        let n = nest.depth();
        let nv = 2 * n + 3; // i.., j.., qa, qb, t
        let (qa, qb, t) = (2 * n, 2 * n + 1, 2 * n + 2);
        let ls = cache.line_elems();
        let ns = cache.num_sets();
        let r = self.reuse.vector();

        let mut base = cme_math::Polytope::new(nv);
        // Iteration-space membership for i (vars 0..n) and j (vars n..2n).
        let add_space = |p: &mut cme_math::Polytope, offset: usize| {
            for (l, lp) in nest.loops().iter().enumerate() {
                // lower(x) <= x_l  and  x_l <= upper(x).
                let mut lo = vec![0i64; nv];
                for (m, &c) in lp.lower().coeffs().iter().enumerate() {
                    lo[offset + m] += c;
                }
                lo[offset + l] -= 1;
                p.le(lo, -lp.lower().constant_term());
                let mut hi = vec![0i64; nv];
                hi[offset + l] += 1;
                for (m, &c) in lp.upper().coeffs().iter().enumerate() {
                    hi[offset + m] -= c;
                }
                p.le(hi, lp.upper().constant_term());
            }
        };
        add_space(&mut base, 0);
        add_space(&mut base, n);
        // Line variables: Ls·q <= Mem <= Ls·q + Ls − 1.
        let add_line = |p: &mut cme_math::Polytope, mem: &Affine, offset: usize, qvar: usize| {
            let mut lo = vec![0i64; nv];
            lo[qvar] += ls;
            for (m, &c) in mem.coeffs().iter().enumerate() {
                lo[offset + m] -= c;
            }
            p.le(lo, mem.constant_term());
            let mut hi = vec![0i64; nv];
            for (m, &c) in mem.coeffs().iter().enumerate() {
                hi[offset + m] += c;
            }
            hi[qvar] -= ls;
            p.le(hi, ls - 1 - mem.constant_term());
        };
        add_line(&mut base, &self.mem_dest, 0, qa);
        add_line(&mut base, &self.mem_perp, n, qb);
        // q_A − q_B − Ns·t = 0.
        let mut setc = vec![0i64; nv];
        setc[qa] = 1;
        setc[qb] = -1;
        setc[t] = -ns;
        base.eq_to(setc, 0);
        // Window class constraints relating j (vars n..2n) to i (vars 0..n),
        // through p = i − r where needed.
        match class {
            WindowClass::Equal(anchor) => {
                for m in 0..n {
                    let mut c = vec![0i64; nv];
                    c[n + m] = 1;
                    c[m] = -1;
                    let rhs = match anchor {
                        Anchor::I => 0,
                        Anchor::P => -r[m],
                    };
                    base.eq_to(c, rhs);
                }
            }
            WindowClass::Before(anchor, level) => {
                for m in 0..*level {
                    let mut c = vec![0i64; nv];
                    c[n + m] = 1;
                    c[m] = -1;
                    let rhs = match anchor {
                        Anchor::I => 0,
                        Anchor::P => -r[m],
                    };
                    base.eq_to(c, rhs);
                }
                let mut c = vec![0i64; nv];
                c[n + *level] = 1;
                c[*level] = -1;
                let rhs = match anchor {
                    Anchor::I => -1,
                    Anchor::P => -r[*level] - 1,
                };
                base.le(c, rhs);
            }
        }
        // Bounds box.
        let space_box = nest.space().bounding_box();
        let mut bounds = Vec::with_capacity(nv);
        bounds.extend(space_box.iter().copied());
        bounds.extend(space_box.iter().copied());
        let mem_a_range = self.mem_dest.range(&space_box);
        let mem_b_range = self.mem_perp.range(&space_box);
        if mem_a_range.is_empty() || mem_b_range.is_empty() {
            return 0;
        }
        let qa_range = cme_math::Interval::new(
            cme_math::gcd::floor_div(mem_a_range.lo, ls),
            cme_math::gcd::floor_div(mem_a_range.hi, ls),
        );
        let qb_range = cme_math::Interval::new(
            cme_math::gcd::floor_div(mem_b_range.lo, ls),
            cme_math::gcd::floor_div(mem_b_range.hi, ls),
        );
        let t_span = (qa_range - qb_range) * 1;
        bounds.push(qa_range);
        bounds.push(qb_range);
        // Two branches: t >= 1 and t <= −1 (n = 0 is reuse, not conflict).
        let mut count = 0u64;
        for (t_lo, t_hi) in [
            (1i64, cme_math::gcd::floor_div(t_span.hi, ns).max(1)),
            (cme_math::gcd::floor_div(t_span.lo, ns).min(-1), -1i64),
        ] {
            if t_lo > t_hi {
                continue;
            }
            let mut p = base.clone();
            if t_lo >= 1 {
                p.ge(unit(nv, t), 1);
            } else {
                p.le(unit(nv, t), -1);
            }
            let mut b = bounds.clone();
            b.push(cme_math::Interval::new(t_lo, t_hi));
            count += p.count_points(&b);
        }
        count
    }
}

/// Which anchor a window class compares against.
enum Anchor {
    /// The destination iteration `i⃗`.
    I,
    /// The source iteration `p⃗ = i⃗ − r⃗`.
    P,
}

/// One disjoint class of the lexicographic-window decomposition.
enum WindowClass {
    /// `j⃗` equals the anchor.
    Equal(Anchor),
    /// `j⃗` agrees with the anchor on the first `level` components and is
    /// strictly smaller at `level`.
    Before(Anchor, usize),
}

fn unit(nv: usize, var: usize) -> Vec<i64> {
    let mut v = vec![0i64; nv];
    v[var] = 1;
    v
}

impl fmt::Display for ReplacementEquation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ReplCME[{} vs {} along ({})]: {} = {} + {}·n + b, n≠0, b ∈ {}",
            self.dest,
            self.perp,
            self.reuse
                .vector()
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.mem_dest,
            self.mem_perp,
            self.way_span,
            self.b_range()
        )
    }
}

/// All equations of one reference along one reuse vector.
#[derive(Debug, Clone, PartialEq)]
pub struct EquationGroup {
    /// The reuse vector.
    pub reuse: ReuseVector,
    /// The cold miss equation along it.
    pub cold: ColdEquation,
    /// One replacement equation per potentially-interfering reference
    /// (every reference of the nest, self included).
    pub replacements: Vec<ReplacementEquation>,
}

/// All equations of one reference.
#[derive(Debug, Clone, PartialEq)]
pub struct RefEquations {
    /// The reference these equations describe.
    pub dest: RefId,
    /// One group per reuse vector, in lexicographically increasing order
    /// (the processing order of the miss-finding algorithm).
    pub groups: Vec<EquationGroup>,
}

/// The complete CME system of a loop nest (Figure 3's output).
#[derive(Debug, Clone, PartialEq)]
pub struct CmeSystem {
    /// Per-reference equations, in statement order.
    pub per_ref: Vec<RefEquations>,
    /// The cache geometry the system was generated for.
    pub cache: CacheConfig,
}

impl CmeSystem {
    /// Generates the full equation system for a nest — the algorithm of
    /// Figure 3: compute reuse vectors per reference, then for each vector
    /// form the cold equation and the replacement equations against every
    /// reference.
    pub fn generate(nest: &LoopNest, cache: CacheConfig, reuse_options: &ReuseOptions) -> Self {
        let per_ref = nest
            .references()
            .iter()
            .map(|dest| {
                let rvs = reuse_vectors(nest, &cache, dest.id(), reuse_options);
                let groups = rvs
                    .into_iter()
                    .map(|rv| build_group(nest, &cache, dest.id(), rv))
                    .collect();
                RefEquations {
                    dest: dest.id(),
                    groups,
                }
            })
            .collect();
        CmeSystem { per_ref, cache }
    }

    /// Total number of equations in the system (cold + replacement).
    pub fn equation_count(&self) -> usize {
        self.per_ref
            .iter()
            .flat_map(|r| &r.groups)
            .map(|g| 1 + g.replacements.len())
            .sum()
    }
}

fn build_group(
    nest: &LoopNest,
    cache: &CacheConfig,
    dest: RefId,
    rv: ReuseVector,
) -> EquationGroup {
    let mem_dest = nest.address_affine(dest);
    let replacements = nest
        .references()
        .iter()
        .map(|perp| ReplacementEquation {
            dest,
            perp: perp.id(),
            reuse: rv.clone(),
            mem_dest: mem_dest.clone(),
            mem_perp: nest.address_affine(perp.id()),
            way_span: cache.way_span_elems(),
            line_elems: cache.line_elems(),
        })
        .collect();
    EquationGroup {
        cold: ColdEquation {
            dest,
            reuse: rv.clone(),
        },
        reuse: rv,
        replacements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{AccessKind, NestBuilder};

    /// The paper's Section 3.2.3 example: matmul N = 32, 8KB 2-way cache
    /// with 128 sets and 4 elements per line, bases Z=4192, X=2136.
    fn eq5_setting() -> (LoopNest, CacheConfig) {
        let n = 32;
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, n).ct_loop("k", 1, n).ct_loop("j", 1, n);
        let z = b.array("Z", &[n, n], 4192);
        let x = b.array("X", &[n, n], 2136);
        let y = b.array("Y", &[n, n], 96);
        b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(x, AccessKind::Read, &[("k", 0), ("i", 0)]);
        b.reference(y, AccessKind::Read, &[("j", 0), ("k", 0)]);
        b.reference(z, AccessKind::Write, &[("j", 0), ("i", 0)]);
        let nest = b.build().unwrap();
        let cache = CacheConfig::new(8192, 2, 32, 8).unwrap(); // 128 sets, 4 elem/line
        (nest, cache)
    }

    #[test]
    fn paper_equation5_form() {
        let (nest, cache) = eq5_setting();
        let sys = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
        let z_load = &sys.per_ref[0];
        // Find the group for the spatial reuse vector (0,0,1).
        let group = z_load
            .groups
            .iter()
            .find(|g| g.reuse.vector() == [0, 0, 1])
            .expect("spatial vector (0,0,1) must exist");
        let eq = group
            .replacements
            .iter()
            .find(|e| e.perp.index() == 1)
            .expect("replacement equation against X");
        // Equation 5: ... = ... + 512 n + b, b in [-3, 3].
        assert_eq!(eq.way_span, 512);
        assert_eq!(eq.b_range(), Interval::new(-3, 3));
        // Mem_Z(i,k,j) = 4192 + 32(i-1) + (j-1) = 4159 + 32 i + j.
        assert_eq!(eq.mem_dest.constant_term(), 4192 - 32 - 1);
        assert_eq!(eq.mem_dest.coeffs(), &[32, 0, 1]);
        // Mem_X(i,k,j) = 2136 + 32(i-1) + (k-1) = 2103 + 32 i + k.
        assert_eq!(eq.mem_perp.constant_term(), 2136 - 32 - 1);
        assert_eq!(eq.mem_perp.coeffs(), &[32, 1, 0]);
        assert!(!eq.is_self_interference());
        let shown = eq.to_string();
        assert!(
            shown.contains("512·n"),
            "display shows the way span: {shown}"
        );
    }

    #[test]
    fn contention_detects_same_set_distinct_line() {
        let (nest, cache) = eq5_setting();
        let sys = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
        let group = &sys.per_ref[0]
            .groups
            .iter()
            .find(|g| g.reuse.vector() == [0, 0, 1])
            .unwrap();
        let eq_self = group
            .replacements
            .iter()
            .find(|e| e.is_self_interference())
            .unwrap();
        // Same point => same address => same line => no contention (n = 0).
        assert_eq!(eq_self.contention_at(&cache, &[1, 1, 1], &[1, 1, 1]), None);
        // Z(j,i) at i-index differing by 16 columns: addresses differ by
        // 16*32 = 512 elements = exactly one way span: same set, n = ±1.
        assert_eq!(
            eq_self.contention_at(&cache, &[17, 1, 1], &[1, 1, 1]),
            Some(1)
        );
        assert_eq!(
            eq_self.contention_at(&cache, &[1, 1, 1], &[17, 1, 1]),
            Some(-1)
        );
        // Different set: no contention.
        assert_eq!(eq_self.contention_at(&cache, &[1, 1, 2], &[1, 1, 1]), None);
    }

    #[test]
    fn cold_equation_boundary_semantics() {
        let (nest, cache) = eq5_setting();
        let sys = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
        // Pruning keeps one source per same-gap family: along (0,0,1) the
        // Z load reuses the Z store, the more recent access to its line.
        let group = sys.per_ref[0]
            .groups
            .iter()
            .find(|g| g.reuse.vector() == [0, 0, 1])
            .unwrap();
        assert_eq!(group.reuse.source().index(), 3);
        // j = 1: first access along (0,0,1) -> cold solution.
        assert!(group.cold.is_solution(&nest, &cache, &[1, 1, 1]));
        // j = 2..4 share the line of j = 1 (4-element lines, aligned base).
        assert!(!group.cold.is_solution(&nest, &cache, &[1, 1, 2]));
        assert!(!group.cold.is_solution(&nest, &cache, &[1, 1, 4]));
        // j = 5 starts a new line -> boundary crossing -> cold solution.
        assert!(group.cold.is_solution(&nest, &cache, &[1, 1, 5]));
    }

    /// Brute-force mirror of `count_solutions`: enumerate every (i, j)
    /// window pair and count cache-set contentions with distinct lines.
    fn brute_solution_count(nest: &LoopNest, cache: &CacheConfig, eq: &ReplacementEquation) -> u64 {
        use cme_math::lexi::lex_cmp;
        use std::cmp::Ordering;
        let r = eq.reuse.vector();
        let src = eq.reuse.source().index();
        let (perp, dest) = (eq.perp.index(), eq.dest.index());
        let space = nest.space();
        let mut count = 0u64;
        let mut isp = nest.space();
        while let Some(i) = isp.next_point() {
            let p: Vec<i64> = i.iter().zip(r).map(|(a, b)| a - b).collect();
            let mut consider = |j: &[i64]| {
                if space.contains(j) && eq.contention_at(cache, &i, j).is_some() {
                    count += 1;
                }
            };
            if eq.reuse.is_intra_iteration() {
                if src < perp && perp < dest {
                    consider(&i);
                }
                continue;
            }
            // Interior: p ≺ j ≺ i over the *box* (membership re-checked).
            let bb = space.bounding_box();
            let mut j = bb.iter().map(|b| b.lo).collect::<Vec<_>>();
            'walk: loop {
                if lex_cmp(&j, &p) == Ordering::Greater && lex_cmp(&j, &i) == Ordering::Less {
                    consider(&j);
                }
                // Box odometer.
                let mut l = j.len();
                loop {
                    if l == 0 {
                        break 'walk;
                    }
                    l -= 1;
                    j[l] += 1;
                    if j[l] <= bb[l].hi {
                        break;
                    }
                    j[l] = bb[l].lo;
                }
                // Reset deeper levels after a carry.
                for m in (l + 1)..j.len() {
                    j[m] = bb[m].lo;
                }
            }
            if perp > src {
                consider(&p);
            }
            if perp < dest {
                consider(&i);
            }
        }
        count
    }

    #[test]
    fn symbolic_solution_count_matches_brute_force() {
        // Small matmul with conflict-prone bases on a tiny cache.
        let n = 6;
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, n).ct_loop("k", 1, n).ct_loop("j", 1, n);
        let z = b.array("Z", &[n, n], 0);
        let x = b.array("X", &[n, n], 64);
        let y = b.array("Y", &[n, n], 128);
        b.reference(z, AccessKind::Read, &[("j", 0), ("i", 0)]);
        b.reference(x, AccessKind::Read, &[("k", 0), ("i", 0)]);
        b.reference(y, AccessKind::Read, &[("j", 0), ("k", 0)]);
        b.reference(z, AccessKind::Write, &[("j", 0), ("i", 0)]);
        let nest = b.build().unwrap();
        let cache = CacheConfig::new(256, 1, 16, 4).unwrap(); // 64 elements
        let sys = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
        let mut checked = 0;
        for re in &sys.per_ref {
            for g in re.groups.iter().take(3) {
                for eq in &g.replacements {
                    let symbolic = eq.count_solutions(&nest, &cache);
                    let brute = brute_solution_count(&nest, &cache, eq);
                    assert_eq!(symbolic, brute, "equation {eq}");
                    checked += 1;
                }
            }
        }
        assert!(checked >= 12, "covered a meaningful number of equations");
    }

    #[test]
    fn symbolic_count_on_triangular_nest() {
        // Triangular gauss-like nest exercises affine bounds in the
        // polytope formulation.
        let mut b = NestBuilder::new();
        b.ct_loop("k", 1, 5);
        b.affine_loop(
            "i",
            cme_math::Affine::new(vec![1, 0], 1),
            cme_math::Affine::new(vec![0, 0], 6),
        );
        let a = b.array("A", &[8, 8], 0);
        let c = b.array("B", &[8, 8], 64); // one way span apart
        b.reference(a, AccessKind::Read, &[("i", 0), ("k", 0)]);
        b.reference(c, AccessKind::Write, &[("i", 0), ("k", 0)]);
        let nest = b.build().unwrap();
        let cache = CacheConfig::new(256, 1, 16, 4).unwrap();
        let sys = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
        for re in &sys.per_ref {
            for g in re.groups.iter().take(2) {
                for eq in &g.replacements {
                    assert_eq!(
                        eq.count_solutions(&nest, &cache),
                        brute_solution_count(&nest, &cache, eq),
                        "equation {eq}"
                    );
                }
            }
        }
    }

    #[test]
    fn system_covers_every_reference_and_counts_equations() {
        let (nest, cache) = eq5_setting();
        let sys = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
        assert_eq!(sys.per_ref.len(), 4);
        for (i, re) in sys.per_ref.iter().enumerate() {
            assert_eq!(re.dest.index(), i);
            assert!(!re.groups.is_empty(), "every ref has reuse here");
            for g in &re.groups {
                assert_eq!(g.replacements.len(), 4);
            }
        }
        let expected: usize = sys.per_ref.iter().map(|r| r.groups.len() * 5).sum();
        assert_eq!(sys.equation_count(), expected);
    }
}
