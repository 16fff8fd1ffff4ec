//! Exact lattice-point counting for systems of linear constraints — the
//! role played by the Omega test and Ehrhart-polynomial engines [6, 18, 19]
//! in the paper's Section 5.1.2 ("Using Solution Counting Engines").
//!
//! A [`Polytope`] is a conjunction of integer linear inequalities
//! `Σ c·x ≤ b` (equalities are stored as inequality pairs) over a fixed
//! variable space. Counting proceeds by depth-first assignment with
//! **interval-propagated bound tightening**: at each level, every
//! constraint involving the current variable yields a bound once the
//! already-fixed prefix is substituted and the still-free suffix is
//! relaxed to its interval hull. For the equation-dominated systems CMEs
//! produce, this prunes the search to the solutions themselves — the DFS
//! touches no more nodes than solutions-times-depth plus the dead branches
//! cut at the first infeasible level.

use crate::interval::Interval;
use std::fmt;

/// A conjunction of linear constraints over `n` integer variables, counted
/// inside an enclosing box (the loop bounds, in CME use).
///
/// # Examples
///
/// ```
/// use cme_math::polytope::Polytope;
/// use cme_math::Interval;
///
/// // x + y <= 4,  x - y == 1,  0 <= x,y <= 10.
/// let mut p = Polytope::new(2);
/// p.le(vec![1, 1], 4);
/// p.eq_to(vec![1, -1], 1);
/// let bounds = [Interval::new(0, 10), Interval::new(0, 10)];
/// // Solutions: (1,0), (2,1) — (3,2) violates x+y<=4... check: 3+2=5>4. So 2.
/// assert_eq!(p.count_points(&bounds), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Polytope {
    n: usize,
    /// Constraints `coeffs · x <= rhs`.
    cons: Vec<(Vec<i64>, i64)>,
}

impl Polytope {
    /// An unconstrained polytope over `n` variables.
    pub fn new(n: usize) -> Self {
        Polytope {
            n,
            cons: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn nvars(&self) -> usize {
        self.n
    }

    /// Number of stored inequalities.
    pub fn len(&self) -> usize {
        self.cons.len()
    }

    /// `true` when no constraints have been added.
    pub fn is_empty(&self) -> bool {
        self.cons.is_empty()
    }

    /// Adds `coeffs · x <= rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != nvars`.
    pub fn le(&mut self, coeffs: Vec<i64>, rhs: i64) -> &mut Self {
        assert_eq!(coeffs.len(), self.n, "constraint arity mismatch");
        self.cons.push((coeffs, rhs));
        self
    }

    /// Adds `coeffs · x >= rhs`.
    pub fn ge(&mut self, coeffs: Vec<i64>, rhs: i64) -> &mut Self {
        let neg: Vec<i64> = coeffs.iter().map(|c| -c).collect();
        self.le(neg, -rhs)
    }

    /// Adds `coeffs · x == rhs` (as an inequality pair).
    pub fn eq_to(&mut self, coeffs: Vec<i64>, rhs: i64) -> &mut Self {
        self.le(coeffs.clone(), rhs);
        self.ge(coeffs, rhs)
    }

    /// Tests a concrete point against all constraints.
    ///
    /// # Panics
    ///
    /// Panics if `point.len() != nvars`.
    pub fn contains(&self, point: &[i64]) -> bool {
        assert_eq!(point.len(), self.n, "point arity mismatch");
        self.cons
            .iter()
            .all(|(c, b)| c.iter().zip(point).map(|(a, x)| a * x).sum::<i64>() <= *b)
    }

    /// Exact number of integer points satisfying every constraint inside
    /// the box.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len() != nvars`.
    pub fn count_points(&self, bounds: &[Interval]) -> u64 {
        let mut count = 0u64;
        self.walk(bounds, &mut |_| {
            count += 1;
            true
        });
        count
    }

    /// Whether at least one integer point exists inside the box.
    pub fn is_feasible(&self, bounds: &[Interval]) -> bool {
        let mut found = false;
        self.walk(bounds, &mut |_| {
            found = true;
            false
        });
        found
    }

    /// Visits every solution in lexicographic order; `visit` returns
    /// `false` to stop early.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.len() != nvars`.
    pub fn for_each_point(&self, bounds: &[Interval], mut visit: impl FnMut(&[i64]) -> bool) {
        self.walk(bounds, &mut visit);
    }

    fn walk(&self, bounds: &[Interval], visit: &mut dyn FnMut(&[i64]) -> bool) {
        assert_eq!(bounds.len(), self.n, "bounds arity mismatch");
        if bounds.iter().any(Interval::is_empty) {
            return;
        }
        if self.n == 0 {
            if self.cons.iter().all(|(_, b)| *b >= 0) {
                visit(&[]);
            }
            return;
        }
        let mut point = vec![0i64; self.n];
        self.dfs(0, bounds, &mut point, visit);
    }

    /// Returns `false` when the visitor asked to stop.
    fn dfs(
        &self,
        level: usize,
        bounds: &[Interval],
        point: &mut Vec<i64>,
        visit: &mut dyn FnMut(&[i64]) -> bool,
    ) -> bool {
        // Tighten the current variable's range with every constraint.
        let mut lo = bounds[level].lo;
        let mut hi = bounds[level].hi;
        for (coeffs, rhs) in &self.cons {
            let c = coeffs[level];
            // Fixed prefix contribution.
            let fixed: i64 = coeffs[..level]
                .iter()
                .zip(&point[..level])
                .map(|(a, x)| a * x)
                .sum();
            // Interval hull of the free suffix (variables after `level`).
            let mut suffix = Interval::point(0);
            for (l, &a) in coeffs.iter().enumerate().skip(level + 1) {
                if a != 0 {
                    suffix = suffix + bounds[l] * a;
                }
            }
            // fixed + c·x + suffix <= rhs must be satisfiable:
            // c·x <= rhs - fixed - suffix.lo.
            let slack = rhs - fixed - suffix.lo;
            if c == 0 {
                if slack < 0 {
                    return true; // infeasible branch, keep searching siblings
                }
            } else if c > 0 {
                hi = hi.min(crate::gcd::floor_div(slack, c));
            } else {
                lo = lo.max(-crate::gcd::floor_div(slack, -c));
            }
        }
        if lo > hi {
            return true;
        }
        if level + 1 == self.n {
            for x in lo..=hi {
                point[level] = x;
                // Final exact check (suffix relaxation is exact here, but a
                // zero-coefficient constraint may still bind).
                if self.contains(point) && !visit(point) {
                    return false;
                }
            }
            return true;
        }
        for x in lo..=hi {
            point[level] = x;
            if !self.dfs(level + 1, bounds, point, visit) {
                return false;
            }
        }
        true
    }
}

impl fmt::Display for Polytope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (c, b)) in self.cons.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            let mut wrote = false;
            for (l, &a) in c.iter().enumerate() {
                if a == 0 {
                    continue;
                }
                if wrote {
                    write!(f, " {} ", if a < 0 { "-" } else { "+" })?;
                } else if a < 0 {
                    write!(f, "-")?;
                }
                if a.abs() == 1 {
                    write!(f, "x{l}")?;
                } else {
                    write!(f, "{}*x{l}", a.abs())?;
                }
                wrote = true;
            }
            if !wrote {
                write!(f, "0")?;
            }
            write!(f, " <= {b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn brute_count(p: &Polytope, bounds: &[Interval]) -> u64 {
        fn rec(p: &Polytope, bounds: &[Interval], point: &mut Vec<i64>, level: usize) -> u64 {
            if level == bounds.len() {
                return u64::from(p.contains(point));
            }
            let mut n = 0;
            for x in bounds[level].lo..=bounds[level].hi {
                point[level] = x;
                n += rec(p, bounds, point, level + 1);
            }
            n
        }
        let mut point = vec![0i64; bounds.len()];
        rec(p, bounds, &mut point, 0)
    }

    #[test]
    fn doc_example() {
        let mut p = Polytope::new(2);
        p.le(vec![1, 1], 4);
        p.eq_to(vec![1, -1], 1);
        let bounds = [Interval::new(0, 10), Interval::new(0, 10)];
        assert_eq!(p.count_points(&bounds), 2);
        assert!(p.is_feasible(&bounds));
        assert!(p.contains(&[1, 0]));
        assert!(!p.contains(&[3, 3]));
    }

    #[test]
    fn unconstrained_counts_the_box() {
        let p = Polytope::new(3);
        let b = [
            Interval::new(0, 2),
            Interval::new(-1, 1),
            Interval::new(5, 5),
        ];
        assert_eq!(p.count_points(&b), 9);
    }

    #[test]
    fn empty_box_and_infeasible_systems() {
        let mut p = Polytope::new(1);
        p.le(vec![1], -1).ge(vec![1], 1);
        assert_eq!(p.count_points(&[Interval::new(-10, 10)]), 0);
        assert!(!p.is_feasible(&[Interval::new(-10, 10)]));
        let q = Polytope::new(1);
        assert_eq!(q.count_points(&[Interval::EMPTY]), 0);
    }

    #[test]
    fn zero_vars() {
        let p = Polytope::new(0);
        assert_eq!(p.count_points(&[]), 1);
    }

    #[test]
    fn for_each_visits_in_lex_order_and_stops() {
        let mut p = Polytope::new(2);
        p.le(vec![1, 1], 2);
        let b = [Interval::new(0, 2), Interval::new(0, 2)];
        let mut pts = Vec::new();
        p.for_each_point(&b, |q| {
            pts.push(q.to_vec());
            true
        });
        assert_eq!(
            pts,
            vec![
                vec![0, 0],
                vec![0, 1],
                vec![0, 2],
                vec![1, 0],
                vec![1, 1],
                vec![2, 0]
            ]
        );
        let mut seen = 0;
        p.for_each_point(&b, |_| {
            seen += 1;
            seen < 3
        });
        assert_eq!(seen, 3);
    }

    #[test]
    fn diophantine_style_equation() {
        // The Eq. 4 shape: a - b - 512 n == delta with a, b in ranges,
        // n != 0 handled as two disjoint polytopes.
        let count_with = |n_sign: i64| -> u64 {
            let mut p = Polytope::new(3); // (a, b, n)
            p.eq_to(vec![1, -1, -512], 0);
            if n_sign > 0 {
                p.ge(vec![0, 0, 1], 1);
            } else {
                p.le(vec![0, 0, 1], -1);
            }
            p.count_points(&[
                Interval::new(4192, 4192 + 1023),
                Interval::new(2136, 2136 + 1023),
                Interval::new(-8, 8),
            ])
        };
        let total = count_with(1) + count_with(-1);
        // Brute-force cross-check.
        let mut brute = 0u64;
        for a in 4192..4192 + 1024 {
            for n in -8i64..=8 {
                if n == 0 {
                    continue;
                }
                let b = a - 512 * n;
                if (2136..2136 + 1024).contains(&b) {
                    brute += 1;
                }
            }
        }
        assert_eq!(total, brute);
        assert!(total > 0);
    }

    proptest! {
        #[test]
        fn prop_count_matches_brute_force(
            n_cons in 0usize..4,
            coeffs in proptest::collection::vec(-3i64..=3, 12),
            rhs in proptest::collection::vec(-6i64..=6, 4),
            eq_mask in 0u8..16,
        ) {
            let mut p = Polytope::new(3);
            for k in 0..n_cons {
                let c = coeffs[k * 3..k * 3 + 3].to_vec();
                if eq_mask & (1 << k) != 0 {
                    p.eq_to(c, rhs[k]);
                } else {
                    p.le(c, rhs[k]);
                }
            }
            let bounds = [
                Interval::new(-3, 3),
                Interval::new(0, 4),
                Interval::new(-2, 2),
            ];
            prop_assert_eq!(p.count_points(&bounds), brute_count(&p, &bounds));
            prop_assert_eq!(p.is_feasible(&bounds), brute_count(&p, &bounds) > 0);
        }
    }
}
