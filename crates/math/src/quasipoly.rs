//! One-parameter quasi-polynomials (Ehrhart-style periodic counts).
//!
//! Section 5.1.3 of the paper derives the number of CME solutions as a
//! function of an optimization parameter (for example the inter-variable
//! spacing `|B_X − B_Y|`) using Ehrhart pseudo-polynomials, then minimizes
//! that function instead of enumerating every candidate value.
//!
//! For cache analysis the counting function of a single layout parameter is
//! *eventually periodic-polynomial*: after an onset threshold (boundary
//! effects of the first few candidate values), the cache mapping is periodic
//! with a period dividing the cache size, and the count restricted to each
//! residue class modulo the period is a polynomial of degree ≤ 2.
//! [`QuasiPolynomial`] represents exactly that — an explicit head of values
//! before the onset plus per-residue quadratics after it — and
//! [`fit_eventually_periodic`] recovers one from sampled counts together
//! with a [`FitCertificate`] recording the sample window and verification
//! margin. It is the one fitter: purely periodic and quasi-linear counts
//! are its degree-0 and degree-1 cases with onset 0.

use crate::gcd::{floor_div, lcm};
use std::fmt;

/// Evaluates the per-residue polynomial `a + b·p + c·p²` at `p`, widened
/// to `i128` so coefficient magnitudes near `i64::MAX` cannot wrap.
fn poly_eval((a, b, c): (i64, i64, i64), p: i64) -> i128 {
    let p = p as i128;
    a as i128 + b as i128 * p + c as i128 * p * p
}

/// How [`QuasiPolynomial::argmin_with`] breaks ties between parameters
/// achieving the same minimum value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Prefer the smallest parameter (the default of
    /// [`QuasiPolynomial::argmin`], and the least intrusive layout edit).
    SmallestParameter,
    /// Prefer the largest parameter (e.g. the most padded layout).
    LargestParameter,
}

/// An eventually periodic quasi-polynomial:
///
/// ```text
/// f(p) = head[p]                              for 0 <= p < onset
/// f(p) = a_r + b_r·p + c_r·p²,  r = p mod m   for p >= onset
/// ```
///
/// with per-residue polynomials of degree ≤ 2. `onset = 0` (no head) and
/// all `c_r = 0` recovers the per-residue linear form the paper
/// manipulates directly.
///
/// # Examples
///
/// ```
/// use cme_math::quasipoly::QuasiPolynomial;
/// // f(p) = 3 when p is even, 5 when p is odd.
/// let q = QuasiPolynomial::from_constants(vec![3, 5]);
/// assert_eq!(q.eval(4), 3);
/// assert_eq!(q.eval(7), 5);
/// assert_eq!(q.argmin(0..=9), (0, 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuasiPolynomial {
    /// Parameter value at which periodicity starts (`head.len() as i64`).
    onset: i64,
    /// Explicit values for `p < onset`.
    head: Vec<i64>,
    /// Per-residue `(a, b, c)` triples representing `a + b·p + c·p²`.
    coeffs: Vec<(i64, i64, i64)>,
}

impl QuasiPolynomial {
    /// Builds a quasi-polynomial with the given per-residue linear
    /// coefficients `(a, b)` meaning `a + b·p` for `p ≡ residue`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty.
    pub fn new(coeffs: Vec<(i64, i64)>) -> Self {
        QuasiPolynomial::quadratic(coeffs.into_iter().map(|(a, b)| (a, b, 0)).collect())
    }

    /// Builds a quasi-polynomial with per-residue quadratic coefficients
    /// `(a, b, c)` meaning `a + b·p + c·p²` for `p ≡ residue`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty.
    pub fn quadratic(coeffs: Vec<(i64, i64, i64)>) -> Self {
        assert!(!coeffs.is_empty(), "quasi-polynomial needs period >= 1");
        QuasiPolynomial {
            onset: 0,
            head: Vec::new(),
            coeffs,
        }
    }

    /// Builds a purely periodic (degree-0) quasi-polynomial from per-residue
    /// constants.
    ///
    /// # Panics
    ///
    /// Panics if `constants` is empty.
    pub fn from_constants(constants: Vec<i64>) -> Self {
        QuasiPolynomial::quadratic(constants.into_iter().map(|c| (c, 0, 0)).collect())
    }

    /// Builds an eventually periodic quasi-polynomial: `head` holds the
    /// explicit values for `p < head.len()` (the onset threshold), after
    /// which the per-residue quadratics take over.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs` is empty.
    pub fn with_head(head: Vec<i64>, coeffs: Vec<(i64, i64, i64)>) -> Self {
        assert!(!coeffs.is_empty(), "quasi-polynomial needs period >= 1");
        QuasiPolynomial {
            onset: head.len() as i64,
            head,
            coeffs,
        }
    }

    /// The period of the quasi-polynomial.
    pub fn period(&self) -> usize {
        self.coeffs.len()
    }

    /// The onset threshold: periodicity holds for `p >= onset()`.
    pub fn onset(&self) -> i64 {
        self.onset
    }

    /// The explicit pre-onset values (`f(0..onset)`).
    pub fn head(&self) -> &[i64] {
        &self.head
    }

    /// The per-residue `(a, b, c)` coefficient triples.
    pub fn coefficients(&self) -> &[(i64, i64, i64)] {
        &self.coeffs
    }

    /// The largest per-residue polynomial degree (0, 1, or 2).
    pub fn degree(&self) -> u8 {
        self.coeffs
            .iter()
            .map(|&(_, b, c)| if c != 0 { 2 } else { u8::from(b != 0) })
            .max()
            .unwrap_or(0)
    }

    fn eval_i128(&self, p: i64) -> i128 {
        assert!(p >= 0, "quasi-polynomial parameter must be non-negative");
        if p < self.onset {
            return self.head[p as usize] as i128;
        }
        poly_eval(self.coeffs[(p as usize) % self.coeffs.len()], p)
    }

    /// Evaluates the quasi-polynomial at `p >= 0`.
    ///
    /// # Panics
    ///
    /// Panics if `p < 0` or the value overflows `i64`.
    // Infallible for every function fitted from i64 samples within its
    // sampled window; out-of-range extrapolation overflowing i64 is a
    // caller error worth a loud panic, not a wrapped count.
    #[allow(clippy::expect_used)]
    pub fn eval(&self, p: i64) -> i64 {
        i64::try_from(self.eval_i128(p)).expect("quasi-polynomial value overflows i64")
    }

    /// Pointwise sum: `(self.add(o)).eval(p) == self.eval(p) + o.eval(p)`
    /// for every `p >= 0`. The period is the lcm of the operands' periods
    /// and the onset the larger of the two.
    ///
    /// # Panics
    ///
    /// Panics if a combined coefficient or head value overflows `i64`.
    #[allow(clippy::expect_used)]
    pub fn add(&self, other: &QuasiPolynomial) -> QuasiPolynomial {
        let m = lcm(self.period() as i64, other.period() as i64) as usize;
        let onset = self.onset.max(other.onset);
        let over = "quasi-polynomial sum overflows i64";
        let head: Vec<i64> = (0..onset)
            .map(|p| i64::try_from(self.eval_i128(p) + other.eval_i128(p)).expect(over))
            .collect();
        let coeffs: Vec<(i64, i64, i64)> = (0..m)
            .map(|r| {
                let (a1, b1, c1) = self.coeffs[r % self.period()];
                let (a2, b2, c2) = other.coeffs[r % other.period()];
                (
                    a1.checked_add(a2).expect(over),
                    b1.checked_add(b2).expect(over),
                    c1.checked_add(c2).expect(over),
                )
            })
            .collect();
        QuasiPolynomial {
            onset,
            head,
            coeffs,
        }
    }

    /// Pointwise scaling: `(self.scale(k)).eval(p) == k * self.eval(p)`.
    ///
    /// # Panics
    ///
    /// Panics if a scaled coefficient or head value overflows `i64`.
    #[allow(clippy::expect_used)]
    pub fn scale(&self, k: i64) -> QuasiPolynomial {
        let over = "quasi-polynomial scale overflows i64";
        QuasiPolynomial {
            onset: self.onset,
            head: self
                .head
                .iter()
                .map(|&v| v.checked_mul(k).expect(over))
                .collect(),
            coeffs: self
                .coeffs
                .iter()
                .map(|&(a, b, c)| {
                    (
                        a.checked_mul(k).expect(over),
                        b.checked_mul(k).expect(over),
                        c.checked_mul(k).expect(over),
                    )
                })
                .collect(),
        }
    }

    /// Candidate parameters where the residue-`r` polynomial can attain an
    /// extremum over the class lattice `{p ≡ r (mod m)} ∩ [lo, hi]`: the
    /// class endpoints, plus the lattice points bracketing the vertex when
    /// the parabola opens toward the requested extremum.
    fn class_extremum_candidates(&self, r: i64, lo: i64, hi: i64, want_min: bool) -> Vec<i64> {
        let m = self.coeffs.len() as i64;
        let first = lo + (r - lo).rem_euclid(m);
        if first > hi {
            return Vec::new();
        }
        let last = hi - (hi - r).rem_euclid(m);
        let mut cands = vec![first, last];
        let (_, b, c) = self.coeffs[r.rem_euclid(m) as usize];
        // Interior extremum only when the parabola opens the right way.
        if c != 0 && ((c > 0) == want_min) {
            // Vertex at -b / (2c); bracket it with the two nearest class
            // lattice points first + k·m (exact integer floor division).
            let (mut num, mut den) = (-b, 2 * c);
            if den < 0 {
                num = -num;
                den = -den;
            }
            let k = floor_div(num - first * den, m * den);
            for cand in [first + k * m, first + (k + 1) * m] {
                if cand >= first && cand <= last {
                    cands.push(cand);
                }
            }
        }
        cands
    }

    /// Finds the parameter in `range` that minimizes the quasi-polynomial,
    /// returning `(argmin, min)`. Ties break toward the smaller parameter
    /// ([`TieBreak::SmallestParameter`]; see
    /// [`QuasiPolynomial::argmin_with`] for the explicit policy).
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or contains negative values.
    pub fn argmin(&self, range: std::ops::RangeInclusive<i64>) -> (i64, i64) {
        self.argmin_with(range, TieBreak::SmallestParameter)
    }

    /// [`QuasiPolynomial::argmin`] with an explicit tie-breaking policy.
    ///
    /// Only the pre-onset head values inside the range, each residue
    /// class's endpoints, and (for upward parabolas) the lattice points
    /// around each vertex need inspecting — the "function optimization"
    /// step of Section 5.1.3 done exactly, degree ≤ 2 included.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or contains negative values.
    // Infallible: `lo <= hi` is asserted, so either the head or the
    // residue class of the first periodic point contributes a candidate.
    #[allow(clippy::expect_used)]
    pub fn argmin_with(&self, range: std::ops::RangeInclusive<i64>, ties: TieBreak) -> (i64, i64) {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "empty parameter range");
        assert!(lo >= 0, "parameters must be non-negative");
        let mut best: Option<(i64, i128)> = None;
        let mut consider = |p: i64, v: i128| {
            let better = match best {
                None => true,
                Some((bp, bv)) => {
                    v < bv
                        || (v == bv
                            && match ties {
                                TieBreak::SmallestParameter => p < bp,
                                TieBreak::LargestParameter => p > bp,
                            })
                }
            };
            if better {
                best = Some((p, v));
            }
        };
        // Head values inside the range, verbatim.
        for p in lo..=hi.min(self.onset - 1) {
            consider(p, self.eval_i128(p));
        }
        // Periodic part: per-residue extremum candidates.
        let plo = lo.max(self.onset);
        if plo <= hi {
            for r in 0..self.coeffs.len() as i64 {
                for p in self.class_extremum_candidates(r, plo, hi, true) {
                    consider(p, self.eval_i128(p));
                }
            }
        }
        let (p, v) = best.expect("non-empty range always yields a candidate");
        (
            p,
            i64::try_from(v).expect("quasi-polynomial value overflows i64"),
        )
    }

    /// Exact pointwise minimum of two quasi-polynomials over `range`,
    /// when the minimum is itself representable as one eventually
    /// periodic quasi-polynomial (period = lcm of the operands').
    ///
    /// Per residue class the difference is a quadratic; if it changes
    /// sign on the class lattice inside the range (the branches cross),
    /// no single per-residue polynomial equals the minimum and `None` is
    /// returned — callers fall back to evaluating both functions. When
    /// `Some(q)` is returned, `q.eval(p) == min(self.eval(p),
    /// other.eval(p))` for every `p` in `range` (and every `p` below the
    /// combined onset).
    pub fn pointwise_min(
        &self,
        other: &QuasiPolynomial,
        range: std::ops::RangeInclusive<i64>,
    ) -> Option<QuasiPolynomial> {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "empty parameter range");
        assert!(lo >= 0, "parameters must be non-negative");
        let m = lcm(self.period() as i64, other.period() as i64) as usize;
        let onset = self.onset.max(other.onset);
        let head: Vec<i64> = (0..onset)
            .map(|p| i64::try_from(self.eval_i128(p).min(other.eval_i128(p))).ok())
            .collect::<Option<_>>()?;
        let plo = lo.max(onset);
        let mut coeffs = Vec::with_capacity(m);
        for r in 0..m as i64 {
            let pa = self.coeffs[(r as usize) % self.period()];
            let pb = other.coeffs[(r as usize) % other.period()];
            // Difference self − other on this residue class, in i128 via
            // the shared evaluator (coefficient subtraction could wrap).
            let diff = |p: i64| poly_eval(pa, p) - poly_eval(pb, p);
            // Sign analysis over the class lattice ∩ [plo, hi]: extremum
            // candidates of the difference quadratic.
            let dc = pa.2.checked_sub(pb.2)?;
            let db = pa.1.checked_sub(pb.1)?;
            let da = pa.0.checked_sub(pb.0)?;
            let d = QuasiPolynomial {
                onset: 0,
                head: Vec::new(),
                coeffs: {
                    let mut v = vec![(0, 0, 0); m];
                    v[r as usize] = (da, db, dc);
                    v
                },
            };
            let (dmin, dmax) = if plo > hi {
                (0, 0) // class has no point in range: keep either branch
            } else {
                let mins = d.class_extremum_candidates(r, plo, hi, true);
                let maxs = d.class_extremum_candidates(r, plo, hi, false);
                if mins.is_empty() {
                    (0, 0)
                } else {
                    (
                        mins.iter().map(|&p| diff(p)).min().unwrap_or(0),
                        maxs.iter().map(|&p| diff(p)).max().unwrap_or(0),
                    )
                }
            };
            if dmin >= 0 {
                coeffs.push(pb); // other <= self on the whole class
            } else if dmax <= 0 {
                coeffs.push(pa); // self <= other on the whole class
            } else {
                return None; // branches cross: not representable
            }
        }
        Some(QuasiPolynomial {
            onset,
            head,
            coeffs,
        })
    }
}

impl fmt::Display for QuasiPolynomial {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.onset > 0 {
            write!(f, "head{:?} then ", self.head)?;
        }
        write!(f, "[p mod {}] -> ", self.coeffs.len())?;
        let shown = self.coeffs.len().min(16);
        for (i, (a, b, c)) in self.coeffs.iter().take(shown).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}")?;
            if *b != 0 {
                write!(f, "+{b}p")?;
            }
            if *c != 0 {
                write!(f, "+{c}p²")?;
            }
        }
        if self.coeffs.len() > shown {
            // Infallible: this branch requires `coeffs.len() > shown >= 0`,
            // so the iterator is non-empty.
            #[allow(clippy::unwrap_used)]
            let lo = self.coeffs.iter().map(|(a, _, _)| a).min().unwrap();
            #[allow(clippy::unwrap_used)]
            let hi = self.coeffs.iter().map(|(a, _, _)| a).max().unwrap();
            write!(
                f,
                ", … ({} more residues; constants range {lo}..={hi})",
                self.coeffs.len() - shown
            )?;
        }
        Ok(())
    }
}

/// Exact-fit certificate of [`fit_eventually_periodic`]: the window the
/// function was fitted and verified over, and by what margin.
///
/// The certificate's guarantee: every sample in the window `0..samples`
/// reproduces exactly, every residue class kept at least
/// `verification_margin` samples *beyond* the points consumed by
/// interpolation (so the fit is never a bare interpolation), and the head
/// below `onset` is stored verbatim.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitCertificate {
    /// The fitted period.
    pub period: usize,
    /// The onset threshold before which values are stored verbatim.
    pub onset: i64,
    /// Largest per-residue polynomial degree used (0, 1, or 2).
    pub degree: u8,
    /// Number of samples in the fitted window (`f(0..samples)`).
    pub samples: usize,
    /// Minimum, over residue classes, of samples verified beyond the
    /// interpolation points — always ≥ 1.
    pub verification_margin: usize,
}

impl fmt::Display for FitCertificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "period {} onset {} degree {} over {} samples (margin {})",
            self.period, self.onset, self.degree, self.samples, self.verification_margin
        )
    }
}

/// Error returned by [`fit_eventually_periodic`] when no quasi-polynomial
/// of any admissible onset and period explains the samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitPeriodicError {
    tried: Vec<usize>,
}

impl fmt::Display for FitPeriodicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "no eventually periodic model fits the samples (periods tried: {:?})",
            self.tried
        )
    }
}

impl std::error::Error for FitPeriodicError {}

/// Fits the minimal-degree polynomial (≤ 2) through one residue class's
/// samples `(pts[i], vals[i])` with spacing `m` between points, verifying
/// every remaining sample. Returns `(a, b, c, degree, margin)` — `margin`
/// counts the samples beyond the interpolation points — or `None` when no
/// exact integer polynomial of degree ≤ 2 reproduces the class.
fn fit_class(pts: &[i64], vals: &[i64], m: i64) -> Option<(i64, i64, i64, u8, usize)> {
    let verify = |a: i64, b: i64, c: i64| {
        pts.iter()
            .zip(vals)
            .all(|(&p, &v)| poly_eval((a, b, c), p) == v as i128)
    };
    // Degree 0: all values equal.
    if vals.iter().all(|&v| v == vals[0]) {
        return Some((vals[0], 0, 0, 0, vals.len() - 1));
    }
    // Degree 1 from the first two points: b·m = f1 − f0.
    if vals.len() >= 3 {
        let d1 = vals[1] as i128 - vals[0] as i128;
        if d1 % m as i128 == 0 {
            let b = i64::try_from(d1 / m as i128).ok()?;
            let a = i64::try_from(vals[0] as i128 - b as i128 * pts[0] as i128).ok()?;
            if verify(a, b, 0) {
                return Some((a, b, 0, 1, vals.len() - 2));
            }
        }
    }
    // Degree 2 from the first three points: 2c·m² = f2 − 2f1 + f0.
    if vals.len() >= 4 {
        let p0 = pts[0] as i128;
        let mm = m as i128;
        let second = vals[2] as i128 - 2 * vals[1] as i128 + vals[0] as i128;
        if second % (2 * mm * mm) == 0 {
            let c = second / (2 * mm * mm);
            let d1 = vals[1] as i128 - vals[0] as i128;
            let bnum = d1 - c * mm * (2 * p0 + mm);
            if bnum % mm == 0 {
                let b = bnum / mm;
                let a = vals[0] as i128 - b * p0 - c * p0 * p0;
                let (a, b, c) = (
                    i64::try_from(a).ok()?,
                    i64::try_from(b).ok()?,
                    i64::try_from(c).ok()?,
                );
                if verify(a, b, c) {
                    return Some((a, b, c, 2, vals.len() - 3));
                }
            }
        }
    }
    None
}

/// Fits an eventually periodic quasi-polynomial (degree ≤ 2 per residue
/// class, onset threshold ≤ `max_onset`) to `samples[p] = f(p)`, returning
/// the function together with its exact-fit [`FitCertificate`].
///
/// Candidate onsets are tried smallest-first and, per onset, candidate
/// periods in the order given. A fit is accepted only when every sample at
/// or beyond the onset reproduces exactly **and** every residue class
/// keeps at least one sample beyond its interpolation points (certificate
/// margin ≥ 1): a degree-0 class needs 2 samples, degree-1 needs 3,
/// degree-2 needs 4. Values below the onset are stored verbatim as the
/// head.
///
/// # Errors
///
/// Returns [`FitPeriodicError`] when no `(onset, period)` pair admits a
/// certified fit; callers fall back to exhaustive evaluation.
///
/// # Examples
///
/// ```
/// use cme_math::quasipoly::fit_eventually_periodic;
/// // Two irregular warm-up values, then period 3.
/// let mut samples = vec![100, 90];
/// samples.extend((2..26).map(|p| [7, 3, 9][p % 3]));
/// let (q, cert) = fit_eventually_periodic(&samples, &[1, 3], 4).unwrap();
/// assert_eq!(cert.period, 3);
/// assert_eq!(cert.onset, 2);
/// assert_eq!(q.eval(0), 100);
/// assert_eq!(q.eval(300), 7);
/// ```
pub fn fit_eventually_periodic(
    samples: &[i64],
    periods: &[usize],
    max_onset: usize,
) -> Result<(QuasiPolynomial, FitCertificate), FitPeriodicError> {
    let n = samples.len();
    for onset in 0..=max_onset.min(n.saturating_sub(2)) {
        'periods: for &m in periods {
            if m == 0 || n - onset < 2 * m {
                continue;
            }
            let mut coeffs = Vec::with_capacity(m);
            let mut degree = 0u8;
            let mut margin = usize::MAX;
            for r in 0..m as i64 {
                let o = onset as i64;
                let first = o + (r - o).rem_euclid(m as i64);
                let pts: Vec<i64> = (first..n as i64).step_by(m).collect();
                let vals: Vec<i64> = pts.iter().map(|&p| samples[p as usize]).collect();
                match fit_class(&pts, &vals, m as i64) {
                    Some((a, b, c, d, mg)) if mg >= 1 => {
                        coeffs.push((a, b, c));
                        degree = degree.max(d);
                        margin = margin.min(mg);
                    }
                    _ => continue 'periods,
                }
            }
            return Ok((
                QuasiPolynomial::with_head(samples[..onset].to_vec(), coeffs),
                FitCertificate {
                    period: m,
                    onset: onset as i64,
                    degree,
                    samples: n,
                    verification_margin: margin,
                },
            ));
        }
    }
    Err(FitPeriodicError {
        tried: periods.to_vec(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_periodic_linear() {
        // Even p: 1 + p, odd p: 10.
        let q = QuasiPolynomial::new(vec![(1, 1), (10, 0)]);
        assert_eq!(q.eval(0), 1);
        assert_eq!(q.eval(2), 3);
        assert_eq!(q.eval(3), 10);
    }

    #[test]
    fn argmin_prefers_smallest_parameter_on_ties() {
        let q = QuasiPolynomial::from_constants(vec![5, 5, 5, 5]);
        assert_eq!(q.argmin(2..=9), (2, 5));
        assert_eq!(q.argmin_with(2..=9, TieBreak::LargestParameter), (9, 5));
    }

    #[test]
    fn argmin_scans_residue_endpoints() {
        // f(p) = 100 - p for p ≡ 0 (mod 2); 1000 otherwise: min at largest even p.
        let q = QuasiPolynomial::new(vec![(100, -1), (1000, 0)]);
        assert_eq!(q.argmin(0..=10), (10, 90));
        assert_eq!(q.argmin(0..=9), (8, 92));
    }

    #[test]
    fn argmin_finds_interior_quadratic_vertex() {
        // f(p) = (p - 7)² + 2 on every residue: vertex at p = 7.
        let q = QuasiPolynomial::quadratic(vec![(51, -14, 1)]);
        assert_eq!(q.argmin(0..=100), (7, 2));
        // Vertex at 7.5 between lattice points: both neighbors tie at 2;
        // smallest-parameter policy picks 7.
        let q = QuasiPolynomial::quadratic(vec![(2 * 56 + 1, -2 * 15, 2)]);
        assert_eq!(q.argmin(0..=100).1, q.eval(7).min(q.eval(8)));
    }

    #[test]
    fn argmin_respects_head_values() {
        let q = QuasiPolynomial::with_head(vec![0, 99], vec![(50, 0, 0)]);
        assert_eq!(q.argmin(0..=10), (0, 0));
        assert_eq!(q.argmin(1..=10), (2, 50));
    }

    #[test]
    fn add_and_scale_are_pointwise() {
        let f = QuasiPolynomial::with_head(vec![3], vec![(1, 2, 0), (5, 0, 1)]);
        let g = QuasiPolynomial::new(vec![(10, -1), (0, 3), (7, 0)]);
        let sum = f.add(&g);
        let scaled = f.scale(-3);
        assert_eq!(sum.period(), 6);
        for p in 0..60 {
            assert_eq!(sum.eval(p), f.eval(p) + g.eval(p), "add at p={p}");
            assert_eq!(scaled.eval(p), -3 * f.eval(p), "scale at p={p}");
        }
    }

    #[test]
    fn pointwise_min_selects_dominating_branches() {
        // f = 10 (even), 1 (odd); g = 4 everywhere: min = 4 (even), 1 (odd).
        let f = QuasiPolynomial::from_constants(vec![10, 1]);
        let g = QuasiPolynomial::from_constants(vec![4]);
        let m = f.pointwise_min(&g, 0..=100).unwrap();
        for p in 0..=100 {
            assert_eq!(m.eval(p), f.eval(p).min(g.eval(p)));
        }
    }

    #[test]
    fn pointwise_min_rejects_crossing_branches() {
        // f = p, g = 50: they cross at p = 50 inside the range.
        let f = QuasiPolynomial::new(vec![(0, 1)]);
        let g = QuasiPolynomial::from_constants(vec![50]);
        assert!(f.pointwise_min(&g, 0..=100).is_none());
        // Outside the crossing the min is representable again.
        let m = f.pointwise_min(&g, 0..=40).unwrap();
        for p in 0..=40 {
            assert_eq!(m.eval(p), f.eval(p).min(g.eval(p)));
        }
    }

    #[test]
    fn eventually_periodic_fit_recovers_onset_and_quadratics() {
        // f(p) = 1000 for p < 3, then per-residue mod 2: p² + 1 (even),
        // 5p (odd).
        let f = |p: i64| {
            if p < 3 {
                1000
            } else if p % 2 == 0 {
                p * p + 1
            } else {
                5 * p
            }
        };
        let samples: Vec<i64> = (0..16).map(f).collect();
        let (q, cert) = fit_eventually_periodic(&samples, &[1, 2], 4).unwrap();
        assert_eq!(cert.period, 2);
        assert_eq!(cert.onset, 3);
        assert_eq!(cert.degree, 2);
        assert!(cert.verification_margin >= 1);
        for p in 0..40 {
            assert_eq!(q.eval(p), f(p), "p={p}");
        }
        assert!(cert.to_string().contains("period 2"));
    }

    #[test]
    fn eventually_periodic_fit_requires_a_verification_margin() {
        // Exactly 2 samples of a degree-1 class: interpolation alone must
        // not count as a fit.
        let samples = [0i64, 1];
        assert!(fit_eventually_periodic(&samples, &[1], 0).is_err());
        // With a third sample verifying the line, the fit is certified.
        let samples = [0i64, 1, 2];
        let (q, cert) = fit_eventually_periodic(&samples, &[1], 0).unwrap();
        assert_eq!(cert.degree, 1);
        assert_eq!(cert.verification_margin, 1);
        assert_eq!(q.eval(100), 100);
    }

    #[test]
    fn eventually_periodic_prefers_smallest_onset_and_listed_period_order() {
        let samples: Vec<i64> = (0..24).map(|p| [4, 4, 9, 9][p % 4]).collect();
        let (q, cert) = fit_eventually_periodic(&samples, &[1, 2, 4, 8], 6).unwrap();
        assert_eq!(cert.onset, 0);
        assert_eq!(cert.period, 4);
        assert_eq!(q.period(), 4);
    }

    #[test]
    fn display_shows_head_and_quadratic_terms() {
        let q = QuasiPolynomial::with_head(vec![9], vec![(1, 2, 3)]);
        let s = q.to_string();
        assert!(s.contains("head[9]"), "{s}");
        assert!(s.contains("1+2p+3p²"), "{s}");
    }
}
