//! Property tests for the eventually periodic quasi-polynomial algebra
//! in `cme::math::quasipoly` — the closed-form layer that Section 5.1.3's
//! parametric sweeps fit and optimize over. Every algebraic operation is
//! checked pointwise against its definition, `argmin_with` against brute
//! force, and the fitter against round-trips on generated
//! eventually-periodic data.

use cme::math::quasipoly::{fit_eventually_periodic, QuasiPolynomial, TieBreak};
use proptest::prelude::*;

/// Generated quasi-polynomials stay small enough that evaluating them at
/// every probe point below fits comfortably in `i64`.
fn arb_quasi() -> impl Strategy<Value = QuasiPolynomial> {
    (
        proptest::collection::vec(-50i64..=50, 0..4),
        proptest::collection::vec((-50i64..=50, -8i64..=8, 0i64..=3), 1..6),
    )
        .prop_map(|(head, coeffs)| QuasiPolynomial::with_head(head, coeffs))
}

/// Evaluates the definition directly: verbatim head below the onset,
/// `a_r + b_r·p + c_r·p²` with `r = p mod m` at and beyond it.
fn eval_by_definition(q: &QuasiPolynomial, p: i64) -> i64 {
    if p < q.onset() {
        return q.head()[p as usize];
    }
    let m = q.period() as i64;
    let (a, b, c) = q.coefficients()[(p % m) as usize];
    a + b * p + c * p * p
}

/// Brute-force argmin over an inclusive range with an explicit tie-break,
/// the oracle for `argmin_with`'s candidate-pruned search.
fn brute_argmin(
    q: &QuasiPolynomial,
    range: std::ops::RangeInclusive<i64>,
    ties: TieBreak,
) -> (i64, i64) {
    let mut best: Option<(i64, i64)> = None;
    for p in range {
        let v = q.eval(p);
        let better = match best {
            None => true,
            Some((_, bv)) => match ties {
                TieBreak::SmallestParameter => v < bv,
                TieBreak::LargestParameter => v <= bv,
            },
        };
        if better {
            best = Some((p, v));
        }
    }
    best.unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `eval` agrees with the piecewise definition across the head, the
    /// onset boundary, and several full periods of the tail.
    #[test]
    fn eval_matches_definition(q in arb_quasi()) {
        for p in 0..=(q.onset() + 4 * q.period() as i64 + 3) {
            prop_assert_eq!(q.eval(p), eval_by_definition(&q, p), "at p={}", p);
        }
    }

    /// `add` is the pointwise sum, across both heads and the combined
    /// (lcm) period of the tails.
    #[test]
    fn add_is_pointwise_sum(f in arb_quasi(), g in arb_quasi()) {
        let sum = f.add(&g);
        let horizon = sum.onset() + 3 * sum.period() as i64 + 2;
        for p in 0..=horizon {
            prop_assert_eq!(sum.eval(p), f.eval(p) + g.eval(p), "at p={}", p);
        }
        prop_assert!(sum.period() % f.period() == 0 && sum.period() % g.period() == 0);
    }

    /// `scale` is pointwise multiplication by the scalar, including
    /// negative scalars (used when subtracting counted terms).
    #[test]
    fn scale_is_pointwise(f in arb_quasi(), k in -6i64..=6) {
        let scaled = f.scale(k);
        for p in 0..=(f.onset() + 3 * f.period() as i64 + 2) {
            prop_assert_eq!(scaled.eval(p), k * f.eval(p), "at p={}", p);
        }
    }

    /// `add` is commutative pointwise (the representations may differ in
    /// period normalization, so equality is semantic, not structural).
    #[test]
    fn add_commutes_pointwise(f in arb_quasi(), g in arb_quasi()) {
        let fg = f.add(&g);
        let gf = g.add(&f);
        for p in 0..=(fg.onset() + 2 * fg.period() as i64 + 1) {
            prop_assert_eq!(fg.eval(p), gf.eval(p), "at p={}", p);
        }
    }

    /// `argmin_with` equals the brute-force minimum under both tie-break
    /// policies — value *and* chosen parameter.
    #[test]
    fn argmin_matches_brute_force(
        q in arb_quasi(),
        lo in 0i64..20,
        span in 0i64..60,
    ) {
        let range = lo..=(lo + span);
        for ties in [TieBreak::SmallestParameter, TieBreak::LargestParameter] {
            let got = q.argmin_with(range.clone(), ties);
            let want = brute_argmin(&q, range.clone(), ties);
            prop_assert_eq!(got, want, "ties={:?} over {:?}", ties, &range);
        }
    }

    /// When `pointwise_min` returns a representation, it equals
    /// `min(f, g)` at every point of the range and below the onset; when
    /// the branches cross it returns `None` rather than an unsound blend.
    #[test]
    fn pointwise_min_is_exact_when_representable(
        f in arb_quasi(),
        g in arb_quasi(),
        span in 1i64..80,
    ) {
        let range = 0..=span;
        match f.pointwise_min(&g, range.clone()) {
            Some(m) => {
                for p in range {
                    prop_assert_eq!(
                        m.eval(p),
                        f.eval(p).min(g.eval(p)),
                        "at p={}",
                        p
                    );
                }
            }
            None => {
                // Refusal must be justified: the two functions genuinely
                // swap order somewhere on the range (a crossing), so no
                // single per-residue polynomial could equal the minimum.
                let mut f_below = false;
                let mut g_below = false;
                for p in range {
                    let (fv, gv) = (f.eval(p), g.eval(p));
                    f_below |= fv < gv;
                    g_below |= gv < fv;
                }
                prop_assert!(
                    f_below && g_below,
                    "pointwise_min refused without a crossing"
                );
            }
        }
    }

    /// Round trip through `fit_eventually_periodic`: sampling a generated
    /// function and re-fitting reproduces every sample, with a
    /// certificate whose window covers the samples and whose margin
    /// guarantees verification beyond bare interpolation.
    #[test]
    fn fit_eventually_periodic_round_trips(q in arb_quasi()) {
        let n = q.onset() as usize + 4 * q.period() + 4;
        let samples: Vec<i64> = (0..n as i64).map(|p| q.eval(p)).collect();
        let periods = [1, 2, 3, 4, 5, 6, 8, 10, 12];
        let (fitted, cert) =
            fit_eventually_periodic(&samples, &periods, q.onset() as usize + 2)
                .expect("a generated quasi-polynomial must re-fit");
        for (p, &v) in samples.iter().enumerate() {
            prop_assert_eq!(fitted.eval(p as i64), v, "at p={}", p);
        }
        prop_assert_eq!(cert.samples, n);
        prop_assert!(cert.verification_margin >= 1);
        prop_assert!(cert.degree <= 2);
        prop_assert!(periods.contains(&cert.period));
    }
}

/// Explicit replays of the recorded proptest counterexamples in
/// `tests/proptest-regressions/quasipoly_properties.txt`. The vendored
/// proptest build does not auto-load regression files, so each recorded
/// shrink is pinned here verbatim.
mod replays {
    use super::*;

    /// Recorded shrink of `pointwise_min_is_exact_when_representable`
    /// from a draft that asserted totality: two constants that cross
    /// nowhere on their own lattice still force a refusal when the
    /// crossing sits between residue classes. The correct contract —
    /// refusal is justified exactly when the branches swap order — must
    /// hold on this minimal crossing pair.
    #[test]
    fn replay_minimal_crossing_pair_refuses() {
        let f = QuasiPolynomial::with_head(vec![], vec![(0, 0, 0)]);
        let g = QuasiPolynomial::with_head(vec![], vec![(1, -1, 0)]);
        // g(0)=1 > f(0)=0 but g(2)=-1 < f(2)=0: a genuine crossing.
        assert!(f.pointwise_min(&g, 0..=2).is_none());
        // Off the crossing, the min is representable and exact.
        let m = f.pointwise_min(&g, 0..=0).expect("no crossing on 0..=0");
        assert_eq!(m.eval(0), 0);
    }

    /// The generator-found crossing pair recorded in the regressions
    /// file: a headed quadratic against a period-5 blend. `pointwise_min`
    /// must refuse it (the branches swap order on 0..=22), and that
    /// refusal must stay justified by an observable crossing.
    #[test]
    fn replay_generated_crossing_pair_refusal_is_justified() {
        let f = QuasiPolynomial::with_head(vec![-43, -30], vec![(-2, -7, 2), (-2, 7, 3)]);
        let g = QuasiPolynomial::with_head(
            vec![],
            vec![
                (-17, 0, 1),
                (40, 8, 1),
                (-15, -5, 3),
                (42, -2, 1),
                (-4, -4, 2),
            ],
        );
        assert!(f.pointwise_min(&g, 0..=22).is_none());
        let f_below = (0..=22).any(|p| f.eval(p) < g.eval(p));
        let g_below = (0..=22).any(|p| g.eval(p) < f.eval(p));
        assert!(f_below && g_below, "refusal without a crossing");
    }

    /// Recorded shrink of `argmin_matches_brute_force`: a head value
    /// strictly below every periodic value, with the range starting
    /// inside the head. Exercises the head/tail candidate split under
    /// both tie-break policies.
    #[test]
    fn replay_argmin_prefers_head_minimum() {
        let q = QuasiPolynomial::with_head(vec![5, -7, 5], vec![(0, 0, 0), (3, 0, 0)]);
        assert_eq!(q.argmin_with(0..=10, TieBreak::SmallestParameter), (1, -7));
        assert_eq!(q.argmin_with(2..=10, TieBreak::SmallestParameter), (4, 0));
        assert_eq!(q.argmin_with(2..=10, TieBreak::LargestParameter), (10, 0));
    }

    /// Recorded shrink of `fit_eventually_periodic_round_trips`: a
    /// quadratic residue class whose first samples alias a line —
    /// the fitter must keep enough verification margin to reject the
    /// degree-1 model and land on the quadratic.
    #[test]
    fn replay_fit_rejects_aliasing_linear_model() {
        let q = QuasiPolynomial::with_head(vec![9], vec![(2, 0, 1), (0, 1, 0)]);
        let samples: Vec<i64> = (0..15).map(|p| q.eval(p)).collect();
        let (fitted, cert) = fit_eventually_periodic(&samples, &[1, 2, 4], 2).expect("must fit");
        for (p, &v) in samples.iter().enumerate() {
            assert_eq!(fitted.eval(p as i64), v, "at p={p}");
        }
        assert_eq!(cert.degree, 2);
        assert!(cert.verification_margin >= 1);
    }
}
