//! Differential oracle: the CME analytical pipeline checked against the
//! LRU cache simulator, at scale.
//!
//! After the incremental engine (PR 1) and the sliding-window cascade
//! (PR 2), most correctness evidence was "bit-identical to the reference
//! path" — which silently preserves any bug both paths share. This crate
//! holds the reproduction to the standard of the paper itself (Table 1
//! validates CME against DineroIII): every `(nest, cache, ε)` case is
//! classified by [`check_case`] into [`Verdict::Exact`],
//! [`Verdict::SoundOvercount`], or [`Verdict::Violation`], with the
//! simulator as ground truth and the paper's guarantees as the rules.
//!
//! - [`run_fuzz`] — the deterministic-seed, time-budgeted fuzz driver
//!   (also exposed as the `diffcheck` binary wired into CI).
//! - [`minimize_violation`] / [`shrink_case`] — greedy counterexample
//!   minimization along extents → refs → depth → geometry.
//! - [`corpus`] — self-contained `.cme` regression seeds under
//!   `tests/corpus/`, replayable without the generator.
//! - [`closedform`] — differential certification of the sweep engine's
//!   fitted miss functions: every closed form is replayed against the
//!   numeric engine at adversarial points and against the simulator on
//!   small variants, with divergence as a first-class violation.
//! - [`Oracle`] — the analysis entry point under test, as a trait, so
//!   mutation tests can inject a broken oracle and prove the harness
//!   catches it.
//!
//! ```
//! use cme_diffcheck::{run_fuzz, CmeOracle, FuzzConfig};
//!
//! let config = FuzzConfig {
//!     cases: 5,
//!     ..FuzzConfig::default()
//! };
//! let report = run_fuzz(&mut CmeOracle, &config);
//! assert_eq!(report.violations.len(), 0);
//! assert!(report.cases_run > 0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod closedform;
pub mod corpus;
pub mod minimize;
pub mod verdict;

pub use closedform::{
    adversarial_points, check_sweep_case, minimize_sweep_divergence, replay_function, request_of,
    spec_of, SweepCheckReport,
};
pub use corpus::{parse_case, write_case, CorpusCase, Expectation};
pub use minimize::{minimize_violation, shrink_case};
pub use verdict::{
    check_case, check_case_governed, check_model_case, CaseReport, GroundTruth, Verdict,
    ViolationKind,
};

use cme_cache::CacheConfig;
use cme_core::{AnalysisOptions, Analyzer, Budget, CancelToken};
use cme_ir::LoopNest;
use cme_testgen::{is_uniform, random_cache, random_nest, CaseRng, NestDistribution};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The analysis pipeline under differential test.
///
/// Production code uses [`CmeOracle`]. Tests substitute broken oracles
/// (e.g. one that undercounts a reference) to prove the harness detects
/// and minimizes the bugs it exists to catch.
pub trait Oracle {
    /// Total misses per reference (statement order) for one engine path:
    /// `threads = 1` is the sequential path, `threads > 1` the sharded
    /// one.
    fn per_ref_misses(
        &mut self,
        nest: &LoopNest,
        cache: CacheConfig,
        epsilon: u64,
        threads: usize,
    ) -> Vec<u64>;

    /// [`Oracle::per_ref_misses`] under a resource [`Budget`] and optional
    /// [`CancelToken`]; returns the counts plus whether the analysis was
    /// exhausted (degraded to a sound upper bound).
    ///
    /// The default implementation ignores the budget and never reports
    /// exhaustion, so mutation-test oracles that only break the ungoverned
    /// path need not implement it.
    fn per_ref_misses_governed(
        &mut self,
        nest: &LoopNest,
        cache: CacheConfig,
        epsilon: u64,
        threads: usize,
        budget: Budget,
        cancel: Option<&CancelToken>,
    ) -> (Vec<u64>, bool) {
        let _ = (budget, cancel);
        (self.per_ref_misses(nest, cache, epsilon, threads), false)
    }
}

/// The production oracle: a fresh [`Analyzer`] session per query, so
/// cases stay independent and memo state cannot leak between them.
#[derive(Debug, Clone, Default)]
pub struct CmeOracle;

impl Oracle for CmeOracle {
    fn per_ref_misses(
        &mut self,
        nest: &LoopNest,
        cache: CacheConfig,
        epsilon: u64,
        threads: usize,
    ) -> Vec<u64> {
        let options = AnalysisOptions::builder().epsilon(epsilon).build();
        let analyzer = Analyzer::new(cache)
            .options(options)
            .threads(threads.max(1));
        analyzer
            .analyze(nest)
            .per_ref
            .iter()
            .map(|r| r.total_misses())
            .collect()
    }

    fn per_ref_misses_governed(
        &mut self,
        nest: &LoopNest,
        cache: CacheConfig,
        epsilon: u64,
        threads: usize,
        budget: Budget,
        cancel: Option<&CancelToken>,
    ) -> (Vec<u64>, bool) {
        let options = AnalysisOptions::builder().epsilon(epsilon).build();
        let mut analyzer = Analyzer::new(cache)
            .options(options)
            .threads(threads.max(1))
            .budget(budget);
        if let Some(token) = cancel {
            analyzer = analyzer.cancel_token(token.clone());
        }
        match analyzer.try_analyze(nest) {
            Ok(governed) => (
                governed
                    .analysis
                    .per_ref
                    .iter()
                    .map(|r| r.total_misses())
                    .collect(),
                governed.outcome.is_exhausted(),
            ),
            // An errored query (a caught worker panic) produced no counts;
            // degrade to the vacuous sound bound — every reference misses
            // on every access of the nest — flagged as exhausted.
            Err(_) => (vec![nest.access_count(); nest.references().len()], true),
        }
    }
}

/// Human-readable associativity bucket (`"1"`, `"2"`, …, `"full"`) for
/// coverage accounting.
pub fn assoc_label(cache: CacheConfig) -> String {
    if cache.assoc() == cache.size_bytes() / cache.line_bytes() {
        "full".to_string()
    } else {
        cache.assoc().to_string()
    }
}

/// Parameters of one fuzz run.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Master seed; every case derives its own printable seed from it.
    pub seed: u64,
    /// Number of generated cases (each checked under every ε).
    pub cases: u64,
    /// Wall-clock budget; generation stops once exceeded.
    pub time_budget: Option<Duration>,
    /// The nest distribution (see `cme_testgen`).
    pub dist: NestDistribution,
    /// ε settings every case is checked under.
    pub epsilons: Vec<u64>,
    /// Worker count of the sharded engine path.
    pub shard_threads: usize,
    /// Cases with more accesses than this are skipped (and counted, so
    /// the cap is never silent).
    pub max_points: u64,
    /// Per-check wall-clock budget. When set, every `(case, ε)` check runs
    /// under `Budget::unlimited().with_deadline(..)`: a check that exceeds
    /// it degrades to a sound overcount (still classified — exhaustion is
    /// not a violation) and the case is recorded in
    /// [`FuzzReport::timeouts`] as a replayable slow-case seed. `None`
    /// (the library default) runs every check to completion.
    pub timeout_per_case: Option<Duration>,
    /// Base resource budget applied to every `(case, ε)` check, composed
    /// with [`FuzzConfig::timeout_per_case`] (which overlays a deadline).
    /// Deliberately tiny budgets here exercise the degraded path: checks
    /// that exhaust must still classify as `Exact`/`SoundOvercount`, and
    /// they are recorded in [`FuzzReport::timeouts`] like slow cases.
    pub case_budget: Budget,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            seed: 0,
            cases: 200,
            time_budget: None,
            dist: NestDistribution::default(),
            epsilons: vec![0, 50],
            shard_threads: 4,
            max_points: 100_000,
            timeout_per_case: None,
            case_budget: Budget::unlimited(),
        }
    }
}

/// A case whose check hit [`FuzzConfig::timeout_per_case`] and degraded.
/// Not a bug — but worth persisting like a counterexample, because a nest
/// the engine cannot finish inside the budget is exactly the regression
/// the governor exists to contain.
#[derive(Debug, Clone)]
pub struct TimedOutCase {
    /// The per-case seed (regenerates the nest and cache exactly).
    pub case_seed: u64,
    /// The ε setting the timeout occurred under.
    pub epsilon: u64,
    /// The (degraded, sound) classification the check still produced.
    pub report: CaseReport,
    /// The generated nest.
    pub nest: LoopNest,
    /// The generated cache.
    pub cache: CacheConfig,
}

impl TimedOutCase {
    /// The timed-out case as a corpus regression seed, persisted exactly
    /// like a minimized violation. The expectation is
    /// [`Expectation::Any`]: replays pass as long as the (possibly again
    /// degraded) verdict stays sound.
    pub fn to_corpus_case(&self) -> CorpusCase {
        CorpusCase {
            name: format!("timeout-seed-{}", self.case_seed),
            nest: self.nest.clone(),
            cache: self.cache,
            epsilon: self.epsilon,
            expect: Expectation::Any,
            seed: Some(self.case_seed),
            sweep: None,
            model: None,
        }
    }
}

/// One violation found by [`run_fuzz`], with its minimized form.
#[derive(Debug, Clone)]
pub struct FoundViolation {
    /// The per-case seed (regenerates the nest and cache exactly).
    pub case_seed: u64,
    /// The ε setting the violation occurred under.
    pub epsilon: u64,
    /// The original classification.
    pub report: CaseReport,
    /// The generated nest.
    pub nest: LoopNest,
    /// The generated cache.
    pub cache: CacheConfig,
    /// The nest after minimization (still violating).
    pub min_nest: LoopNest,
    /// The cache after minimization.
    pub min_cache: CacheConfig,
}

impl FoundViolation {
    /// The minimized case as a corpus regression seed. The expectation
    /// is [`Expectation::Any`]: the committed file *fails* until the bug
    /// is fixed and *passes* forever after.
    pub fn to_corpus_case(&self) -> CorpusCase {
        CorpusCase {
            name: format!("violation-seed-{}", self.case_seed),
            nest: self.min_nest.clone(),
            cache: self.min_cache,
            epsilon: self.epsilon,
            expect: Expectation::Any,
            seed: Some(self.case_seed),
            sweep: None,
            model: None,
        }
    }
}

/// Aggregate result of one fuzz run.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Cases generated and checked.
    pub cases_run: u64,
    /// Individual `(case, ε)` checks executed.
    pub checks: u64,
    /// Checks classified [`Verdict::Exact`].
    pub exact: u64,
    /// Checks classified [`Verdict::SoundOvercount`].
    pub sound_overcount: u64,
    /// Cases skipped for exceeding [`FuzzConfig::max_points`].
    pub skipped_large: u64,
    /// Cases whose every same-array pair was uniformly generated.
    pub uniform_cases: u64,
    /// Violations found, each minimized.
    pub violations: Vec<FoundViolation>,
    /// Checks that came back exhausted (budget hit, result degraded but
    /// sound).
    pub exhausted_checks: u64,
    /// Cases that hit [`FuzzConfig::timeout_per_case`], one entry per case
    /// (first timing-out ε wins).
    pub timeouts: Vec<TimedOutCase>,
    /// Cases per associativity bucket (`"1"`…`"full"`).
    pub assoc_coverage: BTreeMap<String, u64>,
    /// Whether the time budget stopped the run early.
    pub out_of_budget: bool,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl FuzzReport {
    /// Whether any check violated the paper's guarantees.
    pub fn has_violations(&self) -> bool {
        !self.violations.is_empty()
    }

    /// Multi-line human-readable summary.
    pub fn summary(&self) -> String {
        let coverage: Vec<String> = self
            .assoc_coverage
            .iter()
            .map(|(k, v)| format!("k={k}:{v}"))
            .collect();
        format!(
            "diffcheck: {} cases ({} checks) in {:.1?}{}\n  exact: {}  sound-overcount: {}  violations: {}\n  uniform: {}  skipped (> max points): {}  exhausted: {}  timeouts: {}\n  assoc coverage: {}",
            self.cases_run,
            self.checks,
            self.elapsed,
            if self.out_of_budget {
                " [time budget hit]"
            } else {
                ""
            },
            self.exact,
            self.sound_overcount,
            self.violations.len(),
            self.uniform_cases,
            self.skipped_large,
            self.exhausted_checks,
            self.timeouts.len(),
            coverage.join(" "),
        )
    }
}

/// Runs the differential fuzzer: generates `config.cases` seeded cases,
/// classifies each under every ε and both engine paths, and minimizes
/// every violation. Fully deterministic for a given `config.seed` (up to
/// the time budget).
pub fn run_fuzz<O: Oracle + ?Sized>(oracle: &mut O, config: &FuzzConfig) -> FuzzReport {
    let start = Instant::now();
    let mut meta = CaseRng::new(config.seed);
    let mut report = FuzzReport::default();

    for _ in 0..config.cases {
        if let Some(budget) = config.time_budget {
            if start.elapsed() >= budget {
                report.out_of_budget = true;
                break;
            }
        }
        let case_seed = meta.next_u64();
        let mut rng = CaseRng::new(case_seed);
        let nest = random_nest(&mut rng, &config.dist);
        let cache = random_cache(&mut rng);
        if nest.access_count() > config.max_points {
            report.skipped_large += 1;
            continue;
        }
        report.cases_run += 1;
        report.uniform_cases += is_uniform(&nest) as u64;
        *report.assoc_coverage.entry(assoc_label(cache)).or_insert(0) += 1;

        for &epsilon in &config.epsilons {
            report.checks += 1;
            let mut check_budget = config.case_budget;
            if let Some(timeout) = config.timeout_per_case {
                check_budget = check_budget.with_deadline(timeout);
            }
            let case = if check_budget.is_unlimited() {
                check_case(oracle, &nest, cache, epsilon, config.shard_threads)
            } else {
                check_case_governed(
                    oracle,
                    &nest,
                    cache,
                    epsilon,
                    config.shard_threads,
                    check_budget,
                    None,
                )
            };
            if case.exhausted {
                report.exhausted_checks += 1;
                if !report.timeouts.iter().any(|t| t.case_seed == case_seed) {
                    report.timeouts.push(TimedOutCase {
                        case_seed,
                        epsilon,
                        report: case.clone(),
                        nest: nest.clone(),
                        cache,
                    });
                }
            }
            match case.verdict {
                Verdict::Exact => report.exact += 1,
                Verdict::SoundOvercount => report.sound_overcount += 1,
                Verdict::Violation(_) => {
                    let (min_nest, min_cache) =
                        minimize_violation(oracle, &nest, cache, epsilon, config.shard_threads);
                    report.violations.push(FoundViolation {
                        case_seed,
                        epsilon,
                        report: case,
                        nest: nest.clone(),
                        cache,
                        min_nest,
                        min_cache,
                    });
                }
            }
        }
    }
    report.elapsed = start.elapsed();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic_per_seed() {
        let config = FuzzConfig {
            cases: 12,
            ..FuzzConfig::default()
        };
        let a = run_fuzz(&mut CmeOracle, &config);
        let b = run_fuzz(&mut CmeOracle, &config);
        assert_eq!(a.cases_run, b.cases_run);
        assert_eq!(a.checks, b.checks);
        assert_eq!(a.exact, b.exact);
        assert_eq!(a.sound_overcount, b.sound_overcount);
        assert_eq!(a.assoc_coverage, b.assoc_coverage);
        assert!(!a.has_violations());
    }

    #[test]
    fn uniform_distribution_yields_exact_checks_at_eps_zero() {
        let config = FuzzConfig {
            cases: 10,
            epsilons: vec![0],
            dist: NestDistribution {
                uniform_only: true,
                ..NestDistribution::default()
            },
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&mut CmeOracle, &config);
        assert!(!report.has_violations());
        assert_eq!(
            report.exact, report.checks,
            "uniform + ε=0 must classify every check exact"
        );
    }

    #[test]
    fn time_budget_stops_the_run() {
        let config = FuzzConfig {
            cases: u64::MAX,
            time_budget: Some(Duration::from_millis(200)),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&mut CmeOracle, &config);
        assert!(report.out_of_budget);
        assert!(report.cases_run > 0);
    }

    #[test]
    fn zero_timeout_per_case_degrades_soundly_and_records_timeouts() {
        let config = FuzzConfig {
            cases: 6,
            timeout_per_case: Some(Duration::ZERO),
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&mut CmeOracle, &config);
        assert!(
            !report.has_violations(),
            "budget exhaustion must never register as a violation"
        );
        assert!(report.exhausted_checks > 0, "a zero deadline always trips");
        assert!(!report.timeouts.is_empty());
        assert!(
            report.timeouts.len() as u64 <= report.cases_run,
            "at most one timeout record per case"
        );
        // Each timed-out case persists like a counterexample.
        for t in &report.timeouts {
            let case = t.to_corpus_case();
            assert!(case.name.starts_with("timeout-seed-"));
            assert_eq!(case.expect, Expectation::Any);
            assert!(write_case(&case).is_some(), "timeout seeds are writable");
        }
        let s = report.summary();
        assert!(s.contains("timeouts: "), "summary surfaces timeouts: {s}");
    }

    #[test]
    fn max_points_cap_is_counted_not_silent() {
        let config = FuzzConfig {
            cases: 8,
            max_points: 1, // everything is "too large"
            ..FuzzConfig::default()
        };
        let report = run_fuzz(&mut CmeOracle, &config);
        assert_eq!(report.cases_run, 0);
        assert_eq!(report.skipped_large, 8);
        let s = report.summary();
        assert!(s.contains("skipped"), "summary must surface the cap: {s}");
    }
}
