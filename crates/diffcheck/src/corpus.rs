//! Self-contained regression seeds for the differential suite.
//!
//! A corpus case is one `.cme` file: the standard textual nest format
//! (parsed by `cme_ir::parse_nest`) preceded by `!`-comment directives
//! that pin the cache geometry, the ε setting, and the expected verdict.
//! Because the directives are ordinary comments, the file stays loadable
//! by every other `.cme` consumer, and because the format embeds the
//! layout (`AT <base>`), a case replays bit-for-bit with no generator or
//! seed in the loop.
//!
//! ```text
//! ! name: gauss-n12
//! ! cache: size=512 assoc=2 line=16 elem=4
//! ! epsilon: 0
//! ! expect: sound-overcount
//! REAL A(12,12) AT 0
//! DO i = 1, 12
//! ...
//! ```

use crate::closedform::{check_sweep_case, request_of, SweepCheckReport};
use crate::verdict::{check_case, check_case_governed, check_model_case, CaseReport, Verdict};
use crate::Oracle;
use cme_cache::{CacheConfig, CacheModel, PolicyKind, WritePolicy};
use cme_core::Budget;
use cme_ir::parse::{parse_nest, to_source};
use cme_ir::LoopNest;
use cme_testgen::{ParamKind, SweepSpec};
use std::fmt;

/// The verdict a corpus case is allowed to produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expectation {
    /// Must classify as [`Verdict::Exact`].
    Exact,
    /// Any sound verdict (exact or over-count) passes.
    SoundOvercount,
    /// Anything but a violation passes.
    Any,
}

impl Expectation {
    /// Whether `verdict` satisfies this expectation. Violations never do.
    pub fn allows(&self, verdict: &Verdict) -> bool {
        match (self, verdict) {
            (_, Verdict::Violation(_)) => false,
            (Expectation::Exact, v) => *v == Verdict::Exact,
            (Expectation::SoundOvercount, _) | (Expectation::Any, _) => true,
        }
    }
}

impl fmt::Display for Expectation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expectation::Exact => write!(f, "exact"),
            Expectation::SoundOvercount => write!(f, "sound-overcount"),
            Expectation::Any => write!(f, "any"),
        }
    }
}

/// One self-contained differential regression case.
#[derive(Debug, Clone)]
pub struct CorpusCase {
    /// Case name (reported on failure).
    pub name: String,
    /// The nest, with its layout baked in.
    pub nest: LoopNest,
    /// The cache geometry to check against.
    pub cache: CacheConfig,
    /// The ε early-stop setting.
    pub epsilon: u64,
    /// The verdict the case must produce.
    pub expect: Expectation,
    /// The generator seed this case was minimized from, if any.
    pub seed: Option<u64>,
    /// An optional parametric sweep (`! sweep:` directive): replay
    /// additionally runs the closed-form differential tier — the sweep
    /// must fit a certified function and the fit must survive
    /// adversarial replay (see [`crate::closedform`]).
    pub sweep: Option<SweepSpec>,
    /// An optional non-baseline cache model (`! model:` directive) whose
    /// L1 is [`CorpusCase::cache`]. When present, verification runs
    /// against the *model* simulator under bound semantics (see
    /// [`check_model_case`]): the analytic LRU result may overcount the
    /// model freely, but an undercount is still a violation. `None`
    /// replays the classic LRU differential check.
    pub model: Option<CacheModel>,
}

impl CorpusCase {
    /// Classifies the case and checks the result against the
    /// expectation.
    ///
    /// # Errors
    ///
    /// Returns the offending [`CaseReport`] with a message when the
    /// verdict is disallowed.
    pub fn verify<O: Oracle + ?Sized>(
        &self,
        oracle: &mut O,
        shard_threads: usize,
    ) -> Result<CaseReport, String> {
        let report = match &self.model {
            Some(model) => check_model_case(
                oracle,
                &self.nest,
                model,
                self.epsilon,
                shard_threads,
                Budget::unlimited(),
                None,
            ),
            None => check_case(oracle, &self.nest, self.cache, self.epsilon, shard_threads),
        };
        let report = self.judge(report)?;
        self.verify_sweep()?;
        Ok(report)
    }

    /// Runs the closed-form differential tier, when the case carries a
    /// `! sweep:` directive: the sweep must fit, and the fitted function
    /// must replay clean against the numeric engine and the simulator.
    /// Returns `Ok(None)` for cases without a sweep.
    ///
    /// # Errors
    ///
    /// Returns a message when the sweep errors, fails to fit, or its fit
    /// diverges — all three break the case's promise.
    pub fn verify_sweep(&self) -> Result<Option<SweepCheckReport>, String> {
        let Some(spec) = &self.sweep else {
            return Ok(None);
        };
        let request = request_of(spec);
        let report = check_sweep_case(&self.nest, self.cache, &request, self.seed.unwrap_or(0))
            .map_err(|e| format!("corpus case `{}` sweep errored: {e}", self.name))?;
        if !report.fitted {
            return Err(format!(
                "corpus case `{}` sweep no longer fits a closed form: {}",
                self.name, report.result
            ));
        }
        if let Verdict::Violation(v) = &report.verdict {
            return Err(format!(
                "corpus case `{}` fitted function diverges: {v}\n{}",
                self.name, self.nest
            ));
        }
        Ok(Some(report))
    }

    /// [`CorpusCase::verify`] under a resource [`Budget`]. When the check
    /// comes back exhausted, the expectation is relaxed one notch: an
    /// `exact` case may legally degrade to a sound overcount (the budget
    /// acted as `ε > 0`), but a violation still fails — soundness holds
    /// under every budget. The closed-form sweep tier is skipped here:
    /// a truncated sweep is never fitted, so governed replay would only
    /// prove the fallback ran — [`CorpusCase::verify_sweep`] is the
    /// ungoverned cross-check.
    pub fn verify_governed<O: Oracle + ?Sized>(
        &self,
        oracle: &mut O,
        shard_threads: usize,
        budget: Budget,
    ) -> Result<CaseReport, String> {
        let report = match &self.model {
            Some(model) => check_model_case(
                oracle,
                &self.nest,
                model,
                self.epsilon,
                shard_threads,
                budget,
                None,
            ),
            None => check_case_governed(
                oracle,
                &self.nest,
                self.cache,
                self.epsilon,
                shard_threads,
                budget,
                None,
            ),
        };
        if report.exhausted && !report.verdict.is_violation() {
            return Ok(report);
        }
        self.judge(report)
    }

    /// Renders the case as a unified-API [`AnalyzeRequest`](cme_core::api::AnalyzeRequest)
    /// (`cme_core::api`): the same program, geometry, and ε, with the case
    /// name as the correlation id — so corpus replay can round-trip
    /// through `cme-serve` or any other api frontend and compare counts
    /// against [`CorpusCase::verify`]. Returns `None` for nests the
    /// textual wire format cannot express (non-1 array origins).
    pub fn to_request(&self) -> Option<cme_core::api::AnalyzeRequest> {
        let spec = match &self.model {
            Some(model) => cme_core::api::CacheSpec::of_model(model),
            None => cme_core::api::CacheSpec::of(&self.cache),
        };
        let mut request = cme_core::api::AnalyzeRequest::from_nest(&self.name, &self.nest, spec)?;
        request.epsilon = self.epsilon;
        Some(request)
    }

    fn judge(&self, report: CaseReport) -> Result<CaseReport, String> {
        if self.expect.allows(&report.verdict) {
            Ok(report)
        } else {
            Err(format!(
                "corpus case `{}` expected {} but classified as {}\n{}",
                self.name, self.expect, report, self.nest
            ))
        }
    }
}

/// Renders a case to the corpus file format. Returns `None` for nests
/// the textual format cannot express (non-1 array origins).
pub fn write_case(case: &CorpusCase) -> Option<String> {
    let source = to_source(&case.nest)?;
    let assoc = if case.cache.assoc() == case.cache.size_bytes() / case.cache.line_bytes() {
        "full".to_string()
    } else {
        case.cache.assoc().to_string()
    };
    let mut out = String::new();
    out.push_str(&format!("! name: {}\n", case.name));
    out.push_str(&format!(
        "! cache: size={} assoc={} line={} elem={}\n",
        case.cache.size_bytes(),
        assoc,
        case.cache.line_bytes(),
        case.cache.elem_bytes()
    ));
    out.push_str(&format!("! epsilon: {}\n", case.epsilon));
    if let Some(model) = &case.model {
        let mut directive = format!(
            "! model: policy={} write={}",
            model.policy_kind().as_str(),
            model.write_policy().as_str()
        );
        if let Some(l2) = model.l2() {
            directive.push_str(&format!(
                " l2size={} l2assoc={}",
                l2.size_bytes(),
                l2.assoc()
            ));
        }
        out.push_str(&directive);
        out.push('\n');
    }
    out.push_str(&format!("! expect: {}\n", case.expect));
    if let Some(seed) = case.seed {
        out.push_str(&format!("! seed: {seed}\n"));
    }
    if let Some(sweep) = &case.sweep {
        out.push_str(&format!(
            "! sweep: param={} target={} start={} count={} step={}\n",
            sweep.kind.token(),
            sweep.target,
            sweep.start,
            sweep.count,
            sweep.step
        ));
    }
    out.push_str(&source);
    Some(out)
}

/// Parses a corpus file. `fallback_name` (usually the file stem) names
/// the case when no `! name:` directive is present.
///
/// # Errors
///
/// Returns a description of the first malformed directive or nest-parse
/// failure.
pub fn parse_case(fallback_name: &str, text: &str) -> Result<CorpusCase, String> {
    let mut name = fallback_name.to_string();
    let mut cache = None;
    let mut epsilon = 0u64;
    let mut expect = Expectation::Any;
    let mut seed = None;
    let mut sweep = None;
    let mut model_spec: Option<String> = None;

    for line in text.lines() {
        let Some(rest) = line.trim().strip_prefix('!') else {
            continue;
        };
        let Some((key, value)) = rest.split_once(':') else {
            continue;
        };
        let value = value.trim();
        match key.trim() {
            "name" => name = value.to_string(),
            "cache" => cache = Some(parse_cache(value)?),
            "epsilon" => {
                epsilon = value
                    .parse()
                    .map_err(|e| format!("bad epsilon `{value}`: {e}"))?
            }
            "expect" => {
                expect = match value {
                    "exact" => Expectation::Exact,
                    "sound-overcount" => Expectation::SoundOvercount,
                    "any" => Expectation::Any,
                    other => return Err(format!("unknown expectation `{other}`")),
                }
            }
            "seed" => {
                seed = Some(
                    value
                        .parse()
                        .map_err(|e| format!("bad seed `{value}`: {e}"))?,
                )
            }
            "sweep" => sweep = Some(parse_sweep(value)?),
            "model" => model_spec = Some(value.to_string()),
            _ => {} // free-form comment
        }
    }

    let cache = cache.ok_or("missing `! cache:` directive")?;
    let model = model_spec
        .map(|spec| parse_model(&spec, cache))
        .transpose()?;
    let nest = parse_nest(text).map_err(|e| format!("nest parse error: {e}"))?;
    Ok(CorpusCase {
        name,
        nest,
        cache,
        epsilon,
        expect,
        seed,
        sweep,
        model,
    })
}

/// Parses a `! model:` directive against the case's (already parsed) L1
/// geometry: `policy=<lru|fifo|plru> write=<write-back|write-through>
/// [l2size=<bytes> l2assoc=<k>]`. All keys are optional; line and element
/// size of the L2 are inherited from L1.
fn parse_model(spec: &str, cache: CacheConfig) -> Result<CacheModel, String> {
    let mut model = CacheModel::new(cache);
    let mut l2size = None;
    let mut l2assoc = None;
    for token in spec.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            return Err(format!("bad model token `{token}`"));
        };
        let num = |v: &str| -> Result<i64, String> {
            v.parse().map_err(|e| format!("bad model value `{v}`: {e}"))
        };
        match key {
            "policy" => {
                model = model.policy(
                    PolicyKind::parse(value)
                        .ok_or_else(|| format!("unknown replacement policy `{value}`"))?,
                )
            }
            "write" => {
                model = model.write(
                    WritePolicy::parse(value)
                        .ok_or_else(|| format!("unknown write policy `{value}`"))?,
                )
            }
            "l2size" => l2size = Some(num(value)?),
            "l2assoc" => l2assoc = Some(num(value)?),
            other => return Err(format!("unknown model key `{other}`")),
        }
    }
    match (l2size, l2assoc) {
        (None, None) => {}
        (Some(size), Some(assoc)) => {
            let l2 = CacheConfig::new(size, assoc, cache.line_bytes(), cache.elem_bytes())
                .map_err(|e| format!("invalid L2 geometry: {e}"))?;
            model = model
                .with_l2(l2)
                .map_err(|e| format!("invalid hierarchy: {e}"))?;
        }
        _ => return Err("model spec needs both l2size and l2assoc (or neither)".into()),
    }
    Ok(model)
}

fn parse_sweep(spec: &str) -> Result<SweepSpec, String> {
    let mut kind = None;
    let mut target = None;
    let mut start = 0i64;
    let mut count = None;
    let mut step = 1i64;
    for token in spec.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            return Err(format!("bad sweep token `{token}`"));
        };
        let num = |v: &str| -> Result<i64, String> {
            v.parse().map_err(|e| format!("bad sweep value `{v}`: {e}"))
        };
        match key {
            "param" => {
                kind = Some(
                    ParamKind::from_token(value)
                        .ok_or_else(|| format!("unknown sweep param `{value}`"))?,
                )
            }
            "target" => target = Some(num(value)? as usize),
            "start" => start = num(value)?,
            "count" => count = Some(num(value)?.max(1) as usize),
            "step" => step = num(value)?,
            other => return Err(format!("unknown sweep key `{other}`")),
        }
    }
    Ok(SweepSpec {
        kind: kind.ok_or("sweep spec missing param")?,
        target: target.ok_or("sweep spec missing target")?,
        start,
        count: count.ok_or("sweep spec missing count")?,
        step,
    })
}

fn parse_cache(spec: &str) -> Result<CacheConfig, String> {
    let mut size = None;
    let mut assoc = None;
    let mut line = None;
    let mut elem = 4i64;
    let mut full = false;
    for token in spec.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            return Err(format!("bad cache token `{token}`"));
        };
        let num = |v: &str| -> Result<i64, String> {
            v.parse().map_err(|e| format!("bad cache value `{v}`: {e}"))
        };
        match key {
            "size" => size = Some(num(value)?),
            "assoc" if value == "full" => full = true,
            "assoc" => assoc = Some(num(value)?),
            "line" => line = Some(num(value)?),
            "elem" => elem = num(value)?,
            other => return Err(format!("unknown cache key `{other}`")),
        }
    }
    let size = size.ok_or("cache spec missing size")?;
    let line = line.ok_or("cache spec missing line")?;
    if full {
        CacheConfig::fully_associative(size, line, elem)
    } else {
        CacheConfig::new(size, assoc.ok_or("cache spec missing assoc")?, line, elem)
    }
    .map_err(|e| format!("invalid cache geometry: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{AccessKind, NestBuilder};

    fn sample_case(assoc_full: bool) -> CorpusCase {
        let mut b = NestBuilder::new();
        b.name("sample").ct_loop("i", 1, 8).ct_loop("j", 1, 8);
        let a = b.array("A", &[8, 8], 0);
        b.reference(a, AccessKind::Read, &[("i", 0), ("j", 0)]);
        b.reference(a, AccessKind::Write, &[("i", 0), ("j", 0)]);
        let nest = b.build().unwrap();
        let cache = if assoc_full {
            CacheConfig::fully_associative(256, 16, 4).unwrap()
        } else {
            CacheConfig::new(512, 2, 16, 4).unwrap()
        };
        CorpusCase {
            name: "sample".into(),
            nest,
            cache,
            epsilon: 0,
            expect: Expectation::Exact,
            seed: Some(7),
            sweep: None,
            model: None,
        }
    }

    #[test]
    fn round_trips_through_the_file_format() {
        for full in [false, true] {
            let case = sample_case(full);
            let text = write_case(&case).unwrap();
            let back = parse_case("fallback", &text).unwrap();
            assert_eq!(back.name, "sample");
            assert_eq!(back.cache, case.cache);
            assert_eq!(back.epsilon, case.epsilon);
            assert_eq!(back.expect, case.expect);
            assert_eq!(back.seed, Some(7));
            assert_eq!(back.nest.depth(), case.nest.depth());
            assert_eq!(back.nest.references().len(), case.nest.references().len());
            // Address semantics survive the round trip.
            for r in case.nest.references() {
                assert_eq!(
                    back.nest.address_affine(r.id()),
                    case.nest.address_affine(r.id())
                );
            }
        }
    }

    #[test]
    fn sweep_directive_round_trips_and_runs_the_closed_form_tier() {
        let mut b = NestBuilder::new();
        b.name("sweep-sample").ct_loop("i", 0, 64);
        let a = b.array("A", &[64], 0);
        let c = b.array("B", &[64], 256);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        b.reference(c, AccessKind::Read, &[("i", 0)]);
        let case = CorpusCase {
            name: "sweep-sample".into(),
            nest: b.build().unwrap(),
            cache: CacheConfig::new(1024, 1, 32, 4).unwrap(),
            epsilon: 0,
            expect: Expectation::Exact,
            seed: Some(11),
            sweep: Some(SweepSpec {
                kind: ParamKind::BaseSpacing,
                target: 1,
                start: 0,
                count: 128,
                step: 8,
            }),
            model: None,
        };
        let text = write_case(&case).unwrap();
        assert!(
            text.contains("! sweep: param=base-spacing target=1 start=0 count=128 step=8"),
            "{text}"
        );
        let back = parse_case("fallback", &text).unwrap();
        assert_eq!(back.sweep, case.sweep);
        let sweep_report = back.verify_sweep().unwrap().expect("case carries a sweep");
        assert!(sweep_report.fitted, "this fixture fits a closed form");
        assert!(!sweep_report.is_violation());
        // Full replay runs both tiers.
        back.verify(&mut crate::CmeOracle, 4).unwrap();
        // Cases without the directive skip the tier.
        assert!(sample_case(false).verify_sweep().unwrap().is_none());
    }

    #[test]
    fn malformed_sweep_directives_are_rejected() {
        let base = "! cache: size=512 assoc=2 line=16 elem=4\n";
        for bad in [
            "! sweep: param=bogus target=0 count=8",
            "! sweep: target=0 count=8",
            "! sweep: param=pad-bytes count=8",
            "! sweep: param=pad-bytes target=0",
            "! sweep: param=pad-bytes target=0 count=8 extra=1",
        ] {
            let text = format!("{base}{bad}\nREAL A(4) AT 0\nDO i = 1, 4\n  s = s + A(i)\nENDDO");
            assert!(parse_case("x", &text).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn model_directive_round_trips_and_verifies_under_bound_semantics() {
        // Direct-mapped FIFO coincides with LRU, so the analytic result is
        // not merely a bound here: the replay classifies Exact.
        let mut b = NestBuilder::new();
        b.name("model-sample").ct_loop("i", 1, 16);
        let a = b.array("A", &[16], 0);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        let cache = CacheConfig::new(256, 1, 16, 4).unwrap();
        let case = CorpusCase {
            name: "model-sample".into(),
            nest: b.build().unwrap(),
            cache,
            epsilon: 0,
            expect: Expectation::Exact,
            seed: None,
            sweep: None,
            model: Some(
                CacheModel::new(cache)
                    .policy(PolicyKind::Fifo)
                    .write(WritePolicy::WriteThrough),
            ),
        };
        let text = write_case(&case).unwrap();
        assert!(
            text.contains("! model: policy=fifo write=write-through"),
            "{text}"
        );
        let back = parse_case("fallback", &text).unwrap();
        assert_eq!(back.model, case.model);
        let report = back.verify(&mut crate::CmeOracle, 2).unwrap();
        assert_eq!(report.verdict, Verdict::Exact);
        // The wire request carries the model, so replays hit the
        // simulator-backed path server-side too.
        let request = back.to_request().unwrap();
        assert!(!request.cache_model().unwrap().is_baseline());
    }

    #[test]
    fn model_directives_with_l2_round_trip() {
        let mut case = sample_case(false);
        let l2 = CacheConfig::new(4096, 4, 16, 4).unwrap();
        case.model = Some(CacheModel::new(case.cache).with_l2(l2).unwrap());
        let text = write_case(&case).unwrap();
        assert!(
            text.contains("! model: policy=lru write=write-back l2size=4096 l2assoc=4"),
            "{text}"
        );
        assert_eq!(parse_case("x", &text).unwrap().model, case.model);
    }

    #[test]
    fn malformed_model_directives_are_rejected() {
        let base = "! cache: size=512 assoc=2 line=16 elem=4\n";
        for bad in [
            "! model: policy=random",
            "! model: write=copy-back",
            "! model: policy",
            "! model: flavor=mint",
            "! model: l2size=4096",          // missing l2assoc
            "! model: l2size=128 l2assoc=2", // L2 smaller than L1
            "! model: policy=fifo l2size=x l2assoc=2",
        ] {
            let text = format!("{base}{bad}\nREAL A(4) AT 0\nDO i = 1, 4\n  s = s + A(i)\nENDDO");
            assert!(parse_case("x", &text).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn verify_enforces_the_expectation() {
        let case = sample_case(false);
        let report = case.verify(&mut crate::CmeOracle, 4).unwrap();
        assert_eq!(report.verdict, Verdict::Exact);
        // Tightening a sound-overcount case to `exact` must fail if the
        // verdict is an overcount; here the case is exact, so `any` and
        // `sound-overcount` also pass.
        for expect in [Expectation::SoundOvercount, Expectation::Any] {
            let mut relaxed = case.clone();
            relaxed.expect = expect;
            relaxed.verify(&mut crate::CmeOracle, 4).unwrap();
        }
    }

    #[test]
    fn governed_verify_relaxes_exact_expectation_under_exhaustion() {
        let case = sample_case(false); // expects Exact
        let report = case
            .verify_governed(
                &mut crate::CmeOracle,
                4,
                Budget::unlimited().with_max_solves(1),
            )
            .expect("exhausted-but-sound must pass even an `exact` case");
        assert!(report.exhausted);
        // At full budget the governed path is bit-identical to verify().
        let full = case
            .verify_governed(&mut crate::CmeOracle, 4, Budget::unlimited())
            .unwrap();
        assert!(!full.exhausted);
        assert_eq!(full.verdict, Verdict::Exact);
    }

    #[test]
    fn replay_through_the_unified_api_matches_verify() {
        let case = sample_case(false);
        let report = case.verify(&mut crate::CmeOracle, 1).unwrap();
        let request = case.to_request().unwrap();
        assert_eq!(request.id, case.name);
        assert!(request.budget().is_unlimited());
        let analyzer = cme_core::Analyzer::new(request.cache_config().unwrap());
        let served = analyzer.serve(&request).result.unwrap();
        assert!(served.outcome.complete);
        assert_eq!(served.total_misses, report.cme_total);
    }

    #[test]
    fn violations_convert_to_coded_mismatch_errors() {
        let e: cme_core::api::Error = crate::ViolationKind::Undercount {
            ref_index: 2,
            cme: 3,
            sim: 5,
        }
        .into();
        assert_eq!(e.code, cme_core::api::ErrorCode::Mismatch);
        assert!(e.message.contains("undercount"));
    }

    #[test]
    fn parse_rejects_malformed_directives() {
        assert!(parse_case("x", "REAL A(4) AT 0\nDO i = 1, 4\nENDDO").is_err()); // no cache
        let text = "! cache: size=512 assoc=3 line=16 elem=4\nDO i = 1, 4\n  s = s + A(i)\nENDDO\nREAL A(4) AT 0";
        assert!(parse_case("x", text).unwrap_err().contains("geometry"));
        assert!(parse_case("x", "! cache: bogus\nDO i = 1, 4\nENDDO").is_err());
    }

    #[test]
    fn expectation_lattice() {
        use Verdict::*;
        let viol = Violation(crate::ViolationKind::Undercount {
            ref_index: 0,
            cme: 0,
            sim: 1,
        });
        assert!(Expectation::Exact.allows(&Exact));
        assert!(!Expectation::Exact.allows(&SoundOvercount));
        assert!(Expectation::SoundOvercount.allows(&Exact));
        assert!(Expectation::SoundOvercount.allows(&SoundOvercount));
        for e in [
            Expectation::Exact,
            Expectation::SoundOvercount,
            Expectation::Any,
        ] {
            assert!(!e.allows(&viol));
        }
    }
}
