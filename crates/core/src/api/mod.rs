//! The unified request/response contract every frontend speaks.
//!
//! `cmetool`, the `cme-serve` wire protocol, in-process callers, and
//! the `cme-diffcheck` corpus replayer all round-trip analyses through one
//! schema: [`AnalyzeRequest`] in, [`AnalyzeResponse`] out, failures as a
//! stable [`ErrorCode`] inside [`Error`]. A request carries the program as
//! `.cme` source text (the canonical textual form of
//! [`cme_ir::parse::parse_nest`]), the cache geometry, the `ε` precision
//! knob, and an optional per-request [`Budget`]; a response carries either
//! the per-reference miss counts plus the governor [`Outcome`] summary, or
//! a coded error. Budget exhaustion is **not** an error: the counts are a
//! sound overcount and arrive in a normal result tagged
//! `outcome.complete = false` (see [`OutcomeSummary`]).
//!
//! Serialization is single-line JSON via [`json`] (objects key-sorted, so
//! encoding is deterministic), which is also the framing unit of the
//! `cme-serve` line protocol (`docs/SERVE.md`).

pub mod json;

use crate::engine::Analyzer;
use crate::governor::{AnalysisError, Budget, GovernedAnalysis, Outcome};
use crate::solve::{AnalysisOptions, InvalidOptions};
use cme_cache::{CacheConfig, CacheConfigError, CacheModel, MissStats, PolicyKind, WritePolicy};
use cme_ir::parse::{parse_nest, to_source, ParseNestError};
use cme_ir::LoopNest;
use json::{obj, Json, JsonError};
use std::fmt;
use std::time::Duration;

/// Stable machine-readable failure codes, shared by the wire protocol and
/// the CLI exit status.
///
/// The string form ([`ErrorCode::as_str`]) and the exit code
/// ([`ErrorCode::exit_code`]) are wire/ABI surface: existing values never
/// change meaning, new variants only add (`#[non_exhaustive]`, so match
/// with a `_` arm).
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorCode {
    /// The request line or field set was not valid protocol JSON.
    BadRequest,
    /// The `.cme` program text did not parse or validate.
    Parse,
    /// The cache geometry was rejected (see
    /// [`cme_cache::CacheConfigError`]).
    InvalidCache,
    /// The analysis options were inconsistent (see
    /// [`crate::InvalidOptions`]).
    InvalidOptions,
    /// A pool worker panicked; only this query was lost.
    WorkerPanic,
    /// Address arithmetic on this nest would overflow 64 bits.
    Overflow,
    /// The artifact store failed in a way recompute could not hide.
    Store,
    /// An I/O failure outside the store (socket, corpus file).
    Io,
    /// The server shed this connection or request under load; retry with
    /// backoff once load clears. Pre-`Overloaded` clients decode this as
    /// [`ErrorCode::Internal`] (the unknown-code rule), which is still a
    /// safe, non-retrying interpretation.
    Overloaded,
    /// A differential-oracle disagreement (diffcheck replay only).
    Mismatch,
    /// Anything that should not happen; the message has the detail.
    Internal,
}

impl ErrorCode {
    /// The stable wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::Parse => "parse",
            ErrorCode::InvalidCache => "invalid-cache",
            ErrorCode::InvalidOptions => "invalid-options",
            ErrorCode::WorkerPanic => "worker-panic",
            ErrorCode::Overflow => "overflow",
            ErrorCode::Store => "store",
            ErrorCode::Io => "io",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::Mismatch => "mismatch",
            ErrorCode::Internal => "internal",
        }
    }

    /// Parses the wire spelling back (`None` for unknown codes — forward
    /// compatibility: treat those as [`ErrorCode::Internal`]).
    pub fn from_wire(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "bad-request" => ErrorCode::BadRequest,
            "parse" => ErrorCode::Parse,
            "invalid-cache" => ErrorCode::InvalidCache,
            "invalid-options" => ErrorCode::InvalidOptions,
            "worker-panic" => ErrorCode::WorkerPanic,
            "overflow" => ErrorCode::Overflow,
            "store" => ErrorCode::Store,
            "io" => ErrorCode::Io,
            "overloaded" => ErrorCode::Overloaded,
            "mismatch" => ErrorCode::Mismatch,
            "internal" => ErrorCode::Internal,
            _ => return None,
        })
    }

    /// The process exit code the CLI maps this failure to (success is 0;
    /// these start at 10 so they never collide with shell conventions).
    pub fn exit_code(&self) -> i32 {
        match self {
            ErrorCode::BadRequest => 10,
            ErrorCode::Parse => 11,
            ErrorCode::InvalidCache => 12,
            ErrorCode::InvalidOptions => 13,
            ErrorCode::WorkerPanic => 20,
            ErrorCode::Overflow => 21,
            ErrorCode::Store => 30,
            ErrorCode::Io => 31,
            ErrorCode::Overloaded => 32,
            ErrorCode::Mismatch => 40,
            ErrorCode::Internal => 50,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A coded analysis failure: the one error type every frontend reports.
///
/// Internal error enums ([`AnalysisError`], [`ParseNestError`],
/// [`CacheConfigError`], [`InvalidOptions`], store errors) convert in via
/// `From`, so they stay out of the public contract. `#[non_exhaustive]`:
/// construct with [`Error::new`].
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Error {
    /// The stable failure class.
    pub code: ErrorCode,
    /// Human-readable detail (not a stable surface).
    pub message: String,
}

impl Error {
    /// Builds an error from a code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Error {
            code,
            message: message.into(),
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for Error {}

impl From<AnalysisError> for Error {
    fn from(e: AnalysisError) -> Self {
        let code = match &e {
            AnalysisError::WorkerPanic { .. } => ErrorCode::WorkerPanic,
            AnalysisError::Overflow { .. } => ErrorCode::Overflow,
        };
        Error::new(code, e.to_string())
    }
}

impl From<ParseNestError> for Error {
    fn from(e: ParseNestError) -> Self {
        Error::new(ErrorCode::Parse, e.to_string())
    }
}

impl From<CacheConfigError> for Error {
    fn from(e: CacheConfigError) -> Self {
        Error::new(ErrorCode::InvalidCache, e.to_string())
    }
}

impl From<InvalidOptions> for Error {
    fn from(e: InvalidOptions) -> Self {
        Error::new(ErrorCode::InvalidOptions, e.to_string())
    }
}

impl From<JsonError> for Error {
    fn from(e: JsonError) -> Self {
        Error::new(ErrorCode::BadRequest, e.to_string())
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::new(ErrorCode::Io, e.to_string())
    }
}

impl From<crate::store::StoreError> for Error {
    fn from(e: crate::store::StoreError) -> Self {
        Error::new(ErrorCode::Store, e.to_string())
    }
}

/// The second level of a two-level hierarchy as it travels on the wire.
/// Line and element size are shared with (and taken from) the L1 spec;
/// only capacity and associativity vary per level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L2Spec {
    /// L2 capacity in bytes.
    pub size_bytes: i64,
    /// L2 associativity.
    pub assoc: i64,
}

/// Cache model as it travels on the wire: the four byte-denominated
/// hardware parameters of [`CacheConfig::new`] plus the optional
/// [`CacheModel`] extensions — replacement policy, write policy, and an
/// inclusive L2. The extensions default to the paper's Section 2.3
/// machine (single-level true-LRU write-back) and are **omitted from the
/// JSON encoding at those defaults**, so pre-model clients, stored
/// request corpora, and byte-for-byte response comparisons are all
/// untouched by their existence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSpec {
    /// Total capacity in bytes (`Cs`).
    pub size_bytes: i64,
    /// Associativity (`k`).
    pub assoc: i64,
    /// Line size in bytes (`Ls`).
    pub line_bytes: i64,
    /// Data element size in bytes.
    pub elem_bytes: i64,
    /// Replacement policy (default [`PolicyKind::Lru`]).
    pub policy: PolicyKind,
    /// Write policy (default [`WritePolicy::WriteBack`]).
    pub write: WritePolicy,
    /// Optional inclusive second level (default `None`).
    pub l2: Option<L2Spec>,
}

impl CacheSpec {
    /// A baseline (single-level LRU write-back) spec from the four
    /// geometry parameters.
    pub fn new(size_bytes: i64, assoc: i64, line_bytes: i64, elem_bytes: i64) -> Self {
        CacheSpec {
            size_bytes,
            assoc,
            line_bytes,
            elem_bytes,
            policy: PolicyKind::Lru,
            write: WritePolicy::WriteBack,
            l2: None,
        }
    }

    /// The baseline spec of an already-validated geometry.
    pub fn of(cfg: &CacheConfig) -> Self {
        CacheSpec::new(
            cfg.size_bytes(),
            cfg.assoc(),
            cfg.line_bytes(),
            cfg.elem_bytes(),
        )
    }

    /// The spec of an already-validated model.
    pub fn of_model(model: &CacheModel) -> Self {
        let mut spec = CacheSpec::of(&model.l1());
        spec.policy = model.policy_kind();
        spec.write = model.write_policy();
        spec.l2 = model.l2().map(|l2| L2Spec {
            size_bytes: l2.size_bytes(),
            assoc: l2.assoc(),
        });
        spec
    }

    /// Validates the L1 geometry into a [`CacheConfig`] (policy and L2
    /// fields are not consulted — see [`CacheSpec::model`] for the full
    /// model).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidCache`] on infeasible geometry.
    pub fn build(&self) -> Result<CacheConfig, Error> {
        Ok(CacheConfig::new(
            self.size_bytes,
            self.assoc,
            self.line_bytes,
            self.elem_bytes,
        )?)
    }

    /// Validates the full [`CacheModel`] — L1 geometry, policies, and the
    /// optional L2 (which shares L1's line and element size).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidCache`] on infeasible geometry at either level
    /// or an inconsistent hierarchy (L2 smaller than L1).
    pub fn model(&self) -> Result<CacheModel, Error> {
        let l1 = self.build()?;
        let mut model = CacheModel::new(l1).policy(self.policy).write(self.write);
        if let Some(l2) = self.l2 {
            let l2 = CacheConfig::new(l2.size_bytes, l2.assoc, self.line_bytes, self.elem_bytes)?;
            model = model
                .with_l2(l2)
                .map_err(|e| Error::new(ErrorCode::InvalidCache, e.to_string()))?;
        }
        Ok(model)
    }

    /// `true` when the spec asks for the paper's baseline machine —
    /// single-level, true-LRU, write-back — which the analytic path
    /// answers exactly.
    pub fn is_baseline(&self) -> bool {
        self.policy == PolicyKind::Lru && self.write == WritePolicy::WriteBack && self.l2.is_none()
    }

    fn to_json(self) -> Json {
        let mut pairs = vec![
            ("size", Json::Int(self.size_bytes)),
            ("assoc", Json::Int(self.assoc)),
            ("line", Json::Int(self.line_bytes)),
            ("elem", Json::Int(self.elem_bytes)),
        ];
        // Model fields ride only when non-default: the baseline encoding
        // stays byte-identical to the pre-model wire format.
        if self.policy != PolicyKind::Lru {
            pairs.push(("policy", Json::Str(self.policy.as_str().into())));
        }
        if self.write != WritePolicy::WriteBack {
            pairs.push(("write", Json::Str(self.write.as_str().into())));
        }
        if let Some(l2) = self.l2 {
            pairs.push((
                "l2",
                obj([
                    ("size", Json::Int(l2.size_bytes)),
                    ("assoc", Json::Int(l2.assoc)),
                ]),
            ));
        }
        obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, Error> {
        let mut spec = CacheSpec::new(
            req_i64(v, "size")?,
            req_i64(v, "assoc")?,
            req_i64(v, "line")?,
            req_i64(v, "elem")?,
        );
        match v.get("policy") {
            None | Some(Json::Null) => {}
            Some(p) => {
                let s = p
                    .as_str()
                    .ok_or_else(|| bad("field `policy` must be a string"))?;
                spec.policy = PolicyKind::parse(s).ok_or_else(|| {
                    Error::new(
                        ErrorCode::InvalidCache,
                        format!("unknown replacement policy `{s}` (expected lru, fifo, or plru)"),
                    )
                })?;
            }
        }
        match v.get("write") {
            None | Some(Json::Null) => {}
            Some(w) => {
                let s = w
                    .as_str()
                    .ok_or_else(|| bad("field `write` must be a string"))?;
                spec.write = WritePolicy::parse(s).ok_or_else(|| {
                    Error::new(
                        ErrorCode::InvalidCache,
                        format!(
                            "unknown write policy `{s}` (expected write-back or write-through)"
                        ),
                    )
                })?;
            }
        }
        match v.get("l2") {
            None | Some(Json::Null) => {}
            Some(l2) => {
                spec.l2 = Some(L2Spec {
                    size_bytes: req_i64(l2, "size")?,
                    assoc: req_i64(l2, "assoc")?,
                });
            }
        }
        Ok(spec)
    }
}

fn bad(msg: impl Into<String>) -> Error {
    Error::new(ErrorCode::BadRequest, msg)
}

fn req_i64(v: &Json, key: &str) -> Result<i64, Error> {
    v.get(key)
        .and_then(Json::as_i64)
        .ok_or_else(|| bad(format!("missing or non-integer field `{key}`")))
}

fn req_str(v: &Json, key: &str) -> Result<String, Error> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| bad(format!("missing or non-string field `{key}`")))
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, Error> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_u64()
            .map(Some)
            .ok_or_else(|| bad(format!("field `{key}` must be a non-negative integer"))),
    }
}

/// One analysis query: the program, the geometry, the precision knob, and
/// the resource budget — everything a frontend may vary per request.
///
/// ```
/// use cme_core::api::{AnalyzeRequest, CacheSpec};
///
/// let req = AnalyzeRequest::new(
///     "q1",
///     "REAL A(64) AT 0\nDO i = 1, 64\n  s = s + A(i)\nENDDO\n",
///     CacheSpec::new(8192, 1, 32, 4),
/// );
/// let round = AnalyzeRequest::decode(&req.encode()).unwrap();
/// assert_eq!(round, req);
/// assert_eq!(round.parse_program().unwrap().depth(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// Client-chosen correlation id, echoed verbatim in the response.
    pub id: String,
    /// The loop nest as `.cme` source text.
    pub program: String,
    /// The cache geometry to analyze against.
    pub cache: CacheSpec,
    /// The `ε` early-stop threshold of Figure 6 (`0` = exact).
    pub epsilon: u64,
    /// Wall-clock budget in milliseconds (`None` = unlimited).
    pub budget_ms: Option<u64>,
    /// Equation-evaluation budget (`None` = unlimited).
    pub max_solves: Option<u64>,
    /// Resident point-set ceiling (`None` = unlimited).
    pub max_points: Option<u64>,
}

impl AnalyzeRequest {
    /// A full-budget exact request.
    pub fn new(id: impl Into<String>, program: impl Into<String>, cache: CacheSpec) -> Self {
        AnalyzeRequest {
            id: id.into(),
            program: program.into(),
            cache,
            epsilon: 0,
            budget_ms: None,
            max_solves: None,
            max_points: None,
        }
    }

    /// Builds a request from an in-memory nest via
    /// [`cme_ir::parse::to_source`]; `None` for nests outside the textual
    /// format (non-1 array origins).
    pub fn from_nest(id: impl Into<String>, nest: &LoopNest, cache: CacheSpec) -> Option<Self> {
        Some(AnalyzeRequest::new(id, to_source(nest)?, cache))
    }

    /// Parses and validates the program text.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Parse`] with the parser's positioned message.
    pub fn parse_program(&self) -> Result<LoopNest, Error> {
        Ok(parse_nest(&self.program)?)
    }

    /// Validates the cache geometry.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidCache`].
    pub fn cache_config(&self) -> Result<CacheConfig, Error> {
        self.cache.build()
    }

    /// Validates the full cache model (geometry, policies, optional L2).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidCache`].
    pub fn cache_model(&self) -> Result<CacheModel, Error> {
        self.cache.model()
    }

    /// The analysis options this request asks for.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::InvalidOptions`] on inconsistent combinations.
    pub fn options(&self) -> Result<AnalysisOptions, Error> {
        Ok(AnalysisOptions::builder()
            .epsilon(self.epsilon)
            .try_build()?)
    }

    /// The per-request governor budget (unlimited when no limit is set).
    pub fn budget(&self) -> Budget {
        let mut b = Budget::unlimited();
        if let Some(ms) = self.budget_ms {
            b = b.with_deadline(Duration::from_millis(ms));
        }
        if let Some(n) = self.max_solves {
            b = b.with_max_solves(n);
        }
        if let Some(n) = self.max_points {
            b = b.with_max_points(n);
        }
        b
    }

    /// The JSON form.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("op", Json::Str("analyze".into())),
            ("id", Json::Str(self.id.clone())),
            ("program", Json::Str(self.program.clone())),
            ("cache", self.cache.to_json()),
            ("epsilon", Json::UInt(self.epsilon)),
        ];
        if let Some(ms) = self.budget_ms {
            pairs.push(("budget_ms", Json::UInt(ms)));
        }
        if let Some(n) = self.max_solves {
            pairs.push(("max_solves", Json::UInt(n)));
        }
        if let Some(n) = self.max_points {
            pairs.push(("max_points", Json::UInt(n)));
        }
        obj(pairs)
    }

    /// Parses the JSON form. The `op` field, when present, must be
    /// `"analyze"`.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`] naming the offending field.
    pub fn from_json(v: &Json) -> Result<Self, Error> {
        if let Some(op) = v.get("op") {
            if op.as_str() != Some("analyze") {
                return Err(bad("field `op` must be \"analyze\""));
            }
        }
        Ok(AnalyzeRequest {
            id: req_str(v, "id")?,
            program: req_str(v, "program")?,
            cache: CacheSpec::from_json(
                v.get("cache").ok_or_else(|| bad("missing field `cache`"))?,
            )?,
            epsilon: opt_u64(v, "epsilon")?.unwrap_or(0),
            budget_ms: opt_u64(v, "budget_ms")?,
            max_solves: opt_u64(v, "max_solves")?,
            max_points: opt_u64(v, "max_points")?,
        })
    }

    /// One protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`].
    pub fn decode(line: &str) -> Result<Self, Error> {
        AnalyzeRequest::from_json(&json::parse(line)?)
    }
}

/// Per-reference slice of a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RefSummary {
    /// The reference's display label (e.g. `Z(j,i)#0`).
    pub label: String,
    /// Cold misses.
    pub cold_misses: u64,
    /// Replacement misses.
    pub replacement_misses: u64,
    /// Reuse vectors investigated.
    pub vectors_used: u64,
}

/// How the governor left the query, flattened for the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct OutcomeSummary {
    /// True when every point was classified exactly (the counts equal an
    /// ungoverned run's).
    pub complete: bool,
    /// The first limit that tripped (`"deadline"`, `"solve budget"`,
    /// `"point budget"`, `"cancelled"`); empty when complete.
    pub reason: String,
    /// Fraction of charged work finished before the stop (`1.0` when
    /// complete).
    pub completed_fraction: f64,
    /// Points counted as misses because refinement was cut short.
    pub truncated_points: u64,
}

impl OutcomeSummary {
    /// Flattens a governor [`Outcome`].
    pub fn of(outcome: &Outcome) -> Self {
        match outcome {
            Outcome::Complete => OutcomeSummary {
                complete: true,
                reason: String::new(),
                completed_fraction: 1.0,
                truncated_points: 0,
            },
            Outcome::Exhausted {
                reason,
                completed_fraction,
                truncated_points,
                ..
            } => OutcomeSummary {
                complete: false,
                reason: reason.to_string(),
                completed_fraction: *completed_fraction,
                truncated_points: *truncated_points,
            },
        }
    }
}

/// Where a model-aware result's counts came from.
///
/// Absent (`None` on [`AnalyzeResult::provenance`]) for baseline
/// requests, whose counts are the analytic CME evaluation and carry the
/// usual exact/sound-overcount semantics of [`OutcomeSummary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Counts come from a trace replay through the requested model's
    /// simulator: exact when `outcome.complete`; otherwise the replayed
    /// prefix's counts plus every unreplayed access counted as a cold
    /// miss, a sound overcount. `lru_bound` carries the analytic LRU
    /// result alongside.
    Simulator,
}

impl Provenance {
    /// The stable wire spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            Provenance::Simulator => "simulator",
        }
    }

    /// Parses the wire spelling (`None` for unknown values — lenient, so
    /// future provenances decode as "unspecified" rather than failing).
    pub fn from_wire(s: &str) -> Option<Provenance> {
        match s {
            "simulator" => Some(Provenance::Simulator),
            _ => None,
        }
    }
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// The successful payload of a response: the counts of a
/// [`crate::NestAnalysis`] plus the governor and store provenance.
///
/// The model-aware fields (`writebacks`, `l2_misses`, `lru_bound`,
/// `provenance`) are `None` on the baseline path and **omitted from the
/// JSON encoding when `None`**, keeping baseline responses byte-identical
/// to the pre-model format.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeResult {
    /// Name of the analyzed nest.
    pub nest_name: String,
    /// Total misses (cold + replacement), an upper bound when
    /// `outcome.complete` is false.
    pub total_misses: u64,
    /// Total cold misses.
    pub total_cold: u64,
    /// Total replacement misses.
    pub total_replacement: u64,
    /// Per-reference counts, in statement order.
    pub per_ref: Vec<RefSummary>,
    /// How the governor left the query.
    pub outcome: OutcomeSummary,
    /// True when the counts were served from the persistent artifact
    /// store instead of recomputed.
    pub store_hit: bool,
    /// Memory write traffic observed by the model simulator (complete
    /// replays only).
    pub writebacks: Option<u64>,
    /// Total L2 misses (two-level models, complete replays only).
    pub l2_misses: Option<u64>,
    /// The analytic LRU total-miss count attached to a model-aware
    /// result: for non-LRU policies the LRU stack-distance criterion is
    /// not exact, so this travels as a *documented bound* next to the
    /// simulator-exact counts.
    pub lru_bound: Option<u64>,
    /// Which engine answered a model-aware request; `None` on the
    /// baseline path.
    pub provenance: Option<Provenance>,
}

impl AnalyzeResult {
    /// Summarizes a governed analysis.
    pub fn of(governed: &GovernedAnalysis, store_hit: bool) -> Self {
        let analysis = &governed.analysis;
        AnalyzeResult {
            nest_name: analysis.nest_name.clone(),
            total_misses: analysis.total_misses(),
            total_cold: analysis.total_cold(),
            total_replacement: analysis.total_replacement(),
            per_ref: analysis
                .per_ref
                .iter()
                .map(|r| RefSummary {
                    label: r.label.clone(),
                    cold_misses: r.cold_misses,
                    replacement_misses: r.replacement_misses,
                    vectors_used: r.vectors_used() as u64,
                })
                .collect(),
            outcome: OutcomeSummary::of(&governed.outcome),
            store_hit,
            writebacks: None,
            l2_misses: None,
            lru_bound: None,
            provenance: None,
        }
    }

    fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("nest", Json::Str(self.nest_name.clone())),
            ("total_misses", Json::UInt(self.total_misses)),
            ("total_cold", Json::UInt(self.total_cold)),
            ("total_replacement", Json::UInt(self.total_replacement)),
            (
                "per_ref",
                Json::Arr(
                    self.per_ref
                        .iter()
                        .map(|r| {
                            obj([
                                ("label", Json::Str(r.label.clone())),
                                ("cold", Json::UInt(r.cold_misses)),
                                ("replacement", Json::UInt(r.replacement_misses)),
                                ("vectors", Json::UInt(r.vectors_used)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "outcome",
                obj([
                    ("complete", Json::Bool(self.outcome.complete)),
                    ("reason", Json::Str(self.outcome.reason.clone())),
                    (
                        "completed_fraction",
                        Json::Float(self.outcome.completed_fraction),
                    ),
                    (
                        "truncated_points",
                        Json::UInt(self.outcome.truncated_points),
                    ),
                ]),
            ),
            ("store_hit", Json::Bool(self.store_hit)),
        ];
        if let Some(w) = self.writebacks {
            pairs.push(("writebacks", Json::UInt(w)));
        }
        if let Some(m) = self.l2_misses {
            pairs.push(("l2_misses", Json::UInt(m)));
        }
        if let Some(b) = self.lru_bound {
            pairs.push(("lru_bound", Json::UInt(b)));
        }
        if let Some(p) = self.provenance {
            pairs.push(("provenance", Json::Str(p.as_str().into())));
        }
        obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, Error> {
        let per_ref = v
            .get("per_ref")
            .and_then(Json::as_arr)
            .ok_or_else(|| bad("missing array field `per_ref`"))?
            .iter()
            .map(|r| {
                Ok(RefSummary {
                    label: req_str(r, "label")?,
                    cold_misses: opt_u64(r, "cold")?.unwrap_or(0),
                    replacement_misses: opt_u64(r, "replacement")?.unwrap_or(0),
                    vectors_used: opt_u64(r, "vectors")?.unwrap_or(0),
                })
            })
            .collect::<Result<Vec<_>, Error>>()?;
        let o = v
            .get("outcome")
            .ok_or_else(|| bad("missing field `outcome`"))?;
        Ok(AnalyzeResult {
            nest_name: req_str(v, "nest")?,
            total_misses: opt_u64(v, "total_misses")?.unwrap_or(0),
            total_cold: opt_u64(v, "total_cold")?.unwrap_or(0),
            total_replacement: opt_u64(v, "total_replacement")?.unwrap_or(0),
            per_ref,
            outcome: OutcomeSummary {
                complete: o.get("complete").and_then(Json::as_bool).unwrap_or(true),
                reason: o
                    .get("reason")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
                completed_fraction: o
                    .get("completed_fraction")
                    .and_then(Json::as_f64)
                    .unwrap_or(1.0),
                truncated_points: opt_u64(o, "truncated_points")?.unwrap_or(0),
            },
            store_hit: v.get("store_hit").and_then(Json::as_bool).unwrap_or(false),
            writebacks: opt_u64(v, "writebacks")?,
            l2_misses: opt_u64(v, "l2_misses")?,
            lru_bound: opt_u64(v, "lru_bound")?,
            provenance: v
                .get("provenance")
                .and_then(Json::as_str)
                .and_then(Provenance::from_wire),
        })
    }
}

/// One analysis answer: the echoed request id plus either a result or a
/// coded error.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeResponse {
    /// The request's correlation id, echoed verbatim.
    pub id: String,
    /// The counts, or why there are none.
    pub result: Result<AnalyzeResult, Error>,
}

impl AnalyzeResponse {
    /// A success response.
    pub fn ok(id: impl Into<String>, result: AnalyzeResult) -> Self {
        AnalyzeResponse {
            id: id.into(),
            result: Ok(result),
        }
    }

    /// An error response.
    pub fn err(id: impl Into<String>, error: Error) -> Self {
        AnalyzeResponse {
            id: id.into(),
            result: Err(error),
        }
    }

    /// The JSON form: `{"id", "ok": {...}}` or
    /// `{"id", "error": {"code", "message"}}`.
    pub fn to_json(&self) -> Json {
        match &self.result {
            Ok(r) => obj([("id", Json::Str(self.id.clone())), ("ok", r.to_json())]),
            Err(e) => obj([
                ("id", Json::Str(self.id.clone())),
                (
                    "error",
                    obj([
                        ("code", Json::Str(e.code.as_str().into())),
                        ("message", Json::Str(e.message.clone())),
                    ]),
                ),
            ]),
        }
    }

    /// Parses the JSON form. Unknown error codes degrade to
    /// [`ErrorCode::Internal`] (forward compatibility).
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`] when neither `ok` nor `error` is present.
    pub fn from_json(v: &Json) -> Result<Self, Error> {
        let id = req_str(v, "id")?;
        if let Some(ok) = v.get("ok") {
            return Ok(AnalyzeResponse {
                id,
                result: Ok(AnalyzeResult::from_json(ok)?),
            });
        }
        if let Some(e) = v.get("error") {
            let code = req_str(e, "code")?;
            return Ok(AnalyzeResponse {
                id,
                result: Err(Error::new(
                    ErrorCode::from_wire(&code).unwrap_or(ErrorCode::Internal),
                    req_str(e, "message")?,
                )),
            });
        }
        Err(bad("response has neither `ok` nor `error`"))
    }

    /// One protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().encode()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::BadRequest`].
    pub fn decode(line: &str) -> Result<Self, Error> {
        AnalyzeResponse::from_json(&json::parse(line)?)
    }
}

impl Analyzer {
    /// Serves one [`AnalyzeRequest`] on this session: parses and validates
    /// the request, analyzes under the request's own options and budget
    /// (overriding the session's) and the session's cancel token, and
    /// packages the counts — or the coded failure — as an
    /// [`AnalyzeResponse`]. The request's cache model (geometry and
    /// policies) must match the session's; `cme-serve` routes requests to
    /// per-model sessions, and in-process callers construct the session
    /// from the request ([`AnalyzeRequest::cache_model`]).
    ///
    /// Budget exhaustion is a *success* with `outcome.complete = false`,
    /// never an error.
    pub fn serve(&self, request: &AnalyzeRequest) -> AnalyzeResponse {
        match self.serve_inner(request) {
            Ok(result) => AnalyzeResponse::ok(&request.id, result),
            Err(e) => AnalyzeResponse::err(&request.id, e),
        }
    }

    fn serve_inner(&self, request: &AnalyzeRequest) -> Result<AnalyzeResult, Error> {
        let model = request.cache_model()?;
        if &model != self.model() {
            return Err(Error::new(
                ErrorCode::InvalidCache,
                format!(
                    "request cache model ({model}) does not match the session ({})",
                    self.model()
                ),
            ));
        }
        let nest = request.parse_program()?;
        let options = request.options()?;
        let budget = request.budget();
        // The driver says whether the store answered this request; the
        // session's hit counter is shared with concurrent callers.
        let (governed, store_hit) = self.run_one(&nest, &options, budget)?;
        if model.is_baseline() {
            return Ok(AnalyzeResult::of(&governed, store_hit));
        }
        // Non-baseline model: the analytic counts above are the LRU
        // *bound* (and performed the address-overflow validation); the
        // answer comes from the governed trace replay.
        let lru_bound = governed.analysis.total_misses();
        let classification = self.classify_model(&nest, budget);
        let (counts, writebacks, l2_misses) = match classification.sim {
            Ok(sim) => (sim.per_ref, Some(sim.writebacks), sim.l2_misses),
            // Replay runs in program order, so the replayed prefix is exact
            // under every policy; counting every unreplayed access as a cold
            // miss makes the answer a sound overcount. Write traffic and L2
            // misses have no stated bound here, so they are left out.
            Err(prefix) => {
                let points = nest.space().count();
                let counts = prefix
                    .into_iter()
                    .map(|s| MissStats {
                        accesses: points,
                        cold: s.cold + (points - s.accesses),
                        ..s
                    })
                    .collect();
                (counts, None, None)
            }
        };
        let per_ref = governed
            .analysis
            .per_ref
            .iter()
            .zip(&counts)
            .map(|(r, s)| RefSummary {
                label: r.label.clone(),
                cold_misses: s.cold,
                replacement_misses: s.replacement,
                vectors_used: r.vectors_used() as u64,
            })
            .collect();
        let total: MissStats = counts.into_iter().sum();
        Ok(AnalyzeResult {
            nest_name: nest.name().to_string(),
            total_misses: total.misses(),
            total_cold: total.cold,
            total_replacement: total.replacement,
            per_ref,
            outcome: OutcomeSummary::of(&classification.outcome),
            store_hit,
            writebacks,
            l2_misses,
            lru_bound: Some(lru_bound),
            provenance: Some(Provenance::Simulator),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_ir::{AccessKind, NestBuilder};

    fn spec() -> CacheSpec {
        CacheSpec::new(8192, 1, 32, 4)
    }

    fn sweep_source() -> &'static str {
        "REAL A(64) AT 0\nDO i = 1, 64\n  s = s + A(i)\nENDDO\n"
    }

    #[test]
    fn request_round_trips_through_json() {
        let mut req = AnalyzeRequest::new("q-1", sweep_source(), spec());
        req.epsilon = 10;
        req.budget_ms = Some(250);
        req.max_solves = Some(1_000_000);
        let line = req.encode();
        assert!(!line.contains('\n'), "wire framing is single-line");
        assert_eq!(AnalyzeRequest::decode(&line).unwrap(), req);
    }

    #[test]
    fn request_budget_and_options_materialize() {
        let mut req = AnalyzeRequest::new("q", sweep_source(), spec());
        req.budget_ms = Some(5);
        req.max_points = Some(77);
        let b = req.budget();
        assert_eq!(b.deadline(), Some(Duration::from_millis(5)));
        assert_eq!(b.max_points(), Some(77));
        assert_eq!(b.max_solves(), None);
        assert!(AnalyzeRequest::new("q", sweep_source(), spec())
            .budget()
            .is_unlimited());
        assert_eq!(req.options().unwrap().epsilon, 0);
    }

    #[test]
    fn from_nest_uses_the_textual_format() {
        let mut b = NestBuilder::new();
        b.ct_loop("i", 1, 64);
        let a = b.array("A", &[64], 0);
        b.reference(a, AccessKind::Read, &[("i", 0)]);
        let nest = b.build().unwrap();
        let req = AnalyzeRequest::from_nest("n", &nest, spec()).unwrap();
        let parsed = req.parse_program().unwrap();
        assert_eq!(parsed.references().len(), nest.references().len());
    }

    #[test]
    fn baseline_wire_bytes_carry_no_model_fields() {
        // Old clients must see byte-identical lines for baseline requests
        // and responses: the model fields only appear when non-default.
        let req = AnalyzeRequest::new("b", sweep_source(), spec());
        let line = req.encode();
        for f in ["policy", "write", "l2"] {
            assert!(!line.contains(f), "`{f}` leaked into {line}");
        }
        let cfg = spec().build().unwrap();
        let ok = Analyzer::new(cfg).serve(&req).encode();
        for f in ["writebacks", "l2_misses", "lru_bound", "provenance"] {
            assert!(!ok.contains(f), "`{f}` leaked into {ok}");
        }
    }

    #[test]
    fn model_spec_round_trips_and_defaults() {
        let mut s = spec();
        s.policy = PolicyKind::Fifo;
        s.write = WritePolicy::WriteThrough;
        s.l2 = Some(L2Spec {
            size_bytes: 65536,
            assoc: 8,
        });
        let req = AnalyzeRequest::new("m", sweep_source(), s);
        let line = req.encode();
        assert!(line.contains("\"policy\":\"fifo\""), "{line}");
        let back = AnalyzeRequest::decode(&line).unwrap();
        assert_eq!(back, req);
        let model = back.cache.model().unwrap();
        assert_eq!(model.policy_kind(), PolicyKind::Fifo);
        assert!(!model.is_baseline());
        // Absent fields decode to the baseline model (old clients).
        let old = AnalyzeRequest::new("o", sweep_source(), spec());
        let decoded = AnalyzeRequest::decode(&old.encode()).unwrap();
        assert!(decoded.cache.model().unwrap().is_baseline());
    }

    #[test]
    fn unknown_policy_is_a_typed_invalid_cache_error() {
        let mut s = spec();
        s.policy = PolicyKind::Fifo;
        let line = AnalyzeRequest::new("q", sweep_source(), s)
            .encode()
            .replace("fifo", "random");
        let e = AnalyzeRequest::decode(&line).unwrap_err();
        assert_eq!(e.code, ErrorCode::InvalidCache);
        assert!(e.message.contains("random"), "{}", e.message);
    }

    #[test]
    fn serving_a_fifo_model_attaches_bound_and_provenance() {
        let mut s = spec();
        s.policy = PolicyKind::Fifo;
        let analyzer = Analyzer::with_model(s.model().unwrap());
        let resp = analyzer.serve(&AnalyzeRequest::new("f", sweep_source(), s));
        let result = resp.result.as_ref().unwrap();
        assert_eq!(result.provenance, Some(Provenance::Simulator));
        assert_eq!(result.lru_bound, Some(8));
        assert!(result.outcome.complete);
        // Direct-mapped FIFO equals LRU on this streaming kernel, so the
        // exact counts meet the bound; a read-only kernel writes nothing.
        assert_eq!(result.total_misses, 8);
        assert_eq!(result.writebacks, Some(0));
        assert_eq!(result.l2_misses, None);
        // The model-aware fields survive the wire.
        assert_eq!(AnalyzeResponse::decode(&resp.encode()).unwrap(), resp);
    }

    #[test]
    fn model_mismatch_against_the_session_is_invalid_cache() {
        let cfg = spec().build().unwrap();
        let analyzer = Analyzer::new(cfg); // baseline session
        let mut s = spec();
        s.policy = PolicyKind::Plru;
        let resp = analyzer.serve(&AnalyzeRequest::new("p", sweep_source(), s));
        assert_eq!(resp.result.unwrap_err().code, ErrorCode::InvalidCache);
    }

    #[test]
    fn serve_answers_and_echoes_id() {
        let cfg = spec().build().unwrap();
        let analyzer = Analyzer::new(cfg);
        let resp = analyzer.serve(&AnalyzeRequest::new("abc", sweep_source(), spec()));
        assert_eq!(resp.id, "abc");
        let result = resp.result.unwrap();
        assert_eq!(result.total_misses, 8);
        assert!(result.outcome.complete);
        assert!(!result.store_hit);
        // The response survives the wire.
        let resp2 = AnalyzeResponse::ok("abc", result);
        assert_eq!(AnalyzeResponse::decode(&resp2.encode()).unwrap(), resp2);
    }

    #[test]
    fn serve_matches_in_process_analysis() {
        let cfg = spec().build().unwrap();
        let analyzer = Analyzer::new(cfg);
        let req = AnalyzeRequest::new("q", sweep_source(), spec());
        let nest = req.parse_program().unwrap();
        let direct = analyzer.analyze(&nest);
        let served = analyzer.serve(&req).result.unwrap();
        assert_eq!(served.total_misses, direct.total_misses());
        assert_eq!(served.total_cold, direct.total_cold());
        assert_eq!(served.per_ref.len(), direct.per_ref.len());
    }

    #[test]
    fn serve_reports_coded_errors() {
        let cfg = spec().build().unwrap();
        let analyzer = Analyzer::new(cfg);
        let resp = analyzer.serve(&AnalyzeRequest::new("x", "DO i = ENDDO", spec()));
        assert_eq!(resp.result.unwrap_err().code, ErrorCode::Parse);
        let mut req = AnalyzeRequest::new("y", sweep_source(), spec());
        req.cache.assoc = 3; // infeasible geometry
        let resp = analyzer.serve(&req);
        assert_eq!(resp.result.unwrap_err().code, ErrorCode::InvalidCache);
        let mut req = AnalyzeRequest::new("z", sweep_source(), spec());
        req.cache.size_bytes = 4096; // valid but a different session
        let resp = analyzer.serve(&req);
        assert_eq!(resp.result.unwrap_err().code, ErrorCode::InvalidCache);
    }

    #[test]
    fn serve_surfaces_exhaustion_as_degraded_success() {
        let cfg = spec().build().unwrap();
        let analyzer = Analyzer::new(cfg);
        let mut req = AnalyzeRequest::new("tight", sweep_source(), spec());
        req.max_solves = Some(1);
        let result = analyzer.serve(&req).result.unwrap();
        assert!(!result.outcome.complete);
        assert!(!result.outcome.reason.is_empty());
        // Sound overcount: never below the exact answer.
        assert!(result.total_misses >= 8);
    }

    #[test]
    fn error_codes_are_stable() {
        let all = [
            (ErrorCode::BadRequest, "bad-request", 10),
            (ErrorCode::Parse, "parse", 11),
            (ErrorCode::InvalidCache, "invalid-cache", 12),
            (ErrorCode::InvalidOptions, "invalid-options", 13),
            (ErrorCode::WorkerPanic, "worker-panic", 20),
            (ErrorCode::Overflow, "overflow", 21),
            (ErrorCode::Store, "store", 30),
            (ErrorCode::Io, "io", 31),
            (ErrorCode::Overloaded, "overloaded", 32),
            (ErrorCode::Mismatch, "mismatch", 40),
            (ErrorCode::Internal, "internal", 50),
        ];
        for (code, s, exit) in all {
            assert_eq!(code.as_str(), s);
            assert_eq!(code.exit_code(), exit);
            assert_eq!(ErrorCode::from_wire(s), Some(code));
        }
        assert_eq!(ErrorCode::from_wire("no-such-code"), None);
    }

    #[test]
    fn internal_errors_convert_with_their_codes() {
        let e: Error = AnalysisError::Overflow {
            context: "ref #0".into(),
        }
        .into();
        assert_eq!(e.code, ErrorCode::Overflow);
        let e: Error = AnalysisError::WorkerPanic {
            message: "boom".into(),
        }
        .into();
        assert_eq!(e.code, ErrorCode::WorkerPanic);
        let e: Error = parse_nest("garbage").unwrap_err().into();
        assert_eq!(e.code, ErrorCode::Parse);
        let e: Error = CacheConfig::new(0, 1, 32, 4).unwrap_err().into();
        assert_eq!(e.code, ErrorCode::InvalidCache);
        let e: Error = AnalysisOptions::builder()
            .epsilon(5)
            .exact_equation_counts(true)
            .try_build()
            .unwrap_err()
            .into();
        assert_eq!(e.code, ErrorCode::InvalidOptions);
        let e: Error = json::parse("{{").unwrap_err().into();
        assert_eq!(e.code, ErrorCode::BadRequest);
    }

    #[test]
    fn unknown_wire_error_code_degrades_to_internal() {
        let line = r#"{"error":{"code":"from-the-future","message":"m"},"id":"x"}"#;
        let resp = AnalyzeResponse::decode(line).unwrap();
        assert_eq!(resp.result.unwrap_err().code, ErrorCode::Internal);
    }
}
