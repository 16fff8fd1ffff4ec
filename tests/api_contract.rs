//! Wire-level contract of `cme::api`: the request/response schema and the
//! stable error-code surface every frontend shares.
//!
//! These tests pin what `cmetool`, the `cme-serve` line protocol, and the
//! diffcheck corpus replayer all rely on: encode → decode is the identity
//! on requests and responses (including degraded outcomes), error codes
//! and exit codes never change meaning, and unknown future codes degrade
//! to `internal` instead of failing the decode.

use cme::api::json::{self, Json};
use cme::api::{AnalyzeRequest, AnalyzeResponse, CacheSpec, Error, ErrorCode, L2Spec, Provenance};
use cme::Analyzer;
use cme_cache::{PolicyKind, WritePolicy};
use cme_testgen::{arb_cache, arb_nest, NestDistribution};
use proptest::prelude::*;

fn spec() -> CacheSpec {
    CacheSpec::new(8192, 1, 32, 4)
}

fn sweep() -> &'static str {
    "REAL A(64) AT 0\nDO i = 1, 64\n  s = s + A(i)\nENDDO\n"
}

#[test]
fn requests_round_trip_with_all_optional_fields() {
    let mut req = AnalyzeRequest::new("id-1", sweep(), spec());
    req.epsilon = 3;
    req.budget_ms = Some(1500);
    req.max_solves = Some(u64::MAX); // u64 precision must survive JSON
    req.max_points = Some(1 << 40);
    let line = req.encode();
    assert!(!line.contains('\n'));
    assert_eq!(AnalyzeRequest::decode(&line).unwrap(), req);

    // Deterministic encoding: same request, same bytes.
    assert_eq!(
        req.encode(),
        AnalyzeRequest::decode(&line).unwrap().encode()
    );
}

#[test]
fn responses_round_trip_including_degraded_outcomes() {
    let analyzer = Analyzer::new(spec().build().unwrap());
    let mut req = AnalyzeRequest::new("tight", sweep(), spec());
    req.max_solves = Some(1);
    let resp = analyzer.serve(&req);
    let result = resp.result.as_ref().unwrap();
    assert!(!result.outcome.complete, "one solve must exhaust");

    let decoded = AnalyzeResponse::decode(&resp.encode()).unwrap();
    assert_eq!(decoded, resp);
    let round = decoded.result.unwrap();
    assert_eq!(round.outcome.reason, result.outcome.reason);
    assert_eq!(
        round.outcome.truncated_points,
        result.outcome.truncated_points
    );
    assert!((round.outcome.completed_fraction - result.outcome.completed_fraction).abs() < 1e-9);

    // Error responses round-trip too, code intact.
    let err = AnalyzeResponse::err("x", Error::new(ErrorCode::Parse, "line 3: botched"));
    assert_eq!(AnalyzeResponse::decode(&err.encode()).unwrap(), err);
}

#[test]
fn error_codes_and_exit_codes_are_frozen() {
    // This table IS the compatibility contract: a mapping change here is
    // a breaking protocol change, not a refactor.
    let frozen = [
        ("bad-request", 10),
        ("parse", 11),
        ("invalid-cache", 12),
        ("invalid-options", 13),
        ("worker-panic", 20),
        ("overflow", 21),
        ("store", 30),
        ("io", 31),
        ("overloaded", 32),
        ("mismatch", 40),
        ("internal", 50),
    ];
    for (wire, exit) in frozen {
        let code = ErrorCode::from_wire(wire)
            .unwrap_or_else(|| panic!("wire code `{wire}` must keep parsing"));
        assert_eq!(code.as_str(), wire);
        assert_eq!(code.exit_code(), exit);
    }
}

#[test]
fn unknown_error_codes_degrade_to_internal() {
    let line = r#"{"error":{"code":"not-yet-invented","message":"m"},"id":"q"}"#;
    let resp = AnalyzeResponse::decode(line).unwrap();
    assert_eq!(resp.result.unwrap_err().code, ErrorCode::Internal);
}

#[test]
fn malformed_requests_fail_with_named_fields() {
    for (line, needle) in [
        (
            r#"{"op":"analyze","program":"x","cache":{"size":1,"assoc":1,"line":1,"elem":1}}"#,
            "id",
        ),
        (
            r#"{"id":"a","cache":{"size":1,"assoc":1,"line":1,"elem":1}}"#,
            "program",
        ),
        (r#"{"id":"a","program":"x"}"#, "cache"),
        (
            r#"{"id":"a","program":"x","cache":{"assoc":1,"line":1,"elem":1}}"#,
            "size",
        ),
        (
            r#"{"id":"a","program":"x","cache":{"size":1,"assoc":1,"line":1,"elem":1},"budget_ms":-4}"#,
            "budget_ms",
        ),
    ] {
        let err = AnalyzeRequest::decode(line).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(
            err.message.contains(needle),
            "`{}` should name `{needle}`",
            err.message
        );
    }
}

#[test]
fn model_fields_are_absent_at_baseline_and_round_trip_otherwise() {
    // Old-client pinning: a baseline request encodes without any model
    // field, so pre-model servers, stored corpora, and byte-for-byte
    // comparisons are untouched by the model extension.
    let line = AnalyzeRequest::new("b", sweep(), spec()).encode();
    for f in ["\"policy\"", "\"write\"", "\"l2\""] {
        assert!(!line.contains(f), "`{f}` must not appear in {line}");
    }
    // Full model round-trip, deterministic encoding included.
    let mut s = spec();
    s.policy = PolicyKind::Plru;
    s.write = WritePolicy::WriteThrough;
    s.l2 = Some(L2Spec {
        size_bytes: 65536,
        assoc: 8,
    });
    let req = AnalyzeRequest::new("m", sweep(), s);
    let decoded = AnalyzeRequest::decode(&req.encode()).unwrap();
    assert_eq!(decoded, req);
    assert_eq!(decoded.encode(), req.encode());
    assert!(!decoded.cache.model().unwrap().is_baseline());
}

#[test]
fn model_wire_validation_yields_typed_errors() {
    // Decode-time shape errors are `bad-request`; semantic cache-model
    // errors are `invalid-cache` — both frozen codes.
    let cases: &[(&str, ErrorCode, &str)] = &[
        (
            r#"{"id":"a","program":"x","cache":{"size":8192,"assoc":1,"line":32,"elem":4,"policy":"random"}}"#,
            ErrorCode::InvalidCache,
            "random",
        ),
        (
            r#"{"id":"a","program":"x","cache":{"size":8192,"assoc":1,"line":32,"elem":4,"policy":42}}"#,
            ErrorCode::BadRequest,
            "policy",
        ),
        (
            r#"{"id":"a","program":"x","cache":{"size":8192,"assoc":1,"line":32,"elem":4,"write":"copy-back"}}"#,
            ErrorCode::InvalidCache,
            "copy-back",
        ),
        (
            r#"{"id":"a","program":"x","cache":{"size":8192,"assoc":1,"line":32,"elem":4,"l2":{"assoc":8}}}"#,
            ErrorCode::BadRequest,
            "size",
        ),
    ];
    for (line, code, needle) in cases {
        let err = AnalyzeRequest::decode(line).unwrap_err();
        assert_eq!(&err.code, code, "{line}");
        assert!(err.message.contains(needle), "`{}`", err.message);
    }
    // Geometry-level L2 problems surface when the model is built.
    for l2 in [
        L2Spec {
            size_bytes: -65536,
            assoc: 8,
        },
        L2Spec {
            size_bytes: 12345, // not a power-of-two multiple of the line
            assoc: 8,
        },
        L2Spec {
            size_bytes: 1024, // smaller than the 8 KiB L1
            assoc: 8,
        },
    ] {
        let mut s = spec();
        s.l2 = Some(l2);
        let req = AnalyzeRequest::decode(&AnalyzeRequest::new("a", sweep(), s).encode()).unwrap();
        let err = req.cache_model().unwrap_err();
        assert_eq!(err.code, ErrorCode::InvalidCache, "{l2:?}");
    }
}

#[test]
fn model_result_fields_decode_leniently() {
    let line = r#"{"id":"q","ok":{"nest":"n","outcome":{"complete":true,"completed_fraction":1.0,"reason":"","truncated_points":0},"per_ref":[],"store_hit":false,"total_cold":3,"total_misses":5,"total_replacement":2,"writebacks":7,"l2_misses":1,"lru_bound":6,"provenance":"simulator"}}"#;
    let resp = AnalyzeResponse::decode(line).unwrap();
    let r = resp.result.unwrap();
    assert_eq!(r.writebacks, Some(7));
    assert_eq!(r.l2_misses, Some(1));
    assert_eq!(r.lru_bound, Some(6));
    assert_eq!(r.provenance, Some(Provenance::Simulator));
    // A provenance from the future decodes as unspecified, not an error —
    // same forward-compatibility stance as unknown error codes.
    let future = line.replace("\"simulator\"", "\"quantum\"");
    let r = AnalyzeResponse::decode(&future).unwrap().result.unwrap();
    assert_eq!(r.provenance, None);
}

#[test]
fn non_lru_serves_carry_exact_counts_and_the_lru_bound() {
    let mut s = spec();
    s.policy = PolicyKind::Fifo;
    let analyzer = Analyzer::with_model(s.model().unwrap());
    let resp = analyzer.serve(&AnalyzeRequest::new("f", sweep(), s));
    let result = resp.result.as_ref().unwrap();
    assert_eq!(result.provenance, Some(Provenance::Simulator));
    assert_eq!(result.lru_bound, Some(8));
    // Direct-mapped FIFO and LRU coincide, so the replay meets the bound.
    assert_eq!(result.total_misses, 8);
    assert!(result.outcome.complete);
    // The extended result survives the wire bit-for-bit.
    assert_eq!(AnalyzeResponse::decode(&resp.encode()).unwrap(), resp);
}

#[test]
fn json_values_survive_the_wire_exactly() {
    let v = json::parse(r#"{"big":18446744073709551615,"neg":-42,"s":"a b\n"}"#).unwrap();
    assert_eq!(v.get("big").and_then(Json::as_u64), Some(u64::MAX));
    assert_eq!(v.get("neg").and_then(Json::as_i64), Some(-42));
    assert_eq!(v.get("s").and_then(Json::as_str), Some("a b\n"));
    let encoded = v.encode();
    assert!(!encoded.contains('\n'), "framing: no raw newlines");
    assert_eq!(json::parse(&encoded).unwrap(), v);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For every expressible generated nest: request construction
    /// round-trips through the wire, and serving the decoded request is
    /// bit-identical to serving the original.
    #[test]
    fn generated_nests_round_trip_through_the_schema(
        nest in arb_nest(NestDistribution::default()),
        cache in arb_cache(),
    ) {
        let spec = CacheSpec::of(&cache);
        if let Some(req) = AnalyzeRequest::from_nest("gen", &nest, spec) {
            let decoded = AnalyzeRequest::decode(&req.encode()).unwrap();
            prop_assert_eq!(&decoded, &req);
            let a = Analyzer::new(cache);
            let first = a.serve(&req);
            let second = a.serve(&decoded);
            prop_assert_eq!(first.result.unwrap(), second.result.unwrap());
        }
    }
}
