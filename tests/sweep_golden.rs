//! Golden snapshots of the *fitted miss functions* on the Table-1
//! kernels: for each kernel, a Section 5.1.3 padding sweep is answered in
//! closed form and the complete fit — quasi-polynomial, certificate, and
//! analytic optimum — is rendered verbatim. Any drift in the sweep
//! engine's sampling policy, the fitter, or the underlying miss counts
//! shows up as a one-line diff here.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cme --test sweep_golden
//! ```

use cme::cache::CacheConfig;
use cme::core::{Analyzer, SweepParameter, SweepRequest};
use cme::ir::ArrayId;
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/sweep_functions.txt")
}

/// Renders one kernel's padding sweep: the request, the fit (or the
/// fallback), and the analytic optimum, all from a cold session.
fn render(nest: &cme::ir::LoopNest, cache: CacheConfig) -> String {
    let mut out = String::new();
    // Pad after the first array: every kernel has one, and the shift
    // moves all later arrays together — the paper's inter-variable
    // padding knob.
    let request = SweepRequest::new(
        SweepParameter::PadBytes {
            after: ArrayId::from_index(0),
        },
        0,
        96,
        16 * cache.elem_bytes(),
    );
    let analyzer = Analyzer::new(cache).threads(1);
    let result = analyzer
        .sweep(nest, &request)
        .expect("table-1 sweeps never error");

    writeln!(out, "== {} on {} ==", nest.name(), cache).unwrap();
    writeln!(
        out,
        "request: pad-bytes after #0, 96 candidates step {}",
        request.step
    )
    .unwrap();
    match (&result.function, &result.certificate) {
        (Some(f), Some(cert)) => {
            writeln!(out, "fit: {f}").unwrap();
            writeln!(out, "certificate: {cert}").unwrap();
            writeln!(
                out,
                "shape: onset={} period={} head={:?} coeffs={:?}",
                f.onset(),
                f.period(),
                f.head(),
                f.coefficients()
            )
            .unwrap();
        }
        _ => {
            writeln!(out, "fit: none (exhaustive fallback)").unwrap();
        }
    }
    writeln!(
        out,
        "optimum: k={} value={} misses={} ({} evaluations over {} candidates)",
        result.best_k, result.best_value, result.best_misses, result.evaluations, result.candidates
    )
    .unwrap();
    out
}

#[test]
fn table1_fitted_miss_functions_match_golden() {
    let cache = CacheConfig::new(1024, 2, 32, 4).unwrap();
    let mut actual = String::new();
    for nest in cme::kernels::table1_suite(12) {
        actual.push_str(&render(&nest, cache));
        actual.push('\n');
    }

    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {path:?} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test -p cme --test sweep_golden"
        )
    });
    assert_eq!(
        actual.trim(),
        expected.trim(),
        "fitted miss functions diverged from the golden snapshot; if the \
         change is intentional regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn golden_snapshot_contains_genuine_fits() {
    // The snapshot must stay meaningful: at least four kernels fit a
    // closed form (not everything degraded to fallback), and the file
    // records a certificate for each fit.
    let text = std::fs::read_to_string(golden_path())
        .unwrap_or_else(|e| panic!("missing golden file ({e}); run UPDATE_GOLDEN=1 first"));
    let fits = text.matches("certificate: period").count();
    assert!(
        fits >= 4,
        "expected >=4 certified fits in the snapshot, found {fits}"
    );
}
