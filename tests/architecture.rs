//! Structural guardrails for the staged engine (source-level checks).
//!
//! The pipeline `lower → reuse → solve → cascade → classify` is layered:
//! each stage may consume artifacts of *earlier* stages only. A stage that
//! quietly grows a dependency on a later stage (via `use super::<stage>` or
//! an inline `super::<stage>::` path) collapses the layering and makes the
//! per-stage memo keys unsound to reason about — so the dependency
//! direction is enforced here, against the source tree itself.
//!
//! The second guard keeps `engine/mod.rs` a driver rather than a dumping
//! ground: after the staged split it must stay under 650 lines. The third
//! keeps a second algorithm out of the engine: the monolithic reference
//! solver in `cme_core::solve` is a test oracle, and no engine file calls
//! it. The fourth keeps a second memo family out: the engine memoizes the
//! pipeline's artifacts only, never symbolic equation systems or their
//! polytope counts. The fifth keeps one trace walk: only `cme-cache`
//! drives a `Simulator`; everything else replays a nest through its
//! `simulate_*` entry points. The sixth keeps one session type: the
//! `Analyzer` holds the memo tables, store and counters itself, so no
//! second type offers a way to analyze around the session's budget and
//! cancel token. The seventh keeps nests, not handles: every entry point
//! takes the caller's `&LoopNest`, so no session keeps an interner of
//! every nest it has seen. The eighth keeps sweeps free of caches of their
//! own: a sweep's samples run through the pipeline memos and the store's
//! analysis entries, and with no session state left to mutate, every
//! `Analyzer` entry point takes `&self`. The ninth keeps `cme-serve`
//! waiting only on sockets and its session map's short lock: sessions are
//! shared `Arc<Analyzer>`s with no lock of their own, and the accept
//! loops block in `accept` instead of polling on a tick. The last keeps
//! one stats schema: each stats type encodes itself once, and the `stats`
//! op and `perfdump` print that encoding instead of hand-built copies.

use std::fs;
use std::path::{Path, PathBuf};

/// Pipeline order; a stage may reference only strictly earlier stages.
const STAGES: [&str; 5] = ["lower", "reuse", "solve", "cascade", "classify"];

fn engine_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/cme; the engine lives in crates/core.
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../core/src/engine")
}

/// Strips line comments (`//`, `///`, `//!`) so prose mentioning a stage
/// name does not trip the dependency check.
fn code_of(path: &Path) -> String {
    let src = fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path:?}: {e}"));
    src.lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn stages_only_depend_on_earlier_stages() {
    let dir = engine_dir().join("stages");
    for (i, stage) in STAGES.iter().enumerate() {
        let path = dir.join(format!("{stage}.rs"));
        assert!(path.is_file(), "stage file {path:?} is missing");
        let code = code_of(&path);
        for later in &STAGES[i + 1..] {
            // Cross-stage paths are spelled `super::<stage>`; the bare
            // name would also match e.g. the crate-level `crate::solve`
            // reference module, which is not a stage.
            let needle = format!("super::{later}");
            assert!(
                !code.contains(&needle),
                "stage `{stage}` references downstream stage `{later}` \
                 (found `{needle}` in {path:?}); the pipeline only flows \
                 forward"
            );
        }
    }
}

#[test]
fn stages_do_not_reach_into_the_driver() {
    // Stages may share low-level accounting (`stats`) but must not use the
    // driver's memo tables or key derivation directly — those belong to
    // `engine/mod.rs`, which owns lookup-vs-rebuild policy.
    let dir = engine_dir().join("stages");
    for stage in STAGES {
        let code = code_of(&dir.join(format!("{stage}.rs")));
        for private in ["super::super::memo", "super::super::keys"] {
            assert!(
                !code.contains(private),
                "stage `{stage}` reaches into the engine driver via `{private}`"
            );
        }
    }
}

#[test]
fn engine_mod_stays_a_driver() {
    let path = engine_dir().join("mod.rs");
    let lines = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("read {path:?}: {e}"))
        .lines()
        .count();
    assert!(
        lines <= 650,
        "engine/mod.rs has grown to {lines} lines (max 650); move logic \
         into a stage, the memo layer, or the Analyzer module"
    );
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("read {dir:?}: {e}")) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            out.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    out
}

#[test]
fn engine_never_calls_the_reference_oracle() {
    let files = rust_files(&engine_dir());
    assert!(files.len() > 5, "engine sources not found: {files:?}");
    for path in files {
        let code = code_of(&path);
        for oracle in ["solve_reference", "reference_analysis"] {
            assert!(
                !code.contains(oracle),
                "{path:?} names the reference oracle `{oracle}`; the engine \
                 runs one staged pipeline and must not call the oracle"
            );
        }
    }
}

#[test]
fn engine_holds_no_symbolic_system_memo() {
    let files = rust_files(&engine_dir());
    assert!(files.len() > 5, "engine sources not found: {files:?}");
    for path in files {
        let code = code_of(&path);
        for symbolic in ["CmeSystem", "SolveMemo", "equations::"] {
            assert!(
                !code.contains(symbolic),
                "{path:?} names `{symbolic}`; the engine runs the Figure 6 \
                 pipeline and memoizes only its stage artifacts"
            );
        }
    }
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `crates/`, `tests/` and `examples/` except this
/// one, whose needles would match themselves.
fn workspace_sources() -> Vec<PathBuf> {
    let root = workspace_root();
    let this_file = root.join("tests/architecture.rs");
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        files.extend(rust_files(&root.join(dir)));
    }
    assert!(files.len() > 50, "workspace sources not found: {files:?}");
    files.retain(|path| *path != this_file);
    files
}

#[test]
fn only_cme_cache_walks_a_simulator() {
    let cache_crate = workspace_root().join("crates/cache");
    for path in workspace_sources() {
        if path.starts_with(&cache_crate) {
            continue;
        }
        assert!(
            !code_of(&path).contains("Simulator::"),
            "{path:?} drives a `Simulator` by hand; replay the nest through \
             `cme_cache::simulate_nest_outcomes` (or another `simulate_*` entry \
             point) so one trace walk serves every replay"
        );
    }
}

/// Fails on the first workspace source whose code contains a needle.
fn forbid(needles: &[&str], why: &str) {
    for path in workspace_sources() {
        let code = code_of(&path);
        for needle in needles {
            assert!(
                !code.contains(needle),
                "{path:?} contains `{needle}`; {why}"
            );
        }
    }
}

#[test]
fn one_session_type() {
    forbid(
        &[
            "struct Engine {",
            "impl Engine {",
            "Engine::",
            ".engine()",
            "engine_mut(",
        ],
        "`Analyzer` is the one session type, and every entry point runs its \
         driver under the session's budget",
    );
}

#[test]
fn nests_not_handles() {
    forbid(
        &[
            "ProgramDb",
            "NestId",
            ".intern(",
            "analyze_id(",
            "reuse_vectors_for",
        ],
        "entry points take the caller's `&LoopNest`, and the engine keys \
         every memo by the nest's structural and layout hashes",
    );
}

/// Whether an identifier in `code` starts with `needle`, so `get_sweep`
/// matches `store.get_sweep(` but not `tiny_budget_sweep`.
fn names(code: &str, needle: &str) -> bool {
    code.match_indices(needle)
        .any(|(at, _)| !code[..at].ends_with(|c: char| c.is_alphanumeric() || c == '_'))
}

#[test]
fn sweeps_keep_no_cache_of_their_own() {
    for path in workspace_sources() {
        let code = code_of(&path);
        for needle in [
            "sweep_memo",
            "SweepRecord",
            "get_sweep",
            "put_sweep",
            "TileSize",
            "&mut Analyzer",
            "&mut cme_core::Analyzer",
        ] {
            assert!(
                !names(&code, needle),
                "{path:?} names `{needle}`; a sweep runs its samples through \
                 the pipeline memos and the store's analysis entries, keeps no \
                 result cache, and every `Analyzer` entry point takes `&self`"
            );
        }
    }
}

#[test]
fn serve_shares_sessions_and_blocks_in_accept() {
    forbid(
        &[
            "Mutex<Analyzer>",
            "Mutex<cme_core::Analyzer>",
            "set_nonblocking(true)",
            "accept_tick",
        ],
        "every `Analyzer` entry point takes `&self`, so a shared session \
         needs no lock, and the accept loops block in `accept` and are woken \
         at shutdown",
    );
}

#[test]
fn one_stats_schema() {
    forbid(
        &["engine_counters", "shard_busy_seconds", "stage_seconds"],
        "`EngineStats`, `StoreStats` and `ServerStats` each encode \
         themselves once (`to_json`, keyed by field name, durations in \
         seconds), and every report prints that encoding",
    );
}
