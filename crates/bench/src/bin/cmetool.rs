//! `cmetool` — a small command-line front end over the whole stack, the
//! workflow a downstream user would drive:
//!
//! ```text
//! cmetool analyze   <kernel> [--n N] [--size BYTES] [--assoc K] [--line BYTES] [--stats]
//! cmetool simulate  <kernel> [...]        trace-driven LRU ground truth
//! cmetool compare   <kernel> [...]        CME vs simulation, Table-1 row
//! cmetool diagnose  <kernel> [...]        miss attribution + recommendations
//! cmetool pad       <kernel> [...]        derive + verify a padding plan
//! cmetool equations <kernel> [...]        print the symbolic CME system
//! cmetool export    <kernel> [...]        dineroIII-format trace to stdout
//! cmetool client    <kernel> [...]        send the query to a cme-serve instance
//! cmetool sweep     [kernels] [...]       miss-rate tables over a geometry grid
//! cmetool kernels                         list known kernels
//! ```
//!
//! Instead of a registry kernel name, `--file <path>` analyzes a nest
//! written in the textual format of `cme_ir::parse` (see
//! `examples/matmul.cme`).
//!
//! `analyze` accepts resource-governor flags: `--budget-ms MS` (wall-clock
//! deadline) and `--max-solves N` (equation-evaluation cap). A budgeted run
//! that exhausts prints its degraded-but-sound result plus the outcome
//! line (`exhausted (...)`) instead of hanging or dying. With `--stats`,
//! `analyze` also prints the engine's per-stage accounting after the
//! result, as `EngineStats`'s stats-schema JSON (built/reused counters,
//! stage times in seconds). `--store DIR` attaches
//! the persistent artifact store, so repeated invocations answer from disk.
//!
//! `sweep` replaces the old `assoc_sweep` bin: it evaluates the grid
//! size × ways × line × policy (comma-separated `--sizes/--ways/--lines/
//! --policies` lists; ways accepts `full`, policies are `lru|fifo|plru`)
//! over the named kernels (default: the Table-1 suite at `--n`, default
//! 48), running every kernel of a cell through `analyze_batch` on one
//! shared session and the model simulator for exact counts. `--format
//! table|json|csv` picks the rendering (default `table`, matching the
//! old bin's columns); JSON is one key-sorted object per line, the same
//! framing the wire API uses.
//!
//! `client` speaks the `cme-serve` line protocol (`docs/SERVE.md`) over
//! `--connect HOST:PORT` or `--unix PATH`. It sends one request built from
//! the same kernel/cache/budget flags as `analyze` (a `--file` with a
//! `! cache:` directive is a corpus case and brings its own name,
//! geometry, model and ε), or a control op via
//! `--op ping|stats|shutdown`. It prints the decoded response (`--json` for
//! the raw line) and exits 0 on success or with the stable
//! [`ErrorCode::exit_code`] of the coded failure. Transport is the shared
//! resilient client (`cme_serve::client`): connect/read deadlines and
//! bounded jittered retry of idempotent requests across connect failures,
//! broken exchanges, and `overloaded` shedding — tunable with `--retries
//! N`, `--connect-timeout-ms MS`, `--read-timeout-ms MS`. `--op shutdown`
//! is never resent once delivered.

use cme_bench::{
    render_csv, render_json, render_table, resolve_kernel, run_sweep, BenchArgs, SweepGrid,
    WaysPoint,
};
use cme_cache::{export_din, simulate_nest, PolicyKind};
use cme_core::api::{AnalyzeRequest, AnalyzeResponse, CacheSpec, ErrorCode};
use cme_core::{
    compare_with_simulation, AnalysisOptions, Analyzer, ArtifactStore, Budget, CmeSystem,
};
use cme_diffcheck::corpus::parse_case;
use cme_kernels::kernel_names;
use cme_opt::{diagnose, optimize_padding};
use cme_reuse::ReuseOptions;
use cme_serve::client::{Client, ClientConfig, Endpoint, Idempotency};
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args = BenchArgs::from_env();
    let Some(command) = args.positional(0) else {
        eprintln!("usage: cmetool <analyze|simulate|compare|diagnose|pad|equations|export|sweep|kernels> [kernel] [--n N] [--size B] [--assoc K] [--line B] [--stats]");
        std::process::exit(2);
    };
    if command == "kernels" {
        for name in kernel_names() {
            println!("{name}");
        }
        return;
    }
    if command == "client" {
        run_client(&args);
        return;
    }
    if command == "sweep" {
        run_sweep_cmd(&args);
        return;
    }
    let kernel = args.positional(1).unwrap_or("mmult");
    let n = args.n(64);
    let cache = args.cache();
    if args.flag("--file") && args.value_str("--file").is_none() {
        eprintln!("--file needs a path");
        std::process::exit(2);
    }
    let nest = if let Some(path) = args.value_str("--file") {
        let src = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("cannot read `{path}`: {e}");
            std::process::exit(2);
        });
        cme_ir::parse::parse_nest(&src).unwrap_or_else(|e| {
            eprintln!("parse error in `{path}`: {e}");
            std::process::exit(2);
        })
    } else {
        resolve_kernel(kernel, n)
    };
    let opts = AnalysisOptions::default();
    let mut budget = Budget::unlimited();
    if let Some(ms) = args.value("--budget-ms") {
        budget = budget.with_deadline(Duration::from_millis(ms.max(0) as u64));
    }
    if let Some(n) = args.value("--max-solves") {
        budget = budget.with_max_solves(n.max(0) as u64);
    }
    match command {
        "analyze" => {
            println!("{nest}");
            let mut analyzer = Analyzer::new(cache)
                .options(opts.clone())
                .threads(0)
                .budget(budget);
            if let Some(dir) = args.value_str("--store") {
                match ArtifactStore::open(dir) {
                    Ok(store) => analyzer = analyzer.store(Arc::new(store)),
                    Err(e) => {
                        eprintln!("cannot open store `{dir}`: {e}");
                        std::process::exit(ErrorCode::Store.exit_code());
                    }
                }
            }
            match analyzer.try_analyze(&nest) {
                Ok(governed) => {
                    println!("{}", governed.analysis);
                    println!("outcome: {}", governed.outcome);
                }
                Err(e) => {
                    eprintln!("analysis failed: {e}");
                    std::process::exit(1);
                }
            }
            if args.flag("--stats") {
                println!("{}", analyzer.stats());
            }
        }
        "simulate" => {
            println!("{}", simulate_nest(&nest, cache));
        }
        "compare" => {
            let row = compare_with_simulation(&nest, cache, &opts);
            println!("{row}");
            if !row.is_sound() {
                eprintln!("SOUNDNESS VIOLATION");
                std::process::exit(1);
            }
        }
        "diagnose" => match diagnose(&nest, &cache, &opts) {
            Ok(d) => println!("{d}"),
            Err(e) => {
                eprintln!("diagnosis failed: {e}");
                std::process::exit(1);
            }
        },
        "pad" => {
            let before = simulate_nest(&nest, cache).total();
            let (optimized, outcome) = optimize_padding(&nest, &cache, &opts);
            let after = simulate_nest(&optimized, cache).total();
            println!("{outcome}");
            println!(
                "simulated: replacement {} -> {}, total {} -> {}",
                before.replacement,
                after.replacement,
                before.misses(),
                after.misses()
            );
        }
        "equations" => {
            let sys = CmeSystem::generate(&nest, cache, &ReuseOptions::default());
            println!(
                "# {} equations over {} references",
                sys.equation_count(),
                sys.per_ref.len()
            );
            for re in &sys.per_ref {
                println!("reference {}:", nest.reference(re.dest).label());
                for g in &re.groups {
                    println!("  {}", g.cold);
                    for eq in &g.replacements {
                        println!("    {eq}");
                    }
                }
            }
        }
        "export" => {
            let stdout = std::io::stdout();
            let mut lock = stdout.lock();
            if let Err(e) = export_din(&nest, cache.elem_bytes(), &mut lock) {
                eprintln!("export failed: {e}");
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("unknown command `{other}`");
            std::process::exit(2);
        }
    }
}

/// The `sweep` subcommand: parse the grid axes, run every kernel of
/// each cell through one shared batch session, and render the miss-rate
/// table in the requested format.
fn run_sweep_cmd(args: &BenchArgs) {
    fn axis<T>(
        args: &BenchArgs,
        key: &str,
        parse: impl Fn(&str) -> Option<T>,
        default: Vec<T>,
    ) -> Vec<T> {
        let Some(raw) = args.value_str(key) else {
            return default;
        };
        let points: Vec<T> = raw.split(',').filter_map(|t| parse(t.trim())).collect();
        if points.is_empty() || points.len() != raw.split(',').count() {
            eprintln!("bad {key} list `{raw}`");
            std::process::exit(2);
        }
        points
    }

    let n = args.n(48);
    let nests: Vec<_> = match args.positional(1) {
        Some(list) if !list.starts_with("--") => list
            .split(',')
            .map(|name| resolve_kernel(name.trim(), n))
            .collect(),
        _ => cme_kernels::table1_suite(n),
    };
    let defaults = SweepGrid::default_grid();
    let grid = SweepGrid {
        sizes: axis(args, "--sizes", |t| t.parse().ok(), defaults.sizes),
        ways: axis(args, "--ways", WaysPoint::parse, defaults.ways),
        lines: axis(args, "--lines", |t| t.parse().ok(), defaults.lines),
        policies: axis(args, "--policies", PolicyKind::parse, defaults.policies),
        elem: args.value_or("--elem", defaults.elem),
    };
    let rows = run_sweep(&nests, &grid).unwrap_or_else(|e| {
        eprintln!("sweep failed: {e}");
        std::process::exit(1);
    });
    let format = args.value_str("--format").unwrap_or("table");
    let rendered = match format {
        "table" => {
            let header = format!(
                "# Geometry sweep: {} kernels × {} cells, N = {n}\n",
                nests.len(),
                grid.cells()
            );
            format!("{header}{}", render_table(&rows))
        }
        "json" => render_json(&rows),
        "csv" => render_csv(&rows),
        other => {
            eprintln!("unknown --format `{other}` (table|json|csv)");
            std::process::exit(2);
        }
    };
    print!("{rendered}");
}

/// The request for `client --file`. A file with a `! cache:` directive
/// is a corpus case (`cme_diffcheck::corpus`) and is sent with its own
/// name, geometry, model and ε; any other file is sent as program text
/// with the CLI geometry.
fn file_request(path: &str, cli_cache: CacheSpec) -> AnalyzeRequest {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read `{path}`: {e}");
        std::process::exit(ErrorCode::Io.exit_code());
    });
    let is_cache_directive = |line: &str| {
        let directive = line
            .trim()
            .strip_prefix('!')
            .and_then(|d| d.split_once(':'));
        directive.is_some_and(|(key, _)| key.trim() == "cache")
    };
    if !text.lines().any(is_cache_directive) {
        return AnalyzeRequest::new("cmetool", text, cli_cache);
    }
    let case = parse_case(path, &text).unwrap_or_else(|e| {
        eprintln!("`{path}`: {e}");
        std::process::exit(ErrorCode::BadRequest.exit_code());
    });
    // Parsed text declares origin-1 arrays only, so it always re-renders.
    case.to_request().expect("a parsed nest has a textual form")
}

/// The `client` subcommand: build the request line, ship it to a
/// `cme-serve` instance through the shared resilient client
/// ([`cme_serve::client`] — connect/read deadlines, bounded backoff,
/// idempotency-gated retry), decode and print the answer.
fn run_client(args: &BenchArgs) {
    let op = args.value_str("--op").unwrap_or("analyze");
    let line = match op {
        "analyze" => {
            let cli_cache = CacheSpec::of(&args.cache());
            let mut request = if let Some(path) = args.value_str("--file") {
                file_request(path, cli_cache)
            } else {
                let kernel = args.positional(1).unwrap_or("mmult");
                let nest = resolve_kernel(kernel, args.n(64));
                let program = cme_ir::parse::to_source(&nest).unwrap_or_else(|| {
                    eprintln!("kernel `{kernel}` has no textual form");
                    std::process::exit(2);
                });
                AnalyzeRequest::new("cmetool", program, cli_cache)
            };
            if let Some(e) = args.value("--epsilon") {
                request.epsilon = e.max(0) as u64;
            }
            if let Some(ms) = args.value("--budget-ms") {
                request.budget_ms = Some(ms.max(0) as u64);
            }
            if let Some(n) = args.value("--max-solves") {
                request.max_solves = Some(n.max(0) as u64);
            }
            request.encode()
        }
        op @ ("ping" | "stats" | "shutdown") => {
            format!(r#"{{"id":"cmetool","op":"{op}"}}"#)
        }
        other => {
            eprintln!("unknown --op `{other}` (analyze|ping|stats|shutdown)");
            std::process::exit(2);
        }
    };

    let endpoint = if let Some(addr) = args.value_str("--connect") {
        Endpoint::Tcp(addr.to_string())
    } else if let Some(path) = args.value_str("--unix") {
        Endpoint::Unix(path.into())
    } else {
        eprintln!("client needs --connect HOST:PORT or --unix PATH");
        std::process::exit(2);
    };
    let mut config = ClientConfig::new(endpoint);
    if let Some(n) = args.value("--retries") {
        config.max_retries = n.max(0) as u32;
    }
    if let Some(ms) = args.value("--connect-timeout-ms") {
        config.connect_timeout_ms = ms.max(0) as u64;
    }
    if let Some(ms) = args.value("--read-timeout-ms") {
        config.read_timeout_ms = ms.max(0) as u64;
    }
    // Everything but `shutdown` converges on replay; shutdown must reach
    // the server at most once.
    let idempotency = if op == "shutdown" {
        Idempotency::NonIdempotent
    } else {
        Idempotency::Idempotent
    };
    let mut client = Client::new(config);
    let response = client.exchange(&line, idempotency).unwrap_or_else(|e| {
        eprintln!("exchange failed: {e}");
        std::process::exit(ErrorCode::Io.exit_code());
    });

    if args.flag("--json") {
        println!("{response}");
    }
    if op != "analyze" {
        if !args.flag("--json") {
            println!("{response}");
        }
        return;
    }
    match AnalyzeResponse::decode(&response) {
        Ok(resp) => match resp.result {
            Ok(result) => {
                if !args.flag("--json") {
                    println!(
                        "{}: {} misses ({} cold + {} replacement){}{}",
                        result.nest_name,
                        result.total_misses,
                        result.total_cold,
                        result.total_replacement,
                        if result.store_hit { " [store hit]" } else { "" },
                        if result.outcome.complete {
                            String::new()
                        } else {
                            format!(
                                " [degraded: {}, {:.0}% done]",
                                result.outcome.reason,
                                result.outcome.completed_fraction * 100.0
                            )
                        }
                    );
                    for r in &result.per_ref {
                        println!(
                            "  {}: {} cold, {} replacement",
                            r.label, r.cold_misses, r.replacement_misses
                        );
                    }
                }
            }
            Err(e) => {
                eprintln!("server error: {e}");
                std::process::exit(e.code.exit_code());
            }
        },
        Err(e) => {
            eprintln!("malformed response: {e}");
            std::process::exit(ErrorCode::BadRequest.exit_code());
        }
    }
}
