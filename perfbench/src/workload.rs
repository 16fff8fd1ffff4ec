//! The service workloads, and the per-run entry point shared by all
//! workloads.

use crate::gen::{self, Family};
use crate::report::{Report, J};
use crate::service::{self, Exchange, LoadRun, Plan, ServerProc};
use crate::{
    layers, padding, stats, Args, CLIENTS, HELD_OUT_SEED, MIN_REQUESTS, PARALLEL, SETUP_ROUNDS,
    WARMUP_S,
};
use cme_cache::{simulate_nest, simulate_nest_model};
use cme_core::api::{AnalyzeRequest, AnalyzeResponse, AnalyzeResult, Provenance};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Every workload `perfbench` runs. `BENCHMARK.json` lists all but
/// `model-replay`, which measures the `cme-cache` replay end to end but
/// spread too widely on the host the benchmark was defined on.
pub const NAMES: &[&str] = &["cold-mix", "model-replay", "padding-search"];

/// Requests in the traced run's probe list.
const PROBE_REQUESTS: usize = 90;

/// Upper bound on `cold-mix` requests per second of run, used to size the
/// stream of distinct requests generated up front: about five times the
/// rate one client reaches on the defining host.
const COLD_MAX_RPS: f64 = 150.0;

pub fn run(args: &Args, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    report.fact("workload", J::str(&args.workload));
    report.fact("seed", J::Int(args.seed));
    report.fact("held_out_seed", J::Int(HELD_OUT_SEED));
    report.fact("seconds", J::Num(args.seconds));
    report.fact("trace", J::Bool(args.trace));
    report.fact("nproc", J::Int(stats::nproc() as u64));
    report.fact("clients", J::Int(CLIENTS as u64));
    report.fact("closed_loop", J::Bool(true));
    report.fact("warmup_s", J::Num(WARMUP_S));
    if args.workload == "padding-search" {
        padding::run(args, dir, &mut report)?;
    } else {
        report.fact("server_threads", J::Int(service::SERVER_THREADS as u64));
        run_service(args, dir, &mut report)?;
    }
    Ok(report)
}

/// A service workload's inputs and set-up state.
struct Service {
    family: Family,
    lines: Vec<String>,
    /// Set-up pass answers (`model-replay`), per line.
    reference: Vec<Option<AnalyzeResult>>,
    /// The primed store, or `None` when every phase starts from a fresh
    /// empty one (`cold-mix`).
    primed: Option<PathBuf>,
    /// `true` when the run cycles over the lines; `false` when every
    /// request must be distinct.
    cycle: bool,
}

impl Service {
    fn store_for(&self, dir: &Path, phase: &str) -> PathBuf {
        self.primed
            .clone()
            .unwrap_or_else(|| dir.join(format!("store-{phase}")))
    }

    /// The untimed warm-up: `WARMUP_S`, and at least one whole pass over a
    /// cycled pool, so every session and store entry it uses was touched.
    fn warmup(&self) -> Plan {
        Plan {
            min_requests: if self.cycle { self.lines.len() } else { 0 },
            ..self.plan(WARMUP_S)
        }
    }

    fn plan(&self, seconds: f64) -> Plan {
        Plan {
            clients: CLIENTS,
            seconds,
            min_requests: MIN_REQUESTS,
            first: 0,
            max_requests: if self.cycle {
                usize::MAX
            } else {
                self.lines.len()
            },
        }
    }
}

/// The simulator's total misses and per-reference (cold, replacement)
/// counts for one request.
struct Simulated {
    total: u64,
    per_ref: Vec<(u64, u64)>,
}

/// Simulator-side expectations, computed on demand outside timed regions.
#[derive(Default)]
struct Oracle {
    expect: HashMap<usize, Simulated>,
}

impl Oracle {
    /// LRU: `simulate_nest`; other models: `simulate_nest_model`.
    fn expect(&mut self, index: usize, line: &str) -> Result<&Simulated, String> {
        if let std::collections::hash_map::Entry::Vacant(slot) = self.expect.entry(index) {
            let req = AnalyzeRequest::decode(line).map_err(|e| e.to_string())?;
            let nest = req.parse_program().map_err(|e| e.to_string())?;
            let model = req.cache_model().map_err(|e| e.to_string())?;
            let per_ref = if req.cache.is_baseline() {
                simulate_nest(&nest, model.l1()).per_ref
            } else {
                simulate_nest_model(&nest, &model).per_ref
            };
            slot.insert(Simulated {
                total: per_ref.iter().map(|s| s.misses()).sum(),
                per_ref: per_ref.iter().map(|s| (s.cold, s.replacement)).collect(),
            });
        }
        Ok(&self.expect[&index])
    }
}

/// Checks one answer; `Some(reason)` when it counts as failed.
fn check(svc: &Service, oracle: &mut Oracle, ex: &Exchange) -> Option<String> {
    let i = ex.index % svc.lines.len();
    let line = match &ex.response {
        Ok(line) => line,
        Err(e) => return Some(format!("r{i}: transport error: {e}")),
    };
    if ex.retried {
        return Some(format!("r{i}: needed a retry"));
    }
    let response = match AnalyzeResponse::decode(line) {
        Ok(r) => r,
        Err(e) => return Some(format!("r{i}: undecodable response: {e}")),
    };
    if response.id != format!("r{i}") {
        return Some(format!("r{i}: answered as `{}`", response.id));
    }
    let result = match response.result {
        Ok(r) => r,
        Err(e) => return Some(format!("r{i}: error {}: {}", e.code, e.message)),
    };
    if !result.outcome.complete {
        return Some(format!("r{i}: degraded ({})", result.outcome.reason));
    }
    let sim = match oracle.expect(i, &svc.lines[i]) {
        Ok(sim) => sim,
        Err(e) => return Some(format!("r{i}: oracle: {e}")),
    };
    match svc.family {
        Family::Lru => {
            if result.provenance.is_some() {
                return Some(format!("r{i}: unexpected provenance on an LRU request"));
            }
            if result.total_misses < sim.total {
                return Some(format!(
                    "r{i}: {} misses undercount the simulator's {}",
                    result.total_misses, sim.total
                ));
            }
        }
        Family::Model => {
            if result.provenance != Some(Provenance::Simulator) {
                return Some(format!("r{i}: provenance {:?}", result.provenance));
            }
            let got: Vec<_> = result
                .per_ref
                .iter()
                .map(|r| (r.cold_misses, r.replacement_misses))
                .collect();
            if result.total_misses != sim.total || got != sim.per_ref {
                return Some(format!(
                    "r{i}: {} misses differ from the simulator's {}",
                    result.total_misses, sim.total
                ));
            }
        }
    }
    if let Some(reference) = &svc.reference[i] {
        if !result.store_hit {
            return Some(format!("r{i}: not answered from the store"));
        }
        let mut same = result.clone();
        same.store_hit = reference.store_hit;
        if same != *reference {
            return Some(format!("r{i}: counts differ from the set-up pass"));
        }
    }
    None
}

fn prepare(args: &Args, dir: &Path, report: &mut Report) -> Result<Service, String> {
    let (family, count, prime) = match args.workload.as_str() {
        "cold-mix" => (
            Family::Lru,
            (((args.seconds + WARMUP_S) * COLD_MAX_RPS) as usize).max(2 * MIN_REQUESTS),
            false,
        ),
        // Two blocks: the pool is small, and its p90 rests on its few
        // largest replays.
        "model-replay" => (Family::Model, 2 * Family::Model.block(), true),
        other => return Err(format!("no service workload `{other}`")),
    };
    let lines = gen::requests(family, args.seed, count);
    let mut svc = Service {
        family,
        reference: vec![None; lines.len()],
        lines,
        primed: None,
        cycle: prime,
    };
    if prime {
        // Set-up pass: answer every pool request once into a fresh store,
        // then keep the store and the answers. Not timed.
        let store = dir.join("store-primed");
        let (server, _) =
            ServerProc::start(&args.serve_bin, &dir.join("prime.sock"), Some(&store))?;
        let n = svc.lines.len();
        let run = service::drive(
            &server,
            &svc.lines,
            Plan {
                clients: PARALLEL,
                seconds: 0.0,
                min_requests: n,
                first: 0,
                max_requests: n,
            },
        );
        server.stop()?;
        let mut oracle = Oracle::default();
        for ex in &run.exchanges {
            let failure = check(&svc, &mut oracle, ex);
            if failure.is_none() {
                let line = ex.response.as_ref().expect("checked above");
                svc.reference[ex.index] = AnalyzeResponse::decode(line)
                    .ok()
                    .and_then(|r| r.result.ok());
            }
            report.tally(failure);
        }
        report.fact("setup_pass_requests", J::Int(n as u64));
        svc.primed = Some(store);
    }
    Ok(svc)
}

/// One timed phase: start the server (measuring set-up), warm it up,
/// drive it, read its peak RSS, stop it.
struct Phase {
    warm: LoadRun,
    run: LoadRun,
    setup_s: f64,
    setup_samples: Vec<f64>,
    rss_mb: f64,
}

fn timed_phase(args: &Args, dir: &Path, svc: &Service, tag: &str) -> Result<Phase, String> {
    let store = svc.store_for(dir, tag);
    let socket = dir.join(format!("{tag}.sock"));
    let (server, setup_s, setup_samples) =
        service::start_measured(&args.serve_bin, &socket, Some(&store), SETUP_ROUNDS)?;
    let (warm, run) =
        service::warm_and_drive(&server, &svc.lines, svc.warmup(), svc.plan(args.seconds));
    let rss_mb = server.peak_rss_mb();
    server.stop()?;
    Ok(Phase {
        warm,
        run,
        setup_s,
        setup_samples,
        rss_mb,
    })
}

fn run_service(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let svc = prepare(args, dir, report)?;
    let phase = timed_phase(args, dir, &svc, "timed")?;
    let mut oracle = Oracle::default();
    for ex in phase.warm.exchanges.iter().chain(&phase.run.exchanges) {
        report.tally(check(&svc, &mut oracle, ex));
    }
    record_e2e(
        report,
        &phase.run,
        phase.setup_s,
        phase.rss_mb,
        "analyze round trips",
    );
    report.fact(
        "setup_samples_s",
        J::Arr(phase.setup_samples.iter().map(|&s| J::Num(s)).collect()),
    );
    report.fact(
        "distinct_requests",
        J::Int(phase.run.exchanges.len().min(svc.lines.len()) as u64),
    );
    report.fact(
        "client_retries",
        J::Int(phase.warm.retries + phase.run.retries),
    );
    report.fact(
        "client_overloaded",
        J::Int(phase.warm.overloaded + phase.run.overloaded),
    );
    if args.trace {
        // The traced phase repeats the timed phase from the same start
        // state and keeps every request's span.
        let traced = timed_phase(args, dir, &svc, "traced")?;
        for ex in traced.warm.exchanges.iter().chain(&traced.run.exchanges) {
            report.tally(check(&svc, &mut oracle, ex));
        }
        report.spans = traced.run.exchanges.iter().map(span).collect();
        let probe_lines = &svc.lines[..PROBE_REQUESTS.min(svc.lines.len())];
        layers::probe_service(args, dir, probe_lines, svc.primed.as_deref(), true, report)?;
        report.layer("opt.candidates", 0.0, "count");
        report.layer("opt.ms_per_candidate", 0.0, "ms");
        report.layer(
            "client.retries",
            (phase.warm.retries + phase.run.retries + traced.warm.retries + traced.run.retries)
                as f64,
            "count",
        );
        record_trace(
            report,
            phase.run.throughput_rps(),
            traced.run.throughput_rps(),
        );
    }
    Ok(())
}

/// The end-to-end metrics of one closed-loop run, plus the sample facts.
pub fn record_e2e(
    report: &mut Report,
    run: &LoadRun,
    setup_s: f64,
    rss_mb: f64,
    unit_of_work: &str,
) {
    let latencies = run.latencies_ms();
    let n = latencies.len();
    let p50 = stats::percentile(&latencies, 0.5);
    let p90 = stats::percentile(&latencies, 0.9);
    report.e2e("throughput_rps", run.throughput_rps(), "1/s");
    report.e2e("latency_p50_ms", p50, "ms");
    report.e2e("latency_p90_ms", p90, "ms");
    report.e2e("search_s", p50 / 1e3, "s");
    report.e2e("setup_s", setup_s, "s");
    report.e2e("peak_rss_mb", rss_mb, "MB");
    report.fact("unit_of_work", J::str(unit_of_work));
    report.fact("requests", J::Int(n as u64));
    report.fact("samples_p50", J::Int(n as u64));
    report.fact(
        "samples_beyond_p90",
        J::Int(latencies.iter().filter(|&&l| l > p90).count() as u64),
    );
    report.fact("timed_seconds", J::Num(run.elapsed_s));
}

/// The tracing-overhead pair of per-layer metrics.
pub fn record_trace(report: &mut Report, untraced_rps: f64, traced_rps: f64) {
    report.layer("trace.throughput_rps", traced_rps, "1/s");
    report.layer("trace.overhead_rps", untraced_rps - traced_rps, "1/s");
}

pub fn span(ex: &Exchange) -> J {
    J::obj([
        ("request", J::Int(ex.index as u64)),
        ("client", J::Int(ex.client as u64)),
        ("start_ms", J::Num(ex.start_ms)),
        ("end_ms", J::Num(ex.end_ms)),
        ("ok", J::Bool(ex.response.is_ok() && !ex.retried)),
    ])
}
