//! Per-layer attribution for `--trace 1` runs.
//!
//! The program carries no spans or counters of the benchmark's own: every
//! number here comes from timing calls into a module's public functions
//! from the benchmark, or from the public `Analyzer::stats()` and
//! `ArtifactStore::stats()` counters. The probes replay a fixed probe
//! list (the first stratified block of the workload's requests) from the
//! workload's start state, pass by pass:
//!
//! 1. socket — a spawned `cme-serve`, two clients: round-trip latency;
//! 2. handle — an in-process `Server::handle_line`, two threads;
//! 3. components — one thread: `AnalyzeRequest::decode`, `Analyzer::serve`
//!    on a session per cache model, `AnalyzeResponse::encode`, with
//!    `EngineStats` deltas per request;
//! 4. store — `ArtifactStore::get` of every probe entry, `put` into a
//!    fresh store;
//! 5. cache — `simulate_nest_model` of every probe nest.
//!
//! Times are means per request, so the layers add up:
//! `serve.transport_ms` = socket − handle and `serve.session_wait_ms` =
//! handle − (decode + serve + encode).

use crate::report::Report;
use crate::service::{self, Plan, ServerProc};
use crate::{stats, Args, PARALLEL};
use cme_cache::{simulate_nest_model, CacheModel};
use cme_core::api::AnalyzeRequest;
use cme_core::{Analyzer, ArtifactKey, ArtifactStore, EngineStats};
use cme_ir::db::{layout_hash, structural_hash};
use cme_serve::{Server, ServerConfig};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Engine work summed over a set of analyses, from `EngineStats` deltas.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineWork {
    pub analyses: f64,
    pub stage_ms: [f64; 5],
    pub scan_points: f64,
    pub scans_executed: f64,
    pub scans_reused: f64,
    pub memo_hits: f64,
    pub memo_lookups: f64,
}

impl EngineWork {
    /// Adds the work between two snapshots of one session.
    pub fn add(&mut self, before: &EngineStats, after: &EngineStats) {
        let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
        let t = |a: std::time::Duration, b: std::time::Duration| stats::ms(b.saturating_sub(a));
        self.analyses += 1.0;
        let stages = [
            t(before.time_lower, after.time_lower),
            t(before.time_reuse, after.time_reuse),
            t(before.time_solve, after.time_solve),
            t(before.time_cascade, after.time_cascade),
            t(before.time_classify, after.time_classify),
        ];
        for (sum, s) in self.stage_ms.iter_mut().zip(stages) {
            *sum += s;
        }
        self.scan_points += d(before.scan_points, after.scan_points);
        self.scans_executed += d(before.scans_executed, after.scans_executed);
        self.scans_reused += d(before.scans_reused, after.scans_reused);
        let hits = |s: &EngineStats| {
            s.lowered_reused + s.reuse_reused + s.cascades_reused + s.scans_reused
        };
        let built =
            |s: &EngineStats| s.lowered_built + s.reuse_built + s.cascades_built + s.scans_executed;
        self.memo_hits += d(hits(before), hits(after));
        self.memo_lookups += d(hits(before), hits(after)) + d(built(before), built(after));
    }

    /// Folds another tally in.
    pub fn merge(&mut self, other: &EngineWork) {
        self.analyses += other.analyses;
        for (sum, ms) in self.stage_ms.iter_mut().zip(other.stage_ms) {
            *sum += ms;
        }
        self.scan_points += other.scan_points;
        self.scans_executed += other.scans_executed;
        self.scans_reused += other.scans_reused;
        self.memo_hits += other.memo_hits;
        self.memo_lookups += other.memo_lookups;
    }

    /// The `engine.*` metrics: per-request means, and ratios with their
    /// bases beside them.
    pub fn record(&self, report: &mut Report) {
        let per = |v: f64| v / self.analyses.max(1.0);
        let names = [
            "engine.lower_ms",
            "engine.reuse_ms",
            "engine.solve_ms",
            "engine.cascade_ms",
            "engine.classify_ms",
        ];
        for (name, ms) in names.into_iter().zip(self.stage_ms) {
            report.layer(name, per(ms), "ms");
        }
        let lookups = self.scans_executed + self.scans_reused;
        report.layer("engine.scan_points", per(self.scan_points), "count");
        report.layer("engine.window_scans", per(self.scans_executed), "count");
        report.layer("engine.scan_lookups", per(lookups), "count");
        report.layer(
            "engine.scan_reuse_ratio",
            self.scans_reused / lookups.max(1.0),
            "ratio",
        );
        report.layer("engine.memo_lookups", per(self.memo_lookups), "count");
        report.layer(
            "engine.memo_hit_rate",
            self.memo_hits / self.memo_lookups.max(1.0),
            "ratio",
        );
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs every probe pass over `lines` and records the `api.*`,
/// `serve.*`, `store.*`, `cache.*` metrics, and the `engine.*` metrics
/// when `engine` is set. `primed` is the workload's primed store; without
/// one, each pass starts from its own fresh empty store.
pub fn probe_service(
    args: &Args,
    dir: &Path,
    lines: &[String],
    primed: Option<&Path>,
    engine: bool,
    report: &mut Report,
) -> Result<(), String> {
    let n = lines.len();
    let store_for =
        |pass: &str| primed.map_or_else(|| dir.join(format!("probe-{pass}")), Path::to_path_buf);

    // 1. socket
    let (server, _) = ServerProc::start(
        &args.serve_bin,
        &dir.join("probe.sock"),
        Some(&store_for("socket")),
    )?;
    let socket = service::drive(
        &server,
        lines,
        Plan {
            clients: PARALLEL,
            seconds: 0.0,
            min_requests: n,
            first: 0,
            max_requests: n,
        },
    );
    server.stop()?;
    let socket_ms: Vec<f64> = socket.latencies_ms();

    // 2. handle
    let in_process = Server::new(ServerConfig {
        store_dir: Some(store_for("handle")),
        threads: service::SERVER_THREADS,
        ..ServerConfig::default()
    })
    .map_err(err)?;
    let handle_ms = Mutex::new(vec![0.0; n]);
    let next = AtomicUsize::new(0);
    thread::scope(|scope| {
        for _ in 0..PARALLEL {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t = Instant::now();
                std::hint::black_box(in_process.handle_line(&lines[i]));
                let ms = stats::ms(t.elapsed());
                handle_ms.lock().expect("handle lock")[i] = ms;
            });
        }
    });
    let handle_ms = handle_ms.into_inner().expect("handle lock");

    // 3. components
    let store = Arc::new(ArtifactStore::open(store_for("components")).map_err(err)?);
    let mut sessions: HashMap<CacheModel, Analyzer> = HashMap::new();
    let (mut decode_us, mut serve_ms, mut encode_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut work = EngineWork::default();
    let mut requests = Vec::with_capacity(n);
    for line in lines {
        let t = Instant::now();
        let request = AnalyzeRequest::decode(line).map_err(err)?;
        decode_us.push(stats::ms(t.elapsed()) * 1e3);
        let model = request.cache_model().map_err(err)?;
        let session = sessions.entry(model).or_insert_with(|| {
            Analyzer::with_model(model)
                .threads(service::SERVER_THREADS)
                .store(Arc::clone(&store))
        });
        let before = session.stats();
        let t = Instant::now();
        let response = session.serve(&request);
        serve_ms.push(stats::ms(t.elapsed()));
        work.add(&before, &session.stats());
        let t = Instant::now();
        std::hint::black_box(response.encode());
        encode_us.push(stats::ms(t.elapsed()) * 1e3);
        requests.push((request, model));
    }

    // 4. store
    let reader = ArtifactStore::open(store_for("components")).map_err(err)?;
    let writer = ArtifactStore::open(dir.join("probe-put")).map_err(err)?;
    let (mut get_ms, mut put_ms) = (Vec::new(), Vec::new());
    let mut nests = Vec::with_capacity(n);
    for (request, model) in &requests {
        let nest = request.parse_program().map_err(err)?;
        let options = request.options().map_err(err)?;
        let key =
            ArtifactKey::for_model(structural_hash(&nest), layout_hash(&nest), model, &options);
        let t = Instant::now();
        let analysis = reader.get(&key);
        get_ms.push(stats::ms(t.elapsed()));
        if let Some(analysis) = analysis {
            let t = Instant::now();
            writer.put(&key, &analysis);
            put_ms.push(stats::ms(t.elapsed()));
        }
        nests.push((nest, *model));
    }
    let got = reader.stats();

    // 5. cache
    let (mut sim_ms, mut accesses) = (Vec::new(), 0u64);
    for (nest, model) in &nests {
        let t = Instant::now();
        let result = simulate_nest_model(nest, model);
        sim_ms.push(stats::ms(t.elapsed()));
        accesses += result.total().accesses;
    }

    let (socket, handle) = (stats::mean(&socket_ms), stats::mean(&handle_ms));
    let (decode, encode) = (stats::mean(&decode_us), stats::mean(&encode_us));
    let serve = stats::mean(&serve_ms);
    report.layer("api.decode_us", decode, "us");
    report.layer("api.encode_us", encode, "us");
    report.layer("serve.handle_ms", handle, "ms");
    report.layer("serve.transport_ms", socket - handle, "ms");
    report.layer(
        "serve.session_wait_ms",
        handle - (decode / 1e3 + serve + encode / 1e3),
        "ms",
    );
    report.layer("serve.analyzer_serve_ms", serve, "ms");
    report.layer("store.get_ms", stats::mean(&get_ms), "ms");
    report.layer("store.put_ms", stats::mean(&put_ms), "ms");
    report.layer(
        "store.hit_ratio",
        got.hits as f64 / (got.hits + got.misses).max(1) as f64,
        "ratio",
    );
    report.layer("store.gets", (got.hits + got.misses) as f64, "count");
    report.layer(
        "store.entry_bytes",
        writer.total_bytes() as f64 / writer.entry_count().max(1) as f64,
        "B",
    );
    if engine {
        work.record(report);
    }
    let sim_total_s: f64 = sim_ms.iter().sum::<f64>() / 1e3;
    report.layer("cache.sim_ms", stats::mean(&sim_ms), "ms");
    report.layer(
        "cache.accesses_per_s",
        accesses as f64 / sim_total_s.max(1e-9),
        "1/s",
    );
    Ok(())
}
