//! The `padding-search` workload: in-process `optimize_padding_with`
//! calls, one fresh session per seeded (kernel, N, geometry) case, from
//! one closed-loop client thread.

use crate::gen::{self, Geometry, PaddingCase};
use crate::layers::{self, EngineWork};
use crate::report::{Report, J};
use crate::service::{Exchange, LoadRun};
use crate::workload;
use crate::{stats, Args, CLIENTS, MIN_REQUESTS, SETUP_ROUNDS, WARMUP_S};
use cme_cache::{simulate_nest, CacheConfig};
use cme_core::Analyzer;
use cme_ir::LoopNest;
use cme_opt::{optimize_padding_with, PaddingMethod, PaddingOutcome};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// Upper bound on searches per second of run, used to size the stream
/// of distinct cases generated (and parsed in set-up) up front: about
/// seven times the rate one client reaches on the defining host.
const MAX_CALLS_PER_S: f64 = 100.0;

/// Worker threads per search session.
const SESSION_THREADS: usize = 1;

struct Case {
    nest: LoopNest,
    cache: CacheConfig,
}

/// Set-up: parse every case, validate its cache, and build its session.
fn prepare(cases: &[PaddingCase]) -> Result<Vec<Case>, String> {
    cases
        .iter()
        .map(|c| {
            let nest = cme_ir::parse::parse_nest(&c.program).map_err(|e| e.to_string())?;
            let cache = CacheConfig::new(c.size, c.assoc, 32, 4).map_err(|e| e.to_string())?;
            std::hint::black_box(Analyzer::new(cache).threads(SESSION_THREADS));
            Ok(Case { nest, cache })
        })
        .collect()
}

/// One search call.
struct Call {
    exchange: Exchange,
    nest: LoopNest,
    outcome: PaddingOutcome,
    candidates: f64,
    work: EngineWork,
}

/// Searches cases `first..` for `seconds` and at least `min_calls` calls;
/// returns the calls and the seconds they took.
fn drive(cases: &[Case], seconds: f64, min_calls: usize, first: usize) -> (Vec<Call>, f64) {
    let next = AtomicUsize::new(0);
    let log = Mutex::new(Vec::new());
    let start = Instant::now();
    thread::scope(|scope| {
        for c in 0..CLIENTS {
            let (next, log) = (&next, &log);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = first + next.fetch_add(1, Ordering::Relaxed);
                    let timed_out = start.elapsed().as_secs_f64() >= seconds;
                    if i >= cases.len() || (timed_out && i - first >= min_calls) {
                        break;
                    }
                    let case = &cases[i];
                    let t0 = start.elapsed();
                    let mut session = Analyzer::new(case.cache).threads(SESSION_THREADS);
                    let (nest, outcome) = optimize_padding_with(&mut session, &case.nest);
                    let t1 = start.elapsed();
                    let after = session.stats();
                    let mut work = EngineWork::default();
                    work.add(&Default::default(), &after);
                    let evaluations = match outcome.method {
                        PaddingMethod::CountingSearch { evaluations } => evaluations,
                        PaddingMethod::SpecialCase(_) => 1,
                    };
                    mine.push(Call {
                        exchange: Exchange {
                            index: i,
                            client: c,
                            start_ms: stats::ms(t0),
                            end_ms: stats::ms(t1),
                            response: Ok(String::new()),
                            retried: false,
                        },
                        nest,
                        outcome,
                        candidates: evaluations as f64 + after.sweep_samples as f64,
                        work,
                    });
                }
                log.lock().expect("log lock").extend(mine);
            });
        }
    });
    let mut calls = log.into_inner().expect("log lock");
    calls.sort_by_key(|c| c.exchange.index);
    let elapsed = calls.iter().map(|c| c.exchange.end_ms).fold(0.0, f64::max) / 1e3;
    (calls, elapsed)
}

/// Checks every call: an undegraded search whose `total_after` equals a
/// fresh session's count of the returned nest and bounds the simulator
/// from above.
fn check(cases: &[Case], calls: &[Call], report: &mut Report) {
    for call in calls {
        let i = call.exchange.index;
        let o = &call.outcome;
        let failure = if o.degraded_candidates > 0 || o.failed_candidates > 0 {
            Some(format!(
                "case {i}: {} degraded, {} failed candidates",
                o.degraded_candidates, o.failed_candidates
            ))
        } else {
            let cache = cases[i].cache;
            let fresh = Analyzer::new(cache).analyze(&call.nest).total_misses();
            let simulated = simulate_nest(&call.nest, cache).total().misses();
            if fresh != o.total_after {
                Some(format!(
                    "case {i}: total_after {} but a fresh session counts {fresh}",
                    o.total_after
                ))
            } else if o.total_after < simulated {
                Some(format!(
                    "case {i}: total_after {} undercounts the simulator's {simulated}",
                    o.total_after
                ))
            } else {
                None
            }
        };
        report.tally(failure);
    }
}

/// A warm-up of `WARMUP_S`, then the timed calls; every call of both is
/// checked.
fn timed_calls(cases: &[Case], seconds: f64, report: &mut Report) -> (Vec<Call>, f64) {
    let (warm, _) = drive(cases, WARMUP_S, 0, 0);
    let first = warm.last().map_or(0, |c| c.exchange.index + 1);
    let (calls, elapsed) = drive(cases, seconds, MIN_REQUESTS, first);
    check(cases, &warm, report);
    check(cases, &calls, report);
    (calls, elapsed)
}

fn load_run(calls: &[Call], elapsed_s: f64) -> LoadRun {
    LoadRun {
        exchanges: calls.iter().map(|c| c.exchange.clone()).collect(),
        elapsed_s,
        retries: 0,
        overloaded: 0,
    }
}

pub fn run(args: &Args, dir: &Path, report: &mut Report) -> Result<(), String> {
    let count = (((args.seconds + WARMUP_S) * MAX_CALLS_PER_S) as usize).max(2 * MIN_REQUESTS);
    let specs = gen::padding_cases(args.seed, count);
    report.fact("session_threads", J::Int(SESSION_THREADS as u64));
    let mut samples = Vec::with_capacity(SETUP_ROUNDS);
    let mut cases = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        let t = Instant::now();
        cases = prepare(&specs)?;
        samples.push(t.elapsed().as_secs_f64());
    }
    let (calls, elapsed) = timed_calls(&cases, args.seconds, report);
    report.fact("distinct_cases", J::Int(calls.len() as u64));
    let rss = stats::peak_rss_mb("self").unwrap_or(0.0);
    workload::record_e2e(
        report,
        &load_run(&calls, elapsed),
        stats::median(&samples),
        rss,
        "optimize_padding_with calls",
    );
    report.fact(
        "setup_samples_s",
        J::Arr(samples.iter().map(|&s| J::Num(s)).collect()),
    );
    if args.trace {
        let (traced, traced_elapsed) = timed_calls(&cases, args.seconds, report);
        report.spans = traced.iter().map(|c| workload::span(&c.exchange)).collect();
        // The service layers are probed with the first cases' unpadded
        // nests as analyze requests.
        let lines: Vec<String> = specs
            .iter()
            .take(4 * gen::PADDING_BLOCK)
            .enumerate()
            .map(|(i, c)| {
                let geometry = Geometry {
                    size: c.size,
                    assoc: c.assoc,
                    line: 32,
                    policy: "lru",
                };
                gen::request_line(&format!("r{i}"), &c.program, &geometry)
            })
            .collect();
        layers::probe_service(args, dir, &lines, None, false, report)?;
        let mut work = EngineWork::default();
        let mut candidates = 0.0;
        let mut search_ms = 0.0;
        for call in &traced {
            work.merge(&call.work);
            candidates += call.candidates;
            search_ms += call.exchange.latency_ms();
        }
        work.record(report);
        report.layer("opt.candidates", candidates / traced.len() as f64, "count");
        report.layer(
            "opt.ms_per_candidate",
            search_ms / candidates.max(1.0),
            "ms",
        );
        report.layer("client.retries", 0.0, "count");
        let calls_rps = calls.len() as f64 / elapsed;
        workload::record_trace(report, calls_rps, traced.len() as f64 / traced_elapsed);
    }
    Ok(())
}
