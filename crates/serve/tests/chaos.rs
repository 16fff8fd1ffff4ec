//! Seeded chaos suite: the service under deterministic fault injection.
//!
//! Two fault surfaces, mirroring `docs/SERVE.md`'s trust model:
//!
//! - **store I/O** — every seed builds a [`FaultPlan`] (read errors,
//!   truncations, byte flips, write errors, torn writes, mid-write
//!   crashes) under an otherwise stock server and replays a fixed
//!   workload. The server must keep answering *exactly* — bit-identical
//!   miss counts, `complete = true` — because a store fault may only
//!   ever degrade to a recompute, and whatever survives on disk must
//!   read back clean afterwards.
//! - **connection layer** — seeded misbehaving peers (garbage frames,
//!   resets mid-request, byte dribbling, stalls, disconnects before the
//!   response) hammer a live TCP server; afterwards the server must
//!   still answer exactly, with zero worker panics.
//!
//! Failing seeds are appended to
//! `target/tmp/chaos-failures/` so CI can persist them as artifacts;
//! rerun any seed by number — plans are pure functions of it.

mod common;

use cme_core::api::{AnalyzeRequest, AnalyzeResponse};
use cme_core::{Analyzer, ArtifactStore, FaultPlan, InjectedFaults};
use cme_serve::{Server, ServerConfig};
use common::{failure_artifact_dir, mmult, roundtrip, shutdown, spec, start_server, temp_dir};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

const STORE_SEEDS: u64 = 128;
const CONNECTION_SEEDS: u64 = 48;

/// The fixed workload: three sizes of the same kernel, one geometry.
fn workload() -> Vec<AnalyzeRequest> {
    [4i64, 5, 6]
        .iter()
        .map(|&n| AnalyzeRequest::new(format!("n{n}"), mmult(n), spec()))
        .collect()
}

/// Ground truth: each request served on one storeless in-process session.
fn reference(requests: &[AnalyzeRequest]) -> Vec<u64> {
    let session = Analyzer::new(spec().build().expect("geometry"));
    requests
        .iter()
        .map(|r| {
            session
                .serve(r)
                .result
                .expect("reference analysis")
                .total_misses
        })
        .collect()
}

/// Appends failing seeds to the CI artifact file and panics with them.
fn report_failures(surface: &str, failures: Vec<(u64, String)>) {
    if failures.is_empty() {
        return;
    }
    let dir = failure_artifact_dir();
    std::fs::create_dir_all(&dir).ok();
    let mut body = String::new();
    for (seed, what) in &failures {
        body.push_str(&format!("{surface} seed {seed}: {what}\n"));
    }
    std::fs::write(dir.join(format!("{surface}.txt")), &body).ok();
    panic!(
        "{} failing {surface} seeds (persisted to {}):\n{body}",
        failures.len(),
        dir.display()
    );
}

/// One seed of store-fault chaos: a heavily faulted store under a stock
/// server must stay exact on every request, and the store directory must
/// read back clean (or empty) once the faults stop.
fn store_chaos_round(seed: u64, requests: &[AnalyzeRequest], want: &[u64]) -> InjectedFaults {
    let dir = temp_dir(&format!("chaos-{seed}"));
    let plan = Arc::new(
        FaultPlan::new(seed)
            .read_fault_percent(40)
            .write_fault_percent(40),
    );
    let store = ArtifactStore::open_bounded(&dir, 1 << 20, 1 << 20)
        .expect("open faulted store")
        .with_faults(Arc::clone(&plan));
    let server = Server::with_store(ServerConfig::default(), Arc::new(store));
    // Two passes so the second pass exercises reads of whatever pass one
    // managed to persist.
    for pass in 0..2 {
        for (request, want) in requests.iter().zip(want) {
            let response = server.handle_line(&request.encode());
            let result = AnalyzeResponse::decode(&response)
                .expect("decodable response")
                .result
                .unwrap_or_else(|e| panic!("pass {pass} {}: server errored: {e}", request.id));
            assert!(
                result.outcome.complete,
                "pass {pass} {}: store faults must never degrade a result",
                request.id
            );
            assert_eq!(
                result.total_misses, *want,
                "pass {pass} {}: wrong count under store faults",
                request.id
            );
        }
    }
    drop(server);
    // Faults off: everything the chaos run left on disk must either load
    // clean with the exact counts or be evicted on sight — never lie.
    let clean = ArtifactStore::open_bounded(&dir, 1 << 20, 1 << 20).expect("reopen store");
    let server = Server::with_store(ServerConfig::default(), Arc::new(clean));
    for (request, want) in requests.iter().zip(want) {
        let response = server.handle_line(&request.encode());
        let result = AnalyzeResponse::decode(&response)
            .expect("decodable response")
            .result
            .expect("clean reopen must answer");
        assert_eq!(
            result.total_misses, *want,
            "{}: a surviving store entry served wrong data",
            request.id
        );
    }
    let injected = plan.injected();
    std::fs::remove_dir_all(&dir).ok();
    injected
}

#[test]
fn store_faults_always_degrade_to_exact_recomputes() {
    let requests = workload();
    let want = reference(&requests);
    let mut totals = InjectedFaults::default();
    let mut failures = Vec::new();
    for seed in 0..STORE_SEEDS {
        match catch_unwind(AssertUnwindSafe(|| {
            store_chaos_round(seed, &requests, &want)
        })) {
            Ok(injected) => {
                totals.read_errors += injected.read_errors;
                totals.truncated_reads += injected.truncated_reads;
                totals.corrupted_reads += injected.corrupted_reads;
                totals.write_errors += injected.write_errors;
                totals.torn_writes += injected.torn_writes;
                totals.crashed_writes += injected.crashed_writes;
            }
            Err(panic) => {
                let what = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "opaque panic".into());
                failures.push((seed, what));
            }
        }
    }
    report_failures("store-chaos", failures);
    // The corpus must actually have exercised every fault class.
    for (class, count) in [
        ("read_errors", totals.read_errors),
        ("truncated_reads", totals.truncated_reads),
        ("corrupted_reads", totals.corrupted_reads),
        ("write_errors", totals.write_errors),
        ("torn_writes", totals.torn_writes),
        ("crashed_writes", totals.crashed_writes),
    ] {
        assert!(
            count > 0,
            "{class} never injected across {STORE_SEEDS} seeds"
        );
    }
}

/// xorshift64*: seed-derived garbage bytes for hostile frames.
fn garbage(seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed.wrapping_mul(2862933555777941757).wrapping_add(1) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let b = (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 56) as u8;
            if b == b'\n' {
                b'x'
            } else {
                b
            }
        })
        .collect()
}

/// How long hostile stalls hold the socket; comfortably past the
/// server's request-line deadline below.
const STALL: Duration = Duration::from_millis(500);
const IDLE_TIMEOUT_MS: u64 = 150;

/// One seeded misbehaving peer. Returns a description of any *client-side*
/// expectation that failed (server-side invariants are checked after).
fn connection_chaos_client(
    addr: std::net::SocketAddr,
    seed: u64,
    analyze: &str,
) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("timeout: {e}"))?;
    match seed % 5 {
        // Garbage frame: one line of seeded noise must get one coded
        // error response, not a hang or a crash.
        0 => {
            let mut frame = garbage(seed, 64);
            frame.push(b'\n');
            stream.write_all(&frame).map_err(|e| format!("send: {e}"))?;
            let mut response = String::new();
            let mut reader = std::io::BufReader::new(&stream);
            std::io::BufRead::read_line(&mut reader, &mut response)
                .map_err(|e| format!("read: {e}"))?;
            if !response.contains("\"error\"") {
                return Err(format!("garbage frame got a non-error reply: {response}"));
            }
            Ok(())
        }
        // Reset mid-request: half a line, then vanish.
        1 => {
            let half = &analyze.as_bytes()[..analyze.len() / 2];
            let _ = stream.write_all(half);
            Ok(())
        }
        // Byte dribble that *does* finish inside the deadline: must be
        // answered like any other request.
        2 => {
            for b in br#"{"op":"ping","id":"drib"}"#.iter() {
                stream
                    .write_all(&[*b])
                    .map_err(|e| format!("dribble: {e}"))?;
                stream.flush().ok();
                thread::sleep(Duration::from_millis(3));
            }
            stream
                .write_all(b"\n")
                .map_err(|e| format!("dribble end: {e}"))?;
            let mut response = String::new();
            let mut reader = std::io::BufReader::new(&stream);
            std::io::BufRead::read_line(&mut reader, &mut response)
                .map_err(|e| format!("read: {e}"))?;
            if !response.contains("pong") {
                return Err(format!("dribbled ping not answered: {response}"));
            }
            Ok(())
        }
        // Stall past the deadline: the server must hang up on us.
        3 => {
            thread::sleep(STALL);
            let mut byte = [0u8; 1];
            match stream.read(&mut byte) {
                Ok(0) => Ok(()),
                Ok(_) => Err("server spoke to a silent connection".into()),
                Err(e) => Err(format!("expected EOF after stall, got: {e}")),
            }
        }
        // Fire an analyze and slam the door before the response.
        _ => {
            let _ = stream.write_all(analyze.as_bytes());
            let _ = stream.write_all(b"\n");
            let _ = stream.flush();
            Ok(())
        }
    }
}

#[test]
fn hostile_connections_never_wedge_or_corrupt_the_server() {
    let requests = workload();
    let want = reference(&requests);
    let (server, addr, listener) = start_server(ServerConfig {
        idle_timeout_ms: IDLE_TIMEOUT_MS,
        max_connections: 64,
        drain_ms: 2_000,
        ..ServerConfig::default()
    });

    let analyze = requests[0].encode();
    let clients: Vec<_> = (0..CONNECTION_SEEDS)
        .map(|seed| {
            let analyze = analyze.clone();
            thread::spawn(move || (seed, connection_chaos_client(addr, seed, &analyze)))
        })
        .collect();
    let mut failures = Vec::new();
    for client in clients {
        match client.join() {
            Ok((_, Ok(()))) => {}
            Ok((seed, Err(what))) => failures.push((seed, what)),
            Err(_) => failures.push((u64::MAX, "chaos client panicked".into())),
        }
    }
    report_failures("connection-chaos", failures);

    // The server took the beating without a single worker panic, closed
    // every staller, and still answers exactly.
    let stalls = (0..CONNECTION_SEEDS).filter(|s| s % 5 == 3).count() as u64;
    let stats = server.stats();
    assert_eq!(stats.worker_panics, 0, "a connection thread panicked");
    assert!(
        stats.timed_out_connections >= stalls,
        "only {}/{stalls} stalled connections were timed out",
        stats.timed_out_connections
    );
    let lines: Vec<String> = requests.iter().map(AnalyzeRequest::encode).collect();
    for (response, want) in roundtrip(addr, &lines).iter().zip(&want) {
        let result = AnalyzeResponse::decode(response)
            .expect("decodable")
            .result
            .expect("post-chaos analyze");
        assert!(result.outcome.complete);
        assert_eq!(result.total_misses, *want, "wrong count after chaos");
    }
    shutdown(&server, addr, listener);
}
