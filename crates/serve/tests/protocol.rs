//! The line protocol over real sockets: concurrent TCP clients against
//! the in-process answers, budget degradation and the store, the
//! non-analyze ops, the Unix socket transport, and draining with an idle
//! connection.

mod common;

use cme_core::api::json::{self, Json};
use cme_core::api::{AnalyzeRequest, AnalyzeResponse, ErrorCode};
use cme_core::Analyzer;
use cme_serve::{Server, ServerConfig};
use common::{mmult, roundtrip, shutdown, spec, start_tcp, temp_dir};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn concurrent_tcp_clients_match_in_process_batch() {
    let dir = temp_dir("concurrent");
    let server = Server::new(ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let (addr, listener) = start_tcp(&server, "127.0.0.1:0");

    let sizes = [6i64, 8, 10];
    let requests: Vec<AnalyzeRequest> = sizes
        .iter()
        .map(|&n| AnalyzeRequest::new(format!("n{n}"), mmult(n), spec()))
        .collect();

    // In-process reference: each request served on one fresh
    // session, no store.
    let session = Analyzer::new(spec().build().unwrap());
    let reference: Vec<u64> = requests
        .iter()
        .map(|r| session.serve(r).result.unwrap().total_misses)
        .collect();

    // Four clients send the same workload concurrently.
    let lines: Vec<String> = requests.iter().map(AnalyzeRequest::encode).collect();
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let lines = lines.clone();
            thread::spawn(move || roundtrip(addr, &lines))
        })
        .collect();
    for client in clients {
        let responses = client.join().unwrap();
        for (response, (req, want)) in responses.iter().zip(requests.iter().zip(&reference)) {
            let resp = AnalyzeResponse::decode(response).unwrap();
            assert_eq!(resp.id, req.id);
            let result = resp.result.unwrap();
            assert!(result.outcome.complete);
            assert_eq!(result.total_misses, *want, "bit-identical to in-process");
        }
    }

    shutdown(&server, addr, listener);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exhausted_requests_degrade_and_never_contaminate_the_store() {
    let dir = temp_dir("exhaust");
    let server = Server::new(ServerConfig {
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .unwrap();
    let (addr, listener) = start_tcp(&server, "127.0.0.1:0");

    let mut tight = AnalyzeRequest::new("tight", mmult(8), spec());
    tight.max_solves = Some(1);
    let full = AnalyzeRequest::new("full", mmult(8), spec());
    let responses = roundtrip(addr, &[tight.encode(), full.encode(), full.encode()]);

    // Degraded success: complete=false, a sound overcount, not an error.
    let degraded = AnalyzeResponse::decode(&responses[0])
        .unwrap()
        .result
        .unwrap();
    assert!(!degraded.outcome.complete);
    assert!(!degraded.outcome.reason.is_empty());

    // The exhausted result was NOT persisted: the first full-budget
    // run recomputes (store_hit=false) and lands the exact count …
    let first = AnalyzeResponse::decode(&responses[1])
        .unwrap()
        .result
        .unwrap();
    assert!(first.outcome.complete);
    assert!(!first.store_hit);
    assert!(
        degraded.total_misses >= first.total_misses,
        "sound overcount"
    );

    // … and only a *complete* artifact is served back.
    let second = AnalyzeResponse::decode(&responses[2])
        .unwrap()
        .result
        .unwrap();
    assert!(second.store_hit);
    assert_eq!(second.total_misses, first.total_misses);

    shutdown(&server, addr, listener);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_ops_ping_stats_shutdown_and_errors() {
    let server = Server::new(ServerConfig::default()).unwrap();
    // An unspecified bind address: the shutdown wake must reach it.
    let (addr, listener) = start_tcp(&server, "0.0.0.0:0");

    let responses = roundtrip(
        addr,
        &[
            r#"{"op":"ping","id":"p"}"#.to_string(),
            AnalyzeRequest::new("q", mmult(4), spec()).encode(),
            "this is not json".to_string(),
            r#"{"op":"frobnicate","id":"f"}"#.to_string(),
            r#"{"op":"stats","id":"s"}"#.to_string(),
        ],
    );

    let ping = json::parse(&responses[0]).unwrap();
    assert_eq!(ping.get("id").and_then(Json::as_str), Some("p"));
    assert!(ping.get("ok").and_then(|o| o.get("pong")).is_some());

    assert!(AnalyzeResponse::decode(&responses[1])
        .unwrap()
        .result
        .is_ok());

    for (line, id) in [(&responses[2], ""), (&responses[3], "f")] {
        let resp = AnalyzeResponse::decode(line).unwrap();
        assert_eq!(resp.id, id);
        assert_eq!(resp.result.unwrap_err().code, ErrorCode::BadRequest);
    }

    let stats = json::parse(&responses[4]).unwrap();
    let ok = stats.get("ok").unwrap();
    assert_eq!(ok.get("sessions").and_then(Json::as_u64), Some(1));
    assert_eq!(
        ok.get("engine")
            .and_then(|e| e.get("analyses"))
            .and_then(Json::as_u64),
        Some(1)
    );
    assert_eq!(ok.get("store"), Some(&Json::Null));
    // The overload counters are part of the stats surface.
    for key in [
        "connections",
        "active_connections",
        "shed_connections",
        "timed_out_connections",
        "oversized_lines",
        "sessions_evicted",
        "worker_panics",
    ] {
        assert!(
            ok.get(key).and_then(Json::as_u64).is_some(),
            "missing {key}"
        );
    }

    shutdown(&server, addr, listener);
}

#[test]
fn unix_socket_speaks_the_same_protocol() {
    let dir = temp_dir("unix");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sock");
    let server = Server::new(ServerConfig::default()).unwrap();
    let listener = UnixListener::bind(&path).unwrap();
    let srv = Arc::clone(&server);
    let handle = thread::spawn(move || {
        srv.serve_unix(listener).unwrap();
    });

    let stream = UnixStream::connect(&path).unwrap();
    // The shutdown must wake the listener without its socket file.
    std::fs::remove_file(&path).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let req = AnalyzeRequest::new("u", mmult(4), spec());
    for line in [req.encode(), r#"{"op":"shutdown","id":"z"}"#.to_string()] {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        if let Ok(resp) = AnalyzeResponse::decode(response.trim_end()) {
            assert!(resp.result.is_ok());
        }
    }
    handle.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn idle_connection_cannot_stall_a_drain() {
    // Regression for the PR 6 shutdown lag: a connected client that
    // never sends a complete line used to block the accept loop's
    // join forever. With shutdown-aware timed reads the listener must
    // return within a read tick + drain slack.
    let server = Server::new(ServerConfig {
        drain_ms: 2_000,
        ..ServerConfig::default()
    })
    .unwrap();
    let (addr, listener) = start_tcp(&server, "127.0.0.1:0");
    let idle = TcpStream::connect(addr).unwrap();
    // Half a request, never terminated.
    (&idle).write_all(b"{\"op\":\"pi").unwrap();
    thread::sleep(Duration::from_millis(100));
    let started = Instant::now();
    server.request_shutdown();
    listener.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "drain took {:?}",
        started.elapsed()
    );
    drop(idle);
}
