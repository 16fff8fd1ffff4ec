//! Targeted hostile-client scenarios: each overload limit, exercised
//! end-to-end over real sockets, with the recovery path asserted — a
//! misbehaving peer costs the server one bounded connection, never its
//! health.

mod common;

use cme_core::api::{AnalyzeRequest, AnalyzeResponse};
use cme_serve::client::{Client, ClientConfig, Endpoint, Idempotency};
use cme_serve::ServerConfig;
use common::{mmult, roundtrip, shutdown, spec, start_server};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

#[test]
fn slowloris_is_cut_off_at_the_line_deadline() {
    let (server, addr, listener) = start_server(ServerConfig {
        idle_timeout_ms: 150,
        drain_ms: 2_000,
        ..ServerConfig::default()
    });

    // Dribble a valid request one byte every 40 ms: the line would take
    // ~800 ms, four times the deadline. The server must hang up without
    // answering — byte dribble must NOT reset the deadline.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut served = Vec::new();
    for b in br#"{"op":"ping","id":"slow"}"#.iter() {
        if stream
            .write_all(&[*b])
            .and_then(|_| stream.flush())
            .is_err()
        {
            break; // server already hung up on us
        }
        thread::sleep(Duration::from_millis(40));
    }
    let _ = stream.write_all(b"\n");
    let _ = stream.read_to_end(&mut served);
    assert!(
        served.is_empty(),
        "a slowloris dribbler was answered: {:?}",
        String::from_utf8_lossy(&served)
    );
    assert!(server.stats().timed_out_connections >= 1);

    // A well-behaved client right after is unaffected.
    let pong = roundtrip(addr, &[r#"{"op":"ping","id":"ok"}"#.to_string()]);
    assert!(pong[0].contains("pong"));
    shutdown(&server, addr, listener);
}

#[test]
fn unterminated_oversized_line_is_rejected_and_closed() {
    let (server, addr, listener) = start_server(ServerConfig {
        max_line_bytes: 4096,
        drain_ms: 2_000,
        ..ServerConfig::default()
    });

    // 16 KiB and never a newline: the buffer cap must trip, answer once
    // with a coded bad-request, and close — not accumulate forever.
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(&vec![b'a'; 16 << 10]).expect("send blob");
    stream.flush().expect("flush");
    let mut reader = BufReader::new(&stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("read rejection");
    let err = AnalyzeResponse::decode(response.trim_end())
        .expect("decodable rejection")
        .result
        .expect_err("oversized line must be an error");
    assert_eq!(err.code.as_str(), "bad-request");
    assert!(err.message.contains("4096"), "{}", err.message);
    let mut rest = Vec::new();
    let _ = reader.read_to_end(&mut rest);
    assert!(rest.is_empty(), "connection must close after the rejection");
    assert_eq!(server.stats().oversized_lines, 1);

    let pong = roundtrip(addr, &[r#"{"op":"ping","id":"ok"}"#.to_string()]);
    assert!(pong[0].contains("pong"));
    shutdown(&server, addr, listener);
}

#[test]
fn connection_flood_is_shed_with_overloaded_and_recovers() {
    let (server, addr, listener) = start_server(ServerConfig {
        max_connections: 3,
        idle_timeout_ms: 10_000,
        drain_ms: 2_000,
        ..ServerConfig::default()
    });

    // Fill the pool with three live connections (a ping roundtrip each
    // proves they are accepted, not queued).
    let mut pool = Vec::new();
    for i in 0..3 {
        let stream = TcpStream::connect(addr).expect("connect");
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        let mut writer = stream;
        writer
            .write_all(format!("{{\"op\":\"ping\",\"id\":\"hold{i}\"}}\n").as_bytes())
            .expect("send");
        let mut response = String::new();
        reader.read_line(&mut response).expect("pong");
        assert!(response.contains("pong"));
        pool.push((reader, writer));
    }

    // Everything beyond the bound gets exactly one `overloaded` line and
    // the door.
    for i in 0..6 {
        let stream = TcpStream::connect(addr).expect("flood connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("timeout");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("shed line");
        let err = AnalyzeResponse::decode(response.trim_end())
            .expect("decodable shed response")
            .result
            .expect_err("shed connections get an error");
        assert_eq!(err.code.as_str(), "overloaded", "flood conn {i}: {err}");
        let mut rest = Vec::new();
        let _ = reader.read_to_end(&mut rest);
        assert!(rest.is_empty(), "shed connection must be closed");
    }
    assert_eq!(server.stats().shed_connections, 6);

    // Recovery: release the pool, wait for the gauge to drop, and a new
    // client is admitted again.
    drop(pool);
    let deadline = Instant::now() + Duration::from_secs(3);
    while server.stats().active_connections > 0 && Instant::now() < deadline {
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().active_connections, 0, "pool never drained");
    let pong = roundtrip(addr, &[r#"{"op":"ping","id":"after"}"#.to_string()]);
    assert!(
        pong[0].contains("pong"),
        "no recovery after flood: {}",
        pong[0]
    );
    shutdown(&server, addr, listener);
}

#[test]
fn mid_analyze_disconnect_leaves_the_session_healthy() {
    let (server, addr, listener) = start_server(ServerConfig {
        drain_ms: 2_000,
        ..ServerConfig::default()
    });
    let request = AnalyzeRequest::new("gone", mmult(6), spec());

    // Fire the analyze and vanish before the response can be written.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.encode().as_bytes()).expect("send");
        stream.write_all(b"\n").expect("send newline");
        stream.flush().expect("flush");
    }

    // The same geometry's session must answer the next client exactly,
    // through the shared resilient client for good measure.
    let mut client = Client::new(ClientConfig::new(Endpoint::Tcp(addr.to_string())));
    let response = client
        .exchange(&request.encode(), Idempotency::Idempotent)
        .expect("post-disconnect exchange");
    let result = AnalyzeResponse::decode(&response)
        .expect("decodable")
        .result
        .expect("healthy session");
    assert!(result.outcome.complete);
    assert!(result.total_misses > 0);
    let deadline = Instant::now() + Duration::from_secs(3);
    while server.stats().worker_panics == 0
        && server.stats().active_connections > 1
        && Instant::now() < deadline
    {
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(server.stats().worker_panics, 0);
    shutdown(&server, addr, listener);
}
