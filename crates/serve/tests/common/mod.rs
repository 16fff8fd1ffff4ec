//! Shared scaffolding for the service's integration suites: tiny
//! kernels, in-process server startup, and line-protocol roundtrips.

#![allow(dead_code)]

use cme_core::api::CacheSpec;
use cme_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread;

/// A small geometry every suite shares: 1 KiB, 2-way, 32 B lines.
pub fn spec() -> CacheSpec {
    CacheSpec::new(1024, 2, 32, 4)
}

/// `n×n` matrix multiply in the textual nest format — small enough to
/// analyze in milliseconds under a debug build.
pub fn mmult(n: i64) -> String {
    format!(
        "REAL Z({n},{n}) AT 0\nREAL X({n},{n}) AT {xz}\nREAL Y({n},{n}) AT {yz}\n\
         DO i = 1, {n}\n  DO j = 1, {n}\n    DO k = 1, {n}\n      \
         Z(j,i) = Z(j,i) + X(k,i) * Y(j,k)\n    ENDDO\n  ENDDO\nENDDO\n",
        n = n,
        xz = n * n,
        yz = 2 * n * n,
    )
}

/// A fresh per-test scratch directory under the system temp dir.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "cme-serve-test-{tag}-{}-{:?}",
        std::process::id(),
        thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Starts `server` on `bind` (an ephemeral port such as `127.0.0.1:0`);
/// the handle joins once the server drains after shutdown.
pub fn start_tcp(server: &Arc<Server>, bind: &str) -> (SocketAddr, thread::JoinHandle<()>) {
    let listener = TcpListener::bind(bind).expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let srv = Arc::clone(server);
    let handle = thread::spawn(move || {
        srv.serve_tcp(listener).expect("serve_tcp");
    });
    (addr, handle)
}

/// An in-process server over the given config, already listening.
pub fn start_server(config: ServerConfig) -> (Arc<Server>, SocketAddr, thread::JoinHandle<()>) {
    let server = Server::new(config).expect("server");
    let (addr, handle) = start_tcp(&server, "127.0.0.1:0");
    (server, addr, handle)
}

/// Sends each line on one connection and returns one response line per
/// request.
pub fn roundtrip(addr: SocketAddr, lines: &[String]) -> Vec<String> {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut out = Vec::new();
    for line in lines {
        writer.write_all(line.as_bytes()).expect("send");
        writer.write_all(b"\n").expect("send newline");
        writer.flush().expect("flush");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        out.push(response.trim_end().to_string());
    }
    out
}

/// Shuts a server down over the wire and joins its listener.
pub fn shutdown(server: &Arc<Server>, addr: SocketAddr, listener: thread::JoinHandle<()>) {
    roundtrip(addr, &[r#"{"op":"shutdown","id":"bye"}"#.to_string()]);
    listener.join().expect("listener joins after shutdown");
    assert!(server.is_shutdown());
}

/// Directory where suites persist reproduction seeds on failure; CI
/// uploads it as an artifact. Lives under `target/tmp` via
/// `CARGO_TARGET_TMPDIR`.
pub fn failure_artifact_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("chaos-failures")
}
