//! The socket path: a spawned `cme-serve` and closed-loop clients that
//! speak to it through `cme_serve::client`.

use crate::stats;
use cme_serve::client::{Client, ClientConfig, Endpoint, Idempotency};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// Worker threads per analysis in the spawned server.
pub const SERVER_THREADS: usize = 1;

/// One spawned `cme-serve` listening on a Unix socket. Dropping it kills
/// and reaps the process, so no error path leaves a server behind.
pub struct ServerProc {
    child: Child,
    socket: PathBuf,
    stdout: BufReader<ChildStdout>,
}

impl ServerProc {
    /// Spawns the server and returns it with the wall time from the spawn
    /// to the first successful ping.
    pub fn start(bin: &Path, socket: &Path, store: Option<&Path>) -> Result<(Self, f64), String> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(bin);
        cmd.arg("--unix")
            .arg(socket)
            .arg("--threads")
            .arg(SERVER_THREADS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(dir) = store {
            cmd.arg("--store").arg(dir);
        }
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut server = ServerProc {
            child,
            socket: socket.to_path_buf(),
            stdout: BufReader::new(stdout),
        };
        // The server prints its listening line right after binding.
        let mut line = String::new();
        server
            .stdout
            .read_line(&mut line)
            .map_err(|e| format!("reading server stdout: {e}"))?;
        if !line.contains("listening on unix:") {
            return Err(format!("server did not start: {line:?}"));
        }
        let pong = server
            .client(0)
            .exchange(r#"{"id":"ping","op":"ping"}"#, Idempotency::Idempotent)
            .map_err(|e| format!("ping: {e}"))?;
        if !pong.contains(r#""pong":true"#) {
            return Err(format!("bad ping response: {pong}"));
        }
        Ok((server, started.elapsed().as_secs_f64()))
    }

    /// A fresh resilient client for this server.
    pub fn client(&self, retry_seed: u64) -> Client {
        let mut config = ClientConfig::new(Endpoint::Unix(self.socket.clone()));
        config.read_timeout_ms = 120_000;
        config.retry_seed = retry_seed | 1;
        Client::new(config)
    }

    /// The server's peak resident set so far.
    pub fn peak_rss_mb(&self) -> f64 {
        stats::peak_rss_mb(&self.child.id().to_string()).unwrap_or(0.0)
    }

    /// Wire shutdown, then waits for the process to exit.
    pub fn stop(mut self) -> Result<(), String> {
        let _ = self.client(0).exchange(
            r#"{"id":"bye","op":"shutdown"}"#,
            Idempotency::NonIdempotent,
        );
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(2)),
                Ok(None) => return Err("server did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for server: {e}")),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// Starts the server `rounds` times and keeps the last instance running;
/// returns it with the median spawn-to-ping time over all rounds.
pub fn start_measured(
    bin: &Path,
    socket: &Path,
    store: Option<&Path>,
    rounds: usize,
) -> Result<(ServerProc, f64, Vec<f64>), String> {
    let mut samples = Vec::with_capacity(rounds);
    for _ in 1..rounds {
        let (server, setup) = ServerProc::start(bin, socket, store)?;
        samples.push(setup);
        server.stop()?;
    }
    let (server, setup) = ServerProc::start(bin, socket, store)?;
    samples.push(setup);
    Ok((server, stats::median(&samples), samples))
}

/// One answered (or failed) exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Index into the request list.
    pub index: usize,
    pub client: usize,
    /// Send and receive offsets from the start of the run, in ms.
    pub start_ms: f64,
    pub end_ms: f64,
    /// The response line, or the transport error.
    pub response: Result<String, String>,
    /// True when the client retried (or absorbed `overloaded`) for it.
    pub retried: bool,
}

impl Exchange {
    pub fn latency_ms(&self) -> f64 {
        self.end_ms - self.start_ms
    }
}

/// What a closed-loop run produced.
#[derive(Debug, Default)]
pub struct LoadRun {
    pub exchanges: Vec<Exchange>,
    /// From the first send to the last receive.
    pub elapsed_s: f64,
    pub retries: u64,
    pub overloaded: u64,
}

impl LoadRun {
    pub fn throughput_rps(&self) -> f64 {
        self.exchanges.len() as f64 / self.elapsed_s
    }

    pub fn latencies_ms(&self) -> Vec<f64> {
        self.exchanges.iter().map(Exchange::latency_ms).collect()
    }

    /// The first request index this run, started at `first`, did not send.
    pub fn next_index(&self, first: usize) -> usize {
        self.exchanges.last().map_or(first, |e| e.index + 1)
    }
}

/// How a closed-loop run chooses and bounds its requests.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub clients: usize,
    /// Keep issuing until this much time has passed …
    pub seconds: f64,
    /// … and at least this many requests were issued.
    pub min_requests: usize,
    /// Request `i` is `lines[i % lines.len()]`; requests `first..` are
    /// issued, none at or past `max_requests` (`usize::MAX` = cycle).
    pub first: usize,
    pub max_requests: usize,
}

/// Runs `plan.clients` closed-loop clients: each sends its next request
/// only after the previous answer arrived. Request order is one shared
/// sequence, so the set of lines sent depends only on the count.
///
/// The run's timer starts when it is called.
pub fn drive(server: &ServerProc, lines: &[String], plan: Plan) -> LoadRun {
    run_clients(&mut clients(server, plan.clients), lines, plan)
}

/// [`drive`] for the `warmup` plan, then for `plan` from where the
/// warm-up stopped, over the same connections (so the timed run meets the
/// same server threads the warm-up did). Returns both runs.
pub fn warm_and_drive(
    server: &ServerProc,
    lines: &[String],
    warmup: Plan,
    plan: Plan,
) -> (LoadRun, LoadRun) {
    let mut clients = clients(server, plan.clients);
    let warm = run_clients(&mut clients, lines, warmup);
    let timed_plan = Plan {
        first: warm.next_index(warmup.first),
        ..plan
    };
    let run = run_clients(&mut clients, lines, timed_plan);
    (warm, run)
}

fn clients(server: &ServerProc, n: usize) -> Vec<Client> {
    (0..n).map(|c| server.client(0x5eed + c as u64)).collect()
}

/// One closed-loop run over the given connections. The indices sent are
/// contiguous from `plan.first`.
fn run_clients(clients: &mut [Client], lines: &[String], plan: Plan) -> LoadRun {
    let next = AtomicUsize::new(0);
    let log = Mutex::new(Vec::new());
    let totals = Mutex::new((0u64, 0u64));
    let start = Instant::now();
    thread::scope(|scope| {
        for (c, client) in clients.iter_mut().enumerate() {
            let (next, log, totals) = (&next, &log, &totals);
            let at_start = client.stats();
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    let i = plan.first + next.fetch_add(1, Ordering::Relaxed);
                    let timed_out = start.elapsed().as_secs_f64() >= plan.seconds;
                    if i >= plan.max_requests || (timed_out && i - plan.first >= plan.min_requests)
                    {
                        break;
                    }
                    let before = client.stats();
                    let t0 = start.elapsed();
                    let response = client
                        .exchange(&lines[i % lines.len()], Idempotency::Idempotent)
                        .map_err(|e| e.to_string());
                    let t1 = start.elapsed();
                    let after = client.stats();
                    mine.push(Exchange {
                        index: i,
                        client: c,
                        start_ms: stats::ms(t0),
                        end_ms: stats::ms(t1),
                        response,
                        retried: after.retries > before.retries
                            || after.overloaded > before.overloaded,
                    });
                }
                let s = client.stats();
                let mut t = totals.lock().expect("totals lock");
                t.0 += s.retries - at_start.retries;
                t.1 += s.overloaded - at_start.overloaded;
                log.lock().expect("log lock").extend(mine);
            });
        }
    });
    let mut exchanges = log.into_inner().expect("log lock");
    exchanges.sort_by_key(|e| e.index);
    let elapsed_s = exchanges.iter().map(|e| e.end_ms).fold(0.0f64, f64::max) / 1e3;
    let (retries, overloaded) = totals.into_inner().expect("totals lock");
    LoadRun {
        exchanges,
        elapsed_s,
        retries,
        overloaded,
    }
}
