//! Long-running analysis service over the unified request/response API.
//!
//! `cme-serve` speaks a JSON **line protocol**: each connection carries a
//! stream of single-line requests and receives one single-line response
//! per request, in order (see `docs/SERVE.md` for the schema). Concurrent
//! clients are multiplexed onto shared per-geometry [`Analyzer`] sessions
//! so every client benefits from every other client's memoized work, and
//! all sessions write through one persistent [`ArtifactStore`] when a
//! store directory is configured.
//!
//! Resource governance doubles as admission control: a server-wide
//! `max_budget_ms` caps (and, for unbudgeted requests, supplies) the
//! per-request deadline, so no client can monopolize the server.
//! Exhausted requests come back as *degraded successes*
//! (`outcome.complete = false`, a sound overcount) — never as errors, and
//! never persisted to the store.
//!
//! The same discipline extends to the transport (`docs/SERVE.md` has the
//! operator's view):
//!
//! - **bounded connections** — beyond [`ServerConfig::max_connections`],
//!   new peers are *shed*: one [`ErrorCode::Overloaded`] response line,
//!   then close. Overload is explicit and retryable, never a hang.
//! - **bounded request lines** — a line that exceeds
//!   [`ServerConfig::max_line_bytes`] without a newline gets one
//!   `bad-request` response and the connection is closed; the read
//!   buffer can never grow without bound.
//! - **bounded waiting** — a connection that does not deliver a complete
//!   request line within [`ServerConfig::idle_timeout_ms`] (silent *or*
//!   dribbling one byte at a time) is closed and counted. Reads wake on
//!   a short tick, so every connection also observes the shutdown latch
//!   within that tick — an idle peer cannot stall a drain.
//! - **bounded sessions** — the per-geometry session map is LRU-capped
//!   at [`ServerConfig::max_sessions`].
//!
//! The protocol carries four operations, dispatched on the `op` field:
//! `analyze` (the [`AnalyzeRequest`] schema), `ping`, `stats`, and
//! `shutdown`. Responses always echo the request `id` and carry either an
//! `ok` object or a coded `error` object ([`ErrorCode`]). The [`client`]
//! module is the matching resilient client: connect/read deadlines,
//! bounded seeded backoff, and retry restricted to idempotent requests.

pub mod client;

use cme_cache::CacheModel;
use cme_core::api::json::{self, obj, Json};
use cme_core::api::{AnalyzeRequest, AnalyzeResponse, Error, ErrorCode};
use cme_core::{Analyzer, ArtifactStore, EngineStats};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::fd::OwnedFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::thread;
use std::time::{Duration, Instant};

/// Granularity at which connection reads wake to re-check the shutdown
/// latch and the request-line deadline. Bounds how long an in-flight
/// idle connection can delay a drain.
const READ_TICK: Duration = Duration::from_millis(25);

/// Write deadline for best-effort responses to shed or misbehaving
/// connections — the peer may not be reading at all, and a full socket
/// buffer must not wedge the accept loop or a connection thread.
const BEST_EFFORT_WRITE: Duration = Duration::from_millis(250);

/// How a [`Server`] is provisioned: storage, parallelism, the admission
/// ceiling, and the overload limits.
///
/// Every limit has a production-shaped default via [`Default`]; setting a
/// limit to `0` disables it (unbounded), which is only sensible in
/// tests.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory of the persistent artifact store (`None` = in-memory
    /// memoization only).
    pub store_dir: Option<PathBuf>,
    /// Size bound of the store in bytes (`None` =
    /// [`ArtifactStore::DEFAULT_MAX_BYTES`]).
    pub store_max_bytes: Option<u64>,
    /// Worker threads per analysis (`0` = every available core).
    pub threads: usize,
    /// Admission control: every request's wall-clock budget is clamped to
    /// this many milliseconds, and requests that arrive without a deadline
    /// get exactly this one (`None` = requests run as budgeted, possibly
    /// unbounded).
    pub max_budget_ms: Option<u64>,
    /// Max milliseconds for a complete request line to arrive once the
    /// server starts waiting for one; a connection that stays silent *or*
    /// dribbles bytes slower than this is closed and counted
    /// ([`ServerStats::timed_out_connections`]). `0` disables.
    pub idle_timeout_ms: u64,
    /// Byte cap on one request line. A longer line (terminated or not)
    /// gets one `bad-request` response and the connection is closed
    /// ([`ServerStats::oversized_lines`]). `0` disables.
    pub max_line_bytes: usize,
    /// Connection pool bound across all listeners. Accepts beyond it are
    /// shed with one [`ErrorCode::Overloaded`] line
    /// ([`ServerStats::shed_connections`]). `0` disables.
    pub max_connections: usize,
    /// LRU cap on the per-geometry session map
    /// ([`ServerStats::sessions_evicted`]). `0` disables.
    pub max_sessions: usize,
    /// Drain deadline after shutdown: the accept loops stop accepting at
    /// once and wait at most this long for live connections to finish.
    pub drain_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            store_dir: None,
            store_max_bytes: None,
            threads: 1,
            max_budget_ms: None,
            idle_timeout_ms: 30_000,
            max_line_bytes: 4 << 20,
            max_connections: 128,
            max_sessions: 32,
            drain_ms: 5_000,
        }
    }
}

/// Aggregate traffic counters of a running [`Server`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Protocol lines answered (any op).
    pub requests: u64,
    /// Responses that carried a coded error.
    pub errors: u64,
    /// Live per-geometry sessions.
    pub sessions: u64,
    /// Connections accepted and served (shed connections excluded).
    pub connections: u64,
    /// Connections currently in flight.
    pub active_connections: u64,
    /// Connections shed at the pool bound with an `overloaded` response.
    pub shed_connections: u64,
    /// Connections closed for exceeding the request-line deadline.
    pub timed_out_connections: u64,
    /// Request lines rejected (and connections closed) at the byte cap.
    pub oversized_lines: u64,
    /// Sessions evicted by the LRU cap on the session map.
    pub sessions_evicted: u64,
    /// Connection threads that panicked (counted as they unwind, never
    /// silently dropped).
    pub worker_panics: u64,
}

impl ServerStats {
    /// The stats schema: one key per field, under its Rust name.
    pub fn to_json(&self) -> Json {
        obj([
            ("requests", Json::UInt(self.requests)),
            ("errors", Json::UInt(self.errors)),
            ("sessions", Json::UInt(self.sessions)),
            ("connections", Json::UInt(self.connections)),
            ("active_connections", Json::UInt(self.active_connections)),
            ("shed_connections", Json::UInt(self.shed_connections)),
            (
                "timed_out_connections",
                Json::UInt(self.timed_out_connections),
            ),
            ("oversized_lines", Json::UInt(self.oversized_lines)),
            ("sessions_evicted", Json::UInt(self.sessions_evicted)),
            ("worker_panics", Json::UInt(self.worker_panics)),
        ])
    }
}

/// `object` with `pairs` added: the `stats` op nests the stats schemas
/// and adds the store's gauges to its counters.
fn extend(mut object: Json, pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    if let Json::Obj(map) = &mut object {
        map.extend(
            pairs
                .into_iter()
                .map(|(key, value)| (key.to_string(), value)),
        );
    }
    object
}

/// One per-geometry analyzer session plus its LRU stamp.
#[derive(Debug)]
struct SessionSlot {
    analyzer: Arc<Analyzer>,
    last_used: u64,
}

/// The live sessions, plus the engine counters of the sessions the LRU
/// cap has evicted, so the `stats` op's totals never go backwards.
#[derive(Debug)]
struct Sessions {
    live: HashMap<CacheModel, SessionSlot>,
    evicted: EngineStats,
}

/// A duplicate of one accept loop's listening socket, held as a stream
/// only so [`Server::request_shutdown`] can `shutdown(2)` it: that fails
/// the loop's blocked `accept` at once, whatever the listener's address
/// (a Unix socket whose file was unlinked included).
#[derive(Debug)]
enum Wake {
    Tcp(TcpStream),
    Unix(UnixStream),
}

/// The shared server state: per-geometry [`Analyzer`] sessions, the
/// optional artifact store behind them, the shutdown latch, and the
/// traffic counters.
///
/// One `Server` is shared (via `Arc`) by every listener and connection
/// thread; [`Server::handle_line`] is the single protocol entry point, so
/// transports stay trivial and tests can drive the protocol without a
/// socket.
#[derive(Debug)]
pub struct Server {
    config: ServerConfig,
    store: Option<Arc<ArtifactStore>>,
    sessions: Mutex<Sessions>,
    session_clock: AtomicU64,
    shutdown: AtomicBool,
    /// Every live accept loop's listening socket, for the shutdown wake.
    listeners: Mutex<Vec<Weak<Wake>>>,
    requests: AtomicU64,
    errors: AtomicU64,
    connections: AtomicU64,
    active: AtomicU64,
    shed_connections: AtomicU64,
    timed_out: AtomicU64,
    oversized: AtomicU64,
    sessions_evicted: AtomicU64,
    worker_panics: AtomicU64,
}

/// Locks a mutex, riding through poisoning: a panicking thread must not
/// wedge every other client.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// A duplex byte stream with socket deadlines — the surface the server
/// and the [`client`] need from TCP and Unix sockets.
pub trait Transport: Read + Write {
    /// Sets the read timeout (the server uses a short tick so reads stay
    /// shutdown-aware).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
    /// Sets the write timeout (used for best-effort error responses).
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Transport for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_write_timeout(self, timeout)
    }
}

impl Transport for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
    }
    fn set_write_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_write_timeout(self, timeout)
    }
}

/// Counts a detached connection thread out as it exits: a panic is added
/// to `worker_panics`, and the live-connection gauge is decremented,
/// panic or not — a leaked increment would shed forever.
struct ActiveGuard(Arc<Server>);

impl Drop for ActiveGuard {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.worker_panics.fetch_add(1, Ordering::Relaxed);
        }
        self.0.active.fetch_sub(1, Ordering::Relaxed);
    }
}

impl Server {
    /// Provisions a server: opens (or creates) the artifact store when a
    /// directory is configured.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Store`] when the store directory cannot be opened.
    pub fn new(config: ServerConfig) -> Result<Arc<Self>, Error> {
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(ArtifactStore::open_bounded(
                dir,
                config
                    .store_max_bytes
                    .unwrap_or(ArtifactStore::DEFAULT_MAX_BYTES),
                ArtifactStore::DEFAULT_MAX_ENTRY_BYTES,
            )?)),
            None => None,
        };
        Ok(Self::assemble(config, store))
    }

    /// Provisions a server around an already-opened store — the chaos
    /// suite's entry point, so a store wrapped in a
    /// [`cme_core::FaultPlan`] can sit under an otherwise stock server.
    pub fn with_store(config: ServerConfig, store: Arc<ArtifactStore>) -> Arc<Self> {
        Self::assemble(config, Some(store))
    }

    fn assemble(config: ServerConfig, store: Option<Arc<ArtifactStore>>) -> Arc<Self> {
        Arc::new(Server {
            config,
            store,
            sessions: Mutex::new(Sessions {
                live: HashMap::new(),
                evicted: EngineStats::default(),
            }),
            session_clock: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            listeners: Mutex::new(Vec::new()),
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            connections: AtomicU64::new(0),
            active: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            timed_out: AtomicU64::new(0),
            oversized: AtomicU64::new(0),
            sessions_evicted: AtomicU64::new(0),
            worker_panics: AtomicU64::new(0),
        })
    }

    /// True once a `shutdown` request has been accepted; listeners drain
    /// and stop accepting.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Requests shutdown from the host process (equivalent to the wire
    /// `shutdown` op): sets the latch, then wakes each accept loop by
    /// shutting down its listening socket. The latch is set under the lock
    /// that listeners register under, so a listener either is woken here
    /// or sees the latch before its first accept.
    pub fn request_shutdown(&self) {
        let listeners = lock(&self.listeners);
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        for wake in listeners.iter().filter_map(Weak::upgrade) {
            // An error leaves nothing to wake: the socket is already down.
            let _ = match &*wake {
                Wake::Tcp(socket) => socket.shutdown(Shutdown::Read),
                Wake::Unix(socket) => socket.shutdown(Shutdown::Read),
            };
        }
    }

    /// Snapshot of the server's own counters.
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            sessions: lock(&self.sessions).live.len() as u64,
            connections: self.connections.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            timed_out_connections: self.timed_out.load(Ordering::Relaxed),
            oversized_lines: self.oversized.load(Ordering::Relaxed),
            sessions_evicted: self.sessions_evicted.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
        }
    }

    /// The session for a cache model, created on first use. Sessions
    /// share the server's store and thread setting; the map is LRU-capped
    /// at [`ServerConfig::max_sessions`], so a cold model evicts the
    /// least-recently-used one. In-flight requests keep their own handle
    /// to an evicted session — eviction only forgets memo state for
    /// *future* requests, it never breaks a running one. An evicted
    /// session's counters are kept for the `stats` op, as read at
    /// eviction. Two requests that share a geometry but differ in policy,
    /// write semantics, or L2 get distinct sessions — their artifacts are
    /// keyed differently too.
    fn session(&self, request: &AnalyzeRequest) -> Result<Arc<Analyzer>, Error> {
        let key = request.cache_model()?;
        let stamp = self.session_clock.fetch_add(1, Ordering::Relaxed);
        let mut sessions = lock(&self.sessions);
        if let Some(slot) = sessions.live.get_mut(&key) {
            slot.last_used = stamp;
            return Ok(Arc::clone(&slot.analyzer));
        }
        let cap = self.config.max_sessions;
        if cap > 0 && sessions.live.len() >= cap {
            if let Some(lru) = sessions
                .live
                .iter()
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| *k)
            {
                let slot = sessions.live.remove(&lru).expect("the LRU key is live");
                sessions.evicted += &slot.analyzer.stats();
                self.sessions_evicted.fetch_add(1, Ordering::Relaxed);
            }
        }
        let mut analyzer = Analyzer::with_model(key).threads(self.config.threads);
        if let Some(store) = &self.store {
            analyzer = analyzer.store(Arc::clone(store));
        }
        let session = Arc::new(analyzer);
        sessions.live.insert(
            key,
            SessionSlot {
                analyzer: Arc::clone(&session),
                last_used: stamp,
            },
        );
        Ok(session)
    }

    /// Admission control: clamps the request's wall-clock budget to the
    /// server ceiling (and imposes the ceiling on unbudgeted requests).
    fn admit(&self, mut request: AnalyzeRequest) -> AnalyzeRequest {
        if let Some(max) = self.config.max_budget_ms {
            request.budget_ms = Some(request.budget_ms.map_or(max, |ms| ms.min(max)));
        }
        request
    }

    /// Serves one protocol line and returns the single-line response.
    /// Never panics and never returns an embedded newline; malformed input
    /// yields a coded error response.
    pub fn handle_line(&self, line: &str) -> String {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let response = self.dispatch(line);
        debug_assert!(!response.contains('\n'));
        response
    }

    fn dispatch(&self, line: &str) -> String {
        let value = match json::parse(line) {
            Ok(v) => v,
            Err(e) => return self.error_line("", Error::from(e)),
        };
        let id = value
            .get("id")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string();
        match value.get("op").and_then(Json::as_str).unwrap_or("analyze") {
            "ping" => self.ok_line(&id, obj([("pong", Json::Bool(true))])),
            "stats" => self.ok_line(&id, self.stats_json()),
            "shutdown" => {
                self.request_shutdown();
                self.ok_line(&id, obj([("shutdown", Json::Bool(true))]))
            }
            "analyze" => match AnalyzeRequest::from_json(&value) {
                Ok(request) => self.analyze(&self.admit(request)).encode(),
                Err(e) => self.error_line(&id, e),
            },
            other => self.error_line(
                &id,
                Error::new(ErrorCode::BadRequest, format!("unknown op `{other}`")),
            ),
        }
    }

    fn analyze(&self, request: &AnalyzeRequest) -> AnalyzeResponse {
        let session = match self.session(request) {
            Ok(s) => s,
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                return AnalyzeResponse::err(&request.id, e);
            }
        };
        let response = session.serve(request);
        if response.result.is_err() {
            self.errors.fetch_add(1, Ordering::Relaxed);
        }
        response
    }

    fn ok_line(&self, id: &str, payload: Json) -> String {
        obj([("id", Json::Str(id.into())), ("ok", payload)]).encode()
    }

    fn error_line(&self, id: &str, error: Error) -> String {
        self.errors.fetch_add(1, Ordering::Relaxed);
        AnalyzeResponse::err(id, error).encode()
    }

    /// The one-line `overloaded` response a shed connection receives.
    fn shed_line(&self) -> String {
        self.error_line(
            "",
            Error::new(
                ErrorCode::Overloaded,
                format!(
                    "server at connection capacity ({}); retry with backoff",
                    self.config.max_connections
                ),
            ),
        )
    }

    /// The `stats` op payload: the server's, engine's and store's stats
    /// schemas, nested. The engine counters sum the live sessions and the
    /// evicted ones; session counters are atomics, so no read waits on an
    /// analysis.
    fn stats_json(&self) -> Json {
        let engine = {
            let sessions = lock(&self.sessions);
            let mut totals = sessions.evicted.clone();
            for slot in sessions.live.values() {
                totals += &slot.analyzer.stats();
            }
            totals
        };
        let store = self.store.as_ref().map_or(Json::Null, |store| {
            let (entries, bytes) = store.usage();
            extend(
                store.stats().to_json(),
                [
                    ("dir", Json::Str(store.dir().display().to_string())),
                    ("entries", Json::UInt(entries as u64)),
                    ("bytes", Json::UInt(bytes)),
                ],
            )
        });
        extend(
            self.stats().to_json(),
            [("engine", engine.to_json()), ("store", store)],
        )
    }

    /// Drives one connection: reads newline-framed requests under the
    /// configured deadlines, writes one response line per request, and
    /// returns when the peer closes, a limit trips, or shutdown is
    /// requested.
    ///
    /// Reads wake every 25 ms tick to re-check the shutdown latch, so
    /// a connection observes a drain within one tick even if its peer
    /// never sends another byte. A request already buffered when shutdown
    /// lands is still answered; a *partial* line is abandoned.
    ///
    /// # Errors
    ///
    /// Propagates socket I/O failures (the connection is simply dropped).
    pub fn handle_connection<S: Transport>(&self, mut stream: S) -> io::Result<()> {
        stream.set_read_timeout(Some(READ_TICK))?;
        let line_window = (self.config.idle_timeout_ms > 0)
            .then(|| Duration::from_millis(self.config.idle_timeout_ms));
        let max_line = self.config.max_line_bytes;
        let mut buf: Vec<u8> = Vec::new();
        let mut deadline = line_window.map(|w| Instant::now() + w);
        let mut chunk = [0u8; 4096];
        loop {
            // Serve every complete line already buffered.
            while let Some(nl) = buf.iter().position(|&b| b == b'\n') {
                let line_bytes: Vec<u8> = buf.drain(..=nl).collect();
                let line = String::from_utf8_lossy(&line_bytes[..nl]);
                let line = line.trim();
                // The next request's delivery window starts now.
                deadline = line_window.map(|w| Instant::now() + w);
                if line.is_empty() {
                    continue;
                }
                let response = self.handle_line(line);
                stream.write_all(response.as_bytes())?;
                stream.write_all(b"\n")?;
                stream.flush()?;
                if self.is_shutdown() {
                    return Ok(());
                }
            }
            if max_line > 0 && buf.len() > max_line {
                self.oversized.fetch_add(1, Ordering::Relaxed);
                let response = self.error_line(
                    "",
                    Error::new(
                        ErrorCode::BadRequest,
                        format!("request line exceeds {max_line} bytes"),
                    ),
                );
                self.write_best_effort(&mut stream, &response);
                return Ok(());
            }
            match stream.read(&mut chunk) {
                Ok(0) => return Ok(()),
                Ok(n) => buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.is_shutdown() {
                        return Ok(());
                    }
                    if deadline.is_some_and(|d| Instant::now() >= d) {
                        self.timed_out.fetch_add(1, Ordering::Relaxed);
                        return Ok(());
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes one response line with a short write deadline and swallows
    /// failures — used on paths where the peer is being disconnected and
    /// may not be reading.
    fn write_best_effort<S: Transport>(&self, stream: &mut S, line: &str) {
        let _ = stream.set_write_timeout(Some(BEST_EFFORT_WRITE));
        let _ = stream.write_all(line.as_bytes());
        let _ = stream.write_all(b"\n");
        let _ = stream.flush();
    }

    /// Sheds one connection at the pool bound: one `overloaded` line,
    /// best effort, then close.
    fn shed<S: Transport>(&self, mut stream: S) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
        let line = self.shed_line();
        self.write_best_effort(&mut stream, &line);
    }

    /// Accept loop over TCP: one detached thread per connection up to the
    /// pool bound (beyond it, shed). Blocks in `accept` and checks the
    /// shutdown latch after every accept; [`Server::request_shutdown`]
    /// wakes it by shutting down the listening socket. Returns
    /// once shutdown is requested and live connections have drained (or
    /// the drain deadline passed).
    ///
    /// # Errors
    ///
    /// Propagates listener failures; per-connection errors only drop that
    /// connection.
    pub fn serve_tcp(self: &Arc<Self>, listener: TcpListener) -> io::Result<()> {
        let wake = Wake::Tcp(TcpStream::from(OwnedFd::from(listener.try_clone()?)));
        self.accept_loop(wake, || listener.accept().map(|(stream, _)| stream))
    }

    /// Accept loop over a Unix socket; semantics as [`Server::serve_tcp`].
    ///
    /// # Errors
    ///
    /// Propagates listener failures.
    pub fn serve_unix(self: &Arc<Self>, listener: UnixListener) -> io::Result<()> {
        let wake = Wake::Unix(UnixStream::from(OwnedFd::from(listener.try_clone()?)));
        self.accept_loop(wake, || listener.accept().map(|(stream, _)| stream))
    }

    fn accept_loop<S, A>(self: &Arc<Self>, wake: Wake, mut accept: A) -> io::Result<()>
    where
        S: Transport + Send + 'static,
        A: FnMut() -> io::Result<S>,
    {
        // Registered under the lock `request_shutdown` sets the latch
        // under, and the latch is checked before the first accept. The
        // loop holds the one strong handle, so the duplicate socket closes
        // when the loop returns.
        let wake = Arc::new(wake);
        lock(&self.listeners).push(Arc::downgrade(&wake));
        while !self.is_shutdown() {
            let accepted = accept();
            if self.is_shutdown() {
                break; // woken by `request_shutdown`, or a peer that raced it
            }
            let stream = accepted?;
            let cap = self.config.max_connections;
            if cap > 0 && self.active.load(Ordering::Relaxed) >= cap as u64 {
                self.shed(stream);
                continue;
            }
            self.connections.fetch_add(1, Ordering::Relaxed);
            self.active.fetch_add(1, Ordering::Relaxed);
            let server = Arc::clone(self);
            thread::spawn(move || {
                let _guard = ActiveGuard(Arc::clone(&server));
                let _ = server.handle_connection(stream);
            });
        }
        // Drain: live connections observe the latch within one read tick;
        // wait for them inside the deadline and leave the rest detached
        // (they exit on their own moments later — the deadline bounds
        // *our* return, not their lifetime).
        let deadline = Instant::now() + Duration::from_millis(self.config.drain_ms);
        while self.active.load(Ordering::Relaxed) > 0 && Instant::now() < deadline {
            thread::sleep(READ_TICK);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_core::api::CacheSpec;
    use cme_core::StoreStats;
    use std::collections::BTreeSet;

    /// An analyze request for `cme_kernels::mmult(n)` on a 2-way cache
    /// of `size` bytes with 32 B lines.
    fn mmult_request(id: &str, n: i64, size: i64) -> AnalyzeRequest {
        let spec = CacheSpec::new(size, 2, 32, 4);
        AnalyzeRequest::from_nest(id, &cme_kernels::mmult(n), spec)
            .expect("origin-1 arrays render as program text")
    }

    #[test]
    fn admission_control_caps_every_budget() {
        let server = Server::new(ServerConfig {
            max_budget_ms: Some(40),
            ..ServerConfig::default()
        })
        .unwrap();
        // An unbudgeted request gets the ceiling; an over-budgeted one is
        // clamped; an under-budget one keeps its own deadline.
        let unbudgeted = server.admit(mmult_request("a", 4, 1024));
        assert_eq!(unbudgeted.budget_ms, Some(40));
        let mut over = mmult_request("b", 4, 1024);
        over.budget_ms = Some(10_000);
        assert_eq!(server.admit(over).budget_ms, Some(40));
        let mut under = mmult_request("c", 4, 1024);
        under.budget_ms = Some(7);
        assert_eq!(server.admit(under).budget_ms, Some(7));
    }

    #[test]
    fn session_map_is_lru_capped_and_counted() {
        let server = Server::new(ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        })
        .unwrap();
        // Three distinct geometries through a 2-session cap.
        for size in [1024i64, 2048, 4096] {
            let req = mmult_request(&format!("g{size}"), 4, size);
            let resp = AnalyzeResponse::decode(&server.handle_line(&req.encode())).unwrap();
            assert!(resp.result.is_ok());
        }
        let stats = server.stats();
        assert_eq!(stats.sessions, 2);
        assert_eq!(stats.sessions_evicted, 1);
        // The evicted geometry still answers — a fresh session replaces it.
        let req = mmult_request("again", 4, 1024);
        let resp = AnalyzeResponse::decode(&server.handle_line(&req.encode())).unwrap();
        assert!(resp.result.is_ok());
        // Two evictions later, the engine totals still count all four
        // analyses: counters sum, and the peak keeps the max.
        let alone = [1024i64, 2048, 4096, 1024].map(|size| {
            let request = mmult_request("alone", 4, size);
            let session = Analyzer::with_model(request.cache_model().unwrap()).threads(1);
            assert!(session.serve(&request).result.is_ok());
            session.stats()
        });
        let stats = json::parse(&server.handle_line(r#"{"op":"stats","id":"s"}"#)).unwrap();
        let engine = stats.get("ok").and_then(|ok| ok.get("engine")).unwrap();
        let count = |key| engine.get(key).and_then(Json::as_u64);
        assert_eq!(count("analyses"), Some(4));
        let scan_points = alone.iter().map(|s| s.scan_points).sum::<u64>();
        assert_eq!(count("scan_points"), Some(scan_points));
        let peak = alone.iter().map(|s| s.peak_survivors).max();
        assert_eq!(count("peak_survivors"), peak);
    }

    /// A struct's field names, read from the `Debug` form of its default.
    fn field_names(debug: &str) -> BTreeSet<String> {
        let (_, body) = debug.split_once('{').expect("a struct with named fields");
        body.split(',')
            .filter_map(|field| field.split_once(':'))
            .map(|(name, _)| name.trim().to_string())
            .collect()
    }

    fn keys(object: &Json) -> BTreeSet<String> {
        object
            .as_obj()
            .expect("an object")
            .keys()
            .cloned()
            .collect()
    }

    #[test]
    fn stats_op_reports_every_field() {
        let dir = std::env::temp_dir().join(format!("cme-serve-stats-{}", std::process::id()));
        let server = Server::new(ServerConfig {
            store_dir: Some(dir.clone()),
            ..ServerConfig::default()
        })
        .unwrap();
        let reply = json::parse(&server.handle_line(r#"{"op":"stats","id":"s"}"#)).unwrap();
        let ok = reply.get("ok").unwrap();
        let mut top = field_names(&format!("{:?}", ServerStats::default()));
        top.extend(["engine", "store"].map(String::from));
        assert_eq!(keys(ok), top);
        let engine = field_names(&format!("{:?}", EngineStats::default()));
        assert_eq!(engine.len(), 39);
        assert_eq!(keys(ok.get("engine").unwrap()), engine);
        let mut store = field_names(&format!("{:?}", StoreStats::default()));
        store.extend(["dir", "entries", "bytes"].map(String::from));
        assert_eq!(keys(ok.get("store").unwrap()), store);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stats_never_waits_on_an_analysis() {
        let server = Server::new(ServerConfig::default()).unwrap();
        // Unbudgeted, this analysis takes over 6 s on one release-build
        // thread, so its 2 s budget always cuts it.
        let mut request = mmult_request("big", 384, 1024);
        request.budget_ms = Some(2000);
        let srv = Arc::clone(&server);
        let analysis = thread::spawn(move || srv.handle_line(&request.encode()));
        while server.stats().requests < 1 {
            thread::sleep(Duration::from_millis(1));
        }
        thread::sleep(Duration::from_millis(100));
        let started = Instant::now();
        let stats = server.handle_line(r#"{"op":"stats","id":"s"}"#);
        let waited = started.elapsed();
        assert!(!analysis.is_finished(), "the analysis ended first");
        assert!(
            waited < Duration::from_millis(500),
            "stats waited {waited:?}"
        );
        assert!(stats.contains(r#""ok":{"#), "{stats}");
        let response = AnalyzeResponse::decode(&analysis.join().unwrap()).unwrap();
        assert!(
            !response.result.unwrap().outcome.complete,
            "a degraded success"
        );
    }
}
