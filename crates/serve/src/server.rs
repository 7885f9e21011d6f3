//! The TCP front end: accept loop, bounded worker pool, graceful shutdown.
//!
//! Connections are accepted on one thread and handed to a fixed pool of
//! worker threads over a bounded queue (thread-per-connection semantics
//! with a hard concurrency cap — the paper-era simplicity of blocking
//! `std::net`, no async runtime). Each connection speaks the
//! line-delimited JSON protocol of [`crate::protocol`].
//!
//! Shutdown is cooperative: a [`ShutdownHandle`] (or the `shutdown`
//! command) raises a flag and pokes the acceptor awake with a self-
//! connect; workers notice via short read timeouts, finish the request
//! they are executing — in-flight queries drain, nothing is aborted —
//! send its response, and exit. `run` then joins every thread.
//!
//! Under failure the server degrades instead of falling over:
//!
//! * **Admission control** — the pending-connection queue is bounded;
//!   when it is full, or when [`ServerConfig::max_connections`] sockets
//!   are already open, the new connection gets one explicit
//!   `overloaded` / `connection limit` error line (marked
//!   `"retryable":true`) and is closed, rather than queueing without
//!   bound.
//! * **Deadlines** — every request carries a server-side deadline
//!   ([`ServerConfig::request_deadline`]); work that misses it answers
//!   with a retryable `deadline exceeded` error, and batch queries stop
//!   between items when the budget runs out.
//! * **Durability** — with [`Server::with_durable_store`], `ingest`
//!   requests are acknowledged only after the write-ahead log's sync
//!   barrier (see `bmb_basket::wal`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bmb_basket::wal::DurableStore;
use bmb_basket::{ItemId, Itemset};
use bmb_core::{EngineError, MinerConfig, QueryEngine, SupportSpec};
use bmb_obs::{Registry, RegistrySnapshot, Severity, SpanRecord, TraceId};

use crate::json::Value;
use crate::metrics::{ErrorCategory, ServerMetrics};
use crate::protocol::{
    border_value, chi2_entry_value, chi2_value, error_response, fenced_error_response,
    interest_value, ok_response, pair_value, parse_request, retryable_error_response, write_line,
    Request, HELLO, RETAINED_LINE_BYTES,
};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Worker threads (each owns one connection at a time).
    pub workers: usize,
    /// Accepted connections that may wait for a free worker; one more
    /// is rejected with an `overloaded` error instead of queueing.
    pub backlog: usize,
    /// Open connections allowed at once (queued + being served); over
    /// the limit, connects get a clean `connection limit` error line.
    pub max_connections: usize,
    /// How often blocked reads wake up to check the shutdown flag.
    pub poll_interval: Duration,
    /// A connection sending a longer line than this is dropped.
    pub max_line_bytes: usize,
    /// Per-request processing deadline; work that misses it answers
    /// with a retryable `deadline exceeded` error.
    pub request_deadline: Duration,
    /// Requests slower than this are counted and logged to the event
    /// log at `Warn` with their command and trace id.
    pub slow_request_threshold: Duration,
    /// Optional bind address for a plain-HTTP `/metrics` listener
    /// serving the Prometheus text exposition (`None` disables it; use
    /// port 0 for an ephemeral port).
    pub metrics_addr: Option<String>,
    /// This node's role label stamped into completed span records
    /// (`"server"`, `"coordinator"`, `"shard"`, `"follower"`), so a
    /// reconstructed trace tree names which process ran each span.
    pub node_role: String,
    /// Shard index stamped into span records when this process serves
    /// one shard of a cluster (`None` for standalone/coordinator).
    pub shard_index: Option<i64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            backlog: 64,
            max_connections: 256,
            poll_interval: Duration::from_millis(50),
            max_line_bytes: 16 << 20,
            request_deadline: Duration::from_secs(10),
            slow_request_threshold: Duration::from_secs(1),
            metrics_addr: None,
            node_role: "server".to_string(),
            shard_index: None,
        }
    }
}

/// Remote control for a running server: raise the shutdown flag and wake
/// the acceptor. Cloneable and sendable across threads.
#[derive(Clone, Debug)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
}

impl ShutdownHandle {
    /// Requests shutdown; idempotent. Returns once the flag is raised
    /// (not once the server has exited — join the server thread for that).
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        // Wake the acceptors out of their blocking accepts.
        let _ = TcpStream::connect(self.addr);
        if let Some(addr) = self.metrics_addr {
            let _ = TcpStream::connect(addr);
        }
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

/// A bound server, ready to [`Server::run`].
pub struct Server {
    service: Arc<dyn Service>,
    /// Present only for engine-backed servers bound via [`Server::bind`];
    /// lets [`Server::with_durable_store`] rebuild the service.
    engine: Option<Arc<QueryEngine>>,
    metrics: Arc<ServerMetrics>,
    config: ServerConfig,
    listener: TcpListener,
    local_addr: SocketAddr,
    metrics_listener: Option<TcpListener>,
    metrics_local_addr: Option<SocketAddr>,
    flag: Arc<AtomicBool>,
    /// Per-server trace-id sequence: deterministic for a given request
    /// order, so golden fixtures (and the durability byte-identity
    /// test) stay reproducible across runs and restarts.
    trace_seq: Arc<AtomicU64>,
}

impl Server {
    /// Binds the listening socket (resolving port 0 to a real port),
    /// and the `/metrics` HTTP socket when configured. Requests are
    /// served by an [`EngineService`] over `engine`.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(engine: Arc<QueryEngine>, config: ServerConfig) -> io::Result<Server> {
        let service: Arc<dyn Service> = Arc::new(EngineService::new(Arc::clone(&engine)));
        let mut server = Server::bind_service(service, config)?;
        server.engine = Some(engine);
        Ok(server)
    }

    /// Like [`Server::bind`] but serving an arbitrary [`Service`] —
    /// the hook the cluster roles (coordinator, follower) plug into.
    /// The wire protocol, worker pool, deadlines, and admission control
    /// are identical; only request dispatch differs.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind_service(service: Arc<dyn Service>, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics_listener = match &config.metrics_addr {
            Some(addr) => Some(TcpListener::bind(addr)?),
            None => None,
        };
        let metrics_local_addr = match &metrics_listener {
            Some(l) => Some(l.local_addr()?),
            None => None,
        };
        Ok(Server {
            service,
            engine: None,
            metrics: Arc::new(ServerMetrics::new()),
            config,
            listener,
            local_addr,
            metrics_listener,
            metrics_local_addr,
            flag: Arc::new(AtomicBool::new(false)),
            trace_seq: Arc::new(AtomicU64::new(1)),
        })
    }

    /// Routes `ingest` requests through `durable` (the WAL-backed store
    /// wrapping the engine's `IncrementalStore`): appends are
    /// acknowledged only after the log's sync barrier. Only meaningful
    /// for engine-backed servers bound via [`Server::bind`]; a custom
    /// [`Service`] owns its own durability wiring.
    pub fn with_durable_store(mut self, durable: Arc<DurableStore>) -> Server {
        if let Some(engine) = &self.engine {
            self.service = Arc::new(EngineService::new(Arc::clone(engine)).with_durable(durable));
        }
        self
    }

    /// The bound address (with the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound `/metrics` HTTP address, when configured.
    pub fn metrics_local_addr(&self) -> Option<SocketAddr> {
        self.metrics_local_addr
    }

    /// The server's metrics (shared; live while the server runs).
    pub fn metrics(&self) -> Arc<ServerMetrics> {
        Arc::clone(&self.metrics)
    }

    /// A handle that can stop this server from any thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.flag),
            addr: self.local_addr,
            metrics_addr: self.metrics_local_addr,
        }
    }

    /// Serves until shutdown is requested, then drains and returns.
    ///
    /// Blocks the calling thread; spawn it on a `std::thread` (as
    /// [`Server::spawn`] does) to serve in the background.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop I/O failures other than per-connection ones
    /// (a failing connection is dropped, not fatal).
    pub fn run(self) -> io::Result<()> {
        let shutdown = self.shutdown_handle();
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(self.config.backlog.max(1));
        let rx = Mutex::new(rx);
        let workers = self.config.workers.max(1);
        let max_connections = self.config.max_connections.max(1) as u64;
        let worker_panicked = std::thread::scope(|scope| {
            let mut handles = Vec::with_capacity(workers + 1);
            for _ in 0..workers {
                let ctx = ConnectionContext {
                    service: self.service.as_ref(),
                    metrics: &self.metrics,
                    shutdown: shutdown.clone(),
                    config: &self.config,
                    trace_seq: &self.trace_seq,
                };
                let rx = &rx;
                handles.push(scope.spawn(move || worker_loop(rx, ctx)));
            }
            if let Some(listener) = &self.metrics_listener {
                let shutdown = shutdown.clone();
                let service = self.service.as_ref();
                let metrics = &self.metrics;
                handles.push(scope.spawn(move || {
                    metrics_http_loop(listener, shutdown, || service.render_metrics(metrics))
                }));
            }
            // Acceptor: hand connections to the pool until shutdown.
            // Admission control happens here — a connection the pool
            // cannot take gets one explicit error line, never an
            // unbounded queue slot.
            loop {
                if shutdown.is_shutdown() {
                    break;
                }
                match self.listener.accept() {
                    Ok(stream_pair) => {
                        let stream = stream_pair.0;
                        if shutdown.is_shutdown() {
                            break; // The wake-up self-connect lands here.
                        }
                        if self.metrics.active_connections() >= max_connections {
                            self.metrics.record_rejected_connection();
                            reject_connection(
                                stream,
                                &format!("server at connection limit ({max_connections} open)"),
                            );
                            continue;
                        }
                        match tx.try_send(stream) {
                            // Counted only once the pool has the stream,
                            // so `connections` is exactly the admitted
                            // count (rejections are tallied separately).
                            Ok(()) => self.metrics.record_connection(),
                            Err(mpsc::TrySendError::Full(stream)) => {
                                self.metrics.record_rejected_connection();
                                reject_connection(stream, "server overloaded: pending queue full");
                            }
                            Err(mpsc::TrySendError::Disconnected(_)) => break,
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        if shutdown.is_shutdown() {
                            break;
                        }
                    }
                }
            }
            drop(tx); // Workers drain queued connections, then exit.
                      // Joining every handle here keeps a worker's panic from
                      // re-raising out of the scope; it becomes this run's error.
            let mut panicked = false;
            for handle in handles {
                panicked |= handle.join().is_err();
            }
            panicked
        });
        if worker_panicked {
            return Err(io::Error::other("a server worker panicked"));
        }
        Ok(())
    }

    /// Runs the server on a background thread; returns a handle carrying
    /// the address, shutdown control, and the join handle.
    pub fn spawn(self) -> RunningServer {
        let addr = self.local_addr;
        let metrics_addr = self.metrics_local_addr;
        let shutdown = self.shutdown_handle();
        let metrics = self.metrics();
        let thread = std::thread::spawn(move || self.run());
        RunningServer {
            addr,
            metrics_addr,
            shutdown,
            metrics,
            thread,
        }
    }
}

/// A server running on a background thread.
pub struct RunningServer {
    /// The bound address.
    pub addr: SocketAddr,
    /// The bound `/metrics` HTTP address, when configured.
    pub metrics_addr: Option<SocketAddr>,
    /// Shutdown control.
    pub shutdown: ShutdownHandle,
    /// Live metrics.
    pub metrics: Arc<ServerMetrics>,
    thread: std::thread::JoinHandle<io::Result<()>>,
}

impl RunningServer {
    /// Requests shutdown and waits for the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Surfaces the run loop's I/O error, or a generic error if the
    /// server thread panicked.
    pub fn stop(self) -> io::Result<()> {
        self.shutdown.shutdown();
        match self.thread.join() {
            Ok(result) => result,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

/// Writes one retryable error line to a connection being shed, then
/// drops it. Best-effort: the client may already be gone.
fn reject_connection(mut stream: TcpStream, message: &str) {
    let mut line = String::new();
    retryable_error_response(None, message).write_json(&mut line);
    let _ = stream.set_nodelay(true);
    let _ = write_line(&mut stream, &mut line);
}

/// Everything a worker needs to speak to one client.
struct ConnectionContext<'a> {
    service: &'a dyn Service,
    metrics: &'a Arc<ServerMetrics>,
    shutdown: ShutdownHandle,
    config: &'a ServerConfig,
    trace_seq: &'a Arc<AtomicU64>,
}

/// The Prometheus text exposition over every registry a server can see:
/// its own request metrics, the service's registries (engine caches,
/// WAL, replication), and the process-global registry (miner stages).
pub fn exposition(metrics: &ServerMetrics, registries: &[Arc<Registry>]) -> String {
    let mut snaps: Vec<RegistrySnapshot> = vec![metrics.registry().snapshot()];
    snaps.extend(registries.iter().map(|r| r.snapshot()));
    snaps.push(bmb_obs::global().snapshot());
    let refs: Vec<&RegistrySnapshot> = snaps.iter().collect();
    bmb_obs::expose::render(&refs)
}

/// The `events` command's payload: the process event timeline, served
/// from the persisted ledger when one is attached to the global event
/// log (surviving restarts — the failover post-mortem case), from the
/// in-memory ring otherwise. `since_us` drops events older than the
/// given Unix-microsecond floor.
pub fn events_value(since_us: Option<u64>) -> Value {
    let log = bmb_obs::events();
    let floor = since_us.unwrap_or(0);
    let mut events: Vec<Value> = Vec::new();
    let source = if let Some(ledger) = log.ledger() {
        for line in ledger.read_lines() {
            let keep = bmb_obs::ledger::line_ts_us(&line).map_or(floor == 0, |ts| ts >= floor);
            if keep {
                if let Ok(value) = crate::json::parse(&line) {
                    events.push(value);
                }
            }
        }
        "ledger"
    } else {
        for event in log.recent() {
            if event.unix_micros >= floor {
                if let Ok(value) = crate::json::parse(&event.to_json_line()) {
                    events.push(value);
                }
            }
        }
        "ring"
    };
    Value::object()
        .with("source", Value::Str(source.to_string()))
        .with("count", Value::Int(events.len() as i64))
        .with("events", Value::Array(events))
}

/// The `stats` response's `slow_exemplars` array: the worst recent
/// over-threshold requests with the trace ids to pull their trees.
pub fn slow_exemplars_value(metrics: &ServerMetrics) -> Value {
    Value::Array(
        metrics
            .slow_exemplars()
            .iter()
            .map(|e| {
                Value::object()
                    .with("cmd", Value::Str(e.cmd.clone()))
                    .with("elapsed_us", Value::Int(e.elapsed_us as i64))
                    .with("trace", Value::Str(TraceId::from_u64(e.trace).to_string()))
            })
            .collect(),
    )
}

/// Serves `/metrics` over bare HTTP/1.1 until shutdown: read (and
/// discard) the request head, answer one text exposition, close. The
/// shutdown self-connect wakes the blocking accept.
fn metrics_http_loop(
    listener: &TcpListener,
    shutdown: ShutdownHandle,
    render: impl Fn() -> String,
) {
    loop {
        if shutdown.is_shutdown() {
            return;
        }
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => continue,
        };
        if shutdown.is_shutdown() {
            return; // The wake-up self-connect lands here.
        }
        // Drain the request head up to its blank line, within 500 ms (best
        // effort). The head may arrive in several segments, and closing
        // with any of it unread resets the connection, which can discard
        // the reply before the client reads it.
        let deadline = Instant::now() + Duration::from_millis(500);
        let mut head = [0u8; 4096];
        let mut filled = 0;
        while filled < head.len() && !head[..filled].windows(4).any(|w| w == b"\r\n\r\n") {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                break;
            }
            match stream.read(&mut head[filled..]) {
                Ok(0) | Err(_) => break,
                Ok(n) => filled += n,
            }
        }
        let body = render();
        let response = format!(
            "HTTP/1.1 200 OK\r\nContent-Type: text/plain; version=0.0.4; \
             charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        );
        let _ = stream.write_all(response.as_bytes());
    }
}

/// Pulls connections off the queue until the acceptor hangs up.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: ConnectionContext<'_>) {
    loop {
        // Hold the receiver lock across recv: idle workers queue on the
        // mutex, which is equivalent to queueing on the channel.
        // lock:allow(io)
        let stream = match lock(rx).recv() {
            Ok(stream) => stream,
            Err(_) => return,
        };
        if handle_connection(stream, &ctx).is_err() {
            ctx.metrics.record_error(ErrorCategory::Io);
        }
        ctx.metrics.record_disconnection();
    }
}

/// Speaks the protocol over one connection until EOF, error, overlong
/// line, or shutdown.
///
/// The connection keeps one request buffer and one response buffer for
/// its whole life: complete lines are answered where they lie in the
/// request buffer, each reply is serialized into the response buffer and
/// leaves through [`write_line`], and both buffers keep at most
/// [`RETAINED_LINE_BYTES`] of capacity between lines.
fn handle_connection(mut stream: TcpStream, ctx: &ConnectionContext<'_>) -> io::Result<()> {
    // Responses are single small writes; Nagle + delayed ACK would add
    // ~40ms to every request on loopback.
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(ctx.config.poll_interval))?;
    let mut response = String::from(HELLO);
    write_line(&mut stream, &mut response)?;
    let mut request: Vec<u8> = Vec::new();
    // `request[..scanned]` holds no `\n`: each byte is searched once.
    let mut scanned = 0;
    let mut chunk = [0u8; 4096];
    loop {
        // Answer every complete line already buffered, then drop them all
        // at once.
        let mut consumed = 0;
        while let Some(newline) = request[scanned..].iter().position(|&b| b == b'\n') {
            let end = scanned + newline;
            let line = String::from_utf8_lossy(&request[consumed..end]);
            scanned = end + 1;
            consumed = scanned;
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let (reply, stop) = handle_line(trimmed, ctx);
            reply.write_json(&mut response);
            write_line(&mut stream, &mut response)?;
            if stop {
                ctx.shutdown.shutdown();
                return Ok(());
            }
        }
        if consumed > 0 {
            request.drain(..consumed);
            if request.len() <= RETAINED_LINE_BYTES {
                request.shrink_to(RETAINED_LINE_BYTES);
            }
        }
        // The last search found no `\n` in what is left.
        scanned = request.len();
        if ctx.shutdown.is_shutdown() {
            // Graceful: everything already read got its response above.
            return Ok(());
        }
        if request.len() > ctx.config.max_line_bytes {
            error_response(None, "request line too long").write_json(&mut response);
            write_line(&mut stream, &mut response)?;
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // client closed
            Ok(n) => request.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted =>
            {
                continue; // timeout tick: loop re-checks the shutdown flag
            }
            Err(e) => return Err(e),
        }
    }
}

/// A request failure: the wire message plus its metrics category.
///
/// `Overload` and `Deadline` categories are answered with
/// `"retryable":true`; everything else is a permanent error.
#[derive(Clone, Debug)]
pub struct ServiceFailure {
    /// The human-readable message sent on the wire.
    pub message: String,
    /// The metrics bucket this failure is tallied under.
    pub category: ErrorCategory,
}

impl ServiceFailure {
    /// A permanent failure in the catch-all `Other` category.
    pub fn other(message: impl Into<String>) -> ServiceFailure {
        ServiceFailure {
            message: message.into(),
            category: ErrorCategory::Other,
        }
    }

    /// An I/O failure (WAL, checkpoint, shard transport).
    pub fn io(message: impl Into<String>) -> ServiceFailure {
        ServiceFailure {
            message: message.into(),
            category: ErrorCategory::Io,
        }
    }

    /// A transient failure the client should retry (answered with
    /// `"retryable":true`): overload, or a temporarily missing backend.
    pub fn unavailable(message: impl Into<String>) -> ServiceFailure {
        ServiceFailure {
            message: message.into(),
            category: ErrorCategory::Overload,
        }
    }

    /// A deadline miss (answered with `"retryable":true`).
    pub fn deadline(deadline: Duration) -> ServiceFailure {
        ServiceFailure {
            message: format!("deadline exceeded ({deadline:?})"),
            category: ErrorCategory::Deadline,
        }
    }
}

/// A query the engine cannot answer: a permanent failure.
impl From<EngineError> for ServiceFailure {
    fn from(error: EngineError) -> ServiceFailure {
        ServiceFailure::other(error.to_string())
    }
}

/// Per-request context a [`Service`] dispatches under: the deadline
/// anchor and the server's tuning/metrics.
pub struct ServiceCtx<'a> {
    /// When the server started processing this request; anchors the
    /// request's deadline budget.
    pub start: Instant,
    /// The server's configuration (deadline, connection limits).
    pub config: &'a ServerConfig,
    /// The server's request metrics (served-epoch and ingest counters).
    pub metrics: &'a ServerMetrics,
    /// The generation the request was stamped with (`"gen"`), when the
    /// sender is generation-aware. `promote`/`demote` read it as the
    /// floor their node generation must be bumped past.
    pub generation: Option<u64>,
}

impl ServiceCtx<'_> {
    /// A deadline failure once this request has spent its budget.
    ///
    /// # Errors
    ///
    /// [`ServiceFailure::deadline`] past the deadline.
    pub fn check_deadline(&self) -> Result<(), ServiceFailure> {
        if self.start.elapsed() > self.config.request_deadline {
            return Err(ServiceFailure::deadline(self.config.request_deadline));
        }
        Ok(())
    }
}

/// The miner configuration of a `border` request, with its defaults.
///
/// # Errors
///
/// A `support` outside `[0,1]` or a `support_fraction` outside `(0.25,1]`.
pub fn border_config(
    support: Option<f64>,
    support_fraction: Option<f64>,
    max_level: Option<usize>,
) -> Result<MinerConfig, ServiceFailure> {
    let support = support.unwrap_or(0.01);
    if !(0.0..=1.0).contains(&support) {
        return Err(ServiceFailure::other(format!(
            "'support' must be in [0,1], got {support}"
        )));
    }
    let fraction = support_fraction.unwrap_or(0.3);
    if !(fraction > 0.25 && fraction <= 1.0) {
        return Err(ServiceFailure::other(format!(
            "'support_fraction' must be in (0.25,1], got {fraction}"
        )));
    }
    Ok(MinerConfig {
        support: SupportSpec::Fraction(support),
        support_fraction: fraction,
        max_level: max_level.unwrap_or(usize::MAX),
        ..MinerConfig::default()
    })
}

/// One `support_vec` entry as an itemset of an `n_items`-item space.
///
/// # Errors
///
/// The first item id outside the space.
pub fn support_vec_itemset(items: &[u32], n_items: usize) -> Result<Itemset, ServiceFailure> {
    if let Some(&bad) = items.iter().find(|&&id| id as usize >= n_items) {
        return Err(ServiceFailure::other(format!(
            "item id {bad} out of range (store has {n_items} items)"
        )));
    }
    Ok(Itemset::from_ids(items.iter().copied()))
}

/// Request dispatch behind the TCP front end. The server owns sockets,
/// workers, deadlines, and admission control; the service decides what
/// each decoded [`Request`] means. [`EngineService`] is the standalone
/// single-store implementation; the cluster crate provides coordinator
/// and follower services over the same wire protocol.
pub trait Service: Send + Sync {
    /// Executes one decoded request.
    ///
    /// # Errors
    ///
    /// Returns the wire error message plus its metrics category;
    /// `Overload`/`Deadline` categories are marked retryable.
    fn dispatch(&self, request: Request, ctx: &ServiceCtx<'_>) -> Result<Value, ServiceFailure>;

    /// The observability registries this service exposes over
    /// `/metrics`, in exposition order.
    fn registries(&self) -> Vec<Arc<Registry>>;

    /// The node's fencing generation, when this service participates in
    /// generation-fenced failover. `Some(gen)` makes the server reject
    /// requests stamped below `gen` (except `promote`/`demote`) and
    /// stamp `"gen"` into every success payload; the default `None`
    /// leaves the wire format untouched.
    fn generation(&self) -> Option<u64> {
        None
    }

    /// Renders the `/metrics` exposition body (also the `metrics` wire
    /// command's `"text"`). The default serves this node's own
    /// registries; the cluster coordinator overrides it to federate
    /// every node's exposition under `node=`/`shard=` labels.
    fn render_metrics(&self, metrics: &ServerMetrics) -> String {
        exposition(metrics, &self.registries())
    }
}

/// Whether a late success for this request should be converted into a
/// deadline error. Queries are safe to fail late (the client can retry
/// them); `ingest`, `promote`, `demote`, and `shutdown` already had
/// effects, so their answers must report what actually happened.
fn deadline_sensitive(request: &Request) -> bool {
    !matches!(
        request,
        Request::Ingest { .. }
            | Request::Shutdown
            | Request::Promote
            | Request::Demote { .. }
            | Request::Scrub { .. }
    )
}

/// Handles one request line; returns the response and whether the server
/// should shut down afterwards.
fn handle_line(line: &str, ctx: &ConnectionContext<'_>) -> (Value, bool) {
    let start = Instant::now();
    let start_unix_us = bmb_obs::unix_micros_now();
    let deadline = ctx.config.request_deadline;
    let parsed = parse_request(line);
    // A valid client-supplied (or coordinator-stamped) `"trace"` is
    // adopted; everything else — including parse errors — mints from
    // the per-server sequence, not the process-global one: a fresh
    // server always numbers its requests 1, 2, … so fixture bytes (and
    // the durability restart test) stay deterministic. Adoption does
    // not consume the sequence, so interleaved traced requests leave
    // golden numbering untouched.
    let (trace, parent_span) = match &parsed {
        Ok(envelope) if envelope.trace.is_some() => (
            envelope.trace.unwrap_or(TraceId::NONE),
            envelope.parent_span,
        ),
        _ => (
            TraceId::from_u64(ctx.trace_seq.fetch_add(1, Ordering::Relaxed)),
            0,
        ),
    };
    let span_id = bmb_obs::next_span_id();
    let prev_trace = bmb_obs::trace::set_current_trace(trace);
    let prev_span = bmb_obs::trace::set_current_span(span_id);
    let mut fenced_at: Option<u64> = None;
    let (id, cmd, outcome, stop) = match parsed {
        Err(message) => (
            None,
            "invalid",
            Err(ServiceFailure {
                message,
                category: ErrorCategory::Parse,
            }),
            false,
        ),
        Ok(envelope) => {
            let cmd = envelope.request.name();
            let stop = envelope.request == Request::Shutdown;
            let convert_late = deadline_sensitive(&envelope.request);
            // Generation fence: a request stamped below this node's own
            // generation comes from a sender with a stale view of the
            // cluster — refuse it before it can have effects. Promote
            // and demote are exempt: they carry the generation as the
            // floor to bump past, not as a claim of currency.
            let exempt = matches!(envelope.request, Request::Promote | Request::Demote { .. });
            let outcome = match (ctx.service.generation(), envelope.generation) {
                (Some(own), Some(stamped)) if stamped < own && !exempt => {
                    fenced_at = Some(own);
                    Err(ServiceFailure::other(format!(
                        "stale generation: request gen {stamped} is fenced below node gen {own}"
                    )))
                }
                _ => {
                    let service_ctx = ServiceCtx {
                        start,
                        config: ctx.config,
                        metrics: ctx.metrics.as_ref(),
                        generation: envelope.generation,
                    };
                    let mut outcome = ctx.service.dispatch(envelope.request, &service_ctx);
                    if convert_late && outcome.is_ok() && start.elapsed() > deadline {
                        outcome = Err(ServiceFailure::deadline(deadline));
                    }
                    outcome
                }
            };
            (envelope.id, cmd, outcome, stop)
        }
    };
    let (response, failed) = match outcome {
        Ok(payload) => {
            // Generation-aware nodes stamp their (post-dispatch, so a
            // promote reports the bumped value) generation into the
            // success payload; `with` is a no-op on non-object payloads.
            let payload = match ctx.service.generation() {
                Some(own) => payload.with("gen", Value::Int(own as i64)),
                None => payload,
            };
            (ok_response(id).with("result", payload), None)
        }
        Err(failure) => {
            let response = if let Some(own) = fenced_at {
                fenced_error_response(id, own, &failure.message)
            } else {
                match failure.category {
                    // Overload and deadline failures are transient:
                    // tell the client it may retry.
                    ErrorCategory::Overload | ErrorCategory::Deadline => {
                        retryable_error_response(id, &failure.message)
                    }
                    _ => error_response(id, &failure.message),
                }
            };
            (response, Some(failure.category))
        }
    };
    let elapsed = start.elapsed();
    let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
    let outcome_label = if fenced_at.is_some() {
        "fenced"
    } else {
        match failed {
            None => "ok",
            Some(ErrorCategory::Overload | ErrorCategory::Deadline) => "retryable",
            Some(_) => "error",
        }
    };
    ctx.metrics.spans().record(SpanRecord {
        name: format!("serve:{cmd}"),
        trace: trace.as_u64(),
        span: span_id,
        parent: parent_span,
        start_unix_us,
        duration_us: micros,
        node: ctx.config.node_role.clone(),
        shard: ctx.config.shard_index.unwrap_or(-1),
        outcome: outcome_label.to_string(),
    });
    if elapsed > ctx.config.slow_request_threshold {
        ctx.metrics.record_slow_request(cmd, micros, trace);
        bmb_obs::events().emit(
            Severity::Warn,
            "slow request",
            &[
                ("cmd", cmd),
                ("elapsed_us", &micros.to_string()),
                ("trace", &trace.to_string()),
            ],
        );
    }
    ctx.metrics.record_request(cmd, elapsed, failed);
    // Worker threads are pooled: restore the thread-locals so the next
    // request (or idle emit) does not inherit this trace context.
    bmb_obs::trace::set_current_span(prev_span);
    bmb_obs::trace::set_current_trace(prev_trace);
    (response.with("trace", Value::Str(trace.to_string())), stop)
}

/// The standalone single-store [`Service`]: every request runs against
/// one [`QueryEngine`] (optionally WAL-backed for durable ingest).
pub struct EngineService {
    engine: Arc<QueryEngine>,
    durable: Option<Arc<DurableStore>>,
    repair_peer: Option<String>,
}

impl EngineService {
    /// A service over `engine` with no durability (in-memory ingest).
    pub fn new(engine: Arc<QueryEngine>) -> EngineService {
        EngineService {
            engine,
            durable: None,
            repair_peer: None,
        }
    }

    /// Routes `ingest` through the WAL-backed store: appends are
    /// acknowledged only after the log's sync barrier.
    pub fn with_durable(mut self, durable: Arc<DurableStore>) -> EngineService {
        self.durable = Some(durable);
        self
    }

    /// A replica address the `scrub` command re-fetches damaged sealed
    /// segments from (a request's explicit `peer` field overrides it).
    pub fn with_repair_peer(mut self, addr: impl Into<String>) -> EngineService {
        self.repair_peer = Some(addr.into());
        self
    }

    /// The engine this service answers from.
    pub fn engine(&self) -> &Arc<QueryEngine> {
        &self.engine
    }

    /// The WAL-backed store, when durability is wired.
    pub fn durable(&self) -> Option<&Arc<DurableStore>> {
        self.durable.as_ref()
    }

    /// The configured repair peer, if any.
    pub fn repair_peer(&self) -> Option<&str> {
        self.repair_peer.as_deref()
    }
}

impl Service for EngineService {
    fn registries(&self) -> Vec<Arc<Registry>> {
        let mut registries = vec![Arc::clone(self.engine.observability())];
        if let Some(durable) = &self.durable {
            registries.push(Arc::clone(durable.observability()));
        }
        registries
    }

    fn dispatch(&self, request: Request, ctx: &ServiceCtx<'_>) -> Result<Value, ServiceFailure> {
        dispatch_engine(
            &self.engine,
            self.durable.as_ref(),
            self.repair_peer.as_deref(),
            request,
            ctx,
        )
    }
}

/// Executes one decoded request against the engine. `ctx.start` anchors
/// the request's deadline budget.
fn dispatch_engine(
    engine: &Arc<QueryEngine>,
    durable: Option<&Arc<DurableStore>>,
    repair_peer: Option<&str>,
    request: Request,
    ctx: &ServiceCtx<'_>,
) -> Result<Value, ServiceFailure> {
    match request {
        Request::Ping => Ok(Value::object().with("pong", Value::Bool(true))),
        Request::Shutdown => Ok(Value::object().with("stopping", Value::Bool(true))),
        Request::Chi2 { items } => {
            let snap = engine.snapshot();
            ctx.metrics.record_served_epoch(snap.epoch());
            let answer = engine.chi2(&snap, &Itemset::from_ids(items))?;
            Ok(chi2_value(&answer))
        }
        Request::Chi2Batch { itemsets } => {
            // One snapshot for the whole batch: every answer shares an epoch.
            let snap = engine.snapshot();
            ctx.metrics.record_served_epoch(snap.epoch());
            let mut results: Vec<Value> = Vec::with_capacity(itemsets.len());
            for items in itemsets {
                // The batch stops (whole-request deadline error) rather
                // than overrunning its budget item by item.
                ctx.check_deadline()?;
                let entry = engine.chi2(&snap, &Itemset::from_ids(items));
                results.push(chi2_entry_value(&entry));
            }
            Ok(Value::object()
                .with("epoch", Value::Int(snap.epoch() as i64))
                .with("results", Value::Array(results)))
        }
        Request::Interest { items, cell } => {
            let snap = engine.snapshot();
            ctx.metrics.record_served_epoch(snap.epoch());
            let answer = engine.interest(&snap, &Itemset::from_ids(items), cell)?;
            Ok(interest_value(&answer))
        }
        Request::TopK { k } => {
            let snap = engine.snapshot();
            ctx.metrics.record_served_epoch(snap.epoch());
            let pairs = engine.topk_pairs_checked(&snap, k, || ctx.check_deadline())?;
            Ok(Value::object()
                .with("epoch", Value::Int(snap.epoch() as i64))
                .with(
                    "pairs",
                    Value::Array(pairs.iter().map(pair_value).collect()),
                ))
        }
        Request::Border {
            support,
            support_fraction,
            max_level,
        } => {
            let config = border_config(support, support_fraction, max_level)?;
            let snap = engine.snapshot();
            ctx.metrics.record_served_epoch(snap.epoch());
            let result = engine.border_checked(&snap, &config, || ctx.check_deadline())?;
            Ok(border_value(&result, snap.epoch()))
        }
        Request::Ingest { baskets } => {
            let n = baskets.len() as u64;
            let baskets = baskets
                .into_iter()
                .map(|b| b.into_iter().map(ItemId).collect::<Vec<_>>());
            // With a WAL attached the append is acknowledged only after
            // the log's sync barrier; a WAL failure is an Io-category
            // error and nothing is applied.
            let epoch = match durable {
                Some(durable) => durable.append_batch(baskets).map_err(|e| match e {
                    bmb_basket::wal::DurableError::Wal(io) => {
                        ServiceFailure::io(format!("append not durable: {io}"))
                    }
                    other => ServiceFailure::other(other.to_string()),
                })?,
                None => engine
                    .store()
                    .append_batch(baskets)
                    .map_err(|e| ServiceFailure::other(e.to_string()))?,
            };
            ctx.metrics.record_ingest(n);
            Ok(Value::object()
                .with("ingested", Value::Int(n as i64))
                .with("epoch", Value::Int(epoch as i64)))
        }
        Request::Checkpoint => {
            let Some(durable) = durable else {
                return Err(ServiceFailure::other(
                    "server has no durable store (started without --checkpoint-dir)".to_string(),
                ));
            };
            let stats = durable.checkpoint().map_err(|e| match e {
                bmb_basket::wal::CheckpointError::Io(io) => {
                    ServiceFailure::io(format!("checkpoint failed: {io}"))
                }
            })?;
            let micros = u64::try_from(stats.duration.as_micros()).unwrap_or(u64::MAX);
            Ok(Value::object()
                .with("epoch", Value::Int(stats.epoch as i64))
                .with("duration_us", Value::Int(micros as i64))
                .with("snapshot_bytes", Value::Int(stats.snapshot_bytes as i64))
                .with(
                    "wal_segments_deleted",
                    Value::Int(stats.wal_segments_deleted as i64),
                )
                .with("reclaimed_bytes", Value::Int(stats.reclaimed_bytes as i64)))
        }
        Request::Stats => {
            let metrics = ctx.metrics.snapshot();
            let cache = engine.cache_stats();
            let store_epoch = engine.store().epoch();
            let lag = store_epoch.saturating_sub(metrics.last_served_epoch);
            let wal = match durable {
                None => "none",
                Some(durable) if durable.is_healthy() => "healthy",
                Some(_) => "degraded",
            };
            let checkpointed = durable.is_some();
            let last_ckpt = durable.map(|d| d.last_checkpoint_epoch()).unwrap_or(0);
            Ok(Value::object()
                .with("requests", Value::Int(metrics.requests as i64))
                .with("errors", Value::Int(metrics.errors as i64))
                .with("connections", Value::Int(metrics.connections as i64))
                .with(
                    "active_connections",
                    Value::Int(metrics.active_connections as i64),
                )
                .with(
                    "rejected_connections",
                    Value::Int(metrics.rejected_connections as i64),
                )
                .with(
                    "max_connections",
                    Value::Int(ctx.config.max_connections.max(1) as i64),
                )
                .with("err_parse", Value::Int(metrics.parse_errors as i64))
                .with("err_overload", Value::Int(metrics.overload_errors as i64))
                .with("err_deadline", Value::Int(metrics.deadline_errors as i64))
                .with("err_io", Value::Int(metrics.io_errors as i64))
                .with("err_other", Value::Int(metrics.other_errors as i64))
                .with("wal", Value::Str(wal.to_string()))
                .with("checkpointed", Value::Bool(checkpointed))
                .with("last_checkpoint_epoch", Value::Int(last_ckpt as i64))
                .with(
                    "ingested_baskets",
                    Value::Int(metrics.ingested_baskets as i64),
                )
                .with("epoch", Value::Int(store_epoch as i64))
                .with("ingest_lag", Value::Int(lag as i64))
                .with("table_hits", Value::Int(cache.table_hits as i64))
                .with("table_misses", Value::Int(cache.table_misses as i64))
                // Retired with the per-segment support cache: always 0,
                // kept so the `/stats` key set does not change.
                .with("segment_hits", Value::Int(cache.segment_hits as i64))
                .with("segment_misses", Value::Int(cache.segment_misses as i64))
                .with("table_hit_rate", Value::float(cache.table_hit_rate()))
                .with("p50_us", Value::Int(metrics.p50_us as i64))
                .with("p99_us", Value::Int(metrics.p99_us as i64))
                .with("slow_requests", Value::Int(metrics.slow_requests as i64))
                .with("slow_exemplars", slow_exemplars_value(ctx.metrics))
                .with("error_rate", Value::float(metrics.error_rate())))
        }
        Request::Metrics => {
            let mut registries = vec![Arc::clone(engine.observability())];
            if let Some(durable) = durable {
                registries.push(Arc::clone(durable.observability()));
            }
            Ok(Value::object().with("text", Value::Str(exposition(ctx.metrics, &registries))))
        }
        Request::SupportVec { itemsets } => {
            // One snapshot for the whole vector: every support shares an
            // epoch — the invariant the coordinator's Möbius inversion
            // and epoch-vector consistency depend on.
            let snap = engine.snapshot();
            ctx.metrics.record_served_epoch(snap.epoch());
            let mut supports: Vec<Value> = Vec::with_capacity(itemsets.len());
            for items in &itemsets {
                ctx.check_deadline()?;
                let set = support_vec_itemset(items, snap.n_items())?;
                // The empty itemset's "support" is the basket count: the
                // full-lattice vector a contingency table needs.
                let support = if set.items().is_empty() {
                    snap.n_baskets() as u64
                } else {
                    snap.support(set.items())
                };
                supports.push(Value::Int(support as i64));
            }
            Ok(Value::object()
                .with("epoch", Value::Int(snap.epoch() as i64))
                .with("n", Value::Int(snap.n_baskets() as i64))
                .with("supports", Value::Array(supports)))
        }
        Request::PairSupports { n_items } => {
            // `support_vec`'s shape over one snapshot: the item counts,
            // then the pair triangle, so the coordinator merges both
            // answers through one path.
            let snap = engine.snapshot();
            ctx.metrics.record_served_epoch(snap.epoch());
            if n_items != snap.n_items() {
                return Err(ServiceFailure::other(format!(
                    "pair_supports for {n_items} items, but the item space has {} items",
                    snap.n_items()
                )));
            }
            let pairs = snap.pair_supports(|| ctx.check_deadline())?;
            let supports = (0..n_items)
                .map(|item| snap.item_count(ItemId(item as u32)))
                .chain(pairs)
                .map(|support| Value::Int(support as i64))
                .collect();
            Ok(Value::object()
                .with("epoch", Value::Int(snap.epoch() as i64))
                .with("n", Value::Int(snap.n_baskets() as i64))
                .with("supports", Value::Array(supports)))
        }
        Request::ReplicatePull {
            after_epoch,
            max_baskets,
        } => {
            let Some(durable) = durable else {
                return Err(ServiceFailure::other(
                    "server has no durable store (started without --checkpoint-dir)".to_string(),
                ));
            };
            // Bound the response size regardless of what the follower
            // asks for; it pulls again to keep catching up.
            let batch = durable.ship_after(after_epoch, max_baskets.min(65_536));
            let baskets: Vec<Value> = batch
                .baskets
                .iter()
                .map(|basket| {
                    Value::Array(
                        basket
                            .iter()
                            .map(|item| Value::Int(item.0 as i64))
                            .collect(),
                    )
                })
                .collect();
            Ok(Value::object()
                .with("from_epoch", Value::Int(batch.from_epoch as i64))
                .with("end_epoch", Value::Int(batch.end_epoch as i64))
                .with("shard_epoch", Value::Int(batch.shard_epoch as i64))
                .with("source", Value::Str(batch.source.to_string()))
                .with("baskets", Value::Array(baskets)))
        }
        Request::Integrity { from_epoch } => {
            // Anti-entropy digests: one crc per sealed segment over the
            // canonical basket bytes, so two replicas that applied the
            // same epochs answer bit-identically regardless of how their
            // WALs framed the records.
            let snap = engine.snapshot();
            let digests = bmb_basket::segment_digests(&snap, from_epoch);
            let segments: Vec<Value> = digests
                .iter()
                .map(|d| {
                    Value::object()
                        .with("segment", Value::Int(d.segment as i64))
                        .with("end_epoch", Value::Int(d.end_epoch as i64))
                        .with("crc", Value::Int(i64::from(d.crc)))
                })
                .collect();
            Ok(Value::object()
                .with("epoch", Value::Int(snap.epoch() as i64))
                .with("segments", Value::Array(segments)))
        }
        Request::Scrub { peer } => {
            let Some(durable) = durable else {
                return Err(ServiceFailure::other(
                    "server has no durable store (started without --checkpoint-dir)".to_string(),
                ));
            };
            // The request's peer overrides the configured repair peer so
            // a coordinator can point the scrub at whichever replica it
            // believes is healthy right now.
            let peer_addr = peer.or_else(|| repair_peer.map(str::to_string));
            let options = bmb_basket::ScrubOptions::default();
            let report = match peer_addr {
                Some(addr) => {
                    let mut wire = crate::scrubber::WirePeer::new(&addr);
                    durable.scrub_pass(Some(&mut wire), &options)
                }
                None => durable.scrub_pass(None, &options),
            };
            Ok(scrub_report_value(&report))
        }
        Request::Trace { trace } => Ok(crate::protocol::trace_value(
            trace,
            ctx.metrics.spans().for_trace(trace),
        )),
        Request::Events { since_us } => Ok(events_value(since_us)),
        Request::Promote => Err(ServiceFailure::other(
            "not a follower: 'promote' is only valid on follower processes".to_string(),
        )),
        Request::Demote { .. } => Err(ServiceFailure::other(
            "not a cluster node: 'demote' is only valid on generation-fenced shard processes"
                .to_string(),
        )),
    }
}

/// Encodes a [`bmb_basket::ScrubReport`] as the `scrub` command's
/// response payload (also reused by the coordinator's anti-entropy
/// rollups).
pub fn scrub_report_value(report: &bmb_basket::ScrubReport) -> Value {
    let findings: Vec<Value> = report
        .findings
        .iter()
        .map(|f| Value::Str(f.clone()))
        .collect();
    Value::object()
        .with("scrubbed", Value::Int(report.artifacts_scanned as i64))
        .with("bytes", Value::Int(report.bytes_scanned as i64))
        .with("corruptions", Value::Int(report.corruptions as i64))
        .with("repairs", Value::Int(report.repairs as i64))
        .with("quarantined", Value::Int(report.quarantines as i64))
        .with("degraded", Value::Bool(report.degraded))
        .with("complete", Value::Bool(report.complete))
        .with("findings", Value::Array(findings))
}

/// Acquires a mutex, recovering from poisoning (worker state is a plain
/// channel receiver; any state is valid).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
