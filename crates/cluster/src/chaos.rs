//! A deterministic TCP fault-injection proxy, in the spirit of
//! Toxiproxy but std-only and seeded.
//!
//! One [`ChaosProxy`] fronts one upstream: clients connect to the
//! proxy's listen address and their bytes are pumped to the upstream
//! and back, with faults injected according to a **seeded plan**. Every
//! accepted connection gets a [`crate::chaos::FaultPlan`] derived purely from
//! `(seed, connection index)` by a splitmix64 chain — the same seed
//! always yields the same fault sequence over the same accept order,
//! which is what makes a failing torture seed replayable.
//!
//! Planned faults (independent per-mille rolls per connection):
//!
//! * **refuse** — the connection is accepted and immediately closed;
//! * **drop** — the stream is cut after a planned byte offset
//!   (truncation: the peer sees a half-written line and a close);
//! * **stall** — forwarding stops after a planned offset but the
//!   sockets stay open (a half-open connection; only the peer's read
//!   timeout gets it unstuck);
//! * **corrupt** — one byte of the upstream→client stream at a planned
//!   offset is overwritten with `0xFF`, which can never form valid
//!   UTF-8, so the line protocol always *detects* the corruption
//!   instead of delivering a plausible-but-wrong answer;
//! * **delay** — a planned per-chunk latency;
//! * **throttle** — bandwidth capped at a planned bytes/second.
//!
//! On top of the per-connection plans, a **partition** can be toggled
//! at runtime — via [`ChaosHandle::partition`] in-process or the
//! control socket cross-process. While partitioned, new connections
//! are refused and established pumps are torn down on their next poll
//! tick: a full bidirectional partition of this upstream.
//!
//! The control socket speaks the same line-JSON envelope as the data
//! protocol (`{"id":…,"cmd":…}` → `{"id":…,"ok":true,"result":…}`,
//! banner `{"proto":"chaos/1","ok":true}`), so `bmb_serve::Client`
//! drives it directly. Commands: `partition`, `heal`, `status`,
//! `stop`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use bmb_serve::json::{self, Value};

/// How often blocked loops (accept, pump reads, stalls) re-check the
/// stop and partition flags.
const POLL: Duration = Duration::from_millis(10);

/// Fault rates and bounds. All rates are per-mille (0–1000) per
/// connection; a zeroed config is a faithful pass-through proxy.
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for the fault-plan stream. Same seed + same accept order =
    /// same faults.
    pub seed: u64,
    /// Per-mille of connections refused outright.
    pub refuse_per_mille: u16,
    /// Per-mille of connections cut after a planned byte offset.
    pub drop_per_mille: u16,
    /// Per-mille of connections stalled half-open after a planned
    /// offset.
    pub stall_per_mille: u16,
    /// Per-mille of connections with one upstream→client byte
    /// corrupted at a planned offset.
    pub corrupt_per_mille: u16,
    /// Per-mille of connections with added per-chunk latency.
    pub delay_per_mille: u16,
    /// Upper bound (exclusive) on the planned per-chunk latency, in
    /// microseconds.
    pub max_delay_us: u64,
    /// Per-mille of connections bandwidth-throttled.
    pub throttle_per_mille: u16,
    /// Throttle rate floor; the planned rate is in
    /// `[throttle_bytes_per_sec, 2 * throttle_bytes_per_sec)`.
    pub throttle_bytes_per_sec: u64,
}

impl ChaosConfig {
    /// A pass-through config (all fault rates zero) with `seed`.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            refuse_per_mille: 0,
            drop_per_mille: 0,
            stall_per_mille: 0,
            corrupt_per_mille: 0,
            delay_per_mille: 0,
            max_delay_us: 20_000,
            throttle_per_mille: 0,
            throttle_bytes_per_sec: 64 * 1024,
        }
    }
}

/// The faults planned for one connection, derived purely from
/// `(seed, connection index)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Close immediately after accept.
    pub refuse: bool,
    /// Cut the stream after this many forwarded bytes (per direction).
    pub drop_after: Option<u64>,
    /// Stop forwarding after this many bytes, keeping sockets open.
    pub stall_after: Option<u64>,
    /// Overwrite the upstream→client byte at this offset with `0xFF`.
    pub corrupt_at: Option<u64>,
    /// Added latency per forwarded chunk.
    pub delay: Duration,
    /// Bandwidth cap in bytes/second.
    pub throttle: Option<u64>,
}

impl FaultPlan {
    /// The plan for connection `index` under `config` — a pure
    /// function, so a failing seed replays exactly.
    pub fn derive(config: &ChaosConfig, index: u64) -> FaultPlan {
        let mut state = config
            .seed
            .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut roll = |per_mille: u16| splitmix64(&mut state) % 1000 < per_mille as u64;
        let refuse = roll(config.refuse_per_mille);
        let dropped = roll(config.drop_per_mille);
        let stalled = roll(config.stall_per_mille);
        let corrupted = roll(config.corrupt_per_mille);
        let delayed = roll(config.delay_per_mille);
        let throttled = roll(config.throttle_per_mille);
        // Draw the magnitudes unconditionally so toggling one rate
        // never shifts another fault's planned offsets.
        let drop_offset = 1 + splitmix64(&mut state) % 1024;
        let stall_offset = 1 + splitmix64(&mut state) % 512;
        let corrupt_offset = splitmix64(&mut state) % 256;
        let delay_us = splitmix64(&mut state) % config.max_delay_us.max(1);
        let throttle_rate = config.throttle_bytes_per_sec.max(1)
            + splitmix64(&mut state) % config.throttle_bytes_per_sec.max(1);
        FaultPlan {
            refuse,
            drop_after: dropped.then_some(drop_offset),
            stall_after: stalled.then_some(stall_offset),
            corrupt_at: corrupted.then_some(corrupt_offset),
            delay: if delayed {
                Duration::from_micros(delay_us)
            } else {
                Duration::ZERO
            },
            throttle: throttled.then_some(throttle_rate),
        }
    }
}

/// splitmix64: the statelessly seedable PRNG step used everywhere in
/// this workspace that determinism matters.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// State shared by the accept loops, pumps, and the handle.
struct Shared {
    config: ChaosConfig,
    partitioned: AtomicBool,
    stop: AtomicBool,
    upstream: Mutex<String>,
    /// Connections accepted so far; doubles as the next plan index.
    accepted: AtomicU64,
}

/// The running proxy's control surface. Dropping the handle stops the
/// proxy.
pub struct ChaosHandle {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    control_addr: SocketAddr,
    listeners: Vec<JoinHandle<()>>,
}

impl ChaosHandle {
    /// Where clients connect.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Where the control protocol listens.
    pub fn control_addr(&self) -> SocketAddr {
        self.control_addr
    }

    /// Starts a full bidirectional partition: new connections are
    /// refused and live pumps tear down within a poll tick.
    pub fn partition(&self) {
        // ordering: Release/Acquire pairs with the pump polls; a flag
        // flip needs no other state to travel with it.
        self.shared.partitioned.store(true, Ordering::Release);
    }

    /// Ends the partition; traffic flows on new connections.
    pub fn heal(&self) {
        // ordering: see partition().
        self.shared.partitioned.store(false, Ordering::Release);
    }

    /// Whether a partition is in force.
    pub fn is_partitioned(&self) -> bool {
        // ordering: see partition().
        self.shared.partitioned.load(Ordering::Acquire)
    }

    /// Re-points the proxy at a new upstream address (picked up by the
    /// next accepted connection) — the hook for a node that restarted
    /// on a different port.
    pub fn set_upstream(&self, addr: impl Into<String>) {
        *lock(&self.shared.upstream) = addr.into();
    }

    /// Whether the proxy has been told to stop (via [`Self::stop`] or
    /// the control protocol's `stop` command).
    pub fn is_stopped(&self) -> bool {
        // ordering: Acquire pairs with the stoppers' Release.
        self.shared.stop.load(Ordering::Acquire)
    }

    /// Connections accepted so far (= the next connection's plan index).
    pub fn accepted(&self) -> u64 {
        // ordering: Relaxed — a monotone counter read for reporting.
        self.shared.accepted.load(Ordering::Relaxed)
    }

    /// Stops the proxy: accept loops exit, pumps tear down on their
    /// next poll tick. Idempotent.
    pub fn stop(&mut self) {
        // ordering: Release pairs with the loops' Acquire polls.
        self.shared.stop.store(true, Ordering::Release);
        for handle in self.listeners.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for ChaosHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

/// The proxy constructor; see the module docs for the fault model.
pub struct ChaosProxy;

impl ChaosProxy {
    /// Binds `listen` (data) and `control` (control protocol; pass
    /// `None` for an ephemeral port) and starts proxying to
    /// `upstream`. Returns immediately; all work happens on background
    /// threads owned by the returned handle.
    pub fn spawn(
        listen: &str,
        upstream: &str,
        control: Option<&str>,
        config: ChaosConfig,
    ) -> std::io::Result<ChaosHandle> {
        let data = TcpListener::bind(listen)?;
        let ctrl = TcpListener::bind(control.unwrap_or("127.0.0.1:0"))?;
        let local_addr = data.local_addr()?;
        let control_addr = ctrl.local_addr()?;
        data.set_nonblocking(true)?;
        ctrl.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            config,
            partitioned: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            upstream: Mutex::new(upstream.to_string()),
            accepted: AtomicU64::new(0),
        });
        let data_shared = Arc::clone(&shared);
        let data_thread = std::thread::Builder::new()
            .name("chaos-accept".to_string())
            .spawn(move || run_data_listener(data, data_shared))?;
        let ctrl_shared = Arc::clone(&shared);
        let ctrl_thread = std::thread::Builder::new()
            .name("chaos-control".to_string())
            .spawn(move || run_control_listener(ctrl, ctrl_shared))?;
        Ok(ChaosHandle {
            shared,
            local_addr,
            control_addr,
            listeners: vec![data_thread, ctrl_thread],
        })
    }
}

/// Accepts data connections and spawns a pump pair per connection.
fn run_data_listener(listener: TcpListener, shared: Arc<Shared>) {
    // ordering: Acquire pairs with ChaosHandle::stop's Release.
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((client, _)) => {
                // ordering: Relaxed — the accept loop is the only
                // writer; the counter just numbers connections.
                let index = shared.accepted.fetch_add(1, Ordering::Relaxed);
                let plan = FaultPlan::derive(&shared.config, index);
                if plan.refuse || shared.partitioned.load(Ordering::Acquire) {
                    let _ = client.shutdown(Shutdown::Both);
                    continue;
                }
                let upstream_addr = {
                    let addr = lock(&shared.upstream);
                    addr.clone()
                };
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name(format!("chaos-conn-{index}"))
                    .spawn(move || connect_and_pump(client, &upstream_addr, plan, conn_shared));
                // Spawn failure = resource exhaustion; treat the
                // connection as refused.
                drop(spawned);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Dials the upstream and runs the two directional pumps; the
/// upstream→client direction (which carries responses) is the one that
/// applies planned corruption.
fn connect_and_pump(client: TcpStream, upstream_addr: &str, plan: FaultPlan, shared: Arc<Shared>) {
    let Ok(upstream) = TcpStream::connect(upstream_addr) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nonblocking(false);
    let _ = client.set_read_timeout(Some(POLL));
    let _ = upstream.set_read_timeout(Some(POLL));
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    let (Ok(client_rx), Ok(upstream_rx)) = (client.try_clone(), upstream.try_clone()) else {
        let _ = client.shutdown(Shutdown::Both);
        let _ = upstream.shutdown(Shutdown::Both);
        return;
    };
    let back_shared = Arc::clone(&shared);
    let back = std::thread::Builder::new()
        .name("chaos-pump-back".to_string())
        .spawn(move || pump(upstream_rx, client, plan, true, &back_shared));
    pump(client_rx, upstream, plan, false, &shared);
    if let Ok(handle) = back {
        let _ = handle.join();
    }
}

/// Forwards bytes `src` → `dst` under `plan` until EOF, error, stop,
/// partition, or a planned cut. `corrupting` marks the
/// upstream→client direction.
fn pump(
    mut src: TcpStream,
    mut dst: TcpStream,
    plan: FaultPlan,
    corrupting: bool,
    shared: &Shared,
) {
    let mut forwarded: u64 = 0;
    let mut buf = [0u8; 4096];
    loop {
        // ordering: Acquire pairs with the control-side Release stores.
        if shared.stop.load(Ordering::Acquire) || shared.partitioned.load(Ordering::Acquire) {
            break;
        }
        if plan.stall_after.is_some_and(|at| forwarded >= at) {
            // Half-open: forward nothing more, close nothing either.
            std::thread::sleep(POLL);
            continue;
        }
        match src.read(&mut buf) {
            Ok(0) => {
                // Clean EOF: propagate the half-close and keep the
                // other direction's pump alive.
                let _ = dst.shutdown(Shutdown::Write);
                return;
            }
            Ok(mut n) => {
                if !plan.delay.is_zero() {
                    std::thread::sleep(plan.delay);
                }
                if let Some(rate) = plan.throttle {
                    std::thread::sleep(Duration::from_secs_f64(n as f64 / rate.max(1) as f64));
                }
                let mut cut = false;
                if let Some(at) = plan.drop_after {
                    if forwarded + n as u64 > at {
                        n = at.saturating_sub(forwarded) as usize;
                        cut = true;
                    }
                }
                if corrupting {
                    if let Some(at) = plan.corrupt_at {
                        if at >= forwarded && at < forwarded + n as u64 {
                            if let Some(byte) = buf.get_mut((at - forwarded) as usize) {
                                *byte = 0xFF;
                            }
                        }
                    }
                }
                if n > 0 && dst.write_all(&buf[..n]).is_err() {
                    break;
                }
                forwarded += n as u64;
                if cut {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// Accepts control connections; each is served on its own thread.
fn run_control_listener(listener: TcpListener, shared: Arc<Shared>) {
    // ordering: Acquire pairs with ChaosHandle::stop's Release.
    while !shared.stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let conn_shared = Arc::clone(&shared);
                let spawned = std::thread::Builder::new()
                    .name("chaos-ctl-conn".to_string())
                    .spawn(move || serve_control(stream, &conn_shared));
                drop(spawned);
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// One control session: banner, then request/response lines until the
/// peer hangs up or `stop` is issued.
fn serve_control(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut writer = stream;
    if writeln!(
        writer,
        "{}",
        Value::object()
            .with("proto", Value::Str("chaos/1".to_string()))
            .with("ok", Value::Bool(true))
    )
    .is_err()
    {
        return;
    }
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    loop {
        // ordering: Acquire pairs with the stop command's Release.
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => return,
            Ok(_) => {
                let response = control_response(&line, shared);
                if writeln!(writer, "{response}").is_err() {
                    return;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => return,
        }
    }
}

/// Executes one control line and builds the response envelope.
fn control_response(line: &str, shared: &Shared) -> Value {
    let parsed = match json::parse(line.trim()) {
        Ok(value) => value,
        Err(e) => {
            return Value::object()
                .with("id", Value::Null)
                .with("ok", Value::Bool(false))
                .with("error", Value::Str(format!("malformed control line: {e}")))
        }
    };
    let id = parsed.get("id").cloned().unwrap_or(Value::Null);
    let cmd = parsed.get("cmd").and_then(Value::as_str).unwrap_or("");
    let result = match cmd {
        "partition" => {
            // ordering: Release pairs with the pump polls.
            shared.partitioned.store(true, Ordering::Release);
            Some(Value::object().with("partitioned", Value::Bool(true)))
        }
        "heal" => {
            // ordering: see "partition".
            shared.partitioned.store(false, Ordering::Release);
            Some(Value::object().with("partitioned", Value::Bool(false)))
        }
        "status" => Some(
            Value::object()
                .with(
                    "partitioned",
                    // ordering: see "partition".
                    Value::Bool(shared.partitioned.load(Ordering::Acquire)),
                )
                .with(
                    "accepted",
                    // ordering: Relaxed — reporting a monotone counter.
                    Value::Int(shared.accepted.load(Ordering::Relaxed) as i64),
                )
                .with("seed", Value::Int(shared.config.seed as i64))
                .with("upstream", Value::Str(lock(&shared.upstream).clone())),
        ),
        "stop" => {
            // ordering: Release pairs with every loop's Acquire poll.
            shared.stop.store(true, Ordering::Release);
            Some(Value::object().with("stopping", Value::Bool(true)))
        }
        other => {
            return Value::object()
                .with("id", id)
                .with("ok", Value::Bool(false))
                .with(
                    "error",
                    Value::Str(format!("unknown control command '{other}'")),
                )
        }
    };
    let mut response = Value::object().with("id", id).with("ok", Value::Bool(true));
    if let Some(result) = result {
        response = response.with("result", result);
    }
    response
}

/// Acquires a mutex, recovering from poisoning (an upstream address
/// string is valid in any state).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial upstream echoing each line back.
    fn echo_server() -> (SocketAddr, JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo addr");
        let thread = std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let mut writer = stream.try_clone().expect("clone echo");
                let reader = BufReader::new(stream);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if writeln!(writer, "{line}").is_err() {
                        break;
                    }
                }
            }
        });
        (addr, thread)
    }

    fn roundtrip(addr: SocketAddr, payload: &str) -> std::io::Result<String> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(2)))?;
        writeln!(stream, "{payload}")?;
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line)?;
        Ok(line.trim_end().to_string())
    }

    #[test]
    fn passthrough_and_partition_toggle() {
        let (upstream, _echo) = echo_server();
        let mut handle = ChaosProxy::spawn(
            "127.0.0.1:0",
            &upstream.to_string(),
            None,
            ChaosConfig::new(7),
        )
        .expect("spawn proxy");
        let addr = handle.local_addr();
        assert_eq!(roundtrip(addr, "hello").expect("clean pass"), "hello");
        handle.partition();
        assert!(handle.is_partitioned());
        // New connections are refused or torn down before answering:
        // either an error or a bare EOF, never the echoed payload.
        match roundtrip(addr, "lost") {
            Ok(line) => assert!(line.is_empty(), "partitioned proxy answered: {line}"),
            Err(_) => {}
        }
        handle.heal();
        assert_eq!(roundtrip(addr, "back").expect("healed pass"), "back");
        handle.stop();
    }

    #[test]
    fn control_socket_drives_partition() {
        let (upstream, _echo) = echo_server();
        let mut handle = ChaosProxy::spawn(
            "127.0.0.1:0",
            &upstream.to_string(),
            None,
            ChaosConfig::new(11),
        )
        .expect("spawn proxy");
        let mut ctl = TcpStream::connect(handle.control_addr()).expect("dial control");
        ctl.set_read_timeout(Some(Duration::from_secs(2)))
            .expect("timeout");
        let mut reader = BufReader::new(ctl.try_clone().expect("clone"));
        let mut line = String::new();
        reader.read_line(&mut line).expect("banner");
        assert!(line.contains("chaos/1"));
        for (cmd, marker) in [
            ("partition", "\"partitioned\":true"),
            ("status", "\"partitioned\":true"),
            ("heal", "\"partitioned\":false"),
        ] {
            writeln!(ctl, "{{\"id\":1,\"cmd\":\"{cmd}\"}}").expect("send");
            line.clear();
            reader.read_line(&mut line).expect("reply");
            assert!(line.contains(marker), "{cmd} reply: {line}");
        }
        assert!(!handle.is_partitioned());
        assert_eq!(
            roundtrip(handle.local_addr(), "ping").expect("healed"),
            "ping"
        );
        handle.stop();
    }

    #[test]
    fn fault_plans_are_deterministic_and_seed_sensitive() {
        let mut config = ChaosConfig::new(42);
        config.refuse_per_mille = 100;
        config.drop_per_mille = 200;
        config.stall_per_mille = 100;
        config.corrupt_per_mille = 150;
        config.delay_per_mille = 300;
        config.throttle_per_mille = 100;
        let a: Vec<FaultPlan> = (0..64).map(|i| FaultPlan::derive(&config, i)).collect();
        let b: Vec<FaultPlan> = (0..64).map(|i| FaultPlan::derive(&config, i)).collect();
        assert_eq!(a, b, "same seed must replay identical plans");
        let mut other = config.clone();
        other.seed = 43;
        let c: Vec<FaultPlan> = (0..64).map(|i| FaultPlan::derive(&other, i)).collect();
        assert_ne!(a, c, "different seeds must differ somewhere");
        // Some fault of each kind fires across the window.
        assert!(a.iter().any(|p| p.refuse));
        assert!(a.iter().any(|p| p.drop_after.is_some()));
        assert!(a.iter().any(|p| p.delay > Duration::ZERO));
    }

    #[test]
    fn planned_truncation_breaks_the_stream_detectably() {
        let (upstream, _echo) = echo_server();
        // Every connection is dropped after its planned offset.
        let mut config = ChaosConfig::new(3);
        config.drop_per_mille = 1000;
        let mut handle = ChaosProxy::spawn("127.0.0.1:0", &upstream.to_string(), None, config)
            .expect("spawn proxy");
        // A payload far longer than any planned offset (max 1024) can
        // never arrive whole: the roundtrip errors or truncates.
        let payload = "x".repeat(4096);
        match roundtrip(handle.local_addr(), &payload) {
            Ok(answer) => assert_ne!(answer, payload, "truncation must be visible"),
            Err(_) => {}
        }
        handle.stop();
    }
}
