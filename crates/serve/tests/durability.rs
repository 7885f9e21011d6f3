//! Fault-tolerance integration tests for the serving layer.
//!
//! * A server restarted against the same durability directory resumes
//!   at the recovered epoch and answers queries **byte-identically** to the
//!   pre-crash server (raw response lines compared, so every f64 bit
//!   pattern is pinned). The per-request `"trace"` field is stripped
//!   before comparing: a trace id names a request, not an answer, and
//!   the query occupies a different request slot after the restart.
//! * Admission control: over-limit connections get one clean retryable
//!   error line instead of hanging.
//! * Deadlines: a server whose deadline budget is zero answers queries
//!   with retryable `deadline exceeded` errors, while `ingest` (whose
//!   effect is already durable) still reports what happened.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bmb_basket::wal::{DurabilityConfig, DurableStore};
use bmb_basket::{FsDir, StoreConfig};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_serve::json::{parse, Value};
use bmb_serve::{Client, ClientError, RetryClient, RetryPolicy, Server, ServerConfig};

/// A unique scratch directory for this test process (no tempfile dep).
fn scratch_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    let pid = std::process::id();
    std::env::temp_dir().join(format!("bmb-serve-durability-{pid}-{n}-{tag}"))
}

/// Opens (or recovers) a WAL-backed server over the directory `path`.
fn wal_server(path: &Path, config: ServerConfig) -> (bmb_serve::server::RunningServer, u64) {
    let dir = FsDir::open(path).expect("open durability dir");
    let (durable, report) = DurableStore::open_dir(
        Box::new(dir),
        8,
        StoreConfig {
            segment_capacity: 3,
        },
        DurabilityConfig::default(),
    )
    .expect("open durable store");
    let durable = Arc::new(durable);
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(durable.store()),
        EngineConfig::default(),
    ));
    let server = Server::bind(engine, config)
        .expect("bind")
        .with_durable_store(durable);
    (server.spawn(), report.epoch)
}

/// Drops the positional `"trace":"…"` field (always appended last) so
/// byte comparison covers exactly the query answer.
fn strip_trace(line: &str) -> &str {
    match line.find(r#","trace":""#) {
        Some(pos) => &line[..pos],
        None => line,
    }
}

#[test]
fn server_restart_resumes_at_recovered_epoch() {
    let path = scratch_dir("restart");
    let config = ServerConfig::default();

    // First life: ingest through the server, capture a query answer.
    let (running, recovered_epoch) = wal_server(&path, config.clone());
    assert_eq!(recovered_epoch, 0, "fresh wal starts at epoch 0");
    let mut client = Client::connect(running.addr).expect("connect");
    let ingest = client
        .request(
            &parse(r#"{"cmd":"ingest","baskets":[[0,1],[0,1,2],[1,2],[0],[0,1],[2,3]]}"#)
                .expect("req"),
        )
        .expect("ingest");
    assert_eq!(ingest.get("epoch").and_then(Value::as_u64), Some(6));
    let chi2_before = client
        .request_line(r#"{"cmd":"chi2","items":[0,1]}"#)
        .expect("chi2 before restart");
    let stats = client
        .request(&parse(r#"{"cmd":"stats"}"#).expect("req"))
        .expect("stats");
    assert_eq!(stats.get("wal").and_then(Value::as_str), Some("healthy"));
    drop(client);
    running.stop().expect("clean stop");

    // Second life: same directory; the store must resume at epoch 6 and
    // answer the same query with the same bytes.
    let (running, recovered_epoch) = wal_server(&path, config);
    assert_eq!(
        recovered_epoch, 6,
        "recovery must replay every acked basket"
    );
    let mut client = Client::connect(running.addr).expect("reconnect");
    let chi2_after = client
        .request_line(r#"{"cmd":"chi2","items":[0,1]}"#)
        .expect("chi2 after restart");
    assert_eq!(
        strip_trace(&chi2_before),
        strip_trace(&chi2_after),
        "restarted server must answer byte-identically at the recovered epoch"
    );
    // And ingest keeps going from where it left off.
    let ingest = client
        .request(&parse(r#"{"cmd":"ingest","baskets":[[1,3]]}"#).expect("req"))
        .expect("ingest after restart");
    assert_eq!(ingest.get("epoch").and_then(Value::as_u64), Some(7));
    drop(client);
    running.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn connection_limit_rejects_with_retryable_error() {
    let path = scratch_dir("admission");
    let (running, _) = wal_server(
        &path,
        ServerConfig {
            max_connections: 1,
            workers: 1,
            ..ServerConfig::default()
        },
    );
    // First connection is admitted (reading the banner proves a worker
    // picked it up).
    let mut first = Client::connect(running.addr).expect("first connect");
    assert!(first.banner().contains("proto"));
    // Second connection must be shed with one explicit retryable line.
    match Client::connect(running.addr) {
        Err(ClientError::Retryable(message)) => {
            assert!(
                message.contains("connection limit"),
                "unexpected rejection message: {message}"
            );
        }
        Err(other) => panic!("expected a retryable rejection, got {other}"),
        Ok(_) => panic!("expected a retryable rejection, got an admitted connection"),
    }
    // The admitted connection still works.
    let pong = first
        .request(&parse(r#"{"cmd":"ping"}"#).expect("req"))
        .expect("ping on admitted connection");
    assert_eq!(pong.get("pong").and_then(Value::as_bool), Some(true));
    let snapshot = running.metrics.snapshot();
    assert_eq!(snapshot.rejected_connections, 1);
    assert_eq!(snapshot.overload_errors, 1);
    drop(first);
    running.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn zero_deadline_fails_queries_but_not_ingest() {
    let path = scratch_dir("deadline");
    let (running, _) = wal_server(
        &path,
        ServerConfig {
            request_deadline: Duration::ZERO,
            ..ServerConfig::default()
        },
    );
    let mut client = Client::connect(running.addr).expect("connect");
    // Queries blow the (impossible) deadline and are marked retryable.
    match client.request(&parse(r#"{"cmd":"ping"}"#).expect("req")) {
        Err(ClientError::Retryable(message)) => {
            assert!(message.contains("deadline"), "got: {message}");
        }
        other => panic!("expected a retryable deadline error, got {other:?}"),
    }
    // Ingest already happened by the time the deadline is checked; its
    // answer must report the durable effect, not a phantom failure.
    let ingest = client
        .request(&parse(r#"{"cmd":"ingest","baskets":[[0,1]]}"#).expect("req"))
        .expect("ingest must report its durable effect");
    assert_eq!(ingest.get("epoch").and_then(Value::as_u64), Some(1));
    let snapshot = running.metrics.snapshot();
    assert!(snapshot.deadline_errors >= 1);
    drop(client);
    running.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&path);
}

#[test]
fn retry_client_retries_transient_errors_then_gives_up() {
    let path = scratch_dir("retry");
    let (running, _) = wal_server(
        &path,
        ServerConfig {
            request_deadline: Duration::ZERO,
            ..ServerConfig::default()
        },
    );
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(4),
        jitter_seed: 7,
    };
    let mut client = RetryClient::new(running.addr.to_string(), policy);
    match client.request(&parse(r#"{"cmd":"stats"}"#).expect("req")) {
        Err(ClientError::Retryable(message)) => {
            assert!(message.contains("deadline"), "got: {message}");
        }
        other => panic!("expected exhaustion with a retryable error, got {other:?}"),
    }
    // Every attempt reached the server: the retry loop really retried.
    assert_eq!(running.metrics.snapshot().requests, 3);
    running.stop().expect("clean stop");
    let _ = std::fs::remove_dir_all(&path);
}
