//! Observability integration tests: the `metrics` wire command, the
//! HTTP `/metrics` exposition listener, per-request trace ids, and the
//! `/stats` derived-ratio edge cases (0.0, never NaN/null, before any
//! traffic).

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use bmb_basket::{IncrementalStore, StoreConfig};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_serve::json::{parse, Value};
use bmb_serve::{Client, Server, ServerConfig};

fn test_store() -> Arc<IncrementalStore> {
    let store = Arc::new(IncrementalStore::new(
        4,
        StoreConfig {
            segment_capacity: 4,
        },
    ));
    let baskets: [&[u32]; 6] = [&[0, 1], &[0, 1, 2], &[2], &[0, 1], &[1, 2, 3], &[0]];
    for basket in baskets {
        store.append_ids(basket.iter().copied()).expect("in range");
    }
    store
}

fn spawn_server(config: ServerConfig) -> bmb_serve::server::RunningServer {
    let engine = Arc::new(QueryEngine::new(test_store(), EngineConfig::default()));
    Server::bind(engine, config).expect("bind").spawn()
}

#[test]
fn stats_ratios_are_zero_before_any_traffic() {
    let running = spawn_server(ServerConfig::default());
    let mut client = Client::connect(running.addr).expect("connect");
    // The very first request is `stats` itself: its snapshot is taken
    // before the request is recorded, so every ratio sees zero traffic.
    let stats = client
        .request(&parse(r#"{"cmd":"stats"}"#).expect("req"))
        .expect("stats");
    assert_eq!(stats.get("requests").and_then(Value::as_u64), Some(0));
    // Derived ratios are exactly 0.0 — a float, not null (NaN serializes
    // to null in our JSON) and not a missing field.
    let error_rate = stats.get("error_rate").and_then(Value::as_f64);
    assert_eq!(error_rate.map(f64::to_bits), Some(0u64));
    let hit_rate = stats.get("table_hit_rate").and_then(Value::as_f64);
    assert_eq!(hit_rate.map(f64::to_bits), Some(0u64));
    // Empty latency histograms quantile to 0, not garbage.
    assert_eq!(stats.get("p50_us").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("p99_us").and_then(Value::as_u64), Some(0));
    assert_eq!(stats.get("slow_requests").and_then(Value::as_u64), Some(0));
    running.stop().expect("clean stop");
}

#[test]
fn responses_carry_distinct_trace_ids() {
    let running = spawn_server(ServerConfig::default());
    let mut client = Client::connect(running.addr).expect("connect");
    let a = client
        .request_line(r#"{"cmd":"ping"}"#)
        .expect("first ping");
    let b = client
        .request_line(r#"{"cmd":"ping"}"#)
        .expect("second ping");
    let trace_of = |line: &str| -> String {
        let value = parse(line).expect("response json");
        value
            .get("trace")
            .and_then(Value::as_str)
            .expect("trace field present")
            .to_string()
    };
    let (ta, tb) = (trace_of(&a), trace_of(&b));
    assert_eq!(ta.len(), 16, "trace ids are 16 hex chars: {ta}");
    assert_ne!(ta, tb, "each request gets its own trace id");
    running.stop().expect("clean stop");
}

#[test]
fn client_supplied_trace_is_adopted_and_consumes_no_sequence() {
    let running = spawn_server(ServerConfig::default());
    let mut client = Client::connect(running.addr).expect("connect");
    let trace_of = |line: &str| -> String {
        parse(line)
            .expect("response json")
            .get("trace")
            .and_then(Value::as_str)
            .expect("trace field present")
            .to_string()
    };
    let before = client.request_line(r#"{"cmd":"ping"}"#).expect("minted");
    let adopted = client
        .request_line(r#"{"cmd":"ping","trace":"00000000deadbeef"}"#)
        .expect("adopted");
    let after = client.request_line(r#"{"cmd":"ping"}"#).expect("minted");
    assert_eq!(
        trace_of(&adopted),
        "00000000deadbeef",
        "a valid inbound trace is echoed verbatim"
    );
    let seq = |line: &str| u64::from_str_radix(&trace_of(line), 16).expect("hex trace");
    assert_eq!(
        seq(&after),
        seq(&before) + 1,
        "adopting a trace must not consume a server sequence number"
    );
    running.stop().expect("clean stop");
}

#[test]
fn malformed_inbound_traces_are_rejected() {
    let running = spawn_server(ServerConfig::default());
    let mut client = Client::connect(running.addr).expect("connect");
    for bad in [
        r#"{"cmd":"ping","trace":"DEADBEEF"}"#,
        r#"{"cmd":"ping","trace":"0000000000000000"}"#,
        r#"{"cmd":"ping","trace":"123"}"#,
        r#"{"cmd":"ping","trace":42}"#,
    ] {
        let line = client.request_line(bad).expect("response line");
        let value = parse(&line).expect("response json");
        assert_eq!(
            value.get("ok").and_then(Value::as_bool),
            Some(false),
            "malformed trace must be rejected: {line}"
        );
        let error = value
            .get("error")
            .and_then(Value::as_str)
            .expect("error message");
        assert!(error.contains("trace"), "error names the field: {error}");
        // The rejection itself still carries a minted trace id.
        assert!(value.get("trace").and_then(Value::as_str).is_some());
    }
    running.stop().expect("clean stop");
}

#[test]
fn trace_command_returns_recorded_server_spans() {
    let running = spawn_server(ServerConfig::default());
    let mut client = Client::connect(running.addr).expect("connect");
    client
        .request_line(r#"{"cmd":"chi2","items":[0,1],"trace":"00000000000000aa"}"#)
        .expect("traced query");
    let tree = client
        .request(&parse(r#"{"cmd":"trace","trace":"00000000000000aa"}"#).expect("req"))
        .expect("trace lookup");
    assert_eq!(
        tree.get("trace").and_then(Value::as_str),
        Some("00000000000000aa")
    );
    let spans = tree
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans array");
    assert_eq!(spans.len(), 1, "one server span recorded: {tree}");
    let span = &spans[0];
    assert_eq!(span.get("name").and_then(Value::as_str), Some("serve:chi2"));
    assert_eq!(span.get("node").and_then(Value::as_str), Some("server"));
    assert_eq!(span.get("outcome").and_then(Value::as_str), Some("ok"));
    assert!(span.get("parent").is_none(), "root span has no parent");
    running.stop().expect("clean stop");
}

#[test]
fn slow_requests_surface_trace_exemplars_in_stats() {
    // A zero threshold makes every request "slow", so the exemplar
    // ring fills deterministically.
    let running = spawn_server(ServerConfig {
        slow_request_threshold: Duration::from_secs(0),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(running.addr).expect("connect");
    client
        .request_line(r#"{"cmd":"chi2","items":[0,1],"trace":"00000000000000bb"}"#)
        .expect("traced query");
    let stats = client
        .request(&parse(r#"{"cmd":"stats"}"#).expect("req"))
        .expect("stats");
    let exemplars = stats
        .get("slow_exemplars")
        .and_then(Value::as_array)
        .expect("slow_exemplars array");
    assert!(!exemplars.is_empty(), "exemplars recorded: {stats}");
    let chi2 = exemplars
        .iter()
        .find(|e| e.get("cmd").and_then(Value::as_str) == Some("chi2"))
        .expect("chi2 exemplar present");
    assert_eq!(
        chi2.get("trace").and_then(Value::as_str),
        Some("00000000000000bb"),
        "the exemplar names the trace to pull its tree"
    );
    assert!(chi2.get("elapsed_us").and_then(Value::as_u64).is_some());
    running.stop().expect("clean stop");
}

#[test]
fn events_command_reports_ring_events() {
    let running = spawn_server(ServerConfig::default());
    let mut client = Client::connect(running.addr).expect("connect");
    let events = client
        .request(&parse(r#"{"cmd":"events"}"#).expect("req"))
        .expect("events");
    // No ledger attached in this process: the source is the in-memory
    // ring, and the shape is stable even when it holds no events.
    assert_eq!(events.get("source").and_then(Value::as_str), Some("ring"));
    assert!(events.get("count").and_then(Value::as_u64).is_some());
    assert!(events.get("events").and_then(Value::as_array).is_some());
    running.stop().expect("clean stop");
}

#[test]
fn metrics_command_returns_exposition_text() {
    let running = spawn_server(ServerConfig::default());
    let mut client = Client::connect(running.addr).expect("connect");
    client
        .request(&parse(r#"{"cmd":"chi2","items":[0,1]}"#).expect("req"))
        .expect("warm a query");
    let metrics = client
        .request(&parse(r#"{"cmd":"metrics"}"#).expect("req"))
        .expect("metrics");
    let text = metrics
        .get("text")
        .and_then(Value::as_str)
        .expect("text payload");
    for family in [
        "bmb_serve_requests_total",
        "bmb_serve_request_us",
        "bmb_core_cache_hits_total",
        "bmb_core_cache_misses_total",
    ] {
        assert!(
            text.contains(family),
            "exposition missing {family}:\n{text}"
        );
    }
    // The chi2 request this server already served is visible.
    assert!(
        text.contains(r#"bmb_serve_request_us_count{cmd="chi2"} 1"#),
        "per-command histogram count missing:\n{text}"
    );
    running.stop().expect("clean stop");
}

/// The per-segment support cache is gone. Its `CacheStats` fields and
/// `/stats` keys stay for compatibility and must read 0 after table
/// misses and ingests, and no `cache="segment"` series is exported.
#[test]
fn retired_segment_counters_read_zero() {
    let engine = Arc::new(QueryEngine::new(test_store(), EngineConfig::default()));
    let running = Server::bind(Arc::clone(&engine), ServerConfig::default())
        .expect("bind")
        .spawn();
    let mut client = Client::connect(running.addr).expect("connect");
    let requests = [
        r#"{"cmd":"chi2","items":[0,1]}"#,
        r#"{"cmd":"chi2","items":[1,2,3]}"#,
        r#"{"cmd":"ingest","baskets":[[0,1,2],[3],[1,2],[0,3],[2]]}"#,
        r#"{"cmd":"chi2","items":[0,1]}"#,
        r#"{"cmd":"interest","items":[1,2,3],"cell":5}"#,
    ];
    for line in requests {
        client.request(&parse(line).expect("req")).expect(line);
    }
    let cache = engine.cache_stats();
    assert_eq!(cache.table_misses, 4, "{cache:?}");
    assert_eq!(
        (
            cache.segment_hits,
            cache.segment_misses,
            cache.segment_evictions
        ),
        (0, 0, 0)
    );
    let stats = client
        .request(&parse(r#"{"cmd":"stats"}"#).expect("req"))
        .expect("stats");
    assert_eq!(stats.get("table_misses").and_then(Value::as_u64), Some(4));
    for key in ["segment_hits", "segment_misses"] {
        assert_eq!(stats.get(key).and_then(Value::as_u64), Some(0), "{key}");
    }
    let metrics = client
        .request(&parse(r#"{"cmd":"metrics"}"#).expect("req"))
        .expect("metrics");
    let text = metrics.get("text").and_then(Value::as_str).expect("text");
    assert!(
        text.contains(r#"bmb_core_cache_misses_total{cache="table"} 4"#),
        "{text}"
    );
    assert!(!text.contains(r#"cache="segment""#), "{text}");
    running.stop().expect("clean stop");
}

/// One plain-HTTP GET against the metrics listener.
fn http_get_metrics(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect /metrics");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n")
        .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn http_metrics_listener_answers_once_a_split_request_head_ends() {
    let running = spawn_server(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    });
    let metrics_addr = running.metrics_addr.expect("metrics listener bound");
    let mut stream = TcpStream::connect(metrics_addr).expect("connect /metrics");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\n")
        .expect("send the first line");
    // No reply while the head is incomplete: answering and closing now
    // would leave the rest unread and reset the connection.
    stream
        .set_read_timeout(Some(Duration::from_millis(50)))
        .expect("timeout");
    let mut byte = [0u8; 1];
    let early = stream.read(&mut byte);
    assert!(
        matches!(&early, Err(e) if matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)),
        "replied before the request head ended: {early:?}"
    );
    stream
        .write_all(b"Host: test\r\nConnection: close\r\n\r\n")
        .expect("send the rest of the head");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .expect("the whole reply, without a reset");
    assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
    assert!(response.contains("bmb_serve_requests_total"));
    running.stop().expect("clean stop");
}

#[test]
fn http_metrics_listener_serves_prometheus_text() {
    let running = spawn_server(ServerConfig {
        metrics_addr: Some("127.0.0.1:0".to_string()),
        ..ServerConfig::default()
    });
    let metrics_addr = running.metrics_addr.expect("metrics listener bound");
    let mut client = Client::connect(running.addr).expect("connect");
    client
        .request(&parse(r#"{"cmd":"topk","k":2}"#).expect("req"))
        .expect("warm a query");

    let response = http_get_metrics(metrics_addr);
    let (head, body) = response
        .split_once("\r\n\r\n")
        .expect("http head/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "head: {head}");
    assert!(
        head.contains("text/plain; version=0.0.4"),
        "content type: {head}"
    );
    for family in [
        "bmb_serve_requests_total",
        "bmb_serve_request_us",
        "bmb_core_cache_hits_total",
    ] {
        assert!(body.contains(family), "body missing {family}:\n{body}");
    }
    // Histogram buckets are cumulative and end at +Inf == _count.
    let mut last: Option<u64> = None;
    let mut inf: Option<u64> = None;
    for line in body.lines() {
        if line.starts_with(r#"bmb_serve_request_us_bucket{cmd="topk""#) {
            let value: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("bucket value");
            if let Some(prev) = last {
                assert!(value >= prev, "buckets must be cumulative: {line}");
            }
            last = Some(value);
            if line.contains(r#"le="+Inf""#) {
                inf = Some(value);
            }
        }
        if line.starts_with(r#"bmb_serve_request_us_count{cmd="topk"}"#) {
            let count: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("count value");
            assert_eq!(Some(count), inf, "+Inf bucket must equal _count");
        }
    }
    assert!(inf.is_some(), "topk histogram must appear in:\n{body}");

    // A second scrape still answers (the listener loops).
    assert!(http_get_metrics(metrics_addr).contains("bmb_serve_requests_total"));
    running.stop().expect("clean stop");
}
