//! Golden-file regression for the wire protocol.
//!
//! A fixed request script (`tests/fixtures/golden_requests.jsonl`) is
//! replayed through a real server on an ephemeral port over a fixed
//! 10-basket store; every response line must match
//! `tests/fixtures/golden_responses.jsonl` byte-for-byte. All arithmetic
//! behind the responses is deterministic (integer counts, IEEE f64, our
//! own chi-squared quantiles), so the fixture is stable across runs and
//! platforms.
//!
//! To regenerate after an intentional protocol change:
//! `BMB_UPDATE_GOLDEN=1 cargo test -p bmb-serve --test golden_protocol`

use std::path::PathBuf;
use std::sync::Arc;

use bmb_basket::{IncrementalStore, StoreConfig};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_serve::{Client, Server, ServerConfig};

/// The fixed store every golden run queries: 10 baskets over 4 items,
/// split across segments (capacity 4) so the segmented path is exercised.
fn golden_store() -> Arc<IncrementalStore> {
    let store = Arc::new(IncrementalStore::new(
        4,
        StoreConfig {
            segment_capacity: 4,
        },
    ));
    let baskets: [&[u32]; 10] = [
        &[0, 1],
        &[0, 1, 2],
        &[2],
        &[0, 1],
        &[1, 2, 3],
        &[0],
        &[0, 1, 2, 3],
        &[3],
        &[1],
        &[0, 1],
    ];
    for basket in baskets {
        store
            .append_ids(basket.iter().copied())
            .expect("ids in range");
    }
    store
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

#[test]
fn responses_match_golden_fixture_byte_for_byte() {
    let requests = std::fs::read_to_string(fixture_path("golden_requests.jsonl"))
        .expect("request fixture present");
    let engine = Arc::new(QueryEngine::new(golden_store(), EngineConfig::default()));
    let server = Server::bind(engine, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr();
    let running = server.spawn();
    let mut client = Client::connect(addr).expect("connect");

    let mut responses = Vec::new();
    for line in requests.lines() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        responses.push(client.request_line(line).expect("response line"));
    }
    running.stop().expect("clean shutdown");
    let actual = responses.join("\n") + "\n";

    let path = fixture_path("golden_responses.jsonl");
    if std::env::var_os("BMB_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .expect("response fixture present (regenerate with BMB_UPDATE_GOLDEN=1)");
    for (i, (want, got)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(want, got, "response {i} diverged from the golden file");
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "response count diverged from the golden file"
    );
}

/// The same script through a raw socket, pipelined: the requests go out
/// in two writes, CRLF-terminated with a blank line between, and the
/// first write ends halfway through a request. Its complete lines must
/// be answered while the half line waits in the server's buffer, and
/// every reply must still match the golden file byte for byte.
#[test]
fn pipelined_requests_split_mid_line_match_golden_fixture() {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let requests = std::fs::read_to_string(fixture_path("golden_requests.jsonl"))
        .expect("request fixture present");
    let expected = std::fs::read_to_string(fixture_path("golden_responses.jsonl"))
        .expect("response fixture present");
    let script: String = requests
        .lines()
        .filter(|line| !line.trim().is_empty() && !line.starts_with('#'))
        .map(|line| format!("{line}\r\n\r\n"))
        .collect();
    // Cut inside the sixth request: five are whole in the first write.
    let cut = script
        .match_indices("\r\n\r\n")
        .nth(4)
        .map(|(at, _)| at + 4 + 10)
        .expect("the script has more than five requests");

    let engine = Arc::new(QueryEngine::new(golden_store(), EngineConfig::default()));
    let server = Server::bind(engine, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr();
    let running = server.spawn();
    let mut stream = TcpStream::connect(addr).expect("connect");
    // A reply the server never sends fails the test instead of hanging it.
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .expect("set a read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone the socket"));
    let mut read_reply = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read a reply");
        line
    };
    assert!(read_reply().contains("bmb/1"), "banner first");

    let mut replies = String::new();
    stream
        .write_all(&script.as_bytes()[..cut])
        .expect("first write");
    for _ in 0..5 {
        replies.push_str(&read_reply());
    }
    stream
        .write_all(&script.as_bytes()[cut..])
        .expect("second write");
    for _ in 5..expected.lines().count() {
        replies.push_str(&read_reply());
    }
    drop(stream);
    running.stop().expect("clean shutdown");
    assert_eq!(replies, expected);
}

#[test]
fn stats_shape_is_stable_even_if_values_are_not() {
    use bmb_serve::json::{parse, Value};

    let engine = Arc::new(QueryEngine::new(golden_store(), EngineConfig::default()));
    let server = Server::bind(engine, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let running = server.spawn();
    let mut client = Client::connect(addr).expect("connect");
    client
        .request(&parse(r#"{"cmd":"chi2","items":[0,1]}"#).expect("literal"))
        .expect("warm one query");
    let stats = client
        .request(&parse(r#"{"cmd":"stats"}"#).expect("literal"))
        .expect("stats");
    // Values vary with timing; the field set and basic sanity must not.
    for key in [
        "requests",
        "errors",
        "connections",
        "ingested_baskets",
        "epoch",
        "ingest_lag",
        "table_hits",
        "table_misses",
        "segment_hits",
        "segment_misses",
        "p50_us",
        "p99_us",
    ] {
        assert!(
            stats.get(key).and_then(Value::as_i64).is_some(),
            "stats missing integer field {key}: {stats}"
        );
    }
    assert!(stats
        .get("table_hit_rate")
        .and_then(Value::as_f64)
        .is_some());
    assert_eq!(stats.get("epoch").and_then(Value::as_u64), Some(10));
    assert_eq!(stats.get("ingest_lag").and_then(Value::as_u64), Some(0));
    running.stop().expect("clean shutdown");
}

/// The shard-internal `pair_supports` reply on the golden store, pinned
/// byte for byte: `support_vec`'s shape, holding the four item counts and
/// then the six pair supports in `(a, b)` order. A request for another
/// item space is refused.
#[test]
fn pair_supports_reply_matches_its_golden_line() {
    let engine = Arc::new(QueryEngine::new(golden_store(), EngineConfig::default()));
    let server = Server::bind(engine, ServerConfig::default()).expect("bind ephemeral port");
    let addr = server.local_addr();
    let running = server.spawn();
    let mut client = Client::connect(addr).expect("connect");
    let replies: Vec<String> = [
        r#"{"id":1,"cmd":"pair_supports","n_items":4}"#,
        r#"{"id":2,"cmd":"pair_supports","n_items":5}"#,
    ]
    .into_iter()
    .map(|line| client.request_line(line).expect("response line"))
    .collect();
    running.stop().expect("clean shutdown");
    assert_eq!(
        replies,
        [
            r#"{"id":1,"ok":true,"result":{"epoch":10,"n":10,"supports":[6,7,4,3,5,2,1,3,2,2]},"trace":"0000000000000001"}"#,
            r#"{"id":2,"ok":false,"error":"pair_supports for 5 items, but the item space has 4 items","trace":"0000000000000002"}"#,
        ]
    );
}
