//! Differential bit-identity: a sharded cluster must answer exactly —
//! byte for byte, f64 bit pattern for bit pattern — what a single store
//! holding the same baskets answers.
//!
//! One seeded Quest workload is ingested three ways: straight into a
//! plain server, through a 1-shard cluster, and through a 4-shard
//! cluster. The same query script then runs against all three over real
//! TCP, and every response line must match after stripping the two
//! fields that legitimately differ: the top-level `trace` id and the
//! cluster-only `epochs` vector inside the result. Everything else —
//! supports, χ² statistics, p-values, interest ratios, border itemsets,
//! error messages, even the scalar `epoch` (shard epochs sum to the
//! plain store's) — must be identical, because the coordinator merges
//! integer supports and reruns the very same float code path.

use std::sync::Arc;

use bmb_basket::{IncrementalStore, Itemset, StoreConfig};
use bmb_cluster::{CoordinatorConfig, CoordinatorService};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_quest::QuestParams;
use bmb_serve::json::{parse, Value};
use bmb_serve::server::RunningServer;
use bmb_serve::{Client, Server, ServerConfig, ServerMetrics, Service, ServiceCtx};

const N_ITEMS: usize = 24;

/// The shared workload: small enough to keep three clusters fast, big
/// enough that χ² statistics exercise non-trivial float arithmetic.
fn quest_baskets() -> Vec<Vec<u32>> {
    let params = QuestParams {
        n_transactions: 600,
        n_items: N_ITEMS,
        avg_transaction_len: 6.0,
        avg_pattern_len: 3.0,
        n_patterns: 40,
        item_zipf_exponent: 0.8,
        seed: 0xD1FF,
        ..QuestParams::default()
    };
    bmb_quest::generate(&params)
        .baskets()
        .map(|b| b.iter().map(|item| item.0).collect())
        .collect()
}

/// A plain in-memory server preloaded with `baskets`.
fn spawn_plain(baskets: &[Vec<u32>]) -> (RunningServer, std::net::SocketAddr) {
    let store = Arc::new(IncrementalStore::new(
        N_ITEMS,
        StoreConfig {
            segment_capacity: 64,
        },
    ));
    for basket in baskets {
        store
            .append_ids(basket.iter().copied())
            .expect("ids in range");
    }
    let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
    let server = Server::bind(engine, ServerConfig::default()).expect("bind plain");
    let addr = server.local_addr();
    (server.spawn(), addr)
}

/// An empty in-memory shard server.
fn spawn_shard() -> (RunningServer, std::net::SocketAddr) {
    let store = Arc::new(IncrementalStore::new(
        N_ITEMS,
        StoreConfig {
            segment_capacity: 64,
        },
    ));
    let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
    let server = Server::bind(engine, ServerConfig::default()).expect("bind shard");
    let addr = server.local_addr();
    (server.spawn(), addr)
}

/// A cluster of `n_shards` empty shards behind a coordinator, loaded
/// with `baskets` through the coordinator's own ingest path.
fn spawn_cluster(
    n_shards: usize,
    baskets: &[Vec<u32>],
) -> (
    Vec<RunningServer>,
    RunningServer,
    std::net::SocketAddr,
    Arc<CoordinatorService>,
) {
    let mut shard_servers = Vec::new();
    let mut shard_addrs = Vec::new();
    for _ in 0..n_shards {
        let (running, addr) = spawn_shard();
        shard_servers.push(running);
        shard_addrs.push(addr.to_string());
    }
    let coordinator = Arc::new(CoordinatorService::new(CoordinatorConfig::new(
        N_ITEMS,
        shard_addrs,
    )));
    let service: Arc<dyn Service> = Arc::clone(&coordinator) as Arc<dyn Service>;
    let server = Server::bind_service(service, ServerConfig::default()).expect("bind coordinator");
    let addr = server.local_addr();
    let running = server.spawn();

    let mut client = Client::connect(addr).expect("connect coordinator");
    for chunk in baskets.chunks(100) {
        let rows: Vec<Value> = chunk
            .iter()
            .map(|b| Value::Array(b.iter().map(|&id| Value::Int(id as i64)).collect()))
            .collect();
        let request = Value::object()
            .with("cmd", Value::Str("ingest".to_string()))
            .with("baskets", Value::Array(rows));
        client.request(&request).expect("cluster ingest");
    }
    (shard_servers, running, addr, coordinator)
}

/// Strips the top-level `trace` and the result-level `epochs` — the
/// only fields allowed to differ between a plain server and a cluster.
fn stripped(line: &str) -> String {
    let value = parse(line).expect("response is JSON");
    let Value::Object(pairs) = value else {
        panic!("response is not an object: {line}");
    };
    let cleaned: Vec<(String, Value)> = pairs
        .into_iter()
        .filter(|(key, _)| key != "trace")
        .map(|(key, value)| {
            if key == "result" {
                if let Value::Object(inner) = value {
                    return (
                        key,
                        Value::Object(inner.into_iter().filter(|(k, _)| k != "epochs").collect()),
                    );
                }
                (key, value)
            } else {
                (key, value)
            }
        })
        .collect();
    Value::Object(cleaned).to_string()
}

/// The query script: happy paths plus every validation error shape, so
/// the coordinator's error precedence is pinned to the engine's.
fn query_script() -> Vec<String> {
    let seventeen: Vec<String> = (0..17).map(|i| i.to_string()).collect();
    vec![
        r#"{"id":1,"cmd":"chi2","items":[0]}"#.to_string(),
        r#"{"id":2,"cmd":"chi2","items":[0,1]}"#.to_string(),
        r#"{"id":3,"cmd":"chi2","items":[3,1,2]}"#.to_string(),
        r#"{"id":4,"cmd":"chi2","items":[5,17]}"#.to_string(),
        r#"{"id":5,"cmd":"chi2","items":[]}"#.to_string(),
        format!(
            r#"{{"id":6,"cmd":"chi2","items":[{}]}}"#,
            seventeen.join(",")
        ),
        r#"{"id":7,"cmd":"chi2","items":[0,99]}"#.to_string(),
        r#"{"id":8,"cmd":"chi2_batch","itemsets":[[0,1],[],[2,99],[7]]}"#.to_string(),
        r#"{"id":9,"cmd":"interest","items":[0,1],"cell":3}"#.to_string(),
        r#"{"id":10,"cmd":"interest","items":[2],"cell":0}"#.to_string(),
        r#"{"id":11,"cmd":"interest","items":[0,1],"cell":99}"#.to_string(),
        r#"{"id":12,"cmd":"topk","k":5}"#.to_string(),
        r#"{"id":13,"cmd":"border","support":0.02,"support_fraction":0.3,"max_level":3}"#
            .to_string(),
        r#"{"id":14,"cmd":"border","support":2.0}"#.to_string(),
        r#"{"id":15,"cmd":"support_vec","itemsets":[[],[0],[0,1]]}"#.to_string(),
        format!(r#"{{"id":16,"cmd":"pair_supports","n_items":{N_ITEMS}}}"#),
        format!(
            r#"{{"id":17,"cmd":"pair_supports","n_items":{}}}"#,
            N_ITEMS + 1
        ),
    ]
}

fn run_script(addr: std::net::SocketAddr) -> Vec<String> {
    let mut client = Client::connect(addr).expect("connect");
    query_script()
        .iter()
        .map(|line| stripped(&client.request_line(line).expect("response")))
        .collect()
}

#[test]
fn cluster_answers_are_byte_identical_to_a_single_store() {
    let baskets = quest_baskets();
    let (plain_running, plain_addr) = spawn_plain(&baskets);
    let (shards1, coord1, addr1, _) = spawn_cluster(1, &baskets);
    let (shards4, coord4, addr4, _) = spawn_cluster(4, &baskets);

    let plain = run_script(plain_addr);
    let one = run_script(addr1);
    let four = run_script(addr4);

    for ((p, o), f) in plain.iter().zip(&one).zip(&four) {
        assert_eq!(p, o, "1-shard cluster diverged from the single store");
        assert_eq!(p, f, "4-shard cluster diverged from the single store");
    }

    coord1.stop().expect("stop 1-shard coordinator");
    coord4.stop().expect("stop 4-shard coordinator");
    for s in shards1.into_iter().chain(shards4) {
        s.stop().expect("stop shard");
    }
    plain_running.stop().expect("stop plain server");
}

/// The acceptance criterion stated in terms of raw f64 bit patterns:
/// compare the in-process `Value` floats (no serialization round-trip)
/// of a 4-shard coordinator against the engine's own answer.
#[test]
fn chi2_statistics_match_to_the_bit() {
    let baskets = quest_baskets();

    let store = Arc::new(IncrementalStore::new(
        N_ITEMS,
        StoreConfig {
            segment_capacity: 64,
        },
    ));
    for basket in &baskets {
        store
            .append_ids(basket.iter().copied())
            .expect("ids in range");
    }
    let engine = QueryEngine::new(store, EngineConfig::default());
    let (shards, coord_running, _, coordinator) = spawn_cluster(4, &baskets);

    let config = ServerConfig::default();
    let metrics = ServerMetrics::new();
    let snap = engine.snapshot();
    for items in [vec![0u32], vec![0, 1], vec![3, 1, 2], vec![5, 17, 9]] {
        let expected = engine
            .chi2(&snap, &Itemset::from_ids(items.iter().copied()))
            .expect("engine chi2");
        let ctx = ServiceCtx {
            start: std::time::Instant::now(),
            config: &config,
            metrics: &metrics,
            generation: None,
        };
        let got = coordinator
            .dispatch(
                bmb_serve::Request::Chi2 {
                    items: items.clone(),
                },
                &ctx,
            )
            .expect("coordinator chi2");
        let stat = got
            .get("statistic")
            .and_then(Value::as_f64)
            .expect("statistic field");
        let ln_p = got
            .get("ln_p_value")
            .and_then(Value::as_f64)
            .expect("ln_p_value field");
        assert_eq!(
            stat.to_bits(),
            expected.outcome.statistic.to_bits(),
            "χ² statistic bits diverged for {items:?}"
        );
        assert_eq!(ln_p.to_bits(), expected.outcome.ln_p_value.to_bits());
        assert_eq!(
            got.get("support").and_then(Value::as_u64),
            Some(expected.support)
        );
        assert_eq!(got.get("epoch").and_then(Value::as_u64), Some(snap.epoch()));
    }

    coord_running.stop().expect("stop coordinator");
    for s in shards {
        s.stop().expect("stop shard");
    }
}
