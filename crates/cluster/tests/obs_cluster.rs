//! Cluster observability end to end: a client-supplied trace id
//! propagated through a live coordinator yields a span tree covering
//! coordinator and every shard; the coordinator's `metrics` command
//! federates each node's exposition under `node=`/`shard=` labels; and
//! a node's persisted event ledger records a demote→promote failover
//! in generation order.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use bmb_basket::{DurabilityConfig, DurableStore, FsDir, IncrementalStore, StoreConfig};
use bmb_cluster::{ClusterMetrics, CoordinatorConfig, CoordinatorService, FollowerConfig};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_serve::json::{parse, Value};
use bmb_serve::server::RunningServer;
use bmb_serve::{Client, EngineService, Server, ServerConfig, Service};

const N_ITEMS: usize = 8;

/// One in-memory shard server, role-stamped so its spans name the
/// shard coordinate.
fn spawn_shard(index: i64) -> (RunningServer, std::net::SocketAddr) {
    let store = Arc::new(IncrementalStore::new(
        N_ITEMS,
        StoreConfig {
            segment_capacity: 16,
        },
    ));
    for basket in [&[0u32, 1][..], &[0, 1, 2], &[2, 3], &[0, 1]] {
        store.append_ids(basket.iter().copied()).expect("in range");
    }
    let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
    let server = Server::bind(
        engine,
        ServerConfig {
            node_role: "shard".to_string(),
            shard_index: Some(index),
            ..ServerConfig::default()
        },
    )
    .expect("bind shard");
    let addr = server.local_addr();
    (server.spawn(), addr)
}

/// Two shards behind a role-stamped coordinator.
fn spawn_cluster() -> (Vec<RunningServer>, RunningServer, std::net::SocketAddr) {
    let (s0, a0) = spawn_shard(0);
    let (s1, a1) = spawn_shard(1);
    let coordinator = Arc::new(CoordinatorService::new(CoordinatorConfig::new(
        N_ITEMS,
        vec![a0.to_string(), a1.to_string()],
    )));
    let service: Arc<dyn Service> = coordinator as Arc<dyn Service>;
    let server = Server::bind_service(
        service,
        ServerConfig {
            node_role: "coordinator".to_string(),
            ..ServerConfig::default()
        },
    )
    .expect("bind coordinator");
    let addr = server.local_addr();
    (vec![s0, s1], server.spawn(), addr)
}

#[test]
fn coordinator_trace_tree_spans_coordinator_and_every_shard() {
    let (shards, coordinator, addr) = spawn_cluster();
    let mut client = Client::connect(addr).expect("connect coordinator");

    let response = client
        .request_line(r#"{"cmd":"chi2","items":[0,1],"trace":"00000000000000cc"}"#)
        .expect("traced query");
    assert_eq!(
        parse(&response)
            .expect("response json")
            .get("trace")
            .and_then(Value::as_str),
        Some("00000000000000cc"),
        "the coordinator adopts the client's trace id"
    );

    let tree = client
        .request(&parse(r#"{"cmd":"trace","trace":"00000000000000cc"}"#).expect("req"))
        .expect("trace lookup");
    let spans = tree
        .get("spans")
        .and_then(Value::as_array)
        .expect("spans array")
        .to_vec();
    let named = |name: &str| -> Vec<&Value> {
        spans
            .iter()
            .filter(|s| s.get("name").and_then(Value::as_str) == Some(name))
            .collect()
    };

    // The coordinator's own server span is the single root.
    let roots = named("serve:chi2");
    assert_eq!(roots.len(), 1, "one coordinator server span: {tree}");
    assert_eq!(
        roots[0].get("node").and_then(Value::as_str),
        Some("coordinator")
    );
    assert!(roots[0].get("parent").is_none(), "root span has no parent");
    let root_id = roots[0]
        .get("span")
        .and_then(Value::as_str)
        .expect("root span id");

    // One client-side rpc span per shard, parented under the root.
    let rpcs = named("rpc:support_vec");
    assert_eq!(rpcs.len(), 2, "one rpc span per shard: {tree}");
    let mut rpc_shards: Vec<i64> = rpcs
        .iter()
        .filter_map(|s| s.get("shard").and_then(Value::as_i64))
        .collect();
    rpc_shards.sort_unstable();
    assert_eq!(rpc_shards, vec![0, 1]);
    for rpc in &rpcs {
        assert_eq!(rpc.get("parent").and_then(Value::as_str), Some(root_id));
    }
    // The scatter is pipelined: both requests are out before either
    // reply is read, so each rpc span starts before the other ends. A
    // shard-after-shard loop cannot produce this.
    let interval = |span: &Value| -> (u64, u64) {
        let start = span
            .get("start_us")
            .and_then(Value::as_u64)
            .expect("start_us");
        let duration = span
            .get("duration_us")
            .and_then(Value::as_u64)
            .expect("duration_us");
        (start, start + duration)
    };
    // Why a slot skipped the pipelined send, if one did.
    let metrics = client
        .request(&parse(r#"{"cmd":"metrics"}"#).expect("req"))
        .expect("federated metrics");
    let fallbacks: Vec<&str> = metrics
        .get("text")
        .and_then(Value::as_str)
        .expect("text payload")
        .lines()
        .filter(|line| line.starts_with("bmb_cluster_scatter_fallbacks_total"))
        .collect();
    let (first, second) = (interval(rpcs[0]), interval(rpcs[1]));
    assert!(
        first.0 < second.1 && second.0 < first.1,
        "the two rpc:support_vec spans must overlap in time: {tree}\n\
         scatter fallbacks: {fallbacks:#?}"
    );

    // Each shard recorded its own server span under the rpc that hit it.
    let rpc_ids: HashSet<&str> = rpcs
        .iter()
        .filter_map(|s| s.get("span").and_then(Value::as_str))
        .collect();
    let shard_spans = named("serve:support_vec");
    assert_eq!(shard_spans.len(), 2, "one server span per shard: {tree}");
    let mut shard_indices: Vec<i64> = Vec::new();
    for span in &shard_spans {
        assert_eq!(span.get("node").and_then(Value::as_str), Some("shard"));
        shard_indices.push(
            span.get("shard")
                .and_then(Value::as_i64)
                .expect("shard coordinate"),
        );
        let parent = span
            .get("parent")
            .and_then(Value::as_str)
            .expect("shard span parented under the rpc span");
        assert!(rpc_ids.contains(parent), "parent is an rpc span: {span}");
    }
    shard_indices.sort_unstable();
    assert_eq!(shard_indices, vec![0, 1]);

    // The acceptance bar: spans recorded by >= 3 distinct node identities.
    let identities: HashSet<(String, i64)> = spans
        .iter()
        .map(|s| {
            (
                s.get("node")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                s.get("shard").and_then(Value::as_i64).unwrap_or(-1),
            )
        })
        .collect();
    assert!(
        identities.len() >= 3,
        "trace tree must span >= 3 nodes, got {identities:?}"
    );

    coordinator.stop().expect("stop coordinator");
    for s in shards {
        s.stop().expect("stop shard");
    }
}

#[test]
fn federated_metrics_carry_node_labels_and_cluster_rollups() {
    let (shards, coordinator, addr) = spawn_cluster();
    let mut client = Client::connect(addr).expect("connect coordinator");
    client
        .request(&parse(r#"{"cmd":"chi2","items":[0,1]}"#).expect("req"))
        .expect("warm every shard");

    let metrics = client
        .request(&parse(r#"{"cmd":"metrics"}"#).expect("req"))
        .expect("federated metrics");
    let text = metrics
        .get("text")
        .and_then(Value::as_str)
        .expect("text payload");

    for needle in [
        r#"node="coordinator""#,
        r#"node="shard0",shard="0""#,
        r#"node="shard1",shard="1""#,
        "bmb_cluster_fed_epoch_skew",
        r#"bmb_cluster_fed_shard_p99_us{shard="0"}"#,
        r#"bmb_cluster_fed_shard_p99_us{shard="1"}"#,
    ] {
        assert!(
            text.contains(needle),
            "federation missing {needle}:\n{text}"
        );
    }
    // Every sample line is labeled with its origin node — no family is
    // re-exposed bare except the synthesized rollups.
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() || line.starts_with("bmb_cluster_fed_") {
            continue;
        }
        assert!(
            line.contains(r#"node=""#),
            "unlabeled federated sample: {line}"
        );
    }

    coordinator.stop().expect("stop coordinator");
    for s in shards {
        s.stop().expect("stop shard");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("bmb_obs_cluster_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    std::fs::create_dir_all(&path).expect("create temp dir");
    path
}

/// A durable generation-fenced node over its own temp dir.
fn spawn_node(dir: &PathBuf) -> (RunningServer, std::net::SocketAddr, Arc<AtomicBool>) {
    let fs = FsDir::open(dir).expect("open node dir");
    let (durable, _) = DurableStore::open_dir(
        Box::new(fs),
        N_ITEMS,
        StoreConfig {
            segment_capacity: 16,
        },
        DurabilityConfig::default(),
    )
    .expect("open durable store");
    let durable = Arc::new(durable);
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(durable.store()),
        EngineConfig::default(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let node = bmb_cluster::NodeService::primary(
        EngineService::new(engine).with_durable(Arc::clone(&durable)),
        Arc::clone(&durable),
        FollowerConfig::new(String::new()),
        Arc::clone(&stop),
        Arc::new(ClusterMetrics::new()),
    );
    let service: Arc<dyn Service> = Arc::new(node) as Arc<dyn Service>;
    let server = Server::bind_service(service, ServerConfig::default()).expect("bind node");
    let addr = server.local_addr();
    (server.spawn(), addr, stop)
}

#[test]
fn event_ledger_records_failover_in_generation_order() {
    let dir_a = temp_dir("node_a");
    let dir_b = temp_dir("node_b");
    let ledger_path = dir_a.join("events.jsonl");
    let ledger = Arc::new(bmb_obs::EventLedger::open(&ledger_path, 256).expect("open ledger"));
    bmb_obs::events().attach_ledger(Arc::clone(&ledger));

    let (node_a, addr_a, stop_a) = spawn_node(&dir_a);
    let (node_b, addr_b, stop_b) = spawn_node(&dir_b);

    // Seeded failover: fence node A down to a follower of B at
    // generation 3, then promote it back (generation bumps to 4).
    let mut client = Client::connect(addr_a).expect("connect node A");
    client
        .request(
            &Value::object()
                .with("cmd", Value::Str("demote".to_string()))
                .with("primary", Value::Str(addr_b.to_string()))
                .with("gen", Value::Int(3)),
        )
        .expect("demote A under B");
    client
        .request(&parse(r#"{"cmd":"promote","gen":3}"#).expect("req"))
        .expect("promote A back");

    bmb_obs::events().detach_ledger();
    let lines = ledger.read_lines();
    let failovers: Vec<(usize, &str, u64)> = lines
        .iter()
        .enumerate()
        .filter_map(|(i, line)| {
            let value = parse(line).ok()?;
            let msg = value.get("msg").and_then(Value::as_str)?;
            let kind = match msg {
                "node demoted to follower" => "demote",
                "follower promoted" => "promote",
                _ => return None,
            };
            let generation: u64 = value
                .get("generation")
                .and_then(Value::as_str)?
                .parse()
                .ok()?;
            Some((i, kind, generation))
        })
        .collect();

    let demote = failovers
        .iter()
        .find(|(_, kind, _)| *kind == "demote")
        .expect("ledger holds the demotion");
    let promote = failovers
        .iter()
        .find(|(_, kind, _)| *kind == "promote")
        .expect("ledger holds the promotion");
    assert!(
        demote.0 < promote.0,
        "demotion must be ledgered before the promotion: {failovers:?}"
    );
    assert_eq!(demote.2, 3, "demotion fenced to the requested floor");
    assert_eq!(promote.2, 4, "promotion bumps past the fenced generation");
    assert!(
        demote.2 < promote.2,
        "generations in the ledger are monotone across a failover"
    );

    stop_a.store(true, std::sync::atomic::Ordering::Release);
    stop_b.store(true, std::sync::atomic::Ordering::Release);
    node_a.stop().expect("stop node A");
    node_b.stop().expect("stop node B");
    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
