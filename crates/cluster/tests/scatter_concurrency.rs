//! Concurrent dispatch through one coordinator: eight threads mix
//! `chi2`, `chi2_batch`, `stats` and `ingest` against two real shards.
//!
//! A scatter checks the shard endpoints' clients out in shard order and
//! never waits for an endpoint while holding a higher-indexed one, and
//! its fallbacks run only once every client is back. So no mix of
//! scatters and single-shard requests may deadlock. Every answer must be
//! well formed while ingest runs, each endpoint must keep a single
//! connection, and once the threads finish the cluster must answer
//! exactly as one store over the same baskets.

use std::sync::{mpsc, Arc, Barrier};
use std::time::{Duration, Instant};

use bmb_basket::{IncrementalStore, Itemset, StoreConfig};
use bmb_cluster::{CoordinatorConfig, CoordinatorService};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_serve::json::Value;
use bmb_serve::server::RunningServer;
use bmb_serve::{
    Request, Server, ServerConfig, ServerMetrics, Service, ServiceCtx, ServiceFailure,
};

const N_ITEMS: usize = 6;
const THREADS: usize = 8;
const ROUNDS: usize = 40;
/// Generous for ~300 loopback requests; only a deadlock comes near it.
const WATCHDOG: Duration = Duration::from_secs(60);

fn drive(coordinator: &CoordinatorService, request: Request) -> Result<Value, ServiceFailure> {
    let config = ServerConfig::default();
    let metrics = ServerMetrics::new();
    let ctx = ServiceCtx {
        start: Instant::now(),
        config: &config,
        metrics: &metrics,
        generation: None,
    };
    coordinator.dispatch(request, &ctx)
}

fn spawn_shard() -> (RunningServer, String) {
    let store = Arc::new(IncrementalStore::new(
        N_ITEMS,
        StoreConfig {
            segment_capacity: 16,
        },
    ));
    let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
    let server = Server::bind(engine, ServerConfig::default()).expect("bind shard");
    let addr = server.local_addr().to_string();
    (server.spawn(), addr)
}

/// The basket thread `thread` ingests in round `round`.
fn basket(thread: usize, round: usize) -> Vec<u32> {
    let mut items = vec![
        (thread % N_ITEMS) as u32,
        ((thread + round) % N_ITEMS) as u32,
        ((round * 7) % N_ITEMS) as u32,
    ];
    items.sort_unstable();
    items.dedup();
    items
}

/// Whether `(thread, round)` is an ingest round.
fn ingests(thread: usize, round: usize) -> bool {
    (thread + round) % 4 == 3
}

/// The answer's epoch vector, checked against its scalar epoch.
fn checked_epochs(answer: &Value) -> Result<Vec<u64>, String> {
    let epochs: Vec<u64> = answer
        .get("epochs")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("no epoch vector: {answer}"))?
        .iter()
        .filter_map(Value::as_u64)
        .collect();
    let epoch = answer.get("epoch").and_then(Value::as_u64);
    if epochs.len() != 2 || epoch != Some(epochs.iter().sum()) {
        return Err(format!("epoch vector does not add up: {answer}"));
    }
    Ok(epochs)
}

/// One thread's rounds; the first malformed answer or failure ends it.
fn run_thread(coordinator: &CoordinatorService, thread: usize) -> Result<(), String> {
    for round in 0..ROUNDS {
        let (request, what) = match (thread + round) % 4 {
            0 => (Request::Chi2 { items: vec![0, 1] }, "chi2"),
            1 => (
                Request::Chi2Batch {
                    itemsets: vec![vec![0, 1], vec![1, 2, 3]],
                },
                "chi2_batch",
            ),
            2 => (Request::Stats, "stats"),
            _ => (
                Request::Ingest {
                    baskets: vec![basket(thread, round)],
                },
                "ingest",
            ),
        };
        let answer = drive(coordinator, request)
            .map_err(|e| format!("thread {thread} round {round} {what}: {}", e.message))?;
        let well_formed = match what {
            "chi2" => {
                checked_epochs(&answer)?;
                answer.get("statistic").and_then(Value::as_f64).is_some()
            }
            "chi2_batch" => {
                checked_epochs(&answer)?;
                answer
                    .get("results")
                    .and_then(Value::as_array)
                    .is_some_and(|results| {
                        results.len() == 2 && results.iter().all(|r| r.get("error").is_none())
                    })
            }
            "stats" => {
                let rows = answer.get("shards").and_then(Value::as_array);
                rows.is_some_and(|rows| {
                    rows.len() == 2
                        && rows
                            .iter()
                            .all(|row| row.get("up").and_then(Value::as_bool) == Some(true))
                })
            }
            _ => {
                checked_epochs(&answer)?;
                answer.get("ingested").and_then(Value::as_u64) == Some(1)
            }
        };
        if !well_formed {
            return Err(format!("thread {thread} round {round} {what}: {answer}"));
        }
    }
    Ok(())
}

#[test]
fn mixed_concurrent_dispatch_never_deadlocks() {
    let (s0, a0) = spawn_shard();
    let (s1, a1) = spawn_shard();
    let coordinator = Arc::new(CoordinatorService::new(CoordinatorConfig::new(
        N_ITEMS,
        vec![a0, a1],
    )));
    let seed: Vec<Vec<u32>> = (0..40u32)
        .map(|i| vec![i % 6, (i * 5 + 1) % 6, (i / 3) % 6])
        .map(|mut b| {
            b.sort_unstable();
            b.dedup();
            b
        })
        .collect();
    drive(
        &coordinator,
        Request::Ingest {
            baskets: seed.clone(),
        },
    )
    .expect("seed ingest");

    // All threads start their rounds together, so scatters, stats and
    // ingests contend for the same two endpoint clients from the start.
    let start = Arc::new(Barrier::new(THREADS));
    let (done_tx, done_rx) = mpsc::channel();
    let handles: Vec<_> = (0..THREADS)
        .map(|thread| {
            let coordinator = Arc::clone(&coordinator);
            let start = Arc::clone(&start);
            let done_tx = done_tx.clone();
            std::thread::spawn(move || {
                start.wait();
                let _ = done_tx.send(run_thread(&coordinator, thread));
            })
        })
        .collect();
    drop(done_tx);
    let deadline = Instant::now() + WATCHDOG;
    for finished in 0..THREADS {
        let remaining = deadline.saturating_duration_since(Instant::now());
        match done_rx.recv_timeout(remaining) {
            Ok(outcome) => outcome.expect("every dispatch succeeds"),
            Err(_) => panic!(
                "only {finished} of {THREADS} dispatch threads finished within {WATCHDOG:?}: \
                 the scatter deadlocked"
            ),
        }
    }
    for handle in handles {
        handle.join().expect("dispatch thread");
    }

    // One connection per endpoint: the coordinator's single client for
    // each shard, shared by every thread through the check-out slot.
    for (index, shard) in [&s0, &s1].into_iter().enumerate() {
        let opened = shard
            .metrics
            .registry()
            .snapshot()
            .counter_value("bmb_serve_connections_total", &[]);
        assert_eq!(opened, 1, "shard {index} saw {opened} connections");
    }

    // Quiesced, the cluster answers as one store holding every basket.
    let store = Arc::new(IncrementalStore::new(N_ITEMS, StoreConfig::default()));
    let ingested = (0..THREADS)
        .flat_map(|thread| (0..ROUNDS).map(move |round| (thread, round)))
        .filter(|&(thread, round)| ingests(thread, round))
        .map(|(thread, round)| basket(thread, round));
    for items in seed.into_iter().chain(ingested) {
        store.append_ids(items).expect("ids in range");
    }
    let engine = QueryEngine::new(store, EngineConfig::default());
    let snap = engine.snapshot();
    for items in [vec![0u32, 1], vec![1, 2, 3], vec![2, 5]] {
        let expected = engine
            .chi2(&snap, &Itemset::from_ids(items.iter().copied()))
            .expect("engine chi2");
        let got = drive(
            &coordinator,
            Request::Chi2 {
                items: items.clone(),
            },
        )
        .expect("coordinator chi2");
        let statistic = got.get("statistic").and_then(Value::as_f64);
        assert_eq!(
            statistic.map(f64::to_bits),
            Some(expected.outcome.statistic.to_bits()),
            "χ² bits for {items:?}"
        );
        assert_eq!(
            got.get("support").and_then(Value::as_u64),
            Some(expected.support)
        );
        assert_eq!(got.get("epoch").and_then(Value::as_u64), Some(snap.epoch()));
    }

    s0.stop().expect("stop shard 0");
    s1.stop().expect("stop shard 1");
}
