//! Concurrent ingest-vs-query stress test.
//!
//! N writer threads append seeded Quest baskets through the store while M
//! reader threads take snapshots and verify that every snapshot answer is
//! *bit-identical* to a serial recomputation over that snapshot's baskets
//! — the consistency contract of the serving layer: a snapshot is a fixed
//! epoch, no matter how much ingest races past it. A server whose worker
//! panics must report that from its run once drained.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bmb_basket::{ContingencyTable, IncrementalStore, ItemId, Itemset, StoreConfig};
use bmb_core::{EngineConfig, QueryEngine};

const N_ITEMS: usize = 12;
const WRITERS: usize = 3;
const READERS: usize = 3;
const BASKETS_PER_WRITER: usize = 1200;
const BATCH: usize = 24;

/// Deterministic Quest baskets for one writer.
fn writer_baskets(writer: usize) -> Vec<Vec<ItemId>> {
    let db = bmb_quest::generate(&bmb_quest::QuestParams {
        n_transactions: BASKETS_PER_WRITER,
        n_items: N_ITEMS,
        avg_transaction_len: 4.0,
        n_patterns: 40,
        seed: 0xbeef + writer as u64,
        ..Default::default()
    });
    db.baskets().map(<[ItemId]>::to_vec).collect()
}

#[test]
fn concurrent_ingest_and_queries_agree_with_serial_recomputation() {
    let store = Arc::new(IncrementalStore::new(
        N_ITEMS,
        StoreConfig {
            segment_capacity: 256, // many seals during the run
        },
    ));
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        EngineConfig::default(),
    ));
    let done = AtomicBool::new(false);
    let queried_sets: Vec<Itemset> = vec![
        Itemset::from_ids([0]),
        Itemset::from_ids([0, 1]),
        Itemset::from_ids([2, 5, 7]),
        Itemset::from_ids([1, 3, 8, 11]),
    ];

    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let store = Arc::clone(&store);
                scope.spawn(move || {
                    let baskets = writer_baskets(w);
                    for chunk in baskets.chunks(BATCH) {
                        store
                            .append_batch(chunk.iter().map(|b| b.iter().copied()))
                            .expect("quest ids are in range");
                    }
                })
            })
            .collect();
        let mut readers = Vec::new();
        for r in 0..READERS {
            let engine = &engine;
            let done = &done;
            let sets = &queried_sets;
            readers.push(scope.spawn(move || {
                let test = *engine.test();
                let mut checks = 0u64;
                let mut last_epoch = 0u64;
                loop {
                    let finished = done.load(Ordering::SeqCst);
                    let snap = engine.snapshot();
                    assert!(
                        snap.epoch() >= last_epoch,
                        "epochs must be monotonic per reader"
                    );
                    last_epoch = snap.epoch();
                    if !snap.is_empty() {
                        // Serial ground truth over exactly this epoch's
                        // baskets, via the plain batch pipeline.
                        let flat = snap.to_database();
                        assert_eq!(flat.len() as u64, snap.epoch());
                        let set = &sets[(r + checks as usize) % sets.len()];
                        let answer = engine.chi2(&snap, set).expect("valid query");
                        let serial_table = ContingencyTable::from_database(&flat, set);
                        let serial = test.test_dense(&serial_table);
                        assert_eq!(
                            answer.outcome.statistic.to_bits(),
                            serial.statistic.to_bits(),
                            "snapshot chi2 diverged from serial recomputation \
                             at epoch {} for {set}",
                            snap.epoch()
                        );
                        assert_eq!(answer.outcome.significant, serial.significant);
                        let full_mask = (1u32 << set.len()) - 1;
                        assert_eq!(answer.support, serial_table.observed(full_mask));
                        checks += 1;
                    }
                    if finished {
                        return checks;
                    }
                    std::thread::yield_now();
                }
            }));
        }
        for writer in writers {
            writer.join().expect("writer finished");
        }
        done.store(true, Ordering::SeqCst);
        let total_checks: u64 = readers
            .into_iter()
            .map(|r| r.join().expect("reader finished"))
            .sum();
        assert!(
            total_checks >= READERS as u64,
            "readers must have verified at least one epoch each"
        );
    });

    // Final state: every basket landed exactly once, and the last
    // snapshot answers match a from-scratch batch recomputation.
    let snap = store.snapshot();
    assert_eq!(snap.epoch(), (WRITERS * BASKETS_PER_WRITER) as u64);
    let flat = snap.to_database();
    let test = *engine.test();
    for set in &queried_sets {
        let answer = engine.chi2(&snap, set).expect("valid query");
        let serial = test.test_dense(&ContingencyTable::from_database(&flat, set));
        assert_eq!(
            answer.outcome.statistic.to_bits(),
            serial.statistic.to_bits()
        );
    }
}

/// A service whose every dispatch panics, standing in for a worker bug.
struct PanickingService;

impl bmb_serve::Service for PanickingService {
    fn dispatch(
        &self,
        _request: bmb_serve::Request,
        _ctx: &bmb_serve::ServiceCtx<'_>,
    ) -> Result<bmb_serve::json::Value, bmb_serve::ServiceFailure> {
        panic!("dispatch bug");
    }

    fn registries(&self) -> Vec<Arc<bmb_obs::Registry>> {
        Vec::new()
    }
}

#[test]
fn a_panicking_worker_fails_the_run_once_drained() {
    let server = bmb_serve::Server::bind_service(
        Arc::new(PanickingService),
        bmb_serve::ServerConfig::default(),
    )
    .expect("bind");
    let running = server.spawn();
    let mut client = bmb_serve::Client::connect(running.addr).expect("connect");
    let request = bmb_serve::json::parse(r#"{"cmd":"chi2","items":[0,1]}"#).expect("request");
    assert!(
        client.request(&request).is_err(),
        "the worker died, so no answer"
    );
    let err = running.stop().expect_err("a worker panicked");
    assert_eq!(err.to_string(), "a server worker panicked");
}
