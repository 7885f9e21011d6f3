//! `serve_ingest`: a standalone `Server` over a `DurableStore` on the
//! program's own `MemDir`, recovered from a checkpoint plus a WAL tail,
//! under interleaved ingest, uniform pair reads, `topk`, and
//! count-triggered checkpoints. The op sequence is one pass from the
//! recovered state; before every pass the store is recovered afresh
//! (untimed), so every pass reads the same store whatever the machine's
//! speed, and each pass is one slice of the measured window.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use bmb_basket::{DurabilityConfig, DurableStore, IncrementalStore, ItemId, Itemset, StoreConfig};
use bmb_core::{CacheStats, EngineConfig, QueryEngine};
use bmb_serve::json::Value;
use bmb_serve::server::RunningServer;
use bmb_serve::{parse_request, Client, EngineService, Server};
use rand::rngs::StdRng;
use rand::Rng;

use crate::drive::{cycled_loop, AfterOp, Kind, Op, Window};
use crate::inputs;
use crate::media::{CountingDir, Written};
use crate::serve::{
    cache_delta, cache_layers, engine_layers, engine_replay, front_layers, io_err, med,
    server_config, traced_ping, verify, write_spans, InProcess, Samples, PING_EVERY,
};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use crate::{Args, E2e, Outcome, SETUP_REPS};

/// serve_ingest: items (reads are uniform pairs over all of them).
const INGEST_ITEMS: usize = 200;
/// serve_ingest: baskets at start (checkpoint + WAL tail).
const INGEST_BASE: usize = 60_000;
/// serve_ingest: baskets covered by the pre-built checkpoint.
const INGEST_CKPT_AT: usize = 40_000;
/// Baskets per ingest request.
const INGEST_BATCH: usize = 100;
/// One ingest per this many ops: the write rate of the repository's
/// serving load generator (`serve_loadgen`: 20 ingests of 100 baskets
/// beside 1,000 reads, about two baskets per read).
const INGEST_EVERY: usize = 50;
/// Ingests per pass; each pass ingests distinct batches.
const PASS_INGESTS: usize = 96;
/// Ops per pass.
const PASS_OPS: usize = PASS_INGESTS * INGEST_EVERY;
/// Ingests between two `checkpoint` calls.
const CHECKPOINT_EVERY: usize = 16;
/// Uniform pairs the server's engine reads in process before each
/// pass, so every pass starts with a full segment cache.
const WARM_PAIRS: usize = 5_000;

/// Position of the pass's one `topk`. One `topk` costs about 2,000 pair
/// reads (it scores every pair), so the load generator's 10 % share
/// would make throughput a `topk` measurement; one per pass keeps it
/// far below the 1 % cap and still times it.
const TOPK_AT: usize = PASS_OPS / 2 - 2;

/// One pass: per 50 ops one 100-basket `ingest`, a `checkpoint` after
/// every 16 ingests, one `topk`, and uniform `chi2` pair reads over
/// every item for the rest.
fn ingest_ops(seed: u64, batches: &[String]) -> Vec<Op> {
    let mut rng = inputs::rng(seed, 2);
    let block = INGEST_EVERY * CHECKPOINT_EVERY;
    (0..PASS_OPS)
        .map(|i| {
            let id = i as i64;
            let (line, kind, tag) = if i % INGEST_EVERY == INGEST_EVERY / 2 {
                let tag = i / INGEST_EVERY;
                let line = format!(r#"{{"id":{id},"cmd":"ingest","baskets":{}}}"#, batches[tag]);
                (line, Kind::Write, tag)
            } else if i % block == block - 1 {
                let line = format!(r#"{{"id":{id},"cmd":"checkpoint"}}"#);
                (line, Kind::Admin, 0)
            } else if i == TOPK_AT {
                (
                    format!(r#"{{"id":{id},"cmd":"topk","k":10}}"#),
                    Kind::Read,
                    0,
                )
            } else {
                let (a, b) = random_pair(&mut rng);
                let line = format!(r#"{{"id":{id},"cmd":"chi2","items":[{a},{b}]}}"#);
                (line, Kind::Read, 0)
            };
            Op {
                line,
                kind,
                id,
                tag,
            }
        })
        .collect()
}

/// Two distinct items, uniform over the item space.
fn random_pair(rng: &mut StdRng) -> (u32, u32) {
    let a = rng.gen_range(0..INGEST_ITEMS as u32);
    let mut b = rng.gen_range(0..INGEST_ITEMS as u32 - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

fn to_items(baskets: &[Vec<u32>]) -> Vec<Vec<ItemId>> {
    baskets
        .iter()
        .map(|b| b.iter().map(|&i| ItemId(i)).collect())
        .collect()
}

/// Pre-built media: a checkpoint at [`INGEST_CKPT_AT`] baskets plus a
/// WAL tail of 100-basket records up to [`INGEST_BASE`].
fn build_media(base: &[Vec<u32>]) -> Result<CountingDir, String> {
    let (dir, _) = CountingDir::new();
    let media = dir.reopen();
    let (store, _) = DurableStore::open_dir(
        Box::new(dir),
        INGEST_ITEMS,
        StoreConfig::default(),
        DurabilityConfig::default(),
    )
    .map_err(|e| format!("create media: {e}"))?;
    for chunk in base[..INGEST_CKPT_AT].chunks(1000) {
        store
            .append_batch(to_items(chunk))
            .map_err(|e| format!("build media: {e}"))?;
    }
    store
        .checkpoint()
        .map_err(|e| format!("build checkpoint: {e}"))?;
    for chunk in base[INGEST_CKPT_AT..].chunks(INGEST_BATCH) {
        store
            .append_batch(to_items(chunk))
            .map_err(|e| format!("build WAL tail: {e}"))?;
    }
    Ok(media)
}

/// A copy of `media` to recover from; the original stays as built.
fn copy(media: &CountingDir) -> Result<CountingDir, String> {
    media.copy().map_err(|e| format!("copy media: {e}"))
}

/// Recovers a durable store from `copy`.
fn recover(copy: CountingDir) -> Result<(DurableStore, u64, Arc<Written>), String> {
    let written = copy.written();
    let (store, report) = DurableStore::open_dir(
        Box::new(copy),
        INGEST_ITEMS,
        StoreConfig::default(),
        DurabilityConfig::default(),
    )
    .map_err(|e| format!("recover: {e}"))?;
    Ok((store, report.baskets_recovered, written))
}

/// Reads every pair in process through `engine`, filling its caches.
fn warm(engine: &QueryEngine, pairs: &[(u32, u32)]) -> Result<(), String> {
    let snap = engine.snapshot();
    for &(a, b) in pairs {
        engine
            .chi2(&snap, &Itemset::from_ids([a, b]))
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    Ok(())
}

/// A server over a freshly recovered store.
struct IngestNode {
    engine: Arc<QueryEngine>,
    server: RunningServer,
    addr: String,
    /// Counts what the server's store appends to its directory.
    written: Arc<Written>,
    /// Bytes and cache counters once the node was ready for its pass.
    written_at_start: u64,
    cache_at_start: CacheStats,
}

/// Recovery, binding and connecting, with their times.
struct Boot {
    node: IngestNode,
    client: Client,
    setup_s: f64,
    recovery_s: f64,
    replayed: u64,
}

/// Copies `media` (untimed), recovers from the copy and binds a server
/// over the store (timed: `setup_s`), then warms its engine (untimed).
fn boot(media: &CountingDir, warm_pairs: &[(u32, u32)]) -> Result<Boot, String> {
    let copy = copy(media)?;
    let start = Instant::now();
    let (durable, replayed, written) = recover(copy)?;
    let recovery_s = start.elapsed().as_secs_f64();
    let durable = Arc::new(durable);
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(durable.store()),
        EngineConfig::default(),
    ));
    let server = Server::bind(Arc::clone(&engine), server_config())
        .map_err(io_err("bind"))?
        .with_durable_store(durable);
    let addr = server.local_addr().to_string();
    let server = server.spawn();
    let client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    let setup_s = start.elapsed().as_secs_f64();
    warm(&engine, warm_pairs)?;
    let node = IngestNode {
        cache_at_start: engine.cache_stats(),
        written_at_start: written.total(),
        engine,
        server,
        addr,
        written,
    };
    Ok(Boot {
        node,
        client,
        setup_s,
        recovery_s,
        replayed,
    })
}

/// What the passes' nodes did, summed as each node stops.
#[derive(Default)]
struct Served {
    setups: Vec<f64>,
    recoveries: Vec<f64>,
    replayed: u64,
    /// Bytes the stores appended during their passes.
    written: u64,
    /// Engine cache counters over the passes.
    cache: CacheStats,
}

impl Served {
    /// Stops `node`, adding what it did during its pass.
    fn stop(&mut self, node: IngestNode) -> Result<(), String> {
        self.written += node.written.total() - node.written_at_start;
        let delta = cache_delta(node.cache_at_start, node.engine.cache_stats());
        self.cache = add_cache(self.cache, delta);
        node.server.stop().map_err(io_err("stop server"))
    }
}

fn add_cache(a: CacheStats, b: CacheStats) -> CacheStats {
    CacheStats {
        table_hits: a.table_hits + b.table_hits,
        table_misses: a.table_misses + b.table_misses,
        table_evictions: a.table_evictions + b.table_evictions,
        segment_hits: a.segment_hits + b.segment_hits,
        segment_misses: a.segment_misses + b.segment_misses,
        segment_evictions: a.segment_evictions + b.segment_evictions,
    }
}

/// The traced run's in-process mirror of the server's state for one
/// pass: a second durable store recovered from the same media, two
/// engines over it warmed like the server's (one behind an
/// `EngineService` for the front-end replay, one for the engine-level
/// calls), and a WAL-less store fed the same batches.
struct IngestShadow {
    durable: Arc<DurableStore>,
    service: EngineService,
    engine: Arc<QueryEngine>,
    plain: IncrementalStore,
    seals_at_start: usize,
    dispatcher: InProcess,
}

impl IngestShadow {
    fn new(
        media: &CountingDir,
        base: &[Vec<u32>],
        warm_pairs: &[(u32, u32)],
    ) -> Result<IngestShadow, String> {
        let (durable, _, _) = recover(copy(media)?)?;
        let durable = Arc::new(durable);
        let engine = || {
            Arc::new(QueryEngine::new(
                Arc::clone(durable.store()),
                EngineConfig::default(),
            ))
        };
        let (service_engine, engine) = (engine(), engine());
        warm(&service_engine, warm_pairs)?;
        warm(&engine, warm_pairs)?;
        let plain = IncrementalStore::new(INGEST_ITEMS, StoreConfig::default());
        plain
            .append_batch(to_items(base))
            .map_err(|e| format!("plain store: {e}"))?;
        Ok(IngestShadow {
            service: EngineService::new(service_engine).with_durable(Arc::clone(&durable)),
            engine,
            durable,
            seals_at_start: plain.snapshot().sealed_segments().len(),
            plain,
            dispatcher: InProcess::new(),
        })
    }

    /// Applies one op in process, each call in its span.
    fn apply(&self, op: &Op, batch: &[Vec<ItemId>], index: u64, tracer: &mut Tracer, root: SpanId) {
        match op.kind {
            Kind::Read => {
                self.dispatcher.traced(
                    &self.service,
                    &op.line,
                    "serve.dispatch",
                    index,
                    tracer,
                    root,
                );
                engine_replay(&self.engine, &op.line, true, index, tracer, root);
            }
            Kind::Write => {
                let parsed = tracer.time("serve.parse", index, root, || parse_request(&op.line));
                std::hint::black_box(parsed.ok());
                let acked = tracer.time("wal.append", index, root, || {
                    self.durable.append_batch(batch.to_vec())
                });
                std::hint::black_box(acked.ok());
                let applied = tracer.time("store.append", index, root, || {
                    self.plain.append_batch(batch.to_vec())
                });
                std::hint::black_box(applied.ok());
            }
            Kind::Admin => {
                let stats =
                    tracer.time("wal.checkpoint", index, root, || self.durable.checkpoint());
                std::hint::black_box(stats.ok());
            }
        }
    }

    /// Segments sealed since the pass began.
    fn seals(&self) -> usize {
        self.plain.snapshot().sealed_segments().len() - self.seals_at_start
    }
}

/// The same server over a `DurableStore` on `MemDir`, recovered from a
/// checkpoint plus a WAL tail before every pass, under interleaved
/// ingest, uniform pair reads, `topk`, and count-triggered checkpoints.
pub fn serve_ingest(args: &Args) -> Result<Outcome, String> {
    let base_db = inputs::quest(args.seed, INGEST_BASE, INGEST_ITEMS, 10.0);
    let base = inputs::basket_ids(&base_db);
    let extra = inputs::quest(
        args.seed ^ 0xA5A5,
        INGEST_BATCH * PASS_INGESTS,
        INGEST_ITEMS,
        10.0,
    );
    let extra = inputs::basket_ids(&extra);
    let batches: Vec<Vec<Vec<u32>>> = extra.chunks(INGEST_BATCH).map(<[_]>::to_vec).collect();
    let batch_json: Vec<String> = batches.iter().map(|b| inputs::baskets_json(b)).collect();
    let batch_items: Vec<Vec<Vec<ItemId>>> = batches.iter().map(|b| to_items(b)).collect();
    let ops = ingest_ops(args.seed, &batch_json);
    let mut rng = inputs::rng(args.seed, 4);
    let warm_pairs: Vec<(u32, u32)> = (0..WARM_PAIRS).map(|_| random_pair(&mut rng)).collect();
    let segments = INGEST_BASE.div_ceil(StoreConfig::default().segment_capacity);
    let reads = PASS_OPS - PASS_INGESTS - PASS_INGESTS / CHECKPOINT_EVERY;
    println!(
        "workload: serve_ingest baskets={INGEST_BASE} (checkpoint {INGEST_CKPT_AT} + WAL tail {}) items={INGEST_ITEMS} \
         pair_reads={} sealed_segments~{segments} segment_working_set~{} segment_cache={} \
         pass={PASS_OPS}_ops(chi2:{},ingest:{PASS_INGESTS}x{INGEST_BATCH},topk:1,checkpoint:{}) \
         warm_pairs={WARM_PAIRS} client=closed-loop x1",
        INGEST_BASE - INGEST_CKPT_AT,
        INGEST_ITEMS * (INGEST_ITEMS - 1) / 2,
        segments * INGEST_ITEMS * (INGEST_ITEMS - 1) / 2,
        EngineConfig::default().segment_cache,
        reads - 1,
        PASS_INGESTS / CHECKPOINT_EVERY,
    );

    let media = build_media(&base)?;
    let served = RefCell::new(Served::default());
    let node: RefCell<Option<IngestNode>> = RefCell::new(None);
    let stop_node = || -> Result<(), String> {
        match node.borrow_mut().take() {
            Some(old) => served.borrow_mut().stop(old),
            None => Ok(()),
        }
    };
    // Stops the previous pass's server, then boots a fresh one.
    let next_node = || -> Result<(Client, String), String> {
        stop_node()?;
        let boot = boot(&media, &warm_pairs)?;
        let mut served = served.borrow_mut();
        served.setups.push(boot.setup_s);
        served.recoveries.push(boot.recovery_s);
        served.replayed = boot.replayed;
        let addr = boot.node.addr.clone();
        *node.borrow_mut() = Some(boot.node);
        Ok((boot.client, addr))
    };

    let mut outcome = Outcome::default();
    let mut samples = Samples::new(args.seed);
    let mut ingest_check: Vec<String> = Vec::new();
    // Bytes of item ids in the acknowledged ingests.
    let mut user_bytes = 0u64;
    let mut keep = |after: &AfterOp<'_>| {
        samples.offer(after);
        check_ack(after, &mut ingest_check);
        if after.op.kind == Kind::Write && after.response.is_some() {
            user_bytes += batches[after.op.tag]
                .iter()
                .map(|b| 4 * b.len() as u64)
                .sum::<u64>();
        }
    };
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let window = cycled_loop(
        &ops,
        untraced_seconds,
        &mut Tracer::new(false),
        &mut || next_node(),
        &mut |after| keep(&after),
    )?;
    stop_node()?;
    outcome.absorb("untraced", &window);
    outcome.e2e = E2e::from_window(&window)?;
    print_writes(&window);

    if args.trace {
        let cache_before = served.borrow().cache;
        let shadow: RefCell<Option<IngestShadow>> = RefCell::new(None);
        let pinger: RefCell<Option<Client>> = RefCell::new(None);
        let mut seals = Vec::new();
        let mut tracer = Tracer::new(true);
        let traced = cycled_loop(
            &ops,
            args.seconds - untraced_seconds,
            &mut tracer,
            &mut || {
                *shadow.borrow_mut() = None;
                let (client, addr) = next_node()?;
                *shadow.borrow_mut() = Some(IngestShadow::new(&media, &base, &warm_pairs)?);
                *pinger.borrow_mut() =
                    Some(Client::connect(&addr).map_err(|e| format!("connect: {e}"))?);
                Ok((client, addr))
            },
            &mut |after| {
                keep(&after);
                let shadow = shadow.borrow();
                let Some(shadow) = shadow.as_ref() else {
                    return;
                };
                let op = after.index as u64;
                shadow.apply(
                    after.op,
                    &batch_items[after.op.tag],
                    op,
                    after.tracer,
                    after.root,
                );
                if after.index % PASS_OPS == PASS_OPS - 1 {
                    seals.push(shadow.seals() as f64);
                }
                if after.index % PING_EVERY == 0 {
                    if let Some(pinger) = pinger.borrow_mut().as_mut() {
                        traced_ping(pinger, op, after.tracer, after.root);
                    }
                }
            },
        )?;
        stop_node()?;
        cache_layers(
            &mut outcome,
            cache_delta(cache_before, served.borrow().cache),
        );
        outcome.absorb("traced", &traced);
        outcome.traced = E2e::from_window(&traced).ok();
        print_writes(&traced);
        front_layers(&mut outcome, &tracer, "serve.dispatch");
        engine_layers(&mut outcome, &tracer);
        let summary = tracer.summary();
        if let Some(time) = summary.get("store.append") {
            let appended = time.count() * INGEST_BATCH;
            if appended > 0 {
                outcome.layers.insert(
                    "store.append_us_per_basket",
                    time.total_us / appended as f64,
                );
            }
        }
        outcome.layers.insert("store.seals", median(&seals));
        outcome
            .layers
            .insert("wal.append_us", med(&summary, "wal.append"));
        outcome
            .layers
            .insert("wal.checkpoint_us", med(&summary, "wal.checkpoint"));
        write_spans(&tracer, "serve_ingest");
    }
    let mut served = served.into_inner();
    // Write amplification over the whole measured run: every byte the
    // stores appended to their directories during their passes per byte
    // of ingested item ids.
    println!(
        "storage: bytes_written={} user_bytes={user_bytes} replayed_baskets={}",
        served.written, served.replayed
    );
    if args.trace {
        if user_bytes > 0 {
            outcome.layers.insert(
                "wal.bytes_per_user_byte",
                served.written as f64 / user_bytes as f64,
            );
        }
        outcome
            .layers
            .insert("wal.replayed_baskets", served.replayed as f64);
    }

    println!("verified samples={}", samples.kept().len());
    outcome.mismatches = ingest_check;
    outcome.mismatches.extend(verify(
        samples.kept(),
        &ops,
        &base_db,
        &|tag| batch_items[tag].clone(),
        false,
    ));
    // `setup_s` is the median over every pass's recovery and bind; a run
    // with fewer passes than SETUP_REPS boots the rest afterwards.
    while served.setups.len() < SETUP_REPS {
        let boot = boot(&media, &[])?;
        served.setups.push(boot.setup_s);
        served.recoveries.push(boot.recovery_s);
        drop(boot.client);
        boot.node.server.stop().map_err(io_err("stop server"))?;
    }
    outcome.set_setup(&served.setups);
    if args.trace {
        outcome
            .layers
            .insert("wal.recovery_s", median(&served.recoveries));
    }
    Ok(outcome)
}

/// Every acknowledged ingest must report the epoch exactly
/// [`INGEST_BATCH`] baskets past the previous one of its pass.
fn check_ack(after: &AfterOp<'_>, checks: &mut Vec<String>) {
    if after.op.kind != Kind::Write {
        return;
    }
    let Some(response) = after.response else {
        return;
    };
    let ingests = ((after.index % PASS_OPS) / INGEST_EVERY + 1) as u64;
    let expected = INGEST_BASE as u64 + ingests * INGEST_BATCH as u64;
    let epoch = response
        .get("result")
        .and_then(|r| r.get("epoch"))
        .and_then(Value::as_u64);
    if epoch != Some(expected) {
        checks.push(format!(
            "op {}: ingest acked epoch {epoch:?}, expected {expected}",
            after.index
        ));
    }
}

/// Prints the ingest-ack latency (a diagnostic: only this workload
/// writes, so it is not an end-to-end metric of every workload).
fn print_writes(window: &Window) {
    match (
        window.writes.quantile_us(0.5),
        window.writes.quantile_us(0.9),
    ) {
        (Ok(p50), Ok(p90)) => println!(
            "writes: write_p50_us={p50:.3} write_p90_us={p90:.3} samples={}",
            window.writes.len()
        ),
        (p50, _) => println!("writes: {:?} samples={}", p50.err(), window.writes.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_holds_its_ingests_checkpoints_and_one_topk() {
        let batches: Vec<String> = (0..PASS_INGESTS).map(|i| format!("[[{i}]]")).collect();
        let ops = ingest_ops(7, &batches);
        assert_eq!(ops.len(), PASS_OPS);
        let tags: Vec<usize> = ops
            .iter()
            .filter(|op| op.kind == Kind::Write)
            .map(|op| op.tag)
            .collect();
        assert_eq!(tags, (0..PASS_INGESTS).collect::<Vec<_>>());
        let checkpoints = ops.iter().filter(|op| op.kind == Kind::Admin).count();
        assert_eq!(checkpoints, PASS_INGESTS / CHECKPOINT_EVERY);
        let topk = ops.iter().filter(|op| op.line.contains("topk")).count();
        assert_eq!(topk, 1);
        // Each checkpoint follows the 16th ingest since the previous one.
        for (i, op) in ops.iter().enumerate() {
            if op.kind == Kind::Admin {
                assert_eq!((i / INGEST_EVERY + 1) % CHECKPOINT_EVERY, 0);
            }
        }
    }
}
