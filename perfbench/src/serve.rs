//! `serve_hot`: a standalone `Server` over an at-rest store, driven over
//! TCP by one closed-loop client, plus the in-process pieces both serve
//! workloads and the cluster workload share (front-end replay, engine
//! probes, answer verification).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bmb_basket::{BasketDatabase, IncrementalStore, ItemId, Itemset, StoreConfig};
use bmb_core::{CacheStats, EngineConfig, QueryEngine};
use bmb_sampling::Zipf;
use bmb_serve::json::Value;
use bmb_serve::protocol::ok_response;
use bmb_serve::server::RunningServer;
use bmb_serve::{
    parse_request, Client, EngineService, Request, Server, ServerConfig, ServerMetrics, Service,
    ServiceCtx,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::drive::{closed_loop, AfterOp, Kind, Op};
use crate::inputs;
use crate::stats::median;
use crate::trace::{LayerTime, SpanId, Tracer};
use crate::{Args, E2e, Outcome, SETUP_REPS};

/// serve_hot / cluster_scatter database: baskets, items, mean length.
pub const HOT_BASKETS: usize = 60_000;
/// Items in the serve_hot database.
pub const HOT_ITEMS: usize = 500;
/// Distinct itemsets queried; fits the engine's 4,096-entry table LRU.
pub const HOT_SET: usize = 1024;
/// The hot set draws its items from this many most supported items.
const HOT_TOP_ITEMS: usize = 120;
/// Zipf exponent of hot-set popularity.
const HOT_ZIPF: f64 = 1.0;
/// Op sequence length; runs cycle through it.
const POOL: usize = 1 << 16;
/// Served answers verified per run.
const SAMPLES: usize = 1000;

/// The server settings every workload uses: two workers (one for the
/// load connection, one spare) and a slow shutdown poll, so idle
/// workers stay asleep.
pub fn server_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        poll_interval: Duration::from_millis(200),
        ..ServerConfig::default()
    }
}

pub fn io_err(what: &str) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{what}: {e}")
}

/// The serve_hot read mix over a hot set: the shares of the repository's
/// serving load generator (`serve_loadgen`: `chi2` 60 %, `chi2_batch`
/// of four 20 %, `interest` 10 %) without its `topk`, that is 6 : 2 : 1,
/// each itemset drawn Zipf.
pub fn hot_ops(seed: u64, db: &BasketDatabase) -> (Vec<Op>, Vec<Vec<u32>>) {
    let mut rng = inputs::rng(seed, 1);
    let hot = inputs::hot_set(&mut rng, db, HOT_SET, HOT_TOP_ITEMS);
    let zipf = Zipf::new(hot.len(), HOT_ZIPF);
    let ops = (0..POOL)
        .map(|i| {
            let id = i as i64;
            let roll = rng.gen_range(0..9u32);
            let set = &hot[zipf.sample(&mut rng)];
            let line = match roll {
                0..=5 => format!(
                    r#"{{"id":{id},"cmd":"chi2","items":{}}}"#,
                    inputs::ids_json(set)
                ),
                6 | 7 => {
                    let sets: Vec<String> = (0..4)
                        .map(|_| inputs::ids_json(&hot[zipf.sample(&mut rng)]))
                        .collect();
                    format!(
                        r#"{{"id":{id},"cmd":"chi2_batch","itemsets":[{}]}}"#,
                        sets.join(",")
                    )
                }
                _ => {
                    let cell = rng.gen_range(0..(1u32 << set.len()));
                    format!(
                        r#"{{"id":{id},"cmd":"interest","items":{},"cell":{cell}}}"#,
                        inputs::ids_json(set)
                    )
                }
            };
            Op {
                line,
                kind: Kind::Read,
                id,
                tag: 0,
            }
        })
        .collect();
    (ops, hot)
}

/// `chi2` over every hot itemset: fills a table cache before timing.
pub fn warm_lines(hot: &[Vec<u32>]) -> Vec<String> {
    hot.iter()
        .map(|set| format!(r#"{{"cmd":"chi2","items":{}}}"#, inputs::ids_json(set)))
        .collect()
}

/// Sends each line once over `client`, untimed; every answer must be ok.
pub fn send_all(client: &mut Client, lines: &[String]) -> Result<(), String> {
    for line in lines {
        let reply = client
            .request_line(line)
            .map_err(|e| format!("warm-up request failed: {e}"))?;
        if !reply.contains(r#""ok":true"#) {
            return Err(format!("warm-up request refused: {reply}"));
        }
    }
    Ok(())
}

/// Service dispatch outside the server: the same `parse_request` →
/// `Service::dispatch` → encode path a worker runs, without TCP.
pub struct InProcess {
    config: ServerConfig,
    metrics: ServerMetrics,
}

impl InProcess {
    /// A dispatcher with the benchmark's server settings.
    pub fn new() -> InProcess {
        InProcess {
            config: server_config(),
            metrics: ServerMetrics::new(),
        }
    }

    /// Dispatches one request line; the success payload or the error.
    pub fn dispatch(&self, service: &dyn Service, line: &str) -> Result<Value, String> {
        let envelope = parse_request(line)?;
        self.run(service, envelope.request)
    }

    fn run(&self, service: &dyn Service, request: Request) -> Result<Value, String> {
        let ctx = ServiceCtx {
            start: Instant::now(),
            config: &self.config,
            metrics: &self.metrics,
            generation: None,
        };
        service.dispatch(request, &ctx).map_err(|f| f.message)
    }

    /// [`InProcess::dispatch`] with `serve.parse`, a dispatch span named
    /// `dispatch_span`, and `serve.encode` spans under `root`.
    pub fn traced(
        &self,
        service: &dyn Service,
        line: &str,
        dispatch_span: &'static str,
        op: u64,
        tracer: &mut Tracer,
        root: SpanId,
    ) -> Option<Value> {
        let envelope = tracer
            .time("serve.parse", op, root, || parse_request(line))
            .ok()?;
        let id = envelope.id;
        let payload = tracer
            .time(dispatch_span, op, root, || {
                self.run(service, envelope.request)
            })
            .ok()?;
        let encoded = tracer.time("serve.encode", op, root, || {
            ok_response(id).with("result", payload.clone()).to_string()
        });
        std::hint::black_box(encoded);
        Some(payload)
    }
}

/// One served answer kept for verification: the op index and its result.
pub struct Sample {
    /// Absolute op index.
    pub index: usize,
    /// The response's `"result"` payload.
    pub result: Value,
}

/// Served answers kept for verification: a uniform sample of at most
/// [`SAMPLES`] reads over the whole run (seeded reservoir sampling), so
/// the benchmark's memory does not grow with the op rate.
pub struct Samples {
    seen: u64,
    kept: Vec<Sample>,
    rng: StdRng,
}

impl Samples {
    /// An empty sample drawn with `seed`.
    pub fn new(seed: u64) -> Samples {
        Samples {
            seen: 0,
            kept: Vec::with_capacity(SAMPLES),
            rng: inputs::rng(seed, 3),
        }
    }

    /// Offers one op's response.
    pub fn offer(&mut self, after: &AfterOp<'_>) {
        if after.op.kind != Kind::Read {
            return;
        }
        let Some(result) = after.response.and_then(|r| r.get("result")) else {
            return;
        };
        self.seen += 1;
        let sample = || Sample {
            index: after.index,
            result: result.clone(),
        };
        if self.kept.len() < SAMPLES {
            self.kept.push(sample());
        } else {
            let slot = self.rng.gen_range(0..self.seen) as usize;
            if slot < SAMPLES {
                self.kept[slot] = sample();
            }
        }
    }

    /// The kept answers.
    pub fn kept(&self) -> &[Sample] {
        &self.kept
    }
}

/// `value` without its top-level `"epochs"` member (the cluster's
/// per-shard epoch vector, which a single node does not send).
pub fn without_epochs(value: &Value) -> Value {
    match value {
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .filter(|(key, _)| key != "epochs")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    }
}

/// Checks sampled answers against a fresh in-process engine: each
/// sampled answer must equal, byte for byte (so f64 bit for bit), the
/// engine's answer at the same position of the op sequence, after the
/// sequence's ingests before that position. Every pass over the
/// sequence starts from the same state (serve_ingest restores it; the
/// other workloads never write), so the position alone fixes the
/// expected answer. `batch_of` maps an ingest op's tag to its baskets.
pub fn verify(
    samples: &[Sample],
    ops: &[Op],
    base: &BasketDatabase,
    batch_of: &dyn Fn(usize) -> Vec<Vec<ItemId>>,
    strip_epochs: bool,
) -> Vec<String> {
    let store = Arc::new(IncrementalStore::from_database(
        base,
        StoreConfig::default(),
    ));
    let service = EngineService::new(Arc::new(QueryEngine::new(
        Arc::clone(&store),
        EngineConfig::default(),
    )));
    let dispatcher = InProcess::new();
    let mut mismatches = Vec::new();
    let mut next = 0usize;
    let mut sorted: Vec<&Sample> = samples.iter().collect();
    sorted.sort_by_key(|s| s.index % ops.len());
    for sample in sorted {
        let position = sample.index % ops.len();
        while next < position {
            let op = &ops[next];
            if op.kind == Kind::Write {
                if let Err(e) = store.append_batch(batch_of(op.tag)) {
                    mismatches.push(format!("reference ingest failed: {e}"));
                    return mismatches;
                }
            }
            next += 1;
        }
        let line = &ops[position].line;
        let served = if strip_epochs {
            without_epochs(&sample.result)
        } else {
            sample.result.clone()
        };
        match dispatcher.dispatch(&service, line) {
            Ok(expected) if expected.to_string() == served.to_string() => {}
            Ok(expected) => mismatches.push(format!(
                "op {}: served {served} but the in-process engine answers {expected}",
                sample.index
            )),
            Err(e) => mismatches.push(format!("op {}: reference failed: {e}", sample.index)),
        }
    }
    if samples.is_empty() {
        mismatches.push("no answer was sampled for verification".to_string());
    }
    mismatches
}

/// Median self time of the spans named `name`, µs.
pub fn med(summary: &BTreeMap<&str, LayerTime>, name: &str) -> f64 {
    summary.get(name).map_or(0.0, LayerTime::self_median_us)
}

/// Sets the per-layer metrics every traced serve-style run measures:
/// front-end spans, the `ping` round trip, and the front end's share
/// of each read's round trip (median over ops of (rtt − dispatch)/rtt).
pub fn front_layers(outcome: &mut Outcome, tracer: &Tracer, dispatch_span: &'static str) {
    let summary = tracer.summary();
    outcome
        .layers
        .insert("serve.ping_rtt_us", med(&summary, "serve.ping"));
    outcome
        .layers
        .insert("serve.parse_us", med(&summary, "serve.parse"));
    outcome
        .layers
        .insert("serve.dispatch_us", med(&summary, "serve.dispatch"));
    outcome
        .layers
        .insert("serve.encode_us", med(&summary, "serve.encode"));
    let dispatch = tracer.by_op(dispatch_span);
    let shares: Vec<f64> = tracer
        .by_op("serve.rtt")
        .into_iter()
        .filter_map(|(op, rtt)| Some((rtt - dispatch.get(&op)?) / rtt))
        .collect();
    outcome
        .layers
        .insert("serve.frontend_share", median(&shares));
    for (name, time) in &summary {
        println!(
            "span {name}: count={} total_us={:.1} self_median_us={:.3}",
            time.count(),
            time.total_us,
            time.self_median_us()
        );
    }
}

/// Sends `ping` over `client` inside a `serve.ping` span.
pub fn traced_ping(client: &mut Client, op: u64, tracer: &mut Tracer, root: SpanId) {
    let reply = tracer.time("serve.ping", op, root, || {
        client.request_line(r#"{"cmd":"ping"}"#)
    });
    std::hint::black_box(reply.ok());
}

/// Ops between two traced `ping`s.
pub const PING_EVERY: usize = 16;

/// Writes the run's spans next to the build output.
pub fn write_spans(tracer: &Tracer, workload: &str) {
    let path = std::path::Path::new(".bench_build")
        .join("perfbench")
        .join(format!("spans-{workload}.tsv"));
    match tracer.write_to(&path) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => println!("spans: not written ({e})"),
    }
}

/// Fraction `hits / (hits + misses)` (0 without lookups).
pub fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn cache_delta(before: CacheStats, after: CacheStats) -> CacheStats {
    CacheStats {
        table_hits: after.table_hits - before.table_hits,
        table_misses: after.table_misses - before.table_misses,
        table_evictions: after.table_evictions - before.table_evictions,
        segment_hits: after.segment_hits - before.segment_hits,
        segment_misses: after.segment_misses - before.segment_misses,
        segment_evictions: after.segment_evictions - before.segment_evictions,
    }
}

/// Sets the engine cache metrics from a counter delta.
pub fn cache_layers(outcome: &mut Outcome, delta: CacheStats) {
    outcome.layers.insert(
        "engine.table_hit_ratio",
        ratio(delta.table_hits, delta.table_misses),
    );
    outcome.layers.insert(
        "engine.segment_hit_ratio",
        ratio(delta.segment_hits, delta.segment_misses),
    );
    outcome
        .layers
        .insert("engine.segment_evictions", delta.segment_evictions as f64);
    println!("engine cache delta: {delta:?}");
}

struct HotNode {
    store: Arc<IncrementalStore>,
    engine: Arc<QueryEngine>,
    server: RunningServer,
    addr: String,
}

fn boot_hot(db: &BasketDatabase) -> Result<HotNode, String> {
    let store = Arc::new(IncrementalStore::from_database(db, StoreConfig::default()));
    let engine = Arc::new(QueryEngine::new(
        Arc::clone(&store),
        EngineConfig::default(),
    ));
    let server = Server::bind(Arc::clone(&engine), server_config()).map_err(io_err("bind"))?;
    let addr = server.local_addr().to_string();
    Ok(HotNode {
        store,
        engine,
        server: server.spawn(),
        addr,
    })
}

/// A standalone server over an at-rest store of Quest baskets, queried
/// from a hot set that fits the table LRU.
pub fn serve_hot(args: &Args) -> Result<Outcome, String> {
    let db = inputs::quest(args.seed, HOT_BASKETS, HOT_ITEMS, 10.0);
    let (ops, hot) = hot_ops(args.seed, &db);
    println!(
        "workload: serve_hot baskets={} items={} hot_set={} table_cache={} mix=chi2:6/9,chi2_batch:2/9,interest:1/9 \
         client=closed-loop x1",
        db.len(),
        HOT_ITEMS,
        hot.len(),
        EngineConfig::default().table_cache
    );

    let boot = || -> Result<(HotNode, Client, f64), String> {
        let start = Instant::now();
        let node = boot_hot(&db)?;
        let client = Client::connect(&node.addr).map_err(|e| format!("connect: {e}"))?;
        Ok((node, client, start.elapsed().as_secs_f64()))
    };
    let (node, mut client, first_setup) = boot()?;
    send_all(&mut client, &warm_lines(&hot))?;

    let mut outcome = Outcome::default();
    let mut samples = Samples::new(args.seed);
    let mut tracer = Tracer::new(false);
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let window = closed_loop(
        &mut client,
        &node.addr,
        &ops,
        0,
        untraced_seconds,
        &mut tracer,
        &mut |after| samples.offer(&after),
    );
    outcome.absorb("untraced", &window);
    outcome.e2e = E2e::from_window(&window)?;
    let mut end = window.next;

    if args.trace {
        // The replay runs on a second engine over the same at-rest
        // store, so the server's own caches see only the TCP load.
        let shadow = Arc::new(QueryEngine::new(
            Arc::clone(&node.store),
            EngineConfig::default(),
        ));
        let service = EngineService::new(Arc::clone(&shadow));
        let dispatcher = InProcess::new();
        for set in &hot {
            shadow
                .chi2(&shadow.snapshot(), &Itemset::from_ids(set.iter().copied()))
                .map_err(|e| format!("shadow warm-up: {e}"))?;
        }
        let mut pinger = Client::connect(&node.addr).map_err(|e| format!("connect: {e}"))?;
        let mut tracer = Tracer::new(true);
        let before = node.engine.cache_stats();
        let traced = closed_loop(
            &mut client,
            &node.addr,
            &ops,
            end,
            args.seconds - untraced_seconds,
            &mut tracer,
            &mut |after| {
                samples.offer(&after);
                let op = after.index as u64;
                dispatcher.traced(
                    &service,
                    &after.op.line,
                    "serve.dispatch",
                    op,
                    after.tracer,
                    after.root,
                );
                engine_replay(&shadow, &after.op.line, false, op, after.tracer, after.root);
                if after.index % PING_EVERY == 0 {
                    traced_ping(&mut pinger, op, after.tracer, after.root);
                }
            },
        );
        cache_layers(&mut outcome, cache_delta(before, node.engine.cache_stats()));
        outcome.absorb("traced", &traced);
        outcome.traced = E2e::from_window(&traced).ok();
        end = traced.next;
        front_layers(&mut outcome, &tracer, "serve.dispatch");
        engine_layers(&mut outcome, &tracer);
        write_spans(&tracer, "serve_hot");
    }
    println!("verified ops: 0..{end}, samples={}", samples.kept().len());
    outcome.mismatches = verify(samples.kept(), &ops, &db, &|_| Vec::new(), false);
    drop(client);
    stop_hot(node)?;
    let mut setups = vec![first_setup];
    for _ in 1..SETUP_REPS {
        let (node, client, seconds) = boot()?;
        setups.push(seconds);
        drop(client);
        stop_hot(node)?;
    }
    outcome.set_setup(&setups);
    Ok(outcome)
}

fn stop_hot(node: HotNode) -> Result<(), String> {
    node.server.stop().map_err(io_err("stop server"))
}

/// The engine-level calls behind one request line, each in its own
/// span: `store.snapshot`, the query (`engine.chi2_hit` or
/// `engine.chi2_miss` by the table-cache counters, or `engine.topk`),
/// `stats.chi2_test` on the query's table, and — with `support` — a
/// cache-bypassing `store.support` of the itemset.
pub fn engine_replay(
    engine: &QueryEngine,
    line: &str,
    support: bool,
    op: u64,
    tracer: &mut Tracer,
    root: SpanId,
) {
    let Ok(envelope) = parse_request(line) else {
        return;
    };
    let snap = tracer.time("store.snapshot", op, root, || engine.snapshot());
    let items = match envelope.request {
        Request::Chi2 { items } | Request::Interest { items, .. } => items,
        Request::Chi2Batch { mut itemsets } => itemsets.swap_remove(0),
        Request::TopK { k } => {
            let pairs = tracer.time("engine.topk", op, root, || engine.topk_pairs(&snap, k));
            std::hint::black_box(pairs.ok());
            return;
        }
        _ => return,
    };
    let set = Itemset::from_ids(items);
    let hits = engine.cache_stats().table_hits;
    let span = tracer.begin("engine.chi2", op, root);
    let answer = engine.chi2(&snap, &set);
    tracer.end(span);
    let hit = engine.cache_stats().table_hits > hits;
    tracer.rename(
        span,
        if hit {
            "engine.chi2_hit"
        } else {
            "engine.chi2_miss"
        },
    );
    std::hint::black_box(answer.ok());
    if let Ok(table) = engine.table(&snap, &set) {
        let outcome = tracer.time("stats.chi2_test", op, root, || {
            engine.test().test_dense(&table)
        });
        std::hint::black_box(outcome);
    }
    if support {
        let count = tracer.time("store.support", op, root, || snap.support(set.items()));
        std::hint::black_box(count);
    }
}

/// Sets the engine/stats/store span metrics.
pub fn engine_layers(outcome: &mut Outcome, tracer: &Tracer) {
    let summary = tracer.summary();
    for (metric, span) in [
        ("engine.chi2_hit_us", "engine.chi2_hit"),
        ("engine.chi2_miss_us", "engine.chi2_miss"),
        ("engine.topk_us", "engine.topk"),
        ("stats.chi2_test_us", "stats.chi2_test"),
        ("store.snapshot_us", "store.snapshot"),
        ("store.support_us", "store.support"),
    ] {
        outcome.layers.insert(metric, med(&summary, span));
    }
}
