//! `cluster_scatter`: serve_hot's baskets and read mix behind an
//! in-process `CoordinatorService` over two shard servers. Every query
//! scatters `support_vec` to both shards, merges, and evaluates
//! centrally; answers must be byte-identical to a single node.

use std::sync::Arc;
use std::time::Instant;

use bmb_basket::{IncrementalStore, Itemset, StoreConfig};
use bmb_cluster::{CoordinatorConfig, CoordinatorService};
use bmb_core::{merge_support_vectors, subset_itemsets, table_from_subset_supports};
use bmb_core::{EngineConfig, QueryEngine};
use bmb_serve::json::{parse, Value};
use bmb_serve::server::RunningServer;
use bmb_serve::{parse_request, Client, Request, Server, Service};
use bmb_stats::Chi2Test;

use crate::drive::closed_loop;
use crate::inputs;
use crate::serve::{self, InProcess, HOT_BASKETS, HOT_ITEMS, PING_EVERY};
use crate::trace::{SpanId, Tracer};
use crate::{Args, E2e, Outcome, SETUP_REPS};

/// Shard servers behind the coordinator.
const SHARDS: usize = 2;
/// Baskets per preload `ingest` through the coordinator.
const PRELOAD_BATCH: usize = 500;

struct Cluster {
    coordinator: Arc<CoordinatorService>,
    front: RunningServer,
    shards: Vec<RunningServer>,
    shard_addrs: Vec<String>,
    addr: String,
}

impl Cluster {
    fn stop(self) -> Result<(), String> {
        // Signal every server first, so their drains overlap instead of
        // each waiting out its own poll interval in turn.
        self.front.shutdown.shutdown();
        for shard in &self.shards {
            shard.shutdown.shutdown();
        }
        self.front
            .stop()
            .map_err(|e| format!("stop coordinator: {e}"))?;
        for shard in self.shards {
            shard.stop().map_err(|e| format!("stop shard: {e}"))?;
        }
        Ok(())
    }
}

/// Boots the shards and the coordinator, then preloads every basket
/// through the coordinator so its partitioner routes them.
fn boot(preload: &[String]) -> Result<(Cluster, Client), String> {
    let mut shards = Vec::new();
    let mut shard_addrs = Vec::new();
    for _ in 0..SHARDS {
        let store = Arc::new(IncrementalStore::new(HOT_ITEMS, StoreConfig::default()));
        let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
        let server =
            Server::bind(engine, serve::server_config()).map_err(|e| format!("bind shard: {e}"))?;
        shard_addrs.push(server.local_addr().to_string());
        shards.push(server.spawn());
    }
    let coordinator = Arc::new(CoordinatorService::new(CoordinatorConfig::new(
        HOT_ITEMS,
        shard_addrs.clone(),
    )));
    let service: Arc<dyn Service> = Arc::clone(&coordinator) as Arc<dyn Service>;
    let server = Server::bind_service(service, serve::server_config())
        .map_err(|e| format!("bind coordinator: {e}"))?;
    let addr = server.local_addr().to_string();
    let front = server.spawn();
    let mut client = Client::connect(&addr).map_err(|e| format!("connect: {e}"))?;
    serve::send_all(&mut client, preload)?;
    Ok((
        Cluster {
            coordinator,
            front,
            shards,
            shard_addrs,
            addr,
        },
        client,
    ))
}

/// The coordinator's per-query work redone by the benchmark, one span
/// per step: `support_vec` to each shard over the benchmark's own
/// clients (`cluster.shard_rpc`), then merge + Möbius inversion
/// (`cluster.merge_eval`) with the χ² test as its child span.
struct ScatterProbe {
    shards: Vec<Client>,
    test: Chi2Test,
}

impl ScatterProbe {
    fn run(&mut self, line: &str, op: u64, tracer: &mut Tracer, root: SpanId) {
        let Ok(envelope) = parse_request(line) else {
            return;
        };
        let items = match envelope.request {
            Request::Chi2 { items } | Request::Interest { items, .. } => items,
            Request::Chi2Batch { mut itemsets } => itemsets.swap_remove(0),
            _ => return,
        };
        let set = Itemset::from_ids(items);
        let subsets = subset_itemsets(&set);
        let lists: Vec<String> = subsets
            .iter()
            .map(|s| inputs::ids_json(&s.iter().map(|i| i.0).collect::<Vec<_>>()))
            .collect();
        let request = format!(
            r#"{{"cmd":"support_vec","itemsets":[{}]}}"#,
            lists.join(",")
        );
        let mut vectors: Vec<Vec<u64>> = Vec::with_capacity(self.shards.len());
        for shard in &mut self.shards {
            let reply = tracer.time("cluster.shard_rpc", op, root, || {
                shard.request_line(&request)
            });
            let supports = reply.ok().and_then(|text| parse(&text).ok()).and_then(|v| {
                v.get("result")?
                    .get("supports")?
                    .as_array()?
                    .iter()
                    .map(Value::as_u64)
                    .collect::<Option<Vec<u64>>>()
            });
            match supports {
                Some(v) if v.len() == subsets.len() => vectors.push(v),
                _ => return,
            }
        }
        let merge = tracer.begin("cluster.merge_eval", op, root);
        let mut acc = vec![0u64; subsets.len()];
        for vector in &vectors {
            merge_support_vectors(&mut acc, vector);
        }
        let table = table_from_subset_supports(&set, &acc);
        let outcome = tracer.time("stats.chi2_test", op, merge, || {
            self.test.test_dense(&table)
        });
        tracer.end(merge);
        std::hint::black_box(outcome);
    }
}

/// serve_hot's workload behind a two-shard scatter-gather coordinator.
pub fn cluster_scatter(args: &Args) -> Result<Outcome, String> {
    let db = inputs::quest(args.seed, HOT_BASKETS, HOT_ITEMS, 10.0);
    let (ops, hot) = serve::hot_ops(args.seed, &db);
    let baskets = inputs::basket_ids(&db);
    let preload: Vec<String> = baskets
        .chunks(PRELOAD_BATCH)
        .map(|chunk| {
            format!(
                r#"{{"cmd":"ingest","baskets":{}}}"#,
                inputs::baskets_json(chunk)
            )
        })
        .collect();
    println!(
        "workload: cluster_scatter shards={SHARDS} baskets={} items={HOT_ITEMS} hot_set={} \
         preload_batch={PRELOAD_BATCH} mix=chi2:6/9,chi2_batch:2/9,interest:1/9 client=closed-loop x1",
        db.len(),
        hot.len()
    );

    let start = Instant::now();
    let (cluster, mut client) = boot(&preload)?;
    let mut setups = vec![start.elapsed().as_secs_f64()];
    let warm = serve::warm_lines(&hot);
    serve::send_all(&mut client, &warm[..warm.len().min(256)])?;

    let mut outcome = Outcome::default();
    let mut samples = serve::Samples::new(args.seed);
    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let window = closed_loop(
        &mut client,
        &cluster.addr,
        &ops,
        0,
        untraced_seconds,
        &mut Tracer::new(false),
        &mut |after| samples.offer(&after),
    );
    outcome.absorb("untraced", &window);
    outcome.e2e = E2e::from_window(&window)?;
    let mut end = window.next;

    if args.trace {
        // The single-node baseline for `cluster.overhead_x`: serve_hot's
        // server over the same baskets, same ops, a short untraced pass.
        let single_seconds = (args.seconds / 8.0).min(1.0);
        let traced_seconds = args.seconds - untraced_seconds - single_seconds;
        let store = Arc::new(IncrementalStore::from_database(&db, StoreConfig::default()));
        let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
        let test = *engine.test();
        let single = Server::bind(engine, serve::server_config())
            .map_err(|e| format!("bind single node: {e}"))?;
        let single_addr = single.local_addr().to_string();
        let single = single.spawn();
        let mut single_client =
            Client::connect(&single_addr).map_err(|e| format!("connect: {e}"))?;
        serve::send_all(&mut single_client, &warm)?;
        let baseline = closed_loop(
            &mut single_client,
            &single_addr,
            &ops,
            0,
            single_seconds,
            &mut Tracer::new(false),
            &mut |_| {},
        );
        drop(single_client);
        single
            .stop()
            .map_err(|e| format!("stop single node: {e}"))?;
        let single_p50 = E2e::from_window(&baseline)?.op_p50_us;

        let mut probe = ScatterProbe {
            shards: cluster
                .shard_addrs
                .iter()
                .map(|a| Client::connect(a).map_err(|e| format!("connect shard: {e}")))
                .collect::<Result<_, _>>()?,
            test,
        };
        let dispatcher = InProcess::new();
        let mut pinger = Client::connect(&cluster.addr).map_err(|e| format!("connect: {e}"))?;
        let mut tracer = Tracer::new(true);
        let coordinator: &dyn Service = cluster.coordinator.as_ref();
        let traced = closed_loop(
            &mut client,
            &cluster.addr,
            &ops,
            end,
            traced_seconds,
            &mut tracer,
            &mut |after| {
                samples.offer(&after);
                let op = after.index as u64;
                dispatcher.traced(
                    coordinator,
                    &after.op.line,
                    "cluster.dispatch",
                    op,
                    after.tracer,
                    after.root,
                );
                probe.run(&after.op.line, op, after.tracer, after.root);
                if after.index % PING_EVERY == 0 {
                    serve::traced_ping(&mut pinger, op, after.tracer, after.root);
                }
            },
        );
        outcome.absorb("traced", &traced);
        outcome.traced = E2e::from_window(&traced).ok();
        end = traced.next;
        serve::front_layers(&mut outcome, &tracer, "cluster.dispatch");
        let summary = tracer.summary();
        for (metric, span) in [
            ("cluster.shard_rpc_us", "cluster.shard_rpc"),
            ("cluster.dispatch_us", "cluster.dispatch"),
            ("cluster.merge_eval_us", "cluster.merge_eval"),
            ("stats.chi2_test_us", "stats.chi2_test"),
        ] {
            outcome.layers.insert(metric, serve::med(&summary, span));
        }
        println!(
            "single node: op_p50_us={single_p50:.3} ops={} (cluster untraced op_p50_us={:.3})",
            baseline.completed(),
            outcome.e2e.op_p50_us
        );
        outcome
            .layers
            .insert("cluster.overhead_x", outcome.e2e.op_p50_us / single_p50);
        serve::write_spans(&tracer, "cluster_scatter");
    }
    println!("verified ops: 0..{end}, samples={}", samples.kept().len());
    outcome.mismatches = serve::verify(samples.kept(), &ops, &db, &|_| Vec::new(), true);
    drop(client);
    cluster.stop()?;
    for _ in 1..SETUP_REPS {
        let start = Instant::now();
        let (cluster, client) = boot(&preload)?;
        setups.push(start.elapsed().as_secs_f64());
        drop(client);
        cluster.stop()?;
    }
    outcome.set_setup(&setups);
    Ok(outcome)
}
