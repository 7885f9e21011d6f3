//! The `bmb` subcommands, factored as library functions so they can be
//! tested without spawning processes. Each writes its report to a
//! `Write` sink and returns `Err(message)` on user error.

use std::io::Write;

use bmb_basket::{io as basket_io, BasketDatabase, ItemCatalog, Itemset};
use bmb_core::{mine, mine_walk, pairs_report, MinerConfig, SupportSpec};
use bmb_lattice::WalkConfig;
use bmb_stats::Chi2Test;

use crate::args::{Args, FlagKind};

/// Flags accepted by `bmb mine`.
pub const MINE_SPEC: &[(&str, FlagKind)] = &[
    ("support", FlagKind::Value),
    ("p", FlagKind::Value),
    ("alpha", FlagKind::Value),
    ("max-level", FlagKind::Value),
    ("threads", FlagKind::Value),
    ("numeric", FlagKind::Boolean),
    ("walk", FlagKind::Boolean),
    ("walks", FlagKind::Value),
    ("trace", FlagKind::Boolean),
];

/// Flags accepted by `bmb pairs`.
pub const PAIRS_SPEC: &[(&str, FlagKind)] =
    &[("alpha", FlagKind::Value), ("numeric", FlagKind::Boolean)];

/// Flags accepted by `bmb rules`.
pub const RULES_SPEC: &[(&str, FlagKind)] = &[
    ("support", FlagKind::Value),
    ("confidence", FlagKind::Value),
    ("numeric", FlagKind::Boolean),
];

/// Flags accepted by `bmb generate`.
pub const GENERATE_SPEC: &[(&str, FlagKind)] = &[
    ("n", FlagKind::Value),
    ("items", FlagKind::Value),
    ("seed", FlagKind::Value),
    ("out", FlagKind::Value),
];

/// Flags accepted by `bmb stats`.
pub const STATS_SPEC: &[(&str, FlagKind)] = &[("numeric", FlagKind::Boolean)];

/// Flags accepted by `bmb serve`.
pub const SERVE_SPEC: &[(&str, FlagKind)] = &[
    ("addr", FlagKind::Value),
    ("workers", FlagKind::Value),
    ("items", FlagKind::Value),
    ("segment-capacity", FlagKind::Value),
    ("checkpoint-dir", FlagKind::Value),
    ("checkpoint-every", FlagKind::Value),
    ("checkpoint-interval-secs", FlagKind::Value),
    ("max-connections", FlagKind::Value),
    ("metrics-addr", FlagKind::Value),
    ("events-ledger", FlagKind::Value),
    ("scrub-interval-secs", FlagKind::Value),
    ("repair-peer", FlagKind::Value),
    ("numeric", FlagKind::Boolean),
];

/// Flags accepted by `bmb query`.
pub const QUERY_SPEC: &[(&str, FlagKind)] = &[("timeout-secs", FlagKind::Value)];

/// Flags accepted by `bmb wal` (the `inspect` subcommand).
pub const WAL_SPEC: &[(&str, FlagKind)] = &[("limit", FlagKind::Value), ("dir", FlagKind::Value)];

/// Flags accepted by `bmb fsck` (none; the DIR positional is the input).
pub const FSCK_SPEC: &[(&str, FlagKind)] = &[];

/// Flags accepted by `bmb cluster {serve|shard|follow|chaos}`.
pub const CLUSTER_SPEC: &[(&str, FlagKind)] = &[
    ("addr", FlagKind::Value),
    ("items", FlagKind::Value),
    ("workers", FlagKind::Value),
    ("max-connections", FlagKind::Value),
    ("metrics-addr", FlagKind::Value),
    // coordinator (`cluster serve`)
    ("shards", FlagKind::Value),
    ("followers", FlagKind::Value),
    ("seed", FlagKind::Value),
    ("round-robin", FlagKind::Boolean),
    ("request-timeout-ms", FlagKind::Value),
    ("probe-cooldown-ms", FlagKind::Value),
    // shard identity stamped on spans (`cluster shard`, `cluster follow`)
    ("shard-index", FlagKind::Value),
    // observability clients (`cluster trace`, `cluster events`)
    ("since-us", FlagKind::Value),
    ("timeout-secs", FlagKind::Value),
    // durable roles (`cluster shard`, `cluster follow`)
    ("dir", FlagKind::Value),
    ("segment-capacity", FlagKind::Value),
    ("segment-bytes", FlagKind::Value),
    ("retain-checkpoints", FlagKind::Value),
    ("checkpoint-every", FlagKind::Value),
    ("checkpoint-interval-secs", FlagKind::Value),
    // background integrity scrubbing (`cluster shard`, `cluster
    // follow`); on `cluster serve` the same interval paces the
    // coordinator's anti-entropy digest comparisons
    ("scrub-interval-secs", FlagKind::Value),
    ("repair-peer", FlagKind::Value),
    // follower (`cluster follow`)
    ("primary", FlagKind::Value),
    ("poll-ms", FlagKind::Value),
    // fault proxy (`cluster chaos`)
    ("listen", FlagKind::Value),
    ("upstream", FlagKind::Value),
    ("control", FlagKind::Value),
    ("refuse-per-mille", FlagKind::Value),
    ("drop-per-mille", FlagKind::Value),
    ("stall-per-mille", FlagKind::Value),
    ("corrupt-per-mille", FlagKind::Value),
    ("delay-per-mille", FlagKind::Value),
    ("max-delay-us", FlagKind::Value),
    ("throttle-per-mille", FlagKind::Value),
    ("throttle-bytes-per-sec", FlagKind::Value),
];

/// Loads a basket file, named by default, numeric with `--numeric`.
pub fn load(path: &str, numeric: bool) -> Result<BasketDatabase, String> {
    let file = std::fs::File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let reader = std::io::BufReader::new(file);
    let db = if numeric {
        basket_io::read_numeric(reader).map_err(|e| e.to_string())?
    } else {
        basket_io::read_named(reader).map_err(|e| e.to_string())?
    };
    if db.is_empty() {
        return Err(format!("{path} holds no baskets"));
    }
    Ok(db)
}

/// `bmb mine FILE` — minimal correlated itemsets.
pub fn cmd_mine(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let path = args.positional(1).ok_or("usage: bmb mine FILE [flags]")?;
    let db = load(path, args.has("numeric"))?;
    let config = MinerConfig {
        support: SupportSpec::Fraction(args.get_or("support", 0.01)?),
        support_fraction: args.get_or("p", 0.3)?,
        alpha: args.get_or("alpha", 0.95)?,
        max_level: args.get_or("max-level", 6usize)?,
        threads: args.get_or("threads", 1usize)?,
        ..MinerConfig::default()
    };
    let sink = |e: std::io::Error| e.to_string();
    if args.has("walk") {
        let walk = WalkConfig {
            walks: args.get_or("walks", 256usize)?,
            max_level: config.max_level,
            seed: 7,
        };
        let result = mine_walk(&db, &config, walk, None);
        writeln!(
            out,
            "# random-walk border ({} crossings)",
            result.raw.stats.crossings
        )
        .map_err(sink)?;
        for set in &result.border {
            writeln!(out, "{}", db.describe(set)).map_err(sink)?;
        }
        return Ok(());
    }
    let result = mine(&db, &config);
    writeln!(
        out,
        "# {} significant itemsets (s = {}, chi2 cutoff {:.2}, {:?})",
        result.significant.len(),
        result.support_count,
        result.chi2_cutoff,
        result.elapsed
    )
    .map_err(sink)?;
    for level in &result.levels {
        writeln!(
            out,
            "# level {}: {} candidates, {} discarded, {} SIG, {} NOTSIG",
            level.level, level.candidates, level.discards, level.significant, level.not_significant
        )
        .map_err(sink)?;
    }
    if args.has("trace") {
        let profile = &result.profile;
        writeln!(
            out,
            "# trace: index build {}us, initial pairs {}us",
            profile.index_build_us, profile.initial_pairs_us
        )
        .map_err(sink)?;
        for stage in &profile.levels {
            let stats = result.levels.iter().find(|s| s.level == stage.level);
            let (candidates, discards) = stats.map_or((0, 0), |s| (s.candidates, s.discards));
            let pruned_pct = if candidates == 0 {
                0.0
            } else {
                100.0 * discards as f64 / candidates as f64
            };
            writeln!(
                out,
                "# trace level {}: count {}us, evaluate {}us, emit {}us, \
                 candgen {}us, total {}us, pruned {discards}/{candidates} ({pruned_pct:.1}%)",
                stage.level,
                stage.count_us,
                stage.evaluate_us,
                stage.emit_us,
                stage.candgen_us,
                stage.total_us(),
            )
            .map_err(sink)?;
        }
    }
    for rule in &result.significant {
        let (includes, omits) = rule.major_dependence_words(&db);
        writeln!(
            out,
            "{}\tchi2={:.3}\tdependence: [{}] without [{}]",
            db.describe(&rule.itemset),
            rule.chi2.statistic,
            includes.join(" "),
            omits.join(" "),
        )
        .map_err(sink)?;
    }
    Ok(())
}

/// `bmb pairs FILE` — the Table 2 style report for every pair.
pub fn cmd_pairs(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let path = args.positional(1).ok_or("usage: bmb pairs FILE [flags]")?;
    let db = load(path, args.has("numeric"))?;
    let test = Chi2Test::at_level(args.get_or("alpha", 0.95)?);
    let rows = pairs_report(&db, &test);
    let sink = |e: std::io::Error| e.to_string();
    writeln!(
        out,
        "# pair\tchi2\tsignificant\tI(ab)\tI(!ab)\tI(a!b)\tI(!a!b)"
    )
    .map_err(sink)?;
    for row in rows {
        writeln!(
            out,
            "{}\t{:.3}\t{}\t{:.3}\t{:.3}\t{:.3}\t{:.3}",
            db.describe(&Itemset::from_items([row.a, row.b])),
            row.chi2.statistic,
            row.chi2.significant,
            row.interests[0],
            row.interests[1],
            row.interests[2],
            row.interests[3],
        )
        .map_err(sink)?;
    }
    Ok(())
}

/// `bmb rules FILE` — support-confidence association rules (the baseline).
pub fn cmd_rules(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let path = args.positional(1).ok_or("usage: bmb rules FILE [flags]")?;
    let db = load(path, args.has("numeric"))?;
    let support = args.get_or("support", 0.01)?;
    let confidence = args.get_or("confidence", 0.5)?;
    let frequent =
        bmb_apriori::apriori(&db, bmb_apriori::MinSupport::Fraction(support), usize::MAX);
    let rules = bmb_apriori::generate_rules(&frequent, db.len() as u64, confidence);
    let sink = |e: std::io::Error| e.to_string();
    writeln!(
        out,
        "# {} rules (s >= {support}, c >= {confidence})",
        rules.len()
    )
    .map_err(sink)?;
    for rule in rules {
        writeln!(
            out,
            "{} => {}\tsupport={:.4}\tconfidence={:.3}\tlift={:.3}",
            db.describe(&rule.antecedent),
            db.describe(&rule.consequent),
            rule.support,
            rule.confidence,
            rule.lift,
        )
        .map_err(sink)?;
    }
    Ok(())
}

/// `bmb generate {quest|census|text}` — write a synthetic dataset.
pub fn cmd_generate(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let kind = args
        .positional(1)
        .ok_or("usage: bmb generate {quest|census|text} [flags]")?;
    let db = match kind {
        "quest" => bmb_quest::generate(&bmb_quest::QuestParams {
            n_transactions: args.get_or("n", 10_000usize)?,
            n_items: args.get_or("items", 870usize)?,
            seed: args.get_or("seed", 0x5151u64)?,
            ..bmb_quest::QuestParams::paper_table5()
        }),
        "census" => census_with_token_names(),
        "text" => bmb_datasets::generate_text(&bmb_datasets::TextParams {
            seed: args.get_or("seed", 0x7e47u64)?,
            ..Default::default()
        }),
        other => return Err(format!("unknown dataset kind {other:?}")),
    };
    match args.get::<String>("out")? {
        Some(path) => {
            let file =
                std::fs::File::create(&path).map_err(|e| format!("cannot create {path}: {e}"))?;
            basket_io::write(&db, std::io::BufWriter::new(file)).map_err(|e| e.to_string())?;
            writeln!(
                out,
                "wrote {} baskets over {} items to {path}",
                db.len(),
                db.n_items()
            )
            .map_err(|e| e.to_string())?;
        }
        None => {
            basket_io::write(&db, &mut *out).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// The simulated census with each item name made one token (whitespace
/// becomes `_`): its names are phrases ("never served in the military"),
/// and the basket format splits items on whitespace.
fn census_with_token_names() -> BasketDatabase {
    let mut db = bmb_datasets::generate_census();
    if let Some(catalog) = db.catalog() {
        let tokens = ItemCatalog::from_names(
            catalog
                .iter()
                .map(|(_, name)| name.replace(char::is_whitespace, "_")),
        );
        db.set_catalog(tokens);
    }
    db
}

/// `bmb stats FILE` — database summary.
pub fn cmd_stats(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let path = args.positional(1).ok_or("usage: bmb stats FILE [flags]")?;
    let db = load(path, args.has("numeric"))?;
    let sink = |e: std::io::Error| e.to_string();
    writeln!(out, "baskets: {}", db.len()).map_err(sink)?;
    writeln!(out, "items: {}", db.n_items()).map_err(sink)?;
    writeln!(out, "mean basket size: {:.2}", db.mean_basket_len()).map_err(sink)?;
    let mut counts: Vec<(u64, u32)> = db
        .item_counts()
        .iter()
        .enumerate()
        .map(|(i, &c)| (c, i as u32))
        .collect();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    writeln!(out, "top items:").map_err(sink)?;
    for &(count, id) in counts.iter().take(10) {
        let name = db
            .catalog()
            .and_then(|c| c.name(bmb_basket::ItemId(id)))
            .map(str::to_string)
            .unwrap_or_else(|| format!("i{id}"));
        writeln!(out, "  {name} ({count})").map_err(sink)?;
    }
    Ok(())
}

/// Spawns the background integrity scrubber when the role asked for it
/// (`--scrub-interval-secs N`; 0 disables). `peer` names the replica
/// that damaged sealed segments are re-fetched from; without one,
/// repair is limited to what the live store can rebuild locally.
fn spawn_scrubber(
    args: &Args,
    durable: &std::sync::Arc<bmb_basket::DurableStore>,
    peer: Option<String>,
    out: &mut dyn Write,
) -> Result<Option<bmb_serve::Scrubber>, String> {
    let Some(secs) = args.get::<u64>("scrub-interval-secs")? else {
        return Ok(None);
    };
    let config = bmb_serve::ScrubberConfig {
        interval: (secs > 0).then(|| std::time::Duration::from_secs(secs)),
        peer,
        ..Default::default()
    };
    if !config.is_enabled() {
        return Ok(None);
    }
    writeln!(out, "scrubbing every {secs}s").map_err(|e| e.to_string())?;
    Ok(Some(bmb_serve::Scrubber::spawn(
        std::sync::Arc::clone(durable),
        config,
    )))
}

/// `bmb serve [FILE]` — run the correlation-query server.
///
/// With a FILE the store is seeded from it; with `--items N` (and no
/// FILE) the store starts empty over an `N`-item space. With
/// `--checkpoint-dir DIR` ingest is crash-safe: appends are written to
/// the checksummed write-ahead log segments in DIR before
/// acknowledgement, a background checkpointer snapshots the store, and
/// a restart against the same DIR recovers from the newest checkpoint
/// plus the WAL tail and resumes at the recovered epoch. Prints the
/// bound address (`listening on HOST:PORT`) before blocking in the
/// accept loop; a client's `shutdown` command drains in-flight queries
/// and exits 0.
/// With `--metrics-addr HOST:PORT` a second listener serves a
/// Prometheus text snapshot at `/metrics` (announced as
/// `metrics on http://HOST:PORT/metrics`). With `--checkpoint-dir` and
/// `--scrub-interval-secs N`, a background scrubber re-verifies sealed
/// WAL segments and checkpoints on that cadence, quarantining and
/// repairing what it can (`--repair-peer HOST:PORT` names a replica to
/// re-fetch damaged segments from).
pub fn cmd_serve(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let sink = |e: std::io::Error| e.to_string();
    let store_config = bmb_basket::StoreConfig {
        segment_capacity: args.get_or("segment-capacity", 4096usize)?,
    };
    let server_config = bmb_serve::ServerConfig {
        addr: args.get_or("addr", "127.0.0.1:7878".to_string())?,
        workers: args.get_or("workers", 4usize)?,
        max_connections: args.get_or("max-connections", 256usize)?,
        metrics_addr: args.get::<String>("metrics-addr")?,
        ..Default::default()
    };
    let durable = match args.get::<String>("checkpoint-dir")? {
        Some(dir_path) => {
            if args.positional(1).is_some() {
                return Err(
                    "--checkpoint-dir cannot be combined with a FILE seed: the directory \
                     is the durable source of truth; use --items N and ingest over the \
                     protocol"
                        .to_string(),
                );
            }
            let n_items = args
                .get::<usize>("items")?
                .ok_or("--checkpoint-dir requires --items N (the store's item-space size)")?;
            let dir = bmb_basket::FsDir::open(std::path::Path::new(&dir_path))
                .map_err(|e| format!("cannot open checkpoint dir {dir_path}: {e}"))?;
            let (durable, report) = bmb_basket::DurableStore::open_dir(
                Box::new(dir),
                n_items,
                store_config,
                bmb_basket::DurabilityConfig::default(),
            )
            .map_err(|e| format!("cannot recover {dir_path}: {e}"))?;
            writeln!(
                out,
                "recovered {} baskets from {dir_path} (epoch {}, checkpoint epoch {}, \
                 {} records skipped)",
                report.baskets_recovered,
                report.epoch,
                report.checkpoint_epoch,
                report.records_skipped
            )
            .map_err(sink)?;
            Some(std::sync::Arc::new(durable))
        }
        None => None,
    };
    let store = match &durable {
        Some(durable) => std::sync::Arc::clone(durable.store()),
        None => match args.positional(1) {
            Some(path) => {
                let db = load(path, args.has("numeric"))?;
                std::sync::Arc::new(bmb_basket::IncrementalStore::from_database(
                    &db,
                    store_config,
                ))
            }
            None => {
                let n_items = args
                    .get::<usize>("items")?
                    .ok_or("usage: bmb serve FILE [flags], or bmb serve --items N")?;
                std::sync::Arc::new(bmb_basket::IncrementalStore::new(n_items, store_config))
            }
        },
    };
    let events_ledger_attached = match args.get::<String>("events-ledger")? {
        Some(path) => {
            attach_events_ledger(std::path::Path::new(&path), out)?;
            true
        }
        None => false,
    };
    let engine = std::sync::Arc::new(bmb_core::QueryEngine::new(
        store,
        bmb_core::EngineConfig::default(),
    ));
    let repair_peer = args.get::<String>("repair-peer")?;
    let mut service = bmb_serve::EngineService::new(engine);
    if let Some(peer) = &repair_peer {
        service = service.with_repair_peer(peer.clone());
    }
    if let Some(durable) = &durable {
        service = service.with_durable(std::sync::Arc::clone(durable));
    }
    let server = bmb_serve::Server::bind_service(
        std::sync::Arc::new(service) as std::sync::Arc<dyn bmb_serve::Service>,
        server_config,
    )
    .map_err(|e| format!("cannot bind: {e}"))?;
    let mut checkpointer = None;
    let mut scrubber = None;
    if let Some(durable) = &durable {
        let config = bmb_serve::CheckpointerConfig {
            interval: Some(std::time::Duration::from_secs(
                args.get_or("checkpoint-interval-secs", 60u64)?,
            )),
            every_records: Some(args.get_or("checkpoint-every", 100_000u64)?),
            ..Default::default()
        };
        checkpointer = Some(bmb_serve::Checkpointer::spawn(
            std::sync::Arc::clone(durable),
            config,
        ));
        scrubber = spawn_scrubber(args, durable, repair_peer, out)?;
    }
    let metrics = server.metrics();
    writeln!(out, "listening on {}", server.local_addr()).map_err(sink)?;
    if let Some(addr) = server.metrics_local_addr() {
        writeln!(out, "metrics on http://{addr}/metrics").map_err(sink)?;
    }
    out.flush().map_err(sink)?;
    let run_result = server.run();
    if let Some(scrubber) = scrubber {
        scrubber.stop();
    }
    if let Some(checkpointer) = checkpointer {
        checkpointer.stop();
    }
    if events_ledger_attached {
        bmb_obs::events().detach_ledger();
    }
    run_result.map_err(|e| format!("server failed: {e}"))?;
    let snapshot = metrics.snapshot();
    writeln!(
        out,
        "served {} requests ({} errors), p50 {}us, p99 {}us",
        snapshot.requests, snapshot.errors, snapshot.p50_us, snapshot.p99_us
    )
    .map_err(sink)?;
    Ok(())
}

/// `bmb query ADDR [LINE...]` — send protocol lines to a running server.
///
/// Each LINE positional is one JSON request; with none, lines are read
/// from stdin. Response lines are printed verbatim.
pub fn cmd_query(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let addr = args
        .positional(1)
        .ok_or("usage: bmb query ADDR [LINE...]")?;
    let timeout = std::time::Duration::from_secs(args.get_or("timeout-secs", 30u64)?);
    let mut client = bmb_serve::Client::connect_timeout(addr, timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let sink = |e: std::io::Error| e.to_string();
    let mut send = |line: &str, out: &mut dyn Write| -> Result<(), String> {
        let response = client
            .request_line(line)
            .map_err(|e| format!("request failed: {e}"))?;
        writeln!(out, "{response}").map_err(sink)
    };
    if args.n_positionals() > 2 {
        for i in 2..args.n_positionals() {
            if let Some(line) = args.positional(i) {
                send(line, out)?;
            }
        }
    } else {
        let stdin = std::io::stdin();
        for line in std::io::BufRead::lines(stdin.lock()) {
            let line = line.map_err(|e| e.to_string())?;
            if line.trim().is_empty() {
                continue;
            }
            send(&line, out)?;
        }
    }
    Ok(())
}

/// `bmb wal inspect PATH` — dump a WAL segment's records and tail state.
///
/// PATH is one rotating segment out of a checkpoint directory
/// (`wal.000017`). Prints one line per record (offset, kind, payload size, CRC status,
/// running epoch) and ends with a diagnosis line — `clean`, or what is
/// torn and why recovery will truncate there. `--limit N` caps the
/// per-record lines (the summary always prints). With `--dir DIR`
/// instead of a PATH, walks the rotated segments (`wal.000000`…) of a
/// checkpoint directory and prints one line per segment — its base
/// epoch, record count, end epoch, and diagnosis.
///
/// Exit status is the verdict: anything other than a fully clean log —
/// a torn tail, a CRC mismatch, a truncated record — exits non-zero
/// (after printing the full report), so scripts and CI can assert WAL
/// health without parsing the output.
pub fn cmd_wal(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let action = args.positional(1).ok_or("usage: bmb wal inspect PATH")?;
    if action != "inspect" {
        return Err(format!("unknown wal action {action:?} (try 'inspect')"));
    }
    let limit = args.get_or("limit", usize::MAX)?;
    if let Some(dir) = args.get::<String>("dir")? {
        if args.positional(2).is_some() {
            return Err(
                "--dir replaces the PATH positional: bmb wal inspect --dir DIR".to_string(),
            );
        }
        return wal_inspect_dir(&dir, limit, out);
    }
    let path = args
        .positional(2)
        .ok_or("usage: bmb wal inspect PATH, or bmb wal inspect --dir DIR")?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let inspection =
        bmb_basket::inspect_wal_bytes(&bytes).map_err(|e| format!("{path} is not a WAL: {e}"))?;
    let sink = |e: std::io::Error| e.to_string();
    match inspection.base_epoch {
        Some(base) => writeln!(out, "{path}: segment, base epoch {base}").map_err(sink)?,
        None => writeln!(out, "{path}: torn segment header").map_err(sink)?,
    }
    for record in inspection.records.iter().take(limit) {
        writeln!(
            out,
            "  @{:<10} {:<7} len={:<8} crc={} {}",
            record.offset,
            record.kind,
            record.len,
            if record.crc_ok { "ok " } else { "BAD" },
            record.detail
        )
        .map_err(sink)?;
    }
    if inspection.records.len() > limit {
        writeln!(
            out,
            "  ... {} more records",
            inspection.records.len() - limit
        )
        .map_err(sink)?;
    }
    writeln!(
        out,
        "records: {}, end epoch: {}, valid bytes: {}/{}",
        inspection.records.len(),
        inspection.end_epoch,
        inspection.valid_bytes,
        inspection.total_bytes
    )
    .map_err(sink)?;
    writeln!(out, "diagnosis: {}", inspection.diagnosis).map_err(sink)?;
    if inspection.diagnosis != "clean" {
        return Err(format!(
            "{path}: WAL is not clean: {}",
            inspection.diagnosis
        ));
    }
    Ok(())
}

/// Walks a rotated WAL segment directory, one summary line per
/// `wal.NNNNNN` file in rotation order: base epoch, record count, end
/// epoch, and diagnosis. Checkpoint artifacts ride along: every
/// `ckpt.*` file is structurally verified (magic, CRC, named epoch,
/// basket-table walk) and `MANIFEST` must be intact, list strictly
/// ascending epochs, and agree with the files on disk. `limit` caps
/// the per-segment lines (the summaries always print).
fn wal_inspect_dir(dir: &str, limit: usize, out: &mut dyn Write) -> Result<(), String> {
    let sink = |e: std::io::Error| e.to_string();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir}: {e}"))?;
    let names: Vec<String> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.file_name().to_string_lossy().into_owned())
        .collect();
    let mut segments: Vec<(u64, String)> = names
        .iter()
        .filter_map(|name| {
            bmb_basket::wal::parse_segment_name(name).map(|index| (index, name.clone()))
        })
        .collect();
    if segments.is_empty() {
        return Err(format!("{dir} holds no wal.NNNNNN segments"));
    }
    segments.sort_unstable();
    let n_segments = segments.len();
    let mut total_records = 0usize;
    let mut end_epoch = 0u64;
    let mut torn = 0usize;
    for (shown, (_, name)) in segments.into_iter().enumerate() {
        let path = std::path::Path::new(dir).join(&name);
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let inspection = bmb_basket::inspect_wal_bytes(&bytes)
            .map_err(|e| format!("{} is not a WAL segment: {e}", path.display()))?;
        total_records += inspection.records.len();
        end_epoch = end_epoch.max(inspection.end_epoch);
        if inspection.diagnosis != "clean" {
            torn += 1;
        }
        if shown < limit {
            let base = match inspection.base_epoch {
                Some(base) => format!("base epoch {base}"),
                None => "no segment header".to_string(),
            };
            writeln!(
                out,
                "{name}: {base}, {} records, end epoch {}, {}",
                inspection.records.len(),
                inspection.end_epoch,
                inspection.diagnosis
            )
            .map_err(sink)?;
        }
    }
    if n_segments > limit {
        writeln!(out, "... {} more segments", n_segments - limit).map_err(sink)?;
    }
    writeln!(
        out,
        "segments: {n_segments}, records: {total_records}, end epoch: {end_epoch}, \
         torn segments: {torn}"
    )
    .map_err(sink)?;

    // The checkpoint side of the directory: every `ckpt.*` file must
    // verify structurally, and the MANIFEST must agree with the disk.
    let mut checkpoints: Vec<(u64, String)> = names
        .iter()
        .filter_map(|name| bmb_basket::parse_checkpoint_name(name).map(|e| (e, name.clone())))
        .collect();
    checkpoints.sort_unstable();
    let mut damaged = 0usize;
    for (epoch, name) in &checkpoints {
        let path = std::path::Path::new(dir).join(name);
        let bytes =
            std::fs::read(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        match bmb_basket::verify_checkpoint_bytes(*epoch, &bytes, None) {
            Ok(()) => writeln!(out, "{name}: epoch {epoch}, {} bytes, clean", bytes.len())
                .map_err(sink)?,
            Err(detail) => {
                damaged += 1;
                writeln!(out, "{name}: {detail}").map_err(sink)?;
            }
        }
    }
    let manifest_path = std::path::Path::new(dir).join(bmb_basket::MANIFEST_NAME);
    if names.iter().any(|n| n == bmb_basket::MANIFEST_NAME) {
        let bytes = std::fs::read(&manifest_path)
            .map_err(|e| format!("cannot read {}: {e}", manifest_path.display()))?;
        match bmb_basket::verify_manifest_bytes(&bytes) {
            Ok(listed) => {
                writeln!(out, "MANIFEST: {} checkpoint(s) listed", listed.len()).map_err(sink)?;
                for epoch in &listed {
                    if !checkpoints.iter().any(|(e, _)| e == epoch) {
                        damaged += 1;
                        writeln!(
                            out,
                            "MANIFEST lists epoch {epoch} but {} is missing",
                            bmb_basket::checkpoint_name(*epoch)
                        )
                        .map_err(sink)?;
                    }
                }
                for (epoch, name) in &checkpoints {
                    if !listed.contains(epoch) {
                        damaged += 1;
                        writeln!(out, "{name} is on disk but not listed in MANIFEST")
                            .map_err(sink)?;
                    }
                }
            }
            Err(detail) => {
                damaged += 1;
                writeln!(out, "MANIFEST: {detail}").map_err(sink)?;
            }
        }
    } else if !checkpoints.is_empty() {
        damaged += 1;
        writeln!(
            out,
            "MANIFEST missing with {} checkpoint(s) on disk",
            checkpoints.len()
        )
        .map_err(sink)?;
    }
    writeln!(
        out,
        "checkpoints: {}, damaged artifacts: {damaged}",
        checkpoints.len()
    )
    .map_err(sink)?;
    if torn > 0 || damaged > 0 {
        return Err(format!(
            "{dir}: {torn} torn segment(s), {damaged} damaged checkpoint artifact(s)"
        ));
    }
    Ok(())
}

/// `bmb fsck DIR` — offline integrity check of a durability directory.
///
/// Runs the same structural verification the background scrubber uses
/// (see `bmb_basket::fsck_dir`): the `GEN` record, the `MANIFEST`'s
/// CRC and epoch order, manifest↔file agreement, every checkpoint's
/// magic/CRC/epoch/basket table, every WAL segment's record walk, and
/// the segment base-epoch chain. Read-only — nothing is repaired,
/// renamed, or deleted — and exits non-zero when anything fails to
/// verify, so scripts and CI can assert at-rest integrity. Quarantined
/// evidence files (`quarantine.*`) are counted but are not damage.
pub fn cmd_fsck(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let dir_path = args.positional(1).ok_or("usage: bmb fsck DIR")?;
    let sink = |e: std::io::Error| e.to_string();
    let mut dir = bmb_basket::FsDir::open(std::path::Path::new(dir_path))
        .map_err(|e| format!("cannot open {dir_path}: {e}"))?;
    let report =
        bmb_basket::fsck_dir(&mut dir).map_err(|e| format!("cannot list {dir_path}: {e}"))?;
    writeln!(
        out,
        "{dir_path}: {} artifact(s), {} byte(s) verified, {} quarantined",
        report.artifacts, report.bytes, report.quarantined
    )
    .map_err(sink)?;
    for finding in &report.findings {
        writeln!(out, "  {}: {}", finding.name, finding.detail).map_err(sink)?;
    }
    if report.is_clean() {
        writeln!(out, "clean").map_err(sink)?;
        Ok(())
    } else {
        Err(format!(
            "{dir_path}: {} integrity finding(s)",
            report.findings.len()
        ))
    }
}

/// `bmb cluster {serve|shard|follow|chaos}` — the sharded-cluster roles.
///
/// `shard` runs one durable shard: a generation-fenced node starting as
/// primary, answering the full wire protocol (including `support_vec`,
/// `replicate_pull`, and `demote`). `serve` runs the coordinator: it
/// speaks the same protocol but holds no baskets, scattering every
/// query to `--shards` and gathering the per-shard support vectors into
/// bit-identical central answers. `follow` runs a warm standby that
/// tails a shard primary's WAL via `replicate_pull` and takes over at a
/// bumped generation on `promote`. `chaos` runs the deterministic
/// fault-injection proxy in front of one upstream.
pub fn cmd_cluster(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    const CLUSTER_USAGE: &str =
        "usage: bmb cluster {serve|shard|follow|chaos|trace|events} [flags]";
    match args.positional(1) {
        Some("serve") => cluster_serve(args, out),
        Some("shard") => cluster_shard(args, out),
        Some("follow") => cluster_follow(args, out),
        Some("chaos") => cluster_chaos(args, out),
        Some("trace") => cluster_trace(args, out),
        Some("events") => cluster_events(args, out),
        Some(other) => Err(format!("unknown cluster role {other:?} ({CLUSTER_USAGE})")),
        None => Err(CLUSTER_USAGE.to_string()),
    }
}

/// The listener config shared by all three cluster roles. `role` is
/// stamped on every span the node records (the `node` field of a trace
/// tree); `--shard-index N` adds the shard coordinate for shard-role
/// nodes so cross-node trees name which partition answered.
fn cluster_server_config(
    args: &Args,
    default_addr: &str,
    role: &str,
) -> Result<bmb_serve::ServerConfig, String> {
    Ok(bmb_serve::ServerConfig {
        addr: args.get_or("addr", default_addr.to_string())?,
        workers: args.get_or("workers", 4usize)?,
        max_connections: args.get_or("max-connections", 256usize)?,
        metrics_addr: args.get::<String>("metrics-addr")?,
        node_role: role.to_string(),
        shard_index: args.get::<i64>("shard-index")?,
        ..Default::default()
    })
}

/// Line budget for the on-disk event ledger durable roles keep next to
/// their WAL (`events.jsonl`): compaction rewrites the file once it
/// doubles past this.
const EVENTS_LEDGER_CAPACITY: usize = 4096;

/// Routes the process-wide event log into a persisted JSON-lines
/// ledger at `path`, so promotion/fencing timelines survive the
/// process (`bmb cluster events` reads them back). Best-effort
/// durability: appends are not fsynced (see DESIGN.md §14).
fn attach_events_ledger(path: &std::path::Path, out: &mut dyn Write) -> Result<(), String> {
    let ledger = bmb_obs::EventLedger::open(path, EVENTS_LEDGER_CAPACITY)
        .map_err(|e| format!("cannot open events ledger {}: {e}", path.display()))?;
    bmb_obs::events().attach_ledger(std::sync::Arc::new(ledger));
    writeln!(out, "events ledger at {}", path.display()).map_err(|e| e.to_string())
}

/// Opens (recovering if needed) the durable store a shard or follower
/// role keeps under `--dir`, announcing the recovery on `out`.
fn cluster_open_durable(
    args: &Args,
    role: &str,
    out: &mut dyn Write,
) -> Result<std::sync::Arc<bmb_basket::DurableStore>, String> {
    let dir_path = args.get::<String>("dir")?.ok_or_else(|| {
        format!("bmb cluster {role} requires --dir DIR (its WAL/checkpoint directory)")
    })?;
    let n_items = args.get::<usize>("items")?.ok_or_else(|| {
        format!("bmb cluster {role} requires --items N (the cluster-wide item-space size)")
    })?;
    let dir = bmb_basket::FsDir::open(std::path::Path::new(&dir_path))
        .map_err(|e| format!("cannot open {dir_path}: {e}"))?;
    let (durable, report) = bmb_basket::DurableStore::open_dir(
        Box::new(dir),
        n_items,
        bmb_basket::StoreConfig {
            segment_capacity: args.get_or("segment-capacity", 4096usize)?,
        },
        bmb_basket::DurabilityConfig {
            segment_bytes: args.get_or("segment-bytes", 8u64 << 20)?,
            retain_checkpoints: args.get_or("retain-checkpoints", 2usize)?,
        },
    )
    .map_err(|e| format!("cannot recover {dir_path}: {e}"))?;
    writeln!(
        out,
        "recovered {} baskets from {dir_path} (epoch {}, checkpoint epoch {})",
        report.baskets_recovered, report.epoch, report.checkpoint_epoch
    )
    .map_err(|e| e.to_string())?;
    Ok(std::sync::Arc::new(durable))
}

/// The background checkpointer for a durable cluster role.
fn cluster_checkpointer(
    args: &Args,
    durable: &std::sync::Arc<bmb_basket::DurableStore>,
) -> Result<bmb_serve::Checkpointer, String> {
    Ok(bmb_serve::Checkpointer::spawn(
        std::sync::Arc::clone(durable),
        bmb_serve::CheckpointerConfig {
            interval: Some(std::time::Duration::from_secs(
                args.get_or("checkpoint-interval-secs", 60u64)?,
            )),
            every_records: Some(args.get_or("checkpoint-every", 4096u64)?),
            ..Default::default()
        },
    ))
}

/// `bmb cluster shard --dir DIR --items N` — one durable shard: a
/// generation-fenced node starting as primary, demotable at runtime.
fn cluster_shard(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let sink = |e: std::io::Error| e.to_string();
    let durable = cluster_open_durable(args, "shard", out)?;
    let engine = std::sync::Arc::new(bmb_core::QueryEngine::new(
        std::sync::Arc::clone(durable.store()),
        bmb_core::EngineConfig::default(),
    ));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut repl = bmb_cluster::FollowerConfig::new(String::new());
    repl.poll_interval = std::time::Duration::from_millis(args.get_or("poll-ms", 50u64)?);
    let repair_peer = args.get::<String>("repair-peer")?;
    let mut inner =
        bmb_serve::EngineService::new(engine).with_durable(std::sync::Arc::clone(&durable));
    if let Some(peer) = &repair_peer {
        inner = inner.with_repair_peer(peer.clone());
    }
    let node = bmb_cluster::NodeService::primary(
        inner,
        std::sync::Arc::clone(&durable),
        repl,
        std::sync::Arc::clone(&stop),
        std::sync::Arc::new(bmb_cluster::ClusterMetrics::new()),
    );
    let service = std::sync::Arc::new(node) as std::sync::Arc<dyn bmb_serve::Service>;
    let server = bmb_serve::Server::bind_service(
        service,
        cluster_server_config(args, "127.0.0.1:0", "shard")?,
    )
    .map_err(|e| format!("cannot bind: {e}"))?;
    if let Some(dir) = args.get::<String>("dir")? {
        attach_events_ledger(&std::path::Path::new(&dir).join("events.jsonl"), out)?;
    }
    let checkpointer = cluster_checkpointer(args, &durable)?;
    let scrubber = spawn_scrubber(args, &durable, repair_peer, out)?;
    writeln!(
        out,
        "shard listening on {} (generation {})",
        server.local_addr(),
        durable.generation()
    )
    .map_err(sink)?;
    if let Some(addr) = server.metrics_local_addr() {
        writeln!(out, "metrics on http://{addr}/metrics").map_err(sink)?;
    }
    out.flush().map_err(sink)?;
    let run_result = server.run();
    stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some(scrubber) = scrubber {
        scrubber.stop();
    }
    checkpointer.stop();
    bmb_obs::events().detach_ledger();
    run_result.map_err(|e| format!("shard failed: {e}"))
}

/// `bmb cluster serve --items N --shards A,B,...` — the coordinator.
fn cluster_serve(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let sink = |e: std::io::Error| e.to_string();
    let n_items = args
        .get::<usize>("items")?
        .ok_or("bmb cluster serve requires --items N (the cluster-wide item-space size)")?;
    let shards_flag = args.get::<String>("shards")?.ok_or(
        "bmb cluster serve requires --shards ADDR,ADDR,... (shard primaries, in partition order)",
    )?;
    let shard_addrs: Vec<String> = shards_flag
        .split(',')
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .collect();
    if shard_addrs.is_empty() {
        return Err("--shards names no addresses".to_string());
    }
    let mut config = bmb_cluster::CoordinatorConfig::new(n_items, shard_addrs.iter().cloned());
    if let Some(followers_flag) = args.get::<String>("followers")? {
        let followers: Vec<&str> = followers_flag.split(',').map(str::trim).collect();
        if followers.len() != config.shards.len() {
            return Err(format!(
                "--followers names {} slots for {} shards; leave a slot empty \
                 (e.g. 'a,,c') for a shard with no follower",
                followers.len(),
                config.shards.len()
            ));
        }
        for (spec, follower) in config.shards.iter_mut().zip(followers) {
            if !follower.is_empty() {
                spec.follower = Some(follower.to_string());
            }
        }
    }
    config.seed = args.get_or("seed", bmb_cluster::DEFAULT_SEED)?;
    if args.has("round-robin") {
        config.strategy = bmb_cluster::PartitionStrategy::RoundRobin;
    }
    let request_timeout_ms = args.get_or("request-timeout-ms", 5000u64)?;
    let probe_cooldown_ms = args.get_or("probe-cooldown-ms", 1000u64)?;
    config.request_timeout = std::time::Duration::from_millis(request_timeout_ms);
    config.probe_cooldown = std::time::Duration::from_millis(probe_cooldown_ms);
    let coordinator = std::sync::Arc::new(bmb_cluster::CoordinatorService::new(config));
    let service = std::sync::Arc::clone(&coordinator) as std::sync::Arc<dyn bmb_serve::Service>;
    let server = bmb_serve::Server::bind_service(
        service,
        cluster_server_config(args, "127.0.0.1:7878", "coordinator")?,
    )
    .map_err(|e| format!("cannot bind: {e}"))?;
    let metrics = server.metrics();
    // With --scrub-interval-secs, the coordinator periodically compares
    // primary/follower segment digests per slot and triggers a scrub on
    // whichever side diverged (anti-entropy; see DESIGN.md §15).
    let ae_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut anti_entropy = None;
    if let Some(secs) = args.get::<u64>("scrub-interval-secs")? {
        if secs > 0 {
            writeln!(out, "anti-entropy every {secs}s").map_err(sink)?;
            let coordinator = std::sync::Arc::clone(&coordinator);
            let ae_stop = std::sync::Arc::clone(&ae_stop);
            let interval = std::time::Duration::from_secs(secs);
            anti_entropy = Some(std::thread::spawn(move || {
                let mut next = std::time::Instant::now() + interval;
                while !ae_stop.load(std::sync::atomic::Ordering::Acquire) {
                    std::thread::sleep(std::time::Duration::from_millis(50));
                    if std::time::Instant::now() >= next {
                        coordinator.anti_entropy_round();
                        next = std::time::Instant::now() + interval;
                    }
                }
            }));
        }
    }
    writeln!(
        out,
        "scattering over {} shards (request timeout {request_timeout_ms}ms, \
         probe cooldown {probe_cooldown_ms}ms)",
        shard_addrs.len()
    )
    .map_err(sink)?;
    writeln!(out, "coordinator listening on {}", server.local_addr()).map_err(sink)?;
    if let Some(addr) = server.metrics_local_addr() {
        writeln!(out, "metrics on http://{addr}/metrics").map_err(sink)?;
    }
    out.flush().map_err(sink)?;
    let run_result = server.run();
    ae_stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some(thread) = anti_entropy {
        thread.join().ok();
    }
    run_result.map_err(|e| format!("coordinator failed: {e}"))?;
    let snapshot = metrics.snapshot();
    writeln!(
        out,
        "served {} requests ({} errors), p50 {}us, p99 {}us",
        snapshot.requests, snapshot.errors, snapshot.p50_us, snapshot.p99_us
    )
    .map_err(sink)?;
    Ok(())
}

/// `bmb cluster follow --dir DIR --items N --primary ADDR` — a warm
/// standby tailing a shard's WAL, promotable at a bumped generation.
fn cluster_follow(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let sink = |e: std::io::Error| e.to_string();
    let primary = args
        .get::<String>("primary")?
        .ok_or("bmb cluster follow requires --primary HOST:PORT (the shard to tail)")?;
    let standby = cluster_open_durable(args, "follow", out)?;
    let engine = std::sync::Arc::new(bmb_core::QueryEngine::new(
        std::sync::Arc::clone(standby.store()),
        bmb_core::EngineConfig::default(),
    ));
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut follower_config = bmb_cluster::FollowerConfig::new(primary.clone());
    follower_config.poll_interval =
        std::time::Duration::from_millis(args.get_or("poll-ms", 50u64)?);
    // The follower's repair source is the primary it tails, unless a
    // different replica is named explicitly.
    let repair_peer = args
        .get::<String>("repair-peer")?
        .unwrap_or_else(|| primary.clone());
    let node = bmb_cluster::NodeService::follower(
        bmb_serve::EngineService::new(engine)
            .with_durable(std::sync::Arc::clone(&standby))
            .with_repair_peer(repair_peer.clone()),
        std::sync::Arc::clone(&standby),
        follower_config,
        std::sync::Arc::clone(&stop),
        std::sync::Arc::new(bmb_cluster::ClusterMetrics::new()),
    )
    .map_err(|e| format!("cannot start replication: {e}"))?;
    let service = std::sync::Arc::new(node) as std::sync::Arc<dyn bmb_serve::Service>;
    let server = bmb_serve::Server::bind_service(
        service,
        cluster_server_config(args, "127.0.0.1:0", "follower")?,
    )
    .map_err(|e| format!("cannot bind: {e}"))?;
    if let Some(dir) = args.get::<String>("dir")? {
        attach_events_ledger(&std::path::Path::new(&dir).join("events.jsonl"), out)?;
    }
    let checkpointer = cluster_checkpointer(args, &standby)?;
    let scrubber = spawn_scrubber(args, &standby, Some(repair_peer), out)?;
    writeln!(out, "tailing primary {primary}").map_err(sink)?;
    writeln!(
        out,
        "follower listening on {} (generation {})",
        server.local_addr(),
        standby.generation()
    )
    .map_err(sink)?;
    out.flush().map_err(sink)?;
    let run_result = server.run();
    stop.store(true, std::sync::atomic::Ordering::Release);
    if let Some(scrubber) = scrubber {
        scrubber.stop();
    }
    checkpointer.stop();
    bmb_obs::events().detach_ledger();
    run_result.map_err(|e| format!("follower failed: {e}"))
}

/// `bmb cluster chaos --listen A --upstream B` — the deterministic
/// fault-injection proxy. Fault rates are per-mille per connection;
/// the partition is toggled over the control socket (`partition`,
/// `heal`, `status`, `stop` — same line-JSON envelope as the data
/// protocol).
fn cluster_chaos(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    let sink = |e: std::io::Error| e.to_string();
    let listen = args
        .get::<String>("listen")?
        .ok_or("bmb cluster chaos requires --listen HOST:PORT (where clients connect)")?;
    let upstream = args
        .get::<String>("upstream")?
        .ok_or("bmb cluster chaos requires --upstream HOST:PORT (the real endpoint)")?;
    let control = args.get::<String>("control")?;
    let mut config = bmb_cluster::ChaosConfig::new(args.get_or("seed", 0u64)?);
    config.refuse_per_mille = args.get_or("refuse-per-mille", 0u16)?;
    config.drop_per_mille = args.get_or("drop-per-mille", 0u16)?;
    config.stall_per_mille = args.get_or("stall-per-mille", 0u16)?;
    config.corrupt_per_mille = args.get_or("corrupt-per-mille", 0u16)?;
    config.delay_per_mille = args.get_or("delay-per-mille", 0u16)?;
    config.max_delay_us = args.get_or("max-delay-us", 20_000u64)?;
    config.throttle_per_mille = args.get_or("throttle-per-mille", 0u16)?;
    config.throttle_bytes_per_sec = args.get_or("throttle-bytes-per-sec", 65_536u64)?;
    let seed = config.seed;
    let mut handle = bmb_cluster::ChaosProxy::spawn(&listen, &upstream, control.as_deref(), config)
        .map_err(|e| format!("cannot bind chaos proxy: {e}"))?;
    writeln!(
        out,
        "chaos proxy on {} -> {upstream} (seed {seed})",
        handle.local_addr()
    )
    .map_err(sink)?;
    writeln!(out, "control on {}", handle.control_addr()).map_err(sink)?;
    out.flush().map_err(sink)?;
    while !handle.is_stopped() {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    handle.stop();
    writeln!(out, "chaos proxy stopped").map_err(sink)?;
    Ok(())
}

/// `bmb cluster trace ADDR TRACE_ID` — pull a trace's span tree.
///
/// Against a coordinator the answer is the cross-node tree: the
/// coordinator fans the lookup out to every shard primary and follower
/// it knows, merges their retained spans with its own, and the render
/// below indents children under parents — one line per span with the
/// node that recorded it, its start offset within the trace, its
/// duration, and its outcome. Against a single node it shows just that
/// node's spans.
fn cluster_trace(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    const TRACE_USAGE: &str =
        "usage: bmb cluster trace ADDR TRACE_ID (16 lowercase hex digits) [--timeout-secs N]";
    let addr = args.positional(2).ok_or(TRACE_USAGE)?;
    let id = args.positional(3).ok_or(TRACE_USAGE)?;
    let timeout = std::time::Duration::from_secs(args.get_or("timeout-secs", 30u64)?);
    let mut client = bmb_serve::Client::connect_timeout(addr, timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let request = bmb_serve::json::Value::object()
        .with("cmd", bmb_serve::json::Value::Str("trace".to_string()))
        .with("trace", bmb_serve::json::Value::Str(id.to_string()));
    let result = client
        .request(&request)
        .map_err(|e| format!("trace query failed: {e}"))?;
    render_trace_tree(&result, out)
}

/// Renders a `trace` response as an indented tree: children under
/// parents, orphans (parent span evicted from some node's ring) at the
/// root level.
fn render_trace_tree(result: &bmb_serve::json::Value, out: &mut dyn Write) -> Result<(), String> {
    use bmb_serve::json::Value;
    let sink = |e: std::io::Error| e.to_string();
    let trace = result.get("trace").and_then(Value::as_str).unwrap_or("?");
    let spans = result
        .get("spans")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .unwrap_or_default();
    writeln!(out, "trace {trace}: {} span(s)", spans.len()).map_err(sink)?;
    if spans.is_empty() {
        writeln!(out, "  (no node retains spans for that trace)").map_err(sink)?;
        return Ok(());
    }
    let field = |s: &Value, key: &str| s.get(key).and_then(Value::as_str).map(str::to_string);
    let ids: std::collections::HashSet<String> =
        spans.iter().filter_map(|s| field(s, "span")).collect();
    let base_start = spans
        .iter()
        .filter_map(|s| s.get("start_us").and_then(Value::as_u64))
        .min()
        .unwrap_or(0);
    let mut children: std::collections::HashMap<String, Vec<usize>> =
        std::collections::HashMap::new();
    let mut roots: Vec<usize> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        match field(span, "parent") {
            // A self-parented span would make itself its own child.
            Some(p) if ids.contains(&p) && field(span, "span") != Some(p.clone()) => {
                children.entry(p).or_default().push(i);
            }
            _ => roots.push(i),
        }
    }
    let mut visited = vec![false; spans.len()];
    let mut stack: Vec<(usize, usize)> = roots.into_iter().rev().map(|i| (i, 0)).collect();
    while let Some((i, depth)) = stack.pop() {
        if std::mem::replace(&mut visited[i], true) {
            continue;
        }
        let span = &spans[i];
        let name = field(span, "name").unwrap_or_else(|| "?".to_string());
        let node = field(span, "node").unwrap_or_else(|| "?".to_string());
        let outcome = field(span, "outcome").unwrap_or_else(|| "?".to_string());
        let start = span
            .get("start_us")
            .and_then(Value::as_u64)
            .unwrap_or(base_start);
        let duration = span.get("duration_us").and_then(Value::as_u64).unwrap_or(0);
        let at = match span.get("shard").and_then(Value::as_i64) {
            Some(shard) => format!("{node}/shard{shard}"),
            None => node,
        };
        writeln!(
            out,
            "{:indent$}{name}  [{at}]  +{}us {duration}us  {outcome}",
            "",
            start.saturating_sub(base_start),
            indent = depth * 2
        )
        .map_err(sink)?;
        if let Some(kids) = children.get(&field(span, "span").unwrap_or_default()) {
            for &kid in kids.iter().rev() {
                stack.push((kid, depth + 1));
            }
        }
    }
    Ok(())
}

/// `bmb cluster events ADDR [--since-us N]` — a node's event timeline.
///
/// Prints the node's retained events (its persisted ledger when the
/// role runs with `--dir`, the in-memory ring otherwise) one JSON line
/// each, oldest first. `--since-us N` keeps only events stamped at or
/// after the unix-microsecond floor.
fn cluster_events(args: &Args, out: &mut dyn Write) -> Result<(), String> {
    const EVENTS_USAGE: &str = "usage: bmb cluster events ADDR [--since-us N] [--timeout-secs N]";
    let addr = args.positional(2).ok_or(EVENTS_USAGE)?;
    let timeout = std::time::Duration::from_secs(args.get_or("timeout-secs", 30u64)?);
    let mut client = bmb_serve::Client::connect_timeout(addr, timeout)
        .map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    let mut request = bmb_serve::json::Value::object()
        .with("cmd", bmb_serve::json::Value::Str("events".to_string()));
    if let Some(since) = args.get::<u64>("since-us")? {
        request = request.with("since_us", bmb_serve::json::Value::Int(since as i64));
    }
    let result = client
        .request(&request)
        .map_err(|e| format!("events query failed: {e}"))?;
    let sink = |e: std::io::Error| e.to_string();
    let source = result
        .get("source")
        .and_then(bmb_serve::json::Value::as_str)
        .unwrap_or("?");
    let events = result
        .get("events")
        .and_then(bmb_serve::json::Value::as_array)
        .map(<[bmb_serve::json::Value]>::to_vec)
        .unwrap_or_default();
    writeln!(out, "{} event(s) from the node's {source}", events.len()).map_err(sink)?;
    for event in &events {
        writeln!(out, "{event}").map_err(sink)?;
    }
    Ok(())
}

/// Top-level usage text.
pub const USAGE: &str = "\
bmb — correlation mining for generalized basket data
(Brin/Motwani/Silverstein, SIGMOD 1997)

USAGE:
  bmb mine FILE      [--support F] [--p F] [--alpha F] [--max-level N]
                     [--threads N] [--numeric] [--walk] [--walks N] [--trace]
  bmb pairs FILE     [--alpha F] [--numeric]
  bmb rules FILE     [--support F] [--confidence F] [--numeric]
  bmb generate KIND  [--n N] [--items N] [--seed N] [--out FILE]
                     (KIND: quest | census | text)
  bmb stats FILE     [--numeric]
  bmb serve [FILE]   [--addr HOST:PORT] [--workers N] [--items N]
                     [--segment-capacity N] [--checkpoint-dir DIR] [--checkpoint-every N]
                     [--checkpoint-interval-secs N]
                     [--scrub-interval-secs N] [--repair-peer HOST:PORT]
                     [--max-connections N] [--metrics-addr HOST:PORT]
                     [--events-ledger PATH] [--numeric]
  bmb query ADDR     [LINE...]  [--timeout-secs N]
  bmb wal inspect PATH  [--limit N]
  bmb wal inspect --dir DIR  [--limit N]
  bmb fsck DIR
  bmb cluster shard  --dir DIR --items N [--addr HOST:PORT]
                     [--shard-index N] [--segment-capacity N]
                     [--segment-bytes N] [--retain-checkpoints N]
                     [--checkpoint-every N] [--checkpoint-interval-secs N]
                     [--scrub-interval-secs N] [--repair-peer HOST:PORT]
                     [--workers N] [--max-connections N]
                     [--metrics-addr HOST:PORT]
  bmb cluster serve  --items N --shards A,B,... [--followers A,,...]
                     [--addr HOST:PORT] [--seed N] [--round-robin]
                     [--request-timeout-ms N] [--probe-cooldown-ms N]
                     [--scrub-interval-secs N]
                     [--workers N] [--max-connections N]
                     [--metrics-addr HOST:PORT]
  bmb cluster follow --dir DIR --items N --primary HOST:PORT
                     [--addr HOST:PORT] [--shard-index N] [--poll-ms N]
                     [--scrub-interval-secs N] [--repair-peer HOST:PORT]
                     [--workers N]
  bmb cluster chaos  --listen HOST:PORT --upstream HOST:PORT
                     [--control HOST:PORT] [--seed N]
                     [--refuse-per-mille N] [--drop-per-mille N]
                     [--stall-per-mille N] [--corrupt-per-mille N]
                     [--delay-per-mille N] [--max-delay-us N]
                     [--throttle-per-mille N] [--throttle-bytes-per-sec N]
  bmb cluster trace  ADDR TRACE_ID  [--timeout-secs N]
  bmb cluster events ADDR  [--since-us N] [--timeout-secs N]

Basket files are one basket per line; tokens are item names (default) or
numeric ids (--numeric). '#' starts a comment line.

'bmb serve' answers line-delimited JSON over TCP (cmd: chi2, chi2_batch,
interest, topk, border, ingest, checkpoint, stats, metrics, ping,
shutdown); 'bmb query' sends request lines from the command line or
stdin. With --metrics-addr, 'bmb serve' also exposes a Prometheus text
snapshot over HTTP at /metrics; 'bmb mine --trace' prints per-stage
wall times. With --checkpoint-dir, 'bmb serve' keeps a rotating WAL
plus periodic checkpoints in DIR — restarts replay only the records
after the newest valid checkpoint; 'bmb wal inspect' dumps any WAL
file's records and torn-tail diagnosis (with --dir, one summary line
per rotated segment with its base epoch, plus every checkpoint's
CRC/epoch verdict and the MANIFEST's agreement with the disk). 'bmb
fsck DIR' is the full offline integrity check — every artifact's
magic, CRC, and epoch chain — exiting non-zero on any finding. With
--scrub-interval-secs, durable roles re-verify sealed segments and
checkpoints in the background, quarantining damage and repairing from
--repair-peer or a re-cut checkpoint ('scrub' over the protocol runs
one pass on demand; on the coordinator the same flag paces
anti-entropy digest comparisons across replicas).

'bmb cluster' runs the sharded roles: 'shard' is one durable store,
'serve' is the coordinator that scatters queries over --shards and
gathers per-shard support vectors into answers bit-identical to a
single store (every response carries the per-shard epoch vector), and
'follow' is a warm standby that tails a shard's WAL over
'replicate_pull' and serves reads once promoted.

Every response names its trace id (16 hex digits; supply your own via
a \"trace\" request field to correlate across requests). 'bmb cluster
trace ADDR ID' pulls the span tree for one trace — against the
coordinator, the full cross-node scatter-gather tree. 'bmb cluster
events ADDR' prints a node's event timeline (persisted to
events.jsonl under --dir for durable roles; see also 'bmb serve
--events-ledger'). The coordinator's /metrics federates every node's
exposition with node=/shard= labels plus cluster rollups.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(spec: &[(&str, FlagKind)], tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string()), spec).unwrap()
    }

    fn temp_basket_file(contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!(
            "bmb-cli-test-{}-{}.baskets",
            std::process::id(),
            contents.len()
        ));
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn mine_command_end_to_end() {
        // Parity data as a named file: the miner must find the triple.
        let db = bmb_datasets::parity_triple(200, 3);
        let mut text = Vec::new();
        bmb_basket::io::write(&db, &mut text).unwrap();
        let path = temp_basket_file(std::str::from_utf8(&text).unwrap());
        let a = args(
            MINE_SPEC,
            &[
                "mine",
                path.to_str().unwrap(),
                "--numeric",
                "--support",
                "0.02",
            ],
        );
        let mut out = Vec::new();
        cmd_mine(&a, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(
            rendered.contains("{0, 1, 2}") || rendered.contains("{i0,i1,i2}"),
            "{rendered}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn mine_trace_prints_stage_profile() {
        let db = bmb_datasets::parity_triple(200, 3);
        let mut text = Vec::new();
        bmb_basket::io::write(&db, &mut text).unwrap();
        let path = temp_basket_file(std::str::from_utf8(&text).unwrap());
        let a = args(
            MINE_SPEC,
            &[
                "mine",
                path.to_str().unwrap(),
                "--numeric",
                "--support",
                "0.02",
                "--trace",
            ],
        );
        let mut out = Vec::new();
        cmd_mine(&a, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("# trace: index build "), "{rendered}");
        assert!(rendered.contains("# trace level 2: count "), "{rendered}");
        assert!(rendered.contains("pruned "), "{rendered}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn pairs_command_reports_interest() {
        let path = temp_basket_file("tea coffee\ncoffee\ncoffee\ntea\n");
        let a = args(PAIRS_SPEC, &["pairs", path.to_str().unwrap()]);
        let mut out = Vec::new();
        cmd_pairs(&a, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("tea"), "{rendered}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn rules_command_finds_the_association() {
        let path = temp_basket_file("beer diapers\nbeer diapers\nbeer\nmilk\n");
        let a = args(
            RULES_SPEC,
            &[
                "rules",
                path.to_str().unwrap(),
                "--support",
                "0.25",
                "--confidence",
                "0.6",
            ],
        );
        let mut out = Vec::new();
        cmd_rules(&a, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("diapers"), "{rendered}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn generate_census_round_trips_through_stats() {
        let out_path =
            std::env::temp_dir().join(format!("bmb-cli-census-{}.baskets", std::process::id()));
        let a = args(
            GENERATE_SPEC,
            &["generate", "census", "--out", out_path.to_str().unwrap()],
        );
        let mut out = Vec::new();
        cmd_generate(&a, &mut out).unwrap();
        let s = args(STATS_SPEC, &["stats", out_path.to_str().unwrap()]);
        let mut out = Vec::new();
        cmd_stats(&s, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("baskets: 30370"), "{rendered}");
        // Every item name reads back as one item.
        let db = bmb_datasets::generate_census();
        let items = format!("items: {}\n", db.n_items());
        let mean = format!("mean basket size: {:.2}\n", db.mean_basket_len());
        assert!(rendered.contains(&items), "want {items:?} in {rendered}");
        assert!(rendered.contains(&mean), "want {mean:?} in {rendered}");
        std::fs::remove_file(out_path).ok();
    }

    #[test]
    fn missing_file_is_a_user_error() {
        let a = args(STATS_SPEC, &["stats", "/definitely/not/here.baskets"]);
        let mut out = Vec::new();
        assert!(cmd_stats(&a, &mut out).unwrap_err().contains("cannot open"));
    }

    #[test]
    fn bad_dataset_kind_is_reported() {
        let a = args(GENERATE_SPEC, &["generate", "sandwiches"]);
        let mut out = Vec::new();
        assert!(cmd_generate(&a, &mut out)
            .unwrap_err()
            .contains("unknown dataset"));
    }

    /// A `Write` sink the serve thread and the test can both observe.
    #[derive(Clone, Default)]
    struct SharedBuf(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl SharedBuf {
        fn contents(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
        }
    }

    /// Polls the serve output for the announced address — first line
    /// only, since `--metrics-addr` may announce a second listener.
    fn wait_for_addr(buf: &SharedBuf) -> String {
        loop {
            let text = buf.contents();
            if let Some(pos) = text.find("listening on ") {
                let rest = &text[pos + "listening on ".len()..];
                // The announcement may trail the address with extras
                // like "(generation 1)" — the address is the first word.
                if let Some(line) = rest.lines().next() {
                    if let Some(addr) = line.split_whitespace().next() {
                        break addr.to_string();
                    }
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
    }

    #[test]
    fn serve_and_query_commands_end_to_end() {
        let path = temp_basket_file("0 1\n0 1 2\n2\n0 1\n");
        let serve_args = args(
            SERVE_SPEC,
            &[
                "serve",
                path.to_str().unwrap(),
                "--numeric",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
            ],
        );
        let buf = SharedBuf::default();
        let server_thread = {
            let mut sink = buf.clone();
            std::thread::spawn(move || cmd_serve(&serve_args, &mut sink))
        };
        // Wait for the ephemeral port to be announced.
        let addr = wait_for_addr(&buf);
        let query_args = args(
            QUERY_SPEC,
            &["query", &addr, r#"{"id":1,"cmd":"chi2","items":[0,1]}"#],
        );
        let mut out = Vec::new();
        cmd_query(&query_args, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains(r#""support":3"#), "{rendered}");
        // `shutdown` must drain and let `cmd_serve` return Ok.
        let stop_args = args(QUERY_SPEC, &["query", &addr, r#"{"cmd":"shutdown"}"#]);
        let mut out = Vec::new();
        cmd_query(&stop_args, &mut out).unwrap();
        server_thread.join().unwrap().unwrap();
        assert!(buf.contents().contains("served"), "{}", buf.contents());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn serve_announces_and_serves_http_metrics() {
        use std::io::{Read, Write as _};
        let path = temp_basket_file("0 1\n0 1 2\n2\n0 1\n");
        let serve_args = args(
            SERVE_SPEC,
            &[
                "serve",
                path.to_str().unwrap(),
                "--numeric",
                "--addr",
                "127.0.0.1:0",
                "--metrics-addr",
                "127.0.0.1:0",
                "--workers",
                "2",
            ],
        );
        let buf = SharedBuf::default();
        let server_thread = {
            let mut sink = buf.clone();
            std::thread::spawn(move || cmd_serve(&serve_args, &mut sink))
        };
        let addr = wait_for_addr(&buf);
        // The metrics listener is announced on its own line.
        let metrics_addr = loop {
            let text = buf.contents();
            if let Some(pos) = text.find("metrics on http://") {
                let rest = &text[pos + "metrics on http://".len()..];
                if let Some(end) = rest.find("/metrics") {
                    break rest[..end].to_string();
                }
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        };
        let mut stream = std::net::TcpStream::connect(&metrics_addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.contains("bmb_serve_requests_total"), "{response}");
        let stop_args = args(QUERY_SPEC, &["query", &addr, r#"{"cmd":"shutdown"}"#]);
        let mut out = Vec::new();
        cmd_query(&stop_args, &mut out).unwrap();
        server_thread.join().unwrap().unwrap();
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn serve_without_file_or_items_is_a_user_error() {
        let a = args(SERVE_SPEC, &["serve"]);
        let mut out = Vec::new();
        assert!(cmd_serve(&a, &mut out).unwrap_err().contains("usage"));
    }

    #[test]
    fn serve_checkpoint_dir_without_items_is_a_user_error() {
        let a = args(SERVE_SPEC, &["serve", "--checkpoint-dir", "/tmp/x.d"]);
        let mut out = Vec::new();
        assert!(cmd_serve(&a, &mut out).unwrap_err().contains("--items"));
    }

    /// Boots `bmb serve --checkpoint-dir`, returns address and handles.
    fn spawn_ckpt_server(
        dir: &std::path::Path,
        every: &str,
    ) -> (
        String,
        SharedBuf,
        std::thread::JoinHandle<Result<(), String>>,
    ) {
        let serve_args = args(
            SERVE_SPEC,
            &[
                "serve",
                "--items",
                "4",
                "--checkpoint-dir",
                dir.to_str().unwrap(),
                "--checkpoint-every",
                every,
                "--checkpoint-interval-secs",
                "3600",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "2",
            ],
        );
        let buf = SharedBuf::default();
        let thread = {
            let mut sink = buf.clone();
            std::thread::spawn(move || cmd_serve(&serve_args, &mut sink))
        };
        let addr = wait_for_addr(&buf);
        (addr, buf, thread)
    }

    #[test]
    fn serve_with_checkpoint_dir_recovers_and_answers_admin_checkpoint() {
        let dir = std::env::temp_dir().join(format!("bmb-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // First life: ingest, force an admin checkpoint, ingest more.
        let (addr, _buf, thread) = spawn_ckpt_server(&dir, "1000000");
        let ingest = args(
            QUERY_SPEC,
            &[
                "query",
                &addr,
                r#"{"cmd":"ingest","baskets":[[0,1],[1,2],[0,1]]}"#,
                r#"{"id":9,"cmd":"checkpoint"}"#,
                r#"{"cmd":"ingest","baskets":[[2,3]]}"#,
                r#"{"cmd":"shutdown"}"#,
            ],
        );
        let mut out = Vec::new();
        cmd_query(&ingest, &mut out).unwrap();
        let rendered = String::from_utf8_lossy(&out).into_owned();
        assert!(rendered.contains(r#""id":9,"ok":true"#), "{rendered}");
        assert!(rendered.contains(r#""epoch":4"#), "{rendered}");
        thread.join().unwrap().unwrap();
        assert!(
            std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .any(|e| e.file_name().to_string_lossy().starts_with("ckpt.")),
            "checkpoint file on disk"
        );

        // Second life: bounded recovery announces the checkpoint epoch.
        let (addr, buf, thread) = spawn_ckpt_server(&dir, "1000000");
        assert!(
            buf.contents().contains("checkpoint epoch 3"),
            "{}",
            buf.contents()
        );
        let probe = args(
            QUERY_SPEC,
            &[
                "query",
                &addr,
                r#"{"cmd":"chi2","items":[0,1]}"#,
                r#"{"cmd":"shutdown"}"#,
            ],
        );
        let mut out = Vec::new();
        cmd_query(&probe, &mut out).unwrap();
        let rendered = String::from_utf8_lossy(&out).into_owned();
        assert!(rendered.contains(r#""epoch":4"#), "{rendered}");
        assert!(rendered.contains(r#""support":2"#), "{rendered}");
        thread.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mine_rejects_the_removed_scan_flag() {
        let tokens = ["mine", "baskets.txt", "--scan"];
        let err = Args::parse(tokens.iter().map(|s| s.to_string()), MINE_SPEC).unwrap_err();
        assert!(err.contains("unknown flag --scan"), "{err}");
    }

    #[test]
    fn serve_rejects_the_removed_wal_flag() {
        let tokens = ["serve", "--items", "4", "--wal", "/tmp/x.wal"];
        let err = Args::parse(tokens.iter().map(|s| s.to_string()), SERVE_SPEC).unwrap_err();
        assert!(err.contains("unknown flag --wal"), "{err}");
    }

    #[test]
    fn wal_inspect_dumps_records_and_diagnosis() {
        // Build a real checkpoint directory, then inspect its segment.
        let dir = std::env::temp_dir().join(format!("bmb-cli-inspect-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let (durable, _) = bmb_basket::DurableStore::open_dir(
                Box::new(bmb_basket::FsDir::open(&dir).unwrap()),
                4,
                bmb_basket::StoreConfig::default(),
                bmb_basket::DurabilityConfig::default(),
            )
            .unwrap();
            durable.append_ids([0, 1]).unwrap();
            durable.append_ids([1, 2]).unwrap();
        }
        let wal = dir.join("wal.000000");
        let a = args(WAL_SPEC, &["wal", "inspect", wal.to_str().unwrap()]);
        let mut out = Vec::new();
        cmd_wal(&a, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("segment, base epoch 0"), "{rendered}");
        assert!(rendered.contains("batch"), "{rendered}");
        assert!(rendered.contains("diagnosis: clean"), "{rendered}");
        assert!(rendered.contains("end epoch: 2"), "{rendered}");

        // Tear the tail: the diagnosis must say so, and the command
        // must fail (non-zero exit) so scripts can assert WAL health.
        let bytes = std::fs::read(&wal).unwrap();
        std::fs::write(&wal, &bytes[..bytes.len() - 3]).unwrap();
        let mut out = Vec::new();
        let verdict = cmd_wal(&a, &mut out).unwrap_err();
        assert!(verdict.contains("WAL is not clean"), "{verdict}");
        let rendered = String::from_utf8(out).unwrap();
        assert!(!rendered.contains("diagnosis: clean"), "{rendered}");
        assert!(rendered.contains("end epoch: 1"), "{rendered}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wal_inspect_rejects_non_wal_files() {
        let path = temp_basket_file("definitely not a wal\n");
        let a = args(WAL_SPEC, &["wal", "inspect", path.to_str().unwrap()]);
        let mut out = Vec::new();
        assert!(cmd_wal(&a, &mut out).unwrap_err().contains("not a WAL"));
        let bad_action = args(WAL_SPEC, &["wal", "frobnicate", "x"]);
        let mut out = Vec::new();
        assert!(cmd_wal(&bad_action, &mut out)
            .unwrap_err()
            .contains("unknown wal action"));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wal_inspect_dir_prints_per_segment_base_epochs() {
        // A directory-mode store with a tiny segment cap so rotation
        // actually happens, then the --dir walk.
        let dir = std::env::temp_dir().join(format!("bmb-cli-waldir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let fs = bmb_basket::FsDir::open(&dir).unwrap();
            let (durable, _) = bmb_basket::DurableStore::open_dir(
                Box::new(fs),
                4,
                bmb_basket::StoreConfig::default(),
                bmb_basket::DurabilityConfig {
                    segment_bytes: 64,
                    retain_checkpoints: 2,
                },
            )
            .unwrap();
            for _ in 0..20 {
                durable.append_ids([0, 1]).unwrap();
            }
        }
        let a = args(
            WAL_SPEC,
            &["wal", "inspect", "--dir", dir.to_str().unwrap()],
        );
        let mut out = Vec::new();
        cmd_wal(&a, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("wal.000000: base epoch 0"), "{rendered}");
        assert!(rendered.contains("wal.000001: base epoch "), "{rendered}");
        assert!(rendered.contains("end epoch: 20"), "{rendered}");
        assert!(rendered.contains("segments: "), "{rendered}");

        // --limit caps the per-segment lines, the summary survives.
        let limited = args(
            WAL_SPEC,
            &[
                "wal",
                "inspect",
                "--dir",
                dir.to_str().unwrap(),
                "--limit",
                "1",
            ],
        );
        let mut out = Vec::new();
        cmd_wal(&limited, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("more segments"), "{rendered}");
        assert!(rendered.contains("end epoch: 20"), "{rendered}");

        // An empty directory is a user error, not a silent success.
        let empty = std::env::temp_dir().join(format!("bmb-cli-waldir-e-{}", std::process::id()));
        std::fs::create_dir_all(&empty).unwrap();
        let a = args(
            WAL_SPEC,
            &["wal", "inspect", "--dir", empty.to_str().unwrap()],
        );
        let mut out = Vec::new();
        assert!(cmd_wal(&a, &mut out).unwrap_err().contains("no wal."));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&empty);
    }

    /// A healthy on-disk durability directory: rotated segments, one
    /// checkpoint (plus its MANIFEST), and post-checkpoint records.
    fn durable_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bmb-cli-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fs = bmb_basket::FsDir::open(&dir).unwrap();
        let (durable, _) = bmb_basket::DurableStore::open_dir(
            Box::new(fs),
            8,
            bmb_basket::StoreConfig {
                segment_capacity: 4,
            },
            bmb_basket::DurabilityConfig {
                segment_bytes: 64,
                retain_checkpoints: 2,
            },
        )
        .unwrap();
        for i in 0..10u32 {
            durable.append_ids([i % 3, 3 + (i % 5)]).unwrap();
        }
        durable.checkpoint().unwrap();
        for i in 0..4u32 {
            durable.append_ids([i % 3, 3 + (i % 5)]).unwrap();
        }
        dir
    }

    /// The directory's checkpoint file (there is exactly one).
    fn checkpoint_file(dir: &std::path::Path) -> std::path::PathBuf {
        std::fs::read_dir(dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| {
                p.file_name()
                    .map(|n| n.to_string_lossy().starts_with("ckpt."))
                    .unwrap_or(false)
            })
            .expect("a checkpoint on disk")
    }

    #[test]
    fn fsck_passes_a_healthy_directory_and_fails_a_damaged_one() {
        let dir = durable_dir("fsck");
        let a = args(FSCK_SPEC, &["fsck", dir.to_str().unwrap()]);
        let mut out = Vec::new();
        cmd_fsck(&a, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("clean"), "{rendered}");
        assert!(rendered.contains("artifact(s)"), "{rendered}");

        // Flip one checkpoint byte: fsck must report it and exit
        // non-zero (the Err return maps to exit code 1 in main).
        let ckpt = checkpoint_file(&dir);
        let mut bytes = std::fs::read(&ckpt).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&ckpt, &bytes).unwrap();
        let mut out = Vec::new();
        let verdict = cmd_fsck(&a, &mut out).unwrap_err();
        assert!(verdict.contains("integrity finding"), "{verdict}");
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("ckpt."), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fsck_requires_a_directory_argument() {
        let a = args(FSCK_SPEC, &["fsck"]);
        let mut out = Vec::new();
        assert!(cmd_fsck(&a, &mut out)
            .unwrap_err()
            .contains("usage: bmb fsck DIR"));
    }

    #[test]
    fn wal_inspect_dir_validates_checkpoints_and_manifest() {
        let dir = durable_dir("walck");
        let a = args(
            WAL_SPEC,
            &["wal", "inspect", "--dir", dir.to_str().unwrap()],
        );

        // Healthy: the checkpoint and MANIFEST verify and are listed.
        let mut out = Vec::new();
        cmd_wal(&a, &mut out).unwrap();
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("ckpt."), "{rendered}");
        assert!(
            rendered.contains("MANIFEST: 1 checkpoint(s) listed"),
            "{rendered}"
        );
        assert!(
            rendered.contains("checkpoints: 1, damaged artifacts: 0"),
            "{rendered}"
        );

        // A flipped checkpoint byte fails the walk with a CRC verdict.
        let ckpt = checkpoint_file(&dir);
        let pristine = std::fs::read(&ckpt).unwrap();
        let mut damaged = pristine.clone();
        let mid = damaged.len() / 2;
        damaged[mid] ^= 0xFF;
        std::fs::write(&ckpt, &damaged).unwrap();
        let mut out = Vec::new();
        let verdict = cmd_wal(&a, &mut out).unwrap_err();
        assert!(verdict.contains("damaged checkpoint artifact"), "{verdict}");
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("CRC mismatch"), "{rendered}");

        // Restore the bytes but delete the file: the MANIFEST now
        // disagrees with the disk, which is also a non-zero exit.
        std::fs::write(&ckpt, &pristine).unwrap();
        std::fs::remove_file(&ckpt).unwrap();
        let mut out = Vec::new();
        let verdict = cmd_wal(&a, &mut out).unwrap_err();
        assert!(verdict.contains("damaged checkpoint artifact"), "{verdict}");
        let rendered = String::from_utf8(out).unwrap();
        assert!(rendered.contains("is missing"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Boots one `bmb cluster shard` on an ephemeral port.
    fn spawn_cluster_shard(
        dir: &std::path::Path,
    ) -> (String, std::thread::JoinHandle<Result<(), String>>) {
        let shard_args = args(
            CLUSTER_SPEC,
            &[
                "cluster",
                "shard",
                "--dir",
                dir.to_str().unwrap(),
                "--items",
                "8",
            ],
        );
        let buf = SharedBuf::default();
        let thread = {
            let mut sink = buf.clone();
            std::thread::spawn(move || cmd_cluster(&shard_args, &mut sink))
        };
        let addr = wait_for_addr(&buf);
        (addr, thread)
    }

    fn shutdown_at(addr: &str) {
        let stop = args(QUERY_SPEC, &["query", addr, r#"{"cmd":"shutdown"}"#]);
        let mut out = Vec::new();
        cmd_query(&stop, &mut out).unwrap();
    }

    #[test]
    fn cluster_commands_end_to_end() {
        // Two shards, one coordinator, one follower tailing shard 0 —
        // all through the public CLI entry points.
        let base = std::env::temp_dir().join(format!("bmb-cli-cluster-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&base);
        let (shard0_addr, shard0_thread) = spawn_cluster_shard(&base.join("s0"));
        let (shard1_addr, shard1_thread) = spawn_cluster_shard(&base.join("s1"));

        let serve_args = args(
            CLUSTER_SPEC,
            &[
                "cluster",
                "serve",
                "--items",
                "8",
                "--shards",
                &format!("{shard0_addr},{shard1_addr}"),
                "--round-robin",
                "--addr",
                "127.0.0.1:0",
            ],
        );
        let coord_buf = SharedBuf::default();
        let coord_thread = {
            let mut sink = coord_buf.clone();
            std::thread::spawn(move || cmd_cluster(&serve_args, &mut sink))
        };
        let coord_addr = wait_for_addr(&coord_buf);

        let follow_args = args(
            CLUSTER_SPEC,
            &[
                "cluster",
                "follow",
                "--dir",
                base.join("f0").to_str().unwrap(),
                "--items",
                "8",
                "--primary",
                &shard0_addr,
                "--poll-ms",
                "5",
            ],
        );
        let follow_buf = SharedBuf::default();
        let follow_thread = {
            let mut sink = follow_buf.clone();
            std::thread::spawn(move || cmd_cluster(&follow_args, &mut sink))
        };
        let follow_addr = wait_for_addr(&follow_buf);

        // Ingest through the coordinator; the answer names both epochs.
        let ingest = args(
            QUERY_SPEC,
            &[
                "query",
                &coord_addr,
                r#"{"cmd":"ingest","baskets":[[0,1],[1,2],[0,1],[2,3],[0,1,2]]}"#,
            ],
        );
        let mut out = Vec::new();
        cmd_query(&ingest, &mut out).unwrap();
        let rendered = String::from_utf8_lossy(&out).into_owned();
        assert!(rendered.contains(r#""ingested":5"#), "{rendered}");
        assert!(rendered.contains(r#""epoch":5"#), "{rendered}");
        assert!(rendered.contains(r#""epochs":["#), "{rendered}");

        // A chi2 through the coordinator carries the epoch vector.
        let probe = args(
            QUERY_SPEC,
            &["query", &coord_addr, r#"{"cmd":"chi2","items":[0,1]}"#],
        );
        let mut out = Vec::new();
        cmd_query(&probe, &mut out).unwrap();
        let rendered = String::from_utf8_lossy(&out).into_owned();
        assert!(rendered.contains(r#""statistic":"#), "{rendered}");
        assert!(rendered.contains(r#""epochs":["#), "{rendered}");

        // Round-robin routed baskets 0, 2, 4 to shard 0; the follower
        // tails that shard until its standby reaches the same epoch.
        let stat_of = |addr: &str, key: &str| -> i64 {
            let q = args(QUERY_SPEC, &["query", addr, r#"{"cmd":"stats"}"#]);
            let mut out = Vec::new();
            cmd_query(&q, &mut out).unwrap();
            let line = String::from_utf8(out).unwrap();
            let value = bmb_serve::json::parse(line.trim()).unwrap();
            value
                .get("result")
                .and_then(|r| r.get(key))
                .and_then(bmb_serve::json::Value::as_i64)
                .unwrap_or_else(|| panic!("no {key} in {line}"))
        };
        assert_eq!(stat_of(&shard0_addr, "epoch"), 3);
        let stats = args(QUERY_SPEC, &["query", &follow_addr, r#"{"cmd":"stats"}"#]);
        let mut out = Vec::new();
        cmd_query(&stats, &mut out).unwrap();
        let rendered = String::from_utf8_lossy(&out).into_owned();
        assert!(rendered.contains(r#""role":"follower""#), "{rendered}");
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while stat_of(&follow_addr, "epoch") < 3 || stat_of(&follow_addr, "replication_lag") != 0 {
            assert!(
                std::time::Instant::now() < deadline,
                "follower never caught up to shard 0"
            );
            std::thread::sleep(std::time::Duration::from_millis(20));
        }

        shutdown_at(&coord_addr);
        coord_thread.join().unwrap().unwrap();
        assert!(
            coord_buf.contents().contains("served "),
            "{}",
            coord_buf.contents()
        );
        shutdown_at(&follow_addr);
        follow_thread.join().unwrap().unwrap();
        shutdown_at(&shard0_addr);
        shard0_thread.join().unwrap().unwrap();
        shutdown_at(&shard1_addr);
        shard1_thread.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&base);
    }

    #[test]
    fn cluster_role_errors_are_user_errors() {
        let mut out = Vec::new();
        let a = args(CLUSTER_SPEC, &["cluster"]);
        assert!(cmd_cluster(&a, &mut out).unwrap_err().contains("usage"));
        let a = args(CLUSTER_SPEC, &["cluster", "frobnicate"]);
        assert!(cmd_cluster(&a, &mut out)
            .unwrap_err()
            .contains("unknown cluster role"));
        let a = args(CLUSTER_SPEC, &["cluster", "serve", "--items", "4"]);
        assert!(cmd_cluster(&a, &mut out).unwrap_err().contains("--shards"));
        let a = args(CLUSTER_SPEC, &["cluster", "shard", "--items", "4"]);
        assert!(cmd_cluster(&a, &mut out).unwrap_err().contains("--dir"));
        let a = args(
            CLUSTER_SPEC,
            &["cluster", "follow", "--dir", "/tmp/x", "--items", "4"],
        );
        assert!(cmd_cluster(&a, &mut out).unwrap_err().contains("--primary"));
        let a = args(
            CLUSTER_SPEC,
            &[
                "cluster",
                "serve",
                "--items",
                "4",
                "--shards",
                "a:1,b:2",
                "--followers",
                "c:3",
            ],
        );
        assert!(cmd_cluster(&a, &mut out).unwrap_err().contains("2 shards"));
    }

    #[test]
    fn query_against_no_server_is_a_user_error() {
        let a = args(QUERY_SPEC, &["query", "127.0.0.1:1", r#"{"cmd":"ping"}"#]);
        let mut out = Vec::new();
        assert!(cmd_query(&a, &mut out)
            .unwrap_err()
            .contains("cannot connect"));
    }
}
