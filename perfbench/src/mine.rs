//! `mine_quest`: the paper's χ²-support miner (`bmb_core::mine`, two
//! threads) on a Quest database with Zipf item skew. No sockets; the
//! op is one whole `mine` call.

use std::time::Instant;

use bmb_basket::BasketDatabase;
use bmb_core::{mine, LevelStats, MinerConfig, MiningResult, SupportSpec};

use crate::drive::{Kind, Meter, Window};
use crate::inputs;
use crate::serve::write_spans;
use crate::stats::median;
use crate::stats::FAILED;
use crate::trace::{Tracer, NO_PARENT};
use crate::{Args, E2e, Outcome};

/// Baskets in each mined database.
const MINE_BASKETS: usize = 20_000;
/// Databases mined in rotation. One Quest draw's mining cost varies by
/// about a fifth from seed to seed; a run over many draws averages that
/// out, so its figures hold steady from one seed to the next.
const MINE_DATABASES: usize = 24;
/// Items in the mined database.
const MINE_ITEMS: usize = 300;
/// Worker threads per `mine`.
const MINE_THREADS: usize = 2;
/// The support threshold is the count of this many-th most supported
/// item, so every database has the same number of frequent items and
/// the pair-counting work does not swing with the seed. Thirty keeps a
/// mine near 6.5 ms on the one pinned CPU, so a slice closes after its
/// 100th mine (its p90 has ten beyond it), about 0.65 s in.
const FREQUENT_ITEMS: usize = 30;
/// Deepest level mined.
const MAX_LEVEL: usize = 3;

fn config(db: &BasketDatabase, threads: usize) -> MinerConfig {
    let mut counts = db.item_counts().to_vec();
    counts.sort_unstable_by(|a, b| b.cmp(a));
    MinerConfig {
        support: SupportSpec::Count(counts[FREQUENT_ITEMS - 1]),
        support_fraction: 0.4,
        low_expectation_cutoff: Some(1.0),
        max_level: MAX_LEVEL,
        threads,
        ..MinerConfig::default()
    }
}

/// What must repeat exactly across mines: each significant itemset with
/// its statistic's bits, and every level's counts.
#[derive(Debug, PartialEq, Eq)]
struct Signature {
    significant: Vec<(Vec<u32>, u64)>,
    levels: Vec<LevelStats>,
}

impl Signature {
    fn of(result: &MiningResult) -> Signature {
        Signature {
            significant: result
                .significant
                .iter()
                .map(|r| {
                    let ids = r.itemset.items().iter().map(|i| i.0).collect();
                    (ids, r.chi2.statistic.to_bits())
                })
                .collect(),
            levels: result.levels.clone(),
        }
    }

    /// FNV-1a over the signature; the run prints a digest of all of
    /// them, so a seed's answers can be pinned across commits.
    fn digest(&self) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (ids, bits) in &self.significant {
            ids.iter().for_each(|&i| eat(u64::from(i)));
            eat(*bits);
        }
        for level in &self.levels {
            eat(level.candidates as u64);
            eat(level.significant as u64);
        }
        hash
    }

    fn candidates(&self) -> usize {
        self.levels.iter().map(|l| l.candidates).sum()
    }
}

/// The expected references per seed, one `seed significant candidates
/// digest` line each, so a change to the miner's answers fails the
/// run even when every thread count agrees with every other.
const PINS: &str = include_str!("../mine_quest_pins.tsv");

/// The pinned `(significant, candidates, digest)` of `seed`, if listed.
fn pinned(seed: u64) -> Option<(usize, usize, String)> {
    PINS.lines().find_map(|line| {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields[..] {
            [s, significant, candidates, digest] if s.parse() == Ok(seed) => Some((
                significant.parse().ok()?,
                candidates.parse().ok()?,
                digest.to_string(),
            )),
            _ => None,
        }
    })
}

/// Per-mine stage times from `MinerProfile`, µs.
#[derive(Default)]
struct Stages {
    index_build: Vec<f64>,
    initial_pairs: Vec<f64>,
    count: Vec<f64>,
    evaluate: Vec<f64>,
    candgen: Vec<f64>,
    emit: Vec<f64>,
}

impl Stages {
    fn record(&mut self, result: &MiningResult) {
        let p = &result.profile;
        let sum =
            |f: fn(&bmb_core::LevelProfile) -> u64| p.levels.iter().map(f).sum::<u64>() as f64;
        self.index_build.push(p.index_build_us as f64);
        self.initial_pairs.push(p.initial_pairs_us as f64);
        self.count.push(sum(|l| l.count_us));
        self.evaluate.push(sum(|l| l.evaluate_us));
        self.candgen.push(sum(|l| l.candgen_us));
        self.emit.push(sum(|l| l.emit_us));
    }
}

/// Mines the databases in rotation for `seconds`; each result must
/// match its database's reference.
fn window(
    dbs: &[BasketDatabase],
    references: &[Signature],
    seconds: f64,
    mismatches: &mut Vec<String>,
    tracer: &mut Tracer,
    mut stages: Option<&mut Stages>,
) -> Window {
    let configs: Vec<MinerConfig> = dbs.iter().map(|db| config(db, MINE_THREADS)).collect();
    let mut window = Window::default();
    let mut meter = Meter::timed();
    let mut index = 0usize;
    while meter.elapsed_s() < seconds {
        let k = index % dbs.len();
        let span = tracer.begin("miner.mine", index as u64, NO_PARENT);
        let start = Instant::now();
        let result = mine(&dbs[k], &configs[k]);
        let nanos = start.elapsed().as_nanos() as u64;
        tracer.end(span);
        window.attempted += 1;
        let latency = if Signature::of(&result) == references[k] {
            nanos
        } else {
            window.failed += 1;
            mismatches.push(format!(
                "mine {index} of database {k} differs from its reference"
            ));
            FAILED
        };
        window.reads += 1;
        meter.record(Kind::Read, latency);
        if let Some(stages) = stages.as_deref_mut() {
            stages.record(&result);
        }
        meter.sample_runnable();
        index += 1;
    }
    meter.finish(&mut window);
    window.next = index;
    window
}

/// The miner on seeded Quest databases.
pub fn mine_quest(args: &Args) -> Result<Outcome, String> {
    let dbs: Vec<BasketDatabase> = (0..MINE_DATABASES as u64)
        .map(|k| {
            inputs::quest(
                inputs::sub_seed(args.seed, k),
                MINE_BASKETS,
                MINE_ITEMS,
                10.0,
            )
        })
        .collect();
    println!(
        "workload: mine_quest databases={MINE_DATABASES} baskets={MINE_BASKETS} items={MINE_ITEMS} \
         threads={MINE_THREADS} support=count_of_item_{FREQUENT_ITEMS} support_fraction=0.4 \
         max_level={MAX_LEVEL} client=closed-loop x1 (op = one mine call, databases in rotation)"
    );
    // The references run single-threaded: another split of the work
    // that must agree exactly.
    let references: Vec<Signature> = dbs
        .iter()
        .map(|db| Signature::of(&mine(db, &config(db, 1))))
        .collect();
    let candidates: usize = references.iter().map(Signature::candidates).sum();
    let significant: usize = references.iter().map(|r| r.significant.len()).sum();
    let digest = references
        .iter()
        .fold(0u64, |acc, r| acc.rotate_left(5) ^ r.digest());
    let digest = format!("{digest:016x}");
    println!("reference: significant={significant} candidates={candidates} digest={digest}");
    let mut outcome = Outcome::default();
    match pinned(args.seed) {
        Some(pin) if pin == (significant, candidates, digest.clone()) => {
            println!("reference: matches the pin for seed {}", args.seed)
        }
        Some(pin) => outcome.mismatches.push(format!(
            "seed {}: references are significant={significant} candidates={candidates} \
             digest={digest}, pinned {pin:?}",
            args.seed
        )),
        None => println!("reference: seed {} is not pinned", args.seed),
    }

    // Set-up is the warm-up mine of every database.
    let mut setups = Vec::new();
    for (db, reference) in dbs.iter().zip(&references) {
        let start = Instant::now();
        let result = mine(db, &config(db, MINE_THREADS));
        setups.push(start.elapsed().as_secs_f64());
        if Signature::of(&result) != *reference {
            outcome
                .mismatches
                .push("warm-up mine differs from its reference".to_string());
        }
    }

    let untraced_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let mut quiet = Tracer::new(false);
    let untraced = window(
        &dbs,
        &references,
        untraced_seconds,
        &mut outcome.mismatches,
        &mut quiet,
        None,
    );
    outcome.absorb("untraced", &untraced);
    outcome.e2e = E2e::from_window(&untraced)?;

    if args.trace {
        let mut stages = Stages::default();
        let mut tracer = Tracer::new(true);
        let traced = window(
            &dbs,
            &references,
            args.seconds - untraced_seconds,
            &mut outcome.mismatches,
            &mut tracer,
            Some(&mut stages),
        );
        outcome.absorb("traced", &traced);
        outcome.traced = E2e::from_window(&traced).ok();
        for (metric, values) in [
            ("miner.index_build_us", &stages.index_build),
            ("miner.initial_pairs_us", &stages.initial_pairs),
            ("miner.count_us", &stages.count),
            ("miner.evaluate_us", &stages.evaluate),
            ("miner.candgen_us", &stages.candgen),
            ("miner.emit_us", &stages.emit),
        ] {
            outcome.layers.insert(metric, median(values));
        }
        // Counts per mine, averaged over the rotation.
        let per_db = MINE_DATABASES as f64;
        outcome
            .layers
            .insert("miner.candidates", candidates as f64 / per_db);
        outcome
            .layers
            .insert("miner.significant", significant as f64 / per_db);
        if candidates > 0 {
            outcome
                .layers
                .insert("miner.useful_ratio", significant as f64 / candidates as f64);
        }
        write_spans(&tracer, "mine_quest");
    }
    outcome.set_setup(&setups);
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pin_line_parses() {
        let lines = PINS.lines().count();
        assert!(lines > 0);
        for seed in 0..lines as u64 {
            let (significant, candidates, digest) = pinned(seed).expect("seed pinned");
            assert!(significant > 0 && candidates >= significant);
            assert_eq!(digest.len(), 16);
        }
        assert_eq!(pinned(lines as u64), None);
    }
}
