//! One benchmark command over the serving, cluster and mining layers.
//!
//! ```text
//! perfbench --workload <serve_hot|serve_ingest|cluster_scatter|mine_quest>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run generates its inputs from the seed, hands them to the
//! program through its public APIs, drives one closed-loop client
//! thread for the given seconds, checks the answers, and prints one
//! JSON object as its last line. With `--trace 0` that object holds the
//! end-to-end metrics; with `--trace 1` the run measures half its time
//! untraced and half traced, prints the tracing overhead of every
//! end-to-end metric, and the object holds the per-layer metrics.
//! Diagnostics (machine state, failure categories, workload sizes) are
//! printed on the lines before it and never counted as metrics.

mod cluster;
mod drive;
mod ingest;
mod inputs;
mod media;
mod mine;
mod probe;
mod serve;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::process::ExitCode;

use bmb_serve::json::Value;

use crate::drive::{Slice, Window, MIN_SLICE_READS};
use crate::stats::{interquartile_mean, median};

/// Set-ups per run of a server workload; `setup_s` is their median.
/// The first set-up serves the measured run; the others are timed after
/// it, so the memory they leave behind never counts in its
/// `peak_rss_mb`.
pub const SETUP_REPS: usize = 9;

/// Every per-layer metric, with its unit. A traced run prints all of
/// them; a layer the workload bypasses reads 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("serve.ping_rtt_us", "us"),
    ("serve.parse_us", "us"),
    ("serve.dispatch_us", "us"),
    ("serve.encode_us", "us"),
    ("serve.frontend_share", "ratio"),
    ("engine.table_hit_ratio", "ratio"),
    ("engine.segment_hit_ratio", "ratio"),
    ("engine.segment_evictions", "count"),
    ("engine.chi2_hit_us", "us"),
    ("engine.chi2_miss_us", "us"),
    ("engine.topk_us", "us"),
    ("stats.chi2_test_us", "us"),
    ("store.append_us_per_basket", "us"),
    ("store.snapshot_us", "us"),
    ("store.seals", "count"),
    ("store.support_us", "us"),
    ("wal.append_us", "us"),
    ("wal.bytes_per_user_byte", "ratio"),
    ("wal.checkpoint_us", "us"),
    ("wal.recovery_s", "s"),
    ("wal.replayed_baskets", "count"),
    ("cluster.shard_rpc_us", "us"),
    ("cluster.dispatch_us", "us"),
    ("cluster.merge_eval_us", "us"),
    ("cluster.overhead_x", "ratio"),
    ("miner.index_build_us", "us"),
    ("miner.initial_pairs_us", "us"),
    ("miner.count_us", "us"),
    ("miner.evaluate_us", "us"),
    ("miner.candgen_us", "us"),
    ("miner.emit_us", "us"),
    ("miner.candidates", "count"),
    ("miner.significant", "count"),
    ("miner.useful_ratio", "ratio"),
];

/// The end-to-end metrics of one measured window.
#[derive(Clone, Copy, Debug, Default)]
pub struct E2e {
    /// Median set-up time, s.
    pub setup_s: f64,
    /// Completed ops per second, one closed-loop client.
    pub ops_per_s: f64,
    /// Primary-op latency median, µs.
    pub op_p50_us: f64,
    /// Primary-op latency 90th percentile, µs.
    pub op_p90_us: f64,
    /// Process CPU µs per completed op.
    pub cpu_us_per_op: f64,
    /// Peak resident set size, MB.
    pub peak_rss_mb: f64,
}

impl E2e {
    /// The metrics of a measured window (primary op = its reads): each is
    /// the interquartile mean of its per-slice values, and every slice
    /// holds ten reads beyond its p90. `setup_s` is left 0 for
    /// [`Outcome::set_setup`].
    pub fn from_window(window: &Window) -> Result<E2e, String> {
        let slices = &window.slices;
        if slices.is_empty() {
            return Err(format!(
                "no slice completed with {MIN_SLICE_READS} reads; give the run more seconds"
            ));
        }
        let per_slice = |f: &dyn Fn(&Slice) -> f64| {
            interquartile_mean(&slices.iter().map(f).collect::<Vec<_>>())
        };
        let e2e = E2e {
            setup_s: 0.0,
            ops_per_s: per_slice(&|s| s.completed as f64 / s.elapsed_s),
            op_p50_us: per_slice(&|s| s.p50_us),
            op_p90_us: per_slice(&|s| s.p90_us),
            cpu_us_per_op: per_slice(&|s| s.cpu_us / s.completed as f64),
            peak_rss_mb: window.peak_rss_mb,
        };
        if e2e.op_p50_us.is_finite() && e2e.op_p90_us.is_finite() {
            Ok(e2e)
        } else {
            Err("a latency percentile falls on failed ops".to_string())
        }
    }

    /// (name, value, unit) for every end-to-end metric.
    pub fn pairs(&self) -> [(&'static str, f64, &'static str); 6] {
        [
            ("setup_s", self.setup_s, "s"),
            ("ops_per_s", self.ops_per_s, "1/s"),
            ("op_p50_us", self.op_p50_us, "us"),
            ("op_p90_us", self.op_p90_us, "us"),
            ("cpu_us_per_op", self.cpu_us_per_op, "us"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics, untraced.
    pub e2e: E2e,
    /// End-to-end metrics of the traced half (traced runs only).
    pub traced: Option<E2e>,
    /// Per-layer metrics the workload exercises (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Ops sent.
    pub attempted: u64,
    /// Ops failed or refused.
    pub failed: u64,
    /// Correctness-check failures; any one fails the command.
    pub mismatches: Vec<String>,
}

impl Outcome {
    /// No check found a wrong answer and no op failed: every workload
    /// expects every op to succeed.
    pub fn correct(&self) -> bool {
        self.mismatches.is_empty() && self.failed == 0
    }

    /// Sets `setup_s`, untraced and traced, to the median of `setups`.
    pub fn set_setup(&mut self, setups: &[f64]) {
        println!("setup_s samples: {setups:?}");
        let setup_s = median(setups);
        self.e2e.setup_s = setup_s;
        if let Some(traced) = &mut self.traced {
            traced.setup_s = setup_s;
        }
    }

    /// Adds a window's op counts and prints its diagnostics.
    pub fn absorb(&mut self, label: &str, window: &Window) {
        self.attempted += window.attempted;
        self.failed += window.failed;
        println!("{label}: {}", window.env.line());
        println!(
            "{label}: attempted={} failed={} error_ratio={} failures={:?} elapsed_s={:.3} \
             reads={} writes={} admin={}",
            window.attempted,
            window.failed,
            window.failed as f64 / window.attempted.max(1) as f64,
            window.failures,
            window.elapsed_s,
            window.reads,
            window.writes.len(),
            window.admin
        );
        let rates: Vec<String> = window
            .slices
            .iter()
            .map(|s| {
                format!(
                    "{:.0}/{:.1}/{:.1}/{:.1}/{}",
                    s.completed as f64 / s.elapsed_s,
                    s.p50_us,
                    s.p90_us,
                    s.cpu_us / s.completed as f64,
                    s.steal_ticks
                )
            })
            .collect();
        println!(
            "{label}: {} slices, ops_per_s/op_p50_us/op_p90_us/cpu_us_per_op/steal_ticks \
             by slice: {}",
            window.slices.len(),
            rates.join(" ")
        );
    }
}

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    /// The workload to run.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Per-layer run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn metric(value: f64, unit: &str) -> Value {
    Value::object()
        .with("value", Value::float(value))
        .with("unit", Value::Str(unit.to_string()))
}

fn report(args: &Args, outcome: &Outcome) -> Value {
    let mut metrics = Value::object();
    if args.trace {
        if let Some(traced) = &outcome.traced {
            for ((name, untraced, unit), (_, with_trace, _)) in
                outcome.e2e.pairs().into_iter().zip(traced.pairs())
            {
                println!(
                    "tracing overhead: {name} untraced={untraced:.4} traced={with_trace:.4} \
                     delta={:+.4} {unit}",
                    with_trace - untraced
                );
            }
        }
        for &(name, unit) in LAYER_METRICS {
            let value = outcome.layers.get(name).copied().unwrap_or(0.0);
            metrics = metrics.with(name, metric(value, unit));
        }
    } else {
        for (name, value, unit) in outcome.e2e.pairs() {
            metrics = metrics.with(name, metric(value, unit));
        }
    }
    Value::object()
        .with("correct", Value::Bool(outcome.correct()))
        .with("attempted", Value::Int(outcome.attempted as i64))
        .with("failed", Value::Int(outcome.failed as i64))
        .with("metrics", metrics)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    // Before any other thread exists, so every thread inherits it.
    match probe::pin_to_one_cpu() {
        Ok((cpu, allowed)) => println!("affinity: pinned to cpu {cpu} of {allowed} allowed"),
        Err(e) => println!("affinity: not pinned ({e}); expect more noise"),
    }
    // Started after pinning, so it shares the run's CPU.
    let filler = match probe::IdleFiller::start() {
        Ok(filler) => Some(filler),
        Err(e) => {
            println!("idle filler: not started ({e}); expect more noise");
            None
        }
    };
    let result = match args.workload.as_str() {
        "serve_hot" => serve::serve_hot(&args),
        "serve_ingest" => ingest::serve_ingest(&args),
        "cluster_scatter" => cluster::cluster_scatter(&args),
        "mine_quest" => mine::mine_quest(&args),
        other => Err(format!("unknown workload {other}")),
    };
    drop(filler);
    let outcome = match result {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {}: {message}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for mismatch in outcome.mismatches.iter().take(20) {
        println!("MISMATCH: {mismatch}");
    }
    if outcome.failed > 0 {
        println!(
            "FAILED: {} of {} ops failed or were refused",
            outcome.failed, outcome.attempted
        );
    }
    println!("{}", report(&args, &outcome));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
