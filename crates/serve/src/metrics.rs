//! Server metrics on the shared `bmb-obs` registry.
//!
//! One metrics implementation serves every consumer: the `/stats` wire
//! command reads the same cells Prometheus exposition renders, so the
//! two can never disagree. Counters and gauges are relaxed atomics;
//! request latencies go into per-command log-scale histograms
//! (`bmb_serve_request_us{cmd=...}`), and `/stats` percentiles are
//! nearest-rank quantiles over the merged per-command histograms —
//! reported as bucket upper bounds, so they are within one power-of-two
//! bucket of the true latency.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

use bmb_obs::{
    Counter, Gauge, Histogram, HistogramSnapshot, Registry, SpanRing, TraceId, BUCKETS,
    DEFAULT_SPAN_CAPACITY,
};

/// Command labels pre-registered at construction so the request hot
/// path never takes the registry lock. `"invalid"` is the bucket for
/// lines that failed to parse into any command.
pub const KNOWN_COMMANDS: &[&str] = &[
    "ping",
    "chi2",
    "chi2_batch",
    "interest",
    "topk",
    "border",
    "ingest",
    "checkpoint",
    "stats",
    "metrics",
    "trace",
    "events",
    "support_vec",
    "pair_supports",
    "replicate_pull",
    "promote",
    "demote",
    "shutdown",
    "invalid",
];

/// How many slow-request exemplars the server retains for `/stats`.
const SLOW_EXEMPLAR_CAPACITY: usize = 8;

/// One slow request's identity: what ran, how long, and the trace id
/// that explains it (feed it to `trace <id>` for the full tree).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlowExemplar {
    /// The wire command.
    pub cmd: String,
    /// How long it took, microseconds.
    pub elapsed_us: u64,
    /// The request's trace id (raw).
    pub trace: u64,
}

/// Why a request (or connection) failed, for the per-category error
/// counters surfaced in `/stats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCategory {
    /// The request line was not a well-formed protocol request.
    Parse,
    /// The server shed load: full pending queue or connection limit.
    Overload,
    /// The request exceeded its deadline.
    Deadline,
    /// A socket-level failure while speaking to the client.
    Io,
    /// Any other request failure (engine errors, bad parameters).
    Other,
}

/// Cumulative server counters, gauges, and latency histograms, all
/// living in one [`Registry`] (`bmb_serve_*` families).
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Arc<Registry>,
    /// Requests handled (including failed ones).
    requests: Counter,
    /// Requests answered `"ok": false`.
    request_errors: Counter,
    /// Connections accepted.
    connections: Counter,
    /// Connections rejected by admission control.
    rejected_connections: Counter,
    /// Connections currently open.
    active_connections: Gauge,
    /// Per-category error counters (`category=` label).
    parse_errors: Counter,
    overload_errors: Counter,
    deadline_errors: Counter,
    io_errors: Counter,
    other_errors: Counter,
    /// Baskets ingested through the server.
    ingested_baskets: Counter,
    /// Epoch of the most recent snapshot served (monotonic max).
    last_served_epoch: Gauge,
    /// Requests slower than the configured slow-query threshold.
    slow_requests: Counter,
    /// Per-command request latency histograms.
    per_command: Vec<(&'static str, Histogram)>,
    /// Recent slow requests with their trace ids ([`SlowExemplar`]).
    slow_exemplars: Mutex<VecDeque<SlowExemplar>>,
    /// Completed spans for cross-node trace reconstruction.
    spans: SpanRing,
}

/// A point-in-time copy of every counter, plus derived percentiles.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests handled.
    pub requests: u64,
    /// Requests answered with an error.
    pub errors: u64,
    /// Connections accepted.
    pub connections: u64,
    /// Connections rejected by admission control.
    pub rejected_connections: u64,
    /// Connections currently open.
    pub active_connections: u64,
    /// Malformed request lines.
    pub parse_errors: u64,
    /// Load-shedding rejections.
    pub overload_errors: u64,
    /// Requests that blew their deadline.
    pub deadline_errors: u64,
    /// Socket-level connection failures.
    pub io_errors: u64,
    /// Other request failures.
    pub other_errors: u64,
    /// Baskets ingested through the server.
    pub ingested_baskets: u64,
    /// Epoch of the most recent snapshot served.
    pub last_served_epoch: u64,
    /// Requests over the slow-query threshold.
    pub slow_requests: u64,
    /// Median request latency, microseconds (log-bucket upper bound).
    pub p50_us: u64,
    /// 99th-percentile request latency, microseconds (bucket bound).
    pub p99_us: u64,
}

impl MetricsSnapshot {
    /// Fraction of handled requests that failed, in `[0, 1]`; exactly
    /// `0.0` before the first request (never NaN).
    pub fn error_rate(&self) -> f64 {
        if self.requests == 0 {
            0.0
        } else {
            self.errors as f64 / self.requests as f64
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

impl ServerMetrics {
    /// Fresh zeroed metrics in a fresh registry.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        let category = |cat: &str| {
            registry.counter_with(
                "bmb_serve_errors_total",
                "Failures by category (requests and connection-level).",
                &[("category", cat)],
            )
        };
        let per_command = KNOWN_COMMANDS
            .iter()
            .map(|&cmd| {
                (
                    cmd,
                    registry.histogram_with(
                        "bmb_serve_request_us",
                        "Request handling latency in microseconds.",
                        &[("cmd", cmd)],
                    ),
                )
            })
            .collect();
        ServerMetrics {
            requests: registry.counter("bmb_serve_requests_total", "Requests handled."),
            request_errors: registry.counter(
                "bmb_serve_request_errors_total",
                "Requests answered with an error.",
            ),
            connections: registry.counter("bmb_serve_connections_total", "Connections accepted."),
            rejected_connections: registry.counter(
                "bmb_serve_rejected_connections_total",
                "Connections rejected by admission control.",
            ),
            active_connections: registry.gauge(
                "bmb_serve_active_connections",
                "Connections currently open.",
            ),
            parse_errors: category("parse"),
            overload_errors: category("overload"),
            deadline_errors: category("deadline"),
            io_errors: category("io"),
            other_errors: category("other"),
            ingested_baskets: registry.counter(
                "bmb_serve_ingested_baskets_total",
                "Baskets ingested through the server.",
            ),
            last_served_epoch: registry.gauge(
                "bmb_serve_last_served_epoch",
                "Epoch of the most recent snapshot served to any query.",
            ),
            slow_requests: registry.counter(
                "bmb_serve_slow_requests_total",
                "Requests slower than the slow-query threshold.",
            ),
            per_command,
            slow_exemplars: Mutex::new(VecDeque::new()),
            spans: SpanRing::new(DEFAULT_SPAN_CAPACITY),
            registry,
        }
    }

    /// The server's span ring (completed request/sub-request spans,
    /// served back by the `trace <id>` wire command).
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// The registry backing these metrics, for exposition merging and
    /// programmatic snapshots.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records one handled request: its command, latency, and (when it
    /// failed) the failure category. Unknown command labels fall back
    /// to a registry registration (slow path, never hit by the server
    /// itself — it only passes [`KNOWN_COMMANDS`] labels).
    pub fn record_request(&self, cmd: &str, latency: Duration, failed: Option<ErrorCategory>) {
        self.requests.inc();
        if let Some(category) = failed {
            self.request_errors.inc();
            self.record_error(category);
        }
        match self.per_command.iter().find(|(name, _)| *name == cmd) {
            Some((_, histogram)) => histogram.record_duration(latency),
            None => self
                .registry
                .histogram_with(
                    "bmb_serve_request_us",
                    "Request handling latency in microseconds.",
                    &[("cmd", cmd)],
                )
                .record_duration(latency),
        }
    }

    /// Bumps one category's error counter (without touching the request
    /// counters — connection-level failures are not requests).
    pub fn record_error(&self, category: ErrorCategory) {
        let counter = match category {
            ErrorCategory::Parse => &self.parse_errors,
            ErrorCategory::Overload => &self.overload_errors,
            ErrorCategory::Deadline => &self.deadline_errors,
            ErrorCategory::Io => &self.io_errors,
            ErrorCategory::Other => &self.other_errors,
        };
        counter.inc();
    }

    /// Records one accepted connection; pair with
    /// [`ServerMetrics::record_disconnection`] when it closes.
    pub fn record_connection(&self) {
        self.connections.inc();
        self.active_connections.add(1);
    }

    /// Records an accepted connection closing.
    pub fn record_disconnection(&self) {
        // Saturating: a stray double-close must not wrap the gauge.
        self.active_connections.sub_saturating(1);
    }

    /// Records a connection turned away by admission control.
    pub fn record_rejected_connection(&self) {
        self.rejected_connections.inc();
        self.record_error(ErrorCategory::Overload);
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> u64 {
        u64::try_from(self.active_connections.get()).unwrap_or(0)
    }

    /// Records `n` baskets ingested.
    pub fn record_ingest(&self, n: u64) {
        self.ingested_baskets.add(n);
    }

    /// Records the epoch a query was served at (monotonic max).
    pub fn record_served_epoch(&self, epoch: u64) {
        self.last_served_epoch
            .set_max(i64::try_from(epoch).unwrap_or(i64::MAX));
    }

    /// Records one request over the slow-query threshold, keeping its
    /// trace id as an exemplar so `/stats` can name the worst recent
    /// traces, not just a p99 number.
    pub fn record_slow_request(&self, cmd: &str, elapsed_us: u64, trace: TraceId) {
        self.slow_requests.inc();
        let mut ring = self
            .slow_exemplars
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if ring.len() >= SLOW_EXEMPLAR_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(SlowExemplar {
            cmd: cmd.to_string(),
            elapsed_us,
            trace: trace.as_u64(),
        });
    }

    /// The retained slow-request exemplars, worst (slowest) first;
    /// ties keep arrival order.
    pub fn slow_exemplars(&self) -> Vec<SlowExemplar> {
        let ring = self
            .slow_exemplars
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut exemplars: Vec<SlowExemplar> = ring.iter().cloned().collect();
        exemplars.sort_by_key(|e| std::cmp::Reverse(e.elapsed_us));
        exemplars
    }

    /// All request latencies merged across commands.
    fn merged_latency(&self) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::default();
        for (_, histogram) in &self.per_command {
            let snap = histogram.snapshot();
            for i in 0..BUCKETS {
                merged.buckets[i] += snap.buckets[i];
            }
            merged.sum = merged.sum.saturating_add(snap.sum);
        }
        merged
    }

    /// A point-in-time copy of every counter plus p50/p99 latency
    /// (nearest-rank over the merged histograms; `0` when no request
    /// has been recorded yet).
    pub fn snapshot(&self) -> MetricsSnapshot {
        let latency = self.merged_latency();
        MetricsSnapshot {
            requests: self.requests.get(),
            errors: self.request_errors.get(),
            connections: self.connections.get(),
            rejected_connections: self.rejected_connections.get(),
            active_connections: self.active_connections(),
            parse_errors: self.parse_errors.get(),
            overload_errors: self.overload_errors.get(),
            deadline_errors: self.deadline_errors.get(),
            io_errors: self.io_errors.get(),
            other_errors: self.other_errors.get(),
            ingested_baskets: self.ingested_baskets.get(),
            last_served_epoch: u64::try_from(self.last_served_epoch.get()).unwrap_or(0),
            slow_requests: self.slow_requests.get(),
            p50_us: latency.p50(),
            p99_us: latency.p99(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = ServerMetrics::new();
        m.record_connection();
        m.record_request("chi2", Duration::from_micros(100), None);
        m.record_request(
            "chi2",
            Duration::from_micros(300),
            Some(ErrorCategory::Other),
        );
        m.record_ingest(7);
        m.record_served_epoch(5);
        m.record_served_epoch(3); // must not regress
        let snap = m.snapshot();
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.errors, 1);
        assert_eq!(snap.other_errors, 1);
        assert_eq!(snap.connections, 1);
        assert_eq!(snap.active_connections, 1);
        assert_eq!(snap.ingested_baskets, 7);
        assert_eq!(snap.last_served_epoch, 5);
    }

    #[test]
    fn error_categories_count_separately() {
        let m = ServerMetrics::new();
        m.record_request("chi2", Duration::from_micros(1), Some(ErrorCategory::Parse));
        m.record_request(
            "topk",
            Duration::from_micros(1),
            Some(ErrorCategory::Deadline),
        );
        m.record_request(
            "topk",
            Duration::from_micros(1),
            Some(ErrorCategory::Deadline),
        );
        m.record_error(ErrorCategory::Io);
        m.record_rejected_connection();
        let snap = m.snapshot();
        assert_eq!(snap.parse_errors, 1);
        assert_eq!(snap.deadline_errors, 2);
        assert_eq!(snap.io_errors, 1);
        assert_eq!(snap.overload_errors, 1);
        assert_eq!(snap.rejected_connections, 1);
        // Only the three requests counted as requests/errors.
        assert_eq!(snap.requests, 3);
        assert_eq!(snap.errors, 3);
    }

    #[test]
    fn active_connection_gauge_tracks_opens_and_closes() {
        let m = ServerMetrics::new();
        m.record_connection();
        m.record_connection();
        m.record_disconnection();
        assert_eq!(m.active_connections(), 1);
        m.record_disconnection();
        m.record_disconnection(); // stray double close must not wrap
        assert_eq!(m.active_connections(), 0);
        assert_eq!(m.snapshot().connections, 2);
    }

    #[test]
    fn percentiles_merge_across_commands_within_one_bucket() {
        let m = ServerMetrics::new();
        // 1..=100 microseconds, spread across two command labels.
        for us in 1..=100u64 {
            let cmd = if us % 2 == 0 { "chi2" } else { "topk" };
            m.record_request(cmd, Duration::from_micros(us), None);
        }
        let snap = m.snapshot();
        // Log-bucket quantiles report the bucket upper bound: the true
        // p50 is 50 (bucket (32, 64]), the true p99 is 99 ((64, 128]).
        assert_eq!(snap.p50_us, 64);
        assert_eq!(snap.p99_us, 128);
        assert_eq!(snap.requests, 100);
    }

    #[test]
    fn empty_histograms_report_zero_percentiles_and_rates() {
        let snap = ServerMetrics::new().snapshot();
        assert_eq!(snap.p50_us, 0);
        assert_eq!(snap.p99_us, 0);
        // Bit-exact +0.0 — not NaN, not -0.0, not null on the wire.
        assert_eq!(snap.error_rate().to_bits(), 0u64);
    }

    #[test]
    fn error_rate_is_a_plain_fraction() {
        let m = ServerMetrics::new();
        m.record_request("chi2", Duration::from_micros(1), None);
        m.record_request("chi2", Duration::from_micros(1), Some(ErrorCategory::Other));
        let rate = m.snapshot().error_rate();
        assert!((rate - 0.5).abs() < 1e-12);
    }

    #[test]
    fn registry_exposes_the_same_cells_stats_reads() {
        let m = ServerMetrics::new();
        m.record_request("chi2", Duration::from_micros(9), None);
        m.record_slow_request("chi2", 9, TraceId::from_u64(1));
        let snap = m.registry().snapshot();
        assert_eq!(snap.counter_value("bmb_serve_requests_total", &[]), 1);
        assert_eq!(snap.counter_value("bmb_serve_slow_requests_total", &[]), 1);
        assert_eq!(
            snap.histogram_value("bmb_serve_request_us", &[("cmd", "chi2")])
                .count(),
            1
        );
    }
}
