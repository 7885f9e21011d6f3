//! `bmb-obs` — workspace-wide observability: metrics + tracing.
//!
//! Every runtime crate (`bmb-basket`, `bmb-core`, `bmb-serve`) reports
//! into this layer instead of hand-rolling counters. Two facilities:
//!
//! * **Metrics** ([`Registry`]): atomic [`Counter`]s, [`Gauge`]s, and
//!   fixed-bucket log-scale [`Histogram`]s with p50/p90/p99/p999
//!   extraction. Hot-path operations are a single relaxed atomic
//!   RMW — the registry mutex is touched only at registration and
//!   snapshot time. Snapshots render to Prometheus text exposition
//!   via [`expose::render`].
//! * **Tracing** ([`trace`]): RAII timed [`trace::Span`]s stacked
//!   per-thread, propagated [`trace::TraceId`]s, and a ring-buffered
//!   [`trace::EventLog`] with severity levels and a configurable sink
//!   (stderr JSON lines for production, in-memory for tests).
//!
//! Metric names follow `bmb_<crate>_<subsystem>_<unit>` (DESIGN.md
//! §10): `bmb_serve_request_us`, `bmb_core_cache_hits_total`,
//! `bmb_basket_wal_sync_us`, `bmb_core_miner_stage_us`.
//!
//! The crate is std-only and panic-free; every API is infallible
//! (misregistration degrades to a detached metric rather than
//! panicking — see [`Registry`]).

/// Prometheus text exposition rendering over registry snapshots.
pub mod expose;
/// Fixed-bucket log-scale histograms with quantile extraction.
pub mod histogram;
/// Persisted, bounded JSON-lines event ledger (failover post-mortems).
pub mod ledger;
/// The metrics registry: counters, gauges, histograms, snapshots.
pub mod registry;
/// Completed-span rings and cross-process span ids.
pub mod spanring;
/// Spans, trace ids, severity-tagged events, and sinks.
pub mod trace;

use std::sync::OnceLock;

pub use histogram::{bucket_index, bucket_upper_bound, HistogramSnapshot, BUCKETS, FINITE_BUCKETS};
pub use ledger::EventLedger;
pub use registry::{
    Counter, FamilySnapshot, Gauge, Histogram, MetricKind, MetricValue, Registry, RegistrySnapshot,
    SeriesSnapshot,
};
pub use spanring::{next_span_id, SpanRecord, SpanRing, DEFAULT_SPAN_CAPACITY};
pub use trace::{unix_micros_now, EventLog, Severity, Sink, Span, TraceId};

/// The process-wide registry, used by code with no natural owner for a
/// per-object registry (the batch miner). Servers and stores own their
/// own [`Registry`] so parallel tests never share counters.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// The process-wide event log (capacity 1024, sink [`Sink::Memory`],
/// minimum severity [`Severity::Info`] until configured otherwise).
pub fn events() -> &'static EventLog {
    static EVENTS: OnceLock<EventLog> = OnceLock::new();
    EVENTS.get_or_init(|| EventLog::new(1024))
}
