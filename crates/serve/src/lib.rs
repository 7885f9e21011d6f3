//! # bmb-serve — the long-running correlation-query server
//!
//! A serving layer over the batch miner: ingest baskets continuously,
//! answer chi-squared / interest / top-k / border queries over TCP with
//! snapshot isolation, and stay bit-identical to a batch run over the
//! same epoch. The stack is std-only — blocking `std::net` sockets, a
//! bounded worker pool on scoped threads, hand-rolled JSON.
//!
//! ```
//! use std::sync::Arc;
//! use bmb_basket::{IncrementalStore, StoreConfig};
//! use bmb_core::{EngineConfig, QueryEngine};
//! use bmb_serve::{Client, Server, ServerConfig};
//! use bmb_serve::json::{parse, Value};
//!
//! let store = Arc::new(IncrementalStore::new(4, StoreConfig::default()));
//! store.append_ids([0, 1]).unwrap();
//! store.append_ids([0, 1, 2]).unwrap();
//! let engine = Arc::new(QueryEngine::new(store, EngineConfig::default()));
//! let server = Server::bind(engine, ServerConfig::default()).unwrap();
//! let addr = server.local_addr();
//! let running = server.spawn();
//!
//! let mut client = Client::connect(addr).unwrap();
//! let result = client
//!     .request(&parse(r#"{"cmd":"chi2","items":[0,1]}"#).unwrap())
//!     .unwrap();
//! assert_eq!(result.get("support").and_then(Value::as_u64), Some(2));
//! running.stop().unwrap();
//! ```
//!
//! Modules:
//!
//! * [`checkpointer`] — the background checkpointer thread;
//! * [`scrubber`] — the background integrity scrubber and wire repair peer;
//! * [`json`] — the hand-rolled JSON value/parser/serializer;
//! * [`protocol`] — request/response shapes of the wire protocol;
//! * [`server`] — accept loop, worker pool, graceful shutdown;
//! * [`client`] — a small blocking client;
//! * [`metrics`] — request counters and latency percentiles.

#![warn(missing_docs)]

/// The background checkpointer thread.
pub mod checkpointer;
/// A small blocking protocol client.
pub mod client;
/// Hand-rolled JSON value, parser, and serializer.
pub mod json;
/// Server counters and latency percentiles.
pub mod metrics;
/// The line-delimited JSON wire protocol.
pub mod protocol;
/// The background integrity scrubber and the wire repair peer.
pub mod scrubber;
/// The TCP server: accept loop, worker pool, shutdown.
pub mod server;

pub use checkpointer::{Checkpointer, CheckpointerConfig};
pub use client::{Client, ClientError, RetryClient, RetryPolicy};
pub use metrics::{ErrorCategory, MetricsSnapshot, ServerMetrics};
pub use protocol::{parse_request, Envelope, Request, HELLO};
pub use scrubber::{Scrubber, ScrubberConfig, WirePeer};
pub use server::{
    events_value, exposition, scrub_report_value, slow_exemplars_value, EngineService,
    RunningServer, Server, ServerConfig, Service, ServiceCtx, ServiceFailure, ShutdownHandle,
};
