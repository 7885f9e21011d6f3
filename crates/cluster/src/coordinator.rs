//! The coordinator: scatter support requests, gather integer vectors,
//! evaluate statistics centrally.
//!
//! The coordinator speaks the same line-delimited JSON protocol as a
//! standalone server — clients cannot tell the difference — but owns no
//! baskets. Every query becomes one `support_vec` scatter: each shard
//! pins a single snapshot and answers raw integer supports for the
//! query's subset lattice (in [`bmb_core::subset_itemsets`] mask
//! order). `topk` asks for every pair, so it scatters `pair_supports`
//! instead: each shard answers its item counts, then its pair triangle
//! from one pass over its baskets, in the same reply shape. Supports
//! are *additive* over any partition of the baskets, so the gathered
//! vectors merge by plain `u64` addition, and the
//! merged vector feeds the exact Möbius inversion and `Chi2Test` code
//! path a single store uses ([`bmb_core::table_from_subset_supports`]).
//! That is the whole bit-identity argument: integers merge exactly, and
//! all floating-point work happens once, centrally, in the same order.
//!
//! Every response carries an **epoch vector** `[e0, …, eN-1]` — the
//! per-shard epochs the answer was computed at — alongside the scalar
//! `epoch`, which is their sum (so a 1-shard cluster's scalar epoch
//! matches a plain server's byte for byte).
//!
//! Failure handling: a shard whose transport dies (after the retry
//! client's backoff) is **marked down**; if a follower is configured it
//! is **promoted** and reads route to it; otherwise queries answer a
//! retryable error. A marked-down primary is re-probed after a
//! cooldown and **rejoins** when it answers again.
//!
//! Generation fencing (on by default): the coordinator tracks the
//! highest generation it has observed per shard slot and stamps it as
//! `"gen"` on every request. A shard at a newer generation fences the
//! request (the coordinator adopts the newer generation and retries);
//! a *response* carrying an older generation than the slot's is
//! rejected as stale — a partitioned-away old primary can never get an
//! answer accepted. After a promotion, the coordinator periodically
//! sends the old primary a `demote` naming the promoted follower; a
//! healed old primary adopts the newer generation, tails the new
//! primary's WAL, and only serves again once caught up.
//!
//! A scatter is pipelined from the calling thread: it writes the
//! request to every steady shard's primary in shard order, then reads
//! each reply in the same order, so the shards work at once without a
//! thread per shard. A slot that is not steady, or any failure on that
//! path, goes through the one per-shard request path that owns
//! mark-down, promotion, demotion, rejoin and retries.
//!
//! Lock discipline: `health` (per-shard state), `addr` (endpoint
//! address) and `slot` (the endpoint's checked-in retry client) are
//! never held together, and no lock is held across I/O: a requester
//! checks the endpoint's one client out of `slot`, talks with no lock
//! held, and checks it back in, while a second requester waits for the
//! slot. A scatter holds several endpoints at once; it checks them out
//! in shard order and never waits for an endpoint while holding a
//! higher-indexed one, and its fallbacks run only after every client
//! is back. The declared order is a contract for future code that ever
//! needs to nest the locks.
//! // lock:order(health < addr < slot)

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bmb_basket::{ContingencyTable, ItemId, Itemset};
use bmb_core::{
    check_query_at, check_query_shape, merge_support_vectors, mine_with_counter, rank_pairs,
    subset_itemsets, table_from_subset_supports, Chi2Answer, EngineConfig, EngineError,
    InterestAnswer, Marginals,
};
use bmb_obs::{Registry, SpanRecord, SpanRing, TraceId, DEFAULT_SPAN_CAPACITY};
use bmb_serve::json::Value;
use bmb_serve::protocol::{
    border_value, chi2_entry_value, chi2_value, interest_value, pair_value, trace_value,
};
use bmb_serve::{
    border_config, support_vec_itemset, ClientError, ErrorCategory, Request, RetryClient,
    RetryPolicy, ServerMetrics, Service, ServiceCtx, ServiceFailure,
};
use bmb_stats::Chi2Test;

use crate::clock::{Clock, SystemClock};
use crate::metrics::ClusterMetrics;
use crate::partition::{PartitionStrategy, Partitioner, DEFAULT_SEED};

/// One shard's endpoints: the primary, and an optional warm standby.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// The primary's `host:port`.
    pub addr: String,
    /// A follower replicating this shard's WAL, if provisioned.
    pub follower: Option<String>,
}

impl ShardSpec {
    /// A shard with no follower.
    pub fn primary(addr: impl Into<String>) -> ShardSpec {
        ShardSpec {
            addr: addr.into(),
            follower: None,
        }
    }

    /// Attaches a follower address.
    pub fn with_follower(mut self, addr: impl Into<String>) -> ShardSpec {
        self.follower = Some(addr.into());
        self
    }
}

/// Coordinator configuration.
#[derive(Clone, Debug)]
pub struct CoordinatorConfig {
    /// The cluster's fixed item-space size (every shard is provisioned
    /// with the same one).
    pub n_items: usize,
    /// The shards, in partition order (index = shard id).
    pub shards: Vec<ShardSpec>,
    /// Hash seed for the partitioner (pin it so restarts route alike).
    pub seed: u64,
    /// Basket-to-shard routing strategy.
    pub strategy: PartitionStrategy,
    /// Statistical parameters — must mirror the shards' engines so the
    /// central `Chi2Test` is the one a single store would run.
    pub engine: EngineConfig,
    /// Retry pacing for shard requests.
    pub retry: RetryPolicy,
    /// Socket timeout on shard connections (zero disables).
    pub request_timeout: Duration,
    /// How long a marked-down primary rests before the next re-probe.
    pub probe_cooldown: Duration,
    /// Generation fencing: stamp requests with the slot's highest
    /// observed generation, reject stale responses, and demote healed
    /// old primaries. On by default; disable only to reproduce the
    /// split-brain failure mode in tests.
    pub fencing: bool,
}

impl CoordinatorConfig {
    /// A default-tuned config over primaries only.
    pub fn new(n_items: usize, shard_addrs: impl IntoIterator<Item = String>) -> Self {
        CoordinatorConfig {
            n_items,
            shards: shard_addrs.into_iter().map(ShardSpec::primary).collect(),
            seed: DEFAULT_SEED,
            strategy: PartitionStrategy::Hash,
            engine: EngineConfig::default(),
            retry: RetryPolicy::default(),
            request_timeout: Duration::from_secs(5),
            probe_cooldown: Duration::from_secs(1),
            fencing: true,
        }
    }
}

/// Mutable health state of one shard (guarded by the `health` lock).
#[derive(Debug, Default)]
struct Health {
    /// When the primary was marked down; `None` while healthy. After a
    /// promotion this doubles as the demote-probe pacing timer.
    down_since: Option<Instant>,
    /// Whether reads are routed to the promoted follower.
    promoted: bool,
    /// The highest generation observed for this slot (0 = unknown;
    /// requests are only stamped once a generation is known).
    generation: u64,
    /// Whether the one-time startup reconciliation probe has run.
    probed: bool,
    /// Whether the old primary has acked a `demote` since promotion.
    demoted: bool,
    /// The last transport/fence error from this shard, for stats.
    last_error: Option<String>,
    /// Primary failures since the last success, for stats.
    consecutive_failures: u32,
    /// Integrity totals absorbed from this slot's scrub reports.
    scrub: ScrubTotals,
}

/// Running totals from the scrub reports a slot's endpoints returned
/// (guarded by the `health` lock; surfaced per shard in `/stats`).
#[derive(Clone, Copy, Debug, Default)]
struct ScrubTotals {
    scrubbed: u64,
    corruptions: u64,
    repairs: u64,
    quarantined: u64,
}

impl ScrubTotals {
    fn absorb(&mut self, report: &Value) {
        let field = |key: &str| report.get(key).and_then(Value::as_u64).unwrap_or(0);
        self.scrubbed += field("scrubbed");
        self.corruptions += field("corruptions");
        self.repairs += field("repairs");
        self.quarantined += field("quarantined");
    }
}

/// One endpoint (primary or follower) with its own retry client, and
/// so one connection. The address is mutable so an operator can
/// re-point a revived shard that came back on a different port
/// ([`CoordinatorService::reconnect_shard`]); the `addr` and `slot`
/// locks are never held together.
struct Endpoint {
    addr: Mutex<String>,
    /// The client while no requester has it checked out.
    slot: Mutex<Option<RetryClient>>,
    /// Signalled when a checked-out client comes back.
    returned: Condvar,
}

impl Endpoint {
    fn new(addr: &str, retry: &RetryPolicy, timeout: Duration) -> Endpoint {
        Endpoint {
            addr: Mutex::new(addr.to_string()),
            slot: Mutex::new(Some(
                RetryClient::new(addr, retry.clone()).with_timeout(timeout),
            )),
            returned: Condvar::new(),
        }
    }

    fn addr(&self) -> String {
        lock(&self.addr).clone()
    }

    /// Takes the client out of its slot, waiting while another
    /// requester has it. The lease puts it back when dropped.
    fn checkout(&self) -> Lease<'_> {
        let mut slot = self
            .returned
            .wait_while(lock(&self.slot), |slot| slot.is_none())
            .unwrap_or_else(PoisonError::into_inner);
        Lease {
            endpoint: self,
            client: slot.take(),
            in_flight: false,
        }
    }
}

/// An endpoint's client, checked out for I/O with no lock held.
struct Lease<'a> {
    endpoint: &'a Endpoint,
    /// `Some` from checkout until the drop puts it back.
    client: Option<RetryClient>,
    /// A request was sent and its reply not yet read.
    in_flight: bool,
}

impl Lease<'_> {
    fn client(&mut self) -> Result<&mut RetryClient, ClientError> {
        self.client
            .as_mut()
            .ok_or_else(|| ClientError::Protocol("endpoint client already returned".to_string()))
    }

    /// A whole request, with the client's retries.
    fn request(&mut self, request: &Value) -> Result<Value, ClientError> {
        self.client()?.request(request)
    }

    /// The first half of a pipelined request; no retries.
    fn send(&mut self, request: &Value) -> Result<(), ClientError> {
        self.client()?.send(request)?;
        self.in_flight = true;
        Ok(())
    }

    /// The reply to [`Lease::send`]; no retries.
    fn recv(&mut self) -> Result<Value, ClientError> {
        let reply = self.client()?.recv();
        self.in_flight = false;
        reply
    }
}

impl Drop for Lease<'_> {
    fn drop(&mut self) {
        if let Some(mut client) = self.client.take() {
            // A reply left unread would answer the next request on this
            // connection: drop the connection instead.
            if self.in_flight {
                client.disconnect();
            }
            *lock(&self.endpoint.slot) = Some(client);
            self.endpoint.returned.notify_one();
        }
    }
}

/// One shard: endpoints plus health.
struct ShardState {
    primary: Endpoint,
    follower: Option<Endpoint>,
    health: Mutex<Health>,
}

/// The gathered result of one scatter round.
struct Gather {
    /// Merged (summed) supports, in the request's itemset order.
    supports: Vec<u64>,
    /// Total baskets across shards.
    n: u64,
    /// Per-shard epochs, in shard order.
    epochs: Vec<u64>,
}

impl Gather {
    fn epoch_sum(&self) -> u64 {
        self.epochs.iter().sum()
    }
}

/// The client half of one traced shard sub-request. Its id rides in
/// the request as `"pspan"`, so the shard's server span parents onto
/// it; [`RpcSpan::close`] turns it into the coordinator's span record.
struct RpcSpan {
    name: String,
    trace: u64,
    span: u64,
    parent: u64,
    start_unix_us: u64,
    start: Instant,
}

impl RpcSpan {
    /// When the calling thread carries a trace context: `request`
    /// stamped with `"trace"` and a fresh span id as `"pspan"`, and
    /// that span, started now. A `trace` sub-request's own "trace"
    /// field is the query *target*; stamping the context over it would
    /// corrupt the query, so trace fan-out travels unstamped.
    fn open(request: &Value) -> Option<(Value, RpcSpan)> {
        let trace = bmb_obs::trace::current_trace();
        let cmd = request.get("cmd").and_then(Value::as_str).unwrap_or("?");
        if !trace.is_set() || cmd == "trace" {
            return None;
        }
        let span = bmb_obs::next_span_id();
        let stamped = request
            .clone()
            .with("trace", Value::Str(trace.to_string()))
            .with("pspan", Value::Str(format!("{span:016x}")));
        let start_unix_us = bmb_obs::unix_micros_now();
        Some((
            stamped,
            RpcSpan {
                name: format!("rpc:{cmd}"),
                trace: trace.as_u64(),
                span,
                parent: bmb_obs::trace::current_span(),
                start_unix_us,
                start: Instant::now(),
            },
        ))
    }

    /// The finished span, for the sub-request sent to shard `shard`.
    fn close(self, shard: usize, outcome: &str) -> SpanRecord {
        SpanRecord {
            name: self.name,
            trace: self.trace,
            span: self.span,
            parent: self.parent,
            start_unix_us: self.start_unix_us,
            duration_us: u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX),
            node: "coordinator".to_string(),
            shard: shard as i64,
            outcome: outcome.to_string(),
        }
    }
}

/// The scatter-gather [`Service`]: serves the single-store wire
/// protocol over N shards.
pub struct CoordinatorService {
    config: CoordinatorConfig,
    partitioner: Partitioner,
    test: Chi2Test,
    shards: Vec<ShardState>,
    /// Monotonic basket-id source for the partitioner.
    next_basket: AtomicU64,
    /// Completed client spans: one `rpc:<cmd>` span per traced
    /// sub-request the coordinator sent a shard. Merged with the
    /// serving layer's own server spans by the `trace` command.
    client_spans: SpanRing,
    metrics: ClusterMetrics,
    /// Time source for mark-down/cooldown arithmetic (tests inject a
    /// [`crate::clock::TestClock`]).
    clock: Arc<dyn Clock>,
}

impl CoordinatorService {
    /// A coordinator over `config`'s shards. No connections are opened
    /// until the first request.
    pub fn new(config: CoordinatorConfig) -> CoordinatorService {
        let shards = config
            .shards
            .iter()
            .map(|spec| ShardState {
                primary: Endpoint::new(&spec.addr, &config.retry, config.request_timeout),
                follower: spec
                    .follower
                    .as_deref()
                    .map(|addr| Endpoint::new(addr, &config.retry, config.request_timeout)),
                health: Mutex::new(Health::default()),
            })
            .collect();
        let partitioner = match config.strategy {
            PartitionStrategy::Hash => Partitioner::with_seed(config.shards.len(), config.seed),
            PartitionStrategy::RoundRobin => Partitioner::round_robin(config.shards.len()),
        };
        let test = Chi2Test::new(
            config.engine.alpha,
            config.engine.df,
            config.engine.low_expectation_cutoff,
        );
        CoordinatorService {
            partitioner,
            test,
            shards,
            next_basket: AtomicU64::new(0),
            client_spans: SpanRing::new(DEFAULT_SPAN_CAPACITY),
            metrics: ClusterMetrics::new(),
            clock: Arc::new(SystemClock),
            config,
        }
    }

    /// Replaces the time source (tests drive cooldowns explicitly).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> CoordinatorService {
        self.clock = clock;
        self
    }

    /// The coordinator's metrics (scatters, mark-downs, promotions).
    pub fn metrics(&self) -> &ClusterMetrics {
        &self.metrics
    }

    /// The partitioner in force.
    pub fn partitioner(&self) -> &Partitioner {
        &self.partitioner
    }

    /// Re-points shard `index`'s primary at `addr` — the rejoin hook
    /// for a revived shard that came back on a different port. The
    /// mark-down state is deliberately left alone: the next probe (once
    /// the cooldown lapses) verifies the new address actually answers
    /// and counts the rejoin.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn reconnect_shard(&self, index: usize, addr: &str) {
        let endpoint = &self.shards[index].primary;
        *lock(&endpoint.addr) = addr.to_string();
        // Swapped in once any request in flight on the old client ends.
        endpoint.checkout().client = Some(
            RetryClient::new(addr, self.config.retry.clone())
                .with_timeout(self.config.request_timeout),
        );
    }

    // ---- shard transport -------------------------------------------------

    /// Sends one request to an endpoint over its checked-out client;
    /// no lock is held during the I/O.
    fn request_on(&self, endpoint: &Endpoint, request: &Value) -> Result<Value, ClientError> {
        self.metrics.fanout.inc();
        endpoint.checkout().request(request)
    }

    /// [`Self::request_on`] with generation fencing: the request is
    /// stamped with the slot's highest observed generation, and a
    /// response carrying an *older* generation is rejected as stale (a
    /// partitioned-away old primary can never get an answer accepted).
    /// Newer response generations are adopted into the slot.
    fn fenced_request_on(
        &self,
        endpoint: &Endpoint,
        shard: &ShardState,
        request: &Value,
    ) -> Result<Value, ClientError> {
        let stamped = self.stamp_generation(shard, request);
        let value = self.request_on(endpoint, stamped.as_ref().unwrap_or(request))?;
        self.check_generation(endpoint, shard, &value)?;
        Ok(value)
    }

    /// With fencing, `request` stamped with the slot's highest observed
    /// generation as `"gen"`, once one is known; `None` sends it as is.
    fn stamp_generation(&self, shard: &ShardState, request: &Value) -> Option<Value> {
        if !self.config.fencing {
            return None;
        }
        let slot_gen = lock(&shard.health).generation;
        (slot_gen > 0).then(|| request.clone().with("gen", Value::Int(slot_gen as i64)))
    }

    /// With fencing, the check on a response from `endpoint`: a `"gen"`
    /// below the slot's generation as it stands now is stale and
    /// rejected; a newer one is adopted into the slot.
    fn check_generation(
        &self,
        endpoint: &Endpoint,
        shard: &ShardState,
        value: &Value,
    ) -> Result<(), ClientError> {
        if !self.config.fencing {
            return Ok(());
        }
        let Some(response_gen) = value.get("gen").and_then(Value::as_u64) else {
            return Ok(());
        };
        let slot_gen = {
            let mut health = lock(&shard.health);
            let slot_gen = health.generation;
            health.generation = slot_gen.max(response_gen);
            slot_gen
        };
        if response_gen >= slot_gen {
            return Ok(());
        }
        self.metrics.stale_responses.inc();
        self.event("stale shard response rejected", &endpoint.addr());
        Err(ClientError::Protocol(format!(
            "stale generation: response gen {response_gen} is below slot gen {slot_gen}"
        )))
    }

    /// One-time startup reconciliation for a slot with a follower: the
    /// coordinator restarts with amnesia, so before the first request
    /// it probes both endpoints, adopts the highest generation it sees,
    /// and routes reads to the follower if the follower answers as the
    /// slot's primary at the highest generation (a failover this
    /// coordinator never witnessed).
    fn reconcile_slot(&self, index: usize) {
        let shard = &self.shards[index];
        let Some(follower) = &shard.follower else {
            return;
        };
        {
            let mut health = lock(&shard.health);
            if health.probed {
                return;
            }
            health.probed = true;
        }
        let ping = Value::object().with("cmd", Value::Str("stats".to_string()));
        let view = |answer: Option<Value>| -> (u64, Option<String>) {
            match answer {
                Some(value) => (
                    value.get("gen").and_then(Value::as_u64).unwrap_or(0),
                    value
                        .get("role")
                        .and_then(Value::as_str)
                        .map(str::to_string),
                ),
                None => (0, None),
            }
        };
        let (primary_gen, primary_role) = view(self.request_on(&shard.primary, &ping).ok());
        let (follower_gen, follower_role) = view(self.request_on(follower, &ping).ok());
        let adopted_promotion = {
            let mut health = lock(&shard.health);
            health.generation = health.generation.max(primary_gen).max(follower_gen);
            let follower_leads =
                follower_role.as_deref() == Some("primary") && follower_gen >= primary_gen;
            if follower_leads && !health.promoted {
                health.promoted = true;
                health.down_since = Some(self.clock.now());
                if primary_role.as_deref() == Some("follower") {
                    health.demoted = true;
                }
                true
            } else {
                false
            }
        };
        if adopted_promotion {
            self.event("adopted prior failover at startup", &follower.addr());
        }
    }

    /// After a promotion: periodically (paced by `probe_cooldown`) ask
    /// the old primary to demote itself to a follower of the promoted
    /// replacement. A healed old primary acks, adopts the newer
    /// generation, and catches up over `replicate_pull` before serving;
    /// a still-dead one is retried after the next cooldown.
    fn maybe_demote_stale_primary(&self, index: usize) {
        let shard = &self.shards[index];
        let Some(follower) = &shard.follower else {
            return;
        };
        let now = self.clock.now();
        let due = {
            let mut health = lock(&shard.health);
            if !health.promoted || health.demoted {
                false
            } else {
                let due = health.down_since.is_none_or(|since| {
                    now.saturating_duration_since(since) >= self.config.probe_cooldown
                });
                if due {
                    health.down_since = Some(now);
                }
                due
            }
        };
        if !due {
            return;
        }
        let request = Value::object()
            .with("cmd", Value::Str("demote".to_string()))
            .with("primary", Value::Str(follower.addr()));
        if self
            .fenced_request_on(&shard.primary, shard, &request)
            .is_ok()
        {
            lock(&shard.health).demoted = true;
            self.metrics.demotions.inc();
            self.event("stale primary demoted", &shard.primary.addr());
        }
    }

    /// Sends one request to a shard, handling generation fencing,
    /// mark-down, follower promotion, demotion of healed old primaries,
    /// and re-probe rejoin. When the calling thread carries a trace
    /// context, the sub-request is stamped with `"trace"` and a fresh
    /// client span id as `"pspan"`, and the client span is recorded
    /// into [`Self::client_spans`] — the coordinator's half of the
    /// cross-node trace tree.
    fn shard_request(&self, index: usize, request: &Value) -> Result<Value, ServiceFailure> {
        let Some((stamped, span)) = RpcSpan::open(request) else {
            return self.shard_request_inner(index, request);
        };
        let result = self.shard_request_inner(index, &stamped);
        let outcome = match &result {
            Ok(_) => "ok",
            Err(failure) => match failure.category {
                ErrorCategory::Overload | ErrorCategory::Deadline => "retryable",
                _ => "error",
            },
        };
        self.client_spans.record(span.close(index, outcome));
        result
    }

    /// A successful answer from a slot's primary: clears the slot's
    /// failure state, and counts a rejoin when it was marked down.
    fn primary_answered(&self, shard: &ShardState) {
        let rejoined = {
            let mut health = lock(&shard.health);
            health.consecutive_failures = 0;
            health.last_error = None;
            health.down_since.take().is_some()
        };
        if rejoined {
            self.metrics.rejoins.inc();
            self.event("shard rejoined", &shard.primary.addr());
        }
    }

    fn shard_request_inner(&self, index: usize, request: &Value) -> Result<Value, ServiceFailure> {
        let shard = &self.shards[index];
        if self.config.fencing {
            self.reconcile_slot(index);
        }
        let (promoted, resting) = {
            let health = lock(&shard.health);
            let resting = health.down_since.is_some_and(|since| {
                self.clock.now().saturating_duration_since(since) < self.config.probe_cooldown
            });
            (health.promoted, resting)
        };
        if !promoted && !resting {
            match self.fenced_request_on(&shard.primary, shard, request) {
                Ok(value) => {
                    self.primary_answered(shard);
                    return Ok(value);
                }
                // The shard is alive but ahead of this coordinator:
                // adopt its generation and let the caller retry at it.
                Err(ClientError::Fenced {
                    generation,
                    message,
                }) => {
                    self.metrics.fenced_requests.inc();
                    {
                        let mut health = lock(&shard.health);
                        health.generation = health.generation.max(generation);
                        health.last_error = Some(message.clone());
                    }
                    return Err(ServiceFailure::unavailable(format!(
                        "shard {} fenced the request at generation {generation}: {message}",
                        shard.primary.addr()
                    )));
                }
                // The shard answered — it is alive; surface its verdict.
                Err(ClientError::Server(message)) => return Err(ServiceFailure::other(message)),
                Err(ClientError::Retryable(message)) => {
                    return Err(ServiceFailure::unavailable(message))
                }
                Err(e) => {
                    self.metrics.shard_errors.inc();
                    let fresh_markdown = {
                        let mut health = lock(&shard.health);
                        health.consecutive_failures = health.consecutive_failures.saturating_add(1);
                        health.last_error = Some(e.to_string());
                        if health.down_since.is_none() {
                            health.down_since = Some(self.clock.now());
                            true
                        } else {
                            false
                        }
                    };
                    if fresh_markdown {
                        self.metrics.markdowns.inc();
                        self.event("shard marked down", &shard.primary.addr());
                    }
                }
            }
        }
        // Primary is unusable: promote (once) and read from the follower.
        let Some(follower) = &shard.follower else {
            return Err(ServiceFailure::unavailable(format!(
                "shard {} unreachable and no follower configured",
                shard.primary.addr()
            )));
        };
        if !lock(&shard.health).promoted {
            // The fenced path stamps the slot's generation as the floor
            // the follower must bump past, and adopts the bumped
            // generation from the ack — from here on the old primary's
            // responses are stale by construction.
            let promote = Value::object().with("cmd", Value::Str("promote".to_string()));
            match self.fenced_request_on(follower, shard, &promote) {
                Ok(_) => {
                    let first = {
                        let mut health = lock(&shard.health);
                        let first = !health.promoted;
                        health.promoted = true;
                        first
                    };
                    if first {
                        self.metrics.promotions.inc();
                        self.event("follower promoted", &follower.addr());
                    }
                }
                Err(e) => {
                    return Err(ServiceFailure::unavailable(format!(
                        "shard {} down and follower {} not promotable: {e}",
                        shard.primary.addr(),
                        follower.addr()
                    )))
                }
            }
        }
        if self.config.fencing {
            self.maybe_demote_stale_primary(index);
        }
        match self.fenced_request_on(follower, shard, request) {
            Ok(value) => Ok(value),
            Err(ClientError::Server(message)) => Err(ServiceFailure::other(message)),
            Err(e) => Err(ServiceFailure::unavailable(format!(
                "promoted follower {} failed: {e}",
                follower.addr()
            ))),
        }
    }

    fn event(&self, message: &'static str, addr: &str) {
        bmb_obs::events().emit(bmb_obs::Severity::Warn, message, &[("addr", addr)]);
    }

    // ---- scatter-gather --------------------------------------------------

    /// One scatter round: every shard answers supports for `subsets`
    /// (in order) off a single pinned snapshot; the vectors are summed.
    fn scatter_supports(&self, subsets: &[Vec<ItemId>]) -> Result<Gather, ServiceFailure> {
        let itemsets: Vec<Value> = subsets
            .iter()
            .map(|set| Value::Array(set.iter().map(|item| Value::Int(item.0 as i64)).collect()))
            .collect();
        let request = Value::object()
            .with("cmd", Value::Str("support_vec".to_string()))
            .with("itemsets", Value::Array(itemsets));
        self.gather(&request, subsets.len())
    }

    /// One `pair_supports` scatter round: every shard answers its item
    /// counts, then its pair triangle in `(a, b)` order, off a single
    /// pinned snapshot; the vectors are summed.
    fn scatter_pair_supports(&self) -> Result<Gather, ServiceFailure> {
        let n_items = self.config.n_items;
        let request = Value::object()
            .with("cmd", Value::Str("pair_supports".to_string()))
            .with("n_items", Value::Int(n_items as i64));
        self.gather(&request, n_items + n_items * n_items.saturating_sub(1) / 2)
    }

    /// Scatters `request` and sums the shards' `expected`-long support
    /// vectors.
    fn gather(&self, request: &Value, expected: usize) -> Result<Gather, ServiceFailure> {
        self.metrics.scatters.inc();
        let answers = self.scatter(request);
        let mut supports = vec![0u64; expected];
        let mut n = 0u64;
        let mut epochs = Vec::with_capacity(self.shards.len());
        for answer in answers {
            let value = answer?;
            let shard = parse_support_answer(&value, expected)?;
            merge_support_vectors(&mut supports, &shard.supports);
            n += shard.n;
            epochs.push(shard.epoch);
        }
        Ok(Gather {
            supports,
            n,
            epochs,
        })
    }

    /// Sends `request` to every shard from the calling thread and
    /// returns the answers in shard order. Steady slots (primary
    /// healthy, not promoted, reconciled) are pipelined: phase 1 checks
    /// out each one's primary client in shard order and writes the
    /// stamped request, phase 2 reads each reply in the same order,
    /// checks its generation and checks the client back in. Every other
    /// slot, and every failure on that path, then goes through
    /// [`Self::shard_request`] once all clients are back.
    fn scatter(&self, request: &Value) -> Vec<Result<Value, ServiceFailure>> {
        if self.config.fencing {
            for index in 0..self.shards.len() {
                self.reconcile_slot(index);
            }
        }
        let sent: Vec<_> = (0..self.shards.len())
            .map(|index| self.send_steady(index, request))
            .collect();
        let replies: Vec<Option<Value>> = sent
            .into_iter()
            .enumerate()
            .map(|(index, sent)| {
                sent.and_then(|(lease, span)| self.recv_steady(index, lease, span))
            })
            .collect();
        replies
            .into_iter()
            .enumerate()
            .map(|(index, reply)| match reply {
                Some(value) => Ok(value),
                None => self.shard_request(index, request),
            })
            .collect()
    }

    /// Phase 1 of [`Self::scatter`] for one slot: when it is steady,
    /// checks out its primary's client and writes the request, stamped
    /// as [`Self::shard_request`] would stamp it. `None` leaves the slot
    /// to the fallback, counted under `bmb_cluster_scatter_fallbacks_total`
    /// with the reason.
    fn send_steady(&self, index: usize, request: &Value) -> Option<(Lease<'_>, Option<RpcSpan>)> {
        let shard = &self.shards[index];
        let unsteady = {
            let health = lock(&shard.health);
            if health.promoted {
                Some(&self.metrics.fallback_promoted)
            } else if health.down_since.is_some() {
                Some(&self.metrics.fallback_marked_down)
            } else {
                None
            }
        };
        if let Some(reason) = unsteady {
            reason.inc();
            return None;
        }
        let (traced, span) = RpcSpan::open(request).unzip();
        let request = traced.as_ref().unwrap_or(request);
        let stamped = self.stamp_generation(shard, request);
        let mut lease = shard.primary.checkout();
        self.metrics.fanout.inc();
        if lease.send(stamped.as_ref().unwrap_or(request)).is_ok() {
            return Some((lease, span));
        }
        self.metrics.fallback_send_failed.inc();
        if let Some(span) = span {
            self.client_spans.record(span.close(index, "error"));
        }
        None
    }

    /// Phase 2 of [`Self::scatter`] for a slot sent in phase 1: reads
    /// the reply, applies the generation check, and checks the client
    /// back in. `None` leaves the slot to the fallback, counted as
    /// `reason="reply_failed"`.
    fn recv_steady(
        &self,
        index: usize,
        mut lease: Lease<'_>,
        span: Option<RpcSpan>,
    ) -> Option<Value> {
        let shard = &self.shards[index];
        let reply = lease.recv().and_then(|value| {
            self.check_generation(&shard.primary, shard, &value)
                .map(|()| value)
        });
        drop(lease);
        if let Some(span) = span {
            let outcome = match &reply {
                Ok(_) => "ok",
                Err(ClientError::Retryable(_)) => "retryable",
                Err(_) => "error",
            };
            self.client_spans.record(span.close(index, outcome));
        }
        let Ok(value) = reply else {
            self.metrics.fallback_reply_failed.inc();
            return None;
        };
        self.primary_answered(shard);
        Some(value)
    }

    // ---- central evaluation ----------------------------------------------

    /// Whether every item of `set` lies inside the item space. Only such
    /// sets scatter their lattice; the others fail [`check_query_at`].
    fn in_item_space(&self, set: &Itemset) -> bool {
        set.items()
            .iter()
            .all(|item| item.index() < self.config.n_items)
    }

    /// Scatter + merge + Möbius for one itemset; the shared core of
    /// `chi2` and `interest`.
    fn gathered_table(&self, set: &Itemset) -> Result<(ContingencyTable, Gather), ServiceFailure> {
        check_query_shape(set)?;
        // An out-of-range set scatters nothing, just to learn n/epochs.
        let subsets = if self.in_item_space(set) {
            subset_itemsets(set)
        } else {
            Vec::new()
        };
        let gather = self.scatter_supports(&subsets)?;
        check_query_at(set, gather.n, self.config.n_items)?;
        let table = table_from_subset_supports(set, &gather.supports);
        Ok((table, gather))
    }

    fn dispatch_chi2(
        &self,
        items: Vec<u32>,
        ctx: &ServiceCtx<'_>,
    ) -> Result<Value, ServiceFailure> {
        let set = Itemset::from_ids(items);
        let (table, gather) = self.gathered_table(&set)?;
        let answer = Chi2Answer::from_table(set, gather.epoch_sum(), &table, &self.test);
        ctx.metrics.record_served_epoch(answer.epoch);
        Ok(chi2_value(&answer).with("epochs", epochs_value(&gather.epochs)))
    }

    fn dispatch_chi2_batch(
        &self,
        itemsets: Vec<Vec<u32>>,
        ctx: &ServiceCtx<'_>,
    ) -> Result<Value, ServiceFailure> {
        // One scatter for the whole batch: concatenate every valid
        // itemset's subset lattice, then slice the merged vector back
        // apart. All answers share one epoch vector by construction.
        let sets: Vec<Result<Itemset, EngineError>> = itemsets
            .into_iter()
            .map(|items| {
                let set = Itemset::from_ids(items);
                check_query_shape(&set).map(|()| set)
            })
            .collect();
        let mut subsets: Vec<Vec<ItemId>> = Vec::new();
        let mut spans: Vec<Option<(usize, usize)>> = Vec::with_capacity(sets.len());
        for set in &sets {
            match set {
                Ok(set) if self.in_item_space(set) => {
                    let lattice = subset_itemsets(set);
                    let start = subsets.len();
                    subsets.extend(lattice);
                    spans.push(Some((start, subsets.len())));
                }
                _ => spans.push(None),
            }
        }
        let gather = self.scatter_supports(&subsets)?;
        ctx.check_deadline()?;
        let epoch = gather.epoch_sum();
        ctx.metrics.record_served_epoch(epoch);
        let mut results: Vec<Value> = Vec::with_capacity(sets.len());
        for (set, span) in sets.into_iter().zip(spans) {
            results.push(chi2_entry_value(&self.batch_entry(set, span, &gather)));
        }
        Ok(Value::object()
            .with("epoch", Value::Int(epoch as i64))
            .with("results", Value::Array(results))
            .with("epochs", epochs_value(&gather.epochs)))
    }

    /// One `chi2_batch` entry, with the engine's error precedence.
    fn batch_entry(
        &self,
        set: Result<Itemset, EngineError>,
        span: Option<(usize, usize)>,
        gather: &Gather,
    ) -> Result<Chi2Answer, EngineError> {
        let set = set?;
        check_query_at(&set, gather.n, self.config.n_items)?;
        // In-range and validated, so a span exists; an empty slice only
        // arises for out-of-range sets, rejected just above.
        let supports = match span {
            Some((start, end)) => &gather.supports[start..end],
            None => &[],
        };
        let table = table_from_subset_supports(&set, supports);
        let answer = Chi2Answer::from_table(set, gather.epoch_sum(), &table, &self.test);
        Ok(answer)
    }

    fn dispatch_interest(
        &self,
        items: Vec<u32>,
        cell: u32,
        ctx: &ServiceCtx<'_>,
    ) -> Result<Value, ServiceFailure> {
        let set = Itemset::from_ids(items);
        let (table, gather) = self.gathered_table(&set)?;
        let answer = InterestAnswer::from_table(set, cell, gather.epoch_sum(), &table)?;
        ctx.metrics.record_served_epoch(answer.epoch);
        Ok(interest_value(&answer).with("epochs", epochs_value(&gather.epochs)))
    }

    fn dispatch_topk(&self, k: usize, ctx: &ServiceCtx<'_>) -> Result<Value, ServiceFailure> {
        let gather = self.scatter_pair_supports()?;
        let (item_counts, pair_supports) = gather.supports.split_at(self.config.n_items);
        let rows = rank_pairs(gather.n, item_counts, pair_supports, &self.test, k)?;
        let epoch = gather.epoch_sum();
        ctx.metrics.record_served_epoch(epoch);
        Ok(Value::object()
            .with("epoch", Value::Int(epoch as i64))
            .with("pairs", Value::Array(rows.iter().map(pair_value).collect()))
            .with("epochs", epochs_value(&gather.epochs)))
    }

    fn dispatch_border(
        &self,
        support: Option<f64>,
        support_fraction: Option<f64>,
        max_level: Option<usize>,
        ctx: &ServiceCtx<'_>,
    ) -> Result<Value, ServiceFailure> {
        let config = border_config(support, support_fraction, max_level)?;
        // Marginals from a singleton scatter; the level-wise miner then
        // counts each candidate level with one scatter per level. The
        // epoch vector must hold still across every scatter, or the
        // levels would mix inconsistent snapshots — gather-then-Möbius
        // is only exact at one cut.
        let singletons: Vec<Vec<ItemId>> = (0..self.config.n_items)
            .map(|item| vec![ItemId(item as u32)])
            .collect();
        let first = self.scatter_supports(&singletons)?;
        if first.n == 0 {
            return Err(EngineError::EmptySnapshot.into());
        }
        let epochs = first.epochs;
        let marginals = Marginals {
            n_baskets: first.n,
            item_counts: first.supports,
        };
        let count = |candidates: &[Itemset]| -> Result<Vec<u64>, ServiceFailure> {
            let subsets: Vec<Vec<ItemId>> =
                candidates.iter().map(|set| set.items().to_vec()).collect();
            let level = self.scatter_supports(&subsets)?;
            if level.epochs != epochs {
                return Err(ServiceFailure::unavailable(
                    "snapshot moved during border evaluation (concurrent ingest); retry",
                ));
            }
            ctx.check_deadline()?;
            Ok(level.supports)
        };
        let result = mine_with_counter(&marginals, count, &config)?;
        let epoch: u64 = epochs.iter().sum();
        ctx.metrics.record_served_epoch(epoch);
        Ok(border_value(&result, epoch).with("epochs", epochs_value(&epochs)))
    }

    fn dispatch_ingest(&self, baskets: Vec<Vec<u32>>) -> Result<Value, ServiceFailure> {
        let total = baskets.len();
        // With fencing, a promoted follower *is* the slot's primary at
        // a newer generation and accepts writes. Without fencing
        // (legacy one-way promote), it is a read-only survivor: reject
        // early rather than fork history.
        if !self.config.fencing {
            for (index, shard) in self.shards.iter().enumerate() {
                if lock(&shard.health).promoted {
                    return Err(ServiceFailure::unavailable(format!(
                        "shard {index} lost its primary; ingest is unavailable until it is restored"
                    )));
                }
            }
        }
        let first_id = self.next_basket.fetch_add(total as u64, Ordering::Relaxed);
        let mut per_shard: Vec<Vec<Value>> = vec![Vec::new(); self.shards.len()];
        for (offset, basket) in baskets.into_iter().enumerate() {
            let shard = self.partitioner.shard_of(first_id + offset as u64);
            per_shard[shard].push(Value::Array(
                basket.into_iter().map(|id| Value::Int(id as i64)).collect(),
            ));
        }
        for (index, routed) in per_shard.into_iter().enumerate() {
            if routed.is_empty() {
                continue;
            }
            let request = Value::object()
                .with("cmd", Value::Str("ingest".to_string()))
                .with("baskets", Value::Array(routed));
            // Sequential, and NOT retried past the client's own policy:
            // ingest is not idempotent, and a mid-batch failure must
            // surface as a hard error naming the partial application.
            self.shard_request(index, &request).map_err(|e| {
                ServiceFailure::io(format!(
                    "ingest partially applied: shard {index} failed ({})",
                    e.message
                ))
            })?;
        }
        // Fresh epoch vector after the writes landed.
        let gather = self.scatter_supports(&[])?;
        Ok(Value::object()
            .with("ingested", Value::Int(total as i64))
            .with("epoch", Value::Int(gather.epoch_sum() as i64))
            .with("epochs", epochs_value(&gather.epochs)))
    }

    fn dispatch_stats(&self, ctx: &ServiceCtx<'_>) -> Result<Value, ServiceFailure> {
        let metrics = ctx.metrics.snapshot();
        let ping = Value::object().with("cmd", Value::Str("stats".to_string()));
        let mut shard_rows: Vec<Value> = Vec::with_capacity(self.shards.len());
        let mut epoch_sum = 0u64;
        let mut epochs: Vec<Value> = Vec::with_capacity(self.shards.len());
        for (index, shard) in self.shards.iter().enumerate() {
            let answer = self.shard_request(index, &ping);
            let (up, epoch) = match &answer {
                Ok(value) => (true, value.get("epoch").and_then(Value::as_u64)),
                Err(_) => (false, None),
            };
            if let Some(epoch) = epoch {
                epoch_sum += epoch;
                epochs.push(Value::Int(epoch as i64));
            } else {
                epochs.push(Value::Null);
            }
            let (promoted, generation, last_error, consecutive_failures, scrub) = {
                let health = lock(&shard.health);
                (
                    health.promoted,
                    health.generation,
                    health.last_error.clone(),
                    health.consecutive_failures,
                    health.scrub,
                )
            };
            shard_rows.push(
                Value::object()
                    .with("addr", Value::Str(shard.primary.addr()))
                    .with("up", Value::Bool(up))
                    .with("promoted", Value::Bool(promoted))
                    .with("generation", Value::Int(generation as i64))
                    .with(
                        "last_error",
                        match last_error {
                            Some(message) => Value::Str(message),
                            None => Value::Null,
                        },
                    )
                    .with(
                        "consecutive_failures",
                        Value::Int(consecutive_failures as i64),
                    )
                    .with("scrubbed", Value::Int(scrub.scrubbed as i64))
                    .with("scrub_corruptions", Value::Int(scrub.corruptions as i64))
                    .with("scrub_repairs", Value::Int(scrub.repairs as i64))
                    .with("scrub_quarantined", Value::Int(scrub.quarantined as i64)),
            );
        }
        Ok(Value::object()
            .with("role", Value::Str("coordinator".to_string()))
            .with("requests", Value::Int(metrics.requests as i64))
            .with("errors", Value::Int(metrics.errors as i64))
            .with("p50_us", Value::Int(metrics.p50_us as i64))
            .with("p99_us", Value::Int(metrics.p99_us as i64))
            .with("scatters", Value::Int(self.metrics.scatters.get() as i64))
            .with("fanout", Value::Int(self.metrics.fanout.get() as i64))
            .with("markdowns", Value::Int(self.metrics.markdowns.get() as i64))
            .with("rejoins", Value::Int(self.metrics.rejoins.get() as i64))
            .with(
                "promotions",
                Value::Int(self.metrics.promotions.get() as i64),
            )
            .with("demotions", Value::Int(self.metrics.demotions.get() as i64))
            .with(
                "anti_entropy_rounds",
                Value::Int(self.metrics.anti_entropy_rounds.get() as i64),
            )
            .with(
                "digest_divergences",
                Value::Int(self.metrics.digest_divergences.get() as i64),
            )
            .with(
                "slow_exemplars",
                bmb_serve::slow_exemplars_value(ctx.metrics),
            )
            .with("shards", Value::Array(shard_rows))
            .with("epoch", Value::Int(epoch_sum as i64))
            .with("epochs", Value::Array(epochs)))
    }

    /// `trace`: reconstruct the cross-node tree for one trace id. Own
    /// server spans and client spans merge with every endpoint's ring
    /// (primary *and* follower — after a failover the spans of one
    /// trace can live on either side), queried best-effort: a down
    /// node simply contributes nothing.
    fn dispatch_trace(&self, trace: u64, ctx: &ServiceCtx<'_>) -> Result<Value, ServiceFailure> {
        let mut spans = ctx.metrics.spans().for_trace(trace);
        spans.extend(self.client_spans.for_trace(trace));
        let request = Value::object()
            .with("cmd", Value::Str("trace".to_string()))
            .with("trace", Value::Str(TraceId::from_u64(trace).to_string()));
        for shard in &self.shards {
            let endpoints = [Some(&shard.primary), shard.follower.as_ref()];
            for endpoint in endpoints.into_iter().flatten() {
                // Straight to the endpoint, not through shard_request:
                // a diagnostic read must not trigger mark-downs or
                // promotions, and must reach fenced/demoted nodes too.
                if let Ok(value) = self.request_on(endpoint, &request) {
                    spans.extend(spans_from_value(trace, &value));
                }
            }
        }
        Ok(trace_value(trace, spans))
    }

    /// The federated `/metrics` body: this process's own exposition
    /// plus every shard's, pulled over the `metrics` wire command
    /// (best-effort — a down shard is skipped) and re-labeled.
    fn federated_metrics(&self, metrics: &ServerMetrics) -> String {
        let mut inputs = vec![crate::federation::NodeExposition {
            node: "coordinator".to_string(),
            shard: None,
            text: bmb_serve::exposition(metrics, &self.registries()),
        }];
        let request = Value::object().with("cmd", Value::Str("metrics".to_string()));
        for index in 0..self.shards.len() {
            let Ok(value) = self.shard_request(index, &request) else {
                continue;
            };
            let Some(text) = value.get("text").and_then(Value::as_str) else {
                continue;
            };
            inputs.push(crate::federation::NodeExposition {
                node: format!("shard{index}"),
                shard: Some(index as i64),
                text: text.to_string(),
            });
        }
        crate::federation::federate(&inputs)
    }

    // ---- anti-entropy ----------------------------------------------------

    /// One anti-entropy round: for every slot with a follower, pull
    /// per-segment digests from both endpoints (the `integrity`
    /// command) and compare. Replicas that applied the same epochs
    /// answer bit-identical digests, so any mismatch on a shared
    /// segment is at-rest divergence — the coordinator then triggers a
    /// scrub-and-repair on the *follower*, pointed at the primary as
    /// its repair peer (the primary's acked history is the slot's
    /// authority), and a local scrub on the primary so damage on its
    /// side is detected and quarantined too. Follower lag (missing
    /// trailing segments) is not divergence; replication will close it.
    ///
    /// Endpoints are queried best-effort, straight past the mark-down
    /// machinery — like `trace`, a diagnostic must not cause failovers.
    pub fn anti_entropy_round(&self) -> Value {
        self.metrics.anti_entropy_rounds.inc();
        let request = Value::object().with("cmd", Value::Str("integrity".to_string()));
        let mut slots: Vec<Value> = Vec::with_capacity(self.shards.len());
        let mut divergent_slots = 0u64;
        for (index, shard) in self.shards.iter().enumerate() {
            let row = Value::object().with("shard", Value::Int(index as i64));
            let Some(follower) = &shard.follower else {
                slots.push(row.with("checked", Value::Bool(false)));
                continue;
            };
            let primary = self.request_on(&shard.primary, &request).ok();
            let standby = self.request_on(follower, &request).ok();
            let (Some(primary), Some(standby)) = (primary, standby) else {
                slots.push(row.with("checked", Value::Bool(false)));
                continue;
            };
            let divergent = digests_diverge(&primary, &standby);
            let mut row = row
                .with("checked", Value::Bool(true))
                .with("divergent", Value::Bool(divergent));
            if divergent {
                divergent_slots += 1;
                self.metrics.digest_divergences.inc();
                self.event("anti-entropy digest divergence", &follower.addr());
                let repair = Value::object()
                    .with("cmd", Value::Str("scrub".to_string()))
                    .with("peer", Value::Str(shard.primary.addr()));
                if let Ok(report) = self.request_on(follower, &repair) {
                    self.metrics.remote_scrubs.inc();
                    lock(&shard.health).scrub.absorb(&report);
                    row = row.with("follower_repairs", report_count(&report, "repairs"));
                }
                let local = Value::object().with("cmd", Value::Str("scrub".to_string()));
                if let Ok(report) = self.request_on(&shard.primary, &local) {
                    lock(&shard.health).scrub.absorb(&report);
                    row = row.with("primary_repairs", report_count(&report, "repairs"));
                }
            }
            slots.push(row);
        }
        Value::object()
            .with("slots", Value::Array(slots))
            .with("divergent", Value::Int(divergent_slots as i64))
    }

    /// `scrub` on the coordinator: fan the command out to every slot's
    /// read endpoint, pointing each primary at its follower as the
    /// repair peer (and falling back to local-only repair on promoted
    /// slots, where the follower *is* the read endpoint and must not
    /// dial itself). Totals are absorbed into the per-slot stats.
    fn dispatch_scrub(&self) -> Result<Value, ServiceFailure> {
        let mut rows: Vec<Value> = Vec::with_capacity(self.shards.len());
        let mut totals = ScrubTotals::default();
        for (index, shard) in self.shards.iter().enumerate() {
            let promoted = {
                let health = lock(&shard.health);
                health.promoted
            };
            let mut request = Value::object().with("cmd", Value::Str("scrub".to_string()));
            if !promoted {
                if let Some(follower) = &shard.follower {
                    request = request.with("peer", Value::Str(follower.addr()));
                }
            }
            match self.shard_request(index, &request) {
                Ok(report) => {
                    lock(&shard.health).scrub.absorb(&report);
                    totals.absorb(&report);
                    rows.push(report.with("shard", Value::Int(index as i64)));
                }
                Err(e) => rows.push(
                    Value::object()
                        .with("shard", Value::Int(index as i64))
                        .with("error", Value::Str(e.message.clone())),
                ),
            }
        }
        Ok(Value::object()
            .with("scrubbed", Value::Int(totals.scrubbed as i64))
            .with("corruptions", Value::Int(totals.corruptions as i64))
            .with("repairs", Value::Int(totals.repairs as i64))
            .with("quarantined", Value::Int(totals.quarantined as i64))
            .with("shards", Value::Array(rows)))
    }

    fn dispatch_support_vec(
        &self,
        itemsets: Vec<Vec<u32>>,
        ctx: &ServiceCtx<'_>,
    ) -> Result<Value, ServiceFailure> {
        let mut subsets: Vec<Vec<ItemId>> = Vec::with_capacity(itemsets.len());
        for items in &itemsets {
            let set = support_vec_itemset(items, self.config.n_items)?;
            subsets.push(set.items().to_vec());
        }
        let gather = self.scatter_supports(&subsets)?;
        Ok(gather_value(&gather, ctx))
    }

    fn dispatch_pair_supports(
        &self,
        n_items: usize,
        ctx: &ServiceCtx<'_>,
    ) -> Result<Value, ServiceFailure> {
        if n_items != self.config.n_items {
            return Err(ServiceFailure::other(format!(
                "pair_supports for {n_items} items, but the item space has {} items",
                self.config.n_items
            )));
        }
        let gather = self.scatter_pair_supports()?;
        Ok(gather_value(&gather, ctx))
    }
}

/// A merged support vector as a shard would answer it, plus the epoch
/// vector.
fn gather_value(gather: &Gather, ctx: &ServiceCtx<'_>) -> Value {
    let epoch = gather.epoch_sum();
    ctx.metrics.record_served_epoch(epoch);
    let supports = gather.supports.iter().map(|&s| Value::Int(s as i64));
    Value::object()
        .with("epoch", Value::Int(epoch as i64))
        .with("n", Value::Int(gather.n as i64))
        .with("supports", Value::Array(supports.collect()))
        .with("epochs", epochs_value(&gather.epochs))
}

impl Service for CoordinatorService {
    fn registries(&self) -> Vec<Arc<Registry>> {
        vec![Arc::clone(self.metrics.registry())]
    }

    fn render_metrics(&self, metrics: &ServerMetrics) -> String {
        self.federated_metrics(metrics)
    }

    fn dispatch(&self, request: Request, ctx: &ServiceCtx<'_>) -> Result<Value, ServiceFailure> {
        match request {
            Request::Ping => Ok(Value::object().with("pong", Value::Bool(true))),
            Request::Shutdown => Ok(Value::object().with("stopping", Value::Bool(true))),
            Request::Chi2 { items } => self.dispatch_chi2(items, ctx),
            Request::Chi2Batch { itemsets } => self.dispatch_chi2_batch(itemsets, ctx),
            Request::Interest { items, cell } => self.dispatch_interest(items, cell, ctx),
            Request::TopK { k } => self.dispatch_topk(k, ctx),
            Request::Border {
                support,
                support_fraction,
                max_level,
            } => self.dispatch_border(support, support_fraction, max_level, ctx),
            Request::Ingest { baskets } => {
                let n = baskets.len() as u64;
                let response = self.dispatch_ingest(baskets)?;
                ctx.metrics.record_ingest(n);
                Ok(response)
            }
            Request::SupportVec { itemsets } => self.dispatch_support_vec(itemsets, ctx),
            Request::PairSupports { n_items } => self.dispatch_pair_supports(n_items, ctx),
            Request::Stats => self.dispatch_stats(ctx),
            Request::Metrics => {
                Ok(Value::object().with("text", Value::Str(self.federated_metrics(ctx.metrics))))
            }
            Request::Trace { trace } => self.dispatch_trace(trace, ctx),
            Request::Events { since_us } => Ok(bmb_serve::events_value(since_us)),
            Request::Checkpoint => Err(ServiceFailure::other(
                "issue 'checkpoint' to each shard directly; the coordinator holds no baskets"
                    .to_string(),
            )),
            Request::ReplicatePull { .. } => Err(ServiceFailure::other(
                "not a shard: 'replicate_pull' reads a shard's WAL".to_string(),
            )),
            Request::Integrity { .. } => Ok(self.anti_entropy_round()),
            Request::Scrub { .. } => self.dispatch_scrub(),
            Request::Promote => Err(ServiceFailure::other(
                "not a follower: 'promote' is only valid on follower processes".to_string(),
            )),
            Request::Demote { .. } => Err(ServiceFailure::other(
                "not a shard node: 'demote' targets generation-fenced shard processes".to_string(),
            )),
        }
    }
}

/// One shard's decoded `support_vec` or `pair_supports` answer.
struct ShardAnswer {
    epoch: u64,
    n: u64,
    supports: Vec<u64>,
}

fn parse_support_answer(value: &Value, expected: usize) -> Result<ShardAnswer, ServiceFailure> {
    let epoch = value
        .get("epoch")
        .and_then(Value::as_u64)
        .ok_or_else(|| malformed("missing 'epoch'"))?;
    let n = value
        .get("n")
        .and_then(Value::as_u64)
        .ok_or_else(|| malformed("missing 'n'"))?;
    let raw = value
        .get("supports")
        .and_then(Value::as_array)
        .ok_or_else(|| malformed("missing 'supports'"))?;
    if raw.len() != expected {
        return Err(malformed("wrong support vector length"));
    }
    let supports = raw
        .iter()
        .map(|v| v.as_u64().ok_or_else(|| malformed("non-integer support")))
        .collect::<Result<Vec<u64>, ServiceFailure>>()?;
    Ok(ShardAnswer { epoch, n, supports })
}

fn malformed(what: &str) -> ServiceFailure {
    ServiceFailure::io(format!("malformed shard support response: {what}"))
}

/// Decodes a remote node's `trace` response back into span records
/// (the inverse of [`bmb_serve::protocol::span_value`]); malformed
/// entries are skipped — the tree renders from whatever survives.
fn spans_from_value(trace: u64, value: &Value) -> Vec<SpanRecord> {
    let Some(raw) = value.get("spans").and_then(Value::as_array) else {
        return Vec::new();
    };
    raw.iter()
        .filter_map(|entry| {
            let hex = |key: &str| {
                entry
                    .get(key)
                    .and_then(Value::as_str)
                    .and_then(|text| u64::from_str_radix(text, 16).ok())
            };
            Some(SpanRecord {
                name: entry.get("name").and_then(Value::as_str)?.to_string(),
                trace,
                span: hex("span")?,
                parent: hex("parent").unwrap_or(0),
                start_unix_us: entry.get("start_us").and_then(Value::as_u64).unwrap_or(0),
                duration_us: entry
                    .get("duration_us")
                    .and_then(Value::as_u64)
                    .unwrap_or(0),
                node: entry
                    .get("node")
                    .and_then(Value::as_str)
                    .unwrap_or("?")
                    .to_string(),
                shard: entry.get("shard").and_then(Value::as_i64).unwrap_or(-1),
                outcome: entry
                    .get("outcome")
                    .and_then(Value::as_str)
                    .unwrap_or("ok")
                    .to_string(),
            })
        })
        .collect()
}

/// The epoch vector as a JSON array, in shard order.
fn epochs_value(epochs: &[u64]) -> Value {
    Value::Array(epochs.iter().map(|&e| Value::Int(e as i64)).collect())
}

/// Decodes one endpoint's `integrity` answer into
/// `(segment, end_epoch, crc)` triples; malformed rows are skipped.
fn parse_digests(value: &Value) -> Vec<(u64, u64, u64)> {
    let Some(rows) = value.get("segments").and_then(Value::as_array) else {
        return Vec::new();
    };
    rows.iter()
        .filter_map(|row| {
            Some((
                row.get("segment").and_then(Value::as_u64)?,
                row.get("end_epoch").and_then(Value::as_u64)?,
                row.get("crc").and_then(Value::as_u64)?,
            ))
        })
        .collect()
}

/// Whether two `integrity` answers disagree on any segment both hold.
/// Segments only one side has sealed yet are replication lag, not
/// divergence.
fn digests_diverge(primary: &Value, follower: &Value) -> bool {
    let ours = parse_digests(primary);
    let theirs = parse_digests(follower);
    ours.iter().any(|&(segment, end_epoch, crc)| {
        theirs
            .iter()
            .any(|&(s, e, c)| s == segment && (e != end_epoch || c != crc))
    })
}

/// One numeric field of a scrub report, as a JSON value for the round
/// summary (0 when absent).
fn report_count(report: &Value, key: &str) -> Value {
    Value::Int(report.get(key).and_then(Value::as_i64).unwrap_or(0))
}

/// Acquires a mutex, recovering from poisoning (health flags and retry
/// clients are valid in any state).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// The slot's generation rises while a request is in flight (as when
    /// a concurrent request adopts a newer one). The reply, at a
    /// generation between the two, is stale, and the error names the
    /// generation it was compared with, not the one the request carried.
    #[test]
    fn stale_reply_names_the_generation_it_was_compared_with() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (seen_tx, seen_rx) = mpsc::channel::<String>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let shard = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            writeln!(writer, "{}", bmb_serve::HELLO).expect("banner");
            let mut line = String::new();
            reader.read_line(&mut line).expect("request line");
            seen_tx.send(line).expect("report request");
            release_rx.recv().expect("release");
            writeln!(writer, r#"{{"ok":true,"result":{{"pong":true,"gen":4}}}}"#).expect("reply");
        });

        let coordinator = CoordinatorService::new(CoordinatorConfig::new(4, [addr]));
        let slot = &coordinator.shards[0];
        lock(&slot.health).generation = 3;
        let ping = Value::object().with("cmd", Value::Str("ping".to_string()));
        std::thread::scope(|scope| {
            let request = scope.spawn(|| coordinator.fenced_request_on(&slot.primary, slot, &ping));
            let seen = seen_rx.recv().expect("the request reached the shard");
            assert!(seen.contains(r#""gen":3"#), "stamped at slot gen 3: {seen}");
            lock(&slot.health).generation = 5;
            release_tx.send(()).expect("release the reply");
            match request.join().expect("request thread") {
                Err(ClientError::Protocol(message)) => assert!(
                    message.contains("response gen 4 is below slot gen 5"),
                    "{message}"
                ),
                other => panic!("expected a stale-generation rejection, got {other:?}"),
            }
        });
        assert_eq!(
            lock(&slot.health).generation,
            5,
            "a stale reply never lowers the slot"
        );
        assert_eq!(coordinator.metrics.stale_responses.get(), 1);
        shard.join().expect("fake shard");
    }

    /// `topk` scatters one `pair_supports` for the cluster's item space.
    /// A shard reply one pair short fails the whole query as a malformed
    /// shard response instead of ranking the pairs it did cover.
    #[test]
    fn short_pair_supports_reply_is_a_malformed_shard_response() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let shard = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            writeln!(writer, "{}", bmb_serve::HELLO).expect("banner");
            let mut requests = Vec::new();
            let mut line = String::new();
            while reader.read_line(&mut line).expect("request line") > 0 {
                // Four item counts, then five of the six pairs.
                let reply =
                    r#"{"ok":true,"result":{"epoch":3,"n":3,"supports":[3,2,2,1,2,1,1,0,1]}}"#;
                writeln!(writer, "{reply}").expect("reply");
                requests.push(std::mem::take(&mut line));
            }
            requests
        });

        let coordinator = CoordinatorService::new(CoordinatorConfig::new(4, [addr]));
        let server_config = bmb_serve::ServerConfig::default();
        let metrics = ServerMetrics::new();
        let ctx = ServiceCtx {
            start: Instant::now(),
            config: &server_config,
            metrics: &metrics,
            generation: None,
        };
        let failure = coordinator
            .dispatch(Request::TopK { k: 3 }, &ctx)
            .expect_err("a short reply cannot rank");
        assert_eq!(failure.category, ErrorCategory::Io, "{}", failure.message);
        assert!(
            failure
                .message
                .contains("malformed shard support response: wrong support vector length"),
            "{}",
            failure.message
        );
        drop(coordinator);
        let requests = shard.join().expect("fake shard");
        assert_eq!(requests.len(), 1, "{requests:?}");
        assert!(
            requests[0].contains(r#""cmd":"pair_supports","n_items":4"#),
            "{}",
            requests[0]
        );
    }
}
