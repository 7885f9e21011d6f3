//! The line-delimited JSON wire protocol.
//!
//! Each request is one JSON object on one line; each response is one JSON
//! object on one line. Requests carry a `"cmd"` discriminator and an
//! optional client-chosen `"id"` that is echoed back verbatim, so clients
//! may pipeline. Responses always carry `"ok"` — `true` with a payload or
//! `false` with an `"error"` string. Itemsets travel as arrays of item
//! ids; cells as presence bitmasks in sorted-itemset order.
//!
//! The protocol is versioned by the [`HELLO`] banner the server sends on
//! connect; golden-file fixtures under `tests/fixtures/` pin the exact
//! bytes of every response shape. Every line either side sends goes out
//! through [`crate::protocol::write_line`], as one write.

use bmb_basket::Itemset;
use bmb_core::{Chi2Answer, EngineError, InterestAnswer};
use bmb_core::{MiningResult, PairCorrelation};
use bmb_obs::{SpanRecord, TraceId};

use std::io::{self, Write};

use crate::json::{parse, Value};

/// Protocol banner sent as the first line of every connection.
pub const HELLO: &str = r#"{"proto":"bmb/1","ok":true}"#;

/// One decoded request.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Chi-squared verdict for one itemset.
    Chi2 {
        /// Item ids (any order; canonicalized server-side).
        items: Vec<u32>,
    },
    /// Batched chi-squared over one snapshot: all answers share an epoch.
    Chi2Batch {
        /// The itemsets to test.
        itemsets: Vec<Vec<u32>>,
    },
    /// Interest of one contingency-table cell.
    Interest {
        /// Item ids.
        items: Vec<u32>,
        /// Cell mask (bit `j` = `j`-th smallest item present).
        cell: u32,
    },
    /// The `k` most correlated pairs.
    TopK {
        /// How many pairs.
        k: usize,
    },
    /// The border of minimal correlated itemsets (runs the batch miner).
    Border {
        /// Cell support threshold as a fraction of baskets (default 1%).
        support: Option<f64>,
        /// Fraction of cells that must clear the threshold (default 0.3).
        support_fraction: Option<f64>,
        /// Itemset-size cap (default none).
        max_level: Option<usize>,
    },
    /// Appends baskets; answers with the new epoch.
    Ingest {
        /// The baskets, as arrays of item ids.
        baskets: Vec<Vec<u32>>,
    },
    /// Admin: write a durable checkpoint now (checkpointed servers only).
    Checkpoint,
    /// Shard-internal: raw supports for a list of itemsets, all pinned
    /// to one snapshot. The coordinator's scatter primitive; the empty
    /// itemset answers the basket count.
    SupportVec {
        /// The itemsets (typically a query's full subset lattice).
        itemsets: Vec<Vec<u32>>,
    },
    /// Shard-internal: the item counts, then every item pair's support
    /// in `(a, b)` order, all pinned to one snapshot. The coordinator's
    /// `topk` scatter; the reply has `support_vec`'s shape.
    PairSupports {
        /// The item-space size the sender expects; a shard over a
        /// different item space refuses, so the reply length is fixed
        /// by the request.
        n_items: usize,
    },
    /// Replication: baskets after an epoch, read from the shard's
    /// sealed WAL segments (or a snapshot once the WAL is reclaimed).
    ReplicatePull {
        /// Ship baskets with epochs strictly greater than this.
        after_epoch: u64,
        /// At most this many baskets per pull.
        max_baskets: usize,
    },
    /// Anti-entropy: logical per-segment digests of the node's sealed
    /// segments, so a coordinator can compare primary and follower
    /// content without shipping baskets. Answered from the in-memory
    /// snapshot — works on every node, durable or not.
    Integrity {
        /// Skip segments wholly covered by this epoch (default 0).
        from_epoch: u64,
    },
    /// Admin: run one full scrub pass over the durable artifacts now
    /// (checkpointed servers only), quarantining and repairing at-rest
    /// damage. See `bmb-basket`'s `scrub` module for the decision tree.
    Scrub {
        /// Replica address to re-fetch damaged segment ranges from;
        /// overrides the server's configured repair peer for this pass.
        peer: Option<String>,
    },
    /// Promote a follower to serve reads (follower processes only).
    Promote,
    /// Demote a stale primary back to a catching-up follower of
    /// `primary` (cluster node processes only). The request's envelope
    /// generation is the floor the node's own generation is raised to.
    Demote {
        /// Address of the node to tail (the promoted replacement).
        primary: String,
    },
    /// Server and cache counters.
    Stats,
    /// The full Prometheus text exposition, as a string payload.
    Metrics,
    /// Completed spans for one trace id from this node's span ring
    /// (the coordinator fans the query out and merges the tree).
    Trace {
        /// The trace id being reconstructed (raw, nonzero).
        trace: u64,
    },
    /// The node's event timeline (promotions, demotions, fence
    /// rejections, WAL degradations), from the persisted ledger when
    /// one is attached, else the in-memory ring.
    Events {
        /// Only events at or after this Unix-microsecond timestamp.
        since_us: Option<u64>,
    },
    /// Liveness probe.
    Ping,
    /// Graceful shutdown: drain in-flight queries, then exit.
    Shutdown,
}

impl Request {
    /// The wire command name, used as the `cmd=` label on the server's
    /// per-command latency histograms.
    pub fn name(&self) -> &'static str {
        match self {
            Request::Chi2 { .. } => "chi2",
            Request::Chi2Batch { .. } => "chi2_batch",
            Request::Interest { .. } => "interest",
            Request::TopK { .. } => "topk",
            Request::Border { .. } => "border",
            Request::Ingest { .. } => "ingest",
            Request::Checkpoint => "checkpoint",
            Request::SupportVec { .. } => "support_vec",
            Request::PairSupports { .. } => "pair_supports",
            Request::ReplicatePull { .. } => "replicate_pull",
            Request::Integrity { .. } => "integrity",
            Request::Scrub { .. } => "scrub",
            Request::Promote => "promote",
            Request::Demote { .. } => "demote",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Trace { .. } => "trace",
            Request::Events { .. } => "events",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
        }
    }
}

/// A request plus its optional client correlation id.
#[derive(Clone, Debug, PartialEq)]
pub struct Envelope {
    /// Echoed back in the response as `"id"`.
    pub id: Option<i64>,
    /// The sender's fencing generation (`"gen"`), when stamped. A
    /// cluster node rejects requests fenced below its own generation;
    /// `promote`/`demote` instead treat it as the floor to bump past.
    pub generation: Option<u64>,
    /// Inbound trace context (`"trace"`, 16 lowercase hex digits): the
    /// server *adopts* this id instead of minting one, so one logical
    /// request keeps a single trace id across every wire hop.
    /// Malformed values are rejected at parse time, never silently
    /// replaced. (For the `trace` command itself the field is the
    /// query target, not context — it stays `None` here.)
    pub trace: Option<TraceId>,
    /// Parent span id (`"pspan"`, same wire format): the sender's span
    /// this request is a child of; 0 when absent. Recorded spans on
    /// this node parent under it in the reconstructed tree.
    pub parent_span: u64,
    /// The decoded command.
    pub request: Request,
}

/// Reads a `[[1,2],[3]]`-shaped array of itemsets.
fn parse_id_lists(value: Option<&Value>, what: &str) -> Result<Vec<Vec<u32>>, String> {
    let outer = value
        .and_then(Value::as_array)
        .ok_or_else(|| format!("'{what}' must be an array of item-id arrays"))?;
    outer
        .iter()
        .map(|inner| parse_ids(Some(inner), what))
        .collect()
}

/// Reads a `[1,2,3]`-shaped array of item ids.
fn parse_ids(value: Option<&Value>, what: &str) -> Result<Vec<u32>, String> {
    let items = value
        .and_then(Value::as_array)
        .ok_or_else(|| format!("'{what}' must be an array of item ids"))?;
    items
        .iter()
        .map(|v| {
            v.as_u64()
                .and_then(|id| u32::try_from(id).ok())
                .ok_or_else(|| format!("'{what}' entries must be item ids (u32)"))
        })
        .collect()
}

/// Decodes one request line.
///
/// # Errors
///
/// Returns a human-readable message for malformed JSON, a missing or
/// unknown `"cmd"`, or ill-typed fields.
pub fn parse_request(line: &str) -> Result<Envelope, String> {
    let value = parse(line).map_err(|e| format!("bad JSON: {e}"))?;
    let id = value.get("id").and_then(Value::as_i64);
    let generation = value.get("gen").and_then(Value::as_u64);
    let cmd = value
        .get("cmd")
        .and_then(Value::as_str)
        .ok_or_else(|| "missing 'cmd'".to_string())?;
    // Trace context: a present-but-malformed id is a parse error (the
    // client asked for correlation and would silently lose it), never
    // silently replaced with a minted one. The `trace` *command* reads
    // the same field as its query target instead.
    let (trace, parent_span) = if cmd == "trace" {
        (None, 0)
    } else {
        let trace = match value.get("trace") {
            None => None,
            Some(raw) => Some(parse_trace_id(raw, "trace")?),
        };
        let parent_span = match value.get("pspan") {
            None => 0,
            Some(raw) => parse_trace_id(raw, "pspan")?.as_u64(),
        };
        (trace, parent_span)
    };
    let request = match cmd {
        "chi2" => Request::Chi2 {
            items: parse_ids(value.get("items"), "items")?,
        },
        "chi2_batch" => Request::Chi2Batch {
            itemsets: parse_id_lists(value.get("itemsets"), "itemsets")?,
        },
        "interest" => Request::Interest {
            items: parse_ids(value.get("items"), "items")?,
            cell: value
                .get("cell")
                .and_then(Value::as_u64)
                .and_then(|c| u32::try_from(c).ok())
                .ok_or_else(|| "'cell' must be a cell mask (u32)".to_string())?,
        },
        "topk" => Request::TopK {
            k: value
                .get("k")
                .and_then(Value::as_u64)
                .map(|k| k as usize)
                .ok_or_else(|| "'k' must be a positive integer".to_string())?,
        },
        "border" => Request::Border {
            support: value.get("support").and_then(Value::as_f64),
            support_fraction: value.get("support_fraction").and_then(Value::as_f64),
            max_level: value
                .get("max_level")
                .and_then(Value::as_u64)
                .map(|m| m as usize),
        },
        "ingest" => Request::Ingest {
            baskets: parse_id_lists(value.get("baskets"), "baskets")?,
        },
        "checkpoint" => Request::Checkpoint,
        "support_vec" => Request::SupportVec {
            itemsets: parse_id_lists(value.get("itemsets"), "itemsets")?,
        },
        "pair_supports" => Request::PairSupports {
            n_items: value
                .get("n_items")
                .and_then(Value::as_u64)
                .map(|n| n as usize)
                .ok_or_else(|| "'n_items' must be a non-negative integer".to_string())?,
        },
        "replicate_pull" => Request::ReplicatePull {
            after_epoch: value
                .get("after_epoch")
                .and_then(Value::as_u64)
                .ok_or_else(|| "'after_epoch' must be a non-negative integer".to_string())?,
            max_baskets: value
                .get("max_baskets")
                .and_then(Value::as_u64)
                .map(|m| m as usize)
                .unwrap_or(8192),
        },
        "integrity" => Request::Integrity {
            from_epoch: match value.get("from_epoch") {
                None => 0,
                Some(raw) => raw
                    .as_u64()
                    .ok_or_else(|| "'from_epoch' must be a non-negative integer".to_string())?,
            },
        },
        "scrub" => Request::Scrub {
            peer: match value.get("peer") {
                None => None,
                Some(raw) => Some(
                    raw.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "'peer' must be an address string".to_string())?,
                ),
            },
        },
        "promote" => Request::Promote,
        "demote" => Request::Demote {
            primary: value
                .get("primary")
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| "'primary' must be an address string".to_string())?,
        },
        "stats" => Request::Stats,
        "metrics" => Request::Metrics,
        "trace" => Request::Trace {
            trace: value
                .get("trace")
                .ok_or_else(|| "missing 'trace' (the id to reconstruct)".to_string())
                .and_then(|raw| parse_trace_id(raw, "trace"))?
                .as_u64(),
        },
        "events" => Request::Events {
            since_us: value.get("since_us").and_then(Value::as_u64),
        },
        "ping" => Request::Ping,
        "shutdown" => Request::Shutdown,
        other => return Err(format!("unknown cmd '{other}'")),
    };
    Ok(Envelope {
        id,
        generation,
        trace,
        parent_span,
        request,
    })
}

/// Validates one wire trace/span id field: a string of exactly 16
/// lowercase hex digits, nonzero.
fn parse_trace_id(raw: &Value, what: &str) -> Result<TraceId, String> {
    raw.as_str()
        .and_then(TraceId::parse_hex)
        .ok_or_else(|| format!("invalid '{what}': expected 16 lowercase hex digits (nonzero)"))
}

/// Capacity a reused line buffer keeps once a line has gone out. A
/// connection reuses one buffer per direction for its whole life; the
/// cap stops one large reply (a `border`, a `replicate_pull` batch) from
/// pinning its size until the connection closes.
pub(crate) const RETAINED_LINE_BYTES: usize = 64 * 1024;

/// Writes one protocol line, `line` and its `\n`, with a single
/// `write_all`, then empties `line` for reuse, keeping at most 64 KiB
/// of its capacity. Both ends set `TCP_NODELAY`, so
/// two writes would leave as two segments; the client, the banner,
/// responses, error lines and connection rejections all write through
/// here.
///
/// # Errors
///
/// Propagates the writer's error; `line` is emptied either way.
pub fn write_line<W: Write + ?Sized>(out: &mut W, line: &mut String) -> io::Result<()> {
    line.push('\n');
    let written = out.write_all(line.as_bytes());
    line.clear();
    line.shrink_to(RETAINED_LINE_BYTES);
    written
}

/// Starts a success response, echoing `id` when present.
pub fn ok_response(id: Option<i64>) -> Value {
    let mut v = Value::object();
    if let Some(id) = id {
        v = v.with("id", Value::Int(id));
    }
    v.with("ok", Value::Bool(true))
}

/// A failure response with the echoed `id` and an error message.
pub fn error_response(id: Option<i64>, message: &str) -> Value {
    let mut v = Value::object();
    if let Some(id) = id {
        v = v.with("id", Value::Int(id));
    }
    v.with("ok", Value::Bool(false))
        .with("error", Value::Str(message.to_string()))
}

/// A failure response additionally marked `"retryable":true` — the
/// failure is transient (overload, deadline) and the client may safely
/// try again. Permanent failures use [`error_response`] and carry no
/// `retryable` field at all.
pub fn retryable_error_response(id: Option<i64>, message: &str) -> Value {
    error_response(id, message).with("retryable", Value::Bool(true))
}

/// A failure response marked `"fenced":true` carrying the server's
/// generation: the request was stamped with a generation below the
/// node's own, so the sender is acting on a stale view of the cluster
/// and must re-learn the topology rather than retry. Permanent — never
/// marked retryable.
pub fn fenced_error_response(id: Option<i64>, generation: u64, message: &str) -> Value {
    error_response(id, message)
        .with("fenced", Value::Bool(true))
        .with("gen", Value::Int(generation as i64))
}

/// One completed span for a `trace` response. The `parent` field is
/// omitted for roots (parent id 0), and `shard` for unsharded nodes.
pub fn span_value(span: &SpanRecord) -> Value {
    let mut v = Value::object()
        .with("name", Value::Str(span.name.clone()))
        .with("span", Value::Str(format!("{:016x}", span.span)));
    if span.parent != 0 {
        v = v.with("parent", Value::Str(format!("{:016x}", span.parent)));
    }
    v = v
        .with("start_us", Value::Int(span.start_unix_us as i64))
        .with("duration_us", Value::Int(span.duration_us as i64))
        .with("node", Value::Str(span.node.clone()));
    if span.shard >= 0 {
        v = v.with("shard", Value::Int(span.shard));
    }
    v.with("outcome", Value::Str(span.outcome.clone()))
}

/// The payload of a `trace` response: every known span of one trace,
/// sorted by start time (ties by span id) so the tree reads in
/// execution order.
pub fn trace_value(trace: u64, mut spans: Vec<SpanRecord>) -> Value {
    spans.sort_by_key(|s| (s.start_unix_us, s.span));
    spans.dedup();
    Value::object()
        .with("trace", Value::Str(TraceId::from_u64(trace).to_string()))
        .with("count", Value::Int(spans.len() as i64))
        .with(
            "spans",
            Value::Array(spans.iter().map(span_value).collect()),
        )
}

/// An itemset as a JSON array of ids.
pub fn itemset_value(set: &Itemset) -> Value {
    Value::Array(set.items().iter().map(|i| Value::Int(i.0 as i64)).collect())
}

/// The payload fields of one chi-squared answer (shared by `chi2` and
/// `chi2_batch` entries).
pub fn chi2_value(answer: &Chi2Answer) -> Value {
    Value::object()
        .with("itemset", itemset_value(&answer.itemset))
        .with("epoch", Value::Int(answer.epoch as i64))
        .with("support", Value::Int(answer.support as i64))
        .with("statistic", Value::float(answer.outcome.statistic))
        .with("cutoff", Value::float(answer.outcome.cutoff))
        .with("significant", Value::Bool(answer.outcome.significant))
        .with("ln_p_value", Value::float(answer.outcome.ln_p_value))
}

/// One `chi2_batch` entry: the answer's fields, or its error message.
pub fn chi2_entry_value(entry: &Result<Chi2Answer, EngineError>) -> Value {
    match entry {
        Ok(answer) => chi2_value(answer),
        Err(e) => Value::object().with("error", Value::Str(e.to_string())),
    }
}

/// The payload fields of one interest answer.
pub fn interest_value(answer: &InterestAnswer) -> Value {
    Value::object()
        .with("itemset", itemset_value(&answer.itemset))
        .with("cell", Value::Int(answer.cell as i64))
        .with("epoch", Value::Int(answer.epoch as i64))
        .with("observed", Value::Int(answer.observed as i64))
        .with("expected", Value::float(answer.expected))
        .with("interest", Value::float(answer.interest))
}

/// One ranked pair row of a `topk` response.
pub fn pair_value(pair: &PairCorrelation) -> Value {
    Value::object()
        .with("a", Value::Int(pair.a.0 as i64))
        .with("b", Value::Int(pair.b.0 as i64))
        .with("statistic", Value::float(pair.chi2.statistic))
        .with("significant", Value::Bool(pair.chi2.significant))
        .with(
            "interests",
            Value::Array(pair.interests.iter().map(|&i| Value::float(i)).collect()),
        )
}

/// The payload of a `border` response: the minimal correlated itemsets
/// plus the thresholds the miner resolved.
pub fn border_value(result: &MiningResult, epoch: u64) -> Value {
    Value::object()
        .with("epoch", Value::Int(epoch as i64))
        .with("support_count", Value::Int(result.support_count as i64))
        .with("chi2_cutoff", Value::float(result.chi2_cutoff))
        .with(
            "significant",
            Value::Array(
                result
                    .significant
                    .iter()
                    .map(|rule| {
                        Value::object()
                            .with("itemset", itemset_value(&rule.itemset))
                            .with("statistic", Value::float(rule.chi2.statistic))
                            .with("support_cells", Value::Int(rule.support_cells as i64))
                    })
                    .collect(),
            ),
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_command() {
        let cases: Vec<(&str, Request)> = vec![
            (
                r#"{"id":1,"cmd":"chi2","items":[7,2]}"#,
                Request::Chi2 { items: vec![7, 2] },
            ),
            (
                r#"{"cmd":"chi2_batch","itemsets":[[0,1],[2]]}"#,
                Request::Chi2Batch {
                    itemsets: vec![vec![0, 1], vec![2]],
                },
            ),
            (
                r#"{"cmd":"interest","items":[2,7],"cell":3}"#,
                Request::Interest {
                    items: vec![2, 7],
                    cell: 3,
                },
            ),
            (r#"{"cmd":"topk","k":5}"#, Request::TopK { k: 5 }),
            (
                r#"{"cmd":"border","support":0.25,"max_level":3}"#,
                Request::Border {
                    support: Some(0.25),
                    support_fraction: None,
                    max_level: Some(3),
                },
            ),
            (
                r#"{"cmd":"ingest","baskets":[[0,1],[2]]}"#,
                Request::Ingest {
                    baskets: vec![vec![0, 1], vec![2]],
                },
            ),
            (r#"{"cmd":"checkpoint"}"#, Request::Checkpoint),
            (
                r#"{"cmd":"support_vec","itemsets":[[],[2],[2,7]]}"#,
                Request::SupportVec {
                    itemsets: vec![vec![], vec![2], vec![2, 7]],
                },
            ),
            (
                r#"{"cmd":"pair_supports","n_items":200}"#,
                Request::PairSupports { n_items: 200 },
            ),
            (
                r#"{"cmd":"replicate_pull","after_epoch":17,"max_baskets":100}"#,
                Request::ReplicatePull {
                    after_epoch: 17,
                    max_baskets: 100,
                },
            ),
            (
                r#"{"cmd":"replicate_pull","after_epoch":0}"#,
                Request::ReplicatePull {
                    after_epoch: 0,
                    max_baskets: 8192,
                },
            ),
            (
                r#"{"cmd":"integrity","from_epoch":8}"#,
                Request::Integrity { from_epoch: 8 },
            ),
            (
                r#"{"cmd":"integrity"}"#,
                Request::Integrity { from_epoch: 0 },
            ),
            (
                r#"{"cmd":"scrub","peer":"127.0.0.1:9001"}"#,
                Request::Scrub {
                    peer: Some("127.0.0.1:9001".to_string()),
                },
            ),
            (r#"{"cmd":"scrub"}"#, Request::Scrub { peer: None }),
            (r#"{"cmd":"promote"}"#, Request::Promote),
            (
                r#"{"cmd":"demote","primary":"127.0.0.1:9001","gen":7}"#,
                Request::Demote {
                    primary: "127.0.0.1:9001".to_string(),
                },
            ),
            (r#"{"cmd":"stats"}"#, Request::Stats),
            (
                r#"{"cmd":"trace","trace":"00000000000000ab"}"#,
                Request::Trace { trace: 0xab },
            ),
            (
                r#"{"cmd":"events","since_us":1700}"#,
                Request::Events {
                    since_us: Some(1700),
                },
            ),
            (r#"{"cmd":"events"}"#, Request::Events { since_us: None }),
            (r#"{"cmd":"ping"}"#, Request::Ping),
            (r#"{"cmd":"shutdown"}"#, Request::Shutdown),
        ];
        for (line, expect) in cases {
            let envelope = parse_request(line).unwrap();
            assert_eq!(envelope.request, expect, "for {line}");
        }
        assert_eq!(
            parse_request(r#"{"id":1,"cmd":"ping"}"#).unwrap().id,
            Some(1)
        );
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "not json",
            r#"{"cmd":"warp"}"#,
            r#"{"items":[1]}"#,
            r#"{"cmd":"chi2","items":[-1]}"#,
            r#"{"cmd":"chi2","items":"nope"}"#,
            r#"{"cmd":"topk","k":-3}"#,
            r#"{"cmd":"interest","items":[1],"cell":1.5}"#,
            r#"{"cmd":"support_vec","itemsets":[[1],"x"]}"#,
            r#"{"cmd":"pair_supports"}"#,
            r#"{"cmd":"pair_supports","n_items":-1}"#,
            r#"{"cmd":"replicate_pull"}"#,
            r#"{"cmd":"replicate_pull","after_epoch":-4}"#,
            r#"{"cmd":"demote"}"#,
            r#"{"cmd":"demote","primary":7}"#,
            r#"{"cmd":"integrity","from_epoch":-2}"#,
            r#"{"cmd":"scrub","peer":7}"#,
            r#"{"cmd":"trace"}"#,
            r#"{"cmd":"trace","trace":"xyz"}"#,
            r#"{"cmd":"trace","trace":7}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn envelope_trace_context_parses_and_is_validated() {
        let adopted = parse_request(r#"{"cmd":"ping","trace":"00000000000000ab"}"#).unwrap();
        assert_eq!(adopted.trace, Some(TraceId::from_u64(0xab)));
        assert_eq!(adopted.parent_span, 0);
        let with_parent = parse_request(
            r#"{"cmd":"ping","trace":"00000000000000ab","pspan":"000000000000cafe"}"#,
        )
        .unwrap();
        assert_eq!(with_parent.parent_span, 0xcafe);
        let bare = parse_request(r#"{"cmd":"ping"}"#).unwrap();
        assert_eq!(bare.trace, None);
        // Malformed context is a parse error — rejected, never silently
        // replaced with a minted id.
        for bad in [
            r#"{"cmd":"ping","trace":"ab"}"#,
            r#"{"cmd":"ping","trace":"00000000000000AB"}"#,
            r#"{"cmd":"ping","trace":"0000000000000000"}"#,
            r#"{"cmd":"ping","trace":17}"#,
            r#"{"cmd":"ping","trace":"00000000000000ab","pspan":"nope"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should fail");
        }
        // The `trace` command's field is the query target, not context.
        let query = parse_request(r#"{"cmd":"trace","trace":"00000000000000ab"}"#).unwrap();
        assert_eq!(query.trace, None);
        assert_eq!(query.request, Request::Trace { trace: 0xab });
    }

    #[test]
    fn responses_echo_ids_and_are_single_line() {
        let ok = ok_response(Some(42)).with("pong", Value::Bool(true));
        assert_eq!(ok.to_string(), r#"{"id":42,"ok":true,"pong":true}"#);
        let err = error_response(None, "bad");
        assert_eq!(err.to_string(), r#"{"ok":false,"error":"bad"}"#);
        assert!(!ok.to_string().contains('\n'));
    }

    #[test]
    fn retryable_errors_carry_the_marker() {
        let err = retryable_error_response(Some(7), "overloaded");
        assert_eq!(
            err.to_string(),
            r#"{"id":7,"ok":false,"error":"overloaded","retryable":true}"#
        );
        // Plain errors must NOT grow the field (golden fixtures pin them).
        assert!(!error_response(None, "bad")
            .to_string()
            .contains("retryable"));
    }

    #[test]
    fn envelope_generation_parses_and_defaults_to_none() {
        let stamped = parse_request(r#"{"cmd":"ping","gen":9}"#).unwrap();
        assert_eq!(stamped.generation, Some(9));
        let bare = parse_request(r#"{"cmd":"ping"}"#).unwrap();
        assert_eq!(bare.generation, None);
    }

    /// A writer that records each `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Every kind of line on the wire leaves in exactly one write, and
    /// its bytes are the line plus one `\n`.
    #[test]
    fn every_protocol_line_is_one_write() {
        let request = Value::object()
            .with("cmd", Value::Str("chi2".to_string()))
            .with("items", Value::Array(vec![Value::Int(0), Value::Int(1)]));
        let lines = [
            ("request", request.to_string()),
            ("response", ok_response(Some(1)).to_string()),
            (
                "error",
                error_response(None, "request line too long").to_string(),
            ),
            ("banner", HELLO.to_string()),
            (
                "rejection",
                retryable_error_response(None, "server overloaded: pending queue full").to_string(),
            ),
        ];
        let mut buf = String::new();
        for (kind, line) in lines {
            let mut out = CountingWriter::default();
            buf.push_str(&line);
            write_line(&mut out, &mut buf).expect("an in-memory write cannot fail");
            assert_eq!(out.writes, 1, "{kind} line took {} writes", out.writes);
            assert_eq!(out.bytes, format!("{line}\n").into_bytes(), "{kind} bytes");
            assert!(buf.is_empty(), "{kind}: the buffer is emptied for reuse");
        }
    }

    /// A reused line buffer gives back what a large line grew it to, and
    /// keeps its capacity for ordinary lines.
    #[test]
    fn write_line_caps_the_capacity_it_keeps() {
        let mut buf = "x".repeat(4 * RETAINED_LINE_BYTES);
        write_line(&mut io::sink(), &mut buf).expect("a sink write cannot fail");
        assert!(buf.is_empty());
        assert!(
            buf.capacity() <= RETAINED_LINE_BYTES,
            "kept {}",
            buf.capacity()
        );
        buf.push_str(&"y".repeat(1000));
        let small = buf.capacity();
        write_line(&mut io::sink(), &mut buf).expect("a sink write cannot fail");
        assert_eq!(buf.capacity(), small, "a small line keeps its buffer");
    }

    #[test]
    fn fenced_errors_carry_marker_and_generation() {
        let err = fenced_error_response(Some(3), 12, "stale generation");
        assert_eq!(
            err.to_string(),
            r#"{"id":3,"ok":false,"error":"stale generation","fenced":true,"gen":12}"#
        );
        // Fenced failures are permanent: no retryable marker, and plain
        // errors never grow the fenced field.
        assert!(!err.to_string().contains("retryable"));
        assert!(!error_response(None, "bad").to_string().contains("fenced"));
    }
}
