//! Cluster observability: scatter fan-out, shard health transitions,
//! and follower replication lag, as `bmb_cluster_*` metric families on
//! a per-role `bmb_obs` registry (merged into the serving process's
//! `/metrics` exposition).

use std::sync::Arc;

use bmb_obs::{Counter, Gauge, Registry};

/// Metrics for one coordinator or follower role instance.
pub struct ClusterMetrics {
    registry: Arc<Registry>,
    /// Scatter rounds issued by the coordinator (one per gathered query).
    pub scatters: Counter,
    /// Per-shard requests fanned out (scatters × live shards).
    pub fanout: Counter,
    /// Scatter slots left to the sequential fallback because their
    /// primary was marked down (`reason="marked_down"`).
    pub fallback_marked_down: Counter,
    /// Scatter slots left to the fallback because their follower had
    /// been promoted (`reason="promoted"`).
    pub fallback_promoted: Counter,
    /// Scatter slots whose pipelined send failed (`reason="send_failed"`).
    pub fallback_send_failed: Counter,
    /// Scatter slots whose pipelined reply failed or carried a stale
    /// generation (`reason="reply_failed"`).
    pub fallback_reply_failed: Counter,
    /// Shard requests that failed at the transport level.
    pub shard_errors: Counter,
    /// Primaries marked down after exhausted retries.
    pub markdowns: Counter,
    /// Primaries that answered again after a mark-down (re-probe).
    pub rejoins: Counter,
    /// Followers promoted to serve a dead primary's reads.
    pub promotions: Counter,
    /// Stale primaries demoted back to catching-up followers.
    pub demotions: Counter,
    /// Shard responses rejected for carrying a stale generation.
    pub stale_responses: Counter,
    /// Coordinator requests a shard fenced for carrying a stale
    /// generation (the coordinator then adopts the newer one).
    pub fenced_requests: Counter,
    /// Replication pulls a follower has issued.
    pub replication_pulls: Counter,
    /// Baskets a follower has replayed from shipped WAL batches.
    pub replicated_baskets: Counter,
    /// The follower's current lag behind its primary, in baskets.
    pub replication_lag: Gauge,
    /// Anti-entropy rounds run (per-slot digest comparisons).
    pub anti_entropy_rounds: Counter,
    /// Primary/follower digest divergences detected by anti-entropy.
    pub digest_divergences: Counter,
    /// Remote scrubs triggered on a diverged replica.
    pub remote_scrubs: Counter,
}

impl ClusterMetrics {
    /// A fresh registry with every cluster family registered.
    pub fn new() -> ClusterMetrics {
        let registry = Arc::new(Registry::new());
        let fallback = |reason: &str| {
            registry.counter_with(
                "bmb_cluster_scatter_fallbacks_total",
                "Scatter slots that skipped the pipelined send, by reason.",
                &[("reason", reason)],
            )
        };
        ClusterMetrics {
            scatters: registry.counter(
                "bmb_cluster_scatters_total",
                "Scatter-gather rounds issued by the coordinator.",
            ),
            fanout: registry.counter(
                "bmb_cluster_fanout_requests_total",
                "Per-shard requests fanned out across all scatters.",
            ),
            fallback_marked_down: fallback("marked_down"),
            fallback_promoted: fallback("promoted"),
            fallback_send_failed: fallback("send_failed"),
            fallback_reply_failed: fallback("reply_failed"),
            shard_errors: registry.counter(
                "bmb_cluster_shard_errors_total",
                "Shard requests that failed at the transport level.",
            ),
            markdowns: registry.counter(
                "bmb_cluster_shard_markdowns_total",
                "Primaries marked down after exhausted retries.",
            ),
            rejoins: registry.counter(
                "bmb_cluster_shard_rejoins_total",
                "Marked-down primaries that answered a re-probe.",
            ),
            promotions: registry.counter(
                "bmb_cluster_promotions_total",
                "Followers promoted to serve a dead primary's reads.",
            ),
            demotions: registry.counter(
                "bmb_cluster_demotions_total",
                "Stale primaries demoted back to catching-up followers.",
            ),
            stale_responses: registry.counter(
                "bmb_cluster_stale_responses_total",
                "Shard responses rejected for carrying a stale generation.",
            ),
            fenced_requests: registry.counter(
                "bmb_cluster_fenced_requests_total",
                "Coordinator requests fenced by a shard at a newer generation.",
            ),
            replication_pulls: registry.counter(
                "bmb_cluster_replication_pulls_total",
                "WAL-shipping pulls issued by the follower.",
            ),
            replicated_baskets: registry.counter(
                "bmb_cluster_replicated_baskets_total",
                "Baskets replayed into the follower's warm standby.",
            ),
            replication_lag: registry.gauge(
                "bmb_cluster_replication_lag_baskets",
                "Follower lag behind its primary, in baskets.",
            ),
            anti_entropy_rounds: registry.counter(
                "bmb_cluster_anti_entropy_rounds_total",
                "Anti-entropy rounds comparing primary and follower digests.",
            ),
            digest_divergences: registry.counter(
                "bmb_cluster_digest_divergences_total",
                "Primary/follower segment-digest divergences detected.",
            ),
            remote_scrubs: registry.counter(
                "bmb_cluster_remote_scrubs_total",
                "Scrub-and-repair runs triggered on diverged replicas.",
            ),
            registry,
        }
    }

    /// The registry backing these metrics, for `/metrics` exposition.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }
}

impl Default for ClusterMetrics {
    fn default() -> Self {
        ClusterMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn families_register_and_count() {
        let metrics = ClusterMetrics::new();
        metrics.scatters.inc();
        metrics.fanout.add(4);
        metrics.fallback_send_failed.inc();
        metrics.replication_lag.set(17);
        let snap = metrics.registry().snapshot();
        assert_eq!(snap.counter_value("bmb_cluster_scatters_total", &[]), 1);
        assert_eq!(
            snap.counter_value("bmb_cluster_fanout_requests_total", &[]),
            4
        );
        let fallbacks = |reason| {
            snap.counter_value("bmb_cluster_scatter_fallbacks_total", &[("reason", reason)])
        };
        assert_eq!(fallbacks("send_failed"), 1);
        assert_eq!(fallbacks("marked_down"), 0);
        assert_eq!(
            snap.gauge_value("bmb_cluster_replication_lag_baskets", &[]),
            17
        );
    }
}
