//! Concurrency: writers hammer metrics while a reader snapshots.
//!
//! Follows the workspace's 1..=8-thread stress pattern: for each
//! thread count, N writers increment counters, flip a gauge, and
//! record histogram observations while a reader thread takes rolling
//! snapshots. Every snapshot must be internally consistent — no torn
//! reads (counter values never exceed the number of operations
//! issued), monotone counters and histogram counts across consecutive
//! snapshots, and `sum >= count * min_value` (guaranteed by the
//! record-order contract in `HistogramCore::record`). After the
//! writers join, the final snapshot must be exact.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bmb_obs::{expose, MetricValue, Registry};

const OPS_PER_WRITER: u64 = 20_000;
/// Every writer records values from this set (min 3, max 900).
const VALUES: [u64; 4] = [3, 40, 170, 900];

#[test]
fn snapshots_stay_consistent_under_hammering() {
    for writers in 1..=8usize {
        let registry = Arc::new(Registry::new());
        let counter = registry.counter("bmb_test_ops_total", "ops");
        let gauge = registry.gauge("bmb_test_inflight", "in flight");
        let hist = registry.histogram("bmb_test_lat_us", "latency");
        let stop = Arc::new(AtomicBool::new(false));

        std::thread::scope(|scope| {
            for w in 0..writers {
                let counter = counter.clone();
                let gauge = gauge.clone();
                let hist = hist.clone();
                scope.spawn(move || {
                    for i in 0..OPS_PER_WRITER {
                        gauge.add(1);
                        counter.inc();
                        hist.record(VALUES[(i as usize + w) % VALUES.len()]);
                        gauge.sub_saturating(1);
                    }
                });
            }

            let reader = {
                let registry = Arc::clone(&registry);
                let stop = Arc::clone(&stop);
                let writers = writers as u64;
                scope.spawn(move || {
                    let mut last_count = 0u64;
                    let mut last_hist_count = 0u64;
                    let mut snapshots = 0u64;
                    // Snapshot first, then check `stop`: the writers may
                    // all finish before this thread first runs, and the
                    // reader must still take and check one snapshot.
                    loop {
                        let snap = registry.snapshot();
                        let ops = snap.counter_value("bmb_test_ops_total", &[]);
                        let inflight = snap.gauge_value("bmb_test_inflight", &[]);
                        let h = snap.histogram_value("bmb_test_lat_us", &[]);
                        let hist_count = h.count();

                        assert!(ops >= last_count, "counter went backwards");
                        assert!(
                            ops <= writers * OPS_PER_WRITER,
                            "counter beyond total issued ops: torn read"
                        );
                        assert!(
                            hist_count >= last_hist_count,
                            "histogram count went backwards"
                        );
                        assert!(
                            (0..=writers as i64).contains(&inflight),
                            "gauge outside [0, writers]: {inflight}"
                        );
                        let min = *VALUES.iter().min().expect("non-empty");
                        assert!(
                            h.sum >= hist_count.saturating_mul(min),
                            "sum {} below count {} * min {min}",
                            h.sum,
                            hist_count
                        );
                        // Quantiles over a partial snapshot stay within
                        // the recorded value range's bucket bounds.
                        if hist_count > 0 {
                            let p99 = h.p99();
                            assert!(p99 >= min && p99 <= 1024, "p99 {p99} outside bucket range");
                        }
                        // Rendering a mid-hammer snapshot must stay
                        // structurally sound (cumulative by construction).
                        let text = expose::render(&[&snap]);
                        assert!(text.contains("# TYPE bmb_test_lat_us histogram"));

                        last_count = ops;
                        last_hist_count = hist_count;
                        snapshots += 1;
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                    }
                    snapshots
                })
            };

            // Writers are spawned above in this scope; wait for them by
            // letting the scope's non-reader threads drain first: the
            // reader polls until told to stop, so signal it once every
            // writer handle (spawned before it) has finished. Scope
            // join order is manual here.
            // (Writer handles were intentionally detached into the
            // scope; re-spawn a watchdog that signals completion.)
            let counter_done = counter.clone();
            let stop_signal = Arc::clone(&stop);
            let writers_u64 = writers as u64;
            scope.spawn(move || {
                while counter_done.get() < writers_u64 * OPS_PER_WRITER {
                    std::thread::yield_now();
                }
                stop_signal.store(true, Ordering::Relaxed);
            });

            let snapshots = reader.join().expect("reader");
            assert!(snapshots > 0, "reader took at least one snapshot");
        });

        // Quiescent: the final snapshot is exact.
        let snap = registry.snapshot();
        let expected_ops = writers as u64 * OPS_PER_WRITER;
        assert_eq!(snap.counter_value("bmb_test_ops_total", &[]), expected_ops);
        assert_eq!(snap.gauge_value("bmb_test_inflight", &[]), 0);
        let h = snap.histogram_value("bmb_test_lat_us", &[]);
        assert_eq!(h.count(), expected_ops);
        let per_cycle: u64 = VALUES.iter().sum();
        assert_eq!(
            h.sum,
            per_cycle * (expected_ops / VALUES.len() as u64),
            "sum must be exact at quiescence"
        );
        match snap.find("bmb_test_lat_us", &[]) {
            Some(MetricValue::Histogram(_)) => {}
            other => panic!("histogram family lost: {other:?}"),
        }
    }
}
