//! The background checkpointer thread.
//!
//! A [`Checkpointer`] watches a [`bmb_basket::wal::DurableStore`] opened in directory
//! mode and writes checkpoints on two triggers, whichever fires first:
//!
//! * **interval** — at most every [`CheckpointerConfig::interval`] of
//!   wall time (skipped when no records arrived since the last one);
//! * **record count** — as soon as the store's epoch has advanced by
//!   [`CheckpointerConfig::every_records`] past the last durable
//!   checkpoint.
//!
//! A failed checkpoint is logged (the store counts it on
//! `bmb_basket_ckpt_errors_total`) and retried at the next trigger —
//! the ingest path never blocks on checkpointing, and a persistently
//! failing checkpointer degrades recovery time, not correctness.
//!
//! The thread wakes every [`CheckpointerConfig::poll_interval`] to
//! check its triggers and the stop flag; [`Checkpointer::stop`] joins
//! it after at most one in-flight checkpoint completes.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bmb_basket::wal::DurableStore;
use bmb_obs::Severity;

/// Trigger configuration for the background checkpointer.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointerConfig {
    /// Checkpoint at most this often on wall time (`None` disables the
    /// time trigger). A tick with no new records since the last
    /// checkpoint writes nothing.
    pub interval: Option<Duration>,
    /// Checkpoint once the epoch advances this far past the last
    /// durable checkpoint (`None` disables the count trigger).
    pub every_records: Option<u64>,
    /// How often the thread wakes to evaluate triggers and the stop
    /// flag.
    pub poll_interval: Duration,
}

impl Default for CheckpointerConfig {
    fn default() -> Self {
        CheckpointerConfig {
            interval: Some(Duration::from_secs(60)),
            every_records: Some(100_000),
            poll_interval: Duration::from_millis(100),
        }
    }
}

impl CheckpointerConfig {
    /// Whether any trigger is armed.
    pub fn is_enabled(&self) -> bool {
        self.interval.is_some() || self.every_records.is_some()
    }
}

/// A running background checkpointer; dropping it without calling
/// [`Checkpointer::stop`] detaches the thread (it exits at the next
/// poll after the flag drops).
pub struct Checkpointer {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Checkpointer {
    /// Spawns the checkpointer thread over `durable`.
    pub fn spawn(durable: Arc<DurableStore>, config: CheckpointerConfig) -> Checkpointer {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || run(&durable, config, &flag));
        Checkpointer {
            stop,
            thread: Some(thread),
        }
    }

    /// Signals the thread and joins it. Any in-flight checkpoint
    /// finishes first.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Checkpointer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Detach rather than join: drop may run on a thread that cannot
        // afford to block (use `stop` for a clean join).
    }
}

fn run(durable: &DurableStore, config: CheckpointerConfig, stop: &AtomicBool) {
    let mut last_attempt = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(config.poll_interval);
        let epoch = durable.epoch();
        let last_ckpt = durable.last_checkpoint_epoch();
        if epoch == last_ckpt {
            // Nothing new to snapshot; keep the time trigger anchored so
            // an idle server doesn't checkpoint on wake-up.
            last_attempt = Instant::now();
            continue;
        }
        let time_due = config
            .interval
            .is_some_and(|iv| last_attempt.elapsed() >= iv);
        let count_due = config
            .every_records
            .is_some_and(|n| epoch.saturating_sub(last_ckpt) >= n);
        if !(time_due || count_due) {
            continue;
        }
        last_attempt = Instant::now();
        if let Err(e) = durable.checkpoint() {
            // The store already counted and logged the failure; add the
            // trigger context and move on — the next trigger retries.
            bmb_obs::events().emit(
                Severity::Warn,
                "background checkpoint failed",
                &[
                    ("error", &e.to_string()),
                    ("epoch", &epoch.to_string()),
                    ("trigger", if count_due { "records" } else { "interval" }),
                ],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmb_basket::{DurabilityConfig, MemDir, StoreConfig};

    fn open_dir_store() -> Arc<DurableStore> {
        let (store, _) = DurableStore::open_dir(
            Box::new(MemDir::new()),
            8,
            StoreConfig {
                segment_capacity: 4,
            },
            DurabilityConfig::default(),
        )
        .unwrap();
        Arc::new(store)
    }

    #[test]
    fn record_trigger_checkpoints_and_stop_joins() {
        let durable = open_dir_store();
        let ckpt = Checkpointer::spawn(
            Arc::clone(&durable),
            CheckpointerConfig {
                interval: None,
                every_records: Some(5),
                poll_interval: Duration::from_millis(5),
            },
        );
        for i in 0..10u32 {
            durable.append_ids([i % 8]).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(5);
        while durable.last_checkpoint_epoch() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        ckpt.stop();
        assert!(
            durable.last_checkpoint_epoch() >= 5,
            "record-count trigger fired (last = {})",
            durable.last_checkpoint_epoch()
        );
    }

    #[test]
    fn idle_interval_does_not_checkpoint() {
        let durable = open_dir_store();
        let ckpt = Checkpointer::spawn(
            Arc::clone(&durable),
            CheckpointerConfig {
                interval: Some(Duration::from_millis(1)),
                every_records: None,
                poll_interval: Duration::from_millis(1),
            },
        );
        std::thread::sleep(Duration::from_millis(50));
        ckpt.stop();
        assert_eq!(
            durable.last_checkpoint_epoch(),
            0,
            "no records, no checkpoint"
        );
    }
}
