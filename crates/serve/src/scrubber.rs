//! The background integrity scrubber thread and the wire repair peer.
//!
//! A [`Scrubber`] walks a [`bmb_basket::wal::DurableStore`]'s at-rest artifacts (sealed
//! WAL segments, checkpoints, the manifest, the generation record) on a
//! wall-clock interval, re-verifying every checksum via
//! [`bmb_basket::wal::DurableStore::scrub_pass`]. Each wake spends at most
//! [`ScrubberConfig::max_bytes_per_tick`] of read bandwidth; a pass
//! larger than the budget carries its resume cursor to the next tick,
//! so scrubbing never monopolizes the disk the ingest path shares.
//!
//! [`WirePeer`] adapts the line protocol to the store's
//! [`bmb_basket::scrub::RepairPeer`] trait: a damaged sealed segment is re-fetched from a
//! replica with generation-stamped `replicate_pull` requests, so a
//! stale node can never "repair" itself from a newer generation — the
//! peer fences the fetch and the scrub falls back to its own live
//! store (self-repair of a node's own acked history is always safe).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bmb_basket::wal::DurableStore;
use bmb_basket::{ItemId, PeerError, RepairPeer, ScrubOptions};

use crate::client::{ClientError, RetryClient, RetryPolicy};
use crate::json::Value;

/// A [`RepairPeer`] over the line protocol: fetches epoch ranges from
/// a replica with generation-stamped `replicate_pull` requests.
///
/// The underlying [`RetryClient`] reconnects lazily, so one `WirePeer`
/// can outlive many scrub ticks (and many peer restarts).
pub struct WirePeer {
    addr: String,
    client: RetryClient,
}

impl WirePeer {
    /// A repair peer dialing `addr`; the first fetch connects.
    pub fn new(addr: &str) -> WirePeer {
        WirePeer {
            addr: addr.to_string(),
            client: RetryClient::new(addr, RetryPolicy::default())
                .with_timeout(Duration::from_secs(5)),
        }
    }

    /// The peer's address.
    pub fn addr(&self) -> &str {
        &self.addr
    }
}

impl RepairPeer for WirePeer {
    fn fetch_range(
        &mut self,
        after_epoch: u64,
        max_baskets: usize,
        generation: u64,
    ) -> Result<Vec<Vec<ItemId>>, PeerError> {
        let request = Value::object()
            .with("cmd", Value::Str("replicate_pull".to_string()))
            .with("after_epoch", Value::Int(after_epoch as i64))
            .with("max_baskets", Value::Int(max_baskets as i64))
            .with("gen", Value::Int(generation as i64));
        let result = self.client.request(&request).map_err(|e| match e {
            ClientError::Fenced { generation, .. } => PeerError::Fenced {
                peer_generation: generation,
            },
            other => PeerError::Unavailable(format!("peer {}: {other}", self.addr)),
        })?;
        let malformed =
            || PeerError::Unavailable(format!("peer {} sent a malformed basket list", self.addr));
        let Some(Value::Array(rows)) = result.get("baskets") else {
            return Err(malformed());
        };
        let mut baskets = Vec::with_capacity(rows.len());
        for row in rows {
            let Value::Array(items) = row else {
                return Err(malformed());
            };
            let mut basket = Vec::with_capacity(items.len());
            for item in items {
                let id = item
                    .as_u64()
                    .and_then(|v| u32::try_from(v).ok())
                    .ok_or_else(malformed)?;
                basket.push(ItemId(id));
            }
            baskets.push(basket);
        }
        Ok(baskets)
    }
}

/// Pacing configuration for the background scrubber.
#[derive(Clone, Debug)]
pub struct ScrubberConfig {
    /// Start a new full pass at most this often, measured from the
    /// previous pass's start (`None` disables the scrubber).
    pub interval: Option<Duration>,
    /// Read-bandwidth budget per tick; a pass over budget parks its
    /// resume cursor and continues at the next poll instead of
    /// saturating the disk the ingest path shares.
    pub max_bytes_per_tick: Option<u64>,
    /// Replica to re-fetch damaged sealed segments from (`None` limits
    /// repair to the live store and re-checkpointing).
    pub peer: Option<String>,
    /// How often the thread wakes to evaluate the interval, continue an
    /// in-flight pass, and check the stop flag.
    pub poll_interval: Duration,
}

impl Default for ScrubberConfig {
    fn default() -> Self {
        ScrubberConfig {
            interval: Some(Duration::from_secs(300)),
            max_bytes_per_tick: Some(8 << 20),
            peer: None,
            poll_interval: Duration::from_millis(100),
        }
    }
}

impl ScrubberConfig {
    /// Whether the scrubber will run at all.
    pub fn is_enabled(&self) -> bool {
        self.interval.is_some()
    }
}

/// A running background scrubber; dropping it without calling
/// [`Scrubber::stop`] detaches the thread (it exits at the next poll
/// after the flag drops).
pub struct Scrubber {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Scrubber {
    /// Spawns the scrubber thread over `durable`. The first pass starts
    /// one poll after spawn; subsequent passes start `interval` apart.
    pub fn spawn(durable: Arc<DurableStore>, config: ScrubberConfig) -> Scrubber {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::spawn(move || run(&durable, &config, &flag));
        Scrubber {
            stop,
            thread: Some(thread),
        }
    }

    /// Signals the thread and joins it. Any in-flight scrub tick
    /// finishes first.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for Scrubber {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Detach rather than join: drop may run on a thread that cannot
        // afford to block (use `stop` for a clean join).
    }
}

fn run(durable: &DurableStore, config: &ScrubberConfig, stop: &AtomicBool) {
    let Some(interval) = config.interval else {
        return;
    };
    let mut peer = config.peer.as_deref().map(WirePeer::new);
    let mut cursor: Option<String> = None;
    let mut next_pass = Instant::now();
    while !stop.load(Ordering::SeqCst) {
        std::thread::sleep(config.poll_interval);
        // A parked cursor means a pass is mid-flight: keep draining it
        // tick by tick; the interval gates only the start of new passes.
        if cursor.is_none() && Instant::now() < next_pass {
            continue;
        }
        if cursor.is_none() {
            next_pass = Instant::now() + interval;
        }
        let options = ScrubOptions {
            max_bytes: config.max_bytes_per_tick,
            resume_after: cursor.take(),
        };
        let report = match peer.as_mut() {
            Some(p) => durable.scrub_pass(Some(p as &mut dyn RepairPeer), &options),
            None => durable.scrub_pass(None, &options),
        };
        cursor = report.resume_after;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    use bmb_basket::storage::SharedDirState;
    use bmb_basket::{Dir, DurabilityConfig, MemDir, StoreConfig};
    use bmb_core::{EngineConfig, QueryEngine};

    use crate::server::{Server, ServerConfig};

    fn open_store() -> (Arc<DurableStore>, SharedDirState) {
        let media = MemDir::new();
        let state = media.state();
        let (store, _) = DurableStore::open_dir(
            Box::new(media),
            8,
            StoreConfig {
                segment_capacity: 4,
            },
            DurabilityConfig {
                segment_bytes: 64,
                ..DurabilityConfig::default()
            },
        )
        .expect("open store");
        (Arc::new(store), state)
    }

    fn ingest(store: &DurableStore, n: u32) {
        for i in 0..n {
            store
                .append_ids([i % 3, 3 + (i % 5)])
                .expect("append basket");
        }
    }

    fn read_file(state: &SharedDirState, name: &str) -> Vec<u8> {
        let mut dir = MemDir::with_state(Arc::clone(state));
        let mut f = dir.open(name).expect("open");
        f.read_all().expect("read")
    }

    fn flip_byte(state: &SharedDirState, name: &str, offset: usize) {
        let mut dir = MemDir::with_state(Arc::clone(state));
        let mut f = dir.open(name).expect("open");
        let mut bytes = f.read_all().expect("read");
        bytes[offset] ^= 0xFF;
        f.truncate(0).expect("truncate");
        f.append(&bytes).expect("append");
        f.sync().expect("sync");
    }

    /// The oldest WAL segment name — sealed, since at least one newer
    /// (active) segment exists after it.
    fn oldest_sealed_segment(state: &SharedDirState) -> String {
        let mut dir = MemDir::with_state(Arc::clone(state));
        let mut names: Vec<String> = dir
            .list()
            .expect("list")
            .into_iter()
            .filter(|n| n.starts_with("wal."))
            .collect();
        names.sort();
        assert!(names.len() >= 2, "need a sealed segment: {names:?}");
        names.remove(0)
    }

    /// A live WAL-backed server answers `WirePeer::fetch_range` with the
    /// baskets it acked, in epoch order.
    #[test]
    fn wire_peer_pulls_acked_baskets_from_a_live_server() {
        let (durable, _state) = open_store();
        ingest(&durable, 6);
        let engine = Arc::new(QueryEngine::new(
            Arc::clone(durable.store()),
            EngineConfig::default(),
        ));
        let running = Server::bind(engine, ServerConfig::default())
            .expect("bind")
            .with_durable_store(Arc::clone(&durable))
            .spawn();

        let mut peer = WirePeer::new(&running.addr.to_string());
        // The shipper may stop a batch at a segment boundary; loop just
        // as the scrub's fetch does until the range is covered.
        let mut baskets = Vec::new();
        let mut after = 2u64;
        while baskets.len() < 3 {
            let batch = peer
                .fetch_range(after, 3 - baskets.len(), 0)
                .expect("fetch");
            assert!(!batch.is_empty(), "peer must make progress");
            after += batch.len() as u64;
            baskets.extend(batch);
        }
        assert_eq!(baskets.len(), 3, "epochs 3..=5");
        assert_eq!(baskets[0], vec![ItemId(2 % 3), ItemId(3 + (2 % 5))]);
        running.stop().expect("stop");
    }

    /// A fenced `replicate_pull` surfaces as [`PeerError::Fenced`] with
    /// the peer's generation — the signal the scrub uses to fall back
    /// to local repair instead of adopting a stale view.
    #[test]
    fn wire_peer_maps_fenced_rejections() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let banner = crate::protocol::HELLO;
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            let mut writer = stream;
            writeln!(writer, "{banner}").expect("banner");
            let mut line = String::new();
            reader.read_line(&mut line).expect("request");
            writeln!(
                writer,
                r#"{{"ok":false,"error":"stale generation","fenced":true,"gen":9}}"#
            )
            .expect("fenced line");
        });
        let mut peer = WirePeer::new(&addr.to_string());
        match peer.fetch_range(0, 4, 1) {
            Err(PeerError::Fenced { peer_generation }) => assert_eq!(peer_generation, 9),
            other => panic!("expected fenced, got {other:?}"),
        }
        server.join().expect("fake peer thread");
    }

    /// End to end: flip a byte in a sealed segment, spawn the scrubber,
    /// and watch it detect, quarantine, and repair back to the pristine
    /// bytes without any explicit scrub request.
    #[test]
    fn background_scrubber_repairs_a_corrupted_segment() {
        let (durable, state) = open_store();
        ingest(&durable, 10);
        durable.checkpoint().expect("checkpoint");
        ingest(&durable, 8); // keep sealed segments past the checkpoint
        let name = oldest_sealed_segment(&state);
        let pristine = read_file(&state, &name);
        flip_byte(&state, &name, pristine.len() / 2);
        assert_ne!(read_file(&state, &name), pristine);

        let scrubber = Scrubber::spawn(
            Arc::clone(&durable),
            ScrubberConfig {
                interval: Some(Duration::from_millis(1)),
                max_bytes_per_tick: None,
                peer: None,
                poll_interval: Duration::from_millis(1),
            },
        );
        let deadline = Instant::now() + Duration::from_secs(5);
        while read_file(&state, &name) != pristine && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        scrubber.stop();
        assert_eq!(
            read_file(&state, &name),
            pristine,
            "scrubber restored the sealed segment byte-for-byte"
        );
        assert!(durable.is_healthy(), "repair, not degradation");
    }
}
