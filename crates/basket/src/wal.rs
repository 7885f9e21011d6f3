//! Crash-safe durability: a checksummed, rotating write-ahead log plus
//! checkpoint snapshots for [`IncrementalStore`].
//!
//! # Layout
//!
//! [`DurableStore::open_dir`] manages a *directory*
//! ([`crate::storage::Dir`]) of rotating WAL segments plus checkpoint
//! snapshots and a manifest (formats in [`crate::record`] and
//! [`crate::checkpoint`]):
//!
//! ```text
//! wal.000000 wal.000001 …   — segments: b"BMBWAL3\0" + base_epoch:u64le
//!                             + header CRC (v2 headers still read), then
//!                             length-prefixed, CRC'd records
//! sealed.<id, 10 digits>.0|1 — each sealed store segment, written once,
//!                             two identical copies (BMBSEG1, CRC'd)
//! ckpt.<epoch, 20 digits>   — checkpoints: segment files named by CRC
//!                             plus the tail (BMBCKPT2; BMBCKPT1 still read)
//! MANIFEST                  — durable checkpoint epochs (BMBMAN1, CRC'd)
//! GEN                       — the fencing generation (BMBGEN1, CRC'd)
//! ```
//!
//! A basket-batch record is written (and synced) *before* the batch is
//! applied to the in-memory store; an append is acknowledged only after
//! the sync barrier, so every acknowledged basket is on durable media.
//! An epoch fence is appended whenever ingest seals a segment: it pins
//! the store epoch at a seal boundary, giving recovery a cross-check
//! that replay reproduced the exact segment structure.
//!
//! Rotation happens at a record boundary once the active segment passes
//! [`DurabilityConfig::segment_bytes`]. [`DurableStore::checkpoint`]
//! writes the files of every segment sealed since the last checkpoint,
//! then a snapshot naming them plus the tail, each write-temp → fsync →
//! atomic rename → fsync-dir, appends its epoch to the manifest the same
//! way, and then applies retention: keep the newest
//! [`DurabilityConfig::retain_checkpoints`] snapshots and delete exactly
//! the WAL segments wholly covered by the *oldest retained* manifest
//! epoch — so even if the newest snapshot is later found corrupt, an
//! older snapshot plus the WAL suffix it needs are still on media. The
//! two copies of every segment file keep a sealed basket off any single
//! file, although retained checkpoints share segment files.
//!
//! # Recovery invariants
//!
//! Recovery walks a ladder: newest valid checkpoint (manifest order,
//! then stray snapshot files) → older checkpoints → full replay; it then
//! replays only the WAL records *after* the loaded epoch, skipping
//! whole segments the checkpoint covers. Replay stops at the first
//! record that is not provably intact (see the frame walker in
//! [`crate::record`]): everything before the damage is applied, the
//! damaged segment is truncated so the next append starts at a clean
//! record boundary, and any later segments are discarded.
//!
//! That rule is only safe if acknowledged records are always a clean
//! *prefix* of the log — damage must never sit in front of an acked
//! record. Recovery guarantees it for crashes (acked records were synced
//! before any later bytes), and the writer guarantees it for I/O faults:
//! when an append fails mid-record, the torn tail is truncated back to
//! the last committed offset before any further append is accepted, and
//! if that repair fails the WAL degrades — every later append fails fast
//! rather than landing behind torn bytes that recovery would stop at.
//! The torture tests in `crates/core/tests/` enumerate several hundred
//! planned fault points to pin exactly this.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use bmb_obs::{Counter, Gauge, Histogram, Registry, Severity};

use crate::checkpoint::{
    checkpoint_name, decode_manifest, encode_checkpoint, encode_manifest, encode_sealed,
    parse_checkpoint_name, parse_sealed_name, read_sealed, sealed_name, verify_checkpoint_bytes,
    write_atomic, SealedFile, MANIFEST_NAME, SEALED_COPIES, TMP_SUFFIX,
};
use crate::item::ItemId;
use crate::record::{
    crc32, encode_batch, encode_fence, frame_into, is_torn_header, parse_segment_header,
    segment_header, Frames, Record, SegmentHeader, MAX_RECORD_BYTES, WAL3_HEADER_LEN,
};
use crate::segment::{IncrementalStore, ItemOutOfRange, Snapshot, StoreConfig};
use crate::storage::{Dir, Storage};

/// File name of the persisted node-generation record (fencing token)
/// in a durability directory.
pub const GEN_NAME: &str = "GEN";

/// Magic bytes opening the generation record (versioned).
pub const GEN_MAGIC: &[u8; 8] = b"BMBGEN1\n";

/// Encodes a generation record: magic + `generation:u64le` + CRC32 of
/// the payload bytes.
pub(crate) fn encode_generation(generation: u64) -> Vec<u8> {
    let payload = generation.to_le_bytes();
    let mut out = Vec::with_capacity(20);
    out.extend_from_slice(GEN_MAGIC);
    out.extend_from_slice(&payload);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out
}

/// Decodes a generation record; `None` on any damage (wrong length,
/// magic, or CRC) — the caller falls back to the generation floor.
pub(crate) fn decode_generation(bytes: &[u8]) -> Option<u64> {
    if bytes.len() != 20 || &bytes[..8] != GEN_MAGIC {
        return None;
    }
    let mut payload = [0u8; 8];
    payload.copy_from_slice(&bytes[8..16]);
    let mut crc = [0u8; 4];
    crc.copy_from_slice(&bytes[16..20]);
    if crc32(&payload) != u32::from_le_bytes(crc) {
        return None;
    }
    Some(u64::from_le_bytes(payload))
}

/// The file name of WAL segment `index` (zero-padded so lexicographic
/// order is rotation order for the first million segments).
pub fn segment_name(index: u64) -> String {
    format!("wal.{index:06}")
}

/// Parses a [`segment_name`]-shaped file name back to its index.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal.")?;
    if digits.len() < 6 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Tuning knobs for durability ([`DurableStore::open_dir`]).
#[derive(Clone, Copy, Debug)]
pub struct DurabilityConfig {
    /// Rotate the active WAL segment once its committed length passes
    /// this many bytes. Smaller segments bound per-segment replay and
    /// let retention reclaim space sooner; larger segments mean fewer
    /// files.
    pub segment_bytes: u64,
    /// Checkpoint snapshots kept on media (newest first). Retention
    /// deletes WAL segments covered by the *oldest* retained snapshot,
    /// so with the default of 2 a corrupted newest snapshot still
    /// leaves a previous one plus the WAL suffix it needs.
    pub retain_checkpoints: usize,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            segment_bytes: 8 << 20,
            retain_checkpoints: 2,
        }
    }
}

impl DurabilityConfig {
    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if `segment_bytes` is smaller than one segment header or
    /// `retain_checkpoints` is zero.
    pub fn validate(&self) {
        assert!(
            self.segment_bytes >= WAL3_HEADER_LEN as u64,
            "segment_bytes must hold at least a segment header"
        );
        assert!(
            self.retain_checkpoints >= 1,
            "retain_checkpoints must be at least 1"
        );
    }
}

/// A durability failure.
#[derive(Debug)]
pub enum WalError {
    /// The storage backend failed.
    Io(io::Error),
    /// A WAL segment header is foreign or damaged: it is no valid v3
    /// header ([`crate::record::WAL3_MAGIC`] with a matching header CRC)
    /// or v2 header and no torn trailing header, or its base epoch
    /// overlaps the records before it. Refusing to replay protects
    /// foreign files and the acknowledged records a damaged header sits
    /// in front of.
    NotAWal,
    /// A *replayed* (intact, checksummed) record named an item outside
    /// the store's item space: the log belongs to a different item
    /// space, so replaying it would build the wrong store.
    ItemSpaceMismatch(ItemOutOfRange),
    /// Recovery found WAL segments starting *after* the state it could
    /// reconstruct: the records in between were reclaimed under a
    /// checkpoint that is now unreadable. Refusing to open beats
    /// silently resurrecting a store with a hole in it.
    MissingHistory {
        /// The epoch recovery reconstructed (checkpoint + replay).
        reached: u64,
        /// The base epoch of the first WAL record beyond the gap.
        wal_base: u64,
    },
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal storage error: {e}"),
            WalError::NotAWal => write!(
                f,
                "wal segment header is foreign or damaged (bad magic or overlapping base epoch)"
            ),
            WalError::ItemSpaceMismatch(e) => {
                write!(f, "wal does not match the store's item space: {e}")
            }
            WalError::MissingHistory { reached, wal_base } => write!(
                f,
                "wal history gap: recovery reached epoch {reached} but the \
                 next wal segment starts at epoch {wal_base}; the covering \
                 checkpoint is unreadable"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// An error from a durable append.
#[derive(Debug)]
pub enum DurableError {
    /// The WAL write or sync failed; nothing was acknowledged and the
    /// in-memory store was not modified.
    Wal(io::Error),
    /// A basket named an item outside the item space; nothing was
    /// logged or applied.
    ItemOutOfRange(ItemOutOfRange),
    /// The batch would encode past [`MAX_RECORD_BYTES`]; nothing was
    /// logged or applied. Recovery treats oversized length prefixes as
    /// tail damage, so such a record must never be written (let alone
    /// acknowledged) in the first place. Split the batch and retry.
    BatchTooLarge {
        /// The size the batch would occupy as one record payload.
        encoded_bytes: u64,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Wal(e) => write!(f, "append not durable: {e}"),
            DurableError::ItemOutOfRange(e) => write!(f, "{e}"),
            DurableError::BatchTooLarge { encoded_bytes } => write!(
                f,
                "batch encodes to {encoded_bytes} bytes, over the \
                 {MAX_RECORD_BYTES}-byte wal record limit; split the batch"
            ),
        }
    }
}

impl std::error::Error for DurableError {}

/// What [`DurableStore::open_dir`] found while recovering.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Intact records replayed (batches + fences) — only the records
    /// *after* the loaded checkpoint.
    pub records_replayed: u64,
    /// Baskets reconstructed into the store by WAL replay.
    pub baskets_recovered: u64,
    /// Bytes of damaged tail truncated away (including whole segments
    /// discarded past a damage point).
    pub truncated_bytes: u64,
    /// The store epoch after recovery.
    pub epoch: u64,
    /// Intact records skipped because the checkpoint already covered
    /// them.
    pub records_skipped: u64,
    /// Whole WAL segments skipped without decoding because the
    /// checkpoint covered their entire epoch range.
    pub segments_skipped: u64,
    /// The epoch of the checkpoint recovery restored from (0 = none).
    pub checkpoint_epoch: u64,
    /// Checkpoint candidates that failed validation before one loaded
    /// (or before falling back to full replay).
    pub checkpoint_fallbacks: u64,
    /// WAL segments on media after recovery.
    pub wal_segments: u64,
}

/// One on-media WAL segment the writer knows about.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SegMeta {
    /// The segment's rotation index (its [`segment_name`]).
    pub(crate) index: u64,
    /// Store epoch before the segment's first record.
    pub(crate) base_epoch: u64,
}

/// A shared handle to the durability directory: rotation (under the WAL
/// lock) and checkpointing (never holding the WAL lock) both need it,
/// so it lives behind its own mutex with a strict WAL-then-dir lock
/// order.
pub(crate) type SharedDirHandle = Arc<Mutex<Box<dyn Dir>>>;

/// Writer-side WAL state, guarded by one mutex so log order always
/// matches store-apply order.
pub(crate) struct WalInner {
    /// The active (last) segment.
    storage: Box<dyn Storage>,
    /// Offset just past the last record whose sync barrier succeeded —
    /// the repair target after a failed append leaves a torn tail.
    committed_len: u64,
    /// Set when a failed append's torn tail could not be repaired
    /// (truncated away): a later successful append would land *behind*
    /// the torn bytes and recovery would discard it, so instead every
    /// later append fails fast until the store is reopened.
    degraded: bool,
    /// Metric handles shared with the store's registry.
    metrics: WalMetrics,
    /// Segments on media, ascending by index; the last one is active.
    pub(crate) segments: Vec<SegMeta>,
    /// Rotation threshold (committed bytes in the active segment).
    segment_bytes: u64,
}

/// Handle bundle for the WAL-writer metrics (`bmb_basket_wal_*`); the
/// cells live in the registry [`DurableStore`] owns.
#[derive(Clone)]
struct WalMetrics {
    syncs: Counter,
    sync_us: Histogram,
    repaired_tails: Counter,
    degraded: Gauge,
    rotations: Counter,
    rotation_errors: Counter,
    wal_segments: Gauge,
}

impl WalMetrics {
    fn register(registry: &Registry) -> WalMetrics {
        WalMetrics {
            syncs: registry.counter(
                "bmb_basket_wal_syncs_total",
                "Successful WAL sync barriers.",
            ),
            sync_us: registry.histogram(
                "bmb_basket_wal_sync_us",
                "WAL sync-barrier latency in microseconds.",
            ),
            repaired_tails: registry.counter(
                "bmb_basket_wal_repaired_tails_total",
                "Torn WAL tails truncated back to the committed offset.",
            ),
            degraded: registry.gauge(
                "bmb_basket_wal_degraded",
                "1 when the WAL refuses appends after an unrepairable tear.",
            ),
            rotations: registry.counter(
                "bmb_basket_wal_rotations_total",
                "WAL segments opened by rotation.",
            ),
            rotation_errors: registry.counter(
                "bmb_basket_wal_rotation_errors_total",
                "Failed rotation attempts (appends continue in the old segment).",
            ),
            wal_segments: registry.gauge(
                "bmb_basket_wal_segments",
                "WAL segments currently on media.",
            ),
        }
    }
}

impl WalInner {
    /// Appends one framed record and runs the sync barrier.
    fn append_record(&mut self, payload: &[u8]) -> io::Result<()> {
        let mut framed = Vec::with_capacity(8 + payload.len());
        frame_into(&mut framed, payload);
        self.storage.append(&framed)?;
        let sync_start = Instant::now();
        let synced = self.storage.sync();
        self.metrics.sync_us.record_duration(sync_start.elapsed());
        synced?;
        self.metrics.syncs.inc();
        self.committed_len += framed.len() as u64;
        Ok(())
    }

    /// After a failed [`WalInner::append_record`] the media may hold a
    /// torn tail; cut the log back to the last committed offset so the
    /// next append starts at a clean record boundary. If the repair
    /// itself fails, the WAL degrades: acknowledging an append behind
    /// torn bytes would hand recovery a record it must discard.
    fn repair_or_degrade(&mut self) {
        let repaired = self
            .storage
            .truncate(self.committed_len)
            .and_then(|()| self.storage.sync())
            .is_ok();
        if repaired {
            self.metrics.repaired_tails.inc();
            bmb_obs::events().emit(Severity::Warn, "wal tail repaired after failed append", &[]);
        } else {
            self.degraded = true;
            self.metrics.degraded.set(1);
            bmb_obs::events().emit(
                Severity::Error,
                "wal degraded: torn tail could not be repaired",
                &[],
            );
        }
    }

    /// Publishes the segment count on the `bmb_basket_wal_segments`
    /// gauge.
    fn set_segments_gauge(&self) {
        self.metrics
            .wal_segments
            .set(i64::try_from(self.segments.len()).unwrap_or(i64::MAX));
    }

    /// Rotates to a fresh segment once the active one passes the size
    /// threshold.
    ///
    /// The new segment's header is written and synced, then the
    /// directory entry is synced, *before* the writer switches over —
    /// a crash anywhere leaves either the old segment active or a
    /// valid (possibly empty) new one. Rotation failure is benign: the
    /// partial file is deleted best-effort and appends continue in the
    /// old segment until the next boundary retries.
    fn maybe_rotate(&mut self, epoch: u64, dir: &SharedDirHandle) {
        if self.committed_len < self.segment_bytes {
            return;
        }
        let next_index = match self.segments.last() {
            Some(last) => last.index + 1,
            None => 0,
        };
        let name = segment_name(next_index);
        // Rotation must create+sync the segment under the dir mutex so
        // concurrent rotations cannot interleave. // lock:allow(io)
        let mut dir = lock(dir);
        let created = create_segment(dir.as_mut(), &name, epoch);
        match created {
            Ok(file) => {
                drop(dir);
                self.storage = file;
                self.committed_len = WAL3_HEADER_LEN as u64;
                self.segments.push(SegMeta {
                    index: next_index,
                    base_epoch: epoch,
                });
                self.metrics.rotations.inc();
                self.set_segments_gauge();
                bmb_obs::events().emit(
                    Severity::Info,
                    "wal rotated to a new segment",
                    &[("segment", &name), ("base_epoch", &epoch.to_string())],
                );
            }
            Err(e) => {
                // The half-created file (if any) must not look like a
                // segment; remove it while the media allows.
                let _ = dir.delete(&name);
                drop(dir);
                self.metrics.rotation_errors.inc();
                bmb_obs::events().emit(
                    Severity::Warn,
                    "wal rotation failed; continuing in the old segment",
                    &[("segment", &name), ("error", &e.to_string())],
                );
            }
        }
    }
}

/// Creates segment `name` based at `base_epoch`: header written and
/// synced, then the directory entry synced, so the segment is durable
/// before anything is appended to it.
fn create_segment(dir: &mut dyn Dir, name: &str, base_epoch: u64) -> io::Result<Box<dyn Storage>> {
    let mut file = dir.create(name)?;
    file.append(&segment_header(base_epoch))?;
    file.sync()?;
    dir.sync()?;
    Ok(file)
}

/// An [`IncrementalStore`] whose acknowledged appends survive a crash.
///
/// Reads go straight to the wrapped store (snapshots are untouched by
/// durability); writes pass through the WAL first. See the module docs
/// for the layout and the recovery invariants.
///
/// # Examples
///
/// ```
/// use bmb_basket::storage::MemDir;
/// use bmb_basket::wal::{DurabilityConfig, DurableStore};
/// use bmb_basket::{Itemset, StoreConfig};
///
/// let media = MemDir::new();
/// let state = media.state();
/// let open = |dir: MemDir| {
///     DurableStore::open_dir(Box::new(dir), 3, StoreConfig::default(), DurabilityConfig::default())
///         .unwrap()
/// };
/// let (store, _) = open(media);
/// store.append_ids([0, 1]).unwrap();
/// store.append_ids([1, 2]).unwrap();
/// drop(store); // crash
///
/// let (store, report) = open(MemDir::crashed(&state));
/// assert_eq!(report.epoch, 2);
/// assert_eq!(store.snapshot().support(Itemset::from_ids([1]).items()), 2);
/// ```
pub struct DurableStore {
    store: Arc<IncrementalStore>,
    pub(crate) segment_capacity: usize,
    pub(crate) wal: Mutex<WalInner>,
    /// Per-store metrics registry (`bmb_basket_wal_*` and
    /// `bmb_basket_ckpt_*`); see [`DurableStore::observability`].
    obs: Arc<Registry>,
    /// Acknowledged WAL batch appends.
    appends: Counter,
    /// Baskets inside acknowledged appends.
    appended_baskets: Counter,
    /// Appends rejected by a WAL write/sync failure (or a degraded WAL).
    append_errors: Counter,
    /// Checkpoint machinery.
    pub(crate) ckpt: CkptShared,
    /// Monotonic fencing generation, persisted as the `GEN` record.
    generation: AtomicU64,
}

/// Checkpoint-side state of a [`DurableStore`].
pub(crate) struct CkptShared {
    pub(crate) dir: SharedDirHandle,
    pub(crate) config: DurabilityConfig,
    /// Serializes [`DurableStore::checkpoint`] calls and tracks which
    /// snapshots are on media vs durably manifested.
    pub(crate) state: Mutex<CkptState>,
    metrics: CkptMetrics,
}

/// Which checkpoint epochs and segment files exist where.
pub(crate) struct CkptState {
    /// Epochs recorded in the durable manifest, ascending.
    pub(crate) manifest: Vec<u64>,
    /// Epochs with a snapshot file on media (superset of `manifest`
    /// between a snapshot rename and its manifest update).
    pub(crate) files: Vec<u64>,
    /// Body CRCs of sealed segment files `0..`: the files a
    /// manifest-listed checkpoint names with these CRCs and that match
    /// the live store's sealed segments. The only files a checkpoint
    /// reuses instead of writing; scrub verifies them.
    pub(crate) sealed: Vec<u32>,
    /// One past the highest segment id that may have a file on media;
    /// files from `sealed.len()` up to here are orphans retention deletes.
    sealed_on_media: u64,
}

/// Handle bundle for the checkpoint metrics (`bmb_basket_ckpt_*` plus
/// the WAL reclaim counter).
#[derive(Clone)]
struct CkptMetrics {
    checkpoints: Counter,
    errors: Counter,
    duration_us: Histogram,
    last_epoch: Gauge,
    reclaimed_bytes: Counter,
}

impl CkptMetrics {
    fn register(registry: &Registry) -> CkptMetrics {
        CkptMetrics {
            checkpoints: registry.counter(
                "bmb_basket_ckpt_total",
                "Checkpoints durably written (snapshot + manifest).",
            ),
            errors: registry.counter(
                "bmb_basket_ckpt_errors_total",
                "Checkpoint attempts that failed before becoming durable.",
            ),
            duration_us: registry.histogram(
                "bmb_basket_ckpt_duration_us",
                "End-to-end checkpoint duration in microseconds.",
            ),
            last_epoch: registry.gauge(
                "bmb_basket_ckpt_last_epoch",
                "Epoch of the newest durable checkpoint (0 = none).",
            ),
            reclaimed_bytes: registry.counter(
                "bmb_basket_wal_reclaimed_bytes_total",
                "WAL segment bytes deleted by checkpoint retention.",
            ),
        }
    }
}

/// What one [`DurableStore::checkpoint`] call accomplished.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointStats {
    /// The store epoch the snapshot captured.
    pub epoch: u64,
    /// End-to-end wall time (serialize, write, fsync, rename, manifest,
    /// retention).
    pub duration: Duration,
    /// Bytes this checkpoint wrote: its snapshot file plus the files of
    /// the segments sealed since the last one (both copies).
    pub snapshot_bytes: u64,
    /// WAL segments deleted by retention.
    pub wal_segments_deleted: u64,
    /// WAL bytes reclaimed by retention.
    pub reclaimed_bytes: u64,
}

/// An error from [`DurableStore::checkpoint`].
#[derive(Debug)]
pub enum CheckpointError {
    /// A storage step failed before the checkpoint became durable. The
    /// directory is still consistent: either the old state or a stray
    /// temp file that recovery (and the next attempt) cleans up.
    Io(io::Error),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint failed: {e}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

/// One WAL segment read off media during recovery.
struct SegFile {
    index: u64,
    handle: Box<dyn Storage>,
    bytes: Vec<u8>,
    /// The parsed header; `None` for a torn, foreign or damaged one.
    header: Option<SegmentHeader>,
    /// Offset just past the last intact record.
    valid_end: u64,
}

impl DurableStore {
    /// Opens a durable store over a directory of rotating WAL segments
    /// and checkpoint snapshots (see the module docs for the layout).
    ///
    /// Recovery ladder: the newest checkpoint the manifest names that
    /// validates (magic, CRC, geometry, and every segment file it names:
    /// copy 0, else copy 1) — else the next older — else any stray
    /// snapshot file — else full WAL replay. Only records after
    /// the loaded epoch are replayed; segments wholly covered are
    /// skipped without decoding. Stray `*.tmp` files are deleted, a
    /// trailing segment holding only a torn header prefix (crashed
    /// rotation) is dropped, and tail damage is truncated away.
    ///
    /// # Errors
    ///
    /// [`WalError::Io`] on storage failures, [`WalError::NotAWal`] when
    /// a segment header is foreign or damaged (nothing is deleted),
    /// [`WalError::ItemSpaceMismatch`] when an intact record names an
    /// out-of-range item, and [`WalError::MissingHistory`] when the
    /// surviving segments start past the reconstructable epoch (their
    /// covering checkpoint is unreadable).
    pub fn open_dir(
        dir: Box<dyn Dir>,
        n_items: usize,
        config: StoreConfig,
        durability: DurabilityConfig,
    ) -> Result<(DurableStore, RecoveryReport), WalError> {
        config.validate();
        durability.validate();
        let mut dir = dir;
        let mut report = RecoveryReport::default();

        // Inventory the directory; stray temps from an interrupted
        // atomic write are dead weight.
        let names = dir.list()?;
        for name in &names {
            if name.ends_with(TMP_SUFFIX) {
                let _ = dir.delete(name);
            }
        }
        // The fencing generation lives beside the log. A missing or
        // damaged record resets to the floor (1): fencing only needs
        // monotonicity from here on, and `set_generation` re-establishes
        // it by persisting before acknowledging any bump.
        let generation = if names.iter().any(|n| n == GEN_NAME) {
            dir.open(GEN_NAME)
                .and_then(|mut f| f.read_all())
                .ok()
                .and_then(|bytes| decode_generation(&bytes))
                .unwrap_or(1)
        } else {
            1
        };
        let mut ckpt_files: Vec<u64> = names
            .iter()
            .filter_map(|n| parse_checkpoint_name(n))
            .collect();
        ckpt_files.sort_unstable();
        ckpt_files.dedup();
        let mut seg_indexes: Vec<u64> =
            names.iter().filter_map(|n| parse_segment_name(n)).collect();
        seg_indexes.sort_unstable();
        let sealed_on_media = names
            .iter()
            .filter_map(|n| parse_sealed_name(n))
            .map(|(id, _)| id + 1)
            .max()
            .unwrap_or(0);

        // The manifest orders the ladder; if it is damaged or missing we
        // still try every snapshot file on media, newest first.
        let manifest: Vec<u64> = if names.iter().any(|n| n == MANIFEST_NAME) {
            dir.open(MANIFEST_NAME)
                .and_then(|mut f| f.read_all())
                .ok()
                .and_then(|bytes| decode_manifest(&bytes))
                .unwrap_or_default()
        } else {
            Vec::new()
        };
        let mut candidates: Vec<u64> = manifest
            .iter()
            .rev()
            .copied()
            .filter(|e| ckpt_files.binary_search(e).is_ok())
            .collect();
        for &epoch in ckpt_files.iter().rev() {
            if !candidates.contains(&epoch) {
                candidates.push(epoch);
            }
        }

        // The ladder: first candidate that validates and restores wins.
        // Its segment files are reusable only if the manifest lists it.
        let mut store = IncrementalStore::new(n_items, config);
        let mut ckpt_epoch = 0u64;
        let mut sealed = Vec::new();
        for &epoch in &candidates {
            match restore_checkpoint(dir.as_mut(), epoch, n_items, config) {
                Some(restored) => {
                    store = restored.store;
                    ckpt_epoch = epoch;
                    if manifest.contains(&epoch) {
                        sealed = restored.reusable;
                    }
                    break;
                }
                None => report.checkpoint_fallbacks += 1,
            }
        }
        report.checkpoint_epoch = ckpt_epoch;

        // Read every surviving segment and its header.
        let max_seen_index = seg_indexes.last().copied();
        let mut segs: Vec<SegFile> = Vec::with_capacity(seg_indexes.len());
        for &index in &seg_indexes {
            let mut handle = dir.open(&segment_name(index))?;
            let bytes = handle.read_all()?;
            let header = parse_segment_header(&bytes);
            let valid_end = bytes.len() as u64;
            segs.push(SegFile {
                index,
                handle,
                bytes,
                header,
                valid_end,
            });
        }
        // A trailing segment holding only part of a header is a crashed
        // rotation: the header is synced before any record, so nothing
        // acked lives there — drop the file. Any other header that does
        // not parse (foreign bytes, a flipped magic, a v3 header failing
        // its CRC) is refused and left on media untouched.
        if segs
            .last()
            .is_some_and(|s| s.header.is_none() && is_torn_header(&s.bytes))
        {
            if let Some(dead) = segs.pop() {
                report.truncated_bytes += dead.bytes.len() as u64;
                drop(dead.handle);
                dir.delete(&segment_name(dead.index))?;
                dir.sync()?;
            }
        }
        let mut headers = Vec::with_capacity(segs.len());
        for seg in &segs {
            headers.push(seg.header.ok_or(WalError::NotAWal)?);
        }

        // Replay, skipping what the checkpoint covers. `cum` tracks the
        // epoch the WAL byte stream has reached.
        let mut cum = match headers.first() {
            Some(first) => first.base_epoch,
            None => store.epoch(),
        };
        if cum > store.epoch() {
            return Err(WalError::MissingHistory {
                reached: store.epoch(),
                wal_base: cum,
            });
        }
        let mut discard_from: Option<usize> = None;
        for i in 0..segs.len() {
            let base = headers[i].base_epoch;
            // A gap (`base > cum`) is fine under checkpoint cover: a
            // damaged tail was truncated below a later snapshot in a
            // previous life, and the records are safe inside it.
            if base > cum && base > ckpt_epoch {
                return Err(WalError::MissingHistory {
                    reached: cum,
                    wal_base: base,
                });
            } else if base < cum {
                // Overlapping epochs cannot come from this writer: the
                // header is damaged or foreign. Refuse rather than
                // discard the acknowledged records behind it.
                return Err(WalError::NotAWal);
            }
            if let Some(next_base) = headers.get(i + 1).map(|h| h.base_epoch) {
                if base < next_base && next_base <= ckpt_epoch {
                    // Whole segment under checkpoint cover: skip the
                    // decode entirely. A next base at or below this one
                    // proves nothing is covered (or that header is
                    // damaged), so decode and let the checks above
                    // judge it.
                    report.segments_skipped += 1;
                    cum = next_base;
                    continue;
                }
            }
            let replayed =
                replay_segment(&segs[i].bytes, headers[i], &store, ckpt_epoch, &mut report)?;
            cum = replayed.epoch;
            segs[i].valid_end = replayed.valid_end;
            if replayed.damaged {
                report.truncated_bytes += segs[i].bytes.len() as u64 - replayed.valid_end;
                segs[i].handle.truncate(replayed.valid_end)?;
                segs[i].handle.sync()?;
                discard_from = Some(i + 1);
                break;
            }
        }
        if let Some(at) = discard_from {
            for dead in segs.drain(at..) {
                report.truncated_bytes += dead.bytes.len() as u64;
                drop(dead.handle);
                dir.delete(&segment_name(dead.index))?;
            }
            dir.sync()?;
        }

        // Pick (or create) the active segment. When the WAL ends below
        // the checkpoint epoch — its tail was damaged but the snapshot
        // covers it — appending into the old segment would leave an
        // epoch gap in the record stream, so rotate to a fresh segment
        // based at the recovered epoch instead.
        let mut segments: Vec<SegMeta> = segs
            .iter()
            .zip(&headers)
            .map(|(s, h)| SegMeta {
                index: s.index,
                base_epoch: h.base_epoch,
            })
            .collect();
        let (active, committed_len) = match segs.pop() {
            Some(last) if cum == store.epoch() => (last.handle, last.valid_end),
            last => {
                let next_index = match (last, max_seen_index) {
                    (Some(last), _) => last.index + 1,
                    (None, Some(max)) => max + 1,
                    (None, None) => 0,
                };
                let file = create_segment(dir.as_mut(), &segment_name(next_index), store.epoch())?;
                segments.push(SegMeta {
                    index: next_index,
                    base_epoch: store.epoch(),
                });
                (file, WAL3_HEADER_LEN as u64)
            }
        };

        report.epoch = store.epoch();
        report.wal_segments = segments.len() as u64;
        let obs = Arc::new(Registry::new());
        let dir: SharedDirHandle = Arc::new(Mutex::new(dir));
        let wal = WalInner {
            storage: active,
            committed_len,
            degraded: false,
            metrics: WalMetrics::register(&obs),
            segments,
            segment_bytes: durability.segment_bytes,
        };
        wal.set_segments_gauge();
        let ckpt_metrics = CkptMetrics::register(&obs);
        ckpt_metrics
            .last_epoch
            .set(i64::try_from(ckpt_epoch).unwrap_or(i64::MAX));
        register_recovery_gauges(&obs, &report);
        let ckpt = CkptShared {
            dir,
            config: durability,
            state: Mutex::new(CkptState {
                manifest,
                files: ckpt_files,
                sealed,
                sealed_on_media,
            }),
            metrics: ckpt_metrics,
        };
        let durable = DurableStore {
            store: Arc::new(store),
            segment_capacity: config.segment_capacity,
            wal: Mutex::new(wal),
            appends: obs.counter(
                "bmb_basket_wal_appends_total",
                "Acknowledged (durable) WAL batch appends.",
            ),
            appended_baskets: obs.counter(
                "bmb_basket_wal_appended_baskets_total",
                "Baskets inside acknowledged WAL appends.",
            ),
            append_errors: obs.counter(
                "bmb_basket_wal_append_errors_total",
                "Appends rejected by a WAL write/sync failure or a degraded WAL.",
            ),
            obs,
            ckpt,
            generation: AtomicU64::new(generation.max(1)),
        };
        Ok((durable, report))
    }

    /// Writes a durable checkpoint of the current store state and
    /// applies retention.
    ///
    /// The snapshot is taken under the WAL lock (a few microseconds —
    /// snapshots are `Arc`-shared) so it is exactly consistent with the
    /// durable log; serialization and all file I/O happen outside it,
    /// so ingest stalls only for the snapshot grab. Protocol: the files
    /// of every sealed segment no manifest-listed checkpoint names yet
    /// (two copies each), then the snapshot file naming them plus the
    /// tail, each via write-temp → fsync → atomic rename → fsync-dir,
    /// then the manifest the same way, then retention — old snapshots
    /// beyond [`DurabilityConfig::retain_checkpoints`], orphan segment
    /// files, and WAL segments wholly covered by the oldest retained
    /// epoch are deleted. WAL segments are only ever reclaimed once at
    /// least two checkpoints are retained, so the newest snapshot is
    /// never a single point of failure: a corrupted checkpoint always
    /// leaves either an older snapshot plus its tail of segments, or the
    /// full log for a complete replay.
    ///
    /// Checkpointing at an epoch that already has a durable snapshot
    /// rewrites it idempotently.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Io`] when a storage step fails (the directory
    /// stays consistent — the next attempt starts clean).
    pub fn checkpoint(&self) -> Result<CheckpointStats, CheckpointError> {
        let ckpt = &self.ckpt;
        // One checkpoint at a time; also the lock order anchor, and the
        // checkpoint state intentionally spans the snapshot + rename
        // I/O below. // lock:order(state < wal < dir) // lock:allow(io)
        let mut state = lock(&ckpt.state);
        let start = Instant::now();

        // Consistent cut: the store only advances under the WAL lock,
        // so snapshot + segment inventory taken here agree exactly.
        let (snap, segments) = {
            let wal = lock(&self.wal);
            (self.store.snapshot(), wal.segments.clone())
        };
        let epoch = snap.epoch();

        // Serialize outside every lock: the snapshot is immutable. Only
        // the segments sealed since the files the manifest already names
        // are encoded; the rest are reused by CRC.
        let sealed = snap.sealed_segments();
        let reused = state.sealed.len().min(sealed.len());
        let fresh: Vec<SealedFile> = sealed[reused..]
            .iter()
            .map(|segment| encode_sealed(segment, snap.n_items()))
            .collect();
        let crcs: Vec<u32> = state.sealed[..reused]
            .iter()
            .copied()
            .chain(fresh.iter().map(|file| file.crc))
            .collect();
        let tail = snap.tail_segment().map(|t| t.database().baskets());
        let bytes = encode_checkpoint(
            epoch,
            snap.n_items(),
            self.segment_capacity,
            &crcs,
            tail.into_iter().flatten(),
        );
        let snapshot_bytes = bytes.len() as u64
            + u64::from(SEALED_COPIES) * fresh.iter().map(|f| f.bytes.len() as u64).sum::<u64>();
        drop(snap);

        let result = (|| -> io::Result<(u64, u64)> {
            // The whole publish + retention sequence is one critical
            // section over the checkpoint dir. // lock:allow(io)
            let mut dir = lock(&ckpt.dir);
            for (id, file) in (reused as u64..).zip(&fresh) {
                state.sealed_on_media = state.sealed_on_media.max(id + 1);
                for copy in 0..SEALED_COPIES {
                    write_atomic(dir.as_mut(), &sealed_name(id, copy), &file.bytes)?;
                }
            }
            write_atomic(dir.as_mut(), &checkpoint_name(epoch), &bytes)?;
            if !state.files.contains(&epoch) {
                state.files.push(epoch);
                state.files.sort_unstable();
            }

            // The manifest is what makes the checkpoint *durable* in the
            // retention sense: segments are only reclaimed under epochs
            // the manifest names.
            let mut manifest = state.manifest.clone();
            if !manifest.contains(&epoch) {
                manifest.push(epoch);
                manifest.sort_unstable();
            }
            let keep_from = manifest
                .len()
                .saturating_sub(ckpt.config.retain_checkpoints);
            let retained: Vec<u64> = manifest[keep_from..].to_vec();
            write_atomic(dir.as_mut(), MANIFEST_NAME, &encode_manifest(&retained))?;
            state.manifest = retained.clone();
            state.sealed = crcs;

            // Retention. Snapshot files first: everything not retained.
            let mut retired = Vec::new();
            for &old in &state.files {
                if !retained.contains(&old) && dir.delete(&checkpoint_name(old)).is_ok() {
                    retired.push(old);
                }
            }
            state.files.retain(|e| !retired.contains(e));
            // Segment files past the count this checkpoint names are
            // orphans (a crashed checkpoint's, or an abandoned
            // history's): no retained checkpoint names them, since older
            // ones name fewer.
            let named = state.sealed.len() as u64;
            let mut unlinked = !retired.is_empty();
            let mut orphans_left = false;
            for id in named..state.sealed_on_media {
                for copy in 0..SEALED_COPIES {
                    match dir.delete(&sealed_name(id, copy)) {
                        Ok(()) => unlinked = true,
                        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
                        Err(_) => orphans_left = true,
                    }
                }
            }
            if !orphans_left {
                state.sealed_on_media = named;
            }
            // WAL segments: only those wholly covered by the *oldest*
            // retained epoch (so every retained snapshot can still fall
            // back to replay), and never the active segment. With fewer
            // than two retained checkpoints nothing is reclaimed: the
            // sole snapshot must never become a single point of failure
            // — if it corrupts, recovery falls back to full replay,
            // which needs every segment.
            let coverage = if retained.len() >= 2 {
                retained.first().copied().unwrap_or(0)
            } else {
                0
            };
            let mut deleted = Vec::new();
            let mut reclaimed = 0u64;
            for window in segments.windows(2) {
                let (seg, next) = (window[0], window[1]);
                if next.base_epoch <= coverage {
                    let name = segment_name(seg.index);
                    let len = dir.file_len(&name).unwrap_or(0);
                    if dir.delete(&name).is_ok() {
                        deleted.push(seg.index);
                        reclaimed += len;
                    }
                }
            }
            if unlinked || !deleted.is_empty() {
                dir.sync()?;
            }
            drop(dir);

            if !deleted.is_empty() {
                let mut wal = lock(&self.wal);
                wal.segments.retain(|s| !deleted.contains(&s.index));
                wal.set_segments_gauge();
            }
            Ok((deleted.len() as u64, reclaimed))
        })();

        let duration = start.elapsed();
        match result {
            Ok((wal_segments_deleted, reclaimed_bytes)) => {
                ckpt.metrics.checkpoints.inc();
                ckpt.metrics.duration_us.record_duration(duration);
                ckpt.metrics
                    .last_epoch
                    .set(i64::try_from(epoch).unwrap_or(i64::MAX));
                ckpt.metrics.reclaimed_bytes.add(reclaimed_bytes);
                bmb_obs::events().emit(
                    Severity::Info,
                    "checkpoint written",
                    &[
                        ("epoch", &epoch.to_string()),
                        ("bytes", &snapshot_bytes.to_string()),
                        ("reclaimed_bytes", &reclaimed_bytes.to_string()),
                    ],
                );
                Ok(CheckpointStats {
                    epoch,
                    duration,
                    snapshot_bytes,
                    wal_segments_deleted,
                    reclaimed_bytes,
                })
            }
            Err(e) => {
                ckpt.metrics.errors.inc();
                bmb_obs::events().emit(
                    Severity::Warn,
                    "checkpoint failed",
                    &[("epoch", &epoch.to_string()), ("error", &e.to_string())],
                );
                Err(CheckpointError::Io(e))
            }
        }
    }

    /// The epoch of the newest durable checkpoint (0 = none yet).
    pub fn last_checkpoint_epoch(&self) -> u64 {
        lock(&self.ckpt.state).manifest.last().copied().unwrap_or(0)
    }

    /// The store's metrics registry (`bmb_basket_wal_*` families):
    /// acknowledged appends, sync counts and latency, repaired tails,
    /// the degraded gauge, and last-open recovery stats. Snapshot it or
    /// merge it into a server-wide exposition.
    pub fn observability(&self) -> &Arc<Registry> {
        &self.obs
    }

    /// The wrapped in-memory store; hand this to a `QueryEngine` so
    /// reads bypass the WAL entirely.
    pub fn store(&self) -> &Arc<IncrementalStore> {
        &self.store
    }

    /// Total baskets ingested (acknowledged) so far.
    pub fn epoch(&self) -> u64 {
        self.store.epoch()
    }

    /// The node's fencing generation: a monotonic token (floor 1) that
    /// cluster failover bumps on promotion so a partitioned-then-healed
    /// old primary can be told apart from the node that replaced it.
    pub fn generation(&self) -> u64 {
        // ordering: Relaxed — monotone counter read for stamping and
        // reporting; bumps publish via the protocol reply, not this cell.
        self.generation.load(Ordering::Relaxed)
    }

    /// Raises the fencing generation to `generation` (monotone — a
    /// lower or equal value is a no-op) and returns the resulting
    /// value. The record is durably persisted (write-temp → fsync →
    /// atomic rename → dir fsync) *before* the in-memory value changes,
    /// so an acknowledged bump survives a crash; a caller must not
    /// acknowledge a promotion when this errors.
    ///
    /// # Errors
    ///
    /// `io::Error` when persisting the record fails; the in-memory
    /// generation is unchanged.
    pub fn set_generation(&self, generation: u64) -> io::Result<u64> {
        // Serializes racing bumps so a lower generation can never be
        // persisted over a higher one; the record write happens under
        // the guard by design. // lock:allow(io)
        let mut dir = lock(&self.ckpt.dir);
        // ordering: Relaxed — mutations serialized by the dir lock held
        // above.
        let current = self.generation.load(Ordering::Relaxed);
        if generation <= current {
            return Ok(current);
        }
        write_atomic(dir.as_mut(), GEN_NAME, &encode_generation(generation))?;
        // ordering: Relaxed — durably persisted above; readers
        // synchronize on the protocol reply, not this cell.
        self.generation.store(generation, Ordering::Relaxed);
        Ok(generation)
    }

    /// A consistent, immutable view of everything acknowledged so far.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.store.snapshot()
    }

    /// Appends one basket durably. Returns the epoch after the append;
    /// once this returns `Ok`, the basket survives a crash.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::append_batch`].
    pub fn append<I: IntoIterator<Item = ItemId>>(&self, items: I) -> Result<u64, DurableError> {
        self.append_batch(std::iter::once(items.into_iter().collect::<Vec<ItemId>>()))
    }

    /// Appends a basket of raw `u32` ids durably; convenient in tests.
    ///
    /// # Errors
    ///
    /// See [`DurableStore::append_batch`].
    pub fn append_ids<I: IntoIterator<Item = u32>>(&self, ids: I) -> Result<u64, DurableError> {
        self.append(ids.into_iter().map(ItemId))
    }

    /// Appends many baskets durably under a single WAL lock: the batch
    /// is framed, checksummed, written, and synced *before* it is
    /// applied to the in-memory store, so an `Ok` return means every
    /// basket of the batch survives a crash. On `Err`, nothing is
    /// visible in the store (the log may hold a torn, unacknowledged
    /// tail, which recovery discards).
    ///
    /// # Errors
    ///
    /// [`DurableError::ItemOutOfRange`] for an invalid basket and
    /// [`DurableError::BatchTooLarge`] for a batch that would overflow
    /// one WAL record (nothing logged in either case);
    /// [`DurableError::Wal`] when the WAL write or sync fails.
    pub fn append_batch<B, I>(&self, baskets: B) -> Result<u64, DurableError>
    where
        B: IntoIterator<Item = I>,
        I: IntoIterator<Item = ItemId>,
    {
        let baskets: Vec<Vec<ItemId>> = baskets
            .into_iter()
            .map(|b| b.into_iter().collect())
            .collect();
        for basket in &baskets {
            for &item in basket {
                if item.index() >= self.store.n_items() {
                    return Err(DurableError::ItemOutOfRange(ItemOutOfRange {
                        item,
                        n_items: self.store.n_items(),
                    }));
                }
            }
        }
        // Bound the record before anything hits the log: replay treats
        // an oversized length prefix as tail damage, so a record it
        // would discard must never be written, let alone acknowledged.
        // (Size is arithmetic over the batch shape — no allocation.)
        let encoded_bytes = 5u64 + baskets.iter().map(|b| 4 + 4 * b.len() as u64).sum::<u64>();
        if encoded_bytes > u64::from(MAX_RECORD_BYTES) {
            return Err(DurableError::BatchTooLarge { encoded_bytes });
        }
        let n_baskets = baskets.len() as u64;
        let payload = encode_batch(&baskets);
        // Sync-before-ack: the record write *and* its fsync happen
        // under the writer mutex so acknowledged appends are totally
        // ordered on the media. // lock:allow(io)
        let mut wal = lock(&self.wal);
        if wal.degraded {
            self.append_errors.inc();
            return Err(DurableError::Wal(io::Error::other(
                "wal is degraded after an earlier storage failure",
            )));
        }
        if let Err(e) = wal.append_record(&payload) {
            // The media may hold a torn tail; repair it (or degrade) so
            // a later successful append cannot land behind torn bytes —
            // recovery stops at the tear and would discard it.
            wal.repair_or_degrade();
            self.append_errors.inc();
            return Err(DurableError::Wal(e));
        }
        // Durable from here on: apply to the store and acknowledge.
        let old_epoch = self.store.epoch();
        let epoch = match self.store.append_batch(baskets) {
            Ok(epoch) => epoch,
            // Unreachable: items were validated above. Map it anyway so
            // the library stays panic-free.
            Err(e) => return Err(DurableError::ItemOutOfRange(e)),
        };
        // A fence whenever this batch crossed a seal boundary. The fence
        // pins the post-batch epoch: replay re-derives seal boundaries
        // from the same capacity, so matching epochs imply matching
        // segment structure. A fence-write failure cannot un-acknowledge
        // durable data (replay is correct without the fence); the torn
        // fence is repaired like any failed append — or the WAL degrades.
        let cap = self.segment_capacity as u64;
        if epoch / cap > old_epoch / cap && wal.append_record(&encode_fence(epoch)).is_err() {
            wal.repair_or_degrade();
        }
        self.appends.inc();
        self.appended_baskets.add(n_baskets);
        wal.maybe_rotate(epoch, &self.ckpt.dir);
        Ok(epoch)
    }

    /// Whether the WAL can still acknowledge appends (`false` once a
    /// failed append left a torn tail that could not be repaired).
    pub fn is_healthy(&self) -> bool {
        !lock(&self.wal).degraded
    }

    /// The seal capacity the wrapped store was configured with (baskets
    /// per sealed segment) — the unit anti-entropy digests are computed
    /// over.
    pub fn segment_capacity(&self) -> usize {
        self.segment_capacity
    }

    /// Degrades the WAL loudly: every later append fails fast until the
    /// store is reopened. The scrub path calls this when an at-rest
    /// corruption was quarantined but neither a peer fetch nor a local
    /// rebuild could repair it — acknowledging more appends on top of a
    /// store with a known hole would compound the damage silently.
    pub(crate) fn mark_degraded(&self, reason: &str) {
        let mut wal = lock(&self.wal);
        if !wal.degraded {
            wal.degraded = true;
            wal.metrics.degraded.set(1);
            bmb_obs::events().emit(
                Severity::Error,
                "wal degraded: unrepaired at-rest corruption",
                &[("reason", reason)],
            );
        }
    }

    /// The sealed (non-active) on-media WAL segments, ascending by
    /// index, paired with the base epoch of the segment that follows
    /// each — i.e. the exact epoch range `(base, next_base]` the sealed
    /// segment must cover.
    pub(crate) fn sealed_segment_ranges(&self) -> Vec<(SegMeta, u64)> {
        lock(&self.wal)
            .segments
            .windows(2)
            .map(|w| (w[0], w[1].base_epoch))
            .collect()
    }

    /// Ships the baskets a replica at `after_epoch` is missing, reading
    /// at most `max_baskets` from the WAL segment that covers the range.
    /// Rotation makes sealed segments natural shipping units; one call
    /// reads at most one segment, so a lagging follower catches up
    /// segment by segment.
    ///
    /// Falls back to an in-memory [`Snapshot::baskets_range`] export
    /// when no retained segment covers `after_epoch` — checkpoint
    /// retention deletes covered segments — so the call always makes
    /// progress while the store is ahead of the replica. The returned
    /// batch's `source` says which path served it.
    pub fn ship_after(&self, after_epoch: u64, max_baskets: usize) -> ShipBatch {
        let shard_epoch = self.store.epoch();
        if after_epoch >= shard_epoch || max_baskets == 0 {
            return ShipBatch {
                from_epoch: after_epoch,
                end_epoch: after_epoch,
                shard_epoch,
                baskets: Vec::new(),
                source: ShipSource::Wal,
            };
        }
        if let Some(batch) = self.ship_from_segments(after_epoch, shard_epoch, max_baskets) {
            return batch;
        }
        let snap = self.store.snapshot();
        let upto = snap
            .epoch()
            .min(after_epoch.saturating_add(max_baskets as u64));
        let baskets = snap.baskets_range(after_epoch, upto);
        ShipBatch {
            from_epoch: after_epoch,
            end_epoch: after_epoch + baskets.len() as u64,
            shard_epoch,
            baskets,
            source: ShipSource::Snapshot,
        }
    }

    /// The WAL path of [`DurableStore::ship_after`]: picks the segment
    /// whose base epoch covers `after_epoch`, reads it, and decodes the
    /// records past `after_epoch`. `None` means the caller should fall
    /// back to the snapshot export (the covering segment was reclaimed,
    /// or a racing rotation/retention made the read unusable).
    fn ship_from_segments(
        &self,
        after_epoch: u64,
        shard_epoch: u64,
        max_baskets: usize,
    ) -> Option<ShipBatch> {
        // Snapshot the segment list under the WAL lock (no I/O here);
        // the read itself runs under only the dir lock, preserving the
        // wal < dir order.
        let (index, base_epoch) = {
            let wal = lock(&self.wal);
            let seg = wal
                .segments
                .iter()
                .rev()
                .find(|s| s.base_epoch <= after_epoch)?;
            (seg.index, seg.base_epoch)
        };
        let name = segment_name(index);
        // Read under the dir lock so rotation and retention cannot race
        // the open; the segment may be the active one, in which case a
        // torn in-flight tail simply stops the decode.
        let bytes = {
            let mut dir = lock(&self.ckpt.dir); // lock:allow(io)
            let mut file = dir.open(&name).ok()?;
            file.read_all().ok()?
        };
        let header = parse_segment_header(&bytes)?;
        if header.base_epoch != base_epoch {
            return None;
        }
        let mut baskets: Vec<Vec<ItemId>> = Vec::new();
        'records: for frame in Frames::new(&bytes, header) {
            let Record::Batch(batch) = frame.record else {
                continue;
            };
            let mut cum = frame.epoch - batch.len() as u64;
            for basket in batch {
                // Cap at the epoch acknowledged when the call began: a
                // record can hit the media moments before its store
                // apply, and shipping must not outrun the epoch it
                // reports.
                if baskets.len() >= max_baskets || cum >= shard_epoch {
                    break 'records;
                }
                cum += 1;
                if cum > after_epoch {
                    baskets.push(basket);
                }
            }
        }
        Some(ShipBatch {
            from_epoch: after_epoch,
            end_epoch: after_epoch + baskets.len() as u64,
            shard_epoch,
            baskets,
            source: ShipSource::Wal,
        })
    }
}

/// Where a [`ShipBatch`] was served from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShipSource {
    /// Decoded from a retained WAL segment (the normal path).
    Wal,
    /// Exported from the in-memory snapshot (the covering segment was
    /// reclaimed by checkpoint retention).
    Snapshot,
}

impl std::fmt::Display for ShipSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShipSource::Wal => write!(f, "wal"),
            ShipSource::Snapshot => write!(f, "snapshot"),
        }
    }
}

/// One replication shipping unit returned by [`DurableStore::ship_after`].
#[derive(Debug)]
pub struct ShipBatch {
    /// Epoch before the first shipped basket (always the requested
    /// `after_epoch`).
    pub from_epoch: u64,
    /// Epoch after the last shipped basket; equals `from_epoch` when
    /// the replica is already caught up.
    pub end_epoch: u64,
    /// The shard's acknowledged epoch when the call began — the
    /// follower's replication lag is `shard_epoch - end_epoch`.
    pub shard_epoch: u64,
    /// The shipped baskets, in ingest (epoch) order.
    pub baskets: Vec<Vec<ItemId>>,
    /// Which path served the batch.
    pub source: ShipSource,
}

/// How far [`replay_segment`] got through one segment.
struct Replayed {
    /// Offset just past the last record replay accepted.
    valid_end: u64,
    /// The stream epoch at `valid_end`.
    epoch: u64,
    /// Whether anything past `valid_end` remains (damage or a record
    /// this store cannot take).
    damaged: bool,
}

/// A checkpoint restored into a fresh store.
struct Restored {
    store: IncrementalStore,
    /// The leading segment-file CRCs whose copy 0 verified: files the
    /// next checkpoint may reuse. A file served by copy 1 (and every
    /// later one) is left out, so that checkpoint rewrites both copies.
    reusable: Vec<u32>,
}

/// Restores the checkpoint at `epoch`: decode and validate it against
/// the store's geometry, then re-append every segment file it names
/// (copy 0, else copy 1, each checked against its named CRC) and its
/// tail. `None` sends the ladder to the next candidate.
fn restore_checkpoint(
    dir: &mut dyn Dir,
    epoch: u64,
    n_items: usize,
    config: StoreConfig,
) -> Option<Restored> {
    let bytes = dir.open(&checkpoint_name(epoch)).ok()?.read_all().ok()?;
    let cap = config.segment_capacity;
    let data = verify_checkpoint_bytes(epoch, &bytes, Some((n_items, cap))).ok()?;
    let store = IncrementalStore::new(n_items, config);
    let mut reusable = data.segments.len();
    for (id, &crc) in (0u64..).zip(&data.segments) {
        let (baskets, first_copy) = read_sealed(dir, id, crc, n_items, cap)?;
        if !first_copy {
            reusable = reusable.min(id as usize);
        }
        store.append_batch(baskets).ok()?;
    }
    store.append_batch(data.baskets).ok()?;
    let mut segments = data.segments;
    segments.truncate(reusable);
    Some(Restored {
        store,
        reusable: segments,
    })
}

/// Replays one segment's records into `store`, skipping records the
/// checkpoint already covers. `header` is the segment's parsed header,
/// whose base epoch recovery has already matched to the epoch the WAL
/// stream reached.
fn replay_segment(
    bytes: &[u8],
    header: SegmentHeader,
    store: &IncrementalStore,
    ckpt_epoch: u64,
    report: &mut RecoveryReport,
) -> Result<Replayed, WalError> {
    let mut frames = Frames::new(bytes, header);
    for frame in frames.by_ref() {
        match frame.record {
            Record::Batch(baskets) => {
                let n = baskets.len() as u64;
                let start = frame.epoch - n;
                if frame.epoch <= ckpt_epoch {
                    // Entirely inside the checkpoint: skip.
                    report.records_skipped += 1;
                } else if start == store.epoch() {
                    store
                        .append_batch(baskets)
                        .map_err(WalError::ItemSpaceMismatch)?;
                    report.baskets_recovered += n;
                    report.records_replayed += 1;
                } else {
                    // A batch straddling the checkpoint epoch, or one
                    // whose start disagrees with the store: batches are
                    // atomic and epochs only move at batch boundaries,
                    // so this record cannot come from the writer that
                    // produced the checkpoint. Treat it as damage.
                    return Ok(Replayed {
                        valid_end: frame.offset as u64,
                        epoch: start,
                        damaged: true,
                    });
                }
            }
            Record::Fence(_) if frame.epoch > ckpt_epoch => report.records_replayed += 1,
            Record::Fence(_) => report.records_skipped += 1,
        }
    }
    // The walker ends early only at damage; a clean partial frame at
    // the tail (torn final write) counts too — callers treat any
    // mid-directory tear as damage, so report it uniformly.
    Ok(Replayed {
        valid_end: frames.offset() as u64,
        epoch: frames.epoch(),
        damaged: frames.stop().is_some(),
    })
}

/// Registers the last-open recovery gauges (and emits the recovery
/// event) on a fresh store registry.
fn register_recovery_gauges(obs: &Registry, report: &RecoveryReport) {
    obs.gauge(
        "bmb_basket_wal_recovered_records",
        "Intact WAL records replayed at the last open.",
    )
    .set(i64::try_from(report.records_replayed).unwrap_or(i64::MAX));
    obs.gauge(
        "bmb_basket_wal_recovered_baskets",
        "Baskets reconstructed from the WAL at the last open.",
    )
    .set(i64::try_from(report.baskets_recovered).unwrap_or(i64::MAX));
    obs.gauge(
        "bmb_basket_wal_recovery_truncated_bytes",
        "Damaged tail bytes truncated away at the last open.",
    )
    .set(i64::try_from(report.truncated_bytes).unwrap_or(i64::MAX));
    obs.gauge(
        "bmb_basket_wal_recovery_skipped_records",
        "WAL records skipped at the last open (covered by a checkpoint).",
    )
    .set(i64::try_from(report.records_skipped).unwrap_or(i64::MAX));
    obs.gauge(
        "bmb_basket_wal_recovery_skipped_segments",
        "Whole WAL segments skipped at the last open (covered by a checkpoint).",
    )
    .set(i64::try_from(report.segments_skipped).unwrap_or(i64::MAX));
    obs.gauge(
        "bmb_basket_ckpt_recovery_epoch",
        "Epoch of the checkpoint loaded at the last open (0 = full replay).",
    )
    .set(i64::try_from(report.checkpoint_epoch).unwrap_or(i64::MAX));
    obs.gauge(
        "bmb_basket_ckpt_recovery_fallbacks",
        "Checkpoint candidates rejected at the last open before one loaded.",
    )
    .set(i64::try_from(report.checkpoint_fallbacks).unwrap_or(i64::MAX));
    if report.records_replayed > 0 || report.truncated_bytes > 0 || report.checkpoint_epoch > 0 {
        bmb_obs::events().emit(
            Severity::Info,
            "wal recovery replayed existing log",
            &[
                ("records", &report.records_replayed.to_string()),
                ("baskets", &report.baskets_recovered.to_string()),
                ("truncated_bytes", &report.truncated_bytes.to_string()),
                ("skipped_records", &report.records_skipped.to_string()),
                ("checkpoint_epoch", &report.checkpoint_epoch.to_string()),
                (
                    "checkpoint_fallbacks",
                    &report.checkpoint_fallbacks.to_string(),
                ),
            ],
        );
    }
}

/// Acquires a mutex, recovering from poisoning: WAL state is only
/// mutated through panic-free code, so a poisoned lock still holds
/// consistent data.
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{inspect_wal_bytes, segment_header, WAL2_MAGIC, WAL3_MAGIC};
    use crate::storage::{DirFaultPlan, FaultDir, MemDir, SharedDirState};
    use crate::Itemset;

    fn config() -> StoreConfig {
        StoreConfig {
            segment_capacity: 4,
        }
    }

    fn durability(segment_bytes: u64) -> DurabilityConfig {
        DurabilityConfig {
            segment_bytes,
            retain_checkpoints: 2,
        }
    }

    fn open_dir_mem(state: &SharedDirState, d: DurabilityConfig) -> (DurableStore, RecoveryReport) {
        let dir = MemDir::with_state(Arc::clone(state));
        match DurableStore::open_dir(Box::new(dir), 8, config(), d) {
            Ok(pair) => pair,
            Err(e) => panic!("open_dir failed: {e}"),
        }
    }

    /// Recovers what a crash leaves of `state` (only dir-synced entries).
    fn recover(state: &SharedDirState) -> (DurableStore, RecoveryReport) {
        open_dir_mem(&MemDir::crashed(state).state(), durability(1 << 20))
    }

    /// A store over a fault-injecting directory, plus its media.
    fn open_faulty(plan: DirFaultPlan) -> (DurableStore, SharedDirState) {
        let dir = FaultDir::new(plan);
        let state = dir.dir_state();
        match DurableStore::open_dir(Box::new(dir), 8, config(), durability(1 << 20)) {
            Ok((store, _)) => (store, state),
            Err(e) => panic!("{e}"),
        }
    }

    fn dir_names(state: &SharedDirState) -> Vec<String> {
        let mut d = MemDir::with_state(Arc::clone(state));
        let mut names = d.list().unwrap();
        names.sort();
        names
    }

    fn read_file(state: &SharedDirState, name: &str) -> Vec<u8> {
        let mut d = MemDir::with_state(Arc::clone(state));
        d.open(name).unwrap().read_all().unwrap()
    }

    /// Overwrites the media bytes of an existing file in place.
    fn write_file(state: &SharedDirState, name: &str, bytes: &[u8]) {
        let mut d = MemDir::with_state(Arc::clone(state));
        let mut f = d.open(name).unwrap();
        f.truncate(0).unwrap();
        f.append(bytes).unwrap();
    }

    /// Bytes occupied by the first segment's header plus one `[a, b]`
    /// basket record, measured so fault budgets can tear the second
    /// record.
    fn header_and_one_record() -> u64 {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        store.append_ids([0, 1]).unwrap();
        read_file(&state, "wal.000000").len() as u64
    }

    #[test]
    fn appends_survive_reopen() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        for i in 0..10u32 {
            store.append_ids([i % 8, (i + 1) % 8]).unwrap();
        }
        store
            .append_batch([vec![ItemId(0)], vec![ItemId(1), ItemId(2)]])
            .unwrap();
        assert_eq!(store.epoch(), 12);
        drop(store); // crash

        let (recovered, report) = recover(&state);
        assert_eq!(report.epoch, 12);
        assert_eq!(report.baskets_recovered, 12);
        assert_eq!(report.truncated_bytes, 0);
        assert_eq!(report.checkpoint_epoch, 0);
        assert_eq!(recovered.epoch(), 12);
        let snap = recovered.snapshot();
        assert_eq!(snap.support(Itemset::from_ids([0]).items()), 4);
        // Segment structure is reproduced exactly (capacity 4, 12 baskets).
        assert_eq!(snap.sealed_segments().len(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_and_log_remains_usable() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        store.append_ids([0, 1]).unwrap();
        store.append_ids([2, 3]).unwrap();
        drop(store);

        // Tear the last record: chop 3 bytes off the tail.
        let mut bytes = read_file(&state, "wal.000000");
        bytes.truncate(bytes.len() - 3);
        write_file(&state, "wal.000000", &bytes);
        let (recovered, report) = recover(&state);
        assert_eq!(report.epoch, 1, "only the first (intact) record replays");
        assert!(report.truncated_bytes > 0);
        assert!(report.truncated_bytes < bytes.len() as u64);
        // The repaired log accepts new appends and they survive.
        recovered.append_ids([4]).unwrap();
        drop(recovered);
        let (again, report) = recover(&state);
        assert_eq!(report.epoch, 2);
        assert_eq!(again.snapshot().support(Itemset::from_ids([4]).items()), 1);
    }

    #[test]
    fn bit_flip_stops_replay_at_last_valid_record() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        store.append_ids([0]).unwrap();
        let clean_len = read_file(&state, "wal.000000").len();
        store.append_ids([1]).unwrap();
        drop(store);
        // Flip a payload bit inside the second record.
        let mut bytes = read_file(&state, "wal.000000");
        bytes[clean_len + 9] ^= 0x01; // past the second record's frame
        write_file(&state, "wal.000000", &bytes);
        let (_, report) = recover(&state);
        assert_eq!(report.epoch, 1);
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn foreign_files_are_rejected() {
        // Foreign bytes are refused wherever they sit — as the lone
        // segment or in front of a valid one — and stay on media.
        for lone in [true, false] {
            let mut d = MemDir::new();
            let state = d.state();
            d.create("wal.000000")
                .unwrap()
                .append(b"definitely not a wal")
                .unwrap();
            if !lone {
                d.create("wal.000001")
                    .unwrap()
                    .append(&segment_header(0))
                    .unwrap();
            }
            let err = match DurableStore::open_dir(Box::new(d), 8, config(), durability(1 << 20)) {
                Ok(_) => panic!("foreign file must not open (lone: {lone})"),
                Err(e) => e,
            };
            assert!(matches!(err, WalError::NotAWal));
            assert_eq!(
                read_file(&state, "wal.000000"),
                b"definitely not a wal",
                "foreign file left untouched (lone: {lone})"
            );
        }
    }

    #[test]
    fn damaged_headers_are_refused_and_nothing_is_deleted() {
        // Several rotations, so there is a sealed segment and an active
        // one holding acked records.
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(64));
        for i in 0..12u32 {
            store.append_ids([i % 8, (i + 1) % 8]).unwrap();
        }
        drop(store);
        let names = dir_names(&state);
        let segments: Vec<&String> = names.iter().filter(|n| n.starts_with("wal.")).collect();
        assert!(segments.len() >= 3, "{names:?}");
        let active = segments[segments.len() - 1].as_str();
        let sealed = segments[segments.len() - 2].as_str();
        // A flipped magic bit on the active or a sealed segment, a
        // flipped base-epoch byte (the v3 header CRC refuses it), and
        // the active segment's header rewritten whole — CRC included —
        // with a base epoch below (overlap) or above (gap) the stream it
        // continues.
        let flip = |at: usize, mask: u8| move |b: &mut Vec<u8>| b[at] ^= mask;
        let shift = |delta: i64| {
            move |b: &mut Vec<u8>| {
                let base = parse_segment_header(b).unwrap().base_epoch;
                let moved = segment_header(base.wrapping_add_signed(delta));
                b[..WAL3_HEADER_LEN].copy_from_slice(&moved);
            }
        };
        let gap = |e: &WalError| matches!(e, WalError::MissingHistory { .. });
        let foreign = |e: &WalError| matches!(e, WalError::NotAWal);
        type Damage = Box<dyn Fn(&mut Vec<u8>)>;
        let cases: Vec<(&str, Damage, &dyn Fn(&WalError) -> bool)> = vec![
            (active, Box::new(flip(0, 0x01)), &foreign),
            (sealed, Box::new(flip(7, 0x80)), &foreign),
            (sealed, Box::new(flip(8, 0x04)), &foreign),
            (active, Box::new(flip(15, 0x01)), &foreign),
            (active, Box::new(shift(-1)), &foreign),
            (active, Box::new(shift(1)), &gap),
        ];
        for (case, (name, damage, expected)) in cases.iter().enumerate() {
            let pristine = read_file(&state, name);
            let mut damaged = pristine.clone();
            damage(&mut damaged);
            write_file(&state, name, &damaged);
            let dir = MemDir::with_state(Arc::clone(&state));
            let err = match DurableStore::open_dir(Box::new(dir), 8, config(), durability(64)) {
                Ok(_) => panic!("case {case}: damaged header must not open"),
                Err(e) => e,
            };
            assert!(expected(&err), "case {case}: {err}");
            assert_eq!(dir_names(&state), names, "case {case}: nothing deleted");
            assert_eq!(
                read_file(&state, name),
                damaged,
                "case {case}: evidence kept"
            );
            write_file(&state, name, &pristine);
        }
        let (recovered, _) = open_dir_mem(&state, durability(64));
        assert_eq!(recovered.epoch(), 12);
    }

    #[test]
    fn wrong_item_space_is_a_hard_error() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        store.append_ids([7]).unwrap();
        drop(store);
        let dir = MemDir::with_state(state);
        let err = match DurableStore::open_dir(Box::new(dir), 4, config(), durability(1 << 20)) {
            Ok(_) => panic!("item space mismatch must not open"),
            Err(e) => e,
        };
        assert!(matches!(err, WalError::ItemSpaceMismatch(_)));
    }

    #[test]
    fn checkpoint_under_another_geometry_is_never_loaded() {
        // 3 baskets leave a checkpoint naming no segment file (only its
        // own geometry fields can refuse it); 6 name one.
        for n in [3u32, 6] {
            for (n_items, capacity) in [(9, 4), (4, 4), (8, 5), (8, 3)] {
                let state = MemDir::new().state();
                let (store, _) = open_dir_mem(&state, durability(1 << 20));
                for i in 0..n {
                    store.append_ids([i % 4]).unwrap();
                }
                store.checkpoint().unwrap();
                drop(store);
                let opened = DurableStore::open_dir(
                    Box::new(MemDir::with_state(state)),
                    n_items,
                    StoreConfig {
                        segment_capacity: capacity,
                    },
                    durability(1 << 20),
                );
                // Every id fits all four item spaces, so the WAL replays
                // in full: the checkpoint is refused, never loaded.
                let at = format!("{n} baskets, reopened as ({n_items}, {capacity})");
                let (_, report) = opened.unwrap_or_else(|e| panic!("{at}: {e}"));
                assert_eq!(report.checkpoint_epoch, 0, "{at}: {report:?}");
                assert_eq!(report.checkpoint_fallbacks, 1, "{at}");
                assert_eq!(report.epoch, u64::from(n), "{at}: WAL replay");
            }
        }
    }

    #[test]
    fn failed_append_is_not_applied_and_recovery_agrees() {
        let (store, state) = open_faulty(DirFaultPlan {
            fail_after_bytes: Some(header_and_one_record() + 5), // tears the 2nd record
            ..DirFaultPlan::default()
        });
        store.append_ids([0, 1]).unwrap();
        let err = store.append_ids([2, 3]).unwrap_err();
        assert!(matches!(err, DurableError::Wal(_)));
        // The failed append is not visible in memory...
        assert_eq!(store.epoch(), 1);
        drop(store);
        // ...and recovery reconstructs exactly the acknowledged state.
        let (recovered, report) = recover(&state);
        assert_eq!(report.epoch, 1);
        assert!(report.truncated_bytes > 0);
        assert_eq!(
            recovered.snapshot().support(Itemset::from_ids([2]).items()),
            0
        );
    }

    #[test]
    fn transient_fault_repairs_torn_tail_so_later_acks_survive() {
        // Append A lands, append B tears (transient ENOSPC/EIO), append C
        // succeeds. If the torn tail of B were left in place, recovery
        // would stop at it and discard the *acknowledged* C. The writer
        // must repair the tail before accepting C.
        let (store, state) = open_faulty(DirFaultPlan {
            fail_after_bytes: Some(header_and_one_record() + 5),
            transient: true,
            ..DirFaultPlan::default()
        });
        store.append_ids([0, 1]).unwrap();
        let err = store.append_ids([2, 3]).unwrap_err();
        assert!(matches!(err, DurableError::Wal(_)));
        assert!(store.is_healthy(), "a repaired tail is not a degraded wal");
        store.append_ids([4, 5]).unwrap();
        assert_eq!(store.epoch(), 2);
        drop(store); // crash

        let (recovered, report) = recover(&state);
        assert_eq!(report.epoch, 2, "the acked append after the fault is kept");
        assert_eq!(report.truncated_bytes, 0, "the writer already repaired");
        let snap = recovered.snapshot();
        assert_eq!(snap.support(Itemset::from_ids([0]).items()), 1);
        assert_eq!(snap.support(Itemset::from_ids([2]).items()), 0);
        assert_eq!(snap.support(Itemset::from_ids([4]).items()), 1);
    }

    #[test]
    fn unrepairable_torn_tail_degrades_the_wal() {
        // Permanent fault: the torn tail cannot be truncated away, so
        // the wal must refuse every later append instead of letting one
        // land behind the tear (where recovery would discard it).
        let (store, state) = open_faulty(DirFaultPlan {
            fail_after_bytes: Some(header_and_one_record() + 5),
            ..DirFaultPlan::default()
        });
        store.append_ids([0, 1]).unwrap();
        assert!(store.append_ids([2, 3]).is_err());
        assert!(!store.is_healthy(), "unrepaired tear must degrade the wal");
        let err = store.append_ids([4, 5]).unwrap_err();
        assert!(
            err.to_string().contains("degraded"),
            "later appends fail fast, got: {err}"
        );
        assert_eq!(store.epoch(), 1, "rejected appends are not applied");
        drop(store);

        let (_, report) = recover(&state);
        assert_eq!(report.epoch, 1, "exactly the acked prefix recovers");
        assert!(report.truncated_bytes > 0);
    }

    #[test]
    fn oversized_batch_is_rejected_before_logging() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        // Smallest basket whose record payload exceeds MAX_RECORD_BYTES.
        let n = (MAX_RECORD_BYTES as usize - 9) / 4 + 1;
        let err = store.append(vec![ItemId(0); n]).unwrap_err();
        match err {
            DurableError::BatchTooLarge { encoded_bytes } => {
                assert!(encoded_bytes > u64::from(MAX_RECORD_BYTES));
            }
            other => panic!("expected BatchTooLarge, got {other}"),
        }
        // Nothing was logged or applied, and the wal is still healthy.
        assert_eq!(store.epoch(), 0);
        assert!(store.is_healthy());
        assert_eq!(read_file(&state, "wal.000000").len(), WAL3_HEADER_LEN);
        store.append_ids([1]).unwrap();
        assert_eq!(store.epoch(), 1);
    }

    #[test]
    fn wal_metrics_track_appends_syncs_and_recovery() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        store.append_ids([0, 1]).unwrap();
        store
            .append_batch([vec![ItemId(2)], vec![ItemId(3)]])
            .unwrap();
        let snap = store.observability().snapshot();
        assert_eq!(snap.counter_value("bmb_basket_wal_appends_total", &[]), 2);
        assert_eq!(
            snap.counter_value("bmb_basket_wal_appended_baskets_total", &[]),
            3
        );
        assert!(snap.counter_value("bmb_basket_wal_syncs_total", &[]) >= 2);
        let sync_us = snap.histogram_value("bmb_basket_wal_sync_us", &[]);
        assert_eq!(
            sync_us.count(),
            snap.counter_value("bmb_basket_wal_syncs_total", &[])
        );
        assert_eq!(snap.gauge_value("bmb_basket_wal_degraded", &[]), 0);
        assert_eq!(snap.gauge_value("bmb_basket_wal_segments", &[]), 1);
        assert_eq!(
            snap.counter_value("bmb_basket_wal_append_errors_total", &[]),
            0
        );
        drop(store);

        // Reopen: recovery gauges reflect the replayed log.
        let (recovered, report) = recover(&state);
        let snap = recovered.observability().snapshot();
        assert_eq!(
            snap.gauge_value("bmb_basket_wal_recovered_records", &[]),
            report.records_replayed as i64
        );
        assert_eq!(snap.gauge_value("bmb_basket_wal_recovered_baskets", &[]), 3);
        assert_eq!(
            snap.gauge_value("bmb_basket_wal_recovery_truncated_bytes", &[]),
            0
        );
    }

    #[test]
    fn wal_metrics_track_repair_and_degradation() {
        // Transient fault: repaired tail increments the repair counter.
        let (store, _) = open_faulty(DirFaultPlan {
            fail_after_bytes: Some(header_and_one_record() + 5),
            transient: true,
            ..DirFaultPlan::default()
        });
        store.append_ids([0, 1]).unwrap();
        assert!(store.append_ids([2, 3]).is_err());
        let snap = store.observability().snapshot();
        assert_eq!(
            snap.counter_value("bmb_basket_wal_repaired_tails_total", &[]),
            1
        );
        assert_eq!(
            snap.counter_value("bmb_basket_wal_append_errors_total", &[]),
            1
        );
        assert_eq!(snap.gauge_value("bmb_basket_wal_degraded", &[]), 0);

        // Permanent fault: the degraded gauge latches to 1 and later
        // fast-failed appends count as errors.
        let (store, _) = open_faulty(DirFaultPlan {
            fail_after_bytes: Some(header_and_one_record() + 5),
            ..DirFaultPlan::default()
        });
        store.append_ids([0, 1]).unwrap();
        assert!(store.append_ids([2, 3]).is_err());
        assert!(store.append_ids([4, 5]).is_err());
        let snap = store.observability().snapshot();
        assert_eq!(snap.gauge_value("bmb_basket_wal_degraded", &[]), 1);
        assert_eq!(
            snap.counter_value("bmb_basket_wal_append_errors_total", &[]),
            2
        );
        assert_eq!(snap.counter_value("bmb_basket_wal_appends_total", &[]), 1);
    }

    #[test]
    fn fences_are_written_at_seal_boundaries() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        // One batch crossing two seal boundaries (capacity 4, 9 baskets).
        store
            .append_batch((0..9).map(|i| vec![ItemId(i % 8)]))
            .unwrap();
        drop(store);
        let buf = read_file(&state, "wal.000000");
        let header = parse_segment_header(&buf).unwrap();
        let fences: Vec<u64> = Frames::new(&buf, header)
            .filter_map(|frame| match frame.record {
                Record::Fence(epoch) => Some(epoch),
                Record::Batch(_) => None,
            })
            .collect();
        assert_eq!(fences, vec![9], "one fence pinning the post-batch epoch");
        let (_, report) = recover(&state);
        assert_eq!(report.epoch, 9);
        assert_eq!(report.records_replayed, 2, "one batch + one fence");
    }

    #[test]
    fn inspect_reports_records_and_diagnoses_torn_tail() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        store.append_ids([0, 1]).unwrap();
        store
            .append_batch((0..5).map(|i| vec![ItemId(i % 8)]))
            .unwrap();
        drop(store);
        let buf = read_file(&state, "wal.000000");
        let insp = inspect_wal_bytes(&buf).unwrap();
        assert_eq!(insp.base_epoch, Some(0));
        assert_eq!(insp.diagnosis, "clean");
        assert_eq!(insp.end_epoch, 6);
        assert_eq!(insp.valid_bytes, insp.total_bytes);
        let kinds: Vec<&str> = insp.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, vec!["batch", "batch", "fence"]);

        // Tear the tail and inspect again.
        let torn = &buf[..buf.len() - 3];
        let insp = inspect_wal_bytes(torn).unwrap();
        assert_ne!(insp.diagnosis, "clean");
        assert!(insp.valid_bytes < insp.total_bytes);

        // Flip a bit: crc mismatch diagnosis.
        let mut flipped = buf.clone();
        let n = flipped.len();
        flipped[n - 2] ^= 0x40;
        let insp = inspect_wal_bytes(&flipped).unwrap();
        assert!(
            insp.diagnosis.contains("crc mismatch"),
            "{}",
            insp.diagnosis
        );

        // A torn segment header reads as a crashed rotation.
        for torn in [&buf[..12], &buf[..3], &buf[..0]] {
            let insp = inspect_wal_bytes(torn).unwrap();
            assert_eq!(insp.base_epoch, None);
            assert!(insp.diagnosis.contains("torn segment header"), "{insp:?}");
        }

        assert!(matches!(
            inspect_wal_bytes(b"not a wal at all"),
            Err(WalError::NotAWal)
        ));
    }

    /// One table row per way the frame walker can stop: recovery must
    /// truncate the segment exactly where `inspect_wal_bytes` says the
    /// intact prefix ends, and the inspector must print the diagnosis
    /// `bmb wal inspect` shows operators.
    #[test]
    fn replay_and_inspect_stop_at_the_same_frame() {
        fn framed(payload: &[u8]) -> Vec<u8> {
            let mut out = Vec::new();
            frame_into(&mut out, payload);
            out
        }
        // Two intact batches (epoch 2) and a matching fence.
        let mut clean = segment_header(0);
        frame_into(&mut clean, &encode_batch(&[vec![ItemId(0), ItemId(1)]]));
        frame_into(&mut clean, &encode_batch(&[vec![ItemId(2)]]));
        frame_into(&mut clean, &encode_fence(2));
        let at = clean.len();
        let batch = framed(&encode_batch(&[vec![ItemId(3)]]));
        let mut absurd = Vec::new();
        absurd.extend_from_slice(&(MAX_RECORD_BYTES + 1).to_le_bytes());
        absurd.extend_from_slice(&[0; 4]);
        let mut flipped = batch.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x10;

        let cases: Vec<(&str, Vec<u8>, String)> = vec![
            ("clean", Vec::new(), "clean".to_string()),
            (
                "torn frame header",
                vec![1, 2, 3, 4, 5],
                format!("torn frame header at offset {at}: 5 trailing bytes (interrupted append)"),
            ),
            (
                "absurd length",
                absurd,
                format!(
                    "absurd record length {} at offset {at} (damaged frame header)",
                    MAX_RECORD_BYTES + 1
                ),
            ),
            (
                "truncated payload",
                batch[..batch.len() - 2].to_vec(),
                format!(
                    "truncated payload at offset {at}: header promises 13 bytes, 11 present \
                     (interrupted append)"
                ),
            ),
            (
                "crc mismatch",
                flipped,
                format!("crc mismatch at offset {at} (bit flip or torn write)"),
            ),
            (
                "fence mismatch",
                framed(&encode_fence(7)),
                format!(
                    "fence at offset {at} pins epoch 7 but the stream is at 2 \
                     (records lost or foreign segment)"
                ),
            ),
            (
                "structurally invalid record",
                framed(&[0x07, 1, 2]),
                format!(
                    "structurally invalid record at offset {at} despite a passing crc \
                     (corrupt writer)"
                ),
            ),
        ];
        for (name, tail, diagnosis) in cases {
            let mut bytes = clean.clone();
            bytes.extend_from_slice(&tail);
            let insp = inspect_wal_bytes(&bytes).unwrap();
            assert_eq!(insp.diagnosis, diagnosis, "{name}");
            assert_eq!(insp.valid_bytes, at as u64, "{name}: inspect offset");
            assert_eq!(insp.end_epoch, 2, "{name}");

            let mut d = MemDir::new();
            let state = d.state();
            d.create("wal.000000").unwrap().append(&bytes).unwrap();
            d.sync().unwrap();
            let (store, report) = recover(&state);
            assert_eq!(store.epoch(), 2, "{name}: the intact prefix replays");
            assert_eq!(report.truncated_bytes, tail.len() as u64, "{name}");
            assert_eq!(
                read_file(&state, "wal.000000").len() as u64,
                insp.valid_bytes,
                "{name}: replay stopped where inspect did"
            );
        }
        assert!(clean.starts_with(WAL3_MAGIC));
    }

    #[test]
    fn v2_segment_headers_still_recover() {
        // A directory written before v3: a 16-byte header with no CRC.
        let mut bytes = WAL2_MAGIC.to_vec();
        bytes.extend_from_slice(&0u64.to_le_bytes());
        frame_into(&mut bytes, &encode_batch(&[vec![ItemId(0), ItemId(1)]]));
        frame_into(&mut bytes, &encode_batch(&[vec![ItemId(2)]]));
        let insp = inspect_wal_bytes(&bytes).unwrap();
        assert_eq!((insp.base_epoch, insp.end_epoch), (Some(0), 2));
        assert_eq!(insp.diagnosis, "clean");
        let mut d = MemDir::new();
        let state = d.state();
        d.create("wal.000000").unwrap().append(&bytes).unwrap();
        d.sync().unwrap();
        let (store, report) = recover(&state);
        assert_eq!(report.epoch, 2);
        // Appends continue in the v2 segment; a reopen reads both.
        store.append_ids([3]).unwrap();
        drop(store);
        let (store, _) = recover(&state);
        assert_eq!(store.epoch(), 3);
        assert!(read_file(&state, "wal.000000").starts_with(WAL2_MAGIC));
    }

    // ------------------------------------------------------------------
    // Rotation, checkpoints, retention, recovery ladder.
    // ------------------------------------------------------------------

    #[test]
    fn dir_mode_fresh_open_creates_first_segment() {
        let dir = MemDir::new();
        let state = dir.state();
        let (_, report) =
            match DurableStore::open_dir(Box::new(dir), 8, config(), durability(1 << 20)) {
                Ok(p) => p,
                Err(e) => panic!("{e}"),
            };
        assert_eq!(
            report,
            RecoveryReport {
                wal_segments: 1,
                ..RecoveryReport::default()
            }
        );
        assert_eq!(dir_names(&state), vec!["wal.000000".to_string()]);
    }

    #[test]
    fn generation_persists_and_stays_monotone() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        assert_eq!(store.generation(), 1);
        assert_eq!(store.set_generation(5).unwrap(), 5);
        // A lower or equal target is a no-op, not a regression.
        assert_eq!(store.set_generation(3).unwrap(), 5);
        assert_eq!(store.generation(), 5);
        drop(store);
        let (recovered, _) = open_dir_mem(&state, durability(1 << 20));
        assert_eq!(recovered.generation(), 5);
        assert!(dir_names(&state).contains(&GEN_NAME.to_string()));
    }

    #[test]
    fn damaged_generation_record_resets_to_floor() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        store.set_generation(7).unwrap();
        drop(store);
        {
            let mut d = MemDir::with_state(Arc::clone(&state));
            d.delete(GEN_NAME).unwrap();
            let mut f = d.create(GEN_NAME).unwrap();
            f.append(b"garbage").unwrap();
        }
        let (recovered, _) = open_dir_mem(&state, durability(1 << 20));
        assert_eq!(recovered.generation(), 1);
    }

    #[test]
    fn small_segment_budget_rotates_and_reopen_replays_all_segments() {
        let state = MemDir::new().state();
        // Tiny budget: nearly every append crosses the rotation bound.
        let (store, _) = open_dir_mem(&state, durability(64));
        for i in 0..20u32 {
            store.append_ids([i % 8]).unwrap();
        }
        drop(store);
        let names = dir_names(&state);
        assert!(names.len() >= 3, "expected several segments, got {names:?}");
        let (recovered, report) = open_dir_mem(&state, durability(64));
        assert_eq!(report.epoch, 20);
        assert_eq!(report.baskets_recovered, 20);
        assert!(report.wal_segments >= 3);
        let snap = recovered.snapshot();
        assert_eq!(snap.n_baskets(), 20);
    }

    #[test]
    fn ship_after_walks_wal_segments_until_caught_up() {
        let state = MemDir::new().state();
        // Tiny budget: many segments, so shipping takes several pulls.
        let (store, _) = open_dir_mem(&state, durability(64));
        for i in 0..20u32 {
            store.append_ids([i % 8]).unwrap();
        }
        let mut replica: Vec<Vec<ItemId>> = Vec::new();
        let mut epoch = 0u64;
        let mut pulls = 0;
        while epoch < store.epoch() {
            let batch = store.ship_after(epoch, 1000);
            assert_eq!(batch.from_epoch, epoch);
            assert_eq!(batch.shard_epoch, 20);
            assert_eq!(batch.source, ShipSource::Wal);
            assert_eq!(
                batch.end_epoch,
                batch.from_epoch + batch.baskets.len() as u64
            );
            assert!(!batch.baskets.is_empty(), "must make progress");
            replica.extend(batch.baskets);
            epoch = batch.end_epoch;
            pulls += 1;
        }
        assert!(pulls > 1, "tiny segments must need several pulls");
        assert_eq!(replica.len(), 20);
        for (i, basket) in replica.iter().enumerate() {
            assert_eq!(basket.as_slice(), &[ItemId(i as u32 % 8)]);
        }
        // Caught up: an empty batch, not an error.
        let done = store.ship_after(epoch, 1000);
        assert_eq!(done.end_epoch, done.from_epoch);
        assert!(done.baskets.is_empty());
    }

    #[test]
    fn ship_after_respects_max_baskets() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        for i in 0..10u32 {
            store.append_ids([i % 8]).unwrap();
        }
        let batch = store.ship_after(2, 3);
        assert_eq!(batch.from_epoch, 2);
        assert_eq!(batch.end_epoch, 5);
        assert_eq!(batch.baskets.len(), 3);
        assert_eq!(batch.baskets[0].as_slice(), &[ItemId(2)]);
        assert_eq!(batch.shard_epoch, 10);
    }

    #[test]
    fn ship_after_falls_back_to_snapshot_when_segments_reclaimed() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(64));
        for i in 0..12u32 {
            store.append_ids([i % 8]).unwrap();
        }
        store.checkpoint().unwrap();
        for i in 12..20u32 {
            store.append_ids([i % 8]).unwrap();
        }
        store.checkpoint().unwrap();
        assert!(
            !dir_names(&state).contains(&"wal.000000".to_string()),
            "retention must have reclaimed the first segment: {:?}",
            dir_names(&state)
        );
        // The covering segment is gone; the snapshot serves the range.
        let batch = store.ship_after(0, 1000);
        assert_eq!(batch.source, ShipSource::Snapshot);
        assert_eq!(batch.from_epoch, 0);
        assert_eq!(batch.end_epoch, 20);
        for (i, basket) in batch.baskets.iter().enumerate() {
            assert_eq!(basket.as_slice(), &[ItemId(i as u32 % 8)]);
        }
    }

    /// A [`MemDir`] that records every name passed to `create`.
    struct RecordingDir {
        inner: MemDir,
        created: Arc<Mutex<Vec<String>>>,
    }

    impl Dir for RecordingDir {
        fn list(&mut self) -> io::Result<Vec<String>> {
            self.inner.list()
        }
        fn open(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
            self.inner.open(name)
        }
        fn create(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
            lock(&self.created).push(name.to_string());
            self.inner.create(name)
        }
        fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
            self.inner.rename(from, to)
        }
        fn delete(&mut self, name: &str) -> io::Result<()> {
            self.inner.delete(name)
        }
        fn file_len(&mut self, name: &str) -> io::Result<u64> {
            self.inner.file_len(name)
        }
        fn sync(&mut self) -> io::Result<()> {
            self.inner.sync()
        }
    }

    #[test]
    fn checkpoint_writes_each_sealed_segment_once() {
        let media = MemDir::new();
        let state = media.state();
        let created = Arc::new(Mutex::new(Vec::new()));
        let dir = RecordingDir {
            inner: media,
            created: Arc::clone(&created),
        };
        let (store, _) =
            DurableStore::open_dir(Box::new(dir), 8, config(), durability(1 << 20)).unwrap();
        let sealed_files = |state: &SharedDirState| -> Vec<(String, Vec<u8>)> {
            dir_names(state)
                .into_iter()
                .filter(|n| parse_sealed_name(n).is_some())
                .map(|n| {
                    let bytes = read_file(state, &n);
                    (n, bytes)
                })
                .collect()
        };
        // 9 baskets at capacity 4: two sealed segments and a 1-basket tail.
        for i in 0..9u32 {
            store.append_ids([i % 8, (i + 2) % 8]).unwrap();
        }
        let first = store.checkpoint().unwrap();
        let files = sealed_files(&state);
        assert_eq!(files.len(), 4, "two copies of two segment files");
        let file_bytes: u64 = files.iter().map(|(_, b)| b.len() as u64).sum();
        let ckpt_len = |epoch| read_file(&state, &checkpoint_name(epoch)).len() as u64;
        assert_eq!(first.snapshot_bytes, ckpt_len(9) + file_bytes);

        // No seal since: the second checkpoint writes its tail and the
        // manifest, nothing else.
        store.append_ids([1, 2]).unwrap();
        store.append_ids([3]).unwrap();
        lock(&created).clear();
        let second = store.checkpoint().unwrap();
        assert_eq!(
            *lock(&created),
            vec![
                format!("{}{TMP_SUFFIX}", checkpoint_name(11)),
                format!("{MANIFEST_NAME}{TMP_SUFFIX}"),
            ]
        );
        assert_eq!(second.snapshot_bytes, ckpt_len(11));
        assert_eq!(sealed_files(&state), files, "segment files untouched");

        // One more seal: exactly that segment's two copies are new.
        store.append_ids([4]).unwrap();
        lock(&created).clear();
        let third = store.checkpoint().unwrap();
        let new_copies: Vec<String> = lock(&created)
            .iter()
            .filter(|n| n.starts_with("sealed."))
            .cloned()
            .collect();
        assert_eq!(
            new_copies,
            vec![
                format!("{}{TMP_SUFFIX}", sealed_name(2, 0)),
                format!("{}{TMP_SUFFIX}", sealed_name(2, 1)),
            ]
        );
        let seal_bytes = 2 * read_file(&state, &sealed_name(2, 0)).len() as u64;
        assert_eq!(third.snapshot_bytes, ckpt_len(12) + seal_bytes);
        drop(store);
        let (recovered, report) = recover(&state);
        assert_eq!((report.epoch, report.checkpoint_epoch), (12, 12));
        assert_eq!(recovered.snapshot().sealed_segments().len(), 3);
    }

    #[test]
    fn checkpoint_bounds_replay_and_retention_reclaims_segments() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(64));
        for i in 0..12u32 {
            store.append_ids([i % 8]).unwrap();
        }
        let stats = store.checkpoint().unwrap();
        assert_eq!(stats.epoch, 12);
        let stats2 = store.checkpoint().unwrap();
        assert_eq!(stats2.epoch, 12, "idempotent re-checkpoint");
        // One retained checkpoint (both writes hit epoch 12) means no
        // segment is reclaimed — the sole snapshot must keep its full-
        // replay fallback. Recovery still skips everything under it.
        for i in 0..4u32 {
            store.append_ids([i]).unwrap();
        }
        drop(store);
        let names = dir_names(&state);
        assert!(
            names.iter().any(|n| n.starts_with("ckpt.")),
            "checkpoint file exists: {names:?}"
        );
        assert!(names.iter().any(|n| n == MANIFEST_NAME));

        let (recovered, report) = open_dir_mem(&state, durability(64));
        assert_eq!(report.epoch, 16);
        assert_eq!(report.checkpoint_epoch, 12);
        assert_eq!(
            report.baskets_recovered, 4,
            "only post-checkpoint records replay"
        );
        assert_eq!(report.checkpoint_fallbacks, 0);
        assert!(
            report.records_skipped > 0 || report.segments_skipped > 0,
            "some pre-checkpoint records were skipped: {report:?}"
        );
        let snap = recovered.snapshot();
        assert_eq!(snap.n_baskets(), 16);
        // Answers are bit-identical to a never-crashed store.
        let fresh = IncrementalStore::new(8, config());
        for i in 0..12u32 {
            fresh.append_batch([vec![ItemId(i % 8)]]).unwrap();
        }
        for i in 0..4u32 {
            fresh.append_batch([vec![ItemId(i)]]).unwrap();
        }
        let fsnap = fresh.snapshot();
        for i in 0..8u32 {
            assert_eq!(
                snap.support(Itemset::from_ids([i]).items()),
                fsnap.support(Itemset::from_ids([i]).items())
            );
        }
        assert_eq!(snap.sealed_segments().len(), fsnap.sealed_segments().len());
    }

    #[test]
    fn retention_deletes_only_covered_segments() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(64));
        for i in 0..12u32 {
            store.append_ids([i % 8]).unwrap();
        }
        store.checkpoint().unwrap();
        for i in 0..12u32 {
            store.append_ids([i % 8]).unwrap();
        }
        let stats = store.checkpoint().unwrap();
        assert_eq!(stats.epoch, 24);
        // Coverage = min(retained) = 12 (retain_checkpoints = 2): only
        // segments wholly below epoch 12 may be gone. Everything needed
        // to replay from the *older* retained checkpoint must survive.
        drop(store);
        let (recovered, report) = open_dir_mem(&state, durability(64));
        assert_eq!(report.epoch, 24);
        assert_eq!(report.checkpoint_epoch, 24);
        assert_eq!(recovered.epoch(), 24);

        // Corrupt the newest checkpoint: recovery must fall back to the
        // older retained one and still reach epoch 24 via the WAL.
        drop(recovered);
        {
            let mut d = MemDir::with_state(Arc::clone(&state));
            let names = d.list().unwrap();
            let newest = names
                .iter()
                .filter(|n| n.starts_with("ckpt."))
                .max()
                .cloned()
                .unwrap();
            let mut f = d.open(&newest).unwrap();
            let len = f.len().unwrap();
            f.truncate(len / 2).unwrap();
        }
        let (recovered, report) = open_dir_mem(&state, durability(64));
        assert_eq!(report.checkpoint_fallbacks, 1, "newest rejected");
        assert_eq!(report.checkpoint_epoch, 12, "older checkpoint loaded");
        assert_eq!(report.epoch, 24, "WAL replay finishes the job");
        assert_eq!(recovered.epoch(), 24);
    }

    #[test]
    fn corrupted_all_checkpoints_falls_back_to_full_replay() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        for i in 0..8u32 {
            store.append_ids([i]).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);
        {
            let mut d = MemDir::with_state(Arc::clone(&state));
            for name in d.list().unwrap() {
                if name.starts_with("ckpt.") {
                    let mut f = d.open(&name).unwrap();
                    f.truncate(3).unwrap();
                }
            }
        }
        let (recovered, report) = open_dir_mem(&state, durability(1 << 20));
        assert_eq!(report.checkpoint_epoch, 0, "full replay");
        assert!(report.checkpoint_fallbacks >= 1);
        assert_eq!(report.epoch, 8);
        assert_eq!(recovered.epoch(), 8);
    }

    #[test]
    fn torn_trailing_segment_is_dropped_as_crashed_rotation() {
        let state = MemDir::new().state();
        let (store, _) = open_dir_mem(&state, durability(1 << 20));
        store.append_ids([0, 1]).unwrap();
        drop(store);
        {
            // Simulate a rotation that crashed after creating the next
            // segment but before its header became durable.
            let mut d = MemDir::with_state(Arc::clone(&state));
            d.create("wal.000001").unwrap().append(b"BMB").unwrap();
        }
        let (recovered, report) = open_dir_mem(&state, durability(1 << 20));
        assert_eq!(report.epoch, 1);
        assert_eq!(recovered.epoch(), 1);
        assert!(
            !dir_names(&state).contains(&"wal.000001".to_string()),
            "torn trailing segment deleted"
        );
        // The new active segment does not collide with the dead name.
        recovered.append_ids([2]).unwrap();
    }

    #[test]
    fn failed_checkpoint_rename_leaves_directory_usable() {
        let plan = DirFaultPlan {
            fail_rename_at: Some(0),
            ..DirFaultPlan::default()
        };
        let dir = FaultDir::new(plan);
        let state = dir.dir_state();
        let (store, _) =
            match DurableStore::open_dir(Box::new(dir), 8, config(), durability(1 << 20)) {
                Ok(p) => p,
                Err(e) => panic!("{e}"),
            };
        for i in 0..4u32 {
            store.append_ids([i]).unwrap();
        }
        let err = store.checkpoint();
        assert!(matches!(err, Err(CheckpointError::Io(_))), "{err:?}");
        // The next attempt succeeds (fault fired once) and the failed
        // one left no manifest entry behind.
        let stats = store.checkpoint().unwrap();
        assert_eq!(stats.epoch, 4);
        drop(store);
        let (_, report) = open_dir_mem(&state, durability(1 << 20));
        assert_eq!(report.checkpoint_epoch, 4);
        assert_eq!(report.checkpoint_fallbacks, 0);
    }

    #[test]
    fn dir_crash_before_dir_sync_reverts_checkpoint() {
        // A checkpoint whose entry mutations never hit a dir sync is
        // invisible after a crash; recovery replays the WAL instead.
        let dir = MemDir::new();
        let state = dir.state();
        let (store, _) =
            match DurableStore::open_dir(Box::new(dir), 8, config(), durability(1 << 20)) {
                Ok(p) => p,
                Err(e) => panic!("{e}"),
            };
        for i in 0..4u32 {
            store.append_ids([i]).unwrap();
        }
        store.checkpoint().unwrap();
        drop(store);
        // write_atomic ends with a dir sync, so the checkpoint IS
        // durable here; crash and verify it survives.
        let crashed = MemDir::crashed(&state);
        let cstate = crashed.state();
        let (recovered, report) = open_dir_mem(&cstate, durability(1 << 20));
        assert_eq!(report.checkpoint_epoch, 4);
        assert_eq!(recovered.epoch(), 4);
    }

    #[test]
    fn segment_names_round_trip() {
        assert_eq!(segment_name(0), "wal.000000");
        assert_eq!(segment_name(17), "wal.000017");
        assert_eq!(parse_segment_name("wal.000017"), Some(17));
        assert_eq!(parse_segment_name("wal.1234567"), Some(1_234_567));
        assert_eq!(parse_segment_name("wal.00001"), None, "too short");
        assert_eq!(parse_segment_name("wal.00001x"), None);
        assert_eq!(parse_segment_name("ckpt.000017"), None);
    }
}
