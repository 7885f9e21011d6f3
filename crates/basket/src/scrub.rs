//! Background integrity scrubbing: **verify → quarantine → repair**.
//!
//! The durability layer defends data *in flight* — sync-before-ack WAL
//! appends, CRC-trailed checkpoints, atomic renames — but bytes that
//! were acknowledged long ago can still rot on media. A flipped bit in
//! a sealed segment or checkpoint sits undetected until the next
//! restart, where the recovery ladder silently falls back and discards
//! epochs a healthy replica still has. Since query answers are exact
//! integer supports summed across sealed segments, at-rest damage is a
//! silent-wrong-answer risk, not just a crash risk.
//!
//! [`DurableStore::scrub_pass`] walks the durable artifacts of a
//! store — the `GEN` fencing record, the `MANIFEST`,
//! every checkpoint the manifest tracks, and every *sealed* WAL
//! segment — re-verifying magic headers, CRCs, epoch fields, and
//! segment base-epoch chain consistency. The pass is read-only until it
//! finds damage and paces itself with a per-tick byte budget
//! ([`ScrubOptions::max_bytes`] plus the [`ScrubReport::resume_after`]
//! cursor), so a background scrubber never stalls ingest: it takes the
//! checkpoint-state lock (checkpoints and scrubs serialize; appends do
//! not take that lock) and the directory lock only per artifact.
//!
//! On a mismatch the damaged artifact is **quarantined** — evidence is
//! never deleted — and **repaired**:
//!
//! * `GEN` / `MANIFEST` / checkpoints are moved aside
//!   (sync-before-rename) and re-cut from the live store, which holds
//!   the full acknowledged history in memory.
//! * A sealed WAL segment is rebuilt from the epoch range it must
//!   cover: from a configured [`RepairPeer`] (the existing
//!   `replicate_pull` protocol, stamped with this node's generation so
//!   a fenced/stale node can never impose its view on a newer one) or
//!   from the local store. Because replacing a segment must never leave
//!   a window where the name is missing (recovery would refuse to open
//!   across the hole), segments are quarantined by durable *copy* and
//!   then atomically replaced in place.
//! * When neither source can rebuild the range, the pass falls back to
//!   cutting a fresh checkpoint *past the hole* — recovery then skips
//!   the damaged segment entirely — and only if that also fails does
//!   the store degrade loudly ([`DurableStore::is_healthy`] goes
//!   false, appends fail fast, and an `Error` ledger event fires).
//!
//! [`fsck_dir`] is the offline flavor: it validates a durability
//! directory structurally (no store required, geometry-free) and
//! powers `bmb fsck DIR`. [`segment_digests`] computes the logical
//! per-segment digests behind the cluster's `integrity` anti-entropy
//! command: they hash canonical basket *content*, not file bytes, so
//! primaries and followers with identical logical history agree even
//! though their WAL framing differs.

use std::io;
use std::time::Instant;

use bmb_obs::{Counter, Histogram, Registry, Severity};

use crate::checkpoint::{
    checkpoint_name, decode_manifest, encode_manifest, encode_snapshot, parse_checkpoint_name,
    write_atomic, CHECKPOINT_MAGIC, MANIFEST_NAME,
};
use crate::item::ItemId;
use crate::record::{
    crc32, encode_batch, encode_fence, frame_into, inspect_wal_bytes, segment_header,
};
use crate::segment::{IncrementalStore, Snapshot, StoreConfig};
use crate::storage::Dir;
use crate::wal::{
    decode_generation, encode_generation, lock, parse_segment_name, segment_name, CkptState,
    DurableStore, GEN_NAME,
};

/// Name prefix of quarantined artifacts. Quarantine names are never
/// parsed as segments or checkpoints, so recovery ignores them and the
/// evidence survives restarts.
pub const QUARANTINE_PREFIX: &str = "quarantine.";

/// The quarantine name for damaged artifact `original`, disambiguated
/// by a per-directory sequence number so repeated damage to the same
/// artifact keeps every piece of evidence.
pub fn quarantine_name(seq: u64, original: &str) -> String {
    format!("{QUARANTINE_PREFIX}{seq:04}.{original}")
}

/// Why a [`RepairPeer`] fetch yielded no baskets.
#[derive(Debug)]
pub enum PeerError {
    /// The peer holds a newer generation than the one stamped on the
    /// fetch: this node is stale. A stale node must never "repair"
    /// state it may be diverging from; the caller falls back to local
    /// sources or degrades.
    Fenced {
        /// The newer generation the peer reported.
        peer_generation: u64,
    },
    /// The peer could not be reached or answered garbage.
    Unavailable(String),
}

impl std::fmt::Display for PeerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeerError::Fenced { peer_generation } => {
                write!(
                    f,
                    "peer fenced the fetch (peer generation {peer_generation})"
                )
            }
            PeerError::Unavailable(e) => write!(f, "peer unavailable: {e}"),
        }
    }
}

/// A replica that can re-serve an epoch range for segment repair —
/// in production an adapter over the `replicate_pull` wire command.
pub trait RepairPeer {
    /// Fetches up to `max_baskets` baskets starting after `after_epoch`
    /// (the same contract as [`DurableStore::ship_after`]), stamping
    /// the request with this node's `generation` so a peer holding a
    /// newer generation refuses with [`PeerError::Fenced`].
    fn fetch_range(
        &mut self,
        after_epoch: u64,
        max_baskets: usize,
        generation: u64,
    ) -> Result<Vec<Vec<ItemId>>, PeerError>;
}

/// A logical content digest of one sealed in-memory segment, the unit
/// of cluster anti-entropy comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SegmentDigest {
    /// The sealed segment's id (ingest order, zero-based).
    pub segment: u64,
    /// Store epoch after the segment's last basket.
    pub end_epoch: u64,
    /// CRC32 over the canonical basket encoding (`len:u32le` +
    /// `id:u32le`s per basket, ingest order).
    pub crc: u32,
}

/// Computes [`SegmentDigest`]s for every sealed segment of `snapshot`
/// ending after `from_epoch`. Digests hash canonical basket *content*
/// (sorted, deduplicated — the in-memory form), not WAL file bytes, so
/// two replicas with the same logical history produce identical
/// digests regardless of how replication framed their WAL records.
pub fn segment_digests(snapshot: &Snapshot, from_epoch: u64) -> Vec<SegmentDigest> {
    let mut out = Vec::new();
    let mut end = 0u64;
    for segment in snapshot.sealed_segments() {
        end += segment.len() as u64;
        if end <= from_epoch {
            continue;
        }
        let mut buf = Vec::new();
        for basket in segment.database().baskets() {
            buf.extend_from_slice(&(basket.len() as u32).to_le_bytes());
            for item in basket {
                buf.extend_from_slice(&item.0.to_le_bytes());
            }
        }
        out.push(SegmentDigest {
            segment: segment.id(),
            end_epoch: end,
            crc: crc32(&buf),
        });
    }
    out
}

/// Rebuilds the exact byte image of a sealed WAL segment from the
/// baskets it covers: header (`BMBWAL2\n` + `base_epoch`), one
/// single-basket batch record per basket, and an epoch fence after
/// every basket whose epoch is a multiple of `segment_capacity` (the
/// seal boundary the writer fences at).
///
/// The image is byte-identical to the pristine segment when ingest
/// appended baskets one at a time in canonical form (sorted, unique
/// item ids) — which is what replication apply and the torture
/// fixtures do. For other ingest framings the image differs in record
/// grouping but replays to the identical store state.
pub fn rebuild_segment_bytes(
    base_epoch: u64,
    baskets: &[Vec<ItemId>],
    segment_capacity: usize,
) -> Vec<u8> {
    let mut out = segment_header(base_epoch);
    out.reserve(baskets.iter().map(|b| 21 + 4 * b.len()).sum::<usize>());
    let cap = segment_capacity as u64;
    let mut epoch = base_epoch;
    for basket in baskets {
        epoch += 1;
        frame_into(&mut out, &encode_batch(std::slice::from_ref(basket)));
        if cap > 0 && epoch.is_multiple_of(cap) {
            frame_into(&mut out, &encode_fence(epoch));
        }
    }
    out
}

/// Structurally verifies `GEN` record bytes.
///
/// # Errors
///
/// A one-line damage description (length, magic, or CRC).
pub fn verify_generation_bytes(bytes: &[u8]) -> Result<(), String> {
    match decode_generation(bytes) {
        Some(_) => Ok(()),
        None => Err("damaged generation record (length, magic, or CRC)".to_string()),
    }
}

/// Structurally verifies `MANIFEST` bytes, returning the checkpoint
/// epochs it lists.
///
/// # Errors
///
/// A one-line damage description (length, magic, CRC, or epoch order).
pub fn verify_manifest_bytes(bytes: &[u8]) -> Result<Vec<u64>, String> {
    decode_manifest(bytes)
        .ok_or_else(|| "damaged manifest (length, magic, CRC, or epoch order)".to_string())
}

/// Structurally verifies checkpoint bytes against the epoch its file
/// name claims, and — when the store geometry is known — against the
/// expected item-space size and segment capacity. Walks the basket
/// table to the exact end of the body, so truncation and padding are
/// caught even when the CRC was forged along with the data.
///
/// # Errors
///
/// A one-line damage description.
pub fn verify_checkpoint_bytes(
    name_epoch: u64,
    bytes: &[u8],
    geometry: Option<(usize, usize)>,
) -> Result<(), String> {
    if bytes.len() < 36 {
        return Err(format!("truncated checkpoint ({} bytes)", bytes.len()));
    }
    if &bytes[..8] != CHECKPOINT_MAGIC {
        return Err("bad checkpoint magic".to_string());
    }
    let body_end = bytes.len() - 4;
    let stored = u32::from_le_bytes([
        bytes[body_end],
        bytes[body_end + 1],
        bytes[body_end + 2],
        bytes[body_end + 3],
    ]);
    let actual = crc32(&bytes[..body_end]);
    if stored != actual {
        return Err(format!(
            "checkpoint CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
        ));
    }
    let read_u64 = |at: usize| {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&bytes[at..at + 8]);
        u64::from_le_bytes(raw)
    };
    let read_u32 = |at: usize| {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&bytes[at..at + 4]);
        u32::from_le_bytes(raw)
    };
    let epoch = read_u64(8);
    if epoch != name_epoch {
        return Err(format!(
            "epoch field {epoch} disagrees with file name epoch {name_epoch}"
        ));
    }
    let k = read_u32(16) as u64;
    let cap = read_u32(20);
    let n = read_u64(24);
    if n != epoch {
        return Err(format!("record count {n} disagrees with epoch {epoch}"));
    }
    if let Some((n_items, capacity)) = geometry {
        if k != n_items as u64 {
            return Err(format!(
                "item space {k} disagrees with store geometry {n_items}"
            ));
        }
        if cap as usize != capacity {
            return Err(format!(
                "segment capacity {cap} disagrees with store geometry {capacity}"
            ));
        }
    }
    let mut pos = 32usize;
    for index in 0..n {
        if pos + 4 > body_end {
            return Err(format!("basket table truncated at basket {index}"));
        }
        let m = read_u32(pos) as usize;
        pos += 4;
        if pos + 4 * m > body_end {
            return Err(format!("basket {index} items truncated"));
        }
        for slot in 0..m {
            if u64::from(read_u32(pos + 4 * slot)) >= k {
                return Err(format!("basket {index} names an out-of-range item"));
            }
        }
        pos += 4 * m;
    }
    if pos != body_end {
        return Err(format!(
            "{} trailing bytes after basket table",
            body_end - pos
        ));
    }
    Ok(())
}

/// Structurally verifies sealed-segment bytes: segment magic, the expected
/// `base_epoch`, a clean record walk (every CRC intact, no torn tail),
/// and — when known — the exact end epoch the next segment's base
/// demands.
///
/// # Errors
///
/// A one-line damage description.
pub fn verify_segment_bytes(
    bytes: &[u8],
    base_epoch: u64,
    expected_end: Option<u64>,
) -> Result<(), String> {
    let inspection = inspect_wal_bytes(bytes).map_err(|e| e.to_string())?;
    match inspection.base_epoch {
        Some(base) if base == base_epoch => {}
        Some(base) => {
            return Err(format!(
                "base epoch {base} disagrees with expected {base_epoch}"
            ));
        }
        None => return Err("torn segment header".to_string()),
    }
    if inspection.diagnosis != "clean" {
        return Err(inspection.diagnosis);
    }
    if let Some(end) = expected_end {
        if inspection.end_epoch != end {
            return Err(format!(
                "segment ends at epoch {}, next segment expects {end}",
                inspection.end_epoch
            ));
        }
    }
    Ok(())
}

/// Pacing knobs for one [`DurableStore::scrub_pass`] tick.
#[derive(Clone, Debug, Default)]
pub struct ScrubOptions {
    /// Stop the tick (leaving [`ScrubReport::resume_after`] set) once
    /// this many bytes have been read. At least one artifact is always
    /// processed so a pass makes progress under any budget. `None`
    /// scans everything in one tick.
    pub max_bytes: Option<u64>,
    /// Resume cursor from a previous tick's report: skip artifacts up
    /// to and including this name. A stale cursor (the artifact was
    /// reclaimed) restarts from the beginning.
    pub resume_after: Option<String>,
}

/// What one [`DurableStore::scrub_pass`] tick did.
#[derive(Clone, Debug, Default)]
pub struct ScrubReport {
    /// Artifacts read and verified this tick.
    pub artifacts_scanned: u64,
    /// Bytes read off media this tick.
    pub bytes_scanned: u64,
    /// Artifacts that failed verification.
    pub corruptions: u64,
    /// Damaged artifacts successfully rebuilt (including the
    /// re-checkpoint-past-the-hole fallback).
    pub repairs: u64,
    /// Evidence files created under [`QUARANTINE_PREFIX`].
    pub quarantines: u64,
    /// Whether this pass degraded the store (damage that neither a
    /// peer, the local store, nor a fresh checkpoint could outrun).
    pub degraded: bool,
    /// Whether the tick reached the end of the artifact list.
    pub complete: bool,
    /// Cursor for the next tick when `complete` is false.
    pub resume_after: Option<String>,
    /// One line per corruption or repair obstacle, operator-oriented.
    pub findings: Vec<String>,
}

/// One problem [`fsck_dir`] found.
#[derive(Clone, Debug)]
pub struct FsckFinding {
    /// The artifact's file name.
    pub name: String,
    /// A one-line damage description.
    pub detail: String,
}

/// The result of [`fsck_dir`].
#[derive(Clone, Debug, Default)]
pub struct FsckReport {
    /// Artifacts examined (GEN, MANIFEST, checkpoints, segments).
    pub artifacts: u64,
    /// Bytes read and verified.
    pub bytes: u64,
    /// Quarantined evidence files present (informational, not damage).
    pub quarantined: u64,
    /// Every verification failure, in directory walk order.
    pub findings: Vec<FsckFinding>,
}

impl FsckReport {
    /// Whether every artifact verified clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Offline, geometry-free structural verification of a durability
/// directory: `GEN` record, `MANIFEST` CRC and epoch order,
/// manifest↔file agreement, every checkpoint's magic/CRC/epoch/basket
/// table, every WAL segment's record walk, and the segment base-epoch
/// chain (gaps are only legal when a valid checkpoint covers them).
/// Read-only: never repairs, renames, or deletes. This is the engine
/// behind `bmb fsck DIR`.
///
/// Note that a torn tail in the *active* (last) segment is reported as
/// a finding: run fsck on a cleanly shut down or recovered directory.
///
/// # Errors
///
/// Only when the directory itself cannot be listed; per-artifact read
/// failures become findings.
pub fn fsck_dir(dir: &mut dyn Dir) -> io::Result<FsckReport> {
    let mut names = dir.list()?;
    names.sort();
    let mut report = FsckReport {
        quarantined: names
            .iter()
            .filter(|n| n.starts_with(QUARANTINE_PREFIX))
            .count() as u64,
        ..FsckReport::default()
    };
    let read = |dir: &mut dyn Dir, name: &str| -> Result<Vec<u8>, String> {
        dir.open(name)
            .and_then(|mut file| file.read_all())
            .map_err(|e| format!("unreadable: {e}"))
    };

    if names.iter().any(|n| n == GEN_NAME) {
        report.artifacts += 1;
        match read(dir, GEN_NAME) {
            Ok(bytes) => {
                report.bytes += bytes.len() as u64;
                if let Err(detail) = verify_generation_bytes(&bytes) {
                    report.findings.push(FsckFinding {
                        name: GEN_NAME.to_string(),
                        detail,
                    });
                }
            }
            Err(detail) => report.findings.push(FsckFinding {
                name: GEN_NAME.to_string(),
                detail,
            }),
        }
    }

    let mut manifest_epochs: Vec<u64> = Vec::new();
    if names.iter().any(|n| n == MANIFEST_NAME) {
        report.artifacts += 1;
        match read(dir, MANIFEST_NAME) {
            Ok(bytes) => {
                report.bytes += bytes.len() as u64;
                match verify_manifest_bytes(&bytes) {
                    Ok(epochs) => manifest_epochs = epochs,
                    Err(detail) => report.findings.push(FsckFinding {
                        name: MANIFEST_NAME.to_string(),
                        detail,
                    }),
                }
            }
            Err(detail) => report.findings.push(FsckFinding {
                name: MANIFEST_NAME.to_string(),
                detail,
            }),
        }
    }

    let mut valid_ckpts: Vec<u64> = Vec::new();
    for name in &names {
        let Some(epoch) = parse_checkpoint_name(name) else {
            continue;
        };
        report.artifacts += 1;
        match read(dir, name) {
            Ok(bytes) => {
                report.bytes += bytes.len() as u64;
                match verify_checkpoint_bytes(epoch, &bytes, None) {
                    Ok(()) => valid_ckpts.push(epoch),
                    Err(detail) => report.findings.push(FsckFinding {
                        name: name.clone(),
                        detail,
                    }),
                }
            }
            Err(detail) => report.findings.push(FsckFinding {
                name: name.clone(),
                detail,
            }),
        }
    }
    for epoch in &manifest_epochs {
        if !valid_ckpts.contains(epoch) {
            report.findings.push(FsckFinding {
                name: MANIFEST_NAME.to_string(),
                detail: format!("manifest names checkpoint epoch {epoch} with no valid file"),
            });
        }
    }

    let newest_ckpt = valid_ckpts.iter().copied().max().unwrap_or(0);
    let mut segments: Vec<(u64, &String)> = names
        .iter()
        .filter_map(|n| parse_segment_name(n).map(|index| (index, n)))
        .collect();
    segments.sort_by_key(|(index, _)| *index);
    // The epoch the chain has provably covered so far; `None` after a
    // damaged segment whose end cannot be trusted.
    let mut covered: Option<u64> = Some(0);
    for (_, name) in segments {
        report.artifacts += 1;
        let bytes = match read(dir, name) {
            Ok(bytes) => bytes,
            Err(detail) => {
                report.findings.push(FsckFinding {
                    name: name.clone(),
                    detail,
                });
                covered = None;
                continue;
            }
        };
        report.bytes += bytes.len() as u64;
        let inspection = match inspect_wal_bytes(&bytes) {
            Ok(inspection) => inspection,
            Err(e) => {
                report.findings.push(FsckFinding {
                    name: name.clone(),
                    detail: e.to_string(),
                });
                covered = None;
                continue;
            }
        };
        let Some(base) = inspection.base_epoch else {
            report.findings.push(FsckFinding {
                name: name.clone(),
                detail: "torn segment header".to_string(),
            });
            covered = None;
            continue;
        };
        if let Some(cum) = covered {
            if base < cum {
                report.findings.push(FsckFinding {
                    name: name.clone(),
                    detail: format!("base epoch {base} overlaps already-covered epoch {cum}"),
                });
            } else if base > cum && base > newest_ckpt {
                report.findings.push(FsckFinding {
                    name: name.clone(),
                    detail: format!(
                        "chain gap: base epoch {base} past covered epoch {cum} with no checkpoint bridging it"
                    ),
                });
            }
        }
        if inspection.diagnosis != "clean" {
            report.findings.push(FsckFinding {
                name: name.clone(),
                detail: inspection.diagnosis.clone(),
            });
            covered = None;
            continue;
        }
        covered = Some(inspection.end_epoch);
    }
    Ok(report)
}

/// Handle bundle for the scrub metrics (`bmb_basket_scrub_*`); cells
/// live in the store's registry, so repeated registration re-fetches.
struct ScrubMetrics {
    passes: Counter,
    bytes: Counter,
    corruptions: Counter,
    repairs: Counter,
    quarantines: Counter,
    duration_us: Histogram,
}

impl ScrubMetrics {
    fn register(registry: &Registry) -> ScrubMetrics {
        ScrubMetrics {
            passes: registry.counter(
                "bmb_basket_scrub_passes_total",
                "Completed scrub ticks (including clean ones).",
            ),
            bytes: registry.counter(
                "bmb_basket_scrub_bytes_total",
                "Artifact bytes read and re-verified by scrub.",
            ),
            corruptions: registry.counter(
                "bmb_basket_scrub_corruptions_total",
                "Artifacts that failed at-rest verification.",
            ),
            repairs: registry.counter(
                "bmb_basket_scrub_repairs_total",
                "Damaged artifacts successfully rebuilt.",
            ),
            quarantines: registry.counter(
                "bmb_basket_scrub_quarantines_total",
                "Evidence files created for damaged artifacts.",
            ),
            duration_us: registry.histogram(
                "bmb_basket_scrub_duration_us",
                "Wall time of one scrub tick in microseconds.",
            ),
        }
    }
}

/// One durable artifact the scrub pass verifies, in walk order.
enum Artifact {
    Generation,
    Manifest,
    Checkpoint(u64),
    Segment { index: u64, base: u64, end: u64 },
}

impl Artifact {
    fn name(&self) -> String {
        match self {
            Artifact::Generation => GEN_NAME.to_string(),
            Artifact::Manifest => MANIFEST_NAME.to_string(),
            Artifact::Checkpoint(epoch) => checkpoint_name(*epoch),
            Artifact::Segment { index, .. } => segment_name(*index),
        }
    }
}

/// Moves a damaged artifact to quarantine. The file's bytes are synced
/// first: the damaged content *is* the evidence, and it must be pinned
/// on media before the rename publishes the new name — otherwise a
/// crash could lose both the original and the quarantine copy.
fn quarantine_move(dir: &mut dyn Dir, name: &str, qname: &str) -> io::Result<()> {
    let mut file = dir.open(name)?;
    file.sync()?;
    dir.rename(name, qname)?;
    dir.sync()
}

/// Quarantines a damaged artifact by durable *copy*, leaving the
/// original name in place. Used for WAL segments, where a missing name
/// — even transiently — would make a concurrent crash unrecoverable
/// without the peer; the damaged original is atomically replaced by
/// the rebuilt image afterwards.
fn quarantine_copy(dir: &mut dyn Dir, qname: &str, damaged: &[u8]) -> io::Result<()> {
    write_atomic(dir, qname, damaged)
}

/// Fetches exactly `needed` baskets after `base` from a repair peer,
/// looping over its batch size. Returns `None` (with a finding) when
/// the peer fences, disappears, or runs out of history.
fn fetch_from_peer(
    peer: &mut dyn RepairPeer,
    base: u64,
    needed: usize,
    generation: u64,
    report: &mut ScrubReport,
) -> Option<Vec<Vec<ItemId>>> {
    let mut got: Vec<Vec<ItemId>> = Vec::with_capacity(needed);
    while got.len() < needed {
        let after = base + got.len() as u64;
        match peer.fetch_range(after, needed - got.len(), generation) {
            Ok(batch) if batch.is_empty() => {
                report
                    .findings
                    .push(format!("repair peer has no baskets after epoch {after}"));
                return None;
            }
            Ok(batch) => got.extend(batch),
            Err(e) => {
                if let PeerError::Fenced { peer_generation } = &e {
                    let gen = peer_generation.to_string();
                    bmb_obs::events().emit(
                        Severity::Warn,
                        "scrub: repair fetch fenced — this node is stale",
                        &[("peer_generation", gen.as_str())],
                    );
                }
                report.findings.push(format!("peer repair failed: {e}"));
                return None;
            }
        }
    }
    got.truncate(needed);
    Some(got)
}

impl DurableStore {
    /// Runs one scrub tick: verify every durable artifact (or as many
    /// as the byte budget allows), quarantine and repair what fails,
    /// and report what happened. See the [module docs](self) for the
    /// full decision tree.
    ///
    /// `peer` is the optional replica used to re-fetch damaged segment
    /// ranges; when it is absent or fenced the pass falls back to the
    /// local store and then to re-checkpointing past the hole.
    pub fn scrub_pass(
        &self,
        mut peer: Option<&mut dyn RepairPeer>,
        options: &ScrubOptions,
    ) -> ScrubReport {
        let metrics = ScrubMetrics::register(self.observability());
        let started = Instant::now();
        let mut report = ScrubReport {
            complete: true,
            ..ScrubReport::default()
        };
        let ckpt = &self.ckpt;
        // Re-checkpoint target when a segment could not be rebuilt:
        // a fresh checkpoint at or past this epoch makes recovery skip
        // the damaged segment entirely.
        let mut recheckpoint_past: Option<u64> = None;
        {
            // Holding the checkpoint state for the whole tick
            // serializes scrub against checkpoint(): the manifest/file
            // set is stable and retention cannot delete a segment
            // mid-verification. Appends never take this lock, so
            // ingest is unaffected. // lock:allow(io)
            let state = lock(&ckpt.state);
            let listing = {
                let mut dir = lock(&ckpt.dir); // lock:allow(io)
                dir.list()
            };
            let names = match listing {
                Ok(names) => names,
                Err(e) => {
                    report.findings.push(format!("directory unlistable: {e}"));
                    report.complete = false;
                    metrics.passes.inc();
                    metrics.duration_us.record_duration(started.elapsed());
                    return report;
                }
            };
            let mut quarantine_seq = names
                .iter()
                .filter(|n| n.starts_with(QUARANTINE_PREFIX))
                .count() as u64;
            let mut worklist: Vec<Artifact> = Vec::new();
            if names.iter().any(|n| n == GEN_NAME) {
                worklist.push(Artifact::Generation);
            }
            if names.iter().any(|n| n == MANIFEST_NAME) || !state.manifest.is_empty() {
                worklist.push(Artifact::Manifest);
            }
            for &epoch in &state.files {
                worklist.push(Artifact::Checkpoint(epoch));
            }
            for (meta, end) in self.sealed_segment_ranges() {
                worklist.push(Artifact::Segment {
                    index: meta.index,
                    base: meta.base_epoch,
                    end,
                });
            }
            let start = match &options.resume_after {
                Some(cursor) => worklist
                    .iter()
                    .position(|a| &a.name() == cursor)
                    .map_or(0, |at| at + 1),
                None => 0,
            };
            for artifact in &worklist[start..] {
                if let Some(max) = options.max_bytes {
                    if report.artifacts_scanned > 0 && report.bytes_scanned >= max {
                        report.complete = false;
                        break;
                    }
                }
                self.scrub_one(
                    &state,
                    artifact,
                    &mut peer,
                    &mut quarantine_seq,
                    &mut recheckpoint_past,
                    &mut report,
                    &metrics,
                );
                report.artifacts_scanned += 1;
                report.resume_after = Some(artifact.name());
            }
            if report.complete {
                report.resume_after = None;
            }
        }
        if let Some(hole_end) = recheckpoint_past {
            // The state lock is released: checkpoint() retakes it.
            match self.checkpoint() {
                Ok(stats) if stats.epoch >= hole_end => {
                    report.repairs += 1;
                    metrics.repairs.inc();
                    let epoch = stats.epoch.to_string();
                    bmb_obs::events().emit(
                        Severity::Warn,
                        "scrub: re-checkpointed past an unrepairable hole",
                        &[("epoch", epoch.as_str())],
                    );
                }
                _ => {
                    self.mark_degraded("scrub could not repair or checkpoint past damage");
                    report.degraded = true;
                }
            }
        }
        metrics.passes.inc();
        metrics.bytes.add(report.bytes_scanned);
        metrics.duration_us.record_duration(started.elapsed());
        report
    }

    /// Verifies one artifact and, on damage, runs its quarantine +
    /// repair flow. Called with the checkpoint state lock held.
    #[allow(clippy::too_many_arguments)]
    fn scrub_one(
        &self,
        state: &CkptState,
        artifact: &Artifact,
        peer: &mut Option<&mut dyn RepairPeer>,
        quarantine_seq: &mut u64,
        recheckpoint_past: &mut Option<u64>,
        report: &mut ScrubReport,
        metrics: &ScrubMetrics,
    ) {
        let name = artifact.name();
        let read = {
            // Reads the artifact bytes under the dir lock, released
            // before any rebuild work. // lock:allow(io)
            let mut dir = lock(&self.ckpt.dir);
            dir.open(&name).and_then(|mut file| file.read_all())
        };
        let file_present = read.is_ok();
        let (bytes, damage) = match read {
            Ok(bytes) => {
                report.bytes_scanned += bytes.len() as u64;
                let verdict = match artifact {
                    Artifact::Generation => verify_generation_bytes(&bytes),
                    Artifact::Manifest => verify_manifest_bytes(&bytes).and_then(|epochs| {
                        if epochs == state.manifest {
                            Ok(())
                        } else {
                            Err("manifest disagrees with durable checkpoint state".to_string())
                        }
                    }),
                    Artifact::Checkpoint(epoch) => verify_checkpoint_bytes(
                        *epoch,
                        &bytes,
                        Some((self.store().n_items(), self.segment_capacity())),
                    ),
                    Artifact::Segment { base, end, .. } => {
                        verify_segment_bytes(&bytes, *base, Some(*end))
                    }
                };
                (bytes, verdict.err())
            }
            Err(e) => (Vec::new(), Some(format!("unreadable: {e}"))),
        };
        let Some(detail) = damage else {
            return;
        };
        report.corruptions += 1;
        metrics.corruptions.inc();
        report.findings.push(format!("{name}: {detail}"));
        bmb_obs::events().emit(
            Severity::Warn,
            "scrub: at-rest corruption detected",
            &[("artifact", name.as_str()), ("detail", detail.as_str())],
        );

        match artifact {
            Artifact::Generation => {
                let rebuilt = encode_generation(self.generation());
                self.repair_by_replace(
                    &name,
                    file_present,
                    &rebuilt,
                    quarantine_seq,
                    report,
                    metrics,
                    RepairFallback::Degrade("generation record unrepairable"),
                    recheckpoint_past,
                );
            }
            Artifact::Manifest => {
                let rebuilt = encode_manifest(&state.manifest);
                self.repair_by_replace(
                    &name,
                    file_present,
                    &rebuilt,
                    quarantine_seq,
                    report,
                    metrics,
                    RepairFallback::Degrade("manifest unrepairable"),
                    recheckpoint_past,
                );
            }
            Artifact::Checkpoint(epoch) => {
                match self.recut_checkpoint_bytes(*epoch) {
                    Some(rebuilt) => self.repair_by_replace(
                        &name,
                        file_present,
                        &rebuilt,
                        quarantine_seq,
                        report,
                        metrics,
                        RepairFallback::Recheckpoint(*epoch),
                        recheckpoint_past,
                    ),
                    None => {
                        // A fresh checkpoint at the current epoch
                        // supersedes the damaged one for recovery.
                        merge_recheckpoint(recheckpoint_past, *epoch);
                    }
                }
            }
            Artifact::Segment { base, end, .. } => {
                self.repair_segment(
                    &name,
                    file_present,
                    &bytes,
                    *base,
                    *end,
                    peer,
                    quarantine_seq,
                    recheckpoint_past,
                    report,
                    metrics,
                );
            }
        }
    }

    /// Re-encodes the checkpoint image for `epoch` from the live store,
    /// which holds the full acknowledged history in memory. Segment
    /// structure is a pure function of capacity and basket order, so
    /// the image is byte-identical to the one originally cut.
    fn recut_checkpoint_bytes(&self, epoch: u64) -> Option<Vec<u8>> {
        let snapshot = self.store().snapshot();
        if snapshot.epoch() < epoch {
            return None;
        }
        let rebuilt = IncrementalStore::new(
            snapshot.n_items(),
            StoreConfig {
                segment_capacity: self.segment_capacity(),
            },
        );
        for basket in snapshot.baskets_range(0, epoch) {
            if rebuilt.append(basket).is_err() {
                return None;
            }
        }
        Some(encode_snapshot(
            &rebuilt.snapshot(),
            self.segment_capacity(),
        ))
    }

    /// Quarantines a damaged artifact by rename (evidence moves aside)
    /// and publishes `rebuilt` under its original name. On any failure
    /// the evidence is left wherever it is and the fallback escalation
    /// runs — never a destructive retry.
    #[allow(clippy::too_many_arguments)]
    fn repair_by_replace(
        &self,
        name: &str,
        file_present: bool,
        rebuilt: &[u8],
        quarantine_seq: &mut u64,
        report: &mut ScrubReport,
        metrics: &ScrubMetrics,
        fallback: RepairFallback,
        recheckpoint_past: &mut Option<u64>,
    ) {
        // Rename + rewrite under the dir lock so rotation, shipping,
        // and fsck never observe a half-repaired name. // lock:allow(io)
        let mut dir = lock(&self.ckpt.dir);
        let mut evidence_safe = true;
        if file_present {
            let qname = quarantine_name(*quarantine_seq, name);
            match quarantine_move(dir.as_mut(), name, &qname) {
                Ok(()) => {
                    *quarantine_seq += 1;
                    report.quarantines += 1;
                    metrics.quarantines.inc();
                }
                Err(e) => {
                    report
                        .findings
                        .push(format!("{name}: quarantine failed: {e}"));
                    evidence_safe = false;
                }
            }
        }
        if evidence_safe {
            match write_atomic(dir.as_mut(), name, rebuilt) {
                Ok(()) => {
                    report.repairs += 1;
                    metrics.repairs.inc();
                    bmb_obs::events().emit(
                        Severity::Info,
                        "scrub: artifact repaired from live store",
                        &[("artifact", name)],
                    );
                    return;
                }
                Err(e) => report.findings.push(format!("{name}: repair failed: {e}")),
            }
        }
        drop(dir);
        match fallback {
            RepairFallback::Degrade(reason) => {
                self.mark_degraded(reason);
                report.degraded = true;
            }
            RepairFallback::Recheckpoint(epoch) => merge_recheckpoint(recheckpoint_past, epoch),
        }
    }

    /// Repairs a damaged sealed segment: fetch the epoch range from the
    /// configured peer (generation-stamped) or the local store, rebuild
    /// the byte image, quarantine the damaged original by durable copy,
    /// and atomically replace it in place — the segment name is never
    /// missing, so a crash at any point recovers. When no source covers
    /// the range, escalate to re-checkpoint-past-the-hole.
    #[allow(clippy::too_many_arguments)]
    fn repair_segment(
        &self,
        name: &str,
        file_present: bool,
        damaged: &[u8],
        base: u64,
        end: u64,
        peer: &mut Option<&mut dyn RepairPeer>,
        quarantine_seq: &mut u64,
        recheckpoint_past: &mut Option<u64>,
        report: &mut ScrubReport,
        metrics: &ScrubMetrics,
    ) {
        let needed = end.saturating_sub(base) as usize;
        let local = {
            let snapshot = self.store().snapshot();
            let range = snapshot.baskets_range(base, end);
            (range.len() == needed).then_some(range)
        };
        let mut source = "local store";
        let baskets = match peer.as_deref_mut() {
            Some(p) => match fetch_from_peer(p, base, needed, self.generation(), report) {
                Some(fetched) => match &local {
                    // The local store is authoritative for this node's
                    // own acked history; a disagreeing peer means
                    // divergence the failover protocol must resolve.
                    Some(ours) if *ours != fetched => {
                        bmb_obs::events().emit(
                            Severity::Warn,
                            "scrub: peer range disagrees with local store; using local",
                            &[("artifact", name)],
                        );
                        local.clone()
                    }
                    _ => {
                        source = "peer";
                        Some(fetched)
                    }
                },
                None => local.clone(),
            },
            None => local,
        };
        let Some(baskets) = baskets else {
            merge_recheckpoint(recheckpoint_past, end);
            return;
        };
        let rebuilt = rebuild_segment_bytes(base, &baskets, self.segment_capacity());
        // Copy-quarantine then replace-in-place under the dir lock, so
        // the segment name exists at every instant. // lock:allow(io)
        let mut dir = lock(&self.ckpt.dir);
        if file_present {
            let qname = quarantine_name(*quarantine_seq, name);
            match quarantine_copy(dir.as_mut(), &qname, damaged) {
                Ok(()) => {
                    *quarantine_seq += 1;
                    report.quarantines += 1;
                    metrics.quarantines.inc();
                }
                Err(e) => {
                    // Evidence could not be preserved; leave the
                    // damaged original untouched and cover it with a
                    // checkpoint instead of overwriting it.
                    report
                        .findings
                        .push(format!("{name}: quarantine failed: {e}"));
                    drop(dir);
                    merge_recheckpoint(recheckpoint_past, end);
                    return;
                }
            }
        }
        match write_atomic(dir.as_mut(), name, &rebuilt) {
            Ok(()) => {
                report.repairs += 1;
                metrics.repairs.inc();
                bmb_obs::events().emit(
                    Severity::Info,
                    "scrub: segment repaired",
                    &[("artifact", name), ("source", source)],
                );
            }
            Err(e) => {
                report.findings.push(format!("{name}: repair failed: {e}"));
                drop(dir);
                merge_recheckpoint(recheckpoint_past, end);
            }
        }
    }
}

/// Escalation when an in-place repair is impossible.
enum RepairFallback {
    /// Degrade the store loudly with this reason.
    Degrade(&'static str),
    /// Cut a fresh checkpoint at or past this epoch so recovery no
    /// longer needs the damaged artifact.
    Recheckpoint(u64),
}

/// Folds a new re-checkpoint target into the pass-wide maximum.
fn merge_recheckpoint(target: &mut Option<u64>, epoch: u64) {
    *target = Some(target.map_or(epoch, |t| t.max(epoch)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::TMP_SUFFIX;
    use crate::storage::{MemDir, SharedDirState};
    use crate::wal::DurabilityConfig;
    use std::sync::Arc;

    const N_ITEMS: usize = 8;

    fn config() -> StoreConfig {
        StoreConfig {
            segment_capacity: 4,
        }
    }

    fn durability() -> DurabilityConfig {
        DurabilityConfig {
            segment_bytes: 64,
            retain_checkpoints: 2,
        }
    }

    /// Opens a directory-mode store over shared in-memory media and
    /// returns the store plus the media handle.
    fn open_store() -> (DurableStore, SharedDirState) {
        let media = MemDir::new();
        let state = media.state();
        let (store, _) = DurableStore::open_dir(Box::new(media), N_ITEMS, config(), durability())
            .expect("open_dir");
        (store, state)
    }

    /// Appends `n` canonical single-basket records.
    fn ingest(store: &DurableStore, n: u64) {
        for i in 0..n {
            store
                .append_ids([(i % 3) as u32, 3 + (i % 5) as u32])
                .expect("append");
        }
    }

    fn read_file(state: &SharedDirState, name: &str) -> Vec<u8> {
        let mut dir = MemDir::with_state(Arc::clone(state));
        let mut file = dir.open(name).expect("open file");
        file.read_all().expect("read file")
    }

    fn flip_byte(state: &SharedDirState, name: &str, offset: usize) {
        let mut dir = MemDir::with_state(Arc::clone(state));
        let mut file = dir.open(name).expect("open file");
        let mut bytes = file.read_all().expect("read file");
        bytes[offset] ^= 0xFF;
        file.truncate(0).expect("truncate");
        file.append(&bytes).expect("append");
        file.sync().expect("sync");
    }

    fn list(state: &SharedDirState) -> Vec<String> {
        let mut dir = MemDir::with_state(Arc::clone(state));
        dir.list().expect("list")
    }

    #[test]
    fn clean_store_scrubs_clean_and_fscks_clean() {
        let (store, state) = open_store();
        ingest(&store, 10);
        store.checkpoint().expect("checkpoint");
        // Keep sealed segments past the checkpoint so the pass walks
        // every artifact kind (retention reclaims covered segments).
        ingest(&store, 8);
        let report = store.scrub_pass(None, &ScrubOptions::default());
        assert!(report.complete);
        assert_eq!(report.corruptions, 0);
        assert_eq!(report.repairs, 0);
        assert!(
            report.artifacts_scanned >= 3,
            "GEN absent but MANIFEST, ckpt, segments scanned"
        );
        assert!(report.bytes_scanned > 0);
        let mut dir = MemDir::with_state(Arc::clone(&state));
        let fsck = fsck_dir(&mut dir).expect("fsck");
        assert!(fsck.is_clean(), "findings: {:?}", fsck.findings);
    }

    #[test]
    fn rebuild_segment_bytes_matches_pristine_media() {
        let (store, state) = open_store();
        ingest(&store, 12); // capacity 4, tiny segment_bytes → several sealed segments
        let ranges = store.sealed_segment_ranges();
        assert!(!ranges.is_empty(), "need at least one sealed segment");
        let snapshot = store.store().snapshot();
        for (meta, end) in ranges {
            let pristine = read_file(&state, &segment_name(meta.index));
            let baskets = snapshot.baskets_range(meta.base_epoch, end);
            let rebuilt =
                rebuild_segment_bytes(meta.base_epoch, &baskets, store.segment_capacity());
            assert_eq!(rebuilt, pristine, "segment {} image differs", meta.index);
        }
    }

    #[test]
    fn corrupt_segment_is_detected_quarantined_and_repaired_byte_identical() {
        let (store, state) = open_store();
        ingest(&store, 12);
        let name = segment_name(0);
        let pristine = read_file(&state, &name);
        flip_byte(&state, &name, pristine.len() - 3); // damage a record body
        let report = store.scrub_pass(None, &ScrubOptions::default());
        assert_eq!(report.corruptions, 1, "findings: {:?}", report.findings);
        assert_eq!(report.repairs, 1);
        assert_eq!(report.quarantines, 1);
        assert!(!report.degraded);
        assert_eq!(
            read_file(&state, &name),
            pristine,
            "repair must be byte-identical"
        );
        let names = list(&state);
        assert!(
            names
                .iter()
                .any(|n| n.starts_with(QUARANTINE_PREFIX) && n.ends_with(&name)),
            "evidence file missing: {names:?}"
        );
        // A second pass sees a healthy store again.
        let again = store.scrub_pass(None, &ScrubOptions::default());
        assert_eq!(again.corruptions, 0);
        assert!(store.is_healthy());
    }

    #[test]
    fn corrupt_checkpoint_and_manifest_are_repaired_byte_identical() {
        let (store, state) = open_store();
        ingest(&store, 9);
        store.checkpoint().expect("checkpoint");
        let ckpt_name = checkpoint_name(9);
        let pristine_ckpt = read_file(&state, &ckpt_name);
        let pristine_manifest = read_file(&state, MANIFEST_NAME);
        flip_byte(&state, &ckpt_name, 40);
        flip_byte(&state, MANIFEST_NAME, 9);
        let report = store.scrub_pass(None, &ScrubOptions::default());
        assert_eq!(report.corruptions, 2, "findings: {:?}", report.findings);
        assert_eq!(report.repairs, 2);
        assert_eq!(report.quarantines, 2);
        assert_eq!(read_file(&state, &ckpt_name), pristine_ckpt);
        assert_eq!(read_file(&state, MANIFEST_NAME), pristine_manifest);
    }

    #[test]
    fn corrupt_generation_record_is_repaired() {
        let (store, state) = open_store();
        store.set_generation(7).expect("set generation");
        ingest(&store, 4);
        let pristine = read_file(&state, GEN_NAME);
        flip_byte(&state, GEN_NAME, 10);
        let report = store.scrub_pass(None, &ScrubOptions::default());
        assert_eq!(report.corruptions, 1);
        assert_eq!(report.repairs, 1);
        assert_eq!(read_file(&state, GEN_NAME), pristine);
        assert_eq!(store.generation(), 7);
    }

    #[test]
    fn byte_budget_paces_and_resumes() {
        let (store, state) = open_store();
        ingest(&store, 12);
        store.checkpoint().expect("checkpoint");
        let first = store.scrub_pass(
            None,
            &ScrubOptions {
                max_bytes: Some(1),
                resume_after: None,
            },
        );
        assert!(!first.complete);
        assert_eq!(
            first.artifacts_scanned, 1,
            "budget floor is one artifact per tick"
        );
        let cursor = first.resume_after.clone().expect("cursor");
        // Drain the rest of the list tick by tick.
        let mut ticks = 0;
        let mut resume = Some(cursor);
        let mut scanned = first.artifacts_scanned;
        while ticks < 32 {
            let next = store.scrub_pass(
                None,
                &ScrubOptions {
                    max_bytes: Some(1),
                    resume_after: resume.clone(),
                },
            );
            scanned += next.artifacts_scanned;
            if next.complete {
                break;
            }
            resume = next.resume_after.clone();
            ticks += 1;
        }
        let full = store.scrub_pass(None, &ScrubOptions::default());
        assert!(full.complete);
        assert_eq!(
            scanned, full.artifacts_scanned,
            "paced ticks must cover the full list"
        );
        drop(state);
    }

    /// A peer that serves ranges from its own durable store, refusing
    /// stale generations — the in-process model of `replicate_pull`.
    struct StorePeer {
        store: DurableStore,
        generation: u64,
        calls: u64,
    }

    impl RepairPeer for StorePeer {
        fn fetch_range(
            &mut self,
            after_epoch: u64,
            max_baskets: usize,
            generation: u64,
        ) -> Result<Vec<Vec<ItemId>>, PeerError> {
            self.calls += 1;
            if generation < self.generation {
                return Err(PeerError::Fenced {
                    peer_generation: self.generation,
                });
            }
            Ok(self
                .store
                .snapshot()
                .baskets_range(after_epoch, after_epoch + max_baskets as u64))
        }
    }

    #[test]
    fn segment_repair_prefers_configured_peer() {
        let (store, state) = open_store();
        ingest(&store, 12);
        let (peer_store, _peer_state) = open_store();
        ingest(&peer_store, 12); // identical logical history
        let mut peer = StorePeer {
            store: peer_store,
            generation: 1,
            calls: 0,
        };
        let name = segment_name(0);
        let pristine = read_file(&state, &name);
        flip_byte(&state, &name, 20);
        let report = store.scrub_pass(Some(&mut peer), &ScrubOptions::default());
        assert_eq!(report.corruptions, 1);
        assert_eq!(report.repairs, 1);
        assert!(peer.calls > 0, "peer must be consulted");
        assert_eq!(read_file(&state, &name), pristine);
    }

    #[test]
    fn fenced_peer_falls_back_to_local_repair() {
        let (store, state) = open_store();
        ingest(&store, 12);
        let (peer_store, _peer_state) = open_store();
        ingest(&peer_store, 12);
        let mut peer = StorePeer {
            store: peer_store,
            generation: 99, // newer than ours: fences every fetch
            calls: 0,
        };
        let name = segment_name(0);
        let pristine = read_file(&state, &name);
        flip_byte(&state, &name, 20);
        let report = store.scrub_pass(Some(&mut peer), &ScrubOptions::default());
        assert_eq!(report.corruptions, 1);
        assert_eq!(report.repairs, 1, "local fallback must still repair");
        assert!(peer.calls > 0);
        assert!(
            report.findings.iter().any(|f| f.contains("fenced")),
            "findings must surface the fence: {:?}",
            report.findings
        );
        assert_eq!(read_file(&state, &name), pristine);
    }

    #[test]
    fn fsck_flags_every_artifact_kind() {
        let (store, state) = open_store();
        store.set_generation(3).expect("set generation");
        ingest(&store, 9);
        store.checkpoint().expect("checkpoint");
        ingest(&store, 6); // seal fresh segments retention will not reclaim
        let surviving = store
            .sealed_segment_ranges()
            .last()
            .map(|(meta, _)| segment_name(meta.index))
            .expect("a sealed segment past the checkpoint");
        for name in [
            GEN_NAME.to_string(),
            MANIFEST_NAME.to_string(),
            checkpoint_name(9),
            surviving,
        ] {
            let bytes = read_file(&state, &name);
            flip_byte(&state, &name, bytes.len() / 2);
            let mut dir = MemDir::with_state(Arc::clone(&state));
            let fsck = fsck_dir(&mut dir).expect("fsck");
            assert!(
                fsck.findings.iter().any(|f| f.name == name),
                "fsck missed damage in {name}: {:?}",
                fsck.findings
            );
            flip_byte(&state, &name, bytes.len() / 2); // restore
        }
        let mut dir = MemDir::with_state(Arc::clone(&state));
        assert!(fsck_dir(&mut dir).expect("fsck").is_clean());
    }

    #[test]
    fn digests_agree_across_replicas_and_catch_divergence() {
        let (a, _sa) = open_store();
        let (b, _sb) = open_store();
        ingest(&a, 11);
        ingest(&b, 11);
        let da = segment_digests(&a.snapshot(), 0);
        let db = segment_digests(&b.snapshot(), 0);
        assert_eq!(da, db);
        assert_eq!(da.len(), 2, "11 baskets at capacity 4 seal two segments");
        // from_epoch skips fully-covered segments.
        assert_eq!(segment_digests(&a.snapshot(), 4).len(), 1);
        // Divergent content produces a different digest.
        let (c, _sc) = open_store();
        for i in 0..11u32 {
            c.append_ids([i % 2]).expect("append");
        }
        let dc = segment_digests(&c.snapshot(), 0);
        assert_ne!(da, dc);
    }

    #[test]
    fn degrade_path_fails_appends_loudly() {
        let (store, _state) = open_store();
        ingest(&store, 2);
        store.mark_degraded("test degrade");
        assert!(!store.is_healthy());
        assert!(store.append_ids([1u32]).is_err());
    }

    #[test]
    fn quarantine_names_do_not_parse_as_artifacts() {
        let q = quarantine_name(3, &segment_name(0));
        assert_eq!(parse_segment_name(&q), None);
        let q = quarantine_name(0, &checkpoint_name(42));
        assert_eq!(parse_checkpoint_name(&q), None);
        assert!(!q.ends_with(TMP_SUFFIX));
    }
}
