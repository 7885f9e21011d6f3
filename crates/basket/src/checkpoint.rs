//! Checkpoint snapshots and the checkpoint manifest.
//!
//! A checkpoint bounds recovery: instead of replaying the write-ahead
//! log from byte zero, [`crate::wal::DurableStore::open_dir`] loads the
//! newest *valid* snapshot file and replays only the WAL records after
//! its epoch. This module owns the two on-media formats and their
//! validation; the protocol that writes them crash-safely lives in
//! [`crate::wal`].
//!
//! # Snapshot format (`ckpt.<epoch>`)
//!
//! ```text
//! magic   b"BMBCKPT1"                                   (8 bytes)
//! epoch   u64le      — store epoch == total baskets     (8)
//! k       u32le      — item-space size                  (4)
//! cap     u32le      — segment capacity                 (4)
//! n       u64le      — basket count (must equal epoch)  (8)
//! baskets (m:u32le  id:u32le{m}) × n  — ingest order
//! crc     u32le      — CRC-32 of every preceding byte   (4)
//! ```
//!
//! Baskets are stored in ingest order; restoring re-appends them into a
//! fresh [`crate::IncrementalStore`], and because segment structure is a
//! pure function of capacity and basket order, the rebuilt store (and
//! every chi-squared / border answer over it) is bit-identical to the
//! store the snapshot was taken from.
//!
//! # Manifest format (`MANIFEST`)
//!
//! ```text
//! magic   b"BMBMAN1\n"              (8 bytes)
//! n       u32le                     (4)
//! epoch   u64le × n  — ascending    (8 each)
//! crc     u32le      — CRC-32 of every preceding byte
//! ```
//!
//! The manifest lists the checkpoint epochs believed durable, newest
//! last. Recovery tries them newest-first (then any snapshot files the
//! manifest missed); retention treats only the *oldest retained* entry
//! as the epoch WAL segments may be deleted under, so a corrupted
//! newest checkpoint always leaves an older one with its WAL suffix
//! intact to fall back to.
//!
//! Every file is written via create-temp → write → fsync → atomic
//! rename → fsync-directory, so a crash at any point leaves either the
//! old file, the new file, or a stray `*.tmp` that recovery deletes —
//! never a half-visible checkpoint.

use std::io;

use crate::item::ItemId;
use crate::record::crc32;
use crate::segment::Snapshot;
use crate::storage::Dir;

/// Magic bytes opening every checkpoint snapshot file (versioned).
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"BMBCKPT1";

/// Magic bytes opening the checkpoint manifest (versioned).
pub const MANIFEST_MAGIC: &[u8; 8] = b"BMBMAN1\n";

/// Name of the manifest file inside a durability directory.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Suffix of in-flight atomic writes; recovery deletes stray matches.
pub const TMP_SUFFIX: &str = ".tmp";

/// The file name of the checkpoint at `epoch` (zero-padded so
/// lexicographic order is epoch order).
pub fn checkpoint_name(epoch: u64) -> String {
    format!("ckpt.{epoch:020}")
}

/// Parses a [`checkpoint_name`]-shaped file name back to its epoch.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("ckpt.")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Serializes a store snapshot to the checkpoint format.
///
/// `segment_capacity` is recorded so recovery can reject a snapshot
/// taken under a different sealing geometry (its rebuilt segments would
/// not match the WAL's epoch fences).
pub fn encode_snapshot(snap: &Snapshot, segment_capacity: usize) -> Vec<u8> {
    let n_items_total: usize = snap
        .segments()
        .map(|s| s.database().baskets().map(<[ItemId]>::len).sum::<usize>())
        .sum();
    let mut out = Vec::with_capacity(36 + 4 * snap.n_baskets() + 4 * n_items_total);
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&snap.epoch().to_le_bytes());
    out.extend_from_slice(&(snap.n_items() as u32).to_le_bytes());
    out.extend_from_slice(&(segment_capacity as u32).to_le_bytes());
    out.extend_from_slice(&(snap.n_baskets() as u64).to_le_bytes());
    for segment in snap.segments() {
        for basket in segment.database().baskets() {
            out.extend_from_slice(&(basket.len() as u32).to_le_bytes());
            for item in basket {
                out.extend_from_slice(&item.0.to_le_bytes());
            }
        }
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A decoded, validated checkpoint.
#[derive(Debug)]
pub struct CheckpointData {
    /// The store epoch the snapshot was taken at.
    pub epoch: u64,
    /// Every basket up to that epoch, in ingest order.
    pub baskets: Vec<Vec<ItemId>>,
}

/// Decodes and validates a checkpoint file.
///
/// Returns `None` — never panics, never a partial result — when the
/// bytes are not a checkpoint this store can restore: wrong magic or
/// version, failed CRC, a different item space or segment capacity, an
/// epoch/basket-count mismatch, an out-of-range item id, or trailing
/// garbage. Recovery treats `None` as "try the next-older candidate".
pub fn decode_checkpoint(
    bytes: &[u8],
    n_items: usize,
    segment_capacity: usize,
) -> Option<CheckpointData> {
    if bytes.len() < 36 || &bytes[..8] != CHECKPOINT_MAGIC {
        return None;
    }
    let body_end = bytes.len() - 4;
    let crc = u32::from_le_bytes(bytes[body_end..].try_into().ok()?);
    if crc32(&bytes[..body_end]) != crc {
        return None;
    }
    let epoch = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    let k = u32::from_le_bytes(bytes[16..20].try_into().ok()?);
    let cap = u32::from_le_bytes(bytes[20..24].try_into().ok()?);
    let n = u64::from_le_bytes(bytes[24..32].try_into().ok()?);
    if k as usize != n_items || cap as usize != segment_capacity || n != epoch {
        return None;
    }
    let body = &bytes[32..body_end];
    let mut pos = 0usize;
    // Capacity hints are clamped by the body size so a corrupt count
    // that slipped past the CRC cannot drive a huge allocation.
    let cap_bound = body.len() / 4;
    let mut baskets = Vec::with_capacity(usize::try_from(n).ok()?.min(cap_bound));
    for _ in 0..n {
        let m = u32::from_le_bytes(body.get(pos..pos + 4)?.try_into().ok()?) as usize;
        pos += 4;
        let mut basket = Vec::with_capacity(m.min(cap_bound));
        for _ in 0..m {
            let id = u32::from_le_bytes(body.get(pos..pos + 4)?.try_into().ok()?);
            pos += 4;
            if id as usize >= n_items {
                return None;
            }
            basket.push(ItemId(id));
        }
        baskets.push(basket);
    }
    if pos != body.len() {
        return None;
    }
    Some(CheckpointData { epoch, baskets })
}

/// Serializes the manifest: checkpoint epochs, ascending.
pub fn encode_manifest(epochs: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(16 + 8 * epochs.len());
    out.extend_from_slice(MANIFEST_MAGIC);
    out.extend_from_slice(&(epochs.len() as u32).to_le_bytes());
    for &epoch in epochs {
        out.extend_from_slice(&epoch.to_le_bytes());
    }
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Decodes and validates the manifest; `None` on any damage (recovery
/// then falls back to scanning the directory for snapshot files).
pub fn decode_manifest(bytes: &[u8]) -> Option<Vec<u64>> {
    if bytes.len() < 16 || &bytes[..8] != MANIFEST_MAGIC {
        return None;
    }
    let body_end = bytes.len() - 4;
    let crc = u32::from_le_bytes(bytes[body_end..].try_into().ok()?);
    if crc32(&bytes[..body_end]) != crc {
        return None;
    }
    let n = u32::from_le_bytes(bytes[8..12].try_into().ok()?) as usize;
    let body = &bytes[12..body_end];
    if body.len() != 8 * n {
        return None;
    }
    let epochs: Vec<u64> = body
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]))
        .collect();
    if epochs.windows(2).any(|w| w[0] >= w[1]) {
        return None; // must be strictly ascending
    }
    Some(epochs)
}

/// Writes `bytes` as `name` atomically: create `name.tmp`, write, fsync
/// the file, rename over `name`, fsync the directory. On error a stray
/// temp file may remain; the caller (and recovery) deletes `*.tmp`
/// leftovers best-effort.
///
/// # Errors
///
/// Propagates the first failing step; `name` is then either absent, the
/// old file, or (only after every step succeeded) the new bytes.
pub fn write_atomic(dir: &mut dyn Dir, name: &str, bytes: &[u8]) -> io::Result<()> {
    let tmp = format!("{name}{TMP_SUFFIX}");
    let result = (|| {
        let mut file = dir.create(&tmp)?;
        file.append(bytes)?;
        file.sync()?;
        dir.rename(&tmp, name)?;
        dir.sync()
    })();
    if result.is_err() {
        // Best effort: the stray temp is harmless (recovery deletes it),
        // but tidy up when the media still lets us.
        let _ = dir.delete(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{IncrementalStore, StoreConfig};
    use crate::storage::MemDir;
    use crate::Itemset;

    fn store_with(n: u64) -> IncrementalStore {
        let store = IncrementalStore::new(
            8,
            StoreConfig {
                segment_capacity: 4,
            },
        );
        for i in 0..n {
            store
                .append_ids([(i % 8) as u32, ((i + 3) % 8) as u32])
                .unwrap();
        }
        store
    }

    #[test]
    fn checkpoint_names_round_trip() {
        assert_eq!(checkpoint_name(17), "ckpt.00000000000000000017");
        assert_eq!(parse_checkpoint_name("ckpt.00000000000000000017"), Some(17));
        assert_eq!(
            parse_checkpoint_name(&checkpoint_name(u64::MAX)),
            Some(u64::MAX)
        );
        assert_eq!(parse_checkpoint_name("ckpt.17"), None, "unpadded");
        assert_eq!(parse_checkpoint_name("wal.000001"), None);
        assert_eq!(parse_checkpoint_name("ckpt.0000000000000000001x"), None);
        assert_eq!(parse_checkpoint_name("ckpt.00000000000000000017.tmp"), None);
    }

    #[test]
    fn snapshot_round_trips_bit_identically() {
        let store = store_with(11);
        let snap = store.snapshot();
        let bytes = encode_snapshot(&snap, 4);
        let data = decode_checkpoint(&bytes, 8, 4).expect("valid checkpoint");
        assert_eq!(data.epoch, 11);
        assert_eq!(data.baskets.len(), 11);

        // Restoring by re-append reproduces the exact segment structure.
        let restored = IncrementalStore::new(
            8,
            StoreConfig {
                segment_capacity: 4,
            },
        );
        restored.append_batch(data.baskets).unwrap();
        let rsnap = restored.snapshot();
        assert_eq!(rsnap.epoch(), snap.epoch());
        assert_eq!(rsnap.sealed_segments().len(), snap.sealed_segments().len());
        for (a, b) in rsnap.sealed_segments().iter().zip(snap.sealed_segments()) {
            assert_eq!(a.id(), b.id());
            assert_eq!(a.len(), b.len());
        }
        for i in 0..8u32 {
            let set = Itemset::from_ids([i]);
            assert_eq!(rsnap.support(set.items()), snap.support(set.items()));
        }
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let store = store_with(0);
        let bytes = encode_snapshot(&store.snapshot(), 4);
        let data = decode_checkpoint(&bytes, 8, 4).expect("valid");
        assert_eq!(data.epoch, 0);
        assert!(data.baskets.is_empty());
    }

    #[test]
    fn damaged_checkpoints_are_rejected() {
        let store = store_with(6);
        let bytes = encode_snapshot(&store.snapshot(), 4);
        assert!(decode_checkpoint(&bytes, 8, 4).is_some(), "baseline valid");

        // Any single bit flip fails the CRC (or the magic check).
        for idx in [0usize, 9, 20, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x40;
            assert!(
                decode_checkpoint(&bad, 8, 4).is_none(),
                "flip at {idx} must invalidate"
            );
        }
        // Truncation fails.
        assert!(decode_checkpoint(&bytes[..bytes.len() - 5], 8, 4).is_none());
        assert!(decode_checkpoint(&bytes[..10], 8, 4).is_none());
        assert!(decode_checkpoint(b"", 8, 4).is_none());
        // Mismatched geometry fails even with an intact CRC.
        assert!(decode_checkpoint(&bytes, 9, 4).is_none(), "item space");
        assert!(decode_checkpoint(&bytes, 8, 5).is_none(), "capacity");
    }

    #[test]
    fn manifest_round_trips_and_rejects_damage() {
        let epochs = vec![100, 250, 4096];
        let bytes = encode_manifest(&epochs);
        assert_eq!(decode_manifest(&bytes), Some(epochs));
        assert_eq!(decode_manifest(&encode_manifest(&[])), Some(vec![]));

        let mut bad = encode_manifest(&[1, 2]);
        bad[10] ^= 0x01;
        assert!(decode_manifest(&bad).is_none(), "bit flip");
        let good = encode_manifest(&[1, 2]);
        assert!(decode_manifest(&good[..good.len() - 2]).is_none(), "torn");
        assert!(decode_manifest(b"BMBMAN1\n").is_none(), "header only");
        // Non-ascending epochs are structural damage.
        let mut out = Vec::new();
        out.extend_from_slice(MANIFEST_MAGIC);
        out.extend_from_slice(&2u32.to_le_bytes());
        out.extend_from_slice(&5u64.to_le_bytes());
        out.extend_from_slice(&5u64.to_le_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        assert!(decode_manifest(&out).is_none());
    }

    #[test]
    fn write_atomic_replaces_and_cleans_temp() {
        let mut dir = MemDir::new();
        write_atomic(&mut dir, "f", b"one").unwrap();
        assert_eq!(dir.open("f").unwrap().read_all().unwrap(), b"one");
        write_atomic(&mut dir, "f", b"two").unwrap();
        assert_eq!(dir.open("f").unwrap().read_all().unwrap(), b"two");
        let names = dir.list().unwrap();
        assert_eq!(names, vec!["f".to_string()], "no stray temp: {names:?}");
    }

    #[test]
    fn write_atomic_failure_leaves_old_file_intact() {
        use crate::storage::{DirFaultPlan, FaultDir};
        let mut dir = FaultDir::new(DirFaultPlan {
            fail_rename_at: Some(1), // the *second* atomic write fails
            ..DirFaultPlan::default()
        });
        write_atomic(&mut dir, "f", b"old").unwrap();
        assert!(write_atomic(&mut dir, "f", b"new").is_err());
        assert_eq!(
            dir.open("f").unwrap().read_all().unwrap(),
            b"old",
            "failed rename must not damage the target"
        );
        assert_eq!(dir.list().unwrap(), vec!["f".to_string()], "temp cleaned");
    }
}
