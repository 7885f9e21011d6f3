//! Checkpoint snapshots, sealed segment files and the checkpoint
//! manifest.
//!
//! A checkpoint bounds recovery: instead of replaying the write-ahead
//! log from byte zero, [`crate::wal::DurableStore::open_dir`] loads the
//! newest *valid* checkpoint and replays only the WAL records after its
//! epoch. This module owns the on-media formats and their validation;
//! the protocol that writes them crash-safely lives in [`crate::wal`].
//!
//! # Sealed segment files (`sealed.<id>.<copy>`)
//!
//! A sealed store segment never changes, so it is written to media
//! once, at the first checkpoint after it seals, as two identical
//! copies (`copy` 0 and 1):
//!
//! ```text
//! magic   b"BMBSEG1\n"                                  (8 bytes)
//! segment u64le      — sealed segment id                (8)
//! k       u32le      — item-space size                  (4)
//! n       u32le      — basket count (= capacity)        (4)
//! hcrc    u32le      — CRC-32 of the 24 bytes above     (4)
//! body    (m:u32le  id:u32le{m}) × n  — ingest order
//! crc     u32le      — CRC-32 of the body               (4)
//! ```
//!
//! The body is [`crate::record::encode_baskets`], so `crc` equals the segment's
//! anti-entropy [`crate::scrub::SegmentDigest::crc`].
//!
//! # Snapshot format (`ckpt.<epoch>`)
//!
//! ```text
//! magic   b"BMBCKPT2"                                   (8 bytes)
//! epoch   u64le      — store epoch == total baskets     (8)
//! k       u32le      — item-space size                  (4)
//! cap     u32le      — segment capacity                 (4)
//! s       u64le      — segment files named (epoch/cap)  (8)
//! crcs    u32le × s  — body CRC of files 0..s           (4 each)
//! t       u32le      — tail baskets (epoch − s·cap)     (4)
//! tail    (m:u32le  id:u32le{m}) × t  — ingest order
//! crc     u32le      — CRC-32 of every preceding byte   (4)
//! ```
//!
//! Restoring re-appends segment files `0..s`, then the tail, into a
//! fresh [`crate::IncrementalStore`]; because segment structure is a
//! pure function of capacity and basket order, the rebuilt store (and
//! every chi-squared / border answer over it) is bit-identical to the
//! store the snapshot was taken from. The whole-store v1 format
//! (`b"BMBCKPT1"`, epoch, k, cap, `n:u64le`, every basket, CRC) is
//! still decoded, as a checkpoint that names no segment files.
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
//! never a half-visible checkpoint. Segment files are written before
//! the checkpoint that names them.

use std::io;

use crate::item::ItemId;
use crate::record::{crc32, decode_baskets, encode_baskets};
use crate::segment::Segment;
use crate::storage::Dir;

/// Magic bytes opening every checkpoint snapshot file written now.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"BMBCKPT2";

/// Magic bytes of the whole-store v1 snapshot (read, never written).
pub const CHECKPOINT_V1_MAGIC: &[u8; 8] = b"BMBCKPT1";

/// Magic bytes opening every sealed segment file.
pub const SEALED_MAGIC: &[u8; 8] = b"BMBSEG1\n";

/// Byte length of a sealed segment file's header (through `hcrc`).
const SEALED_HEADER_LEN: usize = 28;

/// Identical copies written of every sealed segment file.
pub const SEALED_COPIES: u8 = 2;

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

/// The file name of copy `copy` of sealed segment `id`.
pub fn sealed_name(id: u64, copy: u8) -> String {
    format!("sealed.{id:010}.{copy}")
}

/// Parses a [`sealed_name`]-shaped file name back to its segment id and
/// copy.
pub fn parse_sealed_name(name: &str) -> Option<(u64, u8)> {
    let (digits, copy) = name.strip_prefix("sealed.")?.split_once('.')?;
    if digits.len() != 10 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    let copy = match copy {
        "0" => 0,
        "1" => 1,
        _ => return None,
    };
    Some((digits.parse().ok()?, copy))
}

/// An encoded sealed segment file.
pub struct SealedFile {
    /// The whole file.
    pub bytes: Vec<u8>,
    /// CRC-32 of the body: what a checkpoint names the file by.
    pub crc: u32,
}

/// Encodes `segment` (a sealed segment of a store over `n_items` items)
/// as a sealed segment file.
pub fn encode_sealed(segment: &Segment, n_items: usize) -> SealedFile {
    let items: usize = segment.database().baskets().map(<[ItemId]>::len).sum();
    let mut bytes = Vec::with_capacity(SEALED_HEADER_LEN + 4 * segment.len() + 4 * items + 4);
    bytes.extend_from_slice(SEALED_MAGIC);
    bytes.extend_from_slice(&segment.id().to_le_bytes());
    bytes.extend_from_slice(&(n_items as u32).to_le_bytes());
    bytes.extend_from_slice(&(segment.len() as u32).to_le_bytes());
    let hcrc = crc32(&bytes);
    bytes.extend_from_slice(&hcrc.to_le_bytes());
    encode_baskets(&mut bytes, segment.database().baskets());
    let crc = crc32(&bytes[SEALED_HEADER_LEN..]);
    bytes.extend_from_slice(&crc.to_le_bytes());
    SealedFile { bytes, crc }
}

/// A decoded, structurally valid sealed segment file.
#[derive(Debug)]
pub struct SealedData {
    /// The segment id the header names.
    pub id: u64,
    /// The item-space size the header names.
    pub n_items: usize,
    /// CRC-32 of the body.
    pub crc: u32,
    /// The segment's baskets, in ingest order.
    pub baskets: Vec<Vec<ItemId>>,
}

/// Decodes and validates a sealed segment file on its own terms: magic,
/// header CRC, body CRC, every id inside the header's item space, and
/// exact byte consumption. Whether it is the file a checkpoint expects
/// (id, CRC, geometry) is the caller's check.
///
/// # Errors
///
/// A one-line damage description.
pub fn decode_sealed(bytes: &[u8]) -> Result<SealedData, String> {
    if bytes.len() < SEALED_HEADER_LEN + 4 {
        return Err(format!("truncated segment file ({} bytes)", bytes.len()));
    }
    if &bytes[..8] != SEALED_MAGIC {
        return Err("bad segment file magic".to_string());
    }
    if crc32(&bytes[..24]) != read_u32(bytes, 24) {
        return Err("segment file header CRC mismatch".to_string());
    }
    let body_end = bytes.len() - 4;
    let body = &bytes[SEALED_HEADER_LEN..body_end];
    let (stored, crc) = (read_u32(bytes, body_end), crc32(body));
    if stored != crc {
        return Err(format!(
            "segment file CRC mismatch (stored {stored:#010x}, computed {crc:#010x})"
        ));
    }
    let n_items = read_u32(bytes, 16) as usize;
    let n = read_u32(bytes, 20);
    match decode_baskets(body, u64::from(n), Some(n_items)) {
        Some((baskets, used)) if used == body.len() => Ok(SealedData {
            id: read_u64(bytes, 8),
            n_items,
            crc,
            baskets,
        }),
        Some(_) => Err("trailing bytes after the basket table".to_string()),
        None => Err("basket table truncated or names an out-of-range item".to_string()),
    }
}

/// Decodes one copy of sealed segment file `id` as a checkpoint naming
/// it expects it: a structurally valid file ([`decode_sealed`])
/// carrying that id, body CRC `crc`, item space `n_items` and
/// `capacity` baskets. Returns the baskets.
///
/// # Errors
///
/// A one-line damage description.
pub fn verify_sealed_bytes(
    bytes: &[u8],
    id: u64,
    crc: u32,
    n_items: usize,
    capacity: usize,
) -> Result<Vec<Vec<ItemId>>, String> {
    let data = decode_sealed(bytes)?;
    if data.id != id {
        return Err(format!("names segment {} instead of {id}", data.id));
    }
    if data.crc != crc {
        return Err(format!(
            "body CRC {:#010x} is not the {crc:#010x} the checkpoint names",
            data.crc
        ));
    }
    if data.n_items != n_items || data.baskets.len() != capacity {
        return Err(format!(
            "holds {} baskets over {} items, expected {capacity} over {n_items}",
            data.baskets.len(),
            data.n_items
        ));
    }
    Ok(data.baskets)
}

/// Structurally verifies checkpoint bytes against the epoch its file
/// name claims, and — when the store geometry is known — against the
/// expected item-space size and segment capacity. Walks the basket
/// table to the exact end of the body, so truncation and padding are
/// caught even when the CRC was forged along with the data. Returns
/// the decoded checkpoint, whose segment list names the sealed segment
/// files it needs. This is the one acceptance rule: recovery's ladder
/// (with the store's geometry), scrub and fsck all judge a checkpoint
/// by it.
///
/// # Errors
///
/// A one-line damage description.
pub fn verify_checkpoint_bytes(
    name_epoch: u64,
    bytes: &[u8],
    geometry: Option<(usize, usize)>,
) -> Result<CheckpointData, String> {
    let data = decode_checkpoint(bytes)?;
    if data.epoch != name_epoch {
        return Err(format!(
            "epoch field {} disagrees with file name epoch {name_epoch}",
            data.epoch
        ));
    }
    if let Some((n_items, capacity)) = geometry {
        if data.n_items != n_items {
            return Err(format!(
                "item space {} disagrees with store geometry {n_items}",
                data.n_items
            ));
        }
        if data.segment_capacity != capacity {
            return Err(format!(
                "segment capacity {} disagrees with store geometry {capacity}",
                data.segment_capacity
            ));
        }
    }
    Ok(data)
}

/// Reads sealed segment `id` for a checkpoint naming it with body CRC
/// `crc`: copy 0, and copy 1 only when copy 0 is missing or fails. Returns
/// the baskets and whether copy 0 served them; `None` when both fail.
pub(crate) fn read_sealed(
    dir: &mut dyn Dir,
    id: u64,
    crc: u32,
    n_items: usize,
    cap: usize,
) -> Option<(Vec<Vec<ItemId>>, bool)> {
    (0..SEALED_COPIES).find_map(|copy| {
        let bytes = dir.open(&sealed_name(id, copy)).ok()?.read_all().ok()?;
        let baskets = verify_sealed_bytes(&bytes, id, crc, n_items, cap).ok()?;
        Some((baskets, copy == 0))
    })
}

/// Serializes a checkpoint at `epoch`: the body CRCs of the sealed
/// segment files `0..segments.len()` it names, then the `tail` baskets
/// past them.
///
/// `segment_capacity` is recorded so recovery can reject a snapshot
/// taken under a different sealing geometry (its rebuilt segments would
/// not match the WAL's epoch fences).
pub fn encode_checkpoint<'a>(
    epoch: u64,
    n_items: usize,
    segment_capacity: usize,
    segments: &[u32],
    tail: impl IntoIterator<Item = &'a [ItemId]>,
) -> Vec<u8> {
    let t = epoch - (segments.len() * segment_capacity) as u64;
    let mut out = Vec::with_capacity(44 + 4 * segments.len());
    out.extend_from_slice(CHECKPOINT_MAGIC);
    out.extend_from_slice(&epoch.to_le_bytes());
    out.extend_from_slice(&(n_items as u32).to_le_bytes());
    out.extend_from_slice(&(segment_capacity as u32).to_le_bytes());
    out.extend_from_slice(&(segments.len() as u64).to_le_bytes());
    for crc in segments {
        out.extend_from_slice(&crc.to_le_bytes());
    }
    out.extend_from_slice(&(t as u32).to_le_bytes());
    encode_baskets(&mut out, tail);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// A decoded, structurally valid checkpoint.
#[derive(Debug)]
pub struct CheckpointData {
    /// The store epoch the snapshot was taken at.
    pub epoch: u64,
    /// The item-space size it records.
    pub n_items: usize,
    /// The segment capacity it records.
    pub segment_capacity: usize,
    /// Body CRCs of the sealed segment files `0..` it names (none for a
    /// v1 checkpoint).
    pub segments: Vec<u32>,
    /// The baskets past those files, in ingest order: the tail (v1:
    /// every basket).
    pub baskets: Vec<Vec<ItemId>>,
}

/// Decodes and validates a checkpoint file (v2, or the v1 whole-store
/// format) on its own terms: magic, CRC, a basket count that adds up to
/// the epoch, every id inside the recorded item space, and exact byte
/// consumption. Whether it fits the store (epoch, geometry) is the
/// caller's check; recovery treats any `Err` as "try the next-older
/// candidate".
///
/// # Errors
///
/// A one-line damage description. Never panics, never a partial result.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<CheckpointData, String> {
    let v1 = bytes.get(..8) == Some(CHECKPOINT_V1_MAGIC.as_slice());
    if !v1 && bytes.get(..8) != Some(CHECKPOINT_MAGIC.as_slice()) {
        return Err("bad checkpoint magic".to_string());
    }
    if bytes.len() < 36 {
        return Err(format!("truncated checkpoint ({} bytes)", bytes.len()));
    }
    let body_end = bytes.len() - 4;
    let (stored, actual) = (read_u32(bytes, body_end), crc32(&bytes[..body_end]));
    if stored != actual {
        return Err(format!(
            "checkpoint CRC mismatch (stored {stored:#010x}, computed {actual:#010x})"
        ));
    }
    let epoch = read_u64(bytes, 8);
    let n_items = read_u32(bytes, 16) as usize;
    let segment_capacity = read_u32(bytes, 20) as usize;
    let (segments, n, table) = if v1 {
        (Vec::new(), read_u64(bytes, 24), 32)
    } else {
        let s = read_u64(bytes, 24);
        let tail_at = usize::try_from(s)
            .ok()
            .and_then(|s| s.checked_mul(4))
            .and_then(|len| len.checked_add(32))
            .filter(|&at| at + 4 <= body_end)
            .ok_or_else(|| format!("segment list of {s} entries overruns the file"))?;
        let segments = bytes[32..tail_at]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect::<Vec<u32>>();
        let t = u64::from(read_u32(bytes, tail_at));
        let covered = s.checked_mul(segment_capacity as u64);
        if t >= segment_capacity.max(1) as u64
            || covered.and_then(|c| c.checked_add(t)) != Some(epoch)
        {
            return Err(format!(
                "{s} segment files and a {t}-basket tail do not add up to epoch {epoch}"
            ));
        }
        (segments, t, tail_at + 4)
    };
    if v1 && n != epoch {
        return Err(format!("record count {n} disagrees with epoch {epoch}"));
    }
    let body = &bytes[table..body_end];
    match decode_baskets(body, n, Some(n_items)) {
        Some((baskets, used)) if used == body.len() => Ok(CheckpointData {
            epoch,
            n_items,
            segment_capacity,
            segments,
            baskets,
        }),
        Some((_, used)) => Err(format!(
            "{} trailing bytes after basket table",
            body.len() - used
        )),
        None => Err("basket table truncated or names an out-of-range item".to_string()),
    }
}

/// Little-endian `u32` at `at`; callers bound-check first.
fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

/// Little-endian `u64` at `at`; callers bound-check first.
fn read_u64(bytes: &[u8], at: usize) -> u64 {
    let mut raw = [0u8; 8];
    raw.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(raw)
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
    fn sealed_names_round_trip() {
        assert_eq!(sealed_name(3, 1), "sealed.0000000003.1");
        assert_eq!(parse_sealed_name("sealed.0000000003.1"), Some((3, 1)));
        assert_eq!(
            parse_sealed_name(&sealed_name(u64::from(u32::MAX), 0)).map(|p| p.1),
            Some(0)
        );
        assert_eq!(parse_sealed_name("sealed.0000000003.2"), None, "copy");
        assert_eq!(parse_sealed_name("sealed.3.0"), None, "unpadded");
        assert_eq!(parse_sealed_name("sealed.0000000003.0.tmp"), None);
        assert_eq!(parse_sealed_name(&checkpoint_name(3)), None);
    }

    /// The sealed files and the checkpoint a store at `snap` writes.
    fn encode_all(snap: &crate::Snapshot) -> (Vec<SealedFile>, Vec<u8>) {
        let files: Vec<SealedFile> = snap
            .sealed_segments()
            .iter()
            .map(|s| encode_sealed(s, snap.n_items()))
            .collect();
        let crcs: Vec<u32> = files.iter().map(|f| f.crc).collect();
        let tail = snap.tail_segment().map(|t| t.database().baskets());
        let ckpt = encode_checkpoint(
            snap.epoch(),
            snap.n_items(),
            4,
            &crcs,
            tail.into_iter().flatten(),
        );
        (files, ckpt)
    }

    #[test]
    fn checkpoint_and_segment_files_round_trip_bit_identically() {
        let store = store_with(11);
        let snap = store.snapshot();
        let (files, bytes) = encode_all(&snap);
        let data = decode_checkpoint(&bytes).expect("valid checkpoint");
        assert_eq!(
            (data.epoch, data.n_items, data.segment_capacity),
            (11, 8, 4)
        );
        assert_eq!(data.segments.len(), 2, "11 baskets at capacity 4 seal two");
        assert_eq!(data.baskets.len(), 3, "the tail only");

        // Restoring by re-append reproduces the exact segment structure.
        let restored = IncrementalStore::new(
            8,
            StoreConfig {
                segment_capacity: 4,
            },
        );
        for (id, (file, &crc)) in files.iter().zip(&data.segments).enumerate() {
            let baskets = verify_sealed_bytes(&file.bytes, id as u64, crc, 8, 4).expect("file");
            restored.append_batch(baskets).unwrap();
        }
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
        // A file is only the file a checkpoint expects under its id, CRC
        // and geometry.
        let first = &files[0];
        assert!(
            verify_sealed_bytes(&first.bytes, 1, first.crc, 8, 4).is_err(),
            "id"
        );
        assert!(
            verify_sealed_bytes(&first.bytes, 0, first.crc ^ 1, 8, 4).is_err(),
            "crc"
        );
        assert!(
            verify_sealed_bytes(&first.bytes, 0, first.crc, 9, 4).is_err(),
            "items"
        );
        assert!(
            verify_sealed_bytes(&first.bytes, 0, first.crc, 8, 5).is_err(),
            "capacity"
        );
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let store = store_with(0);
        let (files, bytes) = encode_all(&store.snapshot());
        assert!(files.is_empty());
        let data = decode_checkpoint(&bytes).expect("valid");
        assert_eq!(data.epoch, 0);
        assert!(data.segments.is_empty() && data.baskets.is_empty());
    }

    #[test]
    fn v1_whole_store_checkpoints_still_decode() {
        let store = store_with(6);
        let snap = store.snapshot();
        let mut bytes = Vec::new();
        bytes.extend_from_slice(CHECKPOINT_V1_MAGIC);
        bytes.extend_from_slice(&6u64.to_le_bytes());
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(&4u32.to_le_bytes());
        bytes.extend_from_slice(&6u64.to_le_bytes());
        encode_baskets(
            &mut bytes,
            snap.segments().flat_map(|s| s.database().baskets()),
        );
        let crc = crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        let data = decode_checkpoint(&bytes).expect("v1 decodes");
        assert_eq!(data.epoch, 6);
        assert!(data.segments.is_empty(), "v1 names no segment files");
        assert_eq!(data.baskets, snap.baskets_range(0, 6));
    }

    #[test]
    fn damaged_checkpoints_and_segment_files_are_rejected() {
        let store = store_with(6);
        let (files, bytes) = encode_all(&store.snapshot());
        assert!(decode_checkpoint(&bytes).is_ok(), "baseline valid");
        // Any single bit flip fails the CRC (or the magic check).
        for idx in [0usize, 9, 20, 30, bytes.len() / 2, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[idx] ^= 0x40;
            assert!(
                decode_checkpoint(&bad).is_err(),
                "flip at {idx} must invalidate"
            );
        }
        // Truncation fails.
        assert!(decode_checkpoint(&bytes[..bytes.len() - 5]).is_err());
        assert!(decode_checkpoint(&bytes[..10]).is_err());
        assert!(decode_checkpoint(b"").is_err());
        // A valid checkpoint is refused under another name epoch or
        // another store geometry: the rule recovery and scrub share.
        assert!(verify_checkpoint_bytes(6, &bytes, Some((8, 4))).is_ok());
        assert!(
            verify_checkpoint_bytes(7, &bytes, Some((8, 4))).is_err(),
            "epoch"
        );
        assert!(
            verify_checkpoint_bytes(6, &bytes, Some((9, 4))).is_err(),
            "item space"
        );
        assert!(
            verify_checkpoint_bytes(6, &bytes, Some((8, 5))).is_err(),
            "capacity"
        );

        let file = &files[0].bytes;
        assert!(decode_sealed(file).is_ok(), "baseline valid");
        for idx in 0..file.len() {
            let mut bad = file.clone();
            bad[idx] ^= 0x01;
            assert!(decode_sealed(&bad).is_err(), "segment file flip at {idx}");
        }
        assert!(decode_sealed(&file[..file.len() - 1]).is_err(), "torn");
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
