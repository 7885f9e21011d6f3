//! The WAL record codec: segment header, record framing, payloads, and
//! the one frame walker every reader of WAL bytes goes through.
//!
//! # Format
//!
//! ```text
//! segment := header  record*
//! header  := b"BMBWAL3\0"  base_epoch:u64le  hcrc:u32le  (v3; hcrc = CRC32 of the 16 bytes before it)
//!          | b"BMBWAL2\n"  base_epoch:u64le              (v2: read, never written)
//! record  := len:u32le  crc:u32le  payload[len]      (crc = CRC32 of payload)
//! payload := 0x01  n:u32le  (m:u32le  id:u32le{m}){n}   — a basket batch
//!          | 0x02  epoch:u64le                          — an epoch fence
//! ```
//!
//! A segment's `base_epoch` is the store epoch before its first record;
//! each batch advances the stream epoch by its basket count, and a fence
//! must name the epoch the stream has reached.
//!
//! `Frames` walks a segment's records front to back and stops at the
//! first one that is not provably intact: a torn frame header, a length
//! prefix past [`crate::record::MAX_RECORD_BYTES`], a payload cut short, a CRC
//! mismatch, a fence naming the wrong epoch, or a payload that does not
//! decode. Recovery replay, WAL shipping and [`inspect_wal_bytes`] all
//! walk through it, so they agree on where the intact prefix ends; the
//! inspector turns the walker's `Stop` into its diagnosis line.

use crate::item::ItemId;
use crate::wal::WalError;

/// Magic bytes opening every WAL segment written now (v3). It differs
/// from [`WAL2_MAGIC`] in two bytes, so no single damaged byte turns a
/// v3 header into a v2 one.
pub const WAL3_MAGIC: &[u8; 8] = b"BMBWAL3\0";

/// Byte length of a v3 segment header (magic + `base_epoch:u64le` +
/// CRC-32 of both).
pub const WAL3_HEADER_LEN: usize = 20;

/// Magic bytes opening a v2 segment (no header CRC); still read, so
/// directories written before v3 recover.
pub const WAL2_MAGIC: &[u8; 8] = b"BMBWAL2\n";

/// Byte length of a v2 segment header (magic + `base_epoch:u64le`).
pub const WAL2_HEADER_LEN: usize = 16;

/// Upper bound on a single record's payload. The walker treats a length
/// prefix beyond this as damage rather than attempting the allocation,
/// and [`crate::wal::DurableStore::append_batch`] rejects a batch that
/// would encode past it *before* writing — so an append that recovery
/// would discard is never acknowledged.
pub const MAX_RECORD_BYTES: u32 = 1 << 28;

/// Record-kind byte for a basket batch.
const KIND_BATCH: u8 = 0x01;
/// Record-kind byte for an epoch fence.
const KIND_FENCE: u8 = 0x02;

/// Slice-by-8 lookup tables for the standard CRC-32 (IEEE 802.3,
/// reflected). `CRC_TABLES[0]` is the bytewise table; `CRC_TABLES[t][i]`
/// is the CRC of byte `i` followed by `t` zero bytes, so one step folds
/// eight bytes with eight independent lookups.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `data`, eight bytes per step (slice-by-8), then the
/// remaining bytes one at a time.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for word in &mut words {
        let lo = u32::from_le_bytes([word[0], word[1], word[2], word[3]]) ^ crc;
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

/// A parsed segment header.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct SegmentHeader {
    /// The store epoch before the segment's first record.
    pub(crate) base_epoch: u64,
    /// Header length in bytes: where the first record starts.
    pub(crate) len: usize,
}

/// Encodes a v3 segment header for a segment starting at `base_epoch`.
pub(crate) fn segment_header(base_epoch: u64) -> Vec<u8> {
    let mut header = Vec::with_capacity(WAL3_HEADER_LEN);
    header.extend_from_slice(WAL3_MAGIC);
    header.extend_from_slice(&base_epoch.to_le_bytes());
    let crc = crc32(&header);
    header.extend_from_slice(&crc.to_le_bytes());
    header
}

/// Parses a v3 or v2 segment header; `None` when the bytes are too
/// short, carry neither magic, or fail the v3 header CRC — so a damaged
/// v3 base epoch is never read as one.
pub(crate) fn parse_segment_header(bytes: &[u8]) -> Option<SegmentHeader> {
    let magic = bytes.get(..8)?;
    let base =
        |bytes: &[u8]| -> Option<u64> { bytes.get(8..16)?.try_into().ok().map(u64::from_le_bytes) };
    if magic == WAL3_MAGIC {
        let stored = u32::from_le_bytes(bytes.get(16..WAL3_HEADER_LEN)?.try_into().ok()?);
        (crc32(&bytes[..16]) == stored).then_some(SegmentHeader {
            base_epoch: base(bytes)?,
            len: WAL3_HEADER_LEN,
        })
    } else if magic == WAL2_MAGIC {
        Some(SegmentHeader {
            base_epoch: base(bytes)?,
            len: WAL2_HEADER_LEN,
        })
    } else {
        None
    }
}

/// True when `bytes` are a strict prefix of a segment header: all a
/// rotation that crashed before its header became durable can leave
/// behind, since the header is synced before any record is written.
pub(crate) fn is_torn_header(bytes: &[u8]) -> bool {
    let prefix_of = |magic: &[u8; 8], len: usize| {
        let shown = bytes.len().min(magic.len());
        bytes.len() < len && bytes[..shown] == magic[..shown]
    };
    prefix_of(WAL3_MAGIC, WAL3_HEADER_LEN) || prefix_of(WAL2_MAGIC, WAL2_HEADER_LEN)
}

/// Appends one framed record (`len:u32le crc:u32le payload`) to `out`.
pub(crate) fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// The one canonical basket encoding, `(m:u32le id:u32le{m})` per
/// basket in order, appended to `out`. WAL batch payloads, segment-file
/// bodies, checkpoint tails and the anti-entropy digests all use it.
pub fn encode_baskets<'a>(out: &mut Vec<u8>, baskets: impl IntoIterator<Item = &'a [ItemId]>) {
    for basket in baskets {
        out.extend_from_slice(&(basket.len() as u32).to_le_bytes());
        for item in basket {
            out.extend_from_slice(&item.0.to_le_bytes());
        }
    }
}

/// Decodes `n` baskets in the [`encode_baskets`] encoding from the
/// front of `bytes`; returns them and the bytes consumed. `None` when
/// the bytes run out, or when `n_items` is given and an id is not
/// below it. Capacity hints are clamped by the byte count, so a corrupt
/// count cannot drive a huge allocation.
pub(crate) fn decode_baskets(
    bytes: &[u8],
    n: u64,
    n_items: Option<usize>,
) -> Option<(Vec<Vec<ItemId>>, usize)> {
    let cap_bound = bytes.len() / 4;
    let mut cur = Cursor { bytes, pos: 0 };
    let mut baskets = Vec::with_capacity(usize::try_from(n).ok()?.min(cap_bound));
    for _ in 0..n {
        let m = cur.u32()? as usize;
        let mut basket = Vec::with_capacity(m.min(cap_bound));
        for _ in 0..m {
            let id = cur.u32()?;
            if n_items.is_some_and(|k| id as usize >= k) {
                return None;
            }
            basket.push(ItemId(id));
        }
        baskets.push(basket);
    }
    Some((baskets, cur.pos))
}

/// Encodes a basket batch payload.
pub(crate) fn encode_batch(baskets: &[Vec<ItemId>]) -> Vec<u8> {
    let items: usize = baskets.iter().map(Vec::len).sum();
    let mut payload = Vec::with_capacity(5 + 4 * baskets.len() + 4 * items);
    payload.push(KIND_BATCH);
    payload.extend_from_slice(&(baskets.len() as u32).to_le_bytes());
    encode_baskets(&mut payload, baskets.iter().map(Vec::as_slice));
    payload
}

/// Encodes an epoch-fence payload.
pub(crate) fn encode_fence(epoch: u64) -> Vec<u8> {
    let mut payload = Vec::with_capacity(9);
    payload.push(KIND_FENCE);
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload
}

/// A little-endian cursor over a payload slice.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u8(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.pos)?;
        self.pos += 1;
        Some(b)
    }

    fn u32(&mut self) -> Option<u32> {
        let end = self.pos.checked_add(4)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]))
    }

    fn u64(&mut self) -> Option<u64> {
        let end = self.pos.checked_add(8)?;
        let chunk = self.bytes.get(self.pos..end)?;
        self.pos = end;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(chunk);
        Some(u64::from_le_bytes(raw))
    }

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// One decoded record payload.
#[derive(Debug)]
pub(crate) enum Record {
    /// A basket batch, applied atomically.
    Batch(Vec<Vec<ItemId>>),
    /// An epoch fence pinning the stream epoch at a seal boundary.
    Fence(u64),
}

/// Decodes a checksum-verified payload; `None` means structural damage
/// (which, after a CRC pass, indicates a corrupt writer).
fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut cur = Cursor {
        bytes: payload,
        pos: 0,
    };
    match cur.u8()? {
        KIND_BATCH => {
            let n = cur.u32()?;
            let body = &payload[cur.pos..];
            let (baskets, used) = decode_baskets(body, u64::from(n), None)?;
            (used == body.len()).then_some(Record::Batch(baskets))
        }
        KIND_FENCE => {
            let epoch = cur.u64()?;
            cur.at_end().then_some(Record::Fence(epoch))
        }
        _ => None,
    }
}

/// One intact record yielded by [`Frames`].
#[derive(Debug)]
pub(crate) struct Frame {
    /// Byte offset of the record's frame header.
    pub(crate) offset: usize,
    /// Payload length from the frame header.
    pub(crate) len: u32,
    /// The stream epoch after the record.
    pub(crate) epoch: u64,
    /// The decoded payload.
    pub(crate) record: Record,
}

/// Why [`Frames`] stopped short of the end of the segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Damage {
    /// Fewer than 8 bytes remain: an interrupted frame-header write.
    TornHeader {
        /// The bytes left after the last intact record.
        trailing: usize,
    },
    /// The length prefix exceeds [`MAX_RECORD_BYTES`].
    AbsurdLength {
        /// The length the header claims.
        len: u32,
    },
    /// The payload runs past the end of the bytes.
    TruncatedPayload {
        /// The length the header claims.
        len: u32,
        /// The payload bytes actually present.
        present: usize,
    },
    /// The payload does not match its stored CRC.
    CrcMismatch {
        /// Payload length from the header.
        len: u32,
        /// The CRC the header stores.
        stored: u32,
        /// The CRC of the payload bytes.
        computed: u32,
    },
    /// A fence names an epoch the stream has not reached.
    FenceMismatch {
        /// Payload length from the header.
        len: u32,
        /// The epoch the fence pins.
        fence: u64,
    },
    /// The payload passes its CRC but does not decode.
    Invalid {
        /// Payload length from the header.
        len: u32,
        /// The payload's kind byte (0 when empty).
        kind: u8,
    },
}

/// Where and why a walk stopped: the offset of the damaged frame, the
/// stream epoch before it, and the damage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Stop {
    /// Offset of the first non-intact frame (the end of the intact
    /// prefix).
    pub(crate) offset: usize,
    /// The stream epoch after the last intact record.
    pub(crate) epoch: u64,
    /// What is wrong with the frame at `offset`.
    pub(crate) damage: Damage,
}

impl Stop {
    /// The one-line diagnosis `bmb wal inspect` prints.
    pub(crate) fn diagnosis(&self) -> String {
        let pos = self.offset;
        match self.damage {
            Damage::TornHeader { trailing } => format!(
                "torn frame header at offset {pos}: {trailing} trailing bytes (interrupted append)"
            ),
            Damage::AbsurdLength { len } => {
                format!("absurd record length {len} at offset {pos} (damaged frame header)")
            }
            Damage::TruncatedPayload { len, present } => format!(
                "truncated payload at offset {pos}: header promises {len} bytes, {present} present \
                 (interrupted append)"
            ),
            Damage::CrcMismatch { .. } => {
                format!("crc mismatch at offset {pos} (bit flip or torn write)")
            }
            Damage::FenceMismatch { fence, .. } => format!(
                "fence at offset {pos} pins epoch {fence} but the stream is at {} \
                 (records lost or foreign segment)",
                self.epoch
            ),
            Damage::Invalid { .. } => format!(
                "structurally invalid record at offset {pos} despite a passing crc \
                 (corrupt writer)"
            ),
        }
    }

    /// The damaged frame as an inspected record, when its header could
    /// be read and its length was plausible.
    fn inspected(&self) -> Option<InspectedRecord> {
        let (len, crc_ok, kind, detail) = match self.damage {
            Damage::TornHeader { .. }
            | Damage::AbsurdLength { .. }
            | Damage::TruncatedPayload { .. } => return None,
            Damage::CrcMismatch {
                len,
                stored,
                computed,
            } => (
                len,
                false,
                "unknown",
                format!("stored crc {stored:#010x} != computed {computed:#010x}"),
            ),
            Damage::FenceMismatch { len, fence } => (
                len,
                true,
                "fence",
                format!("epoch {fence} (MISMATCH, stream at {})", self.epoch),
            ),
            Damage::Invalid { len, kind } => {
                (len, true, "unknown", format!("kind byte {kind:#04x}"))
            }
        };
        Some(InspectedRecord {
            offset: self.offset as u64,
            len,
            crc_ok,
            kind,
            detail,
        })
    }
}

/// The frame walker: iterates the intact records of one segment, front
/// to back, tracking the stream epoch from the segment's base. It ends
/// at the end of the bytes or at the first damaged frame, whose
/// [`Stop`] it then holds; nothing past damage is yielded, because
/// bytes past it cannot be framed reliably.
#[derive(Debug)]
pub(crate) struct Frames<'a> {
    bytes: &'a [u8],
    pos: usize,
    epoch: u64,
    stop: Option<Stop>,
}

impl<'a> Frames<'a> {
    /// Walks the records of `segment`, whose header (already parsed by
    /// the caller) is `header`.
    pub(crate) fn new(segment: &'a [u8], header: SegmentHeader) -> Frames<'a> {
        Frames {
            bytes: segment,
            pos: header.len,
            epoch: header.base_epoch,
            stop: None,
        }
    }

    /// Offset just past the last intact record yielded so far.
    pub(crate) fn offset(&self) -> usize {
        self.pos
    }

    /// The stream epoch after the last intact record yielded so far.
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Why the walk ended early; `None` while walking and after a clean
    /// end.
    pub(crate) fn stop(&self) -> Option<Stop> {
        self.stop
    }

    fn halt(&mut self, damage: Damage) -> Option<Frame> {
        self.stop = Some(Stop {
            offset: self.pos,
            epoch: self.epoch,
            damage,
        });
        None
    }
}

impl Iterator for Frames<'_> {
    type Item = Frame;

    fn next(&mut self) -> Option<Frame> {
        let offset = self.pos;
        if self.stop.is_some() || offset >= self.bytes.len() {
            return None;
        }
        let Some(header) = self.bytes.get(offset..offset + 8) else {
            let trailing = self.bytes.len() - offset;
            return self.halt(Damage::TornHeader { trailing });
        };
        let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
        let stored = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
        if len > MAX_RECORD_BYTES {
            return self.halt(Damage::AbsurdLength { len });
        }
        let start = offset + 8;
        let end = start + len as usize;
        let Some(payload) = self.bytes.get(start..end) else {
            let present = self.bytes.len() - start;
            return self.halt(Damage::TruncatedPayload { len, present });
        };
        let computed = crc32(payload);
        if computed != stored {
            return self.halt(Damage::CrcMismatch {
                len,
                stored,
                computed,
            });
        }
        let record = match decode_payload(payload) {
            Some(record) => record,
            None => {
                let kind = payload.first().copied().unwrap_or(0);
                return self.halt(Damage::Invalid { len, kind });
            }
        };
        let epoch = match &record {
            Record::Batch(baskets) => self.epoch + baskets.len() as u64,
            Record::Fence(fence) if *fence == self.epoch => self.epoch,
            Record::Fence(fence) => {
                let fence = *fence;
                return self.halt(Damage::FenceMismatch { len, fence });
            }
        };
        self.pos = end;
        self.epoch = epoch;
        Some(Frame {
            offset,
            len,
            epoch,
            record,
        })
    }
}

/// One record summarized by [`inspect_wal_bytes`].
#[derive(Clone, Debug)]
pub struct InspectedRecord {
    /// Byte offset of the record's frame header.
    pub offset: u64,
    /// Payload length from the frame header.
    pub len: u32,
    /// Whether the stored CRC matches the payload.
    pub crc_ok: bool,
    /// Record kind: `"batch"`, `"fence"`, or `"unknown"`.
    pub kind: &'static str,
    /// Human-oriented detail (basket count, fence epoch, cumulative
    /// epoch after the record).
    pub detail: String,
}

/// The result of [`inspect_wal_bytes`]: an operator-facing dump of a
/// WAL segment's records and tail state.
#[derive(Clone, Debug)]
pub struct WalInspection {
    /// The segment's base epoch (`None` for a torn header).
    pub base_epoch: Option<u64>,
    /// Every intact frame, plus the damaged one when its header could
    /// be read.
    pub records: Vec<InspectedRecord>,
    /// Cumulative epoch after the last intact record.
    pub end_epoch: u64,
    /// Offset just past the last intact record.
    pub valid_bytes: u64,
    /// Total file size.
    pub total_bytes: u64,
    /// `"clean"`, or a one-line torn-tail / damage diagnosis.
    pub diagnosis: String,
}

/// Inspects raw WAL segment bytes without replaying them into a store:
/// record kinds, epochs, CRC status, and a torn-tail diagnosis. The
/// walk stops exactly where recovery replay stops.
///
/// # Errors
///
/// [`WalError::NotAWal`] when the bytes neither start with a valid
/// segment header (magic, and for v3 the header CRC) nor are a torn
/// prefix of one.
pub fn inspect_wal_bytes(bytes: &[u8]) -> Result<WalInspection, WalError> {
    let total_bytes = bytes.len() as u64;
    let Some(header) = parse_segment_header(bytes) else {
        if !is_torn_header(bytes) {
            return Err(WalError::NotAWal);
        }
        // Only part of the header landed.
        return Ok(WalInspection {
            base_epoch: None,
            records: Vec::new(),
            end_epoch: 0,
            valid_bytes: total_bytes,
            total_bytes,
            diagnosis: format!(
                "torn segment header: {} of {WAL3_HEADER_LEN} header bytes (crashed rotation)",
                bytes.len()
            ),
        });
    };
    let mut frames = Frames::new(bytes, header);
    let mut records: Vec<InspectedRecord> = frames
        .by_ref()
        .map(|frame| {
            let (kind, detail) = match frame.record {
                Record::Batch(baskets) => (
                    "batch",
                    format!("{} baskets, epoch -> {}", baskets.len(), frame.epoch),
                ),
                Record::Fence(fence) => (
                    "fence",
                    format!("epoch {fence} (ok, stream at {})", frame.epoch),
                ),
            };
            InspectedRecord {
                offset: frame.offset as u64,
                len: frame.len,
                crc_ok: true,
                kind,
                detail,
            }
        })
        .collect();
    let diagnosis = match frames.stop() {
        Some(stop) => {
            records.extend(stop.inspected());
            stop.diagnosis()
        }
        None => String::from("clean"),
    };
    Ok(WalInspection {
        base_epoch: Some(header.base_epoch),
        records,
        end_epoch: frames.epoch(),
        valid_bytes: frames.offset() as u64,
        total_bytes,
        diagnosis,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check values for CRC-32/IEEE.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The byte-at-a-time CRC-32 the slice-by-8 loop must equal.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut crc = 0xFFFF_FFFFu32;
        for &byte in data {
            crc ^= byte as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    proptest::proptest! {
        /// Slice-by-8 equals the bitwise reference on random bytes of
        /// random lengths up to 4 KiB, read from unaligned start offsets.
        #[test]
        fn crc32_matches_bytewise_reference(seed in 0u64..1_000_000) {
            use rand::{Rng, SeedableRng};

            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let bytes: Vec<u8> = (0..4096 + 8).map(|_| rng.gen_range(0..=255u8)).collect();
            for _ in 0..16 {
                let start = rng.gen_range(0..8usize);
                let len = rng.gen_range(0..=4096usize);
                let slice = &bytes[start..start + len];
                proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "start {}, len {}", start, len);
            }
            // Every tail length, at every start.
            for start in 0..8 {
                for len in 0..24 {
                    let slice = &bytes[start..start + len];
                    proptest::prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "start {}, len {}", start, len);
                }
            }
        }
    }
}
