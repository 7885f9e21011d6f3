//! # bmb-basket — generalized basket data
//!
//! Data-model substrate for the *Beyond Market Baskets* reproduction
//! (Brin, Motwani & Silverstein, SIGMOD 1997). A "generalized basket" is any
//! collection of subsets drawn from an item space: register transactions,
//! text documents over a vocabulary, or binarized census records.
//!
//! The crate provides:
//!
//! * [`ItemId`] / [`ItemCatalog`] — dense item identifiers with optional
//!   name interning;
//! * [`Itemset`] — canonical sorted itemsets with the subset machinery the
//!   lattice algorithms need;
//! * [`BasketDatabase`] — the paper's `B`, with per-item counts maintained
//!   online;
//! * [`BitmapIndex`] — a vertical representation and the one support-
//!   counting path (AND + popcount over item bitmaps);
//! * [`ContingencyTable`] / [`SparseContingencyTable`] — dense and
//!   occupied-cells-only presence/absence tables;
//! * [`categorical`] — the multinomial (non-binary) extension;
//! * [`io`] — a plain-text basket interchange format;
//! * [`segment`] — append-only ingest with sealed segments and epoch
//!   snapshots, the substrate of the serving layer;
//! * [`storage`] — pluggable byte-log and directory backends (real
//!   directory, in-memory, deterministic fault injection);
//! * [`record`] — the WAL record codec and its one frame walker;
//! * [`wal`] — a checksummed, rotating write-ahead log with checkpoints
//!   and [`DurableStore`], the crash-safe wrapper around
//!   [`IncrementalStore`].

#![warn(missing_docs)]

/// The vertical (per-item) basket index.
pub mod bitmap;
/// Multinomial (non-binary) attributes generalized from presence/absence.
pub mod categorical;
/// Checkpoint snapshots, sealed segment files and the checkpoint
/// manifest (bounded recovery).
pub mod checkpoint;
/// Dense and sparse presence/absence contingency tables.
pub mod contingency;
/// The basket database `B` with online per-item counts.
pub mod database;
/// Plain-text basket interchange format (read/write).
pub mod io;
/// Dense item identifiers and optional name interning.
pub mod item;
/// Canonical sorted itemsets and subset enumeration.
pub mod itemset;
/// WAL record codec: segment header, framing, payloads, frame walker.
pub mod record;
/// Background integrity scrubbing: verify, quarantine, repair.
pub mod scrub;
/// Append-only ingest with sealed segments and epoch snapshots.
pub mod segment;
/// Pluggable byte-log and directory backends: real, in-memory, faulty.
pub mod storage;
/// Checksummed write-ahead log and the crash-safe [`DurableStore`].
pub mod wal;

pub use bitmap::BitmapIndex;
pub use checkpoint::{
    checkpoint_name, parse_checkpoint_name, parse_sealed_name, sealed_name,
    verify_checkpoint_bytes, verify_sealed_bytes, MANIFEST_NAME,
};
pub use contingency::{
    cell_mask_of, CellMask, ContingencyTable, SparseContingencyTable, MAX_DENSE_DIMS,
};
pub use database::BasketDatabase;
pub use item::{ItemCatalog, ItemId};
pub use itemset::Itemset;
pub use record::{inspect_wal_bytes, InspectedRecord, WalInspection};
pub use scrub::{
    fsck_checkpoints, fsck_dir, quarantine_name, segment_digests, verify_generation_bytes,
    verify_manifest_bytes, FsckFinding, FsckReport, PeerError, RepairPeer, ScrubOptions,
    ScrubReport, SegmentDigest, QUARANTINE_PREFIX,
};
pub use segment::{IncrementalStore, ItemOutOfRange, Segment, Snapshot, StoreConfig};
pub use storage::{Dir, DirFaultPlan, FaultDir, FsDir, MemDir, Storage};
pub use wal::{
    CheckpointError, CheckpointStats, DurabilityConfig, DurableError, DurableStore, RecoveryReport,
    ShipBatch, ShipSource, WalError, GEN_NAME,
};
