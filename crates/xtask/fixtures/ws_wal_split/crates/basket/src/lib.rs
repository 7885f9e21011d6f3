//! Fixture: the WAL split into modules, none of them named `wal.rs`.

/// The record codec and, after the split, the ack path.
pub mod record;
