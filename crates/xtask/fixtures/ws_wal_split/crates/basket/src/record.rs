//! Fixture: an ack path outside `wal.rs` that never syncs. Rule 2 does
//! not look here, so the crate-level check must flag the missing file.

use std::io;

/// A write-ahead log with an unsynced ack path.
pub struct Wal {
    staged: Vec<u8>,
}

impl Wal {
    /// Acknowledges without ever syncing.
    pub fn append(&mut self, payload: &[u8]) -> io::Result<()> {
        self.staged.extend_from_slice(payload);
        Ok(())
    }
}
