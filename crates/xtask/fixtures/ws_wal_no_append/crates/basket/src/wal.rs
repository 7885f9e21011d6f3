//! Fixture: a `wal.rs` whose ack surface was renamed away from
//! `pub fn append*`, so rule 2 would find nothing to check.

use std::io;

/// A write-ahead log with an unsynced ack path.
pub struct Wal {
    staged: Vec<u8>,
}

impl Wal {
    /// Acknowledges without ever syncing.
    pub fn log(&mut self, payload: &[u8]) -> io::Result<()> {
        self.staged.extend_from_slice(payload);
        Ok(())
    }
}
