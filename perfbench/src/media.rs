//! The program's own in-memory directory (`MemDir`) with byte counters,
//! so the WAL's write amplification is counted where the bytes land and
//! no disk's fsync time enters the measurement.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bmb_basket::{Dir, MemDir, Storage};

/// Bytes appended through a [`CountingDir`] to any of its files (WAL
/// segments, checkpoints, manifest).
#[derive(Debug, Default)]
pub struct Written {
    bytes: AtomicU64,
}

impl Written {
    /// Every byte appended so far.
    pub fn total(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }
}

/// A [`MemDir`] that counts the bytes appended to its files.
pub struct CountingDir {
    inner: MemDir,
    written: Arc<Written>,
}

impl CountingDir {
    /// A fresh empty directory and its counters.
    pub fn new() -> (CountingDir, Arc<Written>) {
        let written = Arc::new(Written::default());
        let dir = CountingDir {
            inner: MemDir::new(),
            written: Arc::clone(&written),
        };
        (dir, written)
    }

    /// The same media behind a new handle, sharing the counters.
    pub fn reopen(&self) -> CountingDir {
        CountingDir {
            inner: MemDir::with_state(self.inner.state()),
            written: Arc::clone(&self.written),
        }
    }

    /// A separate directory holding a copy of every file, with counters
    /// of its own: what its users write leaves this one unchanged.
    pub fn copy(&self) -> io::Result<CountingDir> {
        let mut from = MemDir::with_state(self.inner.state());
        let (mut to, _) = CountingDir::new();
        for name in from.list()? {
            let bytes = from.open(&name)?.read_all()?;
            let mut file = to.inner.create(&name)?;
            file.append(&bytes)?;
            file.sync()?;
        }
        to.inner.sync()?;
        Ok(to)
    }

    /// The byte counters.
    pub fn written(&self) -> Arc<Written> {
        Arc::clone(&self.written)
    }

    fn wrap(&self, inner: Box<dyn Storage>) -> Box<dyn Storage> {
        Box::new(CountingStorage {
            inner,
            written: Arc::clone(&self.written),
        })
    }
}

impl Dir for CountingDir {
    fn list(&mut self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn open(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
        let storage = self.inner.open(name)?;
        Ok(self.wrap(storage))
    }

    fn create(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
        let storage = self.inner.create(name)?;
        Ok(self.wrap(storage))
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

struct CountingStorage {
    inner: Box<dyn Storage>,
    written: Arc<Written>,
}

impl Storage for CountingStorage {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.inner.append(data)?;
        self.written
            .bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.inner.sync()
    }

    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.inner.truncate(len)
    }
}
