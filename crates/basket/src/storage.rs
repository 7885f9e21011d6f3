//! Pluggable storage for the write-ahead log and its checkpoints.
//!
//! The WAL ([`crate::wal`]) is written against two traits: [`Storage`],
//! an append-only byte log with an explicit durability barrier, and
//! [`Dir`], a flat directory of such logs whose WAL segments, snapshot
//! files, and manifest are created, atomically renamed, and deleted as
//! a group. The same record format and recovery code runs over three
//! directory backends:
//!
//! * [`FsDir`] — a real directory of files
//!   (`bmb serve --checkpoint-dir DIR`);
//! * [`MemDir`] — in-memory files with a live-vs-durable
//!   entry model: names mutated since the last [`Dir::sync`] revert at a
//!   simulated crash ([`MemDir::crashed`]), which is what catches a
//!   missing fsync-parent-dir;
//! * [`FaultDir`] — a [`MemDir`] injecting a deterministic
//!   [`DirFaultPlan`]: a torn-write byte budget shared by every file
//!   (permanent like dead media, or transient like an ENOSPC that
//!   clears), failing reads, and planned create/rename/delete/dir-sync
//!   failures. Every crash point a disk can produce is enumerable, which
//!   is what the crash-recovery torture tests iterate over; at-rest bit
//!   rot is planned with [`FaultDir::plan_at_rest_corruption`] or made
//!   directly on a crashed [`MemDir`]'s bytes.
//!
//! Fault semantics mirror real disks: a failed append may have persisted
//! a *prefix* of the data (torn write), a failed sync leaves the tail in
//! an unknown state, and corruption flips bits without changing length.
//! Recovery must treat all of these as a damaged tail, never as damage to
//! records whose sync was acknowledged.

use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// An append-only byte log with an explicit durability barrier.
///
/// Implementations must guarantee that once [`Storage::sync`] returns
/// `Ok`, every previously appended byte survives a crash; bytes appended
/// since the last successful sync may survive wholly, partially (a torn
/// tail), or not at all.
pub trait Storage: Send {
    /// Appends `data` at the end of the log.
    ///
    /// # Errors
    ///
    /// On failure a *prefix* of `data` may have been persisted (a torn
    /// write); callers must assume the tail is damaged.
    fn append(&mut self, data: &[u8]) -> io::Result<()>;

    /// Durability barrier: all previously appended bytes survive a crash
    /// once this returns `Ok`.
    ///
    /// # Errors
    ///
    /// Propagates media failures; the unsynced tail state is unknown.
    fn sync(&mut self) -> io::Result<()>;

    /// Current log length in bytes.
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    fn len(&mut self) -> io::Result<u64>;

    /// Whether the log holds no bytes at all.
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    fn is_empty(&mut self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }

    /// Reads the entire log (recovery replay).
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    fn read_all(&mut self) -> io::Result<Vec<u8>>;

    /// Truncates the log to `len` bytes (recovery repair of a torn tail).
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// A [`Storage`] over a real file, handed out by [`FsDir`].
#[derive(Debug)]
pub(crate) struct FileStorage {
    file: File,
}

impl Storage for FileStorage {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::End(0))?;
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut buf = Vec::new();
        self.file.read_to_end(&mut buf)?;
        Ok(buf)
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

/// A shared in-memory byte buffer, so the bytes outlive the [`Storage`]
/// handle that wrote them (simulating media that survives a crash).
pub(crate) type SharedBytes = Arc<Mutex<Vec<u8>>>;

/// An infallible in-memory [`Storage`] over a [`SharedBytes`] buffer,
/// handed out by [`MemDir`].
///
/// The lock-discipline pass identifies locks by their declared name,
/// crate-wide — this one is `bytes`, distinct from the directory-level
/// `entries`/`faults` locks and the WAL's `state`/`wal`/`dir`.
#[derive(Debug, Default)]
pub(crate) struct MemStorage {
    bytes: SharedBytes,
}

impl MemStorage {
    /// A storage view over an existing buffer (e.g. bytes surviving a
    /// simulated crash).
    pub(crate) fn with_bytes(bytes: SharedBytes) -> MemStorage {
        MemStorage { bytes }
    }
}

impl Storage for MemStorage {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        lock(&self.bytes).extend_from_slice(data);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn len(&mut self) -> io::Result<u64> {
        Ok(lock(&self.bytes).len() as u64)
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(lock(&self.bytes).clone())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        // In-memory Vec ops, not real I/O. // lock:allow(io)
        let mut bytes = lock(&self.bytes);
        let len = usize::try_from(len).unwrap_or(usize::MAX);
        if len < bytes.len() {
            bytes.truncate(len);
        }
        Ok(())
    }
}

/// A flat directory of byte logs: the substrate for checkpointed
/// durability (WAL segments + snapshot files + a manifest live side by
/// side and are created, atomically renamed, and deleted as a group).
///
/// The durability contract mirrors POSIX directories: a created or
/// renamed *name* survives a crash only after [`Dir::sync`] returns
/// `Ok`; file *contents* survive per the file's own [`Storage::sync`].
/// A deleted name may likewise resurrect after a crash until the
/// directory is synced.
pub trait Dir: Send {
    /// The names currently present, in unspecified order.
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    fn list(&mut self) -> io::Result<Vec<String>>;

    /// Opens an existing file for append/read.
    ///
    /// # Errors
    ///
    /// `NotFound` when absent; otherwise propagates media failures.
    fn open(&mut self, name: &str) -> io::Result<Box<dyn Storage>>;

    /// Creates `name` empty (truncating any existing file of that name).
    /// The name is not durable until [`Dir::sync`].
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    fn create(&mut self, name: &str) -> io::Result<Box<dyn Storage>>;

    /// Atomically renames `from` to `to` (replacing `to` if present).
    /// The new name is not durable until [`Dir::sync`].
    ///
    /// # Errors
    ///
    /// Propagates media failures; on failure neither name has changed.
    fn rename(&mut self, from: &str, to: &str) -> io::Result<()>;

    /// Deletes `name`. The deletion is not durable until [`Dir::sync`].
    ///
    /// # Errors
    ///
    /// Propagates media failures.
    fn delete(&mut self, name: &str) -> io::Result<()>;

    /// Current length of `name` in bytes (without opening it for write).
    ///
    /// # Errors
    ///
    /// `NotFound` when absent; otherwise propagates media failures.
    fn file_len(&mut self, name: &str) -> io::Result<u64>;

    /// Durability barrier for the directory *entries* (names): every
    /// earlier create/rename/delete survives a crash once this returns
    /// `Ok`.
    ///
    /// # Errors
    ///
    /// Propagates media failures; entry durability is then unknown.
    fn sync(&mut self) -> io::Result<()>;
}

/// A [`Dir`] over a real filesystem directory.
#[derive(Debug)]
pub struct FsDir {
    path: std::path::PathBuf,
}

impl FsDir {
    /// Opens (creating if absent) the directory at `path`.
    ///
    /// A directory this call creates is not itself durable until its
    /// parent is synced; without that, a crash shortly after creation
    /// can lose the directory — and every synced segment in it — on
    /// some filesystems. So the parent of every directory created here
    /// (`path` and any missing ancestors) is fsynced, deepest first,
    /// before returning.
    ///
    /// # Errors
    ///
    /// Propagates creation/open/sync failures.
    pub fn open(path: &Path) -> io::Result<FsDir> {
        let mut created = Vec::new();
        let mut missing = Some(path);
        while let Some(dir) = missing.filter(|d| !d.as_os_str().is_empty() && !d.is_dir()) {
            created.push(dir);
            missing = dir.parent();
        }
        std::fs::create_dir_all(path)?;
        #[cfg(unix)]
        for dir in created {
            let parent = match dir.parent() {
                Some(p) if !p.as_os_str().is_empty() => p,
                _ => Path::new("."),
            };
            File::open(parent)?.sync_all()?;
        }
        Ok(FsDir {
            path: path.to_path_buf(),
        })
    }

    fn file_path(&self, name: &str) -> std::path::PathBuf {
        self.path.join(name)
    }
}

impl Dir for FsDir {
    fn list(&mut self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.path)? {
            let entry = entry?;
            if let Ok(name) = entry.file_name().into_string() {
                names.push(name);
            }
        }
        Ok(names)
    }

    fn open(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(self.file_path(name))?;
        Ok(Box::new(FileStorage { file }))
    }

    fn create(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(self.file_path(name))?;
        Ok(Box::new(FileStorage { file }))
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        std::fs::rename(self.file_path(from), self.file_path(to))
    }

    fn delete(&mut self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.file_path(name))
    }

    fn file_len(&mut self, name: &str) -> io::Result<u64> {
        Ok(std::fs::metadata(self.file_path(name))?.len())
    }

    fn sync(&mut self) -> io::Result<()> {
        #[cfg(unix)]
        {
            File::open(&self.path)?.sync_all()?;
        }
        Ok(())
    }
}

/// The shared state behind a [`MemDir`]: the live view of names plus the
/// *durable* view — what a crash would leave behind. Entry mutations
/// (create/rename/delete) touch only the live view; [`Dir::sync`]
/// promotes it wholesale. File contents are [`SharedBytes`] handles
/// shared between both views, so content durability is governed by each
/// file's own [`Storage`] semantics, exactly like a real filesystem.
#[derive(Debug, Default)]
pub struct MemDirState {
    live: std::collections::BTreeMap<String, SharedBytes>,
    durable: std::collections::BTreeMap<String, SharedBytes>,
}

/// A shared handle to a [`MemDirState`]; clone it before dropping the
/// [`MemDir`] to keep the simulated media alive across a crash.
pub type SharedDirState = Arc<Mutex<MemDirState>>;

/// An in-memory [`Dir`] with a crash model for directory entries: names
/// created, renamed, or deleted since the last [`Dir::sync`] revert to
/// their pre-mutation state at a simulated crash ([`MemDir::crashed`]).
/// This is what catches a missing fsync-parent-dir after a rotation or
/// an atomic checkpoint rename.
#[derive(Debug, Default)]
pub struct MemDir {
    entries: SharedDirState,
}

impl MemDir {
    /// A fresh empty directory.
    pub fn new() -> MemDir {
        MemDir::default()
    }

    /// The shared state handle (the surviving "media").
    pub fn state(&self) -> SharedDirState {
        Arc::clone(&self.entries)
    }

    /// A directory view over existing state, *without* simulating a
    /// crash (reopen after clean shutdown).
    pub fn with_state(entries: SharedDirState) -> MemDir {
        MemDir { entries }
    }

    /// Simulates a crash over `state`: the returned directory holds only
    /// the entries that were durable (dir-synced); unsynced creates are
    /// gone, unsynced renames show the old name, unsynced deletes have
    /// resurrected.
    pub fn crashed(entries: &SharedDirState) -> MemDir {
        let durable = lock_state(entries).durable.clone();
        MemDir {
            entries: Arc::new(Mutex::new(MemDirState {
                live: durable.clone(),
                durable,
            })),
        }
    }
}

/// Acquires the dir-state mutex, recovering from poisoning (entry maps
/// are only mutated through panic-free code).
fn lock_state(entries: &SharedDirState) -> MutexGuard<'_, MemDirState> {
    entries.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Dir for MemDir {
    fn list(&mut self) -> io::Result<Vec<String>> {
        Ok(lock_state(&self.entries).live.keys().cloned().collect())
    }

    fn open(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
        match lock_state(&self.entries).live.get(name) {
            Some(bytes) => Ok(Box::new(MemStorage::with_bytes(Arc::clone(bytes)))),
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn create(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
        let bytes: SharedBytes = Arc::new(Mutex::new(Vec::new()));
        lock_state(&self.entries)
            .live
            .insert(name.to_string(), Arc::clone(&bytes));
        Ok(Box::new(MemStorage::with_bytes(bytes)))
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        let mut entries = lock_state(&self.entries);
        match entries.live.remove(from) {
            Some(bytes) => {
                entries.live.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, from.to_string())),
        }
    }

    fn delete(&mut self, name: &str) -> io::Result<()> {
        match lock_state(&self.entries).live.remove(name) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    // Reading a file's length peeks at its bytes while the directory
    // map is held. // lock:order(entries < bytes)
    fn file_len(&mut self, name: &str) -> io::Result<u64> {
        match lock_state(&self.entries).live.get(name) {
            Some(bytes) => {
                let len = bytes.lock().unwrap_or_else(PoisonError::into_inner).len();
                Ok(len as u64)
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, name.to_string())),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut entries = lock_state(&self.entries);
        entries.durable = entries.live.clone();
        Ok(())
    }
}

/// A deterministic fault schedule for [`FaultDir`].
///
/// Byte faults share one budget across every file written through the
/// directory (the failing write persists only the prefix that fits — a
/// torn write); entry faults fire on the Nth call of their kind, 0-based, leaving the
/// directory unchanged (an atomic rename either happens or doesn't).
#[derive(Clone, Copy, Debug, Default)]
pub struct DirFaultPlan {
    /// After this many bytes appended across all files, appends fail;
    /// the failing append lands as a torn write.
    pub fail_after_bytes: Option<u64>,
    /// When true the byte fault clears after tearing (ENOSPC that
    /// resolves); otherwise it trips permanently like dead media.
    pub transient: bool,
    /// Fail the Nth [`Dir::create`] call.
    pub fail_create_at: Option<u64>,
    /// Fail the Nth [`Dir::rename`] call.
    pub fail_rename_at: Option<u64>,
    /// Fail the Nth [`Dir::delete`] call.
    pub fail_delete_at: Option<u64>,
    /// Fail the Nth [`Dir::sync`] call (entry durability then unknown —
    /// the live view keeps the change but a crash reverts it).
    pub fail_dir_sync_at: Option<u64>,
    /// Fail every [`Storage::read_all`] / [`Storage::len`] on the
    /// directory's files (unreadable media).
    pub fail_reads: bool,
}

/// Shared fault bookkeeping between a [`FaultDir`] and the files it
/// hands out.
#[derive(Debug)]
struct DirFaultState {
    plan: DirFaultPlan,
    written: u64,
    tripped: bool,
    creates: u64,
    renames: u64,
    deletes: u64,
    dir_syncs: u64,
    /// Planned at-rest flips: `(name, offset)` pairs applied (and
    /// consumed) when `name` is next opened for read/scan.
    at_rest: Vec<(String, u64)>,
}

impl DirFaultState {
    fn fault(what: &str) -> io::Error {
        io::Error::other(format!("injected dir fault: {what}"))
    }
}

/// A [`MemDir`] that injects the faults of a [`DirFaultPlan`].
///
/// Deterministic: the same plan over the same operation sequence always fails the same call and tears the same
/// byte. Combine with [`MemDir::crashed`] on the underlying state to
/// enumerate crash points through rotation, checkpoint, and retention.
#[derive(Debug)]
pub struct FaultDir {
    inner: MemDir,
    faults: Arc<Mutex<DirFaultState>>,
}

impl FaultDir {
    /// A faulty directory over fresh state.
    pub fn new(plan: DirFaultPlan) -> FaultDir {
        FaultDir::with_dir(MemDir::new(), plan)
    }

    /// Fault injection on top of existing directory state (e.g. the
    /// survivors of a previous crash).
    pub fn with_dir(inner: MemDir, plan: DirFaultPlan) -> FaultDir {
        FaultDir {
            inner,
            faults: Arc::new(Mutex::new(DirFaultState {
                plan,
                written: 0,
                tripped: false,
                creates: 0,
                renames: 0,
                deletes: 0,
                dir_syncs: 0,
                at_rest: Vec::new(),
            })),
        }
    }

    /// The underlying directory state (the surviving "media").
    pub fn dir_state(&self) -> SharedDirState {
        self.inner.state()
    }

    /// Whether the shared write-byte fault has tripped.
    pub fn is_tripped(&self) -> bool {
        lock_fault(&self.faults).tripped
    }

    /// Plans an at-rest byte flip: the next time `name` is opened, the
    /// media byte at `offset` is XORed with 0xFF — persistently, like
    /// bit rot in a file whose sync was acknowledged long ago. The
    /// write path is untouched; this is how scrub tests corrupt a
    /// sealed segment or checkpoint *after* it became durable without
    /// depending on in-flight write timing. Out-of-range offsets and
    /// absent names are ignored. Each planned flip fires once.
    pub fn plan_at_rest_corruption(&self, name: &str, offset: u64) {
        lock_fault(&self.faults)
            .at_rest
            .push((name.to_string(), offset));
    }

    /// Applies (and consumes) every at-rest flip planned for `name`.
    fn apply_at_rest(&mut self, name: &str) {
        let offsets: Vec<u64> = {
            let mut st = lock_fault(&self.faults);
            if st.at_rest.iter().all(|(n, _)| n != name) {
                return;
            }
            let (hit, keep): (Vec<_>, Vec<_>) = st.at_rest.drain(..).partition(|(n, _)| n == name);
            st.at_rest = keep;
            hit.into_iter().map(|(_, offset)| offset).collect()
        };
        let state = self.inner.state();
        let entries = lock_state(&state);
        if let Some(bytes) = entries.live.get(name) {
            // Flips planned media bytes in memory.
            // lock:order(state < bytes) // lock:allow(io)
            let mut bytes = lock(bytes);
            for offset in offsets {
                if let Ok(idx) = usize::try_from(offset) {
                    if let Some(byte) = bytes.get_mut(idx) {
                        *byte ^= 0xFF;
                    }
                }
            }
        }
    }
}

/// Acquires the fault-state mutex, recovering from poisoning.
fn lock_fault(faults: &Arc<Mutex<DirFaultState>>) -> MutexGuard<'_, DirFaultState> {
    faults.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A file handle charged against its [`FaultDir`]'s shared byte budget.
struct FaultFile {
    inner: Box<dyn Storage>,
    faults: Arc<Mutex<DirFaultState>>,
}

impl Storage for FaultFile {
    fn append(&mut self, data: &[u8]) -> io::Result<()> {
        let keep = {
            let mut st = lock_fault(&self.faults);
            if st.tripped {
                return Err(DirFaultState::fault("append after write fault"));
            }
            let budget = match st.plan.fail_after_bytes {
                Some(limit) => limit.saturating_sub(st.written),
                None => u64::MAX,
            };
            if (data.len() as u64) <= budget {
                st.written += data.len() as u64;
                None
            } else {
                let keep = usize::try_from(budget)
                    .unwrap_or(usize::MAX)
                    .min(data.len());
                st.written += keep as u64;
                if st.plan.transient {
                    st.plan.fail_after_bytes = None;
                } else {
                    st.tripped = true;
                }
                Some(keep)
            }
        };
        match keep {
            None => self.inner.append(data),
            Some(keep) => {
                // Torn write: the prefix under the budget lands.
                let _ = self.inner.append(&data[..keep]);
                Err(DirFaultState::fault("write budget exhausted"))
            }
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        if lock_fault(&self.faults).tripped {
            return Err(DirFaultState::fault("sync after write fault"));
        }
        self.inner.sync()
    }

    fn len(&mut self) -> io::Result<u64> {
        if lock_fault(&self.faults).plan.fail_reads {
            return Err(DirFaultState::fault("len"));
        }
        self.inner.len()
    }

    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        if lock_fault(&self.faults).plan.fail_reads {
            return Err(DirFaultState::fault("read_all"));
        }
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        if lock_fault(&self.faults).tripped {
            return Err(DirFaultState::fault("truncate after write fault"));
        }
        self.inner.truncate(len)
    }
}

impl Dir for FaultDir {
    fn list(&mut self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn open(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
        self.apply_at_rest(name);
        let inner = self.inner.open(name)?;
        Ok(Box::new(FaultFile {
            inner,
            faults: Arc::clone(&self.faults),
        }))
    }

    fn create(&mut self, name: &str) -> io::Result<Box<dyn Storage>> {
        {
            let mut st = lock_fault(&self.faults);
            let n = st.creates;
            st.creates += 1;
            if st.plan.fail_create_at == Some(n) {
                return Err(DirFaultState::fault("create"));
            }
        }
        let inner = self.inner.create(name)?;
        Ok(Box::new(FaultFile {
            inner,
            faults: Arc::clone(&self.faults),
        }))
    }

    fn rename(&mut self, from: &str, to: &str) -> io::Result<()> {
        {
            let mut st = lock_fault(&self.faults);
            let n = st.renames;
            st.renames += 1;
            if st.plan.fail_rename_at == Some(n) {
                return Err(DirFaultState::fault("rename"));
            }
        }
        self.inner.rename(from, to)
    }

    fn delete(&mut self, name: &str) -> io::Result<()> {
        {
            let mut st = lock_fault(&self.faults);
            let n = st.deletes;
            st.deletes += 1;
            if st.plan.fail_delete_at == Some(n) {
                return Err(DirFaultState::fault("delete"));
            }
        }
        self.inner.delete(name)
    }

    fn file_len(&mut self, name: &str) -> io::Result<u64> {
        self.inner.file_len(name)
    }

    fn sync(&mut self) -> io::Result<()> {
        {
            let mut st = lock_fault(&self.faults);
            let n = st.dir_syncs;
            st.dir_syncs += 1;
            if st.plan.fail_dir_sync_at == Some(n) {
                return Err(DirFaultState::fault("dir sync"));
            }
        }
        self.inner.sync()
    }
}

/// Acquires a mutex, recovering from poisoning (the buffer is plain
/// bytes; any state is valid).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_round_trips() {
        let mut s = MemStorage::default();
        s.append(b"hello ").unwrap();
        s.append(b"world").unwrap();
        s.sync().unwrap();
        assert_eq!(s.len().unwrap(), 11);
        assert_eq!(s.read_all().unwrap(), b"hello world");
        s.truncate(5).unwrap();
        assert_eq!(s.read_all().unwrap(), b"hello");
        // Truncating beyond the end is a no-op.
        s.truncate(100).unwrap();
        assert_eq!(s.len().unwrap(), 5);
    }

    #[test]
    fn shared_bytes_survive_the_handle() {
        let bytes = SharedBytes::default();
        {
            let mut s = MemStorage::with_bytes(Arc::clone(&bytes));
            s.append(b"durable").unwrap();
        } // "crash": the storage handle is gone
        let mut reopened = MemStorage::with_bytes(bytes);
        assert_eq!(reopened.read_all().unwrap(), b"durable");
    }

    #[test]
    fn fault_dir_read_faults_fail_reads_only() {
        let mut d = FaultDir::new(DirFaultPlan {
            fail_reads: true,
            ..DirFaultPlan::default()
        });
        let mut f = d.create("f").unwrap();
        // Writes are unaffected...
        f.append(b"abc").unwrap();
        f.sync().unwrap();
        // ...but the bytes cannot be read back, through any handle.
        assert!(f.read_all().is_err());
        assert!(f.len().is_err());
        assert!(d.open("f").unwrap().read_all().is_err());
        assert_eq!(d.list().unwrap(), vec!["f".to_string()]);
    }

    #[test]
    fn fault_dir_at_rest_corruption_flips_on_open() {
        let mut d = FaultDir::new(DirFaultPlan::default());
        let mut f = d.create("sealed").unwrap();
        f.append(b"synced-data").unwrap();
        f.sync().unwrap();
        d.sync().unwrap();
        drop(f);

        d.plan_at_rest_corruption("sealed", 0);
        d.plan_at_rest_corruption("sealed", 7);
        d.plan_at_rest_corruption("absent", 0); // harmless
        let mut expect = b"synced-data".to_vec();
        expect[0] ^= 0xFF;
        expect[7] ^= 0xFF;
        assert_eq!(d.open("sealed").unwrap().read_all().unwrap(), expect);
        // The flips fired once; a later open sees the same rot.
        assert_eq!(d.open("sealed").unwrap().read_all().unwrap(), expect);
        // A file the plan never names is untouched.
        let mut g = d.create("clean").unwrap();
        g.append(b"ok").unwrap();
        assert_eq!(d.open("clean").unwrap().read_all().unwrap(), b"ok");
    }

    #[test]
    fn mem_dir_round_trips_entries() {
        let mut d = MemDir::new();
        let mut f = d.create("a").unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        d.sync().unwrap();
        assert_eq!(d.list().unwrap(), vec!["a".to_string()]);
        assert_eq!(d.file_len("a").unwrap(), 5);
        d.rename("a", "b").unwrap();
        assert_eq!(d.list().unwrap(), vec!["b".to_string()]);
        assert_eq!(d.open("b").unwrap().read_all().unwrap(), b"hello");
        assert!(d.open("a").is_err(), "old name is gone after rename");
        d.delete("b").unwrap();
        assert!(d.list().unwrap().is_empty());
        assert!(d.delete("b").is_err(), "double delete is NotFound");
    }

    #[test]
    fn mem_dir_crash_reverts_unsynced_entry_mutations() {
        let mut d = MemDir::new();
        let state = d.state();
        d.create("kept").unwrap().append(b"k").unwrap();
        d.sync().unwrap();
        // Mutations after the last dir sync: all must revert at a crash.
        d.create("unsynced").unwrap().append(b"u").unwrap();
        d.rename("kept", "renamed").unwrap();

        let mut crashed = MemDir::crashed(&state);
        let mut names = crashed.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["kept".to_string()], "create + rename reverted");
        assert_eq!(crashed.open("kept").unwrap().read_all().unwrap(), b"k");

        // An unsynced delete resurrects.
        let mut d = MemDir::crashed(&state);
        let state = d.state();
        d.delete("kept").unwrap();
        let mut crashed = MemDir::crashed(&state);
        assert_eq!(crashed.list().unwrap(), vec!["kept".to_string()]);
        // ...and a synced delete sticks.
        let mut d = MemDir::crashed(&state);
        let state = d.state();
        d.delete("kept").unwrap();
        d.sync().unwrap();
        assert!(MemDir::crashed(&state).list().unwrap().is_empty());
    }

    #[test]
    fn fs_dir_round_trips_entries() {
        let root = std::env::temp_dir().join(format!("bmb-fsdir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        {
            // Missing ancestors are created along with the directory.
            let mut d = FsDir::open(&root.join("a").join("b")).unwrap();
            assert!(d.list().unwrap().is_empty());
            let mut d = FsDir::open(&root).unwrap();
            assert_eq!(d.list().unwrap(), vec!["a".to_string()]);
            d.delete("a").unwrap_err(); // a directory, not a file
            std::fs::remove_dir_all(root.join("a")).unwrap();
            assert!(d.list().unwrap().is_empty());
            let mut f = d.create("x.tmp").unwrap();
            f.append(b"data").unwrap();
            f.sync().unwrap();
            d.rename("x.tmp", "x").unwrap();
            d.sync().unwrap();
            assert_eq!(d.list().unwrap(), vec!["x".to_string()]);
            assert_eq!(d.file_len("x").unwrap(), 4);
            assert_eq!(d.open("x").unwrap().read_all().unwrap(), b"data");
            let mut x = d.open("x").unwrap();
            x.append(b"-more").unwrap();
            x.truncate(6).unwrap();
            assert_eq!(x.read_all().unwrap(), b"data-m");
            assert!(d.open("absent").is_err());
            d.delete("x").unwrap();
            assert!(d.list().unwrap().is_empty());
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn fault_dir_fails_planned_entry_ops_without_effect() {
        // Rename fault: the Nth rename fails and neither name changes.
        let mut d = FaultDir::new(DirFaultPlan {
            fail_rename_at: Some(1),
            ..DirFaultPlan::default()
        });
        d.create("a").unwrap();
        d.create("b").unwrap();
        d.rename("a", "a2").unwrap(); // rename #0 succeeds
        assert!(d.rename("b", "b2").is_err(), "rename #1 planned to fail");
        let mut names = d.list().unwrap();
        names.sort();
        assert_eq!(names, vec!["a2".to_string(), "b".to_string()]);
        d.rename("b", "b2").unwrap(); // later renames succeed again

        // Delete fault: the file survives the failed call.
        let mut d = FaultDir::new(DirFaultPlan {
            fail_delete_at: Some(0),
            ..DirFaultPlan::default()
        });
        d.create("keep").unwrap();
        assert!(d.delete("keep").is_err());
        assert_eq!(d.list().unwrap(), vec!["keep".to_string()]);
        d.delete("keep").unwrap();

        // Create fault.
        let mut d = FaultDir::new(DirFaultPlan {
            fail_create_at: Some(0),
            ..DirFaultPlan::default()
        });
        assert!(d.create("nope").is_err());
        assert!(d.list().unwrap().is_empty());
    }

    #[test]
    fn fault_dir_sync_fault_leaves_entries_volatile() {
        let mut d = FaultDir::new(DirFaultPlan {
            fail_dir_sync_at: Some(0),
            ..DirFaultPlan::default()
        });
        let state = d.dir_state();
        d.create("f").unwrap();
        assert!(d.sync().is_err(), "dir sync planned to fail");
        // The entry was never made durable: a crash loses it.
        assert!(MemDir::crashed(&state).list().unwrap().is_empty());
        // A later sync succeeds and makes it durable.
        d.sync().unwrap();
        assert_eq!(
            MemDir::crashed(&state).list().unwrap(),
            vec!["f".to_string()]
        );
    }

    #[test]
    fn fault_dir_byte_budget_spans_files_and_tears() {
        let mut d = FaultDir::new(DirFaultPlan {
            fail_after_bytes: Some(6),
            ..DirFaultPlan::default()
        });
        let mut a = d.create("a").unwrap();
        let mut b = d.create("b").unwrap();
        a.append(b"1234").unwrap(); // 4 of 6 bytes used
        let err = b.append(b"5678").unwrap_err(); // tears at 2 bytes
        assert!(err.to_string().contains("injected dir fault"), "{err}");
        assert_eq!(b.read_all().unwrap(), b"56", "torn prefix landed");
        assert!(d.is_tripped());
        assert!(
            a.append(b"x").is_err(),
            "budget is shared: both handles trip"
        );
        assert!(b.sync().is_err());
        assert!(b.truncate(0).is_err());

        // Transient variant: the tear happens once, then writes heal.
        let mut d = FaultDir::new(DirFaultPlan {
            fail_after_bytes: Some(3),
            transient: true,
            ..DirFaultPlan::default()
        });
        let mut f = d.create("f").unwrap();
        assert!(f.append(b"abcde").is_err());
        assert_eq!(f.read_all().unwrap(), b"abc");
        assert!(!d.is_tripped());
        f.truncate(1).unwrap();
        f.append(b"z").unwrap();
        assert_eq!(f.read_all().unwrap(), b"az");
    }
}
