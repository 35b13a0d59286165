//! Pluggable object-store backends for the snapshot lifecycle.
//!
//! [`StoreDir`](crate::lifecycle::StoreDir) owns the *policy* of a snapshot
//! store — the manifest, the chain ordering, compaction and retention — but
//! every durable operation flows through an [`ObjectStore`], so the same
//! lifecycle (and the same crash-fault suites) runs against any medium:
//!
//! * [`LocalFsBackend`] — a directory on the local filesystem, using the
//!   original tmp + fsync + rename commit discipline. Byte-compatible with
//!   stores written before the backend split: the same file names, the same
//!   `MANIFEST`, the same `quarantine/` sweep.
//! * [`MemBackend`] — an in-process store for fast tests and fault
//!   injection; clones share the same state, so a "reopened" store sees
//!   exactly what the "crashed" one committed. Its manifest swap is a
//!   *conditional put* on the generation counter and its finalize is
//!   create-only — the shape a real S3/GCS adapter takes behind this
//!   trait: `If-Match`-style conditional writes for
//!   [`ObjectStore::swap_manifest`] and a multipart upload completed at
//!   [`ObjectUpload::finalize`] for [`ObjectStore::put_atomic`].
//!
//! # The contract
//!
//! Whatever the medium, a backend must guarantee:
//!
//! 1. **`put_atomic` is visible-or-absent.** Bytes written through the
//!    returned [`ObjectUpload`] are staged (a `*.tmp` file, a buffered
//!    blob); the object appears under its final name only when
//!    [`ObjectUpload::finalize`] returns `Ok`. A crash or drop before
//!    that leaves at most staging residue, never a half-visible object.
//!    On the conditional backend finalize is also *create-only*: a name
//!    that already holds an object means another writer won the race for
//!    this generation, refused with a typed
//!    [`StoreError::ObjectConflict`] instead of clobbering the winner's
//!    committed bytes (`LocalFsBackend` again leans on the single-writer
//!    deployment).
//! 2. **`swap_manifest` is atomic**, and — where the medium supports it —
//!    *conditional* on the expected generation, so a concurrent writer
//!    loses with a typed [`StoreError::ManifestConflict`] instead of
//!    silently clobbering the chain. `LocalFsBackend` relies on
//!    rename-atomicity and a single-writer-per-directory deployment (POSIX
//!    rename cannot compare-and-swap); `MemBackend` enforces the
//!    condition.
//! 3. **`list`/`get`/`delete`/`quarantine`** operate on the live namespace
//!    only; quarantined objects move to a separate namespace and never
//!    reappear in `list`.
//!
//! Crash-fault injection is a backend wrapper, not a filesystem hack:
//! [`FaultedStore`] accounts every mutating operation against a
//! [`FaultInjector`] and fails the N-th (and, like a dead process, every
//! one after it) — so the kill-at-every-mutation durability sweeps run
//! unchanged against both backends.

use crate::error::{StoreError, StoreResult};
use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Name of the manifest object in every backend's live namespace.
pub const MANIFEST_NAME: &str = "MANIFEST";

/// Namespace prefix quarantined objects move under.
const QUARANTINE_PREFIX: &str = "quarantine/";

/// Namespace component scoped (per-tenant) stores live under: a directory
/// for [`LocalFsBackend`], a key prefix for [`MemBackend`].
const SCOPE_PREFIX: &str = "tenants/";

// -- the trait --------------------------------------------------------------

/// One object in a backend's live namespace, as reported by
/// [`ObjectStore::list`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ObjectInfo {
    /// The object's name (flat — chain names never contain separators).
    pub name: String,
    /// The object's size in bytes.
    pub bytes: u64,
}

/// A staged upload returned by [`ObjectStore::put_atomic`].
///
/// Bytes written through [`Write`] are staged; the object becomes visible
/// under its final name only when [`ObjectUpload::finalize`] returns `Ok`.
/// Dropping the handle abandons the upload: the object never appears, and
/// any staging residue (a temp file) is the next open's quarantine/GC
/// problem — exactly like a process that died mid-upload.
pub trait ObjectUpload: Write + Send + fmt::Debug {
    /// Bytes staged so far (written through this handle).
    fn bytes_staged(&self) -> u64;

    /// Completes the upload, making the object visible under its final
    /// name. Visible-or-absent: after an error the object does not exist
    /// (it never replaces an object another writer already committed).
    ///
    /// # Errors
    ///
    /// [`StoreError::ObjectConflict`] when the name already holds an
    /// object (conditional backends — a lost concurrent-writer race);
    /// [`StoreError::Io`] on medium failures.
    fn finalize(self: Box<Self>) -> StoreResult<()>;
}

/// A durable object namespace the snapshot lifecycle can run on.
///
/// See the [module docs](self) for the atomicity contract each method must
/// uphold. All methods take `&self`: backends are internally synchronized
/// so a [`crate::lifecycle::PendingBlock`] can stage bytes while the
/// [`crate::lifecycle::StoreDir`] that spawned it is still usable for
/// reads.
pub trait ObjectStore: fmt::Debug + Send {
    /// Short static identifier (`"localfs"`, `"mem"`) for error contexts
    /// and test matrices.
    fn kind(&self) -> &'static str;

    /// Human-readable location for error messages (a path, a bucket, ...).
    fn describe(&self) -> String {
        self.kind().to_string()
    }

    /// Begins a staged upload that will become visible as `name` only at
    /// [`ObjectUpload::finalize`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for an invalid object name;
    /// [`StoreError::ReadOnlyStore`] / [`StoreError::Io`] on medium
    /// failures.
    fn put_atomic(&self, name: &str) -> StoreResult<Box<dyn ObjectUpload>>;

    /// Opens an object for sequential reading.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the object is missing or unreadable.
    fn get(&self, name: &str) -> StoreResult<Box<dyn Read + Send>>;

    /// Lists the live namespace (excluding quarantine), in unspecified
    /// order.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failures.
    fn list(&self) -> StoreResult<Vec<ObjectInfo>>;

    /// Deletes an object from the live namespace.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the object cannot be removed.
    fn delete(&self, name: &str) -> StoreResult<()>;

    /// Moves an object out of the live namespace into quarantine,
    /// returning where it went (a path or a quarantine key). The object
    /// must no longer appear in [`ObjectStore::list`].
    ///
    /// # Errors
    ///
    /// [`StoreError::ReadOnlyStore`] / [`StoreError::Io`] on medium
    /// failures.
    fn quarantine(&self, name: &str) -> StoreResult<String>;

    /// Reads the current manifest bytes, `None` when no manifest has ever
    /// been committed (not a store yet).
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failures.
    fn read_manifest(&self) -> StoreResult<Option<Vec<u8>>>;

    /// Atomically replaces the manifest, conditional on the caller's view
    /// of the current generation: `expected` is `None` when creating a
    /// fresh store, `Some(g)` when superseding the manifest the caller
    /// read at generation `g`; `next` is the generation recorded in
    /// `bytes`.
    ///
    /// Backends that can compare-and-swap refuse a stale `expected` with
    /// [`StoreError::ManifestConflict`]; [`LocalFsBackend`] cannot (POSIX
    /// rename is last-writer-wins) and documents a single-writer
    /// deployment instead.
    ///
    /// # Errors
    ///
    /// [`StoreError::ManifestConflict`] on a lost race (conditional
    /// backends); [`StoreError::ReadOnlyStore`] / [`StoreError::Io`] on
    /// medium failures.
    fn swap_manifest(&self, expected: Option<u64>, next: u64, bytes: &[u8]) -> StoreResult<()>;

    /// Verifies the backend accepts mutations, *without* mutating anything
    /// — called before a quarantine sweep so a read-only store fails up
    /// front with a typed, actionable error instead of mid-sweep with a
    /// raw I/O error.
    ///
    /// # Errors
    ///
    /// [`StoreError::ReadOnlyStore`] when the medium refuses writes.
    fn ensure_mutable(&self) -> StoreResult<()> {
        Ok(())
    }

    /// Opens an isolated child namespace of this backend (a *scope* — one
    /// tenant's store under a shared medium). Scoped handles have their
    /// own manifest, live namespace, and quarantine; their objects never
    /// collide with the parent's or a sibling scope's, so many
    /// [`crate::lifecycle::StoreDir`]s — one per tenant — can share one
    /// directory, memory map, or bucket. Scopes nest.
    ///
    /// Scope names are validated by [`validate_scope_name`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] for an invalid scope name;
    /// [`StoreError::Io`] on medium failures.
    fn scope(&self, name: &str) -> StoreResult<Box<dyn ObjectStore>>;

    /// Lists the scope names directly under this backend that currently
    /// hold a manifest — i.e. the tenants a restarted service must
    /// restore — in unspecified order. A scope whose store was never
    /// created does not appear.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on medium failures.
    fn scopes(&self) -> StoreResult<Vec<String>>;
}

/// Rejects object names that could escape a flat namespace (path
/// separators, `..`) or collide with the manifest.
fn validate_name(name: &str) -> StoreResult<()> {
    if name.is_empty() || name.contains(['/', '\\']) || name == ".." || name == MANIFEST_NAME {
        return Err(StoreError::corrupt(format!("invalid object name {name:?}")));
    }
    Ok(())
}

/// Validates a scope (tenant) name for [`ObjectStore::scope`]: 1–64
/// ASCII characters from `[A-Za-z0-9._-]`, not starting with a dot.
/// Stricter than object names — scope names become directory components
/// on the filesystem backend and path segments in service URLs, so the
/// conservative common denominator is enforced everywhere.
///
/// # Errors
///
/// [`StoreError::Corrupt`] describing the rejected name.
pub fn validate_scope_name(name: &str) -> StoreResult<()> {
    let charset_ok =
        name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'_' || b == b'-');
    if name.is_empty() || name.len() > 64 || !charset_ok || name.starts_with('.') {
        return Err(StoreError::corrupt(format!(
            "invalid scope name {name:?}: use 1-64 characters of [A-Za-z0-9._-], not starting \
             with a dot"
        )));
    }
    Ok(())
}

// -- local filesystem -------------------------------------------------------

/// The original on-disk backend: a flat directory with tmp + fsync +
/// rename commits. Byte-compatible with stores written before the backend
/// split — the same chain file names, `MANIFEST` discipline, and
/// `quarantine/` subdirectory.
///
/// `swap_manifest` is atomic (rename) but **not** conditional: POSIX
/// rename cannot compare-and-swap, so the generation check degrades to the
/// single-writer-per-directory deployment the lifecycle has always
/// assumed. Use a conditional backend when multiple writers may race.
#[derive(Debug)]
pub struct LocalFsBackend {
    root: PathBuf,
}

impl LocalFsBackend {
    /// Opens (creating parents as needed) a directory as the backend root.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if the directory cannot be created.
    pub fn new(root: impl Into<PathBuf>) -> StoreResult<Self> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(LocalFsBackend { root })
    }

    /// The directory this backend owns.
    pub fn root(&self) -> &std::path::Path {
        &self.root
    }

    /// Wraps a permission failure as the typed, actionable
    /// [`StoreError::ReadOnlyStore`] (keeping the `io::Error` as the
    /// source); everything else stays [`StoreError::Io`].
    fn write_err(&self, e: io::Error) -> StoreError {
        if e.kind() == io::ErrorKind::PermissionDenied {
            StoreError::ReadOnlyStore { store: self.describe(), source: Some(e) }
        } else {
            StoreError::Io(e)
        }
    }

    fn sync_root(&self) {
        // Directory fsync is not portable everywhere; treat a refusal as
        // best-effort rather than a broken store.
        if let Ok(dir) = File::open(&self.root) {
            let _ = dir.sync_all();
        }
    }
}

impl ObjectStore for LocalFsBackend {
    fn kind(&self) -> &'static str {
        "localfs"
    }

    fn describe(&self) -> String {
        self.root.display().to_string()
    }

    fn put_atomic(&self, name: &str) -> StoreResult<Box<dyn ObjectUpload>> {
        validate_name(name)?;
        // A process-unique staging suffix: two outstanding uploads to the
        // same target never share a temp file (the `.tmp` extension keeps
        // residue sweepable by the quarantine pass).
        static STAGING: AtomicU64 = AtomicU64::new(0);
        let nonce = STAGING.fetch_add(1, Ordering::Relaxed);
        let tmp = self.root.join(format!("{name}.{nonce}.tmp"));
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .map_err(|e| self.write_err(e))?;
        Ok(Box::new(LocalFsUpload {
            tmp,
            target: self.root.join(name),
            root: self.root.clone(),
            file,
            bytes: 0,
        }))
    }

    fn get(&self, name: &str) -> StoreResult<Box<dyn Read + Send>> {
        Ok(Box::new(File::open(self.root.join(name))?))
    }

    fn list(&self) -> StoreResult<Vec<ObjectInfo>> {
        let mut out = Vec::new();
        for dirent in fs::read_dir(&self.root)? {
            let dirent = dirent?;
            // Subdirectories (quarantine/ among them) are not objects.
            if !dirent.file_type()?.is_file() {
                continue;
            }
            let name = dirent.file_name().to_string_lossy().into_owned();
            out.push(ObjectInfo { name, bytes: dirent.metadata()?.len() });
        }
        Ok(out)
    }

    fn delete(&self, name: &str) -> StoreResult<()> {
        fs::remove_file(self.root.join(name)).map_err(|e| self.write_err(e))
    }

    fn quarantine(&self, name: &str) -> StoreResult<String> {
        let quarantine = self.root.join(QUARANTINE_PREFIX.trim_end_matches('/'));
        fs::create_dir_all(&quarantine).map_err(|e| self.write_err(e))?;
        let mut target = quarantine.join(name);
        let mut suffix = 0u32;
        while target.exists() {
            suffix += 1;
            target = quarantine.join(format!("{name}.{suffix}"));
        }
        fs::rename(self.root.join(name), &target).map_err(|e| self.write_err(e))?;
        Ok(target.display().to_string())
    }

    fn read_manifest(&self) -> StoreResult<Option<Vec<u8>>> {
        match fs::read(self.root.join(MANIFEST_NAME)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn swap_manifest(&self, _expected: Option<u64>, _next: u64, bytes: &[u8]) -> StoreResult<()> {
        // Single-writer deployment: atomicity comes from the rename, the
        // generation condition is not checkable on POSIX.
        let tmp = self.root.join("MANIFEST.tmp");
        {
            let mut file = OpenOptions::new()
                .write(true)
                .create(true)
                .truncate(true)
                .open(&tmp)
                .map_err(|e| self.write_err(e))?;
            file.write_all(bytes)?;
            file.sync_all()?;
        }
        fs::rename(&tmp, self.root.join(MANIFEST_NAME)).map_err(|e| self.write_err(e))?;
        self.sync_root();
        Ok(())
    }

    fn ensure_mutable(&self) -> StoreResult<()> {
        let meta = fs::metadata(&self.root)?;
        if meta.permissions().readonly() {
            return Err(StoreError::ReadOnlyStore { store: self.describe(), source: None });
        }
        Ok(())
    }

    fn scope(&self, name: &str) -> StoreResult<Box<dyn ObjectStore>> {
        validate_scope_name(name)?;
        let root = self.root.join(SCOPE_PREFIX.trim_end_matches('/')).join(name);
        Ok(Box::new(LocalFsBackend::new(root)?))
    }

    fn scopes(&self) -> StoreResult<Vec<String>> {
        let tenants = self.root.join(SCOPE_PREFIX.trim_end_matches('/'));
        let mut out = Vec::new();
        let entries = match fs::read_dir(&tenants) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e.into()),
        };
        for dirent in entries {
            let dirent = dirent?;
            if !dirent.file_type()?.is_dir() {
                continue;
            }
            // A scope exists once its store was created — i.e. once it
            // holds a manifest. Residue directories are not scopes.
            if dirent.path().join(MANIFEST_NAME).is_file() {
                out.push(dirent.file_name().to_string_lossy().into_owned());
            }
        }
        Ok(out)
    }
}

/// The staged side of [`LocalFsBackend::put_atomic`]: a `{name}.tmp` file
/// that is fsynced and renamed into place at finalize. A dropped handle
/// leaves the temp file behind (like a dead process would) for the next
/// open's quarantine sweep.
#[derive(Debug)]
struct LocalFsUpload {
    tmp: PathBuf,
    target: PathBuf,
    root: PathBuf,
    file: File,
    bytes: u64,
}

impl Write for LocalFsUpload {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.file.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.file.flush()
    }
}

impl ObjectUpload for LocalFsUpload {
    fn bytes_staged(&self) -> u64 {
        self.bytes
    }

    fn finalize(mut self: Box<Self>) -> StoreResult<()> {
        // The same PermissionDenied mapping every other LocalFs write path
        // gets (see `LocalFsBackend::write_err`): a directory gone
        // read-only between begin and commit is the typed, actionable
        // error, not a raw I/O failure.
        let ro = |store: &PathBuf, e: io::Error| {
            if e.kind() == io::ErrorKind::PermissionDenied {
                StoreError::ReadOnlyStore { store: store.display().to_string(), source: Some(e) }
            } else {
                StoreError::Io(e)
            }
        };
        self.file.flush().map_err(|e| ro(&self.root, e))?;
        self.file.sync_all().map_err(|e| ro(&self.root, e))?;
        fs::rename(&self.tmp, &self.target).map_err(|e| ro(&self.root, e))?;
        if let Ok(dir) = File::open(&self.root) {
            let _ = dir.sync_all();
        }
        Ok(())
    }
}

// -- in-memory backend ------------------------------------------------------

/// `Read` over shared immutable bytes (what `get` hands out so a reader
/// outlives the backend lock).
#[derive(Debug)]
struct SharedBytes(io::Cursor<ArcBytes>);

#[derive(Debug)]
struct ArcBytes(Arc<Vec<u8>>);

impl AsRef<[u8]> for ArcBytes {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Read for SharedBytes {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.0.read(buf)
    }
}

fn lock_state<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding the lock poisons it; the state itself is
    // always consistent (mutations are single assignments), so recover.
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn missing(name: &str) -> StoreError {
    StoreError::Io(io::Error::new(
        io::ErrorKind::NotFound,
        format!("object {name:?} not found in mem store"),
    ))
}

/// [`MemBackend`]'s shared state: live objects, the quarantine namespace,
/// and the generation-tagged manifests (one per scope — the root store's
/// lives under the empty prefix). Keys carry the owning handle's scope
/// prefix (`tenants/<name>/`, nested as needed); keys inside a scope are
/// flat, so prefix membership is unambiguous.
#[derive(Clone, Debug, Default)]
struct ObjectMap {
    objects: BTreeMap<String, Arc<Vec<u8>>>,
    quarantine: BTreeMap<String, Arc<Vec<u8>>>,
    manifests: BTreeMap<String, (u64, Vec<u8>)>,
}

/// An in-process [`ObjectStore`] for fast tests and fault injection.
///
/// Clones share state: keep one handle, hand a clone to a `StoreDir`, let
/// that "process" die, and reopen from the surviving handle — the
/// in-memory equivalent of reopening a directory after a crash.
/// `swap_manifest` enforces the generation condition (lost races surface
/// as [`StoreError::ManifestConflict`]) and finalize is create-only (a
/// raced object name is [`StoreError::ObjectConflict`], never a clobber).
#[derive(Clone, Debug, Default)]
pub struct MemBackend {
    state: Arc<Mutex<ObjectMap>>,
    /// Key prefix of this handle's scope (empty for the root namespace).
    prefix: String,
}

impl MemBackend {
    /// An empty in-memory store.
    pub fn new() -> Self {
        MemBackend::default()
    }

    /// A deep copy with its own independent state (unlike [`Clone`], which
    /// shares) — for tests that replay many crashes against one fixture.
    /// Child scopes are copied too; the fork views the same scope as
    /// `self`.
    pub fn fork(&self) -> Self {
        let map = lock_state(&self.state).clone();
        MemBackend { state: Arc::new(Mutex::new(map)), prefix: self.prefix.clone() }
    }

    fn key(&self, name: &str) -> String {
        format!("{}{name}", self.prefix)
    }
}

impl ObjectStore for MemBackend {
    fn kind(&self) -> &'static str {
        "mem"
    }

    fn describe(&self) -> String {
        if self.prefix.is_empty() {
            self.kind().to_string()
        } else {
            format!("{}:{}", self.kind(), self.prefix)
        }
    }

    fn put_atomic(&self, name: &str) -> StoreResult<Box<dyn ObjectUpload>> {
        validate_name(name)?;
        Ok(Box::new(MemUpload {
            state: Arc::clone(&self.state),
            key: self.key(name),
            buf: Vec::new(),
        }))
    }

    fn get(&self, name: &str) -> StoreResult<Box<dyn Read + Send>> {
        let state = lock_state(&self.state);
        let bytes = state.objects.get(&self.key(name)).ok_or_else(|| missing(name))?;
        Ok(Box::new(SharedBytes(io::Cursor::new(ArcBytes(Arc::clone(bytes))))))
    }

    fn list(&self) -> StoreResult<Vec<ObjectInfo>> {
        let state = lock_state(&self.state);
        Ok(state
            .objects
            .iter()
            .filter_map(|(key, bytes)| {
                let name = key.strip_prefix(&self.prefix)?;
                // Deeper keys belong to child scopes, not this namespace.
                if name.contains('/') {
                    return None;
                }
                Some(ObjectInfo { name: name.to_string(), bytes: bytes.len() as u64 })
            })
            .collect())
    }

    fn delete(&self, name: &str) -> StoreResult<()> {
        lock_state(&self.state)
            .objects
            .remove(&self.key(name))
            .map(|_| ())
            .ok_or_else(|| missing(name))
    }

    fn quarantine(&self, name: &str) -> StoreResult<String> {
        let mut state = lock_state(&self.state);
        let bytes = state.objects.remove(&self.key(name)).ok_or_else(|| missing(name))?;
        let mut key = format!("{}{QUARANTINE_PREFIX}{name}", self.prefix);
        let mut suffix = 0u32;
        while state.quarantine.contains_key(&key) {
            suffix += 1;
            key = format!("{}{QUARANTINE_PREFIX}{name}.{suffix}", self.prefix);
        }
        state.quarantine.insert(key.clone(), bytes);
        Ok(key)
    }

    fn read_manifest(&self) -> StoreResult<Option<Vec<u8>>> {
        Ok(lock_state(&self.state).manifests.get(&self.prefix).map(|(_, bytes)| bytes.clone()))
    }

    fn swap_manifest(&self, expected: Option<u64>, next: u64, bytes: &[u8]) -> StoreResult<()> {
        let mut state = lock_state(&self.state);
        let found = state.manifests.get(&self.prefix).map(|(g, _)| *g);
        if found != expected {
            return Err(StoreError::ManifestConflict { expected, found });
        }
        state.manifests.insert(self.prefix.clone(), (next, bytes.to_vec()));
        Ok(())
    }

    fn scope(&self, name: &str) -> StoreResult<Box<dyn ObjectStore>> {
        validate_scope_name(name)?;
        Ok(Box::new(MemBackend {
            state: Arc::clone(&self.state),
            prefix: format!("{}{SCOPE_PREFIX}{name}/", self.prefix),
        }))
    }

    fn scopes(&self) -> StoreResult<Vec<String>> {
        let base = format!("{}{SCOPE_PREFIX}", self.prefix);
        Ok(lock_state(&self.state)
            .manifests
            .keys()
            .filter_map(|key| {
                let name = key.strip_prefix(&base)?.strip_suffix('/')?;
                // Exactly one path segment: deeper keys are nested scopes.
                if name.is_empty() || name.contains('/') {
                    return None;
                }
                Some(name.to_string())
            })
            .collect())
    }
}

/// Client-side staging for [`MemBackend`]: bytes buffer in the handle and
/// install as one atomic, create-only map insert at finalize.
#[derive(Debug)]
struct MemUpload {
    state: Arc<Mutex<ObjectMap>>,
    key: String,
    buf: Vec<u8>,
}

impl Write for MemUpload {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl ObjectUpload for MemUpload {
    fn bytes_staged(&self) -> u64 {
        self.buf.len() as u64
    }

    /// Create-only: a name that already holds an object means another
    /// writer won the race for this generation — refused typed, never
    /// clobbered.
    fn finalize(self: Box<Self>) -> StoreResult<()> {
        let mut state = lock_state(&self.state);
        if state.objects.contains_key(&self.key) {
            let name = self.key.rsplit('/').next().unwrap_or(&self.key).to_string();
            return Err(StoreError::ObjectConflict { name });
        }
        state.objects.insert(self.key, Arc::new(self.buf));
        Ok(())
    }
}

// -- fault injection --------------------------------------------------------

/// Deterministic crash simulation for durability tests: fails the N-th
/// backend mutation (and every one after it, like a dead process).
///
/// Production code never arms this; the crash-at-every-mutation suites use
/// it — through a [`FaultedStore`] wrapper around any backend — to kill
/// the lifecycle at every staging write, finalize, manifest swap, delete,
/// and quarantine point, and prove `StoreDir::open` always recovers a
/// valid chain. The countdown is shared by clones, so a pending upload
/// split off a store dies with it.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    /// `-1` = disarmed; `0` = dead (every op fails); `n > 0` = ops left.
    countdown: Arc<AtomicI64>,
    /// Whether an operation has actually been failed.
    fired: Arc<AtomicBool>,
}

impl FaultInjector {
    /// A disarmed injector (all operations succeed).
    pub fn new() -> Self {
        FaultInjector {
            countdown: Arc::new(AtomicI64::new(-1)),
            fired: Arc::new(AtomicBool::new(false)),
        }
    }

    /// Arms the injector: the `ops`-th subsequent backend mutation (0 =
    /// the very next one) fails with an injected I/O error, as does every
    /// operation after it.
    pub fn arm(&self, ops: u64) {
        self.fired.store(false, Ordering::SeqCst);
        self.countdown.store(ops.min(i64::MAX as u64) as i64, Ordering::SeqCst);
    }

    /// Whether the injected crash has actually failed an operation (the
    /// armed countdown may also simply outlive the run).
    pub fn crashed(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Accounts one backend mutation, failing if the crash point has been
    /// reached.
    fn tick(&self, op: &'static str) -> StoreResult<()> {
        let left = self.countdown.load(Ordering::SeqCst);
        if left < 0 {
            return Ok(());
        }
        if left == 0 {
            self.fired.store(true, Ordering::SeqCst);
            return Err(StoreError::Io(io::Error::other(format!("injected crash at {op}"))));
        }
        self.countdown.store(left - 1, Ordering::SeqCst);
        Ok(())
    }

    /// [`FaultInjector::tick`] for `io::Result` contexts (upload writes).
    fn tick_io(&self, op: &'static str) -> io::Result<()> {
        self.tick(op).map_err(|e| match e {
            StoreError::Io(e) => e,
            other => io::Error::other(other.to_string()),
        })
    }

    /// Fails (without consuming a countdown step) once the injector has
    /// fired: a dead process cannot read either.
    fn fail_if_dead(&self, op: &'static str) -> StoreResult<()> {
        if self.countdown.load(Ordering::SeqCst) == 0 && self.crashed() {
            return Err(StoreError::Io(io::Error::other(format!("store dead at {op}"))));
        }
        Ok(())
    }
}

/// A backend wrapper accounting every mutation against a
/// [`FaultInjector`] — the crash harness for *any* [`ObjectStore`].
///
/// Mutation points (each consumes one countdown step): upload begin, every
/// staged write, finalize, manifest swap, delete, quarantine. Once the
/// fault fires, reads fail too (the process is dead); recovery always goes
/// through a fresh, unfaulted store handle.
#[derive(Debug)]
pub struct FaultedStore {
    inner: Box<dyn ObjectStore>,
    fault: FaultInjector,
}

impl FaultedStore {
    /// Wraps `inner`, accounting its mutations against `fault`.
    pub fn new(inner: impl ObjectStore + 'static, fault: FaultInjector) -> Self {
        FaultedStore { inner: Box::new(inner), fault }
    }

    /// [`FaultedStore::new`] for an already-boxed backend.
    pub fn boxed(inner: Box<dyn ObjectStore>, fault: FaultInjector) -> Self {
        FaultedStore { inner, fault }
    }
}

impl ObjectStore for FaultedStore {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }

    fn put_atomic(&self, name: &str) -> StoreResult<Box<dyn ObjectUpload>> {
        self.fault.tick("begin of an object upload")?;
        let inner = self.inner.put_atomic(name)?;
        Ok(Box::new(FaultedUpload { inner, fault: self.fault.clone() }))
    }

    fn get(&self, name: &str) -> StoreResult<Box<dyn Read + Send>> {
        self.fault.fail_if_dead("object read")?;
        self.inner.get(name)
    }

    fn list(&self) -> StoreResult<Vec<ObjectInfo>> {
        self.fault.fail_if_dead("object listing")?;
        self.inner.list()
    }

    fn delete(&self, name: &str) -> StoreResult<()> {
        self.fault.tick("deletion of an object")?;
        self.inner.delete(name)
    }

    fn quarantine(&self, name: &str) -> StoreResult<String> {
        self.fault.tick("quarantine of an object")?;
        self.inner.quarantine(name)
    }

    fn read_manifest(&self) -> StoreResult<Option<Vec<u8>>> {
        self.fault.fail_if_dead("manifest read")?;
        self.inner.read_manifest()
    }

    fn swap_manifest(&self, expected: Option<u64>, next: u64, bytes: &[u8]) -> StoreResult<()> {
        self.fault.tick("swap of the manifest")?;
        self.inner.swap_manifest(expected, next, bytes)
    }

    fn ensure_mutable(&self) -> StoreResult<()> {
        self.fault.fail_if_dead("mutability probe")?;
        self.inner.ensure_mutable()
    }

    fn scope(&self, name: &str) -> StoreResult<Box<dyn ObjectStore>> {
        // Scoped handles stay under the same injector: one countdown
        // spans every tenant of the simulated process, like one dying
        // process takes all its tenants' writes with it.
        self.fault.fail_if_dead("scope open")?;
        let inner = self.inner.scope(name)?;
        Ok(Box::new(FaultedStore { inner, fault: self.fault.clone() }))
    }

    fn scopes(&self) -> StoreResult<Vec<String>> {
        self.fault.fail_if_dead("scope listing")?;
        self.inner.scopes()
    }
}

#[derive(Debug)]
struct FaultedUpload {
    inner: Box<dyn ObjectUpload>,
    fault: FaultInjector,
}

impl Write for FaultedUpload {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.fault.tick_io("staged write of a pending object")?;
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl ObjectUpload for FaultedUpload {
    fn bytes_staged(&self) -> u64 {
        self.inner.bytes_staged()
    }

    fn finalize(self: Box<Self>) -> StoreResult<()> {
        self.fault.tick("finalize of an object upload")?;
        self.inner.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One temp dir per calling test (libtest runs tests on parallel
    /// threads; a shared dir would let one test sweep another's files).
    fn backends(tag: &str) -> Vec<Box<dyn ObjectStore>> {
        let root = std::env::temp_dir()
            .join(format!("earlybird-backend-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        vec![Box::new(LocalFsBackend::new(&root).unwrap()), Box::new(MemBackend::new())]
    }

    #[test]
    fn put_is_visible_or_absent_on_every_backend() {
        for backend in backends("visible-or-absent") {
            let kind = backend.kind();
            // Abandoned upload: never visible.
            let mut up = backend.put_atomic("blob.ebstore").unwrap();
            up.write_all(b"half-written").unwrap();
            drop(up);
            assert!(
                backend.get("blob.ebstore").is_err(),
                "{kind}: abandoned upload must not be visible"
            );

            // Finalized upload: visible with exactly the staged bytes.
            let payload: Vec<u8> = (0..1000u32).flat_map(|i| i.to_le_bytes()).collect();
            let mut up = backend.put_atomic("blob.ebstore").unwrap();
            up.write_all(&payload).unwrap();
            assert_eq!(up.bytes_staged(), payload.len() as u64, "{kind}");
            up.finalize().unwrap();
            let mut back = Vec::new();
            backend.get("blob.ebstore").unwrap().read_to_end(&mut back).unwrap();
            assert_eq!(back, payload, "{kind}: roundtrip");
            let listed = backend.list().unwrap();
            let found = listed.iter().find(|o| o.name == "blob.ebstore");
            assert_eq!(
                found.map(|o| o.bytes),
                Some(payload.len() as u64),
                "{kind}: list reports the object; got {listed:?}"
            );

            // Quarantine removes it from the live namespace.
            backend.quarantine("blob.ebstore").unwrap();
            assert!(backend.get("blob.ebstore").is_err(), "{kind}: quarantined object gone");
            assert!(
                backend.list().unwrap().iter().all(|o| o.name != "blob.ebstore"),
                "{kind}: quarantined object not listed"
            );
        }
    }

    #[test]
    fn invalid_object_names_are_refused() {
        for backend in backends("invalid-names") {
            for name in ["", "a/b", "..", "MANIFEST", "a\\b"] {
                assert!(
                    matches!(backend.put_atomic(name), Err(StoreError::Corrupt { .. })),
                    "{}: name {name:?} must be refused",
                    backend.kind()
                );
            }
        }
    }

    #[test]
    fn conditional_manifest_swap_enforces_generations() {
        let backend = MemBackend::new();
        assert_eq!(backend.read_manifest().unwrap(), None);
        // Creating over nothing requires expected = None.
        assert!(matches!(
            backend.swap_manifest(Some(0), 1, b"m1"),
            Err(StoreError::ManifestConflict { expected: Some(0), found: None })
        ));
        backend.swap_manifest(None, 0, b"m0").unwrap();
        // Creating twice loses.
        assert!(matches!(
            backend.swap_manifest(None, 0, b"m0'"),
            Err(StoreError::ManifestConflict { expected: None, found: Some(0) })
        ));
        backend.swap_manifest(Some(0), 1, b"m1").unwrap();
        // A writer that still believes generation 0 loses.
        assert!(matches!(
            backend.swap_manifest(Some(0), 2, b"stale"),
            Err(StoreError::ManifestConflict { expected: Some(0), found: Some(1) })
        ));
        assert_eq!(backend.read_manifest().unwrap().as_deref(), Some(&b"m1"[..]));
    }

    #[test]
    fn finalize_is_create_only_and_never_clobbers_a_committed_object() {
        let backend = MemBackend::new();
        // Two racing uploads to the same generation-derived name, with
        // *different* bytes so a clobber would be visible.
        let mut winner = backend.put_atomic("seg-000002.ebstore").unwrap();
        let mut loser = backend.put_atomic("seg-000002.ebstore").unwrap();
        winner.write_all(b"winner bytes").unwrap();
        loser.write_all(b"loser bytes, longer").unwrap();
        winner.finalize().unwrap();
        let err = loser.finalize().expect_err("the raced finalize must be refused");
        assert!(matches!(err, StoreError::ObjectConflict { .. }), "{err}");

        // The winner's committed bytes are untouched.
        let mut back = Vec::new();
        backend.get("seg-000002.ebstore").unwrap().read_to_end(&mut back).unwrap();
        assert_eq!(back, b"winner bytes", "winner's object intact");
    }

    #[test]
    fn faulted_store_kills_the_nth_mutation_and_stays_dead() {
        let fault = FaultInjector::new();
        let store = FaultedStore::new(MemBackend::new(), fault.clone());
        store.swap_manifest(None, 0, b"m").unwrap();

        // Fault at the finalize (begin=0, write=1, finalize=2).
        fault.arm(2);
        let mut up = store.put_atomic("x.ebstore").unwrap();
        up.write_all(b"payload").unwrap();
        let err = up.finalize().expect_err("finalize must crash");
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert!(fault.crashed());
        // Dead: reads fail too, without consuming countdown.
        assert!(store.list().is_err());
        assert!(store.get("x.ebstore").is_err());
        assert!(store.swap_manifest(Some(0), 1, b"m2").is_err());

        fault.arm(u64::MAX);
        assert!(store.list().unwrap().is_empty(), "crashed upload never became visible");
    }

    #[test]
    fn scopes_are_isolated_namespaces_on_every_backend() {
        for backend in backends("scopes") {
            let kind = backend.kind();
            let t1 = backend.scope("acme").unwrap();
            let t2 = backend.scope("globex").unwrap();

            // Same object name in two scopes and at the root: three
            // distinct objects.
            for (store, payload) in
                [(&*backend, &b"root"[..]), (&*t1, b"tenant-acme"), (&*t2, b"tenant-globex")]
            {
                let mut up = store.put_atomic("full-000001.ebstore").unwrap();
                up.write_all(payload).unwrap();
                up.finalize().unwrap();
            }
            for (store, payload) in
                [(&*backend, &b"root"[..]), (&*t1, b"tenant-acme"), (&*t2, b"tenant-globex")]
            {
                let mut back = Vec::new();
                store.get("full-000001.ebstore").unwrap().read_to_end(&mut back).unwrap();
                assert_eq!(back, payload, "{kind}: scope sees its own bytes");
                let listed = store.list().unwrap();
                assert_eq!(listed.len(), 1, "{kind}: exactly its own object; got {listed:?}");
            }

            // Manifests are per scope.
            t1.swap_manifest(None, 0, b"m-acme").unwrap();
            assert_eq!(backend.read_manifest().unwrap(), None, "{kind}: root manifest untouched");
            assert_eq!(t2.read_manifest().unwrap(), None, "{kind}: sibling manifest untouched");
            assert_eq!(t1.read_manifest().unwrap().as_deref(), Some(&b"m-acme"[..]), "{kind}");

            // Only scopes holding a manifest are listed.
            assert_eq!(backend.scopes().unwrap(), vec!["acme".to_string()], "{kind}");
            t2.swap_manifest(None, 0, b"m-globex").unwrap();
            let mut names = backend.scopes().unwrap();
            names.sort();
            assert_eq!(names, ["acme", "globex"], "{kind}");

            // Quarantine inside a scope does not leak into siblings.
            // (LocalFs `list` also reports the MANIFEST file; callers
            // skip it by name, so these counts do too.)
            let chain = |store: &dyn ObjectStore| {
                store.list().unwrap().into_iter().filter(|o| o.name != MANIFEST_NAME).count()
            };
            t1.quarantine("full-000001.ebstore").unwrap();
            assert_eq!(chain(&*t1), 0, "{kind}: quarantined out of scope namespace");
            assert_eq!(chain(&*t2), 1, "{kind}: sibling untouched");
            assert_eq!(chain(&*backend), 1, "{kind}: root untouched");
        }
    }

    #[test]
    fn invalid_scope_names_are_refused() {
        for backend in backends("scope-names") {
            for name in ["", "a/b", "..", ".", ".hidden", "a\\b", "sp ace", "a:b"] {
                assert!(
                    matches!(backend.scope(name), Err(StoreError::Corrupt { .. })),
                    "{}: scope name {name:?} must be refused",
                    backend.kind()
                );
            }
            let long = "x".repeat(65);
            assert!(backend.scope(&long).is_err(), "{}: over-long name", backend.kind());
            assert!(backend.scope("t-1.prod_A").is_ok(), "{}: sane name", backend.kind());
        }
    }

    #[test]
    fn faulted_store_scopes_share_the_crash_countdown() {
        let fault = FaultInjector::new();
        let store = FaultedStore::new(MemBackend::new(), fault.clone());
        let tenant = store.scope("acme").unwrap();

        // begin=0, write=1 → finalize is the third mutation and dies.
        fault.arm(2);
        let mut up = tenant.put_atomic("x.ebstore").unwrap();
        up.write_all(b"payload").unwrap();
        assert!(up.finalize().is_err(), "scoped finalize crashes");
        assert!(fault.crashed());
        // The whole simulated process is dead: root reads fail too.
        assert!(store.list().is_err());
        assert!(store.scope("other").is_err());
        fault.arm(u64::MAX);
        assert!(tenant.list().unwrap().is_empty(), "crashed scoped upload never visible");
    }
}
