//! Shared backend harness for the lifecycle and crash-injection suites:
//! one fixture type that can create, reopen, and deep-copy a snapshot
//! store on every shipped [`ObjectStore`] backend, so the same invariants
//! run as a `{localfs, mem}` matrix.
//!
//! CI sets `EARLYBIRD_BACKEND` to pin one backend per matrix job; unset
//! (or `all`) runs every backend in-process.

use earlybird::engine::{
    CompactionTrigger, LifecycleConfig, LocalFsBackend, MemBackend, ObjectStore, Persistence,
    RetentionPolicy, SnapshotPolicy, StoreDir,
};
use earlybird::store::{BlockKind, CheckpointMeta, StoreResult, FORMAT_VERSION};
use std::io::Write as _;
use std::path::PathBuf;

/// One concrete store location a test can create, crash, and reopen.
/// For the in-memory backend the harness keeps the shared handle, so
/// a reopened store sees exactly what the "crashed" one committed — the
/// in-memory equivalent of a directory surviving a dead process.
pub enum Backend {
    /// A directory under the system temp dir.
    LocalFs(PathBuf),
    /// A shared in-memory store.
    Mem(MemBackend),
}

impl Backend {
    /// The backends selected for this run: both, or the single one
    /// named by `EARLYBIRD_BACKEND` (CI matrix).
    pub fn matrix(tag: &str) -> Vec<Backend> {
        let selected = std::env::var("EARLYBIRD_BACKEND").unwrap_or_else(|_| "all".into());
        let mut out = Vec::new();
        if matches!(selected.as_str(), "all" | "localfs") {
            out.push(Backend::LocalFs(Self::temp_root(tag)));
        }
        if matches!(selected.as_str(), "all" | "mem") {
            out.push(Backend::Mem(MemBackend::new()));
        }
        assert!(
            !out.is_empty(),
            "EARLYBIRD_BACKEND={selected:?} selects no backend (use localfs|mem|all)"
        );
        out
    }

    fn temp_root(tag: &str) -> PathBuf {
        let root =
            std::env::temp_dir().join(format!("earlybird-{tag}-localfs-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        root
    }

    /// Matrix key (matches the `EARLYBIRD_BACKEND` values).
    pub fn name(&self) -> &'static str {
        match self {
            Backend::LocalFs(_) => "localfs",
            Backend::Mem(_) => "mem",
        }
    }

    /// An empty store of the same kind (for sweep iterations that each
    /// need a pristine store).
    pub fn fresh(&self) -> Backend {
        match self {
            Backend::LocalFs(root) => {
                let _ = std::fs::remove_dir_all(root);
                Backend::LocalFs(root.clone())
            }
            Backend::Mem(_) => Backend::Mem(MemBackend::new()),
        }
    }

    /// A deep, independent copy of this store's current contents (for
    /// sweeps that replay many crashes against one master fixture).
    /// Recursive on the filesystem, so tenant scopes (`tenants/<name>/`)
    /// travel with the root store.
    pub fn fork_copy(&self, tag: &str) -> Backend {
        match self {
            Backend::LocalFs(root) => {
                let copy = Self::temp_root(tag);
                copy_tree(root, &copy);
                Backend::LocalFs(copy)
            }
            Backend::Mem(handle) => Backend::Mem(handle.fork()),
        }
    }

    /// The backend as a boxed root [`ObjectStore`] — what the service
    /// daemon mounts its tenant scopes under. For the in-memory backend
    /// the box is another handle on the same state, so a
    /// "restarted" daemon opened from the same [`Backend`] sees exactly
    /// what the previous one committed.
    pub fn boxed_store(&self) -> Box<dyn ObjectStore> {
        match self {
            Backend::LocalFs(root) => {
                std::fs::create_dir_all(root).expect("create localfs root");
                Box::new(LocalFsBackend::new(root).expect("open localfs root"))
            }
            Backend::Mem(handle) => Box::new(handle.clone()),
        }
    }

    /// Creates a fresh store here.
    pub fn create(&self, cfg: LifecycleConfig) -> StoreResult<StoreDir> {
        match self {
            Backend::LocalFs(root) => StoreDir::create(root, cfg),
            Backend::Mem(handle) => StoreDir::create_boxed(Box::new(handle.clone()), cfg),
        }
    }

    /// Reopens the store (what a restarted process would do).
    pub fn open(&self, cfg: LifecycleConfig) -> StoreResult<StoreDir> {
        match self {
            Backend::LocalFs(root) => StoreDir::open(root, cfg),
            Backend::Mem(handle) => StoreDir::open_boxed(Box::new(handle.clone()), cfg),
        }
    }

    /// Plants an unreferenced object through the backend's own upload
    /// path — crash residue for quarantine tests.
    pub fn plant_orphan(&self, name: &str, bytes: &[u8]) {
        match self {
            Backend::LocalFs(root) => std::fs::write(root.join(name), bytes).expect("plant file"),
            Backend::Mem(handle) => {
                let mut upload = handle.put_atomic(name).expect("begin orphan upload");
                upload.write_all(bytes).expect("stage orphan");
                upload.finalize().expect("finalize orphan");
            }
        }
    }

    /// Deletes an object out from under the manifest — simulated damage
    /// for missing-chain-object tests.
    pub fn delete_object(&self, name: &str) {
        match self {
            Backend::LocalFs(root) => std::fs::remove_file(root.join(name)).expect("remove file"),
            Backend::Mem(handle) => handle.delete(name).expect("delete object"),
        }
    }

    /// Removes any on-disk residue (no-op for the in-memory store).
    pub fn cleanup(&self) {
        if let Backend::LocalFs(root) = self {
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

/// A synchronous [`Persistence`] over a fresh in-memory store, compaction
/// left to explicit passes, holding `blocks` as a writer would have
/// committed them: the first as the full block, the rest as day segments.
/// Puts a hand-built or checked-in stream into a managed store.
pub fn mem_store_holding(blocks: &[&[u8]]) -> Persistence {
    let cfg = LifecycleConfig {
        compaction: CompactionTrigger::disabled(),
        retention: RetentionPolicy::default(),
    };
    let mut dir = StoreDir::create_boxed(Box::new(MemBackend::new()), cfg).expect("create store");
    for (i, block) in blocks.iter().enumerate() {
        let kind = if i == 0 { BlockKind::Full } else { BlockKind::DaySegment };
        let mut pending = dir.begin(kind).expect("begin block");
        pending.write_all(block).expect("stage block");
        // A block ends in its CRC-32, little-endian.
        let crc = block[block.len() - 4..].try_into().expect("a block ends in its checksum");
        let meta = CheckpointMeta {
            kind,
            format_version: FORMAT_VERSION,
            bytes: block.len() as u64,
            checksum: u32::from_le_bytes(crc),
            days: 0,
            retained_days: 0,
        };
        match kind {
            BlockKind::Full => dir.commit_full(pending, &meta),
            BlockKind::DaySegment => dir.commit_segment(pending, &meta),
        }
        .expect("commit block");
    }
    Persistence::new(dir, SnapshotPolicy::default())
}

/// Copies a directory tree (files + subdirectories) for LocalFs forks.
fn copy_tree(from: &std::path::Path, to: &std::path::Path) {
    std::fs::create_dir_all(to).expect("create copy dir");
    for entry in std::fs::read_dir(from).expect("read master dir") {
        let entry = entry.expect("dir entry");
        let target = to.join(entry.file_name());
        let kind = entry.file_type().expect("file type");
        if kind.is_dir() {
            copy_tree(&entry.path(), &target);
        } else if kind.is_file() {
            std::fs::copy(entry.path(), &target).expect("copy chain file");
        }
    }
}
