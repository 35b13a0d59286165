//! Manifest-driven snapshot lifecycle: bounded chains, atomic commits,
//! compaction, and retention GC — over any [`ObjectStore`] backend.
//!
//! The raw block layer ([`crate::frame`]) writes an append-only stream —
//! one full snapshot plus one segment per day — which is exactly wrong for
//! a service that runs for months: restore cost grows O(uptime) and
//! nothing ever prunes state. [`StoreDir`] turns that stream into a
//! *managed store*:
//!
//! ```text
//! store (an ObjectStore namespace — a directory, a memory map, a bucket)
//!   MANIFEST              small, CRC-protected, atomically swapped
//!   full-000003.ebstore   the chain's full snapshot
//!   seg-000004.ebstore    ordered O(day) segments …
//!   seg-000005.ebstore
//!   quarantine/…          orphaned / leftover objects moved aside at open
//! ```
//!
//! The `MANIFEST` records the ordered chain of `full + N segment` objects
//! (name, byte length, block CRC) under its own magic, version, and
//! trailing CRC-32. Every mutation follows the same discipline, phrased in
//! terms of the [`ObjectStore`] contract (see [`crate::backend`]):
//!
//! 1. stage the new object through [`ObjectStore::put_atomic`] (a tmp
//!    file or a buffered blob — the backend's business);
//! 2. finalize it, making it visible under its final name;
//! 3. swap the manifest via [`ObjectStore::swap_manifest`] — atomic, and
//!    conditional on the generation where the backend supports it;
//! 4. only then delete objects the new manifest no longer references
//!    (best-effort — failures are counted in [`StoreDir::gc_failures`],
//!    and leftovers are quarantined at the next open).
//!
//! A crash between any two steps leaves either the old chain or the new
//! one, never a torn store: staged uploads and committed-but-unreferenced
//! blocks are swept into quarantine by [`StoreDir::open`], which restores
//! in O(current state) regardless of uptime. The crash suites prove this
//! for every backend by counting *backend mutations* through a
//! [`FaultedStore`] wrapper and killing each
//! one in turn.
//!
//! Compaction and retention *policy* lives here ([`LifecycleConfig`]); the
//! pass itself needs the engine's state codec to fold the chain, so it
//! lives in `earlybird-engine` (`Persistence::compact`, also run by a
//! commit once the [`CompactionTrigger`] fires): fold the whole chain into
//! one full snapshot, optionally prune contact indexes past
//! [`RetentionPolicy::retain_days`] (their counters stay in the full block
//! — the full block is the source of truth for evicted days), write one
//! new full block, and atomically swap the manifest to it via
//! [`StoreDir::commit_full`].

use crate::backend::{
    FaultInjector, FaultedStore, LocalFsBackend, MemBackend, ObjectStore, ObjectUpload,
    MANIFEST_NAME,
};
use crate::codec::{crc32, Decoder, Encoder};
use crate::error::{StoreError, StoreResult};
use crate::frame::{BlockKind, CheckpointMeta};
use earlybird_obs::{Counter, MetricsRegistry, StageTimer};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, BufWriter, Read, Write};
use std::path::PathBuf;

/// Magic bytes opening the `MANIFEST` object.
pub const MANIFEST_MAGIC: [u8; 8] = *b"EBMANIF1";

/// Newest manifest layout revision this build reads and writes.
pub const MANIFEST_VERSION: u16 = 1;

// -- policy -----------------------------------------------------------------

/// When the segment chain is folded back into a single full block.
///
/// The trigger fires once the chain holds more than `max_segments`
/// segments, and the pass then folds the whole chain; with `None`
/// compaction never runs automatically (it can still be invoked
/// explicitly).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CompactionTrigger {
    /// Compact once the chain holds more than this many segments.
    pub max_segments: Option<usize>,
}

impl Default for CompactionTrigger {
    /// Compact past 32 segments — roughly a month of daily cycles.
    fn default() -> Self {
        CompactionTrigger { max_segments: Some(32) }
    }
}

impl CompactionTrigger {
    /// A trigger that never fires (explicit-compaction-only stores).
    pub fn disabled() -> Self {
        CompactionTrigger { max_segments: None }
    }
}

/// How much per-day state a compacted full block keeps investigable.
///
/// Retention prunes the *contact indexes* of days older than the newest
/// `retain_days` during compaction; the pruned days' counter reports are
/// still folded into the full block first, so no acknowledged day ever
/// disappears from the record — the full block stays the source of truth
/// for evicted days.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RetentionPolicy {
    /// Keep only the newest N days' contact indexes through a compaction;
    /// `None` keeps every retained index. Must be at least 1: a store
    /// constructor refuses `Some(0)`, which would prune every index.
    pub retain_days: Option<usize>,
}

/// The lifecycle knobs of a [`StoreDir`]: compaction trigger plus retention
/// policy. Operational, not part of the stored format — two processes may
/// open the same store with different configurations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LifecycleConfig {
    /// When the segment chain is compacted.
    pub compaction: CompactionTrigger,
    /// What a compaction keeps investigable.
    pub retention: RetentionPolicy,
}

/// Refuses a configuration the engine itself would reject: a zero
/// retention window would drop every retained contact index at the next
/// compaction.
fn validate_config(cfg: &LifecycleConfig) -> StoreResult<()> {
    if cfg.retention.retain_days == Some(0) {
        return Err(StoreError::corrupt("retain_days must be at least 1"));
    }
    Ok(())
}

/// Outcome of one compaction pass (produced by the engine crate's
/// `Persistence::compact`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompactionReport {
    /// Segments folded into the new full block.
    pub segments_folded: usize,
    /// Chain bytes before the pass (full + segments).
    pub bytes_before: u64,
    /// Bytes of the new full block — the whole chain after the pass.
    pub bytes_after: u64,
    /// Retained contact indexes pruned by the retention policy.
    pub days_pruned: usize,
    /// Superseded chain objects whose best-effort GC deletion failed
    /// during the pass (they leak until the next open quarantines them) —
    /// non-fatal, but operators should watch it.
    pub gc_failures: u64,
    /// Names of the objects behind [`CompactionReport::gc_failures`], so
    /// operators can reconcile leaked objects against
    /// [`StoreDir::quarantined`] after the next open.
    pub gc_failed_objects: Vec<String>,
    /// The new full block's summary.
    pub full: CheckpointMeta,
}

// -- manifest ---------------------------------------------------------------

/// One object of the chain, as recorded by the manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ManifestEntry {
    /// Full snapshot or day segment.
    pub kind: BlockKind,
    /// Object name within the store's namespace.
    pub name: String,
    /// Expected byte length (block including magic and CRC).
    pub bytes: u64,
    /// The block's CRC-32, as reported at commit time.
    pub crc: u32,
}

/// The decoded `MANIFEST`: a generation counter plus the ordered chain.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Manifest {
    /// Monotonic commit counter; also seeds unique chain object names and
    /// conditions the backend's manifest swap.
    generation: u64,
    entries: Vec<ManifestEntry>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut e = Encoder::new();
        let mut out = Vec::from(MANIFEST_MAGIC);
        e.varint(MANIFEST_VERSION as u64);
        e.varint(self.generation);
        e.usizev(self.entries.len());
        for entry in &self.entries {
            e.u8(entry.kind.to_byte());
            e.str(&entry.name);
            e.varint(entry.bytes);
            e.varint(entry.crc as u64);
        }
        out.extend_from_slice(&e.into_bytes());
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> StoreResult<Manifest> {
        if bytes.len() < MANIFEST_MAGIC.len() + 4 {
            return Err(StoreError::Truncated { context: "manifest" });
        }
        if bytes[..MANIFEST_MAGIC.len()] != MANIFEST_MAGIC {
            return Err(StoreError::BadMagic);
        }
        let (body, stored) = bytes.split_at(bytes.len() - 4);
        let stored = u32::from_le_bytes(stored.try_into().expect("4 bytes"));
        let computed = crc32(body);
        if stored != computed {
            return Err(StoreError::ChecksumMismatch { expected: stored, found: computed });
        }
        let mut d = Decoder::new(&body[MANIFEST_MAGIC.len()..], "manifest");
        let version = d.varint()?;
        if version > MANIFEST_VERSION as u64 {
            return Err(StoreError::UnsupportedVersion {
                found: version.min(u16::MAX as u64) as u16,
                supported: MANIFEST_VERSION,
            });
        }
        let generation = d.varint()?;
        let n = d.seq_len(3)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let kind = BlockKind::from_byte(d.u8()?)?;
            let name = d.str()?;
            if name.is_empty()
                || name.contains(['/', '\\'])
                || name == ".."
                || name == MANIFEST_NAME
            {
                return Err(StoreError::corrupt(format!("manifest entry name {name:?} invalid")));
            }
            let bytes = d.varint()?;
            let crc = u32::try_from(d.varint()?)
                .map_err(|_| StoreError::corrupt("manifest entry CRC exceeds u32"))?;
            entries.push(ManifestEntry { kind, name, bytes, crc });
        }
        d.finish()?;
        for (i, entry) in entries.iter().enumerate() {
            let expected = if i == 0 { BlockKind::Full } else { BlockKind::DaySegment };
            if entry.kind != expected {
                return Err(StoreError::corrupt(format!(
                    "manifest entry {i} is a {:?} block; expected {expected:?}",
                    entry.kind
                )));
            }
            if entries[..i].iter().any(|prev| prev.name == entry.name) {
                return Err(StoreError::corrupt(format!("manifest lists {:?} twice", entry.name)));
            }
        }
        Ok(Manifest { generation, entries })
    }
}

// -- pending blocks ---------------------------------------------------------

/// A chain object being written: a staged [`ObjectUpload`] that becomes
/// visible only when committed through [`StoreDir::commit_full`] /
/// [`StoreDir::commit_segment`]. Dropping it uncommitted abandons the
/// upload — at most staging residue remains, which the next
/// [`StoreDir::open`] quarantines.
#[derive(Debug)]
pub struct PendingBlock {
    kind: BlockKind,
    name: String,
    upload: BufWriter<Box<dyn ObjectUpload>>,
}

impl Write for PendingBlock {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.upload.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.upload.flush()
    }
}

impl PendingBlock {
    /// Flushes the staging buffer and hands back the raw upload for
    /// commit.
    fn seal(mut self) -> StoreResult<(BlockKind, String, Box<dyn ObjectUpload>)> {
        self.upload.flush()?;
        let upload = self.upload.into_inner().map_err(|e| StoreError::Io(e.into_error()))?;
        Ok((self.kind, self.name, upload))
    }
}

// -- metrics ----------------------------------------------------------------

/// Cached metric handles for one store, labeled by backend kind (plus any
/// caller labels, e.g. the owning tenant). `None` until
/// [`StoreDir::attach_metrics`] — every instrumentation point is a plain
/// `if let`, so an unattached store pays nothing.
#[derive(Clone, Debug)]
struct StoreMetrics {
    commit: StageTimer,
    put: StageTimer,
    swap: StageTimer,
    get: StageTimer,
    commit_bytes: Counter,
    gc_failures: Counter,
    quarantined: Counter,
}

impl StoreMetrics {
    fn new(registry: &MetricsRegistry, backend: &'static str, extra: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(&str, &str)> = vec![("backend", backend)];
        labels.extend(extra.iter().copied());
        StoreMetrics {
            commit: registry.timer(
                "store_commit_micros",
                "Wall time of one chain commit: seal, finalize, manifest swap, GC",
                &labels,
            ),
            put: registry.timer(
                "store_put_micros",
                "Wall time finalizing one staged object upload",
                &labels,
            ),
            swap: registry.timer(
                "store_swap_micros",
                "Wall time of one atomic manifest swap",
                &labels,
            ),
            get: registry.timer(
                "store_get_micros",
                "Wall time opening one chain object for read",
                &labels,
            ),
            commit_bytes: registry.counter(
                "store_commit_bytes_total",
                "Bytes committed into the chain",
                &labels,
            ),
            gc_failures: registry.counter(
                "store_gc_failures_total",
                "Best-effort GC deletions that failed (objects leak until quarantined)",
                &labels,
            ),
            quarantined: registry.counter(
                "store_quarantined_total",
                "Orphaned objects moved into quarantine at open",
                &labels,
            ),
        }
    }
}

// -- the store directory ----------------------------------------------------

/// A snapshot store owned through its manifest: every visible chain
/// mutation is an atomic manifest swap, so a crash at any point leaves
/// either the old chain or the new one. See the module docs for the layout
/// and the commit discipline.
///
/// The storage medium is pluggable: [`StoreDir::create`] / [`StoreDir::open`]
/// keep the original local-directory signatures (via
/// [`LocalFsBackend`]), and the `_boxed` constructors accept any boxed
/// [`ObjectStore`] — in-memory, or a real object-store adapter.
#[derive(Debug)]
pub struct StoreDir {
    backend: Box<dyn ObjectStore>,
    cfg: LifecycleConfig,
    manifest: Manifest,
    quarantined: Vec<String>,
    gc_failures: u64,
    gc_failed: Vec<String>,
    metrics: Option<StoreMetrics>,
}

impl StoreDir {
    /// Creates a fresh store on a local directory (parents included) with
    /// an empty chain — shorthand for [`StoreDir::create_boxed`] over a
    /// [`LocalFsBackend`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failures; a directory that already
    /// holds a `MANIFEST` is refused as [`StoreError::Corrupt`] — use
    /// [`StoreDir::open`] (or [`StoreDir::open_or_create`]) for those.
    /// An invalid `cfg` (a zero [`RetentionPolicy::retain_days`]) is
    /// [`StoreError::Corrupt`] too.
    pub fn create(root: impl Into<PathBuf>, cfg: LifecycleConfig) -> StoreResult<Self> {
        Self::create_boxed(Box::new(LocalFsBackend::new(root)?), cfg)
    }

    /// Creates a fresh store with an empty chain on any backend, boxed —
    /// the shape [`ObjectStore::scope`] hands out, so per-tenant stores
    /// can be created under a shared backend.
    ///
    /// # Errors
    ///
    /// As for [`StoreDir::create`], plus [`StoreError::ManifestConflict`]
    /// when a concurrent writer creates the store first (conditional
    /// backends).
    pub fn create_boxed(backend: Box<dyn ObjectStore>, cfg: LifecycleConfig) -> StoreResult<Self> {
        validate_config(&cfg)?;
        if backend.read_manifest()?.is_some() {
            return Err(StoreError::corrupt(format!(
                "{} already holds a store (open it instead of creating over it)",
                backend.describe()
            )));
        }
        let manifest = Manifest::default();
        backend.swap_manifest(None, manifest.generation, &manifest.encode())?;
        Ok(StoreDir {
            backend,
            cfg,
            manifest,
            quarantined: Vec::new(),
            gc_failures: 0,
            gc_failed: Vec::new(),
            metrics: None,
        })
    }

    /// Opens an existing store on a local directory — shorthand for
    /// [`StoreDir::open_boxed`] over a [`LocalFsBackend`]. Byte-compatible
    /// with directories written before the backend split.
    ///
    /// # Errors
    ///
    /// As for [`StoreDir::open_boxed`].
    pub fn open(root: impl Into<PathBuf>, cfg: LifecycleConfig) -> StoreResult<Self> {
        Self::open_boxed(Box::new(LocalFsBackend::new(root)?), cfg)
    }

    /// Opens an existing store on any backend, boxed — the shape
    /// [`ObjectStore::scope`] hands out, so per-tenant stores can be
    /// reopened under a shared backend. Reads and validates the
    /// `MANIFEST` (magic, version, CRC, entry ordering), verifies every
    /// referenced chain object exists with its recorded length, and sweeps
    /// orphaned objects — leftover `*.tmp`s and `*.ebstore` blocks no
    /// manifest references, the residue of a crash — into quarantine.
    ///
    /// Open (and the restore that follows) is O(current state): however
    /// long the service ran, the chain holds one full block plus the
    /// segments appended since the last compaction.
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s for a missing, corrupt, or future-versioned
    /// manifest, and for manifest-referenced objects that are missing or
    /// damaged (a broken chain is surfaced, never silently repaired). A
    /// store that needs a quarantine sweep but refuses writes fails up
    /// front as [`StoreError::ReadOnlyStore`]. An invalid `cfg` (a zero
    /// [`RetentionPolicy::retain_days`]) is [`StoreError::Corrupt`].
    pub fn open_boxed(backend: Box<dyn ObjectStore>, cfg: LifecycleConfig) -> StoreResult<Self> {
        validate_config(&cfg)?;
        let Some(manifest_bytes) = backend.read_manifest()? else {
            return Err(StoreError::corrupt(format!(
                "{} has no MANIFEST: not a store",
                backend.describe()
            )));
        };
        let manifest = Manifest::decode(&manifest_bytes)?;
        let mut dir = StoreDir {
            backend,
            cfg,
            manifest,
            quarantined: Vec::new(),
            gc_failures: 0,
            gc_failed: Vec::new(),
            metrics: None,
        };
        dir.validate_chain()?;
        dir.sweep_orphans()?;
        Ok(dir)
    }

    /// [`StoreDir::open`] when a manifest exists, [`StoreDir::create`]
    /// otherwise — the idiomatic entry point for a daily-cycle service on
    /// a local directory.
    ///
    /// # Errors
    ///
    /// As for [`StoreDir::open`] / [`StoreDir::create`].
    pub fn open_or_create(root: impl Into<PathBuf>, cfg: LifecycleConfig) -> StoreResult<Self> {
        Self::open_or_create_boxed(Box::new(LocalFsBackend::new(root)?), cfg)
    }

    /// [`StoreDir::open_or_create`] for any boxed backend — the idiomatic
    /// entry point for a per-tenant store under a shared, scoped
    /// [`ObjectStore`].
    ///
    /// # Errors
    ///
    /// As for [`StoreDir::open_boxed`] / [`StoreDir::create_boxed`].
    pub fn open_or_create_boxed(
        backend: Box<dyn ObjectStore>,
        cfg: LifecycleConfig,
    ) -> StoreResult<Self> {
        if backend.read_manifest()?.is_some() {
            Self::open_boxed(backend, cfg)
        } else {
            Self::create_boxed(backend, cfg)
        }
    }

    // -- accessors ----------------------------------------------------------

    /// The backend this store runs on.
    pub fn backend(&self) -> &dyn ObjectStore {
        self.backend.as_ref()
    }

    /// The lifecycle configuration supplied at open/create.
    pub fn config(&self) -> &LifecycleConfig {
        &self.cfg
    }

    /// The manifest's monotonic commit counter.
    pub fn generation(&self) -> u64 {
        self.manifest.generation
    }

    /// The ordered chain recorded by the manifest.
    pub fn entries(&self) -> &[ManifestEntry] {
        &self.manifest.entries
    }

    /// Whether the chain holds no blocks yet.
    pub fn is_empty(&self) -> bool {
        self.manifest.entries.is_empty()
    }

    /// Segments currently in the chain (excludes the full block).
    pub fn segment_count(&self) -> usize {
        self.manifest.entries.len().saturating_sub(1)
    }

    /// Total bytes of the whole chain (full block + segments).
    pub fn chain_bytes(&self) -> u64 {
        self.manifest.entries.iter().map(|e| e.bytes).sum()
    }

    /// Whether the configured [`CompactionTrigger`] has fired.
    pub fn compaction_due(&self) -> bool {
        self.cfg.compaction.max_segments.is_some_and(|n| self.segment_count() > n)
    }

    /// Objects moved into quarantine by [`StoreDir::open`] (paths for the
    /// local backend, quarantine keys otherwise).
    pub fn quarantined(&self) -> &[String] {
        &self.quarantined
    }

    /// Superseded chain objects whose best-effort GC deletion has failed
    /// over this handle's lifetime. Non-fatal — the objects leak until the
    /// next open quarantines them — but a growing count means the backend
    /// is refusing deletes and an operator should look.
    pub fn gc_failures(&self) -> u64 {
        self.gc_failures
    }

    /// Names of the objects behind [`StoreDir::gc_failures`], in the order
    /// the deletions failed — reconcile against [`StoreDir::quarantined`]
    /// after the next open to confirm the leaks were collected.
    pub fn gc_failed_objects(&self) -> &[String] {
        &self.gc_failed
    }

    /// Attaches this store to a [`MetricsRegistry`]: commit / put / swap /
    /// get latencies, committed bytes, GC failures, and quarantine counts
    /// flow into `store_*` series labeled by backend kind plus
    /// `extra_labels` (e.g. the owning tenant). Counts accrued before the
    /// attach — a quarantine sweep at open happens first by construction —
    /// are folded in so the registry never under-reports this handle.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry, extra_labels: &[(&str, &str)]) {
        let metrics = StoreMetrics::new(registry, self.backend.kind(), extra_labels);
        metrics.gc_failures.add(self.gc_failures);
        metrics.quarantined.add(self.quarantined.len() as u64);
        self.metrics = Some(metrics);
    }

    /// Installs a [`FaultInjector`] for durability tests by wrapping the
    /// backend in a [`FaultedStore`]; every subsequent backend mutation is
    /// accounted against it.
    pub fn set_fault_injector(&mut self, fault: FaultInjector) {
        let inner = std::mem::replace(&mut self.backend, Box::new(MemBackend::new()));
        self.backend = Box::new(FaultedStore::boxed(inner, fault));
    }

    // -- reading ------------------------------------------------------------

    /// A reader over the chain in manifest order — exactly the
    /// `full + N segments` stream `EngineBuilder::restore_stream` reads.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] if a chain object cannot be opened (surfaced
    /// lazily per object while reading).
    pub fn reader(&self) -> StoreResult<ChainReader<'_>> {
        let names: Vec<String> = self.manifest.entries.iter().map(|e| e.name.clone()).collect();
        Ok(ChainReader {
            backend: self.backend.as_ref(),
            names: names.into_iter(),
            current: None,
            get_timer: self.metrics.as_ref().map(|m| m.get.clone()),
        })
    }

    // -- writing ------------------------------------------------------------

    /// Opens a new chain object of `kind`, staged invisibly until
    /// committed. The returned handle implements [`Write`]; hand it to the
    /// engine's block writer, then commit via [`StoreDir::commit_full`] /
    /// [`StoreDir::commit_segment`].
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when a segment is begun on an empty chain
    /// (a full snapshot must exist first); backend errors otherwise.
    pub fn begin(&self, kind: BlockKind) -> StoreResult<PendingBlock> {
        if kind == BlockKind::DaySegment && self.is_empty() {
            return Err(StoreError::corrupt(
                "cannot append a segment to an empty store: write a full snapshot first",
            ));
        }
        let name = Self::chain_name(kind, self.manifest.generation + 1);
        let upload = self.backend.put_atomic(&name)?;
        Ok(PendingBlock { kind, name, upload: BufWriter::with_capacity(256 * 1024, upload) })
    }

    fn chain_name(kind: BlockKind, generation: u64) -> String {
        let prefix = if kind == BlockKind::Full { "full" } else { "seg" };
        format!("{prefix}-{generation:06}.ebstore")
    }

    /// Commits a full snapshot, **replacing the whole chain**: the pending
    /// object is finalized as `full-<generation>.ebstore`, the manifest
    /// atomically swaps to reference only it, and the previous chain's
    /// objects are deleted best-effort (failures count in
    /// [`StoreDir::gc_failures`]; a crash before deletion leaves them for
    /// quarantine). This is both the first-checkpoint path and the
    /// compaction commit.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when `pending` is not a full block or `meta`
    /// disagrees with it; backend errors (including
    /// [`StoreError::ManifestConflict`] on a lost multi-writer race)
    /// otherwise.
    pub fn commit_full(&mut self, pending: PendingBlock, meta: &CheckpointMeta) -> StoreResult<()> {
        self.commit(pending, meta, BlockKind::Full)
    }

    /// Commits a day segment: the pending object is finalized as
    /// `seg-<generation>.ebstore` and the manifest atomically swaps to a
    /// copy with the segment appended to the chain.
    ///
    /// # Errors
    ///
    /// [`StoreError::Corrupt`] when `pending` is not a segment block, the
    /// chain is empty, or `meta` disagrees with the bytes written; backend
    /// errors otherwise.
    pub fn commit_segment(
        &mut self,
        pending: PendingBlock,
        meta: &CheckpointMeta,
    ) -> StoreResult<()> {
        self.commit(pending, meta, BlockKind::DaySegment)
    }

    /// Splices a sealed block into the manifest: a full block replaces
    /// the whole chain (first checkpoint or compaction), a segment is
    /// appended.
    fn commit(
        &mut self,
        pending: PendingBlock,
        meta: &CheckpointMeta,
        expect: BlockKind,
    ) -> StoreResult<()> {
        let _commit_span = self.metrics.as_ref().map(|m| m.commit.start());
        if pending.kind != expect || meta.kind != expect {
            return Err(StoreError::corrupt(format!(
                "commit of a {expect:?} block was handed a {:?} pending / {:?} meta",
                pending.kind, meta.kind
            )));
        }
        if expect == BlockKind::DaySegment && self.is_empty() {
            return Err(StoreError::corrupt(
                "cannot commit a segment to an empty store: write a full snapshot first",
            ));
        }
        let (kind, name, upload) = pending.seal()?;
        let generation = self.manifest.generation + 1;
        if name != Self::chain_name(kind, generation) {
            // A pending block begun before an intervening commit carries a
            // generation-stale name; committing it would duplicate a chain
            // entry and brick the manifest. Abandon it (drop) instead.
            return Err(StoreError::corrupt(format!(
                "pending block {name:?} was begun at an earlier generation (the chain has moved \
                 to {}); begin a fresh block",
                self.manifest.generation
            )));
        }
        let staged = upload.bytes_staged();
        if staged != meta.bytes {
            // Abandon the upload (drop): it never becomes visible.
            return Err(StoreError::corrupt(format!(
                "pending block holds {staged} bytes but its meta claims {}",
                meta.bytes
            )));
        }
        {
            let _put_span = self.metrics.as_ref().map(|m| m.put.start());
            upload.finalize()?;
        }

        let mut next = self.manifest.clone();
        next.generation = generation;
        let entry = ManifestEntry { kind, name, bytes: meta.bytes, crc: meta.checksum };
        let replaced: Vec<String> = match kind {
            BlockKind::Full => next.entries.drain(..).map(|e| e.name).collect(),
            BlockKind::DaySegment => Vec::new(),
        };
        next.entries.push(entry);
        {
            let _swap_span = self.metrics.as_ref().map(|m| m.swap.start());
            self.backend.swap_manifest(
                Some(self.manifest.generation),
                next.generation,
                &next.encode(),
            )?;
        }
        self.manifest = next;
        if let Some(m) = &self.metrics {
            m.commit_bytes.add(meta.bytes);
        }

        // The old chain is unreferenced now; deletion is garbage
        // collection, not correctness. A failure (or a crash) leaves
        // orphans for the next open's quarantine sweep — counted so
        // operators can see objects leaking.
        for name in replaced {
            if self.backend.delete(&name).is_err() {
                self.gc_failures += 1;
                self.gc_failed.push(name);
                if let Some(m) = &self.metrics {
                    m.gc_failures.inc();
                }
            }
        }
        Ok(())
    }

    // -- internals ----------------------------------------------------------

    /// Verifies every manifest-referenced object exists with its recorded
    /// length. Content integrity is the block CRC's job during restore.
    fn validate_chain(&self) -> StoreResult<()> {
        let listed: BTreeMap<String, u64> =
            self.backend.list()?.into_iter().map(|o| (o.name, o.bytes)).collect();
        for entry in &self.manifest.entries {
            let Some(&bytes) = listed.get(&entry.name) else {
                return Err(StoreError::corrupt(format!(
                    "manifest references {:?}, which is missing from the store",
                    entry.name
                )));
            };
            if bytes != entry.bytes {
                return Err(StoreError::corrupt(format!(
                    "chain object {:?} holds {bytes} bytes; manifest records {}",
                    entry.name, entry.bytes
                )));
            }
        }
        Ok(())
    }

    /// Moves unreferenced store objects (crash residue: `*.tmp`,
    /// superseded or never-committed `*.ebstore`) into quarantine. When a
    /// sweep is needed, the backend's writability is probed *first* so a
    /// read-only store fails whole with a typed error instead of
    /// half-swept with a raw I/O one.
    fn sweep_orphans(&mut self) -> StoreResult<()> {
        let mut orphans = Vec::new();
        for object in self.backend.list()? {
            let name = object.name;
            if name == MANIFEST_NAME {
                continue;
            }
            let ours = name.ends_with(".ebstore") || name.ends_with(".tmp");
            let referenced = self.manifest.entries.iter().any(|e| e.name == name);
            if ours && !referenced {
                orphans.push(name);
            }
        }
        if orphans.is_empty() {
            return Ok(());
        }
        self.backend.ensure_mutable()?;
        orphans.sort();
        for name in orphans {
            let target = self.backend.quarantine(&name)?;
            self.quarantined.push(target);
        }
        Ok(())
    }
}

// -- chain reader -----------------------------------------------------------

/// Sequential [`Read`] over the manifest's chain objects, in order — the
/// one stream a restore (`EngineBuilder::restore_stream`,
/// `Persistence::restore`) and a compaction both read.
pub struct ChainReader<'a> {
    backend: &'a dyn ObjectStore,
    names: std::vec::IntoIter<String>,
    current: Option<Box<dyn Read + Send>>,
    get_timer: Option<StageTimer>,
}

impl fmt::Debug for ChainReader<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChainReader")
            .field("backend", &self.backend.kind())
            .field("remaining", &self.names.len())
            .finish_non_exhaustive()
    }
}

impl Read for ChainReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            if self.current.is_none() {
                match self.names.next() {
                    Some(name) => {
                        let _get_span = self.get_timer.as_ref().map(|t| t.start());
                        let reader = self.backend.get(&name).map_err(|e| match e {
                            StoreError::Io(e) => e,
                            other => io::Error::other(other.to_string()),
                        })?;
                        self.current = Some(reader);
                    }
                    None => return Ok(0),
                }
            }
            let n = self.current.as_mut().expect("object open").read(buf)?;
            if n > 0 || buf.is_empty() {
                return Ok(n);
            }
            self.current = None; // EOF on this object; advance the chain.
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn tmp_root(tag: &str) -> PathBuf {
        let root = std::env::temp_dir()
            .join(format!("earlybird-lifecycle-unit-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        root
    }

    #[test]
    fn manifest_roundtrips_and_rejects_damage() {
        let manifest = Manifest {
            generation: 7,
            entries: vec![
                ManifestEntry {
                    kind: BlockKind::Full,
                    name: "full-000005.ebstore".into(),
                    bytes: 1234,
                    crc: 0xDEAD_BEEF,
                },
                ManifestEntry {
                    kind: BlockKind::DaySegment,
                    name: "seg-000006.ebstore".into(),
                    bytes: 56,
                    crc: 1,
                },
            ],
        };
        let bytes = manifest.encode();
        assert_eq!(Manifest::decode(&bytes).unwrap(), manifest);

        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(Manifest::decode(&bad).is_err(), "flip at byte {i} must be detected");
        }
        for cut in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut} must be detected");
        }
    }

    #[test]
    fn manifest_rejects_structural_violations() {
        // Segment-first chain.
        let m = Manifest {
            generation: 1,
            entries: vec![ManifestEntry {
                kind: BlockKind::DaySegment,
                name: "seg-000001.ebstore".into(),
                bytes: 1,
                crc: 0,
            }],
        };
        assert!(matches!(Manifest::decode(&m.encode()), Err(StoreError::Corrupt { .. })));

        // Path traversal in a name.
        let m = Manifest {
            generation: 1,
            entries: vec![ManifestEntry {
                kind: BlockKind::Full,
                name: "../evil.ebstore".into(),
                bytes: 1,
                crc: 0,
            }],
        };
        assert!(matches!(Manifest::decode(&m.encode()), Err(StoreError::Corrupt { .. })));

        // Duplicate names.
        let entry = ManifestEntry {
            kind: BlockKind::DaySegment,
            name: "seg-000002.ebstore".into(),
            bytes: 1,
            crc: 0,
        };
        let m = Manifest {
            generation: 2,
            entries: vec![
                ManifestEntry {
                    kind: BlockKind::Full,
                    name: "full-000001.ebstore".into(),
                    bytes: 1,
                    crc: 0,
                },
                entry.clone(),
                entry,
            ],
        };
        assert!(matches!(Manifest::decode(&m.encode()), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn create_then_open_roundtrips_an_empty_chain() {
        let root = tmp_root("create");
        let dir = StoreDir::create(&root, LifecycleConfig::default()).unwrap();
        assert!(dir.is_empty());
        assert_eq!(dir.generation(), 0);
        drop(dir);

        assert!(
            matches!(
                StoreDir::create(&root, LifecycleConfig::default()),
                Err(StoreError::Corrupt { .. })
            ),
            "creating over an existing store must be refused"
        );
        let reopened = StoreDir::open(&root, LifecycleConfig::default()).unwrap();
        assert!(reopened.is_empty());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn create_then_open_roundtrips_on_every_backend() {
        let dir = StoreDir::create_boxed(Box::new(MemBackend::new()), LifecycleConfig::default())
            .unwrap();
        assert!(dir.is_empty());
        assert_eq!(dir.generation(), 0);
    }

    #[test]
    fn open_requires_a_manifest() {
        let root = tmp_root("no-manifest");
        fs::create_dir_all(&root).unwrap();
        assert!(matches!(
            StoreDir::open(&root, LifecycleConfig::default()),
            Err(StoreError::Corrupt { .. })
        ));
        fs::remove_dir_all(&root).unwrap();

        assert!(matches!(
            StoreDir::open_boxed(Box::new(MemBackend::new()), LifecycleConfig::default()),
            Err(StoreError::Corrupt { .. })
        ));
    }

    #[test]
    fn compaction_trigger_fires_past_max_segments() {
        let root = tmp_root("trigger");
        let mut dir = StoreDir::create(
            &root,
            LifecycleConfig {
                compaction: CompactionTrigger { max_segments: Some(2) },
                retention: RetentionPolicy::default(),
            },
        )
        .unwrap();
        // Simulate manifest states without real blocks.
        dir.manifest.entries.push(ManifestEntry {
            kind: BlockKind::Full,
            name: "full-000001.ebstore".into(),
            bytes: 10,
            crc: 0,
        });
        assert!(!dir.compaction_due());
        for i in 0..3 {
            dir.manifest.entries.push(ManifestEntry {
                kind: BlockKind::DaySegment,
                name: format!("seg-00000{}.ebstore", i + 2),
                bytes: 10,
                crc: 0,
            });
        }
        assert!(dir.compaction_due(), "3 segments > max 2");
        dir.manifest.entries.truncate(3);
        assert!(!dir.compaction_due(), "2 segments is not past max 2");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn zero_retention_window_is_refused_at_create_and_open() {
        let root = tmp_root("retain-zero");
        let zero = LifecycleConfig {
            retention: RetentionPolicy { retain_days: Some(0) },
            ..LifecycleConfig::default()
        };
        assert!(matches!(StoreDir::create(&root, zero), Err(StoreError::Corrupt { .. })));
        assert!(
            matches!(StoreDir::open_or_create(&root, zero), Err(StoreError::Corrupt { .. })),
            "the refusal comes before any manifest is written"
        );
        StoreDir::create(&root, LifecycleConfig::default()).unwrap();
        assert!(matches!(StoreDir::open(&root, zero), Err(StoreError::Corrupt { .. })));
        let one = LifecycleConfig { retention: RetentionPolicy { retain_days: Some(1) }, ..zero };
        StoreDir::open(&root, one).expect("a one-day window is valid");
        fs::remove_dir_all(&root).unwrap();
    }
}
