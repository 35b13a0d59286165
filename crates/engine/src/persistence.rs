//! The unified persistence facade: one handle, one policy, no pauses.
//!
//! [`Persistence`] owns a [`StoreDir`] and drives the whole
//! freeze → serialize → commit → compact cycle behind a single entry
//! point, [`Persistence::commit`]:
//!
//! 1. the engine's state is frozen into an [`crate::EngineSnapshot`]
//!    under a short critical section — a full [`Engine::freeze`] while
//!    the chain is empty, an O(day) [`Engine::freeze_day`] segment after
//!    that;
//! 2. the frozen view serializes and commits through the store —
//!    inline ([`CommitMode::Sync`]) or on the handle's background worker
//!    thread ([`CommitMode::Background`]), where ingestion continues
//!    while the bytes travel;
//! 3. if the store's compaction trigger has fired, the chain is folded —
//!    whole-chain, or only its oldest `K` segments when the trigger's
//!    `fold_segments` is set.
//!
//! Every commit returns a [`CommitHandle`]; [`CommitHandle::wait`] blocks
//! until the bytes are durable and yields the [`CommitOutcome`] — this is
//! what a serving layer awaits before acknowledging a day as persisted.
//!
//! # Failure contract
//!
//! Freezing advances the engine's persist cursor *eagerly*: the engine
//! assumes frozen bytes will reach the chain. If a block write or commit
//! fails, the handle **poisons itself** — every later
//! [`Persistence::commit`] / [`Persistence::drain`] returns
//! [`StoreError::PersistencePoisoned`] — because the next delta would
//! silently assume state the chain never received. The store itself stays
//! intact (failed commits never become visible): recover by restoring
//! from it ([`Persistence::restore`]) and resuming from the restored
//! engine, exactly as after a crash. A *compaction* failure does not
//! poison: the freshly committed block is already durable and the old
//! chain remains valid, so the error is reported on the handle and the
//! cycle may simply continue.

use crate::builder::EngineBuilder;
use crate::core_loop::Engine;
use crate::metrics::EngineMetrics;
use crate::persist::{compact_prefix, EngineSnapshot};
use earlybird_logmodel::DomainInterner;
use earlybird_store::{
    BlockKind, CheckpointMeta, CompactionReport, StoreDir, StoreError, StoreResult,
};
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Where a [`Persistence::commit`] serializes and commits the frozen
/// snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommitMode {
    /// On the calling thread; the returned handle is already resolved.
    #[default]
    Sync,
    /// On the handle's worker thread; ingestion continues while the
    /// bytes travel. Commits are applied strictly in submission order.
    Background,
}

/// How a [`Persistence`] handle commits. Compaction follows the store's
/// own [`crate::CompactionTrigger`].
///
/// `SnapshotPolicy::default()` commits inline;
/// `SnapshotPolicy::default().background()` is the always-on daily cycle,
/// committing off-thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Inline vs background commit.
    pub commit: CommitMode,
}

impl SnapshotPolicy {
    /// Commit on the background worker ([`CommitMode::Background`]).
    pub fn background(mut self) -> Self {
        self.commit = CommitMode::Background;
        self
    }
}

/// What one commit cycle produced, returned by [`CommitHandle::wait`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommitOutcome {
    /// The committed block's summary (kind tells full vs segment).
    pub block: CheckpointMeta,
    /// The compaction pass this commit triggered, if any.
    pub compaction: Option<CompactionReport>,
    /// The store's manifest generation after this cycle — a durable,
    /// monotonic acknowledgement token.
    pub generation: u64,
}

/// A claim ticket for one in-flight commit. [`CommitHandle::wait`] blocks
/// until the commit (and any compaction it triggered) finished, then
/// yields its [`CommitOutcome`] or error. Dropping the handle does *not*
/// cancel the commit.
#[derive(Debug)]
pub struct CommitHandle {
    cell: Arc<CommitCell>,
}

impl CommitHandle {
    /// Blocks until the commit resolves.
    ///
    /// # Errors
    ///
    /// The commit's own [`StoreError`], or
    /// [`StoreError::PersistencePoisoned`] if an earlier queued commit
    /// failed before this one ran.
    pub fn wait(self) -> StoreResult<CommitOutcome> {
        self.cell.wait()
    }
}

#[derive(Debug, Default)]
struct CommitCell {
    slot: Mutex<Option<StoreResult<CommitOutcome>>>,
    done: Condvar,
}

impl CommitCell {
    fn fill(&self, result: StoreResult<CommitOutcome>) {
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.done.notify_all();
    }

    fn wait(&self) -> StoreResult<CommitOutcome> {
        let mut slot = self.slot.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.done.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

struct Job {
    snapshot: EngineSnapshot,
    cell: Arc<CommitCell>,
}

struct WorkerState {
    queue: VecDeque<Job>,
    /// A popped job is being committed right now (drain must wait for it).
    busy: bool,
    /// Display of the failure that poisoned the handle, if any.
    poisoned: Option<String>,
    /// The chain has (or will have, once queued commits land) a full
    /// block, so commits freeze day segments from here on.
    chain_started: bool,
    /// Metric handles of the engine committed most recently, so an
    /// explicit [`Persistence::compact`] records its spans where that
    /// engine's do.
    metrics: Option<EngineMetrics>,
    shutdown: bool,
}

struct Shared {
    store: Mutex<StoreDir>,
    state: Mutex<WorkerState>,
    /// Wakes the worker (new job / shutdown) and drain waiters (job done).
    work: Condvar,
}

impl Shared {
    fn lock_state(&self) -> MutexGuard<'_, WorkerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_store(&self) -> MutexGuard<'_, StoreDir> {
        self.store.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn poison(&self, err: &StoreError) {
        let mut state = self.lock_state();
        if state.poisoned.is_none() {
            state.poisoned = Some(err.to_string());
        }
    }
}

/// The unified persistence handle: owns the [`StoreDir`], applies a
/// [`SnapshotPolicy`], and (in background mode) runs the commit worker.
/// [`CommitHandle`] and [`CommitOutcome`] document the lifecycle and
/// failure contract of an individual commit.
pub struct Persistence {
    shared: Arc<Shared>,
    policy: SnapshotPolicy,
    worker: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Persistence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.shared.lock_state();
        f.debug_struct("Persistence")
            .field("policy", &self.policy)
            .field("queued", &state.queue.len())
            .field("poisoned", &state.poisoned)
            .finish_non_exhaustive()
    }
}

impl Persistence {
    /// Wraps `dir` behind `policy`, spawning the commit worker when the
    /// policy is [`CommitMode::Background`].
    pub fn new(dir: StoreDir, policy: SnapshotPolicy) -> Self {
        let chain_started = !dir.is_empty();
        let shared = Arc::new(Shared {
            store: Mutex::new(dir),
            state: Mutex::new(WorkerState {
                queue: VecDeque::new(),
                busy: false,
                poisoned: None,
                chain_started,
                metrics: None,
                shutdown: false,
            }),
            work: Condvar::new(),
        });
        let worker = match policy.commit {
            CommitMode::Background => {
                let shared = Arc::clone(&shared);
                Some(
                    std::thread::Builder::new()
                        .name("earlybird-persist".into())
                        .spawn(move || worker_loop(&shared))
                        .expect("spawn persistence commit worker"),
                )
            }
            CommitMode::Sync => None,
        };
        Persistence { shared, policy, worker }
    }

    /// Freezes the engine — in full while the chain is empty, otherwise
    /// its newest day as a segment (a short critical section — ingestion
    /// resumes immediately after), then serializes and commits the frozen
    /// view per the policy's [`CommitMode`].
    /// Await the returned [`CommitHandle`] for durability.
    ///
    /// # Errors
    ///
    /// [`StoreError::PersistencePoisoned`] if an earlier commit failed;
    /// [`StoreError::StaleSegment`] from a day freeze of back-filled
    /// days. Commit-side failures surface on the handle, not here.
    pub fn commit(&self, engine: &Engine) -> StoreResult<CommitHandle> {
        let mut state = self.shared.lock_state();
        if let Some(why) = &state.poisoned {
            return Err(StoreError::PersistencePoisoned { context: why.clone() });
        }
        let snapshot = if state.chain_started { engine.freeze_day()? } else { engine.freeze() };
        state.chain_started = true;
        state.metrics = Some(snapshot.metrics().clone());
        let cell = Arc::new(CommitCell::default());
        match self.policy.commit {
            CommitMode::Sync => {
                drop(state);
                cell.fill(run_commit(&self.shared, &snapshot));
            }
            CommitMode::Background => {
                state.queue.push_back(Job { snapshot, cell: Arc::clone(&cell) });
                drop(state);
                self.shared.work.notify_all();
            }
        }
        Ok(CommitHandle { cell })
    }

    /// Blocks until every queued/in-flight commit has resolved.
    ///
    /// # Errors
    ///
    /// [`StoreError::PersistencePoisoned`] if the handle is (or became)
    /// poisoned — the drained commits' own outcomes live on their handles.
    pub fn drain(&self) -> StoreResult<()> {
        let mut state = self.shared.lock_state();
        while !state.queue.is_empty() || state.busy {
            state = self.shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        match &state.poisoned {
            Some(why) => Err(StoreError::PersistencePoisoned { context: why.clone() }),
            None => Ok(()),
        }
    }

    /// Runs one compaction pass right now (regardless of the trigger),
    /// folding as many segments as the trigger's `fold_segments` allows.
    ///
    /// # Errors
    ///
    /// As for [`crate::compact_store`]; an explicit pass does *not* poison the
    /// handle on failure (the chain stays valid).
    pub fn compact(&self) -> StoreResult<CompactionReport> {
        let metrics = self.shared.lock_state().metrics.clone();
        let mut dir = self.shared.lock_store();
        let fold = dir.config().compaction.fold_segments;
        compact_prefix(&mut dir, fold, metrics.as_ref())
    }

    /// The store's manifest generation — the durable acknowledgement
    /// token carried by [`CommitOutcome::generation`].
    pub fn generation(&self) -> u64 {
        self.shared.lock_store().generation()
    }

    /// Why the handle is poisoned, if it is.
    pub fn poisoned(&self) -> Option<String> {
        self.shared.lock_state().poisoned.clone()
    }

    /// Direct access to the owned [`StoreDir`] for inspection and
    /// store-level maintenance. Holding the guard blocks commits —
    /// keep it short, and bind one guard per statement: two `store()`
    /// calls in a single expression deadlock on the non-reentrant lock
    /// (the first guard's temporary lives to the end of the statement).
    pub fn store(&self) -> MutexGuard<'_, StoreDir> {
        self.shared.lock_store()
    }

    /// Rebuilds an engine from the owned chain (manifest order), exactly
    /// like `EngineBuilder::restore_stream` over the directory's chain.
    ///
    /// # Errors
    ///
    /// Typed [`StoreError`]s; see `EngineBuilder::restore_stream`.
    pub fn restore(&self, builder: EngineBuilder) -> Result<Engine, StoreError> {
        let dir = self.shared.lock_store();
        builder.restore_impl(None, &mut dir.reader()?)
    }

    /// [`Persistence::restore`] sharing the caller's raw domain interner
    /// (typically a dataset's), exactly like the pre-facade
    /// `EngineBuilder::restore_stream_with_domains` over the directory's chain.
    ///
    /// # Errors
    ///
    /// As for [`Persistence::restore`].
    pub fn restore_with_domains(
        &self,
        raw: Arc<DomainInterner>,
        builder: EngineBuilder,
    ) -> Result<Engine, StoreError> {
        let dir = self.shared.lock_store();
        builder.restore_impl(Some(raw), &mut dir.reader()?)
    }
}

impl Drop for Persistence {
    /// Stops the worker after it drains the queue — already-accepted
    /// commits are never abandoned by a clean shutdown.
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            self.shared.lock_state().shutdown = true;
            self.shared.work.notify_all();
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let job = {
            let mut state = shared.lock_state();
            loop {
                if let Some(job) = state.queue.pop_front() {
                    state.busy = true;
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(job) = job else { return };
        let poisoned = shared.lock_state().poisoned.clone();
        let result = match poisoned {
            // A failed predecessor already broke the cursor/chain
            // agreement; later frozen snapshots must not land on top.
            Some(why) => Err(StoreError::PersistencePoisoned { context: why }),
            None => run_commit(shared, &job.snapshot),
        };
        job.cell.fill(result);
        let mut state = shared.lock_state();
        state.busy = false;
        drop(state);
        shared.work.notify_all();
    }
}

/// One commit cycle: stage + write + commit the block, then compact if
/// due. Block-side failures poison the handle (the engine's cursor is
/// already past the frozen bytes); compaction failures do not (the chain
/// is valid with or without the fold).
fn run_commit(shared: &Shared, snapshot: &EngineSnapshot) -> StoreResult<CommitOutcome> {
    let mut dir = shared.lock_store();
    let kind = snapshot.kind();
    let committed = (|| {
        let mut pending = dir.begin(kind)?;
        let block = snapshot.write_to(&mut pending)?;
        match kind {
            BlockKind::Full => dir.commit_full(pending, &block)?,
            BlockKind::DaySegment => dir.commit_segment(pending, &block)?,
        }
        Ok(block)
    })();
    let block = match committed {
        Ok(block) => block,
        Err(e) => {
            shared.poison(&e);
            return Err(e);
        }
    };
    let compaction = if dir.compaction_due() {
        let fold = dir.config().compaction.fold_segments;
        Some(compact_prefix(&mut dir, fold, Some(snapshot.metrics()))?)
    } else {
        None
    };
    Ok(CommitOutcome { block, compaction, generation: dir.generation() })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_constructors_compose() {
        assert_eq!(SnapshotPolicy::default().commit, CommitMode::Sync);
        assert_eq!(SnapshotPolicy::default().background().commit, CommitMode::Background);
    }
}
