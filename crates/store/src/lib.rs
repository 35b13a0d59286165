//! # earlybird-store
//!
//! Durable checkpoint/restore for the DSN'15 detection engine: a
//! versioned, self-checking, hand-rolled binary snapshot format.
//!
//! The paper's detector is only as good as the months of history behind it
//! — new-domain profiles, rare-UA host counts, per-day contact indexes,
//! trained regression weights (§III-E, §IV). This crate makes that state
//! survive a process restart:
//!
//! * [`codec`] — the primitive wire codec: LEB128 varints, length-prefixed
//!   UTF-8 strings, bit-exact `f64`s; bounds-checked decoding that never
//!   panics on untrusted bytes.
//! * [`frame`] — the block layer: `EBSTORE1` magic, format version, a
//!   fixed sequence of length-prefixed section frames, and a CRC-32 seal
//!   per block. A store stream is one [`frame::BlockKind::Full`] snapshot
//!   followed by any number of [`frame::BlockKind::DaySegment`] increments.
//! * [`sections`] — component codecs for every piece of engine state
//!   (interners, host map, histories, day indexes, models, WHOIS), written
//!   against public snapshot hooks so the format survives internal
//!   refactors.
//! * [`backend`] — the storage service boundary: every durable operation
//!   flows through the [`ObjectStore`] trait (staged visible-or-absent
//!   uploads, conditional manifest swap, quarantine), with two shipped
//!   backends — [`LocalFsBackend`] (tmp+fsync+rename, byte-compatible
//!   with pre-trait stores) and [`MemBackend`] (conditional put and
//!   create-only finalize; fast tests and the daemon's `--backend mem`) —
//!   plus the backend-level [`FaultedStore`] crash harness.
//! * [`lifecycle`] — the snapshot *store* layer: a [`StoreDir`] owning
//!   a CRC-protected, atomically-swapped `MANIFEST` over the
//!   `full + N segments` chain, with crash-safe commits, orphan
//!   quarantine, a compaction trigger, and a retention policy, so restore
//!   stays O(current state) instead of O(uptime).
//! * [`StoreError`] — the typed failure surface: bad magic, future
//!   version, checksum mismatch, truncation, semantic corruption, stale
//!   (backwards) day segments, read-only stores, and lost manifest races
//!   are all distinct, and none of them panic.
//!
//! The user-facing API lives on the engine: a `Persistence` handle
//! (driven by a `SnapshotPolicy`) freezes the engine's state into an
//! `EngineSnapshot`, commits it — synchronously or on a background worker
//! — through a [`StoreDir`], and restores a chain back into a cold engine
//! whose continued operation is bit-identical to one that never
//! restarted.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backend;
pub mod codec;
mod error;
pub mod frame;
pub mod lifecycle;
pub mod sections;

pub use backend::{
    validate_scope_name, FaultInjector, FaultedStore, LocalFsBackend, MemBackend, ObjectInfo,
    ObjectStore, ObjectUpload,
};
pub use codec::{crc32, Decoder, Encoder};
pub use error::{StoreError, StoreResult};
pub use frame::{BlockKind, BlockReader, BlockWriter, CheckpointMeta, SectionTag, FORMAT_VERSION};
pub use lifecycle::{
    ChainReader, CompactionReport, CompactionTrigger, LifecycleConfig, ManifestEntry, PendingBlock,
    RetentionPolicy, StoreDir,
};
