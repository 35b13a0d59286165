//! # earlybird-obs
//!
//! A zero-dependency, low-overhead metrics + tracing substrate shared by
//! every layer of the pipeline — the engine's stage timings, the store's
//! commit/restore bandwidth, and the serve daemon's per-tenant series all
//! land in one [`MetricsRegistry`] and come back out as a consistent
//! snapshot or a Prometheus text exposition.
//!
//! Design constraints, in order:
//!
//! 1. **Hot paths pay one atomic op.** Handles ([`Counter`], [`Gauge`],
//!    [`Histogram`], [`StageTimer`]) are cheap `Arc`-backed clones that
//!    callers cache once at construction; an increment is a relaxed
//!    `fetch_add` with no lock, no hash lookup, no allocation.
//! 2. **Readers never stop writers.** The registry publishes its entry
//!    list as an immutable snapshot behind an `RwLock<Arc<_>>` (the same
//!    published-snapshot discipline as the interner's read path):
//!    registration — the only mutation — swaps a new list in, while
//!    [`MetricsRegistry::snapshot`] and
//!    [`MetricsRegistry::render_prometheus`] read whichever list is
//!    current and then load plain atomics.
//! 3. **Instrumentation must not change results.** Nothing in this crate
//!    feeds back into detection; a disabled registry
//!    ([`MetricsRegistry::disabled`]) additionally skips the clock reads
//!    in [`Span`]s so the uninstrumented baseline of the benchmark's
//!    `obs.overhead_pct` is honest.
//!
//! Spans: [`MetricsRegistry::span`] / [`StageTimer::start`] time one
//! operation into a fixed-bucket wall-time histogram and, past a
//! configurable threshold, record a structured [`SlowOp`] event into a
//! bounded ring buffer (drained via [`MetricsRegistry::take_slow_ops`]).
//!
//! Metric identity is `(name, sorted label set)`; registering the same
//! identity twice returns a handle to the same cell, so layers wired to a
//! shared registry compose without coordination.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod render;
mod span;

pub use registry::{Counter, Gauge, Histogram, MetricsRegistry, LATENCY_BOUNDS_MICROS};
pub use render::{HistogramSnapshot, MetricsSnapshot, Sample, SampleValue};
pub use span::{SlowOp, Span, StageTimer};
