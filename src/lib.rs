//! # earlybird
//!
//! A production-quality Rust reproduction of **"Detection of Early-Stage
//! Enterprise Infection by Mining Large-Scale Log Data"** (Oprea, Li, Yen,
//! Chin, Alrwais — DSN 2015, arXiv:1411.5005): belief propagation over
//! host↔domain graphs seeded by SOC hints or by a timing-based C&C
//! detector, together with the full log-mining substrate the paper depends
//! on (normalization, reduction, profiling, rare-destination extraction,
//! dynamic-histogram beacon detection, linear-regression scoring) and the
//! synthetic LANL / enterprise dataset generators used to evaluate it.
//!
//! The canonical public API is the unified streaming facade in
//! [`engine`]: build one [`engine::Engine`] with
//! [`engine::EngineBuilder`], feed it daily [`engine::DayBatch`]es from
//! either log source, and consume typed [`engine::DayReport`]s that carry
//! the day's [`engine::Alert`]s. The
//! remaining modules are the substrate the engine composes — useful for
//! building blocks and experiments, but callers should not re-assemble the
//! daily detection cycle by hand.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`engine`] | `earlybird-engine` | **the unified ingest → detect → alert API** |
//! | [`serve`] | `earlybird-serve` | multi-tenant ingest + query service daemon (HTTP/1.1 + JSON over `std::net`) |
//! | [`store`] | `earlybird-store` | durable checkpoint/restore: versioned, self-checking binary snapshots |
//! | [`obs`] | `earlybird-obs` | metrics + tracing substrate: atomic counters/gauges/histograms, stage spans, Prometheus exposition |
//! | [`logmodel`] | `earlybird-logmodel` | timestamps, hosts, interned domains/UAs, DNS & proxy records |
//! | [`timing`] | `earlybird-timing` | dynamic histograms, Jeffrey divergence, automation detectors |
//! | [`features`] | `earlybird-features` | feature vectors, OLS regression, additive LANL score |
//! | [`intel`] | `earlybird-intel` | WHOIS / VirusTotal / IOC / ground-truth simulators |
//! | [`pipeline`] | `earlybird-pipeline` | normalization, reduction, histories, rare sieve, day index |
//! | [`synthgen`] | `earlybird-synthgen` | LANL & AC dataset generators with injected campaigns |
//! | [`core`] | `earlybird-core` | C&C detector and Algorithm 1 belief propagation (building blocks the [`engine`]'s daily cycle calls) |
//! | [`eval`] | `earlybird-eval` | harnesses regenerating every table and figure of the paper |
//!
//! # Quickstart
//!
//! Stream the LANL challenge through one engine and detect a campaign:
//!
//! ```
//! use earlybird::engine::{DayBatch, EngineBuilder, Investigation};
//! use earlybird::synthgen::lanl::{LanlConfig, LanlGenerator};
//! use std::sync::Arc;
//!
//! let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
//! let mut engine = EngineBuilder::lanl()
//!     .build(Arc::clone(&challenge.dataset.domains), challenge.dataset.meta.clone())
//!     .unwrap();
//! // February bootstraps the profiles; March days are detected on.
//! for day in &challenge.dataset.days {
//!     engine.ingest_day(DayBatch::Dns(day));
//! }
//! // Investigate a campaign day from its SOC hint host.
//! let campaign = &challenge.campaigns[0];
//! let report = engine
//!     .investigate(
//!         campaign.day,
//!         Investigation::from_hint_hosts(campaign.hint_hosts.iter().copied()),
//!     )
//!     .unwrap();
//! assert!(
//!     report.alerts.iter().any(|a| campaign.answer_domains().contains(&a.name.as_str())),
//!     "the hinted campaign's domains are detected"
//! );
//! ```
//!
//! The full paper evaluation lives one level up:
//!
//! ```
//! use earlybird::eval::lanl::LanlRun;
//! use earlybird::synthgen::lanl::{LanlConfig, LanlGenerator};
//!
//! let challenge = LanlGenerator::new(LanlConfig::tiny()).generate();
//! let run = LanlRun::new(&challenge);
//! let (table3, _results) = run.table3();
//! assert!(table3.overall_rates().tdr > 0.5, "most campaign domains detected");
//! ```

#![forbid(unsafe_code)]

pub use earlybird_core as core;
pub use earlybird_engine as engine;
pub use earlybird_eval as eval;
pub use earlybird_features as features;
pub use earlybird_intel as intel;
pub use earlybird_logmodel as logmodel;
pub use earlybird_obs as obs;
pub use earlybird_pipeline as pipeline;
pub use earlybird_serve as serve;
pub use earlybird_store as store;
pub use earlybird_synthgen as synthgen;
pub use earlybird_timing as timing;
