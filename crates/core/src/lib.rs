//! The DSN'15 detection framework: C&C communication detection and belief
//! propagation over the host↔domain graph (Oprea et al., "Detection of
//! Early-Stage Enterprise Infection by Mining Large-Scale Log Data").
//!
//! The crate composes the substrates (`earlybird-pipeline`,
//! `earlybird-timing`, `earlybird-features`, `earlybird-intel`) into the
//! paper's two-phase system:
//!
//! * **Training** — [`train`] fits the C&C and domain-similarity regression
//!   models from two weeks of labeled automated/rare domains (§IV-C, §IV-D).
//! * **Operation** — [`cc::CcDetector`] finds beaconing C&C domains in a
//!   day's [`context::DayContext`] (with either the enterprise regression
//!   model or the LANL two-host heuristic); [`bp::belief_propagation`] runs
//!   Algorithm 1 in the SOC-hints or no-hint mode and returns the labeled
//!   communities with full per-iteration traces (the provenance shown in
//!   Fig. 4/7/8).
//!
//! The daily cycle that feeds them — reduce, compare against the profiles,
//! then fold the day into them — is run by the `earlybird-engine` crate
//! (re-exported as `earlybird::engine`), which also parallelizes the C&C
//! scoring pass and delivers typed alerts. Reach for these types directly
//! only when building new detector variants or experiments below the
//! engine.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bp;
pub mod cc;
pub mod context;
pub mod extract;
pub mod similarity;
pub mod train;

pub use bp::{
    belief_propagation, BpConfig, BpOutcome, IterationTrace, LabelReason, ScoredDomain, Seeds,
};
pub use cc::{automated_pairs_with, CcDetection, CcDetector, CcModel};
pub use context::DayContext;
pub use extract::{cc_features, min_interval_to_malicious, sim_features};
pub use similarity::SimScorer;
pub use train::{train_cc_model, train_sim_model, whois_defaults, CcSample, SimSample};
