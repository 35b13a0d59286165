//! Ground-truth classes and the paper's detection-outcome categories.
//!
//! Generators record the *true* class of every domain they emit
//! ([`TrueClass`]); the evaluation harness combines true classes with the
//! [`crate::VirusTotalOracle`] / [`crate::IocFeed`] visibility to bucket each
//! detection into the categories of Fig. 6 ([`DetectionCategory`]):
//! "VirusTotal and SOC", "New malicious", "Suspicious", "Legitimate".

use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an injected attack campaign.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct CampaignId(pub u32);

impl fmt::Display for CampaignId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign-{}", self.0)
    }
}

/// The true class of a domain, known to the generator.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum TrueClass {
    /// Part of an injected attack campaign.
    Malicious(CampaignId),
    /// Questionable but not part of a campaign (parked, unresolvable,
    /// policy-violating) — the paper's "suspicious" validation outcome.
    Suspicious,
    /// Benign.
    Benign,
}

impl TrueClass {
    /// Whether this class counts as a true positive when detected (the
    /// paper counts both malicious and suspicious toward TDR, §VI-B).
    pub fn is_true_positive(self) -> bool {
        !matches!(self, TrueClass::Benign)
    }
}

/// The validation categories of Fig. 6.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum DetectionCategory {
    /// Malicious and already known to VirusTotal or the SOC at validation.
    KnownMalicious,
    /// Malicious but unknown to both — the paper's "new malicious"
    /// discoveries.
    NewMalicious,
    /// Suspicious (manual-investigation outcome).
    Suspicious,
    /// Legitimate (false detection).
    Legitimate,
}

impl fmt::Display for DetectionCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DetectionCategory::KnownMalicious => "VirusTotal and SOC",
            DetectionCategory::NewMalicious => "New malicious",
            DetectionCategory::Suspicious => "Suspicious",
            DetectionCategory::Legitimate => "Legitimate",
        };
        f.write_str(s)
    }
}

/// Per-domain ground truth, keyed by folded domain name.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct GroundTruth {
    classes: HashMap<String, TrueClass>,
}

impl GroundTruth {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the true class of `domain`. Malicious labels take precedence
    /// over earlier non-malicious ones on duplicate insertion.
    pub fn set(&mut self, domain: &str, class: TrueClass) {
        self.classes
            .entry(domain.to_owned())
            .and_modify(|c| {
                if !c.is_true_positive() || matches!(class, TrueClass::Malicious(_)) {
                    *c = class;
                }
            })
            .or_insert(class);
    }

    /// The class of `domain`, defaulting to benign for unknown domains.
    pub fn class_of(&self, domain: &str) -> TrueClass {
        self.classes.get(domain).copied().unwrap_or(TrueClass::Benign)
    }

    /// Number of labeled domains.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether no domains are labeled.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_defaults_to_benign() {
        let gt = GroundTruth::new();
        assert_eq!(gt.class_of("whatever.com"), TrueClass::Benign);
    }

    #[test]
    fn malicious_label_wins_over_benign() {
        let mut gt = GroundTruth::new();
        gt.set("x.org", TrueClass::Benign);
        gt.set("x.org", TrueClass::Malicious(CampaignId(1)));
        gt.set("x.org", TrueClass::Benign); // must not downgrade
        assert_eq!(gt.class_of("x.org"), TrueClass::Malicious(CampaignId(1)));
    }

    #[test]
    fn suspicious_counts_as_true_positive() {
        assert!(TrueClass::Suspicious.is_true_positive());
        assert!(TrueClass::Malicious(CampaignId(0)).is_true_positive());
        assert!(!TrueClass::Benign.is_true_positive());
    }

    #[test]
    fn category_display_matches_figure6_legend() {
        assert_eq!(DetectionCategory::KnownMalicious.to_string(), "VirusTotal and SOC");
        assert_eq!(DetectionCategory::NewMalicious.to_string(), "New malicious");
    }
}
