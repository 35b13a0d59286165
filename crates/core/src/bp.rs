//! Algorithm 1: belief propagation over the incremental bipartite
//! host↔domain graph (§IV-B).
//!
//! Starting from seed hosts (and optionally seed domains), each iteration
//! first sweeps the candidate rare domains with `Detect_C&C`; if none fire,
//! it scores every candidate with `Compute_SimScore` against the current
//! malicious set and labels the top scorer if it clears `T_s`. Newly labeled
//! domains expand the compromised-host set through `dom_host`, which in turn
//! expands the candidate set through `host_rdom`. The algorithm stops when
//! no new domain is labeled or the iteration cap is reached.

use crate::cc::CcDetector;
use crate::context::DayContext;
use crate::similarity::SimScorer;
use earlybird_logmodel::{DomainSym, HostId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How a domain ended up labeled malicious.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum LabelReason {
    /// Provided as a seed (SOC hint or C&C-detector output).
    Seed,
    /// Flagged by `Detect_C&C` during an iteration.
    CcDetected,
    /// Labeled as the top similarity scorer of an iteration.
    Similarity,
}

/// A labeled domain with its score and provenance.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScoredDomain {
    /// The (folded) domain.
    pub domain: DomainSym,
    /// Score at labeling time (C&C score, similarity score, or 1.0 for
    /// seeds).
    pub score: f64,
    /// Labeling provenance.
    pub reason: LabelReason,
    /// Iteration that labeled the domain (0 for seeds).
    pub iteration: usize,
}

/// Trace of one belief-propagation iteration (the provenance shown in
/// Fig. 4).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct IterationTrace {
    /// Iteration number, starting at 1.
    pub iteration: usize,
    /// Domains labeled this iteration.
    pub labeled: Vec<ScoredDomain>,
    /// Hosts newly marked compromised this iteration.
    pub new_hosts: Vec<HostId>,
    /// Candidate pool size (`|R \ M|`) at the start of the iteration.
    pub candidates: usize,
    /// Best similarity score observed (if the similarity path ran).
    pub best_similarity: Option<f64>,
}

/// Seeds for a belief-propagation run.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Seeds {
    /// Known compromised hosts (SOC hints, or hosts contacting detected C&C
    /// domains).
    pub hosts: Vec<HostId>,
    /// Known malicious domains (IOCs, or detected C&C domains).
    pub domains: Vec<DomainSym>,
}

impl Seeds {
    /// Seeds from hint hosts only (LANL cases 1–3).
    pub fn from_hosts(hosts: impl IntoIterator<Item = HostId>) -> Self {
        Seeds { hosts: hosts.into_iter().collect(), domains: Vec::new() }
    }

    /// Seeds from domains plus the hosts contacting them (no-hint mode and
    /// SOC-hints mode with IOC domains).
    pub fn from_domains_with_hosts(
        ctx: &DayContext<'_>,
        domains: impl IntoIterator<Item = DomainSym>,
    ) -> Self {
        let domains: Vec<DomainSym> = domains.into_iter().collect();
        let mut hosts = BTreeSet::new();
        for &d in &domains {
            if let Some(hs) = ctx.index.hosts_of(d) {
                hosts.extend(hs.iter().copied());
            }
        }
        Seeds { hosts: hosts.into_iter().collect(), domains }
    }
}

/// Belief-propagation configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BpConfig {
    /// Maximum iterations ("we ran the belief propagation algorithm for a
    /// maximum of five iterations", §V-C).
    pub max_iterations: usize,
}

impl BpConfig {
    /// The LANL configuration: 5 iterations.
    pub fn lanl_default() -> Self {
        BpConfig { max_iterations: 5 }
    }

    /// The enterprise configuration: a larger cap, since AC communities are
    /// bigger (Fig. 8 has 12 domains).
    pub fn enterprise_default() -> Self {
        BpConfig { max_iterations: 30 }
    }
}

/// Result of a belief-propagation run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BpOutcome {
    /// All labeled malicious domains (seeds first, then in labeling order).
    pub labeled: Vec<ScoredDomain>,
    /// The final compromised-host set `H`.
    pub compromised_hosts: BTreeSet<HostId>,
    /// Per-iteration traces.
    pub iterations: Vec<IterationTrace>,
}

impl BpOutcome {
    /// Labeled domains excluding the seeds (the paper reports detections
    /// "not considering the seeds provided by SOC", §VI-D).
    pub fn detected(&self) -> impl Iterator<Item = &ScoredDomain> {
        self.labeled.iter().filter(|d| d.reason != LabelReason::Seed)
    }
}

/// Runs Algorithm 1.
///
/// `cc` implements `Detect_C&C`; pass `None` to disable the per-iteration
/// C&C sweep (pure similarity expansion). `sim` implements
/// `Compute_SimScore` with its threshold `T_s`.
///
/// Internal plumbing: applications run this through `earlybird-engine`'s
/// `Engine::investigate` (explicit hint modes) or the engine's
/// auto-investigation during ingest.
pub fn belief_propagation(
    ctx: &DayContext<'_>,
    cc: Option<&CcDetector>,
    sim: &SimScorer,
    seeds: &Seeds,
    cfg: &BpConfig,
) -> BpOutcome {
    let mut hosts: BTreeSet<HostId> = seeds.hosts.iter().copied().collect();
    let mut malicious: BTreeSet<DomainSym> = seeds.domains.iter().copied().collect();
    let mut labeled: Vec<ScoredDomain> = seeds
        .domains
        .iter()
        .map(|&domain| ScoredDomain { domain, score: 1.0, reason: LabelReason::Seed, iteration: 0 })
        .collect();

    // R: rare domains contacted by hosts in H.
    let mut candidates: BTreeSet<DomainSym> = BTreeSet::new();
    for &h in &hosts {
        if let Some(rdoms) = ctx.index.rare_domains_of(h) {
            candidates.extend(rdoms.iter().copied());
        }
    }

    let mut iterations = Vec::new();
    for iteration in 1..=cfg.max_iterations {
        let pool: Vec<DomainSym> =
            candidates.iter().copied().filter(|d| !malicious.contains(d)).collect();
        let mut trace = IterationTrace {
            iteration,
            labeled: Vec::new(),
            new_hosts: Vec::new(),
            candidates: pool.len(),
            best_similarity: None,
        };

        // Phase 1: Detect_C&C over the candidate pool.
        let mut newly: Vec<ScoredDomain> = Vec::new();
        if let Some(cc) = cc {
            for &d in &pool {
                if let Some(det) = cc.evaluate(ctx, d) {
                    newly.push(ScoredDomain {
                        domain: d,
                        score: det.score,
                        reason: LabelReason::CcDetected,
                        iteration,
                    });
                }
            }
        }

        // Phase 2: top similarity scorer, if no C&C fired.
        if newly.is_empty() {
            let mut best: Option<(DomainSym, f64)> = None;
            for &d in &pool {
                let s = sim.score(ctx, d, &malicious);
                if best.is_none_or(|(_, bs)| s > bs) {
                    best = Some((d, s));
                }
            }
            if let Some((d, s)) = best {
                trace.best_similarity = Some(s);
                if s >= sim.threshold() {
                    newly.push(ScoredDomain {
                        domain: d,
                        score: s,
                        reason: LabelReason::Similarity,
                        iteration,
                    });
                }
            }
        }

        if newly.is_empty() {
            iterations.push(trace);
            break;
        }

        // Expand M, H, and R.
        for nd in &newly {
            malicious.insert(nd.domain);
            labeled.push(*nd);
            if let Some(hs) = ctx.index.hosts_of(nd.domain) {
                for &h in hs {
                    if hosts.insert(h) {
                        trace.new_hosts.push(h);
                        if let Some(rdoms) = ctx.index.rare_domains_of(h) {
                            candidates.extend(rdoms.iter().copied());
                        }
                    }
                }
            }
        }
        trace.labeled = newly;
        iterations.push(trace);
    }

    BpOutcome { labeled, compromised_hosts: hosts, iterations }
}

#[cfg(test)]
mod tests {
    use super::*;
    use earlybird_logmodel::{Day, DomainInterner, Ipv4, Timestamp};
    use earlybird_pipeline::{Contact, DayIndex, DomainHistory, RareSieve};

    struct World {
        folded: DomainInterner,
        contacts: Vec<Contact>,
    }

    impl World {
        fn new() -> Self {
            World { folded: DomainInterner::new(), contacts: Vec::new() }
        }

        fn visit(&mut self, ts: u64, host: u32, name: &str, ip: Option<Ipv4>) {
            self.contacts.push(Contact {
                ts: Timestamp::from_secs(ts),
                host: HostId::new(host),
                domain: self.folded.intern(name),
                dest_ip: ip,
                http: None,
            });
        }

        fn beacon(&mut self, host: u32, name: &str, period: u64, n: u64, phase: u64, ip: Ipv4) {
            for i in 0..n {
                self.visit(phase + i * period, host, name, Some(ip));
            }
        }

        fn index(&mut self) -> DayIndex {
            self.contacts.sort_by_key(|c| c.ts);
            let rare = RareSieve::paper_default().extract(&self.contacts, &DomainHistory::new());
            DayIndex::build(Day::new(0), &self.contacts, rare, None)
        }
    }

    fn ctx<'a>(index: &'a DayIndex, folded: &'a DomainInterner) -> DayContext<'a> {
        DayContext { day: Day::new(0), index, folded, whois: None, whois_defaults: (0.0, 0.0) }
    }

    /// Builds the Fig. 4 scenario: a hint host whose C&C beacons are found
    /// first, then related domains labeled by similarity.
    fn fig4_world() -> World {
        let mut w = World::new();
        let cc_ip = Ipv4::new(191, 146, 166, 145);
        let d2_ip = Ipv4::new(191, 146, 166, 31); // same /24 as d3
        let d3_ip = Ipv4::new(191, 146, 166, 77);
        let d4_ip = Ipv4::new(191, 146, 224, 111); // same /16 only

        // Two victims beacon to the C&C at 600 s.
        w.beacon(1, "rainbow.c3", 600, 40, 36_000, cc_ip);
        w.beacon(2, "rainbow.c3", 602, 40, 36_100, cc_ip);
        // Victim 1's infection burst: delivery + payload close in time.
        w.visit(35_900, 1, "fluttershy.c3", Some(d2_ip));
        w.visit(35_960, 1, "pinkiepie.c3", Some(d3_ip));
        // Victim 2 contacts the /16 neighbor, not correlated in time.
        w.visit(50_000, 2, "applejack.c3", Some(d4_ip));
        // Unrelated noise visited by an unrelated host.
        w.visit(20_000, 9, "noise.c3", Some(Ipv4::new(8, 8, 8, 8)));
        w
    }

    #[test]
    fn case3_expansion_from_hint_host() {
        let mut w = fig4_world();
        let index = w.index();
        let ctx = ctx(&index, &w.folded);
        let cc = CcDetector::lanl_default();
        let sim = SimScorer::lanl_default();
        let seeds = Seeds::from_hosts([HostId::new(1)]);
        let out = belief_propagation(&ctx, Some(&cc), &sim, &seeds, &BpConfig::lanl_default());

        let names: Vec<String> = out.labeled.iter().map(|d| w.folded.resolve(d.domain)).collect();
        assert!(names.contains(&"rainbow.c3".to_string()), "C&C found: {names:?}");
        assert!(names.contains(&"fluttershy.c3".to_string()));
        assert!(names.contains(&"pinkiepie.c3".to_string()));
        assert!(names.contains(&"applejack.c3".to_string()), "/16 neighbor of labeled set");
        assert!(!names.contains(&"noise.c3".to_string()), "noise must stay out");
        // Host 2 discovered through the shared C&C domain.
        assert!(out.compromised_hosts.contains(&HostId::new(2)));
        assert!(!out.compromised_hosts.contains(&HostId::new(9)));
        // First labeled domain is the C&C, via the C&C phase.
        assert_eq!(out.labeled[0].reason, LabelReason::CcDetected);
    }

    #[test]
    fn no_hint_mode_seeds_with_cc_domains() {
        let mut w = fig4_world();
        let index = w.index();
        let ctx = ctx(&index, &w.folded);
        let cc = CcDetector::lanl_default();
        let sim = SimScorer::lanl_default();

        // First run the day's C&C pass, then seed BP with the detections.
        let detections = cc.detect_all(&ctx);
        assert_eq!(detections.len(), 1);
        let seeds = Seeds::from_domains_with_hosts(&ctx, detections.iter().map(|d| d.domain));
        assert_eq!(seeds.hosts.len(), 2, "both beaconing victims seed H");

        let out = belief_propagation(&ctx, Some(&cc), &sim, &seeds, &BpConfig::lanl_default());
        let detected: Vec<String> = out.detected().map(|d| w.folded.resolve(d.domain)).collect();
        assert!(detected.contains(&"fluttershy.c3".to_string()), "{detected:?}");
        assert!(detected.contains(&"pinkiepie.c3".to_string()));
        assert!(!detected.contains(&"rainbow.c3".to_string()), "seed not re-counted");
    }

    #[test]
    fn stops_when_best_score_below_threshold() {
        let mut w = World::new();
        w.visit(100, 1, "seeded.c3", None);
        w.visit(40_000, 1, "unrelated.c3", None); // same host, far in time
        let index = w.index();
        let ctx = ctx(&index, &w.folded);
        let sim = SimScorer::lanl_default();
        let seeds = Seeds::from_domains_with_hosts(&ctx, [w.folded.get("seeded.c3").unwrap()]);
        let out = belief_propagation(&ctx, None, &sim, &seeds, &BpConfig::lanl_default());
        assert_eq!(out.detected().count(), 0);
        assert_eq!(out.iterations.len(), 1, "single iteration that found nothing");
        let t = &out.iterations[0];
        assert!(t.best_similarity.unwrap() < sim.threshold());
        assert_eq!(t.candidates, 1);
    }

    #[test]
    fn respects_iteration_cap() {
        // A chain of domains each 100 s apart, each visited by the next
        // host too, so similarity keeps firing.
        let mut w = World::new();
        for i in 0..10u32 {
            w.visit(1_000 + i as u64 * 100, 1, &format!("chain{i}.c3"), None);
        }
        let index = w.index();
        let ctx = ctx(&index, &w.folded);
        let sim = SimScorer::lanl_default();
        let seeds = Seeds::from_domains_with_hosts(&ctx, [w.folded.get("chain0.c3").unwrap()]);
        let cfg = BpConfig { max_iterations: 3 };
        let out = belief_propagation(&ctx, None, &sim, &seeds, &cfg);
        assert!(out.iterations.len() <= 3);
        assert!(out.detected().count() <= 3, "one similarity label per iteration");
    }

    #[test]
    fn empty_seeds_produce_empty_outcome() {
        let mut w = World::new();
        w.visit(1, 1, "a.c3", None);
        let index = w.index();
        let ctx = ctx(&index, &w.folded);
        let sim = SimScorer::lanl_default();
        let out =
            belief_propagation(&ctx, None, &sim, &Seeds::default(), &BpConfig::lanl_default());
        assert!(out.labeled.is_empty());
        assert!(out.compromised_hosts.is_empty());
    }

    #[test]
    fn traces_record_expansion_provenance() {
        let mut w = fig4_world();
        let index = w.index();
        let ctx = ctx(&index, &w.folded);
        let cc = CcDetector::lanl_default();
        let sim = SimScorer::lanl_default();
        let seeds = Seeds::from_hosts([HostId::new(1)]);
        let out = belief_propagation(&ctx, Some(&cc), &sim, &seeds, &BpConfig::lanl_default());
        // Iteration 1 labels the C&C and discovers host 2.
        let first = &out.iterations[0];
        assert_eq!(first.iteration, 1);
        assert_eq!(first.labeled.len(), 1);
        assert_eq!(first.labeled[0].reason, LabelReason::CcDetected);
        assert_eq!(first.new_hosts, vec![HostId::new(2)]);
        // Each labeled domain records its iteration number.
        for (i, trace) in out.iterations.iter().enumerate() {
            for d in &trace.labeled {
                assert_eq!(d.iteration, i + 1);
            }
        }
    }
}
