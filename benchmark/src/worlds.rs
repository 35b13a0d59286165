//! The four workloads: `synthgen` worlds rendered to interchange text.
//!
//! Only what a log shipper and an operator would hand the system leaves
//! this module — text lines, the tenant's dataset spec (host kinds, lease
//! log, WHOIS registry) and the investigation protocol with its answer
//! key. The generator's interners and parsed records are dropped here, so
//! the engine under test always starts from a namespace of its own.

use earlybird::intel::{GroundTruth, VirusTotalOracle, WhoisRegistry};
use earlybird::logmodel::{
    format_dns_line, format_proxy_line, DatasetMeta, Day, DhcpLog, HostId, HostKind, HostMapper,
};
use earlybird::synthgen::ac::{AcConfig, AcGenerator};
use earlybird::synthgen::lanl::{ChallengeCase, LanlConfig, LanlGenerator};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

pub const WORKLOADS: [&str; 4] = ["dns_stream", "proxy_stream", "dns_churn", "serve_loop"];

/// Span size of the `serve_loop` shipper: small enough that per-request
/// HTTP, JSON and tenant-lock overhead is paid several times per day.
const SERVE_SPAN_BYTES: usize = 64 << 10;

/// One day of one tenant's log, as the spans a shipper would push.
pub struct DayText {
    pub day: Day,
    pub spans: Vec<String>,
    pub records: usize,
}

/// How one campaign is investigated, following the paper's per-case
/// protocol.
pub enum Probe {
    /// SOC hint hosts (LANL cases 1–3), in the engine's host numbering.
    HintHosts(Vec<HostId>),
    /// No hint: the day's own C&C detections seed belief propagation
    /// (LANL case 4).
    NoHint,
    /// IOC-feed seed domains visible on the day (enterprise §VI).
    SeedNames(Vec<String>),
}

/// What counts as a true detection for one investigation.
pub enum Truth {
    /// The campaign's answer key.
    Answers(BTreeSet<String>),
    /// Any domain the world's ground truth labels malicious or suspicious.
    Oracle(Arc<GroundTruth>),
}

impl Truth {
    pub fn is_hit(&self, name: &str) -> bool {
        match self {
            Truth::Answers(names) => names.contains(name),
            Truth::Oracle(truth) => truth.class_of(name).is_true_positive(),
        }
    }
}

pub struct Case {
    pub day: Day,
    pub probe: Probe,
    pub truth: Truth,
}

/// The enterprise modality's side inputs.
pub struct ProxySide {
    pub dhcp: DhcpLog,
    pub whois: WhoisRegistry,
    pub vt: VirusTotalOracle,
    /// Last day of the §VI training window.
    pub train_end: Day,
}

pub struct Tenant {
    pub name: String,
    /// Dataset spec in the engine's host numbering.
    pub meta: DatasetMeta,
    /// `Some` for the proxy modality, `None` for DNS.
    pub proxy: Option<ProxySide>,
    pub days: Vec<DayText>,
    pub cases: Vec<Case>,
    pub records: u64,
    pub bytes: u64,
}

/// The detection quality a workload must keep, on any seed: the guard
/// that stops a change from buying speed with detections. The floors sit
/// under the worst of a hundred seeds (README, *Detection guard*).
pub struct DetectionGuard {
    /// Floor on TDR, true detections ÷ all detections; FDR is 1 − TDR,
    /// so this is also its ceiling.
    pub min_tdr: f64,
    /// Floor on true detections per investigated case, so that finding
    /// less cannot pass as finding cleaner.
    pub min_hits_per_case: f64,
}

pub struct World {
    pub workload: &'static str,
    pub tenants: Vec<Tenant>,
    pub guard: DetectionGuard,
}

impl World {
    pub fn records(&self) -> u64 {
        self.tenants.iter().map(|t| t.records).sum()
    }

    pub fn bytes(&self) -> u64 {
        self.tenants.iter().map(|t| t.bytes).sum()
    }

    pub fn n_days(&self) -> usize {
        self.tenants.iter().map(|t| t.days.len()).max().unwrap_or(0)
    }

    pub fn cases(&self) -> usize {
        self.tenants.iter().map(|t| t.cases.len()).sum()
    }
}

fn scaled(n: usize, scale: f64, floor: usize) -> usize {
    ((n as f64 * scale).round() as usize).max(floor)
}

/// Generates `workload` from `seed`. `scale` is 1.0 for the real run and
/// 0.1 for `--quick`.
///
/// # Panics
///
/// Panics on an unknown workload name (the CLI validates it first).
pub fn generate(workload: &str, seed: u64, scale: f64) -> World {
    match workload {
        // The paper's LANL setting at three times `LanlConfig::new`'s hosts
        // and names: few distinct names per record, so the 5-field parser,
        // the intern hit path and reduction do the work.
        "dns_stream" => {
            let cfg = LanlConfig {
                n_hosts: scaled(2_400, scale, 60) as u32,
                n_servers: scaled(90, scale, 4) as u32,
                popular_domains: scaled(7_500, scale, 200),
                new_benign_per_day: scaled(750, scale, 15),
                ..LanlConfig::new(seed)
            };
            World {
                workload: "dns_stream",
                tenants: vec![dns_tenant("lanl", cfg, None)],
                guard: DetectionGuard { min_tdr: 0.90, min_hits_per_case: 3.0 },
            }
        }
        // The paper's §VI enterprise setting at twice `AcConfig::new`'s
        // hosts and names: 10-field lines, DHCP attribution, UA/path
        // interners, UA history, the trained C&C features.
        "proxy_stream" => {
            let cfg = AcConfig {
                n_hosts: scaled(2_000, scale, 80) as u32,
                n_servers: scaled(50, scale, 4) as u32,
                popular_domains: scaled(6_000, scale, 250),
                new_benign_per_day: scaled(440, scale, 15),
                ..AcConfig::new(seed)
            };
            World {
                workload: "proxy_stream",
                tenants: vec![proxy_tenant("ac", cfg)],
                guard: DetectionGuard { min_tdr: 0.75, min_hits_per_case: 0.5 },
            }
        }
        // Few hosts, 6 000 fresh names a day: three records in four carry
        // a name never seen before. Intern miss path, history growth, rare
        // sieve, and day segments whose payload outweighs their fsync.
        "dns_churn" => {
            let cfg = LanlConfig {
                n_hosts: scaled(300, scale, 60) as u32,
                n_servers: scaled(20, scale, 4) as u32,
                queries_per_host_day: (4, 10),
                popular_domains: 500,
                new_benign_per_day: scaled(6_000, scale, 100),
                benign_auto_per_day: scaled(40, scale, 4),
                popular_auto_domains: 5,
                ..LanlConfig::new(seed)
            };
            World {
                workload: "dns_churn",
                tenants: vec![dns_tenant("churn", cfg, None)],
                guard: DetectionGuard { min_tdr: 0.62, min_hits_per_case: 3.0 },
            }
        }
        // Two tenants behind one daemon, fed alternately over one
        // keep-alive connection in small spans.
        "serve_loop" => {
            let tenants = (0..2u64)
                .map(|t| {
                    let cfg = LanlConfig {
                        n_hosts: scaled(900, scale, 60) as u32,
                        n_servers: scaled(36, scale, 4) as u32,
                        popular_domains: scaled(3_000, scale, 200),
                        new_benign_per_day: scaled(300, scale, 15),
                        ..LanlConfig::new(seed.wrapping_add(t))
                    };
                    dns_tenant(&format!("tenant{t}"), cfg, Some(SERVE_SPAN_BYTES))
                })
                .collect();
            World {
                workload: "serve_loop",
                tenants,
                guard: DetectionGuard { min_tdr: 0.90, min_hits_per_case: 3.0 },
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
}

/// Appends `line` to the day's spans, starting a new span once the
/// current one would exceed `span_bytes` (`None`: one span per day).
fn push_line(spans: &mut Vec<String>, line: &str, span_bytes: Option<usize>) {
    let full = |s: &String| span_bytes.is_some_and(|cap| s.len() + line.len() + 1 > cap);
    if spans.last().is_none_or(full) {
        spans.push(String::new());
    }
    let span = spans.last_mut().expect("a span was just ensured");
    span.push_str(line);
    span.push('\n');
}

fn day_bytes(days: &[DayText]) -> u64 {
    days.iter().flat_map(|d| &d.spans).map(|s| s.len() as u64).sum()
}

fn dns_tenant(name: &str, cfg: LanlConfig, span_bytes: Option<usize>) -> Tenant {
    let challenge = LanlGenerator::new(cfg).generate();
    let dataset = &challenge.dataset;

    // Line ingestion numbers hosts by first-seen source address, so the
    // spec's host kinds and the SOC hint hosts must be expressed in that
    // numbering, not the generator's.
    let mut engine_ids = HostMapper::new();
    let mut engine_id_of: BTreeMap<HostId, HostId> = BTreeMap::new();
    let mut days = Vec::with_capacity(dataset.days.len());
    for log in &dataset.days {
        let mut spans = Vec::new();
        for q in &log.queries {
            engine_id_of.entry(q.src).or_insert_with(|| engine_ids.host_for(q.src_ip));
            push_line(&mut spans, &format_dns_line(q, &dataset.domains), span_bytes);
        }
        days.push(DayText { day: log.day, spans, records: log.queries.len() });
    }
    let mut host_kinds = vec![HostKind::Workstation; dataset.meta.n_hosts as usize];
    for (generated, engine) in &engine_id_of {
        host_kinds[engine.index() as usize] = dataset.meta.kind(*generated);
    }
    let meta = DatasetMeta { host_kinds, ..dataset.meta.clone() };

    let cases = challenge
        .campaigns
        .iter()
        .map(|c| Case {
            day: c.day,
            probe: match c.case {
                ChallengeCase::Four => Probe::NoHint,
                _ => Probe::HintHosts(
                    c.hint_hosts.iter().filter_map(|h| engine_id_of.get(h).copied()).collect(),
                ),
            },
            truth: Truth::Answers(c.answer_domains().into_iter().map(str::to_owned).collect()),
        })
        .collect();

    Tenant {
        name: name.to_owned(),
        meta,
        proxy: None,
        records: dataset.total_queries() as u64,
        bytes: day_bytes(&days),
        days,
        cases,
    }
}

fn proxy_tenant(name: &str, cfg: AcConfig) -> Tenant {
    let train_end = cfg.feb_day(14);
    let world = AcGenerator::new(cfg).generate();
    let dataset = world.dataset;
    let days: Vec<DayText> = dataset
        .days
        .iter()
        .map(|log| {
            let mut spans = Vec::new();
            for r in &log.records {
                let line = format_proxy_line(r, &dataset.domains, &dataset.uas, &dataset.paths);
                push_line(&mut spans, &line, None);
            }
            DayText { day: log.day, spans, records: log.records.len() }
        })
        .collect();

    // Enterprise protocol (Fig. 6c): each operation day is investigated
    // from the IOC-feed domains visible that day.
    let truth = Arc::new(world.intel.truth);
    let cases = dataset
        .meta
        .operation_days()
        .filter_map(|day| {
            let seeds: Vec<String> = world.intel.ioc.visible(day).map(str::to_owned).collect();
            (!seeds.is_empty()).then(|| Case {
                day,
                probe: Probe::SeedNames(seeds),
                truth: Truth::Oracle(Arc::clone(&truth)),
            })
        })
        .collect();

    Tenant {
        name: name.to_owned(),
        meta: dataset.meta,
        proxy: Some(ProxySide {
            dhcp: dataset.dhcp,
            whois: world.intel.whois,
            vt: world.intel.vt,
            train_end,
        }),
        records: days.iter().map(|d| d.records as u64).sum(),
        bytes: day_bytes(&days),
        days,
        cases,
    }
}
