//! Snapshot-format stability: a golden store stream checked into the repo
//! must keep restoring (and keep byte-identical regeneration) until the
//! format version is deliberately bumped.
//!
//! If an intentional format change breaks these tests, bump
//! `earlybird_store::FORMAT_VERSION`, regenerate the fixture with
//! `cargo test --test snapshot_golden regenerate_golden_snapshot -- --ignored`,
//! and commit the new file alongside the version bump.

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::engine::{DayBatch, Engine, EngineBuilder};
use earlybird::logmodel::{
    DatasetMeta, Day, DnsDayLog, DnsQuery, DnsRecordType, DomainInterner, HostId, HostKind, Ipv4,
    Timestamp,
};
use std::io::Read as _;
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/data/golden-v1.ebstore")
}

fn day(domains: &DomainInterner, day: Day, beacon: &str) -> DnsDayLog {
    let base = day.index() as u64 * 86_400;
    let mut queries = Vec::new();
    for host in [1u32, 2] {
        queries.push(DnsQuery {
            ts: Timestamp::from_secs(base + 9_000 + host as u64),
            src: HostId::new(host),
            src_ip: Ipv4::new(10, 0, 0, host as u8),
            qname: domains.intern("news.benign.example"),
            qtype: DnsRecordType::A,
            answer: Some(Ipv4::new(93, 184, 216, 34)),
        });
        for beat in 0..12 {
            queries.push(DnsQuery {
                ts: Timestamp::from_secs(base + 20_000 + host as u64 * 5 + beat * 600),
                src: HostId::new(host),
                src_ip: Ipv4::new(10, 0, 0, host as u8),
                qname: domains.intern(beacon),
                qtype: DnsRecordType::A,
                answer: Some(Ipv4::new(203, 0, 113, 5)),
            });
        }
    }
    queries.sort_by_key(|q| q.ts);
    DnsDayLog { day, queries }
}

/// The deterministic fixture stream: fixed perf knobs (they are encoded in
/// the config section), two hand-built days, one full block plus one
/// segment.
fn golden_stream() -> Vec<u8> {
    golden_writer().1
}

/// The engine that writes the fixture stream, with the stream it wrote.
fn golden_writer() -> (Engine, Vec<u8>) {
    let domains = Arc::new(DomainInterner::new());
    let meta = DatasetMeta {
        n_hosts: 4,
        host_kinds: vec![HostKind::Workstation; 4],
        internal_suffixes: vec!["corp.internal".into()],
        bootstrap_days: 0,
        total_days: 2,
    };
    let mut engine = EngineBuilder::lanl()
        .parallelism(2)
        .parallel_threshold(512)
        .ingest_chunk_records(8_192)
        .soc_seed("ioc.evil.example")
        .auto_investigate(true)
        .build(Arc::clone(&domains), meta)
        .expect("valid config");
    let mut out = Vec::new();
    engine.ingest_day(DayBatch::Dns(&day(&domains, Day::new(0), "cc.evil.example")));
    engine.freeze().write_to(&mut out).expect("full block");
    engine.ingest_day(DayBatch::Dns(&day(&domains, Day::new(1), "c2.other.example")));
    engine.freeze_day().expect("segment freezes").write_to(&mut out).expect("segment");
    (engine, out)
}

// The golden fixture is a raw byte stream, so it reads through the
// one-release deprecated shim — the same decode path `Persistence::restore`
// drives through a chain reader.
fn restore_raw(bytes: &[u8], context: &str) -> Engine {
    EngineBuilder::lanl()
        .restore_stream(&mut &bytes[..])
        .unwrap_or_else(|e| panic!("{context}: {e}"))
}

fn assert_restores_like_fixture(mut engine: Engine) {
    assert_eq!(engine.days().collect::<Vec<_>>(), vec![Day::new(0), Day::new(1)]);
    assert_eq!(engine.history().days_ingested(), 2);
    let cc = engine.intern_domain("cc.evil.example");
    assert_eq!(&*engine.resolve(cc), "cc.evil.example");
    let scores = engine.cc_scores(Day::new(0)).expect("day 0 retained");
    assert!(
        scores.iter().any(|c| c.name == "cc.evil.example" && c.detected),
        "the fixture's beacon must still be detected: {scores:?}"
    );
    // The engine keeps working after restore.
    let domains = Arc::new(DomainInterner::new());
    let report = engine.ingest_day(DayBatch::Dns(&day(&domains, Day::new(2), "cc.evil.example")));
    assert!(!report.duplicate);
}

/// The checked-in golden snapshot still restores into a working engine.
#[test]
fn golden_snapshot_still_restores() {
    let bytes = std::fs::read(golden_path())
        .expect("golden fixture missing — run the regenerate_golden_snapshot test");
    let engine = restore_raw(&bytes, "golden snapshot restores");
    assert_restores_like_fixture(engine);
}

/// The writer still produces byte-identical output for the fixture state —
/// any drift here is a format change and needs a version bump plus a
/// regenerated golden file.
#[test]
fn golden_snapshot_bytes_are_reproducible() {
    let checked_in = std::fs::read(golden_path()).expect("golden fixture missing");
    assert_eq!(
        golden_stream(),
        checked_in,
        "snapshot writer output drifted from the checked-in golden file; \
         if intentional, bump FORMAT_VERSION and regenerate"
    );
}

/// The checked-in chain, committed to a store and compacted, folds into
/// exactly the golden writer's full freeze.
#[test]
fn golden_chain_folds_to_its_full_freeze() {
    let checked_in = std::fs::read(golden_path()).expect("golden fixture missing");
    // The segment starts at the second block magic (payloads are
    // CRC-guarded, so a stray match would fail the comparison below).
    let split = checked_in
        .windows(8)
        .skip(1)
        .position(|w| w == b"EBSTORE1")
        .map(|at| at + 1)
        .expect("the fixture holds two blocks");
    let store = support::mem_store_holding(&[&checked_in[..split], &checked_in[split..]]);
    store.compact().expect("the golden chain compacts");
    let mut compacted = Vec::new();
    store.store().reader().expect("reader").read_to_end(&mut compacted).expect("block reads");

    let (writer, _) = golden_writer();
    let mut freeze = Vec::new();
    writer.freeze().write_to(&mut freeze).expect("full freeze");
    assert_eq!(compacted, freeze, "the compacted golden chain is the writer's full freeze");
}

/// Regenerates the golden fixture (run manually after an intentional format
/// change): `cargo test --test snapshot_golden regenerate_golden_snapshot -- --ignored`
#[test]
#[ignore = "writes tests/data/golden-v1.ebstore; run manually on format changes"]
fn regenerate_golden_snapshot() {
    let bytes = golden_stream();
    std::fs::write(golden_path(), &bytes).expect("write golden fixture");
    let engine = restore_raw(&bytes, "fresh golden restores");
    assert_restores_like_fixture(engine);
}
