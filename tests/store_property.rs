//! Property tests for the snapshot layer: round-trips over arbitrary
//! interner contents (unicode, empty strings, 100k+ symbols) and arbitrary
//! day indexes (by value and by byte), and the guarantee that truncated,
//! corrupted or hand-crafted snapshots fail with a typed [`StoreError`] —
//! never a panic, never a silent misload.

// Each integration-test crate uses a subset of the harness; the unused
// remainder is not a defect.
#[path = "support/backends.rs"]
#[allow(dead_code)]
mod support;

use earlybird::engine::{DayBatch, Engine, EngineBuilder, StoreError};
use earlybird::logmodel::{
    DatasetMeta, Day, DnsDayLog, DnsQuery, DnsRecordType, DomainInterner, HostId, HostKind, Ipv4,
    StrArena, Symbol, Timestamp,
};
use earlybird::pipeline::{
    Contact, DayIndex, DayIndexBuilder, DomainHistory, HttpContext, RareSieve,
};
use earlybird::store::{sections, BlockKind, BlockWriter, Decoder, Encoder, SectionTag};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Maps raw code points to a string, keeping only valid `char`s — exercises
/// empty strings, ASCII, and astral-plane unicode alike.
fn string_from(points: &[u32]) -> String {
    points.iter().filter_map(|&p| char::from_u32(p % 0x11_0000)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary interner contents survive the wire bit-for-bit, with
    /// identical symbol numbering.
    #[test]
    fn interner_contents_roundtrip(
        raw in proptest::collection::vec(
            proptest::collection::vec(0u32..0x11_0000, 0..12),
            0..40,
        )
    ) {
        let original = DomainInterner::new();
        for points in &raw {
            original.intern(&string_from(points));
        }
        let mut e = Encoder::new();
        sections::write_interner_tail(&mut e, 0, &original.tail(0));
        let bytes = e.into_bytes();

        let mut folded = StrArena::default();
        let mut d = Decoder::new(&bytes, "interners");
        sections::read_interner_onto(&mut d, &mut folded, "raw").unwrap();
        d.finish().unwrap();
        let restored = DomainInterner::new();
        prop_assert!(restored.extend_from_snapshot(folded));

        prop_assert_eq!(restored.len(), original.len());
        for (k, s) in original.tail(0).iter().enumerate() {
            prop_assert_eq!(restored.resolve(Symbol::from_raw(k as u32)), s);
        }
    }
}

/// The interner section's bytes are pinned: these literals were produced by
/// the encoder as it stood before the string tables became arenas, for the
/// same strings — a full table and a delta from watermark 2.
#[test]
fn interner_section_bytes_are_unchanged() {
    let interner = DomainInterner::new();
    for s in ["nbc.com", "", "çà.example", "🦀.rs", "a"] {
        interner.intern(s);
    }
    let encode = |start: usize| {
        let mut e = Encoder::new();
        sections::write_interner_tail(&mut e, start, &interner.tail(start));
        e.into_bytes()
    };
    let delta: [u8; 23] = [
        12, 195, 167, 195, 160, 46, 101, 120, 97, 109, 112, 108, 101, // "çà.example"
        7, 240, 159, 166, 128, 46, 114, 115, // "🦀.rs"
        1, 97, // "a"
    ];
    let full_head: [u8; 11] = [0, 5, 7, 110, 98, 99, 46, 99, 111, 109, 0];
    assert_eq!(encode(0), [&full_head[..], &delta[..]].concat());
    assert_eq!(encode(2), [&[2, 3][..], &delta[..]].concat());
}

fn encode_index(index: &DayIndex) -> Vec<u8> {
    let mut e = Encoder::new();
    sections::write_day_index(&mut e, index);
    e.into_bytes()
}

fn decode_index(bytes: &[u8]) -> Result<DayIndex, StoreError> {
    let mut d = Decoder::new(bytes, SectionTag::Products.name());
    let index = sections::read_day_index(&mut d)?;
    d.finish()?;
    Ok(index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A day built live from arbitrarily ordered, arbitrarily chunked
    /// contacts (HTTP context, destination IPs, popular-new domains and
    /// empty days included) equals the whole-day build, and survives the
    /// wire as the *same value*: decoding yields an index `==` on every
    /// column, and re-encoding it yields the same bytes.
    #[test]
    fn day_index_roundtrips_by_value_and_by_byte(
        raw in proptest::collection::vec(
            (0u64..5_000, 0u32..7, 0u32..9, proptest::option::of(0u32..4), 0u8..6),
            0..60,
        ),
        known in proptest::collection::vec(0u32..9, 0..3),
        chunk in 1usize..9,
    ) {
        let contacts: Vec<Contact> = raw
            .iter()
            .map(|&(ts, host, domain, ip, http)| Contact {
                ts: Timestamp::from_secs(ts),
                host: HostId::new(host),
                domain: Symbol::from_raw(domain),
                dest_ip: ip.map(|b| Ipv4::new(198, 51, 100, b as u8)),
                // 0/1: no HTTP context; otherwise referer × user-agent presence.
                http: (http >= 2).then(|| HttpContext {
                    ua: (http >= 4).then(|| Symbol::from_raw(u32::from(http))),
                    referer_present: http % 2 == 1,
                }),
            })
            .collect();
        let mut history = DomainHistory::new();
        history.update_domains(known.iter().map(|&d| Symbol::from_raw(d)));

        let mut builder = DayIndexBuilder::new(Day::new(4), 3);
        for chunk in contacts.chunks(chunk) {
            builder.push_contacts(chunk, &history, None);
        }
        let live = builder.finalize();
        let rare = RareSieve::new(3).extract(&contacts, &history);
        prop_assert_eq!(&DayIndex::build(Day::new(4), &contacts, rare, None), &live);

        let bytes = encode_index(&live);
        let restored = decode_index(&bytes).expect("a live day decodes");
        prop_assert_eq!(&restored, &live);
        prop_assert_eq!(encode_index(&restored), bytes);
    }
}

/// A hand-crafted day-index body: the `(day, new_count)` header, `before`
/// empty columns, whatever `column` writes, then empty columns up to the
/// format's six (rare, domain_hosts, edge_series, first_contact,
/// domain_ips, edge_http).
fn crafted_index(before: usize, column: impl Fn(&mut Encoder)) -> Vec<u8> {
    let mut e = Encoder::new();
    e.u32v(0); // day
    e.usizev(0); // new_count
    (0..before).for_each(|_| e.usizev(0));
    column(&mut e);
    (before + 1..6).for_each(|_| e.usizev(0));
    e.into_bytes()
}

/// Hand-crafted day indexes that decode field by field but break an order
/// the index's binary searches rely on — or claim more elements than the
/// payload holds — are typed `Corrupt`, never a panic or a silent misload.
#[test]
fn crafted_day_indexes_are_typed_corrupt() {
    let well_formed = crafted_index(0, |e| {
        e.usizev(2);
        e.u32v(2);
        e.u32v(5);
    });
    assert_eq!(decode_index(&well_formed).expect("the crafting helper is sound").rare_count(), 2);

    let cases: Vec<(&str, Vec<u8>)> = vec![
        (
            "unsorted rare set",
            crafted_index(0, |e| {
                e.usizev(3);
                [2u32, 5, 3].iter().for_each(|&d| e.u32v(d));
            }),
        ),
        (
            "repeated domain_hosts key",
            crafted_index(1, |e| {
                e.usizev(2);
                for _ in 0..2 {
                    e.u32v(7);
                    e.usizev(1);
                    e.u32v(0);
                }
            }),
        ),
        (
            "unsorted hosts under one domain",
            crafted_index(1, |e| {
                e.usizev(1);
                e.u32v(7);
                e.usizev(2);
                e.u32v(4);
                e.u32v(1);
            }),
        ),
        (
            "descending edge series",
            crafted_index(2, |e| {
                e.usizev(1);
                e.u32v(1);
                e.u32v(7);
                e.usizev(2);
                e.varint(100);
                e.varint(50u64.wrapping_sub(100));
            }),
        ),
        (
            "unsorted edge_series keys",
            crafted_index(2, |e| {
                e.usizev(2);
                for host in [2u32, 1] {
                    e.u32v(host);
                    e.u32v(7);
                    e.usizev(1);
                    e.varint(100);
                }
            }),
        ),
        (
            "repeated first_contact edge",
            crafted_index(3, |e| {
                e.usizev(2);
                for _ in 0..2 {
                    e.u32v(1);
                    e.u32v(7);
                    e.varint(100);
                }
            }),
        ),
        (
            "unsorted domain_ips keys",
            crafted_index(4, |e| {
                e.usizev(2);
                for domain in [7u32, 3] {
                    e.u32v(domain);
                    e.usizev(1);
                    e.u32v(0x0A00_0001);
                }
            }),
        ),
        (
            "unsorted edge_http keys",
            crafted_index(5, |e| {
                e.usizev(2);
                for host in [3u32, 2] {
                    e.u32v(host);
                    e.u32v(7);
                    (0..3).for_each(|_| e.u32v(1));
                    e.bool(true);
                }
            }),
        ),
        (
            "rare count past the payload",
            crafted_index(0, |e| {
                e.usizev(1_000);
                e.u32v(1);
            }),
        ),
        (
            "host count past the payload",
            crafted_index(1, |e| {
                e.usizev(1);
                e.u32v(7);
                e.usizev(1 << 40);
            }),
        ),
    ];
    for (what, bytes) in &cases {
        match decode_index(bytes) {
            Err(StoreError::Corrupt { .. }) => {}
            other => panic!("{what}: expected a typed Corrupt, got {other:?}"),
        }
    }

    // The same defect inside a chain surfaces through a whole-engine restore.
    let chain = chain_with_crafted_segment(
        &empty_interner_deltas,
        &valid_history_section,
        &[cases[1].1.clone()],
    );
    match try_restore(&chain) {
        Err(StoreError::Corrupt { context }) => {
            assert!(context.contains("domain_hosts"), "names the column: {context}")
        }
        other => panic!("crafted Products section: expected Corrupt, got {other:?}"),
    }
}

/// The fixture's full block with its cross-day log lengths, which a
/// hand-built segment's history deltas must continue from.
struct FixtureBase {
    full_block: &'static [u8],
    history_len: usize,
    days_ingested: u32,
}

fn fixture_base() -> FixtureBase {
    let pristine = fixture_snapshot();
    let full_block = &pristine[..full_block_len(pristine)];
    let engine = try_restore(full_block).expect("the full block restores on its own");
    assert!(engine.ua_history().pair_log().is_empty(), "a DNS fixture logs no user agents");
    FixtureBase {
        full_block,
        history_len: engine.history().ordered().len(),
        days_ingested: engine.history().days_ingested(),
    }
}

/// A History section that continues the fixture's logs with empty deltas.
fn valid_history_section(e: &mut Encoder, base: &FixtureBase) {
    e.usizev(base.history_len);
    e.usizev(0);
    e.u32v(base.days_ingested);
    empty_ua_delta(e);
}

fn empty_ua_delta(e: &mut Encoder) {
    e.usizev(10); // the LANL configuration's rare-UA threshold
    e.usizev(0);
    e.usizev(0);
}

/// Four interner deltas of `(start 0, none)`.
fn empty_interner_deltas(e: &mut Encoder) {
    (0..8).for_each(|_| e.usizev(0));
}

/// The fixture's full block followed by a hand-built day segment: empty
/// deltas everywhere except the Interners and History sections, which
/// `interners` and `history` write whole, and the Products section, which
/// carries `indexes` verbatim.
fn chain_with_crafted_segment(
    interners: &dyn Fn(&mut Encoder),
    history: &dyn Fn(&mut Encoder, &FixtureBase),
    indexes: &[Vec<u8>],
) -> Vec<u8> {
    let base = fixture_base();
    let mut out = base.full_block.to_vec();
    let mut block = BlockWriter::begin(&mut out, BlockKind::DaySegment).expect("begins");
    let mut section = |tag: SectionTag, write: &dyn Fn(&mut Encoder)| {
        let mut e = Encoder::new();
        write(&mut e);
        block.section(tag, e).expect("section writes");
    };
    section(SectionTag::Interners, interners);
    // The raw-line host map: `(start 0, none)`.
    section(SectionTag::Hosts, &|e| (0..2).for_each(|_| e.usizev(0)));
    section(SectionTag::History, &|e| history(e, &base));
    section(SectionTag::Reports, &|e| e.usizev(0));
    section(SectionTag::Products, &|e| {
        e.usizev(indexes.len());
        for index in indexes {
            (0..3).for_each(|_| e.bool(false)); // no reduction counters
            e.raw(index);
        }
    });
    section(SectionTag::Sequence, &|e| e.varint(1_000));
    block.finish().expect("finishes");
    out
}

/// Both cross-day logs skip an entry they already hold, so a delta that
/// repeats one used to restore "successfully" with a log shorter than the
/// chain's watermarks. Each log now fails the restore, naming its section.
#[test]
fn history_deltas_that_repeat_an_entry_are_typed_corrupt() {
    let control = chain_with_crafted_segment(&empty_interner_deltas, &valid_history_section, &[]);
    let engine = try_restore(&control).expect("a well-formed hand-built segment restores");
    assert_eq!(engine.history().ordered().len(), fixture_base().history_len);

    let repeated_domain = chain_with_crafted_segment(
        &empty_interner_deltas,
        &|e, base| {
            e.usizev(base.history_len);
            e.usizev(2);
            e.u32v(900);
            e.u32v(900);
            e.u32v(base.days_ingested);
            empty_ua_delta(e);
        },
        &[],
    );
    let repeated_pair = chain_with_crafted_segment(
        &empty_interner_deltas,
        &|e, base| {
            e.usizev(base.history_len);
            e.usizev(0);
            e.u32v(base.days_ingested);
            e.usizev(10);
            e.usizev(0);
            e.usizev(2);
            for _ in 0..2 {
                e.u32v(3); // user agent
                e.u32v(1); // host
            }
        },
        &[],
    );
    for (chain, log) in [(repeated_domain, "destination-history"), (repeated_pair, "user-agent")] {
        match try_restore(&chain) {
            Err(StoreError::Corrupt { context }) => assert!(
                context.contains("`history`") && context.contains(log),
                "names the section and the log: {context}"
            ),
            other => panic!("{log} delta with a repeat: expected Corrupt, got {other:?}"),
        }
    }
}

/// A restore that shares the caller's raw interner must not leave names
/// from a block it rejects in it: a raw delta of `[fresh, duplicate]` used
/// to intern the fresh name before failing on the duplicate, shifting every
/// symbol the caller minted afterwards and failing a retry from a good
/// chain with a spurious disagreement.
#[test]
fn a_rejected_interner_delta_leaves_the_shared_interner_untouched() {
    let base = fixture_base();
    let restore_sharing = |shared: &Arc<DomainInterner>, bytes: &[u8]| {
        EngineBuilder::lanl().restore_stream_with_domains(Arc::clone(shared), &mut &bytes[..])
    };
    let shared = Arc::new(DomainInterner::new());
    restore_sharing(&shared, base.full_block).expect("the full block restores");
    let before = shared.tail(0);
    let held = before.get(0).expect("the fixture interned names").to_owned();

    let chain = chain_with_crafted_segment(
        &|e| {
            e.usizev(before.len());
            e.usizev(2);
            e.str("fresh.example");
            e.str(&held);
            (0..6).for_each(|_| e.usizev(0));
        },
        &valid_history_section,
        &[],
    );
    match restore_sharing(&shared, &chain) {
        Err(StoreError::Corrupt { context }) => {
            assert!(context.contains("raw domain interner"), "names the table: {context}")
        }
        other => panic!("duplicate in a raw delta: expected Corrupt, got {other:?}"),
    }
    assert_eq!(shared.tail(0), before, "nothing from the rejected block remains");
    assert_eq!(shared.get("fresh.example"), None);
    assert_eq!(shared.intern("minted.later.example").raw() as usize, before.len());

    let good = chain_with_crafted_segment(&empty_interner_deltas, &valid_history_section, &[]);
    restore_sharing(&shared, &good).expect("a retry from a good chain succeeds");
}

/// Compaction refuses every crafted chain a restore refuses, with the
/// restore's own error, and leaves the store as it was.
#[test]
fn compaction_refuses_a_corrupt_chain_like_restore() {
    let base = fixture_base();
    let shared = Arc::new(DomainInterner::new());
    EngineBuilder::lanl()
        .restore_stream_with_domains(Arc::clone(&shared), &mut &base.full_block[..])
        .expect("the full block restores");
    let raw = shared.tail(0);
    let held = raw.get(0).expect("the fixture interned names").to_owned();

    let repeated_domain = chain_with_crafted_segment(
        &empty_interner_deltas,
        &|e, base| {
            e.usizev(base.history_len);
            e.usizev(2);
            e.u32v(900);
            e.u32v(900);
            e.u32v(base.days_ingested);
            empty_ua_delta(e);
        },
        &[],
    );
    let repeated_pair = chain_with_crafted_segment(
        &empty_interner_deltas,
        &|e, base| {
            e.usizev(base.history_len);
            e.usizev(0);
            e.u32v(base.days_ingested);
            e.usizev(10);
            e.usizev(0);
            e.usizev(2);
            for _ in 0..2 {
                e.u32v(3); // user agent
                e.u32v(1); // host
            }
        },
        &[],
    );
    let duplicate_raw = chain_with_crafted_segment(
        &|e| {
            e.usizev(raw.len());
            e.usizev(2);
            e.str("fresh.example");
            e.str(&held);
            (0..6).for_each(|_| e.usizev(0));
        },
        &valid_history_section,
        &[],
    );
    let unsorted_domain_hosts = chain_with_crafted_segment(
        &empty_interner_deltas,
        &valid_history_section,
        &[crafted_index(1, |e| {
            e.usizev(2);
            for domain in [9u32, 7] {
                e.u32v(domain);
                e.usizev(1);
                e.u32v(0);
            }
        })],
    );

    for (chain, names) in [
        (repeated_domain, "destination-history"),
        (repeated_pair, "user-agent history"),
        (duplicate_raw, "raw domain interner"),
        (unsorted_domain_hosts, "domain_hosts"),
    ] {
        let restore_context = match try_restore(&chain) {
            Err(StoreError::Corrupt { context }) => context,
            other => panic!("{names}: restore expected Corrupt, got {other:?}"),
        };
        assert!(restore_context.contains(names), "restore names {names}: {restore_context}");

        let (full, segment) = chain.split_at(base.full_block.len());
        let store = support::mem_store_holding(&[full, segment]);
        let before = {
            let dir = store.store();
            (dir.generation(), dir.entries().to_vec(), dir.chain_bytes())
        };
        match store.compact() {
            Err(StoreError::Corrupt { context }) => {
                assert_eq!(context, restore_context, "{names}: compaction names what restore does")
            }
            other => panic!("{names}: compaction expected Corrupt, got {other:?}"),
        }
        let dir = store.store();
        assert_eq!(
            (dir.generation(), dir.entries().to_vec(), dir.chain_bytes()),
            before,
            "{names}: a refused compaction leaves the manifest as it was"
        );
    }
}

/// 100k+ symbols — including empty and unicode names — survive a full
/// engine checkpoint/restore with identical numbering.
#[test]
fn interner_roundtrip_at_scale() {
    let domains = Arc::new(DomainInterner::new());
    domains.intern("");
    domains.intern("🦀.unicode.example");
    for i in 0..110_000u32 {
        domains.intern(&format!("host-{i}.shard-{}.example.com", i % 97));
    }
    let meta = DatasetMeta {
        n_hosts: 4,
        host_kinds: vec![HostKind::Workstation; 4],
        internal_suffixes: vec![],
        bootstrap_days: 0,
        total_days: 2,
    };
    let mut engine = EngineBuilder::lanl().build(Arc::clone(&domains), meta).expect("valid config");
    engine.ingest_day(DayBatch::Dns(&tiny_day(&domains)));

    let mut snapshot = Vec::new();
    engine.freeze().write_to(&mut snapshot).expect("checkpoint succeeds");
    let restored = try_restore(&snapshot).expect("restores");

    assert!(!restored.folded().is_empty(), "folded namespace restored");
    assert_eq!(engine.history().len(), restored.history().len());
    // The raw interner is private to the pipeline, but a second checkpoint
    // proves the full state (110k+ raw symbols included) round-tripped
    // bit-identically.
    let mut again = Vec::new();
    restored.freeze().write_to(&mut again).expect("re-checkpoint succeeds");
    assert_eq!(snapshot, again, "restored engine re-encodes the identical snapshot");
}

fn tiny_day(domains: &DomainInterner) -> DnsDayLog {
    let mut queries = Vec::new();
    for host in [1u32, 2] {
        for beat in 0..12 {
            queries.push(DnsQuery {
                ts: Timestamp::from_secs(20_000 + host as u64 * 5 + beat * 600),
                src: HostId::new(host),
                src_ip: Ipv4::new(10, 0, 0, host as u8),
                qname: domains.intern("cc.evil.example"),
                qtype: DnsRecordType::A,
                answer: Some(Ipv4::new(203, 0, 113, 5)),
            });
        }
    }
    queries.sort_by_key(|q| q.ts);
    DnsDayLog { day: Day::new(0), queries }
}

/// A small but fully populated snapshot (bootstrap + operation day, alerts,
/// host map, both histories), built once and shared by the fault-injection
/// properties below.
fn fixture_snapshot() -> &'static [u8] {
    static SNAP: OnceLock<Vec<u8>> = OnceLock::new();
    SNAP.get_or_init(|| {
        let domains = Arc::new(DomainInterner::new());
        let meta = DatasetMeta {
            n_hosts: 4,
            host_kinds: vec![HostKind::Workstation; 4],
            internal_suffixes: vec!["corp.internal".into()],
            bootstrap_days: 0,
            total_days: 2,
        };
        let mut engine = EngineBuilder::lanl()
            .soc_seed("ioc.evil.example")
            .auto_investigate(true)
            .build(Arc::clone(&domains), meta)
            .expect("valid config");
        engine.ingest_day(DayBatch::Dns(&tiny_day(&domains)));
        let mut out = Vec::new();
        engine.freeze().write_to(&mut out).expect("checkpoint succeeds");
        // One appended day segment so fault injection covers the segment
        // path too.
        let mut day1 = tiny_day(&domains);
        day1.day = Day::new(1);
        for q in &mut day1.queries {
            q.ts = Timestamp::from_secs(q.ts.as_secs() + 86_400);
        }
        engine.ingest_day(DayBatch::Dns(&day1));
        engine.freeze_day().expect("segment freezes").write_to(&mut out).expect("segment succeeds");
        out
    })
}

// Raw single-byte-stream restore is exactly what these properties probe, so
// they read through the one-release deprecated shim on purpose (the facade
// path reads the same bytes via `Persistence::restore`).
fn try_restore(bytes: &[u8]) -> Result<Engine, StoreError> {
    EngineBuilder::lanl().restore_stream(&mut &bytes[..])
}

#[test]
fn fixture_snapshot_restores_cleanly() {
    let engine = try_restore(fixture_snapshot()).expect("pristine fixture restores");
    assert_eq!(engine.days().count(), 2, "both days retained");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Flipping any byte anywhere in the stream yields a typed error —
    /// caught structurally or, at the latest, by the block CRC. Never a
    /// panic, never a silently wrong engine.
    #[test]
    fn corrupted_snapshots_fail_with_typed_errors(
        pos in 0.0f64..1.0,
        xor in 1u32..256,
    ) {
        let pristine = fixture_snapshot();
        let mut bytes = pristine.to_vec();
        let idx = ((pos * bytes.len() as f64) as usize).min(bytes.len() - 1);
        bytes[idx] ^= xor as u8;
        match try_restore(&bytes) {
            Err(_) => {} // every StoreError variant is acceptable; panics are not
            Ok(_) => prop_assert!(false, "byte {} xor {:#04x} restored successfully", idx, xor),
        }
    }

    /// Truncating the stream anywhere strictly inside a block yields a
    /// typed error (a cut exactly between blocks legitimately restores the
    /// shorter prefix — that is how append streams work).
    #[test]
    fn truncated_snapshots_fail_with_typed_errors(pos in 0.0f64..1.0) {
        let pristine = fixture_snapshot();
        let cut = ((pos * pristine.len() as f64) as usize).min(pristine.len() - 1);
        let restored = try_restore(&pristine[..cut]);
        // Find the only legitimate boundary: the end of the full block.
        let full_len = full_block_len(pristine);
        if cut == full_len {
            prop_assert!(restored.is_ok(), "cut at the block boundary is a valid shorter stream");
        } else {
            prop_assert!(restored.is_err(), "cut at {} must not restore", cut);
        }
    }
}

/// Locates the boundary after the first block by scanning for the second
/// occurrence of the magic (the fixture's payload bytes are CRC-guarded, so
/// a false positive would still fail the equality below).
fn full_block_len(stream: &[u8]) -> usize {
    let magic = b"EBSTORE1";
    stream
        .windows(magic.len())
        .enumerate()
        .skip(1)
        .find(|(_, w)| w == magic)
        .map(|(i, _)| i)
        .expect("fixture has two blocks")
}
