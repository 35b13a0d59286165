//! Property tests for the object-store backends: visible-or-absent
//! uploads across arbitrary payloads, and the conditional manifest swap
//! refusing stale generations under arbitrary concurrent-writer
//! interleavings.

use earlybird::engine::{
    DayBatch, EngineBuilder, LifecycleConfig, LocalFsBackend, MemBackend, ObjectStore, Persistence,
    SnapshotPolicy, StoreDir, StoreError,
};
use earlybird::logmodel::{
    DatasetMeta, Day, DnsDayLog, DnsQuery, DnsRecordType, DomainInterner, HostId, HostKind, Ipv4,
    Timestamp,
};
use proptest::prelude::*;
use std::io::{Read as _, Write as _};
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `MemBackend::swap_manifest` refuses a stale generation under *any*
    /// interleaving of two writers. The schedule drives which writer
    /// attempts each step; a writer whose cached view matches the store's
    /// real generation must win, any other must lose with a
    /// [`StoreError::ManifestConflict`] that reports the store's actual
    /// generation — after which the loser refreshes its view (a reopen)
    /// and may win later.
    #[test]
    fn swap_manifest_refuses_stale_generations(
        schedule in proptest::collection::vec(0usize..2, 1..32),
    ) {
        let service = MemBackend::new();
        service.swap_manifest(None, 0, b"gen0").unwrap();

        let mut truth = 0u64; // the store's real generation
        let mut observed = [0u64; 2]; // each writer's last-read generation
        for (step, &w) in schedule.iter().enumerate() {
            let expected = observed[w];
            let next = expected + 1;
            let payload = format!("writer{w}-step{step}");
            match service.swap_manifest(Some(expected), next, payload.as_bytes()) {
                Ok(()) => {
                    prop_assert_eq!(
                        expected, truth,
                        "a swap may only win against the store's real generation"
                    );
                    truth = next;
                    observed[w] = next;
                }
                Err(StoreError::ManifestConflict { expected: e, found }) => {
                    prop_assert_eq!(e, Some(expected), "conflict echoes the loser's view");
                    prop_assert_eq!(found, Some(truth), "conflict reports the real generation");
                    prop_assert_ne!(expected, truth, "an up-to-date writer must not be refused");
                    observed[w] = truth; // the loser reopens and refreshes
                }
                Err(other) => prop_assert!(false, "unexpected error: {other}"),
            }
        }
        // The surviving manifest is exactly the last winning write.
        prop_assert!(service.read_manifest().unwrap().is_some());
    }

    /// Visible-or-absent over arbitrary payloads: an abandoned upload
    /// never surfaces, a finalized one round-trips byte-exactly.
    #[test]
    fn uploads_are_visible_or_absent_for_any_payload(
        len in 0usize..200,
        seed in proptest::num::u8::ANY,
        abandon in proptest::bool::ANY,
    ) {
        let payload: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed)).collect();
        let root = std::env::temp_dir()
            .join(format!("earlybird-backend-property-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let backends: Vec<Box<dyn ObjectStore>> = vec![
            Box::new(MemBackend::new()),
            Box::new(LocalFsBackend::new(&root).unwrap()),
        ];
        for backend in backends {
            let mut upload = backend.put_atomic("obj.ebstore").unwrap();
            upload.write_all(&payload).unwrap();
            prop_assert_eq!(upload.bytes_staged(), payload.len() as u64);
            if abandon {
                drop(upload);
                prop_assert!(
                    backend.get("obj.ebstore").is_err(),
                    "{}: abandoned upload must stay invisible", backend.kind()
                );
                // LocalFs leaves its `*.tmp` staging file for the next
                // open's quarantine sweep; nothing else may be listed.
                let localfs = backend.kind() == "localfs";
                let listed = backend.list().unwrap();
                prop_assert!(
                    listed.iter().all(|o| localfs && o.name.ends_with(".tmp")),
                    "{}: only staging residue may be listed; got {:?}", backend.kind(), listed
                );
            } else {
                upload.finalize().unwrap();
                let mut back = Vec::new();
                backend.get("obj.ebstore").unwrap().read_to_end(&mut back).unwrap();
                prop_assert_eq!(&back, &payload, "{}: byte-exact roundtrip", backend.kind());
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

// -- the race at the StoreDir level -----------------------------------------

fn synthetic_day(domains: &DomainInterner, day: u32) -> DnsDayLog {
    let mut queries = Vec::new();
    for host in [1u32, 2] {
        for beat in 0..12 {
            queries.push(DnsQuery {
                ts: Timestamp::from_secs(u64::from(day) * 86_400 + host as u64 * 5 + beat * 600),
                src: HostId::new(host),
                src_ip: Ipv4::new(10, 0, 0, host as u8),
                qname: domains.intern("cc.evil.example"),
                qtype: DnsRecordType::A,
                answer: Some(Ipv4::new(203, 0, 113, 5)),
            });
        }
    }
    queries.sort_by_key(|q| q.ts);
    DnsDayLog { day: Day::new(day), queries }
}

/// Two engines driving the same conditional store: the writer that commits
/// second loses with a typed [`StoreError::ManifestConflict`] — the chain
/// is the winner's, never an interleaving of both.
#[test]
fn concurrent_store_dirs_surface_a_typed_manifest_conflict() {
    let domains = Arc::new(DomainInterner::new());
    let meta = DatasetMeta {
        n_hosts: 4,
        host_kinds: vec![HostKind::Workstation; 4],
        internal_suffixes: vec![],
        bootstrap_days: 0,
        total_days: 4,
    };
    let engine_for = |domains: &Arc<DomainInterner>| {
        EngineBuilder::lanl().build(Arc::clone(domains), meta.clone()).expect("valid config")
    };

    let service = MemBackend::new();
    let cfg = LifecycleConfig::default();

    // Writer A creates the store and persists day 0.
    let dir_a = StoreDir::create_boxed(Box::new(service.clone()), cfg).expect("create");
    let store_a = Persistence::new(dir_a, SnapshotPolicy::default());
    let mut engine_a = engine_for(&domains);
    engine_a.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 0)));
    store_a.commit(&engine_a).expect("freeze").wait().expect("A persists day 0");

    // Writer B opens the same store at the same generation.
    let dir_b = StoreDir::open_boxed(Box::new(service.clone()), cfg).expect("B opens");
    let store_b = Persistence::new(dir_b, SnapshotPolicy::default());
    let mut engine_b = store_b.restore(EngineBuilder::lanl()).expect("B restores");
    assert_eq!(store_a.generation(), store_b.generation());

    // A commits day 1 first and wins; B races the same generation with a
    // *different* day (different bytes — a clobber would corrupt A's
    // committed object, not just its manifest entry).
    engine_a.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 1)));
    store_a.commit(&engine_a).expect("freeze").wait().expect("A persists day 1");
    engine_b.ingest_day(DayBatch::Dns(&synthetic_day(&domains, 2)));
    let err = store_b
        .commit(&engine_b)
        .and_then(|handle| handle.wait())
        .expect_err("B must lose the race");
    assert!(
        matches!(err, StoreError::ManifestConflict { .. } | StoreError::ObjectConflict { .. }),
        "typed conflict, got {err}"
    );

    // The chain is exactly A's — bytes included; B reopens, restores, and
    // sees A's days.
    let fresh = StoreDir::open_boxed(Box::new(service.clone()), cfg).expect("reopen");
    assert_eq!(fresh.generation(), store_a.generation());
    let restored = Persistence::new(fresh, SnapshotPolicy::default())
        .restore(EngineBuilder::lanl())
        .expect("winner's chain restores");
    assert_eq!(
        restored.reports().map(|r| r.day).collect::<Vec<_>>(),
        vec![Day::new(0), Day::new(1)],
        "winner's two days, no interleaving"
    );
}
