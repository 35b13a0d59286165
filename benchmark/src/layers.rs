//! Single-layer measurements of the traced run that no ingest span
//! isolates: the parser with a cold and a warm interner, and the cost of
//! encoding, writing and decoding the final snapshot without the store
//! directory around it.

use crate::checks::Checks;
use crate::trace::Tracer;
use crate::worlds::World;
use earlybird::engine::{Engine, EngineBuilder, LocalFsBackend, ObjectStore};
use earlybird::logmodel::{
    parse_dns_span, parse_proxy_span, payload_line, DomainInterner, ParsedChunk, PathInterner,
    UaInterner,
};
use std::io::Write as _;
use std::path::Path;

/// Parses every span of the world once; returns `(records, errors)`.
fn parse_all(
    world: &World,
    domains: &DomainInterner,
    uas: &UaInterner,
    paths: &PathInterner,
) -> (u64, u64) {
    let (mut records, mut errors) = (0u64, 0u64);
    let mut dns = ParsedChunk::default();
    let mut proxy = ParsedChunk::default();
    for tenant in &world.tenants {
        for span in tenant.days.iter().flat_map(|d| &d.spans) {
            let lines =
                span.lines().enumerate().filter_map(|(i, l)| Some((i + 1, payload_line(l)?)));
            if tenant.proxy.is_some() {
                proxy.clear();
                parse_proxy_span(lines, domains, uas, paths, &mut proxy);
                records += proxy.records.len() as u64;
                errors += proxy.errors.len() as u64;
            } else {
                dns.clear();
                parse_dns_span(lines, domains, &mut dns);
                records += dns.records.len() as u64;
                errors += dns.errors.len() as u64;
            }
        }
    }
    (records, errors)
}

pub struct ParseCosts {
    pub cold_s: f64,
    pub warm_s: f64,
}

/// One cold pass (fresh interners, every distinct name misses once)
/// followed by one warm pass (every lookup hits) over the world's text.
pub fn parse_costs(world: &World, tracer: &Tracer, checks: &mut Checks) -> ParseCosts {
    let (domains, uas, paths) = (DomainInterner::new(), UaInterner::new(), PathInterner::new());
    let (cold, cold_s) =
        tracer.span("logmodel.parse_cold", || parse_all(world, &domains, &uas, &paths));
    let (warm, warm_s) =
        tracer.span("logmodel.parse_warm", || parse_all(world, &domains, &uas, &paths));
    for (records, errors) in [cold, warm] {
        checks.expect(records == world.records() && errors == 0, || {
            format!("isolated parse saw {records} records and {errors} errors")
        });
    }
    ParseCosts { cold_s, warm_s }
}

pub struct SnapshotCosts {
    pub freeze_s: f64,
    pub encode_s: f64,
    pub decode_s: f64,
    pub raw_put_s: f64,
    pub bytes: u64,
}

/// Freezes every engine's final state, encodes it into memory, puts the
/// bytes through the bare backend and decodes them again.
pub fn snapshot_costs(
    engines: &[Engine],
    root: &Path,
    tracer: &Tracer,
    checks: &mut Checks,
) -> SnapshotCosts {
    let mut costs =
        SnapshotCosts { freeze_s: 0.0, encode_s: 0.0, decode_s: 0.0, raw_put_s: 0.0, bytes: 0 };
    let backend = LocalFsBackend::new(root).expect("raw-put root under the scratch dir");
    for engine in engines {
        let (snapshot, freeze_s) = tracer.span("engine.freeze", || engine.freeze());
        let mut bytes = Vec::new();
        let (written, encode_s) = tracer.span("engine.encode", || snapshot.write_to(&mut bytes));
        checks.expect(written.is_ok(), || format!("snapshot encode: {written:?}"));
        let (put, raw_put_s) = tracer.span("store.raw_put", || {
            let mut upload = backend.put_atomic("snapshot.ebstore")?;
            upload.write_all(&bytes)?;
            upload.finalize()
        });
        checks.expect(put.is_ok(), || format!("raw put: {put:?}"));
        let (decoded, decode_s) = tracer
            .span("store.decode", || EngineBuilder::lanl().restore_stream(&mut bytes.as_slice()));
        checks.expect(decoded.is_ok(), || "snapshot decode failed".to_owned());
        costs.freeze_s += freeze_s;
        costs.encode_s += encode_s;
        costs.raw_put_s += raw_put_s;
        costs.decode_s += decode_s;
        costs.bytes += bytes.len() as u64;
    }
    let _ = std::fs::remove_dir_all(root);
    costs
}
