//! Component codecs: how each piece of engine state maps onto the wire.
//!
//! These functions encode *hooks* exposed by the substrate crates (interner
//! tails, history logs, day-index columns, model parts) rather than
//! private memory layouts, so the binary format stays stable under internal
//! refactors. Decoders validate every invariant the constructors would
//! otherwise `assert!` — a corrupt snapshot must surface a typed
//! [`StoreError`], never a panic.
//!
//! A day index is the one structure whose wire order *is* its memory order:
//! [`write_day_index`] emits a [`DayIndex`]'s sorted columns as they stand
//! and [`read_day_index`] decodes them straight back into place, so neither
//! direction sorts, and a restored day re-encodes as cheaply as a live one.

use crate::codec::{Decoder, Encoder};
use crate::error::{StoreError, StoreResult};
use earlybird_features::{AdditiveScorer, FeatureScaler, Fit, RegressionModel};
use earlybird_intel::{Registration, WhoisRegistry};
use earlybird_logmodel::{
    DatasetMeta, Day, DomainSym, HostId, HostKind, Ipv4, StrArena, Symbol, Timestamp,
};
use earlybird_pipeline::{
    DayIndex, DnsReductionCounts, EdgeHttp, EdgeKey, Grouped, NormalizationCounts,
    ProxyReductionCounts,
};
use earlybird_timing::{AutomationDetector, DistanceMetric};

// -- interners --------------------------------------------------------------

/// Writes an interner tail — the strings from symbol `start` onward
/// (`start = 0` for a full snapshot, the persist cursor for a delta), as
/// captured by `TypedInterner::tail`.
pub fn write_interner_tail(e: &mut Encoder, start: usize, tail: &StrArena) {
    e.usizev(start);
    e.usizev(tail.len());
    for s in tail.iter() {
        e.str(s);
    }
}

/// Reads an interner slice onto the table a chain fold assembles: strings
/// below `arena.len()` are verified against it and the rest appended.
/// Repeats are *not* refused here — the interner that takes the finished
/// arena (`TypedInterner::extend_from_snapshot`) or one
/// [`check_interner_distinct`] over it does that, with the error
/// [`interner_disagrees`].
pub fn read_interner_onto(
    d: &mut Decoder<'_>,
    arena: &mut StrArena,
    what: &str,
) -> StoreResult<()> {
    let held = arena.len();
    let start = d.usizev()?;
    if start > held {
        return Err(StoreError::corrupt(format!(
            "{what} interner delta starts at {start}, engine holds only {held}"
        )));
    }
    let count = d.seq_len(1)?;
    let mut strings = Vec::with_capacity(count.min(64 * 1024));
    for _ in 0..count {
        strings.push(d.str_ref()?);
    }
    let (known, fresh) = strings.split_at((held - start).min(strings.len()));
    if !known.iter().enumerate().all(|(k, s)| arena.holds(start + k, s)) {
        return Err(interner_disagrees(what));
    }
    // Reserved exactly, block by block: a restored interner adopts this
    // arena, capacity and all.
    arena.reserve(fresh.len(), fresh.iter().map(|s| s.len()).sum());
    fresh.iter().for_each(|s| arena.push(s));
    Ok(())
}

/// Refuses an arena assembled by [`read_interner_onto`] that holds a
/// string twice: an interner would have numbered it once.
pub fn check_interner_distinct(arena: &StrArena, what: &str) -> StoreResult<()> {
    if arena.all_distinct() {
        Ok(())
    } else {
        Err(interner_disagrees(what))
    }
}

/// The error for a `what` interner table that repeats a string or
/// disagrees with the strings an interner already holds.
pub fn interner_disagrees(what: &str) -> StoreError {
    StoreError::corrupt(format!(
        "{what} interner snapshot disagrees with existing contents \
         (duplicate or misnumbered symbols)"
    ))
}

// -- host mapper ------------------------------------------------------------

/// Writes the host-id assignments from id `start` onward, `tail` being the
/// addresses of hosts `start..` as a frozen snapshot captured them.
pub fn write_host_mapper_tail(e: &mut Encoder, start: usize, tail: &[Ipv4]) {
    e.usizev(start);
    e.usizev(tail.len());
    for ip in tail {
        e.u32v(ip.to_bits());
    }
}

/// Reads a host-mapper slice as the addresses of hosts `held..`, refusing
/// one that starts anywhere else.
pub fn read_host_tail(d: &mut Decoder<'_>, held: usize) -> StoreResult<Vec<Ipv4>> {
    let start = d.usizev()?;
    if start != held {
        return Err(StoreError::corrupt(format!(
            "host mapper delta starts at {start}, engine holds {held}"
        )));
    }
    let count = d.seq_len(1)?;
    let mut ips = Vec::with_capacity(count.min(64 * 1024));
    for _ in 0..count {
        ips.push(Ipv4::from_bits(d.u32v()?));
    }
    Ok(ips)
}

/// The error for a host map that holds an address twice.
pub fn host_repeat() -> StoreError {
    StoreError::corrupt("host mapper snapshot repeats an address")
}

// -- histories --------------------------------------------------------------

/// Writes the destination-history insertion log from `start` onward, plus
/// the absolute ingested-day counter, `tail` being the log's entries
/// `start..` as a frozen snapshot captured them.
pub fn write_domain_history_tail(
    e: &mut Encoder,
    start: usize,
    tail: &[DomainSym],
    days_ingested: u32,
) {
    e.usizev(start);
    e.usizev(tail.len());
    for sym in tail {
        e.u32v(sym.raw());
    }
    e.u32v(days_ingested);
}

/// Reads a destination-history slice: `(start, new domains, days_ingested)`.
pub fn read_domain_history(d: &mut Decoder<'_>) -> StoreResult<(usize, Vec<DomainSym>, u32)> {
    let start = d.usizev()?;
    let count = d.seq_len(1)?;
    let mut syms = Vec::with_capacity(count.min(64 * 1024));
    for _ in 0..count {
        syms.push(Symbol::from_raw(d.u32v()?));
    }
    let days = d.u32v()?;
    Ok((start, syms, days))
}

/// Writes the user-agent history pair log from `start` onward, `tail`
/// being the log's pairs `start..` as a frozen snapshot captured them.
pub fn write_ua_history_tail(
    e: &mut Encoder,
    rare_threshold: usize,
    start: usize,
    tail: &[(earlybird_logmodel::UaSym, HostId)],
) {
    e.usizev(rare_threshold);
    e.usizev(start);
    e.usizev(tail.len());
    for (ua, host) in tail {
        e.u32v(ua.raw());
        e.u32v(host.index());
    }
}

/// Reads a user-agent history slice: `(threshold, start, new pairs)`.
#[allow(clippy::type_complexity)]
pub fn read_ua_history(
    d: &mut Decoder<'_>,
) -> StoreResult<(usize, usize, Vec<(earlybird_logmodel::UaSym, HostId)>)> {
    let threshold = d.usizev()?;
    if threshold == 0 {
        return Err(StoreError::corrupt("rare-UA threshold must be at least 1"));
    }
    let start = d.usizev()?;
    let count = d.seq_len(2)?;
    let mut pairs = Vec::with_capacity(count.min(64 * 1024));
    for _ in 0..count {
        let ua = Symbol::from_raw(d.u32v()?);
        let host = HostId::new(d.u32v()?);
        pairs.push((ua, host));
    }
    Ok((threshold, start, pairs))
}

// -- day index --------------------------------------------------------------

/// Writes one retained day's contact index. A [`DayIndex`] holds its columns
/// in exactly the order written here — live and restored days alike — so
/// this is pure emission: no sorting, no cloning.
pub fn write_day_index(e: &mut Encoder, index: &DayIndex) {
    e.u32v(index.day().index());
    e.usizev(index.new_count());
    e.usizev(index.rare_count());
    for d in index.rare_domains() {
        e.u32v(d.raw());
    }
    e.usizev(index.domain_hosts().len());
    for (d, hosts) in index.domain_hosts().iter() {
        e.u32v(d.raw());
        e.usizev(hosts.len());
        for h in hosts {
            e.u32v(h.index());
        }
    }
    e.usizev(index.edge_series().len());
    for ((h, d), series) in index.edge_series().iter() {
        e.u32v(h.index());
        e.u32v(d.raw());
        e.usizev(series.len());
        // Series are sorted ascending: delta-encode for compactness.
        let mut prev = 0u64;
        for ts in series {
            e.varint(ts.as_secs().wrapping_sub(prev));
            prev = ts.as_secs();
        }
    }
    e.usizev(index.first_contacts().len());
    for ((h, d), ts) in index.first_contacts() {
        e.u32v(h.index());
        e.u32v(d.raw());
        e.varint(ts.as_secs());
    }
    e.usizev(index.domain_ips().len());
    for (d, ips) in index.domain_ips().iter() {
        e.u32v(d.raw());
        e.usizev(ips.len());
        for ip in ips {
            e.u32v(ip.to_bits());
        }
    }
    e.usizev(index.edge_http().len());
    for ((h, d), http) in index.edge_http() {
        e.u32v(h.index());
        e.u32v(d.raw());
        e.u32v(http.connections);
        e.u32v(http.with_referer);
        e.u32v(http.with_common_ua);
        e.bool(http.saw_http);
    }
}

fn read_edge(d: &mut Decoder<'_>) -> StoreResult<EdgeKey> {
    Ok((HostId::new(d.u32v()?), DomainSym::from_raw(d.u32v()?)))
}

/// Reads one retained day's contact index, each column straight into the
/// `Vec` it lives in for the life of the engine. A column whose keys do not
/// ascend (the order every lookup binary-searches on) is
/// [`StoreError::Corrupt`], as is any count past the payload.
pub fn read_day_index(d: &mut Decoder<'_>) -> StoreResult<DayIndex> {
    let day = Day::new(d.u32v()?);
    let new_count = d.usizev()?;

    let n = d.seq_len(1)?;
    let mut rare = Vec::with_capacity(n);
    for _ in 0..n {
        rare.push(DomainSym::from_raw(d.u32v()?));
    }

    let n = d.seq_len(2)?;
    let mut domain_hosts = Grouped::with_capacity(n);
    for _ in 0..n {
        domain_hosts.begin_group(DomainSym::from_raw(d.u32v()?));
        for _ in 0..d.seq_len(1)? {
            domain_hosts.push(HostId::new(d.u32v()?));
        }
    }

    let n = d.seq_len(3)?;
    let mut edge_series = Grouped::with_capacity(n);
    for _ in 0..n {
        edge_series.begin_group(read_edge(d)?);
        let mut prev = 0u64;
        for _ in 0..d.seq_len(1)? {
            // checked_add keeps the decoded series non-decreasing even for
            // hostile input — downstream beacon estimators assert sorted
            // series, and that panic must not be reachable from a snapshot.
            prev = prev
                .checked_add(d.varint()?)
                .ok_or_else(|| StoreError::corrupt("edge series timestamp delta overflows u64"))?;
            edge_series.push(Timestamp::from_secs(prev));
        }
    }

    let n = d.seq_len(3)?;
    let mut first_contact = Vec::with_capacity(n);
    for _ in 0..n {
        first_contact.push((read_edge(d)?, Timestamp::from_secs(d.varint()?)));
    }

    let n = d.seq_len(2)?;
    let mut domain_ips = Grouped::with_capacity(n);
    for _ in 0..n {
        domain_ips.begin_group(DomainSym::from_raw(d.u32v()?));
        for _ in 0..d.seq_len(1)? {
            domain_ips.push(Ipv4::from_bits(d.u32v()?));
        }
    }

    let n = d.seq_len(6)?;
    let mut edge_http = Vec::with_capacity(n);
    for _ in 0..n {
        let edge = read_edge(d)?;
        let http = EdgeHttp {
            connections: d.u32v()?,
            with_referer: d.u32v()?,
            with_common_ua: d.u32v()?,
            saw_http: d.bool()?,
        };
        edge_http.push((edge, http));
    }

    DayIndex::from_columns(
        day,
        new_count,
        rare,
        domain_hosts,
        edge_series,
        first_contact,
        domain_ips,
        edge_http,
    )
    .map_err(|e| StoreError::corrupt(e.to_string()))
}

// -- reduction / normalization counters -------------------------------------

/// Writes optional DNS reduction counters.
pub fn write_opt_dns_counts(e: &mut Encoder, c: Option<&DnsReductionCounts>) {
    match c {
        None => e.bool(false),
        Some(c) => {
            e.bool(true);
            e.usizev(c.records_all);
            e.usizev(c.records_a_only);
            e.usizev(c.domains_all);
            e.usizev(c.domains_after_internal_filter);
            e.usizev(c.domains_after_server_filter);
        }
    }
}

/// Reads optional DNS reduction counters.
pub fn read_opt_dns_counts(d: &mut Decoder<'_>) -> StoreResult<Option<DnsReductionCounts>> {
    if !d.bool()? {
        return Ok(None);
    }
    Ok(Some(DnsReductionCounts {
        records_all: d.usizev()?,
        records_a_only: d.usizev()?,
        domains_all: d.usizev()?,
        domains_after_internal_filter: d.usizev()?,
        domains_after_server_filter: d.usizev()?,
    }))
}

/// Writes optional proxy reduction counters.
pub fn write_opt_proxy_counts(e: &mut Encoder, c: Option<&ProxyReductionCounts>) {
    match c {
        None => e.bool(false),
        Some(c) => {
            e.bool(true);
            e.usizev(c.records_all);
            e.usizev(c.domains_all);
            e.usizev(c.domains_after_internal_filter);
            e.usizev(c.domains_after_server_filter);
        }
    }
}

/// Reads optional proxy reduction counters.
pub fn read_opt_proxy_counts(d: &mut Decoder<'_>) -> StoreResult<Option<ProxyReductionCounts>> {
    if !d.bool()? {
        return Ok(None);
    }
    Ok(Some(ProxyReductionCounts {
        records_all: d.usizev()?,
        domains_all: d.usizev()?,
        domains_after_internal_filter: d.usizev()?,
        domains_after_server_filter: d.usizev()?,
    }))
}

/// Writes optional normalization counters.
pub fn write_opt_norm_counts(e: &mut Encoder, c: Option<&NormalizationCounts>) {
    match c {
        None => e.bool(false),
        Some(c) => {
            e.bool(true);
            e.usizev(c.input);
            e.usizev(c.output);
            e.usizev(c.dropped_unresolvable);
            e.usizev(c.dropped_ip_literal);
        }
    }
}

/// Reads optional normalization counters.
pub fn read_opt_norm_counts(d: &mut Decoder<'_>) -> StoreResult<Option<NormalizationCounts>> {
    if !d.bool()? {
        return Ok(None);
    }
    Ok(Some(NormalizationCounts {
        input: d.usizev()?,
        output: d.usizev()?,
        dropped_unresolvable: d.usizev()?,
        dropped_ip_literal: d.usizev()?,
    }))
}

// -- dataset metadata -------------------------------------------------------

/// Writes the dataset metadata the engine was built over.
pub fn write_dataset_meta(e: &mut Encoder, meta: &DatasetMeta) {
    e.u32v(meta.n_hosts);
    e.usizev(meta.host_kinds.len());
    for kind in &meta.host_kinds {
        e.u8(match kind {
            HostKind::Workstation => 0,
            HostKind::Server => 1,
        });
    }
    e.usizev(meta.internal_suffixes.len());
    for s in &meta.internal_suffixes {
        e.str(s);
    }
    e.u32v(meta.bootstrap_days);
    e.u32v(meta.total_days);
}

/// Reads the dataset metadata.
pub fn read_dataset_meta(d: &mut Decoder<'_>) -> StoreResult<DatasetMeta> {
    let n_hosts = d.u32v()?;
    let n = d.seq_len(1)?;
    let mut host_kinds = Vec::with_capacity(n.min(64 * 1024));
    for _ in 0..n {
        host_kinds.push(match d.u8()? {
            0 => HostKind::Workstation,
            1 => HostKind::Server,
            b => return Err(StoreError::corrupt(format!("unknown host kind {b}"))),
        });
    }
    let n = d.seq_len(1)?;
    let mut internal_suffixes = Vec::with_capacity(n.min(64 * 1024));
    for _ in 0..n {
        internal_suffixes.push(d.str()?);
    }
    Ok(DatasetMeta {
        n_hosts,
        host_kinds,
        internal_suffixes,
        bootstrap_days: d.u32v()?,
        total_days: d.u32v()?,
    })
}

// -- models -----------------------------------------------------------------

/// Writes the beacon-timing detector parameters.
pub fn write_automation(e: &mut Encoder, det: &AutomationDetector) {
    e.varint(det.bin_width());
    e.f64(det.jt_threshold());
    e.usizev(det.min_connections());
    e.u8(match det.metric() {
        DistanceMetric::Jeffrey => 0,
        DistanceMetric::L1 => 1,
    });
}

/// Reads and validates the beacon-timing detector parameters.
pub fn read_automation(d: &mut Decoder<'_>) -> StoreResult<AutomationDetector> {
    let bin_width = d.varint()?;
    let jt = d.f64()?;
    let min_connections = d.usizev()?;
    let metric = match d.u8()? {
        0 => DistanceMetric::Jeffrey,
        1 => DistanceMetric::L1,
        b => return Err(StoreError::corrupt(format!("unknown distance metric {b}"))),
    };
    if !jt.is_finite() || jt < 0.0 {
        return Err(StoreError::corrupt("automation threshold must be finite and non-negative"));
    }
    if min_connections < 2 {
        return Err(StoreError::corrupt("automation min_connections must be at least 2"));
    }
    Ok(AutomationDetector::new(bin_width, jt, min_connections).with_metric(metric))
}

/// Writes a fitted regression model (names, coefficients, threshold).
pub fn write_regression_model(e: &mut Encoder, model: &RegressionModel) {
    let names: Vec<&str> = model.feature_names().collect();
    e.usizev(names.len());
    for name in names {
        e.str(name);
    }
    let fit = model.fit();
    e.usizev(fit.n_features());
    for i in 0..=fit.n_features() {
        // Intercept first, matching the fit's own layout.
        let (beta, se) = if i == 0 {
            (fit.intercept(), fit.intercept_std_error())
        } else {
            (fit.coefficient(i - 1), fit.std_error(i - 1))
        };
        e.f64(beta);
        e.f64(se);
    }
    e.f64(fit.r_squared());
    e.usizev(fit.n_samples());
    e.f64(model.threshold());
}

/// Reads and validates a fitted regression model.
pub fn read_regression_model(d: &mut Decoder<'_>) -> StoreResult<RegressionModel> {
    let n_names = d.seq_len(1)?;
    let mut names = Vec::with_capacity(n_names.min(64 * 1024));
    for _ in 0..n_names {
        names.push(d.str()?);
    }
    let n_features = d.usizev()?;
    if n_features != names.len() {
        return Err(StoreError::corrupt(format!(
            "regression model has {n_names} names but {n_features} features"
        )));
    }
    let mut beta = Vec::with_capacity(n_features + 1);
    let mut std_errors = Vec::with_capacity(n_features + 1);
    for _ in 0..=n_features {
        beta.push(d.f64()?);
        std_errors.push(d.f64()?);
    }
    let r_squared = d.f64()?;
    let n = d.usizev()?;
    let threshold = d.f64()?;
    let fit = Fit::from_parts(beta, std_errors, r_squared, n)
        .ok_or_else(|| StoreError::corrupt("regression fit parts are inconsistent"))?;
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    Ok(RegressionModel::new(&name_refs, fit, threshold))
}

/// Writes a fitted min-max feature scaler.
pub fn write_scaler(e: &mut Encoder, scaler: &FeatureScaler) {
    e.usizev(scaler.n_features());
    for i in 0..scaler.n_features() {
        e.f64(scaler.mins()[i]);
        e.f64(scaler.maxs()[i]);
    }
}

/// Reads a fitted min-max feature scaler.
pub fn read_scaler(d: &mut Decoder<'_>) -> StoreResult<FeatureScaler> {
    let n = d.seq_len(16)?;
    let mut mins = Vec::with_capacity(n.min(64 * 1024));
    let mut maxs = Vec::with_capacity(n.min(64 * 1024));
    for _ in 0..n {
        mins.push(d.f64()?);
        maxs.push(d.f64()?);
    }
    FeatureScaler::from_bounds(mins, maxs)
        .ok_or_else(|| StoreError::corrupt("feature scaler bounds are inconsistent"))
}

/// Writes an additive (LANL) similarity scorer.
pub fn write_additive(e: &mut Encoder, scorer: &AdditiveScorer) {
    e.u32v(scorer.conn_cap());
}

/// Reads and validates an additive similarity scorer.
pub fn read_additive(d: &mut Decoder<'_>) -> StoreResult<AdditiveScorer> {
    let cap = d.u32v()?;
    if cap == 0 {
        return Err(StoreError::corrupt("additive scorer connectivity cap must be positive"));
    }
    Ok(AdditiveScorer::new(cap))
}

// -- WHOIS ------------------------------------------------------------------

/// Writes the WHOIS registry (sorted by domain name for deterministic
/// bytes).
pub fn write_whois(e: &mut Encoder, whois: &WhoisRegistry) {
    let entries = whois.snapshot();
    e.usizev(entries.len());
    for (name, reg) in entries {
        e.str(&name);
        match reg {
            None => e.u8(0),
            Some(reg) => {
                e.u8(1);
                e.u32v(reg.created.index());
                e.u32v(reg.expires.index());
                e.u32v(reg.prior_age_days);
            }
        }
    }
}

/// Reads the WHOIS registry.
pub fn read_whois(d: &mut Decoder<'_>) -> StoreResult<WhoisRegistry> {
    let n = d.seq_len(2)?;
    let mut entries = Vec::with_capacity(n.min(64 * 1024));
    for _ in 0..n {
        let name = d.str()?;
        let reg = match d.u8()? {
            0 => None,
            1 => Some(Registration {
                created: Day::new(d.u32v()?),
                expires: Day::new(d.u32v()?),
                prior_age_days: d.u32v()?,
            }),
            b => return Err(StoreError::corrupt(format!("unknown whois entry tag {b}"))),
        };
        entries.push((name, reg));
    }
    Ok(WhoisRegistry::from_snapshot(entries))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::SectionTag;
    use earlybird_logmodel::{HostMapper, TypedInterner};

    #[test]
    fn interner_roundtrips_including_unicode_and_empty() {
        let i = TypedInterner::<earlybird_logmodel::DomainTag>::new();
        for s in ["", "nbc.com", "çà.example", "🦀.rs", "a"] {
            i.intern(s);
        }
        let mut e = Encoder::new();
        write_interner_tail(&mut e, 0, &i.tail(0));
        let bytes = e.into_bytes();
        let mut restored = StrArena::default();
        let mut d = Decoder::new(&bytes, SectionTag::Interners.name());
        read_interner_onto(&mut d, &mut restored, "raw").unwrap();
        d.finish().unwrap();
        assert_eq!(restored, i.tail(0));
    }

    #[test]
    fn interner_delta_requires_matching_watermark() {
        let i = TypedInterner::<earlybird_logmodel::DomainTag>::new();
        i.intern("a");
        i.intern("b");
        let mut e = Encoder::new();
        write_interner_tail(&mut e, 1, &i.tail(1));
        let bytes = e.into_bytes();
        // Applying a delta that starts at 1 onto an empty table fails.
        let mut fresh = StrArena::default();
        let mut d = Decoder::new(&bytes, "interners");
        assert!(matches!(
            read_interner_onto(&mut d, &mut fresh, "raw"),
            Err(StoreError::Corrupt { .. })
        ));
        // Onto one holding "a" it extends cleanly.
        let mut fresh = StrArena::default();
        fresh.push("a");
        let mut d = Decoder::new(&bytes, "interners");
        read_interner_onto(&mut d, &mut fresh, "raw").unwrap();
        assert_eq!(fresh, i.tail(0));
    }

    #[test]
    fn host_mapper_roundtrips_and_rejects_duplicates() {
        let mut hosts = HostMapper::new();
        for b in [9u8, 3, 7] {
            hosts.host_for(Ipv4::new(10, 0, 0, b));
        }
        let mut e = Encoder::new();
        write_host_mapper_tail(&mut e, 0, &hosts.snapshot_ips());
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "hosts");
        let ips = read_host_tail(&mut d, 0).unwrap();
        let mut restored = HostMapper::new();
        assert!(restored.extend_restored(ips));
        assert_eq!(restored.snapshot_ips(), hosts.snapshot_ips());

        // A duplicated address breaks sequential numbering.
        let mut e = Encoder::new();
        e.usizev(0);
        e.usizev(2);
        e.u32v(Ipv4::new(1, 1, 1, 1).to_bits());
        e.u32v(Ipv4::new(1, 1, 1, 1).to_bits());
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "hosts");
        let ips = read_host_tail(&mut d, 0).unwrap();
        assert!(!HostMapper::new().extend_restored(ips));
    }

    #[test]
    fn whois_roundtrips() {
        let mut whois = WhoisRegistry::new();
        whois.register("young.biz", Day::new(30), Day::new(400));
        whois.register_aged("old.com", 5_000, Day::new(900));
        whois.register_unparseable("odd.net");
        let mut e = Encoder::new();
        write_whois(&mut e, &whois);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "config");
        let restored = read_whois(&mut d).unwrap();
        d.finish().unwrap();
        assert_eq!(restored.snapshot(), whois.snapshot());
        assert_eq!(
            restored.lookup("young.biz", Day::new(35)),
            whois.lookup("young.biz", Day::new(35))
        );
    }

    #[test]
    fn automation_validation_rejects_bad_parameters() {
        let mut e = Encoder::new();
        e.varint(10);
        e.f64(f64::NAN);
        e.usizev(4);
        e.u8(0);
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes, "config");
        assert!(matches!(read_automation(&mut d), Err(StoreError::Corrupt { .. })));
    }
}
