//! Text-format ingestion and export for raw log records.
//!
//! "In practical situations, we have to deal with different log formats
//! generated by a variety of deployed security products" (§II-C). This
//! module defines one simple, lossless tab-separated interchange format per
//! record type so real logs can be converted once and streamed into the
//! pipeline:
//!
//! ```text
//! # DNS:   epoch_secs  src_ip      qname        qtype  answer(or -)
//!          86520       10.0.0.17   evil.ru      A      191.146.166.145
//! # Proxy: local_secs  tz_minutes  src_ip  domain  dest_ip  method  status  path  ua(or -)  referer(or -)
//!          86520       -300        10.8.0.4  cc.ru  191.1.2.3  GET  200  /gate.php  WinHttp/1.0  -
//! ```
//!
//! Since raw logs identify sources by IP only, [`HostMapper`] assigns stable
//! [`HostId`]s per source address (real deployments would substitute the
//! DHCP-resolved identity downstream, exactly like the AC pipeline does).
//!
//! Parsing is streaming-first: a line consumer filters each raw line
//! through [`payload_line`] (the one skip rule for blanks, `#` comments and
//! trailing `\r`), then hands bounded spans of payload lines to
//! [`parse_dns_span`] / [`parse_proxy_span`], which append to a reusable
//! [`ParsedChunk`] — so a multi-gigabyte feed never has to be materialized
//! as records at once. Lines are borrowed, fields are sub-slices, and every
//! domain / UA / path string is interned at parse time — no per-line
//! `String` is allocated on the happy path (only error messages allocate).
//! Each span parser is a lookup half ([`lookup_dns_span`] /
//! [`lookup_proxy_span`]), which parallel workers run against a shared
//! [`InternerReader`] and which never writes, and an intern half
//! ([`SpanMisses`]) that a sequential step runs span by span, so symbol
//! numbering follows line order for any worker count. DNS spans parse
//! without host assignment; deterministic host numbering is restored
//! afterwards with [`HostMapper::assign`]. The per-line [`parse_dns_line`] /
//! [`parse_proxy_line`] are the reference grammar — records, errors and
//! numbering — the span parsers must agree with.

use crate::dns::{DnsQuery, DnsRecordType};
use crate::hash::FastMap;
use crate::http::{HttpMethod, HttpStatus, ProxyRecord};
use crate::intern::{
    DomainInterner, DomainSym, DomainTag, InternerReader, PathInterner, PathSym, PathTag, Symbol,
    TypedInterner, UaInterner, UaTag,
};
use crate::ip::Ipv4;
use crate::scan;
use crate::time::{Timestamp, TzOffset};
use crate::HostId;
use std::fmt;

/// Error produced when a log line cannot be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseLogError {
    /// Zero-based field index that failed (or the expected field count).
    pub field: usize,
    /// Human-readable reason.
    pub reason: String,
}

impl ParseLogError {
    fn new(field: usize, reason: impl Into<String>) -> Self {
        ParseLogError { field, reason: reason.into() }
    }
}

impl fmt::Display for ParseLogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid log line at field {}: {}", self.field, self.reason)
    }
}

impl std::error::Error for ParseLogError {}

/// Assigns stable [`HostId`]s to source IPs in arrival order.
#[derive(Clone, Debug, Default)]
pub struct HostMapper {
    by_ip: FastMap<Ipv4, HostId>,
}

impl HostMapper {
    /// Creates an empty mapper.
    pub fn new() -> Self {
        Self::default()
    }

    /// The host identity for `ip`, assigning a fresh one on first sight.
    pub fn host_for(&mut self, ip: Ipv4) -> HostId {
        let next = HostId::new(self.by_ip.len() as u32);
        *self.by_ip.entry(ip).or_insert(next)
    }

    /// Rewrites the source host of every query from its source IP, in
    /// order. This is the sequential fix-up step after parallel parsing
    /// with [`parse_dns_line_unassigned`]: host ids depend on first-seen
    /// order, so assignment must not happen inside a worker race.
    pub fn assign(&mut self, records: &mut [DnsQuery]) {
        for q in records {
            q.src = self.host_for(q.src_ip);
        }
    }

    /// Number of distinct hosts seen.
    pub fn len(&self) -> usize {
        self.by_ip.len()
    }

    /// Whether no hosts have been seen.
    pub fn is_empty(&self) -> bool {
        self.by_ip.is_empty()
    }

    /// The assigned addresses in host-id order (ids are assigned densely
    /// from 0, so index `i` is the address of `HostId(i)`) — the
    /// persistence hook used by `earlybird-store`.
    pub fn snapshot_ips(&self) -> Vec<Ipv4> {
        let mut ips = vec![Ipv4::from_bits(0); self.by_ip.len()];
        for (&ip, &host) in &self.by_ip {
            ips[host.index() as usize] = ip;
        }
        ips
    }

    /// Replays restored addresses in first-seen order, re-deriving the same
    /// host-id assignment the snapshot recorded. Returns `false` if an
    /// address repeats (which would break the dense numbering and means the
    /// snapshot is corrupt).
    pub fn extend_restored(&mut self, ips: impl IntoIterator<Item = Ipv4>) -> bool {
        for ip in ips {
            let expected = self.by_ip.len() as u32;
            if self.host_for(ip).index() != expected {
                return false;
            }
        }
        true
    }
}

fn qtype_from_str(s: &str) -> Option<DnsRecordType> {
    Some(match s {
        "A" => DnsRecordType::A,
        "AAAA" => DnsRecordType::Aaaa,
        "CNAME" => DnsRecordType::Cname,
        "MX" => DnsRecordType::Mx,
        "TXT" => DnsRecordType::Txt,
        "PTR" => DnsRecordType::Ptr,
        "SRV" => DnsRecordType::Srv,
        _ => return None,
    })
}

fn method_from_str(s: &str) -> Option<HttpMethod> {
    Some(match s {
        "GET" => HttpMethod::Get,
        "POST" => HttpMethod::Post,
        "HEAD" => HttpMethod::Head,
        "CONNECT" => HttpMethod::Connect,
        "PUT" => HttpMethod::Put,
        _ => return None,
    })
}

/// Parses one DNS log line (5 tab-separated fields).
///
/// # Errors
///
/// Returns [`ParseLogError`] identifying the offending field.
pub fn parse_dns_line(
    line: &str,
    domains: &DomainInterner,
    hosts: &mut HostMapper,
) -> Result<DnsQuery, ParseLogError> {
    let mut q = parse_dns_line_unassigned(line, domains)?;
    q.src = hosts.host_for(q.src_ip);
    Ok(q)
}

/// Parses one DNS log line without assigning a source host: `src` is left
/// as a placeholder and `src_ip` carries the identity, for
/// [`HostMapper::assign`] to fill sequentially so host numbering stays
/// deterministic.
///
/// # Errors
///
/// Returns [`ParseLogError`] identifying the offending field.
pub fn parse_dns_line_unassigned(
    line: &str,
    domains: &DomainInterner,
) -> Result<DnsQuery, ParseLogError> {
    let (query, qname) = dns_fields(line)?;
    Ok(DnsQuery { qname: domains.intern(qname), ..query })
}

/// Splits and validates one DNS line without touching an interner: the
/// returned query carries a placeholder `qname` and the borrowed name rides
/// alongside. Shared by the per-line parsers and the span parser.
#[inline]
fn dns_fields(line: &str) -> Result<(DnsQuery, &str), ParseLogError> {
    let fields: [&str; 5] = scan::split_exact(line, b'\t')
        .map_err(|n| ParseLogError::new(n, "expected 5 tab-separated fields"))?;
    let ts =
        scan::parse_u64(fields[0]).map_err(|e| ParseLogError::new(0, format!("timestamp: {e}")))?;
    let src_ip: Ipv4 =
        fields[1].parse().map_err(|e| ParseLogError::new(1, format!("src ip: {e}")))?;
    if fields[2].is_empty() {
        return Err(ParseLogError::new(2, "empty qname"));
    }
    let qtype = qtype_from_str(fields[3]).ok_or_else(|| ParseLogError::new(3, "unknown qtype"))?;
    let answer = match fields[4] {
        "-" => None,
        ip => Some(ip.parse().map_err(|e| ParseLogError::new(4, format!("answer ip: {e}")))?),
    };
    Ok((
        DnsQuery {
            ts: Timestamp::from_secs(ts),
            src: HostId::new(0),
            src_ip,
            qname: DomainSym::from_raw(u32::MAX),
            qtype,
            answer,
        },
        fields[2],
    ))
}

/// The record field a deferred miss fills.
#[derive(Clone, Copy, Debug)]
enum Field {
    Domain,
    Referer,
    UserAgent,
    Path,
}

/// One string a span's lookup half did not find: which record (counted
/// from the span's first) and which of its fields wait for the symbol.
#[derive(Debug)]
struct Miss<'l> {
    record: u32,
    field: Field,
    s: &'l str,
}

/// The strings a span's lookup half did not find, per interner and in line
/// order — a destination before its referer — so that interning them in
/// that order numbers symbols exactly as the per-line parsers would.
/// Produced by [`lookup_dns_span`] / [`lookup_proxy_span`] and consumed by
/// the matching intern half, [`SpanMisses::intern_dns`] /
/// [`SpanMisses::intern_proxy`].
#[derive(Debug, Default)]
pub struct SpanMisses<'l> {
    base: usize,
    domains: Vec<Miss<'l>>,
    uas: Vec<Miss<'l>>,
    paths: Vec<Miss<'l>>,
}

impl<'l> SpanMisses<'l> {
    /// Looks `s` up, or defers it into `misses` for the record at `record`;
    /// a deferred field holds a placeholder until the intern half fills it.
    #[inline]
    fn look_up<T>(
        reader: &InternerReader<'_, T>,
        misses: &mut Vec<Miss<'l>>,
        record: usize,
        field: Field,
        s: &'l str,
    ) -> Symbol<T> {
        reader.get(s).unwrap_or_else(|| {
            let record = u32::try_from(record).expect("span too large");
            misses.push(Miss { record, field, s });
            Symbol::from_raw(u32::MAX)
        })
    }

    /// Interns `misses` in order under one write lock and hands each symbol
    /// to the field that waits for it.
    fn intern<T, R>(
        interner: &TypedInterner<T>,
        misses: &[Miss<'_>],
        records: &mut [R],
        fill: impl Fn(&mut R, Field, Symbol<T>),
    ) {
        let strs: Vec<&str> = misses.iter().map(|m| m.s).collect();
        for (miss, sym) in misses.iter().zip(interner.intern_batch(&strs)) {
            fill(&mut records[miss.record as usize], miss.field, sym);
        }
    }

    /// The intern half of [`parse_dns_span`]: interns the misses of a
    /// [`lookup_dns_span`] call into `domains` and fills them into the
    /// records that call appended to `out`. Call it once no thread holds
    /// a reader of `domains` (see [`InternerReader`]).
    pub fn intern_dns(self, domains: &DomainInterner, out: &mut ParsedChunk<DnsQuery>) {
        let records = &mut out.records[self.base..];
        Self::intern(domains, &self.domains, records, |q, _, sym| q.qname = sym);
    }

    /// The intern half of [`parse_proxy_span`], as
    /// [`SpanMisses::intern_dns`] is of [`parse_dns_span`].
    pub fn intern_proxy(
        self,
        domains: &DomainInterner,
        uas: &UaInterner,
        paths: &PathInterner,
        out: &mut ParsedChunk<ProxyRecord>,
    ) {
        let records = &mut out.records[self.base..];
        Self::intern(domains, &self.domains, records, |r, field, sym| match field {
            Field::Referer => r.referer = Some(sym),
            _ => r.domain = sym,
        });
        Self::intern(uas, &self.uas, records, |r, _, sym| r.user_agent = Some(sym));
        Self::intern(paths, &self.paths, records, |r, _, sym| r.url_path = sym);
    }
}

/// Parses a span of pre-filtered payload lines into `out.records`,
/// appending `(lineno, error)` pairs for bad lines. Lines must already have
/// passed [`payload_line`]; `lineno` values are carried through untouched.
///
/// Records append to the caller's reusable buffer — no per-record
/// allocation and no per-record lock. Produces exactly the records and
/// errors of [`parse_dns_line_unassigned`] per line, symbol numbering
/// included. It is [`lookup_dns_span`] followed by
/// [`SpanMisses::intern_dns`]; parallel workers run the lookup half over a
/// shared reader and leave the intern half to a sequential step.
pub fn parse_dns_span<'l>(
    lines: impl IntoIterator<Item = (usize, &'l str)>,
    domains: &DomainInterner,
    out: &mut ParsedChunk<DnsQuery>,
) {
    let misses = lookup_dns_span(lines, &domains.reader(), out);
    misses.intern_dns(domains, out);
}

/// The lookup half of [`parse_dns_span`]: parses the span against a shared
/// reader, which it never writes through, and returns the names it did not
/// find. Until [`SpanMisses::intern_dns`] runs, their records hold a
/// placeholder `qname`.
pub fn lookup_dns_span<'l>(
    lines: impl IntoIterator<Item = (usize, &'l str)>,
    domains: &InternerReader<'_, DomainTag>,
    out: &mut ParsedChunk<DnsQuery>,
) -> SpanMisses<'l> {
    let mut misses = SpanMisses { base: out.records.len(), ..SpanMisses::default() };
    for (lineno, line) in lines {
        match dns_fields(line) {
            Ok((mut query, qname)) => {
                let idx = out.records.len() - misses.base;
                query.qname =
                    SpanMisses::look_up(domains, &mut misses.domains, idx, Field::Domain, qname);
                out.records.push(query);
            }
            Err(e) => out.errors.push((lineno, e)),
        }
    }
    misses
}

/// Serializes a DNS query back to the interchange format (the inverse of
/// [`parse_dns_line`] up to host-id assignment).
pub fn format_dns_line(q: &DnsQuery, domains: &DomainInterner) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}",
        q.ts.as_secs(),
        q.src_ip,
        domains.resolve(q.qname),
        q.qtype,
        q.answer.map_or("-".to_string(), |ip| ip.to_string()),
    )
}

/// Parses one proxy log line (10 tab-separated fields).
///
/// # Errors
///
/// Returns [`ParseLogError`] identifying the offending field.
pub fn parse_proxy_line(
    line: &str,
    domains: &DomainInterner,
    uas: &UaInterner,
    paths: &PathInterner,
) -> Result<ProxyRecord, ParseLogError> {
    let (record, strs) = proxy_fields(line)?;
    Ok(ProxyRecord {
        domain: domains.intern(strs.domain),
        url_path: paths.intern(strs.path),
        user_agent: strs.ua.map(|ua| uas.intern(ua)),
        referer: strs.referer.map(|r| domains.intern(r)),
        ..record
    })
}

/// The borrowed string fields of a validated proxy line, pending interning.
struct ProxyStrs<'l> {
    domain: &'l str,
    path: &'l str,
    ua: Option<&'l str>,
    referer: Option<&'l str>,
}

/// Splits and validates one proxy line without touching an interner; the
/// returned record carries placeholder symbols and the borrowed strings
/// ride alongside. Shared by the per-line and span parsers.
#[inline]
fn proxy_fields(line: &str) -> Result<(ProxyRecord, ProxyStrs<'_>), ParseLogError> {
    let fields: [&str; 10] = scan::split_exact(line, b'\t')
        .map_err(|n| ParseLogError::new(n, "expected 10 tab-separated fields"))?;
    let ts_local =
        scan::parse_u64(fields[0]).map_err(|e| ParseLogError::new(0, format!("timestamp: {e}")))?;
    let tz_minutes =
        scan::parse_i32(fields[1]).map_err(|e| ParseLogError::new(1, format!("tz offset: {e}")))?;
    if tz_minutes.abs() > 18 * 60 {
        return Err(ParseLogError::new(1, "tz offset out of range"));
    }
    let src_ip: Ipv4 =
        fields[2].parse().map_err(|e| ParseLogError::new(2, format!("src ip: {e}")))?;
    if fields[3].is_empty() {
        return Err(ParseLogError::new(3, "empty domain"));
    }
    let dest_ip: Ipv4 =
        fields[4].parse().map_err(|e| ParseLogError::new(4, format!("dest ip: {e}")))?;
    let method =
        method_from_str(fields[5]).ok_or_else(|| ParseLogError::new(5, "unknown method"))?;
    let status =
        scan::parse_u16(fields[6]).map_err(|e| ParseLogError::new(6, format!("status: {e}")))?;
    if fields[7].is_empty() {
        return Err(ParseLogError::new(7, "empty path"));
    }
    let ua = match fields[8] {
        "-" => None,
        ua => Some(ua),
    };
    let referer = match fields[9] {
        "-" => None,
        r => Some(r),
    };
    Ok((
        ProxyRecord {
            ts_local: Timestamp::from_secs(ts_local),
            tz: TzOffset::from_minutes(tz_minutes),
            src_ip,
            host: None,
            domain: DomainSym::from_raw(u32::MAX),
            dest_ip,
            method,
            status: HttpStatus(status),
            url_path: PathSym::from_raw(u32::MAX),
            user_agent: None,
            referer: None,
        },
        ProxyStrs { domain: fields[3], path: fields[7], ua, referer },
    ))
}

/// Parses a span of pre-filtered payload proxy lines into `out.records`
/// exactly as [`parse_dns_span`] does DNS lines, across all three
/// interners (domains serve both the destination and the referer field):
/// [`lookup_proxy_span`] followed by [`SpanMisses::intern_proxy`].
pub fn parse_proxy_span<'l>(
    lines: impl IntoIterator<Item = (usize, &'l str)>,
    domains: &DomainInterner,
    uas: &UaInterner,
    paths: &PathInterner,
    out: &mut ParsedChunk<ProxyRecord>,
) {
    let misses = lookup_proxy_span(lines, &domains.reader(), &uas.reader(), &paths.reader(), out);
    misses.intern_proxy(domains, uas, paths, out);
}

/// The lookup half of [`parse_proxy_span`], as [`lookup_dns_span`] is of
/// [`parse_dns_span`].
pub fn lookup_proxy_span<'l>(
    lines: impl IntoIterator<Item = (usize, &'l str)>,
    domains: &InternerReader<'_, DomainTag>,
    uas: &InternerReader<'_, UaTag>,
    paths: &InternerReader<'_, PathTag>,
    out: &mut ParsedChunk<ProxyRecord>,
) -> SpanMisses<'l> {
    let mut m = SpanMisses { base: out.records.len(), ..SpanMisses::default() };
    for (lineno, line) in lines {
        match proxy_fields(line) {
            Ok((mut record, strs)) => {
                let idx = out.records.len() - m.base;
                record.domain =
                    SpanMisses::look_up(domains, &mut m.domains, idx, Field::Domain, strs.domain);
                record.url_path =
                    SpanMisses::look_up(paths, &mut m.paths, idx, Field::Path, strs.path);
                record.user_agent = strs
                    .ua
                    .map(|ua| SpanMisses::look_up(uas, &mut m.uas, idx, Field::UserAgent, ua));
                record.referer = strs
                    .referer
                    .map(|r| SpanMisses::look_up(domains, &mut m.domains, idx, Field::Referer, r));
                out.records.push(record);
            }
            Err(e) => out.errors.push((lineno, e)),
        }
    }
    m
}

/// Serializes a proxy record back to the interchange format.
pub fn format_proxy_line(
    r: &ProxyRecord,
    domains: &DomainInterner,
    uas: &UaInterner,
    paths: &PathInterner,
) -> String {
    format!(
        "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        r.ts_local.as_secs(),
        r.tz.minutes(),
        r.src_ip,
        domains.resolve(r.domain),
        r.dest_ip,
        r.method,
        r.status,
        paths.resolve(r.url_path),
        r.user_agent.map_or("-".to_string(), |u| uas.resolve(u)),
        r.referer.map_or("-".to_string(), |d| domains.resolve(d)),
    )
}

/// One parsed chunk of a streamed log: the records of one span of lines,
/// plus `(1-based line number, error)` pairs for the bad lines in
/// the chunk's span (real log feeds always contain some).
#[derive(Clone, Debug)]
pub struct ParsedChunk<T> {
    /// Records parsed from the chunk's lines, in line order.
    pub records: Vec<T>,
    /// Parse failures, keyed by 1-based line number within the stream.
    pub errors: Vec<(usize, ParseLogError)>,
}

// Manual impl: deriving would wrongly bound `T: Default`.
impl<T> Default for ParsedChunk<T> {
    fn default() -> Self {
        ParsedChunk { records: Vec::new(), errors: Vec::new() }
    }
}

impl<T> ParsedChunk<T> {
    /// Empties the chunk while keeping its allocations, so ingest loops can
    /// reuse one buffer per worker across spans instead of reallocating.
    pub fn clear(&mut self) {
        self.records.clear();
        self.errors.clear();
    }
}

/// Normalizes one raw line for parsing: strips a trailing `\r` and skips
/// blanks and `#` comments (returns `None` for skipped lines). This is the
/// single definition of the interchange format's skip rule — every line
/// consumer (including the engine's `push_lines`) must route through it.
pub fn payload_line(line: &str) -> Option<&str> {
    let line = line.trim_end_matches('\r');
    (!line.is_empty() && !line.starts_with('#')).then_some(line)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dns_line_roundtrips() {
        let domains = DomainInterner::new();
        let mut hosts = HostMapper::new();
        let line = "86520\t10.0.0.17\tevil.ru\tA\t191.146.166.145";
        let q = parse_dns_line(line, &domains, &mut hosts).unwrap();
        assert_eq!(q.ts.as_secs(), 86_520);
        assert_eq!(q.qtype, DnsRecordType::A);
        assert_eq!(q.answer, Some(Ipv4::new(191, 146, 166, 145)));
        assert_eq!(format_dns_line(&q, &domains), line);
    }

    #[test]
    fn dns_line_without_answer() {
        let domains = DomainInterner::new();
        let mut hosts = HostMapper::new();
        let q = parse_dns_line("10\t10.0.0.1\tx.org\tTXT\t-", &domains, &mut hosts).unwrap();
        assert_eq!(q.answer, None);
        assert_eq!(q.qtype, DnsRecordType::Txt);
    }

    #[test]
    fn dns_errors_carry_field_position() {
        let domains = DomainInterner::new();
        let mut hosts = HostMapper::new();
        let cases = [
            ("notanum\t10.0.0.1\tx.org\tA\t-", 0),
            ("10\tbadip\tx.org\tA\t-", 1),
            ("10\t10.0.0.1\t\tA\t-", 2),
            ("10\t10.0.0.1\tx.org\tWEIRD\t-", 3),
            ("10\t10.0.0.1\tx.org\tA\tbadip", 4),
            ("too\tfew", 2),
        ];
        for (line, field) in cases {
            let err = parse_dns_line(line, &domains, &mut hosts).unwrap_err();
            assert_eq!(err.field, field, "line {line:?} -> {err}");
        }
    }

    #[test]
    fn host_mapper_is_stable() {
        let domains = DomainInterner::new();
        let mut hosts = HostMapper::new();
        let a1 = parse_dns_line("1\t10.0.0.1\tx.org\tA\t-", &domains, &mut hosts).unwrap();
        let b = parse_dns_line("2\t10.0.0.2\tx.org\tA\t-", &domains, &mut hosts).unwrap();
        let a2 = parse_dns_line("3\t10.0.0.1\ty.org\tA\t-", &domains, &mut hosts).unwrap();
        assert_eq!(a1.src, a2.src);
        assert_ne!(a1.src, b.src);
        assert_eq!(hosts.len(), 2);
    }

    #[test]
    fn proxy_line_roundtrips() {
        let domains = DomainInterner::new();
        let uas = UaInterner::new();
        let paths = PathInterner::new();
        let line = "86520\t-300\t10.8.0.4\tcc.ru\t191.1.2.3\tGET\t200\t/gate.php\tWinHttp/1.0\t-";
        let r = parse_proxy_line(line, &domains, &uas, &paths).unwrap();
        assert_eq!(r.tz.minutes(), -300);
        assert_eq!(r.status, HttpStatus::OK);
        assert!(r.referer.is_none());
        assert_eq!(format_proxy_line(&r, &domains, &uas, &paths), line);
    }

    #[test]
    fn proxy_line_with_referer_and_missing_ua() {
        let domains = DomainInterner::new();
        let uas = UaInterner::new();
        let paths = PathInterner::new();
        let line =
            "5\t60\t10.0.0.9\tnews.nbc.com\t93.184.216.34\tPOST\t404\t/submit\t-\tgoogle.com";
        let r = parse_proxy_line(line, &domains, &uas, &paths).unwrap();
        assert!(r.user_agent.is_none());
        assert_eq!(domains.resolve(r.referer.unwrap()), "google.com");
        assert_eq!(format_proxy_line(&r, &domains, &uas, &paths), line);
    }

    #[test]
    fn proxy_rejects_out_of_range_tz() {
        let domains = DomainInterner::new();
        let uas = UaInterner::new();
        let paths = PathInterner::new();
        let line = "5\t2000\t10.0.0.9\tx.org\t9.9.9.9\tGET\t200\t/\t-\t-";
        assert_eq!(parse_proxy_line(line, &domains, &uas, &paths).unwrap_err().field, 1);
    }

    #[test]
    fn unassigned_parse_plus_assign_matches_sequential_parse() {
        let domains = DomainInterner::new();
        let lines =
            ["1\t10.0.0.9\ta.org\tA\t-", "2\t10.0.0.7\tb.org\tA\t-", "3\t10.0.0.9\tc.org\tA\t-"];
        let mut seq_hosts = HostMapper::new();
        let sequential: Vec<DnsQuery> =
            lines.iter().map(|l| parse_dns_line(l, &domains, &mut seq_hosts).unwrap()).collect();

        // "Workers" parse without host assignment, fix-up runs afterwards.
        let mut parsed: Vec<DnsQuery> =
            lines.iter().map(|l| parse_dns_line_unassigned(l, &domains).unwrap()).collect();
        let mut fix_hosts = HostMapper::new();
        fix_hosts.assign(&mut parsed);
        assert_eq!(parsed, sequential);
        assert_eq!(fix_hosts.len(), seq_hosts.len());
    }

    #[test]
    fn dns_span_matches_per_line_parse() {
        let lines = [
            "1\t10.0.0.9\ta.org\tA\t-",
            "bogus",
            "2\t10.0.0.7\tb.org\tA\t9.9.9.9",
            "3\t10.0.0.9\ta.org\tTXT\t-",
            "4\tnotanip\tc.org\tA\t-",
        ];
        let seq_domains = DomainInterner::new();
        let mut seq_records = Vec::new();
        let mut seq_errors = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            match parse_dns_line_unassigned(line, &seq_domains) {
                Ok(q) => seq_records.push(q),
                Err(e) => seq_errors.push((i + 1, e)),
            }
        }

        let span_domains = DomainInterner::new();
        let mut chunk = ParsedChunk::default();
        parse_dns_span(
            lines.iter().copied().enumerate().map(|(i, l)| (i + 1, l)),
            &span_domains,
            &mut chunk,
        );
        assert_eq!(chunk.records, seq_records);
        assert_eq!(chunk.errors, seq_errors);
        assert_eq!(span_domains.tail(0), seq_domains.tail(0), "per-line numbering");

        // A second span over the same lines finds every name.
        let mut chunk2 = ParsedChunk::default();
        parse_dns_span(
            lines.iter().copied().enumerate().map(|(i, l)| (i + 1, l)),
            &span_domains,
            &mut chunk2,
        );
        assert_eq!(chunk2.records, seq_records);

        // Two spans' lookup halves into one buffer under one reader, then
        // their intern halves in span order, give the same again.
        let halves_domains = DomainInterner::new();
        let mut halves = ParsedChunk::default();
        let (first, second) = lines.split_at(2);
        let misses = {
            let reader = halves_domains.reader();
            let first = lookup_dns_span(
                first.iter().copied().zip(1..).map(|(l, i)| (i, l)),
                &reader,
                &mut halves,
            );
            let second = lookup_dns_span(
                second.iter().copied().zip(3..).map(|(l, i)| (i, l)),
                &reader,
                &mut halves,
            );
            [first, second]
        };
        for m in misses {
            m.intern_dns(&halves_domains, &mut halves);
        }
        assert_eq!(halves.records, seq_records);
        assert_eq!(halves.errors, seq_errors);
        assert_eq!(halves_domains.tail(0), seq_domains.tail(0));
    }

    #[test]
    fn proxy_span_matches_per_line_parse() {
        let lines = [
            "5\t60\t10.0.0.9\tnews.nbc.com\t93.184.216.34\tPOST\t404\t/submit\t-\tgoogle.com",
            "86520\t-300\t10.8.0.4\tcc.ru\t191.1.2.3\tGET\t200\t/gate.php\tWinHttp/1.0\t-",
            "5\t2000\t10.0.0.9\tx.org\t9.9.9.9\tGET\t200\t/\t-\t-",
            "6\t0\t10.0.0.1\tcc.ru\t191.1.2.3\tGET\t200\t/gate.php\tWinHttp/1.0\tnews.nbc.com",
        ];
        let d1 = DomainInterner::new();
        let u1 = UaInterner::new();
        let p1 = PathInterner::new();
        let mut seq_records = Vec::new();
        let mut seq_errors = Vec::new();
        for (i, line) in lines.iter().enumerate() {
            match parse_proxy_line(line, &d1, &u1, &p1) {
                Ok(r) => seq_records.push(r),
                Err(e) => seq_errors.push((i + 1, e)),
            }
        }

        let d2 = DomainInterner::new();
        let u2 = UaInterner::new();
        let p2 = PathInterner::new();
        let mut chunk = ParsedChunk::default();
        parse_proxy_span(
            lines.iter().copied().enumerate().map(|(i, l)| (i + 1, l)),
            &d2,
            &u2,
            &p2,
            &mut chunk,
        );
        assert_eq!(chunk.records, seq_records);
        assert_eq!(chunk.errors, seq_errors);
        let tables = |d: &DomainInterner, u: &UaInterner, p: &PathInterner| {
            (d.tail(0), u.tail(0), p.tail(0))
        };
        assert_eq!(tables(&d2, &u2, &p2), tables(&d1, &u1, &p1), "per-line numbering");

        // The lookup half, then the intern half, is the span parser.
        let (d3, u3, p3) = (DomainInterner::new(), UaInterner::new(), PathInterner::new());
        let mut halves = ParsedChunk::default();
        let numbered = lines.iter().copied().enumerate().map(|(i, l)| (i + 1, l));
        let misses =
            lookup_proxy_span(numbered, &d3.reader(), &u3.reader(), &p3.reader(), &mut halves);
        assert!(halves.records.iter().all(|r| r.domain.raw() == u32::MAX), "nothing interned yet");
        assert_eq!(d3.len() + u3.len() + p3.len(), 0, "the lookup half never writes");
        misses.intern_proxy(&d3, &u3, &p3, &mut halves);
        assert_eq!(halves.records, seq_records);
        assert_eq!(halves.errors, seq_errors);
        assert_eq!(tables(&d3, &u3, &p3), tables(&d1, &u1, &p1));
    }
}
