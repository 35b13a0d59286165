//! Type-safe string interning.
//!
//! Enterprise logs repeat the same domain names, user-agent strings, and URL
//! paths millions of times; interning collapses them to 4-byte symbols. The
//! interner is append-only and internally synchronized, so datasets can share
//! one interner across analysis threads.
//!
//! [`Symbol<T>`] is parameterized by a tag type so that a [`DomainSym`] can
//! never be confused with a [`UaSym`] at compile time (C-NEWTYPE).

use crate::hash::FastMap;
use crate::published::Published;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::{Arc, RwLock};

/// Tag for domain-name symbols.
#[derive(Debug)]
pub enum DomainTag {}
/// Tag for user-agent-string symbols.
#[derive(Debug)]
pub enum UaTag {}
/// Tag for URL-path symbols.
#[derive(Debug)]
pub enum PathTag {}

/// An interned domain name.
pub type DomainSym = Symbol<DomainTag>;
/// An interned user-agent string.
pub type UaSym = Symbol<UaTag>;
/// An interned URL path.
pub type PathSym = Symbol<PathTag>;

/// Interner for domain names.
pub type DomainInterner = TypedInterner<DomainTag>;
/// Interner for user-agent strings.
pub type UaInterner = TypedInterner<UaTag>;
/// Interner for URL paths.
pub type PathInterner = TypedInterner<PathTag>;

/// A compact handle to a string interned in a [`TypedInterner<T>`].
///
/// Symbols are only meaningful together with the interner that produced them.
#[derive(Serialize, Deserialize)]
#[serde(transparent)]
pub struct Symbol<T> {
    raw: u32,
    #[serde(skip)]
    _tag: PhantomData<fn() -> T>,
}

impl<T> Symbol<T> {
    fn new(raw: u32) -> Self {
        Symbol { raw, _tag: PhantomData }
    }

    /// The raw index of this symbol within its interner.
    pub const fn raw(self) -> u32 {
        self.raw
    }

    /// Rebuilds a symbol from its raw index — the persistence hook used by
    /// `earlybird-store` when decoding snapshots. The index is only
    /// meaningful against the interner whose contents were restored
    /// alongside it.
    pub const fn from_raw(raw: u32) -> Self {
        Symbol { raw, _tag: PhantomData }
    }
}

// Manual impls: deriving would wrongly bound `T`.
impl<T> Clone for Symbol<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Symbol<T> {}
impl<T> PartialEq for Symbol<T> {
    fn eq(&self, other: &Self) -> bool {
        self.raw == other.raw
    }
}
impl<T> Eq for Symbol<T> {}
impl<T> PartialOrd for Symbol<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Symbol<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.raw.cmp(&other.raw)
    }
}
impl<T> Hash for Symbol<T> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw.hash(state);
    }
}
impl<T> fmt::Debug for Symbol<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({})", self.raw)
    }
}

#[derive(Default)]
struct Inner {
    map: FastMap<Arc<str>, u32>,
    strings: Vec<Arc<str>>,
    /// Interner length at the last snapshot publication.
    published_len: usize,
}

impl Inner {
    /// Interns under the write lock (the caller holds it).
    fn intern_locked(&mut self, s: &str) -> u32 {
        if let Some(&raw) = self.map.get(s) {
            return raw;
        }
        let raw = u32::try_from(self.strings.len()).expect("interner full");
        let arc: Arc<str> = Arc::from(s);
        self.strings.push(Arc::clone(&arc));
        self.map.insert(arc, raw);
        raw
    }

    /// Whether enough strings landed since the last publication to justify
    /// rebuilding the snapshot. Geometric growth (an eighth of the
    /// published size, floor 64) keeps total republication work linear in
    /// the final table size.
    fn snapshot_stale(&self) -> bool {
        self.strings.len() >= self.published_len + (self.published_len / 8).max(64)
    }
}

/// The immutable lookup table a [`Published`] cell hands to readers.
struct Snap {
    map: FastMap<Arc<str>, u32>,
}

/// A lock-free read handle over an interner's published snapshot.
///
/// Acquire one per chunk with [`TypedInterner::reader`]; every
/// [`get`](InternerReader::get) is then a plain hash-map probe with no
/// lock and no atomic. The snapshot may trail the live table — strings
/// interned since publication simply miss; batch the misses and resolve
/// them once per chunk with [`TypedInterner::intern_batch`].
pub struct InternerReader<T> {
    snap: Arc<Snap>,
    _tag: PhantomData<fn() -> T>,
}

impl<T> InternerReader<T> {
    /// Looks up `s` in the snapshot without locking. `None` means the
    /// string was not interned *as of the snapshot* — it may exist in the
    /// live table.
    #[inline]
    pub fn get(&self, s: &str) -> Option<Symbol<T>> {
        self.snap.map.get(s).map(|&raw| Symbol::new(raw))
    }
}

impl<T> fmt::Debug for InternerReader<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InternerReader").field("len", &self.snap.map.len()).finish()
    }
}

/// An append-only, internally synchronized string interner whose symbols are
/// tagged with `T`.
///
/// # Example
///
/// ```
/// use earlybird_logmodel::DomainInterner;
/// let i = DomainInterner::new();
/// let a = i.intern("nbc.com");
/// let b = i.intern("nbc.com");
/// assert_eq!(a, b);
/// assert_eq!(&*i.resolve(a), "nbc.com");
/// assert_eq!(i.len(), 1);
/// ```
pub struct TypedInterner<T> {
    inner: RwLock<Inner>,
    snap: Published<Snap>,
    _tag: PhantomData<fn() -> T>,
}

impl<T> TypedInterner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        TypedInterner {
            inner: RwLock::new(Inner::default()),
            snap: Published::new(Snap { map: FastMap::default() }),
            _tag: PhantomData,
        }
    }

    /// Republishes the reader snapshot if enough strings landed since the
    /// last publication. Called with the write lock held, so publication
    /// order matches insertion order.
    fn maybe_republish(&self, inner: &mut Inner) {
        if inner.snapshot_stale() {
            self.republish(inner);
        }
    }

    fn republish(&self, inner: &mut Inner) {
        inner.published_len = inner.strings.len();
        self.snap.publish(Arc::new(Snap { map: inner.map.clone() }));
    }

    /// Publishes the reader snapshot now if anything landed since the last
    /// publication — the closing step of a bulk load through
    /// [`TypedInterner::extend_from_snapshot`], which itself never
    /// publishes.
    pub fn publish(&self) {
        let mut inner = self.inner.write().expect("interner poisoned");
        if inner.published_len != inner.strings.len() {
            self.republish(&mut inner);
        }
    }

    /// A lock-free read handle over the current published snapshot; see
    /// [`InternerReader`]. Acquire once per chunk.
    pub fn reader(&self) -> InternerReader<T> {
        InternerReader { snap: self.snap.load(), _tag: PhantomData }
    }

    /// Interns `s`, returning its symbol. Repeated calls with equal strings
    /// return equal symbols.
    pub fn intern(&self, s: &str) -> Symbol<T> {
        if let Some(&raw) = self.inner.read().expect("interner poisoned").map.get(s) {
            return Symbol::new(raw);
        }
        let mut inner = self.inner.write().expect("interner poisoned");
        let raw = inner.intern_locked(s);
        self.maybe_republish(&mut inner);
        Symbol::new(raw)
    }

    /// Interns a whole batch under a single write-lock acquisition, in
    /// order — the once-per-chunk resolution step for misses collected
    /// against an [`InternerReader`] snapshot. Duplicate strings in the
    /// batch receive equal symbols.
    pub fn intern_batch(&self, strs: &[&str]) -> Vec<Symbol<T>> {
        if strs.is_empty() {
            return Vec::new();
        }
        let mut inner = self.inner.write().expect("interner poisoned");
        let out = strs.iter().map(|s| Symbol::new(inner.intern_locked(s))).collect();
        self.maybe_republish(&mut inner);
        out
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol<T>> {
        self.inner.read().expect("interner poisoned").map.get(s).map(|&raw| Symbol::new(raw))
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol<T>) -> Arc<str> {
        Arc::clone(
            self.inner
                .read()
                .expect("interner poisoned")
                .strings
                .get(sym.raw as usize)
                .expect("symbol from foreign interner"),
        )
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.inner.read().expect("interner poisoned").strings.len()
    }

    /// Whether no strings have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all interned strings, indexed by raw symbol.
    pub fn snapshot(&self) -> Vec<Arc<str>> {
        self.inner.read().expect("interner poisoned").strings.clone()
    }

    /// Snapshot of only the strings interned at or after raw symbol
    /// `start` (empty when `start` is past the end). An incremental
    /// freeze captures its delta through this without cloning — and
    /// refcount-churning — the whole table, which keeps the checkpoint
    /// stall O(day) instead of O(history).
    pub fn snapshot_tail(&self, start: usize) -> Vec<Arc<str>> {
        let inner = self.inner.read().expect("interner poisoned");
        inner.strings.get(start..).map(<[Arc<str>]>::to_vec).unwrap_or_default()
    }

    /// Applies a restored snapshot slice beginning at symbol index
    /// `start`, verifying that every string holds the symbol number it had
    /// when the snapshot was written (append-only numbering is what keeps
    /// restored symbols meaningful).
    ///
    /// The interner may already hold content — e.g. a dataset-shared
    /// interner passed back to a restore — as long as it agrees with the
    /// snapshot: indexes below the current length are *verified* against
    /// the existing strings, indexes at or beyond it are interned and must
    /// land on their recorded number.
    ///
    /// Returns `false` when `start` would leave a numbering gap, an
    /// existing string disagrees with the snapshot, or a string is a
    /// duplicate of one interned at a different index (either of which
    /// would silently renumber symbols).
    ///
    /// The whole batch runs under a single write-lock acquisition with
    /// capacity reserved up front — restore feeds entire table sections
    /// through here, so per-string lock round-trips would dominate the
    /// decode cost. For the same reason the reader snapshot is *not*
    /// republished: a publication clones every key, a restore calls this
    /// once per block, and no reader exists until it returns. The loader
    /// calls [`TypedInterner::publish`] once at the end (an interner left
    /// unpublished still republishes on its next miss).
    pub fn extend_from_snapshot<S: AsRef<str>>(
        &self,
        start: usize,
        strings: impl IntoIterator<Item = S>,
    ) -> bool {
        let mut inner = self.inner.write().expect("interner poisoned");
        if start > inner.strings.len() {
            return false;
        }
        let iter = strings.into_iter();
        let additional = (start + iter.size_hint().0).saturating_sub(inner.strings.len());
        inner.strings.reserve(additional);
        inner.map.reserve(additional);
        let mut ok = true;
        for (k, s) in iter.enumerate() {
            let (idx, s) = (start + k, s.as_ref());
            if idx < inner.strings.len() {
                if &*inner.strings[idx] != s {
                    ok = false;
                    break;
                }
            } else if inner.intern_locked(s) as usize != idx {
                ok = false;
                break;
            }
        }
        ok
    }

    /// A private copy of this interner: same strings, same numbering, new
    /// identity. Shard-local interning uses this — each shard forks the
    /// canonical table at day start, interns against its copy with zero
    /// cross-shard contention, and the merge remaps any locally minted
    /// tail symbols back by name.
    ///
    /// The fork starts with an empty published read snapshot (it
    /// republishes once enough new strings land); [`TypedInterner::intern`]
    /// and [`TypedInterner::get`] see the full table immediately.
    pub fn fork(&self) -> Self {
        let inner = self.inner.read().expect("interner poisoned");
        let forked = Inner {
            map: inner.map.clone(),
            strings: inner.strings.clone(),
            published_len: inner.strings.len(),
        };
        TypedInterner {
            inner: RwLock::new(forked),
            snap: Published::new(Snap { map: FastMap::default() }),
            _tag: PhantomData,
        }
    }
}

impl<T> Default for TypedInterner<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> fmt::Debug for TypedInterner<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TypedInterner").field("len", &self.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let i = DomainInterner::new();
        let a = i.intern("x.com");
        let b = i.intern("x.com");
        let c = i.intern("y.com");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn resolve_returns_original() {
        let i = UaInterner::new();
        let s = i.intern("Mozilla/5.0 (X11; Linux)");
        assert_eq!(&*i.resolve(s), "Mozilla/5.0 (X11; Linux)");
    }

    #[test]
    fn get_does_not_intern() {
        let i = PathInterner::new();
        assert!(i.get("/logo.gif").is_none());
        let s = i.intern("/logo.gif");
        assert_eq!(i.get("/logo.gif"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn snapshot_preserves_order() {
        let i = DomainInterner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        let snap = i.snapshot();
        assert_eq!(&*snap[a.raw() as usize], "a");
        assert_eq!(&*snap[b.raw() as usize], "b");
    }

    #[test]
    fn symbols_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DomainSym>();
        assert_send_sync::<DomainInterner>();
    }

    #[test]
    fn concurrent_interning_agrees() {
        let i = std::sync::Arc::new(DomainInterner::new());
        let mut handles = Vec::new();
        for _ in 0..4 {
            let i = std::sync::Arc::clone(&i);
            handles.push(std::thread::spawn(move || {
                (0..100).map(|k| i.intern(&format!("d{k}.com")).raw()).collect::<Vec<_>>()
            }));
        }
        let results: Vec<Vec<u32>> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for w in results.windows(2) {
            assert_eq!(w[0], w[1], "all threads must observe identical symbols");
        }
        assert_eq!(i.len(), 100);
    }

    #[test]
    fn reader_snapshot_is_stale_but_consistent() {
        let i = DomainInterner::new();
        let before = i.reader();
        assert!(before.get("a.com").is_none());
        // Force at least one publication (threshold floor is 64).
        let syms: Vec<DomainSym> = (0..200).map(|k| i.intern(&format!("d{k}.com"))).collect();
        assert!(before.get("d0.com").is_none(), "old handles never see later strings");
        let after = i.reader();
        let visible = (0..200).filter(|&k| after.get(&format!("d{k}.com")).is_some()).count();
        assert!(visible >= 64, "snapshot republished during growth (saw {visible})");
        for (k, expected) in syms.iter().enumerate() {
            if let Some(sym) = after.get(&format!("d{k}.com")) {
                assert_eq!(sym, *expected, "snapshot symbols agree with the live table");
            }
        }
    }

    #[test]
    fn intern_batch_matches_sequential_interning() {
        let a = DomainInterner::new();
        let b = DomainInterner::new();
        let strs = ["x.com", "y.com", "x.com", "z.com", "y.com"];
        let batch = a.intern_batch(&strs);
        let seq: Vec<DomainSym> = strs.iter().map(|s| b.intern(s)).collect();
        assert_eq!(batch, seq);
        assert_eq!(a.len(), 3);
        assert!(a.intern_batch(&[]).is_empty());
    }

    #[test]
    fn extend_from_snapshot_verifies_and_appends() {
        let i = DomainInterner::new();
        i.intern("a");
        i.intern("b");
        assert!(i.extend_from_snapshot(1, ["b", "c"]), "overlap verifies, tail appends");
        assert_eq!(i.len(), 3);
        assert_eq!(&*i.resolve(DomainSym::from_raw(2)), "c");
        assert!(!i.extend_from_snapshot(0, ["x"]), "existing string disagrees");
        assert!(!i.extend_from_snapshot(5, ["y"]), "start past the end is a gap");
        assert!(!i.extend_from_snapshot(3, ["a"]), "duplicate would renumber");
        assert_eq!(i.len(), 3, "failed extends leave verified content only");
    }

    #[test]
    fn bulk_load_publishes_only_when_told_and_then_everything() {
        let i = DomainInterner::new();
        let names: Vec<String> = (0..500).map(|k| format!("d{k}.com")).collect();
        assert!(i.extend_from_snapshot(0, &names[..300]));
        assert!(i.extend_from_snapshot(300, &names[300..]));
        assert!(i.reader().get("d0.com").is_none(), "a bulk load never publishes by itself");
        i.publish();
        let reader = i.reader();
        for (k, name) in names.iter().enumerate() {
            assert_eq!(reader.get(name), Some(DomainSym::from_raw(k as u32)));
        }
    }

    #[test]
    fn fork_preserves_numbering_and_diverges_privately() {
        let i = DomainInterner::new();
        let a = i.intern("a.com");
        let f = i.fork();
        assert_eq!(f.len(), 1);
        assert_eq!(f.get("a.com"), Some(a));
        assert_eq!(&*f.resolve(a), "a.com");
        let local = f.intern("new.com");
        assert_eq!(local.raw(), 1, "fork continues the shared numbering");
        assert!(i.get("new.com").is_none(), "fork growth is private");
        let canon = i.intern("other.com");
        assert_eq!(canon.raw(), 1, "original numbering unaffected by the fork");
    }

    #[test]
    fn serde_roundtrip_is_transparent() {
        let i = DomainInterner::new();
        let s = i.intern("roundtrip.net");
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, s.raw().to_string());
        let back: DomainSym = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
