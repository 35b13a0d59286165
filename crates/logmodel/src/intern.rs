//! Type-safe string interning over one arena string table.
//!
//! Enterprise logs repeat the same domain names, user-agent strings, and URL
//! paths millions of times; interning collapses them to 4-byte symbols. The
//! detector's first filter is "never seen before", so an interner only ever
//! grows — it is the one piece of engine state that does. Each one is
//! therefore a single append-only [`StrArena`] (every string's bytes back to
//! back in one buffer, plus one `u32` end offset per string) under a hash
//! index of `Copy` entries: a string costs its bytes, an offset and an index
//! slot, never an allocation of its own. Bulk loads reserve once and append,
//! and dropping a table frees three buffers.
//!
//! The interner is internally synchronized, so datasets can share one across
//! analysis threads. Parallel parse workers share one [`InternerReader`] —
//! a read guard over the one table — and only look up; their misses are
//! interned afterwards, in line order, by a sequential step. [`Symbol<T>`]
//! is parameterized by a tag type so that a
//! [`DomainSym`] can never be confused with a [`UaSym`] at compile time
//! (C-NEWTYPE).

use crate::hash::{hash_str, PrehashedState};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{Entry, HashMap};
use std::collections::HashSet;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

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

/// Strings stored back to back in one buffer, addressed by position.
///
/// This is an interner's storage, and — cut at a watermark by
/// [`TypedInterner::tail`] — the form in which a frozen snapshot carries
/// the strings interned since the last checkpoint.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StrArena {
    bytes: String,
    /// `ends[k]` is the offset in `bytes` one past string `k`; string `k`
    /// starts where string `k - 1` ends.
    ends: Vec<u32>,
}

impl StrArena {
    /// Number of strings held.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether no strings are held.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// String `k`, or `None` past the end.
    pub fn get(&self, k: usize) -> Option<&str> {
        let range = self.range(k)?;
        Some(&self.bytes[range])
    }

    /// Every string, in position order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let s = &self.bytes[start..end as usize];
            start = end as usize;
            s
        })
    }

    /// Whether no string is held twice. An interner's table holds each
    /// string once by construction; an arena assembled by appending
    /// restored tails (store compaction) is checked through this instead.
    ///
    /// Sorts the strings' 64-bit hashes, which touches memory in order
    /// where a hash set would not; only if two hashes are equal are the
    /// strings themselves compared.
    pub fn all_distinct(&self) -> bool {
        let mut hashes: Vec<u64> = self.iter().map(hash_str).collect();
        hashes.sort_unstable();
        if hashes.windows(2).all(|pair| pair[0] != pair[1]) {
            return true;
        }
        // A repeated string, or two strings sharing all 64 bits of hash:
        // only comparing them tells which. The strings come from outside
        // the program, so this set keeps std's keyed hasher.
        let mut seen: HashSet<&str> = HashSet::with_capacity(self.len());
        self.iter().all(|s| seen.insert(s))
    }

    /// The offset at which string `k` starts (`k <= len`).
    fn start_of(&self, k: usize) -> u32 {
        k.checked_sub(1).map_or(0, |prev| self.ends[prev])
    }

    fn range(&self, k: usize) -> Option<std::ops::Range<usize>> {
        let end = *self.ends.get(k)?;
        Some(self.start_of(k) as usize..end as usize)
    }

    /// Whether string `k` exists and equals `s` — a byte comparison against
    /// the buffer, without the `str` boundary checks slicing would add.
    #[inline]
    pub fn holds(&self, k: usize, s: &str) -> bool {
        self.range(k).is_some_and(|r| self.bytes.as_bytes()[r] == *s.as_bytes())
    }

    /// Reserves room for `strings` more strings of `bytes` bytes in total.
    pub fn reserve(&mut self, strings: usize, bytes: usize) {
        self.ends.reserve(strings);
        self.bytes.reserve(bytes);
    }

    /// Appends `s` as string `len()`. Nothing checks that it is new: that
    /// is the interner's index's job (or [`StrArena::all_distinct`]'s).
    ///
    /// # Panics
    ///
    /// Panics once the arena would exceed 4 GiB of string bytes.
    pub fn push(&mut self, s: &str) {
        // Invariant: offsets are `u32`, so one table holds under 4 GiB of
        // distinct names — checked before anything is appended.
        let end = u32::try_from(self.bytes.len() + s.len()).expect("interner arena exceeds 4 GiB");
        self.bytes.push_str(s);
        self.ends.push(end);
    }

    /// Drops every string from position `len` onward.
    fn truncate(&mut self, len: usize) {
        if len < self.ends.len() {
            self.bytes.truncate(self.start_of(len) as usize);
            self.ends.truncate(len);
        }
    }

    /// A copy of the strings from position `start` onward (empty when
    /// `start` is past the end): one copy of their bytes and one pass
    /// rebasing their offsets.
    fn tail(&self, start: usize) -> StrArena {
        if start >= self.ends.len() {
            return StrArena::default();
        }
        let base = self.start_of(start);
        StrArena {
            bytes: self.bytes[base as usize..].to_owned(),
            ends: self.ends[start..].iter().map(|end| end - base).collect(),
        }
    }
}

/// Step between successive index keys tried for one string. Odd, so the
/// sequence visits every `u64` before repeating.
const REPROBE: u64 = 0x9e37_79b9_7f4a_7c15;

/// The one string table: an arena plus an index from a string's 64-bit
/// hash to its position.
///
/// The index never stores or compares strings. A lookup hashes once, finds
/// the candidate position, and verifies it against the arena bytes; two
/// distinct strings with the same 64-bit hash are told apart by that
/// comparison, and the later one lives at `hash + REPROBE` (and so on) —
/// deterministic, so equal insertion orders give equal tables.
#[derive(Default)]
struct StrTable {
    strs: StrArena,
    index: HashMap<u64, u32, PrehashedState>,
}

impl StrTable {
    #[inline]
    fn get(&self, s: &str) -> Option<u32> {
        let mut key = hash_str(s);
        loop {
            let &at = self.index.get(&key)?;
            if self.strs.holds(at as usize, s) {
                return Some(at);
            }
            key = key.wrapping_add(REPROBE);
        }
    }

    /// The position of `s`, appending it if absent; the flag says whether
    /// it was appended.
    fn intern(&mut self, s: &str) -> (u32, bool) {
        let mut key = hash_str(s);
        loop {
            match self.index.entry(key) {
                Entry::Occupied(slot) if self.strs.holds(*slot.get() as usize, s) => {
                    return (*slot.get(), false);
                }
                Entry::Occupied(_) => key = key.wrapping_add(REPROBE),
                Entry::Vacant(slot) => {
                    // Invariant: symbols are `u32`, so one table holds at
                    // most 2^32 distinct names.
                    let at = u32::try_from(self.strs.len()).expect("interner full");
                    self.strs.push(s);
                    slot.insert(at);
                    return (at, true);
                }
            }
        }
    }

    /// A table over `strs` with the index built in one pass, or `None` if
    /// a string repeats.
    fn over(strs: StrArena) -> Option<StrTable> {
        let mut index = HashMap::with_capacity_and_hasher(strs.len(), PrehashedState::default());
        for (at, s) in strs.iter().enumerate() {
            let at = u32::try_from(at).expect("interner full");
            let mut key = hash_str(s);
            loop {
                match index.entry(key) {
                    Entry::Occupied(slot) if strs.holds(*slot.get() as usize, s) => return None,
                    Entry::Occupied(_) => key = key.wrapping_add(REPROBE),
                    Entry::Vacant(slot) => {
                        slot.insert(at);
                        break;
                    }
                }
            }
        }
        Some(StrTable { strs, index })
    }

    fn reserve(&mut self, strings: usize, bytes: usize) {
        self.strs.reserve(strings, bytes);
        self.index.reserve(strings);
    }

    /// Removes every string from position `len` onward, newest first: a
    /// string's probe sequence only ever steps over entries older than it,
    /// so unwinding in reverse insertion order leaves every surviving
    /// sequence intact.
    fn truncate(&mut self, len: usize) {
        for at in (len..self.strs.len()).rev() {
            let s = self.strs.get(at).expect("position below len");
            let mut key = hash_str(s);
            while self.index.get(&key).is_some_and(|&found| found as usize != at) {
                key = key.wrapping_add(REPROBE);
            }
            self.index.remove(&key);
        }
        self.strs.truncate(len);
    }

    /// Bytes held: arena, offsets, and the index at its current capacity.
    fn byte_len(&self) -> usize {
        self.strs.bytes.len()
            + self.strs.ends.len() * std::mem::size_of::<u32>()
            + self.index.capacity() * (std::mem::size_of::<(u64, u32)>() + 1)
    }
}

/// A shared read handle over an interner's table: one read-lock guard,
/// taken once with [`TypedInterner::reader`] and shared by reference
/// across parse workers. Every [`get`](InternerReader::get) is then a plain
/// hash probe with no further lock or atomic, and sees every string
/// interned before the reader was taken.
///
/// No thread may hold a reader while it calls [`TypedInterner::intern`],
/// [`TypedInterner::intern_batch`] or
/// [`TypedInterner::extend_from_snapshot`] on the same interner: those
/// wait for the write lock, which waits for every reader to drop. Collect
/// the misses, drop the reader, then intern them.
pub struct InternerReader<'a, T> {
    table: RwLockReadGuard<'a, StrTable>,
    _tag: PhantomData<fn() -> T>,
}

impl<T> InternerReader<'_, T> {
    /// Looks up `s` without interning it.
    #[inline]
    pub fn get(&self, s: &str) -> Option<Symbol<T>> {
        self.table.get(s).map(Symbol::new)
    }
}

impl<T> fmt::Debug for InternerReader<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InternerReader").field("len", &self.table.strs.len()).finish()
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
/// assert_eq!(i.resolve(a), "nbc.com");
/// assert_eq!(i.len(), 1);
/// ```
pub struct TypedInterner<T> {
    table: RwLock<StrTable>,
    _tag: PhantomData<fn() -> T>,
}

impl<T> TypedInterner<T> {
    /// Creates an empty interner.
    pub fn new() -> Self {
        TypedInterner { table: RwLock::new(StrTable::default()), _tag: PhantomData }
    }

    // A thread that panicked while holding the lock leaves the table valid:
    // it is append-only and each append is complete (capacity checked, then
    // bytes, offset, index entry) before the guard is released, so the
    // poison flag carries no information and later callers carry on.
    fn read(&self) -> RwLockReadGuard<'_, StrTable> {
        self.table.read().unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> RwLockWriteGuard<'_, StrTable> {
        self.table.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// A read handle over the table, for parse workers to share; see
    /// [`InternerReader`] for the one rule that comes with it.
    pub fn reader(&self) -> InternerReader<'_, T> {
        InternerReader { table: self.read(), _tag: PhantomData }
    }

    /// Interns `s`, returning its symbol. Repeated calls with equal strings
    /// return equal symbols.
    pub fn intern(&self, s: &str) -> Symbol<T> {
        if let Some(raw) = self.read().get(s) {
            return Symbol::new(raw);
        }
        Symbol::new(self.write().intern(s).0)
    }

    /// Interns a whole batch under a single write-lock acquisition, in
    /// order — how the misses a span's [`InternerReader`] lookups left are
    /// resolved. Duplicate strings in the batch receive equal symbols.
    pub fn intern_batch(&self, strs: &[&str]) -> Vec<Symbol<T>> {
        if strs.is_empty() {
            return Vec::new();
        }
        let mut table = self.write();
        strs.iter().map(|s| Symbol::new(table.intern(s).0)).collect()
    }

    /// Looks up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Symbol<T>> {
        self.read().get(s).map(Symbol::new)
    }

    /// Resolves a symbol back to its string, as an owned copy. Per-name hot
    /// callers borrow it instead through [`TypedInterner::with_str`].
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol<T>) -> String {
        self.with_str(sym, str::to_owned)
    }

    /// Runs `f` on the string behind `sym`, borrowed from the table — no
    /// copy. The interner's read lock is held while `f` runs, so `f` must
    /// not intern into *this* interner.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn with_str<R>(&self, sym: Symbol<T>, f: impl FnOnce(&str) -> R) -> R {
        f(self.read().strs.get(sym.raw as usize).expect("symbol from foreign interner"))
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.read().strs.len()
    }

    /// Whether no strings have been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes the table holds: string bytes, offsets, and the hash index at
    /// its current capacity.
    pub fn byte_len(&self) -> usize {
        self.read().byte_len()
    }

    /// A copy of the strings interned at or after raw symbol `start`
    /// (empty when `start` is past the end), indexed from zero. An
    /// incremental freeze captures its delta through this by copying the
    /// tail's bytes, which keeps the checkpoint stall O(day) instead of
    /// O(history).
    pub fn tail(&self, start: usize) -> StrArena {
        self.read().strs.tail(start)
    }

    /// Takes a restored table — every string from symbol 0 on, as a store
    /// chain folds it — verifying that each string holds the symbol number
    /// it had when the snapshot was written (append-only numbering is what
    /// keeps restored symbols meaningful).
    ///
    /// An empty interner adopts `strings` by move and builds its index over
    /// it, so the table is never held twice. One that already holds content
    /// — a dataset-shared interner passed back to a restore — must agree
    /// with the snapshot: strings below its length are *verified* against
    /// the ones it holds, the rest are interned and must land on their
    /// recorded number.
    ///
    /// Returns `false` when a held string disagrees with the snapshot or a
    /// string repeats one at a different number (which would silently
    /// renumber symbols). The call is all-or-nothing: on `false` the
    /// interner holds exactly what it held before, so a caller that shares
    /// it keeps minting the symbols it would have.
    pub fn extend_from_snapshot(&self, strings: StrArena) -> bool {
        let mut table = self.write();
        if table.strs.is_empty() {
            return match StrTable::over(strings) {
                Some(adopted) => {
                    *table = adopted;
                    true
                }
                None => false,
            };
        }
        let len = table.strs.len();
        let known = len.min(strings.len());
        if !strings.iter().take(known).enumerate().all(|(k, s)| table.strs.holds(k, s)) {
            return false;
        }
        let fresh = strings.iter().skip(known);
        table.reserve(fresh.len(), strings.bytes.len() - strings.start_of(known) as usize);
        for s in fresh {
            if !table.intern(s).1 {
                table.truncate(len);
                return false;
            }
        }
        true
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
    use crate::hash::FastHasher;
    use proptest::prelude::*;
    use std::collections::{HashMap as StdMap, HashSet};
    use std::sync::Barrier;

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
        assert_eq!(i.resolve(s), "Mozilla/5.0 (X11; Linux)");
        assert_eq!(i.with_str(s, str::len), 24);
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
    fn tail_preserves_order_from_any_watermark() {
        let i = DomainInterner::new();
        for s in ["a", "", "çà.example", "b"] {
            i.intern(s);
        }
        assert_eq!(i.tail(0).iter().collect::<Vec<_>>(), ["a", "", "çà.example", "b"]);
        let tail = i.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail.get(0), Some("çà.example"));
        assert_eq!(tail.get(1), Some("b"));
        assert_eq!(tail.get(2), None);
        assert!(i.tail(4).is_empty());
        assert!(i.tail(9).is_empty(), "a watermark past the end is an empty tail");
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

    /// The strings in order, as a store chain folds a table.
    fn arena<S: AsRef<str>>(strs: &[S]) -> StrArena {
        let mut arena = StrArena::default();
        strs.iter().for_each(|s| arena.push(s.as_ref()));
        arena
    }

    #[test]
    fn extend_from_snapshot_verifies_and_appends() {
        let i = DomainInterner::new();
        i.intern("a");
        i.intern("b");
        assert!(i.extend_from_snapshot(arena(&["a", "b", "c"])), "prefix verifies, rest appends");
        assert_eq!(i.len(), 3);
        assert_eq!(i.resolve(DomainSym::from_raw(2)), "c");
        assert!(!i.extend_from_snapshot(arena(&["x"])), "existing string disagrees");
        assert!(!i.extend_from_snapshot(arena(&["a", "b", "c", "a"])), "duplicate would renumber");
        assert_eq!(i.len(), 3);
    }

    #[test]
    fn an_empty_interner_adopts_the_snapshot() {
        let names = ["", "a.com", "çà.example", "🦀.rs", "b.com"];
        let i = DomainInterner::new();
        assert!(i.extend_from_snapshot(arena(&names)));
        for (k, name) in names.iter().enumerate() {
            let sym = DomainSym::from_raw(k as u32);
            assert_eq!(i.get(name), Some(sym), "{name:?} resolves to its position");
            assert_eq!(i.resolve(sym), *name);
        }
        assert_eq!(i.intern("next.com").raw(), 5, "numbering continues densely");

        // A repeat anywhere, including among strings sharing one hash.
        let mut colliding = colliders(3);
        colliding.push(colliding[1].clone());
        for repeated in [arena(&["a", "b", "a"]), arena(&["", ""]), arena(&colliding)] {
            let fresh = DomainInterner::new();
            assert!(!fresh.extend_from_snapshot(repeated));
            assert!(fresh.is_empty(), "a refused snapshot leaves nothing behind");
            assert_eq!(fresh.intern("a").raw(), 0);
        }
    }

    #[test]
    fn a_longer_shared_interner_only_verifies() {
        let i = DomainInterner::new();
        for s in ["a", "b", "c", "minted.later"] {
            i.intern(s);
        }
        let before = i.tail(0);
        assert!(i.extend_from_snapshot(arena(&["a", "b"])), "the snapshot's prefix agrees");
        assert!(i.extend_from_snapshot(StrArena::default()), "an empty table agrees");
        assert!(!i.extend_from_snapshot(arena(&["a", "x"])), "a disagreeing string is refused");
        assert!(!i.extend_from_snapshot(arena(&["b", "a"])), "so is a renumbering");
        assert_eq!(i.tail(0), before, "verification never changes the interner");
    }

    #[test]
    fn failed_extend_leaves_nothing_behind() {
        let i = DomainInterner::new();
        i.intern("a");
        i.intern("b");
        let before = i.tail(0);
        // Each snapshot appends fresh strings before reaching the one that
        // fails: a duplicate of an older string, and a duplicate within
        // the fresh strings.
        assert!(!i.extend_from_snapshot(arena(&["a", "b", "c", "d", "a"])));
        assert!(!i.extend_from_snapshot(arena(&["a", "b", "c", "d", "c"])));
        assert_eq!(i.tail(0), before, "all-or-nothing: no string from a failed batch remains");
        for gone in ["c", "d"] {
            assert_eq!(i.get(gone), None);
        }
        assert_eq!(i.intern("e").raw(), 2, "the next symbol is the next dense number");
        assert_eq!(i.intern("c").raw(), 3);
        assert!(
            i.extend_from_snapshot(arena(&["a", "b", "e", "c", "d"])),
            "a good one still lands"
        );
        assert_eq!(i.get("d"), Some(DomainSym::from_raw(4)));
    }

    #[test]
    fn a_reader_sees_everything_interned_before_it() {
        let i = DomainInterner::new();
        let names: Vec<String> = (0..500).map(|k| format!("d{k}.com")).collect();
        assert!(i.extend_from_snapshot(arena(&names[..300])));
        assert!(i.extend_from_snapshot(arena(&names)));
        let late = i.intern("late.com");
        let reader = i.reader();
        // Shared by reference, as parse workers share it.
        let numbered: Vec<(usize, &String)> = names.iter().enumerate().collect();
        std::thread::scope(|scope| {
            for half in numbered.chunks(250) {
                let reader = &reader;
                scope.spawn(move || {
                    for &(k, name) in half {
                        assert_eq!(reader.get(name), Some(DomainSym::from_raw(k as u32)));
                    }
                });
            }
        });
        assert_eq!(reader.get("late.com"), Some(late));
        assert_eq!(reader.get("never.com"), None);
        drop(reader);
        assert!(i.byte_len() > 501 * "d0.com".len());
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

    /// `n` distinct 16-byte ASCII strings engineered to share one 64-bit
    /// hash. `FastHasher` folds a string in 8 bytes at a time, so whatever
    /// a different first word does to the state, a chosen second word
    /// cancels; roughly one candidate in 256 comes out all-ASCII.
    fn colliders(n: usize) -> Vec<String> {
        let after = |word: [u8; 8]| {
            let mut h = FastHasher::default();
            h.write_u64(u64::from_le_bytes(word));
            h.finish().rotate_left(5)
        };
        let target = after(*b"collide0") ^ u64::from_le_bytes(*b".example");
        let mut out = vec!["collide0.example".to_owned()];
        for k in 0u64.. {
            if out.len() == n {
                break;
            }
            let first: [u8; 8] = format!("{k:08}").into_bytes().try_into().unwrap();
            let second = (target ^ after(first)).to_le_bytes();
            if second.is_ascii() {
                out.push(String::from_utf8([first, second].concat()).unwrap());
            }
        }
        for s in &out {
            assert_eq!(hash_str(s), hash_str(&out[0]), "{s:?} must collide");
        }
        assert_eq!(out.iter().collect::<HashSet<_>>().len(), n);
        out
    }

    #[test]
    fn arena_appends_verifies_and_finds_repeats() {
        let mut arena = StrArena::default();
        for s in ["a.com", "", "🦀.rs"] {
            arena.push(s);
        }
        assert!(arena.holds(2, "🦀.rs") && !arena.holds(2, "a.com") && !arena.holds(3, ""));
        assert!(arena.all_distinct());
        arena.push("");
        assert!(!arena.all_distinct(), "the empty string, twice");

        // Strings sharing all 64 bits of hash are told apart by comparing
        // them; a true repeat among them is still found.
        let mut colliding = StrArena::default();
        let names = colliders(3);
        names.iter().for_each(|s| colliding.push(s));
        assert!(colliding.all_distinct());
        colliding.push(&names[1]);
        assert!(!colliding.all_distinct());
    }

    #[test]
    fn full_hash_collisions_get_distinct_symbols() {
        let names = colliders(4);
        let (stranger, interned) = names.split_last().unwrap();
        let i = DomainInterner::new();
        let syms: Vec<DomainSym> = interned.iter().map(|s| i.intern(s)).collect();
        assert_eq!(syms.iter().map(|s| s.raw()).collect::<Vec<_>>(), [0, 1, 2]);
        for (name, &sym) in interned.iter().zip(&syms) {
            assert_eq!(i.intern(name), sym, "re-interning a collider finds it");
            assert_eq!(i.get(name), Some(sym));
            assert_eq!(i.resolve(sym), *name);
        }
        assert_eq!(i.get(stranger), None, "a never-interned collider misses");
        let reader = i.reader();
        for (name, &sym) in interned.iter().zip(&syms) {
            assert_eq!(reader.get(name), Some(sym));
        }
        assert_eq!(reader.get(stranger), None);
        drop(reader);
        assert_eq!(i.len(), 3);

        // Rolling back a failed bulk load unwinds a probe chain newest
        // first: the survivors still hit, the removed one misses.
        let mut bulk = interned.to_vec();
        bulk.extend([stranger.clone(), interned[0].clone()]);
        assert!(!i.extend_from_snapshot(arena(&bulk)));
        assert_eq!(i.get(stranger), None);
        for (name, &sym) in interned.iter().zip(&syms) {
            assert_eq!(i.get(name), Some(sym));
        }
        assert_eq!(i.intern(stranger).raw(), 3);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_wedge_the_interner() {
        let i = DomainInterner::new();
        let a = i.intern("before.com");
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = i.table.write().unwrap();
                    panic!("ingest thread dies holding the interner");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(i.table.is_poisoned());
        assert_eq!(i.get("before.com"), Some(a));
        assert_eq!(i.resolve(a), "before.com");
        assert_eq!(i.intern("after.com").raw(), 1);
        assert_eq!(i.intern_batch(&["after.com", "later.com"]).len(), 2);
        let mut bulk = i.tail(0);
        bulk.push("bulk.com");
        assert!(i.extend_from_snapshot(bulk));
        assert_eq!(i.reader().get("bulk.com"), Some(DomainSym::from_raw(3)));
        assert_eq!(i.tail(0).len(), 4);
    }

    /// Writers intern overlapping sets while readers keep taking and
    /// dropping a reader. A barrier releases all threads at once; the
    /// checks are on what each thread was *told*, so any interleaving that
    /// hands out a wrong, duplicate or not-yet-valid symbol fails.
    #[test]
    fn many_threads_agree_on_one_dense_numbering() {
        const WRITERS: usize = 4;
        const READERS: usize = 4;
        const NAMES: usize = 3_000;
        let name = |k: usize| format!("host{k}.zone{}.example", k % 7);
        let i = DomainInterner::new();
        let start = Barrier::new(WRITERS + READERS);
        let told: Vec<Vec<(usize, u32)>> = std::thread::scope(|scope| {
            let mut threads = Vec::new();
            for w in 0..WRITERS {
                let (i, start) = (&i, &start);
                threads.push(scope.spawn(move || {
                    start.wait();
                    let mut told = Vec::new();
                    // Each writer covers three quarters of the names, from
                    // its own offset: every name has several writers.
                    let mine: Vec<usize> =
                        (0..NAMES * 3 / 4).map(|k| (k + w * NAMES / WRITERS) % NAMES).collect();
                    for chunk in mine.chunks(37) {
                        if chunk[0] % 2 == 0 {
                            let owned: Vec<String> = chunk.iter().map(|&k| name(k)).collect();
                            let strs: Vec<&str> = owned.iter().map(String::as_str).collect();
                            let syms = i.intern_batch(&strs);
                            told.extend(chunk.iter().zip(syms).map(|(&k, s)| (k, s.raw())));
                        } else {
                            told.extend(chunk.iter().map(|&k| (k, i.intern(&name(k)).raw())));
                        }
                    }
                    told
                }));
            }
            for r in 0..READERS {
                let (i, start) = (&i, &start);
                threads.push(scope.spawn(move || {
                    start.wait();
                    let mut told = Vec::new();
                    for round in 0..60 {
                        let seen: Vec<(usize, u32)> = {
                            let reader = i.reader();
                            (r + round..NAMES)
                                .step_by(11)
                                .filter_map(|k| reader.get(&name(k)).map(|sym| (k, sym.raw())))
                                .collect()
                        };
                        // The table only grows, so every symbol a reader
                        // handed out is below the length read after it.
                        let bound = i.len();
                        for &(_, raw) in &seen {
                            assert!((raw as usize) < bound, "reader saw {raw} of {bound}");
                        }
                        told.extend(seen);
                    }
                    told
                }));
            }
            threads.into_iter().map(|t| t.join().expect("no thread panicked")).collect()
        });

        assert_eq!(i.len(), NAMES);
        let all = i.tail(0);
        assert_eq!(all.iter().collect::<HashSet<_>>().len(), NAMES, "no string numbered twice");
        let mut number_of: StdMap<usize, u32> = StdMap::new();
        for (k, raw) in told.into_iter().flatten() {
            assert_eq!(all.get(raw as usize), Some(name(k).as_str()), "symbol {raw} resolves");
            assert_eq!(*number_of.entry(k).or_insert(raw), raw, "one number per string");
        }
        assert_eq!(number_of.len(), NAMES, "every name was handed out");
    }

    /// The strings the model test draws from: empty, multi-byte, and few
    /// enough that sequences are full of duplicates.
    const POOL: [&str; 10] =
        ["", "a", "b", "nbc.com", "news.nbc.com", "çà.example", "🦀.rs", "é", "e\u{301}", "\0"];

    /// The reference the model test runs beside: strings by number, and
    /// numbers by string.
    #[derive(Default)]
    struct Model {
        strings: Vec<String>,
        numbers: StdMap<String, u32>,
    }

    impl Model {
        fn intern(&mut self, s: &str) -> u32 {
            if let Some(&n) = self.numbers.get(s) {
                return n;
            }
            let n = self.strings.len() as u32;
            self.strings.push(s.to_owned());
            self.numbers.insert(s.to_owned(), n);
            n
        }

        /// Whether `extend_from_snapshot(batch)` must succeed, and if so,
        /// applies it.
        fn extend(&mut self, batch: &[&str]) -> bool {
            let len = self.strings.len();
            let mut fresh = HashSet::new();
            for (k, s) in batch.iter().enumerate() {
                let ok = match self.strings.get(k) {
                    Some(held) => held == s,
                    None => !self.numbers.contains_key(*s) && fresh.insert(*s),
                };
                if !ok {
                    return false;
                }
            }
            for s in batch.iter().skip(len) {
                self.intern(s);
            }
            true
        }
    }

    fn assert_matches_model(i: &DomainInterner, model: &Model) {
        assert_eq!(i.len(), model.strings.len());
        assert_eq!(i.tail(0).iter().collect::<Vec<_>>(), model.strings, "first-seen, dense");
        for s in POOL {
            assert_eq!(i.get(s), model.numbers.get(s).map(|&n| DomainSym::from_raw(n)));
        }
        let reader = i.reader();
        for s in POOL {
            let expected = model.numbers.get(s).map(|&n| DomainSym::from_raw(n));
            assert_eq!(reader.get(s), expected, "a reader sees exactly the table");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn any_operation_sequence_matches_the_model(
            ops in proptest::collection::vec(
                (0u8..5, proptest::collection::vec(0usize..POOL.len(), 0..6), 0usize..8),
                0..40,
            )
        ) {
            let i = DomainInterner::new();
            let mut model = Model::default();
            for (op, picks, hint) in ops {
                let batch: Vec<&str> = picks.iter().map(|&p| POOL[p]).collect();
                // A watermark anywhere from zero to one past the end.
                let at = hint % (model.strings.len() + 2);
                match op {
                    0 => {
                        for s in &batch {
                            prop_assert_eq!(i.intern(s).raw(), model.intern(s));
                        }
                    }
                    1 => {
                        let syms = i.intern_batch(&batch);
                        let expected: Vec<u32> = batch.iter().map(|s| model.intern(s)).collect();
                        prop_assert_eq!(syms.iter().map(|s| s.raw()).collect::<Vec<_>>(), expected);
                    }
                    2 => {
                        // The model's first `at` strings, then the picks:
                        // a snapshot that verifies, appends or disagrees.
                        let held = &model.strings[..at.min(model.strings.len())];
                        let mut snapshot: Vec<&str> = held.iter().map(String::as_str).collect();
                        snapshot.extend(&batch);
                        let snapshot = arena(&snapshot);
                        let strs: Vec<&str> = snapshot.iter().collect();
                        let expected = model.extend(&strs);
                        prop_assert_eq!(i.extend_from_snapshot(snapshot), expected);
                    }
                    3 => {
                        let reader = i.reader();
                        for (s, &n) in &model.numbers {
                            prop_assert_eq!(reader.get(s), Some(DomainSym::from_raw(n)));
                        }
                    }
                    _ => {
                        let tail = i.tail(at);
                        let expected = model.strings.get(at..).unwrap_or_default();
                        prop_assert_eq!(tail.iter().collect::<Vec<_>>(), expected);
                        let head = &model.strings[..at.min(model.strings.len())];
                        let rebuilt = DomainInterner::new();
                        prop_assert!(rebuilt.extend_from_snapshot(arena(head)));
                        prop_assert!(rebuilt.extend_from_snapshot(i.tail(0)));
                        prop_assert_eq!(rebuilt.tail(0), i.tail(0));
                    }
                }
                assert_matches_model(&i, &model);
            }
        }
    }
}
