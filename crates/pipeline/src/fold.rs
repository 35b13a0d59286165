//! Domain folding with a dedicated interner for folded names.
//!
//! "We first 'fold' the domain names to second-level (e.g., news.nbc.com is
//! folded to nbc.com) ... Since domain names are anonymized in the LANL
//! dataset, we conservatively fold to third-level domains" (§IV-A).

use earlybird_logmodel::{fold_domain, DomainInterner, DomainSym, Published};
use std::sync::{Arc, PoisonError, RwLock};

/// Sentinel marking a raw symbol whose fold has not been computed yet.
const UNFOLDED: u32 = u32::MAX;

/// The mutable half of the fold memo: a dense array indexed by raw symbol.
#[derive(Debug, Default)]
struct FoldCache {
    /// `vec[raw.raw()]` is the folded symbol's raw id, or [`UNFOLDED`].
    vec: Vec<u32>,
    /// Entries filled so far (drives the republish threshold).
    filled: usize,
    /// `filled` at the last snapshot publication.
    published: usize,
}

/// Memoized folding from raw domain symbols to folded domain symbols.
///
/// The folded names live in their own [`DomainInterner`] so the rest of the
/// pipeline never mixes raw and folded symbols by accident. The memo is a
/// dense `Vec<u32>` indexed by the raw symbol id; a read-mostly snapshot of
/// it is republished geometrically through a [`Published`] cell, so chunk
/// workers that grab a [`DomainFolder`] handle resolve repeat domains with a
/// plain array load — no lock, no hash. Misses fall back to the internally
/// synchronized live cache, so one `FoldTable` can still be shared by
/// parallel reduction workers; note that concurrent *first* folds of
/// distinct names make folded-symbol numbering racy — streaming callers that
/// need deterministic numbering warm the cache sequentially first (see
/// `earlybird-core`'s `DailyPipeline`).
#[derive(Debug)]
pub struct FoldTable {
    raw: Arc<DomainInterner>,
    folded: Arc<DomainInterner>,
    level: usize,
    live: RwLock<FoldCache>,
    snap: Published<Vec<u32>>,
}

impl FoldTable {
    /// Creates a fold table over `raw` names, folding to `level` labels.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero.
    pub fn new(raw: Arc<DomainInterner>, level: usize) -> Self {
        assert!(level > 0, "fold level must be positive");
        FoldTable {
            raw,
            folded: Arc::new(DomainInterner::new()),
            level,
            live: RwLock::new(FoldCache::default()),
            snap: Published::new(Vec::new()),
        }
    }

    /// Reassembles a fold table from restored interners (the persistence
    /// hook used by `earlybird-store`). The memo cache starts empty and is
    /// rebuilt lazily; because `folded` already holds every folded name in
    /// its original numbering, re-folding reproduces identical symbols.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero.
    pub fn from_interners(
        raw: Arc<DomainInterner>,
        folded: Arc<DomainInterner>,
        level: usize,
    ) -> Self {
        assert!(level > 0, "fold level must be positive");
        FoldTable {
            raw,
            folded,
            level,
            live: RwLock::new(FoldCache::default()),
            snap: Published::new(Vec::new()),
        }
    }

    /// The fold level (2 for enterprise data, 3 for anonymized LANL names).
    pub fn level(&self) -> usize {
        self.level
    }

    /// A per-chunk folding handle over the current memo snapshot.
    ///
    /// Acquire one per chunk of work: repeat folds hit the snapshot with a
    /// lock-free array load, and only first-time folds touch the shared
    /// table.
    pub fn folder(&self) -> DomainFolder<'_> {
        DomainFolder { table: self, snap: self.snap.load() }
    }

    /// Folds a raw symbol, memoizing the mapping.
    pub fn fold(&self, raw_sym: DomainSym) -> DomainSym {
        let idx = raw_sym.raw() as usize;
        {
            let live = self.live.read().unwrap_or_else(PoisonError::into_inner);
            if let Some(&f) = live.vec.get(idx) {
                if f != UNFOLDED {
                    return DomainSym::from_raw(f);
                }
            }
        }
        self.fold_miss(raw_sym, idx)
    }

    /// Slow path: resolve + intern under the write lock, then maybe
    /// republish the snapshot.
    fn fold_miss(&self, raw_sym: DomainSym, idx: usize) -> DomainSym {
        let folded_sym =
            self.raw.with_str(raw_sym, |name| self.folded.intern(fold_domain(name, self.level)));
        // A holder that panicked left every cell either unfolded or holding
        // its one pure fold, so the poison flag carries no information.
        let mut live = self.live.write().unwrap_or_else(PoisonError::into_inner);
        if live.vec.len() <= idx {
            live.vec.resize(idx + 1, UNFOLDED);
        }
        if live.vec[idx] == UNFOLDED {
            live.vec[idx] = folded_sym.raw();
            live.filled += 1;
        }
        // Geometric republish: amortizes the O(n) snapshot clone to O(1)
        // per newly folded name.
        if live.filled >= live.published + (live.published / 8).max(64) {
            live.published = live.filled;
            self.snap.publish(Arc::new(live.vec.clone()));
        }
        folded_sym
    }

    /// Interns an already-folded name directly (used when seeding from IOC
    /// lists, which carry folded names).
    pub fn intern_folded(&self, name: &str) -> DomainSym {
        self.folded.intern(fold_domain(name, self.level))
    }

    /// The interner holding folded names.
    pub fn folded_interner(&self) -> &Arc<DomainInterner> {
        &self.folded
    }

    /// The interner holding raw names.
    pub fn raw_interner(&self) -> &Arc<DomainInterner> {
        &self.raw
    }

    /// Resolves a *folded* symbol to its name.
    pub fn folded_name(&self, sym: DomainSym) -> String {
        self.folded.resolve(sym)
    }
}

/// A per-chunk handle over a [`FoldTable`] memo snapshot.
///
/// Folds of already-seen raw symbols are a lock-free array load; unseen
/// symbols fall back to the shared table (and land in a future snapshot).
/// The snapshot is pinned at construction — drop the handle and take a new
/// one per chunk.
#[derive(Debug)]
pub struct DomainFolder<'t> {
    table: &'t FoldTable,
    snap: Arc<Vec<u32>>,
}

impl DomainFolder<'_> {
    /// Folds a raw symbol, consulting the pinned snapshot first.
    pub fn fold(&self, raw_sym: DomainSym) -> DomainSym {
        match self.snap.get(raw_sym.raw() as usize) {
            Some(&f) if f != UNFOLDED => DomainSym::from_raw(f),
            _ => self.table.fold(raw_sym),
        }
    }

    /// The underlying fold table.
    pub fn table(&self) -> &FoldTable {
        self.table
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_and_memoizes() {
        let raw = Arc::new(DomainInterner::new());
        let a = raw.intern("news.nbc.com");
        let b = raw.intern("video.nbc.com");
        let c = raw.intern("evil.ru");
        let t = FoldTable::new(Arc::clone(&raw), 2);
        let fa = t.fold(a);
        let fb = t.fold(b);
        let fc = t.fold(c);
        assert_eq!(fa, fb, "same second-level entity");
        assert_ne!(fa, fc);
        assert_eq!(t.folded_name(fa), "nbc.com");
        assert_eq!(t.fold(a), fa, "memoized");
    }

    #[test]
    fn third_level_for_anonymized_names() {
        let raw = Arc::new(DomainInterner::new());
        let a = raw.intern("x.sub.rainbow.c3");
        let t = FoldTable::new(Arc::clone(&raw), 3);
        let fa = t.fold(a);
        assert_eq!(t.folded_name(fa), "sub.rainbow.c3");
    }

    #[test]
    fn intern_folded_matches_fold_of_same_entity() {
        let raw = Arc::new(DomainInterner::new());
        let a = raw.intern("www.ramdo.org");
        let t = FoldTable::new(Arc::clone(&raw), 2);
        let via_fold = t.fold(a);
        let via_seed = t.intern_folded("ramdo.org");
        assert_eq!(via_fold, via_seed);
        // Seeding with a deeper name folds it first.
        assert_eq!(t.intern_folded("cdn.ramdo.org"), via_seed);
    }

    #[test]
    fn folder_handle_agrees_with_table() {
        let raw = Arc::new(DomainInterner::new());
        let t = FoldTable::new(Arc::clone(&raw), 2);
        // Enough distinct names to cross the republish threshold.
        let syms: Vec<_> =
            (0..200).map(|i| raw.intern(&format!("h{i}.site{}.com", i % 50))).collect();
        let direct: Vec<_> = syms.iter().map(|&s| t.fold(s)).collect();
        // A fresh handle sees a published snapshot covering most entries;
        // every fold must agree with the table regardless of snapshot hits.
        let folder = t.folder();
        for (i, &s) in syms.iter().enumerate() {
            assert_eq!(folder.fold(s), direct[i]);
        }
        // A stale handle taken before new names appeared still folds them
        // correctly via the fallback path.
        let stale = t.folder();
        let late = raw.intern("late.arrival.net");
        assert_eq!(stale.fold(late), t.fold(late));
    }

    #[test]
    fn a_panic_under_the_lock_does_not_wedge_the_fold_memo() {
        let raw = Arc::new(DomainInterner::new());
        let a = raw.intern("news.nbc.com");
        let b = raw.intern("video.nbc.com");
        let t = FoldTable::new(Arc::clone(&raw), 2);
        let fa = t.fold(a);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = t.live.write().unwrap();
                    panic!("reduce worker dies holding the fold memo");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(t.live.is_poisoned());
        assert_eq!(t.fold(a), fa, "memoized fold survives");
        assert_eq!(t.fold(b), fa, "fresh folds still land");
        assert_eq!(t.folder().fold(b), fa);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_level_rejected() {
        let raw = Arc::new(DomainInterner::new());
        let _ = FoldTable::new(raw, 0);
    }
}
