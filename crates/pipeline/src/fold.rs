//! Domain folding with a dedicated interner for folded names.
//!
//! "We first 'fold' the domain names to second-level (e.g., news.nbc.com is
//! folded to nbc.com) ... Since domain names are anonymized in the LANL
//! dataset, we conservatively fold to third-level domains" (§IV-A).

use earlybird_logmodel::{fold_domain, DomainInterner, DomainSym};
use std::sync::Arc;

/// Sentinel marking a raw symbol whose fold has not been computed yet.
const UNFOLDED: u32 = u32::MAX;

/// Memoized folding from raw domain symbols to folded domain symbols.
///
/// The folded names live in their own [`DomainInterner`] so the rest of the
/// pipeline never mixes raw and folded symbols by accident. The memo is a
/// dense `Vec<u32>` indexed by the raw symbol id. It is written only by
/// [`FoldTable::fold`], which takes `&mut self`: the owner folds every
/// record of a pushed span once, sequentially and in record order, so the
/// first fold of each name — the one that mints its folded symbol — never
/// races and folded-symbol numbering does not depend on how the span was
/// split. Parallel reduction workers then share the table immutably and
/// read the memo with [`FoldTable::folded`], a plain array load.
#[derive(Debug)]
pub struct FoldTable {
    raw: Arc<DomainInterner>,
    folded: Arc<DomainInterner>,
    level: usize,
    /// `memo[raw.raw()]` is the folded symbol's raw id, or [`UNFOLDED`].
    memo: Vec<u32>,
}

impl FoldTable {
    /// Creates a fold table over `raw` names, folding to `level` labels.
    ///
    /// # Panics
    ///
    /// Panics if `level` is zero.
    pub fn new(raw: Arc<DomainInterner>, level: usize) -> Self {
        assert!(level > 0, "fold level must be positive");
        FoldTable { raw, folded: Arc::new(DomainInterner::new()), level, memo: Vec::new() }
    }

    /// Folds a raw symbol, minting its folded symbol on first sight.
    pub fn fold(&mut self, raw_sym: DomainSym) -> DomainSym {
        if let Some(folded) = self.folded(raw_sym) {
            return folded;
        }
        let folded_sym =
            self.raw.with_str(raw_sym, |name| self.folded.intern(fold_domain(name, self.level)));
        let idx = raw_sym.raw() as usize;
        if self.memo.len() <= idx {
            self.memo.resize(idx + 1, UNFOLDED);
        }
        self.memo[idx] = folded_sym.raw();
        folded_sym
    }

    /// The memoized fold of `raw_sym`, or `None` if [`FoldTable::fold`]
    /// has not seen it yet.
    pub fn folded(&self, raw_sym: DomainSym) -> Option<DomainSym> {
        match self.memo.get(raw_sym.raw() as usize) {
            Some(&f) if f != UNFOLDED => Some(DomainSym::from_raw(f)),
            _ => None,
        }
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
        let mut t = FoldTable::new(Arc::clone(&raw), 2);
        let fa = t.fold(a);
        let fb = t.fold(b);
        let fc = t.fold(c);
        assert_eq!(fa, fb, "same second-level entity");
        assert_ne!(fa, fc);
        assert_eq!(t.folded_interner().resolve(fa), "nbc.com");
        assert_eq!(t.fold(a), fa, "memoized");
        assert_eq!(t.folded_interner().len(), 2, "a repeat fold mints nothing");
    }

    #[test]
    fn folded_is_none_until_warmed() {
        let raw = Arc::new(DomainInterner::new());
        let a = raw.intern("news.nbc.com");
        let b = raw.intern("evil.ru");
        let mut t = FoldTable::new(Arc::clone(&raw), 2);
        assert_eq!(t.folded(a), None, "nothing folded yet");
        let fa = t.fold(a);
        assert_eq!(t.folded(a), Some(fa));
        assert_eq!(t.folded(b), None, "a lower symbol stays unwarmed");
        let late = raw.intern("late.arrival.net");
        assert_eq!(t.folded(late), None, "a symbol past the memo's end");
        assert_eq!(t.folded_interner().len(), 1, "reading never mints");
    }

    #[test]
    fn numbering_follows_first_fold_order() {
        let raw = Arc::new(DomainInterner::new());
        let a = raw.intern("a.first.com");
        let b = raw.intern("b.second.com");
        let mut t = FoldTable::new(Arc::clone(&raw), 2);
        // Folded in the reverse of raw order: folded numbering follows the
        // folds, not the raw interner.
        assert_eq!(t.fold(b).raw(), 0);
        assert_eq!(t.fold(a).raw(), 1);
    }

    #[test]
    fn third_level_for_anonymized_names() {
        let raw = Arc::new(DomainInterner::new());
        let a = raw.intern("x.sub.rainbow.c3");
        let mut t = FoldTable::new(Arc::clone(&raw), 3);
        let fa = t.fold(a);
        assert_eq!(t.folded_interner().resolve(fa), "sub.rainbow.c3");
    }

    #[test]
    fn intern_folded_matches_fold_of_same_entity() {
        let raw = Arc::new(DomainInterner::new());
        let a = raw.intern("www.ramdo.org");
        let mut t = FoldTable::new(Arc::clone(&raw), 2);
        let via_fold = t.fold(a);
        let via_seed = t.intern_folded("ramdo.org");
        assert_eq!(via_fold, via_seed);
        // Seeding with a deeper name folds it first.
        assert_eq!(t.intern_folded("cdn.ramdo.org"), via_seed);
    }

    #[test]
    fn restored_table_refolds_to_the_same_symbols() {
        let raw = Arc::new(DomainInterner::new());
        let syms: Vec<_> = ["x.b.com", "y.a.com", "z.b.com"].map(|n| raw.intern(n)).into();
        let mut live = FoldTable::new(Arc::clone(&raw), 2);
        let folds: Vec<_> = syms.iter().map(|&s| live.fold(s)).collect();
        // Restore builds an empty table, then interns the live folded names
        // into it in their original order.
        let mut restored = FoldTable::new(Arc::clone(&raw), 2);
        for sym in 0..live.folded_interner().len() as u32 {
            let name = live.folded_interner().resolve(DomainSym::from_raw(sym));
            restored.folded_interner().intern(&name);
        }
        assert_eq!(restored.folded(syms[0]), None, "the memo is not restored");
        // Any order: every folded name already holds its number.
        for (&s, &f) in syms.iter().zip(&folds).rev() {
            assert_eq!(restored.fold(s), f);
        }
        assert_eq!(restored.folded_interner().len(), 2);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_level_rejected() {
        let raw = Arc::new(DomainInterner::new());
        let _ = FoldTable::new(raw, 0);
    }
}
