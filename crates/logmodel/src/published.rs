//! A read-mostly publication cell: an immutable snapshot swapped atomically
//! under a writer, consulted without locks on the per-record path.
//!
//! The hot structures of the pipeline (interner tables, fold memos, filter
//! verdict caches) are read millions of times per chunk and written a
//! handful of times. [`Published`] holds the current immutable snapshot
//! behind an `Arc`; workers [`load`](Published::load) it **once per chunk**
//! and then do every per-record lookup through the owned `Arc` — no lock,
//! no atomic, no contention on the chunk's inner loop. Writers build a new
//! snapshot and [`publish`](Published::publish) it; readers holding the old
//! `Arc` simply keep the old (still-correct, append-only) view until they
//! reacquire.
//!
//! Acquisition itself takes a brief uncontended read lock (`std` has no
//! lock-free `Arc` swap without `unsafe`, which this crate forbids); that
//! cost is amortized over the tens of thousands of records in a chunk.

use std::fmt;
use std::sync::{Arc, PoisonError, RwLock};

/// An atomically swappable immutable snapshot. See the module docs.
pub struct Published<T> {
    cell: RwLock<Arc<T>>,
}

impl<T> Published<T> {
    /// Creates a cell publishing `value` as the initial snapshot.
    pub fn new(value: T) -> Self {
        Published { cell: RwLock::new(Arc::new(value)) }
    }

    /// The current snapshot. Hold the returned `Arc` for the duration of a
    /// chunk and look up through it; reacquire per chunk, not per record.
    ///
    /// A poisoned cell is read through: the only write is
    /// [`publish`](Published::publish) swapping one whole `Arc` for another,
    /// so the slot holds a complete snapshot whether or not a thread
    /// panicked around it.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.cell.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Replaces the snapshot. Readers that already loaded the previous
    /// snapshot keep reading it unharmed.
    pub fn publish(&self, value: Arc<T>) {
        *self.cell.write().unwrap_or_else(PoisonError::into_inner) = value;
    }
}

impl<T: fmt::Debug> fmt::Debug for Published<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Published").field(&self.load()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_returns_latest_publication() {
        let cell = Published::new(vec![1u32]);
        let old = cell.load();
        cell.publish(Arc::new(vec![1, 2, 3]));
        assert_eq!(*old, vec![1], "held snapshots are undisturbed");
        assert_eq!(*cell.load(), vec![1, 2, 3]);
    }

    #[test]
    fn a_panic_under_the_lock_does_not_wedge_the_cell() {
        let cell = Published::new(1u32);
        let panicked = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _guard = cell.cell.write().unwrap();
                    panic!("publisher dies holding the cell");
                })
                .join()
        });
        assert!(panicked.is_err());
        assert!(cell.cell.is_poisoned());
        assert_eq!(*cell.load(), 1, "the last complete snapshot is still served");
        cell.publish(Arc::new(2));
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn concurrent_readers_and_publisher() {
        let cell = Arc::new(Published::new(0usize));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let cell = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut last = 0;
                    for _ in 0..10_000 {
                        let v = *cell.load();
                        assert!(v >= last, "snapshots move forward");
                        last = v;
                    }
                });
            }
            for i in 1..=100 {
                cell.publish(Arc::new(i));
            }
        });
        assert_eq!(*cell.load(), 100);
    }
}
