//! Snapshot-versioned state cells: the epoch/transaction layer behind
//! live ingest.
//!
//! A [`Versioned<T>`] holds one immutable, epoch-stamped value behind an
//! `Arc`. Readers open a [`ReadTxn`] — an `Arc` clone pinning the value
//! published at some epoch — and keep using it for as long as they like;
//! nothing a writer does can change what a pinned snapshot sees. Writers
//! open a [`WriteTxn`], which pins the current value, and build the next
//! one off to the side — either by mutating a private working copy
//! ([`WriteTxn::value_mut`], cloned on first use) or by deriving a fresh
//! value from the pinned one ([`WriteTxn::base`] → [`WriteTxn::replace`],
//! no clone at all) — and either [`WriteTxn::commit`] — publishing it
//! atomically under the next epoch — or drop the transaction, which
//! discards it and leaves the published value untouched. There is no
//! partially-updated intermediate state for anyone to observe, by
//! construction.
//!
//! The concurrency contract:
//!
//! * **Readers never block on writers.** Opening a read transaction takes
//!   the publish lock only long enough to clone an `Arc` — never while a
//!   writer is building (writers build outside that lock and re-take it
//!   only for the pointer swap).
//! * **Writers serialise.** A second `write()` blocks until the first
//!   transaction commits or drops, so epochs advance one at a time and a
//!   committed epoch `e+1` is always derived from epoch `e`.
//! * **Failure is a no-op.** Any error path that drops the transaction
//!   without committing leaves the current epoch — value and counter —
//!   exactly as it was.
//!
//! Epochs are monotone (`u64`, starting at 0) and stamp every published
//! value, so caches can compare "the epoch I filled at" against "the
//! epoch the backend answers from" ([`SimilaritySearch::epoch`]) and
//! invalidate exactly when data actually changed.
//!
//! [`SimilaritySearch::epoch`]: crate::SimilaritySearch::epoch

use std::fmt;
use std::ops::Deref;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Monotone version counter of a [`Versioned`] cell. Epoch 0 is the
/// initially-published value; every committed write transaction bumps it
/// by one.
pub type Epoch = u64;

/// An immutable value stamped with the epoch it was published under.
#[derive(Debug)]
struct Pinned<T> {
    epoch: Epoch,
    value: T,
}

/// A snapshot-versioned cell: one published `(epoch, value)` pair, read
/// without blocking, replaced atomically by serialized writers — the
/// full read/write/rollback contract is documented on [`Versioned::read`]
/// and [`Versioned::write`].
pub struct Versioned<T> {
    /// The currently-published snapshot. Held only momentarily — by
    /// readers to clone the `Arc`, by committing writers to swap it.
    current: Mutex<Arc<Pinned<T>>>,
    /// Writer serialisation: held for a write transaction's whole
    /// lifetime, so at most one next-epoch build is in flight.
    writer: Mutex<()>,
}

/// Recover the guard from a poisoned mutex. The cell's invariant — the
/// published `Arc` is always a complete, committed snapshot — holds even
/// if a panic unwound through a lock holder, because mutation never
/// happens in place: readers only clone, writers only swap in a fully
/// built value.
fn relock<G>(result: Result<G, PoisonError<G>>) -> G {
    result.unwrap_or_else(PoisonError::into_inner)
}

impl<T> Versioned<T> {
    /// Publish `value` as epoch 0.
    pub fn new(value: T) -> Self {
        Versioned {
            current: Mutex::new(Arc::new(Pinned { epoch: 0, value })),
            writer: Mutex::new(()),
        }
    }

    /// Open a read transaction pinning the currently-published epoch.
    /// Never blocks on an in-progress write (only on another reader's or
    /// committer's momentary `Arc` clone/swap).
    pub fn read(&self) -> ReadTxn<T> {
        let guard = relock(self.current.lock());
        ReadTxn {
            pinned: Arc::clone(&guard),
        }
    }

    /// The currently-published epoch.
    pub fn epoch(&self) -> Epoch {
        relock(self.current.lock()).epoch
    }
}

impl<T: Clone> Versioned<T> {
    /// Open a write transaction: blocks until any in-flight writer
    /// finishes, then pins the current value. Nothing is copied until
    /// [`WriteTxn::value_mut`] asks for a working copy; a writer that
    /// builds the next value from [`WriteTxn::base`] and hands it to
    /// [`WriteTxn::replace`] never copies at all. [`WriteTxn::commit`]
    /// publishes — or drop to roll back.
    pub fn write(&self) -> WriteTxn<'_, T> {
        let guard = relock(self.writer.lock());
        WriteTxn {
            cell: self,
            _writer: guard,
            base: self.read(),
            working: None,
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for Versioned<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pinned = relock(self.current.lock());
        f.debug_struct("Versioned")
            .field("epoch", &pinned.epoch)
            .field("value", &pinned.value)
            .finish()
    }
}

/// A read transaction: an owned pin on one published snapshot. Clones
/// share the pin; the snapshot stays alive (and immutable) for as long
/// as any pin does, regardless of how many epochs are published after.
pub struct ReadTxn<T> {
    pinned: Arc<Pinned<T>>,
}

impl<T> ReadTxn<T> {
    /// The epoch this transaction pinned.
    pub fn epoch(&self) -> Epoch {
        self.pinned.epoch
    }
}

impl<T> Clone for ReadTxn<T> {
    fn clone(&self) -> Self {
        ReadTxn {
            pinned: Arc::clone(&self.pinned),
        }
    }
}

impl<T> Deref for ReadTxn<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.pinned.value
    }
}

impl<T: fmt::Debug> fmt::Debug for ReadTxn<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ReadTxn")
            .field("epoch", &self.pinned.epoch)
            .field("value", &self.pinned.value)
            .finish()
    }
}

/// A write transaction: the exclusive right to build the cell's next
/// value aside from the published one. Published only by
/// [`commit`](WriteTxn::commit); dropping the transaction first discards
/// every change.
pub struct WriteTxn<'a, T> {
    cell: &'a Versioned<T>,
    _writer: MutexGuard<'a, ()>,
    /// The published value this transaction derives from.
    base: ReadTxn<T>,
    /// The next value, once the writer has started one.
    working: Option<T>,
}

impl<T> WriteTxn<'_, T> {
    /// The epoch this transaction derives from (the commit will publish
    /// `base_epoch() + 1`).
    pub fn base_epoch(&self) -> Epoch {
        self.base.epoch()
    }

    /// The published value this transaction derives from — what every
    /// reader sees until the commit. Checks that can reject the write
    /// belong here, before any copy exists.
    pub fn base(&self) -> &T {
        &self.base
    }

    /// The value a commit would publish: the working copy once one
    /// exists, the pinned published value until then.
    pub fn value(&self) -> &T {
        self.working.as_ref().unwrap_or(&self.base)
    }

    /// Make `value` — built aside from [`base`](WriteTxn::base) — the
    /// one a commit publishes, without ever cloning the published value.
    pub fn replace(&mut self, value: T) {
        self.working = Some(value);
    }
}

impl<T: Clone> WriteTxn<'_, T> {
    /// The working copy, mutable — cloned from the published value on
    /// first use. Changes are invisible to readers until
    /// [`commit`](WriteTxn::commit).
    pub fn value_mut(&mut self) -> &mut T {
        self.working
            .get_or_insert_with(|| self.base.deref().clone())
    }

    /// Publish the working copy atomically as the next epoch and return
    /// that epoch. Readers that already hold a [`ReadTxn`] keep their
    /// pinned snapshot; new reads see the committed value.
    pub fn commit(self) -> Epoch {
        let epoch = self.base.epoch() + 1;
        let value = self.working.unwrap_or_else(|| self.base.deref().clone());
        *relock(self.cell.current.lock()) = Arc::new(Pinned { epoch, value });
        epoch
    }
}

impl<T: fmt::Debug> fmt::Debug for WriteTxn<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WriteTxn")
            .field("base_epoch", &self.base.epoch())
            .field("working", &self.working)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commit_publishes_the_next_epoch() {
        let cell = Versioned::new(vec![1, 2]);
        assert_eq!(cell.epoch(), 0);
        let mut txn = cell.write();
        assert_eq!(txn.base_epoch(), 0);
        txn.value_mut().push(3);
        // Readers opened mid-transaction still see epoch 0.
        let pinned = cell.read();
        assert_eq!((pinned.epoch(), pinned.len()), (0, 2));
        assert_eq!(txn.commit(), 1);
        assert_eq!(cell.epoch(), 1);
        assert_eq!(*cell.read(), vec![1, 2, 3]);
        // The pre-commit pin is unaffected by the publish.
        assert_eq!(*pinned, vec![1, 2]);
    }

    #[test]
    fn dropping_a_write_txn_rolls_back() {
        let cell = Versioned::new(String::from("stable"));
        {
            let mut txn = cell.write();
            txn.value_mut().push_str("-scratch");
            assert_eq!(txn.value(), "stable-scratch");
        }
        assert_eq!(cell.epoch(), 0);
        assert_eq!(*cell.read(), "stable");
        // The writer lock was released: a fresh transaction can commit.
        let mut txn = cell.write();
        txn.value_mut().push_str("-v1");
        txn.commit();
        assert_eq!((cell.epoch(), cell.read().as_str()), (1, "stable-v1"));
    }

    #[test]
    fn a_replaced_value_is_published_without_cloning_the_base() {
        /// Counts how often the published value was cloned.
        struct Counted(Arc<std::sync::atomic::AtomicUsize>, u32);
        impl Clone for Counted {
            fn clone(&self) -> Self {
                self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                Counted(Arc::clone(&self.0), self.1)
            }
        }
        let clones = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let cell = Versioned::new(Counted(Arc::clone(&clones), 1));
        let mut txn = cell.write();
        assert_eq!((txn.base().1, txn.value().1), (1, 1));
        let next = Counted(Arc::clone(&clones), txn.base().1 + 1);
        txn.replace(next);
        assert_eq!(
            txn.value().1,
            2,
            "value() shows what a commit would publish"
        );
        assert_eq!(txn.commit(), 1);
        assert_eq!(cell.read().1, 2);
        assert_eq!(clones.load(std::sync::atomic::Ordering::SeqCst), 0);
        // value_mut clones exactly once, on first use.
        let mut txn = cell.write();
        txn.value_mut().1 += 1;
        txn.value_mut().1 += 1;
        txn.commit();
        assert_eq!(cell.read().1, 4);
        assert_eq!(clones.load(std::sync::atomic::Ordering::SeqCst), 1);
    }

    #[test]
    fn reads_do_not_block_while_a_writer_builds() {
        let cell = Arc::new(Versioned::new(0u64));
        let txn = cell.write(); // writer "building" — holds the writer lock
        let cell2 = Arc::clone(&cell);
        // A reader on another thread must complete while the write
        // transaction is still open.
        let handle = std::thread::spawn(move || {
            let pin = cell2.read();
            (pin.epoch(), *pin)
        });
        assert_eq!(handle.join().unwrap(), (0, 0));
        drop(txn);
    }

    #[test]
    fn writers_serialise_and_epochs_stay_monotone() {
        let cell = Arc::new(Versioned::new(0u64));
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..25 {
                        let mut txn = cell.write();
                        *txn.value_mut() += 1;
                        txn.commit();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // No lost updates: every commit derived from the previous epoch.
        let pin = cell.read();
        assert_eq!((pin.epoch(), *pin), (100, 100));
    }

    #[test]
    fn pins_keep_old_epochs_alive_across_many_publishes() {
        let cell = Versioned::new(0usize);
        let pins: Vec<ReadTxn<usize>> = (0..5)
            .map(|i| {
                let pin = cell.read();
                let mut txn = cell.write();
                *txn.value_mut() = i + 1;
                txn.commit();
                pin
            })
            .collect();
        for (i, pin) in pins.iter().enumerate() {
            assert_eq!((pin.epoch(), **pin), (i as Epoch, i));
        }
        assert_eq!(cell.epoch(), 5);
    }

    #[test]
    fn debug_impls_render_the_epoch() {
        let cell = Versioned::new(7u8);
        assert!(format!("{cell:?}").contains("epoch: 0"));
        assert!(format!("{:?}", cell.read()).contains("epoch: 0"));
        assert!(format!("{:?}", cell.write()).contains("base_epoch: 0"));
    }
}
