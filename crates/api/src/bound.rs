//! A query-global pruning bound shared across search workers.
//!
//! [`BestK`](crate::BestK) gives every scan a *local* k-th-best threshold,
//! but a fan-out query (one searcher per shard, or one pass per candidate
//! length) wants more: the moment any worker proves "the k-th best answer
//! is at most `b`", every other worker should prune against `b` too.
//! [`SharedBound`] is that channel — a lock-free, monotonically
//! *tightening* `f64` threshold built on a single atomic word.
//!
//! Soundness of sharing rests on one observation: if some worker holds
//! `k` candidates whose worst key is `b`, then the merged top-k over all
//! workers has a k-th best key ≤ `b` — so a candidate whose key
//! *exceeds* `b` can never enter the answer. Every exact prune test
//! drops only such candidates: one tied at `b` survives to its worker's
//! [`BestK`](crate::BestK) and on to the merge, which keeps the first `k`
//! under (key, payload). Publishing local k-th-best values therefore
//! changes no answer, ties included, however the workers interleave.
//!
//! A bound can also be **cancelled** ([`SharedBound::cancel`]): it drops
//! to `−∞`, below every key, so it prunes everything — ties at zero
//! included — and in-flight work finishes at its next reading. That is
//! how a query nobody waits for any more (a passed deadline, a losing
//! hedge, a peer that hung up) stops its workers.
//!
//! A bound can also be *watched*: [`SharedBound::subscribe`] registers a
//! listener that is called with every value that actually lowered the
//! bound. That is how the bound crosses processes — a network connection
//! subscribes and writes each lowering to its peer the moment it happens,
//! instead of polling [`SharedBound::get`] on a timer.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// What [`SharedBound::subscribe`] registers: called with each value that
/// lowered the bound.
pub type BoundListener = Arc<dyn Fn(f64) + Send + Sync>;

/// A lock-free, monotonically tightening pruning threshold.
///
/// Starts at `+∞` ("nothing can be ruled out") and only ever decreases:
/// [`SharedBound::tighten`] publishes a new upper bound on the k-th best
/// key, [`SharedBound::cancel`] drops it to `−∞`, and
/// [`SharedBound::get`] reads the tightest value published so far. Reads
/// use relaxed atomics — a stale read is merely a *looser* (still sound)
/// bound, so no ordering stronger than the monotone CAS is needed. Only a tighten that *won* looks at the subscriber count;
/// [`SharedBound::get`] and a losing tighten stay one relaxed load.
///
/// ```
/// use onex_api::SharedBound;
///
/// let bound = SharedBound::new();
/// assert!(bound.get().is_infinite());
/// bound.tighten(3.0);
/// bound.tighten(5.0); // looser: ignored
/// assert_eq!(bound.get(), 3.0);
/// bound.tighten(1.5);
/// assert_eq!(bound.get(), 1.5);
/// bound.cancel(); // prunes everything, a key of zero included
/// assert_eq!(bound.get(), f64::NEG_INFINITY);
/// ```
pub struct SharedBound {
    /// IEEE-754 bits of the current bound. Non-negative floats compare
    /// identically as floats and as sign-magnitude integers, but we CAS
    /// on the decoded `f64` anyway so the invariant is explicit.
    bits: AtomicU64,
    /// `listeners.len()`, readable without the lock: zero for every bound
    /// that never leaves its process, which keeps a winning tighten at
    /// one CAS plus one load.
    subscribed: AtomicUsize,
    /// `(subscription id, listener)`. Listeners run under this lock, so
    /// deliveries are serialised and none is in flight once
    /// [`Subscription`]'s drop returns.
    listeners: Mutex<Vec<(u64, BoundListener)>>,
}

/// A live [`SharedBound::subscribe`] registration; dropping it
/// unsubscribes. Once the drop returns the listener is never called
/// again — a delivery already running on another thread is waited for.
#[must_use = "dropping a Subscription unsubscribes at once"]
pub struct Subscription<'a> {
    bound: &'a SharedBound,
    id: u64,
}

impl SharedBound {
    /// A bound that rules nothing out yet (`+∞`).
    pub fn new() -> Self {
        Self::starting_at(f64::INFINITY)
    }

    fn starting_at(value: f64) -> Self {
        SharedBound {
            bits: AtomicU64::new(value.to_bits()),
            subscribed: AtomicUsize::new(0),
            listeners: Mutex::new(Vec::new()),
        }
    }

    /// The tightest value published so far (`+∞` until the first
    /// [`SharedBound::tighten`]).
    #[inline]
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Publish `value` as an upper bound on the k-th best key. Values
    /// looser than the current bound are ignored (the bound is monotone),
    /// as are NaN and finite negative values — a bound must stay a sound,
    /// non-negative threshold no matter what a worker feeds it. `−∞` is
    /// [`SharedBound::cancel`], so a relayed bound (a `Tighten` frame, a
    /// query's seed) cancels its copy. Returns the bound in effect after
    /// the call.
    pub fn tighten(&self, value: f64) -> f64 {
        if !Self::publishable(value) {
            return self.get();
        }
        let mut current = self.bits.load(Ordering::Relaxed);
        loop {
            if f64::from_bits(current) <= value {
                return f64::from_bits(current);
            }
            // SeqCst on success pairs with `subscribe`: of a lowering
            // and a subscription racing each other, either this thread
            // sees the subscriber or the subscriber's next `get` sees
            // this value — a lowering is never lost to both.
            match self.bits.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::SeqCst,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if self.subscribed.load(Ordering::SeqCst) != 0 {
                        self.notify(value);
                    }
                    return value;
                }
                Err(observed) => current = observed,
            }
        }
    }

    /// Whether [`SharedBound::tighten`] would act on `value`: any
    /// non-negative value or `−∞`, never NaN or a finite negative.
    pub fn publishable(value: f64) -> bool {
        value >= 0.0 || value == f64::NEG_INFINITY
    }

    /// Cancel the query this bound serves: drop the bound to `−∞`, below
    /// every key, so every prune test rejects every candidate (an exact
    /// tie at zero too) and in-flight work ends at its next reading.
    /// Listeners hear `−∞` like any lowering. Idempotent.
    pub fn cancel(&self) {
        self.tighten(f64::NEG_INFINITY);
    }

    #[cold]
    fn notify(&self, value: f64) {
        for (_, listener) in self.lock_listeners().iter() {
            listener(value);
        }
    }

    /// Call `listener` with every value that lowers the bound from now
    /// on, on the thread that lowered it, until the returned guard is
    /// dropped. Values published before the call are not replayed: read
    /// [`SharedBound::get`] after subscribing to catch up.
    ///
    /// Concurrent lowerings may be delivered out of order (each exactly
    /// once), so a listener that wants the running minimum keeps it. A
    /// listener must return promptly and must not tighten or subscribe
    /// to the bound it listens on — it runs under the subscriber lock.
    pub fn subscribe(&self, listener: BoundListener) -> Subscription<'_> {
        let mut listeners = self.lock_listeners();
        let id = listeners.last().map_or(0, |(id, _)| id + 1);
        listeners.push((id, listener));
        self.subscribed.store(listeners.len(), Ordering::SeqCst);
        drop(listeners);
        // Orders the caller's catch-up `get` (a relaxed load) after the
        // count store; see `tighten`.
        fence(Ordering::SeqCst);
        Subscription { bound: self, id }
    }

    /// A listener that panicked poisons nothing worth protecting: the
    /// list is only pushed to and removed from.
    fn lock_listeners(&self) -> MutexGuard<'_, Vec<(u64, BoundListener)>> {
        self.listeners.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Whether any worker has published a bound (or cancelled) yet.
    #[inline]
    pub fn is_tightened(&self) -> bool {
        self.get() < f64::INFINITY
    }
}

impl Default for SharedBound {
    fn default() -> Self {
        SharedBound::new()
    }
}

impl Clone for SharedBound {
    /// Cloning snapshots the current bound into an independent threshold
    /// with no subscribers (subsequent tightenings are not shared — share
    /// via `Arc` for that).
    fn clone(&self) -> Self {
        Self::starting_at(self.get())
    }
}

impl fmt::Debug for SharedBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SharedBound")
            .field("bound", &self.get())
            .field("subscribed", &self.subscribed.load(Ordering::Relaxed))
            .finish()
    }
}

impl Drop for Subscription<'_> {
    fn drop(&mut self) {
        let mut listeners = self.bound.lock_listeners();
        listeners.retain(|(id, _)| *id != self.id);
        self.bound
            .subscribed
            .store(listeners.len(), Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn starts_unbounded_and_only_tightens() {
        let b = SharedBound::new();
        assert!(b.get().is_infinite());
        assert!(!b.is_tightened());
        assert_eq!(b.tighten(4.0), 4.0);
        assert_eq!(b.tighten(7.0), 4.0, "loosening is ignored");
        assert_eq!(b.tighten(2.5), 2.5);
        assert_eq!(b.get(), 2.5);
        assert!(b.is_tightened());
    }

    #[test]
    fn rejects_nan_and_negative_values() {
        let b = SharedBound::new();
        b.tighten(3.0);
        assert_eq!(b.tighten(f64::NAN), 3.0);
        assert_eq!(b.tighten(-1.0), 3.0);
        assert_eq!(b.get(), 3.0);
        // Zero is a legal bound: it still keeps a key of exactly zero.
        assert_eq!(b.tighten(0.0), 0.0);
        assert_eq!(b.tighten(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn cancel_drops_below_every_key_and_is_heard() {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let b = SharedBound::new();
        let _subscription = {
            let heard = Arc::clone(&heard);
            b.subscribe(Arc::new(move |v| heard.lock().unwrap().push(v)))
        };
        b.tighten(0.0);
        b.cancel();
        b.cancel();
        assert_eq!(b.get(), f64::NEG_INFINITY);
        assert!(b.is_tightened());
        assert_eq!(b.tighten(0.0), f64::NEG_INFINITY, "nothing loosens it");
        assert_eq!(*heard.lock().unwrap(), [0.0, f64::NEG_INFINITY]);
        assert_eq!(b.clone().get(), f64::NEG_INFINITY);
    }

    #[test]
    fn clone_snapshots_without_sharing() {
        let a = SharedBound::new();
        a.tighten(5.0);
        let b = a.clone();
        assert_eq!(b.get(), 5.0);
        a.tighten(1.0);
        assert_eq!(b.get(), 5.0, "clones are independent");
    }

    #[test]
    fn subscribers_hear_each_lowering_once_and_nothing_else() {
        let heard = Arc::new(Mutex::new(Vec::new()));
        let listener: BoundListener = {
            let heard = Arc::clone(&heard);
            Arc::new(move |v| heard.lock().unwrap().push(v))
        };
        let b = SharedBound::new();
        b.tighten(9.0); // before the subscription: not replayed
        let subscription = b.subscribe(listener);
        for v in [7.0, 8.0, 7.0, f64::NAN, -1.0, f64::INFINITY, 2.5] {
            b.tighten(v);
        }
        assert_eq!(*heard.lock().unwrap(), [7.0, 2.5]);

        // A second subscriber does not double the first one's calls.
        let count = Arc::new(AtomicUsize::new(0));
        let other = {
            let count = Arc::clone(&count);
            b.subscribe(Arc::new(move |_| {
                count.fetch_add(1, Ordering::Relaxed);
            }))
        };
        b.tighten(2.0);
        assert_eq!(*heard.lock().unwrap(), [7.0, 2.5, 2.0]);
        assert_eq!(count.load(Ordering::Relaxed), 1);

        // Dropped: never called again; the other subscription still is.
        drop(subscription);
        b.tighten(1.0);
        assert_eq!(*heard.lock().unwrap(), [7.0, 2.5, 2.0]);
        assert_eq!(count.load(Ordering::Relaxed), 2);
        drop(other);
        b.tighten(0.5);
        assert_eq!(count.load(Ordering::Relaxed), 2);
        assert_eq!(b.subscribed.load(Ordering::Relaxed), 0);

        // A clone is a fresh threshold with nobody listening.
        let listened = SharedBound::new();
        let _subscription = listened.subscribe(Arc::new(|_| panic!("the clone was tightened")));
        listened.clone().tighten(0.25);
    }

    #[test]
    fn concurrent_lowerings_are_each_delivered_exactly_once() {
        let bound = Arc::new(SharedBound::new());
        let delivered = Arc::new(Mutex::new(Vec::new()));
        let subscription = {
            let delivered = Arc::clone(&delivered);
            bound.subscribe(Arc::new(move |v| delivered.lock().unwrap().push(v)))
        };
        let won: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4u64)
                .map(|t| {
                    let bound = &bound;
                    s.spawn(move || {
                        let mut won = Vec::new();
                        for i in (0..200u64).rev() {
                            let v = (i * 4 + t) as f64;
                            // `tighten` returns the bound in effect: it is
                            // `v` only for the call that installed `v`
                            // (every value here is offered once).
                            if bound.tighten(v) == v {
                                won.push(v);
                            }
                        }
                        won
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        drop(subscription);
        let mut won = won;
        let mut delivered = delivered.lock().unwrap().clone();
        won.sort_by(f64::total_cmp);
        delivered.sort_by(f64::total_cmp);
        assert_eq!(delivered, won);
        assert_eq!(bound.get(), 0.0);
    }

    #[test]
    fn concurrent_tightening_converges_to_the_minimum() {
        let bound = Arc::new(SharedBound::new());
        let handles: Vec<_> = (0..8u64)
            .map(|t| {
                let bound = Arc::clone(&bound);
                std::thread::spawn(move || {
                    // Each thread publishes a descending ramp; the global
                    // minimum across all threads is 1.0.
                    for i in (0..100u64).rev() {
                        bound.tighten(1.0 + (i * 8 + t) as f64);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(bound.get(), 1.0);
    }
}
