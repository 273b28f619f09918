//! The lock-free building blocks under the ingest layer: a fixed-capacity
//! single-producer / single-consumer ring of batch slots, and an
//! eventcount-style doorbell for parking and waking threads without a
//! shared hot-path lock.
//!
//! Both types are `pub(crate)` plumbing: the public surface is
//! [`IngestQueue`](crate::IngestQueue) / [`IngestProducer`](crate::IngestProducer).
//!
//! ## How the ingest layer arranges rings
//!
//! Each producer owns one **lane** per shard: the producer routes each
//! pair once at send time, pushes each shard's slice into that shard's
//! lane, and the shard's drain worker pops its own lanes directly — no
//! dispatcher copy. The SPSC discipline holds per lane: the producer
//! handle is the only pusher, and within a burst exactly one consumer
//! pops a given lane ([`SpscRing::pop_if`] bounds it to a consistent
//! cut of fully-published sequence numbers). Memory footprint is
//! `producers × shards` rings of `ring_batches` slots each — size
//! `ring_batches` down (it bounds *per-lane* burst depth, not aggregate
//! throughput) when producer or shard counts are large.
//!
//! ## Why `Mutex<Option<T>>` slots in a "lock-free" ring
//!
//! The crate forbids `unsafe`, so slots cannot be `UnsafeCell`s. Instead
//! each slot is a `Mutex<Option<T>>` that is **uncontended by protocol**:
//! the producer only locks the slot at `tail & mask` *before* publishing
//! `tail`, and the consumer only locks the slot at `head & mask` *after*
//! observing `tail` past it, so at most one thread ever touches a given
//! slot's mutex at a time and every `lock()` is a single uncontended CAS.
//! The coordination proper rides the atomic `head`/`tail` words, each on
//! its own cache line so producer and consumer never false-share.
//!
//! ## Memory ordering
//!
//! `head`/`tail` use `SeqCst` throughout. The ring moves whole batches
//! (thousands of coalesced pairs), so one sequentially-consistent store
//! per batch is noise — and the doorbell protocol needs store→load
//! ordering between "publish tail" and "read waiters" (a Dekker-style
//! pattern that `Release`/`Acquire` alone does not give).

use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Condvar, Mutex};

/// Pads (and aligns) a value to a 64-byte cache line so the producer-side
/// and consumer-side counters of a ring never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct CachePadded<T>(pub(crate) T);

/// A bounded single-producer / single-consumer ring of `T` slots with a
/// power-of-two capacity.
///
/// The *discipline* is the caller's: at most one thread may call
/// [`SpscRing::push`] concurrently, and at most one thread may call
/// [`SpscRing::pop`] concurrently (the ingest drains give each lane one
/// consumer per burst, and each producer handle owns its lanes' push
/// side exclusively). Violating the discipline cannot corrupt
/// memory — the slots are mutexes — but can stall a push or pop.
#[derive(Debug)]
pub(crate) struct SpscRing<T> {
    slots: Box<[Mutex<Option<T>>]>,
    mask: u64,
    /// Next slot to pop (consumer-owned, producer-read).
    head: CachePadded<AtomicU64>,
    /// Next slot to push (producer-owned, consumer-read).
    tail: CachePadded<AtomicU64>,
}

impl<T> SpscRing<T> {
    /// Creates a ring with at least `capacity` slots (rounded up to the
    /// next power of two so index masking is one AND).
    pub(crate) fn new(capacity: usize) -> Self {
        let cap = capacity.max(1).next_power_of_two();
        Self {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            mask: cap as u64 - 1,
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
        }
    }

    /// The slot count (a power of two).
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots at this instant.
    pub(crate) fn len(&self) -> usize {
        let tail = self.tail.0.load(SeqCst);
        let head = self.head.0.load(SeqCst);
        tail.wrapping_sub(head) as usize
    }

    /// True when nothing is queued at this instant.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when a push at this instant would be refused.
    pub(crate) fn is_full(&self) -> bool {
        self.len() >= self.slots.len()
    }

    /// Producer side: appends `value`, or returns it when the ring is
    /// full. Never blocks (the slot mutex is uncontended by protocol).
    pub(crate) fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(SeqCst);
        let head = self.head.0.load(SeqCst);
        if tail.wrapping_sub(head) >= self.slots.len() as u64 {
            return Err(value);
        }
        let slot = &self.slots[(tail & self.mask) as usize];
        let mut guard = slot.lock().expect("ring slot lock");
        debug_assert!(guard.is_none(), "slot reused before consumption");
        *guard = Some(value);
        drop(guard);
        // Publishing tail makes the slot poppable; SeqCst so the
        // doorbell's waiter check (a later load in program order) cannot
        // be reordered ahead of it.
        self.tail.0.store(tail.wrapping_add(1), SeqCst);
        Ok(())
    }

    /// Consumer side: removes the oldest value, or `None` when the ring
    /// is empty at this instant. Never blocks.
    #[cfg(test)]
    pub(crate) fn pop(&self) -> Option<T> {
        self.pop_if(|_| true)
    }

    /// Consumer side: removes the oldest value only when `eligible`
    /// accepts it; returns `None` (leaving the value queued) otherwise.
    /// The ingest drains use this to stop a lane sweep at their burst's
    /// consistent cut — published-but-uncommitted batches stay put.
    pub(crate) fn pop_if(&self, eligible: impl FnOnce(&T) -> bool) -> Option<T> {
        let head = self.head.0.load(SeqCst);
        let tail = self.tail.0.load(SeqCst);
        if head == tail {
            return None;
        }
        let slot = &self.slots[(head & self.mask) as usize];
        let mut guard = slot.lock().expect("ring slot lock");
        let passes = {
            let value = guard.as_ref().expect("published slot was empty");
            eligible(value)
        };
        if !passes {
            return None;
        }
        let value = guard.take();
        drop(guard);
        self.head.0.store(head.wrapping_add(1), SeqCst);
        value
    }
}

/// An eventcount-style doorbell: waiters park on a condvar, but notifiers
/// pay nothing (one atomic load) while nobody is waiting — unlike a bare
/// `Condvar`, which costs a mutex round trip on every notify.
///
/// The missed-wakeup race is closed Dekker-style: a waiter registers in
/// `waiters` (a `SeqCst` RMW) *before* re-checking its predicate, and a
/// notifier publishes its state change (`SeqCst` store) *before* loading
/// `waiters`; sequential consistency guarantees at least one side sees
/// the other, and the generation lock + condvar close the remaining
/// check-to-sleep window.
#[derive(Debug, Default)]
pub(crate) struct Doorbell {
    /// Threads registered for (or inside) a wait.
    waiters: AtomicU64,
    /// Wakeup generation counter; bumped under the lock by every notify
    /// that found waiters.
    generation: Mutex<u64>,
    bell: Condvar,
}

impl Doorbell {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Wakes every current waiter. Costs one atomic load when nobody
    /// waits — the common case on the hot push/pop path.
    pub(crate) fn notify(&self) {
        if self.waiters.load(SeqCst) == 0 {
            return;
        }
        let mut generation = self.generation.lock().expect("doorbell lock");
        *generation = generation.wrapping_add(1);
        drop(generation);
        self.bell.notify_all();
    }

    /// Parks until `ready()` returns true. `ready` is evaluated with the
    /// doorbell lock held, so it must not touch this doorbell; it may
    /// (and does, in the ingest layer) take other short-lived locks.
    pub(crate) fn wait(&self, mut ready: impl FnMut() -> bool) {
        self.waiters.fetch_add(1, SeqCst);
        let mut generation = self.generation.lock().expect("doorbell lock");
        while !ready() {
            generation = self.bell.wait(generation).expect("doorbell lock");
        }
        drop(generation);
        self.waiters.fetch_sub(1, SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn capacity_rounds_up_to_a_power_of_two() {
        assert_eq!(SpscRing::<u32>::new(1).capacity(), 1);
        assert_eq!(SpscRing::<u32>::new(3).capacity(), 4);
        assert_eq!(SpscRing::<u32>::new(64).capacity(), 64);
        assert_eq!(SpscRing::<u32>::new(65).capacity(), 128);
        assert_eq!(SpscRing::<u32>::new(0).capacity(), 1);
    }

    #[test]
    fn push_pop_is_fifo_and_bounded() {
        let ring = SpscRing::new(4);
        for i in 0..4 {
            assert!(ring.push(i).is_ok());
        }
        assert!(ring.is_full());
        assert_eq!(ring.push(99), Err(99), "full ring returns the value");
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert!(ring.is_empty());
        assert_eq!(ring.pop(), None);
        // Wrap-around: indices keep masking correctly past capacity.
        for round in 0..10u64 {
            assert!(ring.push(round).is_ok());
            assert_eq!(ring.pop(), Some(round));
        }
    }

    #[test]
    fn pop_if_stops_at_the_first_ineligible_value() {
        let ring = SpscRing::new(4);
        for i in 0..3 {
            assert!(ring.push(i).is_ok());
        }
        assert_eq!(ring.pop_if(|&v| v <= 1), Some(0));
        assert_eq!(ring.pop_if(|&v| v <= 1), Some(1));
        assert_eq!(ring.pop_if(|&v| v <= 1), None, "2 must stay queued");
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.pop(), Some(2), "ineligible value is untouched");
        assert_eq!(ring.pop_if(|_| true), None, "empty ring");
    }

    #[test]
    fn concurrent_spsc_traffic_preserves_order_and_loses_nothing() {
        let ring = SpscRing::new(8);
        let total = 100_000u64;
        thread::scope(|s| {
            s.spawn(|| {
                for i in 0..total {
                    let mut v = i;
                    loop {
                        match ring.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                // Yield the core: on a single-CPU host a
                                // spin hint would burn the whole quantum
                                // while the consumer waits to run.
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            });
            s.spawn(|| {
                let mut expected = 0u64;
                while expected < total {
                    if let Some(v) = ring.pop() {
                        assert_eq!(v, expected, "FIFO order violated");
                        expected += 1;
                    } else {
                        std::thread::yield_now();
                    }
                }
            });
        });
        assert!(ring.is_empty());
    }

    #[test]
    fn doorbell_wakes_a_parked_waiter() {
        let bell = Doorbell::new();
        let flag = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                bell.wait(|| flag.load(SeqCst));
                assert!(flag.load(SeqCst));
            });
            // Racing notify-before-wait and wait-before-notify are both
            // fine: the waiter re-checks under the lock.
            thread::sleep(std::time::Duration::from_millis(10));
            flag.store(true, SeqCst);
            bell.notify();
        });
    }

    #[test]
    fn notify_without_waiters_is_cheap_and_sound() {
        let bell = Doorbell::new();
        for _ in 0..1_000 {
            bell.notify(); // no waiter: must not deadlock or accumulate
        }
        let flag = AtomicBool::new(true);
        bell.wait(|| flag.load(SeqCst)); // already-true predicate returns
    }
}
