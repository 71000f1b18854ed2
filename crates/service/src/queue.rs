//! A bounded multi-producer/multi-consumer work queue built on `Mutex` +
//! `Condvar` (no external deps).
//!
//! The engine's one front feeds its worker pool through one of these.
//! Three admission disciplines are offered, from politest to most
//! impatient:
//!
//! - [`BoundedQueue::push`] blocks until a slot frees (classic
//!   backpressure; a huge manifest never balloons resident memory);
//! - [`BoundedQueue::push_timeout`] blocks for at most a bounded wait and
//!   then reports `Full` — the building block of shed-instead-of-stall
//!   admission control;
//! - [`BoundedQueue::try_push`] never blocks at all.
//!
//! The high-water mark is updated inside the same critical section as the
//! insert on every admission path, so `max_depth()` can never observe a
//! depth that a concurrent push has not yet booked (the pre-shard code
//! read the depth racily around the condvar wait).
//!
//! Workers take items with the blocking [`BoundedQueue::pop`]; the
//! deadline sweeper and the drain-timeout shed use
//! [`BoundedQueue::drain_matching`] to evict queued requests without
//! letting them reach a worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Duration;

/// Why a non-blocking or bounded-wait push did not enqueue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushError {
    /// The queue was at capacity for the whole admission window.
    Full,
    /// The queue was closed; it will never accept again.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
    /// High-water mark of the queue depth, for the service metrics.
    /// Updated under the same lock as every insert.
    max_depth: usize,
}

/// A bounded FIFO shared between one or more producers and a worker pool.
pub struct BoundedQueue<T> {
    state: Mutex<QueueState<T>>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> BoundedQueue<T> {
        BoundedQueue {
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
                max_depth: 0,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// The queue's capacity (the backpressure bound).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, QueueState<T>> {
        // A worker that panicked while holding the lock cannot corrupt the
        // VecDeque invariants we rely on; keep serving.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Books an insert: item in, high-water updated, consumers woken. Must
    /// run with the state lock held (it consumes the guard).
    fn insert(&self, mut st: std::sync::MutexGuard<'_, QueueState<T>>, item: T) {
        st.items.push_back(item);
        st.max_depth = st.max_depth.max(st.items.len());
        drop(st);
        self.not_empty.notify_one();
    }

    /// Enqueues `item`, blocking while the queue is full (backpressure).
    /// Returns `false` when the queue was closed instead of accepting.
    pub fn push(&self, item: T) -> bool {
        let mut st = self.lock();
        while st.items.len() >= self.capacity && !st.closed {
            st = self
                .not_full
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
        if st.closed {
            return false;
        }
        self.insert(st, item);
        true
    }

    /// Enqueues `item` only if a slot is free right now. Never blocks;
    /// hands the item back on failure so the caller can shed it with a
    /// structured response instead of dropping it.
    ///
    /// # Errors
    ///
    /// `Full` when at capacity, `Closed` when closed (item returned
    /// through [`PushError`]'s accompanying tuple).
    pub fn try_push(&self, item: T) -> Result<(), (T, PushError)> {
        let st = self.lock();
        if st.closed {
            return Err((item, PushError::Closed));
        }
        if st.items.len() >= self.capacity {
            return Err((item, PushError::Full));
        }
        self.insert(st, item);
        Ok(())
    }

    /// Enqueues `item`, waiting at most `wait` for a slot — the
    /// bounded-wait admission discipline. On timeout the item comes back
    /// with `Full` so the caller sheds it instead of stalling forever.
    ///
    /// # Errors
    ///
    /// `Full` when no slot freed within `wait`, `Closed` when closed.
    pub fn push_timeout(&self, item: T, wait: Duration) -> Result<(), (T, PushError)> {
        let deadline = std::time::Instant::now() + wait;
        let mut st = self.lock();
        loop {
            if st.closed {
                return Err((item, PushError::Closed));
            }
            if st.items.len() < self.capacity {
                self.insert(st, item);
                return Ok(());
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return Err((item, PushError::Full));
            }
            let (guard, _timeout) = self
                .not_full
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(|p| p.into_inner());
            st = guard;
        }
    }

    /// Dequeues the next item, blocking while the queue is empty. Returns
    /// `None` once the queue is closed *and* drained — the worker's exit
    /// signal.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.lock();
        loop {
            if let Some(item) = st.items.pop_front() {
                drop(st);
                self.not_full.notify_one();
                return Some(item);
            }
            if st.closed {
                return None;
            }
            st = self
                .not_empty
                .wait(st)
                .unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Removes and returns every queued item matching `pred`, preserving
    /// the relative order of survivors — the deadline sweeper's primitive
    /// (expired requests leave the queue without reaching a worker).
    pub fn drain_matching(&self, mut pred: impl FnMut(&T) -> bool) -> Vec<T> {
        let mut st = self.lock();
        let mut kept = VecDeque::with_capacity(st.items.len());
        let mut drained = Vec::new();
        for item in st.items.drain(..) {
            if pred(&item) {
                drained.push(item);
            } else {
                kept.push_back(item);
            }
        }
        st.items = kept;
        drop(st);
        if !drained.is_empty() {
            // Freed slots: unblock producers parked in push/push_timeout.
            self.not_full.notify_all();
        }
        drained
    }

    /// Closes the queue: producers are refused from now on; consumers
    /// drain the remaining items and then see `None`.
    pub fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Number of items currently queued (racy by nature — a routing hint,
    /// not a synchronization primitive).
    pub fn depth(&self) -> usize {
        self.lock().items.len()
    }

    /// The deepest the queue ever got — the backpressure observability
    /// counter (`service_queue_max_depth`).
    pub fn max_depth(&self) -> usize {
        self.lock().max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_order_and_close_semantics() {
        let q = BoundedQueue::new(8);
        assert!(q.push(1));
        assert!(q.push(2));
        q.close();
        assert!(!q.push(3), "closed queue refuses producers");
        assert_eq!(q.try_push(4), Err((4, PushError::Closed)));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
        assert_eq!(q.max_depth(), 2);
    }

    #[test]
    fn try_push_sheds_instead_of_blocking() {
        let q = BoundedQueue::new(2);
        assert_eq!(q.try_push(1), Ok(()));
        assert_eq!(q.try_push(2), Ok(()));
        // Full: the item comes back immediately, no blocking.
        assert_eq!(q.try_push(3), Err((3, PushError::Full)));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.try_push(3), Ok(()));
        assert_eq!(q.max_depth(), 2, "high-water tracked on try_push too");
    }

    #[test]
    fn push_timeout_waits_then_reports_full() {
        let q = BoundedQueue::new(1);
        assert!(q.push(0));
        let started = std::time::Instant::now();
        let err = q
            .push_timeout(1, Duration::from_millis(30))
            .expect_err("queue is full");
        assert_eq!(err, (1, PushError::Full));
        assert!(
            started.elapsed() >= Duration::from_millis(25),
            "bounded wait actually waited"
        );
        // A freed slot within the window admits the item.
        let q = Arc::new(BoundedQueue::new(1));
        assert!(q.push(0));
        let popper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                q.pop()
            })
        };
        assert_eq!(q.push_timeout(1, Duration::from_secs(5)), Ok(()));
        assert_eq!(popper.join().unwrap(), Some(0));
    }

    #[test]
    fn drain_matching_evicts_in_place_and_keeps_order() {
        let q = BoundedQueue::new(8);
        for i in 0..6 {
            assert!(q.push(i));
        }
        let evens = q.drain_matching(|v| v % 2 == 0);
        assert_eq!(evens, vec![0, 2, 4]);
        assert_eq!(q.depth(), 3);
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(5));
    }

    #[test]
    fn drain_unblocks_a_parked_producer() {
        let q = Arc::new(BoundedQueue::new(1));
        assert!(q.push(0));
        let sweeper = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(10));
                q.drain_matching(|_| true)
            })
        };
        // Blocks until the sweeper frees the slot.
        assert!(q.push(1));
        assert_eq!(sweeper.join().unwrap(), vec![0]);
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn capacity_bounds_depth_under_backpressure() {
        let q = Arc::new(BoundedQueue::new(2));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    // Let the producer race ahead into the bound.
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    got.push(v);
                }
                got
            })
        };
        for i in 0..32 {
            assert!(q.push(i));
        }
        q.close();
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..32).collect::<Vec<_>>());
        assert!(
            q.max_depth() <= 2,
            "producer overran the bound: depth {}",
            q.max_depth()
        );
    }

    #[test]
    fn multiple_workers_drain_everything_exactly_once() {
        let q = Arc::new(BoundedQueue::new(4));
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = Vec::new();
                    while let Some(v) = q.pop() {
                        got.push(v);
                    }
                    got
                })
            })
            .collect();
        for i in 0..100 {
            assert!(q.push(i));
        }
        q.close();
        let mut all: Vec<i32> = workers
            .into_iter()
            .flat_map(|w| w.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
    }
}
