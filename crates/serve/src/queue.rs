//! Shared scheduling primitives: the priority/FIFO heap entry behind the
//! daemon's job queue, plus a blocking work queue built on it.
//!
//! The daemon's [`Scheduler`](crate::Scheduler) keeps its whole state —
//! heap, job table, dedup index, quotas — under one mutex, so it embeds
//! [`QueueEntry`] in its own heap. Batch drivers with no shared mutable
//! state beyond the queue itself (the sweep orchestrator's worker pool)
//! use [`WorkQueue`] directly: push every unit of work, [`close`], and
//! let workers drain it to exhaustion.
//!
//! [`close`]: WorkQueue::close

use std::collections::BinaryHeap;
use std::sync::{Condvar, Mutex};

use crate::unpoisoned;

/// Max-heap entry: highest priority first, FIFO within a priority.
#[derive(Debug, PartialEq, Eq)]
pub struct QueueEntry<T: Eq> {
    /// Scheduling priority; higher runs earlier.
    pub priority: i64,
    /// Monotone submission sequence; ties within a priority break FIFO.
    pub seq: u64,
    /// The queued payload.
    pub item: T,
}

impl<T: Eq> Ord for QueueEntry<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<T: Eq> PartialOrd for QueueEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug)]
struct State<T: Eq> {
    heap: BinaryHeap<QueueEntry<T>>,
    next_seq: u64,
    closed: bool,
}

/// A blocking multi-producer / multi-consumer priority queue.
///
/// [`WorkQueue::pop`] blocks while the queue is open and empty; after
/// [`WorkQueue::close`] it drains the remaining entries and then returns
/// `None`, so a fixed worker pool terminates exactly when the work runs
/// out.
#[derive(Debug)]
pub struct WorkQueue<T: Eq> {
    state: Mutex<State<T>>,
    work: Condvar,
}

impl<T: Eq> Default for WorkQueue<T> {
    fn default() -> Self {
        WorkQueue::new()
    }
}

impl<T: Eq> WorkQueue<T> {
    /// An empty, open queue.
    #[must_use]
    pub fn new() -> Self {
        WorkQueue {
            state: Mutex::new(State {
                heap: BinaryHeap::new(),
                next_seq: 0,
                closed: false,
            }),
            work: Condvar::new(),
        }
    }

    /// Enqueues `item` at `priority`. Returns `false` (dropping the
    /// item) if the queue is closed.
    pub fn push(&self, priority: i64, item: T) -> bool {
        let mut state = unpoisoned(self.state.lock());
        if state.closed {
            return false;
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        state.heap.push(QueueEntry {
            priority,
            seq,
            item,
        });
        drop(state);
        self.work.notify_one();
        true
    }

    /// Blocks for the next item. `None` means the queue is closed and
    /// fully drained — the worker should exit.
    pub fn pop(&self) -> Option<T> {
        let mut state = unpoisoned(self.state.lock());
        loop {
            if let Some(entry) = state.heap.pop() {
                return Some(entry.item);
            }
            if state.closed {
                return None;
            }
            state = unpoisoned(self.work.wait(state));
        }
    }

    /// Stops accepting pushes and wakes every blocked [`WorkQueue::pop`];
    /// already-queued items still drain.
    pub fn close(&self) {
        unpoisoned(self.state.lock()).closed = true;
        self.work.notify_all();
    }

    /// Entries currently queued (racy by nature; for stats only).
    #[must_use]
    pub fn len(&self) -> usize {
        unpoisoned(self.state.lock()).heap.len()
    }

    /// Whether no entries are queued right now.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn entries_order_by_priority_then_fifo() {
        let mut heap = BinaryHeap::new();
        for (priority, seq, item) in [(0, 0, 'a'), (5, 1, 'b'), (0, 2, 'c'), (5, 3, 'd')] {
            heap.push(QueueEntry {
                priority,
                seq,
                item,
            });
        }
        let order: Vec<char> = std::iter::from_fn(|| heap.pop().map(|e| e.item)).collect();
        assert_eq!(order, ['b', 'd', 'a', 'c']);
    }

    #[test]
    fn work_queue_drains_in_priority_order_single_worker() {
        let q = WorkQueue::new();
        assert!(q.push(1, "low"));
        assert!(q.push(9, "high"));
        assert!(q.push(1, "low2"));
        q.close();
        assert!(!q.push(3, "late"));
        assert_eq!(q.pop(), Some("high"));
        assert_eq!(q.pop(), Some("low"));
        assert_eq!(q.pop(), Some("low2"));
        assert_eq!(q.pop(), None);
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn workers_drain_everything_exactly_once_then_exit() {
        let q = Arc::new(WorkQueue::new());
        for i in 0..100u64 {
            q.push(0, i);
        }
        q.close();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(i) = q.pop() {
                    got.push(i);
                }
                got
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn close_wakes_blocked_workers() {
        let q: Arc<WorkQueue<u64>> = Arc::new(WorkQueue::new());
        let waiter = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        // Give the waiter a moment to block, then close.
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(waiter.join().unwrap(), None);
    }
}
