//! The priority/FIFO heap entry behind the daemon's job queue.
//!
//! The daemon's [`Scheduler`](crate::Scheduler) keeps its whole state —
//! heap, job table, dedup index, quotas — under one mutex, so it embeds
//! [`QueueEntry`] in its own heap.

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

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

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
}
