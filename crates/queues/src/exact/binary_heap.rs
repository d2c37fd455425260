//! The exact baseline scheduler: `std::collections::BinaryHeap` behind the
//! [`PriorityScheduler`] interface.

use crate::{Entry, PriorityScheduler};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An exact min-priority scheduler with FIFO tie-breaking.
///
/// This is the `Q.GetMin()` of Algorithm 1: rank error is always 1, so the
/// framework performs exactly `n` iterations with it.
///
/// # Examples
///
/// ```
/// use rsched_queues::{PriorityScheduler, exact::BinaryHeapScheduler};
///
/// let mut q = BinaryHeapScheduler::new();
/// q.insert(2, "b");
/// q.insert(1, "a");
/// assert_eq!(q.pop(), Some((1, "a")));
/// assert_eq!(q.pop(), Some((2, "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BinaryHeapScheduler<T> {
    heap: BinaryHeap<Reverse<Entry<T>>>,
    /// The next tie-break, wrapping (`Entry` has the rule).
    seq: u32,
}

impl<T> BinaryHeapScheduler<T> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        BinaryHeapScheduler { heap: BinaryHeap::new(), seq: 0 }
    }

    /// Creates an empty scheduler with room for `capacity` elements.
    pub fn with_capacity(capacity: usize) -> Self {
        BinaryHeapScheduler { heap: BinaryHeap::with_capacity(capacity), seq: 0 }
    }

    /// The current minimum `(priority, &item)` without removing it.
    pub fn peek(&self) -> Option<(u64, &T)> {
        self.heap.peek().map(|Reverse(e)| (e.priority, &e.item))
    }
}

impl<T> PriorityScheduler<T> for BinaryHeapScheduler<T> {
    fn insert(&mut self, priority: u64, item: T) {
        let seq = self.seq;
        self.seq = seq.wrapping_add(1);
        self.heap.push(Reverse(Entry::new(priority, seq, item)));
    }

    fn pop(&mut self) -> Option<(u64, T)> {
        self.heap.pop().map(|Reverse(e)| (e.priority, e.item))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_priority_order() {
        let mut q = BinaryHeapScheduler::new();
        for p in [5u64, 1, 3, 2, 4] {
            q.insert(p, p);
        }
        let mut out = Vec::new();
        while let Some((p, _)) = q.pop() {
            out.push(p);
        }
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = BinaryHeapScheduler::new();
        q.insert(7, "first");
        q.insert(7, "second");
        q.insert(7, "third");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.pop().unwrap().1, "third");
    }

    #[test]
    fn len_and_peek() {
        let mut q = BinaryHeapScheduler::with_capacity(4);
        assert!(q.is_empty());
        q.insert(9, 'x');
        q.insert(4, 'y');
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek(), Some((4, &'y')));
        assert_eq!(q.len(), 2); // peek does not remove
    }

    #[test]
    fn interleaved_insert_pop() {
        let mut q = BinaryHeapScheduler::new();
        q.insert(10, 10);
        q.insert(1, 1);
        assert_eq!(q.pop(), Some((1, 1)));
        q.insert(5, 5);
        assert_eq!(q.pop(), Some((5, 5)));
        assert_eq!(q.pop(), Some((10, 10)));
    }
}
