//! Priority-queue entries with total order and FIFO tie-breaking.

use std::cmp::Ordering;

/// A scheduler element: priority, insertion sequence number, payload.
///
/// Ordering compares `(priority, seq)` only — ties in priority resolve in
/// insertion order, which keeps exact schedulers deterministic even when
/// priorities collide (as they can in SSSP). The payload never participates
/// in comparisons, so `T` needs no `Ord` bound.
///
/// `seq` is the scheduler's claim counter taken modulo 2³², so an
/// `Entry<u32>` is 16 bytes. Ties are FIFO only among entries claimed
/// between two wraps of the counter: one claimed after a wrap sorts before
/// an earlier one of equal priority, and one claimed 2³² later has an equal
/// key. No scheduler needs keys to be unique — each hands out the entry it
/// removes, never one it finds by key (DESIGN.md "The run bucket" has the
/// argument per layer).
#[derive(Debug, Clone, Copy)]
pub struct Entry<T> {
    /// Scheduler priority; smaller is served first.
    pub priority: u64,
    /// Insertion sequence number, wrapping, used as a tie-break.
    pub seq: u32,
    /// The scheduled payload.
    pub item: T,
}

impl<T> Entry<T> {
    /// Creates an entry.
    pub fn new(priority: u64, seq: u32, item: T) -> Self {
        Entry { priority, seq, item }
    }

    /// The comparison key.
    #[inline]
    pub fn key(&self) -> (u64, u32) {
        (self.priority, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_priority_then_seq() {
        let a = Entry::new(1, 0, "a");
        let b = Entry::new(1, 1, "b");
        let c = Entry::new(0, 9, "c");
        assert!(c < a && a < b);
        assert_eq!(a, Entry::new(1, 0, "ignored"));
    }

    #[test]
    fn payload_needs_no_ord() {
        #[derive(Debug)]
        struct NoOrd;
        let x = Entry::new(3, 0, NoOrd);
        let y = Entry::new(2, 0, NoOrd);
        assert!(y < x);
    }
}
