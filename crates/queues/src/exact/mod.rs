//! The exact (1-relaxed) sequential priority queue — Algorithm 1's `Q`.

mod binary_heap;

pub use binary_heap::BinaryHeapScheduler;
