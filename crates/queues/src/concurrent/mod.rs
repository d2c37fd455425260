//! Concurrent schedulers: the structures the paper's §4 experiments run on.
//!
//! The MultiQueue is implemented once, as [`MultiQueueCore`] over a
//! [`Bucket`]; three aliases pick the bucket:
//!
//! * [`MultiQueue`] — the lock-based MultiQueue of Rihani–Sanders–Dementiev
//!   \[21\]: `c·threads` sequential min-heaps behind try-locks ([`Locked`]
//!   over [`Heap`]), power-of-two-choices deletion.
//! * [`LockFreeMultiQueue`] — the paper's own variant ("we use lock-free
//!   lists to maintain the individual priority queues"): [`ListBucket`]s
//!   over [`HarrisList`] with pluggable reclamation (epoch-based by default,
//!   version-based via [`crate::reclaim::Vbr`]).
//! * [`BulkMultiQueue`] — [`Locked`] over [`Run`]: sorted runs consumed from
//!   the front plus small overflow [`Heap`]s, the cache-friendly `O(1)`-pop
//!   variant for the framework's prefilled workload (the performance
//!   analogue of the paper's list-based queues).
//!
//! Beside it, [`FaaArrayQueue`] is the exact scheduler baseline: a
//! prefilled priority-sorted array popped with one `fetch_add` per
//! operation, standing in for the wait-free queue of \[27\] (see DESIGN.md
//! substitution #2).

mod bulk_multiqueue;
mod faa_queue;
mod lf_list;
mod lf_multiqueue;
mod multiqueue;

pub use bulk_multiqueue::{BulkMultiQueue, Run};
pub use faa_queue::FaaArrayQueue;
pub use lf_list::HarrisList;
pub use lf_multiqueue::{ListBucket, LockFreeMultiQueue};
pub use multiqueue::{Bucket, BucketQueue, Heap, Locked, MultiQueue, MultiQueueCore};
