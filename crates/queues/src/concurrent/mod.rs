//! Concurrent schedulers: the structures the paper's §4 experiments run on.
//!
//! The MultiQueue is implemented once, as [`MultiQueueCore`] over a
//! [`Bucket`]; two aliases pick the bucket:
//!
//! * [`MultiQueue`] — the lock-based MultiQueue of Rihani–Sanders–Dementiev
//!   \[21\]: `c·threads` sequential queues behind try-locks ([`Locked`]),
//!   power-of-two-choices deletion. Each bucket pops its share of a bulk
//!   load as a sorted run consumed from the front — `O(1)` per pop, the
//!   performance analogue of the paper's list-based queues — and buffers
//!   everything inserted later in a small in-cache heap, sorted when full
//!   into runs of slab blocks that pop sequentially.
//! * [`LockFreeMultiQueue`] — the paper's own variant ("we use lock-free
//!   lists to maintain the individual priority queues"): [`ListBucket`]s
//!   over [`HarrisList`] with pluggable reclamation (epoch-based by default,
//!   version-based via [`crate::reclaim::Vbr`]).
//!
//! §4's exact baseline lives in `rsched_core`: `run_exact_concurrent` runs
//! the worker engine over a fetch-and-add cursor through the permutation,
//! standing in for the wait-free queue of \[27\] (see DESIGN.md
//! substitution #2).

mod lf_list;
mod lf_multiqueue;
mod multiqueue;

pub use lf_list::HarrisList;
pub use lf_multiqueue::{ListBucket, LockFreeMultiQueue};
pub use multiqueue::{Bucket, Locked, MultiQueue, MultiQueueCore};

/// A second name for [`MultiQueue`], kept for callers that still use it.
pub type BulkMultiQueue<T> = MultiQueue<T>;
