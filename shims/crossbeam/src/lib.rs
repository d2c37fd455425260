//! Offline stand-in for the subset of the `crossbeam` 0.8 API used by this
//! workspace: [`utils::CachePadded`], [`utils::Backoff`], and the
//! [`epoch`] memory-reclamation module (`pin`, `Guard::defer_unchecked`
//! and `Guard::flush`: the epoch-based garbage collection the `Ebr`
//! reclamation backend runs on).
//!
//! The build container has no route to crates.io; see `shims/README.md`
//! for the swap-back-to-upstream story.

#![warn(missing_docs)]

pub mod epoch;
pub mod utils;
