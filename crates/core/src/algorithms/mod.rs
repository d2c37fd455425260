//! The paper's workloads as framework instances.
//!
//! Every module follows the same pattern: a plain sequential reference
//! implementation (the ground truth for determinism tests), one
//! [`crate::framework::ConcurrentAlgorithm`] — the task oracle every
//! executor drives, sequential model and threads alike — and a verifier.

pub mod coloring;
pub mod explicit_dag;
pub mod incremental;
pub mod knuth_shuffle;
pub mod list_contraction;
pub mod matching;
pub mod mis;
pub mod sssp;
