//! Sequential models of relaxed schedulers.
//!
//! These are the schedulers of the paper's *sequential* analysis model
//! (§2.1): each `pop` returns a task of small rank, with the randomness under
//! the caller's control (seeded `rand::Rng`), so experiments are exactly
//! reproducible. The concurrent counterparts live in [`crate::concurrent`].

mod sim_multiqueue;
mod sim_spray;
mod top_k;

pub use sim_multiqueue::SimMultiQueue;
pub use sim_spray::SimSprayList;
pub use top_k::{AdversarialTopK, TopKUniform, UniformRandom};
