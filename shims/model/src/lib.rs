//! # rsched-sync — synchronization façade + deterministic model checker
//!
//! Every hand-rolled protocol in this workspace (the MCS/ticket lock
//! toolkit, the epoch shim's pin/advance handshake, the service layer's
//! `CapacityWaiters` backpressure wakeups) imports its atomics from this
//! crate instead of `std::sync::atomic` — a rule enforced by the
//! `rsched-lint` CI step.
//!
//! * **Normal builds**: everything here is a direct re-export of `std`
//!   (`pub use std::sync::atomic::…`), so the façade is zero-cost by
//!   construction — `rsched_sync::atomic::AtomicUsize` *is*
//!   `std::sync::atomic::AtomicUsize` (see the `facade_zero_cost`
//!   type-identity test in `rsched-queues`), and `yield_point()` is an
//!   empty `#[inline(always)]` function.
//!
//! * **Model builds** (`RUSTFLAGS="--cfg rsched_model"`): atomics, fences,
//!   the `sync::Mutex`, `yield_point`, and `spin_wait` route through a
//!   single-threaded controller that explores thread interleavings by
//!   bounded-DFS with a preemption bound, models C11-style weak memory
//!   (store histories + view joins, release/acquire messages, fence views,
//!   a global SC view), detects data races via `model::RaceCell` vector
//!   clocks, and replays any failure from its recorded choice trace. See
//!   `runtime.rs` for the semantics and DESIGN.md §"Model-checking
//!   semantics" for the substitution contract.
//!
//! Run the model suite with:
//!
//! ```text
//! RUSTFLAGS="--cfg rsched_model" cargo test --release -p rsched-sync --test litmus
//! RUSTFLAGS="--cfg rsched_model" cargo test --release -p rsched-queues --test model_lock
//! ```
//!
//! Knobs: `RSCHED_MODEL_PREEMPTIONS` (preemption bound, default 2),
//! `RSCHED_MODEL_MAX_EXECS` (execution budget per check, default 200k).

#[cfg(rsched_model)]
mod atomics;
#[cfg(rsched_model)]
mod runtime;
#[cfg(rsched_model)]
mod sync_model;

/// Atomic types, `fence`, and `Ordering`. Mirror of the
/// `std::sync::atomic` subset the workspace uses.
#[cfg(rsched_model)]
pub mod atomic {
    pub use crate::atomics::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };
}

#[cfg(not(rsched_model))]
pub mod atomic {
    pub use std::sync::atomic::{
        fence, AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicU64, AtomicU8, AtomicUsize,
        Ordering,
    };
}

/// `Mutex`/`MutexGuard`: `std::sync` re-exports normally, a model-aware
/// blocking mutex under the checker.
#[cfg(rsched_model)]
pub mod sync {
    pub use crate::sync_model::{Mutex, MutexGuard};
}

#[cfg(not(rsched_model))]
pub mod sync {
    pub use std::sync::{Mutex, MutexGuard};
}

/// Model-checking API: only exists under `--cfg rsched_model`. Test files
/// using it should be gated with `#![cfg(rsched_model)]`.
#[cfg(rsched_model)]
pub mod model {
    pub use crate::runtime::{mutation_enabled, Model, RaceCell, Report, Sim, Violation};
}

/// Explicit scheduling point for protocol code: a no-op in normal builds,
/// a controller handoff under the checker.
#[cfg(rsched_model)]
pub fn yield_point() {
    runtime::yield_point_impl();
}

#[cfg(not(rsched_model))]
#[inline(always)]
pub fn yield_point() {}

/// Spin-loop body hook: `std::hint::spin_loop()` in normal builds; under
/// the checker, parks the calling thread until some other thread performs
/// a store (re-running a side-effect-free spin iteration cannot change
/// state, so this is a sound partial-order reduction — and it turns
/// never-woken spins into detectable deadlocks).
#[cfg(rsched_model)]
pub fn spin_wait() {
    runtime::spin_wait_impl();
}

#[cfg(not(rsched_model))]
#[inline(always)]
pub fn spin_wait() {
    std::hint::spin_loop();
}
