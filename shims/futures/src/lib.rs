//! Offline stand-in for the `futures` 0.3 API subset this workspace uses,
//! which is empty: nothing imports it.
//!
//! The build container has no route to crates.io; see `shims/README.md`.
//! Each shim provides exactly what the workspace consumes, and since the
//! streaming service's producers flush their own runs there are no pump
//! futures left to drive, so `block_on`, `join_all` and `poll_fn` are gone.
//! The crate stays only because `rsched-core` still declares the
//! dependency, and dropping that line regenerates `benchmark/Cargo.lock`
//! (ROADMAP queue entry (vii) removes both).
