//! Pluggable safe-memory-reclamation backends for the lock-free schedulers.
//!
//! The paper's §4 implementation leans on epoch-based reclamation, and so
//! did this repo until PR 9 — every `pop` paid an epoch pin (a store plus a
//! SeqCst fence) before touching a list. This module makes the reclamation
//! scheme a *policy*: [`HarrisList`](crate::concurrent::HarrisList) and
//! [`LockFreeMultiQueue`](crate::concurrent::LockFreeMultiQueue) are generic
//! over a [`Reclaim`] backend, with two implementations:
//!
//! * [`Ebr`] — epoch-based reclamation, wrapping the `crossbeam::epoch`
//!   shim. Readers pin (store + SeqCst fence), retired nodes are deferred
//!   to per-thread garbage bags and freed two epoch advances later. This is
//!   the default; every pre-existing call site compiles unchanged against
//!   it and behaves bit-for-bit as before.
//! * [`Vbr`] — version-based reclamation. Nodes live in a type-stable slot
//!   arena (the chunked-spine pattern of the Delaunay `CellArena`); every
//!   slot carries a version counter bumped on retire and on reallocation,
//!   links embed both the successor's and the owner's version, and readers
//!   validate by *rechecking the version* after a plain load instead of
//!   pinning. The read fast path has **no fence and no store** — the
//!   direct attack on the per-pop pin cost (see DESIGN.md, "Reclamation
//!   semantics").
//!
//! The trait surface is shaped around exactly what a Harris-style sorted
//! list needs: an allocation domain, a guard (`Ebr`'s pin; a zero-sized
//! token for `Vbr`), node allocation, validated key/next reads, CAS on a
//! node's link word, a speculative payload copy claimed by the marking CAS,
//! and retire/dealloc. Backends with fundamentally different node
//! representations (heap boxes vs arena slots) fit behind it because the
//! list only ever names nodes through the backend's opaque [`Reclaim::Ptr`].

mod ebr;
mod vbr;

pub use ebr::Ebr;
pub use vbr::Vbr;

use std::fmt;
use std::mem::MaybeUninit;
use std::str::FromStr;

/// A safe-memory-reclamation policy for the lock-free list schedulers.
///
/// Implementors are zero-sized marker types; all state lives in the
/// per-structure [`Reclaim::Domain`]. A node is identified by an opaque
/// copyable [`Reclaim::Ptr`] carrying a one-bit tag (the Harris deletion
/// mark on the node's *link word*).
///
/// # Validated reads
///
/// [`Reclaim::key`] and [`Reclaim::load_next`] return `None` when the
/// backend detects that `node` may have been reclaimed and reallocated
/// since the pointer was obtained (VBR's version recheck). Callers must
/// treat `None` as "restart the traversal". `Ebr` never returns `None`:
/// the guard keeps every reachable node alive.
///
/// # Safety
///
/// Implementations must guarantee, for pointers obtained through this API
/// under a live guard:
///
/// * `key`/`load_next` returning `Some` implies the returned value was read
///   from `node` within a single lifetime of its storage (never a mix of an
///   old and a recycled node).
/// * `cas_next` never succeeds against a node whose storage has been
///   retired or reallocated since `node` was obtained.
/// * After a successful `cas_next` that sets the deletion tag, a
///   [`Reclaim::peek_payload`] copy taken *before* that CAS (same thread,
///   program order) observed the payload of the claimed lifetime, so
///   `assume_init` on it is sound.
/// * `retire` makes the storage reusable only for allocations that
///   [`Reclaim::cas_next`]/validated reads can distinguish from the retired
///   lifetime.
pub unsafe trait Reclaim: Copy + Default + fmt::Debug + Send + Sync + 'static {
    /// Per-structure allocation domain (the arena for `Vbr`; a zero-sized
    /// handle for `Ebr`, whose collector is global).
    type Domain<T: Send>: Send + Sync + fmt::Debug;

    /// Read-side token. `Ebr`: an epoch pin. `Vbr`: zero-sized.
    type Guard<T: Send>;

    /// Opaque tagged node reference.
    type Ptr<T: Send>: Copy + PartialEq + Eq + fmt::Debug;

    /// Short lowercase backend name (`"ebr"`, `"vbr"`), used by benches and
    /// `Debug` output.
    fn name() -> &'static str;

    /// Creates an empty allocation domain.
    fn new_domain<T: Send>() -> Self::Domain<T>;

    /// Enters a read-side critical section.
    fn pin<T: Send>(dom: &Self::Domain<T>) -> Self::Guard<T>;

    /// Flushes any thread-local deferred garbage (no-op for `Vbr`).
    fn flush<T: Send>(dom: &Self::Domain<T>, guard: &Self::Guard<T>);

    /// The null pointer, tag 0.
    fn null<T: Send>() -> Self::Ptr<T>;

    /// Whether the untagged pointer is null.
    fn is_null<T: Send>(ptr: Self::Ptr<T>) -> bool;

    /// The deletion tag (0 or 1).
    fn tag<T: Send>(ptr: Self::Ptr<T>) -> usize;

    /// The same pointer with its tag replaced.
    fn with_tag<T: Send>(ptr: Self::Ptr<T>, tag: usize) -> Self::Ptr<T>;

    /// Allocates a node with `key` and (for non-sentinel nodes) a payload,
    /// its link word initialized to null/untagged. The node is exclusively
    /// owned until published by a successful [`Reclaim::cas_next`].
    fn alloc<T: Send>(
        dom: &Self::Domain<T>,
        key: (u64, u64),
        item: Option<T>,
        guard: &Self::Guard<T>,
    ) -> Self::Ptr<T>;

    /// Re-points an **unpublished** node's link word (insert retry loop and
    /// bulk load). Caller must be the exclusive owner from
    /// [`Reclaim::alloc`].
    fn set_next_exclusive<T: Send>(dom: &Self::Domain<T>, node: Self::Ptr<T>, next: Self::Ptr<T>);

    /// The node's key, or `None` if the read could not be validated against
    /// `node`'s lifetime (restart the traversal).
    fn key<T: Send>(
        dom: &Self::Domain<T>,
        node: Self::Ptr<T>,
        guard: &Self::Guard<T>,
    ) -> Option<(u64, u64)>;

    /// The node's link word, or `None` if the read could not be validated
    /// against `node`'s lifetime (restart the traversal).
    fn load_next<T: Send>(
        dom: &Self::Domain<T>,
        node: Self::Ptr<T>,
        guard: &Self::Guard<T>,
    ) -> Option<Self::Ptr<T>>;

    /// CAS on `node`'s link word from `current` to `new`. Fails (returns
    /// `false`) on any mismatch **including** `node` having been retired or
    /// reallocated — a stale CAS can never corrupt a recycled node.
    fn cas_next<T: Send>(
        dom: &Self::Domain<T>,
        node: Self::Ptr<T>,
        current: Self::Ptr<T>,
        new: Self::Ptr<T>,
        guard: &Self::Guard<T>,
    ) -> bool;

    /// Raw, speculative copy of the node's payload. The copy is only
    /// initialized-and-owned if the caller subsequently wins the marking
    /// CAS on this node (see the trait-level safety contract); otherwise it
    /// must be discarded without `assume_init`.
    ///
    /// # Safety
    ///
    /// `node` must be non-null and obtained under `guard`.
    unsafe fn peek_payload<T: Send>(
        dom: &Self::Domain<T>,
        node: Self::Ptr<T>,
        guard: &Self::Guard<T>,
    ) -> MaybeUninit<T>;

    /// Hands the node's storage back to the backend. Does **not** drop the
    /// payload (retired nodes are always marked, and the marking thread
    /// claimed the payload).
    ///
    /// # Safety
    ///
    /// `node` must have been physically unlinked by the calling thread's
    /// successful CAS (unique retire), and must not be accessed by the
    /// caller afterwards.
    unsafe fn retire<T: Send>(dom: &Self::Domain<T>, node: Self::Ptr<T>, guard: &Self::Guard<T>);

    /// Immediately reclaims a node under exclusive access (`Drop` sweep),
    /// dropping the payload iff `drop_payload`.
    ///
    /// # Safety
    ///
    /// The caller must have exclusive access to the whole domain (no
    /// concurrent readers or writers), `node` must be live, and
    /// `drop_payload` must be `true` only if no thread claimed the payload.
    unsafe fn dealloc_exclusive<T: Send>(
        dom: &Self::Domain<T>,
        node: Self::Ptr<T>,
        drop_payload: bool,
    );
}

/// Runtime selector for a reclamation backend (`--reclaim {ebr,vbr}` on the
/// bench binaries).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Epoch-based reclamation ([`Ebr`]), the default.
    Ebr,
    /// Version-based reclamation ([`Vbr`]).
    Vbr,
}

impl Backend {
    /// Every backend, in bake-off order.
    pub const ALL: [Backend; 2] = [Backend::Ebr, Backend::Vbr];

    /// The backend's lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Ebr => "ebr",
            Backend::Vbr => "vbr",
        }
    }
}

impl fmt::Display for Backend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl FromStr for Backend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "ebr" => Ok(Backend::Ebr),
            "vbr" => Ok(Backend::Vbr),
            other => Err(format!("unknown reclamation backend {other:?} (expected ebr|vbr)")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_parses_both_names() {
        assert_eq!("ebr".parse::<Backend>().unwrap(), Backend::Ebr);
        assert_eq!("VBR".parse::<Backend>().unwrap(), Backend::Vbr);
        assert!("hazard".parse::<Backend>().is_err());
    }

    #[test]
    fn backend_names_round_trip() {
        for b in Backend::ALL {
            assert_eq!(b.as_str().parse::<Backend>().unwrap(), b);
            assert_eq!(b.to_string(), b.as_str());
        }
    }

    #[test]
    fn trait_names_match_backend_enum() {
        assert_eq!(Ebr::name(), Backend::Ebr.as_str());
        assert_eq!(Vbr::name(), Backend::Vbr.as_str());
    }
}
