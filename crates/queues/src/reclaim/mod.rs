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
//!   shim. Readers pin (store + SeqCst fence); an unlinked chain of nodes
//!   is deferred as one item to the retiring thread's garbage bag and, once
//!   the grace period has passed, goes back to its list's node pool, which
//!   carves fresh nodes from blocks and frees them when the list (and the
//!   last deferred chain) is gone. This is the default backend.
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
//! token for `Vbr`), node allocation from a per-run stash, validated
//! key/next reads, CAS on a node's link word, a speculative payload copy
//! claimed by the marking CAS, retiring a whole unlinked chain at once, and
//! teardown. Backends with different node representations (pooled blocks
//! vs arena slots) fit behind it because the list only ever names nodes
//! through the backend's opaque [`Reclaim::Ptr`].

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
/// * `retire_chain` makes the storage reusable only for allocations that
///   [`Reclaim::cas_next`]/validated reads can distinguish from the retired
///   lifetime.
pub unsafe trait Reclaim: Copy + Default + fmt::Debug + Send + Sync + 'static {
    /// Per-structure allocation domain: the slot arena for `Vbr`, the
    /// node pool for `Ebr` (whose collector is global).
    type Domain<T: Send>: Send + Sync + fmt::Debug;

    /// Read-side token. `Ebr`: an epoch pin. `Vbr`: zero-sized.
    type Guard<T: Send>;

    /// Opaque tagged node reference.
    type Ptr<T: Send>: Copy + PartialEq + Eq + fmt::Debug;

    /// Nodes one run took from its domain and has not allocated yet, so
    /// that a run synchronizes with the domain once, not once per node.
    type Stash<T: Send>;

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

    /// The pointer as one word, for a field that must hold it atomically.
    fn to_word<T: Send>(ptr: Self::Ptr<T>) -> u64;

    /// The pointer [`Reclaim::to_word`] made `word` from.
    fn from_word<T: Send>(word: u64) -> Self::Ptr<T>;

    /// Takes nodes for a run that expects to allocate `n` of them.
    fn stash<T: Send>(dom: &Self::Domain<T>, n: usize) -> Self::Stash<T>;

    /// Allocates a node from `stash` (refilling it from `dom` if it ran
    /// dry) with `key` and (for non-sentinel nodes) a payload, its link
    /// word initialized to null/untagged. The node is exclusively owned
    /// until published by a successful [`Reclaim::cas_next`].
    fn alloc<T: Send>(
        dom: &Self::Domain<T>,
        stash: &mut Self::Stash<T>,
        key: (u64, u64),
        item: Option<T>,
    ) -> Self::Ptr<T>;

    /// Gives the nodes a run did not allocate back to `dom`.
    fn unstash<T: Send>(dom: &Self::Domain<T>, stash: Self::Stash<T>);

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

    /// Hands the storage of a chain of `len` nodes back to the backend, as
    /// one unit: `first`, its successor, and so on up to `last`. Does
    /// **not** drop payloads (retired nodes are always marked, and each
    /// marking thread claimed its payload).
    ///
    /// # Safety
    ///
    /// The chain must have been physically unlinked by the calling thread's
    /// successful CAS (unique retire), every node in it marked, so its link
    /// words are frozen; none of it may be accessed by the caller
    /// afterwards.
    unsafe fn retire_chain<T: Send>(
        dom: &Self::Domain<T>,
        first: Self::Ptr<T>,
        last: Self::Ptr<T>,
        len: usize,
        guard: &Self::Guard<T>,
    );

    /// Reclaims a node under exclusive access (`Drop` sweep), dropping the
    /// payload iff `drop_payload`; its storage goes when the domain does.
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
