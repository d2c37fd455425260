//! Epoch-based reclamation backend: the [`Reclaim`] façade over the
//! `crossbeam::epoch` shim.
//!
//! Nodes are heap boxes; a pinned [`epoch::Guard`] keeps every reachable
//! node alive, so validated reads always succeed and retire defers the free
//! to the global collector. This is the default backend — behavior is
//! bit-for-bit the pre-PR-9 `HarrisList`.

use super::Reclaim;
use crossbeam::epoch::{self, Atomic, Guard, Owned, Pointer, Shared};
use rsched_sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;

/// Marker type selecting epoch-based reclamation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ebr;

/// A heap-allocated list node managed by the epoch collector.
struct EbrNode<T> {
    key: (u64, u64),
    /// Claimed (`ptr::read`) by the thread that wins the marking CAS;
    /// dropped by `dealloc_exclusive` only for nodes never popped.
    item: MaybeUninit<T>,
    /// Low bit tag = this node is logically deleted.
    next: Atomic<EbrNode<T>>,
}

/// Zero-sized domain: the epoch collector is global.
pub struct EbrDomain<T>(PhantomData<fn(T)>);

impl<T> fmt::Debug for EbrDomain<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EbrDomain").finish()
    }
}

/// A tagged raw node pointer (the `Shared` data word, guard-independent so
/// it can live in struct fields).
pub struct EbrPtr<T>(usize, PhantomData<*mut EbrNode<T>>);

impl<T> Clone for EbrPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for EbrPtr<T> {}
impl<T> PartialEq for EbrPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for EbrPtr<T> {}
impl<T> fmt::Debug for EbrPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "EbrPtr({:#x})", self.0)
    }
}

impl<T> EbrPtr<T> {
    /// Reconstructs the guard-scoped `Shared` this pointer was taken from.
    ///
    /// # Safety
    ///
    /// The caller must ensure the pointee (if non-null) is epoch-protected
    /// for `'g` — i.e. the word came from a load under a guard that is
    /// still live, or the caller has exclusive access.
    unsafe fn to_shared<'g>(self) -> Shared<'g, EbrNode<T>> {
        // SAFETY: round-trip of a word produced by `Pointer::into_usize`;
        // lifetime validity is the caller's obligation (see above).
        unsafe { Shared::from_usize(self.0) }
    }

    fn from_shared(s: Shared<'_, EbrNode<T>>) -> Self {
        EbrPtr(s.into_usize(), PhantomData)
    }
}

// SAFETY: the epoch scheme serializes reclamation against pinned readers;
// `item` is only moved out by the unique marking-CAS winner, so `T: Send`
// suffices for cross-thread use of the domain and its nodes.
unsafe impl<T: Send> Send for EbrDomain<T> {}
// SAFETY: as for Send — all shared mutation goes through `Atomic` words.
unsafe impl<T: Send> Sync for EbrDomain<T> {}

// SAFETY: validated reads hold by construction (the guard pins the epoch, so
// nodes reachable under it are never freed, let alone reallocated); a
// tagged-pointer CAS can only succeed against the same allocation; retire
// defers the free until no live pin can hold the pointer.
unsafe impl Reclaim for Ebr {
    type Domain<T: Send> = EbrDomain<T>;
    type Guard<T: Send> = Guard;
    type Ptr<T: Send> = EbrPtr<T>;

    fn name() -> &'static str {
        "ebr"
    }

    fn new_domain<T: Send>() -> EbrDomain<T> {
        EbrDomain(PhantomData)
    }

    fn pin<T: Send>(_dom: &EbrDomain<T>) -> Guard {
        epoch::pin()
    }

    fn flush<T: Send>(_dom: &EbrDomain<T>, guard: &Guard) {
        guard.flush();
    }

    fn null<T: Send>() -> EbrPtr<T> {
        EbrPtr(0, PhantomData)
    }

    fn is_null<T: Send>(ptr: EbrPtr<T>) -> bool {
        ptr.0 & !1 == 0
    }

    fn tag<T: Send>(ptr: EbrPtr<T>) -> usize {
        ptr.0 & 1
    }

    fn with_tag<T: Send>(ptr: EbrPtr<T>, tag: usize) -> EbrPtr<T> {
        EbrPtr((ptr.0 & !1) | (tag & 1), PhantomData)
    }

    fn alloc<T: Send>(
        _dom: &EbrDomain<T>,
        key: (u64, u64),
        item: Option<T>,
        guard: &Guard,
    ) -> EbrPtr<T> {
        let item = match item {
            Some(v) => MaybeUninit::new(v),
            None => MaybeUninit::uninit(),
        };
        let node = Owned::new(EbrNode { key, item, next: Atomic::null() });
        EbrPtr::from_shared(node.into_shared(guard))
    }

    fn set_next_exclusive<T: Send>(dom: &EbrDomain<T>, node: EbrPtr<T>, next: EbrPtr<T>) {
        let _ = dom;
        // SAFETY: caller owns the unpublished node exclusively.
        let node_ref = unsafe { node.to_shared().deref() };
        // SAFETY: `next` is a word the caller obtained under its guard (or
        // exclusively); storing the word does not dereference it.
        node_ref.next.store(unsafe { next.to_shared() }, Relaxed);
    }

    fn key<T: Send>(_dom: &EbrDomain<T>, node: EbrPtr<T>, guard: &Guard) -> Option<(u64, u64)> {
        let _ = guard;
        // SAFETY: `node` was loaded under `guard`, which pins the epoch and
        // keeps the pointee alive; keys are immutable after allocation.
        Some(unsafe { node.to_shared().deref() }.key)
    }

    fn load_next<T: Send>(
        _dom: &EbrDomain<T>,
        node: EbrPtr<T>,
        guard: &Guard,
    ) -> Option<EbrPtr<T>> {
        // SAFETY: `node` was loaded under `guard`; the epoch keeps it alive.
        let node_ref = unsafe { node.to_shared().deref() };
        Some(EbrPtr::from_shared(node_ref.next.load(Acquire, guard)))
    }

    fn cas_next<T: Send>(
        _dom: &EbrDomain<T>,
        node: EbrPtr<T>,
        current: EbrPtr<T>,
        new: EbrPtr<T>,
        guard: &Guard,
    ) -> bool {
        // SAFETY: `node` was loaded under `guard`; the epoch keeps it alive.
        let node_ref = unsafe { node.to_shared().deref() };
        // SAFETY: `current`/`new` are words from the same guard scope; the
        // CAS compares and stores words without dereferencing them.
        let (cur, new) = unsafe { (current.to_shared(), new.to_shared()) };
        node_ref.next.compare_exchange(cur, new, AcqRel, Relaxed, guard).is_ok()
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller passes a non-null, guard-protected node and only assumes the
    // copy initialized after winning the marking CAS.
    unsafe fn peek_payload<T: Send>(
        _dom: &EbrDomain<T>,
        node: EbrPtr<T>,
        guard: &Guard,
    ) -> MaybeUninit<T> {
        let _ = guard;
        // SAFETY: caller contract — `node` is non-null and guard-protected;
        // copying a `MaybeUninit<T>` never drops or asserts initialization.
        unsafe { ptr::read(&node.to_shared().deref().item) }
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller unlinked `node` and retires each node at most once.
    unsafe fn retire<T: Send>(_dom: &EbrDomain<T>, node: EbrPtr<T>, guard: &Guard) {
        rsched_obs::counter!(r#"reclaim_retire_total{backend="ebr"}"#).inc();
        // SAFETY: caller contract — the calling thread's CAS unlinked
        // `node`, making this the unique defer; `MaybeUninit` means the box
        // free drops no payload.
        unsafe { guard.defer_destroy(node.to_shared()) };
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller holds exclusive access (structure teardown) and reports
    // payload ownership truthfully via `drop_payload`.
    unsafe fn dealloc_exclusive<T: Send>(_dom: &EbrDomain<T>, node: EbrPtr<T>, drop_payload: bool) {
        rsched_obs::counter!(r#"reclaim_dealloc_total{backend="ebr"}"#).inc();
        // SAFETY: caller contract — exclusive access; this is the unique
        // free of the allocation.
        let mut owned = unsafe { node.to_shared().into_owned() };
        if drop_payload {
            // SAFETY: caller contract — no popper claimed the payload, so
            // it is initialized and unowned.
            unsafe { owned.item.assume_init_drop() };
        }
        drop(owned);
    }
}
