//! Epoch-based reclamation backend: the [`Reclaim`] façade over the
//! `crossbeam::epoch` shim, with a node pool per domain.
//!
//! A pinned [`epoch::Guard`] keeps every reachable node alive, so validated
//! reads always succeed. Nodes are carved from large blocks and
//! recycled through the domain's pool rather than the allocator: an
//! unlinked chain is deferred as **one** epoch item, and once its grace
//! period has passed the whole chain goes back to the pool in one locked
//! splice; a run takes the nodes it needs under one lock as well, so each
//! side meets the pool once per run, never per node. Deferred chains share
//! ownership of the pool, so a chain that expires after its list dropped
//! still has somewhere to go; the blocks are freed when the last owner lets
//! go, and a dropping domain runs collections until it is that owner.
//! Memory held is therefore the peak of live nodes plus those in limbo,
//! returned when the list drops.

use super::Reclaim;
use crossbeam::epoch::{self, Guard};
use rsched_sync::atomic::AtomicUsize;
use rsched_sync::atomic::Ordering::{AcqRel, Acquire, Relaxed};
use rsched_sync::sync::Mutex;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::{Arc, PoisonError};

/// Marker type selecting epoch-based reclamation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ebr;

/// A list node, in one of its pool's blocks. The key is two fields, not a
/// tuple, so that `seq` and a 4-byte payload share a word: an
/// `EbrNode<u32>` is 24 bytes.
struct EbrNode<T> {
    priority: u64,
    seq: u32,
    /// Claimed (`ptr::read`) by the thread that wins the marking CAS;
    /// dropped by `dealloc_exclusive` only for nodes never popped.
    item: MaybeUninit<T>,
    /// Tagged successor pointer, low bit = this node is logically deleted.
    /// A node in the pool keeps its retired link (or the pool's splice) as
    /// the free chain's link.
    next: AtomicUsize,
}

// The model checker's atomics are larger than the hardware's.
#[cfg(not(rsched_model))]
const _: () = assert!(std::mem::size_of::<EbrNode<u32>>() == 24);

/// Bytes of a block the pool carves fresh nodes from: above the largest
/// size an allocator keeps on its heap (glibc's mmap threshold never rises
/// past 32 MiB), so a block is mapped and unmapped whole. Pages no node
/// has reached cost nothing, and a dropped pool gives its memory back to
/// the system rather than to a heap the next phase of the program may
/// never reuse.
const BLOCK_BYTES: usize = (32 << 20) + (64 << 10);

/// Nodes per block.
fn block_len<T>() -> usize {
    (BLOCK_BYTES / std::mem::size_of::<EbrNode<T>>()).max(1)
}

/// `len` nodes linked through `next` (tag ignored), `first` to `last`.
struct Chain<T> {
    first: *mut EbrNode<T>,
    last: *mut EbrNode<T>,
    len: usize,
}

impl<T> Chain<T> {
    const EMPTY: Self = Chain { first: ptr::null_mut(), last: ptr::null_mut(), len: 0 };
}

/// A domain's free nodes and the blocks they are carved from.
struct Pool<T> {
    state: Mutex<PoolState<T>>,
}

struct PoolState<T> {
    /// Recycled nodes, ready for reuse.
    free: Chain<T>,
    /// Every block this pool carved, from `Box::into_raw`; freed on drop.
    blocks: Vec<*mut [MaybeUninit<EbrNode<T>>]>,
    /// Nodes at the end of the last block not yet carved.
    fresh: usize,
}

// SAFETY: the pool owns its blocks; every node pointer it holds names a node
// no thread can reach (recycled after its grace period, or never used), and
// all access to them goes through the mutex. Payloads are never touched
// here, so `T: Send` is all a cross-thread hand-off needs.
unsafe impl<T: Send> Send for Pool<T> {}
// SAFETY: as for Send — shared access is the mutex.
unsafe impl<T: Send> Sync for Pool<T> {}

impl<T> Pool<T> {
    fn lock(&self) -> rsched_sync::sync::MutexGuard<'_, PoolState<T>> {
        // Every critical section leaves the state valid (no panics inside
        // but a failed allocation, which aborts), so a poisoned lock's
        // state is still good.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Takes every recycled node, or else `want` fresh ones (at least one,
    /// at most the rest of a block).
    fn take(&self, want: usize) -> EbrStash<T> {
        let mut s = self.lock();
        if s.free.len > 0 {
            let chain = std::mem::replace(&mut s.free, Chain::EMPTY);
            return EbrStash { chain, fresh: (ptr::null_mut(), 0), want };
        }
        if s.fresh == 0 {
            let block: Box<[MaybeUninit<EbrNode<T>>]> = Box::new_uninit_slice(block_len::<T>());
            s.blocks.push(Box::into_raw(block));
            s.fresh = block_len::<T>();
        }
        let n = want.clamp(1, s.fresh);
        let block = *s.blocks.last().expect("a block was just ensured") as *mut EbrNode<T>;
        // SAFETY: `block_len - fresh` is inside the last block.
        let start = unsafe { block.add(block_len::<T>() - s.fresh) };
        s.fresh -= n;
        for i in 0..n {
            // SAFETY: the `n` nodes from `start` are inside the block and
            // were never handed out; `next` is the one field a node's later
            // allocations `store` through rather than write.
            unsafe { ptr::addr_of_mut!((*start.add(i)).next).write(AtomicUsize::new(0)) };
        }
        EbrStash { chain: Chain::EMPTY, fresh: (start, n), want: want.saturating_sub(n) }
    }

    /// Splices `chain` onto the free nodes.
    ///
    /// # Safety
    ///
    /// The chain's nodes must belong to this pool and be unreachable to
    /// every other thread, its links (from `first`, `len - 1` of them)
    /// intact.
    unsafe fn put(&self, chain: Chain<T>) {
        if chain.len == 0 {
            return;
        }
        let mut s = self.lock();
        if s.free.len > 0 {
            // SAFETY: caller contract — `last` is ours to relink.
            unsafe { (*chain.last).next.store(s.free.first as usize, Relaxed) };
            s.free = Chain { first: chain.first, last: s.free.last, len: chain.len + s.free.len };
        } else {
            s.free = chain;
        }
    }
}

impl<T> Drop for Pool<T> {
    fn drop(&mut self) {
        let s = self.state.get_mut().unwrap_or_else(PoisonError::into_inner);
        for &block in &s.blocks {
            // SAFETY: each block came from `Box::into_raw` in `take` and is
            // freed once, here; the last owner of the pool is dropping it,
            // so no node of it is reachable. `MaybeUninit` drops nothing.
            drop(unsafe { Box::from_raw(block) });
        }
    }
}

/// The [`Reclaim::Domain`] of [`Ebr`]: a handle on the node pool, which
/// deferred chains share.
pub struct EbrDomain<T> {
    pool: Arc<Pool<T>>,
}

/// Most collections a dropping domain runs to see its last chains expire.
/// A chain expires three epoch advances after its defer and a collection
/// advances the epoch at most once; the rest is slack for threads that are
/// still exiting when their joiner drops the list.
const DROP_COLLECTS: usize = 64;

impl<T> Drop for EbrDomain<T> {
    /// The last chains a list retired usually sit in the bags of threads
    /// that have just exited (orphans), which only a later collection
    /// frees; until then each co-owns the whole pool, peak backlog
    /// included. So collect here while other owners remain: with no other
    /// thread pinned, the pool drops with the domain instead of whenever
    /// the process next reclaims anything. A thread pinned throughout only
    /// bounds the wait.
    fn drop(&mut self) {
        for _ in 0..DROP_COLLECTS {
            if Arc::strong_count(&self.pool) == 1 {
                break;
            }
            epoch::pin().flush();
            std::thread::yield_now();
        }
    }
}

impl<T> fmt::Debug for EbrDomain<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.pool.lock();
        f.debug_struct("EbrDomain")
            .field("blocks", &s.blocks.len())
            .field("free", &s.free.len)
            .finish()
    }
}

#[cfg(test)]
impl<T> EbrDomain<T> {
    /// Blocks carved so far and nodes waiting in the pool.
    pub(crate) fn pool_stats(&self) -> (usize, usize) {
        let s = self.pool.lock();
        (s.blocks.len(), s.free.len)
    }
}

/// The [`Reclaim::Stash`] of [`Ebr`]: what a run took from the pool.
pub struct EbrStash<T> {
    /// Recycled nodes.
    chain: Chain<T>,
    /// `fresh.1` never-used nodes from `fresh.0` on, consecutive.
    fresh: (*mut EbrNode<T>, usize),
    /// Nodes the run still expects past these: the size of a refill.
    want: usize,
}

impl<T> fmt::Debug for EbrStash<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EbrStash")
            .field("recycled", &self.chain.len)
            .field("fresh", &self.fresh.1)
            .finish()
    }
}

impl<T> EbrStash<T> {
    /// The next node, or `None` once the stash ran dry.
    fn next(&mut self) -> Option<*mut EbrNode<T>> {
        self.want = self.want.saturating_sub(1);
        if self.chain.len > 0 {
            let node = self.chain.first;
            self.chain.len -= 1;
            if self.chain.len > 0 {
                // SAFETY: a chain node taken from the pool is ours, and its
                // link names the next node of the chain.
                self.chain.first = (unsafe { (*node).next.load(Relaxed) } & !1) as *mut _;
            }
            return Some(node);
        }
        let (node, n) = self.fresh;
        if n == 0 {
            return None;
        }
        // SAFETY: `fresh` spans `n` consecutive nodes of one block.
        self.fresh = (unsafe { node.add(1) }, n - 1);
        Some(node)
    }
}

/// A tagged raw node pointer.
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
    fn raw(self) -> *mut EbrNode<T> {
        (self.0 & !1) as *mut EbrNode<T>
    }

    /// The node this pointer names.
    ///
    /// # Safety
    ///
    /// The pointer must be non-null and the node epoch-protected: loaded
    /// under a guard that is still live, or owned by the caller.
    unsafe fn node<'a>(self) -> &'a EbrNode<T> {
        // SAFETY: caller contract; nodes live in pool blocks, which outlive
        // every guard-protected pointer into them.
        unsafe { &*self.raw() }
    }
}

// SAFETY: the epoch scheme serializes reclamation against pinned readers;
// `item` is only moved out by the unique marking-CAS winner, so `T: Send`
// suffices for cross-thread use of the domain and its nodes.
unsafe impl<T: Send> Send for EbrDomain<T> {}
// SAFETY: as for Send — all shared mutation goes through atomic link words
// and the pool's mutex.
unsafe impl<T: Send> Sync for EbrDomain<T> {}

// SAFETY: validated reads hold by construction (the guard pins the epoch, so
// nodes reachable under it are never recycled); a tagged-pointer CAS can
// only succeed against the same node lifetime, since a node returns to the
// pool only after every pin that could have loaded it has ended; a retired
// chain is deferred until no live pin can hold a pointer into it.
unsafe impl Reclaim for Ebr {
    type Domain<T: Send> = EbrDomain<T>;
    type Guard<T: Send> = Guard;
    type Ptr<T: Send> = EbrPtr<T>;
    type Stash<T: Send> = EbrStash<T>;

    fn name() -> &'static str {
        "ebr"
    }

    fn new_domain<T: Send>() -> EbrDomain<T> {
        let state = PoolState { free: Chain::EMPTY, blocks: Vec::new(), fresh: 0 };
        EbrDomain { pool: Arc::new(Pool { state: Mutex::new(state) }) }
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

    fn to_word<T: Send>(ptr: EbrPtr<T>) -> u64 {
        ptr.0 as u64
    }

    fn from_word<T: Send>(word: u64) -> EbrPtr<T> {
        EbrPtr(word as usize, PhantomData)
    }

    fn stash<T: Send>(dom: &EbrDomain<T>, n: usize) -> EbrStash<T> {
        dom.pool.take(n)
    }

    fn alloc<T: Send>(
        dom: &EbrDomain<T>,
        stash: &mut EbrStash<T>,
        (priority, seq): (u64, u32),
        item: Option<T>,
    ) -> EbrPtr<T> {
        let node = loop {
            if let Some(node) = stash.next() {
                break node;
            }
            // A dry stash has nothing left to give back.
            *stash = dom.pool.take(stash.want.max(1));
        };
        let item = match item {
            Some(v) => MaybeUninit::new(v),
            None => MaybeUninit::uninit(),
        };
        // SAFETY: the node came out of the pool, so no other thread can
        // reach it until the caller publishes it; its `next` was
        // initialized when its block was carved. A recycled node's old
        // payload was moved out by its popper, so overwriting drops nothing.
        unsafe {
            ptr::addr_of_mut!((*node).priority).write(priority);
            ptr::addr_of_mut!((*node).seq).write(seq);
            ptr::addr_of_mut!((*node).item).write(item);
            (*node).next.store(0, Relaxed);
        }
        EbrPtr(node as usize, PhantomData)
    }

    fn unstash<T: Send>(dom: &EbrDomain<T>, stash: EbrStash<T>) {
        let (first, n) = stash.fresh;
        if n > 0 {
            for i in 0..n - 1 {
                // SAFETY: `fresh` spans `n` consecutive unused nodes of one
                // block, all still ours; link each to the next.
                unsafe { (*first.add(i)).next.store(first.add(i + 1) as usize, Relaxed) };
            }
            // SAFETY: the nodes are ours and now linked in order.
            unsafe { dom.pool.put(Chain { first, last: first.add(n - 1), len: n }) };
        }
        // SAFETY: the rest of a chain taken from the pool is still ours,
        // its links intact.
        unsafe { dom.pool.put(stash.chain) };
    }

    fn set_next_exclusive<T: Send>(_dom: &EbrDomain<T>, node: EbrPtr<T>, next: EbrPtr<T>) {
        // SAFETY: caller owns the unpublished node exclusively.
        unsafe { node.node() }.next.store(next.0, Relaxed);
    }

    fn key<T: Send>(_dom: &EbrDomain<T>, node: EbrPtr<T>, _guard: &Guard) -> Option<(u64, u32)> {
        // SAFETY: `node` was loaded under the guard, which pins the epoch
        // and keeps the node's lifetime; keys are immutable within it.
        let node = unsafe { node.node() };
        Some((node.priority, node.seq))
    }

    fn load_next<T: Send>(
        _dom: &EbrDomain<T>,
        node: EbrPtr<T>,
        _guard: &Guard,
    ) -> Option<EbrPtr<T>> {
        // SAFETY: `node` was loaded under the guard; the epoch keeps it.
        Some(EbrPtr(unsafe { node.node() }.next.load(Acquire), PhantomData))
    }

    fn cas_next<T: Send>(
        _dom: &EbrDomain<T>,
        node: EbrPtr<T>,
        current: EbrPtr<T>,
        new: EbrPtr<T>,
        _guard: &Guard,
    ) -> bool {
        // SAFETY: `node` was loaded under the guard; the epoch keeps it.
        let node = unsafe { node.node() };
        node.next.compare_exchange(current.0, new.0, AcqRel, Relaxed).is_ok()
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller passes a non-null, guard-protected node and only assumes the
    // copy initialized after winning the marking CAS.
    unsafe fn peek_payload<T: Send>(
        _dom: &EbrDomain<T>,
        node: EbrPtr<T>,
        _guard: &Guard,
    ) -> MaybeUninit<T> {
        // SAFETY: caller contract — `node` is non-null and guard-protected;
        // copying a `MaybeUninit<T>` never drops or asserts initialization.
        unsafe { ptr::read(&node.node().item) }
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller unlinked the chain and retires each node at most once.
    unsafe fn retire_chain<T: Send>(
        dom: &EbrDomain<T>,
        first: EbrPtr<T>,
        last: EbrPtr<T>,
        len: usize,
        guard: &Guard,
    ) {
        rsched_obs::counter!(r#"reclaim_retire_total{backend="ebr"}"#).add(len as u64);
        let pool = Arc::clone(&dom.pool);
        let (first, last) = (first.raw() as usize, last.raw() as usize);
        // SAFETY: caller contract — the chain is unlinked, so threads that
        // pin after this call cannot reach it, and this is its unique
        // retire; its marked links are frozen until the pool relinks them.
        // Run after the grace period, the splice hands unreachable nodes to
        // the pool the closure co-owns, on whatever thread collects it.
        unsafe {
            guard.defer_unchecked(move || {
                let chain = Chain { first: first as *mut _, last: last as *mut _, len };
                pool.put(chain);
            })
        };
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller holds exclusive access (structure teardown) and reports
    // payload ownership truthfully via `drop_payload`.
    unsafe fn dealloc_exclusive<T: Send>(_dom: &EbrDomain<T>, node: EbrPtr<T>, drop_payload: bool) {
        rsched_obs::counter!(r#"reclaim_dealloc_total{backend="ebr"}"#).inc();
        if drop_payload {
            // SAFETY: caller contract — no popper claimed the payload, so
            // it is initialized and unowned; the node's storage stays with
            // the pool until its blocks are freed.
            unsafe { (*node.raw()).item.assume_init_drop() };
        }
    }
}
