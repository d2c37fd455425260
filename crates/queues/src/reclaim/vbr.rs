//! Version-based reclamation: pin-free reads over a type-stable slot arena.
//!
//! The scheme (after Sheffi–Herlihy–Petrank's VBR, adapted to the Harris
//! list's needs — see DESIGN.md "Reclamation semantics"):
//!
//! * Nodes live in **slot arenas** that never free or repurpose memory for
//!   the domain's lifetime (the chunked-spine pattern of the Delaunay
//!   `CellArena`: chunk *k* holds `1024 << k` slots behind a `OnceLock`
//!   spine, so slot addresses are stable and reads of a stale slot always
//!   land on valid memory of the same type).
//! * Every slot carries a **version counter**: even ⇒ live, odd ⇒
//!   retired/free. Retiring bumps it (+1), reallocation bumps it again
//!   (+1), so each lifetime of a slot has a unique even version.
//! * A pointer is `(slot index, version, tag)`. Readers load fields with
//!   plain acquire loads and then **validate by rechecking the slot
//!   version** — no pin, no store, no fence on the read path. If the
//!   version moved, the read is discarded and the traversal restarts.
//! * A node's link word packs `(successor index, successor version, owner
//!   version, mark)`, so every **CAS is version-stamped**: a CAS prepared
//!   against lifetime *v* of a slot can never succeed once the slot is
//!   retired or reallocated (the owner-version bits no longer match).
//! * A **global epoch clock** throttles reuse: a slot retired in era *e*
//!   is only handed out again once the clock has passed *e* (the allocator
//!   advances the clock if needed), keeping same-era ABA windows short.
//!
//! Why the validation is sound with a relaxed recheck: a recycler may only
//! write a slot's fields after (a) the retirer bumped the version and (b)
//! the recycler won the free-list pop that *acquires* that bump; all
//! new-lifetime field writes are release stores. A stale reader that
//! observes any new-lifetime field value through its acquire load is
//! therefore ordered after the version bump, and write–read coherence
//! forces its subsequent recheck — even relaxed — to observe the bump and
//! fail. Conversely a recheck that still sees the old version proves every
//! field read came from the old lifetime.

use super::Reclaim;
use rsched_sync::atomic::Ordering::{AcqRel, Acquire, Relaxed, Release};
use rsched_sync::atomic::{AtomicU32, AtomicU64, AtomicUsize};
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ptr;
use std::sync::OnceLock;

/// Marker type selecting version-based reclamation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Vbr;

// ---- packed-word layout -------------------------------------------------
//
// Link word (a slot's `next`), 64 bits:
//   bit  0        mark (Harris deletion tag on the owner)
//   bits 1..=16   owner version, low 16 bits
//   bits 17..=36  successor version, low 20 bits
//   bits 37..=63  successor slot index (27 bits; all-ones = null)
//
// Pointer word (`VbrPtr`), 64 bits:
//   bit  0        tag
//   bits 1..=20   version, low 20 bits
//   bits 21..     slot index
//
// Versions are compared in their truncated widths; a false match needs a
// slot to be recycled an exact multiple of 2^20 (reads) or 2^16 (CASes)
// times between a load and its validation, far beyond any batch the
// schedulers issue between retries.

const OWNER_MASK: u64 = (1 << 16) - 1;
const SVER_MASK: u64 = (1 << 20) - 1;
const IDX_BITS: u32 = 27;
const IDX_MASK: u64 = (1 << IDX_BITS) - 1;
/// All-ones index = the null pointer.
const NULL_IDX: u64 = IDX_MASK;

fn pack_link(owner_ver: u64, succ: u64, succ_ver: u64, tag: u64) -> u64 {
    (tag & 1)
        | ((owner_ver & OWNER_MASK) << 1)
        | ((succ_ver & SVER_MASK) << 17)
        | ((succ & IDX_MASK) << 37)
}

/// A `(slot, version, tag)` node reference.
pub struct VbrPtr<T>(u64, PhantomData<fn(T)>);

impl<T> VbrPtr<T> {
    fn new(idx: u64, ver: u64, tag: u64) -> Self {
        VbrPtr((tag & 1) | ((ver & SVER_MASK) << 1) | (idx << 21), PhantomData)
    }

    fn idx(self) -> u64 {
        self.0 >> 21
    }

    fn ver(self) -> u64 {
        (self.0 >> 1) & SVER_MASK
    }

    fn tag_bit(self) -> u64 {
        self.0 & 1
    }
}

impl<T> Clone for VbrPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for VbrPtr<T> {}
impl<T> PartialEq for VbrPtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}
impl<T> Eq for VbrPtr<T> {}
impl<T> fmt::Debug for VbrPtr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VbrPtr(idx {}, ver {}, tag {})", self.idx(), self.ver(), self.tag_bit())
    }
}

/// Zero-cost read token: VBR readers validate instead of pinning.
#[derive(Debug, Default, Clone, Copy)]
pub struct VbrGuard;

// ---- slot arena ---------------------------------------------------------

/// Chunk 0 holds `1 << CHUNK0_BITS` slots; chunk k holds twice chunk k-1.
const CHUNK0_BITS: u32 = 10;
/// Enough spine for every representable index (sum 1024·(2^18 − 1) > 2^27).
const MAX_CHUNKS: usize = 18;
/// Free-list terminator (index part of `free_head` / `free`).
const FREE_NONE: u64 = u32::MAX as u64;

/// One node's storage. `key_seq` is a `u32` so that it and a 4-byte
/// payload share a word: a `Slot<u32>` is 48 bytes.
struct Slot<T> {
    /// Lifetime clock: even ⇒ live, odd ⇒ retired/free.
    ver: AtomicU64,
    /// Global-clock era recorded at the last retire (reuse throttle).
    era: AtomicU64,
    key_prio: AtomicU64,
    key_seq: AtomicU32,
    /// Packed link word (see layout above).
    next: AtomicU64,
    /// Treiber free-list successor, valid only while the slot is free.
    free: AtomicU64,
    /// Written by the exclusive allocator before publication; claimed by
    /// the marking-CAS winner. Never dropped by the arena itself.
    payload: UnsafeCell<MaybeUninit<T>>,
}

// The model checker's atomics are larger than the hardware's.
#[cfg(not(rsched_model))]
const _: () = assert!(std::mem::size_of::<Slot<u32>>() == 48);

impl<T> Slot<T> {
    fn new() -> Self {
        Slot {
            ver: AtomicU64::new(1),
            era: AtomicU64::new(0),
            key_prio: AtomicU64::new(0),
            key_seq: AtomicU32::new(0),
            next: AtomicU64::new(0),
            free: AtomicU64::new(FREE_NONE),
            payload: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }
}

/// Maps a slot id to (chunk, offset) in the doubling spine.
fn split(id: usize) -> (usize, usize) {
    let block = (id >> CHUNK0_BITS) + 1;
    let k = (usize::BITS - 1 - block.leading_zeros()) as usize;
    (k, id - (((1usize << k) - 1) << CHUNK0_BITS))
}

/// A per-structure VBR domain: slot arena + free list + epoch clock.
pub struct VbrDomain<T> {
    chunks: [OnceLock<Box<[Slot<T>]>>; MAX_CHUNKS],
    len: AtomicUsize,
    /// Packed `stamp << 32 | index` Treiber head; the stamp bumps on every
    /// push and pop, so a pop's CAS cannot suffer free-list ABA.
    free_head: AtomicU64,
    /// Global epoch clock for reuse throttling.
    clock: AtomicU64,
}

// SAFETY: slots are shared across threads, but `payload` is only written by
// the exclusive allocator of a lifetime (before publication) and moved out
// by the unique marking-CAS winner; every other field is an atomic. `T:
// Send` is all the domain hands between threads.
unsafe impl<T: Send> Send for VbrDomain<T> {}
// SAFETY: as for Send — shared access is atomics plus the version protocol.
unsafe impl<T: Send> Sync for VbrDomain<T> {}

impl<T> fmt::Debug for VbrDomain<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VbrDomain")
            .field("slots", &self.len.load(Relaxed))
            .field("clock", &self.clock.load(Relaxed))
            .finish()
    }
}

impl<T> VbrDomain<T> {
    fn new() -> Self {
        VbrDomain {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: AtomicUsize::new(0),
            free_head: AtomicU64::new(FREE_NONE),
            clock: AtomicU64::new(1),
        }
    }

    fn slot(&self, idx: u64) -> &Slot<T> {
        let (k, off) = split(idx as usize);
        &self.chunks[k].get().expect("VBR slot index before its chunk exists")[off]
    }

    /// Takes an exclusive free slot; returns `(index, odd version)`.
    fn acquire_slot(&self) -> (u64, u64) {
        // Reuse path: version-stamped Treiber pop.
        loop {
            let head = self.free_head.load(Acquire);
            let idx = head & u32::MAX as u64;
            if idx == FREE_NONE {
                break;
            }
            let slot = self.slot(idx);
            let next_free = slot.free.load(Relaxed);
            let new_head = ((head >> 32).wrapping_add(1)) << 32 | next_free;
            if self.free_head.compare_exchange(head, new_head, AcqRel, Relaxed).is_ok() {
                // Reuse throttle: never hand a slot back out in the era it
                // was retired in; advance the clock past it instead.
                let era = slot.era.load(Relaxed);
                let now = self.clock.load(Relaxed);
                if era >= now {
                    let _ = self.clock.compare_exchange(now, era + 1, Relaxed, Relaxed);
                }
                return (idx, slot.ver.load(Relaxed));
            }
        }
        // Fresh path: bump-allocate, growing the spine on demand.
        let id = self.len.fetch_add(1, Relaxed);
        assert!((id as u64) < NULL_IDX.min(FREE_NONE), "VBR arena exhausted");
        let (k, _) = split(id);
        self.chunks[k]
            .get_or_init(|| (0..(1usize << CHUNK0_BITS) << k).map(|_| Slot::new()).collect());
        (id as u64, self.slot(id as u64).ver.load(Relaxed))
    }
}

#[cfg(test)]
impl<T> VbrDomain<T> {
    /// Slots the arena has handed out fresh; recycled ones do not count.
    pub(crate) fn slots(&self) -> usize {
        self.len.load(Relaxed)
    }
}

/// Validates that `slot` is still in the lifetime `expected_ver` names.
///
/// The relaxed recheck is sound: see the module docs — any new-lifetime
/// value a reader can have observed is release-published after the bump,
/// so coherence forces the recheck to see the bump too.
fn validate<T>(slot: &Slot<T>, expected_ver: u64) -> bool {
    #[cfg(rsched_model)]
    if rsched_sync::model::mutation_enabled("vbr-skip-version-recheck") {
        // Seeded mutant: trust the speculative read without rechecking the
        // slot version — stale reads from a recycled slot then validate.
        return true;
    }
    slot.ver.load(Relaxed) & SVER_MASK == expected_ver & SVER_MASK
}

// SAFETY: the version protocol provides the trait's contract — validated
// reads recheck the slot version after acquire loads (single-lifetime
// guarantee, see module docs for the coherence argument); `cas_next` embeds
// the owner's version bits in both expected and new words so a stale CAS
// on a retired/recycled slot always fails; a successful marking CAS proves
// no retire preceded it, so the speculative payload copy read the claimed
// lifetime; retire bumps the version before the slot re-enters the free
// list, making every new lifetime distinguishable.
unsafe impl Reclaim for Vbr {
    type Domain<T: Send> = VbrDomain<T>;
    type Guard<T: Send> = VbrGuard;
    type Ptr<T: Send> = VbrPtr<T>;
    /// Slots come off the arena's free list one at a time.
    type Stash<T: Send> = ();

    fn name() -> &'static str {
        "vbr"
    }

    fn new_domain<T: Send>() -> VbrDomain<T> {
        VbrDomain::new()
    }

    fn pin<T: Send>(_dom: &VbrDomain<T>) -> VbrGuard {
        VbrGuard
    }

    fn flush<T: Send>(_dom: &VbrDomain<T>, _guard: &VbrGuard) {}

    fn null<T: Send>() -> VbrPtr<T> {
        VbrPtr::new(NULL_IDX, 0, 0)
    }

    fn is_null<T: Send>(ptr: VbrPtr<T>) -> bool {
        ptr.idx() == NULL_IDX
    }

    fn tag<T: Send>(ptr: VbrPtr<T>) -> usize {
        ptr.tag_bit() as usize
    }

    fn with_tag<T: Send>(ptr: VbrPtr<T>, tag: usize) -> VbrPtr<T> {
        VbrPtr((ptr.0 & !1) | (tag as u64 & 1), PhantomData)
    }

    fn to_word<T: Send>(ptr: VbrPtr<T>) -> u64 {
        ptr.0
    }

    fn from_word<T: Send>(word: u64) -> VbrPtr<T> {
        VbrPtr(word, PhantomData)
    }

    fn stash<T: Send>(_dom: &VbrDomain<T>, _n: usize) {}

    fn unstash<T: Send>(_dom: &VbrDomain<T>, (): ()) {}

    fn alloc<T: Send>(
        dom: &VbrDomain<T>,
        _stash: &mut (),
        key: (u64, u32),
        item: Option<T>,
    ) -> VbrPtr<T> {
        let (idx, free_ver) = dom.acquire_slot();
        let slot = dom.slot(idx);
        debug_assert!(free_ver % 2 == 1, "acquired slot not in a free lifetime");
        let live_ver = free_ver.wrapping_add(1);
        if let Some(item) = item {
            // SAFETY: `acquire_slot` hands out exclusive ownership; no
            // reader dereferences the payload until this node is published
            // and marked, and stale readers of the previous lifetime
            // discard their copies on validation failure.
            unsafe { (*slot.payload.get()) = MaybeUninit::new(item) };
        }
        // Release stores: a stale reader that observes any of these through
        // its acquire load is ordered after the retire bump (module docs),
        // which is what makes the relaxed recheck sound.
        slot.key_prio.store(key.0, Release);
        slot.key_seq.store(key.1, Release);
        slot.next.store(pack_link(live_ver, NULL_IDX, 0, 0), Release);
        slot.ver.store(live_ver, Release);
        VbrPtr::new(idx, live_ver, 0)
    }

    fn set_next_exclusive<T: Send>(dom: &VbrDomain<T>, node: VbrPtr<T>, next: VbrPtr<T>) {
        let slot = dom.slot(node.idx());
        slot.next.store(pack_link(node.ver(), next.idx(), next.ver(), next.tag_bit()), Release);
    }

    fn key<T: Send>(dom: &VbrDomain<T>, node: VbrPtr<T>, _guard: &VbrGuard) -> Option<(u64, u32)> {
        let slot = dom.slot(node.idx());
        let prio = slot.key_prio.load(Acquire);
        let seq = slot.key_seq.load(Acquire);
        validate(slot, node.ver()).then_some((prio, seq))
    }

    fn load_next<T: Send>(
        dom: &VbrDomain<T>,
        node: VbrPtr<T>,
        _guard: &VbrGuard,
    ) -> Option<VbrPtr<T>> {
        let slot = dom.slot(node.idx());
        let word = slot.next.load(Acquire);
        if !validate(slot, node.ver()) {
            return None;
        }
        debug_assert_eq!(
            (word >> 1) & OWNER_MASK,
            node.ver() & OWNER_MASK,
            "validated link word stamped by a different lifetime"
        );
        Some(VbrPtr::new(word >> 37, (word >> 17) & SVER_MASK, word & 1))
    }

    fn cas_next<T: Send>(
        dom: &VbrDomain<T>,
        node: VbrPtr<T>,
        current: VbrPtr<T>,
        new: VbrPtr<T>,
        _guard: &VbrGuard,
    ) -> bool {
        let slot = dom.slot(node.idx());
        let cur = pack_link(node.ver(), current.idx(), current.ver(), current.tag_bit());
        let new = pack_link(node.ver(), new.idx(), new.ver(), new.tag_bit());
        // The owner-version bits in `cur` stamp this CAS with `node`'s
        // lifetime: once the slot is retired (or recycled) the stored word
        // carries different owner bits, so a stale CAS cannot succeed.
        slot.next.compare_exchange(cur, new, AcqRel, Relaxed).is_ok()
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller only assumes the copy initialized after winning the marking
    // CAS on `node`'s lifetime.
    unsafe fn peek_payload<T: Send>(
        dom: &VbrDomain<T>,
        node: VbrPtr<T>,
        _guard: &VbrGuard,
    ) -> MaybeUninit<T> {
        let slot = dom.slot(node.idx());
        // SAFETY: the arena is type-stable, so the slot memory is always
        // valid for a raw `MaybeUninit<T>` copy. The copy is speculative
        // (VBR's "dirty read"): it is only treated as initialized if the
        // caller subsequently wins the marking CAS on `node`, which proves
        // no retire — and hence no reallocation overwrite — preceded it.
        unsafe { ptr::read(slot.payload.get() as *const MaybeUninit<T>) }
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller unlinked the chain and retires each lifetime at most once.
    unsafe fn retire_chain<T: Send>(
        dom: &VbrDomain<T>,
        first: VbrPtr<T>,
        last: VbrPtr<T>,
        len: usize,
        _guard: &VbrGuard,
    ) {
        rsched_obs::counter!(r#"reclaim_retire_total{backend="vbr"}"#).add(len as u64);
        let era = dom.clock.load(Relaxed);
        let mut node = first;
        for i in 0..len {
            let slot = dom.slot(node.idx());
            // Frozen: the node is marked, and unlinked by the caller.
            let word = slot.next.load(Relaxed);
            let ver = slot.ver.load(Relaxed);
            debug_assert_eq!(ver & SVER_MASK, node.ver(), "double retire or foreign lifetime");
            // End the lifetime *before* the slot becomes reachable through
            // the free list: the bump is what every validated read checks.
            slot.ver.store(ver.wrapping_add(1), Release);
            slot.era.store(era, Release);
            if i + 1 < len {
                node = VbrPtr::new(word >> 37, (word >> 17) & SVER_MASK, 0);
                // The chain keeps its order on the free list.
                slot.free.store(node.idx(), Relaxed);
            }
        }
        debug_assert_eq!(node.idx(), last.idx(), "chain of {len} does not end at `last`");
        // Version-stamped Treiber push of the whole chain.
        let tail = dom.slot(last.idx());
        loop {
            let head = dom.free_head.load(Relaxed);
            tail.free.store(head & u32::MAX as u64, Relaxed);
            let new_head = ((head >> 32).wrapping_add(1)) << 32 | first.idx();
            if dom.free_head.compare_exchange(head, new_head, Release, Relaxed).is_ok() {
                return;
            }
        }
    }

    // SAFETY: contract inherited from the trait's `# Safety` section —
    // caller holds exclusive access (structure teardown) and reports
    // payload ownership truthfully via `drop_payload`.
    unsafe fn dealloc_exclusive<T: Send>(dom: &VbrDomain<T>, node: VbrPtr<T>, drop_payload: bool) {
        rsched_obs::counter!(r#"reclaim_dealloc_total{backend="vbr"}"#).inc();
        let slot = dom.slot(node.idx());
        if drop_payload {
            // SAFETY: caller contract — exclusive access and the payload
            // was never claimed by a marking-CAS winner.
            unsafe { (*slot.payload.get()).assume_init_drop() };
        }
        let ver = slot.ver.load(Relaxed);
        slot.ver.store(ver.wrapping_add(1), Release);
        // No free-list push: exclusive deallocation only happens while the
        // owning structure is being dropped, taking the arena with it.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_matches_doubling_chunks() {
        assert_eq!(split(0), (0, 0));
        assert_eq!(split(1023), (0, 1023));
        assert_eq!(split(1024), (1, 0));
        assert_eq!(split(1024 + 2047), (1, 2047));
        assert_eq!(split(3072), (2, 0));
    }

    #[test]
    fn link_word_round_trips() {
        let w = pack_link(0xabcd, 42, 7, 1);
        assert_eq!(w & 1, 1);
        assert_eq!((w >> 1) & OWNER_MASK, 0xabcd);
        assert_eq!((w >> 17) & SVER_MASK, 7);
        assert_eq!(w >> 37, 42);
    }

    #[test]
    fn alloc_retire_realloc_bumps_version() {
        let dom: VbrDomain<u32> = Vbr::new_domain();
        let g = Vbr::pin(&dom);
        let p0 = Vbr::alloc(&dom, &mut (), (1, 2), Some(5u32));
        assert_eq!(Vbr::key(&dom, p0, &g), Some((1, 2)));
        // Claim the payload by marking, then retire.
        let next = Vbr::load_next(&dom, p0, &g).unwrap();
        assert!(Vbr::cas_next(&dom, p0, next, Vbr::with_tag(next, 1), &g));
        // SAFETY: marked above by this thread; speculative copy claimed.
        let item = unsafe { Vbr::peek_payload(&dom, p0, &g).assume_init() };
        assert_eq!(item, 5);
        // SAFETY: single-threaded test; this is the unique retire.
        unsafe { Vbr::retire_chain(&dom, p0, p0, 1, &g) };
        // Stale reads through the old pointer now fail validation.
        assert_eq!(Vbr::key(&dom, p0, &g), None);
        assert!(Vbr::load_next(&dom, p0, &g).is_none());
        // Reallocation reuses the slot under a fresh version.
        let p1 = Vbr::alloc(&dom, &mut (), (9, 9), Some(6u32));
        assert_eq!(p1.idx(), p0.idx(), "free list should hand the slot back");
        assert_ne!(p1.ver(), p0.ver());
        assert_eq!(Vbr::key(&dom, p1, &g), Some((9, 9)));
        // A CAS stamped with the dead lifetime cannot touch the new one.
        assert!(!Vbr::cas_next(&dom, p0, next, Vbr::with_tag(next, 1), &g));
        assert_eq!(Vbr::key(&dom, p1, &g), Some((9, 9)));
    }

    #[test]
    fn clock_advances_past_retire_era() {
        let dom: VbrDomain<()> = Vbr::new_domain();
        let g = Vbr::pin(&dom);
        let before = dom.clock.load(Relaxed);
        let p = Vbr::alloc(&dom, &mut (), (0, 0), Some(()));
        let n = Vbr::load_next(&dom, p, &g).unwrap();
        assert!(Vbr::cas_next(&dom, p, n, Vbr::with_tag(n, 1), &g));
        // SAFETY: single-threaded test; unique retire of a marked node.
        unsafe { Vbr::retire_chain(&dom, p, p, 1, &g) };
        let _p2 = Vbr::alloc(&dom, &mut (), (0, 1), Some(()));
        assert!(dom.clock.load(Relaxed) > before, "reuse must advance the epoch clock");
    }
}
