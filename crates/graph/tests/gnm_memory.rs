//! `gen::gnm` deduplicates its draws by sorting a vector of pair keys, not
//! through a hash set. A counting global allocator pins what that buys: the
//! peak live bytes while sampling a sparse `G(n, m)`, summed over the
//! threads that sort the keys and fill the CSR. This file is its own test
//! binary, so nothing else allocates meanwhile.

use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_graph::gen;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// The system allocator, counting the bytes held and their high-water mark.
/// Zeroed allocations and reallocations take the trait's default paths
/// through `alloc` and `dealloc`, so a moving reallocation counts both
/// blocks, as it holds both.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// SAFETY: forwards `alloc` and `dealloc` to `System` unchanged, and the
// trait's other methods are its defaults built on them; the counters are
// statistics that publish nothing.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: the contract of `GlobalAlloc::alloc`, forwarded below.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let live = LIVE.fetch_add(layout.size(), Relaxed) + layout.size();
        PEAK.fetch_max(live, Relaxed);
        // SAFETY: the caller's contract for `alloc`, passed on.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the contract of `GlobalAlloc::dealloc`, forwarded below.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        // SAFETY: the caller's contract for `dealloc`, passed on.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn sparse_gnm_peaks_near_its_keys_and_csr() {
    const N: usize = 200_000;
    const M: usize = 2_000_000;
    // Two phases peak: the drawn keys (8 bytes a pair) beside the buffer
    // they are partitioned into for sorting, then the sorted keys beside
    // the CSR (8m of adjacency, one n + 1 long `usize` array). They hold
    // the same 16m + 8n bytes, 32.1 MiB here, because the partition buffer
    // is the adjacency array before it is filled. The hash-set generator
    // held a table sized for 2m pairs (2^23 buckets of 9 bytes), its edge
    // list and the CSR: 107.1 MiB. The bound sits between them, half again
    // above the former.
    const BOUND: usize = 24 * M + 32 * N;
    let mut rng = StdRng::seed_from_u64(1);
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let g = gen::gnm(N, M, &mut rng);
    let peak = PEAK.load(Relaxed) - base;
    assert_eq!(g.num_edges(), M);
    assert!(
        peak < BOUND,
        "gnm({N}, {M}) peaked at {:.1} MiB live, over the {:.1} MiB bound",
        peak as f64 / (1 << 20) as f64,
        BOUND as f64 / (1 << 20) as f64,
    );
}
