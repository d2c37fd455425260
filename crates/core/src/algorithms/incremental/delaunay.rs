//! Randomized incremental 2D Delaunay triangulation (Bowyer–Watson).
//!
//! Each task inserts one point: locate it, collect the *cavity* (every cell
//! whose circumdisk contains it), and re-triangulate the cavity as a fan
//! around the new point. Point location is the classic conflict-bucket
//! structure of randomized incremental construction: every uninserted point
//! is bucketed in the cell that contains it, and buckets are redistributed
//! when their cell dies — so location is O(1) at pop time and the buckets
//! double as the *dependency oracle*.
//!
//! **Conflict/retry semantics.** When a relaxed scheduler pops point `p`
//! out of order, an earlier point `q` (smaller permutation label) may still
//! be uninserted inside `p`'s containing cell. Inserting `p` first would
//! destroy the very cell that defines `q`'s history — the dependency the
//! incremental-algorithms analysis (arXiv 2003.09363) bounds. The task
//! oracle therefore reports `p` [`TaskOutcome::Blocked`] (a failed delete;
//! the executor re-inserts it) whenever its bucket holds a smaller-label
//! uninserted point. The smallest-label uninserted point is never blocked,
//! so the run always terminates; the number of failed deletes is the
//! measured "extra work of relaxation", and the dependency-depth argument
//! predicts it stays `poly(k)` for a `k`-relaxed scheduler.
//!
//! **Geometry.** Exact integer predicates only (`rsched_graph::geom`). The
//! unbounded outside is handled with a *ghost vertex* rather than a huge
//! super-triangle: every hull edge carries a ghost cell `(u, v, GHOST)`
//! whose "circumdisk" is the open half-plane beyond the edge plus the open
//! edge itself (Shewchuk's convention), so the structure is a triangulation
//! of the topological sphere and cavity re-triangulation never
//! special-cases the hull. This avoids the super-triangle's unfixable
//! failure mode (skinny hull triangles whose circumcircles swallow any
//! finite far-away vertex) and keeps all arithmetic within the
//! exact-predicate coordinate bound.
//!
//! **Shared writes.** [`ConcurrentDelaunay`] inserts under per-cell flags
//! and writes no line that every worker writes: a worker takes its fan
//! cells' ids from a block of the cell arena it claimed for itself (the ids
//! a block leaves unused are *holes*, default cells nothing links to), and
//! [`DelaunayOutput`]'s `created` / `destroyed` are counted off the arena
//! after the run instead of by every insert.
//!
//! Ties: for cocircular point sets (the degenerate grid generator) the
//! Delaunay triangulation is not unique and the insertion order picks among
//! the valid tie-breakings, so different schedulers may produce different —
//! all verifier-clean — triangulations. [`verify_delaunay`] checks the
//! order-independent invariants: empty circumcircles, exact convex-hull
//! coverage (Euler count + area), and CCW orientation.

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use crossbeam::utils::CachePadded;
use rsched_graph::geom::{in_circle, on_open_segment, orient2d, Point};
use rsched_graph::Permutation;
use std::cell::{RefCell, UnsafeCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// The vertex "at infinity" closing the triangulation into a sphere.
pub const GHOST: u32 = u32::MAX;

/// Where an uninserted point currently lives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Loc {
    /// Bucketed in the cell with this index.
    Pending(u32),
    /// A vertex of the triangulation.
    Inserted,
    /// Coordinate-equal to an earlier (label-order) point; never inserted.
    Duplicate,
}

/// One cell of the sphere triangulation: a real triangle or a ghost cell
/// (exactly one vertex == [`GHOST`]). `nbr[i]` is the cell across the edge
/// opposite `v[i]`, i.e. the directed edge `(v[i+1], v[i+2])`.
#[derive(Clone, Debug)]
struct Cell {
    v: [u32; 3],
    nbr: [u32; 3],
    bucket: Vec<u32>,
    alive: bool,
    mark: u32,
}

/// The mutable Bowyer–Watson state of [`delaunay_reference`], which also
/// seeds [`ConcurrentDelaunay`].
#[derive(Debug)]
pub struct Triangulation {
    pts: Vec<Point>,
    labels: Vec<u32>,
    cells: Vec<Cell>,
    loc: Vec<Loc>,
    stamp: u32,
    inserted: usize,
    created: u64,
    destroyed: u64,
    /// No non-collinear triple exists: nothing to triangulate, insertions
    /// are trivial bookkeeping.
    degenerate: bool,
}

/// The output of a Delaunay run: the triangle list (vertex-id triples,
/// CCW, rotated so the smallest id leads, sorted) plus the structural-work
/// counters the incremental bench reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelaunayOutput {
    /// Final triangles over the input point ids (duplicates never appear).
    pub triangles: Vec<[u32; 3]>,
    /// Cells created over the whole run (fan cells, incl. ghosts).
    pub created: u64,
    /// Cells destroyed over the whole run (cavity cells, incl. ghosts).
    pub destroyed: u64,
}

impl Triangulation {
    /// Builds the initial state: filters coordinate duplicates (first
    /// occurrence in label order wins), seeds the triangulation with the
    /// first non-collinear triple in label order, and buckets every other
    /// point. The seed choice is a pure function of `(points, pi)`, so
    /// every scheduler starts from the identical structure.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != points.len()`.
    pub fn new(points: &[Point], pi: &Permutation) -> Self {
        let n = points.len();
        assert_eq!(n, pi.len(), "permutation size must match point count");
        let mut loc = vec![Loc::Pending(0); n];
        let mut seen: std::collections::HashMap<Point, u32> =
            std::collections::HashMap::with_capacity(n);
        // Label-order scan: duplicates and the seed triple are decided here.
        let mut seed: Vec<u32> = Vec::with_capacity(3);
        for pos in 0..n as u32 {
            let t = pi.task_at(pos);
            if seen.insert(points[t as usize], t).is_some() {
                loc[t as usize] = Loc::Duplicate;
                continue;
            }
            match seed.len() {
                0 | 1 => seed.push(t),
                2 if orient2d(
                    points[seed[0] as usize],
                    points[seed[1] as usize],
                    points[t as usize],
                ) != 0 =>
                {
                    seed.push(t)
                }
                _ => {}
            }
        }
        let mut tri = Triangulation {
            pts: points.to_vec(),
            labels: (0..n as u32).map(|v| pi.label(v)).collect(),
            cells: Vec::new(),
            loc,
            stamp: 0,
            inserted: 0,
            created: 0,
            destroyed: 0,
            degenerate: seed.len() < 3,
        };
        if tri.degenerate {
            return tri;
        }
        let (a, mut b, mut c) = (seed[0], seed[1], seed[2]);
        if orient2d(points[a as usize], points[b as usize], points[c as usize]) < 0 {
            std::mem::swap(&mut b, &mut c);
        }
        // Seed sphere: one real triangle and three ghost cells, the
        // tetrahedron topology (adjacency table derived in the tests).
        tri.cells = vec![
            Cell { v: [a, b, c], nbr: [1, 2, 3], bucket: Vec::new(), alive: true, mark: 0 },
            Cell { v: [c, b, GHOST], nbr: [3, 2, 0], bucket: Vec::new(), alive: true, mark: 0 },
            Cell { v: [a, c, GHOST], nbr: [1, 3, 0], bucket: Vec::new(), alive: true, mark: 0 },
            Cell { v: [b, a, GHOST], nbr: [2, 1, 0], bucket: Vec::new(), alive: true, mark: 0 },
        ];
        tri.created = 4;
        for s in [a, b, c] {
            tri.loc[s as usize] = Loc::Inserted;
            tri.inserted += 1;
        }
        for q in 0..n as u32 {
            if matches!(tri.loc[q as usize], Loc::Pending(_)) {
                let cell = tri.locate(0, points[q as usize]);
                tri.cells[cell as usize].bucket.push(q);
                tri.loc[q as usize] = Loc::Pending(cell);
            }
        }
        tri
    }

    /// Whether `task` is already decided (inserted seed or duplicate).
    fn decided(&self, task: TaskId) -> bool {
        !matches!(self.loc[task as usize], Loc::Pending(_))
    }

    /// Whether `p` lies in the conflict region ("circumdisk") of `cell`:
    /// strict in-circle for real cells; for a ghost cell, strictly left of
    /// its real directed edge or on the open edge itself.
    fn conflicts(&self, cell: u32, p: Point) -> bool {
        let c = &self.cells[cell as usize];
        if let Some(k) = c.v.iter().position(|&v| v == GHOST) {
            let u = self.pts[c.v[(k + 1) % 3] as usize];
            let w = self.pts[c.v[(k + 2) % 3] as usize];
            orient2d(u, w, p) > 0 || on_open_segment(u, w, p)
        } else {
            let [a, b, cc] = c.v;
            in_circle(self.pts[a as usize], self.pts[b as usize], self.pts[cc as usize], p) > 0
        }
    }

    /// Whether `cell`'s closed region contains `p` — the bucketing rule.
    /// For any point distinct from all vertices, a match implies
    /// [`Triangulation::conflicts`] (a closed triangle lies in its open
    /// circumdisk except at the vertices; the ghost rule *is* its conflict
    /// rule), which is what cavity search relies on.
    fn bucket_match(&self, cell: u32, p: Point) -> bool {
        let c = &self.cells[cell as usize];
        if c.v.contains(&GHOST) {
            return self.conflicts(cell, p);
        }
        let [a, b, cc] = c.v.map(|v| self.pts[v as usize]);
        orient2d(a, b, p) >= 0 && orient2d(b, cc, p) >= 0 && orient2d(cc, a, p) >= 0
    }

    /// Fresh BFS stamp (resetting all marks on the rare wrap).
    fn next_stamp(&mut self) -> u32 {
        if self.stamp == u32::MAX {
            self.stamp = 0;
            for c in &mut self.cells {
                c.mark = 0;
            }
        }
        self.stamp += 1;
        self.stamp
    }

    /// The alive cell whose region holds `p`, by BFS from `start`. The
    /// match rules tile the whole plane, so this always succeeds.
    fn locate(&mut self, start: u32, p: Point) -> u32 {
        let stamp = self.next_stamp();
        let mut queue: Vec<u32> = vec![start];
        self.cells[start as usize].mark = stamp;
        let mut i = 0;
        while i < queue.len() {
            let cell = queue[i];
            i += 1;
            if self.bucket_match(cell, p) {
                return cell;
            }
            for j in 0..3 {
                let n = self.cells[cell as usize].nbr[j];
                let nc = &mut self.cells[n as usize];
                if nc.alive && nc.mark != stamp {
                    nc.mark = stamp;
                    queue.push(n);
                }
            }
        }
        unreachable!("point ({}, {}) matched no cell — the tiling rules are broken", p.x, p.y)
    }

    /// Inserts pending point `task`: cavity search from its bucket cell,
    /// carve, fan re-triangulation, bucket redistribution.
    fn insert(&mut self, task: TaskId) {
        let p = self.pts[task as usize];
        if self.degenerate {
            self.loc[task as usize] = Loc::Inserted;
            self.inserted += 1;
            return;
        }
        let Loc::Pending(start) = self.loc[task as usize] else {
            panic!("insert called on a decided task {task}");
        };
        debug_assert!(self.conflicts(start, p), "bucket cell must conflict with its point");

        // Cavity: BFS over conflicting cells (the conflict region is
        // edge-connected and contains the bucket cell).
        let stamp = self.next_stamp();
        let mut cavity: Vec<u32> = vec![start];
        self.cells[start as usize].mark = stamp;
        let mut i = 0;
        while i < cavity.len() {
            let cell = cavity[i];
            i += 1;
            for j in 0..3 {
                let n = self.cells[cell as usize].nbr[j];
                if self.cells[n as usize].mark != stamp && self.conflicts(n, p) {
                    self.cells[n as usize].mark = stamp;
                    cavity.push(n);
                }
            }
        }

        // Boundary: directed edges (a → b) of cavity cells whose neighbor
        // survives, with the surviving cell and its edge slot for rewiring.
        let mut boundary: Vec<(u32, u32, u32, usize)> = Vec::with_capacity(cavity.len() + 2);
        for &cell in &cavity {
            for j in 0..3 {
                let outer = self.cells[cell as usize].nbr[j];
                if self.cells[outer as usize].mark != stamp {
                    let cv = self.cells[cell as usize].v;
                    let slot = self.cells[outer as usize]
                        .nbr
                        .iter()
                        .position(|&b| b == cell)
                        .expect("adjacency must be symmetric");
                    boundary.push((cv[(j + 1) % 3], cv[(j + 2) % 3], outer, slot));
                }
            }
        }

        // Carve: kill cavity cells, pooling their buckets for relocation.
        let mut displaced: Vec<u32> = Vec::new();
        for &cell in &cavity {
            let c = &mut self.cells[cell as usize];
            c.alive = false;
            displaced.extend(c.bucket.drain(..).filter(|&q| q != task));
        }
        self.destroyed += cavity.len() as u64;

        // Fan: one new cell per boundary edge, neighbor-linked by matching
        // the shared start/end vertices around the (simple) boundary cycle.
        let base = self.cells.len() as u32;
        for (idx, &(a, b, outer, slot)) in boundary.iter().enumerate() {
            let new = base + idx as u32;
            self.cells.push(Cell {
                v: [task, a, b],
                nbr: [outer, u32::MAX, u32::MAX],
                bucket: Vec::new(),
                alive: true,
                mark: 0,
            });
            self.cells[outer as usize].nbr[slot] = new;
        }
        for (idx, &(a, b, ..)) in boundary.iter().enumerate() {
            // Across edge (b → task): the fan cell whose boundary edge
            // starts at b. Across (task → a): the one ending at a.
            let after = boundary.iter().position(|&(s, ..)| s == b).expect("boundary is a cycle");
            let before =
                boundary.iter().position(|&(_, e, ..)| e == a).expect("boundary is a cycle");
            let cell = &mut self.cells[(base + idx as u32) as usize];
            cell.nbr[1] = base + after as u32;
            cell.nbr[2] = base + before as u32;
        }
        self.created += boundary.len() as u64;

        // Rebucket the displaced points among (and, in the rare corner
        // where a point's conflict cell survives elsewhere, beyond) the fan.
        for q in displaced {
            let cell = self.locate(base, self.pts[q as usize]);
            self.cells[cell as usize].bucket.push(q);
            self.loc[q as usize] = Loc::Pending(cell);
        }
        self.loc[task as usize] = Loc::Inserted;
        self.inserted += 1;
    }

    /// The current real triangles, CCW, rotated to lead with the smallest
    /// vertex id, sorted — the canonical comparable form.
    pub fn triangles(&self) -> Vec<[u32; 3]> {
        let mut out: Vec<[u32; 3]> = self
            .cells
            .iter()
            .filter(|c| c.alive && !c.v.contains(&GHOST))
            .map(|c| {
                let m = (0..3).min_by_key(|&i| c.v[i]).expect("three vertices");
                [c.v[m], c.v[(m + 1) % 3], c.v[(m + 2) % 3]]
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// Consumes the state into the run output.
    pub fn into_output(self) -> DelaunayOutput {
        DelaunayOutput {
            triangles: self.triangles(),
            created: self.created,
            destroyed: self.destroyed,
        }
    }
}

/// The sequential reference: inserts every point in permutation-label
/// order. Ground truth for the framework's exact run and the baseline the
/// bench's structural-work ("churn") columns compare against.
pub fn delaunay_reference(points: &[Point], pi: &Permutation) -> DelaunayOutput {
    let mut tri = Triangulation::new(points, pi);
    for pos in 0..pi.len() as u32 {
        let t = pi.task_at(pos);
        if !tri.decided(t) {
            tri.insert(t);
        }
    }
    tri.into_output()
}

// ---------------------------------------------------------------------------
// Fine-grained concurrent triangulation
// ---------------------------------------------------------------------------

/// `loc` value in the concurrent structure: the point is a vertex.
const LOC_INSERTED: u32 = u32::MAX;
/// `loc` value in the concurrent structure: a coordinate duplicate.
const LOC_DUPLICATE: u32 = u32::MAX - 1;

/// One cell of the concurrent triangulation, living in the append-only
/// [`CellArena`]. Field protocol:
///
/// * `v` — immutable once the cell id is published (written by the creator
///   before any `nbr`/`loc` store makes the id reachable; readers get the
///   happens-before edge from that publishing Release/Acquire pair, so
///   `Relaxed` loads suffice).
/// * `locked` — the cell's lock, a flag that is only ever *tried*: taken by
///   `compare_exchange(false, true, Acquire, Relaxed)`, cleared by a
///   `Release` store when the [`Held`] guard drops.
/// * `nbr`, `alive` — readable by lock-free speculation at any time;
///   *written* only by a thread holding `locked`.
/// * `bucket` — accessed (read or write) only under `locked`, except that
///   the creator fills a fan cell's bucket between allocation and
///   publication, while the id is still unreachable.
struct ConcCell {
    v: [AtomicU32; 3],
    nbr: [AtomicU32; 3],
    alive: AtomicBool,
    locked: AtomicBool,
    bucket: UnsafeCell<Vec<u32>>,
}

// SAFETY: `bucket` (the one non-Sync field) is only touched under `locked`
// or before the cell is published, per the field protocol above.
unsafe impl Sync for ConcCell {}

impl Default for ConcCell {
    fn default() -> Self {
        ConcCell {
            v: [AtomicU32::new(GHOST), AtomicU32::new(GHOST), AtomicU32::new(GHOST)],
            nbr: [AtomicU32::new(u32::MAX), AtomicU32::new(u32::MAX), AtomicU32::new(u32::MAX)],
            alive: AtomicBool::new(false),
            locked: AtomicBool::new(false),
            bucket: UnsafeCell::new(Vec::new()),
        }
    }
}

/// The taken prefix of a sorted lockset. Dropping it clears those flags
/// with `Release` stores — on every return path and on unwind — so the next
/// taker's `Acquire` sees every write made under them.
struct Held<'a> {
    arena: &'a CellArena,
    ids: &'a [u32],
    taken: usize,
}

impl<'a> Held<'a> {
    /// Try-takes every flag of `ids` in order and checks, under each flag,
    /// that its cell is still alive; `None` at the first flag already set
    /// or the first dead cell, with the prefix taken so far released.
    fn try_take_alive(arena: &'a CellArena, ids: &'a [u32]) -> Option<Self> {
        let mut held = Held { arena, ids, taken: 0 };
        for &id in ids {
            let cell = arena.get(id);
            if cell
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                return None;
            }
            held.taken += 1;
            // `alive` is written only under the flag just taken, so the
            // Acquire above orders this load after the last such write.
            if !cell.alive.load(Ordering::Relaxed) {
                return None;
            }
        }
        Some(held)
    }
}

impl Drop for Held<'_> {
    fn drop(&mut self) {
        for &id in &self.ids[..self.taken] {
            self.arena.get(id).locked.store(false, Ordering::Release);
        }
    }
}

/// A cell's closed bucketing region ([`Triangulation::bucket_match`]) with
/// its vertices resolved to points: a real triangle, or a ghost cell's
/// directed hull edge `(u, w)`.
#[derive(Clone, Copy)]
enum Region {
    Tri([Point; 3]),
    Ghost(Point, Point),
}

impl Region {
    fn contains(&self, p: Point) -> bool {
        match *self {
            Region::Tri([a, b, c]) => {
                orient2d(a, b, p) >= 0 && orient2d(b, c, p) >= 0 && orient2d(c, a, p) >= 0
            }
            Region::Ghost(u, w) => orient2d(u, w, p) > 0 || on_open_segment(u, w, p),
        }
    }

    /// Whether `p` is strictly inside a real triangle; `false` for a ghost
    /// cell.
    fn holds_strictly(&self, p: Point) -> bool {
        match *self {
            Region::Tri([a, b, c]) => {
                orient2d(a, b, p) > 0 && orient2d(b, c, p) > 0 && orient2d(c, a, p) > 0
            }
            Region::Ghost(..) => false,
        }
    }
}

/// Fan-cell ids a worker claims from an arena at a time: a fan is about six
/// cells, so one `fetch_add` on [`CellArena::len`] serves some forty
/// inserts. A constant, not a parameter.
const ID_BLOCK: usize = 256;

/// The unused tail `next..end` of the id block a worker last claimed, from
/// the arena of the [`ConcurrentDelaunay`] whose `instance` is `owner`
/// (0: none yet).
struct IdBlock {
    owner: u64,
    next: u32,
    end: u32,
}

/// Asks the cache for the line holding `x`, ahead of a read that would
/// otherwise wait for it; a no-op off x86-64.
#[inline(always)]
fn prefetch<T>(x: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: a prefetch is a hint: it reads nothing the program sees and
    // cannot fault, and SSE, which it needs, is in the x86-64 baseline.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(x).cast::<i8>());
    }
}

/// Every per-insert buffer of [`ConcurrentDelaunay::try_process`], one set
/// per worker thread, cleared before each use: once these have grown to
/// the largest cavity seen, an insert allocates none of its own buffers.
struct Scratch {
    /// Speculated cavity and its ring of surviving neighbors — once
    /// validated, the authoritative ones.
    cavity: Vec<u32>,
    ring: Vec<u32>,
    /// Sorted cavity ∪ ring: the flags to take.
    lockset: Vec<u32>,
    /// Boundary edges `(a, b, outer, slot in outer)`, in cavity order.
    boundary: Vec<(u32, u32, u32, usize)>,
    displaced: Vec<u32>,
    relocated: Vec<(u32, u32)>,
    /// Bucketing regions of the fan cells, then (once a displaced point
    /// matches none of those) of the ring cells.
    regions: Vec<Region>,
    /// The worker's fan-cell ids.
    ids: IdBlock,
}

impl Scratch {
    const fn new() -> Self {
        Scratch {
            cavity: Vec::new(),
            ring: Vec::new(),
            lockset: Vec::new(),
            boundary: Vec::new(),
            displaced: Vec::new(),
            relocated: Vec::new(),
            regions: Vec::new(),
            ids: IdBlock { owner: 0, next: 0, end: 0 },
        }
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = const { RefCell::new(Scratch::new()) };
}

/// Cells per first chunk (log2); chunk `k` holds `1024 << k` cells.
const CHUNK0_BITS: u32 = 10;
/// 21 geometric chunks cover `1024·(2^21 − 1)` ≈ 2.1 billion cells, the
/// practical bound for `u32` cell ids below the two `loc` sentinels.
const MAX_CHUNKS: usize = 21;

/// Append-only concurrent cell arena: a fixed spine of lazily initialized,
/// geometrically growing chunks. Cell ids are stable for the lifetime of
/// the arena and never reused, so stale ids read by speculation stay safe
/// to dereference (they resolve to dead cells, never to freed memory).
///
/// Workers claim ids in blocks of [`ID_BLOCK`], so below `len` lie ids no
/// insert used — the tail of a block too short for the next fan, or left
/// when the run ended. Such a *hole* stays the default cell: dead, all
/// vertices [`GHOST`] (no real cell has more than one), unlinked, so
/// nothing reads it but [`ConcurrentDelaunay::into_output`], which skips it.
struct CellArena {
    chunks: [OnceLock<Box<[ConcCell]>>; MAX_CHUNKS],
    /// Bumped once per id block; padded off the `chunks` line every cell
    /// lookup reads.
    len: CachePadded<AtomicUsize>,
}

impl CellArena {
    fn new() -> Self {
        CellArena {
            chunks: std::array::from_fn(|_| OnceLock::new()),
            len: CachePadded::new(AtomicUsize::new(0)),
        }
    }

    /// Chunk index and offset for a cell id: chunk `k` starts at
    /// `1024·(2^k − 1)`.
    fn split(id: usize) -> (usize, usize) {
        let block = (id >> CHUNK0_BITS) + 1;
        let k = (usize::BITS - 1 - block.leading_zeros()) as usize;
        (k, id - (((1usize << k) - 1) << CHUNK0_BITS))
    }

    fn get(&self, id: u32) -> &ConcCell {
        let (k, off) = Self::split(id as usize);
        &self.chunks[k].get().expect("published cell id implies an initialized chunk")[off]
    }

    /// Reserves `count` fresh cell ids and materializes their chunks.
    /// The cells are unpublished: only the caller knows the ids until it
    /// stores them into a neighbor link or `loc` slot.
    fn alloc(&self, count: usize) -> u32 {
        let start = self.len.fetch_add(count, Ordering::Relaxed);
        let end = start + count;
        assert!(end < LOC_DUPLICATE as usize, "cell arena overflow");
        if count > 0 {
            let (k0, _) = Self::split(start);
            let (k1, _) = Self::split(end - 1);
            for k in k0..=k1 {
                self.chunks[k].get_or_init(|| {
                    (0..(1usize << (CHUNK0_BITS as usize + k)))
                        .map(|_| ConcCell::default())
                        .collect()
                });
            }
        }
        start as u32
    }
}

impl fmt::Debug for CellArena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CellArena")
            .field("len", &self.len.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

/// Delaunay as a framework instance — task `v` inserts `points[v]` —
/// thread-safe with **fine-grained cavity locking**: every cell carries its
/// own lock flag and [`ConcurrentAlgorithm::try_process`] takes exactly the
/// flags of the cells an insertion touches — no structure-wide mutex.
///
/// The protocol per popped task:
///
/// 1. **Speculate** (lock-free): read `loc[task]`, BFS the conflict cavity
///    over atomic `nbr` links, collecting cavity cells and their surviving
///    boundary neighbors.
/// 2. **Acquire**: try-lock the cavity ∪ boundary set in ascending cell-id
///    order. Ids form a total order so lock acquisition is deadlock-free,
///    and because every acquisition is a *try*, any conflict releases
///    everything and returns [`TaskOutcome::Blocked`] — a failed delete the
///    executor retries, exactly like the dependency conflicts.
/// 3. **Validate by liveness** (under locks): `loc[task]` unchanged and
///    every locked cell still alive, else release and return `Blocked`.
///    No cell is walked or classified twice: cell ids are never reused, a
///    live cell's link changes only when its target is carved, and
///    classification depends only on the immutable vertex triple, so a
///    speculation whose cells are all alive followed only current links
///    and *is* the authoritative cavity and ring. The boundary edges come
///    from one pass over the cavity cells' links.
/// 4. **Commit**: the sequential carve/fan/rebucket, publishing fan-cell
///    ids with `Release` stores only after the cells are fully built.
///
/// An insertion hashes nothing and allocates no buffer of its own: its
/// buffers live in per-thread scratch, membership tests are linear scans
/// over the O(1)-expected cavity and ring, and a carved cell's bucket
/// buffer moves into a fan cell instead of being freed, so only a bucket
/// that outgrows what it inherited allocates.
///
/// Nor does an insertion write a line that every worker writes: it takes
/// its fan's ids from the worker's own block of 256 (`ID_BLOCK`; one shared
/// `fetch_add` per block, keyed in the thread's scratch by the instance's
/// `instance` number), and the structural counts are not kept as it goes
/// but read off the arena by [`ConcurrentDelaunay::into_output`]. Every
/// other line it writes belongs to the part of the triangulation it
/// changes: its lockset's cells, its fan, and the `loc` slots of the
/// points it displaces.
///
/// Retries are bounded in practice by the same argument as the sequential
/// conflict semantics: whoever holds the contended cells finishes a finite
/// insertion and releases, and the smallest-label point in a bucket is
/// never dependency-blocked, so the run always terminates.
pub struct ConcurrentDelaunay {
    pts: Vec<Point>,
    labels: Vec<u32>,
    arena: CellArena,
    loc: Box<[AtomicU32]>,
    /// This instance's number, distinct from every other's in the process:
    /// what a worker's [`IdBlock`] names its arena by.
    instance: u64,
    degenerate: bool,
}

/// The next [`ConcurrentDelaunay::instance`]; 0 is no instance.
static INSTANCES: AtomicU64 = AtomicU64::new(1);

impl fmt::Debug for ConcurrentDelaunay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentDelaunay")
            .field("points", &self.pts.len())
            .field("cells", &self.arena)
            .field("degenerate", &self.degenerate)
            .finish_non_exhaustive()
    }
}

impl ConcurrentDelaunay {
    /// Creates the instance; seeding and duplicate filtering run through
    /// [`Triangulation::new`], so every scheduler starts from the identical
    /// structure the sequential reference uses.
    ///
    /// # Panics
    ///
    /// Panics if `pi.len() != points.len()`.
    pub fn new(points: &[Point], pi: &Permutation) -> Self {
        let seed = Triangulation::new(points, pi);
        // The output counts every non-hole cell created and every dead one
        // destroyed: the seed's cells are its first `created`, none dead.
        debug_assert_eq!((seed.created, seed.destroyed), (seed.cells.len() as u64, 0));
        let arena = CellArena::new();
        if !seed.degenerate {
            let base = arena.alloc(seed.cells.len());
            debug_assert_eq!(base, 0);
            for (i, c) in seed.cells.iter().enumerate() {
                let cell = arena.get(i as u32);
                for j in 0..3 {
                    cell.v[j].store(c.v[j], Ordering::Relaxed);
                    cell.nbr[j].store(c.nbr[j], Ordering::Relaxed);
                }
                cell.alive.store(c.alive, Ordering::Relaxed);
                // SAFETY: construction is single-threaded; the structure is
                // published to workers by the thread handoff.
                unsafe { (*cell.bucket.get()).clone_from(&c.bucket) };
            }
        }
        let loc = seed
            .loc
            .iter()
            .map(|l| {
                AtomicU32::new(match *l {
                    Loc::Pending(c) => c,
                    Loc::Inserted => LOC_INSERTED,
                    Loc::Duplicate => LOC_DUPLICATE,
                })
            })
            .collect();
        ConcurrentDelaunay {
            pts: seed.pts,
            labels: seed.labels,
            arena,
            loc,
            instance: INSTANCES.fetch_add(1, Ordering::Relaxed),
            degenerate: seed.degenerate,
        }
    }

    /// The cell's vertex triple (immutable once published).
    fn cell_v(&self, cell: u32) -> [u32; 3] {
        let c = self.arena.get(cell);
        [
            c.v[0].load(Ordering::Relaxed),
            c.v[1].load(Ordering::Relaxed),
            c.v[2].load(Ordering::Relaxed),
        ]
    }

    /// [`Triangulation::conflicts`] over a vertex triple: strict in-circle
    /// for a real cell; a ghost cell's conflict rule is its region.
    fn conflicts_v(&self, v: [u32; 3], p: Point) -> bool {
        match self.region(v) {
            Region::Tri([a, b, c]) => in_circle(a, b, c, p) > 0,
            ghost => ghost.contains(p),
        }
    }

    /// The bucketing region of a vertex triple (the rule of
    /// [`Triangulation::bucket_match`]).
    fn region(&self, v: [u32; 3]) -> Region {
        match v.iter().position(|&x| x == GHOST) {
            Some(k) => {
                Region::Ghost(self.pts[v[(k + 1) % 3] as usize], self.pts[v[(k + 2) % 3] as usize])
            }
            None => Region::Tri(v.map(|x| self.pts[x as usize])),
        }
    }

    /// Lock-free cavity speculation: BFS the conflict region from `start`,
    /// filling `cavity` and its boundary neighbors `ring` as *observed* — a
    /// snapshot that step 3 validates by the liveness of its cells under
    /// their flags. `false` means the snapshot is already visibly stale (a
    /// dead cell), so the caller can skip the locking round-trip and report
    /// `Blocked` immediately.
    fn speculate(&self, start: u32, p: Point, cavity: &mut Vec<u32>, ring: &mut Vec<u32>) -> bool {
        cavity.clear();
        ring.clear();
        cavity.push(start);
        let mut i = 0;
        while i < cavity.len() {
            let c = self.arena.get(cavity[i]);
            i += 1;
            if !c.alive.load(Ordering::Acquire) {
                return false;
            }
            for j in 0..3 {
                let nb = c.nbr[j].load(Ordering::Acquire);
                // Seen = cavity ∪ ring, a handful of cells on uniform points.
                if cavity.contains(&nb) || ring.contains(&nb) {
                    continue;
                }
                if self.conflicts_v(self.cell_v(nb), p) {
                    cavity.push(nb);
                } else {
                    ring.push(nb);
                }
            }
        }
        true
    }

    /// `count` consecutive fan-cell ids off the worker's block `ids`,
    /// which first claims a fresh block of [`ID_BLOCK`] (or of `count`, if
    /// larger) when it belongs to another instance or has fewer than
    /// `count` left; the rest of the old block stays holes.
    fn fan_ids(&self, count: usize, ids: &mut IdBlock) -> u32 {
        if ids.owner != self.instance || ((ids.end - ids.next) as usize) < count {
            let claim = ID_BLOCK.max(count);
            let next = self.arena.alloc(claim);
            *ids = IdBlock { owner: self.instance, next, end: next + claim as u32 };
        }
        let base = ids.next;
        ids.next += count as u32;
        base
    }

    /// Extracts the run output. The structural counts are read off the
    /// arena: `created` is every cell that is not a hole, the seed's
    /// included, and `destroyed` every dead one — no seed cell starts dead,
    /// and an insert kills exactly its cavity.
    pub fn into_output(self) -> DelaunayOutput {
        let len = self.arena.len.load(Ordering::Acquire) as u32;
        let (mut triangles, mut created, mut destroyed) = (Vec::new(), 0, 0);
        for id in 0..len {
            let v = self.cell_v(id);
            if v == [GHOST; 3] {
                continue; // a hole
            }
            created += 1;
            if !self.arena.get(id).alive.load(Ordering::Relaxed) {
                destroyed += 1;
                continue;
            }
            if v.contains(&GHOST) {
                continue;
            }
            let m = (0..3).min_by_key(|&i| v[i]).expect("three vertices");
            triangles.push([v[m], v[(m + 1) % 3], v[(m + 2) % 3]]);
        }
        triangles.sort_unstable();
        DelaunayOutput { triangles, created, destroyed }
    }
}

impl ConcurrentAlgorithm for ConcurrentDelaunay {
    fn num_tasks(&self) -> usize {
        self.pts.len()
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let ti = task as usize;
        let start = self.loc[ti].load(Ordering::Acquire);
        if start >= LOC_DUPLICATE {
            // Seeds and duplicates are decided once, at their single pop.
            return TaskOutcome::Obsolete;
        }
        if self.degenerate {
            // No structure exists; insertion is pure bookkeeping, and only
            // the worker that popped `task` ever writes its slot.
            self.loc[ti].store(LOC_INSERTED, Ordering::Release);
            return TaskOutcome::Processed;
        }
        SCRATCH.with(|s| self.insert(task, start, &mut s.borrow_mut()))
    }
}

impl ConcurrentDelaunay {
    /// Steps 1–4 of the protocol for pending, non-degenerate `task`,
    /// anchored at its bucket cell `start`, in `s`'s buffers.
    fn insert(&self, task: TaskId, start: u32, s: &mut Scratch) -> TaskOutcome {
        // 1. Speculate without locks.
        if !self.speculate(start, self.pts[task as usize], &mut s.cavity, &mut s.ring) {
            return TaskOutcome::Blocked;
        }
        self.lock_and_commit(task, start, s)
    }

    /// Steps 2–4 over the cavity and ring speculation left in `s`.
    fn lock_and_commit(&self, task: TaskId, start: u32, s: &mut Scratch) -> TaskOutcome {
        let Scratch { cavity, ring, lockset, boundary, displaced, relocated, regions, ids } = s;
        let ti = task as usize;

        // 2. Try-take cavity ∪ ring in ascending id order. The total order
        // makes acquisition deadlock-free; try-only makes any collision a
        // failed delete instead of a wait. Speculation never lists a cell
        // twice, so the sorted union needs no dedup.
        lockset.clear();
        lockset.extend_from_slice(cavity);
        lockset.extend_from_slice(ring);
        lockset.sort_unstable();
        let lockset: &[u32] = lockset;
        let Some(held) = Held::try_take_alive(&self.arena, lockset) else {
            return TaskOutcome::Blocked;
        };

        // 3. Validate by liveness: every lockset cell was alive under its
        // flag, and `loc[task]` still names `start` (a carve of `start`
        // would have rebucketed `task` before releasing its flag). That
        // makes the speculated cavity and ring the authoritative ones, by
        // three facts:
        //  (i) the arena never reuses a cell id, and a dead cell stays dead;
        //  (ii) the only write to a live cell's link is the ring rewrite,
        //       which replaces a target the same commit has just carved;
        //  (iii) classification is a pure function of a cell's immutable
        //       vertices.
        // Every link speculation followed runs from a cavity cell to a
        // lockset cell that is alive now, so by (i) and (ii) no rewrite has
        // touched it since it was read: speculation walked the current
        // links, and by (iii) classified every cell as a walk under the
        // flags would — the same cells, in the same BFS order. A ring cell
        // carved behind speculation's back shows up here as a dead cell,
        // even though no cavity cell died.
        if self.loc[ti].load(Ordering::Acquire) != start {
            return TaskOutcome::Blocked;
        }
        debug_assert!(self.conflicts_v(self.cell_v(start), self.pts[ti]));
        // Dependency oracle: an uninserted smaller-label point in `task`'s
        // own bucket blocks it. Never true for the smallest pending label,
        // so progress is assured. Checked first: only a committing insert
        // needs the boundary pass below.
        let lt = self.labels[ti];
        // SAFETY: `start` is locked by us.
        let dep_blocked = unsafe {
            (*self.arena.get(start).bucket.get())
                .iter()
                .any(|&q| q != task && self.labels[q as usize] < lt)
        };
        if dep_blocked {
            return TaskOutcome::Blocked;
        }
        // Rebucketing reads each displaced point's coordinates, a random
        // load apiece: ask for them now, so that they arrive while the
        // boundary pass and the fan build below run.
        for &cell in cavity.iter() {
            // SAFETY: `cell` is locked by us.
            let bucket = unsafe { &*self.arena.get(cell).bucket.get() };
            bucket.iter().for_each(|&q| prefetch(&self.pts[q as usize]));
        }

        // The boundary edges `(a, b, outer, slot in outer)`, in cavity
        // order: every link from a cavity cell to a ring cell, with the
        // ring cell's back-link slot. Every link read here belongs to a cell
        // whose flag we hold, and links are written only under the flag, so
        // the Acquire that took it (pairing with the last holder's Release
        // clear) orders those writes: `Relaxed` loads suffice.
        boundary.clear();
        for &cell in cavity.iter() {
            let (c, cv) = (self.arena.get(cell), self.cell_v(cell));
            for j in 0..3 {
                let nb = c.nbr[j].load(Ordering::Relaxed);
                if cavity.contains(&nb) {
                    continue;
                }
                let oc = self.arena.get(nb);
                let in_outer = (0..3)
                    .find(|&s| oc.nbr[s].load(Ordering::Relaxed) == cell)
                    .expect("adjacency must be symmetric under locks");
                boundary.push((cv[(j + 1) % 3], cv[(j + 2) % 3], nb, in_outer));
            }
        }

        // 4. Commit. Fan: take unpublished cells from the worker's id block
        // and build them completely — vertices, all three links, liveness —
        // before any id escapes.
        let m = boundary.len();
        let base = self.fan_ids(m, ids);
        for (idx, &(a, b, outer, _)) in boundary.iter().enumerate() {
            let nc = self.arena.get(base + idx as u32);
            nc.v[0].store(task, Ordering::Relaxed);
            nc.v[1].store(a, Ordering::Relaxed);
            nc.v[2].store(b, Ordering::Relaxed);
            nc.nbr[0].store(outer, Ordering::Relaxed);
            nc.alive.store(true, Ordering::Relaxed);
        }
        for (idx, &(a, b, ..)) in boundary.iter().enumerate() {
            // Across edge (b → task): the fan cell whose boundary edge
            // starts at b. Across (task → a): the one ending at a.
            let after = boundary.iter().position(|&(s, ..)| s == b).expect("boundary is a cycle");
            let before =
                boundary.iter().position(|&(_, e, ..)| e == a).expect("boundary is a cycle");
            let nc = self.arena.get(base + idx as u32);
            nc.nbr[1].store(base + after as u32, Ordering::Relaxed);
            nc.nbr[2].store(base + before as u32, Ordering::Relaxed);
        }

        // Carve: kill cavity cells, pooling their buckets for relocation.
        // Cavity cell i's drained buffer moves into fan cell i (the fan has
        // two more cells than the cavity), so dead cells hold no buffer and
        // the fan mostly needs no fresh one.
        displaced.clear();
        for (i, &cell) in cavity.iter().enumerate() {
            let c = self.arena.get(cell);
            c.alive.store(false, Ordering::Release);
            // SAFETY: `cell` is locked by us.
            let bucket = unsafe { &mut *c.bucket.get() };
            displaced.extend(bucket.drain(..).filter(|&q| q != task));
            let spare = std::mem::take(bucket);
            if i < m {
                // SAFETY: `base + i` is ours until published below.
                unsafe { *self.arena.get(base + i as u32).bucket.get() = spare };
            }
        }

        // Rebucket while the fan is still unreachable. The fan tiles the
        // carved region, so a displaced point lands in a fan cell — except
        // exactly on the cavity boundary, where the (locked) surviving
        // neighbor may be the only closed-region match. First match wins,
        // fan cells in boundary order, then the ring in speculation order;
        // the ring's regions are built only for a point the fan misses,
        // which on points in general position is none. A point strictly
        // inside a real fan cell lies in no other fan cell's region — the
        // fan's triangles meet only along edges, and a ghost cell's region
        // is outside the hull — so that cell is its first match too. The
        // points of one carved bucket lie close together: the cell the last
        // point landed in is tried that way first.
        relocated.clear();
        if !displaced.is_empty() {
            regions.clear();
            regions.extend(boundary.iter().map(|&(a, b, ..)| self.region([task, a, b])));
            let mut last = None;
            for &q in displaced.iter() {
                let qp = self.pts[q as usize];
                let first = || regions[..m].iter().position(|r| r.contains(qp));
                let fan = last.filter(|&k: &usize| regions[k].holds_strictly(qp)).or_else(first);
                debug_assert_eq!(fan, first(), "point {q} left its first match");
                last = fan;
                let k = fan.unwrap_or_else(|| {
                    if regions.len() == m {
                        regions.extend(ring.iter().map(|&o| self.region(self.cell_v(o))));
                    }
                    let k = regions[m..].iter().position(|r| r.contains(qp));
                    m + k.expect("displaced point matched neither fan nor boundary cell")
                });
                let cell = if k < m { base + k as u32 } else { ring[k - m] };
                // SAFETY: a fan cell is ours until published below; a ring
                // cell is locked by us.
                unsafe { (*self.arena.get(cell).bucket.get()).push(q) };
                relocated.push((q, cell));
            }
        }

        // Publish: neighbor links first (Release pairs with speculation's
        // Acquire loads, ordering every store above), then the `loc` slots
        // the displaced points' future workers will read.
        for (idx, &(_, _, outer, slot)) in boundary.iter().enumerate() {
            self.arena.get(outer).nbr[slot].store(base + idx as u32, Ordering::Release);
        }
        for &(q, cell) in relocated.iter() {
            self.loc[q as usize].store(cell, Ordering::Release);
        }
        self.loc[ti].store(LOC_INSERTED, Ordering::Release);
        drop(held);
        TaskOutcome::Processed
    }
}

/// Checks that `triangles` is a Delaunay triangulation of `points`
/// (coordinate duplicates collapse to one vertex):
///
/// * every triangle is CCW and non-degenerate,
/// * no point lies **strictly** inside any circumcircle (cocircular ties
///   are legal — the triangulation is not unique under them),
/// * every distinct coordinate is a vertex of some triangle,
/// * the triangles exactly tile the convex hull: `2·d − 2 − h` of them
///   (`d` distinct points, `h` on the hull boundary) whose doubled areas
///   sum to the hull's — together with empty circumcircles this pins exact
///   coverage,
/// * fewer than 3 distinct points, or all collinear ⇒ no triangles.
pub fn verify_delaunay(points: &[Point], triangles: &[[u32; 3]]) -> bool {
    let mut distinct: Vec<Point> = points.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let d = distinct.len();
    let hull = convex_hull(&distinct);
    if d < 3 || hull.len() < 3 {
        return triangles.is_empty();
    }

    let mut covered: std::collections::HashSet<Point> = std::collections::HashSet::new();
    let mut doubled_area: i128 = 0;
    for t in triangles {
        if t.iter().any(|&v| v as usize >= points.len()) {
            return false;
        }
        let [a, b, c] = t.map(|v| points[v as usize]);
        if orient2d(a, b, c) <= 0 {
            return false; // degenerate or CW
        }
        doubled_area += cross(a, b, c);
        covered.extend([a, b, c]);
        for &q in &distinct {
            if in_circle(a, b, c, q) > 0 {
                return false; // a point strictly inside a circumcircle
            }
        }
    }
    if covered.len() != d {
        return false; // some point is not a vertex
    }

    // Hull coverage: h = points on the hull boundary = d − strictly inside.
    let inside = distinct
        .iter()
        .filter(|&&q| (0..hull.len()).all(|i| orient2d(hull[i], hull[(i + 1) % hull.len()], q) > 0))
        .count();
    let h = d - inside;
    if triangles.len() != 2 * d - 2 - h {
        return false;
    }
    let mut hull_area: i128 = 0;
    for i in 1..hull.len() - 1 {
        hull_area += cross(hull[0], hull[i], hull[i + 1]);
    }
    doubled_area == hull_area
}

fn cross(a: Point, b: Point, c: Point) -> i128 {
    (b.x - a.x) as i128 * (c.y - a.y) as i128 - (b.y - a.y) as i128 * (c.x - a.x) as i128
}

/// Monotone-chain convex hull over sorted distinct points, CCW, strict
/// turns only (collinear boundary points are excluded — the coverage check
/// counts them separately). Returns fewer than 3 points iff the input is
/// degenerate (fewer than 3 points or all collinear).
fn convex_hull(sorted: &[Point]) -> Vec<Point> {
    if sorted.len() < 3 {
        return sorted.to_vec();
    }
    let chain = |iter: &mut dyn Iterator<Item = Point>| -> Vec<Point> {
        let mut out: Vec<Point> = Vec::new();
        for p in iter {
            while out.len() >= 2 && orient2d(out[out.len() - 2], out[out.len() - 1], p) <= 0 {
                out.pop();
            }
            out.push(p);
        }
        out.pop(); // each chain's last point starts the other chain
        out
    };
    let mut lower = chain(&mut sorted.iter().copied());
    let upper = chain(&mut sorted.iter().rev().copied());
    if lower.len() + upper.len() < 3 {
        return Vec::new(); // all collinear
    }
    lower.extend(upper);
    lower
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::incremental::insertion_order;
    use crate::framework::{fill_scheduler, run_concurrent_batched, run_exact, run_relaxed};
    use crate::stats::ExecutionStats;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use rsched_graph::geom::{degenerate_grid, gaussian_clusters, uniform_square};
    use rsched_queues::concurrent::MultiQueue;
    use rsched_queues::relaxed::{SimMultiQueue, SimSprayList, TopKUniform};
    use rsched_queues::sharded::ShardedScheduler;

    /// One sequential-model run: the output and the pop counters.
    fn relaxed<S>(pts: &[Point], pi: &Permutation, sched: S) -> (DelaunayOutput, ExecutionStats)
    where
        S: rsched_queues::PriorityScheduler<TaskId>,
    {
        let alg = ConcurrentDelaunay::new(pts, pi);
        let stats = run_relaxed(&alg, pi, sched);
        (alg.into_output(), stats)
    }

    /// The same in exact label order.
    fn exact(pts: &[Point], pi: &Permutation) -> (DelaunayOutput, ExecutionStats) {
        let alg = ConcurrentDelaunay::new(pts, pi);
        let stats = run_exact(&alg, pi);
        (alg.into_output(), stats)
    }

    #[test]
    fn reference_on_square_with_center() {
        // Unit-square corners + center: 4 triangles around the center, all
        // corners cocircular (so any corner diagonal would be invalid).
        let pts = [
            Point::new(0, 0),
            Point::new(2, 0),
            Point::new(2, 2),
            Point::new(0, 2),
            Point::new(1, 1),
        ];
        let pi = Permutation::identity(5);
        let out = delaunay_reference(&pts, &pi);
        assert_eq!(out.triangles.len(), 4);
        assert!(verify_delaunay(&pts, &out.triangles));
        assert!(out.triangles.iter().all(|t| t.contains(&4)), "all fans meet the center");
    }

    #[test]
    fn reference_verifies_on_all_generators() {
        let mut rng = StdRng::seed_from_u64(20);
        for (name, pts) in [
            ("uniform", uniform_square(300, 1 << 14, &mut rng)),
            ("clusters", gaussian_clusters(300, 4, 500.0, &mut rng)),
            ("grid", degenerate_grid(300, 3)),
        ] {
            let pi = insertion_order(pts.len(), 1);
            let out = delaunay_reference(&pts, &pi);
            assert!(verify_delaunay(&pts, &out.triangles), "{name}");
            assert!(!out.triangles.is_empty(), "{name}");
        }
    }

    #[test]
    fn relaxed_runs_are_verifier_clean_and_count_stable() {
        let pts = uniform_square(250, 1 << 14, &mut StdRng::seed_from_u64(22));
        let pi = insertion_order(250, 3);
        let expected = delaunay_reference(&pts, &pi);
        for seed in 0..3 {
            let (out, stats) =
                relaxed(&pts, &pi, SimMultiQueue::new(16, StdRng::seed_from_u64(seed)));
            assert!(verify_delaunay(&pts, &out.triangles), "seed {seed}");
            // The triangle *count* is order-independent (2d − 2 − h).
            assert_eq!(out.triangles.len(), expected.triangles.len(), "seed {seed}");
            assert_eq!(stats.processed + stats.obsolete, 250, "every task decided once");
            assert_eq!(stats.total_pops, 250 + stats.wasted);
        }
    }

    #[test]
    fn relaxation_produces_failed_deletes_on_clustered_points() {
        // Clustered points share cells for a long time, so out-of-order
        // pops regularly hit the smaller-label conflict and must retry.
        let pts = gaussian_clusters(400, 3, 200.0, &mut StdRng::seed_from_u64(23));
        let pi = insertion_order(400, 4);
        let (out, stats) = relaxed(&pts, &pi, TopKUniform::new(64, StdRng::seed_from_u64(0)));
        assert!(verify_delaunay(&pts, &out.triangles));
        assert!(stats.wasted > 0, "a 64-relaxed scheduler must hit some conflicts");
    }

    #[test]
    fn degenerate_grid_under_every_sequential_model() {
        let pts = degenerate_grid(144, 2);
        let pi = insertion_order(144, 5);
        let expected_count = delaunay_reference(&pts, &pi).triangles.len();
        let sharded = ShardedScheduler::from_fn(3, |i| {
            SimMultiQueue::new(4, StdRng::seed_from_u64(4 + i as u64))
        });
        let runs = [
            ("top-k", relaxed(&pts, &pi, TopKUniform::new(16, StdRng::seed_from_u64(1))).0),
            (
                "sim-multiqueue",
                relaxed(&pts, &pi, SimMultiQueue::new(8, StdRng::seed_from_u64(2))).0,
            ),
            (
                "sim-spray",
                relaxed(&pts, &pi, SimSprayList::with_threads(8, StdRng::seed_from_u64(3))).0,
            ),
            ("sharded", relaxed(&pts, &pi, sharded).0),
        ];
        for (name, out) in runs {
            assert!(verify_delaunay(&pts, &out.triangles), "{name}");
            assert_eq!(out.triangles.len(), expected_count, "{name}");
        }
    }

    /// Every id below the arena's `len`, holes included, with its cell.
    fn ids(alg: &ConcurrentDelaunay) -> impl Iterator<Item = (u32, &ConcCell)> {
        (0..alg.arena.len.load(Ordering::Relaxed) as u32).map(|id| (id, alg.arena.get(id)))
    }

    /// Every cell an insert (or the seed) has built, with its id: the
    /// arena's ids less the holes.
    fn cells(alg: &ConcurrentDelaunay) -> impl Iterator<Item = (u32, &ConcCell)> {
        ids(alg).filter(|&(id, _)| alg.cell_v(id) != [GHOST; 3])
    }

    #[test]
    fn holes_stay_default_cells_and_the_counts_skip_them() {
        // Four workers each leave a block's tail unused, and every block
        // switch leaves a tail too short for the next fan.
        let pts = uniform_square(3_000, 1 << 20, &mut StdRng::seed_from_u64(31));
        let pi = insertion_order(pts.len(), 13);
        let alg = ConcurrentDelaunay::new(&pts, &pi);
        let sched: MultiQueue<TaskId> = MultiQueue::for_threads(4);
        fill_scheduler(&sched, &pi);
        run_concurrent_batched(&alg, &pi, &sched, 4, 1);
        let holes: Vec<u32> =
            ids(&alg).filter(|&(id, _)| alg.cell_v(id) == [GHOST; 3]).map(|(id, _)| id).collect();
        assert!(!holes.is_empty(), "a run that ends mid-block leaves holes");
        for &id in &holes {
            let c = alg.arena.get(id);
            assert!(!c.alive.load(Ordering::Relaxed) && !c.locked.load(Ordering::Relaxed));
            assert!(c.nbr.iter().all(|n| n.load(Ordering::Relaxed) == u32::MAX), "hole {id}");
            // SAFETY: the run is over; nothing else touches the cell.
            assert_eq!(unsafe { (*c.bucket.get()).capacity() }, 0, "hole {id}");
        }
        // No live cell links to a hole.
        for (id, c) in cells(&alg).filter(|(_, c)| c.alive.load(Ordering::Relaxed)) {
            let nbr = c.nbr.each_ref().map(|n| n.load(Ordering::Relaxed));
            assert!(nbr.iter().all(|n| holes.binary_search(n).is_err()), "cell {id}: {nbr:?}");
        }
        let (created, destroyed) = cells(&alg).fold((0, 0), |(c, d), (_, cell)| {
            (c + 1, d + u64::from(!cell.alive.load(Ordering::Relaxed)))
        });
        let out = alg.into_output();
        assert_eq!((out.created, out.destroyed), (created, destroyed));
        assert!(verify_delaunay(&pts, &out.triangles));
    }

    #[test]
    fn one_worker_alternating_two_instances_keys_its_block_by_instance() {
        // A block claimed from one arena must never serve the other: a fan
        // there would land on ids the other arena hands out again.
        // Each switch claims a fresh block, so keep the input small.
        let pts = uniform_square(300, 1 << 20, &mut StdRng::seed_from_u64(32));
        let pi = insertion_order(pts.len(), 14);
        let (a, b) = (ConcurrentDelaunay::new(&pts, &pi), ConcurrentDelaunay::new(&pts, &pi));
        for pos in 0..pts.len() as u32 {
            let t = pi.task_at(pos);
            assert_ne!(a.try_process(t), TaskOutcome::Blocked, "task {t}");
            assert_ne!(b.try_process(t), TaskOutcome::Blocked, "task {t}");
        }
        let expected = delaunay_reference(&pts, &pi);
        assert_eq!(a.into_output(), expected);
        assert_eq!(b.into_output(), expected);
    }

    #[test]
    fn contended_run_leaves_no_flag_set_and_no_buffer_on_a_dead_cell() {
        // Clustered points under four workers: lock conflicts and
        // dependency blocks both return early with flags taken.
        let pts = gaussian_clusters(1_000, 3, 200.0, &mut StdRng::seed_from_u64(27));
        let pi = insertion_order(pts.len(), 10);
        let alg = ConcurrentDelaunay::new(&pts, &pi);
        let sched: MultiQueue<TaskId> = MultiQueue::for_threads(4);
        fill_scheduler(&sched, &pi);
        let stats = run_concurrent_batched(&alg, &pi, &sched, 4, 1);
        assert!(stats.wasted > 0, "a relaxed run over clusters must block some inserts");
        for (id, c) in cells(&alg) {
            assert!(!c.locked.load(Ordering::Relaxed), "cell {id} left locked");
            if !c.alive.load(Ordering::Relaxed) {
                // SAFETY: the run is over; nothing else touches the cell.
                let capacity = unsafe { (*c.bucket.get()).capacity() };
                assert_eq!(capacity, 0, "dead cell {id} holds a bucket buffer");
            }
        }
        assert!(verify_delaunay(&pts, &alg.into_output().triangles));
    }

    #[test]
    fn a_taken_cavity_flag_blocks_and_every_other_flag_is_released() {
        let pts = uniform_square(200, 1 << 14, &mut StdRng::seed_from_u64(28));
        let pi = insertion_order(200, 11);
        let alg = ConcurrentDelaunay::new(&pts, &pi);
        for pos in 0..100 {
            alg.try_process(pi.task_at(pos));
        }
        // The smallest pending label: never dependency-blocked.
        let task = (100..200)
            .map(|pos| pi.task_at(pos))
            .find(|&t| alg.loc[t as usize].load(Ordering::Relaxed) < LOC_DUPLICATE)
            .expect("a pending point");
        let start = alg.loc[task as usize].load(Ordering::Relaxed);
        let (mut cavity, mut ring) = (Vec::new(), Vec::new());
        assert!(alg.speculate(start, alg.pts[task as usize], &mut cavity, &mut ring));
        // Force the cavity's largest id, so the smaller ids of the lockset
        // are taken before the collision and must be given back.
        let forced = *cavity.iter().max().expect("a non-empty cavity");
        assert!(cavity.iter().chain(&ring).any(|&c| c < forced));
        alg.arena.get(forced).locked.store(true, Ordering::Relaxed);
        assert_eq!(alg.try_process(task), TaskOutcome::Blocked);
        for (id, c) in ids(&alg) {
            assert_eq!(c.locked.load(Ordering::Relaxed), id == forced, "cell {id}");
        }
        alg.arena.get(forced).locked.store(false, Ordering::Relaxed);
        for pos in 100..200 {
            assert_ne!(alg.try_process(pi.task_at(pos)), TaskOutcome::Blocked);
        }
        assert_eq!(alg.into_output(), delaunay_reference(&pts, &pi));
    }

    #[test]
    fn a_ring_cell_carved_behind_speculation_blocks_the_stale_commit() {
        let pts = uniform_square(2_000, 1 << 20, &mut StdRng::seed_from_u64(29));
        let pi = insertion_order(pts.len(), 12);
        let alg = ConcurrentDelaunay::new(&pts, &pi);
        let n = pts.len() as u32;
        let half = n / 2;
        for pos in 0..half {
            alg.try_process(pi.task_at(pos));
        }
        let pending = |t: TaskId| alg.loc[t as usize].load(Ordering::Relaxed) < LOC_DUPLICATE;
        // The smallest pending label, never dependency-blocked, so only
        // validation can block its commit.
        let task = (half..n).map(|pos| pi.task_at(pos)).find(|&t| pending(t));
        let task = task.expect("a pending point");
        let start = alg.loc[task as usize].load(Ordering::Relaxed);
        let mut stale = Scratch::new();
        assert!(alg.speculate(start, alg.pts[task as usize], &mut stale.cavity, &mut stale.ring));
        // A point whose insertion carves one of our ring cells and none of
        // our cavity cells: from a ring cell's bucket, its smallest label
        // (so it is not dependency-blocked either), with a speculated
        // cavity disjoint from ours.
        let (mut cavity, mut ring) = (Vec::new(), Vec::new());
        let other = stale.ring.iter().find_map(|&r| {
            // SAFETY: single-threaded; no insertion is in flight.
            let bucket = unsafe { &*alg.arena.get(r).bucket.get() };
            let q = *bucket.iter().min_by_key(|&&q| alg.labels[q as usize])?;
            assert!(alg.speculate(r, alg.pts[q as usize], &mut cavity, &mut ring));
            cavity.iter().all(|c| !stale.cavity.contains(c)).then_some(q)
        });
        let other = other.expect("a ring point with a disjoint cavity");
        assert_eq!(alg.try_process(other), TaskOutcome::Processed);

        // Every cavity cell and `loc[task]` are as speculated; only a ring
        // cell died, and the stale commit must see it.
        assert!(stale.cavity.iter().all(|&c| alg.arena.get(c).alive.load(Ordering::Relaxed)));
        assert!(stale.ring.iter().any(|&r| !alg.arena.get(r).alive.load(Ordering::Relaxed)));
        assert_eq!(alg.loc[task as usize].load(Ordering::Relaxed), start);
        assert_eq!(alg.lock_and_commit(task, start, &mut stale), TaskOutcome::Blocked);
        for (id, c) in cells(&alg) {
            assert!(!c.locked.load(Ordering::Relaxed), "cell {id} left locked");
        }

        // Finishing in label order inserts every remaining point unblocked.
        // `other` went in early, so the structural counters differ from the
        // reference's; the triangulation of points in general position
        // does not.
        for pos in half..n {
            let t = pi.task_at(pos);
            if t != other {
                assert_ne!(alg.try_process(t), TaskOutcome::Blocked, "task {t}");
            }
        }
        assert_eq!(alg.into_output().triangles, delaunay_reference(&pts, &pi).triangles);
    }

    #[test]
    fn duplicates_are_dropped_not_triangulated() {
        let mut pts = uniform_square(100, 1 << 12, &mut StdRng::seed_from_u64(25));
        let dups = pts[..20].to_vec();
        pts.extend(dups); // 20 coordinate duplicates
        let pi = insertion_order(pts.len(), 7);
        let (out, stats) = exact(&pts, &pi);
        assert!(verify_delaunay(&pts, &out.triangles));
        assert_eq!(stats.obsolete, 3 + 20, "seeds plus duplicates");
    }

    #[test]
    fn collinear_and_tiny_inputs_yield_no_triangles() {
        for pts in [
            Vec::new(),
            vec![Point::new(1, 1)],
            vec![Point::new(0, 0), Point::new(5, 5)],
            (0..50).map(|i| Point::new(i, 2 * i)).collect::<Vec<_>>(), // all collinear
        ] {
            let pi = insertion_order(pts.len(), 8);
            let out = delaunay_reference(&pts, &pi);
            assert!(out.triangles.is_empty());
            assert!(verify_delaunay(&pts, &out.triangles));
            // And through the framework: everything processes trivially.
            let (out2, _) = exact(&pts, &pi);
            assert_eq!(out2.triangles, out.triangles);
        }
    }

    #[test]
    fn verifier_rejects_broken_triangulations() {
        let pts = uniform_square(60, 1 << 12, &mut StdRng::seed_from_u64(26));
        let pi = insertion_order(60, 9);
        let good = delaunay_reference(&pts, &pi).triangles;
        assert!(verify_delaunay(&pts, &good));
        // Drop a triangle: count/area breaks.
        assert!(!verify_delaunay(&pts, &good[1..]));
        // Flip one triangle's orientation.
        let mut flipped = good.clone();
        flipped[0].swap(1, 2);
        assert!(!verify_delaunay(&pts, &flipped));
    }
}
