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
//! finite far-away vertex) and keeps all arithmetic within the exact-`i128`
//! coordinate bound.
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
use rsched_queues::lock::{McsLock, RawLock};
use std::cell::UnsafeCell;
use std::collections::{HashMap, HashSet};
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
/// * `nbr`, `alive` — readable by lock-free speculation at any time;
///   *written* only by a thread holding `lock`.
/// * `bucket` — accessed (read or write) only under `lock`, except that the
///   creator fills a fan cell's bucket between allocation and publication,
///   while the id is still unreachable.
struct ConcCell {
    v: [AtomicU32; 3],
    nbr: [AtomicU32; 3],
    alive: AtomicBool,
    lock: McsLock,
    bucket: UnsafeCell<Vec<u32>>,
}

// SAFETY: `bucket` (the one non-Sync field) is only touched under `lock`
// or before the cell is published, per the field protocol above.
unsafe impl Sync for ConcCell {}

impl Default for ConcCell {
    fn default() -> Self {
        ConcCell {
            v: [AtomicU32::new(GHOST), AtomicU32::new(GHOST), AtomicU32::new(GHOST)],
            nbr: [AtomicU32::new(u32::MAX), AtomicU32::new(u32::MAX), AtomicU32::new(u32::MAX)],
            alive: AtomicBool::new(false),
            lock: McsLock::new(),
            bucket: UnsafeCell::new(Vec::new()),
        }
    }
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
struct CellArena {
    chunks: [OnceLock<Box<[ConcCell]>>; MAX_CHUNKS],
    /// Bumped by every insertion; padded off the `chunks` line every cell
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
/// own [`McsLock`] and [`ConcurrentAlgorithm::try_process`] locks exactly
/// the cells an insertion touches — no structure-wide mutex.
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
/// 3. **Validate** (under locks): `loc[task]` unchanged, then recompute the
///    cavity; conflict classification depends only on the immutable vertex
///    triple, so any cell the authoritative cavity needs that is not
///    already locked means the speculation raced a concurrent insertion —
///    release and return `Blocked`.
/// 4. **Commit**: the sequential carve/fan/rebucket, publishing fan-cell
///    ids with `Release` stores only after the cells are fully built.
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
    counters: CachePadded<Counters>,
    degenerate: bool,
}

/// What every decision writes, on a line of its own, away from the
/// read-mostly headers every `try_process` goes through.
// lint:allow(hot-counter-padded) held only as `CachePadded<Counters>`
struct Counters {
    remaining: AtomicUsize,
    created: AtomicU64,
    destroyed: AtomicU64,
}

impl fmt::Debug for ConcurrentDelaunay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConcurrentDelaunay")
            .field("points", &self.pts.len())
            .field("cells", &self.arena)
            .field("remaining", &self.counters.remaining.load(Ordering::Relaxed))
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
        let n = seed.pts.len();
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
            counters: CachePadded::new(Counters {
                remaining: AtomicUsize::new(n),
                created: AtomicU64::new(seed.created),
                destroyed: AtomicU64::new(seed.destroyed),
            }),
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

    /// [`Triangulation::conflicts`] over a vertex triple.
    fn conflicts_v(&self, v: [u32; 3], p: Point) -> bool {
        if let Some(k) = v.iter().position(|&x| x == GHOST) {
            let u = self.pts[v[(k + 1) % 3] as usize];
            let w = self.pts[v[(k + 2) % 3] as usize];
            orient2d(u, w, p) > 0 || on_open_segment(u, w, p)
        } else {
            let [a, b, c] = v;
            in_circle(self.pts[a as usize], self.pts[b as usize], self.pts[c as usize], p) > 0
        }
    }

    /// [`Triangulation::bucket_match`] over a vertex triple.
    fn bucket_match_v(&self, v: [u32; 3], p: Point) -> bool {
        if v.contains(&GHOST) {
            return self.conflicts_v(v, p);
        }
        let [a, b, c] = v.map(|x| self.pts[x as usize]);
        orient2d(a, b, p) >= 0 && orient2d(b, c, p) >= 0 && orient2d(c, a, p) >= 0
    }

    /// Lock-free cavity speculation: BFS the conflict region from `start`,
    /// returning the cavity and its boundary neighbors as *observed* — a
    /// snapshot that step 3 re-validates under locks. `None` means the
    /// snapshot is already visibly stale (a dead cell), so the caller can
    /// skip the locking round-trip and report `Blocked` immediately.
    fn speculate(&self, start: u32, p: Point) -> Option<(Vec<u32>, Vec<u32>)> {
        let mut cavity = vec![start];
        let mut outers = Vec::new();
        let mut seen: HashSet<u32> = HashSet::from([start]);
        let mut i = 0;
        while i < cavity.len() {
            let c = self.arena.get(cavity[i]);
            i += 1;
            if !c.alive.load(Ordering::Acquire) {
                return None;
            }
            for j in 0..3 {
                let nb = c.nbr[j].load(Ordering::Acquire);
                if seen.insert(nb) {
                    if self.conflicts_v(self.cell_v(nb), p) {
                        cavity.push(nb);
                    } else {
                        outers.push(nb);
                    }
                }
            }
        }
        Some((cavity, outers))
    }

    /// Extracts the run output.
    pub fn into_output(self) -> DelaunayOutput {
        let len = self.arena.len.load(Ordering::Acquire) as u32;
        let mut triangles: Vec<[u32; 3]> = Vec::new();
        for id in 0..len {
            let c = self.arena.get(id);
            if !c.alive.load(Ordering::Relaxed) {
                continue;
            }
            let v = self.cell_v(id);
            if v.contains(&GHOST) {
                continue;
            }
            let m = (0..3).min_by_key(|&i| v[i]).expect("three vertices");
            triangles.push([v[m], v[(m + 1) % 3], v[(m + 2) % 3]]);
        }
        triangles.sort_unstable();
        DelaunayOutput {
            triangles,
            created: self.counters.created.load(Ordering::Relaxed),
            destroyed: self.counters.destroyed.load(Ordering::Relaxed),
        }
    }
}

impl ConcurrentAlgorithm for ConcurrentDelaunay {
    fn num_tasks(&self) -> usize {
        self.pts.len()
    }

    fn remaining(&self) -> usize {
        self.counters.remaining.load(Ordering::Acquire)
    }

    fn try_process(&self, task: TaskId) -> TaskOutcome {
        let ti = task as usize;
        let start = self.loc[ti].load(Ordering::Acquire);
        if start >= LOC_DUPLICATE {
            // Seeds and duplicates are decided once, at their single pop.
            self.counters.remaining.fetch_sub(1, Ordering::AcqRel);
            return TaskOutcome::Obsolete;
        }
        if self.degenerate {
            // No structure exists; insertion is pure bookkeeping, and only
            // the worker that popped `task` ever writes its slot.
            self.loc[ti].store(LOC_INSERTED, Ordering::Release);
            self.counters.remaining.fetch_sub(1, Ordering::AcqRel);
            return TaskOutcome::Processed;
        }
        let p = self.pts[ti];

        // 1. Speculate without locks.
        let Some((cavity, outers)) = self.speculate(start, p) else {
            return TaskOutcome::Blocked;
        };

        // 2. Try-acquire cavity ∪ boundary in ascending id order. The total
        // order makes acquisition deadlock-free; try-only makes any
        // collision a failed delete instead of a wait.
        let mut lockset: Vec<u32> = Vec::with_capacity(cavity.len() + outers.len());
        lockset.extend_from_slice(&cavity);
        lockset.extend_from_slice(&outers);
        lockset.sort_unstable();
        lockset.dedup();
        let mut guards = Vec::with_capacity(lockset.len());
        for &id in &lockset {
            match self.arena.get(id).lock.try_lock() {
                Some(g) => guards.push(g),
                // Dropping `guards` releases everything acquired so far.
                None => return TaskOutcome::Blocked,
            }
        }

        // 3. Validate under locks. `loc[task]` still pointing at `start`
        // while we hold `start`'s lock pins the anchor: any carve of
        // `start` would have rebucketed `task` (updating its `loc`) before
        // releasing this lock.
        if self.loc[ti].load(Ordering::Acquire) != start {
            return TaskOutcome::Blocked;
        }
        debug_assert!(self.arena.get(start).alive.load(Ordering::Relaxed));
        debug_assert!(self.conflicts_v(self.cell_v(start), p));
        // Recompute the authoritative cavity: classification is a pure
        // function of the immutable vertex triple, so only *membership* can
        // differ from the speculation — and every member must be locked.
        let locked = |id: u32| lockset.binary_search(&id).is_ok();
        let mut cav: Vec<u32> = vec![start];
        let mut outs: Vec<u32> = Vec::new();
        let mut class: HashMap<u32, bool> = HashMap::from([(start, true)]);
        let mut i = 0;
        while i < cav.len() {
            let c = self.arena.get(cav[i]);
            i += 1;
            for j in 0..3 {
                let nb = c.nbr[j].load(Ordering::Acquire);
                if class.contains_key(&nb) {
                    continue;
                }
                if !locked(nb) || !self.arena.get(nb).alive.load(Ordering::Acquire) {
                    return TaskOutcome::Blocked; // speculation raced an insertion
                }
                let conflict = self.conflicts_v(self.cell_v(nb), p);
                class.insert(nb, conflict);
                if conflict {
                    cav.push(nb);
                } else {
                    outs.push(nb);
                }
            }
        }
        // Dependency oracle: an uninserted smaller-label point in `task`'s
        // own bucket blocks it. Never true for the smallest pending label,
        // so progress is assured.
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

        // 4. Commit. Boundary edges first (slots read under the outer
        // cells' locks), then the sequential carve/fan/rebucket.
        let mut boundary: Vec<(u32, u32, u32, usize)> = Vec::with_capacity(cav.len() + 2);
        for &cell in &cav {
            let c = self.arena.get(cell);
            let cv = self.cell_v(cell);
            for j in 0..3 {
                let outer = c.nbr[j].load(Ordering::Relaxed);
                if class[&outer] {
                    continue;
                }
                let oc = self.arena.get(outer);
                let slot = (0..3)
                    .find(|&s| oc.nbr[s].load(Ordering::Relaxed) == cell)
                    .expect("adjacency must be symmetric under locks");
                boundary.push((cv[(j + 1) % 3], cv[(j + 2) % 3], outer, slot));
            }
        }

        // Carve: kill cavity cells, pooling their buckets for relocation.
        let mut displaced: Vec<u32> = Vec::new();
        for &cell in &cav {
            let c = self.arena.get(cell);
            c.alive.store(false, Ordering::Release);
            // SAFETY: `cell` is locked by us.
            let bucket = unsafe { &mut *c.bucket.get() };
            displaced.extend(bucket.drain(..).filter(|&q| q != task));
        }

        // Fan: allocate unpublished cells and build them completely —
        // vertices, all three links, liveness — before any id escapes.
        let m = boundary.len();
        let base = self.arena.alloc(m);
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

        // Rebucket while the fan is still unreachable. The fan tiles the
        // carved region, so a displaced point lands in a fan cell — except
        // exactly on the cavity boundary, where the (locked) surviving
        // neighbor may be the only closed-region match.
        let mut relocated: Vec<(u32, u32)> = Vec::with_capacity(displaced.len());
        'points: for q in displaced {
            let qp = self.pts[q as usize];
            for idx in 0..m as u32 {
                if self.bucket_match_v(self.cell_v(base + idx), qp) {
                    // SAFETY: `base + idx` is ours until published below.
                    unsafe { (*self.arena.get(base + idx).bucket.get()).push(q) };
                    relocated.push((q, base + idx));
                    continue 'points;
                }
            }
            for &outer in &outs {
                if self.bucket_match_v(self.cell_v(outer), qp) {
                    // SAFETY: `outer` is locked by us.
                    unsafe { (*self.arena.get(outer).bucket.get()).push(q) };
                    relocated.push((q, outer));
                    continue 'points;
                }
            }
            unreachable!("displaced point matched neither fan nor boundary cell");
        }

        // Publish: neighbor links first (Release pairs with speculation's
        // Acquire loads, ordering every store above), then the `loc` slots
        // the displaced points' future workers will read.
        for (idx, &(_, _, outer, slot)) in boundary.iter().enumerate() {
            self.arena.get(outer).nbr[slot].store(base + idx as u32, Ordering::Release);
        }
        for (q, cell) in relocated {
            self.loc[q as usize].store(cell, Ordering::Release);
        }
        self.counters.created.fetch_add(m as u64, Ordering::Relaxed);
        self.counters.destroyed.fetch_add(cav.len() as u64, Ordering::Relaxed);
        self.loc[ti].store(LOC_INSERTED, Ordering::Release);
        self.counters.remaining.fetch_sub(1, Ordering::AcqRel);
        drop(guards);
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
    use rsched_queues::concurrent::{LockFreeMultiQueue, MultiQueue};
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
    fn exact_framework_run_equals_reference() {
        let pts = uniform_square(200, 1 << 13, &mut StdRng::seed_from_u64(21));
        let pi = insertion_order(200, 2);
        let expected = delaunay_reference(&pts, &pi);
        let (out, stats) = exact(&pts, &pi);
        assert_eq!(out, expected, "label order must reproduce the reference bit-for-bit");
        assert_eq!(stats.total_pops, 200);
        assert_eq!(stats.obsolete, 3, "exactly the three seeds");
        assert_eq!(stats.wasted, 0, "label order never blocks");
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

    #[test]
    fn concurrent_runs_verify_on_every_scheduler() {
        let pts = uniform_square(300, 1 << 14, &mut StdRng::seed_from_u64(24));
        let pi = insertion_order(300, 6);
        let expected_count = delaunay_reference(&pts, &pi).triangles.len();
        for threads in [1usize, 4] {
            for batch in [1usize, 8] {
                let alg = ConcurrentDelaunay::new(&pts, &pi);
                let sched: MultiQueue<TaskId> = MultiQueue::for_threads(threads);
                fill_scheduler(&sched, &pi);
                let stats = run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                assert_eq!(stats.processed + stats.obsolete, 300);
                let out = alg.into_output();
                assert!(verify_delaunay(&pts, &out.triangles), "mq t={threads} b={batch}");
                assert_eq!(out.triangles.len(), expected_count);

                let alg = ConcurrentDelaunay::new(&pts, &pi);
                let sched: LockFreeMultiQueue<TaskId> = LockFreeMultiQueue::for_threads(threads);
                fill_scheduler(&sched, &pi);
                run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                let out = alg.into_output();
                assert!(verify_delaunay(&pts, &out.triangles), "lfmq t={threads} b={batch}");

                let alg = ConcurrentDelaunay::new(&pts, &pi);
                let sched: ShardedScheduler<MultiQueue<TaskId>> =
                    ShardedScheduler::from_fn(3, |_| MultiQueue::new(2));
                fill_scheduler(&sched, &pi);
                run_concurrent_batched(&alg, &pi, &sched, threads, batch);
                let out = alg.into_output();
                assert!(verify_delaunay(&pts, &out.triangles), "sharded t={threads} b={batch}");
            }
        }
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
