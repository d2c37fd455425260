//! One conformance contract for every concurrent scheduler the library
//! exports, with the configuration as the only variable: the MultiQueue
//! over locked buckets (sorted prefill plus insert runs), and over
//! Harris-list buckets under EBR and under VBR, and `ShardedScheduler` over
//! each of those three at 1, 3 and 16 shards — twelve configurations, each
//! exercised at run lengths 1, 8 and 64 (the `max` of every batched pop,
//! the length of every `insert_batch`). The contract:
//!
//! 1. exactly-once delivery, every priority still paired with its item, and
//!    no batched pop above its `max`, over single-threaded interleavings of
//!    every insert and pop method at 1 to 6 buckets;
//! 2. `len` conserved after every step of those interleavings — for a
//!    sharded configuration, the summed shard lengths and `total_load` too;
//! 3. churn over drop-cell payloads — 4 and 8 threads each cycling through
//!    every method, then 3 producers beside 3 plain-`pop` consumers, and 8
//!    threads racing one Harris list under each backend: each
//!    cell counts the live copies of one payload, so at quiescence an
//!    entry never returned reads 1 (held once, not lost, not copied) and
//!    one returned reads 0, and once the scheduler is dropped every cell
//!    reads 0, neither leaked nor dropped twice;
//! 4. under that churn, no count reads above the entries inserted so far;
//! 5. the purge partition: every entry is returned or purged, exactly once,
//!    and every count settles at 0;
//! 6. Definition 1's rank bound, where the code claims one — unsharded
//!    and one shard, for single pops: a mean rank ≤ 64, and a mean rank
//!    among live entries within 15 % of the same queue built without the
//!    dead. (A run of `b` pops is only `O(k·b)`-relaxed, with no constant
//!    claimed: at run lengths 8 and 64 the same two means differ by up to
//!    1.5× between builds.)
//!
//! Every test runs under a watchdog: a fault that corrupts a list's links
//! can leave an operation spinning on a link that never changes, and the
//! test must fail rather than hang.

use proptest::prelude::*;
use rsched::queues::concurrent::{Bucket, LockFreeMultiQueue, MultiQueue, MultiQueueCore};
use rsched::queues::hash::splitmix64;
use rsched::queues::reclaim::{Ebr, Reclaim, Vbr};
use rsched::queues::sharded::ShardedScheduler;
use rsched::queues::{ConcurrentScheduler, IndexedSet, SchedulerLoad};
use std::cell::RefCell;
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// The run lengths every check is exercised at.
const RUNS: [usize; 3] = [1, 8, 64];

/// Buckets per scheduler, or per shard, in the concurrent checks.
const QUEUES: usize = 4;

/// Runs `case` on a thread of its own, passes its panic on, and fails if it
/// has not returned within 5 minutes: the slowest test takes some 15 s in
/// debug, and the bound leaves room for AddressSanitizer.
fn within_watchdog<R: Send + 'static>(case: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(catch_unwind(AssertUnwindSafe(case)));
    });
    match rx.recv_timeout(Duration::from_secs(300)) {
        Ok(result) => result.unwrap_or_else(|panic| resume_unwind(panic)),
        Err(_) => panic!("still running after 300 s: a scheduler operation never finished"),
    }
}

/// Every count a scheduler keeps of what it holds: `len`, and for a sharded
/// scheduler the summed shard lengths and `total_load`.
trait Census {
    fn counts(&self) -> Vec<usize>;
}

impl<T: Send, B: Bucket<T>> Census for MultiQueueCore<T, B> {
    fn counts(&self) -> Vec<usize> {
        vec![self.len()]
    }
}

impl<S: Census + SchedulerLoad> Census for ShardedScheduler<S> {
    fn counts(&self) -> Vec<usize> {
        vec![self.shards().iter().map(|s| s.counts()[0]).sum(), self.total_load()]
    }
}

/// Whether every count of `q` reads `n`.
fn holds(q: &impl Census, n: usize) -> bool {
    q.counts().iter().all(|&c| c == n)
}

/// One configuration: its name, whether the code claims a rank bound for
/// it, and `build(queues, entries)`, which builds it over `queues` buckets
/// (per shard) holding `entries`, the way its callers build it.
struct Config<F> {
    name: String,
    ranked: bool,
    build: F,
}

/// The locked MultiQueue filled both ways its callers fill it: the first
/// half of `entries` bulk-loaded into the sorted runs, the rest inserted
/// into the insert buffers.
fn locked<T: Send>(queues: usize, mut entries: Vec<(u64, T)>) -> MultiQueue<T> {
    let inserted = entries.split_off(entries.len() / 2);
    let q = MultiQueue::prefilled(queues, entries);
    inserted.into_iter().for_each(|(p, v)| q.insert(p, v));
    q
}

/// Binds `$cfg` to one configuration and runs `$body` on it.
macro_rules! config {
    ($cfg:ident, $body:block, $name:expr, $ranked:expr, $t:ty, |$q:ident, $e:ident| $build:expr) => {{
        let $cfg = Config {
            name: $name,
            ranked: $ranked,
            build: move |$q: usize, $e: Vec<(u64, $t)>| $build,
        };
        $body
    }};
}

/// Runs `$body` on the bucket kind `$kind` holding `$t` payloads, built by
/// `$new(queues, entries)`: unsharded, then over 1, 3 and 16 shards.
macro_rules! kind {
    ($cfg:ident, $body:block, $kind:literal, $t:ty, $new:expr) => {{
        config!($cfg, $body, $kind.into(), true, $t, |q, e| $new(q, e));
        for shards in [1usize, 3, 16] {
            let name = format!("{} over {shards} shards", $kind);
            config!($cfg, $body, name, shards == 1, $t, |q, e| {
                ShardedScheduler::prefilled_with(shards, e, |_, part| $new(q, part))
            });
        }
    }};
}

/// Runs `$body` once per configuration, `$cfg` bound to it, over
/// `$payload` payloads.
macro_rules! every_config {
    ($payload:ty, |$cfg:ident| $body:block) => {{
        kind!($cfg, $body, "locked", $payload, locked);
        kind!($cfg, $body, "list/ebr", $payload, LockFreeMultiQueue::<_, Ebr>::prefilled_in);
        kind!($cfg, $body, "list/vbr", $payload, LockFreeMultiQueue::<_, Vbr>::prefilled_in);
    }};
}

/// The priority of entry `id`: scrambled, so a list insert walks its list,
/// and with ties, so the sequence number decides.
fn prio(id: usize) -> u64 {
    id as u64 * 7919 % 4099
}

/// A payload whose shared cell counts its live copies: one when armed, one
/// more per clone, one less per drop — unless it is a batch template:
/// `insert_batch` clones its entries, and only the clones count. A
/// scheduler may clone on the way (the sharded batch insert groups clones
/// by shard); a leak leaves the cell above 0, a double drop below.
struct Probe {
    id: usize,
    cells: Arc<[AtomicIsize]>,
    armed: bool,
}

impl Probe {
    /// The payload of `id`, its drop cell in `cells`; unarmed, it is an
    /// `insert_batch` template, of which only the clones count.
    fn new(id: usize, cells: &Arc<[AtomicIsize]>, armed: bool) -> Self {
        if armed {
            cells[id].fetch_add(1, Ordering::SeqCst);
        }
        Probe { id, cells: Arc::clone(cells), armed }
    }
}

impl Clone for Probe {
    fn clone(&self) -> Self {
        Probe::new(self.id, &self.cells, true)
    }
}

/// Shard routing hashes the id alone.
impl Hash for Probe {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.id.hash(state)
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        if self.armed {
            self.cells[self.id].fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// Per-id tallies of one concurrent run: `seen` counts the returns and
/// purges the harness observes, `cells` the live probe copies.
struct Ledger {
    seen: Vec<AtomicUsize>,
    cells: Arc<[AtomicIsize]>,
}

impl Ledger {
    fn new(n: usize) -> Self {
        let seen = (0..n).map(|_| AtomicUsize::new(0)).collect();
        Ledger { seen, cells: (0..n).map(|_| AtomicIsize::new(0)).collect() }
    }

    fn payload(&self, id: usize, armed: bool) -> Probe {
        Probe::new(id, &self.cells, armed)
    }

    /// Counts `id`, returned or purged at priority `p`.
    fn saw(&self, p: u64, id: usize) {
        assert_eq!(p, prio(id), "{id}: priority detached from its item");
        assert_eq!(self.seen[id].fetch_add(1, Ordering::SeqCst), 0, "{id} seen twice");
    }

    /// Ends a run at quiescence, the harness holding no payload: every
    /// count agrees on what `q` still holds, `q` holds one copy of each
    /// entry never seen and none of the rest, and once `q` is dropped no
    /// copy is left.
    fn settle<S: Census>(&self, q: S, name: &str) {
        let seen = |id: usize| self.seen[id].load(Ordering::SeqCst) as isize;
        let copies = |id: usize| self.cells[id].load(Ordering::SeqCst);
        let left = (0..self.seen.len()).filter(|&id| seen(id) == 0).count();
        assert!(holds(&q, left), "{name}: counts {:?}, {left} left", q.counts());
        for id in 0..self.seen.len() {
            let (seen, copies) = (seen(id), copies(id));
            assert_eq!(copies, 1 - seen, "{name}: {id} seen {seen}, {copies} copies held");
        }
        drop(q);
        for id in 0..self.seen.len() {
            assert_eq!(copies(id), 0, "{name}: {id} has copies left after the drop");
        }
    }
}

/// One step of an interleaving; a `usize` is the worker hint.
#[derive(Clone, Copy, Debug)]
enum Op {
    Insert,
    InsertBatch,
    Pop,
    PopFor(usize),
    PopBatch,
    PopBatchFor(usize),
    PopPurgingFor(usize),
}

fn op() -> impl Strategy<Value = Op> {
    (0u8..7, 0usize..20).prop_map(|(kind, w)| match kind {
        0 => Op::Insert,
        1 => Op::InsertBatch,
        2 => Op::Pop,
        3 => Op::PopFor(w),
        4 => Op::PopBatch,
        5 => Op::PopBatchFor(w),
        _ => Op::PopPurgingFor(w),
    })
}

/// Checks 1 and 2: replays `ops` at run length `run` on the configuration
/// over `queues` buckets, prefilled with `prefill` entries. Every entry a
/// pop returns or purges is new and keeps its own priority, no pop returns
/// more than `run`, an empty observation means no entry is live, every
/// count equals the live entries after every step, and a final drain
/// returns all the rest.
fn interleave<S, F>(
    cfg: &Config<F>,
    queues: usize,
    run: usize,
    prefill: usize,
    ops: &[Op],
) -> TestCaseResult
where
    S: ConcurrentScheduler<u64> + Census,
    F: Fn(usize, Vec<(u64, u64)>) -> S,
{
    let name = format!("{} over {queues} queues at run length {run}", cfg.name);
    let q = (cfg.build)(queues, (0..prefill).map(|id| (prio(id), id as u64)).collect());
    let (mut next, mut live) = (prefill, prefill);
    let mut seen = vec![false; prefill + ops.len() * run];
    let purged = RefCell::new(Vec::new());
    let dead = |p: u64, v: &u64| {
        let dead = v.is_multiple_of(3);
        if dead {
            purged.borrow_mut().push((p, *v));
        }
        dead
    };
    let mut out = Vec::new();
    for &op in ops {
        let (before, gone_before) = (out.len(), purged.borrow().len());
        let (got, gone) = match op {
            Op::Insert | Op::InsertBatch => {
                let len = if let Op::Insert = op { 1 } else { run };
                let batch: Vec<(u64, u64)> =
                    (next..next + len).map(|id| (prio(id), id as u64)).collect();
                if len == 1 {
                    q.insert(batch[0].0, batch[0].1);
                } else {
                    q.insert_batch(&batch);
                }
                (next, live) = (next + len, live + len);
                prop_assert!(holds(&q, live), "{name}: counts {:?} ≠ {live}", q.counts());
                continue;
            }
            Op::Pop | Op::PopFor(_) => {
                out.extend(if let Op::PopFor(w) = op { q.pop_for(w) } else { q.pop() });
                (out.len() - before, 0)
            }
            Op::PopBatch => (q.pop_batch(&mut out, run), 0),
            Op::PopBatchFor(w) => (q.pop_batch_for(w, &mut out, run), 0),
            Op::PopPurgingFor(w) => q.pop_purging_for(w, &mut out, run, dead),
        };
        prop_assert_eq!((got, gone), (out.len() - before, purged.borrow().len() - gone_before));
        prop_assert!(got <= run, "{name}: {op:?} returned {got} > {run}");
        prop_assert!(got + gone <= live, "{name}: {op:?} invented entries");
        prop_assert!(got + gone > 0 || live == 0, "{name}: {op:?} saw empty over {live} live");
        let new = out[before..].iter().copied().chain(purged.borrow()[gone_before..].to_vec());
        for (p, id) in new {
            prop_assert!(p == prio(id as usize), "{name}: {id} detached from its priority");
            prop_assert!(!std::mem::replace(&mut seen[id as usize], true), "{name}: {id} twice");
        }
        live -= got + gone;
        prop_assert!(holds(&q, live), "{name}: counts {:?} ≠ {live}", q.counts());
    }
    let before = out.len();
    while q.pop_batch(&mut out, run) > 0 {}
    for &(p, id) in &out[before..] {
        prop_assert!(p == prio(id as usize), "{name}: {id} detached from its priority");
        prop_assert!(!std::mem::replace(&mut seen[id as usize], true), "{name}: {id} twice");
    }
    prop_assert!(seen[..next].iter().all(|&s| s), "{name}: entries lost");
    prop_assert!(holds(&q, 0), "{name}: drained, counts {:?}", q.counts());
    Ok(())
}

proptest! {
    #[test]
    fn interleavings_deliver_once_and_conserve_counts(
        queues in 1usize..=6,
        prefill in 0usize..40,
        ops in proptest::collection::vec(op(), 0..40),
    ) {
        within_watchdog(move || {
            every_config!(u64, |cfg| {
                for run in RUNS {
                    interleave(&cfg, queues, run, prefill, &ops)?;
                }
            });
            Ok(())
        })?;
    }
}

/// Checks 3 and 4: `threads` workers each cycle through every insert and
/// pop method at run length `run` over a prefilled configuration — the
/// purging pop with a fixed dead third — reading every count after every
/// pop; then the ledger settles.
fn churn<S, F>(cfg: &Config<F>, run: usize, threads: usize)
where
    S: ConcurrentScheduler<Probe> + Census,
    F: Fn(usize, Vec<(u64, Probe)>) -> S,
{
    const PREFILL: usize = 1_000;
    // Release builds, where races show, insert at least 2 000 entries per
    // worker at every run length.
    let cycles = if cfg!(debug_assertions) { 40 } else { 2_000usize.div_ceil(1 + run).max(40) };
    let name = format!("{} at run length {run}, {threads} threads", cfg.name);
    let per_thread = cycles * (1 + run);
    let ledger = Ledger::new(PREFILL + threads * per_thread);
    let q =
        (cfg.build)(QUEUES, (0..PREFILL).map(|id| (prio(id), ledger.payload(id, true))).collect());
    let inserted = AtomicUsize::new(PREFILL);
    let dead = |p: u64, v: &Probe| {
        let dead = v.id.is_multiple_of(3);
        if dead {
            ledger.saw(p, v.id);
        }
        dead
    };
    std::thread::scope(|s| {
        for t in 0..threads {
            let (q, ledger, inserted, dead, name) = (&q, &ledger, &inserted, &dead, &name);
            s.spawn(move || {
                let (mut next, mut out) = (PREFILL + t * per_thread, Vec::new());
                for i in 0..cycles * 6 {
                    let got = match i % 6 {
                        0 => {
                            inserted.fetch_add(1, Ordering::SeqCst);
                            q.insert(prio(next), ledger.payload(next, true));
                            next += 1;
                            continue;
                        }
                        1 => {
                            let batch: Vec<(u64, Probe)> = (next..next + run)
                                .map(|id| (prio(id), ledger.payload(id, false)))
                                .collect();
                            inserted.fetch_add(run, Ordering::SeqCst);
                            q.insert_batch(&batch);
                            next += run;
                            continue;
                        }
                        2 => {
                            out.extend(if i % 12 == 2 { q.pop() } else { q.pop_for(t) });
                            out.len()
                        }
                        3 => q.pop_batch(&mut out, run),
                        4 => q.pop_batch_for(t, &mut out, run),
                        _ => q.pop_purging_for(t, &mut out, run, dead).0,
                    };
                    assert!(got <= run && got == out.len(), "{name}: {got} of max {run}");
                    let (counts, ever) = (q.counts(), inserted.load(Ordering::SeqCst));
                    assert!(counts.iter().all(|&c| c <= ever), "{name}: {counts:?} > {ever}");
                    out.drain(..).for_each(|(p, v)| ledger.saw(p, v.id));
                }
            });
        }
    });
    ledger.settle(q, &name);
}

/// Check 3 with the roles split: three producers insert disjoint ranges,
/// in runs of `run`, while three consumers plain-`pop` until they observe
/// the scheduler empty after the last insert; then the ledger settles.
fn producers_and_consumers<S, F>(cfg: &Config<F>, run: usize)
where
    S: ConcurrentScheduler<Probe> + Census,
    F: Fn(usize, Vec<(u64, Probe)>) -> S,
{
    const PRODUCERS: usize = 3;
    // Release builds match the volume of the old per-structure stress.
    let per = if cfg!(debug_assertions) { 2_000 } else { 20_000 };
    let name = format!("{} at run length {run}, {PRODUCERS} producers", cfg.name);
    let ledger = Ledger::new(PRODUCERS * per);
    let q = (cfg.build)(QUEUES, Vec::new());
    let producing = AtomicUsize::new(PRODUCERS);
    std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let (q, ledger, producing) = (&q, &ledger, &producing);
            s.spawn(move || {
                for start in (t * per..(t + 1) * per).step_by(run) {
                    let ids = start..(start + run).min((t + 1) * per);
                    if ids.len() == 1 {
                        q.insert(prio(start), ledger.payload(start, true));
                    } else {
                        let batch: Vec<(u64, Probe)> =
                            ids.map(|id| (prio(id), ledger.payload(id, false))).collect();
                        q.insert_batch(&batch);
                    }
                }
                producing.fetch_sub(1, Ordering::SeqCst);
            });
        }
        for _ in 0..3 {
            let (q, ledger, producing) = (&q, &ledger, &producing);
            s.spawn(move || loop {
                let done = producing.load(Ordering::SeqCst) == 0;
                match q.pop() {
                    Some((p, v)) => ledger.saw(p, v.id),
                    None if done => break,
                    None => std::hint::spin_loop(),
                }
            });
        }
    });
    ledger.settle(q, &name);
}

/// Check 3 on one Harris list under backend `R`, at 8 threads: every op
/// lands on the same list, so marks, unlinks and retires race each other.
fn one_list<R: Reclaim>(name: &str) {
    let build = |_: usize, e: Vec<(u64, Probe)>| LockFreeMultiQueue::<_, R>::prefilled_in(1, e);
    let cfg = Config { name: name.into(), ranked: false, build };
    for run in RUNS {
        churn(&cfg, run, 8);
    }
}

#[test]
fn churn_drops_every_payload_once() {
    within_watchdog(|| {
        every_config!(Probe, |cfg| {
            for run in RUNS {
                for threads in [4, 8] {
                    churn(&cfg, run, threads);
                }
                producers_and_consumers(&cfg, run);
            }
        });
        one_list::<Ebr>("one list/ebr");
        one_list::<Vbr>("one list/vbr");
    });
}

/// Check 5: four workers drain a prefilled configuration through
/// `pop_purging_for` alone while the dead set grows with what was returned
/// (none of 8 levels at the start, 7 from `7 N / 16` on): every entry is
/// returned xor purged, once, no call returns more than `run` live entries,
/// and every count settles at 0.
fn purge<S, F>(cfg: &Config<F>, run: usize)
where
    S: ConcurrentScheduler<Probe> + Census,
    F: Fn(usize, Vec<(u64, Probe)>) -> S,
{
    const N: usize = 4_000;
    let name = format!("{} at run length {run}", cfg.name);
    let ledger = Ledger::new(N);
    let q = (cfg.build)(QUEUES, (0..N).map(|id| (prio(id), ledger.payload(id, true))).collect());
    let (live, purged) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let dead = |p: u64, v: &Probe| {
        let level = (16 * live.load(Ordering::SeqCst) / N).min(7) as u64;
        let dead = splitmix64(v.id as u64) >> 61 < level;
        if dead {
            ledger.saw(p, v.id);
        }
        dead
    };
    std::thread::scope(|s| {
        for t in 0..4 {
            let (q, ledger, dead, name) = (&q, &ledger, &dead, &name);
            let (live, purged) = (&live, &purged);
            s.spawn(move || {
                let mut out = Vec::new();
                loop {
                    // No inserts race these pops, so an empty observation
                    // is the end.
                    let (got, gone) = q.pop_purging_for(t, &mut out, run, dead);
                    if got + gone == 0 {
                        break;
                    }
                    assert!(got <= run && got == out.len(), "{name}: {got} of max {run}");
                    live.fetch_add(got, Ordering::SeqCst);
                    purged.fetch_add(gone, Ordering::SeqCst);
                    out.drain(..).for_each(|(p, v)| ledger.saw(p, v.id));
                }
            });
        }
    });
    let (live, purged) = (live.into_inner(), purged.into_inner());
    assert!(live > 0 && purged > 0, "{name}: live {live}, purged {purged}: one path never ran");
    assert_eq!(live + purged, N, "{name}");
    ledger.settle(q, &name);
}

#[test]
fn purging_returns_or_purges_every_entry_once() {
    within_watchdog(|| {
        every_config!(Probe, |cfg| {
            for run in RUNS {
                purge(&cfg, run);
            }
        });
    });
}

/// Mean rank among `live` of what `pop` appends to its buffer, until a
/// call returns 0; entries of one call are ranked in the order returned.
fn mean_live_rank(live: &[u64], mut pop: impl FnMut(&mut Vec<(u64, u64)>) -> usize) -> f64 {
    let mut queued = IndexedSet::with_capacity(live.last().map_or(0, |&p| p as usize + 1));
    live.iter().for_each(|&p| assert!(queued.insert(p)));
    let (mut rank_sum, mut out) = (0usize, Vec::new());
    while pop(&mut out) > 0 {
        for (p, v) in out.drain(..) {
            assert_eq!(p, v, "priority detached from its item");
            rank_sum += queued.rank_of(p);
            assert!(queued.remove(p), "entry {p} returned twice, or dead");
        }
    }
    assert!(queued.is_empty(), "{} live entries never returned", queued.len());
    rank_sum as f64 / live.len() as f64
}

/// Check 6, over 8 buckets: at dead shares of 0, 50, 85 and 97 %, the mean
/// rank among live entries of what single purging pops return is ≤ 64 and
/// within 15 % of the same queue built from the live entries only (DESIGN.md
/// "Purging semantics"). The 97 % share builds 3.3 M entries per queue,
/// too slow unoptimised: only release builds run it.
fn rank<S, F>(cfg: &Config<F>)
where
    S: ConcurrentScheduler<u64>,
    F: Fn(usize, Vec<(u64, u64)>) -> S,
{
    const LIVE: u64 = 100_000;
    let pcts: &[u64] = if cfg!(debug_assertions) { &[0, 50, 85] } else { &[0, 50, 85, 97] };
    for &pct in pcts {
        let name = format!("{}, {pct} % dead", cfg.name);
        let n = LIVE * 100 / (100 - pct);
        let dead = |p: u64| splitmix64(p) % 100 < pct;
        let live: Vec<u64> = (0..n).filter(|&p| !dead(p)).collect();
        let (q, mut purged) = ((cfg.build)(8, (0..n).map(|p| (p, p)).collect()), 0);
        let purging = mean_live_rank(&live, |out| {
            // A call that only purged is progress, not emptiness.
            let (got, gone) = q.pop_purging_for(0, out, 1, |p, _| dead(p));
            purged += gone;
            got + gone
        });
        assert_eq!(purged, n as usize - live.len(), "{name}: dead entries not purged");
        let q = (cfg.build)(8, live.iter().map(|&p| (p, p)).collect());
        let live_only = mean_live_rank(&live, |out| q.pop_batch(out, 1));
        assert!(purging <= 64.0, "{name}: mean live rank {purging} above the pin");
        assert!(
            (purging - live_only).abs() <= 0.15 * live_only,
            "{name}: mean live rank {purging} purging, {live_only} without the dead"
        );
    }
}

#[test]
fn rank_error_is_pinned_where_claimed() {
    within_watchdog(|| {
        every_config!(u64, |cfg| {
            if cfg.ranked {
                rank(&cfg);
            }
        });
    });
}
