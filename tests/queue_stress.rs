//! Heavier concurrent stress for the schedulers, via one generic harness:
//! under churn from multiple producers and consumers, every inserted element
//! is popped exactly once and nothing is lost.

use rsched::queues::concurrent::{LockFreeMultiQueue, MultiQueue};
use rsched::queues::ConcurrentScheduler;
use std::collections::HashSet;
use std::sync::Mutex;

/// `producers` threads insert disjoint ranges while `consumers` threads pop;
/// afterwards the main thread drains. Checks exact-once delivery.
fn churn<S: ConcurrentScheduler<u64>>(sched: &S, producers: u64, consumers: usize, per: u64) {
    let collected = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for t in 0..producers {
            let sched = &sched;
            s.spawn(move || {
                for i in 0..per {
                    let v = t * per + i;
                    sched.insert(v, v);
                }
            });
        }
        for _ in 0..consumers {
            let sched = &sched;
            let collected = &collected;
            s.spawn(move || {
                let mut local = Vec::new();
                let mut misses = 0;
                // Keep popping until we see a stretch of emptiness (the
                // producers may still be running).
                while misses < 200 {
                    match sched.pop() {
                        Some((p, v)) => {
                            assert_eq!(p, v, "payload corrupted");
                            local.push(v);
                            misses = 0;
                        }
                        None => {
                            misses += 1;
                            std::hint::spin_loop();
                        }
                    }
                }
                collected.lock().unwrap().extend(local);
            });
        }
    });
    let mut all = collected.into_inner().unwrap();
    while let Some((_, v)) = sched.pop() {
        all.push(v);
    }
    let total = (producers * per) as usize;
    assert_eq!(all.len(), total, "lost or duplicated elements");
    let set: HashSet<u64> = all.into_iter().collect();
    assert_eq!(set.len(), total, "duplicate pops detected");
}

#[test]
fn multiqueue_churn() {
    let q: MultiQueue<u64> = MultiQueue::new(8);
    churn(&q, 3, 3, 20_000);
}

#[test]
fn lock_free_multiqueue_churn() {
    let q: LockFreeMultiQueue<u64> = LockFreeMultiQueue::new(8);
    churn(&q, 3, 3, 5_000);
}

#[test]
fn multiqueue_respects_rough_priority_under_contention() {
    // After concurrent prefill, the first pops should come from the global
    // front region — the rank bound in action.
    let q: MultiQueue<u64> = MultiQueue::new(8);
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let q = &q;
            s.spawn(move || {
                for i in 0..25_000u64 {
                    let v = i * 4 + t; // interleaved priorities
                    q.insert(v, v);
                }
            });
        }
    });
    for _ in 0..100 {
        let (p, _) = q.pop().unwrap();
        assert!(p < 10_000, "pop of rank ≈ {p} from a 100k-element MultiQueue with 8 queues");
    }
}
