//! Model-checked verification of the Harris list's resumed search (run with
//! `RUSTFLAGS="--cfg rsched_model" cargo test -p rsched-queues --test model_list`).
//!
//! `HarrisList::insert_run_with` starts each entry's search at the node the
//! entry before linked. That node is only a safe start while its link word
//! reads unmarked: once a pop has marked it, it may already be unlinked,
//! and an entry linked behind it is lost. The scenario races exactly that
//! — a two-entry ascending run, so the second search resumes from the
//! first entry, against two pops that can claim that entry in between —
//! and checks over every explored interleaving that entries popped plus
//! entries left equal the entries inserted, each once, what is left sorted.
//!
//! The seeded `list-resume-marked-node` mutation resumes without checking
//! the mark; the checker must then find the lost entry.
#![cfg(rsched_model)]

use rsched_queues::concurrent::HarrisList;
use rsched_queues::reclaim::Vbr;
use rsched_sync::model::{Model, Sim};
use std::sync::{Arc, Mutex};

/// One entry `1` in the list; thread A inserts the run `[2, 3]`, thread B
/// pops twice.
fn resume_races_pop(sim: &mut Sim) {
    let list = Arc::new(HarrisList::<u32, Vbr>::from_sorted_in([(1, 0, 1)]));
    let popped = Arc::new(Mutex::new(Vec::new()));
    {
        let list = list.clone();
        sim.thread(move || list.insert_run_with([(2, 1, 2), (3, 2, 3)], &list.guard()));
    }
    {
        let (list, popped) = (list.clone(), popped.clone());
        sim.thread(move || {
            let got: Vec<u32> = (0..2).filter_map(|_| list.pop_min().map(|(_, v)| v)).collect();
            popped.lock().unwrap().extend(got);
        });
    }
    sim.finally(move || {
        let left: Vec<u32> = std::iter::from_fn(|| list.pop_min().map(|(_, v)| v)).collect();
        assert!(left.is_sorted(), "list left unsorted: {left:?}");
        let mut all: Vec<u32> = popped.lock().unwrap().iter().copied().chain(left).collect();
        all.sort_unstable();
        assert_eq!(all, [1, 2, 3], "entry lost or duplicated");
    });
}

/// Exhausts the space at the default preemption bound (39 493
/// interleavings, about a minute in release). That the space is finite at
/// all is the retry parking in `find`: a search that restarts is a spin
/// iteration, so the checker does not re-read the same stale link forever.
#[test]
fn resumed_search_races_pop_clean() {
    let report = Model::new("list-resume").max_executions(60_000).check(resume_races_pop);
    report.assert_clean(60_000);
}

#[test]
fn list_resume_mutation_found() {
    let report = Model::new("list-resume-marked")
        .quiet()
        .mutation("list-resume-marked-node")
        .max_executions(30_000)
        .check(resume_races_pop);
    let v = report.expect_violation();
    assert!(v.message.contains("entry lost"), "expected a lost entry, got: {}", v.message);
}
