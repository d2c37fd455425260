//! Model-checked verification of the Harris list's run protocols (run with
//! `RUSTFLAGS="--cfg rsched_model" cargo test -p rsched-queues --test model_list`).
//!
//! Resumed search: `HarrisList::insert_run_with` starts each entry's search
//! at the node the entry before linked. That node is only a safe start while
//! its link word reads unmarked: once a pop has marked it, it may already be
//! unlinked, and an entry linked behind it is lost. The first scenario races
//! exactly that — a two-entry ascending run, so the second search resumes
//! from the first entry, against two pops that can claim that entry in
//! between. The seeded `list-resume-marked-node` mutation resumes without
//! checking the mark; the checker must then find the lost entry.
//!
//! Run pop: `HarrisList::pop_run_with` marks a prefix and unlinks it with one
//! CAS, and every unlink clears the finger if it names a node of the chain,
//! while an insert run re-checks the mark of the node it stored as the
//! finger. The second scenario races a run pop of 2 against an insert run
//! and a single pop, over the epoch backend. Two seeded mutations must be
//! found. `list-unlink-before-mark` (a pop swings the sentinel past its node
//! before marking it) lets an insert link behind an unlinked node and lose
//! an entry, or lets an insert run's re-check read its finger node unmarked
//! after it was unlinked. `list-finger-skip-recheck` (the insert run stores
//! the finger and never re-reads the mark) leaves the finger naming a node
//! no longer in the list — under EBR, a node its pool may hand out again.
//!
//! Both scenarios check, over every explored interleaving, that entries
//! popped plus entries left equal the entries inserted, each once, what is
//! left sorted.
#![cfg(rsched_model)]

use rsched_queues::concurrent::HarrisList;
use rsched_queues::reclaim::{Ebr, Reclaim, Vbr};
use rsched_sync::model::{Model, Report, Sim};
use std::sync::{Arc, Mutex};

/// Pops one entry of `list`, if it holds one.
fn pop_one<R: Reclaim>(list: &HarrisList<u32, R>) -> Option<u32> {
    let mut got = None;
    list.pop_run_with(1, |(_, v)| got = Some(v), &list.guard());
    got
}

/// Drains `list`, then checks `popped` plus what was left against
/// `inserted`.
fn audit<R: Reclaim>(list: &HarrisList<u32, R>, popped: &Mutex<Vec<u32>>, inserted: &[u32]) {
    let left: Vec<u32> = std::iter::from_fn(|| pop_one(list)).collect();
    assert!(left.is_sorted(), "list left unsorted: {left:?}");
    let mut all: Vec<u32> = popped.lock().unwrap().iter().copied().chain(left).collect();
    all.sort_unstable();
    assert_eq!(all, inserted, "entry lost or duplicated");
}

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
            let got: Vec<u32> = (0..2).filter_map(|_| pop_one(&list)).collect();
            popped.lock().unwrap().extend(got);
        });
    }
    sim.finally(move || audit(&list, &popped, &[1, 2, 3]));
}

/// Exhausts the space at the default preemption bound (51 713
/// interleavings, a minute and a half in release). That the space is
/// finite at all is the retry parking in `find`: a search that restarts is
/// a spin iteration, so the checker does not re-read the same stale link
/// forever.
#[test]
fn resumed_search_races_pop_clean() {
    let report = Model::new("list-resume").max_executions(100_000).check(resume_races_pop);
    report.assert_clean(100_000);
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

/// An empty list; thread A inserts the run `[2, 3]` (which leaves the
/// finger on `3`), thread B pops a run of 2, thread C pops one. Afterwards
/// the finger must be clear or name a node still linked. (The inserter goes
/// first: the search then reaches the preemptions that matter to both
/// mutants early.)
fn run_pop_races_insert_run_and_pop(sim: &mut Sim) {
    // Each execution starts from a rewound epoch world (direct mode: this
    // runs on the controller before any model thread exists).
    crossbeam::epoch::model_reset();
    let list = Arc::new(HarrisList::<u32, Ebr>::new_in());
    let popped = Arc::new(Mutex::new(Vec::new()));
    {
        let list = list.clone();
        sim.thread(move || list.insert_run_with([(2, 2, 2), (3, 3, 3)], &list.guard()));
    }
    {
        let (list, popped) = (list.clone(), popped.clone());
        sim.thread(move || {
            let mut got = Vec::new();
            list.pop_run_with(2, |(_, v)| got.push(v), &list.guard());
            popped.lock().unwrap().extend(got);
        });
    }
    {
        let (list, popped) = (list.clone(), popped.clone());
        sim.thread(move || {
            let got = pop_one(&list);
            popped.lock().unwrap().extend(got);
        });
    }
    sim.finally(move || {
        // Read before the audit's pops move the finger on.
        let finger_linked = list.finger_is_linked();
        audit(&list, &popped, &[2, 3]);
        assert!(finger_linked, "finger names a node no longer in the list");
    });
}

fn run_pop(mutation: Option<&str>) -> Report {
    let model = Model::new(mutation.unwrap_or("list-run-pop")).max_executions(400_000);
    match mutation {
        Some(m) => model.quiet().mutation(m).check(run_pop_races_insert_run_and_pop),
        None => model.check(run_pop_races_insert_run_and_pop),
    }
}

/// Exhausts the space at the default preemption bound (146 644
/// interleavings, about three minutes in release).
#[test]
fn run_pop_races_insert_run_and_pop_clean() {
    let report = run_pop(None);
    report.assert_clean(u64::MAX);
    assert!(report.exhausted);
}

/// Either symptom convicts the mutant: the finger's re-check is sound only
/// because a node is marked before it is unlinked.
#[test]
fn list_unlink_before_mark_mutation_found() {
    let v = run_pop(Some("list-unlink-before-mark")).expect_violation().message.clone();
    let found = v.contains("entry lost") || v.contains("finger names a node");
    assert!(found, "expected a lost entry or a dangling finger, got: {v}");
}

#[test]
fn list_finger_skip_recheck_mutation_found() {
    let v = run_pop(Some("list-finger-skip-recheck")).expect_violation().message.clone();
    assert!(v.contains("finger names a node"), "expected a dangling finger, got: {v}");
}
