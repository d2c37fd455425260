//! The contract of [`ConcurrentAlgorithm::is_obsolete`], the hook that lets
//! a scheduler discard a queued task unseen (DESIGN.md "Purging
//! semantics"), checked on the two algorithms that answer it: on arbitrary
//! graphs, with tasks attempted in an arbitrary order (so every mix of
//! processed, blocked and killed tasks occurs), a task reported obsolete
//! must be one `try_process` would drop without touching `remaining()`,
//! and the report must never revert.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::matching::{ConcurrentMatching, MatchingInstance};
use rsched_core::algorithms::mis::ConcurrentMis;
use rsched_core::framework::{ConcurrentAlgorithm, TaskOutcome};
use rsched_core::TaskId;
use rsched_graph::{gen, Permutation};

/// Attempts the tasks in `order`, sweep after sweep, until all are decided;
/// before every attempt, checks the three clauses on every task.
fn hook_contract_holds<A: ConcurrentAlgorithm>(
    alg: &A,
    order: &Permutation,
) -> Result<(), TestCaseError> {
    let n = alg.num_tasks() as TaskId;
    let mut obsolete = vec![false; n as usize];
    while alg.remaining() > 0 {
        for pos in 0..n {
            for t in 0..n {
                let now = alg.is_obsolete(t);
                prop_assert!(now || !obsolete[t as usize], "is_obsolete({}) reverted", t);
                obsolete[t as usize] = now;
                if now {
                    let before = alg.remaining();
                    prop_assert_eq!(alg.try_process(t), TaskOutcome::Obsolete);
                    prop_assert_eq!(alg.remaining(), before);
                }
            }
            alg.try_process(order.task_at(pos));
        }
    }
    // Not the default hook: a finished run has nothing left to hand over.
    prop_assert!((0..n).all(|t| alg.is_obsolete(t)));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn mis_hook_reports_only_final_counted_tasks(
        n in 1usize..40,
        density in 0usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gen::gnm(n, (n * density).min(n * (n - 1) / 2), &mut rng);
        let pi = Permutation::random(n, &mut rng);
        hook_contract_holds(&ConcurrentMis::new(&g, &pi), &Permutation::random(n, &mut rng))?;
    }

    #[test]
    fn matching_hook_reports_only_final_counted_tasks(
        n in 2usize..24,
        density in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inst = MatchingInstance::new(&gen::gnm(n, (n * density).min(n * (n - 1) / 2), &mut rng));
        let m = inst.num_edges();
        let pi = Permutation::random(m, &mut rng);
        hook_contract_holds(&ConcurrentMatching::new(&inst, &pi), &Permutation::random(m, &mut rng))?;
    }
}
