//! Request handlers: the workload side of the streaming service.
//!
//! A [`RequestHandler`] is the streaming analog of
//! [`ConcurrentAlgorithm`](crate::framework::ConcurrentAlgorithm): it
//! processes one popped task and may *submit follow-up tasks* through the
//! [`SubmitCtx`] — the capability a prefilled run never needed (its task set
//! is closed) but a live service is built around. Any
//! `ConcurrentAlgorithm` lifts to a handler via [`AlgorithmHandler`];
//! [`SsspHandler`](crate::algorithms::sssp::SsspHandler) is a natively
//! streaming workload whose follow-ups are the label-correcting relaxation
//! wavefront.

use crate::framework::{ConcurrentAlgorithm, TaskOutcome};
use crate::TaskId;
use std::fmt;

/// Capability to submit follow-up tasks from inside a handler: a thin
/// wrapper over the popping worker's one outgoing buffer.
///
/// A submit is a `Vec::push`. The worker engine books every follow-up of a
/// run with the ledger in one step and then inserts them — together with
/// the run's failed deletes — in the one `insert_batch` that ends the run,
/// so a follow-up becomes poppable when its parent's run ends (at most
/// `batch_size` dispatches later). Submits bypass the producers' runs and
/// the shard watermark. This is deliberate — a follow-up gated on
/// backpressure could deadlock the very workers that must drain the
/// backlog. The ledger's termination argument relies on follow-ups being
/// accepted *before* they can be popped; the engine keeps that order
/// (DESIGN.md "Service semantics").
pub struct SubmitCtx<'a> {
    pub(crate) out: &'a mut Vec<(u64, TaskId)>,
}

impl fmt::Debug for SubmitCtx<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SubmitCtx").finish_non_exhaustive()
    }
}

impl SubmitCtx<'_> {
    /// Submits a follow-up task at the given priority. It is accepted by
    /// the ledger and inserted when the current run ends — whatever outcome
    /// the submitting `handle` returns, `Blocked` included — and will be
    /// processed exactly once before the service drains.
    pub fn submit(&mut self, priority: u64, task: TaskId) {
        self.out.push((priority, task));
    }
}

/// A streaming workload: processes popped tasks, possibly submitting
/// follow-ups.
///
/// Contract (mirroring `ConcurrentAlgorithm::try_process`, plus streaming):
///
/// * [`TaskOutcome::Blocked`] means "retry later"; the engine re-inserts
///   the task at its original priority and the attempt does not count as a
///   decision. Every accepted task must eventually reach a terminal
///   `Processed`/`Obsolete` outcome or the drain cannot terminate.
/// * Follow-up submits happen *during* `handle`, through the `ctx` it is
///   handed: they are accounted against the still-undecided parent, and
///   accepted and inserted when the parent's run ends — also when `handle`
///   then returns `Blocked`, so a handler that retries must not submit the
///   same follow-up again on the retry.
/// * `handle` must be safe to call from many workers concurrently.
pub trait RequestHandler: Sync {
    /// Processes one popped task (`priority` is the priority it was popped
    /// at — streaming workloads like SSSP encode request payload in it).
    fn handle(&self, priority: u64, task: TaskId, ctx: &mut SubmitCtx<'_>) -> TaskOutcome;
}

/// Lifts a [`ConcurrentAlgorithm`] into a [`RequestHandler`] with a closed
/// task set: `handle` is exactly `try_process`, no follow-ups.
///
/// This is how the prefill workloads (MIS, matching, coloring, shuffle,
/// contraction, connectivity, Delaunay) run behind the service front-end —
/// producers stream the task set in, the algorithm is unchanged.
#[derive(Debug)]
pub struct AlgorithmHandler<'a, A>(pub &'a A);

impl<A: ConcurrentAlgorithm> RequestHandler for AlgorithmHandler<'_, A> {
    fn handle(&self, _priority: u64, task: TaskId, _ctx: &mut SubmitCtx<'_>) -> TaskOutcome {
        self.0.try_process(task)
    }
}

/// Incremental connectivity as a service workload: producers stream edge
/// indices, the union-find absorbs them in any order. (A plain
/// [`AlgorithmHandler`] over
/// [`ConcurrentConnectivity`](crate::algorithms::incremental::connectivity::ConcurrentConnectivity),
/// named for discoverability — connectivity is the canonical
/// tasks-arrive-over-time workload of the incremental-algorithms line.)
pub type ConnectivityHandler<'a, 'e> =
    AlgorithmHandler<'a, crate::algorithms::incremental::connectivity::ConcurrentConnectivity<'e>>;
