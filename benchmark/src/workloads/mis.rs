//! `mis_sparse`: greedy maximal independent set on Figure 2's sparse
//! G(n, m) class. Tasks are ~30 ns of sequential work, so the scheduler's
//! pop, the engine loop and the concurrent `try_process` are the whole cost.

use super::{run_prefill, set_up, Ctx, Prefill};
use crate::stats::timed;
use crate::trace::Tracer;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rsched_core::algorithms::mis::{greedy_mis, ConcurrentMis};
use rsched_graph::{gen, CsrGraph, Permutation};

struct Mis {
    g: CsrGraph,
    pi: Permutation,
    reference: Vec<bool>,
}

impl Prefill for Mis {
    type Alg<'a> = ConcurrentMis<'a>;
    type Output = Vec<bool>;

    fn pi(&self) -> &Permutation {
        &self.pi
    }

    fn alg(&self) -> ConcurrentMis<'_> {
        ConcurrentMis::new(&self.g, &self.pi)
    }

    fn finish(&self, alg: ConcurrentMis<'_>) -> Vec<bool> {
        alg.into_output()
    }

    fn sequential(&self) -> Vec<bool> {
        greedy_mis(&self.g, &self.pi)
    }

    fn correct(&self, out: &Vec<bool>) -> bool {
        *out == self.reference
    }
}

pub fn run(ctx: &mut Ctx<'_>, tracer: Option<&Tracer>) {
    let (n, m) = if ctx.quick { (20_000, 200_000) } else { (1_000_000, 10_000_000) };
    let seed = ctx.seed;
    let input = set_up(ctx, tracer.is_some(), |rec| {
        let mut rng = StdRng::seed_from_u64(seed);
        let ((g, pi), gen_s) =
            timed(|| (gen::gnm(n, m, &mut rng), Permutation::random(n, &mut rng)));
        rec.sample("graph.gen_s", gen_s);
        rec.sample("graph.input_mib", (g.memory_bytes() + 8 * n) as f64 / (1 << 20) as f64);
        let reference = greedy_mis(&g, &pi);
        Mis { g, pi, reference }
    });
    run_prefill(&input, ctx, tracer);
}
