//! The paper's bound shapes, for predicted-vs-measured reporting.
//!
//! These are *shapes*, not certified constants: the paper's proofs hide
//! constants inside `O(·)`, so the bench harnesses report the measured
//! quantity next to these functions evaluated with constant 1 and check
//! growth trends (flat in `n`, polynomial in `k`), not absolute values.

/// `poly(k)` as instantiated by the proofs of Theorems 1–2:
/// `k⁴ · log k` (Lemma 1 contributes `k³ log k`, Lemma 2 another `k`).
pub fn poly_k(k: f64) -> f64 {
    if k <= 1.0 {
        return 0.0; // an exact scheduler wastes nothing
    }
    k.powi(4) * k.ln()
}

/// The paper's §5 conjecture: the true relaxation cost is `Θ(k)` for both
/// theorems. The sweeps report this next to the proven shape.
pub fn conjectured_extra(k: usize) -> f64 {
    k as f64
}

/// The clique lower bound discussed after Theorem 1: greedy coloring on
/// `K_n` needs `Θ(nk)` iterations under a `k`-relaxed scheduler.
pub fn clique_lower_bound(n: usize, k: usize) -> f64 {
    (n * k) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_scheduler_is_free() {
        assert_eq!(poly_k(1.0), 0.0);
        assert_eq!(poly_k(0.5), 0.0);
    }

    #[test]
    fn bounds_monotone_in_k() {
        for k in 2..64usize {
            assert!(poly_k(k as f64) < poly_k(k as f64 + 1.0));
            assert!(conjectured_extra(k) < conjectured_extra(k + 1));
        }
        assert!(clique_lower_bound(10, 4) < clique_lower_bound(10, 5));
    }
}
