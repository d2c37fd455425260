//! Random and structured graph generators.
//!
//! The paper's Figure 2 classes are Erdős–Rényi graphs given by node and
//! edge counts; `figure2` draws them with [`gnm`] (`G(n, m)`: exactly `m`
//! distinct edges), and [`gnp`] is the `G(n, p)` variant. The structured
//! and power-law families here back the wider test suite and the theorem
//! sweeps (e.g. the clique worst case of Theorem 1 uses [`complete`]).

mod er;
mod powerlaw;
mod regular;
mod structured;

pub use er::{gnm, gnp};
pub use powerlaw::barabasi_albert;
pub use regular::near_regular;
pub use structured::{complete, complete_bipartite, cycle, empty, grid2d, path, star};
