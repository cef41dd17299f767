//! `cobra` — a reproduction of *"The Coalescing-Branching Random Walk on Expanders and the
//! Dual Epidemic Process"* (Cooper, Radzik, Rivera; PODC 2016).
//!
//! This facade crate re-exports the workspace crates under one roof so applications (and the
//! examples and integration tests in this repository) can depend on a single name:
//!
//! * [`graph`] — graph substrate: CSR storage, generators for every family the paper uses,
//!   traversals and I/O ([`cobra_graph`]).
//! * [`spectral`] — eigenvalue / spectral-gap / conductance analysis ([`cobra_spectral`]).
//! * [`stats`] — reproducible Monte-Carlo execution, summaries, regression fits and tables
//!   ([`cobra_stats`]).
//! * [`core`] — the COBRA and BIPS processes, the exact duality machinery, the growth-bound
//!   audits and the baseline protocols ([`cobra_core`]).
//! * [`experiments`] — the E1–E10 experiment harness reproducing each theorem, plus the
//!   E9/E9b fault-injection and E10 adaptive-adversary robustness workloads
//!   ([`cobra_experiments`]).
//!
//! # Quick start
//!
//! Processes are *values*: a [`core::spec::ProcessSpec`] names any of the seven spreading
//! processes (COBRA, BIPS, random walks, PUSH, PUSH–PULL, the contact process) plus its
//! parameters, parses from a compact CLI syntax, and instantiates against any graph as a
//! `Box<dyn SpreadingProcess>`. The shared [`core::sim::Runner`] drives any of them with
//! composable stop conditions and observers:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobra::core::sim::Runner;
//! use cobra::core::spec::ProcessSpec;
//! use cobra::graph::generators;
//! use rand::SeedableRng;
//!
//! // A 3-regular random expander on 512 vertices.
//! let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(42);
//! let graph = generators::connected_random_regular(512, 3, &mut rng)?;
//!
//! // Its spectral gap certifies the paper's hypothesis ...
//! let profile = cobra::spectral::analyze(&graph)?;
//! assert!(profile.spectral_gap() > 0.05);
//!
//! // ... and COBRA with k = 2 covers it in O(log n) rounds.
//! let spec: ProcessSpec = "cobra:k=2".parse()?;
//! let outcome = Runner::new(100_000).run_spec(&spec, &graph, &mut rng)?;
//! assert!(outcome.completed() && outcome.rounds < 200);
//! # Ok(())
//! # }
//! ```
//!
//! The same spec syntax powers `repro --process cobra:k=2 --graph torus:sides=32x32` for
//! ad-hoc measurements, and experiment tables are literally `Vec<(label, ProcessSpec)>`
//! driven through `cobra::experiments::driver`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use cobra_core as core;
pub use cobra_experiments as experiments;
pub use cobra_graph as graph;
pub use cobra_spectral as spectral;
pub use cobra_stats as stats;

/// Compiles every fenced Rust block in `README.md` as a doctest, so the spec-grammar
/// examples documented there can never drift from the parsers (`cargo test` runs them).
#[doc = include_str!("../README.md")]
#[cfg(doctest)]
pub struct ReadmeDoctests;

/// The paper this workspace reproduces, for citation in downstream tools.
pub const PAPER: &str = "Cooper, Radzik, Rivera: The Coalescing-Branching Random Walk on \
                         Expanders and the Dual Epidemic Process, PODC 2016";

#[cfg(test)]
mod tests {
    #[test]
    fn facade_re_exports_are_wired() {
        let g = crate::graph::generators::petersen().expect("petersen");
        let profile = crate::spectral::analyze(&g).expect("profile");
        assert!((profile.lambda_abs - 2.0 / 3.0).abs() < 1e-9);
        assert!(crate::PAPER.contains("PODC"));
    }
}
