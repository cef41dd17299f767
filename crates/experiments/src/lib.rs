//! Experiment harness reproducing every claim of the PODC 2016 COBRA/BIPS paper.
//!
//! The original paper is a theory paper: its "evaluation" is a set of theorems. Each
//! experiment here turns one theorem (or one claim from the prior work the paper leans on)
//! into a workload — a family of graph instances, a sweep of parameters, a set of Monte-Carlo
//! trials — and reports measured quantities next to the corresponding theoretical budgets so
//! the *shape* of the claim (who wins, what the scaling exponent is, where the hypotheses
//! break) can be checked directly.
//!
//! | id | claim | module |
//! |----|-------|--------|
//! | E1 | Theorem 1 — COBRA (k=2) covers expanders in `O(log n)`, independent of the degree | [`exp_cover`] |
//! | E2 | Theorem 1 — dependence of the cover time on the spectral gap | [`exp_gap`] |
//! | E3 | Theorem 2 — BIPS infects expanders in the same order as COBRA covers them | [`exp_infection`] |
//! | E4 | Theorem 4 — exact COBRA/BIPS duality | [`exp_duality`] |
//! | E5 | Lemma 1 / Corollary 1 — one-step growth lower bound | [`exp_growth`] |
//! | E6 | Theorem 3 — fractional branching `1+ρ` suffices for `O(log n)` | [`exp_branching`] |
//! | E7 | Dutta et al. context — grids vs expanders, COBRA vs PUSH / PUSH-PULL / random walks | [`exp_baselines`] |
//! | E8 | Lemmas 2–4 — the three-phase growth of the BIPS infection | [`exp_phases`] |
//! | E9 | Robustness — cover time under i.i.d. message drop, vertex crash and edge churn | [`exp_faults`] |
//! | E9b | Adversity v2 — bursty Gilbert–Elliott drop at matched stationary loss, transient crash/repair | [`exp_faults`] |
//! | E10 | Adaptive adversity — frontier-aware crash/drop/partition policies vs matched-budget oblivious rows | [`exp_adversary`] |
//! | E11 | Defense policies — recovery from the adaptive adversary, `budget= × rate=` lethality phase boundary | [`exp_defense`] |
//! | E12 | Heterogeneous networks — power-law (Chung–Lu) topology, per-edge Gilbert–Elliott channels, degree-proportional budgets | [`exp_hetero`] |
//!
//! Every experiment is deterministic given a master seed and comes in a `quick` preset (used
//! by unit tests and CI's smoke runs) and a `full` preset (`repro --exp <id>`, whose
//! tables and findings are the numbers PAPER.md quotes).
//!
//! Measurements are **spec-driven**: experiments describe the processes they compare as
//! [`cobra_core::spec::ProcessSpec`] values (see the protocol table of [`exp_baselines`]) and
//! hand them to [`driver`], which instantiates one `Box<dyn SpreadingProcess>` per trial
//! worker, resets it before each trial and drives it through the shared
//! [`cobra_core::sim::Runner`] under `cobra_stats::parallel::run_trials_with`.
//!
//! The same ad-hoc measurements are available as a service: [`serve`] runs a TCP server
//! speaking newline-delimited JSON (`repro serve`), with a bounded job queue, a worker-thread
//! pool and a shared LRU graph cache — and a bit-identity guarantee against the CLI path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod driver;
pub mod exp_adversary;
pub mod exp_baselines;
pub mod exp_branching;
pub mod exp_cover;
pub mod exp_defense;
pub mod exp_duality;
pub mod exp_faults;
pub mod exp_gap;
pub mod exp_growth;
pub mod exp_hetero;
pub mod exp_infection;
pub mod exp_phases;
pub mod instances;
pub mod registry;
pub mod result;
pub mod serve;

pub use registry::{run_experiment, ExperimentId};
pub use result::{ExperimentResult, Finding};
