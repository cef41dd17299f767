//! COBRA coalescing-branching random walks and the dual BIPS epidemic process.
//!
//! This crate is the primary contribution of the reproduction of *"The Coalescing-Branching
//! Random Walk on Expanders and the Dual Epidemic Process"* (Cooper, Radzik, Rivera;
//! PODC 2016). It implements, over the [`cobra_graph`] substrate:
//!
//! * [`cobra`] — the COBRA process: every active vertex pushes to `k` uniformly random
//!   neighbours (with replacement), duplicates coalesce, and a vertex is active next round iff
//!   it received a push this round. Both the paper's integer branching factor `k` and the
//!   fractional `1+ρ` branching of Theorem 3 are supported.
//! * [`bips`] — the dual **B**iased **I**nfection with **P**ersistent **S**ource process: a
//!   fixed source stays infected forever and every other vertex re-samples `k` random
//!   neighbours each round, becoming infected iff it sampled an infected neighbour.
//! * [`duality`] — exact (small graphs) and Monte-Carlo (large graphs) verification of the
//!   time-reversal duality of Theorem 4: `P̂(Hit_C(v) > t) = P(C ∩ A_t = ∅ | A_0 = {v})`.
//! * [`cover`] / [`infection`] — cover-time, hitting-time and infection-time measurement,
//!   including growth traces of the visited/infected sets.
//! * [`growth`] — empirical verification of the one-step growth bound of Lemma 1 /
//!   Corollary 1.
//! * [`theory`] — the paper's round budgets (`log n/(1-λ)³`, per-phase bounds, prior-work
//!   bounds) used for measured-vs-theory comparisons.
//! * [`baselines`] — the processes the paper positions COBRA against: the simple random walk,
//!   multiple independent random walks, PUSH, PUSH–PULL and a discrete SIS contact process.
//! * [`spec`] — [`ProcessSpec`]: a serializable, parseable value naming any of the seven
//!   processes plus its parameters, instantiated against a graph as a
//!   `Box<dyn SpreadingProcess>`.
//! * [`sim`] — the unified [`sim::Runner`] measurement loop: stop conditions (completion,
//!   round budget, target coverage) plus pluggable observers (active-count traces,
//!   first-visit/cover times, growth ratios). Fixed-graph runs, churned runs and
//!   [`process::run_until_complete`] all step through its one round loop.
//! * [`fault`] — the adversity layer: [`FaultPlan`]s describing message loss (i.i.d.
//!   `drop=f` or bursty Gilbert–Elliott `gedrop=pb,pg,fb[,fg]`), crashed vertices
//!   (permanent, or transient with `repair=r`) and edge churn, applied to any process
//!   through the [`FaultedProcess`] environment wrapper (spec syntax
//!   `cobra:k=2+drop=0.1+crash=5%`), which also runs the plan's adversary and defense
//!   policies, and the churn drivers [`fault::run_churned`] /
//!   [`fault::run_churned_observed`], which re-instantiate the graph every `T` rounds and
//!   run each epoch through the `Runner`'s round loop.
//! * [`adversary`] — the *adaptive* adversity layer: an [`AdversaryPolicy`] observes a
//!   read-only [`ProcessView`] (frontier, delta, coverage, degrees) each round and emits
//!   that round's faults — crash the highest-degree active vertices
//!   (`adv=topdeg:budget=5%`), drop the growth front's pushes (`adv=dropfront`), sever the
//!   tracked coverage cut (`adv=partition:w=16`), or leave the plan's oblivious clauses as
//!   the whole adversary (`adv=oblivious`, bit-identical to omitting it).
//! * [`defense`] — the recovery mirror: a [`DefensePolicy`] observes the same read-only
//!   view and spends recovery levers — AIMD-boost `k` on coverage stall
//!   (`def=boostk:trigger=stall,w=8,cap=4`), re-seed the dead frontier from the coverage
//!   boundary (`def=reseed:m=1%,cooldown=16`), servo `k` toward the growth-ratio closed
//!   form (`def=adaptivek:target=growth-ratio`), or do nothing bit-identically
//!   (`def=passive`).
//!
//! # The sparse-frontier engine
//!
//! The paper's regime of interest starts from a *single* active vertex and runs
//! `Θ(log n)`–`Θ(n log n)` rounds, so per-round costs dominate everything. All processes and
//! observers therefore follow a shared cost model:
//!
//! * a process `step` iterates an **explicit frontier** (the current active set as a vertex
//!   list, ascending) and touches scratch state through a word-level
//!   [`VertexBitset`](cobra_graph::VertexBitset) — `O(|A_t| · k + n/512)` per round for the
//!   push-style processes (COBRA, PUSH, contact, walks) instead of an `O(n)` dense scan.
//!   Scratch sets are erased through **dirty lists** (`clear_list`), never `fill(false)`.
//!   BIPS and the pull half of PUSH–PULL are inherently `Θ(n)` per round (every vertex
//!   re-samples — that *is* the protocol), but share the same bookkeeping;
//! * neighbour sampling is one `next_u64` per draw via the Lemire-style
//!   [`sample_neighbor`](cobra_graph::Graph::sample_neighbor) /
//!   [`sample::sample_slice`](cobra_graph::sample::sample_slice) reduction;
//! * observers consume the per-round **delta**
//!   [`newly_activated`](process::SpreadingProcess::newly_activated) in `O(|delta|)`, plus
//!   the `O(1)` [`num_active`](process::SpreadingProcess::num_active) counter.
//!
//! Frontier iteration deliberately preserves the dense engines' ascending vertex order, so a
//! frontier process driven by a seeded RNG reproduces the corresponding dense-scan engine bit
//! for bit — a property the test suite enforces for all seven processes against the dense
//! engines kept in `tests/support/dense.rs`.
//!
//! # Quick start
//!
//! Every process is a value: name it in a [`ProcessSpec`] (or parse one from a string such
//! as `"cobra:k=2"`), instantiate it against any graph, and drive it through the shared
//! [`sim::Runner`]:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobra_core::sim::Runner;
//! use cobra_core::spec::ProcessSpec;
//! use cobra_graph::generators;
//! use rand::SeedableRng;
//!
//! let graph = generators::hypercube(7)?; // 128 vertices
//! let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
//! let spec: ProcessSpec = "cobra:k=2".parse()?;
//! let outcome = Runner::new(10_000).run_spec(&spec, &graph, &mut rng)?;
//! assert!(outcome.completed() && outcome.rounds < 100);
//! # Ok(())
//! # }
//! ```
//!
//! Statically-typed construction still works, and [`process::run_until_complete`] drives any
//! `&mut dyn SpreadingProcess`:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobra_core::cobra::{Branching, CobraProcess};
//! use cobra_core::process::{run_until_complete, SpreadingProcess};
//! use cobra_graph::generators;
//! use rand::SeedableRng;
//!
//! let graph = generators::hypercube(7)?;
//! let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
//! let mut process = CobraProcess::new(&graph, 0, Branching::fixed(2)?)?;
//! let rounds = run_until_complete(&mut process, &mut rng, 10_000)
//!     .expect("an expander is covered quickly");
//! assert!(rounds < 100);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod adversary;
pub mod baselines;
pub mod bips;
pub mod cobra;
pub mod counting;
pub mod cover;
pub mod defense;
pub mod duality;
pub mod fault;
pub mod growth;
pub mod infection;
pub mod parallel;
pub mod process;
pub mod sim;
pub mod spec;
pub mod theory;

mod error;

pub use adversary::{AdversaryBudget, AdversaryPolicy, AdversarySpec, ProcessView};
pub use bips::BipsProcess;
pub use cobra::{Branching, CobraProcess};
pub use counting::CountingRng;
pub use defense::{DefenseActions, DefensePolicy, DefenseSpec, DefenseStats};
pub use error::CoreError;
pub use fault::{CrashSpec, DropModel, FaultPlan, FaultedProcess, StepFaults};
pub use parallel::{Draws, ParallelFrontier, ParallelProcess};
pub use process::SpreadingProcess;
pub use sim::{RunOutcome, Runner};
pub use spec::ProcessSpec;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
