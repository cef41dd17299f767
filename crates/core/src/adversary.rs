//! The adaptive-adversary engine: state-aware fault policies.
//!
//! The oblivious [`fault`](crate::fault) layer decides its drops and crashes without ever
//! looking at the process — which is exactly the regime the paper's `O(log n/(1−λ)³)`
//! analysis tolerates. This module closes the gap from the other side: an
//! [`AdversaryPolicy`] observes a read-only [`ProcessView`] (frontier, per-round delta,
//! coverage, graph degrees) *before every round* and emits that round's
//! [`StepFaults`] — crash the frontier, drop the pushes that matter, cut the graph where
//! it is thinnest. The sparse-frontier engine makes the observation cheap: everything a
//! policy needs is exposed at `O(|frontier|)` (or `O(|delta|·deg)`) per round.
//!
//! # Policies
//!
//! | policy | spec clause | behaviour |
//! |--------|-------------|-----------|
//! | oblivious | `adv=oblivious` | builds no policy: the plan's own `drop=`/`gedrop=`/`crash=`/`repair=` clauses already are the oblivious adversary, so the run is **bit-identical** to the plan without the clause, in both engines (property-tested) |
//! | crash-top-degree | `adv=topdeg:budget=5%` (or `budget=12`, optional `rate=R`) | each round, permanently crashes up to `rate` (default 1) of the highest-degree *currently active* vertices, until a total budget (fraction or count of `V`) is spent; the start vertex is protected |
//! | drop-frontier | `adv=dropfront[:f=0.8]` | drops (with probability `f`, default 1) only the transmissions *leaving* the vertices that became active in the previous round — the growth front |
//! | partition | `adv=partition:w=16` | tracks the ever-active-vs-rest cut incrementally as a trigger; once the tracked side holds half the graph, each new sparsity minimum severs the *globally sparsest* cut (found once by the spectral sweep of [`cobra_spectral::conductance`]) for `w` rounds |
//!
//! All policies are deterministic functions of the observed state and the seeded RNG
//! stream (`partition` draws a bounded number of words once, for the power iteration's
//! random start vector), so adversarial runs stay bit-reproducible under seeded RNGs.
//!
//! # Spec syntax
//!
//! Adversaries ride on the normal `+` fault-clause grammar of
//! [`ProcessSpec`](crate::spec::ProcessSpec#impl-FromStr-for-ProcessSpec) and compose with oblivious clauses — the
//! documented examples below are executable and round-trip through the parser:
//!
//! ```
//! use cobra_core::spec::ProcessSpec;
//!
//! for text in [
//!     "cobra:k=2+adv=topdeg:budget=5%",
//!     "cobra:k=2+adv=topdeg:budget=12,rate=2",
//!     "push+adv=dropfront",
//!     "push+adv=dropfront:f=0.75",
//!     "cobra:k=2+adv=partition:w=16",
//!     "cobra:k=2+drop=0.1+crash=5%+adv=oblivious",
//!     "bips:k=2+drop=0.1+adv=topdeg:budget=5%",
//! ] {
//!     let spec: ProcessSpec = text.parse().expect(text);
//!     assert_eq!(spec.to_string(), text, "Display must round-trip the documented syntax");
//!     assert_eq!(spec.to_string().parse::<ProcessSpec>().unwrap(), spec);
//! }
//!
//! // Clause order is free on input; Display canonicalizes (loss, crash, repair, churn,
//! // adv, def).
//! let spec: ProcessSpec = "cobra:k=2+adv=oblivious+drop=0.1".parse().unwrap();
//! assert_eq!(spec.to_string(), "cobra:k=2+drop=0.1+adv=oblivious");
//! ```
//!
//! # Architecture
//!
//! [`ProcessSpec::build`](crate::spec::ProcessSpec::build) runs every plan through the
//! one environment wrapper, [`FaultedProcess`](crate::fault::FaultedProcess), which holds
//! the policy [`AdversarySpec::build_policy`] returns. Each round it calls
//! [`AdversaryPolicy::observe`] after the defense has acted and before the plan dynamics
//! advance, folds the policy's crashes into the plan's crashed set, and composes the
//! policy's [`faults`](AdversaryPolicy::faults) with the plan's into the view the inner
//! process steps under. The wrapper is an ordinary [`SpreadingProcess`], so the `Runner`,
//! every observer, churn segmentation
//! ([`run_churned_observed`](crate::fault::run_churned_observed) builds a fresh wrapper —
//! and thus a fresh policy with a fresh budget — per epoch, mirroring the per-epoch
//! re-draw of sampled crash sets) and the Monte-Carlo drivers handle adversarial runs
//! unchanged.

use std::fmt;
use std::str::FromStr;

use cobra_graph::{Graph, VertexBitset, VertexId};
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::fault::StepFaults;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// A read-only window onto a running process and its graph — everything an adversary may
/// observe, nothing it may touch.
///
/// The accessors mirror the cheap surface of [`SpreadingProcess`]: the explicit frontier
/// ([`for_each_active`](ProcessView::for_each_active), `O(|active|)`), the per-round delta
/// ([`newly_activated`](ProcessView::newly_activated), `O(|delta|)`), the `O(1)` counters,
/// the monotone coverage set and the graph's degree structure.
#[derive(Clone, Copy)]
pub struct ProcessView<'a> {
    process: &'a dyn SpreadingProcess,
    graph: &'a Graph,
}

impl fmt::Debug for ProcessView<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProcessView")
            .field("round", &self.process.round())
            .field("num_active", &self.process.num_active())
            .field("num_vertices", &self.process.num_vertices())
            .finish_non_exhaustive()
    }
}

impl<'a> ProcessView<'a> {
    /// A view over `process` running on `graph`.
    pub fn new(process: &'a dyn SpreadingProcess, graph: &'a Graph) -> Self {
        ProcessView { process, graph }
    }

    /// The underlying graph (read-only).
    pub fn graph(&self) -> &'a Graph {
        self.graph
    }

    /// Number of vertices of the instance.
    pub fn num_vertices(&self) -> usize {
        self.process.num_vertices()
    }

    /// Number of currently active vertices (`O(1)`).
    pub fn num_active(&self) -> usize {
        self.process.num_active()
    }

    /// The vertices that became active in the most recent transition (`O(|delta|)`).
    pub fn newly_activated(&self) -> &'a [VertexId] {
        self.process.newly_activated()
    }

    /// The monotone coverage set, for processes that track one distinct from the active
    /// set (see [`SpreadingProcess::coverage`]).
    pub fn coverage(&self) -> Option<&'a VertexBitset> {
        self.process.coverage()
    }

    /// Whether the observed process has reached its completion condition.
    pub fn is_complete(&self) -> bool {
        self.process.is_complete()
    }

    /// Calls `f` for every currently active vertex (`O(|active|)` for frontier processes).
    pub fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        self.process.for_each_active(f);
    }

    /// Degree of vertex `v` in the underlying graph.
    pub fn degree(&self, v: VertexId) -> usize {
        self.graph.degree(v)
    }
}

/// A state-aware fault policy: observes the process before each round and emits the
/// round's faults.
///
/// The two-phase contract ([`observe`](AdversaryPolicy::observe) mutates the policy,
/// [`faults`](AdversaryPolicy::faults) borrows the result) lets policies own their fault
/// bitsets without per-round allocation. Policies must be deterministic given the observed
/// state and the RNG stream, and must not draw from the RNG unless their semantics require
/// randomness — that is what keeps zero-strength policies (and `adv=oblivious` over a
/// benign plan) bit-identical to the bare process.
pub trait AdversaryPolicy: fmt::Debug + Send {
    /// Observes the process's state before the upcoming step and updates the policy's
    /// internal fault sets for that step.
    fn observe(&mut self, view: &ProcessView<'_>, rng: &mut dyn RngCore);

    /// The faults to apply in the upcoming step, borrowed from the policy's state.
    fn faults(&self) -> StepFaults<'_>;

    /// Restores the pre-trial state (budgets refill, tracked sets clear) so one policy
    /// allocation can serve several Monte-Carlo trials.
    fn reset(&mut self);
}

/// How much of the vertex set an adversary may spend.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AdversaryBudget {
    /// A fraction of the vertex set (spec syntax `budget=5%`), in `[0, 100]`.
    Percent {
        /// Percentage of vertices, in `[0, 100]`.
        percent: f64,
    },
    /// An absolute vertex count (spec syntax `budget=12`).
    Count {
        /// Number of vertices.
        count: usize,
    },
}

impl AdversaryBudget {
    /// The number of vertices the budget buys on an `n`-vertex instance (never more than
    /// the `n − 1` non-protected vertices).
    pub fn resolve(&self, n: usize) -> usize {
        let raw = match self {
            AdversaryBudget::Percent { percent } => ((percent / 100.0) * n as f64).round() as usize,
            AdversaryBudget::Count { count } => *count,
        };
        raw.min(n.saturating_sub(1))
    }

    pub(crate) fn validate(&self) -> Result<()> {
        if let AdversaryBudget::Percent { percent } = self {
            if !percent.is_finite() || !(0.0..=100.0).contains(percent) {
                return Err(CoreError::InvalidParameters {
                    reason: format!("adversary budget {percent}% must be in [0, 100]"),
                });
            }
        }
        Ok(())
    }

    pub(crate) fn parse(value: &str) -> Result<Self> {
        if let Some(percent) = value.strip_suffix('%') {
            let percent = percent.trim().parse().map_err(|_| CoreError::InvalidParameters {
                reason: format!("invalid adversary budget percentage {value:?}"),
            })?;
            Ok(AdversaryBudget::Percent { percent })
        } else {
            let count = value.trim().parse().map_err(|_| CoreError::InvalidParameters {
                reason: format!("invalid adversary budget count {value:?}"),
            })?;
            Ok(AdversaryBudget::Count { count })
        }
    }
}

impl fmt::Display for AdversaryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversaryBudget::Percent { percent } => write!(f, "{percent}%"),
            AdversaryBudget::Count { count } => write!(f, "{count}"),
        }
    }
}

/// A serializable description of an adaptive adversary, attached to a
/// [`FaultPlan`](crate::fault::FaultPlan) with an `adv=` clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum AdversarySpec {
    /// No policy (`adv=oblivious`): the plan's own oblivious clauses are the adversary, so
    /// the run is bit-identical to the plain fault path.
    Oblivious,
    /// Crash the highest-degree active vertices, up to `rate` per round, until `budget`
    /// vertices are down (`adv=topdeg:budget=5%[,rate=R]`). Crashes are permanent and the
    /// start vertex is protected.
    CrashTopDegree {
        /// Total crash budget over the whole run.
        budget: AdversaryBudget,
        /// Maximum crashes per round (default 1).
        rate: usize,
    },
    /// Drop transmissions leaving the previous round's newly activated vertices with
    /// probability `f` (`adv=dropfront[:f=0.8]`, default `f = 1`).
    DropFrontier {
        /// Per-transmission loss probability on the growth front, in `[0, 1]`.
        f: f64,
    },
    /// Sever the tracked ever-active-vs-rest cut for `window` rounds whenever its sparsity
    /// sets a new minimum, once the tracked side holds half the graph
    /// (`adv=partition:w=16`).
    Partition {
        /// Rounds each severance lasts.
        window: usize,
    },
}

impl AdversarySpec {
    /// Validates the policy parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for a budget percentage outside
    /// `[0, 100]`, a per-round rate of 0, a frontier drop probability outside `[0, 1]` or
    /// a partition window of 0.
    pub fn validate(&self) -> Result<()> {
        match self {
            AdversarySpec::Oblivious => Ok(()),
            AdversarySpec::CrashTopDegree { budget, rate } => {
                budget.validate()?;
                if *rate == 0 {
                    return Err(CoreError::InvalidParameters {
                        reason: "adv=topdeg rate must be at least 1 crash per round".to_string(),
                    });
                }
                Ok(())
            }
            AdversarySpec::DropFrontier { f } => {
                if !f.is_finite() || !(0.0..=1.0).contains(f) {
                    return Err(CoreError::InvalidParameters {
                        reason: format!("adv=dropfront probability f = {f} must be in [0, 1]"),
                    });
                }
                Ok(())
            }
            AdversarySpec::Partition { window } => {
                if *window == 0 {
                    return Err(CoreError::InvalidParameters {
                        reason: "adv=partition window must be at least 1 round".to_string(),
                    });
                }
                Ok(())
            }
        }
    }

    /// Builds the runtime policy for a process whose protected start vertex is `protect`.
    /// [`AdversarySpec::Oblivious`] builds none: the plan's own clauses already are the
    /// oblivious adversary.
    ///
    /// # Errors
    ///
    /// Propagates parameter validation.
    pub fn build_policy(&self, protect: VertexId) -> Result<Option<Box<dyn AdversaryPolicy>>> {
        self.validate()?;
        Ok(Some(match self {
            AdversarySpec::Oblivious => return Ok(None),
            AdversarySpec::CrashTopDegree { budget, rate } => Box::new(CrashTopDegreePolicy {
                budget: budget.clone(),
                rate: *rate,
                protect,
                remaining: None,
                crashed: None,
                candidates: Vec::new(),
            }),
            AdversarySpec::DropFrontier { f } => {
                Box::new(DropFrontierPolicy { f: *f, front: None, members: Vec::new() })
            }
            AdversarySpec::Partition { window } => Box::new(PartitionPolicy {
                window: *window,
                covered: None,
                covered_count: 0,
                crossing: 0,
                best: f64::INFINITY,
                frozen: None,
                severing_left: 0,
            }),
        }))
    }
}

/// Emits the clause-value form (`oblivious`, `topdeg:budget=5%`, `dropfront:f=0.75`,
/// `partition:w=16`) that [`FromStr`] parses back; defaulted parameters are omitted.
impl fmt::Display for AdversarySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdversarySpec::Oblivious => write!(f, "oblivious"),
            AdversarySpec::CrashTopDegree { budget, rate } => {
                write!(f, "topdeg:budget={budget}")?;
                if *rate != 1 {
                    write!(f, ",rate={rate}")?;
                }
                Ok(())
            }
            AdversarySpec::DropFrontier { f: prob } => {
                if *prob == 1.0 {
                    write!(f, "dropfront")
                } else {
                    write!(f, "dropfront:f={prob}")
                }
            }
            AdversarySpec::Partition { window } => write!(f, "partition:w={window}"),
        }
    }
}

impl FromStr for AdversarySpec {
    type Err = CoreError;

    fn from_str(text: &str) -> Result<Self> {
        let invalid = |reason: String| CoreError::InvalidParameters { reason };
        let (name, rest) = match text.split_once(':') {
            Some((name, rest)) => (name.trim(), rest),
            None => (text.trim(), ""),
        };
        // The policy arguments are a comma-separated key=value list.
        let mut args: Vec<(String, String)> = Vec::new();
        for token in rest.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = token.split_once('=').ok_or_else(|| {
                invalid(format!("adversary argument {token:?} must be key=value"))
            })?;
            args.push((key.trim().to_string(), value.trim().to_string()));
        }
        let mut take = |key: &str| -> Option<String> {
            let index = args.iter().position(|(k, _)| k == key)?;
            Some(args.remove(index).1)
        };
        let spec = match name.to_ascii_lowercase().as_str() {
            "oblivious" => AdversarySpec::Oblivious,
            "topdeg" | "crash-top-degree" => {
                let budget = take("budget").ok_or_else(|| {
                    invalid("adv=topdeg requires budget=<percent%|count>".to_string())
                })?;
                let rate = match take("rate") {
                    None => 1,
                    Some(raw) => raw.parse().map_err(|_| {
                        invalid(format!("invalid adv=topdeg rate {raw:?} (want a count ≥ 1)"))
                    })?,
                };
                AdversarySpec::CrashTopDegree { budget: AdversaryBudget::parse(&budget)?, rate }
            }
            "dropfront" | "drop-frontier" => {
                let f = match take("f") {
                    None => 1.0,
                    Some(raw) => raw.parse().map_err(|_| {
                        invalid(format!("invalid adv=dropfront probability {raw:?}"))
                    })?,
                };
                AdversarySpec::DropFrontier { f }
            }
            "partition" => {
                let window = take("w").or_else(|| take("window")).ok_or_else(|| {
                    invalid("adv=partition requires w=<rounds per severance>".to_string())
                })?;
                AdversarySpec::Partition {
                    window: window
                        .parse()
                        .map_err(|_| invalid(format!("invalid adv=partition window {window:?}")))?,
                }
            }
            other => {
                return Err(invalid(format!(
                    "unknown adversary policy `{other}` (expected oblivious, topdeg, \
                     dropfront or partition)"
                )))
            }
        };
        if let Some((key, _)) = args.first() {
            return Err(invalid(format!("unknown adversary argument `{key}` in {text:?}")));
        }
        spec.validate()?;
        Ok(spec)
    }
}

/// The `adv=topdeg` policy: crash the highest-degree active vertices, a few per round,
/// until the budget is spent.
#[derive(Debug)]
struct CrashTopDegreePolicy {
    budget: AdversaryBudget,
    rate: usize,
    protect: VertexId,
    /// Crashes left; resolved from the budget at the first observation.
    remaining: Option<usize>,
    crashed: Option<VertexBitset>,
    /// Scratch: the crashable members of the current frontier.
    candidates: Vec<VertexId>,
}

impl AdversaryPolicy for CrashTopDegreePolicy {
    // cobra-lint: hot
    // cobra-lint: draws(0)
    fn observe(&mut self, view: &ProcessView<'_>, _rng: &mut dyn RngCore) {
        let n = view.num_vertices();
        let remaining = self.remaining.get_or_insert_with(|| self.budget.resolve(n));
        if *remaining == 0 {
            return;
        }
        let crashed = self.crashed.get_or_insert_with(|| VertexBitset::new(n));
        let (candidates, protect) = (&mut self.candidates, self.protect);
        candidates.clear();
        view.for_each_active(&mut |v| {
            if v != protect && !crashed.contains(v) {
                candidates.push(v);
            }
        });
        let strikes = self.rate.min(*remaining).min(candidates.len());
        if strikes == 0 {
            return;
        }
        // Highest degree first; ties break on the lower vertex id. The comparator is a
        // total order (ids are unique), so a partial selection puts exactly the
        // top-`strikes` set in the prefix — O(|frontier|) per round instead of a full
        // sort, and the crashed set (all that matters) stays deterministic.
        if strikes < candidates.len() {
            candidates.select_nth_unstable_by(strikes - 1, |&a, &b| {
                view.degree(b).cmp(&view.degree(a)).then_with(|| a.cmp(&b))
            });
        }
        for &v in candidates.iter().take(strikes) {
            crashed.insert(v);
        }
        *remaining -= strikes;
    }

    fn faults(&self) -> StepFaults<'_> {
        StepFaults::new(0.0, self.crashed.as_ref())
    }

    fn reset(&mut self) {
        self.remaining = None;
        self.crashed = None;
        self.candidates.clear();
    }
}

/// The `adv=dropfront` policy: a targeted drop on the previous round's newly activated
/// vertices — exactly the growth front the paper's expansion lemmas rely on.
#[derive(Debug)]
struct DropFrontierPolicy {
    f: f64,
    front: Option<VertexBitset>,
    /// The bitset's member list, for `O(|front|)` dirty clearing.
    members: Vec<VertexId>,
}

impl AdversaryPolicy for DropFrontierPolicy {
    // cobra-lint: hot
    // cobra-lint: draws(0)
    fn observe(&mut self, view: &ProcessView<'_>, _rng: &mut dyn RngCore) {
        let front = self.front.get_or_insert_with(|| VertexBitset::new(view.num_vertices()));
        front.clear_list(&self.members);
        self.members.clear();
        for &v in view.newly_activated() {
            if front.insert(v) {
                self.members.push(v);
            }
        }
    }

    fn faults(&self) -> StepFaults<'_> {
        StepFaults::NONE.with_targeted(self.f, self.front.as_ref())
    }

    fn reset(&mut self) {
        self.front = None;
        self.members.clear();
    }
}

/// The `adv=partition` policy: severs the *globally sparsest* cut the spectral sweep
/// finds, for a window of rounds at each new sparsity minimum of the incrementally tracked
/// ever-active-vs-rest frontier cut.
///
/// The trigger machinery is unchanged from the frontier-cut version — the policy still
/// maintains the ever-active side and its crossing-edge count in `O(|delta|·deg)` per
/// round, arms once that side holds half the graph, and strikes at each new sparsity
/// minimum. What changed is the *severed set*: on the first strike the policy runs
/// [`spectral_sweep_conductance`](cobra_spectral::conductance::spectral_sweep_conductance)
/// once and freezes the sweep side — by Cheeger's inequality within a square of the
/// sparsest cut in the whole graph, and on structured families (a torus, say) strictly
/// sparser than whatever shape the frontier happened to have. A sparser cut means fewer
/// severed edges buy the same outage, so the upgrade only strengthens the adversary per
/// unit of disruption.
///
/// The arming threshold keeps the policy from degenerately severing the start vertex away
/// at round 0 (which would merely kill, not measure); severing at half coverage instead
/// stalls the uncovered part of the far side while the process keeps circulating on the
/// near side — an outage whose cost in rounds E10 measures.
#[derive(Debug)]
struct PartitionPolicy {
    window: usize,
    covered: Option<VertexBitset>,
    covered_count: usize,
    /// Edges between the tracked side and its complement, maintained incrementally.
    crossing: usize,
    /// Sparsity of the sparsest frontier cut seen so far (`∞` before the first strike).
    best: f64,
    /// Frozen spectral sweep side, computed once on the first strike.
    frozen: Option<VertexBitset>,
    /// Rounds of severance left, including the upcoming one.
    severing_left: usize,
}

impl AdversaryPolicy for PartitionPolicy {
    // cobra-lint: hot
    // cobra-lint: draws(bounded)
    fn observe(&mut self, view: &ProcessView<'_>, rng: &mut dyn RngCore) {
        let n = view.num_vertices();
        let covered = self.covered.get_or_insert_with(|| VertexBitset::new(n));
        // Incremental cut maintenance: when v joins the side, its edges to members stop
        // crossing and its edges to non-members start crossing. Re-activations are
        // filtered by the insert guard.
        for &v in view.newly_activated() {
            if covered.insert(v) {
                self.covered_count += 1;
                for w in view.graph().neighbor_iter(v) {
                    if covered.contains(w) {
                        self.crossing -= 1;
                    } else {
                        self.crossing += 1;
                    }
                }
            }
        }
        if self.severing_left > 0 {
            self.severing_left -= 1;
            return;
        }
        let small = self.covered_count.min(n - self.covered_count);
        let armed = 2 * self.covered_count >= n;
        if armed && small > 0 && self.crossing > 0 {
            let sparsity = self.crossing as f64 / small as f64;
            if sparsity < self.best {
                self.best = sparsity;
                if self.frozen.is_none() {
                    // One-time spectral sweep (the only RNG use: the power iteration's
                    // random start vector); the frontier cut is the fallback if the
                    // solver cannot run (it needs >= 2 vertices and >= 1 edge).
                    let side = cobra_spectral::conductance::spectral_sweep_conductance(
                        view.graph(),
                        &mut &mut *rng,
                    )
                    .map(|cut| cut.side)
                    .ok();
                    self.frozen = Some(match side {
                        Some(side) => {
                            let mut bits = VertexBitset::new(n);
                            for v in side {
                                bits.insert(v);
                            }
                            bits
                        }
                        None => covered.clone(),
                    });
                }
                self.severing_left = self.window;
            }
        }
    }

    fn faults(&self) -> StepFaults<'_> {
        let side = if self.severing_left > 0 { self.frozen.as_ref() } else { None };
        StepFaults::NONE.with_partition(side)
    }

    fn reset(&mut self) {
        self.covered = None;
        self.covered_count = 0;
        self.crossing = 0;
        self.best = f64::INFINITY;
        self.frozen = None;
        self.severing_left = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::run_until_complete;
    use crate::spec::ProcessSpec;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    fn examples() -> Vec<AdversarySpec> {
        vec![
            AdversarySpec::Oblivious,
            AdversarySpec::CrashTopDegree {
                budget: AdversaryBudget::Percent { percent: 5.0 },
                rate: 1,
            },
            AdversarySpec::CrashTopDegree { budget: AdversaryBudget::Count { count: 12 }, rate: 3 },
            AdversarySpec::DropFrontier { f: 1.0 },
            AdversarySpec::DropFrontier { f: 0.75 },
            AdversarySpec::Partition { window: 16 },
        ]
    }

    #[test]
    fn spec_parse_and_display_round_trip() {
        for spec in examples() {
            let text = spec.to_string();
            let back: AdversarySpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(spec, back, "round trip through {text:?}");
        }
        assert_eq!("topdeg:budget=5%".parse::<AdversarySpec>().unwrap(), examples()[1]);
        assert_eq!(
            "topdeg:budget=12,rate=3".parse::<AdversarySpec>().unwrap(),
            AdversarySpec::CrashTopDegree { budget: AdversaryBudget::Count { count: 12 }, rate: 3 }
        );
        assert_eq!(
            "dropfront".parse::<AdversarySpec>().unwrap(),
            AdversarySpec::DropFrontier { f: 1.0 }
        );
        assert_eq!(
            "partition:window=8".parse::<AdversarySpec>().unwrap(),
            AdversarySpec::Partition { window: 8 }
        );
    }

    #[test]
    fn spec_serde_round_trip() {
        for spec in examples() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: AdversarySpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "serde round trip through {json}");
        }
    }

    #[test]
    fn spec_parsing_rejects_junk() {
        assert!("frisbee".parse::<AdversarySpec>().is_err());
        assert!("topdeg".parse::<AdversarySpec>().is_err());
        assert!("topdeg:budget=150%".parse::<AdversarySpec>().is_err());
        assert!("topdeg:budget=abc".parse::<AdversarySpec>().is_err());
        assert!("topdeg:budget=5%,rate=0".parse::<AdversarySpec>().is_err());
        assert!("topdeg:budget=5%,bogus=1".parse::<AdversarySpec>().is_err());
        assert!("dropfront:f=1.5".parse::<AdversarySpec>().is_err());
        assert!("dropfront:f=abc".parse::<AdversarySpec>().is_err());
        assert!("partition".parse::<AdversarySpec>().is_err());
        assert!("partition:w=0".parse::<AdversarySpec>().is_err());
        assert!("oblivious:x=1".parse::<AdversarySpec>().is_err());
    }

    #[test]
    fn budget_resolves_and_caps_at_the_crashable_population() {
        assert_eq!(AdversaryBudget::Percent { percent: 25.0 }.resolve(40), 10);
        assert_eq!(AdversaryBudget::Count { count: 12 }.resolve(40), 12);
        assert_eq!(AdversaryBudget::Count { count: 99 }.resolve(40), 39);
        assert_eq!(AdversaryBudget::Percent { percent: 100.0 }.resolve(40), 39);
        assert_eq!(AdversaryBudget::Percent { percent: 0.0 }.resolve(40), 0);
    }

    #[test]
    fn top_degree_policy_crashes_the_hubs_first() {
        // A star: the hub (vertex 0) has degree n-1, every leaf degree 1. Start at a leaf
        // so the hub is crashable; the first strike must hit the hub.
        let graph = generators::star(8).unwrap();
        let spec: ProcessSpec = "push:start=1+adv=topdeg:budget=3".parse().unwrap();
        let mut process = spec.build(&graph).unwrap();
        let mut r = rng(3);
        process.step(&mut r);
        // After one observation the hub is down: PUSH from a leaf can inform the hub but
        // the rumour never leaves it again, so coverage freezes at {leaf, hub}.
        assert_eq!(run_until_complete(process.as_mut(), &mut r, 2_000), None);
        assert!(process.num_active() <= 2, "nothing spreads past the crashed hub");
    }

    #[test]
    fn top_degree_policy_respects_budget_rate_and_protection() {
        // Drive a real BIPS run (its infected set reaches every vertex fast on K_16, so
        // the policy always has crashable candidates) and watch the policy's own fault
        // view after every observation: at most `rate` new crashes per round, never the
        // protected source, and exactly the budget once enough rounds have passed.
        let graph = generators::complete(16).unwrap();
        let spec =
            AdversarySpec::CrashTopDegree { budget: AdversaryBudget::Count { count: 4 }, rate: 1 };
        let mut policy = spec.build_policy(0).unwrap().expect("topdeg builds a policy");
        let base: ProcessSpec = "bips:k=2".parse().unwrap();
        let mut inner = base.build(&graph).unwrap();
        let mut r = rng(7);
        let mut previous = 0;
        for round in 1..=10 {
            policy.observe(&ProcessView::new(inner.as_ref(), &graph), &mut r);
            let crashed = policy.faults().crashed_set().expect("budget > 0 allocates the set");
            let count = crashed.count();
            assert!(count <= 4, "round {round}: budget caps total crashes, got {count}");
            assert!(
                count - previous <= 1,
                "round {round}: rate=1 allows at most one new crash, got {}",
                count - previous
            );
            assert!(!crashed.contains(0), "round {round}: the protected source never crashes");
            previous = count;
            let faults = policy.faults();
            inner.step_faulted(crate::parallel::Draws::Trial(&mut r), &faults);
        }
        assert_eq!(previous, 4, "ten rounds of a growing frontier must exhaust the budget");
    }

    #[test]
    fn zero_budget_top_degree_never_crashes() {
        let graph = generators::complete(16).unwrap();
        let spec: ProcessSpec = "cobra:k=2+adv=topdeg:budget=0".parse().unwrap();
        let mut process = spec.build(&graph).unwrap();
        let mut r = rng(5);
        assert!(run_until_complete(process.as_mut(), &mut r, 10_000).is_some());
    }

    #[test]
    fn drop_frontier_tracks_the_previous_delta() {
        let graph = generators::complete(16).unwrap();
        let base: ProcessSpec = "push".parse().unwrap();
        let mut policy =
            AdversarySpec::DropFrontier { f: 0.5 }.build_policy(0).unwrap().expect("a policy");
        let inner = base.build(&graph).unwrap();
        let mut r = rng(11);
        policy.observe(&ProcessView::new(inner.as_ref(), &graph), &mut r);
        let faults = policy.faults();
        assert_eq!(faults.targeted_drop_probability(), 0.5);
        let front = faults.targeted_set().expect("initial delta is the start set");
        assert_eq!(front.count(), 1);
        assert!(front.contains(0));
        assert_eq!(faults.drop_probability(), 0.0, "no global drop");
    }

    #[test]
    fn frontier_drop_slows_push_but_it_still_completes() {
        // PUSH is monotone and non-frontier vertices keep pushing, so dropfront delays but
        // cannot halt it on a complete graph.
        let graph = generators::complete(64).unwrap();
        let bare: ProcessSpec = "push".parse().unwrap();
        let adv: ProcessSpec = "push+adv=dropfront".parse().unwrap();
        let mut totals = [0usize; 2];
        for seed in 0..5u64 {
            let mut p = bare.build(&graph).unwrap();
            totals[0] += run_until_complete(p.as_mut(), &mut rng(seed), 100_000).unwrap();
            let mut q = adv.build(&graph).unwrap();
            totals[1] += run_until_complete(q.as_mut(), &mut rng(seed), 100_000).unwrap();
        }
        assert!(
            totals[1] > totals[0],
            "dropping the growth front must cost rounds: bare {} vs adversarial {}",
            totals[0],
            totals[1]
        );
    }

    #[test]
    fn partition_policy_arms_freezes_and_releases() {
        let graph = generators::complete(8).unwrap();
        let base: ProcessSpec = "push".parse().unwrap();
        let mut policy =
            AdversarySpec::Partition { window: 3 }.build_policy(0).unwrap().expect("a policy");
        let mut inner = base.build(&graph).unwrap();
        // Put the process at exactly half coverage: the first observation sees the
        // four-vertex delta, arms, and strikes.
        inner.adopt_state(&[0, 1, 2, 3], None, 0).unwrap();
        let mut r = rng(13);
        for round in 0..3 {
            policy.observe(&ProcessView::new(inner.as_ref(), &graph), &mut r);
            let faults = policy.faults();
            let side = faults
                .severed_side()
                .unwrap_or_else(|| panic!("round {round}: the armed policy must sever"));
            // The frozen sweep side is a nontrivial cut and severs crossing pairs only.
            let count = side.count();
            assert!(count > 0 && count < 8, "sweep side must be a proper cut, got {count}");
            let inside = side.iter().next().unwrap();
            let outside = (0..8).find(|&v| !side.contains(v)).unwrap();
            assert!(faults.severs(inside, outside));
            assert!(!faults.severs(inside, inside));
            assert!(!faults.severs(outside, outside));
        }
        // The window is spent and the tracked sparsity has not improved, so the cut
        // releases — severances are windows, not permanent cuts...
        policy.observe(&ProcessView::new(inner.as_ref(), &graph), &mut r);
        assert!(policy.faults().severed_side().is_none(), "window over, cut released");
        // ...and the process completes unhindered afterwards.
        assert!(run_until_complete(inner.as_mut(), &mut r, 10_000).is_some());
    }

    #[test]
    fn spectral_sweep_cut_is_at_least_as_sparse_as_the_frontier_cut() {
        use cobra_spectral::conductance::{cut_conductance, spectral_sweep_conductance};
        // On a torus the frontier's half-coverage blob has a fat boundary while the sweep
        // recovers a thin band; on an expander every cut is fat, so the sweep can at worst
        // match. Either way the severed cut must not be *less* sparse than the frontier
        // cut it replaced.
        let torus = generators::torus_2d(8, 8).unwrap();
        let expander = generators::connected_random_regular(64, 8, &mut rng(23)).unwrap();
        for (name, graph) in [("torus", &torus), ("expander", &expander)] {
            let n = graph.num_vertices();
            // Grow a PUSH process to at least half coverage: its informed set is the
            // ever-active side the old policy would have severed.
            let base: ProcessSpec = "push".parse().unwrap();
            let mut process = base.build(graph).unwrap();
            let mut r = rng(29);
            while 2 * process.num_active() < n {
                process.step(&mut r);
            }
            let mut frontier_side = vec![false; n];
            process.for_each_active(&mut |v| frontier_side[v] = true);
            if frontier_side.iter().all(|&b| b) {
                panic!("{name}: process overshot to full coverage; pick a slower horizon");
            }
            let frontier_phi = cut_conductance(graph, &frontier_side).unwrap();
            let sweep = spectral_sweep_conductance(graph, &mut rng(31)).unwrap();
            let mut sweep_side = vec![false; n];
            for &v in &sweep.side {
                sweep_side[v] = true;
            }
            let sweep_phi = cut_conductance(graph, &sweep_side).unwrap();
            assert!(
                sweep_phi <= frontier_phi + 1e-9,
                "{name}: sweep cut (phi = {sweep_phi:.4}) must be at least as sparse as \
                 the frontier cut (phi = {frontier_phi:.4}) it replaced"
            );
        }
    }

    #[test]
    fn adversarial_specs_build_run_and_reset_through_the_runner() {
        use crate::sim::Runner;
        let graph = generators::complete(32).unwrap();
        for text in [
            "cobra:k=2+adv=oblivious+drop=0.1",
            "cobra:k=2+adv=topdeg:budget=2,rate=1",
            "push+adv=dropfront:f=0.5",
            "push+adv=partition:w=4",
            "bips:k=2+drop=0.1+adv=topdeg:budget=2",
        ] {
            let spec: ProcessSpec = text.parse().unwrap();
            let mut process = spec.build(&graph).unwrap_or_else(|e| panic!("{text}: {e}"));
            let outcome = Runner::new(100_000).run(process.as_mut(), &mut rng(17));
            assert!(outcome.completed(), "{text} should complete on K_32: {outcome:?}");
            // Reset and re-run: budgets refill, tracked sets clear.
            process.reset();
            assert_eq!(process.round(), 0);
            let again = Runner::new(100_000).run(process.as_mut(), &mut rng(18));
            assert!(again.completed(), "{text} should complete after reset: {again:?}");
        }
    }

    #[test]
    fn oblivious_adversary_builds_no_policy() {
        assert!(AdversarySpec::Oblivious.build_policy(0).unwrap().is_none());
        for spec in examples().into_iter().skip(1) {
            assert!(spec.build_policy(0).unwrap().is_some(), "{spec} builds a policy");
        }
    }

    #[test]
    fn adversarial_churned_specs_run_through_the_segment_driver() {
        use crate::fault::run_churned;
        use crate::sim::Runner;
        use cobra_graph::generators::GraphFamily;
        let family = GraphFamily::RandomRegular { n: 48, r: 4 };
        let spec: ProcessSpec = "cobra:k=2+adv=dropfront:f=0.5+churn=8".parse().unwrap();
        let runner = Runner::new(100_000);
        let a = run_churned(&spec, &family, &runner, &mut rng(19)).unwrap();
        let b = run_churned(&spec, &family, &runner, &mut rng(19)).unwrap();
        assert_eq!(a, b, "adversarial churned runs stay deterministic");
        assert!(a.rounds > 0);
    }
}
