//! Fault injection: run any spreading process over an adversarial network.
//!
//! The paper motivates COBRA as *robust* information propagation, and Theorem 3's fractional
//! branching factor `1+ρ` is structurally the same object as COBRA `k = 2` whose pushes are
//! dropped i.i.d. by a lossy network: a push survives with probability `1−f`, so the expected
//! effective branching is `k(1−f)`. This module turns that observation into a workload layer
//! every process can run under:
//!
//! * **message drop** — each transmission is lost with a probability set by a [`DropModel`]:
//!   either i.i.d. per message (`drop=f`) or governed by a **Gilbert–Elliott two-state
//!   Markov channel** (`gedrop=pb,pg,fb[,fg]`) whose *bursty* losses model real lossy links
//!   (cf. Coop-RPL on AMI networks, PAPERS.md). For correlated models the `k(1−f)` heuristic
//!   applies with the **stationary** loss rate ([`DropModel::stationary_loss`]);
//! * **vertex crash** — a crashed vertex still *receives* (it can be covered/infected) but
//!   never relays: it sends no pushes, its infection is invisible to BIPS samplers, a walker
//!   standing on it is stuck. Crash sets are explicit (persistent across trials) or sampled
//!   per trial, and with a `repair=r` clause crashes become **transient**: each crashed
//!   vertex repairs with probability `r` per round while healthy vertices re-crash at the
//!   rate that keeps the crashed fraction stationary;
//! * **edge churn** — the graph is re-instantiated from its random family every `T` rounds
//!   while the process state (active set + coverage) migrates to the new instance.
//!
//! The correspondence to Theorem 3 is deliberately *not* exact: under `1+ρ` branching a
//! vertex always performs at least one push, while under i.i.d. drop *both* of COBRA's
//! pushes can be lost (probability `f²` per vertex per round), so the active set can shrink
//! and even die out. Experiments E9 and E9b measure how much that costs.
//!
//! # Architecture
//!
//! Faults are applied *inside* each process step: [`SpreadingProcess::step_faulted`] receives
//! a [`StepFaults`] view (drop probability + crashed set) and every process consults it at
//! its transmission points. The [`FaultedProcess`] wrapper is the whole per-trial
//! environment of a [`FaultPlan`]: it resolves the crash set (sampling it from the trial RNG
//! on first use), advances the Gilbert–Elliott channel and any per-edge channel bank once
//! per round, runs the plan's [`adversary`](crate::adversary) and
//! [`defense`](crate::defense) policies, and forwards every step — so the `Runner`, all
//! observers and `driver::run_spec_trials` drive a faulted process exactly like a bare one.
//! A benign plan (no loss, no crashes) draws no extra randomness, which keeps the wrapped
//! process bit-for-bit identical to the bare process under the same seeded RNG
//! (property-tested in `tests/fault_equivalence.rs`). Channel sojourns are sampled
//! geometrically *on entry* to a state, so rounds spent inside a state — in particular
//! every round of a loss-free good period — advance the channel with **zero RNG draws**,
//! and degenerate transition probabilities (`gedrop=1,1,f,f`, expected burst length 1)
//! reproduce `drop=f` bit for bit.
//!
//! Churn cannot be expressed by a wrapper over a process that borrows one fixed graph;
//! [`run_churned`] re-instantiates the [`GraphFamily`] every `T` rounds instead, migrates
//! the process state through [`SpreadingProcess::adopt_state`] (carrying walker
//! multiplicities exactly via [`SpreadingProcess::for_each_token`], and resuming the round
//! index) and runs each epoch through the `Runner`'s round loop. [`run_churned_observed`]
//! threads `Runner` observers across the epochs: traces and first-visit times see one
//! continuous run with a monotone round index.
//!
//! # Spec syntax
//!
//! Fault clauses are appended to any process spec with `+`. The examples below are
//! executable — each documented clause string parses and its [`Display`](fmt::Display)
//! form round-trips, so the syntax shown here cannot drift from the parser:
//!
//! ```
//! use cobra_core::spec::ProcessSpec;
//!
//! for text in [
//!     // 10% i.i.d. message drop.
//!     "cobra:k=2+drop=0.1",
//!     // Gilbert–Elliott: P(good→bad)=0.1, P(bad→good)=0.25 (mean burst 4 rounds),
//!     // 50% loss when bad, 0% when good…
//!     "cobra:k=2+gedrop=0.1,0.25,0.5",
//!     // …and 2% residual loss in the good state.
//!     "push+gedrop=0.1,0.25,0.5,0.02",
//!     // 5% of the vertices crash (sampled per trial, start excluded).
//!     "cobra:k=2+crash=5%",
//!     // Transient: crashed vertices repair w.p. 0.1 per round, healthy ones
//!     // re-crash so 5% stay down in expectation.
//!     "cobra:k=2+crash=5%+repair=0.1",
//!     // 12 random vertices crash.
//!     "push+crash=12",
//!     // Vertices 3 and 8 crash (persistent across trials).
//!     "bips:k=2+crash=v3;v8",
//!     // Drop plus graph re-instantiation every 64 rounds.
//!     "cobra:k=2+drop=0.1+churn=64",
//!     // A state-aware adversary policy (see `adversary`): crash the highest-degree
//!     // active vertices under a 5% budget.
//!     "cobra:k=2+adv=topdeg:budget=5%",
//!     // A recovery policy (see `defense`): AIMD-boost k when coverage stalls,
//!     // fighting the crash-the-hubs adversary on the same run.
//!     "cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4",
//! ] {
//!     let spec: ProcessSpec = text.parse().expect(text);
//!     assert_eq!(spec.to_string(), text, "documented syntax must round-trip");
//! }
//! ```

use std::fmt;

use cobra_graph::generators::GraphFamily;
use cobra_graph::{sample, Graph, VertexBitset, VertexId};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::adversary::{AdversaryPolicy, AdversarySpec, ProcessView};
use crate::defense::{DefensePolicy, DefenseSpec, DefenseStats};
use crate::parallel::{Draws, ADVERSARY_ENTITY, DEFENSE_ENTITY, FAULT_ENTITY};
use crate::process::SpreadingProcess;
use crate::sim::{Observer, RunOutcome, Runner};
use crate::spec::ProcessSpec;
use crate::{CoreError, Result};

/// The message-loss model of a [`FaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DropModel {
    /// Every transmission is lost independently with probability `f` (spec clause `drop=f`).
    Iid {
        /// Per-transmission loss probability, in `[0, 1]`.
        f: f64,
    },
    /// Gilbert–Elliott correlated loss (spec clause `gedrop=pb,pg,fb[,fg]`): a two-state
    /// Markov channel alternates between a *good* and a *bad* state once per round, and
    /// every transmission of the round is lost i.i.d. with the current state's loss rate.
    /// The expected bad-burst length is `1/p_good` rounds; the channel starts good.
    GilbertElliott {
        /// Per-round probability of leaving the good state (`pb`), in `[0, 1]`.
        p_bad: f64,
        /// Per-round probability of leaving the bad state (`pg`), in `[0, 1]`; the mean
        /// burst length is `1/pg` rounds.
        p_good: f64,
        /// Per-transmission loss probability while the channel is bad (`fb`), in `[0, 1]`.
        f_bad: f64,
        /// Per-transmission loss probability while the channel is good (`fg`, default 0).
        f_good: f64,
    },
    /// Per-**edge** Gilbert–Elliott loss (spec clause `gedrop=pb,pg,fb[,fg]:scope=edge`):
    /// every edge of the graph runs its *own* independent two-state channel with these
    /// parameters, so bursts hit individual links instead of silencing the whole network
    /// at once — the loss geography of real radio meshes. The state vector is sparse
    /// (only currently-bad edges are materialised, see `EdgeChannels`), all channels start
    /// good, and a round in which every edge is good draws **zero** RNG words.
    EdgeGilbertElliott {
        /// Per-round probability of an edge leaving its good state (`pb`), in `[0, 1]`.
        p_bad: f64,
        /// Per-round probability of an edge leaving its bad state (`pg`), in `[0, 1]`.
        p_good: f64,
        /// Per-transmission loss probability on a bad edge (`fb`), in `[0, 1]`.
        f_bad: f64,
        /// Per-transmission loss probability on a good edge (`fg`, default 0).
        f_good: f64,
    },
}

impl Default for DropModel {
    fn default() -> Self {
        DropModel::Iid { f: 0.0 }
    }
}

impl DropModel {
    /// The i.i.d. model with loss probability `f` (not validated; see
    /// [`FaultPlan::validate`]).
    pub const fn iid(f: f64) -> Self {
        DropModel::Iid { f }
    }

    /// Whether the model can never lose a message (and therefore never touches the RNG).
    fn is_lossless(&self) -> bool {
        match self {
            DropModel::Iid { f } => *f == 0.0,
            DropModel::GilbertElliott { f_bad, f_good, .. }
            | DropModel::EdgeGilbertElliott { f_bad, f_good, .. } => {
                *f_bad == 0.0 && *f_good == 0.0
            }
        }
    }

    /// The long-run fraction of transmissions lost — the `f` at which the `k(1−f)`
    /// effective-branching heuristic applies to a correlated channel. For the i.i.d. model
    /// this is `f` itself; for Gilbert–Elliott it is `π_b·fb + (1−π_b)·fg` with the
    /// stationary bad-state probability `π_b = pb/(pb+pg)`.
    pub fn stationary_loss(&self) -> f64 {
        match *self {
            DropModel::Iid { f } => f,
            DropModel::GilbertElliott { p_bad, p_good, f_bad, f_good }
            | DropModel::EdgeGilbertElliott { p_bad, p_good, f_bad, f_good } => {
                if p_bad + p_good == 0.0 {
                    // The chain never moves; it starts (and stays) good.
                    f_good
                } else {
                    let pi_bad = p_bad / (p_bad + p_good);
                    pi_bad * f_bad + (1.0 - pi_bad) * f_good
                }
            }
        }
    }

    fn validate(&self) -> Result<()> {
        let probability = |name: &str, value: f64| -> Result<()> {
            if !value.is_finite() || !(0.0..=1.0).contains(&value) {
                return Err(CoreError::InvalidParameters {
                    reason: format!("{name} = {value} must be in [0, 1]"),
                });
            }
            Ok(())
        };
        match *self {
            DropModel::Iid { f } => probability("drop probability", f),
            DropModel::GilbertElliott { p_bad, p_good, f_bad, f_good }
            | DropModel::EdgeGilbertElliott { p_bad, p_good, f_bad, f_good } => {
                probability("gedrop transition P(good->bad)", p_bad)?;
                probability("gedrop transition P(bad->good)", p_good)?;
                probability("gedrop bad-state loss", f_bad)?;
                probability("gedrop good-state loss", f_good)
            }
        }
    }
}

/// How the crashed-vertex set of a [`FaultPlan`] is chosen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum CrashSpec {
    /// No crashed vertices.
    #[default]
    None,
    /// A fraction of the vertex set, sampled uniformly per trial (spec syntax `crash=5%`).
    /// The process start vertex is excluded so runs do not fail trivially.
    Percent {
        /// Percentage of vertices to crash, in `[0, 100]`.
        percent: f64,
    },
    /// A fixed number of vertices, sampled uniformly per trial (spec syntax `crash=12`).
    /// The process start vertex is excluded.
    Count {
        /// Number of vertices to crash.
        count: usize,
    },
    /// An explicit vertex list (spec syntax `crash=v3;v8`): the same set in every trial.
    Vertices {
        /// The crashed vertices.
        vertices: Vec<VertexId>,
    },
}

impl CrashSpec {
    /// Whether the spec names no crashed vertices at all.
    pub fn is_none(&self) -> bool {
        match self {
            CrashSpec::None => true,
            CrashSpec::Percent { percent } => *percent == 0.0,
            CrashSpec::Count { count } => *count == 0,
            CrashSpec::Vertices { vertices } => vertices.is_empty(),
        }
    }

    /// Number of vertices to crash on a graph with `n` vertices.
    fn resolve_count(&self, n: usize) -> usize {
        match self {
            CrashSpec::None => 0,
            CrashSpec::Percent { percent } => ((percent / 100.0) * n as f64).round() as usize,
            CrashSpec::Count { count } => *count,
            CrashSpec::Vertices { vertices } => vertices.len(),
        }
    }
}

/// A serializable description of per-round adversity, attached to a
/// [`ProcessSpec`] with `+` clauses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// The message-loss model (`drop=f` or `gedrop=pb,pg,fb[,fg]`).
    pub drop: DropModel,
    /// The crashed-vertex set.
    pub crash: CrashSpec,
    /// Per-round repair probability for crashed vertices (`repair=r`): crashes become
    /// transient, and for sampled crash sets healthy vertices re-crash at the rate
    /// `r·π/(1−π)` that keeps the crashed fraction stationary at the configured `π`.
    /// Explicit `crash=v…` lists are an initial condition: they heal and never re-crash.
    /// `None` keeps crashes permanent within a trial.
    pub repair: Option<f64>,
    /// Re-instantiate the graph family every this many rounds (`churn=T`).
    pub churn: Option<usize>,
    /// A state-aware adversary policy (`adv=<policy>`, e.g. `adv=topdeg:budget=5%`):
    /// instead of (or in addition to) the oblivious clauses above, a policy from
    /// [`adversary`](crate::adversary) observes the process each round and emits that
    /// round's faults. `None` keeps the plan fully oblivious.
    pub adversary: Option<AdversarySpec>,
    /// A recovery policy (`def=<policy>`, e.g. `def=boostk:trigger=stall,w=8,cap=4`): a
    /// policy from [`defense`](crate::defense) observes the process each round and spends
    /// recovery levers (branching boost, re-seeding, backoff). `None` runs undefended.
    pub defense: Option<DefenseSpec>,
}

impl FaultPlan {
    /// A plan with only i.i.d. message drop.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] unless `0 ≤ f ≤ 1`.
    pub fn with_drop(f: f64) -> Result<Self> {
        let plan = FaultPlan { drop: DropModel::iid(f), ..FaultPlan::default() };
        plan.validate()?;
        Ok(plan)
    }

    /// Whether the plan injects no faults: no possible loss, no crashes, no churn, and no
    /// `adv=` or `def=` clause (a plan carrying one is never benign).
    pub fn is_benign(&self) -> bool {
        self.drop.is_lossless()
            && self.crash.is_none()
            && self.churn.is_none()
            && self.adversary.is_none()
            && self.defense.is_none()
    }

    /// Validates every field.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for loss or transition probabilities outside
    /// `[0, 1]`, a crash percentage outside `[0, 100]`, a repair rate outside `[0, 1]` or
    /// without a crash clause, or a churn period of zero.
    pub fn validate(&self) -> Result<()> {
        self.drop.validate()?;
        if let CrashSpec::Percent { percent } = self.crash {
            if !percent.is_finite() || !(0.0..=100.0).contains(&percent) {
                return Err(CoreError::InvalidParameters {
                    reason: format!("crash percentage {percent} must be in [0, 100]"),
                });
            }
        }
        if let Some(repair) = self.repair {
            if !repair.is_finite() || !(0.0..=1.0).contains(&repair) {
                return Err(CoreError::InvalidParameters {
                    reason: format!("repair rate {repair} must be in [0, 1]"),
                });
            }
            if self.crash.is_none() {
                return Err(CoreError::InvalidParameters {
                    reason: "repair= only makes sense together with a crash= clause".to_string(),
                });
            }
        }
        if self.churn == Some(0) {
            return Err(CoreError::InvalidParameters {
                reason: "churn period must be at least 1 round".to_string(),
            });
        }
        if let Some(adversary) = &self.adversary {
            adversary.validate()?;
        }
        if let Some(defense) = &self.defense {
            defense.validate()?;
        }
        Ok(())
    }

    /// Parses a `+`-joined clause list (`drop=0.1+crash=5%+churn=64`,
    /// `gedrop=0.1,0.25,0.5+crash=5%+repair=0.1`; crash values may be a percentage, a count
    /// like `crash=12`, or an explicit list `crash=v3;v8`) into a validated plan, rejecting
    /// unknown, malformed and duplicate clauses — including a duplicate of the
    /// explicitly-supported `drop=0`, and `drop=` next to `gedrop=` (one loss model per
    /// plan).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for unknown, malformed, duplicate or
    /// out-of-range clauses.
    pub fn parse_clauses(text: &str) -> Result<Self> {
        let invalid = |reason: String| CoreError::InvalidParameters { reason };
        let mut plan = FaultPlan::default();
        let (mut seen_drop, mut seen_crash, mut seen_repair, mut seen_churn, mut seen_adv) =
            (false, false, false, false, false);
        let mut seen_def = false;
        for clause in text.split('+') {
            let (key, value) = clause
                .split_once('=')
                .ok_or_else(|| invalid(format!("fault clause {clause:?} must be key=value")))?;
            match key.trim() {
                "drop" => {
                    if seen_drop {
                        return Err(invalid("only one drop=/gedrop= clause allowed".to_string()));
                    }
                    seen_drop = true;
                    plan.drop = DropModel::iid(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| invalid(format!("invalid drop probability {value:?}")))?,
                    );
                }
                "gedrop" => {
                    if seen_drop {
                        return Err(invalid("only one drop=/gedrop= clause allowed".to_string()));
                    }
                    seen_drop = true;
                    // An optional `:scope=edge` suffix selects the per-edge channel bank;
                    // peel it off before splitting the probability fields on commas.
                    let (fields_text, per_edge) = match value.split_once(":scope=") {
                        None => (value, false),
                        Some((head, scope)) => match scope.trim() {
                            "edge" => (head, true),
                            "global" => (head, false),
                            other => {
                                return Err(invalid(format!(
                                    "unknown gedrop scope `{other}` in {value:?} \
                                     (expected scope=edge or scope=global)"
                                )))
                            }
                        },
                    };
                    let fields: Vec<f64> = fields_text
                        .split(',')
                        .map(|token| {
                            token.trim().parse().map_err(|_| {
                                invalid(format!("invalid gedrop field {token:?} in {value:?}"))
                            })
                        })
                        .collect::<Result<Vec<f64>>>()?;
                    let (p_bad, p_good, f_bad, f_good) = match fields.as_slice() {
                        [pb, pg, fb] => (*pb, *pg, *fb, 0.0),
                        [pb, pg, fb, fg] => (*pb, *pg, *fb, *fg),
                        _ => {
                            return Err(invalid(format!(
                                "gedrop takes 3 or 4 comma-separated probabilities \
                                 pb,pg,fb[,fg], got {value:?}"
                            )))
                        }
                    };
                    plan.drop = if per_edge {
                        DropModel::EdgeGilbertElliott { p_bad, p_good, f_bad, f_good }
                    } else {
                        DropModel::GilbertElliott { p_bad, p_good, f_bad, f_good }
                    };
                }
                "crash" => {
                    if seen_crash {
                        return Err(invalid("crash= given twice".to_string()));
                    }
                    seen_crash = true;
                    let value = value.trim();
                    plan.crash = if let Some(percent) = value.strip_suffix('%') {
                        CrashSpec::Percent {
                            percent: percent.parse().map_err(|_| {
                                invalid(format!("invalid crash percentage {value:?}"))
                            })?,
                        }
                    } else if value.starts_with('v') || value.contains(';') {
                        let vertices = value
                            .split(';')
                            .map(|token| {
                                token.trim().trim_start_matches('v').parse().map_err(|_| {
                                    invalid(format!("invalid crash vertex {token:?} in {value:?}"))
                                })
                            })
                            .collect::<Result<Vec<VertexId>>>()?;
                        CrashSpec::Vertices { vertices }
                    } else {
                        CrashSpec::Count {
                            count: value
                                .parse()
                                .map_err(|_| invalid(format!("invalid crash count {value:?}")))?,
                        }
                    };
                }
                "repair" => {
                    if seen_repair {
                        return Err(invalid("repair= given twice".to_string()));
                    }
                    seen_repair = true;
                    plan.repair = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| invalid(format!("invalid repair rate {value:?}")))?,
                    );
                }
                "churn" => {
                    if seen_churn {
                        return Err(invalid("churn= given twice".to_string()));
                    }
                    seen_churn = true;
                    plan.churn = Some(
                        value
                            .trim()
                            .parse()
                            .map_err(|_| invalid(format!("invalid churn period {value:?}")))?,
                    );
                }
                "adv" => {
                    if seen_adv {
                        return Err(invalid("adv= given twice".to_string()));
                    }
                    seen_adv = true;
                    plan.adversary = Some(value.trim().parse()?);
                }
                "def" => {
                    if seen_def {
                        return Err(invalid("def= given twice".to_string()));
                    }
                    seen_def = true;
                    plan.defense = Some(value.trim().parse()?);
                }
                other => {
                    return Err(invalid(format!(
                        "unknown fault clause `{other}` (expected drop=, gedrop=, crash=, \
                         repair=, churn=, adv= or def=)"
                    )))
                }
            }
        }
        plan.validate()?;
        Ok(plan)
    }
}

/// Emits the `+`-joined clause form **without** a leading `+` (e.g. `drop=0.1+crash=5%`).
/// A benign plan renders as `drop=0` so that `spec+clauses` always round-trips.
impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts: Vec<String> = Vec::new();
        match self.drop {
            DropModel::Iid { f } => {
                if f != 0.0 {
                    parts.push(format!("drop={f}"));
                }
            }
            DropModel::GilbertElliott { p_bad, p_good, f_bad, f_good } => {
                if f_good == 0.0 {
                    parts.push(format!("gedrop={p_bad},{p_good},{f_bad}"));
                } else {
                    parts.push(format!("gedrop={p_bad},{p_good},{f_bad},{f_good}"));
                }
            }
            DropModel::EdgeGilbertElliott { p_bad, p_good, f_bad, f_good } => {
                if f_good == 0.0 {
                    parts.push(format!("gedrop={p_bad},{p_good},{f_bad}:scope=edge"));
                } else {
                    parts.push(format!("gedrop={p_bad},{p_good},{f_bad},{f_good}:scope=edge"));
                }
            }
        }
        match &self.crash {
            CrashSpec::None => {}
            CrashSpec::Percent { percent } => parts.push(format!("crash={percent}%")),
            CrashSpec::Count { count } => parts.push(format!("crash={count}")),
            CrashSpec::Vertices { vertices } => {
                let list: Vec<String> = vertices.iter().map(|v| format!("v{v}")).collect();
                parts.push(format!("crash={}", list.join(";")));
            }
        }
        if let Some(repair) = self.repair {
            parts.push(format!("repair={repair}"));
        }
        if let Some(period) = self.churn {
            parts.push(format!("churn={period}"));
        }
        if let Some(adversary) = &self.adversary {
            parts.push(format!("adv={adversary}"));
        }
        if let Some(defense) = &self.defense {
            parts.push(format!("def={defense}"));
        }
        if parts.is_empty() {
            parts.push("drop=0".to_string());
        }
        write!(f, "{}", parts.join("+"))
    }
}

/// The per-round fault view a process consults inside
/// [`step_faulted`](SpreadingProcess::step_faulted).
///
/// Besides the oblivious faults of a [`FaultPlan`] — a global per-transmission drop
/// probability and a crashed set — the view carries the two *state-aware* fault shapes the
/// [`adversary`](crate::adversary) engine emits: a **targeted drop** that applies only to
/// transmissions *leaving* a designated sender set (the growth front, say), and a
/// **severed partition** that deterministically blocks every transmission crossing a
/// two-sided vertex cut.
///
/// All queries are free of side effects when the corresponding fault is absent: with
/// `drop = 0` and no targeted set, [`drops_from`](StepFaults::drops_from) returns `false`
/// **without touching the RNG**, with no crash set [`is_crashed`](StepFaults::is_crashed)
/// is a constant `false`, and with no partition [`severs`](StepFaults::severs) is a
/// constant `false` — which is what makes a zero-fault wrapper bit-identical to the bare
/// process. Correlated loss models resolve to a plain per-round probability before the
/// view is built, so processes stay oblivious to the channel state.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepFaults<'a> {
    drop: f64,
    crashed: Option<&'a VertexBitset>,
    /// Extra per-transmission loss applied only to senders in `targeted`.
    targeted_drop: f64,
    targeted: Option<&'a VertexBitset>,
    /// Side-A membership of a severed cut; transmissions crossing sides are blocked.
    severed: Option<&'a VertexBitset>,
    /// Per-edge channel bank (scope=edge loss), consulted per transmission target.
    edge: Option<&'a EdgeChannels>,
}

impl<'a> StepFaults<'a> {
    /// The fault-free view used by the default [`SpreadingProcess::step`].
    pub const NONE: StepFaults<'static> = StepFaults {
        drop: 0.0,
        crashed: None,
        targeted_drop: 0.0,
        targeted: None,
        severed: None,
        edge: None,
    };

    /// A view with the given global drop probability and crashed set (no targeted drop, no
    /// partition, no per-edge channels).
    pub fn new(drop: f64, crashed: Option<&'a VertexBitset>) -> Self {
        StepFaults { drop, crashed, targeted_drop: 0.0, targeted: None, severed: None, edge: None }
    }

    /// The same view with a per-edge Gilbert–Elliott channel bank: each transmission is
    /// additionally lost with the current loss probability of its *edge*'s channel.
    #[must_use]
    fn with_edge_channels(mut self, channels: Option<&'a EdgeChannels>) -> Self {
        self.edge = channels;
        self
    }

    /// The same view with a targeted drop: transmissions leaving a vertex of `senders` are
    /// additionally lost with probability `f` (independently of the global drop).
    #[must_use]
    pub fn with_targeted(mut self, f: f64, senders: Option<&'a VertexBitset>) -> Self {
        self.targeted_drop = f;
        self.targeted = senders;
        self
    }

    /// The same view with a severed partition: every transmission whose endpoints lie on
    /// different sides of `side` (member vs non-member) is blocked outright, without
    /// consuming randomness.
    #[must_use]
    pub fn with_partition(mut self, side: Option<&'a VertexBitset>) -> Self {
        self.severed = side;
        self
    }

    /// The global i.i.d. per-transmission drop probability of the current round.
    pub(crate) fn drop_probability(&self) -> f64 {
        self.drop
    }

    /// The crashed set, if any.
    pub(crate) fn crashed_set(&self) -> Option<&'a VertexBitset> {
        self.crashed
    }

    /// The targeted-drop probability (0 when no sender set is targeted).
    pub(crate) fn targeted_drop_probability(&self) -> f64 {
        self.targeted_drop
    }

    /// The targeted sender set, if any.
    pub(crate) fn targeted_set(&self) -> Option<&'a VertexBitset> {
        self.targeted
    }

    /// The severed-cut side membership, if a partition is active.
    pub(crate) fn severed_side(&self) -> Option<&'a VertexBitset> {
        self.severed
    }

    /// Whether this view injects no faults.
    pub fn is_benign(&self) -> bool {
        self.drop == 0.0
            && self.crashed.is_none()
            && (self.targeted_drop == 0.0 || self.targeted.is_none())
            && self.severed.is_none()
            && self.edge.is_none()
    }

    /// Whether vertex `v` has crashed (never relays).
    #[inline]
    pub fn is_crashed(&self, v: VertexId) -> bool {
        self.crashed.is_some_and(|set| set.contains(v))
    }

    /// The combined per-transmission loss probability for messages sent by `from` — the
    /// global drop composed with the targeted drop when `from` is targeted. Processes that
    /// fold the loss into a transmission probability (the contact process) use this instead
    /// of drawing per message.
    #[inline]
    pub fn sender_drop(&self, from: VertexId) -> f64 {
        let mut keep = 1.0 - self.drop;
        if self.targeted_drop > 0.0 && self.targeted.is_some_and(|set| set.contains(from)) {
            keep *= 1.0 - self.targeted_drop;
        }
        1.0 - keep
    }

    /// Samples whether one transmission sent by `from` is lost. Draws from `rng` only for
    /// faults that can actually fire: one draw for a positive global drop, plus one draw
    /// for the targeted drop when `from` is in the targeted set — so with no faults the
    /// RNG is untouched.
    // cobra-lint: draws(bounded)
    #[inline]
    pub fn drops_from(&self, rng: &mut dyn RngCore, from: VertexId) -> bool {
        if self.drop > 0.0 && rng.gen_bool(self.drop) {
            return true;
        }
        self.targeted_drop > 0.0
            && self.targeted.is_some_and(|set| set.contains(from))
            && rng.gen_bool(self.targeted_drop)
    }

    /// Whether the transmission `from → to` crosses a severed cut (blocked outright,
    /// deterministically — severed transmissions never touch the RNG).
    #[inline]
    pub fn severs(&self, from: VertexId, to: VertexId) -> bool {
        self.severed.is_some_and(|side| side.contains(from) != side.contains(to))
    }

    /// The per-transmission loss probability of edge `{from, to}`'s own channel this round
    /// (0 when no per-edge channel bank is active). Deterministic — never touches the RNG —
    /// so processes that fold loss into a transmission probability (the contact process)
    /// can use it directly.
    #[inline]
    pub fn edge_drop_probability(&self, from: VertexId, to: VertexId) -> f64 {
        match self.edge {
            None => 0.0,
            Some(channels) => channels.loss(from, to),
        }
    }

    /// Samples whether one transmission on edge `{from, to}` is lost to the edge's own
    /// channel. Draws from `rng` only when the edge's current loss probability is positive
    /// — with no per-edge bank, or on a good edge with `fg = 0`, the RNG is untouched.
    /// Processes consult this *after* sampling the transmission target (the edge identity
    /// is the whole point), unlike [`drops_from`](StepFaults::drops_from) which fires
    /// before target selection.
    // cobra-lint: draws(bounded)
    #[inline]
    pub fn drops_on_edge(&self, rng: &mut dyn RngCore, from: VertexId, to: VertexId) -> bool {
        let f = self.edge_drop_probability(from, to);
        f > 0.0 && rng.gen_bool(f)
    }
}

/// Forwards a re-seed to `inner`, skipping vertices of `crashed`: a crashed vertex still
/// receives but never relays, so reviving it cannot restart the spread — the revival
/// attempt is simply lost, like any other transmission aimed at a dead node. This is what
/// the defense cost ledger counts as *actually revived* vertices.
fn reseed_live(
    inner: &mut dyn SpreadingProcess,
    crashed: Option<&VertexBitset>,
    vertices: &[VertexId],
) -> usize {
    let Some(crashed) = crashed else {
        return inner.reseed(vertices);
    };
    let mut revived = 0;
    for &v in vertices {
        if !crashed.contains(v) {
            revived += inner.reseed(std::slice::from_ref(&v));
        }
    }
    revived
}

/// Samples the sojourn length (in rounds, support `{1, 2, …}`) of a channel state whose
/// per-round exit probability is `exit`, with a single inverse-transform draw. The
/// deterministic edges consume no randomness — `exit = 0` never leaves the state
/// (`u64::MAX` rounds) and `exit = 1` leaves after exactly one round — which is what makes
/// degenerate transition probabilities bit-identical to the i.i.d. drop model.
// cobra-lint: draws(bounded)
fn sample_sojourn(exit: f64, rng: &mut dyn RngCore) -> u64 {
    if exit <= 0.0 {
        return u64::MAX;
    }
    if exit >= 1.0 {
        return 1;
    }
    // Inverse CDF of the geometric distribution: P(X >= k) = (1 - exit)^(k-1).
    let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
    let rounds = ((1.0 - u).ln() / (1.0 - exit).ln()).ceil();
    if rounds.is_finite() && rounds >= 1.0 {
        if rounds >= u64::MAX as f64 {
            u64::MAX
        } else {
            rounds as u64
        }
    } else {
        1
    }
}

/// The Markov channel state of a Gilbert–Elliott drop model, advanced once per round.
///
/// Sojourn lengths are sampled geometrically on *entry* to a state (one draw per burst), so
/// rounds spent inside a state — in particular every round of a loss-free good period —
/// advance the channel with zero RNG draws.
#[derive(Debug, Clone, Copy)]
struct GeChannel {
    bad: bool,
    /// Rounds left in the current state; 0 = sojourn not sampled yet, `u64::MAX` = forever.
    remaining: u64,
}

impl GeChannel {
    /// The channel starts in the good state.
    const START: GeChannel = GeChannel { bad: false, remaining: 0 };

    /// Advances one round and reports whether *this* round is spent in the bad state.
    // cobra-lint: draws(bounded)
    fn advance(&mut self, p_bad: f64, p_good: f64, rng: &mut dyn RngCore) -> bool {
        if self.remaining == 0 {
            let exit = if self.bad { p_good } else { p_bad };
            self.remaining = sample_sojourn(exit, rng);
        }
        let bad_now = self.bad;
        if self.remaining != u64::MAX {
            self.remaining -= 1;
            if self.remaining == 0 {
                self.bad = !self.bad;
            }
        }
        bad_now
    }
}

/// Packs an undirected edge into one sortable key (smaller endpoint in the high half).
#[inline]
fn pack_edge(a: VertexId, b: VertexId) -> u64 {
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    ((lo as u64) << 32) | hi as u64
}

/// A bank of independent per-edge Gilbert–Elliott channels over one graph instance,
/// advanced once per round — the state behind [`DropModel::EdgeGilbertElliott`].
///
/// The representation is **sparse**: only currently-bad edges are materialised (as a
/// key-sorted vector of `(edge, remaining bad rounds)`), and the good population shares one
/// aggregate onset clock. The clock's sojourn is geometric with per-round rate
/// `q = 1 − (1 − pb)^G` over `G` good edges — the distribution of the first round in which
/// *any* good edge flips — and when it fires, the flip set is the i.i.d. `Bernoulli(pb)`
/// set conditioned on being non-empty, sampled positionally (truncated-geometric first
/// index, geometric gaps). Because geometric sojourns are memoryless, re-sampling the clock
/// whenever the good population changes (a heal or a flip) is *exact*, not an
/// approximation. Consequences:
///
/// - every channel starts good and round 1 is always loss-free on every edge, mirroring
///   the global [`GeChannel`];
/// - a round in which every edge is good and the onset clock is already scheduled draws
///   **zero** RNG words, and with `pb = 0` no round ever draws — the per-edge analogue of
///   the lossless-channel zero-draw contract;
/// - the degenerate `gedrop=1,1,fb,fg:scope=edge` alternates all edges good/bad in
///   lockstep with zero channel draws, matching the global channel round for round.
#[derive(Debug)]
pub(crate) struct EdgeChannels {
    /// Every edge of the instance as a packed key, ascending.
    edges: Vec<u64>,
    p_bad: f64,
    p_good: f64,
    f_bad: f64,
    f_good: f64,
    /// Currently-bad edges `(key, rounds remaining including the current one)`, key-sorted.
    bad: Vec<(u64, u64)>,
    /// Rounds remaining of the good population's onset clock, counting the current round;
    /// 0 = not sampled yet, `u64::MAX` = never fires (`pb = 0` or no good edges).
    until_onset: u64,
    /// Whether `advance` has run at least once (end-of-round transitions apply only then).
    round_started: bool,
    /// Scratch: keys flipping good→bad this transition (kept allocated across rounds).
    flips: Vec<u64>,
    /// Scratch: merge buffer for `bad` (kept allocated across rounds).
    merged: Vec<(u64, u64)>,
}

impl EdgeChannels {
    /// Builds the bank over every edge of `graph` with the given channel parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if a vertex id exceeds 32 bits (the packed
    /// edge key reserves one half per endpoint).
    pub(crate) fn new(
        graph: &Graph,
        p_bad: f64,
        p_good: f64,
        f_bad: f64,
        f_good: f64,
    ) -> Result<Self> {
        if graph.num_vertices() > u32::MAX as usize {
            return Err(CoreError::InvalidParameters {
                reason: format!(
                    "per-edge channels pack endpoints into 32 bits each; graph has {} vertices",
                    graph.num_vertices()
                ),
            });
        }
        // `Graph::edges` yields each undirected edge once with u < v, ascending — exactly
        // the packed-key order.
        let edges: Vec<u64> = graph.edges().map(|(u, v)| pack_edge(u, v)).collect();
        Ok(EdgeChannels {
            edges,
            p_bad,
            p_good,
            f_bad,
            f_good,
            bad: Vec::new(),
            until_onset: 0,
            round_started: false,
            flips: Vec::new(),
            merged: Vec::new(),
        })
    }

    /// Restores the pre-trial state: all channels good, the onset clock unsampled.
    pub(crate) fn reset(&mut self) {
        self.bad.clear();
        self.until_onset = 0;
        self.round_started = false;
    }

    /// The per-transmission loss probability on edge `{from, to}` this round.
    #[inline]
    pub(crate) fn loss(&self, from: VertexId, to: VertexId) -> f64 {
        if self.bad.is_empty() {
            return self.f_good;
        }
        let key = pack_edge(from, to);
        if self.bad.binary_search_by_key(&key, |&(k, _)| k).is_ok() {
            self.f_bad
        } else {
            self.f_good
        }
    }

    /// Advances every channel by one round: applies the previous round's end-of-round
    /// transitions (onset flips among the good edges, then heals among the bad ones, then
    /// an exact memoryless re-schedule of the onset clock) so that `bad` describes the
    /// round now beginning. Draw order is the contract: onset-clock sample, flip positions,
    /// per-flip bad sojourns — and an all-good round with a scheduled clock draws nothing.
    // cobra-lint: draws(bounded)
    pub(crate) fn advance(&mut self, rng: &mut dyn RngCore) {
        if self.round_started {
            // End-of-previous-round transitions. Each edge makes one transition per round,
            // so the onset flip set is chosen among edges good *during* the previous round
            // — i.e. before the heals below remove entries from `bad`.
            let good_prev = (self.edges.len() - self.bad.len()) as u64;
            let mut flipped = false;
            if self.until_onset != u64::MAX {
                self.until_onset -= 1;
                if self.until_onset == 0 {
                    self.sample_flips(good_prev, rng);
                    flipped = !self.flips.is_empty();
                }
            }
            let before = self.bad.len();
            for entry in &mut self.bad {
                entry.1 -= 1;
            }
            self.bad.retain(|&(_, remaining)| remaining > 0);
            let healed = before != self.bad.len();
            if flipped {
                self.admit_flips(rng);
            }
            // The good population changed, so the clock's rate changed; geometric
            // memorylessness makes re-sampling it (next block) exact.
            if healed || flipped {
                self.until_onset = 0;
            }
        }
        self.round_started = true;
        if self.until_onset == 0 {
            let good = (self.edges.len() - self.bad.len()) as u64;
            self.until_onset = self.onset_sojourn(good, rng);
        }
    }

    /// Samples the onset clock: rounds until any of `good` good edges turns bad, geometric
    /// with per-round rate `1 − (1 − pb)^good`. Deterministic ends draw nothing.
    // cobra-lint: draws(bounded)
    fn onset_sojourn(&self, good: u64, rng: &mut dyn RngCore) -> u64 {
        if good == 0 || self.p_bad <= 0.0 {
            return u64::MAX;
        }
        if self.p_bad >= 1.0 {
            return 1;
        }
        let q = 1.0 - (1.0 - self.p_bad).powf(good as f64);
        sample_sojourn(q, rng)
    }

    /// Fills `self.flips` (ascending keys) with the flip set among the `good` currently
    /// good edges: i.i.d. `Bernoulli(pb)` conditioned on at least one success. The first
    /// position comes from the truncated-geometric inverse CDF, later ones from geometric
    /// gaps; positions translate to keys through one merge scan against `self.bad`, which
    /// still holds the previous round's membership.
    // cobra-lint: draws(bounded)
    fn sample_flips(&mut self, good: u64, rng: &mut dyn RngCore) {
        self.flips.clear();
        if good == 0 || self.p_bad <= 0.0 {
            return;
        }
        let mut position = if self.p_bad >= 1.0 {
            // Every good edge flips; the gap loop below emits 1-gaps without draws.
            0
        } else {
            // P(first flip at position i | ≥1 flip among `good`) ∝ (1 − pb)^i · pb.
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let denom = 1.0 - (1.0 - self.p_bad).powf(good as f64);
            let first = ((1.0 - u * denom).ln() / (1.0 - self.p_bad).ln()).floor();
            if first.is_finite() && first >= 0.0 {
                (first as u64).min(good - 1)
            } else {
                0
            }
        };
        let mut edge_idx = 0usize;
        let mut bad_idx = 0usize;
        let mut seen_good = 0u64;
        loop {
            // Continue the scan up to the `position`-th (0-based) good edge.
            let key = loop {
                let key = self.edges[edge_idx];
                edge_idx += 1;
                while bad_idx < self.bad.len() && self.bad[bad_idx].0 < key {
                    bad_idx += 1;
                }
                if bad_idx < self.bad.len() && self.bad[bad_idx].0 == key {
                    continue; // bad during the previous round: not eligible to flip
                }
                seen_good += 1;
                if seen_good == position + 1 {
                    break key;
                }
            };
            self.flips.push(key);
            let gap = sample_sojourn(self.p_bad, rng);
            match (gap != u64::MAX).then(|| position.checked_add(gap)).flatten() {
                Some(next) if next < good => position = next,
                _ => break,
            }
        }
    }

    /// Merges `self.flips` into `self.bad` (both ascending, disjoint), drawing each new bad
    /// edge's geometric sojourn.
    // cobra-lint: draws(bounded)
    fn admit_flips(&mut self, rng: &mut dyn RngCore) {
        self.merged.clear();
        let mut old = 0usize;
        for i in 0..self.flips.len() {
            let key = self.flips[i];
            while old < self.bad.len() && self.bad[old].0 < key {
                self.merged.push(self.bad[old]);
                old += 1;
            }
            self.merged.push((key, sample_sojourn(self.p_good, rng)));
        }
        while old < self.bad.len() {
            self.merged.push(self.bad[old]);
            old += 1;
        }
        std::mem::swap(&mut self.bad, &mut self.merged);
    }
}

/// The per-round *dynamics* of a [`FaultPlan`] on one graph instance: lazy crash-set
/// sampling, transient crash/repair evolution and the Gilbert–Elliott channel state. The
/// [`FaultedProcess`] wrapper advances it once per round and folds the adversary's crashes
/// into its crashed set.
#[derive(Debug)]
struct PlanDynamics {
    drop: DropModel,
    channel: GeChannel,
    crash: CrashSpec,
    /// Per-round repair probability; 0 keeps crashes permanent (the PR-3 model).
    repair: f64,
    /// Per-round re-crash probability of healthy vertices, derived once the initial crash
    /// set is known so the crashed fraction is stationary. 0 for explicit lists.
    recrash: f64,
    protect: VertexId,
    /// Number of vertices of the instance the dynamics run on.
    n: usize,
    crashed: Option<VertexBitset>,
    /// Pristine copy of an explicit crash list, restored on reset (repair mutates the set).
    explicit: Option<VertexBitset>,
    crash_resolved: bool,
}

impl PlanDynamics {
    /// Builds the dynamics of `plan` for an `n`-vertex instance, protecting `protect` (the
    /// start/source vertex) from sampled crash sets and transient re-crashes. The plan's
    /// `churn`, `adversary` and `defense` fields are *not* interpreted here.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for an invalid plan or an over-sized crash
    /// count, and [`CoreError::VertexOutOfRange`] if an explicit crash list names a vertex
    /// outside the graph.
    fn new(plan: &FaultPlan, protect: VertexId, n: usize) -> Result<Self> {
        plan.validate()?;
        // A crash count beyond the eligible population (everything but the protected
        // start) would be silently clamped at sampling time; reject it loudly instead,
        // matching the percentage bound.
        if let CrashSpec::Count { count } = plan.crash {
            let eligible = n.saturating_sub(1);
            if count > eligible {
                return Err(CoreError::InvalidParameters {
                    reason: format!(
                        "crash={count} exceeds the {eligible} crashable vertices (graph has \
                         {n}, the start vertex never crashes)"
                    ),
                });
            }
        }
        let mut crashed = None;
        let mut explicit = None;
        let mut crash_resolved = false;
        if let CrashSpec::Vertices { vertices } = &plan.crash {
            let mut set = VertexBitset::new(n);
            for &v in vertices {
                if v >= n {
                    return Err(CoreError::VertexOutOfRange { vertex: v, num_vertices: n });
                }
                set.insert(v);
            }
            crashed = Some(set.clone());
            explicit = Some(set);
            crash_resolved = true;
        } else if plan.crash.is_none() {
            crash_resolved = true;
        }
        Ok(PlanDynamics {
            drop: plan.drop,
            channel: GeChannel::START,
            crash: plan.crash.clone(),
            repair: plan.repair.unwrap_or(0.0),
            recrash: 0.0,
            protect,
            n,
            crashed,
            explicit,
            crash_resolved,
        })
    }

    /// The resolved crashed set (`None` until a sampled set is drawn at the first round).
    fn crashed(&self) -> Option<&VertexBitset> {
        self.crashed.as_ref()
    }

    /// Advances the dynamics by one round and returns this round's drop probability:
    /// resolves a sampled crash set on first use, applies the crash/repair evolution and
    /// advances the loss channel. The RNG draw order is the contract: resolve, repair,
    /// channel — a benign plan draws nothing.
    // cobra-lint: draws(bounded)
    fn begin_round(&mut self, rng: &mut dyn RngCore) -> f64 {
        self.resolve_crashes(rng);
        self.update_crashes(rng);
        match self.drop {
            DropModel::Iid { f } => f,
            // Per-edge channels live in `EdgeChannels` on the faulted wrapper (they need
            // the graph); the *global* per-round loss they contribute is zero.
            DropModel::EdgeGilbertElliott { .. } => 0.0,
            DropModel::GilbertElliott { p_bad, p_good, f_bad, f_good } => {
                if f_bad == 0.0 && f_good == 0.0 {
                    // A lossless channel never touches the RNG.
                    0.0
                } else if self.channel.advance(p_bad, p_good, rng) {
                    f_bad
                } else {
                    f_good
                }
            }
        }
    }

    /// Folds the adversary's `extra` crashed vertices into the crashed set. Folding every
    /// round keeps them down under repair dynamics; no draws.
    fn fold_crashes(&mut self, extra: Option<&VertexBitset>) {
        let Some(extra) = extra else { return };
        match &mut self.crashed {
            Some(set) => extra.for_each(&mut |v| {
                set.insert(v);
            }),
            None => self.crashed = Some(extra.clone()),
        }
    }

    /// Restores the pre-trial state: the channel restarts good, explicit crash lists are
    /// restored pristine, folded crashes are dropped and sampled sets are re-drawn on next
    /// use.
    fn reset(&mut self) {
        self.channel = GeChannel::START;
        match self.crash {
            CrashSpec::None => self.crashed = None,
            // Repair and folds may have mutated the explicit set; restore the pristine list.
            CrashSpec::Vertices { .. } => self.crashed = self.explicit.clone(),
            // Sampled crash sets are re-drawn for the next trial.
            _ => {
                self.crashed = None;
                self.crash_resolved = false;
            }
        }
    }

    /// Samples the crash set on first use (per trial): `resolve_count` distinct vertices,
    /// uniform over `V \ {protect}`, via a partial Fisher–Yates shuffle. Also derives the
    /// stationary re-crash rate once the initial crashed count is known.
    // cobra-lint: draws(bounded)
    fn resolve_crashes(&mut self, rng: &mut dyn RngCore) {
        if self.crash_resolved {
            return;
        }
        self.crash_resolved = true;
        let n = self.n;
        let mut eligible: Vec<VertexId> = (0..n).filter(|&v| v != self.protect).collect();
        let count = self.crash.resolve_count(n).min(eligible.len());
        if count == 0 {
            return;
        }
        let mut set = VertexBitset::new(n);
        for i in 0..count {
            let j = i + sample::uniform_index(rng, eligible.len() - i);
            eligible.swap(i, j);
            set.insert(eligible[i]);
        }
        self.crashed = Some(set);
        // Transient crashes: healthy vertices re-crash at the rate that keeps the crashed
        // fraction stationary at π = count/n (π < 1 always: the start never crashes).
        // Explicit lists are an initial condition and keep recrash = 0.
        if self.repair > 0.0 {
            let pi = count as f64 / n as f64;
            self.recrash = (self.repair * pi / (1.0 - pi)).min(1.0);
        }
    }

    /// Applies the per-round crash/repair dynamics: every crashed vertex repairs with
    /// probability `repair`, every healthy vertex (except the protected start) re-crashes
    /// with the derived stationary rate. No-op — zero RNG draws — for permanent plans.
    // cobra-lint: draws(bounded)
    fn update_crashes(&mut self, rng: &mut dyn RngCore) {
        if self.repair <= 0.0 {
            return;
        }
        let Some(set) = self.crashed.as_mut() else { return };
        for v in 0..self.n {
            if v == self.protect {
                continue;
            }
            if set.contains(v) {
                if rng.gen_bool(self.repair) {
                    set.remove(v);
                }
            } else if self.recrash > 0.0 && rng.gen_bool(self.recrash) {
                set.insert(v);
            }
        }
    }
}

/// Runs any process inside its per-trial adversity environment: a [`FaultPlan`]'s
/// oblivious clauses, its optional [`adversary`](crate::adversary) policy and its optional
/// [`defense`](crate::defense) policy.
///
/// The wrapper owns the whole environment — the plan dynamics (lazy crash sampling,
/// crash/repair evolution, the Gilbert–Elliott channel), the per-edge channel bank of a
/// `gedrop=…:scope=edge` plan, the adversary policy and the defense policy with its
/// [`DefenseStats`] ledger — and composes them in one per-round body, its
/// [`step_faulted`](SpreadingProcess::step_faulted), under either [`Draws`] source:
///
/// 1. the defense observes the pre-round state;
/// 2. its re-seed set is applied, skipping crashed vertices;
/// 3. its branching multiplier is programmed;
/// 4. the adversary observes the post-recovery state, so the arms race is fair;
/// 5. the plan dynamics advance and fold in the adversary's crashes;
/// 6. the edge bank advances;
/// 7. the inner process steps under the composed faults.
///
/// [`Draws::Trial`] draws every step from the trial RNG in this order. [`Draws::Streams`]
/// draws step 1 from [`DEFENSE_ENTITY`], step 4 from [`ADVERSARY_ENTITY`] and steps 5–6
/// from [`FAULT_ENTITY`], all at the current round, so `--threads N` stays bit-identical;
/// step 7 hands the same source to the inner process. A benign plan without policies draws
/// nothing, and an inert defense makes no process-hook calls, so both are bit-identical to
/// the bare process. `adv=oblivious` builds no policy: the plan's own clauses already are
/// the oblivious adversary.
///
/// The wrapper is itself a [`SpreadingProcess`], so the `Runner`, every observer and the
/// Monte-Carlo driver handle it exactly like a bare process. It is never nested
/// ([`ProcessSpec::faulted`] flattens) and its drivers step it without faults of their own,
/// so [`step_faulted`](SpreadingProcess::step_faulted) expects the benign
/// [`StepFaults::NONE`] (debug-asserted) and applies only the environment's faults. Churn
/// is *not* handled here (a wrapper cannot re-instantiate a graph its inner process
/// borrows); use [`run_churned`].
pub struct FaultedProcess<'g> {
    inner: Box<dyn SpreadingProcess + Send + 'g>,
    graph: &'g Graph,
    dynamics: PlanDynamics,
    /// Per-edge channel bank of a lossy `gedrop=…:scope=edge` plan.
    edges: Option<EdgeChannels>,
    adversary: Option<Box<dyn AdversaryPolicy>>,
    defense: Option<Box<dyn DefensePolicy>>,
    /// The multiplier currently programmed into the inner process, so the inert path
    /// (multiplier 1 on both sides) makes zero hook calls.
    applied_multiplier: u32,
    stats: DefenseStats,
}

impl fmt::Debug for FaultedProcess<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultedProcess")
            .field("dynamics", &self.dynamics)
            .field("adversary", &self.adversary)
            .field("defense", &self.defense)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl<'g> FaultedProcess<'g> {
    /// Builds `inner` on `graph` inside the environment `plan` describes. The start vertex
    /// of `inner` is protected from sampled crash sets, transient re-crashes and adversary
    /// crashes.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for an invalid plan, one with `churn=` (see
    /// [`run_churned`]) or an over-sized crash count, [`CoreError::VertexOutOfRange`] if an
    /// explicit crash list names a vertex outside the graph, and propagates the
    /// construction errors of `inner`.
    pub fn new(inner: &ProcessSpec, plan: &FaultPlan, graph: &'g Graph) -> Result<Self> {
        if plan.churn.is_some() {
            return Err(CoreError::InvalidParameters {
                reason: "churn= re-instantiates the graph and cannot run on a fixed instance; \
                         drive the spec through fault::run_churned (repro ad-hoc mode does \
                         this automatically)"
                    .to_string(),
            });
        }
        let process = inner.build(graph)?;
        let protect = inner.start();
        let dynamics = PlanDynamics::new(plan, protect, graph.num_vertices())?;
        let edges = match plan.drop {
            DropModel::EdgeGilbertElliott { p_bad, p_good, f_bad, f_good }
                if !plan.drop.is_lossless() =>
            {
                Some(EdgeChannels::new(graph, p_bad, p_good, f_bad, f_good)?)
            }
            _ => None,
        };
        let adversary = match &plan.adversary {
            Some(spec) => spec.build_policy(protect)?,
            None => None,
        };
        let defense = plan.defense.as_ref().map(DefenseSpec::build_policy).transpose()?;
        Ok(FaultedProcess {
            inner: process,
            graph,
            dynamics,
            edges,
            adversary,
            defense,
            applied_multiplier: 1,
            stats: DefenseStats::default(),
        })
    }

    /// Replaces the plan's defense with a test policy.
    #[cfg(test)]
    #[must_use]
    pub(crate) fn with_defense(mut self, policy: Box<dyn DefensePolicy>) -> Self {
        self.defense = Some(policy);
        self
    }

    /// The resolved crashed set, adversary crashes included (`None` until a sampled set is
    /// drawn at the first step).
    pub fn crashed(&self) -> Option<&VertexBitset> {
        self.dynamics.crashed()
    }

    /// What the defense has spent so far this trial (all zeros without a defense).
    pub fn stats(&self) -> DefenseStats {
        self.stats
    }
}

impl SpreadingProcess for FaultedProcess<'_> {
    // One round of the environment; `outer` is always benign (see the type's doc).
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, mut draws: Draws<'_>, outer: &StepFaults<'_>) {
        debug_assert!(outer.is_benign(), "a FaultedProcess composes no outer faults");
        let round = self.inner.round() as u64;
        let graph = self.graph;
        let mut backoff = false;
        if let Some(policy) = self.defense.as_mut() {
            let inner = self.inner.as_ref();
            draws.with(DEFENSE_ENTITY, round, |rng| {
                policy.observe(&ProcessView::new(inner, graph), rng);
            });
            let actions = policy.actions();
            if !actions.reseed.is_empty() {
                let revived =
                    reseed_live(self.inner.as_mut(), self.dynamics.crashed(), actions.reseed);
                if revived > 0 {
                    self.stats.reseed_events += 1;
                    self.stats.reseeded_vertices += revived;
                }
            }
            // Re-program the multiplier whenever it changes, and re-poll the per-round
            // cost whenever it is in force (the cost depends on the current frontier).
            let multiplier = actions.k_multiplier.max(1);
            if multiplier != self.applied_multiplier || multiplier > 1 {
                let extra = self.inner.set_branching_boost(multiplier);
                self.applied_multiplier = multiplier;
                if multiplier > 1 {
                    self.stats.boost_rounds += 1;
                    self.stats.extra_transmissions += extra;
                }
            }
            if actions.backoff > 0 {
                self.stats.backoff_rounds += 1;
                backoff = true;
            }
        }
        if let Some(policy) = self.adversary.as_mut() {
            let inner = self.inner.as_ref();
            draws.with(ADVERSARY_ENTITY, round, |rng| {
                policy.observe(&ProcessView::new(inner, graph), rng);
            });
        }
        let own = self.adversary.as_ref().map_or(StepFaults::NONE, |policy| policy.faults());
        let (dynamics, edges) = (&mut self.dynamics, &mut self.edges);
        let plan_drop = draws.with(FAULT_ENTITY, round, |rng| {
            let drop = dynamics.begin_round(rng);
            if let Some(bank) = edges.as_mut() {
                bank.advance(rng);
            }
            drop
        });
        dynamics.fold_crashes(own.crashed_set());
        // A backoff mutes the process's own transmissions: a unit drop.
        let drop =
            if backoff { 1.0 } else { 1.0 - (1.0 - plan_drop) * (1.0 - own.drop_probability()) };
        let faults = StepFaults::new(drop, self.dynamics.crashed())
            .with_targeted(own.targeted_drop_probability(), own.targeted_set())
            .with_partition(own.severed_side())
            .with_edge_channels(self.edges.as_ref());
        self.inner.step_faulted(draws, &faults);
    }

    fn round(&self) -> usize {
        self.inner.round()
    }

    fn active(&self) -> &VertexBitset {
        self.inner.active()
    }

    fn num_active(&self) -> usize {
        self.inner.num_active()
    }

    fn newly_activated(&self) -> &[VertexId] {
        self.inner.newly_activated()
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        self.inner.for_each_active(f);
    }

    fn for_each_token(&self, f: &mut dyn FnMut(VertexId)) {
        self.inner.for_each_token(f);
    }

    fn num_vertices(&self) -> usize {
        self.inner.num_vertices()
    }

    fn is_complete(&self) -> bool {
        self.inner.is_complete()
    }

    fn coverage(&self) -> Option<&VertexBitset> {
        self.inner.coverage()
    }

    fn adopt_state(
        &mut self,
        active: &[VertexId],
        coverage: Option<&VertexBitset>,
        round: usize,
    ) -> Result<()> {
        self.inner.adopt_state(active, coverage, round)
    }

    fn reset(&mut self) {
        self.inner.reset();
        self.dynamics.reset();
        if let Some(bank) = self.edges.as_mut() {
            bank.reset();
        }
        if let Some(policy) = self.adversary.as_mut() {
            policy.reset();
        }
        if let Some(policy) = self.defense.as_mut() {
            policy.reset();
        }
        self.applied_multiplier = 1;
        self.stats = DefenseStats::default();
    }
}

/// Runs one trial of `spec` on fresh instances of `family`, honouring a `churn=T` fault
/// clause: every `T` rounds the graph is re-instantiated from the family and the process
/// state (token list + coverage) migrates to the new instance through
/// [`SpreadingProcess::adopt_state`]. Specs without churn run on a single instance.
///
/// The graph is drawn from `rng`, so trials driven by per-trial RNGs are deterministic and
/// independent. Sampled crash sets are re-drawn at every churn epoch (the node population
/// churns with the network), and a Gilbert–Elliott channel likewise restarts in its good
/// state per epoch — bursts never straddle an epoch boundary, so under churn the realized
/// loss rate sits *below* [`DropModel::stationary_loss`] when epochs are not much longer
/// than a mean burst (the re-instantiated network starts with fresh links). State migrates
/// via [`SpreadingProcess::for_each_token`], so multiwalk carries exact per-vertex walker
/// counts across epochs.
///
/// For traces and first-visit times across the epochs, use [`run_churned_observed`].
///
/// # Errors
///
/// Propagates graph-instantiation and process-construction failures.
// cobra-lint: draws(bounded)
pub fn run_churned(
    spec: &ProcessSpec,
    family: &GraphFamily,
    runner: &Runner,
    rng: &mut dyn RngCore,
) -> Result<RunOutcome> {
    run_churned_observed(spec, family, runner, rng, &mut [])
}

/// [`run_churned`] with `Runner` observers threaded **across** the churn epochs: observers
/// are started exactly once (on the initial state of the first epoch) and then notified
/// after every executed round. Each epoch's process resumes the run's round index through
/// [`SpreadingProcess::adopt_state`], so [`SpreadingProcess::round`] is one continuous index
/// over the whole run — `FirstVisitTimes` stays set-once and nondecreasing,
/// `CoverageTrace` stays monotone and `ActiveCountTrace` holds the initial state plus one
/// entry per executed round, exactly as on a fixed graph. No observer callback fires at an
/// epoch boundary itself (re-instantiation is not a round).
///
/// Each epoch instantiates the graph, builds the process, adopts the carried state and
/// runs at most `min(T, budget − round)` rounds through the `Runner`'s round loop; a spec
/// without churn is the one-epoch case.
///
/// # Errors
///
/// Propagates graph-instantiation, process-construction and state-migration failures.
// cobra-lint: draws(bounded)
pub fn run_churned_observed(
    spec: &ProcessSpec,
    family: &GraphFamily,
    runner: &Runner,
    rng: &mut dyn RngCore,
    observers: &mut [&mut dyn Observer],
) -> Result<RunOutcome> {
    let period = spec.fault_plan().and_then(|plan| plan.churn).unwrap_or(usize::MAX);
    let epoch_spec = spec.clone().without_churn();
    let budget = runner.max_rounds();
    let mut carry: Option<(Vec<VertexId>, Option<VertexBitset>, usize)> = None;
    loop {
        let graph = family.instantiate(&mut &mut *rng).map_err(|e| CoreError::UnsuitableGraph {
            reason: format!("cannot instantiate {family}: {e}"),
        })?;
        let mut process = epoch_spec.build(&graph)?;
        let round = match carry.take() {
            Some((tokens, coverage, round)) => {
                process.adopt_state(&tokens, coverage.as_ref(), round)?;
                round
            }
            None => {
                for observer in observers.iter_mut() {
                    observer.on_start(process.as_ref());
                }
                0
            }
        };
        let rounds = period.min(budget - round);
        let outcome = runner.run_rounds(process.as_mut(), rng, observers, rounds);
        if outcome.completed() || outcome.rounds >= budget {
            return Ok(outcome);
        }
        let mut tokens = Vec::new();
        process.for_each_token(&mut |v| tokens.push(v));
        carry = Some((tokens, process.coverage().cloned(), outcome.rounds));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::run_until_complete;
    use crate::sim::StopReason;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn plan_validation() {
        assert!(FaultPlan::with_drop(0.25).is_ok());
        assert!(FaultPlan::with_drop(-0.1).is_err());
        assert!(FaultPlan::with_drop(1.5).is_err());
        assert!(FaultPlan::with_drop(f64::NAN).is_err());
        let bad_pct =
            FaultPlan { crash: CrashSpec::Percent { percent: 120.0 }, ..FaultPlan::default() };
        assert!(bad_pct.validate().is_err());
        let bad_churn = FaultPlan { churn: Some(0), ..FaultPlan::default() };
        assert!(bad_churn.validate().is_err());
        assert!(FaultPlan::default().is_benign());
        assert!(!FaultPlan::with_drop(0.1).unwrap().is_benign());
        // Gilbert–Elliott fields are all probabilities.
        for bad in [
            DropModel::GilbertElliott { p_bad: 1.5, p_good: 0.5, f_bad: 0.5, f_good: 0.0 },
            DropModel::GilbertElliott { p_bad: 0.5, p_good: -0.1, f_bad: 0.5, f_good: 0.0 },
            DropModel::GilbertElliott { p_bad: 0.5, p_good: 0.5, f_bad: 2.0, f_good: 0.0 },
            DropModel::GilbertElliott { p_bad: 0.5, p_good: 0.5, f_bad: 0.5, f_good: f64::NAN },
        ] {
            assert!(FaultPlan { drop: bad, ..FaultPlan::default() }.validate().is_err());
        }
        // A lossless channel is benign; a lossy one is not.
        let lossless = FaultPlan {
            drop: DropModel::GilbertElliott { p_bad: 0.3, p_good: 0.7, f_bad: 0.0, f_good: 0.0 },
            ..FaultPlan::default()
        };
        assert!(lossless.is_benign());
        let lossy = FaultPlan {
            drop: DropModel::GilbertElliott { p_bad: 0.3, p_good: 0.7, f_bad: 0.5, f_good: 0.0 },
            ..FaultPlan::default()
        };
        assert!(!lossy.is_benign());
        // Repair needs a crash clause and a probability.
        let lonely_repair = FaultPlan { repair: Some(0.1), ..FaultPlan::default() };
        assert!(lonely_repair.validate().is_err());
        let bad_repair = FaultPlan {
            crash: CrashSpec::Percent { percent: 5.0 },
            repair: Some(1.5),
            ..FaultPlan::default()
        };
        assert!(bad_repair.validate().is_err());
        let good_repair = FaultPlan {
            crash: CrashSpec::Percent { percent: 5.0 },
            repair: Some(0.1),
            ..FaultPlan::default()
        };
        assert!(good_repair.validate().is_ok());
    }

    #[test]
    fn stationary_loss_matches_the_channel_parameters() {
        assert_eq!(DropModel::iid(0.25).stationary_loss(), 0.25);
        // π_b = 0.1/(0.1+0.3) = 0.25; loss = 0.25·0.8 = 0.2.
        let ge = DropModel::GilbertElliott { p_bad: 0.1, p_good: 0.3, f_bad: 0.8, f_good: 0.0 };
        assert!((ge.stationary_loss() - 0.2).abs() < 1e-12);
        // The degenerate alternating channel with equal state losses is exactly iid.
        let deg = DropModel::GilbertElliott { p_bad: 1.0, p_good: 1.0, f_bad: 0.3, f_good: 0.3 };
        assert!((deg.stationary_loss() - 0.3).abs() < 1e-12);
        // A frozen chain stays in its (good) start state.
        let frozen = DropModel::GilbertElliott { p_bad: 0.0, p_good: 0.0, f_bad: 0.9, f_good: 0.1 };
        assert_eq!(frozen.stationary_loss(), 0.1);
    }

    #[test]
    fn clause_parsing_and_display_round_trip() {
        let plan = FaultPlan::parse_clauses("drop=0.1+crash=5%+churn=64").unwrap();
        assert_eq!(plan.drop, DropModel::iid(0.1));
        assert_eq!(plan.crash, CrashSpec::Percent { percent: 5.0 });
        assert_eq!(plan.churn, Some(64));
        assert_eq!(plan.to_string(), "drop=0.1+crash=5%+churn=64");

        let count = FaultPlan::parse_clauses("crash=12").unwrap();
        assert_eq!(count.crash, CrashSpec::Count { count: 12 });
        assert_eq!(count.to_string(), "crash=12");

        let explicit = FaultPlan::parse_clauses("crash=v3;v8").unwrap();
        assert_eq!(explicit.crash, CrashSpec::Vertices { vertices: vec![3, 8] });
        assert_eq!(explicit.to_string(), "crash=v3;v8");

        // Gilbert–Elliott: 3 fields default the good-state loss to 0, 4 set it.
        let ge = FaultPlan::parse_clauses("gedrop=0.1,0.25,0.5").unwrap();
        assert_eq!(
            ge.drop,
            DropModel::GilbertElliott { p_bad: 0.1, p_good: 0.25, f_bad: 0.5, f_good: 0.0 }
        );
        assert_eq!(ge.to_string(), "gedrop=0.1,0.25,0.5");
        let ge4 = FaultPlan::parse_clauses("gedrop=0.1,0.25,0.5,0.02+churn=8").unwrap();
        assert_eq!(
            ge4.drop,
            DropModel::GilbertElliott { p_bad: 0.1, p_good: 0.25, f_bad: 0.5, f_good: 0.02 }
        );
        assert_eq!(ge4.to_string(), "gedrop=0.1,0.25,0.5,0.02+churn=8");

        // Transient crashes.
        let transient = FaultPlan::parse_clauses("crash=10%+repair=0.2").unwrap();
        assert_eq!(transient.repair, Some(0.2));
        assert_eq!(transient.to_string(), "crash=10%+repair=0.2");

        // Adaptive adversary clauses ride the same grammar.
        use crate::adversary::AdversaryBudget;
        let adv = FaultPlan::parse_clauses("adv=topdeg:budget=5%").unwrap();
        assert_eq!(
            adv.adversary,
            Some(AdversarySpec::CrashTopDegree {
                budget: AdversaryBudget::Percent { percent: 5.0 },
                rate: 1
            })
        );
        assert!(!adv.is_benign(), "a policy over benign clauses still routes the engine");
        assert_eq!(adv.to_string(), "adv=topdeg:budget=5%");
        let mixed = FaultPlan::parse_clauses("drop=0.1+adv=oblivious").unwrap();
        assert_eq!(mixed.adversary, Some(AdversarySpec::Oblivious));
        assert_eq!(mixed.to_string(), "drop=0.1+adv=oblivious");

        // The benign plan still renders something parseable.
        assert_eq!(FaultPlan::default().to_string(), "drop=0");
        assert!(FaultPlan::parse_clauses("drop=0").unwrap().is_benign());
    }

    #[test]
    fn clause_parsing_rejects_junk_and_duplicates() {
        assert!(FaultPlan::parse_clauses("bogus=1").is_err());
        assert!(FaultPlan::parse_clauses("drop").is_err());
        assert!(FaultPlan::parse_clauses("drop=abc").is_err());
        assert!(FaultPlan::parse_clauses("drop=1.5").is_err());
        assert!(FaultPlan::parse_clauses("crash=150%").is_err());
        assert!(FaultPlan::parse_clauses("crash=vx;vy").is_err());
        assert!(FaultPlan::parse_clauses("churn=0").is_err());
        assert!(FaultPlan::parse_clauses("drop=0.2+drop=0.3").is_err());
        // Even an explicit drop=0 counts as given: a second drop= must not override it.
        assert!(FaultPlan::parse_clauses("drop=0+drop=0.3").is_err());
        assert!(FaultPlan::parse_clauses("crash=2+crash=3%").is_err());
        assert!(FaultPlan::parse_clauses("churn=8+churn=9").is_err());
        // Gilbert–Elliott shapes and conflicts.
        assert!(FaultPlan::parse_clauses("gedrop=0.1,0.2").is_err());
        assert!(FaultPlan::parse_clauses("gedrop=0.1,0.2,0.3,0.4,0.5").is_err());
        assert!(FaultPlan::parse_clauses("gedrop=0.1,abc,0.3").is_err());
        assert!(FaultPlan::parse_clauses("gedrop=2,1,0.5").is_err());
        assert!(FaultPlan::parse_clauses("drop=0.1+gedrop=1,1,0.5").is_err());
        assert!(FaultPlan::parse_clauses("gedrop=1,1,0.5+drop=0.1").is_err());
        assert!(FaultPlan::parse_clauses("gedrop=1,1,0.5+gedrop=1,1,0.2").is_err());
        // Adversary policies validate and may not repeat.
        assert!(FaultPlan::parse_clauses("adv=bogus").is_err());
        assert!(FaultPlan::parse_clauses("adv=topdeg").is_err());
        assert!(FaultPlan::parse_clauses("adv=topdeg:budget=150%").is_err());
        assert!(FaultPlan::parse_clauses("adv=oblivious+adv=dropfront").is_err());
        // Repair needs crash and a valid probability.
        assert!(FaultPlan::parse_clauses("repair=0.1").is_err());
        assert!(FaultPlan::parse_clauses("crash=5%+repair=1.5").is_err());
        assert!(FaultPlan::parse_clauses("crash=5%+repair=abc").is_err());
        assert!(FaultPlan::parse_clauses("crash=5%+repair=0.1+repair=0.2").is_err());
    }

    #[test]
    fn plan_serde_round_trip() {
        let plans = vec![
            FaultPlan::default(),
            FaultPlan::with_drop(0.25).unwrap(),
            FaultPlan { crash: CrashSpec::Percent { percent: 5.0 }, ..FaultPlan::default() },
            FaultPlan {
                drop: DropModel::iid(0.1),
                crash: CrashSpec::Vertices { vertices: vec![1, 4] },
                churn: Some(32),
                ..FaultPlan::default()
            },
            FaultPlan {
                drop: DropModel::GilbertElliott {
                    p_bad: 0.1,
                    p_good: 0.25,
                    f_bad: 0.5,
                    f_good: 0.02,
                },
                crash: CrashSpec::Percent { percent: 10.0 },
                repair: Some(0.2),
                ..FaultPlan::default()
            },
            FaultPlan {
                drop: DropModel::iid(0.1),
                adversary: Some(AdversarySpec::Oblivious),
                ..FaultPlan::default()
            },
            FaultPlan {
                adversary: Some(AdversarySpec::Partition { window: 16 }),
                ..FaultPlan::default()
            },
        ];
        for plan in plans {
            let json = serde_json::to_string(&plan).unwrap();
            let back: FaultPlan = serde_json::from_str(&json).unwrap();
            assert_eq!(plan, back, "round trip through {json}");
        }
    }

    #[test]
    fn wrapper_rejects_churn_and_bad_vertices() {
        let graph = generators::complete(8).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let churny = FaultPlan { churn: Some(4), ..FaultPlan::default() };
        assert!(FaultedProcess::new(&spec, &churny, &graph).is_err());
        let bad =
            FaultPlan { crash: CrashSpec::Vertices { vertices: vec![99] }, ..FaultPlan::default() };
        assert!(matches!(
            FaultedProcess::new(&spec, &bad, &graph),
            Err(CoreError::VertexOutOfRange { .. })
        ));
        // A crash count larger than the crashable population is rejected, not clamped.
        let oversized = FaultPlan { crash: CrashSpec::Count { count: 8 }, ..FaultPlan::default() };
        assert!(FaultedProcess::new(&spec, &oversized, &graph).is_err());
        let maximal = FaultPlan { crash: CrashSpec::Count { count: 7 }, ..FaultPlan::default() };
        assert!(FaultedProcess::new(&spec, &maximal, &graph).is_ok());
    }

    #[test]
    fn sampled_crash_sets_have_the_right_size_and_spare_the_start() {
        let graph = generators::complete(40).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let plan =
            FaultPlan { crash: CrashSpec::Percent { percent: 25.0 }, ..FaultPlan::default() };
        for seed in 0..20 {
            let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
            let mut r = rng(seed);
            faulted.step_faulted(Draws::Trial(&mut r), &StepFaults::NONE);
            let crashed = faulted.crashed().expect("25% of 40 vertices crash");
            assert_eq!(crashed.count(), 10);
            assert!(!crashed.contains(0), "the start vertex must never crash");
        }
    }

    #[test]
    fn drop_slows_cover_but_still_completes_on_expanders() {
        // PUSH rather than COBRA: its informed set is monotone, so completion is guaranteed
        // under any drop rate < 1 (COBRA's active set can die out when every push drops).
        let graph = generators::complete(64).unwrap();
        let bare_spec = ProcessSpec::push();
        let mut totals = [0usize; 2];
        for seed in 0..5u64 {
            let mut bare = bare_spec.build(&graph).unwrap();
            totals[0] += run_until_complete(bare.as_mut(), &mut rng(seed), 100_000).unwrap();
            let plan = FaultPlan::with_drop(0.4).unwrap();
            let mut faulted = FaultedProcess::new(&bare_spec, &plan, &graph).unwrap();
            totals[1] += run_until_complete(&mut faulted, &mut rng(seed), 100_000).unwrap();
        }
        assert!(
            totals[1] > totals[0],
            "40% drop must slow covering: bare {} vs faulted {}",
            totals[0],
            totals[1]
        );
    }

    #[test]
    fn bursty_drop_slows_cover_but_still_completes() {
        // Same monotone-process argument under a Gilbert–Elliott channel with heavy bad
        // bursts (mean length 8 rounds, 60% of rounds bad, 80% loss when bad).
        let graph = generators::complete(64).unwrap();
        let spec = ProcessSpec::push();
        let plan = FaultPlan {
            drop: DropModel::GilbertElliott {
                p_bad: 0.1875,
                p_good: 0.125,
                f_bad: 0.8,
                f_good: 0.0,
            },
            ..FaultPlan::default()
        };
        let mut totals = [0usize; 2];
        for seed in 0..5u64 {
            let mut bare = spec.build(&graph).unwrap();
            totals[0] += run_until_complete(bare.as_mut(), &mut rng(seed), 100_000).unwrap();
            let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
            totals[1] += run_until_complete(&mut faulted, &mut rng(seed), 100_000).unwrap();
        }
        assert!(
            totals[1] > totals[0],
            "bursty loss must slow covering: bare {} vs faulted {}",
            totals[0],
            totals[1]
        );
    }

    #[test]
    fn degenerate_channel_alternates_without_touching_the_rng() {
        // pb = pg = 1: the channel flips deterministically good, bad, good, … and the
        // advance consumes no randomness (a zero-draw RNG would panic if touched).
        struct NoDraws;
        impl RngCore for NoDraws {
            fn next_u32(&mut self) -> u32 {
                panic!("the degenerate channel must not draw")
            }
            fn next_u64(&mut self) -> u64 {
                panic!("the degenerate channel must not draw")
            }
        }
        let mut channel = GeChannel::START;
        let mut rng = NoDraws;
        for round in 0..16 {
            let bad = channel.advance(1.0, 1.0, &mut rng);
            assert_eq!(bad, round % 2 == 1, "round {round}: channel must alternate from good");
        }
        // A frozen chain (pb = 0) stays good forever, also draw-free.
        let mut frozen = GeChannel::START;
        for _ in 0..16 {
            assert!(!frozen.advance(0.0, 0.7, &mut rng));
        }
    }

    #[test]
    fn channel_sojourns_match_their_expected_lengths() {
        // Mean burst length 1/pg: sample many sojourns and check the empirical mean.
        let mut r = rng(42);
        for (exit, expected) in [(0.5, 2.0), (0.25, 4.0), (0.125, 8.0)] {
            let total: u64 = (0..4000).map(|_| sample_sojourn(exit, &mut r)).sum();
            let mean = total as f64 / 4000.0;
            assert!(
                (mean - expected).abs() < 0.25 * expected,
                "exit {exit}: mean sojourn {mean} should be near {expected}"
            );
        }
    }

    #[test]
    fn transient_crashes_repair_and_recrash_around_the_stationary_fraction() {
        let graph = generators::complete(64).unwrap();
        let spec = ProcessSpec::push();
        let plan = FaultPlan {
            crash: CrashSpec::Percent { percent: 25.0 },
            repair: Some(0.5),
            ..FaultPlan::default()
        };
        let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
        let mut r = rng(17);
        let mut counts = Vec::new();
        let mut ever_changed = false;
        let mut previous: Option<Vec<usize>> = None;
        for _ in 0..200 {
            faulted.step_faulted(Draws::Trial(&mut r), &StepFaults::NONE);
            let crashed = faulted.crashed().expect("25% of 64 vertices crash initially");
            assert!(!crashed.contains(0), "the protected start never crashes");
            let members: Vec<usize> = crashed.iter().collect();
            if previous.as_ref().is_some_and(|p| p != &members) {
                ever_changed = true;
            }
            previous = Some(members);
            counts.push(crashed.count());
        }
        assert!(ever_changed, "repair dynamics must churn the crashed set");
        let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
        // Stationary fraction 25% of 64 = 16 crashed vertices on average.
        assert!(
            (mean - 16.0).abs() < 4.0,
            "crashed count should hover near the stationary 16, got mean {mean}"
        );
    }

    #[test]
    fn permanent_plans_keep_the_crash_set_fixed() {
        let graph = generators::complete(32).unwrap();
        let spec = ProcessSpec::push();
        let plan =
            FaultPlan { crash: CrashSpec::Percent { percent: 25.0 }, ..FaultPlan::default() };
        let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
        let mut r = rng(3);
        faulted.step_faulted(Draws::Trial(&mut r), &StepFaults::NONE);
        let initial: Vec<usize> = faulted.crashed().unwrap().iter().collect();
        for _ in 0..50 {
            faulted.step_faulted(Draws::Trial(&mut r), &StepFaults::NONE);
        }
        let later: Vec<usize> = faulted.crashed().unwrap().iter().collect();
        assert_eq!(initial, later, "without repair= the crash set is permanent");
    }

    #[test]
    fn reset_restores_explicit_sets_and_redraws_sampled_ones() {
        let graph = generators::complete(16).unwrap();
        let spec = ProcessSpec::push();
        // repair=1: the whole explicit set heals after one round.
        let plan = FaultPlan {
            crash: CrashSpec::Vertices { vertices: vec![1, 2] },
            repair: Some(1.0),
            ..FaultPlan::default()
        };
        let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
        let mut r = rng(5);
        faulted.step_faulted(Draws::Trial(&mut r), &StepFaults::NONE);
        assert_eq!(faulted.crashed().unwrap().count(), 0, "repair=1 heals everything");
        faulted.reset();
        let restored: Vec<usize> = faulted.crashed().unwrap().iter().collect();
        assert_eq!(restored, vec![1, 2], "reset restores the pristine explicit list");

        // Sampled sets are re-drawn per trial.
        let sampled = FaultPlan { crash: CrashSpec::Count { count: 4 }, ..FaultPlan::default() };
        let mut faulted = FaultedProcess::new(&spec, &sampled, &graph).unwrap();
        faulted.step_faulted(Draws::Trial(&mut r), &StepFaults::NONE);
        assert_eq!(faulted.crashed().unwrap().count(), 4);
        faulted.reset();
        assert!(faulted.crashed().is_none(), "the next trial draws a fresh set");
    }

    #[test]
    fn crashed_vertices_receive_but_never_relay() {
        // A path 0-1-2: if vertex 1 crashes, a COBRA token from 0 reaches 1 but never 2.
        let graph = generators::path(3).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let plan =
            FaultPlan { crash: CrashSpec::Vertices { vertices: vec![1] }, ..FaultPlan::default() };
        let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
        let mut r = rng(3);
        assert_eq!(run_until_complete(&mut faulted, &mut r, 500), None);
        assert!(faulted.coverage().unwrap().contains(1), "the crashed vertex is visited");
        assert!(!faulted.coverage().unwrap().contains(2), "nothing passes a crashed vertex");
    }

    #[test]
    fn run_churned_completes_and_respects_budget() {
        let family = GraphFamily::RandomRegular { n: 64, r: 4 };
        let spec: ProcessSpec = "cobra:k=2+churn=8".parse().unwrap();
        let runner = Runner::new(100_000);
        let outcome = run_churned(&spec, &family, &runner, &mut rng(5)).unwrap();
        assert_eq!(outcome.reason, StopReason::Completed);
        assert!(outcome.rounds > 0);

        // A tight budget exhausts with the exact number of rounds executed.
        let tight = Runner::new(5);
        let spec_long: ProcessSpec = "walk+churn=2".parse().unwrap();
        let exhausted = run_churned(&spec_long, &family, &tight, &mut rng(6)).unwrap();
        assert_eq!(exhausted.reason, StopReason::BudgetExhausted);
        assert_eq!(exhausted.rounds, 5);
    }

    #[test]
    fn run_churned_without_churn_matches_a_plain_run() {
        let family = GraphFamily::RandomRegular { n: 32, r: 4 };
        let spec = ProcessSpec::cobra(2).unwrap();
        let runner = Runner::new(10_000);
        let a = run_churned(&spec, &family, &runner, &mut rng(7)).unwrap();
        let graph = family.instantiate(&mut rng(7)).unwrap();
        let mut r = rng(7);
        // Discard the draws the graph generation consumed in the churned run.
        let _ = family.instantiate(&mut r).unwrap();
        let b = runner.run_spec(&spec, &graph, &mut r).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn run_churned_is_deterministic() {
        let family = GraphFamily::RandomRegular { n: 48, r: 4 };
        let spec: ProcessSpec = "cobra:k=2+drop=0.1+churn=16".parse().unwrap();
        let runner = Runner::new(100_000);
        let a = run_churned(&spec, &family, &runner, &mut rng(11)).unwrap();
        let b = run_churned(&spec, &family, &runner, &mut rng(11)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn adopted_processes_resume_the_given_round() {
        let graph = generators::complete(16).unwrap();
        let mut r = rng(17);
        for spec in ProcessSpec::examples() {
            let mut process = spec.build(&graph).unwrap();
            process.step(&mut r);
            let mut tokens = Vec::new();
            process.for_each_token(&mut |v| tokens.push(v));
            let coverage = process.coverage().cloned();
            let mut next = spec.build(&graph).unwrap();
            next.adopt_state(&tokens, coverage.as_ref(), 40).unwrap();
            assert_eq!(next.round(), 40, "{spec}");
            next.step(&mut r);
            assert_eq!(next.round(), 41, "{spec}");
        }
    }

    #[test]
    fn run_churned_handles_bursty_and_transient_clauses() {
        let family = GraphFamily::RandomRegular { n: 48, r: 4 };
        let spec: ProcessSpec =
            "cobra:k=2+gedrop=0.1,0.25,0.4+crash=10%+repair=0.2+churn=12".parse().unwrap();
        let runner = Runner::new(100_000);
        let a = run_churned(&spec, &family, &runner, &mut rng(13)).unwrap();
        let b = run_churned(&spec, &family, &runner, &mut rng(13)).unwrap();
        assert_eq!(a, b, "adverse churned runs stay deterministic");
        assert!(a.rounds > 0);
    }

    fn edge_plan(p_bad: f64, p_good: f64, f_bad: f64, f_good: f64) -> FaultPlan {
        FaultPlan {
            drop: DropModel::EdgeGilbertElliott { p_bad, p_good, f_bad, f_good },
            ..FaultPlan::default()
        }
    }

    #[test]
    fn edge_scope_parses_and_displays() {
        let plan = FaultPlan::parse_clauses("gedrop=0.1,0.25,0.5:scope=edge").unwrap();
        assert_eq!(
            plan.drop,
            DropModel::EdgeGilbertElliott { p_bad: 0.1, p_good: 0.25, f_bad: 0.5, f_good: 0.0 }
        );
        assert_eq!(plan.to_string(), "gedrop=0.1,0.25,0.5:scope=edge");
        // The four-field form keeps its good-state loss.
        let four = FaultPlan::parse_clauses("gedrop=0.1,0.25,0.5,0.05:scope=edge").unwrap();
        assert_eq!(four.to_string(), "gedrop=0.1,0.25,0.5,0.05:scope=edge");
        // scope=global is the explicit spelling of the PR-6 aggregate channel.
        let global = FaultPlan::parse_clauses("gedrop=0.1,0.25,0.5:scope=global").unwrap();
        assert_eq!(
            global.drop,
            DropModel::GilbertElliott { p_bad: 0.1, p_good: 0.25, f_bad: 0.5, f_good: 0.0 }
        );
        let err = FaultPlan::parse_clauses("gedrop=0.1,0.25,0.5:scope=vertex").unwrap_err();
        assert!(err.to_string().contains("scope"), "unexpected: {err}");
    }

    #[test]
    fn edge_channels_draw_nothing_while_all_edges_are_good() {
        // The ISSUE's zero-draw acceptance criterion, asserted with the CountingRng
        // sanitizer: one word schedules the aggregate onset clock, and every later
        // all-good round costs zero words until that clock fires.
        let graph = generators::complete(12).unwrap();
        let mut channels = EdgeChannels::new(&graph, 0.001, 0.25, 0.5, 0.0).unwrap();
        let mut counting = crate::CountingRng::new(rng(3));
        channels.advance(&mut counting);
        assert_eq!(counting.take_count(), 1, "round 1 draws exactly the onset-clock word");
        assert_eq!(channels.bad.len(), 0, "channels start good");
        let scheduled = channels.until_onset;
        assert!(scheduled > 1, "seed chosen so the clock does not fire immediately");
        for _ in 1..scheduled {
            channels.advance(&mut counting);
        }
        assert_eq!(counting.count(), 0, "all-good rounds before the onset cost zero words");
        // pb = 0 never schedules anything at all.
        let mut frozen = EdgeChannels::new(&graph, 0.0, 0.25, 0.5, 0.0).unwrap();
        for _ in 0..64 {
            frozen.advance(&mut counting);
        }
        assert_eq!(counting.count(), 0, "pb=0 draws nothing, ever");
        assert_eq!(frozen.until_onset, u64::MAX);
    }

    #[test]
    fn degenerate_edge_channels_alternate_in_lockstep_without_draws() {
        // pb = pg = 1 flips every channel every round: all-good, all-bad, all-good, … —
        // the same state sequence as the degenerate global channel — and every transition
        // is deterministic, so the bank draws zero words throughout.
        let graph = generators::cycle(9).unwrap();
        let m = graph.num_edges();
        let mut channels = EdgeChannels::new(&graph, 1.0, 1.0, 0.7, 0.0).unwrap();
        let mut counting = crate::CountingRng::new(rng(5));
        let mut states = Vec::new();
        for _ in 0..6 {
            channels.advance(&mut counting);
            states.push(channels.bad.len());
        }
        assert_eq!(states, vec![0, m, 0, m, 0, m]);
        assert_eq!(counting.count(), 0, "deterministic transitions draw nothing");
        // Loss queries see the state the round is in.
        channels.reset();
        channels.advance(&mut counting);
        assert_eq!(channels.loss(0, 1), 0.0, "good round: f_good");
        channels.advance(&mut counting);
        assert_eq!(channels.loss(0, 1), 0.7, "bad round: f_bad");
        assert_eq!(channels.loss(1, 0), 0.7, "loss is orientation-independent");
    }

    #[test]
    fn edge_channel_sojourns_scatter_bad_state_per_edge() {
        // With pg well below 1 the bank holds a proper mix: after enough rounds some
        // edges are bad while others are good — the state the global channel cannot
        // represent. Run until a round shows a strict mix.
        let graph = generators::complete(10).unwrap();
        let m = graph.num_edges();
        let mut channels = EdgeChannels::new(&graph, 0.3, 0.2, 0.9, 0.0).unwrap();
        let mut r = rng(17);
        let mut saw_mixed = false;
        for _ in 0..200 {
            channels.advance(&mut r);
            let bad = channels.bad.len();
            if bad > 0 && bad < m {
                saw_mixed = true;
                break;
            }
        }
        assert!(saw_mixed, "per-edge channels must de-synchronise");
        // And the loss query distinguishes the two populations within one round.
        let (mut bad_seen, mut good_seen) = (false, false);
        for (u, v) in graph.edges() {
            let loss = channels.loss(u, v);
            if loss == 0.9 {
                bad_seen = true;
            } else if loss == 0.0 {
                good_seen = true;
            } else {
                panic!("loss must be one of the state losses, got {loss}");
            }
        }
        assert!(bad_seen && good_seen);
    }

    #[test]
    fn faulted_process_builds_the_edge_bank_only_for_lossy_edge_plans() {
        let graph = generators::complete(16).unwrap();
        let spec = ProcessSpec::push();
        let faulted = FaultedProcess::new(&spec, &edge_plan(0.1, 0.25, 0.5, 0.0), &graph).unwrap();
        assert!(faulted.edges.is_some(), "a lossy edge plan runs a bank");
        assert!(faulted.edges.as_ref().unwrap().bad.is_empty(), "channels start good");
        // A lossless edge plan needs no bank and behaves as a benign wrapper.
        let benign = FaultedProcess::new(&spec, &edge_plan(0.3, 0.7, 0.0, 0.0), &graph).unwrap();
        assert!(benign.edges.is_none());
    }

    #[test]
    fn edge_scope_drop_slows_cover_but_still_completes() {
        // The monotone-process argument again, now against the per-edge bank.
        let graph = generators::complete(64).unwrap();
        let spec = ProcessSpec::push();
        let plan = edge_plan(0.1875, 0.125, 0.8, 0.0);
        let mut totals = [0usize; 2];
        for seed in 0..5u64 {
            let mut bare = spec.build(&graph).unwrap();
            totals[0] += run_until_complete(bare.as_mut(), &mut rng(seed), 100_000).unwrap();
            let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
            totals[1] += run_until_complete(&mut faulted, &mut rng(seed), 100_000).unwrap();
        }
        assert!(
            totals[1] > totals[0],
            "per-edge bursty loss must slow covering: bare {} vs faulted {}",
            totals[0],
            totals[1]
        );
    }

    #[test]
    fn edge_scope_runs_are_deterministic_and_reset_replays() {
        let graph = generators::complete(24).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap();
        let plan = edge_plan(0.2, 0.3, 0.6, 0.0);
        let run = |seed: u64| {
            let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
            run_until_complete(&mut faulted, &mut rng(seed), 100_000)
        };
        assert_eq!(run(23), run(23), "same seed, same trajectory");
        // reset() restores the bank to all-good so a rebuilt RNG replays identically.
        let mut faulted = FaultedProcess::new(&spec, &plan, &graph).unwrap();
        let first = run_until_complete(&mut faulted, &mut rng(23), 100_000);
        faulted.reset();
        assert!(faulted.edges.as_ref().unwrap().bad.is_empty(), "reset restores all-good channels");
        let second = run_until_complete(&mut faulted, &mut rng(23), 100_000);
        assert_eq!(first, second);
    }

    #[test]
    fn step_faults_consult_the_edge_bank_only_when_present() {
        let graph = generators::cycle(6).unwrap();
        let mut channels = EdgeChannels::new(&graph, 1.0, 1.0, 0.75, 0.0).unwrap();
        let mut r = rng(1);
        channels.advance(&mut r); // round 1: all good
        channels.advance(&mut r); // round 2: all bad
        let faults = StepFaults::NONE.with_edge_channels(Some(&channels));
        assert_eq!(faults.edge_drop_probability(0, 1), 0.75);
        let mut counting = crate::CountingRng::new(rng(2));
        let _ = faults.drops_on_edge(&mut counting, 0, 1);
        assert_eq!(counting.take_count(), 1, "a lossy edge costs one gen_bool word");
        // Without a bank the query is free and never drops.
        assert_eq!(StepFaults::NONE.edge_drop_probability(0, 1), 0.0);
        assert!(!StepFaults::NONE.drops_on_edge(&mut counting, 0, 1));
        assert_eq!(counting.count(), 0, "no bank, no draw");
        assert!(StepFaults::NONE.is_benign());
        assert!(!faults.is_benign(), "an attached bank is not benign");
    }
}
