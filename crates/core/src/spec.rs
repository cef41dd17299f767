//! Value-level process specifications.
//!
//! A [`ProcessSpec`] names any of the seven spreading processes of this workspace together
//! with its parameters, without holding a graph. Specs are plain data: they serialize (for
//! result records and config files), parse from a compact CLI syntax
//! (`cobra:k=2`, `contact:p=0.5,q=0.2`), and instantiate against any [`Graph`] as a
//! `Box<dyn SpreadingProcess>` — the registry/driver pattern that lets experiments and the
//! `repro` binary enumerate processes from a table instead of hand-rolling one measurement
//! loop per process type.
//!
//! # Spec syntax
//!
//! | process | syntax | notes |
//! |---------|--------|-------|
//! | COBRA | `cobra:k=2` or `cobra:rho=0.25` | `rho` selects the fractional branching `1+ρ` |
//! | BIPS | `bips:k=2` or `bips:rho=0.25` | persistent-source epidemic |
//! | single random walk | `walk` | |
//! | multiple random walks | `multiwalk:w=8` | `w` independent walkers |
//! | PUSH | `push` | |
//! | PUSH–PULL | `pushpull` | `push-pull` is accepted too |
//! | SIS contact process | `contact:p=0.5,q=0.2` | `p` infection, `q` recovery; add `transient` to let the source recover |
//!
//! Every process also accepts `start=<vertex>` (alias `source=`), defaulting to vertex 0.
//! The table's syntax is executable — every documented form parses and round-trips
//! through [`Display`](fmt::Display), so the documentation cannot drift from the parser:
//!
//! ```
//! use cobra_core::spec::ProcessSpec;
//!
//! for text in [
//!     "cobra:k=2",
//!     "cobra:rho=0.25",
//!     "bips:k=2",
//!     "walk",
//!     "multiwalk:w=8",
//!     "push",
//!     "pushpull",
//!     "contact:p=0.5,q=0.2",
//!     "contact:p=0.5,q=0.2,transient",
//!     "bips:k=2,start=3",
//! ] {
//!     let spec: ProcessSpec = text.parse().expect(text);
//!     assert_eq!(spec.to_string(), text, "documented syntax must round-trip");
//! }
//! ```
//!
//! Any spec can additionally carry `+`-separated **fault clauses** — `cobra:k=2+drop=0.1`,
//! `push+crash=5%`, `cobra:k=2+gedrop=0.1,0.25,0.5` (bursty Gilbert–Elliott loss),
//! `bips:k=2+crash=10%+repair=0.1` (transient crashes), `bips:k=2+drop=0.1+churn=64`,
//! `cobra:k=2+adv=topdeg:budget=5%` (a state-aware adversary policy; see
//! [`adversary`](crate::adversary)) —
//! described by [`FaultPlan`]: the built process runs inside one [`FaultedProcess`], the
//! per-trial environment that composes the plan's oblivious clauses, its adversary and its
//! defense. Specs with `churn=` cannot build against a fixed graph; drive them through
//! [`fault::run_churned`](crate::fault::run_churned).
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobra_core::spec::ProcessSpec;
//! use cobra_core::sim::Runner;
//! use cobra_graph::generators;
//! use rand::SeedableRng;
//!
//! let spec: ProcessSpec = "cobra:k=2".parse()?;
//! let graph = generators::complete(64)?;
//! let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(1);
//! let outcome = Runner::new(10_000).run_spec(&spec, &graph, &mut rng)?;
//! assert!(outcome.completed());
//! # Ok(())
//! # }
//! ```

use std::fmt;
use std::str::FromStr;

use cobra_graph::{Graph, VertexId};
use serde::{Deserialize, Serialize};

use crate::baselines::contact::ContactParameters;
use crate::baselines::{
    ContactProcess, MultipleRandomWalks, PushProcess, PushPullProcess, RandomWalk,
};
use crate::bips::BipsProcess;
use crate::cobra::{Branching, CobraProcess};
use crate::fault::{FaultPlan, FaultedProcess};
use crate::parallel::{ParallelFrontier, ParallelProcess};
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// A serializable description of any spreading process in this workspace.
///
/// The `start` vertex doubles as the persistent source for the epidemic processes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ProcessSpec {
    /// The COBRA coalescing-branching random walk.
    Cobra {
        /// Branching factor (`k` or fractional `1+ρ`).
        branching: Branching,
        /// Start vertex.
        start: VertexId,
    },
    /// The BIPS dual epidemic process (persistent source).
    Bips {
        /// Sampling factor (`k` or fractional `1+ρ`).
        branching: Branching,
        /// The persistent source.
        start: VertexId,
    },
    /// A single simple random walk.
    RandomWalk {
        /// Start vertex.
        start: VertexId,
    },
    /// `walkers` independent random walks from a common start.
    MultipleWalks {
        /// Number of walkers.
        walkers: usize,
        /// Start vertex.
        start: VertexId,
    },
    /// The PUSH rumour-spreading protocol.
    Push {
        /// Initially informed vertex.
        start: VertexId,
    },
    /// The PUSH–PULL rumour-spreading protocol.
    PushPull {
        /// Initially informed vertex.
        start: VertexId,
    },
    /// The discrete SIS contact process.
    Contact {
        /// Per-neighbour, per-round transmission probability.
        infection: f64,
        /// Per-round recovery probability.
        recovery: f64,
        /// Whether the source never recovers (the BVDV scenario; required for guaranteed
        /// completion).
        persistent: bool,
        /// Source vertex.
        start: VertexId,
    },
    /// Any process run under a fault plan (spec syntax `cobra:k=2+drop=0.1+crash=5%`).
    Faulted {
        /// The process the faults apply to.
        inner: Box<ProcessSpec>,
        /// The adversity description.
        plan: FaultPlan,
    },
}

impl ProcessSpec {
    /// COBRA with fixed branching factor `k`, starting at vertex 0.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `k == 0`.
    pub fn cobra(k: u32) -> Result<Self> {
        Ok(ProcessSpec::Cobra { branching: Branching::fixed(k)?, start: 0 })
    }

    /// COBRA with fractional branching `1+ρ`, starting at vertex 0.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `ρ` is outside `[0, 1]`.
    pub fn cobra_fractional(rho: f64) -> Result<Self> {
        Ok(ProcessSpec::Cobra { branching: Branching::fractional(rho)?, start: 0 })
    }

    /// BIPS with fixed sampling factor `k`, source vertex 0.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `k == 0`.
    pub fn bips(k: u32) -> Result<Self> {
        Ok(ProcessSpec::Bips { branching: Branching::fixed(k)?, start: 0 })
    }

    /// A single random walk from vertex 0.
    pub fn random_walk() -> Self {
        ProcessSpec::RandomWalk { start: 0 }
    }

    /// `walkers` independent random walks from vertex 0.
    pub fn multiple_walks(walkers: usize) -> Self {
        ProcessSpec::MultipleWalks { walkers, start: 0 }
    }

    /// PUSH from vertex 0.
    pub fn push() -> Self {
        ProcessSpec::Push { start: 0 }
    }

    /// PUSH–PULL from vertex 0.
    pub fn push_pull() -> Self {
        ProcessSpec::PushPull { start: 0 }
    }

    /// A persistent-source contact process from vertex 0.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for probabilities outside `[0, 1]`.
    pub fn contact(infection: f64, recovery: f64) -> Result<Self> {
        ContactParameters::new(infection, recovery)?;
        Ok(ProcessSpec::Contact { infection, recovery, persistent: true, start: 0 })
    }

    /// The same spec with a different start (or source) vertex.
    #[must_use]
    pub fn with_start(mut self, vertex: VertexId) -> Self {
        match &mut self {
            ProcessSpec::Cobra { start, .. }
            | ProcessSpec::Bips { start, .. }
            | ProcessSpec::RandomWalk { start }
            | ProcessSpec::MultipleWalks { start, .. }
            | ProcessSpec::Push { start }
            | ProcessSpec::PushPull { start }
            | ProcessSpec::Contact { start, .. } => *start = vertex,
            ProcessSpec::Faulted { inner, .. } => {
                let base = std::mem::replace(inner.as_mut(), ProcessSpec::Push { start: 0 });
                *inner.as_mut() = base.with_start(vertex);
            }
        }
        self
    }

    /// The start (or source) vertex of the spec.
    pub fn start(&self) -> VertexId {
        match self {
            ProcessSpec::Cobra { start, .. }
            | ProcessSpec::Bips { start, .. }
            | ProcessSpec::RandomWalk { start }
            | ProcessSpec::MultipleWalks { start, .. }
            | ProcessSpec::Push { start }
            | ProcessSpec::PushPull { start }
            | ProcessSpec::Contact { start, .. } => *start,
            ProcessSpec::Faulted { inner, .. } => inner.start(),
        }
    }

    /// The canonical process name used by [`Display`](fmt::Display) and [`FromStr`]; a
    /// faulted spec reports its inner process name.
    pub fn name(&self) -> &'static str {
        match self {
            ProcessSpec::Cobra { .. } => "cobra",
            ProcessSpec::Bips { .. } => "bips",
            ProcessSpec::RandomWalk { .. } => "walk",
            ProcessSpec::MultipleWalks { .. } => "multiwalk",
            ProcessSpec::Push { .. } => "push",
            ProcessSpec::PushPull { .. } => "pushpull",
            ProcessSpec::Contact { .. } => "contact",
            ProcessSpec::Faulted { inner, .. } => inner.name(),
        }
    }

    /// Wraps this spec in a fault plan (flattening: faulting an already-faulted spec
    /// replaces its plan).
    #[must_use]
    pub fn faulted(self, plan: FaultPlan) -> Self {
        match self {
            ProcessSpec::Faulted { inner, .. } => ProcessSpec::Faulted { inner, plan },
            base => ProcessSpec::Faulted { inner: Box::new(base), plan },
        }
    }

    /// The fault plan attached to this spec, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        match self {
            ProcessSpec::Faulted { plan, .. } => Some(plan),
            _ => None,
        }
    }

    /// The same spec without its churn clause — what the churn driver builds on each graph
    /// instance. A plan left benign unwraps to the bare inner spec.
    #[must_use]
    pub fn without_churn(self) -> Self {
        match self {
            ProcessSpec::Faulted { inner, mut plan } => {
                plan.churn = None;
                if plan.is_benign() {
                    *inner
                } else {
                    ProcessSpec::Faulted { inner, plan }
                }
            }
            base => base,
        }
    }

    /// Instantiates the process against `graph`.
    ///
    /// The returned box borrows the graph (processes hold `&Graph`), so it lives at most as
    /// long as `graph`; it is `Send`, which lets Monte-Carlo drivers build one process per
    /// trial worker.
    ///
    /// # Errors
    ///
    /// Propagates the constructor validation of the underlying process
    /// ([`CoreError::VertexOutOfRange`], [`CoreError::UnsuitableGraph`],
    /// [`CoreError::InvalidParameters`]).
    pub fn build<'g>(&self, graph: &'g Graph) -> Result<Box<dyn SpreadingProcess + Send + 'g>> {
        Ok(match *self {
            ProcessSpec::Cobra { branching, start } => {
                Box::new(CobraProcess::new(graph, start, branching)?)
            }
            ProcessSpec::Bips { branching, start } => {
                Box::new(BipsProcess::new(graph, start, branching)?)
            }
            ProcessSpec::RandomWalk { start } => Box::new(RandomWalk::new(graph, start)?),
            ProcessSpec::MultipleWalks { walkers, start } => {
                Box::new(MultipleRandomWalks::new(graph, start, walkers)?)
            }
            ProcessSpec::Push { start } => Box::new(PushProcess::new(graph, start)?),
            ProcessSpec::PushPull { start } => Box::new(PushPullProcess::new(graph, start)?),
            ProcessSpec::Contact { infection, recovery, persistent, start } => {
                Box::new(ContactProcess::new(
                    graph,
                    start,
                    ContactParameters::new(infection, recovery)?,
                    persistent,
                )?)
            }
            ProcessSpec::Faulted { ref inner, ref plan } => {
                Box::new(FaultedProcess::new(inner, plan, graph)?)
            }
        })
    }

    /// Instantiates the process against `graph` in **stream mode**, wrapped in a
    /// [`ParallelProcess`] that shards frontier iteration across `threads` worker threads.
    /// The per-trial stream key is drawn from `rng`, so the usual `(master, label, index)`
    /// seeding path carries over unchanged — and the resulting trajectory is bit-identical
    /// for every `threads` value.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build) (which already rejects churn plans outside
    /// [`fault::run_churned`](crate::fault::run_churned)), plus rejection of
    /// `threads == 0`.
    // cobra-lint: draws(bounded)
    pub fn build_parallel<'g>(
        &self,
        graph: &'g Graph,
        threads: usize,
        rng: &mut dyn rand::RngCore,
    ) -> Result<Box<dyn SpreadingProcess + Send + 'g>> {
        let inner = self.build(graph)?;
        let engine = ParallelFrontier::from_rng(rng, threads)?;
        Ok(Box::new(ParallelProcess::new(inner, engine)))
    }

    /// One representative spec per process kind (used by tests and `repro --list-processes`).
    pub fn examples() -> Vec<ProcessSpec> {
        vec![
            ProcessSpec::cobra(2).expect("k = 2 is valid"),
            ProcessSpec::Cobra { branching: Branching::Fractional { rho: 0.5 }, start: 0 },
            ProcessSpec::bips(2).expect("k = 2 is valid"),
            ProcessSpec::random_walk(),
            ProcessSpec::multiple_walks(8),
            ProcessSpec::push(),
            ProcessSpec::push_pull(),
            ProcessSpec::contact(0.8, 0.1).expect("valid probabilities"),
            ProcessSpec::cobra(2).expect("k = 2 is valid").faulted(FaultPlan {
                drop: crate::fault::DropModel::iid(0.1),
                crash: crate::fault::CrashSpec::Percent { percent: 5.0 },
                ..FaultPlan::default()
            }),
            // PUSH (monotone, so guaranteed to complete) under a bursty channel: mean bad
            // burst 1/0.25 = 4 rounds, 50% loss while bad.
            ProcessSpec::push().faulted(FaultPlan {
                drop: crate::fault::DropModel::GilbertElliott {
                    p_bad: 0.05,
                    p_good: 0.25,
                    f_bad: 0.5,
                    f_good: 0.0,
                },
                ..FaultPlan::default()
            }),
            // BIPS (persistent source) under transient crashes.
            ProcessSpec::bips(2).expect("k = 2 is valid").faulted(FaultPlan {
                crash: crate::fault::CrashSpec::Percent { percent: 10.0 },
                repair: Some(0.1),
                ..FaultPlan::default()
            }),
            // Adaptive adversaries (see `adversary`): BIPS completes under a crash-the-hubs
            // policy whose budget is below the degree. A budget of at least the source's
            // degree can crash all of the source's neighbours while they hold the whole
            // epidemic; crashed vertices still sample but never relay, so the infection is
            // then stuck on the source and those neighbours, and BIPS (complete only when
            // every vertex is infected at once) never completes. Monotone PUSH completes
            // under a growth-front drop.
            ProcessSpec::bips(2).expect("k = 2 is valid").faulted(FaultPlan {
                adversary: Some(crate::adversary::AdversarySpec::CrashTopDegree {
                    budget: crate::adversary::AdversaryBudget::Count { count: 3 },
                    rate: 1,
                }),
                ..FaultPlan::default()
            }),
            ProcessSpec::push().faulted(FaultPlan {
                adversary: Some(crate::adversary::AdversarySpec::DropFrontier { f: 0.5 }),
                ..FaultPlan::default()
            }),
            // Defense policies (see `defense`): COBRA under the crash-the-hubs adversary
            // with the AIMD stall-triggered branching boost fighting back.
            ProcessSpec::cobra(2).expect("k = 2 is valid").faulted(FaultPlan {
                adversary: Some(crate::adversary::AdversarySpec::CrashTopDegree {
                    budget: crate::adversary::AdversaryBudget::Percent { percent: 5.0 },
                    rate: 1,
                }),
                defense: Some(crate::defense::DefenseSpec::BoostK { window: 8, cap: 4 }),
                ..FaultPlan::default()
            }),
            // Heterogeneous workloads (E12): degree-proportional budgets, capped at 4,
            // under per-edge Gilbert–Elliott bursts — loss hits individual links.
            ProcessSpec::Cobra { branching: Branching::PerVertex { cap: 4 }, start: 0 }.faulted(
                FaultPlan {
                    drop: crate::fault::DropModel::EdgeGilbertElliott {
                        p_bad: 0.1,
                        p_good: 0.25,
                        f_bad: 0.5,
                        f_good: 0.0,
                    },
                    ..FaultPlan::default()
                },
            ),
            // Uncapped k=deg budgets on the bare process.
            ProcessSpec::Cobra { branching: Branching::PerVertex { cap: u32::MAX }, start: 0 },
        ]
    }
}

impl fmt::Display for ProcessSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let ProcessSpec::Faulted { inner, plan } = self {
            return write!(f, "{inner}+{plan}");
        }
        let mut parts: Vec<String> = Vec::new();
        match self {
            ProcessSpec::Cobra { branching, .. } | ProcessSpec::Bips { branching, .. } => {
                match branching {
                    Branching::Fixed { k } => parts.push(format!("k={k}")),
                    Branching::Fractional { rho } => parts.push(format!("rho={rho}")),
                    // No comma inside the value: `deg:cap=8` must survive the
                    // comma-splitting argument parser on the way back in.
                    Branching::PerVertex { cap } if *cap == u32::MAX => {
                        parts.push("k=deg".to_string())
                    }
                    Branching::PerVertex { cap } => parts.push(format!("k=deg:cap={cap}")),
                }
            }
            ProcessSpec::MultipleWalks { walkers, .. } => parts.push(format!("w={walkers}")),
            ProcessSpec::Contact { infection, recovery, persistent, .. } => {
                parts.push(format!("p={infection}"));
                parts.push(format!("q={recovery}"));
                if !persistent {
                    parts.push("transient".to_string());
                }
            }
            ProcessSpec::RandomWalk { .. }
            | ProcessSpec::Push { .. }
            | ProcessSpec::PushPull { .. } => {}
            ProcessSpec::Faulted { .. } => unreachable!("handled above"),
        }
        if self.start() != 0 {
            parts.push(format!("start={}", self.start()));
        }
        if parts.is_empty() {
            write!(f, "{}", self.name())
        } else {
            write!(f, "{}:{}", self.name(), parts.join(","))
        }
    }
}

/// Parsed `key=value` / bare-flag arguments of a spec string.
struct SpecArgs {
    pairs: Vec<(String, String)>,
    flags: Vec<String>,
}

impl SpecArgs {
    fn parse(text: &str) -> Result<Self> {
        let mut pairs = Vec::new();
        let mut flags = Vec::new();
        for token in text.split(',').filter(|t| !t.is_empty()) {
            match token.split_once('=') {
                Some((key, value)) => {
                    pairs.push((key.trim().to_string(), value.trim().to_string()))
                }
                None => flags.push(token.trim().to_string()),
            }
        }
        Ok(SpecArgs { pairs, flags })
    }

    fn take(&mut self, key: &str) -> Option<String> {
        let index = self.pairs.iter().position(|(k, _)| k == key)?;
        Some(self.pairs.remove(index).1)
    }

    fn take_parsed<T: FromStr>(&mut self, key: &str) -> Result<Option<T>> {
        match self.take(key) {
            None => Ok(None),
            Some(raw) => raw.parse().map(Some).map_err(|_| CoreError::InvalidParameters {
                reason: format!("invalid value {raw:?} for `{key}`"),
            }),
        }
    }

    /// Takes a parameter that has two accepted spellings, rejecting specs that give both
    /// (one value would be silently dropped otherwise).
    fn take_aliased<T: FromStr>(&mut self, key: &str, alias: &str) -> Result<Option<T>> {
        let primary = self.take_parsed(key)?;
        let secondary = self.take_parsed(alias)?;
        match (primary, secondary) {
            (Some(_), Some(_)) => Err(CoreError::InvalidParameters {
                reason: format!("specify either {key}= or {alias}=, not both"),
            }),
            (value, None) | (None, value) => Ok(value),
        }
    }

    fn take_flag(&mut self, name: &str) -> bool {
        let index = self.flags.iter().position(|f| f == name);
        match index {
            Some(index) => {
                self.flags.remove(index);
                true
            }
            None => false,
        }
    }

    fn finish(self, spec: &str) -> Result<()> {
        if let Some((key, _)) = self.pairs.first() {
            return Err(CoreError::InvalidParameters {
                reason: format!("unknown parameter `{key}` in process spec {spec:?}"),
            });
        }
        if let Some(flag) = self.flags.first() {
            return Err(CoreError::InvalidParameters {
                reason: format!("unknown flag `{flag}` in process spec {spec:?}"),
            });
        }
        Ok(())
    }
}

impl FromStr for ProcessSpec {
    type Err = CoreError;

    fn from_str(text: &str) -> Result<Self> {
        // Parse failures are wrapped in `InvalidSpec` carrying the *full* original input, so
        // a CLI error for `push+gedrop=` names the whole spec, not just the broken clause.
        parse_spec(text).map_err(|err| match err {
            CoreError::InvalidParameters { reason } | CoreError::InvalidSpec { reason, .. } => {
                CoreError::InvalidSpec { spec: text.to_string(), reason }
            }
            other => other,
        })
    }
}

fn parse_spec(text: &str) -> Result<ProcessSpec> {
    // `+` separates the base spec from fault clauses: `cobra:k=2+drop=0.1+crash=5%`.
    if let Some((base, clauses)) = text.split_once('+') {
        let inner: ProcessSpec = base.parse()?;
        return Ok(inner.faulted(FaultPlan::parse_clauses(clauses)?));
    }
    let (name, rest) = match text.split_once(':') {
        Some((name, rest)) => (name.trim(), rest),
        None => (text.trim(), ""),
    };
    let mut args = SpecArgs::parse(rest)?;
    let start: VertexId = args.take_aliased("start", "source")?.unwrap_or(0);
    let branching = |args: &mut SpecArgs| -> Result<Branching> {
        let k: Option<String> = args.take("k");
        let rho: Option<f64> = args.take_parsed("rho")?;
        match (k, rho) {
            (Some(_), Some(_)) => Err(CoreError::InvalidParameters {
                reason: "specify either k= or rho=, not both".to_string(),
            }),
            (Some(raw), None) => {
                if raw == "deg" {
                    Branching::per_vertex(u32::MAX)
                } else if let Some(cap) = raw.strip_prefix("deg:cap=") {
                    Branching::per_vertex(cap.parse().map_err(|_| {
                        CoreError::InvalidParameters {
                            reason: format!("invalid budget cap in `k={raw}`"),
                        }
                    })?)
                } else {
                    Branching::fixed(raw.parse().map_err(|_| CoreError::InvalidParameters {
                        reason: format!(
                            "invalid value {raw:?} for `k` (expected an integer, `deg`, or \
                             `deg:cap=N`)"
                        ),
                    })?)
                }
            }
            (None, Some(rho)) => Branching::fractional(rho),
            (None, None) => Branching::fixed(2),
        }
    };
    let spec = match name.to_ascii_lowercase().as_str() {
        "cobra" => ProcessSpec::Cobra { branching: branching(&mut args)?, start },
        "bips" => {
            let branching = branching(&mut args)?;
            if matches!(branching, Branching::PerVertex { .. }) {
                return Err(CoreError::InvalidParameters {
                    reason: "k=deg budgets are a COBRA (push) feature; BIPS pulls k samples \
                             at every vertex, so a per-sender degree budget has no meaning"
                        .to_string(),
                });
            }
            ProcessSpec::Bips { branching, start }
        }
        "walk" | "rw" | "random-walk" => ProcessSpec::RandomWalk { start },
        "multiwalk" | "walks" | "multi-walk" => {
            let walkers =
                args.take_aliased("w", "walkers")?.ok_or_else(|| CoreError::InvalidParameters {
                    reason: "multiwalk requires w=<walkers>".to_string(),
                })?;
            ProcessSpec::MultipleWalks { walkers, start }
        }
        "push" => ProcessSpec::Push { start },
        "pushpull" | "push-pull" => ProcessSpec::PushPull { start },
        "contact" | "sis" => {
            let infection = args.take_aliased("p", "infection")?.ok_or_else(|| {
                CoreError::InvalidParameters {
                    reason: "contact requires p=<infection probability>".to_string(),
                }
            })?;
            let recovery = args.take_aliased("q", "recovery")?.ok_or_else(|| {
                CoreError::InvalidParameters {
                    reason: "contact requires q=<recovery probability>".to_string(),
                }
            })?;
            ContactParameters::new(infection, recovery)?;
            let persistent = !args.take_flag("transient");
            ProcessSpec::Contact { infection, recovery, persistent, start }
        }
        other => {
            return Err(CoreError::InvalidParameters {
                reason: format!(
                    "unknown process {other:?} (expected cobra, bips, walk, multiwalk, \
                     push, pushpull or contact)"
                ),
            })
        }
    };
    args.finish(text)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::run_until_complete;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn parse_and_display_round_trip() {
        for spec in ProcessSpec::examples() {
            let text = spec.to_string();
            let back: ProcessSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(spec, back, "round trip through {text:?}");
        }
        // Non-default start vertices survive too.
        let spec = ProcessSpec::cobra(3).unwrap().with_start(7);
        assert_eq!(spec.to_string(), "cobra:k=3,start=7");
        assert_eq!(spec.to_string().parse::<ProcessSpec>().unwrap(), spec);
    }

    #[test]
    fn serde_round_trip() {
        for spec in ProcessSpec::examples() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: ProcessSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "serde round trip through {json}");
        }
    }

    #[test]
    fn parse_accepts_aliases_and_defaults() {
        assert_eq!("cobra".parse::<ProcessSpec>().unwrap(), ProcessSpec::cobra(2).unwrap());
        assert_eq!(
            "cobra:rho=0.25".parse::<ProcessSpec>().unwrap(),
            ProcessSpec::cobra_fractional(0.25).unwrap()
        );
        assert_eq!("rw".parse::<ProcessSpec>().unwrap(), ProcessSpec::random_walk());
        assert_eq!("push-pull".parse::<ProcessSpec>().unwrap(), ProcessSpec::push_pull());
        assert_eq!(
            "multiwalk:walkers=4".parse::<ProcessSpec>().unwrap(),
            ProcessSpec::multiple_walks(4)
        );
        assert_eq!(
            "bips:k=2,source=3".parse::<ProcessSpec>().unwrap(),
            ProcessSpec::bips(2).unwrap().with_start(3)
        );
        let contact: ProcessSpec = "sis:p=0.3,q=0.7,transient".parse().unwrap();
        assert_eq!(
            contact,
            ProcessSpec::Contact { infection: 0.3, recovery: 0.7, persistent: false, start: 0 }
        );
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!("frisbee".parse::<ProcessSpec>().is_err());
        assert!("cobra:k=0".parse::<ProcessSpec>().is_err());
        assert!("cobra:k=2,rho=0.5".parse::<ProcessSpec>().is_err());
        assert!("bips:k=2,start=1,source=5".parse::<ProcessSpec>().is_err());
        assert!("multiwalk:w=4,walkers=9".parse::<ProcessSpec>().is_err());
        assert!("contact:p=0.3,infection=0.4,q=0.5".parse::<ProcessSpec>().is_err());
        assert!("cobra:k=two".parse::<ProcessSpec>().is_err());
        assert!("cobra:z=1".parse::<ProcessSpec>().is_err());
        assert!("cobra:k=2,bogusflag".parse::<ProcessSpec>().is_err());
        assert!("multiwalk".parse::<ProcessSpec>().is_err());
        assert!("contact:p=0.5".parse::<ProcessSpec>().is_err());
        assert!("contact:p=1.5,q=0.5".parse::<ProcessSpec>().is_err());
    }

    #[test]
    fn malformed_specs_report_the_full_offending_input() {
        // Truncated specs (empty value after `=`) must come back as a structured
        // `InvalidSpec` naming the complete input text — never a panic, and never an
        // error that only mentions the inner clause.
        for text in [
            "cobra:k=",
            "push+adv=topdeg:budget=",
            "push+gedrop=",
            "cobra:k=2+gedrop=0.1,0.25,",
            "multiwalk:w=",
            "contact:p=,q=0.5",
            "cobra:k=2+def=boostk:trigger=",
            "cobra:k=2+def=reseed:m=",
            "cobra:k=2+def=shield",
            "cobra:k=2+def=passive+def=boostk",
        ] {
            match text.parse::<ProcessSpec>() {
                Err(CoreError::InvalidSpec { spec, reason }) => {
                    assert_eq!(spec, text, "wrapped spec must be the full input");
                    assert!(!reason.is_empty(), "{text:?} needs a reason");
                }
                other => panic!("{text:?}: expected InvalidSpec, got {other:?}"),
            }
        }
        // The Display form carries the full spec so CLI users see what to fix.
        let err = "push+gedrop=".parse::<ProcessSpec>().unwrap_err();
        assert!(err.to_string().contains("push+gedrop="), "{err}");
    }

    #[test]
    fn build_instantiates_every_process() {
        let graph = generators::complete(16).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(9);
        for spec in ProcessSpec::examples() {
            let mut process = spec.build(&graph).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(process.num_vertices(), 16);
            assert_eq!(process.num_active(), 1);
            let rounds = run_until_complete(process.as_mut(), &mut rng, 100_000);
            assert!(rounds.is_some(), "{spec} failed to complete on K_16");
        }
    }

    #[test]
    fn every_process_rejects_isolated_vertices() {
        // Regression for the contact process (which used to run to its round budget on
        // such graphs), pinned for every process the spec grammar can build: vertex 3
        // has no edges, so nothing can ever reach it.
        let isolated = cobra_graph::Graph::from_edges(4, &[(0, 1), (1, 2), (0, 2)]).unwrap();
        for spec in ProcessSpec::examples() {
            match spec.build(&isolated) {
                Err(CoreError::UnsuitableGraph { reason }) => {
                    assert!(reason.contains("isolated"), "{spec}: {reason}");
                }
                Err(other) => panic!("{spec}: expected UnsuitableGraph, got {other:?}"),
                Ok(_) => panic!("{spec}: must not build on a graph with an isolated vertex"),
            }
        }
    }

    #[test]
    fn per_vertex_budget_specs_parse_display_and_reject_misuse() {
        // `k=deg` and `k=deg:cap=N` round-trip (the cap spelling uses `:` precisely so it
        // survives the comma-splitting argument parser).
        let deg: ProcessSpec = "cobra:k=deg".parse().unwrap();
        assert_eq!(
            deg,
            ProcessSpec::Cobra { branching: Branching::PerVertex { cap: u32::MAX }, start: 0 }
        );
        assert_eq!(deg.to_string(), "cobra:k=deg");
        let capped: ProcessSpec = "cobra:k=deg:cap=8".parse().unwrap();
        assert_eq!(
            capped,
            ProcessSpec::Cobra { branching: Branching::PerVertex { cap: 8 }, start: 0 }
        );
        assert_eq!(capped.to_string(), "cobra:k=deg:cap=8");
        // Budgets are a push-side feature: BIPS rejects them at parse with the full spec.
        match "bips:k=deg".parse::<ProcessSpec>() {
            Err(CoreError::InvalidSpec { spec, reason }) => {
                assert_eq!(spec, "bips:k=deg");
                assert!(reason.contains("COBRA"), "{reason}");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        assert!("bips:k=deg:cap=4".parse::<ProcessSpec>().is_err());
        assert!("cobra:k=deg:cap=0".parse::<ProcessSpec>().is_err(), "cap=0 pushes nothing");
        assert!("cobra:k=deg:cap=".parse::<ProcessSpec>().is_err());
        // And `k=deg` means nothing to the non-branching processes.
        assert!("push:k=deg".parse::<ProcessSpec>().is_err());
        assert!("rw:k=deg".parse::<ProcessSpec>().is_err());
    }

    #[test]
    fn edge_scope_channels_reject_policy_combos_and_double_loss() {
        // One loss model per plan: the existing drop=/gedrop= exclusion covers the new
        // scope spelling too.
        match "cobra:k=2+gedrop=0.1,0.25,0.5:scope=edge+drop=0.2".parse::<ProcessSpec>() {
            Err(CoreError::InvalidSpec { spec, .. }) => {
                assert_eq!(spec, "cobra:k=2+gedrop=0.1,0.25,0.5:scope=edge+drop=0.2");
            }
            other => panic!("expected InvalidSpec, got {other:?}"),
        }
        // Per-edge channels compose with state-aware policies: the environment wrapper
        // carries the edge bank next to the adversary and the defense.
        let graph = generators::complete(8).unwrap();
        for text in [
            "cobra:k=2+gedrop=0.1,0.25,0.5:scope=edge+adv=dropfront:f=0.5",
            "cobra:k=2+gedrop=0.1,0.25,0.5:scope=edge+def=boostk",
        ] {
            let spec: ProcessSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            let mut process = spec.build(&graph).unwrap_or_else(|e| panic!("{text}: {e}"));
            let mut rng = ChaCha12Rng::seed_from_u64(78);
            for _ in 0..50 {
                process.step(&mut rng);
            }
            assert!(process.round() > 0, "{text} must run");
        }
        // The happy path builds and completes (monotone PUSH so completion is sure).
        let spec: ProcessSpec = "push+gedrop=0.1,0.25,0.5:scope=edge".parse().unwrap();
        let mut process = spec.build(&graph).unwrap();
        let mut rng = ChaCha12Rng::seed_from_u64(77);
        assert!(run_until_complete(process.as_mut(), &mut rng, 100_000).is_some());
    }

    #[test]
    fn fault_clauses_parse_display_and_build() {
        let spec: ProcessSpec = "cobra:k=2+drop=0.1+crash=5%".parse().unwrap();
        assert_eq!(spec.name(), "cobra");
        let plan = spec.fault_plan().expect("parsed spec carries a plan");
        assert_eq!(plan.drop, crate::fault::DropModel::iid(0.1));
        assert_eq!(spec.to_string(), "cobra:k=2+drop=0.1+crash=5%");
        assert_eq!(spec.to_string().parse::<ProcessSpec>().unwrap(), spec);

        // The v2 adversity clauses ride through the same `+` grammar.
        let bursty: ProcessSpec = "push+gedrop=0.1,0.25,0.5+crash=10%+repair=0.2".parse().unwrap();
        let plan = bursty.fault_plan().unwrap();
        assert_eq!(
            plan.drop,
            crate::fault::DropModel::GilbertElliott {
                p_bad: 0.1,
                p_good: 0.25,
                f_bad: 0.5,
                f_good: 0.0
            }
        );
        assert_eq!(plan.repair, Some(0.2));
        assert_eq!(bursty.to_string(), "push+gedrop=0.1,0.25,0.5+crash=10%+repair=0.2");
        assert_eq!(bursty.to_string().parse::<ProcessSpec>().unwrap(), bursty);
        assert!("push+gedrop=0.1,0.25".parse::<ProcessSpec>().is_err());
        assert!("push+repair=0.1".parse::<ProcessSpec>().is_err());

        // A zero plan still round-trips (rendered as `+drop=0`).
        let zero: ProcessSpec = "push+drop=0".parse().unwrap();
        assert!(zero.fault_plan().unwrap().is_benign());
        assert_eq!(zero.to_string().parse::<ProcessSpec>().unwrap(), zero);

        // Faulted specs build and run through the normal machinery.
        let graph = generators::complete(32).unwrap();
        let mut process = spec.build(&graph).unwrap();
        let mut r = ChaCha12Rng::seed_from_u64(3);
        assert!(run_until_complete(process.as_mut(), &mut r, 100_000).is_some());

        // with_start reaches through the wrapper; churn specs refuse to build on a fixed
        // graph but strip down for the segment driver.
        let moved = spec.clone().with_start(7);
        assert_eq!(moved.start(), 7);
        let churny: ProcessSpec = "cobra:k=2+churn=64".parse().unwrap();
        assert!(churny.build(&graph).is_err());
        assert_eq!(churny.clone().without_churn(), ProcessSpec::cobra(2).unwrap());
        assert_eq!(churny.fault_plan().unwrap().churn, Some(64));

        // Malformed fault clauses are rejected loudly.
        assert!("cobra:k=2+drop=1.5".parse::<ProcessSpec>().is_err());
        assert!("cobra:k=2+frob=1".parse::<ProcessSpec>().is_err());
        assert!("cobra:k=2+drop=0.1+drop=0.2".parse::<ProcessSpec>().is_err());

        // Defense clauses ride through the same grammar, compose with adversaries, and
        // canonicalize after the adv= clause.
        let defended: ProcessSpec =
            "cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4".parse().unwrap();
        let plan = defended.fault_plan().unwrap();
        assert_eq!(plan.defense, Some(crate::defense::DefenseSpec::BoostK { window: 8, cap: 4 }));
        assert_eq!(
            defended.to_string(),
            "cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4"
        );
        assert_eq!(defended.to_string().parse::<ProcessSpec>().unwrap(), defended);
        let reordered: ProcessSpec =
            "cobra:k=2+def=boostk:trigger=stall,w=8,cap=4+adv=topdeg:budget=5%".parse().unwrap();
        assert_eq!(reordered, defended);
        let graph = generators::complete(32).unwrap();
        let mut defended_process = defended.build(&graph).unwrap();
        let mut r = ChaCha12Rng::seed_from_u64(5);
        assert!(run_until_complete(defended_process.as_mut(), &mut r, 100_000).is_some());
        assert!("cobra:k=2+def=passive+def=passive".parse::<ProcessSpec>().is_err());
    }

    #[test]
    fn build_propagates_validation_errors() {
        let graph = generators::complete(4).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap().with_start(9);
        assert!(matches!(spec.build(&graph), Err(CoreError::VertexOutOfRange { .. })));
        let empty = cobra_graph::Graph::default();
        assert!(ProcessSpec::push().build(&empty).is_err());
    }
}
