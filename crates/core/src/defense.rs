//! Defense policies: the recovery mirror of the [`adversary`](crate::adversary) engine.
//!
//! An adversary watches a running process and *injects* faults; a defense watches the same
//! [`ProcessView`] and *spends* recovery levers. The symmetry is deliberate: both are
//! two-phase (`observe` first, then the engine collects the decision), both see only the
//! read-only view, and both compose through the `+` fault-clause grammar of
//! [`ProcessSpec`](crate::spec::ProcessSpec). The levers a defense may pull, bundled in
//! [`DefenseActions`]:
//!
//! * a **per-round branching multiplier** — each process multiplies its per-token fan-out
//!   (`k`) by this factor via
//!   [`SpreadingProcess::set_branching_boost`](crate::process::SpreadingProcess::set_branching_boost);
//!   the cost is accounted as *extra transmissions spent* in [`DefenseStats`],
//! * a **re-seed set** — already-covered vertices to re-activate via
//!   [`SpreadingProcess::reseed`](crate::process::SpreadingProcess::reseed) when the live
//!   frontier has died,
//! * a **transmission backoff** — rounds in which the defense mutes its own process
//!   (composed as a unit drop), the cooperative cousin of a crash fault.
//!
//! Four policies ship behind the `def=` spec clause; the documented examples are
//! executable and round-trip through the parser:
//!
//! ```
//! use cobra_core::spec::ProcessSpec;
//!
//! for text in [
//!     "cobra:k=2+def=passive",
//!     "cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4",
//!     "bips:k=2+def=reseed:m=1%,cooldown=16",
//!     "push+drop=0.2+def=adaptivek:target=growth-ratio",
//! ] {
//!     let spec: ProcessSpec = text.parse().expect(text);
//!     assert_eq!(spec.to_string(), text, "Display must round-trip the documented syntax");
//!     assert_eq!(spec.to_string().parse::<ProcessSpec>().unwrap(), spec);
//! }
//! ```
//!
//! `passive` is the bit-identity baseline: a defended spec whose policy never acts calls
//! **no** process hooks and draws **no** RNG words, so `cobra:k=2+def=passive` replays the
//! exact trajectory of `cobra:k=2` (property-tested in `tests/adversary_equivalence.rs`).
//! `boostk` is AIMD control on `k`: when the coverage delta over a `w`-round window stalls
//! it doubles the multiplier (capped), and decays it additively once growth resumes —
//! stall-triggered boosting restores the expansion slack Theorem 1's argument needs.
//! `reseed` re-activates up to `m` covered vertices adjacent to the uncovered region, but
//! only when the frontier has died entirely, then waits out a cooldown. `adaptivek`
//! servo-controls the multiplier toward the growth-ratio closed form of Lemma 1 (see
//! [`growth`](crate::growth)).
//!
//! # Architecture
//!
//! [`ProcessSpec::build`](crate::spec::ProcessSpec::build) runs every plan through the
//! one environment wrapper, [`FaultedProcess`](crate::fault::FaultedProcess), which holds
//! the policy [`DefenseSpec::build_policy`] returns together with its [`DefenseStats`]
//! ledger. The defense acts first each round: the policy observes, the wrapper applies any
//! re-seed and branching boost, and only then does the adversary observe and the inner
//! process step — so an adaptive adversary sees the *post-recovery* state and the arms
//! race is fair. [`FaultedProcess::stats`](crate::fault::FaultedProcess::stats) reads the
//! ledger after a run.

use std::fmt;
use std::str::FromStr;

use cobra_graph::{VertexBitset, VertexId};
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::adversary::{AdversaryBudget, ProcessView};
use crate::{CoreError, Result};

/// The recovery levers a [`DefensePolicy`] pulls for one round.
///
/// The inert value (`k_multiplier == 1`, empty re-seed set, no backoff) is a guarantee,
/// not a hint: [`FaultedProcess`](crate::fault::FaultedProcess) makes **zero** process-hook
/// calls for it, so an inert policy is bit-identical to no defense at all.
#[derive(Debug, Clone, Copy)]
pub struct DefenseActions<'a> {
    /// Factor each process multiplies its per-token branching (`k`) by this round.
    /// `1` means "leave `k` alone"; values are clamped to at least 1.
    pub k_multiplier: u32,
    /// Already-covered vertices to re-activate before the round steps.
    pub reseed: &'a [VertexId],
    /// When positive, the defense mutes its own transmissions this round (a unit drop) —
    /// backoff to let a cooldown or repair window pass.
    pub backoff: usize,
}

impl DefenseActions<'_> {
    /// The do-nothing decision.
    pub const INERT: DefenseActions<'static> =
        DefenseActions { k_multiplier: 1, reseed: &[], backoff: 0 };

    /// Whether this decision touches the process at all.
    pub fn is_inert(&self) -> bool {
        self.k_multiplier <= 1 && self.reseed.is_empty() && self.backoff == 0
    }
}

/// An adaptive defense: observes the (possibly adversarial) process each round, then hands
/// the engine its recovery decision. Mirrors
/// [`AdversaryPolicy`](crate::adversary::AdversaryPolicy) exactly — same two-phase shape,
/// same read-only [`ProcessView`].
pub trait DefensePolicy: fmt::Debug + Send {
    /// Observes the pre-round state. Called exactly once per round, before the process
    /// steps and before [`actions`](DefensePolicy::actions).
    fn observe(&mut self, view: &ProcessView<'_>, rng: &mut dyn RngCore);

    /// The decision for the upcoming round, borrowed from the policy's own storage.
    fn actions(&self) -> DefenseActions<'_>;

    /// Clears all adaptive state for a fresh trial.
    fn reset(&mut self);
}

/// Cost ledger of a defended [`FaultedProcess`](crate::fault::FaultedProcess): what the
/// defense *spent*, so experiments can report recovery at matched cost.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DefenseStats {
    /// Rounds in which a branching multiplier above 1 was in force.
    pub boost_rounds: usize,
    /// Expected extra transmissions the boosts cost, summed over boosted rounds (each
    /// process reports its own per-round figure from
    /// [`set_branching_boost`](crate::process::SpreadingProcess::set_branching_boost)).
    pub extra_transmissions: f64,
    /// How many times a non-empty re-seed set was applied.
    pub reseed_events: usize,
    /// Total vertices actually re-activated across those events.
    pub reseeded_vertices: usize,
    /// Rounds muted by a backoff request.
    pub backoff_rounds: usize,
}

/// The `def=passive` no-op: observes nothing, spends nothing. Exists so a defended spec
/// can serve as the bit-identity control arm of every defense experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassivePolicy;

impl DefensePolicy for PassivePolicy {
    // cobra-lint: hot
    // cobra-lint: draws(0)
    fn observe(&mut self, _view: &ProcessView<'_>, _rng: &mut dyn RngCore) {}

    fn actions(&self) -> DefenseActions<'_> {
        DefenseActions::INERT
    }

    fn reset(&mut self) {}
}

/// The `def=boostk` AIMD controller: multiplicative increase of the branching multiplier
/// when coverage growth stalls for `window` consecutive rounds, additive decrease the
/// moment growth resumes (classic AIMD, with the roles of "congestion" and "idle link"
/// swapped — here *stall* is the congestion signal).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoostKPolicy {
    window: usize,
    cap: u32,
    multiplier: u32,
    best_coverage: usize,
    stalled_rounds: usize,
}

impl BoostKPolicy {
    /// A controller that arms after `window` stalled rounds and never exceeds `cap`.
    pub fn new(window: usize, cap: u32) -> Self {
        BoostKPolicy { window, cap, multiplier: 1, best_coverage: 0, stalled_rounds: 0 }
    }

    /// The multiplier currently in force (1 when idle).
    pub fn multiplier(&self) -> u32 {
        self.multiplier
    }

    /// The stall metric: monotone coverage when the process tracks one, the live frontier
    /// size otherwise (the only signal a memoryless process exposes).
    fn coverage_metric(view: &ProcessView<'_>) -> usize {
        view.coverage().map_or_else(|| view.num_active(), VertexBitset::count)
    }
}

impl DefensePolicy for BoostKPolicy {
    // cobra-lint: hot
    // cobra-lint: draws(0)
    fn observe(&mut self, view: &ProcessView<'_>, _rng: &mut dyn RngCore) {
        if view.is_complete() {
            self.multiplier = 1;
            self.stalled_rounds = 0;
            return;
        }
        let covered = Self::coverage_metric(view);
        if covered > self.best_coverage {
            // Growth resumed: remember the new high-water mark, decay additively.
            self.best_coverage = covered;
            self.stalled_rounds = 0;
            self.multiplier = self.multiplier.saturating_sub(1).max(1);
        } else {
            self.stalled_rounds += 1;
            if self.stalled_rounds >= self.window {
                // A full window without a new coverage high: escalate multiplicatively.
                self.multiplier = (self.multiplier.saturating_mul(2)).min(self.cap);
                self.stalled_rounds = 0;
            }
        }
    }

    fn actions(&self) -> DefenseActions<'_> {
        DefenseActions { k_multiplier: self.multiplier, reseed: &[], backoff: 0 }
    }

    fn reset(&mut self) {
        self.multiplier = 1;
        self.best_coverage = 0;
        self.stalled_rounds = 0;
    }
}

/// The `def=reseed` reviver: when the live frontier has died *entirely* (and the process
/// is not complete), re-activates up to `m` already-covered vertices that still border the
/// uncovered region, then sleeps for `cooldown` rounds.
///
/// Candidates are scanned in ascending vertex order from a wrapping cursor, so repeated
/// firings rotate through the boundary instead of re-picking the same (possibly crashed)
/// vertices. The policy only acts on processes that expose a monotone coverage set; a
/// memoryless process has no "covered but inactive" boundary to re-seed.
#[derive(Debug, Clone, PartialEq)]
pub struct ReseedPolicy {
    m: AdversaryBudget,
    cooldown: usize,
    cooldown_left: usize,
    cursor: VertexId,
    targets: Vec<VertexId>,
}

impl ReseedPolicy {
    /// A reviver with budget `m` (resolved against `n` at fire time) and `cooldown`
    /// rounds of sleep after each firing.
    pub fn new(m: AdversaryBudget, cooldown: usize) -> Self {
        ReseedPolicy { m, cooldown, cooldown_left: 0, cursor: 0, targets: Vec::new() }
    }
}

impl DefensePolicy for ReseedPolicy {
    // cobra-lint: hot
    // cobra-lint: draws(0)
    fn observe(&mut self, view: &ProcessView<'_>, _rng: &mut dyn RngCore) {
        self.targets.clear();
        if self.cooldown_left > 0 {
            self.cooldown_left -= 1;
            return;
        }
        // Fire only on total frontier death — the one failure boosting cannot fix.
        if view.num_active() > 0 || view.is_complete() {
            return;
        }
        let Some(covered) = view.coverage() else { return };
        let n = view.num_vertices();
        let quota = self.m.resolve(n);
        if quota == 0 {
            return;
        }
        let graph = view.graph();
        let start = if self.cursor < n { self.cursor } else { 0 };
        let mut v = start;
        for _ in 0..n {
            if self.targets.len() >= quota {
                break;
            }
            if covered.contains(v) && graph.neighbor_iter(v).any(|u| !covered.contains(u)) {
                self.targets.push(v);
            }
            v += 1;
            if v >= n {
                v = 0;
            }
        }
        if let Some(&last) = self.targets.last() {
            self.cursor = (last + 1) % n;
            self.cooldown_left = self.cooldown;
        }
    }

    fn actions(&self) -> DefenseActions<'_> {
        DefenseActions { k_multiplier: 1, reseed: &self.targets, backoff: 0 }
    }

    fn reset(&mut self) {
        self.cooldown_left = 0;
        self.cursor = 0;
        self.targets.clear();
    }
}

/// Ceiling for the `adaptivek` servo — generous headroom without letting a mis-tuned
/// estimate blow the transmission budget up unboundedly.
const ADAPTIVE_K_CAP: u32 = 8;

/// The `def=adaptivek` servo: steers the branching multiplier so the observed per-round
/// coverage growth tracks the growth-ratio closed form
/// `|A|·(1 + (1−λ²)(1−|A|/n))` of Lemma 1 (see [`growth`](crate::growth)).
///
/// The spectral slack `1−λ²` is not observable at run time, so the policy keeps an online
/// estimate: each round's realised ratio implies a slack `(ratio − 1)/(1 − |A|/n)`, folded
/// into an exponential moving average. When the realised ratio falls below the target the
/// estimate implies, the multiplier steps up (capped); when growth meets the target it
/// steps back down — a deadbeat servo with unit steps.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveKPolicy {
    multiplier: u32,
    prev_coverage: usize,
    slack_estimate: f64,
}

impl AdaptiveKPolicy {
    /// A fresh servo (multiplier 1, no slack estimate yet).
    pub fn new() -> Self {
        AdaptiveKPolicy { multiplier: 1, prev_coverage: 0, slack_estimate: 0.0 }
    }

    /// The multiplier currently in force.
    pub fn multiplier(&self) -> u32 {
        self.multiplier
    }
}

impl Default for AdaptiveKPolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl DefensePolicy for AdaptiveKPolicy {
    // cobra-lint: hot
    // cobra-lint: draws(0)
    fn observe(&mut self, view: &ProcessView<'_>, _rng: &mut dyn RngCore) {
        let covered = view.coverage().map_or_else(|| view.num_active(), VertexBitset::count);
        if view.is_complete() || covered == 0 {
            self.multiplier = 1;
            self.prev_coverage = covered;
            return;
        }
        let n = view.num_vertices() as f64;
        if self.prev_coverage > 0 {
            let prev = self.prev_coverage as f64;
            let headroom = 1.0 - prev / n;
            if headroom > 0.0 {
                let ratio = covered as f64 / prev;
                let implied = ((ratio - 1.0) / headroom).clamp(0.0, 1.0);
                // EMA so early explosive growth does not pin the target unreachably high.
                self.slack_estimate = 0.9 * self.slack_estimate + 0.1 * implied;
                let target = 1.0 + self.slack_estimate * headroom;
                if ratio + 1e-9 < target {
                    self.multiplier = (self.multiplier + 1).min(ADAPTIVE_K_CAP);
                } else {
                    self.multiplier = self.multiplier.saturating_sub(1).max(1);
                }
            }
        }
        self.prev_coverage = covered;
    }

    fn actions(&self) -> DefenseActions<'_> {
        DefenseActions { k_multiplier: self.multiplier, reseed: &[], backoff: 0 }
    }

    fn reset(&mut self) {
        self.multiplier = 1;
        self.prev_coverage = 0;
        self.slack_estimate = 0.0;
    }
}

/// A serializable description of a defense policy, attached to a
/// [`FaultPlan`](crate::fault::FaultPlan) with a `def=` clause.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DefenseSpec {
    /// `def=passive` — the no-op bit-identity baseline.
    Passive,
    /// `def=boostk:trigger=stall,w=8,cap=4` — AIMD branching boost on coverage stall.
    BoostK {
        /// Consecutive stalled rounds before the multiplier escalates.
        window: usize,
        /// Ceiling for the multiplier.
        cap: u32,
    },
    /// `def=reseed:m=1%,cooldown=16` — frontier-death revival from the coverage boundary.
    Reseed {
        /// How many vertices each firing may re-activate.
        m: AdversaryBudget,
        /// Rounds to sleep after a firing.
        cooldown: usize,
    },
    /// `def=adaptivek:target=growth-ratio` — servo toward the growth-ratio closed form.
    AdaptiveK,
}

impl DefenseSpec {
    /// Validates the parameters.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] for a zero stall window, a boost cap
    /// below 2 (a cap of 1 can never boost), or an out-of-range re-seed budget.
    pub fn validate(&self) -> Result<()> {
        match self {
            DefenseSpec::Passive | DefenseSpec::AdaptiveK => Ok(()),
            DefenseSpec::BoostK { window, cap } => {
                if *window == 0 {
                    return Err(CoreError::InvalidParameters {
                        reason: "def=boostk stall window w must be at least 1 round".to_string(),
                    });
                }
                if *cap < 2 {
                    return Err(CoreError::InvalidParameters {
                        reason: format!("def=boostk cap {cap} can never boost; need cap >= 2"),
                    });
                }
                Ok(())
            }
            DefenseSpec::Reseed { m, cooldown: _ } => m.validate(),
        }
    }

    /// Instantiates the policy this spec describes.
    ///
    /// # Errors
    ///
    /// Propagates [`validate`](DefenseSpec::validate) failures.
    pub fn build_policy(&self) -> Result<Box<dyn DefensePolicy>> {
        self.validate()?;
        Ok(match self {
            DefenseSpec::Passive => Box::new(PassivePolicy),
            DefenseSpec::BoostK { window, cap } => Box::new(BoostKPolicy::new(*window, *cap)),
            DefenseSpec::Reseed { m, cooldown } => {
                Box::new(ReseedPolicy::new(m.clone(), *cooldown))
            }
            DefenseSpec::AdaptiveK => Box::new(AdaptiveKPolicy::new()),
        })
    }
}

/// Emits the canonical clause-value form (`passive`, `boostk:trigger=stall,w=8,cap=4`,
/// `reseed:m=1%,cooldown=16`, `adaptivek:target=growth-ratio`) that [`FromStr`] parses
/// back. Unlike the adversary clause, parameters are always spelled out — defense specs
/// land verbatim in experiment tables, where explicit knobs read better than defaults.
impl fmt::Display for DefenseSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DefenseSpec::Passive => write!(f, "passive"),
            DefenseSpec::BoostK { window, cap } => {
                write!(f, "boostk:trigger=stall,w={window},cap={cap}")
            }
            DefenseSpec::Reseed { m, cooldown } => write!(f, "reseed:m={m},cooldown={cooldown}"),
            DefenseSpec::AdaptiveK => write!(f, "adaptivek:target=growth-ratio"),
        }
    }
}

impl FromStr for DefenseSpec {
    type Err = CoreError;

    fn from_str(text: &str) -> Result<Self> {
        let invalid = |reason: String| CoreError::InvalidParameters { reason };
        let (name, rest) = match text.split_once(':') {
            Some((name, rest)) => (name.trim(), rest),
            None => (text.trim(), ""),
        };
        // Policy arguments are a comma-separated key=value list, like adversary clauses.
        let mut args: Vec<(String, String)> = Vec::new();
        for token in rest.split(',').filter(|t| !t.is_empty()) {
            let (key, value) = token
                .split_once('=')
                .ok_or_else(|| invalid(format!("defense argument {token:?} must be key=value")))?;
            args.push((key.trim().to_string(), value.trim().to_string()));
        }
        let mut take = |key: &str| -> Option<String> {
            let index = args.iter().position(|(k, _)| k == key)?;
            Some(args.remove(index).1)
        };
        let spec = match name.to_ascii_lowercase().as_str() {
            "passive" => DefenseSpec::Passive,
            "boostk" => {
                if let Some(trigger) = take("trigger") {
                    if trigger != "stall" {
                        return Err(invalid(format!(
                            "def=boostk trigger {trigger:?} is not supported (only \
                             trigger=stall)"
                        )));
                    }
                }
                let window = match take("w") {
                    Some(value) => value.parse().map_err(|_| {
                        invalid(format!("invalid def=boostk stall window {value:?}"))
                    })?,
                    None => 8,
                };
                let cap = match take("cap") {
                    Some(value) => value
                        .parse()
                        .map_err(|_| invalid(format!("invalid def=boostk cap {value:?}")))?,
                    None => 4,
                };
                DefenseSpec::BoostK { window, cap }
            }
            "reseed" => {
                let m = match take("m") {
                    Some(value) => AdversaryBudget::parse(&value)?,
                    None => AdversaryBudget::Percent { percent: 1.0 },
                };
                let cooldown = match take("cooldown") {
                    Some(value) => value
                        .parse()
                        .map_err(|_| invalid(format!("invalid def=reseed cooldown {value:?}")))?,
                    None => 16,
                };
                DefenseSpec::Reseed { m, cooldown }
            }
            "adaptivek" => {
                if let Some(target) = take("target") {
                    if target != "growth-ratio" {
                        return Err(invalid(format!(
                            "def=adaptivek target {target:?} is not supported (only \
                             target=growth-ratio)"
                        )));
                    }
                }
                DefenseSpec::AdaptiveK
            }
            other => {
                return Err(invalid(format!(
                    "unknown defense policy {other:?} (expected passive, boostk, reseed or \
                     adaptivek)"
                )));
            }
        };
        if let Some((key, _)) = args.first() {
            return Err(invalid(format!("unknown def={name} argument {key:?}")));
        }
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultedProcess};
    use crate::process::{run_until_complete, SpreadingProcess};
    use crate::spec::ProcessSpec;
    use cobra_graph::{generators, Graph};
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    /// `base` on `graph` under `policy` and no other adversity.
    fn defended<'g>(
        graph: &'g Graph,
        base: &ProcessSpec,
        policy: Box<dyn DefensePolicy>,
    ) -> FaultedProcess<'g> {
        FaultedProcess::new(base, &FaultPlan::default(), graph).unwrap().with_defense(policy)
    }

    fn examples() -> Vec<DefenseSpec> {
        vec![
            DefenseSpec::Passive,
            DefenseSpec::BoostK { window: 8, cap: 4 },
            DefenseSpec::BoostK { window: 3, cap: 16 },
            DefenseSpec::Reseed { m: AdversaryBudget::Percent { percent: 1.0 }, cooldown: 16 },
            DefenseSpec::Reseed { m: AdversaryBudget::Count { count: 3 }, cooldown: 0 },
            DefenseSpec::AdaptiveK,
        ]
    }

    #[test]
    fn spec_parse_and_display_round_trip() {
        for spec in examples() {
            let text = spec.to_string();
            let back: DefenseSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(spec, back, "round trip through {text:?}");
        }
        // Omitted arguments fill in the documented defaults.
        assert_eq!(
            "boostk".parse::<DefenseSpec>().unwrap(),
            DefenseSpec::BoostK { window: 8, cap: 4 }
        );
        assert_eq!(
            "boostk:w=3".parse::<DefenseSpec>().unwrap(),
            DefenseSpec::BoostK { window: 3, cap: 4 }
        );
        assert_eq!(
            "reseed".parse::<DefenseSpec>().unwrap(),
            DefenseSpec::Reseed { m: AdversaryBudget::Percent { percent: 1.0 }, cooldown: 16 }
        );
        assert_eq!("adaptivek".parse::<DefenseSpec>().unwrap(), DefenseSpec::AdaptiveK);
    }

    #[test]
    fn spec_serde_round_trip() {
        for spec in examples() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: DefenseSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(spec, back, "serde round trip through {json}");
        }
    }

    #[test]
    fn spec_parsing_rejects_junk() {
        assert!("shield".parse::<DefenseSpec>().is_err());
        assert!("passive:x=1".parse::<DefenseSpec>().is_err());
        assert!("boostk:trigger=".parse::<DefenseSpec>().is_err());
        assert!("boostk:trigger=panic".parse::<DefenseSpec>().is_err());
        assert!("boostk:w=0".parse::<DefenseSpec>().is_err());
        assert!("boostk:w=abc".parse::<DefenseSpec>().is_err());
        assert!("boostk:cap=1".parse::<DefenseSpec>().is_err());
        assert!("boostk:bogus=1".parse::<DefenseSpec>().is_err());
        assert!("reseed:m=150%".parse::<DefenseSpec>().is_err());
        assert!("reseed:m=abc".parse::<DefenseSpec>().is_err());
        assert!("reseed:cooldown=abc".parse::<DefenseSpec>().is_err());
        assert!("adaptivek:target=foo".parse::<DefenseSpec>().is_err());
        assert!("adaptivek:target=".parse::<DefenseSpec>().is_err());
    }

    #[test]
    fn passive_defense_is_bit_identical_to_bare() {
        let graph = generators::hypercube(6).unwrap();
        let base: ProcessSpec = "cobra:k=2".parse().unwrap();
        let mut bare = base.build(&graph).unwrap();
        let mut defended = defended(&graph, &base, Box::new(PassivePolicy));
        let (mut r1, mut r2) = (rng(42), rng(42));
        for round in 0..40 {
            bare.step(&mut r1);
            defended.step(&mut r2);
            assert_eq!(
                bare.active().iter().collect::<Vec<_>>(),
                defended.active().iter().collect::<Vec<_>>(),
                "round {round}: passive defense must not perturb the trajectory"
            );
        }
        assert_eq!(defended.stats(), DefenseStats::default());
    }

    #[test]
    fn boostk_escalates_on_stall_and_decays_on_growth() {
        let graph = generators::complete(16).unwrap();
        let base: ProcessSpec = "cobra:k=2".parse().unwrap();
        let process = base.build(&graph).unwrap();
        let mut policy = BoostKPolicy::new(3, 8);
        let mut r = rng(1);
        let view = ProcessView::new(process.as_ref(), &graph);
        // Round 1 records the first high-water mark (coverage 1 > 0); no stall yet.
        policy.observe(&view, &mut r);
        assert_eq!(policy.multiplier(), 1);
        // Freeze the process: every further observation sees the same coverage, so after
        // each full window the multiplier doubles, capped.
        for _ in 0..3 {
            policy.observe(&view, &mut r);
        }
        assert_eq!(policy.multiplier(), 2);
        for _ in 0..3 {
            policy.observe(&view, &mut r);
        }
        assert_eq!(policy.multiplier(), 4);
        for _ in 0..6 {
            policy.observe(&view, &mut r);
        }
        assert_eq!(policy.multiplier(), 8, "cap binds");
        // Growth resumes: additive decay, one step per improving round.
        let mut grown = base.build(&graph).unwrap();
        grown.step(&mut rng(2));
        let grown_view = ProcessView::new(grown.as_ref(), &graph);
        policy.observe(&grown_view, &mut r);
        assert_eq!(policy.multiplier(), 7);
        policy.reset();
        assert_eq!(policy.multiplier(), 1);
    }

    #[test]
    fn reseed_fires_only_on_frontier_death_and_rotates_through_the_boundary() {
        let graph = generators::cycle(8).unwrap();
        let base: ProcessSpec = "cobra:k=2".parse().unwrap();
        let mut process = base.build(&graph).unwrap();
        let mut policy = ReseedPolicy::new(AdversaryBudget::Count { count: 1 }, 2);
        let mut r = rng(5);
        // A live frontier never triggers the policy.
        policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        assert!(policy.actions().is_inert());
        // Kill the frontier with partial coverage {0, 1, 2}: the boundary candidates are
        // 0 (uncovered neighbour 7) and 2 (uncovered neighbour 3); 1 is interior.
        let mut covered = VertexBitset::new(8);
        for v in [0, 1, 2] {
            covered.insert(v);
        }
        process.adopt_state(&[], Some(&covered), 0).unwrap();
        policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        assert_eq!(policy.actions().reseed, &[0]);
        // The cooldown mutes the next firings even though the frontier is still dead.
        policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        assert!(policy.actions().is_inert());
        policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        assert!(policy.actions().is_inert());
        // Cooldown over: the cursor has rotated past 0, so the other boundary vertex is
        // picked instead of hammering the same one.
        policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        assert_eq!(policy.actions().reseed, &[2]);
    }

    #[test]
    fn adaptivek_boosts_when_growth_lags_and_resets_on_completion() {
        let graph = generators::complete(16).unwrap();
        let base: ProcessSpec = "cobra:k=2".parse().unwrap();
        let mut process = base.build(&graph).unwrap();
        let mut policy = AdaptiveKPolicy::new();
        let mut r = rng(9);
        // Grow once so the servo has a ratio to learn from, then freeze the process: the
        // realised ratio collapses to 1 while headroom remains, so the multiplier climbs.
        policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        process.step(&mut rng(3));
        policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        for _ in 0..12 {
            policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        }
        assert!(policy.multiplier() > 1, "a stalled run must pull the servo up");
        assert!(policy.multiplier() <= ADAPTIVE_K_CAP);
        // Completion releases the boost entirely.
        run_until_complete(process.as_mut(), &mut rng(4), 10_000).unwrap();
        policy.observe(&ProcessView::new(process.as_ref(), &graph), &mut r);
        assert_eq!(policy.multiplier(), 1);
    }

    #[test]
    fn defended_process_revives_a_dead_frontier_and_accounts_the_cost() {
        let graph = generators::complete(16).unwrap();
        let base: ProcessSpec = "cobra:k=2".parse().unwrap();
        let mut covered = VertexBitset::new(16);
        for v in 0..8 {
            covered.insert(v);
        }
        let policy = Box::new(ReseedPolicy::new(AdversaryBudget::Count { count: 2 }, 4));
        let mut defended = defended(&graph, &base, policy);
        defended.adopt_state(&[], Some(&covered), 0).unwrap();
        assert_eq!(defended.num_active(), 0, "the frontier starts dead");
        let rounds = run_until_complete(&mut defended, &mut rng(11), 10_000);
        assert!(rounds.is_some(), "re-seeding must revive the dead run to completion");
        let stats = defended.stats();
        assert!(stats.reseed_events >= 1);
        assert!(stats.reseeded_vertices >= 1);
        assert_eq!(stats.boost_rounds, 0, "reseed never touches the branching lever");
    }

    /// Test-local policy exercising the constant-boost and backoff levers directly.
    #[derive(Debug)]
    struct FixedActions {
        multiplier: u32,
        backoff: usize,
    }

    impl DefensePolicy for FixedActions {
        fn observe(&mut self, _view: &ProcessView<'_>, _rng: &mut dyn RngCore) {}

        fn actions(&self) -> DefenseActions<'_> {
            DefenseActions { k_multiplier: self.multiplier, reseed: &[], backoff: self.backoff }
        }

        fn reset(&mut self) {}
    }

    #[test]
    fn constant_boost_is_charged_every_round() {
        let graph = generators::complete(16).unwrap();
        let base: ProcessSpec = "cobra:k=2".parse().unwrap();
        let policy = Box::new(FixedActions { multiplier: 3, backoff: 0 });
        let mut defended = defended(&graph, &base, policy);
        let mut r = rng(13);
        for _ in 0..5 {
            defended.step(&mut r);
        }
        let stats = defended.stats();
        assert_eq!(stats.boost_rounds, 5);
        assert!(stats.extra_transmissions > 0.0, "a forced 3x boost costs transmissions");
    }

    #[test]
    fn backoff_mutes_the_processes_own_transmissions() {
        let graph = generators::complete(16).unwrap();
        let base: ProcessSpec = "push".parse().unwrap();
        let policy = Box::new(FixedActions { multiplier: 1, backoff: 1 });
        let mut defended = defended(&graph, &base, policy);
        let mut r = rng(17);
        for _ in 0..10 {
            defended.step(&mut r);
        }
        assert_eq!(defended.num_active(), 1, "a permanently backed-off PUSH never spreads");
        assert_eq!(defended.stats().backoff_rounds, 10);
    }

    #[test]
    fn reset_clears_policy_state_and_the_cost_ledger() {
        let graph = generators::complete(16).unwrap();
        let base: ProcessSpec = "cobra:k=2".parse().unwrap();
        let policy = Box::new(FixedActions { multiplier: 3, backoff: 0 });
        let mut defended = defended(&graph, &base, policy);
        let mut r = rng(19);
        for _ in 0..3 {
            defended.step(&mut r);
        }
        assert!(defended.stats().boost_rounds > 0);
        defended.reset();
        assert_eq!(defended.stats(), DefenseStats::default());
        assert_eq!(defended.round(), 0);
        assert_eq!(defended.num_active(), 1);
    }
}
