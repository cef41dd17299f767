//! The experiment registry: run experiments by identifier with either preset.

use cobra_stats::rng::SeedSequence;

use crate::result::ExperimentResult;
use crate::{
    exp_adversary, exp_baselines, exp_branching, exp_cover, exp_defense, exp_duality, exp_faults,
    exp_gap, exp_growth, exp_hetero, exp_infection, exp_phases,
};

/// Identifiers of the experiments, matching the per-experiment index in `DESIGN.md`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Theorem 1: cover time on expanders.
    E1,
    /// Theorem 1: gap dependence.
    E2,
    /// Theorem 2: infection time.
    E3,
    /// Theorem 4: duality.
    E4,
    /// Lemma 1 / Corollary 1: growth bound.
    E5,
    /// Theorem 3: fractional branching.
    E6,
    /// Dutta et al. context and baselines.
    E7,
    /// Lemmas 2–4: phase structure.
    E8,
    /// Robustness: fault injection (drop / crash / churn).
    E9,
    /// Adversity v2: bursty (Gilbert-Elliott) drop and transient crash/repair.
    E9b,
    /// Adaptive adversity: state-aware fault policies vs matched-budget oblivious rows.
    E10,
    /// Defense policies: recovery from the adaptive adversary and the lethality boundary.
    E11,
    /// Heterogeneous networks: power-law topology, per-edge channels, degree budgets.
    E12,
}

impl ExperimentId {
    /// All experiments in index order.
    pub fn all() -> [ExperimentId; 13] {
        [
            ExperimentId::E1,
            ExperimentId::E2,
            ExperimentId::E3,
            ExperimentId::E4,
            ExperimentId::E5,
            ExperimentId::E6,
            ExperimentId::E7,
            ExperimentId::E8,
            ExperimentId::E9,
            ExperimentId::E9b,
            ExperimentId::E10,
            ExperimentId::E11,
            ExperimentId::E12,
        ]
    }

    /// Parses an identifier like `"e3"` / `"E3"`.
    pub fn parse(text: &str) -> Option<Self> {
        match text.to_ascii_lowercase().as_str() {
            "e1" => Some(ExperimentId::E1),
            "e2" => Some(ExperimentId::E2),
            "e3" => Some(ExperimentId::E3),
            "e4" => Some(ExperimentId::E4),
            "e5" => Some(ExperimentId::E5),
            "e6" => Some(ExperimentId::E6),
            "e7" => Some(ExperimentId::E7),
            "e8" => Some(ExperimentId::E8),
            "e9" => Some(ExperimentId::E9),
            "e9b" => Some(ExperimentId::E9b),
            "e10" => Some(ExperimentId::E10),
            "e11" => Some(ExperimentId::E11),
            "e12" => Some(ExperimentId::E12),
            _ => None,
        }
    }

    /// Short description used by `repro --list`.
    pub fn description(&self) -> &'static str {
        match self {
            ExperimentId::E1 => "Theorem 1: COBRA cover time on expanders is O(log n)",
            ExperimentId::E2 => "Theorem 1: cover time versus spectral gap",
            ExperimentId::E3 => "Theorem 2: BIPS infection time matches the cover time",
            ExperimentId::E4 => "Theorem 4: exact COBRA/BIPS duality",
            ExperimentId::E5 => "Lemma 1 / Corollary 1: one-step growth bound",
            ExperimentId::E6 => "Theorem 3: fractional branching factors 1+rho",
            ExperimentId::E7 => "Dutta et al.: grids vs expanders, protocol baselines",
            ExperimentId::E8 => "Lemmas 2-4: three-phase growth of the infection",
            ExperimentId::E9 => "Robustness: cover time under message drop, crash and churn",
            ExperimentId::E9b => {
                "Adversity v2: bursty Gilbert-Elliott drop and transient crash/repair"
            }
            ExperimentId::E10 => {
                "Adaptive adversity: frontier-aware crash/drop/partition policies vs \
                 matched-budget oblivious faults"
            }
            ExperimentId::E11 => {
                "Defense policies: recovery from the adaptive adversary and the \
                 budget x rate lethality boundary"
            }
            ExperimentId::E12 => {
                "Heterogeneous networks: power-law (Chung-Lu) topology, per-edge \
                 Gilbert-Elliott channels and degree-proportional budgets"
            }
        }
    }
}

/// Which preset of each experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// Small instances, few trials — seconds per experiment.
    Quick,
    /// The full sweeps behind the numbers PAPER.md quotes — minutes per experiment.
    Full,
}

/// Runs one experiment with the given preset and master seed.
pub fn run_experiment(id: ExperimentId, preset: Preset, seed: u64) -> ExperimentResult {
    let seq = SeedSequence::new(seed);
    match (id, preset) {
        (ExperimentId::E1, Preset::Quick) => exp_cover::run(&exp_cover::Config::quick(), &seq),
        (ExperimentId::E1, Preset::Full) => exp_cover::run(&exp_cover::Config::full(), &seq),
        (ExperimentId::E2, Preset::Quick) => exp_gap::run(&exp_gap::Config::quick(), &seq),
        (ExperimentId::E2, Preset::Full) => exp_gap::run(&exp_gap::Config::full(), &seq),
        (ExperimentId::E3, Preset::Quick) => {
            exp_infection::run(&exp_infection::Config::quick(), &seq)
        }
        (ExperimentId::E3, Preset::Full) => {
            exp_infection::run(&exp_infection::Config::full(), &seq)
        }
        (ExperimentId::E4, Preset::Quick) => exp_duality::run(&exp_duality::Config::quick(), &seq),
        (ExperimentId::E4, Preset::Full) => exp_duality::run(&exp_duality::Config::full(), &seq),
        (ExperimentId::E5, Preset::Quick) => exp_growth::run(&exp_growth::Config::quick(), &seq),
        (ExperimentId::E5, Preset::Full) => exp_growth::run(&exp_growth::Config::full(), &seq),
        (ExperimentId::E6, Preset::Quick) => {
            exp_branching::run(&exp_branching::Config::quick(), &seq)
        }
        (ExperimentId::E6, Preset::Full) => {
            exp_branching::run(&exp_branching::Config::full(), &seq)
        }
        (ExperimentId::E7, Preset::Quick) => {
            exp_baselines::run(&exp_baselines::Config::quick(), &seq)
        }
        (ExperimentId::E7, Preset::Full) => {
            exp_baselines::run(&exp_baselines::Config::full(), &seq)
        }
        (ExperimentId::E8, Preset::Quick) => exp_phases::run(&exp_phases::Config::quick(), &seq),
        (ExperimentId::E8, Preset::Full) => exp_phases::run(&exp_phases::Config::full(), &seq),
        (ExperimentId::E9, Preset::Quick) => exp_faults::run(&exp_faults::Config::quick(), &seq),
        (ExperimentId::E9, Preset::Full) => exp_faults::run(&exp_faults::Config::full(), &seq),
        (ExperimentId::E9b, Preset::Quick) => {
            exp_faults::run_bursty(&exp_faults::BurstyConfig::quick(), &seq)
        }
        (ExperimentId::E9b, Preset::Full) => {
            exp_faults::run_bursty(&exp_faults::BurstyConfig::full(), &seq)
        }
        (ExperimentId::E10, Preset::Quick) => {
            exp_adversary::run(&exp_adversary::Config::quick(), &seq)
        }
        (ExperimentId::E10, Preset::Full) => {
            exp_adversary::run(&exp_adversary::Config::full(), &seq)
        }
        (ExperimentId::E11, Preset::Quick) => exp_defense::run(&exp_defense::Config::quick(), &seq),
        (ExperimentId::E11, Preset::Full) => exp_defense::run(&exp_defense::Config::full(), &seq),
        (ExperimentId::E12, Preset::Quick) => exp_hetero::run(&exp_hetero::Config::quick(), &seq),
        (ExperimentId::E12, Preset::Full) => exp_hetero::run(&exp_hetero::Config::full(), &seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_parse_and_describe() {
        assert_eq!(ExperimentId::parse("e4"), Some(ExperimentId::E4));
        assert_eq!(ExperimentId::parse("E8"), Some(ExperimentId::E8));
        assert_eq!(ExperimentId::parse("e9"), Some(ExperimentId::E9));
        assert_eq!(ExperimentId::parse("e9b"), Some(ExperimentId::E9b));
        assert_eq!(ExperimentId::parse("E9B"), Some(ExperimentId::E9b));
        assert_eq!(ExperimentId::parse("e10"), Some(ExperimentId::E10));
        assert_eq!(ExperimentId::parse("E10"), Some(ExperimentId::E10));
        assert_eq!(ExperimentId::parse("e11"), Some(ExperimentId::E11));
        assert_eq!(ExperimentId::parse("E11"), Some(ExperimentId::E11));
        assert_eq!(ExperimentId::parse("e12"), Some(ExperimentId::E12));
        assert_eq!(ExperimentId::parse("E12"), Some(ExperimentId::E12));
        assert_eq!(ExperimentId::parse("e13"), None);
        assert_eq!(ExperimentId::all().len(), 13);
        for id in ExperimentId::all() {
            assert!(!id.description().is_empty());
        }
    }

    #[test]
    fn registry_runs_a_quick_experiment() {
        let result = run_experiment(ExperimentId::E6, Preset::Quick, 5);
        assert_eq!(result.id, "E6");
        assert!(!result.tables.is_empty());
    }
}
