//! E1 — Theorem 1: COBRA with `k = 2` covers regular expanders in `O(log n)` rounds,
//! independently of the degree `r ∈ [3, n-1]`.
//!
//! Workload: random `r`-regular graphs for several degrees, the complete graph and the
//! hypercube, over a sweep of sizes. For every instance we measure the COBRA cover time over
//! many trials and report it next to `ln n` and the paper's budget `ln n / (1-λ)³`. The
//! headline findings are the slope of a `cover ≈ a + b·ln n` fit (the claim is that such a fit
//! is good, i.e. the growth is logarithmic) and the spread of the normalised ratio
//! `cover / ln n` across degrees (the claim is that the degree barely matters).

use cobra_core::sim::Runner;
use cobra_core::spec::ProcessSpec;
use cobra_graph::generators::GraphFamily;
use cobra_stats::parallel::TrialConfig;
use cobra_stats::regression::log_fit;
use cobra_stats::rng::SeedSequence;
use cobra_stats::summary::quantile;
use cobra_stats::table::{fmt_float, Table};

use crate::driver;
use crate::instances::Instance;
use crate::result::{ExperimentResult, Finding};

/// Configuration of the E1 sweep.
#[derive(Debug, Clone)]
pub struct Config {
    /// Vertex counts for the random-regular sweep.
    pub sizes: Vec<usize>,
    /// Degrees of the random-regular instances.
    pub degrees: Vec<usize>,
    /// Whether to include the complete graph and hypercube of comparable sizes.
    pub include_dense_families: bool,
    /// Monte-Carlo trials per instance.
    pub trials: usize,
    /// Round budget per trial.
    pub max_rounds: usize,
}

impl Config {
    /// Small preset used by unit tests and CI's smoke runs.
    pub fn quick() -> Self {
        Config {
            sizes: vec![64, 128, 256],
            degrees: vec![3, 8],
            include_dense_families: false,
            trials: 10,
            max_rounds: 100_000,
        }
    }

    /// Full preset used by the `repro` binary.
    ///
    /// The sweep tops out at 16384 vertices because every instance also runs a spectral
    /// analysis; the frontier engine itself is benchmarked on 10⁵- and 10⁶-vertex instances
    /// by perfbench (`BENCHMARK.json`), which skips the eigenvalue computation.
    pub fn full() -> Self {
        Config {
            sizes: vec![128, 256, 512, 1024, 2048, 4096, 8192, 16384],
            degrees: vec![3, 4, 8, 16],
            include_dense_families: true,
            trials: 50,
            max_rounds: 1_000_000,
        }
    }

    fn families(&self) -> Vec<GraphFamily> {
        let mut families = Vec::new();
        for &n in &self.sizes {
            for &r in &self.degrees {
                if r < n && n * r % 2 == 0 {
                    families.push(GraphFamily::RandomRegular { n, r });
                }
            }
            if self.include_dense_families {
                // K_n storage is Θ(n²); cap it so the large sparse sweep sizes don't drag in
                // multi-gigabyte complete graphs.
                if n <= 8192 {
                    families.push(GraphFamily::Complete { n });
                }
                let dim = (n as f64).log2().round() as u32;
                if 1usize << dim == n {
                    families.push(GraphFamily::Hypercube { dim });
                }
            }
        }
        families
    }
}

/// Runs E1 and produces its table and findings.
pub fn run(config: &Config, seq: &SeedSequence) -> ExperimentResult {
    let seq = seq.child("e1-cover");
    let families = config.families();
    let instances = Instance::build_all(&families, &seq);

    let mut table = Table::with_headers(
        "E1: COBRA (k=2) cover time on expanders",
        &["graph", "n", "degree", "lambda", "mean", "p95", "mean/ln n", "T=ln n/(1-l)^3"],
    );

    let spec = ProcessSpec::cobra(2).expect("k = 2 is valid");
    let runner = Runner::new(config.max_rounds);
    let mut log_xs = Vec::new();
    let mut log_ys = Vec::new();
    let mut normalised_ratios = Vec::new();

    for (index, instance) in instances.iter().enumerate() {
        let label = format!("{}-{}", instance.label, index);
        let (summary, values) = driver::measure_completion_rounds(
            &instance.graph,
            &spec,
            &runner,
            &seq,
            &label,
            TrialConfig::parallel(config.trials),
        );
        let p95 = quantile(&values, 0.95).unwrap_or(f64::NAN);
        let n = instance.graph.num_vertices();
        let ln_n = (n as f64).ln();
        let ratio = summary.mean() / ln_n;
        table.add_row(vec![
            instance.label.clone(),
            n.to_string(),
            instance.profile.regular_degree.map_or_else(|| "-".to_string(), |d| d.to_string()),
            fmt_float(instance.profile.lambda_abs),
            fmt_float(summary.mean()),
            fmt_float(p95),
            fmt_float(ratio),
            fmt_float(instance.bounds.cobra_cover),
        ]);
        // The log-fit and ratio statistics only use the instances inside the theorem's
        // hypothesis (non-bipartite, decent gap).
        if instance.profile.satisfies_gap_hypothesis(1.0) {
            log_xs.push(n as f64);
            log_ys.push(summary.mean());
            normalised_ratios.push(ratio);
        }
    }

    let mut findings = Vec::new();
    if let Some(fit) = log_fit(&log_xs, &log_ys) {
        findings.push(Finding::new(
            "log_fit_slope",
            fit.slope,
            "slope b of cover ~ a + b ln n over expander instances",
        ));
        findings.push(Finding::new(
            "log_fit_r_squared",
            fit.r_squared,
            "R^2 of the logarithmic fit (close to 1 = logarithmic growth)",
        ));
    }
    if !normalised_ratios.is_empty() {
        let max = normalised_ratios.iter().cloned().fold(f64::MIN, f64::max);
        let min = normalised_ratios.iter().cloned().fold(f64::MAX, f64::min);
        findings.push(Finding::new(
            "ratio_spread",
            max / min,
            "max/min of cover/ln n across degrees and sizes (close to 1 = degree-independent)",
        ));
    }

    ExperimentResult {
        id: "E1".into(),
        title: "COBRA cover time on expanders".into(),
        claim: "Theorem 1: COV(G) = O(log n / (1-lambda)^3), i.e. O(log n) for constant gap, \
                independent of the degree r in [3, n-1]"
            .into(),
        tables: vec![table],
        findings,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_produces_table_and_findings() {
        let result = run(&Config::quick(), &SeedSequence::new(7));
        assert_eq!(result.id, "E1");
        assert_eq!(result.tables.len(), 1);
        assert!(result.tables[0].num_rows() >= 6);
        let slope = result.finding("log_fit_slope").expect("slope finding").value;
        // Logarithmic growth with k = 2 doubling: slope must be positive and modest.
        assert!(slope > 0.0, "slope {slope} should be positive");
        assert!(slope < 30.0, "slope {slope} should be modest for a log fit");
        let r2 = result.finding("log_fit_r_squared").expect("r2 finding").value;
        assert!(r2 > 0.5, "logarithmic fit should explain most of the variance, r2 = {r2}");
        let spread = result.finding("ratio_spread").expect("spread finding").value;
        assert!(spread < 4.0, "cover/ln n should not vary wildly with degree, spread {spread}");
    }

    #[test]
    fn run_is_deterministic_for_a_fixed_seed() {
        let a = run(&Config::quick(), &SeedSequence::new(3));
        let b = run(&Config::quick(), &SeedSequence::new(3));
        assert_eq!(a.tables[0].render(), b.tables[0].render());
    }

    #[test]
    fn families_respect_parity_and_degree_constraints() {
        let config = Config {
            sizes: vec![9, 16],
            degrees: vec![3, 20],
            include_dense_families: false,
            trials: 1,
            max_rounds: 1000,
        };
        // n = 9, r = 3 has odd n*r... 27 is odd so it must be skipped; r = 20 >= 16 skipped.
        let families = config.families();
        assert!(families.iter().all(|f| match f {
            GraphFamily::RandomRegular { n, r } => r < n && (n * r) % 2 == 0,
            _ => true,
        }));
        assert_eq!(families.len(), 1);
    }
}
