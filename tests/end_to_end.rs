//! End-to-end integration tests exercising the public API across every crate:
//! generate → analyse → simulate → compare against the paper's budgets.

use cobra::core::cobra::{Branching, CobraProcess};
use cobra::core::process::SpreadingProcess;
use cobra::core::sim::{ActiveCountTrace, Runner};
use cobra::core::theory::TheoryBounds;
use cobra::core::{cover, infection};
use cobra::graph::generators;
use cobra::stats::summary::Summary;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

fn rng(seed: u64) -> ChaCha12Rng {
    ChaCha12Rng::seed_from_u64(seed)
}

#[test]
fn expander_pipeline_respects_theorem_1_budget() {
    let mut r = rng(1);
    let graph = generators::connected_random_regular(512, 4, &mut r).unwrap();
    let profile = cobra::spectral::analyze(&graph).unwrap();
    assert!(profile.connected);
    assert!(!profile.bipartite);
    assert!(profile.satisfies_gap_hypothesis(1.0), "random 4-regular graphs are expanders");

    let bounds = TheoryBounds::from_profile(&profile);
    let mut summary = Summary::new();
    for _ in 0..20 {
        let outcome =
            cover::cover_time(&graph, 0, Branching::fixed(2).unwrap(), 100_000, &mut r).unwrap();
        // Every trial's cover time must sit below the Theorem 1 budget ...
        let rounds = outcome.rounds as f64;
        assert!(rounds < bounds.cobra_cover, "measured {rounds} vs budget {}", bounds.cobra_cover);
        summary.record(rounds);
    }
    // ... and the mean be a small multiple of ln n (the instance has a constant spectral gap).
    assert!(summary.mean() < 12.0 * (512f64).ln(), "mean {} not O(log n)-like", summary.mean());
    assert!(summary.mean() >= (512f64).log2(), "cannot beat the doubling lower bound");
}

#[test]
fn cover_and_infection_times_are_comparable_across_graph_families() {
    let mut r = rng(2);
    let graphs = vec![
        generators::complete(128).unwrap(),
        generators::connected_random_regular(128, 3, &mut r).unwrap(),
        generators::cycle_power(128, 8).unwrap(),
    ];
    for graph in graphs {
        let mut cover_sum = Summary::new();
        let mut infection_sum = Summary::new();
        for _ in 0..10 {
            cover_sum.record(
                cover::cover_time(&graph, 0, Branching::fixed(2).unwrap(), 1_000_000, &mut r)
                    .unwrap()
                    .rounds as f64,
            );
            infection_sum.record(
                infection::infection_time(
                    &graph,
                    0,
                    Branching::fixed(2).unwrap(),
                    1_000_000,
                    &mut r,
                )
                .unwrap()
                .rounds as f64,
            );
        }
        let ratio = infection_sum.mean() / cover_sum.mean();
        assert!(
            (0.2..=5.0).contains(&ratio),
            "duality predicts comparable times, got ratio {ratio} on {graph:?}"
        );
    }
}

#[test]
fn grid_is_polynomially_slower_than_expander_of_equal_size() {
    // 32x32 rather than 24x24: the sqrt(n)-vs-log(n) separation needs a little room before
    // the factor-2 assertion below is robust to seed luck over only 8 trials.
    let mut r = rng(3);
    let n = 32 * 32;
    let torus = generators::torus_2d(32, 32).unwrap();
    let expander = generators::connected_random_regular(n, 4, &mut r).unwrap();
    let mut torus_sum = Summary::new();
    let mut expander_sum = Summary::new();
    for _ in 0..8 {
        torus_sum.record(
            cover::cover_time(&torus, 0, Branching::fixed(2).unwrap(), 10_000_000, &mut r)
                .unwrap()
                .rounds as f64,
        );
        expander_sum.record(
            cover::cover_time(&expander, 0, Branching::fixed(2).unwrap(), 10_000_000, &mut r)
                .unwrap()
                .rounds as f64,
        );
    }
    assert!(
        torus_sum.mean() > 2.0 * expander_sum.mean(),
        "torus ({}) should be much slower than the expander ({})",
        torus_sum.mean(),
        expander_sum.mean()
    );
}

#[test]
fn cobra_active_set_growth_is_bounded_by_branching() {
    let mut r = rng(4);
    let graph = generators::hypercube(9).unwrap();
    let mut process = CobraProcess::new(&graph, 0, Branching::fixed(2).unwrap()).unwrap();
    let mut trace = ActiveCountTrace::new();
    Runner::new(500).run_observed(&mut process, &mut r, &mut [&mut trace]);
    for w in trace.trace().windows(2) {
        assert!(w[1] <= 2 * w[0], "the active set can at most double per round with k = 2");
    }
    assert!(process.is_complete(), "the hypercube should be covered within the budget");
}

#[test]
fn degenerate_instances_are_rejected_uniformly() {
    let empty = cobra::graph::Graph::default();
    assert!(cobra::spectral::analyze(&empty).is_err());
    assert!(CobraProcess::new(&empty, 0, Branching::fixed(2).unwrap()).is_err());
    assert!(cobra::core::bips::BipsProcess::new(&empty, 0, Branching::fixed(2).unwrap()).is_err());

    let disconnected = cobra::graph::Graph::from_edges(6, &[(0, 1), (2, 3), (4, 5)]).unwrap();
    let mut r = rng(5);
    // A disconnected graph can never be covered: the budget is exhausted instead of looping
    // forever.
    let result = cover::cover_time(&disconnected, 0, Branching::fixed(2).unwrap(), 50, &mut r);
    assert!(matches!(result, Err(cobra::core::CoreError::RoundBudgetExceeded { .. })));
}

#[test]
fn experiment_registry_smoke_run_is_deterministic() {
    use cobra::experiments::registry::{run_experiment, ExperimentId, Preset};
    let a = run_experiment(ExperimentId::E6, Preset::Quick, 99);
    let b = run_experiment(ExperimentId::E6, Preset::Quick, 99);
    assert_eq!(a.tables[0].render(), b.tables[0].render());
    assert_eq!(a.findings.len(), b.findings.len());
    for (fa, fb) in a.findings.iter().zip(b.findings.iter()) {
        assert_eq!(fa.name, fb.name);
        assert!((fa.value - fb.value).abs() < 1e-12);
    }
}
