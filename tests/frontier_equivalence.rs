//! Seeded-RNG equivalence of the sparse-frontier engine and the retained dense reference
//! engine, for all seven spreading processes.
//!
//! The frontier engines promise to be a pure performance refactor: driven by the same seeded
//! RNG they must reproduce the dense engines' per-round `num_active`, full active set and
//! visited-count evolution **exactly** (the frontier preserves the dense vertex visit order,
//! and `cobra_graph::sample` performs the same widening-multiply reduction as `gen_range`).
//! These property tests pin that contract on random-regular and torus instances across many
//! seeds; any divergence in RNG consumption or set bookkeeping fails within a few rounds.

mod support;

use cobra::core::process::SpreadingProcess;
use cobra::core::spec::ProcessSpec;
use cobra::graph::{generators, Graph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use support::dense as reference;

/// One spec per process implementation (both COBRA branching modes, transient and
/// persistent contact), with starts spread over the vertex range.
fn all_specs() -> Vec<ProcessSpec> {
    vec![
        ProcessSpec::cobra(2).unwrap(),
        ProcessSpec::cobra_fractional(0.4).unwrap().with_start(3),
        ProcessSpec::bips(2).unwrap().with_start(1),
        ProcessSpec::random_walk(),
        ProcessSpec::multiple_walks(5).with_start(2),
        ProcessSpec::push(),
        ProcessSpec::push_pull().with_start(4),
        ProcessSpec::contact(0.6, 0.3).unwrap(),
        "contact:p=0.2,q=0.7,transient".parse().unwrap(),
    ]
}

/// Steps both engines with identically seeded RNGs and asserts byte-identical evolution.
fn assert_equivalent(graph: &Graph, spec: &ProcessSpec, seed: u64, rounds: usize) {
    let mut frontier = spec.build(graph).expect("frontier engine builds");
    let mut dense = reference::build_dense(spec, graph).expect("dense engine builds");
    let mut frontier_rng = ChaCha12Rng::seed_from_u64(seed);
    let mut dense_rng = ChaCha12Rng::seed_from_u64(seed);

    assert_eq!(frontier.num_active(), dense.num_active(), "{spec}: initial count");
    for round in 1..=rounds {
        frontier.step(&mut frontier_rng);
        dense.step(&mut dense_rng);
        assert_eq!(
            frontier.num_active(),
            dense.num_active(),
            "{spec} seed {seed}: num_active diverged at round {round}"
        );
        assert_eq!(
            frontier.active().to_indicator(),
            dense.active_indicator(),
            "{spec} seed {seed}: active set diverged at round {round}"
        );
        assert_eq!(
            frontier.is_complete(),
            dense.is_complete(),
            "{spec} seed {seed}: completion diverged at round {round}"
        );
        if frontier.is_complete() {
            break;
        }
    }
}

/// The visited/ever-infected counters are process-specific API, so they are compared through
/// the concrete types for the process families that track them.
fn typed_visited_matches(graph: &Graph, seed: u64, rounds: usize) {
    use cobra::core::cobra::{Branching, CobraProcess};
    let mut frontier = CobraProcess::new(graph, 0, Branching::fixed(2).unwrap()).unwrap();
    let mut dense = reference::DenseCobra::new(graph, 0, Branching::fixed(2).unwrap());
    let mut frontier_rng = ChaCha12Rng::seed_from_u64(seed);
    let mut dense_rng = ChaCha12Rng::seed_from_u64(seed);
    for round in 1..=rounds {
        frontier.step(&mut frontier_rng);
        reference::DenseProcess::step(&mut dense, &mut dense_rng);
        assert_eq!(
            Some(frontier.num_visited()),
            reference::DenseProcess::num_visited(&dense),
            "cobra seed {seed}: num_visited diverged at round {round}"
        );
        if frontier.is_complete() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every process on connected random-regular expanders: identical evolution.
    #[test]
    fn frontier_matches_dense_on_random_regular(n in 12usize..96, r in 3usize..6, seed in 0u64..10_000) {
        prop_assume!((n * r) % 2 == 0 && r < n);
        let mut gen_rng = ChaCha12Rng::seed_from_u64(seed ^ 0xD1CE);
        let graph = generators::connected_random_regular(n, r, &mut gen_rng).unwrap();
        for spec in all_specs() {
            prop_assume!(spec.start() < n);
            assert_equivalent(&graph, &spec, seed, 80);
        }
        typed_visited_matches(&graph, seed, 80);
    }

    /// Every process on 2-D tori (the paper's poor-expander contrast family).
    #[test]
    fn frontier_matches_dense_on_torus(side in 3usize..10, seed in 0u64..10_000) {
        let graph = generators::torus_2d(side, side).unwrap();
        for spec in all_specs() {
            prop_assume!(spec.start() < graph.num_vertices());
            assert_equivalent(&graph, &spec, seed, 60);
        }
        typed_visited_matches(&graph, seed, 60);
    }
}

/// A fixed, deterministic smoke version of the property (fast to run in isolation, and a
/// pinned witness on the acceptance instance family).
#[test]
fn frontier_matches_dense_on_a_fixed_expander() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(256, 8, &mut gen_rng).unwrap();
    for spec in all_specs() {
        for seed in 0..5u64 {
            assert_equivalent(&graph, &spec, seed, 200);
        }
    }
    typed_visited_matches(&graph, 7, 200);
}
