//! Integration tests dedicated to Theorem 4 (the COBRA ↔ BIPS duality), run through the
//! public facade crate.

use cobra::core::cobra::Branching;
use cobra::core::duality;
use cobra::graph::generators;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

#[test]
fn duality_holds_exactly_on_a_zoo_of_small_graphs() {
    let k2 = Branching::fixed(2).unwrap();
    let zoo = vec![
        ("triangle", generators::triangle().unwrap()),
        ("path-4", generators::path(4).unwrap()),
        ("star-5", generators::star(5).unwrap()),
        ("cycle-5", generators::cycle(5).unwrap()),
        ("cycle-6", generators::cycle(6).unwrap()),
        ("diamond", generators::diamond().unwrap()),
        ("bull", generators::bull().unwrap()),
        ("complete-5", generators::complete(5).unwrap()),
        ("complete-bipartite-2-3", generators::complete_bipartite(2, 3).unwrap()),
        ("cube-Q3", generators::hypercube(3).unwrap()),
        ("binary-tree-h2", generators::binary_tree(2).unwrap()),
    ];
    for (name, graph) in zoo {
        let report = duality::verify_duality_exact(&graph, k2, 7).unwrap();
        assert!(
            report.max_abs_difference < 1e-10,
            "duality violated on {name}: {}",
            report.max_abs_difference
        );
    }
}

#[test]
fn duality_holds_exactly_for_every_branching_mode() {
    let graph = generators::cycle(6).unwrap();
    for branching in [
        Branching::fixed(1).unwrap(),
        Branching::fixed(2).unwrap(),
        Branching::fixed(4).unwrap(),
        Branching::fractional(0.0).unwrap(),
        Branching::fractional(0.5).unwrap(),
        Branching::fractional(1.0).unwrap(),
    ] {
        let report = duality::verify_duality_exact(&graph, branching, 8).unwrap();
        assert!(
            report.max_abs_difference < 1e-10,
            "duality violated for {branching:?}: {}",
            report.max_abs_difference
        );
    }
}

#[test]
fn duality_survives_a_monte_carlo_test_on_a_mid_sized_expander() {
    let mut rng = ChaCha12Rng::seed_from_u64(77);
    let graph = generators::connected_random_regular(128, 3, &mut rng).unwrap();
    let k2 = Branching::fixed(2).unwrap();
    for t in [1usize, 3, 6, 10] {
        let check =
            duality::verify_duality_monte_carlo(&graph, &[5], 70, k2, t, 4_000, &mut rng).unwrap();
        assert!(
            check.z_score.abs() <= 4.5,
            "z = {} at t = {t} (cobra {}, bips {})",
            check.z_score,
            check.cobra_tail,
            check.bips_avoidance
        );
    }
}

#[test]
fn tail_probabilities_decay_with_time_and_agree_at_t_zero() {
    // Beyond the identity itself, the two exact computations must both start at 1 (the start
    // set does not contain the target) and be non-increasing in t.
    let graph = generators::petersen().unwrap();
    let k2 = Branching::fixed(2).unwrap();
    let cobra = duality::exact_cobra_hit_tail(&graph, &[0, 1], 9, k2, 6).unwrap();
    let bips = duality::exact_bips_avoidance(&graph, 9, &[0, 1], k2, 6).unwrap();
    assert!((cobra[0] - 1.0).abs() < 1e-12);
    assert!((bips[0] - 1.0).abs() < 1e-12);
    for w in cobra.windows(2) {
        assert!(w[1] <= w[0] + 1e-12);
    }
    for (a, b) in cobra.iter().zip(bips.iter()) {
        assert!((a - b).abs() < 1e-10);
    }
}
