//! Cross-crate property-based tests: invariants that must hold for random graphs, random
//! process parameters and random seeds.

use cobra::core::bips::BipsProcess;
use cobra::core::cobra::{Branching, CobraProcess};
use cobra::core::growth;
use cobra::core::process::SpreadingProcess;
use cobra::core::theory::TheoryBounds;
use cobra::graph::{generators, ops};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// COBRA invariants on random regular graphs: the active set never dies, never exceeds the
    /// branching bound, and the visited set is monotone.
    #[test]
    fn cobra_invariants(n in 8usize..64, seed in 0u64..500, k in 1u32..4) {
        prop_assume!((n * 3) % 2 == 0);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let graph = generators::connected_random_regular(n, 3, &mut rng).unwrap();
        let mut process =
            CobraProcess::new(&graph, 0, Branching::fixed(k).unwrap()).unwrap();
        let mut previous_active = process.num_active();
        let mut previous_visited = process.num_visited();
        for _ in 0..40 {
            process.step(&mut rng);
            let active = process.num_active();
            prop_assert!(active >= 1);
            prop_assert!(active <= k as usize * previous_active);
            prop_assert!(process.num_visited() >= previous_visited);
            prop_assert!(process.num_visited() >= active);
            previous_active = active;
            previous_visited = process.num_visited();
        }
    }

    /// BIPS invariants: the source stays infected, the infected count matches the indicator,
    /// and completion means every vertex is infected.
    #[test]
    fn bips_invariants(n in 8usize..64, seed in 0u64..500, source in 0usize..8) {
        prop_assume!((n * 3) % 2 == 0);
        prop_assume!(source < n);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let graph = generators::connected_random_regular(n, 3, &mut rng).unwrap();
        let mut process =
            BipsProcess::new(&graph, source, Branching::fixed(2).unwrap()).unwrap();
        for _ in 0..60 {
            process.step(&mut rng);
            prop_assert!(process.is_infected(source));
            let recount = process.active().count();
            prop_assert_eq!(recount, process.num_infected());
            if process.is_complete() {
                prop_assert_eq!(process.num_infected(), n);
                break;
            }
        }
    }

    /// Lemma 1: the exact one-step growth expectation dominates the spectral lower bound on
    /// arbitrary infected sets of random regular graphs.
    #[test]
    fn growth_bound_holds_on_random_sets(n in 10usize..40, seed in 0u64..200, size in 1usize..20) {
        prop_assume!((n * 4) % 2 == 0);
        prop_assume!(size <= n);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let graph = generators::connected_random_regular(n, 4, &mut rng).unwrap();
        let lambda = cobra::spectral::analyze(&graph).unwrap().lambda_abs;
        let observations = growth::audit_growth_random_sets(
            &graph,
            0,
            Branching::fixed(2).unwrap(),
            lambda,
            size,
            3,
            &mut rng,
        )
        .unwrap();
        for obs in observations {
            prop_assert!(
                obs.bound_holds(),
                "size {}: E = {} < bound = {}", obs.set_size, obs.expected_next, obs.lower_bound
            );
        }
    }

    /// Spectral sanity on arbitrary connected regular-ish graphs: |lambda| <= 1 and the
    /// Theorem 1 budget is finite exactly when the graph is non-bipartite and connected.
    #[test]
    fn spectral_profile_invariants(n in 6usize..40, seed in 0u64..200) {
        prop_assume!((n * 3) % 2 == 0);
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let graph = generators::connected_random_regular(n, 3, &mut rng).unwrap();
        let profile = cobra::spectral::analyze(&graph).unwrap();
        prop_assert!(profile.lambda_abs <= 1.0 + 1e-9);
        prop_assert!(profile.lambda_2 >= profile.lambda_min - 1e-12);
        prop_assert!(profile.connected);
        let finite_budget = TheoryBounds::from_profile(&profile).cobra_cover.is_finite();
        prop_assert_eq!(finite_budget, !profile.bipartite);
        prop_assert_eq!(ops::is_bipartite(&graph), profile.bipartite);
    }
}
