//! The oblivious adversary must be invisible: for every fault plan `P`,
//! `spec+P+adv=oblivious` builds no adversary policy — the plan's own clauses already are
//! the oblivious adversary — so it must evolve **bit for bit** identically to `spec+P`
//! under the same seeded RNG, for all seven processes, on expanders and tori, across drop
//! rates, sampled crash sets, bursty and per-edge channels and transient repair dynamics.
//! These property tests pin that equivalence at the public spec level so a refactor of
//! the environment wrapper cannot silently skew the E10 baselines.
//!
//! Zero-strength adaptive policies are held to the zero-fault standard of
//! `tests/fault_equivalence.rs`: a `topdeg` adversary with budget 0 and a `dropfront`
//! adversary with `f = 0` never touch the RNG and reproduce the bare process exactly.
//!
//! The defense engine is held to the same standard from the other side of the arms race:
//! `def=passive` and never-triggered `def=boostk`/`def=reseed` policies wrap every
//! process bit-identically and draw exactly zero extra RNG words per round — the
//! environment wrapper makes no hook calls for an inert defense at all.

use cobra::core::spec::ProcessSpec;
use cobra::graph::{generators, Graph};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// One spec per process implementation (matching `fault_equivalence::all_specs`).
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

/// The oblivious plans routed through both paths: plain loss, sampled crashes, the
/// combination, a bursty channel and transient crash/repair dynamics.
fn oblivious_clause_sets() -> Vec<&'static str> {
    vec![
        "drop=0",
        "drop=0.15",
        "crash=10%",
        "drop=0.1+crash=5%",
        "gedrop=0.2,0.3,0.5",
        "crash=10%+repair=0.2",
        "gedrop=0.2,0.3,0.5:scope=edge",
    ]
}

/// Steps the reference build of `reference_spec` and the candidate build of
/// `candidate_spec` with identically seeded RNGs and asserts byte-identical evolution of
/// the active set, delta, coverage and completion.
fn assert_same_evolution(
    graph: &Graph,
    reference_spec: &ProcessSpec,
    candidate_spec: &ProcessSpec,
    seed: u64,
    rounds: usize,
) {
    let mut reference = reference_spec.build(graph).expect("reference process builds");
    let mut candidate = candidate_spec.build(graph).expect("candidate process builds");
    let mut reference_rng = ChaCha12Rng::seed_from_u64(seed);
    let mut candidate_rng = ChaCha12Rng::seed_from_u64(seed);

    assert_eq!(candidate.num_active(), reference.num_active(), "{candidate_spec}: initial count");
    for round in 1..=rounds {
        reference.step(&mut reference_rng);
        candidate.step(&mut candidate_rng);
        assert_eq!(
            candidate.num_active(),
            reference.num_active(),
            "{candidate_spec} seed {seed}: num_active diverged at round {round}"
        );
        assert_eq!(
            candidate.active().to_indicator(),
            reference.active().to_indicator(),
            "{candidate_spec} seed {seed}: active set diverged at round {round}"
        );
        let mut reference_delta = reference.newly_activated().to_vec();
        let mut candidate_delta = candidate.newly_activated().to_vec();
        reference_delta.sort_unstable();
        candidate_delta.sort_unstable();
        assert_eq!(
            candidate_delta, reference_delta,
            "{candidate_spec} seed {seed}: delta diverged at round {round}"
        );
        assert_eq!(
            candidate.coverage().map(|set| set.count()),
            reference.coverage().map(|set| set.count()),
            "{candidate_spec} seed {seed}: coverage diverged at round {round}"
        );
        assert_eq!(
            candidate.is_complete(),
            reference.is_complete(),
            "{candidate_spec} seed {seed}: completion diverged at round {round}"
        );
        if reference.is_complete() {
            break;
        }
    }
}

/// For every process and every oblivious clause set: the `adv=oblivious` build is
/// bit-identical to the plain fault plan.
fn assert_oblivious_engine_is_identity(graph: &Graph, seed: u64, rounds: usize) {
    for spec in all_specs() {
        if spec.start() >= graph.num_vertices() {
            continue;
        }
        for clauses in oblivious_clause_sets() {
            let plain: ProcessSpec =
                format!("{spec}+{clauses}").parse().expect("plain fault clauses parse");
            let engine: ProcessSpec = format!("{spec}+{clauses}+adv=oblivious")
                .parse()
                .expect("engine-routed clauses parse");
            assert_same_evolution(graph, &plain, &engine, seed, rounds);
        }
    }
}

/// Zero-strength adaptive policies are invisible: no crashes at budget 0, no drops at
/// `f = 0` — and neither may consume RNG draws.
fn assert_zero_strength_policies_are_identity(graph: &Graph, seed: u64, rounds: usize) {
    for spec in all_specs() {
        if spec.start() >= graph.num_vertices() {
            continue;
        }
        for policy in ["adv=topdeg:budget=0", "adv=dropfront:f=0"] {
            let wrapped: ProcessSpec =
                format!("{spec}+{policy}").parse().expect("zero-strength policy parses");
            assert_same_evolution(graph, &spec, &wrapped, seed, rounds);
        }
    }
}

/// Defense clauses that must be inert for `spec`: `passive` always is; `boostk` with a
/// stall window beyond the test horizon never fires; `reseed` fires only on frontier
/// death, which never happens to the bare processes here — except the contact process,
/// whose infection can die out and *should* then be revived, so it is excluded.
fn inert_defense_clauses(spec: &ProcessSpec) -> Vec<&'static str> {
    let mut clauses = vec!["def=passive", "def=boostk:trigger=stall,w=100,cap=4"];
    if spec.name() != "contact" {
        clauses.push("def=reseed:m=1%,cooldown=16");
    }
    clauses
}

/// Inert defense policies are invisible: the defended build reproduces the bare process
/// exactly.
fn assert_inert_defenses_are_identity(graph: &Graph, seed: u64, rounds: usize) {
    for spec in all_specs() {
        if spec.start() >= graph.num_vertices() {
            continue;
        }
        for clause in inert_defense_clauses(&spec) {
            let defended: ProcessSpec =
                format!("{spec}+{clause}").parse().expect("inert defense clause parses");
            assert_same_evolution(graph, &spec, &defended, seed, rounds);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every process × every oblivious plan on connected random-regular expanders.
    #[test]
    fn oblivious_engine_is_identity_on_random_regular(
        n in 12usize..72,
        r in 3usize..6,
        seed in 0u64..10_000,
    ) {
        prop_assume!((n * r) % 2 == 0 && r < n);
        let mut gen_rng = ChaCha12Rng::seed_from_u64(seed ^ 0xAD5E);
        let graph = generators::connected_random_regular(n, r, &mut gen_rng).unwrap();
        assert_oblivious_engine_is_identity(&graph, seed, 50);
    }

    /// Every process × every oblivious plan on 2-D tori (the poor-expander contrast).
    #[test]
    fn oblivious_engine_is_identity_on_torus(side in 3usize..8, seed in 0u64..10_000) {
        let graph = generators::torus_2d(side, side).unwrap();
        assert_oblivious_engine_is_identity(&graph, seed, 40);
    }

    /// Zero-strength adaptive policies are the identity on expanders.
    #[test]
    fn zero_strength_policies_are_identity_on_random_regular(
        n in 12usize..72,
        r in 3usize..6,
        seed in 0u64..10_000,
    ) {
        prop_assume!((n * r) % 2 == 0 && r < n);
        let mut gen_rng = ChaCha12Rng::seed_from_u64(seed ^ 0x0B5E);
        let graph = generators::connected_random_regular(n, r, &mut gen_rng).unwrap();
        assert_zero_strength_policies_are_identity(&graph, seed, 50);
    }

    /// Inert defense policies are the identity on expanders.
    #[test]
    fn inert_defenses_are_identity_on_random_regular(
        n in 12usize..72,
        r in 3usize..6,
        seed in 0u64..10_000,
    ) {
        prop_assume!((n * r) % 2 == 0 && r < n);
        let mut gen_rng = ChaCha12Rng::seed_from_u64(seed ^ 0xDEF5);
        let graph = generators::connected_random_regular(n, r, &mut gen_rng).unwrap();
        assert_inert_defenses_are_identity(&graph, seed, 50);
    }

    /// Inert defense policies are the identity on 2-D tori.
    #[test]
    fn inert_defenses_are_identity_on_torus(side in 3usize..8, seed in 0u64..10_000) {
        let graph = generators::torus_2d(side, side).unwrap();
        assert_inert_defenses_are_identity(&graph, seed, 40);
    }
}

/// Fixed, deterministic smoke on the acceptance instance family (random-8-regular).
#[test]
fn oblivious_engine_is_identity_on_a_fixed_expander() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(128, 8, &mut gen_rng).unwrap();
    for seed in 0..4u64 {
        assert_oblivious_engine_is_identity(&graph, seed, 120);
    }
}

/// The adaptive policies produce *different* trajectories than their matched oblivious
/// counterparts — the engine is not a no-op when the policy actually targets state.
#[test]
fn targeted_policies_actually_diverge_from_oblivious_baselines() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(96, 8, &mut gen_rng).unwrap();
    let adaptive: ProcessSpec = "cobra:k=2+adv=topdeg:budget=10%".parse().unwrap();
    let oblivious: ProcessSpec = "cobra:k=2+crash=10%".parse().unwrap();
    let mut diverged = false;
    for seed in 0..4u64 {
        let mut a = adaptive.build(&graph).unwrap();
        let mut b = oblivious.build(&graph).unwrap();
        let mut rng_a = ChaCha12Rng::seed_from_u64(seed);
        let mut rng_b = ChaCha12Rng::seed_from_u64(seed);
        for _ in 0..40 {
            a.step(&mut rng_a);
            b.step(&mut rng_b);
            if a.active().to_indicator() != b.active().to_indicator() {
                diverged = true;
                break;
            }
        }
    }
    assert!(diverged, "crash-top-degree must not coincide with sampled crashes");
}

// ---------------------------------------------------------------------------
// Draw-count sanitizer: the adversary engine's RNG arithmetic, asserted on the
// counts themselves.
// ---------------------------------------------------------------------------

use cobra::core::CountingRng;

/// Adding `adv=oblivious` to a plan consumes **exactly** the same number of RNG words per
/// round as the plain plan — including non-benign plans, where both sides draw the same,
/// nonzero per-round amounts from the plan dynamics.
#[test]
fn oblivious_engine_draw_counts_match_the_plain_fault_path() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(64, 4, &mut gen_rng).unwrap();
    for spec in all_specs() {
        for clauses in oblivious_clause_sets() {
            let plain: ProcessSpec =
                format!("{spec}+{clauses}").parse().expect("plain fault clauses parse");
            let engine: ProcessSpec = format!("{spec}+{clauses}+adv=oblivious")
                .parse()
                .expect("engine-routed clauses parse");
            for seed in 0..2u64 {
                let mut reference = plain.build(&graph).expect("plain path builds");
                let mut candidate = engine.build(&graph).expect("engine path builds");
                let mut reference_rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                let mut candidate_rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                for round in 1..=50 {
                    reference.step(&mut reference_rng);
                    candidate.step(&mut candidate_rng);
                    let expected = reference_rng.take_count();
                    assert_eq!(
                        candidate_rng.take_count(),
                        expected,
                        "{engine} seed {seed}: draw count diverged at round {round} \
                         (plain path drew {expected})"
                    );
                    if reference.is_complete() {
                        break;
                    }
                }
            }
        }
    }
}

/// Zero-strength adaptive policies never touch the RNG: per round, the wrapped process
/// draws exactly as many words as the bare one.
#[test]
fn zero_strength_policies_draw_exactly_zero_extra_words_per_round() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(64, 4, &mut gen_rng).unwrap();
    for spec in all_specs() {
        for policy in ["adv=topdeg:budget=0", "adv=dropfront:f=0"] {
            let wrapped: ProcessSpec =
                format!("{spec}+{policy}").parse().expect("zero-strength policy parses");
            for seed in 0..3u64 {
                let mut bare = spec.build(&graph).expect("bare process builds");
                let mut candidate = wrapped.build(&graph).expect("wrapped process builds");
                let mut bare_rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                let mut candidate_rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                for round in 1..=50 {
                    bare.step(&mut bare_rng);
                    candidate.step(&mut candidate_rng);
                    let expected = bare_rng.take_count();
                    assert_eq!(
                        candidate_rng.take_count(),
                        expected,
                        "{wrapped} seed {seed}: draw count diverged at round {round} \
                         (bare drew {expected})"
                    );
                    if bare.is_complete() {
                        break;
                    }
                }
            }
        }
    }
}

/// Inert defense policies never touch the RNG either: per round, the defended process
/// draws exactly as many words as the bare one — `DefensePolicy::observe` is draw-free
/// for the shipped policies and the wrapper's inert defense path makes no hook calls.
#[test]
fn inert_defenses_draw_exactly_zero_extra_words_per_round() {
    let mut gen_rng = ChaCha12Rng::seed_from_u64(2016);
    let graph = generators::connected_random_regular(64, 4, &mut gen_rng).unwrap();
    for spec in all_specs() {
        for clause in inert_defense_clauses(&spec) {
            let defended: ProcessSpec =
                format!("{spec}+{clause}").parse().expect("inert defense clause parses");
            for seed in 0..3u64 {
                let mut bare = spec.build(&graph).expect("bare process builds");
                let mut candidate = defended.build(&graph).expect("defended process builds");
                let mut bare_rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                let mut candidate_rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
                for round in 1..=50 {
                    bare.step(&mut bare_rng);
                    candidate.step(&mut candidate_rng);
                    let expected = bare_rng.take_count();
                    assert_eq!(
                        candidate_rng.take_count(),
                        expected,
                        "{defended} seed {seed}: draw count diverged at round {round} \
                         (bare drew {expected})"
                    );
                    if bare.is_complete() {
                        break;
                    }
                }
            }
        }
    }
}
