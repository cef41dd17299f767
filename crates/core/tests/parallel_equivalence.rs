//! Bit-equivalence v2: the parallel frontier engine's determinism contract.
//!
//! * **Thread-count invariance (exact):** for every process — and for fault, adversary
//!   and defense stacks, per-edge channels included — a stream-mode trajectory is
//!   *bit-identical* across `threads = 1, 2, 3, 4, 8`: same `newly_activated` (order
//!   included), same active counts, same coverage, every round. The streams are keyed by
//!   `(entity, round)`, never by schedule, and contiguous shards merge in shard order, so
//!   nothing observable may depend on the thread count.
//! * **Oblivious adversary (exact):** `+adv=oblivious` builds no policy, so it reproduces
//!   the plain plan's stream-mode trajectory at every thread count.
//! * **Per-stream draw accounting:** a vertex's draws are re-derivable from the trial key
//!   alone, and a benign fault wrapper adds zero words to any vertex stream
//!   (`CountingRng`-verified).
//! * **Distribution equivalence (statistical):** stream mode is not draw-for-draw
//!   identical to the sequential engine (by design), but cover times agree in
//!   distribution — checked via matched medians under common random numbers.

use cobra_core::counting::CountingRng;
use cobra_core::parallel::{ParallelFrontier, ParallelProcess};
use cobra_core::process::run_until_complete;
use cobra_core::spec::ProcessSpec;
use cobra_core::SpreadingProcess;
use cobra_graph::sample::{self, VertexStreams};
use cobra_graph::{generators, Graph, VertexId};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

/// Everything observable about one round; two trajectories are equal iff these match.
#[derive(Debug, PartialEq, Eq, Clone)]
struct RoundRecord {
    round: usize,
    newly: Vec<VertexId>,
    num_active: usize,
    coverage: Option<usize>,
    complete: bool,
}

fn record(p: &dyn SpreadingProcess) -> RoundRecord {
    RoundRecord {
        round: p.round(),
        newly: p.newly_activated().to_vec(),
        num_active: p.num_active(),
        coverage: p.coverage().map(|c| c.count()),
        complete: p.is_complete(),
    }
}

/// Runs `spec` in stream mode with a fixed trial key and records every round.
fn stream_trajectory(
    spec: &ProcessSpec,
    graph: &Graph,
    key: [u8; 32],
    threads: usize,
    rounds: usize,
) -> Vec<RoundRecord> {
    let inner = spec.build(graph).expect("spec builds");
    let engine = ParallelFrontier::new(VertexStreams::new(key), threads).expect("threads >= 1");
    let mut p = ParallelProcess::new(inner, engine);
    let mut unused = ChaCha12Rng::seed_from_u64(0xDEAD);
    let mut trace = vec![record(&p)];
    for _ in 0..rounds {
        if p.is_complete() {
            break;
        }
        p.step(&mut unused);
        trace.push(record(&p));
    }
    trace
}

fn expander() -> Graph {
    let mut rng = ChaCha12Rng::seed_from_u64(81);
    generators::connected_random_regular(96, 4, &mut rng).unwrap()
}

fn torus() -> Graph {
    generators::torus_2d(8, 12).unwrap()
}

const BARE_SPECS: [&str; 7] =
    ["cobra:k=2", "cobra:rho=0.5", "bips:k=2", "walk", "walks:w=6", "push", "pushpull"];

#[test]
fn trajectories_are_identical_across_thread_counts_for_all_processes() {
    for (graph_name, graph) in [("expander", expander()), ("torus", torus())] {
        for raw in BARE_SPECS {
            let spec: ProcessSpec = raw.parse().unwrap();
            let key = [raw.len() as u8; 32];
            let base = stream_trajectory(&spec, &graph, key, 1, 60);
            for threads in [2, 3, 4, 8] {
                let other = stream_trajectory(&spec, &graph, key, threads, 60);
                assert_eq!(
                    base, other,
                    "{raw} on {graph_name} diverged between 1 and {threads} threads"
                );
            }
        }
        // The contact process has its own spec syntax (and can go extinct, which is fine —
        // extinction must also be thread-invariant).
        let spec: ProcessSpec = "contact:p=0.3,q=0.2".parse().unwrap();
        let base = stream_trajectory(&spec, &graph, [77u8; 32], 1, 60);
        for threads in [2, 4, 8] {
            assert_eq!(base, stream_trajectory(&spec, &graph, [77u8; 32], threads, 60));
        }
    }
}

#[test]
fn trajectories_are_identical_across_thread_counts_for_wrapper_stacks() {
    let graph = expander();
    for raw in [
        // Oblivious faults: i.i.d. drop + sampled transient crashes + a bursty channel.
        "cobra:k=2+drop=0.2+crash=5%",
        "bips:k=2+crash=10%+repair=0.1",
        "push+gedrop=0.05,0.25,0.5",
        // Adaptive adversaries.
        "cobra:k=2+adv=topdeg:budget=5%",
        "push+adv=dropfront",
        // Defense on top of an adversary: the full three-layer stack.
        "cobra:k=2+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4",
        "cobra:k=2+drop=0.3+def=reseed:m=2%,cooldown=8",
    ] {
        let spec: ProcessSpec = raw.parse().unwrap();
        let key = [raw.len() as u8; 32];
        let base = stream_trajectory(&spec, &graph, key, 1, 50);
        assert!(base.len() > 1, "{raw} must actually step");
        for threads in [2, 4, 8] {
            let other = stream_trajectory(&spec, &graph, key, threads, 50);
            assert_eq!(base, other, "{raw} diverged between 1 and {threads} threads");
        }
    }
}

#[test]
fn benign_fault_wrapper_is_bit_identical_to_the_bare_process_in_stream_mode() {
    // Wrapper dynamics draw only from the reserved FAULT_ENTITY stream, so a zero-fault
    // plan cannot perturb any vertex stream: the wrapped trajectory equals the bare one.
    let graph = torus();
    let bare: ProcessSpec = "cobra:k=2".parse().unwrap();
    let wrapped: ProcessSpec = "cobra:k=2+drop=0".parse().unwrap();
    let key = [9u8; 32];
    assert_eq!(
        stream_trajectory(&bare, &graph, key, 4, 80),
        stream_trajectory(&wrapped, &graph, key, 4, 80),
    );
}

#[test]
fn every_vertex_stream_is_rederivable_and_draws_exactly_k_words() {
    // Replay a COBRA k=2 stream-mode run from the trial key alone: per round, each frontier
    // member's two targets come from its own (vertex, round) stream — and a CountingRng on
    // that stream observes exactly k words, proving per-stream draw counts are a pure
    // function of the branching factor (benign faults add zero).
    let graph = expander();
    let key = [42u8; 32];
    let streams = VertexStreams::new(key);
    let spec: ProcessSpec = "cobra:k=2".parse().unwrap();
    let inner = spec.build(&graph).unwrap();
    let engine = ParallelFrontier::new(VertexStreams::new(key), 3).unwrap();
    let mut p = ParallelProcess::new(inner, engine);
    let mut unused = ChaCha12Rng::seed_from_u64(1);

    let mut frontier: Vec<VertexId> = vec![0];
    let mut active = vec![false; graph.num_vertices()];
    active[0] = true;
    for round in 0..25u64 {
        if p.is_complete() {
            break;
        }
        // Independent reconstruction of the next frontier from the trial key.
        let mut next: Vec<bool> = vec![false; graph.num_vertices()];
        let mut expected_newly: Vec<VertexId> = Vec::new();
        for &u in &frontier {
            let mut rng = CountingRng::new(streams.stream(u as u64, round));
            let neighbors = graph.neighbors(u);
            for _ in 0..2 {
                let target = *sample::sample_slice(neighbors, &mut rng).unwrap() as VertexId;
                if !next[target] && !active[target] {
                    expected_newly.push(target);
                }
                next[target] = true;
            }
            assert_eq!(rng.count(), 2, "fixed k=2 must draw exactly 2 words per vertex");
        }
        p.step(&mut unused);
        assert_eq!(p.newly_activated(), &expected_newly[..], "round {round}");
        let mut expected_frontier: Vec<VertexId> =
            (0..graph.num_vertices()).filter(|&v| next[v]).collect();
        let mut actual = Vec::new();
        p.for_each_active(&mut |v| actual.push(v));
        expected_frontier.sort_unstable();
        assert_eq!(actual, expected_frontier, "round {round}");
        frontier = expected_frontier;
        active = next;
    }
    assert!(p.round() > 0);
}

#[test]
fn stream_mode_matches_the_sequential_engine_in_distribution() {
    // Common random numbers at the trial level: trial i uses seed i for both engines. The
    // engines draw different streams, so trajectories differ — but COBRA k=2 cover times on
    // a fixed expander must agree in distribution. Compare medians of 31 trials.
    let graph = expander();
    let spec: ProcessSpec = "cobra:k=2".parse().unwrap();
    let trials = 31;
    let mut sequential = Vec::with_capacity(trials);
    let mut streamed = Vec::with_capacity(trials);
    for i in 0..trials as u64 {
        let mut rng = ChaCha12Rng::seed_from_u64(1000 + i);
        let mut p = spec.build(&graph).unwrap();
        sequential.push(run_until_complete(p.as_mut(), &mut rng, 1_000_000).unwrap());

        let mut rng = ChaCha12Rng::seed_from_u64(1000 + i);
        let mut p = spec.build_parallel(&graph, 4, &mut rng).unwrap();
        streamed.push(run_until_complete(p.as_mut(), &mut rng, 1_000_000).unwrap());
    }
    sequential.sort_unstable();
    streamed.sort_unstable();
    let (ms, mp) = (sequential[trials / 2] as f64, streamed[trials / 2] as f64);
    assert!(
        (ms / mp).max(mp / ms) < 1.6,
        "cover-time medians diverged: sequential {ms}, streamed {mp}"
    );
}

#[test]
fn build_parallel_validates_inputs() {
    let graph = torus();
    let spec: ProcessSpec = "cobra:k=2".parse().unwrap();
    let mut rng = ChaCha12Rng::seed_from_u64(5);
    assert!(spec.build_parallel(&graph, 0, &mut rng).is_err(), "zero threads is rejected");
    assert!(spec.build_parallel(&graph, 2, &mut rng).is_ok());
    // Churn re-instantiates the graph mid-run; its wrapper cannot exist on a fixed
    // instance, so stream mode rejects it the same way `build` does.
    let churny: ProcessSpec = "cobra:k=2+churn=16".parse().unwrap();
    assert!(churny.build_parallel(&graph, 2, &mut rng).is_err());
}

#[test]
fn parallel_process_ignores_the_caller_rng_entirely() {
    // The driving RNG may be shared with other observers; stream mode must never touch it.
    let graph = torus();
    let spec: ProcessSpec = "bips:k=2".parse().unwrap();
    let inner = spec.build(&graph).unwrap();
    let engine = ParallelFrontier::new(VertexStreams::new([3u8; 32]), 2).unwrap();
    let mut p = ParallelProcess::new(inner, engine);
    let mut counting = CountingRng::new(ChaCha12Rng::seed_from_u64(0));
    for _ in 0..10 {
        p.step(&mut counting);
    }
    assert_eq!(counting.count(), 0, "stream mode must not consume the caller's RNG");
    let _ = counting.next_u64();
}

/// The oblivious plans of `tests/adversary_equivalence.rs`: plain loss, sampled crashes,
/// the combination, a bursty channel, transient crash/repair dynamics and per-edge
/// channels.
const OBLIVIOUS_CLAUSE_SETS: [&str; 7] = [
    "drop=0",
    "drop=0.15",
    "crash=10%",
    "drop=0.1+crash=5%",
    "gedrop=0.2,0.3,0.5",
    "crash=10%+repair=0.2",
    "gedrop=0.2,0.3,0.5:scope=edge",
];

#[test]
fn oblivious_adversary_is_bit_identical_to_the_plain_plan_in_stream_mode() {
    // `adv=oblivious` builds no policy, so the plan dynamics draw from the same reserved
    // fault stream with or without the clause: same trajectory at every thread count.
    let graph = expander();
    for raw in BARE_SPECS.into_iter().chain(["contact:p=0.3,q=0.2"]) {
        for clauses in OBLIVIOUS_CLAUSE_SETS {
            let plain: ProcessSpec = format!("{raw}+{clauses}").parse().unwrap();
            let oblivious: ProcessSpec = format!("{raw}+{clauses}+adv=oblivious").parse().unwrap();
            let key = [(raw.len() + clauses.len()) as u8; 32];
            for threads in [1, 4] {
                assert_eq!(
                    stream_trajectory(&plain, &graph, key, threads, 50),
                    stream_trajectory(&oblivious, &graph, key, threads, 50),
                    "{oblivious} diverged from {plain} at {threads} threads"
                );
            }
        }
    }
}

#[test]
fn edge_channels_under_policies_are_identical_across_thread_counts() {
    let graph = expander();
    let raw =
        "cobra:k=2+gedrop=0.05,0.2,0.4:scope=edge+adv=topdeg:budget=5%+def=reseed:m=1%,cooldown=16";
    let spec: ProcessSpec = raw.parse().unwrap();
    let key = [raw.len() as u8; 32];
    let base = stream_trajectory(&spec, &graph, key, 1, 60);
    assert!(base.len() > 1, "{raw} must actually step");
    for threads in 2..=8 {
        let other = stream_trajectory(&spec, &graph, key, threads, 60);
        assert_eq!(base, other, "{raw} diverged between 1 and {threads} threads");
    }
}
