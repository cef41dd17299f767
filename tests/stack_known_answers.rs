//! Known-answer pins for every process, bare and under non-benign fault/adversary/defense
//! stacks.
//!
//! The equivalence suites compare one route against another (oblivious vs plain, inert vs
//! bare); this file pins *absolute* trajectories on one fixed random-regular graph, in
//! sequential mode and in stream mode (one thread, fixed trial key): five adversity stacks
//! over five processes, and every process spec bare and under a per-edge channel bank plus
//! crashes, which reaches the crash and edge-bank hooks of every stepping kernel. Each digest
//! hashes, per round, the round index, the sorted delta, `num_active` and the coverage count
//! — plus, in sequential mode, the exact number of RNG words the round drew — and finally the
//! run's defense cost ledger.
//!
//! The ledger is recomputed by an observer-side replica of the stack's defense policy: it
//! observes the same pre-round state through the public [`ProcessView`], takes the same
//! decisions (the shipped defense policies draw nothing) and charges them with the
//! processes' documented lever costs. The pins therefore use only the spec/view API and do
//! not depend on how a wrapper exposes its ledger.
//!
//! Every digest is computed twice: with a fresh build per trial, and with one process per
//! `(spec, stack, mode)` that is `reset` (sequential) or `rekey`ed (stream) between trials,
//! which is how the drivers reuse processes. In sequential mode 13 of the 43 cells stop every
//! trial at `MAX_ROUNDS`, 25 complete every trial and 5 mix both, so reuse after incomplete
//! and after complete trials is covered.
//!
//! A mismatch prints the full table of observed digests.

use cobra::core::adversary::ProcessView;
use cobra::core::defense::{DefensePolicy, DefenseStats};
use cobra::core::parallel::{ParallelFrontier, ParallelProcess};
use cobra::core::spec::ProcessSpec;
use cobra::core::{CountingRng, SpreadingProcess};
use cobra::graph::sample::VertexStreams;
use cobra::graph::{generators, Graph};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;

const PROCESSES: [&str; 5] = ["cobra:k=2", "bips:k=2", "push", "walks:w=6", "contact:p=0.8,q=0.1"];

const STACKS: [&str; 5] = [
    "drop=0.05+adv=dropfront:f=0.25+def=reseed:m=1%,cooldown=16",
    "drop=0.1+crash=5%+adv=topdeg:budget=5%+def=boostk:trigger=stall,w=8,cap=4",
    "gedrop=0.2,0.3,0.5+crash=10%+repair=0.2+adv=partition:w=8",
    "crash=10%+repair=0.2+adv=dropfront:f=0.5+def=adaptivek:target=growth-ratio",
    "drop=0.3+def=reseed:m=1%,cooldown=4",
];

/// Trials per `(process, stack, mode)`; every trial folds into the one digest.
const TRIALS: u64 = 6;
const MAX_ROUNDS: usize = 120;

/// Digests recorded per `(process, stack)`: `(sequential, stream)`.
#[rustfmt::skip]
const EXPECTED: [[(u64, u64); 5]; 5] = [
    [(0xd74ae6223b88d73d, 0x16451400e9395043), (0xd852cd9e8bb56f74, 0x12a89713420a22b4), (0xdf2ecb61687dffba, 0x52a79b1d62f32107), (0xbdde3ab43dbc690e, 0x4ea6b1969cb35944), (0xa617f0b09efa23eb, 0xb328d3270c647ea3)],
    [(0xb63351c6a0a49693, 0x0816bad04dff95db), (0xc39bd8862bac97d6, 0x863e866e6b5ced4f), (0xcb73d99b998b1fde, 0x8d193db404ed8efe), (0x68db2b2d8f3edc6d, 0xa3cfe93e51c3549b), (0x35d8d1e9e4c74831, 0xa4ad33a06ed3fb39)],
    [(0xa1252a519b0f4943, 0x4106504baf50de27), (0x17b15bec8223a9bd, 0xe1fb9ddd1059d2e3), (0x90781e1da29d6e08, 0xe336ed67e4a9ae28), (0xe3b2c597059d21c7, 0xaf2767278c2b1bee), (0x9d0024b13d4c8b64, 0x4a01f19444402d1e)],
    [(0x12753655996f9ad0, 0x7cea1a971cfea2b7), (0x6caa3568c876e040, 0xcb6922b6735d207f), (0xc4d5043f88d7afac, 0x4e1bcf1a12400e09), (0x184e5b14c011c9a9, 0x6f4c43b8abd4c999), (0xc580097a255d6229, 0x9e131c29eb2d840e)],
    [(0x18a0ee4101b11738, 0xfdb418535f5f5aaa), (0xeaca8d6f87534171, 0x41f9d14bde71b7b6), (0x9c3e377f2c151882, 0xc2e61b3e5c998fc8), (0x6cfb126b8189f24b, 0x23ae60159096e09f), (0x68a1a239d1af01c9, 0xe355725ec8b7c0e4)],
];

const PROCESS_SPECS: [&str; 9] = [
    "cobra:k=2",
    "cobra:rho=0.5",
    "cobra:k=deg:cap=4",
    "bips:k=2",
    "walk",
    "walks:w=6",
    "push",
    "pushpull",
    "contact:p=0.8,q=0.1",
];

/// The bare process, then per-edge Gilbert–Elliott loss plus sampled crashes.
const PROCESS_STACKS: [&str; 2] = ["", "gedrop=0.1,0.25,0.5:scope=edge+crash=5%"];

/// Digests recorded per `(process spec, stack)`: `(sequential, stream)`.
#[rustfmt::skip]
const EXPECTED_PROCESSES: [[(u64, u64); 2]; 9] = [
    [(0x5fc7033076011fb5, 0xaa5feee25f1bedf8), (0x031fda006444c064, 0x272bb5f0e7069796)],
    [(0x9518f63a8ae2daee, 0x4053dda386b69d56), (0x88c2ea21b1b73163, 0x599d2b3036a3ea18)],
    [(0x6bf40de39a5e12fd, 0x0cee23b151cd7e6b), (0x6d74a10866c88d81, 0x3728762c119c8c35)],
    [(0x806ac943a4a46fdc, 0x3da2d52f3b43aa01), (0xeaa10d6dae30ceb0, 0x71a2e0a27d34da30)],
    [(0x2eff7aa643e387b5, 0x16e1d6c9cbf2fd03), (0xb2577bf1bf0995af, 0x89edfd93c8c1d061)],
    [(0x3636d9fa0a212638, 0xe396030e3a04ae94), (0xe1f06652913ec816, 0xd1789ad299d7ec97)],
    [(0x472ed80998fdbef9, 0xac8de7f9da378834), (0x61470f687c5887d4, 0x160dd48a716c6a09)],
    [(0xdb98774a8c860b31, 0x6f633f0361781054), (0xce37b6f07bf24e49, 0x6885a9b8a8b681e8)],
    [(0x3111ef5494c32474, 0x894ed9d917d6772b), (0x32364d282b88e348, 0xd2c5e551a6f32845)],
];

fn graph() -> Graph {
    generators::connected_random_regular(160, 6, &mut ChaCha12Rng::seed_from_u64(2016)).unwrap()
}

/// 64-bit FNV-1a over little-endian words: stable across toolchains, unlike `std`'s hasher.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// An RNG the shipped defense policies must never touch.
struct NoDraws;

impl RngCore for NoDraws {
    fn next_u32(&mut self) -> u32 {
        panic!("defense observation must not draw")
    }

    fn next_u64(&mut self) -> u64 {
        panic!("defense observation must not draw")
    }
}

/// The branching lever's per-round cost, as each process documents it for
/// `set_branching_boost`: COBRA charges `(m − 1)·k·|frontier|`, BIPS `(m − 1)·k·(n − 1)`, and
/// processes without a lever charge nothing.
fn boost_cost(process: &str, multiplier: u32, num_active: usize, n: usize) -> f64 {
    let extra = f64::from(multiplier - 1);
    match process {
        "cobra:k=2" => extra * 2.0 * num_active as f64,
        "bips:k=2" => extra * 2.0 * (n - 1) as f64,
        _ => 0.0,
    }
}

/// Observer-side replica of a stack's defense ledger.
struct Ledger {
    process: &'static str,
    policy: Option<Box<dyn DefensePolicy>>,
    applied: u32,
    stats: DefenseStats,
}

impl Ledger {
    fn new(process: &'static str, spec: &ProcessSpec) -> Self {
        let policy = spec
            .fault_plan()
            .and_then(|plan| plan.defense.as_ref())
            .map(|defense| defense.build_policy().expect("stack defenses validate"));
        Ledger { process, policy, applied: 1, stats: DefenseStats::default() }
    }

    /// Takes the round's decision on the pre-round state and charges it.
    fn charge(&mut self, p: &dyn SpreadingProcess, graph: &Graph) {
        let Some(policy) = self.policy.as_mut() else { return };
        policy.observe(&ProcessView::new(p, graph), &mut NoDraws);
        let actions = policy.actions();
        let mut num_active = p.num_active();
        if !actions.reseed.is_empty() && self.process != "walks:w=6" {
            // The re-seeding stacks crash nothing, so every inactive target revives.
            let revived = actions.reseed.iter().filter(|&&v| !p.active().contains(v)).count();
            if revived > 0 {
                self.stats.reseed_events += 1;
                self.stats.reseeded_vertices += revived;
            }
            num_active += revived;
        }
        let multiplier = actions.k_multiplier.max(1);
        if multiplier != self.applied || multiplier > 1 {
            self.applied = multiplier;
            if multiplier > 1 {
                self.stats.boost_rounds += 1;
                self.stats.extra_transmissions +=
                    boost_cost(self.process, multiplier, num_active, graph.num_vertices());
            }
        }
        if actions.backoff > 0 {
            self.stats.backoff_rounds += 1;
        }
    }

    fn fold_into(&self, hash: &mut Fnv) {
        let s = self.stats;
        for word in [
            s.boost_rounds as u64,
            s.extra_transmissions.to_bits(),
            s.reseed_events as u64,
            s.reseeded_vertices as u64,
            s.backoff_rounds as u64,
        ] {
            hash.word(word);
        }
    }
}

fn fold_round(hash: &mut Fnv, p: &dyn SpreadingProcess) {
    hash.word(p.round() as u64);
    let mut delta = p.newly_activated().to_vec();
    delta.sort_unstable();
    hash.word(delta.len() as u64);
    for v in delta {
        hash.word(v as u64);
    }
    hash.word(p.num_active() as u64);
    hash.word(p.coverage().map_or(u64::MAX, |c| c.count() as u64));
}

/// Sequential mode: trial `seed` runs on its own seeded RNG, and every round's exact word
/// count joins the digest.
fn sequential_trial(
    process: &'static str,
    spec: &ProcessSpec,
    p: &mut dyn SpreadingProcess,
    graph: &Graph,
    seed: u64,
    hash: &mut Fnv,
) {
    let mut ledger = Ledger::new(process, spec);
    let mut rng = CountingRng::new(ChaCha12Rng::seed_from_u64(seed));
    fold_round(hash, p);
    for _ in 0..MAX_ROUNDS {
        if p.is_complete() {
            break;
        }
        ledger.charge(p, graph);
        p.step(&mut rng);
        fold_round(hash, p);
        hash.word(rng.take_count());
    }
    ledger.fold_into(hash);
}

/// Stream mode at one thread: trial `seed` runs under the fixed key `[seed ^ 0x5A; 32]`.
fn stream_trial(
    process: &'static str,
    spec: &ProcessSpec,
    p: &mut ParallelProcess<'_>,
    graph: &Graph,
    hash: &mut Fnv,
) {
    let mut ledger = Ledger::new(process, spec);
    let mut unused = ChaCha12Rng::seed_from_u64(0);
    fold_round(hash, p);
    for _ in 0..MAX_ROUNDS {
        if p.is_complete() {
            break;
        }
        ledger.charge(p, graph);
        p.step(&mut unused);
        fold_round(hash, p);
    }
    ledger.fold_into(hash);
}

/// The byte the stream key of trial `seed` repeats.
fn key_byte(seed: u64) -> u8 {
    seed as u8 ^ 0x5A
}

/// An RNG whose every word repeats one key byte, so [`ParallelProcess::rekey`] draws the
/// same key as `VertexStreams::new([byte; 32])`.
struct KeyWords(u8);

impl RngCore for KeyWords {
    fn next_u32(&mut self) -> u32 {
        u32::from_le_bytes([self.0; 4])
    }

    fn next_u64(&mut self) -> u64 {
        u64::from_le_bytes([self.0; 8])
    }
}

/// How the trials of one `(spec, stack, mode)` cell get their process.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Build {
    /// A fresh build per trial.
    Fresh,
    /// One build, then `reset` (sequential) or `rekey` (stream) before every trial.
    Reused,
}

/// Digests of every `(process, stack)` pair; an empty stack is the bare process.
fn observe<const P: usize, const S: usize>(
    processes: [&'static str; P],
    stacks: [&str; S],
    build: Build,
) -> [[(u64, u64); S]; P] {
    let graph = graph();
    let mut observed = [[(0u64, 0u64); S]; P];
    for (i, process) in processes.into_iter().enumerate() {
        for (j, stack) in stacks.into_iter().enumerate() {
            let text =
                if stack.is_empty() { process.to_string() } else { format!("{process}+{stack}") };
            let spec: ProcessSpec = text.parse().expect("stack parses");
            let stream_process = |seed| {
                let key = VertexStreams::new([key_byte(seed); 32]);
                let engine = ParallelFrontier::new(key, 1).expect("one thread");
                ParallelProcess::new(spec.build(&graph).expect("stack builds"), engine)
            };
            let mut sequential_p = spec.build(&graph).expect("stack builds");
            let mut stream_p = stream_process(0);
            let (mut sequential, mut stream) = (Fnv::new(), Fnv::new());
            for seed in 0..TRIALS {
                match build {
                    Build::Fresh => {
                        sequential_p = spec.build(&graph).expect("stack builds");
                        stream_p = stream_process(seed);
                    }
                    Build::Reused => {
                        sequential_p.reset();
                        stream_p.rekey(&mut KeyWords(key_byte(seed)));
                    }
                }
                sequential_trial(
                    process,
                    &spec,
                    sequential_p.as_mut(),
                    &graph,
                    seed,
                    &mut sequential,
                );
                stream_trial(process, &spec, &mut stream_p, &graph, &mut stream);
            }
            observed[i][j] = (sequential.0, stream.0);
        }
    }
    observed
}

fn assert_digests<const P: usize, const S: usize>(
    observed: [[(u64, u64); S]; P],
    expected: [[(u64, u64); S]; P],
) {
    let table: Vec<String> = observed
        .iter()
        .map(|row| {
            let cells: Vec<String> =
                row.iter().map(|(s, t)| format!("({s:#018x}, {t:#018x})")).collect();
            format!("    [{}],", cells.join(", "))
        })
        .collect();
    assert_eq!(observed, expected, "observed digests:\n{}", table.join("\n"));
}

#[test]
fn adversity_stacks_reproduce_their_recorded_trajectories() {
    assert_digests(observe(PROCESSES, STACKS, Build::Fresh), EXPECTED);
}

#[test]
fn processes_reproduce_their_recorded_trajectories() {
    assert_digests(observe(PROCESS_SPECS, PROCESS_STACKS, Build::Fresh), EXPECTED_PROCESSES);
}

#[test]
fn reused_adversity_stacks_reproduce_their_recorded_trajectories() {
    assert_digests(observe(PROCESSES, STACKS, Build::Reused), EXPECTED);
}

#[test]
fn reused_processes_reproduce_their_recorded_trajectories() {
    assert_digests(observe(PROCESS_SPECS, PROCESS_STACKS, Build::Reused), EXPECTED_PROCESSES);
}
