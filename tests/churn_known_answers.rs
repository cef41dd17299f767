//! Known-answer pins for churned runs.
//!
//! `tests/churn_observers.rs` checks the contracts of observers threaded across churn
//! epochs; this file pins the *absolute* trajectories `fault::run_churned_observed` produces:
//! five processes under `churn=3` and one adversity stack under `churn=4`, each over six
//! seeds on a small random-regular family, once with a budget that ends mid-epoch and once
//! with a budget large enough to finish. Each digest hashes, per observed round (the
//! initial state included), the round index, the sorted delta, `num_active` and the coverage
//! count, and then the run's [`RunOutcome`].
//!
//! A mismatch prints the full list of observed digests.

use cobra::core::fault::run_churned_observed;
use cobra::core::process::SpreadingProcess;
use cobra::core::sim::{Observer, RunOutcome, Runner, StopReason};
use cobra::core::spec::ProcessSpec;
use cobra::graph::generators::GraphFamily;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

const SPECS: [&str; 6] = [
    "cobra:k=2+churn=3",
    "bips:k=2+churn=3",
    "push+churn=3",
    "walks:w=6+churn=3",
    "contact:p=0.8,q=0.1+churn=3",
    "cobra:k=2+drop=0.1+crash=5%+adv=dropfront:f=0.5+churn=4",
];

const SEEDS: u64 = 6;

/// A budget that stops inside an epoch, then one that lets most runs finish.
const BUDGETS: [usize; 2] = [10, 200];

/// Digests recorded per spec, in `SPECS` order.
const EXPECTED: [u64; 6] = [
    0x3d774f343755c902,
    0xc2f54e9b281257c3,
    0x445e04ae1de736a6,
    0x2afb39307339b066,
    0x1700e73714fbc385,
    0x71c01ddaa9eb5c25,
];

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

/// Folds every observed state into the digest.
struct Digest<'h>(&'h mut Fnv);

impl Digest<'_> {
    fn fold(&mut self, p: &dyn SpreadingProcess) {
        self.0.word(p.round() as u64);
        let mut delta = p.newly_activated().to_vec();
        delta.sort_unstable();
        self.0.word(delta.len() as u64);
        for v in delta {
            self.0.word(v as u64);
        }
        self.0.word(p.num_active() as u64);
        self.0.word(p.coverage().map_or(u64::MAX, |c| c.count() as u64));
    }
}

impl Observer for Digest<'_> {
    fn on_start(&mut self, process: &dyn SpreadingProcess) {
        self.fold(process);
    }

    fn on_round(&mut self, process: &dyn SpreadingProcess) {
        self.fold(process);
    }
}

fn fold_outcome(hash: &mut Fnv, outcome: &RunOutcome) {
    let reason = match outcome.reason {
        StopReason::Completed => 0,
        StopReason::TargetReached => 1,
        StopReason::BudgetExhausted => 2,
    };
    for word in [outcome.rounds, outcome.final_active, outcome.num_vertices, reason] {
        hash.word(word as u64);
    }
}

#[test]
fn churned_runs_reproduce_their_recorded_trajectories() {
    let family = GraphFamily::RandomRegular { n: 64, r: 4 };
    let observed: Vec<u64> = SPECS
        .iter()
        .map(|text| {
            let spec: ProcessSpec = text.parse().expect("spec parses");
            let mut hash = Fnv::new();
            for budget in BUDGETS {
                let runner = Runner::new(budget);
                for seed in 0..SEEDS {
                    let mut rng = ChaCha12Rng::seed_from_u64(seed);
                    let outcome = run_churned_observed(
                        &spec,
                        &family,
                        &runner,
                        &mut rng,
                        &mut [&mut Digest(&mut hash)],
                    )
                    .expect("churned run");
                    fold_outcome(&mut hash, &outcome);
                }
            }
            hash.0
        })
        .collect();
    let table: Vec<String> = observed.iter().map(|d| format!("    {d:#018x},")).collect();
    assert_eq!(observed, EXPECTED, "observed digests:\n{}", table.join("\n"));
}
