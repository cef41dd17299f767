//! A discrete-time SIS contact process with an optional persistent source.
//!
//! The paper notes that COBRA/BIPS is a discrete cousin of Harris' contact process: infected
//! vertices infect each neighbour at rate `µ` and recover at rate 1. The discrete-time
//! approximation here proceeds in rounds: an infected vertex infects each neighbour
//! independently with probability `infection_probability`, and then recovers with probability
//! `recovery_probability` (unless it is the persistent source, mirroring the BVDV
//! "persistently infected animal" scenario the paper cites). Unlike BIPS, the process can die
//! out when no source is pinned — which is exactly the behaviour the experiments contrast.
//!
//! Transmission is push-style, so a round iterates the explicit infected frontier and costs
//! `O(Σ_{u ∈ A_t} deg(u) + n/512)` — independent of how many vertices are *healthy*.

use cobra_graph::{Graph, VertexBitset, VertexId};
use rand::{Rng, RngCore};

use crate::fault::StepFaults;
use crate::parallel::Draws;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// Parameters of the discrete SIS contact process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContactParameters {
    /// Probability that an infected vertex transmits to a given neighbour in one round.
    pub infection_probability: f64,
    /// Probability that an infected vertex recovers at the end of a round.
    pub recovery_probability: f64,
}

impl ContactParameters {
    /// Validated constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if either probability is outside `[0, 1]`.
    pub fn new(infection_probability: f64, recovery_probability: f64) -> Result<Self> {
        for (name, p) in [("infection", infection_probability), ("recovery", recovery_probability)]
        {
            if !(0.0..=1.0).contains(&p) || !p.is_finite() {
                return Err(CoreError::InvalidParameters {
                    reason: format!("{name} probability {p} must be in [0, 1]"),
                });
            }
        }
        Ok(ContactParameters { infection_probability, recovery_probability })
    }
}

/// A running discrete SIS contact process.
#[derive(Debug, Clone)]
pub struct ContactProcess<'g> {
    graph: &'g Graph,
    source: VertexId,
    persistent_source: bool,
    parameters: ContactParameters,
    infected: VertexBitset,
    /// `A_t` as an ascending list — the frontier the transmission loop iterates.
    frontier: Vec<VertexId>,
    /// Scratch for `A_{t+1}`; all-clear between steps.
    next_infected: VertexBitset,
    newly: Vec<VertexId>,
    round: usize,
}

impl<'g> ContactProcess<'g> {
    /// Creates a contact process started from `source`. When `persistent_source` is true the
    /// source never recovers (the BVDV scenario); otherwise the epidemic can go extinct.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::UnsuitableGraph`] if the graph is empty or (for `n > 1`) has an
    /// isolated vertex — infection only travels along edges, so an isolated vertex can
    /// never be infected and every full-infection run would exhaust its budget — and the
    /// usual vertex validation errors.
    pub fn new(
        graph: &'g Graph,
        source: VertexId,
        parameters: ContactParameters,
        persistent_source: bool,
    ) -> Result<Self> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(CoreError::UnsuitableGraph { reason: "empty graph".to_string() });
        }
        if source >= n {
            return Err(CoreError::VertexOutOfRange { vertex: source, num_vertices: n });
        }
        if n > 1 {
            if let Some(isolated) = graph.first_isolated() {
                return Err(CoreError::UnsuitableGraph {
                    reason: format!("vertex {isolated} is isolated and can never be infected"),
                });
            }
        }
        let mut infected = VertexBitset::new(n);
        infected.insert(source);
        Ok(ContactProcess {
            graph,
            source,
            persistent_source,
            parameters,
            infected,
            frontier: vec![source],
            next_infected: VertexBitset::new(n),
            newly: vec![source],
            round: 0,
        })
    }

    /// Number of currently infected vertices.
    pub fn num_infected(&self) -> usize {
        self.frontier.len()
    }

    /// Whether the epidemic has died out (no infected vertices left).
    pub fn extinct(&self) -> bool {
        self.frontier.is_empty()
    }
}

/// Where a sender's infections go.
trait Infections {
    /// Whether infecting `v` can still change this round's outcome; a sender skips the draw
    /// for a closed target.
    fn is_open(&self, v: VertexId) -> bool;

    /// Records that `v` is infected next round.
    fn infect(&mut self, v: VertexId);
}

/// A stream-mode shard buffer. Every target is open: whether another sender already
/// claimed it is cross-sender state, which would make a sender's draw count depend on the
/// schedule. Drawing every neighbour is distribution-identical (a skipped draw is an
/// independent Bernoulli whose outcome cannot matter) and makes each sender's draw count a
/// pure function of its degree.
impl Infections for Vec<VertexId> {
    fn is_open(&self, _: VertexId) -> bool {
        true
    }

    fn infect(&mut self, v: VertexId) {
        self.push(v);
    }
}

/// The live next-round state: what sequential senders write inline, and what stream mode
/// merges its shard buffers into.
struct NextRound<'a> {
    next: &'a mut VertexBitset,
    infected: &'a VertexBitset,
    newly: &'a mut Vec<VertexId>,
}

// Always inlined: called from both draw sources, they would otherwise become out-of-line
// calls per transmission.
impl Infections for NextRound<'_> {
    #[inline(always)]
    fn is_open(&self, v: VertexId) -> bool {
        !self.next.contains(v)
    }

    #[inline(always)]
    fn infect(&mut self, v: VertexId) {
        // A survivor was infected this round, so it is never a new activation.
        if self.next.insert(v) && !self.infected.contains(v) {
            self.newly.push(v);
        }
    }
}

/// One round's read-only contact inputs and the per-sender kernel that both draw sources
/// iterate.
struct Spreader<'a> {
    graph: &'a Graph,
    parameters: ContactParameters,
    /// The source when it is persistent (never recovers).
    pinned: Option<VertexId>,
    faults: &'a StepFaults<'a>,
}

impl Spreader<'_> {
    /// Draws infected `u`'s transmissions, one Bernoulli per open neighbour, then its
    /// recovery, and records the infections and `u`'s survival in `next`, in that order.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    #[inline]
    fn spread<R: RngCore>(&self, u: VertexId, rng: &mut R, next: &mut impl Infections) {
        // A crashed vertex stays ill without infecting anyone (recovery still applies).
        if !self.faults.is_crashed(u) {
            // An i.i.d.-dropped transmission composes into one Bernoulli draw with the
            // effective probability p(1-f) — per sender, so a targeted (frontier) drop
            // lowers only the targeted senders' rate; with no faults the stream is untouched.
            let transmit =
                self.parameters.infection_probability * (1.0 - self.faults.sender_drop(u));
            for v in self.graph.neighbor_iter(u) {
                // Per-edge channel loss folds into the per-neighbour Bernoulli too (the edge
                // identity is known here); 1 - 0 with no bank active.
                let transmit = transmit * (1.0 - self.faults.edge_drop_probability(u, v));
                if next.is_open(v)
                    && !self.faults.severs(u, v)
                    && transmit > 0.0
                    && rng.gen_bool(transmit)
                {
                    next.infect(v);
                }
            }
        }
        let recovery = self.parameters.recovery_probability;
        let recovers = self.pinned != Some(u) && recovery > 0.0 && rng.gen_bool(recovery);
        if !recovers {
            next.infect(u);
        }
    }
}

impl SpreadingProcess for ContactProcess<'_> {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.newly.clear();
        let pinned = self.persistent_source.then_some(self.source);
        let spreader = Spreader { graph: self.graph, parameters: self.parameters, pinned, faults };
        let mut next = NextRound {
            next: &mut self.next_infected,
            infected: &self.infected,
            newly: &mut self.newly,
        };
        match draws {
            // The frontier is ascending, so transmission/recovery draws happen in the dense
            // engine's vertex order and the RNG streams stay identical.
            Draws::Trial(mut rng) => {
                for &u in &self.frontier {
                    spreader.spread(u, &mut rng, &mut next);
                }
            }
            // Sender `u` draws from its own `(vertex, round)` stream. Each shard records
            // its inserts in sequential-scan order, so the shard-order merge reproduces one
            // fixed insertion order at every thread count.
            Draws::Streams(engine) => {
                let (frontier, round) = (&self.frontier, self.round as u64);
                let shards = engine.shard_buffers(frontier.len(), |range, inserts| {
                    let senders = frontier[range].iter().map(|&u| u as u64);
                    engine.streams().for_each_stream(senders, round, |u, rng| {
                        spreader.spread(u as VertexId, rng, inserts);
                    });
                });
                for v in shards.into_iter().flatten() {
                    next.infect(v);
                }
            }
        }
        if let Some(source) = pinned {
            // A no-op when the source started infected, but kept for state safety: a
            // re-pinned source that was healthy this round is a genuine activation.
            next.infect(source);
        }
        // Erase A_t through its own member list, swap, re-materialise the frontier.
        self.infected.clear_list(&self.frontier);
        std::mem::swap(&mut self.infected, &mut self.next_infected);
        self.frontier.clear();
        self.infected.collect_into(&mut self.frontier);
        self.round += 1;
    }

    fn round(&self) -> usize {
        self.round
    }

    fn active(&self) -> &VertexBitset {
        &self.infected
    }

    fn num_active(&self) -> usize {
        self.frontier.len()
    }

    fn newly_activated(&self) -> &[VertexId] {
        &self.newly
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        for &v in &self.frontier {
            f(v);
        }
    }

    fn is_complete(&self) -> bool {
        self.frontier.len() == self.graph.num_vertices()
    }

    fn adopt_state(
        &mut self,
        active: &[VertexId],
        coverage: Option<&VertexBitset>,
        round: usize,
    ) -> Result<()> {
        crate::process::validate_adopted_state(self.graph.num_vertices(), active, coverage)?;
        self.infected.clear_list(&self.frontier);
        self.frontier.clear();
        self.newly.clear();
        for &v in active {
            if self.infected.insert(v) {
                self.newly.push(v);
            }
        }
        if self.persistent_source && self.infected.insert(self.source) {
            self.newly.push(self.source);
        }
        self.infected.collect_into(&mut self.frontier);
        self.round = round;
        Ok(())
    }

    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        // Re-infect the given vertices — the defense analogue of re-introducing the disease
        // into a recovered host. No branching lever exists here, so `reseed` is the only hook.
        let mut inserted = 0;
        for &v in vertices {
            if v < self.graph.num_vertices() && self.infected.insert(v) {
                self.newly.push(v);
                inserted += 1;
            }
        }
        if inserted > 0 {
            self.frontier.clear();
            self.infected.collect_into(&mut self.frontier);
        }
        inserted
    }

    fn reset(&mut self) {
        self.infected.clear_list(&self.frontier);
        self.frontier.clear();
        self.infected.insert(self.source);
        self.frontier.push(self.source);
        self.newly.clear();
        self.newly.push(self.source);
        self.round = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::run_until_complete;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn parameter_validation() {
        assert!(ContactParameters::new(0.5, 0.5).is_ok());
        assert!(ContactParameters::new(-0.1, 0.5).is_err());
        assert!(ContactParameters::new(0.5, 1.5).is_err());
        assert!(ContactParameters::new(f64::NAN, 0.5).is_err());
        let g = generators::cycle(5).unwrap();
        let params = ContactParameters::new(0.5, 0.5).unwrap();
        assert!(ContactProcess::new(&g, 9, params, true).is_err());
        assert!(ContactProcess::new(&cobra_graph::Graph::default(), 0, params, true).is_err());
    }

    #[test]
    fn isolated_vertices_are_rejected_like_the_other_processes() {
        // Regression: the contact process accepted graphs with isolated vertices and then
        // ran to its round budget on every trial (the infection can never reach them).
        let isolated = cobra_graph::Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let params = ContactParameters::new(0.5, 0.5).unwrap();
        let err = ContactProcess::new(&isolated, 0, params, true).unwrap_err();
        assert!(
            matches!(err, crate::CoreError::UnsuitableGraph { ref reason } if reason.contains("3")),
            "must name the isolated vertex: {err}"
        );
        // The single-vertex graph stays fine: its only vertex is the source.
        let singleton = cobra_graph::Graph::from_edges(1, &[]).unwrap();
        assert!(ContactProcess::new(&singleton, 0, params, true).is_ok());
    }

    #[test]
    fn persistent_source_never_recovers() {
        let g = generators::cycle(12).unwrap();
        let params = ContactParameters::new(0.2, 0.9).unwrap();
        let mut process = ContactProcess::new(&g, 5, params, true).unwrap();
        let mut r = rng(1);
        for _ in 0..100 {
            process.step(&mut r);
            assert!(process.active().contains(5), "persistent source must stay infected");
            assert!(!process.extinct());
        }
    }

    #[test]
    fn without_a_persistent_source_the_epidemic_can_die_out() {
        // High recovery, low transmission: extinction is essentially certain quickly.
        let g = generators::cycle(12).unwrap();
        let params = ContactParameters::new(0.05, 0.95).unwrap();
        let mut extinctions = 0;
        for seed in 0..20u64 {
            let mut process = ContactProcess::new(&g, 0, params, false).unwrap();
            let mut r = rng(seed);
            for _ in 0..200 {
                process.step(&mut r);
                if process.extinct() {
                    extinctions += 1;
                    break;
                }
            }
        }
        assert!(extinctions >= 15, "only {extinctions}/20 runs went extinct");
    }

    #[test]
    fn aggressive_parameters_infect_everything_with_a_persistent_source() {
        let g = generators::complete(32).unwrap();
        let params = ContactParameters::new(0.5, 0.2).unwrap();
        let mut process = ContactProcess::new(&g, 0, params, true).unwrap();
        let rounds = run_until_complete(&mut process, &mut rng(3), 100_000).unwrap();
        assert!(rounds < 100);
        assert!(process.is_complete());
    }

    #[test]
    fn frontier_stays_in_sync_with_the_bitset() {
        let g = generators::hypercube(5).unwrap();
        let params = ContactParameters::new(0.3, 0.4).unwrap();
        let mut process = ContactProcess::new(&g, 0, params, true).unwrap();
        let mut r = rng(8);
        for _ in 0..50 {
            process.step(&mut r);
            let mut listed = Vec::new();
            process.for_each_active(&mut |v| listed.push(v));
            assert_eq!(listed, process.active().iter().collect::<Vec<_>>());
            assert_eq!(process.num_infected(), process.active().count());
        }
    }

    #[test]
    fn zero_infection_probability_never_spreads() {
        let g = generators::complete(8).unwrap();
        let params = ContactParameters::new(0.0, 0.0).unwrap();
        let mut process = ContactProcess::new(&g, 0, params, true).unwrap();
        let mut r = rng(4);
        for _ in 0..20 {
            process.step(&mut r);
            assert_eq!(process.num_infected(), 1);
        }
    }

    #[test]
    fn reset_restores_the_source_only() {
        let g = generators::complete(16).unwrap();
        let params = ContactParameters::new(0.4, 0.3).unwrap();
        let mut process = ContactProcess::new(&g, 2, params, true).unwrap();
        let mut r = rng(5);
        for _ in 0..10 {
            process.step(&mut r);
        }
        process.reset();
        assert_eq!(process.num_infected(), 1);
        assert!(process.active().contains(2));
        assert_eq!(process.round(), 0);
        assert_eq!(process.newly_activated(), &[2]);
    }
}
