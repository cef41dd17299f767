//! The BIPS (Biased Infection with Persistent Source) epidemic process.
//!
//! One round of BIPS with parameter `k` and source `v` on a graph `G = (V, E)`:
//!
//! 1. every vertex `u ≠ v` independently chooses `k` neighbours uniformly at random **with
//!    replacement**;
//! 2. `u` is infected in round `t+1` iff at least one chosen neighbour was infected in round
//!    `t` — vertices *refresh* their state each round (an SIS-type dynamic);
//! 3. the source `v` is infected in every round.
//!
//! The paper's Theorem 2 shows the whole graph is infected within `O(log n/(1-λ)³)` rounds
//! w.h.p.; Theorem 4 shows BIPS is the time-reversal dual of COBRA. The fractional variant
//! used by Corollary 1 (one sample always, a second with probability `ρ`) is supported through
//! the same [`Branching`] type as COBRA.
//!
//! # Cost model
//!
//! BIPS is a *pull* process: **every** vertex re-samples every round regardless of the
//! infected set, so a round is inherently `Θ(n·k)` RNG draws — there is no sparse frontier to
//! exploit on the sampling side (unlike COBRA/PUSH, where only active vertices touch the
//! RNG). The frontier bookkeeping here ([`SpreadingProcess::newly_activated`], the ascending
//! infected list behind [`SpreadingProcess::for_each_active`]) still matters: it lets
//! observers and the growth audits consume the infected set in `O(|A_t|)` instead of
//! rescanning `n` slots per round.

use cobra_graph::{sample, Graph, VertexBitset, VertexId};
use rand::RngCore;

use crate::cobra::Branching;
use crate::fault::StepFaults;
use crate::parallel::Draws;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// A running BIPS process over a borrowed graph.
///
/// [`SpreadingProcess::active`] reports the *currently infected* set `A_t`;
/// [`SpreadingProcess::is_complete`] holds when `A_t = V`.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use cobra_core::bips::BipsProcess;
/// use cobra_core::cobra::Branching;
/// use cobra_core::process::{run_until_complete, SpreadingProcess};
/// use cobra_graph::generators;
/// use rand::SeedableRng;
///
/// let g = generators::complete(64)?;
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(3);
/// let mut bips = BipsProcess::new(&g, 0, Branching::fixed(2)?)?;
/// let rounds = run_until_complete(&mut bips, &mut rng, 1_000).expect("expanders are infected fast");
/// assert!(rounds <= 30);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BipsProcess<'g> {
    graph: &'g Graph,
    source: VertexId,
    branching: Branching,
    infected: VertexBitset,
    /// `A_t` as an ascending vertex list (kept in sync with `infected`).
    infected_list: Vec<VertexId>,
    /// Scratch for `A_{t+1}`; its stale bits are exactly `next_list` between steps.
    next_infected: VertexBitset,
    next_list: Vec<VertexId>,
    /// `A_t \ A_{t-1}` after a step; `[source]` after construction/reset.
    newly: Vec<VertexId>,
    round: usize,
    /// Defense-layer sampling multiplier; 1 (the inert value) unless a defense boosts `k`.
    boost: u32,
}

impl<'g> BipsProcess<'g> {
    /// Creates a BIPS process with the given persistent source.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VertexOutOfRange`] if `source` is not a vertex of `graph`,
    /// [`CoreError::UnsuitableGraph`] if the graph is empty or (for `n > 1`) has an isolated
    /// vertex, which could never be infected, and [`CoreError::InvalidParameters`] for
    /// [`Branching::PerVertex`] — BIPS *pulls* `k` samples at every vertex, so a sender-side
    /// degree budget has no meaning here.
    pub fn new(graph: &'g Graph, source: VertexId, branching: Branching) -> Result<Self> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(CoreError::UnsuitableGraph { reason: "empty graph".to_string() });
        }
        if matches!(branching, Branching::PerVertex { .. }) {
            return Err(CoreError::InvalidParameters {
                reason: "k=deg budgets are a COBRA (push) feature; BIPS pulls k samples at \
                         every vertex, so a per-sender degree budget has no meaning"
                    .to_string(),
            });
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
        Ok(BipsProcess {
            graph,
            source,
            branching,
            infected,
            infected_list: vec![source],
            next_infected: VertexBitset::new(n),
            next_list: Vec::new(),
            newly: vec![source],
            round: 0,
            boost: 1,
        })
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The persistent source vertex.
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// The sampling parameter (`k` or the fractional `1+ρ`).
    pub fn branching(&self) -> Branching {
        self.branching
    }

    /// Number of currently infected vertices `|A_t|`.
    pub fn num_infected(&self) -> usize {
        self.infected_list.len()
    }

    /// Whether `v` is currently infected.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a vertex of the graph.
    pub fn is_infected(&self, v: VertexId) -> bool {
        self.infected.contains(v)
    }
}

/// One round's read-only pull inputs and the per-vertex kernel that both draw sources
/// iterate.
struct Puller<'a> {
    graph: &'a Graph,
    source: VertexId,
    branching: Branching,
    boost: u32,
    infected: &'a VertexBitset,
    faults: &'a StepFaults<'a>,
}

impl Puller<'_> {
    /// Whether `u` draws this round: the source and isolated vertices do not.
    #[inline]
    fn probes(&self, u: VertexId) -> bool {
        u != self.source && self.graph.degree(u) > 0
    }

    /// Whether `u` is infected next round: the source always is, and any other vertex
    /// probes its `k` samples until one reaches a relaying infected neighbour. The source
    /// and isolated vertices draw nothing.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    #[inline]
    fn infects<R: RngCore>(&self, u: VertexId, rng: &mut R) -> bool {
        if u == self.source {
            return true;
        }
        let neighbors = self.graph.neighbors(u);
        if neighbors.is_empty() {
            return false;
        }
        // `boost` is 1 unless a defense raised it, so the inert path is exactly the
        // original draw arithmetic (Fixed k consumes zero words either way).
        let samples = self.branching.sample_pushes(rng) * self.boost;
        for _ in 0..samples {
            let w = *sample::sample_slice(neighbors, rng).expect("neighbour slice non-empty")
                as VertexId;
            // A crashed vertex never relays: its infection is invisible to samplers.
            // A severed cut blocks the sampled edge deterministically, and the drop
            // draw only happens for a would-be-successful transmission (sender `w`).
            if self.infected.contains(w)
                && !self.faults.is_crashed(w)
                && !self.faults.severs(w, u)
                && !self.faults.drops_from(rng, w)
                && !self.faults.drops_on_edge(rng, w, u)
            {
                return true;
            }
        }
        false
    }
}

/// The next-round state an infected vertex is admitted to: written inline by the sequential
/// scan, and the one merge of stream mode's shard buffers.
struct NextRound<'a> {
    next: &'a mut VertexBitset,
    list: &'a mut Vec<VertexId>,
    infected: &'a VertexBitset,
    newly: &'a mut Vec<VertexId>,
    source: VertexId,
}

impl NextRound<'_> {
    // Always inlined: called from both draw sources, it would otherwise become an
    // out-of-line call per vertex.
    #[inline(always)]
    fn admit(&mut self, u: VertexId) {
        self.next.insert(u);
        self.list.push(u);
        if u != self.source && !self.infected.contains(u) {
            self.newly.push(u);
        }
    }
}

impl SpreadingProcess for BipsProcess<'_> {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        let n = self.graph.num_vertices();
        // Erase the two-rounds-old state through its dirty list; the scratch is now all-clear.
        self.next_infected.clear_list(&self.next_list);
        self.next_list.clear();
        self.newly.clear();
        let source = self.source;
        let puller = Puller {
            graph: self.graph,
            source,
            branching: self.branching,
            boost: self.boost,
            infected: &self.infected,
            faults,
        };
        let mut next = NextRound {
            next: &mut self.next_infected,
            list: &mut self.next_list,
            infected: &self.infected,
            newly: &mut self.newly,
            source,
        };
        match draws {
            Draws::Trial(mut rng) => {
                for u in 0..n {
                    if puller.infects(u, &mut rng) {
                        next.admit(u);
                    }
                }
            }
            // Every probing vertex draws from its own `(vertex, round)` stream, so the Θ(n)
            // scan shards cleanly; contiguous shards merged in shard order keep the hit list
            // ascending, as the sequential scan does, at every thread count. The source
            // draws nothing and is always infected, so the merge admits it in its place.
            Draws::Streams(engine) => {
                let round = self.round as u64;
                let shards = engine.shard_buffers(n, |range, hits| {
                    let probers = range.filter(|&u| puller.probes(u)).map(|u| u as u64);
                    engine.streams().for_each_stream(probers, round, |u, rng| {
                        if puller.infects(u as VertexId, rng) {
                            hits.push(u as VertexId);
                        }
                    });
                });
                let mut source_pending = true;
                for u in shards.into_iter().flatten() {
                    if source_pending && source < u {
                        next.admit(source);
                        source_pending = false;
                    }
                    next.admit(u);
                }
                if source_pending {
                    next.admit(source);
                }
            }
        }
        std::mem::swap(&mut self.infected, &mut self.next_infected);
        std::mem::swap(&mut self.infected_list, &mut self.next_list);
        self.round += 1;
    }

    fn round(&self) -> usize {
        self.round
    }

    fn active(&self) -> &VertexBitset {
        &self.infected
    }

    fn num_active(&self) -> usize {
        self.infected_list.len()
    }

    fn newly_activated(&self) -> &[VertexId] {
        &self.newly
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        for &v in &self.infected_list {
            f(v);
        }
    }

    fn is_complete(&self) -> bool {
        self.infected_list.len() == self.graph.num_vertices()
    }

    fn adopt_state(
        &mut self,
        active: &[VertexId],
        coverage: Option<&VertexBitset>,
        round: usize,
    ) -> Result<()> {
        crate::process::validate_adopted_state(self.graph.num_vertices(), active, coverage)?;
        self.infected.clear_list(&self.infected_list);
        self.next_infected.clear_list(&self.next_list);
        self.infected_list.clear();
        self.next_list.clear();
        self.newly.clear();
        for &v in active {
            if self.infected.insert(v) {
                self.newly.push(v);
            }
        }
        // The persistent source is infected in every round by definition.
        if self.infected.insert(self.source) {
            self.newly.push(self.source);
        }
        self.infected.collect_into(&mut self.infected_list);
        self.round = round;
        Ok(())
    }

    fn set_branching_boost(&mut self, multiplier: u32) -> f64 {
        let multiplier = multiplier.max(1);
        self.boost = multiplier;
        // Every non-source vertex samples `boost · E[samples]` times next round (an upper
        // bound: the sampling loop still stops at the first infected hit).
        f64::from(multiplier - 1)
            * self.branching.expected_factor()
            * (self.graph.num_vertices().saturating_sub(1)) as f64
    }

    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        let mut inserted = 0;
        for &v in vertices {
            if v < self.graph.num_vertices() && self.infected.insert(v) {
                self.newly.push(v);
                inserted += 1;
            }
        }
        if inserted > 0 {
            self.infected_list.clear();
            self.infected.collect_into(&mut self.infected_list);
        }
        inserted
    }

    fn reset(&mut self) {
        self.infected.clear_list(&self.infected_list);
        self.next_infected.clear_list(&self.next_list);
        self.infected_list.clear();
        self.next_list.clear();
        self.infected.insert(self.source);
        self.infected_list.push(self.source);
        self.newly.clear();
        self.newly.push(self.source);
        self.round = 0;
        self.boost = 1;
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
    fn construction_validates_inputs() {
        let g = generators::cycle(6).unwrap();
        assert!(matches!(
            BipsProcess::new(&g, 10, Branching::fixed(2).unwrap()),
            Err(CoreError::VertexOutOfRange { .. })
        ));
        let empty = cobra_graph::Graph::default();
        assert!(matches!(
            BipsProcess::new(&empty, 0, Branching::fixed(2).unwrap()),
            Err(CoreError::UnsuitableGraph { .. })
        ));
        let isolated = cobra_graph::Graph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        assert!(matches!(
            BipsProcess::new(&isolated, 0, Branching::fixed(2).unwrap()),
            Err(CoreError::UnsuitableGraph { .. })
        ));
    }

    #[test]
    fn initial_state() {
        let g = generators::petersen().unwrap();
        let p = BipsProcess::new(&g, 4, Branching::fixed(2).unwrap()).unwrap();
        assert_eq!(p.round(), 0);
        assert_eq!(p.num_infected(), 1);
        assert_eq!(p.num_active(), 1);
        assert_eq!(p.newly_activated(), &[4]);
        assert!(p.is_infected(4));
        assert!(!p.is_infected(0));
        assert_eq!(p.source(), 4);
        assert!(!p.is_complete());
        assert_eq!(p.branching(), Branching::Fixed { k: 2 });
        assert_eq!(p.graph().num_vertices(), 10);
    }

    #[test]
    fn source_is_always_infected() {
        let g = generators::cycle(20).unwrap();
        let mut p = BipsProcess::new(&g, 7, Branching::fixed(2).unwrap()).unwrap();
        let mut r = rng(1);
        for _ in 0..100 {
            p.step(&mut r);
            assert!(p.is_infected(7), "the persistent source must stay infected");
            assert!(p.num_infected() >= 1);
        }
    }

    #[test]
    fn infection_can_recede_but_never_dies() {
        // On a cycle with k = 2 the infected set fluctuates; it must never become empty and
        // the counter must always match the bitset.
        let g = generators::cycle(30).unwrap();
        let mut p = BipsProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
        let mut r = rng(2);
        for _ in 0..200 {
            p.step(&mut r);
            assert_eq!(p.active().count(), p.num_infected());
            assert!(p.num_infected() >= 1);
        }
    }

    #[test]
    fn infected_list_matches_bitset_in_ascending_order() {
        let g = generators::hypercube(5).unwrap();
        let mut p = BipsProcess::new(&g, 3, Branching::fixed(2).unwrap()).unwrap();
        let mut r = rng(9);
        for _ in 0..30 {
            p.step(&mut r);
            let mut listed = Vec::new();
            p.for_each_active(&mut |v| listed.push(v));
            assert_eq!(listed, p.active().iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn infects_expanders_quickly() {
        let g = generators::complete(128).unwrap();
        let mut p = BipsProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
        let rounds = run_until_complete(&mut p, &mut rng(3), 10_000).unwrap();
        assert!(rounds < 60, "complete graph should be infected in O(log n) rounds, got {rounds}");
        assert!(p.is_complete());
    }

    #[test]
    fn single_vertex_graph_is_immediately_complete() {
        let g = cobra_graph::Graph::from_edges(1, &[]).unwrap();
        let p = BipsProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
        assert!(p.is_complete());
    }

    #[test]
    fn reset_restores_initial_state() {
        let g = generators::petersen().unwrap();
        let mut p = BipsProcess::new(&g, 1, Branching::fixed(2).unwrap()).unwrap();
        run_until_complete(&mut p, &mut rng(5), 10_000).unwrap();
        p.reset();
        assert_eq!(p.round(), 0);
        assert_eq!(p.num_infected(), 1);
        assert!(p.is_infected(1));
        assert_eq!(p.newly_activated(), &[1]);
        assert!(!p.is_complete());
        assert!(run_until_complete(&mut p, &mut rng(6), 10_000).is_some());
    }

    #[test]
    fn fractional_sampling_with_rho_zero_is_single_sample_sis() {
        // rho = 0 means each vertex contacts exactly one neighbour; on the complete graph the
        // infection still eventually spreads thanks to the persistent source.
        let g = generators::complete(16).unwrap();
        let mut p = BipsProcess::new(&g, 0, Branching::fractional(0.0).unwrap()).unwrap();
        let rounds = run_until_complete(&mut p, &mut rng(7), 100_000);
        assert!(rounds.is_some());
    }

    #[test]
    fn deterministic_given_identical_rngs() {
        let g = generators::connected_random_regular(40, 3, &mut rng(8)).unwrap();
        let run = |seed: u64| {
            let mut p = BipsProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
            run_until_complete(&mut p, &mut rng(seed), 100_000).unwrap()
        };
        assert_eq!(run(50), run(50));
    }
}
