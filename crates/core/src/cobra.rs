//! The COBRA (COalescing-BRAnching) random walk.
//!
//! One round of COBRA with branching factor `k` on a graph `G = (V, E)`:
//!
//! 1. every vertex in the current active set `C_t` independently chooses `k` neighbours
//!    uniformly at random **with replacement**;
//! 2. the chosen vertices form `C_{t+1}` — receiving the token from several senders coalesces
//!    into a single copy;
//! 3. a vertex that pushed in round `t` stops participating until it receives the token again.
//!
//! The paper's Theorem 1 concerns `k = 2`; Theorem 3 concerns the *fractional* branching
//! factor `1 + ρ`, where each active vertex pushes once and, independently with probability
//! `ρ`, a second time. Both are captured by [`Branching`].
//!
//! # Cost model
//!
//! A round iterates the explicit frontier `C_t` (a sorted `Vec<VertexId>`), performs
//! `k` buffered neighbour samples per member, test-and-sets targets in a scratch
//! [`VertexBitset`], erases the old active set through the frontier (dirty-list clearing) and
//! re-materialises the next frontier from the scratch bitset, whose occupancy flags let
//! it visit only the non-zero words — `O(|C_t|·k + n/512)` total, instead of the `O(n)`
//! full-vertex scan of a dense engine. The frontier is kept in
//! ascending vertex order so the RNG draw sequence is *identical* to the dense reference
//! engine in `tests/support/dense.rs` (property-tested).
//!
//! Delivering a target has no branch that depends on the data. On saturated rounds
//! "already targeted this round", "was active" and "first visit" are each close to a coin
//! flip, so a branch on any of them mispredicts about half the time. These mispredictions
//! were about 40 % of a saturated step at n = 10⁵, r = 8, k = 2, so `NextRound::deliver`
//! computes all three as values and uses them as lengths and counts.
//!
//! At `n ≫ cache` (a random 8-regular graph on 10⁶ vertices is a 34 MiB CSR) a round is
//! bound by memory latency, not by draws: each sender reads `offsets[u]` and then its
//! row, two dependent misses in random places. Both draw sources therefore hint later
//! senders' lines into cache while they process the current one — the `offsets` entry 16
//! senders ahead and the row 8 senders ahead — so the misses of many senders overlap. In
//! stream mode the lookahead stays inside each shard's slice. A frontier holding an eighth
//! of the vertices or more walks the CSR almost sequentially, which the hardware
//! prefetcher already follows, so such rounds hint nothing. A hint moves only cache
//! lines: no draw, visiting order or output depends on it.

use cobra_graph::{sample, Graph, VertexBitset, VertexId};
use rand::{Rng, RngCore};
use serde::{Deserialize, Serialize};

use crate::fault::StepFaults;
use crate::parallel::Draws;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

/// Branching factor of a COBRA (or BIPS) process.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Branching {
    /// Push to exactly `k ≥ 1` neighbours, chosen independently with replacement.
    /// `k = 1` degenerates to a simple random walk, `k = 2` is the paper's main setting.
    Fixed {
        /// Number of pushes per active vertex per round.
        k: u32,
    },
    /// Push once, plus a second push independently with probability `ρ` — the expected
    /// branching factor `1 + ρ` of Theorem 3.
    Fractional {
        /// Probability of the additional second push, in `[0, 1]`.
        rho: f64,
    },
    /// Degree-proportional budgets (spec syntax `k=deg` / `k=deg:cap=8`): vertex `v`
    /// pushes `min(deg(v), cap)` times per active round, so hubs of a heterogeneous
    /// network fan out harder than leaves — the uniform-`k` ↔ degree-budget comparison of
    /// experiment E12. Budgets are resolved *once at construction* from the graph's degree
    /// sequence and consume zero RNG words per round, exactly like [`Branching::Fixed`].
    /// COBRA-only: BIPS pulls instead of pushing, so a sender-side budget has no meaning
    /// there and [`BipsProcess::new`](crate::bips::BipsProcess::new) rejects this variant.
    PerVertex {
        /// Upper cap on the per-vertex budget; `u32::MAX` leaves budgets uncapped
        /// (`k = deg(v)` exactly).
        cap: u32,
    },
}

impl Branching {
    /// Fixed integer branching factor `k`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `k == 0`.
    pub fn fixed(k: u32) -> Result<Self> {
        if k == 0 {
            return Err(CoreError::InvalidParameters {
                reason: "branching factor k must be at least 1".to_string(),
            });
        }
        Ok(Branching::Fixed { k })
    }

    /// Fractional branching factor `1 + ρ`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `ρ` is not in `[0, 1]` or is not finite.
    pub fn fractional(rho: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&rho) || !rho.is_finite() {
            return Err(CoreError::InvalidParameters {
                reason: format!("rho = {rho} must be in [0, 1]"),
            });
        }
        Ok(Branching::Fractional { rho })
    }

    /// Degree-proportional budgets `min(deg(v), cap)`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameters`] if `cap == 0` (a vertex must push at least
    /// once). Use `u32::MAX` for uncapped `k = deg(v)`.
    pub fn per_vertex(cap: u32) -> Result<Self> {
        if cap == 0 {
            return Err(CoreError::InvalidParameters {
                reason: "per-vertex budget cap must be at least 1".to_string(),
            });
        }
        Ok(Branching::PerVertex { cap })
    }

    /// Expected number of pushes per active vertex per round. For [`Branching::PerVertex`]
    /// the true value depends on the graph's degree sequence, which this configuration
    /// object cannot see; the returned `cap` is an upper bound, and graph-aware callers
    /// (the defense cost ledger) use the resolved budgets instead.
    pub fn expected_factor(&self) -> f64 {
        match self {
            Branching::Fixed { k } => f64::from(*k),
            Branching::Fractional { rho } => 1.0 + rho,
            Branching::PerVertex { cap } => f64::from(*cap),
        }
    }

    /// Samples the number of pushes an active vertex performs this round.
    ///
    /// # Panics
    ///
    /// Panics for [`Branching::PerVertex`]: per-vertex budgets depend on which vertex is
    /// pushing, so processes supporting them resolve a budget table from the graph at
    /// construction instead of sampling here.
    // cobra-lint: draws(bounded)
    pub fn sample_pushes<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
        match self {
            Branching::Fixed { k } => *k,
            Branching::Fractional { rho } => {
                if *rho > 0.0 && rng.gen_bool(*rho) {
                    2
                } else {
                    1
                }
            }
            Branching::PerVertex { .. } => {
                unreachable!("per-vertex budgets are resolved from the graph at construction")
            }
        }
    }
}

/// A running COBRA process over a borrowed graph.
///
/// The process records, besides the current active set `C_t`, the set of vertices visited so
/// far (`C_0 ∪ C_1 ∪ … ∪ C_t`); [`SpreadingProcess::is_complete`] holds once every vertex has
/// been visited. The start vertex counts as visited at round 0 (the paper's definition takes
/// the union from `t = 1`, which differs by at most one round and only for the start vertex).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use cobra_core::cobra::{Branching, CobraProcess};
/// use cobra_core::process::{run_until_complete, SpreadingProcess};
/// use cobra_graph::generators;
/// use rand::SeedableRng;
///
/// let g = generators::complete(64)?;
/// let mut rng = rand_chacha::ChaCha12Rng::seed_from_u64(7);
/// let mut cobra = CobraProcess::new(&g, 0, Branching::fixed(2)?)?;
/// let rounds = run_until_complete(&mut cobra, &mut rng, 1_000).expect("complete graph covers fast");
/// assert!(rounds <= 30);
/// assert_eq!(cobra.num_visited(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CobraProcess<'g> {
    graph: &'g Graph,
    starts: Vec<VertexId>,
    branching: Branching,
    /// Bitset view of `C_t`; always in sync with `frontier`.
    active: VertexBitset,
    /// `C_t` as an explicit, ascending vertex list — the set the step iterates.
    frontier: Vec<VertexId>,
    /// Scratch target set for `C_{t+1}`; all-clear between steps.
    next_active: VertexBitset,
    /// `C_t \ C_{t-1}` after a step; the start set after construction/reset.
    newly: Vec<VertexId>,
    visited: VertexBitset,
    num_visited: usize,
    round: usize,
    /// Defense-layer branching multiplier; 1 (the inert value) unless a defense boosts `k`.
    boost: u32,
    /// Resolved per-vertex push budgets (`Branching::PerVertex`); `None` for the uniform
    /// branching modes.
    budgets: Option<Vec<u32>>,
}

impl<'g> CobraProcess<'g> {
    /// Creates a COBRA process starting from the single vertex `start`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VertexOutOfRange`] if `start` is not a vertex of `graph`, and
    /// [`CoreError::UnsuitableGraph`] if the graph is empty or has an isolated vertex
    /// (isolated vertices can never be covered, so every run would exhaust its budget).
    pub fn new(graph: &'g Graph, start: VertexId, branching: Branching) -> Result<Self> {
        Self::with_start_set(graph, &[start], branching)
    }

    /// Creates a COBRA process whose initial active set `C_0` is the given set of vertices.
    ///
    /// # Errors
    ///
    /// Same as [`CobraProcess::new`], plus [`CoreError::InvalidParameters`] if `starts` is
    /// empty.
    pub fn with_start_set(
        graph: &'g Graph,
        starts: &[VertexId],
        branching: Branching,
    ) -> Result<Self> {
        let n = graph.num_vertices();
        if n == 0 {
            return Err(CoreError::UnsuitableGraph { reason: "empty graph".to_string() });
        }
        if starts.is_empty() {
            return Err(CoreError::InvalidParameters {
                reason: "initial active set must not be empty".to_string(),
            });
        }
        if let Some(&bad) = starts.iter().find(|&&v| v >= n) {
            return Err(CoreError::VertexOutOfRange { vertex: bad, num_vertices: n });
        }
        if n > 1 {
            if let Some(isolated) = graph.first_isolated() {
                return Err(CoreError::UnsuitableGraph {
                    reason: format!("vertex {isolated} is isolated and can never be visited"),
                });
            }
        }
        // Degree-proportional budgets are resolved once, here, from the degree sequence —
        // the per-round step paths then read a table entry exactly like a Fixed `k` (zero
        // RNG words either way).
        let budgets = match branching {
            Branching::PerVertex { cap } => Some(
                graph
                    .vertices()
                    .map(|v| u32::try_from(graph.degree(v)).unwrap_or(u32::MAX).min(cap))
                    .collect(),
            ),
            _ => None,
        };
        let mut process = CobraProcess {
            graph,
            starts: starts.to_vec(),
            branching,
            active: VertexBitset::new(n),
            frontier: Vec::new(),
            next_active: VertexBitset::new(n),
            newly: Vec::new(),
            visited: VertexBitset::new(n),
            num_visited: 0,
            round: 0,
            boost: 1,
            budgets,
        };
        process.reset();
        Ok(process)
    }

    /// The underlying graph.
    pub fn graph(&self) -> &Graph {
        self.graph
    }

    /// The branching factor configuration.
    pub fn branching(&self) -> Branching {
        self.branching
    }

    /// Number of distinct vertices visited so far (including the start set).
    pub fn num_visited(&self) -> usize {
        self.num_visited
    }

    /// The set of vertices visited so far.
    pub fn visited(&self) -> &VertexBitset {
        &self.visited
    }
}

/// One round's read-only push inputs and the per-sender kernel that both draw sources
/// iterate.
struct Sender<'a> {
    graph: &'a Graph,
    branching: Branching,
    budgets: Option<&'a [u32]>,
    boost: u32,
    faults: &'a StepFaults<'a>,
    /// Whether this round hints later senders' CSR lines into cache; see
    /// [`DENSE_FRONTIER`].
    lookahead: bool,
}

/// A frontier holding at least `1 / DENSE_FRONTIER` of the vertices is not prefetched.
/// Its ascending senders are on average fewer than 8 ids apart, so they walk `offsets`
/// and the rows almost sequentially, which the hardware prefetcher already follows; there
/// the hints only add work (≈ 3 % per sender on saturated rounds at n = 10⁵, r = 8, on a
/// 2-core x86-64 host).
const DENSE_FRONTIER: usize = 8;
/// How many senders ahead a step hints the `offsets` entry into cache.
const OFFSETS_AHEAD: usize = 16;
/// How many senders ahead a step hints the adjacency row into cache; half of
/// [`OFFSETS_AHEAD`], so the `offsets` read that locates the row has already been hinted.
const ROW_AHEAD: usize = 8;

impl Sender<'_> {
    /// Hints the two dependent CSR lines of later senders into cache while `senders[i]`
    /// is processed: the `offsets` entry [`OFFSETS_AHEAD`] positions on and the row
    /// [`ROW_AHEAD`] positions on. Positions past the end of `senders` are no-ops, and no
    /// value or draw depends on a hint.
    #[inline(always)]
    fn prefetch_ahead(&self, senders: &[VertexId], i: usize) {
        if !self.lookahead {
            return;
        }
        if let Some(&v) = senders.get(i + OFFSETS_AHEAD) {
            self.graph.prefetch_offsets(v);
        }
        if let Some(&v) = senders.get(i + ROW_AHEAD) {
            self.graph.prefetch_row(v);
        }
    }

    /// Whether `u` pushes this round. A crashed vertex holds the token but never relays, and
    /// an isolated one has nobody to push to; neither draws, so stream mode never opens
    /// their streams.
    #[inline]
    fn relays(&self, u: VertexId) -> bool {
        !self.faults.is_crashed(u) && self.graph.degree(u) > 0
    }

    /// Draws the pushes of a relaying `u` and hands each delivered target to `deliver`, in
    /// draw order.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    #[inline]
    fn push<R: RngCore>(&self, u: VertexId, rng: &mut R, mut deliver: impl FnMut(VertexId)) {
        let neighbors = self.graph.neighbors(u);
        // `boost` is 1 unless a defense raised it, so the inert path is exactly the
        // original draw arithmetic (Fixed k and budget-table lookups consume zero words
        // either way).
        let pushes = match self.budgets {
            Some(budgets) => budgets[u],
            None => self.branching.sample_pushes(rng),
        } * self.boost;
        for _ in 0..pushes {
            // The drop decision precedes the target draw: a lost push samples nothing.
            if self.faults.drops_from(rng, u) {
                continue;
            }
            let target = *sample::sample_slice(neighbors, rng)
                .expect("neighbour slice is non-empty") as VertexId;
            // A severed cut blocks the push after the (already consumed) target draw;
            // a per-edge channel may then drop it on the specific link chosen.
            if self.faults.severs(u, target) || self.faults.drops_on_edge(rng, u, target) {
                continue;
            }
            deliver(target);
        }
    }
}

/// The next-round state a delivered push lands in: written inline by sequential senders,
/// and the one merge of stream mode's shard buffers.
struct NextRound<'a> {
    next: &'a mut VertexBitset,
    active: &'a VertexBitset,
    newly: &'a mut Vec<VertexId>,
    visited: &'a mut VertexBitset,
    num_visited: &'a mut usize,
}

impl NextRound<'_> {
    /// Lands one push without a branch on the data (see the module's cost model): the
    /// target is always pushed onto `newly` and then cut off again unless it is fresh this
    /// round and was not active. A repeated target is already visited, so its `visited`
    /// insert adds nothing.
    // Always inlined: called from both draw sources, it would otherwise become an
    // out-of-line call per target.
    #[inline(always)]
    fn deliver(&mut self, target: VertexId) {
        let fresh = self.next.insert(target);
        let activated = fresh & !self.active.contains(target);
        let len = self.newly.len();
        self.newly.push(target);
        self.newly.truncate(len + usize::from(activated));
        *self.num_visited += usize::from(self.visited.insert(target));
    }
}

impl SpreadingProcess for CobraProcess<'_> {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.newly.clear();
        let sender = Sender {
            graph: self.graph,
            branching: self.branching,
            budgets: self.budgets.as_deref(),
            boost: self.boost,
            faults,
            lookahead: self.frontier.len() < self.graph.num_vertices() / DENSE_FRONTIER,
        };
        let mut next = NextRound {
            next: &mut self.next_active,
            active: &self.active,
            newly: &mut self.newly,
            visited: &mut self.visited,
            num_visited: &mut self.num_visited,
        };
        match draws {
            // The frontier is ascending, so the trial RNG's draw order matches the dense
            // engine's 0..n scan exactly.
            Draws::Trial(mut rng) => {
                for (i, &u) in self.frontier.iter().enumerate() {
                    sender.prefetch_ahead(&self.frontier, i);
                    if sender.relays(u) {
                        sender.push(u, &mut rng, |target| next.deliver(target));
                    }
                }
            }
            // Each sender draws from its own `(vertex, round)` stream, so shards can split
            // the frontier anywhere; merging the buffers in shard order delivers targets in
            // sender-ascending order at every thread count.
            Draws::Streams(engine) => {
                let (frontier, round) = (&self.frontier, self.round as u64);
                let shards = engine.shard_buffers(frontier.len(), |range, buffer| {
                    // The lookahead stays inside this shard's slice.
                    let shard = &frontier[range];
                    let senders = shard.iter().enumerate().filter_map(|(i, &u)| {
                        sender.prefetch_ahead(shard, i);
                        sender.relays(u).then_some(u as u64)
                    });
                    engine.streams().for_each_stream(senders, round, |u, rng| {
                        sender.push(u as VertexId, rng, |target| buffer.push(target));
                    });
                });
                for target in shards.into_iter().flatten() {
                    next.deliver(target);
                }
            }
        }
        // Erase C_t through its own member list, then swap buffers: the erased bitset
        // becomes the all-clear scratch for the next round.
        self.active.clear_list(&self.frontier);
        std::mem::swap(&mut self.active, &mut self.next_active);
        self.frontier.clear();
        self.active.collect_into(&mut self.frontier);
        self.round += 1;
    }

    fn round(&self) -> usize {
        self.round
    }

    fn active(&self) -> &VertexBitset {
        &self.active
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
        self.num_visited == self.graph.num_vertices()
    }

    fn coverage(&self) -> Option<&VertexBitset> {
        Some(&self.visited)
    }

    fn adopt_state(
        &mut self,
        active: &[VertexId],
        coverage: Option<&VertexBitset>,
        round: usize,
    ) -> Result<()> {
        crate::process::validate_adopted_state(self.graph.num_vertices(), active, coverage)?;
        self.active.clear_list(&self.frontier);
        self.frontier.clear();
        self.visited.clear();
        self.newly.clear();
        self.num_visited = 0;
        for &v in active {
            if self.active.insert(v) {
                self.newly.push(v);
            }
        }
        self.active.collect_into(&mut self.frontier);
        match coverage {
            Some(seen) => seen.for_each(&mut |v| {
                self.visited.insert(v);
            }),
            None => active.iter().for_each(|&v| {
                self.visited.insert(v);
            }),
        }
        self.num_visited = self.visited.count();
        self.round = round;
        Ok(())
    }

    fn set_branching_boost(&mut self, multiplier: u32) -> f64 {
        let multiplier = multiplier.max(1);
        self.boost = multiplier;
        // Each frontier member pushes `boost · E[pushes]` instead of `E[pushes]` next
        // round. Under a budget table the per-vertex factor is the table's mean (the
        // graph-resolved value `Branching::expected_factor` cannot see).
        let per_vertex = match &self.budgets {
            Some(budgets) => {
                budgets.iter().map(|&k| f64::from(k)).sum::<f64>() / budgets.len() as f64
            }
            None => self.branching.expected_factor(),
        };
        f64::from(multiplier - 1) * per_vertex * self.frontier.len() as f64
    }

    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        let mut inserted = 0;
        for &v in vertices {
            if v < self.graph.num_vertices() && self.active.insert(v) {
                self.newly.push(v);
                if self.visited.insert(v) {
                    self.num_visited += 1;
                }
                inserted += 1;
            }
        }
        if inserted > 0 {
            self.frontier.clear();
            self.active.collect_into(&mut self.frontier);
        }
        inserted
    }

    fn reset(&mut self) {
        self.active.clear_list(&self.frontier);
        self.frontier.clear();
        self.visited.clear();
        self.newly.clear();
        self.num_visited = 0;
        for &v in &self.starts {
            if self.active.insert(v) {
                self.newly.push(v);
            }
            if self.visited.insert(v) {
                self.num_visited += 1;
            }
        }
        self.active.collect_into(&mut self.frontier);
        self.round = 0;
        self.boost = 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::ParallelFrontier;
    use crate::process::run_until_complete;
    use cobra_graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    fn rng(seed: u64) -> ChaCha12Rng {
        ChaCha12Rng::seed_from_u64(seed)
    }

    #[test]
    fn branching_constructors_validate() {
        assert!(Branching::fixed(0).is_err());
        assert!(Branching::fixed(2).is_ok());
        assert!(Branching::fractional(-0.1).is_err());
        assert!(Branching::fractional(1.5).is_err());
        assert!(Branching::fractional(f64::NAN).is_err());
        assert_eq!(Branching::fixed(3).unwrap().expected_factor(), 3.0);
        assert_eq!(Branching::fractional(0.25).unwrap().expected_factor(), 1.25);
    }

    #[test]
    fn branching_sampling_bounds() {
        let mut r = rng(1);
        let fixed = Branching::fixed(2).unwrap();
        for _ in 0..100 {
            assert_eq!(fixed.sample_pushes(&mut r), 2);
        }
        let zero = Branching::fractional(0.0).unwrap();
        for _ in 0..100 {
            assert_eq!(zero.sample_pushes(&mut r), 1);
        }
        let one = Branching::fractional(1.0).unwrap();
        for _ in 0..100 {
            assert_eq!(one.sample_pushes(&mut r), 2);
        }
        let half = Branching::fractional(0.5).unwrap();
        let twos = (0..2000).filter(|_| half.sample_pushes(&mut r) == 2).count();
        assert!((800..1200).contains(&twos), "got {twos} double pushes out of 2000");
    }

    #[test]
    fn construction_validates_inputs() {
        let g = generators::cycle(5).unwrap();
        assert!(matches!(
            CobraProcess::new(&g, 9, Branching::fixed(2).unwrap()),
            Err(CoreError::VertexOutOfRange { .. })
        ));
        assert!(matches!(
            CobraProcess::with_start_set(&g, &[], Branching::fixed(2).unwrap()),
            Err(CoreError::InvalidParameters { .. })
        ));
        let empty = cobra_graph::Graph::default();
        assert!(matches!(
            CobraProcess::new(&empty, 0, Branching::fixed(2).unwrap()),
            Err(CoreError::UnsuitableGraph { .. })
        ));
        let isolated = cobra_graph::Graph::from_edges(3, &[(0, 1)]).unwrap();
        assert!(matches!(
            CobraProcess::new(&isolated, 0, Branching::fixed(2).unwrap()),
            Err(CoreError::UnsuitableGraph { .. })
        ));
    }

    #[test]
    fn initial_state() {
        let g = generators::petersen().unwrap();
        let p = CobraProcess::new(&g, 3, Branching::fixed(2).unwrap()).unwrap();
        assert_eq!(p.round(), 0);
        assert_eq!(p.num_active(), 1);
        assert_eq!(p.num_visited(), 1);
        assert_eq!(p.newly_activated(), &[3]);
        assert!(p.visited().contains(3));
        assert!(!p.visited().contains(0));
        assert!(!p.is_complete());
        assert_eq!(p.branching(), Branching::Fixed { k: 2 });
        assert_eq!(p.graph().num_vertices(), 10);
    }

    #[test]
    fn step_keeps_active_set_within_branching_bound() {
        // |C_{t+1}| <= k |C_t| because each active vertex pushes at most k tokens.
        let g = generators::connected_random_regular(60, 3, &mut rng(5)).unwrap();
        let mut p = CobraProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
        let mut r = rng(6);
        let mut previous = p.num_active();
        for _ in 0..40 {
            p.step(&mut r);
            let current = p.num_active();
            assert!(current <= 2 * previous, "{current} > 2 * {previous}");
            assert!(current >= 1, "the active set never dies out");
            assert_eq!(p.active().count(), current, "bitset and frontier agree");
            previous = current;
        }
    }

    /// Delivery bookkeeping inputs `(graph, k, branching boost)`: `graph` with `k = 2`,
    /// then two where most of a round's targets repeat: `k = 8` on `complete(16)`, and
    /// every round after `set_branching_boost(4)`.
    fn delivery_cases(graph: Graph) -> [(Graph, u32, u32); 3] {
        [(graph.clone(), 2, 1), (generators::complete(16).unwrap(), 8, 1), (graph, 2, 4)]
    }

    /// Runs `rounds` rounds of every delivery case from both draw sources, the trial RNG
    /// and per-vertex streams merged from two shards, calling `check` after each round
    /// with the active set and the visited count before it.
    fn for_each_delivery_round(
        graph: Graph,
        rounds: usize,
        mut check: impl FnMut(&CobraProcess<'_>, &VertexBitset, usize),
    ) {
        for (g, k, boost) in delivery_cases(graph) {
            let engine = ParallelFrontier::from_rng(&mut rng(18), 2).unwrap();
            for streams in [None, Some(&engine)] {
                let mut p = CobraProcess::new(&g, 0, Branching::fixed(k).unwrap()).unwrap();
                p.set_branching_boost(boost);
                let mut r = rng(17);
                for _ in 0..rounds {
                    let (previous, previous_visited) = (p.active().clone(), p.num_visited());
                    match streams {
                        Some(engine) => p.step_faulted(Draws::Streams(engine), &StepFaults::NONE),
                        None => p.step(&mut r),
                    }
                    assert_eq!(p.num_visited(), p.visited().count(), "k={k} boost={boost}");
                    check(&p, &previous, previous_visited);
                }
            }
        }
    }

    #[test]
    fn newly_activated_is_exactly_the_set_difference() {
        for_each_delivery_round(generators::hypercube(5).unwrap(), 30, |p, previous, _| {
            let mut expected: Vec<usize> =
                p.active().iter().filter(|&v| !previous.contains(v)).collect();
            expected.sort_unstable();
            let mut newly = p.newly_activated().to_vec();
            newly.sort_unstable();
            assert_eq!(newly, expected);
        });
    }

    #[test]
    fn visited_set_is_monotone_and_contains_active() {
        for_each_delivery_round(generators::hypercube(6).unwrap(), 50, |p, _, previous_visited| {
            assert!(p.num_visited() >= previous_visited);
            for v in p.active().iter() {
                assert!(p.visited().contains(v), "active vertex {v} must be visited");
            }
        });
    }

    #[test]
    fn covers_small_expanders_quickly() {
        let g = generators::complete(128).unwrap();
        let mut p = CobraProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
        let rounds = run_until_complete(&mut p, &mut rng(8), 10_000).unwrap();
        assert!(rounds < 60, "complete graph should cover in O(log n) rounds, took {rounds}");
        assert!(p.is_complete());
        assert_eq!(p.num_visited(), 128);
    }

    #[test]
    fn k1_on_a_path_behaves_like_a_random_walk() {
        // With k = 1 exactly one vertex is active each round (a single walker).
        let g = generators::path(10).unwrap();
        let mut p = CobraProcess::new(&g, 0, Branching::fixed(1).unwrap()).unwrap();
        let mut r = rng(9);
        for _ in 0..200 {
            p.step(&mut r);
            assert_eq!(p.num_active(), 1);
        }
    }

    #[test]
    fn single_vertex_graph_is_immediately_complete() {
        let g = cobra_graph::Graph::from_edges(1, &[]).unwrap();
        let p = CobraProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
        assert!(p.is_complete());
        assert_eq!(p.num_visited(), 1);
    }

    #[test]
    fn reset_restores_the_initial_configuration() {
        let g = generators::petersen().unwrap();
        let mut p = CobraProcess::new(&g, 2, Branching::fixed(2).unwrap()).unwrap();
        run_until_complete(&mut p, &mut rng(10), 1_000).unwrap();
        assert!(p.is_complete());
        p.reset();
        assert_eq!(p.round(), 0);
        assert_eq!(p.num_active(), 1);
        assert_eq!(p.num_visited(), 1);
        assert!(p.active().contains(2));
        assert_eq!(p.newly_activated(), &[2]);
        assert!(!p.is_complete());
        // The process still works after a reset.
        assert!(run_until_complete(&mut p, &mut rng(11), 1_000).is_some());
    }

    #[test]
    fn multi_vertex_start_set() {
        let g = generators::cycle(12).unwrap();
        let p = CobraProcess::with_start_set(&g, &[0, 6], Branching::fixed(2).unwrap()).unwrap();
        assert_eq!(p.num_active(), 2);
        assert_eq!(p.num_visited(), 2);
        let mut frontier = Vec::new();
        p.for_each_active(&mut |v| frontier.push(v));
        assert_eq!(frontier, vec![0, 6]);
    }

    #[test]
    fn fractional_branching_still_covers() {
        let g = generators::connected_random_regular(64, 4, &mut rng(12)).unwrap();
        let mut p = CobraProcess::new(&g, 0, Branching::fractional(0.5).unwrap()).unwrap();
        let rounds = run_until_complete(&mut p, &mut rng(13), 100_000).unwrap();
        assert!(rounds > 0);
        assert!(p.is_complete());
    }

    #[test]
    fn deterministic_given_identical_rngs() {
        let g = generators::connected_random_regular(40, 3, &mut rng(14)).unwrap();
        let run = |seed: u64| {
            let mut p = CobraProcess::new(&g, 0, Branching::fixed(2).unwrap()).unwrap();
            run_until_complete(&mut p, &mut rng(seed), 100_000).unwrap()
        };
        assert_eq!(run(99), run(99));
    }
}
