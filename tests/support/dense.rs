//! The retained dense-scan engines — the executable specification of every process.
//!
//! Before the sparse-frontier rewrite, every `step` scanned all `n` vertices and cleared its
//! scratch with `fill(false)`. Those implementations are kept here, verbatim in behaviour,
//! as the oracle of `tests/frontier_equivalence.rs`: the frontier engines in `cobra`, `bips`
//! and `baselines` are property-tested to reproduce these engines' per-round `active` /
//! `visited` evolution *exactly* under the same seeded RNG (the frontier engines
//! deliberately preserve the dense vertex visit order, and `cobra_graph::sample::uniform_index`
//! performs the same reduction as `gen_range`, so the RNG streams coincide bit for bit).
//!
//! These types are test support, not a simulation engine — simulations build the frontier
//! processes through `ProcessSpec::build`.

use cobra::core::baselines::contact::ContactParameters;
use cobra::core::cobra::Branching;
use cobra::core::spec::ProcessSpec;
use cobra::core::{CoreError, Result};
use cobra::graph::{Graph, VertexId};
use rand::{Rng, RngCore};

/// The observation surface shared by all dense reference engines.
///
/// Mirrors the parts of `SpreadingProcess` the equivalence tests need, with the pre-rewrite
/// `&[bool]` indicator instead of a bitset.
pub trait DenseProcess {
    /// Advances the process by one round with the historical dense scan.
    fn step(&mut self, rng: &mut dyn RngCore);
    /// Dense indicator of the currently active set.
    fn active_indicator(&self) -> &[bool];
    /// Number of currently active vertices.
    fn num_active(&self) -> usize;
    /// Number of distinct vertices ever visited, for the processes that track coverage.
    fn num_visited(&self) -> Option<usize> {
        None
    }
    /// Whether the completion condition holds.
    fn is_complete(&self) -> bool;
}

/// Builds the dense reference engine for any [`ProcessSpec`].
///
/// # Errors
///
/// Performs the same parameter validation as [`ProcessSpec::build`] (by delegating to it), so
/// the two engines accept exactly the same inputs.
pub fn build_dense<'g>(
    spec: &ProcessSpec,
    graph: &'g Graph,
) -> Result<Box<dyn DenseProcess + Send + 'g>> {
    // Reuse the frontier constructors' validation verbatim, then discard the instance.
    drop(spec.build(graph)?);
    Ok(match *spec {
        ProcessSpec::Cobra { branching, start } => {
            Box::new(DenseCobra::new(graph, start, branching))
        }
        ProcessSpec::Bips { branching, start } => Box::new(DenseBips::new(graph, start, branching)),
        ProcessSpec::RandomWalk { start } => Box::new(DenseWalk::new(graph, start)),
        ProcessSpec::MultipleWalks { walkers, start } => {
            Box::new(DenseMultiWalks::new(graph, start, walkers))
        }
        ProcessSpec::Push { start } => Box::new(DensePush::new(graph, start)),
        ProcessSpec::PushPull { start } => Box::new(DensePushPull::new(graph, start)),
        ProcessSpec::Contact { infection, recovery, persistent, start } => {
            Box::new(DenseContact::new(
                graph,
                start,
                ContactParameters::new(infection, recovery)?,
                persistent,
            ))
        }
        // The dense engines are the executable specification of the *bare* processes; the
        // fault layer is property-tested against them separately (zero-fault wrappers must
        // match the bare frontier engines, which must match the dense engines).
        _ => {
            return Err(CoreError::InvalidParameters {
                reason: "the dense reference engines model bare processes; strip the fault \
                         clauses to compare against them"
                    .to_string(),
            })
        }
    })
}

/// Dense COBRA: scans all `n` vertices per round and clears scratch with `fill(false)`.
#[derive(Debug)]
pub struct DenseCobra<'g> {
    graph: &'g Graph,
    branching: Branching,
    budgets: Option<Vec<u32>>,
    active: Vec<bool>,
    next_active: Vec<bool>,
    num_active: usize,
    visited: Vec<bool>,
    num_visited: usize,
}

impl<'g> DenseCobra<'g> {
    /// A dense COBRA process from a single start vertex (inputs pre-validated by
    /// [`build_dense`]).
    pub fn new(graph: &'g Graph, start: VertexId, branching: Branching) -> Self {
        let n = graph.num_vertices();
        let mut active = vec![false; n];
        active[start] = true;
        let mut visited = vec![false; n];
        visited[start] = true;
        // Resolve degree budgets up front, exactly as `CobraProcess` does.
        let budgets = match branching {
            Branching::PerVertex { cap } => Some(
                graph
                    .vertices()
                    .map(|v| u32::try_from(graph.degree(v)).unwrap_or(u32::MAX).min(cap))
                    .collect(),
            ),
            _ => None,
        };
        DenseCobra {
            graph,
            branching,
            budgets,
            active,
            next_active: vec![false; n],
            num_active: 1,
            visited,
            num_visited: 1,
        }
    }
}

impl DenseProcess for DenseCobra<'_> {
    // cobra-lint: draws(bounded)
    fn step(&mut self, rng: &mut dyn RngCore) {
        let n = self.graph.num_vertices();
        self.next_active[..n].fill(false);
        let mut next_count = 0usize;
        for u in 0..n {
            if !self.active[u] {
                continue;
            }
            let degree = self.graph.degree(u);
            if degree == 0 {
                continue;
            }
            let pushes = match &self.budgets {
                Some(budgets) => budgets[u],
                None => self.branching.sample_pushes(rng),
            };
            for _ in 0..pushes {
                let target = self.graph.neighbor(u, rng.gen_range(0..degree));
                if !self.next_active[target] {
                    self.next_active[target] = true;
                    next_count += 1;
                    if !self.visited[target] {
                        self.visited[target] = true;
                        self.num_visited += 1;
                    }
                }
            }
        }
        std::mem::swap(&mut self.active, &mut self.next_active);
        self.num_active = next_count;
    }

    fn active_indicator(&self) -> &[bool] {
        &self.active
    }

    fn num_active(&self) -> usize {
        self.num_active
    }

    fn num_visited(&self) -> Option<usize> {
        Some(self.num_visited)
    }

    fn is_complete(&self) -> bool {
        self.num_visited == self.graph.num_vertices()
    }
}

/// Dense BIPS: every vertex re-samples each round over a dense indicator pair.
#[derive(Debug)]
pub struct DenseBips<'g> {
    graph: &'g Graph,
    source: VertexId,
    branching: Branching,
    infected: Vec<bool>,
    next_infected: Vec<bool>,
    num_infected: usize,
}

impl<'g> DenseBips<'g> {
    /// A dense BIPS process (inputs pre-validated by [`build_dense`]).
    pub fn new(graph: &'g Graph, source: VertexId, branching: Branching) -> Self {
        let n = graph.num_vertices();
        let mut infected = vec![false; n];
        infected[source] = true;
        DenseBips {
            graph,
            source,
            branching,
            infected,
            next_infected: vec![false; n],
            num_infected: 1,
        }
    }
}

impl DenseProcess for DenseBips<'_> {
    // cobra-lint: draws(bounded)
    fn step(&mut self, rng: &mut dyn RngCore) {
        let n = self.graph.num_vertices();
        let mut count = 0usize;
        for u in 0..n {
            if u == self.source {
                self.next_infected[u] = true;
                count += 1;
                continue;
            }
            let degree = self.graph.degree(u);
            if degree == 0 {
                self.next_infected[u] = false;
                continue;
            }
            let samples = self.branching.sample_pushes(rng);
            let mut hit = false;
            for _ in 0..samples {
                let w = self.graph.neighbor(u, rng.gen_range(0..degree));
                if self.infected[w] {
                    hit = true;
                    break;
                }
            }
            self.next_infected[u] = hit;
            if hit {
                count += 1;
            }
        }
        std::mem::swap(&mut self.infected, &mut self.next_infected);
        self.num_infected = count;
    }

    fn active_indicator(&self) -> &[bool] {
        &self.infected
    }

    fn num_active(&self) -> usize {
        self.num_infected
    }

    fn is_complete(&self) -> bool {
        self.num_infected == self.graph.num_vertices()
    }
}

/// Dense single random walk (the per-step work was always `O(1)`; kept for uniformity).
#[derive(Debug)]
pub struct DenseWalk<'g> {
    graph: &'g Graph,
    position: VertexId,
    active: Vec<bool>,
    visited: Vec<bool>,
    num_visited: usize,
}

impl<'g> DenseWalk<'g> {
    /// A dense random walk (inputs pre-validated by [`build_dense`]).
    pub fn new(graph: &'g Graph, start: VertexId) -> Self {
        let n = graph.num_vertices();
        let mut active = vec![false; n];
        active[start] = true;
        let mut visited = vec![false; n];
        visited[start] = true;
        DenseWalk { graph, position: start, active, visited, num_visited: 1 }
    }
}

impl DenseProcess for DenseWalk<'_> {
    // cobra-lint: draws(bounded)
    fn step(&mut self, rng: &mut dyn RngCore) {
        let degree = self.graph.degree(self.position);
        if degree > 0 {
            let next = self.graph.neighbor(self.position, rng.gen_range(0..degree));
            self.active[self.position] = false;
            self.position = next;
            self.active[next] = true;
            if !self.visited[next] {
                self.visited[next] = true;
                self.num_visited += 1;
            }
        }
    }

    fn active_indicator(&self) -> &[bool] {
        &self.active
    }

    fn num_active(&self) -> usize {
        1
    }

    fn num_visited(&self) -> Option<usize> {
        Some(self.num_visited)
    }

    fn is_complete(&self) -> bool {
        self.num_visited == self.graph.num_vertices()
    }
}

/// Dense multiple walks: the historical step cleared the whole occupancy vector per round.
#[derive(Debug)]
pub struct DenseMultiWalks<'g> {
    graph: &'g Graph,
    positions: Vec<VertexId>,
    active: Vec<bool>,
    num_active: usize,
    visited: Vec<bool>,
    num_visited: usize,
}

impl<'g> DenseMultiWalks<'g> {
    /// Dense multiple walks (inputs pre-validated by [`build_dense`]).
    pub fn new(graph: &'g Graph, start: VertexId, walkers: usize) -> Self {
        let n = graph.num_vertices();
        let mut active = vec![false; n];
        active[start] = true;
        let mut visited = vec![false; n];
        visited[start] = true;
        DenseMultiWalks {
            graph,
            positions: vec![start; walkers],
            active,
            num_active: 1,
            visited,
            num_visited: 1,
        }
    }
}

impl DenseProcess for DenseMultiWalks<'_> {
    // cobra-lint: draws(bounded)
    fn step(&mut self, rng: &mut dyn RngCore) {
        self.active.fill(false);
        self.num_active = 0;
        for position in &mut self.positions {
            let degree = self.graph.degree(*position);
            if degree > 0 {
                *position = self.graph.neighbor(*position, rng.gen_range(0..degree));
            }
            if !self.active[*position] {
                self.active[*position] = true;
                self.num_active += 1;
            }
            if !self.visited[*position] {
                self.visited[*position] = true;
                self.num_visited += 1;
            }
        }
    }

    fn active_indicator(&self) -> &[bool] {
        &self.active
    }

    fn num_active(&self) -> usize {
        self.num_active
    }

    fn num_visited(&self) -> Option<usize> {
        Some(self.num_visited)
    }

    fn is_complete(&self) -> bool {
        self.num_visited == self.graph.num_vertices()
    }
}

/// Dense PUSH: scans all `n` vertices and allocated a fresh `newly` vector per round.
#[derive(Debug)]
pub struct DensePush<'g> {
    graph: &'g Graph,
    informed: Vec<bool>,
    num_informed: usize,
}

impl<'g> DensePush<'g> {
    /// A dense PUSH process (inputs pre-validated by [`build_dense`]).
    pub fn new(graph: &'g Graph, start: VertexId) -> Self {
        let mut informed = vec![false; graph.num_vertices()];
        informed[start] = true;
        DensePush { graph, informed, num_informed: 1 }
    }
}

impl DenseProcess for DensePush<'_> {
    // cobra-lint: draws(bounded)
    fn step(&mut self, rng: &mut dyn RngCore) {
        let n = self.graph.num_vertices();
        let mut newly = Vec::new();
        for u in 0..n {
            if !self.informed[u] {
                continue;
            }
            let degree = self.graph.degree(u);
            if degree == 0 {
                continue;
            }
            let target = self.graph.neighbor(u, rng.gen_range(0..degree));
            if !self.informed[target] {
                newly.push(target);
            }
        }
        for v in newly {
            if !self.informed[v] {
                self.informed[v] = true;
                self.num_informed += 1;
            }
        }
    }

    fn active_indicator(&self) -> &[bool] {
        &self.informed
    }

    fn num_active(&self) -> usize {
        self.num_informed
    }

    fn is_complete(&self) -> bool {
        self.num_informed == self.graph.num_vertices()
    }
}

/// Dense PUSH–PULL.
#[derive(Debug)]
pub struct DensePushPull<'g> {
    graph: &'g Graph,
    informed: Vec<bool>,
    num_informed: usize,
}

impl<'g> DensePushPull<'g> {
    /// A dense PUSH–PULL process (inputs pre-validated by [`build_dense`]).
    pub fn new(graph: &'g Graph, start: VertexId) -> Self {
        let mut informed = vec![false; graph.num_vertices()];
        informed[start] = true;
        DensePushPull { graph, informed, num_informed: 1 }
    }
}

impl DenseProcess for DensePushPull<'_> {
    // cobra-lint: draws(bounded)
    fn step(&mut self, rng: &mut dyn RngCore) {
        let n = self.graph.num_vertices();
        let mut newly = Vec::new();
        for u in 0..n {
            let degree = self.graph.degree(u);
            if degree == 0 {
                continue;
            }
            let partner = self.graph.neighbor(u, rng.gen_range(0..degree));
            if self.informed[u] && !self.informed[partner] {
                newly.push(partner);
            } else if !self.informed[u] && self.informed[partner] {
                newly.push(u);
            }
        }
        for v in newly {
            if !self.informed[v] {
                self.informed[v] = true;
                self.num_informed += 1;
            }
        }
    }

    fn active_indicator(&self) -> &[bool] {
        &self.informed
    }

    fn num_active(&self) -> usize {
        self.num_informed
    }

    fn is_complete(&self) -> bool {
        self.num_informed == self.graph.num_vertices()
    }
}

/// Dense SIS contact process.
#[derive(Debug)]
pub struct DenseContact<'g> {
    graph: &'g Graph,
    source: VertexId,
    persistent_source: bool,
    parameters: ContactParameters,
    infected: Vec<bool>,
    next_infected: Vec<bool>,
    num_infected: usize,
}

impl<'g> DenseContact<'g> {
    /// A dense contact process (inputs pre-validated by [`build_dense`]).
    pub fn new(
        graph: &'g Graph,
        source: VertexId,
        parameters: ContactParameters,
        persistent_source: bool,
    ) -> Self {
        let n = graph.num_vertices();
        let mut infected = vec![false; n];
        infected[source] = true;
        DenseContact {
            graph,
            source,
            persistent_source,
            parameters,
            infected,
            next_infected: vec![false; n],
            num_infected: 1,
        }
    }
}

impl DenseProcess for DenseContact<'_> {
    // cobra-lint: draws(bounded)
    fn step(&mut self, rng: &mut dyn RngCore) {
        let n = self.graph.num_vertices();
        self.next_infected[..n].fill(false);
        let mut count = 0usize;
        for u in 0..n {
            if !self.infected[u] {
                continue;
            }
            for v in self.graph.neighbor_iter(u) {
                if !self.next_infected[v]
                    && self.parameters.infection_probability > 0.0
                    && rng.gen_bool(self.parameters.infection_probability)
                {
                    self.next_infected[v] = true;
                    count += 1;
                }
            }
            let recovers = (!self.persistent_source || u != self.source)
                && self.parameters.recovery_probability > 0.0
                && rng.gen_bool(self.parameters.recovery_probability);
            if !recovers && !self.next_infected[u] {
                self.next_infected[u] = true;
                count += 1;
            }
        }
        if self.persistent_source && !self.next_infected[self.source] {
            self.next_infected[self.source] = true;
            count += 1;
        }
        std::mem::swap(&mut self.infected, &mut self.next_infected);
        self.num_infected = count;
    }

    fn active_indicator(&self) -> &[bool] {
        &self.infected
    }

    fn num_active(&self) -> usize {
        self.num_infected
    }

    fn is_complete(&self) -> bool {
        self.num_infected == self.graph.num_vertices()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cobra::graph::generators;
    use rand::SeedableRng;
    use rand_chacha::ChaCha12Rng;

    #[test]
    fn dense_engines_build_for_every_spec_and_complete_on_k16() {
        let graph = generators::complete(16).unwrap();
        // The dense engines model the bare processes; faulted example specs are refused.
        let faulted = ProcessSpec::examples()
            .into_iter()
            .find(|spec| spec.fault_plan().is_some())
            .expect("examples include one faulted spec");
        assert!(build_dense(&faulted, &graph).is_err());
        for spec in ProcessSpec::examples().into_iter().filter(|s| s.fault_plan().is_none()) {
            let mut rng = ChaCha12Rng::seed_from_u64(5);
            let mut dense = build_dense(&spec, &graph).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert_eq!(dense.num_active(), 1);
            let mut completed = false;
            for _ in 0..100_000 {
                if dense.is_complete() {
                    completed = true;
                    break;
                }
                dense.step(&mut rng);
            }
            assert!(completed, "{spec} dense engine failed to complete on K_16");
            assert_eq!(dense.active_indicator().iter().filter(|&&a| a).count(), dense.num_active());
        }
    }

    #[test]
    fn build_dense_rejects_what_the_frontier_constructor_rejects() {
        let graph = generators::complete(4).unwrap();
        let spec = ProcessSpec::cobra(2).unwrap().with_start(9);
        assert!(build_dense(&spec, &graph).is_err());
    }
}
