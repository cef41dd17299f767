//! The PUSH and PUSH–PULL rumour-spreading protocols.
//!
//! PUSH is the "simplest model of information propagation" the paper's abstract refers to:
//! every *informed* vertex pushes the rumour to one uniformly random neighbour each round and
//! stays informed forever. It spreads in `O(log n)` rounds on good expanders but its
//! per-round transmission count grows to `n` (every informed vertex keeps sending), whereas
//! COBRA caps transmissions at `k` per *active* vertex and lets vertices go quiet — the
//! trade-off the paper is about. PUSH–PULL additionally lets uninformed vertices pull from a
//! random neighbour.
//!
//! Both processes reuse scratch buffers across rounds (no per-round allocation) and iterate
//! an explicit informed list: a PUSH round costs `O(|informed| + n/512)`, not `O(n)`.
//! PUSH–PULL inherently scans all `n` vertices (uninformed vertices pull too — that is the
//! protocol), but its delta/list bookkeeping keeps observers `O(|delta|)`.

use cobra_graph::{sample, Graph, VertexBitset, VertexId};
use rand::RngCore;

use crate::fault::StepFaults;
use crate::parallel::Draws;
use crate::process::SpreadingProcess;
use crate::{CoreError, Result};

fn validate(graph: &Graph, start: VertexId) -> Result<()> {
    let n = graph.num_vertices();
    if n == 0 {
        return Err(CoreError::UnsuitableGraph { reason: "empty graph".to_string() });
    }
    if start >= n {
        return Err(CoreError::VertexOutOfRange { vertex: start, num_vertices: n });
    }
    if n > 1 {
        if let Some(isolated) = graph.first_isolated() {
            return Err(CoreError::UnsuitableGraph {
                reason: format!("vertex {isolated} is isolated and can never be informed"),
            });
        }
    }
    Ok(())
}

/// The classical PUSH protocol.
#[derive(Debug, Clone)]
pub struct PushProcess<'g> {
    graph: &'g Graph,
    start: VertexId,
    informed: VertexBitset,
    /// The informed set as an ascending list — the frontier every round iterates.
    informed_list: Vec<VertexId>,
    /// Vertices informed by the last step (scratch reused across rounds).
    newly: Vec<VertexId>,
    round: usize,
}

impl<'g> PushProcess<'g> {
    /// Creates a PUSH process with a single initially informed vertex.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::VertexOutOfRange`] / [`CoreError::UnsuitableGraph`] as for the
    /// other processes.
    pub fn new(graph: &'g Graph, start: VertexId) -> Result<Self> {
        validate(graph, start)?;
        let mut informed = VertexBitset::new(graph.num_vertices());
        informed.insert(start);
        Ok(PushProcess {
            graph,
            start,
            informed,
            informed_list: vec![start],
            newly: vec![start],
            round: 0,
        })
    }
}

/// One round's read-only PUSH inputs and the per-sender kernel that both draw sources
/// iterate.
struct Pusher<'a> {
    graph: &'a Graph,
    faults: &'a StepFaults<'a>,
}

impl Pusher<'_> {
    /// Whether `u` sends this round. A crashed vertex knows the rumour but never sends it,
    /// and an isolated one has nobody to send to; neither draws.
    #[inline]
    fn sends(&self, u: VertexId) -> bool {
        !self.faults.is_crashed(u) && self.graph.degree(u) > 0
    }

    /// Sends the message of a sending `u` and returns its target, or `None` when the message
    /// is lost.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    #[inline]
    fn send<R: RngCore>(&self, u: VertexId, rng: &mut R) -> Option<VertexId> {
        if self.faults.drops_from(rng, u) {
            return None;
        }
        let target = *sample::sample_slice(self.graph.neighbors(u), rng)
            .expect("neighbour slice is non-empty") as VertexId;
        // A severed cut blocks the message after the target draw; a per-edge channel may
        // then lose it on the chosen link.
        if self.faults.severs(u, target) || self.faults.drops_on_edge(rng, u, target) {
            return None;
        }
        Some(target)
    }
}

impl SpreadingProcess for PushProcess<'_> {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        self.newly.clear();
        let pusher = Pusher { graph: self.graph, faults };
        // The informed set is monotone, so targets can be marked immediately: no push
        // decision in this round depends on the informed state, and marking eagerly
        // deduplicates `newly` for free (the dense engine's deferred application with its
        // double `!informed` check produces the identical set).
        let mut deliver = |message: Option<VertexId>| {
            if let Some(target) = message {
                if self.informed.insert(target) {
                    self.newly.push(target);
                }
            }
        };
        match draws {
            Draws::Trial(mut rng) => {
                for &u in &self.informed_list {
                    if pusher.sends(u) {
                        deliver(pusher.send(u, &mut rng));
                    }
                }
            }
            // Each sender draws from its own `(vertex, round)` stream; shard merges
            // preserve sender-ascending order.
            Draws::Streams(engine) => {
                let (informed, round) = (&self.informed_list, self.round as u64);
                let shards = engine.shard_buffers(informed.len(), |range, messages| {
                    let senders =
                        informed[range].iter().filter(|&&u| pusher.sends(u)).map(|&u| u as u64);
                    engine.streams().for_each_stream(senders, round, |u, rng| {
                        messages.push(pusher.send(u as VertexId, rng));
                    });
                });
                for message in shards.into_iter().flatten() {
                    deliver(message);
                }
            }
        }
        if !self.newly.is_empty() {
            self.informed_list.clear();
            self.informed.collect_into(&mut self.informed_list);
        }
        self.round += 1;
    }

    fn round(&self) -> usize {
        self.round
    }

    fn active(&self) -> &VertexBitset {
        &self.informed
    }

    fn num_active(&self) -> usize {
        self.informed_list.len()
    }

    fn newly_activated(&self) -> &[VertexId] {
        &self.newly
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        for &v in &self.informed_list {
            f(v);
        }
    }

    fn is_complete(&self) -> bool {
        self.informed_list.len() == self.graph.num_vertices()
    }

    fn adopt_state(
        &mut self,
        active: &[VertexId],
        coverage: Option<&VertexBitset>,
        round: usize,
    ) -> Result<()> {
        crate::process::validate_adopted_state(self.graph.num_vertices(), active, coverage)?;
        self.informed.clear_list(&self.informed_list);
        self.informed_list.clear();
        self.newly.clear();
        for &v in active {
            if self.informed.insert(v) {
                self.newly.push(v);
            }
        }
        self.informed.collect_into(&mut self.informed_list);
        self.round = round;
        Ok(())
    }

    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        // The informed set is monotone and *is* the coverage, so re-seeding covered vertices
        // is naturally a no-op; only genuinely uninformed vertices change state.
        let mut inserted = 0;
        for &v in vertices {
            if v < self.graph.num_vertices() && self.informed.insert(v) {
                self.newly.push(v);
                inserted += 1;
            }
        }
        if inserted > 0 {
            self.informed_list.clear();
            self.informed.collect_into(&mut self.informed_list);
        }
        inserted
    }

    fn reset(&mut self) {
        self.informed.clear_list(&self.informed_list);
        self.informed_list.clear();
        self.informed.insert(self.start);
        self.informed_list.push(self.start);
        self.newly.clear();
        self.newly.push(self.start);
        self.round = 0;
    }
}

/// The PUSH–PULL protocol: informed vertices push and uninformed vertices pull, both to one
/// uniformly random neighbour per round.
#[derive(Debug, Clone)]
pub struct PushPullProcess<'g> {
    graph: &'g Graph,
    start: VertexId,
    informed: VertexBitset,
    informed_list: Vec<VertexId>,
    /// Contact candidates of the current round (may contain duplicates; scratch reused).
    contacts: Vec<VertexId>,
    newly: Vec<VertexId>,
    round: usize,
}

impl<'g> PushPullProcess<'g> {
    /// Creates a PUSH–PULL process with a single initially informed vertex.
    ///
    /// # Errors
    ///
    /// Same as [`PushProcess::new`].
    pub fn new(graph: &'g Graph, start: VertexId) -> Result<Self> {
        validate(graph, start)?;
        let mut informed = VertexBitset::new(graph.num_vertices());
        informed.insert(start);
        Ok(PushPullProcess {
            graph,
            start,
            informed,
            informed_list: vec![start],
            contacts: Vec::new(),
            newly: vec![start],
            round: 0,
        })
    }
}

/// One round's read-only PUSH–PULL inputs and the per-vertex kernel that both draw
/// sources iterate.
struct Caller<'a> {
    graph: &'a Graph,
    informed: &'a VertexBitset,
    faults: &'a StepFaults<'a>,
}

impl Caller<'_> {
    /// Whether `u` calls a partner this round (every vertex with a neighbour does).
    #[inline]
    fn calls(&self, u: VertexId) -> bool {
        self.graph.degree(u) > 0
    }

    /// Places the call of a calling `u` and returns the vertex it informs, if any: `u`'s
    /// partner when `u` pushes, `u` itself when it pulls. `u` initiates both directions,
    /// so the partner draw and either direction's drop draw come from `u`'s RNG.
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    #[inline]
    fn call<R: RngCore>(&self, u: VertexId, rng: &mut R) -> Option<VertexId> {
        let partner = *sample::sample_slice(self.graph.neighbors(u), rng)
            .expect("neighbour slice is non-empty") as VertexId;
        // Crash disables transmission only: a crashed vertex neither pushes the rumour
        // nor answers a pull, but it can still receive and still request. A severed
        // cut blocks the contact in both directions before any drop draw.
        let (from, to) = match (self.informed.contains(u), self.informed.contains(partner)) {
            (true, false) => (u, partner),
            (false, true) => (partner, u),
            _ => return None,
        };
        let delivered = !self.faults.is_crashed(from)
            && !self.faults.severs(from, to)
            && !self.faults.drops_from(rng, from)
            && !self.faults.drops_on_edge(rng, from, to);
        delivered.then_some(to)
    }
}

impl SpreadingProcess for PushPullProcess<'_> {
    // cobra-lint: hot
    // cobra-lint: par
    // cobra-lint: draws(bounded)
    fn step_faulted(&mut self, draws: Draws<'_>, faults: &StepFaults<'_>) {
        let n = self.graph.num_vertices();
        // Every vertex contacts a partner based on the *start-of-round* informed state, so
        // application must be deferred — collect contacts first, then mark.
        self.contacts.clear();
        let caller = Caller { graph: self.graph, informed: &self.informed, faults };
        let mut record = |contact: Option<VertexId>| {
            if let Some(v) = contact {
                self.contacts.push(v);
            }
        };
        match draws {
            Draws::Trial(mut rng) => {
                for u in 0..n {
                    if caller.calls(u) {
                        record(caller.call(u, &mut rng));
                    }
                }
            }
            // Each caller draws from its own `(vertex, round)` stream; shard merges keep
            // the contacts in caller order.
            Draws::Streams(engine) => {
                let round = self.round as u64;
                let shards = engine.shard_buffers(n, |range, contacts| {
                    let callers = range.filter(|&u| caller.calls(u)).map(|u| u as u64);
                    engine.streams().for_each_stream(callers, round, |u, rng| {
                        contacts.push(caller.call(u as VertexId, rng));
                    });
                });
                for contact in shards.into_iter().flatten() {
                    record(contact);
                }
            }
        }
        self.newly.clear();
        for &v in &self.contacts {
            if self.informed.insert(v) {
                self.newly.push(v);
            }
        }
        if !self.newly.is_empty() {
            self.informed_list.clear();
            self.informed.collect_into(&mut self.informed_list);
        }
        self.round += 1;
    }

    fn round(&self) -> usize {
        self.round
    }

    fn active(&self) -> &VertexBitset {
        &self.informed
    }

    fn num_active(&self) -> usize {
        self.informed_list.len()
    }

    fn newly_activated(&self) -> &[VertexId] {
        &self.newly
    }

    fn for_each_active(&self, f: &mut dyn FnMut(VertexId)) {
        for &v in &self.informed_list {
            f(v);
        }
    }

    fn is_complete(&self) -> bool {
        self.informed_list.len() == self.graph.num_vertices()
    }

    fn adopt_state(
        &mut self,
        active: &[VertexId],
        coverage: Option<&VertexBitset>,
        round: usize,
    ) -> Result<()> {
        crate::process::validate_adopted_state(self.graph.num_vertices(), active, coverage)?;
        self.informed.clear_list(&self.informed_list);
        self.informed_list.clear();
        self.newly.clear();
        for &v in active {
            if self.informed.insert(v) {
                self.newly.push(v);
            }
        }
        self.informed.collect_into(&mut self.informed_list);
        self.round = round;
        Ok(())
    }

    fn reseed(&mut self, vertices: &[VertexId]) -> usize {
        let mut inserted = 0;
        for &v in vertices {
            if v < self.graph.num_vertices() && self.informed.insert(v) {
                self.newly.push(v);
                inserted += 1;
            }
        }
        if inserted > 0 {
            self.informed_list.clear();
            self.informed.collect_into(&mut self.informed_list);
        }
        inserted
    }

    fn reset(&mut self) {
        self.informed.clear_list(&self.informed_list);
        self.informed_list.clear();
        self.informed.insert(self.start);
        self.informed_list.push(self.start);
        self.newly.clear();
        self.newly.push(self.start);
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
    fn construction_validates() {
        let g = generators::cycle(4).unwrap();
        assert!(PushProcess::new(&g, 9).is_err());
        assert!(PushPullProcess::new(&g, 9).is_err());
        assert!(PushProcess::new(&cobra_graph::Graph::default(), 0).is_err());
    }

    #[test]
    fn informed_set_is_monotone_and_completes_on_expanders() {
        let g = generators::complete(128).unwrap();
        let mut push = PushProcess::new(&g, 0).unwrap();
        let mut r = rng(1);
        let mut previous = 1usize;
        while !push.is_complete() {
            push.step(&mut r);
            assert!(push.num_active() >= previous, "PUSH never forgets");
            assert!(push.num_active() <= 2 * previous, "PUSH at most doubles per round");
            assert_eq!(push.num_active(), previous + push.newly_activated().len());
            previous = push.num_active();
            assert!(push.round() < 1000, "PUSH must finish quickly on K_n");
        }
        assert!(push.round() < 60);
    }

    #[test]
    fn informed_list_stays_in_sync_with_the_bitset() {
        let g = generators::hypercube(5).unwrap();
        let mut push = PushProcess::new(&g, 7).unwrap();
        let mut r = rng(9);
        for _ in 0..20 {
            push.step(&mut r);
            let mut listed = Vec::new();
            push.for_each_active(&mut |v| listed.push(v));
            assert_eq!(listed, push.active().iter().collect::<Vec<_>>());
        }
    }

    #[test]
    fn push_pull_is_at_least_as_fast_as_push_on_average() {
        let g = generators::connected_random_regular(256, 3, &mut rng(2)).unwrap();
        let mut push_total = 0usize;
        let mut pushpull_total = 0usize;
        for seed in 0..5u64 {
            let mut push = PushProcess::new(&g, 0).unwrap();
            push_total += run_until_complete(&mut push, &mut rng(100 + seed), 100_000).unwrap();
            let mut pp = PushPullProcess::new(&g, 0).unwrap();
            pushpull_total += run_until_complete(&mut pp, &mut rng(200 + seed), 100_000).unwrap();
        }
        assert!(
            pushpull_total <= push_total,
            "PUSH-PULL ({pushpull_total}) should not be slower than PUSH ({push_total})"
        );
    }

    #[test]
    fn reset_works_for_both_protocols() {
        let g = generators::petersen().unwrap();
        let mut r = rng(4);
        let mut push = PushProcess::new(&g, 2).unwrap();
        run_until_complete(&mut push, &mut r, 10_000).unwrap();
        push.reset();
        assert_eq!(push.num_active(), 1);
        assert_eq!(push.newly_activated(), &[2]);
        let mut pp = PushPullProcess::new(&g, 2).unwrap();
        run_until_complete(&mut pp, &mut r, 10_000).unwrap();
        pp.reset();
        assert_eq!(pp.num_active(), 1);
        assert_eq!(pp.round(), 0);
    }
}
