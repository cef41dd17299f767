//! Property-based tests for the graph substrate.

use cobra_graph::{generators, io, ops, Graph, GraphBuilder};
use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Strategy producing an arbitrary simple graph as (n, edge list) with `3 <= n <= 40`.
fn arbitrary_graph() -> impl Strategy<Value = Graph> {
    (3usize..40).prop_flat_map(|n| {
        let max_edges = n * (n - 1) / 2;
        proptest::collection::vec((0..n, 0..n), 0..=max_edges.min(120)).prop_map(move |pairs| {
            let mut builder = GraphBuilder::new(n);
            for (u, v) in pairs {
                if u != v {
                    builder.add_edge(u, v).expect("endpoints in range");
                }
            }
            builder.build().expect("builder output is always simple")
        })
    })
}

proptest! {
    /// Handshake lemma: the degree sum equals twice the edge count.
    #[test]
    fn handshake_lemma(g in arbitrary_graph()) {
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.num_edges());
    }

    /// Adjacency is symmetric and loop-free.
    #[test]
    fn adjacency_symmetric_and_loop_free(g in arbitrary_graph()) {
        for v in g.vertices() {
            for w in g.neighbor_iter(v) {
                prop_assert_ne!(v, w);
                prop_assert!(g.has_edge(w, v));
            }
        }
    }

    /// Edge-list text round-trips to an identical graph.
    #[test]
    fn edge_list_round_trip(g in arbitrary_graph()) {
        let text = io::to_edge_list(&g);
        let back = io::parse_edge_list(&text).expect("serialised graph parses");
        prop_assert_eq!(g, back);
    }

    /// Connected components partition the vertex set and agree with `is_connected`.
    #[test]
    fn components_partition_vertices(g in arbitrary_graph()) {
        let (labels, count) = ops::connected_components(&g);
        prop_assert_eq!(labels.len(), g.num_vertices());
        if g.num_vertices() > 0 {
            prop_assert!(labels.iter().all(|&l| l < count));
            prop_assert_eq!(count == 1, ops::is_connected(&g));
        }
        // Every edge stays within one component.
        for (u, v) in g.edges() {
            prop_assert_eq!(labels[u], labels[v]);
        }
    }

    /// Random regular graphs are exactly regular, simple and of the right size.
    #[test]
    fn random_regular_invariants(n in 4usize..80, r in 2usize..6, seed in 0u64..1000) {
        prop_assume!(n * r % 2 == 0);
        prop_assume!(r < n);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::random_regular(n, r, &mut rng).expect("valid parameters");
        prop_assert_eq!(g.num_vertices(), n);
        prop_assert_eq!(g.regular_degree(), Some(r));
        prop_assert_eq!(g.num_edges(), n * r / 2);
    }

    /// Connected random regular graphs are connected.
    #[test]
    fn connected_random_regular_is_connected(n in 6usize..64, seed in 0u64..500) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let g = generators::connected_random_regular(n, 3, &mut rng);
        prop_assume!(n * 3 % 2 == 0);
        let g = g.expect("valid parameters");
        prop_assert!(ops::is_connected(&g));
    }

    /// Torus generators produce 2d-regular connected graphs when all sides are >= 3.
    #[test]
    fn torus_regularity(sides in proptest::collection::vec(3usize..7, 1..4)) {
        let g = generators::torus(&sides).expect("valid sides");
        prop_assert_eq!(g.num_vertices(), sides.iter().product::<usize>());
        prop_assert_eq!(g.regular_degree(), Some(2 * sides.len()));
        prop_assert!(ops::is_connected(&g));
    }

    /// Cycle powers have the expected degree and are vertex-transitive in degree.
    #[test]
    fn cycle_power_degree(n in 8usize..60, k in 1usize..4) {
        prop_assume!(k <= n / 2);
        let g = generators::cycle_power(n, k).expect("valid parameters");
        let expected = if n % 2 == 0 && k == n / 2 { 2 * k - 1 } else { 2 * k };
        prop_assert_eq!(g.regular_degree(), Some(expected));
    }

    /// BFS distances satisfy the triangle inequality along edges.
    #[test]
    fn bfs_distances_are_1_lipschitz_along_edges(g in arbitrary_graph()) {
        prop_assume!(g.num_vertices() > 0);
        let dist = ops::bfs_distances(&g, 0);
        for (u, v) in g.edges() {
            if dist[u] != usize::MAX && dist[v] != usize::MAX {
                let du = dist[u] as isize;
                let dv = dist[v] as isize;
                prop_assert!((du - dv).abs() <= 1);
            } else {
                // If one endpoint is unreachable, both must be.
                prop_assert_eq!(dist[u], dist[v]);
            }
        }
    }
}

/// The random-regular stub matcher as it stood with a hash-set duplicate filter: a
/// self-contained oracle (its own Fisher–Yates loop, its own connectivity test) that the
/// generator must match graph for graph and draw for draw.
mod hash_set_matcher {
    use cobra_graph::{ops, Graph, GraphError};
    use rand::Rng;
    use std::collections::HashSet;

    const MAX_RESTARTS: usize = 1000;

    fn shuffle<R: Rng>(slice: &mut [usize], rng: &mut R) {
        for i in (1..slice.len()).rev() {
            let j = rng.gen_range(0..=i);
            slice.swap(i, j);
        }
    }

    pub fn random_regular<R: Rng>(n: usize, r: usize, rng: &mut R) -> Result<Graph, GraphError> {
        if n == 0 {
            return Err(GraphError::InvalidParameters {
                reason: "random regular graph needs at least 1 vertex".to_string(),
            });
        }
        if r >= n {
            return Err(GraphError::InvalidParameters {
                reason: format!("degree r = {r} must be smaller than n = {n}"),
            });
        }
        if !(n * r).is_multiple_of(2) {
            return Err(GraphError::InvalidParameters {
                reason: format!("n * r = {} must be even", n * r),
            });
        }
        if r == 0 {
            return Graph::from_edges(n, &[]);
        }
        for _ in 0..MAX_RESTARTS {
            if let Some(edges) = try_matching(n, r, rng) {
                return Graph::from_edges(n, &edges);
            }
        }
        Err(GraphError::GenerationFailed {
            reason: format!("could not realise a simple {r}-regular graph on {n} vertices"),
        })
    }

    fn try_matching<R: Rng>(n: usize, r: usize, rng: &mut R) -> Option<Vec<(usize, usize)>> {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, r)).collect();
        let mut edges: HashSet<(usize, usize)> = HashSet::new();
        while !stubs.is_empty() {
            shuffle(&mut stubs, rng);
            let mut leftover = Vec::new();
            let mut progress = false;
            let mut i = 0;
            while i + 1 < stubs.len() {
                let (u, v) = (stubs[i], stubs[i + 1]);
                let key = (u.min(v), u.max(v));
                if u != v && !edges.contains(&key) {
                    edges.insert(key);
                    progress = true;
                } else {
                    leftover.push(u);
                    leftover.push(v);
                }
                i += 2;
            }
            if i < stubs.len() {
                leftover.push(stubs[i]);
            }
            if !progress && !suitable(&leftover, &edges) {
                return None;
            }
            stubs = leftover;
        }
        let mut edges: Vec<(usize, usize)> = edges.into_iter().collect();
        edges.sort_unstable();
        Some(edges)
    }

    fn suitable(stubs: &[usize], edges: &HashSet<(usize, usize)>) -> bool {
        let mut distinct = stubs.to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        if distinct.is_empty() {
            return true;
        }
        for (i, &u) in distinct.iter().enumerate() {
            for &v in &distinct[i + 1..] {
                if !edges.contains(&(u, v)) {
                    return true;
                }
            }
        }
        false
    }

    pub fn connected_random_regular<R: Rng>(
        n: usize,
        r: usize,
        rng: &mut R,
    ) -> Result<Graph, GraphError> {
        if n == 1 && r == 0 {
            return Graph::from_edges(1, &[]);
        }
        const ATTEMPTS: usize = 200;
        for _ in 0..ATTEMPTS {
            let g = random_regular(n, r, rng)?;
            if ops::connected_components(&g).1 == 1 {
                return Ok(g);
            }
        }
        Err(GraphError::GenerationFailed {
            reason: format!(
                "no connected {r}-regular graph on {n} vertices found in {ATTEMPTS} attempts"
            ),
        })
    }
}

/// Runs both regular generators and the hash-set oracle on `(n, r, seed)` and asserts the
/// same result (graph or error) and the same RNG position afterwards.
fn assert_matches_hash_set_matcher(n: usize, r: usize, seed: u64) {
    use rand::RngCore;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut oracle_rng = ChaCha8Rng::seed_from_u64(seed);
    assert_eq!(
        generators::random_regular(n, r, &mut rng),
        hash_set_matcher::random_regular(n, r, &mut oracle_rng),
        "random_regular(n = {n}, r = {r}, seed = {seed})"
    );
    assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "RNG position, n = {n}, r = {r}");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut oracle_rng = ChaCha8Rng::seed_from_u64(seed);
    assert_eq!(
        generators::connected_random_regular(n, r, &mut rng),
        hash_set_matcher::connected_random_regular(n, r, &mut oracle_rng),
        "connected_random_regular(n = {n}, r = {r}, seed = {seed})"
    );
    assert_eq!(rng.next_u64(), oracle_rng.next_u64(), "RNG position, n = {n}, r = {r}");
}

/// A random sparse graph on `0..60` vertices: with `spanning` set, a random spanning tree
/// plus extra edges (connected); otherwise only random edges (usually disconnected).
fn sparse_graph(spanning: bool) -> impl Strategy<Value = Graph> {
    (0usize..60).prop_flat_map(move |n| {
        let extra = proptest::collection::vec((0..n.max(1), 0..n.max(1)), 0..=n);
        let parents = proptest::collection::vec(0u64..u64::MAX, n.saturating_sub(1));
        (parents, extra).prop_map(move |(parents, extra)| {
            let mut builder = GraphBuilder::new(n);
            if spanning {
                for (i, &p) in parents.iter().enumerate() {
                    let v = i + 1;
                    builder.add_edge(v, (p % v as u64) as usize).expect("endpoints in range");
                }
            }
            for (u, v) in extra {
                if u != v && u < n && v < n {
                    builder.add_edge(u, v).expect("endpoints in range");
                }
            }
            builder.build().expect("builder output is always simple")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Random `(n, r, seed)`, including `r >= n` and odd `n·r` (both sides must return the
    /// same parameter error).
    #[test]
    fn random_regular_matches_hash_set_matcher(n in 0usize..120, r in 0usize..14, seed in 0u64..u64::MAX) {
        assert_matches_hash_set_matcher(n, r, seed);
    }

    /// Restart-heavy small cases: `n <= 16` with `r` within four of `n`.
    #[test]
    fn dense_random_regular_matches_hash_set_matcher(n in 1usize..=16, gap in 1usize..=4, seed in 0u64..u64::MAX) {
        assert_matches_hash_set_matcher(n, n.saturating_sub(gap), seed);
    }

    /// `r = n − 1`, the complete graph, is always a valid request.
    #[test]
    fn complete_random_regular_matches_hash_set_matcher(n in 1usize..=24, seed in 0u64..u64::MAX) {
        assert_matches_hash_set_matcher(n, n - 1, seed);
    }

    /// `r = 0`: edgeless, and never connected for `n >= 2`.
    #[test]
    fn edgeless_random_regular_matches_hash_set_matcher(n in 0usize..40, seed in 0u64..u64::MAX) {
        assert_matches_hash_set_matcher(n, 0, seed);
    }

    /// Odd `n·r` is rejected with the same error.
    #[test]
    fn odd_degree_sum_matches_hash_set_matcher(half_n in 1usize..30, half_r in 0usize..10, seed in 0u64..u64::MAX) {
        let (n, r) = (2 * half_n + 1, 2 * half_r + 1);
        assert_matches_hash_set_matcher(n, r, seed);
    }
}

proptest! {
    /// `is_connected` agrees with the component count on connected graphs.
    #[test]
    fn is_connected_agrees_with_components_on_spanning_graphs(g in sparse_graph(true)) {
        prop_assert!(ops::is_connected(&g));
        prop_assert!(ops::connected_components(&g).1 <= 1);
    }

    /// ... and on sparse random graphs, which are mostly disconnected.
    #[test]
    fn is_connected_agrees_with_components_on_sparse_graphs(g in sparse_graph(false)) {
        prop_assert_eq!(ops::is_connected(&g), ops::connected_components(&g).1 <= 1);
    }
}

#[test]
fn is_connected_on_the_empty_graph_and_a_single_vertex() {
    for g in [Graph::default(), Graph::from_edges(1, &[]).unwrap()] {
        assert!(ops::is_connected(&g));
        assert!(ops::connected_components(&g).1 <= 1);
    }
    assert!(!ops::is_connected(&Graph::from_edges(2, &[]).unwrap()));
}

/// 64-bit FNV-1a over the little-endian bytes of the CSR offsets, then the neighbour rows.
fn csr_digest(g: &Graph) -> u64 {
    let offsets = std::iter::once(0u32).chain(g.vertices().scan(0u32, |end, v| {
        *end += g.degree(v) as u32;
        Some(*end)
    }));
    let neighbors = g.vertices().flat_map(|v| g.neighbors(v).iter().copied());
    offsets
        .chain(neighbors)
        .flat_map(u32::to_le_bytes)
        .fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// `GraphFamily::instantiate` digests for `random-regular` keys, recorded from the hash-set
/// matcher. Any change to the matcher's draws or to the built graph moves them.
#[test]
fn random_regular_instances_match_the_recorded_digests() {
    let cases: [(&str, u64, u64); 8] = [
        ("random-regular:n=10,r=7", 1, 0x2aab_9aeb_739e_1c4d),
        ("random-regular:n=12,r=9", 2, 0xee51_a813_8709_4719),
        ("random-regular:n=16,r=15", 3, 0x90e1_5e87_84bb_d975),
        ("random-regular:n=64,r=4", 4, 0x1c9f_d0f2_0b95_b76a),
        ("random-regular:n=200,r=3", 5, 0x09cd_ba37_b51e_a3ea),
        ("random-regular:n=300,r=120", 6, 0xa54e_6aa3_a89a_1041),
        ("random-regular:n=2048,r=8", 7, 0x80f6_2514_caa6_563d),
        ("random-regular:n=16384,r=8", 2016, 0xa9aa_7699_a73f_531b),
    ];
    for (key, seed, expected) in cases {
        let family: cobra_graph::generators::GraphFamily = key.parse().expect("valid key");
        let g = family.instantiate(&mut ChaCha8Rng::seed_from_u64(seed)).expect("instance");
        assert_eq!(csr_digest(&g), expected, "{key} seed {seed}");
    }
}
