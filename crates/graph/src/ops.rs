//! Structural graph operations: traversals, connectivity, bipartiteness, distances and
//! degree statistics.
//!
//! The theory in the reproduced paper applies to connected, non-bipartite regular graphs
//! (bipartite graphs have `λ_n = -1`, so `λ = 1` and the bounds are vacuous). The checks in
//! this module are what the generators and experiments use to validate instances before
//! simulating on them.

use std::collections::VecDeque;

use crate::{Graph, VertexId};

/// Breadth-first distances from `source`; unreachable vertices get `usize::MAX`.
///
/// # Panics
///
/// Panics if `source` is not a vertex of `g`.
pub fn bfs_distances(g: &Graph, source: VertexId) -> Vec<usize> {
    assert!(source < g.num_vertices(), "source vertex out of range");
    let mut dist = vec![usize::MAX; g.num_vertices()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(u) = queue.pop_front() {
        for v in g.neighbor_iter(u) {
            if dist[v] == usize::MAX {
                dist[v] = dist[u] + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// Returns `true` if the graph is connected. The empty graph is considered connected.
///
/// One BFS from vertex 0 over a `u32` queue and a `seen` flag per vertex: the queue holds
/// each reached vertex once, so its final length is the count compared with `n`. Time
/// `O(n + m)`, memory `5n` bytes. On a graph much larger than the cache each dequeued
/// vertex costs a random `offsets` read and a random row read, so the loop hints the row
/// of the vertex 8 queue slots ahead into cache; the hint changes no result.
pub fn is_connected(g: &Graph) -> bool {
    /// How many queue slots ahead of the dequeued vertex its row is hinted into cache.
    const ROW_AHEAD: usize = 8;
    let n = g.num_vertices();
    if n == 0 {
        return true;
    }
    let mut seen = vec![false; n];
    let mut queue: Vec<u32> = Vec::with_capacity(n);
    seen[0] = true;
    queue.push(0);
    let mut head = 0;
    while let Some(&u) = queue.get(head) {
        if let Some(&ahead) = queue.get(head + ROW_AHEAD) {
            g.prefetch_row(ahead as usize);
        }
        head += 1;
        for &w in g.neighbors(u as usize) {
            if !std::mem::replace(&mut seen[w as usize], true) {
                queue.push(w);
            }
        }
    }
    queue.len() == n
}

/// Labels each vertex with its connected-component index (components numbered from 0 in
/// order of their smallest vertex) and returns `(labels, component_count)`.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.num_vertices();
    let mut label = vec![usize::MAX; n];
    let mut count = 0usize;
    for start in 0..n {
        if label[start] != usize::MAX {
            continue;
        }
        let mut queue = VecDeque::new();
        label[start] = count;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbor_iter(u) {
                if label[v] == usize::MAX {
                    label[v] = count;
                    queue.push_back(v);
                }
            }
        }
        count += 1;
    }
    (label, count)
}

/// Returns `true` if the graph is bipartite (2-colourable).
///
/// An empty or edgeless graph is bipartite. For connected regular graphs, bipartiteness is
/// equivalent to `λ_n = -1`, i.e. a vanishing absolute spectral gap — exactly the graphs
/// excluded by the paper's hypotheses.
pub fn is_bipartite(g: &Graph) -> bool {
    let n = g.num_vertices();
    let mut colour = vec![u8::MAX; n];
    for start in 0..n {
        if colour[start] != u8::MAX {
            continue;
        }
        colour[start] = 0;
        let mut queue = VecDeque::new();
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            for v in g.neighbor_iter(u) {
                if colour[v] == u8::MAX {
                    colour[v] = 1 - colour[u];
                    queue.push_back(v);
                } else if colour[v] == colour[u] {
                    return false;
                }
            }
        }
    }
    true
}

/// Eccentricity of `source`: the greatest BFS distance to any reachable vertex.
///
/// Returns `None` if some vertex is unreachable from `source`.
///
/// # Panics
///
/// Panics if `source` is not a vertex of `g`.
pub fn eccentricity(g: &Graph, source: VertexId) -> Option<usize> {
    let dist = bfs_distances(g, source);
    let mut ecc = 0usize;
    for d in dist {
        if d == usize::MAX {
            return None;
        }
        ecc = ecc.max(d);
    }
    Some(ecc)
}

/// Exact diameter (maximum eccentricity) via an all-sources BFS.
///
/// Returns `None` for disconnected or empty graphs. Cost is `O(n·(n+m))`; intended for the
/// moderate sizes used in tests and experiment sanity checks.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.num_vertices() == 0 {
        return None;
    }
    let mut diam = 0usize;
    for v in g.vertices() {
        diam = diam.max(eccentricity(g, v)?);
    }
    Some(diam)
}

/// Average shortest-path distance over ordered pairs of distinct vertices.
///
/// Returns `None` for disconnected graphs or graphs with fewer than two vertices.
pub fn average_distance(g: &Graph) -> Option<f64> {
    let n = g.num_vertices();
    if n < 2 {
        return None;
    }
    let mut total = 0u128;
    for v in g.vertices() {
        for d in bfs_distances(g, v) {
            if d == usize::MAX {
                return None;
            }
            total += d as u128;
        }
    }
    Some(total as f64 / (n as f64 * (n as f64 - 1.0)))
}

/// Summary statistics of the degree sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: usize,
    /// Largest degree.
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
    /// Population variance of the degree sequence.
    pub variance: f64,
    /// Whether every vertex has the same degree.
    pub is_regular: bool,
}

/// Computes [`DegreeStats`] for a non-empty graph, or `None` for the empty graph.
pub fn degree_stats(g: &Graph) -> Option<DegreeStats> {
    let n = g.num_vertices();
    if n == 0 {
        return None;
    }
    let degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let min = *degrees.iter().min().expect("non-empty");
    let max = *degrees.iter().max().expect("non-empty");
    let mean = degrees.iter().sum::<usize>() as f64 / n as f64;
    let variance = degrees.iter().map(|&d| (d as f64 - mean).powi(2)).sum::<f64>() / n as f64;
    Some(DegreeStats { min, max, mean, variance, is_regular: min == max })
}

/// Builds the induced subgraph on `keep` (vertices are relabelled `0..keep.len()` in the order
/// given) and returns it together with the mapping `new_id -> old_id`.
///
/// # Panics
///
/// Panics if `keep` contains an out-of-range or repeated vertex.
pub fn induced_subgraph(g: &Graph, keep: &[VertexId]) -> (Graph, Vec<VertexId>) {
    let n = g.num_vertices();
    let mut new_id = vec![usize::MAX; n];
    for (i, &v) in keep.iter().enumerate() {
        assert!(v < n, "vertex {v} out of range");
        assert!(new_id[v] == usize::MAX, "vertex {v} repeated in keep list");
        new_id[v] = i;
    }
    let mut edges = Vec::new();
    for &v in keep {
        for w in g.neighbor_iter(v) {
            if v < w && new_id[w] != usize::MAX {
                edges.push((new_id[v], new_id[w]));
            }
        }
    }
    let sub = Graph::from_edges(keep.len(), &edges)
        .expect("induced subgraph of a simple graph is simple");
    (sub, keep.to_vec())
}

/// The complement graph: same vertex set, `{u,v}` is an edge iff it is not an edge of `g`.
pub fn complement(g: &Graph) -> Graph {
    let n = g.num_vertices();
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if !g.has_edge(u, v) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges).expect("complement of a simple graph is simple")
}

/// Computes the `k`-core decomposition: `core[v]` is the largest `k` such that `v` belongs to a
/// subgraph of minimum degree `k`.
pub fn core_numbers(g: &Graph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut degree: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let max_deg = degree.iter().copied().max().unwrap_or(0);
    // Bucket sort vertices by degree (standard O(n + m) peeling).
    let mut bins = vec![0usize; max_deg + 2];
    for &d in &degree {
        bins[d] += 1;
    }
    let mut start = 0usize;
    for bin in bins.iter_mut().take(max_deg + 1) {
        let count = *bin;
        *bin = start;
        start += count;
    }
    let mut pos = vec![0usize; n];
    let mut order = vec![0usize; n];
    for v in 0..n {
        pos[v] = bins[degree[v]];
        order[pos[v]] = v;
        bins[degree[v]] += 1;
    }
    for d in (1..=max_deg).rev() {
        bins[d] = bins[d - 1];
    }
    if max_deg + 1 < bins.len() {
        bins[0] = 0;
    }
    let mut core = degree.clone();
    for i in 0..n {
        let v = order[i];
        core[v] = degree[v];
        for u in g.neighbor_iter(v) {
            if degree[u] > degree[v] {
                // Move u one bucket down.
                let du = degree[u];
                let pu = pos[u];
                let pw = bins[du];
                let w = order[pw];
                if u != w {
                    order[pu] = w;
                    order[pw] = u;
                    pos[u] = pw;
                    pos[w] = pu;
                }
                bins[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn bfs_distances_on_path() {
        let g = generators::path(5).unwrap();
        let dist = bfs_distances(&g, 0);
        assert_eq!(dist, vec![0, 1, 2, 3, 4]);
        let dist = bfs_distances(&g, 2);
        assert_eq!(dist, vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn connectivity_detection() {
        let connected = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(is_connected(&connected));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(!is_connected(&disconnected));
        assert!(is_connected(&Graph::default()));
    }

    #[test]
    fn connected_components_labelling() {
        let g = Graph::from_edges(6, &[(0, 1), (2, 3), (3, 4)]).unwrap();
        let (labels, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[1]);
        assert_eq!(labels[2], labels[3]);
        assert_eq!(labels[3], labels[4]);
        assert_ne!(labels[0], labels[2]);
        assert_ne!(labels[0], labels[5]);
    }

    #[test]
    fn bipartiteness() {
        assert!(is_bipartite(&generators::cycle(8).unwrap()));
        assert!(!is_bipartite(&generators::cycle(7).unwrap()));
        assert!(is_bipartite(&generators::hypercube(4).unwrap()));
        assert!(!is_bipartite(&generators::complete(4).unwrap()));
        assert!(is_bipartite(&Graph::default()));
    }

    #[test]
    fn diameter_of_known_graphs() {
        assert_eq!(diameter(&generators::complete(10).unwrap()), Some(1));
        assert_eq!(diameter(&generators::cycle(10).unwrap()), Some(5));
        assert_eq!(diameter(&generators::path(10).unwrap()), Some(9));
        assert_eq!(diameter(&generators::hypercube(5).unwrap()), Some(5));
        let disconnected = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(diameter(&disconnected), None);
        assert_eq!(diameter(&Graph::default()), None);
    }

    #[test]
    fn eccentricity_matches_diameter_on_cycle() {
        let g = generators::cycle(9).unwrap();
        for v in g.vertices() {
            assert_eq!(eccentricity(&g, v), Some(4));
        }
    }

    #[test]
    fn average_distance_of_complete_graph_is_one() {
        let g = generators::complete(6).unwrap();
        let avg = average_distance(&g).unwrap();
        assert!((avg - 1.0).abs() < 1e-12);
        assert_eq!(average_distance(&Graph::default()), None);
    }

    #[test]
    fn degree_stats_on_star() {
        let g = generators::star(5).unwrap(); // centre degree 4, leaves degree 1
        let stats = degree_stats(&g).unwrap();
        assert_eq!(stats.min, 1);
        assert_eq!(stats.max, 4);
        assert!(!stats.is_regular);
        assert!((stats.mean - 8.0 / 5.0).abs() < 1e-12);
        assert!(stats.variance > 0.0);
        assert_eq!(degree_stats(&Graph::default()), None);
    }

    #[test]
    fn induced_subgraph_of_complete_graph() {
        let g = generators::complete(6).unwrap();
        let (sub, map) = induced_subgraph(&g, &[1, 3, 5]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 3);
        assert_eq!(map, vec![1, 3, 5]);
    }

    #[test]
    fn complement_round_trip() {
        let g = generators::cycle(5).unwrap();
        let c = complement(&g);
        assert_eq!(c.num_edges(), 5 * 4 / 2 - 5);
        let cc = complement(&c);
        assert_eq!(cc, g);
    }

    #[test]
    fn core_numbers_on_clique_plus_pendant() {
        // K4 on {0,1,2,3} plus a pendant vertex 4 attached to 0.
        let g = Graph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)])
            .unwrap();
        let core = core_numbers(&g);
        assert_eq!(core[4], 1);
        for (v, &number) in core.iter().enumerate().take(4) {
            assert_eq!(number, 3, "vertex {v} should be in the 3-core");
        }
    }

    #[test]
    fn core_numbers_on_cycle_are_two() {
        let g = generators::cycle(7).unwrap();
        assert!(core_numbers(&g).into_iter().all(|c| c == 2));
    }
}
