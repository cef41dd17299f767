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
fn eccentricity(g: &Graph, source: VertexId) -> Option<usize> {
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
}
