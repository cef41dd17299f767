//! Compressed sparse row (CSR) storage of an undirected simple graph.
//!
//! The representation is immutable: once a [`Graph`] is constructed its vertex and edge sets
//! never change. All simulation crates treat graphs as shared, read-only topology, which makes
//! the CSR layout ideal — neighbour lists are contiguous slices, so the hot operation of the
//! COBRA/BIPS processes ("pick a uniformly random neighbour of `v`") is a single bounds-checked
//! index into a slice. Offsets and neighbour ids are stored as `u32`, 4 bytes per entry, so a
//! random neighbour fetch touches half the bytes a `usize` array would; [`VertexId`] stays
//! `usize` at the API and is widened on read.

use serde::{Deserialize, Serialize, Value};
use std::fmt;

use crate::{GraphError, Result};

/// Identifier of a vertex: graphs are always vertex sets `{0, 1, …, n-1}`.
pub type VertexId = usize;

/// An immutable undirected simple graph in CSR form.
///
/// Offsets and neighbour ids are `u32` entries of 4 bytes, so a graph holds at most
/// [`MAX_ENTRIES`](Graph::MAX_ENTRIES) vertices and as many directed arcs; every constructor
/// rejects a larger one with [`GraphError::TooLarge`] instead of truncating it.
///
/// Construct one with [`Graph::from_edges`], the [`GraphBuilder`](crate::GraphBuilder), or a
/// generator from [`generators`](crate::generators).
///
/// Every constructor also records the lowest isolated vertex, if any, so that
/// [`first_isolated`](Graph::first_isolated) answers in `O(1)` the one degree question
/// every spreading process asks at build time. The serialized form holds only the CSR
/// arrays; deserializing rebuilds the graph through [`Graph::from_raw_parts`], which
/// validates the arrays and recomputes that fact instead of trusting a stored value.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), cobra_graph::GraphError> {
/// use cobra_graph::Graph;
///
/// // A triangle.
/// let g = Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)])?;
/// assert_eq!(g.num_vertices(), 3);
/// assert_eq!(g.num_edges(), 3);
/// assert_eq!(g.degree(0), 2);
/// assert_eq!(g.regular_degree(), Some(2));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct Graph {
    /// `offsets[v]..offsets[v+1]` indexes `neighbors` for vertex `v`. Length `n + 1`.
    offsets: Vec<u32>,
    /// Concatenated, per-vertex sorted adjacency lists. Length `2 * m`.
    neighbors: Vec<u32>,
    /// The lowest vertex of degree 0, computed once from `offsets` (so a function of them).
    first_isolated: Option<VertexId>,
}

/// Checks that `num_vertices` vertices and `num_arcs` directed arcs fit the 32-bit arrays.
pub(crate) fn check_csr_size(num_vertices: usize, num_arcs: usize) -> Result<()> {
    for (what, count) in [("vertices", num_vertices), ("arcs", num_arcs)] {
        if count > Graph::MAX_ENTRIES {
            return Err(GraphError::TooLarge { what, count, limit: Graph::MAX_ENTRIES });
        }
    }
    Ok(())
}

/// The lowest vertex whose offset row is empty.
fn first_empty_row(offsets: &[u32]) -> Option<VertexId> {
    offsets.windows(2).position(|w| w[0] == w[1])
}

/// Checks every structural invariant of raw CSR arrays; see [`Graph::from_raw_parts`].
fn validate_raw_parts(offsets: &[u32], neighbors: &[u32]) -> Result<()> {
    let structural = |reason: String| GraphError::InvalidParameters { reason };
    if offsets.first() != Some(&0) {
        return Err(structural("CSR offsets must start with 0".to_string()));
    }
    let n = offsets.len() - 1;
    check_csr_size(n, neighbors.len())?;
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(structural("CSR offsets must be non-decreasing".to_string()));
    }
    if offsets[n] as usize != neighbors.len() {
        return Err(structural(format!(
            "CSR offsets end at {} but there are {} arcs",
            offsets[n],
            neighbors.len()
        )));
    }
    let row = |v: usize| &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
    for u in 0..n {
        let row_u = row(u);
        for (i, &w) in row_u.iter().enumerate() {
            let v = w as usize;
            if v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: n });
            }
            if v == u {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            if i > 0 && row_u[i - 1] == w {
                return Err(GraphError::DuplicateEdge { u: u.min(v), v: u.max(v) });
            }
            if i > 0 && row_u[i - 1] > w {
                return Err(structural(format!("CSR adjacency row of vertex {u} is not sorted")));
            }
            if row(v).binary_search(&(u as u32)).is_err() {
                return Err(structural(format!(
                    "CSR rows are not symmetric: arc ({u}, {v}) has no mirror"
                )));
            }
        }
    }
    Ok(())
}

impl Graph {
    /// The most vertices, and the most directed arcs, a graph can hold: both index `u32`
    /// arrays.
    pub const MAX_ENTRIES: usize = u32::MAX as usize;

    /// Builds a graph with `n` vertices from an undirected edge list.
    ///
    /// Each pair `(u, v)` is interpreted as the undirected edge `{u, v}`. The edge list must
    /// describe a *simple* graph: no self-loops and no duplicate edges (in either orientation).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] if `n` or the arc count `2 · edges.len()` exceeds
    /// [`MAX_ENTRIES`](Graph::MAX_ENTRIES) (checked before anything is allocated),
    /// [`GraphError::VertexOutOfRange`] if an endpoint is `>= n`,
    /// [`GraphError::SelfLoop`] for an edge `{v, v}`, and [`GraphError::DuplicateEdge`] if the
    /// same undirected edge appears twice.
    pub fn from_edges(n: usize, edges: &[(VertexId, VertexId)]) -> Result<Self> {
        check_csr_size(n, edges.len().saturating_mul(2))?;
        // Degrees are counted into `offsets[v + 1]`, then prefix-summed in place. Every sum
        // is at most the arc count, which fits `u32` by the check above.
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::VertexOutOfRange { vertex: u, num_vertices: n });
            }
            if v >= n {
                return Err(GraphError::VertexOutOfRange { vertex: v, num_vertices: n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { vertex: u });
            }
            offsets[u + 1] += 1;
            offsets[v + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }

        // Endpoints are below `n <= u32::MAX`, so narrowing them is exact.
        let mut neighbors = vec![0u32; 2 * edges.len()];
        let mut cursor = offsets[..n].to_vec();
        for &(u, v) in edges {
            neighbors[cursor[u] as usize] = v as u32;
            cursor[u] += 1;
            neighbors[cursor[v] as usize] = u as u32;
            cursor[v] += 1;
        }

        // Sort each adjacency list and detect duplicates.
        for v in 0..n {
            let slice = &mut neighbors[offsets[v] as usize..offsets[v + 1] as usize];
            slice.sort_unstable();
            if let Some(w) = slice.windows(2).find(|w| w[0] == w[1]) {
                let w = w[0] as usize;
                return Err(GraphError::DuplicateEdge { u: v.min(w), v: v.max(w) });
            }
        }

        let first_isolated = first_empty_row(&offsets);
        Ok(Graph { offsets, neighbors, first_isolated })
    }

    /// Rebuilds a graph from raw CSR arrays, validating every structural invariant.
    ///
    /// This is the decode path of the binary CSR cache (see
    /// [`io::load_edge_list_file`](crate::io::load_edge_list_file)): the arrays come from
    /// disk, so nothing is trusted. Validation is `O(m log Δ)` — monotone offsets, strictly
    /// ascending loop-free adjacency rows, in-range endpoints, and full symmetry (every arc
    /// `(u, v)` must have its mirror `(v, u)`).
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::TooLarge`] if there are more than
    /// [`MAX_ENTRIES`](Graph::MAX_ENTRIES) vertices or arcs,
    /// [`GraphError::InvalidParameters`] for malformed offsets or asymmetry, and the
    /// same per-edge errors as [`Graph::from_edges`] for bad rows.
    pub fn from_raw_parts(offsets: Vec<u32>, neighbors: Vec<u32>) -> Result<Self> {
        validate_raw_parts(&offsets, &neighbors)?;
        Ok(Graph::from_valid_parts(offsets, neighbors))
    }

    /// Wraps CSR arrays that are valid by construction (a generator's own output), so
    /// the `O(m log Δ)` checks of [`from_raw_parts`](Graph::from_raw_parts) run only in
    /// debug builds.
    pub(crate) fn from_valid_parts(offsets: Vec<u32>, neighbors: Vec<u32>) -> Self {
        debug_assert_eq!(validate_raw_parts(&offsets, &neighbors), Ok(()));
        let first_isolated = first_empty_row(&offsets);
        Graph { offsets, neighbors, first_isolated }
    }

    /// The raw CSR arrays `(offsets, neighbors)` — the encode path of the binary cache.
    pub(crate) fn raw_parts(&self) -> (&[u32], &[u32]) {
        (&self.offsets, &self.neighbors)
    }

    /// Number of vertices `n`.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Returns `true` if the graph has no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.num_vertices() == 0
    }

    /// Heap footprint of the CSR arrays in bytes: `(n + 1)` offsets plus `2m` neighbour
    /// entries, 4 bytes each. This is the accounting unit of size-bounded instance caches (the
    /// serving layer's `--cache-mb` budget); it deliberately ignores constant per-`Vec`
    /// overhead.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        (self.offsets.len() + self.neighbors.len()) * std::mem::size_of::<u32>()
    }

    /// The lowest vertex with no neighbours, or `None` if every vertex has one (and for the
    /// empty graph). Computed once when the graph is built, so this is `O(1)`.
    #[inline]
    pub fn first_isolated(&self) -> Option<VertexId> {
        self.first_isolated
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v + 1] - self.offsets[v]) as usize
    }

    /// The (sorted) neighbours of `v` as the raw `u32` row; widen an element with `as usize`
    /// to get its [`VertexId`].
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[u32] {
        &self.neighbors[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// The `i`-th neighbour of `v` (neighbours are sorted ascending).
    ///
    /// This is the sampling primitive used by the random processes: drawing `i` uniformly from
    /// `0..degree(v)` yields a uniformly random neighbour.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()` or `i >= self.degree(v)`.
    #[inline]
    pub fn neighbor(&self, v: VertexId, i: usize) -> VertexId {
        self.neighbors(v)[i] as VertexId
    }

    /// Hints the `offsets` entry of `v` into cache: the first of the two dependent misses
    /// a [`neighbors`](Self::neighbors) call takes on a large graph. A `v` that is not a
    /// vertex is a no-op; no value changes either way.
    #[inline]
    pub fn prefetch_offsets(&self, v: VertexId) {
        crate::prefetch::prefetch(&self.offsets, v);
    }

    /// Reads `offsets[v]` and hints the start of `v`'s row into cache, the second miss
    /// of a [`neighbors`](Self::neighbors) call. Call it a few iterations after
    /// [`prefetch_offsets`](Self::prefetch_offsets) for the same `v`, so that this read
    /// hits. A `v` that is not a vertex is a no-op; no value changes either way.
    #[inline]
    pub fn prefetch_row(&self, v: VertexId) {
        if let Some(&start) = self.offsets.get(v) {
            crate::prefetch::prefetch(&self.neighbors, start as usize);
        }
    }

    /// Draws a uniformly random neighbour of `v`, or `None` if `v` is isolated.
    ///
    /// One `next_u64` draw per sample via the Lemire-style reduction of
    /// [`sample::uniform_index`](crate::sample::uniform_index); isolated vertices consume no
    /// randomness. Processes that push several times from the same vertex should buffer
    /// [`neighbors`](Self::neighbors) once and use
    /// [`sample::sample_slice`](crate::sample::sample_slice) instead.
    ///
    /// # Panics
    ///
    /// Panics if `v >= self.num_vertices()`.
    #[inline]
    pub fn sample_neighbor<R: rand::RngCore + ?Sized>(
        &self,
        v: VertexId,
        rng: &mut R,
    ) -> Option<VertexId> {
        crate::sample::sample_slice(self.neighbors(v), rng).map(|&w| w as VertexId)
    }

    /// Returns `true` if `{u, v}` is an edge. Runs in `O(log deg(u))`.
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if u >= self.num_vertices() || v >= self.num_vertices() {
            return false;
        }
        let (a, b) = if self.degree(u) <= self.degree(v) { (u, v) } else { (v, u) };
        self.neighbors(a).binary_search(&(b as u32)).is_ok()
    }

    /// Iterator over all vertices `0..n`.
    pub fn vertices(&self) -> std::ops::Range<VertexId> {
        0..self.num_vertices()
    }

    /// Iterator over all undirected edges `(u, v)` with `u < v`, in ascending order of `u`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbor_iter(u).filter(move |&v| u < v).map(move |v| (u, v)))
    }

    /// Iterator over the neighbours of `v`.
    pub fn neighbor_iter(&self, v: VertexId) -> NeighborIter<'_> {
        NeighborIter { inner: self.neighbors(v).iter() }
    }

    /// If every vertex has the same degree `r`, returns `Some(r)`; otherwise `None`.
    ///
    /// For the empty graph this returns `None`, and for a graph with isolated vertices only it
    /// returns `Some(0)`.
    pub fn regular_degree(&self) -> Option<usize> {
        let n = self.num_vertices();
        if n == 0 {
            return None;
        }
        let r = self.degree(0);
        if self.vertices().all(|v| self.degree(v) == r) {
            Some(r)
        } else {
            None
        }
    }

    /// Minimum degree over all vertices, or `None` for the empty graph.
    pub fn min_degree(&self) -> Option<usize> {
        self.vertices().map(|v| self.degree(v)).min()
    }

    /// Maximum degree over all vertices, or `None` for the empty graph.
    pub fn max_degree(&self) -> Option<usize> {
        self.vertices().map(|v| self.degree(v)).max()
    }

    /// Collects the edge list `(u, v)` with `u < v`.
    pub fn to_edge_list(&self) -> Vec<(VertexId, VertexId)> {
        self.edges().collect()
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("num_vertices", &self.num_vertices())
            .field("num_edges", &self.num_edges())
            .field("regular_degree", &self.regular_degree())
            .finish()
    }
}

impl Default for Graph {
    /// The empty graph (no vertices, no edges).
    fn default() -> Self {
        Graph { offsets: vec![0], neighbors: Vec::new(), first_isolated: None }
    }
}

impl Serialize for Graph {
    fn serialize(&self) -> Value {
        Value::Object(vec![
            ("offsets".to_string(), self.offsets.serialize()),
            ("neighbors".to_string(), self.neighbors.serialize()),
        ])
    }
}

impl Deserialize for Graph {
    /// Reads the CSR arrays and rebuilds the graph through [`Graph::from_raw_parts`], so a
    /// stored graph is validated and its cached degree fact recomputed.
    fn deserialize(value: &Value) -> std::result::Result<Self, serde::Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for struct Graph"))?;
        // Entries are `u32`, so a value above `u32::MAX` fails here, before any graph check.
        let offsets = Vec::deserialize(serde::object_field(entries, "offsets")?)?;
        let neighbors = Vec::deserialize(serde::object_field(entries, "neighbors")?)?;
        Graph::from_raw_parts(offsets, neighbors).map_err(|e| serde::Error::custom(e.to_string()))
    }
}

/// Iterator over the neighbours of a vertex, produced by [`Graph::neighbor_iter`].
#[derive(Debug, Clone)]
pub struct NeighborIter<'a> {
    inner: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for NeighborIter<'a> {
    type Item = VertexId;

    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next().map(|&w| w as VertexId)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl<'a> ExactSizeIterator for NeighborIter<'a> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        Graph::from_edges(3, &[(0, 1), (1, 2), (2, 0)]).expect("triangle is a valid graph")
    }

    #[test]
    fn triangle_basic_properties() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 3);
        assert!(!g.is_empty());
        assert_eq!(g.regular_degree(), Some(2));
        assert_eq!(g.min_degree(), Some(2));
        assert_eq!(g.max_degree(), Some(2));
        for v in g.vertices() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn neighbors_are_sorted() {
        let g = Graph::from_edges(5, &[(4, 0), (0, 2), (0, 1), (3, 0)]).unwrap();
        assert_eq!(g.neighbors(0), &[1, 2, 3, 4]);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn neighbor_indexing_matches_slice() {
        let g = triangle();
        for v in g.vertices() {
            for i in 0..g.degree(v) {
                assert_eq!(g.neighbor(v, i), g.neighbors(v)[i] as VertexId);
            }
        }
    }

    #[test]
    fn has_edge_is_symmetric_and_correct() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(g.has_edge(2, 3));
        assert!(!g.has_edge(0, 3));
        assert!(!g.has_edge(0, 0));
        assert!(!g.has_edge(0, 99));
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let edges = g.to_edge_list();
        assert_eq!(edges.len(), 5);
        for &(u, v) in &edges {
            assert!(u < v);
        }
        // Reconstructing from the listed edges gives the same graph.
        let g2 = Graph::from_edges(4, &edges).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn from_edges_rejects_out_of_range() {
        let err = Graph::from_edges(3, &[(0, 3)]).unwrap_err();
        assert_eq!(err, GraphError::VertexOutOfRange { vertex: 3, num_vertices: 3 });
    }

    #[test]
    fn from_edges_rejects_self_loop() {
        let err = Graph::from_edges(3, &[(1, 1)]).unwrap_err();
        assert_eq!(err, GraphError::SelfLoop { vertex: 1 });
    }

    #[test]
    fn from_edges_rejects_duplicate_edges_in_any_orientation() {
        let err = Graph::from_edges(3, &[(0, 1), (1, 0)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
        let err = Graph::from_edges(3, &[(0, 1), (0, 1)]).unwrap_err();
        assert_eq!(err, GraphError::DuplicateEdge { u: 0, v: 1 });
    }

    #[test]
    fn default_graph_is_empty() {
        let g = Graph::default();
        assert!(g.is_empty());
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.regular_degree(), None);
        assert_eq!(g.min_degree(), None);
    }

    #[test]
    fn heap_bytes_counts_offsets_and_neighbor_entries() {
        // 4 bytes per entry: 4·(n + 1) offsets + 4·2m directed neighbour entries.
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        assert_eq!(g.heap_bytes(), 4 * 4 + 4 * 4);
        let petersen = crate::generators::petersen().unwrap();
        assert_eq!(petersen.heap_bytes(), 4 * 11 + 4 * 30);
        assert_eq!(Graph::default().heap_bytes(), 4);
    }

    #[test]
    fn size_check_accepts_the_limit_and_rejects_one_past_it() {
        let max = Graph::MAX_ENTRIES;
        assert_eq!(max, u32::MAX as usize);
        assert_eq!(check_csr_size(max, max), Ok(()));
        assert_eq!(
            check_csr_size(0, max + 1),
            Err(GraphError::TooLarge { what: "arcs", count: max + 1, limit: max })
        );
        assert_eq!(
            check_csr_size(max + 1, 0),
            Err(GraphError::TooLarge { what: "vertices", count: max + 1, limit: max })
        );
    }

    #[test]
    fn from_edges_rejects_too_many_vertices_before_allocating() {
        // Building `offsets` for 2³² vertices would need 16 GiB; the check comes first.
        let err = Graph::from_edges(1usize << 32, &[]).unwrap_err();
        assert_eq!(
            err,
            GraphError::TooLarge { what: "vertices", count: 1 << 32, limit: Graph::MAX_ENTRIES }
        );
        assert!(err.to_string().contains("4294967296 vertices"), "{err}");
    }

    #[test]
    fn graph_with_isolated_vertices() {
        let g = Graph::from_edges(4, &[(0, 1)]).unwrap();
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.degree(3), 0);
        assert_eq!(g.regular_degree(), None);
        assert_eq!(g.min_degree(), Some(0));
    }

    #[test]
    fn prefetch_hints_accept_every_index_and_change_nothing() {
        // The empty graph, the last vertex, a trailing vertex whose empty row starts at
        // the end of the neighbour array, one past the last vertex and `usize::MAX`.
        let trailing = Graph::from_edges(3, &[(0, 1)]).unwrap();
        let before = trailing.clone();
        for g in [&Graph::default(), &triangle(), &trailing] {
            for v in [0, 1, 2, 3, 4, usize::MAX] {
                g.prefetch_offsets(v);
                g.prefetch_row(v);
            }
        }
        assert_eq!(trailing, before);
        assert_eq!(trailing.neighbors(2), &[] as &[u32]);
    }

    #[test]
    fn neighbor_iter_is_exact_size() {
        let g = triangle();
        let it = g.neighbor_iter(0);
        assert_eq!(it.len(), 2);
        assert_eq!(it.collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn debug_output_is_nonempty_and_summarised() {
        let g = triangle();
        let dbg = format!("{g:?}");
        assert!(dbg.contains("num_vertices"));
        assert!(dbg.contains('3'));
    }

    #[test]
    fn from_raw_parts_round_trips() {
        let g = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]).unwrap();
        let (offsets, neighbors) = g.raw_parts();
        let g2 = Graph::from_raw_parts(offsets.to_vec(), neighbors.to_vec()).unwrap();
        assert_eq!(g, g2);
        let empty = Graph::from_raw_parts(vec![0], Vec::new()).unwrap();
        assert_eq!(empty, Graph::default());
    }

    #[test]
    fn from_raw_parts_rejects_malformed_arrays() {
        // Empty offsets.
        assert!(Graph::from_raw_parts(Vec::new(), Vec::new()).is_err());
        // Offsets not starting at 0.
        assert!(Graph::from_raw_parts(vec![1, 2], vec![0, 0]).is_err());
        // Decreasing offsets.
        assert!(Graph::from_raw_parts(vec![0, 2, 1], vec![1, 0]).is_err());
        // Offsets not covering the arc array.
        assert!(Graph::from_raw_parts(vec![0, 1, 2], vec![1, 0, 1]).is_err());
        // Out-of-range endpoint.
        let err = Graph::from_raw_parts(vec![0, 1, 2], vec![5, 0]).unwrap_err();
        assert!(matches!(err, GraphError::VertexOutOfRange { .. }));
        // Self-loop.
        let err = Graph::from_raw_parts(vec![0, 1, 1], vec![0]).unwrap_err();
        assert!(matches!(err, GraphError::SelfLoop { .. }));
        // Duplicate arc in a row.
        let err = Graph::from_raw_parts(vec![0, 2, 4], vec![1, 1, 0, 0]).unwrap_err();
        assert!(matches!(err, GraphError::DuplicateEdge { .. }));
        // Unsorted row.
        let err = Graph::from_raw_parts(vec![0, 2, 3, 4], vec![2, 1, 0, 0]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters { .. }));
        // Missing mirror arc.
        let err = Graph::from_raw_parts(vec![0, 1, 1], vec![1]).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameters { .. }));
    }

    #[test]
    fn serde_round_trip() {
        let g = triangle();
        let json = serde_json::to_string(&g).unwrap();
        let g2: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(g, g2);
    }

    #[test]
    fn first_isolated_is_the_lowest_degree_zero_vertex_on_every_build_path() {
        // Vertices 3 and 5 are isolated; 3 is the lowest.
        let g = Graph::from_edges(6, &[(0, 1), (1, 2), (2, 4)]).unwrap();
        assert_eq!(g.first_isolated(), Some(3));
        let (offsets, neighbors) = g.raw_parts();
        let raw = Graph::from_raw_parts(offsets.to_vec(), neighbors.to_vec()).unwrap();
        assert_eq!(raw.first_isolated(), Some(3));
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(serde_json::from_str::<Graph>(&json).unwrap().first_isolated(), Some(3));
        // Vertex 0 and the last vertex are found too.
        assert_eq!(Graph::from_edges(3, &[(1, 2)]).unwrap().first_isolated(), Some(0));
        assert_eq!(Graph::from_edges(3, &[(0, 1)]).unwrap().first_isolated(), Some(2));
        assert_eq!(triangle().first_isolated(), None);
        assert_eq!(Graph::from_edges(1, &[]).unwrap().first_isolated(), Some(0));
        assert_eq!(Graph::default().first_isolated(), None);
        assert_eq!(Graph::from_raw_parts(vec![0], Vec::new()).unwrap().first_isolated(), None);
    }

    #[test]
    fn deserializing_recomputes_and_validates_instead_of_trusting_the_input() {
        // A stored `first_isolated` field is ignored: the fact comes from the arrays.
        let json = r#"{"offsets":[0,1,2,2],"neighbors":[1,0],"first_isolated":null}"#;
        assert_eq!(serde_json::from_str::<Graph>(json).unwrap().first_isolated(), Some(2));
        // Arrays that `from_raw_parts` rejects do not deserialize.
        for bad in [
            r#"{"offsets":[],"neighbors":[]}"#,
            r#"{"offsets":[0,1,1],"neighbors":[1]}"#,
            r#"{"offsets":[0,1,2],"neighbors":[5,0]}"#,
            // Entries are 32-bit: 2³² is not a neighbour id or an offset.
            r#"{"offsets":[0,1,2],"neighbors":[4294967296,0]}"#,
            r#"{"offsets":[0,4294967296,2],"neighbors":[1,0]}"#,
        ] {
            assert!(serde_json::from_str::<Graph>(bad).is_err(), "{bad}");
        }
        assert!(serde_json::from_str::<Graph>("[0]").is_err());
    }
}
