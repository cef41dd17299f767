//! Incremental construction of graphs.

use std::collections::BTreeSet;

use crate::{Graph, GraphError, Result, VertexId};

/// Incremental builder for [`Graph`] values.
///
/// The builder tolerates duplicate edge insertions (they are deduplicated at
/// [`build`](GraphBuilder::build) time) which makes it convenient for generators that naturally
/// emit both orientations of an edge, and for parsing unsanitised input. Self-loops are rejected
/// eagerly because they are never meaningful for the simple graphs this workspace studies.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), cobra_graph::GraphError> {
/// use cobra_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(4);
/// b.add_edge(0, 1)?;
/// b.add_edge(1, 2)?;
/// b.add_edge(1, 2)?; // duplicates are fine
/// b.add_edge(2, 3)?;
/// let g = b.build()?;
/// assert_eq!(g.num_edges(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    num_vertices: usize,
    edges: BTreeSet<(VertexId, VertexId)>,
}

impl GraphBuilder {
    /// Creates a builder for a graph on vertex set `{0, …, n-1}` with no edges yet.
    pub fn new(n: usize) -> Self {
        GraphBuilder { num_vertices: n, edges: BTreeSet::new() }
    }

    /// Number of vertices the built graph will have.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Number of distinct edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds the undirected edge `{u, v}`. Duplicate insertions are ignored.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::VertexOutOfRange`] if either endpoint is out of range and
    /// [`GraphError::SelfLoop`] if `u == v`.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> Result<&mut Self> {
        if u >= self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: u,
                num_vertices: self.num_vertices,
            });
        }
        if v >= self.num_vertices {
            return Err(GraphError::VertexOutOfRange {
                vertex: v,
                num_vertices: self.num_vertices,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop { vertex: u });
        }
        self.edges.insert((u.min(v), u.max(v)));
        Ok(self)
    }

    /// Finalises the builder into an immutable [`Graph`].
    ///
    /// # Errors
    ///
    /// Construction itself cannot fail for edges accepted by
    /// [`add_edge`](GraphBuilder::add_edge); the `Result` mirrors [`Graph::from_edges`] so the
    /// builder keeps working if internal invariants are ever relaxed.
    pub fn build(&self) -> Result<Graph> {
        let edges: Vec<(VertexId, VertexId)> = self.edges.iter().copied().collect();
        Graph::from_edges(self.num_vertices, &edges)
    }
}

impl Extend<(VertexId, VertexId)> for GraphBuilder {
    /// Extends the edge set, panicking on invalid edges.
    ///
    /// Prefer [`GraphBuilder::add_edge`] when the input is untrusted.
    fn extend<T: IntoIterator<Item = (VertexId, VertexId)>>(&mut self, iter: T) {
        for (u, v) in iter {
            self.add_edge(u, v).expect("invalid edge passed to GraphBuilder::extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_deduplicates_edges() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        b.add_edge(1, 0).unwrap();
        b.add_edge(1, 2).unwrap();
        assert_eq!(b.num_edges(), 2);
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn builder_rejects_self_loops_and_bad_vertices() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(b.add_edge(0, 0), Err(GraphError::SelfLoop { .. })));
        assert!(matches!(b.add_edge(0, 5), Err(GraphError::VertexOutOfRange { .. })));
    }

    #[test]
    fn extend_accepts_valid_edges() {
        let mut b = GraphBuilder::new(4);
        b.extend(vec![(0, 1), (2, 3)]);
        assert_eq!(b.num_edges(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid edge")]
    fn extend_panics_on_invalid_edges() {
        let mut b = GraphBuilder::new(2);
        b.extend(vec![(0, 7)]);
    }

    #[test]
    fn empty_builder_builds_empty_graph() {
        let g = GraphBuilder::new(0).build().unwrap();
        assert!(g.is_empty());
        let g = GraphBuilder::default().build().unwrap();
        assert!(g.is_empty());
    }
}
