//! Error type for graph construction and analysis.

use std::error::Error;
use std::fmt;

/// Errors produced while building, generating or parsing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint referenced a vertex index `>= n`.
    VertexOutOfRange {
        /// The offending vertex index.
        vertex: usize,
        /// The number of vertices of the graph being built.
        num_vertices: usize,
    },
    /// A self-loop `{v, v}` was supplied where simple graphs are required.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: usize,
    },
    /// A duplicate (parallel) edge was supplied where simple graphs are required.
    DuplicateEdge {
        /// First endpoint.
        u: usize,
        /// Second endpoint.
        v: usize,
    },
    /// A generator was asked for a graph that cannot exist
    /// (e.g. an `r`-regular graph with `n * r` odd, or `r >= n`).
    InvalidParameters {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A randomised generator exhausted its retry budget without producing a valid
    /// (simple, connected where required) graph.
    GenerationFailed {
        /// Description of the generator and its parameters.
        reason: String,
    },
    /// A textual graph description could not be parsed.
    Parse {
        /// 1-based line number of the offending input line.
        line: usize,
        /// Description of the problem.
        reason: String,
    },
    /// A graph has more vertices or arcs than the 32-bit CSR can index.
    TooLarge {
        /// What overflowed: `"vertices"` or `"arcs"` (directed, so twice the edge count).
        what: &'static str,
        /// The requested count.
        count: usize,
        /// The largest count a graph holds, [`Graph::MAX_ENTRIES`](crate::Graph::MAX_ENTRIES).
        limit: usize,
    },
    /// A file-backed graph could not be read from disk.
    Io {
        /// Path of the offending file.
        path: String,
        /// Description of the underlying I/O failure.
        reason: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange { vertex, num_vertices } => write!(
                f,
                "vertex index {vertex} out of range for graph with {num_vertices} vertices"
            ),
            GraphError::SelfLoop { vertex } => {
                write!(f, "self-loop at vertex {vertex} not allowed in a simple graph")
            }
            GraphError::DuplicateEdge { u, v } => {
                write!(f, "duplicate edge {{{u}, {v}}} not allowed in a simple graph")
            }
            GraphError::InvalidParameters { reason } => {
                write!(f, "invalid generator parameters: {reason}")
            }
            GraphError::GenerationFailed { reason } => {
                write!(f, "graph generation failed: {reason}")
            }
            GraphError::Parse { line, reason } => {
                write!(f, "parse error on line {line}: {reason}")
            }
            GraphError::TooLarge { what, count, limit } => {
                write!(f, "graph has {count} {what}, more than the CSR limit of {limit}")
            }
            GraphError::Io { path, reason } => {
                write!(f, "cannot read graph file {path:?}: {reason}")
            }
        }
    }
}

impl Error for GraphError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let cases: Vec<(GraphError, &str)> = vec![
            (
                GraphError::VertexOutOfRange { vertex: 7, num_vertices: 5 },
                "vertex index 7 out of range",
            ),
            (GraphError::SelfLoop { vertex: 3 }, "self-loop at vertex 3"),
            (GraphError::DuplicateEdge { u: 1, v: 2 }, "duplicate edge {1, 2}"),
            (
                GraphError::InvalidParameters { reason: "r >= n".into() },
                "invalid generator parameters",
            ),
            (
                GraphError::GenerationFailed { reason: "too many retries".into() },
                "graph generation failed",
            ),
            (GraphError::Parse { line: 4, reason: "bad token".into() }, "parse error on line 4"),
            (
                GraphError::TooLarge { what: "arcs", count: 1 << 33, limit: 7 },
                "graph has 8589934592 arcs, more than the CSR limit of 7",
            ),
            (
                GraphError::Io { path: "net.edges".into(), reason: "not found".into() },
                "cannot read graph file",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "message {msg:?} should contain {needle:?}");
            assert!(!msg.ends_with('.'), "no trailing punctuation: {msg:?}");
        }
    }

    #[test]
    fn error_trait_is_implemented() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<GraphError>();
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(GraphError::SelfLoop { vertex: 1 }, GraphError::SelfLoop { vertex: 1 });
        assert_ne!(GraphError::SelfLoop { vertex: 1 }, GraphError::SelfLoop { vertex: 2 });
    }
}
