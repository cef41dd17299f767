//! Graph substrate for the COBRA / BIPS reproduction.
//!
//! The processes analysed in *"The Coalescing-Branching Random Walk on Expanders and the
//! Dual Epidemic Process"* (Cooper, Radzik, Rivera; PODC 2016) run on connected, regular,
//! undirected graphs. This crate provides:
//!
//! * a compact, immutable [`Graph`] representation (CSR adjacency) optimised for the
//!   "sample a uniform random neighbour" operation the processes perform billions of times —
//!   [`Graph::sample_neighbor`] and the [`sample`] module turn one 64-bit RNG draw into a
//!   neighbour via a Lemire-style widening multiply (no division, no rejection),
//! * [`VertexBitset`] — the word-level vertex-set substrate of the sparse-frontier
//!   simulation engine: `O(1)` test-and-set, `O(|set|)` dirty-list clearing and
//!   `O(n/512 + |set|)` ascending iteration (occupancy flags skip the empty words),
//!   so active sets cost what they hold rather than `O(n)` per round,
//! * a mutable [`GraphBuilder`] for incremental construction,
//! * deterministic and randomised [`generators`] for every graph family the paper (and the
//!   prior work it compares against) discusses: complete graphs, random `r`-regular graphs,
//!   hypercubes, tori/grids, cycles, circulant graphs, Margulis-type expanders, trees and
//!   assorted named graphs,
//! * structural [`ops`] (connectivity, bipartiteness, diameter, degree statistics), and
//! * simple text [`io`] (edge lists, DOT).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), cobra_graph::GraphError> {
//! use cobra_graph::generators;
//!
//! let g = generators::hypercube(7)?; // 128 vertices, 7-regular
//! assert_eq!(g.num_vertices(), 128);
//! assert_eq!(g.regular_degree(), Some(7));
//! assert!(cobra_graph::ops::is_connected(&g));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod builder;
mod csr;
mod error;

pub mod generators;
pub mod io;
pub mod ops;
pub mod sample;

pub use bitset::{Iter as VertexBitsetIter, VertexBitset};
pub use builder::GraphBuilder;
pub use csr::{Graph, NeighborIter, VertexId};
pub use error::GraphError;

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, GraphError>;
