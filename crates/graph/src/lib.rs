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
//! # Unsafe code
//!
//! The crate is `#![deny(unsafe_code)]` rather than `forbid`, for exactly one item: the
//! private software-prefetch primitive in `prefetch.rs`, which calls the x86-64
//! `_mm_prefetch` intrinsic under `#[allow(unsafe_code)]`. Safe code has no prefetch
//! hint, and at `n ≫ cache` the random CSR reads of a COBRA round or a BFS are bound by
//! memory latency, which the hints overlap. It is exposed only through safe methods
//! ([`Graph::prefetch_offsets`], [`Graph::prefetch_row`]) that bounds-check the index.
//! A prefetch never faults and changes no value. A test in `tests/unsafe_audit.rs`
//! keeps `unsafe` from appearing anywhere else in the crate.
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

#![deny(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod bitset;
mod builder;
mod csr;
mod error;
mod prefetch;

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
