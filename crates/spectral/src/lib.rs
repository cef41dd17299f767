//! Spectral analysis substrate for the COBRA / BIPS reproduction.
//!
//! Every bound in the reproduced paper is parameterised by `λ`, the second largest **absolute**
//! eigenvalue of the random-walk transition matrix `P = A/r` of a connected regular graph.
//! This crate computes `λ` (and related quantities) for arbitrary instances produced by
//! [`cobra_graph`]:
//!
//! * [`dense`] — a cyclic Jacobi eigensolver over the full symmetric spectrum, used as ground
//!   truth for small graphs (`n ≲ 512`),
//! * [`operator`] — matrix-free application of the symmetrically normalised adjacency operator
//!   `D^{-1/2} A D^{-1/2}` (similar to `P`, hence same spectrum) for large sparse graphs,
//! * [`power`] and [`lanczos`] — iterative eigensolvers with deflation of the stationary
//!   direction,
//! * [`conductance`] — cut conductance, sweep cuts and the Cheeger inequality,
//! * [`mixing`] — the paper's hypothesis `1-λ ≫ sqrt(log n / n)`, checked per instance,
//! * [`profile`] — the [`SpectralProfile`] summary used throughout the experiment harness.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use cobra_graph::generators;
//! use cobra_spectral::analyze;
//!
//! let g = generators::complete(32)?;
//! let profile = analyze(&g)?;
//! // K_n has second eigenvalue -1/(n-1) for the transition matrix.
//! assert!((profile.lambda_abs - 1.0 / 31.0).abs() < 1e-6);
//! assert!(profile.spectral_gap() > 0.9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod conductance;
pub mod dense;
pub mod lanczos;
pub mod mixing;
pub mod operator;
pub mod power;
pub mod profile;
pub mod tridiagonal;

mod error;

pub use error::SpectralError;
pub use profile::{analyze, analyze_with, Method, SpectralProfile};

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, SpectralError>;
