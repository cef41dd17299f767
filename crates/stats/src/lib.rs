//! Statistics substrate for the COBRA / BIPS reproduction.
//!
//! The paper's statements are probabilistic ("in expectation", "with high probability"),
//! so reproducing them means running many independent Monte-Carlo trials per configuration and
//! summarising the results with defensible statistics. This crate provides the pieces every
//! experiment shares:
//!
//! * [`rng`] — a master-seed → per-trial seed scheme so that parallel runs are bit-for-bit
//!   reproducible,
//! * [`summary`] — streaming (Welford) mean/variance plus quantiles,
//! * [`regression`] — least-squares fits of measured times against `log n` and power laws,
//! * [`parallel`] — a trial runner on the shared worker pool with deterministic seeding,
//! * [`table`] — aligned text tables shared by the experiment binaries.
//!
//! # Example
//!
//! ```
//! use cobra_stats::summary::Summary;
//!
//! let mut s = Summary::new();
//! for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
//!     s.record(x);
//! }
//! assert_eq!(s.count(), 8);
//! assert!((s.mean() - 5.0).abs() < 1e-12);
//! assert_eq!(s.max(), Some(9.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod parallel;
pub mod regression;
pub mod rng;
pub mod summary;
pub mod table;
