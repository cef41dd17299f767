//! The `repro bench` matrix behind the `repro` binary: engine and stream-sweep rows per
//! `(process, graph)` pair, rendered as a table and a `BENCH_cover.json` report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench;
