//! Code shared by the integration tests that is not part of the library.

pub mod dense;
