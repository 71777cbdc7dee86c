//! Shared helpers for the mesh integration tests.

pub mod traffic;
