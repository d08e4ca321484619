//! The in-repo harness that keeps the Frappé workspace **hermetic**: no
//! external crates anywhere in the dependency graph, so
//! `cargo build --release && cargo test -q` works with no network and an
//! empty registry cache.
//!
//! Four small modules replace the four external dependencies the workspace
//! used to pull in:
//!
//! | module | replaces | used by |
//! |---|---|---|
//! | [`rng`] | `rand` | `frappe-synth` graph/source generators |
//! | [`serdes`] | `serde` + `bytes` | `frappe-model` codecs, `frappe-store` snapshots |
//! | [`proptest_lite`] | `proptest` | property tests across the workspace |
//! | [`bench`] | `criterion` | the `frappe-bench` bench targets |
//! | [`mmap`] | `memmap2` | `frappe-store` zero-copy snapshot reads |
//! | [`poll`] | `mio` | `frappe-serve` event-driven connection core |
//! | [`json`] | `serde_json` (writing) | every hand-rolled JSON writer |
//!
//! Everything here is deliberately boring: seeded deterministic PRNG with
//! golden-value tests, explicit derive-free binary codecs, a shrinking
//! property-test runner, and a warmup/median/stddev micro-benchmark harness
//! with a criterion-compatible-enough API surface.

pub mod bench;
pub mod json;
pub mod mmap;
pub mod poll;
pub mod proptest_lite;
pub mod rng;
pub mod serdes;
