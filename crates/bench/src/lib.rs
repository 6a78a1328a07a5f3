//! Benchmark harness for the reproduction.
//!
//! One module per experiment (see DESIGN.md's experiment index); each
//! exposes a `run` function returning a printable report, which the
//! summary binary (`cargo run -p coupling-bench --bin experiments
//! --release`) prints. The CI-gated `bench_*` binaries share
//! [`harness`] for their run mode, timing, JSON output and gates.

pub mod exp;
pub mod harness;
pub mod metrics;
pub mod workload;

pub use workload::{build_corpus_system, CorpusSystem, WorkloadConfig};
