//! Figure/table regeneration harness for the City-Hunter reproduction.
//!
//! All regeneration logic lives in [`driver`], a thin CLI over the
//! `ch-scenarios` experiment registry: `experiment <id>` runs any artifact
//! and `reproduce_all` runs the paper's set. `perfbench` is the
//! deterministic hot-path gate and `serve_bench` the streaming-service
//! throughput bench.

pub mod driver;
