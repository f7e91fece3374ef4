//! The fastlsa workspace's layered benchmark.
//!
//! One command runs one workload for a fixed time and prints every
//! end-to-end metric (untraced run) or every per-layer metric (traced
//! run) as the last line of standard output; see README.md for the
//! workloads, the metrics and how each is measured.

pub mod align_run;
pub mod hostspeed;
pub mod inputs;
pub mod layers;
pub mod openloop;
pub mod oracle;
pub mod report;
pub mod rss;
pub mod serve_run;
pub mod spans;
pub mod stats;
pub mod workload;
