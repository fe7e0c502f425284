//! The Group-FEL benchmark: three named workloads driven through the
//! library's public API, end-to-end metrics with tracing off, and a traced
//! run that attributes each round to its layers. See `README.md`.

pub mod attribution;
pub mod bench;
pub mod probes;
pub mod record;
pub mod workload;
