//! The four workloads. Each generates its inputs from the seed, sets up
//! several times, runs timed ops, checks every output, and in a traced
//! run fills in the per-layer metrics it can measure.

pub mod edit;
pub mod explore;
pub mod pipeline;
pub mod serve;

use slif_speclang::ParseLimits;

/// Parse caps raised past the serving defaults: the 30k-node rung is
/// bigger than a request may be, and the benchmark keeps the rung.
pub fn raised_parse_limits() -> ParseLimits {
    ParseLimits::new()
        .with_max_bytes(64 << 20)
        .with_max_tokens(1 << 24)
}
