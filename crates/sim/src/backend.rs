//! The simulator's timing model: Comal's parameters.
//!
//! One table of timing parameters, HBM2-class memory behind fully pipelined
//! primitives (II = 1; ARCHITECTURE.md, "II = 1"). The paper's Fig 13
//! validates Comal against post-synthesis RTL; this crate has no RTL to
//! compare with, so that figure is not reproduced (ARCHITECTURE.md,
//! "Substitutions").

/// Timing parameters consumed by the simulation engine.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Sustained DRAM bandwidth in bytes per cycle, at a resolution of
    /// 0.001 B/cycle: `simulate` refuses a smaller value, and rounds a
    /// larger one to whole millibytes per cycle.
    pub dram_bytes_per_cycle: f64,
    /// Latency of streamed (sequential) DRAM accesses, cycles.
    pub dram_stream_latency: u64,
    /// Latency of random DRAM accesses, cycles.
    pub dram_random_latency: u64,
    /// Maximum outstanding memory requests per node.
    pub outstanding: usize,
}

impl TimingConfig {
    /// Comal's parameters: HBM2-class bandwidth, fully pipelined primitives.
    pub fn comal() -> Self {
        TimingConfig {
            dram_bytes_per_cycle: 64.0,
            dram_stream_latency: 8,
            dram_random_latency: 64,
            outstanding: 8,
        }
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig::comal()
    }
}
