//! Timing backends: Comal-like default and an FPGA/RTL-flavoured variant.
//!
//! The paper validates Comal against post-synthesis RTL on a Xilinx VU9P
//! (Fig 13), reporting trend agreement of R² = 0.991. We reproduce the
//! *methodology* with two independently calibrated timing models of the same
//! dataflow semantics: the Comal backend (HBM-class memory, single-cycle
//! primitives) and an FPGA backend (BRAM-resident tensors, deeper
//! initiation intervals, slower effective memory). See ARCHITECTURE.md,
//! "Substitutions".

use fuseflow_sam::NodeKind;

/// Per-backend timing parameters consumed by the simulation engine.
#[derive(Debug, Clone)]
pub struct TimingConfig {
    /// Sustained DRAM bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: f64,
    /// Latency of streamed (sequential) DRAM accesses, cycles.
    pub dram_stream_latency: u64,
    /// Latency of random DRAM accesses, cycles.
    pub dram_random_latency: u64,
    /// Maximum outstanding memory requests per node.
    pub outstanding: usize,
    /// Vector lanes of a block ALU (a `b x b` tile op with `lanes = b*b`
    /// retires one elementwise tile per cycle and a tile matmul in `b`
    /// cycles).
    pub block_lanes_factor: f64,
    /// Extra initiation-interval cycles per action for each node kind, on
    /// top of the engine's II of 1 (a node that acted at cycle `t` acts
    /// again at `t + 1 + ii_extra` at the earliest; it still sends and
    /// retires meanwhile). Comal is fully pipelined, so all zero.
    pub ii_extra: fn(&NodeKind) -> u64,
}

fn ii_comal(_kind: &NodeKind) -> u64 {
    0
}

fn ii_fpga(kind: &NodeKind) -> u64 {
    // Post-synthesis HLS operators are not perfectly pipelined: joiners
    // close timing at II 3, sparse accumulators at II 4, scanners and
    // reducers at II 2 (one more than the extra cycles below).
    match kind {
        NodeKind::Intersect | NodeKind::Union => 2,
        NodeKind::Spacc1 { .. } => 3,
        NodeKind::LevelScanner { .. } => 1,
        NodeKind::Reduce { .. } => 1,
        NodeKind::Alu { .. } => 0,
        _ => 0,
    }
}

impl TimingConfig {
    /// The default Comal-like backend: HBM2-class bandwidth, fully
    /// pipelined primitives.
    pub fn comal() -> Self {
        TimingConfig {
            dram_bytes_per_cycle: 64.0,
            dram_stream_latency: 8,
            dram_random_latency: 64,
            outstanding: 8,
            block_lanes_factor: 1.0,
            ii_extra: ii_comal,
        }
    }

    /// The FPGA/RTL-flavoured backend used for the Fig 13 validation:
    /// kernels are chosen to fit in BRAM (`MemLocation::OnChip`), primitives
    /// have deeper initiation intervals, and any DRAM spill is much slower.
    pub fn fpga_rtl() -> Self {
        TimingConfig {
            dram_bytes_per_cycle: 16.0,
            dram_stream_latency: 24,
            dram_random_latency: 160,
            outstanding: 4,
            block_lanes_factor: 0.5,
            ii_extra: ii_fpga,
        }
    }
}

impl Default for TimingConfig {
    fn default() -> Self {
        TimingConfig::comal()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backends_differ() {
        let c = TimingConfig::comal();
        let f = TimingConfig::fpga_rtl();
        assert!(c.dram_bytes_per_cycle > f.dram_bytes_per_cycle);
        let isect = NodeKind::Intersect;
        assert_eq!((c.ii_extra)(&isect), 0);
        assert!((f.ii_extra)(&isect) > 0);
    }
}
