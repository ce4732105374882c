//! Comal-style cycle-level simulator for SAMML dataflow graphs.
//!
//! This crate executes the streaming dataflow graphs produced by the
//! FuseFlow compiler: each SAMML primitive runs as a state machine over
//! bounded token channels (a deterministic realization of the DAM
//! process-network model the paper's Comal simulator builds on), with a
//! ramulator-lite DRAM model supplying bandwidth/latency costs and full
//! instrumentation (cycles, FLOPs, bytes).
//!
//! One event-driven loop ([`Scheduler::Event`]) runs every graph, on the
//! calling thread; a dense per-cycle sweep ([`Scheduler::Sweep`]) is kept
//! only as its differential-testing oracle. A graph is one machine: one
//! clock, one DRAM channel and one set of counters, whether or not its
//! kernels are connected to each other. The sources split as `node.rs`
//! (node state machines), `chan.rs` (channels, the ring buffer that they
//! and in-flight memory use, and the machine context a step sees), `tok.rs`
//! (the one-word stream [`Token`] that channels hold and
//! [`run_node_standalone`] takes, and the [`Tiles`] table its tile payloads
//! index), `run.rs` (the run loops and their determinism arguments) and
//! `engine.rs` (`simulate` assembly).
//!
//! One timing model, [`TimingConfig::comal`] (HBM-class memory, fully
//! pipelined primitives), times every run.
//!
//! # Example
//!
//! Simulating a compiled graph (see `fuseflow-core` for the compiler):
//!
//! ```no_run
//! use fuseflow_sim::{simulate, SimConfig, TensorEnv};
//! # let graph = fuseflow_sam::SamGraph::new();
//! let env = TensorEnv::new();
//! let result = simulate(&graph, &env, &SimConfig::default())?;
//! println!("{}", result.stats);
//! # Ok::<(), fuseflow_sim::SimError>(())
//! ```

// A stream a node cannot take is a `SimError`, never a panic: CI's clippy step
// holds the simulator to that.
#![deny(clippy::unreachable)]

mod backend;
mod chan;
mod dram;
mod engine;
mod node;
mod rebuild;
mod run;
mod sched;
mod stats;
mod tok;

pub use backend::TimingConfig;
pub use engine::{
    run_node_standalone, simulate, Scheduler, SimConfig, SimError, SimResult, TensorEnv,
};
pub use stats::{SchedCounters, Stats};
pub use tok::{Block, Payload, Tile, Tiles, Token};
