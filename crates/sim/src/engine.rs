//! The cycle-level simulation engine (Comal analogue).
//!
//! Every SAMML node is a state machine; a step first *flushes* previously
//! produced tokens (at most one per output port per cycle), then *retires*
//! completed memory requests onto their output ports, then performs at most
//! one *action* (consume input tokens, produce output tokens, issue DRAM
//! requests). Bounded channels provide backpressure; a [`Dram`] model
//! serializes bandwidth. Simulation ends when every writer has received
//! `Done`.
//!
//! **II = 1.** A node may act when the flush left nothing staged; what the
//! same step then retires does not hold the action back. A scanner or an
//! array therefore sends, retires and issues in every cycle, and an on-chip
//! pipeline moves one token per port per cycle, the fully pipelined rate of
//! SAM/Comal. A token the flush could not send (a full channel) does hold
//! the node, so backpressure stops it. `crates/sim/tests/throughput.rs`
//! holds the rate; ARCHITECTURE.md, "II = 1".
//!
//! A token is written once. An action appends what it produces to the tail
//! of every fan-out channel of the port, *staged* behind the channel's
//! `visible` mark where the reader cannot see it; the flush sends a token
//! by moving the mark (`chan.rs`). There is no per-node output queue to
//! move tokens out of.
//!
//! # Event-driven scheduling
//!
//! Nodes are *not* swept every cycle. [`Rt::step`](crate::node::Rt::step)
//! reports a [`StepOutcome`](crate::chan::StepOutcome) and the run loop
//! ([`run_event`]) services a node only when a wake condition
//! fires: a token sent into one of its input channels that was empty, a pop
//! that takes one of its output channels from full to not full (channels
//! name their reader and writer by rank and insert them into the ready
//! sets themselves), a registered timer (in-flight memory or busy ALU; see
//! `sched.rs` for the wake queue), or its own progress
//! in the previous cycle. The legacy dense sweep is retained behind
//! [`SimConfig::scheduler`] as a differential-testing oracle; the two are
//! bit-identical (see the determinism notes on [`run_event`] and
//! `crates/sim/tests/determinism.rs`).
//!
//! # One machine
//!
//! [`simulate`] builds one machine per graph: one node table in the graph's
//! one topological order (indexed by rank, as channels and ready sets name
//! nodes), one channel table indexed by edge, one tile table, one [`Dram`]
//! channel at the configured bandwidth, one clock and one set of counters.
//! Nodes interact only through streams and through the DRAM channel, which
//! grants requests in arrival order, so the kernels of a graph contend for
//! memory the same way whether or not they happen to be connected.
//!
//! # A token is a word
//!
//! Channels, staged tokens, in-flight memory and writer streams hold the
//! 8-byte `Copy` [`Token`] (`tok.rs`), whose tile payload is a handle into
//! the run's tile table. The writers' streams and the tile table are handed
//! to the output rebuild as they are, and [`run_node_standalone`] takes and
//! returns the same tokens. A node-level result carries its error boxed, so
//! a step returns in two registers; [`simulate`] unboxes it.

use crate::chan::{Chan, Ctx, NO_NODE};
use crate::dram::{Dram, MIN_BYTES_PER_CYCLE};
use crate::node::{Prim, Rt};
use crate::rebuild::assemble_output;
use crate::run::{run_event, run_standalone, run_sweep};
use crate::stats::Stats;
use crate::tok::{Tiles, Token};
use crate::TimingConfig;
use fuseflow_sam::{GraphError, MemLocation, NodeId, NodeKind, SamGraph};
use fuseflow_tensor::SparseTensor;
use std::collections::HashMap;

/// Which execution loop [`simulate`] runs.
///
/// The two schedulers are **bit-identical** on every graph: the
/// event-driven engine performs exactly the effective (state-changing)
/// steps of the sweep, in the same relative order, at the same simulated
/// cycle — it only skips steps that are provably no-ops. The sweep is
/// retained as the differential-testing oracle
/// (`crates/sim/tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Event-driven ready-set + wake queue (the default): only
    /// nodes that can possibly progress are stepped.
    #[default]
    Event,
    /// Legacy dense per-cycle sweep: every node steps every cycle.
    Sweep,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Timing parameters (Comal's by default).
    pub timing: TimingConfig,
    /// Capacity of every stream channel, in tokens.
    pub channel_capacity: usize,
    /// Hard cycle budget; exceeding it is an error.
    pub max_cycles: u64,
    /// Execution loop; `Scheduler::Sweep` is the legacy oracle.
    pub scheduler: Scheduler,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            timing: TimingConfig::comal(),
            channel_capacity: 256,
            max_cycles: 400_000_000,
            scheduler: Scheduler::Event,
        }
    }
}

impl SimConfig {
    /// Returns the config with the given execution loop.
    pub fn with_scheduler(mut self, scheduler: Scheduler) -> Self {
        self.scheduler = scheduler;
        self
    }
}

/// Named input tensors supplied to a simulation.
#[derive(Debug, Clone, Default)]
pub struct TensorEnv {
    map: HashMap<String, SparseTensor>,
}

impl TensorEnv {
    /// Creates an empty environment.
    pub fn new() -> Self {
        TensorEnv::default()
    }

    /// Binds a tensor by name, replacing any previous binding.
    pub fn insert(&mut self, name: impl Into<String>, tensor: SparseTensor) -> &mut Self {
        self.map.insert(name.into(), tensor);
        self
    }

    /// Looks up a binding.
    pub fn get(&self, name: &str) -> Option<&SparseTensor> {
        self.map.get(name)
    }

    /// Iterates over bindings.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &SparseTensor)> {
        self.map.iter()
    }
}

impl<S: Into<String>> FromIterator<(S, SparseTensor)> for TensorEnv {
    fn from_iter<T: IntoIterator<Item = (S, SparseTensor)>>(iter: T) -> Self {
        let mut env = TensorEnv::new();
        for (k, v) in iter {
            env.insert(k, v);
        }
        env
    }
}

/// Errors produced by [`simulate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration cannot describe a machine (zero-capacity channels,
    /// non-positive DRAM bandwidth, no outstanding memory requests).
    Config(String),
    /// The graph failed validation.
    Validation(GraphError),
    /// A tensor slot had no binding in the environment.
    MissingTensor(String),
    /// A level scanner addresses a level its bound tensor does not have.
    LevelOutOfRange {
        /// The scanner, as `label#id`.
        node: String,
        /// Name of the tensor slot it scans.
        tensor: String,
        /// The level the scanner addresses.
        level: usize,
        /// Number of levels of the bound tensor.
        order: usize,
    },
    /// No node could make progress before all writers finished.
    Deadlock {
        /// Cycle at which progress stopped.
        cycle: u64,
        /// Human-readable diagnostic.
        detail: String,
    },
    /// The cycle budget was exhausted.
    MaxCycles(u64),
    /// The writers' streams do not assemble into their output (mismatched
    /// coordinate and value streams, or a payload the output cannot hold).
    /// `validate` gives every output stream exactly one writer, so a stream
    /// is never missing here.
    Rebuild(String),
    /// Streams violated SAMML semantics (compiler bug).
    Semantics(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Config(m) => write!(f, "invalid simulation config: {m}"),
            SimError::Validation(e) => write!(f, "graph validation failed: {e}"),
            SimError::MissingTensor(n) => write!(f, "no binding for tensor '{n}'"),
            SimError::LevelOutOfRange { node, tensor, level, order } => write!(
                f,
                "{node} scans level {level} of tensor '{tensor}', which is bound to a tensor \
                 of {order} levels"
            ),
            SimError::Deadlock { cycle, detail } => {
                write!(f, "deadlock at cycle {cycle}: {detail}")
            }
            SimError::MaxCycles(c) => write!(f, "exceeded cycle budget of {c}"),
            SimError::Rebuild(m) => write!(f, "output reconstruction failed: {m}"),
            SimError::Semantics(m) => write!(f, "stream semantics violated: {m}"),
        }
    }
}

impl std::error::Error for SimError {}

/// The result of simulating one SAMML graph.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Assembled output tensors, keyed by output-slot name.
    pub outputs: HashMap<String, SparseTensor>,
    /// Performance counters.
    pub stats: Stats,
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Runs a SAMML graph on the given environment and configuration.
///
/// # Errors
///
/// See [`SimError`]; notably the config and the graph must validate, every
/// tensor slot must be bound to a tensor with the levels its scanners
/// address, and the run must finish within `cfg.max_cycles`.
pub fn simulate(graph: &SamGraph, env: &TensorEnv, cfg: &SimConfig) -> Result<SimResult, SimError> {
    if cfg.channel_capacity == 0 {
        return Err(SimError::Config("channel_capacity must be at least 1".into()));
    }
    let bw = cfg.timing.dram_bytes_per_cycle;
    if bw.is_nan() || bw < MIN_BYTES_PER_CYCLE {
        return Err(SimError::Config(format!(
            "dram_bytes_per_cycle must be at least the DRAM model's resolution, \
             {MIN_BYTES_PER_CYCLE} B/cycle, got {bw}"
        )));
    }
    if cfg.timing.outstanding == 0 {
        return Err(SimError::Config("outstanding must be at least 1".into()));
    }
    let order = graph.validated_order().map_err(SimError::Validation)?;
    let tensors = bind(graph, env)?;

    // One node table in rank order, one channel table indexed by edge index,
    // wired in a single pass over the edges. Edges are visited in insertion
    // order, so every port's fan-out order is the graph's. Each channel names
    // its writing (src) and reading (dst) node by rank, which is what the node
    // table and the event loop's ready sets are indexed by.
    let mut rank_of = vec![0u32; order.len()];
    for (rank, id) in order.iter().enumerate() {
        rank_of[id.0] = rank as u32;
    }
    let mut nodes: Vec<Rt> = order
        .iter()
        .map(|&id| {
            let kind = graph.node(id);
            Rt::new(
                kind,
                graph.label(id),
                vec![None; kind.input_ports().len()],
                vec![Vec::new(); kind.output_ports().len()],
            )
        })
        .collect();
    let mut chans = Vec::with_capacity(graph.edges().len());
    for (c, e) in graph.edges().iter().enumerate() {
        let (src, dst) = (rank_of[e.src.node.0], rank_of[e.dst.node.0]);
        chans.push(Chan::new(cfg.channel_capacity, src, dst));
        nodes[src as usize].io.outs[e.src.port].chans.push(c);
        nodes[dst as usize].io.in_chans[e.dst.port] = Some(c);
    }

    // One machine (`Ctx`): one DRAM channel and one clock for the whole graph.
    let t = &cfg.timing;
    let dram = Dram::new(t.dram_bytes_per_cycle, t.dram_stream_latency, t.dram_random_latency);
    let mut ctx =
        Ctx::new(chans, dram, tensors, graph.tensors(), graph.outputs(), cfg, order.len());
    match cfg.scheduler {
        Scheduler::Event => run_event(&order, &mut nodes, &mut ctx),
        Scheduler::Sweep => run_sweep(&order, &mut nodes, &mut ctx),
    }
    .map_err(|e| *e)?;
    let mut stats = Stats {
        cycles: ctx.now,
        dram_read_bytes: ctx.dram.read_bytes(),
        dram_write_bytes: ctx.dram.write_bytes(),
        flops: ctx.flops,
        node_tokens: HashMap::new(),
        sched: ctx.sched,
    };

    // Per-label token counts and the writers' recorded streams, moved out of
    // the nodes in one pass. `validate` gave each stream exactly one writer.
    let mut crd_streams: Vec<Vec<Vec<Token>>> =
        graph.outputs().iter().map(|slot| vec![Vec::new(); slot.format.order()]).collect();
    let mut val_streams = vec![Vec::new(); graph.outputs().len()];
    for rt in nodes {
        *stats.node_tokens.entry(rt.io.label).or_insert(0) += rt.io.elems;
        match rt.prim {
            Prim::CrdWriter { output, level, tokens } => crd_streams[output][level] = tokens,
            Prim::ValWriter { output, tokens } => val_streams[output] = tokens,
            _ => {}
        }
    }
    let mut outputs = HashMap::new();
    for ((slot, crds), vals) in graph.outputs().iter().zip(crd_streams).zip(val_streams) {
        let t = assemble_output(slot, &crds, &vals, &ctx.tiles).map_err(SimError::Rebuild)?;
        outputs.insert(slot.name.clone(), t);
    }

    Ok(SimResult { outputs, stats })
}

/// The tensors `env` binds to `graph`'s slots, in slot order.
///
/// # Errors
///
/// [`SimError::MissingTensor`] for a slot `env` does not bind, and
/// [`SimError::LevelOutOfRange`] for a level scanner past its tensor's
/// levels.
fn bind<'t>(graph: &SamGraph, env: &'t TensorEnv) -> Result<Vec<&'t SparseTensor>, SimError> {
    let tensors: Vec<&SparseTensor> = graph
        .tensors()
        .iter()
        .map(|slot| env.get(&slot.name).ok_or_else(|| SimError::MissingTensor(slot.name.clone())))
        .collect::<Result<_, _>>()?;
    for (i, kind) in graph.nodes().iter().enumerate() {
        if let NodeKind::LevelScanner { tensor, level } = *kind {
            let levels = tensors[tensor].order();
            if level >= levels {
                return Err(SimError::LevelOutOfRange {
                    node: graph.node_anchor(NodeId(i)),
                    tensor: graph.tensors()[tensor].name.clone(),
                    level,
                    order: levels,
                });
            }
        }
    }
    Ok(tensors)
}

/// Runs a single node in isolation on literal input streams. Intended for
/// unit and property tests of primitive semantics.
///
/// `inputs[p]` feeds input port `p` (empty vector = unconnected). A tile
/// payload is a handle into `tiles`, and the tiles the node makes are left
/// there. Returns one token vector per output port.
///
/// The node is checked as `simulate` checks it, in a one-node graph whose
/// tensor slot `i` is named `t{i}` and bound to `tensors[i]`, every one on
/// chip.
///
/// # Errors
///
/// [`SimError::Config`] if `inputs` does not hold one stream per input port,
/// a token names a tile `tiles` does not hold, or `kind` is a writer (it
/// writes an output and has no stream to return);
/// [`SimError::Validation`] if the node breaks a rule of
/// [`SamGraph::check_node`] (a tensor slot `tensors` lacks, no branch, an
/// accumulator too deep); [`SimError::LevelOutOfRange`] for a
/// `LevelScanner` past its tensor's levels; otherwise as [`simulate`].
pub fn run_node_standalone(
    kind: NodeKind,
    inputs: Vec<Vec<Token>>,
    tensors: Vec<SparseTensor>,
    tiles: &mut Tiles,
) -> Result<Vec<Vec<Token>>, SimError> {
    let cfg = SimConfig::default();
    let n_in = kind.input_ports().len();
    let n_out = kind.output_ports().len();
    if inputs.len() != n_in {
        return Err(SimError::Config(format!(
            "{kind:?} takes {n_in} input streams (empty = unconnected), got {}",
            inputs.len()
        )));
    }
    if let Some(t) = inputs.iter().flatten().find(|&&t| !tiles.holds(t)) {
        return Err(SimError::Config(format!("{t:?} names a tile the table does not hold")));
    }
    if let NodeKind::CrdWriter { .. } | NodeKind::ValWriter { .. } = kind {
        return Err(SimError::Config(format!("{kind:?} writes an output, not a stream")));
    }
    // Every tensor on chip, so the DRAM channel is never asked.
    let (mut graph, mut env) = (SamGraph::new(), TensorEnv::new());
    for (i, tensor) in tensors.into_iter().enumerate() {
        graph.add_tensor(format!("t{i}"), MemLocation::OnChip);
        env.insert(format!("t{i}"), tensor);
    }
    let id = graph.add_node(kind);
    graph.check_node(id).map_err(SimError::Validation)?;
    let tensors = bind(&graph, &env)?;

    let mut ctx =
        Ctx::new(Vec::new(), Dram::new(1e9, 0, 0), tensors, graph.tensors(), &[], &cfg, 1);
    ctx.tiles = std::mem::take(tiles);
    let mut in_chans = vec![None; n_in];
    for (p, toks) in inputs.into_iter().enumerate() {
        if !toks.is_empty() {
            ctx.chans.push(Chan::seeded(toks));
            in_chans[p] = Some(ctx.chans.len() - 1);
        }
    }
    let mut out_chans = vec![Vec::new(); n_out];
    let mut capture = Vec::new();
    for oc in &mut out_chans {
        // Captured by the harness: no reader node.
        ctx.chans.push(Chan::new(usize::MAX, 0, NO_NODE));
        oc.push(ctx.chans.len() - 1);
        capture.push(ctx.chans.len() - 1);
    }

    let mut rt = Rt::new(graph.node(id), "standalone".into(), in_chans, out_chans);
    let ran = run_standalone(&mut rt, &mut ctx, 10_000_000);
    *tiles = std::mem::take(&mut ctx.tiles);
    ran.map_err(|e| *e)?;
    Ok(capture.into_iter().map(|c| ctx.chans[c].buf.iter().copied().collect()).collect())
}
