//! The cycle-level simulation engine (Comal analogue).
//!
//! Every SAMML node is a state machine; a step first *flushes* previously
//! produced tokens (at most one per output port per cycle — the fully
//! pipelined II=1 rate of SAM/Comal), then retires completed memory
//! requests, then performs at most one *action* (consume input tokens,
//! produce output tokens, issue DRAM requests). Bounded channels provide
//! backpressure; a [`Dram`] model serializes bandwidth. Simulation ends
//! when every writer has received `Done`.
//!
//! # Event-driven scheduling
//!
//! Nodes are *not* swept every cycle. [`Rt::step`](crate::node::Rt::step)
//! reports a [`StepOutcome`](crate::chan::StepOutcome) and the shard loop
//! ([`Shard::run_event`]) services a node only when a wake condition
//! fires: a push into one of its input
//! channels, a pop of one of its full output channels (channels carry
//! reader/writer back-pointers), a registered timer (in-flight memory or
//! busy ALU; see `sched.rs` for the calendar queue), or its own progress
//! in the previous cycle. The legacy dense sweep is retained behind
//! [`SimConfig::scheduler`] as a differential-testing oracle; the two are
//! bit-identical (see the determinism notes on [`Shard::run_event`] and
//! `crates/sim/tests/determinism.rs`).
//!
//! # Shards
//!
//! The graph's weakly-connected components ("shards") are what the model
//! runs side by side: every channel joins two nodes of one component, so a
//! shard is a slice of the topological order with its own clock, its own
//! counters and a static 1/k slice of the configured DRAM bandwidth (so
//! aggregate bandwidth matches the single shared channel; single-component
//! graphs keep the full channel). That concurrency lives in simulated
//! time: [`simulate`] runs the shards one after another on the calling
//! thread, over one node table indexed by `NodeId` and one channel table
//! indexed by edge, and merges at the end (stats fold in shard order, the
//! cycle count is the max over shard clocks, and the first failing shard's
//! error is the one reported).

use crate::chan::{Chan, NO_NODE};
use crate::dram::Dram;
use crate::node::{make_rt, State};
use crate::rebuild::assemble_output;
use crate::shard::{Shard, Shared};
use crate::stats::{SchedCounters, Stats};
use crate::TimingConfig;
use fuseflow_sam::{GraphError, MemLocation, NodeId, NodeKind, SamGraph, Token};
use fuseflow_tensor::SparseTensor;
use std::collections::HashMap;

/// Which shard execution loop [`simulate`] runs.
///
/// The two schedulers are **bit-identical** on every graph: the
/// event-driven engine performs exactly the effective (state-changing)
/// steps of the sweep, in the same relative order, at the same simulated
/// cycle — it only skips steps that are provably no-ops. The sweep is
/// retained as the differential-testing oracle
/// (`crates/sim/tests/determinism.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scheduler {
    /// Event-driven ready-set + calendar wake queue (the default): only
    /// nodes that can possibly progress are stepped.
    #[default]
    Event,
    /// Legacy dense per-cycle sweep: every node steps every cycle.
    Sweep,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Timing backend (Comal or FPGA-RTL flavoured).
    pub timing: TimingConfig,
    /// Capacity of every stream channel, in tokens.
    pub channel_capacity: usize,
    /// Hard cycle budget; exceeding it is an error.
    pub max_cycles: u64,
    /// Shard execution loop; `Scheduler::Sweep` is the legacy oracle.
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
    /// Returns the config with the given shard execution loop.
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
    /// non-positive DRAM bandwidth).
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
    /// Output stream reconstruction failed.
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

/// Weakly-connected-component id per node, components numbered in order of
/// their lowest node id (so shard numbering is deterministic).
fn shard_assignment(graph: &SamGraph) -> (Vec<usize>, usize) {
    let n = graph.node_count();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        let mut r = x;
        while parent[r] != r {
            r = parent[r];
        }
        let mut c = x;
        while parent[c] != r {
            let next = parent[c];
            parent[c] = r;
            c = next;
        }
        r
    }
    for e in graph.edges() {
        let (a, b) = (find(&mut parent, e.src.node.0), find(&mut parent, e.dst.node.0));
        if a != b {
            parent[b] = a;
        }
    }
    let mut shard_of = vec![usize::MAX; n];
    let mut count = 0;
    for i in 0..n {
        let r = find(&mut parent, i);
        if shard_of[r] == usize::MAX {
            shard_of[r] = count;
            count += 1;
        }
        shard_of[i] = shard_of[r];
    }
    (shard_of, count)
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
    if bw.is_nan() || bw <= 0.0 {
        return Err(SimError::Config(format!("dram_bytes_per_cycle must be positive, got {bw}")));
    }
    let order = graph.validated_order().map_err(SimError::Validation)?;
    let tensors: Vec<&SparseTensor> = graph
        .tensors()
        .iter()
        .map(|slot| env.get(&slot.name).ok_or_else(|| SimError::MissingTensor(slot.name.clone())))
        .collect::<Result<_, _>>()?;
    let loc = |l: MemLocation| if cfg.timing.honor_on_chip { l } else { MemLocation::Dram };
    let tensor_locs: Vec<MemLocation> = graph.tensors().iter().map(|s| loc(s.location)).collect();
    let output_locs: Vec<MemLocation> = graph.outputs().iter().map(|s| loc(s.location)).collect();

    // One node table indexed by `NodeId`, one channel table indexed by edge
    // index, wired in a single pass over the edges. Edges are visited in
    // insertion order, so every port's fan-out order (and with it the flush
    // order and every cycle count) is the graph's. Each channel carries
    // back-pointers to its writing (src) and reading (dst) node for the
    // event scheduler's wake lists.
    let mut nodes = Vec::with_capacity(graph.node_count());
    for (i, kind) in graph.nodes().iter().enumerate() {
        let id = NodeId(i);
        if let NodeKind::LevelScanner { tensor, level } = *kind {
            let levels = tensors[tensor].order();
            if level >= levels {
                return Err(SimError::LevelOutOfRange {
                    node: graph.node_anchor(id),
                    tensor: graph.tensors()[tensor].name.clone(),
                    level,
                    order: levels,
                });
            }
        }
        nodes.push(make_rt(
            kind.clone(),
            graph.label(id).to_string(),
            vec![None; kind.input_ports().len()],
            vec![Vec::new(); kind.output_ports().len()],
            &cfg.timing,
        ));
    }
    let mut chans = Vec::with_capacity(graph.edges().len());
    for (c, e) in graph.edges().iter().enumerate() {
        chans.push(Chan::new(cfg.channel_capacity, e.src.node.0 as u32, e.dst.node.0 as u32));
        nodes[e.src.node.0].out_chans[e.src.port].push(c);
        nodes[e.dst.node.0].in_chans[e.dst.port] = Some(c);
    }

    // A shard is one weakly-connected component: its slice of the
    // topological order, its clock and counters, and a static 1/k slice of
    // the configured DRAM bandwidth (latencies unchanged), so a
    // multi-component graph models the same aggregate bandwidth as one
    // shared channel would — contention is approximated by the static split
    // instead of request-order arbitration. Single-component graphs (the
    // common case) keep the full channel.
    let (shard_of, n_shards) = shard_assignment(graph);
    let slice_bw = cfg.timing.dram_bytes_per_cycle / (n_shards.max(1) as f64);
    let mut shards: Vec<Shard> = (0..n_shards)
        .map(|_| {
            Shard::new(Dram::new(
                slice_bw,
                cfg.timing.dram_stream_latency,
                cfg.timing.dram_random_latency,
            ))
        })
        .collect();
    for nid in order {
        shards[shard_of[nid.0]].order.push(nid.0);
    }

    // Shards share no state, so running them one after another in shard
    // order is the model's side-by-side execution; the first error met is
    // the lowest-indexed failing shard's.
    let shared =
        Shared { tensors: &tensors, tensor_locs: &tensor_locs, output_locs: &output_locs, cfg };
    for shard in &mut shards {
        shard.run(&mut nodes, &mut chans, &shared)?;
    }

    // Shards model concurrently executing partitions, so wall-clock cycles
    // are the max over shard clocks while traffic and work counters sum.
    let mut stats = Stats {
        cycles: shards.iter().map(|s| s.now).max().unwrap_or(1),
        dram_read_bytes: shards.iter().map(|s| s.dram.read_bytes()).sum(),
        dram_write_bytes: shards.iter().map(|s| s.dram.write_bytes()).sum(),
        flops: shards.iter().map(|s| s.flops).sum(),
        node_tokens: HashMap::new(),
        sched: SchedCounters::default(),
    };
    for shard in &shards {
        stats.sched.merge(&shard.sched);
    }

    // Per-label token counts and the writers' recorded streams, moved out of
    // the nodes in one pass.
    let mut crd_streams: Vec<Vec<Option<Vec<Token>>>> =
        graph.outputs().iter().map(|slot| vec![None; slot.format.order()]).collect();
    let mut val_streams: Vec<Option<Vec<Token>>> = vec![None; graph.outputs().len()];
    for rt in nodes {
        *stats.node_tokens.entry(rt.label).or_insert(0) += rt.elems;
        if let State::Writer { tokens } = rt.state {
            match rt.kind {
                NodeKind::CrdWriter { output, level } => crd_streams[output][level] = Some(tokens),
                NodeKind::ValWriter { output } => val_streams[output] = Some(tokens),
                _ => unreachable!("only writers hold `State::Writer`"),
            }
        }
    }
    let mut outputs = HashMap::new();
    for ((slot, crds), vals) in graph.outputs().iter().zip(crd_streams).zip(val_streams) {
        let crds: Vec<Vec<Token>> = crds
            .into_iter()
            .enumerate()
            .map(|(l, s)| {
                s.ok_or(SimError::Rebuild(format!(
                    "output '{}' missing level {l} writer",
                    slot.name
                )))
            })
            .collect::<Result<_, _>>()?;
        let vals =
            vals.ok_or(SimError::Rebuild(format!("output '{}' missing value writer", slot.name)))?;
        let t = assemble_output(slot, &crds, &vals).map_err(SimError::Rebuild)?;
        outputs.insert(slot.name.clone(), t);
    }

    Ok(SimResult { outputs, stats })
}

/// Runs a single node in isolation on literal input streams. Intended for
/// unit and property tests of primitive semantics.
///
/// `inputs[p]` feeds input port `p` (empty vector = unconnected). Returns
/// one token vector per output port.
///
/// # Errors
///
/// Propagates [`SimError`] exactly like [`simulate`].
pub fn run_node_standalone(
    kind: NodeKind,
    inputs: Vec<Vec<Token>>,
    tensors: Vec<SparseTensor>,
) -> Result<Vec<Vec<Token>>, SimError> {
    let cfg = SimConfig::default();
    let n_in = kind.input_ports().len();
    let n_out = kind.output_ports().len();
    assert_eq!(inputs.len(), n_in, "one input stream per port (empty = unconnected)");

    let mut chans = Vec::new();
    let mut in_chans = vec![None; n_in];
    for (p, toks) in inputs.iter().enumerate() {
        if !toks.is_empty() {
            // Pre-seeded by the harness: no writer node.
            let mut c = Chan::new(usize::MAX, NO_NODE, 0);
            c.buf.extend(toks.iter().cloned());
            chans.push(c);
            in_chans[p] = Some(chans.len() - 1);
        }
    }
    let mut out_chans = vec![Vec::new(); n_out];
    let mut capture = Vec::new();
    for oc in &mut out_chans {
        // Captured by the harness: no reader node.
        chans.push(Chan::new(usize::MAX, 0, NO_NODE));
        oc.push(chans.len() - 1);
        capture.push(chans.len() - 1);
    }

    let mut rt = make_rt(kind, "standalone".into(), in_chans, out_chans, &cfg.timing);
    let tensor_refs: Vec<&SparseTensor> = tensors.iter().collect();
    let tensor_locs = vec![MemLocation::OnChip; tensors.len()];
    let output_locs = Vec::new();
    let shared = Shared {
        tensors: &tensor_refs,
        tensor_locs: &tensor_locs,
        output_locs: &output_locs,
        cfg: &cfg,
    };
    let mut shard = Shard::new(Dram::new(1e9, 0, 0));
    shard.run_standalone(&mut rt, &mut chans, &shared, 10_000_000)?;
    Ok(capture.into_iter().map(|c| chans[c].buf.iter().cloned().collect()).collect())
}
