//! The end-to-end compile-and-simulate driver.
//!
//! Partitions a program into fusion regions per the schedule, fuses each
//! region (Section 5), lowers it to a SAMML graph (Section 6), executes the
//! graphs in order on the Comal-style simulator — materializing
//! region-boundary intermediates through the DRAM model, which is exactly
//! the fusion/reuse tradeoff the paper evaluates — and optionally verifies
//! every program output against the structural reference interpreter.

use crate::fusion::fuse_region;
use crate::interp::{interpret, InterpError};
use crate::ir::Program;
use crate::lower::{lower_region, LowerError, LowerOptions, Lowered};
use crate::schedule::Schedule;
use fuseflow_sam::MemLocation;
use fuseflow_sim::{simulate, SimConfig, SimError, Stats, TensorEnv};
use fuseflow_tensor::SparseTensor;
use fuseflow_verify::{enforce, verify_graph, VerifyConfig};
use std::collections::HashMap;

/// Errors from compilation or execution.
#[derive(Debug)]
pub enum PipelineError {
    /// Lowering/fusion failure.
    Lower(LowerError),
    /// Simulation failure.
    Sim(SimError),
    /// Reference interpretation failure.
    Interp(InterpError),
    /// Verification mismatch.
    Verify(String),
    /// Static analysis denied the compile (`fuseflow-verify` lints).
    Static {
        /// Fusion-region index whose lowered graph was rejected.
        region: usize,
        /// The denied diagnostics, rendered against the region graph.
        rendered: String,
    },
    /// Missing input binding.
    MissingInput(String),
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Lower(e) => write!(f, "lowering failed: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation failed: {e}"),
            PipelineError::Interp(e) => write!(f, "reference failed: {e}"),
            PipelineError::Verify(m) => write!(f, "verification failed: {m}"),
            PipelineError::Static { region, rendered } => {
                write!(f, "static analysis rejected region {region}:\n{rendered}")
            }
            PipelineError::MissingInput(n) => write!(f, "missing input '{n}'"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<LowerError> for PipelineError {
    fn from(e: LowerError) -> Self {
        PipelineError::Lower(e)
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}

impl From<InterpError> for PipelineError {
    fn from(e: InterpError) -> Self {
        PipelineError::Interp(e)
    }
}

/// A compiled program: one lowered SAMML graph per fusion region.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// Lowered graphs + fusion tables, in region order.
    pub lowered: Vec<Lowered>,
}

impl Compiled {
    /// Total SAMML node count across regions.
    pub fn node_count(&self) -> usize {
        self.lowered.iter().map(|l| l.graph.node_count()).sum()
    }

    /// Renders every fusion table.
    pub fn tables(&self) -> String {
        self.lowered
            .iter()
            .enumerate()
            .map(|(i, l)| format!("== region {i} ==\n{}", l.table))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// Compiles `program` under `schedule` (Fig 6's flow: Einsum expressions →
/// cross-expression fusion → fusion tables → SAMML graphs).
///
/// # Errors
///
/// Returns [`PipelineError::Lower`] when fusion or lowering fails.
pub fn compile(program: &Program, schedule: &Schedule) -> Result<Compiled, PipelineError> {
    compile_at(program, schedule, MemLocation::Dram)
}

/// [`compile`] with an explicit memory location for tensors (the FPGA
/// validation pins kernels in on-chip BRAM).
pub fn compile_at(
    program: &Program,
    schedule: &Schedule,
    location: MemLocation,
) -> Result<Compiled, PipelineError> {
    compile_with(program, schedule, location, &VerifyConfig::default())
}

/// The fiber-length upper bound the static analyzer sizes retention
/// against: no fiber in any stream lowered from `program` can be longer
/// than the largest tensor dimension.
pub fn fiber_upper_bound(program: &Program) -> Option<u64> {
    program.tensors().iter().flat_map(|t| t.shape.iter()).max().map(|&d| d as u64)
}

/// [`compile_at`] with an explicit static-analysis policy: every lowered
/// region graph is linted by `fuseflow-verify` and diagnostics mapped to
/// [`fuseflow_verify::Level::Deny`] abort the compile; the others are
/// dropped (lint a graph with [`verify_graph`] to read them).
///
/// Each region is lowered once. A parallel directive whose row cannot be
/// split there is recorded in that region's [`Lowered::refused`].
///
/// The analyzer's fiber upper bound is derived from the program's tensor
/// shapes, so capacity-sizing advisories (SA013) reflect the actual
/// problem dimensions; no fiber lower bound is assumed, so compile-time
/// verification never claims a *guaranteed* deadlock (SA012).
///
/// # Errors
///
/// Returns [`PipelineError::Lower`] when fusion or lowering fails and
/// [`PipelineError::Static`] when a denied lint fires.
pub fn compile_with(
    program: &Program,
    schedule: &Schedule,
    location: MemLocation,
    verify_cfg: &VerifyConfig,
) -> Result<Compiled, PipelineError> {
    let mut lowered = Vec::new();
    for r in schedule.resolve_regions(program.exprs().len()) {
        let region = fuse_region(program, r.clone()).map_err(LowerError::from)?;
        // Resolve parallelization onto this region's global index space.
        let parallelize = (schedule.parallelize.iter())
            .filter_map(|&(var, factor)| Some((region.global_for_program_var(var)?, factor)))
            .collect();
        let opts = LowerOptions { parallelize, location };
        lowered.push(lower_region(program, &region, &program.live_outs(&r), &opts)?);
    }
    if verify_cfg.enabled {
        let mut opts = verify_cfg.options.clone();
        if opts.fiber_hi.is_none() {
            opts.fiber_hi = fiber_upper_bound(program);
        }
        for (region, low) in lowered.iter().enumerate() {
            if let Err(denied) = enforce(&verify_graph(&low.graph, &opts), verify_cfg) {
                let rendered = denied.render_human(&low.graph);
                return Err(PipelineError::Static { region, rendered });
            }
        }
    }
    Ok(Compiled { lowered })
}

/// The result of executing a compiled program.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Program outputs by name.
    pub outputs: HashMap<String, SparseTensor>,
    /// Counters accumulated across all regions (cycles add up: unfused
    /// kernels execute back to back).
    pub stats: Stats,
    /// Per-region counters.
    pub per_region: Vec<Stats>,
}

/// Executes a compiled program on the simulator.
///
/// Regions run in order, on the calling thread (later regions consume
/// earlier regions' outputs through the environment).
///
/// # Errors
///
/// See [`PipelineError`].
pub fn run(
    program: &Program,
    compiled: &Compiled,
    inputs: &HashMap<String, SparseTensor>,
    sim: &SimConfig,
) -> Result<RunResult, PipelineError> {
    let mut env = TensorEnv::new();
    for (_, decl) in program.inputs() {
        let t =
            inputs.get(&decl.name).ok_or_else(|| PipelineError::MissingInput(decl.name.clone()))?;
        env.insert(decl.name.clone(), t.clone());
    }
    let mut total = Stats::default();
    let mut per_region = Vec::new();
    for low in &compiled.lowered {
        for p in &low.permuted_inputs {
            let base =
                env.get(&p.base).ok_or_else(|| PipelineError::MissingInput(p.base.clone()))?;
            let permuted = base.permute(&p.perm, base.format());
            env.insert(p.derived.clone(), permuted);
        }
        let res = simulate(&low.graph, &env, sim)?;
        for (name, t) in res.outputs {
            env.insert(name, t);
        }
        per_region.push(res.stats.clone());
        total.accumulate(&res.stats);
    }
    let mut outputs = HashMap::new();
    for &t in program.outputs() {
        let name = &program.tensor(t).name;
        let tensor = env
            .get(name)
            .ok_or_else(|| PipelineError::Verify(format!("output '{name}' never produced")))?;
        outputs.insert(name.clone(), tensor.clone());
    }
    Ok(RunResult { outputs, stats: total, per_region })
}

/// Compiles, runs, and verifies in one call.
///
/// # Errors
///
/// Adds [`PipelineError::Verify`] when a simulated output diverges from the
/// structural reference interpreter.
pub fn compile_run_verify(
    program: &Program,
    schedule: &Schedule,
    inputs: &HashMap<String, SparseTensor>,
    sim: &SimConfig,
) -> Result<RunResult, PipelineError> {
    let compiled = compile(program, schedule)?;
    let result = run(program, &compiled, inputs, sim)?;
    verify(program, inputs, &result.outputs)?;
    Ok(result)
}

/// Verifies simulated outputs against the reference interpreter.
///
/// # Errors
///
/// Returns [`PipelineError::Verify`] describing the first mismatch.
pub fn verify(
    program: &Program,
    inputs: &HashMap<String, SparseTensor>,
    outputs: &HashMap<String, SparseTensor>,
) -> Result<(), PipelineError> {
    let golden = interpret(program, inputs)?;
    for (name, t) in outputs {
        let Some(g) = golden.get(name) else {
            return Err(PipelineError::Verify(format!("reference never produced '{name}'")));
        };
        let got = t.to_dense();
        if !got.approx_eq(&g.vals) {
            return Err(PipelineError::Verify(format!(
                "output '{name}' diverges from reference (max abs diff {})",
                got.max_abs_diff(&g.vals)
            )));
        }
    }
    Ok(())
}
