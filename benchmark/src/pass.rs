//! One pass over a workload's points: `compile_with` (+ `estimate`) → `run`
//! → `verify` per point, timed around those calls, with the correctness and
//! determinism guard. The traced variant wraps spans around calls into each
//! layer's public functions and collects the layers' counters.
//!
//! API surface rule: only the calls listed in README.md ("API surface") may
//! appear here, so that engine PRs can delete backends without editing the
//! benchmark. Everything runs what `SimConfig::default()` gives a user.

use crate::calib::Calibrator;
use crate::trace::Tracer;
use crate::workload::{Point, Workload, FAMILIES};
use fuseflow_core::fuse_region;
use fuseflow_core::heuristic::{estimate, Estimate};
use fuseflow_core::interp::interpret;
use fuseflow_core::ir::Program;
use fuseflow_core::pipeline::{compile_with, run, verify, Compiled};
use fuseflow_sam::MemLocation;
use fuseflow_sim::{simulate, SimConfig, Stats, TensorEnv};
use fuseflow_tensor::SparseTensor;
use fuseflow_verify::{verify_graph, VerifyConfig};
use std::collections::HashMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The configurations every point runs under: what a user gets by default.
pub struct Env {
    sim: SimConfig,
    verify_on: VerifyConfig,
    verify_off: VerifyConfig,
}

impl Env {
    pub fn new() -> Self {
        Env {
            sim: SimConfig::default(),
            verify_on: VerifyConfig::default(),
            verify_off: VerifyConfig::disabled(),
        }
    }
}

type Outputs = HashMap<String, SparseTensor>;

/// What a simulated point produced.
#[derive(Clone)]
struct Ran {
    outputs: Outputs,
    /// The documented semantic `Stats` fields, summed over the regions.
    stats: Stats,
    /// `Stats::semantic()` as `pipeline::run` returned it; absent from the
    /// traced pass, whose mirrored loop sums only the documented fields.
    semantic: Option<Stats>,
}

impl Ran {
    fn from_run(outputs: Outputs, stats: &Stats) -> Self {
        let documented = Stats {
            cycles: stats.cycles,
            flops: stats.flops,
            dram_read_bytes: stats.dram_read_bytes,
            dram_write_bytes: stats.dram_write_bytes,
            node_tokens: stats.node_tokens.clone(),
            ..Stats::default()
        };
        Ran { outputs, stats: documented, semantic: Some(stats.semantic()) }
    }
}

impl PartialEq for Ran {
    fn eq(&self, other: &Self) -> bool {
        let semantic_agrees = match (&self.semantic, &other.semantic) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        self.outputs == other.outputs && self.stats == other.stats && semantic_agrees
    }
}

/// What a point produced, kept from the warm-up pass and compared with
/// every later pass: the simulator and compiler are deterministic, so any
/// difference is a failure.
#[derive(Clone, PartialEq)]
pub struct Observed {
    nodes: usize,
    edges: usize,
    estimate: [u64; 2],
    ran: Option<Ran>,
}

impl Observed {
    fn new(compiled: &Compiled, est: Estimate, ran: Option<Ran>) -> Self {
        let graphs = || compiled.lowered.iter().map(|l| &l.graph);
        Observed {
            nodes: graphs().map(|g| g.node_count()).sum(),
            edges: graphs().map(|g| g.edges().len()).sum(),
            estimate: [est.flops.to_bits(), est.bytes.to_bits()],
            ran,
        }
    }

    fn cycles(&self) -> u64 {
        self.ran.as_ref().map_or(0, |r| r.stats.cycles)
    }
}

/// Seconds in `[compile_with + estimate, run, verify]`.
pub type Phases = [f64; 3];

pub struct PassResult {
    /// Phase seconds summed over the points, calibrated and raw; the sum of
    /// the three is the pass's wall.
    pub phases: Phases,
    pub raw_phases: Phases,
    /// Calibration kernel timings taken during the pass.
    pub kernel_s: Vec<f64>,
    /// Raw phase seconds of each point, and each point's calibration scale.
    pub per_point: Vec<Phases>,
    pub point_scale: Vec<f64>,
    /// Σ simulated cycles over the simulated points.
    pub sim_cycles: u64,
    pub attempted: usize,
    pub failed: usize,
    /// On-CPU seconds of this thread during the pass.
    pub cpu_s: f64,
    /// One entry per point, `None` where the point failed.
    pub observed: Vec<Option<Observed>>,
    /// Layer counters; filled by traced passes only.
    pub counts: Counts,
}

impl PassResult {
    pub fn wall_s(&self) -> f64 {
        self.phases.iter().sum()
    }

    pub fn raw_wall_s(&self) -> f64 {
        self.raw_phases.iter().sum()
    }
}

/// Exact per-pass counters of the layers (traced passes).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub regions: u64,
    pub nodes: u64,
    pub edges: u64,
    pub permuted_inputs: u64,
    pub diags: u64,
    pub graphs: u64,
    pub events: u64,
    pub cycles: u64,
    pub cycles_skipped: u64,
    pub peak_ready: u64,
    pub tokens: u64,
    pub flops: u64,
    pub dram_read_bytes: u64,
    pub dram_write_bytes: u64,
    pub out_elems: u64,
    pub cycles_by_gran: [u64; 3],
    /// Simulated cycles per model family and granularity.
    pub cycles_by_family: [[u64; 3]; FAMILIES.len()],
    /// Σ |estimate − simulated| / simulated and the number of points summed.
    pub flops_rel_err: (f64, u64),
    pub bytes_rel_err: (f64, u64),
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned());
    format!("panicked: {}", text.unwrap_or_else(|| "(no message)".to_string()))
}

fn guard(point: &Point, obs: &Observed, expected: Option<&Observed>) -> Result<(), String> {
    if let (MemLocation::OnChip, Some(ran)) = (point.location, &obs.ran) {
        let bytes = ran.stats.dram_read_bytes + ran.stats.dram_write_bytes;
        if bytes != 0 {
            return Err(format!("on-chip point moved {bytes} DRAM bytes"));
        }
    }
    match expected {
        Some(e) if e != obs => {
            Err("outputs, stats or graph differ from the warm-up pass".to_string())
        }
        _ => Ok(()),
    }
}

/// Runs one pass. `expected` is the warm-up pass's record (absent during
/// the warm-up itself); `tracer` selects the traced variant.
pub fn run_pass(
    w: &Workload,
    env: &Env,
    expected: Option<&[Option<Observed>]>,
    mut tracer: Option<&mut Tracer>,
) -> PassResult {
    let mut res = PassResult {
        phases: [0.0; 3],
        raw_phases: [0.0; 3],
        kernel_s: Vec::new(),
        per_point: Vec::with_capacity(w.points.len()),
        point_scale: vec![1.0; w.points.len()],
        sim_cycles: 0,
        attempted: w.points.len(),
        failed: 0,
        cpu_s: 0.0,
        observed: Vec::with_capacity(w.points.len()),
        counts: Counts::default(),
    };
    let cpu0 = crate::host::thread_cpu_s();
    // The first point since the last kernel timing, still waiting for its scale.
    let mut unscaled = 0;
    let mut calibrator = Calibrator::start();
    for (id, point) in w.points.iter().enumerate() {
        let started = Instant::now();
        let counts = &mut res.counts;
        // The point span is closed out here, not inside the closure, so that
        // a panicking point cannot leave it open.
        let span = tracer.as_deref_mut().map(|tr| tr.enter("point", id as u32));
        let outcome = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
            None => point_untraced(w, env, point),
            Some(tr) => point_traced(w, env, point, id as u32, tr, counts),
        }));
        if let (Some(tr), Some(span)) = (tracer.as_deref_mut(), span) {
            tr.exit(span);
        }
        let outcome = outcome.unwrap_or_else(|payload| Err(panic_message(payload))).and_then(
            |(phases, obs)| {
                guard(point, &obs, expected.and_then(|e| e[id].as_ref()))?;
                Ok((phases, obs))
            },
        );
        match outcome {
            Ok((phases, obs)) => {
                res.sim_cycles += obs.cycles();
                res.per_point.push(phases);
                res.observed.push(Some(obs));
            }
            Err(msg) => {
                eprintln!("FAILED {} point {}: {msg}", w.kind.name(), point.name);
                res.failed += 1;
                res.per_point.push([0.0; 3]);
                res.observed.push(None);
            }
        }
        // The kernel runs between points, outside every span.
        if let Some(scale) = calibrator.worked(started.elapsed().as_secs_f64()) {
            res.point_scale[unscaled..=id].fill(scale);
            unscaled = id + 1;
        }
    }
    let (scale, kernel_s) = calibrator.finish();
    res.point_scale[unscaled..].fill(scale);
    res.kernel_s = kernel_s;
    for (point, scale) in res.per_point.iter().zip(&res.point_scale) {
        for (phase, raw) in point.iter().enumerate() {
            res.raw_phases[phase] += raw;
            res.phases[phase] += raw * scale;
        }
    }
    res.cpu_s = crate::host::thread_cpu_s() - cpu0;
    res
}

fn point_untraced(w: &Workload, env: &Env, point: &Point) -> Result<(Phases, Observed), String> {
    let model = &w.models[point.model].instance;
    let (program, inputs) = (&model.program, &model.inputs);
    let t0 = Instant::now();
    let compiled = compile_with(program, &point.schedule, point.location, &env.verify_on)
        .map_err(|e| format!("compile: {e}"))?;
    let est = black_box(estimate(program, &point.schedule, inputs));
    let t1 = Instant::now();
    let mut phases = [(t1 - t0).as_secs_f64(), 0.0, 0.0];
    let mut ran = None;
    if point.simulate {
        let result = run(program, &compiled, inputs, &env.sim).map_err(|e| format!("run: {e}"))?;
        let t2 = Instant::now();
        verify(program, inputs, &result.outputs).map_err(|e| format!("check: {e}"))?;
        let t3 = Instant::now();
        phases[1] = (t2 - t1).as_secs_f64();
        phases[2] = (t3 - t2).as_secs_f64();
        ran = Some(Ran::from_run(result.outputs, &result.stats));
    }
    Ok((phases, Observed::new(&compiled, est, ran)))
}

/// The harness's own region loop, mirroring `pipeline::run` call for call
/// so that spans can sit around `permute` and `simulate`; what is left of
/// the `pipeline.run` span is tensor binding and output collection.
fn run_traced(
    program: &Program,
    compiled: &Compiled,
    inputs: &Outputs,
    sim: &SimConfig,
    id: u32,
    tr: &mut Tracer,
) -> Result<(Outputs, Vec<Stats>), String> {
    let mut env = TensorEnv::new();
    for (_, decl) in program.inputs() {
        let t = inputs.get(&decl.name).ok_or_else(|| format!("missing input '{}'", decl.name))?;
        env.insert(decl.name.clone(), t.clone());
    }
    let mut per_region = Vec::with_capacity(compiled.lowered.len());
    for low in &compiled.lowered {
        for p in &low.permuted_inputs {
            let base = env.get(&p.base).ok_or_else(|| format!("missing input '{}'", p.base))?;
            let span = tr.enter("tensor.permute", id);
            let permuted = base.permute(&p.perm, base.format());
            tr.exit(span);
            env.insert(p.derived.clone(), permuted);
        }
        let span = tr.enter("sim.simulate", id);
        let res = simulate(&low.graph, &env, sim).map_err(|e| format!("simulate: {e}"))?;
        tr.exit(span);
        for (name, t) in res.outputs {
            env.insert(name, t);
        }
        per_region.push(res.stats);
    }
    let mut outputs = HashMap::new();
    for &t in program.outputs() {
        let name = &program.tensor(t).name;
        let tensor = env.get(name).ok_or_else(|| format!("output '{name}' never produced"))?;
        outputs.insert(name.clone(), tensor.clone());
    }
    Ok((outputs, per_region))
}

fn rel_err(acc: &mut (f64, u64), estimated: f64, simulated: u64) {
    if simulated > 0 {
        acc.0 += (estimated - simulated as f64).abs() / simulated as f64;
        acc.1 += 1;
    }
}

fn point_traced(
    w: &Workload,
    env: &Env,
    point: &Point,
    id: u32,
    tr: &mut Tracer,
    counts: &mut Counts,
) -> Result<(Phases, Observed), String> {
    let model = &w.models[point.model];
    let (program, inputs) = (&model.instance.program, &model.instance.inputs);

    let t0 = Instant::now();
    let span = tr.enter("pipeline.compile", id);
    let compiled = compile_with(program, &point.schedule, point.location, &env.verify_on)
        .map_err(|e| format!("compile: {e}"))?;
    tr.exit(span);
    let span = tr.enter("heuristic.estimate", id);
    let est = black_box(estimate(program, &point.schedule, inputs));
    tr.exit(span);
    let mut phases = [t0.elapsed().as_secs_f64(), 0.0, 0.0];

    // Probes: the same layer work again, called layer by layer, so that
    // `compile_with`'s time can be split without spans inside the library.
    // They are not part of the pass's wall.
    let probes = tr.enter("probe", id);
    let span = tr.enter("fusion.fuse", id);
    for range in point.schedule.resolve_regions(program.exprs().len()) {
        black_box(fuse_region(program, range).map_err(|e| format!("fuse: {e}"))?);
        counts.regions += 1;
    }
    tr.exit(span);
    let span = tr.enter("probe.compile_unverified", id);
    black_box(
        compile_with(program, &point.schedule, point.location, &env.verify_off)
            .map_err(|e| format!("compile (verification off): {e}"))?,
    );
    tr.exit(span);
    let mut lint = env.verify_on.options.clone();
    lint.fiber_hi = program.tensors().iter().flat_map(|t| &t.shape).max().map(|&d| d as u64);
    let span = tr.enter("verify.lint", id);
    for low in &compiled.lowered {
        counts.diags += verify_graph(&low.graph, &lint).diags.len() as u64;
    }
    tr.exit(span);
    tr.exit(probes);

    for low in &compiled.lowered {
        counts.nodes += low.graph.node_count() as u64;
        counts.edges += low.graph.edges().len() as u64;
        counts.permuted_inputs += low.permuted_inputs.len() as u64;
    }

    let mut ran = None;
    if point.simulate {
        let t1 = Instant::now();
        let span = tr.enter("pipeline.run", id);
        let (outputs, per_region) = run_traced(program, &compiled, inputs, &env.sim, id, tr)?;
        tr.exit(span);
        let t2 = Instant::now();
        let span = tr.enter("pipeline.verify", id);
        verify(program, inputs, &outputs).map_err(|e| format!("check: {e}"))?;
        tr.exit(span);
        phases[1] = (t2 - t1).as_secs_f64();
        phases[2] = t2.elapsed().as_secs_f64();

        let span = tr.enter("interp.interpret", id);
        black_box(interpret(program, inputs).map_err(|e| format!("interpret: {e}"))?);
        tr.exit(span);

        // Sum the documented `Stats` fields by hand: the guard then also
        // shows that the mirrored loop computes what `pipeline::run` does.
        let mut total = Stats::default();
        for s in &per_region {
            total.cycles += s.cycles;
            total.flops += s.flops;
            total.dram_read_bytes += s.dram_read_bytes;
            total.dram_write_bytes += s.dram_write_bytes;
            for (label, n) in &s.node_tokens {
                *total.node_tokens.entry(label.clone()).or_insert(0) += n;
            }
            counts.events += s.sched.events;
            counts.cycles_skipped += s.sched.cycles_skipped;
            counts.peak_ready = counts.peak_ready.max(s.sched.peak_ready);
        }
        counts.graphs += per_region.len() as u64;
        counts.cycles += total.cycles;
        counts.flops += total.flops;
        counts.dram_read_bytes += total.dram_read_bytes;
        counts.dram_write_bytes += total.dram_write_bytes;
        counts.tokens += total.node_tokens.values().sum::<u64>();
        counts.out_elems += outputs.values().map(|t| t.nnz() as u64).sum::<u64>();
        counts.cycles_by_gran[point.gran as usize] += total.cycles;
        if let Some(f) = model.family {
            counts.cycles_by_family[f][point.gran as usize] += total.cycles;
        }
        rel_err(&mut counts.flops_rel_err, est.flops, total.flops);
        rel_err(
            &mut counts.bytes_rel_err,
            est.bytes,
            total.dram_read_bytes + total.dram_write_bytes,
        );
        ran = Some(Ran { outputs, stats: total, semantic: None });
    }
    Ok((phases, Observed::new(&compiled, est, ran)))
}

/// Seconds of `sim.simulate` spans per granularity, over `spans[from..]`.
pub fn simulate_s_by_gran(tr: &Tracer, from: usize, points: &[Point]) -> [f64; 3] {
    let mut out = [0.0; 3];
    for s in tr.spans_since(from).iter().filter(|s| s.name == "sim.simulate") {
        out[points[s.point as usize].gran as usize] += s.seconds();
    }
    out
}
