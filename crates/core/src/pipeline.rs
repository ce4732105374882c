//! The end-to-end compile-and-simulate driver.
//!
//! Partitions a program into fusion regions per the schedule, fuses each
//! region (Section 5), lowers it to a SAMML graph (Section 6), executes the
//! graphs in order on the Comal-style simulator — materializing
//! region-boundary intermediates through the DRAM model, which is exactly
//! the fusion/reuse tradeoff the paper evaluates — and optionally verifies
//! every program output against the structural reference interpreter.
//!
//! A region is fused, lowered and checked for errors once per program: the
//! schedules of a fusion-granularity search share most of their regions,
//! and [`compile_with`] keeps each one it compiles on the [`Program`]. Those
//! schedules are all checked on one input set, so [`verify`] keeps the
//! reference outputs of the last input set it interpreted there too, and
//! interprets again only when the inputs change.

use crate::fusion::{fuse_region, FuseError};
use crate::interp::{bind_inputs, interpret, prefix_support, InterpError, Structured};
use crate::ir::{IndexVar, Program};
use crate::lower::{lower_region, LowerError, LowerOptions, Lowered, Refused};
use crate::schedule::Schedule;
use fuseflow_sam::{MemLocation, SamGraph};
use fuseflow_sim::{simulate, SimConfig, SimError, Stats, TensorEnv};
use fuseflow_tensor::{approx_eq, DenseTensor, Level, SparseTensor};
use fuseflow_verify::{graph_errors, VerifyConfig};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Errors from compilation or execution.
#[derive(Debug)]
pub enum PipelineError {
    /// Lowering/fusion failure.
    Lower(LowerError),
    /// Simulation failure.
    Sim(SimError),
    /// An input is missing or bound at another shape or block than its
    /// declaration's (from [`run`] or [`verify`]).
    Interp(InterpError),
    /// Verification mismatch.
    Verify(String),
    /// Static analysis refused the compile (`fuseflow-verify` lints).
    Static {
        /// Fusion-region index whose lowered graph was rejected.
        region: usize,
        /// The error-severity diagnostics, one per line, rendered against
        /// the region graph.
        rendered: String,
    },
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::Lower(e) => write!(f, "lowering failed: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation failed: {e}"),
            PipelineError::Interp(e) => write!(f, "bad input binding: {e}"),
            PipelineError::Verify(m) => write!(f, "verification failed: {m}"),
            PipelineError::Static { region, rendered } => {
                write!(f, "static analysis rejected region {region}:\n{rendered}")
            }
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
    /// Lowered graphs, in region order.
    pub lowered: Vec<Lowered>,
}

impl Compiled {
    /// Total SAMML node count across regions.
    pub fn node_count(&self) -> usize {
        self.lowered.iter().map(|l| l.graph.node_count()).sum()
    }
}

/// Compiles `program` under `schedule` (Fig 6's flow: Einsum expressions →
/// cross-expression fusion → fusion-table lowering → SAMML graphs).
///
/// # Errors
///
/// Returns [`PipelineError::Lower`] when fusion or lowering fails.
pub fn compile(program: &Program, schedule: &Schedule) -> Result<Compiled, PipelineError> {
    compile_at(program, schedule, MemLocation::Dram)
}

/// [`compile`] with an explicit memory location for region inputs and
/// outputs ([`MemLocation::OnChip`] keeps them out of the DRAM model).
pub fn compile_at(
    program: &Program,
    schedule: &Schedule,
    location: MemLocation,
) -> Result<Compiled, PipelineError> {
    compile_with(program, schedule, location, &VerifyConfig::default())
}

/// [`compile_at`] with an explicit static-analysis switch: unless
/// `verify_cfg` is disabled, a lowered region graph that draws an
/// error-severity diagnostic of [`graph_errors`] (SA010, SA011, SA017)
/// refuses the compile. No warning pass runs, and no analyzer option
/// is read.
///
/// Each region is lowered and checked once per program, whatever schedules
/// it appears in: a region is fused, lowered and checked on the first
/// compile that names it with this location and these parallel directives,
/// and every later compile of the unchanged `program` reuses both (editing
/// the program drops them). A parallel directive whose row cannot be split
/// there is recorded in that region's [`Lowered::refused`].
///
/// # Errors
///
/// Returns [`PipelineError::Lower`] when a region is empty, out of order or
/// past the program's expressions, or when fusion or lowering fails, and
/// otherwise [`PipelineError::Static`] naming the first region an error
/// lint refuses.
pub fn compile_with(
    program: &Program,
    schedule: &Schedule,
    location: MemLocation,
    verify_cfg: &VerifyConfig,
) -> Result<Compiled, PipelineError> {
    let regions = checked_regions(program, schedule).map_err(LowerError::from)?;
    let memo = &program.memo;
    let mut lowered = Vec::with_capacity(regions.len());
    let mut refused = None;
    for (region, r) in regions.iter().enumerate() {
        let key = (r.clone(), location, schedule.parallelize.clone());
        let hit = memo.regions.lock().expect(POISONED).get(&key).cloned();
        let (low, rendered) = match hit {
            Some(hit) => hit,
            None => {
                // The lock is not held while compiling, so two threads that
                // miss on one region both compute it, to equal values.
                memo.lowerings.fetch_add(1, Ordering::Relaxed);
                let low = lower_fresh(program, schedule, r, location)?;
                let rendered = refusal(&low.graph);
                let fresh = (low, rendered);
                memo.regions.lock().expect(POISONED).insert(key, fresh.clone());
                fresh
            }
        };
        if verify_cfg.enabled && !rendered.is_empty() && refused.is_none() {
            refused = Some(PipelineError::Static { region, rendered });
        }
        lowered.push(low);
    }
    match refused {
        Some(e) => Err(e),
        None => Ok(Compiled { lowered }),
    }
}

/// The error-severity diagnostics of `graph`, one per line, rendered against
/// it: empty when nothing refuses it.
fn refusal(graph: &SamGraph) -> String {
    graph_errors(graph).iter().map(|d| d.render(graph) + "\n").collect()
}

/// The schedule's regions of `program`, refusing the first one that is
/// empty, starts before the previous one ends, or runs past the program's
/// expressions.
fn checked_regions(program: &Program, schedule: &Schedule) -> Result<Vec<Range<usize>>, FuseError> {
    let exprs = program.exprs().len();
    let regions = schedule.resolve_regions(exprs);
    let mut next = 0;
    for r in &regions {
        if r.start < next || r.start >= r.end || r.end > exprs {
            return Err(FuseError::RegionOutOfRange { range: r.clone(), exprs });
        }
        next = r.end;
    }
    Ok(regions)
}

/// Fuses and lowers region `r` of `program`, resolving the schedule's
/// parallel directives onto its global index space. A directive on a row the
/// region does not iterate, or on a variable the program never declared, is
/// refused after those the lowering decides.
fn lower_fresh(
    program: &Program,
    schedule: &Schedule,
    r: &Range<usize>,
    location: MemLocation,
) -> Result<Lowered, LowerError> {
    let region = fuse_region(program, r.clone())?;
    let (mut parallelize, mut absent) = (Vec::new(), Vec::new());
    for &(var, factor) in &schedule.parallelize {
        match region.global_for_program_var(var) {
            Some(g) => parallelize.push((g, factor)),
            None if factor != 1 => {
                let (row, reason) = match program.declared_index_name(var) {
                    Some(name) => (name.to_string(), "row is not iterated in this region"),
                    None => (format!("{var:?}"), "not an index variable of this program"),
                };
                absent.push(Refused { row, factor, reason: reason.into() });
            }
            None => {}
        }
    }
    let opts = LowerOptions { parallelize, location };
    let mut lowered = lower_region(program, &region, &program.live_outs(r), &opts)?;
    lowered.refused.extend(absent);
    Ok(lowered)
}

/// Everything a region's lowering reads besides the program: its
/// expressions, where its tensors live and the schedule's parallel
/// directives (resolved per region by [`lower_fresh`]).
type RegionKey = (Range<usize>, MemLocation, Vec<(IndexVar, usize)>);

/// What this module has computed for one [`Program`] as it is now, held by
/// the program and emptied by every edit of it: each region [`compile_with`]
/// has lowered, with its rendered refusal (empty for a region no error lint
/// flags), and the reference [`verify`] last compared against. Only
/// successful lowerings and interpretations are kept, so a failing region or
/// input set fails again the same way. Per (location, directives) there are
/// at most n(n+1)/2 regions for n expressions, and there is one reference.
#[derive(Default)]
pub(crate) struct ProgramMemo {
    regions: Mutex<HashMap<RegionKey, (Lowered, String)>>,
    reference: Mutex<Option<Arc<Reference>>>,
    /// Regions fused and lowered (misses), read by tests.
    pub(crate) lowerings: AtomicUsize,
    /// Calls of [`interpret`] by [`verify`] (misses), read by tests.
    pub(crate) interpretations: AtomicUsize,
}

/// A copy of a program starts with nothing compiled or interpreted.
impl Clone for ProgramMemo {
    fn clone(&self) -> Self {
        ProgramMemo::default()
    }
}

const POISONED: &str = "program memo poisoned by a panic while its lock was held";

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
/// Returns [`PipelineError::Interp`] when an input is missing or bound at
/// another shape or block than its declaration's (the binding check
/// [`interpret`] makes), and otherwise see [`PipelineError`].
pub fn run(
    program: &Program,
    compiled: &Compiled,
    inputs: &HashMap<String, SparseTensor>,
    sim: &SimConfig,
) -> Result<RunResult, PipelineError> {
    let mut env = TensorEnv::new();
    for (id, t) in bind_inputs(program, inputs)? {
        env.insert(program.tensor(id).name.clone(), t.clone());
    }
    let mut total = Stats::default();
    let mut per_region = Vec::new();
    for low in &compiled.lowered {
        for p in &low.permuted_inputs {
            let base = env
                .get(&p.base)
                .ok_or_else(|| PipelineError::Interp(InterpError::MissingInput(p.base.clone())))?;
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

/// How far, relative to the reference output's largest magnitude, [`verify`]
/// lets an element move.
const NORM_EPS: f32 = 1e-5;

/// The reference outputs of a program on one input set: what [`verify`]
/// compares against, kept in the program's memo until its inputs change.
struct Reference {
    /// The bound inputs, in [`Program::inputs`] order.
    inputs: Vec<SparseTensor>,
    /// Per program output the reference has, its values and structure and
    /// the [`NORM_EPS`] floor (`NORM_EPS` times their largest magnitude).
    outputs: HashMap<String, (Structured, f32)>,
}

/// The reference of `program` on `inputs`: the memo's when it was made from
/// inputs `==` to these (no hash, so a collision cannot skip a check), else
/// [`interpret`]ed (outside the lock) and kept in place of the memo's.
fn reference(
    program: &Program,
    inputs: &HashMap<String, SparseTensor>,
) -> Result<Arc<Reference>, InterpError> {
    let bound: Vec<&SparseTensor> =
        bind_inputs(program, inputs)?.into_iter().map(|(_, t)| t).collect();
    let memo = &program.memo;
    let held = memo.reference.lock().expect(POISONED).clone();
    if let Some(hit) = held.filter(|r| r.inputs.iter().eq(bound.iter().copied())) {
        return Ok(hit);
    }
    memo.interpretations.fetch_add(1, Ordering::Relaxed);
    let mut golden = interpret(program, inputs)?;
    let mut outputs = HashMap::new();
    for &out in program.outputs() {
        let name = &program.tensor(out).name;
        if let Some(s) = golden.remove(name) {
            let floor = NORM_EPS * s.vals.data().iter().fold(0.0, |m: f32, v| m.max(v.abs()));
            outputs.insert(name.clone(), (s, floor));
        }
    }
    let fresh = Arc::new(Reference { inputs: bound.into_iter().cloned().collect(), outputs });
    *memo.reference.lock().expect(POISONED) = Some(Arc::clone(&fresh));
    Ok(fresh)
}

/// Verifies simulated outputs against the reference interpreter.
///
/// An element matches when it is within [`fuseflow_tensor::approx_eq`] of
/// the reference, or within 1e-5 of the reference output's largest
/// magnitude. The second bound admits reassociated sums: a tile matmul adds
/// its reduction tile by tile, and where large terms cancel, the rounding
/// that moves a small element is relative to those terms, not to the element.
/// Values alone would accept an explicit zero where the reference has no
/// entry, so the stored coordinates are compared too: at every compressed
/// level of the output, tile by tile for a blocked one, exactly the
/// coordinates the reference's structure has (a dense level stores all).
///
/// The reference is interpreted once per program and input set: the
/// program keeps the outputs of the last input set it was verified on,
/// keyed by those inputs (compared in full, not by hash), and a call on
/// equal inputs compares against them. Every output is compared on every
/// call. An edit of the program drops the reference, and a clone starts
/// without one.
///
/// # Errors
///
/// Returns [`PipelineError::Interp`] when an input is missing or bound at
/// another shape than its declaration's ([`interpret`]'s errors), and
/// [`PipelineError::Verify`] describing the first program output, in
/// [`Program::outputs`] order, that is missing, has another shape than the
/// reference's, diverges, or stores other coordinates (naming the first
/// extra or missing one).
pub fn verify(
    program: &Program,
    inputs: &HashMap<String, SparseTensor>,
    outputs: &HashMap<String, SparseTensor>,
) -> Result<(), PipelineError> {
    let reference = reference(program, inputs)?;
    for &out in program.outputs() {
        let name = &program.tensor(out).name;
        let Some(t) = outputs.get(name) else {
            return Err(PipelineError::Verify(format!("output '{name}' never produced")));
        };
        let Some((want, floor)) = reference.outputs.get(name) else {
            return Err(PipelineError::Verify(format!("reference never produced '{name}'")));
        };
        let got = t.to_dense();
        if got.shape() != want.vals.shape() {
            return Err(PipelineError::Verify(format!(
                "output '{name}' has shape {:?}, the reference {:?}",
                got.shape(),
                want.vals.shape()
            )));
        }
        let close = |(a, b): (&f32, &f32)| approx_eq(*a, *b) || (a - b).abs() <= *floor;
        if !got.data().iter().zip(want.vals.data()).all(close) {
            return Err(PipelineError::Verify(format!(
                "output '{name}' diverges from reference (max abs diff {})",
                got.max_abs_diff(&want.vals)
            )));
        }
        if let Some(why) = structure_mismatch(t, &want.mask) {
            return Err(PipelineError::Verify(format!("output '{name}' {why}")));
        }
    }
    Ok(())
}

/// How `got`'s stored coordinates first differ from the reference structure
/// `mask` (of the same element-space shape), if they do: at each compressed
/// level, outermost first, a coordinate prefix is stored exactly when the
/// reference has an element under it. A dense level stores every
/// coordinate, so it is not compared. A blocked output is compared tile by
/// tile on its block grid, a tile being present when any of its elements
/// is.
fn structure_mismatch(got: &SparseTensor, mask: &DenseTensor) -> Option<String> {
    let grid: Vec<usize> = (got.levels().iter())
        .map(|l| match l {
            Level::Dense { size } | Level::Compressed { size, .. } => *size,
        })
        .collect();
    let tiles;
    let mask = if got.is_blocked() {
        let [b0, b1] = got.block();
        let present = |r: usize, c: usize| mask.get(&[r, c]) != 0.0;
        tiles = DenseTensor::from_fn(grid.clone(), |t| {
            let (rows, cols) = (t[0] * b0..(t[0] + 1) * b0, t[1] * b1..(t[1] + 1) * b1);
            let any = rows.into_iter().any(|r| cols.clone().any(|c| present(r, c)));
            f32::from(u8::from(any))
        });
        &tiles
    } else {
        mask
    };
    // `(position, row-major prefix index)` of every stored coordinate of the
    // level walked so far, in storage order (ascending prefix index).
    let mut stored = vec![(0, 0)];
    for (l, level) in got.levels().iter().enumerate() {
        stored = (stored.iter())
            .flat_map(|&(pos, flat)| level.fiber(pos).map(move |(c, child)| (child, flat, c)))
            .map(|(child, flat, c)| (child, flat * grid[l] + c as usize))
            .collect();
        if matches!(level, Level::Dense { .. }) {
            continue;
        }
        let want = prefix_support(mask, l);
        let mut held = stored.iter().map(|&(_, flat)| flat).peekable();
        let first = (0..want.len())
            .find(|&flat| held.next_if_eq(&flat).is_some() != want[flat])
            .map(|flat| (flat, want[flat]))
            .or_else(|| held.next().map(|repeated| (repeated, false)));
        let Some((flat, lacking)) = first else { continue };
        let mut coord = vec![0; l + 1];
        let mut rest = flat;
        for (d, x) in coord.iter_mut().enumerate().rev() {
            (*x, rest) = (rest % grid[d], rest / grid[d]);
        }
        let what = if got.is_blocked() { "tile" } else { "coordinate" };
        return Some(if lacking {
            format!("lacks {what} {coord:?} at level {l}, which the reference stores")
        } else {
            format!("stores {what} {coord:?} at level {l}, where the reference has none")
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::AluOp;
    use fuseflow_tensor::{gen, Format};

    /// The SAE's six expressions as `fuseflow-models` builds them (SpMM,
    /// bias, ReLU, SpMM, bias, sigmoid); that crate's `Program` is not this
    /// test build's.
    fn sae_shaped() -> Program {
        let mut p = Program::new();
        let (h, k, b, o, h2) =
            (p.index("h"), p.index("k"), p.index("b"), p.index("o"), p.index("h2"));
        let w1 = p.input("W1", vec![12, 24], Format::csr());
        let x = p.input("Xin", vec![24, 4], Format::dense(2));
        let b1 = p.input("b1", vec![12], Format::dense_vec());
        let w2 = p.input("W2", vec![24, 12], Format::csr());
        let b2 = p.input("b2", vec![24], Format::dense_vec());
        let z1 = p.contract(
            "Z1",
            vec![h, b],
            vec![(w1, vec![h, k]), (x, vec![k, b])],
            vec![k],
            Format::csr(),
        );
        let z1b =
            p.binary("Z1b", AluOp::Add, (z1, vec![h, b]), (b1, vec![h]), vec![h, b], Format::csr());
        let hid = p.map("H", AluOp::Relu, (z1b, vec![h, b]), Format::csr());
        let z2 = p.contract(
            "Z2",
            vec![o, b],
            vec![(w2, vec![o, h2]), (hid, vec![h2, b])],
            vec![h2],
            Format::csr(),
        );
        let z2b =
            p.binary("Z2b", AluOp::Add, (z2, vec![o, b]), (b2, vec![o]), vec![o, b], Format::csr());
        let out = p.map("Out", AluOp::Sigmoid, (z2b, vec![o, b]), Format::csr());
        p.mark_output(out);
        p
    }

    /// The 32 partitions of six expressions name 21 distinct regions, and
    /// compiling every partition twice lowers each region once.
    #[test]
    fn each_region_is_lowered_once_per_program() {
        let p = sae_shaped();
        let partition = |cuts: u32| {
            let ends = (1..6).filter(|e| cuts & (1 << (e - 1)) != 0).chain([6]);
            let starts = [0].into_iter().chain(ends.clone());
            Schedule::regions(starts.zip(ends).map(|(s, e)| s..e).collect())
        };
        for _ in 0..2 {
            for cuts in 0..32 {
                compile(&p, &partition(cuts)).unwrap();
            }
        }
        assert_eq!(p.memo.lowerings.load(Ordering::Relaxed), 21);
    }

    /// Inputs for [`sae_shaped`], with `shift` added to `b2[0]`.
    fn sae_inputs(shift: f32) -> HashMap<String, SparseTensor> {
        let vector = |n: usize, seed: u64, shift: f32| {
            let mut v = gen::dense_features(1, n, seed).data().to_vec();
            v[0] += shift;
            SparseTensor::from_dense(&DenseTensor::from_vec(vec![n], v), &Format::dense_vec())
        };
        let x = gen::dense_features(24, 4, 2);
        [
            ("W1", gen::sparse_features(12, 24, 0.5, 1, &Format::csr())),
            ("Xin", SparseTensor::from_dense(&x, &Format::dense(2))),
            ("b1", vector(12, 3, 0.0)),
            ("W2", gen::sparse_features(24, 12, 0.9, 4, &Format::csr())),
            ("b2", vector(24, 5, shift)),
        ]
        .into_iter()
        .map(|(name, t)| (name.to_string(), t))
        .collect()
    }

    /// The program's outputs under `schedule`, simulated.
    fn outputs_of(
        p: &Program,
        schedule: &Schedule,
        inputs: &HashMap<String, SparseTensor>,
    ) -> HashMap<String, SparseTensor> {
        run(p, &compile(p, schedule).unwrap(), inputs, &SimConfig::default()).unwrap().outputs
    }

    fn interpretations(p: &Program) -> usize {
        p.memo.interpretations.load(Ordering::Relaxed)
    }

    /// The reference is interpreted once per program and input set: three
    /// granularities share one interpretation, new inputs or an edit of the
    /// program take a fresh one, and every output is compared on every call.
    #[test]
    fn verify_interprets_once_per_program_and_input_set() {
        let mut p = sae_shaped();
        let inputs = sae_inputs(0.0);
        let schedules =
            [Schedule::unfused(), Schedule::regions(vec![0..3, 3..6]), Schedule::full()];
        for schedule in &schedules {
            verify(&p, &inputs, &outputs_of(&p, schedule, &inputs)).unwrap();
        }
        assert_eq!(interpretations(&p), 1);

        let old = outputs_of(&p, &Schedule::unfused(), &inputs);
        let shifted = sae_inputs(0.5);
        let err = verify(&p, &shifted, &old).unwrap_err().to_string();
        assert!(err.contains("output 'Out' diverges"), "{err}");
        let current = outputs_of(&p, &Schedule::unfused(), &shifted);
        verify(&p, &shifted, &current).unwrap();
        assert_eq!(interpretations(&p), 2);

        let hidden = p.exprs()[2].output.tensor;
        p.mark_output(hidden);
        let err = verify(&p, &shifted, &current).unwrap_err().to_string();
        assert!(err.contains("output 'H' never produced"), "{err}");
        // Full fusion refuses `H` as a region output under a recomputation scope.
        for schedule in &schedules[..2] {
            verify(&p, &shifted, &outputs_of(&p, schedule, &shifted)).unwrap();
        }
        // The edit emptied the memo, its counters with it: the third
        // interpretation is the first since.
        assert_eq!(interpretations(&p), 1);
    }

    /// A hit compares as a miss does: a moved element is caught against the
    /// kept reference.
    #[test]
    fn a_corrupted_output_is_caught_on_a_hit() {
        let p = sae_shaped();
        let inputs = sae_inputs(0.0);
        let mut outputs = outputs_of(&p, &Schedule::unfused(), &inputs);
        verify(&p, &inputs, &outputs).unwrap();
        let out = outputs["Out"].to_dense();
        let mut data = out.data().to_vec();
        data[5] += 0.25;
        let corrupted = DenseTensor::from_vec(out.shape().to_vec(), data);
        outputs.insert("Out".into(), SparseTensor::from_dense(&corrupted, &Format::csr()));
        let err = verify(&p, &inputs, &outputs).unwrap_err().to_string();
        assert!(err.contains("output 'Out' diverges"), "{err}");
        assert_eq!(interpretations(&p), 1);
    }

    /// An output of another shape than the reference's is a `Verify` error
    /// naming both shapes, not a panic in the element comparison.
    #[test]
    fn a_wrong_shaped_output_is_a_verify_error() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 4], Format::dense(2));
        let e = p.map("E", AluOp::Relu, (a, vec![i, j]), Format::dense(2));
        p.mark_output(e);
        let dense = |shape: Vec<usize>| {
            let data = (1..=8).map(|v| v as f32).collect();
            SparseTensor::from_dense(&DenseTensor::from_vec(shape, data), &Format::dense(2))
        };
        let inputs = HashMap::from([("A".to_string(), dense(vec![2, 4]))]);
        let outputs = HashMap::from([("E".to_string(), dense(vec![4, 2]))]);
        let err = verify(&p, &inputs, &outputs).unwrap_err();
        assert!(matches!(err, PipelineError::Verify(_)), "{err:?}");
        assert_eq!(
            err.to_string(),
            "verification failed: output 'E' has shape [4, 2], the reference [2, 4]"
        );
    }

    /// An output with every value right but one coordinate too many or too
    /// few is refused, naming that coordinate; a dense output is not held to
    /// the reference's structure, because a dense level stores every
    /// coordinate.
    #[test]
    fn verify_names_the_first_extra_or_missing_coordinate() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.input("A", vec![2, 3], Format::csr());
        let e = p.map("E", AluOp::Relu, (a, vec![i, j]), Format::csr());
        let d = p.map("D", AluOp::Relu, (a, vec![i, j]), Format::dense(2));
        p.mark_output(e);
        p.mark_output(d);
        let csr = |entries: &[([u32; 2], f32)]| {
            let coo = entries.iter().map(|(c, v)| (c.to_vec(), *v)).collect();
            SparseTensor::from_coo(vec![2, 3], coo, &Format::csr()).unwrap()
        };
        let a_in = csr(&[([0, 0], 1.0), ([0, 2], -2.0)]);
        let inputs = HashMap::from([("A".to_string(), a_in)]);
        let dense = SparseTensor::from_dense(
            &DenseTensor::from_vec(vec![2, 3], vec![1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
            &Format::dense(2),
        );
        let check = |e: SparseTensor| {
            let outputs = HashMap::from([("E".to_string(), e), ("D".to_string(), dense.clone())]);
            verify(&p, &inputs, &outputs).map_err(|e| e.to_string())
        };
        // `relu(-2)` is an explicit zero the reference stores.
        check(csr(&[([0, 0], 1.0), ([0, 2], 0.0)])).unwrap();
        assert_eq!(
            check(csr(&[([0, 0], 1.0), ([0, 2], 0.0), ([1, 1], 0.0)])).unwrap_err(),
            "verification failed: output 'E' stores coordinate [1, 1] at level 1, \
             where the reference has none"
        );
        assert_eq!(
            check(csr(&[([0, 0], 1.0)])).unwrap_err(),
            "verification failed: output 'E' lacks coordinate [0, 2] at level 1, \
             which the reference stores"
        );
    }

    /// A blocked output is compared on its block grid: a stored all-zero
    /// tile where the reference has no element is an extra tile.
    #[test]
    fn verify_compares_a_blocked_output_tile_by_tile() {
        let mut p = Program::new();
        let (i, j) = (p.index("i"), p.index("j"));
        let a = p.blocked_input("A", vec![4, 4], Format::csr(), [2, 2]);
        let r = p.map("R", AluOp::Relu, (a, vec![i, j]), Format::csr());
        p.mark_output(r);
        let blocks = |tiles: Vec<(Vec<u32>, Vec<f32>)>| {
            SparseTensor::from_blocks(vec![4, 4], [2, 2], tiles, &Format::csr()).unwrap()
        };
        let tile = vec![1.0, -2.0, 0.0, 3.0];
        let inputs = HashMap::from([("A".to_string(), blocks(vec![(vec![0, 1], tile)]))]);
        let relu = vec![1.0, 0.0, 0.0, 3.0];
        let check = |tiles| {
            let outputs = HashMap::from([("R".to_string(), blocks(tiles))]);
            verify(&p, &inputs, &outputs).map_err(|e| e.to_string())
        };
        check(vec![(vec![0, 1], relu.clone())]).unwrap();
        assert_eq!(
            check(vec![(vec![0, 1], relu), (vec![1, 0], vec![0.0; 4])]).unwrap_err(),
            "verification failed: output 'R' stores tile [1, 0] at level 1, \
             where the reference has none"
        );
    }

    /// Two threads verifying one program on two input sets keep replacing
    /// each other's reference; each is still held to its own inputs.
    #[test]
    fn two_threads_verify_one_program_against_their_own_inputs() {
        let p = sae_shaped();
        let sets = [sae_inputs(0.0), sae_inputs(0.5)];
        let outs =
            sets.each_ref().map(|inputs| outputs_of(&p.clone(), &Schedule::unfused(), inputs));
        let start = std::sync::Barrier::new(2);
        let check = |own: usize| {
            start.wait();
            for _ in 0..20 {
                verify(&p, &sets[own], &outs[own]).unwrap();
                assert!(verify(&p, &sets[own], &outs[1 - own]).is_err());
            }
        };
        std::thread::scope(|s| {
            let (a, b) = (s.spawn(|| check(0)), s.spawn(|| check(1)));
            a.join().unwrap();
            b.join().unwrap();
        });
    }

    /// Unfused, the second layer's regions iterate `o` and `h2`, not `h`: a
    /// directive on `h` is refused there by name, not dropped.
    #[test]
    fn a_directive_on_a_row_a_region_does_not_iterate_is_refused() {
        let p = sae_shaped();
        let h = p.exprs()[0].output.indices[0];
        let compiled = compile(&p, &Schedule::unfused().with_parallelization(h, 2)).unwrap();
        let reason = "row is not iterated in this region".to_string();
        let absent = Refused { row: "h".into(), factor: 2, reason };
        for (i, low) in compiled.lowered.iter().enumerate() {
            assert_eq!(low.refused.contains(&absent), i >= 3, "region {i}: {:?}", low.refused);
        }
    }

    /// A compile refuses a region for its error-severity diagnostics and
    /// names only those: a region whose graph has one SA010 and one SA015 (a
    /// warning) is refused for the SA010 alone, the first such region is the
    /// one named, a disabled config refuses nothing, and the region passes
    /// once the SA010 is fixed. The graphs are planted in the memo, where a
    /// compile finds a region's graph and refusal.
    #[test]
    fn a_region_is_refused_for_its_errors_and_names_no_warning() {
        use fuseflow_sam::NodeKind;
        use fuseflow_verify::{verify_graph, Code, VerifyOptions};
        let graph = |crd_into_ref: bool| {
            let mut g = SamGraph::new();
            let b = g.add_tensor("B", MemLocation::OnChip);
            g.add_tensor("C", MemLocation::OnChip); // unused: SA015
            let o = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::OnChip);
            let root = g.add_node(NodeKind::Root);
            let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
            let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
            let arr = g.add_node(NodeKind::Array { tensor: b });
            let vw = g.add_node(NodeKind::ValWriter { output: o });
            g.connect(root, 0, ls, 0);
            g.connect(ls, 0, cw, 0);
            g.connect(ls, if crd_into_ref { 0 } else { 1 }, arr, 0); // crd into ref: SA010
            g.connect(arr, 0, vw, 0);
            g
        };
        let codes = |g: &SamGraph| -> Vec<Code> {
            verify_graph(g, &VerifyOptions::default()).diags.iter().map(|d| d.code).collect()
        };
        let (bad, good) = (graph(true), graph(false));
        assert_eq!(codes(&bad), [Code::SA010, Code::SA015]);
        assert_eq!(codes(&good), [Code::SA015]);

        let p = sae_shaped();
        let unfused = Schedule::unfused();
        compile(&p, &unfused).unwrap();
        let plant = |region: usize, g: &SamGraph| {
            let mut regions = p.memo.regions.lock().unwrap();
            let (low, rendered) =
                regions.get_mut(&(region..region + 1, MemLocation::Dram, vec![])).unwrap();
            (low.graph, *rendered) = (g.clone(), refusal(g));
        };
        plant(3, &bad);
        plant(4, &bad);
        match compile(&p, &unfused) {
            Err(PipelineError::Static { region: 3, rendered }) => {
                assert!(rendered.contains("error[SA010]"), "{rendered}");
                assert!(!rendered.contains("SA015"), "{rendered}");
            }
            res => panic!("not refused at region 3: {res:?}"),
        }
        compile_with(&p, &unfused, MemLocation::Dram, &VerifyConfig::disabled()).unwrap();
        plant(3, &good);
        assert!(matches!(compile(&p, &unfused), Err(PipelineError::Static { region: 4, .. })));
        plant(4, &good);
        compile(&p, &unfused).unwrap();
        assert_eq!(p.memo.lowerings.load(Ordering::Relaxed), 6);
    }

    /// A region graph whose output has two value writers, two coordinate
    /// writers on one level, or a level with none, is refused as
    /// `PipelineError::Static`: one SA017 at the output slot.
    #[test]
    fn a_region_without_one_writer_per_output_stream_is_refused() {
        use fuseflow_sam::{NodeId, NodeKind};
        type Break = fn(&mut SamGraph, NodeId, NodeId);
        let shapes: [(&str, Break); 3] = [
            ("two value writers on one output", |g, _, arr| {
                let vw = g.add_node(NodeKind::ValWriter { output: 0 });
                g.connect(arr, 0, vw, 0);
            }),
            ("two coordinate writers on one level", |g, ls, _| {
                let cw = g.add_node(NodeKind::CrdWriter { output: 0, level: 0 });
                g.connect(ls, 0, cw, 0);
            }),
            ("an output level with no coordinate writer", |g, _, arr| {
                let u = g.add_output("U", vec![4], Format::sparse_vec(), MemLocation::OnChip);
                let vw = g.add_node(NodeKind::ValWriter { output: u });
                g.connect(arr, 0, vw, 0);
            }),
        ];
        let p = sae_shaped();
        let unfused = Schedule::unfused();
        compile(&p, &unfused).unwrap();
        for (what, break_it) in shapes {
            // root -> scan B -> (crd writer, array -> val writer), then broken.
            let mut g = SamGraph::new();
            let b = g.add_tensor("B", MemLocation::OnChip);
            let o = g.add_output("T", vec![4], Format::sparse_vec(), MemLocation::OnChip);
            let root = g.add_node(NodeKind::Root);
            let ls = g.add_node(NodeKind::LevelScanner { tensor: b, level: 0 });
            let cw = g.add_node(NodeKind::CrdWriter { output: o, level: 0 });
            let arr = g.add_node(NodeKind::Array { tensor: b });
            let vw = g.add_node(NodeKind::ValWriter { output: o });
            g.connect(root, 0, ls, 0);
            g.connect(ls, 0, cw, 0);
            g.connect(ls, 1, arr, 0);
            g.connect(arr, 0, vw, 0);
            break_it(&mut g, ls, arr);
            {
                let mut regions = p.memo.regions.lock().unwrap();
                let (low, rendered) = regions.get_mut(&(3..4, MemLocation::Dram, vec![])).unwrap();
                (low.graph, *rendered) = (g.clone(), refusal(&g));
            }
            match compile_with(&p, &unfused, MemLocation::Dram, &VerifyConfig::default()) {
                Err(PipelineError::Static { region: 3, rendered }) => {
                    assert_eq!(rendered.lines().count(), 1, "{what}: {rendered}");
                    assert!(rendered.starts_with("error[SA017]"), "{what}: {rendered}");
                    assert!(rendered.contains("(at output '"), "{what}: {rendered}");
                }
                res => panic!("{what}: not refused at region 3: {res:?}"),
            }
        }
    }
}
