//! Regenerates every table and figure of the FuseFlow evaluation
//! (Section 8). Run `experiments all` or a specific id (`fig12`,
//! `table4`, ...); an unknown id is refused before anything runs (exit 2,
//! listing the valid ones). Every figure has one size, and a figure function
//! only builds its models, runs them and returns its [`Table`]s: `main`
//! prints each as aligned text, writes it as `results/<name>.csv`, checks
//! its shape gate ([`shape_gate`], exit 1) and collects its rows' cycles.
//! Every point compiles, runs and is checked against the reference
//! interpreter through one helper, [`run_point`]: a failed run or a wrong
//! output panics naming the point.
//!
//! `all` also writes every simulated cycle count as one flat, key-sorted
//! `{"figure/label": cycles}` map ([`snapshot_json`]) to `BENCH_sim.json`.
//! The file holds nothing host-dependent, so regenerating it is a no-op
//! unless a cycle moved, and CI gates it with `git diff --exit-code`; a write
//! that fails panics with the path. Seconds are measured by `benchmark/`
//! only, and Event ≡ Sweep is held by `crates/sim/tests/determinism.rs`, not
//! here.
//!
//! Independent simulation points within each sweep run on the shared
//! [`parallel_map`] worker pool, one worker per core the platform reports;
//! results are collected in point order, so the printed tables, CSVs and
//! snapshots do not depend on the core count.

use fuseflow_bench::{parallel_map, snapshot_json, Row, Table};
use fuseflow_core::estimate;
use fuseflow_core::fuse_region;
use fuseflow_core::ir::Program;
use fuseflow_core::pipeline::{compile_at, run, verify, Compiled, PipelineError};
use fuseflow_core::schedule::Schedule;
use fuseflow_models::{
    gcn, gcn_composed, gpt_attention, gpt_attention_blocked, gpt_decoder, graphsage, sae, Fusion,
    GraphDataset, ModelInstance, GRAPH_DATASETS, SAE_DATASETS,
};
use fuseflow_sam::MemLocation;
use fuseflow_sim::{SimConfig, Stats};
use fuseflow_tensor::gen::GraphPattern;
use fuseflow_tensor::SparseTensor;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt::Display;
use std::time::Instant;

/// Worker threads of the sweep pool: one per core the platform reports.
fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Writes an output file, creating its directory. CI gates the tracked ones
/// with `git diff`, which a write that failed quietly would pass, so any
/// failure panics with the path.
fn write_file(path: &str, content: &str) {
    let dir = std::path::Path::new(path).parent().expect("output paths are relative files");
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(path, content))
        .unwrap_or_else(|e| panic!("write {path}: {e}"));
}

/// Compiles `program` under `schedule` with its tensors at `location`, runs
/// it on `inputs` and checks the outputs against the reference interpreter
/// (which runs once per input set: `verify` keeps its outputs on the
/// program). Returns the run's stats and the [`refusals`] of its compile, or
/// the compile error, which a caller may record as a refused point.
///
/// # Panics
///
/// When the run fails or an output is wrong, naming the point `at`.
fn run_point(
    at: &str,
    program: &Program,
    inputs: &HashMap<String, SparseTensor>,
    schedule: &Schedule,
    location: MemLocation,
) -> Result<(Stats, String), PipelineError> {
    let compiled = compile_at(program, schedule, location)?;
    let ran = run(program, &compiled, inputs, &SimConfig::default())
        .and_then(|result| verify(program, inputs, &result.outputs).map(|()| result.stats));
    let stats = ran.unwrap_or_else(|e| panic!("{at}: {e}"));
    Ok((stats, refusals(&compiled)))
}

/// Every parallel directive `compiled` refused, as `r<region> row×factor:
/// reason`, `; `-separated (a table's `refused` cell).
fn refusals(compiled: &Compiled) -> String {
    let per_region = compiled.lowered.iter().enumerate();
    let refused = per_region.flat_map(|(i, l)| {
        l.refused.iter().map(move |r| format!("r{i} {}×{}: {}", r.row, r.factor, r.reason))
    });
    refused.collect::<Vec<_>>().join("; ")
}

/// `m` at each fusion granularity with its tensors in DRAM, unfused (the
/// baseline of every ratio) first.
fn fusion_sweep(m: &ModelInstance) -> [(Fusion, Stats); 3] {
    Fusion::ALL.map(|f| {
        let ran = run_point(&m.name, &m.program, &m.inputs, &m.schedule(f), MemLocation::Dram);
        (f, ran.unwrap_or_else(|e| panic!("{}: {e}", m.name)).0)
    })
}

/// The columns [`fusion_rows`] fills after a figure's own leading ones.
/// `speedup` is unfused ÷ this row in cycles; `flops_rel` and `bytes_rel`
/// are this row ÷ unfused.
macro_rules! fusion_columns {
    ($($lead:literal),*) => {
        &[$($lead,)* "fusion", "cycles", "speedup", "flops", "dram_bytes", "flops_rel",
          "bytes_rel", "op_intensity"]
    };
}

/// Appends one row per granularity of `sweep`, labelled `lead/../fusion`.
fn fusion_rows(t: &mut Table, lead: &[&dyn Display], sweep: &[(Fusion, Stats); 3]) {
    let base = &sweep[0].1;
    let label: String = lead.iter().map(|l| format!("{l}/")).collect();
    for (f, s) in sweep {
        let own: [&dyn Display; 7] = [
            f,
            &ratio(base.cycles, s.cycles),
            &s.flops,
            &s.dram_bytes(),
            &ratio(s.flops, base.flops),
            &ratio(s.dram_bytes(), base.dram_bytes()),
            &format!("{:.3}", s.operational_intensity()),
        ];
        t.point(format!("{label}{f}"), Some(s.cycles), &[lead, &own].concat());
    }
}

/// `a / b` as a table cell.
fn ratio(a: u64, b: u64) -> String {
    format!("{:.3}", a as f64 / b as f64)
}

/// `ds` with its nodes and features divided by `div`.
fn shrunk(ds: &GraphDataset, div: usize) -> GraphDataset {
    GraphDataset { nodes: ds.nodes / div, feats: ds.feats / div, ..*ds }
}

/// The ogbl-collab stand-in of Fig 4b, Table 3 and the autotune table.
fn collab() -> GraphDataset {
    GraphDataset {
        name: "collab",
        nodes: 96,
        feats: 24,
        density: 0.03,
        pattern: GraphPattern::PowerLaw,
    }
}

/// What is broken of "the rows labelled `labels` all ran, each in strictly
/// more cycles than the one before it".
fn ascending(t: &Table, labels: &[impl AsRef<str>]) -> Vec<String> {
    let mut broken = Vec::new();
    for pair in labels.windows(2) {
        let (below, above) = (pair[0].as_ref(), pair[1].as_ref());
        match (t.cycles(below), t.cycles(above)) {
            (Some(lo), Some(hi)) if lo < hi => {}
            (lo, hi) => {
                broken.push(format!("{below} at {lo:?} cycles is not below {above} at {hi:?}"));
            }
        }
    }
    broken
}

/// The figure-shape gate: a table whose qualitative claim no longer holds
/// ends the run (exit 1) before a snapshot is written, so that committing
/// regenerated numbers cannot enshrine it.
fn shape_gate(t: &Table) {
    let broken = t.gate.map_or(Vec::new(), |gate| gate(t));
    if broken.is_empty() {
        return;
    }
    for b in broken {
        eprintln!("{}: shape gate: {b}", t.name);
    }
    std::process::exit(1);
}

/// Fig 4b / §8.4: prior-compiler comparison on GCN/collab.
fn fig4b() -> Vec<Table> {
    let (m, composed) = (gcn(&collab(), 16, 8, 7), gcn_composed(&collab(), 16, 8, 7));
    let configs: Vec<(&str, &ModelInstance, Schedule)> = vec![
        ("C+S (unfused)", &m, Schedule::unfused()),
        // C+S rewrite: the user composes each layer's two matmuls into one
        // expression, whose iteration space is the global one; C+S fuses
        // nothing across expressions, so the rest stays unfused (Fig 4a).
        ("C+S (rewrite)", &composed, Schedule::unfused()),
        ("FuseFlow", &m, m.schedule(Fusion::Partial)),
    ];
    let cycles = parallel_map(threads(), configs, |(name, m, sched)| {
        let ran = run_point(name, &m.program, &m.inputs, &sched, MemLocation::Dram);
        (name, ran.unwrap_or_else(|e| panic!("{name}: {e}")).0.cycles)
    });
    let mut t = Table::new(
        "fig4b",
        "Fig 4b: C+S (unfused) vs C+S (rewrite) vs FuseFlow, GCN",
        &["config", "cycles", "speedup"],
    );
    let unfused = cycles[0].1;
    for (name, c) in cycles {
        t.point(name, Some(c), &[&name, &ratio(unfused, c)]);
    }
    t.gate = Some(fig4b_shape);
    vec![t]
}

/// Fig 4b's claim: FuseFlow beats both prior-compiler baselines.
fn fig4b_shape(t: &Table) -> Vec<String> {
    let mut broken = ascending(t, &["FuseFlow", "C+S (unfused)"]);
    broken.extend(ascending(t, &["FuseFlow", "C+S (rewrite)"]));
    broken
}

/// Fig 12: fusion granularity sweep across the four model classes, and
/// Fig 14, read off its GCN rows.
fn fig12() -> Vec<Table> {
    let mut models: Vec<(&str, String, ModelInstance)> = Vec::new();
    for (name, n_in, batch) in SAE_DATASETS.iter().take(2) {
        models.push(("sae", (*name).into(), sae(name, *n_in / 8, 48, *batch, 0.5, 11)));
    }
    for ds in GRAPH_DATASETS.iter().take(3) {
        let small = shrunk(ds, 2);
        models.push(("gcn", ds.name.into(), gcn(&small, 16, 8, 21)));
        models.push(("graphsage", ds.name.into(), graphsage(&small, 16, 8, 23)));
    }
    for block in [16, 32, 64] {
        models.push(("gpt3-bigbird", format!("block{block}"), gpt_decoder(128, 16, block, 31)));
    }
    // Each model sweeps its fusion granularities on one pool worker; model
    // sweeps are independent, so they fan out across the pool.
    let sweeps =
        parallel_map(threads(), models, |(model, dsname, m)| (model, dsname, fusion_sweep(&m)));
    let mut t = Table::new(
        "fig12",
        "Fig 12: fusion effect across models (speedup over unfused)",
        fusion_columns!("model", "dataset"),
    );
    for (model, dsname, sweep) in sweeps {
        fusion_rows(&mut t, &[&model, &dsname], &sweep);
    }
    t.gate = Some(fig12_shape);
    let fig14 = fig14_from(&t);
    vec![t, fig14]
}

/// The `full` rows of each GNN in Fig 12: the most FLOPs they may do
/// relative to unfused, and whether they must also take fewer cycles than
/// unfused. Each recomputes its first layer under the second's rows, but only
/// at the adjacency's stored coordinates (ARCHITECTURE.md, "What full fusion
/// recomputes"). GraphSAGE also runs layer 1 once per node for its second
/// self branch, so it does more, but it stays faster than unfused on every
/// dataset; GCN's `full` row is slower than unfused on cora (0.964x), so only
/// its FLOPs are gated.
const GNN_FULL_GATES: [(&str, f64, bool); 2] = [("gcn/", 2.0, false), ("graphsage/", 2.5, true)];

/// How many times faster than unfused each GPT-3/BigBird `full` row must
/// run. Fusion samples the attention score at the mask's stored elements
/// (ARCHITECTURE.md, "What full fusion recomputes"), and the paper reports
/// about 2.7x; block 64, the slowest, runs 2.72x.
const GPT_FULL_SPEEDUP: f64 = 2.5;

/// Fig 12's claims that hold today: partial fusion beats unfused on every
/// model, and each GNN's `full` row keeps to its [`GNN_FULL_GATES`] entry. On
/// GPT-3/BigBird full fusion beats partial, both do fewer FLOPs than
/// unfused, and `full` runs [`GPT_FULL_SPEEDUP`] times faster than unfused.
/// The SAE's `full` rows still recompute its hidden layer once per stored
/// element of `W2` and are not gated. Fig 15's GCN rows are held to the
/// partial-below-unfused claim too ([`fig15_shape`]).
fn fig12_shape(t: &Table) -> Vec<String> {
    let mut broken = Vec::new();
    for point in t.rows.iter().filter_map(|r| r.label.strip_suffix("/unfused")) {
        let [full, partial, unfused] =
            ["full", "partial", "unfused"].map(|f| format!("{point}/{f}"));
        if let Some(&(_, ceiling, faster)) = GNN_FULL_GATES.iter().find(|g| point.starts_with(g.0))
        {
            let above = format!("above {ceiling}");
            broken.extend(flops_rel_breaks(t, &full, |rel| rel <= ceiling, &above));
            if faster {
                broken.extend(ascending(t, &[&full, &unfused]));
            }
        }
        let gpt = point.starts_with("gpt3-bigbird/");
        if gpt {
            for fused in [&partial, &full] {
                broken.extend(flops_rel_breaks(t, fused, |rel| rel < 1.0, "not below 1"));
            }
            match (t.cycles(&unfused), t.cycles(&full)) {
                (Some(u), Some(f)) if u as f64 >= GPT_FULL_SPEEDUP * f as f64 => {}
                (u, f) => broken.push(format!(
                    "{full} at {f:?} cycles is not {GPT_FULL_SPEEDUP}x faster than {unfused} at {u:?}"
                )),
            }
        }
        let gated = if gpt { 0.. } else { 1.. };
        broken.extend(ascending(t, &[full, partial, unfused][gated]));
    }
    broken
}

/// Why row `label`'s `flops_rel` breaks its claim, if it does: it is missing,
/// or `holds` is false of it (`claim` says how, as in "above 2").
fn flops_rel_breaks(
    t: &Table,
    label: &str,
    holds: impl Fn(f64) -> bool,
    claim: &str,
) -> Option<String> {
    let row = t.rows.iter().find(|r| r.label == label);
    match row.and_then(|r| cell(t, r, "flops_rel")) {
        Some(rel) if rel.parse().is_ok_and(holds) => None,
        Some(rel) => Some(format!("{label} has flops_rel {rel}, {claim}")),
        None => Some(format!("{label} has no flops_rel")),
    }
}

/// The cell of `row` under `column`, a column of `t` other than `cycles`.
fn cell<'r>(t: &Table, row: &'r Row, column: &str) -> Option<&'r str> {
    let at = t.columns.iter().filter(|c| **c != "cycles").position(|c| *c == column)?;
    row.cells.get(at).map(String::as_str)
}

/// Fig 15's claims: partial below unfused at every pattern and sparsity
/// ([`fig12_shape`]), and, within each pattern, a full-fusion speedup over
/// unfused that does not fall as sparsity rises (rows are in ascending
/// sparsity): the recomputed first layer runs once per stored edge, so it
/// shrinks with the graph.
fn fig15_shape(t: &Table) -> Vec<String> {
    let mut broken = fig12_shape(t);
    let mut last: Option<(&str, &str, f64)> = None;
    for point in t.rows.iter().filter_map(|r| r.label.strip_suffix("/unfused")) {
        let pattern = point.split('/').next().unwrap_or(point);
        let cycles = |f: &str| t.cycles(&format!("{point}/{f}"));
        let Some((unfused, full)) = cycles("unfused").zip(cycles("full")) else {
            broken.push(format!("{point} has no full-fusion speedup"));
            continue;
        };
        let speedup = unfused as f64 / full as f64;
        if let Some((_, before, s)) = last.filter(|l| l.0 == pattern && speedup < l.2) {
            broken.push(format!(
                "{point}/full speedup {speedup:.3} falls below {before}/full's {s:.3}"
            ));
        }
        last = Some((pattern, point, speedup));
    }
    broken
}

/// Fig 14: GCN FLOPs and DRAM bytes normalized to unfused, and operational
/// intensity: the GCN rows of `fig12` without `model`, `cycles` and
/// `speedup`. Plain rows, since `fig12/gcn/*` already records the cycles.
fn fig14_from(fig12: &Table) -> Table {
    let mut t = Table::new(
        "fig14",
        "Fig 14: GCN FLOPs & DRAM bytes normalized to unfused",
        &["dataset", "fusion", "flops", "dram_bytes", "flops_rel", "bytes_rel", "op_intensity"],
    );
    for r in fig12.rows.iter().filter(|r| r.cells[0] == "gcn") {
        let c = &r.cells;
        t.row(&[&c[1], &c[2], &c[4], &c[5], &c[6], &c[7], &c[8]]);
    }
    t
}

/// Fig 15: sparsity ablation on synthetic graphs.
fn fig15() -> Vec<Table> {
    let mut graphs = Vec::new();
    for pattern in [GraphPattern::Uniform, GraphPattern::PowerLaw, GraphPattern::BlockDiagonal] {
        for sparsity in [0.5, 0.7, 0.8, 0.9, 0.95] {
            graphs.push((pattern, sparsity));
        }
    }
    let sweeps = parallel_map(threads(), graphs, |(pattern, sparsity)| {
        let ds = GraphDataset {
            name: "synthetic",
            nodes: 100,
            feats: 24,
            density: 1.0 - sparsity,
            pattern,
        };
        (pattern, sparsity, fusion_sweep(&gcn(&ds, 16, 8, 55)))
    });
    let mut t = Table::new(
        "fig15",
        "Fig 15: speedup vs sparsity (synthetic 2-layer GCN)",
        fusion_columns!("pattern", "sparsity"),
    );
    for (pattern, sparsity, sweep) in sweeps {
        fusion_rows(&mut t, &[&pattern, &sparsity], &sweep);
    }
    t.gate = Some(fig15_shape);
    vec![t]
}

/// Fig 16: parallelization factor and location sweeps on BigBird attention.
fn fig16() -> Vec<Table> {
    // The blocked pipeline parallelizes end to end (no deferred softmax
    // references crossing the split); the scalar pipeline's softmax region
    // refuses the split.
    let m = gpt_attention_blocked(1024, 64, 16, 91);
    let on_chip = |at: &str, sched: &Schedule| {
        let ran = run_point(at, &m.program, &m.inputs, sched, MemLocation::OnChip);
        ran.unwrap_or_else(|e| panic!("{at}: {e}"))
    };
    let i_var = m.program.exprs()[0].output.indices[0];
    let cycles = parallel_map(threads(), vec![1, 2, 4, 8, 16, 32, 64], |factor| {
        let sched = m.schedule(Fusion::Partial).with_parallelization(i_var, factor);
        (factor, on_chip(&format!("fig16a factor {factor}"), &sched).0.cycles)
    });
    let mut a = Table::new(
        "fig16a",
        "Fig 16a: parallelization factor sweep (BigBird attention)",
        &["factor", "cycles", "speedup"],
    );
    let serial = cycles[0].1;
    for (factor, c) in cycles {
        a.point(format!("a/factor{factor}"), Some(c), &[&factor, &ratio(serial, c)]);
    }
    a.gate = Some(fig16a_shape);

    // Level 1 = attention row i (legal in every kernel); level 2 = score
    // column j (an innermost or a reduced row in every kernel, so refused;
    // the `refused` column says where and why).
    let j_var = m.program.exprs()[0].output.indices[1];
    let mut jobs = Vec::new();
    for (loc, vars) in
        [("level1", vec![i_var]), ("level2", vec![j_var]), ("both", vec![i_var, j_var])]
    {
        for factor in [1, 2, 4] {
            jobs.push((loc, vars.clone(), factor));
        }
    }
    let rows = parallel_map(threads(), jobs, |(loc, vars, factor)| {
        let unfused = m.schedule(Fusion::Unfused);
        let sched = vars.iter().fold(unfused, |s, v| s.with_parallelization(*v, factor));
        let (stats, refused) = on_chip(&format!("fig16b {loc} x{factor}"), &sched);
        (loc, factor, stats.cycles, refused)
    });
    let mut b = Table::new(
        "fig16b",
        "Fig 16b: parallelization location sweep",
        &["location", "factor", "cycles", "speedup", "refused"],
    );
    let serial = rows[0].2;
    for (loc, factor, c, refused) in rows {
        let cells: [&dyn Display; 4] = [&loc, &factor, &ratio(serial, c), &refused];
        b.point(format!("b/{loc}/x{factor}"), Some(c), &cells);
    }
    b.gate = Some(fig16b_shape);
    vec![a, b]
}

/// Fig 16b's claim where the lowering makes it: splitting the attention rows
/// (`level1`, and `both`, whose score-column split is refused) pays more
/// with every factor. `level2` is not gated: it names only innermost and
/// reduced rows, which are refused until reduced rows split.
fn fig16b_shape(t: &Table) -> Vec<String> {
    let by_falling_factor = |loc| [4, 2, 1].map(|f| format!("b/{loc}/x{f}"));
    ["level1", "both"].into_iter().flat_map(|loc| ascending(t, &by_falling_factor(loc))).collect()
}

/// Fig 16a's claim: splitting the attention rows `factor` ways keeps paying.
/// Cycles fall strictly from each row (listed by rising factor) to the next,
/// and every speedup over the factor-1 row is at least 0.75 x its factor.
fn fig16a_shape(t: &Table) -> Vec<String> {
    let by_falling_factor: Vec<&str> = t.rows.iter().rev().map(|r| r.label.as_str()).collect();
    let mut broken = ascending(t, &by_falling_factor);
    let serial = t.rows.first().and_then(|r| r.cycles);
    for r in &t.rows {
        let factor = r.label.strip_prefix("a/factor").and_then(|f| f.parse::<f64>().ok());
        let (Some(serial), Some(factor), Some(c)) = (serial, factor, r.cycles) else {
            broken.push(format!("{} is not a factor row that ran", r.label));
            continue;
        };
        let speedup = serial as f64 / c as f64;
        if speedup < 0.75 * factor {
            broken.push(format!("{}: speedup {speedup:.2}x is below 0.75 x {factor}", r.label));
        }
    }
    broken
}

/// Fig 17: block-sparse vs unstructured BigBird attention. The arms are
/// different programs: the unstructured one also scales and normalizes.
fn fig17() -> Vec<Table> {
    let rows = parallel_map(threads(), vec![16, 32, 64], |block| {
        // Unstructured arm: same mask on scalar streams, plus the scale and
        // the softmax normalization that the blocked pipeline leaves out.
        let un = gpt_attention(128, 64, block, 13);
        let bl = gpt_attention_blocked(128, 64, block, 13);
        let full = |m: &ModelInstance| {
            let sched = m.schedule(Fusion::Full);
            let ran = run_point(&m.name, &m.program, &m.inputs, &sched, MemLocation::Dram);
            ran.unwrap_or_else(|e| panic!("{}: {e}", m.name)).0.cycles
        };
        (block, full(&un), full(&bl))
    });
    let mut t = Table::new(
        "fig17",
        "Fig 17: blocked vs unstructured BigBird attention",
        &["block", "streams", "cycles", "speedup"],
    );
    for (block, cu, cb) in rows {
        for (streams, c) in [("unstructured", cu), ("blocked", cb)] {
            t.point(format!("block{block}/{streams}"), Some(c), &[&block, &streams, &ratio(cu, c)]);
        }
    }
    let exprs = |m: ModelInstance| {
        let p = &m.program;
        let names: Vec<&str> = p.exprs().iter().map(|e| &*p.tensor(e.output.tensor).name).collect();
        format!("{} expressions ({})", names.len(), names.join(" "))
    };
    t.notes.push(format!(
        "not like for like: unstructured = gpt_attention, {}; blocked = gpt_attention_blocked, {}",
        exprs(gpt_attention(16, 8, 8, 13)),
        exprs(gpt_attention_blocked(16, 8, 8, 13)),
    ));
    t.gate = Some(fig17_shape);
    vec![t]
}

/// Fig 17's claim: at every block size the blocked pipeline beats the
/// unstructured one.
fn fig17_shape(t: &Table) -> Vec<String> {
    let mut broken = Vec::new();
    for r in &t.rows {
        if let Some(block) = r.label.strip_suffix("/blocked") {
            broken.extend(ascending(t, &[r.label.as_str(), &format!("{block}/unstructured")]));
        }
    }
    broken
}

/// Fig 18: dataflow order sweep for a chained matmul via user dataflow
/// schedules; discordant orders materialize permuted input copies through
/// the POG cycle-resolution path. An order pair the compiler refuses is
/// listed with its reason in place of cycles.
fn fig18() -> Vec<Table> {
    use fuseflow_core::ir::IndexVar;
    use fuseflow_tensor::{gen, Format};
    let (n, feats) = (34, 16); // KarateClub scale
    let build = |o1: &[usize], o2: &[usize]| -> (Program, String) {
        let mut p = Program::new();
        let (i, k, u, j) = (p.index("i"), p.index("k"), p.index("u"), p.index("j"));
        let a = p.input("A", vec![n, n], Format::csr());
        let x = p.input("X", vec![n, feats], Format::csr());
        let w = p.input("W", vec![feats, 8], Format::dense(2));
        let v1 = [i, k, u];
        let v2 = [i, u, j];
        let t0 = p.contract(
            "T0",
            vec![i, u],
            vec![(a, vec![i, k]), (x, vec![k, u])],
            vec![k],
            Format::csr(),
        );
        let d1: Vec<IndexVar> = o1.iter().map(|&d| v1[d]).collect();
        p.set_dataflow(d1.clone());
        let t1 = p.contract(
            "T1",
            vec![i, j],
            vec![(t0, vec![i, u]), (w, vec![u, j])],
            vec![u],
            Format::csr(),
        );
        let d2: Vec<IndexVar> = o2.iter().map(|&d| v2[d]).collect();
        p.set_dataflow(d2.clone());
        p.mark_output(t1);
        let name = |v: &[IndexVar]| {
            v.iter().map(|x| p.index_name(*x).to_string()).collect::<Vec<_>>().join("")
        };
        let label = format!("{}|{}", name(&d1), name(&d2));
        (p, label)
    };
    let mut inputs = HashMap::new();
    inputs
        .insert("A".to_string(), gen::adjacency(n, 0.13, GraphPattern::Uniform, 3, &Format::csr()));
    inputs.insert("X".to_string(), gen::sparse_features(n, feats, 0.4, 4, &Format::csr()));
    inputs.insert(
        "W".to_string(),
        SparseTensor::from_dense(
            &fuseflow_tensor::gen::dense_features(feats, 8, 5),
            &Format::dense(2),
        ),
    );
    let perms3: [[usize; 3]; 6] =
        [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]];
    let order_pairs = perms3.iter().flat_map(|&o1| perms3.map(|o2| (o1, o2))).collect();
    let mut sweep = parallel_map(threads(), order_pairs, |(o1, o2)| {
        let (p, label) = build(&o1, &o2);
        let at = format!("fig18 {label}");
        let ran = run_point(&at, &p, &inputs, &Schedule::unfused(), MemLocation::Dram);
        (label, ran.map(|(stats, _)| stats.cycles).map_err(|e| e.to_string()))
    });
    // Simulated orders first, in pair order; refused ones sink.
    sweep.sort_by_key(|(_, ran)| ran.is_err());
    let worst = sweep.iter().filter_map(|(_, ran)| ran.as_ref().ok()).max().copied().unwrap_or(1);
    let mut t = Table::new(
        "fig18",
        "Fig 18: dataflow order sweep, nested matmul",
        &["order", "cycles", "speedup_vs_worst", "refused"],
    );
    let mut refused: BTreeMap<String, usize> = BTreeMap::new();
    for (label, ran) in sweep {
        match ran {
            Ok(c) => t.point(&label, Some(c), &[&label, &ratio(worst, c), &""]),
            Err(reason) => {
                t.point(&label, None, &[&label, &"-", &reason]);
                *refused.entry(reason).or_default() += 1;
            }
        }
    }
    for (reason, pairs) in refused {
        t.notes.push(format!("{pairs} order pairs refused: {reason}"));
    }
    t.gate = Some(fig18_shape);
    vec![t]
}

/// The fewest order pairs Fig 18 may simulate: the count today, which only
/// rises as the lowering admits more orders.
const FIG18_MIN_SIMULATED: usize = 4;

/// Fig 18's claim: the dataflow order moves the cycles. At least
/// [`FIG18_MIN_SIMULATED`] order pairs simulate (each verified by
/// [`run_point`]), and they take at least two distinct cycle counts.
fn fig18_shape(t: &Table) -> Vec<String> {
    let simulated: Vec<u64> = t.rows.iter().filter_map(|r| r.cycles).collect();
    let mut broken = Vec::new();
    if simulated.len() < FIG18_MIN_SIMULATED {
        broken.push(format!(
            "{} order pairs simulated, fewer than {FIG18_MIN_SIMULATED}",
            simulated.len()
        ));
    }
    let distinct: BTreeSet<u64> = simulated.into_iter().collect();
    if distinct.len() < 2 {
        broken.push(format!("the simulated order pairs take one cycle count: {distinct:?}"));
    }
    broken
}

/// Table 3: heuristic FLOPs/bytes error against the simulator.
fn table3() -> Vec<Table> {
    let ds = collab();
    let models: Vec<(&str, ModelInstance)> = vec![
        ("gpt3-b16", gpt_decoder(64, 16, 16, 1)),
        ("gcn", gcn(&ds, 16, 8, 2)),
        ("graphsage", graphsage(&ds, 16, 8, 3)),
    ];
    let pct = |est: f64, meas: u64| (est - meas as f64).abs() / meas as f64 * 100.0;
    let rows = parallel_map(threads(), models, |(name, m)| {
        // Percent errors of the FLOPs and bytes estimates at granularity `f`.
        let err = |f| {
            let sched = m.schedule(f);
            let ran = run_point(&m.name, &m.program, &m.inputs, &sched, MemLocation::Dram);
            let meas = ran.unwrap_or_else(|e| panic!("{}: {e}", m.name)).0;
            let est = estimate(&m.program, &sched, &m.inputs);
            [pct(est.flops, meas.flops), pct(est.bytes, meas.dram_bytes())]
        };
        let (u, p) = (err(Fusion::Unfused), err(Fusion::Partial));
        (name, (u[0] + p[0]) / 2.0, (u[1] + p[1]) / 2.0)
    });
    let mut t = Table::new(
        "table3",
        "Table 3: heuristic avg % error (FLOPs / bytes)",
        &["model", "flops_err_pct", "bytes_err_pct"],
    );
    for (name, fe, be) in rows {
        t.row(&[&name, &format!("{fe:.2}"), &format!("{be:.2}")]);
    }
    t.gate = Some(table3_shape);
    vec![t]
}

/// Table 3's ceilings, `(model, FLOPs, bytes)` average percent errors: the
/// errors the heuristic has today. They only ever fall.
const TABLE3_CEILINGS: [(&str, f64, f64); 3] =
    [("gpt3-b16", 2.42, 35.10), ("gcn", 1.58, 32.13), ("graphsage", 6.12, 58.64)];

/// Table 3's claim: no model's heuristic error rises above its ceiling. A
/// model without a row, or with an error that is not a number, breaks it.
fn table3_shape(t: &Table) -> Vec<String> {
    let mut broken = Vec::new();
    for (model, flops, bytes) in TABLE3_CEILINGS {
        let Some(row) = t.rows.iter().find(|r| r.cells[0] == model) else {
            broken.push(format!("{model} has no row"));
            continue;
        };
        for (what, cell, ceiling) in
            [("flops", &row.cells[1], flops), ("bytes", &row.cells[2], bytes)]
        {
            if !cell.parse::<f64>().is_ok_and(|err| err <= ceiling) {
                broken
                    .push(format!("{model}: {what} error {cell}% is above its {ceiling}% ceiling"));
            }
        }
    }
    broken
}

/// Table 4: design-space size with and without local (per-kernel best
/// dataflow order) constraints, plus the POG linear-extension count for
/// the first fused region (exact via the frontier DP in
/// `Pog::count_orders`, `*` marks capped entries like the paper).
fn table4() -> Vec<Table> {
    let cap: u128 = 200_000_000;
    let mut t = Table::new(
        "table4",
        "Table 4: dataflow-order design-space size",
        &["model", "unconstrained", "capped", "constrained", "pog_full"],
    );
    let ds = GraphDataset {
        name: "collab",
        nodes: 64,
        feats: 16,
        density: 0.04,
        pattern: GraphPattern::PowerLaw,
    };
    let fact = |n: usize| -> u128 { (1..=n as u128).product() };
    for (name, m) in [("gcn", gcn(&ds, 8, 4, 1)), ("graphsage", graphsage(&ds, 8, 4, 2))] {
        let mut un: u128 = 1;
        let mut con: u128 = 1;
        let mut capped = false;
        for e in m.program.exprs() {
            let n = e.index_set().len();
            un = un.saturating_mul(fact(n));
            if un > cap {
                un = cap;
                capped = true;
            }
            // Local constraint: contraction kernels pinned to their best
            // order (Section 8.8); elementwise kernels keep their freedom.
            if e.reduce.is_empty() {
                con = con.saturating_mul(fact(n)).min(cap);
            }
        }
        // POG-level count for the leading fused region: mode orders and
        // user dataflow constraints.
        let region_len = m.program.exprs().len().min(2);
        let pog_full = match fuse_region(&m.program, 0..region_len) {
            Ok(region) => {
                let (full, capped) = region.pog.count_orders(cap);
                format!("{full}{}", if capped { "*" } else { "" })
            }
            Err(_) => "-".into(),
        };
        t.row(&[&name, &un, &capped, &con, &pog_full]);
    }
    vec![t]
}

/// Autotune candidates: a small schedule-space enumeration on the fig4b
/// GCN (fusion regions x stream parallelization), scored analytically
/// (`estimate`) and by simulation. Regenerates the tracked
/// `results/autotune.csv` with every `cycles` cell filled (or explicitly
/// marked `-` when a candidate fails to compile). Every candidate that
/// compiles is run and verified, and a failed run or a wrong output panics.
fn autotune() -> Vec<Table> {
    let m = gcn(&collab(), 16, 8, 7);
    let n = m.program.exprs().len();
    let i0 = m.program.exprs()[0].output.indices[0];
    let split = (n / 2).max(1);
    let candidates: Vec<(String, Schedule)> = vec![
        ("unfused/factored".into(), Schedule::unfused()),
        ("unfused/factored/par{i0x2}".into(), Schedule::unfused().with_parallelization(i0, 2)),
        (
            format!("regions[0..{split},{split}..{n}]/factored"),
            Schedule::regions(vec![0..split, split..n]),
        ),
        (
            format!("regions[0..{split},{split}..{n}]/factored/par{{i0x2}}"),
            Schedule::regions(vec![0..split, split..n]).with_parallelization(i0, 2),
        ),
        (format!("regions[0..{n}]/factored"), Schedule::regions(vec![0..n])),
        (
            format!("regions[0..{n}]/factored/par{{i0x2}}"),
            Schedule::regions(vec![0..n]).with_parallelization(i0, 2),
        ),
    ];
    let candidates = candidates.into_iter().enumerate().collect();
    let mut rows = parallel_map(threads(), candidates, |(idx, (label, sched))| {
        let est = estimate(&m.program, &sched, &m.inputs);
        let at = format!("autotune {label}");
        let ran = run_point(&at, &m.program, &m.inputs, &sched, MemLocation::Dram).ok();
        let (cycles, refused) = ran.map_or((None, String::new()), |(s, r)| (Some(s.cycles), r));
        (idx, label, est.flops, est.bytes, cycles, refused)
    });
    // Best-first like an autotuner's report; failed candidates sink.
    rows.sort_by_key(|r| (r.4.is_none(), r.4, r.0));
    let mut t = Table::new(
        "autotune",
        "Autotune: schedule candidates, heuristic vs simulated",
        &["index", "schedule", "est_flops", "est_bytes", "cycles", "refused"],
    );
    for (idx, label, flops, bytes, cycles, refused) in rows {
        let (flops, bytes) = (format!("{flops:.0}"), format!("{bytes:.0}"));
        t.point(&label, cycles, &[&idx, &label, &flops, &bytes, &refused]);
    }
    vec![t]
}

fn main() {
    let mut which: Vec<String> = std::env::args().skip(1).collect();
    if which.is_empty() {
        which.push("all".into());
    }
    type Figure = fn() -> Vec<Table>;
    let figures: [(&str, Figure); 9] = [
        ("fig4b", fig4b),
        ("fig12", fig12),
        ("fig15", fig15),
        ("fig16", fig16),
        ("fig17", fig17),
        ("fig18", fig18),
        ("table3", table3),
        ("table4", table4),
        ("autotune", autotune),
    ];
    let known = |w: &str| w == "all" || figures.iter().any(|(id, _)| *id == w);
    if let Some(bad) = which.iter().find(|w| !known(w)) {
        let ids: Vec<&str> = figures.iter().map(|(id, _)| *id).collect();
        eprintln!("unknown experiment '{bad}'; valid ids: {}, all", ids.join(", "));
        std::process::exit(2);
    }
    let all = which.iter().any(|w| w == "all");
    let want = |id: &str| all || which.iter().any(|w| w == id);
    let t0 = Instant::now();
    let mut cycles: Vec<(String, u64)> = Vec::new();
    for (id, figure) in figures {
        if !want(id) {
            continue;
        }
        for table in figure() {
            print!("{}", table.text());
            write_file(&format!("results/{}.csv", table.name), &table.csv());
            shape_gate(&table);
            cycles.extend(table.points().map(|(label, c)| (format!("{id}/{label}"), c)));
        }
    }
    // Only an `all` run refreshes the tracked snapshot: a filtered subset
    // would clobber it with a partial point set.
    let snapshot_note = if all {
        write_file("BENCH_sim.json", &snapshot_json(cycles));
        ", BENCH_sim.json rewritten"
    } else {
        " (subset run: no snapshot written)"
    };
    println!(
        "\nDone in {:.1}s ({} pool threads); CSVs in results/{snapshot_note}.",
        t0.elapsed().as_secs_f64(),
        threads(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A table of just these points, as a gate sees one.
    fn table(points: &[(&str, u64)]) -> Table {
        let mut t = Table::new("test", "hand-written", &["point", "cycles"]);
        for &(label, cycles) in points {
            t.point(label, Some(cycles), &[&label]);
        }
        t
    }

    #[test]
    fn fig4b_shape_wants_fuseflow_below_both_baselines() {
        let fig = |fuseflow| {
            table(&[("C+S (unfused)", 403245), ("C+S (rewrite)", 684837), ("FuseFlow", fuseflow)])
        };
        assert!(fig4b_shape(&fig(283100)).is_empty());
        let lost = fig4b_shape(&fig(403245));
        assert_eq!(lost.len(), 1, "{lost:?}");
        assert!(lost[0].contains("is not below C+S (unfused)"), "{lost:?}");
        assert_eq!(fig4b_shape(&fig(684838)).len(), 2);
        // A baseline that did not run is a broken figure, not a pass.
        assert_eq!(
            fig4b_shape(&table(&[("C+S (unfused)", 403245), ("FuseFlow", 283100)])).len(),
            1
        );
    }

    /// A table of these `(label, cycles, flops_rel)` points.
    fn fusion_table(points: &[(&str, u64, f64)]) -> Table {
        let mut t = Table::new("test", "hand-written", &["point", "cycles", "flops_rel"]);
        for &(label, cycles, rel) in points {
            t.point(label, Some(cycles), &[&label, &format!("{rel:.3}")]);
        }
        t
    }

    #[test]
    fn fig12_shape_wants_partial_below_unfused_and_gpt_full_below_partial() {
        let fig = |gcn_partial, gpt_full| {
            fusion_table(&[
                ("gcn/cora/unfused", 392103, 1.0),
                ("gcn/cora/partial", gcn_partial, 1.0),
                ("gcn/cora/full", 406930, 1.693),
                ("gpt3-bigbird/block16/unfused", 5711111, 1.0),
                ("gpt3-bigbird/block16/partial", 2000000, 0.788),
                ("gpt3-bigbird/block16/full", gpt_full, 0.788),
            ])
        };
        // The GCN `full` row, above unfused in cycles: gated on FLOPs only.
        assert!(fig12_shape(&fig(289068, 1774337)).is_empty());
        let gnn = fig12_shape(&fig(392103, 1774337));
        assert_eq!(gnn.len(), 1, "{gnn:?}");
        assert!(gnn[0].starts_with("gcn/cora/partial at"), "{gnn:?}");
        let gpt = fig12_shape(&fig(289068, 2000001));
        let below = "gpt3-bigbird/block16/full at Some(2000001) cycles is not below \
                     gpt3-bigbird/block16/partial at Some(2000000)";
        assert_eq!(gpt, [below]);
    }

    /// GPT-3/BigBird's fused rows do fewer FLOPs than unfused, and `full`
    /// runs at least 2.5x faster. Computing the score at every `(i, j)`
    /// before masking it, at the unfused FLOPs and 1.91x, breaks all three
    /// claims; sampling it, at 0.788 and 3.22x, keeps them.
    #[test]
    fn fig12_shape_wants_gpt_fusion_below_the_unfused_flops_and_full_2_5x_faster() {
        let fig = |partial: (u64, f64), full: (u64, f64)| {
            fusion_table(&[
                ("gpt3-bigbird/block16/unfused", 5711111, 1.0),
                ("gpt3-bigbird/block16/partial", partial.0, partial.1),
                ("gpt3-bigbird/block16/full", full.0, full.1),
            ])
        };
        assert!(fig12_shape(&fig((2710185, 0.788), (1774337, 0.788))).is_empty());
        let dense = fig12_shape(&fig((3926756, 1.0), (2988779, 1.0)));
        assert_eq!(
            dense,
            [
                "gpt3-bigbird/block16/partial has flops_rel 1.000, not below 1",
                "gpt3-bigbird/block16/full has flops_rel 1.000, not below 1",
                "gpt3-bigbird/block16/full at Some(2988779) cycles is not 2.5x faster than \
                 gpt3-bigbird/block16/unfused at Some(5711111)",
            ]
        );
    }

    /// Fully fused GCN recomputing per producer coordinate, at 57.9 times
    /// the unfused FLOPs, breaks the FLOPs claim; so does a missing row.
    #[test]
    fn fig12_shape_wants_gcn_full_within_twice_the_unfused_flops() {
        let fig = |full: &[(&'static str, u64, f64)]| {
            let rows = [("gcn/cora/unfused", 392103, 1.0), ("gcn/cora/partial", 289067, 1.0)];
            fusion_table(&[&rows[..], full].concat())
        };
        assert!(fig12_shape(&fig(&[("gcn/cora/full", 406930, 1.693)])).is_empty());
        assert!(fig12_shape(&fig(&[("gcn/cora/full", 406930, 2.0)])).is_empty());
        let cliff = fig12_shape(&fig(&[("gcn/cora/full", 17203836, 57.9)]));
        assert_eq!(cliff.len(), 1, "{cliff:?}");
        assert_eq!(cliff, ["gcn/cora/full has flops_rel 57.900, above 2"]);
        assert_eq!(fig12_shape(&fig(&[])), ["gcn/cora/full has no flops_rel"]);
    }

    /// Fully fused GraphSAGE re-running layer 1 at every node under every
    /// node (53.5x the FLOPs in 27.9x the cycles on cora) breaks both of its
    /// claims; above unfused in cycles alone breaks one.
    #[test]
    fn fig12_shape_wants_graphsage_full_within_its_flops_and_below_unfused() {
        let fig = |full: &[(&'static str, u64, f64)]| {
            let rows =
                [("graphsage/cora/unfused", 599216, 1.0), ("graphsage/cora/partial", 277527, 1.0)];
            fusion_table(&[&rows[..], full].concat())
        };
        assert!(fig12_shape(&fig(&[("graphsage/cora/full", 433716, 2.291)])).is_empty());
        assert!(fig12_shape(&fig(&[("graphsage/cora/full", 433716, 2.5)])).is_empty());
        let cliff = fig12_shape(&fig(&[("graphsage/cora/full", 16690566, 53.515)]));
        assert_eq!(
            cliff,
            [
                "graphsage/cora/full has flops_rel 53.515, above 2.5",
                "graphsage/cora/full at Some(16690566) cycles is not below \
                 graphsage/cora/unfused at Some(599216)",
            ]
        );
        let slower = fig12_shape(&fig(&[("graphsage/cora/full", 599216, 2.291)]));
        assert_eq!(slower.len(), 1, "{slower:?}");
        assert!(slower[0].starts_with("graphsage/cora/full at Some(599216)"), "{slower:?}");
    }

    #[test]
    fn fig15_shape_wants_partial_below_unfused_at_every_sparsity() {
        let fig = |partial| {
            table(&[
                ("uniform/0.5/unfused", 1220894),
                ("uniform/0.5/partial", 855442),
                ("uniform/0.5/full", 12694755),
                ("block-diag/0.95/unfused", 471704),
                ("block-diag/0.95/partial", partial),
                ("block-diag/0.95/full", 981228),
            ])
        };
        // The `full` rows sit above unfused: gated on their trend only.
        assert!(fig15_shape(&fig(329575)).is_empty());
        let above = fig15_shape(&fig(471705));
        assert_eq!(above.len(), 1, "{above:?}");
        assert!(above[0].starts_with("block-diag/0.95/partial at"), "{above:?}");
    }

    /// The parent's uniform rows, where full fusion's speedup fell from
    /// 0.039 to 0.022 as sparsity rose, break the trend claim; another
    /// pattern's lower speedup does not.
    #[test]
    fn fig15_shape_wants_full_speedup_not_to_fall_as_sparsity_rises() {
        let fig = |uniform_95_full| {
            table(&[
                ("uniform/0.5/unfused", 1220894),
                ("uniform/0.5/partial", 855442),
                ("uniform/0.5/full", 12694755),
                ("uniform/0.95/unfused", 511142),
                ("uniform/0.95/partial", 344941),
                ("uniform/0.95/full", uniform_95_full),
                ("block-diag/0.5/unfused", 650869),
                ("block-diag/0.5/partial", 435238),
                ("block-diag/0.5/full", 2944395),
            ])
        };
        assert!(fig15_shape(&fig(1368428)).is_empty());
        let fell = fig15_shape(&fig(23029002));
        assert_eq!(fell.len(), 1, "{fell:?}");
        assert!(fell[0].starts_with("uniform/0.95/full speedup 0.022 falls below"), "{fell:?}");
        let missing =
            fig15_shape(&table(&[("uniform/0.5/unfused", 1), ("uniform/0.5/partial", 0)]));
        assert_eq!(missing, ["uniform/0.5 has no full-fusion speedup"]);
    }

    #[test]
    fn table3_shape_wants_every_error_at_or_below_its_ceiling() {
        let tab = |rows: &[[&str; 3]]| {
            let mut t = Table::new("table3", "hand-written", &["model", "flops", "bytes"]);
            for cells in rows {
                t.row(&[&cells[0], &cells[1], &cells[2]]);
            }
            t
        };
        let today = [
            ["gpt3-b16", "2.42", "35.10"],
            ["gcn", "1.58", "32.13"],
            ["graphsage", "6.12", "58.64"],
        ];
        assert!(table3_shape(&tab(&today)).is_empty());
        let mut better = today;
        better[1] = ["gcn", "0.00", "12.00"];
        assert!(table3_shape(&tab(&better)).is_empty());
        let mut worse = today;
        worse[2][2] = "58.65";
        let broken = table3_shape(&tab(&worse));
        assert_eq!(broken, ["graphsage: bytes error 58.65% is above its 58.64% ceiling"]);
        worse[0][1] = "NaN";
        assert_eq!(table3_shape(&tab(&worse)).len(), 2);
        // A model that did not run is a broken table, not a pass.
        let broken = table3_shape(&tab(&today[..2]));
        assert_eq!(broken, ["graphsage has no row"]);
    }

    /// Fig 14 is Fig 12's GCN rows: the same traffic cells, no other
    /// model's rows, and no snapshot point of its own.
    #[test]
    fn fig14_reads_the_gcn_rows_of_fig12() {
        let stats = |cycles, flops, bytes| Stats {
            cycles,
            flops,
            dram_read_bytes: bytes,
            dram_write_bytes: 8,
            ..Stats::default()
        };
        let sweep = |k: u64| {
            [
                (Fusion::Unfused, stats(k, 10 * k, 100 * k)),
                (Fusion::Partial, stats(2 * k, 10 * k, 60 * k)),
                (Fusion::Full, stats(40 * k, 500 * k, 2000 * k)),
            ]
        };
        let mut fig12 = Table::new("fig12", "made up", fusion_columns!("model", "dataset"));
        fusion_rows(&mut fig12, &[&"sae", &"mnist"], &sweep(7));
        for (dataset, scale) in [("cora", 1), ("cora_ml", 2), ("dblp", 3)] {
            fusion_rows(&mut fig12, &[&"gcn", &dataset], &sweep(scale));
        }
        let fig14 = fig14_from(&fig12);
        assert_eq!(fig14.points().count(), 0);
        let gcn: Vec<_> = fig12.rows.iter().filter(|r| r.label.starts_with("gcn/")).collect();
        assert_eq!(fig14.rows.len(), gcn.len());
        for (got, want) in fig14.rows.iter().zip(gcn) {
            let (dataset, fusion) = want.label["gcn/".len()..].split_once('/').unwrap();
            let traffic = &want.cells[want.cells.len() - 5..];
            assert_eq!(got.cells, [&[dataset.to_string(), fusion.to_string()], traffic].concat());
        }
        assert_eq!(
            fig14.rows[5].cells,
            ["cora_ml", "full", "1000", "4008", "50.000", "19.269", "0.250"]
        );
    }

    #[test]
    fn fig16a_shape_wants_cycles_falling_and_speedup_near_the_factor() {
        let fig = |at2, at64| {
            table(&[
                ("a/factor1", 282073),
                ("a/factor2", at2),
                ("a/factor32", 9399),
                ("a/factor64", at64),
            ])
        };
        assert!(fig16a_shape(&fig(141204, 5440)).is_empty());
        // The floor at factor 64 is 48x: 282073 / 5876 = 48.004.
        assert!(fig16a_shape(&fig(141204, 5876)).is_empty());
        let slow = fig16a_shape(&fig(141204, 6000));
        assert_eq!(slow.len(), 1, "{slow:?}");
        assert!(slow[0].starts_with("a/factor64: speedup 47.01x"), "{slow:?}");
        // No gain from 32 to 64 breaks both claims; 1.4x at factor 2 only the second.
        assert_eq!(fig16a_shape(&fig(141204, 9399)).len(), 2);
        assert_eq!(fig16a_shape(&fig(200000, 5440)).len(), 1);
    }

    #[test]
    fn fig16b_shape_wants_level1_and_both_falling_with_the_factor() {
        let fig = |both: [u64; 3]| {
            let mut points = vec![];
            for (loc, cycles) in [("level1", [286743, 143899, 72533]), ("level2", [286743; 3])] {
                points.extend(
                    [1, 2, 4].iter().zip(cycles).map(|(f, c)| (format!("b/{loc}/x{f}"), c)),
                );
            }
            points.extend([1, 2, 4].iter().zip(both).map(|(f, c)| (format!("b/both/x{f}"), c)));
            let labelled: Vec<(&str, u64)> = points.iter().map(|(l, c)| (l.as_str(), *c)).collect();
            table(&labelled)
        };
        // A flat `level2` is not gated.
        assert!(fig16b_shape(&fig([286743, 143899, 72533])).is_empty());
        // A `both` that drops its legal split with the refused one is flat.
        let flat = fig16b_shape(&fig([286743; 3]));
        assert_eq!(flat.len(), 2, "{flat:?}");
        assert!(flat[0].starts_with("b/both/x4 at Some(286743) cycles is not below b/both/x2"));
        // A split that gains nothing past factor 2 breaks one step.
        assert_eq!(fig16b_shape(&fig([286743, 143899, 143899])).len(), 1);
    }

    #[test]
    fn fig18_shape_wants_four_simulated_pairs_and_two_cycle_counts() {
        let fig = |cycles: &[u64]| {
            let labels = ["iku|iuj", "iku|iju", "iuk|iuj", "iuk|iju"];
            let mut t =
                table(&labels.iter().copied().zip(cycles.iter().copied()).collect::<Vec<_>>());
            t.point("kiu|jiu", None, &[&"kiu|jiu"]);
            t
        };
        assert!(fig18_shape(&fig(&[36630, 46883, 36630, 46883])).is_empty());
        let flat = fig18_shape(&fig(&[36630; 4]));
        assert_eq!(flat, ["the simulated order pairs take one cycle count: {36630}"]);
        let fewer = fig18_shape(&fig(&[36630, 46883, 36630]));
        assert_eq!(fewer, ["3 order pairs simulated, fewer than 4"]);
        // The refused row counts for neither; one pair that ran breaks both.
        assert_eq!(fig18_shape(&fig(&[36630])).len(), 2);
    }

    #[test]
    fn fig17_shape_wants_blocked_below_unstructured_at_every_block() {
        let fig = |blocked64| {
            table(&[
                ("block16/unstructured", 8586114),
                ("block16/blocked", 7507),
                ("block64/unstructured", 8619587),
                ("block64/blocked", blocked64),
            ])
        };
        assert!(fig17_shape(&fig(3603)).is_empty());
        let lost = fig17_shape(&fig(8619587));
        assert_eq!(lost.len(), 1, "{lost:?}");
        assert!(lost[0].starts_with("block64/blocked at"), "{lost:?}");
    }
}
