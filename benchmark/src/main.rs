//! The repo benchmark: hands FuseFlow a `Program` and a `Schedule`, gets back
//! reference-checked outputs and simulated cycles, and times that loop end to
//! end and layer by layer. See README.md for the metric and workload
//! definitions and ../BENCHMARK.json for the contract.
//!
//! ```text
//! fuseflow-benchmark --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//!                    [--smoke] [--out <dir>]
//! ```
//!
//! The last line of standard output is one JSON object per workload with the
//! keys `correct`, `attempted`, `failed` and `metrics`; the exit code is
//! nonzero when any point failed.

mod calib;
mod host;
mod json;
mod pass;
mod stats;
mod trace;
mod workload;

use calib::Calibrator;
use pass::{run_pass, Counts, Env, Observed, PassResult};
use stats::{median, summarize, Summary};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;
use workload::{Gran, Kind, Workload, FAMILIES};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn usage() -> String {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    format!(
        "usage: fuseflow-benchmark --workload <{}|all> [--seed <n>] [--seconds <s>] \
         [--trace <0|1>] [--smoke] [--out <dir>]",
        names.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        kinds: Kind::ALL.to_vec(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: Path::new(env!("CARGO_MANIFEST_DIR")).join("out"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{value}' for {flag}");
        match flag.as_str() {
            "--workload" if value == "all" => args.kinds = Kind::ALL.to_vec(),
            "--workload" => args.kinds = vec![Kind::parse(value).ok_or_else(bad)?],
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => args.out = PathBuf::from(value),
            _ => return Err(format!("unknown argument '{flag}'")),
        }
    }
    Ok(args)
}

/// One reported metric: the value that goes into the result line, and the
/// distribution behind it where it is a timing.
struct Metric {
    name: String,
    unit: &'static str,
    value: f64,
    samples: Option<Summary>,
}

impl Metric {
    fn exact(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric { name: name.into(), unit, value, samples: None }
    }

    /// A timing: the median of its samples.
    fn timed(name: impl Into<String>, unit: &'static str, samples: &[f64]) -> Metric {
        let s = summarize(samples);
        Metric { name: name.into(), unit, value: s.median, samples: Some(s) }
    }
}

/// Samples of one timing, in calibrated and in raw seconds (see `calib`).
#[derive(Default, Clone)]
struct Timing {
    calibrated: Vec<f64>,
    raw: Vec<f64>,
}

impl Timing {
    fn push(&mut self, calibrated: f64, raw: f64) {
        self.calibrated.push(calibrated);
        self.raw.push(raw);
    }
}

struct Runner {
    workload: Workload,
    expected: Vec<Option<Observed>>,
    setup_s: Timing,
    build_s: Vec<f64>,
    /// Untraced passes: wall, the three phases, on-CPU seconds, and the
    /// calibration kernel's timings.
    wall_s: Timing,
    phase_s: [Timing; 3],
    cpu_s: Vec<f64>,
    kernel_s: Vec<f64>,
    point_s: Vec<[Vec<f64>; 3]>,
    sim_cycles: u64,
    /// Traced passes.
    tracer: Tracer,
    /// Layer timing metrics in report order, one sample per traced pass.
    layer_s: Vec<(&'static str, Vec<f64>)>,
    traced_wall_s: Vec<f64>,
    counts: Counts,
    attempted: usize,
    failed: usize,
    /// Seconds of the measuring budget used so far.
    spent_s: f64,
}

impl Runner {
    /// Builds the workload from the seed and runs the warm-up pass,
    /// `setups` times over; keeps the last.
    fn set_up(kind: Kind, args: &Args, env: &Env) -> Runner {
        let setups = if args.smoke { 1 } else { SETUPS };
        let (mut setup_s, mut build_s) = (Timing::default(), Vec::new());
        let (mut attempted, mut failed) = (0, 0);
        let mut last = None;
        for _ in 0..setups {
            let build = Calibrator::start();
            let workload = Workload::build(kind, args.seed, args.smoke);
            let (build_scale, _) = build.finish();
            let warm = run_pass(&workload, env, None, None);
            setup_s.push(
                workload.build_s * build_scale + warm.wall_s(),
                workload.build_s + warm.raw_wall_s(),
            );
            build_s.push(workload.build_s * build_scale);
            attempted += warm.attempted;
            failed += warm.failed;
            last = Some((workload, warm));
        }
        let (workload, warm) = last.expect("at least one set-up");
        Runner {
            point_s: vec![Default::default(); workload.points.len()],
            workload,
            expected: warm.observed,
            setup_s,
            build_s,
            wall_s: Timing::default(),
            phase_s: Default::default(),
            cpu_s: Vec::new(),
            kernel_s: Vec::new(),
            sim_cycles: warm.sim_cycles,
            tracer: Tracer::new(),
            layer_s: Vec::new(),
            traced_wall_s: Vec::new(),
            counts: Counts::default(),
            attempted,
            failed,
            spent_s: 0.0,
        }
    }

    fn tally(&mut self, pass: &PassResult) {
        self.attempted += pass.attempted;
        self.failed += pass.failed;
    }

    /// One untraced pass and, in a traced run, one traced pass after it.
    fn measure(&mut self, env: &Env, trace: bool) {
        let t0 = Instant::now();
        let pass = run_pass(&self.workload, env, Some(&self.expected), None);
        self.tally(&pass);
        self.wall_s.push(pass.wall_s(), pass.raw_wall_s());
        self.cpu_s.push(pass.cpu_s);
        self.kernel_s.extend(&pass.kernel_s);
        for (i, samples) in self.phase_s.iter_mut().enumerate() {
            samples.push(pass.phases[i], pass.raw_phases[i]);
        }
        for (samples, point) in self.point_s.iter_mut().zip(&pass.per_point) {
            for (s, v) in samples.iter_mut().zip(point) {
                s.push(*v);
            }
        }
        self.sim_cycles = pass.sim_cycles;
        if trace {
            let from = self.tracer.len();
            let pass = run_pass(&self.workload, env, Some(&self.expected), Some(&mut self.tracer));
            self.tally(&pass);
            self.tracer.set_scales(from, &pass.point_scale);
            let (times, wall) = layer_times(&self.tracer, from, &self.workload);
            if self.layer_s.is_empty() {
                self.layer_s = times.iter().map(|(name, _)| (*name, Vec::new())).collect();
            }
            for ((_, samples), (_, v)) in self.layer_s.iter_mut().zip(times) {
                samples.push(v);
            }
            self.traced_wall_s.push(wall);
            self.counts = pass.counts;
        }
        self.spent_s += t0.elapsed().as_secs_f64();
    }

    fn end_to_end(&self) -> Vec<Metric> {
        vec![
            Metric::timed("setup_s", "s", &self.setup_s.calibrated),
            Metric::timed("e2e_wall_s", "s", &self.wall_s.calibrated),
            Metric::timed("sim_wall_s", "s", &self.phase_s[1].calibrated),
            Metric::exact("sim_cycles", "cycles", self.sim_cycles as f64),
        ]
    }

    /// The untraced passes' phase timings that are not end-to-end metrics,
    /// every timing again in raw seconds, and the host's speed.
    fn phases_and_raw(&self) -> Vec<Metric> {
        let slowdown: Vec<f64> = self.kernel_s.iter().map(|k| k / calib::REFERENCE_S).collect();
        vec![
            Metric::timed("compile_wall_s", "s", &self.phase_s[0].calibrated),
            Metric::timed("check_wall_s", "s", &self.phase_s[2].calibrated),
            Metric::timed("raw.setup_s", "s", &self.setup_s.raw),
            Metric::timed("raw.e2e_wall_s", "s", &self.wall_s.raw),
            Metric::timed("raw.compile_wall_s", "s", &self.phase_s[0].raw),
            Metric::timed("raw.sim_wall_s", "s", &self.phase_s[1].raw),
            Metric::timed("raw.check_wall_s", "s", &self.phase_s[2].raw),
            Metric::timed("host.slowdown", "ratio", &slowdown),
        ]
    }

    fn per_layer(&self) -> Vec<Metric> {
        let c = &self.counts;
        let (input_nnz, input_bytes) = self.workload.input_size();
        let layer = |name: &str| {
            self.layer_s.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, s)| median(s))
        };
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let mut out = self.phases_and_raw();
        out.push(Metric::timed("models.build_s", "s", &self.build_s));
        out.extend(self.layer_s.iter().map(|(name, samples)| Metric::timed(*name, "s", samples)));
        let simulate_s = layer("sim.simulate_s");
        let counts: [(&str, &'static str, u64); 18] = [
            ("tensor.input_nnz", "count", input_nnz),
            ("tensor.input_bytes", "bytes", input_bytes),
            ("fusion.regions", "count", c.regions),
            ("lower.nodes", "count", c.nodes),
            ("lower.edges", "count", c.edges),
            ("lower.permuted_inputs", "count", c.permuted_inputs),
            ("verify.diags", "count", c.diags),
            ("sim.graphs", "count", c.graphs),
            ("sim.events", "count", c.events),
            ("sim.cycles", "cycles", c.cycles),
            ("sim.cycles_skipped", "cycles", c.cycles_skipped),
            ("sim.peak_ready", "count", c.peak_ready),
            ("sim.tokens", "count", c.tokens),
            ("sim.flops", "count", c.flops),
            ("sim.dram_read_bytes", "bytes", c.dram_read_bytes),
            ("sim.dram_write_bytes", "bytes", c.dram_write_bytes),
            ("interp.out_elems", "count", c.out_elems),
            ("host.passes", "count", self.wall_s.raw.len() as u64),
        ];
        out.extend(counts.map(|(name, unit, v)| Metric::exact(name, unit, v as f64)));
        for (g, name) in Gran::NAMES.iter().enumerate() {
            let v = c.cycles_by_gran[g] as f64;
            out.push(Metric::exact(format!("sim.cycles_{name}"), "cycles", v));
        }
        for (f, name) in FAMILIES.iter().enumerate() {
            let [unfused, _, full] = c.cycles_by_family[f];
            let v = ratio(full as f64, unfused as f64);
            out.push(Metric::exact(format!("sim.full_over_unfused.{name}"), "ratio", v));
        }
        let untraced_wall = median(&self.wall_s.calibrated);
        let traced_wall = median(&self.traced_wall_s);
        let layer_sum: f64 = LAYER_SELF_TIMES.iter().map(|n| layer(n)).sum();
        out.extend([
            Metric::exact("sim.ns_per_event", "ns", ratio(simulate_s * 1e9, c.events as f64)),
            Metric::exact(
                "sim.mcycles_per_s",
                "Mcycles/s",
                ratio(c.cycles as f64 * 1e-6, simulate_s),
            ),
            Metric::exact(
                "heuristic.flops_rel_err",
                "ratio",
                ratio(c.flops_rel_err.0, c.flops_rel_err.1 as f64),
            ),
            Metric::exact(
                "heuristic.bytes_rel_err",
                "ratio",
                ratio(c.bytes_rel_err.0, c.bytes_rel_err.1 as f64),
            ),
            Metric::exact("host.peak_rss_mb", "MB", host::peak_rss_mb()),
            Metric::timed("host.cpu_s", "s", &self.cpu_s),
            Metric::exact(
                "host.trace_overhead_pct",
                "%",
                100.0 * (ratio(traced_wall, untraced_wall) - 1.0),
            ),
            Metric::exact("host.layer_sum_over_e2e", "ratio", ratio(layer_sum, untraced_wall)),
        ]);
        out
    }
}

/// The layer self-times that partition a pass: their sum is the pass's wall.
const LAYER_SELF_TIMES: &[&str] = &[
    "fusion.fuse_s",
    "lower.lower_s",
    "verify.lint_s",
    "pipeline.compile_self_s",
    "heuristic.estimate_s",
    "tensor.permute_s",
    "pipeline.bind_s",
    "sim.simulate_s",
    "interp.interpret_s",
    "pipeline.compare_s",
];

/// Turns the spans of one traced pass into the layer timing metrics (in
/// report order), and returns with them the pass's wall as the untraced pass
/// defines it (`compile_with` + `estimate` + `run` + `verify`, probes
/// excluded).
fn layer_times(tr: &Tracer, from: usize, w: &Workload) -> ([(&'static str, f64); 14], f64) {
    let totals = tr.totals_since(from);
    let total = |name: &str| totals.get(name).map_or(0.0, |t| t.total_s);
    let fuse = total("fusion.fuse");
    let lower = (total("probe.compile_unverified") - fuse).max(0.0);
    let lint = total("verify.lint");
    let compile = total("pipeline.compile");
    let interpret = total("interp.interpret");
    let by_gran = pass::simulate_s_by_gran(tr, from, &w.points);
    let times = [
        ("fusion.fuse_s", fuse),
        ("lower.lower_s", lower),
        ("verify.lint_s", lint),
        ("pipeline.compile_s", compile),
        ("pipeline.compile_self_s", (compile - fuse - lower - lint).max(0.0)),
        ("heuristic.estimate_s", total("heuristic.estimate")),
        ("tensor.permute_s", total("tensor.permute")),
        ("pipeline.bind_s", totals.get("pipeline.run").map_or(0.0, |t| t.self_s)),
        ("sim.simulate_s", total("sim.simulate")),
        ("interp.interpret_s", interpret),
        ("pipeline.compare_s", (total("pipeline.verify") - interpret).max(0.0)),
        ("sim.simulate_s_unfused", by_gran[0]),
        ("sim.simulate_s_partial", by_gran[1]),
        ("sim.simulate_s_full", by_gran[2]),
    ];
    let wall =
        compile + total("heuristic.estimate") + total("pipeline.run") + total("pipeline.verify");
    (times, wall)
}

fn metric_json(m: &Metric, detailed: bool) -> String {
    let mut o = json::Obj::new().num("value", m.value).str("unit", m.unit);
    if let (true, Some(s)) = (detailed, &m.samples) {
        o = o
            .int("n", s.n as u64)
            .num("min", s.min)
            .num("q1", s.q1)
            .num("median", s.median)
            .num("q3", s.q3)
            .num("max", s.max);
        if let Some((p, v)) = s.high {
            o = o.num("high_p", p).num("high", v);
        }
    }
    o.finish()
}

fn metrics_json(metrics: &[Metric], detailed: bool) -> String {
    metrics.iter().fold(json::Obj::new(), |o, m| o.raw(&m.name, &metric_json(m, detailed))).finish()
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("{title}");
    println!(
        "  {:<30} {:>14} {:<10} {:>4} {:>12} {:>12} {:>12} {:>12} {:>16}",
        "metric", "value", "unit", "n", "min", "q1", "q3", "max", "high (p)"
    );
    for m in metrics {
        print!("  {:<30} {:>14.6} {:<10}", m.name, m.value, m.unit);
        if let Some(s) = &m.samples {
            print!(" {:>4} {:>12.6} {:>12.6} {:>12.6} {:>12.6}", s.n, s.min, s.q1, s.q3, s.max);
            if let Some((p, v)) = s.high {
                print!(" {v:>10.6} (p{:.0})", p * 100.0);
            }
        }
        println!();
    }
}

/// The result line of the benchmark contract.
fn result_line(r: &Runner, metrics: &[Metric], name_workload: bool) -> String {
    let mut o = json::Obj::new();
    if name_workload {
        o = o.str("workload", r.workload.kind.name());
    }
    o.bool("correct", r.failed == 0)
        .int("attempted", r.attempted as u64)
        .int("failed", r.failed as u64)
        .raw("metrics", &metrics_json(metrics, false))
        .finish()
}

fn result_file(r: &Runner, args: &Args, host: &str, e2e: &[Metric], layers: &[Metric]) -> String {
    let points = r.workload.points.iter().zip(&r.point_s).map(|(p, samples)| {
        json::Obj::new()
            .str("name", &p.name)
            .bool("simulated", p.simulate)
            .num("compile_s", median(&samples[0]))
            .num("sim_s", median(&samples[1]))
            .num("check_s", median(&samples[2]))
            .finish()
    });
    json::Obj::new()
        .int("schema", 1)
        .str("workload", r.workload.kind.name())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("smoke", args.smoke)
        .bool("trace", args.trace)
        .raw("host", host)
        .int("setups", r.setup_s.raw.len() as u64)
        .int("passes", r.wall_s.raw.len() as u64)
        .int("attempted", r.attempted as u64)
        .int("failed", r.failed as u64)
        .num("failed_share", r.failed as f64 / r.attempted as f64)
        .bool("correct", r.failed == 0)
        .raw("end_to_end", &metrics_json(e2e, true))
        .raw("per_layer", &metrics_json(layers, true))
        .raw("points", &json::array(points))
        .finish()
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let env = Env::new();
    let mut runners: Vec<Runner> =
        args.kinds.iter().map(|&k| Runner::set_up(k, args, &env)).collect();

    // Closed loop on one thread. With several workloads, their passes are
    // interleaved round-robin so that a burst of machine noise is spread
    // over all of them.
    loop {
        let mut measured = false;
        for r in &mut runners {
            let budget = if args.smoke { 0.0 } else { args.seconds };
            if r.wall_s.raw.is_empty() || r.spent_s < budget {
                r.measure(&env, args.trace);
                measured = true;
            }
        }
        if !measured {
            break;
        }
    }

    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("cannot create {}: {e}", args.out.display()))?;
    let host = host::host_json(Path::new(env!("CARGO_MANIFEST_DIR")));
    let mut lines = Vec::new();
    for r in &runners {
        let name = r.workload.kind.name();
        let e2e = r.end_to_end();
        // An untraced run still has the phases and the raw seconds to show.
        let layers = if args.trace { r.per_layer() } else { r.phases_and_raw() };
        println!(
            "== {name}: seed {}, {} set-ups, {} passes of {} points, {} of {} point-executions failed",
            args.seed,
            r.setup_s.raw.len(),
            r.wall_s.raw.len(),
            r.workload.points.len(),
            r.failed,
            r.attempted
        );
        print_table("end to end (untraced passes, calibrated seconds)", &e2e);
        if args.trace {
            print_table(
                "per layer (phases and raw seconds: untraced passes; layers: traced passes)",
                &layers,
            );
            let names: Vec<String> = r.workload.points.iter().map(|p| p.name.clone()).collect();
            let path = args.out.join(format!("trace-{name}.json"));
            write_file(&path, &r.tracer.to_json(name, &names))?;
        } else {
            print_table("phases and raw seconds (untraced passes)", &layers);
        }
        write_file(
            &args.out.join(format!("result-{name}.json")),
            &result_file(r, args, &host, &e2e, &layers),
        )?;
        let reported = if args.trace { &layers } else { &e2e };
        lines.push(result_line(r, reported, runners.len() > 1));
    }
    for line in lines {
        println!("{line}");
    }
    Ok(runners.iter().all(|r| r.failed == 0))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("some points failed; see the FAILED lines above");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_contract_command_line() {
        let a =
            args(&["--workload", "sim_dense", "--seed", "7", "--seconds", "12", "--trace", "1"])
                .unwrap();
        assert_eq!(a.kinds, vec![Kind::SimDense]);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 12.0, true, false));
        assert_eq!(args(&[]).unwrap().kinds.len(), 4);
        assert!(args(&["--smoke"]).unwrap().smoke);
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--seed"],
            &["--frobnicate", "1"],
        ] {
            assert!(args(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn smoke_pass_checks_every_point_and_fills_both_metric_sets() {
        let a = args(&["--workload", "sim_dense", "--smoke", "--trace", "1"]).unwrap();
        let env = Env::new();
        let mut r = Runner::set_up(Kind::SimDense, &a, &env);
        r.measure(&env, true);
        assert_eq!((r.failed, r.attempted), (0, 15));
        assert_eq!(r.counts.dram_read_bytes + r.counts.dram_write_bytes, 0);
        assert_eq!(r.counts.cycles, r.sim_cycles);
        let e2e = r.end_to_end();
        assert!(e2e.iter().all(|m| m.value > 0.0));
        let layers = r.per_layer();
        let mut names: Vec<&str> = layers.iter().map(|m| m.name.as_str()).collect();
        assert!(names.contains(&"sim.ns_per_event") && names.contains(&"host.cpu_s"));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "metric names are used once");
        let line = result_line(&r, &e2e, false);
        assert!(
            line.starts_with(r#"{"correct":true,"attempted":15,"failed":0,"metrics":{"setup_s":"#)
        );
    }
}
