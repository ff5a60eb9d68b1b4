//! End-to-end and per-layer benchmark of the DFX simulator.
//!
//! ```text
//! cargo run --release --manifest-path simbench/Cargo.toml -- \
//!     --workload paper-static-sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One thread, one process, one workload per run. The run repeats
//! passes until `--seconds` have elapsed; each pass builds the
//! simulator objects afresh (timed as set-up, so every memo starts
//! cold) and then runs the workload (timed as the run). `setup_s` is the
//! median over passes (a microsecond set-up is built several times per
//! pass, see [`SETUP_SAMPLE_S`]). `run_s` adds up, for every heavy seam call a pass
//! makes, the fastest time that call took in any pass, plus the fastest
//! remainder of a pass outside those calls; where a workload's calls are
//! too short to time one by one, it is the fastest pass (see the
//! README's Steadiness section). `--trace 1`
//! alternates untraced passes with traced ones and reports per-layer
//! metrics instead of end-to-end ones. The last line of standard output
//! is one JSON object; the lines before it print every metric by name
//! with its unit. See `README.md` for the workloads and metrics.

mod calib;
mod stats;
mod trace;
mod workloads;

use dfx_sim::SimError;
use stats::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::{Recorder, SeamClock, Trace};
use workloads::{
    Bench, FunctionalFp16, Outcome, PaperContinuous, PaperStatic, SimResult, ToyCluster,
};

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;
/// Passes a run makes even when `--seconds` is shorter.
const MIN_PASSES: usize = 3;
/// Host time a pass's set-up builds must add up to. A set-up shorter
/// than this is built again (each earlier build dropped before the next)
/// until its builds reach it, and the pass's sample is the fastest build:
/// a single build of microseconds mostly times cache and page-fault luck.
/// A set-up longer than this is built once.
const SETUP_SAMPLE_S: f64 = 0.01;
/// Calls per entry point in the isa/core probe.
const PROBE_CALLS: usize = 200;

const WORKLOADS: [&str; 4] = [
    "paper-static-sweep",
    "paper-continuous-paged",
    "toy-cluster-least-kv",
    "functional-fp16",
];

/// `(name, unit)` of every end-to-end metric, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("run_s", "s"),
    ("sim_tokens_per_s", "tok/s"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, reported with `--trace 1`.
/// A layer the workload never calls reports 0.
const PER_LAYER: [(&str, &str); 61] = [
    ("serve.engine.self_s", "s"),
    ("serve.engine.dispatches", "count"),
    ("serve.engine.ns_per_dispatch", "ns"),
    ("serve.engine.memo_hit_ratio", "ratio"),
    ("sim.appliance.serve.calls", "count"),
    ("sim.appliance.serve.busy_s", "s"),
    ("sim.appliance.serve.p50_ms", "ms"),
    ("sim.appliance.serve.tail_ms", "ms"),
    ("sim.appliance.serve_batch.calls", "count"),
    ("sim.appliance.serve_batch.busy_s", "s"),
    ("sim.appliance.serve_batch.p50_ms", "ms"),
    ("sim.appliance.serve_batch.tail_ms", "ms"),
    ("sim.appliance.batch_feasible.calls", "count"),
    ("sim.appliance.batch_feasible.busy_s", "s"),
    ("core.step_programs.requested", "count"),
    ("core.step_programs.distinct", "count"),
    ("core.step_programs.redundancy", "ratio"),
    ("sim.stepper.builds", "count"),
    ("sim.stepper.admit.calls", "count"),
    ("sim.stepper.admit.busy_s", "s"),
    ("sim.stepper.admit.p50_us", "us"),
    ("sim.stepper.admit.tail_us", "us"),
    ("sim.stepper.step_token.calls", "count"),
    ("sim.stepper.step_token.busy_s", "s"),
    ("sim.stepper.step_token.p50_us", "us"),
    ("sim.stepper.step_token.tail_us", "us"),
    ("sim.stepper.estimate.calls", "count"),
    ("sim.stepper.estimate.busy_s", "s"),
    ("sim.stepper.mean_live_batch", "count"),
    ("sim.paging.preemptions", "count"),
    ("sim.paging.swap_outs", "count"),
    ("sim.paging.prefix_hit_ratio", "ratio"),
    ("sim.paging.peak_blocks_in_use", "count"),
    ("serve.cluster.self_s", "s"),
    ("serve.cluster.ns_per_request", "ns"),
    ("serve.telemetry.record_s", "s"),
    ("serve.telemetry.render_s", "s"),
    ("serve.telemetry.validate_s", "s"),
    ("serve.telemetry.samples", "count"),
    ("isa.token_step.p50_us", "us"),
    ("isa.token_step.tail_us", "us"),
    ("core.time_step_batched.b1_p50_us", "us"),
    ("core.time_step_batched.b8_p50_us", "us"),
    ("model.gpt2_f32.busy_s", "s"),
    ("model.gpt2_f16.busy_s", "s"),
    ("sim.functional_cluster.busy_s", "s"),
    ("sim.functional_cluster.p50_ms", "ms"),
    ("sim.functional_cluster.tail_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("sim.service.static.ttft_p99_ms", "ms"),
    ("sim.service.static.goodput_tok_s", "tok/s"),
    ("sim.service.static.slo_rate_per_s", "1/s"),
    ("sim.service.continuous.ttft_p99_ms", "ms"),
    ("sim.service.continuous.itl_p99_ms", "ms"),
    ("sim.service.continuous.goodput_tok_s", "tok/s"),
    ("sim.service.continuous.slo_rate_per_s", "1/s"),
    ("sim.service.cluster.ttft_p99_ms", "ms"),
    ("sim.service.cluster.itl_p99_ms", "ms"),
    ("sim.service.cluster.goodput_tok_s", "tok/s"),
    ("sim.accuracy.fp16_agreement", "ratio"),
    ("check.error_rate", "ratio"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    format!(
        "usage: simbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    )
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload `{}`", args.workload));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let seed = args.seed;
    match args.workload.as_str() {
        "paper-static-sweep" => bench(&PaperStatic { seed }, &args),
        "paper-continuous-paged" => bench(&PaperContinuous { seed }, &args),
        "toy-cluster-least-kv" => bench(&ToyCluster { seed }, &args),
        _ => bench(&FunctionalFp16 { seed }, &args),
    }
    ExitCode::SUCCESS
}

fn bench<B: Bench>(bench: &B, args: &Args) {
    let run = measure(bench, args);
    report(bench, args, run);
}

/// One pass: the timed set-up, then the timed run.
struct Pass {
    setup_s: f64,
    run_s: f64,
    /// Host seconds of each heavy seam call, in call order (untraced).
    calls: Vec<f64>,
    outcome: Result<Outcome, String>,
    trace: Option<Trace>,
}

fn run_pass<B: Bench>(bench: &B, traced: bool) -> Pass {
    let (mut setup_s, mut built_s) = (f64::INFINITY, 0.0);
    let built = loop {
        let start = Instant::now();
        let built = bench.setup();
        let elapsed = start.elapsed().as_secs_f64();
        setup_s = setup_s.min(elapsed);
        built_s += elapsed;
        if built.is_err() || built_s >= SETUP_SAMPLE_S {
            break built;
        }
    };
    let mut setup = match built {
        Ok(setup) => setup,
        Err(e) => {
            return Pass {
                setup_s,
                run_s: 0.0,
                calls: Vec::new(),
                outcome: Err(format!("set-up failed: {e}")),
                trace: None,
            }
        }
    };
    let rec = traced.then(Recorder::new);
    let clock = SeamClock::default();
    let start = Instant::now();
    let outcome = bench.run(&mut setup, rec.as_ref(), &clock);
    let run_s = start.elapsed().as_secs_f64();
    Pass {
        setup_s,
        run_s,
        calls: clock.finish(),
        outcome: outcome.map_err(|e| format!("run failed: {e}")),
        trace: rec.map(Recorder::finish),
    }
}

/// Accumulates passes into the run's result.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    /// Counts a pass's operations; a pass whose checks fail counts all
    /// of them as failed.
    fn pass(&mut self, operations: u64, problems: Vec<String>) {
        self.attempted += operations;
        if !problems.is_empty() {
            self.failed += operations;
            for p in problems {
                if !self.problems.contains(&p) {
                    self.problems.push(p);
                }
            }
        }
    }

    fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Everything a run collects from its passes.
#[derive(Default)]
struct Run {
    tally: Tally,
    setup_s: Vec<f64>,
    run_s: Vec<f64>,
    /// The fastest time of each heavy seam call over the untraced passes.
    fastest_calls: Vec<f64>,
    /// Each untraced pass's run time outside its heavy seam calls.
    rest_s: Vec<f64>,
    /// The reference kernel's fastest time after each untraced pass.
    kernel_s: Vec<f64>,
    /// The first untraced pass's outcome, which every later pass must
    /// reproduce.
    first: Option<Outcome>,
    traced_run_s: Vec<f64>,
    /// `(run_s, per-layer figures)` of each traced pass.
    layers: Vec<(f64, BTreeMap<String, f64>)>,
    last_trace: Option<Trace>,
}

impl Run {
    fn untraced_pass<B: Bench>(
        &mut self,
        bench: &B,
        reference: &Option<Result<SimResult, SimError>>,
    ) {
        let pass = run_pass(bench, false);
        self.setup_s.push(pass.setup_s);
        self.run_s.push(pass.run_s);
        self.rest_s.push(pass.run_s - total(&pass.calls));
        let mut problems = Vec::new();
        if self.run_s.len() == 1 {
            self.fastest_calls = pass.calls;
        } else if pass.calls.len() == self.fastest_calls.len() {
            for (fastest, call) in self.fastest_calls.iter_mut().zip(pass.calls) {
                *fastest = fastest.min(call);
            }
        } else {
            problems.push("seam calls differ between passes".into());
        }
        match pass.outcome {
            Ok(outcome) => {
                problems.extend(outcome.problems.iter().cloned());
                match reference {
                    Some(Ok(expected)) if *expected != outcome.result => {
                        problems.push("simulated result differs from the reference".into())
                    }
                    Some(Err(e)) => problems.push(format!("reference failed: {e}")),
                    _ => {}
                }
                match &self.first {
                    Some(f) if f.result != outcome.result || f.digest != outcome.digest => {
                        problems.push("simulated result differs between passes".into())
                    }
                    Some(_) => {}
                    None => self.first = Some(outcome.clone()),
                }
            }
            Err(e) => problems.push(e),
        }
        self.tally.pass(bench.operations(), problems);
    }

    /// The run's raw host-time figure: every heavy seam call at its
    /// fastest, plus the fastest remainder. With no seam calls timed this
    /// is the fastest pass.
    fn raw_run_s(&self) -> f64 {
        let rest = Summary::of(&self.rest_s).min;
        total(&self.fastest_calls) + rest
    }

    /// How much faster than the reference host this one ran during the
    /// run, by the reference kernel's fastest time (see `calib`).
    fn host_speed(&self) -> f64 {
        calib::REFERENCE_KERNEL_S / Summary::of(&self.kernel_s).min
    }

    fn traced_pass<B: Bench>(&mut self, bench: &B) {
        let pass = run_pass(bench, true);
        let mut problems = Vec::new();
        match (pass.outcome, pass.trace, &self.first) {
            (Ok(outcome), Some(trace), Some(untraced)) => {
                problems.extend(outcome.problems.iter().cloned());
                if outcome.result != untraced.result || outcome.digest != untraced.digest {
                    problems.push("traced result differs from the untraced run".into());
                }
                problems.extend(seam_problems(&trace, &outcome));
                self.layers
                    .push((pass.run_s, layer_metrics(&trace, &outcome)));
                self.traced_run_s.push(pass.run_s);
                self.last_trace = Some(trace);
            }
            (Err(e), _, _) => problems.push(e),
            _ => problems.push("traced pass recorded nothing".into()),
        }
        self.tally.pass(bench.operations(), problems);
    }
}

/// Repeats passes for `--seconds` (at least [`MIN_PASSES`]); with
/// `--trace 1` every untraced pass is followed by a traced one. A failed
/// pass ends the run.
fn measure<B: Bench>(bench: &B, args: &Args) -> Run {
    let reference = bench.reference();
    let mut run = Run::default();
    let start = Instant::now();
    while run.run_s.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds {
        run.untraced_pass(bench, &reference);
        run.kernel_s
            .push(calib::fastest_kernel_s(calib::RUNS_PER_GAUGE));
        if args.trace && run.tally.failed == 0 {
            run.traced_pass(bench);
        }
        if run.tally.failed > 0 {
            break;
        }
    }
    run
}

/// Prints the human-readable lines and, last, the JSON result.
fn report<B: Bench>(bench: &B, args: &Args, mut run: Run) {
    let correct = run.tally.failed == 0;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}  seed {}  passes {}  trace {}",
        args.workload,
        args.seed,
        run.run_s.len(),
        if args.trace { "on" } else { "off" }
    );
    if let Some(f) = &run.first {
        let _ = writeln!(out, "simulated outputs: digest {:#018x}", f.digest);
        for sweep in &f.sweeps {
            for (rate, ttft, itl, goodput) in &sweep.points {
                let _ = writeln!(
                    out,
                    "  sim {} rate {rate} req/s: ttft_p99 {ttft:.3} ms  itl_p99 {itl:.3} ms  \
                     goodput {goodput:.3} tok/s",
                    sweep.path
                );
            }
            if sweep.path != "cluster" {
                let _ = writeln!(
                    out,
                    "  sim {} slo_rate {} req/s",
                    sweep.path, sweep.slo_rate_per_s
                );
            }
        }
        if let SimResult::Accuracy(results) = &f.result {
            for r in results {
                let _ = writeln!(
                    out,
                    "  sim {}: dfx_agreement {:.4}  gpu_fp16_agreement {:.4}  ({} items)",
                    r.name, r.dfx_agreement, r.gpu_fp16_agreement, r.items
                );
            }
        }
    }
    let _ = writeln!(
        out,
        "check: {}  error_rate {} ({} of {} operations failed)",
        if correct { "ok" } else { "FAILED" },
        run.tally.error_rate(),
        run.tally.failed,
        run.tally.attempted
    );
    for p in &run.tally.problems {
        let _ = writeln!(out, "  problem: {p}");
    }
    let setup = Summary::of(&run.setup_s);
    let run_s = Summary::of(&run.run_s);
    let _ = writeln!(out, "host setup_s: {}", setup.describe());
    let _ = writeln!(out, "host setup_s per pass: {:.9?}", run.setup_s);
    let _ = writeln!(out, "host run_s:   {}", run_s.describe());
    let _ = writeln!(out, "host run_s per pass: {:.6?}", run.run_s);
    let _ = writeln!(
        out,
        "host run_s raw: {} seam calls at their fastest {:.6} s + fastest remainder {:.6} s",
        run.fastest_calls.len(),
        total(&run.fastest_calls),
        Summary::of(&run.rest_s).min
    );
    let speed = run.host_speed();
    let _ = writeln!(
        out,
        "host speed: reference kernel at its fastest {:.3} us, {speed:.4}x the reference host",
        Summary::of(&run.kernel_s).min * 1e6
    );

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if args.trace {
        // The traced pass with the median run time supplies the layer
        // figures, so they describe one consistent pass.
        run.layers.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut values = run
            .layers
            .get(run.layers.len().saturating_sub(1) / 2)
            .map(|(_, v)| v.clone())
            .unwrap_or_default();
        let traced = Summary::of(&run.traced_run_s);
        let _ = writeln!(out, "host traced run_s: {}", traced.describe());
        values.insert("trace.overhead_ratio".into(), traced.min / run_s.min);
        values.insert("check.error_rate".into(), run.tally.error_rate());
        for (name, value) in probe(bench, args.seed) {
            values.insert(name.into(), value);
        }
        for (name, unit) in PER_LAYER {
            metrics.push((name, values.get(name).copied().unwrap_or(0.0), unit));
        }
        if let Some(trace) = &run.last_trace {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("out")
                .join(format!("spans-{}.jsonl", args.workload));
            let _ = match trace.write(&path) {
                Ok(()) => writeln!(
                    out,
                    "spans: {} written to {}",
                    trace.spans.len(),
                    path.display()
                ),
                Err(e) => writeln!(out, "spans: could not write {}: {e}", path.display()),
            };
        }
    } else {
        // Host times scaled to the reference host (see `calib`).
        let estimate = run.raw_run_s() * speed;
        let values = [
            setup.median * speed,
            estimate,
            // Every pass completes the same simulated work (checked).
            run.first.as_ref().map_or(0, |f| f.sim_tokens) as f64 / estimate,
            peak_rss_mb().unwrap_or(0.0),
        ];
        for ((name, unit), value) in END_TO_END.into_iter().zip(values) {
            metrics.push((name, value, unit));
        }
    }
    for (name, value, unit) in &metrics {
        let _ = writeln!(out, "metric {name:<38} {value:>18.9} {unit}");
    }
    print!("{out}");

    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        run.tally.attempted, run.tally.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    json.push_str("}}");
    println!("{json}");
}

fn total(values: &[f64]) -> f64 {
    values.iter().fold(0.0, |a, v| a + v)
}

/// A finite JSON number with every digit Rust prints for the value.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// The process's resident-set high-water mark, MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Checks that need the trace: the stepper seam emitted exactly the
/// output tokens the requests asked for, when no router replay re-ran a
/// sub-stream.
fn seam_problems(trace: &Trace, outcome: &Outcome) -> Vec<String> {
    let builds = trace.calls("sim.stepper.build");
    if builds == 0 || builds != outcome.expected_builds {
        return Vec::new();
    }
    let emitted = trace.counter("sim.stepper.tokens");
    if emitted != outcome.stepper_tokens as f64 {
        return vec![format!(
            "stepper emitted {emitted} tokens for {} asked",
            outcome.stepper_tokens
        )];
    }
    Vec::new()
}

/// Per-layer figures of one traced pass.
fn layer_metrics(t: &Trace, o: &Outcome) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_string(), value);
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };

    // The router drives its replica engines itself, so on the cluster
    // the engine's self time is the router's.
    let engine_self = t.self_s("serve.engine.run") + t.self_s("serve.cluster.run");
    let dispatches = o.dispatches as f64;
    put("serve.engine.self_s", engine_self);
    put("serve.engine.dispatches", dispatches);
    put(
        "serve.engine.ns_per_dispatch",
        ratio(engine_self * 1e9, dispatches),
    );
    if o.static_dispatches > 0 {
        let backend_calls = t.calls("sim.appliance.serve") + t.calls("sim.appliance.serve_batch");
        put(
            "serve.engine.memo_hit_ratio",
            1.0 - ratio(backend_calls as f64, o.static_dispatches as f64),
        );
    }

    for op in ["sim.appliance.serve", "sim.appliance.serve_batch"] {
        let s = t.summary(op);
        put(&format!("{op}.calls"), s.count as f64);
        put(&format!("{op}.busy_s"), t.busy_s(op));
        put(&format!("{op}.p50_ms"), s.median * 1e3);
        put(&format!("{op}.tail_ms"), s.tail_or_median() * 1e3);
    }
    let op = "sim.appliance.batch_feasible";
    put(&format!("{op}.calls"), t.calls(op) as f64);
    put(&format!("{op}.busy_s"), t.busy_s(op));

    let requested = t.counter("core.step_programs.requested");
    let distinct = t.counter("core.step_programs.distinct");
    put("core.step_programs.requested", requested);
    put("core.step_programs.distinct", distinct);
    put("core.step_programs.redundancy", ratio(requested, distinct));

    put("sim.stepper.builds", t.calls("sim.stepper.build") as f64);
    for op in ["sim.stepper.admit", "sim.stepper.step_token"] {
        let s = t.summary(op);
        put(&format!("{op}.calls"), s.count as f64);
        put(&format!("{op}.busy_s"), t.busy_s(op));
        put(&format!("{op}.p50_us"), s.median * 1e6);
        put(&format!("{op}.tail_us"), s.tail_or_median() * 1e6);
    }
    let op = "sim.stepper.estimate";
    put(&format!("{op}.calls"), t.calls(op) as f64);
    put(&format!("{op}.busy_s"), t.busy_s(op));
    put(
        "sim.stepper.mean_live_batch",
        ratio(
            t.counter("sim.stepper.stepped_members"),
            t.calls("sim.stepper.step_token") as f64,
        ),
    );

    if let Some(p) = &o.paging {
        put("sim.paging.preemptions", p.preemptions as f64);
        put("sim.paging.swap_outs", p.swap_outs as f64);
        put("sim.paging.prefix_hit_ratio", p.hit_rate());
        put("sim.paging.peak_blocks_in_use", p.peak_blocks_in_use as f64);
    }

    let cluster_self = t.self_s("serve.cluster.run");
    put("serve.cluster.self_s", cluster_self);
    if let SimResult::Cluster(report) = &o.result {
        put(
            "serve.cluster.ns_per_request",
            ratio(cluster_self * 1e9, report.total_requests as f64),
        );
    }
    for stage in ["record", "render", "validate"] {
        put(
            &format!("serve.telemetry.{stage}_s"),
            t.busy_s(&format!("serve.telemetry.{stage}")),
        );
    }
    put("serve.telemetry.samples", o.telemetry_samples);

    put("model.gpt2_f32.busy_s", t.busy_s("model.gpt2_f32.generate"));
    put("model.gpt2_f16.busy_s", t.busy_s("model.gpt2_f16.generate"));
    let op = "sim.functional_cluster.generate";
    let s = t.summary(op);
    put("sim.functional_cluster.busy_s", t.busy_s(op));
    put("sim.functional_cluster.p50_ms", s.median * 1e3);
    put("sim.functional_cluster.tail_ms", s.tail_or_median() * 1e3);

    for sweep in &o.sweeps {
        // The figures at the sweep's highest rate point.
        if let Some(&(_, ttft, itl, goodput)) = sweep.points.last() {
            let path = sweep.path;
            put(&format!("sim.service.{path}.ttft_p99_ms"), ttft);
            put(&format!("sim.service.{path}.itl_p99_ms"), itl);
            put(&format!("sim.service.{path}.goodput_tok_s"), goodput);
            put(
                &format!("sim.service.{path}.slo_rate_per_s"),
                sweep.slo_rate_per_s,
            );
        }
    }
    put("sim.accuracy.fp16_agreement", o.fp16_agreement);
    m
}

/// Times `ProgramBuilder::token_step` and `TimingCore::time_step_batched`
/// at batch 1 and 8 on positions drawn from the workload's request shapes.
fn probe<B: Bench>(bench: &B, seed: u64) -> Vec<(&'static str, f64)> {
    use dfx_core::{CoreParams, TimingCore};
    use dfx_isa::{ParallelConfig, ProgramBuilder};
    use rand::{Rng, SeedableRng};
    use std::hint::black_box;

    let (cfg, devices, shapes) = bench.probe_model();
    let Ok(builder) = ProgramBuilder::new(cfg, ParallelConfig::new(0, devices)) else {
        return Vec::new();
    };
    let core = TimingCore::new(CoreParams::default(), devices as u32);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let (mut build, mut b1, mut b8) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..PROBE_CALLS {
        let w = shapes[i % shapes.len()];
        let pos = rng.gen_range(0..(w.input_len + w.output_len - 1).max(1));
        let lm = pos + 1 >= w.input_len;
        let start = Instant::now();
        let program = black_box(builder.token_step(black_box(pos), lm));
        build.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(core.time_step_batched(&program, 1));
        b1.push(start.elapsed().as_secs_f64());
        let start = Instant::now();
        black_box(core.time_step_batched(&program, 8));
        b8.push(start.elapsed().as_secs_f64());
    }
    let build = Summary::of(&build);
    vec![
        ("isa.token_step.p50_us", build.median * 1e6),
        ("isa.token_step.tail_us", build.tail_or_median() * 1e6),
        (
            "core.time_step_batched.b1_p50_us",
            Summary::of(&b1).median * 1e6,
        ),
        (
            "core.time_step_batched.b8_p50_us",
            Summary::of(&b8).median * 1e6,
        ),
    ]
}
