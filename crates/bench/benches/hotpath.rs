//! Simulator hot-path throughput: the tracked perf trajectory.
//!
//! Not a criterion bench — this is a plain binary (`harness = false`)
//! that drives the serving engine's three hot paths at realistic scale,
//! measures wall-clock throughput, and writes one line-oriented JSON
//! record per shape to `BENCH_hotpath.json` at the repo root (schema
//! `dfx-hotpath-v1`, one JSON object per line):
//!
//! ```json
//! {"schema":"dfx-hotpath-v1"}
//! {"shape":"static-fifo","requests":100000,"wall_ms":...,"requests_per_sec":...,"events":...,"events_per_sec":...}
//! ```
//!
//! Shapes:
//!
//! - `static-fifo` — the static dispatch path: heap-ordered arrivals,
//!   memoized service times, 10⁵ requests through FIFO.
//! - `continuous-batching` — the token-boundary path: admission seam,
//!   per-token stepping, early exit, at max batch 8.
//! - `cluster-least-kv` — the routed tier: 10⁵ requests over 4
//!   memory-modelled replicas under `LeastKvLoaded`, every arrival
//!   snapshotting all replicas through incremental checkpoints.
//!
//! `events` counts engine dispatches (batch launches on the static
//! path; admissions + token steps on the continuous path), so
//! `events_per_sec` tracks raw event-loop throughput independent of
//! batch shape.
//!
//! Usage:
//!
//! ```text
//! cargo bench -p dfx-bench --bench hotpath            # run + write baseline
//! cargo bench -p dfx-bench --bench hotpath -- --check # compare against the
//!                                                     # committed baseline,
//!                                                     # exit 1 on >2x regression
//! cargo bench -p dfx-bench --bench hotpath -- --out /tmp/hp.json
//! ```
//!
//! Arrival rates derive from the model's own simulated service time
//! (60% of batch-1 capacity), so queues stay short and the measured
//! cost is the event loop, not backlog scanning; the simulated numbers
//! are deterministic — only the wall-clock columns vary across machines,
//! which is why the regression gate is a loose 2x.

use dfx_model::{GptConfig, Workload};
use dfx_serve::{
    ArrivalProcess, Backend, ClusterRouter, ContinuousBatching, Fifo, LeastKvLoaded, ServingEngine,
};
use dfx_sim::Appliance;

/// One measured shape, serialized as a single JSON line.
struct Entry {
    shape: &'static str,
    requests: usize,
    wall_ms: f64,
    events: usize,
}

impl Entry {
    fn to_json(&self) -> String {
        let wall_s = (self.wall_ms / 1e3).max(f64::MIN_POSITIVE);
        format!(
            "{{\"shape\":\"{}\",\"requests\":{},\"wall_ms\":{:.1},\"requests_per_sec\":{:.1},\
             \"events\":{},\"events_per_sec\":{:.1}}}",
            self.shape,
            self.requests,
            self.wall_ms,
            self.requests as f64 / wall_s,
            self.events,
            self.events as f64 / wall_s,
        )
    }
}

/// The benchmark's model: small enough that a 10⁵-request sweep is a
/// few wall-clock seconds, large enough that the timing math is real.
fn bench_cfg() -> GptConfig {
    GptConfig::new("hotpath", 64, 2, 2, 512, 640)
}

/// A short-decode request mix cycling a few shapes, so the static
/// memo sees repeats (its designed regime) and token counts stay small.
fn bench_mix(n: usize) -> Vec<Workload> {
    (0..n)
        .map(|i| Workload::new(16 + (i % 4) * 8, 4 + (i % 3) * 2))
        .collect()
}

/// 60% of one server's batch-1 capacity for the probe workload, req/s.
fn sustainable_rate(backend: &dyn Backend) -> f64 {
    let probe_ms = backend
        .serve(Workload::new(32, 8))
        .expect("probe workload serves")
        .total_ms();
    600.0 / probe_ms
}

fn run_static(n: usize) -> Entry {
    let appliance = Appliance::timing_only(bench_cfg(), 1).expect("partitionable");
    let mix = bench_mix(n);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: sustainable_rate(&appliance),
        seed: 0x5EED,
    };
    // lint: allow(ambient-time, wall-clock throughput is this bench's measurement, not a simulated quantity)
    let start = std::time::Instant::now();
    let report = ServingEngine::new(&appliance)
        .with_scheduler(Box::new(Fifo))
        .run(&mix, &arrivals)
        .expect("static sweep runs");
    Entry {
        shape: "static-fifo",
        requests: n,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        events: report.dispatches,
    }
}

fn run_continuous(n: usize) -> Entry {
    let appliance = Appliance::timing_only(bench_cfg(), 1).expect("partitionable");
    let mix = bench_mix(n);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: sustainable_rate(&appliance),
        seed: 0x5EED,
    };
    // lint: allow(ambient-time, wall-clock throughput is this bench's measurement, not a simulated quantity)
    let start = std::time::Instant::now();
    let report = ServingEngine::new(&appliance)
        .with_scheduler(Box::new(ContinuousBatching::new(8)))
        .run(&mix, &arrivals)
        .expect("continuous sweep runs");
    Entry {
        shape: "continuous-batching",
        requests: n,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        events: report.dispatches,
    }
}

fn run_cluster(n: usize) -> Entry {
    let replicas: Vec<Appliance> = (0..4)
        .map(|_| Appliance::timing_only(bench_cfg(), 1).expect("partitionable"))
        .collect();
    let mix = bench_mix(n);
    let arrivals = ArrivalProcess::Poisson {
        rate_per_s: 4.0 * sustainable_rate(&replicas[0]),
        seed: 0x5EED,
    };
    // lint: allow(ambient-time, wall-clock throughput is this bench's measurement, not a simulated quantity)
    let start = std::time::Instant::now();
    let servers: Vec<&dyn Backend> = replicas.iter().map(|a| a as &dyn Backend).collect();
    let report = ClusterRouter::uniform(servers, Box::new(LeastKvLoaded))
        .expect("non-empty pool")
        .with_scheduler_factory(|| Box::new(ContinuousBatching::new(8)))
        .run(&mix, &arrivals)
        .expect("cluster sweep runs");
    let events: usize = report
        .replicas
        .iter()
        .filter_map(|r| r.report.as_ref())
        .map(|r| r.dispatches)
        .sum();
    Entry {
        shape: "cluster-least-kv",
        requests: n,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        events,
    }
}

/// Pulls `"requests_per_sec":<f64>` out of one baseline JSON line.
fn parse_rps(line: &str) -> Option<f64> {
    let rest = line.split("\"requests_per_sec\":").nth(1)?;
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

/// Pulls `"shape":"<name>"` out of one baseline JSON line.
fn parse_shape(line: &str) -> Option<&str> {
    let rest = line.split("\"shape\":\"").nth(1)?;
    Some(&rest[..rest.find('"')?])
}

fn main() {
    let default_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    let mut check = false;
    let mut out_path = default_path.to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => out_path = args.next().expect("--out needs a path"),
            // cargo-bench forwards its own flags (e.g. --bench); ignore.
            _ => {}
        }
    }

    let entries = [
        run_static(100_000),
        run_continuous(50_000),
        run_cluster(100_000),
    ];
    let mut doc = String::from("{\"schema\":\"dfx-hotpath-v1\"}\n");
    for e in &entries {
        let line = e.to_json();
        eprintln!("[hotpath] {line}");
        doc.push_str(&line);
        doc.push('\n');
    }

    if check {
        let baseline = std::fs::read_to_string(default_path).expect("committed baseline exists");
        let mut regressed = false;
        for e in &entries {
            let Some(base_rps) = baseline
                .lines()
                .find(|l| parse_shape(l) == Some(e.shape))
                .and_then(parse_rps)
            else {
                eprintln!("[hotpath] no baseline entry for {} — skipping", e.shape);
                continue;
            };
            let rps = e.requests as f64 / (e.wall_ms / 1e3).max(f64::MIN_POSITIVE);
            if rps * 2.0 < base_rps {
                eprintln!(
                    "[hotpath] REGRESSION: {} at {rps:.1} req/s, baseline {base_rps:.1} (>2x slower)",
                    e.shape
                );
                regressed = true;
            } else {
                eprintln!(
                    "[hotpath] {} ok: {rps:.1} req/s vs baseline {base_rps:.1}",
                    e.shape
                );
            }
        }
        if regressed {
            std::process::exit(1);
        }
    } else {
        std::fs::write(&out_path, doc).expect("write benchmark output");
        eprintln!("[hotpath] wrote {out_path}");
    }
}
