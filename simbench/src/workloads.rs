//! The four workloads: inputs drawn from the seed, one timed pass each,
//! and the checks on what the pass produced.
//!
//! Every input the simulator sees is generated here from `--seed`:
//! request lengths and Poisson arrival gaps, both drawn from stratified
//! uniforms (see [`stratified`]), with the arrivals handed over as
//! `ArrivalProcess::Trace`. Load is open-loop in simulated time.

use crate::stats::Digest;
use crate::trace::{ClockedBackend, Recorder, SeamClock, TracedBackend};
use dfx_model::{Gpt2Model, GptConfig, GptWeights, Workload};
use dfx_num::F16;
use dfx_serve::telemetry::{self, Labels, MetricsRegistry};
use dfx_serve::{
    ArrivalProcess, Backend, Batching, ClusterReport, ClusterRouter, ContinuousBatching,
    LeastKvLoaded, ServiceReport, ServingEngine,
};
use dfx_sim::{
    run_accuracy, AccuracyResult, AccuracyTask, Appliance, FunctionalCluster, PagedKvConfig,
    PagingStats, PreemptionPolicy, SimError,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulated outputs of one pass, compared exactly between passes and
/// between the traced and untraced runs.
#[derive(Debug, Clone, PartialEq)]
pub enum SimResult {
    Service(Vec<ServiceReport>),
    Cluster(Box<ClusterReport>),
    Accuracy(Vec<AccuracyResult>),
}

/// What one pass produced, plus the deterministic facts the per-layer
/// metrics read off the reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub result: SimResult,
    /// Failed output checks; empty when the pass is correct.
    pub problems: Vec<String>,
    /// Simulated prompt and generated tokens the pass completed.
    pub sim_tokens: u64,
    /// Output tokens the token-boundary (stepper) runs asked for.
    pub stepper_tokens: u64,
    pub digest: u64,
    /// Engine dispatches summed over the pass's engine runs.
    pub dispatches: u64,
    /// The part of `dispatches` made on the static (memoized) path.
    pub static_dispatches: u64,
    /// Stepper builds a pass makes without router replay fallbacks.
    pub expected_builds: usize,
    pub paging: Option<PagingStats>,
    pub telemetry_samples: f64,
    /// Simulated service figures, one entry per serving path the pass ran.
    pub sweeps: Vec<Sweep>,
    pub fp16_agreement: f64,
}

impl Default for SimResult {
    fn default() -> Self {
        SimResult::Service(Vec::new())
    }
}

/// Simulated figures of one serving path's rate sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// `static`, `continuous` or `cluster`.
    pub path: &'static str,
    /// `(rate, p99 TTFT ms, p99 ITL ms, goodput tok/s)` per rate point.
    pub points: Vec<(f64, f64, f64, f64)>,
    /// Highest swept rate meeting the path's [`Slo`], 0 if none does.
    pub slo_rate_per_s: f64,
}

/// One workload: a set-up that builds the simulator objects and inputs,
/// and a timed pass over them.
pub trait Bench {
    type Setup;
    /// Operations one pass attempts (requests, or scored items).
    fn operations(&self) -> u64;
    fn setup(&self) -> Result<Self::Setup, SimError>;
    /// Runs one pass; with a recorder, every seam call is traced, and
    /// without one the workloads whose seam calls are coarse time each
    /// heavy call on `clock`.
    fn run(
        &self,
        setup: &mut Self::Setup,
        rec: Option<&Recorder>,
        clock: &SeamClock,
    ) -> Result<Outcome, SimError>;
    /// An independent computation of the expected simulated result, made
    /// once per run outside the timed phase, where one exists.
    fn reference(&self) -> Option<Result<SimResult, SimError>> {
        None
    }
    /// The model and device count behind the isa/core probe, and request
    /// shapes drawn from this workload's length distribution.
    fn probe_model(&self) -> (GptConfig, usize, Vec<Workload>);
}

/// `Backend::continuous` calls per token-boundary engine state: a
/// capability check, then the stepper the engine drives.
const BUILDS_PER_ENGINE: usize = 2;

/// The backend a pass drives: the traced wrapper when there is one.
fn seam<'a>(traced: &'a Option<TracedBackend<'a>>, bare: &'a Appliance) -> &'a dyn Backend {
    match traced {
        Some(t) => t,
        None => bare,
    }
}

/// The backend a paper-scale pass drives: traced with a recorder,
/// otherwise timed per heavy call on `clock`.
fn clocked_seam<'a>(
    bare: &'a Appliance,
    rec: Option<&'a Recorder>,
    clock: &'a SeamClock,
) -> Box<dyn Backend + 'a> {
    match rec {
        Some(rec) => Box::new(TracedBackend::new(bare, rec)),
        None => Box::new(ClockedBackend::new(bare, clock)),
    }
}

fn within<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(rec) => rec.span(name, None, f),
        None => f(),
    }
}

/// A request stream: per-request shapes and their arrival instants.
#[derive(Debug, Clone)]
pub struct Stream {
    pub rate_per_s: f64,
    pub workloads: Vec<Workload>,
    pub arrivals_ms: Vec<f64>,
    pub process: ArrivalProcess,
}

/// `n` uniforms in `[0, 1)`, one per stratum of width `1/n`, shuffled:
/// every draw varies with the seed while their spread barely does, which
/// keeps a pass's host cost comparable across seeds.
fn stratified(rng: &mut StdRng, n: usize) -> Vec<f64> {
    let mut u: Vec<f64> = (0..n)
        .map(|i| (i as f64 + rng.gen::<f64>()) / n as f64)
        .collect();
    for i in (1..n).rev() {
        u.swap(i, rng.gen_range(0..=i));
    }
    u
}

/// `n` lengths in `lo..=hi`, from stratified uniforms.
fn lengths(rng: &mut StdRng, n: usize, (lo, hi): (usize, usize)) -> Vec<usize> {
    let span = (hi - lo + 1) as f64;
    stratified(rng, n)
        .into_iter()
        .map(|u| lo + ((u * span) as usize).min(hi - lo))
        .collect()
}

fn stream(
    rng: &mut StdRng,
    n: usize,
    input: (usize, usize),
    output: (usize, usize),
    rate_per_s: f64,
) -> Stream {
    let inputs = lengths(rng, n, input);
    let outputs = lengths(rng, n, output);
    let workloads = inputs
        .into_iter()
        .zip(outputs)
        .map(|(i, o)| Workload::new(i, o))
        .collect();
    // Poisson arrivals: exponential gaps at `rate_per_s` by inverse
    // transform of stratified uniforms.
    let mut t = 0.0;
    let arrivals_ms: Vec<f64> = stratified(rng, n)
        .into_iter()
        .map(|u| {
            t += -(1.0 - u).ln() / rate_per_s * 1e3;
            t
        })
        .collect();
    Stream {
        rate_per_s,
        workloads,
        process: ArrivalProcess::Trace(arrivals_ms.clone()),
        arrivals_ms,
    }
}

/// Shapes for the isa/core probe, drawn like a workload's requests.
fn probe_shapes(seed: u64, input: (usize, usize), output: (usize, usize)) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9E0B_E5EE_D000_0001);
    stream(&mut rng, 64, input, output, 1.0).workloads
}

/// Simulated-latency limits behind the SLO rate: the highest swept rate
/// whose p99 TTFT and p99 ITL both meet them.
#[derive(Debug, Clone, Copy)]
pub struct Slo {
    pub ttft_p99_ms: f64,
    pub itl_p99_ms: f64,
}

fn digest_report(d: &mut Digest, r: &ServiceReport) {
    d.u64(r.responses.len() as u64);
    for resp in &r.responses {
        d.u64(resp.request.id);
        d.u64(resp.server as u64);
        d.f64(resp.request.arrival_ms);
        d.f64(resp.start_ms);
        d.f64(resp.finish_ms);
    }
    for v in [
        r.makespan_ms,
        r.mean_queue_depth,
        r.utilization,
        r.goodput_tps,
        r.energy_j.unwrap_or(-1.0),
    ] {
        d.f64(v);
    }
    d.u64(r.dispatches as u64);
    d.u64(r.peak_live_batch as u64);
    d.f64s(r.sorted_ttfts());
    d.f64s(r.sorted_token_gaps());
    if let Some(p) = &r.paging {
        for v in [
            p.total_blocks,
            p.peak_blocks_in_use,
            p.peak_fragmentation_tokens,
            p.prefix_hit_tokens,
            p.prefix_computed_tokens,
            p.preemptions,
            p.swap_outs,
        ] {
            d.u64(v as u64);
        }
    }
}

/// Whether `values` never decrease (false when any is NaN).
fn ascending(values: &[f64]) -> bool {
    values.windows(2).all(|w| w[0] <= w[1])
}

/// Checks one engine report against the stream it served: every request
/// answered exactly once with its own workload and arrival, arrival ≤
/// start ≤ finish, output tokens conserved, and the TTFT samples between
/// each request's wait and its sojourn (checked on order statistics,
/// since the report exposes TTFTs sorted).
fn check_service(label: &str, s: &Stream, r: &ServiceReport, problems: &mut Vec<String>) {
    let n = s.workloads.len();
    if r.responses.len() != n {
        problems.push(format!(
            "{label}: {} responses for {n} requests",
            r.responses.len()
        ));
        return;
    }
    let mut seen = vec![false; n];
    for resp in &r.responses {
        let id = resp.request.id as usize;
        if id >= n || std::mem::replace(&mut seen[id], true) {
            problems.push(format!("{label}: request {id} answered twice or unknown"));
            return;
        }
        if resp.request.workload != s.workloads[id]
            || resp.request.arrival_ms.to_bits() != s.arrivals_ms[id].to_bits()
        {
            problems.push(format!(
                "{label}: request {id} answered with another request"
            ));
            return;
        }
        let causal = ascending(&[resp.request.arrival_ms, resp.start_ms, resp.finish_ms]);
        if !(causal && resp.finish_ms.is_finite()) {
            problems.push(format!(
                "{label}: request {id} violates arrival ≤ start ≤ finish"
            ));
            return;
        }
    }
    let mut waits: Vec<f64> = r.responses.iter().map(|x| x.wait_ms()).collect();
    waits.sort_by(f64::total_cmp);
    let ttfts = r.sorted_ttfts();
    let sojourns = r.sorted_sojourns();
    if ttfts.len() != n || (0..n).any(|k| !ascending(&[waits[k], ttfts[k], sojourns[k]])) {
        problems.push(format!("{label}: TTFTs fall outside [wait, sojourn]"));
    }
    if r.sorted_token_gaps().iter().any(|&g| g.is_nan() || g < 0.0) {
        problems.push(format!("{label}: negative inter-token gap"));
    }
    let asked: usize = s.workloads.iter().map(|w| w.output_len).sum();
    let served: usize = r
        .responses
        .iter()
        .map(|x| x.request.workload.output_len)
        .sum();
    let credited = r.goodput_tps * r.makespan_ms / 1e3;
    if served != asked || (credited - asked as f64).abs() > 1e-6 * asked as f64 {
        problems.push(format!(
            "{label}: {asked} output tokens asked, {served} served, {credited:.3} credited"
        ));
    }
}

/// Outcome of a sweep of engine runs on `path`, one report per stream.
fn sweep_outcome(
    path: &'static str,
    streams: &[Stream],
    reports: Vec<ServiceReport>,
    slo: Slo,
) -> Outcome {
    let mut problems = Vec::new();
    let mut d = Digest::default();
    let mut o = Outcome::default();
    let mut sweep = Sweep {
        path,
        points: Vec::new(),
        slo_rate_per_s: 0.0,
    };
    for (s, r) in streams.iter().zip(&reports) {
        check_service(
            &format!("{path} rate {}", s.rate_per_s),
            s,
            r,
            &mut problems,
        );
        digest_report(&mut d, r);
        o.sim_tokens += s
            .workloads
            .iter()
            .map(|w| w.total_steps() as u64)
            .sum::<u64>();
        o.dispatches += r.dispatches as u64;
        if let Some(p) = &r.paging {
            match o.paging.as_mut() {
                Some(merged) => {
                    let peak = merged.peak_blocks_in_use.max(p.peak_blocks_in_use);
                    merged.merge(p);
                    merged.peak_blocks_in_use = peak;
                }
                None => o.paging = Some(*p),
            }
        }
        sweep
            .points
            .push((s.rate_per_s, r.p99_ttft_ms, r.p99_itl_ms, r.goodput_tps));
        if r.p99_ttft_ms <= slo.ttft_p99_ms && r.p99_itl_ms <= slo.itl_p99_ms {
            sweep.slo_rate_per_s = sweep.slo_rate_per_s.max(s.rate_per_s);
        }
    }
    o.problems = problems;
    o.digest = d.value();
    o.sweeps = vec![sweep];
    o.result = SimResult::Service(reports);
    o
}

// ---------------------------------------------------------------------
// paper-static-sweep and paper-continuous-paged

/// Request lengths of the repository's chatbot mix
/// (`dfx_serve::chatbot_mix`, which the serving, batching, continuous and
/// memory experiments share): contexts of 32–192 and outputs of 16–96
/// tokens around the paper's 64:64 point. Both paper workloads draw each
/// request's shape from these ranges, so no two requests share a shape.
const CHATBOT_INPUT: (usize, usize) = (32, 192);
const CHATBOT_OUTPUT: (usize, usize) = (16, 96);

/// `paper-static-sweep`: GPT-2 1.5B on four FPGAs under static padded
/// batching, a few arrival rates served one after another on one engine,
/// each rate with its own requests so the engine's memo rarely hits and
/// the cycle model runs through `generate_timed` / `generate_batch_timed`.
/// At chatbot-mix shapes the simulated appliance serves about 1 req/s,
/// so the rates run from well under that to four times over it. Near
/// capacity, how many requests happen to share a batch swings a pass's
/// work by a tenth between seeds; well over it the queue fills the
/// batches on every seed, so the work of a pass varies by about 5%.
pub struct PaperStatic {
    pub seed: u64,
}

const STATIC_RATES: [f64; 3] = [0.25, 0.5, 4.0];
const STATIC_REQUESTS: usize = 6;
pub const STATIC_SLO: Slo = Slo {
    ttft_p99_ms: 1000.0,
    itl_p99_ms: 1000.0,
};

pub struct StaticSetup {
    appliance: Appliance,
    streams: Vec<Stream>,
}

impl Bench for PaperStatic {
    type Setup = StaticSetup;

    fn operations(&self) -> u64 {
        (STATIC_RATES.len() * STATIC_REQUESTS) as u64
    }

    fn setup(&self) -> Result<StaticSetup, SimError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        Ok(StaticSetup {
            appliance: Appliance::timing_only(GptConfig::gpt2_1_5b(), 4)?,
            streams: STATIC_RATES
                .iter()
                .map(|&rate| {
                    stream(
                        &mut rng,
                        STATIC_REQUESTS,
                        CHATBOT_INPUT,
                        CHATBOT_OUTPUT,
                        rate,
                    )
                })
                .collect(),
        })
    }

    fn run(
        &self,
        s: &mut StaticSetup,
        rec: Option<&Recorder>,
        clock: &SeamClock,
    ) -> Result<Outcome, SimError> {
        let backend = clocked_seam(&s.appliance, rec, clock);
        let mut engine =
            ServingEngine::new(&*backend).with_scheduler(Box::new(Batching::new(8, 50.0)));
        let mut reports = Vec::new();
        for st in &s.streams {
            reports.push(within(rec, "serve.engine.run", || {
                engine.run(&st.workloads, &st.process)
            })?);
        }
        let mut o = sweep_outcome("static", &s.streams, reports, STATIC_SLO);
        o.static_dispatches = o.dispatches;
        Ok(o)
    }

    fn probe_model(&self) -> (GptConfig, usize, Vec<Workload>) {
        (
            GptConfig::gpt2_1_5b(),
            4,
            probe_shapes(self.seed, CHATBOT_INPUT, CHATBOT_OUTPUT),
        )
    }
}

/// `paper-continuous-paged`: the same model and devices under continuous
/// batching with paged K/V (retain preemption, a shared system prompt)
/// and HBM capped so that preemptions and prefix hits occur. Each rate
/// point runs on a fresh engine, so the steppers' per-instance memos
/// refill per rate. The cap leaves room for about two chatbot-mix
/// requests, so the rates run from under to past what it sustains.
pub struct PaperContinuous {
    pub seed: u64,
}

const CONT_RATES: [f64; 3] = [0.5, 1.0, 2.0];
const CONT_REQUESTS: usize = 32;
/// K/V budget next to the weight shard, tokens.
const CONT_KV_TOKENS: u64 = 384;
const CONT_BLOCK_TOKENS: usize = 16;
const CONT_SHARED_PREFIX: usize = 32;
pub const CONT_SLO: Slo = Slo {
    ttft_p99_ms: 5000.0,
    itl_p99_ms: 600.0,
};

pub struct ContSetup {
    appliance: Appliance,
    streams: Vec<Stream>,
}

impl Bench for PaperContinuous {
    type Setup = ContSetup;

    fn operations(&self) -> u64 {
        (CONT_RATES.len() * CONT_REQUESTS) as u64
    }

    fn setup(&self) -> Result<ContSetup, SimError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let probe = Appliance::timing_only(GptConfig::gpt2_1_5b(), 4)?;
        let m = probe.memory_model();
        let appliance = probe
            .with_hbm_capacity(m.weight_bytes + CONT_KV_TOKENS * m.kv_bytes_per_token)?
            .with_kv_paging(
                PagedKvConfig::new(CONT_BLOCK_TOKENS)
                    .with_policy(PreemptionPolicy::Retain)
                    .with_shared_prefix(CONT_SHARED_PREFIX),
            )?;
        Ok(ContSetup {
            appliance,
            streams: CONT_RATES
                .iter()
                .map(|&rate| stream(&mut rng, CONT_REQUESTS, CHATBOT_INPUT, CHATBOT_OUTPUT, rate))
                .collect(),
        })
    }

    fn run(
        &self,
        s: &mut ContSetup,
        rec: Option<&Recorder>,
        clock: &SeamClock,
    ) -> Result<Outcome, SimError> {
        let backend = clocked_seam(&s.appliance, rec, clock);
        let mut reports = Vec::new();
        for st in &s.streams {
            let mut engine =
                ServingEngine::new(&*backend).with_scheduler(Box::new(ContinuousBatching::new(8)));
            reports.push(within(rec, "serve.engine.run", || {
                engine.run(&st.workloads, &st.process)
            })?);
        }
        let mut o = sweep_outcome("continuous", &s.streams, reports, CONT_SLO);
        o.stepper_tokens = s
            .streams
            .iter()
            .flat_map(|st| &st.workloads)
            .map(|w| w.output_len as u64)
            .sum();
        o.expected_builds = BUILDS_PER_ENGINE * s.streams.len();
        Ok(o)
    }

    fn probe_model(&self) -> (GptConfig, usize, Vec<Workload>) {
        (
            GptConfig::gpt2_1_5b(),
            4,
            probe_shapes(self.seed, CHATBOT_INPUT, CHATBOT_OUTPUT),
        )
    }
}

// ---------------------------------------------------------------------
// toy-cluster-least-kv

/// The 64-wide toy model on four single-FPGA replicas behind the
/// least-K/V-loaded router, continuous batching on reserved K/V, below
/// cluster capacity; the report is then recorded, rendered and validated
/// as Prometheus text. The cycle model is nearly free at this size, so
/// the event loop, the router's checkpoints and telemetry dominate.
/// Request shapes are short-decode ones like the `hotpath` bench's.
pub struct ToyCluster {
    pub seed: u64,
}

const CLUSTER_REPLICAS: usize = 4;
/// Requests per pass. The router, engines and telemetry keep every
/// request's record until the pass ends, so this sets the working set:
/// at 40,000 requests (37 MB resident) whole runs went 2x slower while a
/// neighbour loaded the host's memory, where the cache-resident paper
/// workloads did not.
const CLUSTER_REQUESTS: usize = 10_000;
/// Offered load as a share of the replicas' batch-1 capacity at the
/// stream's mean request shape, measured on the simulator at set-up (the
/// `hotpath` bench paces its runs the same way). Continuous batching
/// serves more than batch-1, so this sits well below cluster capacity.
const CLUSTER_LOAD: f64 = 0.6;
/// Replica utilization a run must stay under to count as below capacity.
const CLUSTER_MAX_UTILIZATION: f64 = 0.9;
const CLUSTER_INPUT: (usize, usize) = (16, 64);
const CLUSTER_OUTPUT: (usize, usize) = (4, 16);

fn toy_config() -> GptConfig {
    GptConfig::new("hotpath", 64, 2, 2, 512, 640)
}

pub struct ClusterSetup {
    replicas: Vec<Appliance>,
    stream: Stream,
}

impl Bench for ToyCluster {
    type Setup = ClusterSetup;

    fn operations(&self) -> u64 {
        CLUSTER_REQUESTS as u64
    }

    fn setup(&self) -> Result<ClusterSetup, SimError> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let replicas: Vec<Appliance> = (0..CLUSTER_REPLICAS)
            .map(|_| Appliance::timing_only(toy_config(), 1))
            .collect::<Result<_, _>>()?;
        let mid = |(lo, hi): (usize, usize)| (lo + hi) / 2;
        let mean_shape = Workload::new(mid(CLUSTER_INPUT), mid(CLUSTER_OUTPUT));
        let service_ms = replicas[0].serve(mean_shape)?.total_ms();
        let rate = CLUSTER_LOAD * CLUSTER_REPLICAS as f64 * 1e3 / service_ms;
        Ok(ClusterSetup {
            stream: stream(
                &mut rng,
                CLUSTER_REQUESTS,
                CLUSTER_INPUT,
                CLUSTER_OUTPUT,
                rate,
            ),
            replicas,
        })
    }

    /// Seam calls here take microseconds, too short to time one by one,
    /// so the clock stays unused and `run_s` is the fastest whole pass.
    fn run(
        &self,
        s: &mut ClusterSetup,
        rec: Option<&Recorder>,
        _clock: &SeamClock,
    ) -> Result<Outcome, SimError> {
        let traced: Vec<_> = s
            .replicas
            .iter()
            .map(|a| rec.map(|rec| TracedBackend::new(a, rec)))
            .collect();
        let backends = traced
            .iter()
            .zip(&s.replicas)
            .map(|(t, a)| seam(t, a))
            .collect();
        let mut router = ClusterRouter::uniform(backends, Box::new(LeastKvLoaded))?
            .with_scheduler_factory(|| Box::new(ContinuousBatching::new(8)));
        let st = &s.stream;
        let report = within(rec, "serve.cluster.run", || {
            router.run(&st.workloads, &st.process)
        })?;
        let mut reg = MetricsRegistry::new();
        within(rec, "serve.telemetry.record", || {
            telemetry::record_cluster_report(&mut reg, &report, &Labels::new())
        });
        let text = within(rec, "serve.telemetry.render", || reg.render());
        let validated = within(rec, "serve.telemetry.validate", || {
            telemetry::validate_prometheus(&text)
        });
        Ok(cluster_outcome(st, report, &text, validated))
    }

    fn probe_model(&self) -> (GptConfig, usize, Vec<Workload>) {
        (
            toy_config(),
            1,
            probe_shapes(self.seed, CLUSTER_INPUT, CLUSTER_OUTPUT),
        )
    }
}

/// The cluster-tier `dfx_requests_total` sample of a Prometheus dump.
fn cluster_request_counter(text: &str) -> Option<f64> {
    text.lines()
        .find(|l| l.starts_with("dfx_requests_total{") && l.contains("tier=\"cluster\""))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse().ok())
}

fn cluster_outcome(
    s: &Stream,
    report: ClusterReport,
    text: &str,
    validated: Result<usize, String>,
) -> Outcome {
    let mut problems = Vec::new();
    let mut d = Digest::default();
    let n = s.workloads.len();
    if report.responses.len() != n || report.total_requests != n {
        problems.push(format!(
            "cluster: {} responses for {n} requests",
            report.responses.len()
        ));
    } else {
        // Cluster responses are sorted by global request id.
        for (id, resp) in report.responses.iter().enumerate() {
            if resp.request.id != id as u64
                || resp.request.workload != s.workloads[id]
                || resp.request.arrival_ms.to_bits() != s.arrivals_ms[id].to_bits()
            {
                problems.push(format!("cluster: response {id} answers another request"));
                break;
            }
            if !ascending(&[resp.request.arrival_ms, resp.start_ms, resp.finish_ms]) {
                problems.push(format!(
                    "cluster: request {id} violates arrival ≤ start ≤ finish"
                ));
                break;
            }
            d.u64(resp.server as u64);
            d.f64(resp.start_ms);
            d.f64(resp.finish_ms);
        }
    }
    let mut dispatches = 0u64;
    for (i, replica) in report.replicas.iter().enumerate() {
        let Some(r) = &replica.report else { continue };
        dispatches += r.dispatches as u64;
        // Written so that a NaN utilization fails too.
        if r.utilization.is_nan() || r.utilization >= CLUSTER_MAX_UTILIZATION {
            problems.push(format!(
                "cluster: replica {i} at utilization {:.3}, not below capacity",
                r.utilization
            ));
        }
        if r.responses.len() != replica.dispatched {
            problems.push(format!("cluster: replica {i} answered a different count"));
        }
        let mut waits: Vec<f64> = r.responses.iter().map(|x| x.wait_ms()).collect();
        waits.sort_by(f64::total_cmp);
        let (ttfts, sojourns) = (r.sorted_ttfts(), r.sorted_sojourns());
        if ttfts.len() != waits.len()
            || (0..waits.len()).any(|k| !ascending(&[waits[k], ttfts[k], sojourns[k]]))
        {
            problems.push(format!(
                "cluster: replica {i} TTFTs fall outside [wait, sojourn]"
            ));
        }
        digest_report(&mut d, r);
    }
    let asked: usize = s.workloads.iter().map(|w| w.output_len).sum();
    let credited = report.goodput_tps * report.makespan_ms / 1e3;
    if (credited - asked as f64).abs() > 1e-6 * asked as f64 {
        problems.push(format!(
            "cluster: {asked} output tokens asked, {credited:.3} credited"
        ));
    }
    let samples = match validated {
        Ok(samples) => samples,
        Err(e) => {
            problems.push(format!("telemetry: invalid Prometheus text: {e}"));
            0
        }
    };
    if cluster_request_counter(text) != Some(n as f64) {
        problems.push(format!(
            "telemetry: request counter {:?} for {n} requests sent",
            cluster_request_counter(text)
        ));
    }
    for v in [
        report.p99_ttft_ms,
        report.p99_itl_ms,
        report.goodput_tps,
        report.balance_index,
    ] {
        d.f64(v);
    }
    let (ttft, itl, goodput) = (report.p99_ttft_ms, report.p99_itl_ms, report.goodput_tps);
    Outcome {
        problems,
        digest: d.value(),
        sim_tokens: s.workloads.iter().map(|w| w.total_steps() as u64).sum(),
        stepper_tokens: asked as u64,
        dispatches,
        expected_builds: BUILDS_PER_ENGINE
            * report
                .replicas
                .iter()
                .filter(|r| r.report.is_some())
                .count(),
        paging: report.paging,
        telemetry_samples: samples as f64,
        sweeps: vec![Sweep {
            path: "cluster",
            points: vec![(s.rate_per_s, ttft, itl, goodput)],
            slo_rate_per_s: 0.0,
        }],
        result: SimResult::Cluster(Box::new(report)),
        ..Outcome::default()
    }
}

// ---------------------------------------------------------------------
// functional-fp16

/// The §VII-A accuracy path on the tiny model and two cores: per scored
/// item, the FP32 and FP16 reference models and the bit-level functional
/// cluster each pick the next token. Untraced passes time `run_accuracy`
/// itself, which builds its weights, models and cluster inside the call.
/// Traced passes run the same loop through the same public APIs on
/// objects built at set-up, so each model call gets its own span; that
/// loop, run once untraced outside the timing, is also the reference
/// every `run_accuracy` pass must reproduce exactly.
pub struct FunctionalFp16 {
    pub seed: u64,
}

const ACCURACY_CORES: usize = 2;
/// Items per task. An untraced pass is one `run_accuracy` call, timed
/// whole, so a short pass gives a run more passes to find a quiet moment
/// of the host in.
const ACCURACY_ITEMS: usize = 2;

fn accuracy_tasks() -> Vec<AccuracyTask> {
    [("WSC", 12), ("CBT-CN", 16), ("CBT-NE", 16)]
        .into_iter()
        .map(|(name, context_len)| AccuracyTask {
            name: name.into(),
            items: ACCURACY_ITEMS,
            context_len,
        })
        .collect()
}

/// `run_accuracy`'s loop on objects built at set-up, each model call in
/// its own span when traced.
fn accuracy_loop(
    s: &mut FunctionalSetup,
    rec: Option<&Recorder>,
) -> Result<Vec<AccuracyResult>, SimError> {
    let mut results = Vec::new();
    for (task, contexts) in accuracy_tasks().iter().zip(&s.contexts) {
        let (mut dfx_agree, mut fp16_agree) = (0usize, 0usize);
        for context in contexts {
            let expect = within(rec, "model.gpt2_f32.generate", || {
                s.reference32.generate(context, 1).tokens[0]
            });
            let fp16 = within(rec, "model.gpt2_f16.generate", || {
                s.reference16.generate(context, 1).tokens[0]
            });
            let dfx = within(rec, "sim.functional_cluster.generate", || {
                s.cluster.reset()?;
                s.cluster.generate(context, 1)
            })?[0];
            dfx_agree += usize::from(dfx == expect);
            fp16_agree += usize::from(fp16 == expect);
        }
        results.push(AccuracyResult {
            name: task.name.clone(),
            items: task.items,
            dfx_agreement: dfx_agree as f64 / task.items as f64,
            gpu_fp16_agreement: fp16_agree as f64 / task.items as f64,
        });
    }
    Ok(results)
}

fn accuracy_outcome(results: Vec<AccuracyResult>) -> Outcome {
    let mut d = Digest::default();
    let (mut agree, mut items) = (0.0, 0usize);
    for r in &results {
        d.u64(r.items as u64);
        d.f64(r.dfx_agreement);
        d.f64(r.gpu_fp16_agreement);
        agree += r.dfx_agreement * r.items as f64;
        items += r.items;
    }
    let sim_tokens = accuracy_tasks()
        .iter()
        .map(|t| (t.items * (t.context_len + 1)) as u64)
        .sum();
    Outcome {
        result: SimResult::Accuracy(results),
        digest: d.value(),
        sim_tokens,
        fp16_agreement: agree / items.max(1) as f64,
        ..Outcome::default()
    }
}

pub struct FunctionalSetup {
    contexts: Vec<Vec<Vec<u32>>>,
    reference32: Gpt2Model<f32>,
    reference16: Gpt2Model<F16>,
    cluster: FunctionalCluster,
}

impl Bench for FunctionalFp16 {
    type Setup = FunctionalSetup;

    fn operations(&self) -> u64 {
        accuracy_tasks().iter().map(|t| t.items as u64).sum()
    }

    fn setup(&self) -> Result<FunctionalSetup, SimError> {
        let cfg = GptConfig::tiny();
        // The same draws, in the same order, as run_accuracy makes.
        let mut rng = StdRng::seed_from_u64(self.seed);
        let contexts = accuracy_tasks()
            .iter()
            .map(|t| {
                (0..t.items)
                    .map(|_| {
                        (0..t.context_len)
                            .map(|_| rng.gen_range(0..cfg.vocab_size as u32))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        let w32 = GptWeights::synthetic(&cfg);
        let w16 = w32.cast::<F16>();
        Ok(FunctionalSetup {
            contexts,
            reference32: Gpt2Model::new(w32),
            reference16: Gpt2Model::new(w16.clone()),
            cluster: FunctionalCluster::new(w16, ACCURACY_CORES)?,
        })
    }

    /// An untraced pass is one `run_accuracy` call, so the clock stays
    /// unused and `run_s` is the fastest whole pass.
    fn run(
        &self,
        s: &mut FunctionalSetup,
        rec: Option<&Recorder>,
        _clock: &SeamClock,
    ) -> Result<Outcome, SimError> {
        let results = match rec {
            None => run_accuracy(
                &GptConfig::tiny(),
                ACCURACY_CORES,
                &accuracy_tasks(),
                self.seed,
            )?,
            Some(rec) => accuracy_loop(s, Some(rec))?,
        };
        Ok(accuracy_outcome(results))
    }

    fn reference(&self) -> Option<Result<SimResult, SimError>> {
        let looped = self.setup().and_then(|mut s| accuracy_loop(&mut s, None));
        Some(looped.map(SimResult::Accuracy))
    }

    fn probe_model(&self) -> (GptConfig, usize, Vec<Workload>) {
        let shapes = accuracy_tasks()
            .iter()
            .map(|t| Workload::new(t.context_len, 1))
            .collect();
        (GptConfig::tiny(), ACCURACY_CORES, shapes)
    }
}
