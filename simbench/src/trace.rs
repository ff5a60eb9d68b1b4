//! The traced run's instrumentation, kept entirely on the benchmark's
//! side of the seam: delegating wrappers around [`Backend`] and
//! [`ContinuousStepper`] that time and count every call crossing it, plus
//! spans the workloads open around the calls they make into `serve`,
//! `telemetry` and `model`. The simulator itself carries no counters.
//!
//! Spans stay in memory (name, start, end, parent span, request id) and
//! are written out as JSON lines when the run ends.
//!
//! Untraced passes of the paper-scale workloads use a much lighter pair
//! of wrappers, [`ClockedBackend`], that only note each heavy call's host
//! time on a [`SeamClock`].

use crate::stats::Summary;
use dfx_hw::MemoryModel;
use dfx_model::Workload;
use dfx_serve::{Backend, BatchReport, ContinuousStepper, RunReport, StepEvent};
use dfx_sim::{PagingStats, SimError};
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The request the call carried, where it carries one.
    pub request: Option<u64>,
}

impl Span {
    fn duration_s(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    /// Exact counters computed from call arguments and results.
    counters: BTreeMap<&'static str, f64>,
    /// `(token position, LM head, batch)` of every cycle-model program a
    /// static-path call implies.
    programs: BTreeSet<(usize, bool, u32)>,
}

/// Span and counter store for one traced pass.
pub struct Recorder {
    t0: Instant,
    inner: RefCell<Inner>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            t0: Instant::now(),
            inner: RefCell::default(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open.
    pub fn span<T>(&self, name: &'static str, request: Option<u64>, f: impl FnOnce() -> T) -> T {
        let index = {
            let mut inner = self.inner.borrow_mut();
            let index = inner.spans.len() as u32;
            let parent = inner.open.last().copied();
            inner.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                request,
            });
            inner.open.push(index);
            index
        };
        let start = self.now_ns();
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        inner.open.pop();
        let span = &mut inner.spans[index as usize];
        span.start_ns = start;
        span.end_ns = end;
        out
    }

    pub fn add(&self, counter: &'static str, value: f64) {
        *self.inner.borrow_mut().counters.entry(counter).or_default() += value;
    }

    /// Records the cycle-model programs one static-path call implies:
    /// the padded prompt positions (LM head on the last) and one
    /// LM-headed step per further output token, all at the batch size.
    fn static_programs(&self, batch: &[Workload]) {
        let input = batch.iter().map(|w| w.input_len).max().unwrap_or(0);
        let output = batch.iter().map(|w| w.output_len).max().unwrap_or(0);
        let b = batch.len() as u32;
        let mut inner = self.inner.borrow_mut();
        for pos in 0..input {
            inner
                .programs
                .insert((pos, pos + 1 == input && output > 0, b));
        }
        for out in 1..output {
            inner.programs.insert((input + out - 1, true, b));
        }
        *inner
            .counters
            .entry("core.step_programs.requested")
            .or_default() += (input + output.saturating_sub(1)) as f64;
    }

    pub fn finish(self) -> Trace {
        let inner = self.inner.into_inner();
        let mut counters = inner.counters;
        counters.insert("core.step_programs.distinct", inner.programs.len() as f64);
        Trace {
            spans: inner.spans,
            counters,
        }
    }
}

/// What one traced pass recorded.
pub struct Trace {
    pub spans: Vec<Span>,
    pub counters: BTreeMap<&'static str, f64>,
}

impl Trace {
    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Durations of every span named `name`, seconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_s)
            .collect()
    }

    pub fn calls(&self, name: &str) -> usize {
        self.spans.iter().filter(|s| s.name == name).count()
    }

    pub fn busy_s(&self, name: &str) -> f64 {
        self.durations(name).iter().fold(0.0, |a, d| a + d)
    }

    pub fn summary(&self, name: &str) -> Summary {
        Summary::of(&self.durations(name))
    }

    /// Self time of the spans named `name`: their durations minus the
    /// part their direct children cover.
    pub fn self_s(&self, name: &str) -> f64 {
        let mut child_s = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_s[parent as usize] += span.duration_s();
            }
        }
        self.spans
            .iter()
            .zip(&child_s)
            .filter(|(s, _)| s.name == name)
            .fold(0.0, |a, (s, c)| a + s.duration_s() - c)
    }

    /// Writes the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let request = s.request.map_or("null".to_string(), |r| r.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{request}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// A [`Backend`] that delegates every call to `inner`, timing the calls
/// that do work: `serve`, `serve_batch`, `batch_feasible` and
/// `continuous` (whose steppers it wraps in turn). The metadata
/// accessors (`name`, `device_count`, `nominal_power_w`, `memory`) pass
/// through untimed.
pub struct TracedBackend<'a> {
    inner: &'a dyn Backend,
    rec: &'a Recorder,
}

impl<'a> TracedBackend<'a> {
    pub fn new(inner: &'a dyn Backend, rec: &'a Recorder) -> Self {
        TracedBackend { inner, rec }
    }
}

impl Backend for TracedBackend<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn device_count(&self) -> usize {
        self.inner.device_count()
    }

    fn nominal_power_w(&self) -> Option<f64> {
        self.inner.nominal_power_w()
    }

    fn serve(&self, workload: Workload) -> Result<RunReport, SimError> {
        self.rec.static_programs(&[workload]);
        self.rec
            .span("sim.appliance.serve", None, || self.inner.serve(workload))
    }

    fn serve_batch(&self, batch: &[Workload]) -> Result<BatchReport, SimError> {
        self.rec.static_programs(batch);
        self.rec.span("sim.appliance.serve_batch", None, || {
            self.inner.serve_batch(batch)
        })
    }

    fn memory(&self) -> Option<MemoryModel> {
        self.inner.memory()
    }

    fn batch_feasible(&self, batch: &[Workload]) -> bool {
        self.rec.span("sim.appliance.batch_feasible", None, || {
            self.inner.batch_feasible(batch)
        })
    }

    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        let inner = self
            .rec
            .span("sim.stepper.build", None, || self.inner.continuous())?;
        Some(Box::new(TracedStepper {
            inner,
            rec: self.rec,
        }))
    }
}

/// A [`ContinuousStepper`] that delegates to `inner`, timing admissions,
/// token steps and the cost/feasibility estimates, and counting the
/// members each step advanced and the tokens each operation emitted.
struct TracedStepper<'a> {
    inner: Box<dyn ContinuousStepper + 'a>,
    rec: &'a Recorder,
}

impl ContinuousStepper for TracedStepper<'_> {
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
        let ev = self.rec.span("sim.stepper.admit", Some(id), || {
            self.inner.admit(id, workload)
        })?;
        // An admission emits the joiner's first token unless its prefill
        // is still in flight.
        let emitted = !ev.prefilling.contains(&id);
        self.rec
            .add("sim.stepper.tokens", f64::from(u8::from(emitted)));
        Ok(ev)
    }

    fn step_token(&mut self) -> Result<StepEvent, SimError> {
        let ev = self
            .rec
            .span("sim.stepper.step_token", None, || self.inner.step_token())?;
        // Every member the step advanced emitted one token, except those
        // listed as still prefilling (or parked by a preemption).
        let stepped = ev.live + ev.finished.len();
        self.rec.add("sim.stepper.stepped_members", stepped as f64);
        self.rec.add(
            "sim.stepper.tokens",
            stepped.saturating_sub(ev.prefilling.len()) as f64,
        );
        Ok(ev)
    }

    fn live(&self) -> usize {
        self.inner.live()
    }

    fn set_prefill_chunk(&mut self, chunk: Option<usize>) {
        self.inner.set_prefill_chunk(chunk);
    }

    fn prefill_cost_ms(&mut self, workload: Workload) -> f64 {
        self.rec.span("sim.stepper.estimate", None, || {
            self.inner.prefill_cost_ms(workload)
        })
    }

    fn step_cost_ms(&mut self, live: usize) -> f64 {
        self.rec.span("sim.stepper.estimate", None, || {
            self.inner.step_cost_ms(live)
        })
    }

    fn kv_fits_resident(&self, members: &[Workload]) -> Option<bool> {
        self.rec.span("sim.stepper.estimate", None, || {
            self.inner.kv_fits_resident(members)
        })
    }

    fn kv_stats(&self) -> Option<PagingStats> {
        self.inner.kv_stats()
    }
}

/// Host seconds of each heavy seam call an untraced pass makes
/// (`serve`, `serve_batch`, `admit`, `step_token`), in call order. The
/// simulator is deterministic, so call `i` does the same work in every
/// pass, and the fastest time each call took over a run's passes is its
/// least disturbed cost. Two clock reads per call, no allocation beyond
/// the list, so an untraced pass runs at full speed.
#[derive(Default)]
pub struct SeamClock {
    calls: RefCell<Vec<f64>>,
}

impl SeamClock {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let elapsed = start.elapsed().as_secs_f64();
        self.calls.borrow_mut().push(elapsed);
        out
    }

    pub fn finish(self) -> Vec<f64> {
        self.calls.into_inner()
    }
}

/// A [`Backend`] that delegates every call to `inner` and times the
/// heavy ones on a [`SeamClock`].
pub struct ClockedBackend<'a> {
    inner: &'a dyn Backend,
    clock: &'a SeamClock,
}

impl<'a> ClockedBackend<'a> {
    pub fn new(inner: &'a dyn Backend, clock: &'a SeamClock) -> Self {
        ClockedBackend { inner, clock }
    }
}

impl Backend for ClockedBackend<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn device_count(&self) -> usize {
        self.inner.device_count()
    }

    fn nominal_power_w(&self) -> Option<f64> {
        self.inner.nominal_power_w()
    }

    fn serve(&self, workload: Workload) -> Result<RunReport, SimError> {
        self.clock.time(|| self.inner.serve(workload))
    }

    fn serve_batch(&self, batch: &[Workload]) -> Result<BatchReport, SimError> {
        self.clock.time(|| self.inner.serve_batch(batch))
    }

    fn memory(&self) -> Option<MemoryModel> {
        self.inner.memory()
    }

    fn batch_feasible(&self, batch: &[Workload]) -> bool {
        self.inner.batch_feasible(batch)
    }

    fn continuous(&self) -> Option<Box<dyn ContinuousStepper + '_>> {
        let inner = self.inner.continuous()?;
        Some(Box::new(ClockedStepper {
            inner,
            clock: self.clock,
        }))
    }
}

struct ClockedStepper<'a> {
    inner: Box<dyn ContinuousStepper + 'a>,
    clock: &'a SeamClock,
}

impl ContinuousStepper for ClockedStepper<'_> {
    fn admit(&mut self, id: u64, workload: Workload) -> Result<StepEvent, SimError> {
        self.clock.time(|| self.inner.admit(id, workload))
    }

    fn step_token(&mut self) -> Result<StepEvent, SimError> {
        self.clock.time(|| self.inner.step_token())
    }

    fn live(&self) -> usize {
        self.inner.live()
    }

    fn set_prefill_chunk(&mut self, chunk: Option<usize>) {
        self.inner.set_prefill_chunk(chunk);
    }

    fn prefill_cost_ms(&mut self, workload: Workload) -> f64 {
        self.inner.prefill_cost_ms(workload)
    }

    fn step_cost_ms(&mut self, live: usize) -> f64 {
        self.inner.step_cost_ms(live)
    }

    fn kv_fits_resident(&self, members: &[Workload]) -> Option<bool> {
        self.inner.kv_fits_resident(members)
    }

    fn kv_stats(&self) -> Option<PagingStats> {
        self.inner.kv_stats()
    }
}
