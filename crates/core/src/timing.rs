//! The instruction-level timing engine.
//!
//! Walks a program in issue order and computes, per instruction, when it
//! can start (scoreboard dependencies, unit occupancy, in-order issue
//! rate) and how long it runs (tile counts, pipeline depths, accumulation
//! hazards, DMA streaming overlap, ring hops). Matrix instructions model
//! the paper's key property — the MPU consumes one `d × l` tile per cycle
//! when HBM keeps up, with `max(compute, stream)` overlap because weights
//! are *streamed* through double buffers rather than preloaded (§V-D).
//!
//! The engine is data-free: it never touches weights, so full-scale
//! models (345M…1.5B) are timed exactly as the paper's appliance ran
//! them, without materialising gigabytes of parameters.
//! The walk allocates nothing per instruction: operands come from the
//! operand table in `dfx-isa` ([`Instr::reads`], [`Instr::writes`]),
//! register ready times from the [`Scoreboard`]'s flat array, and K/V
//! readiness from one table sized once per program.
//!
//! Two entry points share that walk and agree bit for bit.
//! [`TimingCore::time_step_batched`] walks a built [`Program`] whole.
//! [`TimingCore::time_token_step`] emits a builder's step part by part
//! and stops walking decoder layers once two consecutive ones start from
//! the same schedule state relative to the issue cursor: every later
//! layer repeats the last, shifted in time, so its cycles are added
//! without walking it. A GPT-2 1.5B step on four cores then walks one of
//! its 48 layers.

use crate::params::CoreParams;
use crate::scoreboard::Scoreboard;
use dfx_hw::{Cycles, DmaModel, RingModel};
use dfx_isa::{
    DmaDir, Instr, OpClass, Program, ProgramBuilder, ReduceKind, RouterOp, ScalarOpKind, TensorRef,
    VectorOpKind, NUM_SREGS, NUM_VREGS,
};
use serde::{Deserialize, Serialize};

/// The execution units instructions occupy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Unit {
    /// DMA engine (DDR vector loads, token I/O, KV appends).
    Dma,
    /// Matrix processing unit (including its HBM weight stream).
    Mpu,
    /// Vector processing unit (vector, reduce and scalar instructions).
    Vpu,
    /// Ring-network router.
    Router,
}

impl Unit {
    /// All units.
    pub const ALL: [Unit; 4] = [Unit::Dma, Unit::Mpu, Unit::Vpu, Unit::Router];
}

/// Timing cost of one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstrCost {
    /// The unit the instruction occupies.
    pub unit: Unit,
    /// Cycles the unit is occupied (back-to-back issue limit).
    pub occupancy: Cycles,
    /// Extra pipeline latency until the result is readable (chained
    /// consumers wait; independent successors do not).
    pub latency: Cycles,
}

/// Timing result of one token step on one core.
///
/// The per-class and per-unit cycles are arrays indexed by discriminant
/// (`class as usize`, `unit as usize`), in [`OpClass::ALL`] and
/// [`Unit::ALL`] order; a class or unit the step never used reads 0.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct StepTiming {
    /// End-to-end cycles (makespan).
    pub total: Cycles,
    /// Makespan advancement attributed to each op class. Sums to
    /// [`StepTiming::total`]: work fully hidden behind another unit's
    /// occupancy contributes zero.
    pub by_class: [Cycles; OpClass::ALL.len()],
    /// Busy cycles per unit (can exceed `total` in sum — units overlap).
    pub unit_busy: [Cycles; Unit::ALL.len()],
    /// Number of instructions timed.
    pub instructions: usize,
}

impl StepTiming {
    /// Datapath activity estimate in `[0, 1]` for the power model: the
    /// MPU dominates dynamic power, the VPU and DMA contribute less.
    pub fn activity(&self) -> f64 {
        if self.total.0 == 0 {
            return 0.0;
        }
        let busy = |u: Unit| self.unit_busy[u as usize].0 as f64;
        let t = self.total.0 as f64;
        ((busy(Unit::Mpu) * 0.85 + busy(Unit::Vpu) * 0.30 + busy(Unit::Dma) * 0.25) / t).min(1.0)
    }

    /// Merges another step into an accumulated total (used across
    /// tokens; start from [`StepTiming::default`]).
    pub fn accumulate(&mut self, other: &StepTiming) {
        self.total += other.total;
        for (acc, c) in self.by_class.iter_mut().zip(other.by_class) {
            *acc += c;
        }
        for (acc, c) in self.unit_busy.iter_mut().zip(other.unit_busy) {
            *acc += c;
        }
        self.instructions += other.instructions;
    }
}

/// The state of one scheduling walk over a step's instructions: what the
/// next instruction's issue depends on, and the timing so far.
struct Walk {
    sb: Scoreboard,
    unit_free: [Cycles; Unit::ALL.len()],
    issue_cursor: Cycles,
    timing: StepTiming,
    /// Ready cycles of the K/V regions written this step (this token's
    /// appended rows), indexed by (layer, head, kind) over `kv_heads`
    /// heads per layer; regions past the table sit in `kv_sparse`, and a
    /// region not yet written reads cycle 0. The matrix stream cannot
    /// read a region until its DMA store (and for Values, the transpose
    /// unit) completes: the dependency the paper's Value-first order
    /// exists to hide (§V-B).
    kv_ready: Vec<Cycles>,
    kv_heads: usize,
    kv_sparse: Vec<(TensorRef, Cycles)>,
}

/// A walk's state at the start of a decoder layer: its schedule state
/// relative to the issue cursor, and the absolute cursor and totals the
/// layers after it add to.
struct LayerStart {
    state: RelativeState,
    issue_cursor: Cycles,
    by_class: [Cycles; OpClass::ALL.len()],
    unit_busy: [Cycles; Unit::ALL.len()],
}

/// Everything a layer's schedule depends on, relative to the issue
/// cursor: equal states at two layer starts schedule the layers after
/// them alike, shifted by the cursor's difference.
#[derive(PartialEq)]
struct RelativeState {
    /// Register ready cycles past the cursor (0 at or before it).
    regs: [Cycles; NUM_VREGS + NUM_SREGS],
    /// Unit free cycles past the cursor (0 at or before it).
    units: [Cycles; Unit::ALL.len()],
    /// The makespan's lead on the cursor and the cursor's lead on the
    /// makespan (one is 0): the exact signed `total − cursor`.
    total_lead: (Cycles, Cycles),
}

impl Walk {
    /// The state at the start of a decoder layer. K/V readiness is left
    /// out: a layer reads only the regions it stores itself.
    fn layer_start(&self) -> LayerStart {
        let cursor = self.issue_cursor;
        let past = |t: Cycles| t.saturating_sub(cursor);
        LayerStart {
            state: RelativeState {
                regs: self.sb.ready_times().map(past),
                units: self.unit_free.map(past),
                total_lead: (
                    past(self.timing.total),
                    cursor.saturating_sub(self.timing.total),
                ),
            },
            issue_cursor: cursor,
            by_class: self.timing.by_class,
            unit_busy: self.timing.unit_busy,
        }
    }

    /// Adds `layers` more repeats of the layer walked since `last`, whose
    /// relative state equals the walk's now, each `layer_len`
    /// instructions long: every absolute cycle moves by the layers'
    /// cursor advance and every total grows by the layers' share.
    fn repeat(&mut self, last: &LayerStart, layers: usize, layer_len: usize) {
        let k = layers as u64;
        let shift = self.issue_cursor.saturating_sub(last.issue_cursor) * k;
        self.sb.delay(shift);
        let absolute = [&mut self.issue_cursor, &mut self.timing.total];
        for cycle in self.unit_free.iter_mut().chain(absolute) {
            *cycle += shift;
        }
        let grow = |acc: &mut [Cycles], last: &[Cycles]| {
            for (a, l) in acc.iter_mut().zip(last) {
                *a += a.saturating_sub(*l) * k;
            }
        };
        grow(&mut self.timing.by_class, &last.by_class);
        grow(&mut self.timing.unit_busy, &last.unit_busy);
        self.timing.instructions += layers * layer_len;
    }
}

/// The timing model of one core within a cluster.
///
/// # Examples
///
/// ```
/// use dfx_core::{CoreParams, TimingCore};
/// use dfx_isa::{ParallelConfig, ProgramBuilder};
/// use dfx_model::GptConfig;
///
/// let builder = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, 2)).unwrap();
/// let core = TimingCore::new(CoreParams::default(), 2);
/// let t = core.time_step(&builder.token_step(0, true));
/// assert!(t.total.0 > 0);
/// ```
#[derive(Debug, Clone)]
pub struct TimingCore {
    params: CoreParams,
    dma: DmaModel,
    ring: RingModel,
    scoreboard_enabled: bool,
    read_side_transpose: bool,
}

impl TimingCore {
    /// Creates the timing model for a cluster of `num_cores`.
    pub fn new(params: CoreParams, num_cores: u32) -> Self {
        TimingCore {
            params,
            dma: DmaModel::with_shape(params.shape),
            ring: RingModel::new(num_cores),
            scoreboard_enabled: true,
            read_side_transpose: false,
        }
    }

    /// Failure-injection variant: dependencies are ignored, demonstrating
    /// how much the scoreboard's hazard tracking costs/protects.
    pub fn without_scoreboard(mut self) -> Self {
        self.scoreboard_enabled = false;
        self
    }

    /// Ablation variant: the *conventional* transpose scheme the paper
    /// rejects (§V-B) — V is stored untransposed and every
    /// `Score × Value` read first transposes the whole `t × d_head`
    /// matrix in on-chip memory (~1 element/cycle), instead of DFX's
    /// write-side transpose hidden behind the K/Q projections.
    pub fn with_read_side_transpose(mut self) -> Self {
        self.read_side_transpose = true;
        self
    }

    /// The core parameters.
    pub fn params(&self) -> &CoreParams {
        &self.params
    }

    /// The DMA model in use.
    pub fn dma(&self) -> &DmaModel {
        &self.dma
    }

    /// Replaces the DMA model (sensitivity studies and tests).
    pub fn with_dma(mut self, dma: DmaModel) -> Self {
        self.dma = dma;
        self
    }

    /// The ring model in use.
    pub fn ring(&self) -> &RingModel {
        &self.ring
    }

    /// The first position of `pos`'s tile class. A step's context length
    /// `t = pos + 1` enters the cost model only through `⌈t/d⌉`, `⌈t/l⌉`
    /// (attention tiles) and `⌈t/vpu_width⌉` (softmax chunks), so every
    /// position of an aligned run of `gcd(d, l, vpu_width)` times to the
    /// same [`StepTiming`] for a given LM head and batch. Under
    /// [`with_read_side_transpose`](TimingCore::with_read_side_transpose),
    /// which charges `t` itself, each position is its own class.
    pub fn tile_class_start(&self, pos: usize) -> usize {
        pos - pos % self.tile_class_len()
    }

    /// The number of positions in every tile class: `gcd(d, l,
    /// vpu_width)`, or 1 under
    /// [`with_read_side_transpose`](TimingCore::with_read_side_transpose).
    /// Classes are aligned, so `pos`'s class ends before
    /// `tile_class_start(pos) + tile_class_len()`.
    pub fn tile_class_len(&self) -> usize {
        fn gcd(a: u32, b: u32) -> u32 {
            match b {
                0 => a,
                _ => gcd(b, a % b),
            }
        }
        if self.read_side_transpose {
            return 1;
        }
        let p = &self.params;
        gcd(gcd(p.shape.d, p.shape.l), p.vpu_width) as usize
    }

    /// Times one token-step program.
    ///
    /// Equivalent to [`time_step_batched`] with a batch of one — the two
    /// entry points share one scheduling walk, so batch-1 results are
    /// bit-identical by construction.
    ///
    /// [`time_step_batched`]: TimingCore::time_step_batched
    pub fn time_step(&self, program: &Program) -> StepTiming {
        self.time_step_batched(program, 1)
    }

    /// Times one token-step program executed for `batch` requests at
    /// once.
    ///
    /// The batched cost model (ROADMAP: batching scheduler prerequisite)
    /// reuses the exact scheduling walk of the batch-1 path but charges
    /// every instruction its batched cost ([`batched_instr_cost`]): the
    /// per-request *work* (MAC passes, vector chunks, KV traffic,
    /// activation synchronisation) scales with the batch, while the
    /// *weight stream* is shared — the whole point of batching a
    /// memory-bound decoder. With `batch == 1` every cost is the
    /// unbatched one, so this is a strict generalisation of
    /// [`time_step`].
    ///
    /// [`batched_instr_cost`]: TimingCore::batched_instr_cost
    /// [`time_step`]: TimingCore::time_step
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn time_step_batched(&self, program: &Program, batch: u32) -> StepTiming {
        assert!(batch > 0, "batch must be at least 1");
        // K/V readiness sits in a table over the stored regions (a list if
        // they spread past one slot pair per instruction, never in a
        // builder program).
        let (mut layers, mut heads) = (0, 0);
        for ai in program.instrs() {
            if let Instr::Dma(d) = ai.instr {
                if let (DmaDir::Store, TensorRef::Kv { layer, head, .. }) = (d.dir, d.tensor) {
                    layers = layers.max(usize::from(layer) + 1);
                    heads = heads.max(usize::from(head) + 1);
                }
            }
        }
        if layers * heads > program.len() {
            heads = 0;
        }
        let mut walk = self.start_walk(layers, heads);
        self.walk(&mut walk, program, u64::from(batch));
        walk.timing
    }

    /// Times `builder.token_step(pos, lm_head)` run for `batch` requests,
    /// bit-identical to [`time_step_batched`] on that program, without
    /// building or walking all of it.
    ///
    /// The step is emitted part by part into one reused buffer (the
    /// embedding, each decoder layer, the LM head) and each part is
    /// walked like [`time_step_batched`] walks the whole program. Decoder
    /// layers differ only in their layer index and a layer reads only its
    /// own K/V ([`ProgramBuilder`]'s invariant), so a layer's schedule
    /// depends only on the state it starts from, taken relative to the
    /// issue cursor: every register's ready cycle and every unit's free
    /// cycle, clamped at the cursor (a cycle at or before it can never
    /// delay an issue), and the signed distance from the cursor to the
    /// makespan (which attribution charges against). Once two consecutive
    /// layers start from equal states, each remaining layer repeats the
    /// last one shifted in time, so its cycles are added without walking
    /// it.
    ///
    /// [`time_step_batched`]: TimingCore::time_step_batched
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or `pos` exceeds the model's maximum
    /// sequence length.
    pub fn time_token_step(
        &self,
        builder: &ProgramBuilder,
        pos: usize,
        lm_head: bool,
        batch: u32,
    ) -> StepTiming {
        assert!(batch > 0, "batch must be at least 1");
        let batch = u64::from(batch);
        let (cfg, par) = (builder.config(), builder.parallel());
        let mut part = Program::new(builder.step_meta(pos, lm_head));
        let mut walk = self.start_walk(cfg.num_layers, par.heads_per_core(cfg));
        builder.emit_embedding(&mut part, pos);
        self.walk(&mut walk, &part, batch);
        let mut previous: Option<LayerStart> = None;
        for layer in 0..cfg.num_layers {
            let start = walk.layer_start();
            if let Some(last) = previous.filter(|last| last.state == start.state) {
                // `part` still holds the last layer walked.
                walk.repeat(&last, cfg.num_layers - layer, part.len());
                break;
            }
            part.clear();
            builder.emit_decoder_layer(&mut part, layer as u16, pos);
            self.walk(&mut walk, &part, batch);
            previous = Some(start);
        }
        if lm_head {
            part.clear();
            builder.emit_lm_head(&mut part);
            self.walk(&mut walk, &part, batch);
        }
        walk.timing
    }

    /// A fresh walk whose K/V table covers `layers × heads` regions.
    fn start_walk(&self, layers: usize, heads: usize) -> Walk {
        Walk {
            sb: if self.scoreboard_enabled {
                Scoreboard::new()
            } else {
                Scoreboard::disabled()
            },
            unit_free: [Cycles::ZERO; Unit::ALL.len()],
            issue_cursor: Cycles::ZERO,
            timing: StepTiming::default(),
            kv_ready: vec![Cycles::ZERO; layers * heads * 2],
            kv_heads: heads,
            kv_sparse: Vec::new(),
        }
    }

    /// Schedules `program`'s instructions, run for `batch` requests, in
    /// issue order after those `walk` has already scheduled: the one walk
    /// body of both [`time_step_batched`] and [`time_token_step`].
    ///
    /// [`time_step_batched`]: TimingCore::time_step_batched
    /// [`time_token_step`]: TimingCore::time_token_step
    #[inline]
    fn walk(&self, walk: &mut Walk, program: &Program, batch: u64) {
        let issue_interval = Cycles(u64::from(self.params.issue_interval));
        let Walk {
            sb,
            unit_free,
            issue_cursor,
            timing,
            kv_ready,
            kv_heads,
            kv_sparse,
        } = walk;
        let heads = *kv_heads;
        let kv_slot = |t: TensorRef| match t {
            TensorRef::Kv { layer, head, kind } if usize::from(head) < heads => {
                Some((usize::from(layer) * heads + usize::from(head)) * 2 + kind as usize)
            }
            _ => None,
        };
        for ai in program.instrs() {
            let instr = &ai.instr;
            let writes = instr.writes();
            let cost = self.cost(instr, batch);
            let mut ready = sb.ready_time(&instr.reads(), &writes);
            if let Instr::Matrix(m) = instr {
                let sparse = || kv_sparse.iter().rfind(|e| e.0 == m.weight).map(|e| &e.1);
                let region = kv_slot(m.weight).map_or_else(sparse, |i| kv_ready.get(i));
                if let Some(&region) = region {
                    ready = ready.max(region);
                }
            }
            let unit = cost.unit as usize;
            let issue = ready.max(unit_free[unit]).max(*issue_cursor);
            // Instruction chaining (§IV-C): the unit frees after the
            // occupancy (streaming/processing) period; the *result*
            // becomes architecturally visible a pipeline latency later.
            // Independent successors start behind the occupancy only.
            let unit_done = issue + cost.occupancy;
            let finish = unit_done + cost.latency;

            sb.commit(&writes, finish);
            if let Instr::Dma(d) = instr {
                if let (DmaDir::Store, TensorRef::Kv { .. }) = (d.dir, d.tensor) {
                    match kv_slot(d.tensor).and_then(|i| kv_ready.get_mut(i)) {
                        Some(slot) => *slot = finish,
                        None => kv_sparse.push((d.tensor, finish)),
                    }
                }
            }
            unit_free[unit] = unit_done;
            timing.unit_busy[unit] += cost.occupancy;
            *issue_cursor = issue + issue_interval;

            timing.by_class[ai.class as usize] += finish.saturating_sub(timing.total);
            timing.total = timing.total.max(finish);
        }
        timing.instructions += program.len();
    }

    /// Cost of one instruction executed for `batch` requests at once: the
    /// unit it occupies, the cycles it occupies it for, and the extra
    /// pipeline latency until its result is architecturally visible.
    ///
    /// The batch dimension scales exactly the per-request terms and
    /// nothing else:
    ///
    /// - **Matrix**: the MAC array makes one pass over the operand tiles
    ///   *per request* (activations differ), so compute scales with the
    ///   batch — but a shared *weight* streams from HBM once, which is
    ///   the amortisation that makes batched decoding pay. Per-request
    ///   K/V operands (every request has its own cache) scale on both
    ///   sides of the `max(compute, stream)` overlap.
    /// - **Vector / Reduce / Scalar**: per-request activation work; the
    ///   element count scales with the batch while the per-instruction
    ///   overhead (operand collection, pipeline fill) is charged once.
    /// - **DMA**: per-request token I/O, DDR vectors and K/V appends
    ///   scale with the batch.
    /// - **Router**: the ring carries every request's partial
    ///   activations, so synchronisation bytes (and per-request argmax
    ///   reductions) scale with the batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero, like [`time_step_batched`].
    ///
    /// [`time_step_batched`]: TimingCore::time_step_batched
    pub fn batched_instr_cost(&self, instr: &Instr, batch: u32) -> InstrCost {
        assert!(batch > 0, "batch must be at least 1");
        self.cost(instr, u64::from(batch))
    }

    /// [`batched_instr_cost`](TimingCore::batched_instr_cost) for a
    /// batch `b` already checked to be at least 1.
    fn cost(&self, instr: &Instr, b: u64) -> InstrCost {
        let p = &self.params;
        let vw = p.vpu_width;
        match instr {
            Instr::Matrix(m) => {
                let tiles = p.shape.tile_count(m.rows, m.cols);
                // One pass over the tiles per batch member.
                let compute = p.matrix_compute_cycles(tiles) * b;
                // Weights *and* K/V live in HBM as padded d × l tiles
                // ("the DMA stores and loads tiled weights, Key, and
                // Value", §V-B), so short operands stream padded bytes —
                // the Fig 8a utilisation cliff at d > 64 / l > 64.
                // Weight matrices are shared across the batch and stream
                // once; K/V regions are per-request and stream per
                // member.
                let stream = match m.weight {
                    TensorRef::Kv { .. } => {
                        let bytes = tiles * u64::from(p.shape.macs_per_cycle()) * 2;
                        self.dma.hbm.scattered_cycles(bytes * b, b).0
                    }
                    _ => self.dma.weight_stream_cycles(m.rows, m.cols).0,
                };
                // Conventional-scheme ablation: Value reads pay a full
                // on-chip transpose before the stream can feed the MACs
                // (per request — each member's V region is distinct).
                let transpose = match m.weight {
                    TensorRef::Kv {
                        kind: dfx_isa::KvKind::Value,
                        ..
                    } if self.read_side_transpose => u64::from(m.rows) * u64::from(m.cols) * b,
                    _ => 0,
                };
                InstrCost {
                    unit: Unit::Mpu,
                    occupancy: Cycles(
                        transpose + compute.max(stream) + u64::from(p.matrix_overhead),
                    ),
                    latency: Cycles(u64::from(p.matrix_pipeline_fill())),
                }
            }
            Instr::Vector(v) => {
                let chunks = u64::from(v.len.div_ceil(vw)) * b;
                let lat = match v.op {
                    VectorOpKind::Add
                    | VectorOpKind::Sub
                    | VectorOpKind::AddScalar
                    | VectorOpKind::SubScalar => p.fp_add_latency,
                    VectorOpKind::Mul | VectorOpKind::MulScalar => p.fp_mul_latency,
                    VectorOpKind::Exp => p.exp_latency,
                    // Loads/stores/copies use the bypass path (§V-C).
                    VectorOpKind::Copy => 1,
                };
                InstrCost {
                    unit: Unit::Vpu,
                    occupancy: Cycles(chunks + u64::from(p.vector_overhead)),
                    latency: Cycles(u64::from(lat)),
                }
            }
            Instr::Reduce(r) => {
                let chunks = u64::from(r.len.div_ceil(vw)) * b;
                let (step_lat, tree_lat) = match r.kind {
                    ReduceKind::Sum => (p.fp_add_latency, p.fp_add_latency),
                    ReduceKind::Max => (6, 6), // comparator tree
                };
                // Chunk partials accumulate serially through one FP adder.
                InstrCost {
                    unit: Unit::Vpu,
                    occupancy: Cycles(chunks * u64::from(step_lat) + u64::from(p.vector_overhead)),
                    latency: Cycles(u64::from(tree_lat) * u64::from(p.vpu_tree_depth())),
                }
            }
            Instr::Scalar(s) => {
                let lat = match s.op {
                    ScalarOpKind::Add => p.fp_add_latency,
                    ScalarOpKind::Mul => p.fp_mul_latency,
                    ScalarOpKind::Recip | ScalarOpKind::RecipSqrt => p.recip_latency,
                };
                InstrCost {
                    unit: Unit::Vpu,
                    occupancy: Cycles(8 * b),
                    latency: Cycles(u64::from(lat)),
                }
            }
            Instr::Dma(dm) => {
                let dur = match (dm.dir, dm.tensor) {
                    (_, TensorRef::TokenIo) => self.dma.token_io_cycles() * b,
                    (DmaDir::Load, _) => self.dma.ddr_vector_cycles((dm.bytes / 2) as u32) * b,
                    (DmaDir::Store, TensorRef::Kv { .. }) => {
                        let head_dim = (dm.bytes / 2) as u32;
                        if dm.transpose {
                            self.dma.kv_write_transposed_cycles(head_dim) * b
                        } else {
                            self.dma.kv_write_cycles(head_dim) * b
                        }
                    }
                    (DmaDir::Store, _) => self.dma.ddr_vector_cycles((dm.bytes / 2) as u32) * b,
                };
                InstrCost {
                    unit: Unit::Dma,
                    occupancy: dur,
                    latency: Cycles::ZERO,
                }
            }
            Instr::Router(r) => {
                let dur = match r.op {
                    RouterOp::AllGather => self.ring.allgather_cycles(r.bytes * b),
                    RouterOp::AllReduceArgMax => self.ring.argmax_reduce_cycles() * b,
                };
                InstrCost {
                    unit: Unit::Router,
                    occupancy: dur,
                    latency: Cycles::ZERO,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_isa::{ParallelConfig, ProgramBuilder};
    use dfx_model::GptConfig;
    use std::collections::BTreeMap;

    fn time(cfg: &GptConfig, cores: u32, pos: usize, lm: bool) -> StepTiming {
        let b = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, cores as usize)).unwrap();
        TimingCore::new(CoreParams::default(), cores).time_step(&b.token_step(pos, lm))
    }

    #[test]
    fn all_lists_follow_discriminant_order() {
        // `StepTiming`'s arrays and the memory map index by `as usize`,
        // and the decoder reads the encoder's `as u8` codes back through
        // `ALL`: all of it holds only while `ALL` is in discriminant order.
        for (i, c) in OpClass::ALL.iter().enumerate() {
            assert_eq!(*c as usize, i);
        }
        for (i, u) in Unit::ALL.iter().enumerate() {
            assert_eq!(*u as usize, i);
        }
        for (i, k) in dfx_isa::WeightKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i);
        }
    }

    #[test]
    fn class_attribution_sums_to_total() {
        let t = time(&GptConfig::tiny(), 2, 3, true);
        let sum: u64 = t.by_class.iter().map(|c| c.0).sum();
        assert_eq!(sum, t.total.0);
    }

    #[test]
    fn more_cores_make_a_step_faster_once_matrices_dominate() {
        // Needs production-scale matrices: on toy models the ring hops
        // outweigh the partitioning gain (the paper's scalability caveat
        // in §VII-B). One 345M-geometry layer is enough.
        let cfg = GptConfig::new("345m-1layer", 1024, 16, 2, 512, 64);
        let one = time(&cfg, 1, 0, false);
        let two = time(&cfg, 2, 0, false);
        assert!(
            two.total < one.total,
            "2 cores {} !< 1 core {}",
            two.total,
            one.total
        );
    }

    #[test]
    fn tiny_models_do_not_benefit_from_partitioning() {
        // Converse of the scalability property: with emb = 192 the four
        // per-layer ring synchronisations cost more than the matrix
        // savings — faithful to the paper's sync-overhead discussion.
        let cfg = GptConfig::small();
        let one = time(&cfg, 1, 0, false);
        let three = time(&cfg, 3, 0, false);
        assert!(three.total > one.total);
    }

    #[test]
    fn sync_class_appears_only_in_multicore_runs() {
        let single = time(&GptConfig::tiny(), 1, 0, false);
        let multi = time(&GptConfig::tiny(), 2, 0, false);
        assert_eq!(single.by_class[OpClass::Sync as usize], Cycles::ZERO);
        assert!(multi.by_class[OpClass::Sync as usize] > Cycles::ZERO);
    }

    #[test]
    fn longer_context_costs_more() {
        let early = time(&GptConfig::tiny(), 2, 0, false);
        let late = time(&GptConfig::tiny(), 2, 100, false);
        assert!(late.total > early.total);
    }

    #[test]
    fn lm_head_step_costs_more_than_plain_step() {
        let plain = time(&GptConfig::tiny(), 2, 0, false);
        let with_head = time(&GptConfig::tiny(), 2, 0, true);
        assert!(with_head.total > plain.total);
    }

    #[test]
    fn disabled_scoreboard_underestimates_latency() {
        let cfg = GptConfig::tiny();
        let b = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, 2)).unwrap();
        let p = b.token_step(0, false);
        let with = TimingCore::new(CoreParams::default(), 2).time_step(&p);
        let without = TimingCore::new(CoreParams::default(), 2)
            .without_scoreboard()
            .time_step(&p);
        assert!(
            without.total < with.total,
            "ignoring hazards must (unsafely) shorten the critical path"
        );
    }

    #[test]
    fn kv_reads_wait_for_this_steps_stores() {
        // The MM(Score x Value) of a step must not start before the V row
        // appended in the same step clears the transpose unit. Compare a
        // normal step against one where V-store costs are inflated.
        use dfx_isa::{BuilderOptions, QkvOrder};
        let cfg = GptConfig::tiny();
        let b = ProgramBuilder::with_options(
            cfg,
            ParallelConfig::new(0, 1),
            BuilderOptions {
                qkv_order: QkvOrder::ValueLast,
            },
        )
        .unwrap();
        let p = b.token_step(0, false);
        let normal = TimingCore::new(CoreParams::default(), 1).time_step(&p);
        // Triple the per-element transpose penalty through the DMA model.
        let slow = TimingCore::new(CoreParams::default(), 1);
        let mut dma = slow.dma().clone();
        dma.transpose_elem_overhead = dfx_hw::Cycles(64);
        let slow = slow.with_dma(dma);
        let slowed = slow.time_step(&p);
        assert!(
            slowed.total > normal.total,
            "inflated transpose must surface on the critical path: {} vs {}",
            slowed.total,
            normal.total
        );
    }

    #[test]
    fn kv_readiness_does_not_depend_on_where_the_region_sits() {
        // A V store, then the Score x Value read of the same region, at a
        // region a table would index and at one far past any model: the
        // read waits for the store either way, and the step times alike.
        use dfx_isa::{
            DmaInstr, KvKind, MatrixInstr, MatrixKind, ReduceMax, StepMeta, VReg, VSlice,
        };
        let step = |layer: u16, head: u16, read_head: u16| {
            let meta = StepMeta {
                token_pos: 0,
                lm_head: false,
                core_id: 0,
                num_cores: 1,
            };
            let region = |head| TensorRef::Kv {
                layer,
                head,
                kind: KvKind::Value,
            };
            let mut p = Program::new(meta);
            p.push(
                OpClass::SelfAttention,
                Instr::Dma(DmaInstr {
                    dir: DmaDir::Store,
                    tensor: region(head),
                    row: 0,
                    reg: Some(VSlice::full(VReg(4), 64)),
                    bytes: 128,
                    transpose: true,
                }),
            );
            p.push(
                OpClass::SelfAttention,
                Instr::Matrix(MatrixInstr {
                    kind: MatrixKind::Mm,
                    src: VSlice::full(VReg(8), 1),
                    weight: region(read_head),
                    bias: None,
                    dst: VSlice::full(VReg(9), 64),
                    rows: 1,
                    cols: 64,
                    valid_cols: 64,
                    scale: None,
                    gelu: false,
                    reduce_max: ReduceMax::None,
                }),
            );
            TimingCore::new(CoreParams::default(), 1).time_step(&p)
        };
        let near = step(0, 0, 0);
        assert!(
            near.total > step(0, 0, 1).total,
            "the read waits for the store"
        );
        assert_eq!(step(u16::MAX, u16::MAX, u16::MAX), near);
        assert_eq!(step(u16::MAX, 7, 6), step(0, 0, 1));
    }

    #[test]
    fn activity_is_a_sane_fraction() {
        let t = time(&GptConfig::tiny(), 2, 0, true);
        let a = t.activity();
        assert!(a > 0.0 && a <= 1.0, "{a}");
    }

    #[test]
    fn batch_of_one_is_bit_identical_to_the_unbatched_path() {
        let cfg = GptConfig::tiny();
        let b = ProgramBuilder::new(cfg, ParallelConfig::new(0, 2)).unwrap();
        let engine = TimingCore::new(CoreParams::default(), 2);
        for pos in [0, 3, 7] {
            let p = b.token_step(pos, pos == 7);
            assert_eq!(engine.time_step(&p), engine.time_step_batched(&p, 1));
        }
    }

    #[test]
    fn batched_step_cost_is_monotone_in_batch_size() {
        let cfg = GptConfig::tiny();
        let b = ProgramBuilder::new(cfg, ParallelConfig::new(0, 2)).unwrap();
        let p = b.token_step(4, true);
        let engine = TimingCore::new(CoreParams::default(), 2);
        let mut prev = Cycles::ZERO;
        for batch in 1..=16 {
            let t = engine.time_step_batched(&p, batch);
            assert!(
                t.total >= prev,
                "batch {batch} got cheaper: {} < {prev}",
                t.total
            );
            prev = t.total;
        }
    }

    #[test]
    fn batching_amortises_the_weight_stream() {
        // A production-geometry step is weight-stream bound, so a batch
        // of B must cost far less than B independent steps: the whole
        // point of the batched cost model.
        let cfg = GptConfig::new("345m-1layer", 1024, 16, 2, 512, 64);
        let b = ProgramBuilder::new(cfg, ParallelConfig::new(0, 1)).unwrap();
        let p = b.token_step(0, false);
        let engine = TimingCore::new(CoreParams::default(), 1);
        let single = engine.time_step(&p).total.0;
        let batched = engine.time_step_batched(&p, 8).total.0;
        // Empirically ~4.5x: the shared weight stream amortises while the
        // per-request vector work still scales, so the per-member cost
        // drops to ~0.55x without ever reaching the full 8x.
        assert!(
            batched < 6 * single,
            "batch-8 step ({batched}) should amortise well below 8x the batch-1 step ({single})"
        );
        assert!(batched > single, "more work cannot be free");
    }

    #[test]
    #[should_panic(expected = "batch must be at least 1")]
    fn zero_batch_panics() {
        let b = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, 1)).unwrap();
        let _ =
            TimingCore::new(CoreParams::default(), 1).time_step_batched(&b.token_step(0, false), 0);
    }

    /// Checks that [`TimingCore::tile_class_start`] draws each `(core,
    /// batch)`'s classes exactly at `positions` of `builder`'s steps: a
    /// position inside a class times like its class start, and a class
    /// start past 0 times unlike the position before it. Every step it
    /// times, it times both whole and part by part, and the two agree.
    fn check_tile_classes(
        cores: &[(TimingCore, u32)],
        builder: &ProgramBuilder,
        lm_head: bool,
        positions: impl IntoIterator<Item = usize>,
    ) {
        let mut timed = BTreeMap::new();
        let mut time = |pos: usize, i: usize| {
            timed.entry(pos).or_insert_with(|| {
                let p = builder.token_step(pos, lm_head);
                let time = |(core, batch): &(TimingCore, u32)| {
                    let whole = core.time_step_batched(&p, *batch);
                    let parts = core.time_token_step(builder, pos, lm_head, *batch);
                    assert_eq!(parts, whole, "pos {pos} at batch {batch} on {core:?}");
                    whole
                };
                cores.iter().map(time).collect::<Vec<_>>()
            })[i]
        };
        for pos in positions {
            for (i, (core, batch)) in cores.iter().enumerate() {
                let start = core.tile_class_start(pos);
                let at = format!("pos {pos} at batch {batch} on {core:?}");
                if start == pos {
                    let differs = pos == 0 || time(pos, i) != time(pos - 1, i);
                    assert!(differs, "{at}: times like pos - 1");
                } else {
                    let (t, class) = (time(pos, i), time(start, i));
                    assert_eq!(t, class, "{at}: differs from class start {start}");
                }
            }
        }
    }

    /// The timing-core variants of the class proof at `shape`: the
    /// scoreboard on and off, at each of `batches`.
    fn class_variants(
        shape: dfx_hw::TileShape,
        num_cores: usize,
        batches: &[u32],
    ) -> Vec<(TimingCore, u32)> {
        let core = TimingCore::new(CoreParams::with_shape(shape), num_cores as u32);
        [core.clone(), core.without_scoreboard()]
            .into_iter()
            .flat_map(|c| batches.iter().map(move |&b| (c.clone(), b)))
            .collect()
    }

    /// Positions on both sides of every class edge of `core` below `len`.
    fn edge_positions(core: &TimingCore, len: usize) -> Vec<usize> {
        (1..len)
            .filter(|&p| core.tile_class_start(p) == p)
            .flat_map(|s| [s - 1, s, s + 1])
            .filter(|&p| p < len)
            .collect()
    }

    #[test]
    fn every_step_times_like_its_tile_class_start() {
        use dfx_isa::{BuilderOptions, QkvOrder};
        let cfg = GptConfig::tiny();
        let len = cfg.max_seq_len;
        for num_cores in [1, 2] {
            for qkv_order in [QkvOrder::ValueFirst, QkvOrder::ValueLast] {
                let par = ParallelConfig::new(0, num_cores);
                let b =
                    ProgramBuilder::with_options(cfg.clone(), par, BuilderOptions { qkv_order })
                        .unwrap();
                for lm in [false, true] {
                    for shape in dfx_hw::TileShape::DSE_CANDIDATES {
                        let mut cores = class_variants(shape, num_cores, &[1, 2, 3, 4]);
                        let edges = edge_positions(&cores[0].0, len);
                        // The transpose ablation must merge no positions:
                        // its step at each edge differs from the one
                        // before.
                        let transposed: Vec<_> = cores
                            .iter()
                            .map(|(c, b)| (c.clone().with_read_side_transpose(), *b))
                            .collect();
                        cores.extend(transposed);
                        check_tile_classes(&cores, &b, lm, edges);
                    }
                }
            }
        }
        // The paper's geometry runs 16 positions per class; under the
        // transpose ablation each position is its own class.
        let core = TimingCore::new(CoreParams::default(), 1);
        assert_eq!(core.tile_class_start(31), 16);
        let transposed = core.with_read_side_transpose();
        assert!((0..len).all(|p| transposed.tile_class_start(p) == p));
    }

    #[test]
    #[ignore = "paper scale: about 7 s in release"]
    fn paper_scale_steps_time_like_their_tile_class_start() {
        use dfx_isa::{BuilderOptions, QkvOrder};
        for (cfg, num_cores) in [
            (GptConfig::gpt2_345m(), 1),
            (GptConfig::gpt2_774m(), 2),
            (GptConfig::gpt2_1_5b(), 4),
        ] {
            let cores = class_variants(dfx_hw::TileShape::PAPER, num_cores, &[1, 3, 8]);
            for qkv_order in [QkvOrder::ValueFirst, QkvOrder::ValueLast] {
                let par = ParallelConfig::new(0, num_cores);
                let b =
                    ProgramBuilder::with_options(cfg.clone(), par, BuilderOptions { qkv_order })
                        .unwrap();
                for lm in [false, true] {
                    check_tile_classes(&cores, &b, lm, 0..cfg.max_seq_len);
                }
            }
        }
    }

    /// FNV-1a over every field of `t`, folded into `hash`.
    fn fnv_step(hash: u64, t: &StepTiming) -> u64 {
        let words = [t.total.0, t.instructions as u64]
            .into_iter()
            .chain(t.by_class.iter().chain(&t.unit_busy).map(|c| c.0));
        words.flat_map(u64::to_le_bytes).fold(hash, |h, byte| {
            (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// The hashes of every step of `cfg` on core 0 of `num_cores` at
    /// `positions`, for each tile shape in `shapes` (both `QkvOrder`s, LM
    /// head off and on, the scoreboard on and off and the read-side
    /// transpose, at batches 1, 3 and 8), timed whole by
    /// `time_step_batched` and part by part by `time_token_step`.
    fn pin_hash(
        cfg: &GptConfig,
        num_cores: usize,
        shapes: &[dfx_hw::TileShape],
        positions: &[usize],
    ) -> [u64; 2] {
        use dfx_isa::{BuilderOptions, QkvOrder};
        let mut hash = [0xcbf2_9ce4_8422_2325; 2];
        for qkv_order in [QkvOrder::ValueFirst, QkvOrder::ValueLast] {
            let par = ParallelConfig::new(0, num_cores);
            let b = ProgramBuilder::with_options(cfg.clone(), par, BuilderOptions { qkv_order })
                .unwrap();
            for &pos in positions {
                for lm in [false, true] {
                    let p = b.token_step(pos, lm);
                    for &shape in shapes {
                        let core = TimingCore::new(CoreParams::with_shape(shape), num_cores as u32);
                        let variants = [
                            core.clone(),
                            core.clone().without_scoreboard(),
                            core.with_read_side_transpose(),
                        ];
                        for core in &variants {
                            for batch in [1, 3, 8] {
                                let whole = core.time_step_batched(&p, batch);
                                let parts = core.time_token_step(&b, pos, lm, batch);
                                hash = [fnv_step(hash[0], &whole), fnv_step(hash[1], &parts)];
                            }
                        }
                    }
                }
            }
        }
        hash
    }

    #[test]
    fn step_timings_are_bit_pinned() {
        // Every field of every step, hashed: a change to the cycle model
        // that moves any cycle of these grids changes a constant. The
        // small model's 3 heads split across 1 or 3 cores, not 2.
        let shapes = dfx_hw::TileShape::DSE_CANDIDATES;
        let positions = [0, 7, 8, 15, 16, 31, 32, 127];
        let got = [
            pin_hash(&GptConfig::tiny(), 1, &shapes, &positions),
            pin_hash(&GptConfig::tiny(), 2, &shapes, &positions),
            pin_hash(&GptConfig::small(), 1, &shapes, &positions),
            pin_hash(&GptConfig::small(), 3, &shapes, &positions),
            pin_hash(
                &GptConfig::gpt2_1_5b(),
                4,
                &[dfx_hw::TileShape::PAPER],
                &[0, 15, 16, 255, 1023],
            ),
        ];
        // tiny×1, tiny×2, small×1, small×3, 1.5B×4.
        let want: [u64; 5] = [
            0x74b4_ab5b_c9a5_d6b8,
            0xc599_9ded_fbdb_58d7,
            0x70e0_1816_99d7_5107,
            0xde8a_34ac_7c64_45e0,
            0x2d06_7856_9689_0846,
        ];
        let hex = |h: [u64; 5]| h.map(|h| format!("{h:#018x}"));
        assert_eq!(hex(got.map(|h| h[0])), hex(want), "time_step_batched");
        assert_eq!(hex(got.map(|h| h[1])), hex(want), "time_token_step");
    }

    #[test]
    fn layers_repeat_only_once_their_whole_relative_state_does() {
        // Two layers can start with equal register ready times yet with a
        // unit busy for different spans, or with the makespan trailing the
        // cursor by different amounts; their schedules then differ. The
        // default parameters never show either, these slow variants do:
        // timing the step part by part must still agree with the whole
        // walk.
        use dfx_isa::{BuilderOptions, QkvOrder};
        let slow = |params: CoreParams, cores: u32, ddr: fn(&mut dfx_hw::DdrModel)| {
            let core = TimingCore::new(params, cores);
            let mut dma = core.dma().clone();
            ddr(&mut dma.ddr);
            core.with_dma(dma)
        };
        // The makespan trails the cursor under a slow issue rate.
        let trailing = CoreParams {
            issue_interval: 500,
            ..CoreParams::default()
        };
        // DDR loads outlast the register writes behind heavy vector work.
        let busy = CoreParams {
            vector_overhead: 20_000,
            ..CoreParams::default()
        };
        for (cfg, cores) in [
            (GptConfig::tiny(), 1),
            (GptConfig::tiny(), 2),
            (GptConfig::small(), 1),
            (GptConfig::small(), 3),
        ] {
            let variants = [
                slow(trailing, cores as u32, |ddr| ddr.bytes_per_cycle = 1),
                slow(busy, cores as u32, |ddr| ddr.request_setup = Cycles(5_000)),
            ];
            for qkv_order in [QkvOrder::ValueFirst, QkvOrder::ValueLast] {
                let par = ParallelConfig::new(0, cores);
                let b =
                    ProgramBuilder::with_options(cfg.clone(), par, BuilderOptions { qkv_order })
                        .unwrap();
                for pos in [0, 7, 8, 15, 16, 31, 32, 127] {
                    for lm in [false, true] {
                        let p = b.token_step(pos, lm);
                        for core in &variants {
                            for batch in [1, 3, 8] {
                                assert_eq!(
                                    core.time_token_step(&b, pos, lm, batch),
                                    core.time_step_batched(&p, batch),
                                    "{} x{cores} {qkv_order:?} pos {pos} lm {lm} batch {batch}",
                                    cfg.name
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn units_overlap_and_pipelines_chain() {
        // The makespan must beat the fully serialised schedule (every
        // instruction's occupancy + pipeline latency end to end).
        let cfg = GptConfig::tiny();
        let b = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, 2)).unwrap();
        let p = b.token_step(2, true);
        let engine = TimingCore::new(CoreParams::default(), 2);
        let t = engine.time_step(&p);
        let serial: u64 = p
            .instrs()
            .iter()
            .map(|ai| {
                let c = engine.batched_instr_cost(&ai.instr, 1);
                c.occupancy.0 + c.latency.0
            })
            .sum();
        assert!(
            t.total.0 < serial,
            "makespan {} should beat serial bound {serial}",
            t.total.0
        );
    }
}
