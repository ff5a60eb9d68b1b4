//! The functional executor: runs DFX programs on real FP16 data.
//!
//! This is the bit-level model of the datapath: matrix instructions
//! execute tile-by-tile through `d`-input MAC trees (pairwise FP16
//! reduction), GELU goes through the 2048-entry lookup table, softmax and
//! LayerNorm run as the lowered vector/scalar sequences, and Values are
//! cached through the transpose layout. Router instructions suspend
//! execution and yield control to the cluster, which performs the
//! all-gather/argmax exchange and resumes each core — mirroring the
//! RX-buffer rendezvous of the hardware.

use crate::error::ExecError;
use crate::weights::{CoreWeights, KvStore, LaneTiles};
use dfx_isa::{
    regs, DmaDir, EmbedTable, Instr, KvKind, MatrixKind, Program, ReduceKind, ReduceMax,
    RouterInstr, RouterOp, SReg, ScalarOpKind, TensorRef, VReg, VSlice, VectorOpKind,
};
use dfx_num::{reduce, SfuMath, F16};

/// MAC-tree fan-in `d`: matrix inputs are consumed in `d`-row blocks.
const MAC_TREE_WIDTH: usize = 64;

/// Why the executor paused.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreEvent {
    /// An `AllGather` router instruction: the core contributes `partial`
    /// and waits for the gathered vector.
    AllGather {
        /// Index of the router instruction within the program.
        instr_index: usize,
        /// This core's partial vector.
        partial: Vec<F16>,
    },
    /// An `AllReduceArgMax` router instruction: the core contributes its
    /// (already globally indexed) argmax candidate.
    ArgMaxSync {
        /// Index of the router instruction within the program.
        instr_index: usize,
        /// Global vocabulary index of the local maximum.
        local_idx: u32,
        /// The local maximum logit.
        local_max: F16,
    },
    /// The program ran to completion.
    Done,
}

/// One core's functional state.
#[derive(Debug, Clone)]
pub struct FunctionalCore {
    weights: CoreWeights,
    kv: KvStore,
    vregs: Vec<Vec<F16>>,
    sregs: Vec<F16>,
    /// Integer side-channel for argmax indices (the hardware reduce-max
    /// unit carries the index as an integer payload, not as FP16 —
    /// vocabulary ids above 2048 are not exactly representable in half
    /// precision).
    sreg_idx: Vec<u32>,
    sfu: SfuMath,
    current_token: u32,
    out_token: Option<u32>,
    /// Result buffer reused by every vector-producing instruction.
    scratch: Vec<F16>,
    /// The current matrix input, widened once for all its columns.
    wide_input: Vec<f32>,
    /// The MAC trees' lane table, one row per input of a block.
    lane_table: Vec<[f32; reduce::LANES]>,
}

/// The scalar register `r` of `file` (the FP16 or the index file).
fn sreg_get<T: Copy>(file: &[T], r: SReg) -> Result<T, ExecError> {
    #[cfg(test)]
    recording::note(recording::Access::Read, r.flat());
    file.get(usize::from(r.0))
        .copied()
        .ok_or_else(|| ExecError::OutOfRange(format!("scalar register {r}")))
}

/// Writes `value` to the scalar register `r` of `file`.
fn sreg_set<T>(file: &mut [T], r: SReg, value: T) -> Result<(), ExecError> {
    #[cfg(test)]
    recording::note(recording::Access::Write, r.flat());
    let slot = file
        .get_mut(usize::from(r.0))
        .ok_or_else(|| ExecError::OutOfRange(format!("scalar register {r}")))?;
    *slot = value;
    Ok(())
}

/// The elements `s` selects from the register file.
fn read_slice(vregs: &[Vec<F16>], s: VSlice) -> Result<&[F16], ExecError> {
    #[cfg(test)]
    recording::note(recording::Access::Read, s.reg.flat());
    let start = s.offset as usize;
    let end = start + s.len as usize;
    vregs
        .get(usize::from(s.reg.0))
        .and_then(|reg| reg.get(start..end))
        .ok_or_else(|| {
            let held = vregs.get(usize::from(s.reg.0)).map_or(0, Vec::len);
            ExecError::OutOfRange(format!(
                "read of {start}..{end} from {} holding {held} elements",
                s.reg
            ))
        })
}

/// Writes `data` to the register slice `s`, growing the register.
fn write_slice(vregs: &mut [Vec<F16>], s: VSlice, data: &[F16]) -> Result<(), ExecError> {
    #[cfg(test)]
    recording::note(recording::Access::Write, s.reg.flat());
    if data.len() != s.len as usize {
        return Err(ExecError::Shape(format!(
            "{} elements written to a {}-wide slice of {}",
            data.len(),
            s.len,
            s.reg
        )));
    }
    let reg = vregs
        .get_mut(usize::from(s.reg.0))
        .ok_or_else(|| ExecError::OutOfRange(format!("register {}", s.reg)))?;
    let end = s.offset as usize + data.len();
    if reg.len() < end {
        reg.resize(end, F16::ZERO);
    }
    reg[s.offset as usize..end].copy_from_slice(data);
    Ok(())
}

/// `out[c] = bias[c] + Σ_blocks mac_tree(x[block], column_c[block])`:
/// each output sums its `d`-row blocks through a pairwise MAC tree and
/// accumulates the block partials in FP16, in row order. `x` is the
/// input widened once with [`F16::to_f32`], one element per row of `w`.
///
/// The MPU's `l` trees take `w` one `d × l` tile at a time: each 64-row
/// block of a tile of [`reduce::LANES`] columns is reduced by
/// [`reduce::mac_tile`] side by side, in the core's lane `table`. Every
/// output is still its own column's trees and FP16 block sum, bit for
/// bit. `out` is overwritten.
fn mac_tiles(
    x: &[f32],
    w: &LaneTiles,
    bias: Option<&[F16]>,
    out: &mut Vec<F16>,
    table: &mut Vec<[f32; reduce::LANES]>,
) -> Result<(), ExecError> {
    out.clear();
    match bias {
        Some(b) if b.len() != w.cols() => {
            return Err(ExecError::Shape(format!(
                "bias of {} elements for {} outputs",
                b.len(),
                w.cols()
            )))
        }
        Some(b) => out.extend_from_slice(b),
        None => out.resize(w.cols(), F16::ZERO),
    }
    for (outs, tile) in out.chunks_mut(reduce::LANES).zip(w.tiles()) {
        for (xs, rows) in x.chunks(MAC_TREE_WIDTH).zip(tile.chunks(MAC_TREE_WIDTH)) {
            let partials = reduce::mac_tile(xs, rows, outs.len(), table);
            for (acc, p) in outs.iter_mut().zip(partials) {
                *acc += p;
            }
        }
    }
    Ok(())
}

impl FunctionalCore {
    /// Creates a core holding `weights`.
    pub fn new(weights: CoreWeights) -> Self {
        let kv = KvStore::new(
            weights.cfg.num_layers,
            weights.par.heads_per_core(&weights.cfg),
            weights.cfg.head_dim(),
        );
        FunctionalCore {
            weights,
            kv,
            vregs: vec![Vec::new(); dfx_isa::NUM_VREGS],
            sregs: vec![F16::ZERO; dfx_isa::NUM_SREGS],
            sreg_idx: vec![0; dfx_isa::NUM_SREGS],
            sfu: SfuMath::new(),
            current_token: 0,
            out_token: None,
            scratch: Vec::new(),
            wide_input: Vec::new(),
            lane_table: Vec::new(),
        }
    }

    /// Returns the core to the state [`FunctionalCore::new`] left it in
    /// (empty K/V store and registers) for a fresh request, keeping the
    /// weights and the register allocations.
    pub fn reset(&mut self) {
        self.kv.clear();
        self.vregs.iter_mut().for_each(Vec::clear);
        self.sregs.fill(F16::ZERO);
        self.sreg_idx.fill(0);
        self.current_token = 0;
        self.out_token = None;
    }

    /// This core's weights.
    pub fn weights(&self) -> &CoreWeights {
        &self.weights
    }

    /// Current KV context length.
    pub fn context_len(&self) -> usize {
        self.kv.context_len()
    }

    /// Starts a token step: sets the input token and clears the output.
    pub fn begin_step(&mut self, token: u32) {
        self.current_token = token;
        self.out_token = None;
    }

    /// The token produced by the last LM-head step, if any.
    pub fn out_token(&self) -> Option<u32> {
        self.out_token
    }

    /// Reads a vector register (tests and cluster assertions).
    pub fn vreg(&self, reg: VReg) -> &[F16] {
        &self.vregs[reg.0 as usize]
    }

    /// Reads a scalar register.
    pub fn sreg(&self, reg: SReg) -> F16 {
        self.sregs[reg.0 as usize]
    }

    /// Executes `program` from instruction index `from` until a router
    /// instruction pauses it (returning the resume index and event) or it
    /// finishes.
    ///
    /// # Errors
    ///
    /// Returns an [`ExecError`] on a malformed program (use
    /// [`Program::validate`] first), where the hardware would raise a
    /// fault.
    pub fn run(&mut self, program: &Program, from: usize) -> Result<(usize, CoreEvent), ExecError> {
        let instrs = program.instrs();
        for (i, instr) in instrs.iter().enumerate().skip(from) {
            #[cfg(test)]
            recording::at(i);
            match &instr.instr {
                Instr::Router(r) => return Ok((i, self.router_event(i, r)?)),
                Instr::Matrix(m) => self.exec_matrix(m)?,
                Instr::Vector(v) => self.exec_vector(v)?,
                Instr::Reduce(r) => self.exec_reduce(r)?,
                Instr::Scalar(s) => self.exec_scalar(s)?,
                Instr::Dma(d) => self.exec_dma(d, program)?,
            }
        }
        Ok((instrs.len(), CoreEvent::Done))
    }

    fn router_event(&self, instr_index: usize, r: &RouterInstr) -> Result<CoreEvent, ExecError> {
        Ok(match r.op {
            RouterOp::AllGather => CoreEvent::AllGather {
                instr_index,
                partial: read_slice(&self.vregs, r.src)?.to_vec(),
            },
            RouterOp::AllReduceArgMax => {
                let (idx, max) = argmax_regs(r)?;
                CoreEvent::ArgMaxSync {
                    instr_index,
                    local_idx: sreg_get(&self.sreg_idx, idx)?,
                    local_max: sreg_get(&self.sregs, max)?,
                }
            }
        })
    }

    /// Completes a paused `AllGather` with the reordered full vector.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] if `full` does not match the
    /// instruction's destination width.
    pub fn complete_allgather(&mut self, r: &RouterInstr, full: &[F16]) -> Result<(), ExecError> {
        write_slice(&mut self.vregs, r.dst, full)
    }

    /// Completes a paused `AllReduceArgMax` with the global winner.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::MissingOperand`] if the instruction names no
    /// index or maximum register, [`ExecError::OutOfRange`] if it names
    /// one past the register file.
    pub fn complete_argmax(
        &mut self,
        r: &RouterInstr,
        global_idx: u32,
        global_max: F16,
    ) -> Result<(), ExecError> {
        let (idx, max) = argmax_regs(r)?;
        sreg_set(&mut self.sreg_idx, idx, global_idx)?;
        sreg_set(&mut self.sregs, max, global_max)
    }

    /// Matrix-vector multiply through the MAC trees, tile-accurate:
    /// the input is consumed in `d`-row blocks, each block reduced by a
    /// pairwise tree, block partials accumulated in FP16. Weights and
    /// K/V tiles are borrowed in place, already widened.
    fn exec_matrix(&mut self, m: &dfx_isa::MatrixInstr) -> Result<(), ExecError> {
        let x = read_slice(&self.vregs, m.src)?;
        let (rows, cols) = (m.rows as usize, m.cols as usize);
        if x.len() != rows {
            return Err(ExecError::Shape(format!(
                "{}-element input for {rows} rows of {}",
                x.len(),
                m.weight
            )));
        }
        let bias = m.bias.map(|b| self.weights.bias(b)).transpose()?;
        self.wide_input.clear();
        self.wide_input.extend(x.iter().map(|v| v.to_f32()));
        let w = match m.weight {
            TensorRef::Kv { .. } => self.kv.matrix(m.weight)?,
            _ => self.weights.weight_matrix(m.weight)?,
        };
        if w.shape() != (rows, cols) {
            return Err(ExecError::Shape(format!(
                "{} is {:?}, instruction wants {:?}",
                m.weight,
                w.shape(),
                (rows, cols)
            )));
        }
        let mut out = std::mem::take(&mut self.scratch);
        mac_tiles(&self.wide_input, w, bias, &mut out, &mut self.lane_table)?;

        if let Some(scale) = m.scale {
            let s = F16::from_f32(scale);
            for o in &mut out {
                *o *= s;
            }
        }
        if m.kind == MatrixKind::MaskedMm {
            for o in out.iter_mut().skip(m.valid_cols as usize) {
                *o = F16::NEG_INFINITY;
            }
        }
        if m.gelu {
            for o in &mut out {
                *o = self.sfu.gelu(*o);
            }
        }
        let max_of = || {
            reduce::reduce_max(&out).ok_or_else(|| {
                ExecError::Shape(format!("reduce-max over no outputs of {}", m.weight))
            })
        };
        match m.reduce_max {
            ReduceMax::None => {}
            ReduceMax::Max(sreg) => sreg_set(&mut self.sregs, sreg, max_of()?.1)?,
            ReduceMax::ArgMax { idx, max } => {
                let (i, v) = max_of()?;
                // The index is globalised with the core's vocabulary
                // offset so single- and multi-core paths agree.
                sreg_set(
                    &mut self.sreg_idx,
                    idx,
                    self.weights.vocab_offset + i as u32,
                )?;
                sreg_set(&mut self.sregs, idx, F16::from_f64(i as f64))?;
                sreg_set(&mut self.sregs, max, v)?;
            }
        }
        write_slice(&mut self.vregs, m.dst, &out)?;
        self.scratch = out;
        Ok(())
    }

    fn exec_vector(&mut self, v: &dfx_isa::VectorInstr) -> Result<(), ExecError> {
        let a = read_slice(&self.vregs, VSlice::full(v.a, v.len))?;
        let mut out = std::mem::take(&mut self.scratch);
        out.clear();
        match v.op {
            VectorOpKind::Add | VectorOpKind::Sub | VectorOpKind::Mul => {
                let b =
                    v.b.ok_or(ExecError::MissingOperand("vector-vector b register"))?;
                let b = read_slice(&self.vregs, VSlice::full(b, v.len))?;
                let pairs = a.iter().zip(b);
                match v.op {
                    VectorOpKind::Add => out.extend(pairs.map(|(&x, &y)| x + y)),
                    VectorOpKind::Sub => out.extend(pairs.map(|(&x, &y)| x - y)),
                    _ => out.extend(pairs.map(|(&x, &y)| x * y)),
                }
            }
            VectorOpKind::AddScalar | VectorOpKind::SubScalar | VectorOpKind::MulScalar => {
                let s =
                    v.s.ok_or(ExecError::MissingOperand("vector-scalar s register"))?;
                let s = sreg_get(&self.sregs, s)?;
                match v.op {
                    VectorOpKind::AddScalar => out.extend(a.iter().map(|&x| x + s)),
                    VectorOpKind::SubScalar => out.extend(a.iter().map(|&x| x - s)),
                    _ => out.extend(a.iter().map(|&x| x * s)),
                }
            }
            VectorOpKind::Exp => out.extend(a.iter().map(|&x| self.sfu.exp(x))),
            VectorOpKind::Copy => out.extend_from_slice(a),
        }
        write_slice(&mut self.vregs, VSlice::full(v.dst, v.len), &out)?;
        self.scratch = out;
        Ok(())
    }

    /// Reduction through SFU_V: `d`-wide tree per chunk, chunks
    /// accumulated sequentially.
    fn exec_reduce(&mut self, r: &dfx_isa::ReduceInstr) -> Result<(), ExecError> {
        let v = read_slice(&self.vregs, VSlice::full(r.v, r.len))?;
        let result = match r.kind {
            ReduceKind::Sum => v
                .chunks(MAC_TREE_WIDTH)
                .map(reduce::tree_sum)
                .fold(F16::ZERO, |acc, c| acc + c),
            ReduceKind::Max => reduce::reduce_max(v).map_or(F16::NEG_INFINITY, |(_, m)| m),
        };
        sreg_set(&mut self.sregs, r.dst, result)
    }

    fn exec_scalar(&mut self, s: &dfx_isa::ScalarInstr) -> Result<(), ExecError> {
        let a = sreg_get(&self.sregs, s.a)?;
        let b = match s.b {
            Some(r) => Some(sreg_get(&self.sregs, r)?),
            None => s.imm.map(F16::from_f32),
        };
        let b = || b.ok_or(ExecError::MissingOperand("scalar b operand"));
        let result = match s.op {
            ScalarOpKind::Add => a + b()?,
            ScalarOpKind::Mul => a * b()?,
            ScalarOpKind::Recip => self.sfu.recip(a),
            ScalarOpKind::RecipSqrt => self.sfu.recip_sqrt(a),
        };
        sreg_set(&mut self.sregs, s.dst, result)
    }

    fn exec_dma(&mut self, d: &dfx_isa::DmaInstr, program: &Program) -> Result<(), ExecError> {
        let reg = |what| d.reg.ok_or(ExecError::MissingOperand(what));
        match (d.dir, d.tensor) {
            (DmaDir::Load, TensorRef::TokenIo) => {
                // The controller already latched `current_token` via
                // `begin_step`; nothing to model functionally.
            }
            (DmaDir::Store, TensorRef::TokenIo) => {
                self.out_token = Some(sreg_get(&self.sreg_idx, regs::S_ARGMAX)?);
            }
            (DmaDir::Load, TensorRef::Embed { table }) => {
                let (matrix, row) = match table {
                    EmbedTable::Wte => (&self.weights.wte, self.current_token as usize),
                    EmbedTable::Wpe => (&self.weights.wpe, d.row as usize),
                };
                if row >= matrix.rows() {
                    return Err(ExecError::OutOfRange(format!(
                        "row {row} of a {}-row {table:?} table",
                        matrix.rows()
                    )));
                }
                write_slice(
                    &mut self.vregs,
                    reg("embedding load destination")?,
                    matrix.row(row),
                )?;
            }
            (DmaDir::Load, TensorRef::Ln { .. }) => {
                let param = self.weights.ln_param(d.tensor)?;
                write_slice(&mut self.vregs, reg("ln load destination")?, param)?;
            }
            (DmaDir::Load, TensorRef::Bias { .. }) => {
                // Biases stream into the DMA bias buffer; the matrix
                // instruction reads them directly in this model.
            }
            (DmaDir::Store, TensorRef::Kv { layer, head, kind }) => {
                let row = read_slice(&self.vregs, reg("kv store source")?)?;
                let hkv = self.kv.head_mut(layer, head)?;
                match (kind, d.transpose) {
                    (KvKind::Key, false) => hkv.push_key(row)?,
                    (KvKind::Value, true) => hkv.push_value(row)?,
                    // K rows are stored untransposed; V rows go through
                    // the transpose unit.
                    _ => {
                        return Err(ExecError::Unsupported(format!(
                            "{kind:?} store with transpose = {}",
                            d.transpose
                        )))
                    }
                }
                // Each store must land at the row for this step.
                debug_assert_eq!(d.row, program.meta.token_pos);
            }
            (dir, tensor) => {
                return Err(ExecError::Unsupported(format!("DMA {dir:?} of {tensor}")))
            }
        }
        Ok(())
    }
}

/// The test-only recording register file: while a [`recording::Log`] is
/// installed on this thread, every register access of the accessors
/// above is noted, by flat index, against the instruction `run` is at.
#[cfg(test)]
pub(crate) mod recording {
    use std::cell::RefCell;
    use std::collections::{BTreeMap, BTreeSet};

    /// A read or a write.
    pub enum Access {
        Read,
        Write,
    }

    /// The registers one instruction read and wrote.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
    pub struct Touched {
        pub reads: BTreeSet<usize>,
        pub writes: BTreeSet<usize>,
    }

    /// One core's accesses, by instruction index.
    #[derive(Debug, Clone, Default)]
    pub struct Log {
        at: usize,
        pub touched: BTreeMap<usize, Touched>,
    }

    thread_local! {
        static LOG: RefCell<Option<Log>> = const { RefCell::new(None) };
    }

    /// Runs `f` with `log` installed; a router completion recorded
    /// after its `run` returned lands on the router instruction.
    pub fn record<T>(log: &mut Log, f: impl FnOnce() -> T) -> T {
        LOG.with(|l| *l.borrow_mut() = Some(std::mem::take(log)));
        let out = f();
        *log = LOG.with(|l| l.borrow_mut().take()).unwrap_or_default();
        out
    }

    pub(super) fn at(index: usize) {
        LOG.with(|l| {
            if let Some(log) = l.borrow_mut().as_mut() {
                log.at = index;
            }
        });
    }

    pub(super) fn note(access: Access, reg: usize) {
        LOG.with(|l| {
            if let Some(log) = l.borrow_mut().as_mut() {
                let touched = log.touched.entry(log.at).or_default();
                match access {
                    Access::Read => touched.reads.insert(reg),
                    Access::Write => touched.writes.insert(reg),
                };
            }
        });
    }
}

/// The index and maximum registers of an `AllReduceArgMax`.
fn argmax_regs(r: &RouterInstr) -> Result<(SReg, SReg), ExecError> {
    match (r.idx, r.max) {
        (Some(idx), Some(max)) => Ok((idx, max)),
        _ => Err(ExecError::MissingOperand("argmax index/maximum register")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_isa::{ParallelConfig, ProgramBuilder};
    use dfx_model::{GptConfig, GptWeights};

    fn single_core() -> (FunctionalCore, ProgramBuilder) {
        let cfg = GptConfig::tiny();
        let w = GptWeights::synthetic(&cfg).cast::<F16>();
        let par = ParallelConfig::new(0, 1);
        let core = FunctionalCore::new(
            CoreWeights::partition_cluster(w.clone(), 1)
                .unwrap()
                .swap_remove(0),
        );
        let builder = ProgramBuilder::new(cfg, par).unwrap();
        (core, builder)
    }

    #[test]
    fn mac_tiles_match_per_column_trees_and_fp16_block_sums() {
        let number = |i: usize| F16::from_f32(((i * 37) % 41) as f32 * 0.0625 - 1.25);
        for (rows, cols) in [(1, 1), (64, 16), (63, 17), (130, 37)] {
            let mut columns: Vec<Vec<F16>> = (0..cols)
                .map(|c| (0..rows).map(|r| number(r * 3 + c + 1)).collect())
                .collect();
            // One NaN with a payload, in the last column's last block.
            columns[cols - 1][rows - 1] = F16::from_bits(0x7d01);
            let w = LaneTiles::transposed_rows(&dfx_model::Matrix::from_rows(&columns), 0, cols);
            let bias: Vec<F16> = (0..cols).map(|c| number(c + 7)).collect();
            let plain: Vec<F16> = (0..rows).map(number).collect();
            // An ∞ and a NaN input make the padding lanes of a partial
            // last tile NaN; the real lanes must not move.
            let mut special = plain.clone();
            special[0] = F16::INFINITY;
            special[rows / 2] = F16::from_bits(0xfe11);
            for (x, bias) in [(&plain, None), (&plain, Some(&bias[..])), (&special, None)] {
                let wide: Vec<f32> = x.iter().map(|v| v.to_f32()).collect();
                let mut out = Vec::new();
                mac_tiles(&wide, &w, bias, &mut out, &mut Vec::new()).unwrap();
                assert_eq!(out.len(), cols);
                for (c, col) in columns.iter().enumerate() {
                    let mut want = bias.map_or(F16::ZERO, |b| b[c]);
                    for (xs, ws) in x.chunks(MAC_TREE_WIDTH).zip(col.chunks(MAC_TREE_WIDTH)) {
                        want += reduce::mac_tree(xs, ws);
                    }
                    assert_eq!(out[c].to_bits(), want.to_bits(), "{rows}x{cols} column {c}");
                }
            }
        }
    }

    #[test]
    fn single_core_step_runs_to_done_and_emits_a_token() {
        let (mut core, builder) = single_core();
        let p = builder.token_step(0, true);
        core.begin_step(42);
        let (end, ev) = core.run(&p, 0).unwrap();
        assert_eq!(ev, CoreEvent::Done);
        assert_eq!(end, p.len());
        assert!(core.out_token().is_some());
        assert_eq!(core.context_len(), 1, "one token cached");
    }

    #[test]
    fn step_without_lm_head_produces_no_token() {
        let (mut core, builder) = single_core();
        let p = builder.token_step(0, false);
        core.begin_step(7);
        let (_, ev) = core.run(&p, 0).unwrap();
        assert_eq!(ev, CoreEvent::Done);
        assert!(core.out_token().is_none());
    }

    #[test]
    fn kv_cache_grows_per_step_and_context_matches() {
        let (mut core, builder) = single_core();
        for pos in 0..3 {
            let p = builder.token_step(pos, false);
            core.begin_step(pos as u32 + 1);
            let (_, ev) = core.run(&p, 0).unwrap();
            assert_eq!(ev, CoreEvent::Done);
        }
        assert_eq!(core.context_len(), 3);
    }

    #[test]
    fn functional_step_matches_reference_model_hidden_state() {
        // One full token step vs the f32 reference narrowed to F16: the
        // residual register after the step should be close to the
        // reference's pre-ln_f hidden state.
        let cfg = GptConfig::tiny();
        let w32 = GptWeights::synthetic(&cfg);
        let w16 = w32.cast::<F16>();
        let reference = dfx_model::Gpt2Model::new(w16.clone());
        let mut cache = dfx_model::KvCache::new(cfg.num_layers);
        let ref_hidden = reference.forward_token(11, 0, &mut cache);

        let par = ParallelConfig::new(0, 1);
        let mut core = FunctionalCore::new(
            CoreWeights::partition_cluster(w16, 1)
                .unwrap()
                .swap_remove(0),
        );
        let builder = ProgramBuilder::new(cfg, par).unwrap();
        let p = builder.token_step(0, true);
        core.begin_step(11);
        let (_, ev) = core.run(&p, 0).unwrap();
        assert_eq!(ev, CoreEvent::Done);

        let got = core.vreg(regs::LM_HIDDEN);
        assert_eq!(got.len(), ref_hidden.len());
        let mut max_err = 0f64;
        for (a, b) in got.iter().zip(&ref_hidden) {
            max_err = max_err.max((a.to_f64() - b.to_f64()).abs());
        }
        // Tree-vs-sequential accumulation and LUT GELU differ slightly.
        assert!(max_err < 0.05, "max |Δhidden| = {max_err}");
    }

    #[test]
    fn two_core_execution_pauses_at_allgather_with_matching_indices() {
        let cfg = GptConfig::tiny();
        let w = GptWeights::synthetic(&cfg).cast::<F16>();
        let mut cores: Vec<FunctionalCore> = CoreWeights::partition_cluster(w.clone(), 2)
            .unwrap()
            .into_iter()
            .map(FunctionalCore::new)
            .collect();
        let builders: Vec<ProgramBuilder> = (0..2)
            .map(|c| ProgramBuilder::new(cfg.clone(), ParallelConfig::new(c, 2)).unwrap())
            .collect();
        let programs: Vec<Program> = builders.iter().map(|b| b.token_step(0, false)).collect();

        let mut events = Vec::new();
        for (core, p) in cores.iter_mut().zip(&programs) {
            core.begin_step(5);
            events.push(core.run(p, 0).unwrap());
        }
        let (i0, e0) = &events[0];
        let (i1, _e1) = &events[1];
        assert_eq!(i0, i1, "homogeneous cores pause at the same instruction");
        assert!(matches!(e0, CoreEvent::AllGather { .. }));
    }

    /// Runs one token step on every core, exchanging router payloads in
    /// lockstep the way the cluster does, with each core's register
    /// accesses recorded in its log.
    fn recorded_step(
        cores: &mut [FunctionalCore],
        programs: &[Program],
        logs: &mut [recording::Log],
        token: u32,
    ) {
        cores.iter_mut().for_each(|c| c.begin_step(token));
        let mut from = vec![0; cores.len()];
        loop {
            let events: Vec<(usize, CoreEvent)> = (0..cores.len())
                .map(|c| recording::record(&mut logs[c], || cores[c].run(&programs[c], from[c])))
                .collect::<Result<_, _>>()
                .unwrap();
            let router = |c: usize| match programs[c].instrs()[events[c].0].instr {
                Instr::Router(r) => r,
                ref other => panic!("core {c} paused at {other}"),
            };
            match &events[0].1 {
                CoreEvent::Done => return,
                CoreEvent::AllGather { .. } => {
                    let full: Vec<F16> = events
                        .iter()
                        .flat_map(|(_, e)| match e {
                            CoreEvent::AllGather { partial, .. } => partial.clone(),
                            other => panic!("cores disagree: {other:?}"),
                        })
                        .collect();
                    for c in 0..cores.len() {
                        let r = router(c);
                        recording::record(&mut logs[c], || cores[c].complete_allgather(&r, &full))
                            .unwrap();
                    }
                }
                CoreEvent::ArgMaxSync {
                    local_idx,
                    local_max,
                    ..
                } => {
                    // Which core wins does not change what is touched.
                    for c in 0..cores.len() {
                        let r = router(c);
                        recording::record(&mut logs[c], || {
                            cores[c].complete_argmax(&r, *local_idx, *local_max)
                        })
                        .unwrap();
                    }
                }
            }
            from = events.iter().map(|(i, _)| i + 1).collect();
        }
    }

    /// The operand oracle: each instruction of `program` touched exactly
    /// the registers of its declared operand sets, and each K/V read
    /// follows this step's store of the same region.
    fn check_operands(program: &Program, log: &recording::Log, at: &str) {
        let instrs = program.instrs();
        for (i, ai) in instrs.iter().enumerate() {
            let declared = recording::Touched {
                reads: ai.instr.reads().iter().collect(),
                writes: ai.instr.writes().iter().collect(),
            };
            let touched = log.touched.get(&i).cloned().unwrap_or_default();
            assert_eq!(touched, declared, "{at}: instruction {i} `{}`", ai.instr);
            if let Instr::Matrix(m) = &ai.instr {
                if let TensorRef::Kv { .. } = m.weight {
                    let stored = instrs[..i].iter().any(|s| {
                        matches!(s.instr, Instr::Dma(d) if d.dir == DmaDir::Store && d.tensor == m.weight)
                    });
                    assert!(
                        stored,
                        "{at}: instruction {i} `{}` reads an unstored region",
                        ai.instr
                    );
                }
            }
        }
    }

    #[test]
    fn every_instruction_touches_exactly_its_declared_operands() {
        use dfx_isa::{BuilderOptions, QkvOrder};
        // The small model's 3 heads split across 1 or 3 cores, not 2.
        for (cfg, num_cores) in [
            (GptConfig::tiny(), 1),
            (GptConfig::tiny(), 2),
            (GptConfig::small(), 1),
            (GptConfig::small(), 3),
        ] {
            let w = GptWeights::synthetic(&cfg).cast::<F16>();
            let pars: Vec<_> = (0..num_cores)
                .map(|c| ParallelConfig::new(c, num_cores))
                .collect();
            for qkv_order in [QkvOrder::ValueFirst, QkvOrder::ValueLast] {
                let builders: Vec<_> = pars
                    .iter()
                    .map(|&p| {
                        ProgramBuilder::with_options(cfg.clone(), p, BuilderOptions { qkv_order })
                            .unwrap()
                    })
                    .collect();
                for lm in [false, true] {
                    let mut cores: Vec<_> = CoreWeights::partition_cluster(w.clone(), num_cores)
                        .unwrap()
                        .into_iter()
                        .map(FunctionalCore::new)
                        .collect();
                    // 16 positions per tile class at the paper geometry:
                    // the steps run up to both sides of the first edge.
                    for pos in 0..=17 {
                        let programs: Vec<_> =
                            builders.iter().map(|b| b.token_step(pos, lm)).collect();
                        let mut logs = vec![recording::Log::default(); num_cores];
                        recorded_step(&mut cores, &programs, &mut logs, pos as u32 + 3);
                        for (c, (p, log)) in programs.iter().zip(&logs).enumerate() {
                            let at = format!(
                                "{} core {c}/{num_cores} {qkv_order:?} lm {lm} pos {pos}",
                                cfg.name
                            );
                            check_operands(p, log, &at);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn reading_unwritten_register_slice_is_an_error() {
        let (core, _) = single_core();
        // v5 has never been written; a 16-wide read must fault.
        let err = read_slice(&core.vregs, VSlice::full(VReg(5), 16)).unwrap_err();
        assert!(matches!(err, ExecError::OutOfRange(ref m) if m.starts_with("read of")));
    }

    #[test]
    fn reset_core_matches_a_fresh_core() {
        let (mut core, builder) = single_core();
        let (mut fresh, _) = single_core();
        for pos in 0..3 {
            core.begin_step(pos as u32 + 4);
            core.run(&builder.token_step(pos, true), 0).unwrap();
        }
        core.reset();
        assert_eq!(core.context_len(), 0);
        for pos in 0..2 {
            let p = builder.token_step(pos, true);
            core.begin_step(9);
            fresh.begin_step(9);
            core.run(&p, 0).unwrap();
            fresh.run(&p, 0).unwrap();
            assert_eq!(core.out_token(), fresh.out_token());
            assert_eq!(core.vregs, fresh.vregs);
        }
    }

    #[test]
    fn malformed_instructions_are_typed_errors() {
        let (mut core, builder) = single_core();
        let step = builder.token_step(0, true);
        core.begin_step(1);
        // The program up to its first matrix instruction, which is pointed
        // at a bias instead of a weight, must fault without panicking.
        let mut p = Program::new(step.meta);
        for ai in step.instrs() {
            if let Instr::Matrix(m) = &ai.instr {
                let mut bad = *m;
                bad.weight = m.bias.unwrap();
                p.push(ai.class, Instr::Matrix(bad));
                break;
            }
            p.push(ai.class, ai.instr);
        }
        assert!(matches!(
            core.run(&p, 0),
            Err(ExecError::WrongTensor { .. })
        ));

        // Likewise a scalar instruction naming a register past the file.
        let (mut core, _) = single_core();
        core.begin_step(1);
        let mut p = Program::new(step.meta);
        for ai in step.instrs() {
            if let Instr::Scalar(s) = &ai.instr {
                let mut bad = *s;
                bad.a = SReg(dfx_isa::NUM_SREGS as u8);
                p.push(ai.class, Instr::Scalar(bad));
                break;
            }
            p.push(ai.class, ai.instr);
        }
        assert!(matches!(core.run(&p, 0), Err(ExecError::OutOfRange(_))));
    }
}
