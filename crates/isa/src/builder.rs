//! Lowers GPT-2 inference onto the DFX ISA.
//!
//! [`ProgramBuilder`] emits one [`Program`] per token step, implementing
//! the paper's Algorithm 1 with its hardware-aware details:
//!
//! - intra-layer model parallelism (Fig 6): Q/K/V head-wise, FC/FFN
//!   column-wise, four ring synchronisations per decoder layer;
//! - the *Value-first* instruction order (§V-B) so the DMA transpose of V
//!   overlaps the K and Q projections;
//! - softmax lowered to `sub, exp, accum, recip, mul` and LayerNorm to
//!   `accum, mul, sub, mul, add, recip_sqrt` vector/scalar instructions
//!   (§IV-C), with divisions by compile-time constants replaced by
//!   multiplications (§V-C);
//! - LM head = `MM` against WTEᵀ with fused reduce-max/argmax, followed by
//!   an argmax ring reduction over vocabulary partitions.

use crate::instr::{
    DmaDir, DmaInstr, Instr, MatrixInstr, MatrixKind, ReduceInstr, ReduceKind, ReduceMax,
    RouterInstr, RouterOp, ScalarInstr, ScalarOpKind, VReg, VSlice, VectorInstr, VectorOpKind,
};
use crate::program::{OpClass, Program, StepMeta};
use crate::tensor_ref::{EmbedTable, KvKind, LnParam, TensorRef, WeightKind};
use dfx_model::{GptConfig, LAYER_NORM_EPS};
use serde::{Deserialize, Serialize};

/// Fixed vector-register allocation used by the builder (the executor and
/// tests refer to these by name).
pub mod regs {
    use crate::instr::{SReg, VReg};

    /// Residual stream (layer input / output).
    pub const RESIDUAL: VReg = VReg(0);
    /// WTE row.
    pub const WTE_ROW: VReg = VReg(1);
    /// WPE row.
    pub const WPE_ROW: VReg = VReg(2);
    /// LayerNorm output.
    pub const LNORM: VReg = VReg(3);
    /// Value partial (this core's heads).
    pub const VALUE: VReg = VReg(4);
    /// Key partial.
    pub const KEY: VReg = VReg(5);
    /// Query partial.
    pub const QUERY: VReg = VReg(6);
    /// Attention score row.
    pub const SCORE: VReg = VReg(7);
    /// Softmax probabilities.
    pub const PROBS: VReg = VReg(8);
    /// Attention context partial (per-head slices).
    pub const ATTN: VReg = VReg(9);
    /// Attention context after all-gather.
    pub const ATTN_FULL: VReg = VReg(10);
    /// Attention projection partial.
    pub const PROJ: VReg = VReg(11);
    /// Attention projection after all-gather.
    pub const PROJ_FULL: VReg = VReg(12);
    /// First residual sum.
    pub const RES1: VReg = VReg(13);
    /// Second LayerNorm output.
    pub const LNORM2: VReg = VReg(14);
    /// FFN hidden partial.
    pub const FFN1: VReg = VReg(15);
    /// FFN hidden after all-gather.
    pub const FFN1_FULL: VReg = VReg(16);
    /// FFN output partial.
    pub const FFN2: VReg = VReg(17);
    /// FFN output after all-gather.
    pub const FFN2_FULL: VReg = VReg(18);
    /// LayerNorm γ staging.
    pub const LN_GAMMA: VReg = VReg(19);
    /// LayerNorm β staging.
    pub const LN_BETA: VReg = VReg(20);
    /// LayerNorm centered temporary (x − µ).
    pub const LN_CENTERED: VReg = VReg(21);
    /// LayerNorm squared temporary.
    pub const LN_SQUARED: VReg = VReg(22);
    /// Final hidden state entering the LM head.
    pub const LM_HIDDEN: VReg = VReg(23);
    /// LM head logits partial.
    pub const LOGITS: VReg = VReg(24);

    /// Score row max (softmax stabilisation).
    pub const S_ROWMAX: SReg = SReg(0);
    /// Softmax denominator / its reciprocal.
    pub const S_DENOM: SReg = SReg(1);
    /// LayerNorm mean.
    pub const S_MEAN: SReg = SReg(2);
    /// LayerNorm variance / reciprocal std.
    pub const S_RSTD: SReg = SReg(3);
    /// LM head argmax index (local, then global).
    pub const S_ARGMAX: SReg = SReg(4);
    /// LM head max logit.
    pub const S_MAXLOGIT: SReg = SReg(5);
}

/// Placement of one core within the homogeneous cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ParallelConfig {
    /// This core's id (0-based).
    pub core_id: usize,
    /// Cluster size (1, 2 or 4 in the paper; any divisor of the head
    /// count works).
    pub num_cores: usize,
}

impl ParallelConfig {
    /// Creates a placement.
    ///
    /// # Panics
    ///
    /// Panics if `core_id >= num_cores` or `num_cores == 0`.
    pub fn new(core_id: usize, num_cores: usize) -> Self {
        assert!(num_cores > 0, "cluster must contain at least one core");
        assert!(
            core_id < num_cores,
            "core_id {core_id} >= num_cores {num_cores}"
        );
        ParallelConfig { core_id, num_cores }
    }

    /// Checks the model divides evenly across the cluster (head-wise for
    /// attention, column-wise for FC layers — paper Fig 6).
    ///
    /// # Errors
    ///
    /// Returns a description of the first indivisibility.
    pub fn check(&self, cfg: &GptConfig) -> Result<(), String> {
        if cfg.num_heads % self.num_cores != 0 {
            return Err(format!(
                "{} heads do not divide across {} cores",
                cfg.num_heads, self.num_cores
            ));
        }
        if cfg.embedding_dim % self.num_cores != 0 {
            return Err(format!(
                "embedding dim {} does not divide across {} cores",
                cfg.embedding_dim, self.num_cores
            ));
        }
        if cfg.ffn_dim % self.num_cores != 0 {
            return Err(format!(
                "ffn dim {} does not divide across {} cores",
                cfg.ffn_dim, self.num_cores
            ));
        }
        Ok(())
    }

    /// Attention heads owned by this core.
    pub fn heads_per_core(&self, cfg: &GptConfig) -> usize {
        cfg.num_heads / self.num_cores
    }

    /// Columns of each emb-wide projection owned by this core.
    pub fn emb_part(&self, cfg: &GptConfig) -> usize {
        cfg.embedding_dim / self.num_cores
    }

    /// Columns of the FFN hidden owned by this core.
    pub fn ffn_part(&self, cfg: &GptConfig) -> usize {
        cfg.ffn_dim / self.num_cores
    }

    /// This core's vocabulary slice `[start, end)` for the LM head
    /// (column-split like the FC layers; the remainder goes to the last
    /// core).
    pub fn vocab_range(&self, cfg: &GptConfig) -> (usize, usize) {
        let per = cfg.vocab_size.div_ceil(self.num_cores);
        let start = (per * self.core_id).min(cfg.vocab_size);
        let end = (start + per).min(cfg.vocab_size);
        (start, end)
    }
}

/// Ordering of the Q/K/V projections within self-attention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum QkvOrder {
    /// The paper's order (§V-B): Value first, so the DMA transpose of V
    /// overlaps the Key and Query projections.
    #[default]
    ValueFirst,
    /// The naive order (Q, K, V): used by the transpose-hiding ablation —
    /// the `Score × Value` reads then stall on the transpose unit.
    ValueLast,
}

/// Compiler options for [`ProgramBuilder`] (ablation switches; the
/// defaults reproduce the paper's design).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct BuilderOptions {
    /// Q/K/V emission order.
    pub qkv_order: QkvOrder,
}

/// Builds per-token-step DFX programs for one core.
///
/// A step is the concatenation of three kinds of part, each with its own
/// emitter: the embedding ([`emit_embedding`]), one decoder layer per
/// model layer ([`emit_decoder_layer`]) and, when the step runs it, the
/// LM head ([`emit_lm_head`]). Decoder layers differ only in their layer
/// index, so a consumer may emit and process a step part by part.
///
/// [`emit_embedding`]: ProgramBuilder::emit_embedding
/// [`emit_decoder_layer`]: ProgramBuilder::emit_decoder_layer
/// [`emit_lm_head`]: ProgramBuilder::emit_lm_head
///
/// # Examples
///
/// ```
/// use dfx_isa::{ParallelConfig, ProgramBuilder};
/// use dfx_model::GptConfig;
///
/// let builder = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, 2)).unwrap();
/// let program = builder.token_step(0, false);
/// assert!(program.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    cfg: GptConfig,
    par: ParallelConfig,
    options: BuilderOptions,
}

impl ProgramBuilder {
    /// Creates a builder after checking divisibility.
    ///
    /// # Errors
    ///
    /// Returns an error if the model does not partition evenly over the
    /// cluster.
    pub fn new(cfg: GptConfig, par: ParallelConfig) -> Result<Self, String> {
        Self::with_options(cfg, par, BuilderOptions::default())
    }

    /// Creates a builder with non-default compiler options (ablations).
    ///
    /// # Errors
    ///
    /// Returns an error if the model does not partition evenly over the
    /// cluster.
    pub fn with_options(
        cfg: GptConfig,
        par: ParallelConfig,
        options: BuilderOptions,
    ) -> Result<Self, String> {
        par.check(&cfg)?;
        Ok(ProgramBuilder { cfg, par, options })
    }

    /// The compiler options in effect.
    pub fn options(&self) -> BuilderOptions {
        self.options
    }

    /// The model configuration.
    pub fn config(&self) -> &GptConfig {
        &self.cfg
    }

    /// The placement.
    pub fn parallel(&self) -> ParallelConfig {
        self.par
    }

    /// Builds the program for the token at `token_pos` (0-based). When
    /// `lm_head` is set the step ends with the final LayerNorm, the LM
    /// head and the cross-core argmax (last summarization token and all
    /// generation tokens).
    ///
    /// # Panics
    ///
    /// Panics if `token_pos` exceeds the model's maximum sequence length.
    pub fn token_step(&self, token_pos: usize, lm_head: bool) -> Program {
        let mut p = Program::new(self.step_meta(token_pos, lm_head));
        self.emit_embedding(&mut p, token_pos);
        for layer in 0..self.cfg.num_layers {
            self.emit_decoder_layer(&mut p, layer as u16, token_pos);
        }
        if lm_head {
            self.emit_lm_head(&mut p);
        }
        p
    }

    /// The [`StepMeta`] of [`token_step`](ProgramBuilder::token_step)'s
    /// program, for callers that emit the step part by part.
    ///
    /// # Panics
    ///
    /// Panics if `token_pos` exceeds the model's maximum sequence length.
    pub fn step_meta(&self, token_pos: usize, lm_head: bool) -> StepMeta {
        assert!(
            token_pos < self.cfg.max_seq_len,
            "token position {token_pos} exceeds max sequence length {}",
            self.cfg.max_seq_len
        );
        StepMeta {
            token_pos: token_pos as u32,
            lm_head,
            core_id: self.par.core_id as u32,
            num_cores: self.par.num_cores as u32,
        }
    }

    /// Token embedding: fetch the current token id, gather WTE/WPE rows
    /// and add them into the residual register. The first part of
    /// [`token_step`](ProgramBuilder::token_step).
    pub fn emit_embedding(&self, p: &mut Program, token_pos: usize) {
        let emb = self.cfg.embedding_dim as u32;
        let bytes = u64::from(emb) * 2;
        p.push(
            OpClass::Embed,
            Instr::Dma(DmaInstr {
                dir: DmaDir::Load,
                tensor: TensorRef::TokenIo,
                row: token_pos as u32,
                reg: None,
                bytes: 4,
                transpose: false,
            }),
        );
        // WTE row index is the runtime token id; the controller resolves it.
        p.push(
            OpClass::Embed,
            Instr::Dma(DmaInstr {
                dir: DmaDir::Load,
                tensor: TensorRef::Embed {
                    table: EmbedTable::Wte,
                },
                row: 0,
                reg: Some(VSlice::full(regs::WTE_ROW, emb)),
                bytes,
                transpose: false,
            }),
        );
        p.push(
            OpClass::Embed,
            Instr::Dma(DmaInstr {
                dir: DmaDir::Load,
                tensor: TensorRef::Embed {
                    table: EmbedTable::Wpe,
                },
                row: token_pos as u32,
                reg: Some(VSlice::full(regs::WPE_ROW, emb)),
                bytes,
                transpose: false,
            }),
        );
        p.push(
            OpClass::Embed,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::Add,
                a: regs::WTE_ROW,
                b: Some(regs::WPE_ROW),
                s: None,
                dst: regs::RESIDUAL,
                len: emb,
            }),
        );
    }

    /// LayerNorm over `src` (length `emb`) into `dst`, lowered to the
    /// paper's vector/scalar sequence.
    fn emit_layer_norm(
        &self,
        p: &mut Program,
        gamma: TensorRef,
        beta: TensorRef,
        src: VReg,
        dst: VReg,
    ) {
        let emb = self.cfg.embedding_dim as u32;
        let bytes = u64::from(emb) * 2;
        let inv_n = 1.0 / self.cfg.embedding_dim as f32;
        // γ/β are fetched to the register file through load instructions
        // (paper §IV-C).
        for (tensor, reg) in [(gamma, regs::LN_GAMMA), (beta, regs::LN_BETA)] {
            p.push(
                OpClass::LayerNorm,
                Instr::Dma(DmaInstr {
                    dir: DmaDir::Load,
                    tensor,
                    row: 0,
                    reg: Some(VSlice::full(reg, emb)),
                    bytes,
                    transpose: false,
                }),
            );
        }
        // mean = accum(x) * (1/emb)
        p.push(
            OpClass::LayerNorm,
            Instr::Reduce(ReduceInstr {
                kind: ReduceKind::Sum,
                v: src,
                len: emb,
                dst: regs::S_MEAN,
            }),
        );
        p.push(
            OpClass::LayerNorm,
            Instr::Scalar(ScalarInstr {
                op: ScalarOpKind::Mul,
                a: regs::S_MEAN,
                b: None,
                imm: Some(inv_n),
                dst: regs::S_MEAN,
            }),
        );
        // centered = x - mean
        p.push(
            OpClass::LayerNorm,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::SubScalar,
                a: src,
                b: None,
                s: Some(regs::S_MEAN),
                dst: regs::LN_CENTERED,
                len: emb,
            }),
        );
        // var = accum(centered^2) * (1/emb)
        p.push(
            OpClass::LayerNorm,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::Mul,
                a: regs::LN_CENTERED,
                b: Some(regs::LN_CENTERED),
                s: None,
                dst: regs::LN_SQUARED,
                len: emb,
            }),
        );
        p.push(
            OpClass::LayerNorm,
            Instr::Reduce(ReduceInstr {
                kind: ReduceKind::Sum,
                v: regs::LN_SQUARED,
                len: emb,
                dst: regs::S_RSTD,
            }),
        );
        p.push(
            OpClass::LayerNorm,
            Instr::Scalar(ScalarInstr {
                op: ScalarOpKind::Mul,
                a: regs::S_RSTD,
                b: None,
                imm: Some(inv_n),
                dst: regs::S_RSTD,
            }),
        );
        // rstd = recip_sqrt(var + eps)
        p.push(
            OpClass::LayerNorm,
            Instr::Scalar(ScalarInstr {
                op: ScalarOpKind::Add,
                a: regs::S_RSTD,
                b: None,
                imm: Some(LAYER_NORM_EPS as f32),
                dst: regs::S_RSTD,
            }),
        );
        p.push(
            OpClass::LayerNorm,
            Instr::Scalar(ScalarInstr {
                op: ScalarOpKind::RecipSqrt,
                a: regs::S_RSTD,
                b: None,
                imm: None,
                dst: regs::S_RSTD,
            }),
        );
        // dst = centered * rstd * gamma + beta
        p.push(
            OpClass::LayerNorm,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::MulScalar,
                a: regs::LN_CENTERED,
                b: None,
                s: Some(regs::S_RSTD),
                dst,
                len: emb,
            }),
        );
        p.push(
            OpClass::LayerNorm,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::Mul,
                a: dst,
                b: Some(regs::LN_GAMMA),
                s: None,
                dst,
                len: emb,
            }),
        );
        p.push(
            OpClass::LayerNorm,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::Add,
                a: dst,
                b: Some(regs::LN_BETA),
                s: None,
                dst,
                len: emb,
            }),
        );
    }

    /// One `Conv1D` (bias prefetch + matrix instruction).
    #[allow(clippy::too_many_arguments)]
    fn emit_conv1d(
        &self,
        p: &mut Program,
        class: OpClass,
        layer: u16,
        kind: WeightKind,
        src: VSlice,
        dst: VSlice,
        gelu: bool,
    ) {
        p.push(
            class,
            Instr::Dma(DmaInstr {
                dir: DmaDir::Load,
                tensor: TensorRef::Bias { layer, kind },
                row: 0,
                reg: None,
                bytes: u64::from(dst.len) * 2,
                transpose: false,
            }),
        );
        p.push(
            class,
            Instr::Matrix(MatrixInstr {
                kind: MatrixKind::Conv1d,
                src,
                weight: TensorRef::Weight { layer, kind },
                bias: Some(TensorRef::Bias { layer, kind }),
                dst,
                rows: src.len,
                cols: dst.len,
                valid_cols: dst.len,
                scale: None,
                gelu,
                reduce_max: ReduceMax::None,
            }),
        );
    }

    /// Ring all-gather of a partial vector (no-op and not emitted for a
    /// single-core cluster; callers use the partial register directly).
    fn emit_allgather(&self, p: &mut Program, src: VReg, part_len: u32, dst: VReg) {
        debug_assert!(self.par.num_cores > 1);
        p.push(
            OpClass::Sync,
            Instr::Router(RouterInstr {
                op: RouterOp::AllGather,
                src: VSlice::full(src, part_len),
                dst: VSlice::full(dst, part_len * self.par.num_cores as u32),
                idx: None,
                max: None,
                bytes: u64::from(part_len) * 2,
            }),
        );
    }

    /// One decoder layer (Algorithm 1): the middle parts of
    /// [`token_step`](ProgramBuilder::token_step), one per layer.
    ///
    /// Every layer emits the same instructions, differing only in the
    /// `layer` of the tensors they name ([`TensorRef::Weight`],
    /// [`TensorRef::Bias`], [`TensorRef::Ln`] and [`TensorRef::Kv`]), and
    /// a layer's matrix reads name only its own K/V regions. The cycle
    /// model relies on this: its cost of an instruction ignores the layer,
    /// so once two consecutive layers start from the same schedule state
    /// the remaining layers repeat them exactly
    /// (`TimingCore::time_token_step`).
    pub fn emit_decoder_layer(&self, p: &mut Program, layer: u16, token_pos: usize) {
        let cfg = &self.cfg;
        let emb = cfg.embedding_dim as u32;
        let part = self.par.emb_part(cfg) as u32;
        let ffn_part = self.par.ffn_part(cfg) as u32;
        let heads = self.par.heads_per_core(cfg);
        let dh = cfg.head_dim() as u32;
        let t = (token_pos + 1) as u32; // context length including this token
        let multi = self.par.num_cores > 1;

        // -- LayerNorm 1 --------------------------------------------------
        self.emit_layer_norm(
            p,
            TensorRef::Ln {
                layer,
                param: LnParam::Ln1Gamma,
            },
            TensorRef::Ln {
                layer,
                param: LnParam::Ln1Beta,
            },
            regs::RESIDUAL,
            regs::LNORM,
        );

        // -- Self-attention projections. The paper computes Value first
        // (transpose hiding, §V-B); the ablation order computes it last.
        let ln_full = VSlice::full(regs::LNORM, emb);
        let emit_proj = |p: &mut Program, kind: WeightKind, dst: crate::instr::VReg| {
            self.emit_conv1d(
                p,
                OpClass::SelfAttention,
                layer,
                kind,
                ln_full,
                VSlice::full(dst, part),
                false,
            );
            // K and V rows stream to their per-head HBM cache regions as
            // soon as they are produced (V through the transpose unit).
            let kv = match kind {
                WeightKind::Key => Some((KvKind::Key, false)),
                WeightKind::Value => Some((KvKind::Value, true)),
                _ => None,
            };
            if let Some((kv_kind, transpose)) = kv {
                for h in 0..heads {
                    p.push(
                        OpClass::SelfAttention,
                        Instr::Dma(DmaInstr {
                            dir: DmaDir::Store,
                            tensor: TensorRef::Kv {
                                layer,
                                head: h as u16,
                                kind: kv_kind,
                            },
                            row: token_pos as u32,
                            reg: Some(VSlice {
                                reg: dst,
                                offset: h as u32 * dh,
                                len: dh,
                            }),
                            bytes: u64::from(dh) * 2,
                            transpose,
                        }),
                    );
                }
            }
        };
        match self.options.qkv_order {
            QkvOrder::ValueFirst => {
                emit_proj(p, WeightKind::Value, regs::VALUE);
                emit_proj(p, WeightKind::Key, regs::KEY);
                emit_proj(p, WeightKind::Query, regs::QUERY);
            }
            QkvOrder::ValueLast => {
                emit_proj(p, WeightKind::Query, regs::QUERY);
                emit_proj(p, WeightKind::Key, regs::KEY);
                emit_proj(p, WeightKind::Value, regs::VALUE);
            }
        }

        // -- Per-head attention: MaskedMM, softmax, MM --------------------
        let scale = 1.0 / (cfg.head_dim() as f32).sqrt();
        for h in 0..heads {
            let h32 = h as u32;
            // score = (q_h · K_hᵀ) * scale, fused row-max for stability.
            p.push(
                OpClass::SelfAttention,
                Instr::Matrix(MatrixInstr {
                    kind: MatrixKind::MaskedMm,
                    src: VSlice {
                        reg: regs::QUERY,
                        offset: h32 * dh,
                        len: dh,
                    },
                    weight: TensorRef::Kv {
                        layer,
                        head: h as u16,
                        kind: KvKind::Key,
                    },
                    bias: None,
                    dst: VSlice::full(regs::SCORE, t),
                    rows: dh,
                    cols: t,
                    valid_cols: t, // incremental decoding: no future column exists
                    scale: Some(scale),
                    gelu: false,
                    reduce_max: ReduceMax::Max(regs::S_ROWMAX),
                }),
            );
            // softmax(score - max): sub, exp, accum, recip, mul (§IV-C).
            p.push(
                OpClass::SelfAttention,
                Instr::Vector(VectorInstr {
                    op: VectorOpKind::SubScalar,
                    a: regs::SCORE,
                    b: None,
                    s: Some(regs::S_ROWMAX),
                    dst: regs::SCORE,
                    len: t,
                }),
            );
            p.push(
                OpClass::SelfAttention,
                Instr::Vector(VectorInstr {
                    op: VectorOpKind::Exp,
                    a: regs::SCORE,
                    b: None,
                    s: None,
                    dst: regs::PROBS,
                    len: t,
                }),
            );
            p.push(
                OpClass::SelfAttention,
                Instr::Reduce(ReduceInstr {
                    kind: ReduceKind::Sum,
                    v: regs::PROBS,
                    len: t,
                    dst: regs::S_DENOM,
                }),
            );
            p.push(
                OpClass::SelfAttention,
                Instr::Scalar(ScalarInstr {
                    op: ScalarOpKind::Recip,
                    a: regs::S_DENOM,
                    b: None,
                    imm: None,
                    dst: regs::S_DENOM,
                }),
            );
            p.push(
                OpClass::SelfAttention,
                Instr::Vector(VectorInstr {
                    op: VectorOpKind::MulScalar,
                    a: regs::PROBS,
                    b: None,
                    s: Some(regs::S_DENOM),
                    dst: regs::PROBS,
                    len: t,
                }),
            );
            // attn_h = probs · V_h (V was stored transposed for this read).
            p.push(
                OpClass::SelfAttention,
                Instr::Matrix(MatrixInstr {
                    kind: MatrixKind::Mm,
                    src: VSlice::full(regs::PROBS, t),
                    weight: TensorRef::Kv {
                        layer,
                        head: h as u16,
                        kind: KvKind::Value,
                    },
                    bias: None,
                    dst: VSlice {
                        reg: regs::ATTN,
                        offset: h32 * dh,
                        len: dh,
                    },
                    rows: t,
                    cols: dh,
                    valid_cols: dh,
                    scale: None,
                    gelu: false,
                    reduce_max: ReduceMax::None,
                }),
            );
        }

        // -- Sync 1: gather attention context ----------------------------
        let attn_full = if multi {
            self.emit_allgather(p, regs::ATTN, part, regs::ATTN_FULL);
            regs::ATTN_FULL
        } else {
            regs::ATTN
        };

        // -- Attention output projection + Sync 2 ------------------------
        self.emit_conv1d(
            p,
            OpClass::SelfAttention,
            layer,
            WeightKind::AttnProj,
            VSlice::full(attn_full, emb),
            VSlice::full(regs::PROJ, part),
            false,
        );
        let proj_full = if multi {
            self.emit_allgather(p, regs::PROJ, part, regs::PROJ_FULL);
            regs::PROJ_FULL
        } else {
            regs::PROJ
        };

        // -- Residual 1 ----------------------------------------------------
        p.push(
            OpClass::Residual,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::Add,
                a: proj_full,
                b: Some(regs::RESIDUAL),
                s: None,
                dst: regs::RES1,
                len: emb,
            }),
        );

        // -- LayerNorm 2 ----------------------------------------------------
        self.emit_layer_norm(
            p,
            TensorRef::Ln {
                layer,
                param: LnParam::Ln2Gamma,
            },
            TensorRef::Ln {
                layer,
                param: LnParam::Ln2Beta,
            },
            regs::RES1,
            regs::LNORM2,
        );

        // -- FFN: up (GELU fused) + Sync 3, down + Sync 4 ------------------
        self.emit_conv1d(
            p,
            OpClass::Ffn,
            layer,
            WeightKind::Ffn1,
            VSlice::full(regs::LNORM2, emb),
            VSlice::full(regs::FFN1, ffn_part),
            true,
        );
        let ffn1_full = if multi {
            self.emit_allgather(p, regs::FFN1, ffn_part, regs::FFN1_FULL);
            regs::FFN1_FULL
        } else {
            regs::FFN1
        };
        self.emit_conv1d(
            p,
            OpClass::Ffn,
            layer,
            WeightKind::Ffn2,
            VSlice::full(ffn1_full, cfg.ffn_dim as u32),
            VSlice::full(regs::FFN2, part),
            false,
        );
        let ffn2_full = if multi {
            self.emit_allgather(p, regs::FFN2, part, regs::FFN2_FULL);
            regs::FFN2_FULL
        } else {
            regs::FFN2
        };

        // -- Residual 2: becomes next layer's input ------------------------
        p.push(
            OpClass::Residual,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::Add,
                a: ffn2_full,
                b: Some(regs::RES1),
                s: None,
                dst: regs::RESIDUAL,
                len: emb,
            }),
        );
    }

    /// Final LayerNorm, LM head matmul with fused argmax, argmax ring
    /// reduction and token write-back: the last part of
    /// [`token_step`](ProgramBuilder::token_step) when it runs the LM
    /// head.
    pub fn emit_lm_head(&self, p: &mut Program) {
        let cfg = &self.cfg;
        let emb = cfg.embedding_dim as u32;
        let last_layer = cfg.num_layers as u16; // ln_f stored past the layers
        self.emit_layer_norm(
            p,
            TensorRef::Ln {
                layer: last_layer,
                param: LnParam::LnFGamma,
            },
            TensorRef::Ln {
                layer: last_layer,
                param: LnParam::LnFBeta,
            },
            regs::RESIDUAL,
            regs::LM_HIDDEN,
        );
        let (v0, v1) = self.par.vocab_range(cfg);
        let vocab_part = (v1 - v0) as u32;
        p.push(
            OpClass::LmHead,
            Instr::Matrix(MatrixInstr {
                kind: MatrixKind::Mm,
                src: VSlice::full(regs::LM_HIDDEN, emb),
                weight: TensorRef::Weight {
                    layer: 0,
                    kind: WeightKind::LmHead,
                },
                bias: None,
                dst: VSlice::full(regs::LOGITS, vocab_part),
                rows: emb,
                cols: vocab_part,
                valid_cols: vocab_part,
                scale: None,
                gelu: false,
                reduce_max: ReduceMax::ArgMax {
                    idx: regs::S_ARGMAX,
                    max: regs::S_MAXLOGIT,
                },
            }),
        );
        if self.par.num_cores > 1 {
            p.push(
                OpClass::Sync,
                Instr::Router(RouterInstr {
                    op: RouterOp::AllReduceArgMax,
                    src: VSlice::full(regs::LOGITS, 0),
                    dst: VSlice::full(regs::LOGITS, 0),
                    idx: Some(regs::S_ARGMAX),
                    max: Some(regs::S_MAXLOGIT),
                    bytes: 8,
                }),
            );
        }
        p.push(
            OpClass::LmHead,
            Instr::Dma(DmaInstr {
                dir: DmaDir::Store,
                tensor: TensorRef::TokenIo,
                row: 0,
                reg: None,
                bytes: 4,
                transpose: false,
            }),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{AnnotatedInstr, OpClass};

    fn builder(cores: usize) -> ProgramBuilder {
        ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, cores)).unwrap()
    }

    #[test]
    fn programs_validate_for_all_cluster_sizes() {
        for cores in [1, 2] {
            let b = builder(cores);
            for pos in [0, 3, 7] {
                let p = b.token_step(pos, true);
                p.validate()
                    .unwrap_or_else(|e| panic!("{cores} cores pos {pos}: {e}"));
            }
        }
    }

    #[test]
    fn four_syncs_per_layer_in_multicore_mode() {
        let b = builder(2);
        let p = b.token_step(0, false);
        let syncs = p
            .op_class_histogram()
            .get(&OpClass::Sync)
            .copied()
            .unwrap_or(0);
        assert_eq!(
            syncs,
            4 * b.config().num_layers,
            "paper: 4 synchronisations per decoder layer"
        );
    }

    #[test]
    fn single_core_programs_have_no_router_instructions() {
        let b = builder(1);
        let p = b.token_step(0, true);
        assert_eq!(p.class_histogram().get("router"), None);
        p.validate().unwrap();
    }

    #[test]
    fn lm_head_only_on_request() {
        let b = builder(2);
        let without = b.token_step(0, false);
        let with = b.token_step(0, true);
        assert!(!without.op_class_histogram().contains_key(&OpClass::LmHead));
        assert!(with.op_class_histogram()[&OpClass::LmHead] >= 2);
        assert!(with.len() > without.len());
    }

    #[test]
    fn value_is_computed_before_key_and_query() {
        // Transpose hiding (§V-B): the V projection must precede K and Q.
        let b = builder(2);
        let p = b.token_step(0, false);
        let pos_of = |kind: WeightKind| {
            p.instrs()
                .iter()
                .position(|ai| {
                    matches!(ai.instr, Instr::Matrix(m)
                        if m.weight == TensorRef::Weight { layer: 0, kind })
                })
                .unwrap()
        };
        assert!(pos_of(WeightKind::Value) < pos_of(WeightKind::Key));
        assert!(pos_of(WeightKind::Key) < pos_of(WeightKind::Query));
    }

    #[test]
    fn value_store_uses_transpose_unit_and_key_store_does_not() {
        let b = builder(2);
        let p = b.token_step(2, false);
        let mut saw_v = false;
        let mut saw_k = false;
        for ai in p.instrs() {
            if let Instr::Dma(d) = &ai.instr {
                if let TensorRef::Kv { kind, .. } = d.tensor {
                    match kind {
                        KvKind::Value => {
                            assert!(d.transpose, "V store must transpose");
                            saw_v = true;
                        }
                        KvKind::Key => {
                            assert!(!d.transpose, "K store must not transpose");
                            saw_k = true;
                        }
                    }
                }
            }
        }
        assert!(saw_v && saw_k);
    }

    #[test]
    fn score_width_tracks_context_length() {
        let b = builder(2);
        for pos in [0usize, 5, 9] {
            let p = b.token_step(pos, false);
            let score_cols = p
                .instrs()
                .iter()
                .find_map(|ai| match ai.instr {
                    Instr::Matrix(m) if m.kind == MatrixKind::MaskedMm => Some(m.cols),
                    _ => None,
                })
                .unwrap();
            assert_eq!(score_cols, pos as u32 + 1);
        }
    }

    #[test]
    fn head_count_scales_attention_instructions() {
        let cfg = GptConfig::tiny(); // 2 heads
        let b1 = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, 1)).unwrap();
        let b2 = ProgramBuilder::new(cfg, ParallelConfig::new(0, 2)).unwrap();
        let mm_count = |p: &Program| {
            p.instrs()
                .iter()
                .filter(|ai| matches!(ai.instr, Instr::Matrix(m) if m.kind == MatrixKind::MaskedMm))
                .count()
        };
        let p1 = b1.token_step(0, false);
        let p2 = b2.token_step(0, false);
        assert_eq!(mm_count(&p1), 2 * b1.config().num_layers);
        assert_eq!(mm_count(&p2), b1.config().num_layers);
    }

    #[test]
    fn vocab_ranges_partition_the_vocabulary() {
        let cfg = GptConfig::gpt2_1_5b();
        let mut covered = 0;
        for core in 0..4 {
            let par = ParallelConfig::new(core, 4);
            let (s, e) = par.vocab_range(&cfg);
            assert_eq!(s, covered);
            covered = e;
        }
        assert_eq!(covered, cfg.vocab_size);
    }

    #[test]
    fn indivisible_cluster_is_rejected() {
        // tiny has 2 heads; 3 cores cannot split them.
        let err = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, 3));
        assert!(err.is_err());
    }

    #[test]
    fn gpt3_geometry_with_128_wide_heads_builds_valid_programs() {
        // The paper's GPT-3 projection: head_dim 128 spans two MAC-tree
        // blocks; programs must stay well-formed.
        let cfg = GptConfig::gpt3_6_7b();
        let b = ProgramBuilder::new(cfg, ParallelConfig::new(0, 8)).unwrap();
        let p = b.token_step(5, true);
        p.validate().unwrap();
        let score = p
            .instrs()
            .iter()
            .find_map(|ai| match ai.instr {
                Instr::Matrix(m) if m.kind == MatrixKind::MaskedMm => Some(m.rows),
                _ => None,
            })
            .unwrap();
        assert_eq!(score, 128, "head dim flows into the score operand");
    }

    #[test]
    fn a_token_step_is_its_parts_concatenated() {
        for (cfg, cores) in [(GptConfig::tiny(), 1), (GptConfig::tiny(), 2)] {
            let b = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, cores)).unwrap();
            for (pos, lm_head) in [(0, false), (5, true)] {
                let mut parts = Program::new(b.step_meta(pos, lm_head));
                b.emit_embedding(&mut parts, pos);
                for layer in 0..cfg.num_layers {
                    b.emit_decoder_layer(&mut parts, layer as u16, pos);
                }
                if lm_head {
                    b.emit_lm_head(&mut parts);
                }
                assert_eq!(parts, b.token_step(pos, lm_head), "{cores} cores pos {pos}");
            }
        }
    }

    #[test]
    fn decoder_layers_differ_only_in_their_layer_index() {
        // Renames every tensor of `instr` to `layer`.
        fn at_layer(mut instr: Instr, layer: u16) -> Instr {
            let rename = |t: &mut TensorRef| match t {
                TensorRef::Weight { layer: l, .. }
                | TensorRef::Bias { layer: l, .. }
                | TensorRef::Ln { layer: l, .. }
                | TensorRef::Kv { layer: l, .. } => *l = layer,
                TensorRef::Embed { .. } | TensorRef::TokenIo => {}
            };
            match &mut instr {
                Instr::Matrix(m) => {
                    rename(&mut m.weight);
                    m.bias.iter_mut().for_each(rename);
                }
                Instr::Dma(d) => rename(&mut d.tensor),
                _ => {}
            }
            instr
        }
        let b = ProgramBuilder::with_options(
            GptConfig::small(),
            ParallelConfig::new(0, 3),
            BuilderOptions {
                qkv_order: QkvOrder::ValueLast,
            },
        )
        .unwrap();
        // Layer `l`'s instructions with every tensor renamed to layer 0,
        // after checking each names layer `l` only (its own K/V too).
        let layer = |l: u16| {
            let mut p = Program::new(b.step_meta(9, false));
            b.emit_decoder_layer(&mut p, l, 9);
            let own = |ai: &AnnotatedInstr| {
                assert_eq!(at_layer(ai.instr, l), ai.instr, "layer {l}");
                (ai.class, at_layer(ai.instr, 0))
            };
            p.instrs().iter().map(own).collect::<Vec<_>>()
        };
        let first = layer(0);
        assert!(!first.is_empty());
        for l in 1..b.config().num_layers as u16 {
            assert_eq!(layer(l), first, "layer {l}");
        }
    }

    #[test]
    fn instruction_count_is_stable_for_fixed_geometry() {
        // Regression anchor: geometry-driven instruction counts.
        let b = builder(2);
        let p0 = b.token_step(0, false);
        let p9 = b.token_step(9, false);
        // Context length does not change the instruction count, only
        // operand widths.
        assert_eq!(p0.len(), p9.len());
    }
}
