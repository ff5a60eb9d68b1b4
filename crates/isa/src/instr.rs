//! The DFX instruction set (paper §IV-C).
//!
//! Three instruction classes exist, matching the paper:
//!
//! - **compute** — matrix instructions (`Conv1D`, `MaskedMM`, `MM`)
//!   executed by the matrix processing unit, and vector instructions
//!   (`add`, `sub`, `mul`, `accum`, `recip`, `recip_sqrt`, `exp`, `load`,
//!   `store`) executed by the vector processing unit;
//! - **dma** — data movement between off-chip memory (HBM/DDR) and the
//!   core's register files and buffers;
//! - **router** — ring-network synchronisation between peer cores.
//!
//! A matrix instruction covers an entire matrix operation; the operand
//! collectors expand it into per-tile microcode at runtime (§V-D), which
//! is why the instruction carries the full operand geometry.

use crate::builder::regs;
use crate::tensor_ref::TensorRef;
use serde::{Deserialize, Serialize};

/// Identifier of a vector register (the register file manager's vector
/// file). The simulator models registers as variable-length FP16 vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VReg(pub u8);

/// Identifier of a scalar register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SReg(pub u8);

/// Number of architectural vector registers.
pub const NUM_VREGS: usize = 32;
/// Number of architectural scalar registers.
pub const NUM_SREGS: usize = 16;

impl VReg {
    /// This register's flat index, `0..NUM_VREGS`. A register past the
    /// vector file lands past both files, never on a scalar register.
    #[inline]
    pub fn flat(self) -> usize {
        let i = usize::from(self.0);
        i + usize::from(i >= NUM_VREGS) * NUM_SREGS
    }
}

impl SReg {
    /// This register's flat index, after the vector file; past both
    /// files if it is past its own.
    #[inline]
    pub fn flat(self) -> usize {
        NUM_VREGS + usize::from(self.0)
    }
}

impl std::fmt::Display for VReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl std::fmt::Display for SReg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A contiguous slice of a vector register: `reg[offset .. offset+len]`.
///
/// Matrix instructions read/write slices so per-head results land at their
/// head offset within the attention output register.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VSlice {
    /// The register.
    pub reg: VReg,
    /// Element offset within the register.
    pub offset: u32,
    /// Number of elements.
    pub len: u32,
}

impl VSlice {
    /// A slice covering `reg[0..len]`.
    pub fn full(reg: VReg, len: u32) -> Self {
        VSlice {
            reg,
            offset: 0,
            len,
        }
    }
}

impl std::fmt::Display for VSlice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.offset == 0 {
            write!(f, "{}[0..{}]", self.reg, self.len)
        } else {
            write!(
                f,
                "{}[{}..{}]",
                self.reg,
                self.offset,
                self.offset + self.len
            )
        }
    }
}

/// The three matrix-instruction kinds (paper §IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MatrixKind {
    /// `y = A·x + b` — Q/K/V generation, attention projection, FFN.
    Conv1d,
    /// `y = A·x` with a −∞ mask on future positions — `Query × Keyᵀ`.
    MaskedMm,
    /// `y = A·x` — `Score × Value` and the LM head.
    Mm,
}

/// Post-MAC reduction performed by SFU_M.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceMax {
    /// No reduction.
    None,
    /// Write the maximum output element to a scalar register.
    Max(SReg),
    /// Write the argmax index to `idx` and the maximum to `max`
    /// (LM-head token selection).
    ArgMax {
        /// Receives the index (stored as an FP16-encoded integer).
        idx: SReg,
        /// Receives the maximum value.
        max: SReg,
    },
}

/// A matrix instruction: one whole matrix-vector operation, expanded to
/// tile microcode by the matrix operand collector.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MatrixInstr {
    /// Operation kind.
    pub kind: MatrixKind,
    /// Input vector slice (length must equal `rows`; `Conv1d` inputs
    /// longer than the core's maximum window are processed by sliding).
    pub src: VSlice,
    /// The weight/KV tensor streamed from HBM.
    pub weight: TensorRef,
    /// Optional bias vector (DDR), added per output element.
    pub bias: Option<TensorRef>,
    /// Output vector slice (length must equal `cols`).
    pub dst: VSlice,
    /// Rows of this core's weight partition (= input length).
    pub rows: u32,
    /// Columns of this core's weight partition (= output length).
    pub cols: u32,
    /// Columns at index ≥ `valid_cols` are masked to −∞ (`MaskedMm`
    /// future-token masking). Equal to `cols` when nothing is masked.
    pub valid_cols: u32,
    /// Optional constant post-multiplier (SFU_M uses a multiplier instead
    /// of a divider, §V-C) — carries the 1/√d_head attention scaling.
    pub scale: Option<f32>,
    /// Apply GELU in SFU_M (FFN up-projection).
    pub gelu: bool,
    /// Post-MAC reduce-max.
    pub reduce_max: ReduceMax,
}

/// Vector-unit opcode (paper §IV-C's vector instruction list).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VectorOpKind {
    /// Elementwise `dst = a + b`.
    Add,
    /// Elementwise `dst = a - b`.
    Sub,
    /// Elementwise `dst = a * b`.
    Mul,
    /// Broadcast `dst = a + s`.
    AddScalar,
    /// Broadcast `dst = a - s`.
    SubScalar,
    /// Broadcast `dst = a * s`.
    MulScalar,
    /// Elementwise exponential (4-cycle DSP pipeline).
    Exp,
    /// Copy (`load`/`store` between registers use the bypass path).
    Copy,
}

/// A vector instruction over full registers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct VectorInstr {
    /// Opcode.
    pub op: VectorOpKind,
    /// First operand register.
    pub a: VReg,
    /// Second vector operand (`Add`/`Sub`/`Mul`).
    pub b: Option<VReg>,
    /// Scalar operand (`*Scalar` forms).
    pub s: Option<SReg>,
    /// Destination register.
    pub dst: VReg,
    /// Vector length in elements.
    pub len: u32,
}

/// Reduction performed by SFU_V's adder/comparator tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReduceKind {
    /// Sum of all elements (`accum`).
    Sum,
    /// Maximum element.
    Max,
}

/// A vector-to-scalar reduction instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReduceInstr {
    /// Reduction kind.
    pub kind: ReduceKind,
    /// Source vector.
    pub v: VReg,
    /// Vector length.
    pub len: u32,
    /// Destination scalar register.
    pub dst: SReg,
}

/// Scalar-unit opcode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScalarOpKind {
    /// `dst = a + b` (b may be an immediate).
    Add,
    /// `dst = a * b` (b may be an immediate).
    Mul,
    /// `dst = 1 / a`.
    Recip,
    /// `dst = 1 / sqrt(a)`.
    RecipSqrt,
}

/// A scalar instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScalarInstr {
    /// Opcode.
    pub op: ScalarOpKind,
    /// First operand.
    pub a: SReg,
    /// Register second operand.
    pub b: Option<SReg>,
    /// Immediate second operand (mutually exclusive with `b`).
    pub imm: Option<f32>,
    /// Destination.
    pub dst: SReg,
}

/// DMA transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DmaDir {
    /// Memory → register file / buffer.
    Load,
    /// Register file → memory.
    Store,
}

/// A DMA instruction (paper format: `(type, src, dst, xfer_size)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DmaInstr {
    /// Direction.
    pub dir: DmaDir,
    /// The off-chip tensor.
    pub tensor: TensorRef,
    /// Row index within the tensor (embedding row = token id or position;
    /// KV row = token position). Zero when not meaningful.
    pub row: u32,
    /// The register-file side of the transfer (None for buffer-resident
    /// data such as streamed weights).
    pub reg: Option<VSlice>,
    /// Transfer size in bytes.
    pub bytes: u64,
    /// Route the store through the DMA transpose unit (Value rows, §V-B).
    pub transpose: bool,
}

/// Router synchronisation patterns over the ring network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouterOp {
    /// All-gather: every core contributes `part_len` elements; afterwards
    /// every core holds the concatenation ordered by core id (the reorder
    /// unit guarantees identical order everywhere).
    AllGather,
    /// Exchange per-core `(argmax, max)` pairs and reduce to the global
    /// argmax (LM-head token selection across vocabulary partitions).
    AllReduceArgMax,
}

/// A router instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RouterInstr {
    /// Synchronisation pattern.
    pub op: RouterOp,
    /// Local partial contribution (`AllGather`: the partial vector;
    /// `AllReduceArgMax`: ignored).
    pub src: VSlice,
    /// Destination for the gathered full vector (`AllGather`).
    pub dst: VSlice,
    /// Scalar pair for `AllReduceArgMax` (local in, global out).
    pub idx: Option<SReg>,
    /// Scalar holding the local/global max for `AllReduceArgMax`.
    pub max: Option<SReg>,
    /// Payload bytes contributed per core.
    pub bytes: u64,
}

/// One DFX instruction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// Matrix-unit compute.
    Matrix(MatrixInstr),
    /// Vector-unit compute.
    Vector(VectorInstr),
    /// Vector→scalar reduction.
    Reduce(ReduceInstr),
    /// Scalar compute.
    Scalar(ScalarInstr),
    /// DMA transfer.
    Dma(DmaInstr),
    /// Ring-network synchronisation.
    Router(RouterInstr),
}

/// The registers one instruction reads or writes, as flat indices
/// ([`VReg::flat`], [`SReg::flat`]): at most three, inline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegSet([Option<usize>; 3]);

impl RegSet {
    /// The registers, in operand order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.0.iter().flatten().copied()
    }
}

impl Instr {
    /// The registers this instruction reads: the scoreboard's RAW
    /// sources (paper §V-A). Every `Some` operand counts.
    #[inline]
    pub fn reads(&self) -> RegSet {
        let (v, s) = (|r: VReg| Some(r.flat()), |r: SReg| Some(r.flat()));
        RegSet(match self {
            Instr::Matrix(m) => [v(m.src.reg), None, None],
            Instr::Vector(i) => [v(i.a), i.b.and_then(v), i.s.and_then(s)],
            Instr::Reduce(r) => [v(r.v), None, None],
            Instr::Scalar(i) => [s(i.a), i.b.and_then(s), None],
            Instr::Dma(d) => match (d.dir, d.tensor) {
                // The token write-back stores the selected token, which
                // the argmax leaves in `S_ARGMAX`.
                (DmaDir::Store, TensorRef::TokenIo) => [s(regs::S_ARGMAX), None, None],
                (DmaDir::Store, _) => [d.reg.and_then(|slice| v(slice.reg)), None, None],
                (DmaDir::Load, _) => [None; 3],
            },
            Instr::Router(r) => match r.op {
                RouterOp::AllGather => [v(r.src.reg), None, None],
                RouterOp::AllReduceArgMax => [r.idx.and_then(s), r.max.and_then(s), None],
            },
        })
    }

    /// The registers this instruction writes: the scoreboard's WAW
    /// destinations, which become ready when it finishes.
    #[inline]
    pub fn writes(&self) -> RegSet {
        let (v, s) = (|r: VReg| Some(r.flat()), |r: SReg| Some(r.flat()));
        RegSet(match self {
            Instr::Matrix(m) => match m.reduce_max {
                ReduceMax::None => [v(m.dst.reg), None, None],
                ReduceMax::Max(r) => [v(m.dst.reg), s(r), None],
                ReduceMax::ArgMax { idx, max } => [v(m.dst.reg), s(idx), s(max)],
            },
            Instr::Vector(i) => [v(i.dst), None, None],
            Instr::Reduce(r) => [s(r.dst), None, None],
            Instr::Scalar(i) => [s(i.dst), None, None],
            Instr::Dma(d) => match d.dir {
                DmaDir::Load => [d.reg.and_then(|slice| v(slice.reg)), None, None],
                DmaDir::Store => [None; 3],
            },
            Instr::Router(r) => match r.op {
                RouterOp::AllGather => [v(r.dst.reg), None, None],
                // The exchange replaces the local pair with the global one.
                RouterOp::AllReduceArgMax => return self.reads(),
            },
        })
    }

    /// The paper's coarse instruction class ("compute", "dma", "router").
    pub fn class_name(&self) -> &'static str {
        match self {
            Instr::Matrix(_) | Instr::Vector(_) | Instr::Reduce(_) | Instr::Scalar(_) => "compute",
            Instr::Dma(_) => "dma",
            Instr::Router(_) => "router",
        }
    }
}

impl std::fmt::Display for Instr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Instr::Matrix(m) => {
                let name = match m.kind {
                    MatrixKind::Conv1d => "conv1d",
                    MatrixKind::MaskedMm => "maskedmm",
                    MatrixKind::Mm => "mm",
                };
                write!(f, "{name} {}, {} ({}x{})", m.src, m.weight, m.rows, m.cols)?;
                if let Some(b) = &m.bias {
                    write!(f, " +{b}")?;
                }
                write!(f, " -> {}", m.dst)?;
                if m.valid_cols != m.cols {
                    write!(f, " mask>={}", m.valid_cols)?;
                }
                if let Some(s) = m.scale {
                    write!(f, " scale={s}")?;
                }
                if m.gelu {
                    write!(f, " gelu")?;
                }
                match m.reduce_max {
                    ReduceMax::None => {}
                    ReduceMax::Max(s) => write!(f, " rmax->{s}")?,
                    ReduceMax::ArgMax { idx, max } => write!(f, " argmax->({idx},{max})")?,
                }
                Ok(())
            }
            Instr::Vector(v) => {
                let name = match v.op {
                    VectorOpKind::Add => "vadd",
                    VectorOpKind::Sub => "vsub",
                    VectorOpKind::Mul => "vmul",
                    VectorOpKind::AddScalar => "vadds",
                    VectorOpKind::SubScalar => "vsubs",
                    VectorOpKind::MulScalar => "vmuls",
                    VectorOpKind::Exp => "vexp",
                    VectorOpKind::Copy => "vcopy",
                };
                write!(f, "{name} {}", v.a)?;
                if let Some(b) = v.b {
                    write!(f, ", {b}")?;
                }
                if let Some(s) = v.s {
                    write!(f, ", {s}")?;
                }
                write!(f, " -> {} (len {})", v.dst, v.len)
            }
            Instr::Reduce(r) => {
                let name = match r.kind {
                    ReduceKind::Sum => "vaccum",
                    ReduceKind::Max => "vrmax",
                };
                write!(f, "{name} {} (len {}) -> {}", r.v, r.len, r.dst)
            }
            Instr::Scalar(s) => {
                let name = match s.op {
                    ScalarOpKind::Add => "sadd",
                    ScalarOpKind::Mul => "smul",
                    ScalarOpKind::Recip => "srecip",
                    ScalarOpKind::RecipSqrt => "srsqrt",
                };
                write!(f, "{name} {}", s.a)?;
                if let Some(b) = s.b {
                    write!(f, ", {b}")?;
                }
                if let Some(i) = s.imm {
                    write!(f, ", #{i}")?;
                }
                write!(f, " -> {}", s.dst)
            }
            Instr::Dma(d) => {
                let dir = match d.dir {
                    DmaDir::Load => "dma.load",
                    DmaDir::Store => "dma.store",
                };
                write!(f, "{dir} {}", d.tensor)?;
                if d.row != 0 {
                    write!(f, " row={}", d.row)?;
                }
                if let Some(r) = &d.reg {
                    match d.dir {
                        DmaDir::Load => write!(f, " -> {r}")?,
                        DmaDir::Store => write!(f, " <- {r}")?,
                    }
                }
                write!(f, " ({} B)", d.bytes)?;
                if d.transpose {
                    write!(f, " transpose")?;
                }
                Ok(())
            }
            Instr::Router(r) => match r.op {
                RouterOp::AllGather => {
                    write!(
                        f,
                        "sync.allgather {} -> {} ({} B/core)",
                        r.src, r.dst, r.bytes
                    )
                }
                RouterOp::AllReduceArgMax => {
                    // A decoded instruction may lack its scalar pair.
                    let reg =
                        |s: Option<SReg>| s.map_or_else(|| "-".to_string(), |s| s.to_string());
                    write!(
                        f,
                        "sync.argmax ({},{}) ({} B/core)",
                        reg(r.idx),
                        reg(r.max),
                        r.bytes
                    )
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor_ref::{KvKind, WeightKind};

    #[test]
    fn display_matrix_instruction() {
        let m = MatrixInstr {
            kind: MatrixKind::Conv1d,
            src: VSlice::full(VReg(1), 1536),
            weight: TensorRef::Weight {
                layer: 0,
                kind: WeightKind::Ffn1,
            },
            bias: Some(TensorRef::Bias {
                layer: 0,
                kind: WeightKind::Ffn1,
            }),
            dst: VSlice::full(VReg(2), 1536),
            rows: 1536,
            cols: 1536,
            valid_cols: 1536,
            scale: None,
            gelu: true,
            reduce_max: ReduceMax::None,
        };
        let text = Instr::Matrix(m).to_string();
        assert!(text.contains("conv1d"), "{text}");
        assert!(text.contains("gelu"), "{text}");
        assert!(text.contains("hbm:wf1[L0]"), "{text}");
    }

    #[test]
    fn display_masked_mm_with_mask_and_scale() {
        let m = MatrixInstr {
            kind: MatrixKind::MaskedMm,
            src: VSlice {
                reg: VReg(4),
                offset: 64,
                len: 64,
            },
            weight: TensorRef::Kv {
                layer: 3,
                head: 1,
                kind: KvKind::Key,
            },
            bias: None,
            dst: VSlice::full(VReg(5), 16),
            rows: 64,
            cols: 16,
            valid_cols: 9,
            scale: Some(0.125),
            gelu: false,
            reduce_max: ReduceMax::Max(SReg(0)),
        };
        let text = Instr::Matrix(m).to_string();
        assert!(text.contains("mask>=9"), "{text}");
        assert!(text.contains("scale=0.125"), "{text}");
        assert!(text.contains("rmax->s0"), "{text}");
    }

    #[test]
    fn operand_sets_cover_matrix_fusions() {
        let m = Instr::Matrix(MatrixInstr {
            kind: MatrixKind::Mm,
            src: VSlice::full(VReg(1), 4),
            weight: TensorRef::Weight {
                layer: 0,
                kind: WeightKind::LmHead,
            },
            bias: None,
            dst: VSlice::full(VReg(2), 4),
            rows: 4,
            cols: 4,
            valid_cols: 4,
            scale: None,
            gelu: false,
            reduce_max: ReduceMax::ArgMax {
                idx: SReg(4),
                max: SReg(5),
            },
        });
        assert_eq!(m.reads().iter().collect::<Vec<_>>(), [1]);
        let s = |r: u8| SReg(r).flat();
        assert_eq!(m.writes().iter().collect::<Vec<_>>(), [2, s(4), s(5)]);
    }

    #[test]
    fn flat_indices_keep_the_files_apart() {
        assert_eq!(VReg(0).flat(), 0);
        assert_eq!(VReg(31).flat(), NUM_VREGS - 1);
        assert_eq!(SReg(0).flat(), NUM_VREGS);
        assert_eq!(SReg(15).flat(), NUM_VREGS + NUM_SREGS - 1);
        // Past its file, a register is past both files.
        for r in [VReg(32), VReg(255)] {
            assert!(r.flat() >= NUM_VREGS + NUM_SREGS, "{r}");
        }
        for r in [SReg(16), SReg(255)] {
            assert!(r.flat() >= NUM_VREGS + NUM_SREGS, "{r}");
        }
    }

    #[test]
    fn class_names_match_paper_isa_types() {
        let v = Instr::Vector(VectorInstr {
            op: VectorOpKind::Add,
            a: VReg(0),
            b: Some(VReg(1)),
            s: None,
            dst: VReg(2),
            len: 64,
        });
        assert_eq!(v.class_name(), "compute");
        let d = Instr::Dma(DmaInstr {
            dir: DmaDir::Load,
            tensor: TensorRef::TokenIo,
            row: 0,
            reg: None,
            bytes: 4,
            transpose: false,
        });
        assert_eq!(d.class_name(), "dma");
        let r = Instr::Router(RouterInstr {
            op: RouterOp::AllGather,
            src: VSlice::full(VReg(7), 384),
            dst: VSlice::full(VReg(10), 1536),
            idx: None,
            max: None,
            bytes: 768,
        });
        assert_eq!(r.class_name(), "router");
        assert!(r.to_string().contains("sync.allgather"));
    }
}
