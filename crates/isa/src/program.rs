//! Programs: annotated instruction sequences for one token step.

use crate::instr::{Instr, MatrixKind, ReduceMax, RouterOp};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The operation class an instruction is attributed to, matching the
/// latency-breakdown categories of the paper's Figures 4 and 15, plus the
/// end-to-end stages (embedding, LM head) that previous accelerators
/// omitted and DFX runs on-device (§III-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OpClass {
    /// Token embedding (WTE/WPE lookup and add).
    Embed,
    /// Layer normalisation.
    LayerNorm,
    /// Multi-head self-attention (QKV, score, softmax, context, output
    /// projection).
    SelfAttention,
    /// Residual additions.
    Residual,
    /// Feed-forward network.
    Ffn,
    /// Ring-network synchronisation.
    Sync,
    /// LM head (logits + argmax).
    LmHead,
}

impl OpClass {
    /// All classes in display order.
    pub const ALL: [OpClass; 7] = [
        OpClass::Embed,
        OpClass::LayerNorm,
        OpClass::SelfAttention,
        OpClass::Residual,
        OpClass::Ffn,
        OpClass::Sync,
        OpClass::LmHead,
    ];

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Embed => "Embedding",
            OpClass::LayerNorm => "LayerNorm",
            OpClass::SelfAttention => "Self-Attention",
            OpClass::Residual => "Residual",
            OpClass::Ffn => "Feed-Forward Network",
            OpClass::Sync => "Synchronization",
            OpClass::LmHead => "LM Head",
        }
    }
}

impl std::fmt::Display for OpClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// An instruction tagged with its op class (used for cycle attribution).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnnotatedInstr {
    /// The instruction.
    pub instr: Instr,
    /// Attribution class.
    pub class: OpClass,
}

/// Static description of the step a program implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StepMeta {
    /// Token position in the sequence (0-based). The KV context length
    /// after this step is `token_pos + 1`.
    pub token_pos: u32,
    /// Whether this step runs the final norm + LM head (last context token
    /// and every generation token).
    pub lm_head: bool,
    /// Core this program was built for.
    pub core_id: u32,
    /// Number of cores in the cluster.
    pub num_cores: u32,
}

/// A single-token-step program for one core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Program {
    /// Step description.
    pub meta: StepMeta,
    instrs: Vec<AnnotatedInstr>,
}

/// Error found by [`Program::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Index of the offending instruction.
    pub index: usize,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for ValidateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "instruction {}: {}", self.index, self.message)
    }
}

impl std::error::Error for ValidateError {}

impl Program {
    /// Creates an empty program.
    pub fn new(meta: StepMeta) -> Self {
        Program {
            meta,
            instrs: Vec::new(),
        }
    }

    /// Appends an instruction.
    pub fn push(&mut self, class: OpClass, instr: Instr) {
        self.instrs.push(AnnotatedInstr { instr, class });
    }

    /// Removes every instruction, keeping the buffer's capacity (for
    /// emitting a step into one buffer part by part).
    pub fn clear(&mut self) {
        self.instrs.clear();
    }

    /// The instructions in issue order.
    pub fn instrs(&self) -> &[AnnotatedInstr] {
        &self.instrs
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// `true` if the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Instruction count per paper ISA class (`compute`/`dma`/`router`).
    pub fn class_histogram(&self) -> BTreeMap<&'static str, usize> {
        let mut h = BTreeMap::new();
        for ai in &self.instrs {
            *h.entry(ai.instr.class_name()).or_insert(0) += 1;
        }
        h
    }

    /// Instruction count per [`OpClass`].
    pub fn op_class_histogram(&self) -> BTreeMap<OpClass, usize> {
        let mut h = BTreeMap::new();
        for ai in &self.instrs {
            *h.entry(ai.class).or_insert(0) += 1;
        }
        h
    }

    /// Disassembles to text, one instruction per line.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let mut last_class = None;
        for (i, ai) in self.instrs.iter().enumerate() {
            if last_class != Some(ai.class) {
                let _ = writeln!(out, "; --- {} ---", ai.class);
                last_class = Some(ai.class);
            }
            let _ = writeln!(out, "{i:5}: {}", ai.instr);
        }
        out
    }

    /// Structural validation: operand geometry is self-consistent and
    /// fused fields are only used where they are meaningful.
    ///
    /// # Errors
    ///
    /// Returns the first inconsistency found.
    pub fn validate(&self) -> Result<(), ValidateError> {
        let err = |index: usize, message: String| Err(ValidateError { index, message });
        for (i, ai) in self.instrs.iter().enumerate() {
            match &ai.instr {
                Instr::Matrix(m) => {
                    if m.src.len != m.rows {
                        return err(i, format!("src len {} != rows {}", m.src.len, m.rows));
                    }
                    if m.dst.len != m.cols {
                        return err(i, format!("dst len {} != cols {}", m.dst.len, m.cols));
                    }
                    if m.valid_cols > m.cols {
                        return err(i, format!("valid_cols {} > cols {}", m.valid_cols, m.cols));
                    }
                    if m.kind != MatrixKind::MaskedMm && m.valid_cols != m.cols {
                        return err(i, "masking is only defined for maskedmm".into());
                    }
                    if m.kind == MatrixKind::Conv1d
                        && matches!(m.reduce_max, ReduceMax::ArgMax { .. })
                    {
                        return err(i, "argmax fusion is for mm (LM head)".into());
                    }
                    if m.bias.is_some() && m.kind != MatrixKind::Conv1d {
                        return err(i, "bias is only defined for conv1d".into());
                    }
                    if m.rows == 0 || m.cols == 0 {
                        return err(i, "degenerate matrix shape".into());
                    }
                }
                Instr::Vector(v) => {
                    let needs_b = matches!(
                        v.op,
                        crate::instr::VectorOpKind::Add
                            | crate::instr::VectorOpKind::Sub
                            | crate::instr::VectorOpKind::Mul
                    );
                    let needs_s = matches!(
                        v.op,
                        crate::instr::VectorOpKind::AddScalar
                            | crate::instr::VectorOpKind::SubScalar
                            | crate::instr::VectorOpKind::MulScalar
                    );
                    if needs_b && v.b.is_none() {
                        return err(i, "vector-vector op missing b operand".into());
                    }
                    if needs_s && v.s.is_none() {
                        return err(i, "vector-scalar op missing s operand".into());
                    }
                    if v.len == 0 {
                        return err(i, "zero-length vector op".into());
                    }
                }
                Instr::Reduce(r) => {
                    if r.len == 0 {
                        return err(i, "zero-length reduction".into());
                    }
                }
                Instr::Scalar(s) => {
                    if s.b.is_some() && s.imm.is_some() {
                        return err(i, "scalar op has both register and immediate".into());
                    }
                    let needs_operand = matches!(
                        s.op,
                        crate::instr::ScalarOpKind::Add | crate::instr::ScalarOpKind::Mul
                    );
                    if needs_operand && s.b.is_none() && s.imm.is_none() {
                        return err(i, "binary scalar op missing second operand".into());
                    }
                }
                Instr::Dma(d) => {
                    if d.bytes == 0 {
                        return err(i, "zero-byte DMA".into());
                    }
                    if d.transpose && d.dir != crate::instr::DmaDir::Store {
                        return err(i, "transpose unit sits on the store path".into());
                    }
                }
                Instr::Router(r) => match r.op {
                    RouterOp::AllGather => {
                        if r.dst.len != r.src.len * self.meta.num_cores {
                            return err(
                                i,
                                format!(
                                    "allgather dst len {} != src len {} x {} cores",
                                    r.dst.len, r.src.len, self.meta.num_cores
                                ),
                            );
                        }
                    }
                    RouterOp::AllReduceArgMax => {
                        if r.idx.is_none() || r.max.is_none() {
                            return err(i, "argmax sync needs idx and max scalars".into());
                        }
                    }
                },
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::*;
    use crate::tensor_ref::{TensorRef, WeightKind};

    fn meta() -> StepMeta {
        StepMeta {
            token_pos: 0,
            lm_head: false,
            core_id: 0,
            num_cores: 2,
        }
    }

    #[test]
    fn histogram_counts_classes() {
        let mut p = Program::new(meta());
        p.push(
            OpClass::Residual,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::Add,
                a: VReg(0),
                b: Some(VReg(1)),
                s: None,
                dst: VReg(2),
                len: 8,
            }),
        );
        p.push(
            OpClass::Sync,
            Instr::Router(RouterInstr {
                op: RouterOp::AllGather,
                src: VSlice::full(VReg(2), 8),
                dst: VSlice::full(VReg(3), 16),
                idx: None,
                max: None,
                bytes: 16,
            }),
        );
        assert_eq!(p.class_histogram()["compute"], 1);
        assert_eq!(p.class_histogram()["router"], 1);
        assert_eq!(p.op_class_histogram()[&OpClass::Sync], 1);
        assert!(p.validate().is_ok());
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn validate_rejects_shape_mismatch() {
        let mut p = Program::new(meta());
        p.push(
            OpClass::Ffn,
            Instr::Matrix(MatrixInstr {
                kind: MatrixKind::Conv1d,
                src: VSlice::full(VReg(0), 100),
                weight: TensorRef::Weight {
                    layer: 0,
                    kind: WeightKind::Ffn1,
                },
                bias: None,
                dst: VSlice::full(VReg(1), 64),
                rows: 128, // mismatch with src.len
                cols: 64,
                valid_cols: 64,
                scale: None,
                gelu: false,
                reduce_max: ReduceMax::None,
            }),
        );
        let e = p.validate().unwrap_err();
        assert!(e.message.contains("src len"), "{e}");
    }

    #[test]
    fn validate_rejects_allgather_with_bad_fanin() {
        let mut p = Program::new(meta());
        p.push(
            OpClass::Sync,
            Instr::Router(RouterInstr {
                op: RouterOp::AllGather,
                src: VSlice::full(VReg(0), 8),
                dst: VSlice::full(VReg(1), 8), // should be 16 for 2 cores
                idx: None,
                max: None,
                bytes: 16,
            }),
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_mask_on_conv1d() {
        let mut p = Program::new(meta());
        p.push(
            OpClass::Ffn,
            Instr::Matrix(MatrixInstr {
                kind: MatrixKind::Conv1d,
                src: VSlice::full(VReg(0), 8),
                weight: TensorRef::Weight {
                    layer: 0,
                    kind: WeightKind::Ffn1,
                },
                bias: None,
                dst: VSlice::full(VReg(1), 8),
                rows: 8,
                cols: 8,
                valid_cols: 4,
                scale: None,
                gelu: false,
                reduce_max: ReduceMax::None,
            }),
        );
        assert!(p.validate().is_err());
    }

    #[test]
    fn disassembly_groups_by_class() {
        let mut p = Program::new(meta());
        p.push(
            OpClass::Residual,
            Instr::Vector(VectorInstr {
                op: VectorOpKind::Add,
                a: VReg(0),
                b: Some(VReg(1)),
                s: None,
                dst: VReg(2),
                len: 8,
            }),
        );
        let text = p.disassemble();
        assert!(text.contains("; --- Residual ---"), "{text}");
        assert!(text.contains("vadd"), "{text}");
    }
}
