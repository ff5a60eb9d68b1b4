//! Binary encoding of DFX instructions.
//!
//! The host driver transfers programs to each core's instruction buffer as
//! a compact byte stream (the runtime microcode expansion happens in the
//! operand collectors, so the stream stays small — §V-D). The format is a
//! one-byte opcode followed by fixed-width little-endian operand fields;
//! [`decode_program`] is the exact inverse of [`encode_program`].

use crate::instr::{
    DmaDir, DmaInstr, Instr, MatrixInstr, MatrixKind, ReduceInstr, ReduceKind, ReduceMax,
    RouterInstr, RouterOp, SReg, ScalarInstr, ScalarOpKind, VReg, VSlice, VectorInstr,
    VectorOpKind,
};
use crate::program::{AnnotatedInstr, OpClass, Program, StepMeta};
use crate::tensor_ref::{EmbedTable, KvKind, LnParam, TensorRef, WeightKind};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Error produced when decoding a malformed instruction stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Byte offset where decoding failed.
    pub offset: usize,
    /// Description of the problem.
    pub message: String,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for DecodeError {}

const MAGIC: u32 = 0x4446_5831; // "DFX1"

/// Bounds-checked little-endian reader over the instruction stream.
struct Reader {
    buf: Bytes,
    total: usize,
}

impl Reader {
    fn new(buf: Bytes) -> Self {
        let total = buf.len();
        Reader { buf, total }
    }

    fn offset(&self) -> usize {
        self.total - self.buf.remaining()
    }

    fn need(&self, n: usize) -> Result<(), String> {
        if self.buf.remaining() < n {
            Err(format!("truncated stream (need {n} bytes)"))
        } else {
            Ok(())
        }
    }

    fn u8(&mut self) -> Result<u8, String> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    fn u16(&mut self) -> Result<u16, String> {
        self.need(2)?;
        Ok(self.buf.get_u16_le())
    }

    fn u32(&mut self) -> Result<u32, String> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    fn f32(&mut self) -> Result<f32, String> {
        self.need(4)?;
        Ok(self.buf.get_f32_le())
    }
}

fn put_vslice(buf: &mut BytesMut, s: VSlice) {
    buf.put_u8(s.reg.0);
    buf.put_u32_le(s.offset);
    buf.put_u32_le(s.len);
}

fn get_vslice(buf: &mut Reader) -> Result<VSlice, String> {
    Ok(VSlice {
        reg: VReg(buf.u8()?),
        offset: buf.u32()?,
        len: buf.u32()?,
    })
}

fn put_tensor(buf: &mut BytesMut, t: TensorRef) {
    match t {
        TensorRef::Weight { layer, kind } => {
            buf.put_u8(0);
            buf.put_u16_le(layer);
            buf.put_u8(kind as u8);
        }
        TensorRef::Bias { layer, kind } => {
            buf.put_u8(1);
            buf.put_u16_le(layer);
            buf.put_u8(kind as u8);
        }
        TensorRef::Ln { layer, param } => {
            buf.put_u8(2);
            buf.put_u16_le(layer);
            buf.put_u8(param as u8);
        }
        TensorRef::Kv { layer, head, kind } => {
            buf.put_u8(3);
            buf.put_u16_le(layer);
            buf.put_u16_le(head);
            buf.put_u8(kind as u8);
        }
        TensorRef::Embed { table } => {
            buf.put_u8(4);
            buf.put_u8(table as u8);
        }
        TensorRef::TokenIo => buf.put_u8(5),
    }
}

fn weight_kind_from(code: u8) -> Result<WeightKind, String> {
    WeightKind::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| format!("bad weight kind {code}"))
}

fn get_tensor(buf: &mut Reader) -> Result<TensorRef, String> {
    match buf.u8()? {
        0 => Ok(TensorRef::Weight {
            layer: buf.u16()?,
            kind: weight_kind_from(buf.u8()?)?,
        }),
        1 => Ok(TensorRef::Bias {
            layer: buf.u16()?,
            kind: weight_kind_from(buf.u8()?)?,
        }),
        2 => {
            let layer = buf.u16()?;
            let param = match buf.u8()? {
                0 => LnParam::Ln1Gamma,
                1 => LnParam::Ln1Beta,
                2 => LnParam::Ln2Gamma,
                3 => LnParam::Ln2Beta,
                4 => LnParam::LnFGamma,
                5 => LnParam::LnFBeta,
                x => return Err(format!("bad ln param {x}")),
            };
            Ok(TensorRef::Ln { layer, param })
        }
        3 => {
            let layer = buf.u16()?;
            let head = buf.u16()?;
            let kind = match buf.u8()? {
                0 => KvKind::Key,
                1 => KvKind::Value,
                x => return Err(format!("bad kv kind {x}")),
            };
            Ok(TensorRef::Kv { layer, head, kind })
        }
        4 => {
            let table = match buf.u8()? {
                0 => EmbedTable::Wte,
                1 => EmbedTable::Wpe,
                x => return Err(format!("bad embed table {x}")),
            };
            Ok(TensorRef::Embed { table })
        }
        5 => Ok(TensorRef::TokenIo),
        x => Err(format!("bad tensor tag {x}")),
    }
}

fn encode_instr(buf: &mut BytesMut, ai: &AnnotatedInstr) {
    buf.put_u8(ai.class as u8);
    match &ai.instr {
        Instr::Matrix(m) => {
            buf.put_u8(0);
            buf.put_u8(m.kind as u8);
            put_vslice(buf, m.src);
            put_tensor(buf, m.weight);
            match m.bias {
                Some(b) => {
                    buf.put_u8(1);
                    put_tensor(buf, b);
                }
                None => buf.put_u8(0),
            }
            put_vslice(buf, m.dst);
            buf.put_u32_le(m.rows);
            buf.put_u32_le(m.cols);
            buf.put_u32_le(m.valid_cols);
            match m.scale {
                Some(s) => {
                    buf.put_u8(1);
                    buf.put_f32_le(s);
                }
                None => buf.put_u8(0),
            }
            buf.put_u8(u8::from(m.gelu));
            match m.reduce_max {
                ReduceMax::None => buf.put_u8(0),
                ReduceMax::Max(s) => {
                    buf.put_u8(1);
                    buf.put_u8(s.0);
                }
                ReduceMax::ArgMax { idx, max } => {
                    buf.put_u8(2);
                    buf.put_u8(idx.0);
                    buf.put_u8(max.0);
                }
            }
        }
        Instr::Vector(v) => {
            buf.put_u8(1);
            buf.put_u8(v.op as u8);
            buf.put_u8(v.a.0);
            buf.put_u8(v.b.map_or(0xff, |r| r.0));
            buf.put_u8(v.s.map_or(0xff, |r| r.0));
            buf.put_u8(v.dst.0);
            buf.put_u32_le(v.len);
        }
        Instr::Reduce(r) => {
            buf.put_u8(2);
            buf.put_u8(r.kind as u8);
            buf.put_u8(r.v.0);
            buf.put_u32_le(r.len);
            buf.put_u8(r.dst.0);
        }
        Instr::Scalar(s) => {
            buf.put_u8(3);
            buf.put_u8(s.op as u8);
            buf.put_u8(s.a.0);
            buf.put_u8(s.b.map_or(0xff, |r| r.0));
            match s.imm {
                Some(i) => {
                    buf.put_u8(1);
                    buf.put_f32_le(i);
                }
                None => buf.put_u8(0),
            }
            buf.put_u8(s.dst.0);
        }
        Instr::Dma(d) => {
            buf.put_u8(4);
            buf.put_u8(d.dir as u8);
            put_tensor(buf, d.tensor);
            buf.put_u32_le(d.row);
            match d.reg {
                Some(r) => {
                    buf.put_u8(1);
                    put_vslice(buf, r);
                }
                None => buf.put_u8(0),
            }
            buf.put_u64_le(d.bytes);
            buf.put_u8(u8::from(d.transpose));
        }
        Instr::Router(r) => {
            buf.put_u8(5);
            buf.put_u8(r.op as u8);
            put_vslice(buf, r.src);
            put_vslice(buf, r.dst);
            buf.put_u8(r.idx.map_or(0xff, |s| s.0));
            buf.put_u8(r.max.map_or(0xff, |s| s.0));
            buf.put_u64_le(r.bytes);
        }
    }
}

fn op_class_from(code: u8) -> Result<OpClass, String> {
    OpClass::ALL
        .get(code as usize)
        .copied()
        .ok_or_else(|| format!("bad op class {code}"))
}

fn decode_instr(buf: &mut Reader) -> Result<AnnotatedInstr, String> {
    let class = op_class_from(buf.u8()?)?;
    let instr = match buf.u8()? {
        0 => {
            let kind = match buf.u8()? {
                0 => MatrixKind::Conv1d,
                1 => MatrixKind::MaskedMm,
                2 => MatrixKind::Mm,
                x => return Err(format!("bad matrix kind {x}")),
            };
            let src = get_vslice(buf)?;
            let weight = get_tensor(buf)?;
            let bias = if buf.u8()? == 1 {
                Some(get_tensor(buf)?)
            } else {
                None
            };
            let dst = get_vslice(buf)?;
            let rows = buf.u32()?;
            let cols = buf.u32()?;
            let valid_cols = buf.u32()?;
            let scale = if buf.u8()? == 1 {
                Some(buf.f32()?)
            } else {
                None
            };
            let gelu = buf.u8()? == 1;
            let reduce_max = match buf.u8()? {
                0 => ReduceMax::None,
                1 => ReduceMax::Max(SReg(buf.u8()?)),
                2 => ReduceMax::ArgMax {
                    idx: SReg(buf.u8()?),
                    max: SReg(buf.u8()?),
                },
                x => return Err(format!("bad reduce_max mode {x}")),
            };
            Instr::Matrix(MatrixInstr {
                kind,
                src,
                weight,
                bias,
                dst,
                rows,
                cols,
                valid_cols,
                scale,
                gelu,
                reduce_max,
            })
        }
        1 => {
            let op = match buf.u8()? {
                0 => VectorOpKind::Add,
                1 => VectorOpKind::Sub,
                2 => VectorOpKind::Mul,
                3 => VectorOpKind::AddScalar,
                4 => VectorOpKind::SubScalar,
                5 => VectorOpKind::MulScalar,
                6 => VectorOpKind::Exp,
                7 => VectorOpKind::Copy,
                x => return Err(format!("bad vector op {x}")),
            };
            let a = VReg(buf.u8()?);
            let b = match buf.u8()? {
                0xff => None,
                r => Some(VReg(r)),
            };
            let s = match buf.u8()? {
                0xff => None,
                r => Some(SReg(r)),
            };
            let dst = VReg(buf.u8()?);
            let len = buf.u32()?;
            Instr::Vector(VectorInstr {
                op,
                a,
                b,
                s,
                dst,
                len,
            })
        }
        2 => {
            let kind = match buf.u8()? {
                0 => ReduceKind::Sum,
                1 => ReduceKind::Max,
                x => return Err(format!("bad reduce kind {x}")),
            };
            let v = VReg(buf.u8()?);
            let len = buf.u32()?;
            let dst = SReg(buf.u8()?);
            Instr::Reduce(ReduceInstr { kind, v, len, dst })
        }
        3 => {
            let op = match buf.u8()? {
                0 => ScalarOpKind::Add,
                1 => ScalarOpKind::Mul,
                2 => ScalarOpKind::Recip,
                3 => ScalarOpKind::RecipSqrt,
                x => return Err(format!("bad scalar op {x}")),
            };
            let a = SReg(buf.u8()?);
            let b = match buf.u8()? {
                0xff => None,
                r => Some(SReg(r)),
            };
            let imm = if buf.u8()? == 1 {
                Some(buf.f32()?)
            } else {
                None
            };
            let dst = SReg(buf.u8()?);
            Instr::Scalar(ScalarInstr { op, a, b, imm, dst })
        }
        4 => {
            let dir = match buf.u8()? {
                0 => DmaDir::Load,
                1 => DmaDir::Store,
                x => return Err(format!("bad dma dir {x}")),
            };
            let tensor = get_tensor(buf)?;
            let row = buf.u32()?;
            let reg = if buf.u8()? == 1 {
                Some(get_vslice(buf)?)
            } else {
                None
            };
            let bytes = buf.u64()?;
            let transpose = buf.u8()? == 1;
            Instr::Dma(DmaInstr {
                dir,
                tensor,
                row,
                reg,
                bytes,
                transpose,
            })
        }
        5 => {
            let op = match buf.u8()? {
                0 => RouterOp::AllGather,
                1 => RouterOp::AllReduceArgMax,
                x => return Err(format!("bad router op {x}")),
            };
            let src = get_vslice(buf)?;
            let dst = get_vslice(buf)?;
            let idx = match buf.u8()? {
                0xff => None,
                r => Some(SReg(r)),
            };
            let max = match buf.u8()? {
                0xff => None,
                r => Some(SReg(r)),
            };
            let bytes = buf.u64()?;
            Instr::Router(RouterInstr {
                op,
                src,
                dst,
                idx,
                max,
                bytes,
            })
        }
        x => return Err(format!("bad instruction tag {x}")),
    };
    Ok(AnnotatedInstr { instr, class })
}

/// Encodes a program to its binary transfer format.
pub fn encode_program(program: &Program) -> Bytes {
    let mut buf = BytesMut::with_capacity(64 + program.len() * 32);
    buf.put_u32_le(MAGIC);
    buf.put_u32_le(program.meta.token_pos);
    buf.put_u8(u8::from(program.meta.lm_head));
    buf.put_u32_le(program.meta.core_id);
    buf.put_u32_le(program.meta.num_cores);
    buf.put_u32_le(program.len() as u32);
    for ai in program.instrs() {
        encode_instr(&mut buf, ai);
    }
    buf.freeze()
}

/// Decodes a program from its binary transfer format.
///
/// # Errors
///
/// Returns [`DecodeError`] on bad magic, truncation or invalid field
/// values.
pub fn decode_program(bytes: Bytes) -> Result<Program, DecodeError> {
    let mut r = Reader::new(bytes);
    let fail = |r: &Reader, message: String| DecodeError {
        offset: r.offset(),
        message,
    };
    let magic = r.u32().map_err(|m| fail(&r, m))?;
    if magic != MAGIC {
        return Err(fail(&r, "bad magic".into()));
    }
    let token_pos = r.u32().map_err(|m| fail(&r, m))?;
    let lm_head = r.u8().map_err(|m| fail(&r, m))? == 1;
    let core_id = r.u32().map_err(|m| fail(&r, m))?;
    let num_cores = r.u32().map_err(|m| fail(&r, m))?;
    let count = r.u32().map_err(|m| fail(&r, m))?;
    let mut program = Program::new(StepMeta {
        token_pos,
        lm_head,
        core_id,
        num_cores,
    });
    for i in 0..count {
        let ai = decode_instr(&mut r).map_err(|m| fail(&r, format!("instruction {i}: {m}")))?;
        program.push(ai.class, ai.instr);
    }
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{ParallelConfig, ProgramBuilder};
    use dfx_model::GptConfig;

    #[test]
    fn roundtrip_full_token_step() {
        let b = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(1, 2)).unwrap();
        for (pos, lm) in [(0usize, false), (5, true)] {
            let p = b.token_step(pos, lm);
            let encoded = encode_program(&p);
            let decoded = decode_program(encoded).expect("decode");
            assert_eq!(p, decoded, "pos {pos} lm {lm}");
        }
    }

    #[test]
    fn stream_is_compact() {
        // Instruction chaining + runtime microcode keep host transfers
        // small: well under 64 bytes per instruction on average.
        let b = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, 2)).unwrap();
        let p = b.token_step(3, true);
        let encoded = encode_program(&p);
        assert!(
            encoded.len() < p.len() * 64,
            "{} bytes for {} instructions",
            encoded.len(),
            p.len()
        );
    }

    #[test]
    fn bad_magic_is_rejected() {
        let err = decode_program(Bytes::from_static(&[0u8; 32])).unwrap_err();
        assert!(err.message.contains("magic"), "{err}");
    }

    #[test]
    fn a_decoded_argmax_without_registers_formats() {
        let mut p = Program::new(StepMeta {
            token_pos: 0,
            lm_head: true,
            core_id: 0,
            num_cores: 2,
        });
        p.push(
            OpClass::LmHead,
            Instr::Router(RouterInstr {
                op: RouterOp::AllReduceArgMax,
                src: VSlice::full(VReg(0), 1),
                dst: VSlice::full(VReg(0), 1),
                idx: None,
                max: None,
                bytes: 8,
            }),
        );
        let decoded = decode_program(encode_program(&p)).expect("decode");
        assert_eq!(
            decoded.instrs()[0].instr.to_string(),
            "sync.argmax (-,-) (8 B/core)"
        );
    }

    #[test]
    fn truncation_is_detected() {
        let b = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, 1)).unwrap();
        let p = b.token_step(0, false);
        let encoded = encode_program(&p);
        let truncated = encoded.slice(0..encoded.len() / 2);
        assert!(decode_program(truncated).is_err());
    }
}
