//! # dfx-isa — the DFX instruction set and GPT-2 program builder
//!
//! The DFX core is programmable through a custom assembly-level ISA with
//! three instruction classes — `compute` (matrix + vector), `dma` and
//! `router` (paper §IV-C). This crate defines the instructions, their
//! binary encoding, and [`ProgramBuilder`], the compiler that lowers GPT-2
//! inference (Algorithm 1 of the paper) into per-token-step programs with
//! the paper's hardware-aware orderings: Value-first transpose hiding,
//! four ring synchronisations per decoder layer, softmax and LayerNorm as
//! vector/scalar sequences, and fused GELU / reduce-max in the matrix
//! path.
//!
//! ```
//! use dfx_isa::{ParallelConfig, ProgramBuilder};
//! use dfx_model::GptConfig;
//!
//! let builder = ProgramBuilder::new(GptConfig::tiny(), ParallelConfig::new(0, 2)).unwrap();
//! let step = builder.token_step(0, true);
//! assert!(step.validate().is_ok());
//! println!("{}", step.disassemble());
//! ```

#![warn(missing_docs)]

mod builder;
mod encoding;
mod instr;
mod program;
mod tensor_ref;

pub use builder::{regs, BuilderOptions, ParallelConfig, ProgramBuilder, QkvOrder};
pub use encoding::{decode_program, encode_program, DecodeError};
pub use instr::{
    DmaDir, DmaInstr, Instr, MatrixInstr, MatrixKind, ReduceInstr, ReduceKind, ReduceMax, RegSet,
    RouterInstr, RouterOp, SReg, ScalarInstr, ScalarOpKind, VReg, VSlice, VectorInstr,
    VectorOpKind, NUM_SREGS, NUM_VREGS,
};
pub use program::{AnnotatedInstr, OpClass, Program, StepMeta, ValidateError};
pub use tensor_ref::{EmbedTable, KvKind, LnParam, MemoryMap, TensorRef, WeightKind};
