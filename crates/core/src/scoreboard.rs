//! The scoreboard (paper §V-A).
//!
//! The hardware scoreboard tracks source/destination addresses of
//! in-flight instructions with `stale`/`valid` bits so chained
//! instructions never read half-written registers. The simulator keeps
//! one ready cycle per register, in one flat array over both files
//! (indexed by [`VReg::flat`](dfx_isa::VReg::flat) and
//! [`SReg::flat`](dfx_isa::SReg::flat)), and takes each instruction's
//! operands from the one operand table in `dfx-isa`
//! ([`Instr::reads`](dfx_isa::Instr::reads),
//! [`Instr::writes`](dfx_isa::Instr::writes)). The timing engine queries
//! register-ready times to place instruction start cycles, and tests
//! disable it to demonstrate that the hazard it guards against is real
//! (failure injection).

use dfx_hw::Cycles;
use dfx_isa::{RegSet, NUM_SREGS, NUM_VREGS};

/// Ready-time scoreboard used by the timing engine.
#[derive(Debug, Clone)]
pub struct Scoreboard {
    /// Ready cycle per register, by flat index.
    ready: [Cycles; NUM_VREGS + NUM_SREGS],
    /// When disabled, hazards are ignored (failure-injection mode).
    enabled: bool,
}

impl Default for Scoreboard {
    fn default() -> Self {
        Scoreboard::new()
    }
}

impl Scoreboard {
    /// Creates a scoreboard with all registers ready at cycle 0.
    pub fn new() -> Self {
        Scoreboard {
            ready: [Cycles::ZERO; NUM_VREGS + NUM_SREGS],
            enabled: true,
        }
    }

    /// Creates a disabled scoreboard (no hazard tracking) for failure
    /// injection tests.
    pub fn disabled() -> Self {
        Scoreboard {
            enabled: false,
            ..Scoreboard::new()
        }
    }

    /// Earliest cycle at which an instruction reading `reads` and
    /// writing `writes` has its dependencies (RAW on sources, WAW on
    /// destinations) satisfied.
    //
    // This and `commit` are `#[inline]` for the cycle model's
    // per-instruction loop: without the hint, how that loop was compiled
    // depended on how unrelated code of the crate was split into codegen
    // units, and `time_step_batched` ran a quarter slower in one split.
    #[inline]
    pub fn ready_time(&self, reads: &RegSet, writes: &RegSet) -> Cycles {
        if !self.enabled {
            return Cycles::ZERO;
        }
        let regs = reads.iter().chain(writes.iter());
        regs.fold(Cycles::ZERO, |t, r| t.max(self.ready[r]))
    }

    /// Every register's ready cycle, by flat index.
    pub(crate) fn ready_times(&self) -> [Cycles; NUM_VREGS + NUM_SREGS] {
        self.ready
    }

    /// Moves every register's ready cycle `by` cycles later.
    pub(crate) fn delay(&mut self, by: Cycles) {
        for t in &mut self.ready {
            *t += by;
        }
    }

    /// Marks the registers in `writes` ready at `finish`.
    #[inline]
    pub fn commit(&mut self, writes: &RegSet, finish: Cycles) {
        for w in writes.iter() {
            self.ready[w] = finish;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_isa::{Instr, SReg, ScalarInstr, ScalarOpKind, VReg, VectorInstr, VectorOpKind};

    fn vadd(a: u8, b: u8, dst: u8) -> Instr {
        Instr::Vector(VectorInstr {
            op: VectorOpKind::Add,
            a: VReg(a),
            b: Some(VReg(b)),
            s: None,
            dst: VReg(dst),
            len: 8,
        })
    }

    fn ready(sb: &Scoreboard, instr: &Instr) -> Cycles {
        sb.ready_time(&instr.reads(), &instr.writes())
    }

    #[test]
    fn raw_hazard_is_tracked() {
        let mut sb = Scoreboard::new();
        sb.commit(&vadd(0, 1, 2).writes(), Cycles(100));
        assert_eq!(ready(&sb, &vadd(2, 3, 4)), Cycles(100));
        assert_eq!(ready(&sb, &vadd(5, 6, 7)), Cycles::ZERO);
    }

    #[test]
    fn waw_hazard_is_tracked() {
        let mut sb = Scoreboard::new();
        sb.commit(&vadd(0, 1, 2).writes(), Cycles(50));
        // Writing v2 again must wait for the previous write.
        assert_eq!(ready(&sb, &vadd(3, 4, 2)), Cycles(50));
    }

    #[test]
    fn scalar_registers_do_not_alias_vector_registers() {
        let mut sb = Scoreboard::new();
        let recip = |a: u8, dst: u8| {
            Instr::Scalar(ScalarInstr {
                op: ScalarOpKind::Recip,
                a: SReg(a),
                b: None,
                imm: None,
                dst: SReg(dst),
            })
        };
        sb.commit(&recip(0, 2).writes(), Cycles(70));
        assert_eq!(ready(&sb, &vadd(2, 3, 4)), Cycles::ZERO, "v2 is not s2");
        assert_eq!(ready(&sb, &recip(2, 5)), Cycles(70));
        let last = (NUM_SREGS - 1) as u8;
        sb.commit(&recip(0, last).writes(), Cycles(90));
        assert_eq!(ready(&sb, &recip(last, 0)), Cycles(90));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn a_register_past_its_file_is_never_another_register() {
        // v32 would be s0 if the flat index merely ran on.
        let mut sb = Scoreboard::disabled();
        sb.commit(&vadd(0, 1, NUM_VREGS as u8).writes(), Cycles(10));
    }

    #[test]
    fn reads_and_writes_cover_matrix_fusions() {
        use dfx_isa::{MatrixInstr, MatrixKind, ReduceMax, TensorRef, VSlice, WeightKind};
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
        let mut sb = Scoreboard::new();
        sb.commit(&vadd(0, 0, 1).writes(), Cycles(20));
        assert_eq!(ready(&sb, &m), Cycles(20), "the matrix input");
        sb.commit(&m.writes(), Cycles(60));
        let copy = |s: u8| {
            Instr::Scalar(ScalarInstr {
                op: ScalarOpKind::Add,
                a: SReg(s),
                b: None,
                imm: Some(0.0),
                dst: SReg(0),
            })
        };
        // The fused argmax writes both scalars next to the output.
        assert_eq!(ready(&sb, &vadd(2, 3, 6)), Cycles(60));
        assert_eq!(ready(&sb, &copy(4)), Cycles(60));
        assert_eq!(ready(&sb, &copy(5)), Cycles(60));
        assert_eq!(ready(&sb, &copy(6)), Cycles::ZERO);
    }

    #[test]
    fn disabled_scoreboard_reports_everything_ready() {
        let mut sb = Scoreboard::disabled();
        sb.commit(&vadd(0, 1, 2).writes(), Cycles(100));
        assert_eq!(ready(&sb, &vadd(2, 3, 4)), Cycles::ZERO);
    }
}
