//! Ablations of the paper's design choices (DESIGN.md §4).
//!
//! Not paper figures — these quantify claims the paper makes in prose:
//!
//! 1. **Transpose scheme** (§V-B): DFX's write-side Value transpose
//!    (plus the Value-first instruction order) against the conventional
//!    read-side on-chip transpose the paper rejects.
//! 2. **Intra-layer vs pipelined parallelism** (§IV-B): pipelining cannot
//!    reduce text-generation latency because of the feedback loop.
//! 3. **Scoreboard hazard tracking** (§V-A): how much of the critical
//!    path the RAW/WAW dependencies account for (failure injection).
//! 4. **Tiling direction** (§V-B, Fig 9): buffering vs input-reuse
//!    trade-off of horizontal/vertical/zigzag weight traversal.
//!
//! No knobs — each ablation compares the paper's choice against its
//! rejected alternative at a fixed operating point. Output shape: one
//! table per ablation, one row per design variant, with latency (or
//! buffer/reuse figures) and the ratio to the paper's design.

use crate::table::{fmt, fmt_ratio, ExperimentReport, MdTable};
use dfx_core::{CoreParams, TimingCore};
use dfx_isa::{BuilderOptions, ParallelConfig, ProgramBuilder, QkvOrder};
use dfx_model::{GptConfig, Workload};
use dfx_sim::{pipelined_generate_timed, Appliance, SimError};

/// Times one generation-stage token step under a QKV emission order.
fn step_ms(cfg: &GptConfig, cores: usize, order: QkvOrder) -> Result<f64, SimError> {
    let builder = ProgramBuilder::with_options(
        cfg.clone(),
        ParallelConfig::new(0, cores),
        BuilderOptions { qkv_order: order },
    )
    .map_err(SimError::Partition)?;
    let engine = TimingCore::new(CoreParams::default(), cores as u32);
    Ok(engine
        .time_step(&builder.token_step(64, true))
        .total
        .to_millis())
}

/// Runs all ablations.
pub fn run() -> Result<ExperimentReport, SimError> {
    let mut report = ExperimentReport::new("ablation", "Ablations of the paper's design choices");

    // 1. Transpose scheme.
    let mut t1 = MdTable::new(
        "Value transpose scheme (§V-B) — one generation step at context 64",
        &[
            "model",
            "cores",
            "DFX: write-side + Value-first ms",
            "write-side, naive Q,K,V order ms",
            "conventional read-side transpose ms",
        ],
    );
    for (cfg, cores) in [
        (GptConfig::gpt2_345m(), 1usize),
        (GptConfig::gpt2_1_5b(), 4),
    ] {
        let paper_scheme = step_ms(&cfg, cores, QkvOrder::ValueFirst)?;
        let naive_order = step_ms(&cfg, cores, QkvOrder::ValueLast)?;
        let read_side = {
            let builder = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, cores))
                .map_err(SimError::Partition)?;
            let engine =
                TimingCore::new(CoreParams::default(), cores as u32).with_read_side_transpose();
            engine
                .time_step(&builder.token_step(64, true))
                .total
                .to_millis()
        };
        t1.push_row(vec![
            cfg.name.clone(),
            cores.to_string(),
            fmt(paper_scheme, 3),
            fmt(naive_order, 3),
            format!(
                "{} (+{:.0}%)",
                fmt(read_side, 3),
                100.0 * (read_side - paper_scheme) / paper_scheme
            ),
        ]);
    }
    report.note(
        "The write-side transpose removes the read-side cost entirely; once it exists, the          Value-first reordering is cheap insurance (the per-head write transposes finish          behind the K/Q projections in either order at these sizes, so the two orders differ          by under 2%). The *conventional* scheme the paper rejects — transposing each head's          t x d_head Value block in on-chip memory at read time — is the expensive one.",
    );
    report.table(t1);

    // 2. Intra-layer vs pipelined parallelism.
    let mut t2 = MdTable::new(
        "Intra-layer vs pipelined parallelism (§IV-B), 4 devices, [32:32]",
        &[
            "model",
            "single device ms",
            "pipelined (4 stages) ms",
            "intra-layer (4-way) ms",
            "intra-layer advantage",
        ],
    );
    let w = Workload::new(32, 32);
    for cfg in [GptConfig::gpt2_345m(), GptConfig::gpt2_1_5b()] {
        let single = Appliance::timing_only(cfg.clone(), 1)?
            .generate_timed(w.input_len, w.output_len)?
            .total_latency_ms();
        let pipe = pipelined_generate_timed(&cfg, 4, w)?;
        let intra = Appliance::timing_only(cfg.clone(), 4)?
            .generate_timed(w.input_len, w.output_len)?
            .total_latency_ms();
        t2.push_row(vec![
            cfg.name.clone(),
            fmt(single, 1),
            fmt(pipe.latency_ms, 1),
            fmt(intra, 1),
            fmt_ratio(pipe.latency_ms / intra),
        ]);
    }
    report.note(
        "Pipelined parallelism adds inter-stage hops without reducing per-token latency (the \
         generation feedback loop defeats pipelining), while intra-layer parallelism divides \
         the matrix work — the paper's reason for choosing the latter.",
    );
    report.table(t2);

    // 3. Scoreboard failure injection.
    let mut t3 = MdTable::new(
        "Scoreboard hazard tracking (§V-A) — one generation step, 1.5B / 4 cores",
        &["configuration", "step ms", "note"],
    );
    let cfg = GptConfig::gpt2_1_5b();
    let builder =
        ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, 4)).map_err(SimError::Partition)?;
    let program = builder.token_step(64, true);
    let with = TimingCore::new(CoreParams::default(), 4).time_step(&program);
    let without = TimingCore::new(CoreParams::default(), 4)
        .without_scoreboard()
        .time_step(&program);
    t3.push_row(vec![
        "scoreboard enabled".into(),
        fmt(with.total.to_millis(), 3),
        "correct execution".into(),
    ]);
    t3.push_row(vec![
        "scoreboard disabled".into(),
        fmt(without.total.to_millis(), 3),
        "ignores RAW/WAW — unsafe lower bound".into(),
    ]);
    report.note(format!(
        "Dependency stalls account for {:.1}% of the step's critical path — work the \
         chaining/bypass design keeps, and the scoreboard keeps *correct*.",
        100.0 * (with.total.to_millis() - without.total.to_millis()) / with.total.to_millis()
    ));
    report.table(t3);

    // 4. Tiling direction (Fig 9 discussion).
    let mut t4 = MdTable::new(
        "Weight traversal direction (§V-B, Fig 9) — FFN1 partition 1536x1536, d=64 l=16",
        &[
            "direction",
            "live partial-sum groups",
            "input fetches per d-block",
            "verdict",
        ],
    );
    use dfx_hw::{TileShape, WalkOrder};
    for (order, verdict) in [
        (
            WalkOrder::Horizontal,
            "max reuse; buffer-infeasible on-chip",
        ),
        (WalkOrder::Vertical, "one buffer; register-file traffic x24"),
        (WalkOrder::Zigzag, "the paper's balance (d x d blocks)"),
    ] {
        let a = order.analysis(TileShape::PAPER, 1536, 1536);
        t4.push_row(vec![
            format!("{order:?}"),
            a.partial_sum_groups.to_string(),
            a.input_fetches_per_block.to_string(),
            verdict.into(),
        ]);
    }
    report.table(t4);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_side_transpose_beats_read_side() {
        let cfg = GptConfig::gpt2_345m();
        let paper_scheme = step_ms(&cfg, 1, QkvOrder::ValueFirst).unwrap();
        let naive_order = step_ms(&cfg, 1, QkvOrder::ValueLast).unwrap();
        // Ordering is near-neutral once the transpose is on the write
        // side...
        assert!((naive_order - paper_scheme).abs() / paper_scheme < 0.05);
        // ...but the conventional read-side transpose costs real time.
        let builder = ProgramBuilder::new(cfg.clone(), ParallelConfig::new(0, 1)).unwrap();
        let read_side = TimingCore::new(CoreParams::default(), 1)
            .with_read_side_transpose()
            .time_step(&builder.token_step(64, true))
            .total
            .to_millis();
        assert!(
            read_side > 1.05 * paper_scheme,
            "read-side {read_side} vs write-side {paper_scheme}"
        );
    }

    #[test]
    fn ablation_report_has_four_tables() {
        let r = run().unwrap();
        assert_eq!(r.tables.len(), 4);
    }
}
