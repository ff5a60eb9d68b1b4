//! K/V budget walkthrough: how HBM capacity governs continuous
//! batching on the DFX appliance.
//!
//! Each U280 holds the model's weight shard *and* every live request's
//! K/V attention state in its 8 GiB of HBM (paper §IV-B). This example
//! walks the memory subsystem bottom-up: the per-device `MemoryModel`,
//! the reserved `BlockPool` admission arithmetic on the incremental
//! executor, and the serving-level consequence — a capacity-capped appliance serving
//! the same backlog with a smaller live batch, and chunked prefill
//! bounding the decode stall admissions inject.
//!
//! ```sh
//! cargo run --release --example kv_budget
//! ```

use dfx::model::{GptConfig, Workload};
use dfx::serve::{ArrivalProcess, Backend, ContinuousBatching, ServingEngine};
use dfx::sim::{Appliance, ContinuousStepper};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = GptConfig::gpt2_1_5b();
    let dfx = Appliance::timing_only(cfg.clone(), 4)?;

    // 1. The capacity model: what one device holds.
    let m = dfx.memory_model();
    println!("{} per device:", Backend::name(&dfx));
    println!(
        "  HBM capacity        {:>10.1} GiB",
        m.capacity_bytes as f64 / (1u64 << 30) as f64
    );
    println!(
        "  weight shard        {:>10.1} MiB",
        m.weight_bytes as f64 / (1u64 << 20) as f64
    );
    println!(
        "  K/V per token       {:>10.1} KiB",
        m.kv_bytes_per_token as f64 / 1024.0
    );
    println!(
        "  K/V budget          {:>10} tokens",
        m.max_resident_tokens()
    );

    // 2. Admission arithmetic on the incremental executor: every member
    //    reserves its full input+output claim; over-budget admissions
    //    fail instead of silently over-committing.
    let w = Workload::chatbot(); // [64:64] = 128-token claim
    let claim = (w.input_len + w.output_len) as u64;
    let three_claims = dfx
        .memory_model()
        .with_capacity(m.weight_bytes + 3 * claim * m.kv_bytes_per_token);
    println!(
        "\nA what-if device with room for 3 claims ({} tokens):",
        three_claims.max_resident_tokens()
    );
    let capped =
        Appliance::timing_only(cfg.clone(), 4)?.with_hbm_capacity(three_claims.capacity_bytes)?;
    let mut batch = capped.batch_state();
    for id in 0..3 {
        batch.admit(id, w)?;
        println!(
            "  admit #{id}: committed {:>3} tokens, free {:>3}",
            batch.kv().committed_tokens(),
            batch.kv().free_tokens()
        );
    }
    let refused = batch.admit(3, w).unwrap_err();
    println!("  admit #3 refused: {refused}");
    while batch.live() > 0 {
        batch.step_token()?;
    }
    println!(
        "  after retirement: committed {} tokens (claims released in full)",
        batch.kv().committed_tokens()
    );

    // 3. The serving consequence: the same saturating backlog on capped
    //    vs full HBM — capacity, not the scheduler, bounds the batch —
    //    and chunked prefill cutting the stall running members feel.
    let stream = vec![w; 64];
    let backlog = ArrivalProcess::Trace(vec![0.0; 64]);
    println!("\n64-request backlog, continuous max batch 16:");
    println!(
        "{:>24} {:>15} {:>12} {:>15} {:>18}",
        "appliance", "peak live batch", "p99 s", "goodput tok/s", "p99 token gap ms"
    );
    let show = |label: &str, appliance: &Appliance, chunk: Option<usize>| {
        let mut discipline = ContinuousBatching::new(16);
        if let Some(c) = chunk {
            discipline = discipline.with_prefill_chunk(c);
        }
        let r = ServingEngine::new(appliance)
            .with_scheduler(Box::new(discipline))
            .run(&stream, &backlog)
            .expect("valid stream");
        println!(
            "{label:>24} {:>15} {:>12.1} {:>15.1} {:>18.0}",
            r.peak_live_batch,
            r.p99_sojourn_ms / 1e3,
            r.goodput_tps,
            r.p99_itl_ms,
        );
    };
    show("3-claim HBM", &capped, None);
    show("8 GiB HBM", &dfx, None);
    show("8 GiB + chunk 16", &dfx, Some(16));

    println!(
        "\nCapacity bounds the live batch (and with it goodput); chunked prefill keeps the\n\
         batch full while bounding the decode stall each admission injects — the two layers\n\
         the serving stack needs before HBM-heavy features (longer contexts, >4-FPGA\n\
         sharding) can land."
    );
    Ok(())
}
