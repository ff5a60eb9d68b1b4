//! Integration: programs survive the full host pipeline — build, binary
//! encode, transfer (simulated), decode, execute — with identical
//! results.

use dfx::core::{CoreEvent, CoreWeights, FunctionalCore};
use dfx::isa::{decode_program, encode_program, regs, ParallelConfig, ProgramBuilder};
use dfx::model::{GptConfig, GptWeights};
use dfx::num::F16;

#[test]
fn encoded_programs_execute_identically_after_decode() {
    let cfg = GptConfig::tiny();
    let par = ParallelConfig::new(0, 1);
    let weights = GptWeights::synthetic(&cfg).cast::<F16>();
    let builder = ProgramBuilder::new(cfg, par).unwrap();

    let original = builder.token_step(0, true);
    let decoded = decode_program(encode_program(&original)).expect("decode");
    assert_eq!(original, decoded);

    let partition = || {
        CoreWeights::partition_cluster(weights.clone(), 1)
            .unwrap()
            .swap_remove(0)
    };
    let mut core_a = FunctionalCore::new(partition());
    let mut core_b = FunctionalCore::new(partition());
    core_a.begin_step(9);
    core_b.begin_step(9);
    let (_, ev_a) = core_a.run(&original, 0).unwrap();
    let (_, ev_b) = core_b.run(&decoded, 0).unwrap();
    assert_eq!(ev_a, CoreEvent::Done);
    assert_eq!(ev_b, CoreEvent::Done);
    assert_eq!(core_a.out_token(), core_b.out_token());
    // The whole architectural state agrees, not just the token.
    let hidden_a = core_a.vreg(regs::LM_HIDDEN);
    let hidden_b = core_b.vreg(regs::LM_HIDDEN);
    assert_eq!(hidden_a.len(), hidden_b.len());
    for (a, b) in hidden_a.iter().zip(hidden_b) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
