//! The homogeneous multi-FPGA cluster, functionally simulated.
//!
//! All cores run the same program shape on partitioned weights (paper
//! §IV-B). The cluster drives each core's functional executor until it
//! pauses at a router instruction, performs the ring exchange (all-gather
//! with core-id reordering, or the LM-head argmax reduction) and resumes
//! every core — data-accurate lockstep execution of the SPMD model.

use crate::error::SimError;
use dfx_core::{CoreEvent, CoreWeights, FunctionalCore};
use dfx_hw::{allgather_reorder, argmax_reduce};
use dfx_isa::{Instr, ParallelConfig, Program, ProgramBuilder};
use dfx_model::{GptConfig, GptWeights};
use dfx_num::F16;

/// A functionally simulated cluster of DFX cores.
pub struct FunctionalCluster {
    cores: Vec<FunctionalCore>,
    builders: Vec<ProgramBuilder>,
    cfg: GptConfig,
}

impl std::fmt::Debug for FunctionalCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FunctionalCluster")
            .field("cores", &self.cores.len())
            .field("model", &self.cfg.name)
            .finish()
    }
}

impl FunctionalCluster {
    /// Builds a cluster of `num_cores` cores holding partitions of
    /// `weights`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Partition`] if the model does not divide
    /// evenly across the cluster.
    pub fn new(weights: GptWeights<F16>, num_cores: usize) -> Result<Self, SimError> {
        let cfg = weights.config.clone();
        let builders = (0..num_cores)
            .map(|c| ProgramBuilder::new(cfg.clone(), ParallelConfig::new(c, num_cores)))
            .collect::<Result<_, _>>()
            .map_err(SimError::Partition)?;
        let cores = CoreWeights::partition_cluster(weights, num_cores)?
            .into_iter()
            .map(FunctionalCore::new)
            .collect();
        Ok(FunctionalCluster {
            cores,
            builders,
            cfg,
        })
    }

    /// Number of cores.
    pub fn num_cores(&self) -> usize {
        self.cores.len()
    }

    /// Clears every core's K/V cache and registers for a fresh request.
    /// The weight partitions stay where [`FunctionalCluster::new`] put
    /// them.
    ///
    /// # Errors
    ///
    /// None at present; the `Result` keeps callers' `?` stable.
    pub fn reset(&mut self) -> Result<(), SimError> {
        self.cores.iter_mut().for_each(FunctionalCore::reset);
        Ok(())
    }

    /// Runs one token step on every core; returns the generated token
    /// when `lm_head` is set.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::LockstepViolation`] if the homogeneous cores
    /// diverge (an internal invariant), and [`SimError::Exec`] if a core
    /// faults.
    pub fn run_step(
        &mut self,
        token: u32,
        pos: usize,
        lm_head: bool,
    ) -> Result<Option<u32>, SimError> {
        let programs: Vec<Program> = self
            .builders
            .iter()
            .map(|b| b.token_step(pos, lm_head))
            .collect();
        for core in &mut self.cores {
            core.begin_step(token);
        }

        let mut pcs = vec![0usize; self.cores.len()];
        loop {
            let mut events = Vec::with_capacity(self.cores.len());
            for (i, core) in self.cores.iter_mut().enumerate() {
                events.push(core.run(&programs[i], pcs[i])?);
            }

            match &events[0].1 {
                CoreEvent::Done => {
                    if !events.iter().all(|(_, e)| *e == CoreEvent::Done) {
                        return Err(SimError::LockstepViolation(
                            "cores finished at different points".into(),
                        ));
                    }
                    break;
                }
                CoreEvent::AllGather { instr_index, .. } => {
                    let idx = *instr_index;
                    let mut partials = Vec::with_capacity(self.cores.len());
                    for (i, (at, ev)) in events.into_iter().enumerate() {
                        match ev {
                            CoreEvent::AllGather {
                                instr_index,
                                partial,
                            } if at == idx => {
                                debug_assert_eq!(instr_index, idx);
                                partials.push(partial);
                            }
                            other => {
                                return Err(SimError::LockstepViolation(format!(
                                    "core {i} raised {other:?} while core 0 gathers at {idx}"
                                )))
                            }
                        }
                    }
                    let full = allgather_reorder(&partials);
                    for (i, core) in self.cores.iter_mut().enumerate() {
                        let Instr::Router(r) = &programs[i].instrs()[idx].instr else {
                            return Err(SimError::LockstepViolation(
                                "pause index is not a router instruction".into(),
                            ));
                        };
                        core.complete_allgather(r, &full)?;
                        pcs[i] = idx + 1;
                    }
                }
                CoreEvent::ArgMaxSync { instr_index, .. } => {
                    let idx = *instr_index;
                    let mut candidates = Vec::with_capacity(self.cores.len());
                    for (i, (_, ev)) in events.iter().enumerate() {
                        match ev {
                            CoreEvent::ArgMaxSync {
                                local_idx,
                                local_max,
                                ..
                            } => {
                                candidates.push((*local_idx, local_max.to_f64()));
                            }
                            other => {
                                return Err(SimError::LockstepViolation(format!(
                                    "core {i} raised {other:?} during argmax sync"
                                )))
                            }
                        }
                    }
                    let winner = argmax_reduce(&candidates);
                    let winner_max = candidates
                        .iter()
                        .find(|(i, _)| *i == winner)
                        .map(|(_, m)| *m)
                        .unwrap_or(f64::NEG_INFINITY);
                    for (i, core) in self.cores.iter_mut().enumerate() {
                        let Instr::Router(r) = &programs[i].instrs()[idx].instr else {
                            return Err(SimError::LockstepViolation(
                                "pause index is not a router instruction".into(),
                            ));
                        };
                        core.complete_argmax(r, winner, F16::from_f64(winner_max))?;
                        pcs[i] = idx + 1;
                    }
                }
            }
        }

        if lm_head {
            let tok = self.cores[0].out_token().ok_or_else(|| {
                SimError::LockstepViolation("LM-head step produced no token".into())
            })?;
            for (i, core) in self.cores.iter().enumerate() {
                if core.out_token() != Some(tok) {
                    return Err(SimError::LockstepViolation(format!(
                        "core {i} decoded {:?} but core 0 decoded {tok}",
                        core.out_token()
                    )));
                }
            }
            Ok(Some(tok))
        } else {
            Ok(None)
        }
    }

    /// End-to-end text generation: summarises the context token by token
    /// (paper Fig 1), then generates greedily.
    ///
    /// # Errors
    ///
    /// Returns an error on empty input, overlong sequences, or internal
    /// lockstep violations.
    pub fn generate(&mut self, input: &[u32], output_len: usize) -> Result<Vec<u32>, SimError> {
        if input.is_empty() {
            return Err(SimError::InvalidRequest(
                "context must contain at least one token".into(),
            ));
        }
        let max = self.cfg.max_seq_len;
        if input.len() + output_len > max {
            return Err(SimError::InvalidRequest(format!(
                "sequence of {} exceeds the model maximum {max}",
                input.len() + output_len
            )));
        }

        let mut out = Vec::with_capacity(output_len);
        let mut next = None;
        // Summarization stage: LM head only on the last context token.
        for (pos, &tok) in input.iter().enumerate() {
            let lm = pos + 1 == input.len() && output_len > 0;
            next = self.run_step(tok, pos, lm)?;
        }
        // Generation stage.
        let mut pos = input.len();
        while out.len() < output_len {
            let tok = next.ok_or_else(|| {
                SimError::LockstepViolation("generation step without a token".into())
            })?;
            out.push(tok);
            if out.len() == output_len {
                break;
            }
            next = self.run_step(tok, pos, true)?;
            pos += 1;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_model::{Gpt2Model, GptConfig};

    fn weights() -> GptWeights<F16> {
        GptWeights::synthetic(&GptConfig::tiny()).cast()
    }

    #[test]
    fn cluster_sizes_produce_identical_tokens() {
        // The headline functional property: 1-, and 2-core clusters
        // generate the same text (model parallelism is numerically
        // transparent at the token level).
        let input = [3u32, 1, 4, 1, 5];
        let mut reference_tokens = None;
        for cores in [1usize, 2] {
            let mut cluster = FunctionalCluster::new(weights(), cores).unwrap();
            let tokens = cluster.generate(&input, 5).unwrap();
            match &reference_tokens {
                None => reference_tokens = Some(tokens),
                Some(r) => assert_eq!(&tokens, r, "{cores}-core cluster diverged"),
            }
        }
    }

    #[test]
    fn cluster_matches_f16_reference_model() {
        let w = weights();
        let reference = Gpt2Model::new(w.clone());
        let input = [7u32, 8, 9, 10];
        let expect = reference.generate(&input, 4).tokens;
        let mut cluster = FunctionalCluster::new(w, 2).unwrap();
        let got = cluster.generate(&input, 4).unwrap();
        // The DFX datapath accumulates through MAC trees vs the
        // reference's sequential order, so logit ties can flip; on the
        // tiny model the argmax agrees.
        assert_eq!(got, expect);
    }

    #[test]
    fn reset_clears_context() {
        let mut cluster = FunctionalCluster::new(weights(), 2).unwrap();
        let a = cluster.generate(&[1, 2, 3], 3).unwrap();
        cluster.reset().unwrap();
        let b = cluster.generate(&[1, 2, 3], 3).unwrap();
        assert_eq!(a, b, "reset must make runs reproducible");
    }

    #[test]
    fn reset_cluster_generates_like_a_fresh_one() {
        // Four heads, so the model divides over 1, 2 and 4 cores.
        let w: GptWeights<F16> =
            GptWeights::synthetic(&GptConfig::new("four-head", 128, 4, 2, 256, 64)).cast();
        for cores in [1usize, 2, 4] {
            let mut used = FunctionalCluster::new(w.clone(), cores).unwrap();
            used.generate(&[9, 8, 7, 6], 3).unwrap();
            used.reset().unwrap();
            for input in [&[1u32, 2, 3][..], &[40, 41]] {
                let mut fresh = FunctionalCluster::new(w.clone(), cores).unwrap();
                let want = fresh.generate(input, 4).unwrap();
                assert_eq!(used.generate(input, 4).unwrap(), want, "{cores} cores");
                used.reset().unwrap();
            }
        }
    }

    /// FNV-1a over the bit patterns of `values`, folded into `hash`.
    fn fnv_bits(hash: u64, values: &[F16]) -> u64 {
        values.iter().fold(hash, |h, v| {
            v.to_bits()
                .to_le_bytes()
                .iter()
                .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
        })
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// Multi-step contexts for the bit pins: short, across the 16-wide
    /// tile edge and with repeated tokens.
    const PIN_CONTEXTS: [&[u32]; 3] = [
        &[3, 1, 4, 1, 5],
        &[
            17, 250, 9, 9, 301, 42, 7, 88, 123, 5, 64, 500, 2, 77, 19, 260, 31, 8,
        ],
        &[511, 0, 128, 255, 256, 1, 383],
    ];

    /// The configurations the bit pins cover and the cluster sizes each
    /// divides over.
    fn pin_configs() -> [(GptConfig, &'static [usize]); 2] {
        [(GptConfig::tiny(), &[1, 2]), (GptConfig::small(), &[1, 3])]
    }

    /// The FP16 reference model's logit vector at every position of every
    /// pinned context, hashed bit for bit. Agreement rates read 100% on
    /// these models, so only a pin like this shows a flipped bit in the
    /// reference's vector-matrix and attention kernels.
    #[test]
    fn fp16_reference_logits_are_bit_pinned() {
        let want = [0xfa0d_6b9d_dc5a_9c12_u64, 0xd768_3cb5_abc3_05a3];
        for ((cfg, _), want) in pin_configs().into_iter().zip(want) {
            let model = Gpt2Model::new(GptWeights::synthetic(&cfg).cast::<F16>());
            let mut hash = FNV_OFFSET;
            for context in PIN_CONTEXTS {
                let mut cache = dfx_model::KvCache::new(cfg.num_layers);
                for (pos, &tok) in context.iter().enumerate() {
                    let hidden = model.forward_token(tok, pos, &mut cache);
                    hash = fnv_bits(hash, &model.logits(&hidden));
                }
            }
            assert_eq!(hash, want, "{}: {hash:#018x}", cfg.name);
        }
    }

    /// Every core's final hidden state (`LM_HIDDEN`) and logit partial
    /// (`LOGITS`) after every LM-head step of every pinned context,
    /// hashed bit for bit: the executor's MAC trees and block
    /// accumulation must not move a bit.
    #[test]
    fn functional_core_hidden_state_is_bit_pinned() {
        let want: [&[u64]; 2] = [
            &[0xc542_4a91_f523_3012, 0x55fd_b1ea_347e_be58],
            &[0x7f13_cfd7_3853_6d1d, 0x57ca_9f10_ed9b_fc61],
        ];
        for ((cfg, sizes), want) in pin_configs().into_iter().zip(want) {
            let w: GptWeights<F16> = GptWeights::synthetic(&cfg).cast();
            for (&cores, &want) in sizes.iter().zip(want) {
                let mut cluster = FunctionalCluster::new(w.clone(), cores).unwrap();
                let mut hash = FNV_OFFSET;
                for context in PIN_CONTEXTS {
                    cluster.reset().unwrap();
                    for (pos, &tok) in context.iter().enumerate() {
                        cluster.run_step(tok, pos, true).unwrap();
                        for core in &cluster.cores {
                            hash = fnv_bits(hash, core.vreg(dfx_isa::regs::LM_HIDDEN));
                            hash = fnv_bits(hash, core.vreg(dfx_isa::regs::LOGITS));
                        }
                    }
                }
                assert_eq!(hash, want, "{} on {cores} cores: {hash:#018x}", cfg.name);
            }
        }
    }

    #[test]
    fn indivisible_partition_is_an_error() {
        let err = FunctionalCluster::new(weights(), 3).unwrap_err();
        assert!(matches!(err, SimError::Partition(_)));
    }

    #[test]
    fn empty_input_is_rejected() {
        let mut cluster = FunctionalCluster::new(weights(), 1).unwrap();
        assert!(matches!(
            cluster.generate(&[], 2),
            Err(SimError::InvalidRequest(_))
        ));
    }

    #[test]
    fn overlong_request_is_rejected() {
        let mut cluster = FunctionalCluster::new(weights(), 1).unwrap();
        let ctx: Vec<u32> = (0..100).collect();
        assert!(matches!(
            cluster.generate(&ctx, 100),
            Err(SimError::InvalidRequest(_))
        ));
    }
}
