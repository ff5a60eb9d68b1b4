//! Symbolic references to tensors in device memory.
//!
//! DFX instructions address off-chip data through the DMA. In hardware the
//! controller derives HBM/DDR addresses from the layer number and a memory
//! map; the simulator keeps the reference symbolic (layer + tensor kind)
//! and resolves byte addresses through [`MemoryMap`], which mirrors the
//! paper's placement policy (§IV-B): weight matrices and the growing
//! K/V cache in HBM, biases, LayerNorm parameters, embeddings and token
//! I/O in DDR.

use serde::{Deserialize, Serialize};

/// Weight matrices streamed from HBM by matrix instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum WeightKind {
    /// Query projection (head-wise partition).
    Query,
    /// Key projection (head-wise partition).
    Key,
    /// Value projection (head-wise partition).
    Value,
    /// Attention output projection (column-wise partition).
    AttnProj,
    /// FFN up projection (column-wise partition).
    Ffn1,
    /// FFN down projection (column-wise partition).
    Ffn2,
    /// LM head (WTEᵀ, vocabulary-partitioned).
    LmHead,
}

impl WeightKind {
    /// Short mnemonic used by the disassembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            WeightKind::Query => "wq",
            WeightKind::Key => "wk",
            WeightKind::Value => "wv",
            WeightKind::AttnProj => "wa",
            WeightKind::Ffn1 => "wf1",
            WeightKind::Ffn2 => "wf2",
            WeightKind::LmHead => "wte_t",
        }
    }

    /// All weight kinds, in stream order.
    pub const ALL: [WeightKind; 7] = [
        WeightKind::Query,
        WeightKind::Key,
        WeightKind::Value,
        WeightKind::AttnProj,
        WeightKind::Ffn1,
        WeightKind::Ffn2,
        WeightKind::LmHead,
    ];
}

/// Which half of the cached attention context a reference names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum KvKind {
    /// Cached keys (read as Kᵀ by `MaskedMM`).
    Key,
    /// Cached values (stored pre-transposed by the DMA transpose unit).
    Value,
}

/// Embedding tables resident in DDR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EmbedTable {
    /// Word token embedding.
    Wte,
    /// Word position embedding.
    Wpe,
}

/// LayerNorm parameter selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum LnParam {
    /// γ of the pre-attention norm.
    Ln1Gamma,
    /// β of the pre-attention norm.
    Ln1Beta,
    /// γ of the pre-FFN norm.
    Ln2Gamma,
    /// β of the pre-FFN norm.
    Ln2Beta,
    /// γ of the final norm.
    LnFGamma,
    /// β of the final norm.
    LnFBeta,
}

/// A symbolic reference to one tensor in device memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TensorRef {
    /// A (per-core partition of a) weight matrix in HBM.
    Weight {
        /// Decoder layer index (ignored for `LmHead`).
        layer: u16,
        /// Which matrix.
        kind: WeightKind,
    },
    /// A bias vector partition in DDR.
    Bias {
        /// Decoder layer index.
        layer: u16,
        /// The projection the bias belongs to (LmHead has no bias).
        kind: WeightKind,
    },
    /// LayerNorm γ/β in DDR.
    Ln {
        /// Decoder layer index (ignored for the final norm).
        layer: u16,
        /// Which parameter vector.
        param: LnParam,
    },
    /// One head's K or V cache region in HBM.
    Kv {
        /// Decoder layer index.
        layer: u16,
        /// Head index *local to this core* (0..heads_per_core).
        head: u16,
        /// Keys or values.
        kind: KvKind,
    },
    /// One row of an embedding table in DDR.
    Embed {
        /// WTE or WPE.
        table: EmbedTable,
    },
    /// The token I/O buffer in DDR.
    TokenIo,
}

impl std::fmt::Display for TensorRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorRef::Weight { layer, kind } => write!(f, "hbm:{}[L{layer}]", kind.mnemonic()),
            TensorRef::Bias { layer, kind } => write!(f, "ddr:b_{}[L{layer}]", kind.mnemonic()),
            TensorRef::Ln { layer, param } => write!(f, "ddr:{param:?}[L{layer}]"),
            TensorRef::Kv { layer, head, kind } => {
                let k = match kind {
                    KvKind::Key => "K",
                    KvKind::Value => "V",
                };
                write!(f, "hbm:{k}[L{layer}.h{head}]")
            }
            TensorRef::Embed { table } => write!(f, "ddr:{table:?}"),
            TensorRef::TokenIo => write!(f, "ddr:token_io"),
        }
    }
}

/// Byte placement of every tensor on one core's HBM and DDR, mirroring the
/// paper's memory mapping. Addresses are deterministic functions of the
/// model geometry so all cores share one map for their own partitions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemoryMap {
    /// Per-layer bytes reserved for each weight partition kind, in
    /// [`WeightKind::ALL`] order (LmHead stored once after all layers).
    weight_bytes: [u64; 7],
    /// Bytes reserved per head per KV kind (max_seq × head_dim × 2).
    kv_region_bytes: u64,
    /// Number of decoder layers.
    layers: u64,
    /// Local heads per core.
    heads: u64,
}

impl MemoryMap {
    /// Builds the map for one core's partition.
    pub fn new(
        layers: usize,
        heads_per_core: usize,
        weight_bytes: [u64; 7],
        kv_region_bytes: u64,
    ) -> Self {
        MemoryMap {
            weight_bytes,
            kv_region_bytes,
            layers: layers as u64,
            heads: heads_per_core as u64,
        }
    }

    /// Builds the map for one core of a model partitioned across a
    /// cluster (FP16 storage; KV regions reserved for the model's maximum
    /// sequence length).
    pub fn for_model(cfg: &dfx_model::GptConfig, par: crate::builder::ParallelConfig) -> Self {
        let e = cfg.embedding_dim as u64;
        let part = par.emb_part(cfg) as u64;
        let ffn_part = par.ffn_part(cfg) as u64;
        let (v0, v1) = par.vocab_range(cfg);
        let weight_bytes = [
            e * part * 2,                  // Query
            e * part * 2,                  // Key
            e * part * 2,                  // Value
            e * part * 2,                  // AttnProj
            e * ffn_part * 2,              // Ffn1
            cfg.ffn_dim as u64 * part * 2, // Ffn2
            e * (v1 - v0) as u64 * 2,      // LmHead
        ];
        let kv_region_bytes = cfg.max_seq_len as u64 * cfg.head_dim() as u64 * 2;
        MemoryMap::new(
            cfg.num_layers,
            par.heads_per_core(cfg),
            weight_bytes,
            kv_region_bytes,
        )
    }

    fn layer_weight_stride(&self) -> u64 {
        // Per-layer kinds only (LmHead excluded from the stride).
        self.weight_bytes[..6].iter().sum()
    }

    /// HBM byte address of a weight or KV tensor, or `None` for a
    /// reference that is not HBM-resident (DDR vectors, token I/O).
    pub fn hbm_addr(&self, tensor: TensorRef) -> Option<u64> {
        match tensor {
            TensorRef::Weight {
                kind: WeightKind::LmHead,
                ..
            } => Some(self.layer_weight_stride() * self.layers),
            TensorRef::Weight { layer, kind } => {
                let prior: u64 = self.weight_bytes[..kind as usize].iter().sum();
                Some(u64::from(layer) * self.layer_weight_stride() + prior)
            }
            TensorRef::Kv { layer, head, kind } => {
                let weights_end = self.layer_weight_stride() * self.layers + self.weight_bytes[6];
                let per_layer = self.kv_region_bytes * self.heads * 2;
                let kv_off = match kind {
                    KvKind::Key => 0,
                    KvKind::Value => self.kv_region_bytes * self.heads,
                };
                Some(
                    weights_end
                        + u64::from(layer) * per_layer
                        + kv_off
                        + u64::from(head) * self.kv_region_bytes,
                )
            }
            _ => None,
        }
    }

    /// Total HBM bytes the map occupies (weights + fully grown KV).
    pub fn hbm_footprint(&self) -> u64 {
        self.weight_footprint() + self.kv_region_bytes * self.heads * 2 * self.layers
    }

    /// HBM bytes of the resident weight shard alone (all layers plus the
    /// LM head) — the always-resident part of the footprint, next to
    /// which the per-request K/V caches must fit.
    pub fn weight_footprint(&self) -> u64 {
        self.layer_weight_stride() * self.layers + self.weight_bytes[6]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map() -> MemoryMap {
        // 2 layers, 2 local heads, toy sizes.
        MemoryMap::new(2, 2, [100, 100, 100, 100, 400, 400, 1000], 64)
    }

    #[test]
    fn weight_addresses_are_disjoint_and_ordered() {
        let map = sample_map();
        let q0 = map.hbm_addr(TensorRef::Weight {
            layer: 0,
            kind: WeightKind::Query,
        });
        let k0 = map.hbm_addr(TensorRef::Weight {
            layer: 0,
            kind: WeightKind::Key,
        });
        let q1 = map.hbm_addr(TensorRef::Weight {
            layer: 1,
            kind: WeightKind::Query,
        });
        assert_eq!(q0, Some(0));
        assert_eq!(k0, Some(100));
        assert_eq!(q1, Some(1200));
    }

    #[test]
    fn lm_head_follows_all_layers() {
        let map = sample_map();
        let lm = map.hbm_addr(TensorRef::Weight {
            layer: 0,
            kind: WeightKind::LmHead,
        });
        assert_eq!(lm, Some(2400));
    }

    #[test]
    fn kv_regions_follow_weights_and_do_not_overlap() {
        let map = sample_map();
        let base = 2400 + 1000;
        let k_l0_h0 = map.hbm_addr(TensorRef::Kv {
            layer: 0,
            head: 0,
            kind: KvKind::Key,
        });
        let k_l0_h1 = map.hbm_addr(TensorRef::Kv {
            layer: 0,
            head: 1,
            kind: KvKind::Key,
        });
        let v_l0_h0 = map.hbm_addr(TensorRef::Kv {
            layer: 0,
            head: 0,
            kind: KvKind::Value,
        });
        let k_l1_h0 = map.hbm_addr(TensorRef::Kv {
            layer: 1,
            head: 0,
            kind: KvKind::Key,
        });
        assert_eq!(k_l0_h0, Some(base));
        assert_eq!(k_l0_h1, Some(base + 64));
        assert_eq!(v_l0_h0, Some(base + 128));
        assert_eq!(k_l1_h0, Some(base + 256));
        assert_eq!(map.hbm_footprint(), 2400 + 1000 + 512);
        assert_eq!(map.weight_footprint(), 2400 + 1000);
    }

    #[test]
    fn ddr_tensor_has_no_hbm_address() {
        let map = sample_map();
        assert!(map.hbm_addr(TensorRef::TokenIo).is_none());
    }

    #[test]
    fn display_forms_are_readable() {
        let t = TensorRef::Weight {
            layer: 3,
            kind: WeightKind::Ffn1,
        };
        assert_eq!(t.to_string(), "hbm:wf1[L3]");
        let kv = TensorRef::Kv {
            layer: 1,
            head: 2,
            kind: KvKind::Value,
        };
        assert_eq!(kv.to_string(), "hbm:V[L1.h2]");
    }
}
