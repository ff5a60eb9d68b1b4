//! Per-core weight partitions (paper Fig 6).
//!
//! The model partitioner slices the full GPT-2 parameter set for one
//! core: attention projections head-wise (contiguous column ranges, since
//! a head's columns are contiguous), FC/FFN matrices column-wise, and the
//! LM head by vocabulary range. LayerNorm parameters, embeddings and the
//! full-width FFN2 input rows are replicated on every core — exactly the
//! data the paper stores per-FPGA in DDR/HBM.

use crate::error::ExecError;
use dfx_isa::{KvKind, LnParam, ParallelConfig, TensorRef, WeightKind};
use dfx_model::{GptConfig, GptWeights, Matrix};
use dfx_num::F16;

/// A weight partition stored column-major, the order the MAC trees
/// stream it: column `c`, the weights feeding output `c`, is contiguous.
/// Indexing by `(row, col)` addresses the logical `(in, out)` matrix.
#[derive(Debug, Clone)]
pub struct ColumnMatrix {
    rows: usize,
    cols: usize,
    data: Vec<F16>,
}

impl ColumnMatrix {
    /// The columns `c0..c1` of `m`.
    fn col_slice(m: &Matrix<F16>, c0: usize, c1: usize) -> Self {
        let (rows, cols) = (m.rows(), c1 - c0);
        let mut data = vec![F16::ZERO; rows * cols];
        for r in 0..rows {
            for (c, &x) in m.row(r)[c0..c1].iter().enumerate() {
                data[c * rows + r] = x;
            }
        }
        ColumnMatrix { rows, cols, data }
    }

    /// Number of rows (the input length).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (the output length).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Every column, in output order.
    pub fn columns(&self) -> std::slice::ChunksExact<'_, F16> {
        self.data.chunks_exact(self.rows.max(1))
    }
}

impl std::ops::Index<(usize, usize)> for ColumnMatrix {
    type Output = F16;
    fn index(&self, (r, c): (usize, usize)) -> &F16 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[c * self.rows + r]
    }
}

/// One decoder layer's partition for a single core.
#[derive(Debug, Clone)]
pub struct CoreLayerWeights {
    /// Q projection slice, `(emb, part)`.
    pub w_q: ColumnMatrix,
    /// Q bias slice.
    pub b_q: Vec<F16>,
    /// K projection slice.
    pub w_k: ColumnMatrix,
    /// K bias slice.
    pub b_k: Vec<F16>,
    /// V projection slice.
    pub w_v: ColumnMatrix,
    /// V bias slice.
    pub b_v: Vec<F16>,
    /// Output projection slice, `(emb, part)`.
    pub w_attn_proj: ColumnMatrix,
    /// Output projection bias slice.
    pub b_attn_proj: Vec<F16>,
    /// FFN up slice, `(emb, ffn_part)`.
    pub w_ffn1: ColumnMatrix,
    /// FFN up bias slice.
    pub b_ffn1: Vec<F16>,
    /// FFN down slice, `(ffn, part)` — full rows, sliced columns.
    pub w_ffn2: ColumnMatrix,
    /// FFN down bias slice.
    pub b_ffn2: Vec<F16>,
    /// LayerNorm 1 γ (replicated).
    pub ln1_gamma: Vec<F16>,
    /// LayerNorm 1 β (replicated).
    pub ln1_beta: Vec<F16>,
    /// LayerNorm 2 γ (replicated).
    pub ln2_gamma: Vec<F16>,
    /// LayerNorm 2 β (replicated).
    pub ln2_beta: Vec<F16>,
}

/// All weights resident on one core.
#[derive(Debug, Clone)]
pub struct CoreWeights {
    /// Model configuration.
    pub cfg: GptConfig,
    /// This core's placement.
    pub par: ParallelConfig,
    /// Per-layer partitions.
    pub layers: Vec<CoreLayerWeights>,
    /// Full WTE (DDR-resident; used row-wise for embedding).
    pub wte: Matrix<F16>,
    /// Full WPE.
    pub wpe: Matrix<F16>,
    /// LM head slice: WTEᵀ columns for this core's vocabulary range,
    /// `(emb, vocab_part)`.
    pub lm_head: ColumnMatrix,
    /// First vocabulary id of this core's LM-head slice.
    pub vocab_offset: u32,
    /// Final LayerNorm γ.
    pub ln_f_gamma: Vec<F16>,
    /// Final LayerNorm β.
    pub ln_f_beta: Vec<F16>,
}

impl CoreWeights {
    /// Partitions `weights` for the core at `par`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Partition`] if the model does not divide
    /// evenly over the cluster.
    pub fn partition(weights: &GptWeights<F16>, par: ParallelConfig) -> Result<Self, ExecError> {
        let cfg = weights.config.clone();
        par.check(&cfg).map_err(ExecError::Partition)?;
        let part = par.emb_part(&cfg);
        let ffn_part = par.ffn_part(&cfg);
        let c0 = par.core_id * part;
        let c1 = c0 + part;
        let f0 = par.core_id * ffn_part;
        let f1 = f0 + ffn_part;
        let cols = |m: &Matrix<F16>| ColumnMatrix::col_slice(m, c0, c1);

        let layers = weights
            .layers
            .iter()
            .map(|lw| CoreLayerWeights {
                w_q: cols(&lw.w_q),
                b_q: lw.b_q[c0..c1].to_vec(),
                w_k: cols(&lw.w_k),
                b_k: lw.b_k[c0..c1].to_vec(),
                w_v: cols(&lw.w_v),
                b_v: lw.b_v[c0..c1].to_vec(),
                w_attn_proj: cols(&lw.w_attn_proj),
                b_attn_proj: lw.b_attn_proj[c0..c1].to_vec(),
                w_ffn1: ColumnMatrix::col_slice(&lw.w_ffn1, f0, f1),
                b_ffn1: lw.b_ffn1[f0..f1].to_vec(),
                w_ffn2: cols(&lw.w_ffn2),
                b_ffn2: lw.b_ffn2[c0..c1].to_vec(),
                ln1_gamma: lw.ln1_gamma.clone(),
                ln1_beta: lw.ln1_beta.clone(),
                ln2_gamma: lw.ln2_gamma.clone(),
                ln2_beta: lw.ln2_beta.clone(),
            })
            .collect();

        let (v0, v1) = par.vocab_range(&cfg);
        // LM head = WTEᵀ: column v of the head is WTE row v, so the
        // column-major slice is WTE's rows v0..v1 as stored.
        let emb = cfg.embedding_dim;
        let lm_head = ColumnMatrix {
            rows: emb,
            cols: v1 - v0,
            data: weights.wte.as_slice()[v0 * emb..v1 * emb].to_vec(),
        };

        Ok(CoreWeights {
            cfg,
            par,
            layers,
            wte: weights.wte.clone(),
            wpe: weights.wpe.clone(),
            lm_head,
            vocab_offset: v0 as u32,
            ln_f_gamma: weights.ln_f_gamma.clone(),
            ln_f_beta: weights.ln_f_beta.clone(),
        })
    }

    fn layer(&self, layer: u16) -> Result<&CoreLayerWeights, ExecError> {
        self.layers
            .get(usize::from(layer))
            .ok_or_else(|| ExecError::OutOfRange(format!("layer {layer}")))
    }

    /// Resolves a weight reference to the matrix streamed by a matrix
    /// instruction (K/V cache references are resolved by the executor's
    /// KV store instead).
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WrongTensor`] on K/V or non-weight references.
    pub fn weight_matrix(&self, tensor: TensorRef) -> Result<&ColumnMatrix, ExecError> {
        match tensor {
            TensorRef::Weight { layer, kind } => Ok(match kind {
                WeightKind::Query => &self.layer(layer)?.w_q,
                WeightKind::Key => &self.layer(layer)?.w_k,
                WeightKind::Value => &self.layer(layer)?.w_v,
                WeightKind::AttnProj => &self.layer(layer)?.w_attn_proj,
                WeightKind::Ffn1 => &self.layer(layer)?.w_ffn1,
                WeightKind::Ffn2 => &self.layer(layer)?.w_ffn2,
                WeightKind::LmHead => &self.lm_head,
            }),
            other => Err(ExecError::WrongTensor {
                tensor: other,
                expected: "weight matrix",
            }),
        }
    }

    /// Resolves a bias reference.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WrongTensor`] on non-bias references and the
    /// (bias-less) LM head.
    pub fn bias(&self, tensor: TensorRef) -> Result<&[F16], ExecError> {
        match tensor {
            TensorRef::Bias { layer, kind } => Ok(match kind {
                WeightKind::Query => &self.layer(layer)?.b_q,
                WeightKind::Key => &self.layer(layer)?.b_k,
                WeightKind::Value => &self.layer(layer)?.b_v,
                WeightKind::AttnProj => &self.layer(layer)?.b_attn_proj,
                WeightKind::Ffn1 => &self.layer(layer)?.b_ffn1,
                WeightKind::Ffn2 => &self.layer(layer)?.b_ffn2,
                WeightKind::LmHead => {
                    return Err(ExecError::WrongTensor {
                        tensor,
                        expected: "bias vector (the LM head has none)",
                    })
                }
            }),
            other => Err(ExecError::WrongTensor {
                tensor: other,
                expected: "bias vector",
            }),
        }
    }

    /// Resolves a LayerNorm parameter vector.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WrongTensor`] on non-LayerNorm references.
    pub fn ln_param(&self, tensor: TensorRef) -> Result<&[F16], ExecError> {
        match tensor {
            TensorRef::Ln { layer, param } => Ok(match param {
                LnParam::Ln1Gamma => &self.layer(layer)?.ln1_gamma,
                LnParam::Ln1Beta => &self.layer(layer)?.ln1_beta,
                LnParam::Ln2Gamma => &self.layer(layer)?.ln2_gamma,
                LnParam::Ln2Beta => &self.layer(layer)?.ln2_beta,
                LnParam::LnFGamma => &self.ln_f_gamma,
                LnParam::LnFBeta => &self.ln_f_beta,
            }),
            other => Err(ExecError::WrongTensor {
                tensor: other,
                expected: "LayerNorm parameter",
            }),
        }
    }
}

/// Growable per-head K/V cache with hardware layout: K row-major
/// (`t × dh`), V *transposed* (`dh × t`) as written by the DMA transpose
/// unit (paper §V-B), so the `Score × Value` read streams rows.
#[derive(Debug, Clone, Default)]
pub struct HeadKv {
    /// Keys: one row per cached token.
    pub keys: Vec<Vec<F16>>,
    /// Values, transposed: `values_t[c][j]` = `V[j][c]`.
    pub values_t: Vec<Vec<F16>>,
}

impl HeadKv {
    /// Creates an empty cache for `head_dim`-wide rows.
    pub fn new(head_dim: usize) -> Self {
        HeadKv {
            keys: Vec::new(),
            values_t: vec![Vec::new(); head_dim],
        }
    }

    /// Cached context length.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no token has been cached.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Appends one K row.
    pub fn push_key(&mut self, row: &[F16]) {
        self.keys.push(row.to_vec());
    }

    /// Appends one V row through the transpose layout.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] if `row.len()` differs from the head
    /// dimension.
    pub fn push_value(&mut self, row: &[F16]) -> Result<(), ExecError> {
        if row.len() != self.values_t.len() {
            return Err(ExecError::Shape(format!(
                "V row of {} elements for a {}-wide head",
                row.len(),
                self.values_t.len()
            )));
        }
        for (col, &x) in self.values_t.iter_mut().zip(row) {
            col.push(x);
        }
        Ok(())
    }

    /// Forgets every cached token, keeping the allocations.
    pub fn clear(&mut self) {
        self.keys.clear();
        for col in &mut self.values_t {
            col.clear();
        }
    }
}

/// The K/V store of one core: `[layer][local_head]`.
#[derive(Debug, Clone)]
pub struct KvStore {
    heads: Vec<Vec<HeadKv>>,
}

impl KvStore {
    /// Creates an empty store.
    pub fn new(layers: usize, heads_per_core: usize, head_dim: usize) -> Self {
        KvStore {
            heads: (0..layers)
                .map(|_| (0..heads_per_core).map(|_| HeadKv::new(head_dim)).collect())
                .collect(),
        }
    }

    /// Borrow one head's cache.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::OutOfRange`] past the store's layers or heads.
    pub fn head(&self, layer: u16, head: u16) -> Result<&HeadKv, ExecError> {
        self.heads
            .get(usize::from(layer))
            .and_then(|l| l.get(usize::from(head)))
            .ok_or_else(|| ExecError::OutOfRange(format!("K/V head {head} of layer {layer}")))
    }

    /// Mutably borrow one head's cache.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::OutOfRange`] past the store's layers or heads.
    pub fn head_mut(&mut self, layer: u16, head: u16) -> Result<&mut HeadKv, ExecError> {
        self.heads
            .get_mut(usize::from(layer))
            .and_then(|l| l.get_mut(usize::from(head)))
            .ok_or_else(|| ExecError::OutOfRange(format!("K/V head {head} of layer {layer}")))
    }

    /// Context length (tokens cached so far).
    pub fn context_len(&self) -> usize {
        self.heads
            .first()
            .and_then(|l| l.first())
            .map_or(0, HeadKv::len)
    }

    /// Forgets every cached token (a fresh request), keeping the
    /// allocations.
    pub fn clear(&mut self) {
        self.heads.iter_mut().flatten().for_each(HeadKv::clear);
    }

    /// Resolves a KV tensor reference for reading, as the columns the
    /// matrix unit streams, borrowed in place. For keys the streamed
    /// matrix is `Kᵀ` (`dh × t`), whose column `j` is key row `j`; for
    /// values it is `V` (`t × dh`), whose column `c` is row `c` of the
    /// transposed layout.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WrongTensor`] on non-KV references.
    pub fn stream_columns(&self, tensor: TensorRef) -> Result<&[Vec<F16>], ExecError> {
        match tensor {
            TensorRef::Kv { layer, head, kind } => {
                let hkv = self.head(layer, head)?;
                Ok(match kind {
                    KvKind::Key => &hkv.keys,
                    KvKind::Value => &hkv.values_t,
                })
            }
            other => Err(ExecError::WrongTensor {
                tensor: other,
                expected: "K/V reference",
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dfx_model::Gpt2Model;

    fn weights16() -> GptWeights<F16> {
        GptWeights::synthetic(&GptConfig::tiny()).cast()
    }

    #[test]
    fn partitions_tile_the_full_matrices() {
        let w = weights16();
        let cfg = &w.config;
        let parts: Vec<CoreWeights> = (0..2)
            .map(|c| CoreWeights::partition(&w, ParallelConfig::new(c, 2)).unwrap())
            .collect();
        // Column ranges reassemble w_q.
        for r in 0..cfg.embedding_dim {
            for c in 0..cfg.embedding_dim {
                let part = cfg.embedding_dim / 2;
                let got = parts[c / part].layers[0].w_q[(r, c % part)];
                assert_eq!(got.to_bits(), w.layers[0].w_q[(r, c)].to_bits());
            }
        }
    }

    #[test]
    fn ffn2_keeps_full_rows() {
        let w = weights16();
        let p = CoreWeights::partition(&w, ParallelConfig::new(0, 2)).unwrap();
        assert_eq!(p.layers[0].w_ffn2.rows(), w.config.ffn_dim);
        assert_eq!(p.layers[0].w_ffn2.cols(), w.config.embedding_dim / 2);
    }

    #[test]
    fn lm_head_is_wte_transposed_slice() {
        let w = weights16();
        let p = CoreWeights::partition(&w, ParallelConfig::new(1, 2)).unwrap();
        let (v0, _) = p.par.vocab_range(&p.cfg);
        assert_eq!(p.vocab_offset as usize, v0);
        for r in [0usize, 5, 63] {
            for c in [0usize, 3, 7] {
                assert_eq!(p.lm_head[(r, c)].to_bits(), w.wte[(v0 + c, r)].to_bits());
            }
        }
    }

    #[test]
    fn column_matrix_columns_are_the_logical_columns() {
        let w = weights16();
        let p = CoreWeights::partition(&w, ParallelConfig::new(0, 1)).unwrap();
        let w_q = &p.layers[0].w_q;
        assert_eq!(w_q.columns().len(), w_q.cols());
        for (c, col) in w_q.columns().enumerate() {
            assert_eq!(col.len(), w_q.rows());
            for (r, x) in col.iter().enumerate() {
                assert_eq!(x.to_bits(), w.layers[0].w_q[(r, c)].to_bits());
            }
        }
    }

    #[test]
    fn indivisible_partition_is_an_error() {
        let w = weights16();
        let err = CoreWeights::partition(&w, ParallelConfig::new(0, 3)).unwrap_err();
        assert!(matches!(err, ExecError::Partition(_)));
    }

    #[test]
    fn single_core_partition_is_identity() {
        let w = weights16();
        let p = CoreWeights::partition(&w, ParallelConfig::new(0, 1)).unwrap();
        assert_eq!(p.layers[0].w_q.shape(), w.layers[0].w_q.shape());
        assert_eq!(p.lm_head.cols(), w.config.vocab_size);
    }

    #[test]
    fn head_kv_transpose_roundtrip() {
        let mut kv = HeadKv::new(4);
        let row1: Vec<F16> = (0..4).map(|i| F16::from_f32(i as f32)).collect();
        let row2: Vec<F16> = (0..4).map(|i| F16::from_f32(10.0 + i as f32)).collect();
        kv.push_key(&row1);
        kv.push_value(&row1).unwrap();
        kv.push_key(&row2);
        kv.push_value(&row2).unwrap();
        assert_eq!(kv.len(), 2);
        // values_t[c][j] = V[j][c]
        assert_eq!(kv.values_t[3][1].to_f32(), 13.0);
    }

    #[test]
    fn kv_stream_matrices_have_hardware_shapes() {
        let mut store = KvStore::new(1, 1, 4);
        let r: Vec<F16> = (0..4).map(|i| F16::from_f32(i as f32)).collect();
        for _ in 0..2 {
            let head = store.head_mut(0, 0).unwrap();
            head.push_key(&r);
            head.push_value(&r).unwrap();
        }
        // Kᵀ is dh x t: t columns of dh rows.
        let kt = store
            .stream_columns(TensorRef::Kv {
                layer: 0,
                head: 0,
                kind: KvKind::Key,
            })
            .unwrap();
        assert_eq!((kt[0].len(), kt.len()), (4, 2));
        // V is t x dh: dh columns of t rows; V[1][2] is column 2, row 1.
        let v = store
            .stream_columns(TensorRef::Kv {
                layer: 0,
                head: 0,
                kind: KvKind::Value,
            })
            .unwrap();
        assert_eq!((v[0].len(), v.len()), (2, 4));
        assert_eq!(v[2][1].to_f32(), 2.0);
        store.clear();
        assert_eq!(store.context_len(), 0);
    }

    #[test]
    fn partitioned_lm_head_matches_reference_logits() {
        // Concatenating per-core logits equals the reference logits.
        let w32 = GptWeights::synthetic(&GptConfig::tiny());
        let w = w32.cast::<F16>();
        let model = Gpt2Model::new(w.clone());
        let hidden: Vec<F16> = (0..w.config.embedding_dim)
            .map(|i| F16::from_f32((i as f32 * 0.01).sin()))
            .collect();
        let reference = model.logits(&hidden);
        let mut stitched: Vec<F16> = Vec::new();
        for c in 0..2 {
            let p = CoreWeights::partition(&w, ParallelConfig::new(c, 2)).unwrap();
            stitched.extend(p.lm_head.columns().map(|col| dfx_model::dot(&hidden, col)));
        }
        assert_eq!(stitched.len(), reference.len());
        for (a, b) in stitched.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "logit mismatch");
        }
    }
}
