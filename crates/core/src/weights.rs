//! Per-core weight partitions (paper Fig 6).
//!
//! The model partitioner slices the full GPT-2 parameter set for every
//! core of a cluster: attention projections head-wise (contiguous column
//! ranges, since a head's columns are contiguous), FC/FFN matrices
//! column-wise, and the LM head by vocabulary range. LayerNorm
//! parameters, embeddings and the full-width FFN2 input rows are
//! replicated on every core — exactly the data the paper stores per-FPGA
//! in DDR/HBM. The simulated cores of one cluster read a single copy of
//! the embedding tables, which no core writes.

use crate::error::ExecError;
use dfx_isa::{KvKind, LnParam, ParallelConfig, TensorRef, WeightKind};
use dfx_model::{GptConfig, GptWeights, LayerWeights, Matrix};
use dfx_num::reduce::LANES;
use dfx_num::F16;
use std::sync::Arc;

/// A matrix held as the MPU's `l` MAC trees stream it (paper §V-B): its
/// output columns in groups of [`LANES`], each group one `rows × l` tile
/// of `[f32; LANES]` rows, where lane `l` of row `r` is the weight that
/// input `r` feeds into output `LANES·g + l`. Every element is widened
/// from FP16 once, as it is stored; lanes past the last column hold +0.
#[derive(Debug, Clone)]
pub struct LaneTiles {
    rows: usize,
    cols: usize,
    /// The `cols.div_ceil(LANES)` tiles, in column order.
    groups: Vec<Vec<[f32; LANES]>>,
}

impl LaneTiles {
    /// An empty `rows × cols` matrix with at least one dimension 0, to
    /// grow by [`LaneTiles::push_row`] (`rows == 0`) or by
    /// [`LaneTiles::push_column`] (`cols == 0`).
    fn new(rows: usize, cols: usize) -> Self {
        debug_assert!(rows == 0 || cols == 0, "{rows} x {cols} is not empty");
        LaneTiles {
            rows,
            cols,
            groups: vec![Vec::new(); cols.div_ceil(LANES)],
        }
    }

    /// The columns `c0..c1` of `m`.
    pub(crate) fn col_slice(m: &Matrix<F16>, c0: usize, c1: usize) -> Self {
        let mut tiles = LaneTiles::new(0, c1 - c0);
        tiles
            .groups
            .iter_mut()
            .for_each(|g| g.reserve_exact(m.rows()));
        for r in 0..m.rows() {
            tiles.push_row(&m.row(r)[c0..c1]);
        }
        tiles
    }

    /// The rows `r0..r1` of `m`, transposed: column `c` is row `r0 + c`.
    pub(crate) fn transposed_rows(m: &Matrix<F16>, r0: usize, r1: usize) -> Self {
        let mut tiles = LaneTiles::new(m.cols(), 0);
        for r in r0..r1 {
            tiles.push_column(m.row(r));
        }
        tiles
    }

    /// Appends one input row of `cols` elements, widening each.
    ///
    /// # Panics
    ///
    /// Panics if `row.len()` differs from the column count.
    fn push_row(&mut self, row: &[F16]) {
        assert_eq!(row.len(), self.cols, "row width must match the columns");
        for (group, part) in self.groups.iter_mut().zip(row.chunks(LANES)) {
            let mut lanes = [0.0; LANES];
            for (lane, x) in lanes.iter_mut().zip(part) {
                *lane = x.to_f32();
            }
            group.push(lanes);
        }
        self.rows += 1;
    }

    /// Appends one output column of `rows` elements, widening each.
    ///
    /// # Panics
    ///
    /// Panics if `column.len()` differs from the row count.
    fn push_column(&mut self, column: &[F16]) {
        assert_eq!(column.len(), self.rows, "column height must match the rows");
        let (g, lane) = (self.cols / LANES, self.cols % LANES);
        if lane == 0 {
            self.groups.push(vec![[0.0; LANES]; self.rows]);
        }
        for (t, x) in self.groups[g].iter_mut().zip(column) {
            t[lane] = x.to_f32();
        }
        self.cols += 1;
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

    /// The tiles in column order, each `rows` rows long: tile `g` holds
    /// the columns `LANES·g..` in its lanes.
    pub fn tiles(&self) -> impl ExactSizeIterator<Item = &[[f32; LANES]]> {
        self.groups.iter().map(Vec::as_slice)
    }
}

/// One decoder layer's partition for a single core.
#[derive(Debug, Clone)]
pub struct CoreLayerWeights {
    /// Q projection slice, `(emb, part)`.
    pub w_q: LaneTiles,
    /// Q bias slice.
    pub b_q: Vec<F16>,
    /// K projection slice.
    pub w_k: LaneTiles,
    /// K bias slice.
    pub b_k: Vec<F16>,
    /// V projection slice.
    pub w_v: LaneTiles,
    /// V bias slice.
    pub b_v: Vec<F16>,
    /// Output projection slice, `(emb, part)`.
    pub w_attn_proj: LaneTiles,
    /// Output projection bias slice.
    pub b_attn_proj: Vec<F16>,
    /// FFN up slice, `(emb, ffn_part)`.
    pub w_ffn1: LaneTiles,
    /// FFN up bias slice.
    pub b_ffn1: Vec<F16>,
    /// FFN down slice, `(ffn, part)` — full rows, sliced columns.
    pub w_ffn2: LaneTiles,
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

impl CoreLayerWeights {
    /// The slices of `lw` for the core at `par`: head-wise and FC columns
    /// of its embedding part, FFN1 columns of its FFN part, and the
    /// replicated LayerNorm parameters.
    fn partition(lw: &LayerWeights<F16>, cfg: &GptConfig, par: ParallelConfig) -> Self {
        let (part, ffn_part) = (par.emb_part(cfg), par.ffn_part(cfg));
        let (c0, f0) = (par.core_id * part, par.core_id * ffn_part);
        let (c1, f1) = (c0 + part, f0 + ffn_part);
        let cols = |m: &Matrix<F16>| LaneTiles::col_slice(m, c0, c1);
        CoreLayerWeights {
            w_q: cols(&lw.w_q),
            b_q: lw.b_q[c0..c1].to_vec(),
            w_k: cols(&lw.w_k),
            b_k: lw.b_k[c0..c1].to_vec(),
            w_v: cols(&lw.w_v),
            b_v: lw.b_v[c0..c1].to_vec(),
            w_attn_proj: cols(&lw.w_attn_proj),
            b_attn_proj: lw.b_attn_proj[c0..c1].to_vec(),
            w_ffn1: LaneTiles::col_slice(&lw.w_ffn1, f0, f1),
            b_ffn1: lw.b_ffn1[f0..f1].to_vec(),
            w_ffn2: cols(&lw.w_ffn2),
            b_ffn2: lw.b_ffn2[c0..c1].to_vec(),
            ln1_gamma: lw.ln1_gamma.clone(),
            ln1_beta: lw.ln1_beta.clone(),
            ln2_gamma: lw.ln2_gamma.clone(),
            ln2_beta: lw.ln2_beta.clone(),
        }
    }
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
    /// Full WTE (DDR-resident; used row-wise for embedding), shared by
    /// the cluster's cores.
    pub wte: Arc<Matrix<F16>>,
    /// Full WPE, shared by the cluster's cores.
    pub wpe: Arc<Matrix<F16>>,
    /// LM head slice: WTEᵀ columns for this core's vocabulary range,
    /// `(emb, vocab_part)`.
    pub lm_head: LaneTiles,
    /// First vocabulary id of this core's LM-head slice.
    pub vocab_offset: u32,
    /// Final LayerNorm γ.
    pub ln_f_gamma: Vec<F16>,
    /// Final LayerNorm β.
    pub ln_f_beta: Vec<F16>,
}

impl CoreWeights {
    /// Partitions `weights` over a cluster of `num_cores` cores, one
    /// entry per core in core-id order. The cores share one copy of the
    /// embedding tables, and each source layer is freed once its slices
    /// are built, so the FP16 source and the widened tiles are never all
    /// held at once.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Partition`] if the model does not divide
    /// evenly over the cluster.
    pub fn partition_cluster(
        weights: GptWeights<F16>,
        num_cores: usize,
    ) -> Result<Vec<Self>, ExecError> {
        let GptWeights {
            config: cfg,
            wte,
            wpe,
            layers,
            ln_f_gamma,
            ln_f_beta,
        } = weights;
        let pars: Vec<ParallelConfig> = (0..num_cores)
            .map(|c| ParallelConfig::new(c, num_cores))
            .collect();
        for par in &pars {
            par.check(&cfg).map_err(ExecError::Partition)?;
        }
        let mut core_layers = vec![Vec::with_capacity(layers.len()); num_cores];
        for lw in layers {
            for (slices, &par) in core_layers.iter_mut().zip(&pars) {
                slices.push(CoreLayerWeights::partition(&lw, &cfg, par));
            }
        }
        let (wte, wpe) = (Arc::new(wte), Arc::new(wpe));
        Ok(pars
            .into_iter()
            .zip(core_layers)
            .map(|(par, layers)| {
                let (v0, v1) = par.vocab_range(&cfg);
                CoreWeights {
                    cfg: cfg.clone(),
                    par,
                    layers,
                    // LM head = WTEᵀ: column v of the head is WTE row v.
                    lm_head: LaneTiles::transposed_rows(&wte, v0, v1),
                    wte: Arc::clone(&wte),
                    wpe: Arc::clone(&wpe),
                    vocab_offset: v0 as u32,
                    ln_f_gamma: ln_f_gamma.clone(),
                    ln_f_beta: ln_f_beta.clone(),
                }
            })
            .collect())
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
    pub fn weight_matrix(&self, tensor: TensorRef) -> Result<&LaneTiles, ExecError> {
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

/// Growable per-head K/V cache, held as the matrix unit streams it and
/// widened once as the DMA stores each row (paper §V-B): the keys as
/// `Kᵀ` (`dh × t`), one column per cached token, and the values as `V`
/// (`t × dh`), one row per cached token, the layout the DMA transpose
/// unit writes so that the `Score × Value` read streams rows.
#[derive(Debug, Clone)]
pub struct HeadKv {
    /// `Kᵀ`: column `j` is key row `j`.
    pub keys: LaneTiles,
    /// `V`: row `j` is value row `j`.
    pub values: LaneTiles,
}

impl HeadKv {
    /// Creates an empty cache for `head_dim`-wide rows.
    pub fn new(head_dim: usize) -> Self {
        HeadKv {
            keys: LaneTiles::new(head_dim, 0),
            values: LaneTiles::new(0, head_dim),
        }
    }

    /// Cached context length.
    pub fn len(&self) -> usize {
        self.keys.cols()
    }

    /// `true` when no token has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one K row, as a column of `Kᵀ`.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] if `row.len()` differs from the head
    /// dimension.
    pub fn push_key(&mut self, row: &[F16]) -> Result<(), ExecError> {
        check_head_row("K", row, self.keys.rows())?;
        self.keys.push_column(row);
        Ok(())
    }

    /// Appends one V row through the transpose layout.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::Shape`] if `row.len()` differs from the head
    /// dimension.
    pub fn push_value(&mut self, row: &[F16]) -> Result<(), ExecError> {
        check_head_row("V", row, self.values.cols())?;
        self.values.push_row(row);
        Ok(())
    }

    /// Forgets every cached token.
    pub fn clear(&mut self) {
        *self = HeadKv::new(self.values.cols());
    }
}

/// A `what` row for a `head_dim`-wide head must be `head_dim` long.
fn check_head_row(what: &str, row: &[F16], head_dim: usize) -> Result<(), ExecError> {
    if row.len() == head_dim {
        Ok(())
    } else {
        Err(ExecError::Shape(format!(
            "{what} row of {} elements for a {head_dim}-wide head",
            row.len()
        )))
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

    /// Forgets every cached token (a fresh request).
    pub fn clear(&mut self) {
        self.heads.iter_mut().flatten().for_each(HeadKv::clear);
    }

    /// Resolves a KV tensor reference for reading, as the matrix the
    /// matrix unit streams: `Kᵀ` for keys, `V` for values.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::WrongTensor`] on non-KV references.
    pub fn matrix(&self, tensor: TensorRef) -> Result<&LaneTiles, ExecError> {
        match tensor {
            TensorRef::Kv { layer, head, kind } => {
                let hkv = self.head(layer, head)?;
                Ok(match kind {
                    KvKind::Key => &hkv.keys,
                    KvKind::Value => &hkv.values,
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

    /// The element of `tiles` at logical `(row, col)`, narrowed back to
    /// FP16 (exact).
    fn at(tiles: &LaneTiles, r: usize, c: usize) -> F16 {
        assert!(
            r < tiles.rows() && c < tiles.cols(),
            "({r},{c}) out of bounds"
        );
        let tile = tiles.tiles().nth(c / LANES).unwrap();
        F16::from_f32(tile[r][c % LANES])
    }

    fn weights16() -> GptWeights<F16> {
        GptWeights::synthetic(&GptConfig::tiny()).cast()
    }

    #[test]
    fn partitions_tile_the_full_matrices() {
        let w = weights16();
        let cfg = &w.config;
        let parts = CoreWeights::partition_cluster(w.clone(), 2).unwrap();
        // Column ranges reassemble w_q.
        for r in 0..cfg.embedding_dim {
            for c in 0..cfg.embedding_dim {
                let part = cfg.embedding_dim / 2;
                let got = at(&parts[c / part].layers[0].w_q, r, c % part);
                assert_eq!(got.to_bits(), w.layers[0].w_q[(r, c)].to_bits());
            }
        }
    }

    #[test]
    fn ffn2_keeps_full_rows() {
        let w = weights16();
        let p = CoreWeights::partition_cluster(w.clone(), 2)
            .unwrap()
            .swap_remove(0);
        assert_eq!(p.layers[0].w_ffn2.rows(), w.config.ffn_dim);
        assert_eq!(p.layers[0].w_ffn2.cols(), w.config.embedding_dim / 2);
    }

    #[test]
    fn lm_head_is_wte_transposed_slice() {
        let w = weights16();
        let p = CoreWeights::partition_cluster(w.clone(), 2)
            .unwrap()
            .swap_remove(1);
        let (v0, _) = p.par.vocab_range(&p.cfg);
        assert_eq!(p.vocab_offset as usize, v0);
        for r in [0usize, 5, 63] {
            for c in [0usize, 3, 7] {
                assert_eq!(at(&p.lm_head, r, c).to_bits(), w.wte[(v0 + c, r)].to_bits());
            }
        }
    }

    /// Every lane of every tile of `tiles` against `want(row, col)`, and
    /// the lanes past the last column +0.
    fn check_tiles(tiles: &LaneTiles, want: impl Fn(usize, usize) -> F16) {
        assert_eq!(tiles.tiles().len(), tiles.cols().div_ceil(LANES));
        for (g, tile) in tiles.tiles().enumerate() {
            assert_eq!(tile.len(), tiles.rows());
            for (r, lanes) in tile.iter().enumerate() {
                for (l, &x) in lanes.iter().enumerate() {
                    let c = g * LANES + l;
                    let want = if c < tiles.cols() {
                        want(r, c).to_f32()
                    } else {
                        0.0
                    };
                    assert_eq!(x.to_bits(), want.to_bits(), "({r},{c})");
                }
            }
        }
    }

    #[test]
    fn lane_tiles_hold_the_logical_columns_widened() {
        // 37 columns and 21 rows: a partial last group each way.
        let m = Matrix::from_fn(21, 40, |r, c| {
            F16::from_f32((r * 40 + c) as f32 * 0.125 - 7.0)
        });
        check_tiles(&LaneTiles::col_slice(&m, 2, 39), |r, c| m[(r, c + 2)]);
        check_tiles(&LaneTiles::transposed_rows(&m, 0, 21), |r, c| m[(c, r)]);
        let w = weights16();
        let p = CoreWeights::partition_cluster(w.clone(), 1)
            .unwrap()
            .swap_remove(0);
        check_tiles(&p.layers[0].w_q, |r, c| w.layers[0].w_q[(r, c)]);
        // A cleared cache starts its tiles afresh; no stale lane may
        // survive.
        let mut kv = HeadKv::new(32);
        for round in 0..2 {
            kv.clear();
            let rows: Vec<Vec<F16>> = (0..17 - 2 * round)
                .map(|j| {
                    (0..32)
                        .map(|i| F16::from_f32((j * 32 + i) as f32))
                        .collect()
                })
                .collect();
            for row in &rows {
                kv.push_key(row).unwrap();
                kv.push_value(row).unwrap();
            }
            check_tiles(&kv.keys, |r, c| rows[c][r]);
            check_tiles(&kv.values, |r, c| rows[r][c]);
        }
    }

    #[test]
    fn indivisible_partition_is_an_error() {
        let w = weights16();
        let err = CoreWeights::partition_cluster(w.clone(), 3).unwrap_err();
        assert!(matches!(err, ExecError::Partition(_)));
    }

    #[test]
    fn single_core_partition_is_identity() {
        let w = weights16();
        let p = CoreWeights::partition_cluster(w.clone(), 1)
            .unwrap()
            .swap_remove(0);
        assert_eq!(p.layers[0].w_q.shape(), w.layers[0].w_q.shape());
        assert_eq!(p.lm_head.cols(), w.config.vocab_size);
    }

    #[test]
    fn head_kv_transpose_roundtrip() {
        let mut kv = HeadKv::new(4);
        let row1: Vec<F16> = (0..4).map(|i| F16::from_f32(i as f32)).collect();
        let row2: Vec<F16> = (0..4).map(|i| F16::from_f32(10.0 + i as f32)).collect();
        kv.push_key(&row1).unwrap();
        kv.push_value(&row1).unwrap();
        kv.push_key(&row2).unwrap();
        kv.push_value(&row2).unwrap();
        assert_eq!(kv.len(), 2);
        assert_eq!(at(&kv.values, 1, 3).to_f32(), 13.0);
        assert_eq!(at(&kv.keys, 3, 1).to_f32(), 13.0);
        assert!(matches!(kv.push_key(&row1[..3]), Err(ExecError::Shape(_))));
        assert!(matches!(
            kv.push_value(&row1[..3]),
            Err(ExecError::Shape(_))
        ));
    }

    #[test]
    fn kv_stream_matrices_have_hardware_shapes() {
        let mut store = KvStore::new(1, 1, 4);
        let r: Vec<F16> = (0..4).map(|i| F16::from_f32(i as f32)).collect();
        for _ in 0..2 {
            let head = store.head_mut(0, 0).unwrap();
            head.push_key(&r).unwrap();
            head.push_value(&r).unwrap();
        }
        // Kᵀ is dh x t; V is t x dh, and V[1][2] is its (1, 2).
        let matrix = |kind| {
            store
                .matrix(TensorRef::Kv {
                    layer: 0,
                    head: 0,
                    kind,
                })
                .unwrap()
        };
        assert_eq!(matrix(KvKind::Key).shape(), (4, 2));
        assert_eq!(matrix(KvKind::Value).shape(), (2, 4));
        assert_eq!(at(matrix(KvKind::Value), 1, 2).to_f32(), 2.0);
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
        for p in CoreWeights::partition_cluster(w.clone(), 2).unwrap() {
            let head = &p.lm_head;
            stitched.extend((0..head.cols()).map(|c| {
                let column: Vec<F16> = (0..head.rows()).map(|r| at(head, r, c)).collect();
                dfx_model::dot(&hidden, &column)
            }));
        }
        assert_eq!(stitched.len(), reference.len());
        for (a, b) in stitched.iter().zip(&reference) {
            assert_eq!(a.to_bits(), b.to_bits(), "logit mismatch");
        }
    }
}
