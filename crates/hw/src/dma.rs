//! DMA engine model: tiled weight streaming and the transpose unit.
//!
//! The DMA (paper §V-B) owns the HBM and DDR interfaces. Weights are laid
//! out in HBM as padded `d × l` tiles so a full tile arrives every cycle
//! at peak; the K/V cache regions are written row-by-row as tokens are
//! processed (Values through the transpose unit) and read back as streams
//! during attention.

use crate::clock::Cycles;
use crate::memory::{DdrModel, HbmModel};
use crate::tile::TileShape;
use serde::{Deserialize, Serialize};

/// Timing model of one core's DMA engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DmaModel {
    /// HBM subsystem.
    pub hbm: HbmModel,
    /// DDR channel.
    pub ddr: DdrModel,
    /// Tile geometry the weights are packed for.
    pub shape: TileShape,
    /// Extra cycles per element for the transpose unit's write path: the
    /// row arrives contiguously but drains column-wise into strided HBM
    /// locations, so each element pays a short-burst penalty. This is the
    /// "long latency of transpose" the paper hides by computing Value
    /// before Key and Query (§V-B).
    pub transpose_elem_overhead: Cycles,
}

impl Default for DmaModel {
    fn default() -> Self {
        DmaModel {
            hbm: HbmModel::default(),
            ddr: DdrModel::default(),
            shape: TileShape::PAPER,
            transpose_elem_overhead: Cycles(4),
        }
    }
}

impl DmaModel {
    /// Creates a model with a non-default tile shape (design-space
    /// exploration of Fig 8).
    pub fn with_shape(shape: TileShape) -> Self {
        DmaModel {
            shape,
            ..DmaModel::default()
        }
    }

    /// Cycles to stream one weight matrix partition of `rows × cols`
    /// FP16 values from HBM. Tiles are padded to `d × l`, so the streamed
    /// byte count is `tile_count × d × l × 2`.
    pub fn weight_stream_cycles(&self, rows: u32, cols: u32) -> Cycles {
        let tiles = self.shape.tile_count(rows, cols);
        let bytes = tiles * u64::from(self.shape.macs_per_cycle()) * 2;
        self.hbm.stream_cycles(bytes)
    }

    /// Cycles to append one K row (`head_dim` FP16) to the cache.
    pub fn kv_write_cycles(&self, head_dim: u32) -> Cycles {
        self.hbm.scattered_cycles(u64::from(head_dim) * 2, 1)
    }

    /// Cycles to append one V row through the transpose unit. The paper
    /// transposes V *while writing* partial tiles to HBM (§V-B), trading
    /// strided writes for zero read-side cost; the instruction reordering
    /// (Value before Key/Query) hides this latency.
    pub fn kv_write_transposed_cycles(&self, head_dim: u32) -> Cycles {
        self.kv_write_cycles(head_dim) + self.transpose_elem_overhead * u64::from(head_dim)
    }

    /// Cycles to load a bias/γ/β/embedding vector of `len` FP16 values
    /// from DDR.
    pub fn ddr_vector_cycles(&self, len: u32) -> Cycles {
        self.ddr.transfer_cycles(u64::from(len) * 2)
    }

    /// Cycles for a token-id transfer (4 bytes) to or from DDR.
    pub fn token_io_cycles(&self) -> Cycles {
        self.ddr.transfer_cycles(4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_stream_accounts_tile_padding() {
        let dma = DmaModel::default();
        // 100x20 pads to 2x2 tiles of 64x16 = 4096 values = 8192 B.
        let padded = dma.weight_stream_cycles(100, 20);
        let exact = dma.hbm.stream_cycles(8192);
        assert_eq!(padded, exact);
    }

    #[test]
    fn aligned_weight_stream_matches_raw_bytes() {
        let dma = DmaModel::default();
        let cycles = dma.weight_stream_cycles(1536, 384);
        let raw = dma.hbm.stream_cycles(1536 * 384 * 2);
        assert_eq!(cycles, raw, "aligned shapes have no padding");
    }

    #[test]
    fn transpose_write_costs_more_than_plain_write() {
        let dma = DmaModel::default();
        assert!(dma.kv_write_transposed_cycles(64) > dma.kv_write_cycles(64));
    }

    #[test]
    fn ddr_vector_load_is_fast_but_nonzero() {
        let dma = DmaModel::default();
        let c = dma.ddr_vector_cycles(1536);
        assert!(c.0 > 60 && c.0 < 200, "{c}");
    }
}
