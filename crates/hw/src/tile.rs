//! The DFX tiling scheme (paper §V-B, Fig 9).
//!
//! Weights are stored in HBM as `d × l` tiles (d = tree depth of the MAC
//! units, l = number of lanes; the paper's design-space exploration fixes
//! d = 64, l = 16). The DMA walks the weight matrix in a *zigzag* order:
//! it fills a `d × d` block by stepping `l` columns at a time
//! horizontally, then moves to the block below, finishing a d-column
//! stripe before moving to the next stripe. This bounds the partial-sum
//! buffer to a single d-wide register while retaining input reuse within
//! a block.

use serde::{Deserialize, Serialize};

/// Geometry of the matrix datapath: MAC-tree depth and lane count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TileShape {
    /// Rows per tile = MAC-tree fan-in (`d`).
    pub d: u32,
    /// Columns per tile = parallel lanes (`l`).
    pub l: u32,
}

impl TileShape {
    /// The paper's chosen configuration, d = 64, l = 16.
    pub const PAPER: TileShape = TileShape { d: 64, l: 16 };

    /// The design-space-exploration candidates of Fig 8.
    pub const DSE_CANDIDATES: [TileShape; 5] = [
        TileShape { d: 8, l: 128 },
        TileShape { d: 16, l: 64 },
        TileShape { d: 32, l: 32 },
        TileShape { d: 64, l: 16 },
        TileShape { d: 128, l: 8 },
    ];

    /// MACs per cycle (`d × l`).
    pub fn macs_per_cycle(self) -> u32 {
        self.d * self.l
    }

    /// FP16 bytes consumed per cycle when streaming full tiles.
    pub fn bytes_per_cycle(self) -> u32 {
        self.macs_per_cycle() * 2
    }

    /// Number of tiles needed to cover an `rows × cols` matrix.
    pub fn tile_count(self, rows: u32, cols: u32) -> u64 {
        u64::from(rows.div_ceil(self.d)) * u64::from(cols.div_ceil(self.l))
    }
}

/// Weight-matrix traversal directions (paper Fig 9 discussion, §V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum WalkOrder {
    /// The paper's choice: fill a `d × d` block horizontally, then move
    /// down the stripe; next stripe after the bottom. Balances input
    /// reuse against partial-sum buffering.
    #[default]
    Zigzag,
    /// Full rows first (maximum input reuse): every output column's
    /// partial sum stays live simultaneously, so the core would need
    /// `cols / l` partial-sum buffers — infeasible on-chip for
    /// emb-wide matrices ("completing the horizontal direction is
    /// infeasible").
    Horizontal,
    /// Full column stripes first (single partial-sum buffer): the input
    /// vector is re-fetched from the register file for every stripe,
    /// multiplying operand reads ("it removes input reuse... which
    /// decreases the throughput").
    Vertical,
}

/// Static analysis of a walk order over an `rows × cols` matrix: the
/// buffering and operand-traffic consequences the paper weighs in §V-B.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalkAnalysis {
    /// Simultaneously live partial-sum vectors (in units of l-wide lane
    /// groups) the accumulator must buffer.
    pub partial_sum_groups: u32,
    /// How many times each d-wide input block is fetched from the
    /// register file over the whole matrix.
    pub input_fetches_per_block: u32,
}

impl WalkOrder {
    /// Analyses this order for an `rows × cols` matrix under `shape`.
    pub fn analysis(self, shape: TileShape, rows: u32, cols: u32) -> WalkAnalysis {
        let col_tiles = cols.div_ceil(shape.l).max(1);
        let stripe_tiles = cols.min(shape.d).div_ceil(shape.l).max(1);
        let stripes = cols.div_ceil(shape.d).max(1);
        let _ = rows;
        match self {
            WalkOrder::Horizontal => WalkAnalysis {
                partial_sum_groups: col_tiles,
                input_fetches_per_block: 1,
            },
            WalkOrder::Vertical => WalkAnalysis {
                partial_sum_groups: 1,
                input_fetches_per_block: col_tiles,
            },
            WalkOrder::Zigzag => WalkAnalysis {
                partial_sum_groups: stripe_tiles,
                input_fetches_per_block: stripes,
            },
        }
    }
}

/// One tile visited by the walker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tile {
    /// First row covered.
    pub row: u32,
    /// First column covered.
    pub col: u32,
    /// Rows in this tile (≤ d; short at the matrix edge).
    pub rows: u32,
    /// Columns in this tile (≤ l; short at the matrix edge).
    pub cols: u32,
}

/// Iterator over tiles of an `rows × cols` matrix in the zigzag order.
///
/// # Examples
///
/// ```
/// use dfx_hw::{TileShape, TileWalk};
///
/// let tiles: Vec<_> = TileWalk::new(TileShape::PAPER, 128, 64).collect();
/// assert_eq!(tiles.len(), 2 * 4); // 2 row-tiles x 4 col-tiles
/// // Walk order: block (0..64, 0..64) left-to-right, then the block below.
/// assert_eq!((tiles[0].row, tiles[0].col), (0, 0));
/// assert_eq!((tiles[1].row, tiles[1].col), (0, 16));
/// assert_eq!((tiles[4].row, tiles[4].col), (64, 0));
/// ```
#[derive(Debug, Clone)]
pub struct TileWalk {
    shape: TileShape,
    rows: u32,
    cols: u32,
    /// Current d-column stripe start.
    stripe: u32,
    /// Current row within the stripe.
    row: u32,
    /// Current column within the stripe.
    col: u32,
    done: bool,
}

impl TileWalk {
    /// Creates a walker over an `rows × cols` matrix.
    pub fn new(shape: TileShape, rows: u32, cols: u32) -> Self {
        TileWalk {
            shape,
            rows,
            cols,
            stripe: 0,
            row: 0,
            col: 0,
            done: rows == 0 || cols == 0,
        }
    }
}

impl Iterator for TileWalk {
    type Item = Tile;

    fn next(&mut self) -> Option<Tile> {
        if self.done {
            return None;
        }
        let d = self.shape.d;
        let l = self.shape.l;
        // A stripe is a d-wide block for l ≤ d (the paper's geometry); a
        // wide-lane design (l > d) degenerates to one tile per block row.
        let stripe_width = d.max(l);
        let stripe_end = (self.stripe + stripe_width).min(self.cols);
        let tile = Tile {
            row: self.row,
            col: self.col,
            rows: (self.rows - self.row).min(d),
            cols: (stripe_end - self.col).min(l),
        };

        // Advance: horizontally within the block, then down the stripe,
        // then to the next stripe.
        self.col += l;
        if self.col >= stripe_end {
            self.col = self.stripe;
            self.row += d;
            if self.row >= self.rows {
                self.row = 0;
                self.stripe += stripe_width;
                self.col = self.stripe;
                if self.stripe >= self.cols {
                    self.done = true;
                }
            }
        }
        Some(tile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn paper_shape_constants() {
        let s = TileShape::PAPER;
        assert_eq!(s.macs_per_cycle(), 1024);
        assert_eq!(s.bytes_per_cycle(), 2048); // exactly the HBM peak
        assert_eq!(s.tile_count(1536, 1536), 24 * 96);
    }

    #[test]
    fn walk_covers_matrix_exactly_once() {
        for (rows, cols) in [(64u32, 64u32), (128, 48), (100, 33), (1, 1), (65, 17)] {
            let mut covered = HashSet::new();
            let mut count = 0u64;
            for t in TileWalk::new(TileShape::PAPER, rows, cols) {
                count += 1;
                for r in t.row..t.row + t.rows {
                    for c in t.col..t.col + t.cols {
                        assert!(covered.insert((r, c)), "({r},{c}) covered twice");
                        assert!(r < rows && c < cols, "({r},{c}) out of bounds");
                    }
                }
            }
            assert_eq!(covered.len() as u64, u64::from(rows) * u64::from(cols));
            assert_eq!(count, TileShape::PAPER.tile_count(rows, cols));
        }
    }

    #[test]
    fn zigzag_finishes_a_stripe_before_moving_right() {
        // 128x128 with d=64,l=16: stripe 0 = cols 0..64 over both row
        // blocks (8 tiles) before any tile with col >= 64 appears.
        let tiles: Vec<_> = TileWalk::new(TileShape::PAPER, 128, 128).collect();
        let first_right = tiles.iter().position(|t| t.col >= 64).unwrap();
        assert_eq!(first_right, 8);
        for t in &tiles[..8] {
            assert!(t.col < 64);
        }
    }

    #[test]
    fn edge_tiles_are_clipped() {
        let tiles: Vec<_> = TileWalk::new(TileShape::PAPER, 100, 33).collect();
        let last = tiles.last().unwrap();
        assert!(last.rows <= 64 && last.cols <= 16);
        assert!(tiles.iter().any(|t| t.rows == 36), "clipped row tile");
        assert!(tiles.iter().any(|t| t.cols == 1), "clipped col tile");
    }

    #[test]
    fn empty_matrix_yields_no_tiles() {
        assert_eq!(TileWalk::new(TileShape::PAPER, 0, 10).count(), 0);
        assert_eq!(TileWalk::new(TileShape::PAPER, 10, 0).count(), 0);
    }

    #[test]
    fn dse_candidates_all_have_1024_macs() {
        for s in TileShape::DSE_CANDIDATES {
            assert_eq!(s.macs_per_cycle(), 1024, "{s:?}");
        }
    }

    #[test]
    fn walk_order_tradeoffs_match_fig9_reasoning() {
        // FFN1 on the 1.5B model, one core of four: 1536 x 1536.
        let s = TileShape::PAPER;
        let horizontal = WalkOrder::Horizontal.analysis(s, 1536, 1536);
        let vertical = WalkOrder::Vertical.analysis(s, 1536, 1536);
        let zigzag = WalkOrder::Zigzag.analysis(s, 1536, 1536);

        // Horizontal: 96 live partial-sum groups — "a significant number
        // of buffers" (infeasible); but perfect input reuse.
        assert_eq!(horizontal.partial_sum_groups, 96);
        assert_eq!(horizontal.input_fetches_per_block, 1);
        // Vertical: one buffer, but the input re-fetched 96 times —
        // "increases the amount of register file access".
        assert_eq!(vertical.partial_sum_groups, 1);
        assert_eq!(vertical.input_fetches_per_block, 96);
        // Zigzag: d-wide buffering (4 lane groups) and 24 input fetches —
        // the balanced point the paper standardises on.
        assert_eq!(zigzag.partial_sum_groups, 4);
        assert_eq!(zigzag.input_fetches_per_block, 24);
        assert!(zigzag.partial_sum_groups < horizontal.partial_sum_groups / 10);
        assert!(zigzag.input_fetches_per_block < vertical.input_fetches_per_block / 2);
    }

    #[test]
    fn narrow_matrices_collapse_the_orders() {
        // For cols <= d all three orders coincide in buffering.
        let s = TileShape::PAPER;
        for order in [
            WalkOrder::Horizontal,
            WalkOrder::Vertical,
            WalkOrder::Zigzag,
        ] {
            let a = order.analysis(s, 256, 48);
            assert!(a.partial_sum_groups <= 3, "{order:?}: {a:?}");
        }
    }
}
