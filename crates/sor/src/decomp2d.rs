//! Block tiles: the one unit every SOR execution in this crate runs over.
//!
//! A [`Decomposition`] is either the paper's strip list (Figure 6,
//! capacity-weighted strips allowed) or a `pr x pc` block layout. Both
//! lift to [`Block`] tiles on a [`BlockLayout`] processor grid: a strip is
//! a block in a `p x 1` layout whose columns span the whole interior. The
//! threaded solver, the simulator, checkpoint/resume and the supervised
//! solve therefore each have one path for both decompositions.
//!
//! A strip decomposition sends `2N` boundary elements per interior
//! processor per phase regardless of `P`; a `pr x pc` block decomposition
//! sends `2(N/pr) + 2(N/pc)`, which shrinks as the processor grid grows
//! (the comm-bound advantage over strips is `sqrt(P)/2` for P >= 16).
//! The crossover between the two is a standard result the ablation
//! harness reproduces (`ablation_decomposition`).

use crate::decomp::Strip;
use crate::protocol::Peer;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One processor's tile: ranges of interior rows and columns.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Block {
    /// Owning processor index (row-major in the processor grid).
    pub proc: usize,
    /// Processor-grid coordinates `(block row, block col)`.
    pub coords: (usize, usize),
    /// Interior grid rows `[start, end)`.
    pub rows: Range<usize>,
    /// Interior grid columns `[start, end)`.
    pub cols: Range<usize>,
    /// Elements in one simulated ghost message to a vertical neighbour.
    /// A strip ships whole `N`-element grid rows, the convention of the
    /// structural model's SendLR term and of every committed figure; a
    /// block ships its `n_cols` interior segment.
    row_message: usize,
}

impl Block {
    /// Rows owned.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// Columns owned.
    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    /// Elements owned (`NumElt_p` in the paper's component models).
    pub fn elements(&self) -> usize {
        self.n_rows() * self.n_cols()
    }

    /// Cells on the edge facing `peer`: a row segment toward a vertical
    /// neighbour, a column segment toward a horizontal one.
    pub fn edge_len(&self, peer: Peer) -> usize {
        match peer {
            Peer::Up | Peer::Down => self.n_cols(),
            Peer::Left | Peer::Right => self.n_rows(),
        }
    }

    /// Elements in one simulated ghost message to `peer`.
    pub fn message_len(&self, peer: Peer) -> usize {
        match peer {
            Peer::Up | Peer::Down => self.row_message,
            Peer::Left | Peer::Right => self.n_rows(),
        }
    }
}

/// The processor grid shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockLayout {
    /// Processor-grid rows.
    pub pr: usize,
    /// Processor-grid columns.
    pub pc: usize,
}

impl BlockLayout {
    /// A layout with `pr * pc` processors.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(pr: usize, pc: usize) -> Self {
        assert!(pr > 0 && pc > 0, "layout needs positive dimensions");
        Self { pr, pc }
    }

    /// The most square layout for `p` processors (factor pair closest to
    /// `sqrt(p)`).
    pub fn squarest(p: usize) -> Self {
        assert!(p > 0);
        let mut best = (1usize, p);
        let mut r = 1usize;
        while r * r <= p {
            if p.is_multiple_of(r) {
                best = (r, p / r);
            }
            r += 1;
        }
        Self::new(best.0, best.1)
    }

    /// Total processors.
    pub fn len(&self) -> usize {
        self.pr * self.pc
    }

    /// Always false.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The processor `peer` of `rank` (row-major), `None` at the boundary.
    ///
    /// # Panics
    ///
    /// Panics if `rank` lies outside the layout.
    pub fn neighbour(&self, rank: usize, peer: Peer) -> Option<usize> {
        assert!(rank < self.len(), "rank {rank} outside layout {self:?}");
        let (br, bc) = (rank / self.pc, rank % self.pc);
        match peer {
            Peer::Up => (br > 0).then(|| rank - self.pc),
            Peer::Down => (br + 1 < self.pr).then(|| rank + self.pc),
            Peer::Left => (bc > 0).then(|| rank - 1),
            Peer::Right => (bc + 1 < self.pc).then(|| rank + 1),
        }
    }

    /// The existing neighbours of `rank` as `(peer, rank)` pairs, in the
    /// fixed [`Peer::ALL`] order: up, down, left, right.
    pub fn neighbours(self, rank: usize) -> impl Iterator<Item = (Peer, usize)> {
        Peer::ALL
            .into_iter()
            .filter_map(move |peer| self.neighbour(rank, peer).map(|q| (peer, q)))
    }
}

/// How the interior is split among processors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomposition<'a> {
    /// Row strips in processor order (capacity-weighted allowed), tiled
    /// as a `p x 1` layout.
    Strips(&'a [Strip]),
    /// An equal `pr x pc` block layout.
    Blocks(BlockLayout),
}

impl Decomposition<'_> {
    /// The processor grid the tiles sit on.
    pub fn layout(&self) -> BlockLayout {
        match *self {
            Self::Strips(strips) => BlockLayout::new(strips.len(), 1),
            Self::Blocks(layout) => layout,
        }
    }

    /// The tiles of an `n x n` grid in rank order. A strip tile spans
    /// interior columns `1..n-1` and ships `n`-element ghost rows.
    pub fn tiles(&self, n: usize) -> Vec<Block> {
        match *self {
            Self::Strips(strips) => strips
                .iter()
                .enumerate()
                .map(|(i, strip)| Block {
                    proc: i,
                    coords: (i, 0),
                    rows: strip.rows.clone(),
                    cols: 1..n - 1,
                    row_message: n,
                })
                .collect(),
            Self::Blocks(layout) => partition_blocks(n, layout),
        }
    }
}

impl<'a> From<&'a Vec<Strip>> for Decomposition<'a> {
    fn from(strips: &'a Vec<Strip>) -> Self {
        Self::Strips(strips)
    }
}

impl From<BlockLayout> for Decomposition<'_> {
    fn from(layout: BlockLayout) -> Self {
        Self::Blocks(layout)
    }
}

fn split(total: usize, parts: usize) -> Vec<Range<usize>> {
    // Equal split with remainder spread over the leading parts, offset by
    // the interior origin 1.
    let base = total / parts;
    let extra = total % parts;
    let mut out = Vec::with_capacity(parts);
    let mut start = 1usize;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push(start..start + len);
        start += len;
    }
    out
}

/// Partitions the interior of an `n x n` grid into equal blocks.
///
/// # Panics
///
/// Panics if the layout has more rows/cols than the interior provides.
pub fn partition_blocks(n: usize, layout: BlockLayout) -> Vec<Block> {
    let interior = n - 2;
    assert!(
        layout.pr <= interior && layout.pc <= interior,
        "layout {layout:?} too fine for an interior of {interior}"
    );
    let row_ranges = split(interior, layout.pr);
    let col_ranges = split(interior, layout.pc);
    let mut out = Vec::with_capacity(layout.len());
    for (br, rr) in row_ranges.iter().enumerate() {
        for (bc, cr) in col_ranges.iter().enumerate() {
            out.push(Block {
                proc: br * layout.pc + bc,
                coords: (br, bc),
                rows: rr.clone(),
                cols: cr.clone(),
                row_message: cr.len(),
            });
        }
    }
    out
}

/// Ghost elements a block exchanges per phase: one edge segment per
/// neighbour, in both directions.
pub fn ghost_elements_per_phase(block: &Block, layout: BlockLayout) -> usize {
    let edges: usize = layout
        .neighbours(block.proc)
        .map(|(peer, _)| block.edge_len(peer))
        .sum();
    2 * edges // send + receive
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_tiles_interior_exactly() {
        let n = 34; // interior 32
        let layout = BlockLayout::new(4, 2);
        let blocks = partition_blocks(n, layout);
        assert_eq!(blocks.len(), 8);
        let total: usize = blocks.iter().map(Block::elements).sum();
        assert_eq!(total, 32 * 32);
        // Procs indexed row-major and in order.
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.proc, i);
        }
    }

    #[test]
    fn uneven_interior_spreads_remainder() {
        let n = 12; // interior 10
        let blocks = partition_blocks(n, BlockLayout::new(3, 3));
        let sizes: Vec<usize> = blocks.iter().map(Block::elements).collect();
        let total: usize = sizes.iter().sum();
        assert_eq!(total, 100);
        // One block per block-row: remainder rows go to the leading rows.
        let rows: Vec<usize> = [0, 3, 6].iter().map(|&i| blocks[i].n_rows()).collect();
        assert_eq!(rows, vec![4, 3, 3]);
    }

    #[test]
    fn squarest_layouts() {
        assert_eq!(BlockLayout::squarest(4), BlockLayout::new(2, 2));
        assert_eq!(BlockLayout::squarest(12), BlockLayout::new(3, 4));
        assert_eq!(BlockLayout::squarest(7), BlockLayout::new(1, 7));
        assert_eq!(BlockLayout::squarest(16), BlockLayout::new(4, 4));
    }

    #[test]
    fn neighbour_topology() {
        let l = BlockLayout::new(3, 3);
        // Corner has two neighbours.
        assert_eq!(l.neighbours(0).count(), 2);
        // Edge has three.
        assert_eq!(l.neighbours(1).count(), 3);
        // Center has four, in up/down/left/right order.
        assert_eq!(
            l.neighbours(4).collect::<Vec<_>>(),
            vec![
                (Peer::Up, 1),
                (Peer::Down, 7),
                (Peer::Left, 3),
                (Peer::Right, 5)
            ]
        );
    }

    #[test]
    fn strip_is_a_special_case() {
        let n = 18;
        let blocks = partition_blocks(n, BlockLayout::new(4, 1));
        for b in &blocks {
            assert_eq!(b.n_cols(), 16);
        }
        // Lifted strips tile the same columns but ship whole grid rows.
        let strips = crate::decomp::partition_rows(n - 2, &[1.0, 3.0]);
        let decomposition = Decomposition::from(&strips);
        assert_eq!(decomposition.layout(), BlockLayout::new(2, 1));
        let tiles = decomposition.tiles(n);
        for (tile, strip) in tiles.iter().zip(&strips) {
            assert_eq!(tile.rows, strip.rows);
            assert_eq!(tile.elements(), strip.elements(n));
            assert_eq!(tile.message_len(Peer::Down), n);
        }
    }

    #[test]
    fn block_ghosts_smaller_than_strip_ghosts_for_many_procs() {
        let n = 1002; // interior 1000
        let p = 16;
        // Strip: interior proc exchanges 2 rows of 1000 in each direction.
        let strip_ghosts = 2 * 2 * 1000;
        let blocks = partition_blocks(n, BlockLayout::squarest(p));
        let center = blocks
            .iter()
            .find(|b| BlockLayout::squarest(p).neighbours(b.proc).count() == 4)
            .unwrap();
        let block_ghosts = ghost_elements_per_phase(center, BlockLayout::squarest(p));
        assert!(
            block_ghosts < strip_ghosts,
            "block {block_ghosts} vs strip {strip_ghosts}"
        );
    }

    #[test]
    #[should_panic]
    fn rejects_too_fine_layout() {
        partition_blocks(5, BlockLayout::new(4, 4));
    }
}
