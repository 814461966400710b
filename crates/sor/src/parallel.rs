//! The real multithreaded Red-Black SOR: one thread per tile of a
//! [`Decomposition`] (strips or blocks), per-phase ghost-edge exchange
//! over rendezvous mailboxes, loose neighbour synchronization — a
//! shared-nothing implementation of the distributed algorithm the paper
//! models, validated bit-for-bit against the sequential solver.
//!
//! Because each colour's update reads only the *other* colour (fixed for
//! the duration of the sweep), and the five-point stencil needs no corner
//! ghosts, the parallel result is identical to the sequential one —
//! floating-point operation order per cell does not change with the
//! decomposition.
//!
//! Ghost edges travel through [`crate::exchange`] links that recycle their
//! owned buffers (send the buffer, get it back), so steady-state
//! iterations perform **zero heap allocations** — see the `zero_alloc`
//! integration test.
//!
//! Fault tolerance: the solver runs on a fallible core
//! ([`try_solve_parallel`]) in which every ghost exchange is bounded by an
//! [`ExchangePolicy`] and a worker's death — a panic, or an injected
//! [`WorkerDeath`] — surfaces as [`SolveError::WorkerDied`] from the
//! solve instead of a permanent block or a secondary panic. The
//! infallible [`solve_parallel`] runs the same core under
//! [`ExchangePolicy::patient`].

use crate::decomp::strips_are_valid;
use crate::decomp2d::{Block, BlockLayout, Decomposition};
use crate::exchange::{
    recycled_link, ExchangeError, ExchangePolicy, RecycledReceiver, RecycledSender,
};
use crate::grid::{Color, Grid};
use crate::kernel::relax_rows;
use crate::protocol::{half_iteration_script, ExchangeOp, Peer};
use crate::seq::SorParams;
use prodpred_simgrid::faults::WorkerDeath;

/// Typed failure of a fallible parallel solve. On error the grid is left
/// in its initial state — partial results are never assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveError {
    /// Worker `rank` died mid-solve: it panicked, or an injected
    /// [`WorkerDeath`] killed it at its configured half-iteration. When a
    /// death is only observed indirectly (a neighbour found the links
    /// dropped), `rank` is the dead neighbour as seen by the first
    /// reporting worker.
    WorkerDied {
        /// Tile index (rank) of the dead worker.
        rank: usize,
    },
    /// Worker `rank` exhausted its [`ExchangePolicy`] waiting on a
    /// neighbour that is still alive but not exchanging.
    ExchangeTimeout {
        /// Tile index (rank) of the worker that gave up.
        rank: usize,
    },
    /// A resume was handed an unusable [`crate::checkpoint::Checkpoint`]
    /// (wrong version, wrong grid size, or past the solve's end).
    Checkpoint(crate::checkpoint::CheckpointError),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::WorkerDied { rank } => write!(f, "worker {rank} died mid-solve"),
            Self::ExchangeTimeout { rank } => {
                write!(f, "worker {rank} timed out exchanging ghost data")
            }
            Self::Checkpoint(e) => write!(f, "unusable checkpoint: {e}"),
        }
    }
}

impl std::error::Error for SolveError {
    /// The underlying [`CheckpointError`](crate::checkpoint::CheckpointError)
    /// for [`SolveError::Checkpoint`], so `Box<dyn Error>` chains (the
    /// service layer's error propagation) reach the root cause without
    /// matching on every variant.
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Checkpoint(e) => Some(e),
            Self::WorkerDied { .. } | Self::ExchangeTimeout { .. } => None,
        }
    }
}

impl From<crate::checkpoint::CheckpointError> for SolveError {
    fn from(e: crate::checkpoint::CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Options for a fallible parallel solve: how patiently workers wait on
/// their neighbours, and an optional injected worker death.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveOptions {
    /// Timeout-and-retry policy for every ghost exchange.
    pub policy: ExchangePolicy,
    /// Kill one worker at a chosen half-iteration (half-iteration `2k`
    /// is iteration `k`'s red phase). A rank outside the decomposition or
    /// a half-iteration past the end of the solve never fires.
    pub kill: Option<WorkerDeath>,
}

impl SolveOptions {
    /// The options backing the infallible entry points: near-infinite
    /// patience for wedged neighbours, no injected death. A *dead*
    /// neighbour still surfaces immediately.
    pub fn reliable() -> Self {
        Self {
            policy: ExchangePolicy::patient(),
            kill: None,
        }
    }
}

/// How one worker's run ended, as reported to the driver.
enum WorkerEnd {
    Completed,
    /// The injected death fired: the worker exited, dropping its links.
    Died,
    /// A link to `neighbour` disconnected — that worker died or exited.
    NeighbourLost {
        neighbour: usize,
    },
    /// The exchange policy ran out against a still-connected neighbour.
    TimedOut,
}

fn end_of(e: ExchangeError, neighbour: usize) -> WorkerEnd {
    match e {
        ExchangeError::Disconnected => WorkerEnd::NeighbourLost { neighbour },
        ExchangeError::Timeout => WorkerEnd::TimedOut,
    }
}

/// Resolves the per-worker end states into the solve's result. An actual
/// death (panic or injected) names its own rank; a death seen only
/// through a dropped link names the neighbour; timeouts rank below
/// deaths because a cascade of timeouts usually *starts* at a death.
fn resolve(ends: Vec<(usize, std::thread::Result<WorkerEnd>)>) -> Result<(), SolveError> {
    let mut lost = None;
    let mut timed_out = None;
    for (rank, end) in ends {
        match end {
            Err(_) | Ok(WorkerEnd::Died) => return Err(SolveError::WorkerDied { rank }),
            Ok(WorkerEnd::NeighbourLost { neighbour }) => {
                if lost.is_none() {
                    lost = Some(neighbour);
                }
            }
            Ok(WorkerEnd::TimedOut) => {
                if timed_out.is_none() {
                    timed_out = Some(rank);
                }
            }
            Ok(WorkerEnd::Completed) => {}
        }
    }
    if let Some(rank) = lost {
        return Err(SolveError::WorkerDied { rank });
    }
    if let Some(rank) = timed_out {
        return Err(SolveError::ExchangeTimeout { rank });
    }
    Ok(())
}

/// True when the injected death targets `rank` at half-iteration `half`.
fn death_fires(kill: Option<WorkerDeath>, rank: usize, half: usize) -> bool {
    kill.is_some_and(|d| d.rank == rank && d.at_half_iteration == half)
}

/// A worker's local state: its tile plus a one-cell halo on every side.
/// A strip tile spans the interior columns, so its `(rows + 2) x n` data
/// is the strip's grid rows with one ghost row above and below.
struct Worker {
    rows: usize,
    cols: usize,
    /// Global `(row, column)` of local cell `(0, 0)`, the halo corner.
    origin: (usize, usize),
    /// `(rows + 2) x (cols + 2)`, halo included.
    data: Vec<f64>,
}

impl Worker {
    fn new(grid: &Grid, tile: &Block) -> Self {
        let (rows, cols) = (tile.n_rows(), tile.n_cols());
        let mut data = Vec::with_capacity((rows + 2) * (cols + 2));
        for gi in tile.rows.start - 1..=tile.rows.end {
            data.extend_from_slice(&grid.row(gi)[tile.cols.start - 1..=tile.cols.end]);
        }
        Self {
            rows,
            cols,
            origin: (tile.rows.start - 1, tile.cols.start - 1),
            data,
        }
    }

    fn width(&self) -> usize {
        self.cols + 2
    }

    /// Relaxes the given colour over the owned tile via the shared slice
    /// kernel.
    fn sweep(&mut self, color: Color, omega: f64) {
        let (w, rows) = (self.width(), self.rows);
        relax_rows(
            &mut self.data,
            w,
            color.parity(),
            omega,
            1,
            rows + 1,
            self.origin,
        );
    }

    /// First flat index and stride of the line of cells facing `peer`:
    /// the owned boundary edge at `depth` 1, the halo beyond it at 0.
    fn line(&self, peer: Peer, depth: usize) -> (usize, usize) {
        let w = self.width();
        match peer {
            Peer::Up => (depth * w + 1, 1),
            Peer::Down => ((self.rows + 1 - depth) * w + 1, 1),
            Peer::Left => (w + depth, w),
            Peer::Right => (w + self.cols + 1 - depth, w),
        }
    }

    fn copy_edge(&self, peer: Peer, out: &mut [f64]) {
        let (start, stride) = self.line(peer, 1);
        for (o, &v) in out
            .iter_mut()
            .zip(self.data[start..].iter().step_by(stride))
        {
            *o = v;
        }
    }

    fn set_halo(&mut self, peer: Peer, edge: &[f64]) {
        let (start, stride) = self.line(peer, 0);
        for (d, &v) in self.data[start..].iter_mut().step_by(stride).zip(edge) {
            *d = v;
        }
    }

    /// Writes the owned cells back into the global grid.
    fn store(&self, grid: &mut Grid) {
        let (n, w) = (grid.n(), self.width());
        for li in 1..=self.rows {
            let at = (self.origin.0 + li) * n + self.origin.1 + 1;
            grid.data_mut()[at..at + self.cols]
                .copy_from_slice(&self.data[li * w + 1..li * w + 1 + self.cols]);
        }
    }
}

/// One worker's end of the link to a neighbour: the recycled sender of
/// its own edges, the receiver of the neighbour's, and the neighbour's
/// rank.
struct Link {
    rank: usize,
    tx: RecycledSender,
    rx: RecycledReceiver,
}

/// A worker's links, indexed by [`Peer`]; `None` toward the boundary.
type Links = [Option<Link>; 4];

/// Wires every neighbouring pair of tiles with two recycled links, one
/// per direction, each owning one buffer of the shared edge's length for
/// the whole solve.
fn wire(layout: BlockLayout, tiles: &[Block]) -> Vec<Links> {
    let mut links: Vec<Links> = tiles.iter().map(|_| Default::default()).collect();
    for (rank, tile) in tiles.iter().enumerate() {
        for peer in [Peer::Down, Peer::Right] {
            let Some(q) = layout.neighbour(rank, peer) else {
                continue;
            };
            let (tx_out, rx_out) = recycled_link(tile.edge_len(peer));
            let (tx_back, rx_back) = recycled_link(tile.edge_len(peer));
            links[rank][peer as usize] = Some(Link {
                rank: q,
                tx: tx_out,
                rx: rx_back,
            });
            links[q][peer.opposite() as usize] = Some(Link {
                rank,
                tx: tx_back,
                rx: rx_out,
            });
        }
    }
    links
}

/// One worker's full run: sweep, then execute the extracted
/// [`half_iteration_script`] — ship boundary edges to every neighbour,
/// then drain fresh halos — every half-iteration. Any exchange failure
/// or injected death ends the run early (dropping the worker's links,
/// which is what a neighbour observes as this worker's death).
///
/// The exchange ordering is *not* open-coded here: the script from
/// [`crate::protocol`] is the single source of truth, shared with the
/// `prodpred-analysis` model checker that exhaustively proves the
/// protocol deadlock-free for small configurations.
fn worker_loop(
    rank: usize,
    layout: BlockLayout,
    worker: &mut Worker,
    links: &mut Links,
    params: SorParams,
    options: SolveOptions,
) -> WorkerEnd {
    let script = half_iteration_script(layout, rank);
    let mut half = 0usize;
    for _ in 0..params.iterations {
        for color in [Color::Red, Color::Black] {
            if death_fires(options.kill, rank, half) {
                return WorkerEnd::Died;
            }
            worker.sweep(color, params.omega);
            for &op in &script {
                let peer = op.peer();
                let link = links[peer as usize]
                    .as_mut()
                    .expect("the script names only neighbours the layout wired"); // tidy:allow(PP003): half_iteration_script and wire both enumerate layout.neighbours
                let exchanged = match op {
                    ExchangeOp::Send(_) => link
                        .tx
                        .try_send_with(&options.policy, |buf| worker.copy_edge(peer, buf)),
                    ExchangeOp::Recv(_) => link
                        .rx
                        .try_recv_with(&options.policy, |edge| worker.set_halo(peer, edge)),
                };
                if let Err(e) = exchanged {
                    return end_of(e, link.rank);
                }
            }
            half += 1;
        }
    }
    WorkerEnd::Completed
}

/// Fallible core of the threaded solver: every ghost exchange is bounded
/// by `options.policy`, and a worker death — a panic, or `options.kill`
/// firing (rank = tile index, row-major for blocks) — returns
/// [`SolveError::WorkerDied`] instead of deadlocking or re-panicking. On
/// any error the grid is left in its initial state.
///
/// # Panics
///
/// Panics if any tile is empty (decompose with `n >> p`), if strips do
/// not tile the interior, if a block layout is finer than the interior,
/// or on invalid `omega` — configuration errors, not runtime faults.
///
/// # Errors
///
/// Returns [`SolveError::WorkerDied`] when a worker panics, an injected
/// death fires, or a neighbour exchange disconnects, and
/// [`SolveError::ExchangeTimeout`] when one exhausts its timeout budget.
pub fn try_solve_parallel<'a>(
    grid: &mut Grid,
    params: SorParams,
    decomposition: impl Into<Decomposition<'a>>,
    options: &SolveOptions,
) -> Result<(), SolveError> {
    assert!(
        params.omega > 0.0 && params.omega < 2.0,
        "omega must lie in (0,2)"
    );
    let decomposition = decomposition.into();
    if let Decomposition::Strips(strips) = decomposition {
        assert!(
            strips_are_valid(strips, grid.n() - 2),
            "strips must tile the interior rows"
        );
    }
    let layout = decomposition.layout();
    let tiles = decomposition.tiles(grid.n());
    assert!(
        tiles.iter().all(|t| t.elements() > 0),
        "every processor needs at least one cell"
    );
    if tiles.len() == 1 {
        // A single worker exchanges nothing, but an injected death still
        // kills the solve before it completes.
        if options
            .kill
            .is_some_and(|d| d.rank == 0 && d.at_half_iteration < 2 * params.iterations)
        {
            return Err(SolveError::WorkerDied { rank: 0 });
        }
        crate::seq::solve_seq(grid, params);
        return Ok(());
    }

    let links = wire(layout, &tiles);
    let mut workers: Vec<Worker> = tiles.iter().map(|t| Worker::new(grid, t)).collect();
    let ends: Vec<(usize, std::thread::Result<WorkerEnd>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = workers
            .iter_mut()
            .zip(links)
            .enumerate()
            .map(|(rank, (worker, mut link))| {
                let options = *options;
                scope.spawn(move || worker_loop(rank, layout, worker, &mut link, params, options))
            })
            .collect();
        // Joining here (rather than letting the scope do it) converts a
        // worker's panic into an inspectable result instead of a
        // propagated re-panic.
        handles
            .into_iter()
            .enumerate()
            .map(|(rank, h)| (rank, h.join()))
            .collect()
    });
    resolve(ends)?;

    for worker in &workers {
        worker.store(grid);
    }
    Ok(())
}

/// Solves in parallel over `decomposition` (strips or blocks), updating
/// `grid` in place. Bit-for-bit equal to [`crate::seq::solve_seq`].
///
/// Runs the fallible core under [`SolveOptions::reliable`]: a wedged
/// neighbour is waited out near-indefinitely, so on a healthy run this
/// behaves exactly like a blocking solve.
///
/// # Panics
///
/// Panics on the configuration errors of [`try_solve_parallel`], or if a
/// worker dies — use [`try_solve_parallel`] to handle death as a typed
/// error.
pub fn solve_parallel<'a>(
    grid: &mut Grid,
    params: SorParams,
    decomposition: impl Into<Decomposition<'a>>,
) {
    try_solve_parallel(grid, params, decomposition, &SolveOptions::reliable())
        .unwrap_or_else(|e| panic!("parallel solve failed: {e}"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decomp::{partition_equal, partition_rows};
    use crate::seq::solve_seq;

    fn solved_seq(n: usize, iters: usize) -> Grid {
        let mut g = Grid::laplace_problem(n);
        solve_seq(&mut g, SorParams::for_grid(n, iters));
        g
    }

    #[test]
    fn parallel_matches_sequential_bitwise() {
        for p in [2, 3, 4] {
            let n = 33;
            let iters = 30;
            let reference = solved_seq(n, iters);
            let mut g = Grid::laplace_problem(n);
            solve_parallel(
                &mut g,
                SorParams::for_grid(n, iters),
                &partition_equal(n - 2, p),
            );
            assert_eq!(
                g.max_diff(&reference),
                0.0,
                "p={p}: parallel differs from sequential"
            );
        }
    }

    #[test]
    fn weighted_strips_also_match() {
        let n = 25;
        let iters = 20;
        let reference = solved_seq(n, iters);
        let strips = partition_rows(n - 2, &[3.0, 1.0, 2.0]);
        let mut g = Grid::laplace_problem(n);
        solve_parallel(&mut g, SorParams::for_grid(n, iters), &strips);
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn single_worker_delegates_to_sequential() {
        let n = 17;
        let reference = solved_seq(n, 10);
        let mut g = Grid::laplace_problem(n);
        solve_parallel(
            &mut g,
            SorParams::for_grid(n, 10),
            &partition_equal(n - 2, 1),
        );
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn converges_in_parallel() {
        let n = 33;
        let mut g = Grid::laplace_problem(n);
        solve_parallel(
            &mut g,
            SorParams::for_grid(n, 400),
            &partition_equal(n - 2, 4),
        );
        assert!(g.max_residual() < 1e-9, "residual {}", g.max_residual());
    }

    #[test]
    fn many_workers_small_grid() {
        // 8 workers on 10 interior rows: some strips have 1 row.
        let n = 12;
        let iters = 15;
        let reference = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        solve_parallel(
            &mut g,
            SorParams::for_grid(n, iters),
            &partition_equal(n - 2, 8),
        );
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    #[should_panic]
    fn rejects_empty_strip() {
        // 2 interior rows across 3 workers -> an empty strip.
        let mut g = Grid::laplace_problem(4);
        solve_parallel(&mut g, SorParams::for_grid(4, 1), &partition_equal(2, 3));
    }

    fn kill_options(rank: usize, at_half_iteration: usize) -> SolveOptions {
        SolveOptions {
            policy: ExchangePolicy {
                timeout: std::time::Duration::from_millis(200),
                retries: 1,
            },
            kill: Some(WorkerDeath {
                rank,
                at_half_iteration,
            }),
        }
    }

    #[test]
    fn fallible_solve_without_faults_matches_sequential() {
        let n = 25;
        let iters = 20;
        let reference = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        let strips = partition_equal(n - 2, 4);
        try_solve_parallel(
            &mut g,
            SorParams::for_grid(n, iters),
            &strips,
            &SolveOptions::default(),
        )
        .unwrap();
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn killed_worker_returns_typed_error_and_leaves_grid_untouched() {
        // Interior ranks, edge ranks, and the very first half-iteration.
        for (rank, half) in [(1, 5), (0, 0), (3, 9), (2, 1)] {
            let n = 21;
            let initial = Grid::laplace_problem(n);
            let mut g = initial.clone();
            let strips = partition_equal(n - 2, 4);
            let err = try_solve_parallel(
                &mut g,
                SorParams::for_grid(n, 10),
                &strips,
                &kill_options(rank, half),
            )
            .unwrap_err();
            assert_eq!(err, SolveError::WorkerDied { rank }, "kill rank {rank}");
            assert_eq!(g.max_diff(&initial), 0.0, "grid must stay untouched");
        }
    }

    #[test]
    fn death_after_last_half_iteration_never_fires() {
        let n = 17;
        let iters = 8;
        let reference = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        let strips = partition_equal(n - 2, 3);
        // Half-iterations run 0..2*iters; 2*iters is past the end.
        try_solve_parallel(
            &mut g,
            SorParams::for_grid(n, iters),
            &strips,
            &kill_options(1, 2 * iters),
        )
        .unwrap();
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn death_of_out_of_range_rank_is_ignored() {
        let n = 17;
        let mut g = Grid::laplace_problem(n);
        let strips = partition_equal(n - 2, 3);
        try_solve_parallel(
            &mut g,
            SorParams::for_grid(n, 5),
            &strips,
            &kill_options(99, 0),
        )
        .unwrap();
    }

    #[test]
    fn single_worker_death_is_still_reported() {
        let n = 17;
        let initial = Grid::laplace_problem(n);
        let mut g = initial.clone();
        let strips = partition_equal(n - 2, 1);
        let err = try_solve_parallel(
            &mut g,
            SorParams::for_grid(n, 5),
            &strips,
            &kill_options(0, 3),
        )
        .unwrap_err();
        assert_eq!(err, SolveError::WorkerDied { rank: 0 });
        assert_eq!(g.max_diff(&initial), 0.0);
    }

    #[test]
    fn blocks_match_sequential_bitwise() {
        for (pr, pc) in [(2, 2), (1, 3), (3, 1), (2, 3), (3, 3)] {
            let n = 26;
            let iters = 15;
            let reference = solved_seq(n, iters);
            let mut g = Grid::laplace_problem(n);
            solve_parallel(
                &mut g,
                SorParams::for_grid(n, iters),
                BlockLayout::new(pr, pc),
            );
            assert_eq!(
                g.max_diff(&reference),
                0.0,
                "layout {pr}x{pc} differs from sequential"
            );
        }
    }

    #[test]
    fn single_block_delegates() {
        let n = 15;
        let reference = solved_seq(n, 8);
        let mut g = Grid::laplace_problem(n);
        solve_parallel(&mut g, SorParams::for_grid(n, 8), BlockLayout::new(1, 1));
        assert_eq!(g.max_diff(&reference), 0.0);
    }

    #[test]
    fn converges_with_blocks() {
        let n = 33;
        let mut g = Grid::laplace_problem(n);
        solve_parallel(&mut g, SorParams::for_grid(n, 400), BlockLayout::new(2, 2));
        assert!(g.max_residual() < 1e-9, "residual {}", g.max_residual());
    }

    #[test]
    fn killed_block_worker_returns_typed_error() {
        // Corner, edge, and interior blocks of a 3x3 layout.
        for (rank, half) in [(0, 0), (4, 3), (8, 7), (5, 2)] {
            let n = 26;
            let initial = Grid::laplace_problem(n);
            let mut g = initial.clone();
            let err = try_solve_parallel(
                &mut g,
                SorParams::for_grid(n, 10),
                BlockLayout::new(3, 3),
                &kill_options(rank, half),
            )
            .unwrap_err();
            assert_eq!(err, SolveError::WorkerDied { rank }, "kill rank {rank}");
            assert_eq!(g.max_diff(&initial), 0.0, "grid must stay untouched");
        }
    }

    #[test]
    fn fallible_block_solve_without_faults_matches_sequential() {
        let n = 22;
        let iters = 12;
        let want = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        try_solve_parallel(
            &mut g,
            SorParams::for_grid(n, iters),
            BlockLayout::new(2, 3),
            &SolveOptions::default(),
        )
        .unwrap();
        assert_eq!(g.max_diff(&want), 0.0);
    }

    #[test]
    fn uneven_blocks_still_match() {
        // Interior 11 split 3x2: ragged blocks.
        let n = 13;
        let iters = 10;
        let reference = solved_seq(n, iters);
        let mut g = Grid::laplace_problem(n);
        solve_parallel(
            &mut g,
            SorParams::for_grid(n, iters),
            BlockLayout::new(3, 2),
        );
        assert_eq!(g.max_diff(&reference), 0.0);
    }
}
