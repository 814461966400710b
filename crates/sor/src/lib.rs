//! # prodpred-sor
//!
//! Distributed Red-Black Successive Over-Relaxation — the application the
//! paper validates its stochastic predictions on (Section 2.2.1).
//!
//! Three executions of the same algorithm:
//!
//! * [`seq`] — the sequential reference solver,
//! * [`parallel`] — a real multithreaded, shared-nothing implementation
//!   (one thread per tile, ghost-edge exchange over channels), bit-for-bit
//!   equal to the sequential solver,
//! * [`distsim`] — a simulated *distributed* execution on a
//!   [`prodpred_simgrid::Platform`], integrating compute against CPU
//!   availability traces and ghost transfers against the shared
//!   ethernet, including the loose-synchronization skew of the paper's
//!   Figure 7. This is what generates the "actual execution times" in the
//!   experiment harness.
//!
//! Both the threaded solver and the simulator run over one
//! [`Decomposition`]: the paper's strips ([`decomp`], equal and
//! capacity-weighted per its footnote 2), lifted to tiles of a `p x 1`
//! layout, or a 2D block layout ([`decomp2d`], used by the strip-vs-block
//! ablation). Plus the [`grid`] data structure, the shared slice-based
//! relaxation [`kernel`] every solver runs, the exchange order as data
//! ([`protocol`]), the zero-allocation ghost [`exchange`] the threaded
//! solver communicates through, and [`checkpoint`]/restart, so a killed
//! worker resumes from the last consistent red/black iteration boundary
//! instead of iteration 0.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Public-facing code returns typed errors instead of unwrapping; tests
// may unwrap freely.
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod checkpoint;
pub mod decomp;
pub mod decomp2d;
pub mod distsim;
pub mod exchange;
pub mod grid;
pub mod kernel;
pub mod parallel;
pub mod protocol;
pub mod seq;

pub use checkpoint::{
    resume_from, try_solve_checkpointed, Checkpoint, CheckpointError, CheckpointPolicy,
    CheckpointStore, CHECKPOINT_VERSION,
};
pub use decomp::{partition_equal, partition_rows, Strip};
pub use decomp2d::{partition_blocks, Block, BlockLayout, Decomposition};
pub use distsim::{simulate, simulate_with, DistSorConfig, DistSorResult};
pub use exchange::{ExchangeError, ExchangePolicy};
pub use grid::{optimal_omega, Color, Grid};
pub use parallel::{solve_parallel, try_solve_parallel, SolveError, SolveOptions};
pub use seq::{solve_seq, solve_until, sweep_iteration, SorParams};
