//! The ghost-exchange protocol as data: the exact per-half-iteration
//! sequence of mailbox operations every tile worker performs, extracted
//! from the solver so that (a) [`crate::parallel`]'s worker loop *executes*
//! this script rather than open-coding it, and (b) the bounded model
//! checker in `prodpred-analysis` can *exhaustively verify* the very same
//! ordering for deadlock freedom, lost messages, and double delivery —
//! covering every interleaving the chaos campaign only samples.
//!
//! The protocol is the classic "push then pull" phase structure: each
//! half-iteration a worker first ships its boundary edges to every live
//! neighbour, then drains every neighbour's edge into its halo. Sends
//! precede receives unconditionally; within each group the neighbours
//! come in the fixed order up, down, left, right. A strip is a tile in a
//! `p x 1` layout, so it has only up and down neighbours and its script
//! is the 1-D chain's. Any reordering here changes the blocking structure
//! the deadlock-freedom argument (and the model checker's proof) rests
//! on, which is exactly why the order lives in one place.

use crate::decomp2d::BlockLayout;

/// A neighbour of a tile worker in the processor grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Peer {
    /// The worker owning the tile above.
    Up,
    /// The worker owning the tile below.
    Down,
    /// The worker owning the tile to the left.
    Left,
    /// The worker owning the tile to the right.
    Right,
}

impl Peer {
    /// Every direction, in script order.
    pub const ALL: [Peer; 4] = [Peer::Up, Peer::Down, Peer::Left, Peer::Right];

    /// The direction pointing back from the neighbour.
    pub fn opposite(self) -> Peer {
        match self {
            Peer::Up => Peer::Down,
            Peer::Down => Peer::Up,
            Peer::Left => Peer::Right,
            Peer::Right => Peer::Left,
        }
    }
}

/// One mailbox operation of the ghost-exchange phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExchangeOp {
    /// Ship this worker's boundary edge toward `Peer` (top row goes Up,
    /// left column goes Left, ...) through the recycled link: reclaim the
    /// in-flight buffer, fill it, deposit it in the data mailbox.
    Send(Peer),
    /// Drain the edge arriving from `Peer` into the matching halo,
    /// returning the buffer through the reverse mailbox.
    Recv(Peer),
}

impl ExchangeOp {
    /// The neighbour this operation talks to.
    pub fn peer(self) -> Peer {
        match self {
            ExchangeOp::Send(peer) | ExchangeOp::Recv(peer) => peer,
        }
    }
}

/// The exchange script worker `rank` of `layout` runs every
/// half-iteration, in execution order: a send to each existing neighbour,
/// then a receive from each, both in [`Peer::ALL`] order.
///
/// A single-worker layout exchanges nothing and gets an empty script.
///
/// # Panics
///
/// Panics if `rank` lies outside the layout.
pub fn half_iteration_script(layout: BlockLayout, rank: usize) -> Vec<ExchangeOp> {
    let sends = layout
        .neighbours(rank)
        .map(|(peer, _)| ExchangeOp::Send(peer));
    let recvs = layout
        .neighbours(rank)
        .map(|(peer, _)| ExchangeOp::Recv(peer));
    sends.chain(recvs).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ExchangeOp::{Recv, Send};
    use Peer::{Down, Left, Right, Up};

    fn chain(ranks: usize) -> BlockLayout {
        BlockLayout::new(ranks, 1)
    }

    #[test]
    fn interior_worker_talks_both_ways_sends_first() {
        assert_eq!(
            half_iteration_script(chain(3), 1),
            vec![Send(Up), Send(Down), Recv(Up), Recv(Down)]
        );
        assert_eq!(
            half_iteration_script(BlockLayout::new(3, 3), 4),
            vec![
                Send(Up),
                Send(Down),
                Send(Left),
                Send(Right),
                Recv(Up),
                Recv(Down),
                Recv(Left),
                Recv(Right)
            ]
        );
    }

    #[test]
    fn edge_workers_skip_the_missing_neighbour() {
        assert_eq!(
            half_iteration_script(chain(2), 0),
            vec![Send(Down), Recv(Down)]
        );
        assert_eq!(half_iteration_script(chain(2), 1), vec![Send(Up), Recv(Up)]);
        assert_eq!(
            half_iteration_script(BlockLayout::new(2, 2), 3),
            vec![Send(Up), Send(Left), Recv(Up), Recv(Left)]
        );
    }

    #[test]
    fn single_worker_exchanges_nothing() {
        assert!(half_iteration_script(chain(1), 0).is_empty());
    }

    #[test]
    fn peer_rank_arithmetic() {
        assert_eq!(chain(4).neighbour(2, Up), Some(1));
        assert_eq!(chain(4).neighbour(2, Down), Some(3));
        assert_eq!(chain(4).neighbour(2, Left), None);
        let square = BlockLayout::new(3, 3);
        assert_eq!(square.neighbour(4, Up), Some(1));
        assert_eq!(square.neighbour(4, Right), Some(5));
        for peer in Peer::ALL {
            assert_eq!(peer.opposite().opposite(), peer);
            if let Some(q) = square.neighbour(4, peer) {
                assert_eq!(square.neighbour(q, peer.opposite()), Some(4));
            }
        }
    }
}
