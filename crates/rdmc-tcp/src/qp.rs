//! Logical queue pairs on shared sockets. Every queue pair between two
//! nodes rides their one socket, and each frame names its queue pair on
//! the wire. The socket keeps what RDMA keeps per queue pair, so pumping
//! a socket touches nothing outside it; the fabric keeps only each
//! handle's route to its socket and slot. This module holds that state,
//! what breaking one queue pair or a whole socket takes down, and — in
//! debug builds — the ledger's invariants. The per-frame path (which
//! queue pair a frame names, how it meets a posted receive) lives beside
//! the pump in the crate root.

use std::collections::VecDeque;
use std::net::Shutdown;

use verbs::{Delivery, PostingSnapshot, QpHandle, WrId};

use crate::{Conn, ConnState, Pump, TcpFabric};

/// One end of a queue pair: what RDMA keeps per QP and side.
#[derive(Default)]
pub(crate) struct QpEnd {
    pub(crate) recvs: VecDeque<(WrId, u64)>,
    /// Two-sided frames that arrived before a receive was posted
    /// (len, imm): held, not dropped — but counted as RNR arms.
    pub(crate) held: VecDeque<(u64, u64)>,
    /// This end's frames still in its socket end's queue.
    pub(crate) queued: usize,
}

/// A logical queue pair, kept by the socket that carries it.
pub(crate) struct Qp {
    /// Its name: the index of its route in `TcpFabric::qps`, which
    /// [`QpHandle`]s and its frames on the wire carry.
    pub(crate) id: u32,
    /// Queue-pair end `e` sits on socket end `e ^ flip`.
    pub(crate) flip: usize,
    pub(crate) ends: [QpEnd; 2],
    pub(crate) broken: bool,
}

/// Where a [`QpHandle`] leads: the nodes at its two ends, the shard
/// holding its socket (the worker's, if `away`), and the socket's index
/// there and the slot in that socket's `qps` holding its state — `None`
/// when setting that socket up failed, and the queue pair was born
/// broken. Set once, at connect.
pub(crate) struct Route {
    pub(crate) nodes: [usize; 2],
    pub(crate) away: bool,
    pub(crate) at: Option<(usize, usize)>,
    /// What software has seen of it, for posts and snapshots the caller
    /// answers without the worker's state.
    pub(crate) seen: Seen,
}

impl Route {
    pub(crate) fn new(nodes: [usize; 2], away: bool, at: Option<(usize, usize)>) -> Route {
        let seen = Seen {
            broken: at.is_none(),
            ..Seen::default()
        };
        Route {
            nodes,
            away,
            at,
            seen,
        }
    }
}

/// A queue pair on the worker's shard as software sees it: per end, the
/// frames and receives posted that no delivery has completed yet, and
/// whether it broke (software saw the notice, or broke it itself).
#[derive(Default)]
pub(crate) struct Seen {
    pub(crate) queued: [usize; 2],
    pub(crate) recvs: [usize; 2],
    pub(crate) broken: bool,
}

impl Seen {
    pub(crate) fn snapshot(&self, end: usize) -> PostingSnapshot {
        PostingSnapshot {
            queued_sends: self.queued[end],
            posted_recvs: self.recvs[end],
            broken: self.broken,
            ..PostingSnapshot::default()
        }
    }
}

/// Follows one of the worker's deliveries into what software has seen of
/// the queue pair it names: a completion takes one post off its count, a
/// break marks it broken.
pub(crate) fn see(routes: &mut [Route], delivery: &Delivery) {
    let (qp, completes) = match *delivery {
        Delivery::SendDone { qp, .. }
        | Delivery::WriteDone { qp, .. }
        | Delivery::WrFlushed {
            qp, recv: false, ..
        } => (qp, Some(false)),
        Delivery::RecvDone { qp, .. } | Delivery::WrFlushed { qp, recv: true, .. } => {
            (qp, Some(true))
        }
        Delivery::QpBroken { qp } => (qp, None),
        _ => return,
    };
    let (seen, end) = (
        &mut routes[qp.conn_id() as usize].seen,
        usize::from(qp.endpoint()),
    );
    match completes {
        Some(recv) => {
            let posts = if recv {
                &mut seen.recvs
            } else {
                &mut seen.queued
            };
            posts[end] = posts[end].saturating_sub(1);
        }
        None => seen.broken = true,
    }
}

impl Conn {
    /// The slot of queue pair `id`, if this socket carries it. Slots are
    /// in creation order, so ids ascend.
    pub(crate) fn slot_of(&self, id: u32) -> Option<usize> {
        self.qps.binary_search_by_key(&id, |qp| qp.id).ok()
    }

    /// Breaks the queue pair in `slot` and leaves its socket mates
    /// running. At each *live* end, every outstanding work request is
    /// flushed in posting order (its queued frames first, then its posted
    /// receives), then the `QpBroken` notice lands. Unstarted frames
    /// leave the socket queue; one already part-way onto the wire stays
    /// as an orphan that finishes, keeping the byte stream in sync, and
    /// completes nothing.
    pub(crate) fn break_qp(&mut self, slot: usize, p: &mut Pump) {
        let Qp { id, flip, .. } = self.qps[slot];
        if std::mem::replace(&mut self.qps[slot].broken, true) {
            return;
        }
        for end in 0..2 {
            let ep = &mut self.eps[end ^ flip];
            let frames: Vec<WrId> = ep
                .out
                .iter()
                .filter(|f| f.qp == id)
                .map(|f| f.wr_id)
                .collect();
            ep.out.retain(|f| f.qp != id || f.started());
            let node = ep.node;
            let recvs = std::mem::take(&mut self.qps[slot].ends[end]).recvs;
            let sends = frames.into_iter().map(|wr_id| (wr_id, false));
            let qp = QpHandle::from_parts(id, end as u8);
            for (wr_id, recv) in sends.chain(recvs.into_iter().map(|(wr_id, _)| (wr_id, true))) {
                p.push(node, Delivery::WrFlushed { qp, wr_id, recv });
            }
            p.push(node, Delivery::QpBroken { qp });
        }
    }

    /// Breaks the socket now: every queue pair it carries breaks as
    /// [`Self::break_qp`] breaks one, in creation order, then the streams
    /// shut down. Whatever was queued or in flight leaves the ledger, and
    /// the node pair's next connect opens a fresh socket.
    pub(crate) fn break_all(&mut self, p: &mut Pump) {
        if self.state == ConnState::Broken {
            return;
        }
        self.state = ConnState::Broken;
        for slot in 0..self.qps.len() {
            self.break_qp(slot, p);
        }
        for ep in &mut self.eps {
            ep.out.clear(); // orphans
            let _ = ep.stream.shutdown(Shutdown::Both);
        }
    }
}

impl TcpFabric {
    /// The ledger's invariants on the caller's shard: every route there
    /// leads to the queue pair it names, and its sockets' share.
    #[cfg(debug_assertions)]
    pub(crate) fn check_ledger(&self) {
        for (q, route) in self.qps.iter().enumerate() {
            if let Some((ci, slot)) = route.at.filter(|_| !route.away) {
                assert_eq!(self.conns[ci].qps[slot].id as usize, q, "route");
            }
        }
        check_sockets(&self.conns);
    }
}

/// The ledger's invariants on one shard's sockets, checked at every lap
/// end: no end has read more than its peer wrote, and each queue-pair
/// end counts exactly its frames in its socket end's queue.
#[cfg(debug_assertions)]
pub(crate) fn check_sockets(conns: &[Conn]) {
    for (ci, conn) in conns.iter().enumerate() {
        for (end, ep) in conn.eps.iter().enumerate() {
            let peer_sent = conn.eps[1 - end].wire_sent;
            assert!(
                ep.wire_read <= peer_sent,
                "conn {ci}: read past the peer's writes"
            );
        }
        for qp in &conn.qps {
            let mine = |end: usize| conn.eps[end ^ qp.flip].out.iter().filter(|f| f.qp == qp.id);
            let counted = [0, 1].map(|end| if qp.broken { 0 } else { mine(end).count() });
            assert_eq!(
                qp.ends.each_ref().map(|e| e.queued),
                counted,
                "conn {ci}: frames queued per end of queue pair {}",
                qp.id
            );
        }
    }
}
