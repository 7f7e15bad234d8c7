//! Logical queue pairs on shared sockets. Every queue pair between two
//! nodes rides their one socket, and each frame names its queue pair on
//! the wire. This module holds what RDMA keeps per queue pair, what
//! breaking one queue pair or a whole socket takes down, and — in debug
//! builds — the ledger's invariants. The per-frame path (which queue
//! pair a frame names, how it meets a posted receive) lives beside the
//! pump in the crate root.

use std::collections::VecDeque;
use std::net::Shutdown;

use verbs::{Delivery, QpHandle, WrId};

use crate::{ConnState, TcpFabric};

/// One end of a queue pair: what RDMA keeps per QP and side.
pub(crate) struct QpEnd {
    pub(crate) node: usize,
    pub(crate) recvs: VecDeque<(WrId, u64)>,
    /// Two-sided frames that arrived before a receive was posted
    /// (len, imm): held, not dropped — but counted as RNR arms.
    pub(crate) held: VecDeque<(u64, u64)>,
    /// This end's frames still in its socket end's queue.
    pub(crate) queued: usize,
}

/// A logical queue pair on its node pair's socket. [`QpHandle`]s name
/// it by its index in `TcpFabric::qps`, which frames carry on the wire.
pub(crate) struct Qp {
    /// The socket that carries it; `None` when setting that socket up
    /// failed, and the queue pair was born broken.
    pub(crate) conn: Option<usize>,
    /// Queue-pair end `e` sits on socket end `e ^ flip`.
    pub(crate) flip: usize,
    pub(crate) ends: [QpEnd; 2],
    pub(crate) broken: bool,
}

impl TcpFabric {
    /// Breaks one queue pair and leaves its socket mates running. At
    /// each *live* end, every outstanding work request is flushed in
    /// posting order (its queued frames first, then its posted
    /// receives), then the `QpBroken` notice lands. Unstarted frames
    /// leave the socket queue; one already part-way onto the wire stays
    /// as an orphan that finishes, keeping the byte stream in sync, and
    /// completes nothing.
    pub(crate) fn break_qp_now(&mut self, q: usize) {
        let Qp { conn, flip, .. } = self.qps[q];
        if std::mem::replace(&mut self.qps[q].broken, true) {
            return;
        }
        for end in 0..2 {
            let mut frames = Vec::new();
            if let Some(ci) = conn {
                let out = &mut self.conns[ci].eps[end ^ flip].out;
                frames.extend(out.iter().filter(|f| f.qp as usize == q).map(|f| f.wr_id));
                let before = out.len();
                out.retain(|f| f.qp as usize != q || f.started());
                self.queued -= before - out.len();
            }
            let qp_end = &mut self.qps[q].ends[end];
            qp_end.queued = 0;
            qp_end.held.clear();
            let recvs: Vec<WrId> = qp_end.recvs.drain(..).map(|(wr, _)| wr).collect();
            let node = qp_end.node;
            let qp = QpHandle::from_parts(q as u32, end as u8);
            for (wr_ids, recv) in [(frames, false), (recvs, true)] {
                for wr_id in wr_ids {
                    self.push_delivery(node, Delivery::WrFlushed { qp, wr_id, recv });
                }
            }
            self.push_delivery(node, Delivery::QpBroken { qp });
        }
    }

    /// Breaks a socket now: every queue pair it carries breaks as
    /// [`Self::break_qp_now`] breaks one, in creation order, then the
    /// streams shut down and the node pair's next connect opens a
    /// fresh socket.
    pub(crate) fn break_conn_now(&mut self, ci: usize) {
        let conn = &mut self.conns[ci];
        if conn.state == ConnState::Broken {
            return;
        }
        conn.state = ConnState::Broken;
        // Whatever was queued or in flight here leaves the ledger.
        self.in_flight -= conn.in_flight_to(0) + conn.in_flight_to(1);
        let (a, b) = (conn.eps[0].node, conn.eps[1].node);
        self.pairs.remove(&(a.min(b), a.max(b)));
        for q in 0..self.qps.len() {
            if self.qps[q].conn == Some(ci) {
                self.break_qp_now(q);
            }
        }
        for ep in &mut self.conns[ci].eps {
            self.queued -= ep.out.len(); // orphans
            ep.out.clear();
            let _ = ep.stream.shutdown(Shutdown::Both);
        }
    }

    /// The ledger's invariants: its sums are the sums of what they sum,
    /// no end has read more than its peer wrote, and each queue-pair
    /// end counts exactly its frames in its socket end's queue.
    #[cfg(debug_assertions)]
    pub(crate) fn check_ledger(&self) {
        let (mut queued, mut in_flight) = (0, 0);
        let mut per_end = vec![[0usize; 2]; self.qps.len()];
        for (ci, conn) in self.conns.iter().enumerate() {
            for (end, ep) in conn.eps.iter().enumerate() {
                let peer_sent = conn.eps[1 - end].wire_sent;
                assert!(
                    ep.wire_read <= peer_sent,
                    "conn {ci}: read past the peer's writes"
                );
                if conn.state != ConnState::Broken {
                    in_flight += peer_sent - ep.wire_read;
                }
                queued += ep.out.len();
                for f in &ep.out {
                    if let Some((q, qend)) = self.sender_of(ci, end, f.qp) {
                        per_end[q][qend] += 1;
                    }
                }
            }
        }
        assert_eq!(
            (queued, in_flight),
            (self.queued, self.in_flight),
            "ledger sums"
        );
        let counted: Vec<_> = self
            .qps
            .iter()
            .map(|p| p.ends.each_ref().map(|e| e.queued))
            .collect();
        assert_eq!(counted, per_end, "frames queued per queue-pair end");
    }
}
