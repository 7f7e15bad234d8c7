//! Logical queue pairs on shared sockets. Every queue pair between two
//! nodes rides their one socket, and each frame names its queue pair on
//! the wire. The socket keeps what RDMA keeps per queue pair, so pumping
//! a socket touches nothing outside it; the fabric keeps each handle's
//! route to its socket and slot, and what software heard of it. This
//! module holds that state, what breaking one queue pair or a whole
//! socket takes down, and — in debug builds — the ledger's invariant.
//! The per-frame path (which queue pair a frame names, how it meets a
//! posted receive) lives beside the pump in the crate root.

use std::collections::VecDeque;

use verbs::{Delivery, QpHandle, WrId};

use crate::{Conn, ConnState, Net, Pump};

/// One end of a queue pair: what RDMA keeps per QP and side.
#[derive(Default)]
pub(crate) struct QpEnd {
    pub(crate) recvs: VecDeque<(WrId, u64)>,
    /// Two-sided frames that arrived before a receive was posted
    /// (len, imm): held, not dropped — but counted as RNR arms.
    pub(crate) held: VecDeque<(u64, u64)>,
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

/// Where a [`QpHandle`] leads, and what software has heard of it. Set at
/// connect: the nodes at its two ends, and its socket (an index in the
/// caller's socket table) and the slot there holding its state — `None`
/// when setting that socket up failed, and the queue pair was born
/// broken. Every post and [`PostingSnapshot`] is answered from the rest,
/// whichever shard owns the socket: `posted[recv][end]`, the frames
/// (`queued_sends`) and receives (`posted_recvs`) posted at each end that
/// no delivery handed out has completed yet, and whether software saw it
/// break or broke it (a post is refused).
pub(crate) struct Route {
    pub(crate) nodes: [usize; 2],
    pub(crate) at: Option<(usize, usize)>,
    pub(crate) posted: [[usize; 2]; 2],
    pub(crate) broken: bool,
}

impl Route {
    pub(crate) fn new(nodes: [usize; 2], at: Option<(usize, usize)>) -> Route {
        Route {
            nodes,
            at,
            posted: [[0; 2]; 2],
            broken: at.is_none(),
        }
    }
}

/// Follows a delivery handed out into what software has heard of the
/// queue pair it names: a completion takes one post off its count, a
/// break marks it broken.
pub(crate) fn see(routes: &mut [Route], delivery: &Delivery) {
    let (qp, recv) = match *delivery {
        Delivery::SendDone { qp, .. } | Delivery::WriteDone { qp, .. } => (qp, false),
        Delivery::RecvDone { qp, .. } => (qp, true),
        Delivery::WrFlushed { qp, recv, .. } => (qp, recv),
        Delivery::QpBroken { qp } => {
            routes[qp.conn_id() as usize].broken = true;
            return;
        }
        _ => return,
    };
    let route = &mut routes[qp.conn_id() as usize];
    let posts = &mut route.posted[usize::from(recv)][usize::from(qp.endpoint())];
    *posts = posts.saturating_sub(1);
}

impl<N: Net> Conn<N> {
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
    pub(crate) fn break_qp(&mut self, slot: usize, p: &mut Pump<N>) {
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
    /// shut down. Whatever was queued or in flight leaves the ledger, the
    /// shard reports the break, and the node pair's next connect opens a
    /// fresh socket.
    pub(crate) fn break_all(&mut self, p: &mut Pump<N>) {
        if self.state == ConnState::Broken {
            return;
        }
        self.state = ConnState::Broken;
        p.broke.push(self.id);
        for slot in 0..self.qps.len() {
            self.break_qp(slot, p);
        }
        for ep in &mut self.eps {
            ep.out.clear(); // orphans
            let _ = p.net.shutdown(&ep.stream);
        }
    }
}

/// The ledger's invariant on one shard's sockets, checked at every lap
/// end: no end has read more than its peer wrote.
#[cfg(debug_assertions)]
pub(crate) fn check_sockets<N: Net>(conns: &[Conn<N>]) {
    for c in conns {
        let read = (0..2).all(|end| c.eps[end].wire_read <= c.eps[1 - end].wire_sent);
        assert!(read, "socket {}: read past the peer's writes", c.id);
    }
}
