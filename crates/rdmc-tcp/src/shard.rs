//! Shards: every socket lives in one for its whole life. A shard is its
//! sockets, its [`Pump`], its sweep state and its lap cursor, and
//! [`Shard::apply`] and [`Shard::step`] are the only code that changes
//! them. The caller drives its own shard inline; the second one, dealt
//! sockets on a host with a second core, is a [`Worker`]: a pump thread
//! that turns it ([`Shard::turn`]), or in tests a seeded stepped driver
//! that turns it on the calling thread. [`Order`]s go in, in posting
//! order, and [`Report`]s come back, in the order they happened, each
//! delivery on its own: nothing is shared, so nothing is locked, and no
//! heap buffer crosses between the threads per batch. A pump thread
//! that dies is an error the caller records, never a panic: see
//! [`Worker::next`].

use std::io;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

use verbs::{Delivery, NodeId, WrId};

use crate::frame::OutFrame;
use crate::qp::Qp;
use crate::{Conn, ConnState, Net, Pump, FAILURE_DETECT_NS, SCRATCH};

/// What is asked of a shard. Sockets are named by their index in the
/// shard, which `Adopt` grows.
pub(crate) enum Order<N: Net> {
    /// A socket dealt to the shard.
    Adopt(Box<Conn<N>>),
    /// Queue pair `id` opened on socket `conn`, its end `e` on socket end
    /// `e ^ flip`.
    Qp { conn: usize, id: u32, flip: usize },
    /// A frame posted at end `end` of the queue pair in `slot`.
    Frame {
        conn: usize,
        slot: usize,
        end: usize,
        frame: OutFrame,
    },
    /// A receive posted at end `end` of the queue pair in `slot`.
    Recv {
        conn: usize,
        slot: usize,
        end: usize,
        recv: (WrId, u64),
    },
    /// Break the queue pair in `slot`.
    BreakQp { conn: usize, slot: usize },
    /// A node crashed: its sockets start dying, and what was queued for
    /// its software vanishes.
    Crash(usize),
    /// Socket `conn`'s failure-detect deadline passed.
    Expire(usize),
    /// Read every socket once, whatever the ledger says.
    Sweep,
}

/// What a worker tells the caller.
pub(crate) enum Report {
    /// A delivery, in the order they happened (the caller stamps it as
    /// it arrives).
    Delivered(NodeId, Delivery),
    /// The socket with this index in the caller's table broke; its queue
    /// pairs' notices went ahead.
    Broke(usize),
    /// A lap ended: how many orders were applied when it began, its
    /// shard's RNR arms so far, and whether it parked (every order so far
    /// applied, its shard settled: it waits for the next order).
    Lap(u64, u64, bool),
}

pub(crate) struct Shard<N: Net> {
    pub(crate) conns: Vec<Conn<N>>,
    pub(crate) pump: Pump<N>,
    /// The next socket direction the lap pumps (`2 * socket + end`).
    pub(crate) cursor: usize,
    /// Whether the lap in progress reads every socket, and whether it
    /// has moved any bytes yet (once it ended: whether the last lap read
    /// every socket, and moved any); when the last sweep began.
    pub(crate) sweep: bool,
    pub(crate) moved: bool,
    pub(crate) swept: bool,
    last_sweep: u64,
    /// Orders applied, how many of them the lap in progress began with,
    /// and the last such count a worker reported.
    applied: u64,
    began: u64,
    reported: u64,
}

impl<N: Net> Shard<N> {
    /// An empty shard of `n` nodes, none crashed, pumping through `net`.
    pub(crate) fn new(n: usize, net: N) -> Shard<N> {
        Shard {
            conns: Vec::new(),
            pump: Pump {
                crashed: vec![false; n],
                net,
                scratch: vec![0; SCRATCH / 32],
                ready: Default::default(),
                broke: Vec::new(),
                rnr_arms: 0,
                io_errors: Vec::new(),
            },
            cursor: 0,
            sweep: false,
            moved: false,
            swept: false,
            last_sweep: 0,
            applied: 0,
            began: 0,
            reported: 0,
        }
    }

    /// Whether a failure-detect interval passed since the last sweep.
    pub(crate) fn sweep_due(&self, now: u64) -> bool {
        now - self.last_sweep >= FAILURE_DETECT_NS
    }

    pub(crate) fn apply(&mut self, order: Order<N>) {
        self.applied += 1;
        let p = &mut self.pump;
        match order {
            Order::Adopt(conn) => self.conns.push(*conn),
            Order::Qp { conn, id, flip } => {
                let c = &mut self.conns[conn];
                debug_assert!(c.qps.last().is_none_or(|q| q.id < id), "ids ascend");
                let (ends, broken) = Default::default();
                c.qps.push(Qp {
                    id,
                    flip,
                    ends,
                    broken,
                });
                // The socket broke before the caller heard: the queue
                // pair is born broken.
                if c.state == ConnState::Broken {
                    c.break_qp(c.qps.len() - 1, p);
                }
            }
            Order::Frame {
                conn,
                slot,
                end,
                frame,
            } => {
                let c = &mut self.conns[conn];
                debug_assert_eq!(c.qps[slot].id, frame.qp, "the route names its slot");
                if !c.flushes(slot, end, frame.wr_id, false, p) {
                    c.eps[end ^ c.qps[slot].flip].out.push_back(frame);
                }
            }
            // A frame held for want of a receive takes it at once.
            Order::Recv {
                conn,
                slot,
                end,
                recv,
            } => {
                let c = &mut self.conns[conn];
                if !c.flushes(slot, end, recv.0, true, p) {
                    match c.qps[slot].ends[end].held.pop_front() {
                        Some(send) => c.land(slot, end, recv, send, p),
                        None => c.qps[slot].ends[end].recvs.push_back(recv),
                    }
                }
            }
            Order::BreakQp { conn, slot } => self.conns[conn].break_qp(slot, p),
            // A live socket the dead node is on starts dying: the dead side
            // flushes nothing more, and what it had queued dies with the
            // break.
            Order::Crash(node) => {
                p.crashed[node] = true;
                p.ready.retain(|(_, n, _)| n.index() != node);
                for c in &mut self.conns {
                    if c.state == ConnState::Alive && c.eps.iter().any(|ep| ep.node == node) {
                        c.state = ConnState::Dying;
                    }
                }
            }
            // Pre-crash data the dead end already flushed is genuinely on
            // the wire, so it is delivered before the break, matching the
            // simulated fabric where a completed transfer is a delivered
            // transfer.
            Order::Expire(conn) => {
                let c = &mut self.conns[conn];
                for end in 0..2 {
                    c.read_endpoint(end, false, p);
                }
                c.break_all(p);
            }
            Order::Sweep => self.sweep = true,
        }
    }

    /// Resumes the lap at the cursor and pumps socket directions until
    /// one delivers (the caller hands that out first, then steps again)
    /// or the lap ends; returns whether it ended. A lap's first step
    /// decides whether it sweeps.
    pub(crate) fn step(&mut self) -> bool {
        if self.cursor == 0 {
            let now = self.pump.now_ns();
            self.sweep |= self.sweep_due(now);
            if self.sweep {
                self.last_sweep = now;
            }
            self.moved = false;
            self.began = self.applied;
        }
        while self.cursor < 2 * self.conns.len() {
            let (ci, tx) = (self.cursor / 2, self.cursor % 2);
            self.cursor += 1;
            self.moved |= self.conns[ci].pump_direction(tx, self.sweep, &mut self.pump);
            if !self.pump.ready.is_empty() {
                return false;
            }
        }
        self.cursor = 0;
        self.swept = std::mem::take(&mut self.sweep);
        #[cfg(debug_assertions)]
        crate::qp::check_sockets(&self.conns);
        true
    }

    /// One turn of a shard the caller does not drive: apply `orders`,
    /// take one step, and report what they delivered, the sockets that
    /// broke and a lap's end. Never blocks: returns whether the shard may
    /// park, that is whether a lap ended with no order applied since it
    /// began and every socket settled.
    pub(crate) fn turn(
        &mut self,
        orders: impl Iterator<Item = Order<N>>,
        report: &mut impl FnMut(Report),
    ) -> bool {
        for order in orders {
            self.apply(order);
        }
        let ended = self.step();
        for (_, node, delivery) in self.pump.ready.drain(..) {
            report(Report::Delivered(node, delivery));
        }
        for sock in self.pump.broke.drain(..) {
            report(Report::Broke(sock));
        }
        if !ended {
            return false;
        }
        let park = self.applied == self.began && self.conns.iter().all(Conn::settled);
        if self.began > self.reported || park {
            self.reported = self.began;
            report(Report::Lap(self.began, self.pump.rnr_arms, park));
        }
        park
    }
}

/// The caller's end of the second shard.
pub(crate) struct Worker<N: Net> {
    pub(crate) link: Link<N>,
    /// Orders sent, and how many of them a finished lap began with.
    sent: u64,
    caught: u64,
    parked: bool,
    pub(crate) rnr_arms: u64,
}

pub(crate) enum Link<N: Net> {
    Thread {
        orders: Sender<Order<N>>,
        reports: Receiver<Report>,
        thread: JoinHandle<Shard<N>>,
    },
    #[cfg(test)]
    Stepped(Box<crate::tests::Stepped<N>>),
}

impl<N: Net> Worker<N> {
    /// A pump thread turning `shard`, if the host can start one.
    pub(crate) fn thread(shard: Shard<N>) -> Option<Worker<N>> {
        let (orders, inbox) = std::sync::mpsc::channel();
        let (outbox, reports) = std::sync::mpsc::channel();
        let named = std::thread::Builder::new().name("rdmc-tcp-pump".into());
        let thread = named.spawn(move || work(shard, &inbox, &outbox)).ok()?;
        Some(Worker::new(Link::Thread {
            orders,
            reports,
            thread,
        }))
    }

    pub(crate) fn new(link: Link<N>) -> Worker<N> {
        Worker {
            link,
            sent: 0,
            caught: 0,
            parked: true,
            rnr_arms: 0,
        }
    }

    /// Sends an order. One sent to a dead thread dies with it;
    /// [`Worker::next`] tells the caller.
    pub(crate) fn order(&mut self, order: Order<N>) {
        self.sent += 1;
        match &mut self.link {
            Link::Thread { orders, .. } => {
                let _ = orders.send(order);
            }
            #[cfg(test)]
            Link::Stepped(s) => s.inbox.push_back(order),
        }
    }

    /// The next report, if one came through; lap ends are taken in here.
    ///
    /// # Errors
    ///
    /// Once every report it sent was taken, a pump thread that died (it
    /// panicked, and its shard and sockets went with it) is an error:
    /// the caller must stop ordering this worker.
    pub(crate) fn next(&mut self) -> io::Result<Option<Report>> {
        let report = match &mut self.link {
            Link::Thread { reports, .. } => reports.try_recv(),
            #[cfg(test)]
            Link::Stepped(s) => s.next(),
        };
        let report = match report {
            Ok(report) => report,
            Err(TryRecvError::Empty) => return Ok(None),
            Err(TryRecvError::Disconnected) => {
                return Err(io::Error::other("the pump worker died"))
            }
        };
        if let Report::Lap(applied, rnr_arms, parked) = report {
            (self.caught, self.rnr_arms, self.parked) = (applied, rnr_arms, parked);
        }
        Ok(Some(report))
    }

    /// Lets the shard move on: a thread runs by itself, so this is one
    /// spin; the stepped driver turns it once.
    pub(crate) fn wait(&mut self) {
        match &mut self.link {
            Link::Thread { .. } => std::hint::spin_loop(),
            #[cfg(test)]
            Link::Stepped(s) => s.turn(),
        }
    }

    /// Whether a lap has run since the last order was sent: what the
    /// caller posted so far has been flushed and read back, and its
    /// deliveries reported.
    pub(crate) fn caught_up(&self) -> bool {
        self.caught == self.sent
    }

    /// Parked with every order applied: its shard is settled, and no
    /// report is on its way.
    pub(crate) fn idle(&self) -> bool {
        self.parked && self.caught_up()
    }

    /// Closes the shard's inbox and takes it back (`None`: its thread
    /// panicked).
    pub(crate) fn stop(self) -> Option<Shard<N>> {
        match self.link {
            Link::Thread { orders, thread, .. } => {
                drop(orders);
                thread.join().ok()
            }
            #[cfg(test)]
            Link::Stepped(s) => Some(s.shard),
        }
    }
}

/// The pump thread: turns its shard while it has work — spinning, never
/// sleeping — and waits on its inbox only once it may park. Returns its
/// shard when the caller closes the inbox.
fn work<N: Net>(
    mut shard: Shard<N>,
    inbox: &Receiver<Order<N>>,
    outbox: &Sender<Report>,
) -> Shard<N> {
    let mut woken = None;
    loop {
        let mut gone = false;
        let waiting = std::iter::from_fn(|| match inbox.try_recv() {
            Ok(order) => Some(order),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => {
                gone = true;
                None
            }
        });
        let orders = woken.take().into_iter().chain(waiting);
        let park = shard.turn(orders, &mut |report| {
            let _ = outbox.send(report);
        });
        if gone {
            return shard;
        }
        if park {
            match inbox.recv() {
                Ok(order) => woken = Some(order),
                Err(_) => return shard,
            }
        }
    }
}
