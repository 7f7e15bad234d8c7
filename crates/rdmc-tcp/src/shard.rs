//! The second shard: a pump thread that owns the sockets `open_socket`
//! deals it, for their whole life, and runs the lap over them with no
//! barrier. The caller keeps everything else — the `Cluster`, the
//! timers, `connect` and every post — and talks to it over two channels:
//! [`Order`]s go in, in posting order, and [`Report`]s come back, in the
//! order they happened. Nothing is shared, so nothing is locked.

use std::collections::VecDeque;
use std::sync::mpsc::{Receiver, Sender, TryRecvError};
use std::thread::JoinHandle;

use simnet::SimTime;
use verbs::{Delivery, NodeId, WrId};

use crate::frame::OutFrame;
use crate::qp::Qp;
use crate::{Conn, ConnState, Pump, FAILURE_DETECT_NS};

/// What the caller asks of the worker. Sockets are named by their index
/// in the worker's table, which `Adopt` grows.
pub(crate) enum Order {
    /// A socket dealt to the worker.
    Adopt(Conn),
    /// A queue pair opened on socket `conn`.
    Qp { conn: usize, qp: Qp },
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
    /// A node crashed: its sockets start dying.
    Crash(usize),
    /// Socket `conn`'s failure-detect deadline passed.
    Break(usize),
    /// Read every socket once, whatever the ledger says.
    Sweep,
}

/// What the worker tells the caller.
pub(crate) enum Report {
    /// Deliveries, in the order they happened (their stamps are the
    /// worker's; the caller stamps them again as they arrive).
    Deliveries(VecDeque<(SimTime, NodeId, Delivery)>),
    /// Socket `conn` broke; its queue pairs' notices went ahead.
    Broke(usize),
    /// A lap ended that began with the first `applied` orders applied;
    /// `rnr_arms` is its shard's count so far. `parked`: every order so
    /// far was applied, its shard is settled, and it blocks for the next
    /// order.
    Lap {
        applied: u64,
        rnr_arms: u64,
        parked: bool,
    },
}

/// What the caller keeps of a socket the worker owns.
pub(crate) struct Sock {
    pub(crate) nodes: [usize; 2],
    /// As the caller last set or heard it: `Dying` at a crash, `Broken`
    /// when the worker reports the break.
    pub(crate) state: ConnState,
    /// Queue pairs opened on it, so the next one's slot.
    pub(crate) qps: usize,
}

/// The caller's end of the worker.
pub(crate) struct Worker {
    orders: Sender<Order>,
    reports: Receiver<Report>,
    thread: JoinHandle<(Vec<Conn>, Pump)>,
    pub(crate) socks: Vec<Sock>,
    /// Orders sent, and how many of them a finished worker lap began
    /// with.
    sent: u64,
    caught: u64,
    parked: bool,
    pub(crate) rnr_arms: u64,
}

impl Worker {
    /// Starts a worker with an empty shard; `pump` is its own.
    pub(crate) fn start(pump: Pump) -> std::io::Result<Worker> {
        let (orders, inbox) = std::sync::mpsc::channel();
        let (outbox, reports) = std::sync::mpsc::channel();
        let named = std::thread::Builder::new().name("rdmc-tcp-pump".into());
        let thread = named.spawn(move || work(pump, &inbox, &outbox))?;
        Ok(Worker {
            orders,
            reports,
            thread,
            socks: Vec::new(),
            sent: 0,
            caught: 0,
            parked: true,
            rnr_arms: 0,
        })
    }

    pub(crate) fn order(&mut self, order: Order) {
        self.sent += 1;
        self.orders.send(order).expect("the pump worker runs");
    }

    /// The next report, if one is waiting; the bookkeeping ones are
    /// taken in here.
    pub(crate) fn next(&mut self) -> Option<Report> {
        let report = match self.reports.try_recv() {
            Ok(report) => report,
            Err(TryRecvError::Empty) => return None,
            Err(TryRecvError::Disconnected) => panic!("the pump worker died"),
        };
        match report {
            Report::Broke(conn) => self.socks[conn].state = ConnState::Broken,
            Report::Lap {
                applied,
                rnr_arms,
                parked,
            } => {
                (self.caught, self.rnr_arms, self.parked) = (applied, rnr_arms, parked);
            }
            Report::Deliveries(_) => {}
        }
        Some(report)
    }

    /// Whether a worker lap has run since the last order was sent: what
    /// the caller posted so far has been flushed and read back, and its
    /// deliveries sent.
    pub(crate) fn caught_up(&self) -> bool {
        self.caught == self.sent
    }

    /// Parked with every order applied: its shard is settled, and no
    /// report is on its way.
    pub(crate) fn idle(&self) -> bool {
        self.parked && self.caught_up()
    }

    /// Closes the worker's inbox and takes its shard back.
    pub(crate) fn stop(self) -> Option<(Vec<Conn>, Pump)> {
        drop(self.orders);
        self.thread.join().ok()
    }
}

/// The worker's shard and its lap state.
struct Shard<'a> {
    conns: Vec<Conn>,
    pump: Pump,
    reports: &'a Sender<Report>,
    applied: u64,
    sweep: bool,
    last_sweep: u64,
}

impl Shard<'_> {
    /// Applies every order waiting; false once the caller has gone.
    fn take(&mut self, inbox: &Receiver<Order>) -> bool {
        loop {
            match inbox.try_recv() {
                Ok(order) => self.apply(order),
                Err(TryRecvError::Empty) => return true,
                Err(TryRecvError::Disconnected) => return false,
            }
        }
    }

    fn apply(&mut self, order: Order) {
        self.applied += 1;
        let p = &mut self.pump;
        match order {
            Order::Adopt(conn) => self.conns.push(conn),
            Order::Qp { conn, qp } => {
                let c = &mut self.conns[conn];
                c.qps.push(qp);
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
            } => self.conns[conn].queue(slot, end, frame, p),
            Order::Recv {
                conn,
                slot,
                end,
                recv,
            } => self.conns[conn].receive(slot, end, recv, p),
            Order::BreakQp { conn, slot } => self.conns[conn].break_qp(slot, p),
            Order::Crash(node) => {
                p.crashed[node] = true;
                for conn in &mut self.conns {
                    conn.dies_with(node);
                }
            }
            Order::Break(conn) => {
                let alive = self.conns[conn].state != ConnState::Broken;
                self.conns[conn].expire(conn, p);
                self.send();
                if alive {
                    let _ = self.reports.send(Report::Broke(conn));
                }
            }
            Order::Sweep => self.sweep = true,
        }
        self.send();
    }

    /// Sends what pumping or an order delivered.
    fn send(&mut self) {
        if !self.pump.ready.is_empty() {
            let ready = std::mem::take(&mut self.pump.ready);
            let _ = self.reports.send(Report::Deliveries(ready));
        }
    }

    /// One lap: every socket direction in turn, taking orders before
    /// each, so what the caller posts in reaction to one direction's
    /// deliveries leaves in this lap if its direction is still ahead.
    /// Returns whether any bytes moved, or `None` once the caller has
    /// gone.
    fn lap(&mut self, inbox: &Receiver<Order>) -> Option<bool> {
        let now = self.pump.now_ns();
        self.sweep |= now - self.last_sweep >= FAILURE_DETECT_NS;
        if self.sweep {
            self.last_sweep = now;
        }
        let mut moved = false;
        for ci in 0..2 * self.conns.len() {
            if !self.take(inbox) {
                return None;
            }
            let conn = &mut self.conns[ci / 2];
            let alive = conn.state != ConnState::Broken;
            moved |= conn.pump_direction(ci / 2, ci % 2, self.sweep, &mut self.pump);
            let broke = alive && conn.state == ConnState::Broken;
            self.send();
            if broke {
                let _ = self.reports.send(Report::Broke(ci / 2));
            }
        }
        self.sweep = false;
        #[cfg(debug_assertions)]
        crate::qp::check_sockets(&self.conns);
        Some(moved)
    }
}

/// The worker: laps while its shard or its inbox has work — spinning,
/// never sleeping — and parks on its inbox only when its shard is
/// settled. Returns its shard when the caller closes the inbox.
fn work(pump: Pump, inbox: &Receiver<Order>, reports: &Sender<Report>) -> (Vec<Conn>, Pump) {
    let mut shard = Shard {
        conns: Vec::new(),
        pump,
        reports,
        applied: 0,
        sweep: false,
        last_sweep: 0,
    };
    let mut reported = 0;
    loop {
        if !shard.take(inbox) {
            break;
        }
        let begun = shard.applied;
        let Some(moved) = shard.lap(inbox) else {
            break;
        };
        let park = shard.applied == begun && shard.conns.iter().all(Conn::settled);
        if begun > reported || park {
            reported = begun;
            let rnr_arms = shard.pump.rnr_arms;
            let lap = Report::Lap {
                applied: begun,
                rnr_arms,
                parked: park,
            };
            let _ = reports.send(lap);
        }
        if park {
            match inbox.recv() {
                Ok(order) => shard.apply(order),
                Err(_) => break,
            }
        } else if !moved {
            std::hint::spin_loop();
        }
    }
    (shard.conns, shard.pump)
}
