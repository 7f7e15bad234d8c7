//! In-memory sockets for the TCP datapath: [`MemNet`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, IoSlice};

use verbs::sched::pick;
use verbs::{Candidate, CandidateKind, ChoicePoint, NodeId, PointKind, SharedScheduler};

use crate::net::{Net, Ready};
use crate::TcpFabric;

/// A write's candidate id is this bit and its number among all writes; a
/// delivery's is `node << 32 | deliveries handed to the node before it`.
const PIPE: u64 = 1 << 63;

/// The TCP datapath's sockets as in-process byte pipes under a virtual
/// clock, one shard, no thread. Everything above the [`Net`] seam is the
/// production code: frames, ledger, laps, breaks.
///
/// A gathered write is in flight until a lap that moved nothing lets one
/// pipe deliver its oldest one; until then every read is `WouldBlock`.
/// So each write reaches its reader in a lap of its own, after everything
/// the lap before it could post. Without a scheduler the oldest write in
/// flight goes first and a run is deterministic. With one attached
/// ([`verbs::Transport::set_scheduler`]), two things are choice points:
/// which pipe with bytes in flight delivers its next gathered write, and
/// which node's oldest queued delivery `advance()` hands out. Neither
/// reorders one pipe's bytes or one node's deliveries. When no pipe can
/// move, the clock jumps towards the next timer.
///
/// Within a budget ([`TcpFabric::set_loss_choice_budget`]) each gathered
/// write is also a write site ([`PointKind::LossSite`]): it goes whole,
/// or short — cut inside its first frame's header or body, so the rest
/// waits in the sender's queue until the reader has taken the cut part —
/// or it stalls: it lands only once nothing else can and the clock has
/// moved, so a timer can fire while its bytes wait.
#[derive(Default)]
pub struct MemNet {
    /// Virtual nanoseconds.
    clock: u64,
    /// Pipe `2 * socket + end` carries what socket end `end` writes.
    pipes: Vec<Pipe>,
    /// Gathered writes made so far.
    written: u64,
    /// Pipes a read found bytes in since the last idle lap: the
    /// candidates of the next choice.
    waiting: BTreeSet<usize>,
    /// The pipe whose next write a read takes.
    granted: Option<usize>,
    sched: Option<SharedScheduler>,
    handed: BTreeMap<NodeId, u64>,
    /// Write sites left to offer the scheduler.
    sites: u64,
}

struct Pipe {
    /// The node at the reading end.
    reader: u32,
    /// Gathered writes not read in full yet, and how far into the first
    /// one the reader got.
    writes: VecDeque<Write>,
    offset: usize,
    /// The writing end shut down.
    shut: bool,
}

/// A gathered write in flight: its number among all writes, its bytes,
/// and what its write site made of it.
struct Write {
    id: u64,
    bytes: Vec<u8>,
    /// Cut short: the pipe takes no more until this is read.
    short: bool,
    /// It lands only after the clock next moves.
    stalled: bool,
}

/// One end of an in-memory socket: the index of the pipe it writes.
pub struct MemStream(usize);

impl MemNet {
    /// Which of `pipes` delivers its next write: the oldest write first,
    /// unless the scheduler chooses.
    fn choose(&self, pipes: BTreeSet<usize>) -> Option<usize> {
        let mut order: Vec<(u64, usize)> = pipes
            .into_iter()
            .filter_map(|p| Some((self.pipes[p].writes.front()?.id, p)))
            .collect();
        order.sort_unstable();
        let candidates = order.iter().map(|&(write, p)| Candidate {
            seq: PIPE | write,
            node: self.pipes[p].reader,
            conn: None,
            kind: CandidateKind::Bytes,
        });
        let at = self.pick(PointKind::Delivery, candidates.collect());
        Some(order.get(at)?.1)
    }

    /// What the next write site makes of a gathered write of `bufs`
    /// (`whole` bytes) towards `reader`: the bytes it takes and whether
    /// it stalls. The whole write is the default, and the only outcome
    /// once the sites run out. A cut falls in the middle of the first
    /// slice or of the second: the datapath gathers a frame's header,
    /// then its body.
    fn site(&mut self, bufs: &[IoSlice<'_>], whole: usize, reader: u32) -> (usize, bool) {
        if self.sites == 0 || self.sched.is_none() {
            return (whole, false);
        }
        self.sites -= 1;
        let (head, body) = (bufs[0].len(), bufs.get(1).map_or(0, |b| b.len()));
        let cuts = [
            (head > 1).then_some(head / 2),
            (body > 1).then_some(head + body / 2),
        ];
        let taken = std::iter::once(whole).chain(cuts.into_iter().flatten());
        let mut kinds: Vec<CandidateKind> = taken
            .map(|taken| CandidateKind::Gathered {
                taken: taken as u64,
            })
            .collect();
        kinds.push(CandidateKind::Stall);
        let candidates = (0..).zip(&kinds).map(|(seq, &kind)| Candidate {
            seq,
            node: reader,
            conn: None,
            kind,
        });
        match kinds[self.pick(PointKind::LossSite, candidates.collect())] {
            CandidateKind::Gathered { taken } => (taken as usize, false),
            _ => (whole, true),
        }
    }

    /// The scheduler's answer among `candidates` at a point of `kind`; 0
    /// without a choice.
    fn pick(&self, kind: PointKind, candidates: Vec<Candidate>) -> usize {
        let Some(sched) = self.sched.as_ref().filter(|_| candidates.len() > 1) else {
            return 0;
        };
        let point = ChoicePoint {
            time_ns: self.clock,
            kind,
            candidates: &candidates,
        };
        pick(sched, &point)
    }
}

impl TcpFabric<MemNet> {
    /// Grants the attached scheduler `budget` write sites: the next
    /// `budget` gathered writes each ask it whether they go whole, short
    /// or stalled (see [`MemNet`]). It mirrors
    /// `verbs::Fabric::set_loss_choice_budget`, whose sites deliver or
    /// drop a transfer; each site spends one unit whatever the answer.
    pub fn set_loss_choice_budget(&mut self, budget: u64) {
        self.home.pump.net.sites = budget;
    }
}

impl Net for MemNet {
    type Stream = MemStream;

    fn open(&mut self, nodes: [usize; 2]) -> io::Result<[MemStream; 2]> {
        let first = self.pipes.len();
        self.pipes.extend([1, 0].map(|reader| Pipe {
            reader: nodes[reader] as u32,
            writes: VecDeque::new(),
            offset: 0,
            shut: false,
        }));
        Ok([MemStream(first), MemStream(first + 1)])
    }

    fn read(&mut self, stream: &MemStream, buf: &mut [u8]) -> io::Result<usize> {
        let from = stream.0 ^ 1;
        let ended = self.pipes[stream.0].shut || self.pipes[from].shut;
        if self.pipes[stream.0].shut || self.pipes[from].writes.is_empty() {
            return if ended {
                Ok(0)
            } else {
                Err(io::ErrorKind::WouldBlock.into())
            };
        }
        if self.granted != Some(from) {
            self.waiting.insert(from);
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let pipe = &mut self.pipes[from];
        let write = &pipe.writes[0].bytes[pipe.offset..];
        let n = write.len().min(buf.len());
        buf[..n].copy_from_slice(&write[..n]);
        pipe.offset += n;
        if pipe.offset == pipe.writes[0].bytes.len() {
            pipe.writes.pop_front();
            pipe.offset = 0;
            self.granted = None;
        }
        Ok(n)
    }

    fn write_vectored(&mut self, stream: &MemStream, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        let pipe = &self.pipes[stream.0];
        if pipe.shut || self.pipes[stream.0 ^ 1].shut {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        if pipe.writes.back().is_some_and(|w| w.short) {
            return Err(io::ErrorKind::WouldBlock.into());
        }
        let (whole, reader) = (bufs.iter().map(|b| b.len()).sum(), pipe.reader);
        if whole == 0 {
            return Ok(0);
        }
        let (taken, stalled) = self.site(bufs, whole, reader);
        let mut bytes = Vec::with_capacity(taken);
        for b in bufs {
            bytes.extend_from_slice(&b[..b.len().min(taken - bytes.len())]);
        }
        self.pipes[stream.0].writes.push_back(Write {
            id: self.written,
            bytes,
            short: taken < whole,
            stalled,
        });
        self.written += 1;
        Ok(taken)
    }

    /// What was in flight towards the end is gone with it.
    fn shutdown(&mut self, stream: &MemStream) -> io::Result<()> {
        let from = stream.0 ^ 1;
        self.pipes[stream.0].shut = true;
        self.pipes[from].writes.clear();
        self.granted = self.granted.filter(|&p| p != from);
        Ok(())
    }

    fn now_ns(&self) -> u64 {
        self.clock
    }

    /// A pipe a read waits on delivers its next write in the next lap, so
    /// no time passes. Only when no reader waits, or every write waited
    /// on stalled, does the clock move; stalled writes land after it. A
    /// grant no read took (its reader crashed) lapses.
    fn idle(&mut self, wait_ns: Option<u64>) {
        let mut waiting = std::mem::take(&mut self.waiting);
        let pipes = &mut self.pipes;
        let stalled = |p: &usize| pipes[*p].writes.front().is_some_and(|w| w.stalled);
        if waiting.iter().all(stalled) {
            self.clock += wait_ns.unwrap_or(0);
            for &p in &waiting {
                pipes[p].writes[0].stalled = false;
            }
        } else {
            waiting.retain(|p| !stalled(p));
        }
        self.granted = self.choose(waiting);
    }

    fn worker(&self) -> Option<MemNet> {
        None
    }

    fn next_ready(&mut self, ready: &mut VecDeque<Ready>) -> Option<Ready> {
        // With a scheduler: each node's oldest delivery, in queue order.
        let mut heads: Vec<usize> = Vec::new();
        for (i, (_, node, _)) in ready.iter().enumerate() {
            if self.sched.is_some() && heads.iter().all(|&h| ready[h].1 != *node) {
                heads.push(i);
            }
        }
        let candidates = heads.iter().map(|&h| {
            let (_, node, delivery) = &ready[h];
            let handed = self.handed.get(node).copied().unwrap_or(0);
            Candidate::of(u64::from(node.0) << 32 | handed, *node, delivery)
        });
        let at = heads
            .get(self.pick(PointKind::Delivery, candidates.collect()))
            .copied();
        let next = ready.remove(at.unwrap_or(0))?;
        *self.handed.entry(next.1).or_default() += 1;
        Some(next)
    }

    fn set_scheduler(&mut self, scheduler: SharedScheduler) {
        self.sched = Some(scheduler);
    }
}
