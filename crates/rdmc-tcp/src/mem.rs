//! In-memory sockets for the TCP datapath: [`MemNet`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::io::{self, IoSlice};

use verbs::sched::pick;
use verbs::{Candidate, CandidateKind, ChoicePoint, NodeId, PointKind, SharedScheduler};

use crate::net::{Net, Ready};

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
}

struct Pipe {
    /// The node at the reading end.
    reader: u32,
    /// Gathered writes not read in full yet, each with its number, and
    /// how far into the first one the reader got.
    writes: VecDeque<(u64, Vec<u8>)>,
    offset: usize,
    /// The writing end shut down.
    shut: bool,
}

/// One end of an in-memory socket: the index of the pipe it writes.
pub struct MemStream(usize);

impl MemNet {
    /// Which of `pipes` delivers its next write: the oldest write first,
    /// unless the scheduler chooses.
    fn choose(&self, pipes: BTreeSet<usize>) -> Option<usize> {
        let mut order: Vec<(u64, usize)> = pipes
            .into_iter()
            .filter_map(|p| Some((self.pipes[p].writes.front()?.0, p)))
            .collect();
        order.sort_unstable();
        let candidates = order.iter().map(|&(write, p)| Candidate {
            seq: PIPE | write,
            node: self.pipes[p].reader,
            conn: None,
            kind: CandidateKind::Bytes,
        });
        Some(order.get(self.pick(candidates.collect()))?.1)
    }

    /// The scheduler's answer among `candidates`; 0 without a choice.
    fn pick(&self, candidates: Vec<Candidate>) -> usize {
        let Some(sched) = self.sched.as_ref().filter(|_| candidates.len() > 1) else {
            return 0;
        };
        let point = ChoicePoint {
            time_ns: self.clock,
            kind: PointKind::Delivery,
            candidates: &candidates,
        };
        pick(sched, &point)
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
        let write = &pipe.writes[0].1[pipe.offset..];
        let n = write.len().min(buf.len());
        buf[..n].copy_from_slice(&write[..n]);
        pipe.offset += n;
        if pipe.offset == pipe.writes[0].1.len() {
            pipe.writes.pop_front();
            pipe.offset = 0;
            self.granted = None;
        }
        Ok(n)
    }

    fn write_vectored(&mut self, stream: &MemStream, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        if self.pipes[stream.0].shut || self.pipes[stream.0 ^ 1].shut {
            return Err(io::ErrorKind::BrokenPipe.into());
        }
        let mut write = Vec::with_capacity(bufs.iter().map(|b| b.len()).sum());
        bufs.iter().for_each(|b| write.extend_from_slice(b));
        let n = write.len();
        if n > 0 {
            self.pipes[stream.0].writes.push_back((self.written, write));
            self.written += 1;
        }
        Ok(n)
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
    /// no time passes; only when no reader waits does the clock move. A
    /// grant no read took (its reader crashed) lapses.
    fn idle(&mut self, wait_ns: Option<u64>) {
        let waiting = std::mem::take(&mut self.waiting);
        self.granted = self.choose(waiting);
        if self.granted.is_none() {
            self.clock += wait_ns.unwrap_or(0);
        }
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
        let at = heads.get(self.pick(candidates.collect())).copied();
        let next = ready.remove(at.unwrap_or(0))?;
        *self.handed.entry(next.1).or_default() += 1;
        Some(next)
    }

    fn set_scheduler(&mut self, scheduler: SharedScheduler) {
        self.sched = Some(scheduler);
    }
}
