//! The small-message multicast the paper contrasts RDMC against (§4.6):
//! Derecho's SST protocol of one-sided RDMA writes into round-robin
//! bounded buffers, one per receiver.
//!
//! The sender owns `slots` buffer slots at every receiver. To multicast,
//! it writes the message (data + sequence counter in one ordered RDMA
//! write) into slot `seq % slots` of each receiver, with no handshake at
//! all. Receivers discover arrivals by polling the counter — modelled by
//! the fabric's `WriteArrived` notification — and periodically write an
//! acknowledgement counter back so the sender never overruns the ring.
//!
//! The paper reports this beats RDMC by up to ~5x for groups of ≤ 16 and
//! messages of ≤ 10 KB, while RDMC's binomial pipeline dominates for
//! larger groups or messages — the crossover this crate's benchmark
//! regenerates.

use std::collections::VecDeque;

use bytes::Bytes;
use simnet::{SimDuration, SimTime};
use verbs::{Delivery, Fabric, NodeId, QpHandle, Transport, WrId};

/// One-sided-write tag for message slots.
const TAG_DATA: u64 = 100;
/// One-sided-write tag for acknowledgement counters.
const TAG_ACK: u64 = 101;

/// How often a receiver pushes its consumption counter back (in
/// messages); a fraction of the ring so the sender never stalls on a
/// full window in steady state.
fn ack_interval(slots: u64) -> u64 {
    (slots / 4).max(1)
}

/// Per-message completion record.
#[derive(Clone, Debug)]
pub struct SstMessageResult {
    /// Sequence number (send order).
    pub seq: u64,
    /// When the sender submitted it.
    pub submitted: SimTime,
    /// When the last receiver observed it.
    pub completed: Option<SimTime>,
}

/// A root-sender SST multicast session over any [`Transport`] (the
/// simulated fabric by default).
///
/// # Examples
///
/// ```
/// use simnet::{FlowNet, SimDuration, Topology};
/// use sst::SstMulticast;
/// use verbs::{Fabric, FabricParams};
///
/// let mut net = FlowNet::new();
/// let topo = Topology::flat(&mut net, 4, 100.0, SimDuration::from_micros(2));
/// let fabric = Fabric::new(net, topo, FabricParams::default());
/// let mut sst = SstMulticast::new(fabric, &[0, 1, 2, 3], 16);
/// for _ in 0..100 {
///     sst.submit(1024);
/// }
/// sst.run();
/// assert_eq!(sst.results().len(), 100);
/// assert!(sst.results().iter().all(|r| r.completed.is_some()));
/// ```
pub struct SstMulticast<T: Transport = Fabric> {
    fabric: T,
    /// `members[0]` is the sender.
    members: Vec<usize>,
    /// Sender-side queue pair per receiver (index 1..members.len()).
    qps: Vec<QpHandle>,
    /// Receiver-side queue pairs (same order), for acks.
    receiver_qps: Vec<QpHandle>,
    slots: u64,
    /// Messages waiting for a free slot.
    pending: VecDeque<u64>,
    /// The zero payload of the last message size sent, shared by every
    /// write until the size changes.
    zeros: Bytes,
    /// Next sequence number to send.
    next_seq: u64,
    /// Lowest acknowledged sequence per receiver.
    acked: Vec<u64>,
    /// Consumed count per receiver (receiver side).
    consumed: Vec<u64>,
    /// Receivers that have seen each in-flight message.
    seen: Vec<u32>,
    results: Vec<SstMessageResult>,
    /// Peer writes dropped as malformed: data on a queue pair that is not
    /// a receiver's or beyond what was sent, an ack on one that is not
    /// the sender's, shorter than its counter or beyond what was sent.
    malformed: u64,
}

impl<T: Transport> SstMulticast<T> {
    /// Creates the session: connects the sender to every receiver and
    /// sizes the per-receiver ring at `slots` messages.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two members or zero slots are given.
    pub fn new(mut fabric: T, members: &[usize], slots: u64) -> Self {
        assert!(
            members.len() >= 2,
            "need a sender and at least one receiver"
        );
        assert!(slots >= 1, "need at least one buffer slot");
        let sender = NodeId(members[0] as u32);
        let mut qps = Vec::new();
        let mut receiver_qps = Vec::new();
        for &m in &members[1..] {
            let (qs, qr) = fabric.connect(sender, NodeId(m as u32));
            qps.push(qs);
            receiver_qps.push(qr);
        }
        SstMulticast {
            fabric,
            members: members.to_vec(),
            qps,
            receiver_qps,
            slots,
            pending: VecDeque::new(),
            zeros: Bytes::new(),
            next_seq: 0,
            acked: vec![0; members.len() - 1],
            consumed: vec![0; members.len() - 1],
            seen: Vec::new(),
            results: Vec::new(),
            malformed: 0,
        }
    }

    /// Number of receivers.
    pub fn num_receivers(&self) -> usize {
        self.members.len() - 1
    }

    /// Queues a message of `size` bytes for multicast.
    pub fn submit(&mut self, size: u64) {
        self.pending.push_back(size);
        self.pump();
    }

    /// Sends while ring slots are free at every receiver.
    fn pump(&mut self) {
        while let Some(&size) = self.pending.front() {
            let window_ok = self.acked.iter().all(|&a| self.next_seq - a < self.slots);
            if !window_ok {
                return;
            }
            self.pending.pop_front();
            let seq = self.next_seq;
            self.next_seq += 1;
            self.seen.push(0);
            self.results.push(SstMessageResult {
                seq,
                submitted: self.fabric.now(),
                completed: None,
            });
            // One ordered write per receiver: payload models data plus the
            // trailing sequence counter.
            let len = size.max(1) as usize;
            if self.zeros.len() != len {
                self.zeros = Bytes::from(vec![0u8; len]);
            }
            for &qp in &self.qps {
                // A broken connection just stops the experiment's traffic;
                // SST has no retry of its own (RC hardware handles it).
                let _ = self
                    .fabric
                    .post_write(qp, WrId(seq), TAG_DATA, self.zeros.clone(), None);
            }
        }
    }

    /// Runs the fabric to quiescence, processing arrivals and acks. Writes
    /// are peer input: a malformed one is dropped and counted, never a
    /// panic.
    pub fn run(&mut self) {
        while let Some((time, _node, delivery)) = self.fabric.advance() {
            match delivery {
                Delivery::WriteArrived { qp, tag, .. } if tag == TAG_DATA => {
                    let r = self.receiver_qps.iter().position(|&q| q == qp);
                    let Some(r) = r.filter(|&r| self.consumed[r] < self.next_seq) else {
                        self.malformed += 1;
                        continue;
                    };
                    let seq = self.consumed[r];
                    self.consumed[r] += 1;
                    self.seen[seq as usize] += 1;
                    if self.seen[seq as usize] == self.num_receivers() as u32 {
                        self.results[seq as usize].completed = Some(time);
                    }
                    // Batched acknowledgement write-back.
                    if self.consumed[r].is_multiple_of(ack_interval(self.slots)) {
                        let counter = self.consumed[r];
                        let _ = self.fabric.post_write(
                            self.receiver_qps[r],
                            WrId(counter),
                            TAG_ACK,
                            Bytes::copy_from_slice(&counter.to_le_bytes()),
                            None,
                        );
                    }
                }
                Delivery::WriteArrived { qp, tag, payload } if tag == TAG_ACK => {
                    let r = self.qps.iter().position(|&q| q == qp);
                    let counter = payload.first_chunk().copied().map(u64::from_le_bytes);
                    let counter = counter.filter(|&c| c <= self.next_seq);
                    let (Some(r), Some(counter)) = (r, counter) else {
                        self.malformed += 1;
                        continue;
                    };
                    self.acked[r] = self.acked[r].max(counter);
                    self.pump();
                }
                _ => {}
            }
        }
        // Tail: acks for the last partial batch never fire; that is fine —
        // delivery completion is tracked by arrival, not by ack.
    }

    /// Completion records in send order.
    pub fn results(&self) -> &[SstMessageResult] {
        &self.results
    }

    /// Sustained message rate over the whole run, in messages/second.
    ///
    /// # Panics
    ///
    /// Panics if no message completed.
    pub fn messages_per_second(&self) -> f64 {
        let done = self
            .results
            .iter()
            .filter_map(|r| r.completed)
            .max()
            .expect("no completed messages");
        let count = self
            .results
            .iter()
            .filter(|r| r.completed.is_some())
            .count();
        count as f64 / done.as_secs_f64().max(1e-12)
    }

    /// The underlying transport (for CPU or link accounting).
    pub fn fabric(&self) -> &T {
        &self.fabric
    }
}

/// Convenience: messages/second for a stream of `count` equal-size
/// messages from one sender to `group_size - 1` receivers on a fresh
/// flat 100 Gb/s fabric (the Fractus-like setup of §4.6).
pub fn small_message_rate(group_size: usize, msg_bytes: u64, count: usize, slots: u64) -> f64 {
    let mut net = simnet::FlowNet::new();
    let topo = simnet::Topology::flat(&mut net, group_size, 100.0, SimDuration::from_micros(2));
    let fabric = Fabric::new(net, topo, verbs::FabricParams::default());
    let members: Vec<usize> = (0..group_size).collect();
    let mut sst = SstMulticast::new(fabric, &members, slots);
    for _ in 0..count {
        sst.submit(msg_bytes);
    }
    sst.run();
    sst.messages_per_second()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{FlowNet, Topology};
    use verbs::FabricParams;

    fn fabric(n: usize) -> Fabric {
        let mut net = FlowNet::new();
        let topo = Topology::flat(&mut net, n, 100.0, SimDuration::from_micros(2));
        Fabric::new(net, topo, FabricParams::default())
    }

    #[test]
    fn every_message_reaches_every_receiver() {
        let mut sst = SstMulticast::new(fabric(8), &[0, 1, 2, 3, 4, 5, 6, 7], 8);
        for _ in 0..50 {
            sst.submit(100);
        }
        sst.run();
        assert_eq!(sst.results().len(), 50);
        assert!(sst.results().iter().all(|r| r.completed.is_some()));
    }

    #[test]
    fn completions_are_in_order_and_after_submission() {
        let mut sst = SstMulticast::new(fabric(3), &[0, 1, 2], 4);
        for _ in 0..20 {
            sst.submit(64);
        }
        sst.run();
        let mut last = SimTime::ZERO;
        for r in sst.results() {
            let c = r.completed.unwrap();
            assert!(c >= r.submitted);
            assert!(c >= last, "out-of-order completion");
            last = c;
        }
    }

    #[test]
    fn ring_window_throttles_but_never_deadlocks() {
        // One slot: fully serialised by acks... except acks are batched;
        // with slots=1 the interval is 1, so it still progresses.
        let mut sst = SstMulticast::new(fabric(2), &[0, 1], 1);
        for _ in 0..10 {
            sst.submit(10);
        }
        sst.run();
        assert!(sst.results().iter().all(|r| r.completed.is_some()));
    }

    /// Data writes no receiver can place — one reaching the sender, whose
    /// queue pair is not a receiver's, and one beyond what was sent — are
    /// dropped and counted, and the real traffic completes.
    #[test]
    fn data_writes_no_receiver_can_place_are_dropped() {
        let mut sst = SstMulticast::new(fabric(3), &[0, 1, 2], 4);
        sst.submit(64);
        let stray = Bytes::from_static(b"data");
        for qp in [sst.receiver_qps[0], sst.qps[1]] {
            sst.fabric
                .post_write(qp, WrId(9), TAG_DATA, stray.clone(), None)
                .expect("post_write");
        }
        sst.run();
        assert_eq!(sst.malformed, 2);
        assert!(sst.results().iter().all(|r| r.completed.is_some()));
    }

    /// An ack shorter than its 8-byte counter is dropped and counted.
    #[test]
    fn seven_byte_ack_is_dropped() {
        let mut sst = SstMulticast::new(fabric(2), &[0, 1], 4);
        sst.submit(64);
        let short = Bytes::from_static(&[1; 7]);
        sst.fabric
            .post_write(sst.receiver_qps[0], WrId(9), TAG_ACK, short, None)
            .expect("post_write");
        sst.run();
        assert_eq!(sst.malformed, 1);
        assert!(sst.results().iter().all(|r| r.completed.is_some()));
    }

    /// An ack beyond what was sent is dropped and counted: merged, it
    /// underflowed the window check, and no later message went out.
    #[test]
    fn oversized_ack_is_dropped() {
        let mut sst = SstMulticast::new(fabric(2), &[0, 1], 4);
        sst.submit(64);
        let forged = Bytes::copy_from_slice(&1_000u64.to_le_bytes());
        sst.fabric
            .post_write(sst.receiver_qps[0], WrId(9), TAG_ACK, forged, None)
            .expect("post_write");
        sst.run();
        sst.submit(64);
        sst.submit(64);
        sst.run();
        assert_eq!(sst.results().len(), 3);
        assert!(sst.results().iter().all(|r| r.completed.is_some()));
        assert_eq!(sst.malformed, 1);
    }

    #[test]
    fn rate_degrades_linearly_with_group_size() {
        // SST is a sequential sender: doubling receivers roughly halves
        // the message rate once bandwidth-bound; for tiny messages it is
        // post-overhead bound, still roughly linear.
        let small = small_message_rate(4, 1024, 300, 16);
        let large = small_message_rate(16, 1024, 300, 16);
        assert!(small > large, "rate should fall with group size");
        assert!(
            small / large < 10.0,
            "degradation should be roughly linear, got {}x",
            small / large
        );
    }

    #[test]
    fn larger_messages_lower_the_rate() {
        let tiny = small_message_rate(4, 100, 200, 16);
        let big = small_message_rate(4, 1 << 20, 200, 16);
        assert!(tiny > big * 2.0, "tiny {tiny} vs big {big}");
    }
}
