//! Data model of the Derecho-style **atomic multicast** overlay.
//!
//! RDMC groups have one sender (rank 0). Derecho turns that into a
//! multi-sender atomic multicast by creating *one RDMC subgroup per
//! sender*, each with the member list rotated so that sender sits at
//! rank 0, and interleaving their messages round-robin into a
//! single global **slot** sequence: slot `s` belongs to member
//! `s mod n`. Every member delivers slots in slot order, which makes
//! the delivery sequence identical at every member by construction —
//! the only question is *when* a slot may be delivered.
//!
//! That question is answered by per-sender **received frontiers** in
//! SST rows (a plain [`sst::SstTable`] per member, column `j` for sender
//! `j`): member `i` publishes, for every sender `j`, how many of `j`'s
//! slots it has resolved (received via RDMC, or learned to be *null*).
//! The minimum over the rows of the group's view is the **stability
//! frontier**: once every member of the view holds a slot, delivering it
//! can never be undone by a failure, so the delivery engine releases it.
//! A sender with nothing to say fills its slot with a *null* that is
//! announced purely through the sender's own frontier row — no data
//! multicast at all (Spindle's null-send elision).
//!
//! The overlay keeps no membership of its own: the group's view is the
//! *anchor* subgroup's (`subgroups[0]`, rotation 0, so its original
//! ranks are member indices, ascending and never empty). Stability
//! minima, the slot rotation and [`Cluster::atomic_live_members`] all
//! read it; beyond that, a crashed member's node runs no software.
//!
//! Rows travel in **batches**. A frontier advance updates the member's
//! own row at once (its own delivery engine reads it straight away) and
//! marks the column *unsent*; the first unsent column arms a zero-delay
//! timer on the member's node, and when it fires the member sends every
//! unsent column's latest value as one `TAG_FRONTIER` row write per peer
//! whose node is up: cells of its own row, no header — the queue pair a
//! write arrives on names the writer, whose row it max-merges into, all
//! or nothing ([`sst::SstTable::merge_remote`]). Transports fire a due
//! timer only between rounds of I/O, so the flush is the end of the
//! round: on TCP one row per peer carries every advance of a whole lap
//! over the sockets, and nulls booked back to back go out as one row.
//!
//! On a view change the overlay applies the **ragged trim**: slots that
//! the failed sender's subgroup had to abandon (no survivor can
//! complete them) and nulls the failed sender never announced to anyone
//! are trimmed from the sequence at every survivor (crashed members take
//! no part in this exchange), so all survivors
//! converge on identical gapless delivery prefixes. Stability is what
//! makes the trim safe — a slot delivered anywhere was stable, stable
//! slots are fully replicated, and fully replicated slots are never
//! abandoned.
//!
//! Beside the slot sequence the runtime keeps a per-owner **slot index**
//! (`AtomicRuntime::by_owner`): the global slot number of each slot a
//! member owns, so a slot's position in its owner's list *is* its `seq`
//! and the list's length is the owner's next `seq`. It is `slots`
//! regrouped — derived state that no peer ever sees — so it is not mixed
//! into the cluster digest. A frontier recompute enters the index at the
//! frontier it already holds, which makes one pump cost O(n + slots
//! newly resolved) however long the log behind it has grown.
//!
//! The core calls in at four points: a subgroup delivery
//! ([`Cluster::atomic_on_rdmc_delivery`]), a `TAG_FRONTIER` write
//! ([`Cluster::atomic_frontier_arrival`]), a subgroup view change
//! ([`Cluster::atomic_on_reconfig`]) — each a no-op for groups that are
//! not overlay subgroups — and a fired
//! [`TimerAction::FrontierFlush`] ([`Cluster::atomic_frontier_flush`]).

use bytes::Bytes;
use rdmc::{rotation, Rank};
use simnet::{SimDuration, SimTime};
use sst::SstTable;
use verbs::{NodeId, Transport, WrId};

use crate::cluster::{Cluster, GroupId, GroupSpec, MessageId, MessageSlot, TimerAction};

/// One-sided-write tag for SST frontier-row updates (the stability
/// epidemic).
pub(crate) const TAG_FRONTIER: u64 = 8;

/// Most frontier cells in one row write: 21 12-byte cells make 252
/// bytes, under the 256-byte largest write the simulated fabric's
/// tiny-write bypass carries.
const MAX_ROW_CELLS: usize = 21;

/// The frontiers' merge: counters only grow, and none is refused.
fn max_merge(_: u32, old: u64, val: u64) -> Option<u64> {
    Some(old.max(val))
}

/// Identifies an atomic (multi-sender) group within a
/// [`SimCluster`](crate::SimCluster): groups declared with
/// [`ClusterBuilder::atomic`](crate::ClusterBuilder::atomic) receive
/// ids `0..` in declaration order.
pub type AtomicGroupId = usize;

/// One total-order delivery upcall at one member of an atomic group.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AtomicDelivery {
    /// Global slot number — the message's total-order position. Every
    /// member's log carries the same `(slot, sender, seq, size)`
    /// sequence; only `at` differs.
    pub slot: u64,
    /// Member index (in the unrotated member list) that sent it.
    pub sender: u32,
    /// Index among the sender's own submissions (its per-sender
    /// sequence number).
    pub seq: u64,
    /// Message size in bytes.
    pub size: u64,
    /// Virtual time of the upcall at this member.
    pub at: SimTime,
    /// Handle of the underlying RDMC message
    /// ([`SimCluster::result`](crate::SimCluster::result) resolves it).
    pub message: MessageId,
}

/// What one slot of the global sequence carries.
pub(crate) enum SlotKind {
    /// A real message, multicast on the owner's subgroup.
    Data {
        /// Message index within the owner's subgroup (submission order).
        index: usize,
        /// Message size in bytes.
        size: u64,
        /// The handle its completion record is filed under.
        message: MessageId,
    },
    /// The owner had nothing to send: announced via the owner's own
    /// frontier row, never multicast.
    Null,
}

/// One slot of the global total-order sequence.
pub(crate) struct Slot {
    /// Member index that owns the slot (the rotation owner in the view).
    pub(crate) owner: usize,
    /// Index among the owner's slots (dense per owner).
    pub(crate) seq: u64,
    pub(crate) kind: SlotKind,
    /// Ragged-trimmed on a view change: skipped by every survivor.
    pub(crate) trimmed: bool,
}

/// Per-member overlay state.
pub(crate) struct AtomicMember {
    /// This member's SST replica: cell `(r, j)` is how many of sender
    /// `j`'s slots member `r` has published as resolved.
    pub(crate) sst: SstTable,
    /// Next slot index the delivery engine will examine.
    pub(crate) next_deliver: usize,
    /// Last stability frontier announced (and traced) per sender;
    /// delivery gates on this recorded value so the `StableFrontier`
    /// trace event always precedes the `AtomicDelivered` it justifies.
    pub(crate) stable_seen: Vec<u64>,
    /// The total-order delivery log.
    pub(crate) log: Vec<AtomicDelivery>,
    /// Columns of the member's own row that advanced since its last
    /// fan-out (bit `j`: sender `j`'s column; a group has at most 64
    /// members). Non-zero exactly while a [`TimerAction::FrontierFlush`]
    /// is armed for the member.
    pub(crate) unsent: u64,
}

/// One atomic group's runtime state.
pub(crate) struct AtomicRuntime {
    /// Fabric node of each member, in the unrotated declaration order;
    /// member index `i` herein is the canonical identity used in slots,
    /// frontiers, and trace scopes.
    pub(crate) nodes: Vec<usize>,
    /// `subgroups[j]`: the RDMC subgroup rooted at member `j` (its
    /// member list is `nodes` rotated left by `j`). `subgroups[0]` is
    /// the *anchor* — its view is the group's, frontier epidemics run on
    /// its connections and its id names the group in trace scopes.
    pub(crate) subgroups: Vec<GroupId>,
    /// The global slot sequence, in submission order.
    pub(crate) slots: Vec<Slot>,
    /// Per member: the global slot number of every slot it owns, in
    /// submission order — position is the slot's `seq`, `len()` the
    /// next `seq`. Derived from `slots`, so not part of the digest.
    pub(crate) by_owner: Vec<Vec<usize>>,
    pub(crate) members: Vec<AtomicMember>,
    /// Round-robin rotation cursor: the next slot goes to the first
    /// member of the view at or after it ([`next_owner`]).
    pub(crate) cursor: usize,
}

/// The first member of `view` at or after `from` in rotation order,
/// wrapping past the end. `view` is ascending and never empty.
fn next_owner(view: &[usize], from: usize) -> usize {
    view.iter().copied().find(|&m| m >= from).unwrap_or(view[0])
}

/// Extends a resolved frontier over one owner's slot index: starting at
/// position `from`, counts entries while `is_resolved` holds and returns
/// the new frontier. It looks at one entry more than it advances over —
/// never at the history below `from` — and a `from` at or past the end
/// of the index comes back unchanged.
fn resolved_prefix(index: &[usize], from: u64, mut is_resolved: impl FnMut(usize) -> bool) -> u64 {
    let unresolved = usize::try_from(from)
        .ok()
        .and_then(|at| index.get(at..))
        .unwrap_or_default();
    from + unresolved.iter().take_while(|&&s| is_resolved(s)).count() as u64
}

/// Every atomic group on the cluster (each subgroup names the overlay it
/// serves in its `GroupRuntime::overlay`).
#[derive(Default)]
pub(crate) struct AtomicOverlays {
    pub(crate) groups: Vec<AtomicRuntime>,
}

impl AtomicOverlays {
    /// Mixes every overlay's protocol-visible state into a cluster
    /// digest (nothing at all when no atomic group exists).
    pub(crate) fn mix_digest(&self, mix: &mut impl FnMut(u64)) {
        for a in &self.groups {
            mix(a.slots.len() as u64);
            for s in &a.slots {
                mix(s.owner as u64);
                mix(s.seq);
                mix(matches!(s.kind, SlotKind::Null) as u64);
                mix(s.trimmed as u64);
            }
            for m in &a.members {
                mix(m.next_deliver as u64);
                mix(m.log.len() as u64);
                for d in &m.log {
                    mix(d.slot);
                    mix(u64::from(d.sender));
                    mix(d.seq);
                }
            }
        }
    }
}

/// The Derecho-style **atomic multicast** overlay (see the
/// `atomic` module docs): one RDMC subgroup per sender with
/// the member list rotated so each sender roots its own subgroup,
/// per-sender received/stability frontiers in SST rows spread
/// epidemically over `TAG_FRONTIER` control writes, and a per-member
/// delivery engine that holds completed RDMC messages until the
/// view's minimum frontier makes them stable, then issues total-order
/// upcalls in global slot order.
impl<T: Transport> Cluster<T> {
    /// Creates a multi-sender **atomic** group
    /// ([`crate::ClusterBuilder::atomic`] is the public path): one RDMC
    /// subgroup per sender (the member list rotated left so that sender
    /// sits at rank 0 — the `rdmc_bw_test` rotation idiom), with message
    /// slots rotating round-robin through the members.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Cluster::create_group`],
    /// or if the group has fewer than two members or more than 64 (a
    /// member's unsent columns are one `u64` mask).
    pub(crate) fn create_atomic_group(&mut self, spec: GroupSpec) -> AtomicGroupId {
        let n = spec.members.len();
        assert!(n >= 2, "an atomic group needs at least two members");
        assert!(n <= 64, "unsent frontier columns are a single u64 mask");
        let aid = self.atomic.groups.len();
        let mut subgroups = Vec::with_capacity(n);
        for j in 0..n {
            let gid = self.create_group(GroupSpec {
                members: rotation::rotated_members(&spec.members, j),
                ..spec.clone()
            });
            self.groups[gid].overlay = Some((aid, j));
            subgroups.push(gid);
        }
        self.atomic.groups.push(AtomicRuntime {
            nodes: spec.members,
            subgroups,
            slots: Vec::new(),
            by_owner: vec![Vec::new(); n],
            members: (0..n as u32)
                .map(|i| AtomicMember {
                    sst: SstTable::new(i, n as u32, n as u32),
                    next_deliver: 0,
                    stable_seen: vec![0; n],
                    log: Vec::new(),
                    unsent: 0,
                })
                .collect(),
            cursor: 0,
        });
        aid
    }

    /// Submits a `size`-byte message on the atomic group's next
    /// rotation slot: successive submissions rotate the sender role
    /// round-robin through the members of the view. Once every member
    /// has crashed the slot never resolves, as a plain group's message
    /// from a crashed root never does.
    ///
    /// # Panics
    ///
    /// Panics if `size` is zero.
    pub fn submit_atomic(&mut self, ag: AtomicGroupId, size: u64) -> MessageId {
        let message = self.new_message(MessageSlot::ScheduledAtomic { ag, size });
        self.do_submit_atomic(ag, size, message);
        message
    }

    /// Submits a `size`-byte message *from a specific member*: every
    /// slot owner in the view between the rotation cursor and `origin`
    /// contributes a **null** slot (Spindle's null-send elision — the
    /// skip is announced through the owner's own frontier row, no data
    /// multicast at all), then `origin` takes the next data slot.
    ///
    /// # Panics
    ///
    /// Panics if `origin` is not in the group's view (out of range, or
    /// evicted by a view change), or if `size` is zero.
    pub fn submit_atomic_from(&mut self, ag: AtomicGroupId, origin: usize, size: u64) -> MessageId {
        assert!(
            self.atomic_view(ag).contains(&origin),
            "origin {origin} is not in the group's view"
        );
        loop {
            let w = next_owner(self.atomic_view(ag), self.atomic.groups[ag].cursor);
            if w == origin {
                break;
            }
            self.atomic_book(ag, w, SlotKind::Null);
            self.atomic_pump(ag, w);
        }
        self.submit_atomic(ag, size)
    }

    /// Schedules an atomic submission at an absolute virtual time (the
    /// slot owner is resolved at fire time from the then-current
    /// rotation cursor and view), returning its handle immediately.
    pub fn schedule_atomic_send_at(
        &mut self,
        ag: AtomicGroupId,
        at: SimTime,
        size: u64,
    ) -> MessageId {
        let message = self.new_message(MessageSlot::ScheduledAtomic { ag, size });
        let host = next_owner(self.atomic_view(ag), self.atomic.groups[ag].cursor);
        let node = NodeId(self.atomic.groups[ag].nodes[host] as u32);
        self.arm_message(node, at, message);
        message
    }

    /// Member `member`'s total-order delivery log: identical `(slot,
    /// sender, seq, size)` sequences at every member (prefixes of one
    /// another while deliveries are still in flight).
    pub fn atomic_log(&self, ag: AtomicGroupId, member: usize) -> &[AtomicDelivery] {
        &self.atomic.groups[ag].members[member].log
    }

    /// The per-sender RDMC subgroup ids: `atomic_subgroups(ag)[j]` is
    /// the subgroup rooted at member `j`; index 0 is the *anchor* whose
    /// id names the group in trace scopes.
    pub fn atomic_subgroups(&self, ag: AtomicGroupId) -> &[GroupId] {
        &self.atomic.groups[ag].subgroups
    }

    /// Member indices in the group's view (the anchor subgroup's: not
    /// evicted by its view changes), ascending.
    pub fn atomic_live_members(&self, ag: AtomicGroupId) -> Vec<usize> {
        self.atomic_view(ag).to_vec()
    }

    /// The group's view: the anchor subgroup's original ranks, which are
    /// member indices (see the module docs).
    fn atomic_view(&self, ag: AtomicGroupId) -> &[usize] {
        &self.groups[self.atomic.groups[ag].subgroups[0]].orig_rank
    }

    /// Whether `member`'s node has crashed (so it runs no software).
    fn atomic_crashed(&self, ag: AtomicGroupId, member: usize) -> bool {
        let node = self.atomic.groups[ag].nodes[member];
        self.fabric.is_crashed(NodeId(node as u32))
    }

    /// The overlay member at current rank `rank` of `group`, as
    /// `(atomic group, member index)`, if `group` is an overlay subgroup.
    fn atomic_member(&self, group: GroupId, rank: Rank) -> Option<(AtomicGroupId, usize)> {
        let (ag, j) = self.groups[group].overlay?;
        let n = self.atomic.groups[ag].nodes.len();
        Some((ag, (j + self.groups[group].orig_rank[rank as usize]) % n))
    }

    /// Total slots allocated so far (data and null, trimmed included).
    pub fn atomic_num_slots(&self, ag: AtomicGroupId) -> u64 {
        self.atomic.groups[ag].slots.len() as u64
    }

    /// Slot numbers removed by ragged trims so far, ascending.
    pub fn atomic_trimmed_slots(&self, ag: AtomicGroupId) -> Vec<u64> {
        self.atomic.groups[ag]
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.trimmed)
            .map(|(i, _)| i as u64)
            .collect()
    }

    /// Resolves the slot owner — the first member of the view at the
    /// rotation cursor — books its data slot (before the subgroup
    /// submission, which can deliver reentrantly at the root) and
    /// submits on the owner's subgroup, filing the completion record
    /// under `message`. Immediate submissions and a fired message token
    /// both end here.
    pub(crate) fn do_submit_atomic(&mut self, ag: AtomicGroupId, size: u64, message: MessageId) {
        assert!(size > 0, "zero-size slots are nulls, not messages");
        let owner = next_owner(self.atomic_view(ag), self.atomic.groups[ag].cursor);
        let gid = self.atomic.groups[ag].subgroups[owner];
        let index = self.groups[gid].results.len();
        let kind = SlotKind::Data {
            index,
            size,
            message,
        };
        self.atomic_book(ag, owner, kind);
        self.do_submit(gid, size, message);
        debug_assert_eq!(
            self.groups[gid].results.len(),
            index + 1,
            "slot bookkeeping raced the subgroup submission"
        );
    }

    /// Books the next slot of the global sequence for `owner`, moves the
    /// rotation cursor past it and records its `AtomicSubmitted`. A null
    /// is announced by its owner's next pump and frontier flush.
    fn atomic_book(&mut self, ag: AtomicGroupId, owner: usize, kind: SlotKind) {
        let scope = self.atomic_scope(ag, owner);
        let (null, size) = match kind {
            SlotKind::Data { size, .. } => (false, size),
            SlotKind::Null => (true, 0),
        };
        let a = &mut self.atomic.groups[ag];
        let slot = a.slots.len();
        let seq = a.by_owner[owner].len() as u64;
        a.by_owner[owner].push(slot);
        a.cursor = (owner + 1) % a.nodes.len();
        a.slots.push(Slot {
            owner,
            seq,
            kind,
            trimmed: false,
        });
        self.recorder
            .record(scope, || trace::EventKind::AtomicSubmitted {
                slot: slot as u64,
                sender: owner as u32,
                null,
                size,
            });
    }

    /// Trace scope of overlay events at `member`: the *anchor* subgroup
    /// id names the group and the rank is the member index in the
    /// unrotated list.
    fn atomic_scope(&self, ag: AtomicGroupId, member: usize) -> trace::Scope {
        trace::Scope {
            node: Some(self.atomic.groups[ag].nodes[member] as u32),
            group: Some(self.atomic.groups[ag].subgroups[0] as u32),
            rank: Some(member as u32),
        }
    }

    /// A subgroup delivered a message at `rank`: map the subgroup-local
    /// rank back to the member index and re-run that member's frontier
    /// recompute and delivery engine.
    pub(crate) fn atomic_on_rdmc_delivery(&mut self, group: GroupId, rank: Rank) {
        if let Some((ag, member)) = self.atomic_member(group, rank) {
            self.atomic_pump(ag, member);
        }
    }

    /// An incoming `TAG_FRONTIER` write from `peer`: max-merge the
    /// carried cells into the writer's row of the receiving member's SST
    /// replica and re-run its delivery engine once. The write is peer
    /// input; it merges all or nothing, and any bad cell drops it whole
    /// ([`SstTable::merge_remote`]).
    pub(crate) fn atomic_frontier_arrival(
        &mut self,
        group: GroupId,
        me: Rank,
        peer: Rank,
        payload: &[u8],
    ) {
        let (Some((ag, member)), Some((_, writer))) = (
            self.atomic_member(group, me),
            self.atomic_member(group, peer),
        ) else {
            return;
        };
        let sst = &mut self.atomic.groups[ag].members[member].sst;
        if sst.merge_remote(writer as u32, payload, max_merge).is_ok() {
            self.atomic_pump(ag, member);
        }
    }

    /// How many of sender `j`'s slots are *resolved* at `member`, in
    /// dense per-sender sequence order: a data slot resolves when the
    /// member's replica of `j`'s subgroup delivered it locally, a null
    /// when the owner's published frontier covers it (trivially at the
    /// owner itself), and a trimmed slot unconditionally. The walk
    /// starts at the member's current frontier in `j`'s slot index, so
    /// it costs the slots newly resolved, not the log behind them.
    fn atomic_resolved_count(&self, ag: AtomicGroupId, member: usize, j: usize) -> u64 {
        let a = &self.atomic.groups[ag];
        let n = a.nodes.len();
        let m = &a.members[member];
        let f = m.sst.get(member as u32, j as u32);
        resolved_prefix(&a.by_owner[j], f, |s| {
            let slot = &a.slots[s];
            slot.trimmed
                || match slot.kind {
                    SlotKind::Null => member == j || m.sst.get(j as u32, j as u32) > slot.seq,
                    SlotKind::Data { index, .. } => {
                        let o = rotation::rotated_rank(member, j, n) as usize;
                        self.groups[a.subgroups[j]].results[index].delivered(o)
                    }
                }
        })
    }

    /// Recomputes `member`'s own frontier row, marks every advanced
    /// column unsent (the first one arms the member's
    /// [`TimerAction::FrontierFlush`]), and runs the delivery engine.
    /// The workhorse behind every overlay event.
    fn atomic_pump(&mut self, ag: AtomicGroupId, member: usize) {
        if self.atomic_crashed(ag, member) {
            return;
        }
        let n = self.atomic.groups[ag].nodes.len();
        let targets: Vec<u64> = (0..n)
            .map(|j| self.atomic_resolved_count(ag, member, j))
            .collect();
        let scope = self.atomic_scope(ag, member);
        let m = &mut self.atomic.groups[ag].members[member];
        let was_unsent = m.unsent;
        for (j, &t) in targets.iter().enumerate() {
            if t > m.sst.get(member as u32, j as u32) {
                m.sst.set_local(j as u32, t);
                self.recorder
                    .record(scope, || trace::EventKind::FrontierAdvanced {
                        sender: j as u32,
                        frontier: t,
                    });
                m.unsent |= 1 << j;
            }
        }
        if was_unsent == 0 && m.unsent != 0 {
            let node = self.atomic.groups[ag].nodes[member];
            self.arm_timer(
                node,
                SimDuration::ZERO,
                TimerAction::FrontierFlush { ag, member },
            );
        }
        self.atomic_deliver(ag, member);
    }

    /// `member`'s end-of-batch fan-out: every unsent column's latest
    /// value goes to every peer in the view whose node is up, in member
    /// order, as one `TAG_FRONTIER` row write (the member's own cells in
    /// column order, no header) on the anchor subgroup — at most
    /// [`MAX_ROW_CELLS`] cells a write, so every row stays under the
    /// tiny-write bypass and the epidemic stays lossless even on faulty
    /// fabrics. A crashed member's flush never fires, so its unsent
    /// columns are never sent — as if it had crashed just before posting
    /// them.
    pub(crate) fn atomic_frontier_flush(&mut self, ag: AtomicGroupId, member: usize) {
        let unsent = std::mem::take(&mut self.atomic.groups[ag].members[member].unsent);
        let anchor = self.atomic.groups[ag].subgroups[0];
        let Some(me_cur) = self.groups[anchor].current_of(member) else {
            return; // evicted from the anchor: nothing to announce on
        };
        let columns: Vec<u32> = (0..self.atomic.groups[ag].nodes.len() as u32)
            .filter(|j| unsent >> j & 1 == 1)
            .collect();
        for batch in columns.chunks(MAX_ROW_CELLS) {
            let row = self.atomic.groups[ag].members[member].sst.encode(batch);
            self.broadcast_write(anchor, me_cur, WrId(5), TAG_FRONTIER, Bytes::from(row));
        }
    }

    /// `member`'s delivery engine: announce stability-frontier advances
    /// (minima over the view's rows), then release slots in global order
    /// — trimmed slots skip, nulls skip once the member's own row covers
    /// them, data slots deliver once the announced stable frontier
    /// covers them.
    fn atomic_deliver(&mut self, ag: AtomicGroupId, member: usize) {
        let at = self.fabric.now();
        let scope = self.atomic_scope(ag, member);
        let a = &mut self.atomic.groups[ag];
        let view = &self.groups[a.subgroups[0]].orig_rank;
        let m = &mut a.members[member];
        for (j, seen) in m.stable_seen.iter_mut().enumerate() {
            let column = view.iter().map(|&r| m.sst.get(r as u32, j as u32));
            let stable = column.min().expect("a view is never empty");
            if stable > *seen {
                *seen = stable;
                self.recorder
                    .record(scope, || trace::EventKind::StableFrontier {
                        sender: j as u32,
                        frontier: stable,
                    });
            }
        }
        while let Some(slot) = a.slots.get(m.next_deliver) {
            let (sender, seq) = (slot.owner as u32, slot.seq);
            match slot.kind {
                _ if slot.trimmed => {}
                SlotKind::Null if m.sst.get(member as u32, sender) > seq => {}
                SlotKind::Data { size, message, .. } if m.stable_seen[slot.owner] > seq => {
                    let slot = m.next_deliver as u64;
                    self.recorder
                        .record(scope, || trace::EventKind::AtomicDelivered {
                            slot,
                            sender,
                            seq,
                            size,
                        });
                    m.log.push(AtomicDelivery {
                        slot,
                        sender,
                        seq,
                        size,
                        at,
                        message,
                    });
                }
                _ => break,
            }
            m.next_deliver += 1;
        }
    }

    /// The ragged trim, run after each overlay subgroup installs a new
    /// view. The members whose nodes are up exchange state: trim the
    /// reconfiguring subgroup's *abandoned* data slots and every crashed
    /// sender's unannounced nulls, pool the survivors' frontier replicas
    /// (so nulls a crashed sender announced to *anyone* resolve at
    /// *everyone*), and re-run every survivor's delivery engine.
    /// Safe by stability: a slot delivered anywhere was stable, stable
    /// slots are fully replicated, and fully replicated slots are never
    /// abandoned — so trims only ever remove slots nobody delivered.
    pub(crate) fn atomic_on_reconfig(&mut self, group: GroupId) {
        let Some((ag, j)) = self.groups[group].overlay else {
            return;
        };
        let n = self.atomic.groups[ag].nodes.len();
        let (crashed, up): (Vec<usize>, Vec<usize>) =
            (0..n).partition(|&m| self.atomic_crashed(ag, m));
        let ledger = &self.groups[group].results;
        let a = &mut self.atomic.groups[ag];
        let mut trims: Vec<u64> = Vec::new();
        // (a) this subgroup's abandoned data slots (the ledger says which).
        for &si in &a.by_owner[j] {
            let slot = &mut a.slots[si];
            if let SlotKind::Data { index, .. } = slot.kind {
                if !slot.trimmed && ledger[index].abandoned {
                    slot.trimmed = true;
                    trims.push(si as u64);
                }
            }
        }
        // (b) pool survivor replicas: each survivor max-merges into
        // every peer row the best any survivor saw of it (the
        // view-change state exchange; its own row is freshest locally).
        for row in 0..n as u32 {
            let best: Vec<u8> = (0..n as u32)
                .flat_map(|s| {
                    let seen = up.iter().map(|&m| a.members[m].sst.get(row, s)).max();
                    SstTable::cell(s, seen.unwrap_or(0))
                })
                .collect();
            for &m in up.iter().filter(|&&m| m as u32 != row) {
                a.members[m]
                    .sst
                    .merge_remote(row, &best, max_merge)
                    .expect("a peer row, every sender column, and max refuses nothing");
            }
        }
        // (c) crashed owners' nulls beyond what they ever announced:
        // no survivor can learn of them now, so they are trimmed.
        for w in crashed {
            let reach = up
                .iter()
                .map(|&m| a.members[m].sst.get(w as u32, w as u32))
                .max()
                .unwrap_or(0);
            for &si in &a.by_owner[w] {
                let slot = &mut a.slots[si];
                if !slot.trimmed && matches!(slot.kind, SlotKind::Null) && slot.seq >= reach {
                    slot.trimmed = true;
                    trims.push(si as u64);
                }
            }
        }
        trims.sort_unstable();
        let anchor = trace::Scope::group(a.subgroups[0] as u32);
        for slot in trims {
            self.recorder
                .record(anchor, || trace::EventKind::AtomicTrimmed { slot });
        }
        for m in up {
            self.atomic_pump(ag, m);
        }
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use rdmc::Algorithm;

    use std::collections::BTreeSet;

    use super::*;
    use crate::{ClusterBuilder, ClusterSpec, RecoveryConfig, SimCluster};

    #[test]
    fn rotation_skips_dead_members() {
        assert_eq!(next_owner(&[0, 1, 2, 3], 2), 2);
        assert_eq!(next_owner(&[0, 1, 3], 2), 3);
        assert_eq!(next_owner(&[0, 1], 2), 0, "wraps past the dead tail");
        assert_eq!(next_owner(&[1], 0), 1);
        assert_eq!(next_owner(&[1], 3), 1);
    }

    /// The regression test for "flat in history": however long the
    /// index, the walk asks about one entry more than it advances over.
    #[test]
    fn prefix_walk_visits_one_more_than_it_advances() {
        for len in [10usize, 10_000] {
            let index: Vec<usize> = (0..len).map(|seq| 3 * seq + 1).collect();
            for from in [0, len / 2, len] {
                for advance in [0, 1, 4, len - from] {
                    let end = (from + advance).min(len);
                    let mut visits = 0;
                    let f = resolved_prefix(&index, from as u64, |s| {
                        visits += 1;
                        s < 3 * end + 1
                    });
                    assert_eq!(f, end as u64, "len {len} from {from}");
                    assert!(visits <= end - from + 1, "len {len} from {from}: {visits}");
                }
            }
            for past in [len as u64 + 1, u64::MAX] {
                let f = resolved_prefix(&index, past, |_| panic!("nothing to visit"));
                assert_eq!(f, past);
            }
        }
    }

    const BLOCK: u64 = 64 << 10;

    fn builder(n: usize) -> ClusterBuilder {
        ClusterBuilder::new(ClusterSpec::fractus(n))
            .recovery(RecoveryConfig::default())
            .atomic(GroupSpec {
                members: (0..n).collect(),
                algorithm: Algorithm::BinomialPipeline,
                block_size: BLOCK,
                ready_window: 2,
                max_outstanding_sends: 2,
            })
    }

    fn cluster(n: usize) -> SimCluster {
        builder(n).build()
    }

    /// The walk [`Cluster::atomic_resolved_count`] replaced, verbatim:
    /// every one of `j`'s slots from slot 0, found by filtering the
    /// whole log. Kept as the oracle the indexed walk is held to.
    fn scan_resolved_count(c: &SimCluster, ag: AtomicGroupId, member: usize, j: usize) -> u64 {
        let a = &c.atomic.groups[ag];
        let n = a.nodes.len();
        let m = &a.members[member];
        let mut f = m.sst.get(member as u32, j as u32);
        for slot in a.slots.iter().filter(|s| s.owner == j) {
            if slot.seq < f {
                continue;
            }
            if slot.seq > f {
                break;
            }
            let resolved = slot.trimmed
                || match slot.kind {
                    SlotKind::Null => member == j || m.sst.get(j as u32, j as u32) > slot.seq,
                    SlotKind::Data { index, .. } => {
                        let o = rotation::rotated_rank(member, j, n) as usize;
                        c.groups[a.subgroups[j]].results[index].delivered(o)
                    }
                };
            if !resolved {
                break;
            }
            f += 1;
        }
        f
    }

    /// The index is exactly `slots` regrouped (position = `seq`), and
    /// the indexed count equals the scan for every `(member, j)`.
    fn assert_index_matches_scan(c: &SimCluster) {
        let a = &c.atomic.groups[0];
        for (s, slot) in a.slots.iter().enumerate() {
            assert_eq!(a.by_owner[slot.owner][slot.seq as usize], s);
        }
        assert_eq!(
            a.by_owner.iter().map(Vec::len).sum::<usize>(),
            a.slots.len()
        );
        let n = a.nodes.len();
        for member in 0..n {
            for j in 0..n {
                assert_eq!(
                    c.atomic_resolved_count(0, member, j),
                    scan_resolved_count(c, 0, member, j),
                    "member {member} sender {j} at {} slots",
                    a.slots.len()
                );
            }
        }
    }

    /// Steps `c` (to quiescence, or at most `steps` times), holding the
    /// index to the scan after every step.
    fn step_checked(c: &mut SimCluster, steps: usize) {
        for _ in 0..steps {
            if !c.step() {
                break;
            }
            assert_index_matches_scan(c);
        }
    }

    #[test]
    fn indexed_count_equals_scan_under_rotation_and_jumps() {
        for n in [2usize, 3, 8] {
            let mut c = cluster(n);
            let mut rng = StdRng::seed_from_u64(n as u64);
            for _ in 0..12 {
                for _ in 0..3 {
                    if rng.random_bool(0.25) {
                        c.submit_atomic_from(0, rng.random_range(0..n), BLOCK);
                    } else {
                        c.submit_atomic(0, BLOCK);
                    }
                    assert_index_matches_scan(&c);
                }
                // Not to quiescence: the next window lands on traffic
                // still in flight.
                step_checked(&mut c, 40 * n);
            }
            step_checked(&mut c, usize::MAX);
            let a = &c.atomic.groups[0];
            assert!(a.slots.iter().any(|s| matches!(s.kind, SlotKind::Null)));
            assert!(c.atomic_trimmed_slots(0).is_empty());
            assert_eq!(c.check_run(), Ok(()));
        }
    }

    #[test]
    fn indexed_count_equals_scan_when_a_sender_crashes_mid_message() {
        for n in [2usize, 3, 8] {
            let mut c = cluster(n);
            // Every member has a two-block message in flight when the
            // last one goes down a few protocol steps in.
            c.crash_after_events(n - 1, 2 * n as u64);
            for _ in 0..2 * n {
                c.submit_atomic(0, 2 * BLOCK);
                assert_index_matches_scan(&c);
            }
            step_checked(&mut c, usize::MAX);
            let a = &c.atomic.groups[0];
            let trimmed = c.atomic_trimmed_slots(0);
            assert!(!trimmed.is_empty(), "n {n}: no abandoned slot was trimmed");
            for s in trimmed {
                assert_eq!(a.slots[s as usize].owner, n - 1);
                assert!(matches!(a.slots[s as usize].kind, SlotKind::Data { .. }));
            }
            assert_eq!(c.check_run(), Ok(()));
        }
    }

    #[test]
    fn indexed_count_equals_scan_when_a_dead_senders_nulls_are_trimmed() {
        for n in [2usize, 3, 8] {
            let mut c = cluster(n);
            // Member 1's first null is announced to everyone ...
            c.submit_atomic(0, BLOCK);
            c.submit_atomic_from(0, 0, BLOCK);
            step_checked(&mut c, usize::MAX);
            // ... its second is booked after it crashed: never announced.
            c.crash_now(1);
            c.submit_atomic_from(0, 0, BLOCK);
            assert_index_matches_scan(&c);
            step_checked(&mut c, usize::MAX);
            let a = &c.atomic.groups[0];
            let unannounced = a.by_owner[1][1] as u64;
            assert!(matches!(a.slots[a.by_owner[1][0]].kind, SlotKind::Null));
            assert!(!a.slots[a.by_owner[1][0]].trimmed);
            assert_eq!(c.atomic_trimmed_slots(0), vec![unannounced]);
            assert_eq!(c.check_run(), Ok(()));
        }
    }

    /// The overlay's membership is the anchor subgroup's view after every
    /// step of a crash run, even while another subgroup has installed
    /// its view first.
    #[test]
    fn overlay_view_is_the_anchor_view_at_every_step() {
        const N: usize = 4;
        for victim in 0..N {
            for step in [0, 5, 20, 40] {
                let mut c = cluster(N);
                let anchor = c.atomic_subgroups(0)[0];
                c.crash_after_events(victim, step);
                for _ in 0..8 {
                    c.submit_atomic(0, 2 * BLOCK);
                }
                while c.step() {
                    let view: Vec<usize> = c
                        .surviving_ranks(anchor)
                        .iter()
                        .map(|&r| r as usize)
                        .collect();
                    assert_eq!(
                        c.atomic_live_members(0),
                        view,
                        "victim {victim} step {step}"
                    );
                }
                assert!(!c.atomic_live_members(0).contains(&victim));
                assert_eq!(c.check_run(), Ok(()));
            }
        }
    }

    /// Whether `e` posts a `TAG_FRONTIER` row write.
    fn is_row(e: &trace::TraceEvent) -> bool {
        matches!(e.kind, trace::EventKind::WritePosted { tag, .. } if tag == TAG_FRONTIER)
    }

    /// The frontier fan-out, read off the flight recorder across an
    /// eviction: every `FrontierAdvanced` at a member is covered by that
    /// member's next `TAG_FRONTIER` fan-out — one row write to every
    /// other member whose node is up, in ascending member order, with one
    /// cell per column advanced since its previous fan-out — and so none
    /// towards the victim once it is down, before or after the anchor
    /// evicts it. No live member is left holding an unsent column.
    #[test]
    fn frontier_rows_reach_every_live_member_once_in_rank_order() {
        const N: usize = 4;
        const VICTIM: usize = 2;
        let mut c = builder(N).flight_recorder().build();
        let anchor = c.atomic_subgroups(0)[0] as u32;
        c.crash_after_events(VICTIM, 6 * N as u64);
        for _ in 0..3 * N {
            c.submit_atomic(0, 2 * BLOCK);
        }
        c.run();
        // A second wave on the shrunken view, with a jump (nulls).
        for _ in 0..N {
            c.submit_atomic(0, BLOCK);
        }
        c.submit_atomic_from(0, 0, BLOCK);
        c.run();
        assert_eq!(c.atomic_live_members(0), vec![0, 1, 3]);
        assert_eq!(c.check_run(), Ok(()));

        let mut down = BTreeSet::new();
        let mut evicted = false;
        let mut unsent = vec![BTreeSet::new(); N];
        let (mut fanouts_after_crash, mut fanouts_after_eviction, mut coalesced) = (0, 0, 0);
        let events = c.trace_events();
        let mut it = events.iter().peekable();
        while let Some(e) = it.next() {
            match &e.kind {
                trace::EventKind::NodeCrashed => {
                    down.insert(e.scope.node.unwrap() as usize);
                }
                trace::EventKind::ReconfigInstalled { removed, .. }
                    if e.scope.group == Some(anchor) =>
                {
                    assert_eq!(removed, &[VICTIM as u32]);
                    evicted = true;
                }
                trace::EventKind::FrontierAdvanced { sender, .. } => {
                    let me = e.scope.rank.unwrap() as usize;
                    assert!(!down.contains(&me), "a dead member advanced");
                    unsent[me].insert(*sender);
                }
                trace::EventKind::WritePosted { .. } if is_row(e) => {
                    let me = e.scope.node.unwrap() as usize;
                    assert!(!down.contains(&me), "a dead member wrote");
                    let cells = std::mem::take(&mut unsent[me]);
                    assert!(
                        !cells.is_empty(),
                        "member {me}: a fan-out with nothing to say"
                    );
                    let peers: Vec<usize> =
                        (0..N).filter(|p| *p != me && !down.contains(p)).collect();
                    let mut targets = Vec::new();
                    let mut w = Some(e);
                    while let Some(write) = w {
                        let trace::EventKind::WritePosted {
                            conn, end, bytes, ..
                        } = write.kind
                        else {
                            unreachable!()
                        };
                        assert_eq!(bytes, 12 * cells.len() as u64, "member {me}: {cells:?}");
                        let to = c.fabric.qp_peer(verbs::QpHandle::from_parts(conn, end));
                        targets.push(to.index());
                        w = it.next_if(|n| is_row(n) && n.scope.node == e.scope.node);
                    }
                    assert_eq!(targets, peers, "member {me}, down {down:?}");
                    coalesced += usize::from(cells.len() > 1);
                    fanouts_after_crash += usize::from(!down.is_empty());
                    fanouts_after_eviction += usize::from(evicted);
                }
                _ => {}
            }
        }
        assert_eq!(down, BTreeSet::from([VICTIM]));
        for m in c.atomic_live_members(0) {
            assert!(
                unsent[m].is_empty(),
                "member {m} never sent {:?}",
                unsent[m]
            );
        }
        assert!(coalesced > 0, "no fan-out carried more than one column");
        assert!(fanouts_after_eviction > 0 && fanouts_after_crash > fanouts_after_eviction);
    }

    /// `TAG_FRONTIER` writes per committed operation on an 8-member
    /// group: rotating roots, 31-operation windows, one origin in eight
    /// a seeded jump (so nulls too). The per-advance fan-out this batching
    /// replaced posted 8,491 writes for these 124 operations (68.5 a
    /// committed operation).
    #[test]
    fn batched_rows_cut_frontier_writes_per_operation() {
        const PER_ADVANCE_WRITES: usize = 8_491;
        const N: usize = 8;
        const WINDOWS: usize = 4;
        const WINDOW: usize = 31;
        let mut c = ClusterBuilder::new(ClusterSpec::fractus(N))
            .atomic(GroupSpec {
                members: (0..N).collect(),
                algorithm: Algorithm::BinomialPipeline,
                block_size: 8 << 10,
                ready_window: 3,
                max_outstanding_sends: 3,
            })
            .flight_recorder()
            .build();
        let mut rng = StdRng::seed_from_u64(1);
        let mut cursor = 0;
        for _ in 0..WINDOWS {
            for _ in 0..WINDOW {
                let origin = if rng.random_bool(0.125) {
                    rng.random_range(0..N)
                } else {
                    cursor
                };
                c.submit_atomic_from(0, origin, 8 << 10);
                cursor = (origin + 1) % N;
            }
            c.run();
        }
        assert_eq!(c.check_run(), Ok(()));
        let ops = c.atomic_log(0, 0).len();
        assert_eq!(ops, WINDOWS * WINDOW);
        let writes = c.trace_events().iter().filter(|e| is_row(e)).count();
        assert!(
            writes < PER_ADVANCE_WRITES,
            "{writes} frontier writes for {ops} operations"
        );
    }

    /// `TAG_FRONTIER` bytes are peer input: a malformed write, or one
    /// naming a column that is not a sender's, is dropped at the arrival
    /// site — whole: a row write with one bad cell merges none of its
    /// good ones — and a well-formed one still merges into the writer's
    /// row, the one its queue pair names.
    #[test]
    fn malformed_frontier_writes_are_dropped() {
        let n = 3u32;
        let mut c = cluster(n as usize);
        let anchor = c.atomic_subgroups(0)[0];
        let write = |cells: &[(u32, u64)]| -> Vec<u8> {
            cells
                .iter()
                .flat_map(|&(col, val)| SstTable::cell(col, val))
                .collect()
        };
        // Member 2 writes at member 1, on the anchor subgroup.
        let good = write(&[(0, 5)]);
        let two = write(&[(0, 5), (2, 7)]);
        let malformed = [
            Vec::new(),
            good[..3].to_vec(),
            good[..11].to_vec(),
            [good.as_slice(), &[0]].concat(),
            [two.as_slice(), &[0]].concat(),
            two[..23].to_vec(),
            write(&[(n, 5)]),
            write(&[(u32::MAX, 5)]),
            // A good cell, then a bad one: nothing of it may merge.
            write(&[(0, 5), (n, 5)]),
            write(&[(1, 6), (0, 5), (u32::MAX, 5)]),
        ];
        let before = c.state_digest();
        let replica = |c: &SimCluster| format!("{:?}", c.atomic.groups[0].members[1].sst);
        let replica_before = replica(&c);
        for (peer, p) in malformed.iter().map(|p| (2, p)).chain([(1, &good)]) {
            c.atomic_frontier_arrival(anchor, 1, peer, p);
            assert_eq!(replica(&c), replica_before, "{peer}: {p:?}");
            assert_eq!(c.atomic.groups[0].members[1].unsent, 0, "{p:?}");
        }
        assert_eq!(c.state_digest(), before);
        c.atomic_frontier_arrival(anchor, 1, 2, &two);
        let sst = &c.atomic.groups[0].members[1].sst;
        assert_eq!((0..n).map(|s| sst.get(2, s)).collect::<Vec<_>>(), [5, 0, 7]);
    }
}
