//! Failure injection and epoch-based recovery: the §2.4 membership
//! service.
//!
//! RDMC proper stops at the *wedge* (§3 property 6); §2.4 assumes an
//! external membership service restarts interrupted transfers in a new
//! group. [`crate::ClusterBuilder::recovery`] turns that service on: each
//! member runs an SST-style [`ViewTracker`] whose suspicion updates
//! spread epidemically over the fabric (`TAG_VIEW` writes). That row is
//! a recovery group's only failure notice: the engines' `RelayFailure`
//! sends nothing, and a member learns a failure one way, by suspecting
//! it (`suspect`) or merging a row that does (`view_update`); either
//! wedges its engine once per failed peer (`wedge_on`). Once every
//! unsuspected member publishes the identical failure set, the agreed
//! view is installed — old queue pairs torn down, survivors renumbered,
//! and every interrupted message resumed block-wise from the survivors'
//! wedge-time bitmaps via the `recovery` planner (with sender-side
//! re-multicast when one member holds everything, and consistent
//! whole-group discard when the failed members took the only copy of a
//! block with them). Reconfiguration attempts are paced by a grace
//! timer with exponential backoff capped at `MAX_BACKOFF`, and after
//! `FORCE_AFTER` fruitless attempts the orchestrator force-feeds the
//! failure evidence rather than waiting for the epidemic — the
//! simulation's stand-in for a heavyweight external failure detector.
//!
//! Everything here runs *outside* the protocol engines: engines only
//! ever see `PeerFailed` events and `install_epoch` calls, exactly like
//! a real RDMC deployment under an external membership layer.

use std::collections::{BTreeMap, BTreeSet};

use bytes::Bytes;
use rdmc::engine::{Action, EpochInstall, Event, GroupEngine, ResumeTransfer, TransferStatus};
use rdmc::{MessageLayout, Rank};
use recovery::{plan_message_resume, resume_transfers, MessagePlan, ResumeStrategy};
use simnet::{SimDuration, SimTime};
use sst::{View, ViewTracker};
use verbs::{NodeId, QpHandle, Transport, WrId};

use crate::cluster::{Cluster, GroupId, TimerAction};

/// One-sided-write tag for membership-view (suspicion/epoch) updates.
pub(crate) const TAG_VIEW: u64 = 3;

/// Cap on the exponential backoff between reconfiguration attempts.
const MAX_BACKOFF: SimDuration = SimDuration::from_millis(16);

/// Fruitless reconfiguration attempts after which the orchestrator
/// force-feeds the failure evidence instead of waiting for the epidemic.
const FORCE_AFTER: u32 = 5;

/// Configuration of the epoch-based recovery orchestration
/// ([`crate::ClusterBuilder::recovery`]).
#[derive(Clone, Debug)]
pub struct RecoveryConfig {
    /// Delay from a member's first failure suspicion to the first
    /// reconfiguration attempt (lets the epidemic converge and batches
    /// near-simultaneous failures into one view change).
    pub grace: SimDuration,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            grace: SimDuration::from_millis(2),
        }
    }
}

/// First suspicion of one failed member (detection-latency accounting).
#[derive(Clone, Debug)]
pub struct DetectionRecord {
    /// The group that noticed.
    pub group: GroupId,
    /// The suspected member, in *original* group ranks.
    pub failed: Rank,
    /// The suspected member's fabric node.
    pub node: usize,
    /// When the first survivor suspected it.
    pub suspected_at: SimTime,
}

/// One completed reconfiguration.
#[derive(Clone, Debug)]
pub struct ReconfigRecord {
    /// The reconfigured group.
    pub group: GroupId,
    /// The installed epoch number.
    pub epoch: u64,
    /// Members removed by this view change, in original ranks.
    pub removed: Vec<Rank>,
    /// Surviving members, in original ranks (new rank = index).
    pub survivors: Vec<Rank>,
    /// When the triggering failure was first suspected.
    pub first_suspected_at: SimTime,
    /// When the new epoch was installed on every survivor.
    pub installed_at: SimTime,
    /// Messages resumed block-wise.
    pub resumed: usize,
    /// Messages resumed by sender-side re-multicast.
    pub remulticast: usize,
    /// Messages where every survivor already held every block.
    pub already_complete: usize,
    /// Total block transfers across all resume schedules (the bytes the
    /// new epoch must move — only the *missing* blocks).
    pub resumed_blocks: usize,
    /// Message indices discarded group-wide (a failed member took the
    /// only copy of some block).
    pub abandoned: Vec<usize>,
    /// Whether the orchestrator had to force the view.
    pub forced: bool,
}

/// Everything the recovery orchestration measured.
#[derive(Clone, Debug, Default)]
pub struct RecoveryStats {
    /// First-suspicion records, in suspicion order.
    pub detections: Vec<DetectionRecord>,
    /// Completed reconfigurations, in installation order.
    pub reconfigurations: Vec<ReconfigRecord>,
}

/// Per-group membership/recovery state (present when recovery is on).
///
/// Trackers for single-member groups are degenerate (no peer can fail);
/// `ViewTracker` itself requires `n >= 1` only.
pub(crate) struct GroupRecovery {
    /// One tracker per *original* rank; dead members' trackers freeze.
    trackers: Vec<ViewTracker>,
    /// Original ranks already counted in the detection stats.
    detected: BTreeSet<Rank>,
    /// Bumped at every install; reconfiguration timers carry the version
    /// they were armed under and go stale when it moves.
    version: u64,
    /// First suspicion time of the in-progress cycle.
    cycle_started: Option<SimTime>,
}

impl GroupRecovery {
    fn new(n: usize) -> Self {
        GroupRecovery {
            trackers: (0..n)
                .map(|r| ViewTracker::new(r as u32, n as u32))
                .collect(),
            detected: BTreeSet::new(),
            version: 0,
            cycle_started: None,
        }
    }

    /// Ends the in-progress view-change cycle: timers armed under the
    /// old version go stale.
    fn close_cycle(&mut self) {
        self.version += 1;
        self.cycle_started = None;
    }
}

/// Cluster-wide failure-injection and view-change state.
#[derive(Default)]
pub(crate) struct Reconfig {
    /// `None` = wedge-only semantics (the paper's RDMC proper); set by
    /// [`crate::ClusterBuilder::recovery`], before any group exists.
    pub(crate) config: Option<RecoveryConfig>,
    stats: RecoveryStats,
    /// Per-group membership state, indexed by [`GroupId`]; empty while
    /// recovery is off (the switch is set before any group exists).
    groups: Vec<GroupRecovery>,
    /// When each crashed node went down (detection-latency baseline).
    pub(crate) crash_times: BTreeMap<usize, SimTime>,
    /// Step -> nodes to crash just before feeding that step's event.
    event_crashes: BTreeMap<u64, Vec<usize>>,
}

impl Reconfig {
    /// A group was created: start tracking its view if recovery is on.
    pub(crate) fn track_group(&mut self, n: usize) {
        if self.config.is_some() {
            self.groups.push(GroupRecovery::new(n));
        }
    }
}

/// Failure injection: how tests and harnesses take nodes and links
/// down, and what the cluster remembers about it.
impl<T: Transport> Cluster<T> {
    /// Whether failures trigger view changes (`false` = wedge-only).
    pub(crate) fn recovery_enabled(&self) -> bool {
        self.reconfig.config.is_some()
    }

    /// What the recovery orchestration detected and reconfigured so far.
    pub fn recovery_stats(&self) -> &RecoveryStats {
        &self.reconfig.stats
    }

    /// Crashes a node immediately: its queues drop, in-flight work is
    /// flushed, and peers detect the broken connections.
    pub fn crash_now(&mut self, node: usize) {
        let now = self.fabric.now();
        self.reconfig.crash_times.entry(node).or_insert(now);
        self.fabric.crash(NodeId(node as u32));
        if let Some(p) = self.pacer.as_mut() {
            p.drop_node_queue(node);
        }
    }

    /// Schedules a node crash at an absolute virtual time.
    pub fn schedule_crash_at(&mut self, node: usize, at: SimTime) {
        let delay = at.saturating_since(self.fabric.now());
        self.arm_timer(node, delay, TimerAction::Crash { node });
    }

    /// Crashes `node` just before the `n`-th engine event (0-based,
    /// cluster-wide) is fed — the chaos harness's deterministic "crash at
    /// protocol step `n`" trigger. `n = 0` crashes before any protocol
    /// activity at all.
    pub fn crash_after_events(&mut self, node: usize, n: u64) {
        self.reconfig.event_crashes.entry(n).or_default().push(node);
    }

    /// Deterministic chaos trigger: crashes the nodes scheduled for the
    /// protocol step about to be fed.
    pub(crate) fn fire_event_crashes(&mut self) {
        if let Some(nodes) = self.reconfig.event_crashes.remove(&self.fed_events) {
            for victim in nodes {
                self.crash_now(victim);
            }
        }
    }

    /// Engine events fed so far (the protocol-step counter
    /// [`Cluster::crash_after_events`] indexes into).
    pub fn events_fed(&self) -> u64 {
        self.fed_events
    }

    /// When `node` went down, if it crashed.
    pub fn crash_time(&self, node: usize) -> Option<SimTime> {
        self.reconfig.crash_times.get(&node).copied()
    }

    /// Severs the queue pair between two current members of `group`
    /// without crashing either node (a link flap). Both endpoints will
    /// suspect each other; because there is no rejoin path, the agreed
    /// view evicts every suspected member even though its node is alive.
    pub fn inject_link_flap(&mut self, group: GroupId, a: Rank, b: Rank) {
        let qp = self.ensure_qp(group, a, b);
        self.fabric.break_qp(qp);
    }
}

/// Suspicion, the view epidemic, and the view change itself.
impl<T: Transport> Cluster<T> {
    /// `me` suspects original rank `o` itself — from a broken connection,
    /// a relayed notice, a loss escalation or the forcing detector. The
    /// only way a tracker suspects: a new suspicion opens the cycle,
    /// wedges `me`'s engine and broadcasts `me`'s row, which is the
    /// group's only failure notice. Returns whether it was new.
    pub(crate) fn suspect(&mut self, group: GroupId, me: Rank, o: usize) -> bool {
        let orig_me = self.groups[group].orig_rank[me as usize];
        if orig_me == o || self.fabric.is_crashed(self.groups[group].node(me)) {
            return false;
        }
        let rec = &mut self.reconfig.groups[group];
        let Some(payload) = rec.trackers[orig_me].suspect(o as u32) else {
            return false; // already suspected: `me` is wedged on it
        };
        rec.cycle_started.get_or_insert(self.fabric.now());
        self.recorder
            .record(self.groups[group].scope(group, me), || {
                trace::EventKind::Suspected { failed: o as u32 }
            });
        self.wedge_on(group, me, o);
        self.broadcast_view(group, me, &payload);
        true
    }

    /// `me`'s tracker now suspects original rank `o`: count the detection
    /// (once per group and member) and wedge `me`'s engine if `o` is a
    /// current peer. The only `PeerFailed` feed of the membership service.
    fn wedge_on(&mut self, group: GroupId, me: Rank, o: usize) {
        if self.reconfig.groups[group].detected.insert(o as Rank) {
            self.reconfig.stats.detections.push(DetectionRecord {
                group,
                failed: o as Rank,
                node: self.groups[group].spec.members[o],
                suspected_at: self.fabric.now(),
            });
        }
        if let Some(rank) = self.groups[group].current_of(o).filter(|&cur| cur != me) {
            self.feed(group, me, Event::PeerFailed { rank });
        }
    }

    /// Handles an incoming `TAG_VIEW` write: merge it monotonically, wedge
    /// the local engine on any newly learned failure, echo growth, and arm
    /// a reconfiguration timer. A write the tracker rejects
    /// ([`ViewTracker::apply_remote`]) is dropped.
    pub(crate) fn view_update(&mut self, group: GroupId, me: Rank, peer: Rank, payload: &[u8]) {
        let Some(config) = self.reconfig.config.clone() else {
            return;
        };
        if self.fabric.is_crashed(self.groups[group].node(me)) {
            return;
        }
        let orig_me = self.groups[group].orig_rank[me as usize];
        let orig_peer = self.groups[group].orig_rank[peer as usize];
        let tracker = &mut self.reconfig.groups[group].trackers[orig_me];
        let before = tracker.suspected();
        let Ok(echo) = tracker.apply_remote(orig_peer as u32, payload) else {
            return;
        };
        let newly: Vec<u32> = tracker.suspected().difference(&before).copied().collect();
        if !newly.is_empty() {
            let now = self.fabric.now();
            self.reconfig.groups[group].cycle_started.get_or_insert(now);
            let count = newly.len() as u32;
            self.recorder
                .record(self.groups[group].scope(group, me), || {
                    trace::EventKind::ViewMerged {
                        from: orig_peer as u32,
                        newly: count,
                    }
                });
        }
        for &o in &newly {
            self.wedge_on(group, me, o as usize);
        }
        if let Some(echo) = echo {
            self.broadcast_view(group, me, &echo);
        }
        if !newly.is_empty() {
            self.arm_reconfigure(group, me, 0, config.grace);
        }
    }

    /// Posts a view-table row update from `me` to every live current peer.
    fn broadcast_view(&mut self, group: GroupId, me: Rank, payload: &[u8]) {
        self.broadcast_write(
            group,
            me,
            WrId(2),
            TAG_VIEW,
            Bytes::copy_from_slice(payload),
        );
    }

    /// Schedules a reconfiguration attempt on `me`'s node after `delay`,
    /// under the group's current version.
    pub(crate) fn arm_reconfigure(
        &mut self,
        group: GroupId,
        me: Rank,
        attempt: u32,
        delay: SimDuration,
    ) {
        let node = self.groups[group].node(me).index();
        let action = TimerAction::Reconfigure {
            group,
            version: self.reconfig.groups[group].version,
            attempt,
        };
        self.arm_timer(node, delay, action);
    }

    /// One reconfiguration attempt: install the agreed view if the
    /// epidemic has converged, otherwise retry with bounded exponential
    /// backoff and force the view after `FORCE_AFTER` fruitless tries.
    pub(crate) fn try_reconfigure(&mut self, group: GroupId, version: u64, attempt: u32) {
        let Some(config) = self.reconfig.config.clone() else {
            return;
        };
        if self.reconfig.groups[group].version != version {
            return; // a newer epoch was installed since this timer was armed
        }
        let g = &self.groups[group];
        let live: Vec<Rank> = (0..g.orig_rank.len() as Rank)
            .filter(|&r| !self.fabric.is_crashed(g.node(r)))
            .collect();
        let Some(&coordinator) = live.first() else {
            // Group extinct: close the cycle so stale timers die.
            self.reconfig.groups[group].close_cycle();
            return;
        };
        // First live member with an agreement candidate (mutually
        // suspecting flap victims never produce one themselves).
        let rec = &self.reconfig.groups[group];
        let candidate: Option<View> = live
            .iter()
            .find_map(|&r| rec.trackers[g.orig_rank[r as usize]].agreed_view());
        let agreed = candidate.filter(|view| {
            live.iter().all(|&r| {
                let o = g.orig_rank[r as usize];
                view.failed.contains(&(o as u32))
                    || rec.trackers[o].agreed_view().as_ref() == Some(view)
            })
        });
        if let Some(view) = agreed {
            // A would-be survivor whose node is already down means the
            // epidemic is behind the fabric: inject the suspicion at every
            // live member and come back, so the installed view never
            // contains a corpse.
            let undetected: Vec<u32> = view
                .members
                .iter()
                .copied()
                .filter(|&o| {
                    self.fabric
                        .is_crashed(NodeId(g.spec.members[o as usize] as u32))
                })
                .collect();
            if undetected.is_empty() {
                self.perform_reconfiguration(group, view, false);
                return;
            }
            for o in undetected {
                self.suspect_everywhere(group, o);
            }
            self.arm_reconfigure(group, coordinator, attempt + 1, config.grace);
            return;
        }
        if attempt + 1 >= FORCE_AFTER {
            self.force_reconfiguration(group, &live);
            return;
        }
        let backoff = SimDuration::from_nanos(
            config
                .grace
                .as_nanos()
                .saturating_mul(1u64 << attempt.min(20)),
        )
        .min(MAX_BACKOFF);
        self.arm_reconfigure(group, coordinator, attempt + 1, backoff);
    }

    /// Makes every live member suspect original rank `o` directly — the
    /// simulation's stand-in for a heavyweight external failure detector.
    fn suspect_everywhere(&mut self, group: GroupId, o: u32) {
        for r in 0..self.groups[group].orig_rank.len() as Rank {
            self.suspect(group, r, o as usize);
        }
    }

    /// Last resort after `FORCE_AFTER` attempts: union every suspicion and
    /// every fabric-level crash into one view and install it.
    fn force_reconfiguration(&mut self, group: GroupId, live: &[Rank]) {
        let n_orig = self.groups[group].spec.members.len();
        let mut mask: BTreeSet<u32> = BTreeSet::new();
        let g = &self.groups[group];
        let rec = &self.reconfig.groups[group];
        for &r in live {
            mask.extend(rec.trackers[g.orig_rank[r as usize]].suspected());
        }
        for o in 0..n_orig {
            let crashed = self.fabric.is_crashed(NodeId(g.spec.members[o] as u32));
            if crashed || g.current_of(o).is_none() {
                mask.insert(o as u32);
            }
        }
        let members: Vec<u32> = (0..n_orig as u32).filter(|o| !mask.contains(o)).collect();
        if members.is_empty() {
            self.reconfig.groups[group].close_cycle();
            return;
        }
        for &o in &mask {
            self.suspect_everywhere(group, o);
        }
        let rec = &self.reconfig.groups[group];
        let epoch = members
            .iter()
            .map(|&o| rec.trackers[o as usize].installed_epoch())
            .max()
            .expect("non-empty members")
            + 1;
        let view = View {
            epoch,
            failed: mask,
            members,
        };
        self.perform_reconfiguration(group, view, true);
    }

    /// Installs an agreed (or forced) view: evicts the failed members,
    /// plans a resume for every interrupted message from the survivors'
    /// wedge-time bitmaps, tears down the old epoch's queue pairs,
    /// renumbers the survivors, and installs the new epoch on every
    /// engine and tracker.
    fn perform_reconfiguration(&mut self, group: GroupId, view: View, forced: bool) {
        let now = self.fabric.now();
        // Members this view change actually removes (still present in the
        // current epoch's membership), in original ranks.
        let g = &self.groups[group];
        let current = |&o: &Rank| g.current_of(o as usize).is_some();
        let removed: Vec<Rank> = view.failed.iter().copied().filter(current).collect();
        if removed.is_empty() {
            self.reconfig.groups[group].close_cycle();
            return;
        }
        // Evict: a suspected member with a live node (e.g. a link-flap
        // victim) leaves the fabric too — there is no rejoin path, and a
        // half-connected member must not keep acting.
        let nodes = view.failed.iter().map(|&o| g.spec.members[o as usize]);
        let evict: Vec<usize> = nodes
            .filter(|&node| !self.fabric.is_crashed(NodeId(node as u32)))
            .collect();
        for node in evict {
            self.crash_now(node);
        }
        let survivors_orig: Vec<usize> = view.members.iter().map(|&o| o as usize).collect();
        let ns = survivors_orig.len();
        let block_size = self.groups[group].spec.block_size;
        // Snapshot every survivor's wedge-time transfer state, keyed by
        // message index. An engine's undelivered transfers line up with
        // the front of that member's outstanding messages in the ledger
        // (both are in message order, and the engine only knows about
        // messages it has begun).
        let mut status_of: BTreeMap<(usize, usize), TransferStatus> = BTreeMap::new();
        let mut incomplete: BTreeSet<usize> = BTreeSet::new();
        let mut queued_at_root: BTreeSet<usize> = BTreeSet::new();
        let g = &self.groups[group];
        for &o in &survivors_orig {
            let cur = g.current_of(o).expect("survivor is a current member") as usize;
            let outstanding: Vec<usize> = g.outstanding(o).collect();
            let mut pend = outstanding.iter();
            for s in g.engines[cur].incomplete_transfers() {
                if s.delivered {
                    continue; // delivered pre-wedge: holdings are full
                }
                let idx = *pend
                    .next()
                    .expect("undelivered engine transfer is outstanding");
                status_of.insert((o, idx), s);
            }
            // The surviving root's queued-but-unstarted sends restart
            // naturally in the new epoch (install_epoch keeps them);
            // they need no resume plan.
            if cur == 0 {
                let qn = g.engines[0].queued_sizes().count();
                queued_at_root.extend(outstanding.iter().rev().take(qn));
            }
            incomplete.extend(outstanding);
        }
        incomplete.retain(|idx| !queued_at_root.contains(idx));
        // Plan every interrupted message: resume block-wise, re-multicast
        // from a lone full holder, or consistently abandon.
        let mut resumes_by_rank: Vec<Vec<ResumeTransfer>> = vec![Vec::new(); ns];
        let mut abandoned: Vec<usize> = Vec::new();
        let (mut n_resumed, mut n_remulti, mut n_complete, mut n_blocks) = (0usize, 0, 0, 0);
        for &idx in &incomplete {
            let m = &self.groups[group].results[idx];
            let size = m.size;
            let k = MessageLayout::new(size, block_size).num_blocks as usize;
            let (holdings, delivered_flags): (Vec<Vec<bool>>, Vec<bool>) = survivors_orig
                .iter()
                .map(|&o| {
                    let done = m.delivered(o);
                    let have = if done || m.sender as usize == o {
                        vec![true; k]
                    } else if let Some(s) = status_of.get(&(o, idx)) {
                        debug_assert_eq!(s.have.len(), k, "bitmap shape");
                        s.have.clone()
                    } else {
                        vec![false; k]
                    };
                    (have, done)
                })
                .unzip();
            match plan_message_resume(&holdings) {
                // A lost message is dropped group-wide: its record says
                // so, and no survivor's cursor waits for a delivery that
                // can never happen.
                MessagePlan::Unrecoverable => {
                    self.groups[group].results[idx].abandoned = true;
                    abandoned.push(idx);
                }
                MessagePlan::Resume { schedule, strategy } => {
                    match strategy {
                        ResumeStrategy::AlreadyComplete => n_complete += 1,
                        ResumeStrategy::Remulticast => n_remulti += 1,
                        ResumeStrategy::BlockResume => n_resumed += 1,
                    }
                    n_blocks += schedule.num_transfers();
                    let rts = resume_transfers(&schedule, size, &holdings, &delivered_flags);
                    for (r, rt) in rts.into_iter().enumerate() {
                        resumes_by_rank[r].push(rt);
                    }
                }
            }
        }
        // Tear down every old-epoch queue pair in rank order; completions
        // still in flight for them become ownerless and are ignored. The
        // map is ordered, so plain iteration is already run-to-run stable
        // (hash-order teardown is the determinism bug the replay audit
        // exists to catch).
        let old_qps: Vec<QpHandle> = self.groups[group].qps.values().copied().collect();
        for qp in old_qps {
            self.forget_qp_owner(qp);
            self.fabric.break_qp(qp);
            self.reliability.forget_qp(qp);
        }
        self.groups[group].qps.clear();
        if let Some(p) = self.pacer.as_mut() {
            p.drop_group_queue(group);
        }
        // Renumber: survivors in ascending original rank become the new
        // ranks 0..ns, on a fresh set of connections.
        let g = &mut self.groups[group];
        let mut old_engines: Vec<Option<GroupEngine>> = g.engines.drain(..).map(Some).collect();
        g.engines = survivors_orig
            .iter()
            .map(|&o| g.current_of(o).expect("survivor is current") as usize)
            .map(|c| old_engines[c].take().expect("distinct current ranks"))
            .collect();
        g.orig_rank = survivors_orig.clone();
        let rec = &mut self.reconfig.groups[group];
        let first_suspected = rec.cycle_started.unwrap_or(now);
        rec.close_cycle();
        self.recorder.record(trace::Scope::group(group as u32), || {
            trace::EventKind::ReconfigInstalled {
                epoch: view.epoch,
                survivors: survivors_orig.iter().map(|&o| o as u32).collect(),
                removed: removed.clone(),
                abandoned: abandoned.iter().map(|&i| i as u64).collect(),
                resumed_blocks: n_blocks as u64,
                forced,
            }
        });
        // Install the epoch everywhere, then let the engines act: the
        // membership maps are already in new-epoch shape, so the actions'
        // lazily created queue pairs bind the right nodes.
        let mut installs: Vec<(Rank, Vec<Action>)> = Vec::new();
        let mut payloads: Vec<(Rank, Vec<u8>)> = Vec::new();
        for (new_rank, &o) in survivors_orig.iter().enumerate() {
            let resumes = std::mem::take(&mut resumes_by_rank[new_rank]);
            let g = &mut self.groups[group];
            let actions = g.engines[new_rank].install_epoch(EpochInstall {
                epoch: view.epoch,
                rank: new_rank as Rank,
                num_nodes: ns as u32,
                resumes,
            });
            let payload = self.reconfig.groups[group].trackers[o].install(view.epoch);
            installs.push((new_rank as Rank, actions));
            payloads.push((new_rank as Rank, payload));
        }
        for (r, payload) in payloads {
            self.broadcast_view(group, r, &payload);
        }
        for (r, mut actions) in installs {
            self.execute(group, r, &mut actions);
        }
        self.reconfig.stats.reconfigurations.push(ReconfigRecord {
            group,
            epoch: view.epoch,
            removed,
            survivors: survivors_orig.iter().map(|&o| o as Rank).collect(),
            first_suspected_at: first_suspected,
            installed_at: now,
            resumed: n_resumed,
            remulticast: n_remulti,
            already_complete: n_complete,
            resumed_blocks: n_blocks,
            abandoned,
            forced,
        });
        // Atomic overlay: apply the ragged trim — mark the subgroup's
        // abandoned data slots and the failed members' unannounced nulls
        // trimmed, resync survivor frontier replicas, and re-run every
        // survivor's delivery engine.
        self.atomic_on_reconfig(group);
    }
}
