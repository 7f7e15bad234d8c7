//! Flow-level network model with max-min fair bandwidth sharing.
//!
//! A [`Flow`] is a bulk transfer of a known size across a path of
//! [`Link`]s. Whenever the set of active flows changes, affected flows'
//! rates are recomputed by *progressive filling*: repeatedly find the most
//! contended link, freeze all its flows at that link's fair share, remove
//! the frozen bandwidth, and continue. This is the classical max-min fair
//! allocation, and it is exactly the behaviour the RDMC paper attributes to
//! RDMA hardware ("RDMA apportions bandwidth fairly if there are several
//! active transfers in one NIC", §3) and to the oversubscribed Apt
//! top-of-rack switch (§5.2.2).
//!
//! The model deliberately ignores packetization: RDMC moves hundreds of
//! kilobytes to megabytes per block, so per-packet effects wash out, while
//! who-shares-which-link entirely determines the results the paper reports.
//!
//! # Performance model
//!
//! Four structural properties keep per-event cost sublinear in the number
//! of active flows:
//!
//! * **Path classes.** Flows with byte-identical paths form one *class*,
//!   the node of the allocator's sharing graph. Members of a class cross
//!   the same links, so they freeze at the same bottleneck with the same
//!   share: traversal, freezing and residual subtraction run per class,
//!   and a class whose share did not move is frozen without touching a
//!   single flow. The arithmetic is the per-flow water-filling's, bit for
//!   bit (see `reallocate`).
//! * **Ripple-set reallocation.** Max-min allocations decompose over
//!   connected components of the class/link sharing graph: a link either
//!   carries only component flows or none, so water-filling restricted to
//!   the component reachable from the changed flow is *exact*, not an
//!   approximation. [`FlowNet::start_flow`] / [`FlowNet::complete_flow`] /
//!   [`FlowNet::abort_flow`] therefore re-run progressive filling only over
//!   that component; once consecutive ripples cover most of the active
//!   flows the traversal stops paying for itself and the per-link live
//!   counts stand in for it.
//! * **Completion heap.** A flow's projected *absolute* completion
//!   instant is a pure function of what its last rate change set, so it
//!   is computed on demand. Each path class keeps its *head*, the least
//!   `(projected time, slot)` of its members, and a lazily invalidated
//!   min-heap holds one entry per head: an entry is live while it still
//!   equals its flow's class head. [`FlowNet::next_completion`] is
//!   `O(log classes)` amortized instead of a scan of every active flow.
//! * **Boundary byte accounting.** Per-flow progress is materialized only
//!   at rate-change boundaries (each flow carries a `synced_at` watermark),
//!   making [`FlowNet::advance_to`] O(1). A re-rated class is
//!   materialized, re-rated and re-headed in one pass over its members:
//!   rate changes apply bottleneck by bottleneck, class by class in
//!   creation order, each class's members in start order. A link's byte
//!   counter is credited once per flow, when the flow leaves; what a live
//!   flow has moved is read off its start size and bytes left.
//!
//! [`FlowNet`] does not own a clock. The caller advances it explicitly and
//! asks for the next flow completion, which makes it easy to embed in any
//! event loop (see the `verbs` crate).

use std::cmp::Reverse;
// `FlowNet::class_ids` is a pure interning table (get-or-insert by
// path, never iterated), so hash order cannot reach behavior.
#[allow(clippy::disallowed_types)]
use std::collections::{BinaryHeap, HashMap};
use std::fmt;

use crate::time::{SimDuration, SimTime};

/// Index of a link in a [`FlowNet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub(crate) u32);

/// Identifier of an active flow (slot index + generation, so stale ids
/// never alias a reused slot).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(u64);

impl FlowId {
    fn new(slot: u32, generation: u32) -> Self {
        FlowId(u64::from(generation) << 32 | u64::from(slot))
    }

    /// The raw id, for correlating with flow events in a trace.
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// The slot half of the id: a small dense index, unique among active
    /// flows and reused afterwards, for per-flow state kept in a `Vec`
    /// (store and compare the full id: a stale one must not match).
    pub fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

/// A unidirectional link with a capacity and a propagation latency.
#[derive(Clone, Debug)]
struct Link {
    /// Capacity in bits per second.
    capacity_bps: f64,
    /// One-way propagation latency contributed by this hop.
    latency: SimDuration,
    /// Payload bytes of the flows that left this link, each credited once
    /// when it was removed. [`FlowNet::bytes_carried`] adds the progress of
    /// live flows on top of this.
    bytes_carried: f64,
    /// The link is a full-bisection aggregation hop that can never be the
    /// binding bottleneck; the allocator skips it during ripple traversal
    /// and water-filling. See [`FlowNet::set_link_transparent`].
    transparent: bool,
}

/// An active transfer.
#[derive(Clone, Debug)]
struct Flow {
    /// The [`PathClass`] holding the flow's path.
    class: u32,
    /// Bytes at the start: what the flow has moved is `size` less
    /// `remaining_bytes` plus its unmaterialized progress.
    size: f64,
    /// Bytes left as of `synced_at` (not as of `FlowNet::last_update`;
    /// progress between the two is implied by `rate_bps`).
    remaining_bytes: f64,
    /// Current max-min fair rate in bits per second.
    rate_bps: f64,
    /// Instant `remaining_bytes` was last materialized. Always a rate
    /// boundary: flows are materialized exactly when their rate changes.
    synced_at: SimTime,
}

/// Remaining bytes below this threshold count as "done" (absorbs float
/// rounding from rate changes).
const COMPLETION_EPSILON_BYTES: f64 = 1e-6;

/// `Flow::due_ns` of a flow that has never had a rate.
const UNPROJECTED: u64 = u64::MAX;

/// `PathClass::head` of a class with no projected member.
const NO_HEAD: (u64, u32) = (UNPROJECTED, u32::MAX);

/// [`FlowNet::initial_key`] of a link that is no bottleneck candidate (no
/// share has these bits: they are a NaN's).
const UNLOADED: u64 = u64::MAX;

/// Flows with byte-identical paths: one node of the allocator's sharing
/// graph. Classes are append-only (one per distinct path ever seen); a
/// class with no live flows contributes nothing and is skipped.
struct PathClass {
    /// Every link the members cross, in order (byte accounting, and what
    /// [`FlowNet::complete_flow`] hands back).
    path: Vec<LinkId>,
    /// Slots of the live members, in start order (their count is
    /// [`ClassFill::live`]).
    members: Vec<u32>,
    /// How many members — the last ones — started since the last fill and
    /// still carry rate 0.
    fresh: u32,
    /// The rate every other member runs at: they cross the same links, so
    /// every fill freezes them together.
    rate_bps: f64,
    /// The least `(due_ns, slot)` over the members, or [`NO_HEAD`]: the
    /// class's one live entry in the completion heap.
    head: (u64, u32),
}

/// What traversal and water-filling read of a class, kept in a dense
/// array beside [`FlowNet::classes`] so a class they skip is never loaded.
struct ClassFill {
    /// The class's range of [`FlowNet::fill_links`]: the non-transparent
    /// links of its path, the only ones traversal and water-filling touch.
    /// Fixed at class creation, which is why
    /// [`FlowNet::set_link_transparent`] refuses a link a class crosses.
    links: (u32, u32),
    /// Live members: `PathClass::members.len()`.
    live: u32,
    /// Epoch-stamped "reached by the current traversal" mark.
    seen: u32,
    /// Epoch-stamped "frozen in the current fill" mark.
    frozen: u32,
}

/// Reallocation performance counters; see [`FlowNet::realloc_stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ReallocStats {
    /// Reallocations performed.
    pub count: u64,
    /// Reallocations that recomputed every flow without a traversal
    /// because recent ripple components covered most of the network.
    pub full: u64,
    /// Wall-clock nanoseconds spent reallocating.
    pub nanos: u64,
    /// Flows visited (size of each ripple component, summed).
    pub flows_visited: u64,
    /// Bottleneck-heap pushes performed while water-filling.
    pub heap_pushes: u64,
    /// Flows whose rate actually changed, counted as their class freezes
    /// (each one is then materialized; only those that can head their
    /// class are projected).
    pub rate_changes: u64,
    /// Links visited by ripple traversals and full scans, summed — the
    /// "ripple link-visits" figure the scale benchmarks track per event.
    pub link_visits: u64,
    /// Flow starts/removals that piggybacked on an already-pending
    /// deferred reallocation (same-instant coalescing): each one is a
    /// recomputation that never ran.
    pub coalesced: u64,
    /// Projection-heap compactions (sweeps of stale completion entries).
    pub heap_compactions: u64,
}

/// A set of links plus the active flows crossing them.
///
/// # Examples
///
/// ```
/// use simnet::{FlowNet, SimTime};
///
/// let mut net = FlowNet::new();
/// let l = net.add_link(10.0, simnet::SimDuration::from_micros(1)); // 10 Gb/s
/// let f = net.start_flow(SimTime::ZERO, &[l], 1_250_000.0); // 1.25 MB
/// // Alone on a 10 Gb/s link, 1.25 MB takes 1 ms.
/// let (t, done) = net.next_completion().unwrap();
/// assert_eq!(done, f);
/// assert_eq!(t.as_nanos(), 1_000_000);
/// ```
#[derive(Default)]
pub struct FlowNet {
    links: Vec<Link>,
    /// Slab of flow slots; `None` = free. Slot reuse is disambiguated by
    /// the generation embedded in [`FlowId`].
    slots: Vec<Option<Flow>>,
    generations: Vec<u32>,
    free_slots: Vec<u32>,
    active_flows: usize,
    /// Instant the network clock last advanced to.
    last_update: SimTime,
    /// Path → class id. Lookup-only (never iterated); see the import
    /// note.
    #[allow(clippy::disallowed_types)]
    class_ids: HashMap<Vec<LinkId>, u32>,
    classes: Vec<PathClass>,
    /// Per class: its fill links, live count and fill marks.
    class_fill: Vec<ClassFill>,
    /// Every class's fill links, one range per class, in creation order.
    fill_links: Vec<u32>,
    /// Per-link list of classes whose path crosses it, pushed once per
    /// crossing at class creation.
    link_classes: Vec<Vec<u32>>,
    /// Per-link count of live flows, maintained incrementally at flow
    /// start/removal: the unfrozen count every fill starts from.
    link_live: Vec<u32>,
    /// Consecutive ripple traversals that covered (nearly) the whole
    /// network, saturating at 2. At 2 the allocator is in *full mode*:
    /// the traversal is skipped and every loaded link joins the fill.
    /// Re-probed with a real traversal every 64th reallocation, which
    /// drops the mode if components shrank. One covering ripple is not
    /// enough: a start-up burst covers everything once and says nothing
    /// about the churn that follows.
    covering_ripples: u8,
    /// Min-heap of class heads `(time_ns, slot)` with lazy invalidation:
    /// an entry is live iff the slot is occupied and the entry equals the
    /// head of the occupant's class. Every class head is in the heap.
    completions: BinaryHeap<Reverse<(u64, u32)>>,
    /// Classes whose head is not [`NO_HEAD`]: the live entries of
    /// `completions`.
    heads: usize,
    stats: ReallocStats,
    /// Reusable traversal + water-filling scratch (avoids re-allocating
    /// on every rate recomputation).
    scratch: ReallocScratch,
    /// A reallocation is pending for the links accumulated in
    /// `scratch.frontier`. Same-instant starts and removals coalesce into
    /// one recomputation, flushed before anything observes a rate or the
    /// clock moves (rates are exact piecewise between instants either
    /// way, since no time passes while changes are pending).
    dirty: bool,
    /// The pending changes include an added flow. Added contention can
    /// only lower rates, so stale completion projections may be too
    /// early and [`FlowNet::next_due`] must flush before answering.
    dirty_start: bool,
    /// Flight recorder for flow start/rate-change/finish events;
    /// disabled (a single branch per event) by default.
    recorder: trace::Recorder,
}

#[derive(Default)]
struct ReallocScratch {
    /// Per-link residual capacity while water-filling.
    residual: Vec<f64>,
    /// Per-link unfrozen-flow count while water-filling.
    count: Vec<u32>,
    /// The fill's bottleneck candidates: each loaded link of the
    /// component at its [`FlowNet::initial_key`], sorted. After a
    /// full-mode fill it holds every loaded, non-transparent link and is
    /// *kept*: the next full-mode fill re-keys only the links queued in
    /// `frontier` since, whose live counts are the only ones that moved.
    /// A ripple fill rebuilds it.
    sorted: Vec<(u64, u32)>,
    /// `sorted` is the kept full-mode order.
    kept: bool,
    /// Recycled backing storage for the stale-requeue min-heap.
    requeue_buf: Vec<Reverse<(u64, u32)>>,
    /// Epoch-stamped visited marks for the ripple traversal.
    link_mark: Vec<u32>,
    mark: u32,
    /// BFS frontier of link indices; callers seed it with the changed
    /// flow's path before invoking `reallocate`.
    frontier: Vec<u32>,
    /// Classes with a re-rated member, each once (a class freezes once
    /// per fill), in the order their rate changes apply: by bottleneck,
    /// then by class. Each names how many of its last members may be
    /// re-rated and its head from before the fill.
    reheads: Vec<(u32, u32, (u64, u32))>,
    /// Slots of the flows whose rate changed in the current fill, in the
    /// order the changes applied.
    #[cfg(test)]
    changed: Vec<usize>,
    /// Completion projections made for class heads.
    #[cfg(test)]
    projections: u64,
}

impl Flow {
    /// Bytes moved since `synced_at`, as of `now`.
    fn unmaterialized(&self, now: SimTime) -> f64 {
        let dt = now.since(self.synced_at).as_secs_f64();
        (self.rate_bps / 8.0 * dt).min(self.remaining_bytes)
    }

    /// Projected completion nanosecond ([`UNPROJECTED`] before the first
    /// rate). Only a rate change sets what it reads, so projecting on
    /// demand returns what projecting at the rate change would have.
    fn due_ns(&self) -> u64 {
        if self.rate_bps == 0.0 {
            return UNPROJECTED;
        }
        let secs = (self.remaining_bytes * 8.0) / self.rate_bps;
        let at = self.synced_at + SimDuration::from_secs_f64(secs);
        let early = self.remaining_bytes > COMPLETION_EPSILON_BYTES && at == self.synced_at;
        at.as_nanos() + u64::from(early)
    }
}

/// What `live` sequential steps of `r = (r - share).max(0.0)` return, to
/// the bit: while the values stay in `r`'s binade and a step is no rounding
/// tie (an exact test, by Sterbenz), every step removes the same `d` ulps.
/// A tie, a binade crossing or a tiny `r` steps one at a time.
fn subtract_steps(r: f64, share: f64, live: u32) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    let next = (r - share).max(0.0);
    let bits = r.to_bits();
    let all = u64::from(live).saturating_mul(bits.wrapping_sub(next.to_bits()));
    let half_ulp = f64::from_bits(bits & !MANTISSA) * (f64::EPSILON / 2.0);
    if bits >> 52 > 53 && ((r - next) - share).abs() != half_ulp && all < bits & MANTISSA {
        return f64::from_bits(bits - all);
    }
    (0..live).fold(r, |r, _| (r - share).max(0.0))
}

impl FlowNet {
    /// Creates an empty network.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attaches a flight recorder; flow starts, rate changes, and
    /// completions are recorded from then on.
    pub fn set_recorder(&mut self, recorder: trace::Recorder) {
        self.recorder = recorder;
    }

    /// Marks `link` as a *transparent* aggregation hop: the caller
    /// guarantees its capacity is at least the sum of the capacities of
    /// the edge links feeding flows into it (full bisection), so it can
    /// never be the strictly binding bottleneck of a max-min allocation.
    /// The allocator then skips it during ripple traversal and
    /// water-filling — a rate change on one edge link no longer ripples
    /// through the aggregation tier into disjoint pods. The exclusion is
    /// exact, not an approximation: a never-binding link's fair share is
    /// always at least the minimum share of its feeders, and in the tie
    /// case every involved share is equal, so progressive filling with or
    /// without the link assigns identical rates.
    ///
    /// Latency and byte accounting are unaffected: the link still
    /// contributes to [`FlowNet::path_latency`] and
    /// [`FlowNet::bytes_carried`]. The test module's churn holds the
    /// rates on every fat-tree to a second per-flow oracle that fills
    /// over transparent links as ordinary ones, so the equivalence is
    /// continuously tested.
    ///
    /// # Panics
    ///
    /// Panics if a flow has ever crossed the link (mark topology up
    /// front): its path class has already fixed which links it fills over.
    pub fn set_link_transparent(&mut self, link: LinkId) {
        let i = link.0 as usize;
        assert!(
            self.link_classes[i].is_empty(),
            "cannot make a link transparent once a flow path crosses it"
        );
        self.links[i].transparent = true;
    }

    /// Runs the deferred reallocation, if one is pending.
    fn flush(&mut self) {
        if self.dirty {
            self.dirty = false;
            self.dirty_start = false;
            self.reallocate();
        }
    }

    /// Adds a unidirectional link of `capacity_gbps` gigabits per second
    /// with the given one-way propagation latency, returning its id.
    ///
    /// # Panics
    ///
    /// Panics if `capacity_gbps` is not strictly positive and finite.
    pub fn add_link(&mut self, capacity_gbps: f64, latency: SimDuration) -> LinkId {
        assert!(
            capacity_gbps.is_finite() && capacity_gbps > 0.0,
            "link capacity must be positive, got {capacity_gbps}"
        );
        let id = LinkId(u32::try_from(self.links.len()).expect("too many links"));
        self.links.push(Link {
            capacity_bps: capacity_gbps * 1e9,
            latency,
            bytes_carried: 0.0,
            transparent: false,
        });
        self.link_classes.push(Vec::new());
        self.link_live.push(0);
        id
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Number of active flows.
    pub fn num_flows(&self) -> usize {
        self.active_flows
    }

    fn get(&self, id: FlowId) -> Option<&Flow> {
        let slot = id.slot();
        if slot < self.slots.len() && self.generations[slot] == id.generation() {
            self.slots[slot].as_ref()
        } else {
            None
        }
    }

    /// Sum of one-way propagation latencies along `path`.
    ///
    /// # Panics
    ///
    /// Panics if any link id is out of range.
    pub fn path_latency(&self, path: &[LinkId]) -> SimDuration {
        path.iter().fold(SimDuration::ZERO, |acc, l| {
            acc + self.links[l.0 as usize].latency
        })
    }

    /// Total payload bytes carried by `link` up to the current instant:
    /// what the flows that left moved, plus the progress of the live ones
    /// (summed class by class, each class's members in start order).
    pub fn bytes_carried(&self, link: LinkId) -> f64 {
        let i = link.0 as usize;
        (self.link_classes[i].iter())
            .flat_map(|&c| &self.classes[c as usize].members)
            .fold(self.links[i].bytes_carried, |total, &s| {
                let f = self.slots[s as usize].as_ref().expect("member left");
                total + (f.size - f.remaining_bytes + f.unmaterialized(self.last_update))
            })
    }

    /// Starts a flow of `bytes` across `path` at time `now` and returns its
    /// id. Rates are recomputed for the flow's ripple component. The path
    /// is copied only when it is the first of a new path class.
    ///
    /// # Panics
    ///
    /// Panics if `path` is empty, `bytes` is negative, or `now` precedes a
    /// previous update (time must move forward).
    pub fn start_flow(&mut self, now: SimTime, path: &[LinkId], bytes: f64) -> FlowId {
        assert!(!path.is_empty(), "flow path must contain at least one link");
        assert!(bytes >= 0.0, "flow size must be non-negative, got {bytes}");
        for l in path {
            assert!((l.0 as usize) < self.links.len(), "unknown link {l:?}");
        }
        assert!(
            path.iter().any(|l| !self.links[l.0 as usize].transparent),
            "flow path must cross at least one non-transparent link"
        );
        self.advance_to(now);
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.generations.push(0);
                u32::try_from(self.slots.len() - 1).expect("too many concurrent flows")
            }
        };
        self.active_flows += 1;
        let id = FlowId::new(slot, self.generations[slot as usize]);
        if self.dirty {
            self.stats.coalesced += 1;
        }
        let class = match self.class_ids.get(path) {
            Some(&c) => c,
            None => {
                let c = u32::try_from(self.classes.len()).expect("too many classes");
                for l in path {
                    self.link_classes[l.0 as usize].push(c);
                }
                let first = self.fill_links.len() as u32;
                let links = &self.links;
                (self.fill_links).extend(
                    path.iter()
                        .filter(|l| !links[l.0 as usize].transparent)
                        .map(|l| l.0),
                );
                self.class_fill.push(ClassFill {
                    links: (first, self.fill_links.len() as u32),
                    live: 0,
                    seen: 0,
                    frozen: 0,
                });
                self.classes.push(PathClass {
                    path: path.to_vec(),
                    members: Vec::new(),
                    fresh: 0,
                    rate_bps: 0.0,
                    head: NO_HEAD,
                });
                self.class_ids.insert(path.to_vec(), c);
                c
            }
        };
        let c = &mut self.classes[class as usize];
        c.fresh += 1;
        c.members.push(slot);
        for l in &c.path {
            self.link_live[l.0 as usize] += 1;
        }
        self.class_fill[class as usize].live += 1;
        self.queue_links(class);
        let size = bytes.max(COMPLETION_EPSILON_BYTES / 2.0);
        self.slots[slot as usize] = Some(Flow {
            class,
            size,
            remaining_bytes: size,
            rate_bps: 0.0,
            synced_at: now,
        });
        // Defer the recomputation: the new flow carries nothing until the
        // flush, which happens before any rate is observed or time moves.
        self.dirty = true;
        self.dirty_start = true;
        self.recorder
            .record_at(now.as_nanos(), trace::Scope::none(), || {
                trace::EventKind::FlowStarted {
                    flow: id.as_u64(),
                    bytes: bytes as u64,
                }
            });
        id
    }

    /// Current max-min rate of `flow` in bits per second, or `None` if the
    /// flow is finished/unknown. Flushes any deferred reallocation first.
    pub fn flow_rate_bps(&mut self, flow: FlowId) -> Option<f64> {
        self.flush();
        self.get(flow).map(|f| f.rate_bps)
    }

    /// The earliest `(time, flow)` completion under current rates, if any
    /// flows are active.
    ///
    /// Peeks the class-head heap, discarding entries invalidated by rate
    /// changes or flow removal. The returned time is rounded up to
    /// a whole nanosecond strictly after the current instant when any
    /// bytes remain, guaranteeing forward progress.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        self.flush();
        self.peek_completion()
    }

    /// The earliest completion due at or before `now`, or `None` if no
    /// flow is due yet.
    ///
    /// Unlike [`FlowNet::next_completion`] this tolerates a deferred
    /// reallocation made up purely of removals: removals only *raise* the
    /// surviving rates, so the stale projections are upper bounds and an
    /// entry already due under them is certainly due under the exact
    /// rates. (Flows that only *became* due surface once the caller
    /// flushes, e.g. via `next_completion` — at the same instant, so
    /// nothing completes late.) Pending added flows force the flush,
    /// since extra contention could make a stale projection too early.
    pub fn next_due(&mut self, now: SimTime) -> Option<(SimTime, FlowId)> {
        if self.dirty_start {
            self.flush();
        }
        let (t, id) = self.peek_completion()?;
        (t <= now).then_some((t, id))
    }

    fn peek_completion(&mut self) -> Option<(SimTime, FlowId)> {
        loop {
            let &Reverse((time_ns, slot)) = self.completions.peek()?;
            let s = slot as usize;
            let Some(f) = self.slots[s]
                .as_ref()
                .filter(|f| self.classes[f.class as usize].head == (time_ns, slot))
            else {
                self.completions.pop();
                continue;
            };
            let id = FlowId::new(slot, self.generations[s]);
            let mut at = SimTime::from_nanos(time_ns).max(self.last_update);
            let elapsed = self.last_update.since(f.synced_at).as_secs_f64();
            let remaining_now = f.remaining_bytes - f.rate_bps / 8.0 * elapsed;
            if remaining_now > COMPLETION_EPSILON_BYTES && at == self.last_update {
                at += SimDuration::from_nanos(1);
            }
            return Some((at, id));
        }
    }

    /// Marks `flow` complete at time `now`, removes it, and recomputes the
    /// rates of its ripple component.
    ///
    /// # Panics
    ///
    /// Panics if the flow does not exist or if a non-negligible number of
    /// bytes would still be outstanding at `now` (i.e. the caller completed
    /// it too early — a scheduling bug).
    pub fn complete_flow(&mut self, now: SimTime, flow: FlowId) {
        self.advance_to(now);
        let f = self.remove(now, flow).expect("completing unknown flow");
        // Tolerance scales with rate: one microsecond of transfer at the
        // flow's final rate absorbs the rounding of the ns-quantized clock.
        let tolerance = (f.rate_bps / 8.0) * 1e-6 + COMPLETION_EPSILON_BYTES;
        assert!(
            f.remaining_bytes <= tolerance,
            "flow {flow:?} completed early: {} bytes remaining (tolerance {tolerance})",
            f.remaining_bytes
        );
        self.recorder
            .record_at(now.as_nanos(), trace::Scope::none(), || {
                trace::EventKind::FlowFinished {
                    flow: flow.as_u64(),
                    aborted: false,
                }
            });
    }

    /// Aborts `flow` at time `now` without requiring it to have finished
    /// (e.g. the sending endpoint crashed). Progress up to `now` still
    /// counts toward link byte totals. Unknown flows are a silent no-op so
    /// callers don't need to track completion races.
    pub fn abort_flow(&mut self, now: SimTime, flow: FlowId) {
        self.advance_to(now);
        if self.remove(now, flow).is_none() {
            return;
        }
        self.recorder
            .record_at(now.as_nanos(), trace::Scope::none(), || {
                trace::EventKind::FlowFinished {
                    flow: flow.as_u64(),
                    aborted: true,
                }
            });
    }

    /// Takes `id` out of the network at `now`: materializes it, credits
    /// what it moved to every link on its path, frees its slot and queues
    /// its links for the deferred reallocation.
    fn remove(&mut self, now: SimTime, id: FlowId) -> Option<Flow> {
        let slot = id.slot();
        if slot >= self.slots.len() || self.generations[slot] != id.generation() {
            return None;
        }
        let mut f = self.slots[slot].take()?;
        let class = &mut self.classes[f.class as usize];
        f.remaining_bytes -= f.unmaterialized(now);
        f.synced_at = now;
        let carried = f.size - f.remaining_bytes;
        self.generations[slot] = self.generations[slot].wrapping_add(1);
        self.free_slots.push(slot as u32);
        self.active_flows -= 1;
        for l in &class.path {
            self.link_live[l.0 as usize] -= 1;
            self.links[l.0 as usize].bytes_carried += carried;
        }
        let at = (class.members.iter())
            .position(|&s| s as usize == slot)
            .expect("flow missing from its class");
        if at >= class.members.len() - class.fresh as usize {
            class.fresh -= 1;
        }
        class.members.remove(at);
        if self.dirty {
            self.stats.coalesced += 1;
        }
        if class.head.1 == slot as u32 {
            self.refresh_head(f.class);
        }
        self.class_fill[f.class as usize].live -= 1;
        self.queue_links(f.class);
        self.dirty = true;
        Some(f)
    }

    /// Queues class `c`'s fill links for the deferred reallocation.
    fn queue_links(&mut self, c: u32) {
        let (first, end) = self.class_fill[c as usize].links;
        (self.scratch.frontier).extend_from_slice(&self.fill_links[first as usize..end as usize]);
    }

    /// Recomputes the head of class `c` from its members' projections.
    fn refresh_head(&mut self, c: u32) {
        #[cfg(test)]
        {
            self.scratch.projections += self.classes[c as usize].members.len() as u64;
        }
        let head = self.least_due(c);
        let was = std::mem::replace(&mut self.classes[c as usize].head, head);
        self.head_moved(was, head);
    }

    /// The least `(due_ns, slot)` over the members of class `c`, or
    /// [`NO_HEAD`], projecting every member.
    fn least_due(&self, c: u32) -> (u64, u32) {
        (self.classes[c as usize].members.iter())
            .map(|&s| {
                let s = s as usize;
                let f = self.slots[s]
                    .as_ref()
                    .expect("class lists a flow that left");
                (f.due_ns(), s as u32)
            })
            .filter(|head| head.0 != UNPROJECTED)
            .min()
            .unwrap_or(NO_HEAD)
    }

    /// Accounts for a class head that moved from `was` to `head`, queueing
    /// the new one (an unmoved head is already queued).
    fn head_moved(&mut self, was: (u64, u32), head: (u64, u32)) {
        if head != was {
            self.heads = self.heads + usize::from(head != NO_HEAD) - usize::from(was != NO_HEAD);
            if head != NO_HEAD {
                self.completions.push(Reverse(head));
            }
        }
    }

    /// Advances the network clock to `now` (monotone; `now` may equal the
    /// previous update instant). O(1) when nothing is pending: flow
    /// progress and link byte totals are implied by rates and
    /// materialized lazily at rate boundaries. A deferred reallocation is
    /// flushed at the *old* instant first, so the exact rates govern the
    /// whole interval being skipped over.
    pub fn advance_to(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "FlowNet time moved backwards: {now:?} < {:?}",
            self.last_update
        );
        if now > self.last_update {
            self.flush();
            self.last_update = now;
        }
    }

    /// All reallocation performance counters.
    pub fn realloc_stats(&self) -> ReallocStats {
        self.stats
    }

    /// Link `i`'s bottleneck candidate key as a fill starts: its fair share
    /// with every live flow unfrozen, or [`UNLOADED`] if it carries none or
    /// is transparent.
    fn initial_key(&self, i: usize) -> u64 {
        let live = self.link_live[i];
        if live == 0 || self.links[i].transparent {
            UNLOADED
        } else {
            (self.links[i].capacity_bps / f64::from(live)).to_bits()
        }
    }

    /// Brings `scratch.sorted` to every link's [`FlowNet::initial_key`] in
    /// order: built from every link unless it is the kept order, which
    /// changed only at the links queued since it was (each found by a
    /// scan, removed, and put back by one binary insertion).
    fn keep_full_order(&self, scratch: &mut ReallocScratch) {
        let sorted = &mut scratch.sorted;
        if scratch.kept {
            for &li in &scratch.frontier {
                let key = self.initial_key(li as usize);
                let at = sorted.iter().position(|&(_, l)| l == li);
                if at.map_or(UNLOADED, |at| sorted[at].0) == key {
                    continue; // unchanged, or already re-keyed
                }
                if let Some(at) = at {
                    sorted.remove(at);
                }
                if key != UNLOADED {
                    let at = sorted.binary_search(&(key, li)).unwrap_err();
                    sorted.insert(at, (key, li));
                }
            }
        } else {
            sorted.clear();
            sorted.extend(
                (0..self.links.len())
                    .map(|i| (self.initial_key(i), i as u32))
                    .filter(|&(key, _)| key != UNLOADED),
            );
            sorted.sort_unstable();
            scratch.kept = true;
        }
        scratch.frontier.clear();
        #[cfg(debug_assertions)]
        {
            let mut fresh: Vec<(u64, u32)> = (0..self.links.len())
                .map(|i| (self.initial_key(i), i as u32))
                .filter(|&(key, _)| key != UNLOADED)
                .collect();
            fresh.sort_unstable();
            assert_eq!(*sorted, fresh, "kept full-mode order");
        }
    }

    /// Ripple traversal: visits every link reachable from the seed
    /// frontier through shared path classes, setting up each one's
    /// water-filling state (residual capacity, unfrozen *flow* count — fair
    /// shares divide by flows, not classes) and sorting the loaded ones
    /// into `scratch.sorted`. A link carrying k same-path flows is expanded
    /// through once. Returns the number of live flows in the component.
    fn ripple_traversal(&mut self, scratch: &mut ReallocScratch, mark: u32) -> usize {
        let mut flows = 0usize;
        let mut qi = 0;
        scratch.sorted.clear();
        while qi < scratch.frontier.len() {
            let li = scratch.frontier[qi] as usize;
            qi += 1;
            if scratch.link_mark[li] == mark {
                continue;
            }
            scratch.link_mark[li] = mark;
            self.stats.link_visits += 1;
            scratch.residual[li] = self.links[li].capacity_bps;
            scratch.count[li] = self.link_live[li];
            let key = self.initial_key(li);
            if key != UNLOADED {
                scratch.sorted.push((key, li as u32));
            }
            for &c in &self.link_classes[li] {
                let fill = &mut self.class_fill[c as usize];
                if fill.live == 0 || fill.seen == mark {
                    continue; // a path no live flow uses, or already expanded
                }
                fill.seen = mark;
                flows += fill.live as usize;
                for &j in &self.fill_links[fill.links.0 as usize..fill.links.1 as usize] {
                    if scratch.link_mark[j as usize] != mark {
                        scratch.frontier.push(j);
                    }
                }
            }
        }
        scratch.frontier.clear();
        // One sort beats heapifying + popping: the initial candidates are
        // consumed in `(key, link)` order with O(1) advances, and only the
        // few entries that go stale pay for real heap operations.
        scratch.sorted.sort_unstable();
        flows
    }

    /// Recomputes rates by progressive filling (max-min fairness) over the
    /// ripple component seeded from `scratch.frontier`, implemented as
    /// heap-based water-filling over path classes.
    ///
    /// The traversal walks the class/link sharing graph from the seed
    /// links and collects the connected component; restricting
    /// water-filling to it is exact because no bandwidth crosses component
    /// boundaries. Once two consecutive ripples cover most active flows
    /// the allocator flips into full mode: the traversal is skipped and
    /// every loaded link enters the fill with its incrementally-maintained
    /// live count (counted in [`ReallocStats::full`]). A full
    /// recomputation is always exact, so the mode switch is purely a
    /// performance decision and cannot change the allocation.
    ///
    /// Within the fill, bottleneck candidates are consumed in ascending
    /// `(fair share, link)` order from a pre-sorted array (in full mode
    /// kept between fills: a start or removal moves only its own path's
    /// keys, so only those links are re-keyed), with lazy
    /// invalidation: freezing the bottleneck's flows only *raises* the
    /// shares of the links they crossed, so a stale (too-low) entry is
    /// detected on consumption and requeued at its current share via a
    /// small overflow heap. (Rounding can also leave a share an ulp
    /// *below* its queued key; such an entry is consumed where it stands,
    /// which is part of the order the oracle pins.) Per recomputation the
    /// fill costs `O(component flows x path length)` subtraction steps,
    /// none of which touches a flow, plus `links log links`; only the
    /// flows whose rate changed are read or written.
    ///
    /// The result is the per-flow water-filling's to the last bit (the
    /// test module keeps that kernel as the oracle; DESIGN.md "Scaling the
    /// kernel" has the argument): every subtraction at one bottleneck
    /// subtracts the same `share`, so `live` sequential
    /// `(x - share).max(0.0)` steps per class ([`subtract_steps`], in
    /// closed form) round as one step per flow does, in any class order,
    /// and a link no unfrozen flow crosses any more skips its steps. Rate
    /// changes apply per bottleneck class by class in creation order,
    /// members in start order; only the order of trace events depends on
    /// that order.
    ///
    /// A re-rated class is materialized, re-rated and re-headed in one pass
    /// over the members that can change: all of them if the class rate
    /// moved, else the fresh ones against the standing head. An unchanged
    /// flow's completion instant is invariant between rate boundaries.
    fn reallocate(&mut self) {
        let t0 = std::time::Instant::now();
        self.stats.count += 1;
        let num_links = self.links.len();
        let mut scratch = std::mem::take(&mut self.scratch);
        if scratch.count.len() < num_links {
            scratch.residual.resize(num_links, 0.0);
            scratch.count.resize(num_links, 0);
            scratch.link_mark.resize(num_links, 0);
        }
        if scratch.mark == u32::MAX {
            scratch.link_mark.fill(0);
            for fill in &mut self.class_fill {
                fill.seen = 0;
                fill.frozen = 0;
            }
            scratch.mark = 0;
        }
        scratch.mark += 1;
        let mark = scratch.mark;
        scratch.reheads.clear();
        #[cfg(test)]
        scratch.changed.clear();

        // Phase 1: build the water-filling state (residual capacity,
        // unfrozen count per link) of the component, and its bottleneck
        // candidates in ascending `(share key, link)` order.
        //
        // In full mode the recent ripples covered (nearly) every flow, so
        // the traversal would just rediscover the whole network; instead
        // every loaded link joins the fill, in the kept order. A real
        // traversal still runs every 64th reallocation to detect when
        // components shrink back below the threshold. The mode is decided
        // before the traversal updates it: a ripple fill must consume the
        // candidates of its own component.
        let full = self.covering_ripples >= 2 && !self.stats.count.is_multiple_of(64);
        let mut remaining;
        if full {
            self.stats.full += 1;
            self.keep_full_order(&mut scratch);
            for &(_, li) in &scratch.sorted {
                let i = li as usize;
                scratch.link_mark[i] = mark;
                scratch.residual[i] = self.links[i].capacity_bps;
                scratch.count[i] = self.link_live[i];
            }
            self.stats.link_visits += scratch.sorted.len() as u64;
            remaining = self.active_flows;
        } else {
            scratch.kept = false;
            remaining = self.ripple_traversal(&mut scratch, mark);
            // The absolute floor keeps tiny components — which trivially
            // cover "most" of a near-idle network — from counting ahead
            // of a ramp-up of many independent small components.
            let covering = remaining >= 128 && remaining * 4 > self.active_flows * 3;
            self.covering_ripples = if covering {
                (self.covering_ripples + 1).min(2)
            } else {
                0
            };
        }
        self.stats.flows_visited += remaining as u64;

        // Phase 2: heap-based water-filling over the component. f64 shares
        // are ordered through their bit pattern (finite, non-negative
        // values compare correctly as u64s). Freezing a bottleneck's flows
        // only *raises* the shares of the other links they crossed, so
        // every queued key is a lower bound on its link's current share:
        // instead of eagerly re-pushing each affected link per freeze
        // (O(flows x path) heap traffic), a popped entry is checked
        // against the authoritative share and lazily re-queued once if it
        // went stale. The merged consumption order of `sorted` and the
        // requeue heap is a single min-heap's, so is the freeze order.
        let sorted = std::mem::take(&mut scratch.sorted);
        let mut requeue_buf = std::mem::take(&mut scratch.requeue_buf);
        requeue_buf.clear();
        let mut requeue: BinaryHeap<Reverse<(u64, u32)>> = BinaryHeap::from(requeue_buf);
        let mut idx = 0;
        let mut work_pushes: u64 = 0;
        while remaining > 0 {
            let (key, link) = match (sorted.get(idx), requeue.peek().map(|r| r.0)) {
                (Some(&s), r) if r.is_none_or(|r| s <= r) => {
                    idx += 1;
                    s
                }
                (_, Some(r)) => {
                    requeue.pop();
                    r
                }
                _ => unreachable!("unfrozen flows but no bottleneck candidates"),
            };
            let i = link as usize;
            if scratch.count[i] == 0 {
                continue; // every flow on it froze via other bottlenecks
            }
            let share = scratch.residual[i] / scratch.count[i] as f64;
            let current = share.to_bits();
            if current > key {
                // The share rose after this entry was queued; re-queue at
                // the current value and keep looking for the true minimum.
                work_pushes += 1;
                requeue.push(Reverse((current, link)));
                continue;
            }
            // Freeze every unfrozen class crossing the bottleneck. A class
            // whose members already run at `share` is done there: no flow
            // is read, let alone written.
            for &c in &self.link_classes[i] {
                let fill = &mut self.class_fill[c as usize];
                let live = fill.live;
                if live == 0 || fill.frozen == mark {
                    continue; // dead path, or frozen via another link
                }
                fill.frozen = mark;
                remaining -= live as usize;
                for &j in &self.fill_links[fill.links.0 as usize..fill.links.1 as usize] {
                    let j = j as usize;
                    debug_assert_eq!(
                        scratch.link_mark[j], mark,
                        "component class crosses an unvisited link"
                    );
                    scratch.count[j] -= live;
                    if j == i || scratch.count[j] == 0 {
                        continue; // no unfrozen flow is left to share it
                    }
                    scratch.residual[j] = subtract_steps(scratch.residual[j], share, live);
                }
                // The settled members change if the class rate moved, the
                // fresh ones (at rate 0) unless the share is 0.
                let class = &mut self.classes[c as usize];
                let moved = class.rate_bps.to_bits() != share.to_bits();
                let changes = u32::from(moved) * (live - class.fresh)
                    + u32::from(share.to_bits() != 0) * class.fresh;
                if changes > 0 {
                    self.stats.rate_changes += u64::from(changes);
                    // Phase 3 lowers the head to the new projections; a
                    // head among the re-rated members is void until then.
                    let rerated = if moved { live } else { class.fresh };
                    scratch.reheads.push((c, rerated, class.head));
                    if moved {
                        class.head = NO_HEAD;
                    }
                }
                class.fresh = 0;
                class.rate_bps = share;
            }
        }
        scratch.sorted = sorted;
        scratch.requeue_buf = requeue.into_vec();
        self.stats.heap_pushes += work_pushes;

        // Phase 3: one pass per re-rated class, in the order the classes
        // froze. Each re-rated member materializes the bytes it moved at
        // its old rate (one product per run of members with one old rate
        // and sync instant; no link is written), takes the class rate, and
        // folds its projection into the head: only members within two
        // nanoseconds' transfer of the least bytes left (widened by 2^-40
        // against rounding ties) can hold it. An unchanged flow keeps its
        // projected instant.
        let now = self.last_update;
        for &(c, rerated, was) in &scratch.reheads {
            let class = &self.classes[c as usize];
            let (rate, gbps) = (class.rate_bps, class.rate_bps / 1e9);
            let margin = rate * 2.5e-10;
            let mut head = class.head;
            let mut least = f64::INFINITY;
            let mut progress = (u64::MAX, now, 0.0);
            for &s in &class.members[class.members.len() - rerated as usize..] {
                let s = s as usize;
                let f = self.slots[s].as_mut().expect("live flow");
                debug_assert_eq!(f.class, c, "class lists a flow that left");
                if f.rate_bps.to_bits() == rate.to_bits() {
                    continue; // fresh, and the share is 0
                }
                if (f.rate_bps.to_bits(), f.synced_at) != (progress.0, progress.1) {
                    let dt = now.since(f.synced_at).as_secs_f64();
                    progress = (f.rate_bps.to_bits(), f.synced_at, f.rate_bps / 8.0 * dt);
                }
                f.remaining_bytes -= progress.2.min(f.remaining_bytes);
                f.synced_at = now;
                f.rate_bps = rate;
                if self.recorder.is_enabled() {
                    let flow = FlowId::new(s as u32, self.generations[s]).as_u64();
                    self.recorder
                        .record_at(now.as_nanos(), trace::Scope::none(), || {
                            trace::EventKind::FlowRateChanged { flow, gbps }
                        });
                }
                #[cfg(test)]
                scratch.changed.push(s);
                if rate != 0.0
                    && f.remaining_bytes <= (least + margin) * (1.0 + f64::EPSILON * 4096.0)
                {
                    least = least.min(f.remaining_bytes);
                    head = head.min((f.due_ns(), s as u32));
                    #[cfg(test)]
                    {
                        scratch.projections += 1;
                    }
                }
            }
            debug_assert_eq!(head, self.least_due(c), "lazy head of class {c}");
            self.classes[c as usize].head = head;
            self.head_moved(was, head);
        }

        // Compact the heap once stale entries dominate. Every moved head
        // leaves one dead entry behind, and popping them lazily from a
        // heap much larger than the live set costs a cache miss per
        // sift-down level; filtering keeps the heap O(classes with a
        // head) for amortized O(1) per push (a rebuild costs one pass over
        // entries that each paid for themselves on insert).
        if self.completions.len() > 4 * self.heads + 64 {
            self.stats.heap_compactions += 1;
            let mut entries = std::mem::take(&mut self.completions).into_vec();
            entries.retain(|&Reverse((time_ns, slot))| {
                self.slots[slot as usize]
                    .as_ref()
                    .is_some_and(|f| self.classes[f.class as usize].head == (time_ns, slot))
            });
            self.completions = BinaryHeap::from(entries);
        }

        self.scratch = scratch;
        self.stats.nanos += t0.elapsed().as_nanos() as u64;
    }
}

impl fmt::Debug for FlowNet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowNet")
            .field("links", &self.links.len())
            .field("flows", &self.active_flows)
            .field("last_update", &self.last_update)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(net: &mut FlowNet, cap: f64) -> LinkId {
        net.add_link(cap, SimDuration::from_micros(1))
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 100.0);
        let f = net.start_flow(SimTime::ZERO, &[l], 125_000_000.0); // 125 MB = 1 Gb... at 100Gb/s -> 10ms
        assert_eq!(net.flow_rate_bps(f), Some(100e9));
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert_eq!(t.as_nanos(), 10_000_000);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let a = net.start_flow(SimTime::ZERO, &[l], 1e6);
        let b = net.start_flow(SimTime::ZERO, &[l], 1e6);
        assert_eq!(net.flow_rate_bps(a), Some(5e9));
        assert_eq!(net.flow_rate_bps(b), Some(5e9));
    }

    #[test]
    fn completion_frees_bandwidth_for_survivors() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let a = net.start_flow(SimTime::ZERO, &[l], 1_250_000.0); // 1 ms at 10 Gb/s alone
        let b = net.start_flow(SimTime::ZERO, &[l], 12_500_000.0);
        let (t1, first) = net.next_completion().unwrap();
        assert_eq!(first, a); // equal shares; a is smaller so finishes first
        net.complete_flow(t1, a);
        assert_eq!(net.flow_rate_bps(b), Some(10e9));
        let (t2, second) = net.next_completion().unwrap();
        assert_eq!(second, b);
        net.complete_flow(t2, b);
        assert_eq!(net.num_flows(), 0);
        // a: 2 ms at half rate. b: 1.25 MB moved in those 2 ms, remaining
        // 11.25 MB at full rate = 9 ms; total 11 ms.
        assert_eq!(t1.as_nanos(), 2_000_000);
        assert_eq!(t2.as_nanos(), 11_000_000);
    }

    #[test]
    fn max_min_is_not_just_equal_split() {
        // Flow A crosses a narrow link; flows B, C share a wide link with A's
        // exit. Max-min: A limited to 1 Gb/s by the narrow link; B and C
        // split the remainder of the wide link (4.5 each), not 10/3 each.
        let mut net = FlowNet::new();
        let narrow = gb(&mut net, 1.0);
        let wide = gb(&mut net, 10.0);
        let a = net.start_flow(SimTime::ZERO, &[narrow, wide], 1e9);
        let b = net.start_flow(SimTime::ZERO, &[wide], 1e9);
        let c = net.start_flow(SimTime::ZERO, &[wide], 1e9);
        assert_eq!(net.flow_rate_bps(a), Some(1e9));
        assert_eq!(net.flow_rate_bps(b), Some(4.5e9));
        assert_eq!(net.flow_rate_bps(c), Some(4.5e9));
    }

    #[test]
    fn bytes_carried_accumulates() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let f = net.start_flow(SimTime::ZERO, &[l], 1_250_000.0);
        let (t, _) = net.next_completion().unwrap();
        net.complete_flow(t, f);
        assert!((net.bytes_carried(l) - 1_250_000.0).abs() < 1.0);
    }

    #[test]
    fn bytes_carried_includes_unmaterialized_progress() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 8.0); // 1 GB/s
        let _f = net.start_flow(SimTime::ZERO, &[l], 10_000_000.0);
        net.advance_to(SimTime::from_nanos(2_000_000)); // 2 ms -> 2 MB moved
        assert!((net.bytes_carried(l) - 2_000_000.0).abs() < 1.0);
    }

    /// Flow `a` crosses `[x, y]` alone at 8 Gb/s from t = 0; flow `b`
    /// joins on `[x, z]` at 1 ms, halving `a`'s rate; `a` is aborted at
    /// 3 ms. Returns the net, `x`, `y`, an idle link, `b`, and what `a`
    /// moved by the kernel's own arithmetic: one materialization per rate
    /// boundary, then the start size less the bytes left.
    fn abort_after_a_rate_change() -> (FlowNet, [LinkId; 3], FlowId, f64) {
        let mut net = FlowNet::new();
        let [x, y, z, idle] = [8.0, 100.0, 100.0, 100.0].map(|cap| gb(&mut net, cap));
        let a = net.start_flow(SimTime::ZERO, &[x, y], 1e7);
        let b = net.start_flow(SimTime::from_nanos(1_000_000), &[x, z], 5e6);
        net.abort_flow(SimTime::from_nanos(3_000_000), a);
        let ms = |n: u64| SimDuration::from_nanos(n * 1_000_000).as_secs_f64();
        let left = 1e7 - 8e9 / 8.0 * ms(1);
        let left = left - 4e9 / 8.0 * ms(2);
        (net, [x, y, idle], b, 1e7 - left)
    }

    #[test]
    fn an_aborted_flow_credits_what_it_moved_to_each_link_on_its_path() {
        let (net, [_, y, idle], _, moved) = abort_after_a_rate_change();
        assert!(
            (moved - 2e6).abs() < 1e-3,
            "1 ms at 1 GB/s, 2 ms at 0.5 GB/s"
        );
        assert_eq!(net.bytes_carried(y).to_bits(), moved.to_bits());
        assert_eq!(net.bytes_carried(idle), 0.0);
    }

    #[test]
    fn a_link_with_live_flows_reads_credited_bytes_plus_live_progress() {
        let (mut net, [x, ..], b, moved) = abort_after_a_rate_change();
        // `b` ran at 4 Gb/s from 1 ms to 3 ms, then alone at 8 Gb/s.
        net.advance_to(SimTime::from_nanos(4_000_000));
        assert_eq!(net.flow_rate_bps(b), Some(8e9));
        let ms = |n: u64| SimDuration::from_nanos(n * 1_000_000).as_secs_f64();
        let left = 5e6 - 4e9 / 8.0 * ms(2);
        let live = 5e6 - left + 8e9 / 8.0 * ms(1);
        assert_eq!(net.bytes_carried(x).to_bits(), (moved + live).to_bits());
        assert!((net.bytes_carried(x) - 4e6).abs() < 1e-3);
    }

    #[test]
    fn path_latency_sums_hops() {
        let mut net = FlowNet::new();
        let a = net.add_link(10.0, SimDuration::from_micros(2));
        let b = net.add_link(10.0, SimDuration::from_nanos(500));
        assert_eq!(net.path_latency(&[a, b]), SimDuration::from_nanos(2_500));
    }

    #[test]
    fn zero_byte_flow_completes_immediately_but_monotonically() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let f = net.start_flow(SimTime::from_nanos(100), &[l], 0.0);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, f);
        assert!(t >= SimTime::from_nanos(100));
        net.complete_flow(t, f);
    }

    #[test]
    #[should_panic(expected = "path must contain")]
    fn empty_path_rejected() {
        let mut net = FlowNet::new();
        net.start_flow(SimTime::ZERO, &[], 10.0);
    }

    #[test]
    #[should_panic(expected = "completed early")]
    fn early_completion_is_a_bug() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let f = net.start_flow(SimTime::ZERO, &[l], 1e9);
        net.complete_flow(SimTime::from_nanos(10), f);
    }

    #[test]
    fn staggered_arrivals_update_progress_correctly() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 8.0); // 1 GB/s
        let a = net.start_flow(SimTime::ZERO, &[l], 3_000_000.0); // 3 ms alone
                                                                  // After 1 ms, 1 MB moved; 2 MB left. Second flow arrives.
        let b = net.start_flow(SimTime::from_nanos(1_000_000), &[l], 10_000_000.0);
        let _ = b;
        // a now runs at 0.5 GB/s: 2 MB takes 4 ms more -> completes at 5 ms.
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, a);
        assert_eq!(t.as_nanos(), 5_000_000);
    }

    #[test]
    fn ripple_reallocation_leaves_disjoint_flows_untouched() {
        // Two flows on link X, one on disjoint link Y. Churn on X must not
        // change Y's flow rate (nor its projection, i.e. no heap churn).
        let mut net = FlowNet::new();
        let x = gb(&mut net, 10.0);
        let y = gb(&mut net, 10.0);
        let fy = net.start_flow(SimTime::ZERO, &[y], 1e8);
        let changes_after_y = net.realloc_stats().rate_changes;
        let fx1 = net.start_flow(SimTime::ZERO, &[x], 1e6);
        let _fx2 = net.start_flow(SimTime::ZERO, &[x], 1e6);
        assert_eq!(net.flow_rate_bps(fy), Some(10e9));
        assert_eq!(net.flow_rate_bps(fx1), Some(5e9));
        net.abort_flow(SimTime::from_nanos(100), fx1);
        assert_eq!(net.flow_rate_bps(fy), Some(10e9));
        // Only X-side flows changed rate across the churn: fx1 alone at
        // 10e9, then fx1+fx2 at 5e9 each, then fx2 back to 10e9 on the
        // abort. fy never re-rates.
        assert_eq!(net.realloc_stats().rate_changes - changes_after_y, 4);
    }

    /// The script both rate tests run: overlapping paths through a
    /// shared middle link, staggered arrivals and one abort, with
    /// `duplicate` adding a second flow on one path (one class, two
    /// members). The kernel must match the per-flow oracle bit for bit
    /// at every instant.
    fn scripted_churn(duplicate: bool) -> (FlowNet, PerFlowOracle) {
        let mut net = FlowNet::new();
        let [l0, mid, l2, l3] = [4.0, 10.0, 6.0, 3.0].map(|cap| gb(&mut net, cap));
        let mut oracle = PerFlowOracle::of(&net);
        let at = SimTime::from_nanos;
        oracle.start_with(&mut net, &[l0, mid], 1e9, at(0));
        let gone = oracle.start_with(&mut net, &[mid, l2], 1e9, at(0));
        if duplicate {
            oracle.start_with(&mut net, &[mid, l2], 2e9, at(0));
        }
        oracle.start_with(&mut net, &[l3], 1e9, at(0));
        assert_same_bits(&mut net, &mut oracle, "t = 0");
        oracle.start_with(&mut net, &[mid], 1e9, at(50));
        assert_same_bits(&mut net, &mut oracle, "t = 50");
        net.abort_flow(at(90), gone);
        oracle.remove(gone.slot(), at(90));
        assert_same_bits(&mut net, &mut oracle, "t = 90");
        oracle.start_with(&mut net, &[l2, mid, l0], 1e9, at(120));
        assert_same_bits(&mut net, &mut oracle, "t = 120");
        (net, oracle)
    }

    #[test]
    fn incremental_rates_match_reference_after_churn() {
        scripted_churn(false);
    }

    #[test]
    fn completion_heap_survives_slot_reuse() {
        // Abort a flow, reuse its slot for a different-size flow, and make
        // sure the stale projection never surfaces.
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let a = net.start_flow(SimTime::ZERO, &[l], 1_250_000.0); // would finish at 1 ms
        net.abort_flow(SimTime::from_nanos(10), a);
        let b = net.start_flow(SimTime::from_nanos(10), &[l], 12_500_000.0);
        let (t, id) = net.next_completion().unwrap();
        assert_eq!(id, b);
        assert_eq!(t.as_nanos(), 10_000_010);
        assert_eq!(net.flow_rate_bps(a), None);
    }

    #[test]
    fn next_completion_is_idempotent() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let _a = net.start_flow(SimTime::ZERO, &[l], 1e6);
        let _b = net.start_flow(SimTime::ZERO, &[l], 2e6);
        let first = net.next_completion();
        assert_eq!(first, net.next_completion());
        assert_eq!(first, net.next_completion());
    }

    #[test]
    fn transparent_uplink_is_allocation_neutral() {
        // Two hosts feed a full-bisection uplink (capacity = sum of the
        // feeders): excluding it from the fill must not change any rate,
        // including the exact-tie case where the uplink saturates.
        let rates = |transparent: bool| {
            let mut net = FlowNet::new();
            let tx0 = gb(&mut net, 10.0);
            let tx1 = gb(&mut net, 10.0);
            let up = gb(&mut net, 20.0);
            if transparent {
                net.set_link_transparent(up);
            }
            let ids = [
                net.start_flow(SimTime::ZERO, &[tx0, up], 1e6),
                net.start_flow(SimTime::ZERO, &[tx1, up], 2e6),
                net.start_flow(SimTime::ZERO, &[tx1, up], 3e6),
            ];
            ids.map(|id| net.flow_rate_bps(id).unwrap())
        };
        assert_eq!(rates(true), rates(false));
    }

    #[test]
    fn transparent_link_ripple_stays_in_its_pod() {
        // Hosts a, b share an uplink but no edge link: with the uplink
        // transparent, churn on a's side must not re-rate b's flow.
        let mut net = FlowNet::new();
        let a_tx = gb(&mut net, 10.0);
        let b_tx = gb(&mut net, 10.0);
        let up = gb(&mut net, 20.0);
        net.set_link_transparent(up);
        let fb = net.start_flow(SimTime::ZERO, &[b_tx, up], 1e8);
        let changes_after_b = net.realloc_stats().rate_changes;
        let fa1 = net.start_flow(SimTime::ZERO, &[a_tx, up], 1e6);
        let _fa2 = net.start_flow(SimTime::ZERO, &[a_tx, up], 1e6);
        assert_eq!(net.flow_rate_bps(fb), Some(10e9));
        assert_eq!(net.flow_rate_bps(fa1), Some(5e9));
        net.abort_flow(SimTime::from_nanos(100), fa1);
        assert_eq!(net.flow_rate_bps(fb), Some(10e9));
        // Only a's flows re-rated; b never did.
        assert_eq!(net.realloc_stats().rate_changes - changes_after_b, 4);
    }

    #[test]
    fn transparent_link_still_counts_latency_and_bytes() {
        let mut net = FlowNet::new();
        let tx = net.add_link(8.0, SimDuration::from_micros(1)); // 1 GB/s
        let up = net.add_link(16.0, SimDuration::from_micros(3));
        net.set_link_transparent(up);
        assert_eq!(
            net.path_latency(&[tx, up]),
            SimDuration::from_micros(4),
            "latency must include transparent hops"
        );
        let f = net.start_flow(SimTime::ZERO, &[tx, up], 2_000_000.0);
        net.advance_to(SimTime::from_nanos(1_000_000)); // 1 ms -> 1 MB
        assert!((net.bytes_carried(up) - 1_000_000.0).abs() < 1.0);
        let (t, _) = net.next_completion().unwrap();
        net.complete_flow(t, f);
        assert!((net.bytes_carried(up) - 2_000_000.0).abs() < 1.0);
    }

    #[test]
    fn interned_rates_match_reference_through_churn() {
        // The script with two flows in one class, then drained: every
        // completion must surface despite class bookkeeping, and leave
        // the kernel on the oracle's bits.
        let (mut net, mut oracle) = scripted_churn(true);
        while let Some((t, f)) = net.next_completion() {
            net.complete_flow(t, f);
            oracle.remove(f.slot(), t);
            assert_same_bits(&mut net, &mut oracle, &format!("drain at {t:?}"));
        }
        assert_eq!(net.num_flows(), 0);
    }

    #[test]
    fn interned_identical_paths_share_one_class_visit() {
        // k same-path flows: each reallocation visits one class, so
        // flows_visited grows by k (members re-rated) but the traversal
        // is O(1) in k — link_visits per realloc stays at the path length.
        let mut net = FlowNet::new();
        let a = gb(&mut net, 10.0);
        let b = gb(&mut net, 10.0);
        for _ in 0..16 {
            let _ = net.start_flow(SimTime::ZERO, &[a, b], 1e6);
        }
        let _ = net.next_completion();
        let s = net.realloc_stats();
        assert_eq!(s.count, 1, "same-instant starts coalesce into one fill");
        assert_eq!(s.coalesced, 15);
        assert_eq!(s.link_visits, 2, "one visit per path link, not per flow");
    }

    #[test]
    fn same_instant_churn_coalesces_into_one_reallocation() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        let _a = net.start_flow(SimTime::ZERO, &[l], 1e6);
        let _b = net.start_flow(SimTime::ZERO, &[l], 2e6);
        let _c = net.start_flow(SimTime::ZERO, &[l], 3e6);
        let _ = net.next_completion();
        let s = net.realloc_stats();
        assert_eq!(s.count, 1);
        assert_eq!(s.coalesced, 2);
    }

    #[test]
    #[should_panic(expected = "non-transparent")]
    fn all_transparent_path_rejected() {
        let mut net = FlowNet::new();
        let l = gb(&mut net, 10.0);
        net.set_link_transparent(l);
        net.start_flow(SimTime::ZERO, &[l], 1e6);
    }

    #[test]
    #[should_panic(expected = "once a flow path crosses it")]
    fn transparent_marking_after_a_class_crosses_the_link_rejected() {
        // The flow is long gone, but its class has cached `b` as a link to
        // fill over; the parent's live-count check would let this through.
        let mut net = FlowNet::new();
        let a = gb(&mut net, 10.0);
        let b = gb(&mut net, 20.0);
        let f = net.start_flow(SimTime::ZERO, &[a, b], 1e6);
        let (t, _) = net.next_completion().unwrap();
        net.complete_flow(t, f);
        net.set_link_transparent(b);
    }

    /// `per_link` long flows on each of `links` disjoint links, all started
    /// at t = 0, then `ops` rounds that each replace one flow with a new one
    /// on the same link at a fresh instant.
    fn burst_then_churn(links: usize, per_link: usize, ops: u64) -> ReallocStats {
        let mut net = FlowNet::new();
        let links: Vec<LinkId> = (0..links).map(|_| gb(&mut net, 10.0)).collect();
        let mut live: Vec<(FlowId, LinkId)> = links
            .iter()
            .flat_map(|&l| vec![l; per_link])
            .map(|l| (net.start_flow(SimTime::ZERO, &[l], 1e12), l))
            .collect();
        net.next_completion();
        for step in 0..ops {
            let now = SimTime::from_nanos(1_000 * (step + 1));
            let victim = (step as usize * 37) % live.len();
            let (old, link) = live[victim];
            net.abort_flow(now, old);
            live[victim].0 = net.start_flow(now, &[link], 1e12);
            net.next_completion();
        }
        net.realloc_stats()
    }

    #[test]
    fn full_mode_needs_two_consecutive_covering_ripples() {
        // A start-up burst is one ripple covering everything; the churn
        // that follows touches one four-flow link at a time. Latching the
        // mode on the burst would run every one of those as a full
        // recomputation.
        let sparse = burst_then_churn(64, 4, 100);
        assert_eq!(sparse.full, 0, "burst latched full mode on disjoint churn");
        assert_eq!(sparse.link_visits, 64 + 100);
        // Dense churn — every ripple covers the one shared link's 200
        // flows — does turn it on, from the third reallocation.
        assert_eq!(burst_then_churn(1, 200, 10).full, 9);
    }

    #[test]
    fn a_link_added_after_the_order_is_kept_joins_it() {
        // Full mode keeps its order over `a`; then `b` is added and loaded
        // by later starts. Every fill checks the kept order against a
        // fresh sort in a debug build; the rates check the fill.
        let mut net = FlowNet::new();
        let a = gb(&mut net, 10.0);
        let mut now = SimTime::ZERO;
        for _ in 0..4 {
            for _ in 0..100 {
                net.start_flow(now, &[a], 1e12);
            }
            net.next_completion();
            now += SimDuration::from_nanos(1_000);
        }
        assert!(net.stats.full > 0 && net.scratch.kept);
        let b = gb(&mut net, 1.0);
        let both = net.start_flow(now, &[a, b], 1e12);
        let alone = net.start_flow(now, &[b], 1e12);
        let share = 10e9 / 401.0;
        assert_eq!(net.flow_rate_bps(both), Some(share));
        assert_eq!(net.flow_rate_bps(alone), Some(1e9 - share));
        assert!(net.scratch.kept, "the fill after the new link was not full");
        assert_eq!(net.scratch.sorted.len(), 2);
    }

    /// The per-flow water-filling the class kernel replaced, kept as its
    /// bit-exact oracle: one adjacency entry per flow per link in key
    /// order, one subtraction per frozen flow per link, each rate change
    /// applied as the adjacency walk meets it. It always fills the whole
    /// network, which a component-restricted fill must agree with to the
    /// bit (no arithmetic crosses a component boundary). It knows no path
    /// classes: a flow's key is the start number of the first flow on its
    /// path, then its own.
    struct PerFlowOracle {
        capacity_bps: Vec<f64>,
        transparent: Vec<bool>,
        bytes_carried: Vec<f64>,
        /// Indexed by the kernel's slot, so the two sides name flows alike.
        flows: Vec<Option<OracleFlow>>,
        /// Per link: slots of the live flows crossing it, in key order.
        adjacency: Vec<Vec<usize>>,
        /// Each path ever started, with the start number of its first flow.
        first_start: std::collections::BTreeMap<Vec<LinkId>, u64>,
        /// Flows started so far.
        started: u64,
    }

    struct OracleFlow {
        /// `(first start on the path, own start)`.
        key: (u64, u64),
        path: Vec<LinkId>,
        size: f64,
        remaining_bytes: f64,
        rate_bps: f64,
        synced_at: SimTime,
    }

    impl OracleFlow {
        fn unmaterialized(&self, now: SimTime) -> f64 {
            let dt = now.since(self.synced_at).as_secs_f64();
            (self.rate_bps / 8.0 * dt).min(self.remaining_bytes)
        }

        fn materialize(&mut self, now: SimTime) {
            if now > self.synced_at {
                self.remaining_bytes -= self.unmaterialized(now);
            }
            self.synced_at = now;
        }

        /// What the flow has moved as of `now`.
        fn moved(&self, now: SimTime) -> f64 {
            self.size - self.remaining_bytes + self.unmaterialized(now)
        }
    }

    impl PerFlowOracle {
        fn of(net: &FlowNet) -> Self {
            PerFlowOracle {
                capacity_bps: net.links.iter().map(|l| l.capacity_bps).collect(),
                transparent: net.links.iter().map(|l| l.transparent).collect(),
                bytes_carried: vec![0.0; net.links.len()],
                flows: Vec::new(),
                adjacency: vec![Vec::new(); net.links.len()],
                first_start: Default::default(),
                started: 0,
            }
        }

        fn start(&mut self, slot: usize, path: &[LinkId], bytes: f64, now: SimTime) {
            if self.flows.len() <= slot {
                self.flows.resize_with(slot + 1, || None);
            }
            let first = *self
                .first_start
                .entry(path.to_vec())
                .or_insert(self.started);
            let key = (first, self.started);
            self.started += 1;
            let size = bytes.max(COMPLETION_EPSILON_BYTES / 2.0);
            let flows = &self.flows;
            for l in path {
                let adjacency = &mut self.adjacency[l.0 as usize];
                let at = adjacency.partition_point(|&s| flows[s].as_ref().unwrap().key < key);
                adjacency.insert(at, slot);
            }
            self.flows[slot] = Some(OracleFlow {
                key,
                path: path.to_vec(),
                size,
                remaining_bytes: size,
                rate_bps: 0.0,
                synced_at: now,
            });
        }

        /// Starts the flow on `net` and here alike.
        fn start_with(
            &mut self,
            net: &mut FlowNet,
            path: &[LinkId],
            bytes: f64,
            now: SimTime,
        ) -> FlowId {
            let id = net.start_flow(now, path, bytes);
            self.start(id.slot(), path, bytes, now);
            id
        }

        /// Removes the flow, crediting what it moved to its links.
        fn remove(&mut self, slot: usize, now: SimTime) {
            let mut f = self.flows[slot].take().expect("oracle lost a flow");
            f.materialize(now);
            for l in &f.path {
                self.adjacency[l.0 as usize].retain(|&s| s != slot);
                self.bytes_carried[l.0 as usize] += f.moved(now);
            }
        }

        /// Progressive filling at `now`; returns the slots whose rate
        /// changed, in the order the changes applied. Bottlenecks come off
        /// one min-heap of `(share when queued, link)`; an entry whose
        /// share has since risen is re-queued at its current share, and one
        /// whose share rounding has nudged *down* is consumed where it
        /// stands — the kernel's pre-sorted array plus overflow heap is
        /// this heap, split.
        fn fill(&mut self, now: SimTime) -> Vec<usize> {
            let mut residual = self.capacity_bps.clone();
            let mut count: Vec<usize> = self.adjacency.iter().map(Vec::len).collect();
            let mut frozen = vec![false; self.flows.len()];
            let mut changed = Vec::new();
            let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..residual.len())
                .filter(|&i| !self.transparent[i] && count[i] > 0)
                .map(|i| Reverse(((residual[i] / count[i] as f64).to_bits(), i)))
                .collect();
            while let Some(Reverse((key, i))) = heap.pop() {
                if count[i] == 0 {
                    continue;
                }
                let share = residual[i] / count[i] as f64;
                if share.to_bits() > key {
                    heap.push(Reverse((share.to_bits(), i)));
                    continue;
                }
                for &slot in &self.adjacency[i] {
                    if std::mem::replace(&mut frozen[slot], true) {
                        continue;
                    }
                    let f = self.flows[slot]
                        .as_mut()
                        .expect("adjacency lists live flows");
                    if f.rate_bps.to_bits() != share.to_bits() {
                        f.materialize(now);
                        f.rate_bps = share;
                        changed.push(slot);
                    }
                    for l in &f.path {
                        let j = l.0 as usize;
                        residual[j] = (residual[j] - share).max(0.0);
                        count[j] -= 1;
                    }
                }
            }
            changed
        }

        fn bytes_carried(&self, link: usize, now: SimTime) -> f64 {
            self.adjacency[link]
                .iter()
                .fold(self.bytes_carried[link], |total, &slot| {
                    total + self.flows[slot].as_ref().unwrap().moved(now)
                })
        }
    }

    /// Flushes the kernel, fills the oracle at the same instant, and holds
    /// every bit of state the two share to equality. Returns the slots
    /// whose rate changed, in order.
    fn assert_same_bits(net: &mut FlowNet, oracle: &mut PerFlowOracle, what: &str) -> Vec<usize> {
        net.flush();
        let now = net.last_update;
        let changed = oracle.fill(now);
        assert_eq!(
            net.scratch.changed, changed,
            "{what}: rate changes, in order"
        );
        for (s, want) in oracle.flows.iter().enumerate() {
            let got = net.slots[s].as_ref();
            assert_eq!(got.is_some(), want.is_some(), "{what}: slot {s} liveness");
            let (Some(got), Some(want)) = (got, want) else {
                continue;
            };
            assert_eq!(
                (
                    got.rate_bps.to_bits(),
                    got.remaining_bytes.to_bits(),
                    got.synced_at
                ),
                (
                    want.rate_bps.to_bits(),
                    want.remaining_bytes.to_bits(),
                    want.synced_at
                ),
                "{what}: slot {s} rate / remaining / synced_at"
            );
        }
        for l in 0..net.links.len() {
            assert_eq!(
                net.bytes_carried(LinkId(l as u32)).to_bits(),
                oracle.bytes_carried(l, now).to_bits(),
                "{what}: bytes carried by link {l}"
            );
        }
        changed
    }

    /// The earliest completion by brute force over the oracle's flows,
    /// each projected from its last rate change as the kernel projects,
    /// then clamped to the kernel's clock as `next_completion` clamps.
    fn oracle_next_completion(net: &FlowNet, oracle: &PerFlowOracle) -> Option<(SimTime, usize)> {
        let bump = |f: &OracleFlow, at: SimTime, from: SimTime| {
            let elapsed = from.since(f.synced_at).as_secs_f64();
            let left = f.remaining_bytes - f.rate_bps / 8.0 * elapsed;
            if left > COMPLETION_EPSILON_BYTES && at == from {
                at + SimDuration::from_nanos(1)
            } else {
                at
            }
        };
        let (due, slot) = (oracle.flows.iter().enumerate())
            .filter_map(|(s, f)| {
                let f = f.as_ref().filter(|f| f.rate_bps > 0.0)?;
                let secs = (f.remaining_bytes * 8.0) / f.rate_bps;
                let at = f.synced_at + SimDuration::from_secs_f64(secs);
                Some((bump(f, at, f.synced_at), s))
            })
            .min()?;
        let now = net.last_update;
        let f = oracle.flows[slot].as_ref().expect("live");
        Some((bump(f, due.max(now), now), slot))
    }

    /// Holds `next_due` (and, once flushed, `next_completion`) to the
    /// brute-force minimum over the oracle's per-flow state.
    fn assert_next_completion(
        net: &mut FlowNet,
        oracle: &PerFlowOracle,
        flushed: bool,
        what: &str,
    ) {
        let want = oracle_next_completion(net, oracle);
        let now = net.last_update;
        let slot_of = |hit: Option<(SimTime, FlowId)>| hit.map(|(t, id)| (t, id.slot()));
        assert_eq!(
            slot_of(net.next_due(now)),
            want.filter(|&(t, _)| t <= now),
            "{what}: next_due"
        );
        if flushed {
            assert_eq!(
                slot_of(net.next_completion()),
                want,
                "{what}: next_completion"
            );
        }
    }

    /// After a flush: the kernel on the oracle's bits, the flush's
    /// recorded `FlowRateChanged` events on the oracle's change list, its
    /// next completion on the brute-force minimum, and, given the oracle
    /// that fills over transparent links as ordinary ones, every rate
    /// within 1e-6 of that fill's.
    fn assert_flushed(
        net: &mut FlowNet,
        oracle: &mut PerFlowOracle,
        ordinary: Option<&mut PerFlowOracle>,
        what: &str,
    ) {
        let recorder = trace::Recorder::full();
        net.set_recorder(recorder.clone());
        let (count, full) = (net.stats.count, net.stats.full);
        let changed = assert_same_bits(net, oracle, what);
        net.set_recorder(trace::Recorder::disabled());
        // A fill keeps its candidate order only in full mode, and leaves
        // no queued link behind in either mode.
        if net.stats.count > count {
            assert_eq!(
                net.scratch.kept,
                net.stats.full > full,
                "{what}: kept order"
            );
        }
        assert!(net.scratch.frontier.is_empty(), "{what}: queued links");
        let recorded: Vec<usize> = (recorder.events().into_iter())
            .filter_map(|e| match e.kind {
                trace::EventKind::FlowRateChanged { flow, .. } => Some(flow as u32 as usize),
                _ => None,
            })
            .collect();
        assert_eq!(recorded, changed, "{what}: recorded rate changes");
        assert_next_completion(net, oracle, true, what);
        let Some(ordinary) = ordinary else { return };
        ordinary.fill(net.last_update);
        for (s, want) in ordinary.flows.iter().enumerate() {
            let (Some(got), Some(want)) = (&net.slots[s], want) else {
                continue;
            };
            let (got, want) = (got.rate_bps, want.rate_bps);
            assert!(
                (got - want).abs() <= want * 1e-6,
                "{what}: slot {s} rate {got} vs {want} filling over transparent links"
            );
        }
    }

    /// What a [`churn`] run draws its flows over: `paths` random host
    /// pairs of a flat network of `pods * per_pod` hosts (profile 0), an
    /// oversubscribed TOR (1) or a fat-tree (2) of `pods` pods.
    #[derive(Debug)]
    struct Shape {
        profile: u8,
        pods: usize,
        per_pod: usize,
        paths: usize,
    }

    impl Shape {
        /// The seeded runs' shape: six hosts flat, three pods of three
        /// otherwise, and a few heavily shared paths.
        fn seeded(profile: u8) -> Self {
            let pods = if profile == 0 { 2 } else { 3 };
            Shape {
                profile,
                pods,
                per_pod: 3,
                paths: 12,
            }
        }
    }

    /// Seeded churn — starts, completions, aborts, same-instant bursts —
    /// over `shape`, around `target` live flows, with [`assert_flushed`]
    /// after every flush and the next completion held to brute force
    /// after every removal. On a fat-tree the second oracle fills over
    /// the transparent tier: skipping it must move no rate. Fills count
    /// marks up from `first_mark`.
    fn churn(shape: Shape, seed: u64, target: usize, steps: usize, first_mark: u32) -> FlowNet {
        use crate::topology::Topology;
        let mut net = FlowNet::new();
        net.scratch.mark = first_mark;
        let lat = SimDuration::from_micros(1);
        let (pods, per_pod) = (shape.pods, shape.per_pod);
        let topo = match shape.profile {
            0 => Topology::flat(&mut net, pods * per_pod, 10.0, lat),
            1 => Topology::oversubscribed_tor(&mut net, pods, per_pod, 10.0, 10.0, lat),
            _ => Topology::fat_tree(&mut net, pods, per_pod, 10.0, lat),
        };
        let n = topo.num_nodes();
        let mut state = seed;
        let mut rnd = move |m: usize| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as usize) % m
        };
        let pairs: Vec<(usize, usize)> = (0..shape.paths)
            .map(|_| {
                let a = rnd(n);
                (a, (a + 1 + rnd(n - 1)) % n)
            })
            .collect();
        let mut oracle = PerFlowOracle::of(&net);
        let mut ordinary = net
            .links
            .iter()
            .any(|l| l.transparent)
            .then(|| PerFlowOracle {
                transparent: vec![false; net.links.len()],
                ..PerFlowOracle::of(&net)
            });
        let mut active: Vec<FlowId> = Vec::new();
        let mut now = SimTime::ZERO;
        let mut pending = false;
        let mut pending_start = false;
        for step in 0..steps {
            let what = format!("{shape:?} seed {seed} step {step}");
            // Two times in three the burst ends here: flush, compare, and
            // let time pass. Otherwise the next change lands on the same
            // instant and coalesces into the pending reallocation. (A
            // completion that came due before `now` leaves the kernel's
            // clock behind it; moving on flushes the kernel, so it ends
            // the burst too.)
            if pending && (rnd(3) != 0 || net.last_update < now) {
                assert_flushed(&mut net, &mut oracle, ordinary.as_mut(), &what);
                pending = false;
                pending_start = false;
                now += SimDuration::from_nanos(rnd(20_000) as u64);
            }
            let roll = rnd(10);
            if active.len() < target && roll < 6 || active.is_empty() {
                let (a, b) = pairs[rnd(pairs.len())];
                // Half the flows share one size: completion ties and
                // equal-share plateaus.
                let bytes = if rnd(2) == 0 {
                    262_144.0
                } else {
                    (1 + rnd(2_000_000)) as f64
                };
                let path = topo.path(a, b);
                let id = net.start_flow(now, &path, bytes);
                for o in std::iter::once(&mut oracle).chain(&mut ordinary) {
                    o.start(id.slot(), &path, bytes, now);
                }
                active.push(id);
                pending_start = true;
            } else {
                let (id, at) = if roll < 8 {
                    if pending {
                        assert_flushed(&mut net, &mut oracle, ordinary.as_mut(), &what);
                        pending_start = false;
                    }
                    let (t, id) = net.next_completion().expect("active flows");
                    now = now.max(t);
                    net.complete_flow(t, id);
                    active.retain(|&f| f != id);
                    (id, t)
                } else {
                    let id = active.swap_remove(rnd(active.len()));
                    net.abort_flow(now, id);
                    (id, now)
                };
                for o in std::iter::once(&mut oracle).chain(&mut ordinary) {
                    o.remove(id.slot(), at);
                }
                // Removals alone leave every projection an upper bound:
                // `next_due` answers from them without a flush.
                if !pending_start {
                    assert_next_completion(&mut net, &oracle, false, &what);
                }
            }
            pending = true;
        }
        assert_flushed(&mut net, &mut oracle, ordinary.as_mut(), "final");
        net
    }

    #[test]
    fn class_kernel_is_bit_identical_to_the_per_flow_oracle() {
        for profile in 0..3 {
            let mut full = 0;
            for seed in 1..=3 {
                // Small components (ripple traversal, which keeps no
                // order) and, past the 128-flow floor, covering ones
                // (full mode, in its kept order, and its probes).
                let sparse = churn(Shape::seeded(profile), seed, 24, 400, 0).stats;
                let dense = churn(Shape::seeded(profile), seed, 200, 900, 0).stats;
                assert_eq!(sparse.full, 0);
                assert!(dense.full < dense.count);
                // Every flat and TOR seed reaches full mode; on the
                // fat-tree only some do (seed 2 never covers).
                if profile < 2 {
                    assert!(
                        dense.full > 0,
                        "profile {profile} seed {seed} never reached full mode"
                    );
                }
                full += dense.full;
            }
            assert!(full > 0, "profile {profile} never reached full mode");
        }
    }

    #[test]
    fn marks_wrap_mid_churn_without_leaving_the_oracle() {
        // Fills start eight marks short of `u32::MAX`, so the reset of
        // the link, traversal and freeze marks runs mid-churn (a mark
        // that overflowed instead would panic here, in a debug build).
        for profile in 0..3 {
            let stats = churn(Shape::seeded(profile), 5, 24, 300, u32::MAX - 8).stats;
            assert!(stats.count > 8, "the churn never reached the wrap");
        }
    }

    #[test]
    fn interleaved_classes_re_rate_in_class_order_not_start_order() {
        // Two disjoint bottlenecks, each fed over four paths (four
        // classes whose members interleave in start order). Flows on
        // `dense` live for a few steps; on `held`, one flow started first
        // and never ends. Every step moves both shares, so every flow
        // re-rates, class by class: the changes leave start order on
        // both links, and the oracle, keyed by each path's first start,
        // must apply them in the same order.
        let mut net = FlowNet::new();
        let held = gb(&mut net, 10.0);
        let dense = gb(&mut net, 10.0);
        let feeds: Vec<[LinkId; 2]> = (0..4)
            .map(|_| [gb(&mut net, 40.0), gb(&mut net, 40.0)])
            .collect();
        let mut oracle = PerFlowOracle::of(&net);
        oracle.start_with(&mut net, &[held], 1e12, SimTime::ZERO);
        let mut live: [Vec<FlowId>; 2] = [Vec::new(), Vec::new()];
        let mut out_of_start_order = 0;
        for step in 0..400u64 {
            let now = SimTime::from_nanos(1_000 * step);
            for (side, link) in [held, dense].into_iter().enumerate() {
                let feed = feeds[(step % 4) as usize][side];
                live[side].push(oracle.start_with(&mut net, &[feed, link], 1e12, now));
                // One in, then one in and two out: every step moves the
                // share, so every flow on the link changes rate.
                if step % 2 == 1 && live[side].len() > 8 {
                    for gone in live[side].drain(..2) {
                        net.abort_flow(now, gone);
                        oracle.remove(gone.slot(), now);
                    }
                }
            }
            let changed = assert_same_bits(&mut net, &mut oracle, &format!("step {step}"));
            let starts: Vec<u64> = (changed.iter())
                .map(|&s| oracle.flows[s].as_ref().unwrap().key.1)
                .collect();
            out_of_start_order += usize::from(!starts.is_sorted());
        }
        assert!(
            out_of_start_order > 300,
            "only {out_of_start_order} of 400 fills left start order"
        );
    }

    #[test]
    fn dense_churn_projects_fewer_flows_than_it_re_rates() {
        // Only members that can head their class are projected, and a
        // removed head's class is rescanned: under dense churn that is
        // well under one projection per rate change.
        for profile in 0..3 {
            let net = churn(Shape::seeded(profile), 1, 200, 900, 0);
            let (projections, rate_changes) = (net.scratch.projections, net.stats.rate_changes);
            assert!(
                projections < rate_changes,
                "profile {profile}: {projections} projections for {rate_changes} rate changes"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// [`churn`] on random shapes: flat, TOR and fat-tree of 2-4 pods
        /// of 2-4 hosts, over a few heavily shared paths up to mostly
        /// distinct ones.
        #[test]
        fn churn_matches_both_oracles_on_random_shapes(
            profile in 0u8..3,
            pods in 2usize..5,
            per_pod in 2usize..5,
            paths in 1usize..97,
            seed in proptest::prelude::any::<u64>(),
        ) {
            churn(Shape { profile, pods, per_pod, paths }, seed, 24, 160, 0);
        }
    }

    /// The chain [`subtract_steps`] stands for.
    fn steps_one_by_one(r: f64, share: f64, live: u32) -> f64 {
        (0..live).fold(r, |r, _| (r - share).max(0.0))
    }

    /// `(r, share, live)` where `share` is a whole or half number of
    /// `r`'s ulps, give or take a couple of ulps of its own: the steps'
    /// rounding ties and their neighbours (ulp/2, ulp, 1.5 ulp, ...).
    /// Residuals just above a binade floor make long chains cross it. The
    /// last branch draws the shares a fill computes: a residual split `n`
    /// ways, `live <= n` steps of it.
    fn arb_chain() -> impl proptest::strategy::Strategy<Value = (f64, f64, u32)> {
        use proptest::prelude::*;
        let r = prop_oneof![
            (1u64 << 20..1 << 44).prop_map(|m| m as f64 * 1e-1),
            (0i32..60, 0u64..1 << 14)
                .prop_map(|(e, above)| { f64::from_bits(2f64.powi(e).to_bits() + above) }),
        ];
        let halves = prop_oneof![0u64..4, 0u64..1 << 13];
        let ulps = (r, halves, 0u64..5, 0u32..1 << 12).prop_map(|(r, halves, nudge, live)| {
            let ulp = f64::from_bits(r.to_bits() & !((1 << 52) - 1)) * f64::EPSILON;
            let share = halves as f64 * 0.5 * ulp;
            let share = if share > 0.0 {
                f64::from_bits((share.to_bits() + nudge).saturating_sub(2))
            } else {
                share
            };
            (r, share, live)
        });
        let fill = (1u64 << 30..1 << 44, 1u32..1 << 12, 0u32..1 << 12).prop_map(|(r, n, live)| {
            let r = r as f64 * 0.25;
            (r, r / f64::from(n), live % (n + 1))
        });
        prop_oneof![ulps, fill]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(50_000))]

        #[test]
        fn closed_form_chain_is_the_sequential_chain((r, share, live) in arb_chain()) {
            proptest::prop_assert_eq!(
                subtract_steps(r, share, live).to_bits(),
                steps_one_by_one(r, share, live).to_bits(),
                "r {:e} share {:e} live {}", r, share, live
            );
        }
    }
}
