//! Link fault models: independent loss, Gilbert–Elliott burst loss, and
//! payload corruption — all deterministic under a caller-supplied seed.
//!
//! The RDMC paper (§2.2) assumes a lossless RDMA fabric, so the kernel's
//! default is exactly that: no [`FaultProfile`] attached, zero cost, zero
//! behavioural difference. SDR-RDMA argues that planetary-scale RDMA has
//! to treat loss as a software concern instead; this module supplies the
//! fabric side of that argument. A [`FaultProfile`] maps links to
//! [`LinkFault`] models and is consulted once per completed flow
//! traversal: each link on the path may independently drop the payload
//! (Bernoulli loss and/or a two-state Gilbert–Elliott burst channel) or
//! corrupt it (checksum failure at the receiver). Latency heterogeneity
//! needs no machinery here — every link already carries its own
//! propagation delay, so WAN topologies simply add slow links (see
//! [`crate::Topology::multi_datacenter`]).
//!
//! Sampling uses a single SplitMix64 stream per profile, advanced in
//! path order, so identical event sequences produce identical fault
//! sequences — chaos reruns stay bit-for-bit reproducible.

use crate::flow::LinkId;
use std::collections::BTreeMap;

/// What the fault model decided for one delivered payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultOutcome {
    /// The payload arrives intact.
    Deliver,
    /// The payload is lost on the wire: the receiver sees nothing.
    Drop,
    /// The payload arrives, but fails its integrity check at the
    /// receiver (the NIC surfaces bits, software must discard them).
    Corrupt,
}

/// The two-state Gilbert–Elliott burst-loss channel: a Markov chain over
/// {Good, Bad} states with a per-state loss probability. The classic
/// model for correlated (bursty) loss on WAN paths.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GilbertElliott {
    /// Probability of transitioning Good → Bad per traversal.
    pub p_good_to_bad: f64,
    /// Probability of transitioning Bad → Good per traversal.
    pub p_bad_to_good: f64,
    /// Loss probability while in the Good state (usually ~0).
    pub loss_good: f64,
    /// Loss probability while in the Bad state (usually high).
    pub loss_bad: f64,
}

impl GilbertElliott {
    /// A mild WAN burst profile averaging roughly `mean_loss` overall:
    /// long good periods with rare bad bursts that lose half their
    /// traversals.
    #[must_use]
    pub fn bursty(mean_loss: f64) -> Self {
        // Stationary Bad probability = p_gb / (p_gb + p_bg); with
        // loss_bad = 0.5 and loss_good = 0, mean loss = 0.5 * P(Bad).
        let p_bad = (2.0 * mean_loss).min(0.9);
        let p_bad_to_good = 0.2;
        let p_good_to_bad = p_bad_to_good * p_bad / (1.0 - p_bad);
        GilbertElliott {
            p_good_to_bad,
            p_bad_to_good,
            loss_good: 0.0,
            loss_bad: 0.5,
        }
    }
}

/// Fault model for one link: independent loss, optional burst channel,
/// and corruption probability. All probabilities are per traversal of
/// the link by one payload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkFault {
    /// Independent (Bernoulli) loss probability.
    pub loss: f64,
    /// Optional correlated-loss channel, sampled in addition to `loss`.
    pub burst: Option<GilbertElliott>,
    /// Probability the payload arrives corrupted (only consulted when it
    /// was not dropped).
    pub corrupt: f64,
}

impl LinkFault {
    /// Independent loss only.
    #[must_use]
    pub fn lossy(loss: f64) -> Self {
        LinkFault {
            loss,
            burst: None,
            corrupt: 0.0,
        }
    }

    /// True when every probability is zero — indistinguishable from no
    /// fault model at all.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.loss == 0.0 && self.corrupt == 0.0 && self.burst.is_none()
    }
}

/// SplitMix64 — the tiny deterministic generator behind fault sampling
/// and the explorer's random walk: a stream is a pure function of its
/// seed, so a seeded run replays bit for bit.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// The stream that `seed` starts.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Per-link Gilbert–Elliott chain state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GeState {
    Good,
    Bad,
}

/// A seeded fault model over a set of links.
///
/// Links without an entry (and no default) are perfect — the common
/// case, so a profile targeting only WAN links leaves LAN traffic
/// untouched.
///
/// # Examples
///
/// ```
/// use simnet::{FaultOutcome, FaultProfile, FlowNet, LinkFault, SimDuration, Topology};
///
/// let mut net = FlowNet::new();
/// let topo = Topology::flat(&mut net, 2, 100.0, SimDuration::from_micros(2));
/// let mut faults = FaultProfile::new(7);
/// faults.set_link(topo.tx_link(0), LinkFault::lossy(1.0));
/// assert_eq!(faults.sample(&topo.path(0, 1)), FaultOutcome::Drop);
/// assert_eq!(faults.sample(&topo.path(1, 0)), FaultOutcome::Deliver);
/// ```
#[derive(Clone, Debug)]
pub struct FaultProfile {
    rng: SplitMix64,
    default: Option<LinkFault>,
    // Keyed by link index; BTreeMap for deterministic Debug output (the
    // map is only ever point-queried during sampling).
    per_link: BTreeMap<u32, LinkFault>,
    ge_states: BTreeMap<u32, GeState>,
}

impl FaultProfile {
    /// An empty profile (all links perfect) with the given RNG seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        FaultProfile {
            rng: SplitMix64(seed),
            default: None,
            per_link: BTreeMap::new(),
            ge_states: BTreeMap::new(),
        }
    }

    /// Applies `fault` to every link that has no explicit entry.
    pub fn set_default(&mut self, fault: LinkFault) {
        self.default = Some(fault);
    }

    /// Sets (or replaces) the fault model for one link.
    pub fn set_link(&mut self, link: LinkId, fault: LinkFault) {
        self.per_link.insert(link.0, fault);
    }

    /// True when no link can ever drop or corrupt — sampling such a
    /// profile always returns [`FaultOutcome::Deliver`] without touching
    /// the RNG, so an all-clean profile is behaviourally identical to no
    /// profile.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.default.as_ref().is_none_or(LinkFault::is_clean)
            && self.per_link.values().all(LinkFault::is_clean)
    }

    /// Samples the fate of one payload that traversed `path`, advancing
    /// burst-channel states on every faulted link. Loss on any link
    /// dominates corruption (a dropped payload never reaches the
    /// receiver's checksum).
    pub fn sample(&mut self, path: &[LinkId]) -> FaultOutcome {
        if self.default.is_none() && self.per_link.is_empty() {
            return FaultOutcome::Deliver;
        }
        let mut outcome = FaultOutcome::Deliver;
        for link in path {
            let Some(fault) = self.per_link.get(&link.0).or(self.default.as_ref()) else {
                continue;
            };
            let fault = *fault;
            if fault.is_clean() {
                continue;
            }
            let mut dropped = fault.loss > 0.0 && self.rng.next_f64() < fault.loss;
            if let Some(ge) = fault.burst {
                let state = self.ge_states.entry(link.0).or_insert(GeState::Good);
                let flip = match *state {
                    GeState::Good => ge.p_good_to_bad,
                    GeState::Bad => ge.p_bad_to_good,
                };
                if self.rng.next_f64() < flip {
                    *state = match *state {
                        GeState::Good => GeState::Bad,
                        GeState::Bad => GeState::Good,
                    };
                }
                let loss = match *state {
                    GeState::Good => ge.loss_good,
                    GeState::Bad => ge.loss_bad,
                };
                dropped |= loss > 0.0 && self.rng.next_f64() < loss;
            }
            if dropped {
                return FaultOutcome::Drop;
            }
            if outcome == FaultOutcome::Deliver
                && fault.corrupt > 0.0
                && self.rng.next_f64() < fault.corrupt
            {
                outcome = FaultOutcome::Corrupt;
            }
        }
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use crate::{FlowNet, Topology};

    fn two_node() -> (FlowNet, Topology) {
        let mut net = FlowNet::new();
        let topo = Topology::flat(&mut net, 2, 100.0, SimDuration::from_micros(2));
        (net, topo)
    }

    #[test]
    fn empty_profile_always_delivers() {
        let (_net, topo) = two_node();
        let mut p = FaultProfile::new(1);
        assert!(p.is_clean());
        for _ in 0..100 {
            assert_eq!(p.sample(&topo.path(0, 1)), FaultOutcome::Deliver);
        }
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let (_net, topo) = two_node();
        let run = |seed| {
            let mut p = FaultProfile::new(seed);
            p.set_default(LinkFault {
                loss: 0.3,
                burst: Some(GilbertElliott::bursty(0.05)),
                corrupt: 0.1,
            });
            (0..200)
                .map(|_| p.sample(&topo.path(0, 1)))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn loss_rate_tracks_configuration() {
        let (_net, topo) = two_node();
        let mut p = FaultProfile::new(9);
        p.set_default(LinkFault::lossy(0.01));
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| p.sample(&topo.path(0, 1)) == FaultOutcome::Drop)
            .count();
        // Two faulted links per path => ~2% end-to-end.
        let rate = drops as f64 / n as f64;
        assert!((0.012..0.028).contains(&rate), "rate {rate}");
    }

    #[test]
    fn burst_loss_is_correlated() {
        let (_net, topo) = two_node();
        let mut p = FaultProfile::new(5);
        p.set_default(LinkFault {
            loss: 0.0,
            burst: Some(GilbertElliott::bursty(0.05)),
            corrupt: 0.0,
        });
        let fates: Vec<bool> = (0..50_000)
            .map(|_| p.sample(&topo.path(0, 1)) == FaultOutcome::Drop)
            .collect();
        let losses = fates.iter().filter(|&&d| d).count() as f64;
        let rate = losses / fates.len() as f64;
        // Conditional loss-after-loss probability should exceed the
        // marginal rate by a wide margin — the definition of bursty.
        let pairs = fates.windows(2).filter(|w| w[0]).count() as f64;
        let after_loss = fates.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        assert!(rate > 0.02 && rate < 0.2, "marginal {rate}");
        assert!(after_loss / pairs > 2.0 * rate, "not bursty");
    }

    #[test]
    fn corruption_is_reported_separately() {
        let (_net, topo) = two_node();
        let mut p = FaultProfile::new(3);
        p.set_default(LinkFault {
            loss: 0.0,
            burst: None,
            corrupt: 1.0,
        });
        let fates: Vec<FaultOutcome> = (0..100).map(|_| p.sample(&topo.path(0, 1))).collect();
        assert_eq!(fates, vec![FaultOutcome::Corrupt; 100]);
    }

    #[test]
    fn per_link_override_targets_one_direction() {
        let (_net, topo) = two_node();
        let mut p = FaultProfile::new(7);
        p.set_link(topo.tx_link(0), LinkFault::lossy(1.0));
        assert_eq!(p.sample(&topo.path(0, 1)), FaultOutcome::Drop);
        assert_eq!(p.sample(&topo.path(1, 0)), FaultOutcome::Deliver);
    }
}
