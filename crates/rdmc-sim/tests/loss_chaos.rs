//! Loss chaos harness: prove the per-group reliability policies repair
//! (or cleanly escalate) *every* possible wire loss.
//!
//! Two attack modes:
//!
//! 1. **Exhaustive targeted drops** — a [`DropNth`] scheduler answers
//!    the fabric's loss choice points (see `verbs::PointKind::LossSite`)
//!    with "deliver" everywhere except the nth site, which it drops.
//!    Sweeping n over every site of the failure-free run drops every
//!    data transfer of the multicast exactly once, under every policy.
//! 2. **Seeded random loss** — a proptest feeds `simnet::FaultProfile`
//!    with random seeds, loss rates, burst channels, and corruption and
//!    asserts the same convergence invariant plus bit-for-bit
//!    determinism of a rerun.
//!
//! The convergence invariant in both modes is the run's verdict,
//! `Cluster::check_run`.
//!
//! Replaying a proptest counterexample by hand:
//!
//! ```text
//! RDMC_LOSS_POLICY=erasure RDMC_LOSS_SEED=42 RDMC_LOSS_PPM=10000 \
//!   RDMC_LOSS_BURST=1 cargo test -p rdmc-sim --test loss_chaos \
//!   replay_from_env -- --ignored --nocapture
//! ```

use std::sync::{Arc, Mutex};

use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{
    ClusterBuilder, ClusterSpec, GroupSpec, RecoveryConfig, ReliabilityPolicy, SimCluster,
};
use simnet::{FaultProfile, GilbertElliott, LinkFault};
use verbs::{CandidateKind, ChoicePoint, PointKind, Scheduler, Transport};

const N: usize = 4;
const BLOCK: u64 = 64 << 10;
const BLOCKS: u64 = 3;

/// Delivers every transfer except the `target`-th loss site, which it
/// drops. With `target: None` it is a pure counter: the run is
/// loss-free and `seen` afterwards is the number of droppable sites.
struct DropNth {
    target: Option<u64>,
    seen: u64,
    dropped: bool,
}

impl Scheduler for DropNth {
    fn choose(&mut self, point: &ChoicePoint<'_>) -> usize {
        if point.kind != PointKind::LossSite {
            return 0;
        }
        let site = self.seen;
        self.seen += 1;
        let want_drop = Some(site) == self.target;
        if want_drop {
            self.dropped = true;
        }
        point
            .candidates
            .iter()
            .position(|c| matches!(c.kind, CandidateKind::Loss { drop } if drop == want_drop))
            .unwrap_or(0)
    }
}

/// One targeted-drop run: an `N`-member binomial-pipeline group with
/// recovery and `policy` protection, one `BLOCKS`-block message, and
/// the `target`-th wire transfer dropped (or none). Returns the cluster
/// plus the number of loss sites offered and whether the drop fired.
fn drop_run(policy: ReliabilityPolicy, target: Option<u64>) -> (SimCluster, u64, bool) {
    let sched = Arc::new(Mutex::new(DropNth {
        target,
        seen: 0,
        dropped: false,
    }));
    let mut fabric = ClusterSpec::fractus(N).build();
    fabric.set_loss_choice_budget(1 << 40);
    let mut cluster = ClusterBuilder::from_transport(fabric)
        .flight_recorder()
        .recovery(RecoveryConfig::default())
        .reliability(policy)
        .scheduler(sched.clone())
        .build();
    let group = cluster.create_group(GroupSpec {
        members: (0..N).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    cluster.submit_send(group, BLOCKS * BLOCK);
    cluster.run();
    let guard = sched.lock().expect("scheduler mutex");
    (cluster, guard.seen, guard.dropped)
}

/// Every lossy run ends with a clean verdict ([`SimCluster::check_run`],
/// whose trace oracle has a loss/repair rule) and a survivor left.
fn assert_clean(cluster: &SimCluster, ctx: &str) {
    assert_eq!(cluster.check_run(), Ok(()), "{ctx}");
    assert!(
        !cluster.surviving_ranks(0).is_empty(),
        "{ctx}: no survivors"
    );
}

/// Full delivery at the *original* membership — the stronger invariant
/// for runs that must repair without escalating.
fn assert_delivered_everywhere(cluster: &SimCluster, ctx: &str) {
    for r in cluster.message_results() {
        for rank in 0..N {
            assert!(
                r.delivered(rank),
                "{ctx}: message {} missing at rank {rank}",
                r.index
            );
        }
    }
}

fn policies() -> [ReliabilityPolicy; 3] {
    [
        ReliabilityPolicy::SelectiveAck,
        ReliabilityPolicy::erasure(2, 1),
        ReliabilityPolicy::WedgeResume,
    ]
}

/// Wire-level fault counters, for determinism comparison.
fn fault_counters(cluster: &SimCluster) -> (u64, u64) {
    let stats = cluster.transport().stats();
    (stats.payload_drops, stats.payload_corruptions)
}

/// Every wire transfer of the multicast dropped exactly once, under
/// every reliability policy. Selective-ack and erasure must repair
/// without any escalation and deliver everywhere; wedge/resume must
/// escalate into a recovery epoch that still converges.
#[test]
fn every_transfer_dropped_once_under_every_policy() {
    for policy in policies() {
        let name = policy.name();
        let (baseline, sites, dropped) = drop_run(policy, None);
        assert!(!dropped);
        assert!(sites > 0, "{name}: no loss sites offered");
        assert_clean(&baseline, &format!("{name} baseline"));
        assert_delivered_everywhere(&baseline, &format!("{name} baseline"));
        assert_eq!(
            baseline.reliability_stats().escalations,
            0,
            "{name} baseline escalated"
        );
        let mut total_repairs = 0u64;
        for site in 0..sites {
            let ctx = format!("{name} drop@{site}/{sites}");
            let (cluster, _, dropped) = drop_run(policy, Some(site));
            assert!(dropped, "{ctx}: target site never offered");
            assert_clean(&cluster, &ctx);
            let stats = cluster.reliability_stats();
            total_repairs += stats.repairs_received + stats.parity_repairs;
            match policy {
                ReliabilityPolicy::WedgeResume => {
                    // A drop under wedge/resume is an escalation by
                    // definition: the receiver declares the sender
                    // lossy and recovery reconfigures around it.
                    assert_eq!(stats.escalations, 1, "{ctx}: expected one escalation");
                    assert!(
                        !cluster.recovery_stats().reconfigurations.is_empty(),
                        "{ctx}: escalation did not reconfigure"
                    );
                }
                _ => {
                    // A single drop must be absorbed by the policy:
                    // no escalation, everyone delivers.
                    assert_eq!(stats.escalations, 0, "{ctx}: single drop escalated");
                    assert_delivered_everywhere(&cluster, &ctx);
                    assert!(
                        cluster.recovery_stats().reconfigurations.is_empty(),
                        "{ctx}: single drop triggered recovery"
                    );
                }
            }
        }
        if policy != ReliabilityPolicy::WedgeResume {
            // The sweep is not vacuous: at least one dropped transfer
            // was a data block that needed an actual repair.
            assert!(total_repairs > 0, "{name}: sweep repaired nothing");
        }
    }
}

/// One seeded random-loss run on the WAN-ish fault profile.
fn seeded_lossy_run(
    policy: ReliabilityPolicy,
    seed: u64,
    loss_ppm: u32,
    burst: bool,
    corrupt: bool,
) -> SimCluster {
    let loss = f64::from(loss_ppm) / 1e6;
    let fault = LinkFault {
        loss: if burst { 0.0 } else { loss },
        burst: if burst {
            Some(GilbertElliott::bursty(loss))
        } else {
            None
        },
        corrupt: if corrupt { loss / 4.0 } else { 0.0 },
    };
    let mut profile = FaultProfile::new(seed);
    profile.set_default(fault);
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(N))
        .flight_recorder()
        .recovery(RecoveryConfig::default())
        .fault_profile(profile)
        .reliability(policy)
        .build();
    let group = cluster.create_group(GroupSpec {
        members: (0..N).collect(),
        algorithm: Algorithm::BinomialPipeline,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    cluster.submit_send(group, BLOCKS * BLOCK);
    cluster.submit_send(group, 2 * BLOCK);
    cluster.run();
    cluster
}

fn arb_policy() -> impl Strategy<Value = ReliabilityPolicy> {
    prop_oneof![
        Just(ReliabilityPolicy::SelectiveAck),
        Just(ReliabilityPolicy::erasure(2, 1)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random seeded loss (uniform or bursty, optionally with
    /// corruption) at rates up to 5%: the protected group always
    /// converges — no hangs, oracle-clean — and the run is bit-for-bit
    /// deterministic.
    #[test]
    fn seeded_loss_always_converges(
        policy in arb_policy(),
        seed in any::<u64>(),
        loss_ppm in prop::sample::select(vec![1_000u32, 10_000, 50_000]),
        burst in any::<bool>(),
        corrupt in any::<bool>(),
    ) {
        let cluster = seeded_lossy_run(policy, seed, loss_ppm, burst, corrupt);
        let ctx = format!(
            "{} seed={seed} loss={loss_ppm}ppm burst={burst} corrupt={corrupt}",
            policy.name()
        );
        assert_clean(&cluster, &ctx);

        // Determinism: an identical rerun reproduces the run exactly.
        let rerun = seeded_lossy_run(policy, seed, loss_ppm, burst, corrupt);
        prop_assert_eq!(cluster.events_fed(), rerun.events_fed());
        prop_assert_eq!(
            cluster.transport().now().as_nanos(),
            rerun.transport().now().as_nanos()
        );
        prop_assert_eq!(cluster.reliability_stats(), rerun.reliability_stats());
        prop_assert_eq!(fault_counters(&cluster), fault_counters(&rerun));
    }
}

/// Manual replay hook for proptest counterexamples; see the module doc
/// for the environment variables.
#[test]
#[ignore = "manual replay hook; driven by RDMC_LOSS_* env vars"]
fn replay_from_env() {
    let policy = match std::env::var("RDMC_LOSS_POLICY").as_deref() {
        Ok("erasure") => ReliabilityPolicy::erasure(2, 1),
        Ok("wedge-resume") => ReliabilityPolicy::WedgeResume,
        _ => ReliabilityPolicy::SelectiveAck,
    };
    let seed: u64 = std::env::var("RDMC_LOSS_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    let loss_ppm: u32 = std::env::var("RDMC_LOSS_PPM")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let burst = std::env::var("RDMC_LOSS_BURST").is_ok();
    let corrupt = std::env::var("RDMC_LOSS_CORRUPT").is_ok();
    let cluster = seeded_lossy_run(policy, seed, loss_ppm, burst, corrupt);
    eprintln!(
        "policy={} seed={seed} loss={loss_ppm}ppm burst={burst} corrupt={corrupt}\n\
         events_fed={} now_ns={} stats={:?} faults={:?}",
        policy.name(),
        cluster.events_fed(),
        cluster.transport().now().as_nanos(),
        cluster.reliability_stats(),
        fault_counters(&cluster),
    );
    assert_clean(&cluster, "replay");
}
