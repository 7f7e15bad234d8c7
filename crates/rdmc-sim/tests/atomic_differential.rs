//! Differential testing of the atomic multicast overlay: the
//! multi-sender total order must equal what a *pinned single sender*
//! would produce — the rotation, null elision, and frontier machinery
//! may change *when* slots become deliverable but never *what* order
//! they come out in. A pure-Rust rotation model predicts every log
//! entry; the overlay, swept across all four dissemination algorithms
//! and with and without seeded fabric loss (geo profile, erasure
//! protection), must match it exactly — including the pinned-sender
//! case, which is the paper's §4.6 single-sender atomic delivery.

use proptest::prelude::*;
use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec, ReliabilityPolicy, SimCluster};
use simnet::{FaultProfile, LinkFault};

const KB: u64 = 1 << 10;

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::Sequential),
        Just(Algorithm::Chain),
        Just(Algorithm::BinomialTree),
        Just(Algorithm::BinomialPipeline),
    ]
}

/// The oracle: replay the submission plan through a trivial sequential
/// model of the rotation — no concurrency, no frontiers, no fabric —
/// and emit the `(slot, sender, seq, size)` tuples a correct overlay
/// must deliver, in order. `seq` is dense per owner across nulls *and*
/// data, exactly like the overlay's slot ledger.
fn model_log(n: usize, plan: &[(usize, u64)]) -> Vec<(u64, u32, u64, u64)> {
    let mut cursor = 0usize;
    let mut owned = vec![0u64; n];
    let mut slot = 0u64;
    let mut log = Vec::new();
    for &(origin, size) in plan {
        while cursor != origin {
            owned[cursor] += 1; // null slot
            cursor = (cursor + 1) % n;
            slot += 1;
        }
        log.push((slot, origin as u32, owned[origin], size));
        owned[origin] += 1;
        cursor = (cursor + 1) % n;
        slot += 1;
    }
    log
}

/// One differential run: an `n`-member atomic group on the given
/// algorithm, optionally on a lossy geo fabric under erasure
/// protection, fed the submission plan through `submit_atomic_from`.
fn differential_run(
    n: usize,
    algorithm: Algorithm,
    plan: &[(usize, u64)],
    loss: Option<(u64, u32)>,
) -> SimCluster {
    let spec = GroupSpec {
        members: (0..n).collect(),
        algorithm,
        block_size: 64 * KB,
        ready_window: 2,
        max_outstanding_sends: 2,
    };
    let mut builder = if loss.is_some() {
        // The WAN shape from the paper's geo scenario: long fat pipes,
        // seeded per-link loss, erasure-coded repair.
        ClusterBuilder::new(ClusterSpec::geo(n)).reliability(ReliabilityPolicy::erasure(2, 1))
    } else {
        ClusterBuilder::new(ClusterSpec::fractus(n))
    };
    if let Some((seed, ppm)) = loss {
        let mut profile = FaultProfile::new(seed);
        profile.set_default(LinkFault::lossy(f64::from(ppm) / 1e6));
        builder = builder.fault_profile(profile);
    }
    let mut cluster = builder.flight_recorder().atomic(spec).build();
    for &(origin, size) in plan {
        cluster.submit_atomic_from(0, origin, size);
    }
    cluster.run();
    cluster
}

fn assert_matches_model(cluster: &SimCluster, n: usize, plan: &[(usize, u64)], ctx: &str) {
    let expected = model_log(n, plan);
    for m in 0..n {
        let log: Vec<_> = cluster
            .atomic_log(0, m)
            .iter()
            .map(|d| (d.slot, d.sender, d.seq, d.size))
            .collect();
        assert_eq!(log, expected, "{ctx}: member {m} diverged from the model");
    }
    let oracle = cluster.check_trace();
    if let Err(violations) = &oracle {
        panic!("{ctx}: trace oracle found violations: {violations:#?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Random multi-sender submission plans, all four algorithms, with
    /// and without seeded loss: every member's log equals the
    /// sequential rotation model, bit-for-bit reproducibly.
    #[test]
    fn multi_sender_log_matches_the_pinned_model(
        n in prop::sample::select(vec![3usize, 4, 6]),
        algorithm in arb_algorithm(),
        origins in prop::collection::vec(any::<prop::sample::Index>(), 2..8),
        size_sel in prop::sample::select(vec![64u64, 96, 160]),
        lossy in any::<bool>(),
        loss_seed in any::<u64>(),
        loss_ppm in prop::sample::select(vec![1_000u32, 5_000]),
    ) {
        let loss = lossy.then_some((loss_seed, loss_ppm));
        let plan: Vec<(usize, u64)> = origins
            .iter()
            .enumerate()
            .map(|(i, o)| (o.index(n), (size_sel + 32 * (i as u64 % 3)) * KB))
            .collect();
        let ctx = format!("n={n} {algorithm:?} loss={loss:?} plan={plan:?}");
        let cluster = differential_run(n, algorithm.clone(), &plan, loss);
        prop_assert!(
            cluster.recovery_stats().reconfigurations.is_empty(),
            "{ctx}: loss escalated into an eviction"
        );
        assert_matches_model(&cluster, n, &plan, &ctx);
        let rerun = differential_run(n, algorithm, &plan, loss);
        prop_assert_eq!(cluster.state_digest(), rerun.state_digest(), "{}: rerun diverged", ctx);
    }
}

/// Pinning every submission to one sender reduces the overlay to the
/// paper's §4.6 single-sender atomic delivery: every member logs every
/// message, in submission order, with all other owners' slots elided as
/// nulls.
#[test]
fn pinned_sender_matches_the_rotation_model() {
    let n = 4;
    let sizes = [128 * KB, 192 * KB, 64 * KB, 256 * KB, 128 * KB];
    let plan: Vec<(usize, u64)> = sizes.iter().map(|&s| (0usize, s)).collect();
    let overlay = differential_run(n, Algorithm::BinomialPipeline, &plan, None);
    assert_matches_model(&overlay, n, &plan, "pinned");
    for m in 0..n {
        let log = overlay.atomic_log(0, m);
        assert_eq!(log.len(), sizes.len(), "member {m}: delivery count");
        assert!(log.windows(2).all(|w| w[0].slot < w[1].slot));
        for (d, &s) in log.iter().zip(&sizes) {
            assert_eq!(d.size, s, "member {m}: sizes out of submission order");
        }
    }
}
