//! End-to-end tests of the execution explorer: exhaustive enumeration
//! stays green and tractable on the CI-tier scenarios, DPOR agrees with
//! exhaustive while running far fewer executions, and seeded ordering
//! bugs are caught with minimal, bit-for-bit-replaying counterexamples.

use analyzer::{explore_executions, replay, Backend, ExploreConfig, ExploreScenario, SeededBug};
use rdmc::Algorithm;
use rdmc_sim::ReliabilityPolicy;

const BINOMIAL: Algorithm = Algorithm::BinomialPipeline;

#[test]
fn exhaustive_small_binomial_is_clean() {
    // Plain RDMC groups; the atomic-delivery ordering invariants are
    // explored by `atomic_exploration_upholds_delivery_log_agreement`.
    for (n, k) in [(3, 1), (3, 2), (4, 1), (4, 2)] {
        let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, n, k);
        let report = explore_executions(&ExploreConfig::exhaustive(scenario));
        assert!(report.is_clean(), "n={n} k={k}: {report}");
        assert!(
            !report.truncated,
            "n={n} k={k} hit the execution cap: {report}"
        );
        assert!(
            report.executions > 1,
            "n={n} k={k}: no interleavings explored"
        );
        assert_eq!(
            report.crash_free_digests.len(),
            1,
            "n={n} k={k}: crash-free interleavings must converge: {report}"
        );
    }
}

#[test]
fn exhaustive_covers_all_algorithms() {
    for algorithm in [
        Algorithm::Chain,
        Algorithm::Sequential,
        Algorithm::BinomialTree,
    ] {
        let scenario = ExploreScenario::small(algorithm.clone(), 3, 1);
        let report = explore_executions(&ExploreConfig::exhaustive(scenario));
        assert!(report.is_clean(), "{algorithm:?}: {report}");
        assert!(!report.truncated, "{algorithm:?}: {report}");
    }
}

#[test]
fn dpor_matches_exhaustive_with_fewer_executions() {
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 4, 2);
    let full = explore_executions(&ExploreConfig::exhaustive(scenario.clone()));
    let dpor = explore_executions(&ExploreConfig::dpor(scenario));
    assert!(full.is_clean(), "exhaustive: {full}");
    assert!(dpor.is_clean(), "dpor: {dpor}");
    assert!(!full.truncated && !dpor.truncated);
    // Identical verdicts: same convergent terminal state.
    assert_eq!(full.crash_free_digests, dpor.crash_free_digests);
    // The reduction prunes a meaningful share even at this tiny size
    // (the 10x criterion is checked at n=5 in the heavy test below).
    assert!(
        dpor.executions * 2 <= full.executions,
        "DPOR explored {} of {} executions — no meaningful reduction",
        dpor.executions,
        full.executions
    );
}

#[test]
#[ignore = "heavy (~10s release, minutes debug): the CI explore job runs it with --release --include-ignored"]
fn dpor_reduces_tenfold_at_n5() {
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 5, 2);
    let mut full_cfg = ExploreConfig::exhaustive(scenario.clone());
    full_cfg.max_executions = 100_000; // the space is ~47k executions
    let full = explore_executions(&full_cfg);
    let dpor = explore_executions(&ExploreConfig::dpor(scenario));
    assert!(full.is_clean(), "exhaustive: {full}");
    assert!(dpor.is_clean(), "dpor: {dpor}");
    assert!(!full.truncated && !dpor.truncated);
    assert_eq!(full.crash_free_digests, dpor.crash_free_digests);
    // Measured: 46_656 naive executions vs 576 under DPOR (81x).
    assert!(
        dpor.executions * 10 <= full.executions,
        "DPOR explored {} of {} executions — less than a 10x reduction",
        dpor.executions,
        full.executions
    );
}

#[test]
fn random_walk_is_clean_and_bounded() {
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 4, 2);
    let report = explore_executions(&ExploreConfig::random(scenario, 0xfeed_beef, 50));
    assert!(report.is_clean(), "{report}");
    assert_eq!(report.executions, 50);
    assert_eq!(report.crash_free_digests.len(), 1);
}

#[test]
fn crash_exploration_survives_fault_choices() {
    // Offer crash sites for two non-root members at a couple of protocol
    // steps; every branch (including "no fault") must stay clean.
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 4, 2).with_faults(vec![
        (10, 1),
        (10, 3),
        (25, 2),
    ]);
    let report = explore_executions(&ExploreConfig::random(scenario, 0x5eed, 40));
    assert!(report.is_clean(), "{report}");
    assert!(!report.crashed_digests.is_empty(), "no fault branch taken");
    assert_eq!(report.crash_free_digests.len(), 1, "{report}");
}

#[test]
fn unsorted_teardown_mutation_is_caught_by_replay_audit() {
    // The mutation applies an epoch's queue-pair breaks in std HashSet
    // order, so two replays of one choice sequence tear it down
    // differently — exactly the bug class the determinism audit exists
    // for. It needs a reconfiguration to trigger, hence the fault site.
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 4, 2)
        .with_faults(vec![(10, 1)])
        .with_bug(SeededBug::UnsortedQpTeardown);
    // Two replays agree by chance whenever the process-random hasher
    // happens to order the few queue pairs alike, so one 30-walk catches
    // it about three times in ten (59 of 200 measured); forty
    // independent walks miss ~1e-6.
    let report = (7..47)
        .map(|seed| {
            explore_executions(&ExploreConfig {
                replay_every: 1, // audit every execution
                ..ExploreConfig::random(scenario.clone(), seed, 30)
            })
        })
        .find(|report| report.counterexample.is_some())
        .expect("mutation must be caught");
    let cex = report.counterexample.as_ref().expect("just checked");
    assert!(
        cex.violations
            .iter()
            .any(|v| v.contains("replay divergence")),
        "expected a replay-divergence violation: {report}"
    );
}

#[test]
fn lazy_recv_post_mutation_is_caught() {
    // The mutation inverts §4.2: the readiness grant is written before
    // the receive is posted, and the post is deferred to the node's next
    // event dispatch. Some interleavings let the granted send race ahead
    // of the posting — an RNR arm or a protocol panic on `Fabric`; on
    // `MemNet` (TCP), a block that reaches its reader first is held and
    // counted as an RNR arm.
    let fabric = ExploreConfig::exhaustive(ExploreScenario::small(BINOMIAL, 4, 2));
    let memnet = ExploreConfig::dpor(ExploreScenario::small(BINOMIAL, 3, 2).on(Backend::MemNet));
    for mut config in [fabric, memnet] {
        config.scenario = config.scenario.with_bug(SeededBug::LazyRecvPost);
        let (scenario, report) = (&config.scenario, explore_executions(&config));
        let cex = (report.counterexample.as_ref()).expect("mutation must be caught");
        if scenario.backend == Backend::MemNet {
            assert!(
                cex.violations.iter().any(|v| v.starts_with("rnr:")),
                "{report}"
            );
        }

        // The counterexample replays bit-for-bit: same violations, same
        // digest, twice over.
        for _ in 0..2 {
            let again = replay(scenario, &cex.choices);
            assert_eq!(again.violations, cex.violations);
            assert_eq!(again.digest, cex.digest);
            assert_eq!(again.trace_jsonl, cex.trace_jsonl);
        }

        // And it is minimal: zeroing any remaining non-default choice
        // loses the violation set's reproduction.
        for i in (0..cex.choices.len()).filter(|&i| cex.choices[i] != 0) {
            let mut probe = cex.choices.clone();
            probe[i] = 0;
            let e = replay(scenario, &probe);
            assert_ne!(e.violations, cex.violations, "choice {i} is redundant");
        }
    }
}

#[test]
fn loss_exploration_is_clean_and_converges() {
    // The first wire sites are choice points: a transfer delivered or
    // dropped on `Fabric` (selective-ack repairs every drop), a gathered
    // write whole, cut or stalled on `MemNet` (one block per member there:
    // at two, one site alone gives 20,070 executions). Every crash-free
    // branch must reach the same terminal state, with no hangs and a
    // clean trace oracle, and the sites must branch the space.
    for (backend, k) in [(Backend::Fabric, 2), (Backend::MemNet, 1)] {
        let base = ExploreScenario::small(BINOMIAL, 3, k).on(backend);
        let lossy = base.clone().with_loss(3, ReliabilityPolicy::SelectiveAck);
        let plain = explore_executions(&ExploreConfig::dpor(base));
        let report = explore_executions(&ExploreConfig::dpor(lossy));
        assert!(
            report.is_clean() && !report.truncated,
            "{backend:?}: {report}"
        );
        assert_eq!(report.crash_free_digests.len(), 1, "{backend:?}: {report}");
        assert!(report.executions > plain.executions, "{backend:?}: {plain}");
    }
}

#[test]
fn nack_off_by_one_mutation_is_caught_via_loss_exploration() {
    // The mutation shifts every NACK range one block forward, so the
    // retransmission never covers the dropped block: the retry budget
    // drains, the receiver escalates, and a healthy sender is evicted.
    // Depending on which transfer the explorer drops, that surfaces as
    // a crash-free run missing deliveries (the evicted sender's blocks
    // are unrecoverable) or as a terminal-state divergence (recovery
    // resumed, but the membership no longer matches the clean runs).
    // Only a drop branch exposes either; the loss choice points let the
    // explorer find one.
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 3, 2)
        .with_loss(2, ReliabilityPolicy::SelectiveAck)
        .with_bug(SeededBug::NackOffByOne);
    let report = explore_executions(&ExploreConfig::dpor(scenario.clone()));
    let cex = report
        .counterexample
        .as_ref()
        .expect("NackOffByOne must be caught");
    // The counterexample takes at least one drop branch …
    assert!(
        cex.choices.iter().any(|&c| c != 0),
        "counterexample has no non-default choice: {report}"
    );
    assert!(
        cex.violations
            .iter()
            .any(|v| v.contains("missing deliveries") || v.contains("diverged")),
        "unexpected violation kind: {report}"
    );
    // … and is genuinely behaviourally distinct from the clean default
    // interleaving: replaying it either violates outright or lands in a
    // different terminal state.
    let clean = replay(&scenario, &[]);
    assert!(clean.violations.is_empty(), "{:?}", clean.violations);
    let e = replay(&scenario, &cex.choices);
    assert!(
        !e.violations.is_empty() || e.digest != clean.digest,
        "counterexample indistinguishable from the clean run"
    );
}

#[test]
fn atomic_exploration_upholds_delivery_log_agreement() {
    // The multi-sender scenario: one full rotation of single-block
    // messages. DPOR must exhaust the 2-member reduced space cleanly —
    // every interleaving of RDMC deliveries and frontier epidemics
    // yields the identical total order at every member, and all
    // crash-free executions converge on one digest.
    let mut scenario = ExploreScenario::atomic(Algorithm::BinomialPipeline, 2, 1);
    scenario.messages = 1;
    let report = explore_executions(&ExploreConfig::dpor(scenario));
    assert!(report.is_clean(), "{report}");
    assert!(!report.truncated, "{report}");
    assert!(report.executions > 1, "space did not branch: {report}");
    assert_eq!(report.crash_free_digests.len(), 1, "{report}");

    // The 3-member space is too wide to exhaust; a seeded random walk
    // checks the same agreement invariant across 40 deep interleavings.
    let wide = ExploreScenario::atomic(Algorithm::BinomialPipeline, 3, 1);
    let walk = explore_executions(&ExploreConfig::random(wide, 0xa70_31c, 40));
    assert!(walk.is_clean(), "{walk}");
    assert_eq!(walk.crash_free_digests.len(), 1, "{walk}");
}

#[test]
fn default_interleaving_replays_the_uncontrolled_run() {
    // An all-defaults script must be clean and produce the canonical
    // digest for the scenario.
    let scenario = ExploreScenario::small(Algorithm::BinomialPipeline, 4, 2);
    let e = replay(&scenario, &[]);
    assert!(e.violations.is_empty(), "{:?}", e.violations);
    assert!(!e.points.is_empty(), "no choice points encountered");
    assert!(e.points.iter().all(|p| p.chosen == 0));
}

#[test]
fn strategies_agree_on_the_terminal_digest() {
    let scenario = ExploreScenario::small(Algorithm::Chain, 4, 1);
    let full = explore_executions(&ExploreConfig::exhaustive(scenario.clone()));
    let dpor = explore_executions(&ExploreConfig::dpor(scenario.clone()));
    let walk = explore_executions(&ExploreConfig::random(scenario, 3, 20));
    assert!(full.is_clean() && dpor.is_clean() && walk.is_clean());
    assert_eq!(full.crash_free_digests, dpor.crash_free_digests);
    assert_eq!(full.crash_free_digests, walk.crash_free_digests);
}
