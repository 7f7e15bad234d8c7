//! Cross-crate integration tests asserting the paper's headline claims
//! hold on this reproduction (shapes and factors, not absolute numbers).

use baselines::run_mvapich_multicast;
use rdmc::{analysis, Algorithm};
use rdmc_repro::*; // re-exports every member crate
use rdmc_sim::{run_single_multicast, ClusterSpec};

const MB: u64 = 1 << 20;

/// §5.2 / Fig. 4: "MVAPICH falls in between, taking from 1.03x to 3x as
/// long as binomial pipeline."
#[test]
fn mvapich_is_between_1x_and_a_few_x_of_the_pipeline() {
    let spec = ClusterSpec::fractus(16);
    for (n, size) in [(4usize, 64 * MB), (8, 64 * MB), (16, 8 * MB)] {
        let pipe = run_single_multicast(&spec, n, Algorithm::BinomialPipeline, size, MB).latency;
        let mpi = run_mvapich_multicast(&spec, n, size, MB).latency;
        let ratio = mpi.as_secs_f64() / pipe.as_secs_f64();
        assert!(
            (1.0..=4.0).contains(&ratio),
            "n={n} size={size}: MVAPICH/pipeline ratio {ratio}"
        );
    }
}

/// §7: "one can have 4 or 8 replicas for nearly the same price as for 1".
#[test]
fn a_few_replicas_cost_nearly_the_same_as_one() {
    let spec = ClusterSpec::fractus(16);
    let one = run_single_multicast(&spec, 2, Algorithm::BinomialPipeline, 128 * MB, MB).latency;
    let eight = run_single_multicast(&spec, 9, Algorithm::BinomialPipeline, 128 * MB, MB).latency;
    let ratio = eight.as_secs_f64() / one.as_secs_f64();
    assert!(
        ratio < 1.6,
        "8 replicas should cost nearly the same as 1, got {ratio}x"
    );
}

/// §5.2: sequential send degrades linearly; the pipeline sub-linearly.
#[test]
fn sequential_is_linear_pipeline_is_flat() {
    let spec = ClusterSpec::fractus(16);
    let seq4 = run_single_multicast(&spec, 4, Algorithm::Sequential, 32 * MB, MB).latency;
    let seq16 = run_single_multicast(&spec, 16, Algorithm::Sequential, 32 * MB, MB).latency;
    let seq_growth = seq16.as_secs_f64() / seq4.as_secs_f64();
    assert!(
        (3.5..=6.5).contains(&seq_growth),
        "sequential 4->16 should grow ~5x (15/3 links), got {seq_growth}"
    );
    let pipe4 = run_single_multicast(&spec, 4, Algorithm::BinomialPipeline, 32 * MB, MB).latency;
    let pipe16 = run_single_multicast(&spec, 16, Algorithm::BinomialPipeline, 32 * MB, MB).latency;
    let pipe_growth = pipe16.as_secs_f64() / pipe4.as_secs_f64();
    assert!(
        pipe_growth < 2.0,
        "pipeline 4->16 should grow far less than 4x, got {pipe_growth}"
    );
}

/// §4.4: completion in `log2(n) + k - 1` steps, every block delivered
/// exactly once — across the full algorithm portfolio.
#[test]
fn schedule_invariants_hold_for_all_algorithms() {
    use rdmc::schedule::GlobalSchedule;
    for alg in [
        Algorithm::Sequential,
        Algorithm::Chain,
        Algorithm::BinomialTree,
        Algorithm::BinomialPipeline,
    ] {
        for n in [2u32, 5, 16, 33] {
            let g = GlobalSchedule::build(&alg, n, 10);
            g.validate().unwrap_or_else(|e| panic!("{alg} n={n}: {e}"));
        }
    }
    let g = GlobalSchedule::build(&Algorithm::BinomialPipeline, 64, 100);
    assert_eq!(g.num_steps(), 6 + 99);
}

/// §4.5: the slack constant — the mechanism behind delay tolerance.
#[test]
fn slack_formula_matches_generated_schedules() {
    for n in [8u32, 32] {
        let g = rdmc::schedule::GlobalSchedule::build(&Algorithm::BinomialPipeline, n, 16);
        for j in analysis::steady_steps(n, 16) {
            let measured = analysis::empirical_avg_slack(&g, j).expect("senders");
            assert!((measured - analysis::predicted_avg_slack(n)).abs() < 1e-9);
        }
    }
}

/// §4.6: SST beats RDMC for small messages in small groups; RDMC wins
/// beyond the crossover.
#[test]
fn sst_crossover_matches_the_paper() {
    let sst_small = sst::small_message_rate(4, 1 << 10, 200, 16);
    let sst_large_group = sst::small_message_rate(32, 100 << 10, 100, 16);

    let rdmc_rate = |n: usize, size: u64, count: usize| {
        let mut cluster = rdmc_sim::ClusterBuilder::new(ClusterSpec::fractus(32)).build();
        let group = cluster.create_group(rdmc_sim::GroupSpec {
            members: (0..n).collect(),
            algorithm: Algorithm::BinomialPipeline,
            block_size: MB,
            ready_window: 3,
            max_outstanding_sends: 3,
        });
        for _ in 0..count {
            cluster.submit_send(group, size);
        }
        cluster.run();
        let end = cluster.last_delivery().expect("deliveries");
        count as f64 / end.as_secs_f64()
    };
    let rdmc_small = rdmc_rate(4, 1 << 10, 200);
    assert!(
        sst_small > 2.5 * rdmc_small,
        "SST should win clearly for 1 KB x 4 members: {sst_small} vs {rdmc_small}"
    );
    let rdmc_large_group = rdmc_rate(32, 100 << 10, 100);
    assert!(
        rdmc_large_group > sst_large_group,
        "RDMC should win for 100 KB x 32 members: {rdmc_large_group} vs {sst_large_group}"
    );
}

/// §2 / Fig. 12: offloading the chain's relay graph onto the NIC gives a
/// small but real edge over software relays.
#[test]
fn core_direct_offload_has_an_edge() {
    let spec = ClusterSpec::fractus(8);
    let off = rdmc_sim::run_offloaded_chain(spec.build(), &[0, 1, 2, 3, 4, 5], 64 * MB, MB);
    let sw = run_single_multicast(&spec, 6, Algorithm::Chain, 64 * MB, MB).latency;
    let speedup = sw.as_secs_f64() / off.as_secs_f64();
    assert!(
        (1.0..1.5).contains(&speedup),
        "offload speedup should be a modest edge, got {speedup}"
    );
}

/// The Cosmos workload's published statistics are reproduced by the
/// synthesiser feeding the Fig. 9 experiment.
#[test]
fn cosmos_synthesis_matches_published_stats() {
    let trace = workloads::CosmosTrace::default();
    let writes = trace.generate(20_000);
    let mut sizes: Vec<f64> = writes.iter().map(|w| w.size as f64).collect();
    sizes.sort_by(f64::total_cmp);
    let median = sizes[sizes.len() / 2];
    assert!((median / 12e6 - 1.0).abs() < 0.15, "median {median}");
    assert_eq!(trace.all_groups().len(), 455);
}
