//! What the repository proves about its own model: the §4.5 robustness
//! analysis, failure recovery, the §4.6 SST comparator, the static and
//! dynamic checkers' coverage, and the flight recorder's stall attribution.

use rdmc::{analysis, Algorithm};
use rdmc_sim::{
    run_single_multicast, run_traced_multicast, ClusterBuilder, ClusterSpec, RecoveryConfig,
    TopoSpec,
};
use simnet::{JitterModel, SimDuration};
use workloads::stats;

use super::{pipeline_group_spec, MB};
use crate::parallel::par_map;
use crate::row;
use crate::table::{bytes_label, render};

/// §4.5 robustness: slack constant, slow-link bound, jitter absorption.
pub fn robustness_analysis(quick: bool) -> String {
    let mut out = String::from("Robustness analysis (paper section 4.5)\n\n");
    // Slack: predicted vs measured on real schedules.
    let mut rows = Vec::new();
    for n in [4u32, 8, 16, 32, 64] {
        let g = rdmc::schedule::GlobalSchedule::build(&Algorithm::BinomialPipeline, n, 24);
        let measured: Vec<f64> = analysis::steady_steps(n, 24)
            .filter_map(|j| analysis::empirical_avg_slack(&g, j))
            .collect();
        rows.push(row![
            n,
            format!("{:.4}", analysis::predicted_avg_slack(n)),
            format!("{:.4}", stats::mean(&measured))
        ]);
    }
    out.push_str("Average steady-state slack: 2(1-(l-1)/(n-2))\n");
    out.push_str(&render(&row!["n", "predicted", "measured"], &rows));
    // Slow link: formula vs simulation.
    let msg = if quick { 32 * MB } else { 128 * MB };
    let fracs = [0.25f64, 0.5, 0.75];
    let rows = par_map(&fracs, |&slow_frac| {
        let mk = |gbps: Vec<f64>| ClusterSpec {
            topology: TopoSpec::FlatPerNode {
                gbps,
                latency: SimDuration::from_micros(2),
            },
            ..ClusterSpec::fractus(0)
        };
        let base =
            run_single_multicast(&mk(vec![100.0; 8]), 8, Algorithm::BinomialPipeline, msg, MB);
        let mut slowed = vec![100.0; 8];
        slowed[5] = 100.0 * slow_frac;
        let slow = run_single_multicast(&mk(slowed), 8, Algorithm::BinomialPipeline, msg, MB);
        let measured = slow.bandwidth_gbps / base.bandwidth_gbps;
        let bound = analysis::slow_link_bandwidth_fraction(3, 1.0, slow_frac);
        row![
            format!("{:.0}%", slow_frac * 100.0),
            format!("{bound:.3}"),
            format!("{measured:.3}")
        ]
    });
    out.push_str("\nOne slow NIC (n=8, l=3): retained bandwidth fraction\n");
    out.push_str(&render(
        &row!["slow link speed", "bound l*T'/(T+(l-1)T')", "measured"],
        &rows,
    ));
    out.push_str(&format!(
        "\npaper's worked example: T'=T/2, n=64 -> bound {:.1}%\n",
        100.0 * analysis::slow_link_bandwidth_fraction(6, 1.0, 0.5)
    ));
    // Jitter absorption.
    let spec = ClusterSpec::fractus(8);
    let clean = run_single_multicast(&spec, 8, Algorithm::BinomialPipeline, msg, MB);
    let mut builder = ClusterBuilder::new(spec.clone());
    for node in 0..8 {
        builder = builder.jitter(
            node,
            JitterModel::new(
                node as u64 + 77,
                0.02,
                SimDuration::from_micros(50),
                SimDuration::from_micros(150),
            ),
        );
    }
    let mut cluster = builder.build();
    let group = cluster.create_group(pipeline_group_spec(
        (0..8).collect(),
        MB,
        Algorithm::BinomialPipeline,
    ));
    cluster.submit_send(group, msg);
    cluster.run();
    let jittered = cluster.message_results()[0].latency().expect("completed");
    out.push_str(&format!(
        "\nScheduling jitter (2% of actions delayed 50-150us on every node): slowdown {:.2}x\n\n",
        jittered.as_secs_f64() / clean.latency.as_secs_f64()
    ));
    out
}

/// Epoch-based failure recovery: detection latency, reconfiguration
/// time, and resumed-transfer completion against the failure-free
/// baseline. A mid-group member crashes at one third of the failure-free
/// protocol steps; the membership layer reconfigures the wedged group
/// and the resume planner retransmits only the missing blocks.
pub fn recovery_failover(quick: bool) -> String {
    let msg = if quick { 16 * MB } else { 64 * MB };
    let groups: Vec<usize> = if quick { vec![4, 8] } else { vec![4, 8, 16] };
    let mut out = String::from(
        "Epoch-based failure recovery (the paper's §2.4 membership assumption made concrete)\n\n",
    );
    let rows = par_map(&groups, |&n| {
        let spec = ClusterSpec::fractus(n);
        let run = |crash: Option<(usize, u64)>| {
            let mut cluster = ClusterBuilder::new(spec.clone())
                .recovery(RecoveryConfig::default())
                .build();
            let group = cluster.create_group(pipeline_group_spec(
                (0..n).collect(),
                MB,
                Algorithm::BinomialPipeline,
            ));
            if let Some((victim, step)) = crash {
                cluster.crash_after_events(victim, step);
            }
            cluster.submit_send(group, msg);
            cluster.run();
            cluster
        };
        let baseline = run(None);
        let base_lat = baseline.message_results()[0]
            .latency()
            .expect("failure-free run completes");
        let steps = baseline.events_fed();
        let victim = n / 2;
        let cluster = run(Some((victim, steps / 3)));
        let stats = cluster.recovery_stats();
        let det = &stats.detections[0];
        let rc = &stats.reconfigurations[0];
        let detect = det
            .suspected_at
            .since(cluster.crash_time(victim).expect("victim crashed"));
        let reconf = rc.installed_at.since(rc.first_suspected_at);
        let msg0 = &cluster.message_results()[0];
        // The victim's eviction leaves the record unfinished.
        let at = msg0.unfinished_stamps().expect("the victim never delivers");
        let completed = cluster
            .surviving_ranks(0)
            .iter()
            .filter_map(|&o| at[o as usize])
            .max()
            .expect("survivors completed the resumed transfer");
        let total = completed.since(msg0.submitted);
        let k = msg.div_ceil(MB) as usize;
        row![
            n,
            format!("{:.2}", detect.as_secs_f64() * 1e3),
            format!("{:.2}", reconf.as_secs_f64() * 1e3),
            format!("{}/{}", rc.resumed_blocks, k * (n - 2)),
            format!("{:.1}", base_lat.as_secs_f64() * 1e3),
            format!("{:.1}", total.as_secs_f64() * 1e3),
            format!("{:.2}x", total.as_secs_f64() / base_lat.as_secs_f64())
        ]
    });
    out.push_str(&render(
        &row![
            "n",
            "detect (ms)",
            "reconfig (ms)",
            "resent/full blocks",
            "no-fault (ms)",
            "crash+resume (ms)",
            "slowdown"
        ],
        &rows,
    ));
    out.push_str(
        "\ncrash lands at 1/3 of the failure-free protocol steps; detect = crash to first\n\
         suspicion; reconfig = first suspicion to new-epoch install; \"resent\" counts the\n\
         resume schedule's transfers against a full re-multicast to every non-root survivor\n",
    );
    out
}

/// §4.6: the SST small-message protocol vs RDMC across message and group
/// sizes — reproducing the ~5x small-message advantage and the crossover.
pub fn sst_small_messages(quick: bool) -> String {
    let sizes: &[u64] = if quick {
        &[1 << 10, 100 << 10]
    } else {
        &[100, 1 << 10, 10 << 10, 100 << 10]
    };
    let groups: Vec<usize> = if quick {
        vec![4, 16]
    } else {
        vec![4, 8, 16, 32]
    };
    let count = if quick { 150 } else { 300 };
    let mut cases = Vec::new();
    for &size in sizes {
        for &n in &groups {
            cases.push((size, n));
        }
    }
    let rows = par_map(&cases, |&(size, n)| {
        let sst_rate = sst::small_message_rate(n, size, count, 16);
        // RDMC: the same stream through the binomial pipeline.
        let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(32)).build();
        let group = cluster.create_group(pipeline_group_spec(
            (0..n).collect(),
            MB,
            Algorithm::BinomialPipeline,
        ));
        for _ in 0..count {
            cluster.submit_send(group, size);
        }
        cluster.run();
        let end = cluster.last_delivery().expect("deliveries");
        let rdmc_rate = count as f64 / end.as_secs_f64();
        row![
            bytes_label(size),
            n,
            format!("{sst_rate:.0}"),
            format!("{rdmc_rate:.0}"),
            format!("{:.2}x", sst_rate / rdmc_rate)
        ]
    });
    format!(
        "Derecho SST small-message protocol vs RDMC (messages/second)\n{}\n",
        render(
            &row!["msg", "group", "SST msg/s", "RDMC msg/s", "SST/RDMC"],
            &rows
        )
    )
}

/// Static-analysis sweep: runs the `analyzer` crate's full grid
/// (schedule model checker, posting-order deadlock lint, and the
/// explorer's corner on the simulated fabric and the in-memory TCP
/// datapath) and reports what was proven. Not a paper figure — it
/// records the coverage of the repository's own verification layer next
/// to the simulation numbers it guards.
pub fn analyzer_sweep(quick: bool) -> String {
    let config = if quick {
        analyzer::SweepConfig::quick()
    } else {
        analyzer::SweepConfig::default()
    };
    let report = analyzer::sweep(&config);
    let rows = vec![row![
        format!("grid n<={} (quick={quick})", config.max_n),
        report.schedules_checked,
        report.lints_run,
        report.explore_runs,
        report.explore_executions,
        if report.is_clean() {
            "clean"
        } else {
            "VIOLATIONS"
        }
    ]];
    format!(
        "Static-analysis sweep (schedule model checker + deadlock lint + explorer corner)\n{}\n",
        render(
            &row![
                "sweep",
                "schedules",
                "lints",
                "explorations",
                "executions",
                "verdict"
            ],
            &rows
        )
    )
}

/// Execution-explorer coverage: enumerates the CI-tier interleaving
/// corner (exhaustive and DPOR) plus a seeded random walk, and reports
/// executions, resolved choice points and the deepest execution — the
/// reach of the dynamic verification layer, recorded next to the static
/// sweep it complements.
pub fn explore_coverage(quick: bool) -> String {
    use analyzer::{explore_executions, ExploreConfig, ExploreScenario};

    let mut rows = Vec::new();
    let mut cases: Vec<(&str, ExploreConfig)> = Vec::new();
    let mut atomic2 = ExploreScenario::atomic(Algorithm::BinomialPipeline, 2, 1);
    atomic2.messages = 1;
    cases.push(("dpor n=2 k=1 atomic", ExploreConfig::dpor(atomic2)));
    let plain4 = ExploreScenario::small(Algorithm::BinomialPipeline, 4, 2);
    cases.push((
        "exhaustive n=4 k=2",
        ExploreConfig::exhaustive(plain4.clone()),
    ));
    cases.push(("dpor n=4 k=2", ExploreConfig::dpor(plain4.clone())));
    if !quick {
        let plain5 = ExploreScenario::small(Algorithm::BinomialPipeline, 5, 2);
        cases.push(("dpor n=5 k=2", ExploreConfig::dpor(plain5)));
        cases.push((
            "random n=4 k=2 x500",
            ExploreConfig::random(plain4, 0xbe11, 500),
        ));
    }

    for (name, config) in cases {
        let report = explore_executions(&config);
        rows.push(row![
            name,
            report.executions,
            report.points_resolved,
            report.max_depth,
            if report.is_clean() && !report.truncated {
                "clean"
            } else {
                "VIOLATIONS"
            }
        ]);
    }
    format!(
        "Execution explorer (stateless model checking of interleavings)\n{}\n",
        render(
            &row!["scenario", "executions", "points", "depth", "verdict"],
            &rows
        )
    )
}

/// Observability: stall attribution over the Fig. 4 binomial-pipeline
/// sweep. For every configuration the five attribution classes —
/// ideal transfer, link-limited, sender-limited, receiver-limited, and
/// schedule idle — must sum to the end-to-end latency within 1% (they
/// sum exactly by construction; the check guards the instrumentation).
pub fn trace_observability(quick: bool) -> String {
    let sizes: &[u64] = if quick {
        &[8 * MB]
    } else {
        &[256 * MB, 8 * MB]
    };
    let groups: Vec<usize> = if quick {
        vec![4, 8, 16]
    } else {
        (2..=16).collect()
    };
    let spec = ClusterSpec::fractus(16);
    let mut out = String::new();
    for &size in sizes {
        let rows = par_map(&groups, |&n| {
            let (outcome, events, wire) =
                run_traced_multicast(&spec, n, Algorithm::BinomialPipeline, size, MB);
            let b = trace::stall::attribute(&events, 0, &wire)
                .expect("traced run has a complete group 0 recording");
            let e2e = b.end_to_end_ns;
            assert_eq!(
                e2e,
                (outcome.latency.as_secs_f64() * 1e9).round() as u64,
                "trace-derived end-to-end disagrees with the engine (n={n})"
            );
            let gap = b.attributed_ns().abs_diff(e2e);
            assert!(
                gap as f64 <= 0.01 * e2e as f64,
                "attribution gap {gap}ns exceeds 1% of {e2e}ns (n={n})"
            );
            let pct = |x: u64| format!("{:.1}%", 100.0 * x as f64 / e2e as f64);
            row![
                n,
                format!("{:.2}", e2e as f64 / 1e6),
                pct(b.transfer_ns),
                pct(b.link_limited_ns),
                pct(b.sender_limited_ns),
                pct(b.receiver_limited_ns),
                pct(b.schedule_idle_ns),
                events.len()
            ]
        });
        out.push_str(&format!(
            "Stall attribution ({}): binomial pipeline, Fractus-like 100 Gb/s, 1 MB blocks\n\
             (classes sum to end-to-end within 1% — asserted per row)\n",
            bytes_label(size)
        ));
        out.push_str(&render(
            &row![
                "group",
                "e2e (ms)",
                "transfer",
                "link",
                "sender",
                "receiver",
                "sched-idle",
                "events"
            ],
            &rows,
        ));
        out.push('\n');
    }

    // Per-rank timeline of one representative configuration: when each
    // rank saw its first block, when it delivered, and how many blocks
    // it moved — the flight recorder's answer to "who was the straggler".
    let (_, events, _) = run_traced_multicast(&spec, 8, Algorithm::BinomialPipeline, 8 * MB, MB);
    let rows: Vec<Vec<String>> = trace::stall::timelines(&events, 0)
        .iter()
        .map(|t| {
            let ms = |x: Option<u64>| {
                x.map_or_else(|| "-".to_owned(), |v| format!("{:.2}", v as f64 / 1e6))
            };
            row![
                t.rank,
                ms(t.first_block_ns),
                ms(t.delivered_ns),
                t.blocks_received,
                t.blocks_sent
            ]
        })
        .collect();
    out.push_str("Per-rank timeline (8 MB, group of 8, binomial pipeline)\n");
    out.push_str(&render(
        &row![
            "rank",
            "first blk (ms)",
            "delivered (ms)",
            "rx blks",
            "tx blks"
        ],
        &rows,
    ));
    out
}

/// Writes the Chrome `trace_event` export of one traced multicast to
/// `path` (open it in `chrome://tracing` or Perfetto).
pub fn write_sample_chrome_trace(path: &str) -> std::io::Result<()> {
    let spec = ClusterSpec::fractus(8);
    let (_, events, _) = run_traced_multicast(&spec, 8, Algorithm::BinomialPipeline, 8 * MB, MB);
    std::fs::write(path, trace::export::to_chrome_trace(&events))
}
