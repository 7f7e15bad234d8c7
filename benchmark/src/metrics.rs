//! Metric names, units and directions (the same table `BENCHMARK.json`
//! declares; a unit test holds the two together), and the arithmetic
//! from repetitions to values.
//!
//! End-to-end timings are lower quartiles **per position**: every
//! repetition does the same work in the same order, so the time of
//! each position (see `workloads.rs`) and the latency of each operation
//! index is taken as the lower quartile over the repetitions, and rates
//! and percentiles are computed from that composite repetition.
//! Per-layer values are medians of whole traced repetitions.
//!
//! Every metric is reported on every workload. A layer a workload does
//! not run reports 0 (`simnet.*` on TCP, `rdmc-tcp.*` on the simulated
//! fabric, `roofline.*` outside `tcp_large`, `model_*` on TCP).

use std::collections::BTreeMap;

use workloads::stats::percentile;

use crate::proc::ProcSample;
use crate::workloads::{Kind, Rep};

pub struct Def {
    pub name: String,
    pub unit: &'static str,
    /// `better` and `bound` restate `BENCHMARK.json`, which the driver
    /// reads; here only the test holding the two together reads them.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is a regression.
    #[cfg_attr(not(test), allow(dead_code))]
    pub bound: Option<f64>,
}

fn def(name: impl Into<String>, unit: &'static str, better: &'static str) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: all host clock, all measured untraced. The
/// timing bounds are the contract's maximum: this host's speed swings
/// by up to 2x for a minute at a time, and what compensation leaves of
/// that is 3-7 % between runs (see README, "How a timing is taken").
pub fn end_to_end_defs() -> Vec<Def> {
    [
        ("setup_s", "s", "lower", 0.25),
        ("ops_per_s", "1/s", "higher", 0.25),
        ("goodput_gbps", "Gb/s", "higher", 0.25),
        ("latency_p50_ms", "ms", "lower", 0.25),
        ("latency_p95_ms", "ms", "lower", 0.25),
        ("peak_rss_mb", "MB", "lower", 0.15),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| Def {
        bound: Some(bound),
        ..def(name, unit, better)
    })
    .collect()
}

/// The suffixes both transports report under their crate's name.
const TRANSPORT: [(&str, &str); 11] = [
    ("advance_s", "s"),
    ("advance_calls", "count"),
    ("advance_ns_per_call", "ns"),
    ("deliveries", "count"),
    ("ns_per_delivery", "ns"),
    ("post_s", "s"),
    ("post_calls", "count"),
    ("connect_s", "s"),
    ("connects", "count"),
    ("rnr_arms", "count"),
    ("share", "ratio"),
];

pub fn per_layer_defs() -> Vec<Def> {
    let mut defs = Vec::new();
    for layer in ["rdmc-tcp", "verbs"] {
        for (suffix, unit) in TRANSPORT {
            defs.push(def(format!("{layer}.{suffix}"), unit, "lower"));
        }
    }
    defs.extend(
        [
            ("rdmc-tcp.rx_gbps", "Gb/s", "higher"),
            ("rdmc-tcp.roofline_frac", "ratio", "higher"),
            ("roofline.loopback_gbps_c1", "Gb/s", "higher"),
            ("roofline.loopback_gbps_c8", "Gb/s", "higher"),
            ("verbs.events", "count", "lower"),
            ("verbs.events_per_s", "1/s", "higher"),
            ("verbs.kicks", "count", "lower"),
            ("verbs.self_s", "s", "lower"),
            ("verbs.ns_per_event", "ns", "lower"),
            ("simnet.realloc_s", "s", "lower"),
            ("simnet.share", "ratio", "lower"),
            ("simnet.realloc_count", "count", "lower"),
            ("simnet.full_reallocs", "count", "lower"),
            ("simnet.us_per_realloc", "us", "lower"),
            ("simnet.flows_visited", "count", "lower"),
            ("simnet.flows_visited_per_realloc", "count", "lower"),
            ("simnet.link_visits", "count", "lower"),
            ("simnet.heap_pushes", "count", "lower"),
            ("simnet.rate_changes", "count", "lower"),
            ("simnet.coalesced", "count", "higher"),
            ("simnet.heap_compactions", "count", "lower"),
            ("core.events", "count", "lower"),
            ("core.events_per_op", "count", "lower"),
            ("core.replay_s", "s", "lower"),
            ("core.ns_per_event", "ns", "lower"),
            ("core.share", "ratio", "lower"),
            ("core.plan_s", "s", "lower"),
            ("rdmc-sim.self_s", "s", "lower"),
            ("rdmc-sim.share", "ratio", "lower"),
            ("rdmc-sim.self_us_per_op", "us", "lower"),
            ("rdmc-sim.submit_s", "s", "lower"),
            ("rdmc-sim.history_slowdown", "ratio", "lower"),
            ("rdmc-sim.sends_per_op", "count", "lower"),
            ("rdmc-sim.recvs_per_op", "count", "lower"),
            ("rdmc-sim.control_writes_per_op", "count", "lower"),
            ("rdmc-sim.control_bytes_per_op", "B", "lower"),
            ("rdmc-sim.timers_per_op", "count", "lower"),
            ("sst.frontier_writes_per_op", "count", "lower"),
            ("workloads.generate_s", "s", "lower"),
            // Virtual time: what the modelled fabric would take. Exact,
            // pinned by the correctness gate, unvalidated against
            // hardware. A host-side change must not move them.
            ("model_gbps", "sim_Gb/s", "higher"),
            ("model_p50_ms", "sim_ms", "lower"),
            ("model_p99_ms", "sim_ms", "lower"),
            ("proc.user_s", "s", "lower"),
            ("proc.sys_s", "s", "lower"),
            ("proc.cpu_busy_frac", "ratio", "higher"),
            ("proc.invol_ctx_switches", "count", "lower"),
            ("bench.trace_overhead_frac", "ratio", "lower"),
            ("bench.timer_share", "ratio", "lower"),
            ("bench.timer_ns", "ns", "lower"),
            ("bench.wall_s", "s", "lower"),
            ("bench.ops", "count", "higher"),
            ("bench.reps", "count", "higher"),
        ]
        .into_iter()
        .map(|(name, unit, better)| def(name, unit, better)),
    );
    defs
}

pub type Values = BTreeMap<String, f64>;

pub fn median(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    match values.len() % 2 {
        0 => (values[mid - 1] + values[mid]) / 2.0,
        _ => values[mid],
    }
}

/// The lower quartile (nearest rank: the fastest of three, the second
/// fastest of four or five, the third of ten). Interference only ever slows a
/// repetition down, and compensation removes most of it, not all: a
/// low quantile looks past what is left, without resting on one
/// sample the way a minimum does.
pub fn lower_quartile(mut values: Vec<f64>) -> f64 {
    assert!(!values.is_empty(), "quartile of nothing");
    values.sort_by(f64::total_cmp);
    values[values.len() / 4]
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn over<'a>(reps: impl IntoIterator<Item = &'a Rep>, f: impl Fn(&Rep) -> f64) -> f64 {
    median(reps.into_iter().map(f).collect())
}

/// The composite repetition's position times: per position, `stat`
/// (the lower quartile, for everything end to end) over `reps`.
/// Repetitions that disagree on the number of positions did different
/// work; the correctness gate reports that, and this falls back to
/// whole repetitions (one position, median wall).
pub fn composite_segments(reps: &[Rep], stat: fn(Vec<f64>) -> f64) -> Vec<f64> {
    let positions = reps[0].segments_s.len();
    if reps.iter().any(|r| r.segments_s.len() != positions) {
        return vec![over(reps, |r| r.wall_s)];
    }
    (0..positions)
        .map(|j| stat(reps.iter().map(|r| r.segments_s[j]).collect()))
        .collect()
}

/// Per operation index, the lower-quartile latency over the
/// repetitions that completed it. Where operations complete at the end of the last
/// position, the span's noise is theirs too, so each repetition's
/// latencies are first moved from its own span onto the composite one
/// (`wall_s`, the sum of the composite positions).
fn composite_latencies(reps: &[Rep], wall_s: f64) -> Vec<f64> {
    let ops = reps.iter().map(|r| r.latencies_ms.len()).max().unwrap_or(0);
    (0..ops)
        .filter_map(|i| {
            let seen: Vec<f64> = reps
                .iter()
                .filter_map(|r| {
                    let latency = r.latencies_ms.get(i).copied().flatten()?;
                    let own_span_s: f64 = r.segments_s.iter().sum();
                    Some(match r.completes_at_end {
                        true => latency + (wall_s - own_span_s) * 1e3,
                        false => latency,
                    })
                })
                .collect();
            (!seen.is_empty()).then(|| lower_quartile(seen))
        })
        .collect()
}

/// Time of the last quarter of positions over the first quarter: how
/// much slower equal work got as the group's history grew.
fn history_slowdown(segments: &[f64]) -> f64 {
    let quarter = segments.len() / 4;
    if quarter == 0 {
        return 1.0;
    }
    let first: f64 = segments[..quarter].iter().sum();
    let last: f64 = segments[segments.len() - quarter..].iter().sum();
    ratio(last, first)
}

/// The end-to-end values of the untraced repetitions. `setups` holds
/// every set-up time the run took (repetitions plus set-up-only rounds).
pub fn end_to_end(reps: &[Rep], setups: &[f64], peak_rss_mb: f64) -> Values {
    let wall_s: f64 = composite_segments(reps, lower_quartile).iter().sum();
    let latencies = composite_latencies(reps, wall_s);
    let pct = |p| match latencies.is_empty() {
        true => 0.0,
        false => percentile(&latencies, p),
    };
    Values::from([
        ("setup_s".into(), median(setups.to_vec())),
        (
            "ops_per_s".into(),
            ratio(over(reps, |r| r.completed as f64), wall_s),
        ),
        (
            "goodput_gbps".into(),
            ratio(over(reps, |r| r.bytes as f64) * 8.0 / 1e9, wall_s),
        ),
        ("latency_p50_ms".into(), pct(50.0)),
        ("latency_p95_ms".into(), pct(95.0)),
        ("peak_rss_mb".into(), peak_rss_mb),
    ])
}

/// Readings that belong to the traced run as a whole, not to one
/// repetition.
pub struct RunReadings {
    pub roofline_c1_gbps: f64,
    pub roofline_c8_gbps: f64,
    pub plan_s: f64,
    pub timer_ns: f64,
    pub wall_s: f64,
    pub proc: ProcSample,
}

/// The per-layer values: medians over the traced repetitions, with
/// `untraced` as the baseline the tracing overhead is read against.
pub fn per_layer(kind: Kind, untraced: &Rep, traced: &[Rep], run: &RunReadings) -> Values {
    let mut v = Values::new();
    let mut set = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    let med = |f: &dyn Fn(&Rep) -> f64| over(traced, f);
    let ops = |r: &Rep| r.completed as f64;
    let s = |ns: u64| ns as f64 / 1e9;

    let layer = if kind.is_tcp() { "rdmc-tcp" } else { "verbs" };
    let t = |suffix: &str| format!("{layer}.{suffix}");
    let transport_s = |r: &Rep| s(r.timed.transport_ns());
    set(&t("advance_s"), med(&|r| s(r.timed.advance_ns)));
    set(&t("advance_calls"), med(&|r| r.timed.advance_calls as f64));
    set(
        &t("advance_ns_per_call"),
        med(&|r| ratio(r.timed.advance_ns as f64, r.timed.advance_calls as f64)),
    );
    set(&t("deliveries"), med(&|r| r.timed.deliveries as f64));
    set(
        &t("ns_per_delivery"),
        med(&|r| ratio(r.timed.advance_ns as f64, r.timed.deliveries as f64)),
    );
    set(&t("post_s"), med(&|r| s(r.timed.post_ns())));
    set(&t("post_calls"), med(&|r| r.timed.post_calls() as f64));
    // Connections are made during set-up (the warm-up forces them), so
    // these two cover the whole repetition, not the timed span.
    set(&t("connect_s"), med(&|r| s(r.whole.connect_ns)));
    set(&t("connects"), med(&|r| r.whole.connects as f64));
    set(&t("rnr_arms"), med(&|r| r.rnr_arms as f64));
    set(&t("share"), med(&|r| ratio(transport_s(r), r.wall_s)));

    if kind.is_tcp() {
        let rx = med(&|r| ratio((r.bytes * r.receivers) as f64 * 8.0 / 1e9, r.wall_s));
        set("rdmc-tcp.rx_gbps", rx);
        set("rdmc-tcp.roofline_frac", ratio(rx, run.roofline_c8_gbps));
        set("roofline.loopback_gbps_c1", run.roofline_c1_gbps);
        set("roofline.loopback_gbps_c8", run.roofline_c8_gbps);
    } else {
        let realloc_s = |r: &Rep| s(r.perf.realloc_nanos);
        let per_realloc = |r: &Rep, n: u64| ratio(n as f64, r.perf.realloc_count as f64);
        set("verbs.events", med(&|r| r.perf.events as f64));
        set(
            "verbs.events_per_s",
            med(&|r| ratio(r.perf.events as f64, r.wall_s)),
        );
        set("verbs.kicks", med(&|r| r.perf.kicks as f64));
        // Reallocation runs inside the fabric's calls; what is left of
        // them is the verbs layer's own event handling.
        let verbs_self = |r: &Rep| s(r.timed.advance_ns + r.timed.post_ns()) - realloc_s(r);
        set("verbs.self_s", med(&verbs_self));
        set(
            "verbs.ns_per_event",
            med(&|r| ratio(verbs_self(r) * 1e9, r.perf.events as f64)),
        );
        set("simnet.realloc_s", med(&realloc_s));
        set("simnet.share", med(&|r| ratio(realloc_s(r), r.wall_s)));
        set(
            "simnet.realloc_count",
            med(&|r| r.perf.realloc_count as f64),
        );
        set(
            "simnet.full_reallocs",
            med(&|r| r.perf.full_reallocs as f64),
        );
        set(
            "simnet.us_per_realloc",
            med(&|r| per_realloc(r, r.perf.realloc_nanos) / 1e3),
        );
        set(
            "simnet.flows_visited",
            med(&|r| r.perf.flows_visited as f64),
        );
        set(
            "simnet.flows_visited_per_realloc",
            med(&|r| per_realloc(r, r.perf.flows_visited)),
        );
        set("simnet.link_visits", med(&|r| r.perf.link_visits as f64));
        set("simnet.heap_pushes", med(&|r| r.perf.heap_pushes as f64));
        set("simnet.rate_changes", med(&|r| r.perf.rate_changes as f64));
        set("simnet.coalesced", med(&|r| r.perf.coalesced as f64));
        set(
            "simnet.heap_compactions",
            med(&|r| r.perf.heap_compactions as f64),
        );
        set("workloads.generate_s", med(&|r| r.generate_s));
        if let Some(m) = untraced.model {
            set("model_gbps", ratio(m.bytes as f64 * 8.0, m.span_ns as f64));
            set("model_p50_ms", m.p50_ns as f64 / 1e6);
            set("model_p99_ms", m.p99_ns as f64 / 1e6);
        }
    }

    let replay_s = |r: &Rep| r.replay.as_ref().map_or(0.0, |p| s(p.replay_ns));
    let core_events = |r: &Rep| r.replay.as_ref().map_or(0.0, |p| p.events as f64);
    set("core.events", med(&core_events));
    set(
        "core.events_per_op",
        med(&|r| ratio(core_events(r), ops(r))),
    );
    set("core.replay_s", med(&replay_s));
    set(
        "core.ns_per_event",
        med(&|r| ratio(replay_s(r) * 1e9, core_events(r))),
    );
    set("core.share", med(&|r| ratio(replay_s(r), r.wall_s)));
    set("core.plan_s", run.plan_s);

    // The `Cluster` call spans' self time (their duration minus their
    // transport children) holds the engines' work too; taking the
    // replayed engine time out leaves the orchestration's own.
    let sim_self = |r: &Rep| r.cluster_self_s - replay_s(r);
    set("rdmc-sim.self_s", med(&sim_self));
    set("rdmc-sim.share", med(&|r| ratio(sim_self(r), r.wall_s)));
    set(
        "rdmc-sim.self_us_per_op",
        med(&|r| ratio(sim_self(r) * 1e6, ops(r))),
    );
    set("rdmc-sim.submit_s", med(&|r| r.submit_s));
    // Positions are equal work only on the closed loops.
    set(
        "rdmc-sim.history_slowdown",
        match kind.is_tcp() {
            true => history_slowdown(&composite_segments(traced, lower_quartile)),
            false => 1.0,
        },
    );
    let per_op = |r: &Rep, n: u64| ratio(n as f64, ops(r));
    set(
        "rdmc-sim.sends_per_op",
        med(&|r| per_op(r, r.timed.post_send_calls)),
    );
    set(
        "rdmc-sim.recvs_per_op",
        med(&|r| per_op(r, r.timed.post_recv_calls)),
    );
    set(
        "rdmc-sim.control_writes_per_op",
        med(&|r| per_op(r, r.timed.control_writes)),
    );
    set(
        "rdmc-sim.control_bytes_per_op",
        med(&|r| per_op(r, r.timed.control_bytes)),
    );
    set(
        "rdmc-sim.timers_per_op",
        med(&|r| per_op(r, r.timed.timer_calls)),
    );
    if kind == Kind::TcpAtomic {
        // Every ready-for-block grant is one post_recv plus one
        // post_write, so the writes beyond the receives are SST
        // frontier gossip.
        set(
            "sst.frontier_writes_per_op",
            med(&|r| {
                per_op(
                    r,
                    r.timed
                        .post_write_calls
                        .saturating_sub(r.timed.post_recv_calls),
                )
            }),
        );
    }

    set("proc.user_s", run.proc.user_s);
    set("proc.sys_s", run.proc.sys_s);
    set(
        "proc.cpu_busy_frac",
        ratio(run.proc.user_s + run.proc.sys_s, run.wall_s),
    );
    set("proc.invol_ctx_switches", run.proc.invol_ctx_switches);
    // Measured: per position, traced time (the median repetition: the
    // baseline is one repetition, and a low quantile against a single
    // sample would read as a gain) over untraced time; the median
    // position. Predicted: the decorator's clock reads.
    let slowdowns: Vec<f64> = composite_segments(traced, median)
        .iter()
        .zip(&untraced.segments_s)
        .map(|(t, u)| ratio(*t, *u))
        .collect();
    set("bench.trace_overhead_frac", median(slowdowns) - 1.0);
    set(
        "bench.timer_share",
        med(&|r| {
            let timed_calls = r.timed.advance_calls + r.timed.post_calls();
            ratio(timed_calls as f64 * run.timer_ns / 1e9, r.wall_s)
        }),
    );
    set("bench.timer_ns", run.timer_ns);
    set("bench.wall_s", med(&|r| r.wall_s));
    set("bench.ops", med(&ops));
    set("bench.reps", traced.len() as f64);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(vec![3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(vec![4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(vec![7.0]), 7.0);
    }

    #[test]
    fn lower_quartile_is_the_nearest_rank() {
        assert_eq!(lower_quartile(vec![7.0]), 7.0);
        assert_eq!(lower_quartile(vec![4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(lower_quartile(vec![5.0, 4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(lower_quartile((1..=8).rev().map(f64::from).collect()), 3.0);
    }

    #[test]
    fn p95_leaves_ten_samples_beyond_it_on_the_smallest_closed_loop() {
        // tcp_large has 200 operation indices: p95 is the 190th
        // smallest (nearest rank), so 10 samples lie beyond it.
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95.0), 190.0);
        assert_eq!(percentile(&samples, 50.0), 101.0);
    }

    fn rep(segments_s: &[f64], latencies_ms: &[Option<f64>]) -> Rep {
        Rep {
            wall_s: segments_s.iter().sum(),
            segments_s: segments_s.to_vec(),
            latencies_ms: latencies_ms.to_vec(),
            completed: latencies_ms.iter().flatten().count() as u64,
            bytes: 1_000_000_000,
            ..Rep::default()
        }
    }

    #[test]
    fn slow_phases_do_not_reach_the_composite() {
        // The second repetition ran its first half at half speed, the
        // third and fourth their second half, the first was lucky once:
        // each position's lower quartile (the second fastest of four)
        // ignores all of it.
        let reps = [
            rep(&[1.0, 0.5, 1.0, 1.0], &[Some(5.0), Some(5.0)]),
            rep(&[2.0, 2.0, 1.0, 1.0], &[Some(9.0), Some(5.0)]),
            rep(&[1.0, 1.0, 2.0, 2.0], &[Some(5.0), None]),
            rep(&[1.0, 1.0, 2.0, 2.0], &[Some(4.0), Some(6.0)]),
        ];
        assert_eq!(composite_segments(&reps, lower_quartile), [1.0; 4]);
        assert_eq!(composite_latencies(&reps, 4.0), [5.0, 5.0]);
        // Operations that complete when the run ends inherit its span:
        // submitted 1 s into a 4 s composite span, they took 3 s.
        let mut at_end = [rep(&[5.0], &[Some(4000.0)]), rep(&[6.0], &[Some(5000.0)])];
        at_end.iter_mut().for_each(|r| r.completes_at_end = true);
        assert_eq!(composite_latencies(&at_end, 4.0), [3000.0]);
        let v = end_to_end(&reps, &[0.3, 0.1, 0.2], 7.0);
        assert_eq!(v["ops_per_s"], 0.5); // median 2 completed / 4 s
        assert_eq!(v["goodput_gbps"], 2.0);
        assert_eq!(v["setup_s"], 0.2);
        assert_eq!(v["latency_p95_ms"], 5.0);
        // Repetitions that did different work fall back to whole walls.
        let uneven = [rep(&[1.0, 1.0], &[]), rep(&[4.0], &[]), rep(&[3.0], &[])];
        assert_eq!(composite_segments(&uneven, lower_quartile), [3.0]);
    }

    #[test]
    fn history_slowdown_compares_the_outer_quarters() {
        let segments = [1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 3.0, 4.0];
        assert_eq!(history_slowdown(&segments), 3.5);
        assert_eq!(history_slowdown(&[1.0, 9.0]), 1.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut names: Vec<String> = end_to_end_defs()
            .into_iter()
            .chain(per_layer_defs())
            .map(|d| d.name)
            .collect();
        assert!(per_layer_defs().len() <= 128);
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        for name in &names {
            assert!(name.len() <= 64 && name.chars().all(ok), "{name}");
        }
        names.sort();
        let total = names.len();
        names.dedup();
        assert_eq!(names.len(), total, "duplicate metric name");
    }
}
