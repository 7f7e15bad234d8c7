//! Regenerates every table and figure of the paper's evaluation and
//! prints them as text tables. Run with `--quick` for a fast smoke pass.
//! Sweeps fan out over a worker pool (`RDMC_BENCH_THREADS` pins the
//! width; results are deterministic regardless).
//!
//! Alongside the text report, writes a machine-readable summary of the
//! simulation kernel's performance — wall time, events per second, and
//! reallocation work per section — to `BENCH_simnet.json` (path
//! overridable with `RDMC_BENCH_JSON`).
//!
//! ```sh
//! cargo run --release -p rdmc-bench --bin report
//! ```

#![forbid(unsafe_code)]

use rdmc_bench::experiments as e;
use verbs::perf::{snapshot, KernelPerf};

/// What one section produced.
struct Output {
    /// The text table for stdout (`None`: the section only feeds the
    /// JSON summary).
    text: Option<String>,
    /// The section's own record in the JSON summary: top-level key and
    /// value. Sections without one get a kernel-work row under
    /// `"sections"` instead.
    json: Option<(&'static str, String)>,
}

/// An experiment section: the name `report <name>...` selects it by
/// (probes share the name of the text section they ride along with) and
/// its generator.
type Section = (&'static str, fn(bool) -> Output);

fn text(text: String) -> Output {
    Output {
        text: Some(text),
        json: None,
    }
}

fn record(text: String, key: &'static str, json: String) -> Output {
    Output {
        text: Some(text),
        json: Some((key, json)),
    }
}

/// Every section, in stdout order; the ones with a JSON record are also
/// in the summary's key order.
const SECTIONS: &[Section] = &[
    ("fig4", |q| text(e::fig4_latency(q))),
    ("table1", |q| text(e::table1_breakdown(q))),
    ("fig5", |q| text(e::fig5_step_timeline(q))),
    ("fig6", |q| text(e::fig6_block_size(q))),
    ("fig7", |q| text(e::fig7_one_byte(q))),
    ("fig8", |q| text(e::fig8_scalability(q))),
    ("fig9", |q| text(e::fig9_cosmos(q))),
    ("fig10", |q| text(e::fig10_overlap(q))),
    ("fig11", |q| text(e::fig11_interrupts(q))),
    ("fig12", |q| text(e::fig12_core_direct(q))),
    ("robustness", |q| text(e::robustness_analysis(q))),
    ("recovery", |q| text(e::recovery_failover(q))),
    ("sst", |q| text(e::sst_small_messages(q))),
    ("kernel", |q| text(e::kernel_throughput(q))),
    ("analyzer", |q| text(e::analyzer_sweep(q))),
    ("explore", |q| text(e::explore_throughput(q))),
    ("trace", |q| text(e::trace_observability(q))),
    // The disabled-recorder overhead probe.
    ("trace", |q| {
        let t = e::trace_overhead_probe(q);
        eprintln!(
            "[trace overhead: {} events x {:.2}ns/call disabled = {:.3}% of {:.2}s untraced run]",
            t.events, t.ns_per_disabled_call, t.overhead_pct, t.wall_disabled_s
        );
        let json = format!(
            "{{\"events\": {}, \"ns_per_disabled_call\": {:.3}, \
             \"wall_disabled_s\": {:.3}, \"overhead_pct\": {:.4}}}",
            t.events, t.ns_per_disabled_call, t.wall_disabled_s, t.overhead_pct,
        );
        Output {
            text: None,
            json: Some(("trace", json)),
        }
    }),
    ("multigroup", |q| {
        let m = e::multigroup_sweep(q);
        record(m.text(), "multigroup", m.to_json())
    }),
    // Committed ops/s, rotated multi-sender vs single-sender RDMC.
    ("atomic", |q| {
        let a = e::atomic_sweep(q);
        record(a.text(), "atomic", a.to_json())
    }),
    ("reliability", |q| {
        let r = e::reliability_sweep(q);
        record(r.text(), "reliability", r.to_json())
    }),
    ("scale", |q| {
        let s = e::scale_benchmark(q);
        record(s.text(), "scale", s.to_json())
    }),
    // The same workload over real loopback sockets and over the
    // simulated fabric at a matched configuration.
    ("transport", |q| {
        let r = e::transport_benchmark(q);
        record(r.text(), "transport", r.to_json())
    }),
    // The explorer-throughput probe (executions, explored states/s).
    ("explore", |q| {
        let x = e::explore_bench_probe(q);
        eprintln!(
            "[explore bench: {} exhaustive vs {} dpor executions, {:.0} states/s]",
            x.exhaustive_executions, x.dpor_executions, x.states_per_sec
        );
        Output {
            text: None,
            json: Some(("explore", x.to_json())),
        }
    }),
];

/// One section's kernel-work record for the JSON summary.
struct SectionPerf {
    name: &'static str,
    wall_s: f64,
    work: KernelPerf,
}

fn json_summary(
    quick: bool,
    threads: usize,
    total_wall_s: f64,
    records: &[(&'static str, String)],
    sections: &[SectionPerf],
) -> String {
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str(&format!("  \"threads\": {threads},\n"));
    out.push_str(&format!("  \"total_wall_s\": {total_wall_s:.3},\n"));
    for (key, json) in records {
        out.push_str(&format!("  \"{key}\": {json},\n"));
    }
    out.push_str("  \"sections\": [\n");
    for (i, s) in sections.iter().enumerate() {
        let d = &s.work;
        let events_per_sec = if s.wall_s > 0.0 {
            d.events as f64 / s.wall_s
        } else {
            0.0
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_s\": {:.3}, \"events\": {}, \
             \"events_per_sec\": {:.0}, \"realloc_count\": {}, \
             \"realloc_nanos\": {}, \"flows_visited\": {}, \
             \"heap_pushes\": {}, \"rate_changes\": {}, \
             \"full_reallocs\": {}, \"sim_seconds\": {:.3}}}{}\n",
            s.name,
            s.wall_s,
            d.events,
            events_per_sec,
            d.realloc_count,
            d.realloc_nanos,
            d.flows_visited,
            d.heap_pushes,
            d.rate_changes,
            d.full_reallocs,
            d.sim_nanos as f64 / 1e9,
            if i + 1 < sections.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let t0 = std::time::Instant::now();
    let chrome_path = std::env::args()
        .find_map(|a| a.strip_prefix("--chrome-trace=").map(str::to_owned))
        .or_else(|| std::env::var("RDMC_TRACE_CHROME").ok());
    let baseline_path =
        std::env::args().find_map(|a| a.strip_prefix("--baseline=").map(str::to_owned));
    let only: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| {
            a != "--quick" && !a.starts_with("--chrome-trace=") && !a.starts_with("--baseline=")
        })
        .collect();
    let mut perf: Vec<SectionPerf> = Vec::new();
    let mut records: Vec<(&'static str, String)> = Vec::new();
    for &(name, run) in SECTIONS {
        if !only.is_empty() && !only.iter().any(|o| o == name) {
            continue;
        }
        let base = snapshot();
        let t = std::time::Instant::now();
        let out = run(quick);
        let wall_s = t.elapsed().as_secs_f64();
        if let Some(text) = out.text {
            println!("==================== {name} ====================");
            println!("{text}");
            eprintln!("[{name} took {wall_s:.1}s]");
        }
        match out.json {
            Some(record) => records.push(record),
            None => perf.push(SectionPerf {
                name,
                wall_s,
                work: snapshot().delta_since(&base),
            }),
        }
    }
    if let Some(path) = &chrome_path {
        match e::write_sample_chrome_trace(path) {
            Ok(()) => eprintln!("[sample Chrome trace written to {path}]"),
            Err(err) => eprintln!("[could not write Chrome trace {path}: {err}]"),
        }
    }

    let total = t0.elapsed().as_secs_f64();
    let threads = rdmc_bench::parallel::worker_threads();
    eprintln!("[total {total:.1}s on {threads} worker threads]");

    let json = json_summary(quick, threads, total, &records, &perf);
    let path = std::env::var("RDMC_BENCH_JSON").unwrap_or_else(|_| "BENCH_simnet.json".to_owned());
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("[kernel perf summary written to {path}]"),
        Err(err) => eprintln!("[could not write {path}: {err}]"),
    }

    let scale = records.iter().find(|(key, _)| *key == "scale");
    if let (Some(path), Some((_, scale))) = (baseline_path, scale) {
        if !check_scale_baseline(&path, scale) {
            std::process::exit(1);
        }
    }
}

/// Pulls the first `"key": <number>` after `anchor` out of a JSON blob —
/// enough to read our own byte-stable summary without a JSON dependency.
fn json_number_after(text: &str, anchor: &str, key: &str) -> Option<f64> {
    let rest = &text[text.find(anchor)? + anchor.len()..];
    let needle = format!("\"{key}\": ");
    let rest = &rest[rest.find(&needle)? + needle.len()..];
    let end = rest
        .find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Compares this run's events/sec against the committed baseline summary
/// (`--baseline=BENCH_simnet.json`); returns false — fail the job — on a
/// more-than-20% regression in either the sharded run or the churn
/// microbench. A baseline without a `scale` section passes (first run).
fn check_scale_baseline(path: &str, scale_json: &str) -> bool {
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("[baseline {path} unreadable; skipping regression check]");
        return true;
    };
    let mut ok = true;
    let mut check = |label: &str, baseline: Option<f64>, current: f64| match baseline {
        Some(b) if b > 0.0 => {
            let ratio = current / b;
            let verdict = if ratio < 0.8 {
                ok = false;
                "REGRESSION"
            } else {
                "ok"
            };
            eprintln!("[baseline {label}: {current:.0}/s vs {b:.0}/s ({ratio:.2}x) {verdict}]");
        }
        _ => eprintln!("[baseline {label}: no committed figure; skipping]"),
    };
    for (label, anchor, key) in [
        ("sharded events/sec", "\"sharded\"", "events_per_sec"),
        ("churn events/sec", "\"churn\"", "scaled_events_per_sec"),
    ] {
        let current = json_number_after(scale_json, anchor, key).expect("scale record has the key");
        check(label, json_number_after(&text, anchor, key), current);
    }
    ok
}
