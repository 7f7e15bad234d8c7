//! Regenerates every table and figure of the paper's evaluation and
//! prints them as text tables. Run with `--quick` for a fast smoke pass.
//! Sweeps fan out over a worker pool (`RDMC_BENCH_THREADS` pins the
//! width; results are deterministic regardless).
//!
//! Stdout is virtual-time results and counts: the same build prints the
//! same bytes on any machine (`tests/report_golden.rs` pins every
//! section). How fast this code runs on a given host is `benchmark/`'s
//! question; the only clock readings here are the `[... took ...]` lines
//! and the disabled-recorder probe, all on stderr — this file is the one
//! place in the crate that reads a clock.
//!
//! ```sh
//! cargo run --release -p rdmc-bench --bin report -- [--quick] [--chrome-trace=PATH] [SECTION...]
//! ```

#![forbid(unsafe_code)]

use std::time::Instant;

use rdmc::Algorithm;
use rdmc_bench::experiments as e;
use rdmc_bench::MB;
use rdmc_sim::{run_single_multicast, run_traced_multicast, ClusterSpec};

/// An experiment section: the name `report <name>...` selects it by and
/// the generator of its text table.
type Section = (&'static str, fn(bool) -> String);

/// Every section, in stdout order.
const SECTIONS: &[Section] = &[
    ("fig4", e::fig4_latency),
    ("table1", e::table1_breakdown),
    ("fig5", e::fig5_step_timeline),
    ("fig6", e::fig6_block_size),
    ("fig7", e::fig7_one_byte),
    ("fig8", e::fig8_scalability),
    ("fig9", e::fig9_cosmos),
    ("fig10", e::fig10_overlap),
    ("fig11", e::fig11_interrupts),
    ("fig12", e::fig12_core_direct),
    ("robustness", e::robustness_analysis),
    ("recovery", e::recovery_failover),
    ("sst", e::sst_small_messages),
    ("analyzer", e::analyzer_sweep),
    ("explore", e::explore_coverage),
    // Stall attribution on stdout; the host cost of leaving the recorder
    // compiled in but disabled on stderr.
    ("trace", |q| {
        eprintln!("{}", disabled_recorder_probe(q));
        e::trace_observability(q)
    }),
    ("multigroup", |q| e::multigroup_sweep(q).text()),
    // Committed ops/s, rotated multi-sender vs single-sender RDMC.
    ("atomic", |q| e::atomic_sweep(q).text()),
    ("reliability", |q| e::reliability_sweep(q).text()),
    ("scale", |q| e::scale_benchmark(q).text()),
];

/// The zero-cost-when-disabled budget on the Fig. 4 path (group of 16,
/// 8 MB): the events a traced run records, times one record call against
/// a disabled recorder, as a share of the untraced run's wall time.
fn disabled_recorder_probe(quick: bool) -> String {
    let spec = ClusterSpec::fractus(16);
    let (_, events, _) = run_traced_multicast(&spec, 16, Algorithm::BinomialPipeline, 8 * MB, MB);
    let events = events.len();

    let t = Instant::now();
    let _ = run_single_multicast(&spec, 16, Algorithm::BinomialPipeline, 8 * MB, MB);
    let untraced_s = t.elapsed().as_secs_f64();

    let recorder = trace::Recorder::disabled();
    let scope = trace::Scope::group_rank(0, 0);
    let iters: u64 = if quick { 1_000_000 } else { 10_000_000 };
    let t = Instant::now();
    for i in 0..iters {
        let r = std::hint::black_box(&recorder);
        r.record(scope, || trace::EventKind::ReadyHeard { from: i as u32 });
    }
    let ns_per_call = t.elapsed().as_nanos() as f64 / iters as f64;

    format!(
        "[disabled recorder: {events} events x {ns_per_call:.2} ns/call = {:.3}% of the {:.2} ms untraced run]",
        100.0 * events as f64 * ns_per_call / (untraced_s * 1e9),
        untraced_s * 1e3
    )
}

/// Rejects an argument `report` does not know: names what is valid on
/// stderr and exits 2, so a typo cannot pass as an empty, green run.
fn usage_error(arg: &str) -> ! {
    let names: Vec<&str> = SECTIONS.iter().map(|&(name, _)| name).collect();
    eprintln!("report: unknown argument `{arg}`");
    eprintln!("usage: report [--quick] [--chrome-trace=PATH] [SECTION...]");
    eprintln!("sections: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut chrome_path = None;
    let mut only: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--quick" {
            quick = true;
        } else if let Some(path) = arg.strip_prefix("--chrome-trace=") {
            chrome_path = Some(path.to_owned());
        } else if SECTIONS.iter().any(|&(name, _)| name == arg) {
            only.push(arg);
        } else {
            usage_error(&arg);
        }
    }

    let t0 = Instant::now();
    for &(name, run) in SECTIONS {
        if !only.is_empty() && !only.iter().any(|o| o == name) {
            continue;
        }
        let t = Instant::now();
        let text = run(quick);
        println!("==================== {name} ====================");
        println!("{text}");
        eprintln!("[{name} took {:.1}s]", t.elapsed().as_secs_f64());
    }
    if let Some(path) = &chrome_path {
        match e::write_sample_chrome_trace(path) {
            Ok(()) => eprintln!("[sample Chrome trace written to {path}]"),
            Err(err) => eprintln!("[could not write Chrome trace {path}: {err}]"),
        }
    }
    let threads = rdmc_bench::parallel::worker_threads();
    eprintln!(
        "[total {:.1}s on {threads} worker threads]",
        t0.elapsed().as_secs_f64()
    );
}

#[cfg(test)]
mod tests {
    use super::SECTIONS;

    /// A name selects exactly one section.
    #[test]
    fn section_names_are_unique() {
        for (i, (name, _)) in SECTIONS.iter().enumerate() {
            assert!(
                SECTIONS[..i].iter().all(|(other, _)| other != name),
                "section `{name}` is listed twice"
            );
        }
    }
}
