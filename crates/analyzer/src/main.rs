//! The analyzer CLI: `cargo run -p analyzer -- --sweep`.
//!
//! Runs the full static-analysis grid — schedule model-checking,
//! posting-order deadlock lints, resume plans — and the execution
//! explorer's corner, and exits non-zero if any invariant is violated.
//! `--quick` shrinks the grid for fast local iteration; `--max-n <N>`
//! caps the group size.
//!
//! `--explore` switches to the dynamic side: the stateless model checker
//! of simulator executions (`analyzer::explore`). `--replay=C1,C2,...`
//! re-runs one recorded choice sequence bit-for-bit and prints the
//! invariant verdict — the loop for reproducing a counterexample a CI
//! exploration reported.

#![forbid(unsafe_code)]

use std::time::Instant;

use analyzer::{
    explore_executions, replay, sweep, ExploreConfig, ExploreScenario, Strategy, SweepConfig,
};
use rdmc::Algorithm;

fn usage() -> ! {
    eprintln!(
        "usage: analyzer [--sweep] [--quick] [--max-n <N>] [--no-explore]\n\
         \x20      analyzer --explore [--strategy exhaustive|dpor|random] [--n <N>] [--k <K>]\n\
         \x20               [--seed <S>] [--budget <EXECS>] [--faults] [--trace-out <PATH>]\n\
         \x20      analyzer --replay <C1,C2,...> [--n <N>] [--k <K>] [--faults] [--trace-out <PATH>]\n\
         \n\
         --sweep        run the full (algorithm, n, k) grid (the default)\n\
         --quick        reduced grid for fast local runs\n\
         --max-n <N>    cap the swept group size\n\
         --no-explore   skip the execution-exploration tier of the sweep\n\
         \n\
         --explore      model-check simulator executions instead of schedules\n\
         --strategy     exhaustive (default), dpor, or random\n\
         --n, --k       group size and blocks per message (default 4, 2)\n\
         --seed <S>     PRNG seed for --strategy random (default 1)\n\
         --budget <E>   execution cap (default 20000; random walk length)\n\
         --faults       offer crash-injection sites as explorable choices\n\
         --trace-out    write the counterexample's flight-recorder trace (JSONL)\n\
         \n\
         --replay <CS>  re-run one comma-separated choice sequence bit-for-bit"
    );
    std::process::exit(2);
}

/// A comma-separated choice script (`1,2,3`); anything else is a usage
/// error.
fn parse_script(v: &str) -> Vec<usize> {
    let parsed: Result<Vec<usize>, _> = v
        .split(',')
        .filter(|s| !s.is_empty())
        .map(str::parse)
        .collect();
    parsed.unwrap_or_else(|_| usage())
}

struct ExploreArgs {
    explore: bool,
    replay: Option<Vec<usize>>,
    strategy: String,
    n: u32,
    k: u32,
    seed: u64,
    budget: u64,
    faults: bool,
    trace_out: Option<String>,
}

fn scenario_for(args: &ExploreArgs) -> ExploreScenario {
    let mut scenario = ExploreScenario::small(Algorithm::BinomialPipeline, args.n, args.k);
    if args.faults {
        // One mid-transfer crash site per non-root member, plus the
        // implicit "no fault" branch.
        let sites = (1..args.n as usize).map(|v| (10, v)).collect();
        scenario = scenario.with_faults(sites);
    }
    scenario
}

fn run_explore(args: &ExploreArgs) -> ! {
    let scenario = scenario_for(args);
    let mut config = match args.strategy.as_str() {
        "exhaustive" => ExploreConfig::exhaustive(scenario),
        "dpor" => ExploreConfig::dpor(scenario),
        "random" => ExploreConfig::random(scenario, args.seed, args.budget),
        _ => usage(),
    };
    if !matches!(config.strategy, Strategy::Random { .. }) {
        config.max_executions = args.budget;
    }
    let start = Instant::now();
    let report = explore_executions(&config);
    let wall = start.elapsed();
    println!("{report}");
    let rate = report.points_resolved as f64 / wall.as_secs_f64().max(1e-9);
    println!(
        "explore wall time: {:.3}s ({:.0} choice points/s)",
        wall.as_secs_f64(),
        rate
    );
    if let (Some(path), Some(cex)) = (&args.trace_out, &report.counterexample) {
        std::fs::write(path, &cex.trace_jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("counterexample trace written to {path}");
    }
    // A truncated search is not a proof: fail it like a counterexample,
    // as the sweep does.
    std::process::exit(i32::from(!report.is_clean() || report.truncated));
}

fn run_replay(args: &ExploreArgs, script: &[usize]) -> ! {
    let scenario = scenario_for(args);
    let exec = replay(&scenario, script);
    println!(
        "replayed {} choice points, terminal digest {:#018x}",
        exec.points.len(),
        exec.digest
    );
    for p in &exec.points {
        println!(
            "  t={}ns {:?} chose {} of {} candidates",
            p.time_ns,
            p.kind,
            p.chosen,
            p.candidates.len()
        );
    }
    if let Some(path) = &args.trace_out {
        std::fs::write(path, &exec.trace_jsonl).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("trace written to {path}");
    }
    if exec.violations.is_empty() {
        println!("all invariants hold");
        std::process::exit(0);
    }
    for v in &exec.violations {
        println!("VIOLATION: {v}");
    }
    std::process::exit(1);
}

fn main() {
    let mut config = SweepConfig::default();
    let mut ex = ExploreArgs {
        explore: false,
        replay: None,
        strategy: "exhaustive".to_string(),
        n: 4,
        k: 2,
        seed: 1,
        budget: 20_000,
        faults: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sweep" => {}
            "--quick" => config = SweepConfig::quick(),
            "--max-n" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                config.max_n = v;
            }
            "--no-explore" => config.explore = false,
            "--explore" => ex.explore = true,
            "--replay" => {
                let Some(v) = args.next() else { usage() };
                ex.replay = Some(parse_script(&v));
            }
            "--strategy" => {
                let Some(v) = args.next() else { usage() };
                ex.strategy = v;
            }
            "--n" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                ex.n = v;
            }
            "--k" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                ex.k = v;
            }
            "--seed" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                ex.seed = v;
            }
            "--budget" => {
                let Some(v) = args.next().and_then(|v| v.parse().ok()) else {
                    usage();
                };
                ex.budget = v;
            }
            "--faults" => ex.faults = true,
            "--trace-out" => {
                let Some(v) = args.next() else { usage() };
                ex.trace_out = Some(v);
            }
            // `--replay=1,2,3` shorthand.
            s => match s.strip_prefix("--replay=") {
                Some(v) => ex.replay = Some(parse_script(v)),
                None => usage(),
            },
        }
    }

    if let Some(script) = ex.replay.take() {
        run_replay(&ex, &script);
    }
    if ex.explore {
        run_explore(&ex);
    }

    let start = Instant::now();
    let report = sweep(&config);
    let wall = start.elapsed();
    println!("{report}");
    println!("sweep wall time: {:.3}s", wall.as_secs_f64());
    if !report.is_clean() {
        std::process::exit(1);
    }
}
