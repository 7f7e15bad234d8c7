//! The analyzer CLI: `cargo run -p analyzer -- --sweep`.
//!
//! Runs the full static-analysis grid — schedule model-checking,
//! posting-order deadlock lints, resume plans — and the execution
//! explorer's corner, and exits non-zero if any invariant is violated.
//! `--quick` shrinks the grid for fast local iteration; `--max-n <N>`
//! caps the group size.
//!
//! `--explore` switches to the dynamic side: the stateless model checker
//! of executions (`analyzer::explore`). `--replay=C1,C2,...` re-runs one
//! recorded choice sequence bit-for-bit and prints the invariant verdict
//! — the loop for reproducing a counterexample a CI exploration reported,
//! whose whole command a failing sweep prints.

#![forbid(unsafe_code)]

use std::time::Instant;

use analyzer::{
    explore_executions, replay, sweep, Backend, ExploreConfig, ExploreScenario, Strategy,
    SweepConfig,
};
use rdmc::schedule::GlobalSchedule;
use rdmc::Algorithm;

fn usage() -> ! {
    eprintln!(
        "usage: analyzer [--sweep] [--quick] [--max-n <N>] [--no-explore]\n\
         \x20      analyzer --explore [--strategy exhaustive|dpor|random] [SHAPE]\n\
         \x20               [--seed <S>] [--budget <EXECS>] [--trace-out <PATH>]\n\
         \x20      analyzer --replay <C1,C2,...> [SHAPE] [--trace-out <PATH>]\n\
         \x20      SHAPE: [--algorithm <A>] [--n <N>] [--k <K>] [--atomic]\n\
         \x20             [--backend fabric|memnet] [--faults]\n\
         \n\
         --sweep        run the full (algorithm, n, k) grid (the default)\n\
         --quick        reduced grid for fast local runs\n\
         --max-n <N>    cap the swept group size\n\
         --no-explore   skip the execution-exploration tier of the sweep\n\
         \n\
         --explore      model-check executions instead of schedules\n\
         --strategy     exhaustive (default), dpor, or random\n\
         --algorithm    sequential, chain, binomial-tree, binomial-pipeline (default),\n\
         \x20              or hybrid:R0,R1,... (each member's rack)\n\
         --n, --k       group size and blocks per message (default 4, 2)\n\
         --atomic       an atomic multicast group: each member sends one message\n\
         --backend      fabric (simulated, default) or memnet (TCP over in-process pipes)\n\
         --seed <S>     PRNG seed for --strategy random (default 1)\n\
         --budget <E>   execution cap (default 20000; random walk length)\n\
         --faults       offer crash-injection sites as explorable choices\n\
         --trace-out    write the counterexample's flight-recorder trace (JSONL)\n\
         \n\
         --replay <CS>  re-run one comma-separated choice sequence bit-for-bit"
    );
    std::process::exit(2);
}

/// A flag's value; a malformed one is a usage error.
fn parse<T: std::str::FromStr>(v: &str) -> T {
    v.parse().unwrap_or_else(|_| usage())
}

/// A comma-separated list (`1,2,3`) of flag values.
fn parse_list<T: std::str::FromStr>(v: &str) -> Vec<T> {
    v.split(',').filter(|s| !s.is_empty()).map(parse).collect()
}

/// An algorithm as `Algorithm`'s `Display` names it, a hybrid with its
/// members' racks (`hybrid:0,0,1,1`).
fn parse_algorithm(v: &str) -> Algorithm {
    if let Some(racks) = v.strip_prefix("hybrid:") {
        return Algorithm::Hybrid {
            rack_of: parse_list(racks),
        };
    }
    let flat = [
        Algorithm::Sequential,
        Algorithm::Chain,
        Algorithm::BinomialTree,
        Algorithm::BinomialPipeline,
    ];
    (flat.into_iter().find(|a| a.to_string() == v)).unwrap_or_else(|| usage())
}

struct ExploreArgs {
    explore: bool,
    replay: Option<Vec<usize>>,
    strategy: String,
    algorithm: Algorithm,
    n: u32,
    k: u32,
    atomic: bool,
    backend: Backend,
    seed: u64,
    budget: u64,
    faults: bool,
    trace_out: Option<String>,
}

fn scenario_for(args: &ExploreArgs) -> ExploreScenario {
    if let Err(e) = GlobalSchedule::try_build(&args.algorithm, args.n, args.k) {
        eprintln!("analyzer: {e}");
        std::process::exit(2);
    }
    let shape = if args.atomic {
        ExploreScenario::atomic
    } else {
        ExploreScenario::small
    };
    let scenario = shape(args.algorithm.clone(), args.n, args.k).on(args.backend);
    if args.faults {
        // One mid-transfer crash site per non-root member, plus the
        // implicit "no fault" branch.
        return scenario.with_faults((1..args.n as usize).map(|v| (10, v)).collect());
    }
    scenario
}

/// Writes a flight-recorder trace to `path`, or exits 2.
fn write_trace(path: &str, jsonl: &str) {
    std::fs::write(path, jsonl).unwrap_or_else(|e| {
        eprintln!("cannot write {path}: {e}");
        std::process::exit(2);
    });
    println!("trace written to {path}");
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
        write_trace(path, &cex.trace_jsonl);
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
        write_trace(path, &exec.trace_jsonl);
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
        algorithm: Algorithm::BinomialPipeline,
        n: 4,
        k: 2,
        atomic: false,
        backend: Backend::Fabric,
        seed: 1,
        budget: 20_000,
        faults: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || -> String { args.next().unwrap_or_else(|| usage()) };
        match arg.as_str() {
            "--sweep" => {}
            "--quick" => config = SweepConfig::quick(),
            "--max-n" => config.max_n = parse(&value()),
            "--no-explore" => config.explore = false,
            "--explore" => ex.explore = true,
            "--replay" => ex.replay = Some(parse_list(&value())),
            "--strategy" => ex.strategy = value(),
            "--algorithm" => ex.algorithm = parse_algorithm(&value()),
            "--atomic" => ex.atomic = true,
            "--backend" => {
                ex.backend = match value().as_str() {
                    "fabric" => Backend::Fabric,
                    "memnet" => Backend::MemNet,
                    _ => usage(),
                };
            }
            "--n" => ex.n = parse(&value()),
            "--k" => ex.k = parse(&value()),
            "--seed" => ex.seed = parse(&value()),
            "--budget" => ex.budget = parse(&value()),
            "--faults" => ex.faults = true,
            "--trace-out" => ex.trace_out = Some(value()),
            // `--replay=1,2,3` shorthand.
            s => match s.strip_prefix("--replay=") {
                Some(v) => ex.replay = Some(parse_list(v)),
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
