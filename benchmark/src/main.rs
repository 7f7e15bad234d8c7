//! `rdmc-benchmark`: the repo benchmark's driver. See `README.md` for
//! what is measured and why; `run.sh` builds and launches this.
//!
//! The process started by `run.sh` is the *parent*: it runs each
//! requested workload in a child process of its own (so peak memory is
//! per workload), one after the other, prints every metric as
//! `workload name unit value`, checks the simulated results against
//! `expected.json`, writes `out/results.json`, and ends with one JSON
//! line `{"correct", "attempted", "failed", "metrics"}`.

mod json;
mod metrics;
mod proc;
mod replay;
mod roofline;
mod spans;
mod timed;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;

use json::Json;
use metrics::RunReadings;
use spans::Spans;
use workloads::{Kind, Model, Rep, Scale, WORKLOADS};

/// `run_seconds` in `BENCHMARK.json`: the `--seconds` at which the
/// reference operation counts apply unscaled.
const RUN_SECONDS: u64 = 20;
const DEFAULT_SEED: u64 = 1;

struct Args {
    workload: Option<String>,
    seed: u64,
    /// `--seconds`: sizes the fixed work (see [`Args::scale`]).
    seconds: u64,
    /// `--quick`: a twentieth of the work, for a smoke run.
    quick: bool,
    /// `--trace 0|1`: exactly one of the two runs.
    trace: Option<bool>,
    /// `--traced`: the untraced run, then the traced one.
    traced: bool,
    record: bool,
    bless: bool,
    child: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS,
        quick: false,
        trace: None,
        traced: false,
        record: false,
        bless: false,
        child: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&args.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--traced" => args.traced = true,
            "--quick" => args.quick = true,
            "--record" => args.record = true,
            "--bless" => args.bless = true,
            "--child" => args.child = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|(n, _)| n == name) {
            let names: Vec<_> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(args)
}

impl Args {
    /// The factor on every workload's reference operation count: the
    /// counts are sized for `--seconds` = [`RUN_SECONDS`] on the
    /// reference host, and the same `--seconds` always means the same
    /// work.
    fn scale(&self) -> Scale {
        match self.quick {
            true => Scale { num: 1, den: 20 },
            false => Scale {
                num: self.seconds,
                den: RUN_SECONDS,
            },
        }
    }

    /// Whether the work is the reference work `expected.json` pins.
    fn unscaled(&self) -> bool {
        !self.quick && self.seconds == RUN_SECONDS
    }
}

/// The benchmark's directory: where `expected.json`, `history.jsonl`
/// and `out/` live. `run.sh` names it; a bare `cargo run` falls back to
/// the manifest directory the binary was built from.
fn bench_dir() -> PathBuf {
    std::env::var_os("RDMC_BENCH_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rdmc-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.child {
        child(&args)
    } else {
        parent(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("rdmc-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------- child

/// One `Instant::now()` pair, in nanoseconds: the cost the decorator
/// adds to every timed transport call.
fn timer_pair_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let start = Instant::now();
    for _ in 0..PAIRS {
        std::hint::black_box(Instant::now().elapsed());
    }
    start.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

fn model_json(m: &Model) -> Json {
    Json::obj([
        ("events", Json::Num(m.events as f64)),
        ("bytes", Json::Num(m.bytes as f64)),
        ("span_ns", Json::Num(m.span_ns as f64)),
        ("p50_ns", Json::Num(m.p50_ns as f64)),
        ("p99_ns", Json::Num(m.p99_ns as f64)),
    ])
}

/// Runs one workload in this process and prints its result document as
/// the only line on stdout. `--trace 0`: every repetition untraced
/// → the end-to-end metrics. `--trace 1`: one untraced repetition (the
/// baseline tracing overhead is read against), then the rest traced →
/// the per-layer metrics and `out/<workload>.trace.jsonl`.
fn child(args: &Args) -> Result<bool, String> {
    let name = args.workload.as_deref().ok_or("--child needs --workload")?;
    let kind = WORKLOADS
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, k)| *k)
        .expect("validated by parse_args");
    let traced = args.trace == Some(true);
    let mut spans = Spans::new();
    let proc_base = proc::sample();
    let run_start = Instant::now();
    let mut reps: Vec<Rep> = Vec::new();
    // Every repetition's own set-up, and in the untraced run one more
    // set-up-only round after each, so `setup_s` is a median of samples
    // spread over the whole run rather than three taken seconds apart.
    let mut setups: Vec<f64> = Vec::new();
    for i in 0..kind.reps() {
        let rep = workloads::run_rep(kind, traced && i > 0, args.scale(), args.seed, &mut spans)?;
        setups.push(rep.setup_s);
        if !traced {
            setups.push(workloads::setup_only(kind, args.scale(), args.seed)?);
        }
        reps.push(rep);
    }
    let run_wall_s = run_start.elapsed().as_secs_f64();
    let proc_end = proc::sample();

    let mut problems: Vec<String> = Vec::new();
    for (i, rep) in reps.iter().enumerate() {
        problems.extend(rep.problems.iter().map(|p| format!("rep {i}: {p}")));
    }
    // The simulation is deterministic: every repetition, traced or not,
    // must produce the same events and the same virtual times.
    if reps.iter().any(|r| r.model != reps[0].model) {
        problems.push("simulated results differ between repetitions".into());
    }

    let values = if traced {
        let (roofline_c1_gbps, roofline_c8_gbps) = match kind {
            Kind::TcpLarge => {
                let total = (2u64 << 30) * args.scale().num / args.scale().den;
                let run = |pairs| {
                    roofline::loopback_gbps(pairs, 256 << 10, total)
                        .map_err(|e| format!("roofline: {e}"))
                };
                (run(1)?, run(8)?)
            }
            _ => (0.0, 0.0),
        };
        let (n, k) = kind.plan_shape(args.scale());
        let run = RunReadings {
            roofline_c1_gbps,
            roofline_c8_gbps,
            plan_s: replay::plan_seconds(n, k),
            timer_ns: timer_pair_ns(),
            wall_s: run_wall_s,
            proc: proc_end.since(&proc_base),
        };
        let out = bench_dir().join("out");
        std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
        let path = out.join(format!("{name}.trace.jsonl"));
        spans
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        metrics::per_layer(kind, &reps[0], &reps[1..], &run)
    } else {
        metrics::end_to_end(&reps, &setups, proc::peak_rss_mb())
    };

    let measured = if traced { &reps[1..] } else { &reps[..] };
    let attempted: u64 = measured.iter().map(|r| r.attempted).sum();
    let completed: u64 = measured.iter().map(|r| r.completed).sum();
    let samples: usize = measured
        .iter()
        .map(|r| r.latencies_ms.iter().flatten().count())
        .sum();
    let doc = Json::obj([
        ("workload", Json::str(name)),
        ("traced", Json::Bool(traced)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num((attempted - completed) as f64)),
        ("reps", Json::Num(measured.len() as f64)),
        (
            "rep_wall_s",
            Json::Arr(reps.iter().map(|r| Json::Num(r.wall_s)).collect()),
        ),
        ("latency_samples", Json::Num(samples as f64)),
        ("seed_used", Json::Bool(kind.uses_seed())),
        (
            "problems",
            Json::Arr(problems.iter().map(Json::str).collect()),
        ),
        (
            "model",
            reps[0].model.as_ref().map_or(Json::Null, model_json),
        ),
        (
            "metrics",
            Json::obj(values.into_iter().map(|(k, v)| (k, Json::Num(v)))),
        ),
    ]);
    println!("{doc}");
    Ok(problems.is_empty())
}

// --------------------------------------------------------------- parent

struct Job {
    workload: &'static str,
    traced: bool,
    /// The child's result document.
    doc: Json,
    /// Its metrics in declared order, as `(name, value, unit)`.
    rows: Vec<(String, f64, &'static str)>,
}

impl Job {
    /// A declared metric the child did not report belongs to a layer
    /// this workload does not run, and reads 0.
    fn new(workload: &'static str, traced: bool, doc: Json) -> Job {
        let declared = match traced {
            true => metrics::per_layer_defs(),
            false => metrics::end_to_end_defs(),
        };
        let reported = doc.get("metrics").unwrap_or(&Json::Null);
        let rows = declared
            .into_iter()
            .map(|d| {
                let value = reported
                    .get(&d.name)
                    .map_or(0.0, |v| v.as_f64().unwrap_or(f64::NAN));
                (d.name, value, d.unit)
            })
            .collect();
        Job {
            workload,
            traced,
            doc,
            rows,
        }
    }

    /// `{name: {"value", "unit"}}`, each name prefixed with `prefix`.
    fn metrics_json(&self, prefix: &str) -> Vec<(String, Json)> {
        self.rows
            .iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]);
                (format!("{prefix}{name}"), entry)
            })
            .collect()
    }
}

fn run_child(args: &Args, workload: &str, traced: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--child", "--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--seconds", &args.seconds.to_string()])
        .args(args.quick.then_some("--quick"))
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning the {workload} child: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| {
        format!(
            "{workload} child ({}) printed no result: {e}",
            output.status
        )
    })
}

fn num(doc: &Json, key: &str) -> f64 {
    doc.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Compares the simulated results of `job` against `expected.json`, or
/// (with `--bless`) records them. A pin applies only to the inputs it
/// was taken from: unscaled, and the same seed if the workload has one.
fn check_expected(args: &Args, job: &Job, expected: &mut Vec<(String, Json)>) -> Option<String> {
    if !args.unscaled() {
        return None;
    }
    let model = job.doc.get("model").filter(|m| **m != Json::Null)?;
    let seed = match job.doc.get("seed_used").and_then(Json::as_bool) {
        Some(true) => Json::Num(args.seed as f64),
        _ => Json::Null,
    };
    let slot = expected.iter_mut().find(|(w, _)| w == job.workload);
    if args.bless {
        let pin = Json::obj([("seed", seed), ("model", model.clone())]);
        match slot {
            Some((_, v)) => *v = pin,
            None => expected.push((job.workload.to_string(), pin)),
        }
        return None;
    }
    let (_, pin) = slot?;
    if pin.get("seed") != Some(&seed) {
        return None;
    }
    (pin.get("model") != Some(model)).then(|| {
        format!(
            "{}: simulated results {model} differ from the pinned {} \
             (a host-side change must leave them bit-identical; \
             re-pin a deliberate model change with --bless)",
            job.workload,
            pin.get("model").unwrap_or(&Json::Null)
        )
    })
}

fn parent(args: &Args) -> Result<bool, String> {
    let dir = bench_dir();
    let workloads: Vec<&'static str> = WORKLOADS
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| args.workload.as_deref().is_none_or(|w| w == *n))
        .collect();
    let modes: &[bool] = match args.trace {
        Some(true) => &[true],
        None if args.traced => &[false, true],
        _ => &[false],
    };
    let expected_path = dir.join("expected.json");
    let mut expected: Vec<(String, Json)> = std::fs::read_to_string(&expected_path)
        .ok()
        .map(|text| Json::parse(&text).map_err(|e| format!("expected.json: {e}")))
        .transpose()?
        .and_then(|j| j.as_obj().map(<[_]>::to_vec))
        .unwrap_or_default();

    println!("# one process, one thread; all TCP traffic on the host loopback, not a real link");
    println!("# workload name unit value");
    let mut jobs: Vec<Job> = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    for &workload in &workloads {
        for &traced in modes {
            let job = Job::new(workload, traced, run_child(args, workload, traced)?);
            for (name, value, unit) in &job.rows {
                println!("{workload} {name} {unit} {value}");
            }
            println!(
                "# {workload}: {} reps (timed wall {} s), {} ops attempted, {} failed, \
                 {} latency samples{}",
                num(&job.doc, "reps"),
                job.doc.get("rep_wall_s").unwrap_or(&Json::Null),
                num(&job.doc, "attempted"),
                num(&job.doc, "failed"),
                num(&job.doc, "latency_samples"),
                match job.doc.get("seed_used").and_then(Json::as_bool) {
                    Some(true) => format!(", seed {}", args.seed),
                    _ => ", fixed inputs (--seed ignored)".to_string(),
                }
            );
            for p in job
                .doc
                .get("problems")
                .and_then(Json::as_arr)
                .unwrap_or(&[])
            {
                problems.push(format!("{workload}: {}", p.as_str().unwrap_or("?")));
            }
            problems.extend(check_expected(args, &job, &mut expected));
            jobs.push(job);
        }
    }
    for p in &problems {
        println!("# FAILED {p}");
    }
    if args.bless {
        // One workload per line, so a re-pin is a one-line diff.
        let lines: Vec<String> = expected
            .iter()
            .map(|(workload, pin)| format!("  {}: {pin}", Json::str(workload)))
            .collect();
        let text = format!("{{\n{}\n}}\n", lines.join(",\n"));
        std::fs::write(&expected_path, text).map_err(|e| format!("expected.json: {e}"))?;
        println!("# pinned simulated results in {}", expected_path.display());
    }

    write_results(args, &dir, &jobs, &problems)?;
    if args.record {
        record_history(args, &dir, &jobs)?;
    }

    // The result line. One job: its metrics by name. Several: each
    // metric prefixed with its workload.
    let attempted: f64 = jobs.iter().map(|j| num(&j.doc, "attempted")).sum();
    let mut failed: f64 = jobs.iter().map(|j| num(&j.doc, "failed")).sum();
    if !problems.is_empty() {
        // A broken gate that lost no operation still counts as one.
        failed = failed.max(1.0);
    }
    let metrics = jobs.iter().flat_map(|job| match jobs.len() {
        1 => job.metrics_json(""),
        _ => job.metrics_json(&format!("{}/", job.workload)),
    });
    let line = Json::obj([
        ("correct", Json::Bool(problems.is_empty())),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{line}");
    Ok(problems.is_empty())
}

fn provenance(args: &Args) -> Vec<(&'static str, Json)> {
    let env = |key: &str| std::env::var(key).unwrap_or_else(|_| "unknown".into());
    vec![
        ("commit", Json::str(env("RDMC_BENCH_COMMIT"))),
        ("date", Json::str(env("RDMC_BENCH_DATE"))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64)),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds as f64)),
        ("network", Json::str("loopback")),
        ("claim", Json::Null),
    ]
}

fn write_results(args: &Args, dir: &Path, jobs: &[Job], problems: &[String]) -> Result<(), String> {
    let mut per_workload: Vec<(String, Json)> = Vec::new();
    for job in jobs {
        let section = if job.traced {
            "per_layer"
        } else {
            "end_to_end"
        };
        let metrics = Json::Obj(job.metrics_json(""));
        let counts = Json::obj([
            ("attempted", Json::Num(num(&job.doc, "attempted"))),
            ("failed", Json::Num(num(&job.doc, "failed"))),
            ("reps", Json::Num(num(&job.doc, "reps"))),
            (
                "latency_samples",
                Json::Num(num(&job.doc, "latency_samples")),
            ),
        ]);
        let fields = vec![
            (section.to_string(), metrics),
            (format!("{section}_counts"), counts),
        ];
        match per_workload.iter_mut().find(|(w, _)| w == job.workload) {
            Some((_, Json::Obj(existing))) => existing.extend(fields),
            _ => per_workload.push((job.workload.to_string(), Json::Obj(fields))),
        }
    }
    let mut doc = provenance(args);
    doc.push(("correct", Json::Bool(problems.is_empty())));
    doc.push((
        "problems",
        Json::Arr(problems.iter().map(Json::str).collect()),
    ));
    doc.push(("workloads", Json::Obj(per_workload)));
    let out = dir.join("out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    std::fs::write(out.join("results.json"), format!("{}\n", Json::obj(doc)))
        .map_err(|e| format!("results.json: {e}"))
}

/// Appends this run's end-to-end metrics to `history.jsonl`: the kept
/// trajectory. Append-only; one line per recorded run.
fn record_history(args: &Args, dir: &Path, jobs: &[Job]) -> Result<(), String> {
    use std::io::Write as _;
    let workloads = jobs.iter().filter(|j| !j.traced).map(|job| {
        let metrics = job.doc.get("metrics").cloned().unwrap_or(Json::Null);
        (job.workload, metrics)
    });
    let mut line = provenance(args);
    line.push(("workloads", Json::obj(workloads)));
    let path = dir.join("history.jsonl");
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    writeln!(file, "{}", Json::obj(line)).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use rdmc::Algorithm;
    use rdmc_sim::{ClusterBuilder, ClusterSpec, EngineLogEntry, GroupSpec};
    use verbs::Fabric;

    use super::*;
    use crate::timed::{Probe, Tally, Timed};

    fn four_nodes() -> GroupSpec {
        GroupSpec {
            members: vec![0, 1, 2, 3],
            algorithm: Algorithm::BinomialPipeline,
            block_size: 64 << 10,
            ready_window: 2,
            max_outstanding_sends: 2,
        }
    }

    /// Three 1 MiB multicasts on a 4-node simulated cluster: the state
    /// digest, the engine log, the virtual end time, the transport's
    /// tally.
    fn four_node_run<P: Probe<Inner = Fabric>>() -> (u64, Vec<EngineLogEntry>, u64, Tally) {
        let fabric = ClusterSpec::fractus(4).build();
        let mut cluster = ClusterBuilder::from_transport(P::wrap(fabric))
            .engine_log()
            .build();
        let group = cluster.create_group(four_nodes());
        for _ in 0..3 {
            cluster.submit_send(group, 1 << 20);
        }
        cluster.run();
        assert!(cluster.destroy_group(group));
        (
            cluster.state_digest(),
            cluster.engine_log().to_vec(),
            verbs::Transport::now(cluster.transport()).as_nanos(),
            cluster.transport().tally(),
        )
    }

    #[test]
    fn timed_fabric_is_transparent() {
        let (digest, log, end_ns, bare_tally) = four_node_run::<Fabric>();
        let (timed_digest, timed_log, timed_end_ns, tally) = four_node_run::<Timed<Fabric>>();
        assert_eq!(digest, timed_digest);
        assert_eq!(log, timed_log);
        assert_eq!(end_ns, timed_end_ns);
        assert_eq!(bare_tally, Tally::default());
        // 16 blocks x 3 receivers x 3 messages.
        assert_eq!(tally.post_send_calls, 144);
        // On a plain group every write is a ready-for-block grant, and
        // every grant is one posted receive plus one control write.
        assert_eq!(tally.post_recv_calls, tally.post_write_calls);
        // `run()` and `destroy_group()`'s drain each end on one empty poll.
        assert_eq!(tally.advance_calls - tally.deliveries, 2);
        assert_eq!(tally.control_writes, tally.post_write_calls);
        assert!(tally.transport_ns() > 0 && tally.connects > 0);
    }

    #[test]
    fn replay_reproduces_messages_completed_per_rank() {
        let (_, log, _, _) = four_node_run::<Fabric>();
        let replayed = replay::replay(&log, &[four_nodes()], 0);
        assert_eq!(replayed.events, log.len() as u64);
        assert_eq!(replayed.completed, vec![vec![3, 3, 3, 3]]);
        // Entries before `timed_from` are replayed, but off the clock.
        let tail = replay::replay(&log, &[four_nodes()], log.len() - 10);
        assert_eq!(tail.events, 10);
        assert_eq!(tail.completed, replayed.completed);
    }

    #[test]
    fn tally_deltas_subtract_field_by_field() {
        let base = Tally {
            advance_calls: 5,
            advance_ns: 100,
            post_write_calls: 2,
            ..Tally::default()
        };
        let later = Tally {
            advance_calls: 9,
            advance_ns: 450,
            post_write_calls: 2,
            connects: 1,
            connect_ns: 50,
            ..Tally::default()
        };
        let delta = later.since(&base);
        assert_eq!((delta.advance_calls, delta.advance_ns), (4, 350));
        assert_eq!(delta.transport_ns(), 400);
        let rows: Vec<_> = delta.rows().collect();
        assert_eq!(
            rows,
            [("transport.advance", 4, 350), ("transport.connect", 1, 50)]
        );
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// the same metrics with the same units, directions and bounds:
    /// the result line is built from the binary's tables, so this is
    /// what keeps it to the declared contract.
    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        let declared = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        let field = |item: &Json, key: &str| item.get(key).and_then(Json::as_str).map(String::from);
        let list = |key: &str| {
            declared
                .get(key)
                .and_then(Json::as_arr)
                .expect("array")
                .to_vec()
        };

        let names: Vec<String> = list("workloads")
            .iter()
            .filter_map(|w| field(w, "name"))
            .collect();
        let ours: Vec<String> = WORKLOADS.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names, ours);
        assert_eq!(
            declared.get("run_seconds").and_then(Json::as_f64),
            Some(RUN_SECONDS as f64)
        );
        assert_eq!(list("paths"), [Json::str("benchmark")]);

        for (key, defs) in [
            ("end_to_end", metrics::end_to_end_defs()),
            ("per_layer", metrics::per_layer_defs()),
        ] {
            let declared: Vec<_> = list(key)
                .iter()
                .map(|m| {
                    (
                        field(m, "name").expect("name"),
                        field(m, "unit").expect("unit"),
                        field(m, "better").expect("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect();
            let ours: Vec<_> = defs
                .into_iter()
                .map(|d| (d.name, d.unit.to_string(), d.better.to_string(), d.bound))
                .collect();
            assert_eq!(declared, ours, "{key}");
        }
    }

    /// Every workload, untraced and traced, at a two-hundredth of its
    /// size: the correctness gate passes, every value belongs to a
    /// declared metric, and the layer split adds up.
    #[test]
    fn every_workload_runs_clean_at_the_smallest_scale() {
        let scale = Scale { num: 1, den: 200 };
        let declared: Vec<String> = metrics::per_layer_defs()
            .into_iter()
            .map(|d| d.name)
            .collect();
        for (name, kind) in WORKLOADS {
            let mut spans = Spans::new();
            let reps: Vec<Rep> = [false, true]
                .iter()
                .map(|&traced| workloads::run_rep(kind, traced, scale, 7, &mut spans).expect(name))
                .collect();
            for rep in &reps {
                assert_eq!(rep.problems, Vec::<String>::new(), "{name}");
                assert_eq!(rep.completed, rep.attempted, "{name}");
            }
            assert_eq!(
                reps[0].model, reps[1].model,
                "{name}: tracing changed the simulation"
            );
            assert_eq!(reps[0].model.is_some(), !kind.is_tcp(), "{name}");
            let run = RunReadings {
                roofline_c1_gbps: 0.0,
                roofline_c8_gbps: 0.0,
                plan_s: 0.0,
                timer_ns: 0.0,
                wall_s: 1.0,
                proc: proc::ProcSample::default(),
            };
            let values = metrics::per_layer(kind, &reps[0], &reps[1..], &run);
            for key in values.keys() {
                assert!(declared.contains(key), "{name}: undeclared metric {key}");
            }
            assert!(values["rdmc-sim.self_s"] >= 0.0, "{name}");
            assert!(values["core.events"] > 0.0, "{name}");
            // One rep span, its set-up, and per-operation spans.
            let ops = spans.all().iter().filter(|s| s.op.is_some()).count() as u64;
            assert_eq!(ops, reps[1].completed, "{name}");
            assert!(reps[1].cluster_self_s > 0.0, "{name}");
            assert!(reps[1].cluster_self_s < reps[1].wall_s, "{name}");
        }
    }
}
