//! Golden-trace regression tests: the complete flight recording of one
//! small multicast per algorithm, serialized as JSONL, compared
//! bit-for-bit against a checked-in golden file. Any change to event
//! ordering, timing, schedules, or the serialization format shows up as
//! a diff here.
//!
//! The simulation is fully deterministic (virtual time, no OS clocks),
//! so these files are stable across machines and CI runs.
//!
//! To regenerate after an intentional protocol or format change:
//!
//! ```text
//! RDMC_BLESS=1 cargo test --test golden_traces
//! ```
//!
//! then review the diff of `tests/golden/*.jsonl` like any other code
//! change.

use rdmc::Algorithm;
use rdmc_sim::{ClusterBuilder, ClusterSpec, GroupSpec};

const BLOCK: u64 = 64 << 10;

/// One 4-member, 4-block multicast on the Fractus preset with a full
/// flight recording, exported as JSONL.
fn traced_jsonl(algorithm: Algorithm) -> String {
    let mut cluster = ClusterBuilder::new(ClusterSpec::fractus(4))
        .flight_recorder()
        .build();
    let recorder = cluster.recorder().clone();
    let group = cluster.create_group(GroupSpec {
        members: vec![0, 1, 2, 3],
        algorithm,
        block_size: BLOCK,
        ready_window: 2,
        max_outstanding_sends: 2,
    });
    cluster.submit_send(group, 4 * BLOCK);
    cluster.run();
    assert_eq!(cluster.check_run(), Ok(()));
    trace::export::to_jsonl(&recorder.events())
}

fn check_golden(name: &str, algorithm: Algorithm) {
    let path = format!("{}/tests/golden/{name}.jsonl", env!("CARGO_MANIFEST_DIR"));
    let got = traced_jsonl(algorithm);
    if std::env::var_os("RDMC_BLESS").is_some() {
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path}: {e}; run with RDMC_BLESS=1 to create"));
    if got != want {
        let first_diff = got
            .lines()
            .zip(want.lines())
            .position(|(a, b)| a != b)
            .map_or_else(
                || {
                    format!(
                        "line counts differ: {} vs {}",
                        got.lines().count(),
                        want.lines().count()
                    )
                },
                |i| {
                    format!(
                        "first divergence at line {}:\n  got:  {}\n  want: {}",
                        i + 1,
                        got.lines().nth(i).unwrap_or(""),
                        want.lines().nth(i).unwrap_or("")
                    )
                },
            );
        panic!(
            "{name} trace diverged from golden ({first_diff})\n\
             If the change is intentional, regenerate with \
             RDMC_BLESS=1 cargo test --test golden_traces"
        );
    }
}

#[test]
fn golden_sequential() {
    check_golden("sequential", Algorithm::Sequential);
}

#[test]
fn golden_binomial_tree() {
    check_golden("binomial_tree", Algorithm::BinomialTree);
}

#[test]
fn golden_chain() {
    check_golden("chain", Algorithm::Chain);
}

#[test]
fn golden_binomial_pipeline() {
    check_golden("binomial_pipeline", Algorithm::BinomialPipeline);
}

/// The golden runs are reproducible within a process too: two identical
/// runs produce byte-identical exports (guards against any hidden
/// global state sneaking into the recorder or the simulator).
#[test]
fn golden_runs_are_deterministic_in_process() {
    let a = traced_jsonl(Algorithm::BinomialPipeline);
    let b = traced_jsonl(Algorithm::BinomialPipeline);
    assert_eq!(a, b);
}
