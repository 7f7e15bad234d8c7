//! Pins the atomic multicast sweep's headline result: at the 8-shard
//! point offered more than a lone sender can serialize, rotating the
//! sender role through the members commits more operations per second
//! than single-sender RDMC does even when the lone sender's commit
//! instant is the last member's local completion (a lower bound on any
//! stability protocol) — the Derecho/Spindle argument for multi-sender
//! groups at the small-message end of the serving story.

use rdmc_bench::experiments::{atomic_sweep, AtomicCell};

fn cell<'a>(cells: &'a [AtomicCell], mode: &str, shards: usize, heavy: bool) -> &'a AtomicCell {
    // Per (mode, shards) the sweep emits the light point first, then the
    // saturated one; 16 shards has a single (heavy) point.
    let mut matching = cells
        .iter()
        .filter(|c| c.mode == mode && c.shards == shards);
    let first = matching.next().expect("sweep covers the point");
    if heavy {
        matching.next().unwrap_or(first)
    } else {
        first
    }
}

#[test]
fn multi_sender_beats_single_sender_committed_ops_at_8_shards() {
    let report = atomic_sweep(true);
    assert_eq!(report.cells.len(), 6, "3 points x 2 modes");
    for c in &report.cells {
        assert!(
            c.committed_ops_per_s > 0.0 && c.p99_ms >= c.p50_ms,
            "{} at {} shards produced a degenerate cell",
            c.mode,
            c.shards
        );
    }

    // The mandated regression point: 8 shards past single-sender
    // saturation. Rotation must win on committed throughput, and the
    // backlog it avoids must show up as a lower commit p99 too.
    let multi = cell(&report.cells, "multi_sender", 8, true);
    let single = cell(&report.cells, "single_sender", 8, true);
    assert!(
        multi.committed_ops_per_s >= single.committed_ops_per_s,
        "multi-sender must commit at least as fast as single-sender at the \
         8-shard point: {:.0}/s vs {:.0}/s",
        multi.committed_ops_per_s,
        single.committed_ops_per_s
    );
    assert!(
        multi.p99_ms <= single.p99_ms,
        "multi-sender p99 commit latency should not exceed single-sender at \
         overload: {:.3} ms vs {:.3} ms",
        multi.p99_ms,
        single.p99_ms
    );
}
