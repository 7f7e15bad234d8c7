//! In-memory spans for the traced run, written out as JSON lines when
//! the benchmark ends. Spans are recorded from the benchmark's own
//! files, around the calls into each layer: one per repetition, one per
//! `Cluster` call (`cluster.submit` / `cluster.run`), one per operation
//! (submit → completion), and — because a repetition makes millions of
//! transport calls — one *rolled-up* child per transport method under
//! each `Cluster` call, carrying the call `count` and `total_ns`
//! instead of its own interval.

use std::io::Write as _;
use std::time::Instant;

use crate::json::Json;
use crate::timed::Tally;

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Set on rolled-up spans: how many calls, and their summed time.
    pub rollup: Option<(u64, u64)>,
    /// Set on operation spans: the operation's index in its repetition.
    pub op: Option<u64>,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn push(
        &mut self,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            rollup: None,
            op: None,
        });
        id
    }

    /// An operation span: starts at its submit, lasts its latency.
    pub fn push_op(&mut self, parent: u64, op: u64, start: Instant, latency_ns: u64) {
        let id = self.spans.len() as u64;
        let start_ns = self.ns(start);
        self.spans.push(Span {
            id,
            parent: Some(parent),
            name: "op",
            start_ns,
            end_ns: start_ns + latency_ns,
            rollup: None,
            op: Some(op),
        });
    }

    /// A `Cluster` call span with one rolled-up child per transport
    /// method the call reached (`calls` = tally delta over the call).
    pub fn push_call(
        &mut self,
        parent: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: &Tally,
    ) {
        let id = self.push(Some(parent), name, start, end);
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        for (method, count, total_ns) in calls.rows() {
            let child = self.spans.len() as u64;
            self.spans.push(Span {
                id: child,
                parent: Some(id),
                name: method,
                start_ns,
                end_ns,
                rollup: Some((count, total_ns)),
                op: None,
            });
        }
    }

    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self seconds of the `cluster.submit` and `cluster.run` spans
    /// recorded from span index `from` on: what the timed `Cluster`
    /// calls spent outside the transport.
    pub fn cluster_self_s(&self, from: usize) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .zip(self_ns(&self.spans))
            .skip(from)
            .filter(|(s, _)| matches!(s.name, "cluster.submit" | "cluster.run"))
            .map(|(_, own)| own)
            .sum();
        ns as f64 / 1e9
    }

    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let mut fields = vec![
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ];
            if let Some((count, total_ns)) = s.rollup {
                fields.push(("count", Json::Num(count as f64)));
                fields.push(("total_ns", Json::Num(total_ns as f64)));
            }
            if let Some(op) = s.op {
                fields.push(("op", Json::Num(op as f64)));
            }
            writeln!(out, "{}", Json::obj(fields))?;
        }
        out.flush()
    }
}

/// Every span's self time, indexed by span id: its duration minus the
/// part its children cover. Rolled-up children cover their `total_ns`;
/// ordinary children cover the union of their intervals, clipped to the
/// parent (operation spans are requests, not layers, and cover nothing).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut rolled = vec![0u64; spans.len()];
    let mut intervals: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for child in spans.iter().filter(|s| s.op.is_none()) {
        let Some(parent) = child.parent else { continue };
        let p = &spans[parent as usize];
        match child.rollup {
            Some((_, total_ns)) => rolled[parent as usize] += total_ns,
            None => intervals[parent as usize]
                .push((child.start_ns.max(p.start_ns), child.end_ns.min(p.end_ns))),
        }
    }
    spans
        .iter()
        .zip(rolled)
        .zip(intervals)
        .map(|((span, mut covered), mut intervals)| {
            intervals.sort_unstable();
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            start_ns,
            end_ns,
            rollup: None,
            op: None,
        }
    }

    #[test]
    fn self_time_subtracts_rollups_and_the_union_of_children() {
        let mut spans = vec![
            span(0, None, 100, 1100),
            // Overlapping children cover [200, 500) once, not twice.
            span(1, Some(0), 200, 400),
            span(2, Some(0), 300, 500),
            // A child poking past the parent is clipped to it.
            span(3, Some(0), 1000, 1500),
            span(4, Some(0), 0, 0),
            span(5, Some(0), 150, 950),
        ];
        spans[4].rollup = Some((7, 250));
        // An operation span is a request, not a layer: covers nothing.
        spans[5].op = Some(0);
        let own = self_ns(&spans);
        // 1000 - (300 union) - (100 clipped) - (250 rolled up) = 350.
        assert_eq!(own[0], 350);
        // Leaves are all self time; grandchildren do not reach up.
        assert_eq!(own[1], 200);
    }

    #[test]
    fn call_spans_roll_transport_calls_up_by_method() {
        let mut spans = Spans::new();
        let t0 = Instant::now();
        let rep = spans.push(None, "rep", t0, t0 + std::time::Duration::from_micros(10));
        let calls = Tally {
            advance_calls: 3,
            advance_ns: 4_000,
            post_recv_calls: 1,
            post_recv_ns: 500,
            ..Tally::default()
        };
        spans.push_call(
            rep,
            "cluster.run",
            t0,
            t0 + std::time::Duration::from_micros(10),
            &calls,
        );
        let names: Vec<_> = spans.all().iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "rep",
                "cluster.run",
                "transport.advance",
                "transport.post_recv"
            ]
        );
        let own = self_ns(spans.all());
        assert_eq!(own[1], 10_000 - 4_500);
        assert_eq!(own[rep as usize], 0);
    }
}
