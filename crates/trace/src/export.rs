//! Deterministic trace exporters.
//!
//! Two formats, both hand-rolled (the workspace vendors no JSON crate)
//! and both byte-stable given the same event stream, which is what lets
//! the golden-trace tests compare bit-for-bit. Both take each event's
//! wire name ([`EventKind::name`]) and its fields, named as in the Rust
//! declaration and in declaration order, from the one declaration of
//! [`EventKind`]; neither keeps a table of its own.
//!
//! - [`to_jsonl`] — one JSON object per event per line, keys in a fixed
//!   order. This is the golden-trace format.
//! - [`to_chrome_trace`] — the Chrome `trace_event` JSON format; open
//!   the file in `chrome://tracing` or <https://ui.perfetto.dev>. Each
//!   group renders as a process with one thread per rank, fabric and
//!   network events land on process 0, flows render as async spans and
//!   block sends as duration spans.

use crate::{EventKind, TraceEvent};
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// A field type an [`EventKind`] may carry, rendered as a JSON value.
pub(crate) trait Field {
    /// Appends the value in JSON.
    fn write_json(&self, out: &mut String);
}

macro_rules! display_fields {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_fields!(u8, u32, u64, bool);

impl Field for f64 {
    // `{:?}` is Rust's shortest-roundtrip float form; always a valid
    // JSON number for the finite rates we record.
    fn write_json(&self, out: &mut String) {
        let _ = write!(out, "{self:?}");
    }
}

impl<T: Field> Field for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, x) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            x.write_json(out);
        }
        out.push(']');
    }
}

/// Appends the kind's fields as `"name":value` pairs joined by commas,
/// with a leading comma when the object already holds a key.
fn write_fields(out: &mut String, kind: &EventKind, mut comma: bool) {
    kind.for_each_field(|name, value| {
        if comma {
            out.push(',');
        }
        comma = true;
        let _ = write!(out, "\"{name}\":");
        value.write_json(out);
    });
}

/// Serializes events as JSON Lines, one event per line, with a fixed
/// key order: `seq`, `t_ns`, the present scope coordinates (`node`,
/// `group`, `rank`), `kind`, then the kind's fields. Byte-stable for a
/// given event stream — the golden-trace format.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for ev in events {
        let _ = write!(out, "{{\"seq\":{},\"t_ns\":{}", ev.seq, ev.t_ns);
        if let Some(n) = ev.scope.node {
            let _ = write!(out, ",\"node\":{n}");
        }
        if let Some(g) = ev.scope.group {
            let _ = write!(out, ",\"group\":{g}");
        }
        if let Some(r) = ev.scope.rank {
            let _ = write!(out, ",\"rank\":{r}");
        }
        let _ = write!(out, ",\"kind\":\"{}\"", ev.kind.name());
        write_fields(&mut out, &ev.kind, true);
        out.push_str("}\n");
    }
    out
}

/// Microseconds with nanosecond precision, rendered without going
/// through floating point so the output is byte-stable.
fn micros(t_ns: u64) -> String {
    format!("{}.{:03}", t_ns / 1000, t_ns % 1000)
}

fn args_json(kind: &EventKind) -> String {
    let mut out = String::from("{");
    write_fields(&mut out, kind, false);
    out.push('}');
    out
}

/// Serializes events in the Chrome `trace_event` JSON format.
///
/// Layout: process 0 is the fabric/network (one thread per node);
/// group `g` is process `g + 1` (one thread per rank). Flows render as
/// async spans, each completed block send as a duration span from its
/// issue (whose fields it carries) to its sender-side completion, and
/// everything else as instant events.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut entries: Vec<String> = Vec::new();

    // Process-name metadata, fabric first then groups in order.
    let groups: BTreeSet<u32> = events.iter().filter_map(|e| e.scope.group).collect();
    entries.push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
         \"args\":{\"name\":\"fabric\"}}"
            .to_string(),
    );
    for g in &groups {
        entries.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{},\"tid\":0,\
             \"args\":{{\"name\":\"group {g}\"}}}}",
            g + 1
        ));
    }

    let mut spans = crate::stall::send_pairs(events).into_iter().peekable();
    for (i, ev) in events.iter().enumerate() {
        let (pid, tid) = match ev.scope.group {
            Some(g) => (g + 1, ev.scope.rank.unwrap_or(0)),
            None => (0, ev.scope.node.unwrap_or(0)),
        };
        let ts = micros(ev.t_ns);
        let flow_span = |ph, flow| {
            format!(
                "{{\"name\":\"flow\",\"cat\":\"net\",\"ph\":\"{ph}\",\"id\":{flow},\
                 \"ts\":{ts},\"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
                args_json(&ev.kind)
            )
        };
        let issued = spans
            .next_if(|&(_, done)| done == i)
            .map(|(issue, _)| &events[issue]);
        entries.push(match (&ev.kind, issued) {
            (EventKind::FlowStarted { flow, .. }, _) => flow_span('b', flow),
            (EventKind::FlowFinished { flow, .. }, _) => flow_span('e', flow),
            (
                EventKind::BlockSendCompleted { to },
                Some(TraceEvent {
                    t_ns: t0,
                    kind: issue @ EventKind::BlockSendIssued { block, .. },
                    ..
                }),
            ) => format!(
                "{{\"name\":\"send b{block} -> r{to}\",\"cat\":\"send\",\"ph\":\"X\",\
                 \"ts\":{},\"dur\":{},\"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
                micros(*t0),
                micros(ev.t_ns.saturating_sub(*t0)),
                args_json(issue)
            ),
            _ => format!(
                "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":{pid},\"tid\":{tid},\"args\":{}}}",
                ev.kind.name(),
                args_json(&ev.kind)
            ),
        });
    }

    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        entries.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Recorder, Scope};

    fn sample() -> Vec<TraceEvent> {
        let r = Recorder::full();
        r.set_now(1_000);
        r.record(Scope::group_rank(0, 0), || EventKind::MessageSubmitted {
            size: 64,
        });
        r.record(Scope::group_rank(0, 0), || EventKind::BlockSendIssued {
            to: 1,
            block: 0,
            step: 0,
            bytes: 64,
            epoch: 0,
        });
        r.record_at(1_500, Scope::none(), || EventKind::FlowStarted {
            flow: 7,
            bytes: 64,
        });
        r.set_now(2_345);
        r.record(Scope::none(), || EventKind::FlowRateChanged {
            flow: 7,
            gbps: 12.5,
        });
        r.record(Scope::none(), || EventKind::FlowFinished {
            flow: 7,
            aborted: false,
        });
        r.record(Scope::group_rank(0, 0), || EventKind::BlockSendCompleted {
            to: 1,
        });
        r.record(Scope::group_rank(0, 1), || EventKind::BlockArrived {
            from: 0,
            block: 0,
            step: 0,
            first: true,
            epoch: 0,
        });
        r.record(Scope::group_rank(0, 1), || EventKind::Delivered {
            size: 64,
        });
        r.events()
    }

    #[test]
    fn jsonl_is_stable_and_line_per_event() {
        let ev = sample();
        let a = to_jsonl(&ev);
        let b = to_jsonl(&ev);
        assert_eq!(a, b);
        assert_eq!(a.lines().count(), ev.len());
        assert!(a.starts_with(
            "{\"seq\":0,\"t_ns\":1000,\"group\":0,\"rank\":0,\
             \"kind\":\"message_submitted\",\"size\":64}"
        ));
        assert!(a.contains("\"kind\":\"flow_rate_changed\",\"flow\":7,\"gbps\":12.5"));
    }

    #[test]
    fn chrome_trace_pairs_sends_and_flows() {
        let ev = sample();
        let out = to_chrome_trace(&ev);
        assert!(
            out.contains("\"ph\":\"X\""),
            "block send should render as a span"
        );
        assert!(out.contains("\"ph\":\"b\"") && out.contains("\"ph\":\"e\""));
        assert!(out.contains("\"name\":\"send b0 -> r1\""));
        assert!(out.contains("\"ts\":1.000,\"dur\":1.345"));
        assert_eq!(
            out,
            to_chrome_trace(&ev),
            "chrome export must be deterministic"
        );
    }
}
