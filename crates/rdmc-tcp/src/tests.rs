//! What the ledger-driven pump must not cost: failure detection on an
//! idle socket, data that was on the wire when its sender crashed, and
//! a typed error (never a panic) for a malformed frame or an oversize
//! post.

use super::*;

const A: NodeId = NodeId(0);
const B: NodeId = NodeId(1);

fn pair() -> (TcpFabric, QpHandle, QpHandle) {
    let mut fabric = TcpFabric::launch(2).expect("launch");
    let (a, b) = fabric.connect(A, B);
    (fabric, a, b)
}

/// Polls until `want` deliveries matched `keep` or `limit` ran out.
fn collect<T>(
    fabric: &mut TcpFabric,
    want: usize,
    limit: Duration,
    keep: impl Fn(NodeId, Delivery) -> Option<T>,
) -> Vec<T> {
    let start = Instant::now();
    let mut kept = Vec::new();
    while kept.len() < want && start.elapsed() < limit {
        if let Some((_, node, delivery)) = fabric.advance() {
            kept.extend(keep(node, delivery));
        }
    }
    kept
}

/// An idle connection has nothing in its ledger, so only the periodic
/// sweep reads it: with the sweep taken out of `advance()` this loop
/// polls a quiescent fabric until the limit and finds nothing.
#[test]
fn idle_socket_killed_from_outside_breaks_both_ends_within_the_bound() {
    let (mut fabric, a, b) = pair();
    assert!(fabric.advance().is_none(), "idle");
    fabric.conns[0].eps[0]
        .stream
        .shutdown(Shutdown::Both)
        .expect("kill the socket behind the fabric's back");
    let broken = collect(&mut fabric, 2, 50 * FAILURE_DETECT, |node, d| match d {
        Delivery::QpBroken { qp } => Some((node, qp)),
        _ => None,
    });
    assert_eq!(broken, [(A, a), (B, b)]);
    assert!(
        fabric.advance().is_none(),
        "quiescent again after the break"
    );
    fabric
        .shutdown()
        .expect("an end of stream between frames is a break, not an error");
}

/// Frames flushed but not yet read when their sender crashes are on
/// the wire: the pump keeps reading the live end of the dying
/// connection, so the survivor sees every one of them before its
/// flushed receive and the break.
#[test]
fn bytes_in_flight_at_a_crash_are_delivered_before_the_break() {
    const K: u64 = 5;
    const LEN: u64 = 8 << 10;
    let (mut fabric, a, b) = pair();
    for i in 0..=K {
        fabric.post_recv(b, WrId(100 + i), LEN).expect("post_recv");
    }
    for i in 0..K {
        fabric
            .post_send(a, WrId(i), LEN, i, None)
            .expect("post_send");
    }
    // Flush without the paired read, as a slow kernel would leave it.
    assert!(fabric.flush_quantum(0, 0));
    assert_eq!(fabric.conns[0].in_flight_to(1), K * (LEN + 21));
    fabric.crash(A);
    // The armed break timer keeps the fabric from going quiescent.
    let mut seen = Vec::new();
    while let Some((_, node, delivery)) = fabric.advance() {
        assert_eq!(node, B, "dead software observes nothing");
        seen.push(match delivery {
            Delivery::RecvDone { wr_id, imm, .. } => format!("recv {} imm {imm}", wr_id.0),
            Delivery::WrFlushed { wr_id, recv, .. } => format!("flushed {} {recv}", wr_id.0),
            Delivery::QpBroken { .. } => "broken".to_string(),
            other => format!("{other:?}"),
        });
    }
    let mut expected: Vec<String> = (0..K)
        .map(|i| format!("recv {} imm {i}", 100 + i))
        .collect();
    expected.push(format!("flushed {} true", 100 + K));
    expected.push("broken".to_string());
    assert_eq!(seen, expected);
    fabric.shutdown().expect("clean shutdown after a crash");
}

/// Due timers surface before the pump moves more bytes: a zero-delay
/// timer armed behind a posted write comes out ahead of that write's
/// completion, and a write posted from the timer's handler leaves in the
/// same pass as the first — both completions are queued by the time the
/// first one surfaces.
#[test]
fn zero_delay_timer_fires_before_the_next_flush() {
    let (mut fabric, a, b) = pair();
    let write = |fabric: &mut TcpFabric, wr: u64| {
        fabric
            .post_write(a, WrId(wr), 7, Bytes::from_static(b"row"), None)
            .expect("post_write");
    };
    let name = |(_, node, d): (SimTime, NodeId, Delivery)| match d {
        Delivery::Timer { token } => format!("{node:?} timer {token}"),
        Delivery::WriteDone { qp, wr_id } if qp == a => format!("{node:?} done {}", wr_id.0),
        Delivery::WriteArrived { qp, .. } if qp == b => format!("{node:?} arrived"),
        other => panic!("unexpected {other:?}"),
    };
    write(&mut fabric, 1);
    fabric.schedule_timer(A, SimDuration::ZERO, 42);
    assert_eq!(
        name(fabric.advance().expect("the timer")),
        "NodeId(0) timer 42"
    );
    assert_eq!(fabric.queued, 1, "no byte moved before the timer surfaced");
    write(&mut fabric, 2);
    assert_eq!(
        name(fabric.advance().expect("a completion")),
        "NodeId(0) done 1"
    );
    assert_eq!(fabric.queued, 0, "one pass flushed both writes");
    assert_eq!(
        fabric.ready.front().cloned().map(name).as_deref(),
        Some("NodeId(0) done 2")
    );
    let rest: Vec<String> = std::iter::from_fn(|| fabric.advance()).map(name).collect();
    assert_eq!(
        rest,
        ["NodeId(0) done 2", "NodeId(1) arrived", "NodeId(1) arrived"]
    );
    fabric.shutdown().expect("clean shutdown");
}

/// A frame of no known kind breaks its connection and comes out of
/// `shutdown()` as `InvalidData`.
#[test]
fn malformed_frame_is_an_error_at_shutdown_not_a_panic() {
    let (mut fabric, _, _) = pair();
    let garbage = OutFrame::new(WrId(1), 0xEE, 0, Payload::Filler(3));
    fabric.conns[0].eps[0].out.push_back(garbage);
    fabric.queued += 1;
    let broken = collect(&mut fabric, 2, 50 * FAILURE_DETECT, |_, d| {
        matches!(d, Delivery::QpBroken { .. }).then_some(())
    });
    assert_eq!(broken.len(), 2);
    let error = fabric.shutdown().expect_err("the protocol error surfaces");
    assert_eq!(error.kind(), io::ErrorKind::InvalidData);
    assert!(
        error.to_string().contains("unknown frame kind 238"),
        "{error}"
    );
}

/// A post over [`MAX_FRAME`] is a local-length error: the post is
/// refused with `QpBroken`, the connection breaks — both ends see what
/// they had queued flushed, then the break — and nothing else does.
#[test]
fn oversize_post_breaks_its_connection_and_no_other() {
    let (mut fabric, a, b) = pair();
    let (a2, b2) = fabric.connect(A, B);
    fabric.post_recv(b, WrId(7), 64).expect("post_recv");
    fabric
        .post_send(a, WrId(1), 64, 0, None)
        .expect("post_send");
    assert_eq!(
        fabric.post_send(a, WrId(2), MAX_FRAME + 1, 0, None),
        Err(VerbsError::QpBroken)
    );
    let seen = collect(&mut fabric, 4, 50 * FAILURE_DETECT, |node, d| match d {
        Delivery::WrFlushed { qp, wr_id, recv } => Some((node, qp, format!("{} {recv}", wr_id.0))),
        Delivery::QpBroken { qp } => Some((node, qp, "broken".to_string())),
        other => panic!("unexpected {other:?}"),
    });
    let expected = [
        (A, a, "1 false"),
        (A, a, "broken"),
        (B, b, "7 true"),
        (B, b, "broken"),
    ];
    assert_eq!(
        seen,
        expected.map(|(node, qp, what)| (node, qp, what.to_string()))
    );
    assert_eq!(
        fabric.post_send(a, WrId(3), 64, 0, None),
        Err(VerbsError::QpBroken)
    );
    fabric.post_recv(b2, WrId(8), 64).expect("post_recv");
    fabric
        .post_send(a2, WrId(4), 64, 9, None)
        .expect("post_send");
    let arrived = collect(&mut fabric, 1, 50 * FAILURE_DETECT, |_, d| match d {
        Delivery::RecvDone { qp, imm, .. } => Some((qp, imm)),
        _ => None,
    });
    assert_eq!(arrived, [(b2, 9)]);
    fabric
        .shutdown()
        .expect("a refused post is not an I/O error");
}
