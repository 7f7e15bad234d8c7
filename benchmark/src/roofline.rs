//! What one core can push through this host's loopback with no protocol
//! at all: a single thread moving `rdmc-tcp`-shaped frames (21-byte
//! header + payload, gathered in pieces of at most 64 KiB) over
//! nonblocking socket pairs with `write_vectored`/`read`, the same
//! syscalls the event loop uses. `rdmc-tcp.rx_gbps` is read against it.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

const HEADER: usize = 21;
const GATHER_MAX: usize = 64 << 10;

struct Pair {
    tx: TcpStream,
    rx: TcpStream,
    /// Bytes of the current frame already written.
    frame_sent: usize,
    received: u64,
}

fn pair(listener: &TcpListener) -> io::Result<Pair> {
    let tx = TcpStream::connect(listener.local_addr()?)?;
    let (rx, _) = listener.accept()?;
    for s in [&tx, &rx] {
        s.set_nodelay(true)?;
        s.set_nonblocking(true)?;
    }
    Ok(Pair {
        tx,
        rx,
        frame_sent: 0,
        received: 0,
    })
}

/// Streams at least `total_bytes` of payload over `pairs` loopback
/// connections from one thread; returns payload gigabits per second.
pub fn loopback_gbps(pairs: usize, payload: usize, total_bytes: u64) -> io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut conns: Vec<Pair> = (0..pairs)
        .map(|_| pair(&listener))
        .collect::<io::Result<_>>()?;
    let header = [0u8; HEADER];
    let filler = vec![0u8; GATHER_MAX];
    let mut scratch = vec![0u8; 256 << 10];
    let frame = HEADER + payload;
    let frames_each = total_bytes.div_ceil(payload as u64 * pairs as u64);
    let wire_each = frames_each * frame as u64;
    let mut sent = vec![0u64; pairs];
    let start = Instant::now();
    loop {
        let mut done = true;
        for (i, c) in conns.iter_mut().enumerate() {
            // At most one frame per pair per pass, then drain it: bytes
            // are read while still in cache, as a credit-limited
            // protocol can have them. (Filling the socket buffer until
            // `WouldBlock` before reading is 4x slower on this host,
            // and so no roofline.)
            let pass_end = (sent[i] / frame as u64 + 1) * frame as u64;
            while sent[i] < wire_each.min(pass_end) {
                let wrote = if c.frame_sent < HEADER {
                    let take = payload.min(GATHER_MAX);
                    c.tx.write_vectored(&[
                        IoSlice::new(&header[c.frame_sent..]),
                        IoSlice::new(&filler[..take]),
                    ])
                } else {
                    let take = (frame - c.frame_sent).min(GATHER_MAX);
                    c.tx.write(&filler[..take])
                };
                match wrote {
                    Ok(n) => {
                        sent[i] += n as u64;
                        c.frame_sent = (c.frame_sent + n) % frame;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            while c.received < wire_each {
                match c.rx.read(&mut scratch) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(n) => c.received += n as u64,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            done &= c.received == wire_each;
        }
        if done {
            break;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    let payload_bytes = frames_each * pairs as u64 * payload as u64;
    Ok(payload_bytes as f64 * 8.0 / secs / 1e9)
}
