//! Loopback rooflines for the pump, printed rather than asserted.
//!
//! - **Bulk:** the gigabits per second of payload 12 socket pairs carry
//!   in the pump's shape (gathered 512 KiB writes, each read back out of
//!   the peer end at once) when one thread pumps every pair, and when k
//!   threads run free, each pumping its own 12/k pairs, as the fabric's
//!   shards do. Every thread reads into a k-th of one quantum-sized
//!   buffer, as the fabric's threads do.
//! - **Small frames:** the microseconds per frame when 31 pairs (the
//!   socket count of the benchmark's `tcp_small`) each carry one
//!   4,121-byte frame — a 25-byte header and 4 KiB, in one gathered
//!   write — per pass, read back out of the peer at once, with one
//!   thread and with k threads each owning its share of the pairs.
//!
//! k is the host's available parallelism.
//!
//! ```sh
//! cargo test --release -p rdmc-tcp --test loopback_roofline -- --ignored --nocapture
//! ```

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::Instant;

const PAIRS: usize = 12;
const QUANTUM: usize = 512 << 10;
const SCRATCH: usize = QUANTUM + 4096;
/// Payload each mode moves.
const TOTAL: u64 = 4 << 30;
/// Payload each pair moves per turn: about what a `tcp_large` lap
/// queues per busy socket.
const PER_LAP: u64 = 384 << 10;
/// Socket pairs, header and body of the small-frame case.
const SMALL_PAIRS: usize = 31;
const HDR: usize = 25;
const SMALL: usize = 4 << 10;
/// Frames each small-frame mode moves per pair.
const PASSES: usize = 20_000;

static FILLER: [u8; 64 << 10] = [0; 64 << 10];

struct Pair {
    tx: TcpStream,
    rx: TcpStream,
}

fn pairs(n: usize) -> io::Result<Vec<Pair>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    (0..n)
        .map(|_| {
            let tx = TcpStream::connect(listener.local_addr()?)?;
            let (rx, _) = listener.accept()?;
            for s in [&tx, &rx] {
                s.set_nodelay(true)?;
                s.set_nonblocking(true)?;
            }
            Ok(Pair { tx, rx })
        })
        .collect()
}

/// Writes at least `bytes` into `pair` at most a quantum at a time and
/// reads each write back out of the peer at once. Returns the bytes
/// moved.
fn pump(pair: &mut Pair, bytes: u64, buf: &mut [u8]) -> io::Result<u64> {
    let slices = [IoSlice::new(&FILLER); QUANTUM / FILLER.len()];
    let (mut sent, mut read) = (0, 0);
    while sent < bytes || read < sent {
        if sent < bytes {
            match pair.tx.write_vectored(&slices) {
                Ok(n) => sent += n as u64,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        while read < sent {
            match pair.rx.read(buf) {
                Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                Ok(n) => read += n as u64,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => return Err(e),
            }
        }
    }
    Ok(sent)
}

fn gbps(bytes: u64, start: Instant) -> f64 {
    bytes as f64 * 8.0 / start.elapsed().as_secs_f64() / 1e9
}

/// `threads` threads, each pumping its own share of the pairs until it
/// has moved its share of [`TOTAL`].
fn free_running(threads: usize) -> io::Result<f64> {
    let mut shares: Vec<Vec<Pair>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, pair) in pairs(PAIRS)?.into_iter().enumerate() {
        shares[i % threads].push(pair);
    }
    let start = Instant::now();
    let moved = thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|mut share| {
                s.spawn(move || -> io::Result<u64> {
                    let mut buf = vec![0; SCRATCH / threads];
                    let mut moved = 0;
                    while moved < TOTAL / threads as u64 {
                        for pair in &mut share {
                            moved += pump(pair, PER_LAP, &mut buf)?;
                        }
                    }
                    Ok(moved)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("pump thread"))
            .sum::<io::Result<u64>>()
    })?;
    Ok(gbps(moved, start))
}

/// Writes one small frame into `pair` in one gathered write and reads
/// it back out of the peer.
fn small_frame(pair: &mut Pair, buf: &mut [u8]) -> io::Result<()> {
    let header = [0; HDR];
    let mut slices = [IoSlice::new(&header), IoSlice::new(&FILLER[..SMALL])];
    let mut unsent = &mut slices[..];
    let (mut sent, mut read) = (0, 0);
    while read < HDR + SMALL {
        if !unsent.is_empty() {
            match pair.tx.write_vectored(unsent) {
                Ok(n) => {
                    sent += n;
                    IoSlice::advance_slices(&mut unsent, n);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => return Err(e),
            }
        }
        if read == sent {
            continue;
        }
        match pair.rx.read(&mut buf[..sent - read]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => read += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Microseconds per frame when `threads` threads each own a share of
/// [`SMALL_PAIRS`] pairs and move [`PASSES`] frames through each.
fn small_frames(threads: usize) -> io::Result<f64> {
    let mut shares: Vec<Vec<Pair>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, pair) in pairs(SMALL_PAIRS)?.into_iter().enumerate() {
        shares[i % threads].push(pair);
    }
    let start = Instant::now();
    thread::scope(|s| {
        let handles: Vec<_> = shares
            .into_iter()
            .map(|mut share| {
                s.spawn(move || -> io::Result<()> {
                    let mut buf = vec![0; HDR + SMALL];
                    for _ in 0..PASSES {
                        for pair in &mut share {
                            small_frame(pair, &mut buf)?;
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .try_for_each(|h| h.join().expect("pump thread"))
    })?;
    let frames = (SMALL_PAIRS * PASSES) as f64;
    Ok(start.elapsed().as_secs_f64() * 1e6 / frames)
}

#[test]
#[ignore = "a measurement: run with --ignored --nocapture"]
fn loopback_rooflines() -> io::Result<()> {
    let k = thread::available_parallelism().map_or(1, |n| n.get());
    println!("one thread, {PAIRS} pairs: {:.1} Gb/s", free_running(1)?);
    println!("{k} free-running threads: {:.1} Gb/s", free_running(k)?);
    let frame = HDR + SMALL;
    let one = small_frames(1)?;
    println!("one thread, {SMALL_PAIRS} pairs, {frame} B frames: {one:.2} us/frame");
    let many = small_frames(k)?;
    println!(
        "{k} threads, each its share: {many:.2} us/frame ({:.2}x)",
        one / many
    );
    Ok(())
}
