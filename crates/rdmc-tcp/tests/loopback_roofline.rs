//! Loopback rooflines for the pump, printed rather than asserted: the
//! gigabits per second of payload 12 socket pairs carry in the pump's
//! shape (gathered 512 KiB writes, each read back out of the peer end at
//! once) when
//!
//! - one thread pumps every pair;
//! - k threads run free, each pumping its own 12/k pairs;
//! - k threads run fork-join laps, as the fabric's forked laps do: each
//!   lap moves a share of the pairs by value to k − 1 persistent
//!   workers, the caller pumps the rest, and the caller spins until the
//!   shares come back.
//!
//! k is the host's available parallelism. Every thread reads into a
//! k-th of one quantum-sized buffer, as the fabric's threads do.
//!
//! ```sh
//! cargo test --release -p rdmc-tcp --test loopback_roofline -- --ignored --nocapture
//! ```

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

const PAIRS: usize = 12;
const QUANTUM: usize = 512 << 10;
const SCRATCH: usize = QUANTUM + 4096;
/// Payload each mode moves.
const TOTAL: u64 = 4 << 30;
/// Payload each pair moves per fork-join lap: about what a `tcp_large`
/// lap queues per busy socket.
const PER_LAP: u64 = 384 << 10;

static FILLER: [u8; 64 << 10] = [0; 64 << 10];

struct Pair {
    tx: TcpStream,
    rx: TcpStream,
}

fn pairs() -> io::Result<Vec<Pair>> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    (0..PAIRS)
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
    for (i, pair) in pairs()?.into_iter().enumerate() {
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

type Share = (Vec<Pair>, Vec<u8>, io::Result<u64>);

/// Laps of [`PER_LAP`] per pair; each lap sends all but the first of
/// `threads` shares of the pairs to persistent workers by value.
fn fork_join(threads: usize) -> io::Result<f64> {
    let mut all = pairs()?;
    let workers: Vec<(mpsc::Sender<Share>, mpsc::Receiver<Share>)> = (1..threads)
        .map(|_| {
            let (jobs, inbox) = mpsc::channel::<Share>();
            let (outbox, done) = mpsc::channel();
            thread::spawn(move || {
                for (mut share, mut buf, _) in inbox {
                    let moved = share.iter_mut().map(|p| pump(p, PER_LAP, &mut buf)).sum();
                    if outbox.send((share, buf, moved)).is_err() {
                        return;
                    }
                }
            });
            (jobs, done)
        })
        .collect();
    let mut bufs: Vec<Vec<u8>> = (0..threads).map(|_| vec![0; SCRATCH / threads]).collect();
    let start = Instant::now();
    let mut moved = 0;
    while moved < TOTAL {
        let per = all.len().div_ceil(threads);
        let mut rest = all.split_off(per.min(all.len()));
        for (jobs, _) in &workers {
            let share: Vec<Pair> = rest.drain(..per.min(rest.len())).collect();
            let buf = bufs.pop().expect("a buffer per worker");
            jobs.send((share, buf, Ok(0))).expect("worker runs");
        }
        for pair in &mut all {
            moved += pump(pair, PER_LAP, &mut bufs[0])?;
        }
        for (_, done) in &workers {
            let (share, buf, got) = loop {
                match done.try_recv() {
                    Ok(share) => break share,
                    Err(mpsc::TryRecvError::Empty) => std::hint::spin_loop(),
                    Err(e) => panic!("worker died: {e}"),
                }
            };
            moved += got?;
            all.extend(share);
            bufs.push(buf);
        }
    }
    Ok(gbps(moved, start))
}

#[test]
#[ignore = "a measurement: run with --ignored --nocapture"]
fn loopback_rooflines() -> io::Result<()> {
    let k = thread::available_parallelism().map_or(1, |n| n.get());
    println!("one thread, {PAIRS} pairs: {:.1} Gb/s", free_running(1)?);
    println!("{k} free-running threads: {:.1} Gb/s", free_running(k)?);
    println!("{k}-thread fork-join laps: {:.1} Gb/s", fork_join(k)?);
    Ok(())
}
