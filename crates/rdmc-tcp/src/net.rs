//! The seam between the TCP datapath and what carries its bytes: [`Net`].

use std::collections::VecDeque;
use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use simnet::SimTime;
use verbs::{Delivery, NodeId, SharedScheduler};

/// A delivery queued for software: when it happened, whose, what.
pub type Ready = (SimTime, NodeId, Delivery);

/// Everything the TCP datapath asks of an operating system: a connected
/// socket pair, reads, gathered writes and shutdowns on its ends, a
/// clock, a way to wait when a lap moved nothing, and whether a second
/// shard starts. [`Os`] is the real one; [`crate::MemNet`] keeps the
/// bytes in process under a virtual clock. A shard pumps its sockets
/// through its own `Net`; the caller's also opens sockets, keeps the
/// clock and idles.
pub trait Net: Send + Sized + 'static {
    /// One end of a socket.
    type Stream: Send;

    /// Opens a connected socket between `nodes`; its two ends, in order.
    fn open(&mut self, nodes: [usize; 2]) -> io::Result<[Self::Stream; 2]>;

    /// Reads what reached `stream` into `buf`: `Ok(0)` once the stream
    /// ended, `WouldBlock` while nothing is there.
    fn read(&mut self, stream: &Self::Stream, buf: &mut [u8]) -> io::Result<usize>;

    /// Writes `bufs`, in order, into `stream` in one gathered write;
    /// how many bytes it took, or `WouldBlock` for none.
    fn write_vectored(&mut self, stream: &Self::Stream, bufs: &[IoSlice<'_>]) -> io::Result<usize>;

    /// Shuts both directions of `stream` down (`NotConnected` when the
    /// peer went first).
    fn shutdown(&mut self, stream: &Self::Stream) -> io::Result<()>;

    /// Nanoseconds since the net was made.
    fn now_ns(&self) -> u64;

    /// A lap moved nothing: wait at most `wait_ns` for the next timer, or,
    /// with `None`, let other work run.
    fn idle(&mut self, wait_ns: Option<u64>);

    /// The net a second shard pumps through, if one starts.
    fn worker(&self) -> Option<Self>;

    /// Takes the delivery `advance()` hands out next: the oldest, unless
    /// the net chooses.
    #[inline]
    fn next_ready(&mut self, ready: &mut VecDeque<Ready>) -> Option<Ready> {
        ready.pop_front()
    }

    /// Attaches the scheduler that makes the net's choices (see
    /// [`verbs::Transport::set_scheduler`]); real sockets make none.
    fn set_scheduler(&mut self, scheduler: SharedScheduler) {
        let _ = scheduler;
    }
}

/// Strangers' connections a socket's set-up drops before it gives up.
const STRANGERS: usize = 16;

/// The host's loopback sockets and wall clock.
#[derive(Clone)]
pub struct Os {
    start: Instant,
    /// The listener every socket handshakes through.
    listener: Arc<TcpListener>,
    pub(crate) addr: SocketAddr,
}

impl Os {
    /// Binds the loopback listener.
    pub(crate) fn bind() -> io::Result<Os> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        Ok(Os {
            start: Instant::now(),
            addr: listener.local_addr()?,
            listener: Arc::new(listener),
        })
    }
}

impl Net for Os {
    type Stream = TcpStream;

    /// Inline handshake: the fabric is the only caller, so the connect
    /// pairs up with the accept that names it as the peer, with no
    /// identification handshake on the wire. A stranger connecting to
    /// the listener first is accepted and dropped.
    fn open(&mut self, _: [usize; 2]) -> io::Result<[TcpStream; 2]> {
        let client = TcpStream::connect(self.addr)?;
        let me = client.local_addr()?;
        let accepted = (0..=STRANGERS).find_map(|_| match self.listener.accept() {
            Ok((server, peer)) => (peer == me).then_some(Ok(server)),
            Err(e) => Some(Err(e)),
        });
        let strangers = || io::Error::other(format!("{STRANGERS} strangers came first"));
        let server = accepted.unwrap_or_else(|| Err(strangers()))?;
        for s in [&client, &server] {
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
        }
        Ok([client, server])
    }

    #[inline]
    fn read(&mut self, mut stream: &TcpStream, buf: &mut [u8]) -> io::Result<usize> {
        stream.read(buf)
    }

    #[inline]
    fn write_vectored(
        &mut self,
        mut stream: &TcpStream,
        bufs: &[IoSlice<'_>],
    ) -> io::Result<usize> {
        stream.write_vectored(bufs)
    }

    fn shutdown(&mut self, stream: &TcpStream) -> io::Result<()> {
        stream.shutdown(Shutdown::Both)
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn idle(&mut self, wait_ns: Option<u64>) {
        match wait_ns {
            Some(ns) => thread::sleep(Duration::from_nanos(ns)),
            None => thread::yield_now(),
        }
    }

    /// A second shard on a host with a second core.
    fn worker(&self) -> Option<Os> {
        let cores = thread::available_parallelism().map_or(1, |n| n.get());
        (cores >= 2).then(|| self.clone())
    }
}
