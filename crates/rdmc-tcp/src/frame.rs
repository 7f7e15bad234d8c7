//! The wire format: outbound frames and their gather, and the
//! streaming [`Decoder`] for the inbound byte stream.
//!
//! A frame is a 25-byte header — length (u32), kind (u8), queue pair
//! (u32), wr_id (u64), immediate or region tag (u64), all little-endian —
//! followed by `length` body bytes. Every queue pair between two nodes
//! shares their one socket; the queue-pair field says whose frame it
//! is. Everything the decoder sees is derived from bytes a peer sent, so
//! nothing here may panic: lengths are capped by [`MAX_FRAME`] before
//! anything is reserved and every malformed input is a [`FrameError`].

#![deny(clippy::unwrap_used, clippy::expect_used)]

use std::collections::VecDeque;
use std::io::{self, IoSlice};

use bytes::Bytes;
use verbs::WrId;

/// Frame header: length (u32) + kind (u8) + queue pair (u32) + wr_id
/// (u64) + imm/tag (u64).
pub(crate) const HDR: usize = 4 + 1 + 4 + 8 + 8;
/// Two-sided send: `len` filler bytes, meta carries the immediate.
pub(crate) const KIND_SEND: u8 = 0;
/// One-sided write: `len` payload bytes, meta carries the region tag.
pub(crate) const KIND_WRITE: u8 = 1;
/// Largest body a frame may carry — four times the largest block the
/// paper measures (16 MiB). Posts above it are refused; an on-wire
/// length above it is a protocol error, not a reservation.
pub(crate) const MAX_FRAME: u64 = 64 << 20;

/// Why a byte stream is not a frame stream.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum FrameError {
    /// The header's length field exceeds [`MAX_FRAME`].
    Oversize(u32),
    /// The header's kind byte names no frame kind.
    UnknownKind(u8),
    /// The stream ended inside a frame.
    Truncated,
}

impl From<FrameError> for io::Error {
    fn from(e: FrameError) -> io::Error {
        match e {
            FrameError::Oversize(len) => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
            ),
            FrameError::UnknownKind(kind) => io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unknown frame kind {kind}"),
            ),
            FrameError::Truncated => {
                io::Error::new(io::ErrorKind::UnexpectedEof, "stream ended inside a frame")
            }
        }
    }
}

/// One completed inbound frame of queue pair `qp` (as the peer wrote
/// it: unchecked).
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Event {
    /// A two-sided send of `len` body bytes (dropped) and its immediate.
    Send { qp: u32, len: u64, imm: u64 },
    /// A one-sided write to the region `tag`.
    Write { qp: u32, tag: u64, payload: Bytes },
}

/// Shared zero filler for two-sided block payloads: RDMC's wire format
/// never inspects block *contents* (identity is positional, §4.2), so
/// sends stream this one reusable buffer instead of allocating per
/// block — the goodput on the wire is still real.
static FILLER: [u8; 64 << 10] = [0; 64 << 10];

/// Payload bytes one flush may put on a socket before the peer end is
/// read: two 256 KiB blocks' worth. Measured, not guessed: one core
/// moves the most loopback bytes per second at 320-512 KiB per write
/// and loses a third of that at 768 KiB, where what was written no
/// longer sits in cache when it is read back.
pub(crate) const QUANTUM: u64 = 512 << 10;
/// Queued frames one `write_vectored` may gather.
const GATHER_FRAMES: usize = 8;
/// Most slices a gather can need: a header and a payload tail per
/// frame, plus the quantum in whole `FILLER`s.
pub(crate) const GATHER_SLICES: usize = 2 * GATHER_FRAMES + QUANTUM as usize / FILLER.len();

pub(crate) enum Payload {
    /// A one-sided write's actual bytes.
    Bytes(Bytes),
    /// A two-sided send of this many filler bytes.
    Filler(u64),
}

impl Payload {
    pub(crate) fn len(&self) -> u64 {
        match self {
            Payload::Bytes(b) => b.len() as u64,
            Payload::Filler(n) => *n,
        }
    }
}

/// One queued outbound frame; header and payload flush via
/// scatter-gather writes and may be split across polls.
pub(crate) struct OutFrame {
    pub(crate) qp: u32,
    pub(crate) wr_id: WrId,
    pub(crate) two_sided: bool,
    header: [u8; HDR],
    payload: Payload,
    /// Bytes of header-then-payload already on the socket.
    sent: u64,
}

impl OutFrame {
    /// Encodes a frame. The caller has checked the payload against
    /// [`MAX_FRAME`], so its length fits the header field.
    pub(crate) fn new(qp: u32, wr_id: WrId, kind: u8, meta: u64, payload: Payload) -> OutFrame {
        let mut header = [0u8; HDR];
        header[0..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        header[4] = kind;
        header[5..9].copy_from_slice(&qp.to_le_bytes());
        header[9..17].copy_from_slice(&wr_id.0.to_le_bytes());
        header[17..25].copy_from_slice(&meta.to_le_bytes());
        OutFrame {
            qp,
            wr_id,
            two_sided: kind == KIND_SEND,
            header,
            payload,
            sent: 0,
        }
    }

    /// Takes this frame's share of `wrote` freshly written bytes;
    /// true once the whole frame is on the socket.
    pub(crate) fn advance(&mut self, wrote: &mut u64) -> bool {
        let take = (*wrote).min(self.unsent());
        self.sent += take;
        *wrote -= take;
        self.unsent() == 0
    }

    /// Bytes of header-then-payload not on the socket yet.
    pub(crate) fn unsent(&self) -> u64 {
        HDR as u64 + self.payload.len() - self.sent
    }

    /// Whether any of this frame is on the socket yet.
    pub(crate) fn started(&self) -> bool {
        self.sent > 0
    }
}

/// Fills `slices` with what one write may carry from the front of
/// `out` — the unsent rest of up to [`GATHER_FRAMES`] frames, payload
/// capped at one [`QUANTUM`], all borrowed — and returns how many
/// slices that is (at least one for a non-empty queue).
pub(crate) fn gather<'a>(
    out: &'a VecDeque<OutFrame>,
    slices: &mut [IoSlice<'a>; GATHER_SLICES],
) -> usize {
    let mut n = 0;
    let mut budget = QUANTUM;
    for frame in out.iter().take(GATHER_FRAMES) {
        if frame.sent < HDR as u64 {
            slices[n] = IoSlice::new(&frame.header[frame.sent as usize..]);
            n += 1;
        }
        let mut from = frame.sent.saturating_sub(HDR as u64);
        let to = frame.payload.len().min(from + budget);
        budget -= to - from;
        match &frame.payload {
            Payload::Bytes(b) => {
                if from < to {
                    slices[n] = IoSlice::new(&b[from as usize..to as usize]);
                    n += 1;
                }
            }
            Payload::Filler(_) => {
                while from < to {
                    let take = (to - from).min(FILLER.len() as u64);
                    slices[n] = IoSlice::new(&FILLER[..take as usize]);
                    n += 1;
                    from += take;
                }
            }
        }
        if to < frame.payload.len() || budget == 0 {
            break;
        }
    }
    n
}

/// Streaming frame decoder, one per receiving endpoint. A send's body
/// is counted and dropped where it lies (RDMC never inspects block
/// contents); a write's body is appended once into the buffer that
/// becomes its [`Bytes`].
#[derive(Default)]
pub(crate) struct Decoder {
    hdr: [u8; HDR],
    /// Header bytes held; `HDR` while the body streams past.
    got: usize,
    /// Body bytes of the current frame still to come.
    body_left: usize,
    /// The current write's body so far.
    body: Vec<u8>,
}

impl Decoder {
    /// Consumes bytes from the front of `chunk`, never past the end of
    /// the current frame. Returns how many it took and the frame's
    /// event if they completed it; call again with the rest.
    pub(crate) fn feed(&mut self, chunk: &[u8]) -> Result<(usize, Option<Event>), FrameError> {
        let mut used = 0;
        if self.got < HDR {
            used = (HDR - self.got).min(chunk.len());
            self.hdr[self.got..self.got + used].copy_from_slice(&chunk[..used]);
            self.got += used;
            if self.got < HDR {
                return Ok((used, None));
            }
            let len = self.len();
            if u64::from(len) > MAX_FRAME {
                return Err(FrameError::Oversize(len));
            }
            match self.hdr[4] {
                KIND_SEND => {}
                KIND_WRITE => self.body.reserve_exact(len as usize),
                kind => return Err(FrameError::UnknownKind(kind)),
            }
            self.body_left = len as usize;
        }
        let body = &chunk[used..];
        let take = self.body_left.min(body.len());
        if self.hdr[4] == KIND_WRITE {
            self.body.extend_from_slice(&body[..take]);
        }
        self.body_left -= take;
        used += take;
        if self.body_left > 0 {
            return Ok((used, None));
        }
        self.got = 0;
        let [_, _, _, _, _, q0, q1, q2, q3, ..] = self.hdr;
        let qp = u32::from_le_bytes([q0, q1, q2, q3]);
        let [.., m0, m1, m2, m3, m4, m5, m6, m7] = self.hdr;
        let meta = u64::from_le_bytes([m0, m1, m2, m3, m4, m5, m6, m7]);
        let event = if self.hdr[4] == KIND_WRITE {
            Event::Write {
                qp,
                tag: meta,
                payload: Bytes::from(std::mem::take(&mut self.body)),
            }
        } else {
            Event::Send {
                qp,
                len: u64::from(self.len()),
                imm: meta,
            }
        };
        Ok((used, Some(event)))
    }

    /// Checks the stream may end here: between frames.
    pub(crate) fn finish(&self) -> Result<(), FrameError> {
        if self.got == 0 {
            Ok(())
        } else {
            Err(FrameError::Truncated)
        }
    }

    fn len(&self) -> u32 {
        let [l0, l1, l2, l3, ..] = self.hdr;
        u32::from_le_bytes([l0, l1, l2, l3])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Zero-length send, 1-byte write, a block over one quantum, two
    /// back-to-back 32-byte control writes, a trailing empty write, on
    /// queue pairs from 0 to `u32::MAX` — as a queue, and as the events
    /// its bytes must decode to.
    fn mixed_queue() -> (VecDeque<OutFrame>, Vec<Event>) {
        const BLOCK: u64 = QUANTUM + 4097;
        let control = [[1u8; 32], [2u8; 32]];
        let write = |qp, tag, body: &[u8]| {
            let payload = Bytes::copy_from_slice(body);
            let frame = OutFrame::new(
                qp,
                WrId(tag),
                KIND_WRITE,
                tag,
                Payload::Bytes(payload.clone()),
            );
            (frame, Event::Write { qp, tag, payload })
        };
        let send = |qp, imm, len| {
            let frame = OutFrame::new(qp, WrId(imm), KIND_SEND, imm, Payload::Filler(len));
            (frame, Event::Send { qp, len, imm })
        };
        [
            send(0, 11, 0),
            write(u32::MAX, 12, &[9]),
            send(1, 13, BLOCK),
            write(0x0102_0304, 14, &control[0]),
            write(1, 15, &control[1]),
            write(0, 16, &[]),
        ]
        .into_iter()
        .unzip()
    }

    /// Flushes a queue through `gather` into a socket that takes at
    /// most `cap` bytes per write.
    fn wire(mut out: VecDeque<OutFrame>, cap: usize) -> Vec<u8> {
        let mut stream = Vec::new();
        while !out.is_empty() {
            let mut slices = [IoSlice::new(&[]); GATHER_SLICES];
            let n = gather(&out, &mut slices);
            let offered: usize = slices[..n].iter().map(|s| s.len()).sum();
            assert!(0 < offered && offered <= QUANTUM as usize + GATHER_FRAMES * HDR);
            let mut room = cap;
            for slice in &slices[..n] {
                let take = slice.len().min(room);
                stream.extend_from_slice(&slice[..take]);
                room -= take;
            }
            let mut wrote = offered.min(cap) as u64;
            while out.front_mut().is_some_and(|f| f.advance(&mut wrote)) {
                out.pop_front();
            }
        }
        stream
    }

    fn decode<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> Result<Vec<Event>, FrameError> {
        let mut decoder = Decoder::default();
        let mut events = Vec::new();
        for mut chunk in chunks {
            while !chunk.is_empty() {
                let (used, event) = decoder.feed(chunk)?;
                chunk = &chunk[used..];
                events.extend(event);
            }
        }
        decoder.finish()?;
        Ok(events)
    }

    #[test]
    fn same_events_whole_bytewise_and_split_at_every_offset() {
        let (queue, events) = mixed_queue();
        let stream = wire(queue, usize::MAX);
        assert_eq!(decode([&stream[..]]).as_ref(), Ok(&events), "whole");
        assert_eq!(decode(stream.chunks(1)).as_ref(), Ok(&events), "bytewise");
        // Every two-chunk split: each frame ends exactly at a chunk end
        // once, and each header and body is cut at each of its bytes.
        for cut in 0..=stream.len() {
            let (a, b) = stream.split_at(cut);
            assert_eq!(decode([a, b]).as_ref(), Ok(&events), "split at {cut}");
        }
    }

    #[test]
    fn partial_writes_resume_to_the_same_stream() {
        let stream = wire(mixed_queue().0, usize::MAX);
        for cap in [1, HDR - 1, HDR, HDR + 1, FILLER.len() + 1, QUANTUM as usize] {
            assert!(wire(mixed_queue().0, cap) == stream, "cap {cap}");
        }
    }

    #[test]
    fn malformed_streams_are_typed_errors() {
        let stream = wire(mixed_queue().0, usize::MAX);
        for cut in [1, HDR - 1, HDR + HDR, stream.len() - 1] {
            assert_eq!(
                decode([&stream[..cut]]),
                Err(FrameError::Truncated),
                "{cut}"
            );
        }
        let header = |len: u32, kind| {
            let mut h = [0u8; HDR];
            h[..4].copy_from_slice(&len.to_le_bytes());
            h[4] = kind;
            h
        };
        for len in [MAX_FRAME as u32 + 1, u32::MAX] {
            let oversize = header(len, KIND_WRITE);
            assert_eq!(decode([&oversize[..]]), Err(FrameError::Oversize(len)));
        }
        let garbage = header(3, 0xEE);
        assert_eq!(decode([&garbage[..]]), Err(FrameError::UnknownKind(0xEE)));
        for e in [
            FrameError::Oversize(u32::MAX),
            FrameError::UnknownKind(0xEE),
        ] {
            assert_eq!(io::Error::from(e).kind(), io::ErrorKind::InvalidData);
        }
    }
}
