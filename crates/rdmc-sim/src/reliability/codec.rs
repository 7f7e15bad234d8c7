//! Control-channel payload codecs of the reliability layer.
//!
//! All control payloads ride one-sided writes. NACKs and probes must stay
//! under the fabric's tiny-write bypass threshold (256 bytes) so they are
//! never themselves lost; repairs and parity are padded to block size so
//! they cost honest bandwidth and remain subject to the fault model.

use bytes::Bytes;

/// Encodes a NACK for the contiguous missing range `[base, base+span)`.
pub(super) fn encode_nack(base: u64, span: u32) -> Bytes {
    let mut buf = Vec::with_capacity(12);
    buf.extend_from_slice(&base.to_le_bytes());
    buf.extend_from_slice(&span.to_le_bytes());
    Bytes::from(buf)
}

/// Decodes a NACK payload; `None` on a malformed length.
pub(super) fn decode_nack(payload: &[u8]) -> Option<(u64, u32)> {
    let base = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let span = u32::from_le_bytes(payload.get(8..12)?.try_into().ok()?);
    Some((base, span))
}

/// Encodes a block retransmission: 24-byte header (seq, imm total,
/// block length) padded to the block's full length so the repair costs
/// the bandwidth the original did.
pub(super) fn encode_repair(seq: u64, total: u64, len: u64) -> Bytes {
    let wire_len = (len as usize).max(24);
    let mut buf = vec![0u8; wire_len];
    buf[..8].copy_from_slice(&seq.to_le_bytes());
    buf[8..16].copy_from_slice(&total.to_le_bytes());
    buf[16..24].copy_from_slice(&len.to_le_bytes());
    Bytes::from(buf)
}

/// Decodes a retransmission header; `None` on a malformed length.
pub(super) fn decode_repair(payload: &[u8]) -> Option<(u64, u64)> {
    let seq = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let total = u64::from_le_bytes(payload.get(8..16)?.try_into().ok()?);
    Some((seq, total))
}

/// Encodes one parity write: generation id, the covered slots, padded
/// to the generation's largest block (a real Reed–Solomon parity block
/// is block-sized).
pub(super) fn encode_parity(gen: u64, slots: &[(u64, u64)], pad: u64) -> Bytes {
    let header = 16 + 16 * slots.len();
    let wire_len = header.max(pad as usize);
    let mut buf = vec![0u8; wire_len];
    buf[..8].copy_from_slice(&gen.to_le_bytes());
    buf[8..16].copy_from_slice(&(slots.len() as u64).to_le_bytes());
    for (i, &(seq, total)) in slots.iter().enumerate() {
        let at = 16 + 16 * i;
        buf[at..at + 8].copy_from_slice(&seq.to_le_bytes());
        buf[at + 8..at + 16].copy_from_slice(&total.to_le_bytes());
    }
    Bytes::from(buf)
}

/// Decodes a parity header; `None` on a malformed length, which
/// includes a slot count (the peer's word) the payload has no room for.
pub(super) fn decode_parity(payload: &[u8]) -> Option<(u64, Vec<(u64, u64)>)> {
    let gen = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    let count = u64::from_le_bytes(payload.get(8..16)?.try_into().ok()?);
    let count = usize::try_from(count)
        .ok()
        .filter(|&count| count <= (payload.len() - 16) / 16)?;
    let mut slots = Vec::with_capacity(count);
    for i in 0..count {
        let at = 16 + 16 * i;
        let seq = u64::from_le_bytes(payload.get(at..at + 8)?.try_into().ok()?);
        let total = u64::from_le_bytes(payload.get(at + 8..at + 16)?.try_into().ok()?);
        slots.push((seq, total));
    }
    Some((gen, slots))
}

/// Encodes a frontier probe (the sender's `next_seq`).
pub(super) fn encode_probe(frontier: u64) -> Bytes {
    Bytes::copy_from_slice(&frontier.to_le_bytes())
}

/// Decodes a frontier probe; `None` on a malformed length.
pub(super) fn decode_probe(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?))
}

/// Collapses a sorted sequence list into contiguous `(base, span)`
/// ranges, one NACK each.
pub(super) fn contiguous_ranges(seqs: &[u64]) -> Vec<(u64, u32)> {
    let mut out: Vec<(u64, u32)> = Vec::new();
    for &s in seqs {
        match out.last_mut() {
            Some((base, span)) if *base + u64::from(*span) == s => *span += 1,
            _ => out.push((s, 1)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nack_codec_roundtrip_and_is_tiny() {
        let b = encode_nack(42, 7);
        assert!(b.len() <= 256, "NACKs must ride the reliable bypass");
        assert_eq!(decode_nack(&b), Some((42, 7)));
        assert_eq!(decode_nack(&b[..5]), None);
    }

    #[test]
    fn repair_codec_pads_to_block_length() {
        let b = encode_repair(9, 1 << 20, 65536);
        assert_eq!(b.len(), 65536);
        assert_eq!(decode_repair(&b), Some((9, 1 << 20)));
        // Tiny blocks still carry the full header.
        assert_eq!(encode_repair(0, 10, 10).len(), 24);
    }

    #[test]
    fn parity_codec_roundtrip() {
        let slots = vec![(4, 1000), (5, 1000), (6, 1000)];
        let b = encode_parity(2, &slots, 65536);
        assert_eq!(b.len(), 65536);
        assert_eq!(decode_parity(&b), Some((2, slots)));
        assert_eq!(decode_parity(&b[..20]), None);
    }

    #[test]
    fn probe_codec_roundtrip() {
        let b = encode_probe(123);
        assert!(b.len() <= 256);
        assert_eq!(decode_probe(&b), Some(123));
    }

    #[test]
    fn ranges_collapse_contiguous_runs() {
        assert_eq!(
            contiguous_ranges(&[1, 2, 3, 7, 9, 10]),
            vec![(1, 3), (7, 1), (9, 2)]
        );
        assert!(contiguous_ranges(&[]).is_empty());
    }
}
