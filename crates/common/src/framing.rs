//! Length-prefixed, CRC32-checksummed record framing shared by the
//! server's write-ahead log and its tests (DESIGN.md §14).
//!
//! A frame on disk is `[len: u32 LE][crc: u32 LE][payload: len bytes]`
//! where `crc` is the CRC-32 (ISO-HDLC / IEEE 802.3 polynomial,
//! reflected, init and xorout `0xFFFF_FFFF`) of the payload alone.
//! Decoding distinguishes three outcomes so a log reader can tell a
//! torn tail (crash mid-write: tolerate and truncate) from mid-log
//! corruption (bit rot: refuse):
//!
//! - [`FrameStatus::Complete`] — a whole frame with a matching CRC.
//! - [`FrameStatus::Torn`] — the buffer ends before the frame does.
//! - [`FrameStatus::Corrupt`] — the frame is all there but the CRC
//!   disagrees; `consumed` reports its full length so the caller can
//!   check whether anything follows it.

/// Bytes of framing overhead per record: a `u32` length plus a `u32` CRC.
pub const FRAME_HEADER_LEN: usize = 8;

/// Largest payload a frame will declare or accept. Anything bigger in a
/// length prefix is treated as corruption rather than an allocation.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 30;

const CRC_TABLE: [u32; 256] = crc32_table();

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

/// CRC-32 (ISO-HDLC) of `bytes`. `crc32(b"123456789") == 0xCBF43926`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

/// Outcome of decoding the frame at the front of a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameStatus<'a> {
    /// A whole frame with a valid checksum; `consumed` bytes cover the
    /// header plus payload.
    Complete { payload: &'a [u8], consumed: usize },
    /// The buffer ends mid-frame — fewer than [`FRAME_HEADER_LEN`]
    /// bytes, or a declared length that runs past the end.
    Torn,
    /// The frame is fully present but its CRC (or a length prefix
    /// beyond [`MAX_FRAME_PAYLOAD`]) disagrees. `consumed` is the
    /// frame's declared extent, so a caller can classify a corrupt
    /// *final* frame as a torn tail instead.
    Corrupt { consumed: usize },
}

/// Encodes `payload` as one frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
    frame_into(&mut out, |out| out.extend_from_slice(payload));
    out
}

/// Appends one frame to `out` whose payload is whatever `write` appends:
/// the header is reserved first and filled in afterwards, so a caller
/// that reuses `out` frames a record without allocating or copying it.
pub fn frame_into(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_LEN]);
    write(out);
    let payload = header + FRAME_HEADER_LEN;
    assert!(out.len() - payload <= MAX_FRAME_PAYLOAD, "frame payload too large");
    let (len, crc) = ((out.len() - payload) as u32, crc32(&out[payload..]));
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..payload].copy_from_slice(&crc.to_le_bytes());
}

/// Decodes the frame at the front of `buf`. Never panics on arbitrary
/// input — truncation at any byte offset yields `Torn` or `Corrupt`,
/// never an out-of-bounds read.
pub fn decode_frame(buf: &[u8]) -> FrameStatus<'_> {
    if buf.len() < FRAME_HEADER_LEN {
        return FrameStatus::Torn;
    }
    let len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        // An absurd length prefix cannot be trusted as an extent; treat
        // the frame as corrupt where it stands.
        return FrameStatus::Corrupt { consumed: FRAME_HEADER_LEN };
    }
    let expect = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]);
    let end = FRAME_HEADER_LEN + len;
    if buf.len() < end {
        return FrameStatus::Torn;
    }
    let payload = &buf[FRAME_HEADER_LEN..end];
    if crc32(payload) != expect {
        return FrameStatus::Corrupt { consumed: end };
    }
    FrameStatus::Complete { payload, consumed: end }
}

/// Sequential little-endian reader over a record payload. Every getter
/// returns `None` past the end instead of panicking, so record decoding
/// degrades to a parse error on truncated or hostile input.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        if self.remaining() < n {
            return None;
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Some(out)
    }

    pub fn u8(&mut self) -> Option<u8> {
        self.bytes(1).map(|b| b[0])
    }

    pub fn u16(&mut self) -> Option<u16> {
        self.bytes(2).map(|b| u16::from_le_bytes([b[0], b[1]]))
    }

    pub fn u32(&mut self) -> Option<u32> {
        self.bytes(4).map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub fn u64(&mut self) -> Option<u64> {
        self.bytes(8).map(|b| u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_the_iso_hdlc_check_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip() {
        for payload in [&b""[..], b"x", b"hello world", &[0u8; 1024]] {
            let frame = encode_frame(payload);
            assert_eq!(frame.len(), FRAME_HEADER_LEN + payload.len());
            match decode_frame(&frame) {
                FrameStatus::Complete { payload: got, consumed } => {
                    assert_eq!(got, payload);
                    assert_eq!(consumed, frame.len());
                }
                other => panic!("expected Complete, got {other:?}"),
            }
        }
    }

    #[test]
    fn truncation_at_every_offset_is_torn_never_corrupt() {
        let frame = encode_frame(b"the quick brown fox");
        for cut in 0..frame.len() {
            assert_eq!(decode_frame(&frame[..cut]), FrameStatus::Torn, "cut at {cut}");
        }
    }

    #[test]
    fn payload_bit_flips_are_corrupt_with_the_full_extent() {
        let payload = b"payload under test";
        let mut frame = encode_frame(payload);
        frame[FRAME_HEADER_LEN + 3] ^= 0x40;
        assert_eq!(decode_frame(&frame), FrameStatus::Corrupt { consumed: frame.len() });
    }

    #[test]
    fn absurd_length_prefixes_are_corrupt_not_allocations() {
        let mut frame = encode_frame(b"ok");
        frame[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(decode_frame(&frame), FrameStatus::Corrupt { consumed: FRAME_HEADER_LEN });
    }

    #[test]
    fn byte_reader_refuses_to_run_past_the_end() {
        let mut r = ByteReader::new(&[1, 0, 0, 0, 0, 0, 0, 0, 7]);
        assert_eq!(r.u64(), Some(1));
        assert_eq!(r.u16(), None, "2 bytes requested, 1 remains");
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u8(), None);
    }
}
