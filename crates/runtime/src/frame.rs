//! The one frame shape of the multiprocess mesh. After the rendezvous
//! hello, every byte two ranks exchange travels as
//!
//! ```text
//! tag:u8 | word:u64 | len:u32 | crc(header):u32 | payload | crc(payload):u32
//! ```
//!
//! built by [`encode`] and parsed by [`read`]. The CRC32C fields travel at
//! `LS_INTEGRITY=wire|full`, the payload's only behind a non-empty payload.
//!
//! | tag | `word` | payload |
//! |---|---|---|
//! | `COLL` | collective sequence | data |
//! | `CHAN` | channel id | batch |
//! | `CLOSE`, `CREDIT` | channel id | none |
//! | `ABORT` | `origin << 32` or'd with the exit code | reason |
//! | `PING` | 0 | none |
//!
//! The header is sealed apart from the payload so that [`read`] refuses a
//! bad header before `len` sizes any allocation: nothing behind it on the
//! stream can be trusted. A bad payload or a bad header alike aborts the
//! job with exit 115 (the receiver names the frame's tag, or `header`).

use crate::crc32c::crc32c;
use crate::fault::FrameClass;
use crate::transport::TransportError;
use bytes::{Buf, BufMut};
use std::io::Read;

// The tags, fixed on the wire. A frame travels on the one TCP stream
// between an ordered pair of ranks, so per-peer FIFO holds.
pub(crate) const TAG_COLL: u8 = 1; // a collective's contribution
pub(crate) const TAG_CHAN: u8 = 2; // a channel batch
pub(crate) const TAG_CLOSE: u8 = 3; // a channel's end of stream for this product
pub(crate) const TAG_CREDIT: u8 = 4; // a channel batch credit back to the producer
pub(crate) const TAG_ABORT: u8 = 6; // job-abort fan-out
pub(crate) const TAG_PING: u8 = 7; // heartbeat

/// Bytes of `tag | word | len`.
pub(crate) const HEAD: usize = 13;
/// Bytes of a CRC32C field.
const CRC: usize = 4;

/// One decoded frame.
#[derive(Debug, PartialEq)]
pub(crate) struct Frame {
    pub(crate) tag: u8,
    pub(crate) word: u64,
    pub(crate) payload: Vec<u8>,
}

/// Why [`read`] returned no intact frame.
#[derive(Debug)]
pub(crate) enum ReadError {
    /// The stream ended or failed mid-frame: the peer is gone.
    Lost,
    /// The header failed its CRC. Nothing past the header CRC was read.
    Header,
    /// The payload failed its CRC; the stream is still framed.
    Payload(Frame),
}

/// The length field of a frame carrying `len` payload bytes. A frame
/// counts its payload in a `u32`, so a longer payload is refused by size
/// instead of sent with a length that wrapped.
pub(crate) fn frame_len(len: usize) -> Result<u32, TransportError> {
    u32::try_from(len).map_err(|_| TransportError::Protocol {
        detail: format!("a {len}-byte payload exceeds the {}-byte frame limit", u32::MAX),
    })
}

/// Bytes before the payload: the header, and its CRC when `sealed`.
pub(crate) fn header_len(sealed: bool) -> usize {
    HEAD + if sealed { CRC } else { 0 }
}

/// Bytes a frame with `len` payload bytes occupies on the wire.
pub(crate) fn wire_len(len: usize, sealed: bool) -> usize {
    header_len(sealed) + len + if sealed && len > 0 { CRC } else { 0 }
}

/// The one encoder: a frame's wire bytes, with both CRCs when `sealed`.
pub(crate) fn encode(
    tag: u8,
    word: u64,
    payload: &[u8],
    sealed: bool,
) -> Result<Vec<u8>, TransportError> {
    let len = frame_len(payload.len())?;
    let mut out = Vec::with_capacity(wire_len(payload.len(), sealed));
    out.put_u8(tag);
    out.put_u64_le(word);
    out.put_u32_le(len);
    if sealed {
        out.put_u32_le(crc32c(&out));
    }
    out.put_slice(payload);
    if sealed && !payload.is_empty() {
        out.put_u32_le(crc32c(payload));
    }
    Ok(out)
}

/// The one decoder: the next frame off `r`, both CRCs checked when
/// `sealed`.
pub(crate) fn read<R: Read>(r: &mut R, sealed: bool) -> Result<Frame, ReadError> {
    let lost = |_| ReadError::Lost;
    let mut buf = [0u8; HEAD + CRC];
    let head = &mut buf[..header_len(sealed)];
    r.read_exact(head).map_err(lost)?;
    let mut h: &[u8] = head;
    let (tag, word, len) = (h.get_u8(), h.get_u64_le(), h.get_u32_le() as usize);
    if sealed && h.get_u32_le() != crc32c(&head[..HEAD]) {
        return Err(ReadError::Header);
    }
    let mut frame = Frame { tag, word, payload: vec![0u8; len] };
    r.read_exact(&mut frame.payload).map_err(lost)?;
    if sealed && len > 0 {
        let mut crc = [0u8; CRC];
        r.read_exact(&mut crc).map_err(lost)?;
        if u32::from_le_bytes(crc) != crc32c(&frame.payload) {
            return Err(ReadError::Payload(frame));
        }
    }
    Ok(frame)
}

/// Whether a frame counts in the wire statistics, on send and on receive
/// alike: every frame but the heartbeat, so the numbers do not depend on
/// how long a run idles.
pub(crate) fn counted(tag: u8) -> bool {
    tag != TAG_PING
}

/// The `LS_FAULT` class of a frame of this tag (`Any` for the fan-outs,
/// which no fault delays or flips).
pub(crate) fn class(tag: u8) -> FrameClass {
    match tag {
        TAG_COLL => FrameClass::Coll,
        TAG_CHAN => FrameClass::Chan,
        TAG_CLOSE => FrameClass::Close,
        TAG_CREDIT => FrameClass::Credit,
        _ => FrameClass::Any,
    }
}

/// The tag's name, as corruption reports print it.
pub(crate) fn name(tag: u8) -> &'static str {
    match tag {
        TAG_ABORT => "abort",
        TAG_PING => "ping",
        _ => class(tag).name(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TAGS: [u8; 6] = [TAG_COLL, TAG_CHAN, TAG_CLOSE, TAG_CREDIT, TAG_ABORT, TAG_PING];

    /// A frame of `tag` shaped like the mesh sends it.
    fn sample(tag: u8) -> Frame {
        let (word, payload): (u64, Vec<u8>) = match tag {
            TAG_COLL => (41, (1..10).collect()),
            TAG_CHAN => (17, vec![0xAB; 24]),
            TAG_ABORT => ((2 << 32) | 114, b"peer rank 1 failed".to_vec()),
            TAG_PING => (0, Vec::new()),
            _ => (17, Vec::new()),
        };
        Frame { tag, word, payload }
    }

    fn bytes_of(f: &Frame, sealed: bool) -> Vec<u8> {
        encode(f.tag, f.word, &f.payload, sealed).unwrap()
    }

    #[test]
    fn every_tag_round_trips_sealed_and_unsealed() {
        for sealed in [false, true] {
            let barrier = Frame { tag: TAG_COLL, word: 5, payload: Vec::new() };
            for f in TAGS.map(sample).into_iter().chain([barrier]) {
                let bytes = bytes_of(&f, sealed);
                assert_eq!(bytes.len(), wire_len(f.payload.len(), sealed));
                let mut r: &[u8] = &bytes;
                assert_eq!(read(&mut r, sealed).unwrap(), f, "{} sealed={sealed}", name(f.tag));
                assert!(r.is_empty(), "{} left bytes behind", name(f.tag));
            }
            let (a, b) = (sample(TAG_CHAN), sample(TAG_CREDIT));
            let two = [bytes_of(&a, sealed), bytes_of(&b, sealed)].concat();
            let mut r: &[u8] = &two;
            assert_eq!(read(&mut r, sealed).unwrap(), a);
            assert_eq!(read(&mut r, sealed).unwrap(), b);
            assert!(matches!(read(&mut r, sealed), Err(ReadError::Lost)));
        }
    }

    #[test]
    fn every_single_bit_flip_of_a_sealed_frame_is_caught() {
        for tag in [TAG_CLOSE, TAG_CREDIT, TAG_PING, TAG_ABORT, TAG_COLL] {
            let clean = bytes_of(&sample(tag), true);
            for bit in 0..clean.len() * 8 {
                let mut bytes = clean.clone();
                bytes[bit / 8] ^= 1 << (bit % 8);
                let mut r: &[u8] = &bytes;
                match read(&mut r, true) {
                    Err(ReadError::Header) if bit / 8 < header_len(true) => {
                        assert_eq!(
                            r.len(),
                            clean.len() - header_len(true),
                            "read past the header"
                        )
                    }
                    Err(ReadError::Payload(f)) if bit / 8 >= header_len(true) => {
                        assert_eq!(f.tag, tag)
                    }
                    other => panic!("{} bit {bit}: {other:?}", name(tag)),
                }
            }
        }
    }

    #[test]
    fn every_proper_prefix_is_a_lost_peer() {
        for sealed in [false, true] {
            for tag in TAGS {
                let bytes = bytes_of(&sample(tag), sealed);
                for cut in 0..bytes.len() {
                    let mut r: &[u8] = &bytes[..cut];
                    let got = read(&mut r, sealed);
                    assert!(matches!(got, Err(ReadError::Lost)), "{} cut {cut}", name(tag));
                }
            }
        }
    }

    #[test]
    fn frame_lengths_refuse_what_a_u32_cannot_count() {
        assert_eq!(frame_len(0).unwrap(), 0);
        assert_eq!(frame_len(1).unwrap(), 1);
        assert_eq!(frame_len(u32::MAX as usize).unwrap(), u32::MAX);
        let too_long = u32::MAX as usize + 1;
        let err = frame_len(too_long).unwrap_err();
        assert_eq!(err.exit_code(), crate::transport::EXIT_PROTOCOL);
        assert!(err.to_string().contains(&format!("{too_long}-byte payload")), "{err}");
    }
}
