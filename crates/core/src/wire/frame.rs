//! The length-prefixed frame layer.
//!
//! A frame is a 4-byte big-endian payload length followed by that many
//! payload bytes (JSON, but this layer does not care). The decoder is a
//! plain state machine over [`std::io::Read`], so the same code path
//! serves live sockets and the in-memory cursors the property tests feed
//! it; it tracks the frame ordinal and absolute byte offset so every
//! failure is positioned.

use super::{WireError, WireResult};
use std::io::{Read, Write};

/// Hard cap on a single frame's payload. Large enough for thousands of
/// operations (a client sends at most `DISPATCH_BATCH`), small enough
/// that a garbage length prefix cannot make the server try to allocate
/// gigabytes.
pub const MAX_FRAME_LEN: u64 = 16 * 1024 * 1024;

/// Incremental frame decoder over any [`Read`], tracking position for
/// error reporting.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// Frames completed so far on this stream (ordinal of the next frame).
    frame: u64,
    /// Absolute byte offset consumed from the stream.
    offset: u64,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a byte source.
    pub fn new(inner: R) -> Self {
        FrameReader {
            inner,
            frame: 0,
            offset: 0,
        }
    }

    /// Ordinal of the next frame (0-based).
    pub fn frame_ordinal(&self) -> u64 {
        self.frame
    }

    /// Absolute byte offset consumed so far.
    pub fn byte_offset(&self) -> u64 {
        self.offset
    }

    /// Reads one frame's payload. `Ok(None)` means the stream ended
    /// cleanly on a frame boundary; ending anywhere else is
    /// [`WireError::Truncated`]. Socket deadline expiry maps to
    /// [`WireError::Timeout`].
    pub fn read_frame(&mut self) -> WireResult<Option<Vec<u8>>> {
        let start = self.offset;
        let mut prefix = [0u8; 4];
        match self.read_exact_counted(&mut prefix) {
            Ok(0) => return Ok(None),
            Ok(got) if got < 4 => {
                return Err(WireError::Truncated {
                    frame: self.frame,
                    offset: start,
                    expected: 4,
                    got: got as u64,
                })
            }
            Ok(_) => {}
            Err(e) => return Err(self.io_error(e, "reading frame length prefix")),
        }
        let len = u32::from_be_bytes(prefix) as u64;
        if len == 0 {
            return Err(WireError::Malformed {
                frame: self.frame,
                offset: start,
                reason: "zero-length frame".to_string(),
            });
        }
        if len > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                frame: self.frame,
                offset: start,
                len,
                max: MAX_FRAME_LEN,
            });
        }
        let mut payload = vec![0u8; len as usize];
        match self.read_exact_counted(&mut payload) {
            Ok(got) if (got as u64) < len => {
                return Err(WireError::Truncated {
                    frame: self.frame,
                    offset: start,
                    expected: len,
                    got: got as u64,
                })
            }
            Ok(_) => {}
            Err(e) => return Err(self.io_error(e, "reading frame payload")),
        }
        self.frame += 1;
        Ok(Some(payload))
    }

    /// Fills `buf` as far as the stream allows, counting consumed bytes
    /// into `self.offset`; returns how many bytes were read (short only
    /// at EOF).
    fn read_exact_counted(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let mut filled = 0usize;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => break,
                Ok(n) => {
                    filled += n;
                    self.offset += n as u64;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(filled)
    }

    fn io_error(&self, e: std::io::Error, context: &str) -> WireError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::Timeout {
                context: format!("{context} (frame {}, byte {})", self.frame, self.offset),
            },
            _ => WireError::Io {
                context: format!(
                    "{context} (frame {}, byte {}): {e}",
                    self.frame, self.offset
                ),
            },
        }
    }
}

/// Writes one frame (length prefix + payload). The caller flushes.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> WireResult<()> {
    if payload.is_empty() || payload.len() as u64 > MAX_FRAME_LEN {
        return Err(WireError::Malformed {
            frame: 0,
            offset: 0,
            reason: format!("refusing to write a {}-byte frame", payload.len()),
        });
    }
    let prefix = (payload.len() as u32).to_be_bytes();
    w.write_all(&prefix)
        .and_then(|()| w.write_all(payload))
        .map_err(|e| WireError::Io {
            context: format!("writing frame: {e}"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn encode(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p).unwrap();
        }
        out
    }

    #[test]
    fn round_trips_frames_in_order() {
        let bytes = encode(&[b"hello", b"world", &[0xFFu8; 300]]);
        let mut r = FrameReader::new(Cursor::new(bytes));
        assert_eq!(r.read_frame().unwrap().unwrap(), b"hello");
        assert_eq!(r.read_frame().unwrap().unwrap(), b"world");
        assert_eq!(r.read_frame().unwrap().unwrap(), vec![0xFFu8; 300]);
        assert_eq!(r.read_frame().unwrap(), None);
        assert_eq!(r.frame_ordinal(), 3);
    }

    #[test]
    fn truncated_prefix_is_positioned() {
        let mut bytes = encode(&[b"ok"]);
        bytes.extend_from_slice(&[0, 0]); // half a length prefix
        let mut r = FrameReader::new(Cursor::new(bytes));
        r.read_frame().unwrap().unwrap();
        match r.read_frame().unwrap_err() {
            WireError::Truncated {
                frame,
                offset,
                expected,
                got,
            } => {
                assert_eq!(frame, 1);
                assert_eq!(offset, 6); // 4-byte prefix + "ok"
                assert_eq!(expected, 4);
                assert_eq!(got, 2);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn truncated_payload_is_positioned() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&10u32.to_be_bytes());
        bytes.extend_from_slice(b"only4");
        let mut r = FrameReader::new(Cursor::new(bytes));
        match r.read_frame().unwrap_err() {
            WireError::Truncated { expected, got, .. } => {
                assert_eq!(expected, 10);
                assert_eq!(got, 5);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }

    #[test]
    fn oversized_prefix_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = FrameReader::new(Cursor::new(bytes));
        match r.read_frame().unwrap_err() {
            WireError::Oversized { len, max, .. } => {
                assert_eq!(len, u32::MAX as u64);
                assert_eq!(max, MAX_FRAME_LEN);
            }
            other => panic!("expected Oversized, got {other:?}"),
        }
    }

    #[test]
    fn zero_length_frame_is_malformed() {
        let mut r = FrameReader::new(Cursor::new(0u32.to_be_bytes().to_vec()));
        assert!(matches!(
            r.read_frame().unwrap_err(),
            WireError::Malformed { .. }
        ));
    }

    #[test]
    fn writer_refuses_empty_and_oversized() {
        let mut out = Vec::new();
        assert!(write_frame(&mut out, b"").is_err());
        assert!(out.is_empty());
    }
}
