//! Robustness tests for the wire protocol: the frame decoder and request
//! decoder must never panic on truncated, mangled, oversized, or garbage
//! input (property-tested), decode failures must carry frame ordinal and
//! byte-offset positions, and a live server fed malformed bytes or a
//! wrong-version handshake must close that connection cleanly and keep
//! accepting new ones.

use lsbench::core::sut_registry::SutRegistry;
use lsbench::core::wire::frame::{write_frame, FrameReader};
use lsbench::core::wire::proto::{
    decode_request, decode_response, encode_request, encode_response,
};
use lsbench::core::wire::{
    Request, RequestFrame, Response, WireError, WireServer, MAX_FRAME_LEN, PROTOCOL_VERSION,
};
use proptest::collection::vec;
use proptest::prelude::*;
use std::io::{Cursor, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn hello_frame(id: u64, version: u32) -> Vec<u8> {
    let mut buf = Vec::new();
    let payload = encode_request(&RequestFrame {
        id,
        req: Request::Hello {
            version,
            client: "wire-protocol-test".to_string(),
        },
    });
    write_frame(&mut buf, &payload).expect("encodes");
    buf
}

/// A well-formed two-frame stream: Hello then Metrics.
fn two_frame_stream() -> Vec<u8> {
    let mut buf = hello_frame(0, PROTOCOL_VERSION);
    let payload = encode_request(&RequestFrame {
        id: 1,
        req: Request::Metrics,
    });
    write_frame(&mut buf, &payload).expect("encodes");
    buf
}

// ---------------------------------------------------------------------------
// Deterministic positioned-error cases.
// ---------------------------------------------------------------------------

#[test]
fn truncation_in_second_frame_is_positioned_at_frame_one() {
    let stream = two_frame_stream();
    let first_len = hello_frame(0, PROTOCOL_VERSION).len();
    // Cut mid-way through the second frame's payload.
    let cut = first_len + 4 + 2;
    let mut reader = FrameReader::new(Cursor::new(stream[..cut].to_vec()));
    assert!(reader.read_frame().expect("first frame intact").is_some());
    match reader.read_frame() {
        Err(WireError::Truncated { frame, offset, .. }) => {
            assert_eq!(frame, 1, "ordinal counts completed frames");
            assert_eq!(offset as usize, first_len, "offset of the frame start");
        }
        other => panic!("expected positioned truncation, got {other:?}"),
    }
}

#[test]
fn oversized_frame_is_refused_before_allocation() {
    let mut buf = Vec::new();
    buf.extend_from_slice(&u32::MAX.to_be_bytes());
    buf.extend_from_slice(b"xx");
    let mut reader = FrameReader::new(Cursor::new(buf));
    match reader.read_frame() {
        Err(WireError::Oversized { len, max, .. }) => {
            assert_eq!(len, u32::MAX as u64);
            assert_eq!(max, MAX_FRAME_LEN);
        }
        other => panic!("expected oversized refusal, got {other:?}"),
    }
}

#[test]
fn malformed_payload_reports_frame_and_offset() {
    let mut buf = Vec::new();
    write_frame(&mut buf, b"not json at all").expect("frame encodes");
    let mut reader = FrameReader::new(Cursor::new(buf));
    let payload = reader.read_frame().expect("reads").expect("one frame");
    // The decoder is handed the position the reader tracked.
    let offset = reader.byte_offset() - payload.len() as u64;
    match decode_request(&payload, 0, offset) {
        Err(WireError::Malformed {
            frame, offset: o, ..
        }) => {
            assert_eq!(frame, 0);
            assert_eq!(o, 4, "payload starts after the 4-byte prefix");
        }
        other => panic!("expected malformed, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Property suite: the decoder path never panics, whatever the bytes.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary garbage streams: every outcome is a value, never a panic,
    /// and a clean EOF is only ever reported at a frame boundary.
    #[test]
    fn frame_reader_never_panics_on_garbage(bytes in vec(any::<u8>(), 0..256)) {
        let empty = bytes.is_empty();
        let mut reader = FrameReader::new(Cursor::new(bytes));
        match reader.read_frame() {
            Ok(None) => prop_assert!(empty || reader.byte_offset() == 0),
            Ok(Some(payload)) => prop_assert!(!payload.is_empty()),
            Err(_) => {}
        }
    }

    /// A valid stream truncated at every possible point either yields the
    /// intact prefix frames, a clean EOF, or a positioned truncation error
    /// — never a panic, never a partial frame.
    #[test]
    fn truncated_valid_streams_never_panic(cut in 0usize..200) {
        let stream = two_frame_stream();
        let cut = cut.min(stream.len());
        let mut reader = FrameReader::new(Cursor::new(stream[..cut].to_vec()));
        loop {
            match reader.read_frame() {
                Ok(Some(payload)) => {
                    // Any frame that decodes intact must decode as a request.
                    prop_assert!(decode_request(&payload, 0, 0).is_ok());
                }
                Ok(None) => break,
                Err(WireError::Truncated { .. }) => break,
                Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// Flipping any single byte of a valid stream never panics the reader
    /// or the JSON decoders.
    #[test]
    fn single_byte_corruption_never_panics(pos in 0usize..100, flip in 1u8..=255) {
        let mut stream = two_frame_stream();
        let pos = pos % stream.len();
        stream[pos] ^= flip;
        let mut reader = FrameReader::new(Cursor::new(stream));
        for _ in 0..4 {
            match reader.read_frame() {
                Ok(Some(payload)) => {
                    let _ = decode_request(&payload, 0, 0);
                    let _ = decode_response(&payload, 0, 0);
                }
                Ok(None) | Err(_) => break,
            }
        }
    }

    /// Arbitrary bytes through the JSON decoders: never a panic, and the
    /// reported position is exactly what the caller handed in.
    #[test]
    fn payload_decoders_never_panic(bytes in vec(any::<u8>(), 0..128), frame in 0u64..9, offset in 0u64..999) {
        if let Err(e) = decode_request(&bytes, frame, offset) {
            match e {
                WireError::Malformed { frame: f, offset: o, .. } => {
                    prop_assert_eq!(f, frame);
                    prop_assert_eq!(o, offset);
                }
                other => prop_assert!(false, "unexpected error {other:?}"),
            }
        }
    }

    /// encode ∘ decode = id for request frames over printable client names.
    #[test]
    fn request_frames_round_trip(id in any::<u64>(), client in "[ -~]{0,40}") {
        let frame = RequestFrame {
            id,
            req: Request::Hello { version: PROTOCOL_VERSION, client },
        };
        let decoded = decode_request(&encode_request(&frame), 0, 0).expect("round-trips");
        prop_assert_eq!(decoded, frame);
    }
}

// ---------------------------------------------------------------------------
// Real-socket smoke: a live server survives malformed clients.
// ---------------------------------------------------------------------------

fn read_one_response(stream: &mut TcpStream) -> Response {
    let mut reader = FrameReader::new(stream.try_clone().expect("clone"));
    let payload = reader
        .read_frame()
        .expect("server answers")
        .expect("one frame");
    decode_response(&payload, 0, 0).expect("decodes").resp
}

/// After garbage bytes and a wrong-version handshake — each closing its
/// own connection — the server still accepts and serves new clients.
#[test]
fn server_survives_garbage_and_version_mismatch() {
    let server = WireServer::bind("127.0.0.1:0", SutRegistry::default(), "btree")
        .expect("binds")
        .spawn()
        .expect("spawns");
    let addr = server.addr();

    // 1. Raw garbage: the connection just closes (no panic, no reply frame
    //    required to parse).
    {
        let mut s = TcpStream::connect(addr).expect("connects");
        s.write_all(b"\xff\xff\xff\xffgarbage").expect("writes");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let mut buf = Vec::new();
        let _ = s.read_to_end(&mut buf); // server closes; maybe after an Error frame
    }

    // 2. Wrong protocol version: the server answers VersionMismatch with
    //    its own version, then closes.
    {
        let mut s = TcpStream::connect(addr).expect("connects");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&hello_frame(0, PROTOCOL_VERSION + 7)).unwrap();
        match read_one_response(&mut s) {
            Response::VersionMismatch { server: v } => assert_eq!(v, PROTOCOL_VERSION),
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    // 3. A well-behaved client still gets a clean handshake afterwards.
    {
        let mut s = TcpStream::connect(addr).expect("connects");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&hello_frame(0, PROTOCOL_VERSION)).unwrap();
        match read_one_response(&mut s) {
            Response::HelloOk { version, sut } => {
                assert_eq!(version, PROTOCOL_VERSION);
                assert_eq!(sut, "btree");
            }
            other => panic!("expected HelloOk, got {other:?}"),
        }
    }

    server.shutdown();
}

/// One frame under the size limit can nest a million arrays deep. The JSON
/// reader recurses once per level on every path (typed, skipped, value
/// tree), so it refuses at a fixed depth rather than run the connection's
/// thread — and with it the process — out of stack.
#[test]
fn server_answers_the_next_connection_after_a_million_deep_frame() {
    let server = WireServer::bind("127.0.0.1:0", SutRegistry::default(), "btree")
        .expect("binds")
        .spawn()
        .expect("spawns");
    let deep = "[".repeat(1_000_000);
    for payload in [
        deep.clone(),
        format!("{{\"id\":0,\"req\":{deep}"),
        format!("{{\"id\":0,\"unknown\":{deep}"),
    ] {
        assert!(payload.len() < MAX_FRAME_LEN as usize);
        match decode_request(payload.as_bytes(), 0, 0) {
            Err(WireError::Malformed { reason, .. }) => {
                assert!(
                    reason.starts_with("recursion limit exceeded at byte "),
                    "{reason}"
                )
            }
            other => panic!("expected malformed, got {other:?}"),
        }
        let mut frame = Vec::new();
        write_frame(&mut frame, payload.as_bytes()).expect("encodes");
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&frame).expect("writes");
        let mut reply = Vec::new();
        let _ = s.read_to_end(&mut reply); // an Error frame, then the server closes
    }
    {
        let mut s = TcpStream::connect(server.addr()).expect("connects");
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        s.write_all(&hello_frame(0, PROTOCOL_VERSION)).unwrap();
        match read_one_response(&mut s) {
            Response::HelloOk { version, .. } => assert_eq!(version, PROTOCOL_VERSION),
            other => panic!("expected HelloOk, got {other:?}"),
        }
    }
    server.shutdown();
}

/// Skipping the handshake is a protocol violation: the server reports an
/// error frame (or closes) instead of executing anything.
#[test]
fn execute_before_hello_is_refused() {
    let server = WireServer::bind("127.0.0.1:0", SutRegistry::default(), "btree")
        .expect("binds")
        .spawn()
        .expect("spawns");
    let mut s = TcpStream::connect(server.addr()).expect("connects");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let payload = encode_request(&RequestFrame {
        id: 0,
        req: Request::Metrics,
    });
    let mut buf = Vec::new();
    write_frame(&mut buf, &payload).unwrap();
    s.write_all(&buf).unwrap();
    match read_one_response(&mut s) {
        Response::Error { reason } => assert!(
            reason.contains("Hello"),
            "error names the handshake rule: {reason}"
        ),
        other => panic!("expected protocol error, got {other:?}"),
    }
    drop(s);
    server.shutdown();
}

/// `encode_response` output is what the client-side decoder consumes —
/// pin the round trip for the response direction too.
#[test]
fn response_frames_round_trip() {
    use lsbench::core::wire::ResponseFrame;
    let frame = ResponseFrame {
        id: 42,
        resp: Response::Work { work: 1234 },
    };
    let decoded = decode_response(&encode_response(&frame), 0, 0).expect("round-trips");
    assert_eq!(decoded, frame);
}
