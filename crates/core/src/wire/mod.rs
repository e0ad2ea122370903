//! Out-of-process SUTs over a length-prefixed wire protocol.
//!
//! The source paper's original benchmark design runs the driver **on a
//! separate machine over a fast network**; the in-process harness earned
//! that deviation back piece by piece, and this module closes the gap: a
//! [`WireServer`] hosts any registered SUT behind a TCP socket speaking a
//! small versioned frame protocol, and a [`RemoteSut`] adapter implements
//! [`SystemUnderTest`](lsbench_sut::sut::SystemUnderTest) over one
//! connection, one batch frame per `execute_many` call — so the driver
//! never learns whether its SUT crossed a process boundary.
//!
//! The protocol is deliberately primitive so SUTs in any language can
//! implement it: each frame is a 4-byte big-endian payload length followed
//! by a JSON object (see [`proto`]), the first exchange on every
//! connection is a [`PROTOCOL_VERSION`] handshake, and every decode
//! failure is a typed, *positioned* [`WireError`] (frame ordinal + byte
//! offset) followed by a clean connection close — never a panic.
//!
//! **Determinism.** The in-process virtual-clock mode remains the
//! conformance oracle: a remote run over a healthy transport produces a
//! [`RunRecord`](crate::record::RunRecord) bit-identical to the local run
//! of the same scenario (enforced by `tests/remote_conformance.rs`),
//! because SUT work units — not wall time — still drive the virtual
//! clock. Real socket deadlines, when enabled, flow through the **same**
//! timeout/retry ledger as chaos-injected faults
//! ([`FaultStats`](crate::faults::FaultStats)), so a network timeout and
//! an injected one are indistinguishable in the record.

pub mod client;
pub mod frame;
pub mod proto;
pub mod server;

pub use client::RemoteSut;
pub use frame::{FrameReader, MAX_FRAME_LEN};
pub use proto::{ExecReply, Request, RequestFrame, Response, ResponseFrame, PROTOCOL_VERSION};
pub use server::{ServerHandle, WireServer};

/// Errors produced by the wire layer. Decode errors carry the frame
/// ordinal (0-based count of frames completed on the connection) and the
/// byte offset into the connection stream where the problem was detected,
/// so protocol bugs in foreign SUT implementations are locatable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// An I/O error outside the timeout class.
    Io {
        /// What the connection was doing when the error hit.
        context: String,
    },
    /// A socket deadline expired while waiting for bytes.
    Timeout {
        /// What the connection was waiting for.
        context: String,
    },
    /// A frame announced a payload longer than [`MAX_FRAME_LEN`].
    Oversized {
        /// Frame ordinal on the connection (0-based).
        frame: u64,
        /// Byte offset of the frame's length prefix.
        offset: u64,
        /// The announced payload length.
        len: u64,
        /// The configured maximum.
        max: u64,
    },
    /// The stream ended mid-prefix or mid-payload.
    Truncated {
        /// Frame ordinal on the connection (0-based).
        frame: u64,
        /// Byte offset where the truncation was detected.
        offset: u64,
        /// Bytes the decoder still expected.
        expected: u64,
        /// Bytes actually available.
        got: u64,
    },
    /// The payload was not the JSON shape the protocol requires.
    Malformed {
        /// Frame ordinal on the connection (0-based).
        frame: u64,
        /// Byte offset of the frame's payload.
        offset: u64,
        /// What failed to parse.
        reason: String,
    },
    /// The peers disagree on [`PROTOCOL_VERSION`].
    VersionMismatch {
        /// Our version.
        ours: u32,
        /// The peer's version.
        theirs: u32,
    },
    /// A well-formed frame that is illegal at this point in the exchange
    /// (e.g. an `ExecuteMany` before `Load`, or a response id mismatch).
    Protocol {
        /// Frame ordinal on the connection (0-based).
        frame: u64,
        /// What rule was violated.
        reason: String,
    },
    /// The server reported an application-level error.
    Remote {
        /// The server's error message.
        reason: String,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io { context } => write!(f, "wire i/o error: {context}"),
            WireError::Timeout { context } => write!(f, "wire timeout: {context}"),
            WireError::Oversized {
                frame,
                offset,
                len,
                max,
            } => write!(
                f,
                "frame {frame} at byte {offset}: announced payload of {len} bytes exceeds the {max}-byte limit"
            ),
            WireError::Truncated {
                frame,
                offset,
                expected,
                got,
            } => write!(
                f,
                "frame {frame} at byte {offset}: stream truncated ({got} of {expected} bytes)"
            ),
            WireError::Malformed {
                frame,
                offset,
                reason,
            } => write!(f, "frame {frame} at byte {offset}: malformed payload: {reason}"),
            WireError::VersionMismatch { ours, theirs } => write!(
                f,
                "protocol version mismatch: ours {ours}, peer {theirs}"
            ),
            WireError::Protocol { frame, reason } => {
                write!(f, "frame {frame}: protocol violation: {reason}")
            }
            WireError::Remote { reason } => write!(f, "remote SUT error: {reason}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Convenience result alias for the wire layer.
pub type WireResult<T> = std::result::Result<T, WireError>;
