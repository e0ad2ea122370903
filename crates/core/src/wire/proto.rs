//! Protocol messages — the full [`SystemUnderTest`] surface as JSON
//! payloads.
//!
//! Every frame carries one `{id, req}` or `{id, resp}` object. Ids are
//! per-connection, strictly increasing, and echoed verbatim by the
//! server; the client checks each response against the request it
//! answers. The first exchange on a connection must be
//! [`Request::Hello`] / [`Response::HelloOk`] — anything else is a
//! protocol violation and closes the connection.
//!
//! [`SystemUnderTest`]: lsbench_sut::sut::SystemUnderTest

use super::{WireError, WireResult};
use lsbench_sut::sut::{ExecOutcome, SutMetrics};
use lsbench_workload::ops::Operation;
use serde::{Deserialize, Serialize};

/// Version of the wire protocol. Bump on any incompatible change to the
/// frame format or message shapes; the handshake rejects mismatches
/// explicitly instead of letting decoding fail somewhere downstream.
pub const PROTOCOL_VERSION: u32 = 2;

/// One client→server frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RequestFrame {
    /// Per-connection request id, echoed in the matching response.
    pub id: u64,
    /// The request proper.
    pub req: Request,
}

/// One server→client frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ResponseFrame {
    /// The id of the request this answers.
    pub id: u64,
    /// The response proper.
    pub resp: Response,
}

/// Client→server messages, mirroring the `SystemUnderTest` surface.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Request {
    /// Version handshake; must be the first request on a connection.
    Hello {
        /// The client's [`PROTOCOL_VERSION`].
        version: u32,
        /// Free-form client identification for server logs.
        client: String,
    },
    /// Parse the rendered scenario spec, build its dataset, and construct
    /// the hosted SUT over it. Idempotent per server: reconnects after a
    /// transport failure see the already-loaded SUT.
    Load {
        /// A rendered scenario spec (`render_scenario` output).
        spec: String,
    },
    /// `SystemUnderTest::train`.
    Train {
        /// Offline training work budget.
        budget: u64,
    },
    /// `SystemUnderTest::execute_many` for a batch (one operation for
    /// `execute`); the response carries one reply per operation, in order.
    ExecuteMany {
        /// The batch, in execution order.
        ops: Vec<Operation>,
    },
    /// `SystemUnderTest::on_phase_change`.
    PhaseChange {
        /// The new phase index.
        phase: usize,
    },
    /// `SystemUnderTest::maintenance`.
    Maintenance,
    /// `SystemUnderTest::crash` (fault-injection hook, not a real crash).
    Crash,
    /// `SystemUnderTest::metrics`.
    Metrics,
}

/// Server→client messages.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Response {
    /// Handshake accepted.
    HelloOk {
        /// The server's [`PROTOCOL_VERSION`].
        version: u32,
        /// Name of the SUT this server hosts.
        sut: String,
    },
    /// Handshake rejected: versions differ. Connection closes after this.
    VersionMismatch {
        /// The server's [`PROTOCOL_VERSION`].
        server: u32,
    },
    /// `Load` succeeded.
    LoadOk {
        /// The constructed SUT's display name.
        sut: String,
    },
    /// Work units spent (`Train`/`PhaseChange`/`Maintenance`/`Crash`).
    Work {
        /// Work units.
        work: u64,
    },
    /// One `ExecuteMany` result set, in request order.
    ExecMany {
        /// One reply per operation.
        results: Vec<ExecReply>,
    },
    /// A `Metrics` snapshot.
    Metrics {
        /// The SUT's metrics.
        metrics: SutMetrics,
    },
    /// The request was understood but could not be served.
    Error {
        /// What went wrong.
        reason: String,
    },
}

/// Wire form of one `Result<ExecOutcome, SutError>`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExecReply {
    /// The operation executed (possibly unsupported-but-counted).
    Outcome(ExecOutcome),
    /// The SUT failed internally; the run should abort.
    Failed {
        /// The SUT's error message.
        reason: String,
    },
}

impl ExecReply {
    /// Converts a SUT execution result to its wire form.
    pub fn from_result(r: &lsbench_sut::Result<ExecOutcome>) -> Self {
        match r {
            Ok(o) => ExecReply::Outcome(*o),
            Err(e) => ExecReply::Failed {
                reason: e.to_string(),
            },
        }
    }

    /// Converts the wire form back to a SUT execution result.
    pub fn into_result(self) -> lsbench_sut::Result<ExecOutcome> {
        match self {
            ExecReply::Outcome(o) => Ok(o),
            ExecReply::Failed { reason } => Err(lsbench_sut::SutError::Internal(reason)),
        }
    }
}

/// Encodes a request frame to its JSON payload bytes.
pub fn encode_request(frame: &RequestFrame) -> Vec<u8> {
    serde_json::to_string(frame)
        .expect("request serialization is total")
        .into_bytes()
}

/// Encodes a response frame to its JSON payload bytes.
pub fn encode_response(frame: &ResponseFrame) -> Vec<u8> {
    serde_json::to_string(frame)
        .expect("response serialization is total")
        .into_bytes()
}

/// Decodes a request frame, positioning failures at `(frame, offset)`.
pub fn decode_request(payload: &[u8], frame: u64, offset: u64) -> WireResult<RequestFrame> {
    decode(payload, frame, offset)
}

/// Decodes a response frame, positioning failures at `(frame, offset)`.
pub fn decode_response(payload: &[u8], frame: u64, offset: u64) -> WireResult<ResponseFrame> {
    decode(payload, frame, offset)
}

fn decode<T: Deserialize>(payload: &[u8], frame: u64, offset: u64) -> WireResult<T> {
    let text = std::str::from_utf8(payload).map_err(|e| WireError::Malformed {
        frame,
        offset,
        reason: format!("payload is not UTF-8: {e}"),
    })?;
    serde_json::from_str(text).map_err(|e| WireError::Malformed {
        frame,
        offset,
        reason: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        let frames = vec![
            RequestFrame {
                id: 0,
                req: Request::Hello {
                    version: PROTOCOL_VERSION,
                    client: "lsbench".to_string(),
                },
            },
            RequestFrame {
                id: 1,
                req: Request::ExecuteMany {
                    ops: vec![
                        Operation::Read { key: 7 },
                        Operation::Scan { start: 1, len: 3 },
                        Operation::Insert { key: 9, value: 10 },
                    ],
                },
            },
            RequestFrame {
                id: 2,
                req: Request::Maintenance,
            },
        ];
        for f in frames {
            let bytes = encode_request(&f);
            let back = decode_request(&bytes, 0, 0).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn response_round_trip() {
        let frames = vec![
            ResponseFrame {
                id: 3,
                resp: Response::ExecMany {
                    results: vec![
                        ExecReply::Outcome(ExecOutcome::ok(12)),
                        ExecReply::Failed {
                            reason: "boom".to_string(),
                        },
                    ],
                },
            },
            ResponseFrame {
                id: 4,
                resp: Response::Metrics {
                    metrics: SutMetrics::default(),
                },
            },
            ResponseFrame {
                id: 5,
                resp: Response::VersionMismatch { server: 9 },
            },
        ];
        for f in frames {
            let bytes = encode_response(&f);
            let back = decode_response(&bytes, 0, 0).unwrap();
            assert_eq!(back, f);
        }
    }

    #[test]
    fn garbage_payloads_are_positioned_malformed() {
        for bad in [&b"not json"[..], &[0xC3, 0x28][..], b"{\"id\":1}"] {
            match decode_request(bad, 7, 99) {
                Err(WireError::Malformed { frame, offset, .. }) => {
                    assert_eq!(frame, 7);
                    assert_eq!(offset, 99);
                }
                other => panic!("expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn exec_reply_preserves_result_semantics() {
        let ok: lsbench_sut::Result<ExecOutcome> = Ok(ExecOutcome::failed(3));
        assert_eq!(ExecReply::from_result(&ok).into_result(), ok);
        let err: lsbench_sut::Result<ExecOutcome> =
            Err(lsbench_sut::SutError::Internal("x".to_string()));
        let back = ExecReply::from_result(&err).into_result();
        assert!(matches!(back, Err(lsbench_sut::SutError::Internal(_))));
    }
}
