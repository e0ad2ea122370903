//! `RemoteSut` — the driver-side adapter for an out-of-process SUT.
//!
//! Implements [`SystemUnderTest`] over one TCP connection speaking the
//! frame protocol. An [`SystemUnderTest::execute_many`] call travels as
//! `ExecuteMany` frames of at most `DISPATCH_BATCH` ops, one round trip
//! at a time, so the (stateful) server applies them in order. The
//! driver never gathers more than `DISPATCH_BATCH` ops into one call and
//! its calls never overlap (the SUT is `&mut`, or held under the run's
//! mutex), so a call is one frame on the wire.
//!
//! **Timeout accounting.** The socket read deadline and the
//! retry/backoff schedule come from the same [`RetryPolicy`] type the
//! fault injector uses — with `timeout` read as *wall* seconds here,
//! since a real network has no virtual clock. Every expired deadline bumps
//! `timeouts`, every reconnect-and-resend bumps `retries`, and the
//! driver folds those [`TransportStats`] deltas into the run's
//! [`FaultStats`](crate::faults::FaultStats) — one ledger for injected
//! and real failures (pinned by `tests/remote_conformance.rs`).
//! Semantics under retry are at-least-once: the server may have executed
//! a frame whose response the deadline discarded. Conformance runs
//! therefore use no socket timeout; deadlines are for production runs
//! against flaky SUTs, where the record flags the affected ops as failed.

use super::frame::{write_frame, FrameReader};
use super::proto::{
    decode_response, encode_request, ExecReply, Request, RequestFrame, Response, PROTOCOL_VERSION,
};
use super::{WireError, WireResult};
use crate::exec::DISPATCH_BATCH;
use crate::faults::RetryPolicy;
use crate::{BenchError, Result};
use lsbench_sut::sut::{ExecOutcome, SutMetrics, SystemUnderTest, TransportStats};
use lsbench_sut::SutError;
use lsbench_workload::ops::Operation;
use std::cell::RefCell;
use std::io::{BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The connection, already past the handshake.
struct Conn {
    /// Raw handle for deadline control; reader/writer hold clones.
    stream: TcpStream,
    reader: FrameReader<BufReader<TcpStream>>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
}

impl Conn {
    /// Connects and runs the version handshake; returns the connection
    /// plus the hosted SUT's name from `HelloOk`.
    fn open(endpoint: &str) -> WireResult<(Conn, String)> {
        let stream = TcpStream::connect(endpoint).map_err(|e| WireError::Io {
            context: format!("connecting to {endpoint}: {e}"),
        })?;
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone().map_err(|e| WireError::Io {
            context: format!("cloning connection: {e}"),
        })?;
        let write_half = stream.try_clone().map_err(|e| WireError::Io {
            context: format!("cloning connection: {e}"),
        })?;
        let mut conn = Conn {
            stream,
            reader: FrameReader::new(BufReader::new(read_half)),
            writer: BufWriter::new(write_half),
            next_id: 0,
        };
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
            client: "lsbench-remote-sut".to_string(),
        };
        match conn.round_trip(hello)? {
            Response::HelloOk { version, sut } if version == PROTOCOL_VERSION => Ok((conn, sut)),
            Response::HelloOk { version, .. } | Response::VersionMismatch { server: version } => {
                Err(WireError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: version,
                })
            }
            other => Err(WireError::Protocol {
                frame: 0,
                reason: format!("unexpected handshake response: {other:?}"),
            }),
        }
    }

    /// Sends one request and reads its response; the response must
    /// carry the request's id, or the connection is out of step.
    fn round_trip(&mut self, req: Request) -> WireResult<Response> {
        let id = self.next_id;
        self.next_id += 1;
        write_frame(&mut self.writer, &encode_request(&RequestFrame { id, req }))?;
        self.writer.flush().map_err(|e| WireError::Io {
            context: format!("flushing requests: {e}"),
        })?;
        let ordinal = self.reader.frame_ordinal();
        let payload = self.reader.read_frame()?.ok_or(WireError::Truncated {
            frame: ordinal,
            offset: self.reader.byte_offset(),
            expected: 4,
            got: 0,
        })?;
        let offset = self.reader.byte_offset() - payload.len() as u64;
        let frame = decode_response(&payload, ordinal, offset)?;
        if frame.id != id {
            return Err(WireError::Protocol {
                frame: ordinal,
                reason: format!("response id {} does not match request id {id}", frame.id),
            });
        }
        match frame.resp {
            Response::Error { reason } => Err(WireError::Remote { reason }),
            resp => Ok(resp),
        }
    }

    /// Sets (or clears) the socket read deadline.
    fn set_deadline(&mut self, deadline: Option<Duration>) {
        let _ = self.stream.set_read_timeout(deadline);
    }
}

/// Connection state behind the adapter's `RefCell` (needed because the
/// trait reads metrics through `&self`).
struct Inner {
    endpoint: String,
    /// Socket deadline and reconnect-retry schedule. `timeout` is wall
    /// seconds (applied as the socket read deadline on execute traffic);
    /// `None` waits forever — the right choice for conformance runs.
    retry: RetryPolicy,
    conn: Conn,
    stats: TransportStats,
    /// First fatal wire error; once set, every operation fails fast.
    dead: Option<String>,
}

impl Inner {
    /// One control round trip (no socket deadline — control requests may
    /// legitimately take long, e.g. a server-side dataset build on Load).
    fn control(&mut self, req: Request) -> WireResult<Response> {
        if let Some(reason) = &self.dead {
            return Err(WireError::Remote {
                reason: reason.clone(),
            });
        }
        self.conn.set_deadline(None);
        self.conn.round_trip(req)
    }

    /// Control round trip expecting `Response::Work`; transport failures
    /// mark the connection dead and report zero work (the next `execute`
    /// surfaces the error fatally).
    fn work(&mut self, req: Request) -> u64 {
        match self.control(req) {
            Ok(Response::Work { work }) => work,
            Ok(other) => {
                self.dead = Some(format!("unexpected response: {other:?}"));
                0
            }
            Err(e) => {
                self.dead = Some(e.to_string());
                0
            }
        }
    }

    /// The batch path: one frame per `DISPATCH_BATCH` ops. See the module
    /// docs for the retry and at-least-once semantics.
    fn execute_many(&mut self, ops: &[Operation]) -> Vec<lsbench_sut::Result<ExecOutcome>> {
        let mut results: Vec<lsbench_sut::Result<ExecOutcome>> = Vec::with_capacity(ops.len());
        if self.dead.is_none() {
            let deadline = self.retry.timeout.map(Duration::from_secs_f64);
            self.conn.set_deadline(deadline);
            for frame in ops.chunks(DISPATCH_BATCH) {
                if let Err(reason) = self.execute_frame(frame, deadline, &mut results) {
                    self.dead = Some(reason);
                    break;
                }
            }
            self.conn.set_deadline(None);
        }
        if let Some(reason) = &self.dead {
            results.resize_with(ops.len(), || Err(SutError::Internal(reason.clone())));
        }
        results
    }

    /// Sends one frame until it is answered or out of retries, appending
    /// its replies (or, out of retries, one failed outcome per op) to
    /// `results`. An `Err` is fatal: the connection is dead.
    fn execute_frame(
        &mut self,
        ops: &[Operation],
        deadline: Option<Duration>,
        results: &mut Vec<lsbench_sut::Result<ExecOutcome>>,
    ) -> std::result::Result<(), String> {
        // Reconnect attempts already spent on this frame.
        let mut attempts = 0u32;
        loop {
            let req = Request::ExecuteMany { ops: ops.to_vec() };
            match self.conn.round_trip(req) {
                Ok(Response::ExecMany { results: replies }) if replies.len() == ops.len() => {
                    results.extend(replies.into_iter().map(ExecReply::into_result));
                    return Ok(());
                }
                Ok(other) => return Err(format!("unexpected execute response: {other:?}")),
                Err(WireError::Timeout { .. }) => {
                    self.stats.timeouts += 1;
                    let policy = self.retry;
                    let give_up = attempts >= policy.max_retries;
                    if give_up {
                        // Out of retries: flag this frame's ops as failed
                        // and move on (at-least-once; see module docs).
                        results.extend(ops.iter().map(|_| Ok(ExecOutcome::failed(0))));
                    } else {
                        attempts += 1;
                        self.stats.retries += 1;
                        let backoff = policy.backoff_base
                            * policy.backoff_multiplier.powi(attempts as i32 - 1);
                        if backoff > 0.0 {
                            std::thread::sleep(Duration::from_secs_f64(backoff));
                        }
                    }
                    // The old connection may still deliver a stale frame;
                    // resynchronize on a fresh one. The server's SUT state
                    // lives outside the connection, so a reconnect resumes
                    // against the same state.
                    self.conn = Conn::open(&self.endpoint).map_err(|e| e.to_string())?.0;
                    self.conn.set_deadline(deadline);
                    if give_up {
                        return Ok(());
                    }
                }
                Err(e) => return Err(e.to_string()),
            }
        }
    }
}

/// An out-of-process SUT reached over the wire protocol. Construct with
/// [`RemoteSut::connect`], then [`RemoteSut::load`] a scenario before
/// handing it to the [`Runner`](crate::runner::Runner).
pub struct RemoteSut {
    /// Display name reported by the server's `LoadOk` (before `load`, the
    /// hosted SUT's registry name from the handshake).
    name: String,
    inner: RefCell<Inner>,
}

impl RemoteSut {
    /// Connects and runs the handshake. `retry` sets the socket deadline
    /// on execute traffic and the reconnect-retry schedule; its default
    /// waits forever.
    pub fn connect(endpoint: &str, retry: RetryPolicy) -> Result<RemoteSut> {
        let (conn, name) = Conn::open(endpoint).map_err(|e| BenchError::Sut(e.to_string()))?;
        Ok(RemoteSut {
            name,
            inner: RefCell::new(Inner {
                endpoint: endpoint.to_string(),
                retry,
                conn,
                stats: TransportStats::default(),
                dead: None,
            }),
        })
    }

    /// Sends the rendered scenario spec; the server parses it, builds the
    /// dataset, and constructs its hosted SUT over it. Idempotent.
    pub fn load(&mut self, spec: &str) -> Result<()> {
        let resp = self
            .inner
            .get_mut()
            .control(Request::Load {
                spec: spec.to_string(),
            })
            .map_err(|e| BenchError::Sut(e.to_string()))?;
        match resp {
            Response::LoadOk { sut } => {
                self.name = sut;
                Ok(())
            }
            other => Err(BenchError::Sut(format!(
                "unexpected Load response: {other:?}"
            ))),
        }
    }

    /// The endpoint this adapter is connected to.
    pub fn endpoint(&self) -> String {
        self.inner.borrow().endpoint.clone()
    }
}

impl SystemUnderTest<Operation> for RemoteSut {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn train(&mut self, budget: u64) -> u64 {
        self.inner.get_mut().work(Request::Train { budget })
    }

    fn execute(&mut self, op: &Operation) -> lsbench_sut::Result<ExecOutcome> {
        self.execute_many(std::slice::from_ref(op))
            .pop()
            .expect("one op in, one result out")
    }

    fn execute_many(&mut self, ops: &[Operation]) -> Vec<lsbench_sut::Result<ExecOutcome>> {
        self.inner.get_mut().execute_many(ops)
    }

    fn on_phase_change(&mut self, new_phase: usize) -> u64 {
        self.inner
            .get_mut()
            .work(Request::PhaseChange { phase: new_phase })
    }

    fn maintenance(&mut self) -> u64 {
        self.inner.get_mut().work(Request::Maintenance)
    }

    fn crash(&mut self) -> u64 {
        self.inner.get_mut().work(Request::Crash)
    }

    fn metrics(&self) -> SutMetrics {
        let mut inner = self.inner.borrow_mut();
        match inner.control(Request::Metrics) {
            Ok(Response::Metrics { metrics }) => metrics,
            Ok(other) => {
                inner.dead = Some(format!("unexpected response: {other:?}"));
                SutMetrics::default()
            }
            Err(e) => {
                inner.dead = Some(e.to_string());
                SutMetrics::default()
            }
        }
    }

    fn transport_stats(&self) -> TransportStats {
        self.inner.borrow().stats
    }
}
