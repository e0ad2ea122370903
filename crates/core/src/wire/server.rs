//! The `lsbench serve` server loop: hosts one registered SUT behind TCP.
//!
//! One listener, one thread per connection, one shared SUT behind a
//! mutex. The SUT built by a successful [`Request::Load`] survives
//! connection churn — a client that reconnects after a socket timeout
//! resumes against the same state (reconnects re-send only `Hello`),
//! which is what makes client-side retry-with-reconnect safe; each new
//! explicit `Load` rebuilds from scratch so consecutive runs against a
//! long-lived server start fresh. Every malformed frame yields a
//! best-effort [`Response::Error`] and a clean close of *that*
//! connection; the accept loop never dies with a client.

use super::frame::{write_frame, FrameReader};
use super::proto::{
    decode_request, encode_response, Request, RequestFrame, Response, ResponseFrame,
    PROTOCOL_VERSION,
};
use super::{WireError, WireResult};
use crate::runner::BoxedKvSut;
use crate::spec::parse_scenario;
use crate::sut_registry::SutRegistry;
use crate::{BenchError, Result};
use std::io::{BufReader, BufWriter, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// State shared by every connection thread.
struct Shared {
    registry: SutRegistry,
    /// Registry name of the SUT this server hosts.
    sut_name: String,
    /// The hosted SUT, constructed by the first `Load`. `(display name,
    /// sut)` so `HelloOk` can report it without locking the SUT itself.
    state: Mutex<Option<BoxedKvSut>>,
    stop: AtomicBool,
}

/// A TCP server hosting one registered SUT. See the [module docs](self).
pub struct WireServer {
    listener: TcpListener,
    shared: Arc<Shared>,
}

/// Handle to a server running on a background thread; used by tests and
/// the CLI's self-checks. Dropping the handle does **not** stop the
/// server — call [`ServerHandle::shutdown`].
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    shared: Arc<Shared>,
    join: std::thread::JoinHandle<()>,
}

impl WireServer {
    /// Binds to `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// validates that `sut_name` is registered. No connection is accepted
    /// until [`run`](Self::run) or [`spawn`](Self::spawn).
    pub fn bind<A: ToSocketAddrs>(addr: A, registry: SutRegistry, sut_name: &str) -> Result<Self> {
        if !registry.contains(sut_name) {
            return Err(BenchError::InvalidScenario(format!(
                "unknown SUT '{sut_name}' (registered: {})",
                registry.names().join(", ")
            )));
        }
        let listener = TcpListener::bind(addr)
            .map_err(|e| BenchError::Sut(format!("cannot bind wire server: {e}")))?;
        Ok(WireServer {
            listener,
            shared: Arc::new(Shared {
                registry,
                sut_name: sut_name.to_string(),
                state: Mutex::new(None),
                stop: AtomicBool::new(false),
            }),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> Result<std::net::SocketAddr> {
        self.listener
            .local_addr()
            .map_err(|e| BenchError::Sut(format!("cannot read server address: {e}")))
    }

    /// Serves connections until shut down. Each connection gets its own
    /// thread; connection-level protocol errors close that connection
    /// only.
    pub fn run(self) -> Result<()> {
        let shared = self.shared;
        let mut conn_threads = Vec::new();
        for stream in self.listener.incoming() {
            if shared.stop.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    let shared = Arc::clone(&shared);
                    conn_threads.push(std::thread::spawn(move || {
                        // The error has already been reported to the peer
                        // (best effort); the server just moves on.
                        let _ = serve_connection(stream, &shared);
                    }));
                }
                Err(_) => continue,
            }
        }
        for t in conn_threads {
            let _ = t.join();
        }
        Ok(())
    }

    /// Runs the server on a background thread and returns a handle.
    pub fn spawn(self) -> Result<ServerHandle> {
        let addr = self.local_addr()?;
        let shared = Arc::clone(&self.shared);
        let join = std::thread::spawn(move || {
            let _ = self.run();
        });
        Ok(ServerHandle { addr, shared, join })
    }
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Connections
    /// already being served finish their current exchange.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.join.join();
    }
}

/// Serves one connection to completion: handshake, then request loop.
fn serve_connection(stream: TcpStream, shared: &Shared) -> WireResult<()> {
    let write_half = stream.try_clone().map_err(|e| WireError::Io {
        context: format!("cloning connection: {e}"),
    })?;
    let mut reader = FrameReader::new(BufReader::new(stream));
    let mut writer = BufWriter::new(write_half);

    // Handshake first: anything else on the wire is a protocol violation.
    match next_request(&mut reader) {
        Ok(Some(RequestFrame {
            id,
            req: Request::Hello { version, client: _ },
        })) => {
            if version != PROTOCOL_VERSION {
                send(
                    &mut writer,
                    ResponseFrame {
                        id,
                        resp: Response::VersionMismatch {
                            server: PROTOCOL_VERSION,
                        },
                    },
                )?;
                return Err(WireError::VersionMismatch {
                    ours: PROTOCOL_VERSION,
                    theirs: version,
                });
            }
            send(
                &mut writer,
                ResponseFrame {
                    id,
                    resp: Response::HelloOk {
                        version: PROTOCOL_VERSION,
                        sut: shared.sut_name.clone(),
                    },
                },
            )?;
        }
        Ok(Some(RequestFrame { id, .. })) => {
            let err = WireError::Protocol {
                frame: 0,
                reason: "first request must be Hello".to_string(),
            };
            report(&mut writer, id, &err);
            return Err(err);
        }
        Ok(None) => return Ok(()), // connected and left; fine
        Err(err) => {
            report(&mut writer, 0, &err);
            return Err(err);
        }
    }

    loop {
        let frame = match next_request(&mut reader) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()),
            Err(err) => {
                // Best-effort typed error to the peer, then clean close.
                report(&mut writer, 0, &err);
                return Err(err);
            }
        };
        let resp = dispatch(frame.req, shared);
        send(&mut writer, ResponseFrame { id: frame.id, resp })?;
    }
}

/// Reads and decodes the next request frame.
fn next_request<R: std::io::Read>(reader: &mut FrameReader<R>) -> WireResult<Option<RequestFrame>> {
    let frame = reader.frame_ordinal();
    match reader.read_frame()? {
        None => Ok(None),
        Some(payload) => {
            let offset = reader.byte_offset() - payload.len() as u64;
            decode_request(&payload, frame, offset).map(Some)
        }
    }
}

fn send<W: Write>(writer: &mut W, frame: ResponseFrame) -> WireResult<()> {
    write_frame(writer, &encode_response(&frame))?;
    writer.flush().map_err(|e| WireError::Io {
        context: format!("flushing response: {e}"),
    })
}

/// Best-effort error report; the connection is closing anyway.
fn report<W: Write>(writer: &mut W, id: u64, err: &WireError) {
    let _ = send(
        writer,
        ResponseFrame {
            id,
            resp: Response::Error {
                reason: err.to_string(),
            },
        },
    );
}

/// Serves one post-handshake request against the shared SUT.
fn dispatch(req: Request, shared: &Shared) -> Response {
    let mut state = match shared.state.lock() {
        Ok(guard) => guard,
        Err(_) => {
            return Response::Error {
                reason: "server SUT mutex poisoned".to_string(),
            }
        }
    };
    if let Request::Load { spec } = &req {
        // An explicit Load always (re)builds, so consecutive benchmark
        // runs against a long-lived server each start from a fresh SUT —
        // exactly like a local run. Reconnecting clients never re-send
        // Load (only Hello), so mid-run retry-with-reconnect still
        // resumes against the surviving state.
        let scenario = match parse_scenario(spec) {
            Ok(s) => s,
            Err(e) => {
                return Response::Error {
                    reason: format!("invalid scenario spec: {e}"),
                }
            }
        };
        let data = match scenario.dataset.build() {
            Ok(d) => d,
            Err(e) => {
                return Response::Error {
                    reason: format!("dataset build failed: {e}"),
                }
            }
        };
        return match shared.registry.build(&shared.sut_name, &data) {
            Ok(sut) => {
                let name = sut.name();
                *state = Some(sut);
                Response::LoadOk { sut: name }
            }
            Err(e) => Response::Error {
                reason: format!("SUT build failed: {e}"),
            },
        };
    }
    let Some(sut) = state.as_mut() else {
        return Response::Error {
            reason: "no SUT loaded (send Load first)".to_string(),
        };
    };
    match req {
        Request::Hello { .. } => Response::Error {
            reason: "duplicate Hello".to_string(),
        },
        Request::Load { .. } => unreachable!("handled above"),
        Request::Train { budget } => Response::Work {
            work: sut.train(budget),
        },
        Request::ExecuteMany { ops } => Response::ExecMany {
            results: sut
                .execute_many(&ops)
                .iter()
                .map(super::proto::ExecReply::from_result)
                .collect(),
        },
        Request::PhaseChange { phase } => Response::Work {
            work: sut.on_phase_change(phase),
        },
        Request::Maintenance => Response::Work {
            work: sut.maintenance(),
        },
        Request::Crash => Response::Work { work: sut.crash() },
        Request::Metrics => Response::Metrics {
            metrics: sut.metrics(),
        },
    }
}
