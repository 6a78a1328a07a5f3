//! A small blocking client for the wire protocol.
//!
//! One [`Client`] owns one TCP connection and speaks strict
//! request/response: [`Client::call`] writes a request frame, then
//! blocks for the matching response or error frame. Open one client per
//! thread for concurrency — that mirrors how the server allocates a
//! reader thread per connection.

use std::fmt;
use std::io::{self, BufReader, BufWriter};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use coupling::tasks::{Task, TaskFilter, TaskId, TaskKind};
use coupling::ErrorKind;

use crate::request::{Request, Response};
use crate::wire::{
    decode_fault, decode_response, encode_request, read_frame, write_frame, FrameKind, Status,
    WireError, WireFault,
};

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The transport or framing layer failed (I/O error, bad frame,
    /// undecodable payload).
    Wire(WireError),
    /// The server answered with an error frame.
    Remote(WireFault),
    /// The server closed the connection without answering.
    ConnectionClosed,
}

impl ClientError {
    /// The wire status, when the server answered with one.
    pub fn status(&self) -> Option<Status> {
        match self {
            ClientError::Remote(fault) => Some(fault.status),
            _ => None,
        }
    }

    /// The coupling-taxonomy classification of this failure, mirroring
    /// what an in-process caller would read from
    /// [`coupling::CouplingError::kind`]. Transport failures classify
    /// as [`ErrorKind::Io`] — except expired socket timeouts
    /// (`TimedOut`/`WouldBlock`, platform-dependent), which classify as
    /// [`ErrorKind::Timeout`]; undecodable frames as
    /// [`ErrorKind::Parse`].
    pub fn kind(&self) -> ErrorKind {
        match self {
            ClientError::Wire(WireError::Io(e)) => match e.kind() {
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock => ErrorKind::Timeout,
                _ => ErrorKind::Io,
            },
            ClientError::Wire(_) => ErrorKind::Parse,
            ClientError::Remote(fault) => fault.status.kind(),
            ClientError::ConnectionClosed => ErrorKind::Io,
        }
    }
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Wire(e) => write!(f, "wire failure: {e}"),
            ClientError::Remote(fault) => write!(f, "server error {fault}"),
            ClientError::ConnectionClosed => f.write_str("connection closed by server"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Wire(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Socket-level bounds on a [`Client`]'s blocking calls.
///
/// Defaults are deliberately generous — they exist to turn a hung peer
/// into an error *eventually*, not to enforce request deadlines (the
/// hedging layer in [`coupling::remote`] owns latency policy and runs
/// with much tighter bounds on top of its own transport).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientConfig {
    /// Bound on establishing the TCP connection. `None` blocks at the
    /// operating system's discretion.
    pub connect_timeout: Option<Duration>,
    /// Bound on each blocking read of the response stream; expiry
    /// surfaces as a wire I/O error classifying as
    /// [`ErrorKind::Timeout`].
    pub read_timeout: Option<Duration>,
    /// Bound on each blocking socket write.
    pub write_timeout: Option<Duration>,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            connect_timeout: Some(Duration::from_secs(2)),
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
        }
    }
}

impl ClientConfig {
    /// Start building a configuration from the defaults — the
    /// counterpart of [`crate::ServerConfig::builder`].
    pub fn builder() -> ClientConfigBuilder {
        ClientConfigBuilder {
            config: ClientConfig::default(),
        }
    }
}

/// Fluent builder for [`ClientConfig`].
#[derive(Debug, Clone)]
pub struct ClientConfigBuilder {
    config: ClientConfig,
}

impl ClientConfigBuilder {
    /// Bound the TCP connect; `None` blocks at the OS's discretion.
    pub fn connect_timeout(mut self, t: impl Into<Option<Duration>>) -> Self {
        self.config.connect_timeout = t.into();
        self
    }

    /// Bound each blocking read of the response stream.
    pub fn read_timeout(mut self, t: impl Into<Option<Duration>>) -> Self {
        self.config.read_timeout = t.into();
        self
    }

    /// Bound each blocking socket write.
    pub fn write_timeout(mut self, t: impl Into<Option<Duration>>) -> Self {
        self.config.write_timeout = t.into();
        self
    }

    /// Finish building.
    pub fn build(self) -> ClientConfig {
        self.config
    }
}

/// A blocking connection to a [`crate::NetServer`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// The resolved address actually connected to, kept so
    /// [`Client::reconnect`] can redial after a server restart.
    addr: SocketAddr,
    config: ClientConfig,
}

impl Client {
    /// Connect to a serving address with default timeouts.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Client::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit timeouts. When the address resolves to
    /// several candidates they are tried in order; the error of the
    /// last candidate is reported.
    pub fn connect_with(addr: impl ToSocketAddrs, config: ClientConfig) -> io::Result<Client> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs()? {
            match Client::dial(candidate, &config) {
                Ok(client) => return Ok(client),
                Err(e) => last_err = Some(e),
            }
        }
        Err(last_err.unwrap_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no addresses")))
    }

    fn dial(addr: SocketAddr, config: &ClientConfig) -> io::Result<Client> {
        let stream = match config.connect_timeout {
            Some(t) => TcpStream::connect_timeout(&addr, t)?,
            None => TcpStream::connect(addr)?,
        };
        stream.set_nodelay(true)?;
        stream.set_read_timeout(config.read_timeout)?;
        stream.set_write_timeout(config.write_timeout)?;
        let reader_stream = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(reader_stream),
            writer: BufWriter::new(stream),
            addr,
            config: config.clone(),
        })
    }

    /// Drop the current connection and dial the same address again —
    /// the recovery step after [`ClientError::ConnectionClosed`] (e.g.
    /// across a server restart).
    pub fn reconnect(&mut self) -> io::Result<()> {
        *self = Client::dial(self.addr, &self.config)?;
        Ok(())
    }

    /// The resolved peer address this client dials.
    pub fn peer_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Send one request and block for its outcome.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        write_frame(
            &mut self.writer,
            FrameKind::Request,
            &encode_request(request),
        )?;
        match read_frame(&mut self.reader)? {
            Some(frame) if frame.kind == FrameKind::Response => {
                Ok(decode_response(&frame.payload)?)
            }
            Some(frame) if frame.kind == FrameKind::Error => {
                Err(ClientError::Remote(decode_fault(&frame.payload)?))
            }
            Some(frame) => Err(ClientError::Wire(WireError::Malformed(format!(
                "unexpected {:?} frame in reply",
                frame.kind
            )))),
            None => Err(ClientError::ConnectionClosed),
        }
    }

    /// Durably enqueue a mutation and return its task id immediately
    /// (the 202-accepted write model). Track it with
    /// [`Client::task_status`] or [`Client::wait_for_task`].
    pub fn enqueue(&mut self, kind: TaskKind) -> Result<TaskId, ClientError> {
        match self.call(&Request::EnqueueTask { kind })? {
            Response::TaskAccepted(id) => Ok(id),
            other => Err(ClientError::Wire(WireError::Malformed(format!(
                "expected TaskAccepted, got {other:?}"
            )))),
        }
    }

    /// Look up one task by id. Unknown ids answer a 404 fault.
    pub fn task_status(&mut self, id: TaskId) -> Result<Task, ClientError> {
        match self.call(&Request::TaskStatus { id })? {
            Response::TaskInfo(task) => Ok(task),
            other => Err(ClientError::Wire(WireError::Malformed(format!(
                "expected TaskInfo, got {other:?}"
            )))),
        }
    }

    /// List tasks matching `filter`, ascending by id.
    pub fn list_tasks(&mut self, filter: TaskFilter) -> Result<Vec<Task>, ClientError> {
        match self.call(&Request::ListTasks { filter })? {
            Response::TaskList(tasks) => Ok(tasks),
            other => Err(ClientError::Wire(WireError::Malformed(format!(
                "expected TaskList, got {other:?}"
            )))),
        }
    }

    /// Poll until task `id` reaches a terminal status (succeeded or
    /// failed — inspect the returned task) or `timeout` elapses, backing
    /// off between probes. Timeout surfaces as a wire I/O error
    /// classifying as [`ErrorKind::Timeout`].
    pub fn wait_for_task(&mut self, id: TaskId, timeout: Duration) -> Result<Task, ClientError> {
        let start = Instant::now();
        let mut backoff = Duration::from_millis(1);
        loop {
            let task = self.task_status(id)?;
            if task.status.is_terminal() {
                return Ok(task);
            }
            if start.elapsed() >= timeout {
                return Err(ClientError::Wire(WireError::Io(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!("task {id} not terminal within {timeout:?}"),
                ))));
            }
            std::thread::sleep(backoff.min(timeout.saturating_sub(start.elapsed())));
            backoff = (backoff * 2).min(Duration::from_millis(50));
        }
    }

    /// Enqueue a mutation and block until it executes. A task
    /// that executed but failed comes back as a synthesized
    /// [`ClientError::Remote`] fault carrying the task's error.
    pub fn write_and_wait(
        &mut self,
        kind: TaskKind,
        timeout: Duration,
    ) -> Result<Task, ClientError> {
        let id = self.enqueue(kind)?;
        let task = self.wait_for_task(id, timeout)?;
        if let coupling::tasks::TaskStatus::Failed { error } = &task.status {
            return Err(ClientError::Remote(WireFault {
                status: Status::Internal,
                message: format!("task {id} failed: {error}"),
            }));
        }
        Ok(task)
    }
}

impl fmt::Debug for Client {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let peer = self.reader.get_ref().peer_addr();
        f.debug_struct("Client").field("peer", &peer).finish()
    }
}
