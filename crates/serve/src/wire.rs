//! The wire protocol: framing and a binary codec for the typed
//! [`Request`]/[`Response`] protocol.
//!
//! This is the paper's loose coupling (Fig. 1, alternative 3) made
//! literal: the IRS front-end becomes reachable across a network
//! boundary, so requests and responses must survive a byte stream that
//! can be truncated, corrupted, or hostile. Every frame therefore
//! carries a magic number, a protocol version, a length capped at
//! [`MAX_FRAME_LEN`], and a CRC-32 of the payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic          b"OIRS"
//!      4     1  version        1
//!      5     1  kind           0 = request, 1 = response, 2 = error
//!      6     4  payload length little-endian, <= MAX_FRAME_LEN
//!     10     4  payload CRC-32 little-endian (IEEE, as the journal uses)
//!     14   len  payload
//! ```
//!
//! The payload codec is hand-rolled (the workspace deliberately carries
//! no serde) on [`oodb::codec`], the byte codec the ledger and the OODB
//! files share: little-endian fixed-width integers, `f64` as IEEE-754
//! bits, strings and sequences length-prefixed with `u32`; a
//! [`TaskKind`] is laid out by [`TaskKind::encode`], the same bytes as
//! in the task ledger. Decoding is strict — trailing bytes, truncated
//! fields, unknown tags, and out-of-range discriminants are all
//! [`WireError::Malformed`], never a panic.
//!
//! Failures cross the wire as an *error frame* whose payload is a
//! [`WireFault`]: a [`Status`] code in the HTTP idiom (429 overloaded,
//! 503 shutting down, 504 deadline expired, 400 parse failure, …) plus
//! the server's error message. [`Status::for_error`] defines the
//! mapping from the coupling's [`ErrorKind`] taxonomy.

use std::fmt;
use std::io::{self, Read, Write};

use coupling::tasks::{Task, TaskFilter, TaskKind, TaskStatus, TaskStatusKind};
use coupling::{CouplingError, ErrorKind, MixedStrategy, ResultOrigin};
use irs::persist::crc32;
use irs::{QueryGlobals, TermGlobals};
use oodb::codec::{put_f64, put_str, put_u32, put_u64, DecodeError, Reader};
use oodb::Oid;

use crate::request::{Request, Response};

/// First four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"OIRS";

/// Current protocol version. A server refuses frames from a different
/// version instead of guessing at their layout.
pub const VERSION: u8 = 1;

/// Hard cap on a frame's payload length (8 MiB). A length field above
/// this is rejected *before* any allocation, so a hostile or corrupt
/// header cannot make the peer reserve gigabytes.
pub const MAX_FRAME_LEN: u32 = 8 * 1024 * 1024;

/// Bytes in a frame header (magic + version + kind + length + CRC).
pub const HEADER_LEN: usize = 14;

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Why a frame could not be read, written, or decoded.
#[derive(Debug)]
pub enum WireError {
    /// The underlying stream failed (including truncation mid-frame,
    /// which surfaces as `UnexpectedEof`).
    Io(io::Error),
    /// The first four bytes were not [`MAGIC`] — the peer is not
    /// speaking this protocol, or the stream lost sync.
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    BadVersion(u8),
    /// The frame-kind byte is not a known [`FrameKind`].
    BadKind(u8),
    /// The declared (or attempted) payload length exceeds
    /// [`MAX_FRAME_LEN`]. Carried as `u64` so lengths beyond 4 GiB
    /// report exactly instead of truncating to a small, legal-looking
    /// number.
    Oversize(u64),
    /// The payload arrived but its CRC-32 does not match the header.
    BadCrc {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes actually received.
        found: u32,
    },
    /// The payload's bytes do not decode as the expected shape
    /// (truncated field, unknown tag, trailing garbage, bad UTF-8, …).
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire I/O error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            WireError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => {
                write!(f, "frame length {n} exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::BadCrc { expected, found } => {
                write!(
                    f,
                    "frame CRC mismatch: header {expected:08x}, payload {found:08x}"
                )
            }
            WireError::Malformed(why) => write!(f, "malformed payload: {why}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Malformed(e.to_string())
    }
}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        WireError::Io(e)
    }
}

/// Result alias for wire operations.
pub type WireResult<T> = std::result::Result<T, WireError>;

// ---------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------

/// What a frame's payload contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A client-to-server [`Request`].
    Request,
    /// A server-to-client [`Response`].
    Response,
    /// A server-to-client [`WireFault`].
    Error,
}

impl FrameKind {
    fn as_byte(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
            FrameKind::Error => 2,
        }
    }

    fn from_byte(b: u8) -> Option<FrameKind> {
        match b {
            0 => Some(FrameKind::Request),
            1 => Some(FrameKind::Response),
            2 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// One decoded frame: kind plus raw payload (CRC already verified).
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// What the payload encodes.
    pub kind: FrameKind,
    /// The payload bytes.
    pub payload: Vec<u8>,
}

/// Serialise one frame to `w`. The payload must fit under
/// [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> WireResult<()> {
    check_payload_len(payload.len())?;
    let mut header = [0u8; HEADER_LEN];
    header[0..4].copy_from_slice(&MAGIC);
    header[4] = VERSION;
    header[5] = kind.as_byte();
    header[6..10].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    header[10..14].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()?;
    Ok(())
}

/// Reject payload lengths over [`MAX_FRAME_LEN`], reporting the exact
/// offending length (in `u64`, so >4 GiB payloads do not truncate into
/// a small, legal-looking number).
fn check_payload_len(len: usize) -> WireResult<()> {
    if len > MAX_FRAME_LEN as usize {
        return Err(WireError::Oversize(len as u64));
    }
    Ok(())
}

/// Read one frame from `r`.
///
/// Returns `Ok(None)` on a clean close — EOF *between* frames. EOF in
/// the middle of a header or payload is a truncation and surfaces as
/// `WireError::Io(UnexpectedEof)`. The payload is only read once the
/// header validates (magic, version, kind, length cap), and is only
/// returned once its CRC matches.
pub fn read_frame(r: &mut impl Read) -> WireResult<Option<Frame>> {
    let mut header = [0u8; HEADER_LEN];
    // The first byte decides clean-close vs truncation.
    let mut got = 0usize;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(WireError::Io(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    format!("stream truncated after {got} header bytes"),
                )))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(WireError::Io(e)),
        }
    }
    if header[0..4] != MAGIC {
        let mut m = [0u8; 4];
        m.copy_from_slice(&header[0..4]);
        return Err(WireError::BadMagic(m));
    }
    if header[4] != VERSION {
        return Err(WireError::BadVersion(header[4]));
    }
    let kind = FrameKind::from_byte(header[5]).ok_or(WireError::BadKind(header[5]))?;
    let mut fields = Reader::new(&header[6..]);
    let len = fields.u32("frame length")?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversize(u64::from(len)));
    }
    let expected = fields.u32("frame crc")?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let found = crc32(&payload);
    if found != expected {
        return Err(WireError::BadCrc { expected, found });
    }
    Ok(Some(Frame { kind, payload }))
}

// ---------------------------------------------------------------------
// Status codes
// ---------------------------------------------------------------------

/// Wire-level outcome classification, in the HTTP status idiom so the
/// numbers read familiarly in logs and dashboards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Status {
    /// 202 — the write was durably enqueued as a task; the work itself
    /// has not run yet. Carried on success responses conceptually
    /// ([`Response::TaskAccepted`]), and present in the status space so
    /// logs and dashboards can distinguish accepted-async from
    /// executed-sync outcomes.
    Accepted,
    /// 400 — the request failed to parse (query syntax, bad spec).
    BadRequest,
    /// 404 — a named collection/object/class does not exist.
    NotFound,
    /// 429 — rejected by admission control (bounded queue full).
    Overloaded,
    /// 500 — an internal failure (I/O, corruption, API misuse).
    Internal,
    /// 502 — the IRS back-end is unavailable and no fallback masked it.
    IrsDown,
    /// 503 — the server is shutting down.
    ShuttingDown,
    /// 504 — the request's deadline expired before it was served.
    Timeout,
}

impl Status {
    /// The numeric code carried on the wire.
    pub fn code(self) -> u16 {
        match self {
            Status::Accepted => 202,
            Status::BadRequest => 400,
            Status::NotFound => 404,
            Status::Overloaded => 429,
            Status::Internal => 500,
            Status::IrsDown => 502,
            Status::ShuttingDown => 503,
            Status::Timeout => 504,
        }
    }

    /// Parse a numeric code back into a status.
    pub fn from_code(code: u16) -> Option<Status> {
        match code {
            202 => Some(Status::Accepted),
            400 => Some(Status::BadRequest),
            404 => Some(Status::NotFound),
            429 => Some(Status::Overloaded),
            500 => Some(Status::Internal),
            502 => Some(Status::IrsDown),
            503 => Some(Status::ShuttingDown),
            504 => Some(Status::Timeout),
            _ => None,
        }
    }

    /// The wire status for a coupling error.
    ///
    /// `Overloaded` and `ShuttingDown` share an [`ErrorKind`] but are
    /// distinct on the wire (retry-now vs go-away), so those variants
    /// are matched directly; everything else maps through the stable
    /// [`CouplingError::kind`] taxonomy.
    pub fn for_error(err: &CouplingError) -> Status {
        match err {
            CouplingError::Overloaded(_) => Status::Overloaded,
            CouplingError::ShuttingDown => Status::ShuttingDown,
            // A write sent to a read-only replica is the *client's*
            // mistake (wrong endpoint), and must classify as permanent
            // on the wire so a remote caller does not fail it over to
            // the next replica — which is just as read-only.
            CouplingError::Irs(irs::IrsError::ReadOnly(_)) => Status::BadRequest,
            _ => match err.kind() {
                ErrorKind::NotFound => Status::NotFound,
                ErrorKind::Overloaded => Status::Overloaded,
                ErrorKind::Timeout => Status::Timeout,
                ErrorKind::IrsDown => Status::IrsDown,
                ErrorKind::Parse => Status::BadRequest,
                ErrorKind::Io | ErrorKind::Other => Status::Internal,
                _ => Status::Internal,
            },
        }
    }

    /// The [`ErrorKind`] a client should treat this status as — the
    /// inverse of [`Status::for_error`], up to the taxonomy's own
    /// coarseness (`ShuttingDown` classifies as `Overloaded`, exactly
    /// as [`CouplingError::ShuttingDown.kind()`](CouplingError::kind)
    /// does in-process).
    pub fn kind(self) -> ErrorKind {
        match self {
            // Accepted is a success status; it never rides a fault
            // frame, so its error classification is the catch-all.
            Status::Accepted => ErrorKind::Other,
            Status::BadRequest => ErrorKind::Parse,
            Status::NotFound => ErrorKind::NotFound,
            Status::Overloaded | Status::ShuttingDown => ErrorKind::Overloaded,
            Status::Internal => ErrorKind::Other,
            Status::IrsDown => ErrorKind::IrsDown,
            Status::Timeout => ErrorKind::Timeout,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// An error as it crosses the wire: status plus the server's message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFault {
    /// Wire-level classification.
    pub status: Status,
    /// Human-readable detail (the server-side `Display` of the error).
    pub message: String,
}

impl WireFault {
    /// Build the fault frame payload for a server-side error.
    pub fn from_error(err: &CouplingError) -> WireFault {
        WireFault {
            status: Status::for_error(err),
            message: err.to_string(),
        }
    }
}

impl fmt::Display for WireFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.status.code(), self.message)
    }
}

// ---------------------------------------------------------------------
// Payload codec
// ---------------------------------------------------------------------

fn strategy_byte(s: MixedStrategy) -> u8 {
    match s {
        MixedStrategy::Independent => 0,
        MixedStrategy::IrsFirst => 1,
    }
}

fn strategy_from(b: u8) -> WireResult<MixedStrategy> {
    match b {
        0 => Ok(MixedStrategy::Independent),
        1 => Ok(MixedStrategy::IrsFirst),
        other => Err(DecodeError::unknown("mixed strategy", other).into()),
    }
}

fn origin_byte(o: ResultOrigin) -> u8 {
    match o {
        ResultOrigin::Fresh => 0,
        ResultOrigin::Buffered => 1,
        ResultOrigin::Stale => 2,
    }
}

fn origin_from(b: u8) -> WireResult<ResultOrigin> {
    match b {
        0 => Ok(ResultOrigin::Fresh),
        1 => Ok(ResultOrigin::Buffered),
        2 => Ok(ResultOrigin::Stale),
        other => Err(DecodeError::unknown("result origin", other).into()),
    }
}

fn put_globals(buf: &mut Vec<u8>, g: &QueryGlobals) {
    put_u32(buf, g.n_docs);
    put_u64(buf, g.total_tokens);
    put_u32(buf, g.min_doc_len);
    put_u32(buf, g.max_doc_len);
    put_u32(buf, g.terms.len() as u32);
    for t in &g.terms {
        put_str(buf, &t.term);
        put_u32(buf, t.df);
        put_u32(buf, t.max_tf);
    }
}

fn decode_globals(d: &mut Reader<'_>) -> WireResult<QueryGlobals> {
    let n_docs = d.u32("n_docs")?;
    let total_tokens = d.u64("total_tokens")?;
    let min_doc_len = d.u32("min_doc_len")?;
    let max_doc_len = d.u32("max_doc_len")?;
    // Each term entry needs at least a string length prefix + df + max_tf.
    let n = d.count_u32(12, "term stats list")?;
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        terms.push(TermGlobals {
            term: d.string("term")?,
            df: d.u32("df")?,
            max_tf: d.u32("max_tf")?,
        });
    }
    Ok(QueryGlobals {
        n_docs,
        total_tokens,
        min_doc_len,
        max_doc_len,
        terms,
    })
}

fn status_kind_byte(k: TaskStatusKind) -> u8 {
    match k {
        TaskStatusKind::Enqueued => 0,
        TaskStatusKind::Processing => 1,
        TaskStatusKind::Succeeded => 2,
        TaskStatusKind::Failed => 3,
    }
}

fn status_kind_from(b: u8) -> WireResult<TaskStatusKind> {
    match b {
        0 => Ok(TaskStatusKind::Enqueued),
        1 => Ok(TaskStatusKind::Processing),
        2 => Ok(TaskStatusKind::Succeeded),
        3 => Ok(TaskStatusKind::Failed),
        other => Err(DecodeError::unknown("task status", other).into()),
    }
}

fn put_task(buf: &mut Vec<u8>, task: &Task) {
    put_u64(buf, task.id);
    buf.push(status_kind_byte(task.status.kind()));
    if let TaskStatus::Failed { error } = &task.status {
        put_str(buf, error);
    }
    put_u64(buf, task.enqueued_at);
    match task.batch_id {
        Some(batch) => {
            buf.push(1);
            put_u64(buf, batch);
        }
        None => buf.push(0),
    }
    task.kind.encode(buf);
}

fn decode_task(d: &mut Reader<'_>) -> WireResult<Task> {
    let id = d.u64("task id")?;
    let status = match status_kind_from(d.u8("task status")?)? {
        TaskStatusKind::Enqueued => TaskStatus::Enqueued,
        TaskStatusKind::Processing => TaskStatus::Processing,
        TaskStatusKind::Succeeded => TaskStatus::Succeeded,
        TaskStatusKind::Failed => TaskStatus::Failed {
            error: d.string("task error")?,
        },
    };
    let enqueued_at = d.u64("enqueued tick")?;
    let batch_id = match d.u8("batch flag")? {
        0 => None,
        1 => Some(d.u64("batch id")?),
        other => return Err(DecodeError::unknown("batch flag", other).into()),
    };
    let kind = TaskKind::decode(d)?;
    Ok(Task {
        id,
        kind,
        status,
        enqueued_at,
        batch_id,
    })
}

fn put_task_filter(buf: &mut Vec<u8>, filter: &TaskFilter) {
    match filter.status {
        // 0 = no status predicate; 1..=4 = the status kind + 1.
        Some(kind) => buf.push(status_kind_byte(kind) + 1),
        None => buf.push(0),
    }
    match &filter.collection {
        Some(name) => {
            buf.push(1);
            put_str(buf, name);
        }
        None => buf.push(0),
    }
}

fn decode_task_filter(d: &mut Reader<'_>) -> WireResult<TaskFilter> {
    let status = match d.u8("status filter")? {
        0 => None,
        b => Some(status_kind_from(b - 1)?),
    };
    let collection = match d.u8("collection filter flag")? {
        0 => None,
        1 => Some(d.string("collection filter")?),
        other => return Err(DecodeError::unknown("collection filter flag", other).into()),
    };
    Ok(TaskFilter { status, collection })
}

/// Request tags of the retired synchronous write shapes. They stay
/// reserved: [`decode_request`] answers them with a
/// [`WireError::Malformed`] that points at `EnqueueTask`.
const RETIRED_REQUEST_TAGS: [(u8, &str); 2] = [(3, "UpdateText"), (4, "IndexObjects")];

/// Encode a request as a frame payload.
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match req {
        Request::IrsQuery { collection, query } => {
            buf.push(0);
            put_str(&mut buf, collection);
            put_str(&mut buf, query);
        }
        Request::MixedQuery {
            collection,
            class,
            irs_query,
            threshold,
            strategy,
        } => {
            buf.push(1);
            put_str(&mut buf, collection);
            put_str(&mut buf, class);
            put_str(&mut buf, irs_query);
            put_f64(&mut buf, *threshold);
            buf.push(strategy_byte(*strategy));
        }
        Request::GetIrsValue {
            collection,
            query,
            oid,
        } => {
            buf.push(2);
            put_str(&mut buf, collection);
            put_str(&mut buf, query);
            put_u64(&mut buf, oid.0);
        }
        Request::Ping => {
            buf.push(5);
        }
        Request::TermStats { collection, query } => {
            buf.push(6);
            put_str(&mut buf, collection);
            put_str(&mut buf, query);
        }
        Request::IrsQueryGlobal {
            collection,
            query,
            k,
            globals,
        } => {
            buf.push(7);
            put_str(&mut buf, collection);
            put_str(&mut buf, query);
            put_u64(&mut buf, *k);
            put_globals(&mut buf, globals);
        }
        Request::EnqueueTask { kind } => {
            buf.push(8);
            kind.encode(&mut buf);
        }
        Request::TaskStatus { id } => {
            buf.push(9);
            put_u64(&mut buf, *id);
        }
        Request::ListTasks { filter } => {
            buf.push(10);
            put_task_filter(&mut buf, filter);
        }
    }
    buf
}

/// Decode a request frame payload. Strict: unknown tags, truncated
/// fields, and trailing bytes are all [`WireError::Malformed`].
pub fn decode_request(payload: &[u8]) -> WireResult<Request> {
    let mut d = Reader::new(payload);
    let req = match d.u8("request tag")? {
        0 => Request::IrsQuery {
            collection: d.string("collection")?,
            query: d.string("query")?,
        },
        1 => Request::MixedQuery {
            collection: d.string("collection")?,
            class: d.string("class")?,
            irs_query: d.string("irs query")?,
            threshold: d.f64("threshold")?,
            strategy: strategy_from(d.u8("strategy")?)?,
        },
        2 => Request::GetIrsValue {
            collection: d.string("collection")?,
            query: d.string("query")?,
            oid: Oid(d.u64("oid")?),
        },
        5 => Request::Ping,
        6 => Request::TermStats {
            collection: d.string("collection")?,
            query: d.string("query")?,
        },
        7 => Request::IrsQueryGlobal {
            collection: d.string("collection")?,
            query: d.string("query")?,
            k: d.u64("k")?,
            globals: decode_globals(&mut d)?,
        },
        8 => Request::EnqueueTask {
            kind: TaskKind::decode(&mut d)?,
        },
        9 => Request::TaskStatus {
            id: d.u64("task id")?,
        },
        10 => Request::ListTasks {
            filter: decode_task_filter(&mut d)?,
        },
        other => {
            return Err(WireError::Malformed(
                match RETIRED_REQUEST_TAGS.iter().find(|(tag, _)| *tag == other) {
                    Some((_, name)) => format!(
                        "request kind {name} (tag {other}) is retired; send EnqueueTask instead"
                    ),
                    None => format!("unknown request tag {other}"),
                },
            ))
        }
    };
    d.finish()?;
    Ok(req)
}

/// Encode a response as a frame payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match resp {
        Response::IrsResult { hits, origin } => {
            buf.push(0);
            buf.push(origin_byte(*origin));
            put_u32(&mut buf, hits.len() as u32);
            for (oid, value) in hits {
                put_u64(&mut buf, oid.0);
                put_f64(&mut buf, *value);
            }
        }
        Response::Mixed {
            oids,
            strategy,
            origin,
        } => {
            buf.push(1);
            buf.push(strategy_byte(*strategy));
            buf.push(origin_byte(*origin));
            put_u32(&mut buf, oids.len() as u32);
            for oid in oids {
                put_u64(&mut buf, oid.0);
            }
        }
        Response::Value(v) => {
            buf.push(2);
            put_f64(&mut buf, *v);
        }
        Response::Pong => {
            buf.push(5);
        }
        Response::TermStats(globals) => {
            buf.push(6);
            put_globals(&mut buf, globals);
        }
        Response::IrsKeyed { hits } => {
            buf.push(7);
            put_u32(&mut buf, hits.len() as u32);
            for (key, value) in hits {
                put_str(&mut buf, key);
                put_f64(&mut buf, *value);
            }
        }
        Response::TaskAccepted(id) => {
            buf.push(8);
            put_u64(&mut buf, *id);
        }
        Response::TaskInfo(task) => {
            buf.push(9);
            put_task(&mut buf, task);
        }
        Response::TaskList(tasks) => {
            buf.push(10);
            put_u32(&mut buf, tasks.len() as u32);
            for task in tasks {
                put_task(&mut buf, task);
            }
        }
    }
    buf
}

/// Decode a response frame payload (strict, like [`decode_request`]).
pub fn decode_response(payload: &[u8]) -> WireResult<Response> {
    let mut d = Reader::new(payload);
    let resp = match d.u8("response tag")? {
        0 => {
            let origin = origin_from(d.u8("origin")?)?;
            let n = d.count_u32(16, "hit list")?;
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                let oid = Oid(d.u64("hit oid")?);
                let value = d.f64("hit value")?;
                hits.push((oid, value));
            }
            Response::IrsResult { hits, origin }
        }
        1 => {
            let strategy = strategy_from(d.u8("strategy")?)?;
            let origin = origin_from(d.u8("origin")?)?;
            let n = d.count_u32(8, "oid list")?;
            let mut oids = Vec::with_capacity(n);
            for _ in 0..n {
                oids.push(Oid(d.u64("oid")?));
            }
            Response::Mixed {
                oids,
                strategy,
                origin,
            }
        }
        2 => Response::Value(d.f64("value")?),
        5 => Response::Pong,
        6 => Response::TermStats(decode_globals(&mut d)?),
        7 => {
            // Each keyed hit needs at least a key length prefix + score.
            let n = d.count_u32(12, "keyed hit list")?;
            let mut hits = Vec::with_capacity(n);
            for _ in 0..n {
                let key = d.string("hit key")?;
                let value = d.f64("hit value")?;
                hits.push((key, value));
            }
            Response::IrsKeyed { hits }
        }
        8 => Response::TaskAccepted(d.u64("task id")?),
        9 => Response::TaskInfo(decode_task(&mut d)?),
        10 => {
            // Each task needs at least id + status + tick + batch flag
            // + a minimal kind (tag + one length prefix).
            let n = d.count_u32(23, "task list")?;
            let mut tasks = Vec::with_capacity(n);
            for _ in 0..n {
                tasks.push(decode_task(&mut d)?);
            }
            Response::TaskList(tasks)
        }
        other => return Err(DecodeError::unknown("response tag", other).into()),
    };
    d.finish()?;
    Ok(resp)
}

/// Encode a fault as an error-frame payload.
pub fn encode_fault(fault: &WireFault) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + fault.message.len());
    buf.extend_from_slice(&fault.status.code().to_le_bytes());
    put_str(&mut buf, &fault.message);
    buf
}

/// Decode an error-frame payload.
pub fn decode_fault(payload: &[u8]) -> WireResult<WireFault> {
    let mut d = Reader::new(payload);
    let code = d.u16("status code")?;
    let status =
        Status::from_code(code).ok_or_else(|| DecodeError::unknown("status code", code))?;
    let message = d.string("error message")?;
    d.finish()?;
    Ok(WireFault { status, message })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn roundtrip_frame(kind: FrameKind, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, kind, payload).unwrap();
        read_frame(&mut buf.as_slice()).unwrap().expect("one frame")
    }

    #[test]
    fn frame_roundtrip_and_clean_close() {
        let f = roundtrip_frame(FrameKind::Request, b"hello");
        assert_eq!(f.kind, FrameKind::Request);
        assert_eq!(f.payload, b"hello");
        // EOF at a frame boundary is a clean close.
        assert!(read_frame(&mut (&[] as &[u8])).unwrap().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[0] = b'X';
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::BadMagic(_))
        ));
    }

    #[test]
    fn bad_version_and_kind_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        let mut v = buf.clone();
        v[4] = 99;
        assert!(matches!(
            read_frame(&mut v.as_slice()),
            Err(WireError::BadVersion(99))
        ));
        let mut k = buf.clone();
        k[5] = 7;
        assert!(matches!(
            read_frame(&mut k.as_slice()),
            Err(WireError::BadKind(7))
        ));
    }

    #[test]
    fn oversize_length_rejected_before_allocation() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"x").unwrap();
        buf[6..10].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::Oversize(n)) if n == u64::from(u32::MAX)
        ));
    }

    #[test]
    fn oversize_error_reports_exact_length_past_4gib() {
        // Regression: the length used to be narrowed `as u32`, so a
        // payload of 4 GiB + 5 bytes reported "frame length 5" — a tiny,
        // legal-looking number. The check must carry the exact length.
        let huge = (u32::MAX as usize) + 6;
        match check_payload_len(huge) {
            Err(WireError::Oversize(n)) => assert_eq!(n, huge as u64),
            other => panic!("expected Oversize, got {other:?}"),
        }
        // Display carries the untruncated number too.
        let msg = WireError::Oversize(huge as u64).to_string();
        assert!(msg.contains(&huge.to_string()), "{msg}");
        assert!(check_payload_len(MAX_FRAME_LEN as usize).is_ok());
        assert!(check_payload_len(MAX_FRAME_LEN as usize + 1).is_err());
    }

    #[test]
    fn corrupt_payload_fails_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Response, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xff;
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn truncation_is_unexpected_eof_not_clean_close() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Request, b"0123456789").unwrap();
        for cut in [1, HEADER_LEN - 1, HEADER_LEN + 3] {
            let err = read_frame(&mut &buf[..cut]).expect_err("truncated");
            match err {
                WireError::Io(e) => assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof),
                other => panic!("expected Io(UnexpectedEof), got {other:?}"),
            }
        }
    }

    #[test]
    fn request_codec_roundtrips_every_variant() {
        let requests = vec![
            Request::IrsQuery {
                collection: "collPara".into(),
                query: "#and(telnet www)".into(),
            },
            Request::MixedQuery {
                collection: "c".into(),
                class: "PARA".into(),
                irs_query: "nii".into(),
                threshold: 0.45,
                strategy: MixedStrategy::IrsFirst,
            },
            Request::GetIrsValue {
                collection: "c".into(),
                query: "q".into(),
                oid: Oid(17),
            },
            Request::Ping,
            Request::TermStats {
                collection: "c".into(),
                query: "#or(www nii)".into(),
            },
            Request::IrsQueryGlobal {
                collection: "c".into(),
                query: "#or(www nii)".into(),
                k: u64::MAX,
                globals: sample_globals(),
            },
            Request::EnqueueTask {
                kind: TaskKind::UpdateText {
                    oid: Oid(12),
                    text: "wälzlager".into(),
                    collections: vec!["a".into(), "b".into()],
                },
            },
            Request::EnqueueTask {
                kind: TaskKind::IndexObjects {
                    collection: "c".into(),
                    spec_query: "ACCESS p FROM p IN PARA".into(),
                },
            },
            Request::EnqueueTask {
                kind: TaskKind::Flush {
                    collection: "c".into(),
                },
            },
            Request::TaskStatus { id: u64::MAX },
            Request::ListTasks {
                filter: TaskFilter::default(),
            },
            Request::ListTasks {
                filter: TaskFilter {
                    status: Some(TaskStatusKind::Failed),
                    collection: Some("collPara".into()),
                },
            },
        ];
        for req in requests {
            let decoded = decode_request(&encode_request(&req)).unwrap();
            assert_eq!(decoded, req);
        }
    }

    fn sample_globals() -> QueryGlobals {
        QueryGlobals {
            n_docs: 1234,
            total_tokens: 98_765,
            min_doc_len: 3,
            max_doc_len: 412,
            terms: vec![
                TermGlobals {
                    term: "www".into(),
                    df: 17,
                    max_tf: 5,
                },
                TermGlobals {
                    term: "nii".into(),
                    df: 2,
                    max_tf: 1,
                },
            ],
        }
    }

    #[test]
    fn response_codec_roundtrips_every_variant() {
        let responses = vec![
            Response::IrsResult {
                hits: vec![(Oid(1), 0.9), (Oid(2), 0.1)],
                origin: ResultOrigin::Stale,
            },
            Response::Mixed {
                oids: vec![Oid(5), Oid(9)],
                strategy: MixedStrategy::Independent,
                origin: ResultOrigin::Buffered,
            },
            Response::Value(0.725),
            Response::Pong,
            Response::TermStats(sample_globals()),
            Response::IrsKeyed {
                hits: vec![("oid:9".into(), 0.75), ("oid:10".into(), 0.75)],
            },
            Response::TaskAccepted(41),
            Response::TaskInfo(Task {
                id: 41,
                kind: TaskKind::Flush {
                    collection: "c".into(),
                },
                status: TaskStatus::Failed {
                    error: "irs unreachable".into(),
                },
                enqueued_at: 9,
                batch_id: Some(3),
            }),
            Response::TaskList(vec![
                Task {
                    id: 1,
                    kind: TaskKind::IndexObjects {
                        collection: "c".into(),
                        spec_query: "ACCESS p FROM p IN PARA".into(),
                    },
                    status: TaskStatus::Succeeded,
                    enqueued_at: 0,
                    batch_id: Some(1),
                },
                Task {
                    id: 2,
                    kind: TaskKind::UpdateText {
                        oid: Oid(3),
                        text: String::new(),
                        collections: vec![],
                    },
                    status: TaskStatus::Enqueued,
                    enqueued_at: 1,
                    batch_id: None,
                },
            ]),
        ];
        for resp in responses {
            let decoded = decode_response(&encode_response(&resp)).unwrap();
            assert_eq!(decoded, resp);
        }
    }

    #[test]
    fn hostile_term_stats_counts_rejected() {
        // A term-stats list claiming more entries than bytes remain.
        let mut buf = vec![6u8];
        put_u32(&mut buf, 1);
        put_u64(&mut buf, 10);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, 1);
        put_u32(&mut buf, u32::MAX);
        assert!(matches!(
            decode_response(&buf),
            Err(WireError::Malformed(_))
        ));
        // Same for a keyed hit list.
        let mut keyed = vec![7u8];
        put_u32(&mut keyed, u32::MAX);
        assert!(matches!(
            decode_response(&keyed),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn retired_request_tags_name_their_replacement() {
        for tag in [3u8, 4] {
            match decode_request(&[tag]) {
                Err(WireError::Malformed(why)) => assert!(why.contains("EnqueueTask"), "{why}"),
                other => panic!("tag {tag}: expected Malformed, got {other:?}"),
            }
        }
    }

    #[test]
    fn malformed_payloads_error_cleanly() {
        // Unknown tag.
        assert!(matches!(
            decode_request(&[200]),
            Err(WireError::Malformed(_))
        ));
        // Empty payload.
        assert!(matches!(decode_request(&[]), Err(WireError::Malformed(_))));
        // Truncated string.
        let mut buf = vec![0u8];
        put_u32(&mut buf, 100);
        assert!(matches!(decode_request(&buf), Err(WireError::Malformed(_))));
        // Trailing garbage.
        let mut ok = encode_request(&Request::IrsQuery {
            collection: "c".into(),
            query: "q".into(),
        });
        ok.push(0);
        assert!(matches!(decode_request(&ok), Err(WireError::Malformed(_))));
        // A ping carries no fields; a suffixed byte is trailing garbage.
        let mut ping = encode_request(&Request::Ping);
        assert_eq!(ping, vec![5]);
        ping.push(1);
        assert!(matches!(
            decode_request(&ping),
            Err(WireError::Malformed(_))
        ));
        let mut pong = encode_response(&Response::Pong);
        pong.push(1);
        assert!(matches!(
            decode_response(&pong),
            Err(WireError::Malformed(_))
        ));
        // Hostile element count (claims more hits than bytes).
        let mut resp = vec![0u8, 0u8];
        put_u32(&mut resp, u32::MAX);
        assert!(matches!(
            decode_response(&resp),
            Err(WireError::Malformed(_))
        ));
        // Bad discriminants.
        assert!(matches!(
            decode_response(&[0, 9, 0, 0, 0, 0]),
            Err(WireError::Malformed(_))
        ));
        // Invalid UTF-8 in a string.
        let mut bad = vec![0u8];
        put_u32(&mut bad, 2);
        bad.extend_from_slice(&[0xff, 0xfe]);
        put_u32(&mut bad, 0);
        assert!(matches!(decode_request(&bad), Err(WireError::Malformed(_))));
    }

    #[test]
    fn status_mapping_matches_error_taxonomy() {
        assert_eq!(
            Status::for_error(&CouplingError::Overloaded(64)),
            Status::Overloaded
        );
        assert_eq!(
            Status::for_error(&CouplingError::ShuttingDown),
            Status::ShuttingDown
        );
        assert_eq!(
            Status::for_error(&CouplingError::Timeout(Duration::from_millis(1))),
            Status::Timeout
        );
        assert_eq!(
            Status::for_error(&CouplingError::UnknownCollection("c".into())),
            Status::NotFound
        );
        assert_eq!(
            Status::for_error(&irs::IrsError::Unavailable("down".into()).into()),
            Status::IrsDown
        );
        assert_eq!(
            Status::for_error(&CouplingError::BadSpecQuery("no".into())),
            Status::BadRequest
        );
        assert_eq!(
            Status::for_error(&std::io::Error::other("disk").into()),
            Status::Internal
        );
        // Codes survive the wire and reverse to the right ErrorKind.
        for status in [
            Status::BadRequest,
            Status::NotFound,
            Status::Overloaded,
            Status::Internal,
            Status::IrsDown,
            Status::ShuttingDown,
            Status::Timeout,
        ] {
            assert_eq!(Status::from_code(status.code()), Some(status));
        }
        assert_eq!(Status::Overloaded.kind(), ErrorKind::Overloaded);
        assert_eq!(Status::ShuttingDown.kind(), ErrorKind::Overloaded);
        assert_eq!(Status::Timeout.kind(), ErrorKind::Timeout);
    }

    #[test]
    fn fault_roundtrip() {
        let fault = WireFault {
            status: Status::Overloaded,
            message: "overloaded: request queue at capacity 64".into(),
        };
        let decoded = decode_fault(&encode_fault(&fault)).unwrap();
        assert_eq!(decoded, fault);
        assert!(fault.to_string().starts_with("429"));
        // Unknown codes are malformed, not a panic.
        let mut bad = encode_fault(&fault);
        bad[0] = 0xff;
        bad[1] = 0xff;
        assert!(matches!(decode_fault(&bad), Err(WireError::Malformed(_))));
    }
}
