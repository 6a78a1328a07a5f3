//! Error type spanning both coupled systems.
//!
//! Every fallible operation in the workspace surfaces as one
//! [`CouplingError`] (aliased [`Error`]), converted `From` the per-crate
//! error types. Callers that need to *act* on a failure — a serving
//! layer mapping errors onto responses, a client deciding whether to
//! retry — should branch on [`CouplingError::kind`] rather than matching
//! variants or string-matching messages: [`ErrorKind`] is the stable,
//! coarse classification; the variants underneath may grow.

use std::fmt;
use std::time::Duration;

/// Convenient alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CouplingError>;

/// Alias for [`CouplingError`] — the unified error type of the coupled
/// system (`coupling::Error` reads naturally at call sites that
/// `use coupling::prelude::*`).
pub type Error = CouplingError;

/// Stable, coarse classification of a [`CouplingError`].
///
/// The serving layer maps errors to responses by kind; tests assert on
/// kinds. New error variants may be added at any time, but each maps to
/// one of these kinds (with [`ErrorKind::Other`] as the catch-all), so
/// matching on `kind()` stays exhaustive and future-proof.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ErrorKind {
    /// A named thing (collection, document, class, object, method) does
    /// not exist.
    NotFound,
    /// The request was rejected by admission control — a bounded queue
    /// was full, or the server is shutting down. Retrying later (with
    /// backoff) is reasonable.
    Overloaded,
    /// A per-request deadline expired before the request was served.
    Timeout,
    /// The IRS is unavailable (outage, injected fault, open circuit
    /// breaker) and retries/stale fallback could not mask it.
    IrsDown,
    /// An underlying I/O failure (persistence, journal, corrupt files).
    Io,
    /// Query or document text failed to parse, or a specification was
    /// malformed.
    Parse,
    /// Everything else (duplicate names, misuse of an API, …).
    Other,
}

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ErrorKind::NotFound => "not-found",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::Timeout => "timeout",
            ErrorKind::IrsDown => "irs-down",
            ErrorKind::Io => "io",
            ErrorKind::Parse => "parse",
            ErrorKind::Other => "other",
        };
        f.write_str(s)
    }
}

/// Errors raised by the coupling.
#[derive(Debug)]
pub enum CouplingError {
    /// The IRS side failed.
    Irs(irs::IrsError),
    /// The OODBMS side failed.
    Db(oodb::DbError),
    /// SGML processing failed.
    Sgml(sgml::SgmlError),
    /// A collection name is not registered.
    UnknownCollection(String),
    /// A collection name is already registered.
    DuplicateCollection(String),
    /// A specification query returned something other than objects.
    BadSpecQuery(String),
    /// A configuration cannot be serialised (e.g. a custom `getText`
    /// closure).
    NotPersistable(String),
    /// A bounded request queue was full; carries the queue capacity.
    Overloaded(usize),
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
    /// A per-request deadline expired; carries how long the request had
    /// waited when the deadline was enforced.
    Timeout(Duration),
    /// A remote replica call failed. The failure crossed a process
    /// boundary, so only its wire-level classification survives — the
    /// stored [`ErrorKind`] is authoritative and [`CouplingError::kind`]
    /// returns it unchanged.
    Remote {
        /// Classification the transport derived from the wire status
        /// (or from the local I/O failure).
        kind: ErrorKind,
        /// Human-readable detail, including which replica failed.
        message: String,
    },
    /// No task with the given id exists in the task ledger.
    UnknownTask(u64),
}

impl CouplingError {
    /// True for errors a retry or a stale-read fallback can be expected
    /// to resolve — a transient IRS failure (see
    /// [`irs::IrsError::is_transient`]), or a remote replica failure
    /// whose classification is infrastructural (the replica or the
    /// network, not the request itself).
    pub fn is_transient(&self) -> bool {
        match self {
            CouplingError::Irs(e) => e.is_transient(),
            CouplingError::Remote { kind, .. } => matches!(
                kind,
                ErrorKind::IrsDown | ErrorKind::Io | ErrorKind::Timeout | ErrorKind::Overloaded
            ),
            _ => false,
        }
    }

    /// The stable classification of this error (see [`ErrorKind`]).
    pub fn kind(&self) -> ErrorKind {
        match self {
            CouplingError::Irs(e) => match e {
                irs::IrsError::Unavailable(_) => ErrorKind::IrsDown,
                irs::IrsError::QueryParse { .. } => ErrorKind::Parse,
                irs::IrsError::UnknownDocument(_) => ErrorKind::NotFound,
                irs::IrsError::DuplicateDocument(_) | irs::IrsError::ReadOnly(_) => {
                    ErrorKind::Other
                }
                irs::IrsError::CorruptIndex(_) | irs::IrsError::Io(_) => ErrorKind::Io,
            },
            CouplingError::Db(e) => match e {
                oodb::DbError::UnknownClass(_)
                | oodb::DbError::UnknownObject(_)
                | oodb::DbError::UnknownMethod(_) => ErrorKind::NotFound,
                oodb::DbError::QueryParse { .. } => ErrorKind::Parse,
                oodb::DbError::Corrupt(_) | oodb::DbError::Io(_) => ErrorKind::Io,
                // getIRSValue failures inside query evaluation surface as
                // QueryEval with the IRS message embedded; without
                // structure we classify them conservatively.
                _ => ErrorKind::Other,
            },
            CouplingError::Sgml(_) => ErrorKind::Parse,
            CouplingError::UnknownCollection(_) => ErrorKind::NotFound,
            CouplingError::DuplicateCollection(_) => ErrorKind::Other,
            CouplingError::BadSpecQuery(_) => ErrorKind::Parse,
            CouplingError::NotPersistable(_) => ErrorKind::Other,
            CouplingError::Overloaded(_) | CouplingError::ShuttingDown => ErrorKind::Overloaded,
            CouplingError::Timeout(_) => ErrorKind::Timeout,
            CouplingError::Remote { kind, .. } => *kind,
            CouplingError::UnknownTask(_) => ErrorKind::NotFound,
        }
    }
}

impl fmt::Display for CouplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CouplingError::Irs(e) => write!(f, "IRS error: {e}"),
            CouplingError::Db(e) => write!(f, "OODBMS error: {e}"),
            CouplingError::Sgml(e) => write!(f, "SGML error: {e}"),
            CouplingError::UnknownCollection(n) => write!(f, "unknown collection {n:?}"),
            CouplingError::DuplicateCollection(n) => write!(f, "duplicate collection {n:?}"),
            CouplingError::BadSpecQuery(why) => write!(f, "bad specification query: {why}"),
            CouplingError::NotPersistable(what) => {
                write!(f, "configuration cannot be persisted: {what}")
            }
            CouplingError::Overloaded(cap) => {
                write!(f, "overloaded: request queue at capacity {cap}")
            }
            CouplingError::ShuttingDown => write!(f, "server is shutting down"),
            CouplingError::Timeout(waited) => {
                write!(f, "request deadline expired after {waited:?}")
            }
            CouplingError::Remote { kind, message } => {
                write!(f, "remote replica failure ({kind}): {message}")
            }
            CouplingError::UnknownTask(id) => write!(f, "unknown task {id}"),
        }
    }
}

impl std::error::Error for CouplingError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CouplingError::Irs(e) => Some(e),
            CouplingError::Db(e) => Some(e),
            CouplingError::Sgml(e) => Some(e),
            _ => None,
        }
    }
}

impl From<irs::IrsError> for CouplingError {
    fn from(e: irs::IrsError) -> Self {
        CouplingError::Irs(e)
    }
}

impl From<oodb::DbError> for CouplingError {
    fn from(e: oodb::DbError) -> Self {
        CouplingError::Db(e)
    }
}

impl From<sgml::SgmlError> for CouplingError {
    fn from(e: sgml::SgmlError) -> Self {
        CouplingError::Sgml(e)
    }
}

impl From<std::io::Error> for CouplingError {
    fn from(e: std::io::Error) -> Self {
        CouplingError::Irs(irs::IrsError::Io(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CouplingError = oodb::DbError::UnknownClass("X".into()).into();
        assert!(e.to_string().contains("OODBMS"));
        let e: CouplingError = irs::IrsError::UnknownDocument("k".into()).into();
        assert!(e.to_string().contains("IRS"));
        assert!(std::error::Error::source(&e).is_some());
        let e = CouplingError::UnknownCollection("coll".into());
        assert!(e.to_string().contains("coll"));
        assert!(std::error::Error::source(&e).is_none());
    }

    #[test]
    fn kinds_classify_stably() {
        assert_eq!(
            CouplingError::UnknownCollection("c".into()).kind(),
            ErrorKind::NotFound
        );
        assert_eq!(
            CouplingError::from(irs::IrsError::Unavailable("down".into())).kind(),
            ErrorKind::IrsDown
        );
        assert_eq!(
            CouplingError::from(irs::IrsError::QueryParse {
                reason: "bad".into(),
                offset: 0
            })
            .kind(),
            ErrorKind::Parse
        );
        assert_eq!(
            CouplingError::from(oodb::DbError::UnknownObject(oodb::Oid(1))).kind(),
            ErrorKind::NotFound
        );
        assert_eq!(
            CouplingError::from(std::io::Error::other("disk")).kind(),
            ErrorKind::Io
        );
        assert_eq!(CouplingError::Overloaded(8).kind(), ErrorKind::Overloaded);
        assert_eq!(CouplingError::ShuttingDown.kind(), ErrorKind::Overloaded);
        assert_eq!(
            CouplingError::Timeout(Duration::from_millis(5)).kind(),
            ErrorKind::Timeout
        );
        assert_eq!(
            CouplingError::BadSpecQuery("strings".into()).kind(),
            ErrorKind::Parse
        );
        assert_eq!(
            CouplingError::DuplicateCollection("c".into()).kind(),
            ErrorKind::Other
        );
        assert_eq!(CouplingError::UnknownTask(3).kind(), ErrorKind::NotFound);
        assert!(CouplingError::UnknownTask(3).to_string().contains('3'));
    }

    #[test]
    fn overload_and_timeout_display() {
        assert!(CouplingError::Overloaded(64).to_string().contains("64"));
        assert!(CouplingError::Timeout(Duration::from_millis(3))
            .to_string()
            .contains("deadline"));
        assert!(CouplingError::ShuttingDown.to_string().contains("shut"));
        assert_eq!(ErrorKind::IrsDown.to_string(), "irs-down");
    }
}
