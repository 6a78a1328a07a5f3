//! Write-ahead log.
//!
//! Redo-only logging: a transaction's records are buffered in memory and
//! appended as **one** [`Log`] record — the records' encodings followed
//! by a [`Record::Commit`] marker — made durable with one `sync_data`.
//! DDL (class and index definitions) is logged the same way as its own
//! single-record batch. Recovery replays complete batches in order. The
//! log's CRC framing ends replay at the first torn or damaged batch and
//! truncates it away, so a crash mid-append loses only that batch and a
//! flipped bit is never replayed as data. A CRC-valid batch that does
//! not decode (a writer bug or a format skew, not a crash) is
//! [`DbError::Corrupt`].
//!
//! Logs written before the move to [`Log`] framing (`wal.odb`:
//! `[varint len][payload]` frames, no CRC) are read once by a private
//! reader when [`crate::Database::open`] migrates them.

use std::path::Path;

use crate::codec::{put_varint, put_vstr, DecodeError, DecodeResult, Reader};
use crate::error::{DbError, Result};
use crate::log::Log;
use crate::oid::Oid;
use crate::value::Value;

/// Largest batch the log accepts: the framing's `u32` length limit.
const MAX_BATCH: usize = u32::MAX as usize;

/// One redo record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A class definition (`parent` by name, resolved at replay).
    DefineClass {
        /// Class name.
        name: String,
        /// Optional superclass name.
        parent: Option<String>,
    },
    /// An index creation; `kind` is 0 = B+tree, 1 = hash.
    CreateIndex {
        /// Indexed class name.
        class: String,
        /// Indexed attribute.
        attr: String,
        /// 0 = B+tree, 1 = hash.
        kind: u8,
    },
    /// Object creation.
    Create {
        /// The created object's OID.
        oid: Oid,
        /// Its class name.
        class: String,
    },
    /// Attribute assignment (including `Null` = clear).
    SetAttr {
        /// Target object.
        oid: Oid,
        /// Attribute name.
        attr: String,
        /// New value.
        value: Value,
    },
    /// Object deletion.
    Delete {
        /// The deleted object's OID.
        oid: Oid,
    },
    /// Terminates a batch; everything since the previous marker is atomic.
    Commit,
}

impl Record {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Record::DefineClass { name, parent } => {
                out.push(1);
                put_vstr(out, name);
                match parent {
                    Some(p) => {
                        out.push(1);
                        put_vstr(out, p);
                    }
                    None => out.push(0),
                }
            }
            Record::CreateIndex { class, attr, kind } => {
                out.push(2);
                put_vstr(out, class);
                put_vstr(out, attr);
                out.push(*kind);
            }
            Record::Create { oid, class } => {
                out.push(3);
                put_varint(out, oid.0);
                put_vstr(out, class);
            }
            Record::SetAttr { oid, attr, value } => {
                out.push(4);
                put_varint(out, oid.0);
                put_vstr(out, attr);
                value.encode(out);
            }
            Record::Delete { oid } => {
                out.push(5);
                put_varint(out, oid.0);
            }
            Record::Commit => out.push(6),
        }
    }

    fn decode(r: &mut Reader<'_>) -> DecodeResult<Record> {
        Ok(match r.u8("record tag")? {
            1 => Record::DefineClass {
                name: r.vstring("class name")?,
                parent: match r.u8("parent flag")? {
                    0 => None,
                    1 => Some(r.vstring("parent name")?),
                    flag => return Err(DecodeError::unknown("parent flag", flag)),
                },
            },
            2 => Record::CreateIndex {
                class: r.vstring("index class")?,
                attr: r.vstring("index attr")?,
                kind: r.u8("index kind")?,
            },
            3 => Record::Create {
                oid: Oid(r.varint("oid")?),
                class: r.vstring("class name")?,
            },
            4 => Record::SetAttr {
                oid: Oid(r.varint("oid")?),
                attr: r.vstring("attr name")?,
                value: Value::decode(r)?,
            },
            5 => Record::Delete {
                oid: Oid(r.varint("oid")?),
            },
            6 => Record::Commit,
            tag => return Err(DecodeError::unknown("record tag", tag)),
        })
    }
}

/// Decode one committed batch: records up to a [`Record::Commit`]
/// marker that ends the payload exactly.
fn decode_batch(payload: &[u8]) -> DecodeResult<Vec<Record>> {
    let mut r = Reader::new(payload);
    let mut batch = Vec::new();
    loop {
        match Record::decode(&mut r)? {
            Record::Commit => return r.finish().map(|()| batch),
            record => batch.push(record),
        }
    }
}

/// Appender for the WAL file.
#[derive(Debug)]
pub struct WalWriter {
    log: Log,
}

impl WalWriter {
    /// Open (creating or appending to) the WAL at `path`. A torn tail is
    /// truncated first, so appends continue after the last complete
    /// batch.
    pub fn open(path: &Path) -> Result<Self> {
        let (log, _) = Log::open(path, MAX_BATCH)?;
        Ok(WalWriter { log })
    }

    /// Append `records` followed by a commit marker as one log record,
    /// then sync. The batch is atomic with respect to recovery.
    pub fn append_batch(&mut self, records: &[Record]) -> Result<()> {
        let mut payload = Vec::new();
        for r in records {
            r.encode(&mut payload);
        }
        Record::Commit.encode(&mut payload);
        self.log.append(&payload)
    }

    /// Durably empty the WAL (after a checkpoint).
    pub fn clear(&mut self) -> Result<()> {
        self.log.clear()
    }
}

/// Open the WAL at `path`: every record of every complete batch, in
/// order, plus a writer appending after them. A torn or CRC-damaged tail
/// is truncated away; a CRC-valid batch that does not decode is
/// [`DbError::Corrupt`].
pub fn open(path: &Path) -> Result<(WalWriter, Vec<Record>)> {
    let (log, payloads) = Log::open(path, MAX_BATCH)?;
    let mut records = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        let batch = decode_batch(payload).map_err(|e| {
            DbError::Corrupt(format!(
                "wal batch {i} does not decode as a committed batch: {e}"
            ))
        })?;
        records.extend(batch);
    }
    Ok((WalWriter { log }, records))
}

/// Read every complete batch from the WAL at `path` (see [`open`]).
pub fn replay(path: &Path) -> Result<Vec<Record>> {
    open(path).map(|(_, records)| records)
}

/// Read a legacy `[varint len][payload]` WAL. A truncated trailing frame
/// is discarded; a complete frame that does not decode as a committed
/// batch is an error.
pub(crate) fn replay_legacy(path: &Path) -> Result<Vec<Record>> {
    let buf = std::fs::read(path)?;
    let mut r = Reader::new(&buf);
    let mut records = Vec::new();
    while r.remaining() > 0 {
        let frame_start = r.pos();
        let Ok(len) = r.count_varint(1, "legacy wal frame") else {
            break; // torn length prefix or payload
        };
        let frame = r.take(len, "legacy wal frame")?;
        let batch = decode_batch(frame).map_err(|e| {
            DbError::Corrupt(format!(
                "undecodable legacy wal frame at byte {frame_start}: {e}"
            ))
        })?;
        records.extend(batch);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("oodb-wal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn sample_batch() -> Vec<Record> {
        vec![
            Record::DefineClass {
                name: "PARA".into(),
                parent: Some("IRSObject".into()),
            },
            Record::Create {
                oid: Oid(7),
                class: "PARA".into(),
            },
            Record::SetAttr {
                oid: Oid(7),
                attr: "content".into(),
                value: Value::from("Telnet is a protocol"),
            },
            Record::Delete { oid: Oid(3) },
            Record::CreateIndex {
                class: "PARA".into(),
                attr: "year".into(),
                kind: 0,
            },
        ]
    }

    #[test]
    fn batches_round_trip() {
        let path = tmp("round_trip.wal");
        let batch = sample_batch();
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append_batch(&batch).unwrap();
            w.append_batch(&[Record::Delete { oid: Oid(7) }]).unwrap();
        }
        let records = replay(&path).unwrap();
        let mut expect = batch;
        expect.push(Record::Delete { oid: Oid(7) });
        assert_eq!(records, expect);
    }

    #[test]
    fn torn_tail_is_discarded() {
        let path = tmp("torn.wal");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append_batch(&sample_batch()).unwrap();
            w.append_batch(&[Record::Delete { oid: Oid(9) }]).unwrap();
        }
        // Chop off the last few bytes to simulate a crash mid-write.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let records = replay(&path).unwrap();
        assert_eq!(records.len(), sample_batch().len(), "partial batch dropped");
    }

    /// Write `payload` as one CRC-valid log record.
    fn write_log_record(path: &Path, payload: &[u8]) {
        let (mut log, _) = Log::open(path, MAX_BATCH).unwrap();
        log.append(payload).unwrap();
    }

    #[test]
    fn frame_without_commit_marker_is_corrupt() {
        let path = tmp("nocommit.wal");
        // A CRC-valid log record holding one record but no marker.
        let mut payload = Vec::new();
        Record::Delete { oid: Oid(1) }.encode(&mut payload);
        write_log_record(&path, &payload);
        assert!(matches!(replay(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn garbage_within_frame_is_corrupt() {
        let path = tmp("garbage.wal");
        write_log_record(&path, &[99u8, 1, 2, 3]);
        assert!(matches!(replay(&path), Err(DbError::Corrupt(_))));
    }

    #[test]
    fn empty_wal_is_fine() {
        let path = tmp("empty.wal");
        std::fs::write(&path, b"").unwrap();
        assert!(replay(&path).unwrap().is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// A CRC-valid batch with overwritten bytes or a cut tail never
        /// panics the batch decoder.
        #[test]
        fn mutated_batches_never_panic(
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..6),
            trim in 0usize..4,
        ) {
            let mut bytes = {
                let mut payload = Vec::new();
                for r in sample_batch() {
                    r.encode(&mut payload);
                }
                Record::Commit.encode(&mut payload);
                payload
            };
            for (i, b) in edits {
                let n = bytes.len();
                bytes[i % n] = b;
            }
            bytes.truncate(bytes.len().saturating_sub(trim));
            let _ = decode_batch(&bytes);
        }
    }
}
