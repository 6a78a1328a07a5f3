//! The append-only, CRC-framed record log — the one durability
//! primitive under the write-ahead log ([`crate::store::wal`]) and, in
//! the coupling layer, the propagation journal and the update-task
//! ledger.
//!
//! **Record format** (integers little-endian):
//!
//! ```text
//! [len: u32] [payload: len bytes] [crc32(payload): u32]
//! ```
//!
//! Payloads are opaque, non-empty and at most the `max_payload` the log
//! was opened with. [`Log::open`] returns the longest valid prefix of
//! the file: the first record that is torn, oversize or fails its CRC
//! ends replay, and the file is truncated back to that point so later
//! appends continue from a consistent prefix. A crash mid-append (or a
//! flipped bit) therefore loses the damaged record and everything after
//! it, never earlier ones, and never returns altered bytes.
//!
//! Durability: [`Log::append_batch`] writes all of its records with one
//! `write_all` and makes them durable with one `sync_data` (group
//! commit at the caller's batch boundary); [`Log::clear`] empties the
//! file durably; [`Log::rewrite`] replaces the contents atomically via
//! [`crate::util::atomic_replace`] (temp file, fsync, rename, directory
//! fsync), so a crash leaves either the old or the new records.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::codec::{put_u32, Reader};
use crate::error::{DbError, Result};
use crate::util::{atomic_replace, crc32};

/// Bytes of framing around each payload (length prefix + CRC trailer).
const FRAME_OVERHEAD: usize = 8;

/// Append `payload` to `out` as one framed record.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    out.extend_from_slice(payload);
    put_u32(out, crc32(payload));
}

/// The record starting at `pos`, if a complete, CRC-valid one of at most
/// `max_payload` bytes is there: its payload and the offset just past
/// it. `None` marks a torn or corrupt tail, or the clean end of input.
fn next_record(bytes: &[u8], pos: usize, max_payload: usize) -> Option<(&[u8], usize)> {
    let mut r = Reader::new(bytes.get(pos..)?);
    let len = r.u32("record length").ok()? as usize;
    if len == 0 || len > max_payload {
        return None;
    }
    let payload = r.take(len, "record payload").ok()?;
    let crc = r.u32("record crc").ok()?;
    (crc32(payload) == crc).then_some((payload, pos + FRAME_OVERHEAD + len))
}

/// An open record log. See the module docs for format and guarantees.
#[derive(Debug)]
pub struct Log {
    path: PathBuf,
    file: File,
    max_payload: usize,
    records: u64,
    syncs: u64,
    rewrites: u64,
}

impl Log {
    /// Open (or create) the log at `path`, creating missing parent
    /// directories. Returns the surviving payloads in append order; a
    /// torn or corrupt tail is truncated away. `max_payload` bounds
    /// record sizes on both read and write — a declared length above it
    /// marks corruption.
    pub fn open(path: &Path, max_payload: usize) -> Result<(Log, Vec<Vec<u8>>)> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e.into()),
        };
        let mut payloads = Vec::new();
        let mut valid = 0usize;
        while let Some((payload, end)) = next_record(&bytes, valid, max_payload) {
            payloads.push(payload.to_vec());
            valid = end;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let mut log = Log {
            path: path.to_path_buf(),
            file,
            max_payload,
            records: payloads.len() as u64,
            syncs: 0,
            rewrites: 0,
        };
        if valid < bytes.len() {
            // Crash artifact: drop the torn tail so appends continue
            // from a consistent prefix.
            log.file.set_len(valid as u64)?;
            log.sync()?;
        }
        Ok((log, payloads))
    }

    /// The log's file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records currently in the file.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// `sync_data` calls issued on the file since open (appends, clears
    /// and torn-tail truncation; rewrites are counted by
    /// [`Log::rewrites`]).
    pub fn syncs(&self) -> u64 {
        self.syncs
    }

    /// Atomic rewrites performed since open.
    pub fn rewrites(&self) -> u64 {
        self.rewrites
    }

    fn sync(&mut self) -> Result<()> {
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// Frame every payload into one buffer, rejecting empty or oversize
    /// ones before anything is written.
    fn frame_all<P: AsRef<[u8]>>(&self, payloads: &[P]) -> Result<Vec<u8>> {
        let total: usize = payloads.iter().map(|p| p.as_ref().len()).sum();
        let mut out = Vec::with_capacity(total + FRAME_OVERHEAD * payloads.len());
        for payload in payloads {
            let payload = payload.as_ref();
            if payload.is_empty() || payload.len() > self.max_payload {
                return Err(DbError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "log record of {} bytes outside (0, {}]",
                        payload.len(),
                        self.max_payload
                    ),
                )));
            }
            frame_into(&mut out, payload);
        }
        Ok(out)
    }

    /// Durably append one record.
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.append_batch(&[payload])
    }

    /// Durably append several records with one `write_all` and one
    /// `sync_data`. An empty batch writes and syncs nothing.
    pub fn append_batch<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<()> {
        if payloads.is_empty() {
            return Ok(());
        }
        let out = self.frame_all(payloads)?;
        self.file.write_all(&out)?;
        self.sync()?;
        self.records += payloads.len() as u64;
        Ok(())
    }

    /// Atomically replace the log's contents with exactly `payloads`
    /// (compaction).
    pub fn rewrite<P: AsRef<[u8]>>(&mut self, payloads: &[P]) -> Result<()> {
        let out = self.frame_all(payloads)?;
        atomic_replace(&self.path, &[&out])?;
        // The old append handle points at the unlinked inode; reopen.
        self.file = OpenOptions::new().append(true).open(&self.path)?;
        self.records = payloads.len() as u64;
        self.rewrites += 1;
        Ok(())
    }

    /// Durably empty the log.
    pub fn clear(&mut self) -> Result<()> {
        self.file.set_len(0)?;
        self.sync()?;
        self.records = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("oodb-log-tests")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn payloads(log: &[&[u8]]) -> Vec<Vec<u8>> {
        log.iter().map(|p| p.to_vec()).collect()
    }

    #[test]
    fn round_trip_and_torn_tail() {
        let path = tmp("records.log");
        {
            let (mut log, replayed) = Log::open(&path, 1024).unwrap();
            assert!(replayed.is_empty());
            log.append(b"alpha").unwrap();
            log.append_batch(&[b"beta".as_slice(), b"gamma".as_slice()])
                .unwrap();
            assert_eq!(log.records(), 3);
            assert_eq!(log.syncs(), 2, "one sync per append call");
        }
        let (_, replayed) = Log::open(&path, 1024).unwrap();
        assert_eq!(replayed, payloads(&[b"alpha", b"beta", b"gamma"]));
        // Tear into the last record; the prefix survives and the file is
        // truncated back to it.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 2]).unwrap();
        let (log, replayed) = Log::open(&path, 1024).unwrap();
        assert_eq!(replayed, payloads(&[b"alpha", b"beta"]));
        assert_eq!(log.records(), 2);
        assert_eq!(
            std::fs::metadata(&path).unwrap().len() as usize,
            5 + 4 + 2 * FRAME_OVERHEAD
        );
    }

    #[test]
    fn appends_after_a_torn_tail_replay() {
        let path = tmp("torn_then_append.log");
        {
            let (mut log, _) = Log::open(&path, 64).unwrap();
            log.append(b"one").unwrap();
            log.append(b"two").unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        {
            let (mut log, replayed) = Log::open(&path, 64).unwrap();
            assert_eq!(replayed, payloads(&[b"one"]));
            log.append(b"three").unwrap();
        }
        let (_, replayed) = Log::open(&path, 64).unwrap();
        assert_eq!(replayed, payloads(&[b"one", b"three"]));
    }

    #[test]
    fn rejects_oversize_and_empty_payloads() {
        let path = tmp("cap.log");
        let (mut log, _) = Log::open(&path, 8).unwrap();
        assert!(
            log.append(b"123456789").is_err(),
            "9 bytes over an 8-byte cap"
        );
        assert!(log.append(b"").is_err(), "empty payloads are unframeable");
        assert!(log.append(b"12345678").is_ok());
        assert_eq!(log.records(), 1);
        // A record over the reader's cap stops replay there.
        let (_, replayed) = Log::open(&path, 4).unwrap();
        assert!(replayed.is_empty());
    }

    #[test]
    fn rewrite_compacts_and_appends_continue() {
        let path = tmp("rewrite.log");
        let (mut log, _) = Log::open(&path, 64).unwrap();
        for i in 0..10u8 {
            log.append(&[i + 1]).unwrap();
        }
        log.rewrite(&[b"only".as_slice()]).unwrap();
        assert_eq!((log.records(), log.rewrites()), (1, 1));
        log.append(b"after").unwrap();
        drop(log);
        let (_, replayed) = Log::open(&path, 64).unwrap();
        assert_eq!(replayed, payloads(&[b"only", b"after"]));
        assert!(!path.with_file_name("rewrite.log.tmp").exists());
    }

    #[test]
    fn open_creates_missing_parent_directories() {
        let root = tmp("nested-root");
        let _ = std::fs::remove_dir_all(&root);
        let path = root.join("a").join("b").join("fresh.log");
        let (log, replayed) = Log::open(&path, 64).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(log.records(), 0);
        assert!(path.exists(), "open creates the file");
        let _ = std::fs::remove_dir_all(&root);
    }
}
