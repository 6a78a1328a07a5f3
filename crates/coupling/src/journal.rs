//! Durable journal for deferred update propagation (paper Section 4.6).
//!
//! The paper's deferred propagation batches update operations in an
//! in-memory log — which means a crash between the database commit and
//! the flush silently loses IRS updates, and the eager/deferred
//! trade-off measured in E7 would be meaningless in a durable system.
//! [`Journal`] fixes that: every recorded operation is appended to an
//! [`oodb::log::Log`] — append-only, CRC-framed, fsynced — *before* it
//! enters the in-memory log, and [`Journal::open`] replays the surviving
//! records so pending updates outlive a crash. Framing, torn-tail
//! truncation and atomic rewrite are the log's; this module only adds
//! the operation codec and compaction.
//!
//! **Record payload:** `tag u8 ++ oid u64` (little-endian), tag 1 =
//! insert, 2 = modify, 3 = delete. A frame is therefore 17 bytes.
//!
//! **Cancellation at append time:** the paper's operation-cancellation
//! optimisation is applied to the journal too. When the file holds at
//! least twice as many records as the folded in-memory log (and at least
//! [`Journal::COMPACT_MIN`] records), the journal is atomically rewritten
//! to exactly the folded operations, so insert+delete churn cannot grow
//! the file without bound.

use std::path::Path;

use oodb::codec::Reader;
use oodb::log::Log;
use oodb::Oid;

use crate::error::Result;
use crate::propagate::PendingOp;

/// Bytes in one encoded operation; also the log's payload cap.
const OP_LEN: usize = 9;

fn encode_op(op: PendingOp) -> [u8; OP_LEN] {
    let (tag, oid) = match op {
        PendingOp::Insert(o) => (1u8, o),
        PendingOp::Modify(o) => (2u8, o),
        PendingOp::Delete(o) => (3u8, o),
    };
    let mut payload = [0u8; OP_LEN];
    payload[0] = tag;
    payload[1..].copy_from_slice(&oid.0.to_le_bytes());
    payload
}

fn decode_op(payload: &[u8]) -> Option<PendingOp> {
    let mut r = Reader::new(payload);
    let (tag, oid) = (r.u8("op tag").ok()?, Oid(r.u64("op oid").ok()?));
    r.finish().ok()?;
    match tag {
        1 => Some(PendingOp::Insert(oid)),
        2 => Some(PendingOp::Modify(oid)),
        3 => Some(PendingOp::Delete(oid)),
        _ => None,
    }
}

fn encode_all(ops: &[PendingOp]) -> Vec<[u8; OP_LEN]> {
    ops.iter().copied().map(encode_op).collect()
}

/// The durable log of pending propagation operations. Owned by
/// [`crate::Propagator`]; see the module docs.
#[derive(Debug)]
pub struct Journal {
    log: Log,
}

impl Journal {
    /// Minimum record count before compaction is considered.
    pub const COMPACT_MIN: u64 = 8;

    /// Open (or create) the journal at `path`, replaying surviving
    /// records. A torn or corrupt tail is truncated away; the returned
    /// operations are the journal's last consistent state in append
    /// order (replay also stops at a CRC-valid record that is not an
    /// operation).
    pub fn open(path: &Path) -> Result<(Journal, Vec<PendingOp>)> {
        let (log, payloads) = Log::open(path, OP_LEN)?;
        let ops: Vec<PendingOp> = payloads.iter().map_while(|p| decode_op(p)).collect();
        let mut journal = Journal { log };
        if ops.len() < payloads.len() {
            // Drop the undecodable record and everything after it, so
            // later appends are not stranded behind it.
            journal.rewrite(&ops)?;
        }
        Ok((journal, ops))
    }

    /// `sync_data` calls issued since open.
    pub fn syncs(&self) -> u64 {
        self.log.syncs()
    }

    /// The journal's file path.
    pub fn path(&self) -> &Path {
        self.log.path()
    }

    /// Records currently in the file.
    pub fn frames(&self) -> u64 {
        self.log.records()
    }

    /// Compaction rewrites performed since open.
    pub fn rewrites(&self) -> u64 {
        self.log.rewrites()
    }

    /// Durably append one operation.
    pub fn append(&mut self, op: PendingOp) -> Result<()> {
        Ok(self.log.append(&encode_op(op))?)
    }

    /// Durably append several operations with **one** `sync_data`.
    pub fn append_batch(&mut self, ops: &[PendingOp]) -> Result<()> {
        Ok(self.log.append_batch(&encode_all(ops))?)
    }

    /// Atomically replace the journal's contents with exactly `ops`.
    pub fn rewrite(&mut self, ops: &[PendingOp]) -> Result<()> {
        Ok(self.log.rewrite(&encode_all(ops))?)
    }

    /// Compaction: rewrite the journal to `folded` (the in-memory log
    /// after cancellation) once the file holds at least
    /// [`Journal::COMPACT_MIN`] records and at least twice as many as
    /// `folded`.
    pub fn compact(&mut self, folded: &[PendingOp]) -> Result<()> {
        let frames = self.frames();
        if frames >= Self::COMPACT_MIN && frames >= 2 * folded.len() as u64 {
            self.rewrite(folded)?;
        }
        Ok(())
    }

    /// Empty the journal (after a fully successful flush).
    pub fn clear(&mut self) -> Result<()> {
        Ok(self.log.clear()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("coupling-journal-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    #[test]
    fn append_and_replay_round_trip() {
        let path = tmp("round_trip.journal");
        let ops = vec![
            PendingOp::Insert(Oid(1)),
            PendingOp::Modify(Oid(2)),
            PendingOp::Delete(Oid(3)),
        ];
        {
            let (mut j, replayed) = Journal::open(&path).unwrap();
            assert!(replayed.is_empty());
            for &op in &ops {
                j.append(op).unwrap();
            }
            assert_eq!(j.frames(), 3);
        }
        let (j, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, ops);
        assert_eq!(j.frames(), 3);
    }

    #[test]
    fn torn_tail_is_truncated_to_last_consistent_state() {
        let path = tmp("torn.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(PendingOp::Insert(Oid(1))).unwrap();
            j.append(PendingOp::Modify(Oid(2))).unwrap();
        }
        // Cut into the second frame.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (j, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, vec![PendingOp::Insert(Oid(1))]);
        assert_eq!(j.frames(), 1);
        // The file itself was truncated to the valid prefix.
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 17);
    }

    #[test]
    fn bit_flip_inside_a_frame_stops_replay_there() {
        let path = tmp("bitflip.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append(PendingOp::Insert(Oid(1))).unwrap();
            j.append(PendingOp::Delete(Oid(2))).unwrap();
        }
        // Flip a payload byte of the second frame (offset 17 + 5).
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[22] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, vec![PendingOp::Insert(Oid(1))]);
    }

    #[test]
    fn rewrite_compacts_and_appends_continue() {
        let path = tmp("rewrite.journal");
        let (mut j, _) = Journal::open(&path).unwrap();
        for i in 0..10 {
            j.append(PendingOp::Insert(Oid(i))).unwrap();
        }
        j.rewrite(&[PendingOp::Insert(Oid(99))]).unwrap();
        assert_eq!(j.frames(), 1);
        assert_eq!(j.rewrites(), 1);
        // Appends after a rewrite land in the new file.
        j.append(PendingOp::Delete(Oid(99))).unwrap();
        drop(j);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(
            replayed,
            vec![PendingOp::Insert(Oid(99)), PendingOp::Delete(Oid(99))]
        );
    }

    #[test]
    fn clear_empties_the_file() {
        let path = tmp("clear.journal");
        let (mut j, _) = Journal::open(&path).unwrap();
        j.append(PendingOp::Insert(Oid(1))).unwrap();
        j.clear().unwrap();
        assert_eq!(j.frames(), 0);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        let (_, replayed) = Journal::open(&path).unwrap();
        assert!(replayed.is_empty());
    }

    #[test]
    fn immediate_policy_syncs_every_frame() {
        let path = tmp("sync_immediate.journal");
        let (mut j, _) = Journal::open(&path).unwrap();
        for i in 0..3 {
            j.append(PendingOp::Insert(Oid(i))).unwrap();
        }
        assert_eq!(j.syncs(), 3, "one sync_data per appended frame");
    }

    #[test]
    fn append_batch_is_one_sync_and_replays_in_order() {
        let path = tmp("batch.journal");
        let ops = vec![
            PendingOp::Insert(Oid(1)),
            PendingOp::Modify(Oid(2)),
            PendingOp::Delete(Oid(3)),
            PendingOp::Modify(Oid(4)),
        ];
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append_batch(&ops).unwrap();
            assert_eq!(j.syncs(), 1, "whole batch rides one sync_data");
            assert_eq!(j.frames(), 4);
            j.append_batch(&[]).unwrap();
            assert_eq!(j.syncs(), 1, "empty batch is free");
        }
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, ops);
    }

    #[test]
    fn torn_batch_tail_recovers_prefix() {
        let path = tmp("batch_torn.journal");
        {
            let (mut j, _) = Journal::open(&path).unwrap();
            j.append_batch(&[PendingOp::Insert(Oid(1)), PendingOp::Insert(Oid(2))])
                .unwrap();
        }
        // Tear into the second frame of the batch, as a crash between
        // write and sync could.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (_, replayed) = Journal::open(&path).unwrap();
        assert_eq!(replayed, vec![PendingOp::Insert(Oid(1))]);
    }

    #[test]
    fn empty_or_missing_journal_opens_clean() {
        let path = tmp("fresh.journal");
        let (j, replayed) = Journal::open(&path).unwrap();
        assert!(replayed.is_empty());
        assert_eq!(j.frames(), 0);
        assert!(path.exists(), "open creates the file");
    }
}
