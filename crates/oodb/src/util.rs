//! The CRC-32 checksum and the crash-safe file-write primitives the
//! snapshot and [`crate::log`] use. The byte codec inside their records
//! is [`crate::codec`].

use std::fs::File;
use std::io::Write;
use std::path::Path;

use crate::codec::Reader;
use crate::error::{DbError, Result};

/// CRC-32 (IEEE 802.3 polynomial, reflected) lookup table, built at
/// compile time.
const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) checksum of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ u32::from(b)) & 0xff) as usize];
    }
    !crc
}

/// Crash-safe file write: `payload` plus a 4-byte little-endian CRC-32
/// trailer atomically replaces `path` (see [`atomic_replace`]). A crash
/// at any point leaves either the old file or the complete new one.
pub fn atomic_write(path: &Path, payload: &[u8]) -> Result<()> {
    atomic_replace(path, &[payload, &crc32(payload).to_le_bytes()])
}

/// Atomically replace `path` with the concatenation of `parts`: they go
/// to `<path>.tmp`, which is `sync_all`ed and renamed over `path`, and
/// the directory is fsynced so the rename itself persists.
pub fn atomic_replace(path: &Path, parts: &[&[u8]]) -> Result<()> {
    let file_name = path.file_name().ok_or_else(|| {
        DbError::Io(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("atomic write: path {} has no file name", path.display()),
        ))
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        for part in parts {
            f.write_all(part)?;
        }
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            // Persist the rename itself; best-effort across platforms.
            if let Ok(dir) = File::open(parent) {
                let _ = dir.sync_all();
            }
        }
    }
    Ok(())
}

/// Read a file written by [`atomic_write`], verify its CRC-32 trailer,
/// and return the payload without the trailer.
pub fn read_verified(path: &Path) -> Result<Vec<u8>> {
    let mut buf = std::fs::read(path)?;
    if buf.len() < 4 {
        return Err(DbError::Corrupt("file shorter than its CRC trailer".into()));
    }
    let crc_pos = buf.len() - 4;
    let expected = Reader::new(&buf[crc_pos..]).u32("crc trailer")?;
    let actual = crc32(&buf[..crc_pos]);
    if actual != expected {
        return Err(DbError::Corrupt(format!(
            "crc mismatch: stored {expected:#010x}, computed {actual:#010x}"
        )));
    }
    buf.truncate(crc_pos);
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vector() {
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn atomic_write_read_verified_round_trip() {
        let dir = std::env::temp_dir().join("oodb-util-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("atomic.bin");
        atomic_write(&path, b"snapshot payload").unwrap();
        assert_eq!(read_verified(&path).unwrap(), b"snapshot payload");
        assert!(!path.with_file_name("atomic.bin.tmp").exists());
        // In-place corruption that preserves length is caught by the CRC.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[3] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(read_verified(&path), Err(DbError::Corrupt(_))));
    }
}
