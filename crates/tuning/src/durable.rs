//! The durable-file primitives every on-disk store in the workspace
//! shares: the tuning store's journal and snapshot, and the service's
//! disk compile cache. Each routes through the [`fault`] probes, so one
//! `GPGPU_FAULT=io:*` run exercises every store's recovery path.

use crate::fault;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// Reads a whole file. Under an armed `corrupt-read` fault the middle
/// byte comes back as a control character, the way a bad sector would
/// garble it: a checksummed frame always rejects it, a bare JSON document
/// does wherever it lands outside a string.
///
/// # Errors
///
/// Any I/O error opening or reading `path`.
pub fn read_file(path: &Path) -> std::io::Result<Vec<u8>> {
    let mut buf = Vec::new();
    File::open(path)?.read_to_end(&mut buf)?;
    if fault::io_read_corrupt() && !buf.is_empty() {
        let mid = buf.len() / 2;
        buf[mid] = if buf[mid] == 0x01 { 0x02 } else { 0x01 };
    }
    Ok(buf)
}

/// Writes `bytes` to `file` and syncs them, honoring an armed write
/// fault: `short-write` persists a prefix then fails (leaving a real torn
/// tail), `enospc` fails before persisting anything.
///
/// # Errors
///
/// The injected fault, or any I/O error writing or syncing.
pub fn faultable_write(file: &mut File, bytes: &[u8]) -> std::io::Result<()> {
    match fault::io_write_fault() {
        Some(fault::IoWriteFault::ShortWrite) => {
            let half = bytes.len() / 2;
            file.write_all(&bytes[..half])?;
            let _ = file.sync_data();
            Err(std::io::Error::other("injected short write"))
        }
        Some(fault::IoWriteFault::Enospc) => Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected ENOSPC",
        )),
        None => {
            file.write_all(bytes)?;
            file.sync_data()
        }
    }
}

/// Atomically publishes `from` under the name `to` (honoring an armed
/// `rename` fault), then syncs `to`'s directory so the rename itself
/// survives a crash.
///
/// # Errors
///
/// The injected fault, or the rename's I/O error.
pub fn faultable_rename(from: &Path, to: &Path) -> std::io::Result<()> {
    if fault::io_rename_fault() {
        return Err(std::io::Error::other("injected rename failure"));
    }
    std::fs::rename(from, to)?;
    if let Some(Ok(dir)) = to.parent().map(File::open) {
        let _ = dir.sync_all();
    }
    Ok(())
}
