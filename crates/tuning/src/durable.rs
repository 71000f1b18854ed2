//! The durable-file primitives every on-disk store in the workspace
//! shares: the tuning store's journal and snapshot, and the service's
//! disk compile cache. Each routes through the [`fault`] probes, so one
//! `GPGPU_FAULT=io:*` run exercises every store's recovery path, and
//! each store writes its records as [`frame`]s, so a garbled or torn
//! record fails [`unframe`] instead of being trusted.

use crate::fault;
use crate::shape::fnv1a;
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;

/// FNV-1a seed for frame checksums.
const CHECKSUM_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Frames one single-line `payload` as a checksummed record,
/// `t1 <len> <fnv64> <payload>\n`.
pub fn frame(payload: &str) -> String {
    let sum = fnv1a(CHECKSUM_SEED, payload.as_bytes());
    format!("t1 {} {:016x} {}\n", payload.len(), sum, payload)
}

/// Verifies one framed record (without its trailing newline). Returns the
/// payload, or why the frame does not verify.
///
/// # Errors
///
/// A bad magic, length or checksum field, or a payload whose length or
/// checksum differs from the declared one.
pub fn unframe(line: &str) -> Result<&str, String> {
    let rest = line
        .strip_prefix("t1 ")
        .ok_or_else(|| "bad magic".to_string())?;
    let (len_s, rest) = rest.split_once(' ').ok_or("missing length")?;
    let (sum_s, payload) = rest.split_once(' ').ok_or("missing checksum")?;
    let len: usize = len_s.parse().map_err(|_| "bad length".to_string())?;
    if payload.len() != len {
        return Err(format!("length {} != declared {len}", payload.len()));
    }
    let sum = u64::from_str_radix(sum_s, 16).map_err(|_| "bad checksum".to_string())?;
    if fnv1a(CHECKSUM_SEED, payload.as_bytes()) != sum {
        return Err("checksum mismatch".to_string());
    }
    Ok(payload)
}

/// Reads a whole file. Under an armed `corrupt-read` fault the middle
/// byte comes back as a control character, the way a bad sector would
/// garble it, and the checksummed frame around it rejects it.
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
