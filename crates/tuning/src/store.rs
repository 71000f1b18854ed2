//! The crash-safe persistent tuning store.
//!
//! On disk a store is a directory (`<root>/v1/`) holding:
//!
//! - `lock` — an advisory file lock serializing writers. The first process
//!   to open the store becomes *the* writer; concurrent opens degrade to
//!   lock-free full exploration (warm-start disabled, writes skipped) so
//!   two `gpgpuc batch` processes can share a `--tuning-dir` without ever
//!   deadlocking or corrupting each other.
//! - `journal.log` — an append-only journal of checksummed records, one
//!   per line: `t1 <len> <fnv64> <payload-json>\n`. Each append is
//!   fsynced. A record whose length or checksum does not verify marks a
//!   torn tail: recovery truncates the file there (writer) or reads the
//!   valid prefix (reader) — a kill -9 mid-append never corrupts the
//!   store, it only loses the record being written.
//! - `snapshot.json` — the compacted state, framed and checksummed the
//!   same way, published atomically (write `snapshot.tmp-<pid>`, fsync,
//!   rename, fsync dir). A snapshot that fails its checksum on open is
//!   quarantined (`quarantine-<n>.json`) instead of trusted or deleted,
//!   and the store restarts empty — degraded to full exploration, never a
//!   wrong winner.
//!
//! Records carry a monotone sequence number; the snapshot embeds the last
//! sequence it covers and replay skips journal records at or below it, so
//! a crash *between* snapshot publish and journal truncation is harmless
//! (replay is idempotent). Every I/O failure — injected via
//! `GPGPU_FAULT=io:*` or real — flips the store into a degraded mode that
//! answers every lookup with "explore fully" and records why, as a
//! drainable [`StoreNote`] for the caller's trace.

use crate::durable::{faultable_rename, faultable_write, frame, read_file, unframe};
use crate::shape::{size_distance, KernelShape};
use gpgpu_trace::Json;
use std::collections::HashMap;
use std::fs::{File, OpenOptions, TryLockError};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// On-disk layout version; bump on any incompatible format change.
pub const STORE_VERSION: &str = "v1";
/// Schema tag embedded in snapshots and journal records.
pub const STORE_SCHEMA: &str = "gpgpu-tuning/v1";

/// One scored design-space configuration, as the store records it.
#[derive(Debug, Clone, PartialEq)]
pub struct ConfigScore {
    /// Thread blocks merged along X.
    pub block_merge_x: i64,
    /// Threads merged along Y.
    pub thread_merge_y: i64,
    /// Threads merged along X.
    pub thread_merge_x: i64,
    /// The score (estimated milliseconds) at the point it was recorded.
    pub time_ms: f64,
}

impl ConfigScore {
    /// The stable candidate label, e.g. `bx16_ty8_tx1`.
    pub fn label(&self) -> String {
        format!(
            "bx{}_ty{}_tx{}",
            self.block_merge_x, self.thread_merge_y, self.thread_merge_x
        )
    }

    /// The merge-degree triple.
    pub fn combo(&self) -> (i64, i64, i64) {
        (self.block_merge_x, self.thread_merge_y, self.thread_merge_x)
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("bx", Json::num(self.block_merge_x as f64)),
            ("ty", Json::num(self.thread_merge_y as f64)),
            ("tx", Json::num(self.thread_merge_x as f64)),
            ("time_ms", Json::num(self.time_ms)),
        ])
    }

    fn from_json(doc: &Json) -> Option<ConfigScore> {
        let int = |k: &str| doc.get(k).and_then(Json::as_f64).map(|v| v as i64);
        Some(ConfigScore {
            block_merge_x: int("bx")?,
            thread_merge_y: int("ty")?,
            thread_merge_x: int("tx")?,
            time_ms: doc.get("time_ms").and_then(Json::as_f64)?,
        })
    }
}

/// What a lookup tells the explorer to do.
#[derive(Debug, Clone, PartialEq)]
pub enum Lookup {
    /// Known shape: evaluate the seeds (best-known configs) instead of the
    /// full grid.
    Warm(WarmStart),
    /// Known shape, but the periodic re-exploration counter fired: run the
    /// full grid and report back so a stale winner can be demoted.
    Reexplore,
    /// Unknown shape: run the full grid and record the result.
    Miss,
    /// The store cannot help (degraded, lock contention, or warm-start
    /// disabled): run the full grid; recording may still be skipped.
    Disabled(String),
}

/// A warm start: the configs to evaluate instead of the full grid.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmStart {
    /// Best-known configurations, best first.
    pub seeds: Vec<(i64, i64, i64)>,
    /// True when the seeds come from a different size point of the same
    /// structure — the explorer should widen to the seeds' grid neighbors.
    pub neighbor: bool,
}

/// A structured event the store wants in the caller's trace; drained via
/// [`TuningStore::drain_notes`].
#[derive(Debug, Clone, PartialEq)]
pub enum StoreNote {
    /// The store entered (or was opened in) degraded mode.
    Degraded {
        /// Why — e.g. `journal-append: No space left on device`.
        reason: String,
    },
    /// Recovery repaired something instead of failing the compile.
    SelfHeal {
        /// What was repaired — e.g. `truncated torn journal tail at 113`.
        detail: String,
    },
    /// A durable write failed (the entry lives on in memory only).
    WriteError {
        /// The failed operation and error.
        detail: String,
    },
}

/// Monotone counters the store exports into `--report` and serve stats.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreCounters {
    /// Lookups answered from the exact size point.
    pub warm_hits: u64,
    /// Lookups answered from a neighboring size point.
    pub neighbor_hits: u64,
    /// Lookups that found no usable entry.
    pub misses: u64,
    /// Lookups that deliberately re-ran the full grid to audit a winner.
    pub reexplored: u64,
    /// Stored winners beaten by a re-exploration and replaced.
    pub demotions: u64,
    /// Recoveries that repaired state (torn-tail truncation, quarantine,
    /// stale-tmp cleanup) instead of failing.
    pub self_heals: u64,
    /// Durable writes that failed (journal append, snapshot publish).
    pub write_errors: u64,
    /// Records applied to the in-memory table (replayed + live).
    pub records: u64,
    /// Snapshot compactions published.
    pub compactions: u64,
    /// 1 when the store is degraded to full exploration.
    pub degraded: u64,
    /// 1 when this process lost the writer lock to a sibling.
    pub lock_contended: u64,
    /// Reader-mode re-reads of the writer's on-disk state (see
    /// [`TuningStore::refresh`]).
    pub refreshes: u64,
}

impl StoreCounters {
    /// The counters as a JSON object (for serve `{"stats": true}`).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("warm_hits", Json::count(self.warm_hits)),
            ("neighbor_hits", Json::count(self.neighbor_hits)),
            ("misses", Json::count(self.misses)),
            ("reexplored", Json::count(self.reexplored)),
            ("demotions", Json::count(self.demotions)),
            ("self_heals", Json::count(self.self_heals)),
            ("write_errors", Json::count(self.write_errors)),
            ("records", Json::count(self.records)),
            ("compactions", Json::count(self.compactions)),
            ("degraded", Json::count(self.degraded)),
            ("lock_contended", Json::count(self.lock_contended)),
            ("refreshes", Json::count(self.refreshes)),
        ])
    }
}

/// Tunables; the defaults are right for production use.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Journal size (bytes) that triggers a snapshot compaction.
    pub compact_after_bytes: u64,
    /// Every Nth exact-hit lookup re-runs the full grid to audit the
    /// stored winner (demoting it if beaten). 0 disables re-exploration.
    pub reexplore_every: u64,
    /// Per-point cap on recorded candidate scores.
    pub max_candidates: usize,
    /// Per-structure cap on size points (oldest evicted).
    pub max_points: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            compact_after_bytes: 256 * 1024,
            reexplore_every: 16,
            max_candidates: 32,
            max_points: 16,
        }
    }
}

/// One recorded size point of a structure.
#[derive(Debug, Clone)]
struct PointEntry {
    size: Vec<i64>,
    winner: ConfigScore,
    candidates: Vec<ConfigScore>,
    /// Warm compiles recorded since the last full exploration — the
    /// re-exploration pacing counter. Advanced by non-full records (the
    /// live path and journal replay count each warm compile exactly
    /// once) and carried in the snapshot, so pacing survives process
    /// restarts: one-shot `gpgpuc` invocations audit a stored winner
    /// just like a long-lived `serve` does.
    warm_serves: u64,
    seq: u64,
}

impl PointEntry {
    fn to_json(&self) -> Json {
        Json::obj([
            (
                "size",
                Json::Arr(self.size.iter().map(|&v| Json::num(v as f64)).collect()),
            ),
            ("winner", self.winner.to_json()),
            (
                "cands",
                Json::Arr(self.candidates.iter().map(ConfigScore::to_json).collect()),
            ),
            ("ws", Json::count(self.warm_serves)),
            ("seq", Json::count(self.seq)),
        ])
    }

    fn from_json(doc: &Json) -> Option<PointEntry> {
        let size = doc
            .get("size")?
            .as_arr()?
            .iter()
            .map(|v| v.as_f64().map(|f| f as i64))
            .collect::<Option<Vec<i64>>>()?;
        let winner = ConfigScore::from_json(doc.get("winner")?)?;
        let candidates = doc
            .get("cands")?
            .as_arr()?
            .iter()
            .map(ConfigScore::from_json)
            .collect::<Option<Vec<ConfigScore>>>()?;
        Some(PointEntry {
            size,
            winner,
            candidates,
            // Snapshots from before the counter was persisted lack `ws`;
            // starting the audit cycle over is harmless.
            warm_serves: doc.get("ws").and_then(Json::as_f64).unwrap_or(0.0) as u64,
            seq: doc.get("seq").and_then(Json::as_f64).unwrap_or(0.0) as u64,
        })
    }
}

#[derive(Debug, Default)]
struct Inner {
    dir: PathBuf,
    cfg: StoreConfig,
    /// Held for the store's lifetime when this process won the writer
    /// election; `None` in reader (contended) mode.
    lock: Option<File>,
    journal: Option<File>,
    journal_bytes: u64,
    seq: u64,
    shapes: HashMap<String, Vec<PointEntry>>,
    counters: StoreCounters,
    degraded: Option<String>,
    notes: Vec<StoreNote>,
    /// True once a reader (lock-contended) store has re-read the writer's
    /// on-disk state via [`TuningStore::refresh`]. A refreshed reader
    /// serves warm starts from its snapshot of the table instead of
    /// answering [`Lookup::Disabled`], but never [`Lookup::Reexplore`] —
    /// it cannot persist the audit result.
    reader_snapshot: bool,
    /// On-disk sizes `(snapshot, journal)` at the last refresh, so a
    /// refresh with no writer activity in between is a cheap no-op.
    seen_lens: Option<(u64, u64)>,
}

/// The persistent, crash-safe tuning store. All methods take `&self`; the
/// store is internally synchronized and safe to share across the service's
/// worker threads behind an `Arc`.
#[derive(Debug)]
pub struct TuningStore {
    inner: Mutex<Inner>,
}

impl Inner {
    fn degrade(&mut self, reason: String) {
        if self.degraded.is_none() {
            self.counters.degraded = 1;
            self.notes.push(StoreNote::Degraded {
                reason: reason.clone(),
            });
            self.degraded = Some(reason);
        }
    }

    fn heal(&mut self, detail: String) {
        self.counters.self_heals += 1;
        self.notes.push(StoreNote::SelfHeal { detail });
    }

    fn write_error(&mut self, detail: String) {
        self.counters.write_errors += 1;
        self.notes.push(StoreNote::WriteError {
            detail: detail.clone(),
        });
        // Any durable-write failure degrades the store: a half-persisted
        // table must never warm-start future compiles.
        self.degrade(detail);
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.log")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.dir.join("snapshot.json")
    }

    // -- recovery ------------------------------------------------------

    /// Loads the snapshot, quarantining it on any parse/checksum failure.
    fn load_snapshot(&mut self) {
        let path = self.snapshot_path();
        let bytes = match read_file(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return,
            Err(e) => {
                self.degrade(format!("snapshot read: {e}"));
                return;
            }
        };
        let parsed = String::from_utf8(bytes)
            .map_err(|_| "not utf-8".to_string())
            .and_then(|text| {
                let line = text.strip_suffix('\n').unwrap_or(&text);
                unframe(line).map(|p| p.to_string())
            })
            .and_then(|payload| {
                gpgpu_trace::parse_json(&payload).map_err(|e| e.to_string())
            });
        let doc = match parsed {
            Ok(doc) => doc,
            Err(why) => {
                self.quarantine_snapshot(&why);
                return;
            }
        };
        if doc.get("schema").and_then(Json::as_str) != Some(STORE_SCHEMA) {
            self.quarantine_snapshot("unsupported schema");
            return;
        }
        let seq = doc.get("seq").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        let mut shapes = HashMap::new();
        let mut records = 0u64;
        if let Some(list) = doc.get("shapes").and_then(Json::as_arr) {
            for entry in list {
                let Some(structure) = entry.get("structure").and_then(Json::as_str) else {
                    self.quarantine_snapshot("shape entry without structure");
                    return;
                };
                let Some(points) = entry.get("points").and_then(Json::as_arr) else {
                    self.quarantine_snapshot("shape entry without points");
                    return;
                };
                let parsed: Option<Vec<PointEntry>> =
                    points.iter().map(PointEntry::from_json).collect();
                let Some(parsed) = parsed else {
                    self.quarantine_snapshot("malformed point entry");
                    return;
                };
                records += parsed.len() as u64;
                shapes.insert(structure.to_string(), parsed);
            }
        }
        self.seq = seq;
        self.counters.records += records;
        self.shapes = shapes;
    }

    fn quarantine_snapshot(&mut self, why: &str) {
        let path = self.snapshot_path();
        if self.lock.is_none() {
            // A reader must not move the writer's files; just skip it.
            self.heal(format!("ignored corrupt snapshot ({why})"));
            return;
        }
        // `self.seq` is still 0 here (the snapshot failed to load), so the
        // name must come from what is already on disk: probe for the first
        // unused slot so a second corrupt snapshot never overwrites the
        // first one's forensic copy.
        let Some(dest) = (0u32..10_000)
            .map(|n| self.dir.join(format!("quarantine-{n}.json")))
            .find(|p| !p.exists())
        else {
            self.degrade(format!(
                "cannot quarantine corrupt snapshot ({why}): no free quarantine slot"
            ));
            return;
        };
        match std::fs::rename(&path, &dest) {
            Ok(()) => self.heal(format!(
                "quarantined corrupt snapshot ({why}) as {}",
                dest.file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default()
            )),
            Err(e) => self.degrade(format!("cannot quarantine corrupt snapshot ({why}): {e}")),
        }
    }

    /// Replays the journal over the snapshot. Returns the byte offset of
    /// the valid prefix; anything past it is a torn tail.
    fn replay_journal(&mut self) -> u64 {
        let path = self.journal_path();
        let bytes = match read_file(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return 0,
            Err(e) => {
                self.degrade(format!("journal read: {e}"));
                return 0;
            }
        };
        let mut offset = 0u64;
        while (offset as usize) < bytes.len() {
            let rest = &bytes[offset as usize..];
            let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
                // No terminating newline: a mid-append crash.
                self.heal(format!("torn journal tail at {offset} (unterminated record)"));
                return offset;
            };
            let line = match std::str::from_utf8(&rest[..nl]) {
                Ok(l) => l,
                Err(_) => {
                    self.heal(format!("torn journal tail at {offset} (not utf-8)"));
                    return offset;
                }
            };
            let payload = match unframe(line) {
                Ok(p) => p,
                Err(why) => {
                    self.heal(format!("torn journal tail at {offset} ({why})"));
                    return offset;
                }
            };
            match gpgpu_trace::parse_json(payload) {
                Ok(doc) => self.apply_record(&doc),
                Err(_) => {
                    self.heal(format!("torn journal tail at {offset} (bad json)"));
                    return offset;
                }
            }
            offset += nl as u64 + 1;
        }
        offset
    }

    /// Applies one journal record to the in-memory table. Records at or
    /// below the snapshot's sequence are skipped (idempotent replay).
    fn apply_record(&mut self, doc: &Json) {
        let seq = doc.get("seq").and_then(Json::as_f64).unwrap_or(0.0) as u64;
        if seq <= self.seq {
            return;
        }
        let Some(structure) = doc.get("structure").and_then(Json::as_str) else {
            return;
        };
        let Some(size) = doc.get("size").and_then(Json::as_arr).and_then(|a| {
            a.iter()
                .map(|v| v.as_f64().map(|f| f as i64))
                .collect::<Option<Vec<i64>>>()
        }) else {
            return;
        };
        let Some(winner) = doc.get("winner").and_then(ConfigScore::from_json) else {
            return;
        };
        let candidates = doc
            .get("cands")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(ConfigScore::from_json).collect())
            .unwrap_or_default();
        // Records framed before the `full` flag existed are treated as
        // full-grid results (the only kind that was written back then).
        let full = doc.get("full").and_then(Json::as_bool).unwrap_or(true);
        self.seq = seq;
        let structure = structure.to_string();
        self.upsert(&structure, size, winner, candidates, seq, full);
        self.counters.records += 1;
    }

    fn upsert(
        &mut self,
        structure: &str,
        size: Vec<i64>,
        winner: ConfigScore,
        candidates: Vec<ConfigScore>,
        seq: u64,
        full: bool,
    ) {
        let cap = self.cfg.max_candidates;
        let max_points = self.cfg.max_points;
        let points = self.shapes.entry(structure.to_string()).or_default();
        let mut candidates = candidates;
        candidates.sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
        candidates.truncate(cap);
        match points.iter_mut().find(|p| p.size == size) {
            Some(point) if full => {
                point.winner = winner;
                point.candidates = candidates;
                point.warm_serves = 0;
                point.seq = seq;
            }
            Some(point) => {
                // A warm-started (narrowed) search typically re-scored only
                // the stored winner. It must not wipe the full-grid
                // runner-up list (neighbor lookups seed from it) and must
                // not reset the pacing counter — otherwise the
                // lookup/record cycle of every compile would keep
                // `warm_serves` at zero and re-exploration would never
                // fire. It *advances* the counter instead: this runs for
                // live records and for journal replay alike, so each warm
                // compile is counted exactly once however the table was
                // rebuilt.
                point.warm_serves += 1;
                match point
                    .candidates
                    .iter_mut()
                    .find(|c| c.combo() == winner.combo())
                {
                    Some(c) => c.time_ms = winner.time_ms,
                    None => point.candidates.push(winner.clone()),
                }
                point
                    .candidates
                    .sort_by(|a, b| a.time_ms.total_cmp(&b.time_ms));
                point.candidates.truncate(cap);
                point.winner = winner;
                point.seq = seq;
            }
            None => {
                points.push(PointEntry {
                    size,
                    winner,
                    candidates,
                    warm_serves: 0,
                    seq,
                });
                if points.len() > max_points {
                    // Evict the stalest point (smallest seq).
                    if let Some(i) = points
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, p)| p.seq)
                        .map(|(i, _)| i)
                    {
                        points.remove(i);
                    }
                }
            }
        }
    }

    // -- durable writes ------------------------------------------------

    fn append_record(&mut self, payload: &str) {
        if self.degraded.is_some() || self.lock.is_none() {
            return;
        }
        let framed = frame(payload);
        let Some(journal) = self.journal.as_mut() else {
            return;
        };
        match faultable_write(journal, framed.as_bytes()) {
            Ok(()) => {
                self.journal_bytes += framed.len() as u64;
                if self.journal_bytes >= self.cfg.compact_after_bytes {
                    self.compact();
                }
            }
            Err(e) => self.write_error(format!("journal-append: {e}")),
        }
    }

    fn snapshot_payload(&self) -> String {
        let mut shapes: Vec<(&String, &Vec<PointEntry>)> = self.shapes.iter().collect();
        shapes.sort_by_key(|(s, _)| s.as_str());
        let shapes = shapes
            .into_iter()
            .map(|(structure, points)| {
                Json::obj([
                    ("structure", Json::str(structure)),
                    (
                        "points",
                        Json::Arr(points.iter().map(PointEntry::to_json).collect()),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("schema", Json::str(STORE_SCHEMA)),
            ("seq", Json::count(self.seq)),
            ("shapes", Json::Arr(shapes)),
        ])
        .compact()
    }

    /// Publishes a snapshot atomically and truncates the journal.
    fn compact(&mut self) {
        if self.degraded.is_some() || self.lock.is_none() {
            return;
        }
        let tmp = self
            .dir
            .join(format!("snapshot.tmp-{}", std::process::id()));
        let payload = frame(&self.snapshot_payload());
        let write = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)
            .and_then(|mut f| faultable_write(&mut f, payload.as_bytes()));
        if let Err(e) = write {
            let _ = std::fs::remove_file(&tmp);
            self.write_error(format!("snapshot-write: {e}"));
            return;
        }
        if let Err(e) = faultable_rename(&tmp, &self.snapshot_path()) {
            let _ = std::fs::remove_file(&tmp);
            self.write_error(format!("snapshot-rename: {e}"));
            return;
        }
        // A crash here replays journal records the snapshot already holds;
        // `apply_record` skips them by sequence, so this is safe.
        if let Some(journal) = self.journal.as_mut() {
            if let Err(e) = journal.set_len(0).and_then(|()| journal.sync_data()) {
                self.write_error(format!("journal-truncate: {e}"));
                return;
            }
        }
        self.journal_bytes = 0;
        self.counters.compactions += 1;
    }
}

impl TuningStore {
    /// Opens (creating or recovering) the store under `root`. Opening
    /// never fails: any I/O problem yields a store degraded to full
    /// exploration, with the reason recorded as a [`StoreNote`].
    pub fn open(root: &Path) -> TuningStore {
        TuningStore::open_with(root, StoreConfig::default())
    }

    /// [`TuningStore::open`] with explicit tunables.
    pub fn open_with(root: &Path, cfg: StoreConfig) -> TuningStore {
        let dir = root.join(STORE_VERSION);
        let mut inner = Inner {
            dir: dir.clone(),
            cfg,
            ..Inner::default()
        };
        if let Err(e) = std::fs::create_dir_all(&dir) {
            inner.degrade(format!("create {}: {e}", dir.display()));
            return TuningStore {
                inner: Mutex::new(inner),
            };
        }
        // Writer election. Losing is not an error: the loser runs with
        // warm-start disabled and never blocks (or deadlocks) on the lock.
        match OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("lock"))
        {
            Ok(f) => match f.try_lock() {
                Ok(()) => inner.lock = Some(f),
                Err(TryLockError::WouldBlock) => {
                    inner.counters.lock_contended = 1;
                    inner.degrade("writer lock contended".to_string());
                }
                Err(TryLockError::Error(e)) => inner.degrade(format!("lock: {e}")),
            },
            Err(e) => inner.degrade(format!("lock open: {e}")),
        }
        // A reader still recovers in memory (valid prefix only); a writer
        // additionally repairs the files.
        inner.load_snapshot();
        let valid = inner.replay_journal();
        if inner.lock.is_some() && inner.degraded.is_none() {
            // Stale tmp files are mid-publish crash leftovers.
            if let Ok(entries) = std::fs::read_dir(&dir) {
                for entry in entries.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if name.starts_with("snapshot.tmp-") {
                        let _ = std::fs::remove_file(entry.path());
                        inner.heal(format!("removed stale {name}"));
                    }
                }
            }
            match OpenOptions::new()
                .append(true)
                .create(true)
                .open(inner.journal_path())
            {
                Ok(journal) => {
                    let len = journal.metadata().map(|m| m.len()).unwrap_or(0);
                    if len > valid {
                        match journal.set_len(valid) {
                            Ok(()) => {
                                let _ = journal.sync_data();
                            }
                            Err(e) => inner.degrade(format!("journal truncate: {e}")),
                        }
                    }
                    inner.journal_bytes = valid;
                    inner.journal = Some(journal);
                }
                Err(e) => inner.degrade(format!("journal open: {e}")),
            }
        }
        TuningStore {
            inner: Mutex::new(inner),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// True when this process holds the writer lock.
    pub fn is_writer(&self) -> bool {
        self.lock().lock.is_some()
    }

    /// The degradation reason, when the store has given up on durability.
    pub fn degraded(&self) -> Option<String> {
        self.lock().degraded.clone()
    }

    /// Counter snapshot.
    pub fn counters(&self) -> StoreCounters {
        self.lock().counters
    }

    /// Drains the structured notes accumulated since the last drain.
    pub fn drain_notes(&self) -> Vec<StoreNote> {
        std::mem::take(&mut self.lock().notes)
    }

    /// Number of distinct structures currently in the table.
    pub fn shape_count(&self) -> usize {
        self.lock().shapes.len()
    }

    /// Re-reads the writer's on-disk state (snapshot + journal prefix) in
    /// reader (lock-contended) mode, so a shard that lost the writer
    /// election still benefits mid-batch from what the winning shard has
    /// recorded. Returns `true` when the table was re-read.
    ///
    /// - Writer-mode stores are always current: no-op, returns `false`.
    /// - A repeat call with no on-disk growth (file sizes unchanged) is a
    ///   cheap no-op.
    /// - After the first successful refresh the store answers lookups
    ///   [`Lookup::Warm`]/[`Lookup::Miss`] from the refreshed table
    ///   instead of [`Lookup::Disabled`] — but never
    ///   [`Lookup::Reexplore`], since a reader cannot persist the audit.
    pub fn refresh(&self) -> bool {
        let mut inner = self.lock();
        if inner.lock.is_some() {
            return false;
        }
        let len = |p: PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        let lens = (len(inner.snapshot_path()), len(inner.journal_path()));
        if inner.seen_lens == Some(lens) {
            return false;
        }
        // Readers only ever observe the writer's files; both loaders read
        // the valid prefix and never repair on disk when `lock` is `None`.
        inner.seq = 0;
        inner.shapes.clear();
        inner.load_snapshot();
        inner.replay_journal();
        inner.seen_lens = Some(lens);
        inner.reader_snapshot = true;
        inner.counters.refreshes += 1;
        true
    }

    /// Answers one compile's lookup. See [`Lookup`].
    pub fn lookup(&self, shape: &KernelShape) -> Lookup {
        let mut inner = self.lock();
        // A refreshed reader serves warm starts from its snapshot of the
        // writer's table despite being "degraded" (lock-contended); any
        // *other* degradation still disables it.
        let read_only = inner.reader_snapshot;
        if let Some(reason) = &inner.degraded {
            if !read_only {
                return Lookup::Disabled(reason.clone());
            }
        }
        let reexplore_every = if read_only { 0 } else { inner.cfg.reexplore_every };
        let Some(points) = inner.shapes.get_mut(&shape.structure) else {
            inner.counters.misses += 1;
            return Lookup::Miss;
        };
        // Exact size point first. The winner alone seeds the search: it
        // was audited by a full exploration when recorded, and the
        // periodic re-exploration below catches drift — hedging with
        // runners-up here would halve the candidate reduction for free.
        if let Some(point) = points.iter_mut().find(|p| p.size == shape.size) {
            // `warm_serves` counts warm compiles *recorded* since the last
            // full exploration; this lookup would be the next one.
            if reexplore_every > 0 && (point.warm_serves + 1) % reexplore_every == 0 {
                inner.counters.reexplored += 1;
                return Lookup::Reexplore;
            }
            let seeds = vec![point.winner.combo()];
            inner.counters.warm_hits += 1;
            return Lookup::Warm(WarmStart {
                seeds,
                neighbor: false,
            });
        }
        // Nearest neighbor by log-size distance.
        let nearest = points
            .iter()
            .min_by(|a, b| {
                size_distance(&a.size, &shape.size)
                    .total_cmp(&size_distance(&b.size, &shape.size))
            })
            .filter(|p| size_distance(&p.size, &shape.size).is_finite());
        match nearest {
            Some(point) => {
                let mut seeds = vec![point.winner.combo()];
                for c in &point.candidates {
                    if seeds.len() >= 2 {
                        break;
                    }
                    if !seeds.contains(&c.combo()) {
                        seeds.push(c.combo());
                    }
                }
                inner.counters.neighbor_hits += 1;
                Lookup::Warm(WarmStart {
                    seeds,
                    neighbor: true,
                })
            }
            None => {
                inner.counters.misses += 1;
                Lookup::Miss
            }
        }
    }

    /// Records one exploration outcome. `full` marks a full-grid search
    /// (a miss, a re-exploration, or a degraded/store-less run the caller
    /// still wants recorded); warm-started results pass `false`. Returns
    /// `true` when a previously stored winner was demoted.
    pub fn record(
        &self,
        shape: &KernelShape,
        winner: &ConfigScore,
        candidates: &[ConfigScore],
        full: bool,
    ) -> bool {
        let mut inner = self.lock();
        let mut demoted = false;
        if let Some(points) = inner.shapes.get(&shape.structure) {
            if let Some(point) = points.iter().find(|p| p.size == shape.size) {
                if full && point.winner.label() != winner.label() {
                    demoted = true;
                }
            }
        }
        if demoted {
            inner.counters.demotions += 1;
        }
        inner.seq += 1;
        let seq = inner.seq;
        inner.upsert(
            &shape.structure,
            shape.size.clone(),
            winner.clone(),
            candidates.to_vec(),
            seq,
            full,
        );
        inner.counters.records += 1;
        let payload = Json::obj([
            ("seq", Json::count(seq)),
            ("structure", Json::str(&shape.structure)),
            (
                "size",
                Json::Arr(shape.size.iter().map(|&v| Json::num(v as f64)).collect()),
            ),
            ("winner", winner.to_json()),
            (
                "cands",
                Json::Arr(candidates.iter().map(ConfigScore::to_json).collect()),
            ),
            ("full", Json::Bool(full)),
        ])
        .compact();
        inner.append_record(&payload);
        demoted
    }

    /// Forces a snapshot compaction now (tests and orderly shutdown).
    pub fn compact_now(&self) {
        self.lock().compact();
    }

    /// The store's stats object for serve `{"stats": true}`.
    pub fn stats_json(&self) -> Json {
        let inner = self.lock();
        let mut pairs = vec![
            ("writer", Json::Bool(inner.lock.is_some())),
            ("shapes", Json::count(inner.shapes.len() as u64)),
            (
                "points",
                Json::count(inner.shapes.values().map(|p| p.len() as u64).sum()),
            ),
            ("counters", inner.counters.to_json()),
        ];
        if let Some(reason) = &inner.degraded {
            pairs.push(("degraded_reason", Json::str(reason)));
        }
        Json::obj(pairs)
    }
}
