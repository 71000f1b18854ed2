//! The compile cache: a bounded in-memory LRU in front of an optional
//! persistent on-disk store.
//!
//! Both layers are keyed by the content-addressed fingerprint computed by
//! [`gpgpu_core::CompileOptions::fingerprint`] and store the rendered
//! [`CachedArtifact`]. The disk layout is versioned by path — entries live
//! under `<root>/v3/<fingerprint>.json` where `v3` derives from
//! [`gpgpu_core::CACHE_SCHEMA`] — so a format bump changes the directory
//! and every stale entry is orphaned rather than misread. Each file holds
//! one checksummed [`durable::frame`] around the compact artifact JSON,
//! which embeds the schema tag and its own fingerprint; a file that fails
//! the frame or either check is deleted and treated as a miss.

use gpgpu_core::{CachedArtifact, CACHE_SCHEMA};
use gpgpu_tuning::durable;
use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};

/// What a cache probe did, for the metrics/trace plumbing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Served from the in-memory LRU.
    MemoryHit,
    /// Served from the on-disk store (and promoted into memory).
    DiskHit,
    /// Not cached anywhere.
    Miss,
}

/// The bounded in-memory LRU layer.
struct MemoryCache {
    entries: HashMap<String, (u64, CachedArtifact)>,
    /// Monotonic use counter; the smallest stamp is the eviction victim.
    tick: u64,
    capacity: usize,
}

impl MemoryCache {
    fn new(capacity: usize) -> MemoryCache {
        MemoryCache {
            entries: HashMap::new(),
            tick: 0,
            capacity,
        }
    }

    fn get(&mut self, fingerprint: &str) -> Option<CachedArtifact> {
        self.tick += 1;
        let tick = self.tick;
        let (stamp, artifact) = self.entries.get_mut(fingerprint)?;
        *stamp = tick;
        Some(artifact.clone())
    }

    /// Inserts, returning the fingerprint of the entry evicted to make
    /// room, if any.
    fn insert(&mut self, fingerprint: String, artifact: CachedArtifact) -> Option<String> {
        if self.capacity == 0 {
            return None;
        }
        self.tick += 1;
        self.entries.insert(fingerprint, (self.tick, artifact));
        if self.entries.len() <= self.capacity {
            return None;
        }
        let victim = self
            .entries
            .iter()
            .min_by_key(|(_, (stamp, _))| *stamp)
            .map(|(fp, _)| fp.clone())?;
        self.entries.remove(&victim);
        Some(victim)
    }
}

/// The persistent store: one framed JSON artifact per fingerprint under a
/// schema-versioned directory.
struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// Opens (and creates) the store under `root`. The versioned
    /// subdirectory is derived from [`CACHE_SCHEMA`] (`gpgpu-cache/v3` →
    /// `v3`).
    fn open(root: &Path) -> std::io::Result<DiskCache> {
        let version = CACHE_SCHEMA.rsplit('/').next().unwrap_or("v3");
        let dir = root.join(version);
        std::fs::create_dir_all(&dir)?;
        Ok(DiskCache { dir })
    }

    fn path_for(&self, fingerprint: &str) -> PathBuf {
        self.dir.join(format!("{fingerprint}.json"))
    }

    /// Loads an entry; a missing, unreadable, unframed, mis-schema'd or
    /// wrong-fingerprint file is a miss (corrupt files — including a
    /// garble inside a JSON string, which only the frame's checksum
    /// catches — are deleted: a *self-heal*, reported through
    /// [`DiskFault::healed`] so the engine can count it).
    fn load(&self, fingerprint: &str) -> Result<Option<CachedArtifact>, DiskFault> {
        let path = self.path_for(fingerprint);
        // Under `GPGPU_FAULT=io:corrupt-read` the bytes come back garbled,
        // exercising the delete-and-self-heal path below.
        let bytes = match durable::read_file(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(DiskFault {
                    detail: format!("read {}: {e}", path.display()),
                    healed: false,
                })
            }
        };
        let parsed = String::from_utf8(bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| {
                let payload = durable::unframe(text.strip_suffix('\n').unwrap_or(&text))?;
                gpgpu_trace::parse_json(payload).map_err(|e| e.to_string())
            })
            .and_then(|doc| CachedArtifact::from_json(&doc));
        match parsed {
            Ok(artifact) if artifact.fingerprint == fingerprint => Ok(Some(artifact)),
            Ok(artifact) => {
                let _ = std::fs::remove_file(&path);
                Err(DiskFault {
                    detail: format!(
                        "entry {} carries fingerprint {}; deleted",
                        path.display(),
                        artifact.fingerprint
                    ),
                    healed: true,
                })
            }
            Err(e) => {
                let _ = std::fs::remove_file(&path);
                Err(DiskFault {
                    detail: format!("stale or corrupt {}: {e}; deleted", path.display()),
                    healed: true,
                })
            }
        }
    }

    /// Persists an entry with the tuning store's publish discipline —
    /// write a temp file, fsync it, rename, fsync the directory — so a
    /// crash cannot leave a half-written artifact under the real name.
    /// The write and the rename carry the `io:*` fault probes
    /// (`short-write`, `enospc`, `rename`) so the engine's degrade path is
    /// testable.
    fn store(&self, artifact: &CachedArtifact) -> Result<(), String> {
        let path = self.path_for(&artifact.fingerprint);
        let tmp = self.dir.join(format!(
            ".{}.tmp-{}",
            artifact.fingerprint,
            std::process::id()
        ));
        let payload = durable::frame(&artifact.to_json().compact());
        File::create(&tmp)
            .and_then(|mut f| durable::faultable_write(&mut f, payload.as_bytes()))
            .and_then(|()| durable::faultable_rename(&tmp, &path))
            .map_err(|e| {
                let _ = std::fs::remove_file(&tmp);
                format!("store {}: {e}", path.display())
            })
    }
}

/// The two-layer compile cache the engine consults per request.
pub struct CompileCache {
    memory: MemoryCache,
    disk: Option<DiskCache>,
}

/// A soft failure in the persistent layer — never fatal to the request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiskFault {
    /// Human-readable description for the metrics/trace plumbing.
    pub detail: String,
    /// Whether the store repaired itself by deleting the offending entry
    /// (corrupt or fingerprint-mismatched file). `false` for plain I/O
    /// failures where nothing was removed.
    pub healed: bool,
}

/// The result of one [`CompileCache::get`] probe.
pub struct CacheProbe {
    /// The artifact, when either layer held it.
    pub artifact: Option<CachedArtifact>,
    /// Which layer answered.
    pub outcome: CacheOutcome,
    /// A soft disk error (corrupt entry, I/O failure), reported for the
    /// metrics but never fatal to the request.
    pub disk_error: Option<DiskFault>,
}

impl CompileCache {
    /// A cache holding at most `memory_entries` artifacts in memory
    /// (0 disables the memory layer) and persisting under `disk_root`
    /// when given.
    ///
    /// # Errors
    ///
    /// Fails only when the on-disk store directory cannot be created.
    pub fn new(
        memory_entries: usize,
        disk_root: Option<&Path>,
    ) -> std::io::Result<CompileCache> {
        let disk = match disk_root {
            Some(root) => Some(DiskCache::open(root)?),
            None => None,
        };
        Ok(CompileCache {
            memory: MemoryCache::new(memory_entries),
            disk,
        })
    }

    /// Probes both layers for `fingerprint`; a disk hit is promoted into
    /// the memory layer.
    pub fn get(&mut self, fingerprint: &str) -> CacheProbe {
        if let Some(artifact) = self.memory.get(fingerprint) {
            return CacheProbe {
                artifact: Some(artifact),
                outcome: CacheOutcome::MemoryHit,
                disk_error: None,
            };
        }
        let mut disk_error = None;
        if let Some(disk) = &self.disk {
            match disk.load(fingerprint) {
                Ok(Some(artifact)) => {
                    self.memory
                        .insert(fingerprint.to_string(), artifact.clone());
                    return CacheProbe {
                        artifact: Some(artifact),
                        outcome: CacheOutcome::DiskHit,
                        disk_error: None,
                    };
                }
                Ok(None) => {}
                Err(e) => disk_error = Some(e),
            }
        }
        CacheProbe {
            artifact: None,
            outcome: CacheOutcome::Miss,
            disk_error,
        }
    }

    /// Stores a freshly compiled artifact in both layers. Returns the
    /// evicted memory fingerprint (if the LRU overflowed) and any soft
    /// disk error.
    pub fn put(&mut self, artifact: &CachedArtifact) -> (Option<String>, Option<DiskFault>) {
        let evicted = self
            .memory
            .insert(artifact.fingerprint.clone(), artifact.clone());
        let disk_error = self.disk.as_ref().and_then(|d| {
            d.store(artifact).err().map(|detail| DiskFault {
                detail,
                healed: false,
            })
        });
        (evicted, disk_error)
    }

    /// Whether a persistent layer is attached.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn artifact(fp: &str, source: &str) -> CachedArtifact {
        CachedArtifact {
            fingerprint: fp.to_string(),
            kernel_name: "k".into(),
            source: source.to_string(),
            launches: Vec::new(),
            time_ms: 1.0,
            gflops: 2.0,
            bandwidth_gbps: 3.0,
            degraded: None,
            fusion: None,
        }
    }

    #[test]
    fn lru_evicts_the_least_recently_used_entry() {
        let mut cache = CompileCache::new(2, None).unwrap();
        cache.put(&artifact("a", "A"));
        cache.put(&artifact("b", "B"));
        // Touch `a` so `b` is the LRU victim.
        assert_eq!(cache.get("a").outcome, CacheOutcome::MemoryHit);
        let (evicted, _) = cache.put(&artifact("c", "C"));
        assert_eq!(evicted.as_deref(), Some("b"));
        assert_eq!(cache.get("b").outcome, CacheOutcome::Miss);
        assert_eq!(cache.get("a").outcome, CacheOutcome::MemoryHit);
        assert_eq!(cache.get("c").outcome, CacheOutcome::MemoryHit);
    }

    #[test]
    fn disk_store_round_trips_and_survives_a_new_cache() {
        let dir = std::env::temp_dir().join(format!("gpgpu-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut cache = CompileCache::new(4, Some(&dir)).unwrap();
            cache.put(&artifact("feed", "source text"));
        }
        // A fresh process/cache over the same root hits from disk.
        let mut cache = CompileCache::new(4, Some(&dir)).unwrap();
        let probe = cache.get("feed");
        assert_eq!(probe.outcome, CacheOutcome::DiskHit);
        assert_eq!(probe.artifact.unwrap().source, "source text");
        // Promoted: the second probe is a memory hit.
        assert_eq!(cache.get("feed").outcome, CacheOutcome::MemoryHit);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_and_mismatched_disk_entries_are_deleted_misses() {
        let dir = std::env::temp_dir().join(format!("gpgpu-cache-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let vdir = dir.join("v3");
        // A memory layer of 0: every probe reads the disk.
        let cache = || CompileCache::new(0, Some(&dir)).unwrap();
        let entry = |fp: &str| vdir.join(format!("{fp}.json"));
        cache().put(&artifact("5eed", "float sum = 0.0f;"));
        let stored = std::fs::read_to_string(entry("5eed")).unwrap();
        let rows = [
            ("0bad", "not json at all".to_string()),
            // One letter garbled inside a JSON string: still valid JSON,
            // so only the checksum can refuse it.
            ("5eed", stored.replace("sum", "sun")),
            // A valid artifact from before entries were framed.
            ("01d0", artifact("01d0", "S").to_json().pretty()),
            // A valid frame stored under the wrong fingerprint.
            (
                "yyyy",
                durable::frame(&artifact("xxxx", "S").to_json().compact()),
            ),
        ];
        for (fp, contents) in rows {
            std::fs::write(entry(fp), contents).unwrap();
            let probe = cache().get(fp);
            assert_eq!(probe.outcome, CacheOutcome::Miss, "{fp}");
            assert!(probe.disk_error.as_ref().is_some_and(|f| f.healed), "{fp}");
            assert!(!entry(fp).exists(), "{fp}: corrupt entry deleted");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_version_names_the_disk_directory() {
        let dir = std::env::temp_dir().join(format!("gpgpu-cache-ver-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cache = CompileCache::new(1, Some(&dir)).unwrap();
        cache.put(&artifact("abcd", "S"));
        // `gpgpu-cache/v3` → a `v3/` directory; stale `v1/`/`v2/` entries
        // from before the fusion-aware fingerprint are orphaned, never
        // read.
        assert!(dir.join("v3").join("abcd.json").exists());
        assert!(!dir.join("v2").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn schema_bump_orphans_the_previous_generation() {
        // A root carrying a pre-fusion `v2/` store: the new cache must
        // neither read nor disturb it — the entry is simply unreachable
        // (v2 fingerprints embedded the old schema tag, so they cannot
        // collide with v3 keys anyway).
        let dir = std::env::temp_dir().join(format!("gpgpu-cache-orphan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let v2 = dir.join("v2");
        std::fs::create_dir_all(&v2).unwrap();
        let stale = artifact("feed", "old generation");
        std::fs::write(v2.join("feed.json"), stale.to_json().pretty()).unwrap();
        let mut cache = CompileCache::new(4, Some(&dir)).unwrap();
        let probe = cache.get("feed");
        assert_eq!(probe.outcome, CacheOutcome::Miss);
        assert!(probe.disk_error.is_none(), "{:?}", probe.disk_error);
        // The orphan is left intact for manual cleanup, and the new
        // generation writes beside it.
        assert!(v2.join("feed.json").exists());
        cache.put(&artifact("feed", "new generation"));
        assert!(dir.join("v3").join("feed.json").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
