//! The content-addressed on-disk stage cache.
//!
//! A cache entry is one [`Artifact`] file whose name is derived from
//! *what produced it*: the FNV-1a hash of the flow configuration, the
//! run seed, and the stage name. Because every stage of the flow is a
//! deterministic function of (config, seed, dataset-generation seed),
//! two runs with the same key would compute bit-identical artifacts —
//! which is exactly what makes loading one instead safe.
//!
//! Failure policy: a probe ([`StageCache::load`]) *never* errors. A
//! missing file is a miss (`store.miss`); a file that fails magic,
//! version, structural, or CRC validation is counted as `store.corrupt`
//! and treated as a miss, so a damaged cache degrades to recomputation,
//! never to a wrong result. Writes go through a temp file in the cache
//! directory followed by an atomic rename, so a killed run can leave at
//! most a stale `*.tmp.*` file behind — never a torn artifact under a
//! live key.
//!
//! # Bounding the directory
//!
//! Left alone the cache grows without bound — every distinct (config,
//! seed, dataset) triple adds a full set of stage artifacts, which is
//! exactly wrong for a long-running server. A byte budget (the
//! `QCE_CACHE_MAX_BYTES` variable, or [`StageCache::with_max_bytes`])
//! turns the directory into an LRU: loads touch the artifact's mtime,
//! and after each store the oldest artifacts are deleted (counted as
//! `store.evict`) until the directory fits the budget again. The entry
//! just written always survives, even when it alone exceeds the budget
//! — the flow that produced it still gets to resume from it.
//!
//! *Miss-after-evict semantics*: eviction deletes whole artifacts, so a
//! later probe for an evicted key is an ordinary `store.miss` and the
//! stage is recomputed (bit-identically, by the determinism contract)
//! and re-stored. An undersized budget therefore costs recompute time,
//! never correctness.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use crate::{Artifact, Result, StoreError};

/// Environment variable naming the cache directory.
///
/// When set (and non-empty), [`StageCache::from_env`] returns a cache
/// rooted there; the flow then reuses completed stages across runs.
pub const CACHE_ENV: &str = "QCE_CACHE";

/// Environment variable bounding the cache directory, in bytes.
///
/// Accepts a plain byte count or a `K`/`M`/`G` suffix (powers of 1024,
/// case-insensitive): `QCE_CACHE_MAX_BYTES=256M`. Unset, empty or
/// unparsable values leave the cache unbounded. Only consulted by
/// [`StageCache::from_env`]; programmatic caches use
/// [`StageCache::with_max_bytes`].
pub const CACHE_MAX_BYTES_ENV: &str = "QCE_CACHE_MAX_BYTES";

/// Identifies one cached stage result.
///
/// # Examples
///
/// ```
/// use qce_store::CacheKey;
///
/// let key = CacheKey::new(0xdead_beef, 7, "evaluate:TargetCorrelated 4-bit");
/// assert_eq!(
///     key.file_name(),
///     "00000000deadbeef-s7-evaluate-targetcorrelated-4-bit.qcs"
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    /// FNV-1a hash of the run configuration (the same value the
    /// telemetry `RunManifest` records as `config_hash`).
    pub config_hash: u64,
    /// The run's master seed.
    pub seed: u64,
    /// Stage name, e.g. `train` or `evaluate:uncompressed`.
    pub stage: String,
}

impl CacheKey {
    /// A key for `stage` under (`config_hash`, `seed`).
    pub fn new(config_hash: u64, seed: u64, stage: impl Into<String>) -> Self {
        CacheKey {
            config_hash,
            seed,
            stage: stage.into(),
        }
    }

    /// The artifact file name this key addresses:
    /// `{config_hash:016x}-s{seed}-{stage}.qcs`, with the stage
    /// lower-cased and every non-alphanumeric run collapsed to `-` so
    /// arbitrary stage labels stay filesystem-safe.
    #[must_use]
    pub fn file_name(&self) -> String {
        let mut stage = String::with_capacity(self.stage.len());
        let mut last_dash = false;
        for c in self.stage.chars() {
            if c.is_ascii_alphanumeric() {
                stage.extend(c.to_lowercase());
                last_dash = false;
            } else if !last_dash {
                stage.push('-');
                last_dash = true;
            }
        }
        format!("{:016x}-s{}-{}.qcs", self.config_hash, self.seed, stage)
    }
}

/// Cached telemetry handles — registry lookups happen once per process.
struct CacheStats {
    hit: qce_telemetry::Counter,
    miss: qce_telemetry::Counter,
    corrupt: qce_telemetry::Counter,
    write: qce_telemetry::Counter,
    evict: qce_telemetry::Counter,
}

fn cache_stats() -> &'static CacheStats {
    use std::sync::OnceLock;
    static STATS: OnceLock<CacheStats> = OnceLock::new();
    STATS.get_or_init(|| CacheStats {
        hit: qce_telemetry::counter("store.hit"),
        miss: qce_telemetry::counter("store.miss"),
        corrupt: qce_telemetry::counter("store.corrupt"),
        write: qce_telemetry::counter("store.write"),
        evict: qce_telemetry::counter("store.evict"),
    })
}

/// Parses a byte budget: a plain integer, optionally suffixed with
/// `K`/`M`/`G` (powers of 1024, case-insensitive). Returns `None` for
/// anything unparsable, zero, or overflowing. This is the grammar of
/// [`CACHE_MAX_BYTES_ENV`], exported so CLI flags accept the same
/// spellings.
pub fn parse_byte_budget(raw: &str) -> Option<u64> {
    let s = raw.trim();
    if s.is_empty() {
        return None;
    }
    let (digits, multiplier) = match s.as_bytes()[s.len() - 1].to_ascii_uppercase() {
        b'K' => (&s[..s.len() - 1], 1u64 << 10),
        b'M' => (&s[..s.len() - 1], 1u64 << 20),
        b'G' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    let value: u64 = digits.trim().parse().ok()?;
    let budget = value.checked_mul(multiplier)?;
    (budget > 0).then_some(budget)
}

/// A content-addressed artifact cache rooted at one directory.
///
/// # Examples
///
/// ```no_run
/// use qce_store::{Artifact, CacheKey, StageCache, section_kind};
///
/// # fn main() -> Result<(), qce_store::StoreError> {
/// let cache = StageCache::at("/tmp/qce-cache");
/// let key = CacheKey::new(1, 7, "select");
/// if cache.load(&key).is_none() {
///     let mut artifact = Artifact::new();
///     artifact.push(section_kind::INDEX_LIST, vec![]);
///     cache.store(&key, &artifact)?;
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageCache {
    dir: PathBuf,
    max_bytes: Option<u64>,
}

impl StageCache {
    /// A cache rooted at `dir` (created lazily on first write),
    /// unbounded unless [`StageCache::with_max_bytes`] is applied.
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        StageCache {
            dir: dir.into(),
            max_bytes: None,
        }
    }

    /// Bounds the cache directory to `max_bytes` of artifacts, enforced
    /// by LRU eviction after every store (see the module docs). A zero
    /// budget is treated as unbounded.
    #[must_use]
    pub fn with_max_bytes(mut self, max_bytes: u64) -> Self {
        self.max_bytes = (max_bytes > 0).then_some(max_bytes);
        self
    }

    /// The cache named by the `QCE_CACHE` environment variable, or
    /// `None` when the variable is unset or empty. The byte budget, if
    /// any, comes from `QCE_CACHE_MAX_BYTES`.
    #[must_use]
    pub fn from_env() -> Option<Self> {
        let cache = match std::env::var(CACHE_ENV) {
            Ok(dir) if !dir.trim().is_empty() => StageCache::at(dir.trim()),
            _ => return None,
        };
        match std::env::var(CACHE_MAX_BYTES_ENV) {
            Ok(raw) => match parse_byte_budget(&raw) {
                Some(budget) => Some(cache.with_max_bytes(budget)),
                None => {
                    if !raw.trim().is_empty() {
                        qce_telemetry::debug!(
                            "[store] ignoring unparsable {CACHE_MAX_BYTES_ENV}={raw:?}"
                        );
                    }
                    Some(cache)
                }
            },
            Err(_) => Some(cache),
        }
    }

    /// The cache's root directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The byte budget, or `None` when the cache is unbounded.
    #[must_use]
    pub fn max_bytes(&self) -> Option<u64> {
        self.max_bytes
    }

    /// The artifact path `key` addresses (whether or not it exists).
    #[must_use]
    pub fn path_for(&self, key: &CacheKey) -> PathBuf {
        self.dir.join(key.file_name())
    }

    /// Probes the cache: returns the verified artifact on a hit, `None`
    /// otherwise.
    ///
    /// Increments `store.hit` on success. A missing file increments
    /// `store.miss`; a file that exists but fails verification (wrong
    /// magic or format version, truncation, CRC mismatch) increments
    /// `store.corrupt` *and* `store.miss` — corruption is a reason for a
    /// miss, never an error the caller has to handle.
    #[must_use]
    pub fn load(&self, key: &CacheKey) -> Option<Artifact> {
        let stats = cache_stats();
        let path = self.path_for(key);
        let bytes = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(_) => {
                stats.miss.incr(1);
                return None;
            }
        };
        match Artifact::from_bytes(&bytes) {
            Ok(artifact) => {
                stats.hit.incr(1);
                // Recency bookkeeping for a bounded cache: refresh the
                // mtime so eviction is least-recently-*used*, not
                // least-recently-written. Best-effort — a read-only
                // directory degrades to FIFO, never to an error.
                if self.max_bytes.is_some() {
                    let _ = std::fs::OpenOptions::new()
                        .append(true)
                        .open(&path)
                        .and_then(|f| {
                            f.set_times(std::fs::FileTimes::new().set_modified(SystemTime::now()))
                        });
                }
                Some(artifact)
            }
            Err(e) => {
                stats.corrupt.incr(1);
                stats.miss.incr(1);
                qce_telemetry::debug!(
                    "[store] discarding corrupt cache artifact {}: {e}",
                    path.display()
                );
                None
            }
        }
    }

    /// Writes `artifact` under `key` atomically: the bytes go to a
    /// process-unique temp file in the cache directory, which is then
    /// renamed over the final path. Readers therefore observe either the
    /// old entry, or the complete new one — never a torn write.
    ///
    /// Increments `store.write` on success.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the directory cannot be created
    /// or the file cannot be written/renamed.
    pub fn store(&self, key: &CacheKey, artifact: &Artifact) -> Result<PathBuf> {
        static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
        std::fs::create_dir_all(&self.dir)
            .map_err(|e| StoreError::io(format!("creating cache dir {}", self.dir.display()), e))?;
        let path = self.path_for(key);
        let tmp = self.dir.join(format!(
            "{}.tmp.{}.{}",
            key.file_name(),
            std::process::id(),
            WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let bytes = artifact.to_bytes();
        std::fs::write(&tmp, &bytes)
            .map_err(|e| StoreError::io(format!("writing {}", tmp.display()), e))?;
        if let Err(e) = std::fs::rename(&tmp, &path) {
            let _ = std::fs::remove_file(&tmp);
            return Err(StoreError::io(
                format!("renaming {} over {}", tmp.display(), path.display()),
                e,
            ));
        }
        cache_stats().write.incr(1);
        if let Some(budget) = self.max_bytes {
            self.enforce_budget(budget, &path);
        }
        Ok(path)
    }

    /// Deletes least-recently-used `.qcs` artifacts until the directory
    /// fits `budget` bytes again, never touching `just_written` (the
    /// entry whose store triggered enforcement). Counts one
    /// `store.evict` per deleted artifact. Best-effort throughout: scan
    /// or unlink failures are logged and skipped — a flaky filesystem
    /// must degrade to an oversized cache, not a failed flow.
    fn enforce_budget(&self, budget: u64, just_written: &Path) {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(e) => {
                qce_telemetry::debug!(
                    "[store] cache eviction scan failed for {}: {e}",
                    self.dir.display()
                );
                return;
            }
        };
        // (mtime, name, path, len) per artifact; name breaks mtime ties
        // deterministically on coarse-clock filesystems.
        let mut artifacts = Vec::new();
        let mut total: u64 = 0;
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.extension().is_none_or(|ext| ext != "qcs") {
                continue;
            }
            let Ok(meta) = entry.metadata() else { continue };
            if !meta.is_file() {
                continue;
            }
            total = total.saturating_add(meta.len());
            if path != just_written {
                let mtime = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                artifacts.push((mtime, entry.file_name(), path, meta.len()));
            }
        }
        if total <= budget {
            return;
        }
        artifacts.sort();
        for (_, _, path, len) in artifacts {
            if total <= budget {
                break;
            }
            match std::fs::remove_file(&path) {
                Ok(()) => {
                    total = total.saturating_sub(len);
                    cache_stats().evict.incr(1);
                    qce_telemetry::debug!("[store] evicted cache artifact {}", path.display());
                }
                Err(e) => qce_telemetry::debug!(
                    "[store] cache eviction failed for {}: {e}",
                    path.display()
                ),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section_kind;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// The cache counters are process-global, so tests that load or
    /// store serialize: a concurrent test's hit would skew a delta.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn temp_cache(tag: &str) -> StageCache {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "qce-store-test-{}-{}-{}",
            tag,
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        StageCache::at(dir)
    }

    fn artifact() -> Artifact {
        let mut a = Artifact::new();
        a.push(section_kind::INDEX_LIST, vec![4, 5, 6]);
        a
    }

    #[test]
    fn file_names_are_sanitized_and_stable() {
        let key = CacheKey::new(0xABCD, 3, "quantize:KMeans 4-bit");
        assert_eq!(
            key.file_name(),
            "000000000000abcd-s3-quantize-kmeans-4-bit.qcs"
        );
        // Distinct stages, seeds and hashes address distinct files.
        assert_ne!(
            CacheKey::new(1, 1, "train").file_name(),
            CacheKey::new(1, 1, "select").file_name()
        );
        assert_ne!(
            CacheKey::new(1, 1, "train").file_name(),
            CacheKey::new(1, 2, "train").file_name()
        );
        assert_ne!(
            CacheKey::new(1, 1, "train").file_name(),
            CacheKey::new(2, 1, "train").file_name()
        );
    }

    #[test]
    fn store_then_load_round_trips() {
        let _serial = serial();
        let cache = temp_cache("roundtrip");
        let key = CacheKey::new(11, 7, "train");
        let hit0 = cache_stats().hit.get();
        let miss0 = cache_stats().miss.get();
        assert!(cache.load(&key).is_none());
        assert_eq!(cache_stats().miss.get() - miss0, 1);
        let path = cache.store(&key, &artifact()).unwrap();
        assert!(path.ends_with(key.file_name()));
        assert_eq!(cache.load(&key).unwrap(), artifact());
        assert_eq!(cache_stats().hit.get() - hit0, 1);
        // No temp files survive a successful store.
        let leftovers: Vec<_> = std::fs::read_dir(cache.dir())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn corrupt_file_is_a_counted_miss() {
        let _serial = serial();
        let cache = temp_cache("corrupt");
        let key = CacheKey::new(12, 7, "train");
        let path = cache.store(&key, &artifact()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let corrupt0 = cache_stats().corrupt.get();
        assert!(cache.load(&key).is_none());
        assert_eq!(cache_stats().corrupt.get() - corrupt0, 1);
        // Truncated file: also a miss.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(cache.load(&key).is_none());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    /// Backdates an entry's mtime so LRU ordering is controlled by the
    /// test instead of the filesystem clock's resolution.
    fn backdate(cache: &StageCache, key: &CacheKey, seconds_ago: u64) {
        let when = SystemTime::now() - std::time::Duration::from_secs(seconds_ago);
        std::fs::OpenOptions::new()
            .append(true)
            .open(cache.path_for(key))
            .unwrap()
            .set_times(std::fs::FileTimes::new().set_modified(when))
            .unwrap();
    }

    #[test]
    fn parse_byte_budget_accepts_suffixes_and_rejects_junk() {
        assert_eq!(parse_byte_budget("1024"), Some(1024));
        assert_eq!(parse_byte_budget(" 2K "), Some(2048));
        assert_eq!(parse_byte_budget("3m"), Some(3 << 20));
        assert_eq!(parse_byte_budget("1G"), Some(1 << 30));
        assert_eq!(parse_byte_budget(""), None);
        assert_eq!(parse_byte_budget("0"), None);
        assert_eq!(parse_byte_budget("lots"), None);
        assert_eq!(parse_byte_budget("999999999999999999G"), None);
    }

    #[test]
    fn eviction_removes_oldest_entries_and_counts_them() {
        let _serial = serial();
        let one = artifact().to_bytes().len() as u64;
        // Budget for exactly two artifacts.
        let cache = temp_cache("evict").with_max_bytes(2 * one);
        let keys: Vec<CacheKey> = (0..3).map(|s| CacheKey::new(20, s, "train")).collect();
        let evict0 = cache_stats().evict.get();
        cache.store(&keys[0], &artifact()).unwrap();
        backdate(&cache, &keys[0], 300);
        cache.store(&keys[1], &artifact()).unwrap();
        backdate(&cache, &keys[1], 200);
        assert_eq!(cache_stats().evict.get() - evict0, 0);
        // Third store busts the budget: the oldest entry goes.
        cache.store(&keys[2], &artifact()).unwrap();
        assert_eq!(cache_stats().evict.get() - evict0, 1);
        assert!(!cache.path_for(&keys[0]).exists());
        assert!(cache.path_for(&keys[1]).exists());
        assert!(cache.path_for(&keys[2]).exists());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn loads_refresh_recency_so_eviction_is_lru_not_fifo() {
        let _serial = serial();
        let one = artifact().to_bytes().len() as u64;
        let cache = temp_cache("lru").with_max_bytes(2 * one);
        let keys: Vec<CacheKey> = (0..3).map(|s| CacheKey::new(21, s, "train")).collect();
        cache.store(&keys[0], &artifact()).unwrap();
        backdate(&cache, &keys[0], 300);
        cache.store(&keys[1], &artifact()).unwrap();
        backdate(&cache, &keys[1], 200);
        // Touch the older entry: the load refreshes its mtime, making
        // keys[1] the least recently used.
        assert!(cache.load(&keys[0]).is_some());
        cache.store(&keys[2], &artifact()).unwrap();
        assert!(cache.path_for(&keys[0]).exists());
        assert!(!cache.path_for(&keys[1]).exists());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn evicted_entry_is_an_ordinary_miss_and_restores_on_next_store() {
        let _serial = serial();
        let one = artifact().to_bytes().len() as u64;
        let cache = temp_cache("miss-after-evict").with_max_bytes(one);
        let old = CacheKey::new(22, 1, "train");
        let new = CacheKey::new(22, 2, "train");
        cache.store(&old, &artifact()).unwrap();
        backdate(&cache, &old, 300);
        cache.store(&new, &artifact()).unwrap();
        assert!(!cache.path_for(&old).exists());
        // The evicted key probes as a plain miss (no corrupt count)...
        let miss0 = cache_stats().miss.get();
        let corrupt0 = cache_stats().corrupt.get();
        assert!(cache.load(&old).is_none());
        assert_eq!(cache_stats().miss.get() - miss0, 1);
        assert_eq!(cache_stats().corrupt.get() - corrupt0, 0);
        // ...and the recomputed artifact stores again as usual.
        cache.store(&old, &artifact()).unwrap();
        assert_eq!(cache.load(&old).unwrap(), artifact());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn just_written_entry_survives_even_when_oversized() {
        let _serial = serial();
        let cache = temp_cache("oversized").with_max_bytes(1);
        let key = CacheKey::new(23, 1, "train");
        cache.store(&key, &artifact()).unwrap();
        assert!(cache.path_for(&key).exists());
        assert_eq!(cache.load(&key).unwrap(), artifact());
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let _serial = serial();
        let cache = temp_cache("unbounded");
        assert_eq!(cache.max_bytes(), None);
        assert_eq!(cache.clone().with_max_bytes(0).max_bytes(), None);
        let evict0 = cache_stats().evict.get();
        for s in 0..4 {
            cache
                .store(&CacheKey::new(24, s, "train"), &artifact())
                .unwrap();
        }
        assert_eq!(cache_stats().evict.get() - evict0, 0);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }

    #[test]
    fn store_overwrites_existing_entry() {
        let _serial = serial();
        let cache = temp_cache("overwrite");
        let key = CacheKey::new(13, 7, "select");
        cache.store(&key, &artifact()).unwrap();
        let mut newer = Artifact::new();
        newer.push(section_kind::INDEX_LIST, vec![9]);
        cache.store(&key, &newer).unwrap();
        assert_eq!(cache.load(&key).unwrap(), newer);
        std::fs::remove_dir_all(cache.dir()).unwrap();
    }
}
