//! The on-disk, content-addressed run cache behind `hdpat-sim serve` and the
//! `--cache-dir` CLI flags.
//!
//! # Layout
//!
//! One directory, one file per entry: `<hash>.run` holds a small header
//! (format version, metrics contract version, the **full fingerprint** for
//! collision detection, payload length, checksum) followed by the exact
//! [`Metrics::to_cache_text`] payload. `<hash>` is the 128-bit FNV-1a of the
//! fingerprint in hex, so keys of unbounded length map to fixed-size file
//! names.
//!
//! An entry's recency is its own mtime: every write and every hit stamps it
//! with [`File::set_modified`]. Filesystem atime is unreliable
//! (`noatime`/`relatime` mounts), so the cache sets the stamp itself; the
//! entry bytes never change after the write. `.atime` sidecar files left by
//! older builds are ignored.
//!
//! # Guarantees
//!
//! * **Corruption can never surface as wrong results.** Every read
//!   re-verifies the header, the embedded fingerprint, the payload checksum,
//!   and the full metrics parse; any failure is a miss and the damaged entry
//!   is deleted. The tests of this module truncate and corrupt entries to
//!   prove it.
//! * **Writes are atomic.** Entries are written to a temp file and
//!   `rename`d into place, so a concurrent reader sees the old entry, no
//!   entry, or the complete new entry — never a torn one.
//! * **Versioned.** The entry header carries
//!   [`crate::metrics::METRICS_CONTRACT_VERSION`]; bumping it (or the
//!   fingerprint version, which changes the key) invalidates stale entries.
//! * **Bounded.** With a size budget configured, every insert evicts
//!   least-recently-used entries (by mtime, ties by file name) until the
//!   cache fits.
//!
//! See DESIGN.md §14 and OPERATIONS.md for the operational contract.

use std::fs::{self, File};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::SystemTime;

use crate::metrics::{Metrics, METRICS_CONTRACT_VERSION};

/// Magic first line of every cache entry file.
const ENTRY_MAGIC: &str = "hdpat-diskcache v1";

/// 128-bit FNV-1a of `data` in hex — the content address of a fingerprint,
/// and the per-point hash of `tests/golden/digests.txt`. FNV is not
/// cryptographic; the cache handles collisions by storing and re-checking
/// the full fingerprint inside the entry.
pub fn fnv128_hex(data: &str) -> String {
    const OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
    const PRIME: u128 = 0x0000000001000000000000000000013b;
    let mut h = OFFSET;
    for b in data.as_bytes() {
        h ^= *b as u128;
        h = h.wrapping_mul(PRIME);
    }
    format!("{h:032x}")
}

/// 64-bit FNV-1a payload checksum.
fn fnv64(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf29ce484222325;
    const PRIME: u64 = 0x00000100000001b3;
    let mut h = OFFSET;
    for b in data {
        h ^= *b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Lifetime counters of one [`DiskCache`] handle (process-local; a second
/// process opening the same directory has its own counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DiskCacheStats {
    /// Entries served from disk.
    pub hits: u64,
    /// Lookups that found no (valid) entry.
    pub misses: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries evicted to respect the size budget.
    pub evictions: u64,
    /// Damaged entries discarded during reads.
    pub discarded: u64,
}

/// A persistent, content-addressed store of completed runs:
/// [`super::RunConfig::fingerprint`] → [`Metrics`], surviving process exit
/// and shared between concurrent processes.
///
/// All methods take `&self`; the type is `Sync` and safe to share across the
/// worker pool and daemon threads. Lookups and inserts are best-effort: I/O
/// errors degrade to misses / dropped writes, never to panics or wrong
/// metrics.
///
/// # Example
///
/// ```
/// use hdpat::experiments::{run, DiskCache, RunConfig};
/// use hdpat::policy::PolicyKind;
/// use wsg_workloads::{BenchmarkId, Scale};
///
/// let dir = std::env::temp_dir().join(format!("hdpat-doc-cache-{}", std::process::id()));
/// let cache = DiskCache::open(&dir, None).unwrap();
/// let cfg = RunConfig::new(BenchmarkId::Relu, Scale::Unit, PolicyKind::Naive);
/// let fp = cfg.fingerprint();
/// assert!(cache.get(&fp).is_none());
/// let m = run(&cfg);
/// cache.insert(&fp, &m);
/// let cached = cache.get(&fp).unwrap();
/// assert_eq!(cached.to_deterministic_string(), m.to_deterministic_string());
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    budget: Option<u64>,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    evictions: AtomicU64,
    discarded: AtomicU64,
    tmp_seq: AtomicU64,
}

impl DiskCache {
    /// Opens (creating if necessary) the cache directory. `budget`, when
    /// set, caps the total size in bytes of all `.run` entries; inserts
    /// evict least-recently-used entries to stay under it.
    pub fn open(dir: &Path, budget: Option<u64>) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            discarded: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        })
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured size budget in bytes, if any.
    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Lifetime counters of this handle.
    pub fn stats(&self) -> DiskCacheStats {
        DiskCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            discarded: self.discarded.load(Ordering::Relaxed),
        }
    }

    /// `(entries, bytes)` currently on disk; the bytes are the quantity the
    /// `--cache-budget` evictor compares against its budget. One directory
    /// scan, so call it on demand (status/metrics paths), not per hit.
    pub fn occupancy(&self) -> (u64, u64) {
        let entries = self.entries();
        let bytes = entries.iter().map(|(_, size, _)| size).sum();
        (entries.len() as u64, bytes)
    }

    /// Looks up the metrics cached for `fingerprint`. Any validation failure
    /// (stale version, checksum/parse error, fingerprint collision,
    /// truncation) is a miss; damaged entries are deleted so they cannot
    /// fail again.
    pub fn get(&self, fingerprint: &str) -> Option<Metrics> {
        let path = self.entry_path(fingerprint);
        let mut bytes = Vec::new();
        let file = File::open(&path).and_then(|mut f| f.read_to_end(&mut bytes).map(|_| f));
        let Ok(file) = file else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        match parse_entry(&bytes, fingerprint) {
            Ok(metrics) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                stamp(&file);
                Some(metrics)
            }
            Err(_) => {
                // Entry exists but is damaged or stale: discard it so the
                // slot is rewritten by the next insert.
                let _ = fs::remove_file(&path);
                self.discarded.fetch_add(1, Ordering::Relaxed);
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `metrics` under `fingerprint`, atomically (temp file +
    /// rename) and stamped as just used, then enforces the size budget.
    /// Best-effort: an I/O failure drops the write silently — the cache is
    /// an optimization, never a correctness dependency.
    pub fn insert(&self, fingerprint: &str, metrics: &Metrics) {
        let path = self.entry_path(fingerprint);
        let payload = metrics.to_cache_text();
        let mut doc = String::with_capacity(payload.len() + 256);
        doc.push_str(ENTRY_MAGIC);
        doc.push('\n');
        doc.push_str(&format!("contract {METRICS_CONTRACT_VERSION}\n"));
        doc.push_str(&format!("fingerprint {fingerprint}\n"));
        doc.push_str(&format!(
            "payload {} fnv64 {:016x}\n",
            payload.len(),
            fnv64(payload.as_bytes())
        ));
        doc.push_str(&payload);
        if self.write_atomic(&path, doc.as_bytes()).is_ok() {
            self.writes.fetch_add(1, Ordering::Relaxed);
            self.enforce_budget();
        }
    }

    fn entry_path(&self, fingerprint: &str) -> PathBuf {
        self.dir.join(format!("{}.run", fnv128_hex(fingerprint)))
    }

    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let result = (|| {
            let mut f = File::create(&tmp)?;
            f.write_all(bytes)?;
            stamp(&f);
            f.sync_all()?;
            fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = fs::remove_file(&tmp);
        }
        result
    }

    /// All `.run` entries with their sizes and mtimes, least recently used
    /// first (ties broken by file name for determinism). One `read_dir` and
    /// one `stat` per entry; other files in the directory are skipped.
    fn entries(&self) -> Vec<(PathBuf, u64, SystemTime)> {
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut out: Vec<(PathBuf, u64, SystemTime)> = dir
            .filter_map(|e| {
                let e = e.ok()?;
                let path = e.path();
                if path.extension()? != "run" {
                    return None;
                }
                let meta = e.metadata().ok()?;
                let used = meta.modified().unwrap_or(SystemTime::UNIX_EPOCH);
                Some((path, meta.len(), used))
            })
            .collect();
        out.sort_by(|a, b| (a.2, &a.0).cmp(&(b.2, &b.0)));
        out
    }

    /// Evicts least-recently-used entries until the total size of all
    /// entries fits the budget.
    fn enforce_budget(&self) {
        let Some(budget) = self.budget else { return };
        let entries = self.entries();
        let mut total: u64 = entries.iter().map(|(_, size, _)| size).sum();
        for (path, size, _) in entries {
            if total <= budget {
                break;
            }
            if fs::remove_file(&path).is_ok() {
                self.evictions.fetch_add(1, Ordering::Relaxed);
                total = total.saturating_sub(size);
            }
        }
    }
}

/// Marks an entry as used now by setting its mtime. The stamp orders
/// evictions only; it never reaches simulation state or any deterministic
/// output. Best-effort: a failure leaves the older stamp in place.
fn stamp(file: &File) {
    #[expect(
        clippy::disallowed_methods,
        reason = "LRU recency stamp for cache eviction; the reading orders evictions and never feeds model state or artifacts"
    )]
    let now = SystemTime::now();
    let _ = file.set_modified(now);
}

/// Validates and decodes one entry file. Every failure mode returns an
/// error string (mapped to a miss by the caller) — this function must never
/// panic on attacker- or corruption-shaped input.
fn parse_entry(bytes: &[u8], fingerprint: &str) -> Result<Metrics, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "entry is not UTF-8".to_string())?;
    let mut rest = text;
    let mut next_line = |what: &str| -> Result<&str, String> {
        let nl = rest
            .find('\n')
            .ok_or_else(|| format!("truncated before {what}"))?;
        let (line, tail) = rest.split_at(nl);
        rest = &tail[1..];
        Ok(line)
    };
    if next_line("magic")? != ENTRY_MAGIC {
        return Err("bad magic".to_string());
    }
    let contract = next_line("contract")?;
    if contract != format!("contract {METRICS_CONTRACT_VERSION}") {
        return Err(format!("stale contract line `{contract}`"));
    }
    let fp_line = next_line("fingerprint")?;
    let stored_fp = fp_line
        .strip_prefix("fingerprint ")
        .ok_or_else(|| "bad fingerprint line".to_string())?;
    if stored_fp != fingerprint {
        // A 128-bit hash collision or a foreign file: never serve it.
        return Err("fingerprint mismatch (hash collision?)".to_string());
    }
    let payload_line = next_line("payload header")?;
    let mut t = payload_line.split_whitespace();
    if t.next() != Some("payload") {
        return Err("bad payload header".to_string());
    }
    let declared_len: usize = t
        .next()
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| "bad payload length".to_string())?;
    if t.next() != Some("fnv64") {
        return Err("bad payload header".to_string());
    }
    let declared_sum = t
        .next()
        .and_then(|x| u64::from_str_radix(x, 16).ok())
        .ok_or_else(|| "bad payload checksum".to_string())?;
    if rest.len() != declared_len {
        return Err(format!(
            "payload length mismatch: header {declared_len}, file {}",
            rest.len()
        ));
    }
    if fnv64(rest.as_bytes()) != declared_sum {
        return Err("payload checksum mismatch".to_string());
    }
    Metrics::from_cache_text(rest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hdpat-diskcache-test-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_metrics(cycles: u64) -> Metrics {
        let mut m = Metrics::new(2, 100);
        m.total_cycles = cycles;
        m.ops_completed = cycles * 3;
        m.remote_rtt.record(cycles as f64 / 7.0);
        m.iommu_reuse.touch(cycles);
        m.iommu_reuse.touch(cycles);
        m
    }

    #[test]
    fn insert_then_get_round_trips() {
        let dir = tmpdir("roundtrip");
        let cache = DiskCache::open(&dir, None).unwrap();
        let m = sample_metrics(1234);
        assert!(cache.get("fp-a").is_none());
        cache.insert("fp-a", &m);
        let got = cache.get("fp-a").expect("hit");
        assert_eq!(got.to_cache_text(), m.to_cache_text());
        assert_eq!(
            cache.stats(),
            DiskCacheStats {
                hits: 1,
                misses: 1,
                writes: 1,
                evictions: 0,
                discarded: 0,
            }
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn distinct_fingerprints_do_not_alias() {
        let dir = tmpdir("alias");
        let cache = DiskCache::open(&dir, None).unwrap();
        cache.insert("fp-a", &sample_metrics(1));
        cache.insert("fp-b", &sample_metrics(2));
        // A sidecar left by an older store is neither an entry nor bytes.
        fs::write(dir.join(format!("{}.atime", fnv128_hex("fp-a"))), b"777\n").unwrap();
        let entry_bytes = |fp: &str| {
            fs::metadata(dir.join(format!("{}.run", fnv128_hex(fp))))
                .unwrap()
                .len()
        };
        assert_eq!(
            cache.occupancy(),
            (2, entry_bytes("fp-a") + entry_bytes("fp-b"))
        );
        assert_eq!(cache.get("fp-a").unwrap().total_cycles, 1);
        assert_eq!(cache.get("fp-b").unwrap().total_cycles, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wrong_fingerprint_in_entry_is_rejected() {
        let dir = tmpdir("collision");
        let cache = DiskCache::open(&dir, None).unwrap();
        cache.insert("fp-a", &sample_metrics(1));
        // Simulate a 128-bit hash collision by renaming fp-a's entry file to
        // fp-b's slot: the embedded fingerprint no longer matches.
        let a = dir.join(format!("{}.run", fnv128_hex("fp-a")));
        let b = dir.join(format!("{}.run", fnv128_hex("fp-b")));
        fs::rename(&a, &b).unwrap();
        assert!(cache.get("fp-b").is_none());
        assert!(!b.exists(), "colliding entry must be discarded");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_and_truncated_entries_are_misses_and_discarded() {
        let dir = tmpdir("corrupt");
        let cache = DiskCache::open(&dir, None).unwrap();
        let m = sample_metrics(99);
        cache.insert("fp", &m);
        let path = dir.join(format!("{}.run", fnv128_hex("fp")));
        let original = fs::read(&path).unwrap();

        // Truncate at several byte offsets, including mid-payload.
        for cut in [0, 10, original.len() / 2, original.len() - 1] {
            fs::write(&path, &original[..cut]).unwrap();
            assert!(cache.get("fp").is_none(), "cut at {cut} must miss");
            assert!(!path.exists(), "cut at {cut} must discard the entry");
            fs::write(&path, &original).unwrap();
        }

        // Flip a payload byte: checksum must catch it.
        let mut flipped = original.clone();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        fs::write(&path, &flipped).unwrap();
        assert!(cache.get("fp").is_none());

        // A fresh insert repairs the slot.
        cache.insert("fp", &m);
        assert_eq!(cache.get("fp").unwrap().total_cycles, 99);
        assert!(cache.stats().discarded >= 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stale_contract_version_is_a_miss() {
        let dir = tmpdir("stale");
        let cache = DiskCache::open(&dir, None).unwrap();
        cache.insert("fp", &sample_metrics(5));
        let path = dir.join(format!("{}.run", fnv128_hex("fp")));
        let doc = fs::read_to_string(&path).unwrap();
        let stale = doc.replace(
            &format!("contract {METRICS_CONTRACT_VERSION}"),
            "contract 0",
        );
        fs::write(&path, stale).unwrap();
        assert!(cache.get("fp").is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lru_eviction_respects_budget_and_access_order() {
        let dir = tmpdir("evict");
        let cache = DiskCache::open(&dir, None).unwrap();
        cache.insert("fp-old", &sample_metrics(1));
        let entry_bytes = fs::metadata(dir.join(format!("{}.run", fnv128_hex("fp-old"))))
            .unwrap()
            .len();
        // Budget fits two entries but not three.
        let budgeted = DiskCache::open(&dir, Some(entry_bytes * 2 + entry_bytes / 2)).unwrap();
        // Guard against coarse clocks: stamps must strictly order the three
        // accesses below even where SystemTime ticks in large steps.
        let tick = || std::thread::sleep(std::time::Duration::from_millis(5));
        tick();
        budgeted.insert("fp-mid", &sample_metrics(2));
        tick();
        // Touch fp-old so fp-mid becomes the least recently used...
        assert!(budgeted.get("fp-old").is_some());
        tick();
        // ...then overflow the budget: fp-mid must go, fp-old must stay.
        budgeted.insert("fp-new", &sample_metrics(3));
        assert!(budgeted.stats().evictions >= 1);
        assert!(budgeted.get("fp-mid").is_none());
        assert!(budgeted.get("fp-old").is_some());
        assert!(budgeted.get("fp-new").is_some());
        fs::remove_dir_all(&dir).unwrap();
    }

    /// Sets the mtime of `fp`'s entry file to `secs` after the Unix epoch.
    fn set_stamp(dir: &Path, fp: &str, secs: u64) {
        let path = dir.join(format!("{}.run", fnv128_hex(fp)));
        let at = SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(secs);
        File::options()
            .write(true)
            .open(path)
            .and_then(|f| f.set_modified(at))
            .unwrap();
    }

    #[test]
    fn a_hit_moves_the_entry_stamp_forward() {
        let dir = tmpdir("hit-stamp");
        let cache = DiskCache::open(&dir, None).unwrap();
        cache.insert("fp", &sample_metrics(1));
        set_stamp(&dir, "fp", 777);
        let stamp_of = || cache.entries()[0].2;
        let old = stamp_of();
        assert_eq!(
            old,
            SystemTime::UNIX_EPOCH + std::time::Duration::from_secs(777)
        );
        assert!(cache.get("fp").is_some());
        assert!(stamp_of() > old, "a hit must refresh the entry's mtime");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn equal_stamps_evict_in_file_name_order() {
        // Pin the deterministic tiebreak: when two entries carry the same
        // stamp, the lexicographically smaller entry file name goes first.
        let dir = tmpdir("stamp-tie");
        let cache = DiskCache::open(&dir, None).unwrap();
        cache.insert("fp-a", &sample_metrics(1));
        cache.insert("fp-b", &sample_metrics(2));
        for fp in ["fp-a", "fp-b"] {
            set_stamp(&dir, fp, 777);
        }
        let entries = cache.entries();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].2, entries[1].2, "stamps must tie");
        assert!(entries[0].0 < entries[1].0, "ties break by file name");
        // One-entry budget: exactly the first-sorted (smaller-named) entry
        // is evicted, regardless of insert order.
        let victim = entries[0].0.clone();
        let survivor = entries[1].0.clone();
        let budgeted = DiskCache::open(&dir, Some(entries[1].1)).unwrap();
        // A sidecar left by an older store counts against no budget.
        fs::write(dir.join(format!("{}.atime", fnv128_hex("fp-a"))), b"777\n").unwrap();
        budgeted.enforce_budget();
        assert!(!victim.exists(), "smaller-named tied entry must be evicted");
        assert!(survivor.exists(), "larger-named tied entry must survive");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hash_is_stable_and_wide() {
        // Pin the content address so entries written by older builds keep
        // resolving (the fingerprint, not the hash, is the versioned part).
        assert_eq!(
            fnv128_hex("hdpat-rc-v2|example"),
            fnv128_hex("hdpat-rc-v2|example")
        );
        assert_ne!(fnv128_hex("a"), fnv128_hex("b"));
        assert_eq!(fnv128_hex("").len(), 32);
    }
}
