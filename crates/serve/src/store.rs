//! Crash-safe persistent backing for the result cache.
//!
//! Every cached run is one digest-named file under the store directory:
//!
//! ```text
//! ifsim-cache-entry-v1 <digest> <payload-len> <fnv128-checksum>\n
//! <payload: the run as one JSON object>
//! ```
//!
//! Writes are crash-safe by construction: the entry is first written to a
//! `tmp-*` file in the same directory, flushed with `fsync`, atomically
//! renamed onto its digest name, and the directory itself is fsynced so
//! the rename survives a power cut. A `kill -9` mid-write therefore
//! leaves either the complete old state or a stray `tmp-*` file that the
//! next startup scan deletes — never a half-written entry under a live
//! digest name.
//!
//! The startup scan validates every entry (header shape, digest/filename
//! agreement, payload length, checksum, JSON decode). Anything that fails
//! — a torn write that somehow reached the final name, a bit-flip, a
//! truncation — is moved into the `quarantine/` subdirectory for
//! post-mortem inspection and the digest is recomputed on next request
//! instead of served corrupt. The same validation runs on every read, so
//! corruption that appears *after* startup is also quarantined, not
//! served.
//!
//! Capacity is a byte cap over the sum of entry file sizes, evicted in
//! least-recently-*written* order on startup and least-recently-*used*
//! order while the store is live.

use crate::cache::CachedRun;
use crate::proto::read_csv;
use ifsim_core::experiment::fnv128_hex;
use ifsim_scenario::{Field, FieldError};
use serde_json::{Map, Value};
use std::collections::HashMap;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// First header token of every entry file; bump on layout changes so old
/// daemons never misread new entries (a version mismatch quarantines).
pub const ENTRY_MAGIC: &str = "ifsim-cache-entry-v1";

/// Subdirectory corrupt entries are moved into.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Prefix of in-progress write files (deleted by the startup scan).
const TMP_PREFIX: &str = "tmp-";

/// What the startup scan found in an existing cache directory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Valid entries recovered into the index.
    pub recovered: usize,
    /// Corrupt entries moved to `quarantine/`.
    pub quarantined: usize,
    /// Abandoned `tmp-*` files (crash mid-write) deleted.
    pub removed_tmp: usize,
    /// Entries evicted because the directory exceeded the byte cap.
    pub evicted: usize,
    /// Total bytes of recovered entries after eviction.
    pub bytes: u64,
}

struct DiskState {
    /// digest → entry file size in bytes.
    index: HashMap<String, u64>,
    /// Recency order, least recently used first.
    lru: Vec<String>,
    total_bytes: u64,
    tmp_seq: u64,
    quarantine_seq: u64,
}

impl DiskState {
    fn touch(&mut self, digest: &str) {
        if let Some(pos) = self.lru.iter().position(|d| d == digest) {
            let d = self.lru.remove(pos);
            self.lru.push(d);
        }
    }

    fn remove(&mut self, digest: &str) -> Option<u64> {
        let size = self.index.remove(digest)?;
        if let Some(pos) = self.lru.iter().position(|d| d == digest) {
            self.lru.remove(pos);
        }
        self.total_bytes -= size;
        Some(size)
    }
}

/// A digest-addressed directory of checksummed entry files with
/// crash-safe writes, corruption quarantine, and an LRU byte cap.
pub struct DiskStore {
    dir: PathBuf,
    bytes_cap: u64,
    state: Mutex<DiskState>,
    quarantined: AtomicU64,
}

impl DiskStore {
    /// Open (creating if needed) the store at `dir`, scan and validate
    /// every resident entry, quarantine corrupt ones, delete abandoned
    /// tmp files, and evict down to `bytes_cap` (clamped to ≥ 1).
    pub fn open(
        dir: impl Into<PathBuf>,
        bytes_cap: u64,
    ) -> std::io::Result<(DiskStore, ScanReport)> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let store = DiskStore {
            dir,
            bytes_cap: bytes_cap.max(1),
            state: Mutex::new(DiskState {
                index: HashMap::new(),
                lru: Vec::new(),
                total_bytes: 0,
                tmp_seq: 0,
                quarantine_seq: 0,
            }),
            quarantined: AtomicU64::new(0),
        };
        let report = store.scan()?;
        Ok((store, report))
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Validate the directory contents and build the index. Valid entries
    /// enter the LRU in modification-time order (oldest first), the best
    /// recency approximation that survives a restart.
    fn scan(&self) -> std::io::Result<ScanReport> {
        let mut report = ScanReport::default();
        let mut found: Vec<(std::time::SystemTime, String, u64)> = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            if path.is_dir() {
                continue; // quarantine/ and anything else foreign
            }
            if name.starts_with(TMP_PREFIX) {
                // A crash mid-write: the rename never happened, so the
                // digest still maps to its previous (complete) state.
                let _ = fs::remove_file(&path);
                report.removed_tmp += 1;
                continue;
            }
            let bytes = match fs::read(&path) {
                Ok(b) => b,
                Err(_) => continue,
            };
            match decode_entry(&bytes, &name) {
                Ok(_) => {
                    let mtime = entry
                        .metadata()
                        .and_then(|m| m.modified())
                        .unwrap_or(std::time::UNIX_EPOCH);
                    found.push((mtime, name, bytes.len() as u64));
                }
                Err(_) => {
                    self.quarantine_file(&path, &name);
                    report.quarantined += 1;
                }
            }
        }
        found.sort();
        let mut state = self.state.lock().unwrap();
        for (_, digest, size) in found {
            state.total_bytes += size;
            state.index.insert(digest.clone(), size);
            state.lru.push(digest);
            report.recovered += 1;
        }
        // A shrunken cap (or an over-full directory) evicts oldest-first.
        while state.total_bytes > self.bytes_cap && state.lru.len() > 1 {
            let oldest = state.lru[0].clone();
            state.remove(&oldest);
            let _ = fs::remove_file(self.dir.join(&oldest));
            report.evicted += 1;
            report.recovered -= 1;
        }
        report.bytes = state.total_bytes;
        Ok(report)
    }

    /// Move a corrupt file into `quarantine/`, never deleting evidence.
    fn quarantine_file(&self, path: &Path, name: &str) {
        let qdir = self.dir.join(QUARANTINE_DIR);
        let _ = fs::create_dir_all(&qdir);
        let seq = {
            let mut state = self.state.lock().unwrap();
            state.quarantine_seq += 1;
            state.quarantine_seq
        };
        let dest = qdir.join(format!("{name}.{seq}"));
        if fs::rename(path, &dest).is_err() {
            // Cross-checks failed *and* the move failed: delete rather
            // than risk re-serving the corrupt bytes forever.
            let _ = fs::remove_file(path);
        }
        self.quarantined.fetch_add(1, Ordering::SeqCst);
    }

    /// Look up one digest, validating the entry end-to-end. A corrupt
    /// entry is quarantined and reported as a miss.
    pub fn get(&self, digest: &str) -> Option<CachedRun> {
        {
            let state = self.state.lock().unwrap();
            if !state.index.contains_key(digest) {
                return None;
            }
        }
        let path = self.dir.join(digest);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.state.lock().unwrap().remove(digest);
                return None;
            }
        };
        match decode_entry(&bytes, digest) {
            Ok(run) => {
                self.state.lock().unwrap().touch(digest);
                Some(run)
            }
            Err(_) => {
                self.state.lock().unwrap().remove(digest);
                self.quarantine_file(&path, digest);
                None
            }
        }
    }

    /// Whether `digest` is resident (no validation, index only).
    pub fn contains(&self, digest: &str) -> bool {
        self.state.lock().unwrap().index.contains_key(digest)
    }

    /// Persist one run crash-safely: tmp file → fsync → atomic rename →
    /// directory fsync, then evict least-recently-used entries past the
    /// byte cap. A digest already resident is kept as-is (first write
    /// wins, matching the in-memory cache).
    pub fn put(&self, run: &CachedRun) -> std::io::Result<()> {
        if self.contains(&run.digest) {
            return Ok(());
        }
        let bytes = encode_entry(run);
        let tmp = {
            let mut state = self.state.lock().unwrap();
            state.tmp_seq += 1;
            self.dir.join(format!(
                "{TMP_PREFIX}{}-{}",
                std::process::id(),
                state.tmp_seq
            ))
        };
        let final_path = self.dir.join(&run.digest);
        {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        if let Err(e) = fs::rename(&tmp, &final_path) {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        // Persist the rename itself: fsync the containing directory.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        let evict: Vec<String> = {
            let mut state = self.state.lock().unwrap();
            let size = bytes.len() as u64;
            state.total_bytes += size;
            state.index.insert(run.digest.clone(), size);
            state.lru.push(run.digest.clone());
            let mut evict = Vec::new();
            while state.total_bytes > self.bytes_cap && state.lru.len() > 1 {
                let oldest = state.lru[0].clone();
                state.remove(&oldest);
                evict.push(oldest);
            }
            evict
        };
        for digest in evict {
            let _ = fs::remove_file(self.dir.join(digest));
        }
        Ok(())
    }

    /// Number of resident entries.
    pub fn entries(&self) -> usize {
        self.state.lock().unwrap().index.len()
    }

    /// Sum of resident entry file sizes.
    pub fn total_bytes(&self) -> u64 {
        self.state.lock().unwrap().total_bytes
    }

    /// The byte cap eviction holds the store under.
    pub fn bytes_cap(&self) -> u64 {
        self.bytes_cap
    }

    /// Entries this process has quarantined (startup scan + runtime reads).
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined.load(Ordering::SeqCst)
    }
}

/// Serialize one run to its on-disk entry bytes (header + JSON payload).
/// Public so the chaos harness and the torn-write property tests can
/// construct byte-exact (and deliberately damaged) entries.
pub fn encode_entry(run: &CachedRun) -> Vec<u8> {
    let mut payload = Map::new();
    payload.insert("digest", Value::from(run.digest.clone()));
    payload.insert("report", Value::from(run.report.clone()));
    payload.insert(
        "csv",
        Value::Array(
            run.csv
                .iter()
                .map(|(name, contents)| {
                    let mut f = Map::new();
                    f.insert("name", Value::from(name.clone()));
                    f.insert("contents", Value::from(contents.clone()));
                    Value::Object(f)
                })
                .collect(),
        ),
    );
    payload.insert("checks_passed", Value::from(run.checks_passed));
    payload.insert("checks_total", Value::from(run.checks_total));
    if let Some(critpath) = &run.critpath {
        payload.insert("critpath", Value::from(critpath.clone()));
    }
    let payload = serde_json::to_string(&Value::Object(payload));
    let header = format!(
        "{ENTRY_MAGIC} {} {} {}\n",
        run.digest,
        payload.len(),
        fnv128_hex(payload.as_bytes())
    );
    let mut out = Vec::with_capacity(header.len() + payload.len());
    out.extend_from_slice(header.as_bytes());
    out.extend_from_slice(payload.as_bytes());
    out
}

/// Parse and validate entry bytes against the digest they are filed
/// under. Every failure mode maps to a reason string (and, in the store,
/// to quarantine).
pub fn decode_entry(bytes: &[u8], expected_digest: &str) -> Result<CachedRun, String> {
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("no header line")?;
    let header = std::str::from_utf8(&bytes[..nl]).map_err(|_| "header is not UTF-8")?;
    let mut parts = header.split(' ');
    match parts.next() {
        Some(ENTRY_MAGIC) => {}
        other => return Err(format!("bad magic {other:?}")),
    }
    let digest = parts.next().ok_or("header missing digest")?;
    if digest != expected_digest {
        return Err(format!(
            "entry digest '{digest}' does not match file name '{expected_digest}'"
        ));
    }
    let len: usize = parts
        .next()
        .ok_or("header missing length")?
        .parse()
        .map_err(|_| "bad length field")?;
    let sum = parts.next().ok_or("header missing checksum")?;
    if parts.next().is_some() {
        return Err("trailing header fields".into());
    }
    let payload = &bytes[nl + 1..];
    if payload.len() != len {
        return Err(format!(
            "payload is {} bytes, header promises {len} (torn write?)",
            payload.len()
        ));
    }
    if fnv128_hex(payload) != sum {
        return Err("checksum mismatch".into());
    }
    let payload = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8")?;
    let v: Value = serde_json::from_str(payload).map_err(|e| format!("payload JSON: {e}"))?;
    let run = read_payload(&v).map_err(|e| format!("payload {e}"))?;
    if run.digest != expected_digest {
        return Err("payload digest does not match file name".into());
    }
    Ok(run)
}

fn read_payload(v: &Value) -> Result<CachedRun, FieldError> {
    let obj = Field::new(v, "").object("must be a JSON object")?;
    let text = |key| obj.req(key)?.str().map(str::to_string);
    Ok(CachedRun {
        digest: text("digest")?,
        report: text("report")?,
        csv: read_csv(obj.req("csv")?)?,
        checks_passed: obj.req("checks_passed")?.usize()?,
        checks_total: obj.req("checks_total")?.usize()?,
        critpath: obj.opt("critpath", |c| c.str().map(str::to_string))?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(digest: &str, payload: &str) -> CachedRun {
        CachedRun {
            digest: digest.to_string(),
            report: format!("report {payload}\nwith \"quotes\" and π"),
            csv: vec![(format!("{payload}.csv"), format!("a,b\n1,{payload}\n"))],
            checks_passed: 3,
            checks_total: 4,
            critpath: Some(format!(
                "{{\"schema\":\"ifsim-critpath-v1\",\"tag\":\"{payload}\"}}"
            )),
        }
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ifsim-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn entry_bytes_round_trip() {
        let r = run("d1", "alpha");
        let bytes = encode_entry(&r);
        let back = decode_entry(&bytes, "d1").unwrap();
        assert_eq!(back.digest, r.digest);
        assert_eq!(back.report, r.report);
        assert_eq!(back.csv, r.csv);
        assert_eq!(back.checks_passed, 3);
        assert_eq!(back.checks_total, 4);
        assert!(decode_entry(&bytes, "other").is_err(), "filename mismatch");
        assert!(
            decode_entry(&bytes[..bytes.len() - 1], "d1").is_err(),
            "truncation"
        );
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x20;
        assert!(decode_entry(&flipped, "d1").is_err(), "bit flip");
    }

    #[test]
    fn put_get_survive_reopen() {
        let dir = tmpdir("reopen");
        let (store, report) = DiskStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(report, ScanReport::default());
        store.put(&run("aaaa", "one")).unwrap();
        store.put(&run("bbbb", "two")).unwrap();
        assert_eq!(store.entries(), 2);
        drop(store);

        let (store, report) = DiskStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(report.recovered, 2);
        assert_eq!(report.quarantined, 0);
        let got = store.get("aaaa").unwrap();
        assert_eq!(got.report, run("aaaa", "one").report);
        assert!(store.get("cccc").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_on_scan_and_read() {
        let dir = tmpdir("corrupt");
        let (store, _) = DiskStore::open(&dir, 1 << 20).unwrap();
        store.put(&run("aaaa", "one")).unwrap();
        store.put(&run("bbbb", "two")).unwrap();
        store.put(&run("cccc", "three")).unwrap();
        drop(store);

        // Truncate one entry, bit-flip another, leave a stray tmp file.
        let a = fs::read(dir.join("aaaa")).unwrap();
        fs::write(dir.join("aaaa"), &a[..a.len() / 2]).unwrap();
        let mut b = fs::read(dir.join("bbbb")).unwrap();
        let mid = b.len() / 2;
        b[mid] ^= 0x01;
        fs::write(dir.join("bbbb"), &b).unwrap();
        fs::write(dir.join("tmp-999-1"), b"half a write").unwrap();

        let (store, report) = DiskStore::open(&dir, 1 << 20).unwrap();
        assert_eq!(report.recovered, 1);
        assert_eq!(report.quarantined, 2);
        assert_eq!(report.removed_tmp, 1);
        assert_eq!(store.quarantined_total(), 2);
        assert!(store.get("aaaa").is_none());
        assert!(store.get("bbbb").is_none());
        assert!(store.get("cccc").is_some());
        let qdir = dir.join(QUARANTINE_DIR);
        assert_eq!(fs::read_dir(&qdir).unwrap().count(), 2, "evidence kept");

        // Corruption appearing after startup is caught at read time too.
        let c = fs::read(dir.join("cccc")).unwrap();
        fs::write(dir.join("cccc"), &c[..c.len() - 3]).unwrap();
        assert!(store.get("cccc").is_none());
        assert_eq!(store.quarantined_total(), 3);
        assert_eq!(store.entries(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn byte_cap_evicts_least_recently_used() {
        let dir = tmpdir("lru");
        let one = encode_entry(&run("aaaa", "one")).len() as u64;
        // Room for two entries of this shape, not three.
        let (store, _) = DiskStore::open(&dir, one * 2 + one / 2).unwrap();
        store.put(&run("aaaa", "one")).unwrap();
        store.put(&run("bbbb", "two")).unwrap();
        assert!(store.get("aaaa").is_some(), "touch refreshes recency");
        store.put(&run("cccc", "thr")).unwrap();
        assert_eq!(store.entries(), 2);
        assert!(store.contains("aaaa"), "recently used survives");
        assert!(!store.contains("bbbb"), "LRU victim evicted");
        assert!(store.contains("cccc"));
        assert!(store.total_bytes() <= store.bytes_cap());
        let _ = fs::remove_dir_all(&dir);
    }
}
