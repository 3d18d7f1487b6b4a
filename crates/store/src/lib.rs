#![warn(missing_docs)]

//! # store — the content-addressed artifact store
//!
//! Training a model takes seconds in the CLI and minutes in the bench
//! binaries, and its result is pure: the same architecture, data and
//! seed give the same weights. This crate keeps trained checkpoints
//! under stable names so later runs load them instead of training:
//!
//! | kind | key | payload |
//! |---|---|---|
//! | `ckpt` | logical name | serialized model parameters |
//!
//! A [`Store`] is an in-memory map optionally backed by a directory
//! (`--store DIR`): every object is one file in `DIR/objects/`, written
//! atomically (temp file + rename) so concurrent processes can share one
//! store without locks — at worst two processes compute the same
//! artifact and the second rename wins with identical bytes.
//!
//! The bit-exactness contract: a hit returns the bytes that were stored
//! (verified by an FNV-1a footer on every read), so a loaded checkpoint
//! is bit-identical to the trained one and every result computed from it
//! is identical whether the model was trained or loaded.

mod artifact;

pub use artifact::{Artifact, ArtifactKey, ArtifactKind};

use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Hit/miss accounting for one [`Store`] handle (process-wide totals are
/// also mirrored into the `store.*` trace counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups that found nothing stored.
    pub misses: u64,
    /// Payload bytes served from the store.
    pub bytes_reused: u64,
    /// Payload bytes written into the store.
    pub bytes_written: u64,
}

impl StoreStats {
    /// Hits over total lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One entry of a store listing.
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// Object file name (or `<memory>` for unbacked stores).
    pub file: String,
    /// Artifact kind.
    pub kind: ArtifactKind,
    /// Checkpoint name.
    pub spec: String,
    /// Content hash component of the key.
    pub content: u64,
    /// Payload size in bytes.
    pub payload_bytes: u64,
}

/// Result of [`Store::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Artifacts that decoded and hash-checked cleanly.
    pub ok: usize,
    /// Object files that failed validation, with the reason.
    pub corrupt: Vec<(String, String)>,
}

impl VerifyReport {
    /// Whether every artifact validated.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
    }
}

/// Result of [`Store::gc`].
#[derive(Debug, Clone, Default)]
pub struct GcReport {
    /// Corrupt object files removed.
    pub removed_corrupt: usize,
    /// Abandoned temp files removed.
    pub removed_tmp: usize,
    /// Valid artifacts kept.
    pub kept: usize,
    /// Store generation after the sweep.
    pub generation: u64,
}

/// The content-addressed artifact store: an in-memory layer over an
/// optional shared on-disk object directory.
///
/// # Examples
///
/// ```
/// use store::Store;
///
/// let store = Store::in_memory();
/// assert_eq!(store.get_checkpoint("demo:cnn:8"), None);
/// store.put_checkpoint("demo:cnn:8", vec![1, 2, 3]);
/// assert_eq!(store.get_checkpoint("demo:cnn:8"), Some(vec![1, 2, 3]));
/// assert_eq!((store.stats().hits, store.stats().misses), (1, 1));
/// ```
pub struct Store {
    dir: Option<PathBuf>,
    mem: Mutex<HashMap<u64, Arc<Artifact>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    bytes_reused: AtomicU64,
    bytes_written: AtomicU64,
    tmp_seq: AtomicU64,
}

impl std::fmt::Debug for Store {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Store(dir={:?}, entries={}, stats={:?})",
            self.dir,
            self.mem.lock().map(|m| m.len()).unwrap_or(0),
            self.stats()
        )
    }
}

impl Store {
    /// A store with no disk backing: artifacts live for the process only.
    pub fn in_memory() -> Store {
        Store {
            dir: None,
            mem: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            bytes_reused: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// Opens (creating if needed) a store backed by `dir`. Concurrent
    /// processes may share one directory: object writes are atomic
    /// temp-file + rename publishes.
    ///
    /// # Errors
    ///
    /// Returns any error creating the directory layout.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("objects"))?;
        let mut s = Store::in_memory();
        s.dir = Some(dir);
        Ok(s)
    }

    /// The backing directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// The store generation: bumped by every [`Store::gc`] sweep, recorded
    /// in run manifests so results can be traced to the store state that
    /// produced them. Always 0 for unbacked stores.
    pub fn generation(&self) -> u64 {
        let Some(dir) = &self.dir else { return 0 };
        std::fs::read_to_string(dir.join("generation"))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    fn objects_dir(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join("objects"))
    }

    fn count_hit(&self, payload_bytes: usize) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.bytes_reused.fetch_add(payload_bytes as u64, Ordering::Relaxed);
        trace::counter(trace::names::STORE_HIT).add(1);
        trace::counter(trace::names::STORE_BYTES_REUSED).add(payload_bytes as u64);
    }

    fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        trace::counter(trace::names::STORE_MISS).add(1);
    }

    /// Looks `key` up in the memory layer, then on disk. Disk reads are
    /// fully validated; a corrupt object is treated as a miss (use
    /// [`Store::gc`] to sweep it away).
    pub fn get(&self, key: &ArtifactKey) -> Option<Arc<Artifact>> {
        let id = key.id();
        if let Some(a) = self.mem.lock().unwrap_or_else(|p| p.into_inner()).get(&id) {
            let a = a.clone();
            self.count_hit(a.payload.len());
            return Some(a);
        }
        if let Some(objects) = self.objects_dir() {
            if let Ok(bytes) = std::fs::read(objects.join(key.file_name())) {
                if let Ok(a) = Artifact::decode(&bytes) {
                    // Guard the (astronomically unlikely) file-name hash
                    // collision: the decoded key must match exactly.
                    if a.key == *key {
                        let a = Arc::new(a);
                        self.mem.lock().unwrap_or_else(|p| p.into_inner()).insert(id, a.clone());
                        self.count_hit(a.payload.len());
                        return Some(a);
                    }
                }
            }
        }
        self.count_miss();
        None
    }

    /// Inserts an artifact into the memory layer and, when disk-backed,
    /// publishes it atomically to the object directory.
    pub fn put(&self, artifact: Artifact) -> Arc<Artifact> {
        let id = artifact.key.id();
        let payload_bytes = artifact.payload.len() as u64;
        let a = Arc::new(artifact);
        if let Some(objects) = self.objects_dir() {
            // Failing to persist degrades to memory-only caching; it must
            // not fail the campaign.
            let _ = self.write_atomic(&objects, &a.key.file_name(), &a.encode());
        }
        self.mem.lock().unwrap_or_else(|p| p.into_inner()).insert(id, a.clone());
        self.bytes_written.fetch_add(payload_bytes, Ordering::Relaxed);
        trace::counter(trace::names::STORE_BYTES_WRITTEN).add(payload_bytes);
        a
    }

    fn write_atomic(&self, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        match std::fs::rename(&tmp, dir.join(name)) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = std::fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    /// Fetches the checkpoint named `name`, if stored.
    pub fn get_checkpoint(&self, name: &str) -> Option<Vec<u8>> {
        self.get(&ArtifactKey::checkpoint(name)).map(|a| a.payload.clone())
    }

    /// Stores serialized model parameters under `name`.
    pub fn put_checkpoint(&self, name: &str, bytes: Vec<u8>) {
        self.put(Artifact { key: ArtifactKey::checkpoint(name), dims: vec![], payload: bytes });
    }

    /// Per-handle hit/miss statistics.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            bytes_reused: self.bytes_reused.load(Ordering::Relaxed),
            bytes_written: self.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Lists every artifact: disk objects (sorted by file name) for backed
    /// stores, the memory layer otherwise.
    ///
    /// # Errors
    ///
    /// Returns any error reading the object directory.
    pub fn ls(&self) -> io::Result<Vec<EntryInfo>> {
        let Some(objects) = self.objects_dir() else {
            let mem = self.mem.lock().unwrap_or_else(|p| p.into_inner());
            let mut out: Vec<EntryInfo> = mem
                .values()
                .map(|a| EntryInfo {
                    file: "<memory>".into(),
                    kind: a.key.kind,
                    spec: a.key.spec.clone(),
                    content: a.key.content,
                    payload_bytes: a.payload.len() as u64,
                })
                .collect();
            out.sort_by(|a, b| (a.kind.as_str(), &a.spec).cmp(&(b.kind.as_str(), &b.spec)));
            return Ok(out);
        };
        let mut out = Vec::new();
        for name in self.object_files(&objects)? {
            let bytes = std::fs::read(objects.join(&name))?;
            if let Ok(a) = Artifact::decode(&bytes) {
                out.push(EntryInfo {
                    file: name,
                    kind: a.key.kind,
                    spec: a.key.spec,
                    content: a.key.content,
                    payload_bytes: a.payload.len() as u64,
                });
            }
        }
        Ok(out)
    }

    fn object_files(&self, objects: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(objects)? {
            let entry = entry?;
            if let Some(name) = entry.file_name().to_str() {
                if name.ends_with(".art") {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Re-reads and fully validates every on-disk artifact (header,
    /// payload footer, key ↔ file-name agreement).
    ///
    /// # Errors
    ///
    /// Returns any error reading the object directory (individual corrupt
    /// objects are reported, not errors).
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let mut report = VerifyReport::default();
        let Some(objects) = self.objects_dir() else {
            report.ok = self.mem.lock().unwrap_or_else(|p| p.into_inner()).len();
            return Ok(report);
        };
        for name in self.object_files(&objects)? {
            match std::fs::read(objects.join(&name)) {
                Err(e) => report.corrupt.push((name, e.to_string())),
                Ok(bytes) => match Artifact::decode(&bytes) {
                    Err(e) => report.corrupt.push((name, e.to_string())),
                    Ok(a) if a.key.file_name() != name => {
                        report.corrupt.push((name, "key does not match file name".into()));
                    }
                    Ok(_) => report.ok += 1,
                },
            }
        }
        Ok(report)
    }

    /// Sweeps the store: removes corrupt objects and abandoned temp files,
    /// keeps every valid artifact, and bumps the generation.
    ///
    /// # Errors
    ///
    /// Returns any error reading the object directory or writing the
    /// generation file.
    pub fn gc(&self) -> io::Result<GcReport> {
        let mut report = GcReport::default();
        let Some(dir) = &self.dir else {
            report.kept = self.mem.lock().unwrap_or_else(|p| p.into_inner()).len();
            return Ok(report);
        };
        let objects = dir.join("objects");
        for entry in std::fs::read_dir(&objects)? {
            let entry = entry?;
            let Some(name) = entry.file_name().to_str().map(String::from) else { continue };
            if name.starts_with(".tmp-") {
                std::fs::remove_file(entry.path())?;
                report.removed_tmp += 1;
            }
        }
        let check = self.verify()?;
        report.kept = check.ok;
        for (name, _) in &check.corrupt {
            std::fs::remove_file(objects.join(name))?;
            report.removed_corrupt += 1;
        }
        let generation = self.generation() + 1;
        self.write_atomic(dir, "generation", generation.to_string().as_bytes())?;
        report.generation = generation;
        // Drop the memory layer: it may cache artifacts whose files a
        // concurrent sweep already judged; re-reads revalidate.
        self.mem.lock().unwrap_or_else(|p| p.into_inner()).clear();
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("goldeneye_store_{tag}_test"));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len()).step_by(2).map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap()).collect()
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = temp_dir("reopen");
        Store::open(&dir).unwrap().put_checkpoint("demo:cnn:8", vec![7; 40]);
        // A fresh handle (≈ a second process) must hit on disk.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_checkpoint("demo:cnn:8"), Some(vec![7; 40]));
        assert_eq!(
            store.stats(),
            StoreStats { hits: 1, misses: 0, bytes_reused: 40, bytes_written: 0 }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_ls() {
        let dir = temp_dir("ckpt");
        let store = Store::open(&dir).unwrap();
        assert!(store.get_checkpoint("demo:cnn:8").is_none());
        store.put_checkpoint("demo:cnn:8", vec![1, 2, 3, 4]);
        assert_eq!(store.get_checkpoint("demo:cnn:8"), Some(vec![1, 2, 3, 4]));
        let entries = store.ls().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, ArtifactKind::Checkpoint);
        assert_eq!(entries[0].spec, "demo:cnn:8");
        assert_eq!(entries[0].payload_bytes, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_flags_and_gc_removes_corruption() {
        let dir = temp_dir("gc");
        let store = Store::open(&dir).unwrap();
        store.put_checkpoint("a", vec![3; 16]);
        store.put_checkpoint("m", vec![9; 64]);
        assert!(store.verify().unwrap().is_clean());
        assert_eq!(store.verify().unwrap().ok, 2);
        // Corrupt one object and strand a temp file.
        let objects = dir.join("objects");
        let victim = store.ls().unwrap()[0].file.clone();
        let mut bytes = std::fs::read(objects.join(&victim)).unwrap();
        let n = bytes.len();
        bytes[n - 12] ^= 0x01;
        std::fs::write(objects.join(&victim), &bytes).unwrap();
        std::fs::write(objects.join(".tmp-999-0"), b"junk").unwrap();
        let report = store.verify().unwrap();
        assert_eq!(report.ok, 1);
        assert_eq!(report.corrupt.len(), 1);
        let gen0 = store.generation();
        let gc = store.gc().unwrap();
        assert_eq!(gc.removed_corrupt, 1);
        assert_eq!(gc.removed_tmp, 1);
        assert_eq!(gc.kept, 1);
        assert_eq!(gc.generation, gen0 + 1);
        assert_eq!(store.generation(), gen0 + 1);
        assert!(store.verify().unwrap().is_clean());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A quantised-weight object as stores of the retired `qweights`
    /// kind (wire code 1) wrote it: `[0.5, -1.25, 3.0]` under `fp:e4m3`,
    /// byte for byte.
    const RETIRED_QWEIGHTS: (&str, &str) = (
        "qweights-303e80dadfff6245.art",
        "47454152543030310100000007000000e77fd76f06da236801000000000000000d000000000000000300\
         00000000000066703a65346d330000000000000000000000003f0000a0bf00004040005fba7c0c443360\
         31",
    );

    #[test]
    fn retired_kinds_are_reported_and_swept() {
        // A store written while wire code 1 held quantised weights and
        // code 2 dequantise tables: their objects must read as an unknown
        // kind, never as a live artifact, and must not disturb the
        // checkpoints around them.
        let dir = temp_dir("retired");
        let store = Store::open(&dir).unwrap();
        store.put_checkpoint("demo:cnn:8", vec![5; 32]);
        let objects = dir.join("objects");
        let (qweights, bytes) = RETIRED_QWEIGHTS;
        std::fs::write(objects.join(qweights), unhex(bytes)).unwrap();
        let table = Artifact {
            key: ArtifactKey { kind: ArtifactKind::Checkpoint, content: 0, spec: "fp:e4m3".into() },
            dims: vec![2],
            payload: vec![0; 8],
        };
        let mut lut = table.encode();
        // The footer hashes only the payload, so patching the kind code
        // leaves an otherwise well-formed object.
        lut[8..12].copy_from_slice(&2u32.to_le_bytes());
        let lut_name = format!("lut-{:016x}.art", table.key.id());
        std::fs::write(objects.join(&lut_name), &lut).unwrap();

        let report = store.verify().unwrap();
        assert_eq!(report.ok, 1);
        assert_eq!(
            report.corrupt,
            [
                (lut_name.clone(), "unknown artifact kind".to_string()),
                (qweights.to_string(), "unknown artifact kind".to_string()),
            ]
        );
        let kinds: Vec<ArtifactKind> = store.ls().unwrap().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [ArtifactKind::Checkpoint]);

        let gc = store.gc().unwrap();
        assert_eq!((gc.removed_corrupt, gc.kept), (2, 1));
        assert!(!objects.join(qweights).exists());
        assert!(!objects.join(&lut_name).exists());
        assert!(store.verify().unwrap().is_clean());

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.get_checkpoint("demo:cnn:8"), Some(vec![5; 32]));
        assert_eq!((reopened.stats().hits, reopened.stats().misses), (1, 0));
        std::fs::remove_dir_all(&dir).ok();
    }
}
