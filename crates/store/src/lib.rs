#![warn(missing_docs)]

//! # store — the content-addressed artifact store
//!
//! DSE and multi-format campaigns quantise the same weight tensors under
//! the same formats over and over: every `evaluate`/`campaign` entry point
//! re-runs the offline weight conversion, and the binary-tree DSE
//! heuristic revisits sibling nodes that share `(weights × format)` pairs.
//! This crate decouples that work from campaign execution by caching two
//! artifact kinds under stable, content-addressed keys:
//!
//! | kind | key | payload |
//! |---|---|---|
//! | `qweights` | FNV-1a(tensor bytes) × canonical spec | quantised values + metadata |
//! | `ckpt` | logical name | serialized model parameters |
//!
//! A [`Store`] is an in-memory map optionally backed by a directory
//! (`--store DIR`): every object is one file in `DIR/objects/`, written
//! atomically (temp file + rename) so concurrent campaign processes can
//! share one store without locks — at worst two processes compute the
//! same artifact and the second rename wins with identical bytes.
//!
//! The bit-exactness contract: a cache hit returns byte-identical values
//! to a fresh computation (payloads are raw `f32` bit patterns, verified
//! by an FNV-1a footer on every read), so campaign results are identical
//! cold-cache, warm-cache, and store-disabled.

mod artifact;

pub use artifact::{
    decode_f32s, decode_quantized, encode_f32s, encode_quantized, Artifact, ArtifactKey,
    ArtifactKind,
};

use formats::{NumberFormat, Quantized};
use std::collections::HashMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tensor::Tensor;

/// Hit/miss accounting for one [`Store`] handle (process-wide totals are
/// also mirrored into the `store.*` trace counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
    /// Payload bytes served from the store instead of recomputed.
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
    /// Canonical spec string / checkpoint name.
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
/// use tensor::Tensor;
///
/// let store = Store::in_memory();
/// let fp8 = "fp:e4m3".parse::<formats::FormatSpec>().unwrap().build();
/// let w = Tensor::from_vec(vec![0.1, -1.5, 3.0], [3]);
/// let cold = store.get_or_quantize(fp8.as_ref(), &w);
/// let warm = store.get_or_quantize(fp8.as_ref(), &w);
/// assert_eq!(cold, warm);
/// assert_eq!(store.stats().hits, 1);
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

    /// Returns `weights` quantised under `format`, from cache when the
    /// `(tensor hash × canonical spec)` pair was converted before — by
    /// this process, an earlier run, or a concurrent one sharing the
    /// directory. Cache hits are bit-identical to fresh conversions.
    pub fn get_or_quantize(&self, format: &dyn NumberFormat, weights: &Tensor) -> Quantized {
        let key = ArtifactKey::quantized(weights, format);
        if let Some(a) = self.get(&key) {
            if let Ok(q) = decode_quantized(&a.dims, &a.payload) {
                return q;
            }
        }
        let q = format.real_to_format_tensor(weights);
        let (dims, payload) = encode_quantized(&q);
        self.put(Artifact { key, dims, payload });
        q
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

    fn fmt(spec: &str) -> Box<dyn NumberFormat> {
        spec.parse::<formats::FormatSpec>().unwrap().build()
    }

    #[test]
    fn memory_store_hits_after_first_quantize() {
        let store = Store::in_memory();
        let f = fmt("bfp:e5m5:b16");
        let w = Tensor::from_vec((0..48).map(|i| i as f32 * 0.3 - 7.0).collect(), [3, 16]);
        let cold = store.get_or_quantize(f.as_ref(), &w);
        assert_eq!(
            store.stats(),
            StoreStats { hits: 0, misses: 1, bytes_reused: 0, bytes_written: cold_bytes(&cold) }
        );
        let warm = store.get_or_quantize(f.as_ref(), &w);
        assert_eq!(cold, warm);
        assert_eq!(store.stats().hits, 1);
        assert!(store.stats().bytes_reused > 0);
    }

    fn cold_bytes(q: &Quantized) -> u64 {
        encode_quantized(q).1.len() as u64
    }

    #[test]
    fn different_formats_do_not_share_entries() {
        let store = Store::in_memory();
        let w = Tensor::from_vec(vec![0.1, 0.7, -2.0, 5.5], [4]);
        let a = store.get_or_quantize(fmt("fp:e4m3").as_ref(), &w);
        let b = store.get_or_quantize(fmt("fp:e5m2").as_ref(), &w);
        assert_ne!(a.values.as_slice(), b.values.as_slice());
        assert_eq!(store.stats().misses, 2);
        assert_eq!(store.stats().hits, 0);
    }

    #[test]
    fn disk_store_survives_reopen() {
        let dir = std::env::temp_dir().join("goldeneye_store_reopen_test");
        let _ = std::fs::remove_dir_all(&dir);
        let w = Tensor::from_vec((0..32).map(|i| (i as f32).sin()).collect(), [32]);
        let f = fmt("int:8");
        let cold = {
            let store = Store::open(&dir).unwrap();
            store.get_or_quantize(f.as_ref(), &w)
        };
        // A fresh handle (≈ a second process) must hit on disk.
        let store = Store::open(&dir).unwrap();
        let warm = store.get_or_quantize(f.as_ref(), &w);
        assert_eq!(cold, warm);
        assert_eq!(
            store.stats(),
            StoreStats { hits: 1, misses: 0, bytes_reused: cold_bytes(&cold), bytes_written: 0 }
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_ls() {
        let dir = std::env::temp_dir().join("goldeneye_store_ckpt_test");
        let _ = std::fs::remove_dir_all(&dir);
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
        let dir = std::env::temp_dir().join("goldeneye_store_gc_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let w = Tensor::from_vec(vec![1.0, -2.0, 3.5, 0.25], [4]);
        store.get_or_quantize(fmt("fp:e4m3").as_ref(), &w);
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

    #[test]
    fn retired_lut_objects_are_reported_and_swept() {
        // A store written while wire code 2 held dequantise tables: its
        // `lut-*.art` objects must read as an unknown kind, never as a
        // live artifact, and must not disturb the objects around them.
        let dir = std::env::temp_dir().join("goldeneye_store_retired_lut_test");
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open(&dir).unwrap();
        let f = fmt("fp:e4m3");
        let w = Tensor::from_vec(vec![0.5, -1.25, 3.0], [3]);
        let q = store.get_or_quantize(f.as_ref(), &w);
        store.put_checkpoint("demo:cnn:8", vec![5; 32]);
        let table = Artifact {
            key: ArtifactKey { kind: ArtifactKind::QWeights, content: 0, spec: f.canonical_spec() },
            dims: vec![2],
            payload: encode_f32s(&[0.0, 1.0]),
        };
        let mut old = table.encode();
        // The footer hashes only the payload, so patching the kind code
        // leaves an otherwise well-formed object.
        old[8..12].copy_from_slice(&2u32.to_le_bytes());
        let old_name = format!("lut-{:016x}.art", table.key.id());
        let objects = dir.join("objects");
        std::fs::write(objects.join(&old_name), &old).unwrap();

        let report = store.verify().unwrap();
        assert_eq!(report.ok, 2);
        assert_eq!(report.corrupt.len(), 1);
        assert_eq!(report.corrupt[0].0, old_name);
        assert_eq!(report.corrupt[0].1, "unknown artifact kind");
        let kinds: Vec<ArtifactKind> = store.ls().unwrap().iter().map(|e| e.kind).collect();
        assert_eq!(kinds, [ArtifactKind::Checkpoint, ArtifactKind::QWeights]);

        let gc = store.gc().unwrap();
        assert_eq!((gc.removed_corrupt, gc.kept), (1, 2));
        assert!(!objects.join(&old_name).exists());
        assert!(store.verify().unwrap().is_clean());

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.get_or_quantize(f.as_ref(), &w), q);
        assert_eq!(reopened.get_checkpoint("demo:cnn:8"), Some(vec![5; 32]));
        assert_eq!(reopened.stats().hits, 2);
        assert_eq!(reopened.stats().misses, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
