#![warn(missing_docs)]

//! # store — a directory of trained model checkpoints
//!
//! Training a model takes seconds in the CLI and minutes in the bench
//! binaries, and its result is pure: the same architecture, data and
//! seed give the same weights. This crate keeps trained checkpoints
//! under stable names so later runs load them instead of training.
//!
//! A [`Store`] is a directory (`--store DIR`): every checkpoint is one
//! file in `DIR/objects/`, written atomically (temp file + rename) so
//! concurrent processes can share one store without locks — at worst two
//! processes train the same model and the second rename wins with
//! identical bytes.
//!
//! The bit-exactness contract: a hit returns the bytes that were stored
//! (verified by an FNV-1a footer on every read), so a loaded checkpoint
//! is bit-identical to the trained one and every result computed from it
//! is identical whether the model was trained or loaded. Hits, misses
//! and bytes moved are counted in the process-wide `store.*` trace
//! counters.

mod artifact;

pub use artifact::ArtifactKey;

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One entry of a store listing.
#[derive(Debug, Clone)]
pub struct EntryInfo {
    /// Object file name.
    pub file: String,
    /// Checkpoint name.
    pub name: String,
    /// Payload size in bytes.
    pub payload_bytes: u64,
}

/// Result of [`Store::verify`].
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Checkpoints that decoded and hash-checked cleanly.
    pub ok: usize,
    /// Object files that failed validation, with the reason.
    pub corrupt: Vec<(String, String)>,
}

impl VerifyReport {
    /// Whether every object validated.
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
    /// Valid checkpoints kept.
    pub kept: usize,
    /// Store generation after the sweep.
    pub generation: u64,
}

/// A directory of named checkpoints, shareable between processes.
///
/// # Examples
///
/// ```
/// use store::Store;
///
/// let dir = std::env::temp_dir().join(format!("store_doc_{}", std::process::id()));
/// let store = Store::open(&dir)?;
/// assert_eq!(store.get_checkpoint("demo:cnn:8"), None);
/// store.put_checkpoint("demo:cnn:8", &[1, 2, 3])?;
/// assert_eq!(store.get_checkpoint("demo:cnn:8"), Some(vec![1, 2, 3]));
/// std::fs::remove_dir_all(&dir)?;
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    tmp_seq: AtomicU64,
}

impl Store {
    /// Opens (creating if needed) the store in `dir`. Concurrent
    /// processes may share one directory: object writes are atomic
    /// temp-file + rename publishes.
    ///
    /// # Errors
    ///
    /// Returns any error creating the directory layout.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        std::fs::create_dir_all(dir.join("objects"))?;
        Ok(Store { dir, tmp_seq: AtomicU64::new(0) })
    }

    /// Opens the store in `dir` without creating anything, for tools that
    /// inspect or repair an existing store.
    ///
    /// # Errors
    ///
    /// Returns [`io::ErrorKind::NotFound`] if `dir` holds no store (no
    /// `objects` directory).
    pub fn open_existing(dir: impl Into<PathBuf>) -> io::Result<Store> {
        let dir = dir.into();
        if !dir.join("objects").is_dir() {
            let msg = format!("no store at {}", dir.display());
            return Err(io::Error::new(io::ErrorKind::NotFound, msg));
        }
        Ok(Store { dir, tmp_seq: AtomicU64::new(0) })
    }

    /// The store generation: bumped by every [`Store::gc`] sweep, recorded
    /// in run manifests so results can be traced to the store state that
    /// produced them.
    pub fn generation(&self) -> u64 {
        std::fs::read_to_string(self.dir.join("generation"))
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0)
    }

    fn objects(&self) -> PathBuf {
        self.dir.join("objects")
    }

    /// Fetches the checkpoint named `name`. Every read is fully
    /// validated; a missing or corrupt object is a miss (use
    /// [`Store::gc`] to sweep corrupt ones away).
    pub fn get_checkpoint(&self, name: &str) -> Option<Vec<u8>> {
        let key = ArtifactKey::checkpoint(name);
        let bytes = std::fs::read(self.objects().join(key.file_name())).ok();
        let payload = bytes.and_then(|mut b| match artifact::decode(&b) {
            // Guard the (astronomically unlikely) file-name hash
            // collision: the decoded key must match exactly.
            Ok((k, payload)) if k == key => {
                // Cut the header and footer off the read buffer in place:
                // a load holds one copy of the weights, not two.
                b.truncate(payload.end);
                b.drain(..payload.start);
                Some(b)
            }
            _ => None,
        });
        match &payload {
            Some(p) => {
                trace::counter(trace::names::STORE_HIT).add(1);
                trace::counter(trace::names::STORE_BYTES_REUSED).add(p.len() as u64);
            }
            None => trace::counter(trace::names::STORE_MISS).add(1),
        }
        payload
    }

    /// Publishes `payload` atomically as the checkpoint named `name`.
    ///
    /// # Errors
    ///
    /// Returns any error writing the object; the checkpoint is then
    /// simply not stored.
    pub fn put_checkpoint(&self, name: &str, payload: &[u8]) -> io::Result<()> {
        let key = ArtifactKey::checkpoint(name);
        self.write_atomic(&self.objects(), &key.file_name(), &artifact::encode(&key, payload))?;
        trace::counter(trace::names::STORE_BYTES_WRITTEN).add(payload.len() as u64);
        Ok(())
    }

    fn write_atomic(&self, dir: &Path, name: &str, bytes: &[u8]) -> io::Result<()> {
        let tmp = dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.tmp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&tmp, bytes)?;
        std::fs::rename(&tmp, dir.join(name)).inspect_err(|_| {
            let _ = std::fs::remove_file(&tmp);
        })
    }

    /// Lists every valid checkpoint, sorted by object file name.
    ///
    /// # Errors
    ///
    /// Returns any error reading the object directory.
    pub fn ls(&self) -> io::Result<Vec<EntryInfo>> {
        let objects = self.objects();
        let mut out = Vec::new();
        for file in self.object_files()? {
            let bytes = std::fs::read(objects.join(&file))?;
            if let Ok((key, payload)) = artifact::decode(&bytes) {
                out.push(EntryInfo { file, name: key.name, payload_bytes: payload.len() as u64 });
            }
        }
        Ok(out)
    }

    fn object_files(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(self.objects())? {
            if let Some(name) = entry?.file_name().to_str() {
                if name.ends_with(".art") {
                    names.push(name.to_string());
                }
            }
        }
        names.sort();
        Ok(names)
    }

    /// Re-reads and fully validates every object (header, payload footer,
    /// key ↔ file-name agreement).
    ///
    /// # Errors
    ///
    /// Returns any error reading the object directory (individual corrupt
    /// objects are reported, not errors).
    pub fn verify(&self) -> io::Result<VerifyReport> {
        let objects = self.objects();
        let mut report = VerifyReport::default();
        for file in self.object_files()? {
            match std::fs::read(objects.join(&file)) {
                Err(e) => report.corrupt.push((file, e.to_string())),
                Ok(bytes) => match artifact::decode(&bytes) {
                    Err(e) => report.corrupt.push((file, e.to_string())),
                    Ok((key, _)) if key.file_name() != file => {
                        report.corrupt.push((file, "key does not match file name".into()));
                    }
                    Ok(_) => report.ok += 1,
                },
            }
        }
        Ok(report)
    }

    /// Sweeps the store: removes corrupt objects and abandoned temp files,
    /// keeps every valid checkpoint, and bumps the generation.
    ///
    /// # Errors
    ///
    /// Returns any error reading the object directory or writing the
    /// generation file.
    pub fn gc(&self) -> io::Result<GcReport> {
        let objects = self.objects();
        let mut report = GcReport::default();
        for entry in std::fs::read_dir(&objects)? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(|n| n.starts_with(".tmp-")) {
                std::fs::remove_file(entry.path())?;
                report.removed_tmp += 1;
            }
        }
        let check = self.verify()?;
        report.kept = check.ok;
        for (file, _) in &check.corrupt {
            std::fs::remove_file(objects.join(file))?;
            report.removed_corrupt += 1;
        }
        report.generation = self.generation() + 1;
        self.write_atomic(&self.dir, "generation", report.generation.to_string().as_bytes())?;
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
        Store::open(&dir).unwrap().put_checkpoint("demo:cnn:8", &[7; 40]).unwrap();
        // A fresh handle (≈ a second process) must hit on disk.
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_checkpoint("demo:cnn:8"), Some(vec![7; 40]));
        assert_eq!(store.get_checkpoint("demo:cnn:4"), None);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_existing_creates_nothing() {
        let dir = temp_dir("open_existing");
        let err = Store::open_existing(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        assert!(!dir.exists(), "open_existing created {}", dir.display());
        Store::open(&dir).unwrap().put_checkpoint("demo:cnn:8", &[1; 8]).unwrap();
        let store = Store::open_existing(&dir).unwrap();
        assert_eq!(store.get_checkpoint("demo:cnn:8"), Some(vec![1; 8]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn loaded_payload_equals_what_was_put() {
        // The load cuts the header and footer off the read buffer in
        // place; names of different lengths move the payload's offset.
        let dir = temp_dir("in_place");
        let store = Store::open(&dir).unwrap();
        let payload: Vec<u8> = (0..10_007u32).map(|i| (i * 31 % 251) as u8).collect();
        for name in ["m", "demo:resnet18:0123456789abcdef", &"n".repeat(100)] {
            store.put_checkpoint(name, &payload).unwrap();
            assert_eq!(store.get_checkpoint(name).as_deref(), Some(&payload[..]), "{name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_roundtrip_and_ls() {
        let dir = temp_dir("ckpt");
        let store = Store::open(&dir).unwrap();
        assert!(store.get_checkpoint("demo:cnn:8").is_none());
        store.put_checkpoint("demo:cnn:8", &[1, 2, 3, 4]).unwrap();
        assert_eq!(store.get_checkpoint("demo:cnn:8"), Some(vec![1, 2, 3, 4]));
        let entries = store.ls().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].file, ArtifactKey::checkpoint("demo:cnn:8").file_name());
        assert_eq!(entries[0].name, "demo:cnn:8");
        assert_eq!(entries[0].payload_bytes, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_flags_and_gc_removes_corruption() {
        let dir = temp_dir("gc");
        let store = Store::open(&dir).unwrap();
        store.put_checkpoint("a", &[3; 16]).unwrap();
        store.put_checkpoint("m", &[9; 64]).unwrap();
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
        // kind, never as a live checkpoint, and must not disturb the
        // checkpoints around them.
        let dir = temp_dir("retired");
        let store = Store::open(&dir).unwrap();
        store.put_checkpoint("demo:cnn:8", &[5; 32]).unwrap();
        let objects = dir.join("objects");
        let (qweights, bytes) = RETIRED_QWEIGHTS;
        std::fs::write(objects.join(qweights), unhex(bytes)).unwrap();
        let table = ArtifactKey::checkpoint("fp:e4m3");
        let mut lut = artifact::encode(&table, &[0; 8]);
        // The footer hashes only the payload, so patching the kind code
        // leaves an otherwise well-formed object.
        lut[8..12].copy_from_slice(&2u32.to_le_bytes());
        let lut_name = format!("lut-{:016x}.art", table.id());
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
        let names: Vec<String> = store.ls().unwrap().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["demo:cnn:8"]);

        let gc = store.gc().unwrap();
        assert_eq!((gc.removed_corrupt, gc.kept), (2, 1));
        assert!(!objects.join(qweights).exists());
        assert!(!objects.join(&lut_name).exists());
        assert!(store.verify().unwrap().is_clean());

        let reopened = Store::open(&dir).unwrap();
        assert_eq!(reopened.get_checkpoint("demo:cnn:8"), Some(vec![5; 32]));
        std::fs::remove_dir_all(&dir).ok();
    }
}
