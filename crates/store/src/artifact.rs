//! The on-disk artifact format: a fixed header, the cache key, a
//! 64-byte-aligned raw payload, and an FNV-1a footer over the payload.
//!
//! The layout is designed to be mmap-able by readers that want zero-copy
//! access: every header field is fixed-width little-endian, and the
//! payload starts on a 64-byte boundary so an aligned view over the
//! mapped file is valid.
//! This crate itself reads through buffered I/O — `std` has no mmap — but
//! the layout keeps that door open without a format change.

use formats::hash::{fnv1a, fnv1a_update, FNV_OFFSET};
use std::io;

/// File magic: "GoldenEye ARTifact", layout version 1.
pub const MAGIC: &[u8; 8] = b"GEART001";

/// Offset the payload starts at is rounded up to this alignment.
pub const PAYLOAD_ALIGN: usize = 64;

/// What an artifact caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A serialized model checkpoint, keyed by its logical name.
    Checkpoint,
}

impl ArtifactKind {
    /// Stable wire code.
    ///
    /// Codes 1 (quantised weights) and 2 (dequantise tables) belonged to
    /// retired kinds and are never reused: an old `qweights-*.art` or
    /// `lut-*.art` object must keep decoding as an unknown kind, which
    /// `verify` reports and `gc` sweeps, rather than be read as some other
    /// artifact.
    pub fn code(self) -> u32 {
        match self {
            ArtifactKind::Checkpoint => 3,
        }
    }

    /// Inverse of [`ArtifactKind::code`].
    pub fn from_code(code: u32) -> Option<ArtifactKind> {
        match code {
            3 => Some(ArtifactKind::Checkpoint),
            _ => None,
        }
    }

    /// Short name, used as the object-file prefix (`ckpt-….art`).
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::Checkpoint => "ckpt",
        }
    }
}

/// The cache key: artifact kind, a content hash, and the logical
/// checkpoint name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactKey {
    /// What the artifact caches.
    pub kind: ArtifactKind,
    /// Content hash component; 0 for checkpoints, the only live kind.
    pub content: u64,
    /// The logical checkpoint name.
    pub spec: String,
}

impl ArtifactKey {
    /// Key for the checkpoint named `name`.
    pub fn checkpoint(name: &str) -> ArtifactKey {
        ArtifactKey { kind: ArtifactKind::Checkpoint, content: 0, spec: name.to_string() }
    }

    /// The 64-bit id the memory layer and object file names use: FNV-1a
    /// over kind, content hash, and spec (with separators, so no two
    /// different `(content, spec)` pairs serialize to the same byte
    /// stream).
    pub fn id(&self) -> u64 {
        let mut h = fnv1a_update(FNV_OFFSET, &self.kind.code().to_le_bytes());
        h = fnv1a_update(h, &self.content.to_le_bytes());
        h = fnv1a_update(h, &(self.spec.len() as u64).to_le_bytes());
        fnv1a_update(h, self.spec.as_bytes())
    }

    /// Object file name for this key: `<kind>-<16-hex id>.art`.
    pub fn file_name(&self) -> String {
        format!("{}-{:016x}.art", self.kind.as_str(), self.id())
    }
}

/// One stored artifact: key, dimensions (empty for raw blobs), and the
/// payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The cache key.
    pub key: ArtifactKey,
    /// Dimensions field of the layout (empty for checkpoints).
    pub dims: Vec<usize>,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

fn bad(reason: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.into())
}

impl Artifact {
    /// Serializes the artifact into the on-disk layout.
    pub fn encode(&self) -> Vec<u8> {
        let spec = self.key.spec.as_bytes();
        let header_len = 8 + 4 + 4 + 8 + 4 + 4 + 8 + 8 * self.dims.len() + spec.len();
        let payload_off = header_len.div_ceil(PAYLOAD_ALIGN) * PAYLOAD_ALIGN;
        let mut out = Vec::with_capacity(payload_off + self.payload.len() + 8);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&self.key.kind.code().to_le_bytes());
        out.extend_from_slice(&(spec.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.key.content.to_le_bytes());
        out.extend_from_slice(&(self.dims.len() as u32).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        for &d in &self.dims {
            out.extend_from_slice(&(d as u64).to_le_bytes());
        }
        out.extend_from_slice(spec);
        out.resize(payload_off, 0);
        out.extend_from_slice(&self.payload);
        out.extend_from_slice(&fnv1a(&self.payload).to_le_bytes());
        out
    }

    /// Decodes and fully validates an encoded artifact (magic, field
    /// bounds, payload footer).
    ///
    /// # Errors
    ///
    /// Returns `InvalidData` on any malformation — truncation, a flipped
    /// payload bit, a bad magic — never a partially decoded artifact.
    pub fn decode(bytes: &[u8]) -> io::Result<Artifact> {
        let take = |off: usize, len: usize| -> io::Result<&[u8]> {
            bytes.get(off..off + len).ok_or_else(|| bad("truncated artifact header"))
        };
        let u32_at = |off: usize| -> io::Result<u32> {
            Ok(u32::from_le_bytes(take(off, 4)?.try_into().unwrap()))
        };
        let u64_at = |off: usize| -> io::Result<u64> {
            Ok(u64::from_le_bytes(take(off, 8)?.try_into().unwrap()))
        };
        if take(0, 8)? != MAGIC {
            return Err(bad("bad artifact magic"));
        }
        let kind =
            ArtifactKind::from_code(u32_at(8)?).ok_or_else(|| bad("unknown artifact kind"))?;
        let spec_len = u32_at(12)? as usize;
        let content = u64_at(16)?;
        let ndim = u32_at(24)? as usize;
        let payload_len = u64_at(32)? as usize;
        if spec_len > bytes.len() || ndim > bytes.len() {
            return Err(bad("artifact header out of bounds"));
        }
        let mut off = 40;
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            dims.push(u64_at(off)? as usize);
            off += 8;
        }
        let spec = String::from_utf8(take(off, spec_len)?.to_vec())
            .map_err(|_| bad("non-utf8 artifact spec"))?;
        off += spec_len;
        let payload_off = off.div_ceil(PAYLOAD_ALIGN) * PAYLOAD_ALIGN;
        let payload = take(payload_off, payload_len)?.to_vec();
        let footer = u64::from_le_bytes(take(payload_off + payload_len, 8)?.try_into().unwrap());
        if footer != fnv1a(&payload) {
            return Err(bad("artifact payload hash mismatch"));
        }
        Ok(Artifact { key: ArtifactKey { kind, content, spec }, dims, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_roundtrip() {
        let payload: Vec<u8> =
            [1.0f32, 2.5, -3.0, 0.0, -0.0, f32::NAN].iter().flat_map(|v| v.to_le_bytes()).collect();
        let a = Artifact {
            key: ArtifactKey {
                kind: ArtifactKind::Checkpoint,
                content: 0xdead_beef,
                spec: "m".into(),
            },
            dims: vec![2, 3],
            payload,
        };
        let bytes = a.encode();
        let b = Artifact::decode(&bytes).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.dims, b.dims);
        assert_eq!(a.payload, b.payload, "NaN and -0.0 bit patterns must survive");
        // Payload is 64-byte aligned in the encoding.
        let header_len = 8 + 4 + 4 + 8 + 4 + 4 + 8 + 16 + "m".len();
        let off = header_len.div_ceil(PAYLOAD_ALIGN) * PAYLOAD_ALIGN;
        assert_eq!(&bytes[off..off + a.payload.len()], &a.payload[..]);
    }

    #[test]
    fn decode_rejects_corruption() {
        let a = Artifact {
            key: ArtifactKey::checkpoint("model"),
            dims: vec![],
            payload: vec![7u8; 100],
        };
        let good = a.encode();
        assert!(Artifact::decode(&good).is_ok());
        // Truncation anywhere fails.
        for cut in [0, 4, 20, good.len() - 1] {
            assert!(Artifact::decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        // A single flipped payload bit fails the footer.
        let mut flipped = good.clone();
        let payload_off = flipped.len() - 8 - 100;
        flipped[payload_off + 50] ^= 0x10;
        assert!(Artifact::decode(&flipped).is_err());
        // Bad magic fails.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(Artifact::decode(&bad_magic).is_err());
    }

    #[test]
    fn checkpoint_layout_is_pinned() {
        // Stored checkpoints outlive the code that wrote them: the file
        // name and the encoded bytes must never drift, or every store on
        // disk stops loading. The literals were written by the store as
        // it stood when quantised weights were still a live kind.
        let key = ArtifactKey::checkpoint("demo:cnn:8");
        assert_eq!(key.file_name(), "ckpt-1c8dca2b02a736d6.art");
        let a = Artifact { key, dims: vec![], payload: vec![1, 2, 3, 4, 5] };
        let hex: String = a.encode().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4745415254303031030000000a000000000000000000000000000000000000000500000000000000\
             64656d6f3a636e6e3a3800000000000000000000000000000102030405887d6b4fbfdc660f"
        );
        assert_eq!(Artifact::decode(&a.encode()).unwrap(), a);
    }
}
