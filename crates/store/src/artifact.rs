//! The on-disk artifact format: a fixed header, the cache key, a
//! 64-byte-aligned raw payload, and an FNV-1a footer over the payload.
//!
//! The layout is designed to be mmap-able by readers that want zero-copy
//! access: every header field is fixed-width little-endian, and the
//! payload (raw `f32` bit patterns for tensors) starts on a
//! 64-byte boundary so an aligned view over the mapped file is valid.
//! This crate itself reads through buffered I/O — `std` has no mmap — but
//! the layout keeps that door open without a format change.

use formats::hash::{fnv1a, fnv1a_update, FNV_OFFSET};
use formats::{Metadata, Quantized};
use std::io;
use tensor::Tensor;

/// File magic: "GoldenEye ARTifact", layout version 1.
pub const MAGIC: &[u8; 8] = b"GEART001";

/// Offset the payload starts at is rounded up to this alignment.
pub const PAYLOAD_ALIGN: usize = 64;

/// What an artifact caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ArtifactKind {
    /// A weight tensor round-tripped through a number format (values +
    /// hardware metadata), keyed by `(input tensor hash × canonical spec)`.
    QWeights,
    /// A serialized model checkpoint, keyed by its logical name.
    Checkpoint,
}

impl ArtifactKind {
    /// Stable wire code.
    ///
    /// Code 2 belonged to the retired dequantise-table kind and is never
    /// reused: an old `lut-*.art` object must keep decoding as an unknown
    /// kind, which `verify` reports and `gc` sweeps, rather than be read
    /// as some other artifact.
    pub fn code(self) -> u32 {
        match self {
            ArtifactKind::QWeights => 1,
            ArtifactKind::Checkpoint => 3,
        }
    }

    /// Inverse of [`ArtifactKind::code`].
    pub fn from_code(code: u32) -> Option<ArtifactKind> {
        match code {
            1 => Some(ArtifactKind::QWeights),
            3 => Some(ArtifactKind::Checkpoint),
            _ => None,
        }
    }

    /// Short name, used as the object-file prefix (`qweights-….art`).
    pub fn as_str(self) -> &'static str {
        match self {
            ArtifactKind::QWeights => "qweights",
            ArtifactKind::Checkpoint => "ckpt",
        }
    }
}

/// The content-addressed cache key: artifact kind, FNV-1a hash of the
/// source content, and the canonical format-spec string (or logical
/// checkpoint name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactKey {
    /// What the artifact caches.
    pub kind: ArtifactKind,
    /// FNV-1a hash of the source content (the input weight tensor for
    /// quantisations; 0 for checkpoints).
    pub content: u64,
    /// Canonical format-spec string ([`formats::NumberFormat::canonical_spec`])
    /// for quantisations; the logical name for checkpoints.
    pub spec: String,
}

impl ArtifactKey {
    /// Key for `weights` quantised under `format`.
    pub fn quantized(weights: &Tensor, format: &dyn formats::NumberFormat) -> ArtifactKey {
        ArtifactKey {
            kind: ArtifactKind::QWeights,
            content: formats::hash::tensor_hash(weights),
            spec: format.canonical_spec(),
        }
    }

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

/// One stored artifact: key, tensor dimensions (empty for raw blobs), and
/// the payload bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Artifact {
    /// The cache key.
    pub key: ArtifactKey,
    /// Dimensions of the cached tensor (empty for checkpoints).
    pub dims: Vec<usize>,
    /// Raw payload bytes (little-endian `f32`s for tensor artifacts).
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

/// Encodes an `f32` slice as little-endian payload bytes.
pub fn encode_f32s(values: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(values.len() * 4);
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes a little-endian `f32` payload.
///
/// # Errors
///
/// Returns `InvalidData` if the byte count is not a multiple of 4.
pub fn decode_f32s(bytes: &[u8]) -> io::Result<Vec<f32>> {
    if !bytes.len().is_multiple_of(4) {
        return Err(bad("f32 payload length not a multiple of 4"));
    }
    Ok(bytes.chunks_exact(4).map(|c| f32::from_le_bytes(c.try_into().unwrap())).collect())
}

// Metadata wire tags.
const META_NONE: u8 = 0;
const META_SCALE: u8 = 1;
const META_SHARED: u8 = 2;
const META_BIAS: u8 = 3;

/// Serializes a quantised tensor — values then hardware metadata — into
/// `(dims, payload)` for a [`ArtifactKind::QWeights`] artifact.
pub fn encode_quantized(q: &Quantized) -> (Vec<usize>, Vec<u8>) {
    let mut payload = encode_f32s(q.values.as_slice());
    match &q.meta {
        Metadata::None => payload.push(META_NONE),
        Metadata::Scale(s) => {
            payload.push(META_SCALE);
            payload.extend_from_slice(&s.to_le_bytes());
        }
        Metadata::SharedExponents { codes, block_size, exp_bits } => {
            payload.push(META_SHARED);
            payload.extend_from_slice(&(codes.len() as u64).to_le_bytes());
            payload.extend_from_slice(&(*block_size as u64).to_le_bytes());
            payload.extend_from_slice(&exp_bits.to_le_bytes());
            for c in codes {
                payload.extend_from_slice(&c.to_le_bytes());
            }
        }
        Metadata::ExpBias { bias, bias_bits } => {
            payload.push(META_BIAS);
            payload.extend_from_slice(&bias.to_le_bytes());
            payload.extend_from_slice(&bias_bits.to_le_bytes());
        }
    }
    (q.values.dims().to_vec(), payload)
}

/// Inverse of [`encode_quantized`]. Values come back with bit-identical
/// `f32` patterns, so a cached quantisation is indistinguishable from a
/// fresh one.
///
/// # Errors
///
/// Returns `InvalidData` on any malformation.
pub fn decode_quantized(dims: &[usize], payload: &[u8]) -> io::Result<Quantized> {
    let n: usize = dims.iter().product();
    let values_len = n * 4;
    if payload.len() < values_len + 1 {
        return Err(bad("quantized payload too short"));
    }
    let values = decode_f32s(&payload[..values_len])?;
    let rest = &payload[values_len..];
    let take = |off: usize, len: usize| -> io::Result<&[u8]> {
        rest.get(off..off + len).ok_or_else(|| bad("truncated quantized metadata"))
    };
    let meta = match rest[0] {
        META_NONE => {
            if rest.len() != 1 {
                return Err(bad("trailing bytes after Metadata::None"));
            }
            Metadata::None
        }
        META_SCALE => Metadata::Scale(f32::from_le_bytes(take(1, 4)?.try_into().unwrap())),
        META_SHARED => {
            let ncodes = u64::from_le_bytes(take(1, 8)?.try_into().unwrap()) as usize;
            let block_size = u64::from_le_bytes(take(9, 8)?.try_into().unwrap()) as usize;
            let exp_bits = u32::from_le_bytes(take(17, 4)?.try_into().unwrap());
            if ncodes > rest.len() {
                return Err(bad("shared-exponent count out of bounds"));
            }
            let mut codes = Vec::with_capacity(ncodes);
            for i in 0..ncodes {
                codes.push(u32::from_le_bytes(take(21 + 4 * i, 4)?.try_into().unwrap()));
            }
            Metadata::SharedExponents { codes, block_size, exp_bits }
        }
        META_BIAS => Metadata::ExpBias {
            bias: i32::from_le_bytes(take(1, 4)?.try_into().unwrap()),
            bias_bits: u32::from_le_bytes(take(5, 4)?.try_into().unwrap()),
        },
        other => return Err(bad(format!("unknown metadata tag {other}"))),
    };
    Ok(Quantized { values: Tensor::from_vec(values, dims.to_vec()), meta })
}

#[cfg(test)]
mod tests {
    use super::*;
    use formats::NumberFormat;

    #[test]
    fn artifact_roundtrip() {
        let a = Artifact {
            key: ArtifactKey {
                kind: ArtifactKind::QWeights,
                content: 0xdead_beef,
                spec: "fp:e4m3".into(),
            },
            dims: vec![2, 3],
            payload: encode_f32s(&[1.0, 2.5, -3.0, 0.0, -0.0, f32::NAN]),
        };
        let bytes = a.encode();
        let b = Artifact::decode(&bytes).unwrap();
        assert_eq!(a.key, b.key);
        assert_eq!(a.dims, b.dims);
        assert_eq!(a.payload, b.payload, "NaN and -0.0 bit patterns must survive");
        // Payload is 64-byte aligned in the encoding.
        let header_len = 8 + 4 + 4 + 8 + 4 + 4 + 8 + 16 + "fp:e4m3".len();
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
    fn quantized_roundtrip_all_metadata_kinds() {
        let x = Tensor::from_vec((0..64).map(|i| (i as f32 - 31.5) / 7.0).collect(), [4, 16]);
        for spec in ["fp:e4m3", "int:8", "bfp:e5m5:b16", "afp:e3m4", "posit:8:0"] {
            let format = spec.parse::<formats::FormatSpec>().unwrap().build();
            let q = format.real_to_format_tensor(&x);
            let (dims, payload) = encode_quantized(&q);
            let back = decode_quantized(&dims, &payload).unwrap();
            assert_eq!(q, back, "{spec}");
        }
    }

    #[test]
    fn key_ids_are_distinct_across_kinds_and_specs() {
        let t = Tensor::from_vec(vec![1.0, 2.0], [2]);
        let fp: Box<dyn NumberFormat> = "fp:e4m3".parse::<formats::FormatSpec>().unwrap().build();
        let q = ArtifactKey::quantized(&t, fp.as_ref());
        let c = ArtifactKey::checkpoint("fp:e4m3");
        let c0 = ArtifactKey { content: 0, ..q.clone() };
        assert_ne!(q.id(), c.id());
        assert_ne!(c0.id(), c.id());
        assert_eq!(c0.spec, c.spec, "same spec string, different kind → different id");
    }
}
