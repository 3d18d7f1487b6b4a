//! The on-disk object format: a fixed header, the checkpoint name, a
//! 64-byte-aligned raw payload, and an FNV-1a footer over the payload.
//!
//! Every header field is fixed-width little-endian and the payload starts
//! on a 64-byte boundary, so a reader that maps the file can view the
//! payload in place. The header still carries the `content` and `dims`
//! fields of the layout's multi-kind days: a checkpoint writes them as 0,
//! and a checkpoint header that says otherwise does not decode.

use formats::hash::{fnv1a, fnv1a_update, FNV_OFFSET};
use std::io;
use std::ops::Range;

/// File magic: "GoldenEye ARTifact", layout version 1.
const MAGIC: &[u8; 8] = b"GEART001";

/// Offset the payload starts at is rounded up to this alignment.
const PAYLOAD_ALIGN: usize = 64;

/// Magic, kind, name length, content hash, ndim, reserved, payload length.
const HEADER_LEN: usize = 8 + 4 + 4 + 8 + 4 + 4 + 8;

/// Wire code of a checkpoint object.
///
/// Codes 1 (quantised weights) and 2 (dequantise tables) belonged to
/// retired kinds and are never reused: an old `qweights-*.art` or
/// `lut-*.art` object must keep decoding as an unknown kind, which
/// `verify` reports and `gc` sweeps, rather than be read as some other
/// artifact.
const CHECKPOINT_CODE: u32 = 3;

/// Object-file prefix of a checkpoint (`ckpt-….art`).
const CHECKPOINT_PREFIX: &str = "ckpt";

/// The key of a stored checkpoint: its logical name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArtifactKey {
    /// The checkpoint name.
    pub name: String,
}

impl ArtifactKey {
    /// Key for the checkpoint named `name`.
    pub fn checkpoint(name: &str) -> ArtifactKey {
        ArtifactKey { name: name.to_string() }
    }

    /// The 64-bit id object file names use: FNV-1a over the kind code,
    /// the (zero) content hash and the name, with a length separator.
    pub(crate) fn id(&self) -> u64 {
        let mut h = fnv1a_update(FNV_OFFSET, &CHECKPOINT_CODE.to_le_bytes());
        h = fnv1a_update(h, &0u64.to_le_bytes());
        h = fnv1a_update(h, &(self.name.len() as u64).to_le_bytes());
        fnv1a_update(h, self.name.as_bytes())
    }

    /// Object file name for this key: `ckpt-<16-hex id>.art`.
    pub fn file_name(&self) -> String {
        format!("{CHECKPOINT_PREFIX}-{:016x}.art", self.id())
    }
}

fn bad(reason: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, reason.to_string())
}

/// Serializes the checkpoint `payload` under `key` into the on-disk
/// layout.
pub(crate) fn encode(key: &ArtifactKey, payload: &[u8]) -> Vec<u8> {
    let name = key.name.as_bytes();
    let payload_off = (HEADER_LEN + name.len()).div_ceil(PAYLOAD_ALIGN) * PAYLOAD_ALIGN;
    let mut out = Vec::with_capacity(payload_off + payload.len() + 8);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&CHECKPOINT_CODE.to_le_bytes());
    out.extend_from_slice(&(name.len() as u32).to_le_bytes());
    out.extend_from_slice(&[0; 16]); // content hash, ndim, reserved
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(name);
    out.resize(payload_off, 0);
    out.extend_from_slice(payload);
    out.extend_from_slice(&fnv1a(payload).to_le_bytes());
    out
}

/// Decodes and fully validates an encoded checkpoint (magic, kind, field
/// bounds, payload footer) and returns its key and the byte range of its
/// payload within `bytes`.
///
/// # Errors
///
/// Returns `InvalidData` on any malformation — truncation, an
/// out-of-range length, a flipped payload bit, a bad magic, a retired
/// kind — never a partially decoded checkpoint.
pub(crate) fn decode(bytes: &[u8]) -> io::Result<(ArtifactKey, Range<usize>)> {
    let take = |off: usize, len: usize| -> io::Result<&[u8]> {
        off.checked_add(len)
            .and_then(|end| bytes.get(off..end))
            .ok_or_else(|| bad("truncated artifact"))
    };
    let u32_at = |off| take(off, 4).map(|b| u32::from_le_bytes(b.try_into().unwrap()));
    let u64_at = |off| take(off, 8).map(|b| u64::from_le_bytes(b.try_into().unwrap()));
    if take(0, 8)? != MAGIC {
        return Err(bad("bad artifact magic"));
    }
    if u32_at(8)? != CHECKPOINT_CODE {
        return Err(bad("unknown artifact kind"));
    }
    if u64_at(16)? != 0 || u32_at(24)? != 0 {
        return Err(bad("checkpoint header carries a content hash or dims"));
    }
    let name_len = u32_at(12)? as usize;
    let payload_len =
        usize::try_from(u64_at(32)?).map_err(|_| bad("artifact payload length out of range"))?;
    let name = std::str::from_utf8(take(HEADER_LEN, name_len)?)
        .map_err(|_| bad("non-utf8 checkpoint name"))?;
    // In bounds (checked by `take` just above), so the sums cannot overflow.
    let payload_off = (HEADER_LEN + name_len).div_ceil(PAYLOAD_ALIGN) * PAYLOAD_ALIGN;
    let payload = take(payload_off, payload_len)?;
    if u64_at(payload_off + payload_len)? != fnv1a(payload) {
        return Err(bad("artifact payload hash mismatch"));
    }
    Ok((ArtifactKey::checkpoint(name), payload_off..payload_off + payload_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifact_roundtrip() {
        let payload: Vec<u8> =
            [1.0f32, 2.5, -3.0, 0.0, -0.0, f32::NAN].iter().flat_map(|v| v.to_le_bytes()).collect();
        let key = ArtifactKey::checkpoint("m");
        let bytes = encode(&key, &payload);
        let (k, p) = decode(&bytes).unwrap();
        assert_eq!(k, key);
        assert_eq!(&bytes[p], &payload[..], "NaN and -0.0 bit patterns must survive");
        // Payload is 64-byte aligned in the encoding.
        let off = (HEADER_LEN + "m".len()).div_ceil(PAYLOAD_ALIGN) * PAYLOAD_ALIGN;
        assert_eq!(off, 64);
        assert_eq!(&bytes[off..off + payload.len()], &payload[..]);
    }

    #[test]
    fn decode_rejects_corruption() {
        let good = encode(&ArtifactKey::checkpoint("model"), &[7u8; 100]);
        assert!(decode(&good).is_ok());
        // A single flipped payload bit fails the footer.
        let mut flipped = good.clone();
        let payload_off = flipped.len() - 8 - 100;
        flipped[payload_off + 50] ^= 0x10;
        assert!(decode(&flipped).is_err());
        // Bad magic fails.
        let mut bad_magic = good.clone();
        bad_magic[0] ^= 0xff;
        assert!(decode(&bad_magic).is_err());
        // A checkpoint header with a content hash or dims fails.
        for field in [16, 24] {
            let mut patched = good.clone();
            patched[field] = 1;
            assert!(decode(&patched).is_err(), "field at {field}");
        }
    }

    #[test]
    fn malformed_headers_and_truncations_are_errors() {
        // Lengths come from the file: none may panic, however large, and
        // no prefix of a valid object may decode.
        let good = encode(&ArtifactKey::checkpoint("demo:cnn:8"), &[9u8; 70]);
        for cut in 0..good.len() {
            assert!(decode(&good[..cut]).is_err(), "cut at {cut}");
        }
        for (off, huge) in [
            (12, u32::MAX as u64), // name length
            (24, u32::MAX as u64), // ndim
            (32, u64::MAX),        // payload length
            (32, u64::MAX - 63),   // payload end one past `u64::MAX`
        ] {
            let mut patched = good.clone();
            let width = if off == 32 { 8 } else { 4 };
            patched[off..off + width].copy_from_slice(&huge.to_le_bytes()[..width]);
            assert!(decode(&patched).is_err(), "field at {off} = {huge:#x}");
        }
    }

    #[test]
    fn checkpoint_layout_is_pinned() {
        // Stored checkpoints outlive the code that wrote them: the file
        // name and the encoded bytes must never drift, or every store on
        // disk stops loading. The literals were written by the store as
        // it stood when quantised weights were still a live kind.
        let key = ArtifactKey::checkpoint("demo:cnn:8");
        assert_eq!(key.file_name(), "ckpt-1c8dca2b02a736d6.art");
        let payload = [1, 2, 3, 4, 5];
        let bytes = encode(&key, &payload);
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "4745415254303031030000000a000000000000000000000000000000000000000500000000000000\
             64656d6f3a636e6e3a3800000000000000000000000000000102030405887d6b4fbfdc660f"
        );
        let (k, p) = decode(&bytes).unwrap();
        assert_eq!((k, &bytes[p]), (key, &payload[..]));
    }
}
