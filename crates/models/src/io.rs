//! Weight serialisation so the CLI and the benchmark harnesses can train a
//! model once and reuse it.
//!
//! Format (`GERSWTS2`): magic, then per-parameter name + shape +
//! little-endian f32 payload, then an FNV-1a 64-bit hash of everything
//! after the magic. The hash footer turns silent corruption (truncated
//! copies, flipped bits on disk) into a load error instead of a
//! garbage-initialised model.
//!
//! Checkpoints live in the artifact store ([`save_params_to_store`],
//! [`load_params_from_store`]) over the byte-level codecs
//! ([`params_to_bytes`], [`params_from_bytes`]).

use formats::hash::fnv1a;
use nn::Module;
use std::io::{self, Read};
use std::sync::Arc;
use tensor::Tensor;

const MAGIC: &[u8; 8] = b"GERSWTS2";

/// Serialises all parameters of `model` into the `GERSWTS2` byte format,
/// FNV-1a footer included.
pub fn params_to_bytes(model: &dyn Module) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    let params = model.params();
    out.extend_from_slice(&(params.len() as u32).to_le_bytes());
    for p in params {
        let name = p.name();
        let name = name.as_bytes();
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name);
        let t = p.get();
        out.extend_from_slice(&(t.ndim() as u32).to_le_bytes());
        for &d in t.dims() {
            out.extend_from_slice(&(d as u32).to_le_bytes());
        }
        for &v in t.as_slice() {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
    let footer = fnv1a(&out[MAGIC.len()..]);
    out.extend_from_slice(&footer.to_le_bytes());
    out
}

/// Loads parameters serialised by [`params_to_bytes`] into `model`,
/// matching by parameter name. Every parameter is checked before any is
/// set, so an error leaves `model` untouched.
///
/// # Errors
///
/// Returns an error if the magic is unknown, the FNV-1a footer disagrees
/// with the body (truncation, bit rot), the structure is malformed, a
/// parameter is missing, or a shape disagrees.
pub fn params_from_bytes(model: &dyn Module, bytes: &[u8]) -> io::Result<()> {
    let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let Some(rest) = bytes.strip_prefix(MAGIC) else {
        return Err(bad("bad magic in weight data"));
    };
    if rest.len() < 8 {
        return Err(bad("weight data truncated before hash footer"));
    }
    let (body, footer) = rest.split_at(rest.len() - 8);
    if fnv1a(body) != u64::from_le_bytes(footer.try_into().unwrap()) {
        return Err(bad("weight data corrupt: content hash mismatch"));
    }

    let mut r = body;
    let count = read_u32(&mut r)? as usize;
    let mut loaded = std::collections::HashMap::new();
    for _ in 0..count {
        let name_len = read_u32(&mut r)? as usize;
        let mut name = vec![0u8; name_len];
        r.read_exact(&mut name).map_err(|_| bad("weight data truncated in name"))?;
        let name = String::from_utf8(name).map_err(|_| bad("non-utf8 parameter name"))?;
        let ndim = read_u32(&mut r)? as usize;
        let mut dims = Vec::with_capacity(ndim);
        for _ in 0..ndim {
            dims.push(read_u32(&mut r)? as usize);
        }
        let n: usize = dims.iter().product();
        let mut data = vec![0.0f32; n];
        let mut buf = [0u8; 4];
        for v in &mut data {
            r.read_exact(&mut buf).map_err(|_| bad("weight data truncated in payload"))?;
            *v = f32::from_le_bytes(buf);
        }
        loaded.insert(name, Tensor::from_vec(data, dims));
    }
    let mut missing = Vec::new();
    model.visit_params(&mut |p| match loaded.get(p.name()) {
        Some(t) if t.shape() == p.get().shape() => {}
        Some(_) => missing.push(format!("{} (shape mismatch)", p.name())),
        None => missing.push(p.name().to_string()),
    });
    if !missing.is_empty() {
        return Err(bad(&format!("parameters not found/compatible in weight data: {missing:?}")));
    }
    model.visit_params(&mut |p| p.set(loaded[p.name()].clone()));
    Ok(())
}

/// Stores `model`'s parameters in the artifact store as the checkpoint
/// named `name`. A failed write leaves the checkpoint uncached, so the
/// next run trains again; it never fails the caller.
pub fn save_params_to_store(model: &dyn Module, store: &Arc<store::Store>, name: &str) {
    let _ = store.put_checkpoint(name, &params_to_bytes(model));
}

/// Loads the checkpoint named `name` from the store into `model`. Returns
/// `Ok(false)` when the store has no such checkpoint (a cache miss, not an
/// error).
///
/// # Errors
///
/// Returns an error if a stored checkpoint exists but is corrupt or does
/// not fit the model.
pub fn load_params_from_store(
    model: &dyn Module,
    store: &Arc<store::Store>,
    name: &str,
) -> io::Result<bool> {
    match store.get_checkpoint(name) {
        Some(bytes) => params_from_bytes(model, &bytes).map(|()| true),
        None => Ok(false),
    }
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "weight data truncated"))?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resnet::{ResNet, ResNetConfig};
    use nn::Module;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A store in a fresh temp directory, removed when dropped.
    struct TempStore(Arc<store::Store>, std::path::PathBuf);

    impl TempStore {
        fn new(tag: &str) -> TempStore {
            let dir = std::env::temp_dir().join(format!("goldeneye_models_io_{tag}_test"));
            let _ = std::fs::remove_dir_all(&dir);
            TempStore(Arc::new(store::Store::open(&dir).unwrap()), dir)
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.1);
        }
    }

    #[test]
    fn save_load_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = ResNet::new(ResNetConfig::tiny(3), &mut rng);
        let mut rng2 = StdRng::seed_from_u64(999);
        let b = ResNet::new(ResNetConfig::tiny(3), &mut rng2);
        // Different init → different params; after load they must match.
        params_from_bytes(&b, &params_to_bytes(&a)).unwrap();
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.get(), pb.get(), "param {} differs", pa.name());
        }
    }

    #[test]
    fn save_load_preserves_batchnorm_running_stats() {
        // Regression test: running statistics are not trainable, but they
        // are model state — losing them on save/load silently destroys
        // inference accuracy for CNNs.
        use crate::data::SyntheticDataset;
        use crate::trainer::{evaluate, train, TrainConfig};
        let mut rng = StdRng::seed_from_u64(2);
        let a = ResNet::new(ResNetConfig::tiny(4), &mut rng);
        let data = SyntheticDataset::generate(64, 16, 4, 3);
        train(
            &a,
            &data,
            &TrainConfig { epochs: 6, batch_size: 16, lr: 3e-3, ..Default::default() },
        );
        let acc_before = evaluate(&a, &data, 32, 16);
        let tmp = TempStore::new("batchnorm");
        let store = &tmp.0;
        save_params_to_store(&a, store, "ck");
        let mut rng2 = StdRng::seed_from_u64(555);
        let b = ResNet::new(ResNetConfig::tiny(4), &mut rng2);
        assert!(load_params_from_store(&b, store, "ck").unwrap());
        let acc_after = evaluate(&b, &data, 32, 16);
        assert_eq!(acc_before, acc_after, "reload changed accuracy");
    }

    #[test]
    fn load_into_wrong_architecture_errors() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = ResNet::new(ResNetConfig::tiny(3), &mut rng);
        let tmp = TempStore::new("wrong_arch");
        let store = &tmp.0;
        save_params_to_store(&a, store, "ck");
        let b = ResNet::new(ResNetConfig::resnet18(4, 3), &mut rng);
        assert!(load_params_from_store(&b, store, "ck").is_err());
    }

    #[test]
    fn failed_load_leaves_every_parameter_unchanged() {
        // `tiny(3)` and `tiny(4)` share most parameter names and shapes
        // but differ in the classifier: the load must fail before it sets
        // any of the ones that would fit.
        let mut rng = StdRng::seed_from_u64(1);
        let a = ResNet::new(ResNetConfig::tiny(3), &mut rng);
        let b = ResNet::new(ResNetConfig::tiny(4), &mut rng);
        let before: Vec<Tensor> = b.params().iter().map(|p| p.get()).collect();
        assert_eq!(before.len(), 32);
        assert!(params_from_bytes(&b, &params_to_bytes(&a)).is_err());
        for (p, was) in b.params().iter().zip(&before) {
            assert_eq!(&p.get(), was, "failed load changed {}", p.name());
        }
    }

    #[test]
    fn corrupt_weight_files_error_instead_of_garbage_loading() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = ResNet::new(ResNetConfig::tiny(3), &mut rng);
        let good = params_to_bytes(&a);
        let fresh = || {
            let mut r = StdRng::seed_from_u64(8);
            ResNet::new(ResNetConfig::tiny(3), &mut r)
        };
        assert!(params_from_bytes(&fresh(), &good).is_ok(), "pristine bytes must load");

        // Truncation anywhere after the magic must error.
        for cut in [good.len() - 1, good.len() - 9, good.len() / 2, 10] {
            let err = params_from_bytes(&fresh(), &good[..cut])
                .expect_err("truncated weight data must not load");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "cut at {cut}");
        }

        // A single flipped payload bit must be caught by the hash footer.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let err = params_from_bytes(&fresh(), &flipped)
            .expect_err("bit-flipped weight data must not load");
        assert!(err.to_string().contains("hash mismatch"), "got: {err}");

        // A `GERSWTS1` magic (the footer-less layout) is rejected.
        let mut v1 = good[..good.len() - 8].to_vec();
        v1[7] = b'1';
        assert!(params_from_bytes(&fresh(), &v1).is_err());

        // A flipped footer bit likewise.
        let mut bad_footer = good.clone();
        let n = bad_footer.len();
        bad_footer[n - 3] ^= 0x01;
        assert!(params_from_bytes(&fresh(), &bad_footer).is_err());
    }

    #[test]
    fn store_checkpoint_roundtrip() {
        let tmp = TempStore::new("roundtrip");
        let store = &tmp.0;
        let mut rng = StdRng::seed_from_u64(11);
        let a = ResNet::new(ResNetConfig::tiny(3), &mut rng);
        assert!(!load_params_from_store(&a, store, "ck").unwrap(), "empty store misses");
        save_params_to_store(&a, store, "ck");
        let mut rng2 = StdRng::seed_from_u64(12);
        let b = ResNet::new(ResNetConfig::tiny(3), &mut rng2);
        assert!(load_params_from_store(&b, store, "ck").unwrap());
        for (pa, pb) in a.params().iter().zip(b.params()) {
            assert_eq!(pa.get(), pb.get(), "param {} differs", pa.name());
        }
    }
}
