//! The evaluation models and their trained checkpoints.
//!
//! The models are the paper benchmarks' ResNet-18 (width 8) and DeiT-tiny
//! (32×32 inputs, 10 classes), built from the same seed and trained with
//! the same [`TrainConfig`] on the same synthetic split as the figure
//! binaries. Training takes minutes, so the trained weights are kept as
//! checkpoints in the library's artifact [`Store`], named by a hash of
//! everything that determines them. The store publishes atomically and
//! validates every read, and [`models::load_params_from_store`] verifies
//! the weights' own content-hash footer and shapes: a corrupt, foreign or
//! stale checkpoint is retrained, never used.

use models::{DeitConfig, ResNet, ResNetConfig, SyntheticDataset, TrainConfig, VisionTransformer};
use nn::Module;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::io;
use std::sync::Arc;
use store::Store;

/// Image side length of every input.
pub const IMG_SIZE: usize = 32;
/// Classes of the synthetic task.
pub const NUM_CLASSES: usize = 10;
/// Training-set size and seed.
const TRAIN_N: usize = 512;
const TRAIN_SEED: u64 = 2022;
/// Seed of the random initialisation every model starts from.
const BUILD_SEED: u64 = 0xC0FFEE;

/// A network architecture.
#[derive(Debug, Clone)]
pub enum Arch {
    /// A residual CNN.
    ResNet(ResNetConfig),
    /// A vision transformer.
    Deit(DeitConfig),
}

/// A model: its architecture and how it is trained.
#[derive(Debug, Clone)]
pub struct Net {
    /// Stable name, used in checkpoint names.
    pub name: &'static str,
    /// The architecture.
    pub arch: Arch,
    /// Training hyperparameters.
    pub train: TrainConfig,
}

impl Net {
    /// ResNet-18 at base width 8.
    pub fn resnet18() -> Net {
        Net {
            name: "resnet18",
            arch: Arch::ResNet(ResNetConfig::resnet18(8, NUM_CLASSES)),
            train: TrainConfig { epochs: 10, batch_size: 32, lr: 2e-3, ..Default::default() },
        }
    }

    /// DeiT-tiny on 32×32 inputs.
    pub fn deit_tiny() -> Net {
        Net {
            name: "deit_tiny",
            arch: Arch::Deit(DeitConfig::deit_tiny(IMG_SIZE, NUM_CLASSES)),
            train: TrainConfig { epochs: 14, batch_size: 32, lr: 1e-3, ..Default::default() },
        }
    }

    /// The model with its seeded random initialisation.
    pub fn build(&self) -> Box<dyn Module> {
        let mut rng = StdRng::seed_from_u64(BUILD_SEED);
        match &self.arch {
            Arch::ResNet(c) => Box::new(ResNet::new(c.clone(), &mut rng)),
            Arch::Deit(c) => Box::new(VisionTransformer::new(c.clone(), &mut rng)),
        }
    }

    /// The checkpoint's name in the store. It hashes the architecture, the
    /// training hyperparameters, the training data and the initialisation
    /// seed, so changing any of them misses the cache.
    pub fn checkpoint_name(&self) -> String {
        let t = &self.train;
        let identity = format!(
            "{:?}|epochs={} batch={} lr={} seed={}|train_n={TRAIN_N} img={IMG_SIZE} \
             classes={NUM_CLASSES} data_seed={TRAIN_SEED}|init={BUILD_SEED}",
            self.arch, t.epochs, t.batch_size, t.lr, t.seed
        );
        format!("goldeneye_bench:{}:{:016x}", self.name, formats::hash::fnv1a(identity.as_bytes()))
    }
}

/// Builds `net` and loads its checkpoint from `store`.
///
/// # Errors
///
/// Returns `NotFound` when the store holds no valid checkpoint for `net`
/// (none, or a corrupt one), and the load error when the stored one does
/// not fit the model.
pub fn load(net: &Net, store: &Arc<Store>) -> io::Result<Box<dyn Module>> {
    let model = net.build();
    if models::load_params_from_store(model.as_ref(), store, &net.checkpoint_name())? {
        Ok(model)
    } else {
        Err(io::Error::new(io::ErrorKind::NotFound, "no valid checkpoint stored"))
    }
}

/// Loads `net` from `store`, training it and storing the checkpoint first
/// when no usable one exists. Returns the model and, when it had to be
/// trained, the training time in seconds.
pub fn load_or_train(net: &Net, store: &Arc<Store>) -> (Box<dyn Module>, Option<f64>) {
    match load(net, store) {
        Ok(model) => return (model, None),
        Err(e) => eprintln!("[goldeneye_bench] training {} ({e}); stored afterwards", net.name),
    }
    let model = net.build();
    let t0 = std::time::Instant::now();
    models::train(
        model.as_ref(),
        &SyntheticDataset::generate(TRAIN_N, IMG_SIZE, NUM_CLASSES, TRAIN_SEED),
        &net.train,
    );
    let train_s = t0.elapsed().as_secs_f64();
    models::save_params_to_store(model.as_ref(), store, &net.checkpoint_name());
    (model, Some(train_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::{Path, PathBuf};

    fn tiny(name: &'static str) -> Net {
        Net {
            name,
            arch: Arch::ResNet(ResNetConfig::tiny(NUM_CLASSES)),
            train: TrainConfig { epochs: 1, batch_size: 64, lr: 2e-3, ..Default::default() },
        }
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("goldeneye_bench_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A fresh handle on the store in `dir`, as a new process would open
    /// it: nothing served from an earlier handle's memory layer.
    fn open(dir: &Path) -> Arc<Store> {
        Arc::new(Store::open(dir).unwrap())
    }

    fn params(model: &dyn Module) -> Vec<u8> {
        models::params_to_bytes(model)
    }

    #[test]
    fn corrupt_checkpoint_is_retrained_not_used() {
        let dir = scratch("corrupt");
        let net = tiny("tiny_corrupt");
        let (first, trained) = load_or_train(&net, &open(&dir));
        assert!(trained.is_some(), "empty cache must train");
        let (again, trained) = load_or_train(&net, &open(&dir));
        assert!(trained.is_none(), "valid cache must load");
        assert_eq!(params(first.as_ref()), params(again.as_ref()));

        // Flip one payload bit: the store's footer check must reject it.
        let file = store::ArtifactKey::checkpoint(&net.checkpoint_name()).file_name();
        let path = dir.join("objects").join(file);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        assert!(load(&net, &open(&dir)).is_err(), "corrupt checkpoint loaded");
        let (retrained, trained) = load_or_train(&net, &open(&dir));
        assert!(trained.is_some(), "corrupt cache must retrain");
        // Training is deterministic, so the retrained weights equal the
        // originals, and the republished checkpoint loads again.
        assert_eq!(params(first.as_ref()), params(retrained.as_ref()));
        assert!(load(&net, &open(&dir)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn foreign_checkpoint_is_retrained_not_used() {
        let dir = scratch("foreign");
        let net = tiny("tiny_foreign");
        // A valid checkpoint of a different model under this model's name.
        let other = Net::deit_tiny().build();
        models::save_params_to_store(other.as_ref(), &open(&dir), &net.checkpoint_name());
        let (_, trained) = load_or_train(&net, &open(&dir));
        assert!(trained.is_some(), "mismatched checkpoint must retrain");
        assert!(load(&net, &open(&dir)).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cache_key_covers_config_and_training() {
        let base = tiny("tiny_key");
        let mut longer = base.clone();
        longer.train.epochs += 1;
        let mut wider = base.clone();
        if let Arch::ResNet(c) = &mut wider.arch {
            c.base_width *= 2;
        }
        let names = [base.checkpoint_name(), longer.checkpoint_name(), wider.checkpoint_name()];
        assert_ne!(names[0], names[1]);
        assert_ne!(names[0], names[2]);
        assert_ne!(names[1], names[2]);
        assert_eq!(base.checkpoint_name(), tiny("tiny_key").checkpoint_name());
    }
}
