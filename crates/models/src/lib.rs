#![warn(missing_docs)]

//! # models — the evaluation workloads
//!
//! The CNNs (ResNet-18/50 style) and vision transformers (DeiT-tiny/base
//! style) the paper evaluates, a deterministic synthetic dataset standing
//! in for ImageNet (DESIGN.md §2), a training loop, and weight I/O so
//! benchmark harnesses can cache trained models.
//!
//! # Examples
//!
//! ```no_run
//! use models::{ResNet, ResNetConfig, SyntheticDataset, TrainConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let net = ResNet::new(ResNetConfig::resnet18(8, 10), &mut rng);
//! let data = SyntheticDataset::generate(512, 32, 10, 7);
//! let logs = models::train(&net, &data, &TrainConfig::default());
//! println!("final accuracy: {:.1}%", logs.last().unwrap().accuracy * 100.0);
//! ```

mod data;
mod deit;
mod io;
mod resnet;
mod trainer;

pub use data::SyntheticDataset;
pub use deit::{DeitConfig, VisionTransformer};
pub use io::{load_params_from_store, params_from_bytes, params_to_bytes, save_params_to_store};
pub use resnet::{BlockKind, ResNet, ResNetConfig};
pub use trainer::{evaluate, forward_logits, train, EpochLog, TrainConfig};
