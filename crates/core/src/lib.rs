#![warn(missing_docs)]

//! # goldeneye — a functional simulator for numerical data formats in DNN
//! accelerators, with fault injection
//!
//! A from-scratch Rust reproduction of *GoldenEye: A Platform for
//! Evaluating Emerging Numerical Data Formats in DNN Accelerators*
//! (Mahmoud et al., DSN 2022). The simulator emulates arbitrary number
//! systems ([`formats`]) on top of an FP32 compute fabric ([`tensor`]) by
//! hooking every CONV/LINEAR layer of a model ([`nn`], [`models`]),
//! and supports single-/multi-bit fault injection in both data values and
//! hardware metadata ([`inject`]).
//!
//! The three use cases of the paper's §IV map to:
//!
//! - accuracy evaluation → [`evaluate_accuracy`] / [`accuracy_sweep`]
//! - design-space exploration → [`dse::search`]
//! - resiliency analysis → [`run_campaign`] (ΔLoss and mismatch metrics
//!   from the [`metrics`] crate)
//!
//! # Examples
//!
//! Emulate BFP on a CNN and inject a shared-exponent fault:
//!
//! ```
//! use goldeneye::{GoldenEye, InjectionPlan};
//! use inject::SiteKind;
//! use models::{ResNet, ResNetConfig};
//! use rand::{rngs::StdRng, SeedableRng};
//! use tensor::Tensor;
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! let model = ResNet::new(ResNetConfig::tiny(4), &mut rng);
//! let ge = GoldenEye::parse("bfp:e5m5:b16")?;
//! let x = Tensor::randn([1, 3, 8, 8], &mut rng);
//! let plan = InjectionPlan::single(0, SiteKind::Metadata);
//! let (logits, record) = ge.run_with_injection(&model, x, plan, 42);
//! assert!(record.is_some());
//! assert_eq!(logits.dims(), &[1, 4]);
//! # Ok::<(), formats::ParseFormatError>(())
//! ```

pub mod accum;
pub mod bitpos;
mod campaign;
pub mod dse;
mod evaluate;
mod instrument;
pub mod tracetool;

pub use campaign::{
    run_campaign, run_weight_campaign, trial_seed, CampaignConfig, CampaignResult, LayerResult,
    EARLY_STOP_WAVE,
};
pub use evaluate::{accuracy_sweep, evaluate_accuracy, evaluate_accuracy_jobs, AccuracyPoint};
pub use instrument::{
    CleanRun, FaultyTrainingHook, GoldenEye, InjectionPlan, InjectionRecord, LayerFilter,
    ParamSnapshot, TrialFault,
};
