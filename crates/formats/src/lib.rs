#![warn(missing_docs)]

//! # formats — GoldenEye's configurable number systems
//!
//! The paper's primary contribution: a unified, extensible API for emulating
//! numerical data formats on top of an FP32 compute fabric, with the
//! hardware implementation's *metadata* (scale factors, shared exponents,
//! exponent biases) elevated into software so that resiliency analysis can
//! target it.
//!
//! Every format implements [`NumberFormat`] — the Rust rendering of the
//! paper's four pure-virtual methods (§III-B):
//!
//! | Paper method | Here |
//! |---|---|
//! | `real_to_format_tensor(tensor)` | [`NumberFormat::real_to_format_tensor`] |
//! | `format_to_real_tensor(tensor)` | [`NumberFormat::format_to_real_tensor`] |
//! | `real_to_format(value)` | [`NumberFormat::real_to_format`] |
//! | `format_to_real(bitstring)` | [`NumberFormat::format_to_real`] |
//!
//! The paper's five families are provided ([`FloatingPoint`],
//! [`FixedPoint`], [`IntQuant`], [`BlockFloatingPoint`], [`AdaptivFloat`]),
//! plus [`Posit`] and the microscaling-era additions: OCP MX ([`MxFloat`]),
//! saturating P3109-style FP8 profiles ([`P3109`]), and golden-ratio
//! static splits ([`GoldenFloat`]). New ones plug in by implementing the
//! trait.
//!
//! # Examples
//!
//! ```
//! use formats::{FormatSpec, NumberFormat};
//! use tensor::Tensor;
//!
//! let bfp: FormatSpec = "bfp:e5m5:b16".parse()?;
//! let format = bfp.build();
//! let x = Tensor::from_vec(vec![1.0, 0.5, -0.25, 100.0], [4]);
//! let q = format.real_to_format_tensor(&x);
//! assert_eq!(q.meta.word_count(), 1); // one shared exponent
//! # Ok::<(), formats::ParseFormatError>(())
//! ```

mod afp;
mod bfp;
mod bitstring;
mod chunk;
pub mod footprint;
mod format;
mod fp;
mod fxp;
mod gf;
pub mod hash;
mod int;
mod metadata;
mod mx;
mod p3109;
mod posit;
pub mod ranges;
mod spec;

pub use afp::AdaptivFloat;
pub use bfp::BlockFloatingPoint;
pub use bitstring::Bitstring;
pub use format::{DynamicRange, NumberFormat, Quantized};
pub use fp::{f32_saturate, mul_pow2, FloatingPoint};
pub use fxp::FixedPoint;
pub use gf::GoldenFloat;
pub use int::IntQuant;
pub use metadata::Metadata;
pub use mx::{MxElem, MxFloat};
pub use p3109::P3109;
pub use posit::Posit;
pub use spec::{FormatSpec, ParseFormatError};
