//! Format-conformance oracle for the GoldenEye number-format zoo.
//!
//! The paper's credibility rests on the format emulation being *bit-exact*:
//! a fault-injection result is only meaningful if the clean quantisation it
//! perturbs is correct. This crate turns that requirement into a set of
//! machine-checked algebraic laws ([`laws::Law`]) and three enforcement
//! layers:
//!
//! 1. **Exhaustive oracle** ([`oracle`]): for every format instance with a
//!    data width ≤ 16 bits, enumerate *all* bit patterns under each probe
//!    metadata context and check decode→encode→decode fixpoints, quantise
//!    idempotence, monotonicity, sign symmetry, range containment (which
//!    subsumes single value-bit flips), and per-metadata-bit flip
//!    invariants.
//! 2. **Differential sweeps** (`tests/conformance.rs`): proptest-driven
//!    comparisons of the fast `f32_quantizer` path against the f64
//!    reference, and of `real_to_format_tensor` against the per-element
//!    Method 3 ∘ Method 4 composition — covering the >16-bit formats the
//!    oracle cannot enumerate.
//! 3. **Golden vectors** ([`vectors`]): checked-in JSONL files pinning the
//!    decoded value of every code (hash over the full space, sampled
//!    entries) for six reference formats, diffed byte-for-byte in CI.
//!
//! `goldeneye conformance --all` runs layers 1 and 3 over the standard
//! [`zoo`] and writes a [`report`] artifact.

#![warn(missing_docs)]

pub mod laws;
pub mod oracle;
pub mod report;
pub mod vectors;
pub mod zoo;

pub use laws::{Law, Violation};
pub use oracle::{check_format, FormatReport, EXHAUSTIVE_WIDTH_LIMIT};
pub use zoo::standard_zoo;
