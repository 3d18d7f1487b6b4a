#![warn(missing_docs)]

//! # tensor — the FP32 compute-fabric substrate
//!
//! A small, dependency-light dense tensor library providing the "hardware"
//! number system (IEEE-754 `f32`) on top of which goldeneye-rs emulates
//! arbitrary number formats, exactly as the paper emulates formats on top of
//! the GPU's native FP32.
//!
//! Provides:
//!
//! - [`Tensor`]: contiguous row-major `f32` tensors with broadcasting
//!   elementwise ops, reductions, and shape manipulation ([`ops`]);
//!   softmax and last-axis sums run row kernels, and permutations copy
//!   coalesced runs and tiles;
//! - [`math`]: lane-parallel ports of glibc 2.36's `tanhf`, `expm1f` and
//!   `expf`, bit-identical to that libm on all 2^32 inputs and pinned by
//!   checked-in digests, so GELU, tanh, sigmoid and softmax give the same
//!   bits whatever libm a build links;
//! - [`linalg`]: packed-panel register-tiled SGEMM and batched matmul,
//!   parallel over output row panels and bit-exact for every thread count;
//! - [`conv`]: convolution that streams packed B panels straight from the
//!   image into the GEMM micro-kernel (no im2col matrix), and pooling,
//!   with explicit backward passes;
//! - [`parallel`]: the one scoped-thread executor — [`parallel::map`] for
//!   campaign trials, `parallel_for` for intra-op tasks — and its
//!   thread-budget controls ([`parallel::with_threads`]);
//! - [`workspace`]: the thread-local buffer pool that kernel scratch and
//!   the ops' output tensors come from and go back to, so steady-state
//!   inference reuses its buffers instead of faulting in fresh pages;
//! - [`autograd`]: a tape ([`Tape`]/[`Var`]) for reverse-mode
//!   differentiation, including a straight-through-estimator hook
//!   ([`Var::apply_ste`]) so quantisers can participate in training.
//!
//! # Examples
//!
//! ```
//! use tensor::{Tensor, ops};
//! let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], [3]);
//! let y = ops::relu(&x);
//! assert_eq!(y.as_slice(), &[1.0, 0.0, 3.0]);
//! ```

pub mod autograd;
pub mod conv;
pub mod linalg;
pub mod math;
pub mod ops;
pub mod parallel;
mod shape;
mod tensor;
pub mod workspace;

pub use autograd::{GradStore, Tape, Var};
pub use conv::Conv2dSpec;
pub use shape::Shape;
pub use tensor::Tensor;
