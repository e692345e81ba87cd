//! # scenerec-tensor
//!
//! Dense, row-major `f32` tensor math substrate used by every other crate in
//! the SceneRec reproduction.
//!
//! The SceneRec model (EDBT 2021) is built from small dense building blocks:
//! affine transforms, element-wise activations, vector concatenation, cosine
//! similarity and masked softmax. This crate provides exactly those kernels,
//! with shape checking, numerically stable implementations, and
//! deterministic, seedable initialization schemes.
//!
//! Design choices (see DESIGN.md at the workspace root):
//!
//! * **Row-major `Matrix`** with explicit `(rows, cols)`; vectors are
//!   `rows == 1` or `cols == 1` matrices or plain `&[f32]` slices depending
//!   on the call site. Embedding tables are matrices whose rows are entity
//!   embeddings, matching Eqs. (1)–(14) of the paper.
//! * **Fallible shape-checked APIs** (`try_*`) alongside panicking
//!   convenience wrappers used in hot inner loops that have already been
//!   validated at model-construction time.
//! * **Runtime-dispatched kernels**: the workspace compiles for a
//!   portable baseline, and [`dispatch`] picks between the scalar
//!   reference kernels and the hand-written AVX2 kernels in `simd.rs`
//!   once per process. `unsafe` is confined to `simd.rs`, every SIMD
//!   kernel is bit-identical to its scalar twin (lint rules R2/S1
//!   enforce the SAFETY-comment discipline), and
//!   `SCENEREC_FORCE_SCALAR=1` forces the fallback for A/B testing.
//! * **Quantized serving storage** ([`quant`]): bit-level f16 and
//!   per-row affine int8 matrices with mixed-precision dot kernels for
//!   the frozen engines.
//! * **Fused optimizer updates** ([`update`]): the RMSProp step with its
//!   decoupled weight decay in one pass, scalar and AVX2 bit-identical.

// The SIMD backends require unsafe; every unsafe operation inside an
// unsafe fn must still be wrapped in an explicit `unsafe {}` block
// with its own SAFETY comment (lint rule R2).
#![deny(unsafe_op_in_unsafe_fn)]

pub mod dispatch;
pub mod error;
pub mod gemm;
pub mod init;
pub mod linalg;
pub mod matrix;
pub mod numeric;
pub mod par;
pub mod quant;
pub mod score;
#[cfg(target_arch = "x86_64")]
pub(crate) mod simd;
pub mod stats;
pub mod update;

pub use dispatch::{backend, backend_name, Backend};
pub use error::{ShapeError, TensorResult};
pub use init::Initializer;
pub use matrix::Matrix;
