//! Dense numeric kernels shared by the `mei` workspace.
//!
//! This crate deliberately has no heavy linear-algebra dependency: every
//! model in the paper ("Analyzing Knowledge Graph Embedding Methods from a
//! Multi-Embedding Interaction Perspective", Tran & Takasu, EDBT/DSI4 2019)
//! is built from element-wise vector products and reductions, so a small set
//! of hand-written kernels keeps the whole stack auditable and fast.
//!
//! Modules:
//! * [`vecops`] — dot products, trilinear products, AXPY, Hadamard products,
//!   norms, and in-place normalization over `&[f32]` slices.
//! * [`kernels`] — unrolled multi-accumulator variants of the hot vecops
//!   plus the cache-blocked, register-tiled [`kernels::gemm_nt`] used by
//!   the evaluation ranking pipeline.
//! * [`dispatch`] — the SIMD tier (portable, AVX2+FMA, AVX-512), probed
//!   once per process; every kernel with a SIMD body dispatches on it.
//! * [`block`] — block-term (Tucker) contraction kernels for the MEI
//!   K×Ce×Cr family, walk-order replicas of the generic ω term walk.
//! * [`reg`] — counter-based dropout masks and f64 batch-norm moment
//!   helpers for the deterministic regularized training path.
//! * [`quantops`] — int8 screening kernels ([`quantops::gemm_i8_nt`]) with
//!   exact i32 accumulation, behind the `mei-quant` candidate-generation
//!   pass.
//! * [`activations`] — numerically stable sigmoid / softplus / tanh /
//!   softmax and their derivatives.
//! * [`init`] — deterministic, seedable embedding initializers.
//!
//! # Example
//!
//! The scalar reference ops compute exactly what they say; the `kernels`
//! variants are faster but bit-compatible where the docs promise it:
//!
//! ```
//! let h = [0.5f32, 1.0, -2.0, 0.25];
//! let t = [2.0f32, 0.5, 1.0, 4.0];
//! let r = [1.0f32, 1.0, 0.5, 1.0];
//! // ⟨h, t⟩ = 1.0 + 0.5 - 2.0 + 1.0
//! assert_eq!(mei_math::dot(&h, &t), 0.5);
//! // ⟨h, t, r⟩ = 1.0 + 0.5 - 1.0 + 1.0
//! assert_eq!(mei_math::trilinear(&h, &t, &r), 1.5);
//! let mut v = vec![3.0f32, 4.0];
//! mei_math::normalize_l2(&mut v);
//! assert_eq!(v, [0.6, 0.8]);
//! ```

#![warn(missing_docs)]

pub mod activations;
pub mod block;
pub mod dispatch;
pub mod init;
pub mod kernels;
pub mod quantops;
pub mod reg;
pub mod vecops;

pub use activations::{sigmoid, softmax_in_place, softplus, tanh_vec};
pub use kernels::{
    adam_update_fast, axpy_fast, dot_fast, gemm_nt, hadamard_axpy_fast, hadamard_write_fast,
    scale_add_l2_fast, scale_write_l2_fast, trilinear_fast, AdamParams,
};
pub use quantops::{avx512_vnni_enabled, dot_i8, gemm_i8_nt, PackedI8};
pub use vecops::{axpy, dot, hadamard, l2_norm, normalize_l2, trilinear};
