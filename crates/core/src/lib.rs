//! `mei-core` — the multi-embedding interaction mechanism and everything
//! built on it.
//!
//! This crate implements the primary contribution of "Analyzing Knowledge
//! Graph Embedding Methods from a Multi-Embedding Interaction Perspective"
//! (Tran & Takasu, EDBT/DSI4 2019):
//!
//! * the **generalized score function** of Eq. 8 — entity/relation items
//!   carry `n` embedding vectors each, and a triple's score is the
//!   ω-weighted sum of all `n³` trilinear products
//!   ([`model::MultiEmbedModel`]);
//! * **Table 1's weight presets** realizing DistMult, ComplEx (+3
//!   equivalent forms), CP and CPh, plus the good/bad variants of Table 2
//!   ([`weights`]);
//! * **learnable weight vectors** with `tanh`/`sigmoid`/`softmax`
//!   restrictions and the Dirichlet sparsity regularizer of Eq. 12
//!   ([`weights::WeightRestriction`], [`regularizer`]);
//! * the **quaternion four-embedding model** of Eq. 13–14 (its ω preset is
//!   derived symbolically in `mei-algebra` and re-exported here);
//! * the paper's **training stack** (Eq. 15–16): logistic/softplus loss,
//!   per-triple L2 regularization, uniform negative sampling, Adam, unit
//!   L2-norm entity projection, early stopping on validation filtered MRR
//!   ([`trainer`]); the k-vs-all regime additionally offers counter-RNG
//!   dropout (context and input) and batch norm on the interaction
//!   vectors ([`grads::KvRegConfig`], [`model::InteractionNorm`]);
//! * the **block-term model family** (MEI, K×Ce×Cr): K independent
//!   Tucker-style partitions realized as a support-restricted ω over the
//!   generic grid, so every downstream consumer (eval, k-vs-all training,
//!   serving, int8 screening) works unchanged
//!   ([`model::MultiEmbedModel::block_term`], [`model::BlockTermShape`]).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod embedding;
mod fused;
pub mod grads;
pub mod loss;
pub mod mmap;
pub mod model;
pub mod regularizer;
pub mod serialize;
pub mod trainer;
pub mod tuning;
pub mod weights;

pub use checkpoint::{load_checkpoint, save_checkpoint, TrainCheckpoint};
pub use embedding::EmbeddingTable;
pub use grads::{GradPath, GradWorkspace, KvQuery, KvRegConfig, RowKey};
pub use model::{BlockTermShape, InteractionNorm, ModelConfig, MultiEmbedModel};
pub use trainer::{LossKind, LrDecayMode, SamplingStrategy, TrainConfig, TrainReport, Trainer};
pub use weights::{WeightPreset, WeightRestriction, WeightVector};
