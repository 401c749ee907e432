//! # mei — Multi-Embedding Interaction for knowledge graph embedding
//!
//! A from-scratch Rust implementation of *"Analyzing Knowledge Graph
//! Embedding Methods from a Multi-Embedding Interaction Perspective"*
//! (Tran & Takasu, DSI4 @ EDBT/ICDT 2019, arXiv:1903.11406).
//!
//! The paper unifies the trilinear-product family of knowledge graph
//! embedding models — DistMult, ComplEx, CP and CPh — as special cases of
//! one mechanism: each entity/relation carries `n` embedding vectors and a
//! triple's score is a weighted sum of all `n³` trilinear products,
//! `S(h,t,r) = Σ ω(i,j,k)·⟨h⁽ⁱ⁾, t⁽ʲ⁾, r⁽ᵏ⁾⟩`. It also proposes a
//! quaternion-based four-embedding model derived from `Re⟨h, t̄, r⟩` over
//! `ℍ^D`.
//!
//! ## Quick start
//!
//! ```
//! use mei::prelude::*;
//! use rand::rngs::StdRng;
//! use rand::SeedableRng;
//!
//! // A small WordNet-like benchmark (the paper evaluates on WN18).
//! let dataset = SynthWnConfig::at_scale(SynthWnScale::Tiny, 42).generate();
//!
//! // ComplEx, expressed as a multi-embedding weight preset (Table 1).
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = MultiEmbedModel::from_preset(
//!     WeightPreset::ComplEx,
//!     dataset.num_entities(),
//!     dataset.num_relations(),
//!     32,
//!     &mut rng,
//! );
//!
//! // Train with the paper's stack: logistic loss, Adam, negative sampling.
//! let filter = dataset.filter_store();
//! let mut config = TrainConfig::default();
//! config.max_epochs = 5; // keep the doctest fast
//! let report = Trainer::new(config).train(&mut model, &dataset, &filter);
//! assert!(report.epochs_run > 0);
//!
//! // Filtered link-prediction metrics (MRR, Hit@k).
//! let results = mei::eval::ranking::evaluate_filtered(
//!     &model,
//!     &dataset.test,
//!     &filter,
//!     &EvalConfig::default(),
//! );
//! assert!(results.mrr > 0.0);
//! ```
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`core`] | `mei-core` | the unified model, weight presets, trainer |
//! | [`kg`] | `mei-kg` | triples, stores, datasets, TSV I/O, augmentation, sampling |
//! | [`eval`] | `mei-eval` | filtered/raw ranking, MRR/Hit@k |
//! | [`datagen`] | `mei-datagen` | SynthWN, recommender KG, random graphs |
//! | [`algebra`] | `mei-algebra` | complex & quaternion algebra + symbolic ω derivation |
//! | [`autodiff`] | `mei-autodiff` | reverse-mode tape for ω learning and gradient checks |
//! | [`optim`] | `mei-optim` | SGD / Momentum / Adagrad / Adam |
//! | [`math`] | `mei-math` | kernels, activations, initializers |
//! | [`serve`] | `mei-serve` | batched top-k serving engine, snapshot hot-swap, NDJSON/TCP server |

#![warn(missing_docs)]

pub use mei_algebra as algebra;
pub use mei_autodiff as autodiff;
pub use mei_core as core;
pub use mei_datagen as datagen;
pub use mei_eval as eval;
pub use mei_kg as kg;
pub use mei_math as math;
pub use mei_optim as optim;
pub use mei_serve as serve;

/// The most common imports, re-exported flat.
pub mod prelude {
    pub use mei_core::regularizer::DirichletRegularizer;
    pub use mei_core::{
        EmbeddingTable, LossKind, ModelConfig, MultiEmbedModel, SamplingStrategy, TrainConfig,
        TrainReport, Trainer,
        WeightPreset, WeightRestriction, WeightVector,
    };
    pub use mei_datagen::{RecsysConfig, RecsysKg, SynthWnConfig, SynthWnScale};
    pub use mei_eval::{evaluate, EvalConfig, LinkPredictionResults, TiePolicy, TripleScorer};
    pub use mei_kg::{
        AugmentedDataset, BernoulliSampler, Dataset, Dictionary, EntityId, KgError,
        NegativeSampler, RelationId, Triple, TripleStore,
    };
    pub use mei_optim::OptimizerKind;
    pub use mei_serve::{Engine, ServeConfig, Snapshot};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let p = WeightPreset::ComplEx;
        assert_eq!(p.n(), 2);
        let _ = EvalConfig::default();
    }
}
