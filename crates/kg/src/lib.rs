//! Knowledge-graph substrate for the `mei` workspace.
//!
//! A knowledge graph here is a collection of `(h, t, r)` triples over
//! interned entity and relation vocabularies, split into train / validation
//! / test sets (§1–2 and §5.1 of the paper). This crate provides everything
//! the models and the evaluator need from the data side:
//!
//! * [`ids`] — dense `u32` newtypes for entities and relations;
//! * [`triple`] — the [`Triple`] record;
//! * [`dictionary`] — two-way string interning for vocabularies;
//! * [`store`] — an indexed [`TripleStore`] with `(h, r) → {t}` and
//!   `(t, r) → {h}` adjacency used by filtered evaluation (§5.2);
//! * [`dataset`] — the train/valid/test [`Dataset`] bundle with integrity
//!   checks and summary statistics;
//! * [`io`] — TSV load/save in the Bordes-et-al. benchmark formats;
//! * [`augment`] — the CPh inverse-triple data augmentation (§2.2.3 /
//!   Eq. 7): every `(h, t, r)` gains `(t, h, r⁽ᵃ⁾)`;
//! * [`negative`] — uniform negative sampling by head/tail corruption (§4);
//! * [`analysis`] — relation property detection (symmetry, inverse pairs)
//!   used to sanity-check generated benchmarks.

#![warn(missing_docs)]

pub mod analysis;
pub mod augment;
pub mod dataset;
pub mod dedup;
pub mod dictionary;
pub mod io;
pub mod negative;
pub mod store;
pub mod triple;

pub mod ids {
    //! Dense identifier newtypes.
    //!
    //! Entities and relations are interned to consecutive `u32`s so that
    //! embedding tables are plain flat arrays indexed without hashing.

    /// Identifier of an entity (node) in the knowledge graph.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct EntityId(pub u32);

    /// Identifier of a relation (edge label) in the knowledge graph.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
    pub struct RelationId(pub u32);

    impl EntityId {
        /// The id as a `usize` index.
        #[inline]
        pub fn idx(self) -> usize {
            self.0 as usize
        }
    }

    impl RelationId {
        /// The id as a `usize` index.
        #[inline]
        pub fn idx(self) -> usize {
            self.0 as usize
        }
    }

    impl std::fmt::Display for EntityId {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "e{}", self.0)
        }
    }

    impl std::fmt::Display for RelationId {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "r{}", self.0)
        }
    }
}

pub use augment::AugmentedDataset;
pub use dataset::Dataset;
pub use dedup::{remove_leaky_relations, DedupConfig, DedupReport};
pub use dictionary::Dictionary;
pub use ids::{EntityId, RelationId};
pub use io::KgError;
pub use negative::{BernoulliSampler, NegativeSampler};
pub use store::{SortedTargets, TripleStore};
pub use triple::Triple;
