//! SynthWN: a WordNet-shaped synthetic benchmark.
//!
//! WN18's structural signature (and the driver of Table 2's results) is:
//! a handful of *hierarchy* relations that come in inverse pairs
//! (`_hyponym`/`_hypernym`, meronym/holonym, …) and dominate the triple
//! mass; a few *symmetric* relations (`_similar_to`, `_verb_group`,
//! `_derivationally_related_form`); and assorted many-to-one attribute
//! relations. Because the splits are random over this pool, most test
//! triples have their inverse (under the paired relation) in train — the
//! leakage that ComplEx and CPh exploit and CP famously cannot.
//!
//! The generator reproduces exactly that shape at a configurable scale and
//! reports it via [`mei_kg::analysis`]-compatible structure (the tests
//! assert symmetry/inversion/leakage properties hold).

use mei_kg::{Dataset, Dictionary, Triple};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::split::split_dataset;

/// Full configuration for SynthWN generation.
#[derive(Debug, Clone)]
pub struct SynthWnConfig {
    /// Number of entities ("synsets").
    pub num_entities: usize,
    /// Number of hierarchy relation *pairs* (each yields a down- and an
    /// up-relation over a random forest).
    pub hierarchy_pairs: usize,
    /// Fraction of entities participating in each hierarchy forest.
    pub hierarchy_coverage: f64,
    /// Number of symmetric relations.
    pub symmetric_relations: usize,
    /// Undirected pairs sampled per symmetric relation (each emits both
    /// directions).
    pub symmetric_pairs: usize,
    /// Number of strictly antisymmetric relations (edges respect a total
    /// order, so the reverse direction never occurs).
    pub antisymmetric_relations: usize,
    /// Edges per antisymmetric relation.
    pub antisymmetric_edges: usize,
    /// Number of many-to-one attribute relations.
    pub many_to_one_relations: usize,
    /// Categories per many-to-one relation.
    pub many_to_one_categories: usize,
    /// Fraction of entities given an attribute per many-to-one relation.
    pub many_to_one_coverage: f64,
    /// Validation split fraction.
    pub valid_fraction: f64,
    /// Test split fraction.
    pub test_fraction: f64,
    /// RNG seed — the whole dataset is a pure function of the config.
    pub seed: u64,
}

/// Preset scales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SynthWnScale {
    /// ~200 entities / ~1.5k triples — unit/integration tests.
    Tiny,
    /// ~2k entities / ~35k triples — the repro harness default; Tables 2–4
    /// retrain on this in minutes.
    Small,
    /// WN18's entity count, not its triple count: 40,000 entities and 18
    /// relations, ~377k / 14.2k / 14.2k train/valid/test triples (seed 0:
    /// 377,401 / 14,203 / 14,203; WN18 has 141,442 / 5,000 / 5,000), and
    /// a test inverse leakage of 0.73–0.74 (WN18: ≈ 0.94).
    Full,
}

impl SynthWnConfig {
    /// The preset for `scale` with the given seed.
    pub fn at_scale(scale: SynthWnScale, seed: u64) -> Self {
        match scale {
            SynthWnScale::Tiny => Self {
                num_entities: 200,
                hierarchy_pairs: 2,
                hierarchy_coverage: 0.9,
                symmetric_relations: 2,
                symmetric_pairs: 120,
                antisymmetric_relations: 2,
                antisymmetric_edges: 150,
                many_to_one_relations: 1,
                many_to_one_categories: 8,
                many_to_one_coverage: 0.5,
                valid_fraction: 0.1,
                test_fraction: 0.1,
                seed,
            },
            SynthWnScale::Small => Self {
                num_entities: 2000,
                hierarchy_pairs: 4,
                hierarchy_coverage: 0.9,
                symmetric_relations: 3,
                symmetric_pairs: 1500,
                antisymmetric_relations: 4,
                antisymmetric_edges: 1600,
                many_to_one_relations: 3,
                many_to_one_categories: 40,
                many_to_one_coverage: 0.6,
                valid_fraction: 0.05,
                test_fraction: 0.05,
                seed,
            },
            SynthWnScale::Full => Self {
                num_entities: 40_000,
                hierarchy_pairs: 4,
                hierarchy_coverage: 0.8,
                symmetric_relations: 3,
                symmetric_pairs: 12_000,
                antisymmetric_relations: 4,
                antisymmetric_edges: 9_000,
                many_to_one_relations: 3,
                many_to_one_categories: 300,
                many_to_one_coverage: 0.35,
                valid_fraction: 0.035,
                test_fraction: 0.035,
                seed,
            },
        }
    }

    /// Total relation count this config produces.
    pub fn num_relations(&self) -> usize {
        2 * self.hierarchy_pairs
            + self.symmetric_relations
            + self.antisymmetric_relations
            + self.many_to_one_relations
    }

    /// Generates the dataset.
    pub fn generate(&self) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let ne = self.num_entities;
        assert!(ne >= 8, "SynthWN needs at least 8 entities");

        let entities = Dictionary::from_names((0..ne).map(|i| format!("synset_{i:06}")));
        let mut relation_names: Vec<String> = Vec::new();
        let mut pool: Vec<Triple> = Vec::new();

        // Hierarchy pairs: random forests; child→parent under the "down"
        // relation, parent→child under the paired "up" relation.
        for p in 0..self.hierarchy_pairs {
            let down = relation_names.len() as u32;
            relation_names.push(format!("_hyponym_{p}"));
            let up = relation_names.len() as u32;
            relation_names.push(format!("_hypernym_{p}"));

            let mut members: Vec<u32> = (0..ne as u32).collect();
            members.shuffle(&mut rng);
            let take = ((ne as f64) * self.hierarchy_coverage) as usize;
            let members = &members[..take.clamp(2, ne)];
            // members[0] is the root; each later node picks a parent among
            // earlier members, biased toward the front so the tree is bushy
            // (WordNet-like high fan-out near the top).
            for (idx, &child) in members.iter().enumerate().skip(1) {
                let bound = idx.max(1);
                let pick = rng.gen_range(0..bound * bound);
                let parent = members[(pick as f64).sqrt() as usize];
                if parent == child {
                    continue;
                }
                pool.push(Triple::new(child, parent, down));
                pool.push(Triple::new(parent, child, up));
            }
        }

        // Symmetric relations: undirected random pairs, both directions.
        for s in 0..self.symmetric_relations {
            let rel = relation_names.len() as u32;
            relation_names.push(format!("_similar_to_{s}"));
            for _ in 0..self.symmetric_pairs {
                let a = rng.gen_range(0..ne as u32);
                let b = rng.gen_range(0..ne as u32);
                if a == b {
                    continue;
                }
                pool.push(Triple::new(a, b, rel));
                pool.push(Triple::new(b, a, rel));
            }
        }

        // Antisymmetric relations: edges always go from lower to higher
        // entity id, so the reverse direction never exists.
        for s in 0..self.antisymmetric_relations {
            let rel = relation_names.len() as u32;
            relation_names.push(format!("_entails_{s}"));
            for _ in 0..self.antisymmetric_edges {
                let a = rng.gen_range(0..ne as u32);
                let b = rng.gen_range(0..ne as u32);
                if a == b {
                    continue;
                }
                let (lo, hi) = if a < b { (a, b) } else { (b, a) };
                pool.push(Triple::new(lo, hi, rel));
            }
        }

        // Many-to-one attribute relations: entity → category entity.
        for s in 0..self.many_to_one_relations {
            let rel = relation_names.len() as u32;
            relation_names.push(format!("_domain_topic_{s}"));
            let mut cats: Vec<u32> = (0..ne as u32).collect();
            cats.shuffle(&mut rng);
            let cats = &cats[..self.many_to_one_categories.clamp(1, ne)];
            for e in 0..ne as u32 {
                if rng.gen_bool(self.many_to_one_coverage) {
                    let c = cats[rng.gen_range(0..cats.len())];
                    if c != e {
                        pool.push(Triple::new(e, c, rel));
                    }
                }
            }
        }

        let relations = Dictionary::from_names(relation_names.iter().map(String::as_str));
        split_dataset(&mut rng, entities, relations, pool, self.valid_fraction, self.test_fraction)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei_kg::analysis::{detect_inverse_pairs, profile_relations};
    use mei_kg::RelationId;

    #[test]
    fn tiny_dataset_is_valid_and_sized() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 7).generate();
        ds.validate().unwrap();
        assert_eq!(ds.num_entities(), 200);
        assert_eq!(ds.num_relations(), 9);
        assert!(ds.train.len() > 500, "train too small: {}", ds.train.len());
        assert!(!ds.valid.is_empty() && !ds.test.is_empty());
    }

    #[test]
    fn deterministic_under_seed() {
        let a = SynthWnConfig::at_scale(SynthWnScale::Tiny, 42).generate();
        let b = SynthWnConfig::at_scale(SynthWnScale::Tiny, 42).generate();
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
        let c = SynthWnConfig::at_scale(SynthWnScale::Tiny, 43).generate();
        assert_ne!(a.train, c.train);
    }

    #[test]
    fn hierarchy_relations_form_inverse_pairs() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 7).generate();
        let all: Vec<_> =
            ds.train.iter().chain(&ds.valid).chain(&ds.test).copied().collect();
        let pairs = detect_inverse_pairs(&all, ds.num_relations(), 0.95);
        // Relations 0/1 and 2/3 are the hierarchy pairs.
        assert!(pairs
            .iter()
            .any(|(a, b, _)| (a.0, b.0) == (0, 1)));
        assert!(pairs.iter().any(|(a, b, _)| (a.0, b.0) == (2, 3)));
    }

    #[test]
    fn symmetric_and_antisymmetric_profiles() {
        let cfg = SynthWnConfig::at_scale(SynthWnScale::Tiny, 11);
        let ds = cfg.generate();
        let all: Vec<_> =
            ds.train.iter().chain(&ds.valid).chain(&ds.test).copied().collect();
        let profiles = profile_relations(&all);
        let by_rel = |r: u32| profiles.iter().find(|p| p.relation == RelationId(r)).unwrap();
        // Relations 4, 5 are symmetric (after 2 hierarchy pairs = rels 0–3).
        assert!(by_rel(4).symmetry > 0.99, "symmetric rel: {}", by_rel(4).symmetry);
        assert!(by_rel(5).symmetry > 0.99);
        // Relations 6, 7? — config has 2 antisymmetric after 2 symmetric.
        assert!(by_rel(6).symmetry < 0.01, "antisymmetric rel: {}", by_rel(6).symmetry);
    }

    #[test]
    fn test_split_has_heavy_inverse_leakage() {
        let ds = SynthWnConfig::at_scale(SynthWnScale::Tiny, 5).generate();
        // The WN18-like property: most test triples have their reverse pair
        // in train (via the paired inverse relation or symmetry).
        let leak = ds.test_inverse_leakage();
        assert!(leak > 0.5, "inverse leakage too low: {leak}");
    }

    #[test]
    fn small_scale_matches_design_shape() {
        let cfg = SynthWnConfig::at_scale(SynthWnScale::Small, 1);
        assert_eq!(cfg.num_relations(), 18); // mirrors WN18's 18 relations
        let ds = cfg.generate();
        ds.validate().unwrap();
        let total = ds.train.len() + ds.valid.len() + ds.test.len();
        assert!(
            (25_000..60_000).contains(&total),
            "small scale should be tens of thousands of triples, got {total}"
        );
    }

    #[test]
    fn antisymmetric_relations_never_contain_reverses() {
        let cfg = SynthWnConfig::at_scale(SynthWnScale::Tiny, 23);
        let ds = cfg.generate();
        let all: Vec<_> =
            ds.train.iter().chain(&ds.valid).chain(&ds.test).copied().collect();
        // Antisymmetric relations are ids 6 and 7 in the tiny preset.
        for rel in [6u32, 7] {
            let pairs: std::collections::HashSet<(u32, u32)> = all
                .iter()
                .filter(|t| t.relation.0 == rel)
                .map(|t| (t.head.0, t.tail.0))
                .collect();
            for (h, t) in &pairs {
                assert!(!pairs.contains(&(*t, *h)), "reverse edge found in antisymmetric relation");
            }
        }
    }
}
