//! End-to-end checks for the v4 mmap-aligned model format: mapped loads
//! must be indistinguishable from owned loads (bit-identical scores),
//! corruption must be rejected before the mapping is trusted, mutation
//! must copy — never write through — and checkpoints that embed v4 model
//! bytes must keep round-tripping.

use mei_core::checkpoint::{checkpoint_from_bytes, checkpoint_to_bytes};
use mei_core::serialize::{
    load_model, load_model_mapped, model_from_bytes, model_to_bytes, save_model,
};
use mei_core::{ModelConfig, MultiEmbedModel, TrainCheckpoint, WeightPreset, WeightRestriction};
use mei_kg::Triple;
use mei_optim::{OptimizerKind, OptimizerState};
use rand::{rngs::StdRng, SeedableRng};

fn model(seed: u64) -> MultiEmbedModel {
    let mut rng = StdRng::seed_from_u64(seed);
    MultiEmbedModel::from_preset(WeightPreset::ComplEx, 40, 5, 8, &mut rng)
}

fn temp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("mei_{name}_{}.bin", std::process::id()))
}

#[test]
fn mapped_and_owned_loads_score_bit_identically() {
    let m = model(7);
    let path = temp("mm_scores");
    save_model(&m, &path).unwrap();

    let owned = load_model(&path).unwrap();
    let mapped = load_model_mapped(&path).unwrap();
    assert_eq!(mapped.entities.is_mapped(), mei_core::mmap::MMAP_SUPPORTED);
    assert_eq!(mapped.relations.is_mapped(), mei_core::mmap::MMAP_SUPPORTED);
    assert!(!owned.entities.is_mapped());

    for h in 0..40u32 {
        let t = (h * 7 + 3) % 40;
        let r = h % 5;
        let triple = Triple::new(h, t, r);
        assert_eq!(m.score_triple(triple), owned.score_triple(triple));
        assert_eq!(owned.score_triple(triple), mapped.score_triple(triple));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn plain_models_are_written_and_mapped_as_version_4() {
    let m = model(8);
    let path = temp("mm_meta");
    save_model(&m, &path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    assert_eq!(&bytes[..4], b"MEIM");
    assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), 4);
    let mapped = load_model_mapped(&path).unwrap();
    assert_eq!(mapped.config().num_entities, 40);
    assert_eq!(mapped.config().num_relations, 5);
    std::fs::remove_file(&path).ok();
}

#[test]
fn every_truncation_point_is_rejected_by_the_mapped_loader() {
    let m = model(9);
    let path = temp("mm_trunc");
    let bytes = model_to_bytes(&m).to_vec();
    // Cut at a spread of offsets, including inside the header, the ω
    // block, the alignment padding, and both tables.
    for cut in [0, 3, 7, 12, 20, 64, 127, bytes.len() / 2, bytes.len() - 1] {
        std::fs::write(&path, &bytes[..cut]).unwrap();
        assert!(
            load_model_mapped(&path).is_err(),
            "mapped loader accepted a file truncated to {cut} bytes"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn bit_flips_anywhere_in_the_payload_are_rejected() {
    let m = model(10);
    let path = temp("mm_flip");
    let clean = model_to_bytes(&m).to_vec();
    for pos in [16, 30, 100, clean.len() - 1] {
        let mut bytes = clean.clone();
        bytes[pos] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            load_model_mapped(&path).is_err(),
            "mapped loader accepted a bit flip at byte {pos}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn mutating_a_mapped_model_copies_and_leaves_the_file_intact() {
    let m = model(11);
    let path = temp("mm_cow");
    save_model(&m, &path).unwrap();
    let before = std::fs::read(&path).unwrap();

    let mut mapped = load_model_mapped(&path).unwrap();
    mapped.entities.vec_mut(0, 0)[0] += 1.0;
    assert!(!mapped.entities.is_mapped(), "mutation must materialize an owned copy");
    // Relations were untouched and stay mapped (on mapping platforms).
    assert_eq!(mapped.relations.is_mapped(), mei_core::mmap::MMAP_SUPPORTED);

    let after = std::fs::read(&path).unwrap();
    assert_eq!(before, after, "copy-on-write wrote through to the model file");
    // A fresh load still sees the original values.
    let reload = load_model_mapped(&path).unwrap();
    assert_eq!(reload.entities.as_slice(), m.entities.as_slice());
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoints_embedding_v4_model_bytes_round_trip() {
    let mut rng = StdRng::seed_from_u64(12);
    let cfg = ModelConfig { num_entities: 9, num_relations: 3, n: 2, dim: 4 };
    let m = MultiEmbedModel::with_learned_weights(cfg, WeightRestriction::Tanh, 0.1, &mut rng);
    let state_len = m.num_params();
    let cp = TrainCheckpoint {
        epoch: 3,
        optimizer: OptimizerState {
            kind: OptimizerKind::Adam,
            lr: 0.01,
            len: state_len,
            step: 5,
            slots: vec![vec![0.0; state_len]; 2],
        },
        model: m,
        rng_state: [1, 2, 3, 4],
        order: (0..17).rev().collect(),
        best_epoch: 2,
        best_valid_mrr: 0.25,
        evals_since_improvement: 1,
        loss_history: vec![(1, 0.9), (2, 0.7), (3, 0.6)],
        valid_history: vec![(2, 0.25)],
        best: None,
    };
    let bytes = checkpoint_to_bytes(&cp);
    let back = checkpoint_from_bytes(bytes).unwrap();
    assert_eq!(back.epoch, 3);
    assert_eq!(back.model.entities.as_slice(), cp.model.entities.as_slice());
    assert_eq!(back.order, cp.order);
    // And the embedded model is independently parseable as v4 bytes.
    let standalone = model_from_bytes(model_to_bytes(&cp.model)).unwrap();
    assert_eq!(standalone.entities.as_slice(), cp.model.entities.as_slice());
}
