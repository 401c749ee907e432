//! Golden trajectories: the training bytes pinned across commits.
//!
//! Every parity suite compares two paths inside one binary, so a refactor
//! that moves every path the same way passes them all. Each case here
//! trains a short seeded run and hashes its final parameters (entity,
//! relation, raw and effective ω tables, batch-norm state) plus the bytes
//! of its end-of-run checkpoint (optimizer moments, RNG words, shuffle
//! permutation, histories) with FNV-1a, and compares the hash with the
//! one recorded when the case was added.
//!
//! The recorded hashes come from the AVX2+FMA kernels (case (f)'s was
//! taken on the AVX-512 tier, whose bits must equal them), and they are
//! asserted at both SIMD tiers: wherever
//! [`mei_math::kernels::avx2_fma_enabled`] holds, which covers the
//! AVX-512 tier too, whose `gemm_nt` tiles must reproduce the AVX2 bits.
//! On the portable tier, which may round differently in the last bit,
//! each case checks that two runs agree.
//!
//! A deliberate change to a training trajectory updates the table below
//! and says why in the change's notes; an accidental one fails here.

use mei_core::model::{BlockTermShape, ModelConfig, MultiEmbedModel};
use mei_core::trainer::{LossKind, LrDecayMode, SamplingStrategy, TrainConfig, Trainer};
use mei_core::weights::{WeightPreset, WeightRestriction};
use mei_datagen::{SynthWnConfig, SynthWnRrConfig, SynthWnScale};
use mei_kg::Dataset;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a 64-bit, folded over successive byte slices.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn floats(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_le_bytes());
        }
    }
}

/// One pinned run: how to build its data, its model and its config.
struct Case {
    name: &'static str,
    dataset: fn() -> Dataset,
    model: fn(&Dataset) -> MultiEmbedModel,
    config: fn() -> TrainConfig,
}

fn synthwn_tiny() -> Dataset {
    SynthWnConfig::at_scale(SynthWnScale::Tiny, 5).generate()
}

fn synthwnrr_small() -> Dataset {
    SynthWnRrConfig { num_entities: 80, num_triples: 220, seed: 3, ..SynthWnRrConfig::default() }
        .generate()
}

fn learned_omega(ds: &Dataset) -> MultiEmbedModel {
    let cfg = ModelConfig {
        num_entities: ds.num_entities(),
        num_relations: ds.num_relations(),
        n: 2,
        dim: 6,
    };
    let mut rng = StdRng::seed_from_u64(31);
    MultiEmbedModel::with_learned_weights(cfg, WeightRestriction::Tanh, 0.5, &mut rng)
}

fn complex(ds: &Dataset) -> MultiEmbedModel {
    let mut rng = StdRng::seed_from_u64(17);
    MultiEmbedModel::from_preset(WeightPreset::ComplEx, ds.num_entities(), ds.num_relations(), 8, &mut rng)
}

/// Shared by every case: a few epochs, validation every other epoch (so
/// the best-snapshot bookkeeping lands in the checkpoint).
fn short_run() -> TrainConfig {
    TrainConfig {
        max_epochs: 3,
        batch_size: 128,
        learning_rate: 0.02,
        l2_lambda: 1e-3,
        eval_every: 2,
        patience: 100,
        seed: 11,
        ..TrainConfig::default()
    }
}

fn kvsall_run() -> TrainConfig {
    TrainConfig {
        batch_size: 48,
        sampling: SamplingStrategy::KvsAll,
        loss: LossKind::SoftmaxCrossEntropy { label_smooth: 0.1 },
        ..short_run()
    }
}

const CASES: [Case; 6] = [
    // (a) The paper's protocol (§5): ComplEx, one uniform negative,
    // logistic loss, Adam, unit-norm projection, on 2 workers.
    Case {
        name: "paper_protocol_2_workers",
        dataset: synthwn_tiny,
        model: complex,
        config: || TrainConfig { threads: 2, ..short_run() },
    },
    // (b) Margin ranking with learned ω and two negatives per positive.
    Case {
        name: "margin_ranking_learned_omega",
        dataset: synthwn_tiny,
        model: learned_omega,
        config: || TrainConfig {
            loss: LossKind::MarginRanking { margin: 1.0 },
            negatives_per_positive: 2,
            threads: 1,
            ..short_run()
        },
    },
    // (c) Plain k-vs-all with learned ω and per-epoch lr decay.
    Case {
        name: "kvsall_learned_omega",
        dataset: synthwnrr_small,
        model: learned_omega,
        config: || TrainConfig {
            lr_decay: 0.95,
            lr_decay_mode: LrDecayMode::Epoch,
            threads: 2,
            ..kvsall_run()
        },
    },
    // (d) The MEI block-term regime: K×Ce×Cr = 2×2×2 with input dropout,
    // context dropout and batch norm.
    Case {
        name: "block_term_full_regularizers",
        dataset: synthwnrr_small,
        model: |ds| {
            let shape = BlockTermShape { k: 2, ce: 2, cr: 2 };
            let mut rng = StdRng::seed_from_u64(23);
            MultiEmbedModel::block_term(ds.num_entities(), ds.num_relations(), shape, 4, 0.3, &mut rng)
        },
        config: || TrainConfig {
            dropout: 0.2,
            input_dropout: 0.1,
            batch_norm: true,
            threads: 2,
            ..kvsall_run()
        },
    },
    // (e) k-vs-all with batch norm as the only regularizer: no mask is
    // drawn, but the scatter stages each query's contribution before
    // adding it.
    Case {
        name: "kvsall_batch_norm_only",
        dataset: synthwnrr_small,
        model: complex,
        config: || TrainConfig { batch_norm: true, threads: 1, ..kvsall_run() },
    },
    // (f) Plain k-vs-all, ComplEx at D = 21 on 2 workers: n·D = 42 runs
    // `gemm_nt` through one 32-float stride, one 8-float remainder and a
    // 2-float scalar tail, where every case above fits in n·D ≤ 16.
    Case {
        name: "kvsall_gemm_nt_ragged",
        dataset: synthwnrr_small,
        model: |ds| {
            let mut rng = StdRng::seed_from_u64(29);
            MultiEmbedModel::from_preset(WeightPreset::ComplEx, ds.num_entities(), ds.num_relations(), 21, &mut rng)
        },
        config: || TrainConfig { threads: 2, ..kvsall_run() },
    },
];

/// Hashes recorded for [`CASES`], in the same order.
const GOLDEN: [u64; 6] = [
    0x7f33_5362_5b75_c236,
    0xee8f_3f0c_621f_6d62,
    0x74b0_403e_8596_fd46,
    0x4d4e_aa79_6d97_059c,
    0x9e80_c720_d44c_1fb1,
    0xb066_2b62_60e9_4ea4,
];

/// Trains `case` once and hashes everything the run leaves behind.
fn run_hash(case: &Case) -> u64 {
    let ds = (case.dataset)();
    let filter = ds.filter_store();
    let mut model = (case.model)(&ds);
    let dir = std::env::temp_dir().join(format!("mei_golden_{}_{}", case.name, std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("run.ckpt");
    let mut cfg = (case.config)();
    cfg.checkpoint_every = cfg.max_epochs;
    cfg.checkpoint_path = Some(ckpt.clone());
    Trainer::new(cfg).train(&mut model, &ds, &filter);
    let ckpt_bytes = std::fs::read(&ckpt).expect("the run must leave a final checkpoint");
    std::fs::remove_dir_all(&dir).ok();

    let mut h = Fnv::new();
    h.floats(model.entities.as_slice());
    h.floats(model.relations.as_slice());
    h.floats(model.raw_omega().dense());
    h.floats(model.omega().dense());
    h.floats(&model.interaction_norm().map(|n| n.flat()).unwrap_or_default());
    h.bytes(&ckpt_bytes);
    h.0
}

#[test]
fn training_trajectories_match_their_recorded_hashes() {
    let pinned = mei_math::kernels::avx2_fma_enabled();
    let mut mismatches = Vec::new();
    for (case, &golden) in CASES.iter().zip(&GOLDEN) {
        let got = run_hash(case);
        if pinned {
            if got != golden {
                mismatches.push(format!("{}: recorded {golden:#018x}, got {got:#018x}", case.name));
            }
        } else {
            assert_eq!(got, run_hash(case), "{}: two runs of one binary disagree", case.name);
        }
    }
    assert!(mismatches.is_empty(), "trajectories moved:\n{}", mismatches.join("\n"));
}
