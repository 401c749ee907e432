//! Crash-safe training checkpoints.
//!
//! The paper's protocol trains for hundreds of epochs with early stopping
//! on validation filtered MRR (§5.3), so a crash late in a run discards
//! hours of work. A [`TrainCheckpoint`] captures *everything* the training
//! loop needs to continue exactly where it stopped — model parameters,
//! optimizer moments, the RNG's internal state, the persistent shuffle
//! permutation, and the early-stopping bookkeeping — such that a resumed
//! run is **bitwise identical** to one that never stopped.
//!
//! On-disk layout (little-endian, same conventions as the model format):
//!
//! ```text
//! magic "MEIC" | version u32 | payload checksum u64 (FNV-1a) |
//! payload:
//!   epoch u32 |
//!   model_len u32 | model bytes (a complete "MEIM" v4/v5 model file) |
//!   optimizer: kind u8 | lr f32 | len u64 | step i32 |
//!              n_slots u8 | per slot: len u64, f32 × len |
//!   rng state u64 × 4 |
//!   order: len u64 | u64 × len (the live shuffle permutation) |
//!   best_epoch u32 | best_valid_mrr f64-bits |
//!   evals_since_improvement u32 |
//!   loss_history:  count u32 | (epoch u32, value f64-bits) × count |
//!   valid_history: count u32 | (epoch u32, value f64-bits) × count |
//!   best snapshot: present u8 | if 1: three f32 arrays
//!                  (entities, relations, raw ω), each len u64 + f32 × len |
//!                  (v2) norm present u8 | if 1: one f32 array
//!                  ([γ | β | running mean | running var], len u64 + f32 × len)
//! ```
//!
//! Version 2 appends the interaction-norm state to the best snapshot;
//! checkpoints whose best snapshot carries no norm state are still written
//! as version 1, byte for byte, so plain-model checkpoints are stable
//! across the format bump.
//!
//! Files are written through [`crate::serialize::write_bytes_atomic`], so a
//! SIGKILL at any instant leaves either the previous complete checkpoint or
//! the new complete checkpoint — never a torn file. Loads validate the
//! checksum before touching any field, so truncation at *any* byte is
//! reported as [`SerializeError::Checksum`]/[`SerializeError::Format`],
//! never a panic or silently wrong state.

use std::path::Path;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use mei_optim::{OptimizerKind, OptimizerState};

use crate::model::MultiEmbedModel;
use crate::serialize::{
    fnv1a64, model_from_bytes, model_to_bytes, write_bytes_atomic, SerializeError,
};

const MAGIC: &[u8; 4] = b"MEIC";
/// Highest read version; version 2 adds the best snapshot's norm state.
const VERSION: u32 = 2;
/// Write version for checkpoints without norm state (the common case).
const V1_VERSION: u32 = 1;

/// The trainable parameters of the best-so-far validation snapshot, stored
/// as flat arrays (shapes are implied by the checkpointed model).
#[derive(Debug, Clone, PartialEq)]
pub struct BestSnapshot {
    /// Entity table values, row-major.
    pub entities: Vec<f32>,
    /// Relation table values, row-major.
    pub relations: Vec<f32>,
    /// Raw (pre-restriction) ω values.
    pub raw_omega: Vec<f32>,
    /// Interaction-norm state `[γ | β | running mean | running var]`
    /// (4·n·dim floats) when the model trains with batch norm, else `None`.
    pub norm: Option<Vec<f32>>,
}

/// Complete mid-run training state — see the module docs for the format.
#[derive(Debug, Clone)]
pub struct TrainCheckpoint {
    /// Last fully completed epoch (1-based); resume continues at `+ 1`.
    pub epoch: usize,
    /// Model exactly as it stood at the end of `epoch`.
    pub model: MultiEmbedModel,
    /// Optimizer moments and step counter.
    pub optimizer: OptimizerState,
    /// The training RNG's internal state at the end of `epoch`.
    pub rng_state: [u64; 4],
    /// The live shuffle permutation. Each epoch shuffles the *previous*
    /// permutation in place, so replaying from the seed is impossible —
    /// the permutation itself is part of the training state.
    pub order: Vec<usize>,
    /// Epoch of the best validation MRR so far (0 if none yet).
    pub best_epoch: usize,
    /// Best validation filtered MRR so far (−∞ if none yet).
    pub best_valid_mrr: f64,
    /// Consecutive validation checks without improvement.
    pub evals_since_improvement: usize,
    /// `(epoch, mean train loss)` history so far.
    pub loss_history: Vec<(usize, f64)>,
    /// `(epoch, validation filtered MRR)` history so far.
    pub valid_history: Vec<(usize, f64)>,
    /// Best-so-far parameters for early-stopping restoration.
    pub best: Option<BestSnapshot>,
}

fn put_f32s(buf: &mut BytesMut, values: &[f32]) {
    buf.put_u64_le(values.len() as u64);
    for v in values {
        buf.put_f32_le(*v);
    }
}

fn get_f32s(buf: &mut Bytes, what: &str) -> Result<Vec<f32>, SerializeError> {
    if buf.remaining() < 8 {
        return Err(SerializeError::Format(format!("truncated {what} length")));
    }
    let len = buf.get_u64_le() as usize;
    if buf.remaining() < len.saturating_mul(4) {
        return Err(SerializeError::Format(format!("truncated {what} values")));
    }
    let mut out = vec![0.0f32; len];
    for v in &mut out {
        *v = buf.get_f32_le();
    }
    Ok(out)
}

fn put_history(buf: &mut BytesMut, history: &[(usize, f64)]) {
    buf.put_u32_le(history.len() as u32);
    for (epoch, value) in history {
        buf.put_u32_le(*epoch as u32);
        buf.put_u64_le(value.to_bits());
    }
}

fn get_history(buf: &mut Bytes, what: &str) -> Result<Vec<(usize, f64)>, SerializeError> {
    if buf.remaining() < 4 {
        return Err(SerializeError::Format(format!("truncated {what} count")));
    }
    let count = buf.get_u32_le() as usize;
    if buf.remaining() < count.saturating_mul(12) {
        return Err(SerializeError::Format(format!("truncated {what} entries")));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let epoch = buf.get_u32_le() as usize;
        let value = f64::from_bits(buf.get_u64_le());
        out.push((epoch, value));
    }
    Ok(out)
}

/// Serializes a checkpoint to its on-disk byte form.
pub fn checkpoint_to_bytes(cp: &TrainCheckpoint) -> Bytes {
    let model_bytes = model_to_bytes(&cp.model);
    let mut payload = BytesMut::with_capacity(
        64 + model_bytes.len()
            + cp.optimizer.slots.iter().map(|s| 8 + 4 * s.len()).sum::<usize>()
            + 8 * cp.order.len(),
    );
    payload.put_u32_le(cp.epoch as u32);
    payload.put_u32_le(model_bytes.len() as u32);
    payload.put_slice(&model_bytes);

    payload.put_u8(cp.optimizer.kind.tag());
    payload.put_f32_le(cp.optimizer.lr);
    payload.put_u64_le(cp.optimizer.len as u64);
    payload.put_u32_le(cp.optimizer.step as u32);
    payload.put_u8(cp.optimizer.slots.len() as u8);
    for slot in &cp.optimizer.slots {
        put_f32s(&mut payload, slot);
    }

    for word in cp.rng_state {
        payload.put_u64_le(word);
    }

    payload.put_u64_le(cp.order.len() as u64);
    for idx in &cp.order {
        payload.put_u64_le(*idx as u64);
    }

    payload.put_u32_le(cp.best_epoch as u32);
    payload.put_u64_le(cp.best_valid_mrr.to_bits());
    payload.put_u32_le(cp.evals_since_improvement as u32);
    put_history(&mut payload, &cp.loss_history);
    put_history(&mut payload, &cp.valid_history);

    // Norm-free checkpoints stay on version 1 byte for byte.
    let version =
        if cp.best.as_ref().is_some_and(|b| b.norm.is_some()) { VERSION } else { V1_VERSION };
    match &cp.best {
        None => payload.put_u8(0),
        Some(best) => {
            payload.put_u8(1);
            put_f32s(&mut payload, &best.entities);
            put_f32s(&mut payload, &best.relations);
            put_f32s(&mut payload, &best.raw_omega);
            if version >= VERSION {
                match &best.norm {
                    None => payload.put_u8(0),
                    Some(norm) => {
                        payload.put_u8(1);
                        put_f32s(&mut payload, norm);
                    }
                }
            }
        }
    }

    let mut buf = BytesMut::with_capacity(16 + payload.len());
    buf.put_slice(MAGIC);
    buf.put_u32_le(version);
    buf.put_u64_le(fnv1a64(&payload));
    buf.put_slice(&payload);
    buf.freeze()
}

/// Deserializes a checkpoint, validating magic, version, and the payload
/// checksum before reading any field. Every truncation or corruption comes
/// back as `Format`/`Checksum` — this function never panics on bad input.
pub fn checkpoint_from_bytes(mut buf: Bytes) -> Result<TrainCheckpoint, SerializeError> {
    if buf.remaining() < 4 || &buf.copy_to_bytes(4)[..] != MAGIC {
        return Err(SerializeError::Format("bad magic (not a mei checkpoint file)".into()));
    }
    if buf.remaining() < 4 {
        return Err(SerializeError::Format("truncated checkpoint header".into()));
    }
    let version = buf.get_u32_le();
    if version != V1_VERSION && version != VERSION {
        return Err(SerializeError::Format(format!(
            "unsupported checkpoint version {version} (this build reads versions \
             {V1_VERSION} through {VERSION})"
        )));
    }
    if buf.remaining() < 8 {
        return Err(SerializeError::Format("truncated checkpoint header (missing checksum)".into()));
    }
    let expected = buf.get_u64_le();
    let actual = fnv1a64(&buf);
    if actual != expected {
        return Err(SerializeError::Checksum { expected, actual });
    }

    if buf.remaining() < 8 {
        return Err(SerializeError::Format("truncated checkpoint payload".into()));
    }
    let epoch = buf.get_u32_le() as usize;
    let model_len = buf.get_u32_le() as usize;
    if buf.remaining() < model_len {
        return Err(SerializeError::Format("truncated embedded model".into()));
    }
    let model = model_from_bytes(buf.copy_to_bytes(model_len))?;

    if buf.remaining() < 1 + 4 + 8 + 4 + 1 {
        return Err(SerializeError::Format("truncated optimizer state".into()));
    }
    let kind_tag = buf.get_u8();
    let kind = OptimizerKind::from_tag(kind_tag)
        .ok_or_else(|| SerializeError::Format(format!("unknown optimizer tag {kind_tag}")))?;
    let lr = buf.get_f32_le();
    let opt_len = buf.get_u64_le() as usize;
    let step = buf.get_u32_le() as i32;
    let n_slots = buf.get_u8() as usize;
    let mut slots = Vec::with_capacity(n_slots);
    for i in 0..n_slots {
        slots.push(get_f32s(&mut buf, &format!("optimizer slot {i}"))?);
    }
    let optimizer = OptimizerState { kind, lr, len: opt_len, step, slots };
    // Fail at load time, not deep inside the training loop.
    optimizer.build().map_err(SerializeError::Format)?;

    if buf.remaining() < 32 {
        return Err(SerializeError::Format("truncated RNG state".into()));
    }
    let rng_state = [buf.get_u64_le(), buf.get_u64_le(), buf.get_u64_le(), buf.get_u64_le()];

    if buf.remaining() < 8 {
        return Err(SerializeError::Format("truncated shuffle order length".into()));
    }
    let order_len = buf.get_u64_le() as usize;
    if buf.remaining() < order_len.saturating_mul(8) {
        return Err(SerializeError::Format("truncated shuffle order".into()));
    }
    let mut order = Vec::with_capacity(order_len);
    for _ in 0..order_len {
        order.push(buf.get_u64_le() as usize);
    }
    // A valid order is a permutation of 0..len; anything else means the
    // checkpoint belongs to a different dataset (or is corrupt in a way
    // the checksum cannot express).
    let mut seen = vec![false; order_len];
    for &idx in &order {
        if idx >= order_len || seen[idx] {
            return Err(SerializeError::Format(
                "shuffle order is not a permutation of the training set".into(),
            ));
        }
        seen[idx] = true;
    }

    if buf.remaining() < 4 + 8 + 4 {
        return Err(SerializeError::Format("truncated early-stopping state".into()));
    }
    let best_epoch = buf.get_u32_le() as usize;
    let best_valid_mrr = f64::from_bits(buf.get_u64_le());
    let evals_since_improvement = buf.get_u32_le() as usize;
    let loss_history = get_history(&mut buf, "loss history")?;
    let valid_history = get_history(&mut buf, "valid history")?;

    if buf.remaining() < 1 {
        return Err(SerializeError::Format("truncated best-snapshot flag".into()));
    }
    let best = match buf.get_u8() {
        0 => None,
        1 => {
            let entities = get_f32s(&mut buf, "best entities")?;
            let relations = get_f32s(&mut buf, "best relations")?;
            let raw_omega = get_f32s(&mut buf, "best raw omega")?;
            if entities.len() != model.entities.as_slice().len()
                || relations.len() != model.relations.as_slice().len()
                || raw_omega.len() != model.raw_omega().dense().len()
            {
                return Err(SerializeError::Format(
                    "best-snapshot shapes disagree with the checkpointed model".into(),
                ));
            }
            let norm = if version >= VERSION {
                if buf.remaining() < 1 {
                    return Err(SerializeError::Format("truncated best-norm flag".into()));
                }
                match buf.get_u8() {
                    0 => None,
                    1 => {
                        let flat = get_f32s(&mut buf, "best norm state")?;
                        let expected = model
                            .interaction_norm()
                            .map(|nrm| 4 * nrm.kdim())
                            .ok_or_else(|| {
                                SerializeError::Format(
                                    "checkpoint has norm state but the model has no \
                                     interaction norm"
                                        .into(),
                                )
                            })?;
                        if flat.len() != expected {
                            return Err(SerializeError::Format(
                                "best-norm state disagrees with the model's norm shape".into(),
                            ));
                        }
                        Some(flat)
                    }
                    other => {
                        return Err(SerializeError::Format(format!(
                            "invalid best-norm flag {other}"
                        )))
                    }
                }
            } else {
                None
            };
            Some(BestSnapshot { entities, relations, raw_omega, norm })
        }
        other => {
            return Err(SerializeError::Format(format!("invalid best-snapshot flag {other}")))
        }
    };

    Ok(TrainCheckpoint {
        epoch,
        model,
        optimizer,
        rng_state,
        order,
        best_epoch,
        best_valid_mrr,
        evals_since_improvement,
        loss_history,
        valid_history,
        best,
    })
}

/// Writes a checkpoint atomically: a crash at any point leaves the
/// previous checkpoint (if any) intact at `path`.
pub fn save_checkpoint<P: AsRef<Path>>(
    cp: &TrainCheckpoint,
    path: P,
) -> Result<(), SerializeError> {
    write_bytes_atomic(path, &checkpoint_to_bytes(cp))
}

/// Loads and fully validates a checkpoint from disk.
pub fn load_checkpoint<P: AsRef<Path>>(path: P) -> Result<TrainCheckpoint, SerializeError> {
    let data = std::fs::read(path)?;
    checkpoint_from_bytes(Bytes::from(data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::weights::WeightPreset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample() -> TrainCheckpoint {
        let mut rng = StdRng::seed_from_u64(21);
        let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 6, 2, 4, &mut rng);
        let n_params = model.entities.len() + model.relations.len();
        TrainCheckpoint {
            epoch: 17,
            optimizer: OptimizerState {
                kind: OptimizerKind::Adam,
                lr: 0.0123,
                len: n_params,
                step: 99,
                slots: vec![vec![0.5; n_params], vec![0.25; n_params]],
            },
            rng_state: rng.state(),
            order: vec![3, 1, 4, 0, 2],
            best_epoch: 10,
            best_valid_mrr: 0.625,
            evals_since_improvement: 1,
            loss_history: vec![(1, 0.9), (2, 0.7)],
            valid_history: vec![(10, 0.625)],
            best: Some(BestSnapshot {
                entities: model.entities.as_slice().to_vec(),
                relations: model.relations.as_slice().to_vec(),
                raw_omega: model.raw_omega().dense().to_vec(),
                norm: None,
            }),
            model,
        }
    }

    #[test]
    fn round_trip_preserves_every_field() {
        let cp = sample();
        let restored = checkpoint_from_bytes(checkpoint_to_bytes(&cp)).unwrap();
        assert_eq!(restored.epoch, cp.epoch);
        assert_eq!(restored.optimizer, cp.optimizer);
        assert_eq!(restored.rng_state, cp.rng_state);
        assert_eq!(restored.order, cp.order);
        assert_eq!(restored.best_epoch, cp.best_epoch);
        assert_eq!(restored.best_valid_mrr.to_bits(), cp.best_valid_mrr.to_bits());
        assert_eq!(restored.evals_since_improvement, cp.evals_since_improvement);
        assert_eq!(restored.loss_history, cp.loss_history);
        assert_eq!(restored.valid_history, cp.valid_history);
        assert_eq!(restored.best, cp.best);
        assert_eq!(restored.model.entities.as_slice(), cp.model.entities.as_slice());
        assert_eq!(restored.model.relations.as_slice(), cp.model.relations.as_slice());
        assert_eq!(restored.model.raw_omega().dense(), cp.model.raw_omega().dense());
    }

    #[test]
    fn neg_infinity_mrr_round_trips() {
        let mut cp = sample();
        cp.best_valid_mrr = f64::NEG_INFINITY;
        cp.best = None;
        let restored = checkpoint_from_bytes(checkpoint_to_bytes(&cp)).unwrap();
        assert!(restored.best_valid_mrr.is_infinite() && restored.best_valid_mrr < 0.0);
        assert!(restored.best.is_none());
    }

    #[test]
    fn norm_free_checkpoints_still_write_version_1() {
        let bytes = checkpoint_to_bytes(&sample());
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), V1_VERSION);
    }

    #[test]
    fn norm_state_round_trips_as_version_2() {
        let mut cp = sample();
        cp.model.enable_interaction_norm(0.1, 1e-5);
        let mut flat = cp.model.interaction_norm().unwrap().flat();
        let last = flat.len() - 1;
        flat[0] = 1.75;
        flat[last] = 0.5;
        cp.best.as_mut().unwrap().norm = Some(flat.clone());
        let bytes = checkpoint_to_bytes(&cp);
        assert_eq!(u32::from_le_bytes(bytes[4..8].try_into().unwrap()), VERSION);
        let restored = checkpoint_from_bytes(bytes).unwrap();
        assert_eq!(restored.best.unwrap().norm.unwrap(), flat);
    }

    #[test]
    fn norm_state_without_model_norm_is_rejected() {
        let mut cp = sample();
        // Norm state in the snapshot but no norm on the model: invalid.
        cp.best.as_mut().unwrap().norm = Some(vec![0.0; 8]);
        let err = checkpoint_from_bytes(checkpoint_to_bytes(&cp)).unwrap_err();
        assert!(err.to_string().contains("no interaction norm"), "{err}");
    }

    #[test]
    fn corruption_is_rejected_with_checksum_error() {
        let mut bytes = checkpoint_to_bytes(&sample()).to_vec();
        let idx = bytes.len() / 2;
        bytes[idx] ^= 0x10;
        assert!(matches!(
            checkpoint_from_bytes(Bytes::from(bytes)).unwrap_err(),
            SerializeError::Checksum { .. }
        ));
    }

    #[test]
    fn non_permutation_order_is_rejected() {
        let mut cp = sample();
        cp.order = vec![0, 0, 1, 2, 3];
        let err = checkpoint_from_bytes(checkpoint_to_bytes(&cp)).unwrap_err();
        assert!(err.to_string().contains("permutation"));
    }

    #[test]
    fn embedded_model_with_wrapping_span_is_a_format_error() {
        let model = crate::serialize::tests::wrapping_span_file(4);
        let mut payload = BytesMut::new();
        payload.put_u32_le(1);
        payload.put_u32_le(model.len() as u32);
        payload.put_slice(&model);
        let mut bytes = BytesMut::new();
        bytes.put_slice(MAGIC);
        bytes.put_u32_le(V1_VERSION);
        bytes.put_u64_le(fnv1a64(&payload));
        bytes.put_slice(&payload);
        let err = checkpoint_from_bytes(bytes.freeze()).unwrap_err();
        assert!(matches!(err, SerializeError::Format(_)), "{err}");
    }

    #[test]
    fn file_round_trip_is_atomic_friendly() {
        let dir = std::env::temp_dir().join(format!("mei_ckpt_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("train.ckpt");
        let cp = sample();
        save_checkpoint(&cp, &path).unwrap();
        let restored = load_checkpoint(&path).unwrap();
        assert_eq!(restored.epoch, cp.epoch);
        std::fs::remove_dir_all(&dir).ok();
    }
}
