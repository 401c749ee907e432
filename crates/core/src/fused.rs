//! Fused optimizer-step + L2-projection pass over the workspace's
//! gradient slabs.
//!
//! A two-pass tail walks every touched row twice: once to apply the
//! optimizer update, once to re-project entities onto the unit sphere.
//! Both passes stream the same randomly indexed embedding rows through
//! memory, so fusing them halves the tail's memory traffic — and because
//! every touched row is independent of every other (the workspace's key
//! lists are slot-interned, each row appears exactly once), the fused
//! pass can also run rows on multiple workers.
//!
//! # Why the fusion and the parallelism are bit-exact
//!
//! The reference sequence is: step all rows (first-touch order) → project
//! all entity rows. The fused sequence is: step-then-project each row,
//! rows sharded across workers. Every operation involved touches only
//! that row's parameters and that row's optimizer moments — disjoint
//! state per row — so reordering across rows cannot change any value, and
//! within a row the step always precedes the projection exactly as in the
//! two-pass order. The per-row math itself is [`mei_optim::StepState`]
//! (the code `Optimizer::update` runs) and the same
//! [`mei_math::normalize_l2`] call `EmbeddingTable::normalize_item`
//! makes. This module's tests run the two-pass sequence as the reference
//! and compare both passes bit for bit.

use mei_math::normalize_l2;
use mei_optim::Optimizer;

use crate::grads::GradWorkspace;
use crate::model::MultiEmbedModel;

/// Raw view of one embedding table, sliceable into disjoint rows from
/// multiple threads.
struct TablePtr {
    ptr: *mut f32,
    len: usize,
}

// SAFETY: the table is only dereferenced through `TablePtr::row`, and the
// fused pass hands each worker a disjoint set of slot-interned keys, so
// no element is ever aliased across threads.
unsafe impl Send for TablePtr {}
unsafe impl Sync for TablePtr {}

impl TablePtr {
    fn new(s: &mut [f32]) -> Self {
        Self { ptr: s.as_mut_ptr(), len: s.len() }
    }

    /// # Safety
    /// The returned row must not overlap any other row obtained from this
    /// table that is simultaneously live (disjoint offset ranges).
    #[allow(clippy::mut_from_ref)] // disjointness is the caller's contract
    unsafe fn row(&self, offset: usize, len: usize) -> &mut [f32] {
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "fused: row out of range"
        );
        std::slice::from_raw_parts_mut(self.ptr.add(offset), len)
    }
}

/// Contiguous shard `i` of `n` over `len` items: the first `len % n`
/// shards take one extra item. Deterministic and machine-independent —
/// though even that is belt-and-braces, since row updates commute bitwise.
pub(crate) fn shard_bounds(len: usize, i: usize, n: usize) -> (usize, usize) {
    let base = len / n;
    let extra = len % n;
    let start = i * base + i.min(extra);
    (start, start + base + usize::from(i < extra))
}

/// Applies the optimizer step to every touched row and (optionally) the
/// unit-sphere projection to every touched entity row, in one pass over
/// the workspace's slabs, sharded across up to `threads` workers.
///
/// `ent_params` is the entity table's size in the optimizer's flat
/// parameter space (relation offsets start there). The caller must have
/// called `step_begin` on `optimizer` for this step already.
///
/// # Panics
/// Panics if `workspace` was last computed by
/// [`GradWorkspace::compute_kvsall`].
pub(crate) fn fused_step_project(
    model: &mut MultiEmbedModel,
    workspace: &GradWorkspace,
    optimizer: &mut dyn Optimizer,
    unit_norm_entities: bool,
    ent_params: usize,
    threads: usize,
) {
    let parts = workspace
        .blocked_parts()
        .expect("fused step/project requires a negative-sampling workspace");
    let dim = model.config().dim;
    let n_comp = parts.ent_row_len.checked_div(dim).unwrap_or(0);
    let n_ent = parts.ent_keys.len();
    let total = n_ent + parts.rel_keys.len();
    if total == 0 {
        return;
    }

    let step = optimizer.step_state();
    let entities = TablePtr::new(model.entities.as_mut_slice());
    let relations = TablePtr::new(model.relations.as_mut_slice());

    // One job index space covering entity rows then relation rows, so a
    // single shard split balances both tables across the workers.
    let run_jobs = |jobs: std::ops::Range<usize>| {
        for j in jobs {
            if j < n_ent {
                let e = parts.ent_keys[j] as usize;
                let len = parts.ent_row_len;
                let grad = &parts.ent_slab[j * len..(j + 1) * len];
                // SAFETY: key lists are slot-interned (each entity appears
                // exactly once), so every job addresses a distinct row.
                let row = unsafe { entities.row(e * len, len) };
                // SAFETY: distinct rows ⇒ disjoint optimizer state ranges.
                unsafe { step.update_row(e * len, row, grad) };
                if unit_norm_entities {
                    for c in 0..n_comp {
                        normalize_l2(&mut row[c * dim..(c + 1) * dim]);
                    }
                }
            } else {
                let s = j - n_ent;
                let r = parts.rel_keys[s] as usize;
                let len = parts.rel_row_len;
                let grad = &parts.rel_slab[s * len..(s + 1) * len];
                // SAFETY: as above — each relation key appears exactly once.
                let row = unsafe { relations.row(r * len, len) };
                // SAFETY: relation state lives past `ent_params`, disjoint
                // from every entity range and from other relation rows.
                unsafe { step.update_row(ent_params + r * len, row, grad) };
            }
        }
    };

    let workers = threads.max(1).min(total);
    if workers <= 1 {
        run_jobs(0..total);
    } else {
        rayon::scope(|s| {
            for w in 0..workers {
                let run_jobs = &run_jobs;
                let (start, end) = shard_bounds(total, w, workers);
                s.spawn(move |_| run_jobs(start..end));
            }
        });
    }
}

/// The k-vs-all variant of [`fused_step_project`]: the entity-table
/// gradient is dense (full softmax touches every entity row), so the job
/// space is *all* entity rows in entity order plus the sparse relation
/// keys. Per-batch optimizer state moves for every entity — inherent to
/// the full-softmax regime, not an implementation choice.
///
/// # Panics
/// Panics if `workspace` was not computed by
/// [`GradWorkspace::compute_kvsall`].
pub(crate) fn fused_step_project_kvsall(
    model: &mut MultiEmbedModel,
    workspace: &GradWorkspace,
    optimizer: &mut dyn Optimizer,
    unit_norm_entities: bool,
    ent_params: usize,
    threads: usize,
) {
    let parts = workspace
        .kvsall_parts()
        .expect("kvsall fused step requires a kvsall-computed workspace");
    let dim = model.config().dim;
    let n_comp = parts.ent_row_len.checked_div(dim).unwrap_or(0);
    let n_ent = parts.dense_ent.len() / parts.ent_row_len.max(1);
    let total = n_ent + parts.rel_keys.len();
    if total == 0 {
        return;
    }

    let step = optimizer.step_state();
    let entities = TablePtr::new(model.entities.as_mut_slice());
    let relations = TablePtr::new(model.relations.as_mut_slice());

    let run_jobs = |jobs: std::ops::Range<usize>| {
        for j in jobs {
            if j < n_ent {
                let len = parts.ent_row_len;
                let grad = &parts.dense_ent[j * len..(j + 1) * len];
                // SAFETY: dense entity jobs are indexed by entity id, so
                // every job addresses a distinct row and a disjoint
                // optimizer state range.
                let row = unsafe { entities.row(j * len, len) };
                unsafe { step.update_row(j * len, row, grad) };
                if unit_norm_entities {
                    for c in 0..n_comp {
                        normalize_l2(&mut row[c * dim..(c + 1) * dim]);
                    }
                }
            } else {
                let s = j - n_ent;
                let r = parts.rel_keys[s] as usize;
                let len = parts.rel_row_len;
                let grad = &parts.rel_slab[s * len..(s + 1) * len];
                // SAFETY: relation keys are slot-interned (each appears
                // exactly once); relation state lives past `ent_params`.
                let row = unsafe { relations.row(r * len, len) };
                unsafe { step.update_row(ent_params + r * len, row, grad) };
            }
        }
    };

    let workers = threads.max(1).min(total);
    if workers <= 1 {
        run_jobs(0..total);
    } else {
        rayon::scope(|s| {
            for w in 0..workers {
                let run_jobs = &run_jobs;
                let (start, end) = shard_bounds(total, w, workers);
                s.spawn(move |_| run_jobs(start..end));
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grads::{KvRegConfig, RowKey};
    use crate::loss::Label;
    use crate::trainer::LossKind;
    use crate::weights::WeightPreset;
    use mei_kg::Triple;
    use mei_optim::OptimizerKind;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model(seed: u64) -> MultiEmbedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiEmbedModel::from_preset(WeightPreset::ComplEx, 9, 3, 4, &mut rng)
    }

    fn toy_batch() -> Vec<(Triple, Label)> {
        vec![
            (Triple::new(0, 1, 0), Label::Positive),
            (Triple::new(0, 5, 0), Label::Negative),
            (Triple::new(2, 3, 1), Label::Positive),
            (Triple::new(7, 3, 1), Label::Negative),
            (Triple::new(4, 4, 2), Label::Positive),
            (Triple::new(4, 8, 2), Label::Negative),
        ]
    }

    #[test]
    fn shard_bounds_cover_everything_once() {
        for len in [0usize, 1, 5, 16, 17] {
            for n in [1usize, 2, 3, 8] {
                let mut covered = Vec::new();
                for i in 0..n {
                    let (s, e) = shard_bounds(len, i, n);
                    covered.extend(s..e);
                }
                assert_eq!(covered, (0..len).collect::<Vec<_>>(), "len={len} n={n}");
            }
        }
    }

    /// Fused one-pass step+project vs the reference two-pass sequence
    /// (step all rows, then project entities), across optimizers, thread
    /// counts, and both unit-norm settings — all bit-identical.
    #[test]
    fn fused_pass_matches_two_pass_reference_bitwise() {
        let batch = toy_batch();
        for kind in [OptimizerKind::Sgd, OptimizerKind::Adam] {
            for unit_norm in [false, true] {
                // Reference: the two-pass tail.
                let mut ref_model = toy_model(21);
                let ent_params = ref_model.entities.len();
                let state_len = ent_params + ref_model.relations.len();
                let mut ws = GradWorkspace::with_threads(1);
                ws.compute(&ref_model, &batch, 0.01, LossKind::Logistic, 2, None);
                let mut ref_opt = kind.build(state_len, 0.05);
                ref_opt.step_begin();
                ws.for_each_row(|row, grad| match row {
                    RowKey::Entity(e) => {
                        let off = ref_model.entities.row_offset(e);
                        ref_opt.update(off, ref_model.entities.row_mut(e), grad);
                    }
                    RowKey::Relation(r) => {
                        let off = ent_params + ref_model.relations.row_offset(r);
                        ref_opt.update(off, ref_model.relations.row_mut(r), grad);
                    }
                });
                if unit_norm {
                    ws.for_each_row(|row, _| {
                        if let RowKey::Entity(e) = row {
                            ref_model.entities.normalize_item(e);
                        }
                    });
                }

                for threads in [1usize, 3, 8] {
                    let mut model = toy_model(21);
                    let mut ws = GradWorkspace::with_threads(1);
                    ws.compute(&model, &batch, 0.01, LossKind::Logistic, 2, None);
                    let mut opt = kind.build(state_len, 0.05);
                    opt.step_begin();
                    fused_step_project(
                        &mut model,
                        &ws,
                        opt.as_mut(),
                        unit_norm,
                        ent_params,
                        threads,
                    );
                    assert_eq!(
                        ref_model.entities.as_slice(),
                        model.entities.as_slice(),
                        "{kind:?} unit_norm={unit_norm} threads={threads}: entities"
                    );
                    assert_eq!(
                        ref_model.relations.as_slice(),
                        model.relations.as_slice(),
                        "{kind:?} unit_norm={unit_norm} threads={threads}: relations"
                    );
                    assert_eq!(
                        ref_opt.export_state(),
                        opt.export_state(),
                        "{kind:?} unit_norm={unit_norm} threads={threads}: optimizer state"
                    );
                }
            }
        }
    }

    /// The dense kvsall fused pass vs the same two-pass reference
    /// (step every row via `for_each_row`, then project entities),
    /// bit-identical across optimizers, thread counts, and unit-norm.
    #[test]
    fn kvsall_fused_pass_matches_two_pass_reference_bitwise() {
        use crate::grads::KvQuery;
        use mei_eval::Side;
        use mei_kg::{SortedTargets, TripleStore};

        let store = TripleStore::from_triples(toy_batch().into_iter().map(|(t, _)| t));
        let targets = SortedTargets::from_store(&store);
        let mut queries = Vec::new();
        for &t in store.triples() {
            queries.push(KvQuery { side: Side::Tail, anchor: t.head, relation: t.relation });
            queries.push(KvQuery { side: Side::Head, anchor: t.tail, relation: t.relation });
        }
        queries.dedup();

        for kind in [OptimizerKind::Sgd, OptimizerKind::Adam] {
            for unit_norm in [false, true] {
                let mut ref_model = toy_model(29);
                let ent_params = ref_model.entities.len();
                let state_len = ent_params + ref_model.relations.len();
                let mut ws = GradWorkspace::with_threads(1);
                ws.compute_kvsall(&ref_model, &queries, &targets, 0.01, 0.1, &KvRegConfig::default(), None);
                let mut ref_opt = kind.build(state_len, 0.05);
                ref_opt.step_begin();
                ws.for_each_row(|row, grad| match row {
                    RowKey::Entity(e) => {
                        let off = ref_model.entities.row_offset(e);
                        ref_opt.update(off, ref_model.entities.row_mut(e), grad);
                    }
                    RowKey::Relation(r) => {
                        let off = ent_params + ref_model.relations.row_offset(r);
                        ref_opt.update(off, ref_model.relations.row_mut(r), grad);
                    }
                });
                if unit_norm {
                    ws.for_each_row(|row, _| {
                        if let RowKey::Entity(e) = row {
                            ref_model.entities.normalize_item(e);
                        }
                    });
                }

                for threads in [1usize, 3, 8] {
                    let mut model = toy_model(29);
                    let mut ws = GradWorkspace::with_threads(1);
                    ws.compute_kvsall(&model, &queries, &targets, 0.01, 0.1, &KvRegConfig::default(), None);
                    let mut opt = kind.build(state_len, 0.05);
                    opt.step_begin();
                    fused_step_project_kvsall(
                        &mut model,
                        &ws,
                        opt.as_mut(),
                        unit_norm,
                        ent_params,
                        threads,
                    );
                    assert_eq!(
                        ref_model.entities.as_slice(),
                        model.entities.as_slice(),
                        "{kind:?} unit_norm={unit_norm} threads={threads}: entities"
                    );
                    assert_eq!(
                        ref_model.relations.as_slice(),
                        model.relations.as_slice(),
                        "{kind:?} unit_norm={unit_norm} threads={threads}: relations"
                    );
                    assert_eq!(
                        ref_opt.export_state(),
                        opt.export_state(),
                        "{kind:?} unit_norm={unit_norm} threads={threads}: optimizer state"
                    );
                }
            }
        }
    }
}
