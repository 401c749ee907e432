//! Batch gradient computation for the trainer: one path per sampling
//! regime.
//!
//! **Negative sampling** ([`GradWorkspace::compute`]) batches each
//! positive with its corrupted negatives: each group builds one anchor
//! context per distinct (side, anchor, relation), scores the whole group
//! through one [`mei_math::kernels::dot_gather`] call while the contexts
//! are still in L1, and scatters gradients into flat pre-indexed slabs.
//! On a single chunk the merge is a zero-copy buffer swap; across chunks
//! it is a deterministic parallel slot-scatter.
//!
//! **k-vs-all** ([`GradWorkspace::compute_kvsall`]) scores each
//! [`KvQuery`] against *every* entity with one cache-blocked
//! [`mei_math::kernels::gemm_nt`], takes the softmax–cross-entropy
//! residual in place, and decomposes the backward into two GEMM-shaped
//! passes (residual × entity table → per-query context gradients;
//! residualᵀ × contexts → the dense entity-table gradient) plus the same
//! sparse scatter core as the sampled path for anchor/relation/ω rows.
//! The regularizers of [`KvRegConfig`] run only when switched on (see
//! DESIGN.md §12 for the decomposition and determinism argument).
//!
//! # Determinism contract
//!
//! Chunk boundaries are a pure function of the batch shape (a fixed
//! `SCHEDULE_CHUNKS`-way split, never derived from the core count),
//! workers drain a chunk queue into disjoint per-chunk scratch, and the
//! merge combines chunks in chunk order regardless of which worker ran
//! which chunk. `--threads N` is a speed knob only:
//! `tests/parallel_parity.rs` and `tests/kvsall_parity.rs` assert N-thread
//! training is byte-identical to 1-thread training, and
//! `tests/golden_runs.rs` pins the training bytes across commits.
//!
//! The sampled path's bytes equal those of a plain per-example reference —
//! each example scored through its own context, gradients added into
//! zeroed per-chunk rows, chunks merged in order — which this module's
//! tests keep as an oracle (`grads/oracle.rs`) and compare bytewise.

use std::time::Instant;

use mei_eval::Side;
use mei_kg::{EntityId, RelationId, SortedTargets, Triple};
use mei_math::kernels::{
    axpy_fast, dot_gather, gemm_nn_acc, gemm_nt, gemm_tn_acc, hadamard_axpy_fast,
    hadamard_write_fast, scale_add_l2_fast, scale_write_l2_fast, trilinear_fast,
};
use mei_math::reg::{
    accumulate_moments, apply_mask_in_place, apply_mask_into, bn_apply, bn_backward_row,
    fill_dropout_mask, finalize_moments, mask_stream_base,
};
use mei_obs::PhaseBreakdown;

use crate::fused::shard_bounds;
use crate::loss::{logistic_loss, logistic_loss_grad, softmax_ce_residual, Label};
use crate::model::MultiEmbedModel;
use crate::trainer::LossKind;

#[cfg(test)]
mod oracle;

/// Addresses one embedding row during gradient accumulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RowKey {
    /// A row of the entity table.
    Entity(usize),
    /// A row of the relation table.
    Relation(usize),
}

/// The gradient machinery [`crate::TrainConfig::grad_path`] names.
///
/// Negative sampling has one implementation, so this type has one value
/// and selects nothing; it stays so that configurations naming it still
/// build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GradPath {
    /// Gathered-GEMM forward over shared anchor contexts with flat
    /// slot-indexed gradient slabs and a parallel deterministic merge.
    #[default]
    Blocked,
}

/// Below this many merged floats the blocked merge runs inline: spawning
/// scoped threads costs more than the memory traffic it would split.
const PAR_MERGE_MIN: usize = 1 << 16;

/// One k-vs-all query group: a `(side, anchor, relation)` whose score row
/// spans the whole entity vocabulary.
///
/// `side` names which slot the candidates fill: [`Side::Tail`] ranks all
/// tails of `(anchor, relation, ?)`, [`Side::Head`] all heads of
/// `(?, relation, anchor)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KvQuery {
    /// Which slot the candidate entities fill.
    pub side: Side,
    /// The fixed entity of the query (head for tail-ranking, tail for
    /// head-ranking).
    pub anchor: EntityId,
    /// The relation of the query.
    pub relation: RelationId,
}

/// Regularization knobs for [`GradWorkspace::compute_kvsall`]; the
/// default switches every regularizer off.
///
/// All masks are **counter-based**: a mask bit is a pure function of
/// `(mask_seed, global query index, stream)` through
/// [`mei_math::reg::mask_stream_base`], so the forward and backward
/// passes regenerate identical masks on any worker in any order — the
/// thread-count bit-identity contract holds with every knob.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct KvRegConfig {
    /// Dropout probability on the interaction context (after batch norm,
    /// before the score GEMM). `0.0` disables.
    pub dropout: f32,
    /// Dropout probability on the anchor and relation embedding rows
    /// feeding the context build. `0.0` disables.
    pub input_dropout: f32,
    /// Batch-normalize the interaction contexts over the batch (training
    /// mode: batch statistics; the model's running stats are updated by
    /// the trainer). Requires the model to carry an
    /// [`crate::model::InteractionNorm`].
    pub batch_norm: bool,
    /// Seed for this batch's dropout masks; the trainer draws one per
    /// regularized batch from the training RNG so masks differ across
    /// batches but resume bitwise from checkpoints.
    pub mask_seed: u64,
}

impl KvRegConfig {
    /// Whether any regularizer is on. Only regularized batches draw a
    /// mask seed in the trainer, and they scatter in their own order (see
    /// [`GradWorkspace::compute_kvsall`]).
    pub(crate) fn is_active(&self) -> bool {
        self.dropout > 0.0 || self.input_dropout > 0.0 || self.batch_norm
    }
}

/// Mask stream ids: one per masked tensor kind, so a query's context,
/// anchor-row, and relation-row masks are independent.
const MASK_STREAM_CTX: u64 = 0;
const MASK_STREAM_ANCHOR: u64 = 1;
const MASK_STREAM_REL: u64 = 2;

/// Which side of the positive an example corrupts — determines which
/// anchor context scores it. The positive itself is scored tail-side.
#[inline]
fn side_of(pos: Triple, ex: Triple) -> Side {
    if ex.head != pos.head {
        Side::Head
    } else {
        Side::Tail
    }
}

#[inline]
fn candidate_of(ex: Triple, side: Side) -> usize {
    match side {
        Side::Tail => ex.tail.idx(),
        Side::Head => ex.head.idx(),
    }
}

/// Best-effort prefetch of `len` floats starting at `table[start]`; a
/// no-op off x86-64 or when the range is out of bounds. The sampled path
/// issues these one group ahead so the cold, randomly indexed entity rows
/// are already in flight when the gather kernel asks for them.
#[inline(always)]
fn prefetch_range(table: &[f32], start: usize, len: usize) {
    #[cfg(target_arch = "x86_64")]
    {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        if start + len <= table.len() {
            let base = table[start..].as_ptr() as *const i8;
            let mut off = 0usize;
            while off < len * 4 {
                // SAFETY: prefetch is a hint and the range is in bounds.
                unsafe { _mm_prefetch::<_MM_HINT_T0>(base.add(off)) };
                off += 64;
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (table, start, len);
    }
}

/// Accumulates `coef · ∂S/∂θ` plus per-row L2 into `sink` for one
/// example, given its anchor context `ctx` (which *is* `∂S/∂candidate`).
///
/// The accumulation order — candidate row, anchor row, relation row, ω —
/// is part of the bit-identity contract with the test oracle: a self-loop
/// triple routes candidate and anchor into the same accumulator row.
fn accumulate_example(
    model: &MultiEmbedModel,
    ex: Triple,
    side: Side,
    ctx: &[f32],
    coef: f32,
    l2_coef: f32,
    sink: &mut BlockedSink<'_>,
) {
    // Candidate row: ∂S/∂cand = ctx, fused with its L2 pull. A fresh row
    // takes the single-pass write form instead of zero-fill-then-add.
    let cand = candidate_of(ex, side);
    let (entry, fresh) = sink.row_mut(RowKey::Entity(cand), model.entities.row_len());
    if fresh {
        scale_write_l2_fast(entry, ctx, coef, l2_coef, model.entities.row(cand));
    } else {
        scale_add_l2_fast(entry, ctx, coef, l2_coef, model.entities.row(cand));
    }
    let anchor = match side {
        Side::Tail => ex.head,
        Side::Head => ex.tail,
    };
    let operands = (
        model.entities.row(ex.head.idx()),
        model.entities.row(ex.tail.idx()),
        model.relations.row(ex.relation.idx()),
    );
    accumulate_anchor_side(
        model,
        side,
        anchor.idx(),
        ex.relation.idx(),
        operands,
        coef,
        l2_coef,
        None,
        sink,
    );
}

/// Where a regularized k-vs-all query stages its anchor and relation
/// contributions, and the input-dropout masks that scale them (`None`
/// when input dropout is off).
struct Staging<'a> {
    scratch: &'a mut Vec<f32>,
    anchor_mask: Option<&'a [f32]>,
    rel_mask: Option<&'a [f32]>,
}

/// Accumulates `coef · ∂S/∂θ` for the anchor row, the relation row and ω
/// of one scored `(h, t, r)`, each row with its L2 pull on the model's
/// own parameters.
///
/// On the sampled path `h`, `t` and `r` are the example's embedding rows.
/// On the k-vs-all path the candidate slot holds the query's residual sum
/// `Σ_e r_e·E_e` — the score is linear in the candidate — and the anchor
/// and relation operands are the rows the forward consumed (their
/// input-dropout views when that is on).
///
/// Without `staging` each term's contribution goes straight into the
/// accumulator row, a fresh row's first term per subslice taking the
/// write-form kernel. With `staging` the row's whole contribution is
/// built in scratch, scaled by its input mask, then copied or added: an
/// input mask must scale this query's contribution alone. The two orders
/// round differently, so unregularized and regularized k-vs-all batches
/// each keep their own (DESIGN.md §12).
#[allow(clippy::too_many_arguments)]
fn accumulate_anchor_side(
    model: &MultiEmbedModel,
    side: Side,
    anchor: usize,
    relation: usize,
    (h, t, r): (&[f32], &[f32], &[f32]),
    coef: f32,
    l2_coef: f32,
    mut staging: Option<Staging<'_>>,
    sink: &mut BlockedSink<'_>,
) {
    let d = model.config().dim;
    let sub = |c: usize| c * d..(c + 1) * d;
    // Anchor row: ∂S/∂h⁽ⁱ⁾ = Σ_{j,k} ω·t⁽ʲ⁾⊙r⁽ᵏ⁾ on the tail side,
    // ∂S/∂t⁽ʲ⁾ = Σ_{i,k} ω·h⁽ⁱ⁾⊙r⁽ᵏ⁾ on the head side.
    accumulate_row(
        model,
        RowKey::Entity(anchor),
        model.entities.row(anchor),
        coef,
        l2_coef,
        |i, j, k| match side {
            Side::Tail => (i, &t[sub(j)], &r[sub(k)]),
            Side::Head => (j, &h[sub(i)], &r[sub(k)]),
        },
        staging.as_mut().map(|s| (&mut *s.scratch, s.anchor_mask)),
        sink,
    );
    // Relation row: ∂S/∂r⁽ᵏ⁾ = Σ_{i,j} ω·h⁽ⁱ⁾⊙t⁽ʲ⁾.
    accumulate_row(
        model,
        RowKey::Relation(relation),
        model.relations.row(relation),
        coef,
        l2_coef,
        |i, j, k| (k, &h[sub(i)], &t[sub(j)]),
        staging.as_mut().map(|s| (&mut *s.scratch, s.rel_mask)),
        sink,
    );
    // ω: ∂S/∂ω_ijk = ⟨h⁽ⁱ⁾, t⁽ʲ⁾, r⁽ᵏ⁾⟩ over the full grid (when ω is
    // trainable, `model.terms()` enumerates every grid cell).
    if model.trainable_omega() {
        let n = model.config().n;
        let nr = model.omega().n_rel();
        for &(i, j, k, _) in model.terms() {
            let tri = trilinear_fast(&h[sub(i)], &t[sub(j)], &r[sub(k)]);
            sink.omega[(i * n + j) * nr + k] += coef * tri;
        }
    }
}

/// Adds `coef · Σ_terms ω·x⊙y` plus the L2 pull `l2_coef·params` into
/// the accumulator row `key`. `term(i, j, k)` names the `d`-wide subslice
/// grid cell `(i, j, k)` lands on and its operands `(x, y)`; `staging`
/// picks the order (see [`accumulate_anchor_side`]).
#[allow(clippy::too_many_arguments)]
fn accumulate_row<'a>(
    model: &MultiEmbedModel,
    key: RowKey,
    params: &[f32],
    coef: f32,
    l2_coef: f32,
    term: impl Fn(usize, usize, usize) -> (usize, &'a [f32], &'a [f32]),
    staging: Option<(&mut Vec<f32>, Option<&[f32]>)>,
    sink: &mut BlockedSink<'_>,
) {
    let d = model.config().dim;
    let len = params.len();
    let n_sub = len / d;
    let Some((scratch, mask)) = staging else {
        let (entry, fresh) = sink.row_mut(key, len);
        // Bit `s` set ⇒ subslice `s` already holds data; `MAX` disables
        // write-mode (row not fresh, or too many subslices for the mask).
        // A fresh row skips the zero-fill: each subslice's first term
        // takes the write-form kernel, later terms accumulate, and
        // subslices no term touches are zeroed before the L2 pull — all
        // bit-equal to zero-fill-then-accumulate.
        let mut written: u64 = if fresh && n_sub <= 64 { 0 } else { u64::MAX };
        if fresh && written == u64::MAX {
            entry.fill(0.0);
        }
        for &(i, j, k, w) in model.terms() {
            let cw = coef * w;
            if w == 0.0 {
                continue;
            }
            let (s, x, y) = term(i, j, k);
            let out = &mut entry[s * d..(s + 1) * d];
            if written & (1 << s) == 0 {
                written |= 1 << s;
                hadamard_write_fast(cw, x, y, out);
            } else {
                hadamard_axpy_fast(cw, x, y, out);
            }
        }
        if written != u64::MAX {
            for s in 0..n_sub {
                if written & (1 << s) == 0 {
                    entry[s * d..(s + 1) * d].fill(0.0);
                }
            }
        }
        axpy_fast(l2_coef, params, entry);
        return;
    };
    if scratch.len() < len {
        scratch.resize(len, 0.0);
    }
    let contrib = &mut scratch[..len];
    contrib.fill(0.0);
    for &(i, j, k, w) in model.terms() {
        if w == 0.0 {
            continue;
        }
        let (s, x, y) = term(i, j, k);
        hadamard_axpy_fast(coef * w, x, y, &mut contrib[s * d..(s + 1) * d]);
    }
    if let Some(mask) = mask {
        apply_mask_in_place(contrib, mask);
    }
    let (entry, fresh) = sink.row_mut(key, len);
    if fresh {
        entry.copy_from_slice(contrib);
    } else {
        for (acc, g) in entry.iter_mut().zip(contrib.iter()) {
            *acc += *g;
        }
    }
    axpy_fast(l2_coef, params, entry);
}

/// Number of group-aligned chunks a batch is split into, independent of
/// the worker count.
///
/// Chunk boundaries feed the per-chunk partial sums that the merge
/// combines in chunk order, so they must be a pure function of the batch
/// shape: deriving them from the thread count (as a work-stealing
/// scheduler would) would let the machine's core count reach the
/// floating-point stream and break the cross-thread-count bit-identity
/// contract. 16 chunks keep 8 workers busy (~2 chunks each) while staying
/// cheap to merge on one core.
const SCHEDULE_CHUNKS: usize = 16;

/// Group-aligned chunk length for `examples` split across the worker
/// pool. A pure function of the batch shape — never of the thread count.
fn chunk_len(examples_len: usize, group_len: usize) -> usize {
    let groups = examples_len.div_ceil(group_len);
    let groups_per_chunk = groups.div_ceil(SCHEDULE_CHUNKS).max(1);
    groups_per_chunk * group_len
}

/// Resolves a user-facing `threads` setting to a concrete worker count:
/// `0` means "all available cores", anything else is taken literally.
///
/// The resolved count never affects training results — only wall-clock —
/// so resolving at config time keeps logs and checkpoints honest about
/// what actually ran without putting the machine's core count anywhere
/// near the math.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        rayon::current_num_threads().max(1)
    } else {
        threads
    }
}

/// Runs `work(items, scratch, offset)` over `(item chunk, scratch chunk)`
/// pairs on a pool of at most `threads` workers draining a shared queue.
/// Items are labeled examples on the sampled path and [`KvQuery`] groups
/// on the k-vs-all path; `offset` is the chunk's first item index in the
/// batch (`chunk index × chunk`), which keys k-vs-all dropout masks by
/// batch-wide query index.
///
/// Which worker runs which chunk is invisible to the result: every chunk
/// writes only its own scratch, the offset is a pure function of the
/// batch shape, and the caller merges scratch in chunk order afterwards,
/// so neither the worker count nor OS scheduling can reach the
/// floating-point stream.
fn run_chunked<T: Sync, C: Send>(
    items: &[T],
    chunk: usize,
    scratch: &mut [C],
    threads: usize,
    work: impl Fn(&[T], &mut C, usize) + Sync,
) {
    let workers = threads.min(scratch.len());
    if workers <= 1 {
        for (ci, (it, c)) in items.chunks(chunk).zip(scratch.iter_mut()).enumerate() {
            work(it, c, ci * chunk);
        }
        return;
    }
    let queue = std::sync::Mutex::new(items.chunks(chunk).zip(scratch.iter_mut()).enumerate());
    rayon::scope(|s| {
        for _ in 0..workers {
            s.spawn(|_| loop {
                let next = queue.lock().unwrap().next();
                match next {
                    Some((ci, (ex, c))) => work(ex, c, ci * chunk),
                    None => break,
                }
            });
        }
    });
}

// ---------------------------------------------------------------------------
// Per-chunk scratch: gathered forward + flat slot-indexed slabs.
// ---------------------------------------------------------------------------

/// O(1) row-index → dense-slot map with O(1) whole-map invalidation: an
/// entry is live only when its stamp equals the current batch epoch, so
/// clearing between batches is a counter bump, not an array sweep.
#[derive(Default)]
struct SlotMap {
    /// Stamp in the high 32 bits, slot in the low 32: one randomly
    /// indexed cache line per lookup instead of two.
    packed: Vec<u64>,
}

impl SlotMap {
    fn ensure(&mut self, n: usize) {
        if self.packed.len() < n {
            self.packed.resize(n, 0);
        }
    }

    fn reset(&mut self) {
        self.packed.fill(0);
    }

    #[inline]
    fn lookup(&self, idx: usize, epoch: u32) -> Option<usize> {
        let p = self.packed[idx];
        ((p >> 32) as u32 == epoch).then_some(p as u32 as usize)
    }

    /// Returns the live slot for `idx`, or assigns the next one.
    #[inline]
    fn get_or_insert(&mut self, idx: usize, epoch: u32, next: usize) -> (usize, bool) {
        let p = self.packed[idx];
        if (p >> 32) as u32 == epoch {
            (p as u32 as usize, false)
        } else {
            self.packed[idx] = (u64::from(epoch) << 32) | next as u64;
            (next, true)
        }
    }
}

/// Input-dropout scratch for one chunk: the per-query anchor and relation
/// masks and the masked rows they produce.
#[derive(Default)]
struct InputMasks {
    anchor_mask: Vec<f32>,
    rel_mask: Vec<f32>,
    anchor_row: Vec<f32>,
    rel_row: Vec<f32>,
}

/// A query's anchor and relation rows as the forward consumed them, plus
/// the input masks that produced them (`None` when input dropout is off).
type MaskedInputs<'a> = (&'a [f32], &'a [f32], Option<&'a [f32]>, Option<&'a [f32]>);

impl InputMasks {
    /// The model's own rows for `q`, or — with input dropout on — their
    /// masked views, the masks regenerated from the counter RNG for the
    /// query's batch-wide index `gi` so forward and backward agree.
    fn apply<'a>(
        &'a mut self,
        model: &'a MultiEmbedModel,
        q: KvQuery,
        reg: &KvRegConfig,
        gi: usize,
    ) -> MaskedInputs<'a> {
        let a = model.entities.row(q.anchor.idx());
        let r = model.relations.row(q.relation.idx());
        if reg.input_dropout <= 0.0 {
            return (a, r, None, None);
        }
        let InputMasks { anchor_mask, rel_mask, anchor_row, rel_row } = self;
        for (mask, row, stream, params) in [
            (&mut *anchor_mask, &mut *anchor_row, MASK_STREAM_ANCHOR, a),
            (&mut *rel_mask, &mut *rel_row, MASK_STREAM_REL, r),
        ] {
            mask.resize(params.len(), 0.0);
            row.resize(params.len(), 0.0);
            fill_dropout_mask(mask_stream_base(reg.mask_seed, gi as u64, stream), reg.input_dropout, mask);
            apply_mask_into(params, mask, row);
        }
        (anchor_row, rel_row, Some(anchor_mask), Some(rel_mask))
    }
}

/// Per-chunk scratch. Slabs, index arrays, and the context/pair/score
/// buffers are all retained across batches.
#[derive(Default)]
struct BlockedChunk {
    ent: SlotMap,
    rel: SlotMap,
    ent_keys: Vec<u32>,
    rel_keys: Vec<u32>,
    ent_slab: Vec<f32>,
    rel_slab: Vec<f32>,
    omega: Vec<f32>,
    loss: f64,
    /// Packed anchor contexts (`kdim` floats each): the current group's
    /// on the sampled path (kept group-sized so they stay L1-resident
    /// across build, gather, and backward), every query's score-GEMM
    /// operand on the k-vs-all path.
    ctxs: Vec<f32>,
    /// The current group's (context row, candidate entity) forward indices.
    pairs: Vec<(u32, u32)>,
    scores: Vec<f32>,
    /// Context directory for the current group: (side, anchor entity,
    /// relation, ctx row).
    group_anchors: Vec<(Side, u32, u32, u32)>,
    /// k-vs-all: `∂L/∂ctx` per query (`kdim` floats each), built from the
    /// residual-weighted entity sums — the shared operand of the sparse
    /// anchor/relation/ω backward.
    gctx: Vec<f32>,
    /// k-vs-all: query groups this chunk processed in the current batch.
    /// The sequential reductions and pass B read `scores`/`ctxs` through
    /// this count after the chunk workers have finished.
    groups: usize,
    /// k-vs-all with batch norm: pre-norm interaction contexts (`kdim` per
    /// query) — the batch-norm backward recomputes `x̂` from these while
    /// `ctxs` holds the post-norm post-dropout values the GEMMs consumed.
    raw_ctxs: Vec<f32>,
    /// k-vs-all dropout scratch, regenerated per query: the context mask
    /// and the input masks with the rows they produce.
    ctx_mask: Vec<f32>,
    inputs: InputMasks,
    /// Staging row for regularized k-vs-all scatters.
    staging: Vec<f32>,
}

/// One chunk's accumulator: slot-interned entity and relation rows plus
/// the dense effective-ω gradient.
struct BlockedSink<'a> {
    epoch: u32,
    ent: &'a mut SlotMap,
    ent_keys: &'a mut Vec<u32>,
    ent_slab: &'a mut Vec<f32>,
    rel: &'a mut SlotMap,
    rel_keys: &'a mut Vec<u32>,
    rel_slab: &'a mut Vec<f32>,
    omega: &'a mut Vec<f32>,
}

impl BlockedSink<'_> {
    /// The accumulator row for `key`, plus whether this is its first
    /// touch of the batch (`true` means the contents are unspecified — a
    /// recycled slot still holds an earlier batch's data — and must be
    /// fully initialized before any read-modify-write).
    fn row_mut(&mut self, key: RowKey, len: usize) -> (&mut [f32], bool) {
        let (map, keys, slab, idx) = match key {
            RowKey::Entity(e) => (&mut *self.ent, &mut *self.ent_keys, &mut *self.ent_slab, e),
            RowKey::Relation(r) => (&mut *self.rel, &mut *self.rel_keys, &mut *self.rel_slab, r),
        };
        let (slot, fresh) = map.get_or_insert(idx, self.epoch, keys.len());
        if fresh {
            keys.push(idx as u32);
            let end = (slot + 1) * len;
            if slab.len() < end {
                slab.resize(end, 0.0);
            }
        }
        (&mut slab[slot * len..(slot + 1) * len], fresh)
    }
}

impl BlockedChunk {
    /// Clears the chunk's accumulator for a new batch.
    fn clear_sink(&mut self, n3: usize) {
        self.ent_keys.clear();
        self.rel_keys.clear();
        if self.omega.len() == n3 {
            self.omega.fill(0.0);
        } else {
            self.omega = vec![0.0; n3];
        }
    }
}

// ---------------------------------------------------------------------------
// Negative sampling: gathered forward + flat slot-indexed slabs.
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn run_blocked_chunk(
    model: &MultiEmbedModel,
    chunk_examples: &[(Triple, Label)],
    group_len: usize,
    l2_coef: f32,
    loss_kind: LossKind,
    n3: usize,
    epoch: u32,
    c: &mut BlockedChunk,
) {
    let kdim = model.config().n * model.config().dim;
    let ent_row_len = model.entities.row_len();
    let entity_table = model.entities.as_slice();
    c.loss = 0.0;
    c.clear_sink(n3);

    let BlockedChunk {
        ent, rel, ent_keys, rel_keys, ent_slab, rel_slab, omega, loss, ctxs, pairs, scores, group_anchors, ..
    } = c;
    let mut sink = BlockedSink { epoch, ent, ent_keys, ent_slab, rel, rel_keys, rel_slab, omega };

    // Group-local three-stage forward/backward: the contexts, pairs, and
    // scores of one group fit in L1, so unlike a chunk-wide staging
    // buffer nothing is streamed through memory three times.
    let n_groups = chunk_examples.len().div_ceil(group_len);
    for gi in 0..n_groups {
        let group = &chunk_examples[gi * group_len..((gi + 1) * group_len).min(chunk_examples.len())];
        // Get next group's cold, randomly indexed entity rows in flight
        // behind this group's arithmetic.
        if gi + 1 < n_groups {
            let next = &chunk_examples[(gi + 1) * group_len..((gi + 2) * group_len).min(chunk_examples.len())];
            for &(ex, _) in next {
                prefetch_range(entity_table, ex.head.idx() * ent_row_len, ent_row_len);
                prefetch_range(entity_table, ex.tail.idx() * ent_row_len, ent_row_len);
            }
        }
        let pos = group[0].0;

        // Stage 1: one anchor context per distinct (side, anchor,
        // relation) in the group — for trainer batches (one positive plus
        // its corruptions) that is at most one tail-side and one
        // head-side context, so k negatives share the forward context the
        // positive already paid for.
        group_anchors.clear();
        pairs.clear();
        for &(ex, _) in group {
            let side = side_of(pos, ex);
            let (anchor, rel_id) = match side {
                Side::Tail => (ex.head, ex.relation),
                Side::Head => (ex.tail, ex.relation),
            };
            let key = (side, anchor.idx() as u32, rel_id.idx() as u32);
            let ctx_row = match group_anchors.iter().find(|a| (a.0, a.1, a.2) == key) {
                Some(a) => a.3,
                None => {
                    let row = group_anchors.len() as u32;
                    let end = (row as usize + 1) * kdim;
                    if ctxs.len() < end {
                        ctxs.resize(end, 0.0);
                    }
                    // The context builders fully overwrite the slice, so
                    // reusing it across groups needs no re-zeroing.
                    let ctx = &mut ctxs[row as usize * kdim..end];
                    match side {
                        Side::Tail => model.tail_context(anchor, rel_id, ctx),
                        Side::Head => model.head_context(anchor, rel_id, ctx),
                    }
                    group_anchors.push((key.0, key.1, key.2, row));
                    row
                }
            };
            pairs.push((ctx_row, candidate_of(ex, side) as u32));
        }

        // Stage 2: the group's forward pass in one gathered kernel call.
        scores.resize(pairs.len(), 0.0);
        dot_gather(&ctxs[..group_anchors.len() * kdim], entity_table, kdim, pairs, scores);

        // Stage 3: stream-order backward through the shared core.
        let ctx_of = |row: u32| &ctxs[row as usize * kdim..(row as usize + 1) * kdim];
        match loss_kind {
            LossKind::Logistic => {
                for (p, &(ex, label)) in group.iter().enumerate() {
                    let side = side_of(pos, ex);
                    let score = scores[p];
                    *loss += f64::from(logistic_loss(score, label));
                    let coef = logistic_loss_grad(score, label);
                    accumulate_example(model, ex, side, ctx_of(pairs[p].0), coef, l2_coef, &mut sink);
                }
            }
            LossKind::MarginRanking { margin } => {
                let pos_ctx = pairs[0].0;
                let pos_score = scores[0];
                for (p, &(neg, _)) in group.iter().enumerate().skip(1) {
                    let side = side_of(pos, neg);
                    let pair_loss = (margin - pos_score + scores[p]).max(0.0);
                    *loss += f64::from(pair_loss);
                    if pair_loss > 0.0 {
                        // ∂/∂S(pos) = −1, ∂/∂S(neg) = +1.
                        accumulate_example(model, pos, Side::Tail, ctx_of(pos_ctx), -1.0, l2_coef, &mut sink);
                        accumulate_example(model, neg, side, ctx_of(pairs[p].0), 1.0, l2_coef, &mut sink);
                    }
                }
            }
            LossKind::SoftmaxCrossEntropy { .. } => {
                panic!("softmax cross-entropy runs on the k-vs-all path (compute_kvsall), not compute")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// k-vs-all: full-softmax GEMM forward + GEMM-shaped backward, with input
// dropout → batch norm → context dropout applied where switched on.
// ---------------------------------------------------------------------------

/// Batch-norm operands for the forward chunk:
/// `(batch mean, batch inverse std, γ, β)`, each `kdim` long.
type BnForward<'a> = (&'a [f32], &'a [f32], &'a [f32], &'a [f32]);

/// Batch-norm operands for the backward scatter:
/// `(batch mean, batch inverse std, γ, Σgβ/Q, Σgγ/Q)`, each `kdim` long.
type BnBackward<'a> = (&'a [f32], &'a [f32], &'a [f32], &'a [f32], &'a [f32]);

/// Forward phase 1: each query's interaction context, built from its
/// anchor and relation rows as [`InputMasks::apply`] hands them out. With
/// batch norm the contexts land in `raw_ctxs` for the batch moments;
/// without it they go straight into `ctxs`, the score GEMM's operand.
fn kv_context_chunk(
    model: &MultiEmbedModel,
    queries: &[KvQuery],
    reg: &KvRegConfig,
    base: usize,
    c: &mut BlockedChunk,
) {
    let kdim = model.config().n * model.config().dim;
    c.groups = queries.len();
    let cn = queries.len() * kdim;
    let BlockedChunk { ctxs, raw_ctxs, inputs, .. } = c;
    let out = if reg.batch_norm { raw_ctxs } else { ctxs };
    if out.len() < cn {
        out.resize(cn, 0.0);
    }
    for (g, (&q, ctx)) in queries.iter().zip(out[..cn].chunks_mut(kdim)).enumerate() {
        let (a_row, r_row, _, _) = inputs.apply(model, q, reg, base + g);
        match q.side {
            Side::Tail => model.tail_context_from_rows(a_row, r_row, ctx),
            Side::Head => model.head_context_from_rows(a_row, r_row, ctx),
        }
    }
}

/// Forward phase 2: normalize each raw context with the **batch**
/// statistics (training-mode batch norm) when on, apply context dropout
/// when on, then score every context against the whole entity table in
/// one cache-blocked GEMM and take each score row's softmax–cross-entropy
/// residual in place (so `scores` holds `∂L/∂S`). Afterwards `ctxs` holds
/// exactly the GEMM's operand, which pass B's entity-gradient GEMM
/// (`residualᵀ·ctxs`) reuses.
#[allow(clippy::too_many_arguments)]
fn kv_score_chunk(
    model: &MultiEmbedModel,
    queries: &[KvQuery],
    targets: &SortedTargets,
    label_smooth: f32,
    reg: &KvRegConfig,
    base: usize,
    bn: Option<BnForward<'_>>,
    c: &mut BlockedChunk,
) {
    let kdim = model.config().n * model.config().dim;
    let ne = model.entities.num_items();
    let entity_table = model.entities.as_slice();
    c.loss = 0.0;
    let cn = queries.len() * kdim;
    if bn.is_some() || reg.dropout > 0.0 {
        let BlockedChunk { ctxs, raw_ctxs, ctx_mask, .. } = &mut *c;
        if ctxs.len() < cn {
            ctxs.resize(cn, 0.0);
        }
        ctx_mask.resize(kdim, 0.0);
        for g in 0..queries.len() {
            let ctx = &mut ctxs[g * kdim..(g + 1) * kdim];
            if let Some((mean, istd, gamma, beta)) = bn {
                ctx.copy_from_slice(&raw_ctxs[g * kdim..(g + 1) * kdim]);
                bn_apply(ctx, mean, istd, gamma, beta);
            }
            if reg.dropout > 0.0 {
                fill_dropout_mask(
                    mask_stream_base(reg.mask_seed, (base + g) as u64, MASK_STREAM_CTX),
                    reg.dropout,
                    ctx_mask,
                );
                apply_mask_in_place(ctx, ctx_mask);
            }
        }
    }
    let sn = queries.len() * ne;
    if c.scores.len() < sn {
        c.scores.resize(sn, 0.0);
    }
    gemm_nt(&c.ctxs[..cn], entity_table, kdim, &mut c.scores[..sn]);
    for (g, q) in queries.iter().enumerate() {
        let t = match q.side {
            Side::Tail => targets.tails_of(q.anchor, q.relation),
            Side::Head => targets.heads_of(q.anchor, q.relation),
        };
        c.loss += softmax_ce_residual(&mut c.scores[g * ne..(g + 1) * ne], t, label_smooth);
    }
}

/// Backward phase 1 (pass A): collapse each query's residual row into a
/// residual-weighted entity sum with one GEMM (`gctx_g = Σ_e r_{g,e}·E_e`),
/// then undo context dropout — the same mask the forward applied,
/// regenerated — leaving `gctx = ∂L/∂y` (the norm output).
fn kv_backward_gemm_chunk(
    model: &MultiEmbedModel,
    queries: &[KvQuery],
    reg: &KvRegConfig,
    base: usize,
    c: &mut BlockedChunk,
) {
    let kdim = model.config().n * model.config().dim;
    let ne = model.entities.num_items();
    let entity_table = model.entities.as_slice();
    let cn = queries.len() * kdim;
    if c.gctx.len() < cn {
        c.gctx.resize(cn, 0.0);
    }
    c.gctx[..cn].fill(0.0);
    gemm_nn_acc(&c.scores[..queries.len() * ne], entity_table, kdim, &mut c.gctx[..cn]);
    if reg.dropout > 0.0 {
        let BlockedChunk { gctx, ctx_mask, .. } = &mut *c;
        for g in 0..queries.len() {
            fill_dropout_mask(
                mask_stream_base(reg.mask_seed, (base + g) as u64, MASK_STREAM_CTX),
                reg.dropout,
                ctx_mask,
            );
            apply_mask_in_place(&mut gctx[g * kdim..(g + 1) * kdim], ctx_mask);
        }
    }
}

/// Backward phase 2: finish each query's backward — the batch-norm input
/// gradient in place on `gctx` when on (using the sequentially reduced
/// `gβ/Q`, `gγ/Q`) — then scatter its anchor, relation and ω gradients
/// with the residual sum in the candidate slot. The candidate-side
/// gradient itself is dense over the entity table and is left to pass B;
/// only the anchor and relation rows take an L2 pull here (one per query
/// touch), so pass B stays a clean GEMM.
#[allow(clippy::too_many_arguments)]
fn kv_scatter_chunk(
    model: &MultiEmbedModel,
    queries: &[KvQuery],
    l2_coef: f32,
    reg: &KvRegConfig,
    base: usize,
    n3: usize,
    epoch: u32,
    bn: Option<BnBackward<'_>>,
    c: &mut BlockedChunk,
) {
    let kdim = model.config().n * model.config().dim;
    let staged = reg.is_active();
    c.clear_sink(n3);
    let BlockedChunk {
        ent, rel, ent_keys, rel_keys, ent_slab, rel_slab, omega, gctx, raw_ctxs, inputs, staging, ..
    } = c;
    let mut sink = BlockedSink { epoch, ent, ent_keys, ent_slab, rel, rel_keys, rel_slab, omega };
    for (g, &q) in queries.iter().enumerate() {
        let gctx_row = &mut gctx[g * kdim..(g + 1) * kdim];
        if let Some((mean, istd, gamma, gb_q, gg_q)) = bn {
            bn_backward_row(gctx_row, &raw_ctxs[g * kdim..(g + 1) * kdim], mean, istd, gamma, gb_q, gg_q);
        }
        let gctx_row = &*gctx_row;
        let (a, r, anchor_mask, rel_mask) = inputs.apply(model, q, reg, base + g);
        let (h, t) = match q.side {
            Side::Tail => (a, gctx_row),
            Side::Head => (gctx_row, a),
        };
        let staging = staged.then_some(Staging { scratch: &mut *staging, anchor_mask, rel_mask });
        accumulate_anchor_side(
            model,
            q.side,
            q.anchor.idx(),
            q.relation.idx(),
            (h, t, r),
            1.0,
            l2_coef,
            staging,
            &mut sink,
        );
    }
}

// ---------------------------------------------------------------------------
// Workspace: chunk scheduling, merging, result access.
// ---------------------------------------------------------------------------

/// Reusable gradient workspace: all per-batch scratch (chunk slabs,
/// context/score buffers, merge indices) lives here and is recycled
/// across batches, so steady-state training does not allocate.
///
/// One call to [`GradWorkspace::compute`] (or
/// [`GradWorkspace::compute_kvsall`]) fills the workspace with the summed
/// gradients for a batch; [`GradWorkspace::for_each_row`],
/// [`GradWorkspace::for_each_row_sorted`], and
/// [`GradWorkspace::omega_grads`] expose them until the next call.
pub struct GradWorkspace {
    threads: usize,
    epoch: u32,
    ent_row_len: usize,
    rel_row_len: usize,
    loss: f64,
    omega: Vec<f32>,
    sorted_keys: Vec<RowKey>,
    blocked: Vec<BlockedChunk>,
    g_ent: SlotMap,
    g_rel: SlotMap,
    g_ent_keys: Vec<u32>,
    g_rel_keys: Vec<u32>,
    g_ent_slab: Vec<f32>,
    g_rel_slab: Vec<f32>,
    ent_contribs: Vec<Vec<(u32, u32)>>,
    rel_contribs: Vec<Vec<(u32, u32)>>,
    // k-vs-all result + scratch.
    kv_mode: bool,
    kv_entities: usize,
    kv_dense: Vec<f32>,
    // k-vs-all batch norm: batch statistics and γ/β gradients. Moments
    // and grad sums reduce in f64 (sequential over chunks in chunk order
    // → thread-count independent), then round once to f32.
    reg_sum: Vec<f64>,
    reg_sumsq: Vec<f64>,
    reg_gb64: Vec<f64>,
    reg_gg64: Vec<f64>,
    reg_mean: Vec<f32>,
    reg_var: Vec<f32>,
    reg_istd: Vec<f32>,
    reg_gbeta: Vec<f32>,
    reg_ggamma: Vec<f32>,
    reg_gbeta_q: Vec<f32>,
    reg_ggamma_q: Vec<f32>,
    reg_queries: usize,
}

impl Default for GradWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl GradWorkspace {
    /// Creates an empty workspace using all available cores; buffers are
    /// sized lazily on the first compute call.
    pub fn new() -> Self {
        Self::with_threads(0)
    }

    /// Creates an empty workspace computing with at most `threads` workers
    /// (`0` = all available cores, see [`resolve_threads`]).
    ///
    /// The thread count is a speed knob only: chunk boundaries and merge
    /// order are fixed by the batch shape, so results are bit-identical
    /// for every `threads` value.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: resolve_threads(threads),
            epoch: 0,
            ent_row_len: 0,
            rel_row_len: 0,
            loss: 0.0,
            omega: Vec::new(),
            sorted_keys: Vec::new(),
            blocked: Vec::new(),
            g_ent: SlotMap::default(),
            g_rel: SlotMap::default(),
            g_ent_keys: Vec::new(),
            g_rel_keys: Vec::new(),
            g_ent_slab: Vec::new(),
            g_rel_slab: Vec::new(),
            ent_contribs: Vec::new(),
            rel_contribs: Vec::new(),
            kv_mode: false,
            kv_entities: 0,
            kv_dense: Vec::new(),
            reg_sum: Vec::new(),
            reg_sumsq: Vec::new(),
            reg_gb64: Vec::new(),
            reg_gg64: Vec::new(),
            reg_mean: Vec::new(),
            reg_var: Vec::new(),
            reg_istd: Vec::new(),
            reg_gbeta: Vec::new(),
            reg_ggamma: Vec::new(),
            reg_gbeta_q: Vec::new(),
            reg_ggamma_q: Vec::new(),
            reg_queries: 0,
        }
    }

    /// The resolved worker count this workspace computes with.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Starts a batch: records its shapes, advances the slot-map epoch
    /// (so every stale slot reads as free), and readies `nchunks` chunks
    /// of scratch.
    fn begin_batch(&mut self, model: &MultiEmbedModel, kv_mode: bool, nchunks: usize) {
        let num_entities = model.entities.num_items();
        let num_relations = model.relations.num_items();
        self.kv_mode = kv_mode;
        self.kv_entities = num_entities;
        self.ent_row_len = model.entities.row_len();
        self.rel_row_len = model.relations.row_len();
        if self.epoch == u32::MAX {
            for c in &mut self.blocked {
                c.ent.reset();
                c.rel.reset();
            }
            self.g_ent.reset();
            self.g_rel.reset();
            self.epoch = 0;
        }
        self.epoch += 1;
        while self.blocked.len() < nchunks {
            self.blocked.push(BlockedChunk::default());
        }
        self.g_ent.ensure(num_entities);
        self.g_rel.ensure(num_relations);
        for c in &mut self.blocked[..nchunks] {
            c.ent.ensure(num_entities);
            c.rel.ensure(num_relations);
        }
    }

    /// Computes summed gradients for a labeled batch, replacing the
    /// previous batch's results, and returns the total loss.
    ///
    /// For [`LossKind::MarginRanking`], `examples` must be grouped as
    /// `[positive, neg₁, …, neg_k]` repeating with stride `group_len`;
    /// the logistic path uses the same grouping to share anchor contexts.
    /// When `timing` is given, the parallel compute pass is added to
    /// `phases.forward` and the cross-chunk merge to `phases.merge`.
    pub fn compute(
        &mut self,
        model: &MultiEmbedModel,
        examples: &[(Triple, Label)],
        l2_coef: f32,
        loss_kind: LossKind,
        group_len: usize,
        mut timing: Option<&mut PhaseBreakdown>,
    ) -> f64 {
        assert!(group_len >= 1, "group_len must be at least 1");
        let n3 = model.omega().dense().len();
        let chunk = chunk_len(examples.len(), group_len);
        let nchunks = examples.len().div_ceil(chunk.max(1));
        self.begin_batch(model, false, nchunks);

        let span = timing.is_some().then(Instant::now);
        let epoch = self.epoch;
        run_chunked(examples, chunk, &mut self.blocked[..nchunks], self.threads, |ex_chunk, c, _| {
            run_blocked_chunk(model, ex_chunk, group_len, l2_coef, loss_kind, n3, epoch, c)
        });
        if let (Some(t0), Some(ph)) = (span, timing.as_deref_mut()) {
            ph.forward += t0.elapsed().as_secs_f64();
        }

        let span = timing.is_some().then(Instant::now);
        self.merge_blocked(nchunks, n3);
        if let (Some(t0), Some(ph)) = (span, timing.as_mut()) {
            ph.merge += t0.elapsed().as_secs_f64();
        }
        self.loss
    }

    /// Computes the k-vs-all (full-softmax) gradients for a batch of
    /// query groups under the regularizers `reg` switches on (input
    /// dropout on anchor/relation rows, batch norm with batch statistics
    /// on the interaction contexts, context dropout before the score
    /// GEMM), replacing the previous batch's results, and returns the
    /// total loss.
    ///
    /// Each query is scored against every entity; `targets` supplies the
    /// ascending per-`(anchor, relation)` true-candidate sets (build them
    /// from the **train** store — using the all-splits filter store would
    /// leak validation/test triples into the loss). Contexts are built
    /// from the raw anchor and relation rows: the model's interaction
    /// norm enters only through `reg.batch_norm`. Gradients afterwards
    /// live in a *dense* entity-table slab (full softmax touches every
    /// entity row) plus the usual sparse relation slab; read them through
    /// [`GradWorkspace::for_each_row`] / [`GradWorkspace::row`], or hand
    /// the workspace to the dense fused step.
    ///
    /// A regularizer that is off costs nothing: no mask is generated and,
    /// without batch norm, contexts go straight into the GEMM operand.
    /// Unregularized batches scatter each query's anchor and relation
    /// gradients straight into the accumulator rows; regularized ones
    /// stage them first (see DESIGN.md §12 for why both orders stay).
    /// Thread-count bit-identity holds with every knob because masks are
    /// counter-RNG functions of the query's batch-wide index and the
    /// batch-norm reductions (moments, `gβ`, `gγ`) run sequentially over
    /// chunks in chunk order with f64 accumulators.
    ///
    /// When `reg.batch_norm` is set the model must carry an
    /// [`crate::model::InteractionNorm`]; afterwards
    /// [`GradWorkspace::reg_batch_stats`] exposes the batch mean/biased
    /// variance (for the trainer's running-stat update) and
    /// [`GradWorkspace::reg_norm_grads`] the summed γ/β gradients (for
    /// the optimizer step).
    ///
    /// When `timing` is given, the context build + GEMM forward + softmax
    /// is added to `phases.forward`, both backward GEMM passes and the
    /// sparse scatter to `phases.backward`, and the chunk merge + anchor
    /// fold to `phases.merge`.
    #[allow(clippy::too_many_arguments)]
    pub fn compute_kvsall(
        &mut self,
        model: &MultiEmbedModel,
        queries: &[KvQuery],
        targets: &SortedTargets,
        l2_coef: f32,
        label_smooth: f32,
        reg: &KvRegConfig,
        mut timing: Option<&mut PhaseBreakdown>,
    ) -> f64 {
        assert!(!queries.is_empty(), "kvsall batch must contain at least one query");
        assert!(
            !reg.batch_norm || model.interaction_norm().is_some(),
            "batch_norm requires the model to carry an interaction norm"
        );
        let n3 = model.omega().dense().len();
        let kdim = model.config().n * model.config().dim;
        // Same shape-derived schedule as the sampled path, with a query
        // group as the scheduling unit.
        let chunk = chunk_len(queries.len(), 1);
        let nchunks = queries.len().div_ceil(chunk.max(1));
        self.begin_batch(model, true, nchunks);
        self.reg_queries = queries.len();
        let threads = self.threads;

        // Forward: contexts (parallel), batch moments (sequential, chunk
        // order), then normalize + context dropout + score GEMM + softmax
        // (parallel).
        let span = timing.is_some().then(Instant::now);
        run_chunked(queries, chunk, &mut self.blocked[..nchunks], threads, |qs, c, base| {
            kv_context_chunk(model, qs, reg, base, c)
        });
        if reg.batch_norm {
            self.reg_sum.clear();
            self.reg_sum.resize(kdim, 0.0);
            self.reg_sumsq.clear();
            self.reg_sumsq.resize(kdim, 0.0);
            self.reg_mean.resize(kdim, 0.0);
            self.reg_var.resize(kdim, 0.0);
            self.reg_istd.resize(kdim, 0.0);
            for c in &self.blocked[..nchunks] {
                for g in 0..c.groups {
                    accumulate_moments(
                        &c.raw_ctxs[g * kdim..(g + 1) * kdim],
                        &mut self.reg_sum,
                        &mut self.reg_sumsq,
                    );
                }
            }
            let eps = model.interaction_norm().expect("asserted above").eps;
            finalize_moments(
                &self.reg_sum,
                &self.reg_sumsq,
                queries.len(),
                eps,
                &mut self.reg_mean,
                &mut self.reg_var,
                &mut self.reg_istd,
            );
        }
        {
            let bn = reg.batch_norm.then(|| {
                let nrm = model.interaction_norm().expect("asserted above");
                (&self.reg_mean[..], &self.reg_istd[..], &nrm.gamma[..], &nrm.beta[..])
            });
            run_chunked(queries, chunk, &mut self.blocked[..nchunks], threads, |qs, c, base| {
                kv_score_chunk(model, qs, targets, label_smooth, reg, base, bn, c)
            });
        }
        if let (Some(t0), Some(ph)) = (span, timing.as_deref_mut()) {
            ph.forward += t0.elapsed().as_secs_f64();
        }

        // Backward: pass A + context-dropout backward (parallel), γ/β
        // gradient sums (sequential, chunk order — they need every
        // query's ∂L/∂y before the scatter overwrites `gctx` with ∂L/∂x),
        // the sparse scatter (parallel), then pass B.
        let span = timing.is_some().then(Instant::now);
        run_chunked(queries, chunk, &mut self.blocked[..nchunks], threads, |qs, c, base| {
            kv_backward_gemm_chunk(model, qs, reg, base, c)
        });
        if reg.batch_norm {
            self.reg_gb64.clear();
            self.reg_gb64.resize(kdim, 0.0);
            self.reg_gg64.clear();
            self.reg_gg64.resize(kdim, 0.0);
            for c in &self.blocked[..nchunks] {
                for g in 0..c.groups {
                    let gy = &c.gctx[g * kdim..(g + 1) * kdim];
                    let x = &c.raw_ctxs[g * kdim..(g + 1) * kdim];
                    for f in 0..kdim {
                        let xhat = f64::from((x[f] - self.reg_mean[f]) * self.reg_istd[f]);
                        self.reg_gb64[f] += f64::from(gy[f]);
                        self.reg_gg64[f] += f64::from(gy[f]) * xhat;
                    }
                }
            }
            self.reg_gbeta.resize(kdim, 0.0);
            self.reg_ggamma.resize(kdim, 0.0);
            self.reg_gbeta_q.resize(kdim, 0.0);
            self.reg_ggamma_q.resize(kdim, 0.0);
            let qf = queries.len() as f64;
            for f in 0..kdim {
                self.reg_gbeta[f] = self.reg_gb64[f] as f32;
                self.reg_ggamma[f] = self.reg_gg64[f] as f32;
                self.reg_gbeta_q[f] = (self.reg_gb64[f] / qf) as f32;
                self.reg_ggamma_q[f] = (self.reg_gg64[f] / qf) as f32;
            }
        }
        let epoch = self.epoch;
        {
            let bn = reg.batch_norm.then(|| {
                let nrm = model.interaction_norm().expect("asserted above");
                (
                    &self.reg_mean[..],
                    &self.reg_istd[..],
                    &nrm.gamma[..],
                    &self.reg_gbeta_q[..],
                    &self.reg_ggamma_q[..],
                )
            });
            run_chunked(queries, chunk, &mut self.blocked[..nchunks], threads, |qs, c, base| {
                kv_scatter_chunk(model, qs, l2_coef, reg, base, n3, epoch, bn, c)
            });
        }
        self.scatter_kv_dense(nchunks);
        if let (Some(t0), Some(ph)) = (span, timing.as_deref_mut()) {
            ph.backward += t0.elapsed().as_secs_f64();
        }

        let span = timing.is_some().then(Instant::now);
        self.merge_blocked(nchunks, n3);
        self.fold_anchors_into_dense();
        if let (Some(t0), Some(ph)) = (span, timing.as_mut()) {
            ph.merge += t0.elapsed().as_secs_f64();
        }
        self.loss
    }

    /// The last batch-normalized batch's statistics: per-feature mean,
    /// **biased** variance, and the query count `Q` they were computed
    /// over. The trainer turns these into running-stat updates
    /// (unbiasing the variance with `Q/(Q−1)`).
    pub fn reg_batch_stats(&self) -> (&[f32], &[f32], usize) {
        (&self.reg_mean, &self.reg_var, self.reg_queries)
    }

    /// The last batch-normalized batch's summed γ and β gradients (in
    /// that order), ready for the optimizer step on the norm parameters.
    pub fn reg_norm_grads(&self) -> (&[f32], &[f32]) {
        (&self.reg_ggamma, &self.reg_gbeta)
    }

    /// Pass B of the k-vs-all backward: the dense entity-table gradient
    /// `G += Rᵀ·C` (per-chunk residuals transposed times that chunk's
    /// packed contexts), accumulated chunk-by-chunk.
    ///
    /// Bit-deterministic at any worker count: workers own disjoint
    /// entity-row ranges, within a range chunks are visited in ascending
    /// chunk order, and [`gemm_tn_acc`] reduces ascending over the group
    /// index with a row-range-invariant blocking — so every element of
    /// `kv_dense` sees one fixed reduction order no matter how the rows
    /// are sharded.
    fn scatter_kv_dense(&mut self, nchunks: usize) {
        let len = self.ent_row_len;
        let ne = self.kv_entities;
        let total = ne * len;
        if self.kv_dense.len() < total {
            self.kv_dense.resize(total, 0.0);
        }
        let chunks = &self.blocked[..nchunks];
        let dense = &mut self.kv_dense[..total];
        let run_shard = |out: &mut [f32], e0: usize| {
            out.fill(0.0);
            for c in chunks {
                if c.groups == 0 {
                    continue;
                }
                gemm_tn_acc(&c.scores[..c.groups * ne], ne, &c.ctxs[..c.groups * len], len, e0, out);
            }
        };
        let workers = self.threads.max(1).min(ne);
        if workers <= 1 {
            run_shard(dense, 0);
        } else {
            rayon::scope(|s| {
                let mut rest = dense;
                for w in 0..workers {
                    let (start, end) = shard_bounds(ne, w, workers);
                    let (mine, tail) = rest.split_at_mut((end - start) * len);
                    rest = tail;
                    let rs = &run_shard;
                    s.spawn(move |_| rs(mine, start));
                }
            });
        }
    }

    /// Folds the merged sparse anchor/relation-row entity gradients into
    /// the dense slab, in merged first-touch key order after the pass-B
    /// GEMM — a fixed dense-then-sparse order, so the slab is a pure
    /// function of the batch.
    fn fold_anchors_into_dense(&mut self) {
        let len = self.ent_row_len;
        for (s, &e) in self.g_ent_keys.iter().enumerate() {
            let src = &self.g_ent_slab[s * len..(s + 1) * len];
            let dst = &mut self.kv_dense[e as usize * len..(e as usize + 1) * len];
            for (acc, g) in dst.iter_mut().zip(src) {
                *acc += *g;
            }
        }
    }

    /// Deterministic merge of the per-chunk slabs.
    ///
    /// With a single chunk the chunk's slabs, key lists, and slot maps
    /// already *are* the merged result, so they are swapped into the
    /// workspace wholesale — zero copies.
    ///
    /// With multiple chunks: a sequential chunk-order pass assigns each
    /// touched row a global slot and records its per-chunk contributions
    /// in chunk order, then the data movement — the actual memory
    /// traffic — runs in parallel over disjoint slot ranges. Every row's
    /// additions happen in chunk order regardless of thread count, and
    /// the first contribution is copied rather than added to a zeroed
    /// row — the oracle's move-then-add sequence.
    fn merge_blocked(&mut self, nchunks: usize, n3: usize) {
        if nchunks == 1 {
            let c = &mut self.blocked[0];
            self.loss = c.loss;
            // The swapped-out buffers become the chunk's scratch for the
            // next batch; both sides share `self.epoch`, so stale slot
            // stamps can never read as live.
            std::mem::swap(&mut self.omega, &mut c.omega);
            std::mem::swap(&mut self.g_ent, &mut c.ent);
            std::mem::swap(&mut self.g_rel, &mut c.rel);
            std::mem::swap(&mut self.g_ent_keys, &mut c.ent_keys);
            std::mem::swap(&mut self.g_rel_keys, &mut c.rel_keys);
            std::mem::swap(&mut self.g_ent_slab, &mut c.ent_slab);
            std::mem::swap(&mut self.g_rel_slab, &mut c.rel_slab);
            return;
        }
        self.reset_omega(n3);
        self.loss = 0.0;
        self.g_ent_keys.clear();
        self.g_rel_keys.clear();
        let epoch = self.epoch;
        for (ci, c) in self.blocked[..nchunks].iter().enumerate() {
            self.loss += c.loss;
            for (o, g) in self.omega.iter_mut().zip(&c.omega) {
                *o += g;
            }
            for (ls, &ent) in c.ent_keys.iter().enumerate() {
                let (g, fresh) = self.g_ent.get_or_insert(ent as usize, epoch, self.g_ent_keys.len());
                if fresh {
                    self.g_ent_keys.push(ent);
                    if self.ent_contribs.len() <= g {
                        self.ent_contribs.push(Vec::new());
                    }
                    self.ent_contribs[g].clear();
                }
                self.ent_contribs[g].push((ci as u32, ls as u32));
            }
            for (ls, &rel) in c.rel_keys.iter().enumerate() {
                let (g, fresh) = self.g_rel.get_or_insert(rel as usize, epoch, self.g_rel_keys.len());
                if fresh {
                    self.g_rel_keys.push(rel);
                    if self.rel_contribs.len() <= g {
                        self.rel_contribs.push(Vec::new());
                    }
                    self.rel_contribs[g].clear();
                }
                self.rel_contribs[g].push((ci as u32, ls as u32));
            }
        }
        let chunks = &self.blocked[..nchunks];
        merge_slabs(
            chunks,
            self.g_ent_keys.len(),
            &self.ent_contribs,
            self.ent_row_len,
            &mut self.g_ent_slab,
            self.threads,
            |c| &c.ent_slab,
        );
        merge_slabs(
            chunks,
            self.g_rel_keys.len(),
            &self.rel_contribs,
            self.rel_row_len,
            &mut self.g_rel_slab,
            self.threads,
            |c| &c.rel_slab,
        );
    }

    fn reset_omega(&mut self, n3: usize) {
        if self.omega.len() == n3 {
            self.omega.fill(0.0);
        } else {
            self.omega = vec![0.0; n3];
        }
    }

    /// The last computed batch loss.
    pub fn loss(&self) -> f64 {
        self.loss
    }

    /// The dense effective-ω gradient of the last batch.
    pub fn omega_grads(&self) -> &[f32] {
        &self.omega
    }

    /// Mutable access to the ω gradient, for in-place regularizer terms.
    pub fn omega_grads_mut(&mut self) -> &mut [f32] {
        &mut self.omega
    }

    /// Visits every touched row of the last batch (unspecified order).
    ///
    /// After a k-vs-all batch this visits *every* entity row (full
    /// softmax gives every entity gradient mass) in entity order, then
    /// the sparse relation rows.
    pub fn for_each_row(&self, mut f: impl FnMut(RowKey, &[f32])) {
        if self.kv_mode {
            let len = self.ent_row_len;
            for e in 0..self.kv_entities {
                f(RowKey::Entity(e), &self.kv_dense[e * len..(e + 1) * len]);
            }
            for (s, &r) in self.g_rel_keys.iter().enumerate() {
                f(RowKey::Relation(r as usize), &self.g_rel_slab[s * self.rel_row_len..][..self.rel_row_len]);
            }
            return;
        }
        for (s, &e) in self.g_ent_keys.iter().enumerate() {
            f(RowKey::Entity(e as usize), &self.g_ent_slab[s * self.ent_row_len..][..self.ent_row_len]);
        }
        for (s, &r) in self.g_rel_keys.iter().enumerate() {
            f(RowKey::Relation(r as usize), &self.g_rel_slab[s * self.rel_row_len..][..self.rel_row_len]);
        }
    }

    /// Borrowed view of the sampled path's merged result for the fused
    /// step/project pass; `None` after a k-vs-all batch.
    ///
    /// The key lists are slot-interned, so each entity (and each relation)
    /// appears exactly once — the property that lets the fused pass hand
    /// disjoint key ranges to different workers without row aliasing.
    pub(crate) fn blocked_parts(&self) -> Option<BlockedParts<'_>> {
        (!self.kv_mode).then(|| BlockedParts {
            ent_keys: &self.g_ent_keys,
            ent_slab: &self.g_ent_slab,
            rel_keys: &self.g_rel_keys,
            rel_slab: &self.g_rel_slab,
            ent_row_len: self.ent_row_len,
            rel_row_len: self.rel_row_len,
        })
    }

    /// Borrowed view of the k-vs-all result for the dense fused
    /// step/project pass; `None` unless the last compute was
    /// [`GradWorkspace::compute_kvsall`].
    pub(crate) fn kvsall_parts(&self) -> Option<KvsallParts<'_>> {
        if !self.kv_mode {
            return None;
        }
        Some(KvsallParts {
            dense_ent: &self.kv_dense[..self.kv_entities * self.ent_row_len],
            rel_keys: &self.g_rel_keys,
            rel_slab: &self.g_rel_slab,
            ent_row_len: self.ent_row_len,
            rel_row_len: self.rel_row_len,
        })
    }

    /// The gradient row for `key`, if that row was touched.
    pub fn row(&self, key: RowKey) -> Option<&[f32]> {
        if self.kv_mode {
            return match key {
                RowKey::Entity(e) => (e < self.kv_entities)
                    .then(|| &self.kv_dense[e * self.ent_row_len..][..self.ent_row_len]),
                RowKey::Relation(r) => self
                    .g_rel
                    .lookup(r, self.epoch)
                    .map(|s| &self.g_rel_slab[s * self.rel_row_len..][..self.rel_row_len]),
            };
        }
        match key {
            RowKey::Entity(e) => self
                .g_ent
                .lookup(e, self.epoch)
                .map(|s| &self.g_ent_slab[s * self.ent_row_len..][..self.ent_row_len]),
            RowKey::Relation(r) => self
                .g_rel
                .lookup(r, self.epoch)
                .map(|s| &self.g_rel_slab[s * self.rel_row_len..][..self.rel_row_len]),
        }
    }

    /// Visits every touched row in sorted [`RowKey`] order — the order
    /// the trainer uses for its grad-norm sum, so observability output
    /// does not depend on slot order.
    pub fn for_each_row_sorted(&mut self, mut f: impl FnMut(RowKey, &[f32])) {
        let mut keys = std::mem::take(&mut self.sorted_keys);
        keys.clear();
        self.for_each_row(|k, _| keys.push(k));
        keys.sort_unstable();
        for &k in &keys {
            if let Some(g) = self.row(k) {
                f(k, g);
            }
        }
        self.sorted_keys = keys;
    }
}

/// Borrowed view of the sampled path's merged gradients: slot-interned
/// key lists (each key unique, first-touch order) plus the flat slabs
/// they index, as consumed by the trainer's fused step/project pass.
pub(crate) struct BlockedParts<'a> {
    pub ent_keys: &'a [u32],
    pub ent_slab: &'a [f32],
    pub rel_keys: &'a [u32],
    pub rel_slab: &'a [f32],
    pub ent_row_len: usize,
    pub rel_row_len: usize,
}

/// Borrowed view of the k-vs-all merged gradients: the dense entity-table
/// slab (one row per entity, in entity order — `dense_ent.len() /
/// ent_row_len` entities) plus the sparse slot-interned relation slab, as
/// consumed by the trainer's dense fused step/project pass.
pub(crate) struct KvsallParts<'a> {
    pub dense_ent: &'a [f32],
    pub rel_keys: &'a [u32],
    pub rel_slab: &'a [f32],
    pub ent_row_len: usize,
    pub rel_row_len: usize,
}

/// Parallel slot-range merge of per-chunk slabs into the global slab.
///
/// Bit-safe at any `threads` value: destination slot ranges are disjoint
/// and each row's contributions are added in chunk order within one
/// worker, so splitting only changes which core does the memory traffic.
#[allow(clippy::too_many_arguments)]
fn merge_slabs(
    chunks: &[BlockedChunk],
    keys_len: usize,
    contribs: &[Vec<(u32, u32)>],
    row_len: usize,
    g_slab: &mut Vec<f32>,
    threads: usize,
    select: impl Fn(&BlockedChunk) -> &Vec<f32> + Sync,
) {
    let total = keys_len * row_len;
    if total == 0 {
        return;
    }
    if g_slab.len() < total {
        g_slab.resize(total, 0.0);
    }
    let merge_range = |dst: &mut [f32], start_slot: usize| {
        for (k, dst_row) in dst.chunks_mut(row_len).enumerate() {
            let cl = &contribs[start_slot + k];
            let (c0, l0) = cl[0];
            dst_row.copy_from_slice(&select(&chunks[c0 as usize])[l0 as usize * row_len..][..row_len]);
            for &(c, l) in &cl[1..] {
                let src = &select(&chunks[c as usize])[l as usize * row_len..][..row_len];
                for (a, b) in dst_row.iter_mut().zip(src) {
                    *a += *b;
                }
            }
        }
    };
    let threads = threads.max(1).min(keys_len);
    if chunks.len() <= 1 || threads <= 1 || total < PAR_MERGE_MIN {
        merge_range(&mut g_slab[..total], 0);
    } else {
        let per = keys_len.div_ceil(threads);
        rayon::scope(|s| {
            let mut rest = &mut g_slab[..total];
            let mut slot = 0usize;
            while !rest.is_empty() {
                let take = per.min(rest.len() / row_len);
                let (mine, tail) = rest.split_at_mut(take * row_len);
                rest = tail;
                let start = slot;
                let mr = &merge_range;
                s.spawn(move |_| mr(mine, start));
                slot += take;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use crate::weights::{WeightPreset, WeightRestriction};
    use mei_kg::TripleStore;
    use std::collections::{HashMap, HashSet};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_model(seed: u64) -> MultiEmbedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiEmbedModel::from_preset(WeightPreset::ComplEx, 9, 3, 4, &mut rng)
    }

    fn learned_toy_model(seed: u64) -> MultiEmbedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        let cfg = ModelConfig { num_entities: 9, num_relations: 3, n: 2, dim: 4 };
        MultiEmbedModel::with_learned_weights(cfg, WeightRestriction::Tanh, 0.5, &mut rng)
    }

    /// A deduped both-sides query set over a small train store — enough
    /// queries that `chunk_len` yields several chunks.
    fn kv_queries_and_targets() -> (Vec<KvQuery>, SortedTargets) {
        let triples = [
            Triple::new(0, 1, 0),
            Triple::new(0, 5, 0),
            Triple::new(2, 3, 1),
            Triple::new(7, 3, 1),
            Triple::new(4, 4, 2),
            Triple::new(4, 8, 2),
            Triple::new(1, 2, 0),
            Triple::new(3, 6, 2),
            Triple::new(5, 0, 1),
            Triple::new(8, 7, 0),
            Triple::new(6, 6, 1),
            Triple::new(2, 8, 2),
        ];
        let store = TripleStore::from_triples(triples);
        let mut queries = Vec::new();
        let mut seen = HashSet::new();
        for &t in store.triples() {
            for (side, anchor) in [(Side::Tail, t.head), (Side::Head, t.tail)] {
                if seen.insert((side, anchor, t.relation)) {
                    queries.push(KvQuery { side, anchor, relation: t.relation });
                }
            }
        }
        (queries, SortedTargets::from_store(&store))
    }

    fn toy_batch() -> Vec<(Triple, Label)> {
        // Groups of [positive, negative] with tail and head corruptions,
        // plus a self-loop to exercise the aliased-row accumulate order.
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
    fn workspace_results_are_stable_across_reuse() {
        // Recycled scratch must not leak one batch's values into the next:
        // computing A, then B, then A again must reproduce A's bits.
        let model = toy_model(11);
        let batch_a = toy_batch();
        let batch_b: Vec<(Triple, Label)> = vec![
            (Triple::new(6, 2, 1), Label::Positive),
            (Triple::new(6, 0, 1), Label::Negative),
        ];
        let mut ws = GradWorkspace::new();
        let loss_first = ws.compute(&model, &batch_a, 0.01, LossKind::Logistic, 2, None);
        let mut first: Vec<(RowKey, Vec<u32>)> = Vec::new();
        ws.for_each_row_sorted(|k, g| first.push((k, g.iter().map(|v| v.to_bits()).collect())));
        ws.compute(&model, &batch_b, 0.01, LossKind::Logistic, 2, None);
        let loss_again = ws.compute(&model, &batch_a, 0.01, LossKind::Logistic, 2, None);
        let mut again: Vec<(RowKey, Vec<u32>)> = Vec::new();
        ws.for_each_row_sorted(|k, g| again.push((k, g.iter().map(|v| v.to_bits()).collect())));
        assert_eq!(loss_first.to_bits(), loss_again.to_bits());
        assert_eq!(first, again);
    }

    #[test]
    fn results_are_thread_count_independent() {
        // Same batch, different worker counts ⇒ identical bits.
        // The batch is large enough that chunk_len yields many chunks, so
        // the pool actually runs work concurrently when threads > 1.
        let model = toy_model(13);
        let mut batch = Vec::new();
        for i in 0..24u32 {
            batch.push((Triple::new(i % 9, (i + 3) % 9, i % 3), Label::Positive));
            batch.push((Triple::new(i % 9, (i + 5) % 9, i % 3), Label::Negative));
        }
        let gather = |threads: usize| {
            let mut ws = GradWorkspace::with_threads(threads);
            let loss = ws.compute(&model, &batch, 0.01, LossKind::Logistic, 2, None);
            let mut rows: Vec<(RowKey, Vec<u32>)> = Vec::new();
            ws.for_each_row_sorted(|k, g| rows.push((k, g.iter().map(|v| v.to_bits()).collect())));
            let omega: Vec<u32> = ws.omega_grads().iter().map(|v| v.to_bits()).collect();
            (loss.to_bits(), rows, omega)
        };
        let base = gather(1);
        for threads in [2, 3, 8] {
            assert_eq!(base, gather(threads), "{threads} threads");
        }
    }

    #[test]
    fn sorted_iteration_is_sorted_and_complete() {
        let model = toy_model(3);
        let batch = toy_batch();
        let mut ws = GradWorkspace::new();
        ws.compute(&model, &batch, 0.0, LossKind::Logistic, 2, None);
        let mut keys = Vec::new();
        ws.for_each_row_sorted(|k, _| keys.push(k));
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "not strictly ascending: {keys:?}");
        let mut unordered = 0usize;
        ws.for_each_row(|_, _| unordered += 1);
        assert_eq!(keys.len(), unordered);
    }

    /// The full kvsall backward (pass A + scatter + pass B + anchor fold,
    /// and the γ/β gradients under batch norm) against central finite
    /// differences of the returned loss over every entity, relation and
    /// norm parameter: every regularizer off (with and without label
    /// smoothing), each one alone, and all three together, with the
    /// dropout masks fixed by one seed.
    #[test]
    fn kvsall_grads_match_finite_differences() {
        use mei_autodiff::finite_difference_gradient;
        // The loss is computed in f32: a central-difference step near
        // ε_f32^(1/3) balances truncation against rounding error.
        const FD_STEP: f64 = 5e-3;
        let (queries, targets) = kv_queries_and_targets();
        let off = KvRegConfig { mask_seed: 0x5eed, ..KvRegConfig::default() };
        let cases = [
            ("off", 0.0f32, off),
            ("off, smoothed", 0.1, off),
            ("input dropout", 0.1, KvRegConfig { input_dropout: 0.3, ..off }),
            ("context dropout", 0.1, KvRegConfig { dropout: 0.3, ..off }),
            ("batch norm", 0.1, KvRegConfig { batch_norm: true, ..off }),
            (
                "all three",
                0.1,
                KvRegConfig { dropout: 0.3, input_dropout: 0.3, batch_norm: true, ..off },
            ),
        ];
        for (name, ls, reg) in cases {
            // γ/β away from the identity, so they carry weight in the check.
            let build = || {
                let mut m = toy_model(17);
                if reg.batch_norm {
                    m.enable_interaction_norm(0.1, 1e-5);
                    let nrm = m.interaction_norm_mut().expect("just enabled");
                    for (f, (g, b)) in nrm.gamma.iter_mut().zip(&mut nrm.beta).enumerate() {
                        *g = 1.0 + 0.3 * (f as f32).sin();
                        *b = 0.1 * (f as f32).cos();
                    }
                }
                m
            };
            let model = build();
            let ent_row_len = model.entities.row_len();
            let rel_row_len = model.relations.row_len();
            let ne_floats = model.entities.len();
            let nr_floats = model.relations.len();
            let norm = model.interaction_norm();
            let base: Vec<f64> = model
                .entities
                .as_slice()
                .iter()
                .chain(model.relations.as_slice())
                .chain(norm.map_or(&[][..], |n| &n.gamma))
                .chain(norm.map_or(&[][..], |n| &n.beta))
                .map(|&v| f64::from(v))
                .collect();
            let f = |x: &[f64]| {
                let mut m = build();
                let (ents, rest) = x.split_at(ne_floats);
                let (rels, norm) = rest.split_at(nr_floats);
                let params = m.entities.as_mut_slice().iter_mut().chain(m.relations.as_mut_slice());
                for (dst, &src) in params.zip(ents.iter().chain(rels)) {
                    *dst = src as f32;
                }
                if let Some(nrm) = m.interaction_norm_mut() {
                    for (dst, &src) in nrm.gamma.iter_mut().chain(&mut nrm.beta).zip(norm) {
                        *dst = src as f32;
                    }
                }
                GradWorkspace::with_threads(1).compute_kvsall(&m, &queries, &targets, 0.0, ls, &reg, None)
            };
            let fd = finite_difference_gradient(f, &base, FD_STEP);
            let mut ws = GradWorkspace::with_threads(1);
            ws.compute_kvsall(&model, &queries, &targets, 0.0, ls, &reg, None);
            let mut analytic = vec![0.0f64; base.len()];
            ws.for_each_row(|k, g| {
                let off = match k {
                    RowKey::Entity(e) => e * ent_row_len,
                    RowKey::Relation(r) => ne_floats + r * rel_row_len,
                };
                for (i, &v) in g.iter().enumerate() {
                    analytic[off + i] = f64::from(v);
                }
            });
            if reg.batch_norm {
                let (ggamma, gbeta) = ws.reg_norm_grads();
                for (dst, &v) in analytic[ne_floats + nr_floats..].iter_mut().zip(ggamma.iter().chain(gbeta)) {
                    *dst = f64::from(v);
                }
            }
            for (i, (&a, &n)) in analytic.iter().zip(&fd).enumerate() {
                assert!(
                    (a - n).abs() < 3e-3 * (1.0 + n.abs()),
                    "{name} (ls={ls}): param {i}: analytic {a} vs fd {n}"
                );
            }
        }
    }

    /// The GEMM-shaped kvsall backward against a naive f64 reference —
    /// per-query dense loops with no blocking, no slot interning and no
    /// wide kernels — on a learned-ω model with L2 and label smoothing,
    /// covering the ω gradient and the per-group L2 policy (anchor and
    /// relation rows only).
    #[test]
    fn kvsall_grads_match_naive_reference() {
        let model = learned_toy_model(23);
        let (queries, targets) = kv_queries_and_targets();
        let (l2_coef, ls) = (0.02f32, 0.05f32);
        let d = model.config().dim;
        let nq = model.config().n;
        let kdim = nq * d;
        let ne = model.entities.num_items();
        let nr = model.omega().n_rel();

        let mut rows: HashMap<RowKey, Vec<f64>> = HashMap::new();
        let mut omega_ref = vec![0.0f64; model.omega().dense().len()];
        let mut loss_ref = 0.0f64;
        let mut ctx = vec![0.0f32; kdim];
        for &q in &queries {
            match q.side {
                Side::Tail => model.tail_context(q.anchor, q.relation, &mut ctx),
                Side::Head => model.head_context(q.anchor, q.relation, &mut ctx),
            }
            let mut scores: Vec<f32> = (0..ne)
                .map(|e| {
                    let row = model.entities.row(e);
                    ctx.iter().zip(row).map(|(&a, &b)| f64::from(a) * f64::from(b)).sum::<f64>()
                        as f32
                })
                .collect();
            let t = match q.side {
                Side::Tail => targets.tails_of(q.anchor, q.relation),
                Side::Head => targets.heads_of(q.anchor, q.relation),
            };
            loss_ref += softmax_ce_residual(&mut scores, t, ls);
            // Candidate gradients: r_e · ctx on every entity row.
            for (e, &re) in scores.iter().enumerate() {
                let row = rows.entry(RowKey::Entity(e)).or_insert_with(|| vec![0.0; kdim]);
                for (dst, &c) in row.iter_mut().zip(&ctx) {
                    *dst += f64::from(re) * f64::from(c);
                }
            }
            // gctx = Σ_e r_e·E_e in f64.
            let mut gctx = vec![0.0f64; kdim];
            for (e, &re) in scores.iter().enumerate() {
                for (g, &v) in gctx.iter_mut().zip(model.entities.row(e)) {
                    *g += f64::from(re) * f64::from(v);
                }
            }
            let a: Vec<f64> =
                model.entities.row(q.anchor.idx()).iter().map(|&v| f64::from(v)).collect();
            let r: Vec<f64> =
                model.relations.row(q.relation.idx()).iter().map(|&v| f64::from(v)).collect();
            {
                let arow =
                    rows.entry(RowKey::Entity(q.anchor.idx())).or_insert_with(|| vec![0.0; kdim]);
                for &(i, j, k, w) in model.terms() {
                    if w == 0.0 {
                        continue;
                    }
                    for dd in 0..d {
                        match q.side {
                            Side::Tail => {
                                arow[i * d + dd] +=
                                    f64::from(w) * gctx[j * d + dd] * r[k * d + dd]
                            }
                            Side::Head => {
                                arow[j * d + dd] +=
                                    f64::from(w) * gctx[i * d + dd] * r[k * d + dd]
                            }
                        }
                    }
                }
                for (dst, &v) in arow.iter_mut().zip(&a) {
                    *dst += f64::from(l2_coef) * v;
                }
            }
            {
                let rrow = rows
                    .entry(RowKey::Relation(q.relation.idx()))
                    .or_insert_with(|| vec![0.0; model.relations.row_len()]);
                for &(i, j, k, w) in model.terms() {
                    if w == 0.0 {
                        continue;
                    }
                    for dd in 0..d {
                        let prod = match q.side {
                            Side::Tail => a[i * d + dd] * gctx[j * d + dd],
                            Side::Head => gctx[i * d + dd] * a[j * d + dd],
                        };
                        rrow[k * d + dd] += f64::from(w) * prod;
                    }
                }
                for (dst, &v) in rrow.iter_mut().zip(&r) {
                    *dst += f64::from(l2_coef) * v;
                }
            }
            for &(i, j, k, _) in model.terms() {
                let mut tri = 0.0f64;
                for dd in 0..d {
                    tri += match q.side {
                        Side::Tail => a[i * d + dd] * gctx[j * d + dd] * r[k * d + dd],
                        Side::Head => gctx[i * d + dd] * a[j * d + dd] * r[k * d + dd],
                    };
                }
                omega_ref[(i * nq + j) * nr + k] += tri;
            }
        }

        let mut ws = GradWorkspace::with_threads(2);
        let loss = ws.compute_kvsall(&model, &queries, &targets, l2_coef, ls, &KvRegConfig::default(), None);
        assert!((loss - loss_ref).abs() < 1e-6 * (1.0 + loss_ref.abs()));
        let mut visited = 0usize;
        ws.for_each_row(|k, g| {
            let expect = rows.get(&k).unwrap_or_else(|| panic!("unexpected row {k:?}"));
            for (i, (&got, &want)) in g.iter().zip(expect.iter()).enumerate() {
                assert!(
                    (f64::from(got) - want).abs() < 1e-4 * (1.0 + want.abs()),
                    "row {k:?}[{i}]: {got} vs {want}"
                );
            }
            visited += 1;
        });
        assert_eq!(visited, rows.len(), "row sets differ");
        assert!(model.trainable_omega());
        for (i, (&got, &want)) in ws.omega_grads().iter().zip(&omega_ref).enumerate() {
            assert!(
                (f64::from(got) - want).abs() < 1e-4 * (1.0 + want.abs()),
                "omega[{i}]: {got} vs {want}"
            );
        }
    }

    /// kvsall results are bit-identical across worker counts, fixed and
    /// learned ω, with every regularizer off and with all of them on.
    #[test]
    fn kvsall_results_are_thread_count_independent() {
        let (queries, targets) = kv_queries_and_targets();
        let all_on = KvRegConfig { dropout: 0.2, input_dropout: 0.1, batch_norm: true, mask_seed: 3 };
        for learned in [false, true] {
            for reg in [KvRegConfig::default(), all_on] {
                let mut model = if learned { learned_toy_model(19) } else { toy_model(19) };
                if reg.batch_norm {
                    model.enable_interaction_norm(0.1, 1e-5);
                }
                let gather = |threads: usize| {
                    let mut ws = GradWorkspace::with_threads(threads);
                    let loss = ws.compute_kvsall(&model, &queries, &targets, 0.01, 0.1, &reg, None);
                    let mut rows: Vec<(RowKey, Vec<u32>)> = Vec::new();
                    ws.for_each_row_sorted(|k, g| {
                        rows.push((k, g.iter().map(|v| v.to_bits()).collect()))
                    });
                    let omega: Vec<u32> = ws.omega_grads().iter().map(|v| v.to_bits()).collect();
                    let (ggamma, gbeta) = ws.reg_norm_grads();
                    let norm: Vec<u32> = ggamma.iter().chain(gbeta).map(|v| v.to_bits()).collect();
                    (loss.to_bits(), rows, omega, norm)
                };
                let base = gather(1);
                for threads in [2, 3, 8] {
                    assert_eq!(base, gather(threads), "learned={learned} reg={reg:?} threads={threads}");
                }
            }
        }
    }

    /// Workspace scratch survives interleaved kvsall / negative-sampling
    /// batches: recomputing either mode reproduces its bits exactly.
    #[test]
    fn kvsall_workspace_reuse_is_stable_and_mode_switches_cleanly() {
        let model = toy_model(11);
        let (queries, targets) = kv_queries_and_targets();
        let batch = toy_batch();
        let mut ws = GradWorkspace::with_threads(2);
        let gather_kv = |ws: &mut GradWorkspace| {
            let loss = ws.compute_kvsall(&model, &queries, &targets, 0.01, 0.1, &KvRegConfig::default(), None);
            let mut rows: Vec<(RowKey, Vec<u32>)> = Vec::new();
            ws.for_each_row_sorted(|k, g| rows.push((k, g.iter().map(|v| v.to_bits()).collect())));
            (loss.to_bits(), rows)
        };
        let first = gather_kv(&mut ws);
        let neg_loss = ws.compute(&model, &batch, 0.01, LossKind::Logistic, 2, None);
        let again = gather_kv(&mut ws);
        assert_eq!(first, again, "kvsall bits changed after an interleaved negative batch");
        // The negative path through recycled kvsall scratch must match a
        // fresh workspace bitwise.
        let mut fresh = GradWorkspace::with_threads(2);
        let fresh_loss = fresh.compute(&model, &batch, 0.01, LossKind::Logistic, 2, None);
        assert_eq!(neg_loss.to_bits(), fresh_loss.to_bits());
        let mut a: Vec<(RowKey, Vec<u32>)> = Vec::new();
        fresh.for_each_row_sorted(|k, g| a.push((k, g.iter().map(|v| v.to_bits()).collect())));
        ws.compute(&model, &batch, 0.01, LossKind::Logistic, 2, None);
        let mut b: Vec<(RowKey, Vec<u32>)> = Vec::new();
        ws.for_each_row_sorted(|k, g| b.push((k, g.iter().map(|v| v.to_bits()).collect())));
        assert_eq!(a, b);
    }
}
