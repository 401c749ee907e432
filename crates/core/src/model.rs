//! The multi-embedding interaction model (Eq. 8).

use mei_eval::{BlockQuery, Side, TripleScorer};
use mei_kg::{EntityId, RelationId, Triple};
use mei_math::block::{block_head_context, block_tail_context};
use mei_math::init::Init;
use mei_math::kernels::{dot_fast, gemm_nt, hadamard_axpy_fast, trilinear_fast};
use mei_math::vecops::{dot, hadamard_axpy, trilinear};
use rand::Rng;

use crate::embedding::EmbeddingTable;
use crate::weights::{WeightPreset, WeightRestriction, WeightVector};

/// Shape of a [`MultiEmbedModel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Entity vocabulary size.
    pub num_entities: usize,
    /// Relation vocabulary size (after augmentation, for CPh).
    pub num_relations: usize,
    /// Embeddings per item (`n` in §3.1).
    pub n: usize,
    /// Dimensionality `D` of each embedding vector.
    pub dim: usize,
}

impl ModelConfig {
    /// Total number of embedding parameters (`n_D` in Eq. 16).
    pub fn num_embedding_params(&self) -> usize {
        (self.num_entities + self.num_relations) * self.n * self.dim
    }
}

/// Shape of a block-term (MEI K×Ce×Cr) interaction: `k` independent
/// partitions, each contracting a `ce`-vector entity block against a
/// `cr`-vector relation block through its own `Ce×Cr×Ce` core tensor.
///
/// On the unified grid this is an ω weight vector with `n = k·ce`,
/// `n_rel = k·cr` whose support is restricted to the block-diagonal cells
/// `(p·ce+a, p·ce+c, p·cr+b)`; a `k = 1` shape spans the *whole* grid and
/// is therefore exactly the existing learned-ω trilinear model — the
/// special case [`MultiEmbedModel::block_term`] canonicalizes away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockTermShape {
    /// Number of independent partitions (`K`).
    pub k: usize,
    /// Entity embedding vectors per partition (`Ce`).
    pub ce: usize,
    /// Relation embedding vectors per partition (`Cr`).
    pub cr: usize,
}

impl BlockTermShape {
    /// Entity-side component count on the unified grid (`n = K·Ce`).
    pub fn n(&self) -> usize {
        self.k * self.ce
    }

    /// Relation-side component count (`n_rel = K·Cr`).
    pub fn n_rel(&self) -> usize {
        self.k * self.cr
    }

    /// Number of core-tensor parameters (`K·Ce²·Cr`) — the support size
    /// of the induced ω.
    pub fn num_core_params(&self) -> usize {
        self.k * self.ce * self.ce * self.cr
    }
}

/// Batch normalization over the interaction context vectors (the MEI/MEIM
/// training-stack knob): per-feature affine `γ·x̂ + β` over the `n·dim`
/// context features, with running statistics for eval mode.
///
/// Training mode (batch statistics, sequential f64 reduction) lives on the
/// k-vs-all regularized path in `grads`; the model itself only carries the
/// parameters and running statistics, and the public context builders
/// always apply the **running-stat** (eval) transform when a norm is
/// present — so evaluation, serving, and int8 screening see one consistent
/// frozen transform.
#[derive(Debug, Clone, PartialEq)]
pub struct InteractionNorm {
    /// Per-feature scale γ (learned).
    pub gamma: Vec<f32>,
    /// Per-feature shift β (learned).
    pub beta: Vec<f32>,
    /// Running mean, updated by the trainer each batch.
    pub running_mean: Vec<f32>,
    /// Running (unbiased) variance, updated by the trainer each batch.
    pub running_var: Vec<f32>,
    /// Running-stat update rate: `running ← (1−m)·running + m·batch`.
    pub momentum: f32,
    /// Variance floor added inside the square root.
    pub eps: f32,
}

impl InteractionNorm {
    /// Identity-initialized norm over `kdim = n·dim` features:
    /// γ = 1, β = 0, running mean 0, running variance 1.
    pub fn identity(kdim: usize, momentum: f32, eps: f32) -> Self {
        Self {
            gamma: vec![1.0; kdim],
            beta: vec![0.0; kdim],
            running_mean: vec![0.0; kdim],
            running_var: vec![1.0; kdim],
            momentum,
            eps,
        }
    }

    /// Number of context features this norm spans.
    pub fn kdim(&self) -> usize {
        self.gamma.len()
    }

    /// Applies the eval-mode transform in place:
    /// `x ← γ·(x − running_mean)/√(running_var + eps) + β`.
    pub fn apply_running(&self, ctx: &mut [f32]) {
        debug_assert_eq!(ctx.len(), self.gamma.len());
        for (f, x) in ctx.iter_mut().enumerate() {
            let istd = 1.0 / (self.running_var[f] + self.eps).sqrt();
            *x = self.gamma[f] * ((*x - self.running_mean[f]) * istd) + self.beta[f];
        }
    }

    /// Serializes the norm state as one flat array
    /// `[γ | β | running_mean | running_var]` (4·kdim floats).
    pub fn flat(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(4 * self.gamma.len());
        out.extend_from_slice(&self.gamma);
        out.extend_from_slice(&self.beta);
        out.extend_from_slice(&self.running_mean);
        out.extend_from_slice(&self.running_var);
        out
    }

    /// Restores the state written by [`InteractionNorm::flat`].
    ///
    /// # Panics
    /// Panics if `flat.len() != 4·kdim`.
    pub fn restore_flat(&mut self, flat: &[f32]) {
        let kdim = self.gamma.len();
        assert_eq!(flat.len(), 4 * kdim, "norm snapshot must hold 4·kdim floats");
        self.gamma.copy_from_slice(&flat[..kdim]);
        self.beta.copy_from_slice(&flat[kdim..2 * kdim]);
        self.running_mean.copy_from_slice(&flat[2 * kdim..3 * kdim]);
        self.running_var.copy_from_slice(&flat[3 * kdim..]);
    }
}

/// Dense per-row gradients for one scored triple, plus the effective-ω
/// gradient when ω is trainable. Buffers are reused across triples.
#[derive(Debug, Clone)]
pub struct TripleGrads {
    /// Gradient w.r.t. the head entity's full row (`n·dim`).
    pub head: Vec<f32>,
    /// Gradient w.r.t. the tail entity's full row.
    pub tail: Vec<f32>,
    /// Gradient w.r.t. the relation's full row.
    pub rel: Vec<f32>,
    /// Gradient w.r.t. the *effective* ω (`n³`), populated only when the
    /// model's ω is trainable.
    pub omega_eff: Vec<f32>,
}

impl TripleGrads {
    /// Allocates zeroed buffers for a model of shape `cfg` (cubic grid —
    /// for non-cubic ω use [`MultiEmbedModel::new_grads`]).
    pub fn zeros(cfg: &ModelConfig) -> Self {
        Self::with_dims(cfg.n, cfg.n, cfg.dim)
    }

    /// Allocates zeroed buffers for an `n_ent`/`n_rel` grid.
    pub fn with_dims(n_ent: usize, n_rel: usize, dim: usize) -> Self {
        Self {
            head: vec![0.0; n_ent * dim],
            tail: vec![0.0; n_ent * dim],
            rel: vec![0.0; n_rel * dim],
            omega_eff: vec![0.0; n_ent * n_ent * n_rel],
        }
    }

    /// Zeroes all buffers.
    pub fn clear(&mut self) {
        self.head.fill(0.0);
        self.tail.fill(0.0);
        self.rel.fill(0.0);
        self.omega_eff.fill(0.0);
    }
}

/// The unified multi-embedding interaction model:
/// `S(h, t, r) = Σ_{i,j,k} ω(i,j,k) · ⟨h⁽ⁱ⁾, t⁽ʲ⁾, r⁽ᵏ⁾⟩` (Eq. 8).
///
/// With ω fixed to a [`WeightPreset`] this *is* DistMult / ComplEx / CP /
/// CPh / the quaternion model; with ω trainable it is the §3.3 learned
/// interaction mechanism.
///
/// ```
/// use mei_core::{MultiEmbedModel, WeightPreset};
/// use mei_kg::Triple;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let model = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 10, 3, 8, &mut rng);
/// // ComplEx scores are asymmetric in head and tail:
/// let fwd = model.score_triple(Triple::new(0, 1, 2));
/// let bwd = model.score_triple(Triple::new(1, 0, 2));
/// assert!((fwd - bwd).abs() > 1e-7);
/// ```
#[derive(Debug, Clone)]
pub struct MultiEmbedModel {
    cfg: ModelConfig,
    /// Entity embeddings.
    pub entities: EmbeddingTable,
    /// Relation embeddings.
    pub relations: EmbeddingTable,
    raw_omega: WeightVector,
    effective_omega: WeightVector,
    restriction: WeightRestriction,
    trainable_omega: bool,
    /// Cached nonzero effective terms for the scoring loop.
    terms: Vec<(usize, usize, usize, f32)>,
    /// `Some` for K>1 block-term models: restricts the ω support to the
    /// block-diagonal cells and routes context building through the
    /// packed-core kernels.
    block_term: Option<BlockTermShape>,
    /// Packed core tensors (support cells in `(p, a, c, b)` order),
    /// refreshed from effective ω by [`MultiEmbedModel::refresh_omega`].
    core_packed: Vec<f32>,
    /// Optional batch norm over the interaction context vectors.
    norm: Option<InteractionNorm>,
}

impl MultiEmbedModel {
    /// Builds a model with a **fixed** weight vector.
    pub fn with_fixed_weights<R: Rng + ?Sized>(
        cfg: ModelConfig,
        omega: WeightVector,
        rng: &mut R,
    ) -> Self {
        assert_eq!(omega.n(), cfg.n, "ω grid must match the model's entity n");
        let init = Init::EmbeddingUniform { dim: cfg.dim };
        let entities = EmbeddingTable::init(cfg.num_entities, cfg.n, cfg.dim, init, rng);
        let relations = EmbeddingTable::init(cfg.num_relations, omega.n_rel(), cfg.dim, init, rng);
        let terms = omega.terms();
        Self {
            cfg,
            entities,
            relations,
            raw_omega: omega.clone(),
            effective_omega: omega,
            restriction: WeightRestriction::None,
            trainable_omega: false,
            terms,
            block_term: None,
            core_packed: Vec::new(),
            norm: None,
        }
    }

    /// Builds a model from a Table-1/2 preset (dimension per embedding is
    /// `dim`; remember the paper's parameter-parity convention: D=400 for
    /// n=1-style DistMult on the 2-grid, 200 for n=2, 100 for n=4).
    pub fn from_preset<R: Rng + ?Sized>(
        preset: WeightPreset,
        num_entities: usize,
        num_relations: usize,
        dim: usize,
        rng: &mut R,
    ) -> Self {
        let cfg = ModelConfig { num_entities, num_relations, n: preset.n(), dim };
        Self::with_fixed_weights(cfg, preset.weight_vector(), rng)
    }

    /// Builds a model whose ω is **learned** end-to-end under
    /// `restriction` (§3.3). Raw ω is initialized uniformly in
    /// `[-omega_init_bound, omega_init_bound]` around zero, except that a
    /// bound of 0 yields exactly-uniform raw weights of 1 (Table 3's
    /// "uniform weight" row is the fixed special case of that).
    pub fn with_learned_weights<R: Rng + ?Sized>(
        cfg: ModelConfig,
        restriction: WeightRestriction,
        omega_init_bound: f32,
        rng: &mut R,
    ) -> Self {
        let n3 = cfg.n * cfg.n * cfg.n;
        let raw: Vec<f32> = if omega_init_bound == 0.0 {
            vec![1.0; n3]
        } else {
            (0..n3).map(|_| rng.gen_range(-omega_init_bound..=omega_init_bound)).collect()
        };
        let init = Init::EmbeddingUniform { dim: cfg.dim };
        let entities = EmbeddingTable::init(cfg.num_entities, cfg.n, cfg.dim, init, rng);
        let relations = EmbeddingTable::init(cfg.num_relations, cfg.n, cfg.dim, init, rng);
        let mut model = Self {
            cfg,
            entities,
            relations,
            raw_omega: WeightVector::new(cfg.n, raw),
            effective_omega: WeightVector::zeros(cfg.n),
            restriction,
            trainable_omega: true,
            terms: Vec::new(),
            block_term: None,
            core_packed: Vec::new(),
            norm: None,
        };
        model.refresh_omega();
        model
    }

    /// Builds a **block-term** (MEI K×Ce×Cr) model: `shape.k` independent
    /// partitions, each a Tucker-style contraction of a `ce`-vector head
    /// block, a `cr`-vector relation block, and a `ce`-vector tail block
    /// through a learned `Ce×Cr×Ce` core tensor, summed over partitions.
    ///
    /// Internally this is the unified model with `n = k·ce`,
    /// `n_rel = k·cr` and a trainable, unrestricted ω whose support is the
    /// block-diagonal cells; off-support cells are zero-initialized,
    /// receive no gradient, and stay exactly zero under Adam (zero
    /// gradient ⇒ zero moments ⇒ zero update), so everything downstream —
    /// scoring, `score_block`, k-vs-all training, serving, int8
    /// screening — runs unchanged on the generic grid machinery.
    ///
    /// Core entries are initialized like [`with_learned_weights`] raw ω
    /// (uniform in `±core_init_bound`, or exactly 1 when the bound is 0),
    /// drawn in support order. A `k = 1` shape spans the full grid and is
    /// canonicalized to a plain learned-ω model: with the same RNG it is
    /// **bitwise identical** — same draw sequence, same parameters, same
    /// serialized bytes — to
    /// `with_learned_weights(cfg, WeightRestriction::None, bound, rng)`
    /// on the matching cubic config (`block_term_parity.rs` asserts
    /// this bytewise).
    ///
    /// [`with_learned_weights`]: MultiEmbedModel::with_learned_weights
    ///
    /// ```
    /// use mei_core::model::BlockTermShape;
    /// use mei_core::MultiEmbedModel;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let mut rng = StdRng::seed_from_u64(1);
    /// let shape = BlockTermShape { k: 3, ce: 2, cr: 1 };
    /// let m = MultiEmbedModel::block_term(10, 4, shape, 8, 0.5, &mut rng);
    /// assert_eq!(m.config().n, 6);
    /// assert_eq!(m.omega().n_rel(), 3);
    /// // Only the K·Ce²·Cr support cells are live:
    /// assert_eq!(m.raw_omega().dense().iter().filter(|w| **w != 0.0).count(), 12);
    /// ```
    pub fn block_term<R: Rng + ?Sized>(
        num_entities: usize,
        num_relations: usize,
        shape: BlockTermShape,
        dim: usize,
        core_init_bound: f32,
        rng: &mut R,
    ) -> Self {
        assert!(shape.k >= 1 && shape.ce >= 1 && shape.cr >= 1, "block-term dims must be positive");
        let n = shape.n();
        let n_rel = shape.n_rel();
        let cfg = ModelConfig { num_entities, num_relations, n, dim };
        let mut raw = vec![0.0f32; n * n * n_rel];
        // Support cells drawn in (p, a, c, b) order — the grid's i-major
        // order restricted to the support, so for k = 1 (full grid) the
        // draw sequence equals `with_learned_weights`' flat fill exactly.
        for p in 0..shape.k {
            for a in 0..shape.ce {
                for c in 0..shape.ce {
                    for b in 0..shape.cr {
                        let idx = ((p * shape.ce + a) * n + (p * shape.ce + c)) * n_rel + (p * shape.cr + b);
                        raw[idx] = if core_init_bound == 0.0 {
                            1.0
                        } else {
                            rng.gen_range(-core_init_bound..=core_init_bound)
                        };
                    }
                }
            }
        }
        let init = Init::EmbeddingUniform { dim };
        let entities = EmbeddingTable::init(num_entities, n, dim, init, rng);
        let relations = EmbeddingTable::init(num_relations, n_rel, dim, init, rng);
        let mut model = Self {
            cfg,
            entities,
            relations,
            raw_omega: WeightVector::with_dims(n, n_rel, raw),
            effective_omega: WeightVector::with_dims(n, n_rel, vec![0.0; n * n * n_rel]),
            restriction: WeightRestriction::None,
            trainable_omega: true,
            terms: Vec::new(),
            // k = 1 spans the whole grid: canonicalize to the plain
            // learned-ω model so the special case *is* the existing code
            // path, not a parallel one.
            block_term: (shape.k > 1).then_some(shape),
            core_packed: Vec::new(),
            norm: None,
        };
        model.refresh_omega();
        model
    }

    /// Reassembles a model from its stored parts (deserialization).
    /// Call [`MultiEmbedModel::refresh_omega`] afterwards.
    pub fn from_parts(
        cfg: ModelConfig,
        entities: EmbeddingTable,
        relations: EmbeddingTable,
        raw_omega: WeightVector,
        restriction: WeightRestriction,
        trainable_omega: bool,
    ) -> Self {
        assert_eq!(raw_omega.n(), cfg.n);
        assert_eq!(entities.num_items(), cfg.num_entities);
        assert_eq!(relations.num_items(), cfg.num_relations);
        assert_eq!(entities.n(), cfg.n);
        assert_eq!(relations.n(), raw_omega.n_rel());
        assert_eq!(entities.dim(), cfg.dim);
        let effective_omega =
            WeightVector::with_dims(raw_omega.n(), raw_omega.n_rel(), vec![0.0; raw_omega.dense().len()]);
        let mut model = Self {
            cfg,
            entities,
            relations,
            raw_omega,
            effective_omega,
            restriction,
            trainable_omega,
            terms: Vec::new(),
            block_term: None,
            core_packed: Vec::new(),
            norm: None,
        };
        model.refresh_omega();
        model
    }

    /// Model shape.
    pub fn config(&self) -> &ModelConfig {
        &self.cfg
    }

    /// The effective (post-restriction) weight vector.
    pub fn omega(&self) -> &WeightVector {
        &self.effective_omega
    }

    /// The raw (pre-restriction) weight vector.
    pub fn raw_omega(&self) -> &WeightVector {
        &self.raw_omega
    }

    /// Mutable raw ω; call [`MultiEmbedModel::refresh_omega`] afterwards.
    pub fn raw_omega_mut(&mut self) -> &mut WeightVector {
        &mut self.raw_omega
    }

    /// Whether ω receives gradients during training.
    pub fn trainable_omega(&self) -> bool {
        self.trainable_omega
    }

    /// The restriction applied to raw ω.
    pub fn restriction(&self) -> WeightRestriction {
        self.restriction
    }

    /// The block-term shape, if this is a K>1 block-term model (`None`
    /// for plain models and for canonicalized full-grid `k = 1` shapes).
    pub fn block_term_shape(&self) -> Option<BlockTermShape> {
        self.block_term
    }

    /// Marks this model as block-term with `shape` (deserialization
    /// support); call [`MultiEmbedModel::refresh_omega`] afterwards.
    pub(crate) fn set_block_term(&mut self, shape: Option<BlockTermShape>) {
        if let Some(s) = shape {
            assert_eq!(s.n(), self.cfg.n, "block-term shape must match the model grid");
            assert_eq!(s.n_rel(), self.effective_omega.n_rel());
        }
        self.block_term = shape;
    }

    /// The interaction batch norm, if enabled.
    pub fn interaction_norm(&self) -> Option<&InteractionNorm> {
        self.norm.as_ref()
    }

    /// Mutable access to the interaction batch norm (trainer use: running
    /// stats and γ/β live here).
    pub fn interaction_norm_mut(&mut self) -> Option<&mut InteractionNorm> {
        self.norm.as_mut()
    }

    /// Enables identity-initialized batch norm over the interaction
    /// context vectors. The public context builders (and everything built
    /// on them: eval, `score_block`, serving) then apply the
    /// **running-stat** transform; training-mode batch statistics are the
    /// k-vs-all regularized path's job.
    pub fn enable_interaction_norm(&mut self, momentum: f32, eps: f32) {
        self.norm = Some(InteractionNorm::identity(self.cfg.n * self.cfg.dim, momentum, eps));
    }

    /// Replaces the interaction norm wholesale (deserialization support).
    pub(crate) fn set_interaction_norm(&mut self, norm: Option<InteractionNorm>) {
        if let Some(ref nrm) = norm {
            assert_eq!(nrm.kdim(), self.cfg.n * self.cfg.dim, "norm span must match n·dim");
        }
        self.norm = norm;
    }

    /// The cached scoring-term list `(i, j, k, ω_ijk)` — every grid cell
    /// when ω is trainable, only the nonzero cells otherwise.
    pub(crate) fn terms(&self) -> &[(usize, usize, usize, f32)] {
        &self.terms
    }

    /// Recomputes `effective ω = f(raw ω)` and the scoring-term cache.
    /// Must be called after every update to raw ω.
    pub fn refresh_omega(&mut self) {
        self.restriction.apply(self.raw_omega.dense(), self.effective_omega.dense_mut());
        self.terms = if let Some(bt) = self.block_term {
            // Block-term: only the support cells participate — in
            // (p, a, c, b) order, i.e. the grid's i-major order restricted
            // to the support, so off-support ω cells never receive
            // gradient mass and stay exactly zero.
            let n = self.cfg.n;
            debug_assert_eq!(bt.n(), n);
            let mut all = Vec::with_capacity(bt.num_core_params());
            for p in 0..bt.k {
                for a in 0..bt.ce {
                    for c in 0..bt.ce {
                        for b in 0..bt.cr {
                            let (i, j, k) = (p * bt.ce + a, p * bt.ce + c, p * bt.cr + b);
                            all.push((i, j, k, self.effective_omega.get(i, j, k)));
                        }
                    }
                }
            }
            // Packed core for the block contraction kernels: the same
            // support weights in the same order.
            self.core_packed.clear();
            self.core_packed.extend(all.iter().map(|t| t.3));
            all
        } else if self.trainable_omega {
            // All grid terms participate: zero weights still need
            // ω-gradients.
            let n = self.cfg.n;
            let nr = self.effective_omega.n_rel();
            let mut all = Vec::with_capacity(n * n * nr);
            for i in 0..n {
                for j in 0..n {
                    for k in 0..nr {
                        all.push((i, j, k, self.effective_omega.get(i, j, k)));
                    }
                }
            }
            all
        } else {
            self.effective_omega.terms()
        };
    }

    /// Total trainable parameter count (embeddings + raw ω when learned
    /// + γ/β when interaction norm is enabled).
    pub fn num_params(&self) -> usize {
        self.num_embedding_params()
            + if self.trainable_omega { self.raw_omega.dense().len() } else { 0 }
            + self.norm.as_ref().map_or(0, |nrm| 2 * nrm.kdim())
    }

    /// Total embedding parameter count (`n_D` of Eq. 16), respecting a
    /// possibly smaller relation grid.
    pub fn num_embedding_params(&self) -> usize {
        self.entities.len() + self.relations.len()
    }

    /// Allocates gradient buffers matching this model's (possibly
    /// non-cubic) grid.
    pub fn new_grads(&self) -> TripleGrads {
        TripleGrads::with_dims(self.cfg.n, self.effective_omega.n_rel(), self.cfg.dim)
    }

    /// Score of one triple (Eq. 8). With interaction norm enabled the
    /// score routes through the (normalized) tail context so it matches
    /// the ranking paths exactly.
    pub fn score_triple(&self, t: Triple) -> f32 {
        if self.norm.is_some() {
            let mut ctx = vec![0.0f32; self.cfg.n * self.cfg.dim];
            self.tail_context(t.head, t.relation, &mut ctx);
            return dot_fast(&ctx, self.entities.row(t.tail.idx()));
        }
        let h = self.entities.row(t.head.idx());
        let ta = self.entities.row(t.tail.idx());
        let r = self.relations.row(t.relation.idx());
        let d = self.cfg.dim;
        let mut s = 0.0f32;
        for &(i, j, k, w) in &self.terms {
            if w == 0.0 {
                continue;
            }
            s += w * trilinear_fast(&h[i * d..(i + 1) * d], &ta[j * d..(j + 1) * d], &r[k * d..(k + 1) * d]);
        }
        s
    }

    /// Scores the triple and accumulates `coef · ∂S/∂θ` into `grads` for
    /// every participating parameter (the analytic backward pass; `coef`
    /// is `∂L/∂S`). Returns the score.
    ///
    /// `grads` is **not** cleared first, so a caller can fold several
    /// corruptions of the same triple into shared buffers.
    pub fn score_and_accumulate_grads(&self, t: Triple, coef: f32, grads: &mut TripleGrads) -> f32 {
        assert!(
            self.norm.is_none(),
            "the per-triple gradient path does not support interaction batch norm; \
             train with --sampling kvsall"
        );
        let h = self.entities.row(t.head.idx());
        let ta = self.entities.row(t.tail.idx());
        let r = self.relations.row(t.relation.idx());
        let d = self.cfg.dim;
        let n = self.cfg.n;
        let mut s = 0.0f32;
        for &(i, j, k, w) in &self.terms {
            let hi = &h[i * d..(i + 1) * d];
            let tj = &ta[j * d..(j + 1) * d];
            let rk = &r[k * d..(k + 1) * d];
            let tri = trilinear(hi, tj, rk);
            s += w * tri;
            let cw = coef * w;
            if cw != 0.0 {
                hadamard_axpy(cw, tj, rk, &mut grads.head[i * d..(i + 1) * d]);
                hadamard_axpy(cw, hi, rk, &mut grads.tail[j * d..(j + 1) * d]);
                hadamard_axpy(cw, hi, tj, &mut grads.rel[k * d..(k + 1) * d]);
            }
            if self.trainable_omega {
                grads.omega_eff[(i * n + j) * self.effective_omega.n_rel() + k] += coef * tri;
            }
        }
        s
    }

    /// Backpropagates an effective-ω gradient through the restriction into
    /// a raw-ω gradient.
    pub fn omega_grad_raw(&self, grad_eff: &[f32], grad_raw: &mut [f32]) {
        self.restriction.backward(self.effective_omega.dense(), grad_eff, grad_raw);
    }

    /// Returns the concatenated embedding of an entity (§3.2's downstream
    /// feature vector).
    pub fn entity_embedding(&self, e: EntityId) -> Vec<f32> {
        self.entities.concatenated(e.idx())
    }

    /// Cosine similarity between two entities' concatenated embeddings —
    /// the data-analysis use case of §3.2.
    pub fn entity_cosine(&self, a: EntityId, b: EntityId) -> f32 {
        let va = self.entities.row(a.idx());
        let vb = self.entities.row(b.idx());
        let na = mei_math::l2_norm(va);
        let nb = mei_math::l2_norm(vb);
        if na < 1e-12 || nb < 1e-12 {
            return 0.0;
        }
        dot(va, vb) / (na * nb)
    }

    /// Fills `ctx` (length `n·dim`) with the tail-side interaction context
    /// `v⁽ʲ⁾ = Σ_{i,k} ω(i,j,k) · h⁽ⁱ⁾ ⊙ r⁽ᵏ⁾`, so that
    /// `S(h, t', r) = Σ_j ⟨v⁽ʲ⁾, t'⁽ʲ⁾⟩ = dot(ctx, row(t'))`.
    ///
    /// This is the evaluator's fast path: O(|terms|·D) once, then O(n·D)
    /// per candidate — the linear scaling §2.2.3 credits this model family
    /// with.
    pub fn tail_context(&self, head: EntityId, relation: RelationId, ctx: &mut [f32]) {
        self.tail_context_from_rows(
            self.entities.row(head.idx()),
            self.relations.row(relation.idx()),
            ctx,
        );
        if let Some(nrm) = &self.norm {
            nrm.apply_running(ctx);
        }
    }

    /// Head-side analogue: `u⁽ⁱ⁾ = Σ_{j,k} ω(i,j,k) · t⁽ʲ⁾ ⊙ r⁽ᵏ⁾`, so
    /// `S(h', t, r) = dot(ctx, row(h'))`.
    pub fn head_context(&self, tail: EntityId, relation: RelationId, ctx: &mut [f32]) {
        self.head_context_from_rows(
            self.entities.row(tail.idx()),
            self.relations.row(relation.idx()),
            ctx,
        );
        if let Some(nrm) = &self.norm {
            nrm.apply_running(ctx);
        }
    }

    /// Raw (pre-norm) tail context from explicit anchor/relation rows —
    /// the regularized training path builds contexts from dropout-masked
    /// rows through this. Block-term models take the packed-core kernel,
    /// which performs the identical kernel-call sequence as the generic
    /// term walk over the support cells (bit-identical by construction).
    pub(crate) fn tail_context_from_rows(&self, h: &[f32], r: &[f32], ctx: &mut [f32]) {
        debug_assert_eq!(ctx.len(), self.cfg.n * self.cfg.dim);
        ctx.fill(0.0);
        let d = self.cfg.dim;
        if let Some(bt) = self.block_term {
            block_tail_context(h, r, &self.core_packed, bt.k, bt.ce, bt.cr, d, ctx);
            return;
        }
        for &(i, j, k, w) in &self.terms {
            if w == 0.0 {
                continue;
            }
            hadamard_axpy_fast(w, &h[i * d..(i + 1) * d], &r[k * d..(k + 1) * d], &mut ctx[j * d..(j + 1) * d]);
        }
    }

    /// Raw (pre-norm) head context from explicit anchor/relation rows.
    pub(crate) fn head_context_from_rows(&self, t: &[f32], r: &[f32], ctx: &mut [f32]) {
        debug_assert_eq!(ctx.len(), self.cfg.n * self.cfg.dim);
        ctx.fill(0.0);
        let d = self.cfg.dim;
        if let Some(bt) = self.block_term {
            block_head_context(t, r, &self.core_packed, bt.k, bt.ce, bt.cr, d, ctx);
            return;
        }
        for &(i, j, k, w) in &self.terms {
            if w == 0.0 {
                continue;
            }
            hadamard_axpy_fast(w, &t[j * d..(j + 1) * d], &r[k * d..(k + 1) * d], &mut ctx[i * d..(i + 1) * d]);
        }
    }
}

impl TripleScorer for MultiEmbedModel {
    fn num_entities(&self) -> usize {
        self.cfg.num_entities
    }

    fn score(&self, head: EntityId, tail: EntityId, relation: RelationId) -> f32 {
        self.score_triple(Triple { head, tail, relation })
    }

    /// The scoring path for evaluation and serving: pack every query's
    /// interaction context into a row-major matrix and run one
    /// cache-blocked GEMM against the entity table, streaming the table
    /// once per block of queries instead of once per query.
    ///
    /// `gemm_nt` reduces each output element exactly like one `dot_fast`
    /// call on the query's context and the candidate's entity row, so a
    /// query's scores do not depend on which block it is scored in.
    fn score_block(&self, queries: &[BlockQuery], out: &mut [f32]) {
        let ne = self.cfg.num_entities;
        debug_assert_eq!(out.len(), queries.len() * ne);
        let k = self.cfg.n * self.cfg.dim;
        let mut ctxs = vec![0.0f32; queries.len() * k];
        for (q, ctx) in queries.iter().zip(ctxs.chunks_mut(k)) {
            match q.side {
                Side::Tail => self.tail_context(q.anchor, q.relation, ctx),
                Side::Head => self.head_context(q.anchor, q.relation, ctx),
            }
        }
        gemm_nt(&ctxs, self.entities.as_slice(), k, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mei_algebra::embedding::{complex_score, quaternion_score};
    use mei_autodiff::finite_difference_gradient;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(preset: WeightPreset, seed: u64) -> MultiEmbedModel {
        let mut rng = StdRng::seed_from_u64(seed);
        MultiEmbedModel::from_preset(preset, 6, 3, 5, &mut rng)
    }

    #[test]
    fn distmult_preset_is_plain_trilinear_on_first_component() {
        let m = tiny_model(WeightPreset::DistMult, 1);
        let t = Triple::new(0, 1, 0);
        let expect = trilinear(
            m.entities.vec(0, 0),
            m.entities.vec(1, 0),
            m.relations.vec(0, 0),
        );
        assert!((m.score_triple(t) - expect).abs() < 1e-6);
    }

    #[test]
    fn distmult_preset_is_symmetric_complex_is_not() {
        let dm = tiny_model(WeightPreset::DistMult, 2);
        let cx = tiny_model(WeightPreset::ComplEx, 2);
        let fwd = Triple::new(0, 1, 0);
        let bwd = Triple::new(1, 0, 0);
        assert!((dm.score_triple(fwd) - dm.score_triple(bwd)).abs() < 1e-6);
        assert!((cx.score_triple(fwd) - cx.score_triple(bwd)).abs() > 1e-6);
    }

    #[test]
    fn complex_preset_equals_native_complex_algebra() {
        // §3.2 / Eq. 10: the ω-preset score must equal Re⟨h, t̄, r⟩
        // computed natively in ℂ — the machine-checked derivation.
        let m = tiny_model(WeightPreset::ComplEx, 3);
        for (h, t, r) in [(0u32, 1u32, 0u32), (2, 5, 1), (4, 4, 2)] {
            let unified = m.score_triple(Triple::new(h, t, r));
            let native = complex_score(
                [m.entities.vec(h as usize, 0), m.entities.vec(h as usize, 1)],
                [m.entities.vec(t as usize, 0), m.entities.vec(t as usize, 1)],
                [m.relations.vec(r as usize, 0), m.relations.vec(r as usize, 1)],
            );
            assert!((unified - native).abs() < 1e-5, "unified {unified} vs native {native}");
        }
    }

    #[test]
    fn complex_equivalents_score_like_complex_up_to_component_relabeling() {
        // All four ComplEx forms are equivalent *as model classes* — for a
        // fixed random embedding they differ, but each is realized from
        // another by swapping/negating components. Spot-check equiv. 1:
        // conjugating the relation (negating its second component) maps
        // ComplEx onto equiv. 1.
        let m = tiny_model(WeightPreset::ComplEx, 4);
        let mut m1 = m.clone();
        m1.raw_omega_mut().dense_mut().copy_from_slice(&WeightPreset::ComplExEquiv1.omega());
        m1.refresh_omega();
        // Negate Im(r) for every relation in m1.
        for rel in 0..3 {
            for v in m1.relations.vec_mut(rel, 1) {
                *v = -*v;
            }
        }
        for (h, t, r) in [(0u32, 1u32, 0u32), (2, 3, 1), (5, 0, 2)] {
            let a = m.score_triple(Triple::new(h, t, r));
            let b = m1.score_triple(Triple::new(h, t, r));
            assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn quaternion_preset_equals_native_quaternion_algebra() {
        let mut rng = StdRng::seed_from_u64(9);
        let m = MultiEmbedModel::from_preset(WeightPreset::Quaternion, 5, 2, 4, &mut rng);
        for (h, t, r) in [(0u32, 1u32, 0u32), (3, 2, 1), (4, 4, 0)] {
            let unified = m.score_triple(Triple::new(h, t, r));
            let e = |i: u32, c: usize| m.entities.vec(i as usize, c);
            let rl = |i: u32, c: usize| m.relations.vec(i as usize, c);
            let native = quaternion_score(
                [e(h, 0), e(h, 1), e(h, 2), e(h, 3)],
                [e(t, 0), e(t, 1), e(t, 2), e(t, 3)],
                [rl(r, 0), rl(r, 1), rl(r, 2), rl(r, 3)],
            );
            assert!((unified - native).abs() < 1e-4, "unified {unified} vs native {native}");
        }
    }

    #[test]
    fn octonion_preset_equals_native_octonion_algebra() {
        let mut rng = StdRng::seed_from_u64(31);
        let m = MultiEmbedModel::from_preset(WeightPreset::Octonion, 5, 2, 3, &mut rng);
        for (h, t, r) in [(0u32, 1u32, 0u32), (3, 2, 1), (4, 4, 0)] {
            let unified = m.score_triple(Triple::new(h, t, r));
            let e = |i: u32| -> [&[f32]; 8] {
                std::array::from_fn(|c| m.entities.vec(i as usize, c))
            };
            let rl = |i: u32| -> [&[f32]; 8] {
                std::array::from_fn(|c| m.relations.vec(i as usize, c))
            };
            let native = mei_algebra::embedding::octonion_score(e(h), e(t), rl(r));
            assert!((unified - native).abs() < 1e-4, "unified {unified} vs native {native}");
        }
    }

    #[test]
    fn batched_scoring_matches_pointwise() {
        for preset in [WeightPreset::ComplEx, WeightPreset::Cp, WeightPreset::Quaternion] {
            let m = tiny_model(preset, 7);
            let queries = [
                BlockQuery::tails(EntityId(2), RelationId(1)),
                BlockQuery::heads(EntityId(3), RelationId(0)),
            ];
            let mut out = vec![0.0f32; 2 * 6];
            m.score_block(&queries, &mut out);
            let (tails, heads) = out.split_at(6);
            for (e, v) in tails.iter().enumerate() {
                let direct = m.score(EntityId(2), EntityId(e as u32), RelationId(1));
                assert!((v - direct).abs() < 1e-4, "{preset:?} tail {e}: {v} vs {direct}");
            }
            for (e, v) in heads.iter().enumerate() {
                let direct = m.score(EntityId(e as u32), EntityId(3), RelationId(0));
                assert!((v - direct).abs() < 1e-4, "{preset:?} head {e}: {v} vs {direct}");
            }
        }
    }

    #[test]
    fn analytic_gradients_match_finite_differences() {
        let mut m = tiny_model(WeightPreset::ComplEx, 11);
        let t = Triple::new(0, 1, 2);
        let coef = 0.7f32;
        let mut grads = TripleGrads::zeros(m.config());
        m.score_and_accumulate_grads(t, coef, &mut grads);

        // Finite differences on the head row.
        let row_len = m.config().n * m.config().dim;
        let base: Vec<f64> = m.entities.row(0).iter().map(|v| f64::from(*v)).collect();
        for idx in 0..row_len {
            let mut probe = |delta: f64| -> f64 {
                let mut x = base.clone();
                x[idx] += delta;
                for (slot, v) in m.entities.row_mut(0).iter_mut().zip(&x) {
                    *slot = *v as f32;
                }
                let s = f64::from(m.score_triple(t));
                for (slot, v) in m.entities.row_mut(0).iter_mut().zip(&base) {
                    *slot = *v as f32;
                }
                s
            };
            let fd = (probe(1e-3) - probe(-1e-3)) / 2e-3 * f64::from(coef);
            assert!(
                (f64::from(grads.head[idx]) - fd).abs() < 5e-3 * (1.0 + fd.abs()),
                "head[{idx}]: {} vs {}",
                grads.head[idx],
                fd
            );
        }
    }

    #[test]
    fn self_loop_triple_gradients_are_well_defined() {
        // head == tail: both gradient buffers refer to the same entity row;
        // the trainer sums them. Here we just check the math stays finite
        // and the score matches.
        let m = tiny_model(WeightPreset::Cph, 13);
        let t = Triple::new(2, 2, 1);
        let mut g = TripleGrads::zeros(m.config());
        let s = m.score_and_accumulate_grads(t, 1.0, &mut g);
        assert!((s - m.score_triple(t)).abs() < 1e-6);
        assert!(g.head.iter().chain(&g.tail).all(|v| v.is_finite()));
    }

    #[test]
    fn learned_omega_gradients_match_finite_differences() {
        let mut rng = StdRng::seed_from_u64(21);
        let cfg = ModelConfig { num_entities: 5, num_relations: 2, n: 2, dim: 4 };
        for restriction in [
            WeightRestriction::None,
            WeightRestriction::Tanh,
            WeightRestriction::Sigmoid,
            WeightRestriction::Softmax,
        ] {
            let m = MultiEmbedModel::with_learned_weights(cfg, restriction, 0.5, &mut rng);
            let t = Triple::new(0, 1, 0);
            let mut g = TripleGrads::zeros(&cfg);
            m.score_and_accumulate_grads(t, 1.0, &mut g);
            let mut grad_raw = vec![0.0f32; 8];
            m.omega_grad_raw(&g.omega_eff, &mut grad_raw);

            let base: Vec<f64> = m.raw_omega().dense().iter().map(|v| f64::from(*v)).collect();
            let probe = std::cell::RefCell::new(m.clone());
            let fd = finite_difference_gradient(
                |x: &[f64]| {
                    let mut m = probe.borrow_mut();
                    for (slot, v) in m.raw_omega_mut().dense_mut().iter_mut().zip(x) {
                        *slot = *v as f32;
                    }
                    m.refresh_omega();
                    f64::from(m.score_triple(t))
                },
                &base,
                1e-3,
            );
            for i in 0..8 {
                assert!(
                    (f64::from(grad_raw[i]) - fd[i]).abs() < 1e-3,
                    "{restriction:?} ω[{i}]: analytic {} vs fd {}",
                    grad_raw[i],
                    fd[i]
                );
            }
        }
    }

    #[test]
    fn fixed_model_skips_omega_grads_and_counts_params() {
        let m = tiny_model(WeightPreset::DistMult, 1);
        assert!(!m.trainable_omega());
        assert_eq!(m.num_params(), (6 + 3) * 2 * 5);
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ModelConfig { num_entities: 6, num_relations: 3, n: 2, dim: 5 };
        let lm = MultiEmbedModel::with_learned_weights(cfg, WeightRestriction::None, 0.5, &mut rng);
        assert_eq!(lm.num_params(), (6 + 3) * 2 * 5 + 8);
    }

    #[test]
    fn entity_cosine_is_one_on_self() {
        let m = tiny_model(WeightPreset::ComplEx, 5);
        assert!((m.entity_cosine(EntityId(0), EntityId(0)) - 1.0).abs() < 1e-5);
        let c = m.entity_cosine(EntityId(0), EntityId(1));
        assert!((-1.0..=1.0).contains(&c));
    }

    #[test]
    fn uniform_learned_softmax_starts_uniform() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = ModelConfig { num_entities: 4, num_relations: 2, n: 2, dim: 3 };
        let m = MultiEmbedModel::with_learned_weights(cfg, WeightRestriction::Softmax, 0.0, &mut rng);
        for w in m.omega().dense() {
            assert!((w - 0.125).abs() < 1e-6);
        }
    }

    #[test]
    fn score_block_is_bitwise_identical_to_per_query_path() {
        // The blocked GEMM must reproduce the per-query oracle (one
        // context, then `dot_fast` against every entity row) exactly, so a
        // query's scores do not depend on the block it lands in. Use an
        // awkward dim so the kernels' unroll remainders are exercised.
        let mut rng = StdRng::seed_from_u64(17);
        let m = MultiEmbedModel::from_preset(WeightPreset::ComplEx, 37, 4, 13, &mut rng);
        let queries: Vec<BlockQuery> = (0..12)
            .map(|q| {
                let anchor = EntityId((q * 5 % 37) as u32);
                let rel = RelationId((q % 4) as u32);
                if q % 2 == 0 {
                    BlockQuery::tails(anchor, rel)
                } else {
                    BlockQuery::heads(anchor, rel)
                }
            })
            .collect();
        let ne = m.num_entities();
        let mut blocked = vec![0.0f32; queries.len() * ne];
        m.score_block(&queries, &mut blocked);
        let mut ctx = vec![0.0f32; m.entities.row_len()];
        for (q, blocked_row) in queries.iter().zip(blocked.chunks(ne)) {
            match q.side {
                Side::Tail => m.tail_context(q.anchor, q.relation, &mut ctx),
                Side::Head => m.head_context(q.anchor, q.relation, &mut ctx),
            }
            for (e, a) in blocked_row.iter().enumerate() {
                assert_eq!(a.to_bits(), dot_fast(&ctx, m.entities.row(e)).to_bits());
            }
        }
    }

    #[test]
    fn score_block_on_empty_query_list_is_a_no_op() {
        let m = tiny_model(WeightPreset::DistMult, 3);
        m.score_block(&[], &mut []);
    }
}
