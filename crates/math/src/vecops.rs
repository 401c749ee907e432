//! Element-wise vector kernels over `&[f32]` slices.
//!
//! All functions panic (via `debug_assert!` in release-hot paths and
//! `assert!` where cheap) when slice lengths disagree; callers own layout.

/// Dot product `Σ_d a[d]·b[d]`.
///
/// Accumulates in `f64` to keep rank computations stable for embedding sizes
/// in the hundreds, then truncates back to `f32`.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = 0.0f64;
    for (x, y) in a.iter().zip(b) {
        acc += f64::from(*x) * f64::from(*y);
    }
    acc as f32
}

/// Trilinear product `⟨a, b, c⟩ = Σ_d a[d]·b[d]·c[d]` (Eq. 3 of the paper).
///
/// This is the score kernel of every trilinear-product-based model:
/// DistMult, ComplEx, CP, CPh and the generalized multi-embedding
/// interaction mechanism all reduce to weighted sums of this quantity.
#[inline]
pub fn trilinear(a: &[f32], b: &[f32], c: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), c.len());
    let mut acc = 0.0f64;
    for d in 0..a.len() {
        acc += f64::from(a[d]) * f64::from(b[d]) * f64::from(c[d]);
    }
    acc as f32
}

/// In-place AXPY: `y[d] += alpha · x[d]`.
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    for (yd, xd) in y.iter_mut().zip(x) {
        *yd += alpha * xd;
    }
}

/// In-place scaled Hadamard accumulation: `out[d] += alpha · a[d] · b[d]`.
///
/// The gradient of a trilinear product with respect to one factor is exactly
/// the Hadamard product of the other two, so this is the workhorse of the
/// analytic backward pass.
#[inline]
pub fn hadamard_axpy(alpha: f32, a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for d in 0..out.len() {
        out[d] += alpha * a[d] * b[d];
    }
}

/// Element-wise product `out[d] = a[d]·b[d]`.
#[inline]
pub fn hadamard(a: &[f32], b: &[f32], out: &mut [f32]) {
    debug_assert_eq!(a.len(), b.len());
    debug_assert_eq!(a.len(), out.len());
    for d in 0..out.len() {
        out[d] = a[d] * b[d];
    }
}

/// In-place scaling `x[d] *= alpha`.
#[inline]
pub fn scale(alpha: f32, x: &mut [f32]) {
    for v in x {
        *v *= alpha;
    }
}

/// Euclidean norm `‖x‖₂`, accumulated in `f64`.
#[inline]
pub fn l2_norm(x: &[f32]) -> f32 {
    let mut acc = 0.0f64;
    for v in x {
        acc += f64::from(*v) * f64::from(*v);
    }
    (acc.sqrt()) as f32
}

/// Squared Euclidean norm `‖x‖₂²`.
#[inline]
pub fn l2_norm_sq(x: &[f32]) -> f32 {
    let mut acc = 0.0f64;
    for v in x {
        acc += f64::from(*v) * f64::from(*v);
    }
    acc as f32
}

/// L1 norm `Σ_d |x[d]|`.
#[inline]
pub fn l1_norm(x: &[f32]) -> f32 {
    x.iter().map(|v| v.abs() as f64).sum::<f64>() as f32
}

/// Projects `x` onto the unit L2 sphere in place.
///
/// The paper constrains entity embedding vectors to unit L2 norm after each
/// training iteration (§5.3). Vectors with norm below `1e-12` are left
/// untouched to avoid division blow-ups.
#[inline]
pub fn normalize_l2(x: &mut [f32]) {
    let n = l2_norm(x);
    if n > 1e-12 {
        scale(1.0 / n, x);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_hand_computation() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    fn trilinear_matches_hand_computation() {
        // 1*4*7 + 2*5*8 + 3*6*9 = 28 + 80 + 162 = 270
        assert_eq!(
            trilinear(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 9.0]),
            270.0
        );
    }

    #[test]
    fn trilinear_is_symmetric_in_arguments() {
        let (a, b, c) = ([0.3f32, -1.2, 2.0], [1.5f32, 0.4, -0.7], [2.0f32, -0.1, 0.9]);
        let s = trilinear(&a, &b, &c);
        assert!((s - trilinear(&b, &a, &c)).abs() < 1e-6);
        assert!((s - trilinear(&c, &b, &a)).abs() < 1e-6);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = [1.0f32, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, [7.0, -1.0]);
    }

    #[test]
    fn hadamard_axpy_is_trilinear_gradient() {
        // d/da ⟨a,b,c⟩ = b⊙c
        let b = [2.0f32, 3.0];
        let c = [5.0f32, 7.0];
        let mut g = [0.0f32; 2];
        hadamard_axpy(1.0, &b, &c, &mut g);
        assert_eq!(g, [10.0, 21.0]);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut x = [3.0f32, 4.0];
        normalize_l2(&mut x);
        assert!((l2_norm(&x) - 1.0).abs() < 1e-6);
        assert!((x[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn normalize_leaves_zero_vector() {
        let mut x = [0.0f32; 4];
        normalize_l2(&mut x);
        assert_eq!(x, [0.0; 4]);
    }

    #[test]
    fn norms() {
        let x = [3.0f32, -4.0];
        assert_eq!(l2_norm(&x), 5.0);
        assert_eq!(l2_norm_sq(&x), 25.0);
        assert_eq!(l1_norm(&x), 7.0);
    }
}
