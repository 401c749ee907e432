//! Deterministic, seedable parameter initializers.
//!
//! Every random draw in the workspace flows from a caller-provided RNG so a
//! single `u64` seed reproduces an entire experiment bit-for-bit.

use rand::Rng;

/// Initialization scheme for an embedding or weight table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// Uniform on `[-bound, bound]`.
    Uniform {
        /// Half-width of the interval.
        bound: f32,
    },
    /// The TransE-style initializer: uniform on `[-6/√D, 6/√D]`.
    EmbeddingUniform {
        /// Embedding dimensionality `D`.
        dim: usize,
    },
    /// Every element set to a constant (used for weight-vector warm starts).
    Constant(f32),
}

impl Init {
    /// Fills `out` in place using draws from `rng`.
    pub fn fill<R: Rng + ?Sized>(&self, rng: &mut R, out: &mut [f32]) {
        match *self {
            Init::Uniform { bound } => {
                for v in out {
                    *v = rng.gen_range(-bound..=bound);
                }
            }
            Init::EmbeddingUniform { dim } => {
                let bound = 6.0 / (dim.max(1) as f32).sqrt();
                for v in out {
                    *v = rng.gen_range(-bound..=bound);
                }
            }
            Init::Constant(c) => {
                for v in out {
                    *v = c;
                }
            }
        }
    }

    /// Allocates and fills a vector of length `n`.
    pub fn vec<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f32> {
        let mut v = vec![0.0; n];
        self.fill(rng, &mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn uniform_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = Init::Uniform { bound: 0.5 }.vec(&mut rng, 1000);
        assert!(v.iter().all(|x| x.abs() <= 0.5));
        // Not degenerate: spread over the interval.
        assert!(v.iter().any(|x| *x > 0.25));
        assert!(v.iter().any(|x| *x < -0.25));
    }

    #[test]
    fn same_seed_same_draws() {
        let a = Init::EmbeddingUniform { dim: 64 }
            .vec(&mut StdRng::seed_from_u64(42), 128);
        let b = Init::EmbeddingUniform { dim: 64 }
            .vec(&mut StdRng::seed_from_u64(42), 128);
        assert_eq!(a, b);
    }

    #[test]
    fn constant_fill() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = Init::Constant(1.25).vec(&mut rng, 5);
        assert_eq!(v, vec![1.25; 5]);
    }

    #[test]
    fn embedding_uniform_handles_dim_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        let v = Init::EmbeddingUniform { dim: 0 }.vec(&mut rng, 3);
        assert!(v.iter().all(|x| x.is_finite()));
    }
}
