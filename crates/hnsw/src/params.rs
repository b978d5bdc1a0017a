//! Construction parameters.

use vecsim::Metric;

use crate::{Error, Result};

/// Parameters controlling HNSW construction and the default search.
///
/// The names follow the paper and the reference `hnswlib` implementation:
/// `M` is the degree budget on the upper layers (the ground layer allows
/// `2M`), `ef_construction` is the candidate-list width during insertion,
/// and `mL = 1/ln(M)` scales the geometric level sampler.
///
/// This is a non-consuming builder: configure with chained `&mut self`
/// methods and pass `&params` to [`crate::HnswIndex::build`].
///
/// # Example
///
/// ```rust
/// use hnsw::HnswParams;
/// use vecsim::Metric;
///
/// let p = HnswParams::new(16, 200)
///     .metric(Metric::Cosine)
///     .max_level(2) // a three-layer "pyramid" build, as meta-HNSW uses
///     .seed(7);
/// assert_eq!(p.m(), 16);
/// assert_eq!(p.m0(), 32);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HnswParams {
    m: usize,
    ef_construction: usize,
    metric: Metric,
    max_level: Option<usize>,
    seed: u64,
}

impl HnswParams {
    /// Creates parameters with degree budget `m` and construction beam
    /// width `ef_construction`. Values are validated at build time by
    /// [`HnswParams::validate`].
    pub fn new(m: usize, ef_construction: usize) -> Self {
        HnswParams {
            m,
            ef_construction,
            metric: Metric::L2,
            max_level: None,
            seed: 0,
        }
    }

    /// Sets the distance metric (default [`Metric::L2`]).
    pub fn metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// Caps the maximum level a node can be assigned. `max_level(2)` yields
    /// at most three layers (0, 1, 2) — the shape the paper's meta-HNSW
    /// uses. `None` (default) leaves the geometric sampler unbounded.
    pub fn max_level(mut self, level: usize) -> Self {
        self.max_level = Some(level);
        self
    }

    /// Seeds the level sampler, making builds fully deterministic.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Degree budget for layers above the ground layer.
    pub fn m(&self) -> usize {
        self.m
    }

    /// Degree budget for the ground layer (`2M`, following the paper).
    pub fn m0(&self) -> usize {
        self.m * 2
    }

    /// Construction beam width.
    pub fn ef_construction(&self) -> usize {
        self.ef_construction
    }

    /// Distance metric.
    pub fn metric_kind(&self) -> Metric {
        self.metric
    }

    /// Level cap, if any.
    pub fn max_level_cap(&self) -> Option<usize> {
        self.max_level
    }

    /// RNG seed for level sampling.
    pub fn rng_seed(&self) -> u64 {
        self.seed
    }

    /// Level-sampler scale `mL = 1 / ln(M)`.
    pub fn level_lambda(&self) -> f64 {
        1.0 / (self.m as f64).ln()
    }

    /// Validates the parameter set.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] if `m < 2` or
    /// `ef_construction == 0`.
    pub fn validate(&self) -> Result<()> {
        if self.m < 2 {
            return Err(Error::InvalidParameter(format!(
                "m must be >= 2, got {}",
                self.m
            )));
        }
        if self.ef_construction == 0 {
            return Err(Error::InvalidParameter(
                "ef_construction must be >= 1".into(),
            ));
        }
        Ok(())
    }
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams::new(16, 200)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        HnswParams::default().validate().unwrap();
    }

    #[test]
    fn m0_is_twice_m() {
        assert_eq!(HnswParams::new(12, 100).m0(), 24);
    }

    #[test]
    fn invalid_m_is_rejected() {
        assert!(HnswParams::new(1, 100).validate().is_err());
        assert!(HnswParams::new(0, 100).validate().is_err());
    }

    #[test]
    fn invalid_ef_construction_is_rejected() {
        assert!(HnswParams::new(8, 0).validate().is_err());
    }

    #[test]
    fn level_lambda_matches_formula() {
        let p = HnswParams::new(16, 100);
        assert!((p.level_lambda() - 1.0 / 16f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn builder_chain_sets_all_fields() {
        let p = HnswParams::new(8, 50)
            .metric(Metric::InnerProduct)
            .max_level(2)
            .seed(99);
        assert_eq!(p.metric_kind(), Metric::InnerProduct);
        assert_eq!(p.max_level_cap(), Some(2));
        assert_eq!(p.rng_seed(), 99);
    }
}
