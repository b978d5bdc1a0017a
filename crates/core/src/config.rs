//! System configuration.

use hnsw::HnswParams;
use rdma_sim::NetworkModel;
use vecsim::Metric;

use crate::{Error, Result};

/// Wire format for cluster payloads fetched from the memory pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum QuantizeMode {
    /// Full-precision f32 clusters (the original wire format).
    #[default]
    Off,
    /// Scalar-quantized (SQ8) cluster payloads: the store writes a
    /// compressed copy of every cluster into the layout-v3 tail
    /// region, queries search over codes with asymmetric L2, and exact
    /// distances come from a targeted full-vector rerank read.
    Sq8,
}

impl QuantizeMode {
    /// Parses the CLI/env spelling: `off` or `sq8`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] on any other string.
    pub fn parse(s: &str) -> Result<Self> {
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" | "full" => Ok(QuantizeMode::Off),
            "sq8" => Ok(QuantizeMode::Sq8),
            other => Err(Error::InvalidParameter(format!(
                "unknown quantize mode {other:?} (expected off|sq8)"
            ))),
        }
    }

    /// The canonical spelling, matching what [`QuantizeMode::parse`]
    /// accepts.
    pub fn as_str(&self) -> &'static str {
        match self {
            QuantizeMode::Off => "off",
            QuantizeMode::Sq8 => "sq8",
        }
    }
}

/// Configuration for building and querying a d-HNSW store.
///
/// The defaults mirror the paper's setup ([`DHnswConfig::paper`]): 500
/// representatives, a three-layer meta-HNSW, a compute-side cache sized to
/// 10% of the clusters, and a ConnectX-6-like fabric.
/// [`DHnswConfig::small`] shrinks everything for tests and doc examples.
///
/// # Example
///
/// ```rust
/// use dhnsw::DHnswConfig;
///
/// let cfg = DHnswConfig::paper().with_fanout(6).with_cache_fraction(0.2);
/// assert_eq!(cfg.representatives(), 500);
/// assert_eq!(cfg.fanout(), 6);
/// ```
#[derive(Debug, Clone)]
pub struct DHnswConfig {
    representatives: usize,
    fanout: usize,
    cache_fraction: f64,
    overflow_slots: usize,
    metric: Metric,
    meta_params: HnswParams,
    sub_params: HnswParams,
    network: NetworkModel,
    seed: u64,
    search_threads: usize,
    read_retry_limit: u32,
    degraded_ok: bool,
    quantize_mode: QuantizeMode,
    rerank_k: usize,
}

impl DHnswConfig {
    /// The paper's configuration: 500 representatives, fan-out 4, 10%
    /// cluster cache, ConnectX-6 network model.
    pub fn paper() -> Self {
        DHnswConfig {
            representatives: 500,
            fanout: 4,
            cache_fraction: 0.10,
            overflow_slots: 256,
            metric: Metric::L2,
            meta_params: HnswParams::new(8, 100).max_level(2),
            sub_params: HnswParams::new(16, 100),
            network: NetworkModel::connectx6(),
            seed: 0x5EED,
            search_threads: 0,
            read_retry_limit: 3,
            degraded_ok: false,
            quantize_mode: QuantizeMode::Off,
            rerank_k: 32,
        }
    }

    /// A scaled-down configuration for unit tests and doc examples: 32
    /// representatives and lighter graph parameters.
    pub fn small() -> Self {
        DHnswConfig {
            representatives: 32,
            fanout: 4,
            cache_fraction: 0.10,
            overflow_slots: 32,
            metric: Metric::L2,
            meta_params: HnswParams::new(6, 40).max_level(2),
            sub_params: HnswParams::new(8, 50),
            network: NetworkModel::connectx6(),
            seed: 0x5EED,
            search_threads: 1,
            read_retry_limit: 3,
            degraded_ok: false,
            quantize_mode: QuantizeMode::Off,
            rerank_k: 16,
        }
    }

    /// Number of uniformly sampled representative vectors (= partitions).
    pub fn representatives(&self) -> usize {
        self.representatives
    }

    /// Sets the representative count.
    pub fn with_representatives(mut self, n: usize) -> Self {
        self.representatives = n;
        self
    }

    /// Partitions probed per query (`b` in §3.3).
    pub fn fanout(&self) -> usize {
        self.fanout
    }

    /// Sets the per-query partition fan-out.
    pub fn with_fanout(mut self, b: usize) -> Self {
        self.fanout = b;
        self
    }

    /// Fraction of all clusters the compute-side LRU cache holds (`c`
    /// expressed relative to the cluster count; the paper uses 10%).
    pub fn cache_fraction(&self) -> f64 {
        self.cache_fraction
    }

    /// Sets the cache fraction.
    pub fn with_cache_fraction(mut self, f: f64) -> Self {
        self.cache_fraction = f;
        self
    }

    /// Cache capacity in clusters for a store with `partitions`
    /// clusters: at most all of them, and exactly `0` — caching
    /// disabled — when the fraction is `0.0`.
    pub fn cache_capacity(&self, partitions: usize) -> usize {
        if self.cache_fraction == 0.0 {
            return 0;
        }
        ((partitions as f64 * self.cache_fraction).ceil() as usize).clamp(1, partitions.max(1))
    }

    /// Engine-level read retries per cluster load, on top of rdma-sim's
    /// own retransmission budget. Each retry re-reads the cluster span
    /// after a version mismatch or an exhausted-retransmission error.
    pub fn read_retry_limit(&self) -> u32 {
        self.read_retry_limit
    }

    /// Sets the engine-level read retry budget.
    pub fn with_read_retry_limit(mut self, n: u32) -> Self {
        self.read_retry_limit = n;
        self
    }

    /// Whether a query batch may complete with *degraded* results when a
    /// cluster read exhausts the retry budget: affected queries are
    /// answered from the clusters that did arrive and report coverage
    /// `< 1.0` in [`crate::BatchReport`]. When `false` (the default),
    /// the batch fails with [`Error::ReadRetriesExhausted`].
    pub fn degraded_ok(&self) -> bool {
        self.degraded_ok
    }

    /// Sets whether degraded query results are acceptable.
    pub fn with_degraded_ok(mut self, ok: bool) -> Self {
        self.degraded_ok = ok;
        self
    }

    /// Load rounds a batch is split into: always `1`, the one round per
    /// batch of §3.3. A constant with no setting behind it, kept for the
    /// benchmark's effective-config record, which prints it.
    pub fn pipeline_depth(&self) -> usize {
        1
    }

    /// Bytes a between-batch prefetch may read: always `0`, nothing is
    /// read between batches. A constant with no setting behind it, kept
    /// for the benchmark's effective-config record, which prints it.
    pub fn prefetch_budget_bytes(&self) -> u64 {
        0
    }

    /// Cluster wire format: full-precision or SQ8-compressed.
    pub fn quantize_mode(&self) -> QuantizeMode {
        self.quantize_mode
    }

    /// Sets the cluster wire format. [`QuantizeMode::Sq8`] makes the
    /// store write a compressed copy of every cluster (layout v3) and
    /// the engine fetch codes instead of f32 vectors.
    pub fn with_quantize_mode(mut self, mode: QuantizeMode) -> Self {
        self.quantize_mode = mode;
        self
    }

    /// Extra candidates (beyond `k`) a quantized search keeps per query
    /// as the exact-rerank pool. Ignored when quantization is off.
    pub fn rerank_k(&self) -> usize {
        self.rerank_k
    }

    /// Sets the rerank candidate pool size (must be `>= 1` when
    /// quantization is on).
    pub fn with_rerank_k(mut self, k: usize) -> Self {
        self.rerank_k = k;
        self
    }

    /// Overflow capacity per group, in inserted-vector records.
    pub fn overflow_slots(&self) -> usize {
        self.overflow_slots
    }

    /// Sets the per-group overflow capacity in records.
    pub fn with_overflow_slots(mut self, slots: usize) -> Self {
        self.overflow_slots = slots;
        self
    }

    /// Distance metric.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Sets the distance metric (propagated to both HNSW layers).
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }

    /// HNSW parameters for the meta index (level-capped).
    pub fn meta_params(&self) -> HnswParams {
        self.meta_params
            .clone()
            .metric(self.metric)
            .seed(self.seed ^ 0x11)
    }

    /// HNSW parameters for the per-partition sub-indexes.
    pub fn sub_params(&self) -> HnswParams {
        self.sub_params
            .clone()
            .metric(self.metric)
            .seed(self.seed ^ 0x22)
    }

    /// The network cost model.
    pub fn network(&self) -> NetworkModel {
        self.network
    }

    /// Sets the network cost model.
    pub fn with_network(mut self, model: NetworkModel) -> Self {
        self.network = model;
        self
    }

    /// Worker threads per compute instance for cluster materialization
    /// and sub-HNSW search (`0` = all available cores). The paper runs 18
    /// OpenMP threads per instance.
    pub fn search_threads(&self) -> usize {
        self.search_threads
    }

    /// Sets the per-instance search thread count (`0` = auto).
    pub fn with_search_threads(mut self, threads: usize) -> Self {
        self.search_threads = threads;
        self
    }

    /// The effective thread count after resolving `0` to the host
    /// parallelism.
    pub fn effective_search_threads(&self) -> usize {
        if self.search_threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.search_threads
        }
    }

    /// RNG seed for sampling and graph builds.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Sets the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Applies the `DHNSW_*` environment overrides, so the test suite
    /// and `repro` sweeps can flip them without code changes. This module
    /// is the one place the crate reads the environment; a variable that
    /// is set wins over the value configured in code. Every other knob
    /// has one channel: its builder here, or a `dhnsw_cli` flag.
    ///
    /// | variable | overrides |
    /// |----------|-----------|
    /// | `DHNSW_SEARCH_THREADS` | [`DHnswConfig::search_threads`] (`0` = all cores) |
    /// | `DHNSW_QUANTIZE_MODE` (`off`, `sq8`) | [`DHnswConfig::quantize_mode`] |
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] naming the variable when one is
    /// set to something that does not parse — a typo must not silently
    /// run the default.
    pub fn with_env_overrides(self) -> Result<Self> {
        self.with_overrides(&process_env)
    }

    /// [`DHnswConfig::with_env_overrides`] over any variable lookup.
    fn with_overrides(mut self, var: &dyn Fn(&str) -> Option<String>) -> Result<Self> {
        if let Some(t) = parse_var(var, "DHNSW_SEARCH_THREADS")? {
            self.search_threads = t;
        }
        if let Some(mode) = var("DHNSW_QUANTIZE_MODE") {
            self.quantize_mode = QuantizeMode::parse(&mode).map_err(|_| {
                Error::InvalidParameter(format!(
                    "DHNSW_QUANTIZE_MODE={mode:?} is not a valid value (expected off or sq8)"
                ))
            })?;
        }
        Ok(self)
    }

    /// The configuration a build runs under. `DHNSW_QUANTIZE_MODE`, the
    /// one environment override a build consumes, flips the wire format
    /// for builds whose config the caller cannot reach (repro sweeps, the
    /// fault smoke). The resolved mode is stored on the result, so later
    /// connects see what was actually built; the execution knobs stay as
    /// configured, for each connect to resolve against its own
    /// environment. Validated *after* resolving, so a combination the
    /// environment completes is refused like one the caller wrote.
    pub(crate) fn for_build(&self) -> Result<Self> {
        self.for_build_under(&process_env)
    }

    fn for_build_under(&self, var: &dyn Fn(&str) -> Option<String>) -> Result<Self> {
        let wire = self.clone().with_overrides(var)?.quantize_mode();
        let config = self.clone().with_quantize_mode(wire);
        config.validate()?;
        Ok(config)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when any knob is out of range,
    /// the meta parameters are not level-capped, or SQ8 is asked to serve
    /// a metric other than L2.
    pub fn validate(&self) -> Result<()> {
        if self.representatives == 0 {
            return Err(Error::InvalidParameter(
                "representatives must be >= 1".into(),
            ));
        }
        if self.fanout == 0 {
            return Err(Error::InvalidParameter("fanout must be >= 1".into()));
        }
        if !(0.0..=1.0).contains(&self.cache_fraction) {
            return Err(Error::InvalidParameter(format!(
                "cache_fraction must be in [0, 1], got {}",
                self.cache_fraction
            )));
        }
        if self.quantize_mode != QuantizeMode::Off && self.rerank_k == 0 {
            return Err(Error::InvalidParameter(
                "rerank_k must be >= 1 when quantization is on".into(),
            ));
        }
        // The compressed wire ranks by squared L2 wherever it ranks: the
        // code scan, its error bound, the exact rerank. Under another
        // metric it would answer, and answer wrongly.
        if self.quantize_mode == QuantizeMode::Sq8 && self.metric != Metric::L2 {
            return Err(Error::InvalidParameter(format!(
                "quantize_mode sq8 ranks by squared L2 and cannot serve metric {}: \
                 use quantize_mode off, or metric l2",
                self.metric
            )));
        }
        self.sub_params
            .validate()
            .map_err(|e| Error::InvalidParameter(format!("sub params: {e}")))?;
        Ok(())
    }
}

/// The process environment: the one place this crate reads it.
fn process_env(name: &str) -> Option<String> {
    std::env::var(name).ok()
}

/// Looks `name` up and parses it; set but unparsable is an error that
/// names the variable.
fn parse_var<T: std::str::FromStr>(
    var: &dyn Fn(&str) -> Option<String>,
    name: &str,
) -> Result<Option<T>> {
    var(name)
        .map(|raw| {
            raw.trim().parse().map_err(|_| {
                Error::InvalidParameter(format!("{name}={raw:?} is not a valid value"))
            })
        })
        .transpose()
}

impl Default for DHnswConfig {
    fn default() -> Self {
        DHnswConfig::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        DHnswConfig::paper().validate().unwrap();
        DHnswConfig::small().validate().unwrap();
    }

    #[test]
    fn paper_preset_matches_the_paper() {
        let c = DHnswConfig::paper();
        assert_eq!(c.representatives(), 500);
        assert!((c.cache_fraction() - 0.10).abs() < 1e-12);
        assert_eq!(c.meta_params().max_level_cap(), Some(2));
    }

    #[test]
    fn invalid_values_are_rejected() {
        assert!(DHnswConfig::paper()
            .with_representatives(0)
            .validate()
            .is_err());
        assert!(DHnswConfig::paper().with_fanout(0).validate().is_err());
        assert!(DHnswConfig::paper()
            .with_cache_fraction(1.5)
            .validate()
            .is_err());
    }

    #[test]
    fn cache_capacity_is_clamped() {
        let c = DHnswConfig::paper().with_cache_fraction(0.10);
        assert_eq!(c.cache_capacity(500), 50);
        assert_eq!(c.cache_capacity(5), 1);
        let full = DHnswConfig::paper().with_cache_fraction(1.0);
        assert_eq!(full.cache_capacity(500), 500);
        let none = DHnswConfig::paper().with_cache_fraction(0.0);
        assert_eq!(none.cache_capacity(500), 0, "fraction 0 disables caching");
        // Any positive fraction still provisions at least one slot.
        let tiny = DHnswConfig::paper().with_cache_fraction(1e-9);
        assert_eq!(tiny.cache_capacity(5), 1);
    }

    #[test]
    fn retry_knobs_default_and_build() {
        let c = DHnswConfig::paper();
        assert_eq!(c.read_retry_limit(), 3);
        assert!(!c.degraded_ok());
        let c = c.with_read_retry_limit(5).with_degraded_ok(true);
        assert_eq!(c.read_retry_limit(), 5);
        assert!(c.degraded_ok());
        c.validate().unwrap();
    }

    #[test]
    fn quantize_knobs_default_parse_and_validate() {
        let c = DHnswConfig::paper();
        assert_eq!(c.quantize_mode(), QuantizeMode::Off);
        assert_eq!(c.rerank_k(), 32);
        let c = c.with_quantize_mode(QuantizeMode::Sq8).with_rerank_k(48);
        assert_eq!(c.quantize_mode(), QuantizeMode::Sq8);
        assert_eq!(c.rerank_k(), 48);
        c.validate().unwrap();
        // rerank_k 0 is only illegal when quantization is on.
        assert!(DHnswConfig::paper()
            .with_quantize_mode(QuantizeMode::Sq8)
            .with_rerank_k(0)
            .validate()
            .is_err());
        DHnswConfig::paper().with_rerank_k(0).validate().unwrap();
        // SQ8 ranks by L2 only; the error names both settings.
        for metric in [Metric::InnerProduct, Metric::Cosine] {
            let c = DHnswConfig::paper().with_metric(metric);
            c.validate().unwrap();
            let err = c
                .with_quantize_mode(QuantizeMode::Sq8)
                .validate()
                .unwrap_err();
            assert!(
                matches!(&err, Error::InvalidParameter(m) if m.contains("sq8") && m.contains(metric.name())),
                "{err}"
            );
        }
        assert_eq!(QuantizeMode::parse("sq8").unwrap(), QuantizeMode::Sq8);
        assert_eq!(QuantizeMode::parse(" OFF ").unwrap(), QuantizeMode::Off);
        assert!(QuantizeMode::parse("pq").is_err());
        assert_eq!(QuantizeMode::Sq8.as_str(), "sq8");
    }

    /// A lookup over a fixed variable set.
    fn vars(set: &'static [(&'static str, &'static str)]) -> impl Fn(&str) -> Option<String> {
        move |name| {
            set.iter()
                .find(|(n, _)| *n == name)
                .map(|(_, v)| v.to_string())
        }
    }

    #[test]
    fn env_overrides_apply_valid_keep_absent_and_reject_malformed() {
        type Get = fn(&DHnswConfig) -> String;
        // (variable, a valid value, the field after it, a malformed value)
        let cases: [(&'static str, &'static str, &'static str, &'static str, Get); 2] = [
            ("DHNSW_SEARCH_THREADS", " 3 ", "3", "three", |c| {
                c.search_threads().to_string()
            }),
            ("DHNSW_QUANTIZE_MODE", "sq8", "sq8", "sq9", |c| {
                c.quantize_mode().as_str().into()
            }),
        ];
        let base = DHnswConfig::small();
        for (name, valid, after, malformed, get) in cases {
            let before = get(&base);
            assert_ne!(
                before, after,
                "{name}: the valid case must change the field"
            );
            let set = move |n: &str| (n == name).then(|| valid.to_string());
            assert_eq!(
                get(&base.clone().with_overrides(&set).unwrap()),
                after,
                "{name}"
            );
            assert_eq!(
                get(&base.clone().with_overrides(&|_| None).unwrap()),
                before,
                "{name}"
            );
            let bad = move |n: &str| (n == name).then(|| malformed.to_string());
            let err = base.clone().with_overrides(&bad).unwrap_err();
            assert!(
                matches!(&err, Error::InvalidParameter(m) if m.contains(name)),
                "{name}={malformed:?}: {err}"
            );
        }
    }

    #[test]
    fn a_build_validates_the_wire_the_environment_resolved() {
        let sq8 = vars(&[
            ("DHNSW_QUANTIZE_MODE", "sq8"),
            ("DHNSW_SEARCH_THREADS", "4"),
        ]);
        // Only the wire format is taken from the environment.
        let built = DHnswConfig::small().for_build_under(&sq8).unwrap();
        assert_eq!(
            (built.quantize_mode(), built.search_threads()),
            (QuantizeMode::Sq8, 1)
        );
        // SQ8 under cosine is refused however the two met.
        let cosine = DHnswConfig::small().with_metric(Metric::Cosine);
        cosine.for_build_under(&|_| None).unwrap();
        let err = cosine.for_build_under(&sq8).unwrap_err();
        assert!(
            matches!(&err, Error::InvalidParameter(m) if m.contains("sq8") && m.contains("cosine")),
            "{err}"
        );
    }

    #[test]
    fn metric_propagates_to_both_hnsw_layers() {
        let c = DHnswConfig::small().with_metric(Metric::Cosine);
        assert_eq!(c.meta_params().metric_kind(), Metric::Cosine);
        assert_eq!(c.sub_params().metric_kind(), Metric::Cosine);
    }

    #[test]
    fn search_threads_resolve() {
        assert!(DHnswConfig::paper().effective_search_threads() >= 1);
        assert_eq!(
            DHnswConfig::small()
                .with_search_threads(7)
                .effective_search_threads(),
            7
        );
    }

    #[test]
    fn seeds_differ_between_layers() {
        let c = DHnswConfig::small();
        assert_ne!(c.meta_params().rng_seed(), c.sub_params().rng_seed());
    }
}
