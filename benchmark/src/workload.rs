//! The five workloads: what each one configures and the inputs it feeds
//! the store. The base vectors and the hot topics are a fixed part of the
//! benchmark, as SIFT1M is of the paper's; the request stream (queries
//! and inserts) derives from `--seed`. The program under test only ever
//! sees the generated vectors.

use dhnsw::{DHnswConfig, QuantizeMode};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use vecsim::{gen, ground_truth, Dataset, Metric};

/// Results per query and sub-HNSW beam width, on every workload.
pub const K: usize = 10;
pub const EF: usize = 48;
/// Vectors per `insert_batch` call.
pub const INSERT_BATCH: usize = 16;
/// Insert rounds a workload without interleaved writes runs after its
/// query phase, so insert latency is measured on every configuration.
pub const TAIL_ROUNDS: usize = 100;
/// Queries scored against exact ground truth: enough that recall moves
/// by under 2 % between seeds.
pub const RECALL_QUERIES: usize = 512;
/// Acknowledged inserts queried back with their own vector.
pub const READ_YOUR_WRITES: usize = 64;
/// Measured batches of one traced run (count-bound so counts repeat).
pub const TRACE_BATCHES: usize = 20;

const TOPICS: usize = 4;
/// One query in twenty is uniform. Each drags about four cold clusters
/// through a 25-cluster cache, so a larger share would leave the sixteen
/// or so hot clusters no room and the hit rate below one half.
const HOT_SHARE: f64 = 0.95;

/// Seed of the base vectors. Which representatives a clustered corpus
/// happens to get decides its partition sizes (3 to 3 200 vectors for the
/// seeds tried), and with them every latency: drawn per run, that alone
/// spread `batch_ms_p50` by 5-20 % between seeds, wider than any bound
/// worth gating on. With 42 the largest overflow group holds 5 % of the
/// rows, so no workload fills one.
const CORPUS_SEED: u64 = 42;

/// How large a run is. `full` is what `BENCHMARK.json` measures;
/// `smoke` exists so the harness itself can be tested in seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    pub name: &'static str,
    pub vectors: usize,
    pub partitions: usize,
    /// Base rows per hot topic.
    pub topic_rows: usize,
    /// Times the store is set up; `setup_s` is their median.
    pub setups: usize,
    /// Caps every workload's measured-batch floor and warm-up.
    pub max_floor: usize,
    pub max_warmup: usize,
}

impl Scale {
    /// 20 000 vectors in 100 partitions: three set-ups and the measured
    /// phase of a run pinned to one CPU then take about a quarter of a
    /// minute, which leaves the driver's 114 runs room for the phases in
    /// which this sandbox runs at half speed.
    pub const FULL: Scale = Scale {
        name: "full",
        vectors: 20_000,
        partitions: 100,
        topic_rows: 100,
        setups: 3,
        max_floor: usize::MAX,
        max_warmup: usize::MAX,
    };
    pub const SMOKE: Scale = Scale {
        name: "smoke",
        vectors: 5_000,
        partitions: 25,
        topic_rows: 50,
        setups: 1,
        max_floor: 12,
        max_warmup: 4,
    };
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QueryMix {
    /// Each query perturbs a uniformly drawn base row.
    Uniform,
    /// 95 % of queries perturb a row of one of four topics (a topic is
    /// the exact nearest rows of a fixed row); 5 % are uniform.
    HotTopics,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Warmup {
    /// Exactly this many batches.
    Batches(usize),
    /// Until a batch loads no cluster, at most this many batches.
    UntilResident(usize),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub quantize: QuantizeMode,
    pub cache_fraction: f64,
    pub mix: QueryMix,
    pub batch: usize,
    pub warmup: Warmup,
    /// Fewest measured batches; at least 100 so p90 has ten beyond it.
    pub floor: usize,
    /// One `insert_batch` before every measured query batch. The store
    /// fills as it runs, so the workload stops at `floor` rounds: every
    /// insert stays inside its group's overflow area.
    pub interleaved_inserts: bool,
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "cold_scan",
        why: "10% cache, uniform queries: most clusters cross the wire and are re-materialized every batch, so fetch, materialize and search are all loaded",
        quantize: QuantizeMode::Off,
        cache_fraction: 0.10,
        mix: QueryMix::Uniform,
        batch: 128,
        warmup: Warmup::Batches(5),
        floor: 100,
        interleaved_inserts: false,
    },
    Spec {
        name: "warm_hot",
        why: "everything resident: no bytes, no round trips, no materialize; bypasses every fetch/wire change and shows a search or distance-kernel change undiluted",
        quantize: QuantizeMode::Off,
        cache_fraction: 1.0,
        mix: QueryMix::Uniform,
        batch: 256,
        warmup: Warmup::UntilResident(10),
        floor: 150,
        interleaved_inserts: false,
    },
    Spec {
        name: "sq8_cold",
        why: "cold_scan's exact queries over the SQ8 wire: a fraction of the bytes, a code scan instead of a graph walk, plus rerank round trips",
        quantize: QuantizeMode::Sq8,
        cache_fraction: 0.10,
        mix: QueryMix::Uniform,
        batch: 128,
        warmup: Warmup::Batches(5),
        floor: 100,
        interleaved_inserts: false,
    },
    Spec {
        name: "hot_topics",
        why: "small batches with partition locality at 25% cache: the LRU cache and load plan decide most of a batch and per-batch fixed cost is a visible share",
        quantize: QuantizeMode::Off,
        cache_fraction: 0.25,
        mix: QueryMix::HotTopics,
        batch: 32,
        warmup: Warmup::Batches(50),
        floor: 300,
        interleaved_inserts: false,
    },
    Spec {
        name: "mixed_rw",
        why: "an insert batch before every query batch at full cache: writes invalidate cached clusters that the next batch re-fetches with overflow records, so read and write paths tax each other",
        quantize: QuantizeMode::Off,
        cache_fraction: 1.0,
        mix: QueryMix::Uniform,
        batch: 256,
        warmup: Warmup::Batches(5),
        floor: 100,
        interleaved_inserts: true,
    },
];

pub fn find(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    pub fn floor(&self, scale: &Scale) -> usize {
        self.floor.min(scale.max_floor)
    }

    pub fn warmup_batches(&self, scale: &Scale) -> usize {
        match self.warmup {
            Warmup::Batches(n) | Warmup::UntilResident(n) => n.min(scale.max_warmup),
        }
    }

    /// Insert rounds an un-traced run performs.
    pub fn insert_rounds(&self, scale: &Scale) -> usize {
        if self.interleaved_inserts {
            self.floor(scale)
        } else {
            TAIL_ROUNDS.min(scale.max_floor)
        }
    }

    /// The configuration the store is built with. `search_threads(2)`
    /// pins the worker pool so a result does not depend on the host's
    /// core count; everything else is the paper preset.
    pub fn config(&self, scale: &Scale) -> DHnswConfig {
        DHnswConfig::paper()
            .with_representatives(scale.partitions)
            .with_search_threads(2)
            .with_cache_fraction(self.cache_fraction)
            .with_quantize_mode(self.quantize)
    }
}

/// Seeds of the independent request streams, all functions of `--seed`.
/// `sq8_cold` and `cold_scan` share every stream, so their queries are
/// byte-identical.
fn stream(seed: u64, tag: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(tag)
}

pub fn base_vectors(scale: &Scale) -> Dataset {
    gen::sift_like(scale.vectors, CORPUS_SEED).expect("non-empty dataset")
}

/// Everything a run feeds the store besides the base vectors.
#[derive(Debug)]
pub struct Inputs {
    /// Warm-up batches first, then the measured ones; a run that outlasts
    /// the pool wraps around it.
    pub batches: Vec<Dataset>,
    /// One dataset of `INSERT_BATCH` vectors per insert round.
    pub inserts: Vec<Dataset>,
}

pub fn inputs(spec: &Spec, scale: &Scale, data: &Dataset, seed: u64) -> Inputs {
    let pool = spec.warmup_batches(scale) + spec.floor(scale);
    let total = pool * spec.batch;
    let queries = match spec.mix {
        QueryMix::Uniform => gen::perturbed_queries(data, total, 0.03, stream(seed, 2))
            .expect("valid generator arguments"),
        QueryMix::HotTopics => hot_topic_queries(data, total, scale.topic_rows, seed).0,
    };
    let rounds = spec.insert_rounds(scale);
    let inserts = gen::perturbed_queries(data, rounds * INSERT_BATCH, 0.01, stream(seed, 3))
        .expect("valid generator arguments");
    Inputs {
        batches: chunks(&queries, spec.batch),
        inserts: chunks(&inserts, INSERT_BATCH),
    }
}

fn chunks(rows: &Dataset, size: usize) -> Vec<Dataset> {
    rows.as_flat()
        .chunks(size * rows.dim())
        .map(|flat| Dataset::from_flat(rows.dim(), flat.to_vec()).expect("whole rows"))
        .collect()
}

/// The `hot_topics` query stream, with a flag per query saying whether
/// it came from a topic. Row-level Zipf skew (`gen::zipf_queries`) gives
/// no partition locality; topics are neighbourhoods, so they do.
pub fn hot_topic_queries(
    data: &Dataset,
    n: usize,
    topic_rows: usize,
    seed: u64,
) -> (Dataset, Vec<bool>) {
    let mut topics = StdRng::seed_from_u64(CORPUS_SEED);
    let mut hot_rows: Vec<u32> = Vec::with_capacity(TOPICS * topic_rows);
    for _ in 0..TOPICS {
        let centre = data.get(topics.gen_range(0..data.len()));
        hot_rows.extend(
            ground_truth::exact(data, centre, topic_rows, Metric::L2)
                .iter()
                .map(|n| n.id),
        );
    }
    // The library generator perturbs uniformly drawn rows of whatever
    // dataset it is given, so the hot stream is that generator over the
    // topic rows only.
    let hot = gen::perturbed_queries(&data.select(&hot_rows), n, 0.03, stream(seed, 5))
        .expect("valid generator arguments");
    let cold =
        gen::perturbed_queries(data, n, 0.03, stream(seed, 6)).expect("valid generator arguments");
    let mut rng = StdRng::seed_from_u64(stream(seed, 4));
    let mut out = Dataset::with_capacity(data.dim(), n);
    let mut is_hot = Vec::with_capacity(n);
    for i in 0..n {
        let from_topic = rng.gen::<f64>() < HOT_SHARE;
        out.push(if from_topic { hot.get(i) } else { cold.get(i) })
            .expect("same dimension");
        is_hot.push(from_topic);
    }
    (out, is_hot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::report::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(w.floor >= 100, "{}: p90 needs 100 samples", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
        }
        assert_eq!(find("hot_topics").unwrap().batch, 32);
        assert!(find("nope").is_none());
    }

    #[test]
    fn hot_topics_is_deterministic_and_mixed_as_stated() {
        let data = gen::sift_like(2_000, 9).unwrap();
        let (a, hot_a) = hot_topic_queries(&data, 4_000, 40, 17);
        let (b, hot_b) = hot_topic_queries(&data, 4_000, 40, 17);
        assert_eq!(a.as_flat(), b.as_flat());
        assert_eq!(hot_a, hot_b);
        let (c, _) = hot_topic_queries(&data, 4_000, 40, 18);
        assert_ne!(a.as_flat(), c.as_flat(), "another seed, other queries");
        let share = hot_a.iter().filter(|&&h| h).count() as f64 / hot_a.len() as f64;
        assert!((share - HOT_SHARE).abs() < 0.02, "hot share {share}");
    }

    #[test]
    fn hot_queries_land_near_few_rows() {
        // A topic query's nearest base row is one of at most
        // TOPICS * topic_rows rows; uniform queries spread over the data.
        let data = gen::sift_like(2_000, 9).unwrap();
        let (q, hot) = hot_topic_queries(&data, 600, 40, 3);
        let mut hot_nearest = std::collections::HashSet::new();
        let mut cold_nearest = std::collections::HashSet::new();
        for (i, &h) in hot.iter().enumerate() {
            let id = ground_truth::exact(&data, q.get(i), 1, Metric::L2)[0].id;
            if h {
                hot_nearest.insert(id);
            } else {
                cold_nearest.insert(id);
            }
        }
        assert!(hot_nearest.len() <= TOPICS * 40);
        let cold_n = hot.iter().filter(|&&h| !h).count();
        assert!(
            cold_nearest.len() * 10 >= cold_n * 9,
            "uniform queries rarely collide"
        );
    }

    #[test]
    fn cold_scan_and_sq8_cold_share_their_queries() {
        let scale = Scale::SMOKE;
        let data = base_vectors(&scale);
        let a = inputs(&find("cold_scan").unwrap(), &scale, &data, 5);
        let b = inputs(&find("sq8_cold").unwrap(), &scale, &data, 5);
        assert_eq!(a.batches.len(), b.batches.len());
        for (x, y) in a.batches.iter().zip(&b.batches) {
            assert_eq!(x.as_flat(), y.as_flat());
        }
        assert_eq!(a.batches.len(), 4 + 12);
        assert_eq!(a.batches[0].len(), 128);
        assert_eq!(a.inserts.len(), 12);
        assert_eq!(a.inserts[0].len(), INSERT_BATCH);
    }
}
