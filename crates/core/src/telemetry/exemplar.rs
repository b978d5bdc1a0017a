//! Bounded tail-exemplar store and the why-slow diagnoser.
//!
//! Aggregate histograms say *that* p99 moved; exemplars say *which
//! query* and *why*. Every finished batch offers its [`BatchReport`]
//! here, and the store retains three bounded views of those records:
//!
//! 1. **Bucket exemplars** — for each latency-histogram bucket, the
//!    trace id and dominant [`ReadCause`] of the most recent batch
//!    whose per-query latency landed in it, so any populated bucket
//!    (p50, p99, the overflow bucket) is clickable back to a concrete
//!    query via `/whyslow/<trace-id>`.
//! 2. **Reservoir** — a uniform sample over *all* batches (Algorithm
//!    R under a seeded [SplitMix64] generator, so runs are
//!    deterministic). This is the diagnoser's picture of "normal".
//! 3. **K-slowest** — the exact top-K batches by end-to-end latency
//!    (`total_us`: host wall + virtual network), the only entries that
//!    retain their full span trees.
//!
//! The **why-slow diagnoser** diffs an exemplar's per-query phase
//! breakdown and per-cause byte ledger against the reservoir medians
//! and emits a ranked verdict: `network_bound`, `retry_storm`,
//! `cache_cold`, `overflow_heavy`, `pipeline_stall`, `compute_bound`,
//! or `nominal` when the exemplar does not exceed the baseline. The
//! byte-share scores tile the network excess exactly (plus the
//! compute share they sum to 1), so the ranking is a decomposition,
//! not a heuristic grab-bag.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

use rdma_sim::{ReadCause, READ_CAUSES};

use crate::breakdown::{BatchReport, Phase};
use crate::telemetry::chrome::json_num;
use crate::telemetry::span::FinishedTrace;
use crate::telemetry::{bucket_bound, bucket_index, HIST_BUCKETS};

/// Reservoir capacity (uniform sample over all batches).
pub const RESERVOIR_CAPACITY: usize = 64;

/// Number of slowest batches retained exactly (with spans).
pub const SLOWEST_CAPACITY: usize = 8;

/// Reservoir seed; fixed so two identical runs retain identical
/// exemplar sets.
const SEED: u64 = 0x5EED_7A11_D0A7_F00D;

/// Verdicts the diagnoser can emit, in ranking-tie precedence order
/// (`nominal` is the no-excess fallback and not listed).
pub const VERDICTS: [&str; 6] = [
    "network_bound",
    "retry_storm",
    "cache_cold",
    "overflow_heavy",
    "pipeline_stall",
    "compute_bound",
];

/// The exemplar a histogram bucket points at: the most recent batch
/// whose per-query latency sample landed in that bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BucketExemplar {
    /// Trace id of the exemplar batch.
    pub trace_id: u64,
    /// Its mean per-query latency, microseconds.
    pub per_query_us: f64,
    /// Its dominant read cause (`None` when the batch read nothing).
    pub cause: Option<ReadCause>,
}

#[derive(Debug)]
struct SlowEntry {
    rec: BatchReport,
    spans: Option<FinishedTrace>,
}

#[derive(Debug)]
struct Inner {
    reservoir: Vec<BatchReport>,
    /// Batches offered to the reservoir so far (Algorithm R's `n`).
    seen: u64,
    rng: u64,
    /// Exact K-slowest, sorted slowest-first (ties: lower trace id).
    slowest: Vec<SlowEntry>,
    buckets: [Option<BucketExemplar>; HIST_BUCKETS],
}

/// The bounded tail-exemplar store. All three views update under one
/// short lock per batch; counters are atomics readable without it.
#[derive(Debug)]
pub struct ExemplarStore {
    recorded: AtomicU64,
    dropped: AtomicU64,
    inner: Mutex<Inner>,
}

impl Default for ExemplarStore {
    fn default() -> Self {
        ExemplarStore {
            recorded: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            inner: Mutex::new(Inner {
                reservoir: Vec::new(),
                seen: 0,
                rng: SEED,
                slowest: Vec::new(),
                buckets: [None; HIST_BUCKETS],
            }),
        }
    }
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` when `a` ranks strictly slower than `b` (ties break toward
/// the earlier batch so the K-slowest set is total-ordered and exact).
fn slower(a: &BatchReport, b: &BatchReport) -> bool {
    a.total_us > b.total_us || (a.total_us == b.total_us && a.trace_id < b.trace_id)
}

impl ExemplarStore {
    /// Records one batch. The bucket exemplar always updates; the
    /// span tree (if any) is retained only while the batch sits in
    /// the K-slowest set; the reservoir keeps a uniform sample. The
    /// record is copied only into the views that retain it.
    pub fn record(&self, rec: &BatchReport, spans: Option<FinishedTrace>) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut guard = self.inner.lock();
        let g = &mut *guard;

        g.buckets[bucket_index(rec.latency_sample_us())] = Some(BucketExemplar {
            trace_id: rec.trace_id,
            per_query_us: rec.per_query_us(),
            cause: rec.ledger.dominant_cause(),
        });

        let pos = g.slowest.partition_point(|e| slower(&e.rec, rec));
        if pos < SLOWEST_CAPACITY {
            g.slowest.insert(
                pos,
                SlowEntry {
                    rec: rec.clone(),
                    spans,
                },
            );
            if g.slowest.len() > SLOWEST_CAPACITY {
                g.slowest.pop();
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }

        g.seen += 1;
        if g.reservoir.len() < RESERVOIR_CAPACITY {
            g.reservoir.push(rec.clone());
        } else {
            let j = splitmix(&mut g.rng) % g.seen;
            if (j as usize) < RESERVOIR_CAPACITY {
                g.reservoir[j as usize] = rec.clone();
            }
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Batches recorded over the store's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// Exemplars evicted or not retained: reservoir losses once full
    /// plus K-slowest displacements.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently held (reservoir + K-slowest slots).
    pub fn occupancy(&self) -> u64 {
        let g = self.inner.lock();
        (g.reservoir.len() + g.slowest.len()) as u64
    }

    /// The K-slowest records, slowest first.
    pub fn slowest(&self) -> Vec<BatchReport> {
        self.inner
            .lock()
            .slowest
            .iter()
            .map(|e| e.rec.clone())
            .collect()
    }

    /// The current reservoir sample, in slot order.
    pub fn reservoir(&self) -> Vec<BatchReport> {
        self.inner.lock().reservoir.clone()
    }

    /// The per-bucket exemplars, indexed like the latency histogram's
    /// buckets.
    pub fn bucket_exemplars(&self) -> [Option<BucketExemplar>; HIST_BUCKETS] {
        self.inner.lock().buckets
    }

    /// Finds a retained record by trace id (K-slowest first, since
    /// those carry spans, then the reservoir).
    pub fn lookup(&self, trace_id: u64) -> Option<(BatchReport, Option<FinishedTrace>)> {
        let g = self.inner.lock();
        if let Some(e) = g.slowest.iter().find(|e| e.rec.trace_id == trace_id) {
            return Some((e.rec.clone(), e.spans.clone()));
        }
        g.reservoir
            .iter()
            .find(|r| r.trace_id == trace_id)
            .map(|r| (r.clone(), None))
    }

    /// Drops every retained exemplar and resets the counters (the
    /// reservoir seed is preserved mid-stream; determinism holds for
    /// a fixed record sequence from construction).
    pub fn clear(&self) {
        let mut g = self.inner.lock();
        g.reservoir.clear();
        g.slowest.clear();
        g.seen = 0;
        g.buckets = [None; HIST_BUCKETS];
        self.recorded.store(0, Ordering::Relaxed);
        self.dropped.store(0, Ordering::Relaxed);
    }

    /// Renders the whole store as deterministic JSON (the
    /// `/exemplars` endpoint body).
    pub fn render_json(&self) -> String {
        let g = self.inner.lock();
        let rec_json = |r: &BatchReport, has_spans: Option<bool>| {
            let cause = r.ledger.dominant_cause().map_or("none", |c| c.as_str());
            let spans = match has_spans {
                Some(b) => format!(", \"has_spans\": {b}"),
                None => String::new(),
            };
            format!(
                "{{\"trace_id\": {}, \"mode\": \"{}\", \"queries\": {}, \
                 \"total_us\": {}, \"per_query_us\": {}, \"dominant_cause\": \"{}\", \
                 \"degraded_queries\": {}, \"read_retries\": {}{}}}",
                r.trace_id,
                r.mode,
                r.queries,
                json_num(r.total_us),
                json_num(r.per_query_us()),
                cause,
                r.degraded_queries,
                r.read_retries,
                spans
            )
        };
        let slowest: Vec<String> = g
            .slowest
            .iter()
            .map(|e| rec_json(&e.rec, Some(e.spans.is_some())))
            .collect();
        let reservoir: Vec<String> = g.reservoir.iter().map(|r| rec_json(r, None)).collect();
        let buckets: Vec<String> = g
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| b.as_ref().map(|b| (i, b)))
            .map(|(i, b)| {
                let bound = bucket_bound(i);
                let le = if bound.is_infinite() {
                    "\"+Inf\"".to_string()
                } else {
                    format!("{bound}")
                };
                format!(
                    "{{\"le\": {le}, \"trace_id\": {}, \"per_query_us\": {}, \"cause\": \"{}\"}}",
                    b.trace_id,
                    json_num(b.per_query_us),
                    b.cause.map_or("none", |c| c.as_str())
                )
            })
            .collect();
        format!(
            "{{\n  \"occupancy\": {},\n  \"recorded\": {},\n  \"dropped\": {},\n  \
             \"slowest\": [{}],\n  \"reservoir\": [{}],\n  \"buckets\": [{}]\n}}\n",
            (g.reservoir.len() + g.slowest.len()) as u64,
            self.recorded(),
            self.dropped(),
            slowest.join(", "),
            reservoir.join(", "),
            buckets.join(", ")
        )
    }

    /// Diagnoses why `trace_id` was slow relative to the reservoir
    /// median (the `/whyslow/<id>` endpoint body). `None` when no
    /// retained record has that id.
    pub fn whyslow_json(&self, trace_id: u64) -> Option<String> {
        let (rec, spans) = self.lookup(trace_id)?;
        let baseline = self.reservoir();
        Some(diagnose(&rec, &baseline).render_json(&rec, spans.is_some()))
    }

    /// Diagnoses the single slowest retained batch. Returns
    /// `(trace_id, verdict, json)`; `None` while the store is empty.
    pub fn diagnose_slowest(&self) -> Option<(u64, &'static str, String)> {
        let (rec, has_spans) = {
            let g = self.inner.lock();
            let e = g.slowest.first()?;
            (e.rec.clone(), e.spans.is_some())
        };
        let d = diagnose(&rec, &self.reservoir());
        Some((rec.trace_id, d.verdict, d.render_json(&rec, has_spans)))
    }
}

/// A ranked why-slow verdict for one exemplar: what [`diagnose`] adds
/// to the batch's record, not a copy of it.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnosis {
    /// Top-ranked verdict (a [`VERDICTS`] entry, or `nominal`).
    pub verdict: &'static str,
    /// Score per verdict, [`VERDICTS`] order. Scores sum to 1 when
    /// any excess exists (byte shares tile the network excess).
    pub scores: [f64; 6],
    /// Per-query phase excess over the baseline median, µs, in
    /// [`Phase::ALL`] order.
    pub excess_us: [f64; 4],
    /// Per-query byte excess over the baseline median, by cause.
    pub excess_bytes: [f64; READ_CAUSES],
    /// The baseline (reservoir median) per-query latency, µs.
    pub baseline_per_query_us: f64,
}

/// Median of `values` (upper median; 0 when empty). Deterministic:
/// total order via `f64::total_cmp`.
fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Diffs `rec` against the reservoir medians and ranks the verdicts.
///
/// The decomposition: the four per-query phase excesses (clamped at
/// zero) split the total excess into a network share and a compute
/// share; the network share is then subdivided by per-cause byte
/// excess — retry and half the version-check churn score
/// `retry_storm`, stage loads score `cache_cold`, overflow scans
/// score `overflow_heavy`, and the rest scores `network_bound`. A
/// network excess with *no* byte excess means the same bytes took
/// longer to move — more round trips for them, or a slower link — not
/// that more data moved: `pipeline_stall` (a batch is one load round,
/// so the label names the stalled transfer, not a lost overlap). With
/// no meaningful excess at all the verdict is `nominal`.
pub fn diagnose(rec: &BatchReport, baseline: &[BatchReport]) -> Diagnosis {
    let per_query = |r: &BatchReport| {
        let q = r.queries.max(1) as f64;
        (
            Phase::ALL.map(|p| p.of(&r.breakdown) / q),
            std::array::from_fn::<f64, READ_CAUSES, _>(|i| r.ledger.cause_bytes[i] as f64 / q),
        )
    };
    let (phases, bytes) = per_query(rec);
    let base_phases: [f64; 4] =
        std::array::from_fn(|i| median(baseline.iter().map(|r| per_query(r).0[i]).collect()));
    let base_bytes: [f64; READ_CAUSES] =
        std::array::from_fn(|i| median(baseline.iter().map(|r| per_query(r).1[i]).collect()));
    let baseline_per_query_us = median(baseline.iter().map(|r| r.per_query_us()).collect());

    let excess_us: [f64; 4] = std::array::from_fn(|i| (phases[i] - base_phases[i]).max(0.0));
    let excess_bytes: [f64; READ_CAUSES] =
        std::array::from_fn(|i| (bytes[i] - base_bytes[i]).max(0.0));
    let u_total: f64 = excess_us.iter().sum();

    let mut scores = [0.0f64; 6];
    // Under half a microsecond of per-query excess is noise, not a
    // tail: the batch is within its window's normal behavior.
    if u_total >= 0.5 {
        let net = Phase::Network as usize;
        let net_share = excess_us[net] / u_total;
        let host = excess_us.iter().enumerate().filter(|&(i, _)| i != net);
        let compute = host.map(|(_, e)| e).sum::<f64>() / u_total;
        let byte_total: f64 = excess_bytes.iter().sum();
        if byte_total > 0.0 {
            let b = |c: ReadCause| excess_bytes[c.index()];
            let retry = b(ReadCause::Retry) + 0.5 * b(ReadCause::VersionCheck);
            let cold = b(ReadCause::StageLoad);
            let overflow = b(ReadCause::OverflowScan);
            let rest = (byte_total - retry - cold - overflow).max(0.0);
            scores[0] = net_share * rest / byte_total; // network_bound
            scores[1] = net_share * retry / byte_total; // retry_storm
            scores[2] = net_share * cold / byte_total; // cache_cold
            scores[3] = net_share * overflow / byte_total; // overflow_heavy
        } else {
            scores[4] = net_share; // pipeline_stall
        }
        scores[5] = compute; // compute_bound
    }
    let mut verdict = "nominal";
    let mut best = 0.0;
    for (i, &s) in scores.iter().enumerate() {
        if s > best {
            best = s;
            verdict = VERDICTS[i];
        }
    }
    Diagnosis {
        verdict,
        scores,
        excess_us,
        excess_bytes,
        baseline_per_query_us,
    }
}

impl Diagnosis {
    /// Deterministic JSON rendering of the ranked verdict for `rec`, the
    /// batch it diagnoses (`has_spans`: whether the store still holds
    /// the batch's span tree).
    pub fn render_json(&self, rec: &BatchReport, has_spans: bool) -> String {
        let scores: Vec<String> = VERDICTS
            .iter()
            .zip(self.scores.iter())
            .map(|(v, s)| format!("\"{v}\": {}", json_num(*s)))
            .collect();
        let excess_us: Vec<String> = Phase::ALL
            .iter()
            .zip(self.excess_us.iter())
            .map(|(p, v)| format!("\"{}\": {}", p.why_slow(), json_num(*v)))
            .collect();
        let excess_bytes: Vec<String> = ReadCause::ALL
            .iter()
            .map(|c| {
                format!(
                    "\"{}\": {}",
                    c.as_str(),
                    json_num(self.excess_bytes[c.index()])
                )
            })
            .collect();
        format!(
            "{{\n  \"trace_id\": {},\n  \"mode\": \"{}\",\n  \"queries\": {},\n  \
             \"verdict\": \"{}\",\n  \"per_query_us\": {},\n  \
             \"baseline_per_query_us\": {},\n  \"degraded_queries\": {},\n  \
             \"read_retries\": {},\n  \"has_spans\": {},\n  \
             \"scores\": {{{}}},\n  \"excess_us_per_query\": {{{}}},\n  \
             \"excess_bytes_per_query\": {{{}}}\n}}\n",
            rec.trace_id,
            rec.mode,
            rec.queries,
            self.verdict,
            json_num(rec.per_query_us()),
            json_num(self.baseline_per_query_us),
            rec.degraded_queries,
            rec.read_retries,
            has_spans,
            scores.join(", "),
            excess_us.join(", "),
            excess_bytes.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breakdown::LatencyBreakdown;
    use proptest::prelude::*;

    fn rec(trace_id: u64, total_us: f64, queries: usize) -> BatchReport {
        BatchReport {
            trace_id,
            mode: "full",
            queries,
            total_us,
            breakdown: LatencyBreakdown {
                meta_hnsw_us: 0.05 * total_us,
                network_us: 0.6 * total_us,
                sub_hnsw_us: 0.25 * total_us,
                materialize_us: 0.1 * total_us,
            },
            ..Default::default()
        }
    }

    fn with_bytes(mut r: BatchReport, cause: ReadCause, bytes: u64) -> BatchReport {
        r.ledger.cause_bytes[cause.index()] = bytes;
        r
    }

    #[test]
    fn bucket_exemplars_track_the_latest_batch_per_bucket() {
        let s = ExemplarStore::default();
        s.record(&rec(1, 320.0, 32), None); // per-query 10 → bucket of 10
        s.record(&rec(2, 3200.0, 32), None); // per-query 100
        s.record(&rec(3, 352.0, 32), None); // per-query 11 → same bucket as 10
        let ex = s.bucket_exemplars();
        let b10 = ex[bucket_index(10)].expect("bucket for 10µs");
        assert_eq!(b10.trace_id, 3, "most recent batch wins the bucket");
        let b100 = ex[bucket_index(100)].expect("bucket for 100µs");
        assert_eq!(b100.trace_id, 2);
        assert_eq!(ex.iter().flatten().count(), 2);
    }

    #[test]
    fn slowest_set_is_exact_and_keeps_spans_only_there() {
        let s = ExemplarStore::default();
        let spans_of = |seq| FinishedTrace {
            label: "full",
            seq,
            total_us: 1.0,
            spans: Vec::new(),
        };
        // Ten batches for eight slots; the two fastest arrive early.
        let totals = [
            50.0, 400.0, 100.0, 300.0, 450.0, 500.0, 350.0, 250.0, 200.0, 150.0,
        ];
        for (id, &total) in (1u64..).zip(&totals) {
            s.record(&rec(id, total, 16), Some(spans_of(id)));
        }
        let slow: Vec<u64> = s.slowest().iter().map(|r| r.trace_id).collect();
        assert_eq!(
            slow,
            vec![6, 5, 2, 7, 4, 8, 9, 10],
            "exact top-{SLOWEST_CAPACITY} by latency, slowest first"
        );
        // Spans survive only for the K-slowest entries.
        assert!(s.lookup(2).unwrap().1.is_some());
        assert!(s.lookup(1).unwrap().1.is_none(), "reservoir keeps no spans");
        // Displacements counted as drops: ids 1 and 3 left the set.
        assert_eq!(s.dropped(), 2);
        assert_eq!(s.recorded(), 10);
    }

    #[test]
    fn eviction_wraps_around_bounded_capacity() {
        let s = ExemplarStore::default();
        for i in 0..100u64 {
            // Latencies cycle so every bucket keeps being rewritten.
            let total = 100.0 + (i % 5) as f64 * 50.0;
            s.record(&rec(i, total, 1), None);
        }
        assert_eq!(s.recorded(), 100);
        assert_eq!(
            s.occupancy(),
            (RESERVOIR_CAPACITY + SLOWEST_CAPACITY) as u64,
            "every reservoir slot and every slowest slot"
        );
        // Once the reservoir is full every further record drops one
        // (itself or a displaced entry), plus slowest displacements.
        assert!(s.dropped() >= 36, "dropped={}", s.dropped());
        // The slowest eight are exactly the ties-broken top of the
        // 300µs batches: the lowest ids at the max latency.
        let slow: Vec<u64> = s.slowest().iter().map(|r| r.trace_id).collect();
        assert_eq!(slow, vec![4, 9, 14, 19, 24, 29, 34, 39]);
        // Bucket exemplars always reflect the most recent batch.
        let ex = s.bucket_exemplars();
        let b = ex[bucket_index(250)].expect("250µs bucket");
        assert_eq!(b.trace_id, 98, "last id with 250µs is 98");
        // Lifetime counters survive clear() only as zeros.
        s.clear();
        assert_eq!((s.occupancy(), s.recorded(), s.dropped()), (0, 0, 0));
        assert!(s.bucket_exemplars().iter().all(|b| b.is_none()));
    }

    #[test]
    fn diagnoser_labels_a_retry_storm() {
        // Baseline: cheap batches whose bytes are all stage loads.
        let baseline: Vec<BatchReport> = (0..9)
            .map(|i| with_bytes(rec(i, 160.0, 16), ReadCause::StageLoad, 4096))
            .collect();
        // The tail batch: network exploded, and the byte excess is
        // dominated by retry traffic.
        let mut slow = with_bytes(rec(99, 1600.0, 16), ReadCause::StageLoad, 4096);
        slow.ledger.cause_bytes[ReadCause::Retry.index()] = 65536;
        slow.read_retries = 9;
        let d = diagnose(&slow, &baseline);
        assert_eq!(d.verdict, "retry_storm");
        assert!(d.scores[1] > d.scores[0], "retry beats generic network");
        assert!(d.scores[1] > d.scores[5], "retry beats compute");
        // Scores tile: network byte shares + compute sum to 1.
        let sum: f64 = d.scores.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9, "sum={sum}");
        let json = d.render_json(&slow, true);
        assert!(json.contains("\"verdict\": \"retry_storm\""));
        assert!(json.contains("\"read_retries\": 9"));
    }

    #[test]
    fn diagnoser_separates_the_other_verdicts() {
        let baseline: Vec<BatchReport> = (0..9).map(|i| rec(i, 160.0, 16)).collect();
        // Cold batch: network excess carried by stage-load bytes.
        let cold = with_bytes(rec(90, 1600.0, 16), ReadCause::StageLoad, 1 << 20);
        assert_eq!(diagnose(&cold, &baseline).verdict, "cache_cold");
        // Overflow-heavy batch.
        let ovf = with_bytes(rec(91, 1600.0, 16), ReadCause::OverflowScan, 1 << 20);
        assert_eq!(diagnose(&ovf, &baseline).verdict, "overflow_heavy");
        // Network grew with no byte excess: the transfer stalled.
        let stall = rec(92, 1600.0, 16);
        assert_eq!(diagnose(&stall, &baseline).verdict, "pipeline_stall");
        // Compute-bound batch: sub-HNSW search dominates the excess.
        let mut cpu = rec(93, 1600.0, 16);
        let b = &mut cpu.breakdown;
        b.network_us = 0.6 * 160.0; // baseline network
        b.sub_hnsw_us = 1600.0 - b.network_us - b.meta_hnsw_us - b.materialize_us;
        assert_eq!(diagnose(&cpu, &baseline).verdict, "compute_bound");
        // A batch at the baseline is nominal.
        assert_eq!(diagnose(&rec(94, 160.0, 16), &baseline).verdict, "nominal");
        // Rerank-carried excess is generic network-bound.
        let net = with_bytes(rec(95, 1600.0, 16), ReadCause::Rerank, 1 << 20);
        assert_eq!(diagnose(&net, &baseline).verdict, "network_bound");
    }

    #[test]
    fn whyslow_resolves_retained_ids_only() {
        let s = ExemplarStore::default();
        for i in 0..6u64 {
            s.record(&rec(i, 100.0 + i as f64, 8), None);
        }
        let json = s.whyslow_json(5).expect("retained id resolves");
        assert!(json.contains("\"trace_id\": 5"));
        assert!(s.whyslow_json(777).is_none());
        let (id, verdict, json) = s.diagnose_slowest().expect("store non-empty");
        assert_eq!(id, 5, "slowest batch");
        assert!(json.contains(&format!("\"verdict\": \"{verdict}\"")));
    }

    #[test]
    fn render_json_is_deterministic_and_structured() {
        let s = ExemplarStore::default();
        s.record(
            &with_bytes(rec(1, 500.0, 10), ReadCause::StageLoad, 2048),
            None,
        );
        s.record(&rec(2, 90.0, 10), None);
        let a = s.render_json();
        assert_eq!(a, s.render_json(), "rendering is a pure read");
        assert!(a.contains("\"occupancy\": 4"), "{a}");
        assert!(a.contains("\"recorded\": 2"));
        assert!(a.contains("\"dominant_cause\": \"stage_load\""));
        assert!(a.contains("\"le\": "));
        // Empty store renders empty arrays, not broken JSON.
        let empty = ExemplarStore::default().render_json();
        assert!(empty.contains("\"slowest\": []"));
        assert!(empty.contains("\"buckets\": []"));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn reservoir_is_seed_deterministic_and_k_slowest_exact(
            totals in prop::collection::vec(1u32..1_000_000, 1..200)
        ) {
            let a = ExemplarStore::default();
            let b = ExemplarStore::default();
            for (i, &t) in totals.iter().enumerate() {
                a.record(&rec(i as u64, f64::from(t), 4), None);
                b.record(&rec(i as u64, f64::from(t), 4), None);
            }
            // Same stream → identical reservoirs (the seed is fixed).
            prop_assert_eq!(a.reservoir(), b.reservoir());
            prop_assert_eq!(a.dropped(), b.dropped());
            // The K-slowest set is exact: matches a full sort.
            let mut want: Vec<(f64, u64)> = totals
                .iter()
                .enumerate()
                .map(|(i, &t)| (f64::from(t), i as u64))
                .collect();
            want.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
            let want_ids: Vec<u64> =
                want.iter().take(SLOWEST_CAPACITY).map(|&(_, id)| id).collect();
            let got_ids: Vec<u64> =
                a.slowest().iter().map(|r| r.trace_id).collect();
            prop_assert_eq!(got_ids, want_ids);
            prop_assert!(a.occupancy() <= (RESERVOIR_CAPACITY + SLOWEST_CAPACITY) as u64);
            prop_assert_eq!(a.recorded(), totals.len() as u64);
        }
    }
}
