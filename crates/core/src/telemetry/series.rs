//! Time-series telemetry: history ring, rate derivation, and online
//! anomaly detection.
//!
//! Every other observability surface (`/metrics`, `/health`,
//! `/profile/folded`, `/exemplars`) is a point-in-time snapshot. The
//! [`SeriesRecorder`] adds the *time axis*: a bounded ring of
//! timestamped [`Sample`]s of the hub's query-path instruments, from
//! which consecutive pairs derive a [`SeriesPoint`] of per-second
//! rates (QPS, bytes/s by [`ReadCause`], retries/s, evictions/s) and
//! *windowed* latency quantiles — the saturating
//! [`HistogramSnapshot`] subtraction gives the exact histogram of
//! queries that landed between two ticks, so p99 here is the p99 *of
//! that window*, not a lifetime aggregate. [`SeriesPoint::between`] is
//! the plane's one window function: a tick is that call on the previous
//! and the new sample, and `dhnsw_cli doctor` makes it on two samples
//! bracketing its measured passes without ticking the recorder. The
//! health report cuts no window of its own.
//!
//! **Determinism contract.** Sampling is driven by an explicit
//! [`SeriesRecorder::tick`] carrying the caller's timestamp; this
//! module never reads the wall clock. Tests tick with synthetic
//! timestamps (one tick per batch, one virtual second apart), making
//! every derived rate — and therefore every anomaly verdict on a
//! deterministic series — reproducible bit-for-bit under pinned
//! seeds. Only the serving plane (`dhnsw_cli serve`) runs a
//! background sampler thread that ticks from the wall clock.
//!
//! **Anomaly scoring.** Each tracked series (see [`TRACKED_SERIES`])
//! feeds an online detector keeping an EWMA mean and an EWMA absolute
//! deviation (a streaming stand-in for the MAD). A point scores
//! `z = |x - mean| / max(1.4826·dev, REL_FLOOR·|mean|, abs_floor)`;
//! the `1.4826` factor rescales the MAD to a standard-deviation
//! equivalent under a normal baseline, and the two floors keep a
//! near-constant series (dev → 0) from turning measurement dust into
//! infinite z-scores. Detection fires on `z ≥ ENTER_Z` and re-arms
//! only once `z ≤ EXIT_Z` (hysteresis), warm-up points are never
//! scored, idle windows (zero queries) are never scored, and
//! anomalous points update the baseline with a strongly reduced
//! weight so a level shift is flagged instead of silently absorbed.
//! A firing bumps `dhnsw_anomaly_total{series=…}`, drops a structured
//! `anomaly` instant in the span ring (watchdog-style), and appends
//! an [`AnomalyRecord`] linking the slowest retained exemplar's trace
//! id — closing the loop from "p99 jumped at t=14s" to a concrete
//! `/whyslow/<id>` diagnosis.

use std::collections::VecDeque;

use parking_lot::Mutex;
use rdma_sim::{ReadCause, READ_CAUSES};

use super::span::ArgValue;
use super::{json_f64, metrics, HistogramSnapshot, Telemetry};

/// Number of derived points the ring retains (at the serving plane's
/// 1 Hz sampler: ten minutes of history).
const SERIES_CAPACITY: usize = 600;

/// Number of anomaly records retained.
const ANOMALY_CAPACITY: usize = 256;

/// Points a detector consumes before it starts scoring; the warm-up also
/// uses a faster EWMA weight so the baseline locks on quickly.
const WARMUP: u32 = 5;

/// z-score at or above which an anomaly fires.
const ENTER_Z: f64 = 6.0;

/// z-score at or below which a fired detector re-arms (hysteresis:
/// between `EXIT_Z` and `ENTER_Z` the episode is considered ongoing and
/// no new record is emitted).
const EXIT_Z: f64 = 3.0;

/// EWMA weight of the newest point for both mean and deviation.
const ALPHA: f64 = 0.3;

/// Deviation floor as a fraction of `|mean|`, so a jitter-free series
/// still needs a materially different value to fire.
const REL_FLOOR: f64 = 0.05;

/// One series the anomaly detector watches.
#[derive(Debug, Clone, Copy)]
pub struct TrackedSeries {
    /// Stable series name (`qps`, `p99_us`, …) — becomes the `series`
    /// label on `dhnsw_anomaly_total` and the key in anomaly records.
    pub name: &'static str,
    /// Whether the series is a pure function of the workload and the
    /// caller-supplied tick timestamps (true), or contaminated by
    /// wall-clock measurement (false, e.g. latency quantiles).
    /// `tests/series_anomaly.rs` holds *deterministic* anomalies at
    /// zero on a steady workload; wall-clock series may fire on a
    /// loaded box.
    pub deterministic: bool,
    /// Absolute deviation floor in the series' own unit.
    pub abs_floor: f64,
}

/// Number of tracked series.
pub const TRACKED: usize = 6;

/// The series the detector watches, in [`SeriesPoint::tracked_value`]
/// index order.
pub const TRACKED_SERIES: [TrackedSeries; TRACKED] = [
    TrackedSeries {
        name: "qps",
        deterministic: true,
        abs_floor: 1.0,
    },
    TrackedSeries {
        name: "p99_us",
        deterministic: false,
        abs_floor: 50.0,
    },
    TrackedSeries {
        name: "bytes_per_s",
        deterministic: true,
        abs_floor: 1024.0,
    },
    TrackedSeries {
        name: "retries_per_s",
        deterministic: true,
        abs_floor: 0.5,
    },
    TrackedSeries {
        name: "evictions_per_s",
        deterministic: true,
        abs_floor: 0.5,
    },
    TrackedSeries {
        name: "hit_rate",
        deterministic: true,
        abs_floor: 0.05,
    },
];

/// One raw observation of a node's query-path instruments at a tick
/// (`EngineMetrics::sample`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// Caller-supplied timestamp, microseconds.
    pub t_us: u64,
    /// Lifetime queries answered.
    pub queries: u64,
    /// Lifetime bytes read from remote memory.
    pub bytes_read: u64,
    /// Lifetime bytes read, by [`ReadCause`] index.
    pub cause_bytes: [u64; READ_CAUSES],
    /// Lifetime engine-level read retries.
    pub read_retries: u64,
    /// Lifetime cache evictions.
    pub evictions: u64,
    /// Lifetime plan-time cache hits: cluster loads avoided by residency.
    pub cache_hits: u64,
    /// Lifetime plan-time misses: clusters fetched from remote memory.
    pub cache_misses: u64,
    /// Lifetime latency histogram snapshot.
    pub latency: HistogramSnapshot,
}

/// Rates and windowed quantiles of what happened between two samples
/// ([`SeriesPoint::between`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeriesPoint {
    /// Timestamp of the newer sample, microseconds.
    pub t_us: u64,
    /// Width of the window, microseconds.
    pub dt_us: u64,
    /// Queries answered inside the window.
    pub window_queries: u64,
    /// Queries per second over the window.
    pub qps: f64,
    /// Windowed p50 latency, microseconds.
    pub p50_us: f64,
    /// Windowed p95 latency, microseconds.
    pub p95_us: f64,
    /// Windowed p99 latency, microseconds.
    pub p99_us: f64,
    /// Remote-read bytes per second over the window.
    pub bytes_per_s: f64,
    /// Remote-read bytes per second by [`ReadCause`] index.
    pub cause_bytes_per_s: [f64; READ_CAUSES],
    /// Engine read retries per second over the window.
    pub retries_per_s: f64,
    /// Cache evictions per second over the window.
    pub evictions_per_s: f64,
    /// Plan-time cluster-cache hit rate inside the window (`0` when the
    /// window planned no cluster).
    pub hit_rate: f64,
    /// Plan-time hits + misses inside the window.
    pub window_cache_ops: u64,
}

impl SeriesPoint {
    /// The window between two samples of one node's instruments — the
    /// only window the plane cuts: a recorder tick's point, the serving
    /// sampler's SLO window and `doctor`'s bracket around its measured
    /// passes. Rates divide by `cur.t_us - prev.t_us`; quantiles come
    /// from the saturating histogram difference, and the hit rate is
    /// plan-time (`0` when the window planned no cluster).
    pub fn between(prev: &Sample, cur: &Sample) -> SeriesPoint {
        let dt_us = cur.t_us.saturating_sub(prev.t_us);
        let secs = dt_us as f64 / 1e6;
        let latency = cur.latency - prev.latency;
        let queries = cur.queries.saturating_sub(prev.queries);
        let hits = cur.cache_hits.saturating_sub(prev.cache_hits);
        let cache_ops = hits + cur.cache_misses.saturating_sub(prev.cache_misses);
        SeriesPoint {
            t_us: cur.t_us,
            dt_us,
            window_queries: queries,
            qps: queries as f64 / secs,
            p50_us: latency.quantile(0.50),
            p95_us: latency.quantile(0.95),
            p99_us: latency.quantile(0.99),
            bytes_per_s: cur.bytes_read.saturating_sub(prev.bytes_read) as f64 / secs,
            cause_bytes_per_s: std::array::from_fn(|i| {
                cur.cause_bytes[i].saturating_sub(prev.cause_bytes[i]) as f64 / secs
            }),
            retries_per_s: cur.read_retries.saturating_sub(prev.read_retries) as f64 / secs,
            evictions_per_s: cur.evictions.saturating_sub(prev.evictions) as f64 / secs,
            hit_rate: hits as f64 / cache_ops.max(1) as f64,
            window_cache_ops: cache_ops,
        }
    }

    /// Value of tracked series `idx` (index into [`TRACKED_SERIES`]).
    pub fn tracked_value(&self, idx: usize) -> f64 {
        match idx {
            0 => self.qps,
            1 => self.p99_us,
            2 => self.bytes_per_s,
            3 => self.retries_per_s,
            4 => self.evictions_per_s,
            5 => self.hit_rate,
            _ => 0.0,
        }
    }

    /// Renders the point as a JSON object.
    pub fn to_json(&self) -> String {
        let causes = ReadCause::ALL
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "\"{}\": {}",
                    c.as_str(),
                    json_f64(self.cause_bytes_per_s[i])
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"t_us\": {}, \"dt_us\": {}, \"window_queries\": {}, \"qps\": {}, \
             \"p50_us\": {}, \"p95_us\": {}, \"p99_us\": {}, \"bytes_per_s\": {}, \
             \"retries_per_s\": {}, \"evictions_per_s\": {}, \"hit_rate\": {}, \
             \"window_cache_ops\": {}, \"cause_bytes_per_s\": {{{causes}}}}}",
            self.t_us,
            self.dt_us,
            self.window_queries,
            json_f64(self.qps),
            json_f64(self.p50_us),
            json_f64(self.p95_us),
            json_f64(self.p99_us),
            json_f64(self.bytes_per_s),
            json_f64(self.retries_per_s),
            json_f64(self.evictions_per_s),
            json_f64(self.hit_rate),
            self.window_cache_ops,
        )
    }
}

/// One anomaly the detector fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnomalyRecord {
    /// Timestamp of the offending point, microseconds.
    pub t_us: u64,
    /// Which tracked series fired.
    pub series: &'static str,
    /// The offending value.
    pub value: f64,
    /// The detector's EWMA baseline at fire time.
    pub mean: f64,
    /// The robust z-score that crossed `ENTER_Z`.
    pub zscore: f64,
    /// Whether the series is deterministic under pinned seeds and
    /// synthetic ticks (see [`TrackedSeries::deterministic`]).
    pub deterministic: bool,
    /// Trace id of the slowest retained tail exemplar at fire time —
    /// feed it to `/whyslow/<id>` for a ranked diagnosis. `None` when
    /// no exemplars are retained yet.
    pub exemplar: Option<u64>,
}

impl AnomalyRecord {
    /// Renders the record as a JSON object.
    pub fn to_json(&self) -> String {
        let exemplar = self
            .exemplar
            .map_or("null".to_string(), |id| id.to_string());
        format!(
            "{{\"t_us\": {}, \"series\": \"{}\", \"value\": {}, \"mean\": {}, \
             \"zscore\": {}, \"deterministic\": {}, \"exemplar\": {exemplar}}}",
            self.t_us,
            self.series,
            json_f64(self.value),
            json_f64(self.mean),
            json_f64(self.zscore),
            self.deterministic,
        )
    }
}

/// Online EWMA mean + EWMA absolute-deviation detector for one series.
#[derive(Debug, Clone, Copy, Default)]
struct Detector {
    /// Points consumed.
    n: u32,
    /// EWMA mean.
    mean: f64,
    /// EWMA absolute deviation from the running mean.
    dev: f64,
    /// Hysteresis state: inside an anomaly episode.
    active: bool,
}

impl Detector {
    /// Feeds one point; returns `Some((baseline_mean, z))` when a new
    /// anomaly episode starts.
    fn update(&mut self, x: f64, abs_floor: f64) -> Option<(f64, f64)> {
        if self.n == 0 {
            self.n = 1;
            self.mean = x;
            self.dev = 0.0;
            return None;
        }
        let scale = (1.4826 * self.dev)
            .max(REL_FLOOR * self.mean.abs())
            .max(abs_floor);
        let z = (x - self.mean).abs() / scale;
        self.n += 1;
        let warming = self.n <= WARMUP;
        let mut fired = None;
        if !warming {
            if !self.active && z >= ENTER_Z {
                self.active = true;
                fired = Some((self.mean, z));
            } else if self.active && z <= EXIT_Z {
                self.active = false;
            }
        }
        // Anomalous points barely move the baseline (a level shift is
        // flagged, not absorbed); warm-up converges fast.
        let a = if warming {
            ALPHA.max(0.5)
        } else if z >= ENTER_Z {
            ALPHA * 0.1
        } else {
            ALPHA
        };
        self.dev = (1.0 - a) * self.dev + a * (x - self.mean).abs();
        self.mean = (1.0 - a) * self.mean + a * x;
        fired
    }
}

#[derive(Debug, Default)]
struct Inner {
    last: Option<Sample>,
    points: VecDeque<SeriesPoint>,
    anomalies: VecDeque<AnomalyRecord>,
    fired: u64,
    detectors: [Detector; TRACKED],
}

/// Bounded ring of derived series points plus the online anomaly
/// detectors over them. See the module docs for the scoring math and
/// the determinism contract.
#[derive(Debug, Default)]
pub struct SeriesRecorder {
    inner: Mutex<Inner>,
}

impl SeriesRecorder {
    /// An empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Takes `cur`, a sample of a node's query-path instruments
    /// ([`crate::ComputeNode::sample`]), and, from the second tick
    /// on, derives and retains a [`SeriesPoint`], feeding the anomaly
    /// detectors; `telemetry` is the hub an anomaly is published to.
    ///
    /// Returns `None` for the baseline (first) tick and for ticks
    /// whose timestamp does not advance past the previous sample
    /// (which simply re-baseline). Never reads the wall clock.
    pub fn tick(&self, telemetry: &Telemetry, cur: Sample) -> Option<SeriesPoint> {
        let mut inner = self.inner.lock();
        let Some(prev) = inner.last else {
            inner.last = Some(cur);
            return None;
        };
        if cur.t_us <= prev.t_us {
            inner.last = Some(cur);
            return None;
        }
        let point = SeriesPoint::between(&prev, &cur);
        inner.last = Some(cur);
        let mut new_records = Vec::new();
        // Idle windows are not scored: an idle gap must neither look
        // like an anomaly nor dilute the traffic baseline, and the
        // determinism contract wants scoring to depend only on active
        // windows.
        if point.window_queries > 0 {
            for (i, tracked) in TRACKED_SERIES.iter().enumerate() {
                let x = point.tracked_value(i);
                if let Some((mean, z)) = inner.detectors[i].update(x, tracked.abs_floor) {
                    let exemplar = telemetry
                        .exemplars()
                        .slowest()
                        .first()
                        .map(|rec| rec.trace_id);
                    let record = AnomalyRecord {
                        t_us: point.t_us,
                        series: tracked.name,
                        value: x,
                        mean,
                        zscore: z,
                        deterministic: tracked.deterministic,
                        exemplar,
                    };
                    inner.fired += 1;
                    if inner.anomalies.len() == ANOMALY_CAPACITY {
                        inner.anomalies.pop_front();
                    }
                    inner.anomalies.push_back(record);
                    new_records.push(record);
                }
            }
        }
        if inner.points.len() == SERIES_CAPACITY {
            inner.points.pop_front();
        }
        inner.points.push_back(point);
        drop(inner);
        // Counter and span emission take the registry/span locks;
        // keep them outside the recorder lock.
        for r in &new_records {
            telemetry.emit_event(
                &metrics::ANOMALIES,
                ("series", r.series),
                ["anomaly", "anomaly_detector", "anomaly"],
                vec![
                    ("series", ArgValue::Str(r.series)),
                    ("value", ArgValue::F64(r.value)),
                    ("mean", ArgValue::F64(r.mean)),
                    ("zscore", ArgValue::F64(r.zscore)),
                ],
                r.exemplar,
            );
        }
        Some(point)
    }

    /// Every retained point, oldest first.
    pub fn points(&self) -> Vec<SeriesPoint> {
        self.inner.lock().points.iter().copied().collect()
    }

    /// Every retained anomaly record, oldest first.
    pub fn anomalies(&self) -> Vec<AnomalyRecord> {
        self.inner.lock().anomalies.iter().copied().collect()
    }

    /// Lifetime count of anomalies fired (not bounded by the record
    /// ring).
    pub fn anomaly_count(&self) -> u64 {
        self.inner.lock().fired
    }

    /// Drops all samples, points, records, and detector state. The
    /// next tick is a fresh baseline.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.last = None;
        inner.points.clear();
        inner.anomalies.clear();
        inner.fired = 0;
        inner.detectors = [Detector::default(); TRACKED];
    }

    /// Renders the retained points as the `/timeseries` JSON document.
    ///
    /// `window_s` keeps only points within that many seconds of the
    /// newest point (`0` = everything retained); `step` then thins to
    /// every `step`-th point, anchored so the newest point is always
    /// included.
    pub fn render_json(&self, window_s: u64, step: usize) -> String {
        let inner = self.inner.lock();
        let step = step.max(1);
        let cutoff = match (window_s, inner.points.back()) {
            (0, _) | (_, None) => 0,
            (w, Some(newest)) => newest.t_us.saturating_sub(w.saturating_mul(1_000_000)),
        };
        let kept: Vec<&SeriesPoint> = inner.points.iter().filter(|p| p.t_us >= cutoff).collect();
        // Anchor stepping at the newest point and walk backwards.
        let mut picked: Vec<&SeriesPoint> = Vec::new();
        let mut i = kept.len();
        while i > 0 {
            picked.push(kept[i - 1]);
            i = i.saturating_sub(step);
        }
        picked.reverse();
        let body = picked
            .iter()
            .map(|p| p.to_json())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"window_s\": {window_s}, \"step\": {step}, \"retained\": {}, \
             \"anomaly_total\": {}, \"points\": [{body}]}}",
            inner.points.len(),
            inner.fired,
        )
    }

    /// Renders the retained anomaly records as the `/anomalies` JSON
    /// document.
    pub fn anomalies_json(&self) -> String {
        let inner = self.inner.lock();
        let body = inner
            .anomalies
            .iter()
            .map(|r| r.to_json())
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"fired\": {}, \"retained\": {}, \"records\": [{body}]}}",
            inner.fired,
            inner.anomalies.len(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::telemetry::Histogram;

    /// The cumulative instruments a node would sample, driven by hand.
    #[derive(Default)]
    struct Traffic {
        sample: Sample,
        latency: Histogram,
    }

    impl Traffic {
        /// One synthetic traffic window: `q` queries of `lat_us` each,
        /// `bytes` stage-load bytes, `retries` retries.
        fn drive(&mut self, q: u64, lat_us: u64, bytes: u64, retries: u64) {
            let s = &mut self.sample;
            s.queries += q;
            self.latency.observe_n(lat_us, q);
            s.bytes_read += bytes;
            s.cause_bytes[ReadCause::StageLoad.index()] += bytes;
            s.read_retries += retries;
            s.cache_hits += 3 * q;
            s.cache_misses += q;
        }

        /// The instruments as sampled at `t_us`.
        fn at(&self, t_us: u64) -> Sample {
            let latency = self.latency.snapshot();
            Sample {
                t_us,
                latency,
                ..self.sample
            }
        }
    }

    #[test]
    fn first_tick_is_baseline_and_rates_are_exact() {
        let (t, mut h) = (Telemetry::new(), Traffic::default());
        let rec = SeriesRecorder::new();
        assert!(
            rec.tick(&t, h.at(0)).is_none(),
            "first tick is the baseline"
        );
        h.drive(50, 400, 2_000_000, 0);
        let p = rec.tick(&t, h.at(2_000_000)).expect("second tick derives");
        assert_eq!(p.window_queries, 50);
        assert!((p.qps - 25.0).abs() < 1e-9, "50 q / 2 s, got {}", p.qps);
        assert!(
            (p.bytes_per_s - 1_000_000.0).abs() < 1e-6,
            "2 MB / 2 s, got {}",
            p.bytes_per_s
        );
        assert!((p.cause_bytes_per_s[ReadCause::StageLoad.index()] - 1_000_000.0).abs() < 1e-6);
        assert!((p.hit_rate - 0.75).abs() < 1e-9);
        // Windowed quantile sees only this window's 400 us samples.
        assert!(p.p99_us >= 400.0 && p.p99_us <= 512.0, "p99 {}", p.p99_us);
        assert_eq!(rec.points().len(), 1);
    }

    #[test]
    fn non_advancing_tick_rebaselines_instead_of_dividing_by_zero() {
        let (t, mut h) = (Telemetry::new(), Traffic::default());
        let rec = SeriesRecorder::new();
        assert!(rec.tick(&t, h.at(1_000)).is_none());
        h.drive(10, 100, 1000, 0);
        assert!(
            rec.tick(&t, h.at(1_000)).is_none(),
            "same timestamp re-baselines"
        );
        assert!(
            rec.tick(&t, h.at(500)).is_none(),
            "regressing timestamp too"
        );
        h.drive(10, 100, 1000, 0);
        let p = rec.tick(&t, h.at(1_000_500)).expect("clock advanced");
        // The re-baseline consumed the first burst; only the second
        // burst lands in this window.
        assert_eq!(p.window_queries, 10);
    }

    #[test]
    fn ring_capacity_is_bounded() {
        let (t, mut h) = (Telemetry::new(), Traffic::default());
        let rec = SeriesRecorder::new();
        rec.tick(&t, h.at(0));
        let ticks = SERIES_CAPACITY as u64 + 20;
        for i in 1..=ticks {
            h.drive(5, 100, 100, 0);
            rec.tick(&t, h.at(i * 1_000_000));
        }
        let points = rec.points();
        assert_eq!(points.len(), SERIES_CAPACITY);
        assert_eq!(points.last().expect("non-empty").t_us, ticks * 1_000_000);
        assert_eq!(points[0].t_us, 21_000_000, "the oldest 20 points left");
    }

    #[test]
    fn steady_traffic_fires_no_anomaly_and_a_spike_fires_once() {
        let (t, mut h) = (Telemetry::new(), Traffic::default());
        let rec = SeriesRecorder::new();
        rec.tick(&t, h.at(0));
        // 12 identical windows: warm-up plus a long steady baseline.
        for i in 1..=12u64 {
            h.drive(40, 300, 100_000, 0);
            rec.tick(&t, h.at(i * 1_000_000));
        }
        assert_eq!(rec.anomaly_count(), 0, "steady traffic is not anomalous");
        // Retry storm: retries jump from 0/s to 80/s.
        h.drive(40, 300, 100_000, 80);
        rec.tick(&t, h.at(13_000_000));
        let records = rec.anomalies();
        assert_eq!(rec.anomaly_count(), 1, "records: {records:?}");
        assert_eq!(records[0].series, "retries_per_s");
        assert!(records[0].deterministic);
        assert!(records[0].zscore >= ENTER_Z);
        // Hysteresis: the storm continuing is the same episode.
        h.drive(40, 300, 100_000, 85);
        rec.tick(&t, h.at(14_000_000));
        assert_eq!(rec.anomaly_count(), 1, "ongoing episode does not re-fire");
        // The counter surfaced in the registry.
        let prom = t.render_prometheus();
        assert!(
            prom.contains("dhnsw_anomaly_total{series=\"retries_per_s\"} 1"),
            "prometheus exposition missing anomaly counter:\n{prom}"
        );
    }

    #[test]
    fn warmup_suppresses_scoring_and_idle_windows_are_skipped() {
        let (t, mut h) = (Telemetry::new(), Traffic::default());
        let rec = SeriesRecorder::new();
        rec.tick(&t, h.at(0));
        // WARMUP wildly different windows: no anomalies.
        for i in 1..=u64::from(WARMUP) {
            if i % 2 == 1 {
                h.drive(10, 100, 1_000, 0);
            } else {
                h.drive(500, 100, 9_000_000, 40);
            }
            rec.tick(&t, h.at(i * 1_000_000));
        }
        assert_eq!(rec.anomaly_count(), 0, "warm-up must not score");
        // Idle windows (no queries) never feed the detectors.
        for i in u64::from(WARMUP) + 1..=30 {
            rec.tick(&t, h.at(i * 1_000_000));
        }
        assert_eq!(rec.anomaly_count(), 0, "idle windows must not score");
        let points = rec.points();
        assert_eq!(points.last().expect("non-empty").window_queries, 0);
    }

    #[test]
    fn clear_resets_baseline_points_and_detectors() {
        let (t, mut h) = (Telemetry::new(), Traffic::default());
        let rec = SeriesRecorder::new();
        rec.tick(&t, h.at(0));
        h.drive(10, 100, 1_000, 0);
        rec.tick(&t, h.at(1_000_000));
        assert_eq!(rec.points().len(), 1);
        rec.clear();
        assert!(rec.points().is_empty());
        assert!(rec.anomalies().is_empty());
        assert_eq!(rec.anomaly_count(), 0);
        assert!(
            rec.tick(&t, h.at(2_000_000)).is_none(),
            "tick after clear is a fresh baseline"
        );
    }

    #[test]
    fn render_json_windows_and_steps_anchor_on_newest() {
        let (t, mut h) = (Telemetry::new(), Traffic::default());
        let rec = SeriesRecorder::new();
        rec.tick(&t, h.at(0));
        for i in 1..=10u64 {
            h.drive(8, 200, 4_000, 0);
            rec.tick(&t, h.at(i * 1_000_000));
        }
        let all = rec.render_json(0, 1);
        assert!(all.contains("\"retained\": 10"));
        assert!(all.contains("\"t_us\": 1000000"));
        assert!(all.contains("\"t_us\": 10000000"));
        // 3-second window keeps t = 7, 8, 9, 10 s.
        let windowed = rec.render_json(3, 1);
        assert!(!windowed.contains("\"t_us\": 6000000"));
        assert!(windowed.contains("\"t_us\": 7000000"));
        assert!(windowed.contains("\"t_us\": 10000000"));
        // Stepping by 4 anchors on the newest point.
        let stepped = rec.render_json(0, 4);
        assert!(stepped.contains("\"t_us\": 10000000"));
        assert!(stepped.contains("\"t_us\": 6000000"));
        assert!(stepped.contains("\"t_us\": 2000000"));
        assert!(!stepped.contains("\"t_us\": 9000000"));
        // Anomalies document is well-formed even when empty.
        let anomalies = rec.anomalies_json();
        assert!(anomalies.contains("\"fired\": 0"));
        assert!(anomalies.contains("\"records\": []"));
    }

    #[test]
    fn detector_hysteresis_rearms_after_recovery() {
        let mut d = Detector::default();
        for _ in 0..10 {
            assert!(d.update(100.0, 1.0).is_none());
        }
        assert!(d.update(1_000.0, 1.0).is_some(), "spike fires");
        assert!(d.update(1_000.0, 1.0).is_none(), "episode continues");
        // Recovery to baseline re-arms…
        for _ in 0..5 {
            assert!(d.update(100.0, 1.0).is_none());
        }
        assert!(!d.active, "recovered below EXIT_Z");
        // …and a second spike fires a new episode.
        assert!(d.update(1_000.0, 1.0).is_some());
    }
}
