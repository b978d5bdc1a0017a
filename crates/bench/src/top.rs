//! Live `top`-style dashboard over the serving plane's time-series
//! endpoints.
//!
//! The dashboard is a pure function from two endpoint bodies to a
//! terminal frame: [`http_get`] fetches `/timeseries` and `/anomalies`
//! from a running `dhnsw_cli serve` node, [`parse_snapshot`] lifts the
//! JSON into a [`TopSnapshot`], and [`render_dashboard`] lays the
//! snapshot out as unicode sparklines (QPS, windowed p99, bytes/s by
//! read cause, cache hit rate) plus an anomaly banner. The CLI loop
//! merely clears the screen and repeats; with `--once` it prints a
//! single frame, which is what `scripts/check.sh` smoke-tests against a
//! live node.
//!
//! Everything here is deliberately synchronous and dependency-free:
//! one blocking `TcpStream` GET per endpoint per frame, tiny JSON
//! lifted with the bench crate's own [`JsonParser`].

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use crate::json::{Json, JsonParser};

/// Glyph ramp used by [`sparkline`], lowest to highest.
pub const SPARK_GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];

/// Glyph a constant nonzero window renders at: a flat mid-height bar,
/// visually distinct from both "empty" and "at the window minimum".
pub const SPARK_FLAT: char = SPARK_GLYPHS[3];

/// Renders the last `width` values as a unicode sparkline, scaled to
/// the min..max of the visible window. An empty input renders empty; a
/// constant window has no shape to scale, so it renders as a flat bar
/// ([`SPARK_FLAT`], or the bottom glyph when the constant is zero)
/// instead of dividing by the zero span. Non-finite samples pin to the
/// bottom glyph.
#[must_use]
pub fn sparkline(values: &[f64], width: usize) -> String {
    let tail = &values[values.len().saturating_sub(width)..];
    if tail.is_empty() {
        return String::new();
    }
    let finite = tail.iter().cloned().filter(|v| v.is_finite());
    let min = finite.clone().fold(f64::INFINITY, f64::min);
    let max = finite.fold(f64::NEG_INFINITY, f64::max);
    let span = max - min;
    tail.iter()
        .map(|&v| {
            if !v.is_finite() || !span.is_finite() {
                SPARK_GLYPHS[0]
            } else if span > 0.0 {
                let idx = (((v - min) / span) * (SPARK_GLYPHS.len() - 1) as f64).round() as usize;
                SPARK_GLYPHS[idx.min(SPARK_GLYPHS.len() - 1)]
            } else if v == 0.0 {
                // A flat zero line genuinely sits at the bottom.
                SPARK_GLYPHS[0]
            } else {
                SPARK_FLAT
            }
        })
        .collect()
}

/// One `/anomalies` record, reduced to what the banner shows.
#[derive(Debug, Clone)]
pub struct AnomalyRow {
    /// Which tracked series fired.
    pub series: String,
    /// The offending windowed value.
    pub value: f64,
    /// Robust z-score at firing time.
    pub zscore: f64,
    /// Trace id of the slowest retained exemplar, if one was linked.
    pub exemplar: Option<u64>,
}

/// Everything one dashboard frame needs, lifted from the two endpoint
/// bodies.
#[derive(Debug, Clone, Default)]
pub struct TopSnapshot {
    /// Retained series points, oldest first (already window/step
    /// thinned by the server).
    pub points: Vec<Json>,
    /// Lifetime anomaly firings reported by `/timeseries`.
    pub anomaly_total: f64,
    /// Retained anomaly records, oldest first.
    pub anomalies: Vec<AnomalyRow>,
}

impl TopSnapshot {
    /// Extracts one numeric column across the retained points.
    #[must_use]
    pub fn column(&self, key: &str) -> Vec<f64> {
        self.points
            .iter()
            .filter_map(|p| p.get(key).and_then(Json::as_f64))
            .collect()
    }

    /// Extracts one per-cause bytes/s column across the retained
    /// points.
    #[must_use]
    pub fn cause_column(&self, cause: &str) -> Vec<f64> {
        self.points
            .iter()
            .filter_map(|p| {
                p.get("cause_bytes_per_s")
                    .and_then(|c| c.get(cause))
                    .and_then(Json::as_f64)
            })
            .collect()
    }
}

/// Lifts the `/timeseries` and `/anomalies` bodies into a snapshot.
///
/// # Errors
///
/// Returns a message when either body is not the JSON shape the serve
/// plane emits.
pub fn parse_snapshot(timeseries: &str, anomalies: &str) -> Result<TopSnapshot, String> {
    let ts = JsonParser::new(timeseries.trim())
        .parse_document()
        .map_err(|e| format!("/timeseries: {e}"))?;
    let an = JsonParser::new(anomalies.trim())
        .parse_document()
        .map_err(|e| format!("/anomalies: {e}"))?;
    let points = ts
        .get("points")
        .ok_or("/timeseries: missing \"points\"")?
        .items()
        .to_vec();
    let anomaly_total = ts
        .get("anomaly_total")
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let rows = an
        .get("records")
        .ok_or("/anomalies: missing \"records\"")?
        .items()
        .iter()
        .map(|r| AnomalyRow {
            series: r
                .get("series")
                .and_then(Json::as_str)
                .unwrap_or("?")
                .to_string(),
            value: r.get("value").and_then(Json::as_f64).unwrap_or(0.0),
            zscore: r.get("zscore").and_then(Json::as_f64).unwrap_or(0.0),
            exemplar: r.get("exemplar").and_then(Json::as_f64).map(|id| id as u64),
        })
        .collect();
    Ok(TopSnapshot {
        points,
        anomaly_total,
        anomalies: rows,
    })
}

/// Formats a rate with an SI-ish unit suffix (`1.2k`, `3.4M`).
fn fmt_rate(v: f64) -> String {
    let a = v.abs();
    if a >= 1e9 {
        format!("{:.1}G", v / 1e9)
    } else if a >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else if a >= 1e3 {
        format!("{:.1}k", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

fn spark_row(out: &mut String, label: &str, values: &[f64], width: usize) {
    let last = values.last().copied().unwrap_or(0.0);
    out.push_str(&format!(
        "  {label:<22} {:<width$}  {}\n",
        sparkline(values, width),
        fmt_rate(last),
        width = width,
    ));
}

/// Lays one snapshot out as a complete terminal frame (no ANSI codes —
/// the caller owns screen clearing so `--once` output stays pipeable).
#[must_use]
pub fn render_dashboard(snap: &TopSnapshot, url: &str, width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "dhnsw top — {url}   points: {}   anomalies: {}\n",
        snap.points.len(),
        snap.anomaly_total,
    ));
    if snap.points.is_empty() {
        out.push_str("  (no series points retained yet — is the sampler running?)\n");
    } else {
        spark_row(&mut out, "qps", &snap.column("qps"), width);
        spark_row(&mut out, "p99 us", &snap.column("p99_us"), width);
        spark_row(&mut out, "bytes/s", &snap.column("bytes_per_s"), width);
        spark_row(&mut out, "hit rate", &snap.column("hit_rate"), width);
        // One row per read cause that moved bytes anywhere in the
        // window; quiet causes are dropped so the frame stays short.
        for cause in dhnsw::ReadCause::ALL {
            let col = snap.cause_column(cause.as_str());
            if col.iter().any(|&v| v > 0.0) {
                spark_row(
                    &mut out,
                    &format!("bytes/s[{}]", cause.as_str()),
                    &col,
                    width,
                );
            }
        }
    }
    if snap.anomaly_total > 0.0 || !snap.anomalies.is_empty() {
        out.push_str(&format!(
            "  !! {} anomalies fired\n",
            snap.anomaly_total.max(snap.anomalies.len() as f64),
        ));
        for row in snap.anomalies.iter().rev().take(3) {
            let trace = row
                .exemplar
                .map_or_else(|| "-".to_string(), |id| format!("{id:#x}"));
            out.push_str(&format!(
                "     {}: value {} z={:.1} trace {trace}\n",
                row.series,
                fmt_rate(row.value),
                row.zscore,
            ));
        }
    } else {
        out.push_str("  no anomalies\n");
    }
    out
}

/// Fetches `http://host:port/path...` with one blocking GET and
/// returns the response body.
///
/// # Errors
///
/// Returns a message on malformed URLs, connection failures, or
/// non-200 statuses.
pub fn http_get(url: &str, timeout: Duration) -> Result<String, String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// URLs are supported, got {url}"))?;
    let (authority, path) = match rest.split_once('/') {
        Some((a, p)) => (a, format!("/{p}")),
        None => (rest, "/".to_string()),
    };
    let mut stream = TcpStream::connect(authority).map_err(|e| format!("{authority}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: {authority}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let (head, body) = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(format!("{url}: {status}"));
    }
    Ok(body.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sparkline_scales_to_the_visible_window() {
        let ramp: Vec<f64> = (0..8).map(|i| i as f64).collect();
        assert_eq!(sparkline(&ramp, 10), "▁▂▃▄▅▆▇█");
        // Width clips to the newest values, and the scale follows the
        // clipped window (the dropped 0.0 no longer anchors the min).
        assert_eq!(sparkline(&[0.0, 6.0, 7.0], 2), "▁█");
    }

    #[test]
    fn sparkline_renders_empty_series_as_empty() {
        assert_eq!(sparkline(&[], 10), "");
        assert_eq!(sparkline(&[], 1), "");
        // Clipping to a zero-width window is also empty, not a panic.
        assert_eq!(sparkline(&[1.0, 2.0], 0), "");
    }

    #[test]
    fn sparkline_renders_constant_series_as_a_flat_bar() {
        // No spread means no shape: a flat mid-height bar, never a
        // divide-by-zero collapse into garbage glyphs.
        assert_eq!(sparkline(&[5.0], 10), SPARK_FLAT.to_string());
        assert_eq!(sparkline(&[3.0, 3.0, 3.0], 10), "▄▄▄");
        // A constant zero line sits at the bottom, so an idle series
        // still reads as idle.
        assert_eq!(sparkline(&[0.0, 0.0], 10), "▁▁");
        // Non-finite samples pin to the bottom instead of poisoning
        // the scale for their neighbors.
        assert_eq!(sparkline(&[f64::NAN, 1.0, 2.0], 10), "▁▁█");
        assert_eq!(sparkline(&[f64::NAN, f64::INFINITY], 10), "▁▁");
    }

    #[test]
    fn snapshot_parses_the_endpoint_shapes_and_renders() {
        let ts = r#"{"window_s": 0, "step": 1, "retained": 2, "anomaly_total": 1,
            "points": [
              {"t_us": 1000000, "dt_us": 1000000, "window_queries": 8, "qps": 8,
               "p50_us": 10, "p95_us": 20, "p99_us": 30, "bytes_per_s": 4096,
               "retries_per_s": 0, "evictions_per_s": 0, "hit_rate": 0.5,
               "window_cache_ops": 4,
               "cause_bytes_per_s": {"stage_load": 4096,
                 "version_check": 0, "retry": 0, "health_probe": 0,
                 "overflow_scan": 0, "naive": 0, "other": 0}},
              {"t_us": 2000000, "dt_us": 1000000, "window_queries": 16, "qps": 16,
               "p50_us": 10, "p95_us": 20, "p99_us": 60, "bytes_per_s": 8192,
               "retries_per_s": 2, "evictions_per_s": 0, "hit_rate": 0.75,
               "window_cache_ops": 8,
               "cause_bytes_per_s": {"stage_load": 8192,
                 "version_check": 0, "retry": 0, "health_probe": 0,
                 "overflow_scan": 0, "naive": 0, "other": 0}}
            ]}"#;
        let an = r#"{"fired": 1, "retained": 1, "records": [
              {"t_us": 2000000, "series": "retries_per_s", "value": 2,
               "mean": 0.1, "zscore": 9.5, "deterministic": true,
               "exemplar": 4660}]}"#;
        let snap = parse_snapshot(ts, an).unwrap();
        assert_eq!(snap.points.len(), 2);
        assert_eq!(snap.anomaly_total, 1.0);
        assert_eq!(snap.column("qps"), vec![8.0, 16.0]);
        assert_eq!(snap.cause_column("stage_load"), vec![4096.0, 8192.0]);
        assert_eq!(snap.anomalies.len(), 1);
        assert_eq!(snap.anomalies[0].series, "retries_per_s");
        assert_eq!(snap.anomalies[0].exemplar, Some(4660));

        let frame = render_dashboard(&snap, "http://127.0.0.1:9", 16);
        assert!(frame.contains("points: 2"), "{frame}");
        assert!(frame.contains("qps"), "{frame}");
        assert!(frame.contains("bytes/s[stage_load]"), "{frame}");
        // Quiet causes are dropped from the frame.
        assert!(!frame.contains("bytes/s[naive]"), "{frame}");
        assert!(frame.contains("!! 1 anomalies fired"), "{frame}");
        assert!(frame.contains("retries_per_s"), "{frame}");
        assert!(frame.contains("0x1234"), "{frame}");
    }

    #[test]
    fn empty_snapshot_renders_a_placeholder_not_a_panic() {
        let snap = parse_snapshot(
            r#"{"window_s": 0, "step": 1, "retained": 0, "anomaly_total": 0, "points": []}"#,
            r#"{"fired": 0, "retained": 0, "records": []}"#,
        )
        .unwrap();
        let frame = render_dashboard(&snap, "http://x", 16);
        assert!(frame.contains("no series points"), "{frame}");
        assert!(frame.contains("no anomalies"), "{frame}");
    }

    #[test]
    fn null_exemplars_parse_as_none() {
        let an = r#"{"fired": 1, "retained": 1, "records": [
              {"t_us": 1, "series": "qps", "value": 0, "mean": 5,
               "zscore": 7.0, "deterministic": true, "exemplar": null}]}"#;
        let snap = parse_snapshot(
            r#"{"window_s": 0, "step": 1, "retained": 0, "anomaly_total": 1, "points": []}"#,
            an,
        )
        .unwrap();
        assert_eq!(snap.anomalies[0].exemplar, None);
        let frame = render_dashboard(&snap, "http://x", 16);
        assert!(frame.contains("trace -"), "{frame}");
    }
}
