//! Live `top`-style dashboard over a node's series recorder.
//!
//! [`render_dashboard`] is a pure function from the recorder's typed
//! records — retained [`SeriesPoint`]s, retained [`AnomalyRecord`]s and
//! the lifetime firing count — to a terminal frame: unicode sparklines
//! (QPS, windowed p99, bytes/s in total and by read cause, cache hit
//! rate) plus an anomaly banner. `dhnsw_cli serve` renders it where the
//! records live and answers `GET /top` with the frame; `dhnsw_cli top`
//! fetches that body with [`http_get`] and prints it, clearing the screen
//! between frames unless `--once` asks for a single one.
//!
//! Everything here is deliberately synchronous and dependency-free: one
//! blocking `TcpStream` GET per frame.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use dhnsw::{AnomalyRecord, ReadCause, SeriesPoint};

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

/// Lays the recorder's retained `points` (oldest first), retained
/// `anomalies` (oldest first) and lifetime `anomaly_total` out as a
/// complete terminal frame headed by `url`, each sparkline `width` points
/// wide (no ANSI codes — the caller owns screen clearing so `--once`
/// output stays pipeable).
#[must_use]
pub fn render_dashboard(
    points: &[SeriesPoint],
    anomalies: &[AnomalyRecord],
    anomaly_total: u64,
    url: &str,
    width: usize,
) -> String {
    let column = |value: &dyn Fn(&SeriesPoint) -> f64| points.iter().map(value).collect::<Vec<_>>();
    let mut out = format!(
        "dhnsw top — {url}   points: {}   anomalies: {anomaly_total}\n",
        points.len(),
    );
    if points.is_empty() {
        out.push_str("  (no series points retained yet — is the sampler running?)\n");
    } else {
        spark_row(&mut out, "qps", &column(&|p| p.qps), width);
        spark_row(&mut out, "p99 us", &column(&|p| p.p99_us), width);
        spark_row(&mut out, "bytes/s", &column(&|p| p.bytes_per_s), width);
        spark_row(&mut out, "hit rate", &column(&|p| p.hit_rate), width);
        // One row per read cause that moved bytes anywhere in the
        // window; quiet causes are dropped so the frame stays short.
        for cause in ReadCause::ALL {
            let col = column(&|p| p.cause_bytes_per_s[cause.index()]);
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
    if anomaly_total > 0 || !anomalies.is_empty() {
        out.push_str(&format!(
            "  !! {} anomalies fired\n",
            anomaly_total.max(anomalies.len() as u64),
        ));
        for row in anomalies.iter().rev().take(3) {
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

    /// A point whose per-cause bytes all come from stage loads.
    fn point(t_s: u64, queries: u64, p99_us: f64, bytes_per_s: f64, hit_rate: f64) -> SeriesPoint {
        let mut cause_bytes_per_s = [0.0; dhnsw::READ_CAUSES];
        cause_bytes_per_s[ReadCause::StageLoad.index()] = bytes_per_s;
        SeriesPoint {
            t_us: t_s * 1_000_000,
            dt_us: 1_000_000,
            window_queries: queries,
            qps: queries as f64,
            p50_us: 10.0,
            p95_us: 20.0,
            p99_us,
            degraded_rate: 0.0,
            bytes_per_s,
            cause_bytes_per_s,
            retries_per_s: 0.0,
            evictions_per_s: 0.0,
            hit_rate,
            window_cache_ops: queries / 2,
        }
    }

    fn anomaly(exemplar: Option<u64>) -> AnomalyRecord {
        AnomalyRecord {
            t_us: 2_000_000,
            series: "retries_per_s",
            value: 2.0,
            mean: 0.1,
            zscore: 9.5,
            deterministic: true,
            exemplar,
        }
    }

    #[test]
    fn typed_records_render_the_frame_their_json_rendered() {
        // Two points and one anomaly, the records whose `/timeseries` and
        // `/anomalies` JSON the dashboard used to parse back; the literal
        // is the frame that parse rendered, byte for byte.
        let mut second = point(2, 16, 60.0, 8192.0, 0.75);
        second.retries_per_s = 2.0;
        let points = [point(1, 8, 30.0, 4096.0, 0.5), second];
        let frame = render_dashboard(&points, &[anomaly(Some(4660))], 1, "http://127.0.0.1:9", 16);
        assert_eq!(
            frame,
            "dhnsw top — http://127.0.0.1:9   points: 2   anomalies: 1\n  qps                    ▁█                16.0\n  p99 us                 ▁█                60.0\n  bytes/s                ▁█                8.2k\n  hit rate               ▁█                0.8\n  bytes/s[stage_load]    ▁█                8.2k\n  !! 1 anomalies fired\n     retries_per_s: value 2.0 z=9.5 trace 0x1234\n"
        );
    }

    #[test]
    fn a_non_finite_value_draws_the_bottom_glyph_in_its_column() {
        // The p99 of the middle point is not a number: its column keeps
        // three glyphs, so every row stays aligned in time.
        let points = [
            point(1, 8, 30.0, 4096.0, 0.5),
            point(2, 16, f64::NAN, 8192.0, 0.75),
            point(3, 24, 60.0, 8192.0, 1.0),
        ];
        let frame = render_dashboard(&points, &[], 0, "http://x", 16);
        assert!(frame.contains("  p99 us                 ▁▁█ "), "{frame}");
        assert!(frame.contains("  qps                    ▁▅█ "), "{frame}");
    }

    #[test]
    fn no_records_render_a_placeholder_not_a_panic() {
        let frame = render_dashboard(&[], &[], 0, "http://x", 16);
        assert!(frame.contains("no series points"), "{frame}");
        assert!(frame.contains("no anomalies"), "{frame}");
    }

    #[test]
    fn an_anomaly_without_an_exemplar_renders_trace_dash() {
        let frame = render_dashboard(&[], &[anomaly(None)], 1, "http://x", 16);
        assert!(frame.contains("!! 1 anomalies fired"), "{frame}");
        assert!(frame.contains("trace -"), "{frame}");
    }
}
