//! CSV emission for sweep and breakdown results, so figures can be
//! re-plotted without re-running the harness. Files land under
//! `results/` (created on demand); the schema is one row per measured
//! point with every counter the [`crate::SweepPoint`] /
//! [`crate::BreakdownRow`] structs carry.

use std::io::Write;
use std::path::{Path, PathBuf};

use dhnsw::SearchMode;

use crate::{BreakdownRow, SweepPoint};

/// Header row for sweep CSVs.
pub const SWEEP_HEADER: &str = "scheme,ef,recall,latency_us_per_query,network_us,sub_hnsw_us,meta_hnsw_us,round_trips,bytes_read,unique_clusters,cache_hits,clusters_loaded,queries";

/// Header row for breakdown CSVs.
pub const BREAKDOWN_HEADER: &str =
    "scheme,network_us,sub_hnsw_us,meta_hnsw_us,round_trips_per_query,bytes_read,recall,queries";

/// Formats one sweep point as a CSV row.
pub fn sweep_row(mode: SearchMode, p: &SweepPoint) -> String {
    let r = &p.report;
    // The paper's three columns: search time includes cluster decode.
    let [net, sub, meta] = r.breakdown.paper_columns();
    format!(
        "{},{},{:.6},{:.3},{net:.3},{sub:.3},{meta:.3},{},{},{},{},{},{}",
        mode.name().replace(',', ";"),
        p.ef,
        p.recall,
        p.latency_us,
        r.round_trips,
        r.bytes_read,
        r.unique_clusters,
        r.cache_hits,
        r.clusters_loaded,
        r.queries,
    )
}

/// Formats one breakdown row as CSV.
pub fn breakdown_row(row: &BreakdownRow) -> String {
    let r = &row.report;
    let [net, sub, meta] = r.breakdown.paper_columns();
    format!(
        "{},{net:.3},{sub:.3},{meta:.3},{:.6},{},{:.6},{}",
        row.mode.name().replace(',', ";"),
        r.round_trips_per_query(),
        r.bytes_read,
        row.recall,
        r.queries,
    )
}

/// Writes a whole sweep (several schemes) to `results/<name>.csv`,
/// returning the path written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_sweep_csv(
    dir: impl AsRef<Path>,
    name: &str,
    schemes: &[(SearchMode, Vec<SweepPoint>)],
) -> std::io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{SWEEP_HEADER}")?;
    for (mode, points) in schemes {
        for p in points {
            writeln!(f, "{}", sweep_row(*mode, p))?;
        }
    }
    Ok(path)
}

/// Writes a breakdown table to `results/<name>.csv`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_breakdown_csv(
    dir: impl AsRef<Path>,
    name: &str,
    rows: &[BreakdownRow],
) -> std::io::Result<PathBuf> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut f = std::fs::File::create(&path)?;
    writeln!(f, "{BREAKDOWN_HEADER}")?;
    for row in rows {
        writeln!(f, "{}", breakdown_row(row))?;
    }
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhnsw::BatchReport;

    fn point(ef: usize) -> SweepPoint {
        SweepPoint {
            ef,
            recall: 0.5,
            latency_us: 12.25,
            report: BatchReport {
                queries: 10,
                round_trips: 3,
                bytes_read: 1024,
                ..Default::default()
            },
        }
    }

    #[test]
    fn sweep_row_has_header_arity() {
        let row = sweep_row(SearchMode::Full, &point(8));
        assert_eq!(
            row.split(',').count(),
            SWEEP_HEADER.split(',').count(),
            "row/header column mismatch"
        );
        assert!(row.starts_with("d-HNSW,8,"));
    }

    #[test]
    fn breakdown_row_has_header_arity() {
        let row = breakdown_row(&BreakdownRow {
            mode: SearchMode::Naive,
            report: BatchReport {
                queries: 5,
                round_trips: 20,
                ..Default::default()
            },
            recall: 0.9,
        });
        assert_eq!(row.split(',').count(), BREAKDOWN_HEADER.split(',').count());
    }

    #[test]
    fn csv_files_are_written_and_parse_back() {
        let dir = std::env::temp_dir().join(format!("dhnsw_csv_test_{}", std::process::id()));
        let path = write_sweep_csv(
            &dir,
            "fig_test",
            &[(SearchMode::Full, vec![point(1), point(2)])],
        )
        .unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = content.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], SWEEP_HEADER);
        assert!(lines[2].contains("d-HNSW,2,"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
