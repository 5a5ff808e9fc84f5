//! Experiment E7 — the §5 scalability classification table.

use dht_mathkit::SeriesVerdict;
use dht_rcm_core::{classify, Geometry, RcmError, RoutingGeometry, ScalabilityClass};
use serde::{Deserialize, Serialize};

/// One row of the scalability table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalabilityRow {
    /// Geometry name.
    pub geometry: String,
    /// DHT system the geometry models.
    pub system: String,
    /// The paper's analytical verdict (§5).
    pub analytic: ScalabilityClass,
    /// The numerical Knopp-series verdict at each probed failure probability.
    pub numeric: Vec<(f64, SeriesVerdict)>,
    /// Whether analysis and numerics agree at every probed point.
    pub consistent: bool,
    /// Limiting success probability `lim_{h→∞} p(h, q)` at the first probed
    /// failure probability (0 for unscalable geometries).
    pub limiting_success_probability: f64,
}

/// Builds the scalability table for the five paper geometries at the given
/// failure probabilities.
///
/// # Errors
///
/// Returns [`RcmError`] if a probe value is outside `[0, 1)`.
pub fn run(failure_probabilities: &[f64]) -> Result<Vec<ScalabilityRow>, RcmError> {
    let geometries = vec![
        Geometry::tree(),
        Geometry::hypercube(),
        Geometry::xor(),
        Geometry::ring(),
        Geometry::symphony(1, 1)?,
    ];
    let mut rows = Vec::with_capacity(geometries.len());
    for geometry in geometries {
        let mut numeric = Vec::new();
        let mut consistent = true;
        let mut limiting = 0.0;
        for (index, &q) in failure_probabilities.iter().enumerate() {
            let report = classify(&geometry, q)?;
            consistent &= report.consistent;
            if index == 0 {
                limiting = report.limiting_success_probability;
            }
            numeric.push((q, report.numeric));
        }
        rows.push(ScalabilityRow {
            geometry: geometry.name().to_owned(),
            system: geometry.system().to_owned(),
            analytic: geometry.analytic_scalability(),
            numeric,
            consistent,
            limiting_success_probability: limiting,
        });
    }
    Ok(rows)
}

/// Renders the table as text (what `scenario exp` prints).
#[must_use]
pub fn render(rows: &[ScalabilityRow]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:<12} {:<12} {:>10}",
        "geometry", "system", "analytic", "numeric", "lim p(h,q)"
    );
    for row in rows {
        let numeric_summary = if row
            .numeric
            .iter()
            .all(|(_, v)| *v == SeriesVerdict::Converges)
        {
            "converges"
        } else if row
            .numeric
            .iter()
            .all(|(_, v)| *v == SeriesVerdict::Diverges)
        {
            "diverges"
        } else {
            "mixed"
        };
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:<12} {:<12} {:>10.4}",
            row.geometry,
            row.system,
            row.analytic,
            numeric_summary,
            row.limiting_success_probability
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_reproduces_the_paper_verdicts() {
        let rows = run(&[0.1, 0.3]).unwrap();
        assert_eq!(rows.len(), 5);
        let verdict = |name: &str| rows.iter().find(|r| r.geometry == name).unwrap();
        assert_eq!(verdict("tree").analytic, ScalabilityClass::Unscalable);
        assert_eq!(verdict("symphony").analytic, ScalabilityClass::Unscalable);
        assert_eq!(verdict("hypercube").analytic, ScalabilityClass::Scalable);
        assert_eq!(verdict("xor").analytic, ScalabilityClass::Scalable);
        assert_eq!(verdict("ring").analytic, ScalabilityClass::Scalable);
        assert!(rows.iter().all(|row| row.consistent));
    }

    #[test]
    fn scalable_geometries_have_positive_limits() {
        let rows = run(&[0.1]).unwrap();
        for row in &rows {
            match row.analytic {
                ScalabilityClass::Scalable => assert!(row.limiting_success_probability > 0.5),
                ScalabilityClass::Unscalable => {
                    assert_eq!(row.limiting_success_probability, 0.0);
                }
            }
        }
    }

    #[test]
    fn rendered_table_mentions_every_geometry() {
        let rows = run(&[0.2]).unwrap();
        let text = render(&rows);
        for name in ["tree", "hypercube", "xor", "ring", "symphony"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn invalid_probe_values_are_rejected() {
        assert!(run(&[0.5, 1.0]).is_err());
    }
}
