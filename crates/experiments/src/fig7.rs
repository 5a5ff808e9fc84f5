//! Experiments E5/E6 — Fig. 7: asymptotic behaviour of the five geometries.
//!
//! Fig. 7(a) evaluates the analytical failed-path percentage at `N = 2^100`
//! across the failure-probability axis; Fig. 7(b) fixes `q = 0.1` and sweeps
//! the system size, exposing the scalable/unscalable split of §5. Both are
//! purely analytical (no simulation is possible at those sizes — the paper's
//! curves are analytical too).

use dht_rcm_core::{routability, Geometry, RcmError, RoutingGeometry, SystemSize};
use dht_sim::SimulationRecord;
use serde::{Deserialize, Serialize};

/// Configuration of the Fig. 7 reproduction — also the parameter block of
/// both the `Fig7a` and the `Fig7b` spec variants, each of which reads the
/// fields of its own panel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7Config {
    /// Identifier length for the asymptotic panel (the paper uses 100).
    pub asymptotic_bits: u32,
    /// Failure-probability grid for Fig. 7(a).
    pub grid: Vec<f64>,
    /// Failure probability for Fig. 7(b) (the paper uses 0.1).
    pub fixed_failure_probability: f64,
    /// Identifier lengths for the Fig. 7(b) size sweep.
    pub size_bits: Vec<u32>,
    /// Symphony parameters (the paper uses `k_n = k_s = 1`).
    pub symphony_near_neighbors: u32,
    /// Symphony shortcut count.
    pub symphony_shortcuts: u32,
}

impl Fig7Config {
    /// The paper-scale configuration: `N = 2^100` for panel (a) and
    /// `N = 2^10 … 2^34` (roughly `10^3 … 10^10`) for panel (b).
    #[must_use]
    pub fn paper_scale() -> Self {
        Fig7Config {
            asymptotic_bits: 100,
            grid: dht_mathkit::percent_grid(90, 5),
            fixed_failure_probability: 0.1,
            size_bits: (10..=34).step_by(2).collect(),
            symphony_near_neighbors: 1,
            symphony_shortcuts: 1,
        }
    }

    /// A reduced configuration for tests and benches.
    #[must_use]
    pub fn smoke() -> Self {
        Fig7Config {
            asymptotic_bits: 100,
            grid: dht_mathkit::percent_grid(80, 20),
            fixed_failure_probability: 0.1,
            size_bits: vec![10, 16, 22, 28, 34],
            symphony_near_neighbors: 1,
            symphony_shortcuts: 1,
        }
    }

    fn geometries(&self) -> Result<Vec<Geometry>, RcmError> {
        Ok(vec![
            Geometry::tree(),
            Geometry::hypercube(),
            Geometry::xor(),
            Geometry::ring(),
            Geometry::symphony(self.symphony_near_neighbors, self.symphony_shortcuts)?,
        ])
    }
}

/// Runs Fig. 7(a): failed-path percentage vs failure probability at the
/// asymptotic size. Grid points where the system degenerates are skipped.
///
/// # Errors
///
/// Returns [`RcmError`] for invalid configuration parameters.
pub fn fig7a(config: &Fig7Config) -> Result<Vec<SimulationRecord>, RcmError> {
    let size = SystemSize::power_of_two(config.asymptotic_bits)?;
    let mut records = Vec::new();
    for geometry in config.geometries()? {
        for &q in &config.grid {
            match routability(&geometry, size, q) {
                Ok(report) => records.push(SimulationRecord::analytical(
                    "fig7a",
                    geometry.name(),
                    config.asymptotic_bits,
                    q,
                    report.failed_path_percent,
                )),
                Err(RcmError::DegenerateSystem { .. }) => continue,
                Err(other) => return Err(other),
            }
        }
    }
    Ok(records)
}

/// One point of the Fig. 7(b) routability-vs-size sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7bPoint {
    /// Geometry name.
    pub geometry: String,
    /// Identifier length (system size is `2^bits`).
    pub bits: u32,
    /// Routability (in percent, the paper's Fig. 7b y-axis).
    pub routability_percent: f64,
}

/// Runs Fig. 7(b): routability vs system size at a fixed failure
/// probability.
///
/// # Errors
///
/// Returns [`RcmError`] for invalid configuration parameters.
pub fn fig7b(config: &Fig7Config) -> Result<Vec<Fig7bPoint>, RcmError> {
    let q = config.fixed_failure_probability;
    let mut points = Vec::new();
    for geometry in config.geometries()? {
        for &bits in &config.size_bits {
            let size = SystemSize::power_of_two(bits)?;
            match routability(&geometry, size, q) {
                Ok(report) => points.push(Fig7bPoint {
                    geometry: geometry.name().to_owned(),
                    bits,
                    routability_percent: 100.0 * report.routability,
                }),
                Err(RcmError::DegenerateSystem { .. }) => continue,
                Err(other) => return Err(other),
            }
        }
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7a_separates_scalable_from_unscalable_geometries() {
        let config = Fig7Config::smoke();
        let records = fig7a(&config).unwrap();
        // At q = 20% and N = 2^100, tree and Symphony have lost essentially
        // every path while the scalable three keep most of them.
        let failed = |name: &str| {
            records
                .iter()
                .find(|r| r.geometry == name && (r.failure_probability - 0.2).abs() < 1e-9)
                .and_then(|r| r.analytical_failed_percent)
                .unwrap()
        };
        assert!(failed("tree") > 99.0);
        assert!(failed("symphony") > 99.0);
        assert!(failed("hypercube") < 30.0);
        assert!(failed("xor") < 30.0);
        assert!(failed("ring") < 30.0);
    }

    #[test]
    fn fig7a_step_like_curves_for_unscalable_geometries() {
        // The paper notes the tree and Symphony curves at N = 2^100 are close
        // to a step function: essentially zero failed paths at q = 0 and
        // essentially all paths failed for any q > 0.
        let config = Fig7Config::smoke();
        let records = fig7a(&config).unwrap();
        for name in ["tree", "symphony"] {
            let at_zero = records
                .iter()
                .find(|r| r.geometry == name && r.failure_probability == 0.0)
                .and_then(|r| r.analytical_failed_percent)
                .unwrap();
            assert!(at_zero < 1e-6, "{name} at q=0: {at_zero}");
        }
    }

    #[test]
    fn fig7b_shows_decay_only_for_unscalable_geometries() {
        let config = Fig7Config::smoke();
        let points = fig7b(&config).unwrap();
        let series = |name: &str| -> Vec<f64> {
            points
                .iter()
                .filter(|p| p.geometry == name)
                .map(|p| p.routability_percent)
                .collect()
        };
        for name in ["tree", "symphony"] {
            let values = series(name);
            assert!(
                values.last().unwrap() < &(values.first().unwrap() * 0.5),
                "{name} should decay: {values:?}"
            );
        }
        for name in ["hypercube", "xor", "ring"] {
            let values = series(name);
            assert!(
                values.last().unwrap() > &90.0,
                "{name} should stay routable: {values:?}"
            );
            assert!(
                (values.first().unwrap() - values.last().unwrap()).abs() < 3.0,
                "{name} should stay flat: {values:?}"
            );
        }
    }

    #[test]
    fn fig7_record_counts_match_configuration() {
        let config = Fig7Config::smoke();
        let a = fig7a(&config).unwrap();
        assert_eq!(a.len(), 5 * config.grid.len());
        let b = fig7b(&config).unwrap();
        assert_eq!(b.len(), 5 * config.size_bits.len());
    }
}
