//! Experiments E3/E4 — Fig. 6: analysis vs simulation at `N = 2^16`.
//!
//! Fig. 6(a) plots the percentage of failed paths for the tree, hypercube and
//! XOR geometries as the node failure probability grows from 0 to 90%;
//! Fig. 6(b) does the same for ring (Chord) routing, where the analytical
//! expression is an upper bound on the failed-path percentage. In the paper
//! the simulation points come from Gummadi et al.; here they are measured on
//! the executable overlays of `dht-overlay` under the identical
//! static-resilience model.

use dht_overlay::{
    CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay, Overlay, OverlayError, PlaxtonOverlay,
};
use dht_rcm_core::{routability, Geometry, RcmError, RoutingGeometry, SystemSize};
use dht_sim::{SimError, SimulationRecord, StaticResilienceConfig, StaticResilienceExperiment};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the Fig. 6 reproduction — also the parameter block of
/// the `Fig6a`, `Fig6b` and `RingBoundGap` spec variants. The seed and the
/// thread budget come from the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig6Config {
    /// Identifier length used for the analytical curves (the paper uses 16).
    pub analytical_bits: u32,
    /// Identifier length used for the simulated overlays. The paper's
    /// `2^16` is the paper-scale default; tests and benches use smaller
    /// sizes for speed.
    pub simulation_bits: u32,
    /// Source/destination pairs sampled per grid point.
    pub pairs: u64,
    /// Failure-probability grid (fractions in `[0, 1)`).
    pub grid: Vec<f64>,
}

impl Fig6Config {
    /// The paper-scale configuration: analytical and simulated at `2^16`,
    /// failure probabilities 0–90% in 5% steps.
    #[must_use]
    pub fn paper_scale() -> Self {
        Fig6Config {
            analytical_bits: 16,
            simulation_bits: 16,
            pairs: 20_000,
            grid: dht_mathkit::percent_grid(90, 5),
        }
    }

    /// A reduced configuration for tests and benches (seconds, not minutes).
    #[must_use]
    pub fn smoke() -> Self {
        Fig6Config {
            analytical_bits: 16,
            simulation_bits: 10,
            pairs: 2_000,
            grid: dht_mathkit::percent_grid(80, 20),
        }
    }
}

/// Errors from the Fig. 6 harness.
#[derive(Debug)]
pub enum Fig6Error {
    /// Analytical evaluation failed.
    Rcm(RcmError),
    /// Overlay construction failed.
    Overlay(OverlayError),
    /// Simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for Fig6Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Fig6Error::Rcm(err) => write!(f, "analytical evaluation failed: {err}"),
            Fig6Error::Overlay(err) => write!(f, "overlay construction failed: {err}"),
            Fig6Error::Sim(err) => write!(f, "simulation failed: {err}"),
        }
    }
}

impl std::error::Error for Fig6Error {}

impl From<RcmError> for Fig6Error {
    fn from(err: RcmError) -> Self {
        Fig6Error::Rcm(err)
    }
}
impl From<OverlayError> for Fig6Error {
    fn from(err: OverlayError) -> Self {
        Fig6Error::Overlay(err)
    }
}
impl From<SimError> for Fig6Error {
    fn from(err: SimError) -> Self {
        Fig6Error::Sim(err)
    }
}

/// Runs Fig. 6(a): tree, hypercube and XOR, analysis plus simulation.
/// `seed` drives overlay construction, failure patterns and pair sampling;
/// `threads` is the worker budget per measurement.
///
/// # Errors
///
/// Returns [`Fig6Error`] if any component fails; degenerate analytical points
/// (too few expected survivors) are skipped like the paper's plot simply ends.
pub fn fig6a(
    config: &Fig6Config,
    seed: u64,
    threads: usize,
) -> Result<Vec<SimulationRecord>, Fig6Error> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let tree_overlay = PlaxtonOverlay::build(config.simulation_bits, &mut rng)?;
    let cube_overlay = CanOverlay::build(config.simulation_bits)?;
    let xor_overlay = KademliaOverlay::build(config.simulation_bits, &mut rng)?;

    let mut records = Vec::new();
    collect_geometry(
        "fig6a",
        config,
        seed,
        threads,
        &Geometry::tree(),
        &tree_overlay,
        &mut records,
    )?;
    collect_geometry(
        "fig6a",
        config,
        seed,
        threads,
        &Geometry::hypercube(),
        &cube_overlay,
        &mut records,
    )?;
    collect_geometry(
        "fig6a",
        config,
        seed,
        threads,
        &Geometry::xor(),
        &xor_overlay,
        &mut records,
    )?;
    Ok(records)
}

/// Runs Fig. 6(b): ring (Chord) routing, analysis plus simulation.
///
/// # Errors
///
/// See [`fig6a`].
pub fn fig6b(
    config: &Fig6Config,
    seed: u64,
    threads: usize,
) -> Result<Vec<SimulationRecord>, Fig6Error> {
    // Classic (deterministic-finger) Chord, as simulated by Gummadi et al.;
    // the paper's analysis uses the randomised variant, whose extra finger
    // placement noise is exactly what the lower-bound model abstracts away.
    let ring_overlay = ChordOverlay::build(config.simulation_bits, ChordVariant::Deterministic)?;
    let mut records = Vec::new();
    collect_geometry(
        "fig6b",
        config,
        seed,
        threads,
        &Geometry::ring(),
        &ring_overlay,
        &mut records,
    )?;
    Ok(records)
}

/// Evaluates one geometry across the whole grid, both analytically and by
/// simulation on the matching overlay.
fn collect_geometry<O>(
    experiment: &str,
    config: &Fig6Config,
    seed: u64,
    threads: usize,
    geometry: &Geometry,
    overlay: &O,
    records: &mut Vec<SimulationRecord>,
) -> Result<(), Fig6Error>
where
    O: Overlay + Sync + ?Sized,
{
    let analytical_size = SystemSize::power_of_two(config.analytical_bits)?;
    for (index, &q) in config.grid.iter().enumerate() {
        let analytical = match routability(geometry, analytical_size, q) {
            Ok(report) => Some(report.failed_path_percent),
            Err(RcmError::DegenerateSystem { .. }) => None,
            Err(other) => return Err(other.into()),
        };
        let sim_config = StaticResilienceConfig::new(q)?
            .with_pairs(config.pairs)
            .with_seed(seed.wrapping_add(index as u64 * 101))
            .with_threads(threads);
        let simulated = StaticResilienceExperiment::new(sim_config).run(overlay);
        let mut record = SimulationRecord {
            experiment: experiment.to_owned(),
            geometry: geometry.name().to_owned(),
            bits: config.analytical_bits,
            failure_probability: q,
            analytical_failed_percent: analytical,
            simulated_failed_percent: None,
            simulated_confidence_half_width: None,
        };
        if simulated.pairs_attempted > 0 {
            record = record.with_simulation(&simulated);
        }
        records.push(record);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6a_has_one_record_per_geometry_and_grid_point() {
        let config = Fig6Config::smoke();
        let records = fig6a(&config, 2006, 1).unwrap();
        assert_eq!(records.len(), 3 * config.grid.len());
        assert!(records.iter().all(|r| r.experiment == "fig6a"));
    }

    #[test]
    fn fig6a_preserves_the_paper_ordering() {
        // At every failure probability the tree loses more paths than XOR,
        // which loses at least as many as the hypercube — both analytically
        // and in simulation.
        let config = Fig6Config::smoke();
        let records = fig6a(&config, 2006, 1).unwrap();
        for &q in &config.grid {
            if q == 0.0 {
                continue;
            }
            let find = |name: &str| {
                records
                    .iter()
                    .find(|r| r.geometry == name && r.failure_probability == q)
                    .unwrap()
            };
            let tree = find("tree");
            let cube = find("hypercube");
            let xor = find("xor");
            if let (Some(t), Some(x), Some(c)) = (
                tree.analytical_failed_percent,
                xor.analytical_failed_percent,
                cube.analytical_failed_percent,
            ) {
                assert!(t >= x - 1e-9, "q={q}: tree {t} vs xor {x}");
                assert!(x >= c - 1e-9, "q={q}: xor {x} vs hypercube {c}");
            }
            if let (Some(t), Some(x)) =
                (tree.simulated_failed_percent, xor.simulated_failed_percent)
            {
                assert!(t >= x - 5.0, "q={q}: simulated tree {t} vs xor {x}");
            }
        }
    }

    #[test]
    fn fig6a_analysis_matches_simulation_at_moderate_failure() {
        // The headline claim of Fig. 6(a): the analytical curves fit the
        // simulation. At the smoke scale we allow a few percentage points of
        // finite-size and sampling error.
        let mut config = Fig6Config::smoke();
        config.simulation_bits = 12;
        config.analytical_bits = 12;
        config.grid = vec![0.1, 0.3, 0.5];
        config.pairs = 5_000;
        let records = fig6a(&config, 2006, 1).unwrap();
        for record in &records {
            let (Some(analytic), Some(simulated)) = (
                record.analytical_failed_percent,
                record.simulated_failed_percent,
            ) else {
                continue;
            };
            let tolerance = 8.0 + 12.0 * record.failure_probability;
            assert!(
                (analytic - simulated).abs() < tolerance,
                "{} at q={}: analytic {analytic} vs simulated {simulated}",
                record.geometry,
                record.failure_probability
            );
        }
    }

    #[test]
    fn fig6b_analytical_upper_bounds_the_simulation() {
        // §4.3.3 / Fig. 6(b): the ring analysis over-estimates failed paths
        // because suboptimal progress is ignored.
        let mut config = Fig6Config::smoke();
        config.simulation_bits = 12;
        config.analytical_bits = 12;
        config.grid = vec![0.1, 0.2, 0.3, 0.5];
        config.pairs = 5_000;
        let records = fig6b(&config, 2006, 1).unwrap();
        for record in &records {
            let (Some(analytic), Some(simulated)) = (
                record.analytical_failed_percent,
                record.simulated_failed_percent,
            ) else {
                continue;
            };
            assert!(
                analytic >= simulated - 2.0,
                "ring at q={}: analytic {analytic} should upper-bound simulated {simulated}",
                record.failure_probability
            );
        }
    }
}
