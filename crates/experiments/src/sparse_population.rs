//! Sparse-population static resilience: routability at `n < 2^d` occupied
//! identifiers.
//!
//! The paper (and its Fig. 6 simulations) assumes fully populated identifier
//! spaces. Deployed DHTs never are: a Chord or Kademlia network occupies a
//! vanishing fraction of its `2^d` identifiers and resolves routing-table
//! targets against the occupied set (successors, bucket members). This
//! experiment opens that axis: it measures static resilience on overlays
//! built over a sparse [`Population`] and — optionally — over the fully
//! populated space of the same identifier length, so the occupancy effect can
//! be separated from the failure effect.
//!
//! Two qualitative outcomes worth knowing before reading the numbers:
//!
//! * ring, XOR and tree tables resolve against the occupied set, so an
//!   *intact* sparse overlay of these geometries stays fully routable — the
//!   sparse curves start at 100% like the full ones;
//! * the hypercube has no resolution rule (a missing coordinate neighbour is
//!   simply absent), so its sparse routability collapses even at `q = 0` —
//!   occupancy is a failure mode of its own for that geometry.

use dht_id::{IdError, Population};
use dht_overlay::{CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay, Overlay, OverlayError};
use dht_sim::{sweep_failure_grid, SimError, StaticResilienceConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Configuration of the sparse-population resilience experiment — also the
/// parameter block of the `SparsePopulation` spec variant. The seed and the
/// thread budget come from the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsePopulationConfig {
    /// Identifier length `d` of the space.
    pub bits: u32,
    /// Number of occupied identifiers (`n <= 2^d`).
    pub occupied: u64,
    /// Also measure the fully populated overlay as a baseline.
    pub include_full_baseline: bool,
    /// Source/destination pairs sampled per grid point.
    pub pairs: u64,
    /// Failure-probability grid (fractions in `[0, 1)`).
    pub grid: Vec<f64>,
}

impl SparsePopulationConfig {
    /// The paper-scale configuration of the ROADMAP item: a `2^20` identifier
    /// space with `2^18` occupied nodes (25% occupancy), failure
    /// probabilities 0–50% in 10% steps.
    #[must_use]
    pub fn paper_scale() -> Self {
        SparsePopulationConfig {
            bits: 20,
            occupied: 1 << 18,
            include_full_baseline: false,
            pairs: 20_000,
            grid: dht_mathkit::percent_grid(50, 10),
        }
    }

    /// A reduced configuration for tests and CI (milliseconds, not minutes).
    #[must_use]
    pub fn smoke() -> Self {
        SparsePopulationConfig {
            bits: 10,
            occupied: 1 << 8,
            include_full_baseline: true,
            pairs: 1_500,
            grid: vec![0.0, 0.2, 0.4],
        }
    }
}

/// One measured point of the sparse-population experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SparsePopulationRecord {
    /// Geometry name (`"ring"`, `"xor"`, `"hypercube"`).
    pub geometry: String,
    /// Identifier length of the space.
    pub bits: u32,
    /// Occupied identifiers of this overlay.
    pub occupied: u64,
    /// Occupied fraction of the space.
    pub occupancy: f64,
    /// Failure probability of this grid point.
    pub failure_probability: f64,
    /// Measured routability among surviving occupied pairs.
    pub routability: f64,
    /// `100·(1 − routability)`, the Fig. 6 y-axis.
    pub failed_path_percent: f64,
    /// Mean hops over delivered messages.
    pub mean_hops: f64,
}

/// Errors from the sparse-population harness.
#[derive(Debug)]
pub enum SparsePopulationError {
    /// Sampling or validating the population failed.
    Id(IdError),
    /// Overlay construction failed.
    Overlay(OverlayError),
    /// Simulation failed.
    Sim(SimError),
}

impl std::fmt::Display for SparsePopulationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SparsePopulationError::Id(err) => write!(f, "population sampling failed: {err}"),
            SparsePopulationError::Overlay(err) => {
                write!(f, "overlay construction failed: {err}")
            }
            SparsePopulationError::Sim(err) => write!(f, "simulation failed: {err}"),
        }
    }
}

impl std::error::Error for SparsePopulationError {}

impl From<IdError> for SparsePopulationError {
    fn from(err: IdError) -> Self {
        SparsePopulationError::Id(err)
    }
}
impl From<OverlayError> for SparsePopulationError {
    fn from(err: OverlayError) -> Self {
        SparsePopulationError::Overlay(err)
    }
}
impl From<SimError> for SparsePopulationError {
    fn from(err: SimError) -> Self {
        SparsePopulationError::Sim(err)
    }
}

/// Runs the experiment: ring, XOR and hypercube overlays over the sparse
/// population (plus, optionally, the full baseline), swept across the failure
/// grid. `seed` drives population sampling, overlay construction, failure
/// patterns and pair sampling; `threads` is the worker budget per
/// measurement.
///
/// # Errors
///
/// Returns [`SparsePopulationError`] if the population cannot be sampled, an
/// overlay cannot be built, or a grid value is invalid.
pub fn sparse_population_resilience(
    config: &SparsePopulationConfig,
    seed: u64,
    threads: usize,
) -> Result<Vec<SparsePopulationRecord>, SparsePopulationError> {
    let space = dht_id::KeySpace::new(config.bits).map_err(SparsePopulationError::Id)?;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let sparse = Population::sample_uniform(space, config.occupied, &mut rng)?;

    let mut populations = vec![sparse];
    if config.include_full_baseline {
        populations.push(Population::full(space));
    }

    let base_config = StaticResilienceConfig::new(0.0)
        .map_err(SparsePopulationError::Sim)?
        .with_pairs(config.pairs)
        .with_seed(seed)
        .with_threads(threads);

    let mut records = Vec::new();
    for population in populations {
        let ring = ChordOverlay::build_over(
            population.clone(),
            ChordVariant::Deterministic,
            // The deterministic variant draws no randomness; reuse the master
            // stream for the geometries that do.
            &mut rng,
        )?;
        measure(&ring, &base_config, &config.grid, &mut records)?;
        let xor = KademliaOverlay::build_over(population.clone(), &mut rng)?;
        measure(&xor, &base_config, &config.grid, &mut records)?;
        let hypercube = CanOverlay::build_over(population)?;
        measure(&hypercube, &base_config, &config.grid, &mut records)?;
    }
    Ok(records)
}

fn measure<O>(
    overlay: &O,
    base_config: &StaticResilienceConfig,
    grid: &[f64],
    records: &mut Vec<SparsePopulationRecord>,
) -> Result<(), SparsePopulationError>
where
    O: Overlay + Sync,
{
    let points = sweep_failure_grid(overlay, base_config, grid)?;
    records.extend(points.into_iter().map(|point| SparsePopulationRecord {
        geometry: point.result.geometry.clone(),
        bits: point.result.bits,
        occupied: point.result.occupied_nodes,
        occupancy: overlay.population().occupancy(),
        failure_probability: point.failure_probability,
        routability: point.result.routability,
        failed_path_percent: point.result.failed_path_percent,
        mean_hops: point.result.mean_hops,
    }));
    Ok(())
}

/// Renders sparse-population records as a fixed-width text table.
#[must_use]
pub fn render_sparse_table(records: &[SparsePopulationRecord]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>9} {:>10} {:>6} {:>13} {:>10}",
        "geometry", "bits", "occupied", "occupancy", "q", "routability %", "mean hops"
    );
    for record in records {
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>9} {:>10.3} {:>6.2} {:>13.2} {:>10.2}",
            record.geometry,
            record.bits,
            record.occupied,
            record.occupancy,
            record.failure_probability,
            100.0 * record.routability,
            record.mean_hops,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_covers_both_occupancies_and_all_grid_points() {
        let config = SparsePopulationConfig::smoke();
        let records = sparse_population_resilience(&config, 2006, 1).unwrap();
        // 3 geometries × 2 populations × grid.
        assert_eq!(records.len(), 3 * 2 * config.grid.len());
        assert!(records.iter().any(|r| r.occupied == 256));
        assert!(records.iter().any(|r| r.occupied == 1024));
        let table = render_sparse_table(&records);
        assert!(table.contains("ring") && table.contains("hypercube"));
    }

    #[test]
    fn intact_sparse_ring_and_xor_stay_fully_routable() {
        let config = SparsePopulationConfig::smoke();
        let records = sparse_population_resilience(&config, 2006, 1).unwrap();
        for record in records
            .iter()
            .filter(|r| r.failure_probability == 0.0 && r.occupied == 256)
        {
            match record.geometry.as_str() {
                "ring" | "xor" => assert_eq!(
                    record.routability, 1.0,
                    "{} must stay routable when intact",
                    record.geometry
                ),
                "hypercube" => assert!(
                    record.routability < 0.9,
                    "a 25%-occupied hypercube loses coordinate neighbours, got {}",
                    record.routability
                ),
                other => panic!("unexpected geometry {other}"),
            }
        }
    }

    #[test]
    fn sparse_ring_routability_degrades_with_failure_like_the_full_ring() {
        let config = SparsePopulationConfig::smoke();
        let records = sparse_population_resilience(&config, 2006, 1).unwrap();
        let ring_sparse: Vec<&SparsePopulationRecord> = records
            .iter()
            .filter(|r| r.geometry == "ring" && r.occupied == 256)
            .collect();
        assert!(ring_sparse[0].routability >= ring_sparse[1].routability);
        assert!(ring_sparse[1].routability >= ring_sparse[2].routability);
        // The sparse ring routes in more hops than the full one (successor
        // chains replace exact fingers) but stays in the same resilience
        // regime at moderate failure.
        let full = records
            .iter()
            .find(|r| r.geometry == "ring" && r.occupied == 1024 && r.failure_probability == 0.2)
            .unwrap();
        let sparse = records
            .iter()
            .find(|r| r.geometry == "ring" && r.occupied == 256 && r.failure_probability == 0.2)
            .unwrap();
        assert!((full.routability - sparse.routability).abs() < 0.15);
    }

    #[test]
    fn paper_scale_experiment_runs_end_to_end_at_2_20_space_2_18_nodes() {
        // The acceptance-scale run, reduced to the ring geometry's grid end
        // points and a light pair budget so it stays test-suite friendly.
        let config = SparsePopulationConfig {
            bits: 20,
            occupied: 1 << 18,
            include_full_baseline: false,
            pairs: 300,
            grid: vec![0.0, 0.3],
        };
        let seed = 7;
        let space = dht_id::KeySpace::new(config.bits).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let population = Population::sample_uniform(space, config.occupied, &mut rng).unwrap();
        assert_eq!(population.node_count(), 1 << 18);
        let overlay =
            ChordOverlay::build_over(population, ChordVariant::Deterministic, &mut rng).unwrap();
        let base = StaticResilienceConfig::new(0.0)
            .unwrap()
            .with_pairs(config.pairs)
            .with_seed(seed)
            .with_threads(2);
        let points = sweep_failure_grid(&overlay, &base, &config.grid).unwrap();
        assert_eq!(points[0].result.occupied_nodes, 1 << 18);
        assert_eq!(points[0].result.routability, 1.0);
        assert!(points[1].result.routability > 0.5);
        assert_eq!(overlay.edge_count(), (1 << 18) * 20);
    }
}
