//! Experiment: **live churn** — the discrete-event simulator of
//! [`dht_sim::events`] driven over a session-time × lookup-rate grid, with
//! per-geometry delivery and hop curves, validated in the stationary regime
//! against the routing Markov chains of `dht-markov`.
//!
//! The paper's churn treatment is static: kill a Bernoulli(`q`) fraction,
//! measure, rebuild. This harness runs the *process* instead — alternating
//! up/down node sessions in continuous time with lookups arriving as
//! Poisson traffic — in two modes:
//!
//! * **frozen** (`repair = false`): routing tables stay at the all-alive
//!   build while the liveness mask moves. By renewal theory each node is
//!   offline with stationary probability `q* = E[D] / (E[L] + E[D])`, so
//!   after warmup the delivery ratio must match the *static* model at
//!   `q*` — the chain-predicted routability `r(N, q*)`. That closes the
//!   loop between the event simulator and the paper's analysis.
//! * **repair** (`repair = true`): every departure and return is
//!   delta-patched into the overlay (the incremental repair proven
//!   equivalent to rebuild in `dht-overlay`), which restores near-perfect
//!   delivery and measures what maintenance actually buys.

use dht_id::{KeySpace, Population};
use dht_markov::chains::{hypercube_chain, ring_chain, tree_chain, xor_chain};
use dht_markov::{ChainError, ChainFamily};
use dht_overlay::can::CanStrategy;
use dht_overlay::chord::ChordStrategy;
use dht_overlay::kademlia::KademliaStrategy;
use dht_overlay::plaxton::PlaxtonStrategy;
use dht_overlay::symphony::SymphonyStrategy;
use dht_overlay::{ChordVariant, GeometryStrategy, LiveOverlay};
use dht_rcm_core::RoutingGeometry;
use dht_sim::{
    LifetimeDistribution, LiveChurnConfig, LiveChurnExperiment, LiveChurnTally, SimError,
};
use serde::{Deserialize, Serialize};

/// One measured grid point: a geometry under one churn/traffic intensity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveChurnPoint {
    /// Geometry name (`ring`, `xor`, `tree`, `hypercube`, `symphony`).
    pub geometry: String,
    /// Identifier-space bits (the population is full, `N = 2^bits`).
    pub bits: u32,
    /// Mean node session time `E[L]`.
    pub mean_session_time: f64,
    /// Mean offline time `E[D]`.
    pub mean_downtime: f64,
    /// Poisson lookup arrival rate.
    pub lookup_rate: f64,
    /// Whether departures/returns repaired the overlay in place.
    pub repair: bool,
    /// Stationary offline fraction `q* = E[D] / (E[L] + E[D])`.
    pub stationary_failure_fraction: f64,
    /// Time-averaged offline fraction actually observed in the window.
    pub observed_dead_fraction: f64,
    /// Chain-predicted static routability `r(N, q*)` — the frozen-mode
    /// reference; `None` for geometries without a chain model here or in
    /// repair mode (where the static model does not apply).
    pub predicted_routability: Option<f64>,
    /// Delivered fraction of measured lookups.
    pub delivery_ratio: f64,
    /// Mean hop count over delivered lookups.
    pub mean_hops: f64,
    /// Lookups measured inside the window.
    pub attempted: u64,
    /// Total events processed (all replicas, warmup included).
    pub events: u64,
    /// Routing-table rows rewritten by incremental repair.
    pub repairs: u64,
}

/// The session-time × lookup-rate grid a [`run_grid`] call sweeps — also
/// the parameter block of the `LiveChurn` spec variant. The seed and the
/// thread budget come from the spec.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LiveChurnGridConfig {
    /// Identifier-space bits (full population).
    pub bits: u32,
    /// Mean session times `E[L]` to sweep.
    pub session_times: Vec<f64>,
    /// Poisson lookup rates to sweep.
    pub lookup_rates: Vec<f64>,
    /// Mean offline time `E[D]` (exponential downtime).
    pub mean_downtime: f64,
    /// Simulated horizon per replica.
    pub duration: f64,
    /// Measurement-window start.
    pub warmup: f64,
    /// Independent replicas per point.
    pub replicas: u32,
}

impl LiveChurnGridConfig {
    /// The CI-sized configuration: one point per axis, a small ring.
    #[must_use]
    pub fn smoke() -> Self {
        LiveChurnGridConfig {
            bits: 6,
            session_times: vec![2.0],
            lookup_rates: vec![150.0],
            mean_downtime: 0.5,
            duration: 12.0,
            warmup: 4.0,
            replicas: 2,
        }
    }

    /// The paper-scale configuration: `N = 2^10`, three churn intensities
    /// crossed with two traffic rates, longer horizon.
    #[must_use]
    pub fn paper_scale() -> Self {
        LiveChurnGridConfig {
            bits: 10,
            session_times: vec![1.0, 2.0, 4.0],
            lookup_rates: vec![100.0, 400.0],
            mean_downtime: 0.5,
            duration: 30.0,
            warmup: 10.0,
            replicas: 4,
        }
    }
}

/// The static routability `r(N, q)` predicted by the geometry's routing
/// Markov chain: `E[S] = Σ_h n(h)·p_chain(h, q)` over the per-distance
/// absorption probabilities, normalised by the expected survivor peers
/// `(1 − q)·N − 1` (Eq. 3 of the paper, with the chain solution in place
/// of the closed form).
///
/// Returns `None` for geometries without a chain model here (Symphony's
/// chain needs the `(k_n, k_s)` parameters and its own distance model).
///
/// # Errors
///
/// Returns [`ChainError`] if a chain cannot be built or solved.
pub fn chain_predicted_routability(
    geometry: &str,
    bits: u32,
    q: f64,
) -> Result<Option<f64>, ChainError> {
    chain_predicted_routability_with(geometry, bits, q, |family, h, hop_q| {
        let chain = match family {
            ChainFamily::Ring => ring_chain(h, hop_q)?,
            ChainFamily::Xor => xor_chain(h, hop_q)?,
            ChainFamily::Tree => tree_chain(h, hop_q)?,
            ChainFamily::Hypercube => hypercube_chain(h, hop_q)?,
        };
        chain.success_probability()
    })
}

/// [`chain_predicted_routability`] with the per-hop chain solve supplied by
/// the caller — the hook the report server uses to route solves through a
/// shared [`dht_markov::ChainCache`] instead of rebuilding chains per query.
///
/// `solve(family, h, q)` must return the chain success probability for `h`
/// hops at failure probability `q`; it is called once per hop distance of
/// the geometry.
///
/// # Errors
///
/// Propagates any [`ChainError`] returned by `solve`.
pub fn chain_predicted_routability_with<F>(
    geometry: &str,
    bits: u32,
    q: f64,
    mut solve: F,
) -> Result<Option<f64>, ChainError>
where
    F: FnMut(ChainFamily, u32, f64) -> Result<f64, ChainError>,
{
    let Some(family) = ChainFamily::from_geometry_name(geometry) else {
        return Ok(None);
    };
    let model = match family {
        ChainFamily::Ring => dht_rcm_core::Geometry::ring(),
        ChainFamily::Xor => dht_rcm_core::Geometry::xor(),
        ChainFamily::Tree => dht_rcm_core::Geometry::tree(),
        ChainFamily::Hypercube => dht_rcm_core::Geometry::hypercube(),
    };
    let survivors = (1.0 - q) * (1u64 << bits) as f64;
    if survivors <= 1.0 {
        return Ok(None);
    }
    let mut expected_reachable = 0.0;
    for h in 1..=model.max_distance(bits) {
        let ln_count = model.ln_nodes_at_distance(bits, h);
        if ln_count == f64::NEG_INFINITY {
            continue;
        }
        expected_reachable += ln_count.exp() * solve(family, h, q)?;
    }
    Ok(Some((expected_reachable / (survivors - 1.0)).min(1.0)))
}

/// Runs one grid point for one geometry, seeded with `seed`, on `threads`
/// workers (replicas are the unit of parallelism).
///
/// # Errors
///
/// Returns [`SimError::InvalidConfiguration`] if the grid parameters are
/// rejected by [`LiveChurnConfig`] or describe an unsupported key space.
pub fn run_point(
    grid: &LiveChurnGridConfig,
    geometry: &str,
    mean_session_time: f64,
    lookup_rate: f64,
    repair: bool,
    seed: u64,
    threads: usize,
) -> Result<LiveChurnPoint, SimError> {
    let space = KeySpace::new(grid.bits).map_err(|err| SimError::InvalidConfiguration {
        message: format!("invalid key space: {err}"),
    })?;
    let config = LiveChurnConfig::new(
        LifetimeDistribution::exponential(mean_session_time)?,
        LifetimeDistribution::exponential(grid.mean_downtime)?,
        grid.duration,
        lookup_rate,
    )?
    .with_warmup(grid.warmup)
    .with_repair(repair)
    .with_replicas(grid.replicas)
    .with_threads(threads)
    .with_seed(seed);
    let experiment = LiveChurnExperiment::new(config);
    let tally = match geometry {
        "ring" => run_strategy(
            &experiment,
            space,
            ChordStrategy::new(ChordVariant::Deterministic),
        ),
        "xor" => run_strategy(&experiment, space, KademliaStrategy),
        "tree" => run_strategy(&experiment, space, PlaxtonStrategy),
        "hypercube" => run_strategy(&experiment, space, CanStrategy),
        "symphony" => run_strategy(&experiment, space, SymphonyStrategy::new(2, 2)),
        other => {
            return Err(SimError::InvalidConfiguration {
                message: format!("unknown live-churn geometry {other}"),
            })
        }
    };
    let q_star = config.stationary_failure_fraction();
    let predicted = if repair {
        None
    } else {
        chain_predicted_routability(geometry, grid.bits, q_star).map_err(|err| {
            SimError::InvalidConfiguration {
                message: format!("chain prediction failed: {err}"),
            }
        })?
    };
    Ok(LiveChurnPoint {
        geometry: geometry.to_owned(),
        bits: grid.bits,
        mean_session_time,
        mean_downtime: grid.mean_downtime,
        lookup_rate,
        repair,
        stationary_failure_fraction: q_star,
        observed_dead_fraction: tally.dead_fraction(),
        predicted_routability: predicted,
        delivery_ratio: tally.delivery_ratio(),
        mean_hops: tally.hop_stats.mean(),
        attempted: tally.attempted,
        events: tally.events,
        repairs: tally.repairs,
    })
}

fn run_strategy<S: GeometryStrategy + Clone>(
    experiment: &LiveChurnExperiment,
    space: KeySpace,
    strategy: S,
) -> LiveChurnTally {
    experiment.run(move |master_seed| {
        LiveOverlay::build(Population::full(space), strategy.clone(), master_seed)
            .expect("all catalogue geometries support live churn")
    })
}

/// The five geometries swept by [`run_grid`].
pub const GEOMETRIES: [&str; 5] = ["ring", "xor", "tree", "hypercube", "symphony"];

/// Sweeps the full grid in both frozen and repair mode: for every session
/// time × lookup rate × geometry, one frozen point (with its chain
/// prediction) and one repaired point.
///
/// Grid point `k` (in sweep order) is seeded with child `k` of a
/// [`dht_sim::SeedSequence`] rooted at `seed` — the repository-wide
/// convention shared with [`dht_sim::sweep_failure_grid`], so per-point
/// streams are well-mixed and never correlate across adjacent points or
/// nearby root seeds.
///
/// # Errors
///
/// Returns [`SimError`] as in [`run_point`].
pub fn run_grid(
    grid: &LiveChurnGridConfig,
    seed: u64,
    threads: usize,
) -> Result<Vec<LiveChurnPoint>, SimError> {
    let seeds = dht_sim::SeedSequence::new(seed);
    let mut points = Vec::new();
    let mut point_index = 0u64;
    for &session_time in &grid.session_times {
        for &lookup_rate in &grid.lookup_rates {
            for geometry in GEOMETRIES {
                for repair in [false, true] {
                    points.push(run_point(
                        grid,
                        geometry,
                        session_time,
                        lookup_rate,
                        repair,
                        seeds.child(point_index),
                        threads,
                    )?);
                    point_index += 1;
                }
            }
        }
    }
    Ok(points)
}

/// Renders grid points as the fixed-width table `scenario exp` prints.
#[must_use]
pub fn render_live_churn_table(points: &[LiveChurnPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>6} {:>6} {:>7} {:>6} {:>9} {:>9} {:>9} {:>7}",
        "geometry",
        "bits",
        "E[L]",
        "rate",
        "repair",
        "q*",
        "predicted",
        "delivered",
        "hops",
        "repairs"
    );
    for point in points {
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>6.2} {:>6.0} {:>7} {:>6.3} {:>9} {:>9.4} {:>9.2} {:>7}",
            point.geometry,
            point.bits,
            point.mean_session_time,
            point.lookup_rate,
            point.repair,
            point.stationary_failure_fraction,
            point
                .predicted_routability
                .map_or_else(|| "-".to_owned(), |r| format!("{r:.4}")),
            point.delivery_ratio,
            point.mean_hops,
            point.repairs,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The steady-state validation scale: `N = 2^8`, `q* = 0.2`, enough
    /// traffic in the window for ±1% sampling error. Run with seed 17 on
    /// two threads.
    fn validation_grid() -> LiveChurnGridConfig {
        LiveChurnGridConfig {
            bits: 8,
            session_times: vec![2.0],
            lookup_rates: vec![600.0],
            mean_downtime: 0.5,
            duration: 26.0,
            warmup: 10.0,
            replicas: 2,
        }
    }

    #[test]
    fn frozen_steady_state_matches_the_chain_prediction() {
        // Satellite acceptance: the frozen-table live-churn delivery ratio
        // for the ring and XOR geometries must sit within tolerance of the
        // Markov-chain routability at q* = E[D]/(E[L]+E[D]) = 0.2.
        let grid = validation_grid();
        for geometry in ["ring", "xor"] {
            let point = run_point(&grid, geometry, 2.0, 600.0, false, 17, 2).unwrap();
            assert!(point.attempted > 5_000, "{geometry}: too few lookups");
            let predicted = point
                .predicted_routability
                .expect("ring and xor have chain models");
            assert!(
                (point.delivery_ratio - predicted).abs() < 0.10,
                "{geometry}: simulated delivery {:.4} vs chain prediction {:.4}",
                point.delivery_ratio,
                predicted
            );
            // The churn process itself must sit at its stationary point,
            // otherwise the comparison above is vacuous.
            assert!(
                (point.observed_dead_fraction - 0.2).abs() < 0.04,
                "{geometry}: dead fraction {:.4} far from q* = 0.2",
                point.observed_dead_fraction
            );
        }
    }

    #[test]
    fn repair_mode_restores_near_perfect_delivery() {
        let grid = validation_grid();
        let point = run_point(&grid, "ring", 2.0, 600.0, true, 17, 2).unwrap();
        assert!(point.repairs > 0, "repair mode must rewrite tables");
        assert!(
            point.delivery_ratio >= 0.999,
            "repaired ring delivery {:.5} below 0.999",
            point.delivery_ratio
        );
        assert!(point.predicted_routability.is_none());
    }

    #[test]
    fn smoke_grid_covers_every_geometry_in_both_modes() {
        let grid = LiveChurnGridConfig::smoke();
        let points = run_grid(&grid, 29, 2).unwrap();
        assert_eq!(
            points.len(),
            grid.session_times.len() * grid.lookup_rates.len() * GEOMETRIES.len() * 2
        );
        for geometry in GEOMETRIES {
            assert!(points.iter().any(|p| p.geometry == geometry && p.repair));
            assert!(points.iter().any(|p| p.geometry == geometry && !p.repair));
        }
        for point in &points {
            assert!(
                point.attempted > 0,
                "{}: no traffic measured",
                point.geometry
            );
            assert!((0.0..=1.0).contains(&point.delivery_ratio));
            if point.repair {
                assert!(point.repairs > 0, "{}: no repairs", point.geometry);
            } else {
                assert_eq!(point.repairs, 0, "{}: frozen mode repaired", point.geometry);
            }
        }
        // Repair never hurts delivery on the same grid point.
        for frozen in points.iter().filter(|p| !p.repair) {
            let repaired = points
                .iter()
                .find(|p| {
                    p.repair
                        && p.geometry == frozen.geometry
                        && p.mean_session_time == frozen.mean_session_time
                        && p.lookup_rate == frozen.lookup_rate
                })
                .unwrap();
            assert!(repaired.delivery_ratio + 0.02 >= frozen.delivery_ratio);
        }
        let table = render_live_churn_table(&points);
        assert!(table.contains("ring") && table.contains("hypercube"));
        let json = serde_json::to_string(&points).unwrap();
        let back: Vec<LiveChurnPoint> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, points);
    }

    #[test]
    fn chain_prediction_is_sane_and_bounded() {
        for geometry in ["ring", "xor", "tree", "hypercube"] {
            let r = chain_predicted_routability(geometry, 8, 0.2)
                .unwrap()
                .expect("chain model exists");
            assert!((0.0..=1.0).contains(&r), "{geometry}: r = {r}");
        }
        assert_eq!(
            chain_predicted_routability("symphony", 8, 0.2).unwrap(),
            None
        );
        // At q = 0 every chain predicts full routability.
        let perfect = chain_predicted_routability("ring", 8, 0.0)
            .unwrap()
            .unwrap();
        assert!((perfect - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_geometry_is_rejected() {
        let grid = LiveChurnGridConfig::smoke();
        assert!(run_point(&grid, "torus", 2.0, 50.0, false, 1, 2).is_err());
    }
}
