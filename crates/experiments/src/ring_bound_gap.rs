//! Experiment E11 — how tight is the Chord lower bound?
//!
//! The ring analysis of §4.3.3 ignores the progress made by suboptimal hops
//! and therefore under-estimates routability. Fig. 6(b) shows the resulting
//! gap to simulation is negligible below `q ≈ 20%` and grows with `q`. This
//! harness measures that gap directly.

use crate::fig6::{fig6b, Fig6Config, Fig6Error};
use serde::{Deserialize, Serialize};

/// The bound gap at one failure probability.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BoundGapPoint {
    /// Failure probability.
    pub failure_probability: f64,
    /// Analytical failed-path percentage (the upper bound).
    pub analytical_failed_percent: f64,
    /// Simulated failed-path percentage.
    pub simulated_failed_percent: f64,
    /// Bound slack: analytical minus simulated (non-negative when the bound
    /// holds).
    pub slack: f64,
}

/// Measures the bound gap over the configured grid (`seed` and `threads` as
/// in [`fig6b`]).
///
/// # Errors
///
/// See [`fig6b`].
pub fn run(
    config: &Fig6Config,
    seed: u64,
    threads: usize,
) -> Result<Vec<BoundGapPoint>, Fig6Error> {
    let records = fig6b(config, seed, threads)?;
    Ok(records
        .into_iter()
        .filter_map(|record| {
            let analytical = record.analytical_failed_percent?;
            let simulated = record.simulated_failed_percent?;
            Some(BoundGapPoint {
                failure_probability: record.failure_probability,
                analytical_failed_percent: analytical,
                simulated_failed_percent: simulated,
                slack: analytical - simulated,
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_config() -> Fig6Config {
        let mut config = Fig6Config::smoke();
        config.simulation_bits = 12;
        config.analytical_bits = 12;
        config.grid = vec![0.1, 0.3, 0.5, 0.7];
        config.pairs = 4_000;
        config
    }

    #[test]
    fn the_bound_holds_everywhere() {
        let points = run(&test_config(), 2006, 1).unwrap();
        assert_eq!(points.len(), 4);
        for point in &points {
            assert!(
                point.slack > -2.0,
                "bound violated at q={}: slack {}",
                point.failure_probability,
                point.slack
            );
        }
    }

    #[test]
    fn the_bound_is_tight_at_low_failure_probability() {
        // Fig. 6(b): "very close to simulation ... for failure probability
        // less than 20%".
        let points = run(&test_config(), 2006, 1).unwrap();
        let low_q = points
            .iter()
            .find(|p| (p.failure_probability - 0.1).abs() < 1e-9)
            .unwrap();
        assert!(
            low_q.slack.abs() < 5.0,
            "slack at q=0.1 should be small, got {}",
            low_q.slack
        );
    }

    #[test]
    fn the_gap_grows_with_failure_probability() {
        let points = run(&test_config(), 2006, 1).unwrap();
        let slack_at = |q: f64| {
            points
                .iter()
                .find(|p| (p.failure_probability - q).abs() < 1e-9)
                .unwrap()
                .slack
        };
        assert!(slack_at(0.7) > slack_at(0.1) - 1.0);
    }
}
