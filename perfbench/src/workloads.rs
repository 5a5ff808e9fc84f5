//! The three workloads and the inputs they are generated from.
//!
//! Every input is a pure function of the workload seed: the spec workloads
//! put it in the spec's `seed`, and serve_mix draws its query sequence from
//! it. The program receives only the generated inputs (spec files and
//! request lines written to the run's work directory).

use dht_experiments::spec::{Backend, ExecutionSpec, ExperimentSpec, ScenarioSpec};
use dht_scenario::{Query, Request, RequestEnvelope};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;

/// The seed the pinned report digests belong to.
pub const DEFAULT_SEED: u64 = 2006;

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `ImplicitScale` spec through `run_directory`: ring, implicit
    /// backend, 2^26 and 2^28 nodes, q = 0.1. Set-up dominates.
    ScaleSweep,
    /// One `StaticResilience` spec through `run_directory`: xor,
    /// materialized backend, 2^20 nodes, grid {0.1, 0.3, 0.5}. The batched
    /// routing kernel dominates.
    RouteHeavy,
    /// A closed loop with one client sending seeded `Query` lines to
    /// `ReportServer::handle_line`. The server's caches dominate.
    ServeMix,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::ScaleSweep,
        Workload::RouteHeavy,
        Workload::ServeMix,
    ];

    /// The command-line name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScaleSweep => "scale_sweep",
            Workload::RouteHeavy => "route_heavy",
            Workload::ServeMix => "serve_mix",
        }
    }

    /// Parses a command-line name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How big the generated inputs are. The benchmark always runs
/// [`Size::Full`]; the self-tests run the same code paths at
/// [`Size::Small`] so that they finish in a debug build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's workloads.
    Full,
    /// Debug-build-sized twins for the self-tests.
    Small,
}

/// Whether the measurement budgets are the workload's own or all 1 (the
/// `setup_s` twin: everything that does not scale with the pair budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Budget {
    /// The workload's pair budgets.
    Full,
    /// Every pair budget set to 1.
    One,
}

impl Budget {
    fn pairs(self, full: u64) -> u64 {
        match self {
            Budget::Full => full,
            Budget::One => 1,
        }
    }
}

/// The spec a spec workload runs (`None` for serve_mix).
#[must_use]
pub fn spec(
    workload: Workload,
    size: Size,
    seed: u64,
    budget: Budget,
    threads: usize,
) -> Option<ScenarioSpec> {
    let small = size == Size::Small;
    let (experiment, backend) = match workload {
        Workload::ScaleSweep => (
            ExperimentSpec::ImplicitScale {
                geometry: "ring".to_owned(),
                bits_list: if small { vec![12, 14] } else { vec![26, 28] },
                failure_probability: 0.1,
                pairs: budget.pairs(if small { 2_000 } else { 100_000 }),
            },
            Backend::Implicit,
        ),
        Workload::RouteHeavy => (
            ExperimentSpec::StaticResilience {
                geometry: "xor".to_owned(),
                bits: if small { 10 } else { 20 },
                grid: vec![0.1, 0.3, 0.5],
                pairs: budget.pairs(if small { 5_000 } else { 1_000_000 }),
                trials: 1,
            },
            Backend::Materialized,
        ),
        Workload::ServeMix => return None,
    };
    let mut spec = ScenarioSpec::new(workload.name(), seed, experiment);
    spec.execution = Some(ExecutionSpec { threads, backend });
    Some(spec)
}

/// Geometries serve_mix draws from.
pub const GEOMETRIES: [&str; 5] = ["ring", "xor", "tree", "hypercube", "symphony"];

/// The serve_mix request sequence and what the server's counters must read
/// after it.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeMix {
    /// Queries in sending order.
    pub queries: Vec<Query>,
    /// For a repeated query, the index of its first occurrence.
    pub repeat_of: Vec<Option<usize>>,
    /// Predicted report-memo hits (the repeats).
    pub report_hits: u64,
    /// Predicted report-memo misses (distinct queries).
    pub report_misses: u64,
    /// Predicted overlay builds (distinct geometry and size pairs).
    pub overlay_builds: u64,
    /// Predicted overlay-cache hits.
    pub overlay_hits: u64,
}

impl ServeMix {
    /// The request lines, ids from 1.
    #[must_use]
    pub fn lines(&self) -> Vec<String> {
        self.queries
            .iter()
            .enumerate()
            .map(|(index, query)| {
                serde_json::to_string(&RequestEnvelope {
                    id: index as u64 + 1,
                    request: Request::Query {
                        query: query.clone(),
                    },
                })
                .expect("request serialization is infallible")
            })
            .collect()
    }
}

fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..=i);
        items.swap(i, j);
    }
}

/// Generates the serve_mix sequence for `seed`.
///
/// The distinct queries cover every geometry × q cell twice (5 × 19 × 2 at
/// full size, q on the Fig. 6 grid 0–0.9 in steps of 0.05), each time at
/// another size drawn by the seed from 2^10–2^16. Covering every cell the
/// same number of times keeps the total work the same for every seed —
/// the per-miss cost depends mostly on geometry and q (xor at high q is
/// the expensive case) — while the seed still changes the sizes, the
/// order, the repeats, and every overlay, mask and pair stream (the
/// queries carry the workload seed). The other 810 of the 1000 requests
/// repeat an earlier query, so the median request is a report-memo hit
/// well inside the hits (they end at the 81st percentile) and the p99
/// request is one of the slowest misses.
#[must_use]
pub fn serve_mix(size: Size, seed: u64, budget: Budget) -> ServeMix {
    let (bits, q_steps, pairs, repeats): (Vec<u32>, Vec<u32>, u64, usize) = match size {
        Size::Full => ((10..=16).collect(), (0..=18).collect(), 20_000, 810),
        Size::Small => (vec![6, 7], vec![0, 4, 8, 12], 200, 20),
    };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut cells = Vec::new();
    for geometry in GEOMETRIES {
        for &step in &q_steps {
            let first = rng.gen_range(0..bits.len());
            let second = (first + rng.gen_range(1..bits.len())) % bits.len();
            for index in [first, second] {
                cells.push((geometry, bits[index], f64::from(step) / 20.0));
            }
        }
    }
    shuffle(&mut cells, &mut rng);
    let mut is_repeat: Vec<bool> = (0..cells.len() + repeats)
        .map(|i| i >= cells.len())
        .collect();
    shuffle(&mut is_repeat, &mut rng);
    if let Some(first_miss) = is_repeat.iter().position(|&repeat| !repeat) {
        is_repeat.swap(0, first_miss);
    }

    let mut queries: Vec<Query> = Vec::with_capacity(is_repeat.len());
    let mut repeat_of = Vec::with_capacity(is_repeat.len());
    let mut originals: Vec<usize> = Vec::new();
    let mut next_cell = cells.into_iter();
    for repeat in is_repeat {
        if repeat {
            let original = originals[rng.gen_range(0..originals.len())];
            queries.push(queries[original].clone());
            repeat_of.push(Some(original));
        } else {
            let (geometry, bits, q) = next_cell.next().expect("one cell per miss");
            originals.push(queries.len());
            queries.push(Query {
                geometry: geometry.to_owned(),
                bits,
                failure_probability: q,
                pairs: Some(budget.pairs(pairs)),
                trials: Some(1),
                seed: Some(seed),
                backend: None,
            });
            repeat_of.push(None);
        }
    }
    let overlays: BTreeSet<(&str, u32)> = queries
        .iter()
        .map(|query| (query.geometry.as_str(), query.bits))
        .collect();
    let report_misses = originals.len() as u64;
    let overlay_builds = overlays.len() as u64;
    ServeMix {
        report_hits: repeats as u64,
        report_misses,
        overlay_builds,
        overlay_hits: report_misses - overlay_builds,
        queries,
        repeat_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_mix_is_a_pure_function_of_the_seed() {
        let a = serve_mix(Size::Full, DEFAULT_SEED, Budget::Full);
        assert_eq!(a, serve_mix(Size::Full, DEFAULT_SEED, Budget::Full));
        let b = serve_mix(Size::Full, DEFAULT_SEED + 1, Budget::Full);
        assert_ne!(a.lines(), b.lines());
        // The pairs=1 twin sends the same questions in the same order.
        let one = serve_mix(Size::Full, DEFAULT_SEED, Budget::One);
        assert_eq!(one.repeat_of, a.repeat_of);
        for (full, one) in a.queries.iter().zip(&one.queries) {
            assert_eq!((full.pairs, one.pairs), (Some(20_000), Some(1)));
            assert_eq!(
                (&full.geometry, full.bits, full.failure_probability),
                (&one.geometry, one.bits, one.failure_probability)
            );
        }
    }

    #[test]
    fn serve_mix_predicts_its_hits_and_misses() {
        for seed in [DEFAULT_SEED, 1, 99] {
            let mix = serve_mix(Size::Full, seed, Budget::Full);
            assert_eq!(mix.queries.len(), 1000);
            assert_eq!((mix.report_hits, mix.report_misses), (810, 190));
            let sizes: BTreeSet<(&str, u32)> = mix
                .queries
                .iter()
                .map(|query| (query.geometry.as_str(), query.bits))
                .collect();
            assert_eq!(mix.overlay_builds, sizes.len() as u64);
            assert_eq!(mix.overlay_hits, 190 - mix.overlay_builds);
            assert_eq!(mix.repeat_of[0], None, "the first request cannot hit");
            let mut seen = BTreeSet::new();
            for (index, query) in mix.queries.iter().enumerate() {
                let key = query.to_spec().content_hash();
                match mix.repeat_of[index] {
                    Some(original) => {
                        assert!(original < index);
                        assert_eq!(mix.queries[original], *query);
                        assert!(seen.contains(&key));
                    }
                    None => assert!(seen.insert(key), "distinct cells hash apart"),
                }
            }
            let q_values: BTreeSet<u64> = mix
                .queries
                .iter()
                .map(|query| query.failure_probability.to_bits())
                .collect();
            assert_eq!(q_values.len(), 19);
        }
    }

    #[test]
    fn spec_inputs_change_with_the_seed() {
        for workload in [Workload::ScaleSweep, Workload::RouteHeavy] {
            let a = spec(workload, Size::Full, DEFAULT_SEED, Budget::Full, 2).unwrap();
            let b = spec(workload, Size::Full, 7, Budget::Full, 2).unwrap();
            assert_ne!(a.content_hash(), b.content_hash());
            let one = spec(workload, Size::Full, DEFAULT_SEED, Budget::One, 2).unwrap();
            assert_ne!(a.content_hash(), one.content_hash());
            assert_eq!(Workload::from_name(workload.name()), Some(workload));
        }
        assert!(spec(Workload::ServeMix, Size::Full, 1, Budget::Full, 2).is_none());
    }
}
