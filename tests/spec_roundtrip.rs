//! Property tests of the scenario-spec front door: serde round-trips and
//! content-hash stability.

use dht_rcm::experiments::fig6::Fig6Config;
use dht_rcm::experiments::sparse_population::SparsePopulationConfig;
use dht_rcm::experiments::spec::{
    Backend, ExecutionSpec, ExperimentSpec, ScenarioSpec, SPEC_SCHEMA,
};
use proptest::prelude::*;

/// A failure-probability grid of 1..=4 points (the vendored proptest has no
/// Vec strategy, so grids are carved from a fixed-width tuple).
fn any_grid() -> impl Strategy<Value = Vec<f64>> {
    (
        0.0f64..0.9,
        0.0f64..0.9,
        0.0f64..0.9,
        0.0f64..0.9,
        1usize..=4,
    )
        .prop_map(|(a, b, c, d, len)| [a, b, c, d][..len].to_vec())
}

fn any_experiment() -> impl Strategy<Value = ExperimentSpec> {
    prop_oneof![
        (0.0f64..0.9, 1u64..100_000).prop_map(|(failure_probability, trials)| {
            ExperimentSpec::Fig3 {
                failure_probability,
                trials,
            }
        }),
        (4u32..20, 4u32..12, 1u64..10_000, any_grid()).prop_map(
            |(analytical_bits, simulation_bits, pairs, grid)| ExperimentSpec::Fig6a(Fig6Config {
                analytical_bits,
                simulation_bits,
                pairs,
                grid,
            })
        ),
        (any_grid(),).prop_map(
            |(failure_probabilities,)| ExperimentSpec::ScalabilityTable {
                failure_probabilities,
            }
        ),
        (4u32..16, 1u64..4_000, any_grid(), 0u32..2, 1u64..65_536).prop_map(
            |(bits, pairs, grid, baseline, occupied)| {
                ExperimentSpec::SparsePopulation(SparsePopulationConfig {
                    bits,
                    occupied,
                    include_full_baseline: baseline == 1,
                    pairs,
                    grid,
                })
            }
        ),
        (0usize..5, 4u32..16, any_grid(), 1u64..5_000, 1u32..4).prop_map(
            |(geometry, bits, grid, pairs, trials)| {
                const GEOMETRIES: [&str; 5] = ["ring", "xor", "tree", "hypercube", "symphony"];
                ExperimentSpec::StaticResilience {
                    geometry: GEOMETRIES[geometry].to_owned(),
                    bits,
                    grid,
                    pairs,
                    trials,
                }
            }
        ),
    ]
}

fn any_spec() -> impl Strategy<Value = ScenarioSpec> {
    (0u32..1_000, 0u64..u64::MAX, any_experiment(), 0usize..33).prop_map(
        |(label, seed, experiment, threads)| {
            let mut spec = ScenarioSpec::new(format!("spec-{label}"), seed, experiment);
            // Odd thread budgets ride the implicit backend, so the serde and
            // hash properties cover both variants of the execution block.
            spec.execution = (threads > 0).then_some(ExecutionSpec {
                threads,
                backend: if threads % 2 == 0 {
                    Backend::Materialized
                } else {
                    Backend::Implicit
                },
            });
            spec
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Any spec survives a JSON round-trip exactly, in both modes.
    #[test]
    fn spec_round_trips_through_json(spec in any_spec()) {
        let pretty = ScenarioSpec::from_json(&spec.to_json_pretty()).unwrap();
        prop_assert_eq!(&pretty, &spec);
        let compact = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        prop_assert_eq!(&compact, &spec);
    }

    /// The content hash survives a round-trip and ignores exactly the
    /// presentation fields: the name label and the execution block.
    #[test]
    fn content_hash_is_stable_and_ignores_presentation(spec in any_spec()) {
        let hash = spec.content_hash();
        let round_tripped = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        prop_assert_eq!(round_tripped.content_hash(), hash);

        let mut relabeled = spec.clone();
        relabeled.name = format!("{}-x", relabeled.name);
        relabeled.execution = Some(ExecutionSpec {
            threads: 61,
            backend: Backend::Implicit,
        });
        prop_assert_eq!(relabeled.content_hash(), hash);

        prop_assert_eq!(spec.content_hash_hex(), format!("{hash:016x}"));
        prop_assert_eq!(spec.schema.as_str(), SPEC_SCHEMA);
    }

    /// Hashing is field-order independent: feeding the serializer a spec
    /// whose JSON object keys come back in a different order (built by
    /// splicing the serialized text) yields the same hash.
    #[test]
    fn content_hash_survives_field_reordering(spec in any_spec()) {
        // Round-trip through compact JSON with the top-level keys reversed.
        let json = spec.to_json();
        prop_assume!(json.starts_with('{') && json.ends_with('}'));
        // Parse and re-emit via the generic Value path: from_json validates,
        // and parsing is order-insensitive, so a reordered document must
        // reach the same canonical hash.
        let reordered = reorder_top_level(&json);
        let parsed = ScenarioSpec::from_json(&reordered).unwrap();
        prop_assert_eq!(parsed.content_hash(), spec.content_hash());
    }
}

/// Reverses the order of the top-level `"key": value` entries of a compact
/// JSON object by splitting on top-level commas.
fn reorder_top_level(json: &str) -> String {
    let inner = &json[1..json.len() - 1];
    let mut depth = 0usize;
    let mut in_string = false;
    let mut escaped = false;
    let mut parts = Vec::new();
    let mut start = 0usize;
    for (index, ch) in inner.char_indices() {
        if escaped {
            escaped = false;
            continue;
        }
        match ch {
            '\\' if in_string => escaped = true,
            '"' => in_string = !in_string,
            '{' | '[' if !in_string => depth += 1,
            '}' | ']' if !in_string => depth -= 1,
            ',' if !in_string && depth == 0 => {
                parts.push(&inner[start..index]);
                start = index + 1;
            }
            _ => {}
        }
    }
    parts.push(&inner[start..]);
    parts.reverse();
    format!("{{{}}}", parts.join(","))
}
