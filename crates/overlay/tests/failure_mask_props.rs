//! Property tests: the packed-bitset [`FailureMask`] must be
//! behaviour-identical to the seed's `Vec<bool>` semantics.
//!
//! `Model` below is a faithful transcription of the seed implementation
//! (one `bool` per identifier, unoccupied identifiers pre-marked failed,
//! counts occupied-relative, same RNG consumption in `sample_over`). The
//! properties drive both representations through the same constructions and
//! mutations and assert every observable agrees: per-identifier reads,
//! counts, the ascending alive iterator, and the popcount rank/select pair
//! the bitset adds. The `*_draw_the_sequential_stream` properties pin the
//! chunked, multi-threaded fill to the model's single `gen_bool` loop: same
//! mask and same generator state afterwards, from unaligned stream offsets,
//! at the `q` edges of the 53-bit threshold, over full and sparse
//! populations large enough to split into several chunks.

use dht_id::{KeySpace, NodeId, Population};
use dht_overlay::{select_in_word, FailureMask};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The seed's `Vec<bool>` failure mask, transcribed.
struct Model {
    space: KeySpace,
    failed: Vec<bool>,
    failed_count: u64,
    population_size: u64,
}

impl Model {
    fn none(space: KeySpace) -> Self {
        Model {
            space,
            failed: vec![false; space.population() as usize],
            failed_count: 0,
            population_size: space.population(),
        }
    }

    fn none_over(population: &Population) -> Self {
        if population.is_full() {
            return Model::none(population.space());
        }
        let space = population.space();
        let mut failed = vec![true; space.population() as usize];
        for node in population.iter_nodes() {
            failed[node.value() as usize] = false;
        }
        Model {
            space,
            failed,
            failed_count: 0,
            population_size: population.node_count(),
        }
    }

    fn sample_over<R: Rng + ?Sized>(population: &Population, q: f64, rng: &mut R) -> Self {
        let mut model = Model::none_over(population);
        for node in population.iter_nodes() {
            if rng.gen_bool(q) {
                model.failed[node.value() as usize] = true;
                model.failed_count += 1;
            }
        }
        model
    }

    fn fail_node(&mut self, node: NodeId) {
        let _ = self.kill(node);
    }

    fn kill(&mut self, node: NodeId) -> bool {
        let slot = &mut self.failed[node.value() as usize];
        if !*slot {
            *slot = true;
            self.failed_count += 1;
            true
        } else {
            false
        }
    }

    fn set_alive(&mut self, node: NodeId) -> bool {
        let slot = &mut self.failed[node.value() as usize];
        if *slot {
            *slot = false;
            self.failed_count -= 1;
            true
        } else {
            false
        }
    }

    fn alive_count(&self) -> u64 {
        self.population_size - self.failed_count
    }

    fn alive_values(&self) -> Vec<u64> {
        self.failed
            .iter()
            .enumerate()
            .filter_map(|(value, &failed)| (!failed).then_some(value as u64))
            .collect()
    }
}

/// Asserts every observable of `mask` agrees with `model`.
fn assert_equivalent(model: &Model, mask: &FailureMask) -> Result<(), TestCaseError> {
    prop_assert_eq!(model.failed_count, mask.failed_count());
    prop_assert_eq!(model.alive_count(), mask.alive_count());
    prop_assert_eq!(model.population_size, mask.population_size());
    for node in model.space.iter_ids() {
        prop_assert_eq!(
            model.failed[node.value() as usize],
            mask.is_failed(node),
            "is_failed diverges at {}",
            node
        );
    }
    let alive: Vec<u64> = mask.alive_nodes().map(|n| n.value()).collect();
    prop_assert_eq!(model.alive_values(), alive.clone());

    // The bitset's rank/select pair must walk exactly the model's alive set.
    for (rank, &value) in alive.iter().enumerate() {
        let node = model.space.wrap(value);
        prop_assert_eq!(mask.alive_rank(node), Some(rank as u64));
        prop_assert_eq!(mask.select_alive(rank as u64), Some(node));
    }
    prop_assert_eq!(mask.select_alive(mask.alive_count()), None);

    // Word-level reads cover the space exactly once, in order.
    let mut from_words = Vec::new();
    for (index, word) in mask.alive_words() {
        for bit in 0..64u64 {
            if word & (1 << bit) != 0 {
                from_words.push(index as u64 * 64 + bit);
            }
        }
    }
    prop_assert_eq!(alive, from_words);
    Ok(())
}

/// The model's pattern as the bitset words a [`FailureMask`] stores.
fn model_words(model: &Model) -> Vec<u64> {
    let mut words = vec![0u64; model.failed.len().div_ceil(64)];
    for (value, &failed) in model.failed.iter().enumerate() {
        if !failed {
            words[value / 64] |= 1 << (value % 64);
        }
    }
    words
}

/// `2^-53`: the smallest non-zero `q` that can fail a node.
const TINY_Q: f64 = 1.0 / (1u64 << 53) as f64;

/// `q` at and next to the edges of the 53-bit threshold, or uniform.
fn edge_q() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0f64),
        Just(TINY_Q),
        0.0f64..1.0,
        Just(1.0 - TINY_Q),
        Just(1.0f64),
    ]
}

/// Identifier lengths below one word, up to a few words, and at 2^19–2^20
/// (8192–16384 words: two or more fill chunks on a multi-core machine).
fn fill_bits() -> impl Strategy<Value = u32> {
    prop_oneof![1u32..13, 19u32..21]
}

/// Samples `population` with the model's `gen_bool` loop and with
/// [`FailureMask::sample_over`] from the same generator, first discarding
/// `discard` words from both, and asserts the masks and the generators'
/// next draws agree.
fn assert_sampled_like_the_model(
    population: &Population,
    q: f64,
    seed: u64,
    discard: u32,
) -> Result<(), TestCaseError> {
    let mut model_rng = ChaCha8Rng::seed_from_u64(seed);
    for _ in 0..discard {
        model_rng.next_u32();
    }
    let mut mask_rng = model_rng.clone();
    let model = Model::sample_over(population, q, &mut model_rng);
    let mask = FailureMask::sample_over(population, q, &mut mask_rng);
    prop_assert_eq!(model.failed_count, mask.failed_count());
    prop_assert_eq!(model.population_size, mask.population_size());
    prop_assert!(model_words(&model) == mask.words(), "masks differ");
    prop_assert_eq!(model_rng.get_word_pos(), mask_rng.get_word_pos());
    prop_assert_eq!(model_rng.next_u64(), mask_rng.next_u64());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn full_masks_draw_the_sequential_stream(
        bits in fill_bits(),
        seed in 0u64..1 << 20,
        discard in 0u32..32,
        q in edge_q(),
    ) {
        let population = Population::full(KeySpace::new(bits).unwrap());
        assert_sampled_like_the_model(&population, q, seed, discard)?;
    }

    #[test]
    fn sparse_masks_draw_the_sequential_stream(
        bits in fill_bits(),
        occupancy_per_mille in 1u64..1000,
        seed in 0u64..1 << 20,
        discard in 0u32..32,
        q in edge_q(),
    ) {
        let space = KeySpace::new(bits.max(2)).unwrap();
        let occupied = (space.population() * occupancy_per_mille / 1000).max(2);
        let population = Population::sample_uniform(
            space,
            occupied,
            &mut ChaCha8Rng::seed_from_u64(seed ^ 0xBEEF),
        )
        .unwrap();
        assert_sampled_like_the_model(&population, q, seed, discard)?;
    }

    #[test]
    fn sampled_full_masks_match_the_seed_semantics(
        bits in 1u32..10,
        seed in 0u64..1 << 20,
        q in 0.0f64..1.0,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = Population::full(space);
        // Identical RNG consumption: the same seed must produce the same
        // pattern in both representations.
        let model = Model::sample_over(&population, q, &mut ChaCha8Rng::seed_from_u64(seed));
        let mask = FailureMask::sample(space, q, &mut ChaCha8Rng::seed_from_u64(seed));
        assert_equivalent(&model, &mask)?;
    }

    #[test]
    fn sampled_sparse_masks_match_the_seed_semantics(
        bits in 3u32..10,
        occupancy_percent in 10u64..100,
        seed in 0u64..1 << 20,
        q in 0.0f64..1.0,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let occupied = (space.population() * occupancy_percent / 100).max(2);
        let population = Population::sample_uniform(
            space,
            occupied,
            &mut ChaCha8Rng::seed_from_u64(seed ^ 0xBEEF),
        )
        .unwrap();
        let model = Model::sample_over(&population, q, &mut ChaCha8Rng::seed_from_u64(seed));
        let mask = FailureMask::sample_over(&population, q, &mut ChaCha8Rng::seed_from_u64(seed));
        assert_equivalent(&model, &mask)?;
    }

    #[test]
    fn targeted_mutations_match_the_seed_semantics(
        bits in 2u32..9,
        seed in 0u64..1 << 20,
        kills in 0usize..64,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = Population::sample_uniform(
            space,
            (space.population() / 2).max(2),
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
        .unwrap();
        let mut model = Model::none_over(&population);
        let mut mask = FailureMask::none_over(&population);
        // Fail arbitrary identifiers — occupied or not, repeated or not; the
        // unoccupied and duplicate cases must stay counted no-ops.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xF00D);
        for _ in 0..kills {
            let node = space.random_id(&mut rng);
            model.fail_node(node);
            mask.fail_node(node);
        }
        assert_equivalent(&model, &mask)?;
    }

    #[test]
    fn kill_and_set_alive_sequences_match_the_seed_semantics(
        bits in 2u32..9,
        seed in 0u64..1 << 20,
        flips in 1usize..128,
    ) {
        let space = KeySpace::new(bits).unwrap();
        let population = Population::sample_uniform(
            space,
            (space.population() / 2).max(2),
            &mut ChaCha8Rng::seed_from_u64(seed),
        )
        .unwrap();
        let mut model = Model::none_over(&population);
        let mut mask = FailureMask::none_over(&population);
        // Random churn over *occupied* identifiers (the `set_alive` caller
        // contract): kills and revivals interleave, repeats included, and
        // both representations must report the same flip outcome while the
        // popcount rank/select invariants keep holding.
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xD1CE);
        for _ in 0..flips {
            let rank = rng.gen_range(0..population.node_count());
            let node = population.node_at(rank);
            if rng.gen_bool(0.5) {
                prop_assert_eq!(model.kill(node), mask.kill(node));
            } else {
                prop_assert_eq!(model.set_alive(node), mask.set_alive(node));
            }
        }
        assert_equivalent(&model, &mask)?;
    }

    #[test]
    fn select_in_word_is_the_rank_inverse_on_random_words(word in 1u64..=u64::MAX) {
        let mut rank = 0u32;
        for bit in 0..64u32 {
            if word & (1u64 << bit) != 0 {
                prop_assert_eq!(select_in_word(word, rank), bit);
                rank += 1;
            }
        }
    }

    #[test]
    fn rank_indexed_probes_match_identifier_probes_on_full_masks(
        bits in 1u32..10,
        seed in 0u64..1 << 20,
        q in 0.0f64..1.0,
    ) {
        // The kernel's fast path: over a full population a node's occupied
        // rank is its identifier value, so `is_alive_rank(v)` must agree
        // with `is_alive(NodeId(v))` bit for bit.
        let space = KeySpace::new(bits).unwrap();
        let mask = FailureMask::sample(space, q, &mut ChaCha8Rng::seed_from_u64(seed));
        for node in space.iter_ids() {
            prop_assert_eq!(
                mask.is_alive_rank(node.value() as u32),
                mask.is_alive(node),
                "rank probe diverges at {}",
                node
            );
        }
    }
}
