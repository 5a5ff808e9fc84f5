//! The sharded, deterministic trial engine behind every measured curve.
//!
//! Static-resilience and churn measurements reduce to the same hot loop:
//! sample a pair of surviving nodes, route greedily under a frozen
//! [`FailureMask`], tally the outcome — repeated millions of times. The seed
//! implementation materialised a pair vector and an outcome vector per trial
//! and split them across threads in chunks whose boundaries depended on the
//! thread count, so parallel runs were only *statistically* equivalent to
//! serial ones. [`TrialEngine`] replaces that with logical **shards**:
//!
//! * a trial's pair budget is cut into fixed-size shards
//!   ([`TrialEngine::pairs_per_shard`], independent of the thread count);
//! * shard `s` draws its pairs from its own ChaCha8 stream, derived from the
//!   trial's pair seed via [`SeedSequence`];
//! * worker threads (std scoped threads) each execute a contiguous range of
//!   shards, and the per-shard [`TrialTally`]s are merged **in shard order**.
//!
//! Because both the shard boundaries and the shard streams are functions of
//! the configuration alone, the merged tally is bit-identical for any thread
//! count — one thread or sixty-four. The loop itself performs no per-route
//! allocation: pairs are drawn by rank directly from the mask's bitset
//! ([`PairSampler`]), outcomes are folded into the shard's tally on the
//! spot, and each worker thread reuses one scratch allocation (its routing
//! frontier and pair buffer) across every shard it executes.
//!
//! When the overlay exposes a routing kernel — a compiled plan
//! ([`Overlay::kernel`]) or, beyond the materialized ceiling, generated rows
//! ([`Overlay::implicit_kernel`], [`dht_overlay::ImplicitOverlay`]) — shards
//! take the one **batched lockstep path**: the shard's whole pair budget is
//! drawn in one [`PairSampler::sample_values_into`] call (the identical RNG
//! stream as per-pair draws), routed through the kernel's `route_batch` with
//! up to a [`RouteBatch`] width of lookups in flight, and recorded in draw
//! order — so the batched engine's tallies are bit-identical to the
//! per-route engine's, which are bit-identical to the scalar path's, on
//! either backend. A worker routing generated rows also carries one
//! [`ImplicitRowCache`] in its scratch, so rows are regenerated per worker
//! and the engine's resident set stays mask + O(cache) bytes regardless of
//! the overlay size. Overlays with no kernel at all (third-party
//! [`Overlay`] implementations) route pair by pair through the scalar path.

use crate::pair_sampler::PairSampler;
use crate::rng::SeedSequence;
use dht_mathkit::stats::RunningStats;
use dht_overlay::{
    default_route_hop_limit, route_prevalidated, FailureMask, ImplicitKernel, ImplicitRowCache,
    KernelMask, Overlay, RouteBatch, RouteOutcome, RoutingKernel,
};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Default number of pairs per logical shard.
///
/// Small enough that typical budgets (10⁴–10⁷ pairs) split into more shards
/// than cores, large enough that a shard amortises its RNG setup. Changing
/// the shard size changes the sampled streams (it re-partitions the budget),
/// so it is a configuration input, not a tuning knob the engine may adjust
/// silently.
pub const DEFAULT_PAIRS_PER_SHARD: u64 = 4096;

/// Outcome counts of one batch of routed pairs.
///
/// Tallies are plain sums plus a mergeable [`RunningStats`] over delivered
/// hop counts, so per-shard tallies fold together associatively; the engine
/// always folds them in shard order, which keeps even the floating-point
/// fields deterministic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TrialTally {
    /// Pairs routed.
    pub attempted: u64,
    /// Pairs whose message reached the target.
    pub delivered: u64,
    /// Pairs dropped because no alive neighbour made progress.
    pub dropped: u64,
    /// Pairs that exceeded the hop limit (a protocol bug if strictly greedy).
    pub hop_limited: u64,
    /// Hop-count statistics over delivered messages.
    pub hop_stats: RunningStats,
    /// Largest observed hop count over delivered messages.
    pub max_hops: u32,
}

impl TrialTally {
    /// Folds `other` into this tally (the engine calls this in shard order).
    pub fn merge(&mut self, other: &TrialTally) {
        self.attempted += other.attempted;
        self.delivered += other.delivered;
        self.dropped += other.dropped;
        self.hop_limited += other.hop_limited;
        self.hop_stats.merge(&other.hop_stats);
        self.max_hops = self.max_hops.max(other.max_hops);
    }

    /// Records one route outcome.
    ///
    /// `SourceFailed` / `TargetFailed` cannot occur for pairs drawn among
    /// survivors and are counted as drops (with a debug assertion).
    pub fn record(&mut self, outcome: RouteOutcome) {
        self.attempted += 1;
        match outcome {
            RouteOutcome::Delivered { hops } => {
                self.delivered += 1;
                self.hop_stats.push(f64::from(hops));
                self.max_hops = self.max_hops.max(hops);
            }
            RouteOutcome::Dropped { .. } => self.dropped += 1,
            RouteOutcome::HopLimitExceeded { .. } => self.hop_limited += 1,
            RouteOutcome::SourceFailed | RouteOutcome::TargetFailed => {
                debug_assert!(false, "survivor pairs cannot have failed endpoints");
                self.dropped += 1;
            }
        }
    }

    /// Delivered fraction, 0 when nothing was attempted.
    #[must_use]
    pub fn routability(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.delivered as f64 / self.attempted as f64
        }
    }
}

/// A per-shard result the engine can fold in shard order — the seam that
/// lets [`TrialEngine::run_shards`] drive richer tallies (the campaign
/// engine's stuck-depth histograms) through the identical sharding scheme,
/// preserving the thread-count-invariance contract for every tally type.
pub(crate) trait ShardTally: Default + Clone + Send {
    /// Folds `other` into `self`; the engine always calls this in shard
    /// order.
    fn fold(&mut self, other: &Self);

    /// Records one route outcome (in draw order).
    fn record(&mut self, outcome: RouteOutcome);
}

impl ShardTally for TrialTally {
    fn fold(&mut self, other: &Self) {
        self.merge(other);
    }

    fn record(&mut self, outcome: RouteOutcome) {
        TrialTally::record(self, outcome);
    }
}

/// Routes a trial's pair budget across scoped worker threads, bit-identically
/// for any thread count.
///
/// See the [module docs](self) for the sharding scheme. The engine is shared
/// by [`crate::StaticResilienceExperiment`], [`crate::ChurnExperiment`] and
/// (transitively) [`crate::sweep_failure_grid`]; use it directly when driving
/// a custom failure model:
///
/// ```rust
/// use dht_overlay::{CanOverlay, FailureMask, Overlay};
/// use dht_sim::TrialEngine;
///
/// let overlay = CanOverlay::build(8)?;
/// let mask = FailureMask::none(overlay.key_space());
/// let engine = TrialEngine::new(4);
/// let tally = engine
///     .run_trial(&overlay, &mask, 10_000, 7)
///     .expect("two survivors exist");
/// assert_eq!(tally.attempted, 10_000);
/// assert_eq!(tally.routability(), 1.0);
/// // Thread count never changes the numbers:
/// assert_eq!(
///     Some(tally),
///     TrialEngine::new(1).run_trial(&overlay, &mask, 10_000, 7)
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialEngine {
    threads: usize,
    pairs_per_shard: u64,
}

impl TrialEngine {
    /// Creates an engine running on up to `threads` scoped worker threads
    /// (clamped to `1..=256`), with the default shard size.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        TrialEngine {
            threads: threads.clamp(1, 256),
            pairs_per_shard: DEFAULT_PAIRS_PER_SHARD,
        }
    }

    /// Overrides the logical shard size (clamped to at least 1).
    ///
    /// The shard size partitions the pair budget across RNG streams, so two
    /// runs only reproduce each other when it matches; thread count, by
    /// contrast, never affects results.
    #[must_use]
    pub fn with_pairs_per_shard(mut self, pairs_per_shard: u64) -> Self {
        self.pairs_per_shard = pairs_per_shard.max(1);
        self
    }

    /// Worker threads the engine will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Pairs per logical shard.
    #[must_use]
    pub fn pairs_per_shard(&self) -> u64 {
        self.pairs_per_shard
    }

    /// Routes `pairs` source/destination pairs among the survivors of `mask`
    /// and returns the merged tally, or `None` when fewer than two nodes
    /// survive. A zero budget is clamped to one pair (a trial that measures
    /// nothing has no routability estimate).
    ///
    /// All pair randomness derives from `pair_seed` via per-shard
    /// [`SeedSequence`] streams; the result is a pure function of
    /// `(overlay, mask, pairs, pair_seed, pairs_per_shard)`.
    ///
    /// When the overlay exposes a routing kernel ([`Overlay::kernel`] or
    /// [`Overlay::implicit_kernel`]) the pairs are routed through its
    /// **batched lockstep path**: the mask is lowered into rank space once
    /// (memoized per mask generation), its bitset words are resolved once for
    /// the whole trial, and each shard draws its full pair budget in one call
    /// and routes it with up to a frontier's width of lookups in flight
    /// ([`RoutingKernel::route_batch`] / [`ImplicitKernel::route_batch`]).
    /// Batched outcomes are bit-identical per pair to the per-route kernel
    /// path, which is bit-identical to the scalar path (the
    /// `kernel_equivalence`, `batch_equivalence` and `implicit_equivalence`
    /// suites prove it), and outcomes are recorded in draw order — so which
    /// path ran is not observable in the tally.
    pub fn run_trial<O>(
        &self,
        overlay: &O,
        mask: &FailureMask,
        pairs: u64,
        pair_seed: u64,
    ) -> Option<TrialTally>
    where
        O: Overlay + ?Sized,
    {
        self.run_routed(overlay, mask, pairs, pair_seed)
    }

    /// Routes a trial's sampled pairs and folds every outcome into a `T` —
    /// the body of [`TrialEngine::run_trial`] and
    /// [`TrialEngine::run_campaign_trial`], which differ only in the tally
    /// they record into. `None` when fewer than two nodes survive.
    pub(crate) fn run_routed<T, O>(
        &self,
        overlay: &O,
        mask: &FailureMask,
        pairs: u64,
        pair_seed: u64,
    ) -> Option<T>
    where
        T: ShardTally,
        O: Overlay + ?Sized,
    {
        let sampler = PairSampler::new(mask)?;
        // Batch-entry validation, hoisted: every pair the sampler yields
        // lives in the mask's key space, so the key-space checks the scalar
        // router would repeat per routed pair are paid once per trial here.
        let space = mask.key_space();
        assert_eq!(
            space.bits(),
            overlay.key_space().bits(),
            "mask is from a different key space than the overlay"
        );
        let hop_limit = default_route_hop_limit(overlay);
        let tally = if let Some(kernel) = ShardKernel::of(overlay) {
            let lowered = kernel.compile_mask(mask);
            // Resolve the mask representation to its bitset words once
            // per trial; shards route against the bare slice.
            let words = lowered.words();
            self.run_shards(
                pairs,
                pair_seed,
                BatchScratch::default,
                |budget, rng, tally: &mut T, scratch: &mut BatchScratch| {
                    scratch.route_shard(kernel, words, &sampler, budget, hop_limit, rng);
                    // Draw order, not retirement order: the tally's
                    // floating-point hop statistics must fold exactly as
                    // the per-route path folds them.
                    for &outcome in &scratch.outcomes {
                        tally.record(outcome);
                    }
                },
            )
        } else {
            self.run_shards(
                pairs,
                pair_seed,
                || (),
                |budget, rng, tally: &mut T, ()| {
                    for _ in 0..budget {
                        let (source, target) = sampler.sample_values(rng);
                        tally.record(route_prevalidated(
                            overlay,
                            space.wrap(source),
                            space.wrap(target),
                            mask,
                            hop_limit,
                        ));
                    }
                },
            )
        };
        Some(tally)
    }

    /// Runs the sharded pair budget, calling `run_shard_body` once per shard
    /// with the shard's budget, RNG, tally and the worker's reusable scratch,
    /// and merges the per-shard tallies in shard order (the
    /// thread-count-invariance contract lives here).
    ///
    /// `make_scratch` runs once per worker thread — a shard body that batches
    /// its routing reuses one frontier and pair buffer across every shard the
    /// worker executes. Scratch must not carry results between shards; the
    /// tally is the only output channel.
    ///
    /// Generic over the tally type so sibling engines (the campaign runner in
    /// [`crate::campaign`]) inherit the exact sharding scheme — same shard
    /// grid, same per-shard streams, same shard-order fold.
    pub(crate) fn run_shards<T, S, M, F>(
        &self,
        pairs: u64,
        pair_seed: u64,
        make_scratch: M,
        run_shard_body: F,
    ) -> T
    where
        T: ShardTally,
        M: Fn() -> S + Sync,
        F: Fn(u64, &mut ChaCha8Rng, &mut T, &mut S) + Sync,
    {
        let pairs = pairs.max(1);
        let shard_count = usize::try_from(pairs.div_ceil(self.pairs_per_shard))
            .expect("shard count fits in usize");
        let shard_seeds = SeedSequence::new(pair_seed);

        let run_shard = |shard: usize, scratch: &mut S| -> T {
            let mut rng = shard_seeds.child_rng(shard as u64);
            let budget = if shard + 1 == shard_count {
                pairs - self.pairs_per_shard * (shard_count as u64 - 1)
            } else {
                self.pairs_per_shard
            };
            let mut tally = T::default();
            run_shard_body(budget, &mut rng, &mut tally, scratch);
            tally
        };

        let threads = self.threads.min(shard_count);
        let mut merged = T::default();
        if threads <= 1 {
            let mut scratch = make_scratch();
            for shard in 0..shard_count {
                merged.fold(&run_shard(shard, &mut scratch));
            }
        } else {
            let mut tallies: Vec<T> = vec![T::default(); shard_count];
            let chunk = shard_count.div_ceil(threads);
            std::thread::scope(|scope| {
                for (worker, slots) in tallies.chunks_mut(chunk).enumerate() {
                    let run_shard = &run_shard;
                    let make_scratch = &make_scratch;
                    let base = worker * chunk;
                    scope.spawn(move || {
                        let mut scratch = make_scratch();
                        for (offset, slot) in slots.iter_mut().enumerate() {
                            *slot = run_shard(base + offset, &mut scratch);
                        }
                    });
                }
            });
            // Shard order, not completion order: keeps the floating-point
            // hop statistics identical for every thread count.
            for tally in &tallies {
                merged.fold(tally);
            }
        }
        merged
    }
}

/// An overlay's routing kernel, whichever backend serves its rows.
#[derive(Clone, Copy)]
enum ShardKernel<'o> {
    /// A compiled plan (materialized tables).
    Plan(&'o RoutingKernel),
    /// Rows regenerated on demand (the implicit backend).
    Generated(&'o ImplicitKernel),
}

impl<'o> ShardKernel<'o> {
    fn of<O: Overlay + ?Sized>(overlay: &'o O) -> Option<Self> {
        overlay
            .kernel()
            .map(ShardKernel::Plan)
            .or_else(|| overlay.implicit_kernel().map(ShardKernel::Generated))
    }

    fn compile_mask(self, mask: &FailureMask) -> KernelMask<'_> {
        match self {
            ShardKernel::Plan(kernel) => kernel.compile_mask(mask),
            ShardKernel::Generated(kernel) => kernel.compile_mask(mask),
        }
    }
}

/// Per-worker scratch of the batched kernel path: one routing frontier, one
/// pair buffer, one outcome buffer and — for generated rows — one row
/// cache, reused across every shard the worker executes: the engine's only
/// allocations after the first shard. Row regeneration state stays
/// worker-local, so the shared kernel never synchronises.
#[derive(Default)]
struct BatchScratch {
    batch: RouteBatch,
    /// Made on the worker's first shard over generated rows.
    cache: Option<ImplicitRowCache>,
    pairs: Vec<(u64, u64)>,
    /// The shard's outcomes in draw order after a
    /// [`BatchScratch::route_shard`] call; callers fold these into their
    /// tally of choice.
    outcomes: Vec<RouteOutcome>,
}

impl BatchScratch {
    /// Routes one shard through the batched lockstep path: draw the whole
    /// budget (the identical RNG stream as per-pair draws), route it with a
    /// full frontier, and leave the outcomes in `self.outcomes` in draw
    /// order for the caller to record.
    fn route_shard(
        &mut self,
        kernel: ShardKernel<'_>,
        alive_words: &[u64],
        sampler: &PairSampler<'_>,
        budget: u64,
        hop_limit: u32,
        rng: &mut ChaCha8Rng,
    ) {
        sampler.sample_values_into(budget, rng, &mut self.pairs);
        match kernel {
            ShardKernel::Plan(kernel) => kernel.route_batch(
                &mut self.batch,
                alive_words,
                &self.pairs,
                hop_limit,
                &mut self.outcomes,
            ),
            ShardKernel::Generated(kernel) => kernel.route_batch(
                &mut self.batch,
                self.cache.get_or_insert_with(|| kernel.row_cache()),
                alive_words,
                &self.pairs,
                hop_limit,
                &mut self.outcomes,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_id::KeySpace;
    use dht_overlay::{CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn intact_overlay_delivers_everything() {
        let overlay = CanOverlay::build(8).unwrap();
        let mask = FailureMask::none(overlay.key_space());
        let tally = TrialEngine::new(2)
            .run_trial(&overlay, &mask, 5_000, 3)
            .unwrap();
        assert_eq!(tally.attempted, 5_000);
        assert_eq!(tally.delivered, 5_000);
        assert_eq!(tally.dropped, 0);
        assert_eq!(tally.hop_limited, 0);
        assert_eq!(tally.routability(), 1.0);
        assert_eq!(tally.hop_stats.count(), 5_000);
        assert!(tally.max_hops <= 8);
    }

    #[test]
    fn results_are_invariant_under_thread_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let overlay = KademliaOverlay::build(9, &mut rng).unwrap();
        let mask = FailureMask::sample(overlay.key_space(), 0.3, &mut rng);
        let reference = TrialEngine::new(1).run_trial(&overlay, &mask, 10_000, 11);
        for threads in [2, 3, 4, 7, 16] {
            let tally = TrialEngine::new(threads).run_trial(&overlay, &mask, 10_000, 11);
            assert_eq!(reference, tally, "threads = {threads}");
        }
    }

    #[test]
    fn shard_size_is_part_of_the_configuration() {
        let overlay = ChordOverlay::build(8, ChordVariant::Deterministic).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mask = FailureMask::sample(overlay.key_space(), 0.2, &mut rng);
        let small = TrialEngine::new(2)
            .with_pairs_per_shard(128)
            .run_trial(&overlay, &mask, 2_000, 1)
            .unwrap();
        let large = TrialEngine::new(2)
            .with_pairs_per_shard(1 << 20)
            .run_trial(&overlay, &mask, 2_000, 1)
            .unwrap();
        assert_eq!(small.attempted, 2_000);
        assert_eq!(large.attempted, 2_000);
        // Different shard grids draw different streams — documented, loud.
        assert_ne!(small, large);
        // But each grid is itself thread-invariant.
        assert_eq!(
            Some(small),
            TrialEngine::new(7)
                .with_pairs_per_shard(128)
                .run_trial(&overlay, &mask, 2_000, 1)
        );
    }

    /// Hides an overlay's compiled kernel so the engine takes the scalar
    /// path: the two paths must tally identically.
    struct ScalarOnly<'o, O: Overlay + ?Sized>(&'o O);

    impl<O: Overlay + ?Sized> Overlay for ScalarOnly<'_, O> {
        fn geometry_name(&self) -> &'static str {
            self.0.geometry_name()
        }
        fn population(&self) -> &dht_id::Population {
            self.0.population()
        }
        fn neighbors(&self, node: dht_id::NodeId) -> &[dht_id::NodeId] {
            self.0.neighbors(node)
        }
        fn next_hop(
            &self,
            current: dht_id::NodeId,
            target: dht_id::NodeId,
            alive: &FailureMask,
        ) -> Option<dht_id::NodeId> {
            self.0.next_hop(current, target, alive)
        }
        // kernel() deliberately left at the default None.
    }

    /// The kernel arm now routes every shard through the lockstep batch, so
    /// this is the engine-level batched-vs-scalar equality contract: same
    /// pairs, same RNG streams, bit-identical tallies (including the
    /// order-sensitive floating-point hop statistics).
    #[test]
    fn kernel_path_tallies_identically_to_the_scalar_path() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let overlays: Vec<Box<dyn Overlay>> = vec![
            Box::new(ChordOverlay::build(9, ChordVariant::Deterministic).unwrap()),
            Box::new(KademliaOverlay::build(9, &mut rng).unwrap()),
            Box::new(CanOverlay::build(9).unwrap()),
        ];
        for overlay in &overlays {
            assert!(overlay.kernel().is_some(), "geometries compile kernels");
            let mask = FailureMask::sample(overlay.key_space(), 0.3, &mut rng);
            let engine = TrialEngine::new(3);
            let with_kernel = engine.run_trial(overlay.as_ref(), &mask, 8_000, 13);
            let scalar = engine.run_trial(&ScalarOnly(overlay.as_ref()), &mask, 8_000, 13);
            assert_eq!(
                with_kernel,
                scalar,
                "kernel and scalar paths diverge on {}",
                overlay.geometry_name()
            );
        }
    }

    /// The implicit arm must reproduce the materialized kernel arm exactly:
    /// same stream seed, same mask, same pair seed → bit-identical tallies
    /// (the backend is not observable in the numbers).
    #[test]
    fn implicit_path_tallies_identically_to_the_materialized_path() {
        use dht_overlay::{ImplicitOverlay, PlaxtonOverlay};

        let stream_seed = 41;
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mask = FailureMask::sample(KeySpace::new(10).unwrap(), 0.3, &mut rng);
        let engine = TrialEngine::new(3);

        let materialized =
            ChordOverlay::build_randomized(10, &mut ChaCha8Rng::seed_from_u64(stream_seed))
                .unwrap();
        let implicit = ImplicitOverlay::ring(10, ChordVariant::Randomized, stream_seed).unwrap();
        assert!(implicit.kernel().is_none() && implicit.implicit_kernel().is_some());
        assert_eq!(
            engine.run_trial(&materialized, &mask, 6_000, 23),
            engine.run_trial(&implicit, &mask, 6_000, 23),
        );

        let materialized =
            PlaxtonOverlay::build(10, &mut ChaCha8Rng::seed_from_u64(stream_seed)).unwrap();
        let implicit = ImplicitOverlay::tree(10, stream_seed).unwrap();
        assert_eq!(
            engine.run_trial(&materialized, &mask, 6_000, 23),
            engine.run_trial(&implicit, &mask, 6_000, 23),
        );
    }

    #[test]
    fn implicit_path_is_invariant_under_thread_count() {
        use dht_overlay::ImplicitOverlay;

        let overlay = ImplicitOverlay::xor(10, 29).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mask = FailureMask::sample(overlay.key_space(), 0.3, &mut rng);
        let reference = TrialEngine::new(1).run_trial(&overlay, &mask, 10_000, 11);
        for threads in [2, 5, 16] {
            assert_eq!(
                reference,
                TrialEngine::new(threads).run_trial(&overlay, &mask, 10_000, 11),
                "threads = {threads}"
            );
        }
    }

    #[test]
    fn too_few_survivors_yields_none() {
        let overlay = CanOverlay::build(4).unwrap();
        let space = overlay.key_space();
        let mask = FailureMask::from_failed_nodes(space, (1..16).map(|v| space.wrap(v)));
        assert!(TrialEngine::new(2)
            .run_trial(&overlay, &mask, 100, 0)
            .is_none());
    }

    #[test]
    fn partial_last_shard_is_exact() {
        let overlay = CanOverlay::build(6).unwrap();
        let mask = FailureMask::none(overlay.key_space());
        // 3 full shards of 100 plus a final shard of 1.
        let tally = TrialEngine::new(2)
            .with_pairs_per_shard(100)
            .run_trial(&overlay, &mask, 301, 5)
            .unwrap();
        assert_eq!(tally.attempted, 301);
    }

    #[test]
    fn tallies_merge_like_concatenation() {
        let mut a = TrialTally::default();
        let mut b = TrialTally::default();
        let space = KeySpace::new(4).unwrap();
        a.record(RouteOutcome::Delivered { hops: 3 });
        a.record(RouteOutcome::Dropped {
            hops: 1,
            stuck_at: space.wrap(2),
        });
        b.record(RouteOutcome::Delivered { hops: 7 });
        b.record(RouteOutcome::HopLimitExceeded { limit: 64 });
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.attempted, 4);
        assert_eq!(merged.delivered, 2);
        assert_eq!(merged.dropped, 1);
        assert_eq!(merged.hop_limited, 1);
        assert_eq!(merged.max_hops, 7);
        assert_eq!(merged.hop_stats.count(), 2);
        assert!((merged.hop_stats.mean() - 5.0).abs() < 1e-12);
        assert!((merged.routability() - 0.5).abs() < 1e-12);
    }
}
