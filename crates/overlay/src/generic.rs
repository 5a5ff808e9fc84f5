//! The generic overlay shared by all five routing geometries.

use crate::arena::RoutingArena;
use crate::failure::FailureMask;
use crate::kernel::{KernelRule, RoutingKernel};
use crate::traits::{validate_population, Overlay, OverlayError};
use dht_id::{NodeId, Population};
use rand::Rng;
use std::sync::{Arc, OnceLock};

/// One routing geometry: how tables are built and how the greedy hop is
/// chosen.
///
/// The five geometry modules of this crate each provide one implementation
/// (e.g. [`crate::chord::ChordStrategy`]); [`GeometryOverlay`] supplies
/// everything else — CSR storage, population handling, validation and the
/// [`Overlay`] plumbing — exactly once.
///
/// Every method except [`GeometryStrategy::validate`] is required, so a
/// strategy serves all three backends: the materialized overlay
/// ([`GeometryOverlay`], routed through its compiled
/// [`GeometryStrategy::kernel_rule`]), the implicit one
/// ([`crate::ImplicitOverlay`], via
/// [`GeometryStrategy::implicit_stream_words`]) and live churn
/// ([`crate::LiveOverlay`], via the three `live_*` hooks).
///
/// Strategies are `Send + Sync` (like [`Overlay`] itself): they are immutable
/// after construction and queried concurrently by batch routing drivers.
pub trait GeometryStrategy: Send + Sync {
    /// Short name of the routing geometry (matches the analytical crate),
    /// e.g. `"xor"`.
    fn geometry_name(&self) -> &'static str;

    /// Expected routing-table length per node, used to pre-size the arena.
    fn table_len_hint(&self, population: &Population) -> usize;

    /// Appends the routing-table entries of `node` to `table`, choosing
    /// targets among the occupied identifiers of `population`.
    ///
    /// For a full population implementations must reproduce the paper's
    /// construction (and its RNG stream) exactly; for a sparse one they remap
    /// each conceptual target onto the occupied set (successor, bucket
    /// sampling, …). Positional tables (tree levels, ring fingers) push the
    /// node itself as a placeholder for an unsatisfiable slot — `next_hop`
    /// implementations treat a self-entry as absent.
    fn build_table<R: Rng + ?Sized>(
        &self,
        population: &Population,
        node: NodeId,
        rng: &mut R,
        table: &mut Vec<NodeId>,
    );

    /// The geometry's greedy forwarding rule over the `neighbors` table of
    /// `current`, restricted to alive nodes.
    fn next_hop(
        &self,
        neighbors: &[NodeId],
        current: NodeId,
        target: NodeId,
        alive: &FailureMask,
    ) -> Option<NodeId>;

    /// Checks the strategy's own parameters against `population` before any
    /// table is built.
    ///
    /// Every backend ([`GeometryOverlay::over`],
    /// [`crate::ImplicitOverlay::over`] and [`crate::LiveOverlay::build`])
    /// calls this once, after its own identifier-space and population
    /// checks. The default accepts everything; geometries with free
    /// parameters (Symphony's connection counts) override it.
    ///
    /// # Errors
    ///
    /// [`OverlayError::InvalidParameter`] when the parameters cannot be
    /// honoured over `population`.
    fn validate(&self, population: &Population) -> Result<(), OverlayError> {
        let _ = population;
        Ok(())
    }

    /// The hop-key rule the compiled routing kernel lowers this geometry
    /// with.
    ///
    /// The rule's dispatch over its precomputed hop keys must reproduce
    /// [`GeometryStrategy::next_hop`] *exactly* — the kernel equivalence
    /// suite holds every geometry to bit-identical [`crate::RouteOutcome`]s.
    fn kernel_rule(&self) -> KernelRule;

    /// The exact number of 32-bit RNG words [`GeometryStrategy::build_table`]
    /// consumes per node over the full `population` — the contract the
    /// implicit backend ([`crate::ImplicitOverlay`]) is built on.
    ///
    /// During a materialized build every node's table is drawn from one
    /// shared sequential stream. When the per-node draw count is fixed, the
    /// stream offset of rank `r` is simply `r * words`, so any single row can
    /// be regenerated bit-identically by seeking a counter-mode RNG — no
    /// table ever needs to stay resident. The returned count asserts exactly
    /// that: *every* node consumes exactly `words` 32-bit words, in rank
    /// order, independent of what the draws produce. The cross-backend
    /// equivalence suite holds implementations to this bit-for-bit.
    ///
    /// Only called for full populations (the implicit backend rejects sparse
    /// ones first), where table construction never branches on occupancy.
    fn implicit_stream_words(&self, population: &Population) -> u64;

    /// The fixed per-node table width of the live construction family
    /// ([`crate::LiveOverlay`]).
    ///
    /// Live tables are fixed-width by contract (self-entries pad
    /// unsatisfiable slots) so [`crate::RoutingArena::rewrite_table`] and the
    /// kernel's in-place row repair never resize rows.
    fn live_table_width(&self, population: &Population) -> usize;

    /// Builds `node`'s live routing table against the current `alive` set,
    /// appending exactly [`GeometryStrategy::live_table_width`] entries.
    ///
    /// **Purity contract:** the table must be a pure function of
    /// `(population, node, node_seed, alive)`. All randomness comes from
    /// `node_seed` alone, and every random draw must be made *before* it is
    /// resolved against the alive set (membership-independent draws), so
    /// that repairing a node after any event sequence reproduces exactly the
    /// table a from-scratch rebuild would choose. Unsatisfiable slots push
    /// `node` itself as a placeholder. The `incremental_equivalence`
    /// property suite holds every geometry to entry-for-entry agreement with
    /// a from-scratch rebuild.
    fn build_live_table(
        &self,
        population: &Population,
        node: NodeId,
        node_seed: u64,
        alive: &FailureMask,
        table: &mut Vec<NodeId>,
    );

    /// Names the nodes whose tables may change when `node` (just revived,
    /// already marked alive in `alive`) joins the overlay.
    ///
    /// Two channels: `witnesses` collects alive nodes with the property that
    /// *every* table entry that should now point at `node` currently points
    /// at (or past) a witness — the repair engine dirties every owner of an
    /// in-edge to a witness. `direct` collects owners that must be recomputed
    /// unconditionally (e.g. hypercube neighbours, whose stale entries are
    /// self placeholders that no reverse edge records). Leaves need no
    /// candidates: the reverse index of the departed node's in-edges is
    /// complete by construction.
    fn live_repair_candidates(
        &self,
        population: &Population,
        node: NodeId,
        alive: &FailureMask,
        witnesses: &mut Vec<NodeId>,
        direct: &mut Vec<NodeId>,
    );
}

/// An executable overlay: a [`GeometryStrategy`] plus a [`Population`] plus
/// one [`RoutingArena`] holding every routing table.
///
/// The five public overlay types ([`crate::ChordOverlay`] etc.) are aliases
/// of this struct for one strategy each, with per-geometry constructors and
/// accessors; use them unless you are adding a new geometry.
///
/// # Example
///
/// ```rust
/// use dht_id::Population;
/// use dht_overlay::chord::ChordStrategy;
/// use dht_overlay::{ChordVariant, GeometryOverlay, Overlay};
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let space = dht_id::KeySpace::new(8)?;
/// let mut rng = ChaCha8Rng::seed_from_u64(1);
/// let overlay = GeometryOverlay::over(
///     Population::full(space),
///     ChordStrategy::new(ChordVariant::Randomized),
///     &mut rng,
/// )?;
/// assert_eq!(overlay.edge_count(), 256 * 8);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct GeometryOverlay<S> {
    /// Shared with the compiled kernel (which needs the rank tables for
    /// value↔rank mapping) instead of cloned into it — a sparse population's
    /// dense rank table is the size of the identifier space.
    population: Arc<Population>,
    strategy: S,
    arena: RoutingArena,
    /// Lazily compiled rank-space plan (see [`crate::kernel`]).
    kernel: OnceLock<RoutingKernel>,
}

impl<S: GeometryStrategy> GeometryOverlay<S> {
    /// Builds the overlay over the occupied identifiers of `population`,
    /// drawing any construction randomness from `rng`.
    ///
    /// # Errors
    ///
    /// Returns [`OverlayError::UnsupportedBits`] if the identifier space is
    /// unsupported (see [`crate::traits::MAX_OVERLAY_BITS`], the
    /// materialized ceiling; full populations beyond it can route through
    /// [`crate::ImplicitOverlay`] instead), or
    /// [`OverlayError::InvalidParameter`] if fewer than two identifiers are
    /// occupied or the strategy rejects its parameters
    /// ([`GeometryStrategy::validate`]).
    pub fn over<R: Rng + ?Sized>(
        population: Population,
        strategy: S,
        rng: &mut R,
    ) -> Result<Self, OverlayError> {
        validate_population(&population)?;
        strategy.validate(&population)?;
        let nodes = population.node_count() as usize;
        let mut arena =
            RoutingArena::with_capacity(nodes, nodes * strategy.table_len_hint(&population));
        let mut table = Vec::with_capacity(strategy.table_len_hint(&population));
        for node in population.iter_nodes() {
            table.clear();
            strategy.build_table(&population, node, rng, &mut table);
            arena.push_table(&table);
        }
        Ok(GeometryOverlay {
            population: Arc::new(population),
            strategy,
            arena,
            kernel: OnceLock::new(),
        })
    }

    /// The geometry strategy driving this overlay.
    #[must_use]
    pub fn strategy(&self) -> &S {
        &self.strategy
    }

    /// The CSR arena holding every routing table.
    #[must_use]
    pub fn arena(&self) -> &RoutingArena {
        &self.arena
    }

    /// The compiled rank-space routing kernel, lowered with the strategy's
    /// [`GeometryStrategy::kernel_rule`].
    ///
    /// Compilation is lazy (first call pays the O(edges) lowering) and
    /// cached, so overlays that are only built or routed scalar never spend
    /// the plan's memory. Thread-safe: concurrent first calls race on a
    /// [`OnceLock`] and agree on one plan.
    #[must_use]
    pub fn routing_kernel(&self) -> &RoutingKernel {
        self.kernel.get_or_init(|| {
            RoutingKernel::compile(
                self.strategy.kernel_rule(),
                &self.population,
                &self.arena,
                false,
            )
        })
    }
}

impl<S: GeometryStrategy> Overlay for GeometryOverlay<S> {
    fn geometry_name(&self) -> &'static str {
        self.strategy.geometry_name()
    }

    fn population(&self) -> &Population {
        &self.population
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        debug_assert_eq!(
            node.bits(),
            self.population.space().bits(),
            "node belongs to a different key space"
        );
        let node = self.population.space().wrap(node.value());
        match self.population.index_of(node) {
            Some(rank) => self.arena.neighbors(rank as usize),
            None => &[],
        }
    }

    fn next_hop(&self, current: NodeId, target: NodeId, alive: &FailureMask) -> Option<NodeId> {
        self.strategy
            .next_hop(self.neighbors(current), current, target, alive)
    }

    fn edge_count(&self) -> u64 {
        self.arena.entry_count()
    }

    fn kernel(&self) -> Option<&RoutingKernel> {
        Some(self.routing_kernel())
    }

    fn resident_bytes(&self) -> usize {
        self.arena.resident_bytes() + self.kernel.get().map_or(0, RoutingKernel::plan_bytes)
    }
}

/// An RNG for construction paths that must not consume randomness
/// (deterministic Chord fingers, the hypercube). Drawing from it panics, which
/// turns an accidental draw into a loud bug instead of a silent
/// reproducibility break.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct NoRandomness;

impl rand::RngCore for NoRandomness {
    fn next_u32(&mut self) -> u32 {
        panic!("deterministic overlay construction must not draw randomness");
    }

    fn next_u64(&mut self) -> u64 {
        panic!("deterministic overlay construction must not draw randomness");
    }

    fn fill_bytes(&mut self, _dest: &mut [u8]) {
        panic!("deterministic overlay construction must not draw randomness");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chord::ChordStrategy;
    use crate::ChordVariant;
    use dht_id::KeySpace;

    /// Deterministic fingers: `a + 2^{i-1}`, resolved to successors.
    fn fingers() -> ChordStrategy {
        ChordStrategy::new(ChordVariant::Deterministic)
    }

    fn space(bits: u32) -> KeySpace {
        KeySpace::new(bits).unwrap()
    }

    #[test]
    fn full_population_overlay_uses_the_arena() {
        let overlay =
            GeometryOverlay::over(Population::full(space(4)), fingers(), &mut NoRandomness)
                .unwrap();
        assert_eq!(overlay.node_count(), 16);
        assert_eq!(overlay.edge_count(), 16 * 4);
        assert_eq!(overlay.arena().entry_count(), 16 * 4);
        let s = overlay.key_space();
        let ids = |values: [u64; 4]| values.map(|v| s.wrap(v));
        assert_eq!(overlay.neighbors(s.wrap(3)), &ids([4, 5, 7, 11]));
        assert_eq!(overlay.neighbors(s.wrap(15)), &ids([0, 1, 3, 7]));
    }

    #[test]
    fn sparse_population_maps_ranks_and_returns_empty_for_unoccupied() {
        let s = space(6);
        let population = Population::sparse(s, [s.wrap(5), s.wrap(40), s.wrap(9)]).unwrap();
        let overlay = GeometryOverlay::over(population, fingers(), &mut NoRandomness).unwrap();
        assert_eq!(overlay.node_count(), 3);
        // Targets 6, 7, 9, 13, 21, 37 resolve to their occupied successors.
        let row = [9, 9, 9, 40, 40, 40].map(|v| s.wrap(v));
        assert_eq!(overlay.neighbors(s.wrap(5)), &row);
        // Targets 41, 42, 44, 48, 56, 8 wrap around the ring.
        let row = [5, 5, 5, 5, 5, 9].map(|v| s.wrap(v));
        assert_eq!(overlay.neighbors(s.wrap(40)), &row);
        assert_eq!(overlay.neighbors(s.wrap(7)), &[] as &[NodeId]);
    }

    #[test]
    fn too_small_populations_are_rejected() {
        let s = space(6);
        let one = Population::sparse(s, [s.wrap(1)]).unwrap();
        assert!(matches!(
            GeometryOverlay::over(one, fingers(), &mut NoRandomness),
            Err(OverlayError::InvalidParameter { .. })
        ));
    }

    /// Asserts the materialized accounting: the arena alone until the lazy
    /// kernel compiles, then the arena plus the compiled plan.
    fn assert_counts_arena_then_plan<S: GeometryStrategy>(overlay: &GeometryOverlay<S>) {
        let name = overlay.geometry_name();
        let arena = overlay.arena().resident_bytes();
        assert_eq!(overlay.resident_bytes(), arena, "{name} before compile");
        let plan = overlay
            .kernel()
            .expect("every geometry compiles")
            .plan_bytes();
        assert!(plan > 0, "{name} plan");
        assert_eq!(
            overlay.resident_bytes(),
            arena + plan,
            "{name} after compile"
        );
    }

    #[test]
    fn resident_bytes_count_the_arena_then_the_compiled_plan() {
        use crate::{
            CanOverlay, ChordOverlay, KademliaOverlay, LiveOverlay, PlaxtonOverlay, SymphonyOverlay,
        };
        use rand::SeedableRng;
        let rng = |seed| rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        assert_counts_arena_then_plan(
            &ChordOverlay::build(8, ChordVariant::Deterministic).unwrap(),
        );
        assert_counts_arena_then_plan(&KademliaOverlay::build(8, &mut rng(1)).unwrap());
        assert_counts_arena_then_plan(&PlaxtonOverlay::build(8, &mut rng(2)).unwrap());
        assert_counts_arena_then_plan(&CanOverlay::build(8).unwrap());
        assert_counts_arena_then_plan(&SymphonyOverlay::build(8, 2, 2, &mut rng(3)).unwrap());

        // The live overlay compiles eagerly and also keeps a reverse-edge
        // index: one list header per node and one `u32` rank per edge.
        let live = LiveOverlay::build(Population::full(space(8)), fingers(), 4).unwrap();
        let tables = live.arena().resident_bytes() + live.routing_kernel().plan_bytes();
        let index = live
            .resident_bytes()
            .checked_sub(tables)
            .expect("the live overlay counts its arena and plan");
        let nodes = live.node_count() as usize;
        let edges = live.edge_count() as usize;
        let least = nodes * std::mem::size_of::<Vec<u32>>() + edges * std::mem::size_of::<u32>();
        assert!(
            index >= least,
            "reverse index counted as {index} bytes, expected at least {least}"
        );
    }
}
