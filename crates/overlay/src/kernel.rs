//! The rank-space routing kernel: one greedy route loop over two row
//! sources.
//!
//! Scalar routing ([`crate::route_with_limit`]) asks the overlay's
//! [`GeometryStrategy`](crate::generic::GeometryStrategy) for a greedy hop,
//! and every strategy answers the same way: linearly scan the full neighbour
//! table, recompute the geometry's distance metric for each entry, and probe
//! the failure mask through a per-identifier lookup. That is flexible — it is
//! the reference semantics — but it pays O(d) distance recomputations per hop
//! for work that is knowable at *build* time: a finger's clockwise advance
//! never changes, a bucket contact's position in the table *is* its XOR
//! bucket, a hypercube link always corrects the same bit.
//!
//! The kernel precomputes all of it, in **rank space** (nodes addressed by
//! their occupied rank, exactly like the [`crate::RoutingArena`]). One
//! lowering turns a routing-table row into packed 8-byte entries: the
//! neighbour's dense `u32` rank plus a per-geometry **hop key** — clockwise
//! advance for ring/Symphony (largest first), the contact's identifier for
//! Kademlia/Plaxton (at its bucket position), the flipped-bit weight for the
//! hypercube — laid out in greedy-preference order. Alive probes are direct
//! bit tests on the rank index ([`KernelMask::is_alive_rank`]).
//!
//! The two backends differ only in where a lowered row comes from:
//!
//! * **plan rows** — [`RoutingKernel`] lowers a built overlay's whole arena
//!   once into a fixed-stride or CSR plan and slices rows out of it
//!   (software-prefetching the next row in the lockstep pass);
//! * **generated rows** — [`ImplicitKernel`] regenerates a row from the
//!   construction stream on demand into the caller's [`ImplicitRowCache`].
//!
//! Everything else is written once, over a shared rank-space header: the
//! admission prelude (endpoint aliveness, then arrival), the per-rule `step`
//! on a lookup's **cursor** (the remaining clockwise distance for the ring
//! rule, the remaining XOR distance for the prefix and hypercube rules — zero
//! exactly on arrival), the `stuck_at` reconstruction, one scalar loop and
//! one lockstep [`RouteBatch`] pass ([`batch`]). The rule is matched once
//! per call, outside every loop, so each rule runs its own monomorphized
//! loop: the ring step is an expected-O(1) scan over advance-sorted entries,
//! the prefix steps a leading-zero dispatch plus a short alive-probe scan.
//!
//! The kernel's outcomes are **bit-identical** to the scalar path: every
//! [`RouteOutcome`] (including `Dropped { stuck_at }` and hop counts) matches
//! `route_with_limit` for all five geometries, full and sparse populations
//! alike, on both backends — proven by the `kernel_equivalence`,
//! `batch_equivalence` and `implicit_equivalence` proptest suites. That is
//! what lets `dht_sim`'s trial engine route through the kernel without
//! perturbing a single committed measurement.
//!
//! # Example
//!
//! ```rust
//! use dht_overlay::{default_route_hop_limit, route, ChordOverlay, ChordVariant};
//! use dht_overlay::{FailureMask, Overlay};
//!
//! let overlay = ChordOverlay::build(10, ChordVariant::Deterministic)?;
//! let kernel = overlay.kernel().expect("ring geometry compiles");
//! let space = overlay.key_space();
//! let mask = FailureMask::none(space);
//! let lowered = kernel.compile_mask(&mask);
//! let limit = default_route_hop_limit(&overlay);
//! let (a, b) = (space.wrap(3), space.wrap(900));
//! assert_eq!(
//!     kernel.route(&lowered, a, b, limit),
//!     route(&overlay, a, b, &mask),
//! );
//! # Ok::<(), dht_overlay::OverlayError>(())
//! ```

/// Binds `$R` to the [`Rule`] type of the [`KernelRule`] `$rule` and
/// evaluates `$body`: the one place a rule value selects a monomorphized
/// loop.
macro_rules! with_rule {
    ($rule:expr, $R:ident => $body:expr) => {
        match $rule {
            $crate::kernel::KernelRule::RingAdvance => {
                type $R = $crate::kernel::Ring;
                $body
            }
            $crate::kernel::KernelRule::PrefixXor => {
                type $R = $crate::kernel::Xor;
                $body
            }
            $crate::kernel::KernelRule::PrefixTree => {
                type $R = $crate::kernel::Tree;
                $body
            }
            $crate::kernel::KernelRule::HypercubeBit => {
                type $R = $crate::kernel::Cube;
                $body
            }
        }
    };
}

pub mod batch;
pub mod implicit;

use crate::arena::RoutingArena;
use crate::failure::FailureMask;
use crate::router::RouteOutcome;
use dht_id::{KeySpace, NodeId, Population};
use std::sync::{Arc, Mutex};

pub use batch::{RouteBatch, DEFAULT_BATCH_WIDTH};
pub use implicit::{ImplicitKernel, ImplicitOverlay, ImplicitRowCache};

/// Sentinel rank for an absent entry (the sparse self-placeholder of an empty
/// bucket or tree level).
const NO_ENTRY: u32 = u32::MAX;

/// Which hop key a geometry precomputes per entry, and which dispatch rule
/// the kernel's next-hop uses over it.
///
/// Each [`GeometryStrategy`](crate::generic::GeometryStrategy) exports its
/// rule through `kernel_rule`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelRule {
    /// Greedy non-overshooting ring forwarding (Chord, Symphony). Hop key:
    /// the entry's clockwise advance from its owner, stored largest first
    /// (greedy-preference order). Dispatch: scan forward, skipping
    /// overshoots (advance greater than the remaining clockwise distance)
    /// and dead probes in one walk — expected O(1) probes per hop.
    RingAdvance,
    /// Prefix forwarding with XOR fallback (Kademlia). Hop key: the contact's
    /// raw identifier value, stored at its bucket position. Dispatch:
    /// leading-zero dispatch to the bucket of the highest differing bit
    /// (whose contact, when alive, is provably the unique XOR minimum), with
    /// a fallback scan over the lower-order buckets when it is dead.
    PrefixXor,
    /// Rigid prefix forwarding (the Plaxton tree). Hop key: the entry's raw
    /// identifier value, stored at its level position. Dispatch: leading-zero
    /// dispatch to the level of the highest differing bit, single probe — the
    /// protocol has no fallback.
    PrefixTree,
    /// Greedy Hamming forwarding (the CAN hypercube). Hop key: the weight of
    /// the entry's flipped bit, laid out most-significant first. Dispatch:
    /// first entry whose bit is set in the remaining XOR diff and alive.
    HypercubeBit,
}

/// A [`FailureMask`] lowered into a kernel's rank space: alive probes become
/// direct bit tests indexed by occupied rank.
///
/// Created once per (kernel, mask) pair by [`RoutingKernel::compile_mask`];
/// the per-route key-space assertions of the scalar path are paid there, once
/// per batch, instead of on every routed pair.
#[derive(Debug, Clone)]
pub enum KernelMask<'mask> {
    /// Full population: occupied ranks coincide with identifier values, so
    /// the mask's own bitset is already rank-indexed and is borrowed as-is.
    Full(&'mask FailureMask),
    /// Sparse population: a rank-compressed copy of the alive bits (bit `r`
    /// set iff the rank-`r` occupied node survived), shared with the
    /// kernel's per-generation lowering cache so repeated
    /// [`RoutingKernel::compile_mask`] calls over an unmutated mask reuse
    /// one lowering.
    Compressed(Arc<Vec<u64>>),
}

impl KernelMask<'_> {
    /// Returns `true` when the occupied node of the given rank survived.
    ///
    /// This is the kernel's only per-probe mask query: one shift and mask,
    /// with no population-rank indirection.
    #[inline]
    #[must_use]
    pub fn is_alive_rank(&self, rank: u32) -> bool {
        alive_bit(self.words(), rank)
    }

    /// The rank-indexed bitset words, resolved once so route loops probe a
    /// bare slice instead of re-matching the representation per hop.
    ///
    /// Batch drivers resolve this once per shard and route through
    /// [`RoutingKernel::route_ranked`] / [`RoutingKernel::route_batch`], so
    /// not even the per-route match is paid on the hot path.
    #[inline]
    #[must_use]
    pub fn words(&self) -> &[u64] {
        match self {
            KernelMask::Full(mask) => mask.words(),
            KernelMask::Compressed(words) => words,
        }
    }
}

/// Tests bit `rank` of a rank-indexed alive bitset.
#[inline]
fn alive_bit(words: &[u64], rank: u32) -> bool {
    words[(rank >> 6) as usize] & (1u64 << (rank & 63)) != 0
}

/// One packed plan entry: the precomputed hop key and the neighbour's
/// occupied rank, interleaved so the key compare and the follow-up alive
/// probe share a cache line. Both fields fit `u32` because executable
/// identifier spaces are capped at [`crate::traits::MAX_OVERLAY_BITS`] bits
/// ([`crate::traits::MAX_IMPLICIT_OVERLAY_BITS`] for the implicit backend,
/// still within `u32`): the whole entry is 8 bytes, half the scalar arena's
/// `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PlanEntry {
    /// The hop key (meaning depends on the [`KernelRule`]).
    key: u32,
    /// The neighbour's occupied rank, or [`NO_ENTRY`].
    target: u32,
}

impl PlanEntry {
    /// An inert slot (self placeholder): its zero key never matches and its
    /// rank is never probed.
    const EMPTY: PlanEntry = PlanEntry {
        key: 0,
        target: NO_ENTRY,
    };
}

/// Where the route loops read the lowered plan row of a rank: sliced out of a
/// compiled plan ([`PlanRows`]) or regenerated on demand ([`implicit`]'s
/// generated rows).
trait RowSource {
    /// The lowered row of `rank`.
    fn row(&mut self, rank: u32) -> &[PlanEntry];

    /// Hints that the row of `rank` is read on the next lockstep pass.
    #[inline]
    fn prefetch(&self, _rank: u32) {}
}

/// The rank-space header both backends route over: the dispatch rule, the
/// identifier space and the population's rank ↔ value map.
#[derive(Debug, Clone)]
struct RankSpace {
    rule: KernelRule,
    space: KeySpace,
    /// `space.bits()`, cached for the hot loops.
    bits: u32,
    /// Ranks coincide with identifier values (full population).
    full: bool,
    /// Shared with the owning overlay, not cloned — the sparse rank table is
    /// space-sized.
    population: Arc<Population>,
}

impl RankSpace {
    fn new(rule: KernelRule, population: &Arc<Population>) -> Self {
        let space = population.space();
        RankSpace {
            rule,
            space,
            bits: space.bits(),
            full: population.is_full(),
            population: Arc::clone(population),
        }
    }

    /// raw identifier value → occupied rank, `None` when unoccupied.
    #[inline]
    fn rank_of_value(&self, value: u64) -> Option<u32> {
        if self.full {
            Some(value as u32)
        } else {
            self.population.rank_of_value(value).map(|rank| rank as u32)
        }
    }

    /// The occupied rank of a node a routing table references.
    fn rank_of_node(&self, node: NodeId) -> u32 {
        self.rank_of_value(node.value())
            .expect("routing tables only reference occupied identifiers")
    }

    /// `Some(rank)` when `value` is an occupied identifier that survived.
    #[inline]
    fn alive_rank_of(&self, words: &[u64], value: u64) -> Option<u32> {
        let rank = self.rank_of_value(value)?;
        alive_bit(words, rank).then_some(rank)
    }

    /// Panics unless `id` belongs to the key space; `role` names it.
    fn check_id(&self, id: NodeId, role: &str) {
        assert_eq!(id.bits(), self.bits, "{role} is from a different key space");
    }

    /// The batch-entry validation of `compile_mask`: the key-space checks the
    /// scalar path performs on every routed pair, asserted once per mask.
    fn check_mask(&self, mask: &FailureMask) {
        assert_eq!(
            mask.key_space().bits(),
            self.bits,
            "mask is from a different key space"
        );
        assert_eq!(
            mask.population_size(),
            self.population.node_count(),
            "mask covers a different population"
        );
    }

    /// Lowers one table row into the front of `out` and returns the lowered
    /// length (at most `table.len()`) — the single lowering behind whole
    /// plans, live repairs and regenerated rows, each writing straight into
    /// its own storage.
    ///
    /// Ring rows are sorted by greedy preference, largest clockwise advance
    /// first, so the ring step reads forward from the row start. Prefix rows
    /// are positional (entry `j` sits at bucket/level `j`), so the
    /// leading-zero dispatch indexes directly. Hypercube rows keep build
    /// order, most significant bit first, so the first entry whose bit
    /// survives in the XOR diff is the scalar rule's minimum. Self entries of
    /// positional rows lower to [`PlanEntry::EMPTY`].
    ///
    /// `fixed_width` keeps every row exactly as wide as its table, which is
    /// what lets [`RoutingKernel::relower_rank`] repatch a live row in place.
    /// Without it, ring rows drop zero advances (self entries never make
    /// greedy progress) and duplicate advances (the same identifier, so one
    /// probe suffices); with it they stay, sorted to the row's tail, where
    /// the ring step's zero-advance guard stops.
    fn lower_row(
        &self,
        node: NodeId,
        table: &[NodeId],
        fixed_width: bool,
        ring_scratch: &mut Vec<(u32, u32)>,
        out: &mut [PlanEntry],
    ) -> usize {
        if self.rule == KernelRule::RingAdvance {
            ring_scratch.clear();
            for &entry in table {
                let advance = ring_distance_raw(node.value(), entry.value(), self.space);
                if fixed_width || advance > 0 {
                    ring_scratch.push((advance as u32, self.rank_of_node(entry)));
                }
            }
            ring_scratch.sort_unstable();
            if !fixed_width {
                ring_scratch.dedup_by_key(|&mut (advance, _)| advance);
            }
            for (slot, &(key, target)) in ring_scratch.iter().rev().enumerate() {
                out[slot] = PlanEntry { key, target };
            }
            return ring_scratch.len();
        }
        for (slot, &entry) in table.iter().enumerate() {
            out[slot] = if entry == node {
                PlanEntry::EMPTY
            } else {
                let key = if self.rule == KernelRule::HypercubeBit {
                    let weight = node.value() ^ entry.value();
                    debug_assert_eq!(weight.count_ones(), 1, "hypercube links flip one bit");
                    weight
                } else {
                    entry.value()
                };
                PlanEntry {
                    key: key as u32,
                    target: self.rank_of_node(entry),
                }
            };
        }
        table.len()
    }

    /// The admission prelude of both loops, mirroring the scalar router:
    /// source aliveness, then target aliveness, then the arrival test.
    /// `Ok((source rank, cursor))` for a lookup that needs hops, `Err` with
    /// the outcome of one that resolves at once.
    // Forced, like the rule steps and plan rows: with plain `#[inline]` the
    // compiler left these out of line in the lockstep loops, measurably
    // slowing the materialized passes.
    #[inline(always)]
    fn admit<R: Rule>(
        &self,
        words: &[u64],
        source: u64,
        target: u64,
    ) -> Result<(u32, u64), RouteOutcome> {
        debug_assert!(source <= self.space.max_value(), "source outside the space");
        debug_assert!(target <= self.space.max_value(), "target outside the space");
        let Some(rank) = self.alive_rank_of(words, source) else {
            return Err(RouteOutcome::SourceFailed);
        };
        if self.alive_rank_of(words, target).is_none() {
            return Err(RouteOutcome::TargetFailed);
        }
        match R::cursor(self.space, source, target) {
            0 => Err(RouteOutcome::Delivered { hops: 0 }),
            cursor => Ok((rank, cursor)),
        }
    }

    /// The outcome of a lookup stuck at `cursor` after `hops` hops.
    #[inline]
    fn dropped<R: Rule>(&self, hops: u32, cursor: u64, target: u64) -> RouteOutcome {
        RouteOutcome::Dropped {
            hops,
            stuck_at: self.space.wrap(R::position(self.space, cursor, target)),
        }
    }

    /// Routes `source` → `target` over `rows` under the alive bitset
    /// `words`, giving up after `hop_limit` hops.
    fn route<S: RowSource>(
        &self,
        rows: S,
        words: &[u64],
        source: u64,
        target: u64,
        hop_limit: u32,
    ) -> RouteOutcome {
        with_rule!(self.rule, R => self.route_by::<R, S>(rows, words, source, target, hop_limit))
    }

    /// The scalar route loop of rule `R`.
    fn route_by<R: Rule, S: RowSource>(
        &self,
        mut rows: S,
        words: &[u64],
        source: u64,
        target: u64,
        hop_limit: u32,
    ) -> RouteOutcome {
        let (mut rank, mut cursor) = match self.admit::<R>(words, source, target) {
            Ok(lane) => lane,
            Err(outcome) => return outcome,
        };
        let mut hops = 0u32;
        loop {
            if hops >= hop_limit {
                return RouteOutcome::HopLimitExceeded { limit: hop_limit };
            }
            let Some((next_cursor, next)) =
                R::step(rows.row(rank), words, self.bits, cursor, target)
            else {
                return self.dropped::<R>(hops, cursor, target);
            };
            hops += 1;
            if next_cursor == 0 {
                return RouteOutcome::Delivered { hops };
            }
            (rank, cursor) = (next, next_cursor);
        }
    }

    /// The greedy next hop from `current` towards `target` over `rows`, or
    /// `None` when no alive entry makes progress.
    fn next_hop<S: RowSource>(
        &self,
        mut rows: S,
        words: &[u64],
        current: NodeId,
        target: NodeId,
    ) -> Option<NodeId> {
        self.check_id(current, "current");
        self.check_id(target, "target");
        // An unoccupied identifier has no routing table (the scalar path
        // yields an empty neighbour slice and therefore no hop).
        let rank = self.rank_of_value(current.value())?;
        let (current, target) = (current.value(), target.value());
        with_rule!(self.rule, R => {
            let cursor = R::cursor(self.space, current, target);
            if cursor == 0 {
                return None;
            }
            let (cursor, _) = R::step(rows.row(rank), words, self.bits, cursor, target)?;
            Some(self.space.wrap(R::position(self.space, cursor, target)))
        })
    }
}

/// One greedy rule over a lookup's cursor, which is zero exactly on arrival.
/// The defaults are the XOR-distance cursor of the prefix and hypercube
/// rules; the ring rule overrides them with the clockwise distance.
trait Rule {
    /// The cursor of a lookup standing at `current`.
    #[inline]
    fn cursor(_space: KeySpace, current: u64, target: u64) -> u64 {
        current ^ target
    }

    /// The identifier a lookup with `cursor` stands at (its `stuck_at` when
    /// it drops there).
    #[inline]
    fn position(_space: KeySpace, cursor: u64, target: u64) -> u64 {
        target ^ cursor
    }

    /// One greedy hop over the lowered row of the node holding the lookup:
    /// the new cursor and the next rank, or `None` when no alive entry makes
    /// progress.
    fn step(
        row: &[PlanEntry],
        words: &[u64],
        bits: u32,
        cursor: u64,
        target: u64,
    ) -> Option<(u64, u32)>;
}

/// [`KernelRule::RingAdvance`]: the cursor is the remaining clockwise
/// distance, so a hop subtracts its advance — no identifier arithmetic.
struct Ring;

/// [`KernelRule::PrefixXor`].
struct Xor;

/// [`KernelRule::PrefixTree`].
struct Tree;

/// [`KernelRule::HypercubeBit`]: correcting a bit is one XOR on the cursor.
struct Cube;

impl Rule for Ring {
    #[inline]
    fn cursor(space: KeySpace, current: u64, target: u64) -> u64 {
        ring_distance_raw(current, target, space)
    }

    #[inline]
    fn position(space: KeySpace, cursor: u64, target: u64) -> u64 {
        target.wrapping_sub(cursor) & space.max_value()
    }

    /// The largest advance `<=` the remaining distance whose entry is alive.
    ///
    /// Entries are stored largest-advance first, so a forward scan over the
    /// row finds the answer: overshooting advances and dead probes are both
    /// skipped by the same walk. The scan is expected O(1) probes — the
    /// number of advances above the remaining distance is geometrically
    /// distributed (one per phase above the current one), which beats a
    /// branchy O(log d) binary search on real tables.
    #[inline(always)]
    fn step(
        row: &[PlanEntry],
        words: &[u64],
        _bits: u32,
        remaining: u64,
        _target: u64,
    ) -> Option<(u64, u32)> {
        for entry in row {
            // Fixed-width rows keep zero-advance self entries at the row
            // tail; a zero advance never makes greedy progress, so reaching
            // the tail means the hop fails.
            if entry.key == 0 {
                return None;
            }
            let advance = u64::from(entry.key);
            if advance <= remaining && alive_bit(words, entry.target) {
                return Some((remaining - advance, entry.target));
            }
        }
        None
    }
}

impl Rule for Xor {
    /// The bucket of the highest differing bit when alive (the provable
    /// minimum), else the XOR-closest alive contact among the lower-order
    /// buckets.
    #[inline(always)]
    fn step(
        row: &[PlanEntry],
        words: &[u64],
        bits: u32,
        diff: u64,
        target: u64,
    ) -> Option<(u64, u32)> {
        let level = leading_level(bits, diff);
        let primary = row[level];
        if primary.target != NO_ENTRY && alive_bit(words, primary.target) {
            return Some((u64::from(primary.key) ^ target, primary.target));
        }
        // Fallback: buckets above `level` can never beat the current
        // distance; buckets below compete on their (precomputed) contact
        // values' XOR distance to the target. Strictly-smaller keeps the
        // scalar path's first-minimum tie behaviour.
        let mut best: Option<(u64, u32)> = None;
        for entry in &row[level + 1..bits as usize] {
            if entry.target == NO_ENTRY || !alive_bit(words, entry.target) {
                continue;
            }
            let distance = u64::from(entry.key) ^ target;
            if distance < diff && best.is_none_or(|(closest, _)| distance < closest) {
                best = Some((distance, entry.target));
            }
        }
        best
    }
}

impl Rule for Tree {
    /// The level of the highest differing bit, single probe, no fallback.
    #[inline(always)]
    fn step(
        row: &[PlanEntry],
        words: &[u64],
        bits: u32,
        diff: u64,
        target: u64,
    ) -> Option<(u64, u32)> {
        let entry = row[leading_level(bits, diff)];
        (entry.target != NO_ENTRY && alive_bit(words, entry.target))
            .then(|| (u64::from(entry.key) ^ target, entry.target))
    }
}

impl Rule for Cube {
    /// The first (highest-weight) entry whose bit is still set in the diff
    /// and alive.
    #[inline(always)]
    fn step(
        row: &[PlanEntry],
        words: &[u64],
        _bits: u32,
        diff: u64,
        _target: u64,
    ) -> Option<(u64, u32)> {
        for entry in row {
            let weight = u64::from(entry.key);
            if diff & weight != 0 && alive_bit(words, entry.target) {
                return Some((diff ^ weight, entry.target));
            }
        }
        None
    }
}

/// A built overlay lowered into a rank-space routing plan.
///
/// See the [module docs](self) for the representation. Obtain one through
/// [`Overlay::kernel`](crate::Overlay::kernel) (compiled lazily, cached on
/// the overlay); drive it with [`RoutingKernel::route`] /
/// [`RoutingKernel::route_values`] after lowering the failure mask once with
/// [`RoutingKernel::compile_mask`].
#[derive(Debug)]
pub struct RoutingKernel {
    header: RankSpace,
    /// `offsets[r]..offsets[r + 1]` delimits the plan entries of rank `r`.
    offsets: Vec<u32>,
    /// When every table has the same length (always true for full
    /// populations), the common length: rank `r`'s entries start at
    /// `r * stride` and the hot loops skip the `offsets` load entirely.
    stride: Option<u32>,
    /// The packed plan entries, tables back to back in rank order.
    entries: Vec<PlanEntry>,
    /// Memoized sparse-mask lowering, keyed by [`FailureMask::generation`]:
    /// repeated [`RoutingKernel::compile_mask`] calls over the same unmutated
    /// mask (every trial of a static-resilience grid point) reuse one O(n)
    /// rank compression. Never consulted for full populations (their
    /// lowering borrows the mask bitset for free). Scratch state only —
    /// ignored by [`RoutingKernel::plan_eq`] / [`RoutingKernel::plan_digest`]
    /// and reset by `Clone`.
    lowering: Mutex<Option<(u64, Arc<Vec<u64>>)>>,
}

/// Clones the routing plan; the lowering memo starts empty (it repopulates on
/// the first `compile_mask`, and a fresh cache is cheaper than locking the
/// source's).
impl Clone for RoutingKernel {
    fn clone(&self) -> Self {
        RoutingKernel {
            header: self.header.clone(),
            offsets: self.offsets.clone(),
            stride: self.stride,
            entries: self.entries.clone(),
            lowering: Mutex::new(None),
        }
    }
}

impl RoutingKernel {
    /// Lowers `arena`'s routing tables over `population` into a plan for
    /// `rule`.
    ///
    /// Ranks follow the arena/population convention (occupied identifiers in
    /// ascending order). Construction is O(edges) plus, for the ring rule, a
    /// per-table sort by advance. `fixed_width` keeps every plan row as wide
    /// as its arena row — the live overlay's plans, whose rows
    /// [`RoutingKernel::relower_rank`] repatches in place after a repair.
    #[must_use]
    pub(crate) fn compile(
        rule: KernelRule,
        population: &Arc<Population>,
        arena: &RoutingArena,
        fixed_width: bool,
    ) -> Self {
        let header = RankSpace::new(rule, population);
        let node_count = usize::try_from(population.node_count()).expect("overlay sizes fit usize");
        debug_assert_eq!(arena.node_count(), node_count);
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut entries: Vec<PlanEntry> = Vec::with_capacity(arena.entry_count() as usize);
        let mut ring_scratch = Vec::new();
        offsets.push(0u32);
        for (rank, node) in population.iter_nodes().enumerate() {
            let table = arena.neighbors(rank);
            let start = entries.len();
            entries.resize(start + table.len(), PlanEntry::EMPTY);
            let len = header.lower_row(
                node,
                table,
                fixed_width,
                &mut ring_scratch,
                &mut entries[start..],
            );
            entries.truncate(start + len);
            let end =
                u32::try_from(entries.len()).expect("kernel plans hold at most u32::MAX entries");
            offsets.push(end);
        }
        RoutingKernel {
            header,
            stride: uniform_stride(&offsets),
            offsets,
            entries,
            lowering: Mutex::new(None),
        }
    }

    /// Repatches the plan row of `rank` in place from the node's rewritten
    /// live table — the kernel half of a live repair (dirty-rank
    /// invalidation): only the repaired row is re-lowered, every other row
    /// and the CSR layout stay untouched.
    ///
    /// Only valid on fixed-width plans ([`RoutingKernel::compile`] with
    /// `fixed_width`).
    ///
    /// # Panics
    ///
    /// Panics if the lowered row width differs from the stored row (a
    /// violation of the live fixed-width contract).
    pub(crate) fn relower_rank(&mut self, rank: usize, node: NodeId, table: &[NodeId]) {
        let (start, end) = self.rows().bounds(rank as u32);
        // A fixed-width lowering is exactly as wide as its table.
        assert_eq!(
            table.len(),
            end - start,
            "live repairs preserve the row width"
        );
        self.header.lower_row(
            node,
            table,
            true,
            &mut Vec::new(),
            &mut self.entries[start..end],
        );
    }

    /// `true` when `other` encodes entry-for-entry the same routing plan:
    /// same rule, key space, population, CSR layout and packed hop
    /// keys/ranks.
    ///
    /// This is the kernel-level equality the incremental-equivalence property
    /// suite asserts between a delta-repaired plan and a from-scratch
    /// live compile over the same state.
    #[must_use]
    pub fn plan_eq(&self, other: &RoutingKernel) -> bool {
        self.header.rule == other.header.rule
            && self.header.space == other.header.space
            && self.header.population == other.header.population
            && self.offsets == other.offsets
            && self.stride == other.stride
            && self.entries == other.entries
    }

    /// A 64-bit digest of the full plan (rule, layout, every packed entry,
    /// the sparse rank → value map), folded with SplitMix64. Plans that
    /// satisfy [`RoutingKernel::plan_eq`] digest identically; the live-churn
    /// engine folds this into its final-state hashes so thread-count
    /// determinism covers the compiled plans, not just the tallies.
    #[must_use]
    pub fn plan_digest(&self) -> u64 {
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |value: u64| digest = crate::live::splitmix64(digest ^ value);
        fold(self.header.rule as u64);
        fold(u64::from(self.header.bits));
        fold(u64::from(self.header.full));
        for &offset in &self.offsets {
            fold(u64::from(offset));
        }
        for entry in &self.entries {
            fold(u64::from(entry.key) << 32 | u64::from(entry.target));
        }
        if !self.header.full {
            for node in self.header.population.iter_nodes() {
                fold(node.value());
            }
        }
        digest
    }

    /// The dispatch rule this kernel was compiled with.
    #[must_use]
    pub fn rule(&self) -> KernelRule {
        self.header.rule
    }

    /// The identifier space the kernel routes in.
    #[must_use]
    pub fn key_space(&self) -> KeySpace {
        self.header.space
    }

    /// Number of plan entries (directed edges, placeholders included for the
    /// positional prefix rules).
    #[must_use]
    pub fn entry_count(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Bytes of the plan's own storage (offsets and packed key/rank entries)
    /// — the kernel's memory cost on top of the overlay it was lowered from:
    /// 8 bytes per entry plus ~4 per node. The population (and with it the
    /// sparse rank ↔ value map) is shared with the overlay, not duplicated,
    /// and is not counted here.
    #[must_use]
    pub fn plan_bytes(&self) -> usize {
        self.offsets.len() * 4 + self.entries.len() * std::mem::size_of::<PlanEntry>()
    }

    /// Lowers `mask` into this kernel's rank space.
    ///
    /// For a full population the mask's bitset is already rank-indexed and is
    /// borrowed; for a sparse one the occupied bits are compressed into a
    /// rank-indexed copy, O(n). The sparse lowering is memoized per
    /// [`FailureMask::generation`]: lowering the same unmutated mask again
    /// (every trial of a grid point reuses one sampled mask) returns a shared
    /// handle to the cached words instead of recompressing. Either way this
    /// is the **batch-entry validation point**: the key-space checks the
    /// scalar path performs on every routed pair are asserted here exactly
    /// once.
    ///
    /// # Panics
    ///
    /// Panics if `mask` covers a different key space or population size than
    /// the kernel.
    #[must_use]
    pub fn compile_mask<'mask>(&self, mask: &'mask FailureMask) -> KernelMask<'mask> {
        self.header.check_mask(mask);
        if self.header.full {
            return KernelMask::Full(mask);
        }
        let generation = mask.generation();
        if let Some((cached_generation, words)) = self
            .lowering
            .lock()
            .expect("lowering cache poisoned")
            .as_ref()
        {
            // A generation match guarantees identical content: stamps are
            // workspace-unique and re-drawn on every mask mutation.
            if *cached_generation == generation {
                return KernelMask::Compressed(Arc::clone(words));
            }
        }
        let population = &self.header.population;
        let node_count = usize::try_from(population.node_count()).expect("overlay sizes fit usize");
        let mut words = vec![0u64; node_count.div_ceil(64)];
        for (rank, node) in population.iter_nodes().enumerate() {
            if mask.is_alive(node) {
                words[rank >> 6] |= 1u64 << (rank & 63);
            }
        }
        let words = Arc::new(words);
        *self.lowering.lock().expect("lowering cache poisoned") =
            Some((generation, Arc::clone(&words)));
        KernelMask::Compressed(words)
    }

    /// Routes `source` → `target` under the lowered `mask`, giving up after
    /// `hop_limit` hops.
    ///
    /// The outcome is bit-identical to
    /// [`route_with_limit`](crate::route_with_limit) on the overlay this
    /// kernel was compiled from, for the same mask and limit.
    ///
    /// # Panics
    ///
    /// Panics if `source` or `target` do not belong to the kernel's key space
    /// (the same contract as the scalar driver).
    #[must_use]
    pub fn route(
        &self,
        mask: &KernelMask<'_>,
        source: NodeId,
        target: NodeId,
        hop_limit: u32,
    ) -> RouteOutcome {
        self.header.check_id(source, "source");
        self.header.check_id(target, "target");
        self.route_ranked(mask.words(), source.value(), target.value(), hop_limit)
    }

    /// [`RoutingKernel::route`] over raw identifier values — the batch entry
    /// point used by `dht_sim`'s trial engine, with the key-space validation
    /// hoisted to [`RoutingKernel::compile_mask`] (debug assertions only
    /// here).
    #[must_use]
    pub fn route_values(
        &self,
        mask: &KernelMask<'_>,
        source: u64,
        target: u64,
        hop_limit: u32,
    ) -> RouteOutcome {
        self.route_ranked(mask.words(), source, target, hop_limit)
    }

    /// [`RoutingKernel::route_values`] over a caller-held rank-indexed alive
    /// bitset, bypassing [`KernelMask`] entirely.
    ///
    /// The live-churn engine maintains its rank words incrementally (one bit
    /// flip per join/leave), so per-lookup routing never recompiles a mask.
    /// `alive_words` must have bit `r` set iff the rank-`r` occupied node is
    /// alive, with `node_count.div_ceil(64)` words — exactly the layout of
    /// [`KernelMask::Compressed`] and of a full population's
    /// [`FailureMask::words`].
    #[must_use]
    pub fn route_ranked(
        &self,
        alive_words: &[u64],
        source: u64,
        target: u64,
        hop_limit: u32,
    ) -> RouteOutcome {
        self.header
            .route(self.rows(), alive_words, source, target, hop_limit)
    }

    /// The greedy next hop from `current` towards `target`, or `None` when no
    /// alive entry makes progress — a single step of the compiled plan,
    /// equivalent to [`Overlay::next_hop`](crate::Overlay::next_hop) on the
    /// source overlay.
    ///
    /// # Panics
    ///
    /// Panics if `current` or `target` do not belong to the kernel's key
    /// space.
    #[must_use]
    pub fn next_hop(
        &self,
        mask: &KernelMask<'_>,
        current: NodeId,
        target: NodeId,
    ) -> Option<NodeId> {
        self.header
            .next_hop(self.rows(), mask.words(), current, target)
    }

    /// The plan rows as a row source.
    fn rows(&self) -> PlanRows<'_> {
        PlanRows {
            offsets: &self.offsets,
            stride: self.stride,
            entries: &self.entries,
        }
    }
}

/// Plan rows: a row source slicing the compiled plan. The route loops take
/// it by value, so its bounds and stride are loop-invariant locals rather
/// than loads through the kernel.
#[derive(Clone, Copy)]
struct PlanRows<'k> {
    offsets: &'k [u32],
    stride: Option<u32>,
    entries: &'k [PlanEntry],
}

impl PlanRows<'_> {
    /// The plan-entry range of rank `r`: a multiply for fixed-stride plans,
    /// two `offsets` loads for ragged ones.
    #[inline]
    fn bounds(&self, rank: u32) -> (usize, usize) {
        match self.stride {
            Some(stride) => {
                let start = rank as usize * stride as usize;
                (start, start + stride as usize)
            }
            None => (
                self.offsets[rank as usize] as usize,
                self.offsets[rank as usize + 1] as usize,
            ),
        }
    }
}

impl RowSource for PlanRows<'_> {
    #[inline(always)]
    fn row(&mut self, rank: u32) -> &[PlanEntry] {
        let (start, end) = self.bounds(rank);
        &self.entries[start..end]
    }

    /// Fixed-stride plans (every full population) know the row address
    /// without a load, so the entry line itself is prefetched — two lines for
    /// wide rows, because the ring scan reads deeper into the row as the
    /// remaining distance shrinks. Ragged plans would need `offsets[rank]`
    /// first, so only that offset line is prefetched and the entry row is
    /// left to the demand load.
    #[inline]
    fn prefetch(&self, rank: u32) {
        match self.stride {
            Some(stride) => {
                let start = rank as usize * stride as usize;
                batch::prefetch_read(self.entries, start);
                if stride > 8 {
                    // A PlanEntry is 8 bytes: lines hold 8 entries.
                    batch::prefetch_read(self.entries, start + 8);
                }
            }
            None => batch::prefetch_read(self.offsets, rank as usize),
        }
    }
}

/// The bucket/level (0 = most significant) of the highest set bit of a
/// non-zero `diff` in a `bits`-wide space — the leading-zero dispatch.
#[inline]
fn leading_level(bits: u32, diff: u64) -> usize {
    debug_assert_ne!(diff, 0);
    (diff.leading_zeros() - (64 - bits)) as usize
}

/// Clockwise ring distance over raw values (the kernel never constructs
/// identifiers in its hot loops).
#[inline]
fn ring_distance_raw(from: u64, to: u64, space: KeySpace) -> u64 {
    to.wrapping_sub(from) & space.max_value()
}

/// The common row width when every CSR row is equally wide (always the case
/// over full populations), or `None` for ragged rows.
fn uniform_stride(offsets: &[u32]) -> Option<u32> {
    let first = offsets.get(1)? - offsets[0];
    offsets
        .windows(2)
        .all(|pair| pair[1] - pair[0] == first)
        .then_some(first)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::router::{default_route_hop_limit, route_with_limit};
    use crate::traits::Overlay;
    use crate::{CanOverlay, ChordOverlay, ChordVariant, KademliaOverlay, SymphonyOverlay};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ring_kernel_precomputes_sorted_advances() {
        let overlay = ChordOverlay::build(6, ChordVariant::Deterministic).unwrap();
        let kernel = overlay.kernel().expect("ring compiles");
        assert_eq!(kernel.rule(), KernelRule::RingAdvance);
        assert_eq!(kernel.entry_count(), 64 * 6);
        assert!(kernel.plan_bytes() > 0);
        // Deterministic fingers advance by 1, 2, 4, ..., already sorted.
        let mask = FailureMask::none(overlay.key_space());
        let lowered = kernel.compile_mask(&mask);
        let space = overlay.key_space();
        let hop = kernel
            .next_hop(&lowered, space.wrap(0), space.wrap(48))
            .unwrap();
        assert_eq!(hop, space.wrap(32), "longest non-overshooting finger");
    }

    #[test]
    fn kernel_route_matches_scalar_route_spot_checks() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let overlay = KademliaOverlay::build(10, &mut rng).unwrap();
        let kernel = overlay.kernel().expect("xor compiles");
        let space = overlay.key_space();
        let mask = FailureMask::sample(space, 0.3, &mut rng);
        let lowered = kernel.compile_mask(&mask);
        let limit = default_route_hop_limit(&overlay);
        for _ in 0..500 {
            let source = space.random_id(&mut rng);
            let target = space.random_id(&mut rng);
            assert_eq!(
                kernel.route(&lowered, source, target, limit),
                route_with_limit(&overlay, source, target, &mask, limit),
            );
        }
    }

    #[test]
    fn hop_limit_is_reported_identically() {
        let overlay = CanOverlay::build(6).unwrap();
        let kernel = overlay.kernel().expect("hypercube compiles");
        let space = overlay.key_space();
        let mask = FailureMask::none(space);
        let lowered = kernel.compile_mask(&mask);
        let source = space.wrap(0);
        let target = space.wrap(0b111111);
        assert_eq!(
            kernel.route(&lowered, source, target, 3),
            RouteOutcome::HopLimitExceeded { limit: 3 },
        );
        assert_eq!(
            kernel.route(&lowered, source, target, 3),
            route_with_limit(&overlay, source, target, &mask, 3),
        );
    }

    #[test]
    fn sparse_kernels_compress_the_mask_by_rank() {
        let space = dht_id::KeySpace::new(10).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let population = Population::sample_uniform(space, 200, &mut rng).unwrap();
        let overlay = SymphonyOverlay::build_over(population, 1, 2, &mut rng).unwrap();
        let kernel = overlay.kernel().expect("symphony compiles");
        let mask = FailureMask::sample_over(overlay.population(), 0.4, &mut rng);
        let lowered = kernel.compile_mask(&mask);
        assert!(matches!(lowered, KernelMask::Compressed(_)));
        for (rank, node) in overlay.population().iter_nodes().enumerate() {
            assert_eq!(lowered.is_alive_rank(rank as u32), mask.is_alive(node));
        }
    }

    #[test]
    fn sparse_lowering_is_memoized_per_mask_generation() {
        let space = dht_id::KeySpace::new(10).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let population = Population::sample_uniform(space, 300, &mut rng).unwrap();
        let overlay =
            ChordOverlay::build_over(population, ChordVariant::Randomized, &mut rng).unwrap();
        let kernel = overlay.kernel().expect("ring compiles");
        let mut mask = FailureMask::sample_over(overlay.population(), 0.3, &mut rng);

        let (KernelMask::Compressed(first), KernelMask::Compressed(second)) =
            (kernel.compile_mask(&mask), kernel.compile_mask(&mask))
        else {
            panic!("sparse populations lower to compressed masks");
        };
        assert!(
            Arc::ptr_eq(&first, &second),
            "unmutated mask reuses the cached lowering"
        );

        // A clone keeps the generation (same content), so it still hits.
        let clone = mask.clone();
        let KernelMask::Compressed(cloned) = kernel.compile_mask(&clone) else {
            panic!("sparse lowering");
        };
        assert!(Arc::ptr_eq(&first, &cloned));

        // Mutation re-stamps the mask: the cache misses and the fresh
        // lowering reflects the new content.
        let victim = mask.alive_nodes().next().expect("someone survived");
        assert!(mask.kill(victim));
        let relowered = kernel.compile_mask(&mask);
        let KernelMask::Compressed(words) = &relowered else {
            panic!("sparse lowering");
        };
        assert!(!Arc::ptr_eq(&first, words), "mutated mask relowers");
        for (rank, node) in overlay.population().iter_nodes().enumerate() {
            assert_eq!(relowered.is_alive_rank(rank as u32), mask.is_alive(node));
        }
    }

    #[test]
    #[should_panic(expected = "different population")]
    fn mask_population_mismatch_is_rejected() {
        let space = dht_id::KeySpace::new(8).unwrap();
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let population = Population::sample_uniform(space, 50, &mut rng).unwrap();
        let overlay =
            ChordOverlay::build_over(population, ChordVariant::Randomized, &mut rng).unwrap();
        let kernel = overlay.kernel().unwrap();
        // A full-space mask over a 50-node overlay is a caller bug.
        let _ = kernel.compile_mask(&FailureMask::none(space));
    }

    #[test]
    fn unoccupied_current_has_no_next_hop() {
        let space = dht_id::KeySpace::new(8).unwrap();
        let population =
            Population::sparse(space, [space.wrap(10), space.wrap(200), space.wrap(90)]).unwrap();
        let overlay = ChordOverlay::build_over(
            population,
            ChordVariant::Deterministic,
            &mut crate::generic::NoRandomness,
        )
        .unwrap();
        let kernel = overlay.kernel().unwrap();
        let mask = FailureMask::none_over(overlay.population());
        let lowered = kernel.compile_mask(&mask);
        assert_eq!(
            kernel.next_hop(&lowered, space.wrap(11), space.wrap(90)),
            None
        );
        assert_eq!(
            kernel.next_hop(&lowered, space.wrap(10), space.wrap(10)),
            None,
            "arrived: no hop makes progress"
        );
    }
}
