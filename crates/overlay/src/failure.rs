//! Frozen node-failure patterns (the static resilience model).

use dht_id::{KeySpace, NodeId, Population};
use rand::RngCore;
use rand_chacha::ChaCha8Rng;
use serde::{get_field, Deserialize, Error, Serialize, Value};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;

/// Number of identifier slots per bitset word.
const WORD_BITS: u64 = 64;

/// The smallest chunk of bitset words [`FailureMask::sample_over`] hands
/// to a worker thread (4096 words, 2^18 identifiers): below this a spawn
/// costs more than the draws it would move off the calling thread.
const MIN_CHUNK_WORDS: usize = 4096;

/// Draws a workspace-unique generation stamp (see [`FailureMask::generation`]).
///
/// Starts at 1 so 0 can never be a live stamp (callers may use it as a
/// "nothing cached" sentinel).
fn fresh_stamp() -> u64 {
    static NEXT_STAMP: AtomicU64 = AtomicU64::new(1);
    NEXT_STAMP.fetch_add(1, Ordering::Relaxed)
}

/// A frozen set of failed nodes over the occupied identifiers of a space.
///
/// The paper's failure model removes each node independently with probability
/// `q` and keeps every surviving node's routing table unchanged. A
/// [`FailureMask`] captures one such removal pattern; routing functions query
/// it on every hop.
///
/// # Representation
///
/// The mask is a packed bitset: bit `v % 64` of word `v / 64` is set exactly
/// when identifier `v` is an *alive occupied* node. Unoccupied identifiers
/// (for masks over a sparse [`Population`]) and failed nodes both read as
/// zero, so the hot-path query [`FailureMask::is_alive`] is a single shift
/// and mask. Word-level access ([`FailureMask::words`],
/// [`FailureMask::alive_words`]) plus popcount-based rank/select
/// ([`FailureMask::alive_rank`], [`FailureMask::select_alive`]) let samplers
/// draw surviving nodes by rank without materialising an alive vector; a
/// `2^20`-identifier mask is 128 KiB instead of the megabyte a `Vec<bool>`
/// would cost.
///
/// Masks are population-aware: over a sparse [`Population`] the unoccupied
/// identifiers are permanently "failed" (there is no node to forward
/// through), while [`FailureMask::failed_count`] and
/// [`FailureMask::alive_count`] always refer to *occupied* nodes only.
///
/// # Example
///
/// ```rust
/// use dht_id::KeySpace;
/// use dht_overlay::FailureMask;
/// use rand::SeedableRng;
/// use rand_chacha::ChaCha8Rng;
///
/// let space = KeySpace::new(10)?;
/// let mut rng = ChaCha8Rng::seed_from_u64(7);
/// let mask = FailureMask::sample(space, 0.25, &mut rng);
/// let observed = mask.failed_count() as f64 / space.population() as f64;
/// assert!((observed - 0.25).abs() < 0.1);
/// # Ok::<(), dht_id::IdError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FailureMask {
    space: KeySpace,
    /// Bit `v % 64` of `alive[v / 64]` is set iff identifier `v` is an alive
    /// occupied node. Bits beyond the key space are always zero, so equality
    /// and word-level scans need no trailing-bit masking.
    alive: Vec<u64>,
    failed_count: u64,
    population_size: u64,
    /// Generation stamp: workspace-unique at construction, re-drawn on every
    /// content mutation, *copied* by `Clone`. Two masks share a stamp only
    /// when one is an unmutated copy of the other — which is exactly the
    /// "same content" guarantee memoizers key on (see
    /// [`FailureMask::generation`]). Excluded from equality and serde: it
    /// identifies an in-memory lineage, not the failure pattern.
    stamp: u64,
}

/// Equality is over the failure pattern only — the generation stamp is an
/// in-memory identity and two independently sampled masks with the same
/// content must compare equal.
impl PartialEq for FailureMask {
    fn eq(&self, other: &Self) -> bool {
        self.space == other.space
            && self.failed_count == other.failed_count
            && self.population_size == other.population_size
            && self.alive == other.alive
    }
}

impl Eq for FailureMask {}

/// Serializes the failure pattern (the stamp is transient in-memory state; a
/// persisted stamp could collide with a live lineage after reload).
impl Serialize for FailureMask {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            (String::from("space"), self.space.to_value()),
            (String::from("alive"), self.alive.to_value()),
            (String::from("failed_count"), self.failed_count.to_value()),
            (
                String::from("population_size"),
                self.population_size.to_value(),
            ),
        ])
    }
}

/// Deserialized masks get a fresh generation stamp.
impl Deserialize for FailureMask {
    fn from_value(value: &Value) -> Result<Self, Error> {
        let entries = value
            .as_object()
            .ok_or_else(|| Error::custom("expected object for FailureMask"))?;
        Ok(FailureMask {
            space: Deserialize::from_value(get_field(entries, "space")?)?,
            alive: Deserialize::from_value(get_field(entries, "alive")?)?,
            failed_count: Deserialize::from_value(get_field(entries, "failed_count")?)?,
            population_size: Deserialize::from_value(get_field(entries, "population_size")?)?,
            stamp: fresh_stamp(),
        })
    }
}

impl FailureMask {
    /// Creates a mask with no failures over a fully populated space.
    ///
    /// # Panics
    ///
    /// Panics if the space has more than `2^32` identifiers (such spaces are
    /// analytical-only; see [`crate::traits::MAX_OVERLAY_BITS`]).
    #[must_use]
    pub fn none(space: KeySpace) -> Self {
        let words = word_count(space);
        let population = space.population();
        let mut alive = vec![u64::MAX; words];
        let tail = population % WORD_BITS;
        if tail != 0 {
            alive[words - 1] = (1u64 << tail) - 1;
        }
        FailureMask {
            space,
            alive,
            failed_count: 0,
            population_size: population,
            stamp: fresh_stamp(),
        }
    }

    /// Creates a mask with no failures over the occupied identifiers of
    /// `population`; unoccupied identifiers read as failed.
    ///
    /// # Panics
    ///
    /// Panics if the space has more than `2^32` identifiers.
    #[must_use]
    pub fn none_over(population: &Population) -> Self {
        if population.is_full() {
            return FailureMask::none(population.space());
        }
        let space = population.space();
        let mut alive = vec![0u64; word_count(space)];
        for node in population.iter_nodes() {
            let value = node.value();
            alive[(value / WORD_BITS) as usize] |= 1u64 << (value % WORD_BITS);
        }
        FailureMask {
            space,
            alive,
            failed_count: 0,
            population_size: population.node_count(),
            stamp: fresh_stamp(),
        }
    }

    /// Samples a mask over a fully populated space in which every node fails
    /// independently with probability `q`.
    ///
    /// This is [`FailureMask::sample_over`] over [`Population::full`]: the
    /// same stream contract, the same mask and the same final generator
    /// position.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]` or the space is larger than `2^32`.
    #[must_use]
    pub fn sample(space: KeySpace, q: f64, rng: &mut ChaCha8Rng) -> Self {
        Self::sample_over(&Population::full(space), q, rng)
    }

    /// Samples a mask in which every *occupied* node fails independently with
    /// probability `q` (unoccupied identifiers read as failed regardless).
    ///
    /// # Stream contract
    ///
    /// With `p0 = rng.get_word_pos()` on entry and `n` occupied nodes:
    ///
    /// - the occupied node of rank `r` (ascending identifier order) draws one
    ///   `next_u64` from stream words `p0 + 2r` and `p0 + 2r + 1`;
    /// - it fails iff `(x >> 11) < ceil(q * 2^53)`, which is exactly
    ///   `rng.gen_bool(q)` (`gen::<f64>() < q`): scaling by `2^53` is exact
    ///   in `f64`, so `q = 0` never fails a node and `q = 1` always does;
    /// - on return `rng` sits at word `p0 + 2n`, where a sequential
    ///   `gen_bool` loop over the occupied nodes would have left it.
    ///
    /// ChaCha seeks in O(1), so the bitset is filled in word chunks on
    /// scoped threads, one per available core, each drawing from a clone of
    /// `rng` seeked to its chunk's first draw. Masks of at most 4096 words
    /// (`2^18` identifiers) stay on the calling thread. The mask and the
    /// final generator position do not depend on the core count.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not in `[0, 1]` or the space is larger than `2^32`.
    #[must_use]
    pub fn sample_over(population: &Population, q: f64, rng: &mut ChaCha8Rng) -> Self {
        let workers = thread::available_parallelism().map_or(1, NonZeroUsize::get);
        Self::sample_chunked(population, q, rng, workers, MIN_CHUNK_WORDS)
    }

    /// [`FailureMask::sample_over`] with the worker count and the minimum
    /// chunk size (in words, both at least 1) spelled out, so tests can
    /// force every split.
    pub(crate) fn sample_chunked(
        population: &Population,
        q: f64,
        rng: &mut ChaCha8Rng,
        workers: usize,
        min_chunk_words: usize,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&q),
            "failure probability must be in [0,1]"
        );
        // `gen::<f64>()` is `(x >> 11) * 2^-53`; multiplying both sides of
        // `m * 2^-53 < q` by 2^53 is exact, and for an integer `m` the
        // compare against the real `q * 2^53` equals the one against its
        // ceiling.
        let threshold = (q * (1u64 << 53) as f64).ceil() as u64;
        let space = population.space();
        // Full masks start zeroed; sparse ones start as their occupancy
        // bitset, which the fill reads and overwrites word by word.
        let (occupancy, mut alive) = if population.is_full() {
            (
                Occupancy::Full(space.population()),
                vec![0u64; word_count(space)],
            )
        } else {
            (Occupancy::Stored, FailureMask::none_over(population).alive)
        };
        let start = rng.get_word_pos();
        let chunk_words = alive.len().div_ceil(workers).max(min_chunk_words);

        // Chunk `i` starts drawing at its first occupied node's rank.
        let mut rank = 0u64;
        let mut fills = Vec::new();
        for (index, words) in alive.chunks_mut(chunk_words).enumerate() {
            let first_word = index * chunk_words;
            let mut draws = rng.clone();
            draws.set_word_pos(start + 2 * rank);
            rank += occupancy.count(first_word, words);
            fills.push(move || fill_words(words, first_word, occupancy, draws, threshold));
        }
        let mut fills = fills.into_iter();
        let first = fills.next().expect("a mask has at least one word");
        let alive_count = thread::scope(|scope| {
            let workers: Vec<_> = fills.map(|fill| scope.spawn(fill)).collect();
            // The calling thread fills the first chunk while the workers run.
            let own = first();
            own + workers
                .into_iter()
                .map(|worker| worker.join().expect("mask fill worker panicked"))
                .sum::<u64>()
        });
        let population_size = population.node_count();
        rng.set_word_pos(start + 2 * population_size);
        FailureMask {
            space,
            alive,
            failed_count: population_size - alive_count,
            population_size,
            stamp: fresh_stamp(),
        }
    }

    /// Creates a mask over a fully populated space from an explicit list of
    /// failed identifiers.
    ///
    /// Identifiers outside the space are ignored; duplicates count once.
    #[must_use]
    pub fn from_failed_nodes<I>(space: KeySpace, nodes: I) -> Self
    where
        I: IntoIterator<Item = NodeId>,
    {
        let mut mask = FailureMask::none(space);
        for node in nodes {
            if node.bits() == space.bits() {
                let value = node.value();
                let slot = &mut mask.alive[(value / WORD_BITS) as usize];
                let bit = 1u64 << (value % WORD_BITS);
                if *slot & bit != 0 {
                    *slot &= !bit;
                    mask.failed_count += 1;
                }
            }
        }
        mask.stamp = fresh_stamp();
        mask
    }

    /// The identifier space this mask covers.
    #[must_use]
    pub fn key_space(&self) -> KeySpace {
        self.space
    }

    /// Number of occupied identifiers this mask tracks (`2^d` for masks over
    /// a full population).
    #[must_use]
    pub fn population_size(&self) -> u64 {
        self.population_size
    }

    /// Returns `true` if `node` failed (or is unoccupied, for masks over a
    /// sparse population).
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    #[inline]
    #[must_use]
    pub fn is_failed(&self, node: NodeId) -> bool {
        assert_eq!(
            node.bits(),
            self.space.bits(),
            "node belongs to a different key space"
        );
        let value = node.value();
        self.alive[(value / WORD_BITS) as usize] & (1u64 << (value % WORD_BITS)) == 0
    }

    /// Returns `true` if `node` is an occupied identifier that survived.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    #[inline]
    #[must_use]
    pub fn is_alive(&self, node: NodeId) -> bool {
        !self.is_failed(node)
    }

    /// Rank-indexed fast path of [`FailureMask::is_alive`]: a direct bit test
    /// of slot `rank`, with no identifier construction or key-space check.
    ///
    /// Valid as an *occupied-rank* probe only for masks over a **full**
    /// population, where a node's occupied rank equals its identifier value —
    /// which is exactly when the compiled routing kernel
    /// ([`crate::kernel::KernelMask`]) borrows the mask's bitset instead of
    /// compressing it. Debug builds assert both preconditions; release
    /// builds perform the raw bit test.
    #[inline]
    #[must_use]
    pub fn is_alive_rank(&self, rank: u32) -> bool {
        debug_assert_eq!(
            self.population_size,
            self.space.population(),
            "rank-indexed probes require a full-population mask (ranks == values)"
        );
        debug_assert!(
            u64::from(rank) < self.space.population(),
            "rank {rank} outside the key space"
        );
        self.alive[(rank >> 6) as usize] & (1u64 << (rank & 63)) != 0
    }

    /// Number of failed occupied nodes.
    #[must_use]
    pub fn failed_count(&self) -> u64 {
        self.failed_count
    }

    /// Number of surviving occupied nodes.
    #[must_use]
    pub fn alive_count(&self) -> u64 {
        self.population_size - self.failed_count
    }

    /// The raw bitset words, 64 identifiers per word in ascending order.
    ///
    /// Samplers build rank indices over this slice (one cumulative popcount
    /// per word) to draw surviving nodes by rank in O(log words); see
    /// [`FailureMask::select_alive`] for the index-free variant.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.alive
    }

    /// Iterates over the non-zero bitset words as `(word_index, word)` pairs.
    ///
    /// Word `i` covers identifiers `64 * i ..= 64 * i + 63`; a set bit `b`
    /// means identifier `64 * i + b` is alive. Sparse scans (connected
    /// components, reachability frontiers) skip dead regions 64 identifiers
    /// at a time this way.
    pub fn alive_words(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter_map(|(index, &word)| (word != 0).then_some((index, word)))
    }

    /// Iterates over the surviving node identifiers in ascending order.
    pub fn alive_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let bits = self.space.bits();
        self.alive_words().flat_map(move |(index, word)| {
            let base = index as u64 * WORD_BITS;
            let mut remaining = word;
            std::iter::from_fn(move || {
                if remaining == 0 {
                    return None;
                }
                let bit = remaining.trailing_zeros();
                remaining &= remaining - 1;
                Some(
                    NodeId::from_raw(base + u64::from(bit), bits)
                        .expect("bit index fits the key space"),
                )
            })
        })
    }

    /// The rank of `node` among the surviving nodes in ascending identifier
    /// order, or `None` when `node` is failed or unoccupied.
    ///
    /// Computed by popcounting the bitset prefix, O(population / 64). The
    /// inverse of [`FailureMask::select_alive`].
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    #[must_use]
    pub fn alive_rank(&self, node: NodeId) -> Option<u64> {
        if self.is_failed(node) {
            return None;
        }
        let value = node.value();
        let word_index = (value / WORD_BITS) as usize;
        let prefix: u64 = self.alive[..word_index]
            .iter()
            .map(|word| u64::from(word.count_ones()))
            .sum();
        let below = self.alive[word_index] & ((1u64 << (value % WORD_BITS)) - 1);
        Some(prefix + u64::from(below.count_ones()))
    }

    /// The surviving node of the given rank (ascending identifier order), or
    /// `None` when `rank >= alive_count()`.
    ///
    /// This is a linear word scan, O(population / 64); samplers that select
    /// repeatedly should build a cumulative popcount index over
    /// [`FailureMask::words`] instead (as `dht_sim::PairSampler` does).
    #[must_use]
    pub fn select_alive(&self, rank: u64) -> Option<NodeId> {
        if rank >= self.alive_count() {
            return None;
        }
        let mut remaining = rank;
        for (index, word) in self.alive_words() {
            let count = u64::from(word.count_ones());
            if remaining < count {
                let bit = select_in_word(word, remaining as u32);
                let value = index as u64 * WORD_BITS + u64::from(bit);
                return Some(
                    NodeId::from_raw(value, self.space.bits()).expect("bit fits the key space"),
                );
            }
            remaining -= count;
        }
        None
    }

    /// Marks a single node as failed (idempotent; a no-op for unoccupied
    /// identifiers, which already read as failed). Useful for
    /// targeted-failure experiments.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    pub fn fail_node(&mut self, node: NodeId) {
        let _ = self.kill(node);
    }

    /// Marks a single node as failed, reporting whether the bit actually
    /// flipped (`false` for nodes already failed or unoccupied, which stay
    /// counted no-ops).
    ///
    /// This is [`FailureMask::fail_node`] with the flip made observable — the
    /// live-churn event engine uses the return value to keep its own
    /// bookkeeping (dirty-table queues, session tallies) in lockstep with the
    /// mask without a separate pre-read.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    pub fn kill(&mut self, node: NodeId) -> bool {
        assert_eq!(
            node.bits(),
            self.space.bits(),
            "node belongs to a different key space"
        );
        let value = node.value();
        let slot = &mut self.alive[(value / WORD_BITS) as usize];
        let bit = 1u64 << (value % WORD_BITS);
        if *slot & bit != 0 {
            *slot &= !bit;
            self.failed_count += 1;
            self.stamp = fresh_stamp();
            true
        } else {
            false
        }
    }

    /// Marks a single node as alive again, reporting whether the bit actually
    /// flipped (`false` for nodes already alive).
    ///
    /// The inverse of [`FailureMask::kill`], letting churn engines toggle
    /// liveness in place instead of reallocating masks per event. **Caller
    /// contract:** only *occupied* identifiers may be revived — the mask
    /// cannot distinguish "failed occupied node" from "unoccupied identifier"
    /// (both read as zero), so reviving an unoccupied identifier would corrupt
    /// the occupied-relative counts. Every caller in this workspace drives
    /// the mask from a fixed [`Population`] universe, which guarantees the
    /// contract structurally.
    ///
    /// # Panics
    ///
    /// Panics if `node` does not belong to the mask's key space.
    pub fn set_alive(&mut self, node: NodeId) -> bool {
        assert_eq!(
            node.bits(),
            self.space.bits(),
            "node belongs to a different key space"
        );
        let value = node.value();
        let slot = &mut self.alive[(value / WORD_BITS) as usize];
        let bit = 1u64 << (value % WORD_BITS);
        if *slot & bit == 0 {
            *slot |= bit;
            self.failed_count -= 1;
            self.stamp = fresh_stamp();
            true
        } else {
            false
        }
    }

    /// The mask's generation stamp: workspace-unique at construction,
    /// re-drawn whenever the failure pattern mutates, copied by `Clone`.
    ///
    /// Two masks observed with the same stamp are guaranteed to hold the same
    /// failure pattern, so derived state can be memoized by stamp alone — the
    /// compiled routing kernel keys its rank-compressed mask lowering on it,
    /// letting repeated trials over one mask reuse the O(n) lowering.
    /// Deserialized masks always get a fresh stamp (a persisted one could
    /// collide with a live lineage). The converse does not hold: equal
    /// content under different stamps is common and merely misses the memo.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.stamp
    }
}

/// The index of the `rank`-th set bit of `word` (rank 0 is the least
/// significant set bit), via a popcount binary search — six branches, no
/// loops over individual bits.
///
/// # Panics
///
/// Debug-asserts that `rank < word.count_ones()`; in release builds an
/// out-of-range rank returns a meaningless index.
#[must_use]
pub fn select_in_word(word: u64, rank: u32) -> u32 {
    debug_assert!(
        rank < word.count_ones(),
        "select rank {rank} out of range for a word with {} set bits",
        word.count_ones()
    );
    let mut remaining = rank;
    let mut shifted = word;
    let mut index = 0u32;
    for span in [32u32, 16, 8, 4, 2, 1] {
        let low = (shifted & ((1u64 << span) - 1)).count_ones();
        if remaining >= low {
            remaining -= low;
            index += span;
            shifted >>= span;
        }
    }
    index
}

/// The number of bitset words covering every identifier of `space`.
///
/// # Panics
///
/// Panics if the space has more than `2^32` identifiers.
fn word_count(space: KeySpace) -> usize {
    assert!(
        space.bits() <= 32,
        "failure masks materialise every node; {}-bit spaces are analytical-only",
        space.bits()
    );
    space.population().div_ceil(WORD_BITS) as usize
}

/// Where the occupied identifiers of a word come from during a fill.
#[derive(Debug, Clone, Copy)]
enum Occupancy {
    /// A full population of this many identifiers: every bit below it.
    Full(u64),
    /// A sparse population: the word itself holds its occupancy bits.
    Stored,
}

impl Occupancy {
    /// The occupied bits of word `index`, whose stored value is `stored`.
    fn word(self, index: usize, stored: u64) -> u64 {
        match self {
            Occupancy::Full(ids) => {
                let below = ids - index as u64 * WORD_BITS;
                if below >= WORD_BITS {
                    u64::MAX
                } else {
                    (1u64 << below) - 1
                }
            }
            Occupancy::Stored => stored,
        }
    }

    /// The number of occupied identifiers in `words`, which start at word
    /// `first_word`.
    fn count(self, first_word: usize, words: &[u64]) -> u64 {
        match self {
            Occupancy::Full(ids) => {
                let start = first_word as u64 * WORD_BITS;
                ids.min(start + words.len() as u64 * WORD_BITS) - start
            }
            Occupancy::Stored => words.iter().map(|word| u64::from(word.count_ones())).sum(),
        }
    }
}

/// Fills `words` (global word indices from `first_word` on) with alive bits
/// and returns how many it set.
///
/// `draws` must sit at the stream word of the chunk's first occupied node;
/// each occupied identifier, in ascending order, then takes the next
/// `next_u64` and survives iff `(x >> 11) >= threshold`. Every word is built
/// in a register and written once.
fn fill_words(
    words: &mut [u64],
    first_word: usize,
    occupancy: Occupancy,
    mut draws: ChaCha8Rng,
    threshold: u64,
) -> u64 {
    let mut alive_count = 0u64;
    for (index, word) in (first_word..).zip(words.iter_mut()) {
        let mut occupied = occupancy.word(index, *word);
        let mut alive = 0u64;
        while occupied != 0 {
            let bit = occupied & occupied.wrapping_neg();
            if draws.next_u64() >> 11 >= threshold {
                alive |= bit;
            }
            occupied ^= bit;
        }
        *word = alive;
        alive_count += u64::from(alive.count_ones());
    }
    alive_count
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn space(bits: u32) -> KeySpace {
        KeySpace::new(bits).unwrap()
    }

    #[test]
    fn empty_mask_has_everyone_alive() {
        let mask = FailureMask::none(space(8));
        assert_eq!(mask.failed_count(), 0);
        assert_eq!(mask.alive_count(), 256);
        assert_eq!(mask.population_size(), 256);
        assert_eq!(mask.alive_nodes().count(), 256);
        assert!(mask.is_alive(space(8).wrap(17)));
    }

    #[test]
    fn sub_word_spaces_trim_the_tail_word() {
        // A 3-bit space occupies 8 bits of a single word; the trailing 56
        // bits must stay zero so equality and word scans are canonical.
        let mask = FailureMask::none(space(3));
        assert_eq!(mask.words(), &[0xFF]);
        assert_eq!(mask.alive_count(), 8);
    }

    #[test]
    fn sampling_matches_probability_roughly() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mask = FailureMask::sample(space(14), 0.3, &mut rng);
        let fraction = mask.failed_count() as f64 / 16384.0;
        assert!((fraction - 0.3).abs() < 0.02, "fraction = {fraction}");
        assert_eq!(mask.alive_count() + mask.failed_count(), 16384);
    }

    #[test]
    fn sampling_extremes() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        assert_eq!(
            FailureMask::sample(space(8), 0.0, &mut rng).failed_count(),
            0
        );
        assert_eq!(
            FailureMask::sample(space(8), 1.0, &mut rng).failed_count(),
            256
        );
    }

    #[test]
    fn sampling_is_deterministic_for_a_seed() {
        let a = FailureMask::sample(space(10), 0.4, &mut ChaCha8Rng::seed_from_u64(9));
        let b = FailureMask::sample(space(10), 0.4, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(a, b);
    }

    /// The sequential `gen_bool` loop the chunked fill must reproduce.
    fn sequential(population: &Population, q: f64, rng: &mut ChaCha8Rng) -> FailureMask {
        let failed = population
            .iter_nodes()
            .filter(|_| rng.gen_bool(q))
            .collect::<Vec<_>>();
        let mut mask = FailureMask::none_over(population);
        for node in failed {
            mask.fail_node(node);
        }
        mask
    }

    #[test]
    fn every_worker_count_draws_the_sequential_mask_and_stream() {
        let s = space(10);
        let sparse = Population::sample_uniform(s, 333, &mut ChaCha8Rng::seed_from_u64(8)).unwrap();
        let populations = [
            Population::full(space(3)),
            Population::full(space(7)),
            Population::full(s),
            sparse,
        ];
        let edge = 1.0 / (1u64 << 53) as f64;
        for population in &populations {
            for (case, q) in [0.0, edge, 0.37, 1.0 - edge, 1.0].into_iter().enumerate() {
                let mut start = ChaCha8Rng::seed_from_u64(case as u64);
                for _ in 0..(5 * case + 3) {
                    start.next_u32(); // an offset that is not block-aligned
                }
                let mut oracle_rng = start.clone();
                let oracle = sequential(population, q, &mut oracle_rng);
                for workers in [1, 2, 3, 7] {
                    for min_chunk_words in [1, 2] {
                        let mut rng = start.clone();
                        let mask = FailureMask::sample_chunked(
                            population,
                            q,
                            &mut rng,
                            workers,
                            min_chunk_words,
                        );
                        let label = format!("{population}, q={q}, {workers} workers");
                        assert_eq!(mask, oracle, "{label}");
                        assert_eq!(rng.get_word_pos(), oracle_rng.get_word_pos(), "{label}");
                        assert_eq!(rng.next_u64(), oracle_rng.clone().next_u64(), "{label}");
                    }
                }
            }
        }
    }

    #[test]
    fn explicit_failures_and_fail_node() {
        let s = space(6);
        let mut mask = FailureMask::from_failed_nodes(s, [s.wrap(1), s.wrap(5), s.wrap(1)]);
        assert_eq!(mask.failed_count(), 2);
        assert!(mask.is_failed(s.wrap(1)));
        assert!(mask.is_alive(s.wrap(2)));
        mask.fail_node(s.wrap(2));
        mask.fail_node(s.wrap(2));
        assert_eq!(mask.failed_count(), 3);
    }

    #[test]
    fn kill_and_set_alive_round_trip() {
        let s = space(6);
        let mut mask = FailureMask::none(s);
        assert!(mask.kill(s.wrap(9)), "first kill flips the bit");
        assert!(!mask.kill(s.wrap(9)), "second kill is a no-op");
        assert_eq!(mask.failed_count(), 1);
        assert!(mask.set_alive(s.wrap(9)), "revive flips it back");
        assert!(!mask.set_alive(s.wrap(9)), "already alive is a no-op");
        assert_eq!(mask.failed_count(), 0);
        assert_eq!(mask, FailureMask::none(s), "round trip is canonical");
    }

    #[test]
    fn alive_nodes_are_exactly_the_complement() {
        let s = space(5);
        let mask = FailureMask::from_failed_nodes(s, (0..16).map(|v| s.wrap(v)));
        let alive: Vec<u64> = mask.alive_nodes().map(|n| n.value()).collect();
        assert_eq!(alive, (16..32).collect::<Vec<u64>>());
    }

    #[test]
    fn sparse_population_masks_treat_unoccupied_as_failed() {
        let s = space(6);
        let population = Population::sparse(s, [s.wrap(3), s.wrap(40), s.wrap(41)]).unwrap();
        let mask = FailureMask::none_over(&population);
        assert_eq!(mask.population_size(), 3);
        assert_eq!(mask.failed_count(), 0);
        assert_eq!(mask.alive_count(), 3);
        assert!(mask.is_alive(s.wrap(3)));
        assert!(mask.is_failed(s.wrap(4)), "unoccupied ids read as failed");
        let alive: Vec<u64> = mask.alive_nodes().map(|n| n.value()).collect();
        assert_eq!(alive, vec![3, 40, 41]);
    }

    #[test]
    fn sampling_over_a_sparse_population_only_fails_occupied_nodes() {
        let s = space(10);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let population = Population::sample_uniform(s, 300, &mut rng).unwrap();
        let mask = FailureMask::sample_over(&population, 0.5, &mut rng);
        assert_eq!(mask.population_size(), 300);
        assert_eq!(mask.alive_count() + mask.failed_count(), 300);
        assert!(mask.failed_count() > 100 && mask.failed_count() < 200);
        for node in mask.alive_nodes() {
            assert!(population.contains(node));
        }
    }

    #[test]
    fn sample_over_full_population_matches_sample() {
        let s = space(9);
        let direct = FailureMask::sample(s, 0.3, &mut ChaCha8Rng::seed_from_u64(4));
        let via_population =
            FailureMask::sample_over(&Population::full(s), 0.3, &mut ChaCha8Rng::seed_from_u64(4));
        assert_eq!(direct, via_population);
    }

    #[test]
    fn failing_an_unoccupied_identifier_is_a_counted_noop() {
        let s = space(5);
        let population = Population::sparse(s, [s.wrap(1), s.wrap(2)]).unwrap();
        let mut mask = FailureMask::none_over(&population);
        mask.fail_node(s.wrap(9));
        assert_eq!(mask.failed_count(), 0, "unoccupied ids never count");
        mask.fail_node(s.wrap(1));
        assert_eq!(mask.failed_count(), 1);
    }

    #[test]
    fn rank_and_select_are_inverse() {
        let mut rng = ChaCha8Rng::seed_from_u64(13);
        let mask = FailureMask::sample(space(10), 0.35, &mut rng);
        for (rank, node) in mask.alive_nodes().enumerate() {
            assert_eq!(mask.alive_rank(node), Some(rank as u64));
            assert_eq!(mask.select_alive(rank as u64), Some(node));
        }
        assert_eq!(mask.select_alive(mask.alive_count()), None);
        let failed = space(10)
            .iter_ids()
            .find(|&n| mask.is_failed(n))
            .expect("some node failed");
        assert_eq!(mask.alive_rank(failed), None);
    }

    #[test]
    fn select_in_word_matches_a_bit_scan() {
        for word in [1u64, 0b1010_1100, u64::MAX, 0x8000_0000_0000_0001, 0xF0F0] {
            let bits: Vec<u32> = (0..64).filter(|&b| word & (1u64 << b) != 0).collect();
            for (rank, &bit) in bits.iter().enumerate() {
                assert_eq!(select_in_word(word, rank as u32), bit, "word {word:#x}");
            }
        }
    }

    #[test]
    fn alive_words_skip_dead_regions() {
        let s = space(8);
        let mask = FailureMask::from_failed_nodes(s, (0..128).map(|v| s.wrap(v)));
        let words: Vec<(usize, u64)> = mask.alive_words().collect();
        assert_eq!(words, vec![(2, u64::MAX), (3, u64::MAX)]);
    }

    #[test]
    fn generation_tracks_content_mutations_only() {
        let s = space(6);
        let mut a = FailureMask::none(s);
        let b = FailureMask::none(s);
        assert_eq!(a, b, "stamps are excluded from equality");
        assert_ne!(a.generation(), b.generation(), "constructions are unique");

        let twin = a.clone();
        assert_eq!(a.generation(), twin.generation(), "clones share the stamp");

        let before = a.generation();
        assert!(a.kill(s.wrap(5)));
        assert_ne!(a.generation(), before, "a flip re-stamps");
        assert_eq!(twin.generation(), before, "the clone is untouched");

        let after_kill = a.generation();
        assert!(!a.kill(s.wrap(5)), "no-op kill");
        assert_eq!(a.generation(), after_kill, "no-ops keep the stamp");
        assert!(a.set_alive(s.wrap(5)));
        assert_ne!(a.generation(), after_kill, "a revive re-stamps");
    }

    #[test]
    fn deserialized_masks_get_a_fresh_generation() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let mask = FailureMask::sample(space(7), 0.4, &mut rng);
        let json = serde_json::to_string(&mask).unwrap();
        let back: FailureMask = serde_json::from_str(&json).unwrap();
        assert_eq!(mask, back, "content round-trips");
        assert_ne!(
            mask.generation(),
            back.generation(),
            "a persisted stamp must not resurrect into a live lineage"
        );
    }

    #[test]
    fn mask_round_trips_through_serde() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mask = FailureMask::sample(space(7), 0.4, &mut rng);
        let json = serde_json::to_string(&mask).unwrap();
        let back: FailureMask = serde_json::from_str(&json).unwrap();
        assert_eq!(mask, back);
    }

    #[test]
    #[should_panic(expected = "different key space")]
    fn mismatched_space_panics() {
        let mask = FailureMask::none(space(5));
        let other = KeySpace::new(6).unwrap();
        let _ = mask.is_failed(other.wrap(3));
    }
}
