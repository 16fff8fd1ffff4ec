//! Trace-driven set-associative cache simulation.
//!
//! This is the DineroIII stand-in used as ground truth, and the one
//! simulator every replay runs on. By default it is the paper's Section
//! 2.3 machine — a write-allocate, fetch-on-write cache with true LRU
//! replacement per set — but [`Simulator::for_model`] replays any
//! [`CacheModel`]: a replacement policy ([`PolicyKind`]), a store handling
//! ([`WritePolicy`]) and an optional inclusive second level. Reads and
//! writes hit and miss identically under the default model, so the
//! simulator takes bare element addresses.
//!
//! # Two levels
//!
//! With an L2, the hierarchy is *inclusive*: the L1 miss stream feeds L2,
//! and an L2 eviction back-invalidates any L1 copy so L1 contents stay a
//! subset of L2's. Outcomes are classified at L1 (the level the analytic
//! model describes). Both levels share the replacement and write policy,
//! and write traffic follows the [`WritePolicy`]:
//!
//! - **Write-back**: a dirty L1 eviction folds into L2 (the line is marked
//!   dirty there instead of being counted as memory traffic); memory
//!   write traffic is L2's write-backs plus the rare *escapes* — dirty
//!   data displaced while its line was absent from L2.
//! - **Write-through**: every CPU store is memory traffic (stores
//!   propagate through all levels), which is exactly L1's write counter.

use crate::config::CacheConfig;
use crate::model::CacheModel;
use crate::policy::{PolicyKind, Replacement, WritePolicy};
use std::collections::HashSet;

/// The result of one memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessOutcome {
    /// The line was resident.
    Hit,
    /// First-ever touch of the memory line (compulsory miss).
    ColdMiss,
    /// The line had been touched before but was not resident (conflict or
    /// capacity miss — the paper's replacement misses).
    ReplacementMiss,
}

impl AccessOutcome {
    /// Returns `true` for either miss kind.
    pub fn is_miss(&self) -> bool {
        !matches!(self, AccessOutcome::Hit)
    }
}

/// A set-associative cache simulator: one level, or two inclusive levels
/// (see the module docs).
///
/// # Examples
///
/// ```
/// use cme_cache::{AccessOutcome, CacheConfig, Simulator};
/// let cfg = CacheConfig::new(64, 1, 16, 4)?; // 4 sets, 4-elem lines
/// let mut sim = Simulator::new(cfg);
/// assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
/// assert_eq!(sim.access(3), AccessOutcome::Hit);
/// // 64B/4B = 16 elements span the cache; +16 conflicts with set 0:
/// assert_eq!(sim.access(16), AccessOutcome::ColdMiss);
/// assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
/// # Ok::<(), cme_cache::CacheConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    l1: Level,
    /// The inclusive outer level of a two-level model.
    l2: Option<Level>,
    /// Dirty write-backs that bypassed L2 because the line was no longer
    /// resident there (inclusion races around back-invalidation and the
    /// end-of-run drain). Counted as direct memory traffic.
    escapes: u64,
}

impl Simulator {
    /// Creates an empty (fully cold) cache with the paper's default model:
    /// true-LRU replacement, write-back/write-allocate stores.
    pub fn new(config: CacheConfig) -> Self {
        Simulator::for_model(&CacheModel::new(config))
    }

    /// Creates an empty cache replaying `model`: its replacement and
    /// write policy, and its inclusive L2 if it has one.
    pub fn for_model(model: &CacheModel) -> Self {
        let level = |config| Level::new(config, model.policy_kind(), model.write_policy());
        Simulator {
            l1: level(model.l1()),
            l2: model.l2().map(level),
            escapes: 0,
        }
    }

    /// Performs one read access (outcome at L1).
    pub fn access(&mut self, addr_elems: i64) -> AccessOutcome {
        self.access_kind(addr_elems, false)
    }

    /// Performs one write access. Under the default write-back /
    /// write-allocate model, hit/miss behavior is identical to a read and
    /// the line is additionally marked dirty; under write-through /
    /// no-allocate, the store is counted as memory write traffic and a
    /// store miss does not install the line.
    pub fn write(&mut self, addr_elems: i64) -> AccessOutcome {
        self.access_kind(addr_elems, true)
    }

    /// Performs one access (outcome at L1).
    #[inline]
    pub fn access_kind(&mut self, addr_elems: i64, is_write: bool) -> AccessOutcome {
        let (outcome, l1_evicted) = self.l1.access(addr_elems, is_write);
        let Some(l2) = &mut self.l2 else {
            return outcome;
        };
        if outcome.is_miss() {
            if let (_, Some((line, _))) = l2.access(addr_elems, is_write) {
                // Inclusion: the line leaves L1 too. A dirty L1 copy is
                // fresher than anything L2 wrote back, so it goes straight
                // to memory.
                if self.l1.invalidate(line) == Some(true) {
                    self.escapes += 1;
                }
            }
        }
        if let Some((line, true)) = l1_evicted {
            if !l2.mark_dirty(line) {
                self.escapes += 1;
            }
        }
        outcome
    }

    /// Number of accesses simulated (CPU-side, i.e. at L1).
    pub fn accesses(&self) -> u64 {
        self.l1.accesses
    }

    /// Number of L1 hits.
    pub fn hits(&self) -> u64 {
        self.l1.hits
    }

    /// Number of L1 cold (compulsory) misses.
    pub fn cold_misses(&self) -> u64 {
        self.l1.cold
    }

    /// Number of L1 replacement (conflict + capacity) misses.
    pub fn replacement_misses(&self) -> u64 {
        self.l1.replacement
    }

    /// Total L1 misses.
    pub fn misses(&self) -> u64 {
        self.l1.misses()
    }

    /// Total L2 misses, if the model is two-level.
    pub fn l2_misses(&self) -> Option<u64> {
        self.l2.as_ref().map(Level::misses)
    }

    /// Write traffic that reached memory so far: dirty lines written back
    /// on eviction under write-back (lines still dirty in the cache are
    /// not counted until [`Simulator::drain_dirty`]), or every store under
    /// write-through. With an L2 under write-back that is L2's write-backs
    /// plus the inclusion escapes.
    pub fn writebacks(&self) -> u64 {
        match &self.l2 {
            Some(l2) if self.l1.write == WritePolicy::WriteBack => l2.writebacks + self.escapes,
            _ => self.l1.writebacks,
        }
    }

    /// Flushes every resident dirty line to memory, counting the final
    /// write-backs; the cache contents stay resident (clean). With an L2,
    /// L1's dirty lines fold into L2 first (escapes counted for lines L2
    /// no longer holds), then L2 drains.
    pub fn drain_dirty(&mut self) {
        match &mut self.l2 {
            None => self.l1.writebacks += self.l1.take_dirty_lines().len() as u64,
            Some(l2) => {
                for line in self.l1.take_dirty_lines() {
                    if !l2.mark_dirty(line) {
                        self.escapes += 1;
                    }
                }
                l2.writebacks += l2.take_dirty_lines().len() as u64;
            }
        }
    }
}

/// One cache level: its way slots, replacement state, cold-line history
/// and counters.
#[derive(Debug, Clone)]
struct Level {
    config: CacheConfig,
    write: WritePolicy,
    /// Per-set way slots: the resident memory line and its dirty bit.
    /// `None` marks an empty (or back-invalidated) way.
    slots: Vec<Vec<Option<(i64, bool)>>>,
    /// The victim-selection state machine (recency metadata only).
    policy: Replacement,
    /// Every memory line ever touched (for cold-miss classification).
    seen: HashSet<i64>,
    accesses: u64,
    hits: u64,
    cold: u64,
    replacement: u64,
    /// Write traffic to the next level: dirty evictions under write-back,
    /// every store under write-through.
    writebacks: u64,
}

impl Level {
    fn new(config: CacheConfig, policy: PolicyKind, write: WritePolicy) -> Self {
        let num_sets = config.num_sets() as usize;
        let ways = config.assoc() as usize;
        Level {
            config,
            write,
            slots: vec![vec![None; ways]; num_sets],
            policy: Replacement::new(policy, num_sets, ways),
            seen: HashSet::new(),
            accesses: 0,
            hits: 0,
            cold: 0,
            replacement: 0,
            writebacks: 0,
        }
    }

    fn misses(&self) -> u64 {
        self.cold + self.replacement
    }

    /// Performs one access and reports the line it displaced, if any, with
    /// that line's dirty bit.
    fn access(&mut self, addr_elems: i64, is_write: bool) -> (AccessOutcome, Option<(i64, bool)>) {
        self.accesses += 1;
        let line = self.config.memory_line(addr_elems);
        let set = self.config.set_of_line(line) as usize;
        if let Some(way) = self.slots[set]
            .iter()
            .position(|s| s.map(|(l, _)| l) == Some(line))
        {
            self.policy.touch(set, way);
            match (is_write, self.write) {
                (true, WritePolicy::WriteBack) => self.slots[set][way] = Some((line, true)),
                (true, WritePolicy::WriteThrough) => self.writebacks += 1,
                (false, _) => {}
            }
            self.hits += 1;
            return (AccessOutcome::Hit, None);
        }
        // Miss. Cold vs replacement is a property of the reference stream
        // (first-ever touch of the line), not of the allocation decision,
        // so a non-allocating store miss still consumes the line's cold
        // classification.
        let outcome = if self.seen.insert(line) {
            self.cold += 1;
            AccessOutcome::ColdMiss
        } else {
            self.replacement += 1;
            AccessOutcome::ReplacementMiss
        };
        if is_write && self.write == WritePolicy::WriteThrough {
            self.writebacks += 1;
            // No-allocate: the store goes straight through to memory.
            return (outcome, None);
        }
        // Fill an empty way if there is one, else evict the policy's victim.
        let way = self.slots[set]
            .iter()
            .position(Option::is_none)
            .unwrap_or_else(|| self.policy.victim(set));
        let dirty = is_write && self.write == WritePolicy::WriteBack;
        let evicted = self.slots[set][way].replace((line, dirty));
        if let Some((_, true)) = evicted {
            self.writebacks += 1;
        }
        self.policy.fill(set, way);
        (outcome, evicted)
    }

    /// The way slot holding `line`, if resident.
    fn slot_of(&mut self, line: i64) -> Option<&mut Option<(i64, bool)>> {
        let set = self.config.set_of_line(line) as usize;
        self.slots[set]
            .iter_mut()
            .find(|s| s.is_some_and(|(l, _)| l == line))
    }

    /// Removes `line` if resident — the inclusion back-invalidation an
    /// outer level issues when it evicts the line — and returns the
    /// dropped copy's dirty bit. No statistics are touched; the caller
    /// owns the accounting for the displaced data.
    fn invalidate(&mut self, line: i64) -> Option<bool> {
        self.slot_of(line)?.take().map(|(_, dirty)| dirty)
    }

    /// Marks `line` dirty if resident (a dirty eviction arriving from an
    /// inner level). Returns whether the line was resident.
    fn mark_dirty(&mut self, line: i64) -> bool {
        match self.slot_of(line) {
            Some(Some((_, dirty))) => {
                *dirty = true;
                true
            }
            _ => false,
        }
    }

    /// Clears every dirty bit and returns the lines that were dirty; the
    /// caller decides where their data goes.
    fn take_dirty_lines(&mut self) -> Vec<i64> {
        let mut lines = Vec::new();
        for slot in self.slots.iter_mut().flatten().flatten() {
            if std::mem::take(&mut slot.1) {
                lines.push(slot.0);
            }
        }
        lines
    }

    /// The memory lines currently resident, in no particular order.
    #[cfg(test)]
    fn resident_lines(&self) -> Vec<i64> {
        self.slots
            .iter()
            .flatten()
            .flatten()
            .map(|&(l, _)| l)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg(size: i64, assoc: i64, line: i64) -> CacheConfig {
        CacheConfig::new(size, assoc, line, 4).unwrap()
    }

    fn modeled(cfg: CacheConfig, policy: PolicyKind, write: WritePolicy) -> Simulator {
        Simulator::for_model(&CacheModel::new(cfg).policy(policy).write(write))
    }

    /// A cold two-level LRU hierarchy with 16B lines.
    fn two_level(l1_size: i64, l2_size: i64, assoc: i64, write: WritePolicy) -> Simulator {
        let l1 = CacheConfig::new(l1_size, assoc, 16, 4).unwrap();
        let l2 = CacheConfig::new(l2_size, assoc, 16, 4).unwrap();
        Simulator::for_model(&CacheModel::new(l1).write(write).with_l2(l2).unwrap())
    }

    fn l2(sim: &Simulator) -> &Level {
        sim.l2.as_ref().expect("two-level simulator")
    }

    fn lcg_trace(len: usize, lines: i64) -> Vec<(i64, bool)> {
        let mut x = 99991u64;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (((x >> 33) as i64).rem_euclid(lines) * 4, x & 1 == 0)
            })
            .collect()
    }

    #[test]
    fn spatial_locality_hits_within_line() {
        let mut sim = Simulator::new(cfg(8192, 1, 32)); // 8-elem lines
        assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
        for a in 1..8 {
            assert_eq!(sim.access(a), AccessOutcome::Hit, "addr {a}");
        }
        assert_eq!(sim.access(8), AccessOutcome::ColdMiss);
        assert_eq!(sim.misses(), 2);
        assert_eq!(sim.hits(), 7);
        assert_eq!(sim.accesses(), 9);
    }

    #[test]
    fn direct_mapped_conflict_ping_pong() {
        let mut sim = Simulator::new(cfg(64, 1, 16)); // 4 sets, 4-elem lines, 16-elem span
        assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
        assert_eq!(sim.access(16), AccessOutcome::ColdMiss);
        for _ in 0..3 {
            assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
            assert_eq!(sim.access(16), AccessOutcome::ReplacementMiss);
        }
        assert_eq!(sim.replacement_misses(), 6);
        assert_eq!(sim.cold_misses(), 2);
    }

    #[test]
    fn two_way_absorbs_pairwise_conflict() {
        let mut sim = Simulator::new(CacheConfig::new(128, 2, 16, 4).unwrap()); // 4 sets
                                                                                // Lines 0 and 8 map to set 0 (way span = 16 elements, 4 lines/way).
        assert_eq!(sim.access(0), AccessOutcome::ColdMiss);
        assert_eq!(sim.access(16), AccessOutcome::ColdMiss);
        for _ in 0..4 {
            assert_eq!(sim.access(0), AccessOutcome::Hit);
            assert_eq!(sim.access(16), AccessOutcome::Hit);
        }
        // A third conflicting line evicts the LRU of the two.
        assert_eq!(sim.access(32), AccessOutcome::ColdMiss);
        assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
    }

    #[test]
    fn lru_order_is_true_lru() {
        let mut sim = Simulator::new(CacheConfig::new(128, 2, 16, 4).unwrap());
        sim.access(0); // line A -> MRU
        sim.access(16); // line B -> MRU, A LRU
        sim.access(0); // A -> MRU, B LRU
        sim.access(32); // C evicts B
        assert_eq!(sim.access(0), AccessOutcome::Hit);
        assert_eq!(sim.access(16), AccessOutcome::ReplacementMiss);
    }

    #[test]
    fn fifo_ignores_recency() {
        // Same trace as `lru_order_is_true_lru`, FIFO policy: re-touching
        // line A does not refresh it, so C evicts A (the oldest), not B.
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        let mut sim = modeled(cfg, PolicyKind::Fifo, WritePolicy::WriteBack);
        sim.access(0); // A
        sim.access(16); // B
        sim.access(0); // A hit — no-op for FIFO order
        sim.access(32); // C evicts A
        assert_eq!(sim.access(16), AccessOutcome::Hit);
        assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
    }

    #[test]
    fn plru_matches_lru_at_two_ways() {
        // Tree-PLRU over two ways is exactly LRU: replay a pseudo-random
        // conflict trace under both policies and compare counters.
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        let mut lru = Simulator::new(cfg);
        let mut plru = modeled(cfg, PolicyKind::Plru, WritePolicy::WriteBack);
        let mut x = 12345u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let addr = ((x >> 33) % 6) as i64 * 16; // 6 lines over 4 sets
            assert_eq!(lru.access(addr), plru.access(addr));
        }
        assert_eq!(lru.misses(), plru.misses());
    }

    #[test]
    fn write_through_stores_count_traffic_and_do_not_allocate() {
        let cfg = CacheConfig::new(64, 1, 16, 4).unwrap();
        let mut sim = modeled(cfg, PolicyKind::Lru, WritePolicy::WriteThrough);
        // Store miss: goes to memory, does not install the line.
        assert_eq!(sim.write(0), AccessOutcome::ColdMiss);
        assert_eq!(sim.writebacks(), 1);
        assert!(sim.l1.resident_lines().is_empty());
        // A second store miss to the same never-resident line is a
        // replacement miss by the first-touch classification.
        assert_eq!(sim.write(0), AccessOutcome::ReplacementMiss);
        // Read installs it; a store hit writes through without dirtying.
        assert_eq!(sim.access(0), AccessOutcome::ReplacementMiss);
        assert_eq!(sim.write(0), AccessOutcome::Hit);
        assert_eq!(sim.writebacks(), 3);
        sim.drain_dirty();
        assert_eq!(sim.writebacks(), 3, "write-through lines are never dirty");
    }

    #[test]
    fn eviction_reporting_and_back_invalidation() {
        let cfg = CacheConfig::new(64, 1, 16, 4).unwrap(); // 4 sets
        let mut sim = Simulator::new(cfg);
        assert_eq!(sim.write(0), AccessOutcome::ColdMiss);
        // Conflicts with line 0, which leaves dirty.
        let (outcome, evicted) = sim.l1.access(16, false);
        assert_eq!(outcome, AccessOutcome::ColdMiss);
        assert_eq!(evicted, Some((0, true)));
        assert_eq!(sim.writebacks(), 1);
        // Back-invalidate the resident line; it must be gone afterwards.
        assert_eq!(sim.l1.invalidate(4), Some(false));
        assert_eq!(sim.l1.invalidate(4), None);
        assert!(sim.l1.resident_lines().is_empty());
        // mark_dirty on a resident line makes drain count it.
        sim.access(0);
        assert!(sim.l1.mark_dirty(0));
        assert!(!sim.l1.mark_dirty(99));
        assert_eq!(sim.l1.take_dirty_lines(), vec![0]);
        sim.drain_dirty();
        assert_eq!(sim.writebacks(), 1, "taken lines are not double counted");
    }

    #[test]
    fn negative_addresses_are_legal() {
        let mut sim = Simulator::new(cfg(64, 1, 16));
        assert_eq!(sim.access(-1), AccessOutcome::ColdMiss);
        assert_eq!(sim.access(-4), AccessOutcome::Hit); // same line [-4,-1]
        assert_eq!(sim.access(-5), AccessOutcome::ColdMiss);
    }

    #[test]
    fn fully_associative_is_capacity_only_for_cyclic_sweep() {
        // 4-line fully associative cache; sweep over 4 lines repeatedly: all hits.
        let mut sim = Simulator::new(CacheConfig::fully_associative(64, 16, 4).unwrap());
        let lines = [0i64, 4, 8, 12];
        for &l in &lines {
            assert!(sim.access(l).is_miss());
        }
        for _ in 0..3 {
            for &l in &lines {
                assert_eq!(sim.access(l), AccessOutcome::Hit);
            }
        }
        // Sweep over 5 lines cyclically: LRU thrashes every access.
        let mut sim = Simulator::new(CacheConfig::fully_associative(64, 16, 4).unwrap());
        let lines5 = [0i64, 4, 8, 12, 16];
        for _ in 0..3 {
            for &l in &lines5 {
                assert!(sim.access(l).is_miss());
            }
        }
    }

    #[test]
    fn l2_sees_only_the_l1_miss_stream() {
        let mut hier = two_level(64, 256, 1, WritePolicy::WriteBack);
        // A unit-stride sweep: L1 misses once per line, L2 sees exactly
        // those misses (all cold there too).
        for a in 0..64 {
            hier.access(a);
        }
        assert_eq!(hier.misses(), 16); // 64 elems / 4 per line
        assert_eq!(l2(&hier).accesses, hier.misses());
        assert_eq!(hier.l2_misses(), Some(16));
    }

    #[test]
    fn large_l2_absorbs_l1_capacity_misses() {
        // Working set fits L2 but thrashes L1: the second sweep misses in
        // L1 but hits in L2.
        let mut hier = two_level(64, 1024, 1, WritePolicy::WriteBack);
        for _ in 0..2 {
            for a in 0..128 {
                hier.access(a);
            }
        }
        assert!(hier.replacement_misses() > 0);
        assert_eq!(hier.l2_misses(), Some(32), "all 32 lines fit L2");
        assert_eq!(l2(&hier).hits, l2(&hier).accesses - 32);
    }

    #[test]
    fn inclusion_holds_on_random_traces() {
        let mut hier = two_level(64, 256, 2, WritePolicy::WriteBack);
        for (a, w) in lcg_trace(4000, 200) {
            hier.access_kind(a, w);
            let l2: HashSet<i64> = l2(&hier).resident_lines().into_iter().collect();
            for line in hier.l1.resident_lines() {
                assert!(l2.contains(&line), "L1 line {line} missing from L2");
            }
        }
    }

    #[test]
    fn writeback_traffic_is_conserved_on_random_traces() {
        // Every dirtied line's data must reach memory exactly once by the
        // end: via an L2 write-back or an escape. Compare against a
        // single write-back-per-dirtied-line lower bound.
        let mut hier = two_level(64, 256, 2, WritePolicy::WriteBack);
        let trace = lcg_trace(2000, 100);
        let mut dirtied = HashSet::new();
        for &(a, w) in &trace {
            hier.access_kind(a, w);
            if w {
                dirtied.insert(a / 4);
            }
        }
        hier.drain_dirty();
        assert!(hier.writebacks() >= dirtied.len() as u64 / 2);
        assert!(hier.writebacks() <= trace.iter().filter(|&&(_, w)| w).count() as u64);
    }

    #[test]
    fn write_through_counts_every_store() {
        let mut hier = two_level(64, 256, 1, WritePolicy::WriteThrough);
        for a in 0..32 {
            hier.write(a);
            hier.access(a);
        }
        hier.drain_dirty();
        assert_eq!(hier.writebacks(), 32);
    }

    proptest! {
        /// Invariant: cold misses equal the number of distinct lines touched,
        /// and outcome counts always sum to accesses — under every policy.
        #[test]
        fn prop_cold_misses_equal_distinct_lines(
            addrs in proptest::collection::vec(0i64..512, 1..200),
            assoc in prop_oneof![Just(1i64), Just(2), Just(4)],
            policy in prop_oneof![
                Just(PolicyKind::Lru), Just(PolicyKind::Fifo), Just(PolicyKind::Plru)
            ],
        ) {
            let cfg = CacheConfig::new(256, assoc, 16, 4).unwrap();
            let mut sim = modeled(cfg, policy, WritePolicy::WriteBack);
            let mut distinct = std::collections::HashSet::new();
            for &a in &addrs {
                sim.access(a);
                distinct.insert(cfg.memory_line(a));
            }
            prop_assert_eq!(sim.cold_misses(), distinct.len() as u64);
            prop_assert_eq!(sim.hits() + sim.misses(), sim.accesses());
        }

        /// LRU stack inclusion: with the SAME number of sets, a (k+1)-way
        /// cache holds a superset of every k-way cache's contents (each set
        /// keeps the top of its own LRU stack), so its misses never exceed
        /// the k-way cache's on any trace.
        #[test]
        fn prop_lru_stack_inclusion_same_sets(
            addrs in proptest::collection::vec(0i64..512, 1..150),
        ) {
            // Both have 8 sets of 16B lines; ways 1 vs 2 vs 4.
            let c1 = CacheConfig::new(128, 1, 16, 4).unwrap();
            let c2 = CacheConfig::new(256, 2, 16, 4).unwrap();
            let c4 = CacheConfig::new(512, 4, 16, 4).unwrap();
            prop_assert_eq!(c1.num_sets(), c2.num_sets());
            prop_assert_eq!(c2.num_sets(), c4.num_sets());
            let (mut s1, mut s2, mut s4) =
                (Simulator::new(c1), Simulator::new(c2), Simulator::new(c4));
            for &a in &addrs {
                s1.access(a);
                s2.access(a);
                s4.access(a);
            }
            prop_assert!(s2.misses() <= s1.misses());
            prop_assert!(s4.misses() <= s2.misses());
        }

        /// Every policy behaves identically on a direct-mapped cache (there
        /// is only one victim to pick), including write-back accounting.
        #[test]
        fn prop_direct_mapped_is_policy_independent(
            addrs in proptest::collection::vec((0i64..256, proptest::bool::ANY), 1..120),
        ) {
            let cfg = CacheConfig::new(128, 1, 16, 4).unwrap();
            let mut sims: Vec<Simulator> = PolicyKind::ALL
                .iter()
                .map(|&p| modeled(cfg, p, WritePolicy::WriteBack))
                .collect();
            for &(a, w) in &addrs {
                let outcomes: Vec<AccessOutcome> = sims
                    .iter_mut()
                    .map(|s| if w { s.write(a) } else { s.access(a) })
                    .collect();
                prop_assert!(outcomes.windows(2).all(|o| o[0] == o[1]));
            }
            for s in &mut sims {
                s.drain_dirty();
            }
            let agree = sims.windows(2).all(|s| {
                s[0].writebacks() == s[1].writebacks() && s[0].misses() == s[1].misses()
            });
            prop_assert!(agree);
        }
    }
}
