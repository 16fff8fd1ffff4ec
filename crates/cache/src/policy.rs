//! Replacement and write policies.
//!
//! The paper's Section 2.3 machine is true-LRU with write-allocate /
//! fetch-on-write stores; [`Simulator`](crate::Simulator) keeps that as its
//! default. [`PolicyKind`] names the victim-selection rule (LRU, FIFO or
//! tree-PLRU) and [`WritePolicy`] the store handling (write-back/allocate
//! or write-through/no-allocate); a [`CacheModel`](crate::CacheModel)
//! combines them, and [`Simulator::for_model`](crate::Simulator::for_model)
//! replays it. Both carry the stable wire spellings the model layer
//! (`CacheModel`, the serve protocol, `.cme` corpus directives) uses to
//! name a policy.

use std::fmt;

/// The per-set replacement state of one cache level, one variant per
/// [`PolicyKind`]: which way a full set evicts next.
///
/// The simulator owns the resident lines and dirty bits; this only tracks
/// *ordering* metadata per `(set, way)` slot. It is told about every hit
/// ([`touch`](Replacement::touch)) and every install
/// ([`fill`](Replacement::fill)); [`victim`](Replacement::victim) is only
/// asked about full sets.
#[derive(Debug, Clone)]
pub(crate) enum Replacement {
    /// True least-recently-used: per-set way indices, most recently used
    /// first. This reproduces the paper's Section 2.3 machine exactly (and
    /// the LRU stack-inclusion property the analytic criterion relies
    /// on). A stack's length equals its set's occupancy (promotion
    /// de-duplicates), so `last()` is the LRU way once the set is full.
    Lru(Vec<Vec<u32>>),
    /// First-in first-out: a per-set round-robin fill pointer at the
    /// oldest way. Hits do not refresh a line's position — the defining
    /// difference from LRU, and the reason the analytic LRU result is only
    /// a bound here.
    Fifo {
        /// Per-set index of the oldest way (the next victim once full).
        next: Vec<u32>,
        /// Ways per set.
        ways: u32,
    },
    /// Tree pseudo-LRU: one bit per internal node of a binary tree over
    /// the ways; each bit points toward the pseudo-least-recently-used
    /// subtree. An access flips the bits on its root-to-leaf path away
    /// from itself; the victim walk follows the bits.
    Plru {
        /// `num_sets × (leaves − 1)` bits in heap order per set; `true`
        /// means the pseudo-LRU line is in the right subtree.
        bits: Vec<bool>,
        /// Leaf count: `ways` rounded up to a power of two. `CacheConfig`
        /// only produces power-of-two associativities, so the rounding is
        /// a no-op in practice.
        leaves: usize,
        /// Ways per set.
        ways: usize,
        /// Tree depth, `log2(leaves)`.
        levels: u32,
    },
}

impl Replacement {
    /// Cold state for `num_sets` sets of `ways` ways under `kind`.
    pub(crate) fn new(kind: PolicyKind, num_sets: usize, ways: usize) -> Self {
        let ways = ways.max(1);
        match kind {
            PolicyKind::Lru => Replacement::Lru(vec![Vec::new(); num_sets]),
            PolicyKind::Fifo => Replacement::Fifo {
                next: vec![0; num_sets],
                ways: ways as u32,
            },
            PolicyKind::Plru => {
                let leaves = ways.next_power_of_two();
                Replacement::Plru {
                    bits: vec![false; num_sets * (leaves - 1)],
                    leaves,
                    ways,
                    levels: leaves.trailing_zeros(),
                }
            }
        }
    }

    /// Records a hit on `way` of `set`.
    #[inline]
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        match self {
            Replacement::Lru(stacks) => promote(&mut stacks[set], way),
            Replacement::Fifo { .. } => {}
            Replacement::Plru {
                bits,
                leaves,
                levels,
                ..
            } => point_away(&mut bits[set * (*leaves - 1)..], *levels, way),
        }
    }

    /// Records a line newly installed in `way` of `set`.
    pub(crate) fn fill(&mut self, set: usize, way: usize) {
        match self {
            Replacement::Fifo { next, ways } => {
                // Cold fills walk ways in order, so advancing on
                // `way == next` keeps `next` at the oldest resident line
                // once the set is full.
                if next[set] == way as u32 {
                    next[set] = (way as u32 + 1) % *ways;
                }
            }
            _ => self.touch(set, way),
        }
    }

    /// The way a full `set` should evict next.
    pub(crate) fn victim(&self, set: usize) -> usize {
        match self {
            Replacement::Lru(stacks) => stacks[set].last().copied().unwrap_or(0) as usize,
            Replacement::Fifo { next, .. } => next[set] as usize,
            Replacement::Plru {
                bits,
                leaves,
                ways,
                levels,
            } => {
                let base = set * (leaves - 1);
                let mut idx = 0usize;
                let mut way = 0usize;
                for _ in 0..*levels {
                    let dir = bits[base + idx] as usize;
                    way = (way << 1) | dir;
                    idx = 2 * idx + 1 + dir;
                }
                way % ways
            }
        }
    }
}

/// Moves `way` to the most-recently-used end of an LRU stack.
fn promote(stack: &mut Vec<u32>, way: usize) {
    if let Some(pos) = stack.iter().position(|&w| w == way as u32) {
        stack.remove(pos);
    }
    stack.insert(0, way as u32);
}

/// Points every tree-PLRU bit on `way`'s root-to-leaf path away from it;
/// `bits` starts at the set's tree.
fn point_away(bits: &mut [bool], levels: u32, way: usize) {
    let mut idx = 0usize;
    for level in (0..levels).rev() {
        let dir = (way >> level) & 1;
        bits[idx] = dir == 0;
        idx = 2 * idx + 1 + dir;
    }
}

/// The replacement policies the model layer can name. The spellings of
/// [`PolicyKind::as_str`] are part of the wire contract (`CacheSpec`
/// JSON, `.cme` corpus `! model:` directives) and must never change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PolicyKind {
    /// True least-recently-used — the paper's model and the default.
    #[default]
    Lru,
    /// First-in first-out (round-robin).
    Fifo,
    /// Tree pseudo-LRU.
    Plru,
}

impl PolicyKind {
    /// Every policy, in wire-spelling order (for sweeps and tests).
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Lru, PolicyKind::Fifo, PolicyKind::Plru];

    /// The stable wire spelling: `"lru"`, `"fifo"`, or `"plru"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            PolicyKind::Lru => "lru",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Plru => "plru",
        }
    }

    /// Parses a wire spelling; `None` for unknown policies.
    pub fn parse(s: &str) -> Option<PolicyKind> {
        match s {
            "lru" => Some(PolicyKind::Lru),
            "fifo" => Some(PolicyKind::Fifo),
            "plru" => Some(PolicyKind::Plru),
            _ => None,
        }
    }
}

impl fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How stores interact with the cache. The spellings of
/// [`WritePolicy::as_str`] are part of the wire contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Write-back with write-allocate / fetch-on-write — the paper's
    /// Section 2.3 model and the default. Stores dirty the line; dirty
    /// evictions (and the end-of-run drain) count as write-backs.
    #[default]
    WriteBack,
    /// Write-through with no-allocate: every store is counted as memory
    /// write traffic, a store miss does not install the line, and lines
    /// are never dirty.
    WriteThrough,
}

impl WritePolicy {
    /// The stable wire spelling: `"write-back"` or `"write-through"`.
    pub fn as_str(&self) -> &'static str {
        match self {
            WritePolicy::WriteBack => "write-back",
            WritePolicy::WriteThrough => "write-through",
        }
    }

    /// Parses a wire spelling (the short forms `"wb"`/`"wt"` are accepted
    /// on input); `None` for unknown policies.
    pub fn parse(s: &str) -> Option<WritePolicy> {
        match s {
            "write-back" | "wb" => Some(WritePolicy::WriteBack),
            "write-through" | "wt" => Some(WritePolicy::WriteThrough),
            _ => None,
        }
    }
}

impl fmt::Display for WritePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_victim_is_least_recently_touched() {
        let mut lru = Replacement::new(PolicyKind::Lru, 1, 3);
        lru.fill(0, 0);
        lru.fill(0, 1);
        lru.fill(0, 2);
        lru.touch(0, 0); // order now 0, 2, 1 (MRU first)
        assert_eq!(lru.victim(0), 1);
        lru.touch(0, 1);
        assert_eq!(lru.victim(0), 2);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut fifo = Replacement::new(PolicyKind::Fifo, 1, 4);
        for w in 0..4 {
            fifo.fill(0, w);
        }
        fifo.touch(0, 0); // a hit must not refresh way 0
        assert_eq!(fifo.victim(0), 0);
        fifo.fill(0, 0); // replace way 0; oldest is now way 1
        assert_eq!(fifo.victim(0), 1);
    }

    #[test]
    fn plru_never_victimizes_the_just_touched_way() {
        let mut plru = Replacement::new(PolicyKind::Plru, 1, 8);
        for w in 0..8 {
            plru.fill(0, w);
        }
        for w in 0..8 {
            plru.touch(0, w);
            assert_ne!(plru.victim(0), w, "victim must avoid the MRU way");
        }
    }

    #[test]
    fn plru_with_two_ways_degenerates_to_lru() {
        let mut plru = Replacement::new(PolicyKind::Plru, 1, 2);
        plru.fill(0, 0);
        plru.fill(0, 1);
        plru.touch(0, 0);
        assert_eq!(plru.victim(0), 1);
        plru.touch(0, 1);
        assert_eq!(plru.victim(0), 0);
    }

    #[test]
    fn single_way_policies_always_evict_way_zero() {
        for kind in PolicyKind::ALL {
            let mut p = Replacement::new(kind, 2, 1);
            p.fill(1, 0);
            assert_eq!(p.victim(1), 0, "{kind}");
        }
    }

    #[test]
    fn wire_spellings_round_trip() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(kind.as_str()), Some(kind));
        }
        for wp in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
            assert_eq!(WritePolicy::parse(wp.as_str()), Some(wp));
        }
        assert_eq!(WritePolicy::parse("wb"), Some(WritePolicy::WriteBack));
        assert_eq!(WritePolicy::parse("wt"), Some(WritePolicy::WriteThrough));
        assert_eq!(PolicyKind::parse("random"), None);
        assert_eq!(WritePolicy::parse("write-around"), None);
        assert_eq!(PolicyKind::default(), PolicyKind::Lru);
        assert_eq!(WritePolicy::default(), WritePolicy::WriteBack);
    }
}
