//! The headline generalization of the paper: the same CME machinery is
//! exact for caches of *arbitrary associativity*. Sweep k ∈ {1, 2, 4, 8,
//! full} on several kernels and compare against the simulator. The last
//! test pins the simulator itself across replacement policies, write
//! policies and a second level.

use cme::cache::{
    simulate_nest, simulate_nest_model, CacheConfig, CacheModel, PolicyKind, WritePolicy,
};
use cme::core::solve::reference_analysis;
use cme::core::AnalysisOptions;
use cme::kernels;

fn check(nest: &cme::ir::LoopNest, cache: CacheConfig) {
    let analysis = reference_analysis(nest, cache, &AnalysisOptions::default());
    let sim = simulate_nest(nest, cache);
    assert_eq!(
        analysis.total_misses(),
        sim.total().misses(),
        "`{}` on {cache}",
        nest.name()
    );
}

#[test]
fn mmult_across_associativities() {
    let nest = kernels::mmult_with_bases(12, 0, 144, 288);
    for assoc in [1, 2, 4, 8] {
        check(&nest, CacheConfig::new(1024, assoc, 32, 4).unwrap());
    }
}

#[test]
fn mmult_fully_associative() {
    let nest = kernels::mmult_with_bases(12, 0, 144, 288);
    check(&nest, CacheConfig::fully_associative(512, 32, 4).unwrap());
}

#[test]
fn sor_across_associativities() {
    let nest = kernels::sor(20);
    for assoc in [1, 2, 4] {
        check(&nest, CacheConfig::new(512, assoc, 16, 4).unwrap());
    }
}

#[test]
fn adi_across_associativities() {
    let nest = kernels::adi(12);
    for assoc in [1, 2, 4] {
        check(&nest, CacheConfig::new(512, assoc, 16, 4).unwrap());
    }
}

#[test]
fn tom_across_associativities() {
    let nest = kernels::tom(12);
    for assoc in [1, 2, 4, 8] {
        check(&nest, CacheConfig::new(1024, assoc, 32, 4).unwrap());
    }
}

/// `gauss` has non-uniformly generated references, so the count is sound
/// but over-approximate at every associativity (the paper's +1.0% row).
#[test]
fn gauss_sound_across_associativities() {
    let nest = kernels::gauss(12);
    for assoc in [1, 2, 4] {
        let cache = CacheConfig::new(512, assoc, 16, 4).unwrap();
        let analysis = reference_analysis(&nest, cache, &AnalysisOptions::default());
        let sim = simulate_nest(&nest, cache);
        assert!(
            analysis.total_misses() >= sim.total().misses(),
            "under-count on gauss at k={assoc}"
        );
    }
}

/// Higher associativity at fixed set count can only reduce the CME count
/// (the analytical analogue of LRU stack inclusion).
#[test]
fn cme_count_monotone_in_ways_at_fixed_sets() {
    let nest = kernels::mmult_with_bases(12, 0, 144, 288);
    // 16 sets of 16B lines; 1, 2, 4 ways.
    let counts: Vec<u64> = [(256i64, 1i64), (512, 2), (1024, 4)]
        .iter()
        .map(|&(size, k)| {
            let cache = CacheConfig::new(size, k, 16, 4).unwrap();
            reference_analysis(&nest, cache, &AnalysisOptions::default()).total_misses()
        })
        .collect();
    assert!(counts[1] <= counts[0], "{counts:?}");
    assert!(counts[2] <= counts[1], "{counts:?}");
}

/// FNV-1a-64 over a stream of `u64`s, each fed as 8 little-endian bytes.
struct Fnv(u64);

impl Fnv {
    fn feed(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }
}

/// Pins the exact replay counts of every model the simulator supports:
/// six kernels × two sizes × four associativities × every replacement
/// policy × both write policies × with and without an inclusive L2 — 576
/// replays folded into one hash. Any change to victim selection,
/// write-back accounting, inclusion or trace order moves the hash.
#[test]
fn model_replay_counts_are_pinned() {
    let l2 = CacheConfig::new(4096, 8, 32, 4).unwrap();
    let mut hash = Fnv(0xcbf29ce484222325);
    let mut cells = std::collections::HashMap::new();
    for name in ["mmult", "sor", "gauss", "trans", "adi", "jacobi2d"] {
        let nest = kernels::kernel_by_name(name, 16).unwrap();
        for size in [512, 1024] {
            for ways in [1, 2, 4, 8] {
                let l1 = CacheConfig::new(size, ways, 32, 4).unwrap();
                for policy in PolicyKind::ALL {
                    for write in [WritePolicy::WriteBack, WritePolicy::WriteThrough] {
                        for with_l2 in [false, true] {
                            let mut model = CacheModel::new(l1).policy(policy).write(write);
                            if with_l2 {
                                model = model.with_l2(l2).unwrap();
                            }
                            let res = simulate_nest_model(&nest, &model);
                            for s in &res.per_ref {
                                for v in [s.accesses, s.hits, s.cold, s.replacement] {
                                    hash.feed(v);
                                }
                            }
                            hash.feed(res.writebacks);
                            hash.feed(res.l2_misses.unwrap_or(u64::MAX));
                            if model.is_baseline() {
                                let plain = simulate_nest(&nest, l1);
                                assert_eq!(res.per_ref, plain.per_ref, "{name} on {model}");
                                assert_eq!(res.writebacks, plain.writebacks, "{name} on {model}");
                            }
                            let key = (name, size, ways, policy, write, with_l2);
                            cells
                                .insert(key, (res.total().misses(), res.writebacks, res.l2_misses));
                        }
                    }
                }
            }
        }
    }
    assert_eq!(cells.len(), 576);
    let wb = WritePolicy::WriteBack;
    let cell = |ways, policy, write, with_l2| cells[&("mmult", 512, ways, policy, write, with_l2)];
    assert_eq!(cell(4, PolicyKind::Lru, wb, false), (576, 32, None));
    assert_eq!(cell(4, PolicyKind::Fifo, wb, false), (672, 96, None));
    assert_eq!(
        cell(4, PolicyKind::Fifo, WritePolicy::WriteThrough, false),
        (736, 4096, None)
    );
    assert_eq!(cell(8, PolicyKind::Plru, wb, false).0, 515);
    assert_eq!(cell(4, PolicyKind::Lru, wb, true).2, Some(96));
    assert_eq!(
        hash.0, 0x6ea7e95372137535,
        "replay fingerprint {:#x}",
        hash.0
    );
}
