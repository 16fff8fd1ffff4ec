//! The full cache model: geometry × replacement policy × write policy ×
//! optional second level.
//!
//! [`CacheModel`] is the one description every layer above threads
//! through — the engine's simulator-backed classify path, the wire
//! protocol's extended `CacheSpec`, the artifact-store fingerprint, and
//! diffcheck's bound-semantics verdicts. Its default ([`CacheModel::new`]
//! with no further settings) is exactly the paper's Section 2.3 machine,
//! so every pre-model call site keeps its behavior.

use crate::config::{CacheConfig, CacheConfigError};
use crate::policy::{PolicyKind, WritePolicy};
use std::fmt;

/// Errors from [`CacheModel::with_l2`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CacheModelError {
    /// The L2 line or element size differs from L1's (inclusion is
    /// maintained in shared line units).
    LevelMismatch {
        /// Which parameter disagrees ("line_bytes" or "elem_bytes").
        what: &'static str,
        /// The L1 value.
        l1: i64,
        /// The L2 value.
        l2: i64,
    },
    /// L2 is smaller than L1 (an inclusive outer level must be able to
    /// hold every inner line).
    L2SmallerThanL1 {
        /// L1 capacity in bytes.
        l1: i64,
        /// L2 capacity in bytes.
        l2: i64,
    },
    /// A level's geometry itself was invalid.
    Geometry(CacheConfigError),
}

impl fmt::Display for CacheModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheModelError::LevelMismatch { what, l1, l2 } => write!(
                f,
                "hierarchy levels must share `{what}`: L1 has {l1}, L2 has {l2}"
            ),
            CacheModelError::L2SmallerThanL1 { l1, l2 } => write!(
                f,
                "inclusive L2 ({l2}B) must be at least as large as L1 ({l1}B)"
            ),
            CacheModelError::Geometry(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CacheModelError {}

impl From<CacheConfigError> for CacheModelError {
    fn from(e: CacheConfigError) -> Self {
        CacheModelError::Geometry(e)
    }
}

/// A complete cache model: L1 geometry, replacement policy, write policy,
/// and an optional inclusive L2.
///
/// # Examples
///
/// ```
/// use cme_cache::{CacheConfig, CacheModel, PolicyKind};
/// let l1 = CacheConfig::new(8192, 2, 32, 4)?;
/// let baseline = CacheModel::new(l1);
/// assert!(baseline.is_baseline());
///
/// let l2 = CacheConfig::new(65536, 8, 32, 4)?;
/// let model = CacheModel::new(l1).policy(PolicyKind::Plru).with_l2(l2)?;
/// assert!(!model.is_baseline());
/// # Ok::<(), cme_cache::CacheModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheModel {
    l1: CacheConfig,
    policy: PolicyKind,
    write: WritePolicy,
    l2: Option<CacheConfig>,
}

impl CacheModel {
    /// A single-level model with the paper's defaults: true-LRU
    /// replacement, write-back/write-allocate stores, no L2.
    pub fn new(l1: CacheConfig) -> Self {
        CacheModel {
            l1,
            policy: PolicyKind::Lru,
            write: WritePolicy::WriteBack,
            l2: None,
        }
    }

    /// Sets the replacement policy (shared by both levels).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the write policy (shared by both levels).
    pub fn write(mut self, write: WritePolicy) -> Self {
        self.write = write;
        self
    }

    /// Adds an inclusive second level.
    ///
    /// # Errors
    ///
    /// [`CacheModelError::LevelMismatch`] if line or element size differ
    /// from L1's; [`CacheModelError::L2SmallerThanL1`] if L2 cannot hold
    /// L1's contents.
    pub fn with_l2(mut self, l2: CacheConfig) -> Result<Self, CacheModelError> {
        if l2.line_bytes() != self.l1.line_bytes() {
            return Err(CacheModelError::LevelMismatch {
                what: "line_bytes",
                l1: self.l1.line_bytes(),
                l2: l2.line_bytes(),
            });
        }
        if l2.elem_bytes() != self.l1.elem_bytes() {
            return Err(CacheModelError::LevelMismatch {
                what: "elem_bytes",
                l1: self.l1.elem_bytes(),
                l2: l2.elem_bytes(),
            });
        }
        if l2.size_bytes() < self.l1.size_bytes() {
            return Err(CacheModelError::L2SmallerThanL1 {
                l1: self.l1.size_bytes(),
                l2: l2.size_bytes(),
            });
        }
        self.l2 = Some(l2);
        Ok(self)
    }

    /// The L1 geometry — the level the analytic equations describe.
    pub fn l1(&self) -> CacheConfig {
        self.l1
    }

    /// The L2 geometry, if the model is two-level.
    pub fn l2(&self) -> Option<CacheConfig> {
        self.l2
    }

    /// The replacement policy.
    pub fn policy_kind(&self) -> PolicyKind {
        self.policy
    }

    /// The write policy.
    pub fn write_policy(&self) -> WritePolicy {
        self.write
    }

    /// `true` for the paper's Section 2.3 machine — single-level,
    /// true-LRU, write-back — the model every analytic path assumes
    /// exactly. Non-baseline models get simulator-exact classification
    /// with the analytic LRU result demoted to a documented bound.
    pub fn is_baseline(&self) -> bool {
        self.policy == PolicyKind::Lru && self.write == WritePolicy::WriteBack && self.l2.is_none()
    }
}

impl fmt::Display for CacheModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.l1, self.policy, self.write)?;
        if let Some(l2) = &self.l2 {
            write!(f, " + L2 {l2}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_default_settings_clear_the_baseline_flag() {
        let cfg = CacheConfig::new(128, 2, 16, 4).unwrap();
        assert!(!CacheModel::new(cfg).policy(PolicyKind::Fifo).is_baseline());
        assert!(!CacheModel::new(cfg)
            .write(WritePolicy::WriteThrough)
            .is_baseline());
        let l2 = CacheConfig::new(512, 2, 16, 4).unwrap();
        assert!(!CacheModel::new(cfg).with_l2(l2).unwrap().is_baseline());
    }

    #[test]
    fn l2_validation_rejects_mismatched_levels() {
        let l1 = CacheConfig::new(128, 2, 16, 4).unwrap();
        let wrong_line = CacheConfig::new(512, 2, 32, 4).unwrap();
        assert!(matches!(
            CacheModel::new(l1).with_l2(wrong_line),
            Err(CacheModelError::LevelMismatch {
                what: "line_bytes",
                ..
            })
        ));
        let wrong_elem = CacheConfig::new(512, 2, 16, 8).unwrap();
        assert!(matches!(
            CacheModel::new(l1).with_l2(wrong_elem),
            Err(CacheModelError::LevelMismatch {
                what: "elem_bytes",
                ..
            })
        ));
        let small = CacheConfig::new(64, 1, 16, 4).unwrap();
        assert!(matches!(
            CacheModel::new(l1).with_l2(small),
            Err(CacheModelError::L2SmallerThanL1 { .. })
        ));
        let e = CacheModel::new(l1).with_l2(small).unwrap_err();
        assert!(e.to_string().contains("at least as large"));
    }

    #[test]
    fn two_level_driver_reports_l2_misses() {
        let l1 = CacheConfig::new(64, 1, 16, 4).unwrap();
        let l2 = CacheConfig::new(1024, 1, 16, 4).unwrap();
        let model = CacheModel::new(l1).with_l2(l2).unwrap();
        let mut sim = crate::Simulator::for_model(&model);
        for _ in 0..2 {
            for a in 0..128 {
                sim.access(a);
            }
        }
        assert_eq!(sim.accesses(), 256);
        assert_eq!(sim.l2_misses(), Some(32));
        assert_eq!(crate::Simulator::new(l1).l2_misses(), None);
    }

    #[test]
    fn display_names_every_component() {
        let l1 = CacheConfig::new(8192, 2, 32, 4).unwrap();
        let l2 = CacheConfig::new(65536, 8, 32, 4).unwrap();
        let model = CacheModel::new(l1)
            .policy(PolicyKind::Fifo)
            .with_l2(l2)
            .unwrap();
        let s = model.to_string();
        assert!(s.contains("fifo") && s.contains("write-back") && s.contains("L2"));
    }
}
