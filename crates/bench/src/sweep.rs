//! The geometry-grid sweep engine behind `cmetool sweep`.
//!
//! A sweep is the cross product size × ways × line × policy evaluated
//! over a set of kernels. Each grid cell pins one [`CacheModel`]; all
//! kernels of the cell run through `analyze_batch` on one shared
//! [`Analyzer`] session (an engine is pinned to one geometry), and the
//! model simulator replays each nest for the exact count and access
//! total the miss rate needs. Rows carry both numbers: the analytic CME
//! count — exact for LRU-uniform nests, a documented sound bound
//! otherwise — and the simulator-exact count.

use cme_cache::{simulate_nest_model, CacheConfig, CacheModel, PolicyKind};
use cme_core::api::json::{obj, Json};
use cme_core::{AnalysisOptions, Analyzer};
use cme_ir::LoopNest;

/// One axis point of the associativity dimension: `k` ways or fully
/// associative at the cell's capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WaysPoint {
    /// A set-associative cache with this many ways.
    K(i64),
    /// One set spanning the whole capacity.
    Full,
}

impl WaysPoint {
    /// Parses an axis token: a positive integer or `full`.
    pub fn parse(token: &str) -> Option<Self> {
        if token == "full" {
            return Some(WaysPoint::Full);
        }
        token.parse().ok().filter(|&k| k > 0).map(WaysPoint::K)
    }

    /// The column label (`1`, `8`, `full`).
    pub fn label(&self) -> String {
        match self {
            WaysPoint::K(k) => k.to_string(),
            WaysPoint::Full => "full".to_string(),
        }
    }

    fn config(&self, size: i64, line: i64, elem: i64) -> Result<CacheConfig, String> {
        match self {
            WaysPoint::K(k) => CacheConfig::new(size, *k, line, elem),
            WaysPoint::Full => CacheConfig::fully_associative(size, line, elem),
        }
        .map_err(|e| format!("size={size} ways={} line={line}: {e}", self.label()))
    }
}

/// The grid to sweep: every combination of the four axes is one cell.
#[derive(Debug, Clone)]
pub struct SweepGrid {
    /// Capacities in bytes.
    pub sizes: Vec<i64>,
    /// Associativity points.
    pub ways: Vec<WaysPoint>,
    /// Line sizes in bytes.
    pub lines: Vec<i64>,
    /// Replacement policies.
    pub policies: Vec<PolicyKind>,
    /// Element size in bytes (one per grid; arrays are homogeneous).
    pub elem: i64,
}

impl SweepGrid {
    /// The `assoc_sweep` default: 8 KiB, k ∈ {1, 2, 4, 8, full}, 32 B
    /// lines, LRU.
    pub fn default_grid() -> Self {
        SweepGrid {
            sizes: vec![8192],
            ways: vec![
                WaysPoint::K(1),
                WaysPoint::K(2),
                WaysPoint::K(4),
                WaysPoint::K(8),
                WaysPoint::Full,
            ],
            lines: vec![32],
            policies: vec![PolicyKind::Lru],
            elem: 4,
        }
    }

    /// Number of cells (kernels not included).
    pub fn cells(&self) -> usize {
        self.sizes.len() * self.ways.len() * self.lines.len() * self.policies.len()
    }
}

/// One (kernel, cell) measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Kernel name.
    pub kernel: String,
    /// Capacity in bytes.
    pub size: i64,
    /// Associativity label (`1`..`8` or `full`).
    pub ways: String,
    /// Line size in bytes.
    pub line: i64,
    /// Replacement policy of the cell.
    pub policy: PolicyKind,
    /// Total references issued by the nest.
    pub accesses: u64,
    /// Analytic CME miss count — exact for uniform nests under LRU, a
    /// sound upper bound otherwise.
    pub cme_misses: u64,
    /// Simulator-exact miss count under the cell's model.
    pub sim_misses: u64,
    /// `sim_misses / accesses`.
    pub miss_rate: f64,
}

impl SweepRow {
    /// Signed relative error of the analytic count against the
    /// simulator, in percent (0 when the simulator saw no misses).
    pub fn pct_error(&self) -> f64 {
        if self.sim_misses == 0 {
            0.0
        } else {
            100.0 * (self.cme_misses as f64 - self.sim_misses as f64) / self.sim_misses as f64
        }
    }
}

/// Runs the sweep: one shared `analyze_batch` session per cell, the
/// model simulator for exact counts. Rows come out in (size, ways,
/// line, policy, kernel) order.
///
/// # Errors
///
/// Returns a description of the first invalid cell geometry, or of a
/// soundness violation (an LRU cell where the analytic count undercuts
/// the simulator — that is a bug, not a measurement).
pub fn run_sweep(nests: &[LoopNest], grid: &SweepGrid) -> Result<Vec<SweepRow>, String> {
    let opts = AnalysisOptions::default();
    let mut rows = Vec::with_capacity(grid.cells() * nests.len());
    for &size in &grid.sizes {
        for ways in &grid.ways {
            for &line in &grid.lines {
                let cache = ways.config(size, line, grid.elem)?;
                for &policy in &grid.policies {
                    let model = CacheModel::new(cache).policy(policy);
                    // One session per cell: every kernel shares this
                    // engine's memo tables and work pool.
                    let analyzer = Analyzer::with_model(model).options(opts.clone()).threads(0);
                    let analytic = analyzer.analyze_batch(nests);
                    for (nest, analysis) in nests.iter().zip(&analytic) {
                        let sim = simulate_nest_model(nest, &model).total();
                        let row = SweepRow {
                            kernel: nest.name().to_string(),
                            size,
                            ways: ways.label(),
                            line,
                            policy,
                            accesses: sim.accesses,
                            cme_misses: analysis.total_misses(),
                            sim_misses: sim.misses(),
                            miss_rate: sim.miss_ratio(),
                        };
                        if policy == PolicyKind::Lru && row.cme_misses < row.sim_misses {
                            return Err(format!(
                                "soundness violated: `{}` at {cache}: cme {} < sim {}",
                                row.kernel, row.cme_misses, row.sim_misses
                            ));
                        }
                        rows.push(row);
                    }
                }
            }
        }
    }
    Ok(rows)
}

/// Renders rows as the aligned text table `assoc_sweep` used to print.
pub fn render_table(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# {:<7} {:>8} {:>6} {:>6} {:>6} {:>10} {:>12} {:>12} {:>8} {:>8}\n",
        "nest",
        "size",
        "ways",
        "line",
        "policy",
        "accesses",
        "cme-misses",
        "sim-misses",
        "miss%",
        "%error"
    ));
    for r in rows {
        out.push_str(&format!(
            "  {:<7} {:>8} {:>6} {:>6} {:>6} {:>10} {:>12} {:>12} {:>8.2} {:>8.2}\n",
            r.kernel,
            r.size,
            r.ways,
            r.line,
            r.policy.as_str(),
            r.accesses,
            r.cme_misses,
            r.sim_misses,
            100.0 * r.miss_rate,
            r.pct_error()
        ));
    }
    out
}

/// Renders rows as newline-delimited JSON objects (one row per line,
/// keys sorted — the same framing the wire API uses).
pub fn render_json(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    for r in rows {
        let value = obj([
            ("kernel", Json::Str(r.kernel.clone())),
            ("size", Json::Int(r.size)),
            ("ways", Json::Str(r.ways.clone())),
            ("line", Json::Int(r.line)),
            ("policy", Json::Str(r.policy.as_str().to_string())),
            ("accesses", Json::UInt(r.accesses)),
            ("cme_misses", Json::UInt(r.cme_misses)),
            ("sim_misses", Json::UInt(r.sim_misses)),
            ("miss_rate", Json::Float(r.miss_rate)),
        ]);
        out.push_str(&value.encode());
        out.push('\n');
    }
    out
}

/// Renders rows as CSV with a header line.
pub fn render_csv(rows: &[SweepRow]) -> String {
    let mut out =
        String::from("kernel,size,ways,line,policy,accesses,cme_misses,sim_misses,miss_rate\n");
    for r in rows {
        out.push_str(&format!(
            "{},{},{},{},{},{},{},{},{}\n",
            r.kernel,
            r.size,
            r.ways,
            r.line,
            r.policy.as_str(),
            r.accesses,
            r.cme_misses,
            r.sim_misses,
            r.miss_rate
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cme_cache::simulate_nest;

    fn small_grid() -> SweepGrid {
        SweepGrid {
            sizes: vec![1024],
            ways: vec![WaysPoint::K(1), WaysPoint::K(2), WaysPoint::Full],
            lines: vec![32],
            policies: vec![PolicyKind::Lru, PolicyKind::Fifo],
            elem: 4,
        }
    }

    #[test]
    fn ways_tokens_parse() {
        assert_eq!(WaysPoint::parse("4"), Some(WaysPoint::K(4)));
        assert_eq!(WaysPoint::parse("full"), Some(WaysPoint::Full));
        assert_eq!(WaysPoint::parse("0"), None);
        assert_eq!(WaysPoint::parse("-2"), None);
        assert_eq!(WaysPoint::parse("lots"), None);
    }

    #[test]
    fn sweep_matches_the_standalone_paths_cell_by_cell() {
        // The batched shared-session sweep must reproduce what one-off
        // sessions and the plain LRU simulator report — this is the old
        // `assoc_sweep` bin as an invariant.
        let nests = vec![
            cme_kernels::mmult_with_bases(12, 0, 144, 288),
            cme_kernels::sor(12),
        ];
        let grid = small_grid();
        let rows = run_sweep(&nests, &grid).unwrap();
        assert_eq!(rows.len(), grid.cells() * nests.len());
        for row in &rows {
            let nest = nests.iter().find(|n| n.name() == row.kernel).unwrap();
            let cache = if row.ways == "full" {
                CacheConfig::fully_associative(row.size, row.line, 4).unwrap()
            } else {
                CacheConfig::new(row.size, row.ways.parse().unwrap(), row.line, 4).unwrap()
            };
            let standalone = Analyzer::new(cache).analyze(nest).total_misses();
            assert_eq!(row.cme_misses, standalone, "{row:?}");
            if row.policy == PolicyKind::Lru {
                let sim = simulate_nest(nest, cache).total();
                assert_eq!(row.sim_misses, sim.misses(), "{row:?}");
                assert_eq!(row.accesses, sim.accesses, "{row:?}");
            }
            assert!(row.miss_rate >= 0.0 && row.miss_rate <= 1.0);
        }
        // Direct-mapped FIFO coincides with LRU; the paired rows agree.
        let lru_k1: Vec<_> = rows
            .iter()
            .filter(|r| r.ways == "1" && r.policy == PolicyKind::Lru)
            .collect();
        let fifo_k1: Vec<_> = rows
            .iter()
            .filter(|r| r.ways == "1" && r.policy == PolicyKind::Fifo)
            .collect();
        for (l, f) in lru_k1.iter().zip(&fifo_k1) {
            assert_eq!(l.sim_misses, f.sim_misses, "k=1 FIFO must equal LRU");
        }
    }

    #[test]
    fn renderers_cover_every_row() {
        let rows = run_sweep(
            &[cme_kernels::mmult_with_bases(8, 0, 64, 128)],
            &SweepGrid {
                sizes: vec![512],
                ways: vec![WaysPoint::K(1)],
                lines: vec![16],
                policies: vec![PolicyKind::Plru],
                elem: 4,
            },
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let table = render_table(&rows);
        assert!(table.contains("mmult"), "{table}");
        let json = render_json(&rows);
        assert_eq!(json.lines().count(), 1);
        let parsed = cme_core::api::json::parse(json.trim()).unwrap();
        assert_eq!(parsed.get("policy").and_then(Json::as_str), Some("plru"));
        let csv = render_csv(&rows);
        assert_eq!(csv.lines().count(), 2, "{csv}");
        assert!(csv.starts_with("kernel,size,ways,line,policy"), "{csv}");
    }

    #[test]
    fn invalid_cells_and_undercounts_are_errors() {
        let nests = vec![cme_kernels::sor(8)];
        let bad = SweepGrid {
            sizes: vec![100], // not a power-of-two multiple of the line
            ways: vec![WaysPoint::K(1)],
            lines: vec![32],
            policies: vec![PolicyKind::Lru],
            elem: 4,
        };
        assert!(run_sweep(&nests, &bad).is_err());
    }
}
