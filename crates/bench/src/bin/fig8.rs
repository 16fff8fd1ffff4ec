//! Regenerates **Figure 8** of the paper: the progress of the miss-finding
//! algorithm for the load of Z(j,i) in matrix multiply, restricted to the
//! paper's three reuse vectors r1 = (0,0,1), r2 = (0,1,−7), r3 = (0,1,0)
//! on an 8KB direct-mapped cache with 32B lines (8 elements per line).
//!
//! ```text
//! cargo run --release -p cme-bench --bin fig8 [-- --n 256]
//! ```
//!
//! At N = 256 the paper's table reads (per reuse vector):
//!   Cold CMEs        2097152   8192    8192
//!   ReplEqn_ZZ             0      0       0
//!   ReplEqn_ZY       1835008 261120       0
//!   ReplEqn_ZX        401408  64064       0
//!   Repl. Misses     2236416 325184       0
//!   Definite Misses  2236416 2561600 2569792

// Figure 8 prescribes the paper's hand-picked reuse vectors, so this bin
// runs the `solve` reference oracle's per-reference entry point by design.

use cme_bench::BenchArgs;
use cme_core::solve::solve_reference;
use cme_core::AnalysisOptions;
use cme_kernels::mmult_with_bases;
use cme_reuse::{ReuseKind, ReuseVector};

fn main() {
    let args = BenchArgs::from_env();
    let n = args.n(256);
    let cache = args.cache();
    // The paper's layout: Z at 4192 with the other arrays packed behind it.
    let nest = mmult_with_bases(n, 4192, 4192 + n * n, 4192 + 2 * n * n);
    let z_load = nest.references()[0].id();
    let rvs = vec![
        ReuseVector::new(vec![0, 0, 1], z_load, ReuseKind::SelfSpatial, 1),
        ReuseVector::new(vec![0, 1, -7], z_load, ReuseKind::SelfSpatial, -7),
        ReuseVector::new(vec![0, 1, 0], z_load, ReuseKind::SelfTemporal, 0),
    ];
    let opts = AnalysisOptions {
        exact_equation_counts: true,
        ..AnalysisOptions::default()
    };
    let analysis = solve_reference(&nest, cache, z_load, &rvs, &opts);

    println!("# Figure 8: miss-finding progress for the Z(j,i) load, N = {n}");
    println!("# cache: {cache}");
    let headers: Vec<String> = analysis
        .vectors
        .iter()
        .map(|v| {
            format!(
                "r=({})",
                v.reuse
                    .vector()
                    .iter()
                    .map(|x| x.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    print!("{:<18}", "");
    for h in &headers {
        print!("{h:>14}");
    }
    println!();
    let row = |label: &str, values: Vec<u64>| {
        print!("{label:<18}");
        for v in values {
            print!("{v:>14}");
        }
        println!();
    };
    row(
        "Cold CMEs",
        analysis.vectors.iter().map(|v| v.cold_solutions).collect(),
    );
    // Z-load is ref 0, X ref 1, Y ref 2, Z-store ref 3.
    let eqn = |perp: usize| -> Vec<u64> {
        analysis
            .vectors
            .iter()
            .map(|v| v.contentions_per_perpetrator[perp])
            .collect()
    };
    let zz: Vec<u64> = eqn(0).iter().zip(eqn(3)).map(|(a, b)| a + b).collect();
    row("ReplEqn_ZZ", zz);
    row("ReplEqn_ZY", eqn(2));
    row("ReplEqn_ZX", eqn(1));
    row(
        "Repl. Misses",
        analysis
            .vectors
            .iter()
            .map(|v| v.replacement_misses)
            .collect(),
    );
    // Cumulative definite misses; the final column also includes the cold
    // misses resolved after the last vector (as in the paper's 2569792).
    let nvec = analysis.vectors.len();
    row(
        "Definite Misses",
        analysis
            .vectors
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.cumulative_replacement_misses
                    + if i + 1 == nvec {
                        analysis.cold_misses
                    } else {
                        0
                    }
            })
            .collect(),
    );
    println!(
        "\n# totals: {} replacement + {} cold = {} misses for this reference",
        analysis.replacement_misses,
        analysis.cold_misses,
        analysis.total_misses()
    );
}
