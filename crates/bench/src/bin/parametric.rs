//! Regenerates the **Section 5.1.3 parametric analysis** example: the miss
//! count of the `alv` loop as a quasi-polynomial (Ehrhart-style) function
//! of the inter-array spacing, minimized in closed form instead of by
//! exhaustive counting.
//!
//! ```text
//! cargo run --release -p cme-bench --bin parametric
//! ```

use cme_bench::BenchArgs;
use cme_core::{Analyzer, SweepParameter, SweepRequest};
use cme_ir::ArrayId;
use cme_kernels::alv_with_layout;

fn main() {
    let cache = BenchArgs::from_env().cache();
    let (nu, nh) = (61i64, 30i64);
    let base_spacing = nu * nh; // packed
    println!("# Parametric padding of alv: misses as a function of ΔB offset");
    println!("# cache: {cache}");
    // Shifting the second array's base by p (elements) is periodic in the
    // way span, so the sweep samples one period plus a verification
    // window and certifies the fitted function against every sample. One
    // Analyzer session shares its memo tables across every probed spacing.
    let nest = alv_with_layout(nu, nh, nu, base_spacing);
    let analyzer = Analyzer::new(cache);
    let request = SweepRequest::new(
        SweepParameter::BaseSpacing {
            array: ArrayId::from_index(1),
        },
        0,
        (cache.size_elems() * 4) as usize,
        1,
    );
    let res = analyzer.sweep(&nest, &request).expect("sweep analyzes");
    println!("result: {res}");
    // Verify against brute force on a subrange.
    let brute = (0..512)
        .map(|p| {
            let nest = alv_with_layout(nu, nh, nu, base_spacing + p);
            analyzer.analyze(&nest).total_misses()
        })
        .min()
        .expect("non-empty range");
    println!("brute-force minimum over the first 512 offsets: {brute}");
    assert!(res.best_misses <= brute, "parametric optimum must match");
}
