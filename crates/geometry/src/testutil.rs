//! Fixtures for the mapping parity tests: paths over B-spline and
//! polynomial bases, and the per-point derivative reference that the
//! grid-table path must match bit for bit.

use mfod_fda::prelude::*;
use std::sync::Arc;

/// `D^d X(t)`, evaluated channel by channel at the single point `t`.
pub(crate) fn deriv_at(datum: &MultiFunctionalDatum, t: f64, d: usize) -> Vec<f64> {
    datum
        .channels()
        .iter()
        .map(|c| c.eval_deriv(t, d))
        .collect()
}

/// Bit patterns, so parity assertions compare exactly.
pub(crate) fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A 65-point grid on `[0, 1]` whose step `1/64` is exact, so it holds
/// `t = 0.5`, where [`cusp_path`] stops.
pub(crate) fn parity_grid() -> Grid {
    Grid::uniform(0.0, 1.0, 65).unwrap()
}

/// A wiggly `p`-channel path whose channels alternate between two shared
/// B-spline bases (12 cubic and 9 quartic functions).
pub(crate) fn spline_path(p: usize) -> MultiFunctionalDatum {
    let bases: [Arc<dyn Basis>; 2] = [
        Arc::new(BSplineBasis::uniform(0.0, 1.0, 12, 4).unwrap()),
        Arc::new(BSplineBasis::uniform(0.0, 1.0, 9, 5).unwrap()),
    ];
    let channels = (0..p)
        .map(|k| {
            let basis = Arc::clone(&bases[k % 2]);
            let coefs = (0..basis.len())
                .map(|l| (l as f64 * 0.7 + k as f64 * 1.3).sin() + 0.1 * l as f64)
                .collect();
            FunctionalDatum::new(basis, coefs).unwrap()
        })
        .collect();
    MultiFunctionalDatum::new(channels).unwrap()
}

/// The path `((t−½)², (t−½)³, (t−½)⁴)` cut to its first `p ≤ 3`
/// channels: `X′(½) = 0` exactly, a stationary point on
/// [`parity_grid`].
pub(crate) fn cusp_path(p: usize) -> MultiFunctionalDatum {
    let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 5).unwrap());
    let coefs = [
        vec![0.25, -1.0, 1.0, 0.0, 0.0],
        vec![-0.125, 0.75, -1.5, 1.0, 0.0],
        vec![0.0625, -0.5, 1.5, -2.0, 1.0],
    ];
    let channels = coefs[..p]
        .iter()
        .map(|c| FunctionalDatum::new(Arc::clone(&basis), c.clone()).unwrap())
        .collect();
    MultiFunctionalDatum::new(channels).unwrap()
}
