//! Torsion mapping for space curves (`p = 3`).

use crate::mapping::{finite, MappingFunction, SPEED_EPS};
use crate::Result;
use mfod_fda::{Grid, MultiFunctionalDatum};
use mfod_linalg::vector;

/// Torsion `τ(t) = ((X′ × X″) · X‴) / ‖X′ × X″‖²` of a path in `R³`: the
/// rate at which the curve leaves its osculating plane. Planar curves have
/// zero torsion; by convention points where `‖X′ × X″‖ < SPEED_EPS`
/// (straight segments) also map to zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct Torsion;

/// Cross product of two 3-vectors.
fn cross3(a: &[f64], b: &[f64]) -> [f64; 3] {
    [
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    ]
}

/// Torsion at a point from the first three derivatives — exposed for tests.
pub fn torsion_from_derivatives(v: &[f64], a: &[f64], j: &[f64]) -> f64 {
    let c = cross3(v, a);
    let denom = vector::dot(&c, &c);
    if denom < SPEED_EPS * SPEED_EPS {
        return 0.0;
    }
    vector::dot(&c, j) / denom
}

impl MappingFunction for Torsion {
    fn name(&self) -> &'static str {
        "torsion"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Torsion)
    }

    fn min_dim(&self) -> usize {
        3
    }

    fn max_dim(&self) -> usize {
        3
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        self.check_dim(datum)?;
        let v = datum.eval_grid_deriv(grid, 1);
        let a = datum.eval_grid_deriv(grid, 2);
        let jerk = datum.eval_grid_deriv(grid, 3);
        finite(
            (0..grid.len())
                .map(|j| torsion_from_derivatives(v.row(j), a.row(j), jerk.row(j)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, cusp_path, deriv_at, parity_grid, spline_path};
    use crate::GeometryError;
    use mfod_fda::prelude::*;
    use std::sync::Arc;

    #[test]
    fn grid_table_path_matches_per_point_reference() {
        let grid = parity_grid();
        for datum in [spline_path(3), cusp_path(3)] {
            let reference: Vec<f64> = grid
                .iter()
                .map(|t| {
                    torsion_from_derivatives(
                        &deriv_at(&datum, t, 1),
                        &deriv_at(&datum, t, 2),
                        &deriv_at(&datum, t, 3),
                    )
                })
                .collect();
            assert_eq!(bits(&Torsion.map(&datum, &grid).unwrap()), bits(&reference));
        }
        // the cusp's stationary point maps to 0 by convention
        assert_eq!(Torsion.map(&cusp_path(3), &grid).unwrap()[32], 0.0);
    }

    #[test]
    fn helix_torsion_analytic() {
        // Helix (r cos ωt, r sin ωt, ct): τ = cω / (r²ω² + c²) … with unit
        // angular rate parametrization τ = c/(r² + c²) when ω = 1.
        let (r, c) = (2.0, 0.5);
        for i in 0..10 {
            let t = i as f64;
            let v = [-r * t.sin(), r * t.cos(), c];
            let a = [-r * t.cos(), -r * t.sin(), 0.0];
            let j = [r * t.sin(), -r * t.cos(), 0.0];
            let tau = torsion_from_derivatives(&v, &a, &j);
            let expect = c / (r * r + c * c);
            assert!((tau - expect).abs() < 1e-10, "t={t}: {tau}");
        }
    }

    #[test]
    fn planar_curve_has_zero_torsion() {
        // parabola in the z = 0 plane
        let v = [1.0, 2.0, 0.0];
        let a = [0.0, 2.0, 0.0];
        let j = [0.0, 0.0, 0.0];
        assert_eq!(torsion_from_derivatives(&v, &a, &j), 0.0);
    }

    #[test]
    fn straight_segment_convention() {
        let v = [1.0, 0.0, 0.0];
        let a = [2.0, 0.0, 0.0]; // parallel: cross = 0
        let j = [0.0, 1.0, 0.0];
        assert_eq!(torsion_from_derivatives(&v, &a, &j), 0.0);
    }

    #[test]
    fn mapping_requires_3d() {
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 2).unwrap());
        let c = FunctionalDatum::new(basis, vec![0.0, 1.0]).unwrap();
        let bi = MultiFunctionalDatum::new(vec![c.clone(), c.clone()]).unwrap();
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        assert!(matches!(
            Torsion.map(&bi, &grid),
            Err(GeometryError::DimensionUnsupported { .. })
        ));
        let quad = MultiFunctionalDatum::new(vec![c.clone(), c.clone(), c.clone(), c]).unwrap();
        assert!(Torsion.map(&quad, &grid).is_err());
    }

    #[test]
    fn cubic_twisted_curve_maps_finite() {
        // twisted cubic (t, t², t³): τ = 3/(9t⁴ + 9t² + 1)
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 4).unwrap());
        let x = FunctionalDatum::new(Arc::clone(&basis), vec![0.0, 1.0, 0.0, 0.0]).unwrap();
        let y = FunctionalDatum::new(Arc::clone(&basis), vec![0.0, 0.0, 1.0, 0.0]).unwrap();
        let z = FunctionalDatum::new(basis, vec![0.0, 0.0, 0.0, 1.0]).unwrap();
        let datum = MultiFunctionalDatum::new(vec![x, y, z]).unwrap();
        let grid = Grid::uniform(0.0, 1.0, 11).unwrap();
        let tau = Torsion.map(&datum, &grid).unwrap();
        for (i, t) in grid.iter().enumerate() {
            let expect = 3.0 / (9.0 * t.powi(4) + 9.0 * t * t + 1.0);
            assert!(
                (tau[i] - expect).abs() < 1e-8,
                "t={t}: {} vs {expect}",
                tau[i]
            );
        }
    }
}
