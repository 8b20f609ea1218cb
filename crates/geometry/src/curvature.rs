//! Curvature mapping functions (Eq. 5 of the paper).
//!
//! The curvature of a path `X(t) ∈ R^p` measures how quickly the unit
//! tangent changes direction relative to the distance travelled. Two
//! algebraically equivalent implementations are provided:
//!
//! * [`Curvature`] — the closed form
//!   `κ = √(‖X′‖²‖X″‖² − (X′·X″)²) / ‖X′‖³`, preferred in the pipeline
//!   (one fused expression, no intermediate normalization), and
//! * [`CurvatureEq5`] — the paper's definitional form
//!   `κ = ‖D¹(D¹X/‖D¹X‖)‖ / ‖D¹X‖`, expanding the derivative of the unit
//!   tangent as `T′ = X″/‖X′‖ − X′·(X′ᵀX″)/‖X′‖³`.
//!
//! **Stationary-point convention.** Where `‖X′(t)‖ < SPEED_EPS` the
//! curvature is undefined; both mappings return `0` there. This matches the
//! use in the paper: a stationary point of a *smoothed* path is a
//! measure-zero event and the downstream detector consumes grid samples.
//!
//! Both read `X′` and `X″` on the whole grid from
//! [`MultiFunctionalDatum::eval_grid_deriv`], i.e. from each channel
//! basis's rows on the grid, built once per `(basis, grid)` and shared by
//! every curve smoothed over that basis (see [`crate::mapping`]).

use crate::mapping::{finite, MappingFunction, SPEED_EPS};
use crate::Result;
use mfod_fda::{Grid, MultiFunctionalDatum};
use mfod_linalg::vector;

/// Closed-form curvature `κ = √(‖X′‖²‖X″‖² − (X′·X″)²) / ‖X′‖³`.
///
/// Requires `p >= 2`: a path in `R¹` is a straight line whose curvature is
/// identically zero, so mapping it is almost surely a bug (augment the
/// sample first, as the paper does with the squared channel).
#[derive(Debug, Clone, Copy, Default)]
pub struct Curvature;

/// Curvature at a point given velocity `v = X′` and acceleration `a = X″`.
///
/// Exposed for reuse by [`RadiusOfCurvature`], tests and benchmarks.
pub fn curvature_from_derivatives(v: &[f64], a: &[f64]) -> f64 {
    let speed_sq = vector::dot(v, v);
    let speed = speed_sq.sqrt();
    if speed < SPEED_EPS {
        return 0.0;
    }
    let acc_sq = vector::dot(a, a);
    let va = vector::dot(v, a);
    // Lagrange identity: ‖v‖²‖a‖² − (v·a)² = ‖v × a‖² >= 0; clamp the
    // floating-point residual.
    let cross_sq = (speed_sq * acc_sq - va * va).max(0.0);
    cross_sq.sqrt() / (speed_sq * speed)
}

impl MappingFunction for Curvature {
    fn name(&self) -> &'static str {
        "curvature"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Curvature)
    }

    fn min_dim(&self) -> usize {
        2
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        self.check_dim(datum)?;
        let v = datum.eval_grid_deriv(grid, 1);
        let a = datum.eval_grid_deriv(grid, 2);
        finite(
            (0..grid.len())
                .map(|j| curvature_from_derivatives(v.row(j), a.row(j)))
                .collect(),
        )
    }
}

/// Definitional curvature, Eq. 5 of the paper: the norm of the derivative
/// of the unit tangent, scaled by the speed.
///
/// `T′` is expanded analytically (quotient rule on `X′/‖X′‖`), so this is
/// exact, not a finite difference. Kept separate from [`Curvature`] to
/// document and test the equivalence of the two formulations.
#[derive(Debug, Clone, Copy, Default)]
pub struct CurvatureEq5;

impl MappingFunction for CurvatureEq5 {
    fn name(&self) -> &'static str {
        "curvature-eq5"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::CurvatureEq5)
    }

    fn min_dim(&self) -> usize {
        2
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        self.check_dim(datum)?;
        let vs = datum.eval_grid_deriv(grid, 1);
        let accs = datum.eval_grid_deriv(grid, 2);
        let mut tprime = vec![0.0; datum.dim()];
        let mut out = Vec::with_capacity(grid.len());
        for j in 0..grid.len() {
            let (v, a) = (vs.row(j), accs.row(j));
            let speed = vector::norm2(v);
            if speed < SPEED_EPS {
                out.push(0.0);
                continue;
            }
            // T' = a/‖v‖ − v (v·a)/‖v‖³
            let coef = vector::dot(v, a) / (speed * speed * speed);
            for ((tp, ai), vi) in tprime.iter_mut().zip(a).zip(v) {
                *tp = ai / speed - coef * vi;
            }
            out.push(vector::norm2(&tprime) / speed);
        }
        finite(out)
    }
}

/// Radius of the osculating (tangent) circle, `r = 1/κ` (Fig. 2 of the
/// paper), capped at `1/SPEED_EPS` where the path is locally straight.
#[derive(Debug, Clone, Copy, Default)]
pub struct RadiusOfCurvature;

impl MappingFunction for RadiusOfCurvature {
    fn name(&self) -> &'static str {
        "radius-of-curvature"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::RadiusOfCurvature)
    }

    fn min_dim(&self) -> usize {
        2
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        self.check_dim(datum)?;
        let kappa = Curvature.map(datum, grid)?;
        Ok(kappa
            .into_iter()
            .map(|k| {
                if k < SPEED_EPS {
                    1.0 / SPEED_EPS
                } else {
                    1.0 / k
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, cusp_path, deriv_at, parity_grid, spline_path};
    use crate::GeometryError;
    use mfod_fda::prelude::*;
    use std::sync::Arc;

    /// Per-point reference for [`Curvature`]: the derivatives evaluated
    /// one grid point at a time.
    fn reference_curvature(datum: &MultiFunctionalDatum, grid: &Grid) -> Vec<f64> {
        grid.iter()
            .map(|t| curvature_from_derivatives(&deriv_at(datum, t, 1), &deriv_at(datum, t, 2)))
            .collect()
    }

    /// Per-point reference for [`CurvatureEq5`].
    fn reference_eq5(datum: &MultiFunctionalDatum, grid: &Grid) -> Vec<f64> {
        grid.iter()
            .map(|t| {
                let v = deriv_at(datum, t, 1);
                let a = deriv_at(datum, t, 2);
                let speed = vector::norm2(&v);
                if speed < SPEED_EPS {
                    return 0.0;
                }
                let va = vector::dot(&v, &a);
                let mut tprime: Vec<f64> = a.iter().map(|ai| ai / speed).collect();
                let coef = va / (speed * speed * speed);
                for (tp, vi) in tprime.iter_mut().zip(&v) {
                    *tp -= coef * vi;
                }
                vector::norm2(&tprime) / speed
            })
            .collect()
    }

    #[test]
    fn grid_table_path_matches_per_point_reference() {
        let grid = parity_grid();
        let paths = [
            spline_path(2),
            spline_path(4),
            cusp_path(2),
            cusp_path(3),
            circle(1.5),
        ];
        for datum in &paths {
            let kappa = reference_curvature(datum, &grid);
            assert_eq!(bits(&Curvature.map(datum, &grid).unwrap()), bits(&kappa));
            assert_eq!(
                bits(&CurvatureEq5.map(datum, &grid).unwrap()),
                bits(&reference_eq5(datum, &grid))
            );
            let radius: Vec<f64> = kappa
                .iter()
                .map(|&k| {
                    if k < SPEED_EPS {
                        1.0 / SPEED_EPS
                    } else {
                        1.0 / k
                    }
                })
                .collect();
            assert_eq!(
                bits(&RadiusOfCurvature.map(datum, &grid).unwrap()),
                bits(&radius)
            );
        }
        // the cusp's stationary point maps to 0 by convention
        assert_eq!(Curvature.map(&paths[2], &grid).unwrap()[32], 0.0);
        assert_eq!(CurvatureEq5.map(&paths[2], &grid).unwrap()[32], 0.0);
    }

    /// Builds the circle of radius `r` traversed once on [0, 1] as a
    /// bivariate functional datum via the Fourier basis.
    pub(crate) fn circle(r: f64) -> MultiFunctionalDatum {
        // Orthonormal Fourier on [0,1]: φ₁ = √2 sin(2πt), φ₂ = √2 cos(2πt).
        let basis: Arc<dyn Basis> = Arc::new(FourierBasis::new(0.0, 1.0, 3).unwrap());
        let amp = r / 2.0_f64.sqrt();
        let x = FunctionalDatum::new(Arc::clone(&basis), vec![0.0, 0.0, amp]).unwrap();
        let y = FunctionalDatum::new(basis, vec![0.0, amp, 0.0]).unwrap();
        MultiFunctionalDatum::new(vec![x, y]).unwrap()
    }

    /// Straight line path (x, y) = (t, 2t + 1).
    fn line() -> MultiFunctionalDatum {
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 2).unwrap());
        let x = FunctionalDatum::new(Arc::clone(&basis), vec![0.0, 1.0]).unwrap();
        let y = FunctionalDatum::new(basis, vec![1.0, 2.0]).unwrap();
        MultiFunctionalDatum::new(vec![x, y]).unwrap()
    }

    #[test]
    fn circle_curvature_is_inverse_radius() {
        let grid = Grid::uniform(0.0, 1.0, 33).unwrap();
        for &r in &[0.5, 1.0, 2.0, 10.0] {
            let k = Curvature.map(&circle(r), &grid).unwrap();
            for &ki in &k {
                assert!((ki - 1.0 / r).abs() < 1e-8, "r={r}: κ={ki}");
            }
        }
    }

    #[test]
    fn line_curvature_is_zero() {
        let grid = Grid::uniform(0.0, 1.0, 17).unwrap();
        let k = Curvature.map(&line(), &grid).unwrap();
        assert!(k.iter().all(|&ki| ki.abs() < 1e-10), "{k:?}");
    }

    #[test]
    fn eq5_matches_closed_form() {
        let grid = Grid::uniform(0.0, 1.0, 25).unwrap();
        let datum = circle(1.5);
        let k1 = Curvature.map(&datum, &grid).unwrap();
        let k2 = CurvatureEq5.map(&datum, &grid).unwrap();
        for (a, b) in k1.iter().zip(&k2) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn curvature_is_parametrization_dependent_scaling_invariant() {
        // Scaling the whole path by c scales curvature by 1/c.
        let grid = Grid::uniform(0.0, 1.0, 9).unwrap();
        let k1 = Curvature.map(&circle(1.0), &grid).unwrap();
        let k3 = Curvature.map(&circle(3.0), &grid).unwrap();
        for (a, b) in k1.iter().zip(&k3) {
            assert!((a / 3.0 - b).abs() < 1e-8);
        }
    }

    #[test]
    fn radius_of_curvature_inverts() {
        let grid = Grid::uniform(0.0, 1.0, 9).unwrap();
        let r = RadiusOfCurvature.map(&circle(2.0), &grid).unwrap();
        assert!(r.iter().all(|&ri| (ri - 2.0).abs() < 1e-7), "{r:?}");
        // straight line => capped radius
        let r = RadiusOfCurvature.map(&line(), &grid).unwrap();
        assert!(r.iter().all(|&ri| ri == 1.0 / SPEED_EPS));
    }

    #[test]
    fn univariate_input_rejected() {
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 2).unwrap());
        let x = FunctionalDatum::new(basis, vec![0.0, 1.0]).unwrap();
        let uni = MultiFunctionalDatum::from_univariate(x);
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        assert!(matches!(
            Curvature.map(&uni, &grid),
            Err(GeometryError::DimensionUnsupported { .. })
        ));
    }

    #[test]
    fn stationary_path_maps_to_zero() {
        // constant path: X(t) = (1, 1): speed 0 everywhere
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 2).unwrap());
        let c = FunctionalDatum::new(Arc::clone(&basis), vec![1.0, 0.0]).unwrap();
        let datum = MultiFunctionalDatum::new(vec![c.clone(), c]).unwrap();
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        let k = Curvature.map(&datum, &grid).unwrap();
        assert!(k.iter().all(|&ki| ki == 0.0));
        let k = CurvatureEq5.map(&datum, &grid).unwrap();
        assert!(k.iter().all(|&ki| ki == 0.0));
    }

    #[test]
    fn pointwise_helper_known_values() {
        // planar: v = (1, 0), a = (0, 1) → κ = 1
        assert!((curvature_from_derivatives(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        // v = (2, 0), a = (0, 1): κ = ‖v×a‖/‖v‖³ = 2/8 = 0.25
        assert!((curvature_from_derivatives(&[2.0, 0.0], &[0.0, 1.0]) - 0.25).abs() < 1e-12);
        // parallel v, a → 0
        assert_eq!(curvature_from_derivatives(&[1.0, 1.0], &[2.0, 2.0]), 0.0);
        // zero velocity → 0 by convention
        assert_eq!(curvature_from_derivatives(&[0.0, 0.0], &[1.0, 0.0]), 0.0);
    }

    #[test]
    fn helix_curvature_in_3d() {
        // Helix (cos ωt, sin ωt, ct) has κ = ω²r/(ω²r² + c²) with r = 1.
        // Build with Fourier (periodic channels) + polynomial z … simpler:
        // evaluate the helper directly at analytic derivatives.
        let omega = std::f64::consts::TAU;
        let c = 0.5;
        for i in 0..8 {
            let t = i as f64 / 8.0;
            let v = [-omega * (omega * t).sin(), omega * (omega * t).cos(), c];
            let a = [
                -omega * omega * (omega * t).cos(),
                -omega * omega * (omega * t).sin(),
                0.0,
            ];
            let k = curvature_from_derivatives(&v, &a);
            let expect = omega * omega / (omega * omega + c * c);
            assert!((k - expect).abs() < 1e-9, "t={t}");
        }
    }
}
