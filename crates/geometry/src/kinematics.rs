//! Kinematic mapping functions: speed, log-speed, arc length, acceleration
//! magnitude and planar turning angle.
//!
//! These complement the curvature mapping: speed-type mappings are sensitive
//! to *magnitude/isolated* outlyingness (a spike changes `‖X′‖` sharply),
//! while arc length accumulates persistent deviations — together they cover
//! the Hubert et al. taxonomy discussed in Sec. 1.1 of the paper.
//!
//! Like every mapping they read the derivatives on the whole grid from
//! the channel bases' shared rows (see [`crate::mapping`]).

use crate::mapping::{finite, MappingFunction, SPEED_EPS};
use crate::Result;
use mfod_fda::{Grid, MultiFunctionalDatum};
use mfod_linalg::vector;

/// `‖D^d X(t_j)‖` at every grid point.
fn deriv_norms(datum: &MultiFunctionalDatum, grid: &Grid, d: usize) -> Result<Vec<f64>> {
    let rows = datum.eval_grid_deriv(grid, d);
    finite(
        (0..grid.len())
            .map(|j| vector::norm2(rows.row(j)))
            .collect(),
    )
}

/// Speed mapping `s(t) = ‖D¹X(t)‖`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Speed;

impl MappingFunction for Speed {
    fn name(&self) -> &'static str {
        "speed"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Speed)
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        self.check_dim(datum)?;
        deriv_norms(datum, grid, 1)
    }
}

/// Log-speed mapping `log(‖D¹X(t)‖ + ε)`, a variance-stabilized speed
/// useful when speeds span orders of magnitude.
#[derive(Debug, Clone, Copy, Default)]
pub struct LogSpeed;

impl MappingFunction for LogSpeed {
    fn name(&self) -> &'static str {
        "log-speed"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::LogSpeed)
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        let speed = Speed.map(datum, grid)?;
        Ok(speed.into_iter().map(|s| (s + SPEED_EPS).ln()).collect())
    }
}

/// Cumulative arc length `ℓ(t) = ∫ₐᵗ ‖D¹X(u)‖ du` (trapezoidal on the
/// grid), a monotone mapping that accumulates persistent deviations.
#[derive(Debug, Clone, Copy, Default)]
pub struct ArcLength;

impl MappingFunction for ArcLength {
    fn name(&self) -> &'static str {
        "arc-length"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::ArcLength)
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        let speed = Speed.map(datum, grid)?;
        Ok(vector::cumtrapz(grid.points(), &speed))
    }
}

/// Acceleration-magnitude mapping `‖D²X(t)‖`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acceleration;

impl MappingFunction for Acceleration {
    fn name(&self) -> &'static str {
        "acceleration"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::Acceleration)
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        self.check_dim(datum)?;
        deriv_norms(datum, grid, 2)
    }
}

/// Norm of the square-root velocity function (SRVF) of shape analysis
/// (Srivastava & Klassen, *Functional and Shape Data Analysis* — the
/// paper's reference \[15\]): `‖q(t)‖ = ‖X′(t)‖ / √‖X′(t)‖ = √‖X′(t)‖`.
///
/// The SRVF is the representation under which the elastic (Fisher–Rao)
/// metric becomes the plain L² metric, so distances between mapped curves
/// approximate elastic shape distances — a principled alternative feature
/// for the detector stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct SrvfNorm;

impl MappingFunction for SrvfNorm {
    fn name(&self) -> &'static str {
        "srvf-norm"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::SrvfNorm)
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        let speed = Speed.map(datum, grid)?;
        Ok(speed.into_iter().map(f64::sqrt).collect())
    }
}

/// Planar turning angle `θ(t) = atan2(x₂′(t), x₁′(t))`, unwrapped to be
/// continuous. Only defined for `p = 2`; where the speed vanishes the last
/// well-defined angle is carried forward.
#[derive(Debug, Clone, Copy, Default)]
pub struct TurningAngle;

impl MappingFunction for TurningAngle {
    fn name(&self) -> &'static str {
        "turning-angle"
    }

    fn snapshot(&self) -> Option<crate::snapshot::MappingSnapshot> {
        Some(crate::snapshot::MappingSnapshot::TurningAngle)
    }

    fn min_dim(&self) -> usize {
        2
    }

    fn max_dim(&self) -> usize {
        2
    }

    fn map(&self, datum: &MultiFunctionalDatum, grid: &Grid) -> Result<Vec<f64>> {
        self.check_dim(datum)?;
        let vs = datum.eval_grid_deriv(grid, 1);
        let mut out = Vec::with_capacity(grid.len());
        let mut prev_raw: Option<f64> = None;
        let mut offset = 0.0;
        let mut last = 0.0;
        for j in 0..grid.len() {
            let v = vs.row(j);
            let angle = if vector::norm2(v) < SPEED_EPS {
                last // carry the last well-defined angle forward
            } else {
                let raw = v[1].atan2(v[0]);
                if let Some(p) = prev_raw {
                    // unwrap: keep |Δθ| <= π by adding multiples of 2π
                    let mut d = raw - p;
                    while d > std::f64::consts::PI {
                        d -= std::f64::consts::TAU;
                        offset -= std::f64::consts::TAU;
                    }
                    while d < -std::f64::consts::PI {
                        d += std::f64::consts::TAU;
                        offset += std::f64::consts::TAU;
                    }
                }
                prev_raw = Some(raw);
                raw + offset
            };
            last = angle;
            out.push(angle);
        }
        finite(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{bits, cusp_path, deriv_at, parity_grid, spline_path};
    use crate::GeometryError;
    use mfod_fda::prelude::*;
    use std::sync::Arc;

    /// Per-point reference for [`Speed`] (`d = 1`) and [`Acceleration`]
    /// (`d = 2`): the derivatives evaluated one grid point at a time.
    fn reference_norms(datum: &MultiFunctionalDatum, grid: &Grid, d: usize) -> Vec<f64> {
        grid.iter()
            .map(|t| vector::norm2(&deriv_at(datum, t, d)))
            .collect()
    }

    /// Per-point reference for [`TurningAngle`].
    fn reference_turning_angle(datum: &MultiFunctionalDatum, grid: &Grid) -> Vec<f64> {
        let mut out = Vec::with_capacity(grid.len());
        let mut prev_raw: Option<f64> = None;
        let mut offset = 0.0;
        let mut last = 0.0;
        for t in grid.iter() {
            let v = deriv_at(datum, t, 1);
            let angle = if vector::norm2(&v) < SPEED_EPS {
                last
            } else {
                let raw = v[1].atan2(v[0]);
                if let Some(p) = prev_raw {
                    let mut d = raw - p;
                    while d > std::f64::consts::PI {
                        d -= std::f64::consts::TAU;
                        offset -= std::f64::consts::TAU;
                    }
                    while d < -std::f64::consts::PI {
                        d += std::f64::consts::TAU;
                        offset += std::f64::consts::TAU;
                    }
                }
                prev_raw = Some(raw);
                raw + offset
            };
            last = angle;
            out.push(angle);
        }
        out
    }

    #[test]
    fn grid_table_path_matches_per_point_reference() {
        let grid = parity_grid();
        let paths = [
            spline_path(1),
            spline_path(2),
            spline_path(3),
            cusp_path(2),
            cusp_path(3),
            circle(2.0),
        ];
        for datum in &paths {
            let speed = reference_norms(datum, &grid, 1);
            assert_eq!(bits(&Speed.map(datum, &grid).unwrap()), bits(&speed));
            let log: Vec<f64> = speed.iter().map(|s| (s + SPEED_EPS).ln()).collect();
            assert_eq!(bits(&LogSpeed.map(datum, &grid).unwrap()), bits(&log));
            let arc = vector::cumtrapz(grid.points(), &speed);
            assert_eq!(bits(&ArcLength.map(datum, &grid).unwrap()), bits(&arc));
            let srvf: Vec<f64> = speed.iter().map(|s| s.sqrt()).collect();
            assert_eq!(bits(&SrvfNorm.map(datum, &grid).unwrap()), bits(&srvf));
            assert_eq!(
                bits(&Acceleration.map(datum, &grid).unwrap()),
                bits(&reference_norms(datum, &grid, 2))
            );
        }
        // planar paths: a stationary point carries the angle forward, and
        // two full turns of a circle unwrap across the ±π cut
        let two_turns = circle_turns(1.0, 2);
        for datum in [&paths[1], &paths[3], &paths[5], &two_turns] {
            assert_eq!(
                bits(&TurningAngle.map(datum, &grid).unwrap()),
                bits(&reference_turning_angle(datum, &grid))
            );
        }
        let cusp = TurningAngle.map(&paths[3], &grid).unwrap();
        assert_eq!(cusp[32], cusp[31], "stationary point carries the angle");
        let th = TurningAngle.map(&two_turns, &grid).unwrap();
        assert!((th[64] - th[0]).abs() > 4.0 * std::f64::consts::PI - 1e-6);
    }

    fn line(slope_x: f64, slope_y: f64) -> MultiFunctionalDatum {
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 2).unwrap());
        let x = FunctionalDatum::new(Arc::clone(&basis), vec![0.0, slope_x]).unwrap();
        let y = FunctionalDatum::new(basis, vec![0.0, slope_y]).unwrap();
        MultiFunctionalDatum::new(vec![x, y]).unwrap()
    }

    fn circle(r: f64) -> MultiFunctionalDatum {
        circle_turns(r, 1)
    }

    /// A circle of radius `r` traversed `turns` times on [0, 1], through
    /// the `turns`-th Fourier harmonic pair.
    fn circle_turns(r: f64, turns: usize) -> MultiFunctionalDatum {
        let len = 2 * turns + 1;
        let basis: Arc<dyn Basis> = Arc::new(FourierBasis::new(0.0, 1.0, len).unwrap());
        let amp = r / 2.0_f64.sqrt();
        let (mut cx, mut cy) = (vec![0.0; len], vec![0.0; len]);
        cx[len - 1] = amp;
        cy[len - 2] = amp;
        let x = FunctionalDatum::new(Arc::clone(&basis), cx).unwrap();
        let y = FunctionalDatum::new(basis, cy).unwrap();
        MultiFunctionalDatum::new(vec![x, y]).unwrap()
    }

    #[test]
    fn speed_of_line_is_constant() {
        let grid = Grid::uniform(0.0, 1.0, 11).unwrap();
        let s = Speed.map(&line(3.0, 4.0), &grid).unwrap();
        assert!(s.iter().all(|&v| (v - 5.0).abs() < 1e-10), "{s:?}");
    }

    #[test]
    fn speed_of_circle_is_circumference_rate() {
        // circle of radius r traversed once in unit time: speed = 2πr
        let grid = Grid::uniform(0.0, 1.0, 11).unwrap();
        let s = Speed.map(&circle(2.0), &grid).unwrap();
        let expect = std::f64::consts::TAU * 2.0;
        assert!(s.iter().all(|&v| (v - expect).abs() < 1e-8), "{s:?}");
    }

    #[test]
    fn log_speed_is_log_of_speed() {
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        let datum = line(3.0, 4.0);
        let s = Speed.map(&datum, &grid).unwrap();
        let ls = LogSpeed.map(&datum, &grid).unwrap();
        for (a, b) in s.iter().zip(&ls) {
            assert!(((a + SPEED_EPS).ln() - b).abs() < 1e-12);
        }
    }

    #[test]
    fn arc_length_of_line_is_distance() {
        let grid = Grid::uniform(0.0, 1.0, 101).unwrap();
        let l = ArcLength.map(&line(3.0, 4.0), &grid).unwrap();
        assert_eq!(l[0], 0.0);
        assert!((l[100] - 5.0).abs() < 1e-9);
        // monotone non-decreasing
        for w in l.windows(2) {
            assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn arc_length_of_circle_is_circumference() {
        let grid = Grid::uniform(0.0, 1.0, 201).unwrap();
        let l = ArcLength.map(&circle(1.0), &grid).unwrap();
        assert!((l[200] - std::f64::consts::TAU).abs() < 1e-6, "{}", l[200]);
    }

    #[test]
    fn acceleration_of_line_is_zero() {
        let grid = Grid::uniform(0.0, 1.0, 7).unwrap();
        let a = Acceleration.map(&line(1.0, 2.0), &grid).unwrap();
        assert!(a.iter().all(|&v| v.abs() < 1e-10));
    }

    #[test]
    fn acceleration_of_circle_is_centripetal() {
        // ‖a‖ = ω²r with ω = 2π, r = 1
        let grid = Grid::uniform(0.0, 1.0, 7).unwrap();
        let a = Acceleration.map(&circle(1.0), &grid).unwrap();
        let expect = std::f64::consts::TAU * std::f64::consts::TAU;
        assert!(a.iter().all(|&v| (v - expect).abs() < 1e-7), "{a:?}");
    }

    #[test]
    fn turning_angle_of_line_is_constant() {
        let grid = Grid::uniform(0.0, 1.0, 9).unwrap();
        let th = TurningAngle.map(&line(1.0, 1.0), &grid).unwrap();
        let expect = std::f64::consts::FRAC_PI_4;
        assert!(th.iter().all(|&v| (v - expect).abs() < 1e-10), "{th:?}");
    }

    #[test]
    fn turning_angle_of_circle_unwraps_continuously() {
        // Full traversal of a circle turns the tangent by 2π total without
        // jumps larger than the grid step would imply.
        let grid = Grid::uniform(0.0, 1.0, 101).unwrap();
        let th = TurningAngle.map(&circle(1.0), &grid).unwrap();
        let total = th[100] - th[0];
        assert!(
            (total.abs() - std::f64::consts::TAU).abs() < 1e-6,
            "total {total}"
        );
        for w in th.windows(2) {
            assert!((w[1] - w[0]).abs() < 0.2, "jump {}", (w[1] - w[0]).abs());
        }
    }

    #[test]
    fn turning_angle_requires_exactly_2d() {
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 2).unwrap());
        let c = FunctionalDatum::new(basis, vec![0.0, 1.0]).unwrap();
        let tri = MultiFunctionalDatum::new(vec![c.clone(), c.clone(), c]).unwrap();
        assert!(matches!(
            TurningAngle.map(&tri, &grid),
            Err(GeometryError::DimensionUnsupported { .. })
        ));
    }

    #[test]
    fn srvf_norm_is_sqrt_speed() {
        let grid = Grid::uniform(0.0, 1.0, 7).unwrap();
        let datum = line(3.0, 4.0);
        let q = SrvfNorm.map(&datum, &grid).unwrap();
        // ‖X′‖ = 5 everywhere ⇒ ‖q‖ = √5
        assert!(
            q.iter().all(|&v| (v - 5.0f64.sqrt()).abs() < 1e-10),
            "{q:?}"
        );
        // circle of radius r: speed 2πr ⇒ √(2πr)
        let q = SrvfNorm.map(&circle(2.0), &grid).unwrap();
        let expect = (std::f64::consts::TAU * 2.0).sqrt();
        assert!(q.iter().all(|&v| (v - expect).abs() < 1e-7));
        assert_eq!(SrvfNorm.name(), "srvf-norm");
    }

    #[test]
    fn speed_works_for_univariate() {
        let grid = Grid::uniform(0.0, 1.0, 5).unwrap();
        let basis: Arc<dyn Basis> = Arc::new(PolynomialBasis::new(0.0, 1.0, 2).unwrap());
        let c = FunctionalDatum::new(basis, vec![0.0, -2.0]).unwrap();
        let uni = MultiFunctionalDatum::from_univariate(c);
        let s = Speed.map(&uni, &grid).unwrap();
        assert!(s.iter().all(|&v| (v - 2.0).abs() < 1e-12));
    }
}
