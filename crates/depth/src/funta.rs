//! FUNTA — *functional tangential angle* pseudo-depth (Kuhnt & Rehage,
//! *JMVA* 2016), one of the paper's two baselines.
//!
//! For every pair of curves, FUNTA finds the points where they intersect
//! (sign changes of the difference of their linear interpolants) and records
//! the intersection angle between the two segments. Deep (central) curves
//! cross others at shallow angles; shape outliers cross steeply. The
//! pseudo-depth is `1 − mean(|γ|/π)`; we report the **outlyingness**
//! `mean(|γ|/π)` directly so that higher = more outlying.
//!
//! For multivariate functional data the per-channel outlyingness values are
//! averaged (the paper: "average these angles over both their number and
//! the parameters"). As the paper notes (Sec. 1.2), FUNTA only targets
//! persistent *shape* outliers: magnitude outliers that never intersect the
//! bulk produce no angles at all and receive outlyingness 0 — faithfully
//! reproduced here.
//!
//! Every curve is compared with every other one, so each scoring call first
//! tabulates, per curve and channel, the values and the `atan` of every
//! segment's slope; the `O(n² · m)` pair loop then only tests for
//! crossings and differences two table entries per crossing.

use crate::dataset::GriddedDataSet;
use crate::error::DepthError;
use crate::{FunctionalOutlierScorer, Result};

/// The FUNTA scorer.
#[derive(Debug, Clone)]
pub struct Funta {
    /// Fraction trimmed from each tail of the angle distribution before
    /// averaging (`0.0` = plain FUNTA; `> 0` = the robustified rFUNTA
    /// variant of Kuhnt & Rehage).
    pub trim: f64,
}

impl Default for Funta {
    fn default() -> Self {
        Funta { trim: 0.0 }
    }
}

impl Funta {
    /// Plain FUNTA (untrimmed mean of intersection angles).
    pub fn new() -> Self {
        Funta::default()
    }

    /// Robustified rFUNTA with the given per-tail trimming fraction
    /// (`0 <= trim < 0.5`).
    pub fn robust(trim: f64) -> Result<Self> {
        if !(0.0..0.5).contains(&trim) {
            return Err(DepthError::InvalidParameter(format!(
                "trim must be in [0, 0.5), got {trim}"
            )));
        }
        Ok(Funta { trim })
    }

    /// Folds one curve's normalized intersection angles in one channel
    /// into its outlyingness, trimming `angles` in place for rFUNTA.
    fn aggregate(&self, angles: &mut [f64]) -> f64 {
        if angles.is_empty() {
            // a curve that never intersects anything yields no angle
            // information; FUNTA leaves it maximally deep
            return 0.0;
        }
        let mut kept = 0..angles.len();
        if self.trim > 0.0 {
            angles.sort_by(|a, b| a.total_cmp(b));
            let cut = ((angles.len() as f64) * self.trim).floor() as usize;
            if angles.len() > 2 * cut {
                kept = cut..angles.len() - cut;
            }
        }
        let kept = &angles[kept];
        kept.iter().sum::<f64>() / kept.len() as f64
    }

    /// Outlyingness of every `queries` curve against the `references`
    /// curves, averaged over channels. `skip_self` drops the pair of a
    /// curve with itself (the joint score, where both tables are the same
    /// dataset).
    fn score_tables(
        &self,
        queries: &CurveTables,
        references: &CurveTables,
        skip_self: bool,
    ) -> Vec<f64> {
        let p = queries.p;
        let mut angles = Vec::new();
        (0..queries.n)
            .map(|i| {
                // average the per-channel outlyingness over the p channels
                let mut total = 0.0;
                for k in 0..p {
                    angles.clear();
                    let (vi, ai) = queries.curve(i, k);
                    for j in 0..references.n {
                        if skip_self && j == i {
                            continue;
                        }
                        let (vj, aj) = references.curve(j, k);
                        push_crossing_angles(vi, ai, vj, aj, &mut angles);
                    }
                    total += self.aggregate(&mut angles);
                }
                total / p as f64
            })
            .collect()
    }
}

/// Per-curve, per-channel tables of a dataset on a fixed grid, built once
/// per scoring call: each channel's values contiguous, and the
/// intersection-angle ingredient `atan(slope)` of every segment — so the
/// pair loop, which visits each curve `n` times, computes no `atan`.
struct CurveTables {
    n: usize,
    p: usize,
    m: usize,
    /// Curve `i`, channel `k` at `[(i·p + k)·m ..][..m]`.
    values: Vec<f64>,
    /// `atan` of the slope of segment `l` of curve `i`, channel `k` at
    /// `(i·p + k)·(m − 1) + l`.
    slope_atans: Vec<f64>,
}

impl CurveTables {
    /// Tables of every sample of `data`, with the segment widths of `grid`.
    fn build(data: &GriddedDataSet, grid: &[f64]) -> Self {
        let (n, p, m) = (data.n(), data.dim(), grid.len());
        let mut values = Vec::with_capacity(n * p * m);
        let mut slope_atans = Vec::with_capacity(n * p * (m - 1));
        for x in data.samples() {
            for k in 0..p {
                for l in 0..m {
                    values.push(x[(l, k)]);
                }
                for l in 0..m - 1 {
                    let dt = grid[l + 1] - grid[l];
                    let slope = (x[(l + 1, k)] - x[(l, k)]) / dt;
                    slope_atans.push(slope.atan());
                }
            }
        }
        CurveTables {
            n,
            p,
            m,
            values,
            slope_atans,
        }
    }

    /// Values and segment `atan(slope)`s of curve `i`, channel `k`.
    fn curve(&self, i: usize, k: usize) -> (&[f64], &[f64]) {
        let c = i * self.p + k;
        (
            &self.values[c * self.m..(c + 1) * self.m],
            &self.slope_atans[c * (self.m - 1)..(c + 1) * (self.m - 1)],
        )
    }
}

/// Appends to `angles` the normalized intersection angles between two
/// curves (one channel each), given their values and segment
/// `atan(slope)`s.
fn push_crossing_angles(vi: &[f64], ai: &[f64], vj: &[f64], aj: &[f64], angles: &mut Vec<f64>) {
    for l in 0..ai.len() {
        let d0 = vi[l] - vj[l];
        let d1 = vi[l + 1] - vj[l + 1];
        // Crossing inside segment l (strict sign change), or exact
        // touch at the left endpoint counted once.
        let crosses = (d0 > 0.0 && d1 < 0.0) || (d0 < 0.0 && d1 > 0.0) || d0 == 0.0;
        if crosses {
            // intersection angle between the two segments, in [0, π)
            let gamma = (ai[l] - aj[l]).abs();
            angles.push(gamma / std::f64::consts::PI);
        }
    }
}

impl FunctionalOutlierScorer for Funta {
    fn name(&self) -> &'static str {
        if self.trim > 0.0 {
            "rfunta"
        } else {
            "funta"
        }
    }

    fn snapshot(&self) -> Option<crate::DepthScorerSnapshot> {
        Some(crate::DepthScorerSnapshot::Funta { trim: self.trim })
    }

    fn score(&self, data: &GriddedDataSet) -> Result<Vec<f64>> {
        if data.n() < 2 {
            return Err(DepthError::TooFewSamples {
                got: data.n(),
                need: 2,
            });
        }
        let tables = CurveTables::build(data, data.grid());
        Ok(self.score_tables(&tables, &tables, true))
    }

    fn score_against(
        &self,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<Vec<f64>> {
        if reference.n() < 1 {
            return Err(DepthError::TooFewSamples {
                got: reference.n(),
                need: 1,
            });
        }
        if reference.m() != queries.m() || reference.dim() != queries.dim() {
            return Err(DepthError::ShapeMismatch(
                "reference and queries must share grid and channels".into(),
            ));
        }
        // slopes use the queries' segment widths for both sides
        let grid = queries.grid();
        Ok(self.score_tables(
            &CurveTables::build(queries, grid),
            &CurveTables::build(reference, grid),
            false,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_linalg::Matrix;

    /// Bundle of gently crossing lines (slopes near 1 through a common
    /// pivot) plus one steeply descending crosser.
    fn crossing_bundle() -> GriddedDataSet {
        let m = 21;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut curves = Vec::new();
        for i in 0..8 {
            // slopes 0.86 … 1.14 pivoting around (0.5, 0.5): the inliers
            // cross each other at shallow angles
            let slope = 0.86 + i as f64 * 0.04;
            curves.push(
                grid.iter()
                    .map(|&t| 0.5 + slope * (t - 0.5))
                    .collect::<Vec<f64>>(),
            );
        }
        // steep crosser: descends through the whole bundle
        curves.push(grid.iter().map(|&t| 1.0 - 4.0 * t).collect::<Vec<f64>>());
        GriddedDataSet::from_univariate(grid, curves).unwrap()
    }

    #[test]
    fn steep_crosser_is_most_outlying() {
        let d = crossing_bundle();
        let s = Funta::new().score(&d).unwrap();
        let max_idx = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 8, "{s:?}");
        // outlyingness is in [0, 1]
        assert!(s.iter().all(|&v| (0.0..=1.0).contains(&v)));
        // inliers cross each other at shallow angles: their scores must be
        // clearly below the crosser's
        for i in 0..8 {
            assert!(s[i] < s[8] * 0.8, "inlier {i} score {} vs {}", s[i], s[8]);
        }
    }

    #[test]
    fn parallel_curves_have_zero_outlyingness() {
        // Curves that never cross produce no angles at all.
        let grid: Vec<f64> = (0..10).map(|j| j as f64).collect();
        let curves: Vec<Vec<f64>> = (0..5)
            .map(|i| grid.iter().map(|&t| t + i as f64).collect())
            .collect();
        let d = GriddedDataSet::from_univariate(grid, curves).unwrap();
        let s = Funta::new().score(&d).unwrap();
        assert!(s.iter().all(|&v| v == 0.0), "{s:?}");
    }

    #[test]
    fn identical_slopes_crossing_at_zero_angle() {
        // Two identical-slope curves that touch: the angle is zero.
        let grid = vec![0.0, 1.0, 2.0];
        let c1 = vec![0.0, 1.0, 2.0];
        let c2 = vec![0.0, 1.0, 2.0]; // identical curve: d0 == 0 everywhere
        let d = GriddedDataSet::from_univariate(grid, vec![c1, c2]).unwrap();
        let s = Funta::new().score(&d).unwrap();
        assert!(s.iter().all(|&v| v.abs() < 1e-12));
    }

    #[test]
    fn shape_outlier_in_sine_bundle() {
        // Phase-inverted sine among in-phase sines: a persistent shape
        // outlier that FUNTA is designed to catch.
        let m = 50;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut curves: Vec<Vec<f64>> = (0..9)
            .map(|i| {
                let a = 1.0 + i as f64 * 0.02;
                grid.iter()
                    .map(|&t| a * (std::f64::consts::TAU * t).sin())
                    .collect()
            })
            .collect();
        curves.push(
            grid.iter()
                .map(|&t| -(std::f64::consts::TAU * t).sin())
                .collect(),
        );
        let d = GriddedDataSet::from_univariate(grid, curves).unwrap();
        let s = Funta::new().score(&d).unwrap();
        let max_idx = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 9, "{s:?}");
    }

    #[test]
    fn multichannel_averages_channels() {
        let grid = vec![0.0, 0.5, 1.0];
        // channel 0: curves cross; channel 1: all identical (no angles)
        let s1 = Matrix::from_rows(&[&[0.0, 5.0], &[0.5, 5.0], &[1.0, 5.0]]);
        let s2 = Matrix::from_rows(&[&[1.0, 5.0], &[0.5, 5.0], &[0.0, 5.0]]);
        let d = GriddedDataSet::new(grid, vec![s1, s2]).unwrap();
        let s = Funta::new().score(&d).unwrap();
        // channel 0 angle: |atan(1) - atan(-1)| / π = (π/2)/π = 0.5, halved
        // by the flat channel's zero
        assert!((s[0] - 0.25).abs() < 1e-12, "{s:?}");
        assert!((s[1] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn robust_variant_trims_extremes() {
        let d = crossing_bundle();
        let plain = Funta::new().score(&d).unwrap();
        let robust = Funta::robust(0.2).unwrap().score(&d).unwrap();
        assert_eq!(plain.len(), robust.len());
        // trimming must not create scores outside [0, 1]
        assert!(robust.iter().all(|&v| (0.0..=1.0).contains(&v)));
        assert!(Funta::robust(0.5).is_err());
        assert!(Funta::robust(-0.1).is_err());
        assert_eq!(Funta::new().name(), "funta");
        assert_eq!(Funta::robust(0.1).unwrap().name(), "rfunta");
    }

    /// Straightforward per-pair FUNTA: angles recomputed from the raw
    /// samples for every pair, as in the textbook definition.
    fn reference_angles(grid: &[f64], xi: &Matrix, xj: &Matrix, k: usize, angles: &mut Vec<f64>) {
        for l in 0..grid.len() - 1 {
            let d0 = xi[(l, k)] - xj[(l, k)];
            let d1 = xi[(l + 1, k)] - xj[(l + 1, k)];
            if (d0 > 0.0 && d1 < 0.0) || (d0 < 0.0 && d1 > 0.0) || d0 == 0.0 {
                let dt = grid[l + 1] - grid[l];
                let slope_i = (xi[(l + 1, k)] - xi[(l, k)]) / dt;
                let slope_j = (xj[(l + 1, k)] - xj[(l, k)]) / dt;
                let gamma = (slope_i.atan() - slope_j.atan()).abs();
                angles.push(gamma / std::f64::consts::PI);
            }
        }
    }

    fn reference_aggregate(trim: f64, mut angles: Vec<f64>) -> f64 {
        if angles.is_empty() {
            return 0.0;
        }
        if trim > 0.0 {
            angles.sort_by(|a, b| a.total_cmp(b));
            let cut = ((angles.len() as f64) * trim).floor() as usize;
            if angles.len() > 2 * cut {
                angles = angles[cut..angles.len() - cut].to_vec();
            }
        }
        angles.iter().sum::<f64>() / angles.len() as f64
    }

    /// Reference scores of `queries` against `reference` (`joint`: the
    /// same dataset, self-pairs skipped), slopes on the queries' grid.
    fn reference_scores(
        trim: f64,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
        joint: bool,
    ) -> Vec<f64> {
        (0..queries.n())
            .map(|i| {
                let mut total = 0.0;
                for k in 0..queries.dim() {
                    let mut angles = Vec::new();
                    for j in 0..reference.n() {
                        if joint && j == i {
                            continue;
                        }
                        let (xi, xj) = (queries.sample(i), reference.sample(j));
                        reference_angles(queries.grid(), xi, xj, k, &mut angles);
                    }
                    total += reference_aggregate(trim, angles);
                }
                total / queries.dim() as f64
            })
            .collect()
    }

    /// Three-channel curves on a coarse value lattice, so many pairs meet
    /// exactly at grid points (`d0 == 0`).
    fn lattice_dataset(grid: Vec<f64>) -> GriddedDataSet {
        let m = grid.len();
        let samples = (0..14)
            .map(|i| {
                let mut s = Matrix::zeros(m, 3);
                for l in 0..m {
                    for k in 0..3 {
                        let wave = ((i + 2 * k) as f64 * 0.9 + l as f64 * 0.4).sin();
                        s[(l, k)] = (wave * 4.0).round() * 0.25 + (i % 3) as f64 * 0.125;
                    }
                }
                s
            })
            .collect();
        GriddedDataSet::new(grid, samples).unwrap()
    }

    #[test]
    fn table_kernel_matches_per_pair_reference_bit_for_bit() {
        let m = 31;
        let data = lattice_dataset((0..m).map(|l| l as f64 / (m - 1) as f64).collect());
        // a differently spaced grid for the queries: slopes use its widths
        let queries = lattice_dataset((0..m).map(|l| (l as f64).powf(1.2)).collect());
        let reference = data.subset(&(0..9).collect::<Vec<_>>()).unwrap();
        let touches = (0..data.n())
            .flat_map(|i| (0..data.n()).map(move |j| (i, j)))
            .filter(|&(i, j)| i != j)
            .flat_map(|(i, j)| (0..m).map(move |l| (i, j, l)))
            .filter(|&(i, j, l)| (0..3).any(|k| data.sample(i)[(l, k)] == data.sample(j)[(l, k)]))
            .count();
        assert!(
            touches > 100,
            "fixture must exercise exact touches: {touches}"
        );
        for trim in [0.0, 0.1, 0.3] {
            let funta = Funta { trim };
            let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            assert_eq!(
                bits(funta.score(&data).unwrap()),
                bits(reference_scores(trim, &data, &data, true)),
                "joint, trim {trim}"
            );
            assert_eq!(
                bits(funta.score_against(&reference, &queries).unwrap()),
                bits(reference_scores(trim, &reference, &queries, false)),
                "against, trim {trim}"
            );
        }
    }

    #[test]
    fn needs_two_samples() {
        let grid = vec![0.0, 1.0];
        let d = GriddedDataSet::from_univariate(grid, vec![vec![0.0, 1.0]]).unwrap();
        assert!(matches!(
            Funta::new().score(&d),
            Err(DepthError::TooFewSamples { .. })
        ));
    }
}
