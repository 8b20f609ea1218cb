//! Directional outlyingness — `Dir.out` (Dai & Genton, *CSDA* 2019), the
//! paper's second baseline.
//!
//! At every grid point the point cloud `{X_i(t_j)}_i ⊂ R^p` is scored with
//! projection-depth outlyingness, oriented by the unit vector from the
//! cloud's center to the point:
//!
//! ```text
//! O(X_i(t), t) = (1/PD(X_i(t)) − 1) · v_i(t) = O_pd(X_i(t)) · v_i(t)
//! ```
//!
//! The pointwise scores are then aggregated over `t` into
//!
//! * `MO_i = (1/|T|) ∫ O(X_i(t), t) dt` — *mean* directional outlyingness
//!   (a vector in `R^p`; large for magnitude/isolated-style outliers), and
//! * `VO_i = (1/|T|) ∫ ‖O(X_i(t), t) − MO_i‖² dt` — *variation* of
//!   directional outlyingness (large for shape/persistent outliers),
//!
//! combined into the **functional outlyingness** `FO = ‖MO‖² + VO` used as
//! the ranking score (Dai & Genton eq. (5); their MS-plot reads the two
//! components separately, which [`DirOutScores`] exposes).
//!
//! The parallelism lives in the grid loop: grid points fan out across the
//! worker pool of [`mfod_linalg::par`] and their blocks are reassembled in
//! grid order. Each grid point runs its random directions inline on its
//! own task, along one direction stream drawn once per decomposition and
//! shared by every grid point — scores are bit-for-bit identical at any
//! pool size.
//!
//! Two paths score a reference/query split. [`DirOut::decompose_against`]
//! projects two separate datasets direction by direction and selects each
//! median and MAD. [`DirOut::decompose_indexed`] scores index lists into
//! one dataset from its [`ProjectionTable`], which holds every curve's
//! projections already sorted: per split it only gathers the reference
//! members' sorted values, reads the median off the middle and finds the
//! MAD by binary search. Median and MAD are order statistics, and both
//! paths share the degenerate-direction predicate, the residual fold, the
//! orientation and the aggregation over `t`, so they agree bit for bit.
//! The Fig. 3 protocol builds one table per dataset and scores every split
//! through it.

use crate::dataset::GriddedDataSet;
use crate::projection::{
    coordinate_median, outlyingness_along, Directions, Membership, ProjectionConfig,
    ProjectionTable,
};
use crate::{FunctionalOutlierScorer, Result};
use mfod_linalg::{par, vector, Matrix};

/// The directional-outlyingness scorer.
#[derive(Debug, Clone, Default)]
pub struct DirOut {
    /// Random-projection settings for the pointwise projection depth
    /// (ignored for univariate clouds, which are computed exactly).
    pub projection: ProjectionConfig,
}

impl DirOut {
    /// Scorer with default projection settings.
    pub fn new() -> Self {
        DirOut::default()
    }

    /// Full decomposition: per-sample `MO` vectors, `VO` and `FO` values.
    /// Runs on the global worker pool; see [`DirOut::decompose_on`].
    pub fn decompose(&self, data: &GriddedDataSet) -> Result<DirOutScores> {
        self.decompose_on(par::global(), data)
    }

    /// [`DirOut::decompose`] on an explicit worker pool.
    ///
    /// Every grid point's point cloud is scored independently along the
    /// same direction stream (drawn once, before the fan-out), so the grid
    /// loop fans out across `pool` and the per-point blocks are
    /// reassembled in grid order — scores are bit-for-bit identical at
    /// any pool size, and the first failing grid point in grid order is
    /// the one reported, exactly as in the sequential loop.
    pub fn decompose_on(&self, pool: &par::Pool, data: &GriddedDataSet) -> Result<DirOutScores> {
        let dims = Dims {
            n: data.n(),
            m: data.m(),
            p: data.dim(),
        };
        let directions = Directions::draw(dims.p, &self.projection);
        decompose_pointwise_on(pool, dims, data.grid(), |j| {
            let cloud = data.point_cloud(j);
            let outcome =
                outlyingness_along(&cloud, None, &directions).map_err(|e| e.at_grid_point(j))?;
            Ok(oriented_block(&outcome, &cloud, &cloud))
        })
    }
}

/// The MO/VO/FO decomposition of a dataset under directional outlyingness.
#[derive(Debug, Clone)]
pub struct DirOutScores {
    /// Mean directional outlyingness per sample (vectors in `R^p`).
    pub mo: Vec<Vec<f64>>,
    /// Variation of directional outlyingness per sample.
    pub vo: Vec<f64>,
    /// Combined functional outlyingness `‖MO‖² + VO` per sample.
    pub fo: Vec<f64>,
    /// Projection directions skipped as degenerate, summed over all grid
    /// points — a quality signal: when it approaches
    /// [`DirOutScores::attempted_directions`] the effective direction
    /// budget has collapsed and the supremum is estimated from very few
    /// directions.
    pub degenerate_directions: usize,
    /// Projection directions attempted across all grid points
    /// (`used + degenerate`, as reported by the projection layer per grid
    /// point) — the denominator for
    /// [`DirOutScores::degenerate_directions`] when reporting
    /// direction-budget collapse.
    pub attempted_directions: usize,
}

impl DirOutScores {
    /// MS-plot coordinates `(‖MO‖, VO)` per sample — Dai & Genton's
    /// magnitude–shape plot. Points far along the `‖MO‖` axis are
    /// magnitude-style outliers; far along `VO`, shape-style; far in both,
    /// mixed.
    pub fn ms_points(&self) -> Vec<(f64, f64)> {
        self.mo
            .iter()
            .zip(&self.vo)
            .map(|(mo, &vo)| (vector::norm2(mo), vo))
            .collect()
    }
}

impl DirOut {
    /// MO/VO/FO of each `queries` sample with location/scale estimated from
    /// `reference` only (the train/test protocol: training contamination
    /// inflates the reference MAD and genuinely degrades the method, as the
    /// paper's Fig. 3 probes). Runs on the global worker pool; see
    /// [`DirOut::decompose_against_on`].
    pub fn decompose_against(
        &self,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<DirOutScores> {
        self.decompose_against_on(par::global(), reference, queries)
    }

    /// [`DirOut::decompose_against`] on an explicit worker pool, with the
    /// same grid-order determinism contract as [`DirOut::decompose_on`].
    pub fn decompose_against_on(
        &self,
        pool: &par::Pool,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<DirOutScores> {
        if reference.m() != queries.m() || reference.dim() != queries.dim() {
            return Err(crate::DepthError::ShapeMismatch(
                "reference and queries must share grid and channels".into(),
            ));
        }
        let dims = Dims {
            n: queries.n(),
            m: queries.m(),
            p: queries.dim(),
        };
        let directions = Directions::draw(dims.p, &self.projection);
        decompose_pointwise_on(pool, dims, queries.grid(), |j| {
            let ref_cloud = reference.point_cloud(j);
            let query_cloud = queries.point_cloud(j);
            let outcome = outlyingness_along(&ref_cloud, Some(&query_cloud), &directions)
                .map_err(|e| e.at_grid_point(j))?;
            Ok(oriented_block(&outcome, &ref_cloud, &query_cloud))
        })
    }

    /// MO/VO/FO of the `queries` curves of `table`'s dataset against its
    /// `reference` curves — bit-for-bit
    /// `decompose_against(&data.subset(reference)?, &data.subset(queries)?)`,
    /// the direction counts and errors included, for any index lists,
    /// overlapping or repeated ones too. Runs on the global worker pool;
    /// see [`DirOut::decompose_indexed_on`].
    pub fn decompose_indexed(
        &self,
        table: &ProjectionTable,
        reference: &[usize],
        queries: &[usize],
    ) -> Result<DirOutScores> {
        self.decompose_indexed_on(par::global(), table, reference, queries)
    }

    /// [`DirOut::decompose_indexed`] on an explicit worker pool, with the
    /// same grid-order determinism contract as [`DirOut::decompose_on`].
    /// The table must have been built with this scorer's
    /// [`DirOut::projection`] settings.
    pub fn decompose_indexed_on(
        &self,
        pool: &par::Pool,
        table: &ProjectionTable,
        reference: &[usize],
        queries: &[usize],
    ) -> Result<DirOutScores> {
        let data = table.data();
        for indices in [reference, queries] {
            if let Some(i) = indices.iter().find(|&&i| i >= data.n()) {
                return Err(crate::DepthError::InvalidParameter(format!(
                    "index {i} out of range"
                )));
            }
            if indices.is_empty() {
                return Err(crate::DepthError::TooFewSamples { got: 0, need: 1 });
            }
        }
        if table.config() != &self.projection {
            return Err(crate::DepthError::InvalidParameter(
                "projection table was built with other projection settings".into(),
            ));
        }
        let members = Membership::new(data.n(), reference);
        let dims = Dims {
            n: queries.len(),
            m: data.m(),
            p: data.dim(),
        };
        decompose_pointwise_on(pool, dims, data.grid(), |j| {
            let ref_cloud = data.point_cloud_of(j, reference);
            let query_cloud = data.point_cloud_of(j, queries);
            let outcome = table
                .outlyingness_at(j, &members, queries, &ref_cloud, &query_cloud)
                .map_err(|e| e.at_grid_point(j))?;
            Ok(oriented_block(&outcome, &ref_cloud, &query_cloud))
        })
    }
}

/// Problem sizes shared by the decompose drivers.
#[derive(Clone, Copy)]
struct Dims {
    /// Scored samples.
    n: usize,
    /// Grid points.
    m: usize,
    /// Channels.
    p: usize,
}

/// Per-grid-point result: the flattened `n × p` oriented-outlyingness
/// block plus the direction bookkeeping, accumulated in grid order.
type PointBlock = (Vec<f64>, usize, usize);

/// Orients pointwise outlyingness magnitudes at one grid point: each
/// scored row of `queries` gets `O_pd(x_i) · v_i` with `v_i` the unit
/// vector from the `reference` cloud's coordinate-wise median to the
/// point. The outcome's degenerate and attempted (`used + degenerate`)
/// direction counts ride along for grid-order accumulation.
fn oriented_block(
    outcome: &crate::projection::ProjectionOutcome,
    reference: &Matrix,
    queries: &Matrix,
) -> PointBlock {
    let magnitude = &outcome.scores;
    let n = queries.nrows();
    let p = queries.ncols();
    let center = coordinate_median(reference);
    let mut block = vec![0.0; n * p];
    for i in 0..n {
        let x = queries.row(i);
        let mut dir: Vec<f64> = x.iter().zip(&center).map(|(a, c)| a - c).collect();
        let norm = vector::normalize(&mut dir, 1e-12);
        if norm <= 1e-12 {
            // the point sits exactly at the center: zero outlyingness
            dir.iter_mut().for_each(|d| *d = 0.0);
        }
        for k in 0..p {
            block[i * p + k] = magnitude[i] * dir[k];
        }
    }
    (
        block,
        outcome.degenerate_directions,
        outcome.used_directions + outcome.degenerate_directions,
    )
}

/// Shared driver of both decompositions: fans `per_point` (the pointwise
/// cloud scoring at grid index `j`, returning the oriented `n × p` block
/// and a degenerate-direction count) out over `pool`, reassembles the
/// blocks in grid order, and aggregates over `t` with the trapezoid rule
/// normalized by `|T|`.
fn decompose_pointwise_on(
    pool: &par::Pool,
    dims: Dims,
    grid: &[f64],
    per_point: impl Fn(usize) -> Result<PointBlock> + Sync,
) -> Result<DirOutScores> {
    let Dims { n, m, p } = dims;
    let span = grid[m - 1] - grid[0];
    let blocks = pool.try_map(m, per_point)?;
    let mut degenerate_directions = 0usize;
    let mut attempted_directions = 0usize;
    for (_, degenerate, attempted) in &blocks {
        degenerate_directions += degenerate;
        attempted_directions += attempted;
    }
    // Aggregate straight off the per-point blocks — sample i's value at
    // grid point j, channel k is blocks[j].0[i*p + k] — so no transposed
    // copy of the O(n·m·p) oriented-outlyingness tensor is materialized.
    let mut mo = Vec::with_capacity(n);
    let mut vo = Vec::with_capacity(n);
    let mut fo = Vec::with_capacity(n);
    for i in 0..n {
        let mut mo_i = vec![0.0; p];
        for (k, mo_ik) in mo_i.iter_mut().enumerate() {
            let series: Vec<f64> = (0..m).map(|j| blocks[j].0[i * p + k]).collect();
            *mo_ik = vector::trapz(grid, &series) / span;
        }
        let dev: Vec<f64> = (0..m)
            .map(|j| {
                (0..p)
                    .map(|k| {
                        let d = blocks[j].0[i * p + k] - mo_i[k];
                        d * d
                    })
                    .sum::<f64>()
            })
            .collect();
        let vo_i = vector::trapz(grid, &dev) / span;
        let fo_i = vector::dot(&mo_i, &mo_i) + vo_i;
        mo.push(mo_i);
        vo.push(vo_i);
        fo.push(fo_i);
    }
    Ok(DirOutScores {
        mo,
        vo,
        fo,
        degenerate_directions,
        attempted_directions,
    })
}

impl FunctionalOutlierScorer for DirOut {
    fn name(&self) -> &'static str {
        "dir.out"
    }

    fn snapshot(&self) -> Option<crate::DepthScorerSnapshot> {
        Some(crate::DepthScorerSnapshot::DirOut {
            n_directions: self.projection.n_directions,
            seed: self.projection.seed,
        })
    }

    fn score(&self, data: &GriddedDataSet) -> Result<Vec<f64>> {
        Ok(self.decompose(data)?.fo)
    }

    fn score_against(
        &self,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<Vec<f64>> {
        Ok(self.decompose_against(reference, queries)?.fo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bundle_with(outlier: Vec<f64>, m: usize) -> GriddedDataSet {
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut curves: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                let a = (i as f64 - 5.5) * 0.05;
                grid.iter()
                    .map(|&t| (std::f64::consts::TAU * t).sin() + a)
                    .collect()
            })
            .collect();
        curves.push(outlier);
        GriddedDataSet::from_univariate(grid, curves).unwrap()
    }

    #[test]
    fn magnitude_outlier_has_large_mo() {
        let m = 40;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let shifted: Vec<f64> = grid
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).sin() + 3.0)
            .collect();
        let d = bundle_with(shifted, m);
        let scores = DirOut::new().decompose(&d).unwrap();
        let n = d.n();
        // outlier is the last sample: largest ‖MO‖, and largest FO
        let mo_norm: Vec<f64> = scores.mo.iter().map(|v| vector::norm2(v)).collect();
        let max_mo = mo_norm
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_mo, n - 1, "{mo_norm:?}");
        let max_fo = scores
            .fo
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_fo, n - 1);
        // a persistent magnitude shift has *low* VO relative to its MO²
        let i = n - 1;
        assert!(scores.fo[i] > scores.vo[i] * 2.0, "MO should dominate");
    }

    #[test]
    fn shape_outlier_has_large_vo() {
        let m = 40;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        // phase-inverted: same range, different shape
        let inverted: Vec<f64> = grid
            .iter()
            .map(|&t| -(std::f64::consts::TAU * t).sin())
            .collect();
        let d = bundle_with(inverted, m);
        let scores = DirOut::new().decompose(&d).unwrap();
        let n = d.n();
        let max_vo = scores
            .vo
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_vo, n - 1, "{:?}", scores.vo);
        let max_fo = scores
            .fo
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_fo, n - 1);
    }

    #[test]
    fn isolated_spike_detected() {
        let m = 40;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut spiky: Vec<f64> = grid
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).sin())
            .collect();
        spiky[20] += 5.0; // narrow magnitude peak
        let d = bundle_with(spiky, m);
        let s = DirOut::new().score(&d).unwrap();
        let max_fo = s
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_fo, d.n() - 1, "{s:?}");
    }

    #[test]
    fn ms_points_reflect_outlier_type() {
        let m = 40;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        // magnitude outlier: large ‖MO‖, modest VO
        let shifted: Vec<f64> = grid
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).sin() + 3.0)
            .collect();
        let d = bundle_with(shifted, m);
        let pts = DirOut::new().decompose(&d).unwrap().ms_points();
        let n = d.n();
        let max_mo = pts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .0.total_cmp(&b.1 .0))
            .unwrap()
            .0;
        assert_eq!(max_mo, n - 1);
        // shape outlier: large VO relative to the bundle
        let inverted: Vec<f64> = grid
            .iter()
            .map(|&t| -(std::f64::consts::TAU * t).sin())
            .collect();
        let d = bundle_with(inverted, m);
        let pts = DirOut::new().decompose(&d).unwrap().ms_points();
        let max_vo = pts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
            .unwrap()
            .0;
        assert_eq!(max_vo, n - 1);
    }

    #[test]
    fn grid_loop_is_identical_across_pool_sizes() {
        let m = 30;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let shifted: Vec<f64> = grid
            .iter()
            .map(|&t| (std::f64::consts::TAU * t).sin() + 2.0)
            .collect();
        let d = bundle_with(shifted, m);
        let scorer = DirOut::new();
        let seq = scorer
            .decompose_on(&par::Pool::with_threads(1), &d)
            .unwrap();
        let wide = scorer
            .decompose_on(&par::Pool::with_threads(8), &d)
            .unwrap();
        let global = scorer.decompose(&d).unwrap();
        for other in [&wide, &global] {
            assert_eq!(seq.degenerate_directions, other.degenerate_directions);
            assert_eq!(seq.attempted_directions, other.attempted_directions);
            for (a, b) in seq.fo.iter().zip(&other.fo) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (a, b) in seq.vo.iter().zip(&other.vo) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            for (ma, mb) in seq.mo.iter().zip(&other.mo) {
                for (a, b) in ma.iter().zip(mb) {
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
        // the against variant too: reference = first 10 curves
        let reference = d.subset(&(0..10).collect::<Vec<_>>()).unwrap();
        let seq_q = scorer
            .decompose_against_on(&par::Pool::with_threads(1), &reference, &d)
            .unwrap();
        let wide_q = scorer
            .decompose_against_on(&par::Pool::with_threads(8), &reference, &d)
            .unwrap();
        assert_same(&seq_q, &wide_q);
    }

    /// Every field of two decompositions, as bits.
    fn assert_same(a: &DirOutScores, b: &DirOutScores) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(a.degenerate_directions, b.degenerate_directions);
        assert_eq!(a.attempted_directions, b.attempted_directions);
        assert_eq!(bits(&a.fo), bits(&b.fo));
        assert_eq!(bits(&a.vo), bits(&b.vo));
        assert_eq!(a.mo.len(), b.mo.len());
        for (ma, mb) in a.mo.iter().zip(&b.mo) {
            assert_eq!(bits(ma), bits(mb));
        }
    }

    /// Asserts that the indexed path equals the subset path — scores,
    /// direction counts or error — with the table built and the split
    /// scored on 1 and on 8 threads.
    fn assert_indexed_parity(
        scorer: &DirOut,
        data: &GriddedDataSet,
        reference: &[usize],
        queries: &[usize],
    ) -> Result<DirOutScores> {
        let pools = [par::Pool::with_threads(1), par::Pool::with_threads(8)];
        let expected = data.subset(reference).and_then(|r| {
            let q = data.subset(queries)?;
            scorer.decompose_against_on(&pools[0], &r, &q)
        });
        for build in &pools {
            let table = ProjectionTable::build(build, data, &scorer.projection);
            for pool in &pools {
                match (
                    &expected,
                    &scorer.decompose_indexed_on(pool, &table, reference, queries),
                ) {
                    (Ok(a), Ok(b)) => assert_same(a, b),
                    (Err(a), Err(b)) => assert_eq!(a, b),
                    (a, b) => panic!("subset path {a:?}, indexed path {b:?}"),
                }
            }
        }
        expected
    }

    /// `n` bivariate curves on `m` grid points, `X_i(t_j) = point(i, j)`.
    fn curves(n: usize, m: usize, point: impl Fn(usize, usize) -> [f64; 2]) -> GriddedDataSet {
        let grid: Vec<f64> = (0..m).map(|j| j as f64).collect();
        let samples = (0..n)
            .map(|i| {
                let mut s = Matrix::zeros(m, 2);
                for j in 0..m {
                    s.row_mut(j).copy_from_slice(&point(i, j));
                }
                s
            })
            .collect();
        GriddedDataSet::new(grid, samples).unwrap()
    }

    fn small_scorer() -> DirOut {
        DirOut {
            projection: ProjectionConfig {
                n_directions: 16,
                seed: 3,
            },
        }
    }

    #[test]
    fn indexed_matches_subsets_with_ties_and_odd_and_even_references() {
        // few distinct levels, so projections tie exactly; the last curves
        // differ from 1.0 in the lowest bits only, below the sort key's
        // packed curve index
        let data = curves(24, 6, |i, j| {
            if i >= 20 {
                let x = 1.0 + (24 - i) as f64 * f64::EPSILON;
                [x, x]
            } else {
                [((i * 7 + j * 3) % 5) as f64, ((i * 3 + j) % 4) as f64 * 0.5]
            }
        });
        let scorer = small_scorer();
        let queries: Vec<usize> = (0..24).collect();
        for reference in [
            vec![0, 2, 4, 6, 8, 10, 20, 21, 22],
            vec![1, 3, 5, 7, 9, 11, 13, 20, 21, 23],
        ] {
            let scores = assert_indexed_parity(&scorer, &data, &reference, &queries).unwrap();
            assert!(scores.fo.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn indexed_matches_subsets_on_signed_zeros_and_degenerate_directions() {
        // x is ±0 for most curves: a zero median, a zero MAD along the x
        // axis, signed-zero projections along the others
        let data = curves(15, 5, |i, j| {
            let x = match i % 5 {
                0 | 2 => 0.0,
                1 | 3 => -0.0,
                _ => (i as f64 - 7.0) * 0.25,
            };
            let y = if (i + j) % 4 == 0 {
                -0.0
            } else {
                (i as f64 * 0.3 + j as f64).sin()
            };
            [x, y]
        });
        let scorer = small_scorer();
        let queries: Vec<usize> = (0..15).collect();
        for reference in [(0..15).collect::<Vec<_>>(), vec![0, 1, 2, 3, 5, 6, 7, 8]] {
            let scores = assert_indexed_parity(&scorer, &data, &reference, &queries).unwrap();
            assert!(scores.degenerate_directions > 0, "{scores:?}");
            assert!(scores.degenerate_directions < scores.attempted_directions);
        }
    }

    #[test]
    fn indexed_reports_the_subset_paths_collapse_error() {
        // at grid point 2 every curve sits on one point: every direction
        // degenerates there, and there first
        let data = curves(10, 4, |i, j| {
            if j >= 2 {
                [1.0, 2.0]
            } else {
                [i as f64, (i * i) as f64]
            }
        });
        let queries = [0, 4, 9];
        let err =
            assert_indexed_parity(&small_scorer(), &data, &[1, 2, 3, 5, 7], &queries).unwrap_err();
        match err {
            crate::DepthError::AtGridPoint { grid_index, source } => {
                assert_eq!(grid_index, 2);
                assert!(matches!(
                    *source,
                    crate::DepthError::DegenerateDirections { attempted: 18 }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn indexed_keeps_the_exact_univariate_path() {
        let m = 8;
        let grid: Vec<f64> = (0..m).map(|j| j as f64).collect();
        let values: Vec<Vec<f64>> = (0..11)
            .map(|i| {
                (0..m)
                    .map(|j| {
                        if j == 5 && i < 8 {
                            -0.0
                        } else {
                            ((i * 5 + j) % 7) as f64
                        }
                    })
                    .collect()
            })
            .collect();
        let data = GriddedDataSet::from_univariate(grid, values).unwrap();
        let scorer = DirOut::new();
        let queries: Vec<usize> = (0..11).collect();
        let scores = assert_indexed_parity(&scorer, &data, &[0, 3, 8, 9, 10], &queries).unwrap();
        assert_eq!(scores.attempted_directions, m);
        // at grid point 5 the reference {0, 1, 2, 3, 4} is all -0.0
        let err = assert_indexed_parity(&scorer, &data, &[0, 1, 2, 3, 4], &queries).unwrap_err();
        match err {
            crate::DepthError::AtGridPoint { grid_index, source } => {
                assert_eq!(grid_index, 5);
                assert!(matches!(*source, crate::DepthError::DegenerateScale { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn indexed_accepts_overlapping_and_repeated_indices() {
        let data = curves(14, 5, |i, j| {
            let t = j as f64 * 0.3 + i as f64 * 0.07;
            [t.sin() * (1.0 + i as f64 * 0.1), (t * 1.7).cos()]
        });
        let scorer = small_scorer();
        for (reference, queries) in [
            (vec![0, 1, 1, 2, 5, 5, 5, 9], vec![1, 5, 3, 3, 12]),
            (vec![13, 2, 7, 2, 11, 6, 0], vec![13, 13, 13]),
        ] {
            assert_indexed_parity(&scorer, &data, &reference, &queries).unwrap();
        }
        // one curve twice: a zero MAD along every direction, on both paths
        assert_indexed_parity(&scorer, &data, &[4, 4], &[4, 0, 4]).unwrap_err();
    }

    #[test]
    fn indexed_matches_subsets_above_256_curves() {
        // 300 curves: curve indices no longer fit a byte
        let data = curves(300, 3, |i, j| {
            let a = i as f64 * 0.37 + j as f64;
            [a.sin() + (i % 7) as f64, (a * 0.61).cos() * (i % 11) as f64]
        });
        let scorer = DirOut {
            projection: ProjectionConfig {
                n_directions: 4,
                seed: 11,
            },
        };
        let reference: Vec<usize> = (0..300).step_by(2).chain([299, 299]).collect();
        let queries: Vec<usize> = (0..300).rev().step_by(3).collect();
        assert_indexed_parity(&scorer, &data, &reference, &queries).unwrap();
    }

    #[test]
    fn indexed_rejects_bad_indices_and_foreign_tables_with_typed_errors() {
        let data = curves(6, 3, |i, j| [i as f64, (i * j) as f64]);
        let scorer = small_scorer();
        for (reference, queries) in [
            (vec![0, 6], vec![1]),
            (vec![0, 1], vec![2, usize::MAX]),
            (vec![], vec![1]),
            (vec![0, 1, 2], vec![]),
            (vec![], vec![9]),
        ] {
            let err = assert_indexed_parity(&scorer, &data, &reference, &queries).unwrap_err();
            assert!(matches!(
                err,
                crate::DepthError::InvalidParameter(_) | crate::DepthError::TooFewSamples { .. }
            ));
        }
        let table = ProjectionTable::build(&par::Pool::with_threads(1), &data, &scorer.projection);
        assert!(matches!(
            DirOut::new().decompose_indexed(&table, &[0, 1, 2], &[3]),
            Err(crate::DepthError::InvalidParameter(_))
        ));
    }

    #[test]
    fn scores_nonnegative_and_finite() {
        let m = 25;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let flat: Vec<f64> = grid.to_vec();
        let d = bundle_with(flat, m);
        let scores = DirOut::new().decompose(&d).unwrap();
        assert!(scores.fo.iter().all(|&v| v >= 0.0 && v.is_finite()));
        assert!(scores.vo.iter().all(|&v| v >= 0.0 && v.is_finite()));
        // univariate clouds take the exact path: one direction per point
        assert_eq!(scores.attempted_directions, m);
        assert_eq!(scores.degenerate_directions, 0);
    }

    #[test]
    fn multivariate_input() {
        use mfod_linalg::Matrix;
        let m = 20;
        let grid: Vec<f64> = (0..m).map(|j| j as f64 / (m - 1) as f64).collect();
        let mut samples = Vec::new();
        for i in 0..10 {
            let a = (i as f64 - 4.5) * 0.1;
            let mut s = Matrix::zeros(m, 2);
            for (j, &t) in grid.iter().enumerate() {
                s[(j, 0)] = t + a;
                s[(j, 1)] = t * t + a;
            }
            samples.push(s);
        }
        // abnormal correlation: channel 2 inversely related
        let mut s = Matrix::zeros(m, 2);
        for (j, &t) in grid.iter().enumerate() {
            s[(j, 0)] = t;
            s[(j, 1)] = -t * t;
        }
        samples.push(s);
        let d = GriddedDataSet::new(grid, samples).unwrap();
        // one shared direction stream, but every grid point still attempts
        // (and accounts for) the full budget of axes + random directions
        let decomposition = DirOut::new().decompose(&d).unwrap();
        assert_eq!(
            decomposition.attempted_directions,
            m * (ProjectionConfig::default().n_directions + 2)
        );
        let scores = DirOut::new().score(&d).unwrap();
        let max_idx = scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 10, "{scores:?}");
        assert_eq!(DirOut::new().name(), "dir.out");
    }
}
