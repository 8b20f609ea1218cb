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
//! Every curve is compared with every other one, so the ingredients are
//! tabulated once per curve: per channel, the values and the `atan` of
//! every segment's slope. [`Funta::score_against`] on two separate
//! datasets then tests each (query, reference) pair for crossings and
//! differences two table entries per crossing.
//!
//! Which segments two curves cross in depends on the pair only, and the
//! test is symmetric (`a − b = −(b − a)` exactly). A [`CrossingTable`]
//! therefore records it once per unordered pair and channel of a dataset,
//! as a bitmask over the segments. [`Funta::score_indexed`] scores any
//! reference/query split of that dataset from the table without testing a
//! pair again — the Fig. 3 protocol draws every split from one pool of
//! curves — and the joint [`FunctionalOutlierScorer::score`] goes through a
//! table as well, testing each pair once instead of twice. Both paths visit
//! the crossings in the same order and feed the same aggregation, so their
//! scores are bit-for-bit those of `score_against` on the subsets.

use crate::dataset::GriddedDataSet;
use crate::error::DepthError;
use crate::{FunctionalOutlierScorer, Result};
use mfod_linalg::par::{self, Pool};

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

    /// Outlyingness of the `queries` curves of `table`'s dataset against
    /// its `reference` curves — bit-for-bit
    /// `score_against(&data.subset(reference)?, &data.subset(queries)?)`,
    /// for any index lists, overlapping or repeated ones included.
    pub fn score_indexed(
        &self,
        table: &CrossingTable,
        reference: &[usize],
        queries: &[usize],
    ) -> Result<Vec<f64>> {
        if reference.is_empty() {
            return Err(DepthError::TooFewSamples { got: 0, need: 1 });
        }
        if let Some(i) = reference.iter().chain(queries).find(|&&i| i >= table.n) {
            return Err(DepthError::InvalidParameter(format!(
                "index {i} out of range"
            )));
        }
        Ok(self.score_crossings(table, queries.iter().copied(), |_| {
            reference.iter().copied()
        }))
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
    /// curves, averaged over channels.
    fn score_tables(&self, queries: &CurveTables, references: &CurveTables) -> Vec<f64> {
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
                        let (vj, aj) = references.curve(j, k);
                        for l in 0..ai.len() {
                            if crosses(vi[l] - vj[l], vi[l + 1] - vj[l + 1]) {
                                angles.push(angle(ai[l], aj[l]));
                            }
                        }
                    }
                    total += self.aggregate(&mut angles);
                }
                total / p as f64
            })
            .collect()
    }

    /// Outlyingness of every curve of `queries` against the curves
    /// `references(query)`, in that order, from the crossing table.
    fn score_crossings<R>(
        &self,
        table: &CrossingTable,
        queries: impl Iterator<Item = usize>,
        references: impl Fn(usize) -> R,
    ) -> Vec<f64>
    where
        R: Iterator<Item = usize>,
    {
        let p = table.p;
        let mut angles = Vec::new();
        queries
            .map(|i| {
                let mut total = 0.0;
                for k in 0..p {
                    angles.clear();
                    let ai = table.slope_atans(i, k);
                    for j in references(i) {
                        let aj = table.slope_atans(j, k);
                        match table.mask(i, j, k) {
                            Some(mask) => {
                                for (w, &word) in mask.iter().enumerate() {
                                    let mut bits = word;
                                    while bits != 0 {
                                        let l = w * 64 + bits.trailing_zeros() as usize;
                                        angles.push(angle(ai[l], aj[l]));
                                        bits &= bits - 1;
                                    }
                                }
                            }
                            // a curve meets itself at every left endpoint
                            // (d0 == 0), at angle 0
                            None => angles.extend(ai.iter().map(|&a| angle(a, a))),
                        }
                    }
                    total += self.aggregate(&mut angles);
                }
                total / p as f64
            })
            .collect()
    }
}

/// Whether two curves cross inside a segment, from their differences `d0`
/// and `d1` at its endpoints: a strict sign change, or an exact touch at
/// the left endpoint counted once. Negating both differences (swapping
/// the curves) leaves the answer unchanged. The operators do not
/// short-circuit, so the crossing table's inner loop builds its mask words
/// without branches.
fn crosses(d0: f64, d1: f64) -> bool {
    ((d0 > 0.0) & (d1 < 0.0)) | ((d0 < 0.0) & (d1 > 0.0)) | (d0 == 0.0)
}

/// Normalized intersection angle between two segments with the given
/// `atan(slope)`s, in `[0, 1)`.
fn angle(a: f64, b: f64) -> f64 {
    (a - b).abs() / std::f64::consts::PI
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

/// Which segments every pair of curves of one dataset crosses in, per
/// channel, with each curve's segment `atan(slope)`s: everything
/// [`Funta::score_indexed`] needs to score any reference/query split of the
/// dataset. Built once per dataset; for `n` curves, `p` channels and `m`
/// grid points it holds `n(n − 1)/2 · p · ⌈(m − 1)/64⌉` mask words.
#[derive(Debug, Clone)]
pub struct CrossingTable {
    n: usize,
    p: usize,
    /// Segments per curve, `m − 1`.
    segments: usize,
    /// Mask words per pair and channel, `⌈(m − 1)/64⌉`.
    words: usize,
    /// `atan` of the slope of segment `l` of curve `i`, channel `k` at
    /// `(i·p + k)·(m − 1) + l`.
    slope_atans: Vec<f64>,
    /// `rows[i]` holds the pairs `(i, j)` for `j > i`: channel `k` of pair
    /// `(i, j)` at `((j − i − 1)·p + k)·words ..`, bit `l` of the mask set
    /// iff the two curves cross in segment `l`.
    rows: Vec<Vec<u64>>,
}

impl CrossingTable {
    /// Tests every unordered pair of `data`'s curves once, across `pool`.
    /// Each mask is a pure function of its pair, so the table is identical
    /// at any pool size.
    pub fn build(pool: &Pool, data: &GriddedDataSet) -> Self {
        let curves = CurveTables::build(data, data.grid());
        let (n, p, segments) = (curves.n, curves.p, curves.m - 1);
        let words = segments.div_ceil(64);
        let row = |i: usize| {
            let mut masks = Vec::with_capacity((n - 1 - i) * p * words);
            let mut d = vec![0.0; segments + 1];
            for j in i + 1..n {
                for k in 0..p {
                    let ((vi, _), (vj, _)) = (curves.curve(i, k), curves.curve(j, k));
                    for (dl, (a, b)) in d.iter_mut().zip(vi.iter().zip(vj)) {
                        *dl = a - b;
                    }
                    for w in 0..words {
                        let mut word = 0u64;
                        for l in w * 64..segments.min(w * 64 + 64) {
                            word |= u64::from(crosses(d[l], d[l + 1])) << (l - w * 64);
                        }
                        masks.push(word);
                    }
                }
            }
            masks
        };
        // Row i tests n − 1 − i pairs; pairing row k with row n − 1 − k
        // gives every map item the same cost.
        let pairs = pool.map(n.div_ceil(2), |k| {
            let mirror = n - 1 - k;
            (row(k), (mirror > k).then(|| row(mirror)))
        });
        let mut rows = vec![Vec::new(); n];
        for (k, (first, second)) in pairs.into_iter().enumerate() {
            rows[k] = first;
            if let Some(s) = second {
                rows[n - 1 - k] = s;
            }
        }
        CrossingTable {
            n,
            p,
            segments,
            words,
            slope_atans: curves.slope_atans,
            rows,
        }
    }

    /// Segment `atan(slope)`s of curve `i`, channel `k`.
    fn slope_atans(&self, i: usize, k: usize) -> &[f64] {
        let c = i * self.p + k;
        &self.slope_atans[c * self.segments..(c + 1) * self.segments]
    }

    /// Crossing mask of curves `i` and `j` in channel `k`; `None` for a
    /// curve with itself.
    fn mask(&self, i: usize, j: usize, k: usize) -> Option<&[u64]> {
        let (a, b) = match i.cmp(&j) {
            std::cmp::Ordering::Less => (i, j),
            std::cmp::Ordering::Greater => (j, i),
            std::cmp::Ordering::Equal => return None,
        };
        let at = ((b - a - 1) * self.p + k) * self.words;
        Some(&self.rows[a][at..at + self.words])
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
        let n = data.n();
        let table = CrossingTable::build(par::global(), data);
        Ok(self.score_crossings(&table, 0..n, |i| (0..n).filter(move |&j| j != i)))
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

    /// Reference/query index lists over `n` curves: shuffled disjoint
    /// splits, overlapping ranges and lists with repeats.
    fn index_lists(n: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut lists = Vec::new();
        for cut in [1, n / 2, n - 1] {
            let mut idx: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                idx.swap(i, rng.random_range(0..=i));
            }
            lists.push((idx[..cut].to_vec(), idx[cut..].to_vec()));
        }
        lists.push(((0..n * 2 / 3).collect(), (n / 3..n).collect()));
        lists.push(((0..n).collect(), (0..n).rev().collect()));
        lists.push((vec![3, 3, 7, 0, 3, n - 1], vec![7, 7, 1, 3, n - 1, 0]));
        let repeats = (0..2 * n).map(|_| rng.random_range(0..n)).collect();
        lists.push((repeats, (0..n).map(|_| rng.random_range(0..n)).collect()));
        lists
    }

    #[test]
    fn crossing_table_matches_subset_scoring_bit_for_bit() {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        // m − 1 segments spanning one, two (one full) and three mask words
        for segments in [30usize, 64, 65, 130] {
            let m = segments + 1;
            let data = lattice_dataset((0..m).map(|l| (l as f64).powf(1.1)).collect());
            let table = CrossingTable::build(&Pool::with_threads(3), &data);
            assert_eq!((table.n, table.words), (14, segments.div_ceil(64)));
            for trim in [0.0, 0.1, 0.3] {
                let funta = Funta { trim };
                let what = format!("{segments} segments, trim {trim}");
                assert_eq!(
                    bits(funta.score(&data).unwrap()),
                    bits(reference_scores(trim, &data, &data, true)),
                    "joint, {what}"
                );
                for (r, q) in index_lists(data.n(), segments as u64) {
                    let (rd, qd) = (data.subset(&r).unwrap(), data.subset(&q).unwrap());
                    let indexed = bits(funta.score_indexed(&table, &r, &q).unwrap());
                    assert_eq!(
                        indexed,
                        bits(funta.score_against(&rd, &qd).unwrap()),
                        "{r:?} / {q:?}, {what}"
                    );
                    assert_eq!(
                        indexed,
                        bits(reference_scores(trim, &rd, &qd, false)),
                        "{r:?} / {q:?} vs reference, {what}"
                    );
                }
            }
        }
    }

    #[test]
    fn crossing_table_is_identical_across_pool_sizes() {
        let data = lattice_dataset((0..131).map(|l| l as f64).collect());
        let one = CrossingTable::build(&Pool::with_threads(1), &data);
        let eight = CrossingTable::build(&Pool::with_threads(8), &data);
        assert_eq!(one.rows, eight.rows);
        assert!(one.rows.iter().any(|row| row.iter().any(|&w| w != 0)));
        let bits = |t: &CrossingTable| {
            t.slope_atans
                .iter()
                .map(|a| a.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&one), bits(&eight));
    }

    #[test]
    fn indexed_scoring_validates_indices() {
        let data = lattice_dataset((0..11).map(|l| l as f64).collect());
        let table = CrossingTable::build(&Pool::with_threads(2), &data);
        let funta = Funta::new();
        assert!(matches!(
            funta.score_indexed(&table, &[], &[0]),
            Err(DepthError::TooFewSamples { got: 0, need: 1 })
        ));
        for (r, q) in [(vec![0, 14], vec![1]), (vec![0], vec![1, 99])] {
            assert!(matches!(
                funta.score_indexed(&table, &r, &q),
                Err(DepthError::InvalidParameter(_))
            ));
        }
        assert!(funta.score_indexed(&table, &[0], &[]).unwrap().is_empty());
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
