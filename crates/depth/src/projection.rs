//! Projection-depth primitives: Stahel–Donoho outlyingness in 1-D (exact)
//! and in `R^p` via random directions, as used by the directional
//! outlyingness baseline (Zuo 2003; Dai & Genton 2019).
//!
//! The random-direction approximation projects the cloud on every
//! direction, takes the median and MAD, and folds the normalized residuals
//! into a running maximum. The public `*_on` entry points fan contiguous
//! blocks of directions out across the worker pool of
//! [`mfod_linalg::par`]: the RNG-drawn direction stream is generated
//! **sequentially before** the fan-out, and the per-block maxima are
//! folded back **in direction order**, so the scores are bit-for-bit
//! identical to the plain sequential loop at any thread count.
//!
//! Dir.out calls this once per grid point, and already runs its grid
//! points on the pool, so it draws the direction stream once per
//! decomposition and runs each grid point's directions inline on the
//! calling task instead (same kernel, same fold order, same bits). To
//! score many reference/query splits of one dataset, it reads a
//! [`ProjectionTable`] instead: the projections of every curve, built
//! once and sorted per (grid point, direction), from which a split's
//! median and MAD are read rather than selected. One fold serves both
//! kernels, with the same degenerate-direction predicate.

use crate::dataset::GriddedDataSet;
use crate::error::DepthError;
use crate::Result;
use mfod_linalg::{par, vector, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Exact univariate Stahel–Donoho outlyingness `|x − med| / MAD` of each
/// entry of `points` w.r.t. the whole set.
///
/// Errors with [`DepthError::DegenerateScale`] when the MAD is zero.
pub fn univariate_outlyingness(points: &[f64]) -> Result<Vec<f64>> {
    if points.is_empty() {
        return Err(DepthError::TooFewSamples { got: 0, need: 1 });
    }
    let med = vector::median(points);
    let mad = vector::mad_raw(points);
    if mad <= 0.0 || !mad.is_finite() {
        return Err(DepthError::DegenerateScale {
            context: format!("MAD of the {}-point univariate set is zero", points.len()),
        });
    }
    Ok(points.iter().map(|&x| (x - med).abs() / mad).collect())
}

/// Configuration for random-direction projection outlyingness in `R^p`.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionConfig {
    /// Number of random unit directions (coordinate axes are always
    /// included in addition).
    pub n_directions: usize,
    /// RNG seed for reproducible directions.
    pub seed: u64,
}

impl Default for ProjectionConfig {
    fn default() -> Self {
        ProjectionConfig {
            n_directions: 128,
            seed: 0x5EED_D1CE,
        }
    }
}

/// Projection-outlyingness scores together with the direction budget that
/// produced them.
///
/// Degenerate directions (zero MAD of the projected reference cloud, or a
/// random draw too short to normalize) are skipped silently by the score
/// computation; this bookkeeping lets callers observe when the *effective*
/// direction budget collapses well below [`ProjectionConfig::n_directions`]
/// — the approximation quality degrades long before every direction dies
/// and the computation turns into a hard error.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionOutcome {
    /// Outlyingness per scored point; **higher = more outlying**.
    pub scores: Vec<f64>,
    /// Directions that contributed to the supremum (positive finite MAD).
    pub used_directions: usize,
    /// Directions skipped because they degenerated.
    pub degenerate_directions: usize,
}

/// Approximates the projection outlyingness
/// `O(x) = sup_u |uᵀx − med(uᵀZ)| / MAD(uᵀZ)` of every row of `cloud`
/// (an `n x p` matrix) by maximizing over random unit directions plus the
/// `p` coordinate axes.
///
/// For `p = 1` the exact univariate computation is used. Degenerate
/// directions (zero MAD) are skipped; if *every* direction degenerates the
/// cloud is concentrated and [`DepthError::DegenerateDirections`] is
/// returned. Runs on the global worker pool; see
/// [`projection_outlyingness_full`] for the direction diagnostics and
/// [`projection_outlyingness_on`] for an explicit pool.
pub fn projection_outlyingness(cloud: &Matrix, config: &ProjectionConfig) -> Result<Vec<f64>> {
    projection_outlyingness_full(cloud, config).map(|outcome| outcome.scores)
}

/// [`projection_outlyingness`] with the degenerate-direction diagnostics.
pub fn projection_outlyingness_full(
    cloud: &Matrix,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome> {
    projection_outlyingness_on(par::global(), cloud, config)
}

/// [`projection_outlyingness_full`] on an explicit worker pool. The output
/// is bit-for-bit identical for every pool size ([`par::Pool::with_threads`]
/// with 1 thread reproduces the sequential loop exactly).
pub fn projection_outlyingness_on(
    pool: &par::Pool,
    cloud: &Matrix,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome> {
    if cloud.nrows() == 0 {
        return Err(DepthError::TooFewSamples { got: 0, need: 1 });
    }
    if cloud.ncols() == 1 {
        return univariate(cloud, None);
    }
    let directions = Directions::draw(cloud.ncols(), config);
    outlyingness_over_directions(pool, cloud, None, &directions)
}

/// Approximates the projection outlyingness of each row of `queries`
/// **with respect to the `reference` cloud**: the median and MAD of every
/// direction's projections are estimated from `reference` only, so query
/// points do not influence the location/scale estimates (the train/test
/// protocol). Runs on the global worker pool.
pub fn projection_outlyingness_against(
    reference: &Matrix,
    queries: &Matrix,
    config: &ProjectionConfig,
) -> Result<Vec<f64>> {
    projection_outlyingness_against_full(reference, queries, config).map(|outcome| outcome.scores)
}

/// [`projection_outlyingness_against`] with the degenerate-direction
/// diagnostics.
pub fn projection_outlyingness_against_full(
    reference: &Matrix,
    queries: &Matrix,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome> {
    projection_outlyingness_against_on(par::global(), reference, queries, config)
}

/// [`projection_outlyingness_against_full`] on an explicit worker pool.
pub fn projection_outlyingness_against_on(
    pool: &par::Pool,
    reference: &Matrix,
    queries: &Matrix,
    config: &ProjectionConfig,
) -> Result<ProjectionOutcome> {
    let p = reference.ncols();
    if reference.nrows() == 0 || queries.nrows() == 0 {
        return Err(DepthError::TooFewSamples { got: 0, need: 1 });
    }
    if queries.ncols() != p {
        return Err(DepthError::ShapeMismatch(format!(
            "query dimension {} != reference dimension {p}",
            queries.ncols()
        )));
    }
    if p == 1 {
        return univariate(reference, Some(queries));
    }
    let directions = Directions::draw(p, config);
    outlyingness_over_directions(pool, reference, Some(queries), &directions)
}

/// Exact outlyingness of univariate clouds (`p = 1`): location and scale
/// from `reference`, scores for `queries` when given, else for `reference`
/// itself.
fn univariate(reference: &Matrix, queries: Option<&Matrix>) -> Result<ProjectionOutcome> {
    let scores = match queries {
        None => univariate_outlyingness(&reference.col(0))?,
        Some(q) => {
            let refs = reference.col(0);
            let med = vector::median(&refs);
            let mad = vector::mad_raw(&refs);
            if mad <= 0.0 || !mad.is_finite() {
                return Err(DepthError::DegenerateScale {
                    context: format!(
                        "MAD of the {}-point univariate reference set is zero",
                        refs.len()
                    ),
                });
            }
            q.col(0).iter().map(|&x| (x - med).abs() / mad).collect()
        }
    };
    Ok(ProjectionOutcome {
        scores,
        used_directions: 1,
        degenerate_directions: 0,
    })
}

/// The direction stream of a [`ProjectionConfig`] in `R^p`: the `p`
/// coordinate axes, then `n_directions` isotropic Gaussian draws,
/// normalized. It depends only on `p` and the config, so one stream serves
/// any number of clouds of that dimension.
#[derive(Debug, Clone)]
pub(crate) struct Directions {
    /// The usable unit directions, in draw order.
    units: Vec<Vec<f64>>,
    /// Random draws too short to normalize: skipped, and counted as
    /// degenerate for every cloud scored along this stream.
    degenerate_draws: usize,
}

impl Directions {
    /// Draws the stream. A draw that fails to normalize still consumes its
    /// RNG values, so later directions do not depend on earlier failures.
    pub(crate) fn draw(p: usize, config: &ProjectionConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut units: Vec<Vec<f64>> = Vec::with_capacity(config.n_directions + p);
        let mut degenerate_draws = 0usize;
        let mut dir = vec![0.0; p];
        for d in 0..config.n_directions + p {
            if d < p {
                // coordinate axes first: cheap and often informative
                dir.fill(0.0);
                dir[d] = 1.0;
            } else {
                // isotropic Gaussian direction, normalized
                for v in dir.iter_mut() {
                    *v = standard_normal(&mut rng);
                }
                if vector::normalize(&mut dir, 1e-12) <= 1e-12 {
                    degenerate_draws += 1;
                    continue;
                }
            }
            units.push(dir.clone());
        }
        Directions {
            units,
            degenerate_draws,
        }
    }

    /// Directions attempted per scored cloud (`used + degenerate`).
    fn attempted(&self) -> usize {
        self.units.len() + self.degenerate_draws
    }

    /// Merges per-block partial suprema, given in direction order, into
    /// the outcome of one cloud. The strictly-greater max update over the
    /// nonnegative finite residuals is associative, so any blocking of the
    /// stream gives the one-direction-at-a-time result bit for bit.
    fn merge(&self, blocks: impl IntoIterator<Item = Supremum>) -> Result<ProjectionOutcome> {
        let mut blocks = blocks.into_iter();
        let mut total = blocks.next().expect("at least one block of directions");
        for block in blocks {
            total.used += block.used;
            total.degenerate += block.degenerate;
            for (o, &v) in total.scores.iter_mut().zip(block.scores.iter()) {
                if v > *o {
                    *o = v;
                }
            }
        }
        if total.used == 0 {
            return Err(DepthError::DegenerateDirections {
                attempted: self.attempted(),
            });
        }
        Ok(ProjectionOutcome {
            scores: total.scores,
            used_directions: total.used,
            degenerate_directions: self.degenerate_draws + total.degenerate,
        })
    }
}

/// Projection outlyingness along a pre-drawn direction stream, run on the
/// calling thread: location and scale from `reference`, scores for
/// `queries` when given, else for `reference` itself. Univariate clouds
/// take the exact path and ignore the stream. The caller has checked that
/// both clouds are non-empty and share their dimension.
pub(crate) fn outlyingness_along(
    reference: &Matrix,
    queries: Option<&Matrix>,
    directions: &Directions,
) -> Result<ProjectionOutcome> {
    if reference.ncols() == 1 {
        return univariate(reference, queries);
    }
    directions.merge([fold_directions(reference, queries, &directions.units)])
}

/// Pool fan-out behind the public multivariate entry points: contiguous
/// blocks of directions, each folding its residuals into a per-block
/// partial supremum as it goes, so the transient memory is O(blocks × n)
/// rather than O(directions × n). The block count follows the pool's
/// stealing granularity (`task_chunks`, i.e. split-factor × threads)
/// instead of the thread count, so a block whose directions all degenerate
/// early cannot leave its thread idle while another grinds through
/// expensive ones — idle threads steal the remaining blocks. The partials
/// are merged in block (= direction) order.
fn outlyingness_over_directions(
    pool: &par::Pool,
    reference: &Matrix,
    queries: Option<&Matrix>,
    directions: &Directions,
) -> Result<ProjectionOutcome> {
    let n_dirs = directions.units.len();
    let n_blocks = pool.task_chunks(n_dirs).max(1);
    let (base, extra) = (n_dirs / n_blocks, n_dirs % n_blocks);
    let mut bounds = Vec::with_capacity(n_blocks + 1);
    let mut start = 0usize;
    bounds.push(0);
    for b in 0..n_blocks {
        start += base + usize::from(b < extra);
        bounds.push(start);
    }
    let blocks = pool.map(n_blocks, |b| {
        fold_directions(
            reference,
            queries,
            &directions.units[bounds[b]..bounds[b + 1]],
        )
    });
    directions.merge(blocks)
}

/// Partial supremum of the normalized residuals over a run of directions.
struct Supremum {
    /// Running maximum per scored point (0 before any direction).
    scores: Vec<f64>,
    /// Directions that contributed.
    used: usize,
    /// Directions skipped for a zero or non-finite MAD.
    degenerate: usize,
}

impl Supremum {
    /// An empty supremum over `n` scored points.
    fn new(n: usize) -> Self {
        Supremum {
            scores: vec![0.0; n],
            used: 0,
            degenerate: 0,
        }
    }

    /// Folds one direction into the running maximum: the scored points'
    /// normalized residuals `|x − med| / mad`, from their `projections`
    /// in scoring order — or, when the MAD is zero or non-finite, counts
    /// the direction as degenerate and reads no projection. The one
    /// degenerate predicate and residual fold of both the direct kernel
    /// and the [`ProjectionTable`] kernel.
    fn fold(&mut self, med: f64, mad: f64, projections: impl Iterator<Item = f64>) {
        if mad <= 1e-300 || !mad.is_finite() {
            self.degenerate += 1;
            return;
        }
        self.used += 1;
        for (o, x) in self.scores.iter_mut().zip(projections) {
            let v = (x - med).abs() / mad;
            if v > *o {
                *o = v;
            }
        }
    }
}

/// The per-direction kernel: projects `reference` on each of `units`,
/// takes the median and MAD of the projections, and folds the scored
/// points' normalized residuals into a running maximum, in direction
/// order. Median and MAD share one scratch buffer (two selects, no
/// allocation per direction).
fn fold_directions(reference: &Matrix, queries: Option<&Matrix>, units: &[Vec<f64>]) -> Supremum {
    let n_ref = reference.nrows();
    let mut sup = Supremum::new(queries.map_or(n_ref, Matrix::nrows));
    let mut proj_ref = vec![0.0; n_ref];
    let mut scratch = vec![0.0; n_ref];
    for u in units {
        for (i, pr) in proj_ref.iter_mut().enumerate() {
            *pr = vector::dot(reference.row(i), u);
        }
        let (med, mad) = median_mad(&proj_ref, &mut scratch);
        match queries {
            None => sup.fold(med, mad, proj_ref.iter().copied()),
            Some(q) => sup.fold(med, mad, (0..q.nrows()).map(|i| vector::dot(q.row(i), u))),
        }
    }
    sup
}

/// Median and raw (unscaled) MAD of `values`, computed in `scratch` (same
/// length): select the median, overwrite with absolute deviations, select
/// again. Both order statistics depend only on the multiset of values, so
/// this is bit-identical to [`vector::median`] and [`vector::mad_raw`].
fn median_mad(values: &[f64], scratch: &mut [f64]) -> (f64, f64) {
    scratch.copy_from_slice(values);
    let med = vector::median_in_place(scratch);
    for v in scratch.iter_mut() {
        *v = (*v - med).abs();
    }
    (med, vector::median_in_place(scratch))
}

/// [`median_mad`] of values already in ascending [`f64::total_cmp`]
/// order, bit for bit: the median is read from the middle, and the MAD is
/// selected from the two runs of absolute deviations, which fall towards
/// the median from below and rise away from it above, by a binary search
/// instead of a second select.
fn sorted_median_mad(sorted: &[f64]) -> (f64, f64) {
    let r = sorted.len();
    let mid = r / 2;
    let med = if r % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    };
    let (below, above) = sorted.split_at(sorted.partition_point(|&x| x < med));
    // both runs ascending: `left(i)` is the i-th deviation below the median
    let left = |i: usize| (below[below.len() - 1 - i] - med).abs();
    let right = |i: usize| (above[i] - med).abs();
    // the `mid` smallest deviations are the first `i` of the left run and
    // the first `mid − i` of the right run; find `i`
    let (mut lo, mut hi) = (mid.saturating_sub(above.len()), mid.min(below.len()));
    while lo < hi {
        let i = (lo + hi) / 2;
        if left(i) < right(mid - 1 - i) {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let (i, k) = (lo, mid - lo);
    // the deviation of rank `mid` (0-based) heads one of the two remainders
    let upper = match (i < below.len(), k < above.len()) {
        (true, true) => left(i).min(right(k)),
        (true, false) => left(i),
        (false, _) => right(k),
    };
    if r % 2 == 1 {
        return (med, upper);
    }
    let lower = match (i > 0, k > 0) {
        (true, true) => left(i - 1).max(right(k - 1)),
        (true, false) => left(i - 1),
        (false, _) => right(k - 1),
    };
    (med, 0.5 * (lower + upper))
}

/// Every curve's projection on every direction of a [`ProjectionConfig`]'s
/// stream at every grid point of one dataset, sorted per (grid point,
/// direction) in ascending [`f64::total_cmp`] order: what
/// [`crate::DirOut::decompose_indexed`] needs to score any reference/query
/// split of the dataset without projecting or selecting again. The Fig. 3
/// protocol draws every split from one pool of curves, so one table serves
/// all of them.
///
/// For `n` curves, `m` grid points and `D` directions (the `p` axes and
/// the random draws that normalize) the table holds `n·m·D·(8 + 2b)`
/// bytes: each sorted projection, the curve it belongs to, and each
/// curve's position in the sorted run, where `b`, the width of a curve
/// index, is 1 byte up to 256 curves, 2 up to 65,536 and 4 above. The
/// golden Fig. 3 data (`n = 192`, `m = 85`, `D = 130`) takes about 21 MB.
/// Univariate data (`p = 1`) is scored exactly, without directions, and
/// its table stores no projections. The table also keeps a copy of the
/// dataset for the point clouds that orient Dir.out.
#[derive(Debug, Clone)]
pub struct ProjectionTable {
    data: GriddedDataSet,
    config: ProjectionConfig,
    directions: Directions,
    projections: Projections,
}

/// One block per grid point, with the narrowest curve index that holds
/// `n − 1`.
#[derive(Debug, Clone)]
enum Projections {
    Narrow(Vec<GridBlock<u8>>),
    Wide(Vec<GridBlock<u16>>),
    Full(Vec<GridBlock<u32>>),
}

/// One grid point's projections of `n` curves on `D` directions: a run of
/// `n` per direction in each field, so a split streams the block row
/// after row.
#[derive(Debug, Clone)]
struct GridBlock<I> {
    /// At `d·n + r`, the `r`-th smallest projection on direction `d`.
    sorted: Vec<f64>,
    /// At `d·n + r`, the curve that projection belongs to.
    order: Vec<I>,
    /// At `d·n + i`, the position of curve `i`'s projection in its run.
    rank: Vec<I>,
}

/// A curve index as stored in a [`GridBlock`].
trait CurveIndex: Copy + Send + Sync {
    /// Narrows `i`, which the table has checked to fit.
    fn narrow(i: usize) -> Self;
    /// Widens back to `usize`.
    fn index(self) -> usize;
}

macro_rules! curve_index {
    ($($t:ty),*) => {$(
        impl CurveIndex for $t {
            fn narrow(i: usize) -> Self {
                i as $t
            }
            fn index(self) -> usize {
                self as usize
            }
        }
    )*};
}
curve_index!(u8, u16, u32);

/// How many times each curve of a [`ProjectionTable`]'s dataset enters a
/// reference set.
pub(crate) struct Membership {
    counts: Vec<u32>,
    /// Reference size, repeats included.
    size: usize,
    /// Whether some curve enters more than once.
    repeated: bool,
}

impl Membership {
    /// Counts `reference`, whose indices the caller has checked against
    /// the `n` curves.
    pub(crate) fn new(n: usize, reference: &[usize]) -> Self {
        let mut counts = vec![0u32; n];
        for &i in reference {
            counts[i] += 1;
        }
        Membership {
            repeated: counts.iter().any(|&c| c > 1),
            counts,
            size: reference.len(),
        }
    }

    /// The members' values of one sorted run (`sorted`, with the curves
    /// in `order`), still sorted, at the front of `buf`, which is at least
    /// `max(n, size)` long.
    fn gather<'b, I: CurveIndex>(
        &self,
        sorted: &[f64],
        order: &[I],
        buf: &'b mut [f64],
    ) -> &'b [f64] {
        let mut w = 0usize;
        if self.repeated {
            for (&x, &o) in sorted.iter().zip(order) {
                let c = self.counts[o.index()] as usize;
                buf[w..w + c].fill(x);
                w += c;
            }
        } else {
            // branch-free: every value is written, only members advance
            for (&x, &o) in sorted.iter().zip(order) {
                buf[w] = x;
                w += self.counts[o.index()] as usize;
            }
        }
        &buf[..self.size]
    }
}

/// Sort key of `x` whose unsigned order is [`f64::total_cmp`]'s.
fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | (1 << 63))
}

impl ProjectionTable {
    /// Projects every curve of `data` on `config`'s direction stream at
    /// every grid point and sorts the projections, one pool task per grid
    /// point. Every run is a pure function of its grid point and
    /// direction, so the table is identical at any pool size.
    pub fn build(pool: &par::Pool, data: &GriddedDataSet, config: &ProjectionConfig) -> Self {
        let directions = Directions::draw(data.dim(), config);
        let units: &[Vec<f64>] = if data.dim() == 1 {
            &[]
        } else {
            &directions.units
        };
        let n = data.n();
        let projections = if n <= 1 << 8 {
            Projections::Narrow(project(pool, data, units))
        } else if n <= 1 << 16 {
            Projections::Wide(project(pool, data, units))
        } else {
            Projections::Full(project(pool, data, units))
        };
        ProjectionTable {
            data: data.clone(),
            config: config.clone(),
            directions,
            projections,
        }
    }

    /// The dataset the table was built from.
    pub(crate) fn data(&self) -> &GriddedDataSet {
        &self.data
    }

    /// The direction stream's configuration.
    pub(crate) fn config(&self) -> &ProjectionConfig {
        &self.config
    }

    /// [`outlyingness_along`] of the cloud at grid point `j`, from the
    /// table: location and scale from the `reference` members, scores for
    /// the `queries`. `ref_cloud` and `query_cloud` are those curves' rows
    /// at `j`, which the exact univariate path reads instead.
    pub(crate) fn outlyingness_at(
        &self,
        j: usize,
        reference: &Membership,
        queries: &[usize],
        ref_cloud: &Matrix,
        query_cloud: &Matrix,
    ) -> Result<ProjectionOutcome> {
        if ref_cloud.ncols() == 1 {
            return univariate(ref_cloud, Some(query_cloud));
        }
        let n = self.data.n();
        let sup = match &self.projections {
            Projections::Narrow(blocks) => fold_table(&blocks[j], n, reference, queries),
            Projections::Wide(blocks) => fold_table(&blocks[j], n, reference, queries),
            Projections::Full(blocks) => fold_table(&blocks[j], n, reference, queries),
        };
        self.directions.merge([sup])
    }
}

/// One [`GridBlock`] per grid point. Each run is ordered by sorting keys
/// that pack the projection's [`total_order_key`] above the curve index,
/// then repaired exactly by insertion, since the packed index hides the
/// key's low bits.
fn project<I: CurveIndex>(
    pool: &par::Pool,
    data: &GriddedDataSet,
    units: &[Vec<f64>],
) -> Vec<GridBlock<I>> {
    let n = data.n();
    let id_bits = usize::BITS - (n - 1).leading_zeros();
    let id_mask = (1u64 << id_bits) - 1;
    pool.map(data.m(), |j| {
        let cloud = data.point_cloud(j);
        let mut sorted = Vec::with_capacity(units.len() * n);
        let mut order = Vec::with_capacity(units.len() * n);
        let mut rank = vec![I::narrow(0); units.len() * n];
        let mut proj = vec![0.0; n];
        let mut keys = vec![0u64; n];
        for (u, rank_run) in units.iter().zip(rank.chunks_exact_mut(n)) {
            for (i, (x, key)) in proj.iter_mut().zip(&mut keys).enumerate() {
                *x = vector::dot(cloud.row(i), u);
                *key = (total_order_key(*x) & !id_mask) | i as u64;
            }
            keys.sort_unstable();
            let start = order.len();
            order.extend(keys.iter().map(|&k| I::narrow((k & id_mask) as usize)));
            let run = &mut order[start..];
            for a in 1..n {
                let mut b = a;
                while b > 0
                    && proj[run[b - 1].index()]
                        .total_cmp(&proj[run[b].index()])
                        .is_gt()
                {
                    run.swap(b - 1, b);
                    b -= 1;
                }
            }
            for (r, &o) in run.iter().enumerate() {
                sorted.push(proj[o.index()]);
                rank_run[o.index()] = I::narrow(r);
            }
        }
        GridBlock {
            sorted,
            order,
            rank,
        }
    })
}

/// The table kernel at one grid point, in direction order: gather the
/// reference members' sorted projections, read off their median and MAD,
/// and fold the queries' projections — the same fold, on the same values,
/// as [`fold_directions`] on the gathered clouds.
fn fold_table<I: CurveIndex>(
    block: &GridBlock<I>,
    n: usize,
    reference: &Membership,
    queries: &[usize],
) -> Supremum {
    let mut sup = Supremum::new(queries.len());
    let mut buf = vec![0.0; n.max(reference.size)];
    let runs = block
        .sorted
        .chunks_exact(n)
        .zip(block.order.chunks_exact(n))
        .zip(block.rank.chunks_exact(n));
    for ((sorted, order), rank) in runs {
        let (med, mad) = sorted_median_mad(reference.gather(sorted, order, &mut buf));
        sup.fold(med, mad, queries.iter().map(|&i| sorted[rank[i].index()]));
    }
    sup
}

/// Projection depth `PD(x) = 1 / (1 + O(x))` for every row of `cloud`.
pub fn projection_depth(cloud: &Matrix, config: &ProjectionConfig) -> Result<Vec<f64>> {
    Ok(projection_outlyingness(cloud, config)?
        .into_iter()
        .map(|o| 1.0 / (1.0 + o))
        .collect())
}

/// Standard normal variate via Box–Muller (keeps the dependency surface to
/// `rand`'s uniform source only).
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Coordinate-wise median of the rows of `cloud` — the center estimate used
/// for the direction vector of the directional outlyingness.
pub fn coordinate_median(cloud: &Matrix) -> Vec<f64> {
    (0..cloud.ncols())
        .map(|k| vector::median(&cloud.col(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn univariate_known_values() {
        // points: 0..=4, med = 2, MAD = 1
        let pts = [0.0, 1.0, 2.0, 3.0, 4.0];
        let o = univariate_outlyingness(&pts).unwrap();
        assert_eq!(o, vec![2.0, 1.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn univariate_flags_extreme_point() {
        let mut pts = vec![0.0, 0.1, -0.1, 0.05, -0.05, 0.02];
        pts.push(10.0);
        let o = univariate_outlyingness(&pts).unwrap();
        let max_idx = o
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_idx, 6);
    }

    #[test]
    fn univariate_degenerate_scale() {
        assert!(matches!(
            univariate_outlyingness(&[1.0, 1.0, 1.0, 5.0]),
            Err(DepthError::DegenerateScale { .. })
        ));
        assert!(univariate_outlyingness(&[]).is_err());
    }

    #[test]
    fn multivariate_center_is_least_outlying() {
        // cross-shaped cloud around the origin plus one extreme point
        let rows: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![1.0, 0.0],
            vec![-1.0, 0.0],
            vec![0.0, 1.0],
            vec![0.0, -1.0],
            vec![0.5, 0.5],
            vec![-0.5, 0.5],
            vec![0.5, -0.5],
            vec![-0.5, -0.5],
            vec![8.0, 8.0],
        ];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let o = projection_outlyingness(&cloud, &ProjectionConfig::default()).unwrap();
        // origin must have the smallest outlyingness, the far point the largest
        let min_idx = o
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        let max_idx = o
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(min_idx, 0, "{o:?}");
        assert_eq!(max_idx, 9, "{o:?}");
    }

    #[test]
    fn depth_is_monotone_in_outlyingness() {
        let rows: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64, (i as f64).sin()]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let cfg = ProjectionConfig::default();
        let o = projection_outlyingness(&cloud, &cfg).unwrap();
        let d = projection_depth(&cloud, &cfg).unwrap();
        for i in 0..10 {
            assert!((d[i] - 1.0 / (1.0 + o[i])).abs() < 1e-12);
            assert!(d[i] > 0.0 && d[i] <= 1.0);
        }
    }

    #[test]
    fn reproducible_with_same_seed() {
        let rows: Vec<Vec<f64>> = (0..15)
            .map(|i| {
                vec![
                    (i as f64 * 0.7).sin(),
                    (i as f64 * 1.3).cos(),
                    i as f64 * 0.1,
                ]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let cfg = ProjectionConfig {
            n_directions: 64,
            seed: 42,
        };
        let o1 = projection_outlyingness(&cloud, &cfg).unwrap();
        let o2 = projection_outlyingness(&cloud, &cfg).unwrap();
        assert_eq!(o1, o2);
    }

    #[test]
    fn pool_sizes_agree_bit_for_bit() {
        let rows: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                vec![
                    (i as f64 * 0.31).sin(),
                    (i as f64 * 0.77).cos(),
                    (i as f64 * 0.13).tan().atan(),
                    i as f64 * 0.05,
                ]
            })
            .collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let queries = Matrix::from_rows(&refs[..7]);
        let cfg = ProjectionConfig {
            n_directions: 48,
            seed: 9,
        };
        let p1 = par::Pool::with_threads(1);
        let p8 = par::Pool::with_threads(8);
        let seq = projection_outlyingness_on(&p1, &cloud, &cfg).unwrap();
        let par8 = projection_outlyingness_on(&p8, &cloud, &cfg).unwrap();
        let global = projection_outlyingness_full(&cloud, &cfg).unwrap();
        assert_eq!(seq, par8);
        assert_eq!(seq, global);
        for (a, b) in seq.scores.iter().zip(&par8.scores) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        let seq_q = projection_outlyingness_against_on(&p1, &cloud, &queries, &cfg).unwrap();
        let par_q = projection_outlyingness_against_on(&p8, &cloud, &queries, &cfg).unwrap();
        assert_eq!(seq_q, par_q);
        assert_eq!(
            seq_q,
            projection_outlyingness_against_full(&cloud, &queries, &cfg).unwrap()
        );
        // the inline path along a shared, pre-drawn stream (Dir.out's grid
        // points) is the same computation
        let directions = Directions::draw(cloud.ncols(), &cfg);
        let inline = outlyingness_along(&cloud, None, &directions).unwrap();
        let inline_q = outlyingness_along(&cloud, Some(&queries), &directions).unwrap();
        for (a, b) in [(&seq, &inline), (&seq_q, &inline_q)] {
            assert_eq!(a, b);
            for (x, y) in a.scores.iter().zip(&b.scores) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn median_mad_matches_vector_reference() {
        let mut scratch = [0.0; 9];
        for values in [
            vec![3.0, -1.0, 2.5, 2.5, 0.0, -0.0, 7.0, 1.0, 1.0],
            vec![0.1, 0.1, 0.1, 0.2, 0.3, -5.0, 9.0, 0.1, 0.1],
        ] {
            for len in [8, 9] {
                let v = &values[..len];
                let (med, mad) = median_mad(v, &mut scratch[..len]);
                assert_eq!(med.to_bits(), vector::median(v).to_bits());
                assert_eq!(mad.to_bits(), vector::mad_raw(v).to_bits());
            }
        }
    }

    #[test]
    fn sorted_median_mad_matches_the_select_kernel() {
        // ties, signed zeros, odd and even sizes, runs of every balance
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % 9
        };
        for len in 1..=14 {
            let mut scratch = vec![0.0; len];
            for _ in 0..200 {
                let mut values: Vec<f64> = (0..len)
                    .map(|_| match next() {
                        0 => 0.0,
                        1 => -0.0,
                        2 => 1.0 + f64::EPSILON,
                        k => k as f64 * 0.5 - 2.0,
                    })
                    .collect();
                let expected = median_mad(&values, &mut scratch);
                values.sort_by(f64::total_cmp);
                let got = sorted_median_mad(&values);
                assert_eq!(expected.0.to_bits(), got.0.to_bits(), "{values:?}");
                assert_eq!(expected.1.to_bits(), got.1.to_bits(), "{values:?}");
            }
        }
    }

    #[test]
    fn direction_budget_is_accounted() {
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, (i as f64).cos()]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let cloud = Matrix::from_rows(&refs);
        let cfg = ProjectionConfig {
            n_directions: 32,
            seed: 5,
        };
        let outcome = projection_outlyingness_full(&cloud, &cfg).unwrap();
        // a generic cloud degenerates along no direction
        assert_eq!(outcome.used_directions, cfg.n_directions + 2);
        assert_eq!(outcome.degenerate_directions, 0);

        // A rank-1 cloud (all points on the line y = x) keeps only the
        // directions with a component along the line: the two axes survive,
        // but any direction orthogonal to (1, 1) degenerates. With random
        // directions almost surely none is exactly orthogonal, so this
        // cloud still uses every direction — instead, collapse one
        // coordinate to force axis-aligned degeneracy.
        let rows: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64, 3.0]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let flat = Matrix::from_rows(&refs);
        let outcome = projection_outlyingness_full(&flat, &cfg).unwrap();
        // the y axis projects every point to 3.0: zero MAD, degenerate
        assert!(outcome.degenerate_directions >= 1, "{outcome:?}");
        assert_eq!(
            outcome.used_directions + outcome.degenerate_directions,
            cfg.n_directions + 2
        );
    }

    #[test]
    fn degenerate_cloud_errors() {
        let cloud = Matrix::filled(6, 2, 3.0); // all points identical
        let err = projection_outlyingness(&cloud, &ProjectionConfig::default()).unwrap_err();
        assert!(
            matches!(err, DepthError::DegenerateDirections { attempted } if attempted == 130),
            "{err:?}"
        );
    }

    #[test]
    fn coordinate_median_centers() {
        let cloud = Matrix::from_rows(&[&[0.0, 10.0], &[1.0, 20.0], &[2.0, 30.0]]);
        assert_eq!(coordinate_median(&cloud), vec![1.0, 20.0]);
    }

    #[test]
    fn affine_invariance_of_univariate() {
        // O is invariant to shift and positive scaling.
        let pts = [0.0, 1.0, 2.0, 3.0, 10.0];
        let o1 = univariate_outlyingness(&pts).unwrap();
        let scaled: Vec<f64> = pts.iter().map(|x| 5.0 * x - 7.0).collect();
        let o2 = univariate_outlyingness(&scaled).unwrap();
        for (a, b) in o1.iter().zip(&o2) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
