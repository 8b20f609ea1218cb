//! Grid-sampled functional datasets: the common input format of the
//! depth-based scorers.

use crate::error::DepthError;
use crate::Result;
use mfod_linalg::{vector, Matrix};

/// `n` functional samples evaluated on a shared strictly increasing grid of
/// `m` points, each sample having `p` channels — i.e. sample `i` is an
/// `m x p` matrix whose row `j` is `X_i(t_j) ∈ R^p`.
#[derive(Debug, Clone)]
pub struct GriddedDataSet {
    grid: Vec<f64>,
    samples: Vec<Matrix>,
    dim: usize,
}

impl GriddedDataSet {
    /// Validates shapes and builds the dataset.
    pub fn new(grid: Vec<f64>, samples: Vec<Matrix>) -> Result<Self> {
        if samples.is_empty() {
            return Err(DepthError::TooFewSamples { got: 0, need: 1 });
        }
        if grid.len() < 2 {
            return Err(DepthError::InvalidGrid(format!(
                "grid needs >= 2 points, got {}",
                grid.len()
            )));
        }
        if !vector::all_finite(&grid) {
            return Err(DepthError::NonFinite);
        }
        for w in grid.windows(2) {
            if w[0] >= w[1] {
                return Err(DepthError::InvalidGrid(
                    "grid must be strictly increasing".into(),
                ));
            }
        }
        let dim = samples[0].ncols();
        if dim == 0 {
            return Err(DepthError::ShapeMismatch(
                "samples must have >= 1 channel".into(),
            ));
        }
        for (i, s) in samples.iter().enumerate() {
            if s.nrows() != grid.len() || s.ncols() != dim {
                return Err(DepthError::ShapeMismatch(format!(
                    "sample {i} is {}x{}, expected {}x{dim}",
                    s.nrows(),
                    s.ncols(),
                    grid.len()
                )));
            }
            if !s.is_finite() {
                return Err(DepthError::NonFinite);
            }
        }
        Ok(GriddedDataSet { grid, samples, dim })
    }

    /// Builds a univariate dataset (`p = 1`) from per-sample value vectors.
    pub fn from_univariate(grid: Vec<f64>, values: Vec<Vec<f64>>) -> Result<Self> {
        let m = grid.len();
        let samples = values
            .into_iter()
            .map(|v| {
                if v.len() != m {
                    Err(DepthError::ShapeMismatch(format!(
                        "sample has {} values for {m} grid points",
                        v.len()
                    )))
                } else {
                    Ok(Matrix::from_vec(m, 1, v))
                }
            })
            .collect::<Result<Vec<_>>>()?;
        GriddedDataSet::new(grid, samples)
    }

    /// Number of samples `n`.
    pub fn n(&self) -> usize {
        self.samples.len()
    }

    /// Number of grid points `m`.
    pub fn m(&self) -> usize {
        self.grid.len()
    }

    /// Number of channels `p`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The evaluation grid.
    pub fn grid(&self) -> &[f64] {
        &self.grid
    }

    /// Sample `i` as an `m x p` matrix.
    pub fn sample(&self, i: usize) -> &Matrix {
        &self.samples[i]
    }

    /// All samples.
    pub fn samples(&self) -> &[Matrix] {
        &self.samples
    }

    /// The point cloud at grid index `j`: an `n x p` matrix whose row `i` is
    /// `X_i(t_j)`.
    pub fn point_cloud(&self, j: usize) -> Matrix {
        let mut out = Matrix::zeros(self.n(), self.dim);
        for (i, s) in self.samples.iter().enumerate() {
            out.row_mut(i).copy_from_slice(s.row(j));
        }
        out
    }

    /// The point cloud at grid index `j` of the samples `indices`, in that
    /// order: `self.subset(indices)?.point_cloud(j)` without the subset.
    pub(crate) fn point_cloud_of(&self, j: usize, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.dim);
        for (r, &i) in indices.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.samples[i].row(j));
        }
        out
    }

    /// The values of channel `k` for every sample at grid index `j`.
    pub fn channel_at(&self, j: usize, k: usize) -> Vec<f64> {
        self.samples.iter().map(|s| s[(j, k)]).collect()
    }

    /// Channel `k` of sample `i` as a curve over the grid.
    pub fn curve(&self, i: usize, k: usize) -> Vec<f64> {
        self.samples[i].col(k)
    }

    /// Concatenates two datasets sharing the same grid and channel count.
    pub fn concat(&self, other: &GriddedDataSet) -> Result<Self> {
        if self.grid != other.grid {
            return Err(DepthError::InvalidGrid(
                "cannot concatenate datasets with different grids".into(),
            ));
        }
        if self.dim != other.dim {
            return Err(DepthError::ShapeMismatch(format!(
                "channel mismatch: {} vs {}",
                self.dim, other.dim
            )));
        }
        let mut samples = self.samples.clone();
        samples.extend(other.samples.iter().cloned());
        GriddedDataSet::new(self.grid.clone(), samples)
    }

    /// Restricts to a subset of sample indices (used by train/test splits).
    pub fn subset(&self, indices: &[usize]) -> Result<Self> {
        let samples = indices
            .iter()
            .map(|&i| {
                self.samples
                    .get(i)
                    .cloned()
                    .ok_or_else(|| DepthError::InvalidParameter(format!("index {i} out of range")))
            })
            .collect::<Result<Vec<_>>>()?;
        GriddedDataSet::new(self.grid.clone(), samples)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> GriddedDataSet {
        let grid = vec![0.0, 0.5, 1.0];
        let s1 = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 2.0], &[2.0, 3.0]]);
        let s2 = Matrix::from_rows(&[&[1.0, 0.0], &[2.0, 1.0], &[3.0, 2.0]]);
        GriddedDataSet::new(grid, vec![s1, s2]).unwrap()
    }

    #[test]
    fn construction_and_accessors() {
        let d = tiny();
        assert_eq!(d.n(), 2);
        assert_eq!(d.m(), 3);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.grid(), &[0.0, 0.5, 1.0]);
        assert_eq!(d.sample(0)[(1, 1)], 2.0);
        assert_eq!(d.samples().len(), 2);
    }

    #[test]
    fn validation_errors() {
        assert!(matches!(
            GriddedDataSet::new(vec![0.0, 1.0], vec![]),
            Err(DepthError::TooFewSamples { .. })
        ));
        assert!(matches!(
            GriddedDataSet::new(vec![0.0], vec![Matrix::zeros(1, 1)]),
            Err(DepthError::InvalidGrid(_))
        ));
        assert!(matches!(
            GriddedDataSet::new(vec![0.0, 0.0], vec![Matrix::zeros(2, 1)]),
            Err(DepthError::InvalidGrid(_))
        ));
        assert!(matches!(
            GriddedDataSet::new(vec![0.0, 1.0], vec![Matrix::zeros(3, 1)]),
            Err(DepthError::ShapeMismatch(_))
        ));
        let nan = Matrix::from_rows(&[&[f64::NAN], &[0.0]]);
        assert!(matches!(
            GriddedDataSet::new(vec![0.0, 1.0], vec![nan]),
            Err(DepthError::NonFinite)
        ));
        // inconsistent channel counts
        assert!(GriddedDataSet::new(
            vec![0.0, 1.0],
            vec![Matrix::zeros(2, 1), Matrix::zeros(2, 2)]
        )
        .is_err());
    }

    #[test]
    fn univariate_builder() {
        let d = GriddedDataSet::from_univariate(
            vec![0.0, 1.0],
            vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
        )
        .unwrap();
        assert_eq!(d.n(), 3);
        assert_eq!(d.dim(), 1);
        assert_eq!(d.curve(2, 0), vec![5.0, 6.0]);
        assert!(GriddedDataSet::from_univariate(vec![0.0, 1.0], vec![vec![1.0]]).is_err());
    }

    #[test]
    fn point_cloud_extraction() {
        let d = tiny();
        let pc = d.point_cloud(1);
        assert_eq!(pc.shape(), (2, 2));
        assert_eq!(pc.row(0), &[1.0, 2.0]);
        assert_eq!(pc.row(1), &[2.0, 1.0]);
        assert_eq!(d.channel_at(2, 0), vec![2.0, 3.0]);
    }

    #[test]
    fn subset_selection() {
        let d = tiny();
        let s = d.subset(&[1]).unwrap();
        assert_eq!(s.n(), 1);
        assert_eq!(s.sample(0)[(0, 0)], 1.0);
        assert!(d.subset(&[5]).is_err());
        // duplicated indices are allowed (bootstrap-style)
        assert_eq!(d.subset(&[0, 0, 1]).unwrap().n(), 3);
    }
}
