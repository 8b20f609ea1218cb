//! # mfod-depth
//!
//! Depth-based functional outlier detection — the state-of-the-art
//! *baselines* the paper compares against (Sec. 1.2 and 4):
//!
//! * [`funta::Funta`] — the angle-based functional pseudo-depth of Kuhnt &
//!   Rehage (2016), sensitive to persistent *shape* outliers;
//! * [`dirout::DirOut`] — the directional outlyingness of Dai & Genton
//!   (2019), whose mean/variation decomposition (`MO`, `VO`, combined `FO`)
//!   detects isolated as well as persistent outliers;
//! * [`aggregate`] — the classic "pointwise depth + aggregation" recipe
//!   (integral à la Fraiman–Muniz, or the infimum fix for issue (2) of the
//!   paper) and the fast modified band depth;
//! * [`projection`] — univariate and random-direction projection
//!   depth/outlyingness primitives shared by the above, and the
//!   [`ProjectionTable`] from which Dir.out scores many splits of one
//!   dataset.
//!
//! All scorers implement [`FunctionalOutlierScorer`] over a
//! [`GriddedDataSet`] (samples evaluated on a common grid) and return
//! scores oriented **higher = more outlying**, so AUCs are directly
//! comparable with the detector-based pipeline.

// Index-based loops are used deliberately in the numeric kernels: the
// loop index mirrors the textbook formulas being implemented.
#![allow(clippy::needless_range_loop)]

pub mod aggregate;
pub mod dataset;
pub mod dirout;
pub mod error;
pub mod funta;
pub mod projection;
pub mod snapshot;

pub use dataset::GriddedDataSet;
pub use dirout::{DirOut, DirOutScores};
pub use error::DepthError;
pub use funta::{CrossingTable, Funta};
pub use projection::ProjectionTable;
pub use snapshot::DepthScorerSnapshot;

/// Crate-wide `Result` alias.
pub type Result<T> = std::result::Result<T, DepthError>;

/// A method that scores every sample of a functional dataset jointly
/// (depth-style methods are relative to the whole sample).
pub trait FunctionalOutlierScorer: Send + Sync {
    /// Identifier used in experiment reports.
    fn name(&self) -> &'static str;

    /// Outlyingness score per sample; **higher = more outlying**.
    fn score(&self, data: &GriddedDataSet) -> Result<Vec<f64>>;

    /// Scores each `queries` sample against the `reference` sample — the
    /// train/test protocol of the paper's Fig. 3, where a method is "fit"
    /// on the (possibly contaminated) training set and evaluated on test
    /// samples.
    ///
    /// The default implementation scores the concatenated
    /// `reference ∪ queries` dataset jointly and returns the query part;
    /// [`Funta`] and [`DirOut`] override it with true reference-only
    /// statistics so that training contamination affects them exactly as it
    /// affects the detector-based pipelines.
    fn score_against(
        &self,
        reference: &GriddedDataSet,
        queries: &GriddedDataSet,
    ) -> Result<Vec<f64>> {
        let joint = reference.concat(queries)?;
        let scores = self.score(&joint)?;
        Ok(scores[reference.n()..].to_vec())
    }

    /// The scorer's persistable configuration, when it supports
    /// snapshots. Defaults to `None` so custom scorers stay valid;
    /// [`Funta`] and [`DirOut`] override it.
    fn snapshot(&self) -> Option<DepthScorerSnapshot> {
        None
    }
}
