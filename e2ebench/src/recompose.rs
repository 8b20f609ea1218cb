//! Traced re-compositions of the pipeline's feature stage, fit and exact
//! scoring from the public per-layer functions, so each layer gets its
//! own span: `fda` (plan lookup, per-sample smoothing), `geometry`
//! (mapping), `detect` (detector fit and scoring).
//!
//! Each re-composition follows the order and arithmetic of the
//! `mfod::pipeline` code it stands for, on the same global pool, and the
//! workloads check its outputs bit for bit against the un-traced calls.

use crate::trace::span;
use mfod::fda::{Grid, RawSample};
use mfod::geometry::snapshot_mapping;
use mfod::linalg::{par, vector, Matrix};
use mfod::pipeline::smooth_sample_with_plan;
use mfod::prelude::*;
use mfod::PipelineSnapshot;
use std::collections::HashMap;

/// Per-channel tally of `(basis size, λ bits)` selections.
type Votes = HashMap<(usize, u64), usize>;

/// A sample's mapped row and its per-channel `(basis size, λ)` selection.
type MappedRow = (Vec<f64>, Vec<(usize, f64)>);

/// [`FeatureTransform::apply`] as the pipeline applies it.
fn apply_transform(t: FeatureTransform, data: &mut [f64], cap: Option<f64>) {
    match t {
        FeatureTransform::None => {}
        FeatureTransform::Log1p => {
            for v in data.iter_mut() {
                *v = (1.0 + v.max(0.0)).ln();
            }
        }
        FeatureTransform::SignedSqrt => {
            for v in data.iter_mut() {
                *v = v.signum() * v.abs().sqrt();
            }
        }
        FeatureTransform::Winsorize(_) => {
            let cap = cap.expect("winsorize cap");
            for v in data.iter_mut() {
                if *v > cap {
                    *v = cap;
                }
            }
        }
    }
}

/// Smooths and maps every sample on the global pool (one `fda.smooth`
/// and one `geometry.map` span per sample), returning each sample's
/// mapped row and per-channel selection. `post` is applied to each row
/// inside the per-sample task.
fn mapped_rows(
    config: &PipelineConfig,
    mapping: &dyn MappingFunction,
    samples: &[RawSample],
    post: impl Fn(&mut Vec<f64>) + Sync,
) -> mfod::Result<(Grid, Vec<MappedRow>)> {
    let (a, b) = samples[0].domain();
    let grid = Grid::uniform(a, b, config.grid_len)?;
    let plan = span("fda.plan", || {
        config.selector.plan_shared(&samples[0].t).ok()
    });
    let rows = par::par_try_map(samples.len(), |i| {
        let (datum, selections) = span("fda.smooth", || {
            smooth_sample_with_plan(&config.selector, plan.as_deref(), &samples[i])
        })?;
        let mut mapped = span("geometry.map", || mapping.map(&datum, &grid))?;
        post(&mut mapped);
        Ok::<_, MfodError>((mapped, selections))
    })?;
    Ok((grid, rows))
}

fn assemble(n: usize, m: usize, rows: impl Iterator<Item = Vec<f64>>) -> Matrix {
    let mut data = Vec::with_capacity(n * m);
    for r in rows {
        data.extend_from_slice(&r);
    }
    Matrix::from_vec(n, m, data)
}

/// `GeomOutlierPipeline::features`: the transformed feature matrix of a
/// batch, under one `mfod.features` span. Also returns the per-channel
/// selection votes and the winsorize cap, which the fit needs.
fn features_votes(
    pipeline: &GeomOutlierPipeline,
    samples: &[RawSample],
) -> mfod::Result<(Matrix, Vec<Votes>, Option<f64>)> {
    span("mfod.features", || {
        let config = pipeline.config();
        let (grid, rows) = mapped_rows(config, pipeline.mapping().as_ref(), samples, |_| {})?;
        let dim = samples[0].dim();
        let mut votes: Vec<Votes> = vec![Votes::new(); dim];
        let mut mapped = Vec::with_capacity(rows.len());
        for (row, selections) in rows {
            for (k, sel) in selections.iter().enumerate() {
                *votes[k].entry((sel.0, sel.1.to_bits())).or_insert(0) += 1;
            }
            mapped.push(row);
        }
        let mut f = assemble(samples.len(), grid.len(), mapped.into_iter());
        let cap = match config.transform {
            FeatureTransform::Winsorize(q) => Some(vector::quantile(f.as_slice(), q)),
            _ => None,
        };
        apply_transform(config.transform, f.as_mut_slice(), cap);
        Ok((f, votes, cap))
    })
}

/// `GeomOutlierPipeline::features`, traced.
pub fn features(pipeline: &GeomOutlierPipeline, samples: &[RawSample]) -> mfod::Result<Matrix> {
    Ok(features_votes(pipeline, samples)?.0)
}

/// `GeomOutlierPipeline::fit`, traced: features, the majority basis
/// selection per channel, the detector fit, and the fitted pipeline
/// assembled through its public snapshot form.
pub fn fit(
    pipeline: &GeomOutlierPipeline,
    detector: &dyn Detector,
    train: &[RawSample],
) -> mfod::Result<FittedPipeline> {
    span("mfod.fit", || {
        let (features, votes, cap) = features_votes(pipeline, train)?;
        let selected = votes
            .into_iter()
            .map(|v| {
                let ((size, bits), _) = v
                    .into_iter()
                    .max_by_key(|&((size, bits), count)| (count, std::cmp::Reverse(size), bits))
                    .expect("at least one training sample voted");
                (size, f64::from_bits(bits))
            })
            .collect();
        let model = span("detect.iforest_fit", || detector.fit(&features))?;
        PipelineSnapshot {
            config: pipeline.config().clone(),
            mapping: snapshot_mapping(pipeline.mapping().as_ref())?,
            detector: model
                .snapshot()
                .ok_or_else(|| MfodError::Pipeline("detector has no snapshot form".into()))?,
            label: pipeline.label(),
            winsorize_cap: cap,
            domain: train[0].domain(),
            selected,
        }
        .restore()
    })
}

/// `FittedPipeline::par_score`, traced.
pub fn exact_score(fitted: &FittedPipeline, samples: &[RawSample]) -> mfod::Result<Vec<f64>> {
    span("mfod.exact_score", || {
        let config = fitted.config();
        let cap = fitted.winsorize_cap();
        let (grid, rows) = mapped_rows(config, fitted.mapping().as_ref(), samples, |row| {
            apply_transform(config.transform, row, cap)
        })?;
        let features = assemble(samples.len(), grid.len(), rows.into_iter().map(|(r, _)| r));
        Ok(span("detect.iforest_score", || {
            fitted.detector().par_score_batch(&features)
        })?)
    })
}
