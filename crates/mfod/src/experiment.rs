//! The paper's Fig. 3 experiment: AUC versus training contamination level
//! for the two geometric pipelines — `iFor(Curvmap)`, `OCSVM(Curvmap)` —
//! against the depth baselines `FUNTA` and `Dir.out`, averaged over
//! repeated random splits.
//!
//! Protocol (Sec. 4.1):
//! 1. ECG data (`m = 85`), augmented to bivariate MFD with the squared
//!    series;
//! 2. for each contamination level `c ∈ {5, 10, 15, 20, 25}%`: draw a
//!    train/test split whose training set contains exactly `c` outliers,
//!    fit iForest and OCSVM (ν tuned by 5-fold CV) on the *mapped* training
//!    curves, score the test set and record the AUC;
//! 3. repeat 50 times per level and report mean ± std.
//!
//! Smoothing and mapping do not depend on the split, so the feature matrix
//! and the baselines' gridded dataset are computed once and the split loop
//! only refits detectors — a few orders of magnitude faster than
//! re-smoothing per repetition, with identical results. Neither does the
//! baselines' heavy lifting: every split draws its curves from the same
//! pool, so two tables of the pool, built next to the gridded dataset,
//! serve every split bit-for-bit equal to scoring the split's subsets —
//! a [`CrossingTable`] of where each pair of curves crosses, for FUNTA,
//! and a [`ProjectionTable`] of every curve's sorted projections, for
//! Dir.out.
//!
//! All `levels × repetitions` splits then run as one map on the worker
//! pool of [`mfod_linalg::par`]. Each split is a pure function of its
//! contamination level and seed: the seed alone draws the split, and
//! every randomized step inside it (iForest's per-tree seeds, the ν-CV
//! folds, Dir.out's direction stream) is seeded from the configuration,
//! never from shared state. The pool returns the splits in `(level,
//! repetition)` order and each level is folded by [`run_repeated`] exactly
//! as the sequential loop did, so the rows are bit-for-bit identical at any
//! pool size and the first failing split in that order is the error
//! reported.

use crate::baselines::DepthBaseline;
use crate::error::MfodError;
use crate::pipeline::{GeomOutlierPipeline, PipelineConfig};
use crate::tune::NuTuner;
use crate::Result;
use mfod_datasets::{EcgConfig, EcgSimulator, LabeledDataSet, SplitConfig};
use mfod_depth::{CrossingTable, DirOut, Funta, ProjectionTable};
use mfod_detect::features::Standardizer;
use mfod_detect::{Detector, IsolationForest, OcSvm};
use mfod_eval::{run_repeated, RepeatedSummary};
use mfod_geometry::Curvature;
use mfod_linalg::par;
use std::sync::Arc;

/// Configuration of the Fig. 3 reproduction.
#[derive(Debug, Clone)]
pub struct Fig3Config {
    /// Contamination levels to sweep (the paper: 5…25%).
    pub contamination_levels: Vec<f64>,
    /// Random splits per level (the paper: 50).
    pub repetitions: usize,
    /// Training-set size per split.
    pub train_size: usize,
    /// Normal beats generated.
    pub n_normal: usize,
    /// Abnormal beats generated.
    pub n_abnormal: usize,
    /// ECG simulator settings (`m = 85` matches ECG200).
    pub ecg: EcgConfig,
    /// Smoothing/mapping settings.
    pub pipeline: PipelineConfig,
    /// iForest settings.
    pub iforest: IsolationForest,
    /// OCSVM template (ν is overridden by the tuner).
    pub ocsvm: OcSvm,
    /// ν tuner (5-fold CV, Sec. 4.3).
    pub nu_tuner: NuTuner,
    /// Seed for the dataset generation.
    pub data_seed: u64,
    /// Base seed for the split repetitions.
    pub split_seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Fig3Config {
            contamination_levels: vec![0.05, 0.10, 0.15, 0.20, 0.25],
            repetitions: 50,
            train_size: 96,
            n_normal: 128,
            n_abnormal: 64,
            ecg: EcgConfig::default(),
            pipeline: PipelineConfig::default(),
            iforest: IsolationForest::default(),
            ocsvm: OcSvm::default(),
            nu_tuner: NuTuner::default(),
            data_seed: 2020,
            split_seed: 38,
        }
    }
}

impl Fig3Config {
    /// A much smaller configuration for tests and smoke runs.
    pub fn smoke() -> Self {
        Fig3Config {
            contamination_levels: vec![0.10, 0.25],
            repetitions: 3,
            train_size: 30,
            n_normal: 40,
            n_abnormal: 20,
            ecg: EcgConfig {
                m: 40,
                ..Default::default()
            },
            pipeline: PipelineConfig::fast(),
            iforest: IsolationForest {
                n_trees: 50,
                ..Default::default()
            },
            nu_tuner: NuTuner {
                folds: 3,
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// One row of the Fig. 3 result: a contamination level with the
/// per-method AUC summaries.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// The contamination level `c`.
    pub contamination: f64,
    /// AUC mean ± std per method.
    pub summary: RepeatedSummary,
    /// `Dir.out` projection directions that degenerated (zero MAD of the
    /// projected reference cloud), summed over the level's repetitions —
    /// the direction-budget collapse signal of
    /// [`mfod_depth::dirout::DirOutScores::degenerate_directions`].
    pub dirout_degenerate: usize,
    /// Total `Dir.out` directions attempted across the level's
    /// repetitions, as reported by the projection layer
    /// ([`mfod_depth::dirout::DirOutScores::attempted_directions`]); the
    /// denominator for [`Fig3Row::dirout_degenerate`].
    pub dirout_direction_budget: usize,
}

/// Runs the full Fig. 3 experiment.
pub fn run_fig3(cfg: &Fig3Config) -> Result<Vec<Fig3Row>> {
    // 1. data: ECG beats, augmented with the squared series (Sec. 4.1)
    let data = EcgSimulator::new(cfg.ecg.clone())?
        .generate(cfg.n_normal, cfg.n_abnormal, cfg.data_seed)?
        .augment_with(0, |y| y * y)?;
    run_fig3_on(cfg, &data)
}

/// Runs the Fig. 3 protocol on externally supplied (already augmented)
/// data — e.g. the real ECG200 loaded via `mfod_datasets::ucr`. The
/// splits run on the global worker pool.
pub fn run_fig3_on(cfg: &Fig3Config, data: &LabeledDataSet) -> Result<Vec<Fig3Row>> {
    run_fig3_with(par::global(), cfg, data)
}

/// What one split contributes to its level's row.
struct SplitOutcome {
    /// AUC per method.
    aucs: Vec<(String, f64)>,
    /// Dir.out's degenerate directions.
    dirout_degenerate: usize,
    /// Dir.out's attempted directions.
    dirout_attempted: usize,
}

/// [`run_fig3_on`] with the splits mapped over `pool`.
fn run_fig3_with(
    pool: &par::Pool,
    cfg: &Fig3Config,
    data: &LabeledDataSet,
) -> Result<Vec<Fig3Row>> {
    // 2. split-independent precomputation
    let curv_pipeline = GeomOutlierPipeline::new(
        cfg.pipeline.clone(),
        Arc::new(Curvature),
        Arc::new(cfg.iforest.clone()),
    );
    let features = curv_pipeline.features(data.samples())?;
    let gridded = DepthBaseline::gridded(data)?;
    let crossings = CrossingTable::build(pool, &gridded);
    let funta = Funta::new();
    let dirout = DirOut::new();
    let projections = ProjectionTable::build(pool, &gridded, &dirout.projection);
    let all_cols: Vec<usize> = (0..features.ncols()).collect();

    // 3. every (level, repetition) split, returned in that order
    let reps = cfg.repetitions;
    let levels = &cfg.contamination_levels;
    let run_split = |task: usize| -> Result<SplitOutcome> {
        let split_cfg = SplitConfig {
            train_size: cfg.train_size,
            contamination: levels[task / reps],
        };
        let seed = cfg.split_seed + (task % reps) as u64;
        let split = split_cfg.split(data, seed).map_err(MfodError::from)?;
        let test_labels: Vec<bool> = split
            .test_indices
            .iter()
            .map(|&i| data.labels()[i])
            .collect();
        let train_f = features.submatrix(&split.train_indices, &all_cols);
        let test_f = features.submatrix(&split.test_indices, &all_cols);

        // iFor(Curvmap)
        let ifor = cfg.iforest.fit(&train_f).map_err(MfodError::from)?;
        let ifor_auc = mfod_eval::auc(
            &ifor.score_batch(&test_f).map_err(MfodError::from)?,
            &test_labels,
        )
        .map_err(MfodError::from)?;

        // OCSVM(Curvmap), ν tuned by k-fold self-consistency CV;
        // features standardized with training statistics (the RBF
        // kernel is distance-based, unlike the scale-free iForest)
        let std = Standardizer::fit(&train_f).map_err(MfodError::from)?;
        let train_z = std.transform(&train_f).map_err(MfodError::from)?;
        let test_z = std.transform(&test_f).map_err(MfodError::from)?;
        let (_, ocsvm) = cfg.nu_tuner.tune_and_fit(&cfg.ocsvm, &train_z)?;
        let ocsvm_auc = mfod_eval::auc(
            &ocsvm.score_batch(&test_z).map_err(MfodError::from)?,
            &test_labels,
        )
        .map_err(MfodError::from)?;

        // depth baselines, fit on the training reference (so that
        // training contamination affects them exactly as it affects the
        // detector-based pipelines)
        let funta_scores = funta
            .score_indexed(&crossings, &split.train_indices, &split.test_indices)
            .map_err(MfodError::from)?;
        let funta_auc = mfod_eval::auc(&funta_scores, &test_labels).map_err(MfodError::from)?;
        let dirout_scores = dirout
            .decompose_indexed_on(
                pool,
                &projections,
                &split.train_indices,
                &split.test_indices,
            )
            .map_err(MfodError::from)?;
        let dirout_auc =
            mfod_eval::auc(&dirout_scores.fo, &test_labels).map_err(MfodError::from)?;

        Ok(SplitOutcome {
            aucs: vec![
                ("iFor(Curvmap)".to_string(), ifor_auc),
                ("OCSVM(Curvmap)".to_string(), ocsvm_auc),
                ("FUNTA".to_string(), funta_auc),
                ("Dir.out".to_string(), dirout_auc),
            ],
            dirout_degenerate: dirout_scores.degenerate_directions,
            dirout_attempted: dirout_scores.attempted_directions,
        })
    };
    let mut outcomes = pool.map(levels.len() * reps, run_split).into_iter();

    // 4. per-level summaries, folded in (level, repetition) order
    let mut rows = Vec::with_capacity(levels.len());
    for &c in levels {
        let mut dirout_degenerate = 0usize;
        let mut dirout_direction_budget = 0usize;
        let summary = run_repeated(reps, cfg.split_seed, |_seed| {
            let outcome = outcomes.next().expect("one outcome per split")?;
            dirout_degenerate += outcome.dirout_degenerate;
            dirout_direction_budget += outcome.dirout_attempted;
            Ok::<_, MfodError>(outcome.aucs)
        })?;
        rows.push(Fig3Row {
            contamination: c,
            summary,
            dirout_degenerate,
            dirout_direction_budget,
        });
    }
    Ok(rows)
}

/// Renders the Fig. 3 result as the text analogue of the paper's plot:
/// one row per contamination level, one column per method (mean ± std).
pub fn format_fig3(rows: &[Fig3Row]) -> String {
    let methods = ["Dir.out", "FUNTA", "iFor(Curvmap)", "OCSVM(Curvmap)"];
    let mut out = String::from("AUC vs. contamination level (mean ± std)\n");
    out.push_str(&format!("{:>6}", "c"));
    for m in &methods {
        out.push_str(&format!("  {m:>16}"));
    }
    out.push('\n');
    for row in rows {
        out.push_str(&format!("{:>5.0}%", row.contamination * 100.0));
        for m in &methods {
            match row.summary.get(m) {
                Some(s) => out.push_str(&format!("  {:>8.3} ± {:>5.3}", s.mean, s.std)),
                None => out.push_str(&format!("  {:>16}", "—")),
            }
        }
        out.push('\n');
    }
    // Direction-budget health of the Dir.out baseline: a large degenerate
    // share means the projection supremum was estimated from far fewer
    // directions than configured and its AUC column should be read with
    // suspicion.
    out.push_str("\nDir.out direction budget (degenerate / attempted):\n");
    for row in rows {
        let pct = if row.dirout_direction_budget == 0 {
            0.0
        } else {
            100.0 * row.dirout_degenerate as f64 / row.dirout_direction_budget as f64
        };
        out.push_str(&format!(
            "{:>5.0}%  {} / {} ({pct:.2}% degenerate)\n",
            row.contamination * 100.0,
            row.dirout_degenerate,
            row.dirout_direction_budget,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_methods() {
        let cfg = Fig3Config::smoke();
        let rows = run_fig3(&cfg).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.summary.repetitions, 3);
            for m in ["iFor(Curvmap)", "OCSVM(Curvmap)", "FUNTA", "Dir.out"] {
                let s = row.summary.get(m).unwrap_or_else(|| panic!("missing {m}"));
                assert!(
                    (0.0..=1.0).contains(&s.mean),
                    "{m} mean {} out of range",
                    s.mean
                );
                assert!(s.std >= 0.0);
            }
        }
    }

    #[test]
    fn formatting_contains_all_columns() {
        let cfg = Fig3Config::smoke();
        let rows = run_fig3(&cfg).unwrap();
        let text = format_fig3(&rows);
        assert!(text.contains("iFor(Curvmap)"));
        assert!(text.contains("OCSVM(Curvmap)"));
        assert!(text.contains("FUNTA"));
        assert!(text.contains("Dir.out"));
        assert!(text.contains("10%"));
        assert!(text.contains("25%"));
        assert!(text.contains("direction budget"));
        for row in &rows {
            assert!(row.dirout_direction_budget > 0);
            assert!(row.dirout_degenerate <= row.dirout_direction_budget);
        }
    }

    fn smoke_data(cfg: &Fig3Config) -> LabeledDataSet {
        EcgSimulator::new(cfg.ecg.clone())
            .unwrap()
            .generate(cfg.n_normal, cfg.n_abnormal, cfg.data_seed)
            .unwrap()
            .augment_with(0, |y| y * y)
            .unwrap()
    }

    #[test]
    fn split_loop_is_identical_across_pool_sizes() {
        let cfg = Fig3Config::smoke();
        let data = smoke_data(&cfg);
        let seq = run_fig3_with(&par::Pool::with_threads(1), &cfg, &data).unwrap();
        let wide = run_fig3_with(&par::Pool::with_threads(8), &cfg, &data).unwrap();
        let global = run_fig3_on(&cfg, &data).unwrap();
        for other in [&wide, &global] {
            assert_eq!(seq.len(), other.len());
            for (a, b) in seq.iter().zip(other.iter()) {
                assert_eq!(a.contamination.to_bits(), b.contamination.to_bits());
                assert_eq!(a.dirout_degenerate, b.dirout_degenerate);
                assert_eq!(a.dirout_direction_budget, b.dirout_direction_budget);
                assert_eq!(a.summary.repetitions, b.summary.repetitions);
                assert_eq!(a.summary.methods.len(), b.summary.methods.len());
                for (ma, mb) in a.summary.methods.iter().zip(&b.summary.methods) {
                    assert_eq!(ma.method, mb.method);
                    assert_eq!(ma.mean.to_bits(), mb.mean.to_bits());
                    assert_eq!(ma.std.to_bits(), mb.std.to_bits());
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&ma.values), bits(&mb.values));
                }
            }
        }
        assert!(seq.iter().all(|row| row.dirout_direction_budget > 0));
    }

    #[test]
    fn first_failing_split_in_level_order_is_reported() {
        // 20 abnormal beats: a 30-beat training set at 90% contamination
        // needs 27 outliers, at 95% even more — both levels fail on every
        // split, and the earlier level's first repetition must win.
        let cfg = Fig3Config {
            contamination_levels: vec![0.10, 0.90, 0.95],
            ..Fig3Config::smoke()
        };
        let data = smoke_data(&cfg);
        let need_27 = SplitConfig {
            train_size: cfg.train_size,
            contamination: 0.90,
        }
        .split(&data, cfg.split_seed)
        .unwrap_err();
        let expected = MfodError::from(mfod_eval::EvalError::RepetitionFailed {
            repetition: 0,
            message: MfodError::from(need_27).to_string(),
        })
        .to_string();
        for threads in [1, 8] {
            let err = run_fig3_with(&par::Pool::with_threads(threads), &cfg, &data).unwrap_err();
            assert_eq!(err.to_string(), expected, "{threads} threads");
        }
    }

    #[test]
    fn geometric_pipeline_beats_baselines_on_average() {
        // The paper's headline claim, on a reduced-but-meaningful setup.
        let cfg = Fig3Config {
            repetitions: 3,
            contamination_levels: vec![0.10],
            train_size: 40,
            n_normal: 60,
            n_abnormal: 30,
            ecg: EcgConfig {
                m: 50,
                ..Default::default()
            },
            pipeline: PipelineConfig {
                selector: mfod_fda::BasisSelector {
                    sizes: vec![12],
                    lambdas: vec![1e-2],
                    ..Default::default()
                },
                grid_len: 50,
                ..Default::default()
            },
            iforest: IsolationForest {
                n_trees: 100,
                ..Default::default()
            },
            nu_tuner: NuTuner {
                folds: 3,
                ..Default::default()
            },
            ..Default::default()
        };
        let rows = run_fig3(&cfg).unwrap();
        let s = &rows[0].summary;
        let ifor = s.get("iFor(Curvmap)").unwrap().mean;
        let funta = s.get("FUNTA").unwrap().mean;
        assert!(
            ifor > funta - 0.05,
            "iFor(Curvmap) {ifor} should not lose clearly to FUNTA {funta}"
        );
    }
}
