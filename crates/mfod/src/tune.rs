//! ν-hyper-parameter tuning for the one-class SVM by k-fold
//! *self-consistency* cross-validation.
//!
//! The paper tunes ν with 5-fold CV on the (unlabeled) training set
//! (Sec. 4.3) without stating the criterion; the standard unsupervised
//! choice — used here — exploits the ν-property: ν upper-bounds the
//! fraction of training outliers and should therefore match the fraction of
//! *held-out* points flagged as outliers. The tuner selects the candidate
//! minimizing `|held-out flagged fraction − ν|`. As the true contamination
//! `c` grows past the candidate grid, no ν fits well and OCSVM degrades —
//! the effect visible in the paper's Fig. 3 discussion.
//!
//! The CV runs fold-major. Each fold's training matrix is the same for
//! every candidate, so the folds run across the worker pool and each one
//! computes its kernel bandwidth and Gram matrix once, then solves every
//! candidate ν on it ([`OcSvm::fit_each_nu_on`]). The per-fold flagged
//! counts are then summed candidate by candidate in fold order: integer
//! sums, so the profile is the candidate-by-candidate loop's bit for bit,
//! and the first failing (ν, fold) in that order is the error reported.

use crate::error::MfodError;
use crate::Result;
use mfod_detect::{FittedDetector, OcSvm};
use mfod_eval::KFold;
use mfod_linalg::{par, Matrix};

/// ν tuner configuration.
#[derive(Debug, Clone)]
pub struct NuTuner {
    /// Candidate ν values (each in `(0, 1]`).
    pub candidates: Vec<f64>,
    /// Number of CV folds (the paper uses 5).
    pub folds: usize,
    /// RNG seed for the fold shuffle.
    pub seed: u64,
}

impl Default for NuTuner {
    fn default() -> Self {
        NuTuner {
            candidates: vec![0.02, 0.05, 0.1, 0.15, 0.2, 0.3],
            folds: 5,
            seed: 0x7E57,
        }
    }
}

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct NuSelection {
    /// The selected ν.
    pub nu: f64,
    /// Self-consistency objective `|flagged fraction − ν|` of the winner.
    pub objective: f64,
    /// `(ν, objective)` for every candidate, in candidate order.
    pub profile: Vec<(f64, f64)>,
}

impl NuTuner {
    /// Tunes ν on the training features (rows = samples) and returns the
    /// selection. The template's kernel settings are reused for every fold.
    pub fn tune(&self, template: &OcSvm, train: &Matrix) -> Result<NuSelection> {
        if self.candidates.is_empty() {
            return Err(MfodError::Pipeline("no ν candidates supplied".into()));
        }
        for &nu in &self.candidates {
            if !(0.0 < nu && nu <= 1.0) {
                return Err(MfodError::Pipeline(format!(
                    "candidate ν {nu} out of (0, 1]"
                )));
            }
        }
        let kf = KFold::new(self.folds, self.seed)?;
        let folds = kf.folds(train.nrows())?;
        let cols: Vec<usize> = (0..train.ncols()).collect();
        // Fold-major: folds are fitted and scored independently across the
        // worker pool, and each fold fits every candidate on one shared
        // Gram matrix, yielding its flagged count per candidate.
        let per_fold = par::global().map(folds.len(), |f| {
            let (tr, va) = &folds[f];
            let tr_m = train.submatrix(tr, &cols);
            template
                .fit_each_nu_on(par::global(), &tr_m, &self.candidates)
                .into_iter()
                .map(|model| {
                    let model = model?;
                    let mut flagged = 0usize;
                    for &i in va {
                        // score > 0 ⟺ decision f(x) < 0 ⟺ flagged as outlier
                        if model.score_one(train.row(i))? > 0.0 {
                            flagged += 1;
                        }
                    }
                    Ok(flagged)
                })
                .collect::<Vec<Result<usize>>>()
        });
        let profile = candidate_major_profile(&self.candidates, train.nrows(), per_fold)?;
        let (nu, objective) = profile
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty candidates");
        Ok(NuSelection {
            nu,
            objective,
            profile,
        })
    }

    /// Tunes ν and fits the final model on the full training set with it.
    pub fn tune_and_fit(
        &self,
        template: &OcSvm,
        train: &Matrix,
    ) -> Result<(NuSelection, Box<dyn FittedDetector>)> {
        let selection = self.tune(template, train)?;
        let cfg = OcSvm {
            nu: selection.nu,
            ..template.clone()
        };
        let model = cfg.fit_concrete(train)?;
        Ok((selection, Box::new(model)))
    }
}

/// Folds the per-fold flagged counts (`per_fold[f][c]` for fold `f` and
/// candidate `c`) into the `(ν, |flagged fraction − ν|)` profile, over the
/// `held_out` points that the validation folds partition. The counts are
/// visited candidate by candidate and, within a candidate, in fold order:
/// integer sums, so each objective is the one a candidate-by-candidate
/// loop computes, and the first failure in that order is the error
/// reported.
fn candidate_major_profile(
    candidates: &[f64],
    held_out: usize,
    per_fold: Vec<Vec<Result<usize>>>,
) -> Result<Vec<(f64, f64)>> {
    let mut per_fold: Vec<_> = per_fold.into_iter().map(Vec::into_iter).collect();
    candidates
        .iter()
        .map(|&nu| {
            let mut flagged = 0usize;
            for fold in &mut per_fold {
                flagged += fold.next().expect("one count per candidate")?;
            }
            let fraction = flagged as f64 / held_out.max(1) as f64;
            Ok((nu, (fraction - nu).abs()))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mfod_detect::Detector;

    /// Ring of inliers with `frac` replaced by far-away outliers.
    fn contaminated(n: usize, frac: f64, spread: f64) -> Matrix {
        let n_out = (n as f64 * frac).round() as usize;
        let mut rows: Vec<Vec<f64>> = (0..n - n_out)
            .map(|i| {
                let a = i as f64 * std::f64::consts::TAU / (n - n_out) as f64;
                vec![a.cos(), a.sin()]
            })
            .collect();
        for i in 0..n_out {
            let a = i as f64 * 2.39996;
            rows.push(vec![spread * a.cos(), spread * a.sin()]);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Matrix::from_rows(&refs)
    }

    #[test]
    fn selects_nu_near_contamination() {
        let x = contaminated(100, 0.10, 8.0);
        let tuner = NuTuner::default();
        let sel = tuner.tune(&OcSvm::default(), &x).unwrap();
        assert!(
            (0.02..=0.3).contains(&sel.nu),
            "selected ν {} outside candidate range",
            sel.nu
        );
        assert_eq!(sel.profile.len(), 6);
        assert!(
            sel.objective
                <= sel
                    .profile
                    .iter()
                    .map(|p| p.1)
                    .fold(f64::INFINITY, f64::min)
                    + 1e-12
        );
    }

    #[test]
    fn tune_and_fit_scores_outliers_high() {
        let x = contaminated(80, 0.1, 10.0);
        let tuner = NuTuner {
            folds: 4,
            ..Default::default()
        };
        let (sel, model) = tuner.tune_and_fit(&OcSvm::default(), &x).unwrap();
        assert!(sel.nu > 0.0);
        let inlier = model.score_one(&[1.0, 0.0]).unwrap();
        let outlier = model.score_one(&[12.0, 0.0]).unwrap();
        assert!(outlier > inlier);
    }

    #[test]
    fn validation_errors() {
        let x = contaminated(30, 0.1, 5.0);
        let t = NuTuner {
            candidates: vec![],
            ..Default::default()
        };
        assert!(t.tune(&OcSvm::default(), &x).is_err());
        let t = NuTuner {
            candidates: vec![1.5],
            ..Default::default()
        };
        assert!(t.tune(&OcSvm::default(), &x).is_err());
        let t = NuTuner {
            folds: 1,
            ..Default::default()
        };
        assert!(t.tune(&OcSvm::default(), &x).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let x = contaminated(60, 0.15, 6.0);
        let t = NuTuner::default();
        let a = t.tune(&OcSvm::default(), &x).unwrap();
        let b = t.tune(&OcSvm::default(), &x).unwrap();
        assert_eq!(a.nu, b.nu);
        assert_eq!(a.profile, b.profile);
    }

    /// The candidate-major tuner: one `fit_concrete` per (ν, fold), each
    /// recomputing the fold's bandwidth and Gram matrix, the first failing
    /// fold of the first failing candidate reported.
    fn candidate_major_tune(t: &NuTuner, template: &OcSvm, train: &Matrix) -> Result<NuSelection> {
        let folds = KFold::new(t.folds, t.seed)?.folds(train.nrows())?;
        let cols: Vec<usize> = (0..train.ncols()).collect();
        let mut profile = Vec::new();
        for &nu in &t.candidates {
            let (mut flagged, mut total) = (0usize, 0usize);
            for (tr, va) in &folds {
                let cfg = OcSvm {
                    nu,
                    ..template.clone()
                };
                let model = cfg.fit_concrete(&train.submatrix(tr, &cols))?;
                for &i in va {
                    if model.score_one(train.row(i))? > 0.0 {
                        flagged += 1;
                    }
                }
                total += va.len();
            }
            let fraction = flagged as f64 / total.max(1) as f64;
            profile.push((nu, (fraction - nu).abs()));
        }
        let (nu, objective) = profile
            .iter()
            .copied()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        Ok(NuSelection {
            nu,
            objective,
            profile,
        })
    }

    fn assert_selections_bit_equal(a: &NuSelection, b: &NuSelection, what: &str) {
        let bits = |s: &NuSelection| {
            let mut v = vec![s.nu.to_bits(), s.objective.to_bits()];
            v.extend(
                s.profile
                    .iter()
                    .flat_map(|p| [p.0.to_bits(), p.1.to_bits()]),
            );
            v
        };
        assert_eq!(bits(a), bits(b), "{what}");
    }

    #[test]
    fn fold_major_tuning_matches_candidate_major_reference() {
        let cases = [
            (
                contaminated(100, 0.10, 8.0),
                NuTuner::default(),
                OcSvm::default(),
            ),
            (
                contaminated(61, 0.2, 4.0),
                NuTuner {
                    candidates: vec![0.3, 0.05, 0.2, 0.05, 1.0],
                    folds: 4,
                    seed: 9,
                },
                OcSvm {
                    gamma: mfod_detect::GammaSpec::Scale,
                    ..Default::default()
                },
            ),
            (
                contaminated(40, 0.1, 5.0),
                NuTuner {
                    folds: 3,
                    ..Default::default()
                },
                OcSvm {
                    kernel: Some(mfod_detect::Kernel::Linear),
                    ..Default::default()
                },
            ),
        ];
        for (case, (x, tuner, template)) in cases.iter().enumerate() {
            let fast = tuner.tune(template, x).unwrap();
            let reference = candidate_major_tune(tuner, template, x).unwrap();
            assert_selections_bit_equal(&fast, &reference, &format!("case {case}"));
        }
    }

    #[test]
    fn first_failure_in_candidate_major_order_is_reported() {
        // Synthetic counts for candidates 0, 1, 2 with failures at
        // (candidate 2, fold 0), (1, 1) and (1, 2). Candidate-major order
        // reaches (1, 1) first; fold-major order would reach (2, 0).
        let fail = |what: &str| Err(MfodError::Pipeline(what.into()));
        let per_fold = vec![
            vec![Ok(1), Ok(0), fail("candidate 2, fold 0")],
            vec![Ok(2), fail("candidate 1, fold 1"), Ok(0)],
            vec![Ok(0), fail("candidate 1, fold 2"), Ok(3)],
        ];
        let err = candidate_major_profile(&[0.1, 0.2, 0.3], 30, per_fold).unwrap_err();
        assert_eq!(
            err.to_string(),
            fail("candidate 1, fold 1").unwrap_err().to_string()
        );
        // without failures the counts sum per candidate over the folds
        let per_fold = vec![vec![Ok(1), Ok(6)], vec![Ok(2), Ok(0)]];
        let profile = candidate_major_profile(&[0.1, 0.2], 30, per_fold).unwrap();
        assert_eq!(profile, vec![(0.1, 0.0), (0.2, 0.0)]);

        // Real failures: a one-iteration SMO budget fails the fits, and
        // the error is the reference loop's.
        let x = contaminated(60, 0.15, 6.0);
        let template = OcSvm {
            max_iter: 1,
            ..Default::default()
        };
        let tuner = NuTuner::default();
        let fast = tuner.tune(&template, &x).unwrap_err();
        let reference = candidate_major_tune(&tuner, &template, &x).unwrap_err();
        assert_eq!(fast.to_string(), reference.to_string());
    }

    #[test]
    fn template_kernel_respected() {
        // a template with a linear kernel must not fail
        let x = contaminated(40, 0.1, 5.0);
        let template = OcSvm {
            kernel: Some(mfod_detect::Kernel::Linear),
            ..Default::default()
        };
        assert_eq!(template.name(), "ocsvm");
        let sel = NuTuner {
            folds: 3,
            ..Default::default()
        }
        .tune(&template, &x)
        .unwrap();
        assert!(sel.nu > 0.0);
    }
}
