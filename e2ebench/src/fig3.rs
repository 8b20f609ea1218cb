//! `fig3`: the paper's Fig. 3 protocol (Sec. 4.1) through
//! `mfod::experiment::run_fig3_on` on `Fig3Config::default()` data — ECG
//! simulator, n = 192, m = 85, train 96, five contamination levels — at a
//! fixed repetition count.

use crate::common::{self, Args, Ctx, Outcome, SetupTimes, DATA_SEED, GOLDEN_SPLIT_SEED};
use crate::trace::{self, span};
use crate::{golden, recompose, sys};
use mfod::detect::features::Standardizer;
use mfod::eval::run_repeated;
use mfod::experiment::{run_fig3_on, Fig3Config, Fig3Row};
use mfod::prelude::*;
use mfod_obs::Recorder;
use std::sync::Arc;
use std::time::Instant;

/// Random splits per contamination level in one job.
pub const REPS: usize = 2;
/// Set-ups timed before the jobs (more follow between jobs).
const SETUPS: usize = 5;

fn config(data_seed: u64, split_seed: u64) -> Fig3Config {
    Fig3Config {
        repetitions: REPS,
        data_seed,
        split_seed,
        ..Fig3Config::default()
    }
}

fn splits_per_job(cfg: &Fig3Config) -> u64 {
    (cfg.contamination_levels.len() * cfg.repetitions) as u64
}

/// The protocol's input: ECG beats augmented with the squared series, as
/// `mfod::experiment::run_fig3` builds it. Also warms the process-wide
/// selection-plan cache for the beats' grid.
fn setup(cfg: &Fig3Config) -> Result<LabeledDataSet, String> {
    let data = span("datasets.generate", || {
        EcgSimulator::new(cfg.ecg.clone())?
            .generate(cfg.n_normal, cfg.n_abnormal, cfg.data_seed)?
            .augment_with(0, |y| y * y)
    })
    .map_err(|e| format!("generating fig3 data: {e}"))?;
    cfg.pipeline
        .selector
        .plan_shared(&data.samples()[0].t)
        .map_err(|e| format!("planning the fig3 grid: {e}"))?;
    Ok(data)
}

/// Every AUC (as bits), mean, std and Dir.out direction count of a
/// result, one per line: two results are equal iff these lines are.
fn canonical(rows: &[Fig3Row]) -> Vec<String> {
    let mut out = Vec::new();
    for row in rows {
        let c = row.contamination;
        for m in &row.summary.methods {
            for (r, v) in m.values.iter().enumerate() {
                out.push(format!("auc {c} {} {r} {:016x}", m.method, v.to_bits()));
            }
            out.push(format!(
                "mean {c} {} {:016x} {:016x}",
                m.method,
                m.mean.to_bits(),
                m.std.to_bits()
            ));
        }
        out.push(format!(
            "dirout {c} {} {}",
            row.dirout_degenerate, row.dirout_direction_budget
        ));
    }
    out
}

fn plausible(rows: &[Fig3Row], cfg: &Fig3Config) -> bool {
    rows.len() == cfg.contamination_levels.len()
        && rows.iter().all(|r| {
            r.summary.methods.len() == 4
                && r.summary.methods.iter().all(|m| {
                    m.values.len() == cfg.repetitions
                        && m.values.iter().all(|v| (0.0..=1.0).contains(v))
                })
        })
}

/// Method means averaged over the levels, best first, for the golden
/// file's comment.
fn ordering(rows: &[Fig3Row]) -> Vec<String> {
    let methods = ["Dir.out", "iFor(Curvmap)", "OCSVM(Curvmap)", "FUNTA"];
    let mut means: Vec<(f64, &str)> = methods
        .iter()
        .map(|m| {
            let s: f64 = rows
                .iter()
                .filter_map(|r| r.summary.get(m))
                .map(|s| s.mean)
                .sum();
            (s / rows.len() as f64, *m)
        })
        .collect();
    means.sort_by(|a, b| b.0.total_cmp(&a.0));
    let mut lines = vec![format!(
        "measured ordering (mean AUC over levels): {}",
        means
            .iter()
            .map(|(v, m)| format!("{m} {v:.3}"))
            .collect::<Vec<_>>()
            .join(" > ")
    )];
    for row in rows {
        let cells: Vec<String> = methods
            .iter()
            .map(|m| format!("{m} {:.3}", row.summary.get(m).map_or(f64::NAN, |s| s.mean)))
            .collect();
        lines.push(format!(
            "c = {:.2}: {}",
            row.contamination,
            cells.join(", ")
        ));
    }
    lines
}

/// `run_fig3_on` re-composed from its layers' public calls, with a span
/// around each.
fn traced_job(cfg: &Fig3Config, data: &LabeledDataSet) -> mfod::Result<Vec<Fig3Row>> {
    let curv_pipeline = GeomOutlierPipeline::new(
        cfg.pipeline.clone(),
        Arc::new(Curvature),
        Arc::new(cfg.iforest.clone()),
    );
    let features = recompose::features(&curv_pipeline, data.samples())?;
    let gridded = span("depth.gridded", || DepthBaseline::gridded(data))?;
    let funta = Funta::new();
    let dirout = DirOut::new();
    let all_cols: Vec<usize> = (0..features.ncols()).collect();
    let mut rows = Vec::with_capacity(cfg.contamination_levels.len());
    for &c in &cfg.contamination_levels {
        let split_cfg = SplitConfig {
            train_size: cfg.train_size,
            contamination: c,
        };
        let mut dirout_degenerate = 0usize;
        let mut dirout_direction_budget = 0usize;
        let summary = span("eval.repeated", || {
            run_repeated(cfg.repetitions, cfg.split_seed, |seed| {
                let split = span("datasets.split", || split_cfg.split(data, seed))?;
                let test_labels: Vec<bool> = split
                    .test_indices
                    .iter()
                    .map(|&i| data.labels()[i])
                    .collect();
                let (train_f, test_f) = span("linalg.submatrix", || {
                    (
                        features.submatrix(&split.train_indices, &all_cols),
                        features.submatrix(&split.test_indices, &all_cols),
                    )
                });
                let auc =
                    |scores: &[f64]| span("eval.auc", || mfod::eval::auc(scores, &test_labels));

                let ifor = span("detect.iforest_fit", || cfg.iforest.fit(&train_f))?;
                let ifor_scores = span("detect.iforest_score", || ifor.score_batch(&test_f))?;
                let ifor_auc = auc(&ifor_scores)?;

                let (train_z, test_z) = span("detect.standardize", || {
                    let std = Standardizer::fit(&train_f)?;
                    Ok::<_, MfodError>((std.transform(&train_f)?, std.transform(&test_f)?))
                })?;
                let selection = span("mfod.nu_tune", || cfg.nu_tuner.tune(&cfg.ocsvm, &train_z))?;
                let ocsvm: Box<dyn FittedDetector> = span("detect.ocsvm_fit", || {
                    OcSvm {
                        nu: selection.nu,
                        ..cfg.ocsvm.clone()
                    }
                    .fit_concrete(&train_z)
                    .map(|m| Box::new(m) as Box<dyn FittedDetector>)
                })?;
                let ocsvm_scores = span("detect.ocsvm_score", || ocsvm.score_batch(&test_z))?;
                let ocsvm_auc = auc(&ocsvm_scores)?;

                let (train_g, test_g) = span("depth.gridded", || {
                    Ok::<_, MfodError>((
                        gridded.subset(&split.train_indices)?,
                        gridded.subset(&split.test_indices)?,
                    ))
                })?;
                let funta_scores = span("depth.funta", || funta.score_against(&train_g, &test_g))?;
                let funta_auc = auc(&funta_scores)?;
                let dirout_scores = span("depth.dirout", || {
                    dirout.decompose_against(&train_g, &test_g)
                })?;
                dirout_degenerate += dirout_scores.degenerate_directions;
                dirout_direction_budget += dirout_scores.attempted_directions;
                let dirout_auc = auc(&dirout_scores.fo)?;

                Ok::<_, MfodError>(vec![
                    ("iFor(Curvmap)".to_string(), ifor_auc),
                    ("OCSVM(Curvmap)".to_string(), ocsvm_auc),
                    ("FUNTA".to_string(), funta_auc),
                    ("Dir.out".to_string(), dirout_auc),
                ])
            })
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

/// One timed protocol run, traced or not. Tallies its splits as failed
/// unless the result is plausible and bit-identical to `reference` (the
/// first result seen when `reference` is empty). Returns the latency and
/// the result when it passed.
fn job(
    out: &mut Outcome,
    cfg: &Fig3Config,
    data: &LabeledDataSet,
    traced: bool,
    reference: &mut Vec<String>,
) -> (f64, Option<Vec<Fig3Row>>) {
    let t = Instant::now();
    let rows = if traced {
        traced_job(cfg, data)
    } else {
        run_fig3_on(cfg, data)
    };
    let lat = t.elapsed().as_secs_f64();
    let rows = match rows {
        Ok(rows) if plausible(&rows, cfg) => {
            let lines = canonical(&rows);
            if reference.is_empty() {
                *reference = lines;
                Some(rows)
            } else if *reference == lines {
                Some(rows)
            } else {
                eprintln!("fig3: result differs from the first job's (traced: {traced})");
                None
            }
        }
        Ok(_) => None,
        Err(e) => {
            eprintln!("fig3 job failed: {e}");
            None
        }
    };
    out.tally(splits_per_job(cfg), rows.is_some());
    (lat, rows)
}

/// The protocol at the golden seeds, compared bit for bit with
/// `golden/fig3.txt`.
fn golden_check(
    ctx: &Ctx,
    args: &Args,
    data: &LabeledDataSet,
    out: &mut Outcome,
) -> Result<(), String> {
    let cfg = config(DATA_SEED, GOLDEN_SPLIT_SEED);
    let ok = match run_fig3_on(&cfg, data) {
        Ok(rows) => {
            let mut comments = vec![
                format!(
                    "Fig. 3 AUC table: Fig3Config::default() at data_seed {DATA_SEED}, \
                     split_seed {GOLDEN_SPLIT_SEED}, {REPS} repetitions per level."
                ),
                "Lines: auc <c> <method> <rep> <f64 bits> | mean <c> <method> <mean bits> <std bits> | dirout <c> <degenerate> <attempted>".into(),
            ];
            comments.extend(ordering(&rows));
            golden::check(ctx, "fig3", &canonical(&rows), &comments, args.bless)?
        }
        Err(e) => {
            eprintln!("fig3 golden run failed: {e}");
            false
        }
    };
    out.tally(splits_per_job(&cfg), ok);
    Ok(())
}

pub fn run(ctx: &Ctx, args: &Args) -> Result<Outcome, String> {
    Recorder::install(false);
    let cfg = config(DATA_SEED, common::base_seed(args.seed, 2));
    if args.trace {
        return run_traced(ctx, args, &cfg);
    }
    let mut out = Outcome::default();
    let (mut setups, data) = SetupTimes::first(SETUPS, || setup(&cfg))?;
    let mut reference = Vec::new();
    job(&mut out, &cfg, &data, false, &mut reference); // warm-up
    let lat = common::timed_jobs(args.seconds, 1, |_| {
        let (lat, _) = job(&mut out, &cfg, &data, false, &mut reference);
        if let Err(e) = setups.tick(|| setup(&cfg)) {
            eprintln!("set-up failed: {e}");
            out.tally(1, false);
        }
        lat
    });
    golden_check(ctx, args, &data, &mut out)?;
    out.set("setup_s", setups.median());
    out.set("latency_ms", common::median(&lat) * 1e3);
    out.set(
        "throughput_per_s",
        splits_per_job(&cfg) as f64 / common::median(&lat),
    );
    eprintln!(
        "fig3: {} jobs of {} splits, median {:.3} s",
        lat.len(),
        splits_per_job(&cfg),
        common::median(&lat)
    );
    Ok(out)
}

/// Untraced, traced and telemetry-enabled jobs in rotation on the same
/// input (all must give the same bits), then a `MFOD_THREADS=1` child.
fn run_traced(ctx: &Ctx, args: &Args, cfg: &Fig3Config) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (data, before_setup, after_setup) = common::traced_setups(3, || setup(cfg))?;

    let mut reference = Vec::new();
    let (_, mut rows) = job(&mut out, cfg, &data, false, &mut reference); // warm-up
    let mut cpu_s = 0.0;
    let before = trace::snapshot();
    let lat = common::rotate_jobs(0.75 * args.seconds, |mode, _| {
        let cpu0 = sys::cpu_seconds();
        match mode {
            1 => trace::enable(),
            2 => Recorder::install(true),
            _ => {}
        }
        let (lat, r) = job(&mut out, cfg, &data, mode == 1, &mut reference);
        trace::disable();
        Recorder::install(false);
        if mode == 0 {
            cpu_s += sys::cpu_seconds() - cpu0;
            if rows.is_none() {
                rows = r;
            }
        }
        lat
    });
    let after = trace::snapshot();

    let child = common::single_thread_child(args, (0.25 * args.seconds).max(1.0))?;
    out.tally(1, child.correct);
    golden_check(ctx, args, &data, &mut out)?;

    crate::metrics::set_layer_times(
        &mut out,
        (&before, &after, lat[1].len()),
        (&before_setup, &after_setup, 3),
    )?;
    let rows = rows.ok_or("no fig3 job passed its checks")?;
    let degenerate: usize = rows.iter().map(|r| r.dirout_degenerate).sum();
    let attempted: usize = rows.iter().map(|r| r.dirout_direction_budget).sum();
    out.set(
        "depth.dirout_useful_ratio",
        1.0 - degenerate as f64 / attempted.max(1) as f64,
    );
    common::set_rotation_metrics(
        &mut out,
        &lat,
        after.top_level_ns_since(&before),
        cpu_s,
        splits_per_job(cfg) as f64,
        &child,
    );
    out.set("proc.peak_rss_mb", sys::peak_rss_mb());
    crate::write_trace(ctx, args)?;
    Ok(out)
}
