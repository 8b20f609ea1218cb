//! `fit_score`: an offline train-then-serve cycle on 400 simulated ECG
//! beats (2:1 normal:abnormal, m = 85), repeated over seeded resplits.
//! Each cycle fits the curvature + iForest pipeline with the LOOCV
//! `BasisSelector::default()` ladder on a 200-beat split at 10%
//! contamination, scores the other 200 beats exactly and through a
//! `FrozenScorer`, promotes the model into a fresh `ModelStore`, then
//! reopens the store cold, installs the active generation and scores one
//! beat with it.

use crate::common::{self, Args, Ctx, Outcome, SetupTimes, DATA_SEED, GOLDEN_SPLIT_SEED};
use crate::trace::{self, span};
use crate::{golden, recompose, sys};
use mfod::fda::{BasisSelector, RawSample};
use mfod::persist::{ModelRegistry, ModelStore};
use mfod::prelude::*;
use mfod_obs::Recorder;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

const N_NORMAL: usize = 267;
const N_ABNORMAL: usize = 133;
const SPLIT: SplitConfig = SplitConfig {
    train_size: 200,
    contamination: 0.10,
};
const SETUPS: usize = 5;
/// Config fingerprint recorded with each promoted generation.
const FINGERPRINT: u64 = 0xE2E;

fn pipeline() -> GeomOutlierPipeline {
    GeomOutlierPipeline::new(
        PipelineConfig {
            selector: BasisSelector::default(),
            ..PipelineConfig::default()
        },
        Arc::new(Curvature),
        Arc::new(IsolationForest::default()),
    )
}

/// The beats, augmented with the squared series; also warms the
/// process-wide selection-plan cache for the LOOCV ladder on their grid.
fn setup() -> Result<LabeledDataSet, String> {
    let data = span("datasets.generate", || {
        EcgSimulator::new(EcgConfig::default())?
            .generate(N_NORMAL, N_ABNORMAL, DATA_SEED)?
            .augment_with(0, |y| y * y)
    })
    .map_err(|e| format!("generating fit_score data: {e}"))?;
    BasisSelector::default()
        .plan_shared(&data.samples()[0].t)
        .map_err(|e| format!("planning the fit_score grid: {e}"))?;
    Ok(data)
}

/// What one cycle produced.
struct Cycle {
    exact: Vec<f64>,
    frozen: Vec<f64>,
    /// Score of the first test beat by the model reloaded from the store.
    reloaded_first: f64,
}

impl Cycle {
    fn check(&self, n_test: usize) -> bool {
        self.exact.len() == n_test
            && self.frozen.len() == n_test
            && self.exact.iter().chain(&self.frozen).all(|v| v.is_finite())
            && self.reloaded_first.to_bits() == self.exact[0].to_bits()
    }

    fn lines(&self) -> Vec<String> {
        vec![
            format!("exact {:016x}", common::hash_f64s(&self.exact)),
            format!("frozen {:016x}", common::hash_f64s(&self.frozen)),
            format!("reloaded_first {:016x}", self.reloaded_first.to_bits()),
        ]
    }
}

/// One cycle; `traced` swaps the fit and exact scoring for their traced
/// re-compositions. The store directory is created fresh and left for
/// the caller to remove.
fn cycle(
    data: &LabeledDataSet,
    split_seed: u64,
    dir: &Path,
    traced: bool,
) -> Result<Cycle, String> {
    let (train, test) = span("datasets.split", || SPLIT.split_datasets(data, split_seed))
        .map_err(|x| format!("split: {x}"))?;
    let pipeline = pipeline();
    let fitted = if traced {
        recompose::fit(&pipeline, &IsolationForest::default(), train.samples())
    } else {
        pipeline.fit(train.samples())
    }
    .map_err(|x| format!("fit: {x}"))?;
    let fitted = Arc::new(fitted);
    let exact = if traced {
        recompose::exact_score(&fitted, test.samples())
    } else {
        fitted.par_score(test.samples())
    }
    .map_err(|x| format!("exact score: {x}"))?;
    let ts = test.samples()[0].t.clone();
    let frozen = span("mfod.frozen_build", || {
        FrozenScorer::new(Arc::clone(&fitted), &ts)
    })
    .map_err(|x| format!("frozen build: {x}"))?;
    let frozen = span("mfod.frozen_score", || frozen.par_score(test.samples()))
        .map_err(|x| format!("frozen score: {x}"))?;
    span("persist.promote", || {
        let snapshot = fitted.snapshot()?;
        let (mut store, _) = ModelStore::open(dir)?;
        store.promote(&snapshot, FINGERPRINT, "fit_score")?;
        Ok::<_, MfodError>(())
    })
    .map_err(|x| format!("promote: {x}"))?;
    let reloaded_first =
        serve_first(dir, &test.samples()[0]).map_err(|x| format!("reload: {x}"))?;
    Ok(Cycle {
        exact,
        frozen,
        reloaded_first,
    })
}

/// Cold open of the store, install of its active generation, and the
/// first score by the installed model.
fn serve_first(dir: &Path, sample: &RawSample) -> mfod::Result<f64> {
    let (store, _) = span("persist.open", || ModelStore::open(dir))?;
    let model = span("persist.install", || {
        let registry = ModelRegistry::<FittedPipeline>::new();
        store.install_active(&registry)?;
        registry
            .active()
            .ok_or_else(|| MfodError::Pipeline("store has no active generation".into()))
    })?;
    span("persist.first_score", || model.score_one(sample))
}

fn store_dir(ctx: &Ctx, i: usize) -> PathBuf {
    ctx.work
        .join(format!("fit_score-{}-{i}", std::process::id()))
}

/// Runs cycle `i` timed (store clean-up excluded) and tallies its check.
fn timed_cycle(
    ctx: &Ctx,
    out: &mut Outcome,
    data: &LabeledDataSet,
    split_base: u64,
    i: usize,
    traced: bool,
) -> (f64, Option<Cycle>) {
    let dir = store_dir(ctx, i);
    let _ = std::fs::remove_dir_all(&dir);
    let t = Instant::now();
    let result = cycle(data, split_base + i as u64, &dir, traced);
    let lat = t.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    let n_test = data.len() - SPLIT.train_size;
    let cycle = match result {
        Ok(c) if c.check(n_test) => Some(c),
        Ok(_) => {
            eprintln!("fit_score cycle {i}: output check failed");
            None
        }
        Err(err) => {
            eprintln!("fit_score cycle {i} failed: {err}");
            None
        }
    };
    out.tally(data.len() as u64, cycle.is_some());
    (lat, cycle)
}

fn golden_check(
    ctx: &Ctx,
    args: &Args,
    data: &LabeledDataSet,
    out: &mut Outcome,
) -> Result<(), String> {
    let (_, c) = timed_cycle(ctx, out, data, GOLDEN_SPLIT_SEED, 0, false);
    let Some(c) = c else {
        return Ok(());
    };
    let comments = vec![
        format!(
            "fit_score cycle at data_seed {DATA_SEED}, split_seed {GOLDEN_SPLIT_SEED}: \
             FNV-1a of the exact and frozen test-score bits, and the bits of the first score \
             after a cold store reopen."
        ),
        format!(
            "exact score of test beat 0: {:.6}; frozen: {:.6}",
            c.exact[0], c.frozen[0]
        ),
    ];
    let ok = golden::check(ctx, "fit_score", &c.lines(), &comments, args.bless)?;
    out.tally(1, ok);
    Ok(())
}

pub fn run(ctx: &Ctx, args: &Args) -> Result<Outcome, String> {
    Recorder::install(false);
    let split_base = common::base_seed(args.seed, 2);
    if args.trace {
        return run_traced(ctx, args, split_base);
    }
    let mut out = Outcome::default();
    let (mut setups, data) = SetupTimes::first(SETUPS, setup)?;
    timed_cycle(ctx, &mut out, &data, split_base, 0, false); // warm-up
    let lat = common::timed_jobs(args.seconds, 2, |i| {
        let lat = timed_cycle(ctx, &mut out, &data, split_base, i + 1, false).0;
        if let Err(e) = setups.tick(setup) {
            eprintln!("set-up failed: {e}");
            out.tally(1, false);
        }
        lat
    });
    golden_check(ctx, args, &data, &mut out)?;
    out.set("setup_s", setups.median());
    out.set("latency_ms", common::median(&lat) * 1e3);
    out.set("throughput_per_s", data.len() as f64 / common::median(&lat));
    eprintln!(
        "fit_score: {} cycles of {} beats, median {:.3} s",
        lat.len(),
        data.len(),
        common::median(&lat)
    );
    Ok(out)
}

/// Untraced, traced and telemetry-enabled cycles in rotation, all three
/// on the same split each round (they must give the same bits), then a
/// `MFOD_THREADS=1` child.
fn run_traced(ctx: &Ctx, args: &Args, split_base: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (data, before_setup, after_setup) = common::traced_setups(3, setup)?;

    timed_cycle(ctx, &mut out, &data, split_base, 0, false); // warm-up
    let mut cpu_s = 0.0;
    let mut reference = None;
    let before = trace::snapshot();
    let lat = common::rotate_jobs(0.75 * args.seconds, |mode, round| {
        let cpu0 = sys::cpu_seconds();
        match mode {
            1 => trace::enable(),
            2 => Recorder::install(true),
            _ => {}
        }
        let (lat, c) = timed_cycle(ctx, &mut out, &data, split_base, round + 1, mode == 1);
        trace::disable();
        Recorder::install(false);
        let lines = c.map(|c| c.lines());
        if mode == 0 {
            cpu_s += sys::cpu_seconds() - cpu0;
            reference = lines;
        } else {
            let same = lines.is_some() && lines == reference;
            if !same {
                eprintln!("fit_score round {round}: mode {mode} differs from the untraced cycle");
            }
            out.tally(1, same);
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
    common::set_rotation_metrics(
        &mut out,
        &lat,
        after.top_level_ns_since(&before),
        cpu_s,
        data.len() as f64,
        &child,
    );
    out.set("proc.peak_rss_mb", sys::peak_rss_mb());
    crate::write_trace(ctx, args)?;
    Ok(out)
}
