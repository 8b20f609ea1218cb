//! `stream`: the test beats of a Fig. 3 split replayed as a 2-channel
//! observation stream through an `OnlineScorer` (frozen scoring, batches
//! of 16, 5 ms `max_delay`, telemetry recorder enabled as in a serving
//! process). The model is cold-started from a `ModelStore` prepared
//! beforehand with a few promoted generations.
//!
//! The stream is sent **open loop**: observation `k` is due at
//! `t0 + k / (RATE_WPS · m)` whether or not the scorer kept up, and a
//! window's latency runs from when its last observation was due to when
//! its verdict returned, so generator stalls count. A **closed-loop**
//! drain of the same stream (blocks of windows pushed back to back)
//! measures capacity. The untraced run alternates the two every second.

use crate::common::{self, Args, Ctx, Outcome, SetupTimes, DATA_SEED, GOLDEN_SPLIT_SEED};
use crate::metrics;
use crate::trace::{self, span};
use crate::{golden, sys};
use mfod::fda::RawSample;
use mfod::persist::{ModelRegistry, ModelStore};
use mfod::prelude::*;
use mfod_obs::Recorder;
use mfod_stream::{BatchConfig, OnlineScorer, ScoringMode, StreamConfig, Verdict, WindowConfig};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Open-loop send rate, windows per second.
pub const RATE_WPS: f64 = 1000.0;
const BATCH: usize = 16;
const MAX_DELAY: Duration = Duration::from_millis(5);
/// Windows per closed-loop drain block (a whole number of batches).
const DRAIN_BLOCK: usize = 256;
/// Generations promoted into the prepared store; the last is active.
const GENERATIONS: u64 = 3;
const SETUPS: usize = 5;
const TRAIN: SplitConfig = SplitConfig {
    train_size: 96,
    contamination: 0.10,
};

fn generate() -> mfod::Result<LabeledDataSet> {
    let cfg = Fig3Config::default();
    Ok(EcgSimulator::new(cfg.ecg)?
        .generate(cfg.n_normal, cfg.n_abnormal, DATA_SEED)?
        .augment_with(0, |y| y * y)?)
}

fn split(data: &LabeledDataSet, split_seed: u64) -> mfod::Result<(LabeledDataSet, LabeledDataSet)> {
    Ok(TRAIN.split_datasets(data, split_seed)?)
}

/// The Fig. 3 pipeline (curvature + iForest); generation `g` differs in
/// its forest seed.
fn fit_generation(train: &LabeledDataSet, g: u64) -> mfod::Result<FittedPipeline> {
    GeomOutlierPipeline::new(
        PipelineConfig::default(),
        Arc::new(Curvature),
        Arc::new(IsolationForest {
            seed: IsolationForest::default().seed + g,
            ..IsolationForest::default()
        }),
    )
    .fit(train.samples())
}

/// Fits and promotes [`GENERATIONS`] models into a fresh store.
fn prepare_store(ctx: &Ctx, split_seed: u64) -> Result<PathBuf, String> {
    let dir = ctx.work.join(format!("stream-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let prepare = || {
        let (train, _) = split(&generate()?, split_seed)?;
        let (mut store, _) = ModelStore::open(&dir)?;
        for g in 0..GENERATIONS {
            let fitted = fit_generation(&train, g)?;
            store.promote(&fitted.snapshot()?, g, &format!("gen-{g}"))?;
        }
        Ok::<_, MfodError>(())
    };
    prepare().map_err(|e| format!("preparing the stream store: {e}"))?;
    Ok(dir)
}

/// A serving process after cold start.
struct Served {
    scorer: OnlineScorer,
    /// Scorer built beside the stream from the same installed model: the
    /// reference every verdict is compared with.
    reference: FrozenScorer,
    test: Vec<RawSample>,
    /// `FrozenScorer::score` of each test beat.
    expected: Vec<f64>,
    /// Windows sent so far (the next window's sequence number).
    sent: u64,
    /// Verdicts received so far.
    received: u64,
}

impl Served {
    fn m(&self) -> usize {
        self.test[0].t.len()
    }

    fn observation(&self, window: u64, j: usize) -> [f64; 2] {
        let beat = &self.test[(window % self.test.len() as u64) as usize];
        [beat.channels[0][j], beat.channels[1][j]]
    }

    /// Checks verdicts bit for bit against the reference scores; returns
    /// how many disagree.
    fn check(&mut self, verdicts: &[Verdict]) -> u64 {
        self.received += verdicts.len() as u64;
        verdicts
            .iter()
            .filter(|v| {
                let want = self.expected[(v.seq % self.expected.len() as u64) as usize];
                v.score.to_bits() != want.to_bits()
            })
            .count() as u64
    }
}

/// Input generation, cold store open, install of the active generation,
/// scorer build, and the first score.
fn setup(dir: &Path, split_seed: u64) -> Result<Served, String> {
    let run = || {
        let data = span("datasets.generate", generate)?;
        let (_, test) = span("datasets.split", || split(&data, split_seed))?;
        let (store, _) = span("persist.open", || ModelStore::open(dir))?;
        let model = span("persist.install", || {
            let registry = ModelRegistry::<FittedPipeline>::new();
            store.install_active(&registry)?;
            registry
                .active()
                .ok_or_else(|| MfodError::Pipeline("store has no active generation".into()))
        })?;
        let ts = test.samples()[0].t.clone();
        let scorer = span("stream.build", || {
            OnlineScorer::new(
                Arc::clone(&model),
                StreamConfig {
                    window: WindowConfig::tumbling(ts.clone(), 2),
                    batch: BatchConfig {
                        batch_size: BATCH,
                        max_delay: Some(MAX_DELAY),
                        mode: ScoringMode::Frozen,
                        ..BatchConfig::default()
                    },
                },
            )
        })
        .map_err(|e| MfodError::Pipeline(e.to_string()))?;
        let reference = span("persist.first_score", || {
            let reference = FrozenScorer::new(Arc::clone(&model), &ts)?;
            reference.score_one(&test.samples()[0])?;
            Ok::<_, MfodError>(reference)
        })?;
        Ok::<_, MfodError>(Served {
            scorer,
            reference,
            test: test.samples().to_vec(),
            expected: Vec::new(),
            sent: 0,
            received: 0,
        })
    };
    run().map_err(|e| format!("stream set-up: {e}"))
}

/// What an open-loop phase measured.
#[derive(Default)]
struct OpenLoop {
    /// Per-window latency from due time to verdict, seconds.
    latencies: Vec<f64>,
    late_max_s: f64,
    /// With `time_pushes`: durations of pushes that returned nothing and
    /// of pushes that returned verdicts (seconds), and the verdict counts
    /// of the latter.
    quiet_push_s: Vec<f64>,
    flush_push_s: Vec<f64>,
    flush_windows: Vec<usize>,
}

/// Sends `seconds` worth of windows open loop at [`RATE_WPS`], in
/// one-second segments.
fn open_loop(out: &mut Outcome, served: &mut Served, seconds: f64, time_pushes: bool) -> OpenLoop {
    let mut r = OpenLoop::default();
    let mut left = ((seconds * RATE_WPS) as u64).max(1);
    while left > 0 {
        let windows = left.min(RATE_WPS as u64);
        open_loop_segment(out, served, &mut r, windows, time_pushes);
        left -= windows;
    }
    r
}

/// Sends `windows` windows open loop at [`RATE_WPS`] and flushes the
/// rest at the end; latencies and push timings are appended to `r`.
fn open_loop_segment(
    out: &mut Outcome,
    served: &mut Served,
    r: &mut OpenLoop,
    windows: u64,
    time_pushes: bool,
) {
    let m = served.m();
    let period = 1.0 / (RATE_WPS * m as f64);
    let first = served.sent;
    let mut bad = 0u64;
    let t0 = Instant::now();
    let due = |k: u64| t0 + Duration::from_secs_f64(k as f64 * period);
    let record = |r: &mut OpenLoop, served: &mut Served, verdicts: &[Verdict], at: Instant| {
        for v in verdicts {
            let last_obs = (v.seq - first) * m as u64 + m as u64 - 1;
            r.latencies
                .push(at.saturating_duration_since(due(last_obs)).as_secs_f64());
        }
        served.check(verdicts)
    };
    for w in 0..windows {
        for j in 0..m {
            let d = due(w * m as u64 + j as u64);
            let mut now = Instant::now();
            while now < d {
                std::hint::spin_loop();
                now = Instant::now();
            }
            r.late_max_s = r.late_max_s.max((now - d).as_secs_f64());
            let obs = served.observation(first + w, j);
            match served.scorer.push(&obs) {
                Ok(verdicts) => {
                    let after = Instant::now();
                    if time_pushes {
                        let took = (after - now).as_secs_f64();
                        if verdicts.is_empty() {
                            r.quiet_push_s.push(took);
                        } else {
                            r.flush_push_s.push(took);
                            r.flush_windows.push(verdicts.len());
                        }
                    }
                    bad += record(r, served, &verdicts, after);
                }
                Err(e) => {
                    eprintln!("stream push failed: {e}");
                    bad += 1;
                }
            }
        }
    }
    served.sent += windows;
    match served.scorer.finish() {
        Ok(verdicts) => bad += record(r, served, &verdicts, Instant::now()),
        Err(e) => {
            eprintln!("stream finish failed: {e}");
            bad += 1;
        }
    }
    out.attempted += windows;
    out.failed += bad.min(windows);
}

/// One closed-loop block: [`DRAIN_BLOCK`] windows pushed back to back,
/// each push inside a `stream.push` span (recorded only while tracing).
/// Returns the block's windows per second.
fn drain_block(out: &mut Outcome, served: &mut Served) -> f64 {
    let m = served.m();
    let first = served.sent;
    let mut bad = 0u64;
    let t = Instant::now();
    for w in 0..DRAIN_BLOCK as u64 {
        for j in 0..m {
            let obs = served.observation(first + w, j);
            match span("stream.push", || served.scorer.push(&obs)) {
                Ok(verdicts) => bad += served.check(&verdicts),
                Err(e) => {
                    eprintln!("stream push failed: {e}");
                    bad += 1;
                }
            }
        }
    }
    let dt = t.elapsed().as_secs_f64();
    served.sent += DRAIN_BLOCK as u64;
    out.attempted += DRAIN_BLOCK as u64;
    out.failed += bad.min(DRAIN_BLOCK as u64);
    DRAIN_BLOCK as f64 / dt
}

/// Flushes what a drain left pending and checks it.
fn finish(out: &mut Outcome, served: &mut Served) {
    match served.scorer.finish() {
        Ok(verdicts) => {
            let bad = served.check(&verdicts);
            out.failed += bad;
        }
        Err(e) => {
            eprintln!("stream finish failed: {e}");
            out.tally(1, false);
        }
    }
}

/// Everything sent came back, nothing was shed or quarantined.
fn final_check(out: &mut Outcome, served: &Served) {
    let stats = served.scorer.stats();
    let ok = served.received == served.sent
        && stats.sheds == 0
        && stats.quarantined == 0
        && served.scorer.quarantined() == 0;
    if !ok {
        eprintln!(
            "stream: sent {} windows, {} verdicts, {} shed, {} quarantined",
            served.sent, served.received, stats.sheds, stats.quarantined
        );
    }
    out.tally(1, ok);
}

/// `FrozenScorer::score` of the test beats at the golden seeds (the
/// active generation), compared with `golden/stream.txt`.
fn golden_check(ctx: &Ctx, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let run = || {
        let (train, test) = split(&generate()?, GOLDEN_SPLIT_SEED)?;
        let fitted = Arc::new(fit_generation(&train, GENERATIONS - 1)?);
        FrozenScorer::new(fitted, &test.samples()[0].t)?.score(test.samples())
    };
    let ok = match run() {
        Ok(scores) => {
            let comments = vec![
                format!(
                    "stream reference: FNV-1a of FrozenScorer::score bits over the {} test beats \
                     at data_seed {DATA_SEED}, split_seed {GOLDEN_SPLIT_SEED}, active \
                     generation {}.",
                    scores.len(),
                    GENERATIONS - 1
                ),
                format!("score of test beat 0: {:.6}", scores[0]),
            ];
            let lines = vec![format!("frozen {:016x}", common::hash_f64s(&scores))];
            golden::check(ctx, "stream", &lines, &comments, args.bless)?
        }
        Err(e) => {
            eprintln!("stream golden run failed: {e}");
            false
        }
    };
    out.tally(1, ok);
    Ok(())
}

/// `FrozenScorer::score` of each test beat by the reference scorer.
fn reference_scores(served: &Served) -> Result<Vec<f64>, String> {
    served
        .reference
        .score(&served.test)
        .map_err(|e| format!("reference scores: {e}"))
}

pub fn run(ctx: &Ctx, args: &Args) -> Result<Outcome, String> {
    Recorder::install(true);
    let split_seed = common::base_seed(args.seed, 2);
    let dir = prepare_store(ctx, split_seed)?;
    let result = if args.trace {
        run_traced(ctx, args, &dir, split_seed)
    } else {
        run_untraced(ctx, args, &dir, split_seed)
    };
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Each second: 0.6 s of open loop, 0.4 s of closed-loop drain blocks,
/// one more timed set-up — so both figures sample the whole run.
fn run_untraced(ctx: &Ctx, args: &Args, dir: &Path, split_seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (mut setups, mut served) = SetupTimes::first(SETUPS, || setup(dir, split_seed))?;
    served.expected = reference_scores(&served)?;
    drain_block(&mut out, &mut served); // warm-up
    finish(&mut out, &mut served);
    let mut open = OpenLoop::default();
    let mut rates = Vec::new();
    let start = Instant::now();
    while rates.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        open_loop_segment(
            &mut out,
            &mut served,
            &mut open,
            (0.6 * RATE_WPS) as u64,
            false,
        );
        rates.extend(common::timed_jobs(0.4, 1, |_| {
            drain_block(&mut out, &mut served)
        }));
        finish(&mut out, &mut served);
        if let Err(e) = setups.tick(|| setup(dir, split_seed)) {
            eprintln!("set-up failed: {e}");
            out.tally(1, false);
        }
    }
    final_check(&mut out, &served);
    golden_check(ctx, args, &mut out)?;
    out.set("setup_s", setups.median());
    out.set("latency_ms", common::median(&open.latencies) * 1e3);
    out.set("throughput_per_s", common::median(&rates));
    eprintln!(
        "stream: {} windows open loop at {RATE_WPS} windows/s (p50 {:.3} ms, p99 {:.3} ms, \
         generator late by up to {:.3} ms); {} drain blocks of {DRAIN_BLOCK} windows",
        open.latencies.len(),
        common::quantile(&open.latencies, 0.5) * 1e3,
        common::quantile(&open.latencies, 0.99) * 1e3,
        open.late_max_s * 1e3,
        rates.len()
    );
    Ok(out)
}

/// Untraced open loop (tail latency, generator lateness), an open loop
/// with every push timed, then untraced, traced and telemetry-off drain
/// blocks in rotation, then a `MFOD_THREADS=1` child.
fn run_traced(ctx: &Ctx, args: &Args, dir: &Path, split_seed: u64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let s = args.seconds;
    let (mut served, before_setup, after_setup) =
        common::traced_setups(3, || setup(dir, split_seed))?;
    served.expected = reference_scores(&served)?;

    drain_block(&mut out, &mut served); // warm-up
    finish(&mut out, &mut served);
    let base = open_loop(&mut out, &mut served, 0.3 * s, false);
    let timed = open_loop(&mut out, &mut served, 0.15 * s, true);
    let mut cpu_s = 0.0;
    let before = trace::snapshot();
    let [base_rates, traced_rates, off_rates] = common::rotate_jobs(0.35 * s, |mode, _| {
        let cpu0 = sys::cpu_seconds();
        match mode {
            1 => trace::enable(),
            2 => Recorder::install(false),
            _ => {}
        }
        let rate = drain_block(&mut out, &mut served);
        trace::disable();
        Recorder::install(true);
        if mode == 0 {
            cpu_s += sys::cpu_seconds() - cpu0;
        }
        rate
    });
    let after = trace::snapshot();
    finish(&mut out, &mut served);
    final_check(&mut out, &served);

    let child = common::single_thread_child(args, (0.2 * s).max(1.0))?;
    out.tally(1, child.correct);
    golden_check(ctx, args, &mut out)?;

    metrics::set_layer_times(
        &mut out,
        (&before, &after, traced_rates.len()),
        (&before_setup, &after_setup, 3),
    )?;
    let block_s = |rates: &[f64]| rates.iter().map(|r| DRAIN_BLOCK as f64 / r).sum::<f64>();
    let capacity = common::median(&base_rates);
    let flushes = timed.flush_windows.len().max(1) as f64;
    out.set("stream.push_us", common::median(&timed.quiet_push_s) * 1e6);
    out.set(
        "stream.flush_p50_ms",
        common::quantile(&timed.flush_push_s, 0.5) * 1e3,
    );
    out.set(
        "stream.flush_p99_ms",
        common::quantile(&timed.flush_push_s, 0.99) * 1e3,
    );
    out.set(
        "stream.windows_per_flush",
        timed.flush_windows.iter().sum::<usize>() as f64 / flushes,
    );
    out.set(
        "stream.expired_flush_share",
        timed.flush_windows.iter().filter(|&&n| n < BATCH).count() as f64 / flushes,
    );
    out.set(
        "stream.p99_ms",
        common::quantile(&base.latencies, 0.99) * 1e3,
    );
    out.set("gen.late_max_ms", base.late_max_s * 1e3);
    out.set(
        "trace.coverage",
        after.top_level_ns_since(&before) as f64 / (block_s(&traced_rates) * 1e9),
    );
    out.set(
        "trace.overhead_pct",
        common::pct_over(capacity, common::median(&traced_rates)),
    );
    out.set(
        "obs.overhead_pct",
        common::pct_over(common::median(&off_rates), capacity),
    );
    out.set(
        "par.cpu_util",
        cpu_s / (block_s(&base_rates) * sys::nproc() as f64),
    );
    out.set("par.speedup_1t", capacity / child.throughput_per_s);
    eprintln!(
        "stream (traced): {} open-loop windows for p99, {} timed flushes",
        base.latencies.len(),
        timed.flush_windows.len()
    );
    out.set("proc.peak_rss_mb", sys::peak_rss_mb());
    crate::write_trace(ctx, args)?;
    Ok(out)
}
