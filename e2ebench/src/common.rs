//! Shared plumbing: arguments, results, seeds, summary statistics, the
//! timed job loop and the single-thread child run.

use crate::trace;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase; fractional values are accepted so a
    /// traced run can hand its single-thread child a share of its time.
    pub seconds: f64,
    pub trace: bool,
    /// Rewrite the golden files from this run instead of checking them.
    pub bless: bool,
}

/// Where the benchmark reads its golden files and writes scratch state.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Root of the checkout (the parent of the benchmark's directory).
    pub root: PathBuf,
    /// `e2ebench/golden`.
    pub golden: PathBuf,
    /// Scratch directory for model stores and trace exports, inside the
    /// cargo target directory.
    pub work: PathBuf,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Metric name → value (units come from the tables in `metrics.rs`).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Counts `n` attempted items, all failed unless `ok`.
    pub fn tally(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }
}

/// Data seed of every workload's beats (`Fig3Config::default()`'s): the
/// cost of a job depends on which beats were drawn, so the beats are the
/// same on every run and `--seed` draws only the splits, keeping
/// run-to-run spread down.
pub const DATA_SEED: u64 = 2020;

/// Split seed of the golden results (`Fig3Config::default()`'s).
pub const GOLDEN_SPLIT_SEED: u64 = 38;

/// SplitMix64 step: derives independent seeds for the parts of a
/// workload from the one seed the run is given.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A base seed that leaves room for `base + repetition` without overflow.
pub fn base_seed(seed: u64, stream: u64) -> u64 {
    mix(seed, stream) >> 16
}

/// FNV-1a over the bit patterns of `values`.
pub fn hash_f64s(values: &[f64]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Nearest-rank quantile of `values` (`q` in `[0, 1]`); `NaN` if empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Runs `job` repeatedly until `budget_s` seconds have passed, at least
/// `min_jobs` times. `job(i)` returns its own measured latency in seconds
/// (so per-job checks and cleanup can stay outside the timing). Returns
/// the latencies.
pub fn timed_jobs(budget_s: f64, min_jobs: usize, mut job: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut lat = Vec::new();
    while lat.len() < min_jobs || start.elapsed().as_secs_f64() < budget_s {
        lat.push(job(lat.len()));
    }
    lat
}

/// Runs `job(mode, round)` for `mode` = 0, 1, …, N−1 in rotation until
/// `budget_s` seconds have passed (at least one full round) and returns
/// each mode's latencies. Interleaving the modes keeps slow drift of the
/// machine out of the comparison between them.
pub fn rotate_jobs<const N: usize>(
    budget_s: f64,
    mut job: impl FnMut(usize, usize) -> f64,
) -> [Vec<f64>; N] {
    let start = Instant::now();
    let mut lat: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    let mut round = 0;
    while round == 0 || start.elapsed().as_secs_f64() < budget_s {
        for (mode, l) in lat.iter_mut().enumerate() {
            l.push(job(mode, round));
        }
        round += 1;
    }
    lat
}

/// Set-up times sampled across a run: `setup_s` is their median.
///
/// A run times a few set-ups before its jobs and then one more each
/// second between jobs, so the median sees the same machine as the jobs
/// do instead of only its first moments.
pub struct SetupTimes {
    times: Vec<f64>,
    next: Instant,
}

impl SetupTimes {
    /// Times `n` set-ups back to back and returns the last one's result.
    pub fn first<T>(
        n: usize,
        mut setup: impl FnMut() -> Result<T, String>,
    ) -> Result<(Self, T), String> {
        let mut st = SetupTimes {
            times: Vec::new(),
            next: Instant::now(),
        };
        let mut last = None;
        for _ in 0..n.max(1) {
            last = Some(st.time(&mut setup)?);
        }
        Ok((st, last.expect("at least one set-up")))
    }

    fn time<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t = Instant::now();
        let value = setup()?;
        self.times.push(t.elapsed().as_secs_f64());
        self.next = Instant::now() + std::time::Duration::from_secs(1);
        Ok(value)
    }

    /// Times one more set-up (discarding its result) if a second has
    /// passed since the last.
    pub fn tick<T>(&mut self, setup: impl FnOnce() -> Result<T, String>) -> Result<(), String> {
        if Instant::now() >= self.next {
            self.time(setup)?;
        }
        Ok(())
    }

    pub fn median(&self) -> f64 {
        median(&self.times)
    }
}

/// Result of the same workload run in a child process with a one-thread
/// global pool (`MFOD_THREADS=1`).
pub struct ChildRun {
    pub correct: bool,
    pub throughput_per_s: f64,
}

/// Runs this binary untraced on `args.workload` with `MFOD_THREADS=1` for
/// `seconds`, waits for it and reads its result line.
pub fn single_thread_child(args: &Args, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            &args.workload,
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &format!("{seconds}"),
            "--trace",
            "0",
        ])
        .env(mfod::linalg::par::THREADS_ENV, "1")
        .output()
        .map_err(|e| format!("spawning the single-thread run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!(
            "single-thread run exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let throughput = last
        .split("\"throughput_per_s\":{\"value\":")
        .nth(1)
        .and_then(|rest| rest.split([',', '}']).next())
        .and_then(|v| v.parse::<f64>().ok())
        .ok_or_else(|| format!("no throughput in the single-thread result: {last}"))?;
    Ok(ChildRun {
        correct: last.contains("\"correct\":true"),
        throughput_per_s: throughput,
    })
}

/// Runs `n` set-ups with span recording on; returns the last set-up's
/// result and the span totals before and after.
pub fn traced_setups<T>(
    n: usize,
    setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, trace::Snapshot, trace::Snapshot), String> {
    trace::enable();
    let before = trace::snapshot();
    let value = SetupTimes::first(n, setup).map(|(_, v)| v);
    let after = trace::snapshot();
    trace::disable();
    Ok((value?, before, after))
}

/// The per-layer metrics of a traced run whose jobs rotated untraced,
/// traced and telemetry-enabled (latencies in seconds): coverage and
/// overheads from the medians, CPU use of the untraced jobs, and the
/// speed-up over the single-thread child at `items` per job.
pub fn set_rotation_metrics(
    out: &mut Outcome,
    [base, traced, obs]: &[Vec<f64>; 3],
    covered_ns: u64,
    cpu_s: f64,
    items: f64,
    child: &ChildRun,
) {
    let base_med = median(base);
    out.set(
        "trace.coverage",
        covered_ns as f64 / (traced.iter().sum::<f64>() * 1e9),
    );
    out.set("trace.overhead_pct", pct_over(median(traced), base_med));
    out.set("obs.overhead_pct", pct_over(median(obs), base_med));
    out.set(
        "par.cpu_util",
        cpu_s / (base.iter().sum::<f64>() * crate::sys::nproc() as f64),
    );
    out.set("par.speedup_1t", items / base_med / child.throughput_per_s);
}

/// `numer / denom − 1` in percent.
pub fn pct_over(numer: f64, denom: f64) -> f64 {
    (numer / denom - 1.0) * 100.0
}
