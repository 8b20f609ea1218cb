//! End-to-end benchmark of the mfod workspace.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <fig3|fit_score|stream> --seed <n> --seconds <s> --trace <0|1> [--bless]
//! ```
//!
//! Prints a line describing the machine, then one JSON result line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0` measures
//! the end-to-end metrics; `--trace 1` measures the per-layer metrics
//! (spans around the benchmark's calls into each layer, untraced and
//! telemetry-enabled jobs interleaved with the traced ones, and a
//! `MFOD_THREADS=1` child run) and writes the spans as Chrome trace-event
//! JSON. `--bless` rewrites the golden files
//! from this run. See `e2ebench/README.md`.

mod common;
mod fig3;
mod fit_score;
mod golden;
mod metrics;
mod recompose;
mod stream;
mod sys;
mod trace;

use common::{Args, Ctx, Outcome};
use std::path::{Path, PathBuf};

const WORKLOADS: &[&str] = &["fig3", "fit_score", "stream"];

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got {v}")),
                }
            }
            "--bless" => args.bless = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, got `{}`",
            args.workload
        ));
    }
    Ok(args)
}

fn context() -> Ctx {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| manifest.join("target"));
    Ctx {
        root: manifest.parent().unwrap_or(manifest).to_path_buf(),
        golden: manifest.join("golden"),
        work: target.join("e2ebench-work"),
    }
}

/// `BENCHMARK.json` must name every workload and metric this program
/// prints, so the two cannot drift apart.
fn check_benchmark_json(ctx: &Ctx) -> Result<(), String> {
    let path = ctx.root.join("BENCHMARK.json");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let compact: String = text.split_whitespace().collect();
    let names = WORKLOADS
        .iter()
        .chain(metrics::END_TO_END.iter().map(|(n, _)| n))
        .chain(metrics::PER_LAYER.iter().map(|(n, _)| n));
    for name in names {
        if !compact.contains(&format!("\"name\":\"{name}\"")) {
            return Err(format!("BENCHMARK.json does not list `{name}`"));
        }
    }
    Ok(())
}

/// Writes the recorded spans to the work directory (one file per
/// workload, replaced by each traced run).
pub fn write_trace(ctx: &Ctx, args: &Args) -> Result<(), String> {
    let path = ctx.work.join(format!("trace-{}.json", args.workload));
    let json = trace::chrome_trace_json(&[
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
    ]);
    std::fs::write(&path, json).map_err(|e| format!("writing {}: {e}", path.display()))?;
    eprintln!("trace: wrote {}", path.display());
    Ok(())
}

fn result_json(out: &Outcome, trace: bool) -> String {
    let table = if trace {
        metrics::PER_LAYER
    } else {
        metrics::END_TO_END
    };
    let mut attempted = out.attempted;
    let mut failed = out.failed;
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            // a layer the workload never enters measured nothing
            None if trace => 0.0,
            _ => {
                eprintln!("metric {name} was not measured");
                attempted += 1;
                failed += 1;
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        attempted.max(1),
        failed,
        fields.join(",")
    )
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let ctx = context();
    check_benchmark_json(&ctx)?;
    std::fs::create_dir_all(&ctx.work)
        .map_err(|e| format!("creating {}: {e}", ctx.work.display()))?;
    println!("{}", sys::box_json(&ctx.root, &args.workload, args.seed));
    let out = match args.workload.as_str() {
        "fig3" => fig3::run(&ctx, &args)?,
        "fit_score" => fit_score::run(&ctx, &args)?,
        _ => stream::run(&ctx, &args)?,
    };
    for (name, value) in &out.metrics {
        eprintln!("  {name:<28} {value:.6}");
    }
    Ok(result_json(&out, args.trace))
}

fn main() {
    match run() {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
