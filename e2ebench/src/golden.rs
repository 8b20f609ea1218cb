//! Golden results checked in under `e2ebench/golden/<workload>.txt`.
//!
//! A golden file is a list of result lines (bit patterns of the outputs at
//! the golden seed) plus `#` comment lines that record what the numbers
//! mean. A run compares its result lines with the file's, in order and
//! bit for bit; comments are ignored. `--bless` rewrites the file.

use crate::common::Ctx;

/// Compares `lines` with the golden file of `workload` (or writes it when
/// `bless`). Returns whether they agree; a disagreement is reported on
/// standard error with the first differing line.
pub fn check(
    ctx: &Ctx,
    workload: &str,
    lines: &[String],
    comments: &[String],
    bless: bool,
) -> Result<bool, String> {
    let path = ctx.golden.join(format!("{workload}.txt"));
    if bless {
        let mut text = String::new();
        for c in comments {
            text.push_str("# ");
            text.push_str(c);
            text.push('\n');
        }
        for l in lines {
            text.push_str(l);
            text.push('\n');
        }
        std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("golden: wrote {}", path.display());
        return Ok(true);
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let want: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if want.len() != lines.len() {
        eprintln!(
            "golden {workload}: {} result lines, golden file has {}",
            lines.len(),
            want.len()
        );
        return Ok(false);
    }
    for (got, want) in lines.iter().zip(&want) {
        if got != want {
            eprintln!("golden {workload}: got `{got}`, golden `{want}`");
            return Ok(false);
        }
    }
    Ok(true)
}
