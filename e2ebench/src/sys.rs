//! Process resource usage and a description of the machine the run is on.

use std::process::Command;

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

const RUSAGE_SELF: i32 = 0;

fn rusage() -> Rusage {
    let mut r = Rusage::default();
    // SAFETY: `r` is a properly sized, writable `struct rusage`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage failed");
    r
}

/// User plus system CPU time of this process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let r = rusage();
    let t = |tv: &Timeval| tv.tv_sec as f64 + tv.tv_usec as f64 * 1e-6;
    t(&r.ru_utime) + t(&r.ru_stime)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    rusage().ru_maxrss as f64 / 1024.0
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn first_line_of(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8_lossy(&out.stdout);
    text.lines().next().map(|l| l.trim().to_string())
}

/// HEAD of the git repository whose top level is `root`, if there is one
/// (a checkout nested in some other repository reports none).
fn git_commit(root: &std::path::Path) -> Option<String> {
    let root_arg = root.to_string_lossy();
    let top = first_line_of("git", &["-C", &root_arg, "rev-parse", "--show-toplevel"])?;
    if std::fs::canonicalize(top).ok()? != std::fs::canonicalize(root).ok()? {
        return None;
    }
    first_line_of("git", &["-C", &root_arg, "rev-parse", "HEAD"])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// FNV-1a over the workspace sources (`crates/**`, the root manifest and
/// lock file) in path order: identifies the measured program even where
/// the checkout is not a git repository.
fn source_fingerprint(root: &std::path::Path) -> String {
    fn walk(dir: &std::path::Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![root.join("Cargo.toml"), root.join("Cargo.lock")];
    walk(&root.join("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in &files {
        let Ok(bytes) = std::fs::read(path) else {
            continue;
        };
        let rel = path.strip_prefix(root).unwrap_or(path);
        for b in rel.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// One JSON line describing the machine, toolchain and program version.
pub fn box_json(root: &std::path::Path, workload: &str, seed: u64) -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let fields = [
        ("workload", json_str(workload)),
        ("seed", seed.to_string()),
        ("nproc", nproc().to_string()),
        (
            "pool_threads",
            mfod::linalg::par::configured_threads().to_string(),
        ),
        ("cpu_model", json_str(&cpu_model())),
        (
            "rustc",
            json_str(&first_line_of(&rustc, &["--version"]).unwrap_or_else(|| "unknown".into())),
        ),
        (
            "git_commit",
            json_str(&git_commit(root).unwrap_or_else(|| "none".into())),
        ),
        ("source_fnv", json_str(&source_fingerprint(root))),
    ];
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    format!("{{\"box\":{{{}}}}}", body.join(","))
}
