//! Where and how a result was measured.

use crate::json::Json;

/// Host cores this process may use (the sweep executor's view, which
/// is the workspace's one sanctioned place to ask the host).
pub fn nproc() -> usize {
    hcs_bench::sweep::auto_jobs(1)
}

/// Event-engine worker count: `HCS_EVENT_WORKERS` if set, else the
/// engine's default of `min(nproc, 4)`.
pub fn event_workers() -> usize {
    std::env::var("HCS_EVENT_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map_or_else(|| nproc().min(4), |n| n.clamp(1, 64))
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` next to
/// the benchmark's directory; `unknown` outside a git checkout.
pub fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&git.join(reference))
        .or_else(|| {
            read(&git.join("packed-refs"))?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The run's metadata, printed with every result.
pub fn meta(workload: &str, seed: u64, seconds: u64, trace: bool) -> Json {
    Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds as f64)),
        ("trace", Json::Bool(trace)),
        ("nproc", Json::Num(nproc() as f64)),
        (
            "engine",
            Json::str(std::env::var("HCS_ENGINE").unwrap_or_default()),
        ),
        ("event_workers", Json::Num(event_workers() as f64)),
        ("sweep_jobs", Json::Num(1.0)),
        ("git_rev", Json::str(git_revision())),
    ])
}
