//! The repository benchmark: the paper's sync and Round-Time workloads
//! on the events engine, with correctness checks, end-to-end metrics and
//! a traced per-layer breakdown. See `README.md` next to this package.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out FILE]
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --compare OLD.jsonl NEW.jsonl
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --manifest > BENCHMARK.json
//! ```
//!
//! One workload prints its metadata, every figure by name with its
//! unit, and as its last line the result as one JSON object. It exits
//! non-zero when a correctness check fails.

mod host;
mod json;
mod metrics;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use hcs_bench::sweep::run_seed;

use json::Json;
use metrics::{END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};
use report::Ledger;
use workloads::{Iteration, Kind};

/// Setup probes taken before the first and after every iteration;
/// `setup_s` is the median of all of them, so it samples the whole run
/// rather than one moment of it.
const SETUP_PROBES: usize = 15;
/// A run that is still going after this long is stopped: the whole run
/// must end within three minutes.
const RUN_LIMIT: Duration = Duration::from_secs(170);
/// An iteration process stops itself after this long. No iteration
/// process starts later than this before `RUN_LIMIT`, so none outlives
/// the run that started it.
const ITERATION_LIMIT: Duration = Duration::from_secs(60);

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    runs: u64,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    manifest: bool,
    /// Run one untraced iteration and report it (the process a measured
    /// run starts per iteration).
    iteration_process: bool,
}

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--runs N] [--out FILE]
       perfbench --compare OLD.jsonl NEW.jsonl
       perfbench --manifest";

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        runs: 1,
        out: None,
        compare: None,
        manifest: false,
        iteration_process: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |f: &str| it.next().ok_or(format!("{f} needs a value"));
        let num = |f: &str, v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{f}: {v:?} is no whole number"))
        };
        match flag.as_str() {
            "--workload" => a.workload = Some(val("--workload")?),
            "--seed" => a.seed = num("--seed", val("--seed")?)?,
            "--seconds" => a.seconds = num("--seconds", val("--seconds")?)?,
            "--runs" => a.runs = num("--runs", val("--runs")?)?.max(1),
            "--trace" => {
                a.trace = match val("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => a.out = Some(val("--out")?.into()),
            "--compare" => a.compare = Some((val("--compare")?.into(), val("--compare")?.into())),
            "--manifest" => a.manifest = true,
            "--iteration-process" => a.iteration_process = true,
            "--help" | "-h" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.manifest {
        print!("{}", metrics::manifest().pretty());
        return ExitCode::SUCCESS;
    }
    if let Some((old, new)) = &args.compare {
        return compare(old, new);
    }
    match args.workload.as_deref() {
        Some("all") => run_all(&args),
        Some(name) => match Kind::parse(name) {
            Some(kind) if args.iteration_process => run_iteration_process(kind, args.seed),
            Some(kind) => run_workload(kind, args.seed, args.seconds, args.trace),
            None => {
                eprintln!(
                    "unknown workload {name:?}; one of: all, {}",
                    WORKLOADS.iter().map(|w| w.0).collect::<Vec<_>>().join(", ")
                );
                ExitCode::from(2)
            }
        },
        None => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn print_figure(workload: &str, name: &str, value: f64, unit: &str) {
    println!("{workload:<20} {name:<26} {value:>18.6} {unit}");
}

/// Selects the events engine, so that it stays selected once it is the
/// only engine, and stops the process once it has run for `limit`.
fn start_process(limit: Duration) {
    std::env::set_var("HCS_ENGINE", "events");
    // Deliberately never joined: it only ever ends the process.
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("perfbench: run exceeded {} s; stopping", limit.as_secs());
        std::process::exit(3);
    });
}

/// One untraced iteration in a fresh process: its results and the
/// process's peak memory, as one JSON line.
fn run_iteration_process(kind: Kind, seed: u64) -> ExitCode {
    start_process(ITERATION_LIMIT);
    let it = workloads::iteration(kind, seed, false, 0);
    println!(
        "{}",
        Json::obj([
            ("rss_mb", Json::Num(host::peak_rss_mb())),
            ("iteration", it.to_json())
        ])
    );
    ExitCode::SUCCESS
}

/// Runs one untraced iteration of `kind` in its own process. Peak memory
/// only ever rises within a process, so each iteration gets a fresh one:
/// its `VmHWM` is what a user running the workload once sees.
fn iteration_in_process(kind: Kind, seed: u64, run_start: Instant) -> (Iteration, f64) {
    let failed = |why: String| {
        let run = workloads::RunOut {
            label: "iteration process".into(),
            failed: Some(why),
            ..Default::default()
        };
        (
            Iteration {
                runs: vec![run],
                ..Default::default()
            },
            f64::NAN,
        )
    };
    if run_start.elapsed() + ITERATION_LIMIT + Duration::from_secs(5) > RUN_LIMIT {
        return failed("no time left in the run for another iteration".into());
    }
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => return failed(format!("cannot find this executable: {e}")),
    };
    let out = Command::new(exe)
        .args([
            "--iteration-process",
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output();
    let out = match out {
        Ok(o) if o.status.success() => o,
        Ok(o) => return failed(format!("iteration process exited with {}", o.status)),
        Err(e) => return failed(format!("cannot start an iteration process: {e}")),
    };
    let text = String::from_utf8_lossy(&out.stdout);
    let parsed = text.lines().last().and_then(|l| json::parse(l).ok());
    let it = parsed
        .as_ref()
        .and_then(|j| Iteration::from_json(j.get("iteration")?));
    let rss = parsed.as_ref().and_then(|j| j.get("rss_mb")?.as_f64());
    match (it, rss) {
        (Some(it), Some(rss)) => (it, rss),
        _ => failed("iteration process printed no result".into()),
    }
}

/// Runs one workload and prints its result.
fn run_workload(kind: Kind, seed: u64, seconds: u64, traced: bool) -> ExitCode {
    let run_start = Instant::now();
    start_process(RUN_LIMIT);
    let name = kind.name();
    println!("# meta {}", host::meta(name, seed, seconds, traced));

    let mut ledger = Ledger::default();
    let mut setup = Vec::new();
    let probe = |setup: &mut Vec<f64>| {
        setup.extend((0..SETUP_PROBES).map(|_| workloads::setup_probe(kind, run_seed(seed, 0))))
    };
    probe(&mut setup);

    let mut next_id = 0u32;
    let mut iterate = |traced: bool| {
        let it = workloads::iteration(kind, seed, traced, next_id);
        next_id += it.runs.len() as u32;
        it
    };
    let mut baseline = traced.then(|| iterate(false));
    let mut iters: Vec<Iteration> = Vec::new();
    let mut rss = Vec::new();
    for _ in 0..kind.iterations(seconds) {
        if traced {
            iters.push(iterate(true));
        } else {
            let (it, mb) = iteration_in_process(kind, seed, run_start);
            iters.push(it);
            rss.push(mb);
        }
        probe(&mut setup);
    }

    let (reference, what) = match kind {
        Kind::Fig5Sweep => match workloads::reference_rows(kind, seed) {
            Ok(rows) => {
                ledger.attempted += rows.len() as u64;
                (Some(rows), "run_hier_experiment")
            }
            Err(e) => {
                ledger.attempted += 1;
                ledger.failed += 1;
                ledger.notes.push(e);
                (None, "")
            }
        },
        Kind::ObservedRoundTime => {
            let r = workloads::unobserved_reference(seed);
            ledger.book("obs-off reference", std::slice::from_ref(&r));
            (
                r.failed.is_none().then(|| vec![r.digest]),
                "the obs-off run",
            )
        }
        _ => (None, ""),
    };
    if let Some(b) = baseline.as_mut() {
        report::check(kind, b, reference.as_deref(), None, what);
        ledger.book("untraced baseline", &b.runs);
    }
    for i in 0..iters.len() {
        let (done, rest) = iters.split_at_mut(i);
        report::check(
            kind,
            &mut rest[0],
            reference.as_deref(),
            baseline.as_ref().or(done.first()),
            what,
        );
        ledger.book(if traced { "traced" } else { "measured" }, &rest[0].runs);
    }

    let untraced = baseline
        .as_ref()
        .map_or(iters.as_slice(), std::slice::from_ref);
    let figures = report::e2e_figures(kind, &setup, untraced, &ledger, stats::median(&rss));
    println!(
        "# {} iteration(s), {} mpirun(s) attempted, {} failed",
        iters.len(),
        ledger.attempted,
        ledger.failed
    );
    let walls: Vec<String> = iters
        .iter()
        .map(|it| format!("{:.3}", it.wall_s()))
        .collect();
    println!("# iteration wall s: {}", walls.join(" "));
    for (n, v, u) in &figures {
        print_figure(name, n, *v, u);
    }
    for note in &ledger.notes {
        println!("# FAILED {note}");
    }

    let metrics: Vec<(&str, Json)> = if traced {
        let layers = report::traced_figures(
            &iters,
            baseline.as_ref().expect("traced runs have a baseline"),
        );
        for m in PER_LAYER {
            print_figure(name, m.name, layers[m.name], m.unit);
        }
        let path =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/spans-{name}-seed{seed}.tsv"));
        match trace::write_spans(
            &path,
            iters
                .iter()
                .flat_map(|it| it.runs.iter().filter_map(|r| r.trace.as_ref())),
        ) {
            Ok(()) => println!("# spans written to {}", path.display()),
            Err(e) => println!("# spans not written to {}: {e}", path.display()),
        }
        PER_LAYER
            .iter()
            .map(|m| (m.name, metric_json(layers[m.name], m.unit)))
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| {
                let v = figures
                    .iter()
                    .find(|f| f.0 == m.name)
                    .map_or(f64::NAN, |f| f.1);
                (m.name, metric_json(v, m.unit))
            })
            .collect()
    };
    let correct = ledger.failed == 0;
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(ledger.attempted as f64)),
        ("failed", Json::Num(ledger.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn metric_json(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Runs every workload, each in its own process (peak memory only ever
/// rises within a process), `--runs` times with consecutive seeds, and
/// appends each result with its metadata to `--out` as one JSON line.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut out = match &args.out {
        Some(p) => match std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(p)
        {
            Ok(f) => Some(f),
            Err(e) => {
                eprintln!("cannot open {}: {e}", p.display());
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    let mut ok = true;
    for run in 0..args.runs {
        let seed = args.seed + run;
        for (name, _) in WORKLOADS {
            let trace = if args.trace { "1" } else { "0" };
            let child = Command::new(&exe)
                .args([
                    "--workload",
                    name,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &args.seconds.to_string(),
                    "--trace",
                    trace,
                ])
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output();
            let child = match child {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("cannot run {name}: {e}");
                    ok = false;
                    continue;
                }
            };
            let text = String::from_utf8_lossy(&child.stdout);
            print!("{text}");
            let result = text.lines().last().and_then(|l| json::parse(l).ok());
            let meta = text
                .lines()
                .find_map(|l| l.strip_prefix("# meta "))
                .and_then(|m| json::parse(m).ok());
            let correct = result
                .as_ref()
                .and_then(|r| r.get("correct"))
                .and_then(Json::as_bool)
                == Some(true);
            ok &= child.status.success() && correct;
            if let (Some(f), Some(result)) = (out.as_mut(), result) {
                let line = Json::obj([
                    ("workload", Json::str(*name)),
                    ("seed", Json::Num(seed as f64)),
                    ("meta", meta.unwrap_or(Json::Null)),
                    ("result", result),
                ]);
                if let Err(e) = writeln!(f, "{line}") {
                    eprintln!("cannot append to the result set: {e}");
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Values per `(workload, metric)` of a result set written by `--out`.
fn load_set(path: &Path) -> Result<BTreeMap<(String, String), Vec<f64>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))?;
        let workload = rec.get("workload").and_then(Json::as_str).ok_or(format!(
            "{}:{}: no workload",
            path.display(),
            i + 1
        ))?;
        let metrics = rec
            .get("result")
            .and_then(|r| r.get("metrics"))
            .map_or(&[][..], Json::entries);
        for (name, m) in metrics {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                out.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(out)
}

/// Prints, per workload and metric, both sets' median and quartiles and
/// whether the difference exceeds the metric's bound. Exits non-zero
/// when a metric regressed.
fn compare(old: &Path, new: &Path) -> ExitCode {
    let (a, b) = match (load_set(old), load_set(new)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "{:<20} {:<26} {:>6} {:>36} {:>36} {:>8} {:>6} verdict",
        "workload",
        "metric",
        "unit",
        "old median [q1, q3] (n)",
        "new median [q1, q3] (n)",
        "worse",
        "bound"
    );
    let fmt = |xs: &[f64]| {
        let [q1, q2, q3] = stats::quartiles(xs);
        format!("{q2:.5} [{q1:.5}, {q3:.5}] ({})", xs.len())
    };
    let mut regressed = false;
    for (w, _) in WORKLOADS {
        for m in END_TO_END.iter().chain(PER_LAYER) {
            let key = (w.to_string(), m.name.to_string());
            let (Some(xa), Some(xb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let v = stats::verdict(xa, xb, m.lower_is_better, m.bound);
            regressed |= v == stats::Verdict::Regressed;
            println!(
                "{:<20} {:<26} {:>6} {:>36} {:>36} {:>7.1}% {:>6} {}",
                w,
                m.name,
                m.unit,
                fmt(xa),
                fmt(xb),
                100.0 * stats::worse_by(xa, xb, m.lower_is_better),
                m.bound.map_or("-".into(), |b| format!("{b}")),
                v.label()
            );
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
