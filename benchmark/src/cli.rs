//! The command line: one workload per process (`--workload`), the A/A
//! self-check (`--aa`), and `--emit-spec`.

use crate::json::{self, Json};
use crate::spec::{self, Better, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{median, Recorder};
use crate::sys;
use crate::trace::Tracer;
use crate::workloads::{self, Ctx};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: rsched-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out-dir DIR]
       rsched-benchmark --aa [--runs N] [--seed N] [--seconds S] [--quick]
       rsched-benchmark --emit-spec

  --workload  mis_sparse | delaunay_uniform | sssp_gnm | service_conn
  --seed      every input is generated from it (default 1)
  --seconds   length of the measurement window (default: run_seconds of BENCHMARK.json; 1 with --quick)
  --trace     0: end-to-end metrics, nothing wrapped (default); 1: per-layer metrics + chrome trace
  --quick     sizes that finish in seconds (for the package's own test)
  --out-dir   where the chrome trace goes (default benchmark/out)
  --aa        run every workload twice over on this build and compare the end-to-end medians
  --runs      runs per workload and side in --aa mode (default 1)
  --emit-spec print BENCHMARK.json as generated from src/spec.rs";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out_dir: PathBuf,
    aa: bool,
    runs: usize,
    emit_spec: bool,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: None,
        traced: false,
        quick: false,
        out_dir: PathBuf::from("benchmark/out"),
        aa: false,
        runs: 1,
        emit_spec: false,
    };
    let mut argv = argv.skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("{flag}: cannot read `{v}`");
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => {
                let s: f64 = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                a.seconds = Some(s);
            }
            "--trace" => {
                a.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--runs" => {
                a.runs = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?;
                if !(1..=100).contains(&a.runs) {
                    return Err("--runs must be in 1..=100".into());
                }
            }
            "--out-dir" => a.out_dir = PathBuf::from(value()?),
            "--quick" => a.quick = true,
            "--aa" => a.aa = true,
            "--emit-spec" => a.emit_spec = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

pub fn main() -> ExitCode {
    let args = match parse_args(std::env::args()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if rsched_obs::ENABLED {
        // The probes cost 2.8-6x on the relaxed path when compiled in
        // (ROADMAP aim 4): numbers taken with them are not this benchmark's.
        eprintln!("built with the `obs` feature on: refusing to measure");
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or(if args.quick { 1.0 } else { spec::RUN_SECONDS as f64 });
    if args.emit_spec {
        print!("{}", spec::benchmark_json().render_pretty());
        ExitCode::SUCCESS
    } else if args.aa {
        aa(&args, seconds)
    } else if let Some(workload) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == workload) {
            eprintln!("unknown workload `{workload}`\n{USAGE}");
            return ExitCode::from(2);
        }
        run_one(workload, &args, seconds)
    } else {
        eprintln!("{USAGE}");
        ExitCode::from(2)
    }
}

/// Runs one workload in this process and prints its result; the last line
/// of standard output is the driver's result object.
fn run_one(workload: &str, args: &Args, seconds: f64) -> ExitCode {
    let header = sys::header(workload, args.seed, seconds, args.traced, args.quick);
    println!("header {}", header.render());

    let mut rec = Recorder::default();
    let tracer = args.traced.then(Tracer::new);
    let mut ctx = Ctx { seed: args.seed, seconds, quick: args.quick, rec: &mut rec };
    match workload {
        "mis_sparse" => workloads::mis::run(&mut ctx, tracer.as_ref()),
        "delaunay_uniform" => workloads::delaunay::run(&mut ctx, tracer.as_ref()),
        "sssp_gnm" => workloads::sssp::run(&mut ctx, tracer.as_ref()),
        "service_conn" => workloads::service::run(&mut ctx, tracer.as_ref()),
        _ => unreachable!("workload names are checked by the caller"),
    }

    let mut trace_file = None;
    if let Some(tracer) = &tracer {
        let path = args.out_dir.join(format!("{workload}.trace.json"));
        if let Err(e) = write_file(&path, &tracer.chrome_trace().render()) {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        trace_file = Some(path);
    } else {
        let speedup = rec.value("seq_s") / rec.value("solve_s");
        rec.sample("speedup_vs_seq", speedup);
    }

    // (name, unit, what to print beside it) of the metrics of this mode.
    let listed: Vec<(&str, &str, String)> = if args.traced {
        PER_LAYER.iter().map(|m| (m.name, m.unit, String::new())).collect()
    } else {
        END_TO_END
            .iter()
            .map(|m| (m.name, m.unit, format!("bound {:.0}%", m.bound * 100.0)))
            .collect()
    };
    let mut metrics = Vec::new();
    let mut detailed = Vec::new();
    for (name, unit, note) in &listed {
        let measured = rec.get(name);
        if measured.is_none() && !args.traced {
            eprintln!("end-to-end metric {name} was not measured");
            return ExitCode::FAILURE;
        }
        // A per-layer metric the workload does not have reads 0 (README).
        let (value, samples, q1, q3) =
            measured.map_or((0.0, 0, 0.0, 0.0), |m| (m.value, m.samples, m.q1, m.q3));
        let shown = if samples == 0 { "n/a".into() } else { format!("{value:.6}") };
        println!("  {name:<44} {shown:>16} {unit:<11} n={samples:<4} q1 {q1:.6} q3 {q3:.6} {note}");
        let entry = [("value", Json::Num(value)), ("unit", Json::str(*unit))];
        metrics.push((name.to_string(), Json::obj(entry.clone())));
        let spread =
            [("samples", samples as f64), ("q1", q1), ("q3", q3)].map(|(k, v)| (k, Json::Num(v)));
        detailed.push((name.to_string(), Json::obj(entry.into_iter().chain(spread))));
    }
    let failed_share = rec.failed as f64 / rec.attempted.max(1) as f64;
    println!(
        "  ops_attempted={} ops_failed={} ops_failed_share={failed_share}",
        rec.attempted, rec.failed
    );

    let correct = rec.failed == 0 && rec.attempted > 0;
    let tally = [
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(rec.attempted as f64)),
        ("failed", Json::Num(rec.failed as f64)),
    ];
    let raw = rec
        .all_samples()
        .map(|(name, xs)| (name, Json::Arr(xs.iter().map(|&x| Json::Num(x)).collect())));
    let summary = Json::obj(
        [("header", header), ("metrics", Json::Obj(detailed)), ("samples", Json::obj(raw))]
            .into_iter()
            .chain(tally.clone())
            .chain([
                ("ops_failed_share", Json::Num(failed_share)),
                (
                    "trace_file",
                    trace_file.map_or(Json::Null, |p| Json::str(p.display().to_string())),
                ),
                ("claim", Json::Null),
            ]),
    );
    println!("summary {}", summary.render());
    println!("{}", Json::obj(tally.into_iter().chain([("metrics", Json::Obj(metrics))])).render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn write_file(path: &Path, text: &str) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Runs `workload` end to end in a child process (one process per workload,
/// so `peak_rss_mib` is the workload's own) and returns its result object.
fn run_child(workload: &str, seed: u64, seconds: f64, quick: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string(), "--seconds", &seconds.to_string()])
        .stderr(Stdio::inherit());
    if quick {
        cmd.arg("--quick");
    }
    let out = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() {
        return Err(format!("{workload} seed {seed}: exited with {} — {last}", out.status));
    }
    json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))
}

/// A/A: every workload, `--runs` runs a side, two sides, same seeds, same
/// build. Prints both medians and how much worse side B is than side A for
/// every end-to-end metric, and fails if any pair is further apart than the
/// metric's bound.
fn aa(args: &Args, seconds: f64) -> ExitCode {
    let mut worst: Vec<String> = Vec::new();
    println!(
        "A/A on one build: {} run(s) a side, seeds {}..{}, {seconds} s each, nproc {}",
        args.runs,
        args.seed,
        args.seed + args.runs as u64,
        sys::nproc()
    );
    for w in &WORKLOADS {
        // Sides alternate run by run, so slow drift of the machine lands
        // on both.
        let mut sides: [Vec<Json>; 2] = [Vec::new(), Vec::new()];
        for run in 0..args.runs {
            for side in [run % 2, 1 - run % 2] {
                match run_child(w.name, args.seed + run as u64, seconds, args.quick) {
                    Ok(result) => sides[side].push(result),
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        println!("{}", w.name);
        for m in &END_TO_END {
            let side_median = |side: &[Json]| {
                let values: Option<Vec<f64>> = side
                    .iter()
                    .map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                    .collect();
                values.map(|v| median(&v))
            };
            let (Some(a), Some(b)) = (side_median(&sides[0]), side_median(&sides[1])) else {
                eprintln!("{}: a run did not print {}", w.name, m.name);
                return ExitCode::FAILURE;
            };
            let worse = match m.better {
                Better::Lower => (b - a) / a,
                Better::Higher => (a - b) / a,
            };
            let verdict = if worse.abs() > m.bound { "APART" } else { "ok" };
            println!(
                "  {:<16} A {a:>14.6} B {b:>14.6} {:<6} B worse by {:>+7.2}% (bound {:.0}%) {verdict}",
                m.name,
                m.unit,
                worse * 100.0,
                m.bound * 100.0
            );
            if worse.abs() > m.bound {
                worst.push(format!("{} {}", w.name, m.name));
            }
        }
    }
    if worst.is_empty() {
        println!("A/A: every end-to-end metric agrees within its bound");
        ExitCode::SUCCESS
    } else {
        println!("A/A: apart by more than the bound: {}", worst.join(", "));
        ExitCode::FAILURE
    }
}
