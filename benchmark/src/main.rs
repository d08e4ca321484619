//! `frappe-e2e` — the paper's query mix over the real socket against a
//! kernel-scale mapped snapshot. See `benchmark/README.md`.
//!
//! ```text
//! frappe-e2e --server-bin PATH [--workload W] [--seed N] [--seconds S]
//!            [--trace 0|1] [--reps R] [--quick] [--out DIR]
//! frappe-e2e compare A.json B.json
//! frappe-e2e manifest
//! ```
//!
//! With `--trace` (the driver's contract) one workload runs once and the last
//! line of standard output is the result object. Without it, every selected
//! workload runs `--reps` untraced windows and one traced pass, and
//! `BENCH_e2e.json` collects all of them.

mod client;
mod compare;
mod config;
mod json;
mod layers;
mod metrics;
mod oracle;
mod requests;
mod server;
mod session;
mod setup;
mod stats;
mod trace;

use config::{Profile, Workload};
use json::{escape, num, Json};
use metrics::{end_to_end, per_layer, Spec, RUN_SECONDS};
use session::{Run, Session};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

struct Args {
    server_bin: Option<PathBuf>,
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: Option<bool>,
    reps: usize,
    quick: bool,
    out: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        server_bin: None,
        workload: None,
        seed: 1,
        seconds: f64::NAN,
        trace: None,
        reps: 1,
        quick: false,
        out: PathBuf::from("bench-results"),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--server-bin" => args.server_bin = Some(PathBuf::from(value()?)),
            "--workload" => {
                let v = value()?;
                args.workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                args.seconds = value()?
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--trace" => {
                args.trace = Some(match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                });
            }
            "--reps" => {
                args.reps = value()?
                    .parse::<usize>()
                    .ok()
                    .filter(|r| (1..=100).contains(r))
                    .ok_or("--reps needs an integer in 1..=100")?;
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds.is_nan() {
        args.seconds = if args.quick {
            1.0
        } else {
            f64::from(RUN_SECONDS)
        };
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs --workload".into());
    }
    Ok(args)
}

/// Progress to stderr, stamped with seconds since the driver started, so the
/// time a run spends outside its window is visible.
pub fn progress(what: &str) {
    static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
    let t = START.get_or_init(std::time::Instant::now).elapsed();
    eprintln!("[{:7.2}s] {what}", t.as_secs_f64());
}

/// The scratch directory (snapshot, addr-files, child stderr); removed on
/// every exit path that unwinds.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
}

/// The environment block every `BENCH_e2e.json` records.
fn env_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "{{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {}, \"cpu_model\": \"{}\", \
         \"child_flags\": [\"--snapshot\", \"F\", \"--listen\", \"127.0.0.1:0\", \"--metrics\", \
         \"127.0.0.1:0\", \"--addr-file\", \"A\"], \"page_cache\": \"warm (process-cold, not disk-cold)\"}}",
        escape(&command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".into())),
        escape(&command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into())),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        escape(&cpu),
    )
}

fn specs_for(trace: bool) -> Vec<Spec> {
    if trace {
        per_layer()
    } else {
        end_to_end().into_iter().map(|(s, _)| s).collect()
    }
}

/// The contract's result object: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
fn result_line(run: &Run) -> Result<String, String> {
    let specs = specs_for(run.trace);
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        run.correct,
        run.attempted,
        run.failed,
        run.metrics.to_json(&specs)?
    ))
}

fn run_json(run: &Run) -> Result<String, String> {
    let specs = specs_for(run.trace);
    let notes: Vec<String> = run
        .notes
        .iter()
        .map(|n| format!("\"{}\"", escape(n)))
        .collect();
    Ok(format!(
        "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"samples\": {}, \"metrics\": {}, \"notes\": [{}]}}",
        run.workload.name(),
        run.trace,
        run.seed,
        num(run.seconds),
        run.correct,
        run.attempted,
        run.failed,
        run.samples,
        run.metrics.to_json(&specs)?,
        notes.join(", ")
    ))
}

fn print_run(run: &Run) {
    let specs = specs_for(run.trace);
    println!(
        "== {} · seed {} · {} s window · {} · tail p{} ==",
        run.workload.name(),
        run.seed,
        run.seconds,
        if run.trace { "traced pass" } else { "untraced" },
        run.workload.tail() * 100.0
    );
    print!("{}", run.metrics.to_table(&specs));
    println!(
        "  attempted {} · failed {} · latency samples {} · correct {}",
        run.attempted, run.failed, run.samples, run.correct
    );
    for note in &run.notes {
        println!("  note: {note}");
    }
}

fn write_bench_json(args: &Args, profile: &Profile, runs: &[Run]) -> Result<(), String> {
    let mut rendered = Vec::with_capacity(runs.len());
    for run in runs {
        rendered.push(format!("    {}", run_json(run)?));
    }
    let body = format!(
        "{{\n  \"schema\": \"frappe-e2e/1\",\n  \"measurement\": {},\n  \"env\": {},\n  \
         \"config\": {},\n  \"seed\": {},\n  \"reps\": {},\n  \"seconds\": {},\n  \"runs\": [\n{}\n  ],\n  \
         \"claim\": null\n}}\n",
        profile.measurement,
        env_json(),
        profile.to_json(),
        args.seed,
        args.reps,
        num(args.seconds),
        rendered.join(",\n")
    );
    let path = args.out.join("BENCH_e2e.json");
    std::fs::write(&path, body).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn benchmark(args: &Args) -> Result<bool, String> {
    let server_bin = args
        .server_bin
        .clone()
        .ok_or("--server-bin is required (benchmark/run.sh passes it)")?;
    if !server_bin.is_file() {
        return Err(format!("{} is not a file", server_bin.display()));
    }
    let profile = if args.quick {
        Profile::quick()
    } else {
        Profile::paper()
    };
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let workdir = WorkDir(args.out.join(format!("work-{}", std::process::id())));
    std::fs::create_dir_all(&workdir.0).map_err(|e| format!("{}: {e}", workdir.0.display()))?;

    // Set-up. Only a traced pass needs the freeze timing; a contract-mode
    // traced run reports no setup_s, so one repetition feeds its ledger.
    progress("set-up: generate, encode, write + fsync");
    let traced_only = args.trace == Some(true);
    let wants_trace = args.trace != Some(false);
    let tracer = trace::Tracer::new(wants_trace);
    let reps = if traced_only { 1 } else { profile.setup_reps };
    let setup = setup::run(&profile, reps, &workdir.0, wants_trace, &tracer)?;
    println!(
        "set-up: scale {} · {} nodes / {} edges · snapshot {:.1} MB · setup_s {:.3} (median of {}) · \
         OS page cache warm throughout (process-cold, not disk-cold)",
        profile.scale,
        setup.nodes,
        setup.edges,
        setup.snapshot_bytes as f64 / 1e6,
        setup.setup_s(),
        setup.reps.len()
    );
    progress("decoding the snapshot into the owned reference graph");
    let (owned, open_owned_ms) = setup::load_reference(&setup.snapshot, &tracer)?;
    let mut session = Session::new(
        profile.clone(),
        server_bin,
        workdir.0.clone(),
        args.out.clone(),
        setup,
        &owned,
        open_owned_ms,
        tracer,
    )?;

    let workloads: Vec<Workload> = match args.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    let mut runs = Vec::new();
    for &w in &workloads {
        if args.trace != Some(true) {
            for _ in 0..args.reps {
                let run = session.run_untraced(w, args.seed, args.seconds)?;
                print_run(&run);
                runs.push(run);
            }
        }
        if wants_trace {
            let run = session.run_traced(w, args.seed, args.seconds)?;
            print_run(&run);
            runs.push(run);
        }
    }
    progress("writing BENCH_e2e.json");
    write_bench_json(args, &profile, &runs)?;
    let all_correct = runs.iter().all(|r| r.correct);
    if args.trace.is_some() {
        println!("{}", result_line(&runs[0])?);
    } else {
        println!(
            "{{\"measurement\": {}, \"correct\": {}, \"runs\": {}, \"attempted\": {}, \"failed\": {}, \"claim\": null}}",
            profile.measurement,
            all_correct,
            runs.len(),
            runs.iter().map(|r| r.attempted).sum::<u64>(),
            runs.iter().map(|r| r.failed).sum::<u64>(),
        );
    }
    Ok(all_correct)
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(Path::new(path)).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match argv.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest(RUN_SECONDS));
            Ok(true)
        }
        Some("compare") => match argv.as_slice() {
            [_, a, b] => read_json(a).and_then(|a| {
                let (text, flagged) = compare::compare(&a, &read_json(b)?);
                print!("{text}");
                Ok(!flagged)
            }),
            _ => Err("usage: frappe-e2e compare A.json B.json".into()),
        },
        _ => parse_args(&argv).and_then(|args| benchmark(&args)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("frappe-e2e: {e}");
            ExitCode::from(2)
        }
    }
}
