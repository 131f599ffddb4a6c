//! SAND loader benchmark.
//!
//! `perfbench gen` writes a run's inputs (the synthetic dataset, and for
//! `restart-log` the prepared persistent store) so that synthesis never
//! shows in the measured process. `perfbench run` is the measured
//! process: it prints the host stamp, serves the workload, checks every
//! served batch, and prints one JSON result line last. `perfbench
//! baselines` runs the sand-train baseline loaders through the same
//! closed loop for reference figures. `run.py` chains build, `gen` and
//! `run`.

mod check;
mod host;
mod layers;
mod run;
mod spec;
mod stats;
mod trace;

use run::{Inputs, Report};
use spec::Workload;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    command: String,
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or("usage: perfbench gen|run|baselines --workload W --seed N --dir D [--seconds S] [--trace 0|1]")?;
    let (mut workload, mut seed, mut seconds, mut trace, mut dir) = (None, None, 10, false, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                }
            }
            "--dir" => dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        command,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        dir: dir.ok_or("--dir is required")?,
    })
}

fn gen(args: &Args) -> Result<(), String> {
    let inputs = Inputs {
        dir: args.dir.clone(),
    };
    let dataset_dir = inputs.dataset();
    if dataset_dir.exists() {
        std::fs::remove_dir_all(&dataset_dir).map_err(|e| e.to_string())?;
    }
    sand::codec::Dataset::generate_to_dir(&args.workload.dataset_spec(args.seed), &dataset_dir)
        .map_err(|e| format!("generate dataset: {e}"))?;
    if args.workload == Workload::RestartLog {
        run::prepare_store(args.seed, &inputs)?;
    }
    Ok(())
}

fn measure(args: &Args) -> Result<Report, String> {
    println!("{}", host::stamp());
    let inputs = Inputs {
        dir: args.dir.clone(),
    };
    let m = run::measure(args.workload, args.seed, &inputs, args.seconds, args.trace)?;
    let mut report = Report {
        attempted: m.attempted,
        failed: m.failed,
        ..Report::default()
    };
    let check_started = std::time::Instant::now();
    let checked = run::check(args.workload, args.seed, &inputs, &m);
    let check_time = check_started.elapsed();
    if let Err(e) = &checked {
        eprintln!("output check failed: {e}");
    }
    report.correct = checked.is_ok();
    report.metrics = if args.trace {
        layers::per_layer(args.workload, args.seed, &inputs, &m)?
    } else {
        run::end_to_end(&m)?
    };
    println!(
        "workload={} rounds={} batches={} setups={} serve_wall_s={:.3} check_s={:.3}",
        args.workload.name(),
        m.rounds,
        m.served.len(),
        m.setups_s.len(),
        m.serve_wall.as_secs_f64(),
        check_time.as_secs_f64()
    );
    println!("serve counters: {:?}", m.serve_counters);
    println!(
        "round rates: {:.1?} cpu ms/batch: {:.2?} setups s: {:.3?}",
        m.round_rates, m.round_cpu_ms, m.setups_s
    );
    for metric in &report.metrics {
        println!("{:<36} {:>14.4} {}", metric.name, metric.value, metric.unit);
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.command.as_str() {
        "gen" => gen(&args).map(|()| None),
        "run" => measure(&args).map(Some),
        "baselines" => layers::baselines(
            args.seed,
            &Inputs {
                dir: args.dir.clone(),
            },
            args.seconds,
        )
        .map(|()| None),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(Some(report)) => {
            println!("{}", report.to_json());
            // A teardown that never returned leaves a helper thread
            // behind; exit without waiting for it.
            std::process::exit(0)
        }
        Ok(None) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
