//! `perfbench --workload NAME --seed N --seconds S --trace 0|1 --work-dir DIR
//! [--spans-out FILE]`
//!
//! Runs one benchmark workload and prints, as the last line of standard
//! output, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (the end-to-end metrics, or with `--trace 1` the per-layer
//! ones). Diagnostics go to standard error.

use pim_perfbench::{count, serve, Report, RunArgs, Workload, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse(argv: &[String]) -> Result<RunArgs, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = value("--workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))?;
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    let work_dir = PathBuf::from(value("--work-dir")?);
    let spans_out = value("--spans-out").ok().map(PathBuf::from);
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        work_dir,
        spans_out,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.work_dir) {
        eprintln!("perfbench: {}: {e}", args.work_dir.display());
        return ExitCode::from(2);
    }
    let mut report = Report::default();
    let ran = match args.workload {
        Workload::ServeTenants => serve::run(&args, &mut report),
        _ => count::run(&args, &mut report),
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        return ExitCode::FAILURE;
    }
    report.conform(if args.trace { &PER_LAYER } else { &END_TO_END });
    for f in &report.failures {
        eprintln!("perfbench: failed: {f}");
    }
    println!("{}", report.to_json_line());
    ExitCode::SUCCESS
}
