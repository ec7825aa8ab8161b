//! Command line: `gcol-perfbench --workload NAME --seed N --seconds S
//! --trace 0|1`. Prints a stamped run record, then as its last line the
//! result object `{"correct","attempted","failed","metrics"}`. Exits
//! non-zero, without a result line, when a reply fails its check.

use gcol_perfbench::workload::Workload;
use gcol_perfbench::{json_str, metrics_json, result_line, run, Options};
use std::process::{Command, ExitCode};

const USAGE: &str =
    "usage: gcol-perfbench --workload cold-native|warm-hits|simt-paper|session-edit \
                     --seed N --seconds S --trace 0|1";

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Options::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.ok_or("--trace is required")?,
    ))
}

/// The commit the source tree was checked out at, when it is a git
/// checkout; other checkouts get `unknown`. Git may not search above
/// the working directory, so an enclosing repository is never reported.
fn commit() -> String {
    let cwd = std::env::current_dir().unwrap_or_default();
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", cwd.parent().unwrap_or(&cwd))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let opts = match parse_args(&args[1..]) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match run(&opts) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut record = format!(
        "{{\"record\":{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\
         \"nproc\":{nproc},\"commit\":{},\"command\":{},\"metrics\":{},\"extra\":{}",
        json_str(opts.workload.name()),
        opts.seed,
        opts.seconds,
        opts.trace,
        json_str(&host()),
        json_str(&commit()),
        json_str(&args.join(" ")),
        metrics_json(&outcome.metrics),
        metrics_json(&outcome.extra),
    );
    if let Some(path) = &outcome.trace_file {
        record += &format!(",\"trace_file\":{}", json_str(&path.display().to_string()));
    }
    println!("{record}}}}}");
    println!("{}", result_line(&outcome));
    ExitCode::SUCCESS
}
