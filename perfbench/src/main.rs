//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload and prints its report; the last line of standard
//! output is the result object. `perfbench compare <setA> <setB>`
//! compares two directories of saved outputs.

use perfbench::report::Host;
use perfbench::{compare, run, Ctx};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <sim-paper|sim-finepage|serve-mixed|grid-sweep> \
                     --seed <n> --seconds <s> --trace <0|1>\n       \
                     perfbench compare <setA-dir> <setB-dir> [--bench BENCHMARK.json]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::main(&args[1..]) {
            Ok(clean) => ExitCode::from(u8::from(!clean)),
            Err(e) => {
                eprintln!("perfbench compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (workload, ctx) = match parse(&args) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&workload, &ctx);
    let _ = std::fs::remove_dir_all(&ctx.work);
    // The shared parent goes too once no other run is using it.
    if let Some(parent) = ctx.work.parent() {
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok(rep) => {
            println!("{}", rep.context_line(&workload, ctx.seed, ctx.trace, &ctx.host));
            println!("{}", rep.result_line());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn parse(args: &[String]) -> Result<(String, Ctx), String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} outside [0, 3600]"));
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !perfbench::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let work = std::env::current_dir()
        .map_err(|e| format!("current directory: {e}"))?
        .join(".perfbench-work")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    Ok((workload, Ctx { seed, seconds, trace, work, host: Host::probe() }))
}
