//! The repo benchmark. `benchmark/run.sh` builds and runs this binary;
//! `benchmark/README.md` defines every workload and metric.
//!
//! ```text
//! mbtls-benchmark [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//!                 [--smoke] [--out FILE] [--results-dir DIR]
//! mbtls-benchmark --compare FILE FILE...
//! mbtls-benchmark --emit-manifest
//! ```
//!
//! Without `--workload` all six run, their rounds interleaved;
//! without `--trace` both passes run. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The exit code is 0 only if every operation of every
//! round delivered the right bytes.

mod alloc;
mod estimator;
mod metrics;
mod passes;
mod report;
mod seam;
mod spans;

use std::process::ExitCode;

use metrics::MetricDef;
use passes::{Options, WorkloadReport};
use seam::{WorkloadSpec, WORKLOADS};

#[global_allocator]
static ALLOCATOR: alloc::CountingAllocator = alloc::CountingAllocator;

/// `--seconds` when none is given: all six workloads and both passes
/// then finish inside two minutes. The driver passes
/// [`metrics::RUN_SECONDS`].
const DEFAULT_SECONDS: f64 = 10.0;

/// The parsed command line.
struct Args {
    workload: Option<String>,
    trace: Option<bool>,
    out: Option<String>,
    compare: Vec<String>,
    emit_manifest: bool,
    options: Options,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        trace: None,
        out: None,
        compare: Vec::new(),
        emit_manifest: false,
        options: Options {
            seed: 7,
            seconds: DEFAULT_SECONDS,
            smoke: false,
            results_dir: "benchmark/results".to_string(),
        },
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.options.seed = v.parse().map_err(|_| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value()?;
                let seconds: f64 = v.parse().map_err(|_| format!("bad --seconds {v}"))?;
                if !(seconds.is_finite() && seconds >= 0.0) {
                    return Err(format!("bad --seconds {v}"));
                }
                args.options.seconds = seconds;
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => args.options.smoke = true,
            "--out" => args.out = Some(value()?.clone()),
            "--results-dir" => args.options.results_dir = value()?.clone(),
            "--compare" => args.compare = it.by_ref().cloned().collect(),
            "--emit-manifest" => args.emit_manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn select(workload: &Option<String>) -> Result<Vec<&'static WorkloadSpec>, String> {
    match workload {
        None => Ok(WORKLOADS.iter().collect()),
        Some(name) => WORKLOADS
            .iter()
            .find(|w| w.name == name)
            .map(|w| vec![w])
            .ok_or_else(|| {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name}; one of {}", names.join(", "))
            }),
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let specs = select(&args.workload)?;
    let mut reports: Vec<WorkloadReport> = Vec::new();
    let mut defs: Vec<&MetricDef> = Vec::new();
    if args.trace != Some(true) {
        let pass = passes::end_to_end_pass(&specs, &args.options);
        let pass_defs: Vec<&MetricDef> = metrics::END_TO_END.iter().collect();
        report::print_table("end to end (tracing off)", &pass, &pass_defs);
        reports.extend(pass);
        defs.extend(pass_defs);
    }
    if args.trace != Some(false) {
        let pass = passes::per_layer_pass(&specs, &args.options);
        let pass_defs: Vec<&MetricDef> = metrics::PER_LAYER.iter().collect();
        report::print_table("per layer (probes and traced pass)", &pass, &pass_defs);
        reports.extend(pass);
        defs.extend(pass_defs);
    }
    if let Some(path) = &args.out {
        std::fs::write(path, report::results_tsv(&reports))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    println!("{}", report::json_line(&reports, &defs));
    Ok(reports.iter().all(|r| r.failed == 0))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mbtls-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if args.emit_manifest {
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        print!("{}", metrics::manifest_json(&workloads));
        return ExitCode::SUCCESS;
    }
    if !args.compare.is_empty() {
        let mut files = Vec::new();
        for path in &args.compare {
            match std::fs::read_to_string(path) {
                Ok(text) => files.push((path.clone(), text)),
                Err(e) => {
                    eprintln!("mbtls-benchmark: reading {path}: {e}");
                    return ExitCode::from(2);
                }
            }
        }
        return if report::compare(&files) {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("mbtls-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_manifest_is_the_rendered_one() {
        let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        let committed = include_str!("../../BENCHMARK.json");
        assert_eq!(
            committed,
            metrics::manifest_json(&workloads),
            "regenerate with: benchmark/run.sh --emit-manifest > BENCHMARK.json"
        );
        assert!(workloads.len() >= 2 && workloads.len() <= 8);
        for (name, why) in workloads {
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}: bad why"
            );
        }
    }

    #[test]
    fn driver_command_line_parses() {
        let argv: Vec<String> = "--workload http_small --seed 42 --seconds 10 --trace 0"
            .split(' ')
            .map(String::from)
            .collect();
        let args = parse_args(&argv).unwrap();
        assert_eq!(args.workload.as_deref(), Some("http_small"));
        assert_eq!(
            (args.options.seed, args.options.seconds, args.trace),
            (42, 10.0, Some(false))
        );
        assert_eq!(select(&args.workload).unwrap()[0].name, "http_small");
        assert!(select(&Some("nope".into())).is_err());
        assert!(parse_args(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_args(&["--bogus".into()]).is_err());
    }
}
