//! `gcnbench`: one end-to-end + per-layer benchmark for the planned, sharded
//! and served GCN paths. See `README.md` beside this file.
//!
//! ```text
//! gcnbench --workload <name|all> [--seed N] [--seconds S] [--trace [0|1]]
//!          [--smoke] [--repeat N] [--check BASELINE] | --manifest
//! ```
//!
//! A named workload runs in this process and ends its output with one JSON
//! result line; `all`, `--repeat` and `--check` run each workload in its own
//! sequential child process (so `peak_rss_mb` is per workload).

mod closed;
mod host;
mod inputs;
mod json;
mod layers;
mod report;
mod serve;
mod spec;
mod stats;
mod trace;

use std::process::ExitCode;

use spec::{Kind, Workload};

/// Arguments of one workload run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub seed: u64,
    /// Seconds the measured loop (or the two serving phases together) lasts.
    pub seconds: f64,
    pub trace: bool,
    /// 2^10-vertex twins and a twentieth of the run: exercises every code
    /// path and check without meaningful timing.
    pub smoke: bool,
}

impl RunArgs {
    /// Set-ups per run; `setup_s` is their median.
    pub fn setup_repeats(&self) -> usize {
        if self.smoke {
            1
        } else {
            5
        }
    }
}

/// One measured value with its sample count; the unit comes from `spec`.
#[derive(Debug, Clone)]
pub struct Sample {
    pub name: &'static str,
    pub value: f64,
    pub n: usize,
}

/// What a run hands back: operations attempted and failed (errored,
/// refused, unresolved, or failing their output check) and the metrics.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<Sample>,
}

impl Outcome {
    pub fn new(attempted: u64, failed: u64) -> Self {
        Outcome {
            attempted,
            failed,
            samples: Vec::new(),
        }
    }

    pub fn push(&mut self, name: &'static str, value: f64, n: usize) {
        self.samples.push(Sample { name, value, n });
    }
}

/// `VmHWM` of this process in MB (0 where `/proc` does not say).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One pass of one workload in this process: the traced pass with
/// `args.trace`, else the untraced pass plus this process's peak RSS.
fn measure(w: &Workload, args: &RunArgs, facts: &host::HostFacts) -> Result<Outcome, String> {
    if args.trace {
        let rates = host::rates(facts, args.smoke);
        report::print_host_rates(&rates);
        return layers::run(w, args, facts, rates);
    }
    let mut outcome = match w.kind {
        Kind::Serve { .. } => serve::run(w, args)?,
        _ => closed::run(w, args)?,
    };
    outcome.push("peak_rss_mb", peak_rss_mb(), 1);
    Ok(outcome)
}

/// Runs one workload in this process and prints its lines and result.
fn run_workload(w: &Workload, args: &RunArgs) -> Result<bool, String> {
    let facts = host::facts();
    report::print_host_facts(&facts);
    let outcome = measure(w, args, &facts)?;
    report::print_outcome(w.name, &outcome);
    println!("{}", report::result_json(&outcome));
    Ok(outcome.failed == 0)
}

fn usage() -> String {
    let names: Vec<&str> = spec::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: gcnbench --workload <{}|all> [--seed N] [--seconds S] [--trace [0|1]] \
         [--smoke] [--repeat N] [--check BASELINE]\n       gcnbench --manifest",
        names.join("|")
    )
}

/// Parsed command line.
struct Cli {
    workload: String,
    run: RunArgs,
    repeat: usize,
    check: Option<String>,
    manifest: bool,
}

fn parse(argv: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: String::new(),
        run: RunArgs {
            seed: 1,
            seconds: spec::RUN_SECONDS as f64,
            trace: false,
            smoke: false,
        },
        repeat: 1,
        check: None,
        manifest: false,
    };
    let mut explicit_seconds = false;
    let mut it = argv.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => cli.workload = value("a workload name")?,
            "--seed" => {
                cli.run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} is outside (0, 600]"));
                }
                cli.run.seconds = s;
                explicit_seconds = true;
            }
            "--trace" => {
                // `--trace 0|1`, or bare `--trace` meaning 1.
                cli.run.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => cli.run.smoke = true,
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if cli.repeat == 0 {
                    return Err("--repeat needs at least 1".into());
                }
            }
            "--check" => cli.check = Some(value("a baseline file")?),
            "--manifest" => cli.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if cli.run.smoke && !explicit_seconds {
        cli.run.seconds /= 20.0;
    }
    if !cli.manifest && cli.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("gcnbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if cli.manifest {
        print!("{}", spec::manifest_json());
        return ExitCode::SUCCESS;
    }
    let single = cli.workload != "all" && cli.repeat == 1 && cli.check.is_none();
    let result = if single {
        match spec::workload(&cli.workload) {
            Some(w) => run_workload(w, &cli.run),
            None => Err(format!("unknown workload {}\n{}", cli.workload, usage())),
        }
    } else {
        report::run_sets(&cli.workload, &cli.run, cli.repeat, cli.check.as_deref())
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gcnbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_command_line_parses() {
        let cli = parse(&args("--workload full_agg --seed 9 --seconds 10 --trace 0")).expect("ok");
        assert_eq!((cli.workload.as_str(), cli.run.seed), ("full_agg", 9));
        assert!(!cli.run.trace && !cli.run.smoke && cli.repeat == 1);
        assert_eq!(cli.run.seconds, 10.0);
        let cli = parse(&args("--workload all --trace --smoke")).expect("ok");
        assert!(cli.run.trace && cli.run.smoke);
        assert_eq!(cli.run.seconds, spec::RUN_SECONDS as f64 / 20.0);
        let cli = parse(&args("--trace 1 --workload sharded")).expect("ok");
        assert!(cli.run.trace);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--seed 1",
            "--workload",
            "--workload x --seconds 0",
            "--workload x --seconds nan",
            "--workload x --repeat 0",
            "--workload x --frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} should be refused");
        }
        assert!(parse(&args("--manifest")).is_ok());
    }

    #[test]
    fn peak_rss_reads_proc() {
        assert!(peak_rss_mb() > 0.0);
    }

    /// One pass of every workload at smoke size: every check passes and
    /// exactly the pass's metrics are emitted, each exactly once.
    fn emits_exactly(trace: bool, want: &[spec::MetricSpec]) {
        let facts = host::facts();
        let mut want: Vec<&str> = want.iter().map(|m| m.name).collect();
        want.sort_unstable();
        for w in spec::WORKLOADS {
            let args = RunArgs {
                seed: 11,
                seconds: 0.2,
                trace,
                smoke: true,
            };
            let outcome = measure(w, &args, &facts).expect("smoke pass runs");
            assert_eq!(outcome.failed, 0, "{}", w.name);
            assert!(outcome.attempted >= 1);
            let mut got: Vec<&str> = outcome.samples.iter().map(|s| s.name).collect();
            got.sort_unstable();
            assert_eq!(got, want, "{}", w.name);
            for s in &outcome.samples {
                assert!(s.value.is_finite(), "{} {} = {}", w.name, s.name, s.value);
            }
        }
    }

    #[test]
    fn untraced_pass_emits_each_end_to_end_metric_once() {
        emits_exactly(false, spec::END_TO_END);
    }

    #[test]
    #[cfg_attr(
        debug_assertions,
        ignore = "about a minute without optimisation; run with --release"
    )]
    fn traced_pass_emits_each_per_layer_metric_once() {
        emits_exactly(true, spec::PER_LAYER);
    }
}
