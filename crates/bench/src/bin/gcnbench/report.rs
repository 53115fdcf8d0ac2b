//! Output: one `workload metric value unit n_samples` line per metric, the
//! closing JSON result line, and the multi-run modes (`all`, `--repeat`,
//! `--check`) that run workloads as child processes and compare medians.

use std::collections::BTreeMap;
use std::process::Command;

use crate::host::{self, HostFacts, HostRates};
use crate::json::{number, quote};
use crate::spec::{self, Better};
use crate::stats::quartiles;
use crate::{Outcome, RunArgs};

fn unit_of(metric: &str) -> &'static str {
    if metric == "attempted" || metric == "failed" {
        return "count";
    }
    spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|m| m.name == metric)
        .map_or("-", |m| m.unit)
}

pub fn print_host_facts(f: &HostFacts) {
    println!("host host.cores {} count 1", f.cores);
    println!("host host.isa {} name 1", f.isa);
    println!("host pool.width {} count 1", f.pool_width);
    println!("host host.llc_mib {} MiB 1", f.llc_bytes >> 20);
}

pub fn print_host_rates(r: &HostRates) {
    println!(
        "host host.copy_array_mib {} MiB 1",
        r.copy_array_bytes >> 20
    );
    println!("host host.copy_gbps {} GB/s 3", r.copy_gbps);
    println!(
        "host host.gemm_peak_gflops {} GFLOP/s 8",
        r.gemm_peak_gflops
    );
    println!(
        "host host.gemm_peak_gflops_pool {} GFLOP/s 8",
        r.gemm_peak_gflops_pool
    );
}

pub fn print_outcome(workload: &str, o: &Outcome) {
    for s in &o.samples {
        println!(
            "{workload} {} {} {} {}",
            s.name,
            s.value,
            unit_of(s.name),
            s.n
        );
    }
    for (name, v) in [("attempted", o.attempted), ("failed", o.failed)] {
        println!("{workload} {name} {v} {} 1", unit_of(name));
    }
}

/// The closing result line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_json(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .samples
        .iter()
        .map(|s| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(s.name),
                number(s.value),
                quote(unit_of(s.name))
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted.max(1),
        o.failed,
        metrics.join(", ")
    )
}

/// A `workload metric value ...` line as `((workload, metric), value)`;
/// anything else (host lines with names, the JSON line) is `None`.
fn parse_line(line: &str) -> Option<((String, String), f64)> {
    let mut f = line.split_whitespace();
    let (w, m, v) = (f.next()?, f.next()?, f.next()?);
    Some(((w.to_string(), m.to_string()), v.parse::<f64>().ok()?))
}

/// Whether `now` is worse than `base` by more than `bound` of `base`.
fn regressed(better: Better, bound: f64, base: f64, now: f64) -> bool {
    match better {
        Better::Lower => now > base * (1.0 + bound),
        Better::Higher => now < base * (1.0 - bound),
    }
}

/// Runs `repeat` sets of the selected workloads, each workload in its own
/// child process, prints every metric (the child's own line, or median and
/// quartiles when repeated) and, given a baseline, fails if an end-to-end
/// median left its bound.
pub fn run_sets(
    selection: &str,
    args: &RunArgs,
    repeat: usize,
    baseline: Option<&str>,
) -> Result<bool, String> {
    let names: Vec<&str> = match selection {
        "all" => spec::WORKLOADS.iter().map(|w| w.name).collect(),
        one => vec![
            spec::workload(one)
                .ok_or(format!("unknown workload {one}"))?
                .name,
        ],
    };
    let baseline: Option<BTreeMap<(String, String), f64>> = baseline
        .map(|path| {
            std::fs::read_to_string(path)
                .map(|text| text.lines().filter_map(parse_line).collect())
                .map_err(|e| format!("reading baseline {path}: {e}"))
        })
        .transpose()?;

    let facts = host::facts();
    print_host_facts(&facts);
    print_host_rates(&host::rates(&facts, args.smoke));

    let exe = std::env::current_exe().map_err(|e| format!("locating this binary: {e}"))?;
    let mut ok = true;
    // Insertion-ordered by first appearance, which is the emission order.
    let mut order: Vec<(String, String)> = Vec::new();
    let mut values: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for set in 0..repeat {
        for name in &names {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if args.trace { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("running the {name} child: {e}"))?;
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            if !out.status.success() {
                eprintln!("gcnbench: {name} (set {set}) exited with {}", out.status);
                ok = false;
            }
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let Some((key, v)) = parse_line(line).filter(|(key, _)| key.0 == *name) else {
                    continue;
                };
                if repeat == 1 {
                    println!("{line}");
                }
                if !values.contains_key(&key) {
                    order.push(key.clone());
                }
                values.entry(key).or_default().push(v);
            }
        }
    }

    for key in &order {
        let runs = &values[key];
        let (w, m) = (&key.0, &key.1);
        let mid = match quartiles(runs) {
            Some((q1, mid, q3)) => {
                let unit = unit_of(m);
                println!("{w} {m} {mid} {unit} {} q1 {q1} q3 {q3}", runs.len());
                mid
            }
            None => runs[0],
        };
        let (Some(spec), Some(base)) = (spec::end_to_end(m), &baseline) else {
            continue;
        };
        let bound = spec.bound.expect("end-to-end metrics are bounded");
        match base.get(key) {
            Some(&b) if regressed(spec.better, bound, b, mid) => {
                println!("check {w} {m} REGRESSED baseline {b} now {mid} bound {bound}");
                ok = false;
            }
            Some(&b) => println!("check {w} {m} ok baseline {b} now {mid} bound {bound}"),
            None => {
                println!("check {w} {m} MISSING from the baseline");
                ok = false;
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::tests::balanced;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::new(1000, 0);
        o.push("latency_ms_p50", 1.2034, 1000);
        o.push("setup_s", 0.8127, 3);
        let json = result_json(&o);
        assert_eq!(
            json,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_ms_p50\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(balanced(&json));
        o.failed = 3;
        assert!(result_json(&o).starts_with("{\"correct\": false,"));
    }

    #[test]
    fn metric_lines_round_trip_and_noise_is_skipped() {
        let text = "host host.isa avx2+fma name 1\n\
                    full_agg latency_ms_p50 24.5 ms 500\n\
                    full_agg setup_s 0.4 s 3 q1 0.39 q3 0.41\n\
                    {\"correct\": true}\n\nshort line\n";
        let parsed: Vec<_> = text.lines().filter_map(parse_line).collect();
        assert_eq!(
            parsed,
            vec![
                (("full_agg".into(), "latency_ms_p50".into()), 24.5),
                (("full_agg".into(), "setup_s".into()), 0.4),
            ]
        );
    }

    #[test]
    fn regression_respects_direction_and_bound() {
        assert!(!regressed(Better::Lower, 0.1, 100.0, 110.0));
        assert!(regressed(Better::Lower, 0.1, 100.0, 110.1));
        assert!(!regressed(Better::Lower, 0.1, 100.0, 50.0));
        assert!(!regressed(Better::Higher, 0.1, 100.0, 90.0));
        assert!(regressed(Better::Higher, 0.1, 100.0, 89.9));
        assert!(!regressed(Better::Higher, 0.1, 100.0, 500.0));
    }

    #[test]
    fn every_metric_has_a_unit() {
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            assert_ne!(unit_of(m.name), "-");
        }
        assert_eq!(unit_of("no.such.metric"), "-");
    }
}
