//! Runs made of child processes of the benchmark itself, each reading its
//! children's result lines: an end-to-end run (split into parts), the
//! all-workloads run, and the steadiness mode.

use crate::stats::{median, quartiles};
use crate::{home, layers, WORKLOADS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};
use tde_stats::minijson;

/// Processes an end-to-end run is split into. Each one sets up and
/// measures on its own; the run reports the median over them, which
/// cancels the per-process part of the noise (allocator arena layout,
/// thread placement) that one long process keeps for its whole run.
pub const PARTS: u64 = 3;

struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    /// The `name value unit` lines printed before the result line.
    printed: BTreeMap<String, (f64, String)>,
}

fn child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    part: bool,
) -> Result<RunResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    if part {
        cmd.arg("--part");
    }
    let out = cmd
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .env("TDE_TRACE", if trace { "1" } else { "0" })
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&out.stdout);
    print!("{text}");
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or("no output")?;
    let doc = minijson::parse(last)?;
    let correct = doc.get("correct").and_then(|v| v.as_bool()) == Some(true);
    let count = |k: &str| doc.get(k).and_then(|v| v.as_u64()).unwrap_or(0);
    let printed = text
        .lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let (name, value, unit) = (it.next()?, it.next()?, it.next()?);
            let value = value.parse::<f64>().ok()?;
            it.next()
                .is_none()
                .then(|| (name.to_owned(), (value, unit.to_owned())))
        })
        .collect();
    let metrics = doc
        .get("metrics")
        .and_then(|m| m.as_object())
        .ok_or("no metrics")?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    if !out.status.success() && correct {
        return Err(format!("exit status {}", out.status));
    }
    Ok(RunResult {
        correct,
        attempted: count("attempted"),
        failed: count("failed"),
        metrics,
        printed,
    })
}

/// One end-to-end run as `PARTS` child processes of `seconds / PARTS`
/// each, on seeds derived from `seed`; prints the per-metric medians and
/// the combined result line. Returns the exit code.
pub fn run_parts(workload: &str, seed: u64, seconds: f64) -> i32 {
    let mut parts = Vec::new();
    for i in 0..PARTS {
        let part_seed = seed.wrapping_mul(PARTS).wrapping_add(i);
        match child(workload, part_seed, seconds / PARTS as f64, false, true) {
            Ok(r) => parts.push(r),
            Err(e) => {
                eprintln!("perfbench: {workload} part {i}: {e}");
                return 1;
            }
        }
    }
    let attempted: u64 = parts.iter().map(|p| p.attempted).sum();
    let failed: u64 = parts.iter().map(|p| p.failed).sum();
    let correct = failed == 0 && parts.iter().all(|p| p.correct);
    println!("== {workload} seed {seed}: median of {PARTS} parts");
    let mut metrics = Vec::new();
    for d in layers::END_TO_END {
        let values: Vec<f64> = parts
            .iter()
            .filter_map(|p| p.metrics.get(d.name))
            .copied()
            .collect();
        let v = median(&values);
        println!("{:<36} {v:>18.6} {}", d.name, d.unit);
        metrics.push(format!(
            "\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}",
            d.name, d.unit
        ));
    }
    println!(
        "{:<36} {:>18.6} ratio",
        "error_rate",
        failed as f64 / attempted.max(1) as f64
    );
    for name in ["mutation_rows_per_s", "compact_p50_ms", "save_p50_ms"] {
        let values: Vec<f64> = parts
            .iter()
            .filter_map(|p| p.printed.get(name))
            .map(|(v, _)| *v)
            .collect();
        let unit = parts
            .iter()
            .find_map(|p| p.printed.get(name))
            .map_or("", |(_, u)| u.as_str());
        println!("{name:<36} {:>18.6} {unit}", median(&values));
    }
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        metrics.join(",")
    );
    if correct {
        0
    } else {
        1
    }
}

/// Bounds by metric name from `BENCHMARK.json`, when it is there.
fn bounds() -> BTreeMap<String, f64> {
    let Ok(text) = std::fs::read_to_string(home().join("../BENCHMARK.json")) else {
        return BTreeMap::new();
    };
    let Ok(doc) = minijson::parse(&text) else {
        return BTreeMap::new();
    };
    doc.get("end_to_end")
        .and_then(|v| v.as_array())
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_owned(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

/// Run `workload` `n` times on seeds `seed..seed+n` and report each
/// end-to-end metric's median, quartiles and spread (interquartile
/// distance over the median) against its bound. Exit code 0 when every
/// run was correct and every spread but `setup_s`'s is within its bound.
pub fn run(workload: &str, seed: u64, seconds: f64, n: usize) -> i32 {
    let workloads: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload]
    };
    let bounds = bounds();
    let mut ok = true;
    let mut summary = Vec::new();
    for w in workloads {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for s in seed..seed + n as u64 {
            match child(w, s, seconds, false, false) {
                Ok(r) => {
                    ok &= r.correct;
                    for (k, v) in r.metrics {
                        values.entry(k).or_default().push(v);
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {w} seed {s}: {e}");
                    ok = false;
                }
            }
        }
        println!(
            "== steadiness: {w}, {n} runs, seeds {seed}..{}",
            seed + n as u64
        );
        println!(
            "{:<30} {:>7} {:>14} {:>14} {:>14} {:>8} {:>6}  verdict",
            "metric", "better", "median", "q1", "q3", "spread", "bound"
        );
        for d in layers::END_TO_END {
            let Some(vs) = values.get(d.name) else {
                continue;
            };
            let Some((q1, _, q3)) = quartiles(vs) else {
                continue;
            };
            let med = median(vs);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                f64::INFINITY
            };
            let bound = bounds.get(d.name).copied();
            let verdict = match bound {
                None => "no bound",
                Some(_) if d.name == "setup_s" => "not gated",
                Some(b) if spread <= b / 3.0 => "steady",
                Some(b) if spread <= b => "within bound",
                Some(_) => "TOO NOISY",
            };
            if verdict == "TOO NOISY" {
                ok = false;
            }
            println!(
                "{:<30} {:>7} {med:>14.6} {q1:>14.6} {q3:>14.6} {spread:>8.4} {:>6}  {verdict}",
                d.name,
                d.better,
                bound.map_or("-".to_string(), |b| b.to_string())
            );
            summary.push(format!(
                "{{\"workload\":\"{w}\",\"metric\":\"{}\",\"median\":{med},\"q1\":{q1},\
                 \"q3\":{q3},\"spread\":{spread},\"verdict\":\"{verdict}\"}}",
                d.name
            ));
        }
    }
    println!("{{\"steady\":{ok},\"rows\":[{}]}}", summary.join(","));
    if ok {
        0
    } else {
        1
    }
}

/// Run every workload once (end-to-end or traced), one process each.
pub fn run_all(seed: u64, seconds: f64, trace: bool) -> i32 {
    let mut ok = true;
    for w in WORKLOADS {
        println!("== {w}");
        match child(w, seed, seconds, trace, false) {
            Ok(r) => ok &= r.correct,
            Err(e) => {
                eprintln!("perfbench: {w}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        0
    } else {
        1
    }
}
