//! perfbench — the repository's benchmark. One command runs a named
//! workload through the engine's public API, checks every answer against
//! a reference the benchmark computes itself, and prints one JSON result
//! line. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <flights_dashboard|tpch_paged|extract_refresh|all>
//!           --seed <n> --seconds <n> --trace <0|1> [--repeat <n>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off, in three
//! child processes of `seconds / 3` each (`--part`), and reports each
//! metric's median over them; `--trace 1` is the separate traced run that reports the per-layer
//! metrics and writes spans, engine timelines and the registry diff under
//! `perfbench/out/`. `--repeat n` is the steadiness mode: it runs the
//! workload `n` times on seeds `seed..seed+n` and prints each metric's
//! median, quartiles and spread against the bound in `BENCHMARK.json`.

mod answer;
mod dashboard;
mod engine;
mod flights;
mod layers;
mod paged;
mod refresh;
mod rng;
mod scratch;
mod spans;
mod stats;
mod steady;
mod tpch;
mod workload;

use scratch::ScratchDir;
use std::path::{Path, PathBuf};
use workload::{Ctx, Outcome};

pub const WORKLOADS: [&str; 3] = ["flights_dashboard", "tpch_paged", "extract_refresh"];

/// A seed no tuning run uses: later performance claims re-check on it.
pub const HELD_OUT_SEED: u64 = 7_340_033;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    /// Measure in this process instead of splitting the run into parts.
    part: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut repeat) =
        (None, None, None, None, None);
    let mut part = false;
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--repeat" => {
                repeat = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--repeat: {e}"))?,
                )
            }
            "--part" => part = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (one of {WORKLOADS:?} or all)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        repeat,
        part,
    })
}

/// The benchmark's own directory (scratch runs and traced outputs live
/// under it, inside the checkout).
pub fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn run_one(args: &Args) -> std::io::Result<Outcome> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc,
        degree: nproc.min(4),
    };
    let scratch = ScratchDir::create(&home().join("tmp"))?;
    let out: PathBuf = home()
        .join("out")
        .join(format!("{}-seed{}", args.workload, args.seed));
    let name = args.workload.as_str();
    macro_rules! dispatch {
        ($w:ty) => {
            if args.trace {
                workload::run_traced::<$w>(&ctx, name, &scratch, &out)
            } else {
                workload::run_e2e::<$w>(&ctx, name, &scratch)
            }
        };
    }
    match name {
        "flights_dashboard" => dispatch!(dashboard::Dashboard),
        "tpch_paged" => dispatch!(paged::Paged),
        _ => dispatch!(refresh::Refresh),
    }
}

fn print_outcome(o: &Outcome) {
    let record: Vec<String> = o
        .record
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("run_record {{{}}}", record.join(","));
    for (name, value) in &o.metrics {
        println!("{name:<36} {value:>18.6} {}", layers::unit_of(name));
    }
    for (name, value, unit) in &o.extra {
        println!("{name:<36} {value:>18.6} {unit}");
    }
    for f in &o.files {
        println!("wrote {f}");
    }
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(n, v)| {
            format!(
                "\"{n}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                layers::unit_of(n)
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(",")
    );
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(n) = args.repeat {
        std::process::exit(steady::run(&args.workload, args.seed, args.seconds, n));
    }
    if args.workload == "all" {
        std::process::exit(steady::run_all(args.seed, args.seconds, args.trace));
    }
    if !args.trace && !args.part {
        std::process::exit(steady::run_parts(&args.workload, args.seed, args.seconds));
    }
    match run_one(&args) {
        Ok(o) => {
            print_outcome(&o);
            if o.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::Bench;
    use flights::{Panel, Source};
    use std::sync::Arc;

    #[test]
    fn a_corrupted_answer_is_caught() {
        let scratch = ScratchDir::create(&home().join("tmp")).unwrap();
        let mut bench = Bench::new(false);
        let (csv, data) = dashboard::generate(&mut bench, scratch.path(), 3000, 5).unwrap();
        let (mut table, _) = dashboard::import_flights(&mut bench, &csv).unwrap();
        tde_core::design::optimize_physical_design(&mut table, Default::default());
        let table = Arc::new(table);
        let panels = Panel::round(&mut rng::Rng::new(9), &data);
        for p in &panels {
            let q = p.query(&Source::Eager(&table), &data.strings, 2);
            bench.query(p.label(), q, 0, || {
                p.reference(data.rows.iter(), &data.strings)
            });
        }
        assert_eq!(bench.rec.failed, 0, "{:?}", bench.rec.first_errors);
        bench.corrupt_next_answer = true;
        let q = panels[0].query(&Source::Eager(&table), &data.strings, 2);
        let ok = bench.query("corrupted", q, 0, || {
            panels[0].reference(data.rows.iter(), &data.strings)
        });
        assert!(ok.is_none());
        assert_eq!(bench.rec.failed, 1);
        assert!(bench.rec.first_errors[0].starts_with("answer check"));
    }

    #[test]
    fn benchmark_json_lists_the_catalog() {
        let text = std::fs::read_to_string(home().join("../BENCHMARK.json")).unwrap();
        let doc = tde_stats::minijson::parse(&text).unwrap();
        let field = |m: &tde_stats::minijson::Value, k: &str| {
            m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_owned()
        };
        let list = |key: &str, keys: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| keys.iter().map(|k| field(m, k)).collect())
                .collect()
        };
        let catalog = |defs: &[layers::MetricDef]| -> Vec<Vec<String>> {
            defs.iter()
                .map(|d| vec![d.name.to_owned(), d.unit.to_owned(), d.better.to_owned()])
                .collect()
        };
        let keys = ["name", "unit", "better"];
        assert_eq!(list("end_to_end", &keys), catalog(layers::END_TO_END));
        assert_eq!(list("per_layer", &keys), catalog(layers::PER_LAYER));
        let names: Vec<String> = list("workloads", &["name"]).concat();
        assert_eq!(names, WORKLOADS);
    }
}
