//! What the three workloads share: repeated set-up, the closed measuring
//! loop with one client, the traced run's probes, and the derivation of
//! every metric from what the loop recorded.

use crate::engine::Bench;
use crate::layers;
use crate::scratch::ScratchDir;
use crate::stats::{median, tail};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use tde_core::exec::handle::ColumnHandle;
use tde_core::exec::scan::TableScan;
use tde_core::obs::metrics::{self, MetricsSnapshot};
use tde_core::obs::timeline::{self, TimelineKind};
use tde_core::obs::CacheSnapshot;
use tde_core::storage::Column;

/// Set-ups per end-to-end process; `setup_s` is their median.
pub const SETUPS: usize = 2;
/// Rounds of the fixed probe mix behind `obs.trace_overhead_pct` and
/// `exec.parallel_speedup`.
const PROBE_ROUNDS: usize = 5;

pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    /// Query parallelism: `min(nproc, 4)`.
    pub degree: usize,
}

/// A run record entry: a key and its value rendered as JSON.
pub type Record = Vec<(&'static str, String)>;

pub trait Workload: Sized {
    /// Generate the workload's data set and build the engine state.
    fn setup(ctx: &Ctx, bench: &mut Bench, dir: &Path) -> io::Result<Self>;
    /// One closed-loop step; engine failures are counted by `bench`.
    fn step(&mut self, ctx: &Ctx, bench: &mut Bench);
    /// A fixed query set (the same literals every call) at `degree`;
    /// returns the engine time in nanoseconds.
    fn probe(&mut self, bench: &mut Bench, degree: usize) -> f64;
    /// The columns the workload's queries touch (decode probe input).
    fn touched_columns(&self) -> io::Result<Vec<Arc<Column>>>;
    /// The buffer pool the workload reads through, if any.
    fn pool(&self) -> Option<CacheSnapshot>;
    /// Sizes and ratios for the run record.
    fn record(&self, rec: &mut Record);
    /// Workload-specific per-layer values (traced run only).
    fn layer_values(&mut self, out: &mut BTreeMap<&'static str, f64>);
}

pub struct Outcome {
    /// The metrics of the result line, in catalog order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Reported by name and unit, outside the result line.
    pub extra: Vec<(String, f64, &'static str)>,
    pub record: Record,
    pub attempted: u64,
    pub failed: u64,
    /// Files a traced run wrote.
    pub files: Vec<String>,
}

/// Resident pool bytes over the pool budget, maxed over the run.
fn resident_ratio(pool: Option<CacheSnapshot>, max: &mut f64) {
    if let Some(p) = pool {
        if p.budget_bytes > 0 {
            *max = max.max(p.bytes_cached as f64 / p.budget_bytes as f64);
        }
    }
}

/// Drive the closed loop for `ctx.seconds`, counting the work. Returns
/// the wall time and the largest pool residency over budget seen.
fn measure<W: Workload>(w: &mut W, ctx: &Ctx, bench: &mut Bench) -> (f64, f64) {
    let mut resident = 0.0f64;
    bench.recording = true;
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < ctx.seconds {
        w.step(ctx, bench);
        resident_ratio(w.pool(), &mut resident);
    }
    bench.recording = false;
    (t0.elapsed().as_secs_f64(), resident)
}

fn common_record(ctx: &Ctx, name: &str, mode: &str) -> Record {
    vec![
        ("workload", format!("\"{name}\"")),
        ("mode", format!("\"{mode}\"")),
        ("seed", ctx.seed.to_string()),
        ("held_out_seed", crate::HELD_OUT_SEED.to_string()),
        ("nproc", ctx.nproc.to_string()),
        ("query_degree", ctx.degree.to_string()),
        ("seconds", format!("{}", ctx.seconds)),
        ("clients", "1".into()),
    ]
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end run: tracing off, several set-ups, one measured loop.
pub fn run_e2e<W: Workload>(ctx: &Ctx, name: &str, scratch: &ScratchDir) -> io::Result<Outcome> {
    timeline::set_enabled(false);
    let mut bench = Bench::new(false);
    let mut setup_s = Vec::new();
    let mut w = None;
    for i in 0..SETUPS {
        if i > 0 {
            drop(w.take());
            std::fs::remove_dir_all(scratch.path().join(format!("setup-{}", i - 1)))?;
        }
        let dir = scratch.subdir(&format!("setup-{i}"))?;
        let t0 = Instant::now();
        w = Some(W::setup(ctx, &mut bench, &dir)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut w = w.expect("at least one set-up");
    let (wall_s, resident) = measure(&mut w, ctx, &mut bench);
    let rec = &bench.rec;

    let ms: Vec<f64> = rec.query_ns.iter().map(|ns| ns / 1e6).collect();
    let (tail_ms, tail_pct, samples) = tail(&ms);
    let rate = |rows: u64, ns: f64| {
        if ns > 0.0 {
            rows as f64 / (ns / 1e9)
        } else {
            0.0
        }
    };
    let import_rate = median(
        &rec.imports
            .iter()
            .map(|&(rows, _, ns)| rate(rows, ns))
            .collect::<Vec<_>>(),
    );
    let metrics = vec![
        ("query_p50_ms", median(&ms)),
        ("query_tail_ms", tail_ms),
        ("queries_per_s", rate(ms.len() as u64, rec.busy_ns)),
        ("import_rows_per_s", import_rate),
        ("stored_bytes_per_input_byte", median(&rec.stored_ratio)),
        ("peak_rss_mb", peak_rss_mb()),
        ("setup_s", median(&setup_s)),
    ];
    let attempted = rec.attempted.max(1);
    let mut extra: Vec<(String, f64, &'static str)> = [
        ("error_rate", rec.failed as f64 / attempted as f64, "ratio"),
        ("query_tail_percentile", tail_pct, "%"),
        ("query_samples", samples as f64, "count"),
        (
            "mutation_rows_per_s",
            rate(rec.mutation_rows, rec.mutation_ns),
            "1/s",
        ),
        ("compact_p50_ms", median(&rec.compact_ns) / 1e6, "ms"),
        ("save_p50_ms", median(&rec.save_ns) / 1e6, "ms"),
        ("measured_wall_s", wall_s, "s"),
        ("engine_busy_s", rec.busy_ns / 1e9, "s"),
    ]
    .into_iter()
    .map(|(n, v, u)| (n.to_owned(), v, u))
    .collect();
    for (t, ns) in &rec.by_template {
        let ms: Vec<f64> = ns.iter().map(|n| n / 1e6).collect();
        extra.push((format!("query_p50_ms.{t}"), median(&ms), "ms"));
    }
    let mut record = common_record(ctx, name, "end_to_end");
    record.push(("setups", SETUPS.to_string()));
    record.push(("resident_over_budget_max", format!("{resident:.4}")));
    w.record(&mut record);
    Ok(Outcome {
        metrics,
        extra,
        record,
        attempted,
        failed: rec.failed,
        files: Vec::new(),
    })
}

fn counter(diff: &[(String, u64)], name: &str) -> f64 {
    diff.iter()
        .filter(|(k, _)| k == name || k.strip_prefix(name).is_some_and(|r| r.starts_with('{')))
        .fold(0.0, |acc, (_, v)| acc + *v as f64)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Median run time of `f` over `reps` calls, in nanoseconds.
fn time_median(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    median(&(0..reps).map(|_| f()).collect::<Vec<_>>())
}

/// Full single-column scans of the touched columns, grouped by the
/// stream encoding: Melem/s per encoding.
fn decode_rates(cols: &[Arc<Column>]) -> BTreeMap<&'static str, f64> {
    use tde_core::encodings::Algorithm;
    let mut acc: BTreeMap<&'static str, (f64, f64)> = BTreeMap::new();
    for col in cols {
        let key = match col.data.algorithm() {
            Algorithm::Dictionary => "dict",
            Algorithm::FrameOfReference => "for",
            Algorithm::RunLength => "rle",
            Algorithm::Affine => "affine",
            Algorithm::Delta => "delta",
            Algorithm::None => "raw",
        };
        let ns = time_median(3, || {
            let scan = TableScan::from_handles(vec![ColumnHandle::Owned(Arc::clone(col))], false);
            let t0 = Instant::now();
            let rows = tde_core::exec::count_rows(Box::new(scan));
            let ns = t0.elapsed().as_nanos() as f64;
            assert_eq!(rows, col.len(), "a full scan returns every row");
            ns
        });
        let e = acc.entry(key).or_default();
        e.0 += col.len() as f64;
        e.1 += ns;
    }
    acc.into_iter()
        .map(|(k, (rows, ns))| (k, ratio(rows, ns) * 1e3))
        .collect()
}

/// The traced run: spans and engine timelines on, one set-up, the
/// measured loop, then the probes; derives every per-layer metric.
pub fn run_traced<W: Workload>(
    ctx: &Ctx,
    name: &str,
    scratch: &ScratchDir,
    out_dir: &Path,
) -> io::Result<Outcome> {
    timeline::set_enabled(true);
    timeline::clear();
    let mut bench = Bench::new(true);
    let dir = scratch.subdir("setup-0")?;
    let mut w = W::setup(ctx, &mut bench, &dir)?;

    // Tracing overhead: the same probe mix with everything off and with
    // the engine timeline plus the benchmark's spans on, interleaved.
    // Alternating which side goes first cancels order effects.
    let (mut off, mut on) = (Vec::new(), Vec::new());
    for round in 0..2 * PROBE_ROUNDS {
        let traced = round % 2 != (round / 2) % 2;
        bench.spans.set_on(traced);
        timeline::set_enabled(traced);
        let ns = w.probe(&mut bench, ctx.degree);
        if traced {
            on.push(ns)
        } else {
            off.push(ns)
        }
    }
    bench.spans.set_on(true);
    timeline::set_enabled(true);
    let trace_overhead_pct = (ratio(median(&on), median(&off)) - 1.0) * 100.0;

    bench.traces.clear();
    let mark = bench.spans.spans().len();
    let before: MetricsSnapshot = metrics::global().snapshot();
    let (wall_s, resident) = measure(&mut w, ctx, &mut bench);
    let diff = metrics::global().snapshot().counter_deltas(&before);
    let spans_in_loop = &bench.spans.spans()[mark..];
    let durs = |n: &str| -> Vec<f64> {
        spans_in_loop
            .iter()
            .filter(|s| s.name == n)
            .map(|s| s.dur_ns() as f64)
            .collect()
    };
    let queries = durs("query").len() as f64;

    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    for d in layers::PER_LAYER {
        v.insert(d.name, 0.0);
    }
    v.insert("plan.optimize_ns", median(&durs("plan.optimize")));
    v.insert("plan.lower_ns", median(&durs("plan.lower")));
    let drain = durs("exec.drain");
    v.insert("exec.drain_ns", median(&drain));
    v.insert(
        "exec.rows_per_s",
        ratio(
            bench.rec.rows_scanned as f64,
            drain.iter().sum::<f64>() / 1e9,
        ),
    );
    v.insert(
        "exec.morsels_stolen_frac",
        ratio(
            counter(&diff, "tde_morsels_stolen_total"),
            counter(&diff, "tde_morsels_dispatched_total"),
        ),
    );
    v.insert(
        "encodings.kernel_skip_frac",
        ratio(
            counter(&diff, "tde_kernel_rows_skipped_total"),
            counter(&diff, "tde_kernel_rows_in_total"),
        ),
    );
    let (hits, misses) = (
        counter(&diff, "tde_pool_hits_total"),
        counter(&diff, "tde_pool_misses_total"),
    );
    v.insert("pager.hit_rate", ratio(hits, hits + misses));
    v.insert("pager.lookups_per_query", ratio(hits + misses, queries));
    v.insert(
        "pager.evictions_per_query",
        ratio(counter(&diff, "tde_pool_evictions_total"), queries),
    );
    v.insert(
        "pager.bytes_read_per_query",
        ratio(counter(&diff, "tde_pool_read_bytes_total"), queries),
    );
    let loads: Vec<f64> = bench
        .traces
        .iter()
        .flat_map(|t| &t.events)
        .filter_map(|e| match e.kind {
            TimelineKind::SegmentLoad { dur_ns, .. } => Some(dur_ns as f64),
            _ => None,
        })
        .collect();
    v.insert("pager.segment_load_p50_ns", median(&loads));
    v.insert("pager.resident_over_budget_ratio", resident);
    v.insert("pager.open_ns", median(&durs("pager.open")));
    v.insert("io.save_ns", median(&bench.spans.durations("io.save")));
    let (rows, bytes, ns) = bench
        .rec
        .imports
        .iter()
        .fold((0.0, 0.0, 0.0), |a, &(r, b, n)| {
            (a.0 + r as f64, a.1 + b as f64, a.2 + n)
        });
    v.insert("textscan.rows_per_s", ratio(rows, ns / 1e9));
    v.insert("textscan.bytes_per_s", ratio(bytes, ns / 1e9));
    v.insert("io.read_retries", counter(&diff, "tde_io_retries_total"));
    v.insert(
        "io.checksum_failures",
        counter(&diff, "tde_segment_checksum_failures_total"),
    );
    v.insert("delta.snapshot_ns", median(&durs("delta.snapshot")));
    v.insert("delta.compact_ns", median(&durs("delta.compact")));
    let compactions = durs("delta.compact").len() as f64;
    v.insert(
        "delta.rows_reencoded",
        ratio(
            counter(&diff, "tde_compaction_rows_reencoded_total"),
            compactions,
        ),
    );
    v.insert("obs.trace_overhead_pct", trace_overhead_pct);

    // Probes after the loop, so they never count in its deltas.
    bench.spans.set_on(false);
    timeline::set_enabled(false);
    let (mut serial, mut parallel) = (Vec::new(), Vec::new());
    for _ in 0..PROBE_ROUNDS {
        serial.push(w.probe(&mut bench, 1));
        parallel.push(w.probe(&mut bench, ctx.degree));
    }
    v.insert(
        "exec.parallel_speedup",
        ratio(median(&serial), median(&parallel)),
    );
    for (enc, rate) in decode_rates(&w.touched_columns()?) {
        let key = layers::PER_LAYER
            .iter()
            .map(|d| d.name)
            .find(|n| n.strip_prefix("encodings.decode_melem_s.") == Some(enc))
            .expect("every encoding has a decode metric");
        v.insert(key, rate);
    }
    w.layer_values(&mut v);

    // Outputs: the benchmark's spans, the engine's query timelines and
    // the registry diff, all loadable without a rerun.
    std::fs::create_dir_all(out_dir)?;
    let spans_path = out_dir.join("spans.tef.json");
    std::fs::write(&spans_path, bench.spans.to_tef())?;
    let engine_path = out_dir.join("engine.tef.json");
    let keep = bench.traces.len().saturating_sub(64);
    std::fs::write(
        &engine_path,
        tde_stats::tef::render_traces(&bench.traces[keep..]),
    )?;
    let diff_path = out_dir.join("registry_diff.json");
    let diff_json: Vec<String> = diff
        .iter()
        .map(|(k, n)| format!("\"{}\":{n}", tde_core::obs::json_escape(k)))
        .collect();
    std::fs::write(&diff_path, format!("{{{}}}\n", diff_json.join(",")))?;
    let self_path = out_dir.join("self_time.json");
    let self_json: Vec<String> = bench
        .spans
        .self_times()
        .iter()
        .map(|(k, ns)| format!("\"{k}\":{ns}"))
        .collect();
    std::fs::write(&self_path, format!("{{{}}}\n", self_json.join(",")))?;

    let metrics = layers::PER_LAYER
        .iter()
        .map(|d| (d.name, v[d.name]))
        .collect();
    let mut extra: Vec<(String, f64, &'static str)> = vec![
        ("traced_queries".into(), queries, "count"),
        ("measured_wall_s".into(), wall_s, "s"),
        ("engine_traces".into(), bench.traces.len() as f64, "count"),
        ("registry_counters_moved".into(), diff.len() as f64, "count"),
    ];
    for (layer, ns) in bench.spans.self_times() {
        extra.push((format!("self_ms.{layer}"), ns as f64 / 1e6, "ms"));
    }
    let mut record = common_record(ctx, name, "traced");
    w.record(&mut record);
    Ok(Outcome {
        metrics,
        extra,
        record,
        attempted: bench.rec.attempted.max(1),
        failed: bench.rec.failed,
        files: [spans_path, engine_path, diff_path, self_path]
            .iter()
            .map(|p| p.display().to_string())
            .collect(),
    })
}
