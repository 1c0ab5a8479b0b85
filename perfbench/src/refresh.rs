//! `extract_refresh`: writes beside reads. Each cycle imports the Flights
//! CSV (timed, not set-up), saves it as a paged extract and opens that as
//! a `DeltaExtract`; then seeded append/delete/update batches each run a
//! few dashboard panels on the merged view at degree 1, and every
//! `COMPACT_EVERY` batches the delta is compacted and atomically saved.
//! The reference is a row-vector model that takes every mutation
//! alongside the engine. Compaction is explicit — the background
//! `Compactor` polls on a timer, which would make its timing vary.

use crate::dashboard::{generate, import_flights, DATA_SEED};
use crate::engine::Bench;
use crate::flights::{Flight, FlightData, Panel, Source};
use crate::rng::Rng;
use crate::workload::{Ctx, Record, Workload};
use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use tde_core::design::{optimize_physical_design, DesignOptions};
use tde_core::obs::CacheSnapshot;
use tde_core::storage::Column;
use tde_core::Extract;
use tde_delta::{DeltaExtract, ScanSource};

/// Flights rows per imported extract.
pub const ROWS: u64 = 200_000;
/// Mutation batches per import cycle.
const BATCHES_PER_CYCLE: usize = 8;
/// Compact (and save) after every this many batches.
const COMPACT_EVERY: usize = 4;
/// Dashboard panels run after each batch.
const PANELS_PER_BATCH: usize = 3;
const TABLE: &str = "flights";

struct Cycle {
    dx: DeltaExtract,
    /// The reference: row id → row (`None` once deleted), in the delta
    /// store's id space (base rows, then appended slots).
    model: Vec<Option<Flight>>,
    batches: usize,
}

#[derive(Default)]
struct Rates {
    rows: u64,
    ns: f64,
}

pub struct Refresh {
    dir: PathBuf,
    csv: PathBuf,
    data: FlightData,
    cycle: Option<Cycle>,
    rng: Rng,
    panels: Vec<Panel>,
    append: Rates,
    delete: Rates,
    update: Rates,
    merged_overhead: Vec<f64>,
    physical_per_logical: Vec<f64>,
    reencodings: Vec<f64>,
    file_bytes: u64,
    live_csv_bytes: u64,
}

impl Refresh {
    fn file(&self) -> PathBuf {
        self.dir.join("flights.tde")
    }

    /// Import → save → open: a fresh extract and a fresh model.
    fn start_cycle(&mut self, bench: &mut Bench) -> io::Result<()> {
        self.cycle = None;
        let (mut table, reencodings) = import_flights(bench, &self.csv)?;
        self.reencodings.push(reencodings);
        bench.op("storage.design", |_| {
            Ok(optimize_physical_design(
                &mut table,
                DesignOptions::default(),
            ))
        });
        self.physical_per_logical
            .push(table.physical_size() as f64 / table.logical_size() as f64);
        let mut extract = Extract::new();
        extract.add_table(table);
        let file = self.file();
        let ((), ns) = bench
            .op("io.save", |_| extract.save_paged(&file))
            .ok_or_else(|| io::Error::other("extract save failed"))?;
        bench.rec.save_ns.push(ns);
        let (dx, _) = bench
            .op("pager.open", |_| DeltaExtract::open(&file))
            .ok_or_else(|| io::Error::other("extract open failed"))?;
        let model: Vec<Option<Flight>> = self.data.rows.iter().cloned().map(Some).collect();
        self.record_size(bench, &model)?;
        self.cycle = Some(Cycle {
            dx,
            model,
            batches: 0,
        });
        Ok(())
    }

    /// Extract bytes per byte of the CSV rendering of the live rows.
    fn record_size(&mut self, bench: &mut Bench, model: &[Option<Flight>]) -> io::Result<()> {
        self.file_bytes = std::fs::metadata(self.file())?.len();
        self.live_csv_bytes = self.data.header_len
            + model
                .iter()
                .flatten()
                .map(|f| u64::from(f.line_len))
                .sum::<u64>();
        bench
            .rec
            .stored_ratio
            .push(self.file_bytes as f64 / self.live_csv_bytes as f64);
        Ok(())
    }

    /// Distinct live row ids.
    fn pick_live(rng: &mut Rng, model: &[Option<Flight>], n: usize) -> Vec<u64> {
        let mut seen = HashSet::new();
        let mut ids = Vec::with_capacity(n);
        while ids.len() < n {
            let id = rng.below(model.len());
            if model[id].is_some() && seen.insert(id) {
                ids.push(id as u64);
            }
        }
        ids
    }

    /// One seeded append, delete or update batch, applied to the engine
    /// and — when the engine accepted it — to the model.
    fn mutate(&mut self, bench: &mut Bench) {
        let cycle = self.cycle.as_mut().expect("a cycle is running");
        let n = self.rng.range(200, 2001) as usize;
        let kind = self.rng.below(3);
        let dx = &mut cycle.dx;
        let (rates, rows) = match kind {
            0 => {
                let rows: Vec<Flight> = (0..n).map(|_| self.data.new_row(&mut self.rng)).collect();
                let vals: Vec<_> = rows.iter().map(|f| self.data.values(f)).collect();
                let Some(((), ns)) =
                    bench.op("delta.append", |_| dx.delta_mut(TABLE)?.append_rows(&vals))
                else {
                    return;
                };
                cycle.model.extend(rows.into_iter().map(Some));
                (&mut self.append, ns)
            }
            1 => {
                let ids = Self::pick_live(&mut self.rng, &cycle.model, n);
                let Some((_, ns)) = bench.op("delta.delete", |_| dx.delta_mut(TABLE)?.delete(&ids))
                else {
                    return;
                };
                for id in ids {
                    cycle.model[id as usize] = None;
                }
                (&mut self.delete, ns)
            }
            _ => {
                let ids = Self::pick_live(&mut self.rng, &cycle.model, n);
                let rows: Vec<Flight> = (0..n).map(|_| self.data.new_row(&mut self.rng)).collect();
                let vals: Vec<_> = rows.iter().map(|f| self.data.values(f)).collect();
                let Some(((), ns)) =
                    bench.op("delta.update", |_| dx.delta_mut(TABLE)?.update(&ids, &vals))
                else {
                    return;
                };
                for id in ids {
                    cycle.model[id as usize] = None;
                }
                cycle.model.extend(rows.into_iter().map(Some));
                (&mut self.update, ns)
            }
        };
        rates.rows += n as u64;
        rates.ns += rows;
        if bench.recording {
            bench.rec.mutation_rows += n as u64;
            bench.rec.mutation_ns += rows;
        }
    }

    /// Run `panels` on the extract's current view (merged while a delta
    /// is live, the clean paged table after compaction). Returns the
    /// engine time, or `None` when the view could not be opened.
    fn run_panels(&mut self, bench: &mut Bench, panels: &[Panel], degree: usize) -> Option<f64> {
        let cycle = self.cycle.as_ref()?;
        let dx = &cycle.dx;
        let (src, _) = bench.op("delta.snapshot", |_| dx.source(TABLE))?;
        let live = cycle.model.iter().flatten().count() as u64;
        let mut total = 0.0;
        for p in panels {
            let source = match &src {
                ScanSource::Merged(m) => Source::Merged(m),
                ScanSource::Clean(t) => Source::Paged(t),
            };
            let q = p.query(&source, &self.data.strings, degree);
            let model = &cycle.model;
            let strings = &self.data.strings;
            total += bench
                .query(p.label(), q, live, || {
                    p.reference(model.iter().flatten(), strings)
                })
                .unwrap_or(0.0);
        }
        Some(total)
    }

    fn probe_panels(&self) -> Vec<Panel> {
        Panel::round(&mut Rng::fork(0, 0xE11), &self.data)
    }

    fn compact_and_save(&mut self, bench: &mut Bench) {
        let probe = self.probe_panels();
        let traced = bench.spans.on();
        let before = if traced {
            self.run_panels(bench, &probe, 1)
        } else {
            None
        };
        let cycle = self.cycle.as_mut().expect("a cycle is running");
        let dx = &mut cycle.dx;
        let Some((table, ns)) = bench.op("delta.compact", |_| dx.delta_mut(TABLE)?.compact())
        else {
            self.cycle = None;
            return;
        };
        bench.rec.compact_ns.push(ns);
        self.physical_per_logical
            .push(table.physical_size() as f64 / table.logical_size() as f64);
        let Some(((), ns)) = bench.op("io.save", |_| dx.save()) else {
            self.cycle = None;
            return;
        };
        bench.rec.save_ns.push(ns);
        cycle.model.retain(Option::is_some);
        let model = std::mem::take(&mut cycle.model);
        let sized = self.record_size(bench, &model);
        self.cycle.as_mut().expect("still running").model = model;
        if let Err(e) = sized {
            bench.rec.fail("extract size", e.to_string());
        }
        if let Some(before) = before {
            if let Some(after) = self.run_panels(bench, &probe, 1) {
                if after > 0.0 {
                    self.merged_overhead.push(before / after);
                }
            }
        }
    }
}

impl Workload for Refresh {
    fn setup(ctx: &Ctx, bench: &mut Bench, dir: &Path) -> io::Result<Refresh> {
        let (csv, data) = generate(bench, dir, ROWS, DATA_SEED)?;
        Ok(Refresh {
            dir: dir.to_path_buf(),
            csv,
            data,
            cycle: None,
            rng: Rng::fork(ctx.seed, 3),
            panels: Vec::new(),
            append: Rates::default(),
            delete: Rates::default(),
            update: Rates::default(),
            merged_overhead: Vec::new(),
            physical_per_logical: Vec::new(),
            reencodings: Vec::new(),
            file_bytes: 0,
            live_csv_bytes: 0,
        })
    }

    fn step(&mut self, _ctx: &Ctx, bench: &mut Bench) {
        let done = self
            .cycle
            .as_ref()
            .is_none_or(|c| c.batches >= BATCHES_PER_CYCLE);
        if done {
            if let Err(e) = self.start_cycle(bench) {
                bench.rec.fail("refresh cycle", e.to_string());
            }
            return;
        }
        self.mutate(bench);
        let mut panels = Vec::with_capacity(PANELS_PER_BATCH);
        for _ in 0..PANELS_PER_BATCH {
            if self.panels.is_empty() {
                self.panels = Panel::round(&mut self.rng, &self.data);
            }
            panels.push(self.panels.pop().expect("a round has panels"));
        }
        self.run_panels(bench, &panels, 1);
        let cycle = self.cycle.as_mut().expect("a cycle is running");
        cycle.batches += 1;
        if cycle.batches.is_multiple_of(COMPACT_EVERY) {
            self.compact_and_save(bench);
        }
    }

    fn probe(&mut self, bench: &mut Bench, degree: usize) -> f64 {
        if self.cycle.is_none() {
            if let Err(e) = self.start_cycle(bench) {
                bench.rec.fail("refresh cycle", e.to_string());
                return 0.0;
            }
        }
        let panels = self.probe_panels();
        self.run_panels(bench, &panels, degree).unwrap_or(0.0)
    }

    fn touched_columns(&self) -> io::Result<Vec<Arc<Column>>> {
        let Some(cycle) = &self.cycle else {
            return Ok(Vec::new());
        };
        let table = cycle
            .dx
            .database()
            .table(TABLE)
            .ok_or_else(|| io::Error::other("flights table missing"))?;
        const UNUSED: [&str; 3] = ["flight_num", "tail_num", "crs_dep_time"];
        table
            .column_names()
            .iter()
            .filter(|c| !UNUSED.contains(c))
            .map(|c| table.column(c))
            .collect()
    }

    fn pool(&self) -> Option<CacheSnapshot> {
        self.cycle
            .as_ref()
            .map(|c| c.dx.database().cache_snapshot())
    }

    fn record(&self, rec: &mut Record) {
        rec.push(("rows", ROWS.to_string()));
        rec.push((
            "csv_bytes",
            std::fs::metadata(&self.csv)
                .map_or(0, |m| m.len())
                .to_string(),
        ));
        rec.push(("live_csv_bytes", self.live_csv_bytes.to_string()));
        rec.push(("extract_bytes", self.file_bytes.to_string()));
        rec.push(("file_bytes", self.file_bytes.to_string()));
        let budget = self.pool().map_or(0, |p| p.budget_bytes);
        rec.push(("pool_budget_bytes", budget.to_string()));
        rec.push(("batches_per_cycle", BATCHES_PER_CYCLE.to_string()));
        rec.push(("compact_every", COMPACT_EVERY.to_string()));
        rec.push((
            "storage",
            "\"v3 paged extract + delta store, fsync+rename saves\"".into(),
        ));
    }

    fn layer_values(&mut self, out: &mut BTreeMap<&'static str, f64>) {
        let rate = |r: &Rates| {
            if r.ns > 0.0 {
                r.rows as f64 / (r.ns / 1e9)
            } else {
                0.0
            }
        };
        out.insert("delta.append_rows_per_s", rate(&self.append));
        out.insert("delta.delete_rows_per_s", rate(&self.delete));
        out.insert("delta.update_rows_per_s", rate(&self.update));
        out.insert(
            "delta.merged_overhead",
            crate::stats::median(&self.merged_overhead),
        );
        out.insert(
            "storage.physical_per_logical",
            crate::stats::median(&self.physical_per_logical),
        );
        out.insert(
            "storage.reencodings",
            crate::stats::median(&self.reencodings),
        );
    }
}
