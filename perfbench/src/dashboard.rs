//! `flights_dashboard`: an in-memory, eager Flights extract after the
//! physical-design pass, queried by one client with seeded dashboard
//! rounds at full query parallelism. Never touches the pager, the I/O
//! layer or the delta store.

use crate::engine::Bench;
use crate::flights::{FlightData, Panel, Source, COLUMNS};
use crate::rng::Rng;
use crate::workload::{Ctx, Record, Workload};
use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::Arc;
use tde_core::design::{optimize_physical_design, DesignOptions};
use tde_core::obs::CacheSnapshot;
use tde_core::storage::{Column, Table};
use tde_core::textscan::{import_file, ImportOptions};

/// Flights rows generated per set-up.
pub const ROWS: u64 = 500_000;
/// The generator seed of the Flights data. The data set is fixed, like
/// a TPC-H scale factor; `--seed` drives everything the client sends
/// (panel order, literals, mutation batches). Import and query costs
/// move by up to 20% between generated data sets, which would swamp
/// the run-to-run spread the bounds are set from.
pub const DATA_SEED: u64 = 7;

pub struct Dashboard {
    data: FlightData,
    table: Arc<Table>,
    csv_bytes: u64,
    reencodings: f64,
    rng: Rng,
    queue: Vec<Panel>,
}

/// Import a Flights CSV as the `flights` table (timed, recorded).
pub fn import_flights(bench: &mut Bench, csv: &Path) -> io::Result<(Table, f64)> {
    let opts = ImportOptions {
        table_name: "flights".into(),
        ..Default::default()
    };
    let (result, ns) = bench
        .op("textscan.import", |_| import_file(csv, &opts))
        .ok_or_else(|| io::Error::other("flights import failed"))?;
    bench
        .rec
        .imports
        .push((result.table.row_count(), result.bytes_read, ns));
    let reencodings = result.reencodings.iter().map(|(_, n)| f64::from(*n)).sum();
    Ok((result.table, reencodings))
}

/// Generate a Flights CSV from the seed and parse it for the reference.
pub fn generate(
    bench: &mut Bench,
    dir: &Path,
    rows: u64,
    seed: u64,
) -> io::Result<(std::path::PathBuf, FlightData)> {
    let csv = dir.join("flights.csv");
    bench.spans.time("datagen", |_| {
        tde_core::datagen::flights::write_file(&csv, rows, seed)
    })?;
    let text = std::fs::read_to_string(&csv)?;
    let data = FlightData::parse(&text).map_err(io::Error::other)?;
    Ok((csv, data))
}

impl Workload for Dashboard {
    fn setup(ctx: &Ctx, bench: &mut Bench, dir: &Path) -> io::Result<Dashboard> {
        let (csv, data) = generate(bench, dir, ROWS, DATA_SEED)?;
        let csv_bytes = std::fs::metadata(&csv)?.len();
        let (mut table, reencodings) = import_flights(bench, &csv)?;
        bench.op("storage.design", |_| {
            Ok(optimize_physical_design(
                &mut table,
                DesignOptions::default(),
            ))
        });
        bench
            .rec
            .stored_ratio
            .push(table.physical_size() as f64 / csv_bytes as f64);
        Ok(Dashboard {
            data,
            table: Arc::new(table),
            csv_bytes,
            reencodings,
            rng: Rng::fork(ctx.seed, 1),
            queue: Vec::new(),
        })
    }

    fn step(&mut self, ctx: &Ctx, bench: &mut Bench) {
        if self.queue.is_empty() {
            self.queue = Panel::round(&mut self.rng, &self.data);
        }
        let panel = self.queue.pop().expect("a round has panels");
        let q = panel.query(&Source::Eager(&self.table), &self.data.strings, ctx.degree);
        let data = &self.data;
        bench.query(panel.label(), q, self.table.row_count(), || {
            panel.reference(data.rows.iter(), &data.strings)
        });
    }

    fn probe(&mut self, bench: &mut Bench, degree: usize) -> f64 {
        let panels = Panel::round(&mut Rng::fork(0, 0xD45B), &self.data);
        let data = &self.data;
        panels
            .iter()
            .filter_map(|p| {
                let q = p.query(&Source::Eager(&self.table), &data.strings, degree);
                bench.query(p.label(), q, 0, || {
                    p.reference(data.rows.iter(), &data.strings)
                })
            })
            .sum()
    }

    fn touched_columns(&self) -> io::Result<Vec<Arc<Column>>> {
        Ok(touched(&self.table))
    }

    fn pool(&self) -> Option<CacheSnapshot> {
        None
    }

    fn record(&self, rec: &mut Record) {
        let touched: u64 = touched(&self.table).iter().map(|c| c.physical_size()).sum();
        rec.push(("rows", self.table.row_count().to_string()));
        rec.push(("csv_bytes", self.csv_bytes.to_string()));
        rec.push(("extract_bytes", self.table.physical_size().to_string()));
        rec.push(("file_bytes", "0".into()));
        rec.push(("pool_budget_bytes", "0".into()));
        rec.push(("touched_bytes", touched.to_string()));
        rec.push(("storage", "\"eager in-memory, no buffer pool\"".into()));
    }

    fn layer_values(&mut self, out: &mut BTreeMap<&'static str, f64>) {
        out.insert(
            "storage.physical_per_logical",
            self.table.physical_size() as f64 / self.table.logical_size() as f64,
        );
        out.insert("storage.reencodings", self.reencodings);
    }
}

/// The columns the panels read.
fn touched(table: &Table) -> Vec<Arc<Column>> {
    const UNUSED: [&str; 3] = ["flight_num", "tail_num", "crs_dep_time"];
    COLUMNS
        .iter()
        .filter(|c| !UNUSED.contains(c))
        .filter_map(|c| table.column(c).cloned().map(Arc::new))
        .collect()
}
