//! `tpch_paged`: TPC-H `lineitem` saved as a v3 paged file and reopened
//! with a buffer-pool budget well below the bytes its query mix touches,
//! so segments are evicted and demand-loaded again in steady state.
//! Bypasses invisible joins and the delta store.

use crate::engine::Bench;
use crate::rng::Rng;
use crate::tpch::{LineData, Report};
use crate::workload::{Ctx, Record, Workload};
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;
use tde_core::datagen::tpch::{self, TpchTable};
use tde_core::obs::CacheSnapshot;
use tde_core::pager::{PagedDatabase, PagedTable, PoolConfig};
use tde_core::storage::Column;
use tde_core::textscan::{import_file, ImportOptions};
use tde_core::Extract;

/// TPC-H scale factor: 600,126 `lineitem` rows.
pub const SCALE: f64 = 0.1;
/// The generator seed of the `lineitem` data (fixed, see
/// `dashboard::DATA_SEED`).
const DATA_SEED: u64 = 42;
/// Buffer-pool budget, far below the ~29 MB the mix touches.
pub const BUDGET_BYTES: u64 = 8 << 20;

pub struct Paged {
    data: LineData,
    file: PathBuf,
    db: PagedDatabase,
    table: PagedTable,
    tbl_bytes: u64,
    file_bytes: u64,
    physical_per_logical: f64,
    reencodings: f64,
    rng: Rng,
    turn: usize,
    queue: Vec<Report>,
}

fn pool_config() -> PoolConfig {
    PoolConfig {
        budget_bytes: BUDGET_BYTES,
        ..PoolConfig::default()
    }
}

impl Workload for Paged {
    fn setup(ctx: &Ctx, bench: &mut Bench, dir: &Path) -> io::Result<Paged> {
        let tbl = bench.spans.time("datagen", |_| {
            tpch::write_table(dir, TpchTable::Lineitem, SCALE, DATA_SEED)
        })?;
        let data = LineData::parse(&std::fs::read_to_string(&tbl)?).map_err(io::Error::other)?;
        let opts = ImportOptions {
            schema: Some(
                TpchTable::Lineitem
                    .schema()
                    .into_iter()
                    .map(|(n, t)| (n.to_owned(), t))
                    .collect(),
            ),
            has_header: Some(false),
            table_name: "lineitem".into(),
            ..Default::default()
        };
        let (result, ns) = bench
            .op("textscan.import", |_| import_file(&tbl, &opts))
            .ok_or_else(|| io::Error::other("lineitem import failed"))?;
        bench
            .rec
            .imports
            .push((result.table.row_count(), result.bytes_read, ns));
        let physical_per_logical =
            result.table.physical_size() as f64 / result.table.logical_size() as f64;
        let reencodings = result.reencodings.iter().map(|(_, n)| f64::from(*n)).sum();
        let mut extract = Extract::new();
        extract.add_table(result.table);
        let file = dir.join("lineitem.tde");
        let ((), ns) = bench
            .op("io.save", |_| extract.save_paged(&file))
            .ok_or_else(|| io::Error::other("lineitem save failed"))?;
        bench.rec.save_ns.push(ns);
        drop(extract);
        let (db, _) = bench
            .op("pager.open", |_| {
                PagedDatabase::open_with(&file, pool_config())
            })
            .ok_or_else(|| io::Error::other("lineitem open failed"))?;
        let table = db.table("lineitem").expect("saved table is listed");
        let tbl_bytes = std::fs::metadata(&tbl)?.len();
        let file_bytes = std::fs::metadata(&file)?.len();
        bench
            .rec
            .stored_ratio
            .push(file_bytes as f64 / tbl_bytes as f64);
        Ok(Paged {
            data,
            file,
            db,
            table,
            tbl_bytes,
            file_bytes,
            physical_per_logical,
            reencodings,
            rng: Rng::fork(ctx.seed, 2),
            turn: 0,
            queue: Vec::new(),
        })
    }

    fn step(&mut self, ctx: &Ctx, bench: &mut Bench) {
        if self.queue.is_empty() {
            self.queue = Report::round(&mut self.rng, &self.data, self.turn);
            self.queue.reverse();
            self.turn += 1;
        }
        let report = self.queue.pop().expect("a round has queries");
        let q = report.query(&self.table, ctx.degree);
        let data = &self.data;
        bench.query(report.label(), q, self.table.row_count(), || {
            report.reference(data)
        });
    }

    fn probe(&mut self, bench: &mut Bench, degree: usize) -> f64 {
        // Q1, Q6 and each reporting query once.
        let mut rng = Rng::fork(0, 0x7C4);
        let mut reports: Vec<Report> = (0..3)
            .flat_map(|turn| Report::round(&mut rng, &self.data, turn))
            .filter(|r| !matches!(r, Report::Q1 { .. } | Report::Q6 { .. }))
            .collect();
        reports.extend(Report::round(&mut rng, &self.data, 0).into_iter().take(2));
        reports
            .iter()
            .filter_map(|r| {
                let q = r.query(&self.table, degree);
                bench.query(r.label(), q, 0, || r.reference(&self.data))
            })
            .sum()
    }

    fn touched_columns(&self) -> io::Result<Vec<Arc<Column>>> {
        self.table
            .column_names()
            .iter()
            .map(|c| self.table.column(c))
            .collect()
    }

    fn pool(&self) -> Option<CacheSnapshot> {
        Some(self.db.cache_snapshot())
    }

    fn record(&self, rec: &mut Record) {
        let touched: u64 = self
            .table
            .column_names()
            .iter()
            .filter_map(|c| self.table.column_dir(c))
            .map(|d| d.stream.len + d.dict.map_or(0, |e| e.len) + d.heap.map_or(0, |e| e.len))
            .sum();
        rec.push(("rows", self.table.row_count().to_string()));
        rec.push(("csv_bytes", self.tbl_bytes.to_string()));
        rec.push(("extract_bytes", self.file_bytes.to_string()));
        rec.push(("file_bytes", self.file_bytes.to_string()));
        rec.push(("pool_budget_bytes", BUDGET_BYTES.to_string()));
        rec.push(("pool_shards", pool_config().shards.to_string()));
        rec.push(("touched_bytes", touched.to_string()));
        rec.push((
            "touched_over_budget",
            format!("{:.3}", touched as f64 / BUDGET_BYTES as f64),
        ));
        rec.push((
            "storage",
            "\"v3 paged file through the buffer pool\"".into(),
        ));
    }

    fn layer_values(&mut self, out: &mut BTreeMap<&'static str, f64>) {
        let opens: Vec<f64> = (0..5)
            .filter_map(|_| {
                let t0 = Instant::now();
                let db = PagedDatabase::open_with(&self.file, pool_config()).ok()?;
                let ns = t0.elapsed().as_nanos() as f64;
                drop(db);
                Some(ns)
            })
            .collect();
        out.insert("pager.open_ns", crate::stats::median(&opens));
        out.insert("storage.physical_per_logical", self.physical_per_logical);
        out.insert("storage.reencodings", self.reencodings);
    }
}
