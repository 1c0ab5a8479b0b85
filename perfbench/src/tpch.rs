//! The TPC-H side: `lineitem` rows as the reference sees them (parsed by
//! the benchmark from the generator's text), the Q1/Q6-shaped queries and
//! the rotating reporting queries, and their reference folds.

use crate::answer::Rows;
use crate::engine::Prepared;
use crate::flights::{days, parse_date, Interner};
use crate::rng::Rng;
use std::collections::BTreeMap;
use tde_core::exec::expr::{AggFunc, CmpOp, Expr};
use tde_core::pager::PagedTable;
use tde_core::types::Value;
use tde_core::Query;

pub struct Line {
    pub orderkey: i64,
    pub partkey: i64,
    pub suppkey: i64,
    pub linenumber: i64,
    pub quantity: i64,
    pub extprice: f64,
    pub discount: f64,
    pub tax: f64,
    pub returnflag: u16,
    pub linestatus: u16,
    pub ship: i64,
    pub commit: i64,
    pub receipt: i64,
    pub instruct: u16,
    pub mode: u16,
}

pub struct LineData {
    pub rows: Vec<Line>,
    pub strings: Interner,
    pub max_suppkey: i64,
}

impl LineData {
    pub fn parse(text: &str) -> Result<LineData, String> {
        let mut strings = Interner::default();
        let mut rows = Vec::new();
        for line in text.lines() {
            let f: Vec<&str> = line.trim_end_matches('|').split('|').collect();
            if f.len() != 16 {
                return Err(format!("bad lineitem line {line:?}"));
            }
            let int = |s: &str| s.parse::<i64>().map_err(|e| format!("{s:?}: {e}"));
            let real = |s: &str| s.parse::<f64>().map_err(|e| format!("{s:?}: {e}"));
            let date = |s: &str| parse_date(s).ok_or_else(|| format!("bad date {s:?}"));
            rows.push(Line {
                orderkey: int(f[0])?,
                partkey: int(f[1])?,
                suppkey: int(f[2])?,
                linenumber: int(f[3])?,
                quantity: int(f[4])?,
                extprice: real(f[5])?,
                discount: real(f[6])?,
                tax: real(f[7])?,
                returnflag: strings.intern(f[8]),
                linestatus: strings.intern(f[9]),
                ship: date(f[10])?,
                commit: date(f[11])?,
                receipt: date(f[12])?,
                instruct: strings.intern(f[13]),
                mode: strings.intern(f[14]),
            });
        }
        let max_suppkey = rows.iter().map(|r| r.suppkey).max().unwrap_or(1);
        Ok(LineData {
            rows,
            strings,
            max_suppkey,
        })
    }
}

/// A hundredths literal exactly as the text parser reads it.
fn cents(n: i64) -> f64 {
    format!("0.{n:02}").parse().expect("a decimal literal")
}

#[derive(Clone, Debug)]
pub enum Report {
    /// Q1 shape: pricing summary up to a ship-date cutoff.
    Q1 {
        cutoff: i64,
    },
    /// Q6 shape: one year, a discount band and a quantity cap.
    Q6 {
        lo: i64,
        hi: i64,
        dlo: f64,
        dhi: f64,
        qty: i64,
    },
    /// Reporting rotation over the other column groups.
    ShipModes,
    InstructDates,
    SupplierRange {
        below: i64,
    },
    LineNumbers,
    Comments,
    TaxBand {
        max_tax: f64,
    },
}

impl Report {
    /// One round of the mix: two Q1s, a Q6 and the next two reporting
    /// queries of the rotation. Five queries with the Q6 in the middle of
    /// the cost order keep the median inside one query's latencies.
    pub fn round(rng: &mut Rng, data: &LineData, turn: usize) -> Vec<Report> {
        let year = rng.range(1993, 1998);
        let d = rng.range(2, 10);
        let q6 = Report::Q6 {
            lo: days(year, 1, 1),
            hi: days(year + 1, 1, 1),
            dlo: cents(d - 1),
            dhi: cents(d + 1),
            qty: rng.range(20, 30),
        };
        let mut q1 = || Report::Q1 {
            cutoff: days(1998, 12, 1) - rng.range(60, 121),
        };
        let (a, b) = (q1(), q1());
        let r1 = Report::reporting(rng, data, 2 * turn);
        let r2 = Report::reporting(rng, data, 2 * turn + 1);
        vec![a, q6, r1, b, r2]
    }

    /// The `i`-th reporting query of the rotation over the other column
    /// groups.
    fn reporting(rng: &mut Rng, data: &LineData, i: usize) -> Report {
        match i % 6 {
            0 => Report::ShipModes,
            1 => Report::InstructDates,
            2 => Report::SupplierRange {
                below: rng.range(1, data.max_suppkey + 1),
            },
            3 => Report::LineNumbers,
            4 => Report::Comments,
            _ => Report::TaxBand {
                max_tax: cents(rng.range(0, 9)),
            },
        }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Report::Q1 { .. } => "q1",
            Report::Q6 { .. } => "q6",
            Report::ShipModes => "ship_modes",
            Report::InstructDates => "instruct_dates",
            Report::SupplierRange { .. } => "supplier_range",
            Report::LineNumbers => "line_numbers",
            Report::Comments => "comments",
            Report::TaxBand { .. } => "tax_band",
        }
    }

    /// The columns each query reads.
    pub fn columns(&self) -> &'static [&'static str] {
        match self {
            Report::Q1 { .. } => &[
                "l_shipdate",
                "l_returnflag",
                "l_linestatus",
                "l_quantity",
                "l_extendedprice",
            ],
            Report::Q6 { .. } => &["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
            Report::ShipModes => &["l_shipmode", "l_quantity"],
            Report::InstructDates => &["l_shipinstruct", "l_receiptdate", "l_commitdate"],
            Report::SupplierRange { .. } => &["l_suppkey", "l_partkey"],
            Report::LineNumbers => &["l_linenumber", "l_orderkey"],
            Report::Comments => &["l_returnflag", "l_comment"],
            Report::TaxBand { .. } => &["l_tax", "l_linestatus", "l_discount"],
        }
    }

    pub fn query(&self, table: &PagedTable, degree: usize) -> Prepared {
        use AggFunc::*;
        let scan = Query::scan_paged_columns(table, self.columns());
        let and = |a: Expr, b: Expr| Expr::And(Box::new(a), Box::new(b));
        let lit = |v: Value| Expr::Lit(v);
        let q = match self {
            Report::Q1 { cutoff } => scan
                .filter(Expr::cmp(
                    CmpOp::Le,
                    Expr::col(0),
                    lit(Value::Date(*cutoff)),
                ))
                .aggregate(
                    vec![1, 2],
                    vec![(Sum, 3, "qty"), (Sum, 4, "price"), (Count, 3, "lines")],
                ),
            Report::Q6 {
                lo,
                hi,
                dlo,
                dhi,
                qty,
            } => scan
                .filter(and(
                    and(
                        Expr::cmp(CmpOp::Ge, Expr::col(0), lit(Value::Date(*lo))),
                        Expr::cmp(CmpOp::Lt, Expr::col(0), lit(Value::Date(*hi))),
                    ),
                    and(
                        and(
                            Expr::cmp(CmpOp::Ge, Expr::col(1), lit(Value::Real(*dlo))),
                            Expr::cmp(CmpOp::Le, Expr::col(1), lit(Value::Real(*dhi))),
                        ),
                        Expr::cmp(CmpOp::Lt, Expr::col(2), Expr::int(*qty)),
                    ),
                ))
                .aggregate(vec![], vec![(Sum, 3, "revenue"), (Count, 3, "lines")]),
            Report::ShipModes => {
                scan.aggregate(vec![0], vec![(Count, 1, "lines"), (Sum, 1, "qty")])
            }
            Report::InstructDates => {
                scan.aggregate(vec![0], vec![(Max, 1, "last"), (Min, 2, "first")])
            }
            Report::SupplierRange { below } => scan
                .filter(Expr::cmp(CmpOp::Lt, Expr::col(0), Expr::int(*below)))
                .aggregate(vec![], vec![(Count, 1, "lines"), (Sum, 1, "parts")]),
            Report::LineNumbers => {
                scan.aggregate(vec![0], vec![(Count, 1, "lines"), (Max, 1, "order")])
            }
            Report::Comments => scan.aggregate(vec![0], vec![(Count, 1, "comments")]),
            Report::TaxBand { max_tax } => scan
                .filter(Expr::cmp(
                    CmpOp::Le,
                    Expr::col(0),
                    lit(Value::Real(*max_tax)),
                ))
                .aggregate(vec![1], vec![(Count, 2, "lines"), (Max, 2, "discount")]),
        };
        Prepared::Facade(q.with_parallelism(degree))
    }

    pub fn reference(&self, data: &LineData) -> Rows {
        let s = |id: u16| Value::Str(data.strings.name(id).to_owned());
        let rows = data.rows.iter();
        match self {
            Report::Q1 { cutoff } => {
                let mut g: BTreeMap<(u16, u16), (i64, f64, i64)> = BTreeMap::new();
                for r in rows.filter(|r| r.ship <= *cutoff) {
                    let e = g.entry((r.returnflag, r.linestatus)).or_default();
                    e.0 += r.quantity;
                    e.1 += r.extprice;
                    e.2 += 1;
                }
                g.into_iter()
                    .map(|((f, st), (q, p, n))| {
                        vec![s(f), s(st), Value::Int(q), Value::Real(p), Value::Int(n)]
                    })
                    .collect()
            }
            Report::Q6 {
                lo,
                hi,
                dlo,
                dhi,
                qty,
            } => {
                let (mut rev, mut n) = (0.0, 0);
                for r in rows.filter(|r| {
                    r.ship >= *lo
                        && r.ship < *hi
                        && r.discount >= *dlo
                        && r.discount <= *dhi
                        && r.quantity < *qty
                }) {
                    rev += r.extprice;
                    n += 1;
                }
                vec![vec![Value::Real(rev), Value::Int(n)]]
            }
            Report::ShipModes => {
                let mut g: BTreeMap<u16, (i64, i64)> = BTreeMap::new();
                for r in rows {
                    let e = g.entry(r.mode).or_default();
                    e.0 += 1;
                    e.1 += r.quantity;
                }
                g.into_iter()
                    .map(|(k, (n, q))| vec![s(k), Value::Int(n), Value::Int(q)])
                    .collect()
            }
            Report::InstructDates => {
                let mut g: BTreeMap<u16, (i64, i64)> = BTreeMap::new();
                for r in rows {
                    let e = g.entry(r.instruct).or_insert((i64::MIN, i64::MAX));
                    e.0 = e.0.max(r.receipt);
                    e.1 = e.1.min(r.commit);
                }
                g.into_iter()
                    .map(|(k, (mx, mn))| vec![s(k), Value::Date(mx), Value::Date(mn)])
                    .collect()
            }
            Report::SupplierRange { below } => {
                let (mut n, mut parts) = (0, 0);
                for r in rows.filter(|r| r.suppkey < *below) {
                    n += 1;
                    parts += r.partkey;
                }
                vec![vec![Value::Int(n), Value::Int(parts)]]
            }
            Report::LineNumbers => {
                let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
                for r in rows {
                    let e = g.entry(r.linenumber).or_insert((0, i64::MIN));
                    e.0 += 1;
                    e.1 = e.1.max(r.orderkey);
                }
                g.into_iter()
                    .map(|(k, (n, mx))| vec![Value::Int(k), Value::Int(n), Value::Int(mx)])
                    .collect()
            }
            Report::Comments => {
                let mut g: BTreeMap<u16, i64> = BTreeMap::new();
                for r in rows {
                    *g.entry(r.returnflag).or_default() += 1;
                }
                g.into_iter()
                    .map(|(k, n)| vec![s(k), Value::Int(n)])
                    .collect()
            }
            Report::TaxBand { max_tax } => {
                let mut g: BTreeMap<u16, (i64, f64)> = BTreeMap::new();
                for r in rows.filter(|r| r.tax <= *max_tax) {
                    let e = g.entry(r.linestatus).or_insert((0, f64::MIN));
                    e.0 += 1;
                    e.1 = e.1.max(r.discount);
                }
                g.into_iter()
                    .map(|(k, (n, d))| vec![s(k), Value::Int(n), Value::Real(d)])
                    .collect()
            }
        }
    }
}
