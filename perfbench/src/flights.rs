//! The Flights side of the benchmark: the generated rows as the
//! reference sees them (parsed from the CSV by the benchmark itself, no
//! engine calls), the dashboard panel templates, and each panel's
//! reference answer as a row-level fold.

use crate::answer::Rows;
use crate::engine::Prepared;
use crate::rng::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use tde_core::exec::expr::{AggFunc, CmpOp, Expr, Func};
use tde_core::exec::merged_scan::MergedSource;
use tde_core::pager::PagedTable;
use tde_core::plan::logical::{InnerOps, LogicalPlan};
use tde_core::plan::strategic::OptimizerOptions;
use tde_core::storage::Table;
use tde_core::types::Value;
use tde_core::Query;

/// Days since 1970-01-01 of a civil date (proleptic Gregorian).
pub fn days(y: i64, m: i64, d: i64) -> i64 {
    let y = y - i64::from(m <= 2);
    let era = y.div_euclid(400);
    let yoe = y - era * 400;
    let doy = (153 * ((m + 9) % 12) + 2) / 5 + d - 1;
    era * 146_097 + yoe * 365 + yoe / 4 - yoe / 100 + doy - 719_468
}

/// Month (1–12) of a days-since-epoch date.
pub fn month_of(days: i64) -> i64 {
    let z = days + 719_468;
    let doe = z - z.div_euclid(146_097) * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    if mp < 10 {
        mp + 3
    } else {
        mp - 9
    }
}

/// `YYYY-MM-DD` → days since the epoch.
pub fn parse_date(s: &str) -> Option<i64> {
    let mut it = s.splitn(3, '-').map(|p| p.parse::<i64>().ok());
    Some(days(it.next()??, it.next()??, it.next()??))
}

/// Small string domains interned to ids.
#[derive(Default, Clone)]
pub struct Interner {
    ids: HashMap<String, u16>,
    names: Vec<String>,
}

impl Interner {
    pub fn intern(&mut self, s: &str) -> u16 {
        if let Some(&id) = self.ids.get(s) {
            return id;
        }
        let id = u16::try_from(self.names.len()).expect("string domains stay small");
        self.ids.insert(s.to_owned(), id);
        self.names.push(s.to_owned());
        id
    }

    pub fn name(&self, id: u16) -> &str {
        &self.names[id as usize]
    }
}

/// One generated flight, as the reference holds it.
#[derive(Clone, Debug)]
pub struct Flight {
    pub date: i64,
    pub carrier: u16,
    pub flight_num: i64,
    pub tail: u16,
    pub origin: u16,
    pub dest: u16,
    pub dep_time: i64,
    pub dep_delay: i64,
    pub arr_delay: i64,
    pub distance: i64,
    pub cancelled: bool,
    /// Bytes of this row's CSV line, newline included.
    pub line_len: u32,
}

pub const COLUMNS: [&str; 11] = [
    "flight_date",
    "carrier",
    "flight_num",
    "tail_num",
    "origin",
    "dest",
    "crs_dep_time",
    "dep_delay",
    "arr_delay",
    "distance",
    "cancelled",
];

/// The generated rows plus the string domains they reference.
#[derive(Clone)]
pub struct FlightData {
    pub rows: Vec<Flight>,
    pub strings: Interner,
    pub header_len: u64,
    /// First and last generated date (the generator emits date order).
    date_lo: i64,
    date_hi: i64,
    pub carriers: Vec<u16>,
    pub airports: Vec<u16>,
    pub tails: Vec<u16>,
}

impl FlightData {
    /// Parse the generator's CSV text.
    pub fn parse(text: &str) -> Result<FlightData, String> {
        let mut lines = text.lines();
        let header = lines.next().ok_or("empty flights file")?;
        let mut strings = Interner::default();
        let mut rows = Vec::new();
        for line in lines {
            let f: Vec<&str> = line.split(',').collect();
            if f.len() != COLUMNS.len() {
                return Err(format!("bad flights line {line:?}"));
            }
            let int = |s: &str| s.parse::<i64>().map_err(|e| format!("{s:?}: {e}"));
            rows.push(Flight {
                date: parse_date(f[0]).ok_or_else(|| format!("bad date {:?}", f[0]))?,
                carrier: strings.intern(f[1]),
                flight_num: int(f[2])?,
                tail: strings.intern(f[3]),
                origin: strings.intern(f[4]),
                dest: strings.intern(f[5]),
                dep_time: int(f[6])?,
                dep_delay: int(f[7])?,
                arr_delay: int(f[8])?,
                distance: int(f[9])?,
                cancelled: f[10] == "true",
                line_len: line.len() as u32 + 1,
            });
        }
        let distinct = |pick: fn(&Flight) -> u16| {
            let mut v: Vec<u16> = rows.iter().map(pick).collect();
            v.sort_unstable();
            v.dedup();
            v
        };
        let carriers = distinct(|r| r.carrier);
        let mut airports = distinct(|r| r.origin);
        airports.extend(distinct(|r| r.dest));
        airports.sort_unstable();
        airports.dedup();
        let tails = distinct(|r| r.tail);
        Ok(FlightData {
            header_len: header.len() as u64 + 1,
            date_lo: rows.first().map_or(0, |r| r.date),
            date_hi: rows.last().map_or(0, |r| r.date),
            rows,
            strings,
            carriers,
            airports,
            tails,
        })
    }

    /// A new row image in the generator's value domains (appends and
    /// update images of the refresh workload).
    pub fn new_row(&self, rng: &mut Rng) -> Flight {
        let (lo, hi) = self.date_span();
        let carrier = self.carriers[rng.below(self.carriers.len())];
        let origin = self.airports[rng.below(self.airports.len())];
        let mut dest = self.airports[rng.below(self.airports.len())];
        if dest == origin {
            dest = self.airports[(self.airports.iter().position(|&a| a == origin).unwrap_or(0)
                + 1)
                % self.airports.len()];
        }
        let cancelled = rng.chance(0.02);
        let dep_delay = if cancelled { 0 } else { rng.range(-10, 120) };
        let mut f = Flight {
            date: rng.range(lo, hi + 1),
            carrier,
            flight_num: rng.range(1, 7000),
            tail: self.tails[rng.below(self.tails.len())],
            origin,
            dest,
            dep_time: rng.range(5, 23) * 100 + rng.range(0, 60),
            dep_delay,
            arr_delay: if cancelled {
                0
            } else {
                dep_delay + rng.range(-15, 30)
            },
            distance: rng.range(100, 2800),
            cancelled,
            line_len: 0,
        };
        f.line_len = self.csv_line(&f).len() as u32;
        f
    }

    /// The row as the generator would render it.
    pub fn csv_line(&self, f: &Flight) -> String {
        let (y, m, d) = civil(f.date);
        let s = |id| self.strings.name(id);
        format!(
            "{y:04}-{m:02}-{d:02},{},{},{},{},{},{},{},{},{},{}\n",
            s(f.carrier),
            f.flight_num,
            s(f.tail),
            s(f.origin),
            s(f.dest),
            f.dep_time,
            f.dep_delay,
            f.arr_delay,
            f.distance,
            f.cancelled
        )
    }

    /// The row as engine values, in schema order.
    pub fn values(&self, f: &Flight) -> Vec<Value> {
        let s = |id| Value::Str(self.strings.name(id).to_owned());
        vec![
            Value::Date(f.date),
            s(f.carrier),
            Value::Int(f.flight_num),
            s(f.tail),
            s(f.origin),
            s(f.dest),
            Value::Int(f.dep_time),
            Value::Int(f.dep_delay),
            Value::Int(f.arr_delay),
            Value::Int(f.distance),
            Value::Bool(f.cancelled),
        ]
    }

    pub fn date_span(&self) -> (i64, i64) {
        (self.date_lo, self.date_hi)
    }
}

fn civil(days: i64) -> (i64, i64, i64) {
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    (yoe + era * 400 + i64::from(m <= 2), m, d)
}

#[derive(Clone, Copy, Debug)]
pub enum Measure {
    DepDelay,
    ArrDelay,
    Distance,
}

impl Measure {
    fn draw(rng: &mut Rng) -> Measure {
        [Measure::DepDelay, Measure::ArrDelay, Measure::Distance][rng.below(3)]
    }

    fn column(self) -> &'static str {
        match self {
            Measure::DepDelay => "dep_delay",
            Measure::ArrDelay => "arr_delay",
            Measure::Distance => "distance",
        }
    }

    fn of(self, f: &Flight) -> i64 {
        match self {
            Measure::DepDelay => f.dep_delay,
            Measure::ArrDelay => f.arr_delay,
            Measure::Distance => f.distance,
        }
    }
}

/// One dashboard panel with its seeded literals.
#[derive(Clone, Debug)]
pub enum Panel {
    /// Flights and worst value per carrier.
    CarrierStats { measure: Measure },
    /// A date-range filter: the invisible join on the date dictionary.
    DateRange { lo: i64, hi: i64 },
    /// Flights per month, the month computed on the date domain.
    MonthRollup { measure: Measure },
    /// Origin × destination rollup.
    OriginDest,
    /// One carrier's flights above a departure-delay threshold.
    CarrierDelay { carrier: u16, threshold: i64 },
    /// Cancelled flights per carrier (a filter on the RLE `cancelled`
    /// column). No literal: the other flag value selects 98% of the rows
    /// and would make this panel's cost depend on a coin flip.
    Cancelled,
}

/// Where panels read from.
pub enum Source<'a> {
    Eager(&'a Arc<Table>),
    Merged(&'a Arc<MergedSource>),
    Paged(&'a PagedTable),
}

impl Source<'_> {
    fn scan(&self, cols: &[&str]) -> Query {
        match self {
            Source::Eager(t) => Query::scan_columns(t, cols),
            Source::Merged(m) => Query::scan_delta_columns(m, cols),
            Source::Paged(p) => Query::scan_paged_columns(p, cols),
        }
    }
}

impl Panel {
    /// One dashboard refresh: every panel once plus a second date-range
    /// filter (the panel users drive most), in a seeded order. Seven
    /// panels, an odd count, keep the median inside one panel's
    /// latencies instead of on the gap between two.
    pub fn round(rng: &mut Rng, data: &FlightData) -> Vec<Panel> {
        let mut v = vec![
            Panel::CarrierStats {
                measure: Measure::draw(rng),
            },
            Panel::date_range(rng, data),
            Panel::date_range(rng, data),
            Panel::MonthRollup {
                measure: Measure::draw(rng),
            },
            Panel::OriginDest,
            Panel::CarrierDelay {
                carrier: data.carriers[rng.below(data.carriers.len())],
                threshold: rng.range(0, 100),
            },
            Panel::Cancelled,
        ];
        rng.shuffle(&mut v);
        v
    }

    fn date_range(rng: &mut Rng, data: &FlightData) -> Panel {
        let (first, last) = data.date_span();
        let len = rng.range(7, 181);
        let lo = rng.range(first, (last - len).max(first + 1));
        Panel::DateRange { lo, hi: lo + len }
    }

    pub fn label(&self) -> &'static str {
        match self {
            Panel::CarrierStats { .. } => "carrier_stats",
            Panel::DateRange { .. } => "date_range",
            Panel::MonthRollup { .. } => "month_rollup",
            Panel::OriginDest => "origin_dest",
            Panel::CarrierDelay { .. } => "carrier_delay",
            Panel::Cancelled => "cancelled",
        }
    }

    pub fn query(&self, src: &Source, strings: &Interner, degree: usize) -> Prepared {
        use AggFunc::*;
        let q = match self {
            Panel::CarrierStats { measure } => src
                .scan(&["carrier", measure.column()])
                .aggregate(vec![0], vec![(Count, 1, "flights"), (Max, 1, "worst")]),
            Panel::DateRange { lo, hi } => src
                .scan(&["flight_date", "dep_delay"])
                .filter(Expr::And(
                    Box::new(Expr::cmp(
                        CmpOp::Ge,
                        Expr::col(0),
                        Expr::Lit(Value::Date(*lo)),
                    )),
                    Box::new(Expr::cmp(
                        CmpOp::Lt,
                        Expr::col(0),
                        Expr::Lit(Value::Date(*hi)),
                    )),
                ))
                .aggregate(vec![], vec![(Count, 1, "flights"), (Sum, 1, "delay")]),
            Panel::MonthRollup { measure } => {
                if let Source::Eager(t) = src {
                    return month_on_domain(t, *measure, degree);
                }
                src.scan(&["flight_date", measure.column()])
                    .project(vec![
                        (
                            "month".into(),
                            Expr::Func(Func::Month, Box::new(Expr::col(0))),
                        ),
                        ("v".into(), Expr::col(1)),
                    ])
                    .aggregate(vec![0], vec![(Count, 1, "flights"), (Sum, 1, "total")])
            }
            Panel::OriginDest => src
                .scan(&["origin", "dest", "distance"])
                .aggregate(vec![0, 1], vec![(Count, 2, "flights"), (Sum, 2, "miles")]),
            Panel::CarrierDelay { carrier, threshold } => src
                .scan(&["carrier", "dep_delay", "arr_delay"])
                .filter(Expr::And(
                    Box::new(Expr::cmp(
                        CmpOp::Eq,
                        Expr::col(0),
                        Expr::Lit(Value::Str(strings.name(*carrier).to_owned())),
                    )),
                    Box::new(Expr::cmp(CmpOp::Gt, Expr::col(1), Expr::int(*threshold))),
                ))
                .aggregate(vec![], vec![(Count, 2, "flights"), (Sum, 2, "arr")]),
            Panel::Cancelled => src
                .scan(&["cancelled", "carrier"])
                .filter(Expr::cmp(
                    CmpOp::Eq,
                    Expr::col(0),
                    Expr::Lit(Value::Bool(true)),
                ))
                .aggregate(vec![1], vec![(Count, 1, "flights")]),
        };
        Prepared::Facade(q.with_parallelism(degree))
    }

    /// The reference answer: a fold over the live rows.
    pub fn reference<'a>(
        &self,
        rows: impl Iterator<Item = &'a Flight>,
        strings: &Interner,
    ) -> Rows {
        let s = |id: u16| Value::Str(strings.name(id).to_owned());
        match self {
            Panel::CarrierStats { measure } => {
                let mut g: BTreeMap<u16, (i64, i64)> = BTreeMap::new();
                for r in rows {
                    let e = g.entry(r.carrier).or_insert((0, i64::MIN));
                    e.0 += 1;
                    e.1 = e.1.max(measure.of(r));
                }
                g.into_iter()
                    .map(|(k, (n, mx))| vec![s(k), Value::Int(n), Value::Int(mx)])
                    .collect()
            }
            Panel::DateRange { lo, hi } => {
                let (mut n, mut sum) = (0, 0);
                for r in rows.filter(|r| r.date >= *lo && r.date < *hi) {
                    n += 1;
                    sum += r.dep_delay;
                }
                vec![vec![Value::Int(n), Value::Int(sum)]]
            }
            Panel::MonthRollup { measure } => {
                let mut g: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
                for r in rows {
                    let e = g.entry(month_of(r.date)).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += measure.of(r);
                }
                g.into_iter()
                    .map(|(m, (n, t))| vec![Value::Int(m), Value::Int(n), Value::Int(t)])
                    .collect()
            }
            Panel::OriginDest => {
                let mut g: HashMap<(u16, u16), (i64, i64)> = HashMap::new();
                for r in rows {
                    let e = g.entry((r.origin, r.dest)).or_insert((0, 0));
                    e.0 += 1;
                    e.1 += r.distance;
                }
                g.into_iter()
                    .map(|((o, d), (n, m))| vec![s(o), s(d), Value::Int(n), Value::Int(m)])
                    .collect()
            }
            Panel::CarrierDelay { carrier, threshold } => {
                let (mut n, mut sum) = (0, 0);
                for r in rows.filter(|r| r.carrier == *carrier && r.dep_delay > *threshold) {
                    n += 1;
                    sum += r.arr_delay;
                }
                vec![vec![Value::Int(n), Value::Int(sum)]]
            }
            Panel::Cancelled => {
                let mut g: BTreeMap<u16, i64> = BTreeMap::new();
                for r in rows.filter(|r| r.cancelled) {
                    *g.entry(r.carrier).or_insert(0) += 1;
                }
                g.into_iter()
                    .map(|(k, n)| vec![s(k), Value::Int(n)])
                    .collect()
            }
        }
    }
}

/// Month per flight computed on the date dictionary's domain (a few
/// thousand days) and joined back through the invisible join — the
/// paper's §3.4.3 motivation, built as a plan the optimizer still sees.
fn month_on_domain(table: &Arc<Table>, measure: Measure, degree: usize) -> Prepared {
    let date_col = table
        .column_index("flight_date")
        .expect("flights has a date column");
    let plan = LogicalPlan::Aggregate {
        input: Box::new(LogicalPlan::ExpandJoin {
            outer: Box::new(
                tde_core::plan::PlanBuilder::scan_columns(
                    table,
                    &["flight_date", measure.column()],
                )
                .build(),
            ),
            column: 0,
            source: (Arc::clone(table), date_col),
            inner: InnerOps {
                filter: None,
                compute: Some((
                    "month".into(),
                    Expr::Func(Func::Month, Box::new(Expr::col(1))),
                )),
            },
        }),
        group_by: vec![0],
        aggs: vec![
            tde_core::exec::aggregate::AggSpec::new(AggFunc::Count, 1, "flights"),
            tde_core::exec::aggregate::AggSpec::new(AggFunc::Sum, 1, "total"),
        ],
    };
    Prepared::Plan(
        plan,
        OptimizerOptions {
            parallelism: degree,
            ..OptimizerOptions::default()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_dates_round_trip() {
        for d in [days(1998, 1, 1), days(2000, 2, 29), days(2007, 12, 31), 0] {
            let (y, m, dd) = civil(d);
            assert_eq!(days(y, m, dd), d);
            assert_eq!(month_of(d), m);
        }
        assert_eq!(days(1970, 1, 1), 0);
        assert_eq!(parse_date("2003-06-01"), Some(days(2003, 6, 1)));
    }
}
