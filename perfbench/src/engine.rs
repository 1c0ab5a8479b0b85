//! The one path every benchmark operation takes into the engine: time
//! it, count it, check its answer. In a traced run the same calls are
//! split into per-layer spans and each query is bracketed by the
//! engine's own timeline markers, so its `QueryTrace` (operator spans,
//! morsels, segment loads) comes back with it.

use crate::answer::{self, Rows};
use crate::spans::Spans;
use std::collections::BTreeMap;
use std::io;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use tde_core::exec::{Block, Schema};
use tde_core::obs::timeline::{self, QueryTrace};
use tde_core::plan::strategic::OptimizerOptions;
use tde_core::plan::{physical, LogicalPlan};
use tde_core::Query;

/// A query ready to run: built through the `Query` facade, or — for the
/// one panel the facade cannot express (a computation pushed onto a
/// dictionary's domain) — as a logical plan the strategic optimizer
/// still rewrites.
pub enum Prepared {
    Facade(Query),
    Plan(LogicalPlan, OptimizerOptions),
}

impl Prepared {
    fn plan(self) -> LogicalPlan {
        match self {
            Prepared::Facade(q) => q.plan(),
            Prepared::Plan(p, opts) => tde_core::plan::optimize(p, opts),
        }
    }

    fn run(self) -> io::Result<(Schema, Vec<Block>)> {
        match self {
            Prepared::Facade(q) => q.try_run(),
            Prepared::Plan(p, opts) => physical::try_run(&tde_core::plan::optimize(p, opts)),
        }
    }
}

/// Outcome counts and timings of one run's measured phase.
#[derive(Default)]
pub struct Recorder {
    pub query_ns: Vec<f64>,
    /// Query latencies by template.
    pub by_template: BTreeMap<&'static str, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    /// Time spent inside engine calls during the measured phase.
    pub busy_ns: f64,
    /// Rows scanned by the measured queries (rows of their source).
    pub rows_scanned: u64,
    /// `(rows, bytes, ns)` per import.
    pub imports: Vec<(u64, u64, f64)>,
    pub mutation_rows: u64,
    pub mutation_ns: f64,
    pub compact_ns: Vec<f64>,
    pub save_ns: Vec<f64>,
    /// Extract bytes per byte of the CSV rendering of its live rows.
    pub stored_ratio: Vec<f64>,
    pub first_errors: Vec<String>,
}

impl Recorder {
    pub fn fail(&mut self, what: &str, msg: String) {
        self.failed += 1;
        if self.first_errors.len() < 5 {
            eprintln!("perfbench: {what} failed: {msg}");
            self.first_errors.push(format!("{what}: {msg}"));
        }
    }
}

pub struct Bench {
    pub spans: Spans,
    pub rec: Recorder,
    /// Engine query traces gathered by a traced run.
    pub traces: Vec<Arc<QueryTrace>>,
    /// Count time and throughput into `rec` (off while probes and set-up
    /// run; attempts and failures count everywhere).
    pub recording: bool,
    /// Corrupt the first answer checked (the self-test of the check).
    pub corrupt_next_answer: bool,
}

impl Bench {
    pub fn new(traced: bool) -> Bench {
        Bench {
            spans: Spans::new(traced),
            rec: Recorder::default(),
            traces: Vec::new(),
            recording: false,
            corrupt_next_answer: false,
        }
    }

    /// Time one non-query engine operation; failures count against the
    /// run. Returns the result and its duration in nanoseconds.
    pub fn op<T>(
        &mut self,
        name: &'static str,
        f: impl FnOnce(&mut Spans) -> io::Result<T>,
    ) -> Option<(T, f64)> {
        let t0 = Instant::now();
        let out = self.spans.time(name, f);
        let ns = t0.elapsed().as_nanos() as f64;
        self.rec.attempted += 1;
        if self.recording {
            self.rec.busy_ns += ns;
        }
        match out {
            Ok(v) => Some((v, ns)),
            Err(e) => {
                self.rec.fail(name, e.to_string());
                None
            }
        }
    }

    /// Run one query and check it against `expected` (computed after the
    /// timed section). Returns the engine's time in nanoseconds.
    pub fn query(
        &mut self,
        template: &'static str,
        q: Prepared,
        rows_scanned: u64,
        expected: impl FnOnce() -> Rows,
    ) -> Option<f64> {
        // An engine panic is a failed operation, not the end of the run.
        let t0 = Instant::now();
        let depth = self.spans.depth();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            if self.spans.on() {
                self.query_traced(q)
            } else {
                let t0 = Instant::now();
                let r = q.run();
                (r, t0.elapsed().as_nanos() as f64)
            }
        }));
        let (result, ns) = outcome.unwrap_or_else(|_| {
            self.spans.unwind_to(depth);
            let e = io::Error::other("the engine panicked");
            (Err(e), t0.elapsed().as_nanos() as f64)
        });
        self.rec.attempted += 1;
        if self.recording {
            self.rec.busy_ns += ns;
        }
        let got = match result {
            Ok((schema, blocks)) => answer::from_blocks(&schema, &blocks),
            Err(e) => {
                self.rec.fail("query", e.to_string());
                return None;
            }
        };
        let mut want = self.spans.time("verify", |_| answer::canonical(expected()));
        if std::mem::take(&mut self.corrupt_next_answer) {
            corrupt(&mut want);
        }
        if let Err(msg) = answer::agree(&got, &want) {
            self.rec.fail("answer check", msg);
            return None;
        }
        if self.recording {
            self.rec.query_ns.push(ns);
            self.rec.by_template.entry(template).or_default().push(ns);
            self.rec.rows_scanned += rows_scanned;
        }
        Some(ns)
    }

    fn query_traced(&mut self, q: Prepared) -> (io::Result<(Schema, Vec<Block>)>, f64) {
        let query_id = tde_core::obs::span::next_query_id();
        self.spans.set_query(query_id);
        let token = timeline::enabled().then(|| timeline::query_begin(query_id));
        let t0 = Instant::now();
        let result: io::Result<(Schema, Vec<Block>)> = self.spans.time("query", |sp| {
            let plan = sp.time("plan.optimize", |_| q.plan());
            let mut op = sp.time("plan.lower", |_| physical::try_execute(&plan))?;
            sp.time("exec.drain", |_| {
                let schema = op.schema().clone();
                let mut blocks = Vec::new();
                while let Some(b) = op.next_block() {
                    blocks.push(b);
                }
                Ok((schema, blocks))
            })
        });
        self.spans.set_query(0);
        if let Some(token) = token {
            let (rows, error) = match &result {
                Ok((_, blocks)) => (blocks.iter().map(|b| b.len as u64).sum(), None),
                Err(e) => (0, Some(e.to_string())),
            };
            let ns = t0.elapsed().as_nanos() as u64;
            let phases = [("execute", ns)];
            self.traces
                .push(timeline::query_end(token, "", rows, ns, error, &phases));
        }
        // Draining the engine's timeline is part of what tracing costs.
        (result, t0.elapsed().as_nanos() as f64)
    }
}

/// Change one value of an answer, so the check must see a difference.
pub fn corrupt(rows: &mut Rows) {
    use tde_core::types::Value;
    match rows.first_mut().and_then(|r| r.last_mut()) {
        Some(Value::Int(v)) => *v += 1,
        Some(Value::Real(v)) => *v += 1.0,
        Some(v) => *v = Value::Null,
        None => rows.push(vec![Value::Null]),
    }
}
