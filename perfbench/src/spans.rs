//! The benchmark's own spans: one per call into an engine layer, kept
//! in memory while the traced run measures and written out at the end.
//! A span records its name, start, end, parent and query id; a layer's
//! self time is its spans' duration minus the part their children cover.
//! With tracing off, [`Spans::time`] only calls the closure.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub query_id: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Spans {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    query_id: u64,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            query_id: 0,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Attribute spans opened from now on to this query id (0 = none).
    pub fn set_query(&mut self, query_id: u64) {
        self.query_id = query_id;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            query_id: self.query_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.epoch.elapsed().as_nanos() as u64;
        out
    }

    /// Open spans right now (pass to [`Spans::unwind_to`]).
    pub fn depth(&self) -> usize {
        self.stack.len()
    }

    /// Close the spans a panic left open above `depth`, ending them now.
    pub fn unwind_to(&mut self, depth: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64;
        while self.stack.len() > depth {
            let idx = self.stack.pop().expect("stack is deeper than depth");
            self.spans[idx].end_ns = now;
        }
        self.query_id = 0;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Self time per span name: each span's duration minus the time its
    /// direct children cover (children never overlap: one client thread).
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// The spans as a Chrome Trace Event Format document (one track,
    /// nested by time), loadable in Perfetto next to the engine's own
    /// query traces.
    pub fn to_tef(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\
                     \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{i},\"parent\":{parent},\
                     \"query_id\":{}}}}}",
                    s.name,
                    s.name.split('.').next().unwrap_or(s.name),
                    s.start_ns as f64 / 1000.0,
                    s.dur_ns() as f64 / 1000.0,
                    s.query_id
                )
            })
            .collect();
        format!(
            "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\
             {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"tid\":0,\
             \"args\":{{\"name\":\"perfbench spans\"}}}}{}{}]}}",
            if events.is_empty() { "" } else { "," },
            events.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_off_records_nothing() {
        let mut s = Spans::new(true);
        s.time("outer", |s| {
            s.time("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(3))
            });
        });
        let st = s.self_times();
        let outer = s.durations("outer")[0] as u64;
        let inner = s.durations("inner")[0] as u64;
        assert_eq!(st["outer"], outer - inner);
        assert_eq!(st["inner"], inner);
        assert_eq!(s.spans()[1].parent, Some(0));
        tde_stats::tef::validate_tef(&s.to_tef()).unwrap();

        let mut off = Spans::new(false);
        assert_eq!(off.time("x", |_| 7), 7);
        assert!(off.spans().is_empty());
    }
}
