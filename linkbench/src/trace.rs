//! Spans recorded by the benchmark around its calls into the program: name,
//! start, end and parent, kept in memory and written out at the end. Off,
//! a span is one branch around the call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are ns since the tracer was made.
pub struct Span {
    /// Layer-qualified call name, e.g. `runner.run_phase`.
    pub name: &'static str,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
}

/// Per-name totals derived from the spans.
#[derive(Clone, Copy, Default)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed duration minus the time covered by child spans, ns.
    pub self_ns: u64,
}

/// Span recorder; disabled, it records nothing.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Count, total and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end - s.start;
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// The spans as JSON lines (`id`, `name`, `start_ns`, `end_ns`,
    /// `parent`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.enter("batch");
        t.span("runner.inject", || std::hint::black_box(1));
        t.span("runner.run_phase", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.exit();
        let st = t.self_times();
        let batch = st["batch"];
        let run = st["runner.run_phase"];
        assert_eq!(batch.count, 1);
        assert!(run.total_ns >= 2_000_000);
        assert_eq!(
            batch.self_ns,
            batch.total_ns - run.total_ns - st["runner.inject"].total_ns
        );
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 3);
        assert!(lines.lines().nth(1).unwrap().ends_with("\"parent\": 0}"));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        t.enter("y");
        t.exit();
        assert!(t.to_jsonl().is_empty());
    }
}
