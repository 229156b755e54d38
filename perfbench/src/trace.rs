//! In-memory spans recorded around calls into each layer. Spans are kept
//! until the run ends and then written out in one piece.

use std::cell::RefCell;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of this span in the run's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer boundary name, e.g. `core.search`.
    pub name: &'static str,
    /// Seconds from the tracer's origin.
    pub start_s: f64,
    /// Seconds from the tracer's origin.
    pub end_s: f64,
}

impl Span {
    /// Host seconds the span covers.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// Records nested spans on one thread; every span carries the run id.
#[derive(Debug)]
pub struct Tracer {
    run_id: u64,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    /// A tracer whose spans all share `run_id`.
    pub fn new(run_id: u64) -> Self {
        Tracer {
            run_id,
            origin: Instant::now(),
            spans: RefCell::default(),
            open: RefCell::default(),
        }
    }

    /// Runs `f` inside a span named `name`, nested under the innermost
    /// span still open.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            let parent = self.open.borrow().last().copied();
            let start_s = self.origin.elapsed().as_secs_f64();
            spans.push(Span { id, parent, name, start_s, end_s: start_s });
            id
        };
        self.open.borrow_mut().push(id);
        let out = f();
        self.open.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_s = self.origin.elapsed().as_secs_f64();
        out
    }

    /// Total host seconds of every span named `name`.
    pub fn busy_s(&self, name: &str) -> f64 {
        self.spans.borrow().iter().filter(|s| s.name == name).map(Span::duration_s).sum()
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"run_id\": \"{:016x}\", \"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_s\": {}, \"end_s\": {}}}\n",
                self.run_id, s.id, s.name, s.start_s, s.end_s
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_open_span() {
        let t = Tracer::new(7);
        t.span("outer", || {
            t.span("inner", || std::hint::black_box((0..20_000u64).sum::<u64>()));
        });
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"parent\": 0"), "{lines}");
        assert!(lines.contains("\"run_id\": \"0000000000000007\""));
        assert!(t.busy_s("outer") >= t.busy_s("inner"));
    }
}
