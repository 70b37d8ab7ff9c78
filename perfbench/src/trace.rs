//! In-memory span recorder for the traced run. Spans are opened around
//! calls into the program's public functions from this benchmark's own
//! code; nothing inside the program is instrumented.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

impl Span {
    pub fn dur(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

pub struct Tracer {
    t0: Instant,
    pub spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer { t0: Instant::now(), spans: Vec::new(), stack: Vec::new() }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`, a child of the innermost
    /// open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start = self.t0.elapsed();
        self.spans.push(Span { name, parent: self.stack.last().copied(), start, end: start });
        self.stack.push(id);
        let r = f(self);
        self.stack.pop();
        self.spans[id].end = self.t0.elapsed();
        r
    }

    /// Self time of every span, indexed like `spans`.
    pub fn self_times(&self) -> Vec<Duration> {
        self_times(&self.spans)
    }

    /// Σ self time of the spans called `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        let st = self.self_times();
        self.spans.iter().zip(&st).filter(|(s, _)| s.name == name).map(|(_, d)| d.as_secs_f64() * 1e3).sum()
    }

    /// Σ self time, in ms, of every span under the root span `root`
    /// (the root included). This is the root's duration whenever the
    /// children nest properly.
    pub fn tree_self_ms(&self, root: usize) -> f64 {
        let st = self.self_times();
        (0..self.spans.len()).filter(|&i| self.is_under(i, root)).map(|i| st[i].as_secs_f64() * 1e3).sum()
    }

    /// Whether span `i` is `root` or lies below it.
    pub fn is_under(&self, mut i: usize, root: usize) -> bool {
        loop {
            if i == root {
                return true;
            }
            match self.spans[i].parent {
                Some(p) => i = p,
                None => return false,
            }
        }
    }

    /// Index of the first root span called `name`.
    pub fn root(&self, name: &str) -> Option<usize> {
        self.spans.iter().position(|s| s.parent.is_none() && s.name == name)
    }

    /// The spans as a JSON array (times in ns from the tracer's start).
    pub fn to_json(&self) -> String {
        let st = self.self_times();
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.name,
                s.start.as_nanos(),
                s.end.as_nanos(),
                st[i].as_nanos()
            );
            out.push_str(if i + 1 < self.spans.len() { ",\n" } else { "\n" });
        }
        out.push(']');
        out
    }
}

/// A span's self time: its duration minus the part of its interval
/// that the union of its children's intervals covers.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<(Duration, Duration)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur().saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> Duration {
        Duration::from_millis(v)
    }

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span { name, parent, start: ms(a), end: ms(b) }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),       // adjacent to b
            span("b", Some(0), 30, 50),       // adjacent to a
            span("a.inner", Some(1), 12, 20), // nested in a
            span("c", Some(0), 45, 60),       // overlaps b: counted once
            span("d", Some(0), 90, 120),      // runs past the root: clipped
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], ms(100 - 50 - 10)); // covered: 10..60 and 90..100
        assert_eq!(st[1], ms(20 - 8));
        assert_eq!(st[2], ms(20));
        assert_eq!(st[3], ms(8));
        assert_eq!(st[4], ms(15));
        // a tree's self times sum to the root's duration when the
        // children nest inside it
        let nested = &spans[..4];
        let total: Duration = self_times(nested).iter().sum();
        assert_eq!(total, ms(100));
    }

    #[test]
    fn tracer_nests_spans_and_sums_by_name() {
        let mut tr = Tracer::default();
        tr.span("root", |tr| {
            tr.span("leaf", |_| std::thread::sleep(ms(2)));
            tr.span("leaf", |_| std::thread::sleep(ms(2)));
        });
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.spans[2].parent, Some(0));
        assert!(tr.self_ms("leaf") >= 4.0);
        let root = tr.root("root").unwrap();
        let d = tr.spans[root].dur().as_secs_f64() * 1e3;
        assert!((tr.tree_self_ms(root) - d).abs() < 1e-6);
        assert!(tr.to_json().contains("\"name\": \"leaf\""));
    }
}
