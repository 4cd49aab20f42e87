//! Benchmark-side spans: one record per call into a layer's public API
//! (name, start, end, parent), kept in memory and written out when the
//! run ends. Spans inside the program are a later issue; these are all
//! recorded from this package.

use std::time::Instant;

use cagc_harness::Json;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span log. Spans opened with [`Spans::scope`] nest; spans
/// measured elsewhere (on pool threads) are attached with [`Spans::add`]
/// and may overlap their siblings.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn scope<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Attach an interval measured elsewhere as a child of the innermost
    /// open span.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
    }

    /// Duration in milliseconds of every closed span called `name`, in
    /// recording order.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect()
    }

    /// Duration of the most recent span called `name`, in seconds.
    ///
    /// # Panics
    /// Panics if no such span was recorded (a bug in the caller).
    pub fn last_s(&self, name: &str) -> f64 {
        let s = self.spans.iter().rev().find(|s| s.name == name);
        s.unwrap_or_else(|| panic!("no span named {name}")).dur_ns() as f64 / 1e9
    }

    /// Self time of span `id`: its duration minus the part of its interval
    /// that its children cover. Children are clipped to the parent and
    /// overlapping children (parallel work) are counted once.
    pub fn self_ns(&self, id: usize) -> u64 {
        let parent = &self.spans[id];
        let mut kids: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| a < b)
            .collect();
        kids.sort_unstable();
        let mut covered = 0u64;
        let mut frontier = parent.start_ns;
        for (a, b) in kids {
            let a = a.max(frontier);
            if b > a {
                covered += b - a;
                frontier = b;
            }
        }
        parent.dur_ns() - covered
    }

    /// Total self time per span name, in recording order of first use.
    pub fn self_ms_by_name(&self) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for id in 0..self.spans.len() {
            let ms = self.self_ns(id) as f64 / 1e6;
            match out.iter_mut().find(|(n, _)| *n == self.spans[id].name) {
                Some((_, total)) => *total += ms,
                None => out.push((self.spans[id].name, ms)),
            }
        }
        out
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Json::obj([
                        ("name", Json::Str(s.name.to_string())),
                        ("start_ns", Json::U64(s.start_ns)),
                        ("end_ns", Json::U64(s.end_ns)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(spans: Vec<Span>) -> Spans {
        Spans {
            origin: Instant::now(),
            spans,
            open: Vec::new(),
        }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = log(vec![
            span("iter", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)), // overlaps a on [30, 40)
            span("c", 80, 90, Some(0)),
            span("a.inner", 12, 20, Some(1)), // grandchild: not iter's child
        ]);
        // children cover [10, 60) and [80, 90) = 60 of 100
        assert_eq!(spans.self_ns(0), 40);
        assert_eq!(spans.self_ns(1), 22);
        assert_eq!(spans.self_ns(2), 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = log(vec![
            span("p", 50, 100, None),
            span("early", 0, 60, Some(0)),
            span("late", 90, 150, Some(0)),
            span("outside", 200, 300, Some(0)),
            span("nested", 55, 58, Some(0)), // inside `early`
        ]);
        assert_eq!(spans.self_ns(0), 30);
    }

    #[test]
    fn scopes_nest_and_report_by_name() {
        let mut rec = Spans::new();
        rec.scope("iter", |rec| {
            rec.scope("phase", |_| std::hint::black_box(0));
            rec.scope("phase", |_| std::hint::black_box(0));
        });
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        assert_eq!(rec.durations_ms("phase").len(), 2);
        let by_name = rec.self_ms_by_name();
        assert_eq!(
            by_name.iter().map(|(n, _)| *n).collect::<Vec<_>>(),
            ["iter", "phase"]
        );
        let total: f64 = by_name.iter().map(|(_, ms)| ms).sum();
        assert!((total - rec.spans[0].dur_ns() as f64 / 1e6).abs() < 1e-9);
    }
}
