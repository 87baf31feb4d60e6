//! Spans recorded from outside the library, and the arithmetic on them.
//!
//! Only the traced pass creates a [`Tracer`]; the untraced pass records
//! no span, so end-to-end numbers carry no tracing cost at all.
//! Spans stay in memory and are written once, when the run ends.

use crate::json::Json;
use std::sync::Mutex;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one eigensolve share an id; 0 = outside any solve.
    pub solve: u32,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<usize>,
    solve: u32,
    solves_started: u32,
}

/// The operators the solver calls must be `Sync`, hence the mutex; the
/// solver issues products one at a time, so it is never contended.
pub struct Tracer {
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self { epoch: Instant::now(), inner: Mutex::new(Inner::default()) }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().expect("a span body panicked while the tracer was locked")
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = {
            let mut g = self.lock();
            let id = g.spans.len();
            let (parent, solve) = (g.open.last().copied(), g.solve);
            g.open.push(id);
            let start_ns = self.epoch.elapsed().as_nanos() as u64;
            g.spans.push(Span { name, start_ns, end_ns: start_ns, parent, solve });
            id
        };
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let mut g = self.lock();
        g.spans[id].end_ns = end_ns;
        g.open.pop();
        out
    }

    /// [`Self::span`] under a fresh solve id, which the spans opened
    /// inside (the products) inherit.
    pub fn solve_span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        {
            let mut g = self.lock();
            g.solves_started += 1;
            g.solve = g.solves_started;
        }
        let out = self.span(name, f);
        self.lock().solve = 0;
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Durations in ms of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Self time per span, in ns: its duration minus the part of that
/// interval its direct children cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (s.start_ns.max(spans[p].start_ns), s.end_ns.min(spans[p].end_ns));
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

pub fn spans_json(spans: &[Span]) -> Json {
    let selfs = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::obj([
                    ("id", Json::from(id)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(self_ns as f64)),
                    ("parent", s.parent.map_or(Json::Null, Json::from)),
                    ("solve", Json::Num(s.solve as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name: "t", start_ns, end_ns, parent, solve: 0 }
    }

    #[test]
    fn self_time_subtracts_what_children_cover_once() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the previous child by 10
            span(60, 70, Some(0)),
            span(12, 18, Some(1)), // grandchild: not subtracted from the root
            span(90, 120, Some(0)), // clipped to the parent's end
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10 - 10, 14, 30, 10, 6, 30]);
    }

    #[test]
    fn tracer_nests_spans_and_tags_solves() {
        let t = Tracer::default();
        t.span("setup", || t.span("inner", || ()));
        t.solve_span("solve", || {
            t.span("product", || ());
            t.span("product", || ());
        });
        t.solve_span("solve", || t.span("product", || ()));
        let spans = t.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.solve)).collect();
        assert_eq!(
            names,
            vec![
                ("setup", None, 0),
                ("inner", Some(0), 0),
                ("solve", None, 1),
                ("product", Some(2), 1),
                ("product", Some(2), 1),
                ("solve", None, 2),
                ("product", Some(5), 2),
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(durations_ms(&spans, "product").len(), 3);
    }
}
