//! In-memory span recording for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! layer's public functions; nothing inside the program is instrumented.
//! They stay in memory while the run measures and are written out once, at
//! the end.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval: a layer call, a member verification, or a request.
#[derive(Debug, Clone)]
pub struct Span {
    /// `layer.operation`, e.g. `lp.synthesize`; the layer is the part
    /// before the first dot.
    pub name: &'static str,
    /// Identifier shared by every span of one member (or request).
    pub member: usize,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Seconds since the recorder was created.
    pub start: f64,
    /// Seconds since the recorder was created.
    pub end: f64,
}

impl Span {
    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    fn duration(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Seconds since the recorder was created.
    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Seconds from the recorder's creation to `instant`.
    pub fn seconds_at(&self, instant: Instant) -> f64 {
        instant.duration_since(self.origin).as_secs_f64()
    }

    /// Opens a span and returns its index.
    pub fn begin(&mut self, name: &'static str, member: usize, parent: Option<usize>) -> usize {
        let now = self.now();
        self.spans.push(Span {
            name,
            member,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    /// Closes the span opened as `index`.
    pub fn end(&mut self, index: usize) {
        self.spans[index].end = self.now();
    }

    /// Records a span whose interval was measured elsewhere (for example a
    /// pool member whose duration arrives in its completion event).
    pub fn record(
        &mut self,
        name: &'static str,
        member: usize,
        parent: Option<usize>,
        start: f64,
        end: f64,
    ) -> usize {
        self.spans.push(Span {
            name,
            member,
            parent,
            start,
            end,
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        member: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, member, Some(parent));
        let value = f();
        self.end(span);
        value
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval that its children cover.
    pub fn self_times(&self) -> Vec<f64> {
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent].push((span.start, span.end));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, kids)| span.duration() - covered(&kids, span.start, span.end))
            .collect()
    }

    /// Σ self time per layer over every span whose root ancestor is named
    /// `root`, plus Σ duration of those roots.
    pub fn layer_self_times(&self, root: &str) -> (BTreeMap<&'static str, f64>, f64) {
        let self_times = self.self_times();
        let mut per_layer = BTreeMap::new();
        let mut root_total = 0.0;
        for (index, span) in self.spans.iter().enumerate() {
            if self.root_of(index).name != root {
                continue;
            }
            if span.parent.is_none() {
                root_total += span.duration();
            }
            *per_layer.entry(span.layer()).or_insert(0.0) += self_times[index];
        }
        (per_layer, root_total)
    }

    fn root_of(&self, mut index: usize) -> &Span {
        while let Some(parent) = self.spans[index].parent {
            index = parent;
        }
        &self.spans[index]
    }

    /// The spans as JSON lines (one object per span).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {index}, \"name\": \"{}\", \"member\": {}, \"parent\": {parent}, \
                 \"start\": {:?}, \"end\": {:?}}}",
                span.name, span.member, span.start, span.end
            );
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered(intervals: &[(f64, f64)], lo: f64, hi: f64) -> f64 {
    let mut clipped: Vec<(f64, f64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| b > a)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_merges_overlaps_and_clips() {
        assert_eq!(
            covered(&[(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)], 0.0, 10.0),
            4.0
        );
        assert_eq!(covered(&[(-1.0, 1.0)], 0.0, 0.5), 0.5);
        assert_eq!(covered(&[], 0.0, 1.0), 0.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut tracer = Tracer::new();
        let root = tracer.record("member", 0, None, 0.0, 10.0);
        tracer.record("lp.synthesize", 0, Some(root), 1.0, 4.0);
        tracer.record("sim.seed_traces", 0, Some(root), 5.0, 6.0);
        let (layers, total) = tracer.layer_self_times("member");
        assert_eq!(total, 10.0);
        assert_eq!(layers["member"], 6.0);
        assert_eq!(layers["lp"], 3.0);
        assert_eq!(layers["sim"], 1.0);
    }
}
