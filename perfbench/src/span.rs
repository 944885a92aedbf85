//! In-memory wall-clock spans recorded by the traced run around calls into
//! each layer's public functions, written out with self times at the end.

use std::sync::Mutex;
use std::time::Instant;

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One closed span: `[start, end)` in seconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    /// The span's id.
    pub id: SpanId,
    /// Layer-qualified name, e.g. `partition.merge`.
    pub name: &'static str,
    /// The span whose call caused this one.
    pub parent: Option<SpanId>,
    /// Rank the span ran for, when it is per-rank work.
    pub rank: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Collects spans from any thread.  Open spans only reserve an id; a span
/// is stored when it closes.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Option<Span>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    /// Seconds since the tracer was created.
    pub fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Store an already-timed span `[start, end)`.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        rank: Option<usize>,
        start: f64,
        end: f64,
    ) -> Span {
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking span");
        let span = Span { id: spans.len(), name, parent, rank, start, end };
        spans.push(Some(span.clone()));
        span
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, rank: Option<usize>) -> Open {
        let mut spans = self.spans.lock().expect("span store poisoned by a panicking span");
        spans.push(None);
        Open { id: spans.len() - 1, name, parent, rank, start: self.now() }
    }

    /// Close an open span and store it; returns the closed span.
    pub fn close(&self, open: Open) -> Span {
        let span = Span {
            id: open.id,
            name: open.name,
            parent: open.parent,
            rank: open.rank,
            start: open.start,
            end: self.now(),
        };
        self.spans.lock().expect("span store poisoned by a panicking span")[open.id] =
            Some(span.clone());
        span
    }

    /// Time `f` inside a span named `name`.
    pub fn in_span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        rank: Option<usize>,
        f: impl FnOnce(SpanId) -> R,
    ) -> (R, Span) {
        let open = self.open(name, parent, rank);
        let id = open.id;
        let out = f(id);
        (out, self.close(open))
    }

    /// Every closed span, indexed by id (`None` for spans still open).
    pub fn spans(&self) -> Vec<Option<Span>> {
        self.spans.lock().expect("span store poisoned by a panicking span").clone()
    }

    /// Spans as JSON lines `{id, name, parent, rank, start_s, end_s, self_s}`.
    pub fn to_json_lines(&self) -> String {
        let spans = self.spans();
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter().flatten() {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        let opt = |v: Option<usize>| v.map_or_else(|| "null".to_string(), |x| x.to_string());
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let Some(s) = s else { continue };
            let self_s = s.secs() - covered(s.start, s.end, &children[id]);
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"parent\": {}, \"rank\": {}, \
                 \"start_s\": {:.9}, \"end_s\": {:.9}, \"self_s\": {:.9}}}\n",
                s.name,
                opt(s.parent),
                opt(s.rank),
                s.start,
                s.end,
                self_s
            ));
        }
        out
    }
}

/// A span that has started but not ended.
#[derive(Debug)]
pub struct Open {
    id: SpanId,
    name: &'static str,
    parent: Option<SpanId>,
    rank: Option<usize>,
    start: f64,
}

impl Open {
    /// The id the span will be stored under.
    pub fn id(&self) -> SpanId {
        self.id
    }
}

/// Length of `[start, end)` covered by the union of `intervals`.
pub fn covered(start: f64, end: f64, intervals: &[(f64, f64)]) -> f64 {
    let mut iv: Vec<(f64, f64)> =
        intervals.iter().map(|&(a, b)| (a.max(start), b.min(end))).filter(|(a, b)| b > a).collect();
    iv.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// Wall seconds covered by the union of `spans`.
pub fn union_secs(spans: &[Span]) -> f64 {
    let iv: Vec<(f64, f64)> = spans.iter().map(|s| (s.start, s.end)).collect();
    covered(f64::NEG_INFINITY, f64::INFINITY, &iv)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        assert_eq!(covered(0.0, 10.0, &[(1.0, 3.0), (2.0, 4.0), (6.0, 7.0)]), 4.0);
        assert_eq!(covered(2.0, 5.0, &[(0.0, 3.0), (4.0, 9.0)]), 2.0);
        assert_eq!(covered(0.0, 1.0, &[]), 0.0);
    }

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let (_, parent) = t.in_span("outer", None, None, |id| {
            t.in_span("inner", Some(id), Some(0), |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            })
        });
        let lines = t.to_json_lines();
        assert_eq!(lines.lines().count(), 2);
        assert!(parent.secs() >= 0.005);
        assert!(lines.contains("\"name\": \"inner\", \"parent\": 0, \"rank\": 0"));
    }
}
