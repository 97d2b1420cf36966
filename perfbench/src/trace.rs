//! The benchmark's span tracer.
//!
//! Spans are recorded around the public library calls the benchmark
//! makes, with name, start, end, parent span and unit id, and kept in
//! memory until the run ends. The library's own `meek-telemetry::prof`
//! spans (inside co-simulation) are imported afterwards and nested under
//! the benchmark span that contains them. When the tracer is off a
//! scope is one branch and the call itself.

use meek_telemetry::prof;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One completed span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `difftest.cosim_ms`.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (case, shard or chunk) the span belongs to, if any.
    pub unit: Option<u64>,
}

/// Aggregate of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration.
    pub total_ns: u64,
    /// Summed self time: duration minus the time child spans cover.
    pub self_ns: u64,
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    unit: Option<u64>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set_enabled`].
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new(), unit: None }
    }

    /// Turns recording on or off for the scopes that follow.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans that follow with `unit`.
    pub fn set_unit(&mut self, unit: Option<u64>) {
        self.unit = unit;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, end_ns: start_ns, parent, unit: self.unit });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Closes every open span now; called after a unit panicked out of
    /// its scopes.
    pub fn abort_open(&mut self) {
        let now = self.now_ns();
        for idx in std::mem::take(&mut self.open) {
            self.spans[idx].end_ns = now;
        }
    }

    /// Switches on the library's span profiler and returns the offset
    /// that maps its microsecond clock onto this tracer's: a sync span
    /// opened on both clocks at once.
    pub fn enable_library_spans(&self) -> i64 {
        prof::enable();
        let ours = {
            let _sync = prof::span("bench.clock_sync");
            self.now_ns()
        };
        let theirs = prof::take()
            .iter()
            .find(|e| e.name == "bench.clock_sync")
            .map_or(0, |e| e.start_us * 1000);
        ours as i64 - theirs as i64
    }

    /// Imports the library's recorded spans, renamed by `rename`, each
    /// nested under the innermost recorded span containing its midpoint
    /// and clipped to that parent.
    pub fn import_library_spans(
        &mut self,
        offset_ns: i64,
        rename: impl Fn(&'static str) -> &'static str,
    ) {
        let own = self.spans.len();
        for ev in prof::take() {
            let name = rename(ev.name);
            let start = (ev.start_us as i64 * 1000 + offset_ns).max(0) as u64;
            let end = start + ev.dur_us * 1000;
            let mid = start + (end - start) / 2;
            let parent = innermost_containing(&self.spans[..own], mid);
            let (lo, hi) =
                parent.map_or((start, end), |p| (self.spans[p].start_ns, self.spans[p].end_ns));
            let start_ns = start.clamp(lo, hi);
            self.spans.push(Span {
                name,
                start_ns,
                end_ns: end.clamp(start_ns, hi),
                parent,
                unit: parent.and_then(|p| self.spans[p].unit),
            });
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, including self time.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let self_ns = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        out
    }

    /// Chrome tracing JSON of every span, with parent index and unit id
    /// as event arguments.
    pub fn chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":0,\"tid\":0,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"unit\":{}}}}}{comma}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                opt(s.parent.map(|p| p as u64)),
                opt(s.unit),
            );
        }
        out.push_str("]}\n");
        out
    }
}

/// Index of the innermost span in `spans` (recorded in open order, so
/// sorted by start) whose interval contains `t`.
fn innermost_containing(spans: &[Span], t: u64) -> Option<usize> {
    let mut cur = spans.partition_point(|s| s.start_ns <= t).checked_sub(1);
    while let Some(i) = cur {
        if spans[i].end_ns >= t {
            return Some(i);
        }
        cur = spans[i].parent;
    }
    None
}

/// Each span's duration minus the union of its children's intervals
/// (clipped to the span, so overlapping children count once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, s.start_ns);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.clamp(reach, s.end_ns), b.clamp(s.start_ns, s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, unit: Some(0) }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("cosim", 10, 60, Some(0)),
            span("golden", 12, 20, Some(1)),
            span("system", 30, 55, Some(1)),
            span("classify", 60, 90, Some(0)),
            // Overlaps its sibling after clock rounding: counted once.
            span("system_dup", 50, 58, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 50 - 8 - 28, 8, 25, 30, 8]);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("parent", 10, 20, None), span("child", 5, 15, Some(0))];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn scopes_nest_and_carry_the_unit() {
        let mut tr = Tracer::new(true);
        tr.set_unit(Some(7));
        let v = tr.scope("outer", |tr| tr.scope("inner", |_| 41) + 1);
        assert_eq!(v, 42);
        let s = tr.spans();
        assert_eq!(s.len(), 2);
        assert_eq!((s[0].name, s[0].parent, s[0].unit), ("outer", None, Some(7)));
        assert_eq!((s[1].name, s[1].parent, s[1].unit), ("inner", Some(0), Some(7)));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
        let totals = tr.totals();
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(totals["outer"].self_ns + totals["inner"].total_ns, totals["outer"].total_ns);
        assert!(tr.chrome_trace().contains("\"parent\":0,\"unit\":7"));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        assert_eq!(tr.scope("x", |_| 3), 3);
        assert!(tr.spans().is_empty());
    }

    #[test]
    fn innermost_containing_walks_up_past_closed_siblings() {
        let spans = vec![
            span("unit", 0, 100, None),
            span("a", 10, 20, Some(0)),
            span("a.child", 12, 18, Some(1)),
        ];
        assert_eq!(innermost_containing(&spans, 15), Some(2));
        assert_eq!(innermost_containing(&spans, 50), Some(0));
        assert_eq!(innermost_containing(&spans, 150), None);
    }
}
