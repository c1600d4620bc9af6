//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around the calls
//! into each layer's public functions; nothing inside the program is
//! instrumented (that is ROADMAP item 1, a later change). A span has
//! a name, a start and an end on one monotonic clock, the span that
//! caused it, and the job it belongs to. Spans stay in memory and are
//! written out once, when the run ends.

use otter_metrics::Json;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Job the span belongs to (0: not part of a job, e.g. a probe).
    pub job: u64,
    /// Microseconds since the recorder was created.
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Collects spans from any thread. A disabled recorder runs the
/// wrapped call directly: no clock read, no lock, no allocation.
pub struct Recorder {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            spans: enabled.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Run `f` inside a span; `f` receives the span's id so it can
    /// parent its own children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        job: u64,
        f: impl FnOnce(Option<SpanId>) -> T,
    ) -> T {
        let Some(spans) = &self.spans else {
            return f(None);
        };
        let id = {
            let mut spans = spans.lock().expect("span recorder poisoned");
            let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
            spans.push(Span {
                name,
                parent,
                job,
                start_us,
                end_us: start_us,
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        spans.lock().expect("span recorder poisoned")[id].end_us = end_us;
        out
    }

    /// Everything recorded so far.
    pub fn take(&self) -> Vec<Span> {
        match &self.spans {
            Some(spans) => std::mem::take(&mut *spans.lock().expect("span recorder poisoned")),
            None => Vec::new(),
        }
    }
}

/// Self time of every span: its duration minus the part of its
/// interval that its child spans cover. Children may overlap one
/// another (concurrent callees), so the covered part is the length of
/// the *union* of the child intervals, clipped to the parent.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            s.duration_us() - covered
        })
        .collect()
}

/// Sum of self times per span name, restricted to spans of jobs
/// (`job != 0`), in first-seen order.
pub fn self_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, self_us) in spans.iter().zip(self_times_us(spans)) {
        if s.job == 0 {
            continue;
        }
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some(entry) => entry.1 += self_us,
            None => out.push((s.name, self_us)),
        }
    }
    out
}

/// The span file: one object per span, with its computed self time.
pub fn to_json(workload: &str, seed: u64, spans: &[Span]) -> Json {
    let num = |v: f64| Json::Num(v);
    let rows = spans
        .iter()
        .zip(self_times_us(spans))
        .enumerate()
        .map(|(id, (s, self_us))| {
            Json::Obj(vec![
                ("id".to_string(), num(id as f64)),
                (
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| num(p as f64)),
                ),
                ("job".to_string(), num(s.job as f64)),
                ("name".to_string(), Json::Str(s.name.to_string())),
                ("start_us".to_string(), num(s.start_us)),
                ("end_us".to_string(), num(s.end_us)),
                ("self_us".to_string(), num(self_us)),
            ])
        })
        .collect();
    Json::Obj(vec![
        (
            "schema".to_string(),
            Json::Str("otter-benchmark-trace/v1".to_string()),
        ),
        ("workload".to_string(), Json::Str(workload.to_string())),
        ("seed".to_string(), num(seed as f64)),
        ("spans".to_string(), Json::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<SpanId>, start_us: f64, end_us: f64) -> Span {
        Span {
            name: "s",
            parent,
            job: 1,
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_child_intervals() {
        let spans = vec![
            span(None, 0.0, 100.0),     // root
            span(Some(0), 10.0, 40.0),  // child
            span(Some(0), 30.0, 60.0),  // overlaps the first child
            span(Some(0), 80.0, 120.0), // runs past the parent: clipped
            span(Some(1), 15.0, 20.0),  // grandchild
        ];
        let selfs = self_times_us(&spans);
        // Union of children inside the root: [10,60] + [80,100] = 70.
        assert_eq!(selfs[0], 30.0);
        assert_eq!(selfs[1], 25.0);
        assert_eq!(selfs[2], 30.0);
        assert_eq!(selfs[3], 40.0);
        assert_eq!(selfs[4], 5.0);
    }

    #[test]
    fn sequential_self_times_sum_to_the_root_span() {
        let spans = vec![
            span(None, 0.0, 50.0),
            span(Some(0), 1.0, 20.0),
            span(Some(0), 20.0, 45.0),
            span(Some(2), 22.0, 30.0),
        ];
        let total: f64 = self_times_us(&spans).iter().sum();
        assert!((total - 50.0).abs() < 1e-9);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let rec = Recorder::new(true);
        let v = rec.span("outer", None, 7, |outer| {
            rec.span("inner", outer, 7, |inner| {
                assert!(inner.is_some());
                41
            }) + 1
        });
        assert_eq!(v, 42);
        let spans = rec.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_us <= spans[1].start_us && spans[1].end_us <= spans[0].end_us);
        assert_eq!(self_by_name(&spans).len(), 2);

        let off = Recorder::new(false);
        assert_eq!(off.span("x", None, 1, |id| id), None);
        assert!(off.take().is_empty());
    }
}
