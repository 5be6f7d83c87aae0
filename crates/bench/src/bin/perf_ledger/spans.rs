//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files only, around the
//! calls into each layer; they are kept in memory and written as JSONL
//! when the run ends. A disabled recorder still times its scopes (set-up
//! time is needed by the untraced run too) but stores nothing.

use std::time::Instant;

use crate::json::Value;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for the root.
    pub parent: Option<u32>,
    /// Spans of one trial share its id; 0 outside any trial.
    pub trial: u32,
    pub name: &'static str,
    /// Host monotonic nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts taken at the same boundary (sessions in flight, simulated
    /// ns advanced, hops, LUN units, ...).
    pub counts: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records a tree of spans against one monotonic clock.
pub struct Recorder {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Open spans, innermost last (indices into `spans`).
    stack: Vec<usize>,
    trial: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            trial: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the trial id stamped on spans opened from now on (0 = none).
    pub fn set_trial(&mut self, trial: u32) {
        self.trial = trial;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let id = self.spans.len() as u32;
        let parent = self.stack.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            trial: self.trial,
            name,
            start_ns,
            end_ns: start_ns,
            counts: Vec::new(),
        });
        self.stack.push(id as usize);
    }

    /// Closes the innermost open span, attaching `counts`.
    pub fn close(&mut self, counts: &[(&'static str, u64)]) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.stack.pop().expect("close without a matching open");
        self.spans[i].end_ns = end_ns;
        self.spans[i].counts = counts.to_vec();
    }

    /// Runs `f` inside a span and returns its result with the elapsed
    /// host seconds (measured whether or not the recorder is enabled).
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> (T, f64) {
        self.open(name);
        let start = Instant::now();
        let out = f(self);
        let elapsed = start.elapsed().as_secs_f64();
        self.close(&[]);
        (out, elapsed)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// How many spans of trial `trial` carry `name`.
    pub fn count_named(&self, name: &str, trial: u32) -> usize {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.trial == trial)
            .count()
    }

    /// One JSON object per line, in creation order.
    pub fn to_jsonl(&self) -> String {
        let self_ns = self_times(&self.spans);
        let mut out = String::new();
        for (s, self_ns) in self.spans.iter().zip(self_ns) {
            let counts = Value::obj(s.counts.iter().map(|&(k, v)| (k, Value::Num(v as f64))));
            let line = Value::obj([
                ("id", Value::Num(f64::from(s.id))),
                (
                    "parent",
                    s.parent.map_or(Value::Null, |p| Value::Num(f64::from(p))),
                ),
                ("trial", Value::Num(f64::from(s.trial))),
                ("name", Value::Str(s.name.to_string())),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
                ("self_ns", Value::Num(self_ns as f64)),
                ("counts", counts),
            ]);
            out.push_str(&line.render());
            out.push('\n');
        }
        out
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children are counted once, and
/// a child is clipped to its parent's interval). Span ids index `spans`
/// (the recorder numbers spans in creation order); the result is indexed
/// the same way.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.map(|p| p as usize) {
            debug_assert_eq!(spans[p].id as usize, p, "span ids must index the slice");
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trial: 0,
            name: "s",
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span(0, None, 0, 100),    // root
            span(1, Some(0), 10, 40), // child a
            span(2, Some(0), 50, 90), // child b (sibling of a)
            span(3, Some(1), 15, 25), // grandchild under a
        ];
        // root: 100 - (30 + 40); a: 30 - 10; b and the grandchild are leaves.
        assert_eq!(self_times(&spans), vec![30, 20, 40, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let spans = vec![
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 180), // overlaps span 1 by 10
            span(3, Some(0), 190, 260), // overhangs the parent by 60
            span(4, Some(0), 120, 130), // nested inside span 1's interval
        ];
        // covered = [110,180) + [190,200) = 80
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn recorder_builds_the_tree_and_disabled_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.open("run");
        rec.set_trial(3);
        let ((), secs) = rec.scope("trial", |rec| {
            rec.open("round");
            rec.close(&[("hops", 7)]);
        });
        assert!(secs >= 0.0);
        rec.set_trial(0);
        rec.close(&[]);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[0].trial, spans[1].trial, spans[2].trial), (0, 3, 3));
        assert_eq!(spans[2].counts, vec![("hops", 7)]);
        assert_eq!(rec.count_named("round", 3), 1);
        assert_eq!(rec.count_named("round", 0), 0);
        let jsonl = rec.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        for line in jsonl.lines() {
            crate::json::parse(line).expect("every span line is valid JSON");
        }

        let mut off = Recorder::new(false);
        let (x, _) = off.scope("setup", |_| 5);
        assert_eq!(x, 5);
        assert!(off.spans().is_empty());
    }
}
