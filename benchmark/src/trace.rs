//! Span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its *own* calls into the
//! program (spans inside the program are a later issue), kept in memory,
//! and written out when the run ends. With tracing off every call here
//! is one branch, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::time::Instant;

use rpav_core::json::{self, Json};

#[derive(Clone, Debug)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Shared by every span of one workload pass (0 outside a pass).
    pub pass: u32,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: u32,
}

/// Handle of an open span; `end` closes it.
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Spans begun from now on carry this pass id.
    pub fn set_pass(&mut self, pass: u32) {
        self.pass = pass;
    }

    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let now = self.now_ns();
        self.spans[id].end_ns = now;
        // Close any child left open by an early return, then this span.
        while let Some(top) = self.open.pop() {
            if top == id {
                break;
            }
            self.spans[top].end_ns = now;
        }
    }

    /// A zero-length marker under the currently open span (an observer
    /// callback, the first event line, …).
    pub fn mark(&mut self, name: &str) {
        let id = self.begin(name);
        self.end(id);
    }

    /// A finished leaf measured elsewhere (`ns` long, ending now).
    pub fn leaf(&mut self, name: &str, ns: u64) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now.saturating_sub(ns),
            end_ns: now,
            parent: self.open.last().copied(),
            pass: self.pass,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: how many, their total duration, and their self
    /// time — duration minus the part of it their children cover.
    pub fn self_times(&self) -> BTreeMap<String, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut by_name: BTreeMap<String, (u64, u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let total = s.end_ns - s.start_ns;
            let e = by_name.entry(s.name.clone()).or_default();
            e.0 += 1;
            e.1 += total;
            e.2 += total.saturating_sub(child_ns[i]);
        }
        by_name
    }

    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                json::obj(vec![
                    ("name", Json::Str(s.name.clone())),
                    ("start_ns", Json::UInt(s.start_ns)),
                    ("end_ns", Json::UInt(s.end_ns)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                    ),
                    ("pass", Json::UInt(u64::from(s.pass))),
                ])
            })
            .collect();
        let self_times = self
            .self_times()
            .into_iter()
            .map(|(name, (count, total, own))| {
                json::obj(vec![
                    ("name", Json::Str(name)),
                    ("count", Json::UInt(count)),
                    ("total_ns", Json::UInt(total)),
                    ("self_ns", Json::UInt(own)),
                ])
            })
            .collect();
        json::obj(vec![
            ("spans", Json::Array(spans)),
            ("self_time_by_span", Json::Array(self_times)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("a");
        t.mark("m");
        t.leaf("l", 5);
        t.end(a);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn parents_passes_and_self_time() {
        let mut t = Tracer::new(true);
        let w = t.begin("workload");
        t.set_pass(1);
        let p = t.begin("pass");
        let c = t.begin("cell");
        t.leaf("probe.x", 0);
        t.end(c);
        t.end(p);
        t.end(w);
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(2));
        assert_eq!((s[0].pass, s[1].pass, s[2].pass), (0, 1, 1));
        // Self time never exceeds the total, and a span whose only
        // content is its child keeps (almost) nothing for itself.
        for (_, (_, total, own)) in t.self_times() {
            assert!(own <= total);
        }
        // Closing an outer span closes what was left open inside it.
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let _leaked = t.begin("inner");
        t.end(outer);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let again = t.begin("next");
        t.end(again);
        assert_eq!(t.spans()[2].parent, None);
    }
}
