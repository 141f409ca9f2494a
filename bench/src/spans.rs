//! Spans recorded by the traced run around each call into a layer.
//!
//! Spans are kept in memory and written out when the run ends. A span's
//! self time is its duration minus the part its child spans cover; the
//! output checker requires the self times to sum to no more than the
//! run's wall time.

use crate::stats::{json_num, json_str};
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// Id of the root span of the operation this span belongs to.
    pub op: usize,
    pub name: String,
    pub start_s: f64,
    pub end_s: f64,
}

/// An in-memory span recorder; spans nest in the order they open.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }
}

impl Tracer {
    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let op = parent.map_or(id, |p| self.spans[p].op);
        let start_s = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span { id, parent, op, name: name.to_string(), start_s, end_s: start_s });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Seconds since the tracer started.
    pub fn elapsed(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time summed per span name.
    pub fn self_times(&self) -> BTreeMap<String, f64> {
        let mut child = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.end_s - s.start_s;
            }
        }
        let mut out = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name.clone()).or_insert(0.0) += (s.end_s - s.start_s) - child[s.id];
        }
        out
    }

    /// `[{"id":..,"parent":..,"op":..,"name":..,"start_s":..,"end_s":..}, ...]`
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"name\": {}, \"start_s\": {}, \"end_s\": {}}}",
                    s.id,
                    s.parent.map_or("null".to_string(), |p| p.to_string()),
                    s.op,
                    json_str(&s.name),
                    json_num(s.start_s),
                    json_num(s.end_s)
                )
            })
            .collect();
        format!("[\n{}\n]", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::default();
        t.span("outer", |t| {
            t.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        let st = t.self_times();
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, 0);
        let outer = spans[0].end_s - spans[0].start_s;
        let inner = spans[1].end_s - spans[1].start_s;
        assert!((st["outer"] - (outer - inner)).abs() < 1e-12);
        assert!(st["outer"] + st["inner"] <= t.elapsed());
    }
}
