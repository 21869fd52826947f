//! In-memory spans for the traced run: one per timed call into a layer,
//! kept until the run ends and then written out as JSON lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    /// Workload repetition (round) the span belongs to; `None` for set-up
    /// and the probes after the rounds.
    rep: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// A span recorder; disabled, every call is a no-op.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pub rep: Option<u64>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer { on, t0: Instant::now(), spans: Vec::new(), open: Vec::new(), rep: None }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span named `layer.what`, child of the innermost open span.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            parent: self.open.last().copied(),
            rep: self.rep,
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Close the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let now = self.now_ns();
        let i = self.open.pop().expect("close without open");
        self.spans[i].end_ns = now;
    }

    pub fn timed<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.open(name);
        let r = f();
        self.close();
        r
    }

    /// Self time (span duration minus the time its children cover) summed
    /// per layer, the part of each name before the first `.`; with span
    /// counts.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, (f64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (f64, u64)> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            let e = out.entry(layer).or_default();
            e.0 += (s.end_ns - s.start_ns).saturating_sub(c) as f64 / 1e9;
            e.1 += 1;
        }
        out
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let null = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{id},"parent":{},"rep":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                null(s.parent.map(|p| p as u64)),
                null(s.rep),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.open("outer.x");
        t.timed("inner.y", || std::thread::sleep(std::time::Duration::from_millis(20)));
        t.close();
        let by = t.self_time_by_layer();
        assert!(by["inner"].0 >= 0.02);
        assert!(by["outer"].0 < by["inner"].0);
        assert_eq!(t.to_jsonl().lines().count(), 2);
        assert!(t.to_jsonl().contains(r#""parent":0"#));
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.timed("a.b", || ());
        assert!(t.self_time_by_layer().is_empty());
    }
}
