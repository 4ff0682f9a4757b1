//! In-memory spans recorded around calls into the program's layers, and
//! the per-layer self time computed from them.
//!
//! A span is a name, a start, an end and the span that caused it. Spans
//! are appended to a vector while a unit runs; [`Spans::fold`] turns the
//! vector into per-name totals (self time = the span's duration minus
//! the part its children cover) and clears it, so memory stays bounded
//! by one unit's spans however long the run is.

use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
struct Rec {
    name: &'static str,
    parent: u32,
    start: u64,
    end: u64,
}

/// Per-name totals over every folded span.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Total {
    pub calls: u64,
    pub self_ns: u64,
    pub total_ns: u64,
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    recs: Vec<Rec>,
    open: Vec<u32>,
    totals: BTreeMap<&'static str, Total>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            recs: Vec::new(),
            open: Vec::new(),
            totals: BTreeMap::new(),
        }
    }
}

impl Spans {
    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.recs.len() as u32;
        let start = self.now();
        self.recs.push(Rec { name, parent, start, end: start });
        self.open.push(idx);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.recs[idx as usize].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Fold every closed span into the totals and forget the spans.
    pub fn fold(&mut self) {
        assert!(self.open.is_empty(), "fold with open spans");
        let mut child_ns = vec![0u64; self.recs.len()];
        for r in &self.recs {
            if r.parent != NO_PARENT {
                child_ns[r.parent as usize] += r.end - r.start;
            }
        }
        for (r, kids) in self.recs.iter().zip(child_ns) {
            let dur = r.end - r.start;
            let t = self.totals.entry(r.name).or_default();
            t.calls += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(kids);
        }
        self.recs.clear();
    }

    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Mean self time per call, in nanoseconds.
    pub fn self_ns_per_call(&self, name: &str) -> f64 {
        let t = self.total(name);
        t.self_ns as f64 / t.calls.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut s = Spans::default();
        s.enter("outer");
        s.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        s.time("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        s.exit();
        s.fold();
        let outer = s.total("outer");
        let inner = s.total("inner");
        assert_eq!((outer.calls, inner.calls), (1, 2));
        assert!(inner.self_ns >= 10_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert!(outer.self_ns < inner.self_ns);
    }
}
