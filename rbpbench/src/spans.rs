//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps each of its own calls into a layer of the
//! workspace in a span: name, start, end, parent span, and the id of
//! the operation it belongs to. Spans stay in memory until the run
//! ends; [`Tracer::write_jsonl`] then writes them out and
//! [`Tracer::self_times`] folds them into per-layer self time (a span's
//! duration minus the part its child spans cover).
//!
//! A disabled tracer records nothing and costs one branch per call, so
//! the untraced run measures the same code path.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (`core.search`, `serve.api`, …) or `op` for the
    /// operation root.
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's epoch (≥ `start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation id shared by every span of one operation.
    pub op: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer; `enabled = false` records nothing.
    #[must_use]
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` that belongs to operation
    /// `op`, nested under whatever span is currently open.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Records an already measured child interval of `dur_ns` under the
    /// open span — used where a layer runs inside a call the benchmark
    /// cannot split (the validator inside refinement), with its time
    /// estimated by replaying the same calls directly.
    pub fn record_child(&mut self, name: &'static str, op: u64, dur_ns: u64) {
        if !self.enabled {
            return;
        }
        let Some(&parent) = self.open.last() else {
            return;
        };
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: end_ns.saturating_sub(dur_ns),
            end_ns,
            parent: Some(parent),
            op,
        });
    }

    /// Every span recorded so far, in start order.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Appends another thread's spans (re-based parents, same epoch
    /// assumed close enough for self-time accounting).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time per span name, in nanoseconds: each span's duration
    /// minus the durations of its direct children.
    #[must_use]
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(c);
        }
        out
    }

    /// Total duration of root spans named `name` (the operation wall
    /// time when `name` is the operation root).
    #[must_use]
    pub fn root_total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Writes every span as one JSON line to `path`.
    ///
    /// # Errors
    /// Propagates file creation and write failures.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_keeps_parent_links() {
        let mut t = Tracer::new(true);
        t.span("op", 7, |t| {
            t.span("core.search", 7, |t| {
                t.span("core.validate", 7, |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert!(spans.iter().all(|s| s.op == 7));
        let selfs = t.self_times();
        let total: u64 = selfs.values().sum();
        assert_eq!(
            total,
            t.root_total_ns("op"),
            "self times partition the root"
        );
        assert!(selfs["core.validate"] >= 2_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let v = t.span("op", 1, |t| {
            t.record_child("core.validate", 1, 10);
            5
        });
        assert_eq!(v, 5);
        assert!(t.spans().is_empty());
    }
}
