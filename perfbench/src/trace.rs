//! In-memory spans around the benchmark's own calls into each layer.
//!
//! A span has a name, a start and end, the span that caused it, and the
//! op it belongs to. Spans stay in memory while the run measures and
//! are written out when it ends. A layer's self time is its span's
//! duration minus the part of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a recorded span; `NO_PARENT` marks a root.
pub type SpanId = usize;

/// The parent of a root span.
pub const NO_PARENT: SpanId = usize::MAX;

#[derive(Clone, Debug)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    op: u64,
}

/// A span recorder; a disabled one records nothing and costs a branch.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, op: u64, parent: SpanId) -> SpanId {
        if !self.enabled {
            return NO_PARENT;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
        });
        self.spans.len() - 1
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if id == NO_PARENT {
            return;
        }
        let now = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = now;
        }
    }

    /// Renames a recorded span (a name decided after the call, such as
    /// a cache hit or miss).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(span) = self.spans.get_mut(id) {
            span.name = name;
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, op, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Per span name: count, total and self time. Self time subtracts
    /// the union of the intervals the span's children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTime> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(list) = children.get_mut(span.parent) {
                list.push((span.start_ns, span.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (span, kids) in self.spans.iter().zip(children.iter_mut()) {
            let total = span.end_ns.saturating_sub(span.start_ns);
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(span.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            let entry = out.entry(span.name).or_default();
            entry.total_us += total as f64 / 1e3;
            entry
                .self_us
                .push(total.saturating_sub(covered) as f64 / 1e3);
        }
        out
    }

    /// Duration in µs of every span named `name`, keyed by op.
    pub fn by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3))
            .collect()
    }

    /// Writes every span as one tab-separated line:
    /// `name start_ns end_ns parent op` (parent `-` for roots).
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\top")?;
        for span in &self.spans {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                span.name, span.start_ns, span.end_ns, parent, span.op
            )?;
        }
        out.flush()
    }
}

/// Aggregated time of one span name.
#[derive(Clone, Debug, Default)]
pub struct LayerTime {
    /// Summed duration, µs.
    pub total_us: f64,
    /// Self time of each span, µs.
    pub self_us: Vec<f64>,
}

impl LayerTime {
    /// Spans recorded.
    pub fn count(&self) -> usize {
        self.self_us.len()
    }

    /// Median self time per span, µs (0 when none were recorded).
    pub fn self_median_us(&self) -> f64 {
        crate::stats::median(&self.self_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        t.spans = vec![
            Span {
                name: "root",
                start_ns: 0,
                end_ns: 10_000,
                parent: NO_PARENT,
                op: 0,
            },
            Span {
                name: "kid",
                start_ns: 1_000,
                end_ns: 4_000,
                parent: 0,
                op: 0,
            },
            Span {
                name: "kid",
                start_ns: 3_000,
                end_ns: 6_000,
                parent: 0,
                op: 0,
            },
        ];
        let summary = t.summary();
        assert_eq!(summary["root"].total_us, 10.0);
        assert_eq!(summary["root"].self_us, vec![5.0]);
        assert_eq!(summary["kid"].count(), 2);
        assert_eq!(summary["kid"].self_median_us(), 3.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", 0, NO_PARENT);
        t.end(id);
        assert!(t.summary().is_empty());
    }
}
