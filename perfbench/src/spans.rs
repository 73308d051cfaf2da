//! The harness's own in-memory spans for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer,
//! never inside the program. Every op carries one id (sent as its
//! `traceparent` when the op is a request), each span names its parent
//! within the op, and a span's self time is its duration minus the
//! durations of its children. Buffers are per thread and merged when the
//! run ends, then written out as TSV.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Id of the op the span belongs to.
    pub op: u64,
    /// Id of the span within its op (from 1).
    pub id: u32,
    /// Id of the parent span within the op; 0 for the op's root.
    pub parent: u32,
    /// Layer-boundary name, e.g. `exp.fig4` or `serve.connect`.
    pub name: Cow<'static, str>,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// A per-thread span buffer sharing the run's epoch.
#[derive(Debug)]
pub struct SpanBuf {
    epoch: Instant,
    spans: Vec<Span>,
    id_base: u32,
    next_id: u32,
    op: u64,
}

impl SpanBuf {
    /// An empty buffer timing spans from `epoch`.
    pub fn new(epoch: Instant) -> SpanBuf {
        SpanBuf::with_id_base(epoch, 0)
    }

    /// An empty buffer whose span ids start above `id_base`, so spans it
    /// records for an op never share ids with another buffer's spans of
    /// the same op.
    pub fn with_id_base(epoch: Instant, id_base: u32) -> SpanBuf {
        SpanBuf {
            epoch,
            spans: Vec::new(),
            id_base,
            next_id: id_base,
            op: 0,
        }
    }

    /// Starts recording the spans of op `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.next_id = self.id_base;
    }

    /// Reserves the id of a span that is about to start, so its children
    /// can name it as their parent before it ends.
    pub fn reserve(&mut self) -> u32 {
        self.next_id += 1;
        self.next_id
    }

    /// Records a finished span with a reserved `id`.
    pub fn record(
        &mut self,
        id: u32,
        parent: u32,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            op: self.op,
            id,
            parent,
            name: name.into(),
            start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
            dur_ns: end.saturating_duration_since(start).as_nanos() as u64,
        });
    }

    /// Reserves an id and records a span in one step (a leaf).
    pub fn leaf(
        &mut self,
        parent: u32,
        name: impl Into<Cow<'static, str>>,
        start: Instant,
        end: Instant,
    ) {
        let id = self.reserve();
        self.record(id, parent, name, start, end);
    }
}

/// Times `f` as a span named `name` under `parent` when `buf` is given;
/// otherwise just runs it.
pub fn timed<R>(
    buf: Option<&mut SpanBuf>,
    parent: u32,
    name: impl Into<Cow<'static, str>>,
    f: impl FnOnce() -> R,
) -> R {
    match buf {
        Some(buf) => {
            let start = Instant::now();
            let out = f();
            buf.leaf(parent, name, start, Instant::now());
            out
        }
        None => f(),
    }
}

/// Every span of a run, merged from the per-thread buffers.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Moves a thread's spans into the run's trace.
    pub fn absorb(&mut self, buf: SpanBuf) {
        self.spans.extend(buf.spans);
    }

    /// Moves another run's spans into this trace.
    pub fn merge(&mut self, other: Trace) {
        self.spans.extend(other.spans);
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per span name, one value per op: the summed durations (in ns) of
    /// that op's spans of that name.
    pub fn durations(&self) -> BTreeMap<String, Vec<f64>> {
        self.per_op(|s| s.dur_ns)
    }

    /// Per span name, one value per op: the summed self time (in ns),
    /// each span's duration minus its children's durations.
    pub fn self_times(&self) -> BTreeMap<String, Vec<f64>> {
        let mut child_ns: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *child_ns.entry((s.op, s.parent)).or_default() += s.dur_ns;
            }
        }
        self.per_op(|s| {
            s.dur_ns
                .saturating_sub(child_ns.get(&(s.op, s.id)).copied().unwrap_or(0))
        })
    }

    fn per_op(&self, value: impl Fn(&Span) -> u64) -> BTreeMap<String, Vec<f64>> {
        let mut by_op: BTreeMap<(&str, u64), u64> = BTreeMap::new();
        for s in &self.spans {
            *by_op.entry((s.name.as_ref(), s.op)).or_default() += value(s);
        }
        let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for ((name, _), ns) in by_op {
            out.entry(name.to_string()).or_default().push(ns as f64);
        }
        out
    }

    /// Writes the spans, ordered by start time, as tab-separated lines
    /// `op id parent name start_ns dur_ns` after a `#`-prefixed header
    /// line holding `header`.
    pub fn write_tsv(&self, path: &Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_ns, s.op, s.id));
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "# {header}")?;
        writeln!(out, "op\tid\tparent\tname\tstart_ns\tdur_ns")?;
        for s in spans {
            writeln!(
                out,
                "{:016x}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.id, s.parent, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_per_op() {
        let epoch = Instant::now();
        let t = |ms: u64| epoch + Duration::from_millis(ms);
        let mut buf = SpanBuf::new(epoch);
        for op in [1u64, 2] {
            buf.begin_op(op);
            let root = buf.reserve();
            buf.leaf(root, "child", t(1), t(3));
            buf.leaf(root, "child", t(4), t(5));
            buf.record(root, 0, "root", t(0), t(10));
        }
        let mut trace = Trace::default();
        trace.absorb(buf);
        let selfs = trace.self_times();
        assert_eq!(selfs["root"], vec![7e6, 7e6]);
        assert_eq!(selfs["child"], vec![3e6, 3e6]);
        assert_eq!(trace.durations()["root"], vec![10e6, 10e6]);
    }
}
