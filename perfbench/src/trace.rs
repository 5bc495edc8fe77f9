//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, a parent and the id of the op it
//! belongs to. Spans stay in memory during the run and are written out when
//! it ends. Nothing here reaches inside the library: every span wraps one
//! call to a public function.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::stats;

/// The name of the span that covers one whole op, as its caller sees it.
pub const OP: &str = "op";

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// The op every span of one request shares.
    pub op: u64,
    /// Layer-qualified name, e.g. `solver.solve`.
    pub name: &'static str,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span (`None` while the current op is untraced).
#[derive(Debug, Clone, Copy)]
#[must_use = "an entered span must be exited"]
pub struct Open(Option<usize>);

/// A per-thread span recorder. Off by default; [`Tracer::begin_op`] turns
/// it on or off for each op, so one run can interleave traced and untraced
/// ops.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    on: bool,
    op: u64,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose times count from `epoch` (share one epoch between
    /// the threads of a run).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            on: false,
            op: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Starts op `op`; its spans are recorded only when `traced`.
    pub fn begin_op(&mut self, op: u64, traced: bool) {
        self.op = op;
        self.on = traced;
        self.open.clear();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            op: self.op,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::enter`].
    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            self.open.retain(|&i| i != idx);
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let result = f();
        self.exit(open);
        result
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Concatenates per-thread span lists, re-basing parent indices.
pub fn merge(parts: Vec<Vec<Span>>) -> Vec<Span> {
    let mut all = Vec::new();
    for part in parts {
        let base = all.len();
        all.extend(part.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// Per-op totals of every span name: `name → (op → summed ns)`.
pub fn per_op(spans: &[Span]) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
    let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_default().entry(s.op).or_insert(0.0) += s.duration_ns() as f64;
    }
    out
}

/// Median over ops of the per-op total of `name`, with the op count.
pub fn median_ns(per_op: &BTreeMap<&'static str, BTreeMap<u64, f64>>, name: &str) -> (f64, usize) {
    match per_op.get(name) {
        Some(ops) => {
            let v: Vec<f64> = ops.values().copied().collect();
            (stats::median(&v), v.len())
        }
        None => (0.0, 0),
    }
}

/// Self time of every span: its duration minus what its direct children
/// cover.
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Share of the [`OP`] spans' time that their layer spans account for:
/// the layers' summed self time over the ops' summed duration, with the
/// number of ops.
pub fn coverage(spans: &[Span]) -> (f64, usize) {
    let own = self_ns(spans);
    let (mut total, mut uncovered, mut ops) = (0u64, 0u64, 0usize);
    for (s, &o) in spans.iter().zip(&own) {
        if s.name == OP && s.parent.is_none() {
            total += s.duration_ns();
            uncovered += o;
            ops += 1;
        }
    }
    if total == 0 {
        return (0.0, 0);
    }
    ((total - uncovered) as f64 / total as f64, ops)
}

/// Writes the spans as JSON lines (`index`, `op`, `name`, `parent`,
/// `start_ns`, `end_ns`).
///
/// # Errors
///
/// I/O failures creating or writing the file.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        writeln!(
            out,
            "{{\"index\":{i},\"op\":{},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            op,
            name,
            parent,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(0, OP, None, 0, 100),
            span(0, "a", Some(0), 10, 40),
            span(0, "b", Some(0), 40, 90),
        ];
        assert_eq!(self_ns(&spans), vec![20, 30, 50]);
        let (cov, ops) = coverage(&spans);
        assert_eq!(ops, 1);
        assert!((cov - 0.8).abs() < 1e-12);
    }

    #[test]
    fn merge_rebases_parents() {
        let a = vec![span(0, OP, None, 0, 10), span(0, "x", Some(0), 1, 2)];
        let b = vec![span(1, OP, None, 0, 10), span(1, "x", Some(0), 1, 2)];
        let all = merge(vec![a, b]);
        assert_eq!(all[3].parent, Some(2));
    }

    #[test]
    fn untraced_ops_record_nothing() {
        let mut t = Tracer::new(Instant::now());
        t.begin_op(0, false);
        let o = t.enter(OP);
        t.exit(o);
        t.begin_op(1, true);
        let o = t.enter(OP);
        t.time("inner", || ());
        t.exit(o);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 1));
    }
}
