//! Host-clock spans recorded from the benchmark's side of each call into
//! the system, for the traced run.
//!
//! A span is `layer.function` plus a start, an end, the span that was
//! open when it began (its parent), and the id of the operation or round
//! it belongs to. Spans are kept in memory and written out once, at the
//! end of the run. With tracing off, [`Tracer::begin`] and
//! [`Tracer::end`] do nothing, so untraced runs pay one branch per call.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `layer.function`, e.g. `core.sls_checkpoint`.
    pub name: &'static str,
    /// Operation or round this span belongs to; spans of one op share it.
    pub op: u64,
    /// Host ns since the tracer was created.
    pub start_ns: u64,
    /// Host ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// Wall duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle to an open span (`None` when tracing is off).
#[must_use]
pub struct Open(Option<usize>);

/// The span recorder.
pub struct Tracer {
    on: bool,
    base: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A recorder; `on == false` records nothing.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            base: Instant::now(),
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the operation/round id stamped on spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in whatever span is open.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            op: self.op,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(idx), "spans must close innermost first");
        self.spans[idx].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let s = self.begin(name);
        let out = f();
        self.end(s);
        out
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes the spans as JSON lines, one array per span:
    /// `[id, name, op, start_ns, end_ns, parent id or null, self_ns]`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "[{i},\"{}\",{},{},{},{parent},{}]",
                s.name, s.op, s.start_ns, s.end_ns, selfs[i]
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children counted once,
/// children clipped to the parent).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self times (ns) of every span called `name`.
pub fn self_ns_of(spans: &[Span], selfs: &[u64], name: &str) -> Vec<f64> {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t as f64)
        .collect()
}

/// Per operation id, the summed self time (ns) of spans whose name is
/// in `names`; ops with no such span are skipped. Ascending op order.
pub fn self_ns_per_op(spans: &[Span], selfs: &[u64], names: &[&str]) -> Vec<f64> {
    let mut per: std::collections::BTreeMap<u64, u64> = Default::default();
    for (s, &t) in spans.iter().zip(selfs) {
        if names.contains(&s.name) {
            *per.entry(s.op).or_default() += t;
        }
    }
    per.into_values().map(|t| t as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            op: 0,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)), // overlaps a: union 10..50
            span("leaf", 25, 35, Some(2)),
            span("c", 90, 120, Some(0)), // clipped to the parent's end
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 40 - 10);
        assert_eq!(t[1], 20);
        assert_eq!(t[2], 30 - 10);
        assert_eq!(t[3], 10);
        assert_eq!(t[4], 30);
        // Without overlap or clipping, self times partition the root;
        // here the 10 ns where siblings a and b overlap count in both.
        let t = self_times(&spans[..4]);
        assert_eq!(t.iter().sum::<u64>(), 100 + 10);
    }

    #[test]
    fn tracer_nests_and_groups_by_op() {
        let mut tr = Tracer::new(true);
        tr.set_op(7);
        let outer = tr.begin("cluster.round");
        tr.span("cluster.drain", || std::hint::black_box(1 + 1));
        tr.set_op(8);
        tr.span("cluster.drain", || ());
        tr.end(outer);
        let s = tr.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(0));
        assert_eq!((s[0].op, s[1].op, s[2].op), (7, 7, 8));
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let selfs = self_times(s);
        assert_eq!(self_ns_per_op(s, &selfs, &["cluster.drain"]).len(), 2);
        let mut buf = Vec::new();
        tr.write_jsonl(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap().lines().count(), 3);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut tr = Tracer::new(false);
        let o = tr.begin("x");
        tr.end(o);
        assert!(tr.spans().is_empty());
    }
}
