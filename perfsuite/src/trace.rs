//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its own calls into each
//! crate's public functions; nothing inside the program is instrumented.
//! Each span keeps its name, start, end and parent. At exit the spans are
//! written as a Chrome trace-event JSON file (which Perfetto opens
//! directly) and folded into a self-time table: a span's self time is
//! its duration minus the time its direct children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records nested spans on one thread against a shared origin.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> SpanId {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Close `id`, which must be the innermost open span.
    pub fn end(&mut self, id: SpanId) {
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans must close innermost-first");
        self.spans[id.0].end_ns = self.now_ns();
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let out = f();
        self.end(id);
        out
    }

    /// Duration of a closed span, seconds.
    pub fn seconds(&self, id: SpanId) -> f64 {
        let s = &self.spans[id.0];
        (s.end_ns - s.start_ns) as f64 * 1e-9
    }

    /// Self time and call count per span name, over the subtree rooted at
    /// `root` (the root itself included).
    pub fn self_times(&self, root: SpanId) -> BTreeMap<&'static str, StageTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut in_tree = vec![false; self.spans.len()];
        in_tree[root.0] = true;
        // Spans are stored in open order, so a parent precedes its children.
        for (i, s) in self.spans.iter().enumerate().skip(root.0 + 1) {
            if let Some(p) = s.parent.filter(|&p| in_tree[p]) {
                in_tree[i] = true;
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut table: BTreeMap<&'static str, StageTime> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate().skip(root.0) {
            if !in_tree[i] {
                continue;
            }
            let e = table.entry(s.name).or_default();
            e.self_s += (s.end_ns - s.start_ns - child_ns[i]) as f64 * 1e-9;
            e.calls += 1;
        }
        table
    }

    /// Chrome trace-event JSON of every span, for Perfetto.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(s.name),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Accumulated self time of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTime {
    pub self_s: f64,
    pub calls: u64,
}

/// The self-time table as text: one row per span name, largest first.
pub fn self_time_table(title: &str, table: &BTreeMap<&'static str, StageTime>) -> String {
    let total: f64 = table.values().map(|t| t.self_s).sum();
    let mut rows: Vec<_> = table.iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    let mut out = format!(
        "# {title}\n{:<28} {:>12} {:>10} {:>8}\n",
        "span", "self_ms", "calls", "share"
    );
    for (name, t) in rows {
        let _ = writeln!(
            out,
            "{name:<28} {:>12.3} {:>10} {:>7.2}%",
            t.self_s * 1e3,
            t.calls,
            100.0 * t.self_s / total.max(f64::MIN_POSITIVE)
        );
    }
    out
}
