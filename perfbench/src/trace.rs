//! In-memory spans recorded by the benchmark around its calls into the
//! program's layers, and the per-layer tables computed from them.
//!
//! A span has a name, a start and end (seconds since the tracer was
//! created), an optional parent, a request or epoch id, and a count of the
//! work it covered. Some durations are known only as a total: measured by
//! replaying the same inputs against a lower layer after the timed phase
//! (spans marked `replay`), or reported by the program's own phase timers
//! for a live call. Those are attached under the live span whose work they
//! account for, starting at its start. A layer's self time is its span's
//! duration minus its children's durations, so over any tree the self
//! times add up to the root's duration exactly; the root's own self time
//! is the `other` row.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Handle to a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer entry point the span covers, e.g. `core.trainer.train`.
    pub name: String,
    /// Seconds since the tracer's origin.
    pub start: f64,
    /// Seconds since the tracer's origin.
    pub end: f64,
    /// Enclosing span.
    pub parent: Option<SpanId>,
    /// Request, op or epoch id the span belongs to.
    pub id: u64,
    /// Work items the span covered (examples, queries, requests).
    pub count: u64,
    /// Measured by a replay rather than during the live call.
    pub replay: bool,
}

/// Span recorder. When disabled every call is a no-op, so the untraced
/// run pays only for the branch.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Where the next attached child of each parent starts.
    attach_cursor: HashMap<usize, f64>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            attach_cursor: HashMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64()
    }

    /// Records a span that ran from `start` to `end`.
    pub fn record(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        id: u64,
        count: u64,
        start: Instant,
        end: Instant,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let (start, end) = (self.at(start), self.at(end));
        self.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent,
            id,
            count,
            replay: false,
        })
    }

    /// Attaches a duration of `secs` under `parent`, starting at the
    /// parent's start (after any siblings already attached this way, so
    /// they never overlap). `replay` marks a duration measured by a replay
    /// rather than during the live call.
    pub fn attach(
        &mut self,
        name: &str,
        parent: SpanId,
        id: u64,
        count: u64,
        secs: f64,
        replay: bool,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let start = *self
            .attach_cursor
            .entry(parent.0)
            .or_insert(self.spans[parent.0].start);
        self.attach_cursor.insert(parent.0, start + secs);
        self.push(Span {
            name: name.to_owned(),
            start,
            end: start + secs,
            parent: Some(parent),
            id,
            count,
            replay,
        })
    }

    fn push(&mut self, span: Span) -> Option<SpanId> {
        self.spans.push(span);
        Some(SpanId(self.spans.len() - 1))
    }

    /// Per-layer table over every tree rooted at a span named `root`:
    /// self time summed by span name, the roots' self time as `other`.
    pub fn table(
        &self,
        title: &str,
        root: &str,
        unit_scale: f64,
        unit: &'static str,
    ) -> LayerTable {
        let mut child_secs = vec![0.0f64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p.0] += s.end - s.start;
            }
        }
        // Membership: a span belongs to the table when its chain of
        // parents reaches a root.
        let mut in_tree = vec![false; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            in_tree[i] = match s.parent {
                None => s.name == root,
                Some(p) => in_tree[p.0],
            };
        }
        let mut rows: BTreeMap<String, f64> = BTreeMap::new();
        let mut total = 0.0;
        let mut other = 0.0;
        for (i, s) in self.spans.iter().enumerate() {
            if !in_tree[i] {
                continue;
            }
            let self_secs = (s.end - s.start) - child_secs[i];
            if s.parent.is_none() {
                total += s.end - s.start;
                other += self_secs;
            } else {
                *rows.entry(s.name.clone()).or_insert(0.0) += self_secs;
            }
        }
        LayerTable {
            title: title.to_owned(),
            unit,
            total: total * unit_scale,
            rows: rows.into_iter().map(|(k, v)| (k, v * unit_scale)).collect(),
            other: other * unit_scale,
        }
    }

    /// Writes every span as one JSON line, then `extra` lines verbatim.
    pub fn write(&self, path: &Path, extra: &[String]) -> std::io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.0.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{i},\"name\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\
                 \"id\":{},\"count\":{},\"replay\":{}}}",
                s.name, s.start, s.end, s.id, s.count, s.replay
            );
        }
        for line in extra {
            out.push_str(line);
            out.push('\n');
        }
        std::fs::File::create(path)?.write_all(out.as_bytes())
    }
}

/// Time of one end-to-end result split by layer; the rows plus `other`
/// add up to `total`.
#[derive(Debug, Clone)]
pub struct LayerTable {
    /// Which end-to-end time this splits.
    pub title: String,
    /// Unit of every value.
    pub unit: &'static str,
    /// The end-to-end time.
    pub total: f64,
    /// `(layer, self time)`, by name.
    pub rows: Vec<(String, f64)>,
    /// Time inside the roots that no layer span covers.
    pub other: f64,
}

impl LayerTable {
    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut s = format!("layer table: {} ({})\n", self.title, self.unit);
        let share = |v: f64| {
            if self.total > 0.0 {
                100.0 * v / self.total
            } else {
                0.0
            }
        };
        for (name, v) in &self.rows {
            let _ = writeln!(s, "  {name:<34} {v:>14.4} {:>6.1}%", share(*v));
        }
        let _ = writeln!(
            s,
            "  {:<34} {:>14.4} {:>6.1}%",
            "other",
            self.other,
            share(self.other)
        );
        let _ = writeln!(s, "  {:<34} {:>14.4}", "total", self.total);
        s
    }

    /// One JSON line.
    pub fn to_json(&self) -> String {
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|(k, v)| format!("{{\"layer\":\"{k}\",\"value\":{v}}}"))
            .collect();
        format!(
            "{{\"layer_table\":\"{}\",\"unit\":\"{}\",\"total\":{},\"other\":{},\"rows\":[{}]}}",
            self.title,
            self.unit,
            self.total,
            self.other,
            rows.join(",")
        )
    }
}
