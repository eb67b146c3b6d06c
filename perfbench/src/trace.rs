//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code around its calls
//! into each layer (`core.issue`, `serve.submit`, `wire.encode`, …).
//! Synchronous calls nest on a stack, so a span's parent is the span
//! open when it began; per-request intervals derived from `Response`
//! stamps are recorded afterwards with an explicit parent. Every span
//! is folded into per-name aggregates (count, total and self time) as
//! it closes; the first [`SPAN_CAP`] spans are also kept verbatim and
//! written out when the run ends, so memory stays bounded on long runs.
//!
//! A disabled tracer records nothing and reads no clock.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Spans kept verbatim for the span file; later spans are aggregated
/// only.
pub const SPAN_CAP: usize = 200_000;

/// Marks a span without a parent.
pub const NO_PARENT: u64 = u64::MAX;

/// One closed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, in begin order.
    pub id: u64,
    /// The enclosing span's id, or [`NO_PARENT`].
    pub parent: u64,
    /// `<layer>.<operation>`.
    pub name: &'static str,
    /// Request the span belongs to (0 when it serves several).
    pub req: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Per-name aggregate.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Agg {
    /// Spans closed.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed durations minus the time child spans cover.
    pub self_ns: u64,
}

#[derive(Debug)]
struct Open {
    id: u64,
    parent: u64,
    name: &'static str,
    req: u64,
    start: Instant,
    child_ns: u64,
}

/// The span recorder; see the module docs.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: u64,
    open: Vec<Open>,
    spans: Vec<Span>,
    dropped: u64,
    agg: BTreeMap<&'static str, Agg>,
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: 0,
            open: Vec::new(),
            spans: Vec::new(),
            dropped: 0,
            agg: BTreeMap::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Open a synchronous span nested in the currently open one.
    pub fn begin(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(NO_PARENT, |o| o.id);
        let id = self.take_id();
        self.open.push(Open {
            id,
            parent,
            name,
            req,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Close the innermost open span; returns its duration (0 when
    /// disabled).
    pub fn end(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let end = Instant::now();
        let open = self.open.pop().expect("end() matches a begin()");
        let dur = ns_between(open.start, end);
        if let Some(parent) = self.open.last_mut() {
            parent.child_ns += dur;
        }
        self.close(
            Span {
                id: open.id,
                parent: open.parent,
                name: open.name,
                req: open.req,
                start_ns: ns_between(self.epoch, open.start),
                end_ns: ns_between(self.epoch, end),
            },
            dur.saturating_sub(open.child_ns),
        );
        dur
    }

    /// Record an already-timed synchronous leaf span inside the open
    /// span (for calls whose span is kept only when they did work).
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let dur = ns_between(start, end);
        let parent = match self.open.last_mut() {
            Some(p) => {
                p.child_ns += dur;
                p.id
            }
            None => NO_PARENT,
        };
        let id = self.take_id();
        let span = Span {
            id,
            parent,
            name,
            req,
            start_ns: ns_between(self.epoch, start),
            end_ns: ns_between(self.epoch, end),
        };
        self.close(span, dur);
    }

    /// Turn recording on or off (set-up and untraced stretches of a
    /// traced run are not recorded).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.open.is_empty(), "toggled with spans open");
        self.enabled = enabled;
    }

    /// Record one request's root span over `[start, end]` and its
    /// disjoint stage intervals as children; the root's self time is
    /// what the stages leave uncovered. Returns the root's id.
    pub fn record_request(
        &mut self,
        name: &'static str,
        req: u64,
        start: Instant,
        end: Instant,
        stages: &[(&'static str, Instant, Instant)],
    ) -> u64 {
        if !self.enabled {
            return NO_PARENT;
        }
        let root = self.take_id();
        let mut covered = 0u64;
        for &(stage, s, e) in stages {
            let (s, e) = (s.clamp(start, end), e.clamp(start, end));
            let dur = ns_between(s, e);
            covered += dur;
            let id = self.take_id();
            self.close(
                Span {
                    id,
                    parent: root,
                    name: stage,
                    req,
                    start_ns: ns_between(self.epoch, s),
                    end_ns: ns_between(self.epoch, e),
                },
                dur,
            );
        }
        let dur = ns_between(start, end);
        self.close(
            Span {
                id: root,
                parent: NO_PARENT,
                name,
                req,
                start_ns: ns_between(self.epoch, start),
                end_ns: ns_between(self.epoch, end),
            },
            dur.saturating_sub(covered),
        );
        root
    }

    /// The aggregate for span `name` (zero if never recorded).
    pub fn agg(&self, name: &str) -> Agg {
        self.agg.get(name).copied().unwrap_or_default()
    }

    /// Summed self time of every span whose name starts with `layer.`.
    pub fn layer_self_ns(&self, layer: &str) -> u64 {
        self.agg
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, a)| a.self_ns)
            .sum()
    }

    /// Spans kept verbatim.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the kept spans as JSON lines, then one summary line with
    /// the per-name aggregates and the number of spans not kept.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.name, s.req, s.start_ns, s.end_ns
            );
        }
        let aggs: Vec<String> = self
            .agg
            .iter()
            .map(|(name, a)| {
                format!(
                    "\"{name}\":{{\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                    a.count, a.total_ns, a.self_ns
                )
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"summary\":{{\"kept\":{},\"not_kept\":{},\"aggregates\":{{{}}}}}}}",
            self.spans.len(),
            self.dropped,
            aggs.join(",")
        );
        std::fs::write(path, out)
    }

    fn take_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    fn close(&mut self, span: Span, self_ns: u64) {
        let agg = self.agg.entry(span.name).or_default();
        agg.count += 1;
        agg.total_ns += span.end_ns - span.start_ns;
        agg.self_ns += self_ns;
        if self.spans.len() < SPAN_CAP {
            self.spans.push(span);
        } else {
            self.dropped += 1;
        }
    }
}

/// Nanoseconds from `a` to `b`, 0 if `b` is earlier.
pub fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn nested_spans_get_parent_and_self_time() {
        let mut t = Tracer::new(true);
        t.begin("client.batch", 0);
        t.begin("core.issue", 1);
        std::thread::sleep(Duration::from_millis(2));
        t.end();
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let (issue, batch) = (&spans[0], &spans[1]);
        assert_eq!(issue.parent, batch.id);
        assert_eq!(batch.parent, NO_PARENT);
        let b = t.agg("client.batch");
        assert!(b.self_ns < b.total_ns);
        assert_eq!(b.total_ns - b.self_ns, t.agg("core.issue").total_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        t.begin("core.run", 0);
        assert_eq!(t.end(), 0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn request_root_self_time_is_the_uncovered_part() {
        let mut t = Tracer::new(true);
        let s = Instant::now();
        let ms = |n| s + Duration::from_millis(n);
        t.record_request(
            "client.request",
            7,
            s,
            ms(10),
            &[("serve.queued", s, ms(4)), ("serve.exec", ms(4), ms(9))],
        );
        assert_eq!(t.agg("client.request").self_ns, 1_000_000);
        assert_eq!(t.layer_self_ns("serve"), 9_000_000);
    }
}
