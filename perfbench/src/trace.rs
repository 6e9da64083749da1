//! In-memory span recorder for the traced run.
//!
//! Spans are kept in a `Vec` and written out once, when the run ends. With
//! tracing off every method is a no-op, so the untraced run that measures
//! the end-to-end metrics pays nothing for it.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call, or one enclosing scope (workload, point).
struct Span {
    name: &'static str,
    parent: Option<usize>,
    point: Option<usize>,
    pass: usize,
    start_us: f64,
    end_us: f64,
    /// Per-stage sums the callee reported about itself (not intervals).
    records: Vec<(&'static str, f64)>,
}

/// Span recorder; `spans` is `None` when tracing is off.
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer { origin: Instant::now(), spans: enabled.then(Vec::new) }
    }

    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    fn micros(&self, at: Instant) -> f64 {
        at.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a scope span that ends at [`Tracer::close`].
    pub fn open(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
        pass: usize,
    ) -> Option<usize> {
        let now = self.micros(Instant::now());
        let spans = self.spans.as_mut()?;
        spans.push(Span { name, parent, point, pass, start_us: now, end_us: now, records: vec![] });
        Some(spans.len() - 1)
    }

    pub fn close(&mut self, id: Option<usize>) {
        let now = self.micros(Instant::now());
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            spans[id].end_us = now;
        }
    }

    /// Records a finished call that ran from `start` to `end`.
    #[allow(clippy::too_many_arguments)]
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        point: Option<usize>,
        pass: usize,
        start: Instant,
        end: Instant,
        records: Vec<(&'static str, f64)>,
    ) {
        let (start_us, end_us) = (self.micros(start), self.micros(end));
        if let Some(spans) = self.spans.as_mut() {
            spans.push(Span { name, parent, point, pass, start_us, end_us, records });
        }
    }

    /// The spans as a JSON array.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (id, s) in self.spans.iter().flatten().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let opt = |v: Option<usize>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = write!(
                out,
                "\n  {{\"id\":{id},\"name\":\"{}\",\"parent\":{},\"point\":{},\"pass\":{},\
                 \"start_us\":{:.1},\"end_us\":{:.1},\"records\":{{",
                s.name,
                opt(s.parent),
                opt(s.point),
                s.pass,
                s.start_us,
                s.end_us
            );
            for (i, (key, value)) in s.records.iter().enumerate() {
                let sep = if i > 0 { "," } else { "" };
                let _ = write!(out, "{sep}\"{key}\":{}", crate::report::num(*value));
            }
            out.push_str("}}");
        }
        out.push_str("\n]");
        out
    }
}
