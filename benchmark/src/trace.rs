//! In-memory spans, recorded only from the harness's own files around calls
//! into each layer's public functions, and written out when the run ends.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The workload point the span belongs to (shared by all its spans).
    pub point: u32,
    /// Calibration scale of the point (`calib`): seconds = ns x 1e-9 x scale.
    pub scale: f64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Calibrated seconds.
    pub fn seconds(&self) -> f64 {
        self.duration_ns() as f64 * 1e-9 * self.scale
    }
}

/// Handle of an open span; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, point: u32) -> SpanId {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        let parent = self.open.last().copied();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, point, scale: 1.0 });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes `id` and every span still open inside it (a point that
    /// failed or panicked leaves its inner spans open).
    pub fn exit(&mut self, id: SpanId) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top as usize].end_ns = now;
            if top == id.0 {
                break;
            }
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn spans_since(&self, from: usize) -> &[Span] {
        &self.spans[from..]
    }

    /// Sets the calibration scale of the spans of one pass (`spans[from..]`)
    /// from the scale of the point each belongs to.
    pub fn set_scales(&mut self, from: usize, point_scale: &[f64]) {
        for s in &mut self.spans[from..] {
            s.scale = point_scale[s.point as usize];
        }
    }

    /// Per span name, the summed self time (duration minus the part child
    /// spans cover) and summed duration, in calibrated seconds, over
    /// `spans[from..]`. `from` must be a span with no open parent (a pass
    /// boundary).
    pub fn totals_since(&self, from: usize) -> BTreeMap<&'static str, Totals> {
        let spans = &self.spans[from..];
        let mut child_s = vec![0.0; spans.len()];
        for s in spans {
            if let Some(p) = s.parent {
                child_s[p as usize - from] += s.seconds();
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, children) in spans.iter().zip(child_s) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += s.seconds();
            t.self_s += (s.seconds() - children).max(0.0);
        }
        out
    }

    /// The trace file: a name table and one `[name, start_ns, end_ns,
    /// parent, point, scale]` row per span (`parent` is a row index or -1;
    /// timestamps are raw, `scale` turns a duration into calibrated time).
    pub fn to_json(&self, workload: &str, point_names: &[String]) -> String {
        let mut names: Vec<&'static str> = Vec::new();
        let mut rows = Vec::with_capacity(self.spans.len());
        for s in &self.spans {
            let name_ix = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            let parent = s.parent.map_or(-1, i64::from);
            rows.push(format!(
                "[{name_ix},{},{},{parent},{},{}]",
                s.start_ns,
                s.end_ns,
                s.point,
                json::num(s.scale)
            ));
        }
        json::Obj::new()
            .str("workload", workload)
            .str("columns", "name, start_ns, end_ns, parent, point, scale")
            .raw("names", &json::array(names.iter().map(|n| format!("\"{}\"", json::escape(n)))))
            .raw(
                "points",
                &json::array(point_names.iter().map(|n| format!("\"{}\"", json::escape(n)))),
            )
            .raw("spans", &format!("[\n{}\n]", rows.join(",\n")))
            .finish()
    }
}

#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    pub count: u64,
    pub total_s: f64,
    pub self_s: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new();
        let outer = t.enter("outer", 3);
        let a = t.enter("inner", 3);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(a);
        let b = t.enter("inner", 3);
        t.exit(b);
        t.exit(outer);
        let totals = t.totals_since(0);
        let (o, i) = (totals["outer"], totals["inner"]);
        assert_eq!((o.count, i.count), (1, 2));
        assert!(i.total_s >= 0.002 && i.self_s == i.total_s);
        assert!((o.self_s - (o.total_s - i.total_s)).abs() < 1e-12);
        // Calibrated seconds: every span of point 3 scaled by that point's scale.
        t.set_scales(0, &[1.0, 1.0, 1.0, 0.5]);
        let halved = t.totals_since(0);
        assert!((halved["outer"].total_s - o.total_s / 2.0).abs() < 1e-12);
        assert!((halved["inner"].self_s - i.self_s / 2.0).abs() < 1e-12);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[0].parent, None);
    }

    #[test]
    fn exit_closes_spans_left_open_inside() {
        let mut t = Tracer::new();
        let point = t.enter("point", 0);
        let _leaked = t.enter("sim.simulate", 0);
        t.exit(point);
        assert!(t.open.is_empty());
        let next = t.enter("point", 1);
        t.exit(next);
        assert_eq!(t.spans[2].parent, None);
        let only_last = t.totals_since(2);
        assert_eq!(only_last.len(), 1);
    }

    #[test]
    fn trace_file_lists_names_once() {
        let mut t = Tracer::new();
        for p in 0..2 {
            let s = t.enter("point", p);
            t.exit(s);
        }
        let doc = t.to_json("w", &["a\"b".to_string(), "c".to_string()]);
        assert!(doc.contains(r#""names":["point"]"#));
        assert!(doc.contains(r#""points":["a\"b","c"]"#));
        assert_eq!(doc.matches("[0,").count(), 2);
    }
}
