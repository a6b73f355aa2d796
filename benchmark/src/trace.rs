//! Spans recorded by the harness around its calls into each layer. The
//! program under test carries no spans of its own yet, so a request's inner
//! layers are timed by replaying it at successively inner boundaries; the
//! `parent` link says which outer span a replay stands inside.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Json;

pub struct Span {
    pub name: &'static str,
    /// Index of the request in the traced prefix (`None` for set-up spans).
    pub request: Option<usize>,
    /// Index into the span list of the span this one is nested in.
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Spans are kept in memory and written out once, at the end of the run.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Run `f` inside a span; returns its result and the span's index.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        (
            value,
            self.record(name, request, parent, start, Instant::now()),
        )
    }

    /// Add a span timed elsewhere; returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        request: Option<usize>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
        });
        self.spans.len() - 1
    }

    /// A set-up span: no request, no parent.
    pub fn stage<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.span(name, None, None, f).0
    }

    /// Durations of every span called `name`, in recording order.
    pub fn ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per request, the duration of its `outer` span minus its `inner` one:
    /// the outer layer's self time.
    pub fn self_ms(&self, outer: &str, inner: &str) -> Vec<f64> {
        let by_request = |name: &str| -> Vec<(usize, f64)> {
            self.spans
                .iter()
                .filter(|s| s.name == name)
                .filter_map(|s| s.request.map(|r| (r, s.ms())))
                .collect()
        };
        let inner = by_request(inner);
        by_request(outer)
            .into_iter()
            .filter_map(|(r, o)| {
                let i = inner.iter().find(|(ri, _)| *ri == r)?.1;
                Some(o - i)
            })
            .collect()
    }

    /// One JSON object per line: name, start_ns, end_ns, parent, request.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<usize>| v.map_or(Json::Null, Json::from);
            let line = Json::obj([
                ("id", Json::from(id)),
                ("name", Json::from(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", opt(s.parent)),
                ("request", opt(s.request)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_outer_minus_inner_per_request() {
        let mut t = Tracer::new();
        let mut push = |name, request, start_ns, end_ns| {
            t.spans.push(Span {
                name,
                request: Some(request),
                parent: None,
                start_ns,
                end_ns,
            })
        };
        push("client.http", 0, 0, 10_000_000);
        push("client.http", 1, 0, 8_000_000);
        push("server.handle", 1, 0, 3_000_000);
        push("server.handle", 0, 0, 4_000_000);
        assert_eq!(t.self_ms("client.http", "server.handle"), vec![6.0, 5.0]);
        assert_eq!(t.ms("server.handle"), vec![3.0, 4.0]);
    }

    #[test]
    fn spans_nest_by_parent_index() {
        let mut t = Tracer::new();
        let (_, outer) = t.span("client.http", Some(0), None, || ());
        let (v, inner) = t.span("server.handle", Some(0), Some(outer), || 7);
        assert_eq!((v, outer, inner), (7, 0, 1));
        assert_eq!(t.spans[inner].parent, Some(outer));
        assert!(t.spans[inner].end_ns >= t.spans[inner].start_ns);
    }
}
