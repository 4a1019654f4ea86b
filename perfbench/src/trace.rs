//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name (`layer.call`), start and end, the span that
//! caused it and the request it belongs to. Spans stay in memory and are
//! written out once, when the run ends. A layer's self time is the summed
//! duration of its spans minus the time their child spans cover. A
//! disabled tracer records nothing and costs one branch per call.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer started.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
}

/// A span in progress; hand it back to [`Tracer::end`].
#[derive(Clone, Copy, Debug)]
pub struct Open {
    index: Option<usize>,
}

impl Open {
    /// This span as a parent for child spans (`None` when tracing is off).
    pub fn id(&self) -> Option<usize> {
        self.index
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name` under `parent` for `request`.
    pub fn begin(&self, name: &'static str, parent: Option<usize>, request: u64) -> Open {
        if !self.enabled {
            return Open { index: None };
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        Open {
            index: Some(spans.len() - 1),
        }
    }

    pub fn end(&self, open: Open) {
        if let Some(i) = open.index {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span log poisoned")[i].end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce(Option<usize>) -> T,
    ) -> T {
        let open = self.begin(name, parent, request);
        let out = f(open.id());
        self.end(open);
        out
    }

    /// Self time per layer (the part of a span name before the first
    /// `.`), in seconds: each span's duration minus its children's.
    pub fn self_seconds_by_layer(&self) -> BTreeMap<String, f64> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in spans.iter().zip(child_ns) {
            let layer = s.name.split('.').next().unwrap_or(s.name).to_string();
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            *out.entry(layer).or_insert(0.0) += own as f64 * 1e-9;
        }
        out
    }

    /// Writes every span as one JSON line to `path`, creating its
    /// directory. Returns the number of spans written.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()?;
        Ok(spans.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let t = Tracer::new(true);
        t.span("bench.outer", None, 1, |p| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("engine.inner", p, 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let by = t.self_seconds_by_layer();
        assert!(by["engine"] >= 0.020);
        assert!(by["bench"] >= 0.005 && by["bench"] < 0.020, "{by:?}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.span("engine.x", None, 0, |p| assert!(p.is_none()));
        assert!(t.self_seconds_by_layer().is_empty());
    }
}
