//! In-memory span recorder for the traced run.
//!
//! A span covers one call into a layer's public API, made from this
//! benchmark: name (`<layer>.<call>`), start, end, the enclosing span and
//! the request it serves. Spans stay in memory while the benchmark runs
//! and are written out as JSON lines when it ends. With tracing off,
//! [`Tracer::enter`] and [`Tracer::exit`] return without reading the
//! clock, so the plain run pays one branch per call site.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// `<layer>.<call>`; the layer is the part before the first dot.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Index of the outermost enclosing span (itself for a root).
    pub root: u32,
    /// The request this span serves.
    pub request: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer this span belongs to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// A span opened by [`Tracer::enter`]; hand it back to [`Tracer::exit`].
#[must_use = "an opened span must be closed with Tracer::exit"]
pub struct Open(Option<u32>);

/// The recorder. Spans nest strictly: the benchmark is single-threaded
/// around every traced call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Tracer {
    /// A recorder, on or off.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off between spans.
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "toggle tracing between spans only");
        self.enabled = enabled;
    }

    /// Opens a span named `name` for `request`.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.stack.last().copied();
        let root = self.stack.first().copied().unwrap_or(id);
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            root,
            request,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes the span `open`, which must be the innermost open one.
    pub fn exit(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let now = self.now_ns();
            assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
            self.spans[id as usize].end_ns = now;
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Durations, in microseconds, of every span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self time per layer, summed over the spans under roots named
    /// `root_name`: a span's self time is its duration minus the part of
    /// it its child spans cover.
    pub fn self_ns_by_layer(&self, root_name: &str) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p as usize] += span.duration_ns();
            }
        }
        let mut by_layer = BTreeMap::new();
        for (i, span) in self.spans.iter().enumerate() {
            if self.spans[span.root as usize].name == root_name {
                *by_layer.entry(span.layer()).or_insert(0) += span.duration_ns() - child_ns[i];
            }
        }
        by_layer
    }

    /// Writes every span as one JSON object per line.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"request":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_groups_by_layer() {
        let mut t = Tracer::new(true);
        let root = t.enter("bench.round", 0);
        let a = t.enter("serve.flush", 0);
        let b = t.enter("graph.route_one", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(b);
        t.exit(a);
        t.exit(root);
        let layers = t.self_ns_by_layer("bench.round");
        let total: u64 = layers.values().sum();
        assert_eq!(total, t.spans[0].duration_ns());
        assert!(layers["graph"] >= 2_000_000);
        assert!(layers["serve"] < layers["graph"]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.enter("serve.route", 1);
        t.exit(s);
        assert!(t.spans.is_empty());
    }
}
