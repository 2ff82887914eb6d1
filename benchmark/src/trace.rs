//! The benchmark's own span recorder. Spans are taken from outside, around
//! calls into each layer's public functions; they live in memory and are
//! written to `out/trace.<workload>.json` when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `ghn.embed`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the request in the seeded sequence.
    pub request: usize,
    /// The parent call does this work internally, behind a function the
    /// benchmark cannot open; the benchmark ran it again right after the
    /// parent returned to time it. Its duration, not its position, is
    /// taken out of the parent's self time.
    pub replayed: bool,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-stage totals of a trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StageTotal {
    pub count: u64,
    /// Summed self time; see [`Recorder::self_times`] for why it is signed.
    pub self_ns: i64,
}

/// In-memory span store with a common clock.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Stores a finished span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: usize,
    ) -> usize {
        assert!(end_ns >= start_ns, "span {name} ends before it starts");
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
            replayed: false,
        });
        self.spans.len() - 1
    }

    /// Starts a span now; [`Recorder::close`] ends it. Lets children
    /// name their parent while it is still running.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let t = self.now();
        self.push(name, t, t, parent, request)
    }

    /// Ends a span started with [`Recorder::open`].
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Times `f` as a child of `parent` and stores the span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        (out, id)
    }

    /// [`Recorder::time`] for work re-run after `parent` returned (see
    /// [`Span::replayed`]).
    pub fn time_replayed<T>(
        &mut self,
        name: &'static str,
        parent: usize,
        request: usize,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let (out, id) = self.time(name, Some(parent), request, f);
        self.spans[id].replayed = true;
        (out, id)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part of its
    /// interval its children cover (for a replayed child, minus the
    /// child's duration). Children of one span do not overlap each other:
    /// a request's steps run one after another. A replay that happened to
    /// run slower than the original leaves its parent a negative self
    /// time; keeping the sign keeps the sum over a tree equal to the
    /// time its non-replayed spans took.
    pub fn self_times(&self) -> Vec<i64> {
        let mut covered = vec![0u64; self.spans.len()];
        for child in &self.spans {
            let Some(p) = child.parent else { continue };
            let parent = &self.spans[p];
            covered[p] += if child.replayed {
                child.duration_ns()
            } else {
                let lo = child.start_ns.max(parent.start_ns);
                let hi = child.end_ns.min(parent.end_ns);
                hi.saturating_sub(lo)
            };
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration_ns() as i64 - c as i64)
            .collect()
    }

    /// The span at the top of `id`'s tree.
    pub fn root_of(&self, mut id: usize) -> &Span {
        while let Some(p) = self.spans[id].parent {
            id = p;
        }
        &self.spans[id]
    }

    /// Count and summed self time per stage name, over the span trees
    /// whose root `keep_root` accepts.
    pub fn stage_totals(
        &self,
        keep_root: impl Fn(&Span) -> bool,
    ) -> BTreeMap<&'static str, StageTotal> {
        let mut out: BTreeMap<&'static str, StageTotal> = BTreeMap::new();
        for (id, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            if keep_root(self.root_of(id)) {
                let t = out.entry(s.name).or_default();
                t.count += 1;
                t.self_ns += self_ns;
            }
        }
        out
    }

    /// Writes the trace as one JSON object: `summary` (caller-rendered
    /// JSON members, no braces) followed by the span list.
    pub fn write_json(&self, path: &Path, summary: &str) -> std::io::Result<()> {
        let mut s = String::with_capacity(64 + self.spans.len() * 96);
        s.push_str("{\n");
        s.push_str(summary);
        s.push_str(",\n\"spans\": [\n");
        for (i, sp) in self.spans.iter().enumerate() {
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{},\"replayed\":{}}}",
                sp.name, sp.start_ns, sp.end_ns, sp.request, sp.replayed
            );
            s.push_str(if i + 1 < self.spans.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("]\n}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_self_time_subtracts_children_only() {
        let mut r = Recorder::default();
        let req = r.push("request", 0, 100, None, 0);
        let cache = r.push("embeddings.get_or_embed", 10, 70, Some(req), 0);
        let _embed = r.push("ghn.embed", 20, 60, Some(cache), 0);
        let _regress = r.push("inference.predict", 70, 90, Some(req), 0);
        // request: 100 − (60 + 20); cache: 60 − 40; leaves keep their all.
        assert_eq!(r.self_times(), vec![20, 20, 40, 20]);
        let totals = r.stage_totals(|_| true);
        assert_eq!(
            totals["ghn.embed"],
            StageTotal {
                count: 1,
                self_ns: 40
            }
        );
        let sum: i64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(
            sum, 100,
            "self times of a tree add up to the root's duration"
        );
    }

    #[test]
    fn replayed_child_is_subtracted_by_duration() {
        let mut r = Recorder::default();
        let cache = r.push("embeddings.get_or_embed", 0, 50, None, 3);
        // Re-run after the parent returned: outside its interval.
        let id = r.push("ghn.embed", 60, 100, Some(cache), 3);
        r.spans[id].replayed = true;
        assert_eq!(r.self_times(), vec![10, 40]);
        // A second replay, slower than what is left of the original: the
        // parent goes negative and the tree still sums to the original.
        let id = r.push("ghn.schedule", 100, 130, Some(cache), 3);
        r.spans[id].replayed = true;
        assert_eq!(r.self_times(), vec![-20, 40, 30]);
        assert_eq!(r.self_times().iter().sum::<i64>(), 50);
    }

    #[test]
    fn child_outside_parent_interval_covers_nothing_unless_replayed() {
        let mut r = Recorder::default();
        let p = r.push("a", 0, 10, None, 0);
        r.push("b", 20, 30, Some(p), 0);
        assert_eq!(r.self_times()[p], 10);
    }

    #[test]
    fn json_lists_every_span() {
        let mut r = Recorder::default();
        let ((), a) = r.time("zoo.build_model", None, 7, || ());
        r.time_replayed("graph.fingerprint", a, 7, || ());
        let dir = std::env::temp_dir().join(format!("pddl-bench-trace-{}", std::process::id()));
        let path = dir.join("trace.test.json");
        r.write_json(&path, "\"workload\": \"test\"").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let v = pddl_telemetry::JsonValue::parse(&text).expect("trace file is valid JSON");
        let spans = v.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(
            spans[1].get("replayed").and_then(|p| p.as_bool()),
            Some(true)
        );
    }
}
