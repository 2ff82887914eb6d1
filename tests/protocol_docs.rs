//! PROTOCOL.md is true, and stays true.
//!
//! Every `→` (request) and `←` (reply) line in PROTOCOL.md is a complete
//! wire line. This tier replays all of them through the code that speaks
//! the protocol: a `→` line must classify to the frame kind its section
//! names, and a `←` line must decode and re-render byte-for-byte through
//! the codec and the reply renderers the servers use. Every op in
//! [`WIRE_OPS`] needs a `` ### `op` `` section holding at least one of
//! each — the doc-coverage gate.
//!
//! Four source gates live here too — no `unwrap()` in the peer-facing
//! parsers, no socket code outside the one connection core, no frame
//! reading outside its one `LineReader`, and no plain struct codec
//! written out by hand instead of `json_struct!` — and two reference gates: a
//! binary, example, test, bench or `BENCH_*.json` that the prose docs
//! name exists in the tree, and every metric name the code registers is
//! listed in OPERATIONS.md's metric catalogue. All of them read the
//! repository's own files, so they run wherever `cargo test` runs.

use pddl_telemetry::json::{self, FromJson, ToJson};
use pddl_telemetry::trace::TraceDump;
use pddl_telemetry::JsonValue;
use predictddl::{
    parse_frame, ErrorReply, ObserveReply, ParsedFrame, ReloadReply, ResponseEnvelope,
    RouteTable, StatsReply, WireResponse, WIRE_OPS,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};

const PROTOCOL_MD: &str = include_str!("../PROTOCOL.md");
const OPERATIONS_MD: &str = include_str!("../OPERATIONS.md");

struct DocLine {
    /// Op of the enclosing `` ### `op` `` section, if it is an op section.
    op: Option<&'static str>,
    request: bool,
    text: &'static str,
    line_no: usize,
}

/// Every `→` / `←` line of PROTOCOL.md, tagged with its section.
fn transcript() -> Vec<DocLine> {
    let mut op = None;
    let mut out = Vec::new();
    for (i, raw) in PROTOCOL_MD.lines().enumerate() {
        let line = raw.trim_start();
        if line.starts_with('#') {
            op = line.strip_prefix("### `").and_then(|rest| rest.strip_suffix('`'));
        }
        for (arrow, request) in [("→ ", true), ("← ", false)] {
            if let Some(text) = line.strip_prefix(arrow) {
                out.push(DocLine { op, request, text, line_no: i + 1 });
            }
        }
    }
    out
}

fn decode<T: FromJson>(l: &DocLine) -> T {
    json::from_str(l.text)
        .unwrap_or_else(|e| panic!("PROTOCOL.md:{}: does not decode: {e}", l.line_no))
}

fn encode(v: &impl ToJson) -> String {
    json::to_string(v).expect("documented values are finite")
}

/// The frame kind a section's requests must classify to.
fn frame_kind(frame: &ParsedFrame) -> &'static str {
    match frame {
        ParsedFrame::Single(_) => "predict",
        ParsedFrame::Batch(_) => "predict_batch",
        ParsedFrame::Enveloped(_) => "predict_envelope",
        ParsedFrame::Stats => "stats",
        ParsedFrame::Trace => "trace",
        ParsedFrame::RouteTable => "route_table",
        ParsedFrame::Reload { .. } => "reload",
        ParsedFrame::Observe { .. } => "observe",
    }
}

/// Classifies a request line; for the shapes the codec writes itself
/// (prediction frames) also re-renders it.
fn replay_request(l: &DocLine) -> (&'static str, Option<String>) {
    let frame = parse_frame(l.text)
        .unwrap_or_else(|e| panic!("PROTOCOL.md:{}: request does not parse: {e}", l.line_no));
    let rendered = match &frame {
        ParsedFrame::Single(req) => Some(encode(req)),
        ParsedFrame::Batch(reqs) => Some(encode(reqs)),
        ParsedFrame::Enveloped(env) => Some(encode(env)),
        _ => None,
    };
    (frame_kind(&frame), rendered)
}

/// Decodes a reply line as what its discriminant says it is and renders
/// it again the way the server would.
fn replay_reply(l: &DocLine) -> String {
    let doc: JsonValue = json::parse(l.text)
        .unwrap_or_else(|e| panic!("PROTOCOL.md:{}: reply is not JSON: {e}", l.line_no));
    let tag = |key: &str| doc.get(key).and_then(JsonValue::as_str);
    if doc.as_array().is_some() {
        return encode(&decode::<Vec<WireResponse>>(l));
    }
    if doc.get("client").is_some() {
        return encode(&decode::<ResponseEnvelope>(l));
    }
    match (tag("status"), tag("error")) {
        (Some("ok" | "err"), _) => encode(&decode::<WireResponse>(l)),
        (Some("stats"), _) => decode::<StatsReply>(l).to_line(),
        (Some("trace"), _) => decode::<TraceDump>(l).to_line(),
        (Some("route_table"), _) => decode::<RouteTable>(l).to_line(),
        (Some("reload"), _) => decode::<ReloadReply>(l).to_line(),
        (Some("observe"), _) => decode::<ObserveReply>(l).to_line(),
        (_, Some(_)) => {
            let reply = decode::<ErrorReply>(l);
            let recognised = ErrorReply::from_line(l.text);
            assert_eq!(recognised.as_ref(), Some(&reply), "PROTOCOL.md:{}", l.line_no);
            encode(&reply)
        }
        _ => panic!("PROTOCOL.md:{}: reply has no status or error tag", l.line_no),
    }
}

#[test]
fn every_documented_line_replays_through_the_code() {
    let lines = transcript();
    assert!(lines.len() >= 2 * WIRE_OPS.len(), "transcript extraction broke: {}", lines.len());
    for l in &lines {
        assert!(
            !l.text.contains("...") && !l.text.contains('…'),
            "PROTOCOL.md:{}: elided line — every → / ← line must be complete",
            l.line_no
        );
        if l.request {
            let op = l.op.unwrap_or_else(|| {
                panic!("PROTOCOL.md:{}: request outside an op section", l.line_no)
            });
            let (kind, rendered) = replay_request(l);
            assert_eq!(kind, op, "PROTOCOL.md:{}: request classifies as `{kind}`", l.line_no);
            if let Some(rendered) = rendered {
                assert_eq!(rendered, l.text, "PROTOCOL.md:{}: request re-renders", l.line_no);
            }
        } else {
            assert_eq!(
                replay_reply(l),
                l.text,
                "PROTOCOL.md:{}: reply re-renders differently",
                l.line_no
            );
        }
    }
}

/// Doc-coverage gate: every wire op has its section, with at least one
/// complete request and one complete reply.
#[test]
fn every_wire_op_is_documented_with_a_request_and_a_reply() {
    let lines = transcript();
    for op in WIRE_OPS {
        assert!(
            PROTOCOL_MD.lines().any(|l| l == format!("### `{op}`")),
            "wire op `{op}` has no '### `{op}`' section in PROTOCOL.md"
        );
        for (request, what) in [(true, "request (→)"), (false, "reply (←)")] {
            assert!(
                lines.iter().any(|l| l.op == Some(op) && l.request == request),
                "PROTOCOL.md section `{op}` documents no {what} line"
            );
        }
    }
    for l in &lines {
        if let Some(op) = l.op {
            assert!(WIRE_OPS.contains(&op), "PROTOCOL.md:{}: `{op}` is not in WIRE_OPS", l.line_no);
        }
    }
}

/// `needles` that occur in `src` before its `#[cfg(test)]` module, as
/// `file:line: needle`.
fn non_test_hits(file: &str, src: &str, needles: &[&str]) -> Vec<String> {
    let non_test = src.split("#[cfg(test)]").next().unwrap_or(src);
    let hits = non_test.lines().enumerate().flat_map(|(i, line)| {
        let found = needles.iter().filter(move |n| line.contains(**n));
        found.map(move |n| format!("{file}:{}: {n}", i + 1))
    });
    hits.collect()
}

/// The peer-facing code must stay panic-free: an `unwrap()` outside the
/// `#[cfg(test)]` module of the connection core and its frame reader,
/// the frame classifier or the JSON codec fails this gate — return the typed error instead.
#[test]
fn peer_facing_parsers_contain_no_unwrap() {
    for (file, src) in [
        ("crates/cluster/src/wire.rs", include_str!("../crates/cluster/src/wire.rs")),
        ("crates/core/src/protocol.rs", include_str!("../crates/core/src/protocol.rs")),
        ("crates/telemetry/src/json.rs", include_str!("../crates/telemetry/src/json.rs")),
    ] {
        let hits = non_test_hits(file, src, &["unwrap()"]);
        assert!(hits.is_empty(), "unwrap() in non-test code: {hits:?}");
    }
}

/// There is one accept loop, one dial site and one place that sets socket
/// options — `pddl_cluster::wire`. A service or binary that binds, dials,
/// clones or tunes a socket itself has forked the connection core: make
/// it a `Handler` behind the `Listener`, or use a `LineConn`.
#[test]
fn sockets_are_opened_only_by_the_connection_core() {
    const SOCKET_CODE: [&str; 5] =
        ["TcpListener", "TcpStream::connect", "set_read_timeout", "try_clone", "set_nodelay"];
    for (file, src) in [
        ("crates/core/src/controller.rs", include_str!("../crates/core/src/controller.rs")),
        ("crates/router/src/router.rs", include_str!("../crates/router/src/router.rs")),
        (
            "crates/router/src/bin/pddl-router.rs",
            include_str!("../crates/router/src/bin/pddl-router.rs"),
        ),
    ] {
        let hits = non_test_hits(file, src, &SOCKET_CODE);
        assert!(hits.is_empty(), "socket code outside pddl_cluster::wire: {hits:?}");
    }
    // The core itself spends one descriptor per connection: both halves
    // go through the one socket (`crates/cluster/tests/descriptors.rs`).
    let wire = include_str!("../crates/cluster/src/wire.rs");
    let hits = non_test_hits("crates/cluster/src/wire.rs", wire, &["try_clone"]);
    assert!(hits.is_empty(), "a second descriptor per connection: {hits:?}");
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else { return Vec::new() };
    let mut files = Vec::new();
    for path in entries.map(|e| e.expect("dir entry").path()) {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

/// There is one frame reader — `LineReader` in `pddl_cluster::wire`,
/// bounded at `MAX_FRAME_BYTES`, behind every server connection and every
/// `LineConn`. A `fill_buf(` or `read_line(` in the non-test code of any
/// other file under `crates/*/src` is a second framing implementation
/// with its own idea of the bound (or none): read through a `LineConn`,
/// or be a `Handler`.
#[test]
fn frames_are_read_only_by_the_line_reader() {
    const FRAMING: [&str; 2] = ["fill_buf(", "read_line("];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut framing = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        for file in rust_files(&krate.expect("crates/ entry").path().join("src")) {
            let name = file.strip_prefix(&root).expect("under the root").display().to_string();
            let src = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{name}: {e}"));
            framing.extend(non_test_hits(&name, &src, &FRAMING));
        }
    }
    let (core, elsewhere): (Vec<_>, Vec<_>) =
        framing.into_iter().partition(|hit| hit.starts_with("crates/cluster/src/wire.rs:"));
    assert!(!core.is_empty(), "the walk never found LineReader's own fill_buf");
    assert!(elsewhere.is_empty(), "frame reading outside pddl_cluster::wire: {elsewhere:?}");
}

/// Whether a `write_json` fn, whitespace removed, only writes each field
/// under its own name: `w.object().field("x", &self.x)….end();`.
fn is_plain_struct_encoder(write_json: &str) -> bool {
    let body = write_json.split_once('{').and_then(|(_, b)| b.strip_suffix('}'));
    let Some(calls) = body.and_then(|b| b.strip_prefix("w.object()")?.strip_suffix(".end();")) else {
        return false;
    };
    let names = calls.split('"').skip(1).step_by(2);
    calls == names.map(|n| format!(".field(\"{n}\",&self.{n})")).collect::<String>()
}

/// Whether a `read_json` fn, whitespace removed, only reads each field
/// under its own name into `Self`: `let o = v.fields()?; Ok(Self { x:
/// o.field("x")?, … })`, or the same with `v.fields()?` inline.
fn is_plain_struct_decoder(read_json: &str) -> bool {
    let Some(body) = read_json.split_once('{').and_then(|(_, b)| b.strip_suffix('}')) else {
        return false;
    };
    let (binding, literal) = match body.strip_prefix("let").and_then(|b| b.split_once(';')) {
        Some((binding, rest)) => match binding.split_once('=') {
            Some((name, init)) if init.ends_with(".fields()?") => (name, rest),
            _ => return false,
        },
        None => ("", body),
    };
    let Some(fields) = literal.strip_prefix("Ok(Self{").and_then(|l| l.strip_suffix("})")) else {
        return false;
    };
    fields.split(',').filter(|f| !f.is_empty()).all(|f| {
        let Some((name, read)) = f.split_once(':') else { return false };
        let reader = read.strip_suffix(&format!(".field(\"{name}\")?"));
        let inline = |r: &str| r.strip_suffix(".fields()?").is_some_and(|v| !v.contains('('));
        reader.is_some_and(|r| r == binding || inline(r))
    })
}

/// A plain struct's codec is one `json_struct!` field list. A `ToJson` /
/// `FromJson` pair in the non-test code under `crates/*/src` that only
/// writes each field under its own name and only reads it back — `let o =
/// v.fields()?; Ok(Self { x: o.field("x")?, … })` — is that list written
/// out twice by hand: declare the type with `json_struct!` instead.
#[test]
fn plain_struct_codecs_are_declared_with_json_struct() {
    let by_hand = [
        "fn write_json(&self, w: &mut JsonWriter) {
            w.object().field(\"class\", &self.class).field(\"cpu_cores\", &self.cpu_cores).end();
        }",
        "fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
            let o = v.fields()?;
            Ok(Self { class: o.field(\"class\")?, cpu_cores: o.field(\"cpu_cores\")?, })
        }",
        "fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
            Ok(Self { entries: v.fields()?.field(\"entries\")? })
        }",
    ]
    .map(|f| f.split_whitespace().collect::<String>());
    assert!(is_plain_struct_encoder(&by_hand[0]), "{}", by_hand[0]);
    assert!(by_hand[1..].iter().all(|f| is_plain_struct_decoder(f)), "{by_hand:?}");

    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    // `file: type` of every plain encoder, and with its line, of every
    // plain decoder.
    let (mut impls, mut encoders, mut decoders) = (0, BTreeSet::new(), Vec::new());
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        for file in rust_files(&krate.expect("crates/ entry").path().join("src")) {
            let name = file.strip_prefix(&root).expect("under the root").display().to_string();
            let src = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{name}: {e}"));
            let non_test = src.split("#[cfg(test)]").next().unwrap_or(&src);
            let mut lines = non_test.lines().enumerate();
            while let Some((i, line)) = lines.next() {
                let code = line.trim_start();
                let Some((head, ty)) = code.strip_suffix(" {").and_then(|c| c.split_once("Json for ")) else {
                    continue;
                };
                if !code.starts_with("impl") {
                    continue;
                }
                impls += 1;
                let end = format!("{}}}", &line[..line.len() - code.len()]);
                let body: String = lines
                    .by_ref()
                    .map(|(_, l)| l)
                    .take_while(|l| *l != end)
                    .flat_map(str::split_whitespace)
                    .collect();
                let at = format!("{name}: {ty}");
                if head.ends_with("From") && is_plain_struct_decoder(&body) {
                    decoders.push((at, i + 1));
                } else if head.ends_with("To") && is_plain_struct_encoder(&body) {
                    encoders.insert(at);
                }
            }
        }
    }
    assert!(impls > 10, "the walk found only {impls} JSON impls");
    let plain: Vec<_> = decoders.iter().filter(|(at, _)| encoders.contains(at)).collect();
    assert!(plain.is_empty(), "plain struct codecs written by hand — use json_struct!: {plain:#?}");
}

/// Cargo's target kinds, with the flag that selects one and the directory
/// cargo discovers them in.
const TARGET_KINDS: [(&str, &str, &str); 4] = [
    ("bin", "--bin ", "src/bin"),
    ("example", "--example ", "examples"),
    ("test", "--test ", "tests"),
    ("bench", "--bench ", "benches"),
];

/// Every package name under `crates/`, and every target name by kind: the
/// manifests' `[[bin]]` / `[[example]]` / `[[test]]` / `[[bench]]` entries
/// plus the files cargo discovers that no entry claims by `path`.
fn workspace_targets(root: &Path) -> (BTreeSet<String>, BTreeMap<&'static str, BTreeSet<String>>) {
    let mut packages = BTreeSet::new();
    let mut targets: BTreeMap<_, BTreeSet<String>> =
        TARGET_KINDS.iter().map(|&(kind, _, _)| (kind, BTreeSet::new())).collect();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        let dir = krate.expect("crates/ entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else { continue };
        let (mut section, mut claimed) = ("", Vec::new());
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if let Some((key, value)) = line.split_once('=') {
                let value = value.trim().trim_matches('"');
                let kind = section.strip_prefix("[[").and_then(|s| s.strip_suffix("]]"));
                match (key.trim(), kind.and_then(|kind| targets.get_mut(kind))) {
                    ("name", Some(names)) => drop(names.insert(value.to_string())),
                    ("name", None) if section == "[package]" => {
                        packages.insert(value.to_string());
                    }
                    ("path", Some(_)) => claimed.push(dir.join(value)),
                    _ => {}
                }
            }
        }
        for (kind, _, sub) in TARGET_KINDS {
            let Ok(files) = std::fs::read_dir(dir.join(sub)) else { continue };
            for file in files.map(|f| f.expect("target file").path()) {
                if file.extension().is_some_and(|e| e == "rs") && !claimed.contains(&file) {
                    let stem = file.file_stem().expect("stem").to_string_lossy().into_owned();
                    targets.get_mut(kind).expect("kind").insert(stem);
                }
            }
        }
    }
    (packages, targets)
}

/// The `[A-Za-z0-9_-]+` name `s` starts with (empty for a placeholder
/// such as `<name>`, `*` or `{a,b}`).
fn leading_name(s: &str) -> &str {
    let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_' || c == '-'));
    &s[..end.unwrap_or(s.len())]
}

/// The prose names only things that exist: every `--bin X` / `--example X`
/// / `--test X` / `--bench X` is a target of that kind, every `pddl-<name>`
/// a package or a binary, every `BENCH_<name>.json` a file at the root,
/// and `cargo bench` / a `benches/` directory is mentioned only while the
/// workspace has a bench target. A retired tool fails here until the last
/// paragraph that tells a reader to run it is gone.
#[test]
fn docs_name_only_targets_and_files_that_exist() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (packages, targets) = workspace_targets(&root);
    let mut stale = Vec::new();
    for doc in [
        "README.md",
        "ARCHITECTURE.md",
        "DESIGN.md",
        "OPERATIONS.md",
        "TESTING.md",
        "EXPERIMENTS.md",
        "PROTOCOL.md",
        ".claude/skills/verify/SKILL.md",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).unwrap_or_else(|e| panic!("{doc}: {e}"));
        for (i, line) in text.lines().enumerate() {
            let mut check = |ok: bool, what: String| {
                if !ok {
                    stale.push(format!("{doc}:{}: {what}", i + 1));
                }
            };
            for (kind, flag, _) in TARGET_KINDS {
                for (at, _) in line.match_indices(flag) {
                    let name = leading_name(&line[at + flag.len()..]);
                    check(name.is_empty() || targets[kind].contains(name), format!("{flag}{name}"));
                }
            }
            for (at, _) in line.match_indices("pddl-") {
                let name = leading_name(&line[at..]);
                let word_start = !line[..at].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '-');
                let known = packages.contains(name) || targets["bin"].contains(name);
                check(!word_start || name == "pddl-" || known, name.to_string());
            }
            for (at, _) in line.match_indices("BENCH_") {
                let name = leading_name(&line[at..]);
                if name != "BENCH_" && line[at + name.len()..].starts_with(".json") {
                    let file = format!("{name}.json");
                    check(root.join(&file).is_file(), file);
                }
            }
            for needle in ["cargo bench", "benches/"] {
                check(!line.contains(needle) || !targets["bench"].is_empty(), needle.to_string());
            }
        }
    }
    assert!(stale.is_empty(), "docs name things that are not in the tree: {stale:#?}");
}

/// `name` with every `{a,b}` group expanded: `shed.{x,y}` is `shed.x`
/// and `shed.y`.
fn expand_groups(name: &str) -> Vec<String> {
    match (name.find('{'), name.find('}')) {
        (Some(open), Some(close)) if open < close => name[open + 1..close]
            .split(',')
            .flat_map(|m| expand_groups(&format!("{}{m}{}", &name[..open], &name[close + 1..])))
            .collect(),
        _ => vec![name.to_string()],
    }
}

/// OPERATIONS.md's "Metric catalogue" table: each row's prefix and every
/// `` `name` `` its row lists, groups expanded.
fn metric_catalogue() -> BTreeMap<&'static str, BTreeSet<String>> {
    let section = OPERATIONS_MD.split("### Metric catalogue").nth(1).expect("the catalogue section");
    let mut rows: BTreeMap<_, BTreeSet<String>> = BTreeMap::new();
    for line in section.lines().take_while(|l| !l.starts_with('#')) {
        let Some((prefix, cells)) = line.strip_prefix("| `").and_then(|r| r.split_once("` |")) else {
            continue;
        };
        let names = cells.split('`').skip(1).step_by(2).flat_map(expand_groups);
        rows.entry(prefix).or_default().extend(names);
    }
    rows
}

/// Every metric is listed in its prefix's row of OPERATIONS.md's "Metric
/// catalogue": each string literal the non-test, non-comment code under
/// `crates/*/src` passes to `counter(`, `gauge(` or `histogram(` (the
/// trace stages' histograms included), and each `name("…")` the
/// connection core in `wire.rs` prefixes with its server's name, under
/// both servers' rows.
#[test]
fn every_registered_metric_is_in_the_catalogue() {
    const CALLS: [&str; 4] = ["counter(\"", "gauge(\"", "histogram(\"", "name(\""];
    const SERVERS: [&str; 2] = ["controller.", "router."];
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let catalogue = metric_catalogue();
    let (mut registered, mut missing) = (0, Vec::new());
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/") {
        for file in rust_files(&krate.expect("crates/ entry").path().join("src")) {
            let name = file.strip_prefix(&root).expect("under the root").display().to_string();
            let src = std::fs::read_to_string(&file).unwrap_or_else(|e| panic!("{name}: {e}"));
            let non_test = src.split("#[cfg(test)]").next().unwrap_or(&src);
            let per_server = name.ends_with("wire.rs");
            for (i, line) in non_test.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                for call in CALLS {
                    for (at, _) in line.match_indices(call) {
                        let rest = &line[at + call.len()..];
                        let literal = &rest[..rest.find('"').expect("a one-line literal")];
                        let metrics = match (call, per_server) {
                            ("name(\"", false) => continue,
                            ("name(\"", true) => SERVERS.map(|p| format!("{p}{literal}")).to_vec(),
                            _ => vec![literal.to_string()],
                        };
                        for metric in metrics {
                            let row = catalogue.iter().filter(|(p, _)| metric.starts_with(*p));
                            let row = row.max_by_key(|(p, _)| p.len());
                            registered += 1;
                            if !row.is_some_and(|(p, names)| names.contains(&metric[p.len()..])) {
                                missing.push(format!("{name}:{}: {metric}", i + 1));
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(registered > 90, "the walk found only {registered} metric registrations");
    assert!(missing.is_empty(), "metrics missing from OPERATIONS.md's catalogue: {missing:#?}");
}
