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
//! Two source gates live here too — no `unwrap()` in the peer-facing
//! parsers, and no socket code outside the one connection core — and one
//! reference gate: a binary, example, test, bench or `BENCH_*.json` that
//! the prose docs name exists in the tree. All of them read the
//! repository's own files, so they run wherever `cargo test` runs.

use pddl_cluster::protocol::{ClientMsg, ServerMsg};
use pddl_telemetry::json::{self, FromJson, ToJson};
use pddl_telemetry::trace::{parse_trace_dump, render_trace_dump};
use pddl_telemetry::{JsonValue, Snapshot};
use predictddl::protocol::{
    metrics_line, observe_rejected_from_line, observe_rejected_line, overload_from_line,
    overload_line, reload_rejected_from_line, reload_rejected_line, shard_moved_from_line,
    shard_moved_line, stats_line,
};
use predictddl::{
    parse_frame, ObserveReply, ParsedFrame, ReloadReply, ResponseEnvelope, RouteTable,
    WireResponse, WIRE_OPS,
};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const PROTOCOL_MD: &str = include_str!("../PROTOCOL.md");

/// The collector-channel ops; every other section is the serving channel.
const COLLECTOR_OPS: [&str; 3] = ["register", "heartbeat", "leave"];

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

/// The frame kind a serving-channel section's requests must classify to.
fn frame_kind(frame: &ParsedFrame) -> &'static str {
    match frame {
        ParsedFrame::Single(_) => "predict",
        ParsedFrame::Batch(_) => "predict_batch",
        ParsedFrame::Enveloped(_) => "predict_envelope",
        ParsedFrame::Stats => "stats",
        ParsedFrame::Trace => "trace",
        ParsedFrame::Metrics => "metrics",
        ParsedFrame::RouteTable => "route_table",
        ParsedFrame::Reload { .. } => "reload",
        ParsedFrame::Observe { .. } => "observe",
    }
}

/// Classifies a request line; for the shapes the codec writes itself
/// (prediction frames, collector messages) also re-renders it.
fn replay_request(l: &DocLine) -> (&'static str, Option<String>) {
    if l.op.is_some_and(|op| COLLECTOR_OPS.contains(&op)) {
        let msg: ClientMsg = decode(l);
        let kind = match msg {
            ClientMsg::Register { .. } => "register",
            ClientMsg::Heartbeat { .. } => "heartbeat",
            ClientMsg::Leave { .. } => "leave",
        };
        return (kind, Some(encode(&msg)));
    }
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
    let text = |key: &str| {
        tag(key).unwrap_or_else(|| panic!("PROTOCOL.md:{}: no string `{key}`", l.line_no))
    };
    let int = |key: &str| {
        let n = doc.get(key).and_then(JsonValue::as_u64);
        n.unwrap_or_else(|| panic!("PROTOCOL.md:{}: no integer `{key}`", l.line_no))
    };
    let classified = |as_typed_error: bool| {
        assert!(as_typed_error, "PROTOCOL.md:{}: typed error line not recognised", l.line_no)
    };
    if doc.as_array().is_some() {
        return encode(&decode::<Vec<WireResponse>>(l));
    }
    if doc.get("client").is_some() {
        return encode(&decode::<ResponseEnvelope>(l));
    }
    if tag("type").is_some() {
        return encode(&decode::<ServerMsg>(l));
    }
    match (tag("status"), tag("error")) {
        (Some("ok" | "err"), _) => encode(&decode::<WireResponse>(l)),
        (Some("stats"), _) => {
            let snapshot = doc.get("snapshot").and_then(|v| Snapshot::from_value(v).ok());
            let snapshot = snapshot
                .unwrap_or_else(|| panic!("PROTOCOL.md:{}: bad stats snapshot", l.line_no));
            stats_line(doc.get("shard").and_then(JsonValue::as_u64), &snapshot)
        }
        (Some("trace"), _) => {
            let traces = parse_trace_dump(&doc)
                .unwrap_or_else(|e| panic!("PROTOCOL.md:{}: bad trace dump: {e}", l.line_no));
            render_trace_dump(int("suppressed"), &traces)
        }
        (Some("metrics"), _) => metrics_line(text("exposition")),
        (Some("route_table"), _) => decode::<RouteTable>(l).to_line(),
        (Some("reload"), _) => decode::<ReloadReply>(l).to_line(),
        (Some("observe"), _) => decode::<ObserveReply>(l).to_line(),
        (_, Some("overloaded")) => {
            classified(overload_from_line(l.text).is_some());
            overload_line(int("retry_after_ms"), text("reason"))
        }
        (_, Some("shard_moved")) => {
            classified(shard_moved_from_line(l.text).is_some());
            shard_moved_line(int("epoch"), int("retry_after_ms"))
        }
        (_, Some("reload_rejected")) => {
            classified(reload_rejected_from_line(l.text).as_deref() == Some(text("reason")));
            reload_rejected_line(text("reason"))
        }
        (_, Some("observe_rejected")) => {
            classified(observe_rejected_from_line(l.text).as_deref() == Some(text("reason")));
            observe_rejected_line(text("reason"))
        }
        _ => panic!("PROTOCOL.md:{}: reply has no status, error or type tag", l.line_no),
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
/// `#[cfg(test)]` module of the frame reader, the connection core, the
/// frame classifier or the JSON codec fails this gate — return the typed
/// error instead.
#[test]
fn peer_facing_parsers_contain_no_unwrap() {
    for (file, src) in [
        ("crates/cluster/src/protocol.rs", include_str!("../crates/cluster/src/protocol.rs")),
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
        ("crates/cluster/src/collector.rs", include_str!("../crates/cluster/src/collector.rs")),
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
