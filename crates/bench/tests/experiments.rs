//! The experiments that train no GHN, run through the runner's own figure
//! functions and pinned to the digits EXPERIMENTS.md prints for them; the
//! runner's refusal of anything but figure names; and the docs naming only
//! figures the runner has.

use pddl_bench::figures::{diag_oracle, exp_sched_policies, fig01_02_blackbox_graybox};
use pddl_bench::{Context, FIGURES};
use std::path::Path;
use std::process::Command;

fn printed(table: &pddl_bench::Table, row: &str, column: &str) -> String {
    table.cell(row, column).to_string()
}

#[test]
fn blackbox_graybox_matches_experiments_md() {
    let ctx = Context::default();
    let t = &fig01_02_blackbox_graybox(&ctx)[0];
    let columns = ["black RMSE", "gray RMSE", "improvement"];
    let row = |label: &str| columns.map(|c| printed(t, label, c));
    assert_eq!(row("Fig. 1 vgg16"), ["31.6s", "7.8s", "75.3%"]);
    assert_eq!(row("Fig. 2 mobilenet_v3_large"), ["35.6s", "26.5s", "25.5%"]);
    assert_eq!(ctx.ghn_trainings(), 0);
}

#[test]
fn diag_oracle_matches_experiments_md() {
    let ctx = Context::default();
    let t = &diag_oracle(&ctx)[0];
    let errs = ["PR-squares", "PR-full", "LR"].map(|r| printed(t, r, "|ratio-1|"));
    assert_eq!(errs, ["19.6%", "7.4%", "31.8%"]);
    assert_eq!(ctx.ghn_trainings(), 0);
}

/// Both scheduling scenarios at full size (10⁵ jobs each, seed 91): the
/// digits EXPERIMENTS.md prints, and the floors they demonstrate.
#[test]
fn sched_policies_match_experiments_md() {
    let ctx = Context::default();
    let tables = exp_sched_policies(&ctx);
    let (burst, shift) = (&tables[0], &tables[1]);
    let policies = ["fifo", "sjf_predicted", "deadline_aware", "autoscale_predicted"];
    let column = |c: &str| policies.map(|p| printed(burst, p, c));
    assert_eq!(column("missed %"), ["99.330", "17.946", "0.111", "99.940"]);
    assert_eq!(column("utilization"), ["0.963", "0.968", "0.490", "0.965"]);
    assert_eq!(column("p99 wait"), ["5434.326s", "101996.524s", "10.406s", "304.029s"]);
    // No burst run has a shift; the one sjf_predicted fire is a false one.
    assert_eq!(column("drift fires"), ["0", "1", "0", "0"]);
    assert_eq!(column("completed"), ["100000"; 4], "every burst run drains");
    let missed = |p: &str| burst.cell(p, "missed %").value;
    assert!(missed("deadline_aware") < missed("fifo"));

    let columns = ["drift fires", "refits", "recovery", "frozen/online"];
    let row = columns.map(|c| printed(shift, "fifo", c));
    assert_eq!(row, ["1", "1", "1.033", "20.203"], "one shift, one fire");
    assert!(shift.cell("fifo", "recovery").value <= 1.5, "online recovers");
    assert!(shift.cell("fifo", "frozen/online").value >= 3.0, "frozen rots");
    assert_eq!(ctx.ghn_trainings(), 0);
}

#[test]
fn runner_accepts_only_figure_names() {
    let runner = env!("CARGO_BIN_EXE_pddl-experiments");
    let run = |arg: &str| Command::new(runner).arg(arg).output().expect("runner starts");
    let out = run("fig99_nonexistent");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    for (name, _) in FIGURES {
        assert!(stderr.contains(name), "usage lists {name}: {stderr}");
    }
    assert_eq!(run("--scale").status.code(), Some(2), "no flags");
}

/// A repository file, read whole.
fn doc(path: &str) -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    std::fs::read_to_string(root.join(path)).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn is_figure(name: &str) -> bool {
    FIGURES.iter().any(|(figure, _)| *figure == name)
}

/// The arguments written after `pddl-experiments` in code: up to the end
/// of an inline code span, or up to a `#` comment on a fenced line. A
/// leading `--` is skipped; the first word that is not a bare name (a
/// `<placeholder>`, a flag) ends the list.
fn runner_arguments(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut fenced = false;
    for line in markdown.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
            continue;
        }
        for (at, _) in line.match_indices("pddl-experiments") {
            let in_span = line[..at].matches('`').count() % 2 == 1;
            if !fenced && !in_span {
                continue;
            }
            let rest = &line[at + "pddl-experiments".len()..];
            let end = if fenced { rest.find('#') } else { rest.find('`') };
            let mut words = rest[..end.unwrap_or(rest.len())].split_whitespace().peekable();
            words.next_if_eq(&"--");
            let bare = |w: &&str| w.bytes().all(|c| matches!(c, b'a'..=b'z' | b'0'..=b'9' | b'_'));
            out.extend(words.take_while(bare).map(str::to_string));
        }
    }
    out
}

#[test]
fn docs_name_only_figures_the_runner_has() {
    let files = ["README.md", "DESIGN.md", "EXPERIMENTS.md", "TESTING.md", "ARCHITECTURE.md"];
    let mut seen = 0;
    for path in files.into_iter().chain([".claude/skills/verify/SKILL.md"]) {
        for arg in runner_arguments(&doc(path)) {
            assert!(arg == "all" || is_figure(&arg), "{path} runs `pddl-experiments {arg}`");
            seen += 1;
        }
    }
    assert!(seen >= 10, "the parser found only {seen} runner arguments");

    // EXPERIMENTS.md's figure index: a row for every figure, no other names.
    let md = doc("EXPERIMENTS.md");
    let index = md.split("## Figure index").nth(1).expect("EXPERIMENTS.md has a figure index");
    let rows = index.lines().skip_while(|l| !l.starts_with('|'));
    let table = rows.take_while(|l| l.starts_with('|'));
    let header = table.clone().next().expect("a header");
    let header: Vec<&str> = header.split('|').map(str::trim).collect();
    let column = header.iter().position(|c| *c == "Figure").expect("a `Figure` column");
    let listed: Vec<&str> = table
        .skip(2)
        .map(|row| row.split('|').map(str::trim).nth(column).expect("a full row"))
        .map(|cell| cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')).unwrap_or(cell))
        .collect();
    for name in &listed {
        assert!(is_figure(name), "EXPERIMENTS.md's figure index lists {name}");
    }
    for (name, _) in FIGURES {
        assert!(listed.contains(&name), "EXPERIMENTS.md's figure index has no row for {name}");
    }
}
