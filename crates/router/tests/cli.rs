//! `pddl-router`'s command line refuses what it does not read, by name,
//! before doing any work — a typo must not run with a default.

use std::process::Command;

/// Runs the built binary; returns whether it succeeded and its stderr.
fn router(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pddl-router"))
        .args(args)
        .output()
        .expect("run pddl-router");
    (out.status.success(), String::from_utf8_lossy(&out.stderr).into_owned())
}

#[test]
fn unknown_repeated_and_stray_arguments_are_refused_by_name() {
    // Nothing listens on port 1: an `inspect` line that got through would
    // end in a connect error instead of these messages.
    let addr = "127.0.0.1:1";
    for (args, message) in [
        (vec!["inspect", "--bogus", "1"], "unknown flag --bogus for inspect"),
        (vec!["inspect", "--addr", addr, "--addr", addr], "flag --addr given more than once"),
        (vec!["inspect", "--addr", addr, "stray"], "unexpected argument 'stray'"),
        // Without `--shards`, a line that got through fails on that
        // instead of serving.
        (vec!["serve", "--probe-m", "50"], "unknown flag --probe-m for serve"),
    ] {
        let (ok, stderr) = router(&args);
        assert!(!ok, "{args:?} exited 0");
        assert!(stderr.contains(message), "{args:?}: stderr {stderr:?}");
    }
}
