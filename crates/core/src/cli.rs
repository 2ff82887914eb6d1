//! The command-line grammar shared by `predictddl-cli` and `pddl-router`:
//! `<command> --key value …`, where each command lists the flags it reads
//! once, and anything else on the line is refused by name before the
//! command does any work — so a typo (`--worker 8`) cannot silently fall
//! back to a default. Both serving commands block in the one
//! [`wait_for_shutdown`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Parsed `--key value` pairs; a bare `--key` holds `"true"`.
pub type Flags = HashMap<String, String>;

/// One subcommand: its name, the flags it reads, and its entry point.
pub struct Command {
    /// The word that selects the command.
    pub name: &'static str,
    /// Every flag the command reads, without the leading `--`.
    pub flags: &'static [&'static str],
    /// The command itself.
    pub run: fn(&Flags) -> Result<(), String>,
}

/// Reads `--key value` pairs; a `--key` followed by another `--` token or
/// by nothing is the boolean `true`. A token that is neither a flag nor
/// its value, and a flag given twice, are refused by name.
pub fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut args = args.iter().peekable();
    while let Some(a) = args.next() {
        let key = a.strip_prefix("--").ok_or_else(|| format!("unexpected argument '{a}'"))?;
        let value = args.next_if(|v| !v.starts_with("--")).map_or("true", |v| v.as_str());
        if flags.insert(key.to_string(), value.to_string()).is_some() {
            return Err(format!("flag --{key} given more than once"));
        }
    }
    Ok(flags)
}

/// Refuses any flag `command` does not read (first offender in
/// alphabetical order, so the message is stable across runs).
pub fn check_flags(command: &Command, flags: &Flags) -> Result<(), String> {
    let unknown = flags
        .keys()
        .map(String::as_str)
        .filter(|k| !command.flags.contains(k))
        .min();
    match unknown {
        Some(k) => Err(format!("unknown flag --{k} for {}", command.name)),
        None => Ok(()),
    }
}

/// Set by the SIGINT/SIGTERM handler [`wait_for_shutdown`] installs.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Blocks until the process receives SIGINT or SIGTERM (polled every
/// 200 ms), so a serving command can drain and print its final report.
/// Off Unix no handler is installed: it blocks until the process dies.
pub fn wait_for_shutdown() {
    #[cfg(unix)]
    {
        // std already links libc; declaring `signal` directly avoids a libc
        // crate dependency. The handler only does an atomic store, which is
        // async-signal-safe.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        extern "C" fn on_signal(_signum: i32) {
            SHUTDOWN.store(true, Ordering::SeqCst);
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        let handler = on_signal as *const () as usize;
        unsafe {
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
    while !SHUTDOWN.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(200));
    }
}
