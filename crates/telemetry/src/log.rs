//! Structured JSON logging to stderr, gated by the `PDDL_LOG` environment
//! variable. Hand-rolled replacement for `tracing`/`env_logger`:
//!
//! ```text
//! PDDL_LOG=info                         # every target at info+
//! PDDL_LOG=warn,controller=debug        # default warn, controller.* debug
//! PDDL_LOG=off,ddlsim=trace             # only ddlsim.* (at trace)
//! ```
//!
//! Directives are `level` (the default) or `target_prefix=level`; the
//! longest matching prefix wins. Targets are dotted paths like
//! `controller.request` — a directive `controller` matches `controller`
//! and anything under `controller.`.
//!
//! Fast path: when a level is globally disabled, [`log_enabled`] is a
//! single relaxed atomic load.

use std::io::Write as _;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

/// Log severity, most severe first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable failures.
    Error = 1,
    /// Degraded but continuing.
    Warn = 2,
    /// High-level lifecycle events.
    Info = 3,
    /// Per-request detail.
    Debug = 4,
    /// Hot-loop detail.
    Trace = 5,
}

impl Level {
    /// Lowercase name, as used in `PDDL_LOG` and the JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
            Level::Trace => "trace",
        }
    }

    fn parse(s: &str) -> Option<Option<Level>> {
        // `None` inner = explicit "off".
        match s.trim().to_ascii_lowercase().as_str() {
            "off" | "none" => Some(None),
            "error" => Some(Some(Level::Error)),
            "warn" | "warning" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "trace" => Some(Some(Level::Trace)),
            _ => None,
        }
    }
}

/// Parsed `PDDL_LOG` filter.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LogFilter {
    /// Level for targets with no matching directive; `None` = off.
    default: Option<Level>,
    /// (target_prefix, level) directives; `None` level = off.
    directives: Vec<(String, Option<Level>)>,
}

impl LogFilter {
    /// Parses a filter spec. Unknown level names and empty directives are
    /// ignored rather than erroring — a typo in `PDDL_LOG` should never
    /// take the service down.
    pub fn parse(spec: &str) -> LogFilter {
        let mut filter = LogFilter::default();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            match part.split_once('=') {
                None => {
                    if let Some(level) = Level::parse(part) {
                        filter.default = level;
                    }
                }
                Some((target, level)) => {
                    if let Some(level) = Level::parse(level) {
                        filter.directives.push((target.trim().to_string(), level));
                    }
                }
            }
        }
        // Longest prefix first so the first match is the most specific.
        filter.directives.sort_by_key(|d| std::cmp::Reverse(d.0.len()));
        filter
    }

    /// Is `level` enabled for `target`?
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        for (prefix, directive) in &self.directives {
            let matches = target == prefix
                || (target.len() > prefix.len()
                    && target.starts_with(prefix.as_str())
                    && target.as_bytes()[prefix.len()] == b'.');
            if matches {
                return directive.is_some_and(|max| level <= max);
            }
        }
        self.default.is_some_and(|max| level <= max)
    }

    /// The most verbose level any directive enables (for the fast reject).
    fn max_level(&self) -> u8 {
        let mut max = self.default.map_or(0, |l| l as u8);
        for (_, directive) in &self.directives {
            max = max.max(directive.map_or(0, |l| l as u8));
        }
        max
    }
}

fn filter() -> &'static LogFilter {
    static FILTER: OnceLock<LogFilter> = OnceLock::new();
    FILTER.get_or_init(|| {
        let f = std::env::var("PDDL_LOG").map(|s| LogFilter::parse(&s)).unwrap_or_default();
        MAX_LEVEL.store(f.max_level(), Ordering::Relaxed);
        f
    })
}

/// 0 = logging never initialized or everything off.
static MAX_LEVEL: AtomicU8 = AtomicU8::new(u8::MAX);

/// Cheap check whether a line at `level`/`target` would be emitted.
/// Inlined so the common "globally off" case compiles down to one
/// relaxed load and a compare at the call site.
#[inline]
pub fn log_enabled(level: Level, target: &str) -> bool {
    if level as u8 > MAX_LEVEL.load(Ordering::Relaxed) {
        return false; // fast reject once the filter is parsed
    }
    filter().enabled(level, target)
}

/// A structured log field value.
#[derive(Clone, Debug)]
pub enum FieldValue {
    /// Unsigned integer field.
    U64(u64),
    /// Signed integer field.
    I64(i64),
    /// Floating-point field.
    F64(f64),
    /// Boolean field.
    Bool(bool),
    /// String field.
    Str(String),
}

macro_rules! impl_from {
    ($($t:ty => $variant:ident as $conv:ty),* $(,)?) => {
        $(impl From<$t> for FieldValue {
            fn from(v: $t) -> Self { FieldValue::$variant(v as $conv) }
        })*
    };
}
impl_from!(u64 => U64 as u64, u32 => U64 as u64, usize => U64 as u64,
           i64 => I64 as i64, i32 => I64 as i64,
           f64 => F64 as f64, f32 => F64 as f64);

impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

/// Emits one structured JSON log line to stderr. Prefer the [`tlog!`](crate::tlog)
/// macro, which skips field construction when the line is filtered out.
pub fn log_line(level: Level, target: &str, msg: &str, fields: &[(&str, FieldValue)]) {
    let ts_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    let mut out = String::with_capacity(96);
    out.push_str("{\"ts_ms\":");
    out.push_str(&ts_ms.to_string());
    out.push_str(",\"level\":\"");
    out.push_str(level.as_str());
    out.push_str("\",\"target\":");
    crate::json::push_json_string(&mut out, target);
    out.push_str(",\"msg\":");
    crate::json::push_json_string(&mut out, msg);
    for (k, v) in fields {
        out.push(',');
        crate::json::push_json_string(&mut out, k);
        out.push(':');
        match v {
            FieldValue::U64(n) => out.push_str(&n.to_string()),
            FieldValue::I64(n) => out.push_str(&n.to_string()),
            FieldValue::F64(n) => crate::json::push_f64(&mut out, *n),
            FieldValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            FieldValue::Str(s) => crate::json::push_json_string(&mut out, s),
        }
    }
    out.push_str("}\n");
    // One write_all per line keeps lines atomic enough for line-oriented
    // consumers; ignore a broken stderr rather than panicking the service.
    let _ = std::io::stderr().write_all(out.as_bytes());
}

/// Structured logging macro:
/// `tlog!(Level::Info, "controller", "request served", latency_us = 42, model = name)`.
/// Fields are only evaluated when the line passes the `PDDL_LOG` filter.
#[macro_export]
macro_rules! tlog {
    ($level:expr, $target:expr, $msg:expr $(, $key:ident = $value:expr)* $(,)?) => {
        if $crate::log_enabled($level, $target) {
            $crate::log_line(
                $level,
                $target,
                $msg,
                &[$((stringify!($key), $crate::FieldValue::from($value))),*],
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_level_applies_to_all_targets() {
        let f = LogFilter::parse("info");
        assert!(f.enabled(Level::Info, "controller"));
        assert!(f.enabled(Level::Error, "anything.at.all"));
        assert!(!f.enabled(Level::Debug, "controller"));
    }

    #[test]
    fn per_target_directive_overrides_default() {
        let f = LogFilter::parse("warn,controller=debug");
        assert!(f.enabled(Level::Debug, "controller"));
        assert!(f.enabled(Level::Debug, "controller.request"));
        assert!(!f.enabled(Level::Debug, "router"));
        assert!(f.enabled(Level::Warn, "router"));
        // Prefix must stop at a dot boundary: "controllerx" is unrelated.
        assert!(!f.enabled(Level::Debug, "controllerx"));
    }

    #[test]
    fn longest_prefix_wins() {
        let f = LogFilter::parse("off,offline=info,offline.train_ghn=trace");
        assert!(f.enabled(Level::Trace, "offline.train_ghn"));
        assert!(!f.enabled(Level::Trace, "offline.fit_regressor"));
        assert!(f.enabled(Level::Info, "offline.fit_regressor"));
        assert!(!f.enabled(Level::Error, "elsewhere"));
    }

    #[test]
    fn off_disables_and_garbage_is_ignored() {
        let f = LogFilter::parse("bogus,controller=notalevel");
        assert_eq!(f, LogFilter::default());
        assert!(!f.enabled(Level::Error, "controller"));
        let f = LogFilter::parse("info,noisy=off");
        assert!(!f.enabled(Level::Error, "noisy.sub"));
        assert!(f.enabled(Level::Info, "quiet"));
    }

    #[test]
    fn max_level_reflects_most_verbose_directive() {
        assert_eq!(LogFilter::parse("off").max_level(), 0);
        assert_eq!(LogFilter::parse("warn").max_level(), Level::Warn as u8);
        assert_eq!(LogFilter::parse("warn,x=trace").max_level(), Level::Trace as u8);
    }
}
