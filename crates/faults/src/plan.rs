//! The fault *plan*: a seed plus per-operation fault probabilities, parsed
//! from a compact spec string so the same chaos schedule can be named on a
//! CLI flag, an env var, or in a test.

use crate::rng::FaultRng;
use crate::stream::{Direction, FaultSchedule};

/// Environment variable `predictddl-cli serve` reads its fault-plan spec
/// from when `--fault-plan` is absent ([`FaultPlan::from_env`]). Libraries
/// never read it: servers take their plan as an argument.
pub const FAULT_PLAN_ENV: &str = "PDDL_FAULT_PLAN";

/// A seed-deterministic schedule of wire faults.
///
/// Probabilities are per read/write operation on a wrapped stream (a
/// server sends each reply frame as one write, so one reply is one write
/// operation) and are consulted in a fixed order (delay, reset, truncate,
/// garbage, drop), so the injected-fault sequence is a pure function of
/// `(seed, connection, direction, operation index)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FaultPlan {
    /// Base seed; every connection derives its own stream from it.
    pub seed: u64,
    /// Probability of an injected delay before the operation.
    pub p_delay: f64,
    /// Upper bound on an injected delay, milliseconds (uniform in
    /// `[1, max]`).
    pub max_delay_ms: u64,
    /// Probability of a simulated connection reset (the operation fails
    /// with `ConnectionReset` and the stream is dead thereafter).
    pub p_reset: f64,
    /// Probability of a truncated write: a prefix is written, then the
    /// stream dies (reads are unaffected by this fault).
    pub p_truncate: f64,
    /// Probability of garbage-byte corruption of the data read or written.
    pub p_garbage: f64,
    /// Probability that a write is silently swallowed (claimed successful,
    /// nothing sent) — a dropped response frame.
    pub p_drop: f64,
}

impl Default for FaultPlan {
    /// A moderately hostile default: every fault class enabled at a few
    /// percent, delays capped at 5 ms.
    fn default() -> Self {
        Self {
            seed: 0,
            p_delay: 0.05,
            max_delay_ms: 5,
            p_reset: 0.02,
            p_truncate: 0.02,
            p_garbage: 0.03,
            p_drop: 0.03,
        }
    }
}

impl FaultPlan {
    /// Parses a spec like
    /// `seed=42,delay=0.05:5,reset=0.02,truncate=0.02,garbage=0.03,drop=0.03`.
    ///
    /// Every key is optional (missing keys keep the [`Default`] value);
    /// `delay` takes `prob` or `prob:max_ms`. Probabilities must lie in
    /// `[0, 1]` and sum to at most 1.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = Self::default();
        for part in spec.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry '{part}' is not key=value"))?;
            let prob = |v: &str| -> Result<f64, String> {
                let p: f64 = v
                    .parse()
                    .map_err(|_| format!("fault-plan '{key}': '{v}' is not a number"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err(format!("fault-plan '{key}': {p} outside [0, 1]"));
                }
                Ok(p)
            };
            match key.trim() {
                "seed" => {
                    plan.seed = value
                        .trim()
                        .parse()
                        .map_err(|_| format!("fault-plan seed '{value}' is not a u64"))?;
                }
                "delay" => match value.split_once(':') {
                    Some((p, ms)) => {
                        plan.p_delay = prob(p.trim())?;
                        plan.max_delay_ms = ms
                            .trim()
                            .parse()
                            .map_err(|_| format!("fault-plan delay bound '{ms}' is not a u64"))?;
                    }
                    None => plan.p_delay = prob(value.trim())?,
                },
                "reset" => plan.p_reset = prob(value.trim())?,
                "truncate" => plan.p_truncate = prob(value.trim())?,
                "garbage" => plan.p_garbage = prob(value.trim())?,
                "drop" => plan.p_drop = prob(value.trim())?,
                other => return Err(format!("unknown fault-plan key '{other}'")),
            }
        }
        let total = plan.p_delay + plan.p_reset + plan.p_truncate + plan.p_garbage + plan.p_drop;
        if total > 1.0 {
            return Err(format!("fault probabilities sum to {total:.3} > 1"));
        }
        Ok(plan)
    }

    /// Renders the plan back into the spec syntax accepted by
    /// [`FaultPlan::parse`] (useful for logging a reproducible schedule).
    pub fn to_spec(&self) -> String {
        format!(
            "seed={},delay={}:{},reset={},truncate={},garbage={},drop={}",
            self.seed,
            self.p_delay,
            self.max_delay_ms,
            self.p_reset,
            self.p_truncate,
            self.p_garbage,
            self.p_drop,
        )
    }

    /// Reads [`FAULT_PLAN_ENV`]. `Ok(None)` when unset or empty; `Err` on
    /// a present-but-unparseable spec so misconfigurations surface instead
    /// of silently disabling chaos.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var(FAULT_PLAN_ENV) {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec).map(Some),
            _ => Ok(None),
        }
    }

    /// The deterministic fault schedule for one direction of one
    /// connection. Connections are numbered by the server in accept order;
    /// the two directions of a connection evolve independently, so the
    /// sequence of injected faults per direction depends only on
    /// `(seed, conn, dir)` and the operation count — not on how reads and
    /// writes interleave.
    pub fn schedule(&self, conn: u64, dir: Direction) -> FaultSchedule {
        let dir_salt = match dir {
            Direction::Read => 0x52_45_41_44,  // "READ"
            Direction::Write => 0x57_52_49_54, // "WRIT"
        };
        let seed = self
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(conn.wrapping_mul(0xD134_2543_DE82_EF95))
            ^ dir_salt;
        FaultSchedule::new(*self, FaultRng::new(seed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_spec() {
        let p = FaultPlan::parse("seed=42,delay=0.1:7,reset=0.01,truncate=0.02,garbage=0.03,drop=0.04")
            .unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.max_delay_ms, 7);
        assert!((p.p_delay - 0.1).abs() < 1e-12);
        assert!((p.p_drop - 0.04).abs() < 1e-12);
    }

    #[test]
    fn parse_partial_keeps_defaults() {
        let p = FaultPlan::parse("seed=7").unwrap();
        assert_eq!(p.seed, 7);
        assert_eq!(p.max_delay_ms, FaultPlan::default().max_delay_ms);
    }

    #[test]
    fn spec_round_trips() {
        let p = FaultPlan::parse("seed=9,delay=0.25:3,reset=0.125,garbage=0.0625").unwrap();
        let q = FaultPlan::parse(&p.to_spec()).unwrap();
        assert_eq!(p, q);
    }

    #[test]
    fn rejects_bad_specs() {
        assert!(FaultPlan::parse("bogus").is_err());
        assert!(FaultPlan::parse("seed=notanumber").is_err());
        assert!(FaultPlan::parse("reset=1.5").is_err());
        assert!(FaultPlan::parse("unknown=1").is_err());
        assert!(FaultPlan::parse("reset=0.5,drop=0.6").is_err());
    }

    #[test]
    fn schedules_differ_by_conn_and_dir() {
        let p = FaultPlan { seed: 1, ..FaultPlan::default() };
        let mut a = p.schedule(0, Direction::Read);
        let mut b = p.schedule(1, Direction::Read);
        let mut c = p.schedule(0, Direction::Write);
        let sa: Vec<_> = (0..64).map(|_| a.draw_u64()).collect();
        let sb: Vec<_> = (0..64).map(|_| b.draw_u64()).collect();
        let sc: Vec<_> = (0..64).map(|_| c.draw_u64()).collect();
        assert_ne!(sa, sb);
        assert_ne!(sa, sc);
    }
}
