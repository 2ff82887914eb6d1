//! `pddl-loadgen` — loopback wire probe for the bounded controller.
//!
//! `benchmark/` (the repo benchmark, `BENCHMARK.json`) drives the
//! in-process API and never opens a socket; this probe is the one place a
//! prediction is timed over real TCP. It trains the tiny system, serves a
//! [`Controller`] on an ephemeral loopback port and drives it with plain
//! [`ControllerClient`]s (no retries: a shed surfaces as one counted
//! overload instead of being retried invisibly — resilient convergence is
//! `tests/load.rs`) in two phases:
//!
//! 1. **low_rate** — the fleet is paced to `--low-rps` with client start
//!    times staggered across one pacing interval; the queue never fills,
//!    so every request must complete;
//! 2. **saturate** — unpaced, with a 4× fleet (closed-loop clients
//!    self-regulate down to `workers + queue_depth` in flight, so the base
//!    fleet alone barely sheds); sheds are expected and typed.
//!
//! Each phase prints its counts, throughput and exact latency percentiles
//! to stdout as `name unit value` lines, the format of `benchmark/`. The
//! exit code is the check: non-zero when `low_rate` sheds or expires a
//! request, or when any request fails outright.
//!
//! ```text
//! pddl-loadgen [--clients 8] [--requests 100] [--workers 2]
//!              [--queue-depth 4] [--deadline-ms 5000] [--low-rps 50]
//! ```
//!
//! A loopback round trip is ~0.2–0.3 ms; a p50 near 88 ms means a frame
//! is being written in two pieces again or `TCP_NODELAY` got lost.

use pddl_cluster::{ClusterState, RetryPolicy, ServerClass};
use pddl_ddlsim::Workload;
use predictddl::{
    Controller, ControllerClient, ErrorReply, OfflineTrainer, PredictionRequest, ServeConfig,
    ShedReason,
};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const USAGE: &str = "usage: pddl-loadgen [--clients N] [--requests N] [--workers N] \
                     [--queue-depth N] [--deadline-ms MS] [--low-rps RPS]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = parse_flags(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}\n{USAGE}");
        std::process::exit(2);
    });
    let clients: usize = flag(&flags, "clients", 8);
    let requests: usize = flag(&flags, "requests", 100);
    let low_rps: f64 = flag(&flags, "low-rps", 50.0);
    let config = ServeConfig {
        workers: flag(&flags, "workers", 2),
        queue_depth: flag(&flags, "queue-depth", 4),
        request_deadline: Duration::from_millis(flag(&flags, "deadline-ms", 5000)),
        ..ServeConfig::default()
    };

    eprintln!("training tiny system for the probe workload ...");
    let system = OfflineTrainer::tiny().train_full();
    let controller =
        Controller::serve_with("127.0.0.1:0", system, config).expect("bind controller");
    eprintln!(
        "loadgen: {} clients={clients} requests={requests} workers={} queue_depth={}",
        controller.addr(),
        config.workers,
        config.queue_depth
    );

    let req = probe_request();
    let mut ok = true;
    for (name, paced, mult) in PHASES {
        let rps = if paced { low_rps } else { 0.0 };
        let (phase, secs) = run_phase(
            controller.addr(),
            &req,
            config,
            clients * mult,
            requests,
            rps,
        );
        let (unserved, failed) = (phase.shed() + phase.expired + phase.failed, phase.failed);
        phase.print(name, secs);
        if failed > 0 || (paced && unserved > 0) {
            eprintln!("error: phase {name}: {unserved} request(s) shed, expired or failed");
            ok = false;
        }
    }
    drop(controller);
    if !ok {
        std::process::exit(1);
    }
}

/// The fixed probe workload: a mid-sized zoo model on the dataset the
/// tiny trainer covers.
fn probe_request() -> PredictionRequest {
    PredictionRequest::zoo(
        Workload::new("resnet18", "cifar10", 128, 2),
        ClusterState::homogeneous(ServerClass::GpuP100, 4),
    )
}

/// The two phases: `(name, paced, fleet multiplier)`. The saturation
/// fleet is widened because closed-loop clients that honor the shed
/// back-off settle at `workers + queue_depth` in flight — a base-sized
/// fleet would demonstrate convergence, not shedding.
const PHASES: [(&str, bool, usize); 2] = [("low_rate", true, 1), ("saturate", false, 4)];

/// What happened to one client's (then one phase's) requests. Every
/// request ends in exactly one of completed, shed (by typed reason),
/// expired or failed.
#[derive(Default)]
struct Tally {
    completed: u64,
    queue_full: u64,
    connection_limit: u64,
    draining: u64,
    unknown: u64,
    expired: u64,
    failed: u64,
    latencies_us: Vec<u64>,
}

impl Tally {
    /// Counts one typed overload reply: a deadline is an expiry, every
    /// other reason a shed.
    fn record_overload(&mut self, reason: ShedReason) {
        *match reason {
            ShedReason::QueueFull => &mut self.queue_full,
            ShedReason::ConnectionLimit => &mut self.connection_limit,
            ShedReason::Draining => &mut self.draining,
            // A controller never sheds as unrouteable; only a router does.
            ShedReason::Unrouteable | ShedReason::Unknown => &mut self.unknown,
            ShedReason::Deadline => &mut self.expired,
        } += 1;
    }

    fn absorb(&mut self, other: Tally) {
        self.completed += other.completed;
        self.queue_full += other.queue_full;
        self.connection_limit += other.connection_limit;
        self.draining += other.draining;
        self.unknown += other.unknown;
        self.expired += other.expired;
        self.failed += other.failed;
        self.latencies_us.extend(other.latencies_us);
    }

    fn shed(&self) -> u64 {
        self.queue_full + self.connection_limit + self.draining + self.unknown
    }

    fn print(mut self, name: &str, secs: f64) {
        let n = self.latencies_us.len();
        let [p50, p95, p99] = summarize(&mut self.latencies_us);
        for (metric, value) in [
            ("completed", self.completed),
            ("shed", self.shed()),
            ("shed.queue_full", self.queue_full),
            ("shed.connection_limit", self.connection_limit),
            ("shed.draining", self.draining),
            ("shed.unknown", self.unknown),
            ("expired", self.expired),
            ("failed", self.failed),
        ] {
            println!("{name}.{metric} count {value}");
        }
        println!(
            "{name}.throughput_rps req/s {:.1}",
            self.completed as f64 / secs
        );
        let latency = [("latency_p50_us", p50), ("latency_p95_us", p95), ("latency_p99_us", p99)];
        for (metric, value) in latency {
            println!("{name}.{metric} us {value} n={n}");
        }
    }
}

/// Nearest-rank percentile (`p` in `[0, 1]`) over an ascending-sorted slice.
fn percentile(sorted_us: &[u64], p: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((p * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Exact p50 / p95 / p99 of a latency sample, computed from the full
/// sorted sample (sorts in place), not a sketch.
fn summarize(latencies_us: &mut [u64]) -> [u64; 3] {
    latencies_us.sort_unstable();
    [0.50, 0.95, 0.99].map(|p| percentile(latencies_us, p))
}

/// Drives `fleet` clients, `requests` round trips each, against `addr`;
/// paced to an aggregate `rps` when it is non-zero. A shed client backs
/// off by the controller's own `retry_after_ms` hint. Returns the phase's
/// tally and its wall-clock seconds.
fn run_phase(
    addr: SocketAddr,
    req: &PredictionRequest,
    config: ServeConfig,
    fleet: usize,
    requests: usize,
    rps: f64,
) -> (Tally, f64) {
    let interval = if rps > 0.0 {
        Duration::from_secs_f64(fleet as f64 / rps)
    } else {
        Duration::ZERO
    };
    let client = |c: usize| {
        let mut tally = Tally::default();
        // Spread start times across one pacing interval: a fleet
        // submitting in phase-aligned bursts sheds even at a trivially
        // low aggregate rate.
        std::thread::sleep(interval.mul_f64(c as f64 / fleet as f64));
        let timeout = RetryPolicy::fast(0).attempt_timeout;
        let Ok(mut client) = ControllerClient::connect_with_timeout(addr, timeout) else {
            tally.failed = requests as u64;
            return tally;
        };
        for _ in 0..requests {
            let t0 = Instant::now();
            match client.predict(req) {
                Ok(Ok(_)) => {
                    tally.completed += 1;
                    tally.latencies_us.push(t0.elapsed().as_micros() as u64);
                }
                Ok(Err(_)) => tally.failed += 1,
                Err(e) => match ErrorReply::of(&e) {
                    Some(&ErrorReply::Overloaded { reason, .. }) => {
                        tally.record_overload(reason);
                        std::thread::sleep(Duration::from_millis(config.retry_after_ms));
                    }
                    _ => tally.failed += 1,
                },
            }
            // Hold the pacing interval between request starts.
            std::thread::sleep(interval.saturating_sub(t0.elapsed()));
        }
        tally
    };
    let t_phase = Instant::now();
    let mut phase = Tally::default();
    std::thread::scope(|s| {
        let clients: Vec<_> = (0..fleet).map(|c| s.spawn(move || client(c))).collect();
        for handle in clients {
            phase.absorb(handle.join().expect("client thread"));
        }
    });
    (phase, t_phase.elapsed().as_secs_f64().max(1e-9))
}

type Flags = HashMap<String, String>;

/// The options this probe has; anything else is a usage error (a removed
/// `--transport` must not be silently ignored).
const KEYS: [&str; 6] = [
    "clients",
    "requests",
    "workers",
    "queue-depth",
    "deadline-ms",
    "low-rps",
];

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let key = arg
            .strip_prefix("--")
            .filter(|key| KEYS.contains(key))
            .ok_or_else(|| format!("unknown option '{arg}'"))?;
        let value = args
            .next()
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &Flags, key: &str, default: T) -> T {
    match flags.get(key) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|_| {
            eprintln!("error: --{key}: cannot parse '{v}'\n{USAGE}");
            std::process::exit(2);
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 0.50), 50);
        assert_eq!(percentile(&sorted, 0.95), 95);
        assert_eq!(percentile(&sorted, 0.99), 99);
        assert_eq!(percentile(&sorted, 1.0), 100);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn summarize_sorts_before_ranking() {
        let mut xs = vec![30, 10, 20];
        assert_eq!(summarize(&mut xs), [20, 30, 30]);
        assert_eq!(xs, [10, 20, 30]);
        assert_eq!(summarize(&mut []), [0, 0, 0]);
    }
}
