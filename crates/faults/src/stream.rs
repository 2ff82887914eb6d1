//! `Read`/`Write` wrappers that apply a [`FaultSchedule`] to any inner
//! transport.

use crate::plan::FaultPlan;
use pddl_telemetry::rng::Rng;
use pddl_telemetry::Counter;
use std::io::{Read, Write};
use std::sync::OnceLock;
use std::time::Duration;

/// Which half of a stream a schedule drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Faults injected into reads.
    Read,
    /// Faults injected into writes.
    Write,
}

/// One injected fault, recorded in the schedule's log.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Slept for this many milliseconds before the operation.
    Delay(u64),
    /// The operation failed with `ConnectionReset`; the stream is dead.
    Reset,
    /// Only this many bytes of the write were sent before the stream died.
    TruncatedWrite(usize),
    /// This many bytes of the payload were corrupted.
    Garbage(usize),
    /// The write was swallowed whole (claimed successful, nothing sent).
    DroppedWrite,
}

/// An injected fault together with the operation index it fired on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// 0-based index of the read/write operation on this schedule.
    pub op: u64,
    /// What was injected.
    pub kind: FaultKind,
}

/// Fault-injection metric handles, resolved once.
struct Metrics {
    delays: &'static Counter,
    resets: &'static Counter,
    truncated_writes: &'static Counter,
    garbage: &'static Counter,
    dropped_writes: &'static Counter,
}

fn metrics() -> &'static Metrics {
    static METRICS: OnceLock<Metrics> = OnceLock::new();
    METRICS.get_or_init(|| Metrics {
        delays: pddl_telemetry::counter("faults.injected_delays"),
        resets: pddl_telemetry::counter("faults.injected_resets"),
        truncated_writes: pddl_telemetry::counter("faults.truncated_writes"),
        garbage: pddl_telemetry::counter("faults.garbage_injections"),
        dropped_writes: pddl_telemetry::counter("faults.dropped_writes"),
    })
}

/// The per-direction fault decision stream: a PRNG plus the plan's
/// probabilities, an operation counter, and a log of everything injected.
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    plan: FaultPlan,
    rng: Rng,
    op: u64,
    dead: bool,
    log: Vec<FaultEvent>,
}

/// The decision drawn for one operation (before applicability filtering).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Decision {
    None,
    Delay(u64),
    Reset,
    Truncate,
    Garbage,
    Drop,
}

impl FaultSchedule {
    /// A schedule driven by `rng` under `plan`'s probabilities. Prefer
    /// [`FaultPlan::schedule`], which derives the RNG deterministically.
    pub fn new(plan: FaultPlan, rng: Rng) -> Self {
        Self { plan, rng, op: 0, dead: false, log: Vec::new() }
    }

    /// Everything injected so far, in operation order.
    pub fn log(&self) -> &[FaultEvent] {
        &self.log
    }

    /// True once a reset or truncation has killed the stream.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    #[cfg(test)]
    pub(crate) fn draw_u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// Draws the decision for the next operation. Exactly two RNG draws per
    /// call (decision + parameter), so the decision sequence is independent
    /// of which faults end up applicable to the direction.
    fn decide(&mut self) -> Decision {
        let r = self.rng.next_f64();
        let aux = self.rng.next_u64();
        let p = &self.plan;
        let mut edge = p.p_delay;
        if r < edge {
            return Decision::Delay(1 + aux % p.max_delay_ms.max(1));
        }
        edge += p.p_reset;
        if r < edge {
            return Decision::Reset;
        }
        edge += p.p_truncate;
        if r < edge {
            return Decision::Truncate;
        }
        edge += p.p_garbage;
        if r < edge {
            return Decision::Garbage;
        }
        edge += p.p_drop;
        if r < edge {
            return Decision::Drop;
        }
        Decision::None
    }

    fn record(&mut self, kind: FaultKind) {
        self.log.push(FaultEvent { op: self.op, kind });
    }

    fn reset_error(&mut self) -> std::io::Error {
        self.dead = true;
        std::io::Error::new(std::io::ErrorKind::ConnectionReset, "injected connection reset")
    }

    /// Corrupts up to 4 bytes of `data` in place; returns how many.
    fn corrupt(&mut self, data: &mut [u8]) -> usize {
        if data.is_empty() {
            return 0;
        }
        let n = 1 + self.rng.below(4.min(data.len()));
        for _ in 0..n {
            let i = self.rng.below(data.len());
            data[i] = self.rng.byte();
        }
        n
    }
}

/// A fault-injecting [`Read`] wrapper.
pub struct FaultyRead<R> {
    inner: R,
    sched: FaultSchedule,
}

impl<R: Read> FaultyRead<R> {
    /// Wraps `inner` under `sched` (usually
    /// `plan.schedule(conn, Direction::Read)`).
    pub fn new(inner: R, sched: FaultSchedule) -> Self {
        Self { inner, sched }
    }

    /// The faults injected so far on this half.
    pub fn log(&self) -> &[FaultEvent] {
        self.sched.log()
    }
}

impl<R: Read> Read for FaultyRead<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let m = metrics();
        if self.sched.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionReset,
                "stream killed by injected fault",
            ));
        }
        let decision = self.sched.decide();
        match decision {
            Decision::Delay(ms) => {
                self.sched.record(FaultKind::Delay(ms));
                m.delays.inc();
                std::thread::sleep(Duration::from_millis(ms));
            }
            Decision::Reset => {
                self.sched.record(FaultKind::Reset);
                m.resets.inc();
                let e = self.sched.reset_error();
                self.sched.op += 1;
                return Err(e);
            }
            _ => {}
        }
        let n = self.inner.read(buf)?;
        if decision == Decision::Garbage && n > 0 {
            let corrupted = self.sched.corrupt(&mut buf[..n]);
            self.sched.record(FaultKind::Garbage(corrupted));
            m.garbage.inc();
        }
        self.sched.op += 1;
        Ok(n)
    }
}

/// A fault-injecting [`Write`] wrapper.
pub struct FaultyWrite<W> {
    inner: W,
    sched: FaultSchedule,
}

impl<W: Write> FaultyWrite<W> {
    /// Wraps `inner` under `sched` (usually
    /// `plan.schedule(conn, Direction::Write)`).
    pub fn new(inner: W, sched: FaultSchedule) -> Self {
        Self { inner, sched }
    }

    /// The faults injected so far on this half.
    pub fn log(&self) -> &[FaultEvent] {
        self.sched.log()
    }
}

impl<W: Write> Write for FaultyWrite<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let m = metrics();
        if self.sched.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "stream killed by injected fault",
            ));
        }
        let decision = self.sched.decide();
        let result = match decision {
            Decision::Delay(ms) => {
                self.sched.record(FaultKind::Delay(ms));
                m.delays.inc();
                std::thread::sleep(Duration::from_millis(ms));
                self.inner.write(buf)
            }
            Decision::Reset => {
                self.sched.record(FaultKind::Reset);
                m.resets.inc();
                Err(self.sched.reset_error())
            }
            Decision::Truncate if !buf.is_empty() => {
                // Send a strict prefix, then kill the stream: the peer sees
                // a frame cut off mid-line followed by a reset.
                let keep = self.sched.rng.below(buf.len()).min(buf.len() - 1);
                self.sched.record(FaultKind::TruncatedWrite(keep));
                m.truncated_writes.inc();
                let r = if keep > 0 { self.inner.write_all(&buf[..keep]) } else { Ok(()) };
                let _ = self.inner.flush();
                self.sched.dead = true;
                match r {
                    // Claim partial progress; the very next write fails.
                    Ok(()) => Ok(keep.max(1)),
                    Err(e) => Err(e),
                }
            }
            Decision::Garbage if !buf.is_empty() => {
                let mut copy = buf.to_vec();
                let corrupted = self.sched.corrupt(&mut copy);
                self.sched.record(FaultKind::Garbage(corrupted));
                m.garbage.inc();
                self.inner.write_all(&copy).map(|()| buf.len())
            }
            Decision::Drop => {
                self.sched.record(FaultKind::DroppedWrite);
                m.dropped_writes.inc();
                Ok(buf.len())
            }
            _ => self.inner.write(buf),
        };
        self.sched.op += 1;
        result
    }

    fn flush(&mut self) -> std::io::Result<()> {
        if self.sched.dead {
            return Err(std::io::Error::new(
                std::io::ErrorKind::BrokenPipe,
                "stream killed by injected fault",
            ));
        }
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hostile_plan(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            p_delay: 0.05,
            max_delay_ms: 1,
            p_reset: 0.1,
            p_truncate: 0.1,
            p_garbage: 0.2,
            p_drop: 0.2,
        }
    }

    /// Drives a write schedule through a fixed op sequence; returns the log.
    fn drive_writes(plan: &FaultPlan, conn: u64, ops: usize) -> Vec<FaultEvent> {
        let mut w = FaultyWrite::new(Vec::new(), plan.schedule(conn, Direction::Write));
        for i in 0..ops {
            let payload = vec![b'a' + (i % 26) as u8; 16];
            let _ = w.write(&payload);
        }
        w.log().to_vec()
    }

    #[test]
    fn same_seed_reproduces_fault_sequence_exactly() {
        let plan = hostile_plan(0xFEED);
        let a = drive_writes(&plan, 3, 200);
        let b = drive_writes(&plan, 3, 200);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "hostile plan injected nothing in 200 ops");
    }

    /// The first 1 000 decisions of one seeded plan with every fault kind
    /// enabled, hashed: each operation's outcome, the event log and every
    /// byte that reached a peer. Connections alternate write and read
    /// halves, and a half that dies hands on to the next connection. The
    /// constant pins the schedule to its generator's exact bit stream.
    #[test]
    fn first_thousand_decisions_keep_their_bits() {
        use pddl_telemetry::hash::Fnv1a;
        let plan = FaultPlan {
            seed: 0x5EED,
            p_delay: 0.02,
            max_delay_ms: 1,
            p_reset: 0.02,
            p_truncate: 0.05,
            p_garbage: 0.3,
            p_drop: 0.1,
        };
        let mut h = Fnv1a::new();
        let mut decisions = 0;
        let mut conn = 0u64;
        while decisions < 1000 {
            if conn.is_multiple_of(2) {
                let mut w = FaultyWrite::new(Vec::new(), plan.schedule(conn, Direction::Write));
                while decisions < 1000 && !w.sched.is_dead() {
                    let payload: Vec<u8> =
                        (0..1 + decisions % 23).map(|i| (i * 7 + decisions) as u8).collect();
                    let sent = w.write(&payload).map_err(|e| e.kind());
                    h.bytes(format!("{sent:?}").as_bytes());
                    decisions += 1;
                }
                h.bytes(&w.inner);
                h.bytes(format!("{:?}", w.log()).as_bytes());
            } else {
                let data: Vec<u8> = (0..4096u32).map(|i| (i * 13) as u8).collect();
                let sched = plan.schedule(conn, Direction::Read);
                let mut r = FaultyRead::new(std::io::Cursor::new(data), sched);
                while decisions < 1000 && !r.sched.is_dead() {
                    let mut buf = [0u8; 19];
                    let n = r.read(&mut buf).map_err(|e| e.kind());
                    h.bytes(format!("{n:?}").as_bytes());
                    h.bytes(&buf);
                    decisions += 1;
                }
                h.bytes(format!("{:?}", r.log()).as_bytes());
            }
            conn += 1;
        }
        assert_eq!(h.finish(), 0x63d2_d13b_74f0_cf63, "fault schedule bits moved");
    }

    #[test]
    fn different_seeds_differ() {
        let a = drive_writes(&hostile_plan(1), 0, 200);
        let b = drive_writes(&hostile_plan(2), 0, 200);
        assert_ne!(a, b);
    }

    #[test]
    fn reset_kills_read_stream() {
        let plan = FaultPlan { p_reset: 1.0, p_delay: 0.0, p_truncate: 0.0, p_garbage: 0.0, p_drop: 0.0, ..FaultPlan::default() };
        let mut r = FaultyRead::new(std::io::Cursor::new(vec![1u8; 64]), plan.schedule(0, Direction::Read));
        let mut buf = [0u8; 16];
        let e = r.read(&mut buf).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset);
        let e2 = r.read(&mut buf).unwrap_err();
        assert_eq!(e2.kind(), std::io::ErrorKind::ConnectionReset);
        assert_eq!(r.log(), &[FaultEvent { op: 0, kind: FaultKind::Reset }]);
    }

    #[test]
    fn dropped_write_claims_success_but_sends_nothing() {
        let plan = FaultPlan { p_drop: 1.0, p_delay: 0.0, p_reset: 0.0, p_truncate: 0.0, p_garbage: 0.0, ..FaultPlan::default() };
        let mut w = FaultyWrite::new(Vec::new(), plan.schedule(0, Direction::Write));
        assert_eq!(w.write(b"hello\n").expect("claimed ok"), 6);
        assert!(w.inner.is_empty());
    }

    #[test]
    fn truncated_write_sends_strict_prefix_then_dies() {
        let plan = FaultPlan { p_truncate: 1.0, p_delay: 0.0, p_reset: 0.0, p_garbage: 0.0, p_drop: 0.0, ..FaultPlan::default() };
        let mut w = FaultyWrite::new(Vec::new(), plan.schedule(0, Direction::Write));
        let payload = b"0123456789abcdef";
        let _ = w.write(payload).expect("first write reports progress");
        assert!(w.inner.len() < payload.len());
        let e = w.write(payload).unwrap_err();
        assert_eq!(e.kind(), std::io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn garbage_corrupts_read_bytes() {
        let plan = FaultPlan { p_garbage: 1.0, p_delay: 0.0, p_reset: 0.0, p_truncate: 0.0, p_drop: 0.0, ..FaultPlan::default() };
        let original = vec![0u8; 256];
        let mut r = FaultyRead::new(std::io::Cursor::new(original.clone()), plan.schedule(0, Direction::Read));
        let mut buf = vec![0xAAu8; 256];
        let n = r.read(&mut buf).expect("read ok");
        assert!(n > 0);
        assert_ne!(&buf[..n], &original[..n], "garbage fault left payload intact");
    }

    #[test]
    fn clean_plan_is_transparent() {
        let plan = FaultPlan { p_delay: 0.0, p_reset: 0.0, p_truncate: 0.0, p_garbage: 0.0, p_drop: 0.0, ..FaultPlan::default() };
        let mut w = FaultyWrite::new(Vec::new(), plan.schedule(0, Direction::Write));
        w.write_all(b"abc").expect("write");
        w.flush().expect("flush");
        assert_eq!(w.inner, b"abc");
        let mut r = FaultyRead::new(std::io::Cursor::new(b"xyz".to_vec()), plan.schedule(0, Direction::Read));
        let mut out = Vec::new();
        r.read_to_end(&mut out).expect("read");
        assert_eq!(out, b"xyz");
        assert!(r.log().is_empty() && w.log().is_empty());
    }
}
