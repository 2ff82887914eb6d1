//! Seeded wire-layer fuzzing: arbitrary, truncated, and corrupted bytes
//! fed into the frame reader every server and client runs
//! ([`LineReader`]) and the peer-facing frame parser must come back as
//! structured errors (or clean parses) — never a panic, never an
//! unbounded buffer — and read timeouts between chunks must not change a
//! single line.
//!
//! The generator is the workspace's one [`pddl_tensor::Rng`], so every failure is
//! reproducible from the seed printed in the assertion message. 10 000
//! cases per seed, three seeds.

use pddl_cluster::{ClusterState, LinePoll, LineReader, ServerClass, WireError, MAX_FRAME_BYTES};
use pddl_ddlsim::Workload;
use pddl_telemetry::json;
use pddl_tensor::Rng;
use predictddl::{
    parse_frame, ParsedFrame, PredictionRequest, RequestEnvelope, RequestError, ResponseEnvelope,
    TraceHeader, WireResponse,
};
use std::io::{BufRead, BufReader, Read};

const CASES_PER_SEED: usize = 10_000;
const SEEDS: [u64; 3] = [1, 42, 0xDEAD_BEEF];

/// Frame bound used throughout the fuzz run — small enough that the
/// generator can exceed it cheaply.
const LIMIT: usize = 1024;

fn sample_request(rng: &mut Rng) -> PredictionRequest {
    let models = ["resnet18", "vgg16", "mobilenet_v2", "alexnet"];
    let model = models[rng.below(models.len())];
    PredictionRequest::zoo(
        Workload::new(model, "cifar10", 32 << rng.below(4), 1 + rng.below(8)),
        ClusterState::homogeneous(ServerClass::GpuP100, 1 + rng.below(16)),
    )
}

/// One adversarial byte buffer. Mixes pure noise, printable noise, and
/// mutations (bit flips, truncations, splices) of well-formed frames.
fn gen_case(rng: &mut Rng) -> Vec<u8> {
    match rng.below(7) {
        // Pure random bytes, newlines included by chance.
        0 => (0..rng.below(256)).map(|_| rng.byte()).collect(),
        // Up to two frame bounds of noise: now and then a run of it
        // outgrows the bound.
        6 => (0..rng.below(2 * LIMIT)).map(|_| rng.byte()).collect(),
        // Random printable ASCII line.
        1 => {
            let mut buf: Vec<u8> =
                (0..rng.below(200)).map(|_| 0x20 + (rng.byte() % 0x5f)).collect();
            buf.push(b'\n');
            buf
        }
        // A valid frame with a few corrupted bytes.
        2 => {
            let mut buf = json::to_string(&sample_request(rng)).unwrap().into_bytes();
            for _ in 0..1 + rng.below(4) {
                let i = rng.below(buf.len());
                buf[i] = rng.byte();
            }
            buf.push(b'\n');
            buf
        }
        // A valid frame cut off mid-token (no terminator: EOF mid-frame).
        3 => {
            let full = json::to_string(&sample_request(rng)).unwrap().into_bytes();
            let cut = 1 + rng.below(full.len() - 1);
            full[..cut].to_vec()
        }
        // Two frames spliced at random cut points.
        4 => {
            let a = json::to_string(&sample_request(rng)).unwrap().into_bytes();
            let b = json::to_string(&sample_request(rng)).unwrap().into_bytes();
            let ca = rng.below(a.len());
            let cb = rng.below(b.len());
            let mut buf = a[..ca].to_vec();
            buf.extend_from_slice(&b[cb..]);
            buf.push(b'\n');
            buf
        }
        // Deep but in-bounds noise right up against the frame limit.
        _ => {
            let len = LIMIT - 1 - rng.below(32);
            let mut buf: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
            buf.retain(|&b| b != b'\n');
            buf.push(b'\n');
            buf
        }
    }
}

/// What a reader made of a byte stream: every line it handed out, then
/// how it stopped — `None` at EOF, `Some(limit)` on an over-long frame.
type Polled = (Vec<String>, Option<usize>);

/// Polls `r` to the end the way a connection does: a timed-out read
/// (`Pending`) is polled again, every line is handed on.
fn poll_to_end(r: &mut impl BufRead) -> Polled {
    let mut lines = LineReader::bounded(LIMIT);
    let mut out = Vec::new();
    loop {
        match lines.poll(r) {
            Ok(LinePoll::Line(line)) => out.push(line),
            Ok(LinePoll::Pending) => continue,
            Ok(LinePoll::Eof) => return (out, None),
            Err(WireError::FrameTooLong { limit }) => return (out, Some(limit)),
            Err(WireError::Io(e)) => panic!("in-memory reader raised io error: {e}"),
        }
    }
}

/// Fails every other `fill_buf` with `WouldBlock`, like a socket whose
/// read timeout keeps firing mid-frame (the wire unit tests' reader).
struct Choppy<R> {
    inner: R,
    block: bool,
}

impl<R: BufRead> Read for Choppy<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.inner.read(buf)
    }
}

impl<R: BufRead> BufRead for Choppy<R> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        self.block = !self.block;
        if self.block {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        self.inner.fill_buf()
    }

    fn consume(&mut self, amt: usize) {
        self.inner.consume(amt);
    }
}

/// Every seeded case with the reader capacity it is read at; tiny
/// capacities exercise `fill_buf` boundary handling.
fn seeded_cases() -> impl Iterator<Item = (u64, usize, Vec<u8>, usize)> {
    SEEDS.into_iter().flat_map(|seed| {
        let mut rng = Rng::new(seed);
        (0..CASES_PER_SEED).map(move |case| {
            let bytes = gen_case(&mut rng);
            (seed, case, bytes, 8 + rng.below(120))
        })
    })
}

/// Drains every case through the bounded reader exactly as a connection
/// does, feeding every extracted line to the controller's peer-facing
/// parser. Panics only if the parser panics or a line escapes the bound —
/// the bug classes this test exists to catch.
#[test]
fn arbitrary_bytes_never_panic_the_wire_layer() {
    for (seed, case, bytes, cap) in seeded_cases() {
        let (lines, too_long) = poll_to_end(&mut BufReader::with_capacity(cap, bytes.as_slice()));
        for line in &lines {
            assert!(line.len() <= LIMIT, "seed {seed} case {case}: line over limit");
            let _ = parse_frame(line);
        }
        assert!(too_long.is_none_or(|limit| limit == LIMIT), "seed {seed} case {case}");
    }
}

/// The same inputs with a timed-out read before every chunk: the reader
/// keeps its partial frame across `Pending`, so the lines — and where an
/// over-long frame stops the read — equal an uninterrupted read's.
#[test]
fn wouldblock_between_chunks_changes_no_line() {
    for (seed, case, bytes, cap) in seeded_cases() {
        let plain = poll_to_end(&mut BufReader::with_capacity(cap, bytes.as_slice()));
        let inner = BufReader::with_capacity(cap, bytes.as_slice());
        let choppy = poll_to_end(&mut Choppy { inner, block: false });
        assert_eq!(choppy, plain, "seed {seed} case {case}");
    }
}

#[test]
fn fuzz_is_seed_deterministic() {
    let gen_all = |seed: u64| -> Vec<Vec<u8>> {
        let mut rng = Rng::new(seed);
        (0..64).map(|_| gen_case(&mut rng)).collect()
    };
    assert_eq!(gen_all(99), gen_all(99));
    assert_ne!(gen_all(99), gen_all(100));
}

#[test]
fn overlong_frames_get_structured_rejection() {
    let mut rng = Rng::new(7);
    for case in 0..200 {
        let len = LIMIT + 1 + rng.below(4 * LIMIT);
        let mut bytes: Vec<u8> = (0..len)
            .map(|_| match rng.byte() {
                b'\n' => b'x',
                b => b,
            })
            .collect();
        // Half the cases never terminate the line at all.
        if rng.below(2) == 0 {
            bytes.push(b'\n');
        }
        let polled = poll_to_end(&mut BufReader::with_capacity(32, bytes.as_slice()));
        assert_eq!(polled, (vec![], Some(LIMIT)), "case {case}");
    }
}

#[test]
fn valid_frames_always_classify() {
    let mut rng = Rng::new(0xF00D);
    for _ in 0..500 {
        let req = sample_request(&mut rng);
        let single = json::to_string(&req).unwrap();
        assert!(matches!(parse_frame(&single), Ok(ParsedFrame::Single(_))), "{single}");

        let batch = json::to_string(&vec![req.clone(), req.clone()]).unwrap();
        assert!(matches!(parse_frame(&batch), Ok(ParsedFrame::Batch(b)) if b.len() == 2));

        // Alternate bare and trace-carrying envelopes: both wire shapes
        // must classify, and the header must survive the round trip.
        let trace = (rng.below(2) == 0).then(|| TraceHeader {
            trace_id: rng.next_u64(),
            span_id: rng.next_u64(),
            parent_id: 0,
        });
        let env = RequestEnvelope { client: rng.next_u64(), id: rng.next_u64(), trace, req };
        let enveloped = json::to_string(&env).unwrap();
        match parse_frame(&enveloped) {
            Ok(ParsedFrame::Enveloped(e)) => {
                assert_eq!((e.client, e.id), (env.client, env.id));
                assert_eq!(
                    e.trace.map(|t| (t.trace_id, t.span_id)),
                    env.trace.map(|t| (t.trace_id, t.span_id)),
                );
            }
            other => panic!("envelope misclassified: {other:?}"),
        }
    }
    assert!(matches!(parse_frame("{\"op\":\"stats\"}"), Ok(ParsedFrame::Stats)));
    assert!(matches!(parse_frame("{\"op\":\"trace\"}"), Ok(ParsedFrame::Trace)));
    let removed = parse_frame("{\"op\":\"metrics\"}").expect_err("not an op");
    assert!(removed.contains("unknown op `metrics`"), "{removed}");
    assert!(parse_frame("not json").is_err());
    assert!(parse_frame("[{\"bad\":1}]").is_err());
}

/// The deepest frame the reader will hand to the parser — `MAX_FRAME_BYTES`
/// of open brackets — must come back as an error from a reader thread's
/// stack, not overflow it. Every nesting flavour, at and around the bound.
#[test]
fn deep_nesting_at_the_frame_bound_is_rejected_not_overflowed() {
    let hostile: Vec<String> = vec![
        "[".repeat(MAX_FRAME_BYTES),
        "{\"a\":".repeat(MAX_FRAME_BYTES / 5),
        "[{\"op\":".repeat(MAX_FRAME_BYTES / 7),
        format!("{{\"op\":\"observe\",\"req\":{}", "[".repeat(MAX_FRAME_BYTES - 64)),
        format!("{}1{}", "[".repeat(json::MAX_DEPTH + 1), "]".repeat(json::MAX_DEPTH + 1)),
    ];
    // The controller's reader threads run on the default thread stack;
    // a quarter of that is ample for a capped descent and far too small
    // for an uncapped one.
    let verdicts = std::thread::Builder::new()
        .stack_size(512 * 1024)
        .spawn(move || hostile.iter().map(|line| parse_frame(line)).collect::<Vec<_>>())
        .unwrap()
        .join()
        .expect("parse_frame overflowed the stack");
    for verdict in verdicts {
        let err = verdict.expect_err("hostile nesting must not classify");
        assert!(err.contains("nesting deeper than"), "{err}");
    }
    // A line over the frame bound never reaches the parser at all.
    let mut over = vec![b'['; MAX_FRAME_BYTES + 1];
    over.push(b'\n');
    let mut reader = BufReader::new(over.as_slice());
    assert!(matches!(
        LineReader::bounded(MAX_FRAME_BYTES).poll(&mut reader),
        Err(WireError::FrameTooLong { .. })
    ));
}

/// Session tokens, request ids and trace ids are full-width u64s (the
/// client mints them from a nanosecond clock and a golden-ratio stride);
/// every bit must survive the request and the response direction.
#[test]
fn u64_max_identities_round_trip_exactly() {
    let mut rng = Rng::new(5);
    let ids = [u64::MAX, u64::MAX - 1, (1 << 53) + 1, 1 << 63, 0x9E37_79B9_7F4A_7C15];
    for (i, &id) in ids.iter().enumerate() {
        let client = ids[(i + 1) % ids.len()];
        let trace = TraceHeader { trace_id: id, span_id: client, parent_id: u64::MAX };
        let env =
            RequestEnvelope { client, id, trace: Some(trace), req: sample_request(&mut rng) };
        let line = json::to_string(&env).unwrap();
        assert!(line.contains(&format!("\"id\":{id},")), "{line}");
        let Ok(ParsedFrame::Enveloped(back)) = parse_frame(&line) else {
            panic!("envelope misclassified: {line}");
        };
        assert_eq!((back.client, back.id), (client, id));
        let t = back.trace.expect("trace header survives");
        assert_eq!((t.trace_id, t.span_id, t.parent_id), (id, client, u64::MAX));

        let resp = WireResponse::Err { error: RequestError::UnknownModel("x".into()) };
        let renv = ResponseEnvelope { client, id, trace: Some(trace), shard: Some(id), resp };
        let reply = json::to_string(&renv).unwrap();
        assert!(reply.contains(&format!("\"shard\":{id},")), "{reply}");
        let back: ResponseEnvelope = json::from_str(&reply).unwrap();
        assert_eq!((back.client, back.id, back.shard), (client, id, Some(id)));
        assert_eq!(back.trace.map(|t| t.trace_id), Some(id));
        assert_eq!(json::to_string(&back).unwrap(), reply);
    }
}
