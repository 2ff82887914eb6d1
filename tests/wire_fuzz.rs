//! Seeded wire-layer fuzzing: arbitrary, truncated, and corrupted bytes
//! fed into the bounded frame reader and both request parsers must come
//! back as structured errors (or clean parses) — never a panic, never an
//! unbounded buffer.
//!
//! The generator is a [`pddl_faults::FaultRng`], so every failure is
//! reproducible from the seed printed in the assertion message. 10 000
//! cases per seed, three seeds.

use pddl_cluster::protocol::{read_line_bounded, read_msg_bounded, ClientMsg, WireError};
use pddl_cluster::{ClusterState, ServerClass, MAX_FRAME_BYTES};
use pddl_ddlsim::Workload;
use pddl_faults::FaultRng;
use pddl_telemetry::json;
use predictddl::{
    parse_frame, ParsedFrame, PredictionRequest, RequestEnvelope, RequestError, ResponseEnvelope,
    TraceHeader, WireResponse,
};
use std::io::BufReader;

const CASES_PER_SEED: usize = 10_000;
const SEEDS: [u64; 3] = [1, 42, 0xDEAD_BEEF];

/// Frame bound used throughout the fuzz run — small enough that the
/// generator can exceed it cheaply.
const LIMIT: usize = 1024;

fn sample_request(rng: &mut FaultRng) -> PredictionRequest {
    let models = ["resnet18", "vgg16", "mobilenet_v2", "alexnet"];
    let model = models[rng.below(models.len() as u64) as usize];
    PredictionRequest::zoo(
        Workload::new(model, "cifar10", 32 << rng.below(4), 1 + rng.below(8) as usize),
        ClusterState::homogeneous(ServerClass::GpuP100, 1 + rng.below(16) as usize),
    )
}

/// One adversarial byte buffer. Mixes pure noise, printable noise, and
/// mutations (bit flips, truncations, splices) of well-formed frames.
fn gen_case(rng: &mut FaultRng) -> Vec<u8> {
    match rng.below(6) {
        // Pure random bytes, newlines included by chance.
        0 => (0..rng.below(256)).map(|_| rng.byte()).collect(),
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
                let i = rng.below(buf.len() as u64) as usize;
                buf[i] = rng.byte();
            }
            buf.push(b'\n');
            buf
        }
        // A valid frame cut off mid-token (no terminator: EOF mid-frame).
        3 => {
            let full = json::to_string(&sample_request(rng)).unwrap().into_bytes();
            let cut = 1 + rng.below(full.len() as u64 - 1) as usize;
            full[..cut].to_vec()
        }
        // Two frames spliced at random cut points.
        4 => {
            let a = json::to_string(&sample_request(rng)).unwrap().into_bytes();
            let b = json::to_string(&sample_request(rng)).unwrap().into_bytes();
            let ca = rng.below(a.len() as u64) as usize;
            let cb = rng.below(b.len() as u64) as usize;
            let mut buf = a[..ca].to_vec();
            buf.extend_from_slice(&b[cb..]);
            buf.push(b'\n');
            buf
        }
        // Deep but in-bounds noise right up against the frame limit.
        _ => {
            let len = LIMIT - 1 - rng.below(32) as usize;
            let mut buf: Vec<u8> = (0..len).map(|_| rng.byte()).collect();
            buf.retain(|&b| b != b'\n');
            buf.push(b'\n');
            buf
        }
    }
}

/// Drains a byte buffer through the bounded reader exactly as a connection
/// handler would, feeding every extracted line to both parsers. Returns on
/// EOF or the first structured error; panics only if a parser panics —
/// which is the bug class this test exists to catch.
fn drain(bytes: &[u8], buf_cap: usize, seed: u64, case: usize) {
    let mut reader = BufReader::with_capacity(buf_cap, bytes);
    loop {
        match read_line_bounded(&mut reader, LIMIT) {
            Ok(None) => break,
            Ok(Some(line)) => {
                assert!(
                    line.len() <= LIMIT,
                    "seed {seed} case {case}: line over limit ({} bytes)",
                    line.len()
                );
                // Both peer-facing parsers must classify or reject.
                let _ = parse_frame(&line);
            }
            Err(WireError::FrameTooLong { .. }) => break,
            Err(WireError::Malformed { .. }) => continue,
            Err(WireError::Io(e)) => panic!("seed {seed} case {case}: io error {e}"),
        }
    }
    // The typed-message reader takes the same bytes without panicking.
    let mut reader = BufReader::with_capacity(buf_cap, bytes);
    loop {
        match read_msg_bounded::<ClientMsg>(&mut reader, LIMIT) {
            Ok(None) => break,
            Ok(Some(_)) => continue,
            Err(_) => break,
        }
    }
}

#[test]
fn arbitrary_bytes_never_panic_the_wire_layer() {
    for seed in SEEDS {
        let mut rng = FaultRng::new(seed);
        for case in 0..CASES_PER_SEED {
            let bytes = gen_case(&mut rng);
            // Tiny buffer capacities exercise fill_buf boundary handling.
            let cap = 8 + rng.below(120) as usize;
            drain(&bytes, cap, seed, case);
        }
    }
}

#[test]
fn fuzz_is_seed_deterministic() {
    let gen_all = |seed: u64| -> Vec<Vec<u8>> {
        let mut rng = FaultRng::new(seed);
        (0..64).map(|_| gen_case(&mut rng)).collect()
    };
    assert_eq!(gen_all(99), gen_all(99));
    assert_ne!(gen_all(99), gen_all(100));
}

#[test]
fn overlong_frames_get_structured_rejection() {
    let mut rng = FaultRng::new(7);
    for case in 0..200 {
        let len = LIMIT + 1 + rng.below(4 * LIMIT as u64) as usize;
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
        let mut reader = BufReader::with_capacity(32, bytes.as_slice());
        match read_line_bounded(&mut reader, LIMIT) {
            Err(WireError::FrameTooLong { limit }) => assert_eq!(limit, LIMIT),
            other => panic!("case {case}: expected FrameTooLong, got {other:?}"),
        }
    }
}

#[test]
fn valid_frames_always_classify() {
    let mut rng = FaultRng::new(0xF00D);
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
    assert!(matches!(parse_frame("{\"op\":\"metrics\"}"), Ok(ParsedFrame::Metrics)));
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
        read_line_bounded(&mut reader, MAX_FRAME_BYTES),
        Err(WireError::FrameTooLong { .. })
    ));
}

/// Session tokens, request ids and trace ids are full-width u64s (the
/// client mints them from a nanosecond clock and a golden-ratio stride);
/// every bit must survive the request and the response direction.
#[test]
fn u64_max_identities_round_trip_exactly() {
    let mut rng = FaultRng::new(5);
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
