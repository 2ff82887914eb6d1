//! The `{"op":"observe"}` sink pinned by its bits: a seeded stream of
//! completed jobs over 2, 4 and 8 servers — 400 healthy observations, then
//! the ×1.5 cost shift the repo benchmark's `mixed_observe` applies, then a
//! ×3 shift — fed to `ObservationSink::new()`. Every reply's
//! `residual_z` bits, `drifted`, `observations` and `drift_events` are
//! pinned, and so is `calibrate()` at fixed points. A change to the refit
//! loop that is meant to move no bits must leave `fixtures/observe_bits.txt`
//! as it is. On an intentional change, regenerate with
//! `PDDL_REGEN_GOLDEN=1 cargo test -p predictddl --test observe_bits` and
//! review the fixture diff like any other code change.

use pddl_tensor::Rng;
use predictddl::ObservationSink;
use std::fmt::Write;
use std::path::PathBuf;

fn fixture() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/observe_bits.txt")
}

/// `(cost factor, observations)` per phase.
const PHASES: [(f64, usize); 3] = [(1.0, 400), (1.5, 300), (3.0, 300)];

/// Observation counts after which `calibrate` is pinned (the first sits
/// inside the calibration warm-up, where it is the identity).
fn calibrate_here(n: u64) -> bool {
    n == 10 || n.is_multiple_of(50)
}

#[test]
fn observe_replies_and_calibration_keep_their_bits() {
    let sink = ObservationSink::new();
    let mut rng = Rng::new(29);
    let mut live = String::new();
    for (phase, &(factor, n)) in PHASES.iter().enumerate() {
        for _ in 0..n {
            let servers = [2usize, 4, 8][rng.below(3)];
            let predicted = 40.0 + 160.0 * rng.next_f64();
            // The model misses a mild per-size bias the calibration learns.
            let bias = 1.0 + 0.05 * (servers as f64).ln();
            let noise = (0.03 * rng.normal() as f64).exp();
            let actual = factor * predicted * bias * noise;
            let r = sink.record(predicted, actual, servers);
            writeln!(
                live,
                "p{phase} n{servers} z {:016x} drifted {} obs {} events {}",
                r.residual_z.to_bits(),
                r.drifted,
                r.observations,
                r.drift_events
            )
            .unwrap();
            if calibrate_here(r.observations) {
                let words: Vec<String> = [2usize, 4, 8]
                    .iter()
                    .map(|&s| format!("{:016x}", sink.calibrate(100.0, s).to_bits()))
                    .collect();
                writeln!(live, "calibrate obs {} {}", r.observations, words.join(" ")).unwrap();
            }
        }
    }

    let path = fixture();
    if std::env::var("PDDL_REGEN_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("fixture dir")).unwrap();
        std::fs::write(&path, &live).unwrap();
        eprintln!("observe_bits.txt regenerated — commit the fixture diff");
        return;
    }
    let stored = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing fixture {} ({e}); regenerate with PDDL_REGEN_GOLDEN=1", path.display())
    });
    for (i, (want, got)) in stored.lines().zip(live.lines()).enumerate() {
        assert_eq!(got, want, "observe_bits.txt line {} drifted", i + 1);
    }
    assert_eq!(stored.lines().count(), live.lines().count(), "observe_bits.txt line count");
}
