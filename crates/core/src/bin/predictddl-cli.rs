//! `predictddl` command-line interface.
//!
//! ```text
//! predictddl-cli train --out system.json [--datasets cifar10,tiny-imagenet]
//! predictddl-cli train --registry ./registry [--label nightly]
//! predictddl-cli predict --system system.json --model resnet50
//!                        --dataset cifar10 --servers 8 [--gpu|--cpu]
//!                        [--batch 128] [--epochs 10]
//! predictddl-cli serve --system system.json --addr 127.0.0.1:7077
//! predictddl-cli serve --registry ./registry [--watch-registry 2000]
//! predictddl-cli reload --addr 127.0.0.1:7077 [--version N]
//! predictddl-cli observe --addr 127.0.0.1:7077 --model resnet50
//!                        --dataset cifar10 --servers 8 --actual-secs 812.5
//! predictddl-cli stats --addr 127.0.0.1:7077
//! predictddl-cli trace --addr 127.0.0.1:7077 [--json]
//! predictddl-cli models
//! ```
//!
//! `serve` prints its final telemetry snapshot (JSON) to stderr when shut
//! down (Ctrl-C / SIGTERM). Set `PDDL_LOG` (e.g.
//! `PDDL_LOG=info,controller=debug`) for structured JSON logs on stderr.

use pddl_cluster::{ClusterState, ServerClass};
use pddl_ddlsim::{TraceConfig, Workload};
use pddl_faults::FaultPlan;
use pddl_registry::Registry;
use pddl_telemetry::json;
use predictddl::cli::{check_flags, parse_flags, wait_for_shutdown, Command, Flags};
use predictddl::{
    load_checkpoint, save_checkpoint, spawn_watcher, Controller, ControllerClient, LiveSystem,
    OfflineTrainer, PredictDdl, PredictionRequest, ReloadManager, ServeConfig,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    if matches!(cmd.as_str(), "help" | "--help" | "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let Some(command) = find_command(cmd) else {
        eprintln!("unknown command '{cmd}'\n{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = parse_flags(rest)
        .and_then(|flags| check_flags(command, &flags).and_then(|()| (command.run)(&flags)));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  predictddl-cli train   --out <file> | --registry <dir> [--label <text>]
                         [--datasets cifar10,tiny-imagenet] [--retain N]
  predictddl-cli predict --system <file> --model <name> --dataset <name>
                         --servers <n> [--gpu|--cpu] [--batch 128] [--epochs 10]
  predictddl-cli serve   --system <file> | --registry <dir>
                         [--addr 127.0.0.1:7077] [--watch-registry <ms>]
                         [--retain N] [--workers N] [--queue-depth N]
                         [--max-conns N] [--deadline-ms N] [--trace-sample N]
                         [--trace-slow-ms N] [--shard-id N]
                         [--fault-plan 'seed=42,delay=0.05:5,reset=0.02']
  predictddl-cli reload  [--addr 127.0.0.1:7077] [--version N] [--timeout-ms 5000]
  predictddl-cli observe [--addr 127.0.0.1:7077] --model <name> --dataset <name>
                         --servers <n> --actual-secs <secs> [--gpu|--cpu]
                         [--batch 128] [--epochs 10] [--timeout-ms 5000]
  predictddl-cli stats   [--addr 127.0.0.1:7077] [--timeout-ms 5000]
  predictddl-cli trace   [--addr 127.0.0.1:7077] [--timeout-ms 5000] [--json]
  predictddl-cli models
  predictddl-cli help | --help | -h
options:
  --registry       train: publish the trained system as a new checkpoint
                   version; serve: serve the newest verifiable version and
                   answer {\"op\":\"reload\"} with validated hot swaps
  --label          train: operator label stamped into the version manifest
  --retain         registry retention width: keep the newest N versions plus
                   pinned/live ones (default 4; 0 keeps everything)
  --watch-registry serve: poll the registry every <ms> and hot-swap to new
                   versions automatically (requires --registry)
  --version        reload: target version (default: the registry's latest)
  --actual-secs    observe: the measured wall-clock training time being fed
                   back into the controller's drift detector
  --workers        serve: worker threads in the request pool (default: cores)
  --queue-depth    serve: admission queue slots before load shedding (256)
  --max-conns      serve: simultaneous connection cap (1024)
  --deadline-ms    serve: queue-wait deadline before a request is expired (5000)
  --trace-sample   serve: trace 1-in-N headerless requests (0 disables, 1 all)
  --trace-slow-ms  serve: retain any trace slower than N ms (0 = off)
  --shard-id       serve: echo this shard id in stats/envelope replies
                   (set when the controller is one shard behind pddl-router)
  --json           trace: print the raw dump document instead of a waterfall
  --fault-plan     serve: inject deterministic wire faults (see the
                   pddl-faults crate and TESTING.md for the spec)
  PDDL_LOG=<spec>  structured JSON logs, e.g. PDDL_LOG=info,controller=debug";

/// Every subcommand with the flags it reads. Anything else on a command
/// line is refused before the command does any work, so a typo
/// (`--worker 8`) cannot silently fall back to a default; a unit test
/// holds [`USAGE`] to the same lists.
const COMMANDS: &[Command] = &[
    Command {
        name: "train",
        flags: &["out", "registry", "label", "datasets", "retain"],
        run: cmd_train,
    },
    Command {
        name: "predict",
        flags: &["system", "model", "dataset", "servers", "gpu", "cpu", "batch", "epochs"],
        run: cmd_predict,
    },
    Command {
        name: "serve",
        flags: &[
            "system",
            "registry",
            "addr",
            "watch-registry",
            "retain",
            "workers",
            "queue-depth",
            "max-conns",
            "deadline-ms",
            "trace-sample",
            "trace-slow-ms",
            "shard-id",
            "fault-plan",
        ],
        run: cmd_serve,
    },
    Command { name: "reload", flags: &["addr", "version", "timeout-ms"], run: cmd_reload },
    Command {
        name: "observe",
        flags: &[
            "addr",
            "model",
            "dataset",
            "servers",
            "actual-secs",
            "gpu",
            "cpu",
            "batch",
            "epochs",
            "timeout-ms",
        ],
        run: cmd_observe,
    },
    Command { name: "stats", flags: &["addr", "timeout-ms"], run: cmd_stats },
    Command { name: "trace", flags: &["addr", "timeout-ms", "json"], run: cmd_trace },
    Command { name: "models", flags: &[], run: cmd_models },
];

fn find_command(name: &str) -> Option<&'static Command> {
    COMMANDS.iter().find(|c| c.name == name)
}

fn required<'a>(flags: &'a Flags, key: &str) -> Result<&'a str, String> {
    flags
        .get(key)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{key}"))
}

/// Parses the `--retain` retention width (default 4).
fn retain_from_flags(flags: &Flags) -> Result<usize, String> {
    flags
        .get("retain")
        .map_or(Ok(4), |s| s.parse())
        .map_err(|_| "--retain must be an integer".to_string())
}

/// Opens (creating if needed) the checkpoint registry at `root`, printing
/// the recovery report when open() had to repair anything.
fn open_registry(root: &str, retain: usize) -> Result<Registry, String> {
    let (registry, report) = Registry::open(root, retain)
        .map_err(|e| format!("open registry {root}: {e}"))?;
    for (version, reason) in &report.quarantined {
        eprintln!("registry: quarantined unverifiable v{version} ({reason})");
    }
    if report.swept_tmp > 0 {
        eprintln!("registry: swept {} stray tempfile(s)", report.swept_tmp);
    }
    Ok(registry)
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let out = flags.get("out");
    let registry_root = flags.get("registry");
    if out.is_none() && registry_root.is_none() {
        return Err("train needs --out <file> and/or --registry <dir>".to_string());
    }
    let mut trainer = OfflineTrainer::default();
    if let Some(datasets) = flags.get("datasets") {
        let mut cfg = TraceConfig::default();
        cfg.dataset_clusters
            .retain(|(d, _)| datasets.split(',').any(|x| x.eq_ignore_ascii_case(d)));
        if cfg.dataset_clusters.is_empty() {
            return Err(format!("no known dataset in '{datasets}'"));
        }
        trainer.trace = cfg;
    }
    eprintln!("collecting trace and training (GHN + regressor); this takes minutes ...");
    let system = trainer.train_full();
    eprintln!(
        "trained: GHN {:.1}s, embeddings {:.1}s, fit {:.2}s",
        system.train_cost.ghn_secs, system.train_cost.embed_secs, system.train_cost.fit_secs
    );
    if let Some(out) = out {
        system.save(out).map_err(|e| e.to_string())?;
        eprintln!("saved system to {out}");
    }
    if let Some(root) = registry_root {
        let registry = open_registry(root, retain_from_flags(flags)?)?;
        let label = flags.get("label").map_or("train", |s| s.as_str());
        let version = save_checkpoint(&registry, &system, label).map_err(|e| e.to_string())?;
        eprintln!("published checkpoint v{version} to {root}");
        eprintln!("hot-swap a running controller with: predictddl-cli reload --version {version}");
    }
    Ok(())
}

fn cluster_from_flags(flags: &Flags) -> Result<ClusterState, String> {
    let servers: usize = required(flags, "servers")?
        .parse()
        .map_err(|_| "--servers must be an integer".to_string())?;
    let class = if flags.contains_key("cpu") {
        ServerClass::CpuE5_2630
    } else {
        ServerClass::GpuP100
    };
    Ok(ClusterState::homogeneous(class, servers))
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let system = PredictDdl::load(required(flags, "system")?).map_err(|e| e.to_string())?;
    let model = required(flags, "model")?;
    let dataset = required(flags, "dataset")?;
    let batch: usize = flags.get("batch").map_or(Ok(128), |s| s.parse()).map_err(|_| "--batch must be an integer")?;
    let epochs: usize = flags.get("epochs").map_or(Ok(10), |s| s.parse()).map_err(|_| "--epochs must be an integer")?;
    let cluster = cluster_from_flags(flags)?;
    let req = PredictionRequest::zoo(Workload::new(model, dataset, batch, epochs), cluster);
    let pred = system.predict(&req).map_err(|e| e.to_string())?;
    println!("predicted training time: {:.1} s", pred.seconds);
    if let Some((name, sim)) = pred.nearest_architecture {
        println!("closest known architecture: {name} (cosine {sim:.3})");
    }
    println!("inference latency: {:.3} ms", pred.inference_secs * 1e3);
    Ok(())
}

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").map_or("127.0.0.1:7077", |s| s.as_str());
    // A typo in the plan fails here, with the parser's message, before
    // anything is served.
    let fault_plan = flags.get("fault-plan").map(|spec| FaultPlan::parse(spec)).transpose()?;
    let mut config = ServeConfig { fault_plan, ..ServeConfig::default() };
    if let Some(v) = flags.get("workers") {
        config.workers = v.parse().map_err(|_| "--workers must be an integer")?;
    }
    if let Some(v) = flags.get("queue-depth") {
        config.queue_depth = v.parse().map_err(|_| "--queue-depth must be an integer")?;
    }
    if let Some(v) = flags.get("max-conns") {
        config.max_connections = v.parse().map_err(|_| "--max-conns must be an integer")?;
    }
    if let Some(v) = flags.get("deadline-ms") {
        let ms: u64 = v.parse().map_err(|_| "--deadline-ms must be an integer")?;
        config.request_deadline = Duration::from_millis(ms);
    }
    if let Some(v) = flags.get("trace-sample") {
        config.trace_sample = v.parse().map_err(|_| "--trace-sample must be an integer")?;
    }
    if let Some(v) = flags.get("trace-slow-ms") {
        config.trace_slow_ms = v.parse().map_err(|_| "--trace-slow-ms must be an integer")?;
    }
    if let Some(v) = flags.get("shard-id") {
        config.shard_id = Some(v.parse().map_err(|_| "--shard-id must be an integer")?);
    }
    // Resolve the initial system: from the checkpoint registry (newest
    // verifiable version; a --system file is published as the first
    // version when the registry is empty), or from a plain --system file.
    let mut watcher = None;
    let watcher_stop = Arc::new(AtomicBool::new(false));
    let controller = if let Some(root) = flags.get("registry") {
        let registry = open_registry(root, retain_from_flags(flags)?)?;
        let (system, version) = match registry.latest() {
            Some(v) => {
                let sys = load_checkpoint(&registry, v).map_err(|e| e.to_string())?;
                eprintln!("loaded checkpoint v{v} from {root}");
                (sys, v)
            }
            None => {
                let path = flags.get("system").ok_or_else(|| {
                    format!("registry {root} is empty; seed it with --system <file> or `train --registry`")
                })?;
                let sys = PredictDdl::load(path).map_err(|e| e.to_string())?;
                let v = save_checkpoint(&registry, &sys, "serve-seed")
                    .map_err(|e| e.to_string())?;
                eprintln!("seeded registry with {path} as v{v}");
                (sys, v)
            }
        };
        let live = Arc::new(LiveSystem::new(system, version));
        let manager = ReloadManager::new(registry, Arc::clone(&live));
        if let Some(ms) = flags.get("watch-registry") {
            let ms: u64 = ms
                .parse()
                .map_err(|_| "--watch-registry must be an interval in ms")?;
            watcher = Some(spawn_watcher(
                Arc::clone(&manager),
                Duration::from_millis(ms.max(1)),
                Arc::clone(&watcher_stop),
            ));
            eprintln!("watching registry for new versions every {ms} ms");
        }
        Controller::serve_live(addr, live, config, Some(manager)).map_err(|e| e.to_string())?
    } else {
        if flags.contains_key("watch-registry") {
            return Err("--watch-registry requires --registry".to_string());
        }
        let system = PredictDdl::load(required(flags, "system")?).map_err(|e| e.to_string())?;
        Controller::serve_with(addr, system, config).map_err(|e| e.to_string())?
    };
    println!(
        "PredictDDL controller listening on {} ({} workers, queue depth {}, \
         kernels {})",
        controller.addr(),
        config.workers.max(1),
        config.queue_depth.max(1),
        pddl_tensor::backend().name(),
    );
    println!(
        "protocol: one JSON PredictionRequest per line (a JSON array is a \
         pooled batch); {{\"op\":\"stats\"}}, {{\"op\":\"trace\"}} for \
         observability; {{\"op\":\"reload\"}} \
         for validated hot swaps; {{\"op\":\"observe\"}} to feed measured \
         runtimes back into drift detection; Ctrl-C to stop"
    );
    wait_for_shutdown();
    watcher_stop.store(true, Ordering::SeqCst);
    if let Some(handle) = watcher.take() {
        let _ = handle.join();
    }
    eprintln!(
        "shutting down after {} requests; final metrics snapshot:",
        controller.requests_served()
    );
    let snapshot = json::to_string(&pddl_telemetry::snapshot());
    eprintln!("{}", snapshot.expect("a snapshot always encodes"));
    // Graceful-drain trace dump: whatever the flight recorder retained
    // (shed / errored / slow traces) is the last chance to see it.
    let dump = pddl_telemetry::flight_recorder().dump();
    if !dump.retained.is_empty() || dump.suppressed > 0 {
        eprintln!("retained traces at drain:");
        eprintln!("{}", dump.to_line());
    }
    Ok(())
}

/// Shared connect logic for the commands that talk to a running
/// controller (`reload`, `observe`, `stats`, `trace`).
fn control_client(flags: &Flags) -> Result<ControllerClient, String> {
    let addr = flags.get("addr").map_or("127.0.0.1:7077", |s| s.as_str());
    let timeout_ms: u64 = flags
        .get("timeout-ms")
        .map_or(Ok(5000), |s| s.parse())
        .map_err(|_| "--timeout-ms must be an integer")?;
    let sock: std::net::SocketAddr = addr
        .parse()
        .map_err(|_| format!("--addr '{addr}' is not a socket address"))?;
    ControllerClient::connect_with_timeout(sock, Duration::from_millis(timeout_ms))
        .map_err(|e| format!("connect to {addr}: {e}"))
}

fn cmd_reload(flags: &Flags) -> Result<(), String> {
    let version = flags
        .get("version")
        .map(|v| v.parse::<u64>())
        .transpose()
        .map_err(|_| "--version must be an integer")?;
    let mut client = control_client(flags)?;
    match client.reload(version).map_err(|e| e.to_string())? {
        Ok(reply) if reply.version == reply.previous => {
            println!(
                "version {} already live (epoch {})",
                reply.version, reply.epoch
            );
            Ok(())
        }
        Ok(reply) => {
            println!(
                "reloaded: v{} now live (was v{}, epoch {})",
                reply.version, reply.previous, reply.epoch
            );
            Ok(())
        }
        Err(reason) => Err(format!(
            "reload rejected: {reason} (the previous model keeps serving)"
        )),
    }
}

fn cmd_observe(flags: &Flags) -> Result<(), String> {
    let model = required(flags, "model")?;
    let dataset = required(flags, "dataset")?;
    let batch: usize = flags.get("batch").map_or(Ok(128), |s| s.parse()).map_err(|_| "--batch must be an integer")?;
    let epochs: usize = flags.get("epochs").map_or(Ok(10), |s| s.parse()).map_err(|_| "--epochs must be an integer")?;
    let actual_secs: f64 = required(flags, "actual-secs")?
        .parse()
        .map_err(|_| "--actual-secs must be a number")?;
    let cluster = cluster_from_flags(flags)?;
    let req = PredictionRequest::zoo(Workload::new(model, dataset, batch, epochs), cluster);
    let mut client = control_client(flags)?;
    match client.observe(&req, actual_secs).map_err(|e| e.to_string())? {
        Ok(reply) => {
            println!(
                "observed: {} observation(s) total, residual z = {:+.2}{}",
                reply.observations,
                reply.residual_z,
                if reply.drifted { " — DRIFT detected, model refit" } else { "" },
            );
            if reply.drift_events > 0 && !reply.drifted {
                println!("{} drift event(s) fired so far", reply.drift_events);
            }
            Ok(())
        }
        Err(reason) => Err(format!("observation rejected: {reason}")),
    }
}

fn cmd_stats(flags: &Flags) -> Result<(), String> {
    let reply = control_client(flags)?.stats().map_err(|e| e.to_string())?;
    println!("{}", json::to_string(&reply.snapshot).expect("a snapshot always encodes"));
    Ok(())
}

fn cmd_trace(flags: &Flags) -> Result<(), String> {
    let dump = control_client(flags)?.trace_dump().map_err(|e| e.to_string())?;
    if flags.contains_key("json") {
        println!("{}", dump.to_line());
        return Ok(());
    }
    let suppressed = dump.suppressed;
    if dump.retained.is_empty() {
        println!("no retained traces ({suppressed} suppressed)");
        return Ok(());
    }
    print!("{}", pddl_telemetry::trace::render_waterfall(&dump.retained));
    println!(
        "{} retained trace(s), {} suppressed since last dump",
        dump.retained.len(),
        suppressed
    );
    Ok(())
}

fn cmd_models(_flags: &Flags) -> Result<(), String> {
    println!("model zoo ({} architectures):", pddl_zoo::model_names().len());
    for name in pddl_zoo::model_names() {
        println!("  {name}");
    }
    println!("datasets: cifar10, tiny-imagenet");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn command(name: &str) -> &'static Command {
        find_command(name).expect("known command")
    }

    fn parse(args: &[&str]) -> Result<Flags, String> {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn flags_of(args: &[&str]) -> Flags {
        parse(args).expect("a well-formed command line")
    }

    #[test]
    fn known_flags_pass_and_unknown_flags_name_the_offender() {
        let serve = command("serve");
        let ok = flags_of(&["--registry", "r", "--workers", "8", "--watch-registry", "500"]);
        assert_eq!(check_flags(serve, &ok), Ok(()));

        let typo = flags_of(&["--system", "s.json", "--worker", "8"]);
        assert_eq!(check_flags(serve, &typo), Err("unknown flag --worker for serve".to_string()));

        // A flag this build never had and one it used to have read the same.
        let removed = flags_of(&["--system", "s.json", "--precision", "f32"]);
        assert_eq!(
            check_flags(serve, &removed),
            Err("unknown flag --precision for serve".to_string())
        );

        // Accepted lists are per command, not global.
        assert!(check_flags(command("stats"), &flags_of(&["--workers", "8"])).is_err());
        assert!(check_flags(command("models"), &flags_of(&[])).is_ok());
    }

    #[test]
    fn stray_arguments_are_refused_by_name() {
        // A single dash is not a flag: it must not serve with the default.
        assert_eq!(parse(&["-workers", "8"]), Err("unexpected argument '-workers'".to_string()));
        assert_eq!(
            parse(&["--workers", "8", "16"]),
            Err("unexpected argument '16'".to_string())
        );
        assert_eq!(parse(&["r", "--gpu"]), Err("unexpected argument 'r'".to_string()));
        let flags = flags_of(&["--gpu", "--servers", "4", "--json"]);
        assert_eq!(flags["gpu"], "true");
        assert_eq!(flags["servers"], "4");
        assert_eq!(flags["json"], "true");
    }

    #[test]
    fn repeated_flags_are_refused_by_name() {
        let twice = parse(&["--workers", "8", "--workers", "16"]);
        assert_eq!(twice, Err("flag --workers given more than once".to_string()));
        let twice = parse(&["--gpu", "--servers", "4", "--gpu"]);
        assert_eq!(twice, Err("flag --gpu given more than once".to_string()));
    }

    /// The `--flag` tokens on `cmd`'s synopsis lines in [`USAGE`].
    fn usage_flags(cmd: &str) -> Vec<String> {
        let synopsis = USAGE.split("options:").next().expect("usage has a synopsis");
        let mut out = Vec::new();
        let mut inside = false;
        for line in synopsis.lines() {
            if let Some(rest) = line.trim_start().strip_prefix("predictddl-cli ") {
                inside = rest.split_whitespace().next() == Some(cmd);
            }
            if inside {
                for word in line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')) {
                    if let Some(flag) = word.strip_prefix("--") {
                        out.push(flag.to_string());
                    }
                }
            }
        }
        out
    }

    #[test]
    fn usage_synopsis_lists_exactly_the_accepted_flags() {
        for c in COMMANDS {
            let mut documented = usage_flags(c.name);
            documented.sort();
            let mut accepted: Vec<String> = c.flags.iter().map(|f| f.to_string()).collect();
            accepted.sort();
            assert_eq!(documented, accepted, "usage vs accepted flags for `{}`", c.name);
        }
    }
}
