//! `pddl-router` command-line interface.
//!
//! ```text
//! pddl-router serve   --shards 127.0.0.1:7077,127.0.0.1:7078
//!                     [--addr 127.0.0.1:7070] [--vnodes 64]
//!                     [--probe-ms 500] [--max-conns 1024]
//! pddl-router inspect [--addr 127.0.0.1:7070] [--timeout-ms 5000]
//! ```
//!
//! `serve` fronts a fleet of controller shards (start them with
//! `predictddl-cli serve --shard-id N`); `inspect` prints a running
//! router's route table. Set `PDDL_LOG` (e.g. `PDDL_LOG=info,router=debug`)
//! for structured JSON logs on stderr; see `OPERATIONS.md` for the full
//! fleet runbook.

use pddl_cluster::wire::LineConn;
use pddl_router::{Router, RouterConfig};
use predictddl::cli::{check_flags, parse_flags, wait_for_shutdown, Command, Flags};
use predictddl::RouteTable;
use std::net::SocketAddr;
use std::process::ExitCode;
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
    let Some(command) = COMMANDS.iter().find(|c| c.name == cmd) else {
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
  pddl-router serve   --shards <addr,addr,...> [--addr 127.0.0.1:7070]
                      [--vnodes 64] [--probe-ms 500] [--max-conns 1024]
  pddl-router inspect [--addr 127.0.0.1:7070] [--timeout-ms 5000]
  pddl-router help | --help | -h
options:
  --shards       comma-separated controller shard addresses (required)
  --addr         serve: listen address; inspect: router to query
  --vnodes       virtual nodes per shard on the hash ring (64)
  --probe-ms     health-probe interval in milliseconds (500)
  --max-conns    simultaneous client connection cap (1024)
  --timeout-ms   inspect: connect/read timeout (5000)
  PDDL_LOG=<spec>  structured JSON logs, e.g. PDDL_LOG=info,router=debug";

/// Every subcommand with the flags it reads; anything else on a command
/// line is refused by name before the command does any work.
const COMMANDS: &[Command] = &[
    Command {
        name: "serve",
        flags: &["shards", "addr", "vnodes", "probe-ms", "max-conns"],
        run: cmd_serve,
    },
    Command { name: "inspect", flags: &["addr", "timeout-ms"], run: cmd_inspect },
];

fn cmd_serve(flags: &Flags) -> Result<(), String> {
    let shards_raw = flags
        .get("shards")
        .ok_or_else(|| "missing required flag --shards".to_string())?;
    let shards: Vec<SocketAddr> = shards_raw
        .split(',')
        .map(|s| {
            s.trim()
                .parse()
                .map_err(|_| format!("--shards entry '{s}' is not a socket address"))
        })
        .collect::<Result<_, _>>()?;
    if shards.is_empty() {
        return Err("--shards must list at least one controller address".to_string());
    }
    let addr = flags.get("addr").map_or("127.0.0.1:7070", |s| s.as_str());
    let mut config = RouterConfig::default();
    if let Some(v) = flags.get("vnodes") {
        config.vnodes = v.parse().map_err(|_| "--vnodes must be an integer")?;
    }
    if let Some(v) = flags.get("probe-ms") {
        let ms: u64 = v.parse().map_err(|_| "--probe-ms must be an integer")?;
        config.probe_interval = Duration::from_millis(ms.max(1));
    }
    if let Some(v) = flags.get("max-conns") {
        config.max_connections = v.parse().map_err(|_| "--max-conns must be an integer")?;
    }
    let router = Router::serve(addr, &shards, config).map_err(|e| e.to_string())?;
    println!(
        "pddl-router listening on {} fronting {} shard(s), {} vnodes each",
        router.addr(),
        shards.len(),
        config.vnodes.max(1),
    );
    println!(
        "protocol: same line-delimited JSON as a controller; \
         {{\"op\":\"route_table\"}} for the live fleet map; Ctrl-C to stop"
    );
    wait_for_shutdown();
    let table = router.table();
    eprintln!(
        "shutting down at membership epoch {} ({} healthy of {} shards); final metrics snapshot:",
        table.epoch,
        table.shards.iter().filter(|s| s.healthy).count(),
        table.shards.len(),
    );
    let snapshot = pddl_telemetry::json::to_string(&pddl_telemetry::snapshot());
    eprintln!("{}", snapshot.expect("a snapshot always encodes"));
    Ok(())
}

fn cmd_inspect(flags: &Flags) -> Result<(), String> {
    let addr = flags.get("addr").map_or("127.0.0.1:7070", |s| s.as_str());
    let timeout_ms: u64 = flags
        .get("timeout-ms")
        .map_or(Ok(5000), |s| s.parse())
        .map_err(|_| "--timeout-ms must be an integer")?;
    let sock: SocketAddr = addr
        .parse()
        .map_err(|_| format!("--addr '{addr}' is not a socket address"))?;
    let timeout = Duration::from_millis(timeout_ms.max(1));
    let line = LineConn::connect(sock, Some(timeout), Some(timeout))
        .map_err(|e| format!("connect to {addr}: {e}"))?
        .exchange("{\"op\":\"route_table\"}")
        .map_err(|e| e.to_string())?;
    let table = RouteTable::from_line(&line)?;
    println!("route table at {addr}: epoch {}, {} vnodes/shard", table.epoch, table.vnodes);
    if let Some(sid) = table.shard {
        println!("  (answered by shard {sid} directly — identity table)");
    }
    for s in &table.shards {
        let state = if s.healthy { "healthy" } else { "DEAD" };
        println!("  shard {:>3}  {:<21}  {}", s.id, s.addr, state);
    }
    Ok(())
}
