//! A served connection costs the server one descriptor, so the
//! descriptor limit is not reached before the connection cap. Own file —
//! its own process — so no neighbouring test opens sockets while this one
//! counts `/proc/self/fd`.
#![cfg(target_os = "linux")]

use pddl_cluster::wire::{Flow, Handler, LineConn, Listener, Writer};
use std::net::SocketAddr;
use std::time::Duration;

/// Answers every frame with itself.
struct Echo;

impl Handler for Echo {
    type Conn = ();

    fn open(&self, _local: SocketAddr) {}

    fn frame(&self, _conn: &mut (), line: String, out: &Writer) -> std::io::Result<Flow> {
        out.send(&line)?;
        Ok(Flow::Continue)
    }

    fn connection_limit_line(&self) -> String {
        "limit".into()
    }

    fn frame_too_long_line(&self, limit: usize) -> String {
        format!("too long: {limit}")
    }
}

fn open_descriptors() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("/proc/self/fd")
        .count()
}

#[test]
fn a_connection_costs_one_descriptor_on_each_side() {
    const CONNS: usize = 64;
    let server = Listener::serve("127.0.0.1:0", 1024, "fdtest", None, Echo).expect("bind");
    let before = open_descriptors();
    let conns: Vec<LineConn> = (0..CONNS)
        .map(|_| {
            let mut conn = LineConn::connect(server.addr(), None, Some(Duration::from_secs(5)))
                .expect("connect");
            // The reply proves this connection's reader is up and holds
            // every descriptor it will ever hold.
            assert_eq!(conn.exchange("x").expect("echo"), "x");
            conn
        })
        .collect();
    assert_eq!(
        pddl_telemetry::gauge("fdtest.active_connections").get(),
        CONNS as i64
    );
    assert_eq!(
        open_descriptors() - before,
        2 * CONNS,
        "{CONNS} connections: one client and one server descriptor each"
    );
    drop(conns);
}
