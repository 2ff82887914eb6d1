//! Wire protocol of the Cluster Resource Collector: newline-delimited JSON.

use crate::spec::ServerSpec;
use crate::wire::write_line;
use pddl_telemetry::json::{self, FromJson, JsonError, JsonValue, JsonWriter, ToJson};
use std::io::{BufRead, Write};

/// Client → server messages: one object, tagged by `"type"`.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMsg {
    /// First message after connecting: "every new server that joins the
    /// cluster notifies the Cluster Resource Collector with details about
    /// the underlying system and hardware resources" (§III-F).
    Register { spec: ServerSpec },
    /// Periodic load report.
    Heartbeat { hostname: String, cpu_util: f64, gpus_busy: usize },
    /// Graceful departure.
    Leave { hostname: String },
}

impl ToJson for ClientMsg {
    fn write_json(&self, w: &mut JsonWriter) {
        let o = w.object();
        match self {
            ClientMsg::Register { spec } => o.field("type", "register").field("spec", spec),
            ClientMsg::Heartbeat { hostname, cpu_util, gpus_busy } => o
                .field("type", "heartbeat")
                .field("hostname", hostname)
                .field("cpu_util", cpu_util)
                .field("gpus_busy", gpus_busy),
            ClientMsg::Leave { hostname } => o.field("type", "leave").field("hostname", hostname),
        }
        .end();
    }
}

impl FromJson for ClientMsg {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        match o.field::<String>("type")?.as_str() {
            "register" => Ok(ClientMsg::Register { spec: o.field("spec")? }),
            "heartbeat" => Ok(ClientMsg::Heartbeat {
                hostname: o.field("hostname")?,
                cpu_util: o.field("cpu_util")?,
                gpus_busy: o.field("gpus_busy")?,
            }),
            "leave" => Ok(ClientMsg::Leave { hostname: o.field("hostname")? }),
            other => Err(JsonError::unknown_variant(other)),
        }
    }
}

/// Server → client messages: one object, tagged by `"type"`.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMsg {
    /// Registration accepted.
    Ack,
    /// Malformed or out-of-order message.
    Error { reason: String },
}

impl ToJson for ServerMsg {
    fn write_json(&self, w: &mut JsonWriter) {
        let o = w.object();
        match self {
            ServerMsg::Ack => o.field("type", "ack"),
            ServerMsg::Error { reason } => o.field("type", "error").field("reason", reason),
        }
        .end();
    }
}

impl FromJson for ServerMsg {
    fn read_json(v: &JsonValue) -> Result<Self, JsonError> {
        let o = v.fields()?;
        match o.field::<String>("type")?.as_str() {
            "ack" => Ok(ServerMsg::Ack),
            "error" => Ok(ServerMsg::Error { reason: o.field("reason")? }),
            other => Err(JsonError::unknown_variant(other)),
        }
    }
}

/// Upper bound on a single wire frame (one JSON line), applied by
/// [`read_msg`]. A peer that never sends a newline can buffer at most this
/// much before the read fails with [`WireError::FrameTooLong`].
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// Structured wire-layer failures, replacing bare `io::Error`s so callers
/// can tell a hostile frame from a dead transport.
#[derive(Debug)]
pub enum WireError {
    /// The frame exceeded the length bound before a newline was seen. The
    /// connection is no longer line-synchronized and should be closed.
    FrameTooLong {
        /// The bound that was exceeded.
        limit: usize,
    },
    /// The frame was complete but not valid JSON for the expected type.
    /// The stream is still line-synchronized; reading may continue.
    Malformed {
        /// Parser diagnostic.
        detail: String,
    },
    /// The underlying transport failed.
    Io(std::io::Error),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::FrameTooLong { limit } => {
                write!(f, "wire frame exceeds {limit} bytes without a newline")
            }
            WireError::Malformed { detail } => write!(f, "malformed wire frame: {detail}"),
            WireError::Io(e) => write!(f, "wire transport error: {e}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<WireError> for std::io::Error {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => io,
            other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}

/// Writes one message as a JSON line (one frame, one write: see
/// [`write_line`]).
pub fn write_msg<T: ToJson>(w: &mut impl Write, msg: &T) -> std::io::Result<()> {
    write_line(w, &json::to_string(msg)?)
}

/// A complete frame as text. A frame that is not UTF-8 cannot be JSON: it
/// becomes the one-character line U+FFFD, which every parser rejects, so
/// corruption still surfaces as a (malformed) frame rather than killing
/// the connection — and, unlike a lossy decode (three bytes out per bad
/// byte in), the line a parser sees never outgrows the frame bound.
fn frame_text(frame: Vec<u8>) -> String {
    String::from_utf8(frame).unwrap_or_else(|_| char::REPLACEMENT_CHARACTER.to_string())
}

/// Reads one newline-terminated line of at most `limit` bytes (exclusive of
/// the newline). `Ok(None)` on clean EOF; a final unterminated line is
/// returned as-is, matching `read_line`. A frame that is not UTF-8 comes
/// back as the one-character line U+FFFD — malformed to every parser, and
/// never longer than the bytes read.
pub fn read_line_bounded(
    r: &mut impl BufRead,
    limit: usize,
) -> Result<Option<String>, WireError> {
    let mut frame: Vec<u8> = Vec::new();
    loop {
        let chunk = r.fill_buf().map_err(WireError::Io)?;
        if chunk.is_empty() {
            return Ok((!frame.is_empty()).then(|| frame_text(frame)));
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(pos) => {
                if frame.len().saturating_add(pos) > limit {
                    return Err(WireError::FrameTooLong { limit });
                }
                frame.extend_from_slice(&chunk[..pos]);
                r.consume(pos + 1);
                return Ok(Some(frame_text(frame)));
            }
            None => {
                let n = chunk.len();
                if frame.len().saturating_add(n) > limit {
                    return Err(WireError::FrameTooLong { limit });
                }
                frame.extend_from_slice(chunk);
                r.consume(n);
            }
        }
    }
}

/// One step of a [`LineReader`] poll.
#[derive(Debug, PartialEq, Eq)]
pub enum LinePoll {
    /// A complete newline-terminated line (newline stripped), or a final
    /// unterminated line at EOF.
    Line(String),
    /// Clean EOF with no buffered bytes.
    Eof,
    /// The read would block (`WouldBlock` / `TimedOut` with no complete
    /// line yet). Partial bytes stay buffered; call [`LineReader::poll`]
    /// again.
    Pending,
}

/// A resumable bounded line reader for sockets with read timeouts.
///
/// [`read_line_bounded`] accumulates the partial frame in a local buffer,
/// so a `WouldBlock`/`TimedOut` from the transport *loses* any bytes read
/// so far — fatal on a socket with `set_read_timeout`, where timeouts are
/// routine (the serving core's reader threads use them to poll the
/// shutdown flag). `LineReader` keeps the partial frame across polls: a
/// timed-out read returns [`LinePoll::Pending`] and the next poll resumes
/// where it left off. The same `limit` bound applies — a peer that never
/// sends a newline fails with [`WireError::FrameTooLong`].
#[derive(Debug)]
pub struct LineReader {
    buf: Vec<u8>,
    limit: usize,
}

impl LineReader {
    /// A reader that bounds each line at `limit` bytes (newline excluded).
    pub fn bounded(limit: usize) -> Self {
        Self { buf: Vec::new(), limit }
    }

    /// Attempts to complete one line from `r`. Interruptions
    /// (`WouldBlock`, `TimedOut`, `Interrupted`) yield [`LinePoll::Pending`]
    /// with the partial frame retained; other I/O errors are fatal.
    pub fn poll(&mut self, r: &mut impl BufRead) -> Result<LinePoll, WireError> {
        loop {
            let chunk = match r.fill_buf() {
                Ok(c) => c,
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    return Ok(LinePoll::Pending);
                }
                Err(e) => return Err(WireError::Io(e)),
            };
            if chunk.is_empty() {
                return Ok(if self.buf.is_empty() {
                    LinePoll::Eof
                } else {
                    LinePoll::Line(frame_text(std::mem::take(&mut self.buf)))
                });
            }
            match chunk.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    if self.buf.len().saturating_add(pos) > self.limit {
                        return Err(WireError::FrameTooLong { limit: self.limit });
                    }
                    self.buf.extend_from_slice(&chunk[..pos]);
                    r.consume(pos + 1);
                    return Ok(LinePoll::Line(frame_text(std::mem::take(&mut self.buf))));
                }
                None => {
                    let n = chunk.len();
                    if self.buf.len().saturating_add(n) > self.limit {
                        return Err(WireError::FrameTooLong { limit: self.limit });
                    }
                    self.buf.extend_from_slice(chunk);
                    r.consume(n);
                }
            }
        }
    }
}

/// Reads one JSON-line message of at most `limit` bytes; `Ok(None)` on
/// clean EOF, [`WireError::Malformed`] on a complete-but-unparseable frame.
pub fn read_msg_bounded<T: FromJson>(
    r: &mut impl BufRead,
    limit: usize,
) -> Result<Option<T>, WireError> {
    let Some(line) = read_line_bounded(r, limit)? else {
        return Ok(None);
    };
    json::from_str(line.trim_end())
        .map(Some)
        .map_err(|e| WireError::Malformed { detail: e.to_string() })
}

/// Reads one JSON-line message bounded at [`MAX_FRAME_BYTES`]; `Ok(None)`
/// on clean EOF. Malformed and over-long frames surface as
/// `InvalidData` `io::Error`s (see [`read_msg_bounded`] for the structured
/// form).
pub fn read_msg<T: FromJson>(r: &mut impl BufRead) -> std::io::Result<Option<T>> {
    read_msg_bounded(r, MAX_FRAME_BYTES).map_err(std::io::Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{ServerClass, ServerSpec};
    use std::io::{BufReader, Cursor};

    #[test]
    fn round_trip_register() {
        let msg = ClientMsg::Register {
            spec: ServerSpec::preset(ServerClass::CpuE5_2650, "n0"),
        };
        let mut buf = Vec::new();
        write_msg(&mut buf, &msg).unwrap();
        let mut r = BufReader::new(Cursor::new(buf));
        let got: ClientMsg = read_msg(&mut r).unwrap().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn every_message_round_trips_with_its_type_tag() {
        let spec = ServerSpec::preset(ServerClass::GpuP100, "n1");
        let client = [
            (ClientMsg::Register { spec }, r#"{"type":"register","spec":{"class":"GpuP100","#),
            (
                ClientMsg::Heartbeat { hostname: "n1".into(), cpu_util: 0.25, gpus_busy: 1 },
                r#"{"type":"heartbeat","hostname":"n1","cpu_util":0.25,"gpus_busy":1}"#,
            ),
            (ClientMsg::Leave { hostname: "n1".into() }, r#"{"type":"leave","hostname":"n1"}"#),
        ];
        for (msg, prefix) in client {
            let line = json::to_string(&msg).unwrap();
            assert!(line.starts_with(prefix), "{line}");
            assert_eq!(json::from_str::<ClientMsg>(&line).unwrap(), msg);
        }
        let server = [
            (ServerMsg::Ack, r#"{"type":"ack"}"#),
            (ServerMsg::Error { reason: "a\tb".into() }, r#"{"type":"error","reason":"a\tb"}"#),
        ];
        for (msg, line) in server {
            assert_eq!(json::to_string(&msg).unwrap(), line);
            assert_eq!(json::from_str::<ServerMsg>(line).unwrap(), msg);
        }
        // A heartbeat load figure that is not a number cannot be sent.
        let nan = ClientMsg::Heartbeat { hostname: "n1".into(), cpu_util: f64::NAN, gpus_busy: 0 };
        assert!(write_msg(&mut Vec::new(), &nan).is_err());
    }

    #[test]
    fn eof_is_none() {
        let mut r = BufReader::new(Cursor::new(Vec::<u8>::new()));
        let got: Option<ClientMsg> = read_msg(&mut r).unwrap();
        assert!(got.is_none());
    }

    #[test]
    fn malformed_line_is_error() {
        let mut r = BufReader::new(Cursor::new(b"not json\n".to_vec()));
        let got: std::io::Result<Option<ClientMsg>> = read_msg(&mut r);
        assert!(got.is_err());
    }

    #[test]
    fn overlong_frame_rejected_with_structured_error() {
        // A "peer" that drips bytes without ever sending a newline must be
        // cut off at the bound, not buffered indefinitely.
        let bytes = vec![b'x'; 4096];
        let mut r = BufReader::with_capacity(64, Cursor::new(bytes));
        let got = read_msg_bounded::<ClientMsg>(&mut r, 1024);
        assert!(matches!(got, Err(WireError::FrameTooLong { limit: 1024 })));
    }

    #[test]
    fn frame_at_limit_is_accepted() {
        let mut line = vec![b'"'; 1];
        line.extend_from_slice(&[b'a'; 8]);
        line.push(b'"');
        line.push(b'\n');
        let limit = line.len() - 1;
        let mut r = BufReader::new(Cursor::new(line));
        let got: Option<String> = read_msg_bounded(&mut r, limit).expect("within bound");
        assert_eq!(got.as_deref(), Some("aaaaaaaa"));
    }

    #[test]
    fn malformed_frame_keeps_stream_synchronized() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"{\"type\":\"nonsense\"}\n");
        write_msg(&mut buf, &ClientMsg::Leave { hostname: "a".into() }).unwrap();
        let mut r = BufReader::new(Cursor::new(buf));
        let first = read_msg_bounded::<ClientMsg>(&mut r, MAX_FRAME_BYTES);
        assert!(matches!(first, Err(WireError::Malformed { .. })));
        // The malformed line was consumed; the next frame parses fine.
        let second: ClientMsg = read_msg(&mut r).unwrap().unwrap();
        assert!(matches!(second, ClientMsg::Leave { .. }));
    }

    #[test]
    fn non_utf8_frame_never_outgrows_the_bound() {
        // Lossy decoding would hand the parser 3x the wire bytes.
        let mut bytes = vec![0xffu8; 600];
        bytes.push(b'\n');
        bytes.extend_from_slice(&[0xfe; 600]);
        let mut r = BufReader::with_capacity(64, Cursor::new(bytes.clone()));
        for _ in 0..2 {
            let line = read_line_bounded(&mut r, 1024).unwrap().expect("a frame");
            assert_eq!(line, "\u{fffd}");
        }
        assert!(read_line_bounded(&mut r, 1024).unwrap().is_none());
        let mut r = BufReader::with_capacity(64, Cursor::new(bytes));
        let mut lr = LineReader::bounded(1024);
        for _ in 0..2 {
            assert_eq!(lr.poll(&mut r).unwrap(), LinePoll::Line("\u{fffd}".into()));
        }
        assert_eq!(lr.poll(&mut r).unwrap(), LinePoll::Eof);
    }

    #[test]
    fn invalid_utf8_is_malformed_not_fatal() {
        let mut r = BufReader::new(Cursor::new(b"\xff\xfe\xfd\n".to_vec()));
        let got = read_msg_bounded::<ClientMsg>(&mut r, MAX_FRAME_BYTES);
        assert!(matches!(got, Err(WireError::Malformed { .. })));
        let eof: Option<ClientMsg> = read_msg(&mut r).unwrap();
        assert!(eof.is_none());
    }

    /// A reader that injects `WouldBlock` between every real chunk,
    /// imitating a socket with a read timeout that keeps firing mid-frame.
    struct Choppy {
        data: Vec<u8>,
        pos: usize,
        chunk: usize,
        serve_next: bool,
        buffered: usize,
    }

    impl std::io::Read for Choppy {
        fn read(&mut self, _buf: &mut [u8]) -> std::io::Result<usize> {
            unreachable!("BufRead path only")
        }
    }

    impl BufRead for Choppy {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            if self.buffered == 0 {
                if !self.serve_next {
                    self.serve_next = true;
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WouldBlock,
                        "simulated timeout",
                    ));
                }
                self.serve_next = false;
                self.buffered = self.chunk.min(self.data.len() - self.pos);
            }
            Ok(&self.data[self.pos..self.pos + self.buffered])
        }

        fn consume(&mut self, amt: usize) {
            self.pos += amt;
            self.buffered -= amt;
        }
    }

    #[test]
    fn line_reader_survives_wouldblock_mid_frame() {
        // read_line_bounded would lose the partial frame at each timeout;
        // LineReader must hand back the exact same lines as an untimed read.
        let mut r = Choppy {
            data: b"hello world\nsecond line\n".to_vec(),
            pos: 0,
            chunk: 4,
            serve_next: false,
            buffered: 0,
        };
        let mut lr = LineReader::bounded(1024);
        let mut lines = Vec::new();
        loop {
            match lr.poll(&mut r).expect("no fatal error") {
                LinePoll::Line(l) => lines.push(l),
                LinePoll::Eof => break,
                LinePoll::Pending => continue,
            }
        }
        assert_eq!(lines, vec!["hello world".to_string(), "second line".to_string()]);
    }

    #[test]
    fn line_reader_enforces_limit_across_polls() {
        let mut r = Choppy {
            data: vec![b'x'; 256],
            pos: 0,
            chunk: 16,
            serve_next: false,
            buffered: 0,
        };
        let mut lr = LineReader::bounded(64);
        let err = loop {
            match lr.poll(&mut r) {
                Ok(LinePoll::Pending) => continue,
                Ok(other) => panic!("expected FrameTooLong, got {other:?}"),
                Err(e) => break e,
            }
        };
        assert!(matches!(err, WireError::FrameTooLong { limit: 64 }));
    }

    #[test]
    fn line_reader_final_unterminated_line_at_eof() {
        let mut r = BufReader::new(Cursor::new(b"tail without newline".to_vec()));
        let mut lr = LineReader::bounded(1024);
        assert_eq!(
            lr.poll(&mut r).unwrap(),
            LinePoll::Line("tail without newline".into())
        );
        assert_eq!(lr.poll(&mut r).unwrap(), LinePoll::Eof);
    }

    #[test]
    fn multiple_messages_stream() {
        let mut buf = Vec::new();
        write_msg(&mut buf, &ClientMsg::Heartbeat { hostname: "a".into(), cpu_util: 0.5, gpus_busy: 0 }).unwrap();
        write_msg(&mut buf, &ClientMsg::Leave { hostname: "a".into() }).unwrap();
        let mut r = BufReader::new(Cursor::new(buf));
        let m1: ClientMsg = read_msg(&mut r).unwrap().unwrap();
        let m2: ClientMsg = read_msg(&mut r).unwrap().unwrap();
        assert!(matches!(m1, ClientMsg::Heartbeat { .. }));
        assert!(matches!(m2, ClientMsg::Leave { .. }));
    }
}
