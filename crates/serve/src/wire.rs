//! The wire format and the in-repo transport.
//!
//! Queries travel as **newline-delimited frames** whose payload is the
//! concrete syntax of [`nra_core::parser`] — the same parser-readable
//! [`Display`](std::fmt::Display) form every `Expr`/`Value` already
//! round-trips through (`parse(display(e)) == e`, property-tested in
//! `nra-core`). The concrete syntax contains neither `;` nor newlines,
//! so a frame is simply `;`-separated fields on one line:
//!
//! ```text
//! request   := TENANT ";" ID ";" EXPR ";" VALUE "\n"
//! response  := TENANT ";" ID ";" "ok" ";" BUDGET ";" VALUE "\n"
//!            | TENANT ";" ID ";" "rejected" ";" REASON "\n"
//!            | TENANT ";" ID ";" "failed" ";" DETAIL "\n"
//! shutdown  := "!shutdown" "\n"
//! ```
//!
//! `REASON`/`DETAIL` are free text (they may contain `;`), so they are
//! always the *last* field and decoded with a bounded split. Tenant
//! names must be non-empty and contain neither `;` nor newlines nor a
//! leading `!` (reserved for control frames).
//!
//! The transport is an in-repo **socketpair**: two [`Endpoint`]s joined
//! by a pair of `mpsc` byte-chunk channels (the offline counterpart of
//! a duplex socket — no tokio, per the workspace's no-external-deps
//! rule). Chunks are arbitrary byte slices; each receiver reassembles
//! them into `\n`-terminated lines, so frames survive any chunking the
//! sender (or a fuzzer) chooses — the framing layer is tested by
//! splitting encoded frames at random byte boundaries. Reassembly scans
//! each byte once, however finely a line is chunked, and the server
//! bounds its inbound lines at [`MAX_FRAME_BYTES`]. A chunk that arrives
//! with nothing pending becomes the buffer, and a line that fills the
//! buffer becomes its `String` in place, so a frame sent as one chunk
//! is neither copied nor re-encoded on the way in.

use nra_core::parser::{parse_expr, parse_value, ParseError};
use nra_core::{Expr, Value};
use std::fmt;
use std::io::BufRead;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};

/// The control frame that asks the server to drain and exit.
pub const SHUTDOWN_FRAME: &str = "!shutdown";

/// The longest inbound frame the server accepts, in bytes before the
/// newline. A longer line is discarded through its newline and surfaces
/// as [`WireError::FrameTooLong`]. Only the server's inbound direction
/// is bounded, so answers of any size still reach their clients.
pub const MAX_FRAME_BYTES: usize = 1 << 20;

/// How much of an over-long line is kept to salvage its tenant and id.
const HEAD_BYTES: usize = 256;

/// One parsed query submission.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Tenant the query is accounted to (validated: no `;`/newline).
    pub tenant: String,
    /// Client-chosen correlation id, echoed back on the response.
    pub id: u64,
    /// The NRA query, as parsed from the wire.
    pub query: Expr,
    /// The complex-object input the query is applied to.
    pub input: Value,
}

/// Everything a single inbound line can mean.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// A query submission.
    Request(Request),
    /// The shutdown control frame.
    Shutdown,
}

/// The server's verdict on one request, echoed with its correlation id.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// Tenant the original request was accounted to.
    pub tenant: String,
    /// Correlation id of the original request.
    pub id: u64,
    /// What happened.
    pub outcome: Outcome,
}

/// The three terminal states of an admitted-or-not request.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Admitted and evaluated within its declared budget.
    Ok {
        /// The space budget (§3 units) the job was admitted under.
        declared_budget: u64,
        /// The query result.
        value: Value,
    },
    /// Turned away at the door — by admission control (with the bound
    /// citation) or by an exhausted tenant byte budget.
    Rejected {
        /// Human-readable reason, citing the certified bound where one
        /// exists.
        reason: String,
    },
    /// Admitted but the evaluation itself erred (budget overrun,
    /// divergence cap, stuck term, worker panic).
    Failed {
        /// The `EvalError` rendering.
        detail: String,
    },
}

/// Wire-layer errors: invalid field, unparseable payload, or a closed
/// transport.
#[derive(Debug, Clone, PartialEq)]
pub enum WireError {
    /// Tenant failed validation (empty, contains `;`/newline, or starts
    /// with `!`).
    InvalidTenant(String),
    /// The line does not have the expected shape.
    Malformed(String),
    /// A payload field failed to parse as an expression or value.
    Parse(ParseError),
    /// An inbound line exceeded the receiver's cap and was discarded.
    FrameTooLong {
        /// The cap, in bytes.
        limit: usize,
        /// The line's leading `;`-fields that fit in its first few
        /// hundred bytes, cut after a separator so every field kept is
        /// whole — enough to name the tenant and id.
        head: String,
    },
    /// The peer hung up.
    Closed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::InvalidTenant(t) => write!(f, "invalid tenant name {t:?}"),
            WireError::Malformed(msg) => write!(f, "malformed frame: {msg}"),
            WireError::Parse(e) => write!(f, "payload parse error: {e}"),
            WireError::FrameTooLong { limit, .. } => write!(f, "frame longer than {limit} bytes"),
            WireError::Closed => write!(f, "transport closed"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<ParseError> for WireError {
    fn from(e: ParseError) -> Self {
        WireError::Parse(e)
    }
}

/// Validate a tenant name for the wire: non-empty, single-line, no
/// field separator, no control prefix.
pub fn validate_tenant(tenant: &str) -> Result<(), WireError> {
    if tenant.is_empty() || tenant.contains(';') || tenant.contains('\n') || tenant.starts_with('!')
    {
        return Err(WireError::InvalidTenant(tenant.to_string()));
    }
    Ok(())
}

fn validate_line(line: &str) -> Result<(), WireError> {
    if line.contains('\n') {
        return Err(WireError::Malformed(
            "frame payload contains a newline".to_string(),
        ));
    }
    Ok(())
}

/// Encode a request as one frame line (no trailing newline — the
/// transport adds it).
pub fn encode_request(req: &Request) -> Result<String, WireError> {
    validate_tenant(&req.tenant)?;
    let line = format!("{};{};{};{}", req.tenant, req.id, req.query, req.input);
    validate_line(&line)?;
    Ok(line)
}

/// Decode one inbound line into a [`Frame`].
pub fn decode_frame(line: &str) -> Result<Frame, WireError> {
    if line == SHUTDOWN_FRAME {
        return Ok(Frame::Shutdown);
    }
    let mut fields = line.splitn(4, ';');
    let tenant = fields
        .next()
        .ok_or_else(|| WireError::Malformed("empty frame".into()))?;
    validate_tenant(tenant)?;
    let id = fields
        .next()
        .ok_or_else(|| WireError::Malformed("missing id field".into()))?
        .trim()
        .parse::<u64>()
        .map_err(|e| WireError::Malformed(format!("bad id field: {e}")))?;
    let query = parse_expr(
        fields
            .next()
            .ok_or_else(|| WireError::Malformed("missing query field".into()))?,
    )?;
    let input = parse_value(
        fields
            .next()
            .ok_or_else(|| WireError::Malformed("missing input field".into()))?,
    )?;
    Ok(Frame::Request(Request {
        tenant: tenant.to_string(),
        id,
        query,
        input,
    }))
}

/// Encode a response as one frame line.
pub fn encode_response(resp: &Response) -> Result<String, WireError> {
    validate_tenant(&resp.tenant)?;
    let line = match &resp.outcome {
        Outcome::Ok {
            declared_budget,
            value,
        } => format!(
            "{};{};ok;{};{}",
            resp.tenant, resp.id, declared_budget, value
        ),
        Outcome::Rejected { reason } => {
            format!("{};{};rejected;{}", resp.tenant, resp.id, reason)
        }
        Outcome::Failed { detail } => {
            format!("{};{};failed;{}", resp.tenant, resp.id, detail)
        }
    };
    validate_line(&line)?;
    Ok(line)
}

/// Decode one response line.
pub fn decode_response(line: &str) -> Result<Response, WireError> {
    let mut fields = line.splitn(4, ';');
    let tenant = fields
        .next()
        .ok_or_else(|| WireError::Malformed("empty response".into()))?;
    validate_tenant(tenant)?;
    let id = fields
        .next()
        .ok_or_else(|| WireError::Malformed("missing id field".into()))?
        .parse::<u64>()
        .map_err(|e| WireError::Malformed(format!("bad id field: {e}")))?;
    let tag = fields
        .next()
        .ok_or_else(|| WireError::Malformed("missing outcome tag".into()))?;
    let rest = fields
        .next()
        .ok_or_else(|| WireError::Malformed("missing outcome payload".into()))?;
    let outcome = match tag {
        "ok" => {
            let (budget, value) = rest
                .split_once(';')
                .ok_or_else(|| WireError::Malformed("ok without value field".into()))?;
            Outcome::Ok {
                declared_budget: budget
                    .parse::<u64>()
                    .map_err(|e| WireError::Malformed(format!("bad budget field: {e}")))?,
                value: parse_value(value)?,
            }
        }
        "rejected" => Outcome::Rejected {
            reason: rest.to_string(),
        },
        "failed" => Outcome::Failed {
            detail: rest.to_string(),
        },
        other => {
            return Err(WireError::Malformed(format!(
                "unknown outcome tag {other:?}"
            )));
        }
    };
    Ok(Response {
        tenant: tenant.to_string(),
        id,
        outcome,
    })
}

// ---------------------------------------------------------------------------
// The byte-chunk transport
// ---------------------------------------------------------------------------

/// The sending half of one direction: accepts arbitrary byte chunks
/// (lines need not align with chunks). Cloneable, so many producer
/// threads can share one server inbox.
#[derive(Debug, Clone)]
pub struct LineSender {
    tx: Sender<Vec<u8>>,
}

impl LineSender {
    /// Send one complete frame line (the trailing `\n` is appended).
    pub fn send_line(&self, line: &str) -> Result<(), WireError> {
        validate_line(line)?;
        let mut bytes = line.as_bytes().to_vec();
        bytes.push(b'\n');
        self.send_bytes(bytes)
    }

    /// Send a raw byte chunk — lines may span chunks arbitrarily. This
    /// is the seam the framing fuzzer drives.
    pub fn send_bytes(&self, chunk: Vec<u8>) -> Result<(), WireError> {
        self.tx.send(chunk).map_err(|_| WireError::Closed)
    }
}

/// The receiving half of one direction: reassembles byte chunks into
/// `\n`-terminated lines, optionally bounding their length.
#[derive(Debug)]
pub struct LineReceiver {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    /// Leading bytes of `buf` already handed out as lines; dropped once
    /// per received chunk, so a chunk of k lines costs O(k) to split.
    consumed: usize,
    /// Bytes of the pending line (after `consumed`) already searched
    /// for a newline.
    scanned: usize,
    /// The line cap, if any ([`LineReceiver::set_max_line`]).
    max_line: Option<usize>,
    /// The head of the over-long line being discarded, if any.
    discarding: Option<String>,
}

impl LineReceiver {
    fn new(rx: Receiver<Vec<u8>>) -> Self {
        LineReceiver {
            rx,
            buf: Vec::new(),
            consumed: 0,
            scanned: 0,
            max_line: None,
            discarding: None,
        }
    }

    /// Bound every line this receiver yields at `max` bytes before the
    /// newline (`None`: unbounded, the default). A longer line is
    /// dropped through its newline and yields
    /// [`WireError::FrameTooLong`]; at most the cap plus one chunk of it
    /// is ever buffered.
    pub fn set_max_line(&mut self, max: Option<usize>) {
        self.max_line = max;
    }

    /// The next complete line in the buffer, searching only the bytes
    /// that arrived since the last search. A line that is the whole
    /// buffer takes the buffer; any other line is copied out and the
    /// consumed prefix grows past it. Its bytes become the `String`
    /// unless they are not UTF-8, when each invalid sequence is replaced
    /// by U+FFFD.
    fn pop_line(&mut self) -> Option<Result<String, WireError>> {
        let pending = &self.buf[self.consumed..];
        let Some(at) = find_newline(&pending[self.scanned..]) else {
            self.scanned = pending.len();
            if self.discarding.is_none() && self.max_line.is_some_and(|max| pending.len() > max) {
                self.discarding = Some(line_head(pending));
            }
            if self.discarding.is_some() {
                self.buf.clear();
                self.consumed = 0;
                self.scanned = 0;
            }
            return None;
        };
        let nl = self.consumed + self.scanned + at;
        self.scanned = 0;
        let line = if self.consumed == 0 && nl + 1 == self.buf.len() {
            let mut line = std::mem::take(&mut self.buf);
            line.pop();
            line
        } else {
            let line = self.buf[self.consumed..nl].to_vec();
            self.consumed = nl + 1;
            if self.consumed == self.buf.len() {
                self.buf.clear();
                self.consumed = 0;
            }
            line
        };
        let head = match self.discarding.take() {
            Some(head) => head,
            None if self.max_line.is_some_and(|max| line.len() > max) => line_head(&line),
            None => {
                return Some(Ok(String::from_utf8(line).unwrap_or_else(|invalid| {
                    String::from_utf8_lossy(invalid.as_bytes()).into_owned()
                })))
            }
        };
        Some(Err(WireError::FrameTooLong {
            limit: self.max_line.unwrap_or(usize::MAX),
            head,
        }))
    }

    /// Append a received chunk to the buffer, or make it the buffer when
    /// nothing is pending; either way the consumed prefix is dropped
    /// first, once per chunk.
    fn push_chunk(&mut self, chunk: Vec<u8>) {
        if self.buf.is_empty() {
            self.buf = chunk;
        } else {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
            self.buf.extend_from_slice(&chunk);
        }
    }

    /// Block until one complete line is available. `None` means the
    /// peer hung up (any trailing unterminated bytes are discarded —
    /// an incomplete frame is not a frame); `Some(Err(..))` is a line
    /// over the cap.
    pub fn recv_line(&mut self) -> Option<Result<String, WireError>> {
        loop {
            if let Some(line) = self.pop_line() {
                return Some(line);
            }
            match self.rx.recv() {
                Ok(chunk) => self.push_chunk(chunk),
                Err(_) => return None,
            }
        }
    }

    /// Non-blocking poll for one complete line. `Ok(None)` means no
    /// complete line is buffered right now; `Err(WireError::Closed)`
    /// means the peer hung up and nothing complete remains;
    /// `Err(WireError::FrameTooLong { .. })` is a line over the cap.
    pub fn try_recv_line(&mut self) -> Result<Option<String>, WireError> {
        loop {
            if let Some(line) = self.pop_line() {
                return line.map(Some);
            }
            match self.rx.try_recv() {
                Ok(chunk) => self.push_chunk(chunk),
                Err(TryRecvError::Empty) => return Ok(None),
                Err(TryRecvError::Disconnected) => return Err(WireError::Closed),
            }
        }
    }
}

/// The index of the first newline in `bytes`, found by the standard
/// library's word-at-a-time byte search rather than byte by byte.
fn find_newline(bytes: &[u8]) -> Option<usize> {
    let mut rest = bytes;
    let through = rest
        .skip_until(b'\n')
        .expect("reading a byte slice cannot fail");
    (bytes[..through].last() == Some(&b'\n')).then(|| through - 1)
}

/// The whole `;`-fields within the first [`HEAD_BYTES`] of a line.
fn line_head(line: &[u8]) -> String {
    let prefix = &line[..line.len().min(HEAD_BYTES)];
    let end = prefix.iter().rposition(|&b| b == b';').map_or(0, |i| i + 1);
    String::from_utf8_lossy(&prefix[..end]).into_owned()
}

/// One end of the duplex transport.
#[derive(Debug)]
pub struct Endpoint {
    /// Writes toward the peer.
    pub tx: LineSender,
    /// Reads from the peer.
    pub rx: LineReceiver,
}

/// An in-process duplex pipe: two connected [`Endpoint`]s, the offline
/// stand-in for a socketpair.
pub fn socketpair() -> (Endpoint, Endpoint) {
    let (a_tx, b_rx) = channel();
    let (b_tx, a_rx) = channel();
    (
        Endpoint {
            tx: LineSender { tx: a_tx },
            rx: LineReceiver::new(a_rx),
        },
        Endpoint {
            tx: LineSender { tx: b_tx },
            rx: LineReceiver::new(b_rx),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use nra_core::queries;

    #[test]
    fn request_frames_round_trip() {
        let req = Request {
            tenant: "acme".into(),
            id: 7,
            query: queries::tc_while(),
            input: Value::chain(4),
        };
        let line = encode_request(&req).unwrap();
        assert_eq!(decode_frame(&line).unwrap(), Frame::Request(req));
        assert_eq!(decode_frame(SHUTDOWN_FRAME).unwrap(), Frame::Shutdown);
    }

    #[test]
    fn responses_round_trip_with_free_text_reasons() {
        for outcome in [
            Outcome::Ok {
                declared_budget: 4096,
                value: Value::chain_tc(3),
            },
            Outcome::Rejected {
                reason: "certified exponential; see Theorem 4.1; bound 2^8".into(),
            },
            Outcome::Failed {
                detail: "space budget exceeded: required 512; budget 256".into(),
            },
        ] {
            let resp = Response {
                tenant: "acme".into(),
                id: 3,
                outcome,
            };
            let line = encode_response(&resp).unwrap();
            assert_eq!(decode_response(&line).unwrap(), resp);
        }
    }

    #[test]
    fn tenant_validation_rejects_separators_and_control_prefixes() {
        for bad in ["", "a;b", "a\nb", "!sneaky"] {
            assert!(validate_tenant(bad).is_err(), "{bad:?}");
        }
        assert!(validate_tenant("tenant-7_ok").is_ok());
    }

    #[test]
    fn lines_reassemble_across_arbitrary_chunk_boundaries() {
        let (client, mut server) = socketpair();
        let payload = b"alpha;1;id;{(0, 1)}\nbeta;2;";
        for byte in payload.iter() {
            client.tx.send_bytes(vec![*byte]).unwrap();
        }
        client.tx.send_bytes(b"fst;(1, 2)\n".to_vec()).unwrap();
        assert_eq!(
            server.rx.recv_line(),
            Some(Ok("alpha;1;id;{(0, 1)}".into()))
        );
        assert_eq!(server.rx.recv_line(), Some(Ok("beta;2;fst;(1, 2)".into())));
        drop(client);
        assert_eq!(server.rx.recv_line(), None, "hangup after the last frame");
    }

    #[test]
    fn over_long_lines_are_dropped_through_their_newline() {
        let (client, mut server) = socketpair();
        server.rx.set_max_line(Some(8));
        // at the cap, then over it within one chunk, then over it across
        // chunks: only the bounded heads survive, the next line is intact
        client
            .tx
            .send_bytes(b"a;1;2345\na;2;23456\nb;3;".to_vec())
            .unwrap();
        for chunk in ["4567", "89", "0\nc;4\n"] {
            client.tx.send_bytes(chunk.as_bytes().to_vec()).unwrap();
        }
        assert_eq!(server.rx.recv_line(), Some(Ok("a;1;2345".into())));
        for head in ["a;2;", "b;3;"] {
            assert_eq!(
                server.rx.recv_line(),
                Some(Err(WireError::FrameTooLong {
                    limit: 8,
                    head: head.into()
                }))
            );
        }
        assert_eq!(server.rx.try_recv_line(), Ok(Some("c;4".into())));
    }

    #[test]
    fn moved_chunks_reassemble_whole_several_and_continued_lines() {
        let (client, mut server) = socketpair();
        let send = |chunk: &[u8]| client.tx.send_bytes(chunk.to_vec()).unwrap();
        // one chunk holding exactly one line: the chunk becomes the line
        send(b"a;1;id;{}\n");
        assert_eq!(server.rx.recv_line(), Some(Ok("a;1;id;{}".into())));
        // several lines and a partial one in one moved chunk, the
        // partial one continued by the next two chunks
        send(b"b;2;id;1\nc;3;id;2\nd;4;");
        send(b"id;");
        send(b"(3, 4)\ne;5;");
        for line in ["b;2;id;1", "c;3;id;2", "d;4;id;(3, 4)"] {
            assert_eq!(server.rx.recv_line(), Some(Ok(line.into())));
        }
        assert_eq!(server.rx.try_recv_line(), Ok(None));
        send(b"id;5\n");
        assert_eq!(server.rx.try_recv_line(), Ok(Some("e;5;id;5".into())));
        // a line begun by a chunk that moved into the emptied buffer
        send(b"f;6;");
        send(b"id;6\n");
        assert_eq!(server.rx.recv_line(), Some(Ok("f;6;id;6".into())));
        // over the cap in a moved chunk: once with its newline, once
        // without, each dropped through its newline, the next line intact
        server.rx.set_max_line(Some(8));
        send(b"g;7;123456789\n");
        send(b"h;8;123456789");
        send(b"0\ni;9;id\n");
        for head in ["g;7;", "h;8;"] {
            assert_eq!(
                server.rx.recv_line(),
                Some(Err(WireError::FrameTooLong {
                    limit: 8,
                    head: head.into()
                }))
            );
        }
        assert_eq!(server.rx.recv_line(), Some(Ok("i;9;id".into())));
        drop(client);
        assert_eq!(server.rx.try_recv_line(), Err(WireError::Closed));
    }

    #[test]
    fn one_chunk_of_many_frames_yields_every_line_in_order() {
        let (client, mut server) = socketpair();
        let lines: Vec<String> = (0..1000).map(|i| format!("t;{i};id;{i}")).collect();
        // one chunk of many lines and a partial one, continued by a
        // chunk that lands on the part-consumed buffer
        let mut chunk = lines.join("\n").into_bytes();
        chunk.extend_from_slice(b"\nlast;1");
        client.tx.send_bytes(chunk).unwrap();
        client.tx.send_bytes(b"000;id;0\n".to_vec()).unwrap();
        for line in &lines {
            assert_eq!(server.rx.recv_line(), Some(Ok(line.clone())));
        }
        assert_eq!(server.rx.recv_line(), Some(Ok("last;1000;id;0".into())));
        assert_eq!(server.rx.try_recv_line(), Ok(None));
    }

    #[test]
    fn invalid_utf8_is_replaced_as_from_utf8_lossy_replaces_it() {
        let (client, mut server) = socketpair();
        // a valid three-byte character split across two chunks is whole
        client.tx.send_bytes(b"a;1;\xE2\x82".to_vec()).unwrap();
        client.tx.send_bytes(b"\xAC\n".to_vec()).unwrap();
        assert_eq!(server.rx.recv_line(), Some(Ok("a;1;\u{20AC}".into())));
        // a truncated sequence, a stray continuation byte and an overlong
        // encoding, in one chunk and split across chunks mid-sequence
        let cases: [(&[&[u8]], &str); 3] = [
            (
                &[b"b;2;\xE2\x82;\x80;\xC0\xAF\n"],
                "b;2;\u{FFFD};\u{FFFD};\u{FFFD}\u{FFFD}",
            ),
            (&[b"c;3;\xF0\x9F", b"\x98;\n"], "c;3;\u{FFFD};"),
            (
                &[b"d;4;\xF0", b"\x9F\x98\x80\xFF\n"],
                "d;4;\u{1F600}\u{FFFD}",
            ),
        ];
        for (chunks, expected) in cases {
            for chunk in chunks {
                client.tx.send_bytes(chunk.to_vec()).unwrap();
            }
            let bytes = chunks.concat();
            let lossy = String::from_utf8_lossy(&bytes[..bytes.len() - 1]);
            assert_eq!(lossy, expected);
            assert_eq!(server.rx.recv_line(), Some(Ok(expected.into())));
        }
    }
}
