//! Seeded round-trip fuzz for the wire format, framing layer included.
//!
//! Three layers, each `parse ∘ display = id`:
//!
//! 1. **Payload syntax** — type-directed random expressions
//!    ([`nra_core::generate`], well-typed by construction, powerset and
//!    `while` included) and structurally random values must survive
//!    `parse_expr(format!("{e}"))` / `parse_value(format!("{v}"))`
//!    exactly. This is the property the frame grammar leans on: the
//!    concrete syntax contains neither `;` nor newlines.
//! 2. **Frame grammar** — random requests and responses (free-text
//!    reasons salted with `;`, the field separator) must survive
//!    `decode(encode(x))` exactly.
//! 3. **Framing/transport** — whole batches of encoded frames,
//!    concatenated and re-chunked at *random byte boundaries* (chunks
//!    spanning frame ends, splitting UTF-8-safe ASCII frames anywhere),
//!    must reassemble into exactly the original frame sequence on the
//!    receiving [`LineReceiver`].
//! 4. **Served frames** — the serving loop writes each `ok` frame
//!    straight from the session arena, so the raw lines a spawned
//!    server sends must equal [`encode_response`] of what
//!    [`Server::process_batch`](nra_serve::Server::process_batch)
//!    answers to the same frames, byte for byte; and those answers are
//!    the door's and the joins' expected outcomes (admitted, rescued,
//!    rejected citing Theorem 4.1).

use nra_core::generate::{random_expr, GenConfig, Rng as GenRng};
use nra_core::parser::{parse_expr, parse_value};
use nra_core::types::Type;
use nra_core::Value;
use nra_serve::{
    decode_frame, decode_response, encode_request, encode_response, socketpair, Frame, Outcome,
    Request, Response,
};
use nra_testkit::{check, Rng};

/// Random well-typed expression over a random relational-ish domain.
fn fuzz_expr(rng: &mut Rng) -> nra_core::Expr {
    let edge = Type::prod(Type::Nat, Type::Nat);
    let dom = match rng.below(4) {
        0 => Type::set(edge.clone()),
        1 => Type::set(Type::Nat),
        2 => Type::prod(Type::set(edge.clone()), Type::set(edge)),
        _ => Type::Nat,
    };
    let cfg = GenConfig {
        max_depth: 4,
        allow_while: rng.bool(),
        ..GenConfig::default()
    };
    random_expr(&dom, &cfg, &mut GenRng::new(rng.next_u64()))
}

/// Random structurally-valid value (not necessarily well-typed for any
/// query — the wire does not care).
fn fuzz_value(rng: &mut Rng, depth: u64) -> Value {
    match if depth == 0 {
        rng.below(3)
    } else {
        rng.below(5)
    } {
        0 => Value::nat(rng.below(100)),
        1 => Value::Bool(rng.bool()),
        2 => Value::Unit,
        3 => Value::pair(fuzz_value(rng, depth - 1), fuzz_value(rng, depth - 1)),
        _ => Value::set((0..rng.below(4)).map(|_| fuzz_value(rng, depth - 1))),
    }
}

#[test]
fn payload_syntax_round_trips() {
    check("wire_payload_round_trip", 200, |seed, rng| {
        let e = fuzz_expr(rng);
        let rendered = format!("{e}");
        assert!(
            !rendered.contains(';') && !rendered.contains('\n'),
            "seed {seed}: expr syntax leaked a frame separator: {rendered}"
        );
        assert_eq!(
            parse_expr(&rendered).expect("generated exprs reparse"),
            e,
            "seed {seed}"
        );

        let v = fuzz_value(rng, 3);
        let rendered = format!("{v}");
        assert!(
            !rendered.contains(';') && !rendered.contains('\n'),
            "seed {seed}: value syntax leaked a frame separator: {rendered}"
        );
        assert_eq!(
            parse_value(&rendered).expect("generated values reparse"),
            v,
            "seed {seed}"
        );
    });
}

#[test]
fn frames_round_trip() {
    check("wire_frame_round_trip", 120, |seed, rng| {
        let request = Request {
            tenant: format!("tenant-{}", rng.below(10)),
            id: rng.next_u64(),
            query: fuzz_expr(rng),
            input: fuzz_value(rng, 3),
        };
        let line = encode_request(&request).expect("encodable");
        assert_eq!(
            decode_frame(&line).expect("decodable"),
            Frame::Request(request),
            "seed {seed}"
        );

        // free-text fields get the separator salted in on purpose
        let salt = [
            "plain",
            "with;semi",
            "a;b;c;",
            ";leading",
            "2^24 units; Theorem 4.1",
        ];
        let outcome = match rng.below(3) {
            0 => Outcome::Ok {
                declared_budget: rng.next_u64(),
                value: fuzz_value(rng, 3),
            },
            1 => Outcome::Rejected {
                reason: salt[rng.usize_below(salt.len())].to_string(),
            },
            _ => Outcome::Failed {
                detail: salt[rng.usize_below(salt.len())].to_string(),
            },
        };
        let response = Response {
            tenant: format!("t{}", rng.below(10)),
            id: rng.next_u64(),
            outcome,
        };
        let line = encode_response(&response).expect("encodable");
        assert_eq!(
            decode_response(&line).expect("decodable"),
            response,
            "seed {seed}"
        );
    });
}

#[test]
fn framing_survives_random_chunk_boundaries() {
    check("wire_framing_fuzz", 60, |seed, rng| {
        // a batch of frames, concatenated to one byte stream
        let requests: Vec<Request> = (0..rng.range_u64(1, 12))
            .map(|i| Request {
                tenant: format!("t{}", rng.below(4)),
                id: i,
                query: fuzz_expr(rng),
                input: fuzz_value(rng, 2),
            })
            .collect();
        let mut stream = Vec::new();
        for request in &requests {
            stream.extend_from_slice(encode_request(request).unwrap().as_bytes());
            stream.push(b'\n');
        }

        // re-chunk at random boundaries and push through the transport
        let (client, mut server) = socketpair();
        let mut rest: &[u8] = &stream;
        while !rest.is_empty() {
            let cut = (rng.usize_below(rest.len()) + 1).min(rest.len());
            let (chunk, tail) = rest.split_at(cut);
            client.tx.send_bytes(chunk.to_vec()).unwrap();
            rest = tail;
        }
        drop(client);

        // the receiver must reassemble exactly the original sequence
        let mut decoded = Vec::new();
        while let Some(line) = server.rx.recv_line() {
            match decode_frame(&line.unwrap()).expect("reassembled frames decode") {
                Frame::Request(r) => decoded.push(r),
                Frame::Shutdown => panic!("seed {seed}: phantom shutdown frame"),
            }
        }
        assert_eq!(decoded, requests, "seed {seed}");
    });
}

/// Hostile nesting depth: a frame nested deeper than
/// [`nra_core::parser::MAX_NESTING`] is answered `failed` on the wire
/// instead of overflowing the serving thread's stack (10,000 nested
/// `map(` used to abort the whole process), a frame exactly at the
/// limit is still served end to end, a frame whose answer would nest
/// past the limit is answered `failed` once the answer is measured (the
/// client could not decode it), and the server answers the next
/// ordinary frame.
#[test]
fn nesting_limit_fails_hostile_frames_and_keeps_serving() {
    use nra_core::parser::MAX_NESTING;
    use nra_serve::{spawn, ServeConfig};
    // `depth` levels each: `map(…map(leaf)…)` and `{…{1}…}`
    let maps = |depth: usize, leaf: &str| {
        format!(
            "{}{leaf}{}",
            "map(".repeat(depth - 1),
            ")".repeat(depth - 1)
        )
    };
    let query = |depth: usize| maps(depth, "id");
    let input = |depth: usize| format!("{}1{}", "{".repeat(depth - 1), "}".repeat(depth - 1));
    let (mut client, handle) = spawn(ServeConfig::default());
    let mut ask = |id: u64, query: &str, input: &str| {
        client
            .tx
            .send_line(&format!("acme;{id};{query};{input}"))
            .unwrap();
        let response = client.recv().expect("server alive").unwrap();
        assert_eq!(response.id, id);
        response.outcome
    };
    // at the limit, expression and value both: served, identity result
    let deep = input(MAX_NESTING);
    match ask(1, &query(MAX_NESTING), &deep) {
        Outcome::Ok { value, .. } => assert_eq!(value, parse_value(&deep).unwrap()),
        other => panic!("a frame at the nesting limit must be served: {other:?}"),
    }
    // the same frame wrapping each innermost set in a singleton: the
    // answer would nest one level past what the client can decode
    match ask(2, &maps(MAX_NESTING, "sng"), &deep) {
        Outcome::Failed { detail } => {
            assert!(detail.contains("nesting cap of 128 levels"), "{detail}");
        }
        other => panic!("an answer past the nesting limit must be refused: {other:?}"),
    }
    // one level deeper, in the expression or in the value; and the
    // 10,000-level frame that used to overflow the stack
    for (id, q, v) in [
        (3, query(MAX_NESTING + 1), input(1)),
        (4, query(1), input(MAX_NESTING + 1)),
        (5, query(10_000), input(1)),
    ] {
        match ask(id, &q, &v) {
            Outcome::Failed { detail } => {
                assert!(detail.starts_with("wire:"), "{detail}");
                assert!(detail.contains("nesting"), "{detail}");
            }
            other => panic!("frame {id} nests past the limit: {other:?}"),
        }
    }
    // the server is still serving
    match ask(6, "id", "{(0, 1)}") {
        Outcome::Ok { value, .. } => assert_eq!(value, Value::chain(1)),
        other => panic!("ordinary frame after hostile ones: {other:?}"),
    }
    client.shutdown().unwrap();
    let report = handle.join().expect("server thread must not die");
    assert_eq!(report.decode_errors, 3);
    assert_eq!(report.rejected_admission, 0);
    assert_eq!(report.errors, 1);
    assert_eq!(report.completed, 2);
}

/// An answer nested past the decoder's cap, on an input `infer_type`
/// cannot type (it holds `{}`), so staging cannot bound the answer's
/// depth: `sng` over a 128-level `{…{}…}` is answered `failed` instead
/// of `ok` with a value the client cannot decode. `id` over the same
/// value is served: its arena depth sits at the cap, and since its
/// deepest branch ends in `{}` rather than an atom the parser counts the
/// same 128 levels. So is the next ordinary frame.
#[test]
fn an_untyped_answer_past_the_nesting_cap_fails_and_the_next_is_served() {
    use nra_core::parser::MAX_NESTING;
    use nra_serve::{spawn, ServeConfig};
    let deep = format!("{}{}", "{".repeat(MAX_NESTING), "}".repeat(MAX_NESTING));
    assert!(parse_value(&deep).unwrap().infer_type().is_none());
    let (mut client, handle) = spawn(ServeConfig::default());
    let mut ask = |id: u64, query: &str, input: &str| {
        client
            .tx
            .send_line(&format!("acme;{id};{query};{input}"))
            .unwrap();
        let response = client.recv().expect("server alive").unwrap();
        assert_eq!(response.id, id);
        response.outcome
    };
    match ask(1, "sng", &deep) {
        Outcome::Failed { detail } => {
            assert!(detail.contains("nesting cap of 128 levels"), "{detail}");
        }
        other => panic!("an answer past the nesting cap must fail: {other:?}"),
    }
    match ask(2, "id", &deep) {
        Outcome::Ok { value, .. } => assert_eq!(value, parse_value(&deep).unwrap()),
        other => panic!("an answer at the nesting cap must be served: {other:?}"),
    }
    match ask(3, "id", "{(0, 1)}") {
        Outcome::Ok { value, .. } => assert_eq!(value, Value::chain(1)),
        other => panic!("ordinary frame after an over-deep answer: {other:?}"),
    }
    client.shutdown().unwrap();
    let report = handle.join().expect("server thread must not die");
    assert_eq!((report.errors, report.completed), (1, 2));
}

/// Frame reassembly is linear in the frame: a 256 KiB frame trickled in
/// one byte per chunk is answered promptly (re-scanning the buffer from
/// its start on every chunk took about 20 s for this frame in a release
/// build, with the serving thread answering no one meanwhile), and the
/// equally large answer reaches the client.
#[test]
fn a_large_frame_in_one_byte_chunks_is_answered_promptly() {
    use nra_serve::{spawn, ServeConfig};
    use std::time::{Duration, Instant};
    let input = Value::chain(20_000);
    let line = encode_request(&Request {
        tenant: "acme".into(),
        id: 1,
        query: nra_core::builder::id(),
        input: input.clone(),
    })
    .unwrap();
    assert!(line.len() >= 256 << 10, "{} bytes", line.len());
    let (mut client, handle) = spawn(ServeConfig::default());
    let start = Instant::now();
    for &byte in line.as_bytes().iter().chain(b"\n") {
        client.tx.send_bytes(vec![byte]).unwrap();
    }
    let response = client.recv().expect("server alive").unwrap();
    let elapsed = start.elapsed();
    assert_eq!(response.id, 1);
    match response.outcome {
        Outcome::Ok { value, .. } => assert_eq!(value, input),
        other => panic!("the large frame must be served: {other:?}"),
    }
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");
    client.shutdown().unwrap();
    handle.join().expect("server thread must not die");
}

/// Frame splitting is linear in the frames of a chunk: 64,000 frames
/// of 32 bytes sent as one chunk are read back, in order, promptly.
/// Handing out each line by shifting every byte behind it to the front
/// of the buffer made this chunk cost time quadratic in its line count,
/// about 2 s in a release build.
#[test]
fn one_chunk_of_many_frames_is_split_promptly() {
    use std::time::{Duration, Instant};
    let frames: Vec<String> = (0..64_000)
        .map(|i| format!("acme;{i:06};id;{{(0, 1), (1, 2)}}"))
        .collect();
    assert_eq!(frames[0].len() + 1, 32);
    let mut chunk = frames.join("\n").into_bytes();
    chunk.push(b'\n');
    let (client, mut server) = socketpair();
    client.tx.send_bytes(chunk).unwrap();
    let start = Instant::now();
    let lines: Vec<String> = (0..frames.len())
        .map(|_| server.rx.recv_line().expect("peer alive").unwrap())
        .collect();
    let elapsed = start.elapsed();
    assert_eq!(lines, frames);
    assert!(elapsed < Duration::from_millis(200), "took {elapsed:?}");
}

/// The inbound frame cap: a line of exactly [`MAX_FRAME_BYTES`] is read
/// (and fails to parse), one byte more is discarded through its newline
/// and answered `failed` under its salvaged tenant and id, and the next
/// ordinary frame is served.
#[test]
fn a_frame_over_the_byte_cap_fails_and_the_next_is_served() {
    use nra_serve::{spawn, ServeConfig, MAX_FRAME_BYTES};
    let frame = |id: u64, len: usize| {
        let head = format!("acme;{id};id;");
        format!("{head}{}\n", "x".repeat(len - head.len()))
    };
    let (mut client, handle) = spawn(ServeConfig::default());
    let mut ask = |id: u64, bytes: String| {
        // three chunks, so the cap is crossed mid-line
        let third = bytes.len() / 3;
        for chunk in [
            &bytes[..third],
            &bytes[third..2 * third],
            &bytes[2 * third..],
        ] {
            client.tx.send_bytes(chunk.as_bytes().to_vec()).unwrap();
        }
        let response = client.recv().expect("server alive").unwrap();
        assert_eq!((response.tenant.as_str(), response.id), ("acme", id));
        response.outcome
    };
    match ask(1, frame(1, MAX_FRAME_BYTES)) {
        Outcome::Failed { detail } => assert!(detail.contains("parse error"), "{detail}"),
        other => panic!("a frame at the cap is read and decoded: {other:?}"),
    }
    match ask(2, frame(2, MAX_FRAME_BYTES + 1)) {
        Outcome::Failed { detail } => {
            assert_eq!(
                detail,
                format!("wire: frame longer than {MAX_FRAME_BYTES} bytes")
            )
        }
        other => panic!("a frame over the cap must fail: {other:?}"),
    }
    match ask(3, "acme;3;id;{(0, 1)}\n".into()) {
        Outcome::Ok { value, .. } => assert_eq!(value, Value::chain(1)),
        other => panic!("ordinary frame after an over-long one: {other:?}"),
    }
    client.shutdown().unwrap();
    let report = handle.join().expect("server thread must not die");
    assert_eq!(report.decode_errors, 2);
}

/// Send each group of `requests` to a spawned server as one transport
/// chunk (one batch), and require every raw line it answers with to
/// equal [`encode_response`] of the response a second server's
/// `process_batch` gives the same request, byte for byte. The spawned
/// loop answers in completion order, so each line is matched to its
/// request by (tenant, id), and every request of a group must be
/// answered exactly once. The spawned loop writes `ok` answers from its
/// arena; `process_batch` resolves them to trees. Returns the reference
/// server's responses, in request order, and its closing report, so
/// callers can check the outcomes themselves.
fn assert_served_frames_are_encoded_responses(
    groups: &[Vec<Request>],
) -> (Vec<Response>, nra_serve::ServeReport) {
    use nra_serve::{spawn, ServeConfig, Server};
    use std::collections::BTreeMap;
    let (mut client, handle) = spawn(ServeConfig::default());
    let mut reference = Server::new(ServeConfig::default());
    let mut responses = Vec::new();
    for group in groups {
        let mut chunk = Vec::new();
        for request in group {
            chunk.extend_from_slice(encode_request(request).unwrap().as_bytes());
            chunk.push(b'\n');
        }
        client.tx.send_bytes(chunk).unwrap();
        let expected = reference.process_batch(group);
        let mut unanswered: BTreeMap<(String, u64), String> = expected
            .iter()
            .map(|r| ((r.tenant.clone(), r.id), encode_response(r).unwrap()))
            .collect();
        assert_eq!(unanswered.len(), group.len(), "(tenant, id) is unique");
        for _ in group {
            let line = client.rx.recv_line().expect("server alive").unwrap();
            let mut fields = line.splitn(3, ';');
            let tenant = fields.next().unwrap_or_default().to_string();
            let id: u64 = fields
                .next()
                .and_then(|id| id.parse().ok())
                .unwrap_or_else(|| panic!("served frame without an id: {line}"));
            let expect = unanswered
                .remove(&(tenant.clone(), id))
                .unwrap_or_else(|| panic!("{tenant} {id}: answered twice or never asked"));
            if line != expect {
                let at = line
                    .bytes()
                    .zip(expect.bytes())
                    .position(|(a, b)| a != b)
                    .unwrap_or(line.len().min(expect.len()));
                let near = |text: &str| {
                    let bytes = &text.as_bytes()[at.saturating_sub(40)..];
                    String::from_utf8_lossy(&bytes[..bytes.len().min(80)]).into_owned()
                };
                panic!(
                    "{tenant} {id}: the served frame ({} bytes) departs from encode_response \
                     ({} bytes) at byte {at}:\n  served: …{}…\n  encoded: …{}…",
                    line.len(),
                    expect.len(),
                    near(&line),
                    near(&expect),
                );
            }
        }
        responses.extend(expected);
    }
    client.shutdown().unwrap();
    handle.join().expect("server thread must not die");
    assert!(
        client.rx.recv_line().is_none(),
        "a frame answered more than once"
    );
    (responses, reference.report())
}

/// A rejection leaves at staging: in one chunk, a bare `powerset` that
/// Theorem 4.1 turns away, sent after an admitted `tc_while`, is
/// answered first, and the admitted frame after it.
#[test]
fn a_rejection_sent_after_an_admitted_frame_is_answered_first() {
    use nra_core::{builder, queries};
    use nra_serve::{spawn, ServeConfig};
    let requests = [
        (1, queries::tc_while(), Value::chain(9)),
        (2, builder::powerset(), Value::chain(20)),
    ];
    let mut chunk = Vec::new();
    for (id, query, input) in requests {
        let request = Request {
            tenant: "acme".into(),
            id,
            query,
            input,
        };
        chunk.extend_from_slice(encode_request(&request).unwrap().as_bytes());
        chunk.push(b'\n');
    }
    let (mut client, handle) = spawn(ServeConfig::default());
    client.tx.send_bytes(chunk).unwrap();
    let first = client.recv().expect("server alive").unwrap();
    assert_eq!(first.id, 2, "{first:?}");
    assert!(cites_theorem_4_1(&first.outcome), "{first:?}");
    let second = client.recv().expect("server alive").unwrap();
    assert_eq!(second.id, 1);
    match second.outcome {
        Outcome::Ok { value, .. } => assert_eq!(value, Value::chain_tc(9)),
        other => panic!("the admitted frame: {other:?}"),
    }
    client.shutdown().unwrap();
    let report = handle.join().expect("server thread must not die");
    assert_eq!((report.batches, report.completed), (1, 1));
    assert_eq!(report.rejected_exponential, 1);
}

/// Is `outcome` a rejection citing the Theorem 4.1 bound?
fn cites_theorem_4_1(outcome: &Outcome) -> bool {
    matches!(outcome, Outcome::Rejected { reason } if reason.contains("Theorem 4.1"))
}

/// One request per query over `input`, ids counted from 0.
fn requests_over(tenant: &str, queries: &[nra_core::Expr], input: &Value) -> Vec<Request> {
    queries
        .iter()
        .zip(0..)
        .map(|(query, id)| Request {
            tenant: tenant.into(),
            id,
            query: query.clone(),
            input: input.clone(),
        })
        .collect()
}

/// The seven small families under the door's three queries, every one
/// answered `ok`, plus one of each other door outcome: a powerset-route
/// `tc_paths` the optimiser rescues, a bare `powerset` rejected citing
/// Theorem 4.1, an admitted `powerset` whose answer is a set of sets, and
/// an untyped answer past the nesting cap (failed) next to one at the
/// cap (ok).
#[test]
fn served_frames_are_encoded_responses_on_the_small_families() {
    use nra_core::parser::MAX_NESTING;
    use nra_core::{builder, queries};
    use nra_testkit::graphs::family_graphs;
    let door = [
        queries::tc_while(),
        queries::tc_step(),
        queries::siblings_powerset(),
    ];
    let mut groups = Vec::new();
    for seed in 0..3 {
        for g in family_graphs(&mut Rng::new(seed)) {
            let input = Value::relation(g.edges.iter().copied());
            groups.push(requests_over(g.family, &door, &input));
        }
    }
    let deep = parse_value(&format!(
        "{}{}",
        "{".repeat(MAX_NESTING),
        "}".repeat(MAX_NESTING)
    ))
    .unwrap();
    groups.push(
        [
            (queries::tc_paths(), Value::chain(15)),
            (builder::powerset(), Value::chain(20)),
            (builder::powerset(), Value::chain(4)),
            (builder::sng(), deep.clone()),
            (builder::id(), deep),
        ]
        .into_iter()
        .zip(0..)
        .map(|((query, input), id)| Request {
            tenant: "door".into(),
            id,
            query,
            input,
        })
        .collect(),
    );
    let (responses, report) = assert_served_frames_are_encoded_responses(&groups);
    let (families, others) = responses.split_at(3 * 7 * door.len());
    for response in families {
        assert!(
            matches!(response.outcome, Outcome::Ok { .. }),
            "{response:?}"
        );
    }
    match &others[0].outcome {
        Outcome::Ok { value, .. } => assert_eq!(*value, Value::chain_tc(15)),
        other => panic!("tc_paths on chain(15) must be rescued: {other:?}"),
    }
    assert!(cites_theorem_4_1(&others[1].outcome), "{:?}", others[1]);
    let outcomes: Vec<_> = others[2..].iter().map(|r| &r.outcome).collect();
    assert!(
        matches!(
            outcomes[..],
            [
                Outcome::Ok { .. },
                Outcome::Failed { .. },
                Outcome::Ok { .. }
            ]
        ),
        "{outcomes:?}"
    );
    assert_eq!(report.rescued, 1);
    assert_eq!(report.rejected_exponential, 1);
    assert_eq!(
        report.errors, 1,
        "only the answer past the nesting cap fails"
    );
}

/// The payload fuzz's structurally random values, each served back by
/// `id` (heterogeneous and untyped sets included).
#[test]
fn served_frames_are_encoded_responses_on_the_value_corpus() {
    let mut rng = Rng::new(0x5e7f);
    let groups: Vec<Vec<Request>> = (0..40)
        .map(|group| {
            (0..8)
                .map(|id| Request {
                    tenant: format!("t{group}"),
                    id,
                    query: nra_core::builder::id(),
                    input: fuzz_value(&mut rng, 3),
                })
                .collect()
        })
        .collect();
    assert_served_frames_are_encoded_responses(&groups);
}

/// The serving-scale joins: the three 512-node families under the three
/// joins servebench's `join512` sends, all nine admitted and answered
/// `ok` with answers of up to tens of thousands of pairs (under a second
/// in a debug build), and a bare `powerset` of the road grid rejected
/// citing Theorem 4.1.
#[test]
fn served_frames_are_encoded_responses_on_the_large_families() {
    use nra_core::{builder, queries};
    use nra_testkit::graphs::large_family_graphs;
    let joins = [
        queries::tc_step(),
        queries::compose_rel(),
        queries::siblings_direct(),
    ];
    let mut groups: Vec<Vec<Request>> = large_family_graphs(&mut Rng::new(7), 512)
        .into_iter()
        .map(|g| requests_over(g.family, &joins, &Value::relation(g.edges.iter().copied())))
        .collect();
    // a bare powerset of the road grid rides along in its batch
    let road_grid = groups[0][0].clone();
    assert_eq!(road_grid.tenant, "road_grid");
    groups[0].push(Request {
        id: 3,
        query: builder::powerset(),
        ..road_grid
    });
    let (responses, report) = assert_served_frames_are_encoded_responses(&groups);
    assert!(
        cites_theorem_4_1(&responses[3].outcome),
        "{:?}",
        responses[3]
    );
    for (i, response) in responses.iter().enumerate().filter(|&(i, _)| i != 3) {
        assert!(
            matches!(response.outcome, Outcome::Ok { .. }),
            "join {i}: {response:?}"
        );
    }
    assert_eq!((report.admitted, report.completed), (9, 9));
    assert_eq!(report.rejected_exponential, 1);
    assert_eq!(report.errors, 0);
}
