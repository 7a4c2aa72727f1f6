//! Seeded property loops over the parsers that face the coordinator's TCP
//! port: frame decoding (`protocol::recv_msg`), message parsing
//! (`protocol::parse_msg`), the field extractors (`lease_units`,
//! `result_fields`) and the worker-side options decoder
//! (`CommonOpts::from_wire_json`). Hostile or corrupt input must come back as
//! `Err`/`None` and never panic the process that reads it.

use piccolo::json::{parse, Json};
use piccolo_bench::cli::{CommonOpts, FlagSet};
use piccolo_graph::rng::Rng64;
use piccolo_obs::hash::fnv64;
use piccolo_serve::protocol::{self, MAX_FRAME};
use std::io::ErrorKind;

/// Frames `payload` exactly as `send_msg` does, without `encode_line`'s
/// single-line assertion, so hostile payloads can be framed too.
fn frame(payload: &str) -> Vec<u8> {
    let line = format!("{:016x} {payload}", fnv64(payload.as_bytes()));
    let mut out = (line.len() as u32).to_le_bytes().to_vec();
    out.extend_from_slice(line.as_bytes());
    out
}

fn random_bytes(rng: &mut Rng64, max_len: usize) -> Vec<u8> {
    let len = rng.gen_index(max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A short string over JSON's token alphabet: mostly malformed documents,
/// occasionally a valid one.
fn json_soup(rng: &mut Rng64, max_len: usize) -> String {
    const ALPHABET: &[u8] = b"{}[]\":,-.0123456789eEtrufalsn \\xy";
    let len = rng.gen_index(max_len + 1);
    (0..len)
        .map(|_| ALPHABET[rng.gen_index(ALPHABET.len())] as char)
        .collect()
}

/// Every message a live session exchanges, as sent.
fn valid_messages() -> Vec<String> {
    vec![
        protocol::hello_msg("w1"),
        protocol::ready_msg("0123456789abcdef"),
        protocol::reject_msg("plan mismatch"),
        protocol::next_msg(),
        protocol::lease_msg(&[0, 2, 4]),
        protocol::wait_msg(50),
        protocol::done_msg(),
        protocol::result_msg(7, r#"{"kind":"sim","iters":"3"}"#),
        protocol::heartbeat_msg(),
        protocol::event_msg("0000000000000000 {}"),
    ]
}

/// Drives the coordinator's whole read path over `bytes`: decode frames until
/// the stream ends or errors, and push every decoded payload through the
/// message parser and both field extractors. Returns the first frame error.
fn read_all(bytes: &[u8]) -> Option<ErrorKind> {
    let mut cursor = bytes;
    loop {
        match protocol::recv_msg(&mut cursor) {
            Ok(None) => return None,
            Err(e) => return Some(e.kind()),
            Ok(Some(payload)) => {
                if let Ok((_, doc)) = protocol::parse_msg(&payload) {
                    let _ = protocol::lease_units(&doc);
                    let _ = protocol::result_fields(&doc);
                }
            }
        }
    }
}

#[test]
fn random_bytes_never_decode_and_never_panic() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0001);
    for _ in 0..500 {
        let bytes = random_bytes(&mut rng, 96);
        let r = protocol::recv_msg(&mut &bytes[..]);
        assert!(
            !matches!(r, Ok(Some(_))),
            "random bytes decoded as a frame: {bytes:?}"
        );
        read_all(&bytes);
    }
    // Random bodies behind a consistent length prefix fail the checksum (or
    // UTF-8) check instead of reaching the JSON parser.
    for _ in 0..500 {
        let body = random_bytes(&mut rng, 96);
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        assert_eq!(read_all(&bytes), Some(ErrorKind::InvalidData));
    }
}

#[test]
fn truncated_frames_are_eof_never_a_message() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0002);
    for msg in valid_messages() {
        let bytes = frame(&msg);
        assert_eq!(read_all(&bytes), None, "valid frame must decode: {msg}");
        for _ in 0..20 {
            let cut = 1 + rng.gen_index(bytes.len() - 1);
            let r = protocol::recv_msg(&mut &bytes[..cut]);
            if cut < 4 {
                // A stream torn inside the length prefix reads as a close.
                assert!(matches!(r, Ok(None)), "cut {cut} of {msg}");
            } else {
                assert_eq!(
                    r.unwrap_err().kind(),
                    ErrorKind::UnexpectedEof,
                    "cut {cut} of {msg}"
                );
            }
        }
    }
}

#[test]
fn oversized_length_prefixes_fail_fast() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0003);
    for _ in 0..200 {
        let len = MAX_FRAME + 1 + rng.gen_u32_below(u32::MAX - MAX_FRAME);
        let mut bytes = len.to_le_bytes().to_vec();
        bytes.extend(random_bytes(&mut rng, 32));
        let err = protocol::recv_msg(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData, "length {len}");
    }
}

#[test]
fn a_flipped_checksum_digit_is_rejected() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0004);
    const HEX: &[u8] = b"0123456789abcdefABCDEF";
    for msg in valid_messages() {
        for _ in 0..20 {
            let mut bytes = frame(&msg);
            // Bytes 4..20 are the 16 checksum digits after the length prefix.
            let at = 4 + rng.gen_index(16);
            let original = bytes[at];
            let mut digit = original;
            while digit == original {
                digit = HEX[rng.gen_index(HEX.len())];
            }
            bytes[at] = digit;
            let err = protocol::recv_msg(&mut &bytes[..]).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::InvalidData, "{msg}");
        }
    }
}

#[test]
fn unknown_kinds_and_malformed_fields_are_errors() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0005);
    // A checksum-valid frame whose type nobody speaks parses, but carries no
    // lease or result fields.
    for i in 0..50 {
        let kind = format!("kind{}", rng.next_u64() % 1000 + i);
        let msg = Json::obj([("type", Json::str(kind.clone()))]).to_string();
        let payload = protocol::recv_msg(&mut &frame(&msg)[..]).unwrap().unwrap();
        let (parsed, doc) = protocol::parse_msg(&payload).unwrap();
        assert_eq!(parsed, kind);
        assert!(protocol::lease_units(&doc).is_err());
        assert!(protocol::result_fields(&doc).is_err());
    }
    for bad in [
        r#"{}"#,
        r#"{"type":3}"#,
        r#"[1,2]"#,
        r#""lease""#,
        r#"{"type":"lease""#,
        "",
    ] {
        assert!(protocol::parse_msg(bad).is_err(), "{bad}");
    }
    for bad in [
        r#"{"type":"lease"}"#,
        r#"{"type":"lease","units":3}"#,
        r#"{"type":"lease","units":["1"]}"#,
        r#"{"type":"lease","units":[-1]}"#,
        r#"{"type":"lease","units":[1.5]}"#,
        r#"{"type":"lease","units":[null]}"#,
    ] {
        let (_, doc) = protocol::parse_msg(bad).unwrap();
        assert!(protocol::lease_units(&doc).is_err(), "{bad}");
    }
    for bad in [
        r#"{"type":"result"}"#,
        r#"{"type":"result","unit":1}"#,
        r#"{"type":"result","result":{}}"#,
        r#"{"type":"result","unit":"1","result":{}}"#,
        r#"{"type":"result","unit":-2,"result":{}}"#,
        r#"{"type":"result","unit":0.5,"result":{}}"#,
    ] {
        let (_, doc) = protocol::parse_msg(bad).unwrap();
        assert!(protocol::result_fields(&doc).is_err(), "{bad}");
    }
    // Checksum-valid frames of JSON soup exercise the parser itself.
    for _ in 0..2000 {
        let soup = json_soup(&mut rng, 48);
        assert_eq!(read_all(&frame(&soup)), None, "{soup:?}");
    }
}

#[test]
fn deeply_nested_payloads_are_errors_not_stack_overflows() {
    for open in ["[", "{\"a\":"] {
        let msg = open.repeat(1 << 20);
        assert!(protocol::parse_msg(&msg).is_err());
        assert_eq!(read_all(&frame(&msg)), None);
    }
}

fn wire_opts() -> CommonOpts {
    let mut opts = CommonOpts::new(FlagSet::all());
    opts.figures = vec!["fig10".to_string(), "table2".to_string()];
    opts.quick = true;
    opts.externals = vec![("web".to_string(), "a/b.txt".to_string())];
    opts.snapshot_dir = Some("snaps".into());
    opts
}

/// `doc` with `key` replaced by `value` (or removed when `value` is `None`).
fn with_field(doc: &Json, key: &str, value: Option<Json>) -> String {
    let Json::Obj(pairs) = doc else {
        panic!("wire options are an object")
    };
    let mut pairs: Vec<(String, Json)> = pairs.iter().filter(|(k, _)| k != key).cloned().collect();
    if let Some(v) = value {
        pairs.push((key.to_string(), v));
    }
    Json::Obj(pairs).to_string()
}

#[test]
fn wire_options_reject_missing_and_mistyped_fields() {
    let wire = wire_opts().to_wire_json();
    let doc = parse(&wire).unwrap();
    assert!(CommonOpts::from_wire_json(&wire).is_ok());

    for key in ["figures", "quick", "externals"] {
        let missing = with_field(&doc, key, None);
        assert!(CommonOpts::from_wire_json(&missing).is_err(), "{missing}");
    }
    for (key, bad) in [
        ("figures", Json::Num(1.0)),
        ("figures", Json::Arr(vec![Json::Num(1.0)])),
        ("figures", Json::str("fig10")),
        ("quick", Json::str("true")),
        ("quick", Json::Num(1.0)),
        ("quick", Json::Null),
        ("externals", Json::Null),
        ("externals", Json::Arr(vec![Json::Bool(true)])),
        ("externals", Json::Arr(vec![Json::str("no-equals-sign")])),
        ("snapshot_dir", Json::Num(3.0)),
        ("snapshot_dir", Json::Arr(Vec::new())),
    ] {
        let mistyped = with_field(&doc, key, Some(bad));
        assert!(CommonOpts::from_wire_json(&mistyped).is_err(), "{mistyped}");
    }
    for not_an_object in ["null", "[]", "3", "\"opts\"", ""] {
        assert!(CommonOpts::from_wire_json(not_an_object).is_err());
    }
}

#[test]
fn corrupt_wire_options_never_panic() {
    let mut rng = Rng64::seed_from_u64(0x5eed_0006);
    let wire = wire_opts().to_wire_json();
    // Every strict prefix of the document is unbalanced JSON.
    for cut in 0..wire.len() {
        assert!(CommonOpts::from_wire_json(&wire[..cut]).is_err(), "{cut}");
    }
    // Single-byte corruptions either still parse or fail cleanly.
    for _ in 0..500 {
        let mut bytes = wire.clone().into_bytes();
        let at = rng.gen_index(bytes.len());
        bytes[at] = b"{}[]\":,0aZ \\"[rng.gen_index(12)];
        if let Ok(text) = String::from_utf8(bytes) {
            let _ = CommonOpts::from_wire_json(&text);
        }
    }
    for _ in 0..1000 {
        let _ = CommonOpts::from_wire_json(&json_soup(&mut rng, 64));
    }
}
