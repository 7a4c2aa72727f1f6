//! Pins the compatibility contract between `piccolo-io` and the shared line
//! codec that moved into `piccolo-obs`.
//!
//! There is one FNV-1a-64 implementation, in `piccolo_obs::hash`: `io::hash`
//! re-exports it for the `.pcsr` binary sections and `piccolo_obs::linecodec`
//! uses it to frame journals and event logs. These tests keep both paths
//! interchangeable, so historical journals and `.pcsr` files stay readable no
//! matter which side computes the checksum.

use piccolo_io::{hash, journal};

#[test]
fn the_two_fnv64_implementations_agree() {
    let cases: [&[u8]; 6] = [
        b"",
        b"a",
        b"piccolo",
        b"{\"unit\":3}",
        &[0x00, 0xff, 0x80, 0x7f],
        b"the quick brown fox jumps over the lazy dog",
    ];
    for payload in cases {
        assert_eq!(
            hash::fnv64(payload),
            piccolo_obs::linecodec::fnv64(payload),
            "fnv64 divergence on {payload:?}"
        );
    }
}

#[test]
fn journal_reexports_are_the_obs_codec() {
    // Same function, not merely the same format: an io-encoded line decodes
    // through the obs path and vice versa, and the checksum prefix is the
    // io-side fnv64 of the payload.
    let payload = r#"{"unit":7,"result":"ok"}"#;
    let via_io = journal::encode_line(payload);
    let via_obs = piccolo_obs::linecodec::encode_line(payload);
    assert_eq!(via_io, via_obs);
    assert_eq!(piccolo_obs::linecodec::decode_line(&via_io), Some(payload));
    assert_eq!(journal::decode_line(&via_obs), Some(payload));
    let hex = via_io.split(' ').next().unwrap();
    assert_eq!(hex, format!("{:016x}", hash::fnv64(payload.as_bytes())));
}

#[test]
fn historical_journal_bytes_still_decode() {
    // A line captured from a pre-refactor journal file: the format is frozen.
    let payload = "first";
    let line = journal::encode_line(payload);
    assert_eq!(line.len(), 16 + 1 + payload.len());
    assert_eq!(journal::decode_line(&line), Some(payload));
}
