//! Golden-byte pins for the NXQT table/delta codec and the NXTR trace
//! codec.
//!
//! Round-trip properties cannot catch a format change that the encoder
//! and decoder make together; these fixed inputs and their exact hex
//! encodings can. Each test checks both directions: the encoder must
//! emit the golden bytes, and decoding the golden bytes must rebuild
//! the input. (The NXCP checkpoint pin lives beside its private codec
//! in `simkit::campaign`.)

use next_mpsoc::qlearn::{apply_delta, decode_table, delta_between, encode_table, DenseQTable};
use next_mpsoc::simkit::trace::{SegmentKind, TickRecord, TickTrace, TraceMeta};

fn unhex(s: &str) -> Vec<u8> {
    assert!(s.len().is_multiple_of(2), "odd hex length");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit"))
        .collect()
}

/// Three actions, default 25, two rows — one with a gap of more than
/// one varint byte and a multi-byte visit count.
fn base_table() -> DenseQTable {
    let mut t = DenseQTable::dense_with_default_q(3, 25.0);
    t.set(2, 0, -1.5);
    t.set(2, 2, 0.25);
    t.set(300, 1, 7.0);
    for _ in 0..199 {
        t.set(300, 1, 7.0);
    }
    t
}

/// `base_table` with one row changed and one row added.
fn new_table() -> DenseQTable {
    let mut t = base_table();
    t.set(2, 1, -0.0);
    t.set(70_000, 2, 3.5);
    t
}

const NXQT_FULL: &str = concat!(
    "4e58515401000103000000000000003940020205000000000000f8bf01000000",
    "000000d03f01aa02020000000000001c40c801",
);
const NXQT_DELTA: &str = concat!(
    "4e58515401000203000000000000003940020207000000000000f8bf01000000",
    "000000008001000000000000d03f01eea204040000000000000c4001",
);

#[test]
fn nxqt_full_table_bytes_are_pinned() {
    let bytes = encode_table(&base_table());
    assert_eq!(bytes, unhex(NXQT_FULL));
    let back: DenseQTable = decode_table(&unhex(NXQT_FULL)).expect("golden decodes");
    assert_eq!(back, base_table());
}

#[test]
fn nxqt_delta_bytes_are_pinned() {
    let delta = delta_between(&base_table(), &new_table()).expect("delta encodes");
    assert_eq!(delta, unhex(NXQT_DELTA));
    let back = apply_delta(&base_table(), &unhex(NXQT_DELTA)).expect("golden applies");
    assert_eq!(back, new_table());
}

/// Two records on a three-domain platform: a gap tick without an
/// action and a session tick with one.
fn two_record_trace() -> TickTrace {
    let gap = TickRecord::idle(1.0, SegmentKind::Gap, 0, 3);
    let session = TickRecord {
        time_s: 61.025,
        kind: SegmentKind::Session,
        pickup: 1,
        action: Some(4),
        reward: 0.75,
        fps: 58.5,
        power_w: 2.125,
        battery_pct: 0.5,
        temp_device_c: 31.25,
        temp_battery_c: 27.5,
        freq_level: vec![3, 7, 2],
        temp_domain_c: vec![40.5, 38.0, 35.25],
    };
    TickTrace {
        meta: TraceMeta::example(),
        records: vec![gap, session],
    }
}

const NXTR_TWO_RECORDS: &str = concat!(
    "4e585452010001039a9999999999993f0a006578796e6f733938313009007363",
    "6865647574696c050067616d6572070000000000000034000000000000000020",
    "bc40555555555555c53f0000000000002440000000000000f03f000000000000",
    "5e40000000000040af40cdcccccccccc0e400200000000000000000000000000",
    "f03f000000ffff0000000000000000cdcccc3d000000000000c8410000c84100",
    "00000000c8410000c8410000c8413333333333834e4001010004000000403f00",
    "006a42000008400000003f0000fa410000dc4103070200002242000018420000",
    "0d42",
);

#[test]
fn trace_bytes_are_pinned() {
    let bytes = two_record_trace().encode();
    assert_eq!(bytes, unhex(NXTR_TWO_RECORDS));
    let back = TickTrace::decode(&unhex(NXTR_TWO_RECORDS)).expect("golden decodes");
    assert_eq!(back, two_record_trace());
}
