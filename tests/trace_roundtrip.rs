//! Property-based round-trip of the binary trace codec.
//!
//! For arbitrary metadata and record streams, `encode` → `decode` must
//! be the identity, and the encoding must be a fixpoint (decoding and
//! re-encoding reproduces the exact bytes — the property `next-sim
//! replay` builds its byte-identity check on). Corruption properties
//! pin the other direction: a truncated file never parses, and a file
//! with any byte overwritten either fails with a typed error or decodes
//! to a trace that re-encodes to exactly the corrupted bytes — never a
//! panic, never a silent normalisation.

use proptest::prelude::*;

use next_mpsoc::simkit::trace::{SegmentKind, TickRecord, TickTrace, TraceMeta};
use next_mpsoc::workload::DayPlanConfig;

/// One generated record: (time, kind, pickup, action, reward, fps,
/// power, battery, temp_device, temp_battery). Domain arrays are
/// derived from the scalars so the tuple stays within proptest's
/// 10-element limit.
type RecTuple = (f64, u8, u16, u16, f32, f32, f32, f32, f32, f32);

fn record_from(t: &RecTuple, n_domains: usize) -> TickRecord {
    let &(time_s, kind, pickup, action, reward, fps, power_w, battery_pct, temp_d, temp_b) = t;
    TickRecord {
        time_s,
        kind: if kind == 0 {
            SegmentKind::Gap
        } else {
            SegmentKind::Session
        },
        pickup,
        // Spread actions over Some/None, including the largest encodable
        // value (u16::MAX - 1; MAX itself is the None sentinel).
        action: (action % 5 != 0).then_some(action.saturating_sub(1).min(u16::MAX - 1)),
        reward,
        fps,
        power_w,
        battery_pct,
        temp_device_c: temp_d,
        temp_battery_c: temp_b,
        freq_level: (0..n_domains)
            .map(|d| (pickup as usize + d) as u8)
            .collect(),
        temp_domain_c: (0..n_domains).map(|d| temp_d + d as f32).collect(),
    }
}

fn meta_from(n_domains: usize, seed: u64, pickups: u32, gap_tick_s: f64) -> TraceMeta {
    TraceMeta {
        platform: format!("soc-{n_domains}"),
        governor: "next".to_owned(),
        persona: "gamer".to_owned(),
        seed,
        plan: DayPlanConfig {
            pickups: pickups.max(1),
            day_length_s: 7200.0,
            session_scale: 0.25,
            min_session_s: 10.0,
        },
        gap_tick_s,
        train_budget_s: 120.0,
        battery: next_mpsoc::simkit::Battery::note9(),
        tick_s: 0.025,
        n_domains: n_domains as u8,
    }
}

proptest! {
    /// decode(encode(trace)) == trace, and encode is a fixpoint.
    #[test]
    fn codec_roundtrips_arbitrary_traces(
        n_domains in 1usize..9,
        seed in 0u64..1_000_000,
        pickups in 1u32..200,
        gap_tick_s in 0.1f64..5.0,
        recs in proptest::collection::vec(
            (
                0f64..57_600.0,
                0u8..2,
                0u16..64,
                0u16..40,
                -1.0f32..1.0,
                0f32..120.0,
                0f32..12.0,
                0f32..100.0,
                15f32..95.0,
                15f32..60.0,
            ),
            0..40,
        ),
    ) {
        let trace = TickTrace {
            meta: meta_from(n_domains, seed, pickups, gap_tick_s),
            records: recs.iter().map(|t| record_from(t, n_domains)).collect(),
        };
        let bytes = trace.encode();
        let back = TickTrace::decode(&bytes).expect("valid encoding must decode");
        prop_assert_eq!(&back, &trace, "decode must invert encode");
        prop_assert_eq!(back.encode(), bytes, "encode must be a fixpoint");
    }

    /// Truncating an encoded trace anywhere strictly inside it must be
    /// rejected — the codec never fabricates records from a short file.
    #[test]
    fn truncation_never_parses(
        n_domains in 1usize..9,
        cut_frac in 0.01f64..0.99,
        recs in proptest::collection::vec(
            (
                0f64..1000.0,
                0u8..2,
                0u16..8,
                0u16..40,
                -1.0f32..1.0,
                0f32..120.0,
                0f32..12.0,
                0f32..100.0,
                15f32..95.0,
                15f32..60.0,
            ),
            1..10,
        ),
    ) {
        let trace = TickTrace {
            meta: meta_from(n_domains, 7, 3, 1.0),
            records: recs.iter().map(|t| record_from(t, n_domains)).collect(),
        };
        let bytes = trace.encode();
        let cut = ((bytes.len() as f64 * cut_frac) as usize).clamp(1, bytes.len() - 1);
        prop_assert!(
            TickTrace::decode(&bytes[..cut]).is_err(),
            "truncation at byte {cut} of {} must not parse",
            bytes.len()
        );
    }

    /// Overwriting any one byte never panics, and whatever still
    /// decodes is exactly what the bytes say: it re-encodes to them.
    #[test]
    fn byte_flips_never_panic_or_normalise(
        n_domains in 1usize..9,
        at in 0usize..4096,
        to in 0u16..256,
        recs in proptest::collection::vec(
            (
                0f64..1000.0,
                0u8..2,
                0u16..8,
                0u16..40,
                -1.0f32..1.0,
                0f32..120.0,
                0f32..12.0,
                0f32..100.0,
                15f32..95.0,
                15f32..60.0,
            ),
            1..6,
        ),
    ) {
        let trace = TickTrace {
            meta: meta_from(n_domains, 7, 3, 1.0),
            records: recs.iter().map(|t| record_from(t, n_domains)).collect(),
        };
        let mut bytes = trace.encode();
        let at = at % bytes.len();
        bytes[at] = to as u8;
        if let Ok(back) = TickTrace::decode(&bytes) {
            prop_assert_eq!(back.encode(), bytes, "decode must not normalise byte {}", at);
        }
    }
}
