//! Corruption fuzzing for the sealed aggregate summary decoder: byte
//! flips, splices, truncations and garbage over valid `WheelSummary`
//! encodings must never panic or over-allocate — `WheelSummary::decode`
//! either succeeds or fails with a typed [`WwError::Corrupt`].
//!
//! A summary carries an FNV-1a checksum over its body, so most random
//! damage is caught there. Half the cases re-stamp the checksum after
//! corrupting, which drives the damage past it into the ring and cell
//! parsing. Same SplitMix64 idiom as `crates/storage/tests/chunk_fuzz.rs`.

use proptest::prelude::*;
use waterwheel_agg::WheelSummary;
use waterwheel_core::codec::fnv1a;
use waterwheel_core::WwError;

/// Deterministic per-case generator (SplitMix64).
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// A valid summary whose slice width, ring cap, and time spread (so which
/// granularity rings survive) vary with the seed.
fn valid_summary(g: &mut Gen) -> WheelSummary {
    let n = g.below(400);
    let span = [1_000, 120_000, 7_200_000, 400_000_000][g.below(4) as usize];
    let tuples: Vec<(u64, u64, u64)> = (0..n)
        .map(|_| (g.next(), g.below(span), g.below(1_000)))
        .collect();
    let slice_bits = 1 + g.below(16) as u8;
    let max_cells = 1 + g.below(512) as usize;
    WheelSummary::build(tuples, slice_bits, max_cells)
}

/// Applies one of: byte flips, a truncation, a random splice, or a hostile
/// extension — then, half the time, re-stamps the trailing checksum.
fn corrupt(g: &mut Gen, bytes: &mut Vec<u8>) {
    match g.below(4) {
        0 => {
            for _ in 0..=g.below(8) {
                let i = g.below(bytes.len() as u64) as usize;
                bytes[i] ^= (1 + g.below(255)) as u8;
            }
        }
        1 => bytes.truncate(g.below(bytes.len() as u64 + 1) as usize),
        2 => {
            let start = g.below(bytes.len() as u64) as usize;
            let end = (start + 1 + g.below(64) as usize).min(bytes.len());
            for b in &mut bytes[start..end] {
                *b = g.next() as u8;
            }
        }
        _ => {
            // Splice garbage in before the checksum.
            let at = bytes.len().saturating_sub(8);
            let extra: Vec<u8> = (0..1 + g.below(512)).map(|_| g.next() as u8).collect();
            bytes.splice(at..at, extra);
        }
    }
    if g.below(2) == 0 {
        restamp(bytes);
    }
}

/// Rewrites the trailing checksum so it matches the (damaged) body.
fn restamp(bytes: &mut [u8]) {
    if bytes.len() >= 16 {
        let at = bytes.len() - 8;
        let sum = fnv1a(&bytes[..at]);
        bytes[at..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// Decodes `bytes` and, when that succeeds, touches the decoded summary's
/// accessors; anything but `Ok` or `Corrupt` fails the case.
fn exercise(bytes: &[u8]) -> Result<(), TestCaseError> {
    match WheelSummary::decode(bytes) {
        Ok(summary) => {
            let _ = (summary.cell_count(), summary.levels(), summary.hull());
            let _ = summary.measure_bounds();
        }
        Err(e) => prop_assert!(matches!(e, WwError::Corrupt { .. }), "decode: {e}"),
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Valid summaries round-trip bit for bit — the harness's own sanity
    /// check, so corruption results below can't hide a broken generator.
    #[test]
    fn valid_summaries_round_trip(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let summary = valid_summary(&mut g);
        let bytes = summary.encode();
        let back = WheelSummary::decode(&bytes).unwrap();
        prop_assert_eq!(&back, &summary);
        prop_assert_eq!(back.encode(), bytes);
    }

    /// Corrupted summaries never panic and never produce an untyped error.
    #[test]
    fn corrupted_summaries_fail_closed(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let mut bytes = valid_summary(&mut g).encode();
        corrupt(&mut g, &mut bytes);
        exercise(&bytes)?;
    }

    /// Pure garbage, with a valid checksum half the time, is rejected just
    /// as safely.
    #[test]
    fn random_bytes_fail_closed(seed in 0u64..u64::MAX) {
        let mut g = Gen(seed);
        let len = g.below(4_096) as usize;
        let mut bytes: Vec<u8> = (0..len).map(|_| g.next() as u8).collect();
        if g.below(2) == 0 {
            restamp(&mut bytes);
        }
        exercise(&bytes)?;
    }
}
