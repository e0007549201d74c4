//! Frozen-behaviour tests for dike-util.
//!
//! The golden vectors here pin the RNG stream and JSON output shape: any
//! change to either silently invalidates recorded experiment results and
//! seeded test expectations across the workspace, so a change that trips
//! these tests must be treated as a breaking change, not a refactor.

use dike_util::check::check;
use dike_util::json::{self, FromJson, ToJson};
use dike_util::{json_enum, json_newtype, json_struct, Pcg32, SliceRandom};

/// First eight `next_u32` outputs of `Pcg32::seed_from_u64(42)`.
///
/// Golden: regenerate only on a deliberate stream break (see module doc).
const GOLDEN_SEED42_U32: [u32; 8] = [
    3508393247, 2846903365, 3050928809, 2850731726, 4131377665, 2643455979, 3642635281, 4055695308,
];

/// First four `next_u64` outputs of `Pcg32::seed_from_u64(0)`.
const GOLDEN_SEED0_U64: [u64; 4] = [
    5051042479238038049,
    12622467182322506189,
    11644819991971040113,
    12607984752632713414,
];

/// `(0..10).shuffle` under seed 7 — pins `SliceRandom` on top of the raw
/// stream.
const GOLDEN_SHUFFLE_SEED7: [u32; 10] = [5, 2, 8, 9, 7, 1, 4, 0, 6, 3];

#[test]
fn rng_stream_is_frozen() {
    let mut rng = Pcg32::seed_from_u64(42);
    let got: Vec<u32> = (0..8).map(|_| rng.next_u32()).collect();
    assert_eq!(
        got, GOLDEN_SEED42_U32,
        "Pcg32 u32 stream changed — breaking for all seeded fixtures"
    );

    let mut rng = Pcg32::seed_from_u64(0);
    let got: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
    assert_eq!(
        got, GOLDEN_SEED0_U64,
        "Pcg32 u64 stream changed — breaking for all seeded fixtures"
    );

    let mut rng = Pcg32::seed_from_u64(7);
    let mut v: Vec<u32> = (0..10).collect();
    v.shuffle(&mut rng);
    assert_eq!(
        v.as_slice(),
        GOLDEN_SHUFFLE_SEED7,
        "shuffle order changed — breaking for all seeded fixtures"
    );
}

#[test]
fn gen_range_is_uniform_enough() {
    // Coarse balance check: over 8k draws from 8 buckets, each bucket gets
    // within ±25% of the expected 1k. Catches gross bias (e.g. modulo bias
    // or a broken rotate), not subtle statistical flaws.
    let mut rng = Pcg32::seed_from_u64(99);
    let mut buckets = [0u32; 8];
    for _ in 0..8000 {
        buckets[rng.gen_range(0usize..8)] += 1;
    }
    for (i, &b) in buckets.iter().enumerate() {
        assert!(
            (750..=1250).contains(&b),
            "bucket {i} got {b} of 8000 draws: {buckets:?}"
        );
    }
}

// ---- json round-trips on fixture-shaped structs -----------------------

#[derive(Debug, Clone, PartialEq)]
struct FixtureId(u64);
json_newtype!(FixtureId);

#[derive(Debug, Clone, PartialEq)]
enum FixtureKind {
    Fast,
    Slow,
    Seeded(u64),
}
json_enum!(FixtureKind { Fast, Slow } { Seeded(u64) });

#[derive(Debug, Clone, PartialEq)]
struct FixtureCell {
    id: FixtureId,
    kind: FixtureKind,
    label: String,
    fairness: f64,
    trace: Vec<(f64, f64)>,
    note: Option<String>,
}
json_struct!(FixtureCell {
    id,
    kind,
    label,
    fairness,
    trace,
    note
});

fn arb_cell(rng: &mut Pcg32) -> FixtureCell {
    let kind = match rng.gen_range(0u32..3) {
        0 => FixtureKind::Fast,
        1 => FixtureKind::Slow,
        _ => FixtureKind::Seeded(rng.next_u64()),
    };
    let trace = (0..rng.gen_range(0usize..6))
        .map(|_| (rng.gen_range(0.0..100.0), rng.gen_range(0.0..2.0)))
        .collect();
    FixtureCell {
        id: FixtureId(rng.next_u64()),
        kind,
        label: format!("cell-{}", rng.gen_range(0u32..1000)),
        fairness: rng.gen_range(0.0..1.0),
        trace,
        note: if rng.gen_bool() {
            Some("quote \" backslash \\ newline \n".to_string())
        } else {
            None
        },
    }
}

#[test]
fn json_round_trip_on_fixture_structs() {
    check("json_round_trip", 64, |rng| {
        let cell = arb_cell(rng);
        let s = json::to_string(&cell);
        let back: FixtureCell = json::from_str(&s).expect("round trip parses");
        assert_eq!(back, cell, "round trip mismatch for {s}");
        // Serialization is a pure function of the value.
        assert_eq!(json::to_string(&back), s);
    });
}

#[test]
fn json_output_shape_is_frozen() {
    let cell = FixtureCell {
        id: FixtureId(18_446_744_073_709_551_615),
        kind: FixtureKind::Seeded(7),
        label: "x".into(),
        fairness: 1.0,
        trace: vec![(0.5, 2.0)],
        note: None,
    };
    assert_eq!(
        cell.to_json(),
        "{\"id\":18446744073709551615,\"kind\":{\"Seeded\":7},\"label\":\"x\",\
         \"fairness\":1.0,\"trace\":[[0.5,2.0]],\"note\":null}",
        "json shape changed — breaking for recorded fixtures"
    );
    assert_eq!(FixtureKind::Fast.to_json(), "\"Fast\"");
    assert_eq!(
        FixtureCell::from_json(&cell.to_json()).unwrap().id,
        FixtureId(u64::MAX)
    );
}

/// Characters a hostile or mangled document is made of: JSON structure,
/// escapes, number syntax, control characters and multi-byte text.
const JSON_PALETTE: &[char] = &[
    '[', ']', '{', '}', '"', '\\', ',', ':', ' ', '\n', '-', '+', '.', 'e', 'E', '0', '1', '9',
    'n', 'u', 'l', 't', 'r', 'f', 'a', 's', 'x', '/', 'b', '\u{0}', '\u{1f}', '\u{7f}', 'é', '√',
    '\u{2028}', '😀',
];

fn arb_text(rng: &mut Pcg32, max_len: usize) -> String {
    (0..rng.gen_range(0..max_len))
        .map(|_| JSON_PALETTE[rng.gen_range(0..JSON_PALETTE.len())])
        .collect()
}

/// A random number in the shape the writer renders it (a non-negative
/// integer is a `U`, so `I` is negative), edge values included.
fn arb_num(rng: &mut Pcg32) -> json::Num {
    use json::Num;
    match rng.gen_range(0u32..7) {
        0 => Num::U(rng.next_u64()),
        1 => Num::U([0, 1, u64::MAX][rng.gen_range(0usize..3)]),
        2 => Num::I(-((rng.next_u64() >> 1) as i64) - 1),
        3 => Num::I([i64::MIN, -1][rng.gen_range(0usize..2)]),
        4 => {
            let f = f64::from_bits(rng.next_u64());
            Num::F(if f.is_finite() { f } else { 0.5 })
        }
        5 => Num::F(rng.gen_range(-1e6..1e6)),
        _ => {
            let edges = [
                0.0,
                -0.0,
                3.0,
                f64::MAX,
                f64::MIN,
                f64::MIN_POSITIVE,
                5e-324,
            ];
            Num::F(edges[rng.gen_range(0..edges.len())])
        }
    }
}

fn arb_value(rng: &mut Pcg32, depth: u32) -> json::Value {
    use json::Value;
    match rng.gen_range(0..if depth == 0 { 4u32 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_bool()),
        2 => Value::Num(arb_num(rng)),
        3 => Value::Str(arb_text(rng, 12)),
        4 => Value::Array(
            (0..rng.gen_range(0usize..4))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0usize..4))
                .map(|_| (arb_text(rng, 6), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn json_parse_survives_hostile_input() {
    check("json_parse_survives_hostile_input", 256, |rng| {
        // Rendered values round-trip, and rendering is a pure function.
        let value = arb_value(rng, 4);
        let text = value.render();
        let back = json::parse(&text).expect("a rendered value parses");
        assert_eq!(back, value, "round trip mismatch for {text}");
        assert_eq!(back.render(), text);

        // Arbitrary text and mutated documents return, never panic; what
        // parses renders to a document that parses again (not always to
        // itself: an overflowing number parses as infinity, which renders
        // as `null`).
        let mut mutated: Vec<char> = text.chars().collect();
        for _ in 0..rng.gen_range(1u32..5) {
            let at = rng.gen_range(0..mutated.len() + 1);
            match rng.gen_range(0u32..3) {
                0 if at < mutated.len() => {
                    let end = rng.gen_range(at..mutated.len()) + 1;
                    mutated.drain(at..end);
                }
                1 if at < mutated.len() => {
                    mutated[at] = JSON_PALETTE[rng.gen_range(0..JSON_PALETTE.len())];
                }
                _ => mutated.insert(at, JSON_PALETTE[rng.gen_range(0..JSON_PALETTE.len())]),
            }
        }
        let mutated: String = mutated.into_iter().collect();
        for input in [mutated, arb_text(rng, 48)] {
            if let Ok(v) = json::parse(&input) {
                assert!(json::parse(&v.render()).is_ok(), "for input {input:?}");
            }
        }
    });

    // Ten thousand levels would overflow the stack of a parser without a
    // depth limit; they must come back as an error instead.
    for open in ["[", "{\"k\":", "[{\"k\":"] {
        let deep = open.repeat(10_000);
        assert!(json::parse(&deep).is_err());
        let closed = format!(
            "{deep}0{}",
            open.chars()
                .filter_map(|c| match c {
                    '[' => Some(']'),
                    '{' => Some('}'),
                    _ => None,
                })
                .collect::<String>()
                .repeat(10_000)
        );
        assert!(json::parse(&closed).is_err());
    }
}
