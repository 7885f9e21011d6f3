//! Property tests and a rejection corpus for the hand-rolled JSON codec.
//!
//! The codec is the wire layer of the serving protocol, so its contract
//! is pinned from both sides:
//!
//! * **round-trip** — any [`Value`] the serializer can emit parses back
//!   to an equal value, and the serialization is a fixed point
//!   (serialize → parse → serialize is byte-stable);
//! * **no panics** — mutated documents (byte flips over valid JSON) are
//!   either parsed or rejected with an error, never a crash;
//! * **rejection corpus** — truncated documents, nested junk, numbers
//!   beyond `f64`, and invalid string escapes all fail loudly;
//! * **stable bytes** — [`Value::write_json`] emits exactly the bytes of
//!   a reference `fmt::Formatter` serializer kept below, so the wire
//!   format cannot drift;
//! * **linear time** — a multi-megabyte `border`-shaped reply parses and
//!   round-trips in well under a second of work per megabyte.

use std::fmt;
use std::time::{Duration, Instant};

use bmb_serve::json::{parse, Value};
use proptest::prelude::*;
use proptest::strategy::Strategy;
use proptest::TestRng;
use rand::Rng;

/// Generates arbitrary JSON values with bounded depth and width.
struct ArbValue {
    max_depth: usize,
}

impl Strategy for ArbValue {
    type Value = Value;

    fn generate(&self, rng: &mut TestRng) -> Value {
        gen_value(&mut rng.0, self.max_depth)
    }
}

fn gen_value(rng: &mut rand::rngs::StdRng, depth: usize) -> Value {
    // Leaves only at the bottom; containers become rarer with depth.
    let top = if depth == 0 { 5 } else { 7 };
    match rng.gen_range(0..top) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen_range(0..2) == 0),
        2 => Value::Int(gen_int(rng)),
        3 => Value::Float(gen_finite_float(rng)),
        4 => Value::Str(gen_string(rng)),
        5 => Value::Array(
            (0..rng.gen_range(0..4))
                .map(|_| gen_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.gen_range(0..4))
                .map(|_| (gen_string(rng), gen_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn gen_int(rng: &mut rand::rngs::StdRng) -> i64 {
    match rng.gen_range(0..4) {
        0 => *[0i64, 1, -1, i64::MAX, i64::MIN]
            .get(rng.gen_range(0..5usize))
            .unwrap_or(&0),
        1 => rng.gen_range(-1000..1000),
        _ => {
            use rand::RngCore;
            rng.next_u64() as i64
        }
    }
}

fn gen_finite_float(rng: &mut rand::rngs::StdRng) -> f64 {
    use rand::RngCore;
    // Mix of small decimals (integral ones included), the edge values the
    // `.0` suffix and shortest-roundtrip formatting must get right, and
    // raw bit patterns (filtered to finite so the value is
    // JSON-representable at all).
    match rng.gen_range(0..4) {
        0 => (rng.gen_range(-4000i64..4000) as f64) / 16.0,
        1 => *[
            -0.0,
            0.0,
            1e300,
            -1e22,
            f64::MAX,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
        ]
        .get(rng.gen_range(0..8usize))
        .unwrap_or(&0.0),
        // Subnormals: zero exponent, random mantissa, either sign.
        2 => f64::from_bits(rng.next_u64() & 0x800f_ffff_ffff_ffff),
        _ => loop {
            let f = f64::from_bits(rng.next_u64());
            if f.is_finite() {
                return f;
            }
        },
    }
}

fn gen_string(rng: &mut rand::rngs::StdRng) -> String {
    // A palette that exercises every escape path: quotes, backslashes,
    // control characters, multi-byte UTF-8, and the replacement char.
    const PALETTE: &[char] = &[
        'a', 'B', '7', ' ', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
        '\u{1f}', '\u{7f}', '/', 'é', '∆', '🦀', '\u{FFFD}', '{', '}', '[', ']', ':',
    ];
    let len = rng.gen_range(0..8);
    (0..len)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

/// The serializer as it was written against `fmt::Formatter` (one
/// `write!` per value and per string character, one `format!` per
/// float), kept as the reference the wire bytes are pinned to.
struct Reference<'a>(&'a Value);

impl fmt::Display for Reference<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Value::Null => f.write_str("null"),
            Value::Bool(true) => f.write_str("true"),
            Value::Bool(false) => f.write_str("false"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) if x.is_finite() => {
                let text = format!("{x}");
                if text.contains('.') {
                    f.write_str(&text)
                } else {
                    write!(f, "{text}.0")
                }
            }
            Value::Float(_) => f.write_str("null"),
            Value::Str(s) => reference_escaped(f, s),
            Value::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}", Reference(item))?;
                }
                f.write_str("]")
            }
            Value::Object(pairs) => {
                f.write_str("{")?;
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    reference_escaped(f, key)?;
                    f.write_str(":")?;
                    write!(f, "{}", Reference(value))?;
                }
                f.write_str("}")
            }
        }
    }
}

fn reference_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_str("\"")?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\r' => f.write_str("\\r")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    f.write_str("\"")
}

proptest! {
    #[test]
    fn writer_bytes_match_the_reference_serializer(value in ArbValue { max_depth: 4 }) {
        let reference = Reference(&value).to_string();
        // `write_json` appends: what is already in the buffer stays.
        let mut out = String::from("prefix:");
        value.write_json(&mut out);
        prop_assert_eq!(&out["prefix:".len()..], reference.as_str());
        prop_assert_eq!(value.to_string(), reference);
    }

    #[test]
    fn serialization_round_trips(value in ArbValue { max_depth: 4 }) {
        let text = value.to_string();
        let back = match parse(&text) {
            Ok(back) => back,
            Err(e) => return Err(TestCaseError::fail(format!(
                "serializer emitted unparseable JSON {text:?}: {e}"
            ))),
        };
        prop_assert_eq!(&back, &value, "value changed across round-trip: {}", text);
        // The serialization is a fixed point: no drift on re-encode.
        prop_assert_eq!(back.to_string(), text);
    }

    #[test]
    fn parser_survives_byte_flips(value in ArbValue { max_depth: 3 }, salt in 0u64..u64::MAX) {
        let text = value.to_string();
        if text.is_empty() {
            return Ok(());
        }
        // Replace one whole character with a printable ASCII byte
        // (keeping the buffer valid UTF-8 so it parses as a &str at all).
        let pos = (salt as usize) % text.len();
        if !text.is_char_boundary(pos) {
            return Ok(());
        }
        let end = pos
            + text[pos..]
                .chars()
                .next()
                .map_or(1, char::len_utf8);
        let replacement = (b' ' + ((salt >> 32) % 95) as u8) as char;
        let mutated = format!("{}{}{}", &text[..pos], replacement, &text[end..]);
        // Parsing must terminate with a clean verdict, and anything it
        // accepts must itself round-trip.
        if let Ok(reparsed) = parse(&mutated) {
            let text2 = reparsed.to_string();
            let again = match parse(&text2) {
                Ok(again) => again,
                Err(e) => return Err(TestCaseError::fail(format!(
                    "accepted {mutated:?} but re-serialization {text2:?} fails: {e}"
                ))),
            };
            prop_assert_eq!(again, reparsed);
        }
    }
}

/// Documents the parser rejects, grouped by failure family. Every entry
/// must produce an error (never a panic, never silent acceptance).
#[test]
fn rejection_corpus() {
    let corpus: &[(&str, &str)] = &[
        // Truncated documents.
        ("truncated", r#"{"a":"#),
        ("truncated", r#"{"a""#),
        ("truncated", r#"["#),
        ("truncated", r#"[1,2"#),
        ("truncated", r#"[1,"#),
        ("truncated", r#""abc"#),
        ("truncated", r#"{"#),
        ("truncated", "tru"),
        ("truncated", "-"),
        ("truncated", ""),
        // Structurally nested junk.
        ("nested junk", r#"{"a":[}]"#),
        ("nested junk", r#"[{]}"#),
        ("nested junk", r#"{"a" 1}"#),
        ("nested junk", r#"{1:2}"#),
        ("nested junk", r#"[1 2]"#),
        ("nested junk", r#"{"a":1,}"#),
        ("nested junk", r#"[1,]"#),
        ("nested junk", r#"{,}"#),
        // Numbers f64 cannot hold (would round to infinity) or cannot read.
        ("huge number", "1e999"),
        ("huge number", "-1e999"),
        ("huge number", "1e99999999999999999999"),
        ("huge number", "1.8e308"),
        ("bad number", "1e"),
        ("bad number", "1.2.3"),
        ("bad number", "--1"),
        ("bad number", "1e+-2"),
        // Invalid string escapes.
        ("bad escape", r#""\x""#),
        ("bad escape", r#""\u12""#),
        ("bad escape", r#""\u12G4""#),
        ("bad escape", r#""\"#),
        ("bad escape", "\"\u{1}\""), // raw control char in a string
        // Trailing garbage after a complete document.
        ("trailing", "1 2"),
        ("trailing", "{} {}"),
        ("trailing", "null,"),
    ];
    for (family, doc) in corpus {
        assert!(
            parse(doc).is_err(),
            "{family}: {doc:?} must be rejected, parsed as {:?}",
            parse(doc)
        );
    }
    // Depth bombs: past the recursion guard the parser errors instead of
    // blowing the stack.
    let deep = format!("{}1{}", "[".repeat(1000), "]".repeat(1000));
    assert!(parse(&deep).is_err(), "1000-deep nesting must be rejected");
}

/// The documented accept-side edge cases stay accepted (so the corpus
/// above can't silently over-tighten the parser).
#[test]
fn acceptance_edges() {
    // Lone surrogates degrade to U+FFFD rather than erroring.
    assert_eq!(
        parse(r#""\ud800x""#).expect("lone surrogate accepted"),
        Value::Str("\u{FFFD}x".to_string())
    );
    // Surrogate pairs combine into one scalar.
    assert_eq!(
        parse(r#""\ud83e\udd80""#).expect("surrogate pair accepted"),
        Value::Str("🦀".to_string())
    );
    // The largest exactly representable magnitudes still parse.
    assert_eq!(
        parse("1.7976931348623157e308").expect("f64::MAX parses"),
        Value::Float(f64::MAX)
    );
    assert_eq!(
        parse("9223372036854775807").expect("i64::MAX parses"),
        Value::Int(i64::MAX)
    );
    // Integer overflow beyond i64 falls back to float, not an error.
    assert_eq!(
        parse("9223372036854775808").expect("i64::MAX+1 parses as float"),
        Value::Float(9.223372036854776e18)
    );
}

/// One `border` reply line as the server frames it, with `sets`
/// significant itemsets.
fn border_reply(sets: usize) -> Value {
    let significant = (0..sets)
        .map(|i| {
            let a = (i % 500) as i64;
            Value::object()
                .with(
                    "itemset",
                    Value::Array(vec![Value::Int(a), Value::Int(a + 1 + (i / 500) as i64)]),
                )
                .with("statistic", Value::Float(3.841 + i as f64 / 7.0))
                .with("support_cells", Value::Int(1 + (i % 4) as i64))
        })
        .collect();
    let result = Value::object()
        .with("epoch", Value::Int(60_000))
        .with("support_count", Value::Int(600))
        .with("chi2_cutoff", Value::Float(3.841_458_820_694_124))
        .with("significant", Value::Array(significant));
    Value::object()
        .with("id", Value::Int(1))
        .with("ok", Value::Bool(true))
        .with("result", result)
        .with("trace", Value::Str("00000000000000ab".to_string()))
}

/// A multi-megabyte reply parses and round-trips in time linear in its
/// length. A parser that re-validates the rest of the line for every
/// string character needs minutes on this line; the bound is far above
/// what a debug build of a linear codec needs (well under a second).
#[test]
fn a_multi_megabyte_border_reply_parses_in_linear_time() {
    let reply = border_reply(60_000);
    let line = reply.to_string();
    assert!(
        line.len() >= 2_000_000,
        "reply is only {} bytes",
        line.len()
    );
    let started = Instant::now();
    let parsed = parse(&line).expect("the reply parses");
    let mut again = String::new();
    parsed.write_json(&mut again);
    let elapsed = started.elapsed();
    assert_eq!(parsed, reply);
    assert!(again == line, "re-serialization changed the bytes");
    assert!(
        elapsed < Duration::from_secs(20),
        "parse + write of {} bytes took {elapsed:?}",
        line.len()
    );
}
