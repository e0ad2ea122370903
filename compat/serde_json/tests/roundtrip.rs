//! `from_str ∘ to_string = id` and `from_str ∘ to_string_pretty = id` over
//! arbitrary [`Value`] trees: whatever the writer emits — any escape, any
//! finite float down to the subnormals, empty and nested containers,
//! duplicate keys — the reader takes back to the same tree.

use proptest::collection::vec;
use proptest::prelude::*;
use serde::Value;

/// Builds a tree from a stream of draws (zeros once it runs dry, which ends
/// the tree). Only values the text can tell apart are built: integers below
/// zero as `Int` and the rest as `UInt`, floats finite.
fn tree(draws: &mut impl Iterator<Item = u64>, depth: usize) -> Value {
    let d = draws.next().unwrap_or(0);
    let len = (d >> 8) as usize % 4;
    match d % if depth < 4 { 8 } else { 6 } {
        0 => Value::Null,
        1 => Value::Bool(d & 8 != 0),
        2 => Value::UInt(d >> 3),
        3 => Value::Int(-((d >> 3) as i64) - 1),
        4 => Value::Float(
            Some(f64::from_bits(draws.next().unwrap_or(0)))
                .filter(|f| f.is_finite())
                .unwrap_or(-0.0),
        ),
        5 => Value::Str(text(draws, len * 3)),
        6 => Value::Array((0..len).map(|_| tree(draws, depth + 1)).collect()),
        _ => Value::Object(
            (0..len)
                .map(|_| (text(draws, 2), tree(draws, depth + 1)))
                .collect(),
        ),
    }
}

/// Up to `len` characters: quotes, backslashes, controls, ASCII, and the
/// rest of Unicode (surrogates fall back to `\u{7f}`).
fn text(draws: &mut impl Iterator<Item = u64>, len: usize) -> String {
    (0..len)
        .filter_map(|_| draws.next())
        .map(|d| match d % 5 {
            0 => ['"', '\\', '/', '\n', '\t', '\r', '\u{8}', '\u{c}'][(d >> 3) as usize % 8],
            1 => char::from((d >> 3) as u8 % 0x20),
            2 => char::from(0x20 + (d >> 3) as u8 % 0x5f),
            _ => char::from_u32((d >> 3) as u32 % 0x11_0000).unwrap_or('\u{7f}'),
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn written_trees_read_back_identical(draws in vec(any::<u64>(), 0..96)) {
        let value = tree(&mut draws.into_iter(), 0);
        let compact = serde_json::to_string(&value).unwrap();
        let from_compact: Value = serde_json::from_str(&compact).unwrap();
        prop_assert_eq!(&from_compact, &value, "{}", compact);
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        let from_pretty: Value = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&from_pretty, &value, "{}", pretty);
    }
}
