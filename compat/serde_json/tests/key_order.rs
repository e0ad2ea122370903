//! A derived struct reads the same value whatever the order, spelling and
//! spacing of its keys: the text is varied around one written value —
//! keys permuted, unknown keys inserted, a key repeated (the first wins),
//! a key spelled with a `\u` escape, whitespace around `:` and `,` — and
//! every variant must read back to what the canonical text reads. A missing
//! field or a bad value is reported with the same text in any key order.

use proptest::collection::vec;
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Point {
    x: i32,
    y: f64,
}

/// Five keys: `a` is a prefix of `ab`, `ab` is optional, `point` nests a
/// struct, and `cache` is never written.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Rec {
    a: u64,
    ab: Option<String>,
    point: Point,
    #[serde(skip)]
    cache: u32,
    flag: bool,
    tail: Vec<u16>,
}

/// A stream of draws, zeros once it runs dry.
struct Draws(std::vec::IntoIter<u64>);

impl Draws {
    fn next(&mut self) -> u64 {
        self.0.next().unwrap_or(0)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'s>(&mut self, options: &[&'s str]) -> &'s str {
        options[self.below(options.len())]
    }
}

fn rec(d: &mut Draws) -> Rec {
    Rec {
        a: d.next() >> d.below(64),
        ab: match d.below(3) {
            0 => None,
            1 => Some(String::new()),
            _ => Some(format!("s\"{}\n", d.next() % 1000)),
        },
        point: Point {
            x: d.next() as i32,
            y: f64::from_bits(d.next() >> 2) - 1.0,
        },
        cache: 7,
        flag: d.next().is_multiple_of(2),
        tail: (0..d.below(4)).map(|_| d.next() as u16).collect(),
    }
}

/// The written fields in declared order, as (key, value text).
fn entries(r: &Rec) -> Vec<(String, String)> {
    fn text(value: &impl Serialize) -> String {
        serde_json::to_string(value).unwrap()
    }
    [
        ("a", text(&r.a)),
        ("ab", text(&r.ab)),
        ("point", text(&r.point)),
        ("flag", text(&r.flag)),
        ("tail", text(&r.tail)),
    ]
    .map(|(key, value)| (key.to_string(), value))
    .to_vec()
}

/// `key` with its character at `at` spelled as a `\u` escape.
fn escaped(key: &str, at: usize, upper: bool) -> String {
    key.char_indices()
        .map(|(i, c)| match (i == at % key.len(), upper) {
            (true, false) => format!("\\u{:04x}", c as u32),
            (true, true) => format!("\\u{:04X}", c as u32),
            (false, _) => c.to_string(),
        })
        .collect()
}

/// `{ "key": value, … }` with drawn whitespace around every `:` and `,`.
fn object(entries: &[(String, String)], d: &mut Draws) -> String {
    const WS: [&str; 5] = ["", " ", "\n  ", "\t", "\r\n "];
    let mut s = String::from("{");
    for (i, (key, value)) in entries.iter().enumerate() {
        if i > 0 {
            s.push_str(d.pick(&WS));
            s.push(',');
        }
        s.push_str(d.pick(&WS));
        s.push_str(&format!("\"{key}\""));
        s.push_str(d.pick(&WS));
        s.push(':');
        s.push_str(d.pick(&WS));
        s.push_str(value);
    }
    s.push_str(d.pick(&WS));
    s + "}"
}

fn permute<T>(items: &mut [T], d: &mut Draws) {
    for i in (1..items.len()).rev() {
        items.swap(i, d.below(i + 1));
    }
}

/// The same fields as `entries`, varied: permuted, some keys escaped, an
/// absent `ab` sometimes left out, unknown keys and one repeat inserted.
fn variant(canonical: &[(String, String)], d: &mut Draws) -> Vec<(String, String)> {
    let mut fields = canonical.to_vec();
    permute(&mut fields, d);
    for (key, _) in &mut fields {
        if d.below(3) == 0 {
            *key = escaped(key, d.below(8), d.below(2) == 0);
        }
    }
    if d.below(2) == 0 {
        fields.retain(|(key, value)| !(key == "ab" && value == "null"));
    }
    for _ in 0..d.below(3) {
        let key = d.pick(&["cache", "zz", "", "b", "a\\n", "aba", "Ab", "point2"]);
        let value = d.pick(&["null", "[1,{\"a\":[]}]", "\"x\"", "-1.5e3", "{\"a\":7}"]);
        let at = d.below(fields.len() + 1);
        fields.insert(at, (key.to_string(), value.to_string()));
    }
    // A repeat after the first occurrence, with a value of another type:
    // it is skipped, never read.
    let (key, value) = &canonical[d.below(canonical.len())];
    if let Some(first) = fields.iter().position(|f| &f.0 == key && &f.1 == value) {
        let at = first + 1 + d.below(fields.len() - first);
        fields.insert(at, (key.clone(), "\"repeat\"".to_string()));
    }
    fields
}

fn read(text: &str) -> Result<Rec, String> {
    serde_json::from_str::<Rec>(text).map_err(|e| e.to_string())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn every_key_order_reads_the_canonical_value(draws in vec(any::<u64>(), 96)) {
        let d = &mut Draws(draws.into_iter());
        let value = rec(d);
        let want = Rec { cache: 0, ..value.clone() };
        prop_assert_eq!(read(&serde_json::to_string(&value).unwrap()), Ok(want.clone()));
        prop_assert_eq!(read(&serde_json::to_string_pretty(&value).unwrap()), Ok(want.clone()));
        let canonical = entries(&value);
        for _ in 0..4 {
            let text = object(&variant(&canonical, d), d);
            prop_assert_eq!(read(&text), Ok(want.clone()), "{}", text);
        }
    }

    #[test]
    fn defects_read_alike_in_any_key_order(draws in vec(any::<u64>(), 64)) {
        let d = &mut Draws(draws.into_iter());
        let mut fields = entries(&rec(d));
        let (key, bad) = [
            ("a", Some("\"1\"")),
            ("a", Some("-1")),
            ("a", Some("1.5")),
            ("a", None),
            ("ab", Some("7")),
            ("point", Some("{\"x\":1.5,\"y\":0}")),
            ("point", Some("{\"y\":0}")),
            ("point", Some("[1,2]")),
            ("point", None),
            ("flag", Some("0")),
            ("flag", None),
            ("tail", Some("[1,65536]")),
            ("tail", Some("{}")),
            ("tail", None),
        ][d.below(14)];
        match bad {
            Some(bad) => fields.iter_mut().filter(|(k, _)| k == key).for_each(|(_, v)| *v = bad.to_string()),
            None => fields.retain(|(k, _)| k != key),
        }
        let in_order = read(&object(&fields, d));
        prop_assert!(in_order.is_err(), "{key} {bad:?} read as {in_order:?}");
        for _ in 0..4 {
            permute(&mut fields, d);
            let text = object(&fields, d);
            prop_assert_eq!(read(&text), in_order.clone(), "{}", text);
        }
    }
}

/// The edges of declared-order reading, each once: a key that is a prefix of
/// the next, an escaped or unknown first key, an early `}`, repeats.
#[test]
fn declared_order_edges() {
    let want = Rec {
        a: 1,
        ab: Some("s".into()),
        point: Point { x: 2, y: 0.5 },
        cache: 0,
        flag: true,
        tail: vec![3],
    };
    for text in [
        r#"{"a":1,"ab":"s","point":{"x":2,"y":0.5},"flag":true,"tail":[3]}"#,
        // `ab` before `a`, and `ab` spelled as `a` + escape.
        r#"{"ab":"s","a":1,"point":{"x":2,"y":0.5},"flag":true,"tail":[3]}"#,
        r#"{"a":1,"a\u0062":"s","point":{"x":2,"y":0.5},"flag":true,"tail":[3]}"#,
        r#"{"\u0061":1,"ab":"s","point":{"x":2,"y":0.5},"flag":true,"tail":[3]}"#,
        // Unknown keys first, between and last; the skipped field is one,
        // and one spells a declared key, a space and a colon.
        r#"{"a :":7,"a":1,"ab":"s","point":{"x":2,"y":0.5},"flag":true,"tail":[3]}"#,
        r#"{"cache":9,"a":1,"ab":"s","point":{"y":0.5,"x":2,"z":[]},"flag":true,"tail":[3],"zz":{}}"#,
        // Repeats: the first wins, the repeat is only validated.
        r#"{"a":1,"a":2,"ab":"s","ab":null,"point":{"x":2,"x":"x","y":0.5},"flag":true,"tail":[3],"flag":0}"#,
        " {\n \"a\" :\t1 ,\"ab\"\r\n:\"s\", \"point\" : { \"x\" : 2 , \"y\" : 0.5 } , \"flag\":true,\"tail\":[3] } ",
    ] {
        assert_eq!(read(text), Ok(want.clone()), "{text}");
    }
    assert_eq!(read("{}"), Err("missing field `a`".to_string()));
    assert_eq!(read(r#"{"a":1}"#), Err("missing field `point`".to_string()));
    assert_eq!(
        read(r#"{"a":1,"ab":null,"point":{"x":2,"y":0.5},"flag":true,"tail":[3]}"#),
        Ok(Rec {
            ab: None,
            ..want.clone()
        })
    );
    assert_eq!(
        read(r#"{"a":1 "ab":null}"#),
        Err("expected `,` or `}` at byte 7".to_string())
    );
    assert_eq!(
        read(r#"{"a":1,"ab""#),
        Err("expected `:` at byte 11".to_string())
    );
}
