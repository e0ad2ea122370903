//! The shim's behaviour as a transcript: what `from_str`, `to_string` and
//! `to_string_pretty` do with a corpus of documents, values and derived
//! types, compared byte for byte with `tests/corpus.txt`.
//!
//! The transcript was generated by the shim as it stood before PR 22 (a
//! value tree between the struct and the text) and is the oracle for the
//! streaming rewrite: every line must survive it except the ones the
//! rewrite changes on purpose (nesting deeper than 128, escaped surrogate
//! pairs). After a deliberate change, `LSBENCH_BLESS=1` rewrites the moved
//! lines (see `tests/support/oracle.rs` at the workspace root); review the
//! diff.
//!
//! The `# floats written` section was generated while the writer still
//! spelled floats with `Display`, and pins that spelling for every writer
//! after it: ties rounded up, subnormals, the top of the range, the
//! integers around 2^53 and the powers of ten where `Display` stops
//! printing digits and starts printing zeros.
//!
//! Rejection documents for typed reads have exactly one thing wrong and are
//! otherwise valid JSON: which of two defects is reported is not pinned.

use serde::{Deserialize, Serialize, Value};
use std::collections::BTreeMap;
use std::fmt::{Debug, Write as _};
use std::path::PathBuf;

#[path = "../../../tests/support/oracle.rs"]
mod oracle;

// ---------------------------------------------------------------- derive zoo

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Unit;

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Wrap(f64);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Pair(u64, String);

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Inner {
    x: u64,
    y: Option<i32>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Nest {
    inner: Option<Box<Nest>>,
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
enum Shape {
    Dot,
    Circle(f64),
    Rect(u32, u32),
    Named {
        w: u16,
        #[serde(skip)]
        tmp: u8,
        label: Option<String>,
    },
}

#[derive(Debug, PartialEq, Serialize, Deserialize)]
struct Zoo {
    id: u64,
    ratio: f64,
    flag: bool,
    name: String,
    maybe: Option<u8>,
    #[serde(skip)]
    cache: u32,
    grid: Vec<Vec<u8>>,
    map: BTreeMap<String, i32>,
    boxed: Box<Inner>,
    t1: (u8,),
    t2: (u8, i8),
    t3: (u8, i8, bool),
    t4: (u8, i8, bool, String),
    unit: Unit,
    wrap: Wrap,
    pair: Pair,
    shapes: Vec<Shape>,
    extra: Value,
}

fn zoo() -> Zoo {
    Zoo {
        id: u64::MAX,
        ratio: -0.0,
        flag: true,
        name: "z\"o\\o\n\u{1}é€😀".to_string(),
        maybe: None,
        cache: 7,
        grid: vec![vec![], vec![1, 2], vec![3]],
        map: BTreeMap::from([
            ("k\"ey".to_string(), -1),
            ("a".to_string(), i32::MIN),
            ("é".to_string(), i32::MAX),
        ]),
        boxed: Box::new(Inner { x: 1, y: Some(-2) }),
        t1: (1,),
        t2: (2, -2),
        t3: (3, -3, false),
        t4: (4, -4, true, "four".to_string()),
        unit: Unit,
        wrap: Wrap(20.0),
        pair: Pair(9, "nine".to_string()),
        shapes: vec![
            Shape::Dot,
            Shape::Circle(1.5),
            Shape::Rect(2, 3),
            Shape::Named {
                w: 4,
                tmp: 9,
                label: Some("l".to_string()),
            },
            Shape::Named {
                w: 5,
                tmp: 0,
                label: None,
            },
        ],
        extra: Value::Object(vec![
            ("dup".to_string(), Value::UInt(1)),
            ("dup".to_string(), Value::Array(vec![Value::Null])),
        ]),
    }
}

// ------------------------------------------------------------------- corpus

/// Documents parsed as [`Value`]: result or exact error, then both
/// re-encodings of a success.
fn documents() -> Vec<String> {
    [
        // keywords, whitespace, emptiness
        "null",
        "true",
        "false",
        " \t\r\n null \t\r\n ",
        "",
        " ",
        "nul",
        "tru",
        "fals",
        "nullx",
        "truefalse",
        "None",
        // integers
        "0",
        "-0",
        "7",
        "-7",
        "007",
        "9007199254740991",
        "9007199254740992",
        "9007199254740993",
        "-9007199254740993",
        "18446744073709551615",
        "18446744073709551616",
        "-9223372036854775808",
        "-9223372036854775809",
        "-",
        "--1",
        "+1",
        "0x10",
        "1_000",
        // floats
        "0.0",
        "-0.0",
        "1.0",
        "100.0",
        "1.",
        "-.5",
        ".5",
        "1e5",
        "1E5",
        "1e+5",
        "1e-5",
        "1.5e3",
        "-1.5E-3",
        "1e",
        "1e+",
        "1.2.3",
        "1e400",
        "-1e400",
        "1e-400",
        "1e-320",
        "5e-324",
        "4.9406564584124654e-324",
        "2.2250738585072014e-308",
        "2.2250738585072011e-308",
        "1.7976931348623157e308",
        "9007199254740993.0",
        "0.1",
        "0.30000000000000004",
        "NaN",
        "Infinity",
        "-Infinity",
        // strings
        r#""""#,
        r#""plain""#,
        r#""\" \\ \/ \b \f \n \r \t""#,
        r#""\u0041\u00e9\u00E9\u20ac\u0000\u001f""#,
        "\"raw é € 😀\"",
        "\"raw control \u{1} \n \t inside\"",
        r#""\x""#,
        r#""\"#,
        r#""\u12""#,
        r#""\u12G4""#,
        r#""\u""#,
        r#""abc"#,
        r#""abc\"#,
        r#"'single'"#,
        // surrogates
        r#""\ud83d\ude00""#,
        r#""a\ud83d\ude00b\ud83c\udf0d""#,
        r#""\ud83d""#,
        r#""\ude00""#,
        r#""\ude00\ud83d""#,
        r#""\ud83dx""#,
        r#""\ud83d\u0041""#,
        r#""\ud83d\n""#,
        r#""\ud83d\ud""#,
        r#""\ud83d\ud83d""#,
        r#""\udbff\udfff""#,
        r#""\ud800\udc00""#,
        // arrays
        "[]",
        "[ ]",
        "[[]]",
        "[{}]",
        "[[],[[]],{}]",
        " [ 1 , 2 ] ",
        "[1,2,3]",
        "[1,]",
        "[,1]",
        "[1 2]",
        "[1,,2]",
        "[",
        "]",
        "[1",
        "[1,",
        "[null,true,false,0,-1,1.5,\"s\",[],{}]",
        // objects
        "{}",
        "{ }",
        r#"{"a":[]}"#,
        r#"{"a":{}}"#,
        r#"{"a":{"b":{"c":[{"d":null}]}}}"#,
        "{\n  \"a\" : 1 ,\n  \"b\" : [ ]\n}",
        r#"{"a":1,"a":2}"#,
        r#"{"":0}"#,
        r#"{"é\n\"":"€"}"#,
        r#"{"a":1,}"#,
        r#"{,}"#,
        r#"{"a"}"#,
        r#"{"a" 1}"#,
        r#"{"a":}"#,
        r#"{a:1}"#,
        r#"{1:2}"#,
        r#"{"a":1 "b":2}"#,
        "{",
        "}",
        r#"{"a""#,
        r#"{"a":"#,
        r#"{"a":1"#,
        // trailing characters
        "1 2",
        "{} x",
        "[] ]",
        "null null",
        r#""a" "b""#,
        "1,",
        "truex",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect()
}

/// Values the writer is asked for directly (what no document produces).
fn written() -> Vec<Value> {
    let mut all_controls: String = (0u8..0x20).map(|b| b as char).collect();
    all_controls.push_str("\u{7f}\"\\/ é€😀");
    vec![
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(-0.0),
        Value::Float(0.0),
        Value::Float(1.0),
        Value::Float(-20.0),
        Value::Float(1e15),
        Value::Float(1e16),
        Value::Float(1e21),
        Value::Float(1e300),
        Value::Float(-1e300),
        Value::Float(f64::MAX),
        Value::Float(f64::MIN),
        Value::Float(f64::MIN_POSITIVE),
        Value::Float(5e-324),
        Value::Float(1e-320),
        Value::Float(1e-7),
        Value::Float(0.1 + 0.2),
        Value::Float(9007199254740993.0),
        Value::Float(f64::EPSILON),
        Value::UInt(0),
        Value::UInt(u64::MAX),
        Value::Int(-1),
        Value::Int(i64::MIN),
        Value::Int(0),
        Value::Int(5),
        Value::Str(all_controls.clone()),
        Value::Object(vec![(all_controls, Value::Null)]),
        Value::Array(vec![]),
        Value::Object(vec![]),
        Value::Array(vec![Value::Array(vec![]), Value::Object(vec![])]),
        Value::Object(vec![
            ("a".to_string(), Value::Array(vec![])),
            ("b".to_string(), Value::Object(vec![])),
            (
                "c".to_string(),
                Value::Array(vec![Value::Object(vec![(
                    "d".to_string(),
                    Value::Array(vec![Value::UInt(1), Value::Float(2.5)]),
                )])]),
            ),
        ]),
    ]
}

// --------------------------------------------------------------- transcript

/// `from_str::<T>(doc)`: the value and both re-encodings, or the error.
fn typed<T: Deserialize + Serialize + Debug>(out: &mut String, ty: &str, doc: &str) {
    match serde_json::from_str::<T>(doc) {
        Ok(v) => {
            writeln!(out, "{ty} <- {doc:?}\n    ok {v:?}").unwrap();
            writeln!(out, "    compact {:?}", serde_json::to_string(&v).unwrap()).unwrap();
            writeln!(
                out,
                "    pretty {:?}",
                serde_json::to_string_pretty(&v).unwrap()
            )
            .unwrap();
        }
        Err(e) => writeln!(out, "{ty} <- {doc:?}\n    error {e}").unwrap(),
    }
}

macro_rules! typed {
    ($out:expr, $t:ty, [$($doc:expr),* $(,)?]) => {
        $( typed::<$t>($out, stringify!($t), $doc); )*
    };
}

/// Every prefix of `doc` that ends on a character boundary.
fn prefixes(doc: &str) -> impl Iterator<Item = &str> {
    (0..doc.len())
        .filter(|&i| doc.is_char_boundary(i))
        .map(|i| &doc[..i])
}

fn transcript() -> String {
    let mut out = String::new();
    let o = &mut out;

    writeln!(o, "# documents as Value").unwrap();
    for doc in documents() {
        typed::<Value>(o, "Value", &doc);
    }

    // Value, skip and typed paths at and around the depth the streaming
    // reader refuses; a success is reported as "re-encodes to the document".
    writeln!(o, "\n# nesting").unwrap();
    for depth in [127usize, 128, 129] {
        let arrays = "[".repeat(depth) + &"]".repeat(depth);
        let objects = "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
        let nest = "{\"inner\":".repeat(depth) + "null" + &"}".repeat(depth);
        let same = |doc: &str| {
            serde_json::from_str::<Value>(doc).map(|v| serde_json::to_string(&v).unwrap() == doc)
        };
        writeln!(o, "{depth} arrays as Value: {:?}", same(&arrays)).unwrap();
        writeln!(o, "{depth} objects as Value: {:?}", same(&objects)).unwrap();
        writeln!(
            o,
            "{depth} open arrays as Value: {:?}",
            same(&"[".repeat(depth))
        )
        .unwrap();
        writeln!(
            o,
            "{depth} arrays skipped as Unit: {:?}",
            serde_json::from_str::<Unit>(&arrays)
        )
        .unwrap();
        writeln!(
            o,
            "{depth} levels under an unknown key of Inner: {:?}",
            serde_json::from_str::<Inner>(&format!(
                "{{\"x\":1,\"deep\":{}}}",
                &arrays[1..arrays.len() - 1]
            ))
        )
        .unwrap();
        writeln!(
            o,
            "{depth} objects as Nest: {:?}",
            serde_json::from_str::<Nest>(&nest).map(|n| serde_json::to_string(&n).unwrap() == nest)
        )
        .unwrap();
    }

    writeln!(o, "\n# values written").unwrap();
    for v in written() {
        let compact = serde_json::to_string(&v).unwrap();
        writeln!(o, "{v:?}\n    compact {compact:?}").unwrap();
        writeln!(
            o,
            "    pretty {:?}",
            serde_json::to_string_pretty(&v).unwrap()
        )
        .unwrap();
        match serde_json::from_str::<Value>(&compact) {
            Ok(back) => writeln!(o, "    reparsed {back:?}").unwrap(),
            Err(e) => writeln!(o, "    reparse error {e}").unwrap(),
        }
    }

    writeln!(o, "\n# scalars and std containers").unwrap();
    typed!(
        o,
        u8,
        ["0", "255", "256", "-0", "-1", "1.0", "\"1\"", "null"]
    );
    typed!(o, u16, ["65535", "65536"]);
    typed!(o, u32, ["4294967295", "4294967296"]);
    typed!(
        o,
        u64,
        [
            "18446744073709551615",
            "18446744073709551616",
            "-0",
            "1e3",
            "[1]",
            "{}",
            "true",
            ""
        ]
    );
    typed!(o, usize, ["18446744073709551615", "-5"]);
    typed!(o, i8, ["127", "128", "-128", "-129", "-0", "0.5"]);
    typed!(o, i16, ["32767", "32768", "-32768", "-32769"]);
    typed!(
        o,
        i32,
        ["2147483647", "2147483648", "-2147483648", "-2147483649"]
    );
    typed!(
        o,
        i64,
        [
            "9223372036854775807",
            "9223372036854775808",
            "-9223372036854775808",
            "-9223372036854775809",
            "\"x\""
        ]
    );
    typed!(o, isize, ["-9223372036854775808", "9223372036854775808"]);
    typed!(
        o,
        f64,
        [
            "0",
            "-0",
            "-0.0",
            "20",
            "-20",
            "20.0",
            "1e400",
            "5e-324",
            "18446744073709551615",
            "9007199254740993",
            "-9223372036854775808",
            "0.1",
            "\"1.0\"",
            "null",
            "[]",
            "tru"
        ]
    );
    typed!(o, f32, ["0.1", "1e39", "16777217", "-3", "true"]);
    typed!(o, bool, ["true", "false", "1", "\"true\"", "null", "fals"]);
    typed!(
        o,
        String,
        [
            "\"\"",
            "\"a\\u00e9\\n\"",
            "\"é\"",
            "1",
            "null",
            "[\"a\"]",
            "\"open"
        ]
    );
    typed!(
        o,
        Option<u64>,
        ["null", "5", " null ", "\"x\"", "nul", "-1"]
    );
    typed!(o, Option<Option<u8>>, ["null", "1"]);
    typed!(
        o,
        Vec<u8>,
        [
            "[]",
            "[1,2,3]",
            "[1,256]",
            "[1,\"a\"]",
            "{}",
            "1",
            "null",
            "[1,]",
            "[1 2]"
        ]
    );
    typed!(
        o,
        Vec<Vec<Option<bool>>>,
        ["[[],[null,true],[false]]", "[[1]]", "[1]"]
    );
    typed!(o, Box<u8>, ["5", "\"5\""]);
    typed!(o, (u8,), ["[1]", "[]", "[1,2]", "1", "[\"a\"]"]);
    typed!(
        o,
        (u8, String),
        ["[1,\"a\"]", "[1]", "[1,\"a\",2]", "{}", "[\"a\",1]", "null"]
    );
    typed!(
        o,
        (u8, i8, bool),
        ["[1,-1,true]", "[1,-1]", "[1,-1,true,{\"deep\":[1,2]}]"]
    );
    typed!(
        o,
        (u8, i8, bool, f64),
        ["[1,-1,true,2]", "[]", "[1,-1,true,2,5,6,7]"]
    );
    typed!(
        o,
        BTreeMap<String, u8>,
        [
            "{}",
            "{\"b\":2,\"a\":1}",
            "{\"a\":1,\"a\":2}",
            "{\"a\":1,\"a\":\"x\"}",
            "{\"a\":\"x\",\"a\":1}",
            "{\"k\\n\\\"\":0}",
            "[]",
            "null",
            "{\"a\":256}"
        ]
    );
    typed!(o, BTreeMap<String, Vec<(u8, f64)>>, ["{\"a\":[[1,2],[3,4.5]],\"b\":[]}", "{\"a\":[[1]]}"]);
    for line in [
        serde_json::to_string("a str\n").unwrap(),
        serde_json::to_string(&[1u8, 2][..]).unwrap(),
        serde_json::to_string_pretty(&[(1u8, "x")][..]).unwrap(),
        serde_json::to_string(&&&5u8).unwrap(),
        serde_json::to_string(&None::<u8>).unwrap(),
        serde_json::to_string(&Some(0.1f32)).unwrap(),
        serde_json::to_string(&f32::MAX).unwrap(),
        serde_json::to_string(&f32::NAN).unwrap(),
        serde_json::to_string(&i64::MIN).unwrap(),
        serde_json::to_string(&isize::MIN).unwrap(),
        serde_json::to_string(&i8::MIN).unwrap(),
        serde_json::to_string(&usize::MAX).unwrap(),
        serde_json::to_string(&Box::new(Some(vec![(1u8, 2u16, 3u32, 4u64)]))).unwrap(),
    ] {
        writeln!(o, "written {line:?}").unwrap();
    }

    writeln!(o, "\n# derive zoo").unwrap();
    let z = zoo();
    let compact = serde_json::to_string(&z).unwrap();
    let pretty = serde_json::to_string_pretty(&z).unwrap();
    writeln!(o, "zoo compact {compact:?}\nzoo pretty {pretty:?}").unwrap();
    // Skipped fields are not written and come back as their defaults.
    let mut want = zoo();
    want.cache = 0;
    if let Shape::Named { tmp, .. } = &mut want.shapes[3] {
        *tmp = 0;
    }
    for text in [&compact, &pretty] {
        assert_eq!(serde_json::from_str::<Zoo>(text).unwrap(), want);
    }
    typed!(o, Unit, ["null", "5", "{\"a\":[1,2]}", "\"Unit\"", ""]);
    typed!(o, Wrap, ["1.5", "2", "\"x\"", "[1.5]", "null"]);
    typed!(
        o,
        Pair,
        [
            "[1,\"a\"]",
            "[1]",
            "[1,\"a\",3]",
            "[\"a\",1]",
            "{}",
            "1",
            "null"
        ]
    );
    typed!(
        o,
        Inner,
        [
            "{\"x\":1,\"y\":-2}",
            "{\"y\":null,\"x\":1}",
            "{\"x\":1}",
            "{}",
            "{\"y\":1}",
            "{\"x\":null}",
            "{\"x\":\"a\"}",
            "{\"x\":-1}",
            "{\"x\":1.0}",
            "{\"x\":1,\"y\":2147483648}",
            "{\"x\":1,\"y\":\"n\"}",
            "{\"x\":1,\"x\":\"ignored\"}",
            "{\"x\":\"a\",\"x\":1}",
            "{\"x\":1,\"unknown\":{\"deep\":[1,{\"er\":null}]},\"y\":3}",
            "{\"X\":1,\"x\":2}",
            "[]",
            "[1,2]",
            "1",
            "\"x\"",
            "null",
            " { \"x\" : 1 } ",
            "{\"x\":1} trailing",
            "{\"x\":1,}",
            "{\"x\" 1}",
            "{\"\\u0078\":7}"
        ]
    );
    typed!(
        o,
        Shape,
        [
            "\"Dot\"",
            "{\"Circle\":1.5}",
            "{\"Circle\":2}",
            "{\"Rect\":[2,3]}",
            "{\"Named\":{\"w\":4,\"label\":\"l\"}}",
            "{\"Named\":{\"w\":4}}",
            "{\"Named\":{\"w\":4,\"tmp\":200,\"label\":null,\"more\":[]}}",
            " { \"Circle\" : 1.5 } ",
            "\"Nope\"",
            "\"Circle\"",
            "\"dot\"",
            "{\"Dot\":null}",
            "{\"Nope\":1}",
            "{\"Circle\":1.5,\"Dot\":null}",
            "{\"Circle\":1.5,\"Circle\":2.5}",
            "{}",
            "1",
            "null",
            "[\"Dot\"]",
            "{\"Circle\":\"r\"}",
            "{\"Circle\":[1.5]}",
            "{\"Rect\":[2]}",
            "{\"Rect\":[2,3,4]}",
            "{\"Rect\":{\"w\":2}}",
            "{\"Rect\":[2,\"3\"]}",
            "{\"Named\":[4]}",
            "{\"Named\":{}}",
            "{\"Named\":{\"label\":\"l\"}}",
            "{\"Named\":{\"w\":70000}}",
            "{\"Named\":null}",
            "{\"Circle\":1.5",
            "{\"Circle\"",
            "\"Do"
        ]
    );
    // One field of the zoo wrong at a time, in the compact encoding.
    for (from, to) in [
        ("\"id\":18446744073709551615", "\"id\":18446744073709551616"),
        ("\"id\":18446744073709551615,", ""),
        ("\"ratio\":-0.0", "\"ratio\":\"-0.0\""),
        ("\"flag\":true", "\"flag\":1"),
        ("\"maybe\":null,", ""),
        ("\"maybe\":null", "\"maybe\":7"),
        ("\"maybe\":null", "\"maybe\":[7]"),
        ("\"grid\":[[],[1,2],[3]]", "\"grid\":[[],[1,2],3]"),
        ("\"k\\\"ey\":-1", "\"k\\\"ey\":2147483648"),
        ("\"boxed\":{\"x\":1,\"y\":-2}", "\"boxed\":{\"y\":-2}"),
        (
            "\"boxed\":{\"x\":1,\"y\":-2}",
            "\"boxed\":{\"x\":\"a\",\"y\":-2}",
        ),
        ("\"t1\":[1]", "\"t1\":[]"),
        ("\"t2\":[2,-2]", "\"t2\":[2,-2,2]"),
        ("\"t3\":[3,-3,false]", "\"t3\":[3,-3,0]"),
        ("\"t4\":[4,-4,true,\"four\"]", "\"t4\":{}"),
        ("\"unit\":null,", ""),
        ("\"unit\":null", "\"unit\":[1,{\"a\":2}]"),
        ("\"wrap\":20.0", "\"wrap\":20"),
        ("\"wrap\":20.0", "\"wrap\":\"w\""),
        ("\"pair\":[9,\"nine\"]", "\"pair\":[9]"),
        ("\"shapes\":[\"Dot\",", "\"shapes\":[\"Dash\","),
        ("{\"Rect\":[2,3]}", "{\"Rect\":[2,3],\"Dot\":null}"),
        ("{\"w\":5,\"label\":null}", "{\"label\":null}"),
        (",\"extra\":{\"dup\":1,\"dup\":[null]}", ""),
        (
            "\"extra\":{\"dup\":1,\"dup\":[null]}",
            "\"extra\":\"anything\",\"zzz\":[{}]",
        ),
    ] {
        assert!(compact.contains(from), "{from} is not in {compact}");
        let doc = compact.replacen(from, to, 1);
        match serde_json::from_str::<Zoo>(&doc) {
            Ok(v) => writeln!(
                o,
                "Zoo with {from:?} -> {to:?}\n    ok {:?}",
                serde_json::to_string(&v).unwrap()
            )
            .unwrap(),
            Err(e) => writeln!(o, "Zoo with {from:?} -> {to:?}\n    error {e}").unwrap(),
        }
    }

    writeln!(o, "\n# every truncation of one document").unwrap();
    let small = r#"{ "x": 12, "y": -3, "skip": ["a\u00e9\n", {"k": [true, null, 1.5e2]}] }"#;
    for prefix in prefixes(small) {
        let as_value = serde_json::from_str::<Value>(prefix).map(|_| ());
        let as_inner = serde_json::from_str::<Inner>(prefix).map(|_| ());
        writeln!(
            o,
            "{prefix:?}\n    Value {as_value:?}\n    Inner {as_inner:?}"
        )
        .unwrap();
    }
    let small = r#"[{"Named":{"w":1,"label":"l\t"}},"Dot",{"Rect":[1,2]},{"Circle":0.5}]"#;
    for prefix in prefixes(small) {
        let as_shapes = serde_json::from_str::<Vec<Shape>>(prefix).map(|_| ());
        writeln!(o, "{prefix:?}\n    Vec<Shape> {as_shapes:?}").unwrap();
    }

    // Number texts read into integer and float fields: what each accepts,
    // converts and refuses, and at which byte.
    writeln!(o, "\n# typed numbers").unwrap();
    typed!(
        o,
        u64,
        [
            "-0",
            "01",
            "-01",
            "1e2",
            "2.0",
            " \t\r\n 7",
            "7 ",
            "-",
            "--1",
            "1.2.3",
            "1-2",
            "1e",
            ".5",
            "-x",
            "0x1",
            "00000000000000000000018446744073709551615"
        ]
    );
    typed!(
        o,
        i64,
        [
            "-9223372036854775809",
            "-01",
            " -7",
            "-",
            "--1",
            "1.2.3",
            "-1e2"
        ]
    );
    typed!(o, u8, ["-1", "00255", "-256"]);
    typed!(o, u16, ["1.5", "1e0", "-1"]);
    typed!(o, i8, ["-1.5", "-0"]);
    typed!(
        o,
        f64,
        ["7", "-7", " \n 2.5", "-", "--1", "1.2.3", "1e", "01.5", "1E+2", "-01"]
    );
    typed!(o, f32, ["-16777217", "2", "1e-50"]);
    typed!(
        o,
        Inner,
        [
            "{\"x\":01,\"y\":-0}",
            "{\"x\": 7 ,\"y\": -1 }",
            "{\"x\":1e2}",
            "{\"x\":-}",
            "{\"x\":1,\"y\":--1}",
            "{\"x\":1.2.3}",
            "{\"x\":7",
            "{\"x\":7 ",
            "{\"x\":"
        ]
    );

    // Floats as the writer spells them: shortest digits that read back to
    // the same bits, `Display`'s decimal layout, ties rounded up.
    writeln!(o, "\n# floats written").unwrap();
    for (name, f) in floats() {
        let compact = serde_json::to_string(&f).unwrap();
        let back = serde_json::from_str::<f64>(&compact).map(f64::to_bits);
        writeln!(
            o,
            "{name} {:#018x}\n    compact {compact:?}\n    reads back {}",
            f.to_bits(),
            back == Ok(f.to_bits())
        )
        .unwrap();
    }
    out
}

/// Floats at the edges of the shortest-digits writer, each with a name.
fn floats() -> Vec<(String, f64)> {
    let two_53 = 2f64.powi(53);
    let mut floats = vec![
        ("tie .25 rounds up", 1658206780088562.0 + 0.25),
        ("tie .125 rounds up", 233115890514796.0 + 0.125),
        ("-0", -0.0),
        ("smallest subnormal", 5e-324),
        ("MIN_POSITIVE", f64::MIN_POSITIVE),
        ("MAX", f64::MAX),
        ("2^53 - 1 ulp", two_53 - 1.0),
        ("2^53", two_53),
        ("2^53 + 1 ulp", two_53 + 2.0),
        ("0.1", 0.1),
        ("1/3", 1.0 / 3.0),
        ("0.1f32 widened", f64::from(0.1f32)),
        ("latency 37 / 1e6", 37.0 / 1e6),
    ]
    .into_iter()
    .map(|(name, f)| (name.to_string(), f))
    .collect::<Vec<_>>();
    for k in 15..=23 {
        let text = format!("1e{k}");
        floats.push((text.clone(), text.parse().unwrap()));
    }
    // A completion time summed op by op, as a run's clock advances.
    let t_end = (1..=100_000).map(|w| f64::from(w % 97) / 1e6).sum::<f64>();
    floats.push(("t_end after 100000 ops".to_string(), t_end));
    floats
}

#[test]
fn corpus_transcript_is_pinned_byte_exact() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus.txt");
    oracle::check_or_bless(path, &transcript());
}

/// What used to abort the process (`thread 'main' has overflowed its
/// stack`): a document nested far beyond the reader's depth, on the value
/// tree, skipping and typed paths. The transcript pins the exact boundary.
#[test]
fn a_million_levels_of_nesting_are_refused() {
    let deep = "[".repeat(1_000_000);
    let refused = "recursion limit exceeded at byte 128";
    let error = |e: serde_json::Error| e.to_string();
    assert_eq!(
        serde_json::from_str::<Value>(&deep).map_err(error),
        Err(refused.to_string())
    );
    assert_eq!(
        serde_json::from_str::<Unit>(&deep).map_err(error),
        Err(refused.to_string())
    );
    assert_eq!(
        serde_json::from_str::<Vec<Value>>(&deep).map_err(error),
        Err(refused.to_string())
    );
    let nest = "{\"inner\":".repeat(1_000_000);
    assert_eq!(
        serde_json::from_str::<Nest>(&nest).map_err(error),
        Err("recursion limit exceeded at byte 1152".to_string())
    );
}

/// The workspace's golden artifacts are this shim's pretty encoding: each
/// parses and re-encodes to the bytes on disk.
#[test]
fn golden_fixtures_reencode_to_the_same_bytes() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
    let mut seen = 0;
    for entry in std::fs::read_dir(&dir).expect("tests/fixtures exists") {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "json") {
            let text = std::fs::read_to_string(&path).unwrap();
            let value: Value = serde_json::from_str(&text).unwrap();
            let pretty = serde_json::to_string_pretty(&value).unwrap();
            assert_eq!(pretty, text.trim_end_matches('\n'), "{}", path.display());
            let compact = serde_json::to_string(&value).unwrap();
            assert_eq!(serde_json::from_str::<Value>(&compact).unwrap(), value);
            seen += 1;
        }
    }
    assert!(seen >= 3, "only {seen} fixtures under {}", dir.display());
}
