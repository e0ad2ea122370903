//! Offline shim for `serde_derive`.
//!
//! Derives the streaming `Serialize`/`Deserialize` traits of the sibling
//! `serde` shim: `write` is straight-line calls on its `Writer`, one per
//! field, and `read` is one loop over the keys of its `Reader` that matches
//! each against the field names. Instead of `syn`/`quote` (unavailable
//! offline) it walks the raw token stream — enough for the shapes this
//! workspace derives on: non-generic braced/tuple/unit structs and enums
//! with unit, newtype, tuple, and struct variants (externally-tagged
//! encoding, matching real serde's JSON output). The only recognized field
//! attribute is `#[serde(skip)]`, which omits the field on serialize and
//! fills it with `Default::default()` on deserialize.

use proc_macro::{Delimiter, Group, Spacing, TokenStream, TokenTree};

enum Fields {
    Unit,
    /// Tuple struct/variant with this many fields.
    Tuple(usize),
    /// Braced fields as `(name, skip)` pairs.
    Named(Vec<(String, bool)>),
}

enum Item {
    Struct {
        name: String,
        fields: Fields,
    },
    Enum {
        name: String,
        variants: Vec<(String, Fields)>,
    },
}

/// True for `#[serde(skip)]` (the bracket group's content is `serde(skip)`).
fn attr_is_serde_skip(attr: &Group) -> bool {
    let mut it = attr.stream().into_iter();
    match it.next() {
        Some(TokenTree::Ident(id)) if id.to_string() == "serde" => {}
        _ => return false,
    }
    match it.next() {
        Some(TokenTree::Group(args)) => args
            .stream()
            .into_iter()
            .any(|t| matches!(t, TokenTree::Ident(ref id) if id.to_string() == "skip")),
        _ => false,
    }
}

/// Parses `{ a: T, #[serde(skip)] b: U, .. }` into `(name, skip)` pairs.
/// Field types are skipped token-by-token with angle-bracket depth tracking
/// (`<`/`>` are plain puncts, not groups, so `Vec<(A, B)>`-style commas would
/// otherwise split a field).
fn parse_named(g: &Group) -> Vec<(String, bool)> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let mut skip = false;
        while matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            if let Some(TokenTree::Group(attr)) = toks.get(i + 1) {
                skip |= attr_is_serde_skip(attr);
            }
            i += 2;
        }
        if matches!(toks.get(i), Some(TokenTree::Ident(id)) if id.to_string() == "pub") {
            i += 1;
            if matches!(toks.get(i), Some(TokenTree::Group(pg)) if pg.delimiter() == Delimiter::Parenthesis)
            {
                i += 1;
            }
        }
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde shim derive: expected field name, found {other:?}"),
        };
        i += 2; // field name and ':'
        let mut angle = 0i32;
        let mut arrow_pending = false;
        while let Some(t) = toks.get(i) {
            let mut next_arrow = false;
            if let TokenTree::Punct(p) = t {
                match p.as_char() {
                    ',' if angle == 0 => break,
                    '<' => angle += 1,
                    '>' if !arrow_pending => angle -= 1,
                    _ => {}
                }
                next_arrow = p.as_char() == '-' && p.spacing() == Spacing::Joint;
            }
            arrow_pending = next_arrow;
            i += 1;
        }
        i += 1; // consume ','
        out.push((name, skip));
    }
    out
}

/// Counts tuple-struct/variant fields: top-level commas at angle depth 0.
fn count_tuple(g: &Group) -> usize {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    if toks.is_empty() {
        return 0;
    }
    let mut fields = 1;
    let mut angle = 0i32;
    let mut arrow_pending = false;
    for (idx, t) in toks.iter().enumerate() {
        let mut next_arrow = false;
        if let TokenTree::Punct(p) = t {
            match p.as_char() {
                ',' if angle == 0 && idx + 1 < toks.len() => fields += 1,
                '<' => angle += 1,
                '>' if !arrow_pending => angle -= 1,
                _ => {}
            }
            next_arrow = p.as_char() == '-' && p.spacing() == Spacing::Joint;
        }
        arrow_pending = next_arrow;
    }
    fields
}

fn parse_variants(g: &Group) -> Vec<(String, Fields)> {
    let toks: Vec<TokenTree> = g.stream().into_iter().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '#') {
            i += 2;
        }
        let name = match toks.get(i) {
            Some(TokenTree::Ident(id)) => id.to_string(),
            other => panic!("serde shim derive: expected variant name, found {other:?}"),
        };
        i += 1;
        let fields = match toks.get(i) {
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Brace => {
                i += 1;
                Fields::Named(parse_named(vg))
            }
            Some(TokenTree::Group(vg)) if vg.delimiter() == Delimiter::Parenthesis => {
                i += 1;
                Fields::Tuple(count_tuple(vg))
            }
            _ => Fields::Unit,
        };
        // Skip any `= discriminant` up to the separating comma.
        while i < toks.len() && !matches!(&toks[i], TokenTree::Punct(p) if p.as_char() == ',') {
            i += 1;
        }
        i += 1;
        out.push((name, fields));
    }
    out
}

fn parse_item(input: TokenStream) -> Item {
    let toks: Vec<TokenTree> = input.into_iter().collect();
    let mut i = 0;
    loop {
        match toks.get(i) {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => i += 2,
            Some(TokenTree::Ident(id)) if id.to_string() == "pub" => {
                i += 1;
                if matches!(toks.get(i), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    i += 1;
                }
            }
            _ => break,
        }
    }
    let kw = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected `struct` or `enum`, found {other:?}"),
    };
    i += 1;
    let name = match toks.get(i) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        other => panic!("serde shim derive: expected type name, found {other:?}"),
    };
    i += 1;
    if matches!(toks.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        panic!("serde shim derive: generic type `{name}` is not supported");
    }
    match kw.as_str() {
        "struct" => {
            let fields = match toks.get(i) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => {
                    Fields::Named(parse_named(g))
                }
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => {
                    Fields::Tuple(count_tuple(g))
                }
                _ => Fields::Unit,
            };
            Item::Struct { name, fields }
        }
        "enum" => match toks.get(i) {
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Item::Enum {
                name,
                variants: parse_variants(g),
            },
            other => panic!("serde shim derive: expected enum body, found {other:?}"),
        },
        other => panic!("serde shim derive: cannot derive for `{other}` items"),
    }
}

// ------------------------------------------------------------------- codegen

const IMPL_ATTRS: &str =
    "#[automatically_derived]\n#[allow(unused_mut, unused_variables, clippy::all)]\n";

/// `{ "a": …, "b": … }` from the named fields `accessor` reaches.
fn write_named(fields: &[(String, bool)], accessor: &dyn Fn(&str) -> String) -> String {
    let mut s = String::from("w.open('{');\n");
    for (f, _) in fields.iter().filter(|(_, skip)| !skip) {
        s.push_str(&format!(
            "w.key(\"{f}\"); ::serde::Serialize::write({}, w);\n",
            accessor(f)
        ));
    }
    s + "w.close('}');\n"
}

/// One value for a newtype, `[…]` for any other tuple arity.
fn write_tuple(n: usize, accessor: &dyn Fn(usize) -> String) -> String {
    if n == 1 {
        return format!("::serde::Serialize::write({}, w);\n", accessor(0));
    }
    let mut s = String::from("w.open('[');\n");
    for k in 0..n {
        s.push_str(&format!(
            "w.item(); ::serde::Serialize::write({}, w);\n",
            accessor(k)
        ));
    }
    s + "w.close(']');\n"
}

fn gen_serialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                Fields::Unit => "w.null();\n".to_string(),
                Fields::Tuple(n) => write_tuple(*n, &|k| format!("&self.{k}")),
                Fields::Named(fs) => write_named(fs, &|f| format!("&self.{f}")),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (v, fields) in variants {
                let (binds, payload) = match fields {
                    Fields::Unit => {
                        arms.push_str(&format!("{name}::{v} => w.string(\"{v}\"),\n"));
                        continue;
                    }
                    Fields::Tuple(n) => {
                        let binds: Vec<String> = (0..*n).map(|k| format!("f{k}")).collect();
                        (
                            format!("({})", binds.join(", ")),
                            write_tuple(*n, &|k| format!("f{k}")),
                        )
                    }
                    Fields::Named(fs) => {
                        let binds: String = fs
                            .iter()
                            .filter(|(_, skip)| !skip)
                            .map(|(f, _)| format!("{f}: f_{f}, "))
                            .collect();
                        (
                            format!(" {{ {binds}.. }}"),
                            write_named(fs, &|f| format!("f_{f}")),
                        )
                    }
                };
                arms.push_str(&format!(
                    "{name}::{v}{binds} => {{\nw.open('{{');\nw.key(\"{v}\");\n{payload}w.close('}}');\n}}\n"
                ));
            }
            (name, format!("match self {{\n{arms}}}"))
        }
    };
    format!(
        "{IMPL_ATTRS}impl ::serde::Serialize for {name} {{\n\
         fn write(&self, w: &mut ::serde::Writer) {{\n{body}\n}}\n}}\n"
    )
}

/// Reads `{ … }` into `name_path { … }`: one pass over the keys, the first
/// of duplicates kept, unknown ones skipped, absent fields read as `null`.
fn read_named(name_path: &str, fields: &[(String, bool)], ctx: &str) -> String {
    let (mut slots, mut arms, mut inits) = (String::new(), String::new(), String::new());
    for (f, skip) in fields {
        if *skip {
            inits.push_str(&format!("{f}: ::std::default::Default::default(),\n"));
            continue;
        }
        slots.push_str(&format!("let mut f_{f} = ::std::option::Option::None;\n"));
        arms.push_str(&format!(
            "\"{f}\" if f_{f}.is_none() => f_{f} = ::std::option::Option::Some(r.field(\"{f}\")?),\n"
        ));
        inits.push_str(&format!(
            "{f}: match f_{f} {{ ::std::option::Option::Some(v) => v, \
             ::std::option::Option::None => ::serde::Reader::missing(\"{f}\")? }},\n"
        ));
    }
    format!(
        "if !r.begin(b'{{')? {{\n\
         return Err(r.refuse(::serde::DeError::custom(\"expected object for {ctx}\")));\n}}\n\
         {slots}while let Some(key) = r.next_key()? {{\nmatch &*key {{\n{arms}_ => r.skip()?,\n}}\n}}\n\
         Ok({name_path} {{\n{inits}}})"
    )
}

/// Reads a newtype's one value, or `[…]` of exactly `n` items.
fn read_tuple(name_path: &str, n: usize, ctx: &str) -> String {
    if n == 1 {
        return format!("Ok({name_path}(::serde::Deserialize::read(r)?))");
    }
    let items: String = (0..n)
        .map(|k| format!("r.tuple_item({k}, &wrong)?, "))
        .collect();
    format!(
        "let wrong = |_: usize| ::serde::DeError::custom(\"expected {n}-element array for {ctx}\");\n\
         if !r.begin(b'[')? {{\nreturn Err(r.refuse(wrong(0)));\n}}\n\
         let value = {name_path}({items});\n\
         r.tuple_end({n}, &wrong)?;\n\
         Ok(value)"
    )
}

fn gen_deserialize(item: &Item) -> String {
    let (name, body) = match item {
        Item::Struct { name, fields } => {
            let body = match fields {
                // Any value at all reads as a unit struct.
                Fields::Unit => format!("r.skip()?;\nOk({name})"),
                Fields::Tuple(n) => read_tuple(name, *n, name),
                Fields::Named(fs) => read_named(name, fs, name),
            };
            (name, body)
        }
        Item::Enum { name, variants } => {
            let mut arms = String::new();
            for (v, fields) in variants {
                let (path, ctx) = (format!("{name}::{v}"), format!("variant {v}"));
                let payload = match fields {
                    Fields::Unit => {
                        arms.push_str(&format!("(\"{v}\", true) => Ok({path}),\n"));
                        continue;
                    }
                    Fields::Tuple(n) => read_tuple(&path, *n, &ctx),
                    Fields::Named(fs) => read_named(&path, fs, &ctx),
                };
                arms.push_str(&format!("(\"{v}\", false) => {{\n{payload}\n}}\n"));
            }
            let body = format!(
                "r.variant(\"{name}\", |r, tag, unit| match (tag, unit) {{\n{arms}\
                 (other, true) => Err(::serde::DeError::custom(::std::format!(\
                 \"unknown unit variant `{{other}}` for {name}\"))),\n\
                 (other, false) => Err(::serde::DeError::custom(::std::format!(\
                 \"unknown variant `{{other}}` for {name}\"))),\n}})"
            );
            (name, body)
        }
    };
    format!(
        "{IMPL_ATTRS}impl ::serde::Deserialize for {name} {{\n\
         fn read(r: &mut ::serde::Reader<'_>) -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n}}\n"
    )
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let code = gen_serialize(&parse_item(input));
    code.parse()
        .unwrap_or_else(|e| panic!("serde shim derive: generated invalid code: {e:?}\n{code}"))
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let code = gen_deserialize(&parse_item(input));
    code.parse()
        .unwrap_or_else(|e| panic!("serde shim derive: generated invalid code: {e:?}\n{code}"))
}
