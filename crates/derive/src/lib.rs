//! # ucsim-derive
//!
//! Derive macros for the workspace's own JSON wire format
//! (`ucsim_model::json`): `#[derive(ToJson)]` and `#[derive(FromJson)]`.
//!
//! The workspace builds in a fully offline environment, so these macros are
//! written against the bare [`proc_macro`] API — no `syn`/`quote`. They
//! support exactly the shapes the simulator's config/report types use:
//!
//! * structs with named fields — encoded as a JSON object, one member per
//!   field, in declaration order (this makes encodings canonical, which the
//!   serve layer relies on for content-addressed cache keys). A member
//!   whose value is absent (`ToJson::is_absent`: an `Option` that is
//!   `None`) is left out, and decoding reads an absent member as `None`.
//!   A raw identifier names its member without the `r#` (`r#ref` is the
//!   member `"ref"`);
//! * single-field tuple structs (newtypes) — encoded as the inner value;
//! * enums whose variants all carry no data — encoded as the variant name
//!   string.
//!
//! Anything else (generics, data-carrying enums, multi-field tuple structs)
//! produces a compile error naming the limitation.

#![warn(missing_docs)]

use proc_macro::{Delimiter, TokenStream, TokenTree};

/// The parsed shape of a deriving type.
enum Shape {
    /// `struct Name { a: A, b: B }`, each field as its identifier as
    /// written (`r#ref`) and its member name (`ref`).
    Named {
        name: String,
        fields: Vec<(String, String)>,
    },
    /// `struct Name(Inner);`
    Newtype { name: String },
    /// `enum Name { A, B, C }`
    UnitEnum { name: String, variants: Vec<String> },
}

/// Derives `ucsim_model::json::ToJson`.
///
/// Named structs serialize to an object with fields in declaration order,
/// leaving out absent members (`None`); newtypes serialize as their inner
/// value; fieldless enums serialize as the variant-name string.
#[proc_macro_derive(ToJson)]
pub fn derive_to_json(input: TokenStream) -> TokenStream {
    expand(input, gen_to_json)
}

/// Derives `ucsim_model::json::FromJson`, the inverse of
/// [`macro@ToJson`]. Missing object members are an error unless the field
/// type reports an absent-value default (`Option<T>` does).
#[proc_macro_derive(FromJson)]
pub fn derive_from_json(input: TokenStream) -> TokenStream {
    expand(input, gen_from_json)
}

fn expand(input: TokenStream, gen: fn(&Shape) -> String) -> TokenStream {
    match parse_shape(input) {
        Ok(shape) => gen(&shape).parse().expect("generated impl must parse"),
        Err(msg) => format!("compile_error!({msg:?});")
            .parse()
            .expect("error must parse"),
    }
}

/// Walks the item's tokens and classifies it as one of the supported
/// shapes. Only top-level structure is inspected; field types are never
/// parsed (generated code defers to trait impls).
fn parse_shape(input: TokenStream) -> Result<Shape, String> {
    let mut toks = input.into_iter().peekable();
    skip_attrs_and_vis(&mut toks);
    let kind = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    let name = match toks.next() {
        Some(TokenTree::Ident(i)) => i.to_string(),
        other => return Err(format!("expected type name, found {other:?}")),
    };
    if matches!(&toks.peek(), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "ucsim-derive does not support generic type `{name}`"
        ));
    }
    match (kind.as_str(), toks.next()) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Shape::Named {
                name,
                fields: parse_named_fields(g.stream())?,
            })
        }
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Parenthesis => {
            let n = count_top_level_fields(g.stream());
            if n == 1 {
                Ok(Shape::Newtype { name })
            } else {
                Err(format!(
                    "tuple struct `{name}` must have exactly one field, has {n}"
                ))
            }
        }
        ("enum", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            let variants = parse_unit_variants(&name, g.stream())?;
            Ok(Shape::UnitEnum { name, variants })
        }
        (k, t) => Err(format!("unsupported item shape: {k} followed by {t:?}")),
    }
}

/// Skips leading `#[...]` attributes, doc comments, and a `pub` /
/// `pub(...)` visibility qualifier.
fn skip_attrs_and_vis(toks: &mut std::iter::Peekable<impl Iterator<Item = TokenTree>>) {
    loop {
        match toks.peek() {
            Some(TokenTree::Punct(p)) if p.as_char() == '#' => {
                toks.next();
                toks.next(); // the [...] group
            }
            Some(TokenTree::Ident(i)) if i.to_string() == "pub" => {
                toks.next();
                if matches!(toks.peek(), Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis)
                {
                    toks.next(); // pub(crate) etc.
                }
            }
            _ => return,
        }
    }
}

/// Extracts field names from the body of a braced struct. Splits on
/// commas outside `<...>` so generic field types don't confuse the scan.
fn parse_named_fields(body: TokenStream) -> Result<Vec<(String, String)>, String> {
    let mut fields = Vec::new();
    let mut toks = body.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut toks);
        let Some(tt) = toks.next() else { break };
        let TokenTree::Ident(field) = tt else {
            return Err(format!("expected field name, found {tt:?}"));
        };
        match toks.next() {
            Some(TokenTree::Punct(p)) if p.as_char() == ':' => {}
            other => return Err(format!("expected `:` after `{field}`, found {other:?}")),
        }
        let ident = field.to_string();
        let member = ident.strip_prefix("r#").unwrap_or(&ident).to_owned();
        fields.push((ident, member));
        // Skip the type: consume until a comma at angle-bracket depth 0.
        let mut angle = 0i32;
        for tt in toks.by_ref() {
            match &tt {
                TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
                TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
                TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => break,
                _ => {}
            }
        }
    }
    if fields.is_empty() {
        return Err("struct has no fields".to_owned());
    }
    Ok(fields)
}

/// Counts the comma-separated fields of a tuple-struct body.
fn count_top_level_fields(body: TokenStream) -> usize {
    let mut n = 0usize;
    let mut saw_tokens = false;
    let mut angle = 0i32;
    for tt in body {
        saw_tokens = true;
        match &tt {
            TokenTree::Punct(p) if p.as_char() == '<' => angle += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => angle -= 1,
            TokenTree::Punct(p) if p.as_char() == ',' && angle == 0 => n += 1,
            _ => {}
        }
    }
    if saw_tokens {
        n + 1
    } else {
        0
    }
}

/// Extracts variant names from an enum body, rejecting variants that carry
/// data (they have no canonical string form).
fn parse_unit_variants(name: &str, body: TokenStream) -> Result<Vec<String>, String> {
    let mut variants = Vec::new();
    let mut toks = body.into_iter().peekable();
    loop {
        skip_attrs_and_vis(&mut toks);
        let Some(tt) = toks.next() else { break };
        let TokenTree::Ident(var) = tt else {
            return Err(format!("expected variant name in `{name}`, found {tt:?}"));
        };
        match toks.peek() {
            Some(TokenTree::Group(_)) => {
                return Err(format!(
                    "enum `{name}` variant `{var}` carries data; only fieldless enums derive Json"
                ));
            }
            Some(TokenTree::Punct(p)) if p.as_char() == '=' => {
                // Explicit discriminant: skip to the comma.
                for tt in toks.by_ref() {
                    if matches!(&tt, TokenTree::Punct(p) if p.as_char() == ',') {
                        break;
                    }
                }
            }
            _ => {
                toks.next(); // the trailing comma, if any
            }
        }
        variants.push(var.to_string());
    }
    if variants.is_empty() {
        return Err(format!("enum `{name}` has no variants"));
    }
    Ok(variants)
}

fn gen_to_json(shape: &Shape) -> String {
    let (name, body) = match shape {
        Shape::Named { name, fields } => {
            let pushes: String = fields
                .iter()
                .map(|(ident, member)| {
                    format!(
                        "if !ucsim_model::json::ToJson::is_absent(&self.{ident}) {{\n\
                             obj.push((::std::string::String::from({member:?}), \
                             ucsim_model::json::ToJson::to_json(&self.{ident})));\n\
                         }}\n"
                    )
                })
                .collect();
            let n = fields.len();
            let body = format!(
                "let mut obj = ::std::vec::Vec::with_capacity({n});\n\
                 {pushes}\
                 ucsim_model::json::Json::Obj(obj)"
            );
            (name, body)
        }
        Shape::Newtype { name } => (
            name,
            "ucsim_model::json::ToJson::to_json(&self.0)".to_owned(),
        ),
        Shape::UnitEnum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{name}::{v} => {v:?},\n"))
                .collect();
            let body = format!(
                "ucsim_model::json::Json::Str(::std::string::String::from(match self {{ {arms} }}))"
            );
            (name, body)
        }
    };
    format!(
        "impl ucsim_model::json::ToJson for {name} {{\n\
             fn to_json(&self) -> ucsim_model::json::Json {{\n{body}\n}}\n\
         }}"
    )
}

fn gen_from_json(shape: &Shape) -> String {
    let (name, body) = match shape {
        Shape::Named { name, fields } => {
            let inits: String = fields
                .iter()
                .map(|(ident, member)| {
                    format!("{ident}: ucsim_model::json::obj_field(v, {member:?})?,\n")
                })
                .collect();
            (
                name,
                format!("::std::result::Result::Ok({name} {{ {inits} }})"),
            )
        }
        Shape::Newtype { name } => (
            name,
            format!(
                "::std::result::Result::Ok({name}(ucsim_model::json::FromJson::from_json(v)?))"
            ),
        ),
        Shape::UnitEnum { name, variants } => {
            let arms: String = variants
                .iter()
                .map(|v| format!("{v:?} => ::std::result::Result::Ok({name}::{v}),\n"))
                .collect();
            let body = format!(
                "match ucsim_model::json::expect_str(v, {name:?})? {{\n\
                     {arms}\
                     other => ::std::result::Result::Err(\
                         ucsim_model::json::JsonError::new(::std::format!(\
                             \"unknown {name} variant: {{other}}\"))),\n\
                 }}"
            );
            (name, body)
        }
    };
    format!(
        "impl ucsim_model::json::FromJson for {name} {{\n\
             fn from_json(v: &ucsim_model::json::Json) \
                 -> ::std::result::Result<Self, ucsim_model::json::JsonError> {{\n{body}\n}}\n\
         }}"
    )
}
