//! Near misses of valid JSON documents, for the property that every reader
//! of untrusted JSON rejects them with a field error instead of a panic.
//! Shared by the scenario-file and serve-request mutation tests.

use serde_json::{Map, Value};

/// Numbers a reader must refuse or bound: past `f64::MAX`, past 2^53,
/// negative, fractional, and not a number at all.
const BAD_NUMBERS: [&str; 5] = ["1e400", "9007199254740993", "-1", "1.5", "\"x\""];

/// How many distinct mutations [`mutate`] knows: truncate, flip a byte,
/// drop a member, add an unknown member, nest 200 levels deep, and one
/// per bad number.
pub const KINDS: usize = 5 + BAD_NUMBERS.len();

/// Stands in for a replaced number until the document is text again.
const MARKER: &str = "__mutated_number__";

/// `doc` as compact text with mutation `kind` applied where `pick` says.
pub fn mutate(doc: &Value, kind: usize, pick: u64) -> String {
    let text = serde_json::to_string(doc);
    match kind {
        0 => {
            let mut cut = (pick % text.len() as u64) as usize;
            while !text.is_char_boundary(cut) {
                cut -= 1;
            }
            text[..cut].to_string()
        }
        1 => {
            // Flip one of the low seven bits of an ASCII byte, so the
            // result stays UTF-8.
            let ascii: Vec<usize> = (0..text.len())
                .filter(|&i| text.as_bytes()[i].is_ascii())
                .collect();
            let mut bytes = text.into_bytes();
            bytes[ascii[(pick % ascii.len() as u64) as usize]] ^= 1 << (pick % 7);
            String::from_utf8(bytes).expect("an ASCII byte stays ASCII")
        }
        2 => rewrite(
            doc,
            |v| v.as_object().is_some_and(|m| !m.is_empty()),
            pick,
            |v| {
                let members: Vec<_> = v.as_object().unwrap().iter().collect();
                let drop = (pick % members.len() as u64) as usize;
                let mut out = Map::new();
                for (i, (k, x)) in members.into_iter().enumerate() {
                    if i != drop {
                        out.insert(k.clone(), x.clone());
                    }
                }
                Value::Object(out)
            },
        ),
        3 => rewrite(
            doc,
            |v| v.as_object().is_some(),
            pick,
            |v| {
                let mut out = v.as_object().unwrap().clone();
                out.insert("zz_unknown", Value::from(1u64));
                Value::Object(out)
            },
        ),
        4 => format!("{}{text}{}", "{\"n\":".repeat(200), "}".repeat(200)),
        _ => rewrite(doc, |v| v.as_f64().is_some(), pick, |_| Value::from(MARKER))
            .replace(&format!("\"{MARKER}\""), BAD_NUMBERS[kind - 5]),
    }
}

/// `doc` as text with one node that satisfies `is`, chosen by `pick`,
/// replaced by `f` of it; unchanged when no node qualifies.
fn rewrite(
    doc: &Value,
    is: fn(&Value) -> bool,
    pick: u64,
    f: impl FnOnce(&Value) -> Value,
) -> String {
    let count = count(doc, is);
    if count == 0 {
        return serde_json::to_string(doc);
    }
    let mut nth = pick % count;
    let mut f = Some(f);
    serde_json::to_string(&replace_nth(doc, is, &mut nth, &mut f))
}

fn count(v: &Value, is: fn(&Value) -> bool) -> u64 {
    let inner: u64 = match v {
        Value::Array(a) => a.iter().map(|x| count(x, is)).sum(),
        Value::Object(m) => m.iter().map(|(_, x)| count(x, is)).sum(),
        _ => 0,
    };
    u64::from(is(v)) + inner
}

/// Pre-order walk: the node at which `nth` reaches zero goes through `f`.
fn replace_nth<F: FnOnce(&Value) -> Value>(
    v: &Value,
    is: fn(&Value) -> bool,
    nth: &mut u64,
    f: &mut Option<F>,
) -> Value {
    if is(v) && f.is_some() {
        if *nth == 0 {
            return f.take().unwrap()(v);
        }
        *nth -= 1;
    }
    match v {
        Value::Array(a) => Value::Array(a.iter().map(|x| replace_nth(x, is, nth, f)).collect()),
        Value::Object(m) => {
            let mut out = Map::new();
            for (k, x) in m.iter() {
                out.insert(k.clone(), replace_nth(x, is, nth, f));
            }
            Value::Object(out)
        }
        other => other.clone(),
    }
}

/// Whether `text` still decodes to a JSON object, the documents whose
/// every rejection must name a field.
pub fn is_object(text: &str) -> bool {
    serde_json::from_str(text).is_ok_and(|v| v.as_object().is_some())
}
