//! The one field reader for untrusted JSON: scenario files, serve requests,
//! serve responses and cache-entry payloads all read their fields here.
//!
//! A [`Field`] is a value plus the path that reached it; an [`Obj`] is an
//! object plus its path. The reader owns the rules every schema shares:
//!
//! - paths are spelled `parent.key` and `parent[i]`, and are rendered only
//!   when an error is returned, so a successful parse builds no strings;
//! - integers are exact up to [`serde_json::MAX_SAFE_INTEGER`], and every
//!   integer error states that bound in the one [`INTEGER_RANGE`] text;
//! - floats must be finite;
//! - an object rejects keys outside its schema when the caller asks it to
//!   ([`Obj::only`]); readers of replies from a newer writer do not ask.

use crate::FieldError;
use serde_json::{Map, Value};
use std::fmt::Write as _;

/// What an integer field accepts: JSON numbers are exact only this far
/// ([`serde_json::MAX_SAFE_INTEGER`]).
pub const INTEGER_RANGE: &str =
    "must be a non-negative integer no larger than 2^53 - 1 (9007199254740991)";

/// Where a value sits in its document: a chain of borrowed segments that
/// costs nothing until it is rendered.
#[derive(Clone, Copy, Debug)]
enum Path<'p> {
    Root(&'p str),
    Key(&'p Path<'p>, &'p str),
    Index(&'p Path<'p>, usize),
}

impl Path<'_> {
    fn render(&self, out: &mut String) {
        match *self {
            Path::Root(parent) => out.push_str(parent),
            Path::Key(parent, key) => {
                parent.render(out);
                if !out.is_empty() {
                    out.push('.');
                }
                out.push_str(key);
            }
            Path::Index(parent, i) => {
                parent.render(out);
                let _ = write!(out, "[{i}]");
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> FieldError {
        let mut field = String::new();
        self.render(&mut field);
        FieldError::new(field, message)
    }
}

/// One JSON value and the path that reached it.
#[derive(Clone, Copy, Debug)]
pub struct Field<'v, 'p> {
    value: &'v Value,
    path: Path<'p>,
}

impl<'v, 'p> Field<'v, 'p> {
    /// Read `value`, whose own path is `parent` (`""` for a whole document).
    pub fn new(value: &'v Value, parent: &'p str) -> Field<'v, 'p> {
        Field {
            value,
            path: Path::Root(parent),
        }
    }

    /// The raw value.
    pub fn value(self) -> &'v Value {
        self.value
    }

    /// An error about this field.
    pub fn err(self, message: impl Into<String>) -> FieldError {
        self.path.err(message)
    }

    /// A string.
    pub fn str(self) -> Result<&'v str, FieldError> {
        self.value
            .as_str()
            .ok_or_else(|| self.err("must be a string"))
    }

    /// A boolean.
    pub fn bool(self) -> Result<bool, FieldError> {
        self.value
            .as_bool()
            .ok_or_else(|| self.err("must be a boolean"))
    }

    /// A finite number.
    pub fn f64(self) -> Result<f64, FieldError> {
        self.value
            .as_f64()
            .filter(|x| x.is_finite())
            .ok_or_else(|| self.err("must be a finite number"))
    }

    /// An integer from 0 to [`serde_json::MAX_SAFE_INTEGER`].
    pub fn u64(self) -> Result<u64, FieldError> {
        self.value.as_u64().ok_or_else(|| self.err(INTEGER_RANGE))
    }

    /// A count or size, as [`Field::u64`].
    pub fn usize(self) -> Result<usize, FieldError> {
        self.narrow("integer")
    }

    /// A `u32`; a larger integer is `<what> out of range`.
    pub fn u32(self, what: &str) -> Result<u32, FieldError> {
        self.narrow(what)
    }

    /// A `u8`; a larger integer is `<what> out of range`.
    pub fn u8(self, what: &str) -> Result<u8, FieldError> {
        self.narrow(what)
    }

    fn narrow<T: TryFrom<u64>>(self, what: &str) -> Result<T, FieldError> {
        T::try_from(self.u64()?).map_err(|_| self.err(format!("{what} out of range")))
    }

    /// An object; anything else is `expect`.
    pub fn object(self, expect: &str) -> Result<Obj<'v, 'p>, FieldError> {
        match self.value.as_object() {
            Some(map) => Ok(Obj {
                map,
                path: self.path,
            }),
            None => Err(self.err(expect)),
        }
    }

    /// Each element of an array read by `read` at `path[i]`; anything but
    /// an array is `expect`.
    pub fn items<'s, T>(
        &'s self,
        expect: &str,
        mut read: impl FnMut(Field<'v, 's>) -> Result<T, FieldError>,
    ) -> Result<Vec<T>, FieldError> {
        let values = self.value.as_array().ok_or_else(|| self.err(expect))?;
        let mut out = Vec::with_capacity(values.len());
        for (i, value) in values.iter().enumerate() {
            out.push(read(Field {
                value,
                path: Path::Index(&self.path, i),
            })?);
        }
        Ok(out)
    }

    /// A `u64` seed. It travels as a decimal string, so the full range
    /// survives the f64-backed number type.
    pub fn seed(self) -> Result<u64, FieldError> {
        let text = self
            .value
            .as_str()
            .ok_or_else(|| self.err("must be a decimal string (full u64 range)"))?;
        text.parse()
            .map_err(|e| self.err(format!("bad seed '{text}': {e}")))
    }

    /// Calibration factors, `{"<field>": factor, ...}`, in document order.
    /// Whether a name and factor are valid is the calibration's to say.
    pub fn calib_factors(self) -> Result<Vec<(String, f64)>, FieldError> {
        let obj = self.object("must be an object of field: factor")?;
        obj.map
            .iter()
            .map(|(name, factor)| match factor.as_f64() {
                Some(x) => Ok((name.clone(), x)),
                None => Err(obj.err_at(name, "factor must be a number")),
            })
            .collect()
    }
}

/// One JSON object and the path that reached it.
#[derive(Clone, Copy, Debug)]
pub struct Obj<'v, 'p> {
    map: &'v Map,
    path: Path<'p>,
}

impl<'v, 'p> Obj<'v, 'p> {
    /// Reject the first key outside `allowed`, naming it.
    pub fn only(&self, allowed: &[&str]) -> Result<(), FieldError> {
        let mut keys = self.map.iter().map(|(k, _)| k.as_str());
        match keys.find(|k| !allowed.contains(k)) {
            Some(key) => Err(self.err_at(
                key,
                format!("unknown field (allowed: {})", allowed.join(", ")),
            )),
            None => Ok(()),
        }
    }

    /// The member `key`, if present.
    pub fn get<'s>(&'s self, key: &'s str) -> Option<Field<'v, 's>> {
        self.map.get(key).map(|value| Field {
            value,
            path: Path::Key(&self.path, key),
        })
    }

    /// The member `key`; absent is `is required`.
    pub fn req<'s>(&'s self, key: &'s str) -> Result<Field<'v, 's>, FieldError> {
        self.get(key).ok_or_else(|| self.err_at(key, "is required"))
    }

    /// The member `key` read by `read`, or `None` when absent.
    pub fn opt<'s, T>(
        &'s self,
        key: &'s str,
        read: impl FnOnce(Field<'v, 's>) -> Result<T, FieldError>,
    ) -> Result<Option<T>, FieldError> {
        self.get(key).map(read).transpose()
    }

    /// An error about the member `key`, present or not.
    pub fn err_at(&self, key: &str, message: impl Into<String>) -> FieldError {
        Path::Key(&self.path, key).err(message)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_render_keys_and_indexes_under_the_parent() {
        let v = serde_json::from_str(r#"{"a": [{"b": "x"}, {"b": 7}]}"#).unwrap();
        let read = |parent| -> Result<Vec<String>, FieldError> {
            let obj = Field::new(&v, parent).object("must be an object")?;
            obj.req("a")?.items("must be an array", |item| {
                let item = item.object("must be an object")?;
                Ok(item.req("b")?.str()?.to_string())
            })
        };
        assert_eq!(read("").unwrap_err().field, "a[1].b");
        assert_eq!(read("scenario").unwrap_err().field, "scenario.a[1].b");
        let e = Field::new(&v, "")
            .object("x")
            .unwrap()
            .req("zz")
            .unwrap_err();
        assert_eq!(
            (e.field.as_str(), e.message.as_str()),
            ("zz", "is required")
        );
    }
}
