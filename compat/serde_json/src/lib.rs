//! Offline shim for `serde_json`.
//!
//! The three entry points the workspace uses — [`to_string`],
//! [`to_string_pretty`] and [`from_str`] — over the `serde` shim's
//! `Writer` and `Reader`, which do the work: a value is written straight
//! into the output text and read straight off the input, with no tree in
//! between. Floats are written with the shortest digits that read back to
//! the same `f64`, byte for byte as Rust's `Display` spells them (the
//! `float_roundtrip` feature is therefore a no-op), with a trailing `.0`
//! added to integral floats so they re-parse as floats.

use serde::{Deserialize, Reader, Serialize, Writer};

/// Serialization/deserialization error.
#[derive(Debug, Clone, PartialEq)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

/// Result alias matching `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

/// Compact JSON for any [`Serialize`] value.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::new(false);
    value.write(&mut w);
    Ok(w.finish())
}

/// Two-space-indented JSON for any [`Serialize`] value.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    let mut w = Writer::new(true);
    value.write(&mut w);
    Ok(w.finish())
}

/// Parses JSON text into any [`Deserialize`] type; anything but whitespace
/// after the value is refused.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T> {
    let mut r = Reader::new(s);
    let value = T::read(&mut r)?;
    r.end()?;
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_round_trips() {
        assert_eq!(to_string(&42u64).unwrap(), "42");
        assert_eq!(from_str::<u64>("42").unwrap(), 42);
        assert_eq!(to_string(&-3i64).unwrap(), "-3");
        assert_eq!(from_str::<i64>("-3").unwrap(), -3);
        assert_eq!(to_string(&true).unwrap(), "true");
        assert!(!from_str::<bool>("false").unwrap());
        assert_eq!(to_string(&"a\"b\n").unwrap(), "\"a\\\"b\\n\"");
        assert_eq!(from_str::<String>("\"a\\\"b\\n\"").unwrap(), "a\"b\n");
    }

    #[test]
    fn floats_round_trip_exactly() {
        for f in [0.0, 1.0, -2.5, 1.0 / 3.0, 1e-12, 6.02e23, f64::MIN_POSITIVE] {
            let s = to_string(&f).unwrap();
            assert_eq!(from_str::<f64>(&s).unwrap(), f, "via {s}");
        }
        // Integral floats keep a decimal point so they stay floats.
        assert_eq!(to_string(&20.0f64).unwrap(), "20.0");
    }

    #[test]
    fn containers_round_trip() {
        let v = vec![(1u64, 0.5f64), (2, 1.5)];
        let s = to_string(&v).unwrap();
        assert_eq!(s, "[[1,0.5],[2,1.5]]");
        assert_eq!(from_str::<Vec<(u64, f64)>>(&s).unwrap(), v);
    }

    #[test]
    fn pretty_output_parses_back() {
        let v = vec![vec![1u64, 2], vec![3]];
        let s = to_string_pretty(&v).unwrap();
        assert!(s.contains('\n'));
        assert_eq!(from_str::<Vec<Vec<u64>>>(&s).unwrap(), v);
    }

    #[test]
    fn whitespace_and_errors() {
        assert_eq!(from_str::<Vec<u64>>(" [ 1 , 2 ] ").unwrap(), vec![1, 2]);
        assert!(from_str::<u64>("12 34").is_err());
        assert!(from_str::<u64>("\"no\"").is_err());
        assert!(from_str::<Vec<u64>>("[1, 2").is_err());
    }
}
