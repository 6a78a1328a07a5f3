//! Attribute values.
//!
//! The value system is deliberately small: nulls, booleans, integers,
//! reals, strings, OID references and lists (complex objects reference
//! subobjects by OID, as in the paper's fragmented SGML representation
//! where each element is its own object).

use std::cmp::Ordering;
use std::fmt;

use crate::codec::{put_f64, put_varint, put_vstr, DecodeError, DecodeResult, Reader};
use crate::oid::Oid;

/// Deepest list nesting [`Value::decode`] accepts. Stored values are
/// flat or shallow (a list of child OIDs); the bound only stops hostile
/// bytes.
const MAX_LIST_DEPTH: usize = 1024;

/// A typed attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Real(f64),
    /// UTF-8 string.
    Str(String),
    /// Reference to another object.
    Oid(Oid),
    /// Ordered list of values (e.g. the children of a document element).
    List(Vec<Value>),
}

impl Value {
    /// Rank used to order values of different types (total order for
    /// B-tree keys): Null < Bool < Int/Real < Str < Oid < List. Ints and
    /// reals share a rank and compare numerically.
    fn type_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Real(_) => 2,
            Value::Str(_) => 3,
            Value::Oid(_) => 4,
            Value::List(_) => 5,
        }
    }

    /// Total order over all values (used by indexes and ORDER-like
    /// processing). `f64` comparisons use IEEE total ordering.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.type_rank(), other.type_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Real(a), Value::Real(b)) => a.total_cmp(b),
            (Value::Int(a), Value::Real(b)) => (*a as f64).total_cmp(b),
            (Value::Real(a), Value::Int(b)) => a.total_cmp(&(*b as f64)),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (Value::Oid(a), Value::Oid(b)) => a.cmp(b),
            (Value::List(a), Value::List(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    match x.total_cmp(y) {
                        Ordering::Equal => continue,
                        ord => return ord,
                    }
                }
                a.len().cmp(&b.len())
            }
            _ => unreachable!("ranks matched above"),
        }
    }

    /// Loose equality used by query `=` / `==`: numeric types compare by
    /// value, everything else structurally.
    pub fn loose_eq(&self, other: &Value) -> bool {
        match (self, other) {
            (Value::Int(a), Value::Real(b)) => (*a as f64) == *b,
            (Value::Real(a), Value::Int(b)) => *a == (*b as f64),
            _ => self == other,
        }
    }

    /// Truthiness for WHERE results: false for Null, Bool(false), 0, 0.0,
    /// empty string/list; true otherwise.
    pub fn truthy(&self) -> bool {
        match self {
            Value::Null => false,
            Value::Bool(b) => *b,
            Value::Int(i) => *i != 0,
            Value::Real(r) => *r != 0.0,
            Value::Str(s) => !s.is_empty(),
            Value::Oid(_) => true,
            Value::List(l) => !l.is_empty(),
        }
    }

    /// Numeric view (Int/Real) for arithmetic comparisons.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Real(r) => Some(*r),
            _ => None,
        }
    }

    /// String view.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// OID view.
    pub fn as_oid(&self) -> Option<Oid> {
        match self {
            Value::Oid(o) => Some(*o),
            _ => None,
        }
    }

    /// List view.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(l) => Some(l),
            _ => None,
        }
    }

    /// Serialise into `buf` (tag byte + payload).
    pub fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            Value::Null => buf.push(0),
            Value::Bool(b) => {
                buf.push(1);
                buf.push(*b as u8);
            }
            Value::Int(i) => {
                buf.push(2);
                // Zig-zag so negative values stay compact.
                put_varint(buf, ((i << 1) ^ (i >> 63)) as u64);
            }
            Value::Real(r) => {
                buf.push(3);
                put_f64(buf, *r);
            }
            Value::Str(s) => {
                buf.push(4);
                put_vstr(buf, s);
            }
            Value::Oid(o) => {
                buf.push(5);
                put_varint(buf, o.0);
            }
            Value::List(l) => {
                buf.push(6);
                put_varint(buf, l.len() as u64);
                for v in l {
                    v.encode(buf);
                }
            }
        }
    }

    /// Inverse of [`Value::encode`]: read one value from `r`. Lists nest
    /// at most 1024 deep, so hostile bytes cannot recurse the decoder off
    /// the end of its stack.
    pub fn decode(r: &mut Reader<'_>) -> DecodeResult<Value> {
        Value::decode_nested(r, 0)
    }

    fn decode_nested(r: &mut Reader<'_>, depth: usize) -> DecodeResult<Value> {
        Ok(match r.u8("value tag")? {
            0 => Value::Null,
            1 => Value::Bool(r.u8("bool value")? != 0),
            2 => {
                let z = r.varint("int value")?;
                Value::Int(((z >> 1) as i64) ^ -((z & 1) as i64))
            }
            3 => Value::Real(r.f64("real value")?),
            4 => Value::Str(r.vstring("string value")?),
            5 => Value::Oid(Oid(r.varint("oid value")?)),
            6 if depth == MAX_LIST_DEPTH => {
                return Err(DecodeError(format!(
                    "list value nested deeper than {MAX_LIST_DEPTH}"
                )))
            }
            6 => {
                // Every element takes at least its tag byte.
                let n = r.count_varint(1, "list value")?;
                let mut l = Vec::with_capacity(n);
                for _ in 0..n {
                    l.push(Value::decode_nested(r, depth + 1)?);
                }
                Value::List(l)
            }
            tag => return Err(DecodeError::unknown("value tag", tag)),
        })
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Real(r) => write!(f, "{r}"),
            Value::Str(s) => write!(f, "'{s}'"),
            Value::Oid(o) => write!(f, "{o}"),
            Value::List(l) => {
                write!(f, "[")?;
                for (i, v) in l.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<f64> for Value {
    fn from(r: f64) -> Self {
        Value::Real(r)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

impl From<Oid> for Value {
    fn from(o: Oid) -> Self {
        Value::Oid(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_ranks_types() {
        let vals = [
            Value::Null,
            Value::Bool(false),
            Value::Int(1),
            Value::Str("a".into()),
            Value::Oid(Oid(1)),
            Value::List(vec![]),
        ];
        for w in vals.windows(2) {
            assert_eq!(w[0].total_cmp(&w[1]), Ordering::Less);
        }
    }

    #[test]
    fn int_real_compare_numerically() {
        assert_eq!(Value::Int(2).total_cmp(&Value::Real(2.5)), Ordering::Less);
        assert_eq!(Value::Real(3.0).total_cmp(&Value::Int(3)), Ordering::Equal);
        assert!(Value::Int(2).loose_eq(&Value::Real(2.0)));
        assert!(!Value::Int(2).loose_eq(&Value::Real(2.1)));
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(Value::Oid(Oid(0)).truthy());
        assert!(!Value::List(vec![]).truthy());
    }

    #[test]
    fn encode_decode_round_trip() {
        let vals = [
            Value::Null,
            Value::Bool(true),
            Value::Int(-12345),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Real(3.25),
            Value::Str("héllo".into()),
            Value::Oid(Oid(99)),
            Value::List(vec![
                Value::Int(1),
                Value::List(vec![Value::Str("x".into())]),
            ]),
        ];
        for v in &vals {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut r = Reader::new(&buf);
            let back = Value::decode(&mut r).unwrap();
            assert_eq!(&back, v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let decode = |bytes: &[u8]| Value::decode(&mut Reader::new(bytes));
        assert!(decode(&[200]).is_err());
        assert!(decode(&[]).is_err());
        // Truncated f64.
        assert!(decode(&[3, 0, 0]).is_err());
        // A list count larger than the bytes left.
        assert!(decode(&[6, 0xff, 0xff, 0xff, 0xff, 0x0f]).is_err());
        // Lists nested past the bound: an error, not a stack overflow.
        let nested = |depth: usize| [&[6u8, 1].repeat(depth)[..], &[0]].concat();
        assert!(decode(&nested(MAX_LIST_DEPTH)).is_ok());
        assert!(decode(&nested(MAX_LIST_DEPTH + 1)).is_err());
        assert!(decode(&nested(1_000_000)).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Str("a".into()).to_string(), "'a'");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Null]).to_string(),
            "[1, NULL]"
        );
    }

    #[test]
    fn list_ordering_is_lexicographic() {
        let a = Value::List(vec![Value::Int(1)]);
        let b = Value::List(vec![Value::Int(1), Value::Int(0)]);
        assert_eq!(a.total_cmp(&b), Ordering::Less);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn value_strategy() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            any::<f64>().prop_map(Value::Real),
            "[a-zA-Z0-9 ]{0,16}".prop_map(Value::Str),
            any::<u64>().prop_map(|o| Value::Oid(Oid(o))),
        ];
        leaf.prop_recursive(3, 24, 6, |inner| {
            prop::collection::vec(inner, 0..6).prop_map(Value::List)
        })
    }

    proptest! {
        #[test]
        fn encode_decode_round_trips(v in value_strategy()) {
            let mut buf = Vec::new();
            v.encode(&mut buf);
            let mut r = Reader::new(&buf);
            let back = Value::decode(&mut r).unwrap();
            // NaN != NaN under PartialEq, so compare via total order.
            prop_assert_eq!(back.total_cmp(&v), std::cmp::Ordering::Equal);
            prop_assert_eq!(r.remaining(), 0);
        }

        #[test]
        fn total_cmp_is_antisymmetric(a in value_strategy(), b in value_strategy()) {
            let ab = a.total_cmp(&b);
            let ba = b.total_cmp(&a);
            prop_assert_eq!(ab, ba.reverse());
        }

        #[test]
        fn total_cmp_is_transitive(
            mut vs in prop::collection::vec(value_strategy(), 3)
        ) {
            vs.sort_by(|x, y| x.total_cmp(y));
            prop_assert!(vs[0].total_cmp(&vs[2]) != std::cmp::Ordering::Greater);
        }
    }
}
