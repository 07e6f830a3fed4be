//! Row codec.
//!
//! Rows are encoded into a compact tagged format:
//!
//! ```text
//! u16 column-count, then per column:
//!   0x01 i64-LE            (Long)
//!   0x02 u16-len bytes     (Str)
//! ```
//!
//! Engines store encoded rows in (simulated) pages and heap slots; the
//! encoded length also determines how many cache lines a row spans in the
//! simulated address space — which is exactly the property §6.2 of the
//! paper studies (50-byte `String`s give better spatial locality than
//! 8-byte `Long`s during comparisons).

use std::cell::RefCell;

use bytes::{Buf, BufMut, Bytes};

/// The buffer [`encode_into`] appends to, for callers that reuse one.
pub use bytes::BytesMut;

use crate::value::Value;

const TAG_LONG: u8 = 0x01;
const TAG_STR: u8 = 0x02;

/// Encoded size of a row without materializing it.
pub fn encoded_len(row: &[Value]) -> usize {
    2 + row.iter().map(Value::encoded_len).sum::<usize>()
}

/// Encode a row. Panics on rows with more than 65 535 columns or strings
/// longer than 64 KB (neither occurs in any benchmark schema).
///
/// The row is staged in a per-thread buffer and copied out once, so each
/// row costs one allocation (freezing a fresh `BytesMut` costs two).
pub fn encode(row: &[Value]) -> Bytes {
    thread_local!(static STAGE: RefCell<BytesMut> = RefCell::new(BytesMut::new()));
    STAGE.with_borrow_mut(|buf| {
        buf.clear();
        encode_into(row, buf);
        Bytes::copy_from_slice(buf)
    })
}

/// Encode a row into an existing buffer (appends).
pub fn encode_into(row: &[Value], buf: &mut BytesMut) {
    buf.put_u16(u16::try_from(row.len()).expect("too many columns"));
    for v in row {
        match v {
            Value::Long(x) => {
                buf.put_u8(TAG_LONG);
                buf.put_i64_le(*x);
            }
            Value::Str(s) => {
                buf.put_u8(TAG_STR);
                buf.put_u16(u16::try_from(s.len()).expect("string too long"));
                buf.put_slice(s.as_bytes());
            }
        }
    }
}

/// Decoding error.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended mid-value.
    Truncated,
    /// Unknown tag byte.
    BadTag(u8),
    /// String payload was not valid UTF-8.
    BadUtf8,
}

/// Decode a row previously produced by [`encode`].
pub fn decode(mut buf: &[u8]) -> Result<Vec<Value>, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let n = buf.get_u16() as usize;
    let mut row = Vec::with_capacity(n);
    for _ in 0..n {
        if buf.remaining() < 1 {
            return Err(DecodeError::Truncated);
        }
        match buf.get_u8() {
            TAG_LONG => {
                if buf.remaining() < 8 {
                    return Err(DecodeError::Truncated);
                }
                row.push(Value::Long(buf.get_i64_le()));
            }
            TAG_STR => {
                if buf.remaining() < 2 {
                    return Err(DecodeError::Truncated);
                }
                let len = buf.get_u16() as usize;
                if buf.remaining() < len {
                    return Err(DecodeError::Truncated);
                }
                let s = std::str::from_utf8(&buf[..len]).map_err(|_| DecodeError::BadUtf8)?;
                row.push(Value::Str(s.to_string()));
                buf.advance(len);
            }
            tag => return Err(DecodeError::BadTag(tag)),
        }
    }
    Ok(row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_mixed_row() {
        let row = vec![
            Value::Long(-42),
            Value::from("hello"),
            Value::Long(i64::MAX),
        ];
        let bytes = encode(&row);
        assert_eq!(bytes.len(), encoded_len(&row));
        assert_eq!(decode(&bytes).unwrap(), row);
    }

    #[test]
    fn empty_row_round_trips() {
        let row: Vec<Value> = vec![];
        assert_eq!(decode(&encode(&row)).unwrap(), row);
    }

    #[test]
    fn truncation_detected() {
        let row = vec![Value::Long(7)];
        let bytes = encode(&row);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut={cut} should fail");
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut bytes = encode(&[Value::Long(7)]).to_vec();
        bytes[2] = 0x7F;
        assert_eq!(decode(&bytes), Err(DecodeError::BadTag(0x7F)));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut bytes = encode(&[Value::from("ab")]).to_vec();
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        assert_eq!(decode(&bytes), Err(DecodeError::BadUtf8));
    }

    #[test]
    fn micro_benchmark_row_sizes() {
        // The paper's Long micro-benchmark row: two Long columns.
        let long_row = vec![Value::Long(1), Value::Long(2)];
        assert_eq!(encoded_len(&long_row), 2 + 9 + 9);
        // The String variant: two 50-byte strings.
        let s = "x".repeat(50);
        let str_row = vec![Value::Str(s.clone()), Value::Str(s)];
        assert_eq!(encoded_len(&str_row), 2 + 2 * (1 + 2 + 50));
    }
}
