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
//!
//! An encoded row is the unit every layer below the engine interface
//! passes around: a session encodes a written row once, with
//! [`encode_into`], into a buffer it owns and reuses, and hands the same
//! bytes to its store and to its log; recovery hands a logged image to
//! its target as bytes ([`crate::Session::upsert_image`]). [`decode`]
//! materialises a row; [`check`] answers whether it would, without
//! allocating.

use bytes::{Buf, BufMut};

/// The buffer [`encode_into`] appends to, for callers that reuse one.
pub use bytes::BytesMut;

use crate::value::Value;

const TAG_LONG: u8 = 0x01;
const TAG_STR: u8 = 0x02;

/// Encoded size of a row without materializing it.
pub fn encoded_len(row: &[Value]) -> usize {
    2 + row.iter().map(Value::encoded_len).sum::<usize>()
}

/// Encode a row into an existing buffer (appends). Panics on rows with
/// more than 65 535 columns or strings longer than 64 KB (neither occurs
/// in any benchmark schema).
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

/// One column of an encoded row, borrowed from its buffer.
enum Field<'a> {
    Long(i64),
    Str(&'a str),
}

/// The columns of an encoded row, in order; yields an error where the
/// bytes stop being a row.
struct Fields<'a> {
    buf: &'a [u8],
    left: usize,
}

/// Read an encoded row's column count.
fn fields(mut buf: &[u8]) -> Result<Fields<'_>, DecodeError> {
    if buf.remaining() < 2 {
        return Err(DecodeError::Truncated);
    }
    let left = buf.get_u16() as usize;
    Ok(Fields { buf, left })
}

impl<'a> Iterator for Fields<'a> {
    type Item = Result<Field<'a>, DecodeError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.left = self.left.checked_sub(1)?;
        let buf = &mut self.buf;
        if buf.remaining() < 1 {
            return Some(Err(DecodeError::Truncated));
        }
        Some(match buf.get_u8() {
            TAG_LONG if buf.remaining() < 8 => Err(DecodeError::Truncated),
            TAG_LONG => Ok(Field::Long(buf.get_i64_le())),
            TAG_STR if buf.remaining() < 2 => Err(DecodeError::Truncated),
            TAG_STR => {
                let len = buf.get_u16() as usize;
                if buf.remaining() < len {
                    return Some(Err(DecodeError::Truncated));
                }
                let (s, rest) = buf.split_at(len);
                *buf = rest;
                std::str::from_utf8(s)
                    .map(Field::Str)
                    .map_err(|_| DecodeError::BadUtf8)
            }
            tag => Err(DecodeError::BadTag(tag)),
        })
    }
}

/// Decode a row previously produced by [`encode_into`].
pub fn decode(buf: &[u8]) -> Result<Vec<Value>, DecodeError> {
    let fields = fields(buf)?;
    let mut row = Vec::with_capacity(fields.left);
    for field in fields {
        row.push(match field? {
            Field::Long(x) => Value::Long(x),
            Field::Str(s) => Value::Str(s.to_string()),
        });
    }
    Ok(row)
}

/// Whether [`decode`] would accept `buf`, and its error if not, found by
/// a walk over the bytes that allocates nothing.
pub fn check(buf: &[u8]) -> Result<(), DecodeError> {
    fields(buf)?.try_for_each(|field| field.map(drop))
}

#[cfg(test)]
mod tests {
    use super::*;
    use uarch_sim::rng::XorShift64;

    fn encode(row: &[Value]) -> Vec<u8> {
        let mut buf = BytesMut::new();
        encode_into(row, &mut buf);
        buf.to_vec()
    }

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
    fn encode_into_appends() {
        let mut buf = BytesMut::new();
        encode_into(&[Value::Long(1)], &mut buf);
        encode_into(&[Value::from("x")], &mut buf);
        let first = encoded_len(&[Value::Long(1)]);
        assert_eq!(decode(&buf[..first]).unwrap(), [Value::Long(1)]);
        assert_eq!(decode(&buf[first..]).unwrap(), [Value::from("x")]);
    }

    #[test]
    fn truncation_detected() {
        let row = vec![Value::Long(7)];
        let bytes = encode(&row);
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut={cut} should fail");
            assert_eq!(check(&bytes[..cut]), Err(DecodeError::Truncated));
        }
    }

    #[test]
    fn bad_tag_detected() {
        let mut bytes = encode(&[Value::Long(7)]);
        bytes[2] = 0x7F;
        assert_eq!(decode(&bytes), Err(DecodeError::BadTag(0x7F)));
        assert_eq!(check(&bytes), Err(DecodeError::BadTag(0x7F)));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut bytes = encode(&[Value::from("ab")]);
        let n = bytes.len();
        bytes[n - 1] = 0xFF;
        assert_eq!(decode(&bytes), Err(DecodeError::BadUtf8));
        assert_eq!(check(&bytes), Err(DecodeError::BadUtf8));
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

    /// A row of up to 9 columns of both kinds: edge and random longs;
    /// empty, ASCII, multi-byte and longer-than-255-byte strings.
    fn random_row(rng: &mut XorShift64) -> Vec<Value> {
        const LONGS: [i64; 5] = [0, -1, 1, i64::MIN, i64::MAX];
        const PIECES: [&str; 5] = ["a", "Z9", "\u{e9}", "\u{65e5}\u{672c}", "\u{1f980}"];
        (0..rng.next_below(10))
            .map(|_| match rng.next_below(4) {
                0 => Value::Long(LONGS[rng.next_below(5) as usize]),
                1 => Value::Long(rng.next_u64() as i64),
                2 => Value::Str(String::new()),
                _ => {
                    let most = if rng.chance(0.1) { 200 } else { 20 };
                    let pieces = rng.next_below(most);
                    let s = (0..pieces).map(|_| PIECES[rng.next_below(5) as usize]);
                    Value::Str(s.collect())
                }
            })
            .collect()
    }

    #[test]
    fn decoding_then_encoding_gives_back_every_encoded_row() {
        let mut rng = XorShift64::new(0x7u64 << 40 | 11);
        let (mut longs, mut strs, mut long_strs) = (0, 0, 0);
        for _ in 0..3000 {
            let row = random_row(&mut rng);
            let bytes = encode(&row);
            assert_eq!(bytes.len(), encoded_len(&row));
            assert_eq!(check(&bytes), Ok(()));
            let decoded = decode(&bytes).expect("an encoded row decodes");
            assert_eq!(decoded, row, "decode inverts encode");
            assert_eq!(encode(&decoded), bytes, "encode inverts decode");
            // Every cut of an encoded row is refused alike by both.
            let cut = rng.next_below(bytes.len() as u64) as usize;
            assert_eq!(check(&bytes[..cut]), decode(&bytes[..cut]).map(drop));
            for v in &row {
                match v {
                    Value::Long(_) => longs += 1,
                    Value::Str(s) => {
                        strs += 1;
                        long_strs += usize::from(s.len() > 255);
                    }
                }
            }
        }
        assert!(longs > 1000 && strs > 1000 && long_strs > 10);
    }

    #[test]
    fn check_refuses_what_decode_refuses() {
        let mut rng = XorShift64::new(99);
        let mut refused = 0;
        for _ in 0..5000 {
            let mut bytes = encode(&random_row(&mut rng));
            // Flip one byte: a tag, a length, a payload byte or the count.
            let at = rng.next_below(bytes.len() as u64) as usize;
            bytes[at] = rng.next_u64() as u8;
            let want = decode(&bytes).map(drop);
            assert_eq!(check(&bytes), want, "{bytes:?}");
            refused += usize::from(want.is_err());
        }
        assert!(refused > 500, "{refused} refused");
    }
}
