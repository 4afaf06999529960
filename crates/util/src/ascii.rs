//! Numbers read straight from ASCII bytes, with exactly the rules of the
//! standard `FromStr` impls.
//!
//! The text log parsers and the checkpoint reader scan their input as
//! bytes. These helpers let them parse a number where it stands instead
//! of first cutting it out as a `&str`: the `lead_*` forms read the
//! number at the start of a slice and hand back the bytes after it, the
//! others take a whole token. Each accepts what the matching `FromStr`
//! accepts of a whole token: an optional `+` (and for signed types `-`),
//! then at least one digit, with overflow refused. Leading zeros are
//! fine, whitespace is not.

/// At least one ASCII digit at the start of `s`, and the bytes after
/// them; overflow is `None`.
#[inline]
fn digits(s: &[u8]) -> Option<(u64, &[u8])> {
    let mut value = 0u64;
    let mut n = 0;
    while let Some(&b) = s.get(n) {
        let d = b.wrapping_sub(b'0');
        if d > 9 {
            break;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(d))?;
        n += 1;
    }
    (n > 0).then(|| (value, &s[n..]))
}

/// The unsigned number at the start of `s` (an optional `+`, then
/// digits), and the bytes after it.
#[inline]
pub fn lead_u64(s: &[u8]) -> Option<(u64, &[u8])> {
    digits(s.strip_prefix(b"+").unwrap_or(s))
}

/// The signed number at the start of `s` (an optional `-` or `+`, then
/// digits), and the bytes after it.
#[inline]
pub(crate) fn lead_i64(s: &[u8]) -> Option<(i64, &[u8])> {
    match s.strip_prefix(b"-") {
        Some(s) => {
            let (v, rest) = digits(s)?;
            Some((0i64.checked_sub_unsigned(v)?, rest))
        }
        None => {
            let (v, rest) = lead_u64(s)?;
            Some((i64::try_from(v).ok()?, rest))
        }
    }
}

/// A whole token as `u64::from_str` reads it.
#[inline]
pub fn dec_u64(tok: &[u8]) -> Option<u64> {
    match lead_u64(tok)? {
        (v, []) => Some(v),
        _ => None,
    }
}

/// A whole token as `i64::from_str` reads it.
#[inline]
pub fn dec_i64(tok: &[u8]) -> Option<i64> {
    match lead_i64(tok)? {
        (v, []) => Some(v),
        _ => None,
    }
}

/// A whole token as the `FromStr` of a narrower unsigned type reads it:
/// a value past the type's range is `None`.
#[inline]
pub fn dec_uint<T: TryFrom<u64>>(tok: &[u8]) -> Option<T> {
    T::try_from(dec_u64(tok)?).ok()
}

/// A whole token as `u64::from_str_radix(_, 16)` reads it: an optional
/// `+`, then hex digits of either case.
#[inline]
pub fn hex_u64(tok: &[u8]) -> Option<u64> {
    let digits = tok.strip_prefix(b"+").unwrap_or(tok);
    if digits.is_empty() {
        return None;
    }
    digits.iter().try_fold(0u64, |acc, &b| {
        let d = match b {
            b'0'..=b'9' => b - b'0',
            b'a'..=b'f' => b - b'a' + 10,
            b'A'..=b'F' => b - b'A' + 10,
            _ => return None,
        };
        acc.checked_mul(16)?.checked_add(u64::from(d))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Tokens at the edges of the grammar: signs, empties, overflow
    /// boundaries, leading zeros, stray bytes.
    const EDGES: &[&str] = &[
        "",
        "+",
        "-",
        "++1",
        "+-1",
        "-+1",
        "--1",
        "0",
        "-0",
        "+0",
        "007",
        "1 ",
        " 1",
        "1_000",
        "1e3",
        "0x10",
        "abc",
        "ABCDEF",
        "fFfF",
        "g",
        "255",
        "256",
        "65535",
        "65536",
        "4294967295",
        "4294967296",
        "9223372036854775807",
        "9223372036854775808",
        "-9223372036854775808",
        "-9223372036854775809",
        "18446744073709551615",
        "18446744073709551616",
        "000000000000000000000000000000000042",
        "ffffffffffffffff",
        "10000000000000000",
        "+ffffffffffffffff",
        "é",
        "1é",
    ];

    /// Every token of `EDGES` and every string of up to three bytes over
    /// a small alphabet.
    fn tokens() -> Vec<String> {
        let alphabet = ["", "0", "1", "9", "a", "F", "+", "-", " ", "x"];
        let mut out: Vec<String> = EDGES.iter().map(|s| s.to_string()).collect();
        for a in alphabet {
            for b in alphabet {
                for c in alphabet {
                    out.push(format!("{a}{b}{c}"));
                }
            }
        }
        out
    }

    #[test]
    fn decimal_parsers_match_from_str() {
        for tok in tokens() {
            let b = tok.as_bytes();
            assert_eq!(dec_u64(b), tok.parse::<u64>().ok(), "u64 {tok:?}");
            assert_eq!(dec_i64(b), tok.parse::<i64>().ok(), "i64 {tok:?}");
            assert_eq!(dec_uint::<u8>(b), tok.parse::<u8>().ok(), "u8 {tok:?}");
            assert_eq!(dec_uint::<u16>(b), tok.parse::<u16>().ok(), "u16 {tok:?}");
            assert_eq!(dec_uint::<u32>(b), tok.parse::<u32>().ok(), "u32 {tok:?}");
        }
    }

    #[test]
    fn hex_parser_matches_from_str_radix() {
        for tok in tokens() {
            assert_eq!(
                hex_u64(tok.as_bytes()),
                u64::from_str_radix(&tok, 16).ok(),
                "{tok:?}"
            );
        }
    }

    #[test]
    fn lead_parsers_stop_at_the_first_non_digit() {
        assert_eq!(lead_u64(b"2019-01"), Some((2019, &b"-01"[..])));
        assert_eq!(lead_u64(b"+7:x"), Some((7, &b":x"[..])));
        assert_eq!(lead_i64(b"-0:00"), Some((0, &b":00"[..])));
        assert_eq!(lead_i64(b"-12T"), Some((-12, &b"T"[..])));
        assert_eq!(lead_u64(b"-1"), None);
        assert_eq!(lead_u64(b"x1"), None);
        assert_eq!(lead_i64(b"-+1"), None);
        assert_eq!(lead_u64(b"99999999999999999999-"), None);
    }

    proptest! {
        #[test]
        fn prop_decimal_roundtrip(v in i64::MIN..i64::MAX, u in 0u64..u64::MAX) {
            prop_assert_eq!(dec_i64(v.to_string().as_bytes()), Some(v));
            prop_assert_eq!(dec_u64(u.to_string().as_bytes()), Some(u));
            prop_assert_eq!(hex_u64(format!("{u:x}").as_bytes()), Some(u));
        }
    }
}
