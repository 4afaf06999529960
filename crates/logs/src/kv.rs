//! One-pass byte tokenizer shared by the four text record parsers.
//!
//! Log lines in this workspace look like
//! `<timestamp> <node> <source>: k1=v1 k2=v2 …`. [`split_line`] cuts the
//! head tokens off a line, and [`fields`] then visits each token of the
//! tail once, keeping the first value of every key a parser asks for.
//! Tokens are separated by single spaces; tokens without `=` and unknown
//! keys are skipped, so formats can gain fields without breaking old
//! parsers. Numbers are read where they stand by
//! [`astra_util::ascii`], which takes exactly what `FromStr` takes.

use astra_topology::DimmSlot;
use astra_util::ascii;

/// `s` cut at its first space, which neither part keeps.
fn split_space(s: &[u8]) -> Option<(&[u8], &[u8])> {
    let i = s.iter().position(|&b| b == b' ')?;
    Some((&s[..i], &s[i + 1..]))
}

/// Split a log line into `(timestamp, node, tail)`, `None` unless its
/// third token is `source` with a trailing colon, e.g. `kernel:`.
pub(crate) fn split_line<'a>(
    line: &'a [u8],
    source: &[u8],
) -> Option<(&'a [u8], &'a [u8], &'a [u8])> {
    let (ts, rest) = split_space(line)?;
    let (node, rest) = split_space(rest)?;
    let tail = match rest.strip_prefix(source)?.strip_prefix(b":")? {
        [] => &[][..],
        [b' ', tail @ ..] => tail,
        _ => return None,
    };
    Some((ts, node, tail))
}

/// The values of `keys` in a `k1=v1 k2=v2 …` tail, in the order of
/// `keys`, each `None` when absent. No key may hold a space or `=`.
///
/// One scan: a token's key ends at its first `=` and its value at the
/// next space. The first occurrence of a key wins, so the scan stops
/// once every key has a value. Writers emit the keys in `keys` order, so
/// the key after the last match is checked in place first, before the
/// token is scanned for its `=`.
pub(crate) fn fields<'a, const N: usize>(
    tail: &'a [u8],
    keys: &[&[u8]; N],
) -> [Option<&'a [u8]>; N] {
    let mut values = [None; N];
    let mut missing = N;
    let mut next = 0;
    let mut rest = tail;
    while missing > 0 {
        let expected = keys[next];
        let (hit, value_on) =
            if rest.get(expected.len()) == Some(&b'=') && rest.starts_with(expected) {
                (Some(next), &rest[expected.len() + 1..])
            } else {
                let Some(i) = rest.iter().position(|&b| b == b'=' || b == b' ') else {
                    break;
                };
                if rest[i] == b' ' {
                    // A token without `=`.
                    rest = &rest[i + 1..];
                    continue;
                }
                let key = &rest[..i];
                (keys.iter().position(|k| *k == key), &rest[i + 1..])
            };
        let (value, after) = split_space(value_on).unwrap_or((value_on, &[]));
        if let Some(k) = hit {
            if values[k].is_none() {
                values[k] = Some(value);
                missing -= 1;
            }
            next = if k + 1 == N { 0 } else { k + 1 };
        }
        rest = after;
    }
    values
}

/// Parse the `node####` form produced by `NodeId`'s `Display`.
pub(crate) fn parse_node(s: &[u8]) -> Option<u32> {
    ascii::dec_uint(s.strip_prefix(b"node")?)
}

/// The DIMM slot named by the first character of a value (`A`–`P`,
/// either case); an empty value is `None`.
pub(crate) fn parse_slot(v: &[u8]) -> Option<DimmSlot> {
    // A byte past ASCII stands for a character that is no slot letter,
    // as the character it starts would.
    DimmSlot::from_letter(char::from(*v.first()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    const KEYS: [&[u8]; 3] = [b"a", b"b", b"c"];

    #[test]
    fn field_lookup() {
        let [a, b, c] = fields(b"a=1 b=two c=0x3", &KEYS);
        assert_eq!(
            (a, b, c),
            (Some(&b"1"[..]), Some(&b"two"[..]), Some(&b"0x3"[..]))
        );
        let [a, d] = fields(b"a=1 b=2", &[b"a", b"d"]);
        assert_eq!((a, d), (Some(&b"1"[..]), None));
        // Any order; the first occurrence wins; unknown keys, tokens
        // without `=` and empty tokens are skipped.
        let [a, b, c] = fields(b"c=3 x=9 bare b=2=2 a= a=late  b=again", &KEYS);
        assert_eq!(a, Some(&b""[..]));
        assert_eq!(b, Some(&b"2=2"[..]));
        assert_eq!(c, Some(&b"3"[..]));
        assert_eq!(fields(b"", &KEYS), [None; 3]);
        assert_eq!(fields(b"=1 a", &KEYS), [None; 3]);
    }

    #[test]
    fn split_line_shape() {
        let (ts, node, tail) =
            split_line(b"2019-01-20T00:00:00 node0001 kernel: x=1", b"kernel").unwrap();
        assert_eq!(ts, b"2019-01-20T00:00:00");
        assert_eq!(node, b"node0001");
        assert_eq!(tail, b"x=1");
        let (_, _, tail) = split_line(b"t n kernel:", b"kernel").unwrap();
        assert_eq!(tail, b"");
    }

    #[test]
    fn split_line_rejects_missing_colon() {
        assert!(split_line(b"2019-01-20T00:00:00 node0001 kernel x=1", b"kernel").is_none());
        assert!(split_line(b"2019-01-20T00:00:00 node0001 kernel:: x=1", b"kernel").is_none());
        assert!(split_line(b"2019-01-20T00:00:00 node0001 BMC: x=1", b"kernel").is_none());
        assert!(split_line(b"too short", b"kernel").is_none());
    }

    #[test]
    fn node_parse() {
        assert_eq!(parse_node(b"node0042"), Some(42));
        assert_eq!(parse_node(b"node+7"), Some(7));
        assert_eq!(parse_node(b"n42"), None);
        assert_eq!(parse_node(b"nodeXX"), None);
        assert_eq!(parse_node(b"node4294967296"), None);
    }

    #[test]
    fn slot_parse_reads_the_first_character() {
        assert_eq!(parse_slot(b"E"), DimmSlot::from_letter('E'));
        assert_eq!(parse_slot(b"exyz"), DimmSlot::from_letter('E'));
        assert_eq!(parse_slot(b""), None);
        assert_eq!(parse_slot(b"Q"), None);
        assert_eq!(parse_slot("é".as_bytes()), None);
    }
}
