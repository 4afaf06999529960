//! The `str`-splitting text parsers that the one-pass byte parsers
//! replaced, kept as their test oracle, and the mutation corpus the
//! differential tests feed both.
//!
//! Each `parse_*` function is the old `parse_line` of its format with the
//! helpers it called: `field` re-split the tail once per key, and every
//! number went through `str::parse`. The byte parsers must return the
//! same record on every line, except on the lines [`refused`] names,
//! which these parsers accepted slowly or panicked on.
//!
//! The file is compiled twice: into this crate's unit tests, and through
//! `#[path]` into the workspace's cross-crate log tests, which run it
//! over every line of a generated dataset. Both parents have the record
//! types in scope, hence `use super::`.

#![allow(dead_code)]

use astra_topology::{DimmSlot, NodeId, PhysAddr, RankId, SensorId, SocketId};
use astra_util::{CalDate, Minute};

use super::{
    CeRecord, Component, HetKind, HetRecord, HetSeverity, ReplacementRecord, SensorRecord,
};

/// Find `key=` in a space-separated tail and return the raw value.
fn field<'a>(tail: &'a str, key: &str) -> Option<&'a str> {
    tail.split(' ').find_map(|tok| {
        let (k, v) = tok.split_once('=')?;
        (k == key).then_some(v)
    })
}

/// Split a log line into `(timestamp, node, source, tail)`.
fn split_line(line: &str) -> Option<(&str, &str, &str, &str)> {
    let mut parts = line.splitn(4, ' ');
    let ts = parts.next()?;
    let node = parts.next()?;
    let source = parts.next()?.strip_suffix(':')?;
    let tail = parts.next().unwrap_or("");
    Some((ts, node, source, tail))
}

fn parse_node(s: &str) -> Option<u32> {
    s.strip_prefix("node")?.parse().ok()
}

fn parse_hex(s: &str) -> Option<PhysAddr> {
    let digits = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X"))?;
    u64::from_str_radix(digits, 16).ok().map(PhysAddr)
}

fn parse_sensor_name(s: &str) -> Option<SensorId> {
    match s {
        "cpu0" => SensorId::from_index(0),
        "cpu1" => SensorId::from_index(1),
        "power" => SensorId::from_index(6),
        _ => {
            let g: u8 = s.strip_prefix("dimmg")?.parse().ok()?;
            (g < 4).then(|| SensorId::from_index(2 + g)).flatten()
        }
    }
}

/// The old `Minute::parse_rfc3339`. It takes any year, so it must not
/// see the years above 9999 that [`refused`] names: their conversion
/// overflows.
fn parse_rfc3339(s: &str) -> Option<Minute> {
    let (date_part, time_part) = s.split_once('T')?;
    let mut dit = date_part.splitn(3, '-');
    let year: i64 = dit.next()?.parse().ok()?;
    let month: u32 = dit.next()?.parse().ok()?;
    let day: u32 = dit.next()?.parse().ok()?;
    if !(1..=12).contains(&month) || day < 1 || day > days_in_month(year, month) {
        return None;
    }
    let mut tit = time_part.splitn(3, ':');
    let hour: i64 = tit.next()?.parse().ok()?;
    let min: i64 = tit.next()?.parse().ok()?;
    if !(0..24).contains(&hour) || !(0..60).contains(&min) {
        return None;
    }
    let date = CalDate::new(year, month, day);
    Some(date.midnight().plus(hour * 60 + min))
}

fn days_in_month(year: i64, month: u32) -> u32 {
    let leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
    match month {
        2 if leap => 29,
        2 => 28,
        4 | 6 | 9 | 11 => 30,
        _ => 31,
    }
}

/// The old `CeRecord::parse_line`.
pub fn parse_ce(line: &str) -> Option<CeRecord> {
    let (ts, node, source, tail) = split_line(line)?;
    if source != "kernel" {
        return None;
    }
    let rest = tail.strip_prefix("EDAC MC")?;
    let (mc, rest) = rest.split_once(": CE ")?;
    let socket: u8 = mc.parse().ok()?;
    if socket > 1 {
        return None;
    }
    let time = parse_rfc3339(ts)?;
    let node = NodeId(parse_node(node)?);
    let slot = DimmSlot::from_letter(field(rest, "slot")?.chars().next()?)?;
    let rank: u8 = field(rest, "rank")?.parse().ok()?;
    if rank > 1 {
        return None;
    }
    let bank: u16 = field(rest, "bank")?.parse().ok()?;
    let row = match field(rest, "row")? {
        "-" => None,
        r => Some(r.parse().ok()?),
    };
    let col: u16 = field(rest, "col")?.parse().ok()?;
    let bit_pos: u16 = field(rest, "bit")?.parse().ok()?;
    let addr = parse_hex(field(rest, "addr")?)?;
    let synd = field(rest, "synd")?;
    let syndrome = u32::from_str_radix(synd.strip_prefix("0x")?, 16).ok()?;
    if slot.socket() != SocketId(socket) {
        return None;
    }
    Some(CeRecord {
        time,
        node,
        socket: SocketId(socket),
        slot,
        rank: RankId(rank),
        bank,
        row,
        col,
        bit_pos,
        addr,
        syndrome,
    })
}

/// The old `HetRecord::parse_line`.
pub fn parse_het(line: &str) -> Option<HetRecord> {
    let (ts, node, source, tail) = split_line(line)?;
    if source != "HET" {
        return None;
    }
    let time = parse_rfc3339(ts)?;
    let node = NodeId(parse_node(node)?);
    let event = field(tail, "event")?;
    let kind = HetKind::ALL.into_iter().find(|k| k.name() == event)?;
    let severity = match field(tail, "severity")? {
        "WARNING" => HetSeverity::Warning,
        "CRITICAL" => HetSeverity::Critical,
        "NON-RECOVERABLE" => HetSeverity::NonRecoverable,
        _ => return None,
    };
    let slot = match field(tail, "slot") {
        Some(s) => Some(DimmSlot::from_letter(s.chars().next()?)?),
        None => None,
    };
    Some(HetRecord {
        time,
        node,
        kind,
        severity,
        slot,
    })
}

/// The old `SensorRecord::parse_line`.
pub fn parse_sensor(line: &str) -> Option<SensorRecord> {
    let (ts, node, source, tail) = split_line(line)?;
    if source != "BMC" {
        return None;
    }
    let time = parse_rfc3339(ts)?;
    let node = NodeId(parse_node(node)?);
    let sensor = parse_sensor_name(field(tail, "sensor")?)?;
    let value = match field(tail, "value")? {
        "unreadable" => None,
        v => Some(v.parse().ok()?),
    };
    Some(SensorRecord {
        time,
        node,
        sensor,
        value,
    })
}

/// The date fields of an inventory line as the old parser read them,
/// once it had checked the month and that the day is at most 31.
fn inventory_date(line: &str) -> Option<(i64, u32, u32)> {
    let (date_str, _, source, _) = split_line(line)?;
    if source != "inventory" {
        return None;
    }
    let mut dit = date_str.splitn(3, '-');
    let year: i64 = dit.next()?.parse().ok()?;
    let month: u32 = dit.next()?.parse().ok()?;
    let day: u32 = dit.next()?.parse().ok()?;
    if !(1..=12).contains(&month) || !(1..=31).contains(&day) {
        return None;
    }
    Some((year, month, day))
}

/// The old `ReplacementRecord::parse_line`. `CalDate::new` panics on a
/// day past the end of its month, which [`refused`] names.
pub fn parse_inventory(line: &str) -> Option<ReplacementRecord> {
    let (year, month, day) = inventory_date(line)?;
    let (_, node, _, tail) = split_line(line)?;
    let date = CalDate::new(year, month, day);
    let node = NodeId(parse_node(node)?);
    let component = match field(tail, "component")? {
        "processor" => {
            let s: u8 = field(tail, "socket")?.parse().ok()?;
            if s > 1 {
                return None;
            }
            Component::Processor(SocketId(s))
        }
        "motherboard" => Component::Motherboard,
        "dimm" => {
            let slot = DimmSlot::from_letter(field(tail, "slot")?.chars().next()?)?;
            Component::Dimm(slot)
        }
        _ => return None,
    };
    Some(ReplacementRecord {
        date,
        node,
        component,
    })
}

/// Whether `line` is one the byte parsers refuse on purpose where these
/// parsers did not: its first token starts with a year above 9999
/// (these parsers took time linear in the year, or overflowed), or it is
/// an inventory line whose day is past the end of its month
/// (`2019-02-30`, on which the old inventory parser panicked). The
/// oracle must not be called on such a line; the byte parsers return
/// `None` for it.
pub fn refused(line: &str) -> bool {
    let year = line.split([' ', '-', 'T']).next().unwrap_or("");
    if year.parse::<i64>().is_ok_and(|y| y > 9999) {
        return true;
    }
    inventory_date(line).is_some_and(|(y, m, d)| d > days_in_month(y, m))
}

/// Characters the corpus substitutes and inserts: separators, signs,
/// digits at the edges of each range, slot letters in and out of range,
/// hex prefixes, a carriage return and a character past ASCII.
const ALPHABET: &[char] = &[
    ' ', '+', '-', '.', ':', '=', '0', '1', '2', '9', 'A', 'E', 'P', 'Q', 'T', 'a', 'e', 'x', 'X',
    '\r', 'é',
];

/// `line` with each single character deleted, substituted by each
/// character of [`ALPHABET`], and with each of those inserted at each
/// position. `line` must be ASCII.
pub fn single_edits(line: &str) -> Vec<String> {
    assert!(line.is_ascii(), "{line}");
    let mut out = Vec::with_capacity((line.len() + 1) * (2 * ALPHABET.len() + 1));
    for i in 0..=line.len() {
        let (head, tail) = line.split_at(i);
        for &c in ALPHABET {
            out.push(format!("{head}{c}{tail}"));
            if let Some(rest) = tail.get(1..) {
                out.push(format!("{head}{c}{rest}"));
            }
        }
        if let Some(rest) = tail.get(1..) {
            out.push(format!("{head}{rest}"));
        }
    }
    out
}

/// Variants of a well-formed line that keep its meaning or change it in
/// one structured way: its `key=value` fields reversed, each key
/// duplicated after itself (the first wins) and before itself with a
/// bad value, unknown keys and a token without `=` added, a `+` on every
/// number, lowercase slot letters, and a CRLF ending.
pub fn structured_variants(line: &str) -> Vec<String> {
    let tokens: Vec<&str> = line.split(' ').collect();
    // Head and any tokens before the first `key=value` stay in place.
    let first_kv = tokens
        .iter()
        .position(|t| t.contains('='))
        .unwrap_or(tokens.len());
    let (head, kv) = tokens.split_at(first_kv);
    let join = |kv: &[String]| {
        let mut all: Vec<&str> = head.to_vec();
        all.extend(kv.iter().map(String::as_str));
        all.join(" ")
    };
    let kv: Vec<String> = kv.iter().map(|t| t.to_string()).collect();
    let mut out = vec![line.to_string(), format!("{line}\r")];
    out.push(join(&kv.iter().rev().cloned().collect::<Vec<_>>()));
    for (i, tok) in kv.iter().enumerate() {
        let key = tok.split('=').next().unwrap();
        let mut after = kv.clone();
        after.insert(i + 1, format!("{key}=9x"));
        out.push(join(&after));
        let mut before = kv.clone();
        before.insert(i, format!("{key}=?"));
        out.push(join(&before));
    }
    let mut unknown = vec!["zz=1".to_string(), "bare".to_string()];
    unknown.extend(kv.iter().cloned());
    unknown.push("x=y=z".to_string());
    out.push(join(&unknown));
    let plus: Vec<String> = kv
        .iter()
        .map(|t| match t.split_once('=') {
            Some((k, v)) if v.starts_with(|c: char| c.is_ascii_digit()) => format!("{k}=+{v}"),
            _ => t.clone(),
        })
        .collect();
    out.push(join(&plus));
    out.push(
        format!("+{line}")
            .replacen('-', "-+", 2)
            .replacen('T', "T+", 1)
            .replacen(':', ":-", 1)
            .replacen("node", "node+", 1),
    );
    out.push(lowercase_slots(line));
    out
}

/// `line` with the letter after each `slot=` in lowercase.
fn lowercase_slots(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(i) = rest.find("slot=") {
        let (done, next) = rest.split_at(i + 5);
        out.push_str(done);
        let mut chars = next.chars();
        if let Some(c) = chars.next() {
            out.push(c.to_ascii_lowercase());
        }
        rest = chars.as_str();
    }
    out.push_str(rest);
    out
}

/// Check a byte parser against its oracle on one line: the same record
/// (by `same`), or `None` from the byte parser on a [`refused`] line.
/// Returns whether the line was refused.
pub fn check_line<T: std::fmt::Debug>(
    line: &str,
    parse: fn(&str) -> Option<T>,
    oracle: fn(&str) -> Option<T>,
    same: fn(&T, &T) -> bool,
) -> bool {
    let got = parse(line);
    if refused(line) {
        assert!(got.is_none(), "accepted a refused line {line:?}: {got:?}");
        return true;
    }
    let want = oracle(line);
    let agree = match (&got, &want) {
        (Some(g), Some(w)) => same(g, w),
        (None, None) => true,
        _ => false,
    };
    assert!(agree, "line {line:?}: parsed {got:?}, oracle {want:?}");
    false
}

/// Run [`check_line`] over every line of the corpus built from `bases`:
/// each base line, its [`structured_variants`], and every
/// [`single_edits`] of those. Returns `(lines checked, lines refused)`.
pub fn check_corpus<T: std::fmt::Debug>(
    bases: &[String],
    parse: fn(&str) -> Option<T>,
    oracle: fn(&str) -> Option<T>,
    same: fn(&T, &T) -> bool,
) -> (usize, usize) {
    let (mut checked, mut refused) = (0, 0);
    for base in bases {
        for variant in structured_variants(base) {
            let edits = if variant.is_ascii() {
                single_edits(&variant)
            } else {
                Vec::new()
            };
            for line in std::iter::once(variant).chain(edits) {
                checked += 1;
                refused += usize::from(check_line(&line, parse, oracle, same));
            }
        }
    }
    (checked, refused)
}
