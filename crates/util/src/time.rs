//! Simulated time for the study interval.
//!
//! All timestamps in the workspace are [`Minute`]s — minutes elapsed since
//! the **epoch 2019-01-01 00:00**, the year the Astra study data was
//! collected. A minute is the natural resolution: BMC sensors sample once per
//! minute, and the kernel CE-polling cadence (seconds) is modeled inside the
//! log-buffer simulation without needing sub-minute global timestamps.
//!
//! [`CalDate`] provides just enough proleptic-Gregorian calendar to convert
//! between dates and day indices, bucket by month, and format RFC-3339-style
//! strings for log records. 2019 is not a leap year, but the conversions are
//! exact for arbitrary years anyway — the library should not break if someone
//! simulates a different interval. Both directions are closed-form (400-year
//! eras, no loop over years), so any `i64` minute converts in constant time
//! and without overflow.

use std::fmt;

use crate::ascii;

/// Minutes in a day.
pub const MINUTES_PER_DAY: u64 = 24 * 60;

/// Cumulative days at the start of each month for a non-leap year.
const CUM_DAYS: [u64; 13] = [0, 31, 59, 90, 120, 151, 181, 212, 243, 273, 304, 334, 365];

/// Days in 400 Gregorian years, after which the calendar repeats.
const DAYS_PER_ERA: i64 = 146_097;

/// Days from 0000-03-01 to 2019-01-01. The closed-form conversions count
/// years from March 1, so that a leap day is the last day of its year.
const EPOCH_FROM_MARCH_0000: i64 = 737_365;

/// The largest year a text date may carry: RFC 3339 years have four
/// digits.
const MAX_TEXT_YEAR: u64 = 9999;

fn is_leap(year: i64) -> bool {
    (year % 4 == 0 && year % 100 != 0) || year % 400 == 0
}

fn days_in_month(year: i64, month: u32) -> u64 {
    let base = CUM_DAYS[month as usize] - CUM_DAYS[month as usize - 1];
    if month == 2 && is_leap(year) {
        base + 1
    } else {
        base
    }
}

/// `YYYY-MM-DD` at the start of `s`, and the bytes after it. Each number
/// takes an optional `+` and leading zeros, as `FromStr` does; a year
/// above [`MAX_TEXT_YEAR`] or a day past the end of its month is `None`.
fn parse_date(s: &[u8]) -> Option<(CalDate, &[u8])> {
    let (year, rest) = ascii::lead_u64(s)?;
    let (month, rest) = ascii::lead_u64(rest.strip_prefix(b"-")?)?;
    let (day, rest) = ascii::lead_u64(rest.strip_prefix(b"-")?)?;
    if year > MAX_TEXT_YEAR || !(1..=12).contains(&month) {
        return None;
    }
    let (year, month) = (year as i64, month as u32);
    if day < 1 || day > days_in_month(year, month) {
        return None;
    }
    Some((
        CalDate {
            year,
            month,
            day: day as u32,
        },
        rest,
    ))
}

/// A calendar date (proleptic Gregorian).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CalDate {
    /// Four-digit year.
    pub year: i64,
    /// Month, 1–12.
    pub month: u32,
    /// Day of month, 1-based.
    pub day: u32,
}

impl CalDate {
    /// Construct a date, panicking on out-of-range components.
    pub fn new(year: i64, month: u32, day: u32) -> Self {
        assert!((1..=12).contains(&month), "month {month} out of range");
        assert!(
            day >= 1 && u64::from(day) <= days_in_month(year, month),
            "day {day} out of range for {year}-{month:02}"
        );
        CalDate { year, month, day }
    }

    /// Parse `YYYY-MM-DD`, the form `Display` writes. Each number takes
    /// an optional `+` and leading zeros, as `FromStr` does. A year
    /// above 9999 or a day past the end of its month is `None`.
    pub fn parse(s: impl AsRef<[u8]>) -> Option<Self> {
        match parse_date(s.as_ref())? {
            (date, []) => Some(date),
            _ => None,
        }
    }

    /// Days elapsed since 2019-01-01 (may be negative for earlier dates).
    ///
    /// Closed form: the year, counted from March so that a leap day ends
    /// it, splits into whole 400-year eras and a year `y` of its era,
    /// whose days are `1461 y / 4 - y / 100`; `(979 m - 2919) / 32` counts
    /// the days before month `m` (3 = March … 14 = February). Exact for
    /// every date of an `i64` minute.
    pub fn day_index(self) -> i64 {
        let jan_feb = self.month <= 2;
        let year = self.year - i64::from(jan_feb);
        let (era, year_of_era) = (year.div_euclid(400), year.rem_euclid(400) as u32);
        let month = if jan_feb { self.month + 12 } else { self.month };
        let day_of_era = 1461 * year_of_era / 4 - year_of_era / 100 + (979 * month - 2919) / 32;
        era * DAYS_PER_ERA + i64::from(day_of_era) + i64::from(self.day) - 1 - EPOCH_FROM_MARCH_0000
    }

    /// Inverse of [`CalDate::day_index`], closed-form and defined for
    /// every `i64`. Whole eras are split off first, so nothing overflows;
    /// the date within its era follows from the Euclidean affine
    /// functions of Neri and Schneider ("Euclidean affine functions and
    /// their application to calendar algorithms"), in `u32` arithmetic.
    pub fn from_day_index(idx: i64) -> Self {
        // The signed era split costs as much as the rest, and every date
        // the study logs lies in the era that starts at the epoch
        // (2019-2418), so that era skips it.
        let (era, rest) = if (0..DAYS_PER_ERA).contains(&idx) {
            (0, idx)
        } else {
            (idx.div_euclid(DAYS_PER_ERA), idx.rem_euclid(DAYS_PER_ERA))
        };
        // Days from March 1 of year `400 * era`: below 900,000, so the
        // products below stay within `u32`.
        let days = (rest + EPOCH_FROM_MARCH_0000) as u32;
        let n1 = 4 * days + 3;
        let (century, day_of_century) = (n1 / 146_097, n1 % 146_097 / 4);
        let n2 = 2_939_745 * u64::from(4 * day_of_century + 3);
        let (year_of_century, day_of_year) = ((n2 >> 32) as u32, n2 as u32 / 2_939_745 / 4);
        // Month 3 = March … 14 = February, and the day in it.
        let n3 = 2_141 * day_of_year + 197_913;
        let (month, day) = (n3 >> 16, (n3 & 0xffff) / 2_141 + 1);
        let jan_feb = day_of_year >= 306;
        CalDate {
            year: era * 400 + i64::from(100 * century + year_of_century) + i64::from(jan_feb),
            month: if jan_feb { month - 12 } else { month },
            day,
        }
    }

    /// Midnight at the start of this date.
    pub fn midnight(self) -> Minute {
        Minute::from_i64(self.day_index() * MINUTES_PER_DAY as i64)
    }

    /// The date `n` days later.
    #[must_use]
    pub fn plus_days(self, n: i64) -> Self {
        Self::from_day_index(self.day_index() + n)
    }
}

impl fmt::Display for CalDate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04}-{:02}-{:02}", self.year, self.month, self.day)
    }
}

/// A timestamp: minutes since 2019-01-01 00:00.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Minute(pub i64);

impl Minute {
    /// Construct from a raw minute count.
    pub fn from_i64(v: i64) -> Self {
        Minute(v)
    }

    /// Raw minute count.
    pub fn value(self) -> i64 {
        self.0
    }

    /// The calendar date containing this minute.
    pub fn date(self) -> CalDate {
        CalDate::from_day_index(self.0.div_euclid(MINUTES_PER_DAY as i64))
    }

    /// Day index (days since 2019-01-01) of this minute.
    pub fn day_index(self) -> i64 {
        self.0.div_euclid(MINUTES_PER_DAY as i64)
    }

    /// Hour-of-day, 0–23.
    pub fn hour(self) -> u32 {
        (self.0.rem_euclid(MINUTES_PER_DAY as i64) / 60) as u32
    }

    /// Minute-of-hour, 0–59.
    pub fn minute_of_hour(self) -> u32 {
        (self.0.rem_euclid(60)) as u32
    }

    /// Minutes elapsed since midnight, 0–1439.
    pub fn minute_of_day(self) -> u32 {
        self.0.rem_euclid(MINUTES_PER_DAY as i64) as u32
    }

    /// Month bucket index counted from January 2019 (Jan 2019 = 0).
    pub fn month_index(self) -> i64 {
        let d = self.date();
        (d.year - 2019) * 12 + i64::from(d.month) - 1
    }

    /// Timestamp `n` minutes later.
    #[must_use]
    pub fn plus(self, n: i64) -> Self {
        Minute(self.0 + n)
    }

    /// Format as `YYYY-MM-DDTHH:MM:00` (seconds are always zero at this
    /// resolution; log formats that need seconds add them downstream).
    pub fn rfc3339(self) -> String {
        format!(
            "{}T{:02}:{:02}:00",
            self.date(),
            self.hour(),
            self.minute_of_hour()
        )
    }

    /// Parse the format produced by [`Minute::rfc3339`],
    /// `YYYY-MM-DDTHH:MM`, in one pass over its bytes. Whatever follows
    /// a third `:` (the seconds) is ignored. Each number takes what its
    /// `FromStr` takes (an optional `+`, for the hour and minute also
    /// `-`, and leading zeros); a year above 9999 is `None`.
    pub fn parse_rfc3339(s: impl AsRef<[u8]>) -> Option<Self> {
        let (date, rest) = parse_date(s.as_ref())?;
        let (hour, rest) = ascii::lead_i64(rest.strip_prefix(b"T")?)?;
        let (min, rest) = ascii::lead_i64(rest.strip_prefix(b":")?)?;
        if !matches!(rest, [] | [b':', ..]) || !(0..24).contains(&hour) || !(0..60).contains(&min) {
            return None;
        }
        Some(date.midnight().plus(hour * 60 + min))
    }
}

impl fmt::Display for Minute {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.rfc3339())
    }
}

/// Half-open interval of simulated time `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimeSpan {
    /// Inclusive start.
    pub start: Minute,
    /// Exclusive end.
    pub end: Minute,
}

impl TimeSpan {
    /// Construct; panics if `end < start`.
    pub fn new(start: Minute, end: Minute) -> Self {
        assert!(end >= start, "TimeSpan end before start");
        TimeSpan { start, end }
    }

    /// Span covering `[start_date, end_date)` midnight-to-midnight.
    pub fn dates(start: CalDate, end: CalDate) -> Self {
        Self::new(start.midnight(), end.midnight())
    }

    /// Number of minutes in the span.
    pub fn minutes(self) -> u64 {
        (self.end.0 - self.start.0) as u64
    }

    /// Number of whole days covered (rounded up).
    pub fn days(self) -> u64 {
        self.minutes().div_ceil(MINUTES_PER_DAY)
    }

    /// Whether the span contains the instant `t`.
    pub fn contains(self, t: Minute) -> bool {
        t >= self.start && t < self.end
    }

    /// Fraction of a year this span covers (365-day year convention, as the
    /// FIT-rate computation in the paper uses calendar-day arithmetic).
    pub fn years(self) -> f64 {
        self.minutes() as f64 / (365.0 * MINUTES_PER_DAY as f64)
    }
}

/// The paper's main failure-analysis interval: Jan 20 – Sep 14, 2019 (§2.3).
pub fn study_span() -> TimeSpan {
    TimeSpan::dates(CalDate::new(2019, 1, 20), CalDate::new(2019, 9, 14))
}

/// The environmental-data interval: May 20 – Sep 19, 2019 (§3.3, Fig 2).
pub fn sensor_span() -> TimeSpan {
    TimeSpan::dates(CalDate::new(2019, 5, 20), CalDate::new(2019, 9, 19))
}

/// The replacement-tracking interval: Feb 17 – Sep 17, 2019 (Table 1).
pub fn replacement_span() -> TimeSpan {
    TimeSpan::dates(CalDate::new(2019, 2, 17), CalDate::new(2019, 9, 17))
}

/// Date the Hardware Event Tracker firmware started recording (§3.5).
pub fn het_firmware_date() -> CalDate {
    CalDate::new(2019, 8, 23)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_index_roundtrip_over_years() {
        for idx in [-400i64, -1, 0, 1, 58, 59, 60, 364, 365, 366, 800] {
            let d = CalDate::from_day_index(idx);
            assert_eq!(d.day_index(), idx, "date {d}");
        }
    }

    #[test]
    fn known_dates() {
        assert_eq!(CalDate::new(2019, 1, 1).day_index(), 0);
        assert_eq!(CalDate::new(2019, 1, 20).day_index(), 19);
        assert_eq!(CalDate::new(2019, 2, 17).day_index(), 47);
        assert_eq!(CalDate::new(2019, 12, 31).day_index(), 364);
        assert_eq!(CalDate::new(2020, 1, 1).day_index(), 365);
        // 2020 is a leap year.
        assert_eq!(CalDate::new(2020, 3, 1).day_index(), 365 + 31 + 29);
    }

    #[test]
    fn study_interval_length() {
        // Jan 20 -> Sep 14 2019 is 237 days.
        assert_eq!(study_span().days(), 237);
        assert_eq!(replacement_span().days(), 212);
        assert_eq!(sensor_span().days(), 122);
    }

    #[test]
    fn minute_components() {
        let t = CalDate::new(2019, 5, 20).midnight().plus(13 * 60 + 45);
        assert_eq!(t.hour(), 13);
        assert_eq!(t.minute_of_hour(), 45);
        assert_eq!(t.date(), CalDate::new(2019, 5, 20));
        assert_eq!(t.rfc3339(), "2019-05-20T13:45:00");
    }

    #[test]
    fn rfc3339_roundtrip() {
        let t = CalDate::new(2019, 9, 13).midnight().plus(23 * 60 + 59);
        assert_eq!(Minute::parse_rfc3339(t.rfc3339()), Some(t));
        let last = CalDate::new(9999, 12, 31).midnight().plus(23 * 60 + 59);
        assert_eq!(Minute::parse_rfc3339("9999-12-31T23:59:00"), Some(last));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(Minute::parse_rfc3339("not a date"), None);
        assert_eq!(Minute::parse_rfc3339("2019-13-01T00:00:00"), None);
        assert_eq!(Minute::parse_rfc3339("2019-02-30T00:00:00"), None);
        assert_eq!(Minute::parse_rfc3339("2019-02-28T25:00:00"), None);
        // RFC 3339 years have four digits.
        assert_eq!(Minute::parse_rfc3339("10000-01-01T00:00:00"), None);
        assert_eq!(
            Minute::parse_rfc3339("999999999999999999-01-01T00:00:00"),
            None
        );
    }

    #[test]
    fn month_index_buckets() {
        assert_eq!(CalDate::new(2019, 1, 31).midnight().month_index(), 0);
        assert_eq!(CalDate::new(2019, 2, 1).midnight().month_index(), 1);
        assert_eq!(CalDate::new(2019, 9, 14).midnight().month_index(), 8);
        assert_eq!(CalDate::new(2020, 1, 1).midnight().month_index(), 12);
    }

    #[test]
    fn timespan_contains_and_years() {
        let span = study_span();
        assert!(span.contains(span.start));
        assert!(!span.contains(span.end));
        assert!((span.years() - 237.0 / 365.0).abs() < 1e-12);
    }

    #[test]
    fn negative_minutes_floor_correctly() {
        let t = Minute::from_i64(-1);
        assert_eq!(t.date(), CalDate::new(2018, 12, 31));
        assert_eq!(t.hour(), 23);
        assert_eq!(t.minute_of_hour(), 59);
    }

    /// The year-by-year conversions the closed forms replaced, kept as
    /// their oracle.
    fn days_in_year(year: i64) -> i64 {
        if is_leap(year) {
            366
        } else {
            365
        }
    }

    fn stepped_day_index(d: CalDate) -> i64 {
        let mut days: i64 = 0;
        if d.year >= 2019 {
            for y in 2019..d.year {
                days += days_in_year(y);
            }
        } else {
            for y in d.year..2019 {
                days -= days_in_year(y);
            }
        }
        days += CUM_DAYS[d.month as usize - 1] as i64;
        if d.month > 2 && is_leap(d.year) {
            days += 1;
        }
        days + i64::from(d.day) - 1
    }

    fn stepped_from_day_index(mut idx: i64) -> CalDate {
        let mut year = 2019i64;
        while idx < 0 {
            year -= 1;
            idx += days_in_year(year);
        }
        while idx >= days_in_year(year) {
            idx -= days_in_year(year);
            year += 1;
        }
        let mut month = 1u32;
        while idx >= days_in_month(year, month) as i64 {
            idx -= days_in_month(year, month) as i64;
            month += 1;
        }
        CalDate {
            year,
            month,
            day: idx as u32 + 1,
        }
    }

    /// The `str`-splitting timestamp parser the byte pass replaced, kept
    /// as its oracle. Callers keep it away from years above 9999, whose
    /// conversion it would run into overflow.
    fn split_parse_rfc3339(s: &str) -> Option<Minute> {
        let (date_part, time_part) = s.split_once('T')?;
        let mut dit = date_part.splitn(3, '-');
        let year: i64 = dit.next()?.parse().ok()?;
        let month: u32 = dit.next()?.parse().ok()?;
        let day: u32 = dit.next()?.parse().ok()?;
        if !(1..=12).contains(&month) {
            return None;
        }
        if day < 1 || u64::from(day) > days_in_month(year, month) {
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

    /// Whether `s` starts with a year the oracle reads as above 9999.
    fn big_year(s: &str) -> bool {
        s.split(['-', 'T'])
            .next()
            .and_then(|y| y.parse::<i64>().ok())
            .is_some_and(|y| y > 9999)
    }

    #[test]
    fn closed_forms_match_the_year_loop() {
        for idx in (-800_000i64..800_000).step_by(97) {
            let d = CalDate::from_day_index(idx);
            assert_eq!(d, stepped_from_day_index(idx), "day {idx}");
            assert_eq!(stepped_day_index(d), idx, "date {d}");
            assert_eq!(d.day_index(), idx, "date {d}");
        }
        // Every day of two whole 400-year eras, by counting up a date.
        let first = -DAYS_PER_ERA;
        let mut d = stepped_from_day_index(first);
        for idx in first..DAYS_PER_ERA {
            assert_eq!(CalDate::from_day_index(idx), d, "day {idx}");
            assert_eq!(d.day_index(), idx, "date {d}");
            d = if u64::from(d.day) < days_in_month(d.year, d.month) {
                CalDate {
                    day: d.day + 1,
                    ..d
                }
            } else if d.month < 12 {
                CalDate::new(d.year, d.month + 1, 1)
            } else {
                CalDate::new(d.year + 1, 1, 1)
            };
        }
    }

    #[test]
    fn extreme_minutes_convert_without_overflow() {
        for m in [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX] {
            let t = Minute::from_i64(m);
            let d = t.date();
            assert_eq!(d.day_index(), t.day_index(), "minute {m}");
            assert!((1..=12).contains(&d.month));
            let _ = (t.month_index(), t.rfc3339());
        }
        assert_eq!(Minute::from_i64(i64::MAX).date().year, 17_536_621_479_634);
    }

    #[test]
    fn date_parse_checks_the_day_against_the_month() {
        assert_eq!(
            CalDate::parse("2019-02-28"),
            Some(CalDate::new(2019, 2, 28))
        );
        assert_eq!(
            CalDate::parse("2020-02-29"),
            Some(CalDate::new(2020, 2, 29))
        );
        assert_eq!(
            CalDate::parse("+2019-+04-+30"),
            Some(CalDate::new(2019, 4, 30))
        );
        assert_eq!(
            CalDate::parse("09999-01-01"),
            Some(CalDate::new(9999, 1, 1))
        );
        for s in [
            "10000-01-01",
            "2019-02-29",
            "2019-02-30",
            "2019-04-31",
            "2019-13-01",
            "2019-00-10",
        ] {
            assert_eq!(CalDate::parse(s), None, "{s}");
        }
        for s in ["2019-02-28 ", "2019-02", "-2019-02-28", "2019-02-28T00:00"] {
            assert_eq!(CalDate::parse(s), None, "{s}");
        }
    }

    /// Every single-byte deletion, substitution (from a fixed alphabet)
    /// and insertion of a few timestamps parses as the `str` oracle does,
    /// except that years above 9999 are refused.
    #[test]
    fn byte_parse_matches_the_split_oracle() {
        let bases = [
            "2019-01-20T00:00:00",
            "2019-12-31T23:59:59",
            "2020-02-29T12:30:00",
            "2019-09-09T09:09",
            "+2019-+02-+28T+23:-0:00",
            "0002-03-01T-00:+59:xx",
        ];
        let alphabet = b"0129+-:T Zx";
        let mut lines = Vec::new();
        for base in bases {
            let b = base.as_bytes();
            for i in 0..=b.len() {
                for &c in alphabet {
                    lines.push([&b[..i], &[c], &b[i..]].concat());
                    if i < b.len() {
                        lines.push([&b[..i], &[c], &b[i + 1..]].concat());
                    }
                }
                if i < b.len() {
                    lines.push([&b[..i], &b[i + 1..]].concat());
                }
            }
        }
        let mut refused = 0;
        for line in lines {
            let line = String::from_utf8(line).unwrap();
            let got = Minute::parse_rfc3339(&line);
            if big_year(&line) {
                assert_eq!(got, None, "{line}");
                refused += 1;
            } else {
                assert_eq!(got, split_parse_rfc3339(&line), "{line}");
            }
        }
        assert!(refused > 0, "the corpus holds five-digit years");
    }

    #[test]
    fn plus_days_crosses_month() {
        assert_eq!(
            CalDate::new(2019, 1, 31).plus_days(1),
            CalDate::new(2019, 2, 1)
        );
        assert_eq!(
            CalDate::new(2019, 3, 1).plus_days(-1),
            CalDate::new(2019, 2, 28)
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// The day indices of the `i64` minutes.
    const FIRST_DAY: i64 = i64::MIN / MINUTES_PER_DAY as i64 - 1;
    const LAST_DAY: i64 = i64::MAX / MINUTES_PER_DAY as i64;

    proptest! {
        #[test]
        fn prop_day_index_roundtrip(idx in FIRST_DAY..LAST_DAY + 1) {
            let d = CalDate::from_day_index(idx);
            prop_assert_eq!(d.day_index(), idx);
            prop_assert!((1..=12).contains(&d.month));
            prop_assert!(d.day >= 1 && u64::from(d.day) <= days_in_month(d.year, d.month));
        }

        #[test]
        fn prop_minute_rfc3339_roundtrip(
            m in CalDate::new(0, 1, 1).midnight().0..CalDate::new(10_000, 1, 1).midnight().0
        ) {
            let t = Minute::from_i64(m);
            prop_assert_eq!(Minute::parse_rfc3339(t.rfc3339()), Some(t));
        }

        #[test]
        fn prop_plus_days_is_additive(idx in -1000i64..1000, a in -500i64..500, b in -500i64..500) {
            let d = CalDate::from_day_index(idx);
            prop_assert_eq!(d.plus_days(a).plus_days(b), d.plus_days(a + b));
        }

        #[test]
        fn prop_month_index_monotone(a in i64::MIN..i64::MAX, b in i64::MIN..i64::MAX) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(
                Minute::from_i64(lo).month_index() <= Minute::from_i64(hi).month_index()
            );
        }
    }
}
