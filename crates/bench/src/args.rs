//! The soak binaries' command line: `--flag value` pairs, each flag one
//! the binary names, each value parsed straight into its target type and
//! range-checked there, so an out-of-range number is refused rather than
//! truncated or wrapped into another one.

use std::fmt::Display;
use std::str::FromStr;

/// The largest `--hours` that [`turbine_types::Duration::from_hours`]
/// holds without wrapping.
pub const MAX_HOURS: u64 = u64::MAX / 3_600_000;

/// The largest `--mins` that [`turbine_types::Duration::from_mins`] holds
/// without wrapping.
pub const MAX_MINS: u64 = u64::MAX / 60_000;

/// A parsed command line. [`Args::from_env`] and [`Args::value`] print the
/// usage line and exit 2 on a bad command line; [`Args::parse`] and
/// `Args::try_value` say what was wrong instead.
#[derive(Debug)]
pub struct Args {
    usage: &'static str,
    pairs: Vec<(String, String)>,
}

impl Args {
    /// This process's arguments, which must be `--flag value` pairs of
    /// `flags`, each flag at most once.
    pub fn from_env(usage: &'static str, flags: &[&str]) -> Args {
        Args::parse(usage, flags, std::env::args().skip(1)).unwrap_or_else(|e| refuse(usage, &e))
    }

    /// `args` as `--flag value` pairs of `flags`, each flag at most once.
    pub fn parse(
        usage: &'static str,
        flags: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            if !flags.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag:?}"));
            }
            if pairs.iter().any(|(seen, _)| *seen == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            pairs.push((flag, value));
        }
        Ok(Args { usage, pairs })
    }

    /// `flag`'s value as a `T` in `min..=max`, if it was given.
    fn try_value<T>(&self, flag: &str, min: T, max: T) -> Result<Option<T>, String>
    where
        T: FromStr + PartialOrd + Display,
    {
        let Some(raw) = self.text(flag) else {
            return Ok(None);
        };
        match raw.parse::<T>() {
            Ok(v) if min <= v && v <= max => Ok(Some(v)),
            _ => Err(format!(
                "{flag} {raw:?} is not a {} in {min}..={max}",
                std::any::type_name::<T>()
            )),
        }
    }

    /// `Args::try_value`, exiting 2 with the usage line on a bad value.
    pub fn value<T>(&self, flag: &str, min: T, max: T) -> Option<T>
    where
        T: FromStr + PartialOrd + Display,
    {
        self.try_value(flag, min, max)
            .unwrap_or_else(|e| refuse(self.usage, &e))
    }

    /// `flag`'s value as given, if it was.
    pub fn text(&self, flag: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(f, _)| f == flag)
            .map(|(_, v)| v.as_str())
    }
}

fn refuse(usage: &str, error: &str) -> ! {
    eprintln!("{error}\n{usage}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Result<Args, String> {
        Args::parse(
            "usage: test",
            &["--mins", "--hours", "--wall"],
            line.iter().map(|s| s.to_string()),
        )
    }

    #[test]
    fn a_value_past_its_type_is_refused_not_truncated() {
        // 2^32 + 30, which a truncating cast would read as 30.
        let a = args(&["--mins", "4294967326"]).expect("well-formed");
        assert!(a.try_value::<u32>("--mins", 30, u32::MAX).is_err());
        let a = args(&["--mins", "30"]).expect("well-formed");
        assert_eq!(a.try_value::<u32>("--mins", 30, u32::MAX), Ok(Some(30)));
        let a = args(&["--mins", "29"]).expect("well-formed");
        assert!(a.try_value::<u32>("--mins", 30, u32::MAX).is_err());
    }

    #[test]
    fn hours_and_minutes_that_would_wrap_a_duration_are_refused() {
        for (flag, max) in [("--hours", MAX_HOURS), ("--mins", MAX_MINS)] {
            let at = max.to_string();
            let past = (max + 1).to_string();
            let a = args(&[flag, &at]).expect("well-formed");
            assert_eq!(a.try_value(flag, 0, max), Ok(Some(max)));
            let a = args(&[flag, &past]).expect("well-formed");
            assert!(a.try_value(flag, 0, max).is_err(), "{flag} {past}");
        }
        // At the bound the product still fits.
        assert!(MAX_HOURS.checked_mul(3_600_000).is_some());
        assert!(MAX_MINS.checked_mul(60_000).is_some());
    }

    #[test]
    fn fractional_seconds_parse() {
        let a = args(&["--wall", "0.5"]).expect("well-formed");
        assert_eq!(
            a.try_value("--wall", f64::MIN_POSITIVE, f64::INFINITY),
            Ok(Some(0.5))
        );
        for bad in ["0", "-1", "NaN", "soon"] {
            let a = args(&["--wall", bad]).expect("well-formed");
            assert!(
                a.try_value("--wall", f64::MIN_POSITIVE, f64::INFINITY)
                    .is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn unknown_repeated_and_dangling_flags_are_refused() {
        assert!(args(&["--days", "1"]).is_err());
        assert!(args(&["--mins", "30", "--mins", "40"]).is_err());
        assert!(args(&["--mins"]).is_err());
        let a = args(&[]).expect("empty");
        assert_eq!(a.try_value::<u32>("--mins", 30, u32::MAX), Ok(None));
    }
}
