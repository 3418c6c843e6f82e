//! A tiny `--flag value` parser for the experiment binaries (keeps the
//! workspace dependency-free beyond the approved list).

use std::ops::RangeInclusive;

/// One flag a binary accepts, by the way it is used on the command line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flag {
    /// A bare `--name` with no value.
    Switch(&'static str),
    /// `--name value`, any string.
    Value(&'static str),
    /// `--name N`, a non-negative integer.
    Int(&'static str),
}

impl Flag {
    fn name(self) -> &'static str {
        match self {
            Flag::Switch(name) | Flag::Value(name) | Flag::Int(name) => name,
        }
    }
}

/// Parsed command-line flags, in command-line order: `--name value`
/// pairs and bare `--switch`es (no value).
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process arguments (skipping the binary name) against
    /// the binary's declared `flags`. Any usage error — an undeclared
    /// flag, a positional token, a value flag without its value, a
    /// non-integer for an integer flag — is printed, naming the flag or
    /// token, and exits with status 2, so a mistyped command line cannot
    /// silently change a run.
    #[must_use]
    pub fn parse(flags: &[Flag]) -> Args {
        Args::from_iter(std::env::args().skip(1), flags).unwrap_or_else(|e| usage_error(&e))
    }

    /// Parses an explicit token list against the declared `flags` (the
    /// testable entry point of [`Args::parse`]).
    ///
    /// # Errors
    ///
    /// A usage message naming the first offending flag or token.
    pub fn from_iter<I: IntoIterator<Item = String>>(
        tokens: I,
        flags: &[Flag],
    ) -> Result<Args, String> {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            let Some(name) = tok.strip_prefix("--") else {
                return Err(format!(
                    "unexpected argument {tok:?}; flags are --name [value]"
                ));
            };
            let Some(&flag) = flags.iter().find(|f| f.name() == name) else {
                let accepted: Vec<String> =
                    flags.iter().map(|f| format!("--{}", f.name())).collect();
                return Err(if accepted.is_empty() {
                    format!("unknown flag --{name}; this binary takes no flags")
                } else {
                    format!("unknown flag --{name}; accepted: {}", accepted.join(", "))
                });
            };
            let value = match flag {
                Flag::Switch(_) => None,
                Flag::Value(_) | Flag::Int(_) => {
                    let Some(value) = iter.next_if(|next| !next.starts_with("--")) else {
                        return Err(format!("--{name} expects a value"));
                    };
                    if matches!(flag, Flag::Int(_)) && value.parse::<u64>().is_err() {
                        return Err(format!("--{name} expects an integer, got {value:?}"));
                    }
                    Some(value)
                }
            };
            args.flags.push((name.to_string(), value));
        }
        Ok(args)
    }

    /// Integer flag with default.
    ///
    /// # Panics
    ///
    /// Panics when `name` was not declared as a [`Flag::Int`] (its value
    /// is checked at parse time).
    #[must_use]
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get_str(name).map_or(default, |v| {
            v.parse()
                .unwrap_or_else(|_| panic!("--{name} is not declared as an integer flag"))
        })
    }

    /// Integer flag with default, as a `u32` that must lie in `range`.
    /// A value outside it — including one too large for `u32` — is a
    /// usage error: printed, naming the flag, with exit status 2.
    ///
    /// # Panics
    ///
    /// As [`Args::get_u64`].
    #[must_use]
    pub fn get_u32_in(&self, name: &str, default: u32, range: RangeInclusive<u32>) -> u32 {
        self.try_u32_in(name, default, range)
            .unwrap_or_else(|e| usage_error(&e))
    }

    /// The testable core of [`Args::get_u32_in`].
    ///
    /// # Errors
    ///
    /// A usage message naming the flag, its range and the value given.
    ///
    /// # Panics
    ///
    /// As [`Args::get_u64`].
    pub fn try_u32_in(
        &self,
        name: &str,
        default: u32,
        range: RangeInclusive<u32>,
    ) -> Result<u32, String> {
        let value = self.get_u64(name, u64::from(default));
        u32::try_from(value)
            .ok()
            .filter(|v| range.contains(v))
            .ok_or_else(|| {
                format!(
                    "--{name} must be in {}..={}, got {value}",
                    range.start(),
                    range.end()
                )
            })
    }

    /// String flag, if present (the last one when repeated).
    #[must_use]
    pub fn get_str(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .filter(|(n, _)| n == name)
            .find_map(|(_, v)| v.as_deref())
    }

    /// Boolean switch.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, v)| n == name && v.is_none())
    }
}

/// Prints a usage error and exits with status 2.
fn usage_error(message: &str) -> ! {
    eprintln!("{message}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        Flag::Int("pairs"),
        Flag::Int("width"),
        Flag::Int("widen-delay"),
        Flag::Value("strategy"),
        Flag::Switch("full"),
        Flag::Switch("naive"),
        Flag::Switch("no-thresholds"),
    ];

    fn args(tokens: &[&str]) -> Result<Args, String> {
        Args::from_iter(tokens.iter().map(|s| (*s).to_string()), FLAGS)
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args(&["--pairs", "1000", "--full", "--width", "8"]).unwrap();
        assert_eq!(a.get_u64("pairs", 5), 1000);
        assert_eq!(a.get_u64("width", 6), 8);
        assert_eq!(a.get_u64("missing", 7), 7);
        assert!(a.has("full"));
        assert!(!a.has("naive"));
    }

    #[test]
    fn reports_the_first_undeclared_flag() {
        let e = args(&["--widen-delay", "0", "--no-threshold", "--stratgy", "path"]).unwrap_err();
        assert!(e.starts_with("unknown flag --no-threshold;"), "{e}");
        assert!(
            e.contains("--no-thresholds"),
            "lists the accepted flags: {e}"
        );
    }

    #[test]
    fn rejects_bad_integers() {
        let e = args(&["--pairs", "many"]).unwrap_err();
        assert_eq!(e, "--pairs expects an integer, got \"many\"");
    }

    #[test]
    fn ranged_integers_reject_values_outside_the_range_or_u32() {
        let a = args(&["--width", "8"]).unwrap();
        assert_eq!(a.try_u32_in("width", 6, 2..=10), Ok(8));
        assert_eq!(a.try_u32_in("pairs", 6, 2..=10), Ok(6), "the default");
        let e = a.try_u32_in("width", 6, 2..=7).unwrap_err();
        assert_eq!(e, "--width must be in 2..=7, got 8");
        // 2^32 + 8 must not wrap to 8.
        let a = args(&["--width", "4294967304"]).unwrap();
        let e = a.try_u32_in("width", 6, 2..=10).unwrap_err();
        assert_eq!(e, "--width must be in 2..=10, got 4294967304");
    }

    #[test]
    fn rejects_positional() {
        let e = args(&["fixtures/memset_loop.ebpf"]).unwrap_err();
        assert!(e.contains("\"fixtures/memset_loop.ebpf\""), "{e}");
        // A switch takes no value, so a token after one is positional.
        let e = args(&["--full", "yes"]).unwrap_err();
        assert!(e.contains("\"yes\""), "{e}");
    }

    #[test]
    fn rejects_a_value_flag_without_its_value() {
        assert_eq!(
            args(&["--widen-delay"]).unwrap_err(),
            "--widen-delay expects a value"
        );
        assert_eq!(
            args(&["--strategy", "--no-thresholds"]).unwrap_err(),
            "--strategy expects a value"
        );
    }
}
