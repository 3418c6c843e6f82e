//! A tiny `--flag value` parser for the experiment binaries (keeps the
//! workspace dependency-free beyond the approved list).

/// Parsed command-line flags, in command-line order: `--name value`
/// pairs and bare `--switch`es (no value).
#[derive(Clone, Debug, Default)]
pub struct Args {
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    /// Parses the process arguments (skipping the binary name), accepting
    /// only the flag names in `known`. Any other flag prints the accepted
    /// ones and exits with status 2, so a misspelled flag cannot silently
    /// change a run.
    ///
    /// # Panics
    ///
    /// Panics with a usage hint when a non-flag token is encountered.
    #[must_use]
    pub fn parse(known: &[&str]) -> Args {
        let args = Args::from_iter(std::env::args().skip(1));
        if let Some(name) = args.unknown(known) {
            eprintln!("unknown flag --{name}; accepted: --{}", known.join(", --"));
            std::process::exit(2);
        }
        args
    }

    /// Parses from an explicit token list (testable entry point).
    ///
    /// # Panics
    ///
    /// Panics when a token does not start with `--`.
    #[must_use]
    pub fn from_iter<I: IntoIterator<Item = String>>(tokens: I) -> Args {
        let mut args = Args::default();
        let mut iter = tokens.into_iter().peekable();
        while let Some(tok) = iter.next() {
            let name = tok
                .strip_prefix("--")
                .unwrap_or_else(|| panic!("unexpected argument {tok:?}; flags are --name [value]"))
                .to_string();
            let value = iter.next_if(|next| !next.starts_with("--"));
            args.flags.push((name, value));
        }
        args
    }

    /// The first flag, in command-line order, whose name `known` lacks.
    #[must_use]
    pub fn unknown(&self, known: &[&str]) -> Option<&str> {
        self.flags
            .iter()
            .map(|(name, _)| name.as_str())
            .find(|name| !known.contains(name))
    }

    /// Integer flag with default.
    ///
    /// # Panics
    ///
    /// Panics when the value does not parse as the requested type.
    #[must_use]
    pub fn get_u64(&self, name: &str, default: u64) -> u64 {
        self.get_str(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} expects an integer, got {v:?}"))
            })
            .unwrap_or(default)
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

#[cfg(test)]
mod tests {
    use super::*;

    fn args(tokens: &[&str]) -> Args {
        Args::from_iter(tokens.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_values_and_switches() {
        let a = args(&["--pairs", "1000", "--full", "--width", "8"]);
        assert_eq!(a.get_u64("pairs", 5), 1000);
        assert_eq!(a.get_u64("width", 6), 8);
        assert_eq!(a.get_u64("missing", 7), 7);
        assert!(a.has("full"));
        assert!(!a.has("naive"));
    }

    #[test]
    fn reports_the_first_undeclared_flag() {
        let a = args(&["--widen-delay", "0", "--no-threshold", "--stratgy", "path"]);
        assert_eq!(
            a.unknown(&["widen-delay", "no-thresholds", "strategy"]),
            Some("no-threshold")
        );
        assert_eq!(a.unknown(&["widen-delay", "no-threshold", "stratgy"]), None);
    }

    #[test]
    #[should_panic(expected = "expects an integer")]
    fn rejects_bad_integers() {
        let a = args(&["--pairs", "many"]);
        let _ = a.get_u64("pairs", 0);
    }

    #[test]
    #[should_panic(expected = "unexpected argument")]
    fn rejects_positional() {
        let _ = args(&["positional"]);
    }
}
