//! The one command-line parser of the bench binaries.
//!
//! Each binary declares its `--name VALUE` options and bare `--name`
//! switches up front. `--help` (or `-h`) prints the usage and exits 0
//! before any work runs, so it never overwrites a committed baseline. An
//! undeclared flag, an option without its value or a stray positional
//! argument prints the usage and exits 2.

use std::fmt;

/// A parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct Args {
    values: Vec<(String, String)>,
    switches: Vec<String>,
}

/// Why a command line did not parse into [`Args`].
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` or `-h` was given.
    Help,
    /// The command line is malformed; the message says how.
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => f.write_str("help requested"),
            CliError::Usage(m) => f.write_str(m),
        }
    }
}

impl Args {
    /// Parse `argv` (without the program name) against the declared
    /// `options` (which take a value) and `switches` (which do not).
    pub fn parse(argv: &[String], options: &[&str], switches: &[&str]) -> Result<Args, CliError> {
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return Err(CliError::Help);
        }
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            if options.contains(&a.as_str()) {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{a} needs a value")))?;
                args.values.push((a.clone(), v.clone()));
            } else if switches.contains(&a.as_str()) {
                args.switches.push(a.clone());
            } else if a.starts_with('-') {
                return Err(CliError::Usage(format!("unknown flag `{a}`")));
            } else {
                return Err(CliError::Usage(format!("unexpected argument `{a}`")));
            }
        }
        Ok(args)
    }

    /// Parse the process's own arguments; on `--help` print `usage` and
    /// exit 0, on a malformed command line print the error and `usage` to
    /// stderr and exit 2.
    pub fn from_env_or_exit(usage: &str, options: &[&str], switches: &[&str]) -> Args {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        match Args::parse(&argv, options, switches) {
            Ok(args) => args,
            Err(CliError::Help) => {
                println!("{usage}");
                std::process::exit(0);
            }
            Err(e) => {
                eprintln!("error: {e}\n{usage}");
                std::process::exit(2);
            }
        }
    }

    /// The value of option `name`, if given (the first occurrence wins).
    pub fn value(&self, name: &str) -> Option<String> {
        self.values
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.clone())
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn parse(s: &str) -> Result<Args, CliError> {
        Args::parse(&argv(s), &["--json", "--reps"], &["--skip-perf"])
    }

    #[test]
    fn declared_options_and_switches_parse() {
        let a = parse("--reps 5 --skip-perf --json out.json").unwrap();
        assert_eq!(a.value("--reps").as_deref(), Some("5"));
        assert_eq!(a.value("--json").as_deref(), Some("out.json"));
        assert_eq!(a.value("--threads"), None);
        assert!(a.switch("--skip-perf"));
        assert_eq!(parse("").unwrap(), Args::default());
    }

    #[test]
    fn help_wins_over_everything_else() {
        assert_eq!(parse("--help"), Err(CliError::Help));
        assert_eq!(parse("--reps 5 -h"), Err(CliError::Help));
        assert_eq!(parse("--bogus --help"), Err(CliError::Help));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_usage_errors() {
        assert!(matches!(parse("--bogus"), Err(CliError::Usage(m)) if m.contains("--bogus")));
        assert!(matches!(parse("--json"), Err(CliError::Usage(m)) if m.contains("needs a value")));
        assert!(matches!(parse("stray"), Err(CliError::Usage(_))));
        // A switch is not an option: it takes no value.
        assert!(matches!(parse("--skip-perf yes"), Err(CliError::Usage(_))));
    }
}
