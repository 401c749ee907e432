//! A tiny dependency-free argument parser for the `mei` CLI.
//!
//! Flags are `--name value` pairs after a subcommand; the parser collects
//! them into a map with typed accessors and reports valueless flags — and,
//! through [`Args::reject_unknown`], flags the subcommand does not accept —
//! as errors instead of panicking.

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--flag value` options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
}

/// Argument-parsing errors, rendered to the user by `main`.
#[derive(Debug, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    MissingCommand,
    /// The subcommand is not one `mei` has.
    UnknownCommand(String),
    /// `--flag` appeared with no following value.
    MissingValue(String),
    /// A positional argument appeared where a flag was expected.
    UnexpectedPositional(String),
    /// A flag's value failed to parse.
    BadValue {
        /// Which flag.
        flag: String,
        /// The offending value.
        value: String,
        /// Expected type, for the message.
        expected: &'static str,
    },
    /// A required flag is absent.
    MissingFlag(&'static str),
    /// A flag the subcommand does not accept (a typo or a retired flag).
    UnknownFlag(String),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "missing subcommand"),
            ArgsError::UnknownCommand(name) => write!(f, "unknown subcommand {name:?}"),
            ArgsError::MissingValue(flag) => write!(f, "flag {flag} needs a value"),
            ArgsError::UnexpectedPositional(a) => write!(f, "unexpected argument: {a}"),
            ArgsError::BadValue { flag, value, expected } => {
                write!(f, "flag {flag}: expected {expected}, got {value:?}")
            }
            ArgsError::MissingFlag(flag) => write!(f, "required flag --{flag} is missing"),
            ArgsError::UnknownFlag(flag) => write!(f, "unknown flag --{flag}"),
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses an iterator of arguments (excluding the program name).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, ArgsError> {
        let mut iter = args.into_iter();
        let command = iter.next().ok_or(ArgsError::MissingCommand)?;
        let mut flags = HashMap::new();
        while let Some(a) = iter.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = iter.next().ok_or_else(|| ArgsError::MissingValue(a.clone()))?;
                flags.insert(name.to_owned(), value);
            } else {
                return Err(ArgsError::UnexpectedPositional(a));
            }
        }
        Ok(Self { command, flags })
    }

    /// Fails on a flag outside `accepted` (the lexically first, when
    /// there are several), so a mistyped or retired flag stops the
    /// command instead of being silently ignored.
    pub fn reject_unknown(&self, accepted: &[&str]) -> Result<(), ArgsError> {
        match self.flags.keys().filter(|k| !accepted.contains(&k.as_str())).min() {
            Some(flag) => Err(ArgsError::UnknownFlag(flag.clone())),
            None => Ok(()),
        }
    }

    /// Raw string flag.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags.get(name).map(String::as_str)
    }

    /// Required string flag.
    pub fn require(&self, name: &'static str) -> Result<&str, ArgsError> {
        self.get(name).ok_or(ArgsError::MissingFlag(name))
    }

    /// Optional typed flag with a default.
    pub fn get_parsed<T: std::str::FromStr>(
        &self,
        name: &'static str,
        default: T,
    ) -> Result<T, ArgsError> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::BadValue {
                flag: format!("--{name}"),
                value: v.to_owned(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(v.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["train", "--dim", "64", "--model", "complex"]).unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("dim"), Some("64"));
        assert_eq!(a.get_parsed("dim", 0usize).unwrap(), 64);
        assert_eq!(a.require("model").unwrap(), "complex");
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = parse(&["eval"]).unwrap();
        assert_eq!(a.get_parsed("epochs", 100usize).unwrap(), 100);
        assert_eq!(a.get("anything"), None);
    }

    #[test]
    fn reports_errors() {
        assert_eq!(parse(&[]).unwrap_err(), ArgsError::MissingCommand);
        assert!(matches!(parse(&["x", "--flag"]), Err(ArgsError::MissingValue(_))));
        assert!(matches!(parse(&["x", "stray"]), Err(ArgsError::UnexpectedPositional(_))));
        let a = parse(&["x", "--dim", "abc"]).unwrap();
        assert!(matches!(a.get_parsed("dim", 1usize), Err(ArgsError::BadValue { .. })));
        assert!(matches!(a.require("missing"), Err(ArgsError::MissingFlag("missing"))));
        let a = parse(&["x", "--epoch", "5", "--dim", "8", "--bogus", "1"]).unwrap();
        assert_eq!(a.reject_unknown(&["dim", "epochs"]), Err(ArgsError::UnknownFlag("bogus".into())));
        assert_eq!(a.reject_unknown(&["dim", "epoch", "bogus"]), Ok(()));
    }

    #[test]
    fn errors_render_messages() {
        let e = ArgsError::BadValue { flag: "--dim".into(), value: "x".into(), expected: "usize" };
        assert!(e.to_string().contains("--dim"));
        assert!(ArgsError::MissingFlag("out").to_string().contains("--out"));
        assert_eq!(ArgsError::UnknownFlag("epoch".into()).to_string(), "unknown flag --epoch");
    }
}
