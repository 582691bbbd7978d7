//! Hand-rolled command-line parsing (no external dependency): a small
//! `--key value` / `--flag` grammar shared by all subcommands.

use std::collections::BTreeMap;

/// Parsed arguments: positional subcommand, an optional positional action
/// (`scd shard gen ...`), plus `--key value` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// The first positional token (subcommand).
    pub command: String,
    /// The optional second positional token. Only the `shard` subcommand
    /// accepts one; every other command rejects it at dispatch.
    pub action: Option<String>,
    options: BTreeMap<String, String>,
}

/// Parsing errors with actionable messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// An option appeared without a leading `--`.
    UnexpectedPositional(String),
    /// `--key` at end of line or followed by another `--option`.
    MissingValue(String),
    /// The same option was given twice.
    Duplicate(String),
    /// A required option is absent.
    MissingRequired(&'static str),
    /// A value failed to parse.
    BadValue {
        /// Offending option name.
        key: String,
        /// The raw value.
        value: String,
        /// What was expected.
        expected: &'static str,
    },
    /// An option not understood by the subcommand.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand (try `scd help`)"),
            ArgError::UnexpectedPositional(t) => {
                write!(f, "unexpected positional argument {t:?} (options are --key value)")
            }
            ArgError::MissingValue(k) => write!(f, "option --{k} needs a value"),
            ArgError::Duplicate(k) => write!(f, "option --{k} given more than once"),
            ArgError::MissingRequired(k) => write!(f, "required option --{k} is missing"),
            ArgError::BadValue { key, value, expected } => {
                write!(f, "--{key} {value:?}: expected {expected}")
            }
            ArgError::Unknown(k) => write!(f, "unknown option --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parse a raw token stream (usually `std::env::args().skip(1)`).
    pub fn parse(tokens: impl IntoIterator<Item = String>) -> Result<Args, ArgError> {
        let mut tokens = tokens.into_iter().peekable();
        let command = tokens.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgError::MissingCommand);
        }
        let mut options = BTreeMap::new();
        let mut action = None;
        while let Some(tok) = tokens.next() {
            let Some(stripped) = tok.strip_prefix("--") else {
                // At most one extra positional (the action); whether the
                // subcommand accepts it is decided at dispatch.
                if action.is_none() && options.is_empty() {
                    action = Some(tok);
                    continue;
                }
                return Err(ArgError::UnexpectedPositional(tok.clone()));
            };
            let key = stripped.to_string();
            // `--help` is the one valueless flag: any subcommand accepts
            // it and prints usage instead of running.
            if key == "help" {
                if options.insert(key.clone(), String::new()).is_some() {
                    return Err(ArgError::Duplicate(key));
                }
                continue;
            }
            let value = match tokens.peek() {
                Some(v) if !v.starts_with("--") => tokens.next().expect("peeked"),
                _ => return Err(ArgError::MissingValue(key)),
            };
            if options.insert(key.clone(), value).is_some() {
                return Err(ArgError::Duplicate(key));
            }
        }
        Ok(Args {
            command,
            action,
            options,
        })
    }

    /// A string option, if present.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// A required string option.
    pub fn require(&self, key: &'static str) -> Result<&str, ArgError> {
        self.get(key).ok_or(ArgError::MissingRequired(key))
    }

    /// A typed option with a default.
    pub fn get_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        expected: &'static str,
    ) -> Result<T, ArgError> {
        Ok(self.get_opt(key, expected)?.unwrap_or(default))
    }

    /// A typed option, if present.
    pub fn get_opt<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        self.get_valid(key, expected, |_| true)
    }

    /// A typed option, if present, that must pass `valid`; `expected`
    /// names what it must be.
    pub fn get_valid<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
        valid: impl Fn(&T) -> bool,
    ) -> Result<Option<T>, ArgError> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        match raw.parse() {
            Ok(value) if valid(&value) => Ok(Some(value)),
            _ => Err(ArgError::BadValue {
                key: key.to_string(),
                value: raw.to_string(),
                expected,
            }),
        }
    }

    /// An integer option >= 1, if present.
    pub fn get_count(&self, key: &str) -> Result<Option<usize>, ArgError> {
        self.get_valid(key, "an integer >= 1", |&n| n >= 1)
    }

    /// A finite number option > 0, if present.
    pub fn get_positive(&self, key: &str) -> Result<Option<f64>, ArgError> {
        self.get_valid(key, "a finite number > 0", |v: &f64| v.is_finite() && *v > 0.0)
    }

    /// Reject any option not in the allow-list (typo protection).
    pub fn check_known(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for key in self.options.keys() {
            if !allowed.contains(&key.as_str()) {
                return Err(ArgError::Unknown(key.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, ArgError> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_and_options() {
        let a = parse("train --lambda 0.001 --epochs 50").unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("lambda"), Some("0.001"));
        assert_eq!(a.get("epochs"), Some("50"));
        assert_eq!(a.get("missing"), None);
    }

    #[test]
    fn rejects_missing_command() {
        assert_eq!(parse("").unwrap_err(), ArgError::MissingCommand);
        assert_eq!(parse("--lambda 1").unwrap_err(), ArgError::MissingCommand);
    }

    #[test]
    fn rejects_positional_noise() {
        // One extra positional parses as the action — commands that take
        // none reject it at dispatch.
        let a = parse("train oops").unwrap();
        assert_eq!(a.action.as_deref(), Some("oops"));
        // A second positional, or one after options, fails at parse.
        assert!(matches!(
            parse("shard gen extra").unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
        assert!(matches!(
            parse("train --lambda 1 oops").unwrap_err(),
            ArgError::UnexpectedPositional(_)
        ));
    }

    #[test]
    fn action_positional_parses() {
        let a = parse("shard gen --rows 100").unwrap();
        assert_eq!(a.command, "shard");
        assert_eq!(a.action.as_deref(), Some("gen"));
        assert_eq!(a.get("rows"), Some("100"));
        assert_eq!(parse("info --data x").unwrap().action, None);
    }

    #[test]
    fn rejects_missing_values_and_duplicates() {
        assert_eq!(
            parse("train --lambda").unwrap_err(),
            ArgError::MissingValue("lambda".into())
        );
        assert_eq!(
            parse("train --lambda --epochs 3").unwrap_err(),
            ArgError::MissingValue("lambda".into())
        );
        assert_eq!(
            parse("train --x 1 --x 2").unwrap_err(),
            ArgError::Duplicate("x".into())
        );
    }

    #[test]
    fn typed_accessors() {
        let a = parse("train --epochs 50").unwrap();
        assert_eq!(a.get_or("epochs", 10usize, "integer").unwrap(), 50);
        assert_eq!(a.get_or("workers", 4usize, "integer").unwrap(), 4);
        assert!(matches!(
            parse("train --epochs abc")
                .unwrap()
                .get_or("epochs", 1usize, "integer"),
            Err(ArgError::BadValue { .. })
        ));
        assert!(matches!(a.require("data"), Err(ArgError::MissingRequired("data"))));
        assert_eq!(a.get_opt("epochs", "integer").unwrap(), Some(50usize));
        assert_eq!(a.get_opt::<usize>("workers", "integer").unwrap(), None);
        // Constrained accessors reject what parses but does not fit.
        let a = parse("train --threads 0 --step nan --epochs 3").unwrap();
        assert_eq!(a.get_count("epochs").unwrap(), Some(3));
        assert_eq!(
            a.get_count("threads").unwrap_err().to_string(),
            "--threads \"0\": expected an integer >= 1"
        );
        assert!(a.get_positive("step").is_err());
        assert_eq!(a.get_positive("lambda").unwrap(), None);
    }

    #[test]
    fn help_is_a_valueless_flag() {
        let a = parse("train --help").unwrap();
        assert!(a.get("help").is_some());
        // …even sandwiched between valued options.
        let a = parse("train --epochs 3 --help --lambda 0.1").unwrap();
        assert!(a.get("help").is_some());
        assert_eq!(a.get("epochs"), Some("3"));
        assert_eq!(
            parse("train --help --help").unwrap_err(),
            ArgError::Duplicate("help".into())
        );
    }

    #[test]
    fn unknown_options_flagged() {
        let a = parse("train --lambda 1 --oops 2").unwrap();
        assert_eq!(
            a.check_known(&["lambda"]).unwrap_err(),
            ArgError::Unknown("oops".into())
        );
        assert!(a.check_known(&["lambda", "oops"]).is_ok());
    }

    #[test]
    fn errors_display_helpfully() {
        assert!(ArgError::MissingRequired("data").to_string().contains("--data"));
        assert!(ArgError::Unknown("zz".into()).to_string().contains("--zz"));
        assert!(ArgError::BadValue {
            key: "epochs".into(),
            value: "x".into(),
            expected: "integer"
        }
        .to_string()
        .contains("expected integer"));
    }
}
