//! Minimal dependency-free flag parser:
//! `cadmc <command> [positional ...] --key value ...`.

use std::collections::HashMap;

/// Flags that take no value: present means `"true"`. A following token
/// that is not another flag is still treated as a positional.
const VALUELESS: &[&str] = &["json", "flame", "feature-actions"];

/// Parsed invocation: a subcommand plus positionals and `--key value`
/// flags. Commands that take no positionals reject them at dispatch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
    positionals: Vec<String>,
}

/// Errors from parsing or flag lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` had no value.
    MissingValue(String),
    /// A `--flag` was given more than once.
    Repeated(String),
    /// A token that is neither the command nor a `--flag`.
    Unexpected(String),
    /// A required flag was absent.
    Required(String),
    /// A flag's value failed to parse.
    Invalid {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
    },
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgsError::MissingCommand => write!(f, "no command given (try `cadmc help`)"),
            ArgsError::MissingValue(k) => write!(f, "flag --{k} needs a value"),
            ArgsError::Repeated(k) => write!(f, "flag --{k} given more than once"),
            ArgsError::Unexpected(t) => write!(f, "unexpected argument {t:?}"),
            ArgsError::Required(k) => write!(f, "missing required flag --{k}"),
            ArgsError::Invalid { flag, value } => {
                write!(f, "invalid value {value:?} for --{flag}")
            }
        }
    }
}

impl std::error::Error for ArgsError {}

impl Args {
    /// Parses a raw argument list (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError`] on malformed input.
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ArgsError> {
        let mut iter = raw.into_iter();
        let command = iter.next().ok_or(ArgsError::MissingCommand)?;
        if command.starts_with("--") {
            return Err(ArgsError::Unexpected(command));
        }
        let mut flags = HashMap::new();
        let mut positionals = Vec::new();
        while let Some(token) = iter.next() {
            let Some(key) = token.strip_prefix("--") else {
                positionals.push(token);
                continue;
            };
            if flags.contains_key(key) {
                return Err(ArgsError::Repeated(key.to_string()));
            }
            let value = if VALUELESS.contains(&key) {
                "true".to_string()
            } else {
                iter.next()
                    .ok_or_else(|| ArgsError::MissingValue(key.to_string()))?
            };
            flags.insert(key.to_string(), value);
        }
        Ok(Args {
            command,
            flags,
            positionals,
        })
    }

    /// Positional arguments after the command (e.g. `report <file>`).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Optional string flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Required`] when absent.
    pub fn require(&self, key: &str) -> Result<&str, ArgsError> {
        self.get(key).ok_or_else(|| ArgsError::Required(key.into()))
    }

    /// Optional parsed flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgsError::Invalid`] when present but unparseable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ArgsError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgsError::Invalid {
                flag: key.into(),
                value: v.into(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(tokens: &[&str]) -> Result<Args, ArgsError> {
        Args::parse(tokens.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["train", "--model", "vgg11", "--episodes", "50"]).unwrap();
        assert_eq!(a.command, "train");
        assert_eq!(a.get("model"), Some("vgg11"));
        assert_eq!(a.get_or("episodes", 0usize).unwrap(), 50);
        assert_eq!(a.get_or("seed", 7u64).unwrap(), 7);
    }

    #[test]
    fn missing_command() {
        assert_eq!(parse(&[]), Err(ArgsError::MissingCommand));
    }

    #[test]
    fn missing_value() {
        assert_eq!(
            parse(&["train", "--model"]),
            Err(ArgsError::MissingValue("model".into()))
        );
    }

    #[test]
    fn repeated_flag_is_rejected_not_overwritten() {
        assert_eq!(
            parse(&["train", "--seed", "1", "--model", "vgg11", "--seed", "2"]),
            Err(ArgsError::Repeated("seed".into()))
        );
        assert_eq!(
            parse(&["check", "--json", "model.ir", "--json"]),
            Err(ArgsError::Repeated("json".into()))
        );
        assert_eq!(
            ArgsError::Repeated("seed".into()).to_string(),
            "flag --seed given more than once"
        );
    }

    #[test]
    fn positionals_are_collected() {
        let a = parse(&["report", "run.jsonl"]).unwrap();
        assert_eq!(a.positionals(), ["run.jsonl"]);
        assert!(matches!(parse(&["--flag"]), Err(ArgsError::Unexpected(_))));
    }

    #[test]
    fn valueless_flags_do_not_eat_positionals() {
        let a = parse(&["check", "--json", "model.ir"]).unwrap();
        assert_eq!(a.get("json"), Some("true"));
        assert_eq!(a.positionals(), ["model.ir"]);
        let a = parse(&["check", "model.ir", "--json"]).unwrap();
        assert_eq!(a.get("json"), Some("true"));
    }

    #[test]
    fn feature_actions_is_valueless() {
        let a = parse(&["search", "--feature-actions", "--model", "vgg11"]).unwrap();
        assert_eq!(a.get("feature-actions"), Some("true"));
        assert!(a.get_or("feature-actions", false).unwrap());
        assert_eq!(a.get("model"), Some("vgg11"));
        let a = parse(&["search", "--model", "vgg11"]).unwrap();
        assert!(!a.get_or("feature-actions", false).unwrap());
    }

    #[test]
    fn required_flag() {
        let a = parse(&["show"]).unwrap();
        assert_eq!(a.require("tree"), Err(ArgsError::Required("tree".into())));
    }

    #[test]
    fn invalid_number() {
        let a = parse(&["train", "--episodes", "many"]).unwrap();
        assert!(matches!(
            a.get_or("episodes", 0usize),
            Err(ArgsError::Invalid { .. })
        ));
    }
}
