//! Shared CLI argument parsing.
//!
//! A typo like `--smoek` must fail fast instead of silently running the
//! full (hour-long) window, so every subcommand declares its flags as
//! [`Spec`]s in the command table ([`crate::cli::COMMANDS`]) and anything
//! unrecognized is a hard error the CLI turns into usage + exit 2. The
//! same `Spec`s generate the usage text, so the two cannot disagree.

use std::ops::RangeInclusive;
use std::str::FromStr;

/// How many tokens a flag consumes after its own name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Arity {
    /// Boolean flag, e.g. `--smoke`.
    Flag,
    /// Requires a value, e.g. `--out results/x.csv`.
    Value,
    /// Optional value: consumes the next token only if it is not a
    /// flag, e.g. `--flame [component]`.
    OptValue,
}

/// One accepted flag.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Flag name including the leading dashes (`"--smoke"`).
    pub name: &'static str,
    /// Whether/how it takes a value.
    pub arity: Arity,
    /// Placeholder naming the value in the usage text (`N`, `<dir>`).
    pub meta: &'static str,
}

impl Spec {
    /// A boolean flag.
    pub const fn flag(name: &'static str) -> Spec {
        Spec {
            name,
            arity: Arity::Flag,
            meta: "",
        }
    }

    /// A flag with a required value, shown as `meta` in the usage text.
    pub const fn value(name: &'static str, meta: &'static str) -> Spec {
        Spec {
            name,
            arity: Arity::Value,
            meta,
        }
    }

    /// A flag with an optional value.
    pub const fn opt_value(name: &'static str, meta: &'static str) -> Spec {
        Spec {
            name,
            arity: Arity::OptValue,
            meta,
        }
    }

    /// The flag as the usage text shows it: `[--smoke]`, `[--seed N]`,
    /// `[--flame [component]]`.
    pub fn usage(&self) -> String {
        match self.arity {
            Arity::Flag => format!("[{}]", self.name),
            Arity::Value => format!("[{} {}]", self.name, self.meta),
            Arity::OptValue => format!("[{} [{}]]", self.name, self.meta),
        }
    }
}

/// Parse `raw` as an integer inside `range`; `what` names the quantity in
/// the error message.
pub fn in_range(what: &str, raw: &str, range: RangeInclusive<u64>) -> Result<u64, String> {
    let bad = || {
        format!(
            "bad {what}: {raw} (expected {}..={})",
            range.start(),
            range.end()
        )
    };
    raw.parse()
        .ok()
        .filter(|n| range.contains(n))
        .ok_or_else(bad)
}

/// Parsed arguments: positionals in order plus flag occurrences.
#[derive(Debug, Default)]
pub struct Parsed {
    /// Non-flag tokens, in order.
    pub positionals: Vec<String>,
    flags: Vec<(&'static str, Option<String>)>,
}

impl Parsed {
    /// Whether `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| *n == name)
    }

    /// The (last) value given for `name`, if any.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Parse the value of `name` as `T`; `what` names the quantity in
    /// the error message. `Ok(None)` when the flag was absent.
    pub fn parsed<T: FromStr>(&self, name: &str, what: &str) -> Result<Option<T>, String> {
        match self.value(name) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad {what}: {v}")),
        }
    }

    /// The value of `name` as an integer inside `range` (see [`in_range`]).
    pub fn ranged(
        &self,
        name: &str,
        what: &str,
        range: RangeInclusive<u64>,
    ) -> Result<Option<u64>, String> {
        self.value(name)
            .map(|v| in_range(what, v, range))
            .transpose()
    }

    /// The nth positional.
    pub fn pos(&self, n: usize) -> Option<&str> {
        self.positionals.get(n).map(String::as_str)
    }
}

/// Parse `args` (everything after the subcommand) against `specs`.
/// Unknown `--flags`, missing required values and positionals beyond
/// `max_pos` are errors; the caller prints the message and exits via its
/// usage text. `cmd` is the full command name for the error message (e.g.
/// `"bench trace"`).
pub fn parse(cmd: &str, args: &[String], specs: &[Spec], max_pos: usize) -> Result<Parsed, String> {
    let mut out = Parsed::default();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(spec) = specs.iter().find(|s| s.name == a) {
            let value = match spec.arity {
                Arity::Flag => None,
                Arity::Value => {
                    let v = args
                        .get(i + 1)
                        .ok_or_else(|| format!("{} requires a value", spec.name))?;
                    i += 1;
                    Some(v.clone())
                }
                Arity::OptValue => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                    Some(v) => {
                        i += 1;
                        Some(v.clone())
                    }
                    None => None,
                },
            };
            out.flags.push((spec.name, value));
        } else if a.starts_with("--") {
            return Err(format!("unknown flag for `{cmd}`: {a}"));
        } else if out.positionals.len() == max_pos {
            // A misspelled flag without dashes would otherwise vanish.
            return Err(format!("unexpected argument for `{cmd}`: {a}"));
        } else {
            out.positionals.push(a.clone());
        }
        i += 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn positionals_flags_and_values() {
        let p = parse(
            "bench chaos",
            &argv(&["voltdb", "micro", "--seed", "7", "--smoke"]),
            &[Spec::value("--seed", "N"), Spec::flag("--smoke")],
            2,
        )
        .unwrap();
        assert_eq!(p.positionals, vec!["voltdb", "micro"]);
        assert!(p.has("--smoke"));
        assert_eq!(p.parsed::<u64>("--seed", "seed").unwrap(), Some(7));
    }

    #[test]
    fn unknown_flag_is_an_error() {
        let err = parse(
            "bench metrics",
            &argv(&["--smoek"]),
            &[Spec::flag("--smoke")],
            0,
        )
        .unwrap_err();
        assert!(err.contains("--smoek"), "{err}");
        assert!(err.contains("bench metrics"), "{err}");
    }

    #[test]
    fn missing_required_value_is_an_error() {
        let err = parse(
            "perf",
            &argv(&["--out"]),
            &[Spec::value("--out", "<path>")],
            0,
        )
        .unwrap_err();
        assert!(err.contains("--out requires a value"), "{err}");
    }

    #[test]
    fn optional_value_takes_a_word_but_not_a_flag() {
        let specs = [
            Spec::opt_value("--flame", "component"),
            Spec::flag("--smoke"),
        ];
        let p = parse("trace", &argv(&["--flame", "l1i"]), &specs, 0).unwrap();
        assert_eq!(p.value("--flame"), Some("l1i"));
        let p = parse("trace", &argv(&["--flame", "--smoke"]), &specs, 0).unwrap();
        assert!(p.has("--flame"));
        assert_eq!(p.value("--flame"), None);
        assert!(p.has("--smoke"));
    }

    #[test]
    fn bad_numeric_value_reports_the_quantity() {
        let specs = [Spec::value("--seed", "N"), Spec::value("--workers", "W")];
        let p = parse(
            "chaos",
            &argv(&["--seed", "abc", "--workers", "65"]),
            &specs,
            0,
        )
        .unwrap();
        let err = p.parsed::<u64>("--seed", "seed").unwrap_err();
        assert_eq!(err, "bad seed: abc");
        let err = p.ranged("--workers", "worker count", 1..=64).unwrap_err();
        assert_eq!(err, "bad worker count: 65 (expected 1..=64)");
        assert_eq!(p.ranged("--epoch", "epoch", 1..=4096), Ok(None));
    }

    #[test]
    fn surplus_positionals_are_an_error() {
        let err = parse("bench perf", &argv(&["smoke"]), &[], 0).unwrap_err();
        assert_eq!(err, "unexpected argument for `bench perf`: smoke");
    }
}
