//! The one command-line parser of the workspace's binaries.
//!
//! A binary declares its switches, value flags and positionals once, as a
//! [`Cli`]. [`Cli::parse`] (or [`parse_command`], for a binary with
//! subcommands) reads the process arguments — nothing else in the
//! workspace reads them — and checks them against the declaration. A value
//! flag takes `--name V` and `--name=V` alike. An unknown flag, a flag
//! given twice, a missing or malformed value or a stray positional prints
//! the usage to stderr and exits with status 2, before the binary does any
//! work.

use std::collections::BTreeMap;
use std::str::FromStr;

/// One declared flag: a switch when `meta` is empty, else a value flag
/// shown as `name meta` in the usage, whose value `check(meta, value)`
/// accepts.
#[derive(Clone, Copy)]
pub struct Flag {
    name: &'static str,
    meta: &'static str,
    check: fn(&str, &str) -> Result<(), String>,
}

fn any(_: &str, _: &str) -> Result<(), String> {
    Ok(())
}

fn parses<T: FromStr>(_: &str, v: &str) -> Result<(), String> {
    v.parse::<T>()
        .map(drop)
        .map_err(|_| format!("`{v}` is not a valid {}", std::any::type_name::<T>()))
}

fn one_of(choices: &str, v: &str) -> Result<(), String> {
    if choices.split('|').any(|c| c == v) {
        Ok(())
    } else {
        Err(format!("`{v}` is not one of {choices}"))
    }
}

impl Flag {
    /// A switch: given or not.
    pub const fn switch(name: &'static str) -> Flag {
        Flag::value(name, "")
    }

    /// A flag taking any string value.
    pub const fn value(name: &'static str, meta: &'static str) -> Flag {
        Flag {
            name,
            meta,
            check: any,
        }
    }

    /// A flag whose value must parse as a `T`.
    pub const fn parsed<T: FromStr>(name: &'static str, meta: &'static str) -> Flag {
        Flag {
            name,
            meta,
            check: parses::<T>,
        }
    }

    /// A flag whose value must be one of the `|`-separated `choices`.
    pub const fn one_of(name: &'static str, choices: &'static str) -> Flag {
        Flag {
            name,
            meta: choices,
            check: one_of,
        }
    }

    /// The flag's name, `--` included.
    pub const fn name(&self) -> &'static str {
        self.name
    }
}

/// A binary's (or one subcommand's) declared command line.
#[derive(Default)]
pub struct Cli {
    name: &'static str,
    flags: Vec<Flag>,
    positionals: Vec<(&'static str, bool)>,
}

/// A parsed command line. An undeclared name reads as not given.
#[derive(Debug, Default)]
pub struct Args {
    given: BTreeMap<&'static str, Option<String>>,
    positionals: Vec<String>,
    usage: String,
}

/// The process arguments after the program name.
fn process_args() -> Vec<String> {
    std::env::args().skip(1).collect()
}

/// Prints `msg` and `usage` to stderr and exits with status 2.
fn usage_exit(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\n{usage}");
    std::process::exit(2)
}

impl Cli {
    /// An empty declaration for `name` (`gen grid` for a subcommand).
    pub fn new(name: &'static str) -> Cli {
        Cli {
            name,
            ..Cli::default()
        }
    }

    /// Declares `flags`.
    pub fn flags(mut self, flags: &[Flag]) -> Cli {
        self.flags.extend_from_slice(flags);
        self
    }

    /// Declares a positional, shown as `<name>` when `required`, else as
    /// `[<name>]`.
    pub fn positional(mut self, name: &'static str, required: bool) -> Cli {
        self.positionals.push((name, required));
        self
    }

    /// The usage line.
    fn usage(&self) -> String {
        let mut out = format!("usage: {}", self.name);
        for &(p, required) in &self.positionals {
            out += &if required {
                format!(" <{p}>")
            } else {
                format!(" [<{p}>]")
            };
        }
        for f in &self.flags {
            out += &format!(
                " [{}{}{}]",
                f.name,
                if f.meta.is_empty() { "" } else { " " },
                f.meta
            );
        }
        out
    }

    /// Parses the process arguments; a usage error prints the usage and
    /// exits with status 2.
    pub fn parse(&self) -> Args {
        self.parse_from(process_args())
            .unwrap_or_else(|e| usage_exit(&format!("{}: {e}", self.name), &self.usage()))
    }

    /// Parses `args` (without the program name) against the declaration.
    fn parse_from(&self, args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            usage: self.usage(),
            ..Args::default()
        };
        let mut args = args.into_iter().peekable();
        while let Some(arg) = args.next() {
            if !arg.starts_with('-') {
                if out.positionals.len() == self.positionals.len() {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                out.positionals.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, v)) => (name, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            let Some(flag) = self.flags.iter().find(|f| f.name == name) else {
                return Err(format!("unknown flag `{name}`"));
            };
            if out.given(name) {
                return Err(format!("`{name}` given twice"));
            }
            let value = match (flag.meta, inline) {
                ("", None) => None,
                ("", Some(_)) => return Err(format!("`{name}` takes no value")),
                (_, Some(v)) => Some(v),
                (_, None) => match args.next_if(|v| !v.starts_with("--")) {
                    Some(v) => Some(v),
                    None => return Err(format!("`{name}` needs a value")),
                },
            };
            if let Some(v) = &value {
                (flag.check)(flag.meta, v).map_err(|e| format!("{name}: {e}"))?;
            }
            out.given.insert(flag.name, value);
        }
        let mut unfilled = self.positionals.iter().skip(out.positionals.len());
        match unfilled.find(|(_, required)| *required) {
            Some((p, _)) => Err(format!("missing <{p}>")),
            None => Ok(out),
        }
    }
}

/// Parses the process arguments of a binary with subcommands: the first
/// argument names one of `commands` by the last word of its name (else
/// `default` applies) and the rest parse against its declaration. Returns
/// the command's word and its arguments; a usage error prints every
/// command's usage and exits with status 2.
pub fn parse_command<'c>(commands: &'c [Cli], default: Option<&str>) -> (&'c str, Args) {
    parse_command_from(commands, default, process_args()).unwrap_or_else(|e| {
        let usage: Vec<String> = commands.iter().map(Cli::usage).collect();
        usage_exit(&e, &usage.join("\n"))
    })
}

fn parse_command_from<'c>(
    commands: &'c [Cli],
    default: Option<&str>,
    args: Vec<String>,
) -> Result<(&'c str, Args), String> {
    let word = |c: &'c Cli| c.name.rsplit(' ').next().unwrap_or(c.name);
    let (wanted, rest) = match args.first().filter(|a| !a.starts_with('-')) {
        Some(a) => (Some(a.as_str()), &args[1..]),
        None => (default, &args[..]),
    };
    let Some(cli) = commands.iter().find(|c| Some(word(c)) == wanted) else {
        return Err(match wanted {
            Some(w) => format!("unknown command `{w}`"),
            None => "missing command".to_string(),
        });
    };
    match cli.parse_from(rest.to_vec()) {
        Ok(args) => Ok((word(cli), args)),
        Err(e) => Err(format!("{}: {e}", cli.name)),
    }
}

impl Args {
    /// True when the flag `name` was given.
    pub fn given(&self, name: &str) -> bool {
        self.given.contains_key(name)
    }

    /// The value of the flag `name`, if given.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given.get(name)?.as_deref()
    }

    /// The value of the flag `name`, declared [`Flag::parsed`] for `T`,
    /// if given.
    pub fn get<T: FromStr>(&self, name: &str) -> Option<T> {
        self.value(name)?.parse().ok()
    }

    /// The `i`-th positional, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// A usage error the declaration cannot express, such as two flags
    /// that exclude each other: prints `msg` and the usage, exits with 2.
    pub fn fail(&self, msg: &str) -> ! {
        usage_exit(msg, &self.usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli() -> Cli {
        Cli::new("t").positional("mode", false).flags(&[
            Flag::switch("--fresh"),
            Flag::value("--log", "PATH"),
            Flag::value("--out", "PATH"),
            Flag::parsed::<usize>("--jobs", "N"),
            Flag::one_of("--model", "mini|pro"),
        ])
    }

    fn parse(xs: &[&str]) -> Result<Args, String> {
        cli().parse_from(xs.iter().map(|s| s.to_string()))
    }

    #[test]
    fn jobs_flag_parsing() {
        let v = |xs: &[&str]| parse(xs).map(|a| a.get::<usize>("--jobs"));
        assert_eq!(v(&["--jobs", "4"]), Ok(Some(4)));
        assert_eq!(v(&["--fresh", "--jobs=2"]), Ok(Some(2)));
        assert!(v(&["--jobs"]).unwrap_err().contains("needs a value"));
        assert!(v(&["--jobs", "xyz"]).unwrap_err().contains("not a valid"));
        assert_eq!(v(&["--fresh"]), Ok(None));
        assert!(v(&["--jobsx=2"]).unwrap_err().contains("unknown flag"));
    }

    #[test]
    fn value_flags_read_both_spellings() {
        let v = |xs: &[&str]| parse(xs).map(|a| a.value("--log").map(str::to_string));
        assert_eq!(
            v(&["train", "--log", "a.jsonl"]),
            Ok(Some("a.jsonl".into()))
        );
        assert_eq!(v(&["train", "--log=b.jsonl"]), Ok(Some("b.jsonl".into())));
        // An empty `=` value is a value; `x` is then the positional.
        assert_eq!(v(&["--log=", "x"]), Ok(Some(String::new())));
        assert!(v(&["--log=a", "--log", "b"])
            .unwrap_err()
            .contains("given twice"));
        assert!(v(&["--out", "o", "--log"])
            .unwrap_err()
            .contains("needs a value"));
        assert!(v(&["--logx=a", "--log-dir", "b"])
            .unwrap_err()
            .contains("unknown flag `--logx`"));
    }

    #[test]
    fn switches_choices_and_positionals() {
        let a = parse(&["ab", "--fresh", "--model=pro"]).unwrap();
        assert!(a.given("--fresh") && a.given("--model") && !a.given("--log"));
        assert_eq!(a.positional(0), Some("ab"));
        assert_eq!(a.value("--model"), Some("pro"));
        assert_eq!(a.value("--fresh"), None);
        assert!(!a.given("--undeclared"));
        assert!(parse(&["--fresh=1"])
            .unwrap_err()
            .contains("takes no value"));
        assert!(parse(&["--model", "gpt5"])
            .unwrap_err()
            .contains("not one of"));
        assert!(parse(&["a", "b"])
            .unwrap_err()
            .contains("unexpected argument"));
        assert!(parse(&["-h"]).unwrap_err().contains("unknown flag"));
        // A value never swallows the next flag.
        assert!(parse(&["--out", "--fresh"])
            .unwrap_err()
            .contains("needs a value"));
        let required = Cli::new("r").positional("file", true);
        assert!(required
            .parse_from(Vec::<String>::new())
            .unwrap_err()
            .contains("missing <file>"));
    }

    #[test]
    fn commands_pick_their_own_declaration() {
        let commands = [
            Cli::new("g generate").flags(&[Flag::parsed::<u64>("--seed", "S")]),
            Cli::new("g validate").flags(&[Flag::value("--dir", "DIR")]),
        ];
        let run = |default, xs: &[&str]| {
            let args = xs.iter().map(|s| s.to_string()).collect();
            parse_command_from(&commands, default, args)
        };
        let (cmd, a) = run(None, &["validate", "--dir=d"]).unwrap();
        assert_eq!((cmd, a.value("--dir")), ("validate", Some("d")));
        let (cmd, a) = run(Some("generate"), &["--seed", "3"]).unwrap();
        assert_eq!((cmd, a.get::<u64>("--seed")), ("generate", Some(3)));
        let err = run(None, &["validate", "--seed", "3"]).unwrap_err();
        assert_eq!(err, "g validate: unknown flag `--seed`");
        assert_eq!(run(None, &["nope"]).unwrap_err(), "unknown command `nope`");
        assert_eq!(run(None, &["--seed", "3"]).unwrap_err(), "missing command");
    }

    #[test]
    fn usage_is_generated_from_the_declaration() {
        assert_eq!(
            cli().usage(),
            "usage: t [<mode>] [--fresh] [--log PATH] [--out PATH] [--jobs N] [--model mini|pro]"
        );
        let required = Cli::new("r").positional("file", true);
        assert_eq!(required.usage(), "usage: r <file>");
    }
}
