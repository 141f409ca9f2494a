//! The one command-line grammar of the workspace's binaries.
//!
//! A binary (or one subcommand of it) declares its [`Flags`]: the
//! switches, the flags that take a value, and the modes of which at
//! most one may be given. [`Flags::parse`] reads every argument list
//! the same way:
//!
//! - `--flag V` and `--flag=V` are the same;
//! - the token after a valued flag is its value, whatever it looks like;
//! - a lone `-` is data (stdin, where the binary documents it); a flag
//!   naming a file the binary writes refuses it ([`Args::file`]);
//! - any other token starting with `-` must be declared, wherever it
//!   stands: a flag typed after the positionals is never taken as data;
//! - a missing or repeated value, a value on a switch, and a second
//!   mode are errors, as is a surplus positional ([`Args::positionals`]).
//!
//! Every error is a message naming the offending token. A binary prints
//! it with its usage text and exits 2 ([`usage_exit`]) before it does
//! any work. [`lookup`] and [`int`] parse values, for the binaries and
//! for `pac-serve`'s campaign specs alike: names case-insensitively
//! against a closed list, integers in decimal or `0x` hex, refused past
//! their target type.

use std::num::IntErrorKind;
use std::ops::{Bound, RangeBounds};

/// What a binary, or one subcommand, accepts.
#[derive(Debug, Clone, Copy)]
pub struct Flags {
    /// Flags that take no value.
    pub switches: &'static [&'static str],
    /// Flags that take exactly one value.
    pub valued: &'static [&'static str],
    /// Declared flags of which at most one may be given.
    pub modes: &'static [&'static str],
}

/// A parsed argument list.
#[derive(Debug, Default)]
pub struct Args {
    /// Every flag given, in order, with its value if it takes one.
    flags: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

/// The process's arguments, without the program name: the one place
/// the workspace's binaries read them. It also restores SIGPIPE's
/// default action ([`crate::sigwatch::default_sigpipe`]), so a binary
/// whose stdout is closed early (`figures all | head -1`) ends quietly,
/// killed by SIGPIPE (exit status 141 in a shell), never with a panic.
pub fn argv() -> Vec<String> {
    crate::sigwatch::default_sigpipe();
    std::env::args().skip(1).collect()
}

/// Print a usage error and the usage text to stderr, and exit 2.
pub fn usage_exit(msg: &str, usage: &str) -> ! {
    eprintln!("{msg}\n{usage}");
    std::process::exit(2)
}

impl Flags {
    /// Parse the process's own arguments, or exit through
    /// [`usage_exit`].
    pub fn from_env(&self, usage: &str) -> Args {
        self.parse(&argv()).unwrap_or_else(|e| usage_exit(&e, usage))
    }

    /// Parse `argv` (without the program name).
    pub fn parse(&self, argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut mode: Option<&str> = None;
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            if token == "-" || !token.starts_with('-') {
                args.positionals.push(token.clone());
                continue;
            }
            let (name, inline) = match token.split_once('=') {
                Some((name, value)) => (name, Some(value.to_string())),
                None => (token.as_str(), None),
            };
            let declared = |list: &[&'static str]| list.iter().copied().find(|&f| f == name);
            let (flag, value) = if let Some(flag) = declared(self.valued) {
                let value = inline.or_else(|| it.next().cloned()).filter(|v| !v.is_empty());
                let value = value.ok_or_else(|| format!("'{flag}' requires a value"))?;
                if args.value(flag).is_some() {
                    return Err(format!("'{flag}' given twice"));
                }
                (flag, Some(value))
            } else if let Some(flag) = declared(self.switches) {
                if inline.is_some() {
                    return Err(format!("'{flag}' takes no value: '{token}'"));
                }
                (flag, None)
            } else {
                return Err(format!("unknown argument '{token}'"));
            };
            if self.modes.contains(&flag) {
                match mode {
                    Some(first) if first != flag => {
                        return Err(format!("'{flag}' cannot be combined with '{first}'"))
                    }
                    _ => mode = Some(flag),
                }
            }
            args.flags.push((flag, value));
        }
        Ok(args)
    }
}

impl Args {
    /// Whether `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value given to `flag`, if it was.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.flags.iter().find(|(f, _)| *f == flag).and_then(|(_, v)| v.as_deref())
    }

    /// The value given to `flag` as an integer of type `T` ([`int`]).
    pub fn int<T: TryFrom<u64>>(&self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag).map(|v| int(flag, v)).transpose()
    }

    /// The value given to `flag`, a file the binary writes beside its
    /// results. `-` is refused: the binaries print their results on
    /// stdout, so a second stream there could not be read apart.
    pub fn file(&self, flag: &str) -> Result<Option<&str>, String> {
        match self.value(flag) {
            Some("-") => {
                Err(format!("'{flag}' takes a file path, not '-': stdout carries the results"))
            }
            value => Ok(value),
        }
    }

    /// The positional arguments, whose number must lie in `count`.
    pub fn positionals(&self, count: impl RangeBounds<usize>) -> Result<&[String], String> {
        if count.contains(&self.positionals.len()) {
            return Ok(&self.positionals);
        }
        let max = match count.end_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n.saturating_sub(1),
            Bound::Unbounded => usize::MAX,
        };
        match self.positionals.get(max) {
            Some(surplus) => Err(format!("unexpected argument '{surplus}'")),
            None => Err("missing argument".to_string()),
        }
    }
}

/// The entry of `all` whose `label` is `name`, ignoring ASCII case. The
/// error names `what` and lists every label.
pub fn lookup<T: Copy, I>(
    what: &str,
    name: &str,
    all: I,
    label: impl Fn(T) -> &'static str,
) -> Result<T, String>
where
    I: IntoIterator<Item = T> + Clone,
{
    all.clone().into_iter().find(|&t| label(t).eq_ignore_ascii_case(name)).ok_or_else(|| {
        let valid: Vec<&str> = all.into_iter().map(label).collect();
        format!("unknown {what} '{name}' (valid: {})", valid.join(", "))
    })
}

/// Parse `s` as an integer of type `T`: decimal, or hex after `0x`. A
/// value past `T`'s range is refused, never wrapped. The error leads
/// with `what`, the flag or key the value belongs to.
pub fn int<T: TryFrom<u64>>(what: &str, s: &str) -> Result<T, String> {
    let parsed = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    let out_of_range = || {
        // T is an unsigned integer: its maximum is the widest all-ones
        // value it accepts.
        let max = (1..=64).map(|bits| u64::MAX >> (64 - bits));
        let max = max.take_while(|&m| T::try_from(m).is_ok()).last().unwrap_or(0);
        format!("{what}: '{s}' is out of range (at most {max})")
    };
    match parsed {
        Ok(n) => T::try_from(n).map_err(|_| out_of_range()),
        Err(e) if *e.kind() == IntErrorKind::PosOverflow => Err(out_of_range()),
        Err(_) => Err(format!("{what}: '{s}' is not an integer")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: Flags = Flags {
        switches: &["--quick", "--all", "--guard"],
        valued: &["--threads", "--progress", "--fault"],
        modes: &["--all", "--guard", "--fault"],
    };

    fn parse(argv: &[&str]) -> Result<Args, String> {
        FLAGS.parse(&argv.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn both_spellings_of_a_value_are_one() {
        for argv in [["--threads", "3", "EP"].as_slice(), &["EP", "--threads=3"]] {
            let args = parse(argv).unwrap();
            assert_eq!(args.value("--threads"), Some("3"));
            assert_eq!(args.int::<usize>("--threads").unwrap(), Some(3));
            assert_eq!(args.positionals(..).unwrap(), ["EP"]);
        }
        let args = parse(&["--quick"]).unwrap();
        assert!(args.has("--quick") && !args.has("--all"));
        assert_eq!(args.value("--threads"), None);
        assert_eq!(args.int::<usize>("--threads").unwrap(), None);
    }

    #[test]
    fn a_lone_dash_and_the_token_after_a_valued_flag_are_data() {
        for argv in [["--progress", "-", "-"].as_slice(), &["--progress=-", "-"]] {
            let args = parse(argv).unwrap();
            assert_eq!(args.value("--progress"), Some("-"));
            assert_eq!(args.positionals(1..=1).unwrap(), ["-"]);
            assert!(args.file("--progress").unwrap_err().contains("'--progress' takes a file"));
        }
        let args = parse(&["--progress=p.jsonl"]).unwrap();
        assert_eq!(args.file("--progress").unwrap(), Some("p.jsonl"));
        let args = parse(&["--progress", "--quick"]).unwrap();
        assert_eq!(args.value("--progress"), Some("--quick"));
        assert!(!args.has("--quick"));
    }

    #[test]
    fn grammar_errors_name_the_token() {
        for (argv, needle) in [
            (["EP", "pac", "--bogus"].as_slice(), "unknown argument '--bogus'"),
            (&["--bogus=1"], "unknown argument '--bogus=1'"),
            (&["-x"], "unknown argument '-x'"),
            (&["--threads"], "'--threads' requires a value"),
            (&["--threads="], "'--threads' requires a value"),
            (&["--threads", "1", "--threads=2"], "'--threads' given twice"),
            (&["--quick=1"], "'--quick' takes no value"),
            (&["--all", "--fault", "x"], "'--fault' cannot be combined with '--all'"),
            (&["--guard", "--all"], "'--all' cannot be combined with '--guard'"),
        ] {
            let err = parse(argv).unwrap_err();
            assert!(err.contains(needle), "{argv:?}: {err}");
        }
        // A mode repeated is still one mode.
        assert!(parse(&["--all", "--all"]).unwrap().has("--all"));
    }

    #[test]
    fn positional_counts_are_bounded() {
        let args = parse(&["EP", "pac", "a.json", "b.json"]).unwrap();
        assert_eq!(args.positionals(2..=4).unwrap().len(), 4);
        assert_eq!(args.positionals(2..=3).unwrap_err(), "unexpected argument 'b.json'");
        assert_eq!(args.positionals(..=0).unwrap_err(), "unexpected argument 'EP'");
        assert_eq!(args.positionals(5..).unwrap_err(), "missing argument");
    }

    #[test]
    fn lookup_ignores_case_and_lists_the_choices() {
        let all = [("hmc", 1), ("hbm", 2)];
        assert_eq!(lookup("backend", "HBM", all, |(l, _)| l), Ok(("hbm", 2)));
        assert_eq!(
            lookup("backend", "ddr4", all, |(l, _)| l).unwrap_err(),
            "unknown backend 'ddr4' (valid: hmc, hbm)"
        );
    }

    #[test]
    fn integers_take_hex_and_refuse_to_wrap() {
        assert_eq!(int::<u64>("--seed", "0xC4A05"), Ok(0xC4A05));
        assert_eq!(int::<u32>("--kills", "4294967295"), Ok(u32::MAX));
        assert_eq!(int::<u64>("--seed", "18446744073709551615"), Ok(u64::MAX));
        for (s, needle) in [
            ("4294967296", "--kills: '4294967296' is out of range (at most 4294967295)"),
            ("0x100000000", "--kills: '0x100000000' is out of range (at most 4294967295)"),
            ("18446744073709551616", "is out of range (at most 4294967295)"),
            ("x", "--kills: 'x' is not an integer"),
            ("-1", "--kills: '-1' is not an integer"),
            ("0x", "--kills: '0x' is not an integer"),
        ] {
            let err = int::<u32>("--kills", s).unwrap_err();
            assert!(err.contains(needle), "{s}: {err}");
        }
        let err = int::<u64>("k", "18446744073709551616").unwrap_err();
        assert!(err.contains("at most 18446744073709551615"), "{err}");
    }
}
