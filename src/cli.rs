//! The one flag parser of the workspace's binaries: `kamsta_launch` and
//! the `kamsta-bench` figure binaries. A binary's flags are the `--name`
//! tokens of its one-line usage message, and each takes one value
//! (`--name VALUE`). An unknown, repeated or value-less flag and a value
//! that does not parse are errors naming the flag, so a typo never falls
//! back to a default; [`parse_or_exit`] prints the error with the usage
//! line and exits 2. What to run comes from argv only: the environment
//! carries the machine settings [`MachineConfig`](crate::MachineConfig)
//! resolves, nothing else.

use std::fmt::Display;
use std::str::FromStr;

/// The `--flag value` pairs of one command line.
#[derive(Debug)]
pub struct Flags<'u> {
    usage: &'u str,
    pairs: Vec<(String, String)>,
}

impl<'u> Flags<'u> {
    /// Check `args` (argv without the program name) against `usage`.
    pub fn parse(usage: &'u str, args: &[String]) -> Result<Self, String> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            if !accepts(usage, flag) {
                return Err(format!("unknown flag {flag}"));
            }
            if pairs.iter().any(|(f, _)| f == flag) {
                return Err(format!("{flag} is given twice"));
            }
            match args.next() {
                Some(value) if !value.starts_with("--") => {
                    pairs.push((flag.clone(), value.clone()))
                }
                _ => return Err(format!("{flag} needs a value")),
            }
        }
        Ok(Self { usage, pairs })
    }

    /// The value of `flag`, or `default` when it is absent.
    pub fn get<T: FromStr<Err: Display>>(&self, flag: &str, default: T) -> Result<T, String> {
        Ok(self.get_opt(flag)?.unwrap_or(default))
    }

    /// The value of `flag`, or `None` when it is absent.
    ///
    /// # Panics
    ///
    /// Panics if `flag` is not in the usage line.
    pub fn get_opt<T: FromStr<Err: Display>>(&self, flag: &str) -> Result<Option<T>, String> {
        assert!(accepts(self.usage, flag), "{flag} is not in the usage line");
        let pair = self.pairs.iter().find(|(f, _)| f == flag);
        pair.map(|(_, v)| parse_value(flag, v)).transpose()
    }

    /// The comma-separated values of `flag`, or `default` when it is
    /// absent.
    pub fn get_list<T: FromStr<Err: Display>>(
        &self,
        flag: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, String> {
        match self.get_opt::<String>(flag)? {
            Some(list) => list.split(',').map(|v| parse_value(flag, v)).collect(),
            None => Ok(default),
        }
    }
}

fn parse_value<T: FromStr<Err: Display>>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|e| format!("bad value {value:?} for {flag}: {e}"))
}

fn accepts(usage: &str, flag: &str) -> bool {
    let mut tokens = usage.split(|c: char| c.is_whitespace() || "[]()".contains(c));
    flag.starts_with("--") && tokens.any(|token| token == flag)
}

/// Parse argv against `usage` and hand the flags to `opts`; print any
/// error, the parser's or `opts`', with `usage` and exit 2.
pub fn parse_or_exit<T>(usage: &str, opts: impl FnOnce(&Flags) -> Result<T, String>) -> T {
    let args: Vec<String> = std::env::args().skip(1).collect();
    Flags::parse(usage, &args)
        .and_then(|flags| opts(&flags))
        .unwrap_or_else(|e| {
            eprintln!("{e}\n{usage}");
            std::process::exit(2)
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::num::NonZeroUsize;

    const USAGE: &str = "usage: demo [--cores N] [--name S] [--sizes A,B]";

    fn parse(args: &[&str]) -> Result<Flags<'static>, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Flags::parse(USAGE, &args)
    }

    #[test]
    fn absent_flags_take_their_defaults() {
        let flags = parse(&[]).unwrap();
        assert_eq!(flags.get("--cores", 64usize), Ok(64));
        assert_eq!(flags.get_opt::<String>("--name"), Ok(None));
        assert_eq!(flags.get_list("--sizes", vec![16u32, 64]), Ok(vec![16, 64]));
    }

    #[test]
    fn given_flags_override_their_defaults() {
        let flags = parse(&["--sizes", "1,2,3", "--cores", "8"]).unwrap();
        assert_eq!(flags.get("--cores", 64usize), Ok(8));
        assert_eq!(flags.get_list("--sizes", vec![16u32]), Ok(vec![1, 2, 3]));
        assert_eq!(flags.get("--name", "x".to_string()), Ok("x".to_string()));
    }

    #[test]
    fn every_error_names_its_flag() {
        let unknown = parse(&["--core", "8"]).unwrap_err();
        assert!(unknown.contains("unknown flag --core"), "{unknown}");
        let missing = parse(&["--cores"]).unwrap_err();
        assert!(missing.contains("--cores needs a value"), "{missing}");
        let swallowed = parse(&["--name", "--cores", "8"]).unwrap_err();
        assert!(swallowed.contains("--name needs a value"), "{swallowed}");
        let repeated = parse(&["--cores", "8", "--cores", "9"]).unwrap_err();
        assert!(repeated.contains("--cores is given twice"), "{repeated}");

        let flags = parse(&["--cores", "l7", "--sizes", "4,,8"]).unwrap();
        let bad = flags.get("--cores", 64usize).unwrap_err();
        assert!(bad.contains("\"l7\" for --cores"), "{bad}");
        let bad = flags.get_list("--sizes", vec![1u32]).unwrap_err();
        assert!(bad.contains("\"\" for --sizes"), "{bad}");
        let zero = parse(&["--cores", "0"]).unwrap();
        let bad = zero.get("--cores", NonZeroUsize::MIN).unwrap_err();
        assert!(bad.contains("\"0\" for --cores"), "{bad}");
    }

    #[test]
    #[should_panic(expected = "--seed is not in the usage line")]
    fn reading_an_unadvertised_flag_is_a_bug() {
        let _ = parse(&[]).unwrap().get("--seed", 0u64);
    }
}
