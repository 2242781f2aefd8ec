//! The command line of the evaluation bins.  `table1` takes `--count N`,
//! `--timeout-ms MS` and `--suite NAME`; `fig6` and `fig7` take `--count N`
//! and run every suite.  An unknown flag, a missing or non-numeric value
//! or an unknown suite is an error, never a silent default.

use std::str::FromStr;
use std::time::Duration;

use crate::gen::suite_names;

/// What one run of an evaluation bin covers.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BinArgs {
    /// Instances per suite.
    pub count: usize,
    /// Per-instance timeout.
    pub timeout: Duration,
    /// The suites to run, in [`suite_names`] order.
    pub suites: Vec<&'static str>,
}

impl BinArgs {
    /// Every suite, `count` instances each, under `timeout`.
    pub fn defaults(count: usize, timeout: Duration) -> BinArgs {
        BinArgs {
            count,
            timeout,
            suites: suite_names(),
        }
    }

    /// Parses `args` (without the program name) over `self`;
    /// `suite_and_timeout` admits `--timeout-ms` and `--suite` besides
    /// `--count`.
    ///
    /// # Errors
    /// Names the offending argument.
    pub fn parse(mut self, args: &[String], suite_and_timeout: bool) -> Result<BinArgs, String> {
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let known = flag == "--count"
                || (suite_and_timeout && (flag == "--timeout-ms" || flag == "--suite"));
            if !known {
                return Err(format!("unknown argument {flag:?}"));
            }
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--count" => self.count = number(flag, value)?,
                "--timeout-ms" => self.timeout = Duration::from_millis(number(flag, value)?),
                _ => {
                    let suite = suite_names()
                        .into_iter()
                        .find(|s| s == value)
                        .ok_or_else(|| format!("unknown suite {value:?}"))?;
                    self.suites = vec![suite];
                }
            }
        }
        Ok(self)
    }

    /// The usage line of `bin`, naming the valid suites.
    pub fn usage(bin: &str, suite_and_timeout: bool) -> String {
        let flags = if suite_and_timeout {
            "[--count N] [--timeout-ms MS] [--suite NAME]"
        } else {
            "[--count N]"
        };
        format!(
            "usage: {bin} {flags} (suites: {})",
            suite_names().join(", ")
        )
    }

    /// [`BinArgs::parse`] of the process's arguments; on an error, prints
    /// it and the usage line to stderr and exits with status 2.
    pub fn from_env_or_exit(self, bin: &str, suite_and_timeout: bool) -> BinArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.parse(&args, suite_and_timeout)
            .unwrap_or_else(|error| {
                eprintln!("{bin}: {error}");
                eprintln!("{}", BinArgs::usage(bin, suite_and_timeout));
                std::process::exit(2)
            })
    }
}

fn number<T: FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} needs a non-negative integer, not {value:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], suite_and_timeout: bool) -> Result<BinArgs, String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        BinArgs::defaults(30, Duration::from_secs(3)).parse(&args, suite_and_timeout)
    }

    #[test]
    fn good_arguments_override_the_defaults() {
        let args = parse(
            &["--count", "3", "--timeout-ms", "1000", "--suite", "thefuck"],
            true,
        )
        .unwrap();
        assert_eq!(args.count, 3);
        assert_eq!(args.timeout, Duration::from_millis(1000));
        assert_eq!(args.suites, ["thefuck"]);
        assert_eq!(parse(&[], false).unwrap().suites, suite_names());
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            &["--count", "x"][..],
            &["--timeout-ms", "x"],
            &["--suite", "nosuch"],
            &["--count"],
            &["--verbose"],
        ] {
            assert!(parse(bad, true).is_err(), "{bad:?}");
        }
        // the figure bins take --count alone
        assert!(parse(&["--timeout-ms", "1000"], false).is_err());
        assert!(parse(&["--suite", "thefuck"], false).is_err());
    }

    #[test]
    fn usage_names_every_suite() {
        let usage = BinArgs::usage("fig6", false);
        for suite in suite_names() {
            assert!(usage.contains(suite), "{usage}");
        }
    }
}
