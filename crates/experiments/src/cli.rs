//! Tiny shared argument parsing for the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--scale <f>` — instruction-budget scale (default 1.0 = paper scale);
//! * `--quick`     — shorthand for `--scale 0.1`;
//! * `--seed <n>`  — machine seed (default 42);
//! * `--csv`       — also print tables as CSV.
//!
//! The fleet binaries parse their own flags with the same [`ArgError`]s
//! and create their `--json` output through [`JsonOut::create`]. A bad
//! argument prints its [`ArgError`], which names the bad value or path,
//! and exits with status 2 before any simulation runs.
//!
//! The binaries print through [`out!`](crate::out) and
//! [`outln!`](crate::outln), not `print!`: a reader that closes stdout
//! early (`fleet --quick --json r.json | head -1`) ends the printed
//! output rather than panicking, and the run still writes its `--json`
//! file and exits with status 0.

use crate::runner::RunOptions;
use dike_util::ToJson;
use std::fmt;
use std::io::Write as _;
use std::str::FromStr;
use std::sync::atomic::{AtomicBool, Ordering};

/// What a seed takes.
pub const SEED: &str = "an unsigned 64-bit integer";
/// What a count takes.
pub const AT_LEAST_ONE: &str = "an integer of at least 1";

/// Why a command line was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum ArgError {
    /// `--help` or `-h`: the usage line.
    Help(&'static str),
    /// A flag that takes a value came last.
    MissingValue(&'static str),
    /// A flag or positional the binary does not take.
    Unexpected(String),
    /// A value that does not parse as, or lies outside, what `arg` takes.
    BadValue {
        /// The flag or positional the value was given for.
        arg: &'static str,
        /// The value as given.
        value: String,
        /// What `arg` takes.
        expected: &'static str,
    },
    /// A flag given with another that makes it meaningless.
    Conflict(&'static str, &'static str),
    /// A `--json` path that cannot be created.
    Unwritable {
        /// The path as given.
        path: String,
        /// The operating system's reason.
        reason: String,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Help(usage) => f.write_str(usage),
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::Unexpected(arg) => write!(f, "unexpected argument {arg:?}; try --help"),
            ArgError::BadValue {
                arg,
                value,
                expected,
            } => write!(f, "bad {arg} {value:?}: expected {expected}"),
            ArgError::Conflict(a, b) => write!(f, "{a} does not go with {b}"),
            ArgError::Unwritable { path, reason } => {
                write!(f, "cannot create --json {path:?}: {reason}")
            }
        }
    }
}

/// `v`, given for `arg`, parsed as a `T` that `ok` accepts.
fn checked<T: FromStr>(
    arg: &'static str,
    v: &str,
    expected: &'static str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, ArgError> {
    match v.parse() {
        Ok(x) if ok(&x) => Ok(x),
        _ => Err(ArgError::BadValue {
            arg,
            value: v.to_string(),
            expected,
        }),
    }
}

/// The value after `flag`, parsed as a `T` that `ok` accepts.
pub fn value<T: FromStr>(
    flag: &'static str,
    next: Option<String>,
    expected: &'static str,
    ok: impl Fn(&T) -> bool,
) -> Result<T, ArgError> {
    let v = next.ok_or(ArgError::MissingValue(flag))?;
    checked(flag, &v, expected, ok)
}

/// Parsed common options.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonArgs {
    /// Run options derived from the flags.
    pub opts: RunOptions,
    /// Emit CSV in addition to the aligned table.
    pub csv: bool,
    /// Remaining positional arguments.
    pub rest: Vec<String>,
}

/// Parse an argument list (excluding the program name).
///
/// Unknown flags cause an error; `--help` returns the supported set.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, ArgError> {
    let mut opts = RunOptions::default();
    let mut csv = false;
    let mut rest = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            // `nan` and `inf` parse as f64; neither is a budget.
            "--scale" => {
                opts.scale = value(
                    "--scale",
                    iter.next(),
                    "a positive finite number",
                    |s: &f64| s.is_finite() && *s > 0.0,
                )?
            }
            "--quick" => opts.scale = 0.1,
            "--seed" => opts.seed = value("--seed", iter.next(), SEED, |_| true)?,
            "--csv" => csv = true,
            "--help" | "-h" => {
                return Err(ArgError::Help(
                    "flags: --scale <f> (default 1.0), --quick (= --scale 0.1), \
                     --seed <n>, --csv",
                ))
            }
            other if other.starts_with("--") => return Err(ArgError::Unexpected(arg)),
            _ => rest.push(arg),
        }
    }
    // Deadlines scale with the budget so truncation never distorts results.
    opts.deadline_s = (600.0 * opts.scale).max(120.0);
    Ok(CommonArgs { opts, csv, rest })
}

/// No positionals at all.
pub fn none(rest: &[String]) -> Result<(), ArgError> {
    match rest.first() {
        Some(arg) => Err(ArgError::Unexpected(arg.clone())),
        None => Ok(()),
    }
}

/// Paper workload numbers, each an integer in 1..=16; no positionals
/// select `default`.
pub fn workload_numbers(rest: &[String], default: &[usize]) -> Result<Vec<usize>, ArgError> {
    if rest.is_empty() {
        return Ok(default.to_vec());
    }
    let paper = |n: &usize| (1..=16).contains(n);
    rest.iter()
        .map(|s| checked("workload", s, "an integer in 1..=16", paper))
        .collect()
}

/// At most one positional: Figure 5's workloads per class, an integer
/// of at least 1; none selects `default`.
pub fn per_class(rest: &[String], default: usize) -> Result<usize, ArgError> {
    match rest {
        [] => Ok(default),
        [s] => checked("workloads per class", s, AT_LEAST_ONE, |&n| n >= 1),
        [_, extra, ..] => Err(ArgError::Unexpected(extra.clone())),
    }
}

/// Print `e` and exit with status 2, or hand back the value.
pub fn or_exit<T>(r: Result<T, ArgError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Parse the common flags from the process environment and the
/// positionals through `positionals` (say [`none`] or
/// [`workload_numbers`]); on an error print it and exit with status 2.
pub fn from_env<T>(positionals: impl FnOnce(&[String]) -> Result<T, ArgError>) -> (CommonArgs, T) {
    or_exit(parse(std::env::args().skip(1)).and_then(|a| {
        let p = positionals(&a.rest)?;
        Ok((a, p))
    }))
}

/// `print!` through [`write_stdout`].
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` through [`write_stdout`].
#[macro_export]
macro_rules! outln {
    () => {
        $crate::cli::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::cli::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Set once a reader has closed stdout. It publishes no other data.
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write `args` to stdout. A closed stdout ends the output: this write
/// and every later one are dropped, and the run goes on, so a `--json`
/// file is still written. Any other write error is printed and the
/// process exits with status 1.
pub fn write_stdout(args: fmt::Arguments<'_>) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        match stdout_error_exit(&e) {
            None => STDOUT_CLOSED.store(true, Ordering::Relaxed),
            Some(status) => std::process::exit(status),
        }
    }
}

/// What a failed stdout write does: nothing when the reader closed the
/// pipe (`None`, the output ends there), otherwise print the error and
/// exit with status 1.
fn stdout_error_exit(e: &std::io::Error) -> Option<i32> {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        None
    } else {
        eprintln!("cannot write to stdout: {e}");
        Some(1)
    }
}

/// A `--json` output file, created while the flags are parsed, so a path
/// that cannot be written fails before the run rather than after it.
#[derive(Debug)]
pub struct JsonOut {
    path: String,
    file: std::fs::File,
}

impl JsonOut {
    /// Create (or truncate) the file at `path`.
    pub fn create(path: String) -> Result<JsonOut, ArgError> {
        match std::fs::File::create(&path) {
            Ok(file) => Ok(JsonOut { path, file }),
            Err(e) => Err(ArgError::Unwritable {
                path,
                reason: e.to_string(),
            }),
        }
    }

    /// Write `value` as one line of JSON and report the path. A failed
    /// write prints the path and the reason and exits with status 1.
    pub fn write(mut self, value: &impl ToJson) {
        let line = value.to_json() + "\n";
        if let Err(e) = self.file.write_all(line.as_bytes()) {
            eprintln!("cannot write --json {:?}: {e}", self.path);
            std::process::exit(1);
        }
        crate::outln!("wrote {}", self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn a_closed_stdout_ends_the_output_and_other_errors_exit_one() {
        use std::io::{Error, ErrorKind};
        assert_eq!(stdout_error_exit(&Error::from(ErrorKind::BrokenPipe)), None);
        assert_eq!(
            stdout_error_exit(&Error::from(ErrorKind::StorageFull)),
            Some(1)
        );
        assert_eq!(stdout_error_exit(&Error::other("device gone")), Some(1));
    }

    #[test]
    fn defaults_are_paper_scale() {
        let a = parse(args(&[])).unwrap();
        assert_eq!(a.opts.scale, 1.0);
        assert!(!a.csv);
        assert!(a.rest.is_empty());
    }

    #[test]
    fn flags_parse() {
        let a = parse(args(&["--scale", "0.25", "--seed", "7", "--csv", "extra"])).unwrap();
        assert_eq!(a.opts.scale, 0.25);
        assert_eq!(a.opts.seed, 7);
        assert!(a.csv);
        assert_eq!(a.rest, vec!["extra"]);
        let q = parse(args(&["--quick"])).unwrap();
        assert_eq!(q.opts.scale, 0.1);
    }

    #[test]
    fn errors_on_nonsense() {
        assert_eq!(
            parse(args(&["--scale"])),
            Err(ArgError::MissingValue("--scale"))
        );
        assert!(parse(args(&["--scale", "abc"])).is_err());
        assert!(parse(args(&["--scale", "-1"])).is_err());
        for v in ["nan", "inf", "-inf"] {
            assert!(parse(args(&["--scale", v])).is_err(), "--scale {v}");
        }
        assert!(parse(args(&["--seed", "-3"])).is_err());
        assert_eq!(
            parse(args(&["--bogus"])),
            Err(ArgError::Unexpected("--bogus".into()))
        );
        assert!(matches!(parse(args(&["--help"])), Err(ArgError::Help(_))));
    }

    #[test]
    fn errors_name_the_bad_value() {
        let e = parse(args(&["--scale", "abc"])).unwrap_err();
        assert_eq!(
            e.to_string(),
            "bad --scale \"abc\": expected a positive finite number"
        );
        let e = workload_numbers(&args(&["17"]), &[1]).unwrap_err();
        assert_eq!(
            e.to_string(),
            "bad workload \"17\": expected an integer in 1..=16"
        );
        let e = per_class(&args(&["2", "x"]), 2).unwrap_err();
        assert_eq!(e.to_string(), "unexpected argument \"x\"; try --help");
        let e = ArgError::Conflict("--json", "--soak");
        assert_eq!(e.to_string(), "--json does not go with --soak");
    }

    #[test]
    fn deadline_scales_with_budget() {
        let a = parse(args(&["--scale", "0.5"])).unwrap();
        assert_eq!(a.opts.deadline_s, 300.0);
        let b = parse(args(&["--scale", "0.05"])).unwrap();
        assert_eq!(b.opts.deadline_s, 120.0);
    }

    #[test]
    fn workload_numbers_are_paper_workloads() {
        assert_eq!(workload_numbers(&[], &[1, 9, 13]), Ok(vec![1, 9, 13]));
        assert_eq!(
            workload_numbers(&args(&["1", "9", "13"]), &[2]),
            Ok(vec![1, 9, 13])
        );
        assert_eq!(workload_numbers(&args(&["16"]), &[2]), Ok(vec![16]));
        for bad in ["0", "17", "x", "-1", "1.5", ""] {
            assert_eq!(
                workload_numbers(&args(&["3", bad]), &[1]),
                Err(ArgError::BadValue {
                    arg: "workload",
                    value: bad.into(),
                    expected: "an integer in 1..=16",
                }),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn per_class_is_one_count_of_at_least_one() {
        assert_eq!(per_class(&[], 2), Ok(2));
        assert_eq!(per_class(&args(&["6"]), 2), Ok(6));
        for bad in ["0", "x", "-2", "2.5"] {
            assert!(
                matches!(
                    per_class(&args(&[bad]), 2),
                    Err(ArgError::BadValue { value, .. }) if value == bad
                ),
                "{bad:?}"
            );
        }
        assert_eq!(
            per_class(&args(&["2", "3"]), 2),
            Err(ArgError::Unexpected("3".into()))
        );
    }

    #[test]
    fn binaries_without_positionals_reject_them() {
        assert_eq!(none(&[]), Ok(()));
        assert_eq!(
            none(&args(&["WL1"])),
            Err(ArgError::Unexpected("WL1".into()))
        );
    }

    #[test]
    fn json_out_is_created_at_parse_time() {
        let dir = std::env::temp_dir().join(format!("dike-cli-{}", std::process::id()));
        let missing = dir.join("no-such-dir").join("r.json");
        let path = missing.to_string_lossy().into_owned();
        match JsonOut::create(path.clone()) {
            Err(ArgError::Unwritable { path: p, reason }) => {
                assert_eq!(p, path);
                assert!(!reason.is_empty());
            }
            other => panic!("{other:?}"),
        }
        std::fs::create_dir_all(&dir).unwrap();
        let ok = dir.join("r.json");
        let out = JsonOut::create(ok.to_string_lossy().into_owned()).unwrap();
        assert_eq!(std::fs::read_to_string(&ok).unwrap(), "", "created empty");
        out.write(&vec![1u32, 2]);
        assert_eq!(std::fs::read_to_string(&ok).unwrap(), "[1,2]\n");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
