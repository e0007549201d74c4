//! Tiny shared argument parsing for the experiment binaries.
//!
//! Every binary accepts:
//!
//! * `--scale <f>` — instruction-budget scale (default 1.0 = paper scale);
//! * `--quick`     — shorthand for `--scale 0.1`;
//! * `--seed <n>`  — machine seed (default 42);
//! * `--csv`       — also print tables as CSV.

use crate::runner::RunOptions;

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
/// Unknown flags cause an error message describing the supported set.
pub fn parse(args: impl IntoIterator<Item = String>) -> Result<CommonArgs, String> {
    let mut opts = RunOptions::default();
    let mut csv = false;
    let mut rest = Vec::new();
    let mut iter = args.into_iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let v = iter.next().ok_or("--scale needs a value")?;
                opts.scale = v
                    .parse()
                    .map_err(|e| format!("bad --scale value {v:?}: {e}"))?;
                // `nan` and `inf` parse as f64; neither is a budget.
                if !(opts.scale.is_finite() && opts.scale > 0.0) {
                    return Err("--scale must be positive and finite".into());
                }
            }
            "--quick" => opts.scale = 0.1,
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                opts.seed = v
                    .parse()
                    .map_err(|e| format!("bad --seed value {v:?}: {e}"))?;
            }
            "--csv" => csv = true,
            "--help" | "-h" => {
                return Err(
                    "flags: --scale <f> (default 1.0), --quick (= --scale 0.1), \
                     --seed <n>, --csv"
                        .into(),
                )
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other}; try --help"))
            }
            other => rest.push(other.to_string()),
        }
    }
    // Deadlines scale with the budget so truncation never distorts results.
    opts.deadline_s = (600.0 * opts.scale).max(120.0);
    Ok(CommonArgs { opts, csv, rest })
}

/// Parse from the process environment.
pub fn from_env() -> CommonArgs {
    match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
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
        assert!(parse(args(&["--scale"])).is_err());
        assert!(parse(args(&["--scale", "abc"])).is_err());
        assert!(parse(args(&["--scale", "-1"])).is_err());
        for v in ["nan", "inf", "-inf"] {
            assert!(parse(args(&["--scale", v])).is_err(), "--scale {v}");
        }
        assert!(parse(args(&["--bogus"])).is_err());
        assert!(parse(args(&["--help"])).is_err());
    }

    #[test]
    fn deadline_scales_with_budget() {
        let a = parse(args(&["--scale", "0.5"])).unwrap();
        assert_eq!(a.opts.deadline_s, 300.0);
        let b = parse(args(&["--scale", "0.05"])).unwrap();
        assert_eq!(b.opts.deadline_s, 120.0);
    }
}
