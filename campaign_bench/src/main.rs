//! Command-line front end of the EquiTLS benchmark; see `README.md`.

use equitls_campaign_bench::child::{self, Iteration};
use equitls_campaign_bench::compare::compare;
use equitls_campaign_bench::run::{run, RunArgs};
use equitls_campaign_bench::Workload;
use std::path::PathBuf;

const USAGE: &str = "usage:
  equitls-campaign-bench --workload <prove|serve|check|check_spill> [--seed N] [--seconds S]
                         [--trace 0|1] [--smoke] [--record FILE]
  equitls-campaign-bench --compare A.jsonl B.jsonl";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match parse(&args) {
        Ok(Mode::Run(r)) => run(&r),
        Ok(Mode::Child(it)) => child::main(&it),
        Ok(Mode::Compare { a, b }) => compare(&a, &b),
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

enum Mode {
    Run(RunArgs),
    /// One iteration in a child process; started by a run, not by hand.
    Child(Iteration),
    Compare {
        a: PathBuf,
        b: PathBuf,
    },
}

fn parse(args: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut child = None;
    let mut kind = String::new();
    let mut seed = 1;
    let mut index = 0;
    let mut seconds = 30.0;
    let mut trace = false;
    let mut smoke = false;
    let mut record = None;
    let mut sets = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload_named = |name: String| {
            Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))
        };
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: `{v}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(workload_named(value()?)?),
            "--child" => child = Some(workload_named(value()?)?),
            "--kind" => kind = value()?,
            "--seed" => seed = number(value()?)?,
            "--index" => index = number(value()?)?,
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0)
                    .ok_or_else(|| format!("--seconds: `{v}` is not a positive number"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: `{other}` is not 0 or 1")),
                }
            }
            "--smoke" => smoke = true,
            "--record" => record = Some(PathBuf::from(value()?)),
            "--compare" => sets = Some((PathBuf::from(value()?), PathBuf::from(value()?))),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    match (workload, child, sets) {
        (Some(workload), None, None) => Ok(Mode::Run(RunArgs {
            workload,
            seed,
            seconds,
            trace,
            smoke,
            record,
        })),
        (None, Some(workload), None) if workload.kinds().contains(&kind.as_str()) => {
            Ok(Mode::Child(Iteration {
                workload,
                kind,
                seed,
                index,
                traced: trace,
                smoke,
            }))
        }
        (None, None, Some((a, b))) => Ok(Mode::Compare { a, b }),
        _ => Err("give exactly one of --workload or --compare".to_string()),
    }
}
