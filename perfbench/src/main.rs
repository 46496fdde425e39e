//! Command line of the benchmark:
//!
//! `turbo-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  [--size full|smoke] [--out-dir <dir>]`
//!
//! Prints the report line, then the result line (last), and exits 0.
//! Exits 2 on a usage error.

use turbo_perfbench::{Opts, Size, Workload};

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::DecodeLongGqa,
        seed: 0,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        out_dir: None,
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("bad {what}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(|| bad("workload"))?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad("seed"))?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| bad("seconds"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err(bad("seconds"));
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("trace")),
                }
            }
            "--size" => {
                opts.size = match value.as_str() {
                    "full" => Size::Full,
                    "smoke" => Size::Smoke,
                    _ => return Err(bad("size")),
                }
            }
            "--out-dir" => opts.out_dir = Some(value.into()),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("turbo-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut outcome = turbo_perfbench::run(&opts);
    if let Some(dir) = &opts.out_dir {
        if let Err(e) = turbo_perfbench::write_spans(&outcome, &opts, dir) {
            eprintln!("turbo-perfbench: writing spans: {e}");
        }
    }
    // The result line runs the last checks, so the report follows it.
    let result = outcome.result_line(opts.trace);
    println!("{}", outcome.report_line(&opts));
    println!("{result}");
}
