//! Command-line entry point of the repository benchmark; see the library
//! docs for what is measured.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]
//! ```

use std::process::ExitCode;

use perfbench::{catalog, run, Options, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <inmem-u64|ooc-tera|service-epochs> \
                     --seed <n> --seconds <s> --trace <0|1> [--scale full|tiny]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::Full;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--scale" => {
                scale = match value.as_str() {
                    "full" => Scale::Full,
                    "tiny" => Scale::Tiny,
                    _ => return Err(bad("full or tiny")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let mut opts = Options::new(workload.ok_or("--workload is required")?);
    opts.seed = seed.ok_or("--seed is required")?;
    opts.seconds = seconds.ok_or("--seconds is required")?;
    opts.trace = trace.ok_or("--trace is required")?;
    opts.scale = scale;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    println!("provenance: {}", outcome.provenance_json());
    for note in &outcome.notes {
        println!("{note}");
    }
    for (def, value) in outcome.declared(opts.trace) {
        println!("{:<36} {:>18.6} {}", def.name, value, def.unit);
    }
    debug_assert!(catalog::for_mode(opts.trace).iter().all(|d| catalog::valid_name(d.name)));
    println!("{}", outcome.json_line(opts.trace));
    ExitCode::SUCCESS
}
