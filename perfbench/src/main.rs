//! Command line of the BREW benchmark:
//!
//! ```text
//! brew-perfbench --workload <cold_publish|hot_dispatch|kernel_run>
//!                --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--seconds` defaults to 30, the run length the bounds in
//! `BENCHMARK.json` were measured at. Prints a metric table with units
//! and sample counts, then as its last line one JSON object with
//! `correct`, `attempted`, `failed` and the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits with 1
//! when any output was wrong. A traced run also writes its spans as
//! chrome-trace JSON under `.bench_trace/` in the working directory.

use brew_perfbench::{run, Config, Workload, END_TO_END, PER_LAYER};
use std::process::ExitCode;

fn usage(msg: &str) -> ExitCode {
    eprintln!("brew-perfbench: {msg}");
    eprintln!(
        "usage: brew-perfbench --workload <cold_publish|hot_dispatch|kernel_run> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 30.0f64, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(val) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => match Workload::parse(val) {
                Some(w) => workload = Some(w),
                None => return usage(&format!("unknown workload `{val}`")),
            },
            "--seed" => match val.parse() {
                Ok(s) => seed = s,
                Err(_) => return usage(&format!("bad seed `{val}`")),
            },
            "--seconds" => match val.parse::<f64>() {
                Ok(s) if s > 0.0 && s <= 600.0 => seconds = s,
                _ => return usage(&format!("bad seconds `{val}`")),
            },
            "--trace" => match val.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(&format!("bad trace `{val}`")),
            },
            _ => return usage(&format!("unknown flag `{flag}`")),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };

    let out = run(&Config::new(workload, seed, seconds, trace));
    let names: &[&str] = if trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "# {} seed={seed} seconds={seconds} trace={}",
        workload.name(),
        u8::from(trace)
    );
    print!("{}", out.report.table(names));
    if let Some(log) = &out.trace {
        println!("{}", brew_perfbench::layer_table(&out.report));
        let dir = std::path::Path::new(".bench_trace");
        let path = dir.join(format!("{}-{seed}.json", workload.name()));
        match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, log.chrome_json())) {
            Ok(()) => println!("# spans: {} written to {}", log.len(), path.display()),
            Err(e) => eprintln!("brew-perfbench: cannot write {}: {e}", path.display()),
        }
    }
    println!("{}", out.report.json_line(names));
    if out.report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
