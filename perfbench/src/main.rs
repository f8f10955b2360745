//! `slif-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. Exits nonzero when any
//! output failed its oracle. Traced runs also write their spans to
//! `perfbench/out/spans-<workload>-seed<n>.jsonl`.

use slif_perfbench::{reported_metrics, result_json, run, Config, Sizes, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

fn usage(problem: &str) -> ExitCode {
    eprintln!("{problem}");
    eprintln!(
        "usage: slif-perfbench --workload <pipeline_cold|edit_session|explore_anneal|serve_mixed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return usage("every flag takes a value");
        };
        match flag.as_str() {
            "--workload" => workload = Workload::from_name(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return usage(&format!("unknown flag {flag}")),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return usage("missing or invalid flag value");
    };
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        sizes: Sizes::full(),
        plant: None,
        work_dir: out_dir.join(format!("{}-{}", workload.name(), std::process::id())),
    };
    let out = run(&cfg);
    if trace {
        let path = out_dir.join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
        if let Err(e) = std::fs::write(&path, out.tracer.to_jsonl()) {
            eprintln!("could not write spans to {}: {e}", path.display());
        }
    }
    for line in &out.summary {
        println!("{line}");
    }
    for problem in &out.failures {
        println!("FAILED: {problem}");
    }
    let metrics = reported_metrics(&cfg, &out);
    println!("{}", result_json(&out, &metrics));
    if out.failed == 0 && out.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
