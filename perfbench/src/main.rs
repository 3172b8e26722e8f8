//! The popqc benchmark harness.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 --popqc PATH
//! perfbench replay-compile --width W --in DIR --out DIR
//! ```
//!
//! The first form runs one workload against the release `popqc` binary
//! (`--trace 0`, end-to-end metrics) or replays its inputs in-process
//! through each layer's public functions (`--trace 1`, per-layer
//! metrics), and prints one JSON result line last. The second form is
//! the traced compile replay at one engine width, run as a child process
//! so that a crash at width > 1 cannot end the benchmark.

mod check;
mod compile;
mod layers;
mod serve;
mod util;

use std::path::PathBuf;
use util::die;

/// Options common to every workload.
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub popqc: PathBuf,
    /// This binary, re-executed for the traced compile replay.
    pub perfbench: PathBuf,
}

/// The eight paper families at the given rung of `Family::ladder(0)`.
pub fn paper_inputs(rung: usize) -> Vec<(popqc::prelude::Family, u32)> {
    popqc::prelude::Family::PAPER
        .iter()
        .map(|&f| (f, f.ladder(0)[rung]))
        .collect()
}

/// Engine width `nproc`.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> &'a str {
    flag(args, name).unwrap_or_else(|| die(format!("{name} is required")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("replay-compile") {
        let width = required(&args, "--width")
            .parse()
            .unwrap_or_else(|_| die("bad --width"));
        compile::replay_child(
            width,
            &PathBuf::from(required(&args, "--in")),
            &PathBuf::from(required(&args, "--out")),
        );
        return;
    }
    let opts = Opts {
        workload: required(&args, "--workload").to_string(),
        seed: required(&args, "--seed")
            .parse()
            .unwrap_or_else(|_| die("bad --seed")),
        seconds: required(&args, "--seconds")
            .parse()
            .unwrap_or_else(|_| die("bad --seconds")),
        trace: match required(&args, "--trace") {
            "0" => false,
            "1" => true,
            other => die(format!("bad --trace `{other}` (0 or 1)")),
        },
        popqc: PathBuf::from(required(&args, "--popqc")),
        perfbench: std::env::current_exe().unwrap_or_else(|e| die(e)),
    };
    if !opts.popqc.is_file() {
        die(format!("no popqc binary at {}", opts.popqc.display()));
    }
    let outcome = match opts.workload.as_str() {
        "compile_w1" => compile::run(&opts, 1),
        "compile_wmax" => compile::run(&opts, nproc()),
        "serve_hit" => serve::run(&opts, false),
        "serve_sweep" => serve::run(&opts, true),
        other => die(format!(
            "unknown workload `{other}` (compile_w1, compile_wmax, serve_hit, serve_sweep)"
        )),
    };
    println!("{}", outcome.to_json_line());
}
