//! The reproduction's one benchmark. See `README.md` beside `Cargo.toml`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one contract run
//! benchmark --all    [--seed N] [--seconds S] [--out results.json]
//! benchmark --traced [--seed N] [--seconds S] [--out layers.json] [--trace-out trace.json]
//! benchmark compare A.json B.json
//! ```

mod compare;
mod host;
mod json;
mod layers;
mod measure;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workloads;

use json::{obj, Value};
use std::process::ExitCode;
use workloads::Workload;

#[global_allocator]
static ALLOCATOR: trace::CountingAlloc = trace::CountingAlloc;

/// The seed the committed numbers were taken at; `7` is the held-out one.
const DEFAULT_SEED: u64 = 2015;
/// Timed seconds per workload (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Children per workload in a contract run: three set-up samples.
const CONTRACT_ROUNDS: usize = 3;
/// Rounds of `--all`, each running every workload once.
const ALL_ROUNDS: usize = 4;

/// Command-line flags: `--name value` pairs plus bare words.
struct Args {
    words: Vec<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            words: Vec::new(),
            flags: Vec::new(),
        };
        let mut raw = raw.peekable();
        while let Some(arg) = raw.next() {
            match arg.strip_prefix("--") {
                Some(name) if matches!(name, "all" | "traced") => {
                    args.flags.push((name.to_owned(), String::new()));
                }
                Some(name) => {
                    let value = raw
                        .next()
                        .ok_or_else(|| format!("--{name} needs a value"))?;
                    args.flags.push((name.to_owned(), value));
                }
                None => args.words.push(arg),
            }
        }
        Ok(args)
    }

    fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.text(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn workload(&self) -> Result<&'static Workload, String> {
        let name = self.text("workload").ok_or("--workload is required")?;
        workloads::by_name(name).ok_or_else(|| {
            let known: Vec<&str> = workloads::ALL.iter().map(|w| w.name).collect();
            format!("unknown workload {name:?}; known: {}", known.join(", "))
        })
    }
}

fn write_file(path: &str, doc: &Value) -> Result<(), String> {
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))
}

fn read_json(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// One contract run: a single workload, the result object as the last
/// line of standard output. Exits 0 whenever a result was produced; the
/// verdict is the `correct` field.
fn contract_run(args: &Args) -> Result<bool, String> {
    let w = args.workload()?;
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    if args.number("trace", 0u8)? == 0 {
        let result = measure::measure_set(&[w], seed, seconds, CONTRACT_ROUNDS)?.remove(0);
        result.print_table();
        println!("{}", result.contract_line());
    } else {
        let run = layers::traced_run(w, seed, seconds)?;
        run.print_table();
        if let Some(path) = args.text("trace-out") {
            write_file(path, &run.tracer.to_json(w.name))?;
        }
        if let Some(path) = args.text("out") {
            write_file(path, &run.to_json())?;
        }
        println!("{}", run.contract_line());
    }
    Ok(true)
}

/// `--all`: every workload, rounds interleaved, every end-to-end and
/// fidelity metric by name. False when any check failed.
fn all_run(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let all: Vec<&'static Workload> = workloads::ALL.iter().collect();
    let results = measure::measure_set(&all, seed, seconds, ALL_ROUNDS)?;
    for result in &results {
        result.print_table();
    }
    let doc = obj([
        ("host", host::describe()),
        ("seed", Value::Int(seed)),
        ("seconds_per_workload", Value::Num(seconds)),
        ("rounds", Value::Int(ALL_ROUNDS as u64)),
        (
            "workloads",
            obj(results.iter().map(|r| (r.workload, r.to_json()))),
        ),
    ]);
    if let Some(path) = args.text("out") {
        write_file(path, &doc)?;
    }
    println!(
        "host: {}",
        doc.get("host").map_or(String::new(), Value::to_line)
    );
    Ok(results.iter().all(|r| r.correct))
}

/// `--traced`: the per-layer metrics of every workload, plus the spans
/// as `trace.json`. The timing references inside each traced run still
/// come from fresh untraced children.
fn traced_all(args: &Args) -> Result<bool, String> {
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let mut layers = Vec::new();
    let mut traces = Vec::new();
    let mut correct = true;
    for w in &workloads::ALL {
        let run = layers::traced_run(w, seed, seconds)?;
        run.print_table();
        correct &= run.correct;
        traces.push(run.tracer.to_json(w.name));
        layers.push((w.name, run.to_json()));
    }
    let doc = obj([
        ("host", host::describe()),
        ("seed", Value::Int(seed)),
        ("workloads", obj(layers)),
    ]);
    if let Some(path) = args.text("out") {
        write_file(path, &doc)?;
    }
    write_file(
        args.text("trace-out").unwrap_or("trace.json"),
        &Value::Arr(traces),
    )?;
    println!(
        "host: {}",
        doc.get("host").map_or(String::new(), Value::to_line)
    );
    Ok(correct)
}

fn run(args: &Args) -> Result<bool, String> {
    match args.words.first().map(String::as_str) {
        Some("child") => {
            measure::child_main(
                args.workload()?,
                args.number("seed", DEFAULT_SEED)?,
                args.number("budget-s", 0.0)?,
                args.number("threads", 1)?,
            );
            Ok(true)
        }
        Some("compare") => match &args.words[1..] {
            [a, b] => {
                let rows = compare::compare(&read_json(a)?, &read_json(b)?)?;
                Ok(compare::print_rows(&rows))
            }
            _ => Err("usage: benchmark compare A.json B.json".to_owned()),
        },
        Some("manifest") => {
            print!("{}", metrics::manifest(DEFAULT_SECONDS as u64).to_pretty());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other:?}")),
        None if args.has("all") => all_run(args),
        None if args.has("traced") => traced_all(args),
        None => contract_run(args),
    }
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| run(&args));
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("benchmark: {why} (usage: benchmark/README.md)");
            ExitCode::from(2)
        }
    }
}
