//! `wcq-benchmark`: see `benchmark/README.md`.  Run it through
//! `benchmark/run.sh`, which builds it first.

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use wcq_benchmark::compare;
use wcq_benchmark::json;
use wcq_benchmark::names::{benchmark_json, RUN_SECONDS};
use wcq_benchmark::report;
use wcq_benchmark::run::{run_traced, run_untraced, RunConfig, RunResult};
use wcq_benchmark::workloads::Workload;
use wcq_harness::memtrack::CountingAllocator;

// Heap metrics come from the harness's counting allocator.
#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

const USAGE: &str = "usage:
  wcq-benchmark [--workload NAME] [--seed N] [--seconds S] [--smoke] [--out DIR]
      every workload (or NAME), untraced then traced; writes DIR/result.json
      and DIR/trace-<workload>.jsonl; exits non-zero if any operation failed
  wcq-benchmark --workload NAME --trace 0|1 [--seed N] [--seconds S] [--smoke] [--out DIR]
      one run; the last line of stdout is {\"correct\",\"attempted\",\"failed\",\"metrics\"}
  wcq-benchmark --compare A.json B.json
      applies each metric's bound per workload; exits non-zero unless all rows are ok
  wcq-benchmark --print-benchmark-json
workloads: pairs_1t batch_1t burst_1t empty_1t echo_2t paced_2t";

/// Longest run the command line accepts (the contract's cap is 60).
const MAX_SECONDS: f64 = 600.0;

/// Seconds per run under `--smoke` unless `--seconds` says otherwise: twelve
/// runs (six workloads, untraced and traced) in under ten seconds.
const SMOKE_SECONDS: f64 = 0.3;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    out_dir: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
    print_benchmark_json: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: None,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
        compare: None,
        print_benchmark_json: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                if name != "all" {
                    args.workload =
                        Some(Workload::from_name(name).ok_or(format!("unknown workload {name}"))?);
                }
            }
            "--seed" => {
                args.seed = value("a whole number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number".to_string())?;
                if !(seconds > 0.0 && seconds <= MAX_SECONDS) {
                    return Err(format!("--seconds must be in (0, {MAX_SECONDS}]"));
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = Some(match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                });
            }
            "--smoke" => args.smoke = true,
            "--out" => args.out_dir = PathBuf::from(value("a directory")?),
            "--compare" => {
                let a = PathBuf::from(value("two files")?);
                let b = PathBuf::from(value("two files")?);
                args.compare = Some((a, b));
            }
            "--print-benchmark-json" => args.print_benchmark_json = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.trace.is_some() && args.workload.is_none() {
        return Err("--trace needs a single --workload".to_string());
    }
    Ok(args)
}

fn load(path: &PathBuf) -> Result<json::Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_compare(a: &PathBuf, b: &PathBuf) -> Result<bool, String> {
    let rows = compare::compare(&load(a)?, &load(b)?)?;
    println!("A = {}   B = {}", a.display(), b.display());
    compare::print_rows(&mut std::io::stdout(), &rows).map_err(|e| e.to_string())
}

fn config(args: &Args, workload: Workload) -> RunConfig {
    RunConfig {
        workload,
        seed: args.seed,
        seconds: args.seconds.unwrap_or(if args.smoke {
            SMOKE_SECONDS
        } else {
            RUN_SECONDS as f64
        }),
        smoke: args.smoke,
        out_dir: args.out_dir.clone(),
    }
}

/// Writes `doc` to `name` under `--out`, creating the directory.
fn write_json(args: &Args, name: &str, doc: &json::Value) -> Result<PathBuf, String> {
    let path = args.out_dir.join(name);
    std::fs::create_dir_all(&args.out_dir)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|mut file| file.write_all(doc.render_pretty().as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

/// One run for the driver: the table on stderr, the contract's line on
/// stdout.
fn run_one(args: &Args, workload: Workload, traced: bool) -> Result<bool, String> {
    let cfg = config(args, workload);
    let result = if traced {
        run_traced(&cfg)
    } else {
        run_untraced(&cfg)
    };
    report::print_run(&mut std::io::stderr(), &result, traced).map_err(|e| e.to_string())?;
    // The contract's line carries medians only; keep the repetitions too.
    let detail = report::run_json(&result, traced);
    let name = format!("run-{}-trace{}.json", workload.name(), u8::from(traced));
    write_json(args, &name, &detail)?;
    println!("{}", result.contract_json().render());
    Ok(result.correct)
}

/// Every selected workload, untraced then traced; tables on stdout.
fn run_set(args: &Args) -> Result<bool, String> {
    let selected: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let mut out = std::io::stdout();
    let mut entries = Vec::new();
    let mut all_correct = true;
    let seconds = config(args, selected[0]).seconds;
    for workload in selected {
        let cfg = config(args, workload);
        let untraced: RunResult = run_untraced(&cfg);
        report::print_run(&mut out, &untraced, false).map_err(|e| e.to_string())?;
        let traced = run_traced(&cfg);
        report::print_run(&mut out, &traced, true).map_err(|e| e.to_string())?;
        all_correct &= untraced.correct && traced.correct;
        entries.push((
            workload.name().to_string(),
            report::workload_json(&untraced, &traced),
        ));
    }
    let doc = report::result_json(args.seed, seconds, args.smoke, entries);
    let path = write_json(args, "result.json", &doc)?;
    println!("wrote {}", path.display());
    if !all_correct {
        println!("FAILED: failed_ops_pct is not 0 on every workload");
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("error: {message}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.print_benchmark_json {
        print!("{}", benchmark_json().render_pretty());
        Ok(true)
    } else if let Some((a, b)) = &args.compare {
        run_compare(a, b)
    } else if let (Some(workload), Some(traced)) = (args.workload, args.trace) {
        run_one(&args, workload, traced)
    } else {
        run_set(&args)
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::from(2)
        }
    }
}
