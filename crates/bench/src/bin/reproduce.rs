//! Regenerates every table and figure of the paper's evaluation.
//!
//! ```text
//! reproduce <id>... [--full] [--write <path>] [--metrics <path>] [--trace <path>]
//!   ids: see `reproduce --help` (driven by `experiments::CATALOG`),
//!        or `all` to run everything
//!   --full     accuracy task sets at paper sizes (slow)
//!   --write    also write the combined markdown to <path>
//!   --metrics  write Prometheus metrics for the first serving id to <path>
//!   --trace    write a Chrome trace for the first serving id to <path>
//! ```
//!
//! `--metrics` / `--trace` run one traced, representative configuration
//! of the first selected serving-capable id (see
//! `dfx_bench::observability::SERVING_IDS`) and validate both dumps
//! in-process before writing; every timestamp is simulated time, so the
//! files are bit-identical across runs.

use dfx_bench::experiments::CATALOG;
use dfx_bench::observability::{self, SERVING_IDS};
use dfx_bench::table::ExperimentReport;

/// Runs one experiment; this is the one place an experiment error is
/// handled: it is reported and the process exits 1.
fn run_one(id: &str, full: bool) -> ExperimentReport {
    // Dispatch through the catalog, so an id cannot exist without a
    // runner (and vice versa).
    match CATALOG.iter().find(|e| e.id == id) {
        Some(e) => (e.run)(full).unwrap_or_else(|e| {
            eprintln!("[reproduce] {id} failed: {e}");
            std::process::exit(1);
        }),
        None => {
            eprintln!("unknown experiment `{id}`; known ids:");
            eprint_catalog();
            std::process::exit(2);
        }
    }
}

fn eprint_catalog() {
    let width = CATALOG.iter().map(|e| e.id.len()).max().unwrap_or(0);
    for e in CATALOG {
        eprintln!("  {:width$}  {}", e.id, e.what);
    }
    eprintln!("  {:width$}  every id above, in order", "all");
}

fn usage() {
    eprintln!(
        "usage: reproduce <id|all>... [--full] [--write <path>] [--metrics <path>] \
         [--trace <path>]"
    );
    eprintln!("  --full     accuracy task sets at paper sizes (slow)");
    eprintln!("  --write    also write the combined markdown to <path>");
    eprintln!("  --metrics  write Prometheus metrics for the first serving id to <path>");
    eprintln!("  --trace    write a Chrome trace for the first serving id to <path>");
    eprintln!("known ids:");
    eprint_catalog();
}

/// Writes `contents` to `path`; the error names the path and the I/O
/// failure.
fn write_output(path: &str, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {path}: {e}"))
}

/// [`write_output`], reporting a failure and exiting 1.
fn write_or_exit(path: &str, contents: &str) {
    if let Err(e) = write_output(path, contents) {
        eprintln!("[reproduce] {e}");
        std::process::exit(1);
    }
}

/// Captures and writes the telemetry dumps for the first serving-capable
/// id among `selected`. Exits nonzero if no serving id was selected,
/// the capture fails its in-process validation or a file cannot be
/// written.
fn write_observability(
    selected: &[&str],
    full: bool,
    metrics_path: Option<&str>,
    trace_path: Option<&str>,
) {
    let Some(id) = selected.iter().find(|id| SERVING_IDS.contains(id)) else {
        eprintln!(
            "[reproduce] --metrics/--trace need a serving id; known serving ids: {SERVING_IDS:?}"
        );
        std::process::exit(2);
    };
    eprintln!("[reproduce] capturing telemetry for {id}...");
    let dump = match observability::capture(id, full) {
        Ok(dump) => dump,
        Err(e) => {
            eprintln!("[reproduce] telemetry capture for {id} failed: {e}");
            std::process::exit(1);
        }
    };
    if let Some(path) = metrics_path {
        write_or_exit(path, &dump.metrics_text);
        eprintln!(
            "[reproduce] wrote {path} ({} samples, validated)",
            dump.metric_samples
        );
    }
    if let Some(path) = trace_path {
        write_or_exit(path, &dump.trace_json);
        eprintln!(
            "[reproduce] wrote {path} ({} trace events, round-tripped)",
            dump.trace_events
        );
    }
}

/// The parsed command line.
#[derive(Debug, Default, PartialEq)]
struct Args {
    ids: Vec<String>,
    full: bool,
    help: bool,
    write: Option<String>,
    metrics: Option<String>,
    trace: Option<String>,
}

/// Parses the arguments after the program name. A path flag without a
/// value, or whose value looks like another flag, and an unknown
/// `--flag` are errors; everything else is an experiment id.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args::default();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        let path = match arg.as_str() {
            "--help" | "-h" => {
                parsed.help = true;
                continue;
            }
            "--full" => {
                parsed.full = true;
                continue;
            }
            "--write" => &mut parsed.write,
            "--metrics" => &mut parsed.metrics,
            "--trace" => &mut parsed.trace,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            id => {
                parsed.ids.push(id.to_string());
                continue;
            }
        };
        match args.next() {
            Some(value) if !value.starts_with("--") => *path = Some(value.clone()),
            _ => return Err(format!("`{arg}` needs a <path>")),
        }
    }
    Ok(parsed)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("reproduce: {e}");
            usage();
            std::process::exit(2);
        }
    };
    if args.help {
        usage();
        return;
    }
    if args.ids.is_empty() {
        usage();
        std::process::exit(2);
    }

    let selected: Vec<&str> = if args.ids.iter().any(|i| i == "all") {
        CATALOG.iter().map(|e| e.id).collect()
    } else {
        args.ids.iter().map(String::as_str).collect()
    };

    let mut combined = String::from(
        "# DFX — regenerated evaluation\n\nEvery table is produced by \
         `cargo run -p dfx-bench --release --bin reproduce -- <id>`; \"paper\" columns quote \
         the published values for comparison.\n\n",
    );
    for &id in &selected {
        eprintln!("[reproduce] running {id}...");
        // lint: allow(ambient-time, progress display only; no simulated quantity depends on it)
        let start = std::time::Instant::now();
        let report = run_one(id, args.full);
        let md = report.to_markdown();
        println!("{md}");
        combined.push_str(&md);
        eprintln!(
            "[reproduce] {id} done in {:.1}s",
            start.elapsed().as_secs_f32()
        );
    }

    if let Some(path) = &args.write {
        write_or_exit(path, &combined);
        eprintln!("[reproduce] wrote {path}");
    }

    if args.metrics.is_some() || args.trace.is_some() {
        write_observability(
            &selected,
            args.full,
            args.metrics.as_deref(),
            args.trace.as_deref(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn ids_flags_and_paths_parse_in_any_order() {
        let args = parse("continuous --metrics m.prom serving --full --trace t.json --write o.md")
            .unwrap();
        assert_eq!(
            args,
            Args {
                ids: vec!["continuous".into(), "serving".into()],
                full: true,
                help: false,
                write: Some("o.md".into()),
                metrics: Some("m.prom".into()),
                trace: Some("t.json".into()),
            }
        );
        assert!(parse("all -h").unwrap().help);
    }

    #[test]
    fn a_path_flag_never_takes_the_next_flag_as_its_value() {
        let err = parse("continuous --metrics --trace").unwrap_err();
        assert!(err.contains("--metrics"), "{err}");
        for flag in ["--write", "--metrics", "--trace"] {
            assert!(
                parse(&format!("continuous {flag}")).is_err(),
                "{flag} at the end"
            );
            assert!(
                parse(&format!("continuous {flag} --full")).is_err(),
                "{flag} before a flag"
            );
        }
    }

    #[test]
    fn a_write_into_a_missing_directory_names_the_path() {
        let path = std::env::temp_dir()
            .join("reproduce-no-such-dir")
            .join("out.md");
        let path = path.to_str().unwrap();
        let err = write_output(path, "x").unwrap_err();
        assert!(err.contains(path), "{err}");
    }

    #[test]
    fn unknown_flags_are_errors() {
        let err = parse("continuous --metric m.prom").unwrap_err();
        assert!(err.contains("--metric"), "{err}");
        assert!(parse("--verbose").is_err());
    }
}
