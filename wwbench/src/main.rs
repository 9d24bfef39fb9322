//! Waterwheel benchmark: one command per workload, printing every metric
//! by name and unit, then one JSON result line. See README.md.

mod historic;
mod ingest;
mod procfs;
mod realtime;
mod report;
mod stats;
mod trace;
mod visibility;

use std::process::ExitCode;

fn main() -> ExitCode {
    // The multi-process workload re-executes this binary as its role
    // processes; in such a child this runs the role and never returns.
    waterwheel_node::maybe_run_child();
    let args = match report::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("wwbench: {e}");
            eprintln!(
                "usage: wwbench --workload <ingest_inproc|query_historic|realtime_cluster> \
                 --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "ingest_inproc" => ingest::run(&args),
        "query_historic" => historic::run(&args),
        "realtime_cluster" => realtime::run(&args),
        other => Err(format!("unknown workload {other:?}")),
    };
    let outcome = outcome.and_then(|mut report| {
        report.complete(&args.workload, args.trace)?;
        Ok(report)
    });
    match outcome {
        Ok(report) => {
            report.print();
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wwbench: {}: {e}", args.workload);
            ExitCode::from(3)
        }
    }
}
