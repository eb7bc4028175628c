//! `turbinesim`: run Turbine platform scenarios from the command line.
//!
//! ```text
//! turbinesim demo                 # run the built-in demo scenario
//! turbinesim run scenario.json    # run a scenario file
//! turbinesim trace <scenario>     # run, then query the causal decision trace
//! turbinesim metrics <scenario>   # run, then export the ODS registry (--jsonl | --prom)
//! turbinesim top <scenario>       # live operator console while the scenario runs
//! turbinesim repro <repro.json>   # replay a fuzz repro file through every oracle
//! turbinesim snapshot <scenario> --at-mins N   # capture mid-run state to a blob
//! turbinesim restore <blob.tsnap>              # resume a blob to the scenario horizon
//! turbinesim schema               # print the demo scenario JSON as a format reference
//! turbinesim faults               # list chaos fault events for scenario timelines
//! ```
//!
//! Scenario timelines support chaos-engine events alongside host and job
//! events: `{"action": "inject_fault", "at_mins": N, "fault": <name>, ...}`
//! activates a fault (optionally auto-clearing after `duration_mins`) and
//! `clear_fault` ends it. See `turbinesim faults` for the fault names and
//! their addressing fields.

use turbine_cli::{
    metrics_report, repro_report, run_scenario, run_scenario_traced, run_top, trace_report,
    MetricsFormat, Scenario, TraceQuery,
};

const TRACE_HELP: &str = "\
usage: turbinesim trace <demo | scenario.json> [flags]

runs the scenario, then queries the control plane's causal decision trace.

flags:
  --job <name>          only records about this scenario job
  --component <name>    only records from this control component's rounds
                        (heartbeat, tm_refresh, state_syncer, auto_scaler,
                        load_report, rebalance, capacity_manager, checkpoint,
                        metrics, data_plane, chaos_engine)
  --from-mins <N>       drop records before minute N of simulated time
  --to-mins <N>         drop records after minute N
  --explain <job>       print the causal chain (fault -> symptom -> decision)
                        behind the most recent decision about the job
  --jsonl               dump retained records as JSONL for offline tools";

const FAULT_HELP: &str = "\
chaos fault events for scenario timelines:

  {\"action\": \"inject_fault\", \"at_mins\": N, \"fault\": <name>, ...}
  {\"action\": \"clear_fault\",  \"at_mins\": N, \"fault\": <name>, ...}

fault names:
  task_service_down   Task Service unreachable; Task Managers keep serving
                      their cached snapshot (new/changed jobs wait)
  job_store_down      Job Store unavailable; sync + scaling pause, oncall
                      writes fail until it returns
  heartbeat_loss      container on host <host> stops heart-beating; needs
                      \"host\": <index>. Sustained loss triggers fail-over
  syncer_crash        State Syncer process down; on clear it restarts and
                      resumes from the persisted expected-vs-running diff
  scribe_stall        reads from job <job>'s input category stall; needs
                      \"job\": <name>. Backlog grows until cleared

optional: \"duration_mins\": M auto-clears the fault M minutes later;
without it the fault stays active until a matching clear_fault event.";

/// The contents of `path`, exiting with a message if it cannot be read.
fn read_file(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    })
}

/// The text of `demo` or of a scenario file.
fn scenario_text(target: &str) -> String {
    match target {
        "demo" => turbine_cli::scenario::DEMO_SCENARIO.to_string(),
        path => read_file(path),
    }
}

/// Parse a scenario, exiting with the refusal (`invalid scenario: ...`) if
/// it does not parse.
fn load_scenario(text: &str) -> Scenario {
    Scenario::parse(text).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = "usage: turbinesim <demo | run <scenario.json> | trace <scenario> [flags] | \
                 metrics <scenario> [--jsonl | --prom] | top <scenario> [--refresh-mins N] | \
                 repro <repro.json> | snapshot <scenario> --at-mins N [--out FILE] | \
                 restore <blob.tsnap> | schema | faults>";
    match args.get(1).map(String::as_str) {
        Some("demo") => {
            let scenario = Scenario::demo();
            eprintln!(
                "running demo: {} hosts, {} jobs, {} events, {:.1} h",
                scenario.hosts,
                scenario.jobs.len(),
                scenario.events.len(),
                scenario.duration_hours
            );
            print!("{}", run_scenario(&scenario).render());
        }
        Some("run") => {
            let Some(path) = args.get(2) else {
                eprintln!("{usage}");
                std::process::exit(2);
            };
            print!(
                "{}",
                run_scenario(&load_scenario(&scenario_text(path))).render()
            );
        }
        Some("trace") => {
            let Some(target) = args.get(2) else {
                eprintln!("{TRACE_HELP}");
                std::process::exit(2);
            };
            if target == "--help" {
                println!("{TRACE_HELP}");
                return;
            }
            let scenario = load_scenario(&scenario_text(target));
            let query = match TraceQuery::parse(&args[3..]) {
                Ok(q) => q,
                Err(e) => {
                    eprintln!("{e}\n\n{TRACE_HELP}");
                    std::process::exit(2);
                }
            };
            let run = run_scenario_traced(&scenario);
            match trace_report(&run, &query) {
                Ok(report) => print!("{report}"),
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        Some("metrics") => {
            let Some(target) = args.get(2) else {
                eprintln!("usage: turbinesim metrics <demo | scenario.json> [--jsonl | --prom]");
                std::process::exit(2);
            };
            let scenario = load_scenario(&scenario_text(target));
            let format = match MetricsFormat::parse(&args[3..]) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("{e}\nusage: turbinesim metrics <scenario> [--jsonl | --prom]");
                    std::process::exit(2);
                }
            };
            print!("{}", metrics_report(&scenario, format));
        }
        Some("top") => {
            let Some(target) = args.get(2) else {
                eprintln!("usage: turbinesim top <demo | scenario.json> [--refresh-mins N]");
                std::process::exit(2);
            };
            let scenario = load_scenario(&scenario_text(target));
            let mut refresh_mins = scenario.report_every_mins;
            let mut rest = args[3..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--refresh-mins" => {
                        refresh_mins = rest
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| {
                                eprintln!("--refresh-mins needs a positive integer");
                                std::process::exit(2);
                            });
                    }
                    other => {
                        eprintln!("unknown top flag '{other}'");
                        std::process::exit(2);
                    }
                }
            }
            // On a live terminal each frame repaints the screen; piped
            // output just concatenates frames (and stays deterministic).
            use std::io::IsTerminal;
            let live = std::io::stdout().is_terminal();
            run_top(&scenario, refresh_mins, |frame| {
                if live {
                    print!("\x1b[2J\x1b[H{frame}");
                } else {
                    println!("{frame}");
                }
            });
        }
        Some("repro") => {
            let Some(path) = args.get(2) else {
                eprintln!("{usage}");
                std::process::exit(2);
            };
            match repro_report(&read_file(path)) {
                Ok((report, passed)) => {
                    print!("{report}");
                    if !passed {
                        std::process::exit(1);
                    }
                }
                Err(e) => {
                    eprintln!("invalid repro file {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
        Some("snapshot") => {
            let Some(target) = args.get(2) else {
                eprintln!(
                    "usage: turbinesim snapshot <demo | scenario.json> --at-mins N [--out FILE]"
                );
                std::process::exit(2);
            };
            let text = scenario_text(target);
            let scenario = load_scenario(&text);
            let mut at_mins = None;
            let mut out = None;
            let mut rest = args[3..].iter();
            while let Some(flag) = rest.next() {
                match flag.as_str() {
                    "--at-mins" => {
                        at_mins = rest.next().and_then(|v| v.parse::<u64>().ok());
                        if at_mins.is_none() {
                            eprintln!("--at-mins needs a positive integer");
                            std::process::exit(2);
                        }
                    }
                    "--out" => out = rest.next().cloned(),
                    other => {
                        eprintln!("unknown snapshot flag '{other}'");
                        std::process::exit(2);
                    }
                }
            }
            let Some(at_mins) = at_mins else {
                eprintln!(
                    "usage: turbinesim snapshot <demo | scenario.json> --at-mins N [--out FILE]"
                );
                std::process::exit(2);
            };
            let stem = if target == "demo" {
                "demo"
            } else {
                target.as_str()
            };
            let out = out.unwrap_or_else(|| format!("{stem}.at{at_mins}.tsnap"));
            match turbine_cli::snapshot_scenario(&scenario, &text, at_mins) {
                Ok((snapshot, report)) => {
                    if let Err(e) = std::fs::write(&out, snapshot.to_bytes()) {
                        eprintln!("cannot write {out}: {e}");
                        std::process::exit(1);
                    }
                    print!("{report}");
                    println!("wrote {out}");
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        Some("restore") => {
            let Some(path) = args.get(2) else {
                eprintln!("usage: turbinesim restore <blob.tsnap>");
                std::process::exit(2);
            };
            let blob = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    std::process::exit(1);
                }
            };
            match turbine_cli::restore_blob(&blob) {
                Ok((at_mins, summary, scenario)) => {
                    eprintln!(
                        "restored minute {at_mins}/{}; resuming to the horizon",
                        scenario.total_mins()
                    );
                    print!("{}", summary.render());
                }
                Err(e) => {
                    eprintln!("{e}");
                    std::process::exit(1);
                }
            }
        }
        Some("schema") => {
            println!("{}", turbine_cli::scenario::DEMO_SCENARIO);
        }
        Some("faults") => {
            println!("{FAULT_HELP}");
        }
        _ => {
            eprintln!("{usage}");
            std::process::exit(2);
        }
    }
}
