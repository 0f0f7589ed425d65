//! Regenerates every table and figure of the SmartDS evaluation.
//!
//! ```text
//! cargo run --release -p smartds-bench --bin experiments -- all
//! cargo run --release -p smartds-bench --bin experiments -- fig7 --quick
//! cargo run --release -p smartds-bench --bin experiments -- all --csv=target/experiments
//! ```

use smartds_bench::{
    breakdown, csv, curve, degraded, fig4, json, loc, perf, reads, scale, sec55, services, soc,
    sweeps, table1, table3, tco, Profile,
};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let csv_dir: Option<PathBuf> = args.iter().find_map(|a| {
        a.strip_prefix("--csv=")
            .map(PathBuf::from)
            .or_else(|| (a == "--csv").then(|| PathBuf::from("target/experiments")))
    });
    let profile = if quick { Profile::Quick } else { Profile::Full };
    let which = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "all".into());
    let mut ran = false;
    let want = |id: &str| which == id || which == "all";
    if want("table1") {
        table1::run();
        println!();
        ran = true;
    }
    if want("table3") {
        table3::run();
        println!();
        ran = true;
    }
    if want("fig4") {
        fig4::run();
        println!();
        ran = true;
    }
    let save = |name: &str, reports: &[smartds::RunReport]| {
        if let Some(dir) = &csv_dir {
            if let Err(e) = csv::write_reports(dir, name, reports) {
                eprintln!("csv export failed: {e}");
            }
            if let Err(e) = json::write_reports(dir, name, reports) {
                eprintln!("json export failed: {e}");
            }
        }
    };
    if want("fig7") {
        let r = sweeps::fig7(profile);
        save("fig7", &r);
        println!();
        ran = true;
    }
    if want("fig8") {
        let r = sweeps::fig8(profile);
        save("fig8", &r);
        println!();
        ran = true;
    }
    if want("fig9") {
        let r = sweeps::fig9(profile);
        save("fig9", &r);
        println!();
        ran = true;
    }
    if want("fig10") {
        let r = sweeps::fig10(profile);
        save("fig10", &r);
        println!();
        ran = true;
    }
    if want("sec55") {
        sec55::run(profile);
        println!();
        ran = true;
    }
    if want("soc") {
        soc::run();
        println!();
        ran = true;
    }
    if which == "curve" || which == "all" {
        let r = curve::run(profile);
        save("curve", &r);
        println!();
        ran = true;
    }
    if want("tco") {
        tco::run(profile);
        println!();
        ran = true;
    }
    if which == "breakdown" || which == "all" {
        let r = breakdown::run(profile);
        save("breakdown", &r);
        println!();
        ran = true;
    }
    if which == "reads" || which == "all" {
        let r = reads::run(profile);
        save("reads", &r);
        println!();
        ran = true;
    }
    if which == "degraded" || which == "all" {
        let r = degraded::run(profile);
        save("degraded", &r);
        println!();
        ran = true;
    }
    if want("loc") {
        if let Err(e) = loc::run() {
            eprintln!("loc experiment failed: {e}");
        }
        println!();
        ran = true;
    }
    if which == "scale" || which == "all" {
        let rows = scale::run(profile);
        if let Err(e) = scale::write_json(&PathBuf::from("."), profile, &rows) {
            eprintln!("scale export failed: {e}");
        }
        println!();
        ran = true;
    }
    if which == "services" || which == "all" {
        let rows = services::run(profile);
        if let Err(e) = services::write_json(&PathBuf::from("."), profile, &rows) {
            eprintln!("services export failed: {e}");
        }
        println!();
        ran = true;
    }
    // Not part of `all`: perf measures the simulator itself, and its wall
    // times would be skewed by whatever other experiments just ran.
    if which == "perf-diff" {
        perf::diff_quick_vs_baseline(&PathBuf::from("."));
        return;
    }
    if which == "perf" {
        let rows = perf::run(profile);
        if let Err(e) = perf::write_json(&PathBuf::from("."), profile, &rows) {
            eprintln!("perf export failed: {e}");
        }
        println!();
        ran = true;
    }
    if !ran {
        eprintln!(
            "unknown experiment '{which}'; expected one of: \
             table1 table3 fig4 fig7 fig8 fig9 fig10 sec55 soc curve tco breakdown reads \
             degraded loc perf perf-diff scale services all"
        );
        std::process::exit(2);
    }
}
