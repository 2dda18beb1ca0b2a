//! `capacity-cli` refuses a command line it cannot parse — a typo used to
//! run the defaults and exit 0.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_capacity-cli"))
        .args(args)
        .output()
        .expect("capacity-cli runs")
}

#[test]
fn typos_are_rejected_and_valid_json_still_parses() {
    let typo = cli(&["run", "--erlang", "50"]);
    assert_eq!(typo.status.code(), Some(2));
    let message = String::from_utf8_lossy(&typo.stderr);
    assert!(message.contains("unknown flag --erlang"), "{message}");
    assert!(typo.stdout.is_empty(), "nothing ran");

    let bad_value = cli(&["run", "--erlangs", "fifty"]);
    assert_eq!(bad_value.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad_value.stderr).contains("--erlangs needs a numeric value"));

    let fig3 = cli(&["fig3", "--json"]);
    assert_eq!(fig3.status.code(), Some(0));
    let curves: Vec<capacity::figures::Fig3Curve> =
        serde_json::from_str(&String::from_utf8_lossy(&fig3.stdout)).expect("JSON");
    assert_eq!(curves.len(), 12);
}

/// Shed watermarks that would make the hysteresis law flap (low above
/// high) or never engage (high above the load cap of 1) are refused.
#[test]
fn shed_watermarks_are_checked() {
    let inverted = cli(&["run", "--shed-high", "0.9", "--shed-low", "0.95"]);
    assert_eq!(inverted.status.code(), Some(2));
    let message = String::from_utf8_lossy(&inverted.stderr);
    assert!(
        message.contains("--shed-low 0.95 must be below"),
        "{message}"
    );

    let unreachable = cli(&["run", "--shed-high", "1.5"]);
    assert_eq!(unreachable.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&unreachable.stderr).contains("--shed-high 1.5"));

    let small = ["--erlangs", "4", "--window", "10", "--holding", "5"];
    let valid = cli(&[&["run", "--shed-high", "0.9", "--json"], &small[..]].concat());
    assert_eq!(valid.status.code(), Some(0));
}
