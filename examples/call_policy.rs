//! The paper's §IV "effective call policy" proposal, implemented and
//! measured: per-user concurrent-call ceilings under overload.
//!
//! ```sh
//! cargo run --release --example call_policy
//! ```

use capacity::policy::{policy_study, render_policy};

fn main() {
    // Overload scenario: 60 heavy users jointly offer 220 E to the
    // 165-channel server (≈3.7 concurrent calls each, unconstrained).
    println!("offered load 220 E from 60 users onto 165 channels\n");
    let limits = [None, Some(4), Some(3), Some(2), Some(1)];
    let rows = policy_study(220.0, 60, &limits, 3, 42).expect("valid ceilings");
    print!("{}", render_policy(&rows));

    println!();
    println!("Reading: with no policy the channel pool does all the refusing");
    println!("(blocked calls). Tight ceilings shift refusals to the policy —");
    println!("protecting channel headroom for other users, the paper's goal —");
    println!("at the cost of refusing heavy callers early.");
}
