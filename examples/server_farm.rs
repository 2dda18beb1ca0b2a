//! The paper's "increase the number of servers" alternative, quantified:
//! trunking efficiency of pooled vs split channel capacity, plus the
//! Wilkinson/ERT answer for overflow-routed farms.
//!
//! ```sh
//! cargo run --release --example server_farm
//! ```

use capacity::farm::{farm_study, render_farm};
use teletraffic::overflow::{overflow_moments, secondary_channels_for};
use teletraffic::{blocking_probability, Erlangs};

fn main() {
    // 150 E (the UnB busy hour) onto 164 total channels, three layouts,
    // averaged over 6 replications each.
    let rows = farm_study(150.0, 164, &[1, 2, 4], 6, 7).expect("valid layouts");
    print!("{}", render_farm(150.0, &rows));
    println!();
    println!("Pooling wins: one big server always blocks least at equal total");
    println!("channels (Erlang-B trunking efficiency). A farm with blind");
    println!("round-robin pays the split penalty shown above.\n");

    // Smarter than round-robin: overflow routing. Primary takes what it
    // can; a secondary absorbs the spill. Dimension it properly with ERT.
    println!("Overflow-routed farm at 200 E with a 165-channel primary:");
    let primary = (Erlangs(200.0), 165u32);
    let m = overflow_moments(primary.0, primary.1).expect("valid");
    println!(
        "  spill: {:.1} E mean, peakedness z = {:.2} (>1: burstier than Poisson)",
        m.mean,
        m.peakedness()
    );
    for target in [0.05, 0.01] {
        let secondary = secondary_channels_for(&[primary], target).expect("solvable");
        println!(
            "  secondary channels for {:>4.1}% spill blocking: {} (ERT)",
            target * 100.0,
            secondary
        );
    }
    let pooled = blocking_probability(Erlangs(200.0), 165 + 60);
    println!(
        "  for reference: pooling the same ~60 extra channels directly gives {:.2}% blocking",
        pooled * 100.0
    );
}
