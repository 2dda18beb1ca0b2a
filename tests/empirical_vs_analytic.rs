//! Integration: the paper's central claim — Erlang-B characterises the
//! PBX's empirical blocking behaviour.

use asterisk_capacity::prelude::*;
use capacity::experiment::MediaMode;
use loadgen::HoldingDist;
use teletraffic::blocking_probability;

fn sweep_config(erlangs: f64, holding: HoldingDist, channels: u32, seed: u64) -> EmpiricalConfig {
    EmpiricalConfig {
        erlangs,
        servers: 1,
        holding,
        placement_window_s: 600.0,
        channels,
        media: MediaMode::Off,
        pickup_delay: des::SimDuration::ZERO,
        link_loss_probability: 0.0,
        silence_suppression: false,
        capture_traffic: false,
        user_pool: 50,
        max_calls_per_user: None,
        faults: faults::FaultSchedule::new(),
        overload_law: None,
        retry: None,
        population: None,
        seed,
    }
}

/// Pooled over a few replications, the observed blocking matches Erlang-B
/// within a few percentage points across light, critical and overloaded
/// regimes (a down-scaled Fig. 6).
#[test]
fn observed_blocking_matches_erlang_b() {
    // Small system (N=20) so debug-mode runtimes stay low while sample
    // counts stay high.
    for (a, tol_pp) in [(10.0, 2.0), (20.0, 4.0), (30.0, 4.0)] {
        let mut blocked = 0u64;
        let mut attempted = 0u64;
        for seed in 0..4u64 {
            let r = EmpiricalRunner::run(sweep_config(
                a,
                HoldingDist::Exponential(30.0),
                20,
                seed * 131 + 7,
            ));
            blocked += r.blocked;
            attempted += r.attempted;
        }
        let observed = blocked as f64 / attempted as f64 * 100.0;
        let analytic = blocking_probability(Erlangs(a), 20) * 100.0;
        assert!(
            (observed - analytic).abs() < tol_pp,
            "A={a}: observed {observed:.2}% vs Erlang-B {analytic:.2}% over {attempted} calls"
        );
    }
}

/// Erlang-B insensitivity: fixed and exponential holding times with the
/// same mean produce statistically indistinguishable blocking — which is
/// why the paper's fixed 120 s calls are a legitimate realisation of the
/// model.
#[test]
fn holding_time_insensitivity() {
    let a = 24.0;
    let channels = 24;
    let blocking_with = |holding: HoldingDist| -> f64 {
        let mut blocked = 0u64;
        let mut attempted = 0u64;
        for seed in 0..4u64 {
            let r = EmpiricalRunner::run(sweep_config(a, holding, channels, 1000 + seed));
            blocked += r.blocked;
            attempted += r.attempted;
        }
        blocked as f64 / attempted as f64
    };
    let fixed = blocking_with(HoldingDist::Fixed(30.0));
    let expo = blocking_with(HoldingDist::Exponential(30.0));
    let lognormal = blocking_with(HoldingDist::Lognormal {
        mean: 30.0,
        sd: 20.0,
    });
    let analytic = blocking_probability(Erlangs(a), channels);
    for (name, pb) in [
        ("fixed", fixed),
        ("exponential", expo),
        ("lognormal", lognormal),
    ] {
        assert!(
            (pb - analytic).abs() < 0.05,
            "{name}: {pb:.4} vs analytic {analytic:.4}"
        );
    }
    assert!(
        (fixed - expo).abs() < 0.05,
        "fixed {fixed:.4} vs expo {expo:.4}"
    );
}

/// Carried traffic ≈ offered × (1 − Pb), and channel occupancy never
/// exceeds the pool.
#[test]
fn carried_traffic_consistency() {
    let r = EmpiricalRunner::run(sweep_config(25.0, HoldingDist::Exponential(30.0), 20, 5));
    assert!(r.peak_channels <= 20);
    let expected_carried = r.erlangs * (1.0 - r.observed_pb);
    assert!(
        (r.carried_erlangs - expected_carried).abs() < 3.5,
        "carried {:.1} vs A(1-Pb) {:.1}",
        r.carried_erlangs,
        expected_carried
    );
}

/// The channels_for inverse solver agrees with what the empirical system
/// needs: provisioning by the solver produces at-most-target blocking.
#[test]
fn dimensioning_by_solver_meets_target() {
    let a = 15.0;
    let target = 0.05;
    let n = teletraffic::channels_for(Erlangs(a), target).unwrap();
    let mut blocked = 0u64;
    let mut attempted = 0u64;
    for seed in 0..4u64 {
        let r = EmpiricalRunner::run(sweep_config(
            a,
            HoldingDist::Exponential(30.0),
            n,
            40 + seed,
        ));
        blocked += r.blocked;
        attempted += r.attempted;
    }
    let observed = blocked as f64 / attempted as f64;
    assert!(
        observed <= target + 0.03,
        "provisioned {n} channels, observed {observed:.3} for target {target}"
    );
}
