//! Allocator-gated proof that the PBX's memory follows its live calls,
//! not the INVITEs it has seen.
//!
//! The cell is the overload campaign's hysteresis cell at 3× engineered
//! load, where most INVITEs are refusals (503s the callers retry, 486s).
//!
//! * **Equal concurrency, placement windows W and 4W.** The load, the
//!   pool and the flash crowd are the same, so calls in flight, frames,
//!   transactions and scheduler occupancy peak at the same size in both
//!   runs and cancel out of the delta; the longer run only sees about
//!   four times the INVITEs. What remains is per-INVITE state that
//!   outlives its call, which by design is none: the CDR journal is a
//!   tally per disposition and a closed call's slot serves the next call.
//!   The budget is 4 B per extra INVITE: a stored record (three `String`s
//!   and its slot in a `Vec`) or a call slot never reused costs well over
//!   a hundred.
//! * **More concurrency, window W.** Four times the channels at the same
//!   load must raise peak live bytes by at least 256 B per extra
//!   peak-concurrent call — less than a live call's slot in the PBX alone
//!   (288 B on 64-bit targets), before the endpoints' and the network's
//!   share — so a smaller rise means the measurement sees nothing.
//!
//! The whole check lives in ONE test fn: the counting allocator is
//! process-global, so concurrent tests in the same binary would pollute
//! the peak.

use capacity::campaign::{cell_config, CampaignConfig};
use capacity::experiment::{EmpiricalRunner, RunResult};
use overload::ControlLaw;

#[path = "../../../tests/common/counting_alloc.rs"]
mod counting_alloc;

/// Peak live bytes above the pre-run floor for one full run of the
/// campaign's hysteresis cell at 3× load, over a placement window of
/// `window_s` with `channels` channels.
fn peak_delta_for(window_s: f64, channels: u32) -> (usize, RunResult) {
    let mut cc = CampaignConfig::evaluation_default(2015);
    let offered = 3.0 * cc.engineered_erlangs();
    cc.placement_window_s = window_s;
    let mut cfg = cell_config(&cc, offered, Some(ControlLaw::hysteresis_default()));
    cfg.channels = channels;
    let floor = counting_alloc::reset_peak();
    let r = EmpiricalRunner::run(cfg);
    let peak = counting_alloc::peak_bytes();
    assert!(r.completed > 0, "cell completes calls at W = {window_s} s");
    assert!(r.shed > 0, "cell sheds at W = {window_s} s");
    (peak.saturating_sub(floor), r)
}

/// New INVITEs the PBX saw: every attempt plus every retry.
fn invites(r: &RunResult) -> u64 {
    r.attempted + r.retries
}

#[test]
fn pbx_memory_follows_live_calls_not_invites() {
    let channels = CampaignConfig::evaluation_default(2015).channels;
    let window = CampaignConfig::evaluation_default(2015).placement_window_s;
    // Warm-up run absorbs one-time allocations (lazy statics, allocator
    // pools, memoized Erlang-B solves) so they land in neither sample.
    let _ = peak_delta_for(window / 4.0, channels);

    let (short, short_run) = peak_delta_for(window, channels);
    let (long, long_run) = peak_delta_for(4.0 * window, channels);
    assert_eq!(
        short_run.peak_channels, long_run.peak_channels,
        "equal concurrency"
    );
    let extra = invites(&long_run).saturating_sub(invites(&short_run));
    assert!(
        extra >= invites(&short_run),
        "four times the window saw only {extra} more INVITEs"
    );
    let delta = long.saturating_sub(short);
    let per_invite = delta as f64 / extra as f64;
    eprintln!(
        "equal concurrency: peak live bytes {short} ({} INVITEs) -> {long} ({} INVITEs), \
         delta {delta} over {extra} extra INVITEs = {per_invite:.2} B/INVITE",
        invites(&short_run),
        invites(&long_run)
    );
    assert!(
        per_invite <= 4.0,
        "per-INVITE peak memory {per_invite:.2} B exceeds the 4 B budget \
         (delta {delta} B over {extra} extra INVITEs) — \
         something keeps state for every INVITE, not every live call"
    );

    // The control: the gauge must see the calls more channels carry.
    let (wide, wide_run) = peak_delta_for(window, 4 * channels);
    let extra_live = wide_run
        .peak_channels
        .saturating_sub(short_run.peak_channels);
    let rise = wide.saturating_sub(short);
    eprintln!(
        "4x channels: peak concurrent calls {} -> {}, peak live bytes {short} -> {wide} (+{rise})",
        short_run.peak_channels, wide_run.peak_channels
    );
    assert!(
        extra_live >= channels,
        "four times the channels carried only {extra_live} more concurrent calls"
    );
    assert!(
        rise >= 256 * extra_live as usize,
        "peak live bytes rose {rise} B for {extra_live} extra concurrent calls, \
         below a live call's PBX slot alone — the measurement is broken"
    );
}
