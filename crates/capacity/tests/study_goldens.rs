//! Literal oracles for the study grid (`capacity::sweep::run_grid`)
//! under `fig6`, `farm_study`, `policy_study` and `run_campaign`: `f64`
//! bit patterns and digests printed at the commit before the four
//! hand-rolled `cells × reps` loops were folded into it. A row that lands
//! in the wrong cell, a replication that gets the wrong seed or a mean
//! taken in another order moves a bit here.

use capacity::campaign::{run_campaign, CampaignConfig};

fn bits<const N: usize>(values: [f64; N]) -> [u64; N] {
    values.map(f64::to_bits)
}

#[test]
fn fig6_points_are_pinned() {
    let got: Vec<_> = capacity::figures::fig6(&[140.0, 200.0], 2, 7)
        .iter()
        .map(|p| bits([p.empirical_pb_pct, p.ci_half_width_pct]))
        .collect();
    let want = [[0, 0], [0x4033_1504_91b0_5dfe, 0x3fd4_7834_d849_bb8b]];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn farm_rows_are_pinned() {
    // 20 E onto 24 channels, pooled and 2 × 12; three replications so the
    // mean is order-sensitive in its last bit.
    let got: Vec<_> = capacity::farm::farm_study(20.0, 24, &[1, 2], 3, 7)
        .iter()
        .map(|r| (r.empirical_pb_pct.to_bits(), r.busiest_peak))
        .collect();
    let want = [(0x4022_be16_d311_7021, 24), (0x402b_5a28_8bc5_5238, 12)];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn policy_rows_are_pinned() {
    // 30 E from 20 users: a ceiling of one refuses what no ceiling carries.
    let got: Vec<_> = capacity::policy::policy_study(30.0, 20, &[None, Some(1)], 3, 7)
        .iter()
        .map(|r| {
            bits([
                r.failed_pct,
                r.channel_blocked_pct,
                r.completed_pct,
                r.carried_erlangs,
            ])
        })
        .collect();
    let want = [
        [0, 0, 0x4059_0000_0000_0000, 0x4040_01bc_b951_c55f],
        [
            0x4048_5f7e_6080_e365,
            0,
            0x4049_a081_9f7f_1c9b,
            0x4030_5f72_caf3_a44a,
        ],
    ];
    assert_eq!(got, want, "{got:#x?}");
}

#[test]
fn campaign_cell_digests_are_pinned() {
    let result = run_campaign(&CampaignConfig::smoke(7));
    // Order-sensitive FNV-1a fold over every cell's run digest, curve by
    // curve, multiplier by multiplier.
    let fold = result
        .curves
        .iter()
        .flat_map(|c| &c.points)
        .flat_map(|p| p.digest.to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
        });
    assert_eq!(fold, 0x1a94_370c_f6c7_4221, "{fold:#x}");
}
