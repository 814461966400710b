//! Golden-bit pins of the distributed simulator: the exact `to_bits()` of
//! `total_secs`, `skew_secs` and every `per_proc_finish` for one weighted,
//! paging strip run on Platform 2 and two block layouts. Any change to the
//! simulator's arithmetic or its operation order moves at least one of
//! these words.

use prodpred_simgrid::{PagingModel, Platform};
use prodpred_sor::{partition_rows, simulate, BlockLayout, DistSorConfig, DistSorResult};

fn assert_bits(r: &DistSorResult, total: u64, skew: u64, finish: &[u64]) {
    assert_eq!(r.total_secs.to_bits(), total, "total_secs {}", r.total_secs);
    assert_eq!(r.skew_secs.to_bits(), skew, "skew_secs {}", r.skew_secs);
    let got: Vec<u64> = r.per_proc_finish.iter().map(|x| x.to_bits()).collect();
    assert_eq!(got, finish, "per_proc_finish {:?}", r.per_proc_finish);
}

#[test]
fn weighted_paging_strips_on_platform2_are_pinned() {
    let platform = Platform::platform2(13, 50_000.0);
    let n = 3000;
    // The Sparc 5 takes 40 % of the rows, past its in-core limit, so the
    // paging slowdown (about 5.3x) is part of the pinned arithmetic.
    let strips = partition_rows(n - 2, &[3.0, 1.0, 1.5, 2.0]);
    let mut cfg = DistSorConfig::new(n, 6, 1_000.0);
    cfg.paging = Some(PagingModel::default());
    let r = simulate(&platform, &strips, cfg);
    assert_bits(
        &r,
        0x4071_745c_77ed_07d0,
        0x4042_5fe9_7155_e680,
        &[
            0x4093_fc96_2920_ca62,
            0x4093_fd17_1dfb_41f4,
            0x4093_b681_0770_88b2,
            0x4093_6a17_d270_92c0,
        ],
    );
}

#[test]
fn block_layouts_on_platform2_are_pinned() {
    let platform = Platform::platform2(13, 50_000.0);
    let n = 400;
    let cfg = DistSorConfig::new(n, 8, 500.0);

    let r = simulate(&platform, BlockLayout::new(2, 2), cfg);
    assert_bits(
        &r,
        0x3ff2_2c62_0e2c_9900,
        0x3f9e_c5df_2e04_8000,
        &[
            0x407f_522c_620e_2c99,
            0x407f_522c_620e_2c99,
            0x407f_522c_620e_2c99,
            0x407f_51b1_4a91_7487,
        ],
    );

    let r = simulate(&platform, BlockLayout::new(3, 1), cfg);
    assert_bits(
        &r,
        0x3ff6_dcae_94bf_1a00,
        0x3fa4_911c_3c57_c000,
        &[
            0x407f_56ae_4137_e342,
            0x407f_56dc_ae94_bf1a,
            0x407f_5638_25b2_dc5c,
        ],
    );
}
