//! `Divider` must agree with the hardware operators on every input.
//!
//! Each case checks a fixed table of divisors — the small ones, the DRAM
//! command clock (tCK = 25 cycles), the refresh interval (tREFI = 39,000
//! cycles) and the 32- and 64-bit edges — and two random ones (a full
//! 64-bit value and a right-shifted one, so every magnitude is drawn),
//! each against the edge numerators 0, d − 1, d, 2³² − 1, 2³² and
//! `u64::MAX` and two random numerators (one full, one shifted).

use bwpart_core::Divider;
use proptest::prelude::*;

const FIXED_DIVISORS: [u64; 9] = [
    1,
    2,
    3,
    25,
    39_000,
    (1 << 32) - 1,
    1 << 32,
    (1 << 32) + 1,
    u64::MAX,
];

fn check(d: u64, n: u64) {
    let div = Divider::new(d);
    assert_eq!(n / div, n / d, "{n} / {d}");
    assert_eq!(n % div, n % d, "{n} % {d}");
    assert_eq!(div.div_ceil(n), n.div_ceil(d), "{n}.div_ceil({d})");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn divider_matches_div_rem_and_div_ceil(
        raw_d in any::<u64>(),
        d_shift in 0u32..64,
        raw_n in any::<u64>(),
        n_shift in 0u32..64,
    ) {
        let random = [raw_d.max(1), (raw_d >> d_shift).max(1)];
        for d in FIXED_DIVISORS.into_iter().chain(random) {
            let edges = [0, d - 1, d, (1 << 32) - 1, 1 << 32, u64::MAX];
            for n in edges.into_iter().chain([raw_n, raw_n >> n_shift]) {
                check(d, n);
            }
        }
    }
}
