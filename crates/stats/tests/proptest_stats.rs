//! Property tests for the statistics kernels.

use proptest::prelude::*;

use prebake_stats::bootstrap::median_ci;
use prebake_stats::ecdf::Ecdf;
use prebake_stats::mannwhitney::mann_whitney;
use prebake_stats::normal;
use prebake_stats::summary::{median, quantile};

fn finite_sample(min_len: usize) -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(-1e6f64..1e6, min_len..200)
}

proptest! {
    /// Quantiles are monotone in the level and bounded by the extremes.
    #[test]
    fn quantiles_monotone_and_bounded(data in finite_sample(1)) {
        let q0 = quantile(&data, 0.0);
        let q25 = quantile(&data, 0.25);
        let q50 = quantile(&data, 0.5);
        let q75 = quantile(&data, 0.75);
        let q100 = quantile(&data, 1.0);
        prop_assert!(q0 <= q25 && q25 <= q50 && q50 <= q75 && q75 <= q100);
        let min = data.iter().cloned().fold(f64::MAX, f64::min);
        let max = data.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(q0, min);
        prop_assert_eq!(q100, max);
    }

    /// The bootstrap CI of the median always contains the sample median.
    #[test]
    fn bootstrap_ci_contains_median(data in finite_sample(5), seed in any::<u64>()) {
        let ci = median_ci(&data, 300, 0.95, seed);
        prop_assert!(ci.contains(median(&data)), "{} not in {}", median(&data), ci);
        prop_assert!(ci.lo <= ci.hi);
    }

    /// Mann-Whitney is symmetric and its p-value is a probability.
    #[test]
    fn mann_whitney_symmetry(a in finite_sample(3), b in finite_sample(3)) {
        let ab = mann_whitney(&a, &b);
        let ba = mann_whitney(&b, &a);
        prop_assert!((0.0..=1.0).contains(&ab.p_value));
        prop_assert!((ab.p_value - ba.p_value).abs() < 1e-9);
        prop_assert!((ab.z + ba.z).abs() < 1e-9);
    }

    /// A sample against itself never rejects equality.
    #[test]
    fn mann_whitney_self_comparison(a in finite_sample(10)) {
        let r = mann_whitney(&a, &a);
        prop_assert!(r.p_value > 0.9, "self-test p = {}", r.p_value);
    }

    /// ECDFs are monotone, bounded in [0,1], and hit 1 at the max.
    #[test]
    fn ecdf_monotone(data in finite_sample(1), probes in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let e = Ecdf::new(&data);
        let mut sorted_probes = probes;
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = 0.0;
        for &x in &sorted_probes {
            let f = e.eval(x);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= prev);
            prev = f;
        }
        let max = data.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert_eq!(e.eval(max), 1.0);
    }

    /// KS distance is a metric-ish quantity: symmetric, in [0,1], zero
    /// for identical samples.
    #[test]
    fn ks_distance_properties(a in finite_sample(1), b in finite_sample(1)) {
        let ea = Ecdf::new(&a);
        let eb = Ecdf::new(&b);
        let d = ea.ks_distance(&eb);
        prop_assert!((0.0..=1.0).contains(&d));
        prop_assert!((d - eb.ks_distance(&ea)).abs() < 1e-12);
        prop_assert_eq!(ea.ks_distance(&ea), 0.0);
    }

    /// The normal quantile inverts the CDF across the open unit interval.
    #[test]
    fn normal_quantile_inverts_cdf(p in 0.001f64..0.999) {
        let x = normal::quantile(p);
        prop_assert!((normal::cdf(x) - p).abs() < 1e-6);
    }
}

/// A case the upstream proptest engine once shrank to, replayed as a fixed
/// test (the offline shim neither reads nor writes regression files). It
/// gives z = 0 in both directions: the continuity-correction edge where
/// the Mann-Whitney p-value can overshoot 1.
#[test]
fn regression_case_mann_whitney_and_ks_distance() {
    let ab = mann_whitney(&REGRESSION_A, &REGRESSION_B);
    let ba = mann_whitney(&REGRESSION_B, &REGRESSION_A);
    assert!((0.0..=1.0).contains(&ab.p_value), "p = {}", ab.p_value);
    assert!((ab.p_value - ba.p_value).abs() < 1e-9);
    assert!((ab.z + ba.z).abs() < 1e-9);

    let ea = Ecdf::new(&REGRESSION_A);
    let eb = Ecdf::new(&REGRESSION_B);
    let d = ea.ks_distance(&eb);
    assert!((0.0..=1.0).contains(&d));
    assert!((d - eb.ks_distance(&ea)).abs() < 1e-12);
    assert_eq!(ea.ks_distance(&ea), 0.0);
}

#[rustfmt::skip]
const REGRESSION_A: [f64; 128] = [
    -63939.97221236315, -798076.203879273, -537953.8436427288, 127591.77225554654,
    -375411.63349700544, 881633.1546923809, -991274.0333022838, 524897.8527934836,
    -902541.6600110658, -395701.30019667157, -612091.8064062184, 599646.292239707,
    -778870.7708405295, 232931.80715035181, 804111.9514991893, 31118.38314031055,
    587686.217453772, -963460.1026443372, 510533.7948387377, -396208.71369223745,
    -570096.59356391, 663393.1363142034, -225900.6146581834, 385968.213334945, 232705.0680870744,
    605441.313096033, 309968.6935713101, -343591.90435170167, -272302.74643245985,
    -384225.8071991215, 172393.30462681982, -4324.178114677441, -778573.0710958339,
    981923.0287189514, 707838.867197441, -170726.0865552107, -298197.0863763872,
    -565130.4605047737, 197040.15326548292, -978554.6900687747, -158157.2128859427,
    -126144.97303648978, -724445.371220889, 82335.61518775135, 586297.9243662101,
    940123.7557988192, -264381.14866749576, 914433.2586181598, 854867.9637477442,
    -181166.1092723225, -399582.65807191515, -781401.5937220526, 725656.9437832372,
    -39722.25373907664, -673491.36545876, 664831.1745580534, -564729.7948561712,
    907515.4816125126, 263121.38922559825, -333319.6867026461, -115160.49869338094,
    -852772.0844867462, -702196.2941413943, 629560.7368895914, -507442.30629644595,
    169866.770291214, -618410.5123315154, -451090.3700951565, -65018.77909783422,
    423299.4143218003, 228061.54422780636, -408903.3193237751, -216100.7216061711,
    -665656.4561733059, -858238.1311880599, -81825.05026056997, 987170.4932314311,
    370511.7767766262, 447434.9792612437, -330296.80212950066, 152451.44208551393,
    934133.902627512, 801608.2210345687, -965382.676047755, 767108.8325548496, 727854.028071382,
    -351115.2235704799, 930021.5880798625, 546995.5261578087, 440412.18418749113,
    375187.9714296276, -813283.5675479491, 810046.5768326242, 634877.0739267666,
    -488357.88172094425, -672403.1540319064, 185020.16880872767, 234659.662138048,
    686550.5598932132, -716654.8252386102, 585409.7366992722, 669214.3342514217,
    -553133.204469711, 588592.47987465, 218603.6738243864, 152860.0232016233, 79458.12082219313,
    -448624.78088591597, -425535.64040177135, -927010.6252951651, -736095.5534523304,
    -907304.6259369069, -218967.70535457262, -74271.36669334365, -216984.3888602876,
    -793329.4190659032, 796563.3996040052, -302235.25823953876, 749019.8253777775,
    -974968.2780757069, -635235.9099640578, -54064.91595232185, 875350.7051733156,
    -946381.5637329756, 940773.8915493065, -537632.4111032347, 605108.0783742787,
    -436742.67687754304,
];

#[rustfmt::skip]
const REGRESSION_B: [f64; 112] = [
    635976.2780536745, -361480.0298181884, -556710.1266758913, 535442.5417716112,
    -745434.5835675757, -380890.9723518011, 98049.51053227157, 570449.3455435546,
    -303613.6433578622, 316077.6498003911, 0.0, 532749.774970109, -118579.31578718322,
    -510574.34071542387, 222491.12317457984, -262928.3363702389, 843292.2708674463,
    -577379.8132871656, -20491.492376117454, 626113.7773075689, 111665.90292069111,
    -659804.5751854195, -181758.36068412472, 627619.7445604006, -777902.8978193934,
    659784.033196948, 299196.85973515286, 997142.6661865156, 292788.21560850844,
    491742.52539925824, 885974.8114621142, -265740.69835349167, 588599.2712369607,
    371003.0103837753, -119764.05005769026, 550060.3866299328, -542322.5255791246,
    -11229.538446206689, 266558.13109188894, -191940.49073385028, 216283.64218072555,
    -383082.9281183301, -560038.2296993893, 156741.91777272077, -692125.9920460247,
    -402441.64548200765, -458569.1689850602, -835564.5224825236, -125610.22080705278,
    -831943.0844638206, -383188.2726166998, 149248.44416558588, -989951.3017636617,
    -604452.3096152905, 513166.22469978564, -565097.8936654578, -188139.51968728373,
    -387369.2852823673, -21118.007247737776, 610909.7372223533, 0.0, -132476.91331022803,
    -606610.14807678, -695241.8924760234, 689837.6306287446, 859952.0368671397, 845784.5480153213,
    -236442.29926040178, 994616.8414987682, -573658.8336626658, 212438.9893958954,
    974823.3274252184, 686285.0277178236, -474749.1050834683, -942518.6242717197, 0.0,
    295270.56174346805, 915841.0094676533, -574571.2386173859, 61936.804462601125,
    152416.1673090771, -191842.14637949236, 877281.9577280465, -452615.52490829583,
    43740.75740297552, 245051.67729805, -903083.2907934794, -891773.2384319013,
    -246352.8609485801, -737765.2681111988, -121632.87897281123, 158420.49800578022,
    -644425.618917285, 875986.5029974807, 523291.2548309682, -973918.3875204724,
    921464.5334659703, 428968.010062075, 710256.3575801157, -788506.816784438, -796320.8512274389,
    -369236.6079103813, 387524.6271472397, 616450.4205518042, -220358.58298016893,
    261526.1036079894, -545686.6210655216, -220323.62815064707, 655015.3308304466,
    -994399.4940537026, -801799.3708976196, 332749.3976722187,
];
