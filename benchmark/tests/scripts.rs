//! Scripts depend on the seed and on nothing else.

use re2x_benchmark::rng::{Rng, Zipf};
use re2x_benchmark::trace::Tracer;
use re2x_benchmark::workload::{stratified, Script, Workload, World};
use std::path::Path;

fn world(workload: Workload) -> World {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let snapshot = dir.join(format!("scripts-{}.snap", workload.name()));
    World::build(&workload.spec(true), &snapshot, &Tracer::disabled()).expect("smoke world builds")
}

#[test]
fn same_seed_same_script_other_seed_other_script() {
    for workload in [Workload::ExploreStar, Workload::ServeLive] {
        let world = world(workload);
        let spec = workload.spec(true);
        let a = Script::generate(workload, &spec, &world, 11);
        let b = Script::generate(workload, &spec, &world, 11);
        let c = Script::generate(workload, &spec, &world, 12);
        assert!(a.requests() > 0, "{}: empty script", workload.name());
        assert_eq!(a, b, "{}: same seed, different script", workload.name());
        assert_eq!(a.digest(), b.digest());
        assert_ne!(
            a.digest(),
            c.digest(),
            "{}: seeds 11 and 12 gave one script",
            workload.name()
        );
        assert_eq!(
            a.requests(),
            c.requests(),
            "the seed must not change the amount of work"
        );
    }
}

#[test]
fn rng_and_zipf_repeat() {
    let (mut a, mut b) = (Rng::new(5), Rng::new(5));
    assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
    assert_ne!(Rng::new(5).next_u64(), Rng::new(6).next_u64());
    let zipf = Zipf::new(50, 1.1);
    let mut rng = Rng::new(9);
    let draws: Vec<usize> = (0..2000).map(|_| zipf.draw(&mut rng)).collect();
    assert!(draws.iter().all(|&r| r < 50));
    let head = draws.iter().filter(|&&r| r < 5).count();
    assert!(
        head > 800,
        "the five most popular ranks draw about half: {head}"
    );
    assert!((0..1000).all(|_| rng.below(7) < 7));
}

#[test]
fn stratified_selection_keeps_the_mix_of_keys() {
    // 90 cheap, 9 medium, 1 expensive: 10 picks keep that proportion
    let pool: Vec<(u32, usize)> = (0..100)
        .map(|i| {
            (
                if i < 90 {
                    1
                } else if i < 99 {
                    2
                } else {
                    3
                },
                i,
            )
        })
        .collect();
    let picked = stratified(pool.clone(), 10);
    assert_eq!(picked.len(), 10);
    assert_eq!(picked.iter().filter(|(key, _)| *key == 1).count(), 9);
    assert!(
        picked.windows(2).all(|w| w[0].0 <= w[1].0),
        "returned in key order"
    );
    // asking for more than there is returns everything
    assert_eq!(stratified(pool, 500).len(), 100);
}
