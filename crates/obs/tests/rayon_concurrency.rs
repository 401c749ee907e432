//! Registry updates from rayon scope workers must be lossless — this is
//! the exact usage pattern the instrumented trainer relies on.

use std::sync::Arc;

use mei_obs::MetricsRegistry;

#[test]
fn registry_survives_rayon_scope_hammering() {
    let reg = Arc::new(MetricsRegistry::new());
    let workers = 8usize;
    let per_worker = 5_000u64;

    rayon::scope(|s| {
        for w in 0..workers {
            let reg = Arc::clone(&reg);
            s.spawn(move |_| {
                let examples = reg.counter("train.examples");
                let loss_hist = reg.histogram("train.loss", &[0.5, 1.0, 2.0]);
                for i in 0..per_worker {
                    examples.inc();
                    // Deterministic spread across all four buckets.
                    let v = match (w as u64 + i) % 4 {
                        0 => 0.25,
                        1 => 0.75,
                        2 => 1.5,
                        _ => 3.0,
                    };
                    loss_hist.observe(v);
                }
                reg.gauge("train.lr").set(0.1);
            });
        }
    });

    let total = workers as u64 * per_worker;
    assert_eq!(reg.counter("train.examples").get(), total);
    let h = reg.histogram("train.loss", &[0.5, 1.0, 2.0]);
    assert_eq!(h.count(), total);
    assert_eq!(h.bucket_counts(), vec![total / 4; 4]);
    let expected_sum = (total / 4) as f64 * (0.25 + 0.75 + 1.5 + 3.0);
    assert!((h.sum() - expected_sum).abs() < 1e-6, "sum {} != {}", h.sum(), expected_sum);
    assert_eq!(reg.gauge("train.lr").get(), 0.1);
}
