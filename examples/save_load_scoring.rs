//! Fit-once / serve-many demo: fit the paper's pipeline on simulated ECG
//! beats, promote its snapshot into a [`ModelStore`], reload it in a
//! fresh [`ModelRegistry`] that follows the store, hot-swap the active
//! model mid-stream, roll it back, and report how much restart time the
//! snapshot saves over re-paying the LOOCV fit.
//!
//! Run with: `cargo run --release --example save_load_scoring`

use mfod::persist::{ModelRegistry, ModelStore};
use mfod::prelude::*;
use mfod::snapshot::PipelineSnapshot;
use std::sync::Arc;
use std::time::Instant;

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: row {i} diverged");
    }
}

fn main() {
    // ---- fit once -----------------------------------------------------
    let data = EcgSimulator::new(EcgConfig {
        m: 40,
        ..Default::default()
    })
    .unwrap()
    .generate(48, 16, 2020)
    .unwrap()
    .augment_with(0, |y| y * y)
    .unwrap();
    let split = SplitConfig {
        train_size: 32,
        contamination: 0.1,
    };
    let (train, test) = split.split_datasets(&data, 1).unwrap();

    let pipeline = GeomOutlierPipeline::new(
        PipelineConfig::fast(),
        Arc::new(Curvature),
        Arc::new(IsolationForest {
            n_trees: 60,
            ..Default::default()
        }),
    );
    let t_fit = Instant::now();
    let fitted = pipeline.fit(train.samples()).unwrap().into_shared();
    let fit_time = t_fit.elapsed();
    let reference = fitted.score(test.samples()).unwrap();
    println!(
        "fitted {} on {} beats in {:.1} ms",
        fitted.label(),
        train.len(),
        fit_time.as_secs_f64() * 1e3
    );

    // ---- promote into a model store ---------------------------------
    let dir = std::env::temp_dir().join(format!("mfod-save-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = ModelStore::open(&dir).unwrap();
    let t_save = Instant::now();
    let e1 = store
        .promote(&fitted.snapshot().unwrap(), 1, "trees-60")
        .unwrap();
    let save_time = t_save.elapsed();
    println!(
        "snapshot: generation {} ({} bytes) promoted into {} in {:.2} ms",
        e1.generation,
        e1.len,
        dir.display(),
        save_time.as_secs_f64() * 1e3
    );

    // ---- reload in a fresh registry (a "restarted serving box") ------
    let registry: ModelRegistry<FittedPipeline> = ModelRegistry::new();
    let t_load = Instant::now();
    let served = registry.sync_store(&dir).unwrap();
    let load_time = t_load.elapsed();
    assert_eq!(served, Some(e1.generation), "snapshot must load");
    println!(
        "registry: store generation {} (registry generation {}) in {:.2} ms \
         (refit would cost {:.1} ms → {:.0}x restart speedup)",
        e1.generation,
        registry.generation(),
        load_time.as_secs_f64() * 1e3,
        fit_time.as_secs_f64() * 1e3,
        fit_time.as_secs_f64() / load_time.as_secs_f64().max(1e-9)
    );

    // ---- background watcher: polls are no-ops until the log moves ----
    // `watch_store` re-runs sync_store on an interval from its own
    // thread; while the deploy log's active generation is the one already
    // served, a poll reads the log and returns without touching the
    // snapshot, so hot-swap needs no call on the serving path at all —
    // just promote (or roll back) through the store.
    let registry = Arc::new(registry);
    let watcher = registry.watch_store(&dir, std::time::Duration::from_millis(10));
    let polls_before = watcher.polls();
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while watcher.polls() < polls_before + 2 {
        assert!(
            Instant::now() < deadline,
            "watcher stopped polling within 30s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(registry.generation(), 1);
    println!(
        "watcher: {} no-op polls, nothing promoted → generation still 1",
        watcher.polls()
    );

    // ---- serve, hot-swapping mid-stream ------------------------------
    // First half of the "stream" scores against the reloaded generation;
    // the handle is held for the whole stream, as a scoring thread would.
    let half = test.len() / 2;
    let in_flight = registry.active().unwrap();
    let first_half = in_flight.score(&test.samples()[..half]).unwrap();

    // An operator promotes a genuinely new generation (a refit with a
    // smaller forest); the *watcher* notices and swaps it atomically —
    // the in-flight handle is untouched and nobody called the registry.
    let gen2 = GeomOutlierPipeline::new(
        PipelineConfig::fast(),
        Arc::new(Curvature),
        Arc::new(IsolationForest {
            n_trees: 30,
            ..Default::default()
        }),
    )
    .fit(train.samples())
    .unwrap();
    let snapshot: PipelineSnapshot = gen2.snapshot().unwrap();
    let e2 = store.promote(&snapshot, 2, "trees-30").unwrap();
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while registry.generation() < 2 {
        assert!(
            Instant::now() < deadline,
            "watcher failed to install generation {} within 30s",
            e2.generation
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    println!(
        "hot-swap: generation {} now active, installed by the watcher \
         (poll #{}) with no operator call",
        registry.generation(),
        watcher.polls()
    );
    let fresh = registry.active().unwrap().score(test.samples()).unwrap();
    let auc_fresh = mfod::eval::auc(&fresh, test.labels()).unwrap();

    // A rollback is one log append; the watcher follows it too, and the
    // newer snapshot file still on disk never comes back on its own.
    store.rollback(e1.generation).unwrap();
    let deadline = Instant::now() + std::time::Duration::from_secs(30);
    while registry.generation() < 3 {
        assert!(
            Instant::now() < deadline,
            "watcher failed to follow the rollback within 30s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let polls = watcher.polls();
    while watcher.polls() < polls + 2 {
        assert!(
            Instant::now() < deadline,
            "watcher stopped polling within 30s"
        );
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    assert_eq!(registry.generation(), 3, "polls must keep the rollback");
    let rolled_back = registry.active().unwrap().score(test.samples()).unwrap();
    assert_bits_eq(&reference, &rolled_back, "rolled-back generation");
    println!(
        "rollback: store generation {} active again (registry generation {}), \
         kept across {} more polls",
        e1.generation,
        registry.generation(),
        watcher.polls() - polls
    );
    watcher.stop();

    // The in-flight stream finishes on the generation it started with…
    let second_half = in_flight.score(&test.samples()[half..]).unwrap();

    // ---- verify bit-exactness end to end -----------------------------
    let mut streamed = first_half;
    streamed.extend(second_half);
    assert_bits_eq(
        &reference,
        &streamed,
        "in-flight stream across the hot-swap",
    );
    let auc = mfod::eval::auc(&streamed, test.labels()).unwrap();
    println!(
        "verified: {} test scores bit-identical to the in-memory fit across \
         promote → reload → hot-swap → rollback (in-flight AUC {auc:.3}, \
         new generation AUC {auc_fresh:.3})",
        streamed.len()
    );

    std::fs::remove_dir_all(&dir).unwrap();
}
