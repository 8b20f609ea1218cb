//! Integration tests of the Fig. 3 experiment harness (smoke-scale) and of
//! the qualitative claims the figure supports.

use mfod::experiment::{format_fig3, run_fig3, run_fig3_on, Fig3Config};
use mfod::prelude::*;

#[test]
fn smoke_experiment_runs_and_reports() {
    let cfg = Fig3Config::smoke();
    let rows = run_fig3(&cfg).unwrap();
    assert_eq!(rows.len(), cfg.contamination_levels.len());
    for row in &rows {
        for m in ["iFor(Curvmap)", "OCSVM(Curvmap)", "FUNTA", "Dir.out"] {
            let s = row.summary.get(m).unwrap();
            assert!((0.0..=1.0).contains(&s.mean), "{m}: {}", s.mean);
            assert_eq!(s.values.len(), cfg.repetitions);
        }
    }
    let table = format_fig3(&rows);
    assert!(table.contains("AUC vs. contamination level"));
}

#[test]
fn experiment_is_reproducible() {
    let cfg = Fig3Config::smoke();
    let a = run_fig3(&cfg).unwrap();
    let b = run_fig3(&cfg).unwrap();
    for (ra, rb) in a.iter().zip(&b) {
        for m in ["iFor(Curvmap)", "FUNTA"] {
            assert_eq!(
                ra.summary.get(m).unwrap().values,
                rb.summary.get(m).unwrap().values,
                "method {m} not reproducible"
            );
        }
    }
}

#[test]
fn external_data_entrypoint() {
    // run_fig3_on accepts pre-built (e.g. real ECG200) data.
    let data = EcgSimulator::new(EcgConfig {
        m: 30,
        ..Default::default()
    })
    .unwrap()
    .generate(40, 20, 5)
    .unwrap()
    .augment_with(0, |y| y * y)
    .unwrap();
    let cfg = Fig3Config {
        contamination_levels: vec![0.10],
        repetitions: 2,
        train_size: 30,
        pipeline: PipelineConfig {
            selector: BasisSelector {
                sizes: vec![10],
                lambdas: vec![1e-2],
                ..Default::default()
            },
            grid_len: 30,
            ..Default::default()
        },
        nu_tuner: NuTuner {
            folds: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let rows = run_fig3_on(&cfg, &data).unwrap();
    assert_eq!(rows.len(), 1);
}

#[test]
fn geometric_methods_competitive_at_moderate_scale() {
    // A mid-size run (not the full 50 reps) checking the figure's key
    // qualitative content: the curvature pipeline is competitive with the
    // best depth baseline and clearly better than FUNTA.
    let cfg = Fig3Config {
        contamination_levels: vec![0.10],
        repetitions: 4,
        train_size: 60,
        n_normal: 80,
        n_abnormal: 40,
        ecg: EcgConfig {
            m: 60,
            ..Default::default()
        },
        pipeline: PipelineConfig {
            selector: BasisSelector {
                sizes: vec![14],
                lambdas: vec![1e-2],
                ..Default::default()
            },
            grid_len: 60,
            ..Default::default()
        },
        nu_tuner: NuTuner {
            folds: 3,
            ..Default::default()
        },
        ..Default::default()
    };
    let rows = run_fig3(&cfg).unwrap();
    let s = &rows[0].summary;
    let ifor = s.get("iFor(Curvmap)").unwrap().mean;
    let funta = s.get("FUNTA").unwrap().mean;
    let dirout = s.get("Dir.out").unwrap().mean;
    assert!(ifor > funta, "iFor(Curvmap) {ifor} must beat FUNTA {funta}");
    assert!(
        ifor > dirout - 0.08,
        "iFor(Curvmap) {ifor} vs Dir.out {dirout}"
    );
    assert!(ifor > 0.85, "iFor(Curvmap) {ifor}");
}

#[test]
fn measured_fig3_ordering_holds_at_every_level() {
    // The benchmark's golden configuration: Fig3Config::default() (data
    // seed 2020, split seed 38) at 2 repetitions per level. Its measured
    // means: Dir.out ≈ 0.97–0.98 > iFor(Curvmap) ≈ OCSVM(Curvmap) ≈ 0.95
    // ≫ FUNTA ≈ 0.65–0.70.
    let cfg = Fig3Config {
        repetitions: 2,
        ..Fig3Config::default()
    };
    assert_eq!((cfg.data_seed, cfg.split_seed), (2020, 38));
    let rows = run_fig3(&cfg).unwrap();
    assert_eq!(rows.len(), 5);
    for row in &rows {
        let mean = |m: &str| row.summary.get(m).unwrap().mean;
        let c = row.contamination;
        let (dirout, ifor) = (mean("Dir.out"), mean("iFor(Curvmap)"));
        let (ocsvm, funta) = (mean("OCSVM(Curvmap)"), mean("FUNTA"));
        assert!(dirout > ifor, "c = {c}: Dir.out {dirout} vs iFor {ifor}");
        assert!(dirout > ocsvm, "c = {c}: Dir.out {dirout} vs OCSVM {ocsvm}");
        assert!(ifor - funta > 0.2, "c = {c}: iFor {ifor} vs FUNTA {funta}");
        assert!(
            ocsvm - funta > 0.2,
            "c = {c}: OCSVM {ocsvm} vs FUNTA {funta}"
        );
    }
}

#[test]
fn invalid_configs_rejected() {
    let mut cfg = Fig3Config::smoke();
    cfg.contamination_levels = vec![1.5];
    assert!(run_fig3(&cfg).is_err());
    let mut cfg = Fig3Config::smoke();
    cfg.repetitions = 0;
    assert!(run_fig3(&cfg).is_err());
    let mut cfg = Fig3Config::smoke();
    cfg.train_size = 10_000;
    assert!(run_fig3(&cfg).is_err());
}
