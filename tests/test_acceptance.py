"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines.  The full-study criterion (9) simulates 11 users x 14 days
and takes a few minutes; everything else is fast.
"""
import hashlib
import json
import math
import time

import numpy as np
import pytest

from test_dataset import brute_force_impute, _matrix
from test_explain import forest, oracle_shap, random_forest_model, stump
from test_hrv import modulated_nn, oracle_features
from test_signals import analog_gain_oracle, measure_tone_gain

from stressmon import cli, hrv, sema, signals
from stressmon.dataset import binarize, knn_impute, write_matrix_csv
from stressmon.learn import ModelSpec, grouped_cv, personalization_eval, split_users_into_folds
from stressmon.cli import _restrict_features, featurize_directory
from stressmon.explain import shap_values
from stressmon.sim import ParticipantParams, SimConfig, run_simulation, synth_ppg

FS = 20.0


def report(n, text):
    print(f"\n[PASS] criterion {n}: {text}")


def test_c01_filter_oracle():
    t0 = time.monotonic()
    design = signals.default_design()
    worst = 0.0
    for f in (0.05, 0.7, 1.5, 3.5, 4.5):
        measured = measure_tone_gain(design, f)
        oracle = analog_gain_oracle(3, 0.7, 3.5, FS, f)
        rel = abs(measured - oracle) / oracle
        worst = max(worst, rel)
        assert rel <= 0.05, (f, measured, oracle)
    burst = signals.SensorBurst("u", "ppg", 0, FS, np.ones(int(120 * FS)))
    y = signals.bandpass_filter(burst, design).samples
    residual = np.abs(y[int(5 * FS):-int(5 * FS)]).max()
    dc_attenuation_db = -20 * math.log10(max(residual, 1e-300))
    assert dc_attenuation_db > 30.0
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    report(1, f"probe-tone gains within {worst:.2e} rel of the analog oracle, "
              f"DC attenuation {dc_attenuation_db:.0f} dB, {elapsed:.2f}s")


def test_c02_hrv_oracle():
    rng = np.random.default_rng(20)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(45, 150))
        nn = rng.uniform(450, 1200, n).tolist()
        times = np.cumsum(nn)
        feats = hrv.hrv_features(nn, times)
        expect = oracle_features(nn)
        for name, value in expect.items():
            assert getattr(feats, name) == pytest.approx(value, abs=1e-9), name
        assert feats.bpm * feats.ibi == pytest.approx(60_000.0, abs=1e-9)
        assert feats.s - math.pi * feats.sd1 * feats.sd2 == 0.0
        checked += 1
    for f_mod in (0.15, 0.25, 0.35):
        nn, times = modulated_nn(rate_hz=f_mod)
        br = hrv.estimate_br(nn, times)
        assert abs(br.value - 60.0 * f_mod) <= 0.5
    report(2, f"{checked} NN sequences match the brute-force oracle to 1e-9; "
              f"BR within 0.5 breaths/min at 9/15/21")


def test_c03_peak_detection():
    t0 = time.monotonic()
    design = signals.default_design()
    rng = np.random.default_rng(21)

    def recovery(noisy):
        total = hits = 0
        for trial in range(50):
            bpm = float(rng.uniform(50, 150))
            clean, truth = synth_ppg(bpm, 120, FS, 0.0,
                                     seed=[31 + noisy, trial])
            if noisy:
                noise_std = math.sqrt(np.mean(clean.samples ** 2) / 10.0)  # 10 dB
                burst, _ = synth_ppg(bpm, 120, FS, noise_std,
                                     seed=[31 + noisy, trial])
            else:
                burst = clean
            filtered = signals.bandpass_filter(burst, design)
            peaks = hrv.detect_peaks(filtered)
            d = np.abs(truth[:, None] - peaks.peak_times_ms[None, :]).min(axis=1)
            hits += int(np.sum(d <= 2 * 1000.0 / FS + 1e-9))
            total += len(truth)
        return hits / total

    clean_rate = recovery(noisy=0)
    noisy_rate = recovery(noisy=1)
    elapsed = time.monotonic() - t0
    assert clean_rate >= 0.99
    assert noisy_rate >= 0.95
    assert elapsed < 30.0
    report(3, f"recovery {clean_rate:.4f} clean / {noisy_rate:.4f} at 10 dB SNR "
              f"over 100 bursts in {elapsed:.1f}s")


def test_c04_binning_and_labeling():
    cuts = (10, 25, 50)
    from stressmon.context import discretize
    assert discretize(5, cuts) == 0 and discretize(10, cuts) == 0
    assert discretize(10.5, cuts) == 1 and discretize(25, cuts) == 1
    assert discretize(25.5, cuts) == 2 and discretize(50, cuts) == 2
    assert discretize(50.5, cuts) == 3 and discretize(100, cuts) == 3

    counts = {1: 288, 2: 142, 3: 120, 4: 20, 5: 21}
    binary = [binarize(level) for level, c in counts.items() for _ in range(c)]
    assert binary.count(0) == 288 and binary.count(1) == 303
    report(4, "battery cut-off mapping reproduced; level counts "
              "(288,142,120,20,21) binarize to (288, 303)")


def test_c05_imputation_oracle():
    rng = np.random.default_rng(22)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(4, 51))
        d = int(rng.integers(2, 11))
        vals = rng.normal(size=(n, d)) * rng.uniform(0.5, 30, size=d)
        miss = rng.random((n, d)) < 0.2
        for j in range(d):
            if miss[:, j].all():
                miss[rng.integers(0, n), j] = False
        vals = np.where(miss, np.nan, vals)
        k = int(rng.integers(1, 7))
        weighting = ("uniform", "inverse_distance")[trial % 2]
        got = knn_impute(_matrix(vals), k=k, weighting=weighting).values
        expect = brute_force_impute(vals, miss, k=k, weighting=weighting)
        gap = float(np.max(np.abs(got - expect))) if miss.any() else 0.0
        worst = max(worst, gap)
        assert gap <= 1e-9, trial
    complete = rng.normal(size=(20, 5))
    m1 = knn_impute(_matrix(complete), k=3)
    m2 = knn_impute(m1, k=3)
    assert np.array_equal(m1.values, m2.values) and np.array_equal(m1.values, complete)
    report(5, f"200 random matrices match the exhaustive-distance oracle "
              f"(worst gap {worst:.2e}); idempotent on complete input")


def test_c06_shapley_exactness():
    t0 = time.monotonic()
    rng = np.random.default_rng(23)
    worst = 0.0
    for trial in range(100):
        d = int(rng.integers(2, 9))
        model = random_forest_model(rng, d=d, n_rows=30)
        background = rng.normal(size=(int(rng.integers(1, 6)), d))
        row = rng.normal(size=d)
        exp = shap_values(model, row, background)
        # local accuracy
        pred = model.predict_proba(row[None])[0]
        assert abs(exp.prediction - pred) < 1e-9
        # independent coalition oracle
        phi, base = oracle_shap(model, row, background)
        gap = float(np.max(np.abs(exp.shap_values - phi)))
        worst = max(worst, gap)
        assert gap < 1e-9 and abs(exp.base_value - base) < 1e-9
    # dummy axiom: a feature no stump uses gets exactly zero
    model = forest([stump(0, 0.0, 0.1, 0.9)], d=4)
    exp = shap_values(model, rng.normal(size=4), rng.normal(size=(6, 4)))
    assert exp.shap_values[1] == 0.0 and exp.shap_values[3] == 0.0
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    report(6, f"100 forests: local accuracy and oracle agreement within "
              f"{max(worst, 1e-300):.2e}, dummy exactly 0, {elapsed:.1f}s")


def test_c07_grouped_cv_integrity():
    users = [f"u{i:02d}" for i in range(13)]
    for seed in range(1000):
        folds = split_users_into_folds(users, 5, seed)
        flat = [u for part in folds for u in part]
        assert sorted(flat) == users          # disjoint cover
        assert all(part for part in folds)
    from test_learn_eval import make_grouped_classification
    from test_learn_eval import as_matrix
    X, y, groups = make_grouped_classification(n_users=9, rows_per_user=30, seed=3)
    matrix = as_matrix(X, y, groups)
    spec = ModelSpec(kind="rf", depth=3, n_trees=20)
    r1 = grouped_cv(matrix, spec, folds=5, seed=123)
    r2 = grouped_cv(matrix, spec, folds=5, seed=123)
    assert r1.to_dict() == r2.to_dict()
    for fold in r1.folds:
        rest = set(groups) - set(fold.test_users)
        assert not (rest & set(fold.test_users))
    report(7, "1000 seeded partitions disjoint and covering; equal seeds give "
              "identical reports")


def test_c08_sema_rules():
    rng = np.random.default_rng(24)
    pool_worn = [1.0 + rng.normal(0, 0.08, 60) for _ in range(32)]
    pool_idle = [1.0 + rng.normal(0, 0.001, 60) for _ in range(32)]
    day = sema.DAY_MS
    total_triggers = 0
    for schedule in range(10_000):
        srng = np.random.default_rng([25, schedule])
        state = sema.SemaState(user_id="u")
        wear_start = srng.uniform(0, 20) * 3_600_000
        wear_end = wear_start + srng.uniform(1, 20) * 3_600_000
        step = int(srng.uniform(2, 15) * 60_000)
        triggers = 0
        for t in range(int(srng.uniform(0, step)), day, step):
            worn = wear_start <= t < wear_end
            age = int(srng.uniform(0, 40 * 60_000))
            mags = pool_worn[schedule % 32] if worn else pool_idle[schedule % 32]
            wear = sema.WearSample(magnitudes=mags, rate_hz=4.0,
                                   newest_data_time_ms=t - age)
            decision = sema.should_trigger(state, t, wear)
            if decision.triggered:
                triggers += 1
                assert 7 * 3_600_000 <= t < day          # hours window
                assert worn                               # wearing rule
                assert age <= 15 * 60_000                 # recency rule
        assert triggers <= 7
        total_triggers += triggers
    report(8, f"10^4 random day schedules: all triggers in 07:00-24:00, worn, "
              f"recent, <= 7/day ({total_triggers} triggers total)")


STUDY_CONFIG = dict(
    n_users=11, days=14, seed=2021,
    participants=ParticipantParams(stress_bpm_delta=9.0,
                                   baseline_bpm_range=(60.0, 84.0)),
    per_user={
        "u09": {"invert_context": True, "stress_bpm_delta": 0.0,
                "baseline_bpm": 98.0},
        "u10": {"neutral_context": True, "screen_coupled": True,
                "stress_bpm_delta": 0.0, "baseline_bpm": 102.0},
        "u11": {"neutral_context": True, "device_on_coupled": True,
                "stress_bpm_delta": 0.0, "baseline_bpm": 106.0},
    },
)


@pytest.fixture(scope="module")
def c09_study(tmp_path_factory):
    """The full study, simulated and featurized once: its matrix and seconds."""
    t0 = time.monotonic()
    out = tmp_path_factory.mktemp("c09")
    run_simulation(SimConfig(**STUDY_CONFIG), out / "study")
    return featurize_directory(out / "study"), time.monotonic() - t0


#: What c09 produces: the sha256 of its matrix.csv, each fold F1 of both
#: grouped CVs and each user's (before, after) personalization F1.  A change
#: that alters them on purpose records them again and says why.
C09_MATRIX_SHA256 = "e43ccae98bf9fe3671e272f898ab52649f2ac26219ade9548bc4ae0718416789"
C09_FOLD_F1 = {
    "all": [0.7193675889328063, 0.7629157820240623, 0.753822629969419, 0.5402684563758389,
            0.2630813953488372],
    "ppg": [0.5719257540603248, 0.45392822502424834, 0.40374787052810907, 0.5377990430622009,
            0.5513918629550322],
}
C09_PERSONALIZATION_F1 = {"u09": (0.4920993227990971, 0.5532994923857868),
                          "u10": (0.5714285714285715, 0.5119617224880384),
                          "u11": (0.3354838709677419, 0.5037037037037038)}


def test_c09_synthetic_study(c09_study):
    matrix, study_s = c09_study
    t0 = time.monotonic()

    mean_f1 = {}
    fold_f1 = {}
    for features in ("all", "ppg"):
        view = _restrict_features(matrix, features)
        rep = grouped_cv(view, ModelSpec(kind="rf", depth=5), folds=5, seed=7)
        mean_f1[features] = rep.mean_f1
        fold_f1[features] = rep.fold_f1s
    gap = mean_f1["all"] - mean_f1["ppg"]
    assert gap >= 0.05, mean_f1

    spec = ModelSpec(kind="boosted", rounds=80, depth=4)
    view = _restrict_features(matrix, "all")
    gains = {}
    for user in ("u09", "u10", "u11"):
        res = personalization_eval(view, user, spec, seed=7)
        gains[user] = (res.f1_before, res.f1_after)
    wins = sum(after > before for before, after in gains.values())
    assert wins >= 2, gains

    elapsed = study_s + time.monotonic() - t0
    assert elapsed < 600.0
    assert fold_f1 == C09_FOLD_F1
    assert gains == C09_PERSONALIZATION_F1
    gain_txt = ", ".join(f"{u} {b:.2f}->{a:.2f}" for u, (b, a) in gains.items())
    report(9, f"multimodal F1 {mean_f1['all']:.3f} vs PPG-only "
              f"{mean_f1['ppg']:.3f} (gap {100 * gap:.1f} pts); "
              f"personalization {gain_txt} ({wins}/3 improve); "
              f"end-to-end {elapsed:.0f}s")


def test_c09_matrix_keeps_its_bytes(c09_study, tmp_path):
    write_matrix_csv(c09_study[0], tmp_path / "matrix.csv")
    assert hashlib.sha256((tmp_path / "matrix.csv").read_bytes()).hexdigest() \
        == C09_MATRIX_SHA256


def test_c10_pipeline_determinism(tmp_path):
    config = {"n_users": 3, "days": 1, "seed": 77,
              "participants": {"stress_bpm_delta": 9.0,
                               "baseline_bpm_range": [60.0, 84.0]}}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))

    def run_chain(root):
        root.mkdir()
        assert cli.main(["simulate", "--config", str(config_path),
                         "--out", str(root / "sim")]) == 0
        assert cli.main(["featurize", "--data", str(root / "sim"),
                         "--out", str(root / "matrix.csv")]) == 0
        assert cli.main(["train-eval", "--matrix", str(root / "matrix.csv"),
                         "--model", "rf", "--depth", "4", "--select-top", "5",
                         "--folds", "3", "--seed", "5",
                         "--out", str(root / "eval")]) == 0
        assert cli.main(["explain", "--model", str(root / "eval" / "model.json"),
                         "--matrix", str(root / "matrix.csv"),
                         "--max-rows", "6", "--background", "24", "--seed", "5",
                         "--out", str(root / "explain")]) == 0
        artifacts = ["sim/bursts.jsonl", "sim/context.jsonl", "sim/ema.csv",
                     "sim/triggers.jsonl", "sim/latent.csv", "sim/zones.json",
                     "matrix.csv", "matrix.csv.meta.json",
                     "eval/report.json", "eval/report.csv", "eval/model.json",
                     "explain/shap_ranking.json", "explain/beeswarm.csv"]
        return {name: hashlib.sha256((root / name).read_bytes()).hexdigest()
                for name in artifacts}

    h1 = run_chain(tmp_path / "run1")
    h2 = run_chain(tmp_path / "run2")
    assert h1 == h2
    report(10, f"simulate->featurize->train_eval->explain rerun: "
               f"{len(h1)} artifacts byte-identical")
