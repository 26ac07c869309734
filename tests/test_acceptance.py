"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The oracle criteria (1-7, 11) are cheap; the behavioral
reproductions (8-10) train real ensembles on synthetic data and take a few
minutes total.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

import oracles
import synth
from hmm_ensemble import (
    EnsembleConfig,
    EnsembleModel,
    MlpModel,
    TrainConfig,
    average_precision,
    expected_unsampled_fraction,
    gradient_check,
    init_random,
    log_likelihood,
    make_training_jobs,
    matchup_count,
    roc_auc,
    sample,
    score_corpus,
    similarity_matrix,
    subsample_imbalance,
    baum_welch,
    train_ensemble,
    train_jobs,
)
from hmm_ensemble.cli import main as cli_main

N_WORKERS = 2


def report(num, desc, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_forward_likelihood_oracle():
    rng = np.random.default_rng(1001)
    start = time.time()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        m = int(rng.integers(2, 5))
        T = int(rng.integers(1, 9))
        model = oracles.random_model(rng, n, m)
        seq = rng.integers(0, m, size=T)
        expect = oracles.brute_likelihood(model, seq)
        got = np.exp(log_likelihood(model, seq))
        worst = max(worst, abs(got - expect) / expect)
    elapsed = time.time() - start
    report(
        1,
        "forward likelihood matches brute-force path enumeration",
        worst < 1e-10 and elapsed < 10.0,
        f"max rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_likelihood_normalization():
    rng = np.random.default_rng(1002)
    seqs = oracles.enumerate_tuples(2, 6)
    worst = 0.0
    for _ in range(20):
        model = oracles.random_model(rng, int(rng.integers(1, 5)), 2)
        total = sum(np.exp(log_likelihood(model, s)) for s in seqs)
        worst = max(worst, abs(total - 1.0))
    report(
        2,
        "exp(log-likelihood) sums to 1 over all length-6 binary sequences",
        worst < 1e-8,
        f"max |sum - 1| = {worst:.2e}",
    )


def test_criterion_3_baum_welch_oracle():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for trial in range(50):
        m = int(rng.integers(2, 4))
        seqs = [rng.integers(0, m, size=int(rng.integers(2, 7)))
                for _ in range(int(rng.integers(1, 4)))]
        cfg = TrainConfig(max_iters=1)
        model, _ = baum_welch(seqs, m, 2, cfg, np.random.default_rng(trial))
        start = init_random(2, m, np.random.default_rng(trial))
        pi_c, trans_c, emit_c = oracles.brute_em_counts(start, seqs)
        worst = max(
            worst,
            np.max(np.abs(model.pi - oracles.floor_renormalize(pi_c, cfg.floor)[0])),
            np.max(np.abs(model.A - oracles.floor_renormalize(trans_c, cfg.floor))),
            np.max(np.abs(model.B - oracles.floor_renormalize(emit_c, cfg.floor))),
        )
    slack = 0.0
    for trial in range(10):
        gen = oracles.random_model(rng, 2, 3)
        seqs = [sample(gen, 10, rng) for _ in range(15)]
        _, history = baum_welch(
            seqs, 3, 2, TrainConfig(max_iters=25), np.random.default_rng(trial)
        )
        slack = max(slack, float(-min(np.diff(history), default=0.0)))
    report(
        3,
        "one EM iteration matches brute-force posterior counts; histories non-decreasing",
        worst < 1e-8 and slack < 1e-6,
        f"max count err {worst:.2e}, worst history dip {slack:.2e}",
    )


def test_criterion_4_composite_score_oracle():
    rng = np.random.default_rng(1004)
    ok = True
    for trial in range(1000):
        n_p = int(rng.integers(1, 12))
        n_n = int(rng.integers(1, 12))
        pos = rng.normal(scale=20, size=n_p)
        neg = rng.normal(scale=20, size=n_n)
        if trial % 3 == 0:  # engineer exact ties across the two groups
            k = min(n_p, n_n)
            neg[:k] = pos[:k]
        if trial % 7 == 0:
            pos[:] = pos[0]
            neg[:] = pos[0]
        if matchup_count(pos, neg) != oracles.brute_matchups(pos, neg):
            ok = False
            break
    report(4, "composite score equals naive double-loop count with ties at 0", ok)


def test_criterion_5_metric_oracles():
    auc = roc_auc([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
    ap = average_precision([0, 0, 1, 1], [0.1, 0.4, 0.35, 0.8])
    exact = auc == 0.75 and ap == 0.5 * 1.0 + 0.5 * (2 / 3)
    rng = np.random.default_rng(1005)
    worst = 0.0
    for trial in range(500):
        n = int(rng.integers(4, 201))
        labels = rng.integers(0, 2, size=n)
        labels[:2] = [0, 1]
        if trial % 2:
            scores = rng.normal(size=n)
        else:
            scores = rng.integers(0, 8, size=n).astype(float)
        worst = max(
            worst,
            abs(roc_auc(labels, scores) - oracles.brute_roc_auc(labels, scores)),
            abs(average_precision(labels, scores)
                - oracles.brute_average_precision(labels, scores)),
        )
    report(
        5,
        "AUC/AP match quadratic oracles; worked 4-point examples exact",
        exact and worst < 1e-12,
        f"max abs err {worst:.2e}",
    )


def test_criterion_6_mlp_gradient_check():
    rng = np.random.default_rng(1006)
    worst = 0.0
    for seed in range(20):
        model = MlpModel(4, (6, 5), dropout=0.0, seed=seed)
        x = rng.normal(size=(5, 4))
        y = rng.integers(0, 2, size=5).astype(float)
        worst = max(worst, gradient_check(model, x, y))
    report(
        6,
        "MLP analytic gradients match central differences over 20 seeds",
        worst < 1e-4,
        f"max rel err {worst:.2e}",
    )


def test_criterion_7_pipeline_determinism(tmp_path):
    corpus = tmp_path / "train.csv"
    rng = np.random.default_rng(1007)
    pos_gen, neg_gen = synth.generator_pair()
    rows = ["sequence,label"]
    for _ in range(25):
        rows.append("".join(synth.TOKENS[t] for t in sample(pos_gen, 30, rng)) + ",1")
        rows.append("".join(synth.TOKENS[t] for t in sample(neg_gen, 30, rng)) + ",0")
    corpus.write_text("\n".join(rows) + "\n", encoding="utf-8")
    config = tmp_path / "run.ini"
    config.write_text(
        f"[data]\ntrain_csv = {corpus}\n\n[ensemble]\nn_pos_models = 3\n"
        "n_neg_models = 3\nsubset_fraction = 0.5\nstate_counts = 2,3\n"
        "master_seed = 77\n\n[train]\nmax_iters = 4\n",
        encoding="utf-8",
    )
    artifacts = {}
    for run in ("a", "b"):
        out = tmp_path / run
        assert cli_main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert cli_main(["score", "--model", str(out / "model.json"),
                         "--data", str(corpus), "--out", str(out)]) == 0
        assert cli_main(["evaluate", "--model", str(out / "model.json"),
                         "--data", str(corpus), "--calibration-fraction", "0.4",
                         "--out", str(out)]) == 0
        artifacts[run] = tuple(
            (out / name).read_bytes()
            for name in ("model.json", "scores.csv", "evaluation.json")
        )
    par = tmp_path / "par"
    assert cli_main(["train", "--config", str(config), "--out", str(par),
                     "--threads", "2"]) == 0
    identical = artifacts["a"] == artifacts["b"]
    par_same = (par / "model.json").read_bytes() == (tmp_path / "a" / "model.json").read_bytes()
    report(
        7,
        "rerun of train/score/evaluate byte-identical; parallel == serial",
        identical and par_same,
    )


@pytest.fixture(scope="module")
def desk():
    """Shared desk-scale reproduction: balanced + 50:1 ensembles and singletons."""
    results = {}
    train = synth.sample_dataset(2000, 2000, 200, seed=1)
    test = synth.sample_dataset(1000, 1000, 200, seed=2)
    ens_cfg = EnsembleConfig(
        n_pos_models=20, n_neg_models=20, subset_fraction=0.1,
        state_counts=(3, 4, 5), train=TrainConfig(max_iters=25),
        master_seed=42,
    )
    single_cfg = EnsembleConfig(
        n_pos_models=1, n_neg_models=1, subset_fraction=1.0,
        state_counts=(5,), train=TrainConfig(max_iters=25),
        master_seed=42,
    )
    start = time.time()
    ens = train_ensemble(train, ens_cfg, n_workers=N_WORKERS)
    results["auc_ens"] = roc_auc(test.labels, score_corpus(ens, test.sequences))
    single = train_ensemble(train, single_cfg, n_workers=N_WORKERS)
    results["auc_single"] = roc_auc(test.labels, score_corpus(single, test.sequences))
    results["balanced_seconds"] = time.time() - start

    imbalanced = subsample_imbalance(train, ratio=50, seed=9)
    ens_i = train_ensemble(imbalanced, ens_cfg, n_workers=N_WORKERS)
    results["auc_ens_imb"] = roc_auc(test.labels, score_corpus(ens_i, test.sequences))
    single_i = train_ensemble(imbalanced, single_cfg, n_workers=N_WORKERS)
    results["auc_single_imb"] = roc_auc(test.labels, score_corpus(single_i, test.sequences))
    return results


def test_criterion_8_ensemble_beats_singleton(desk):
    auc_e, auc_s = desk["auc_ens"], desk["auc_single"]
    ok = auc_e >= 0.90 and auc_e >= auc_s + 0.05 and desk["balanced_seconds"] < 300
    report(
        8,
        "ensemble beats singleton on balanced synthetic data",
        ok,
        f"ensemble {100*auc_e:.1f} vs singleton {100*auc_s:.1f} AUC, "
        f"{desk['balanced_seconds']:.0f}s",
    )


def test_criterion_9_imbalance_robustness(desk):
    auc_e, auc_ei, auc_si = desk["auc_ens"], desk["auc_ens_imb"], desk["auc_single_imb"]
    ok = abs(auc_e - auc_ei) <= 0.10 and auc_ei > auc_si
    report(
        9,
        "ensemble robust to 50:1 training imbalance",
        ok,
        f"balanced {100*auc_e:.1f} -> imbalanced {100*auc_ei:.1f} AUC "
        f"(singleton {100*auc_si:.1f})",
    )


def _build_from_jobs(dataset, config, jobs, template):
    models, hist = train_jobs(dataset, jobs, template, n_workers=N_WORKERS)
    n_pos = config.n_pos_models
    return EnsembleModel(
        positive_models=models[:n_pos],
        negative_models=models[n_pos:],
        vocabulary=dataset.vocabulary,
        config=config,
        seeds=[(j.subset_seed, j.model_seed) for j in jobs],
        histories=hist,
    )


def test_criterion_10_degenerate_diversity():
    train = synth.sample_dataset(600, 600, 200, seed=1)
    cfg = EnsembleConfig(
        n_pos_models=20, n_neg_models=20, subset_fraction=0.05,
        state_counts=(5,), train=TrainConfig(max_iters=25),
        master_seed=42,
    )
    jobs = make_training_jobs(train, cfg)
    healthy = _build_from_jobs(train, cfg, jobs, cfg.train)
    sim_h = similarity_matrix(healthy)
    h = 0.5 * (sim_h.intra_block_mean("pos_") + sim_h.intra_block_mean("neg_"))

    # degenerate run: within each class only 5 distinct job seeds, 5 iterations
    def shared_source(k, label):
        return jobs[k % 5 + (0 if label == 1 else cfg.n_pos_models)]

    degen_jobs = [
        replace(
            job,
            subset_seed=shared_source(k, job.label).subset_seed,
            model_seed=shared_source(k, job.label).model_seed,
            indices=shared_source(k, job.label).indices,
        )
        for k, job in enumerate(jobs)
    ]
    degen = _build_from_jobs(train, cfg, degen_jobs, replace(cfg.train, max_iters=5))
    sim_d = similarity_matrix(degen)
    d = 0.5 * (sim_d.intra_block_mean("pos_") + sim_d.intra_block_mean("neg_"))
    report(
        10,
        "shared-seed/5-iteration ensemble is measurably more redundant",
        d - h >= 0.05,
        f"intra-class similarity {h:.3f} -> {d:.3f} (uplift {d-h:.3f})",
    )


def test_criterion_11_coverage_formula():
    expect = expected_unsampled_fraction(0.01, 250)
    formula_ok = abs(expect - 0.0811) < 5e-4
    rng_template = synth.sample_dataset(1000, 20, 12, seed=3)
    fractions = []
    for master_seed in range(50):
        cfg = EnsembleConfig(
            n_pos_models=250, n_neg_models=1, subset_fraction=0.01,
            state_counts=(2,), train=TrainConfig(max_iters=1),
            master_seed=master_seed,
        )
        jobs = make_training_jobs(rng_template, cfg)
        covered = set()
        for job in jobs:
            if job.label == 1:
                covered.update(job.indices.tolist())
        fractions.append(1.0 - len(covered) / 1000)
    empirical = float(np.mean(fractions))
    report(
        11,
        "unsampled-fraction formula matches empirical job constructions",
        formula_ok and abs(empirical - expect) < 0.02,
        f"formula {expect:.4f}, empirical {empirical:.4f}",
    )
