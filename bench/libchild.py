"""One round of a library-API workload, run as its own process.

Usage: python3 bench/libchild.py INPUT_DIR RESULT_JSON [TRACE_DIR]

Loads the round's config and CSVs, trains the ensemble serially, scores the
test corpus, computes AUC, AP, the F1 threshold and the similarity matrix,
and writes the outputs the benchmark checks, with monotonic timestamps
(CLOCK_MONOTONIC, shared by all processes on the host), to RESULT_JSON.
Needs hmm_ensemble on PYTHONPATH.
"""

import json
import sys
import time


def main(input_dir: str, result_path: str, trace_dir: str | None = None) -> None:
    from hmm_ensemble import config, data, diversity, ensemble, metrics

    tracer = None
    if trace_dir:
        import layertrace

        tracer = layertrace.install(trace_dir)

    run_cfg = config.load_run_config(f"{input_dir}/run.ini")
    ens_cfg = run_cfg.ensemble_config()
    train = data.load_csv(f"{input_dir}/train.csv")
    texts, labels = data.read_csv_rows(f"{input_dir}/test.csv")
    test = [train.vocabulary.encode(t) for t in texts]

    t_train = time.monotonic()
    model = ensemble.train_ensemble(train, ens_cfg, n_workers=1)
    t_score = time.monotonic()
    scores = ensemble.score_corpus(model, test)
    t_scored = time.monotonic()
    auc = metrics.roc_auc(labels, scores)
    ap = metrics.average_precision(labels, scores)
    threshold = ensemble.choose_threshold(scores, labels)
    sim = diversity.similarity_matrix(model)
    t_done = time.monotonic()

    # Likelihoods of the sampled sequences, for the reference check only.
    if tracer:
        tracer.enabled = False
    with open(f"{input_dir}/sample.json", encoding="utf-8") as fh:
        sample = json.load(fh)
    ll_sample = ensemble.log_likelihood_matrix(model, [test[i] for i in sample])

    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "t_train": t_train,
                "t_score": t_score,
                "t_scored": t_scored,
                "t_done": t_done,
                "scores": [int(s) for s in scores],
                "auc": auc,
                "ap": ap,
                "threshold": threshold,
                "similarity": sim.values.tolist(),
                "ll_sample": ll_sample.tolist(),
                "model": model.to_dict(),
                "histories": model.histories,
            },
            fh,
        )


if __name__ == "__main__":
    main(*sys.argv[1:])
