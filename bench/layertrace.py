"""Per-layer tracing from outside the program.

``install`` replaces public functions of the program's modules with timed
wrappers, in every module namespace that calls them, so the program itself
is unchanged. Each wrapper records one span (inclusive wall time) plus work
counts taken from its arguments and result. A metric that is re-entered
(load_csv calling read_csv_rows, say) records only the outer call.

Spans are kept in memory and written as JSON lines to ``<dir>/<pid>.jsonl``
when the process exits. Pool workers are forked with the wrappers already in
place; they drop the records inherited from the parent and append each span
to their own file at once, because pool workers leave without running exit
handlers.
"""

from __future__ import annotations

import atexit
import json
import os
import time
from functools import wraps


class Tracer:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.records: list[dict] = []
        self.active: set[str] = set()
        self.enabled = True
        self.in_worker = False
        atexit.register(self.flush)

    def _adopt_process(self) -> None:
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.records = []
            self.active = set()
            self.in_worker = True

    def record(self, metric: str, seconds: float, **counts) -> None:
        self._adopt_process()
        self.records.append({"m": metric, "s": seconds, **counts})
        if self.in_worker:
            self.flush()

    def flush(self) -> None:
        if not self.records:
            return
        path = os.path.join(self.out_dir, f"{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")
        self.records = []

    def wrap(self, modules, name: str, metric: str, count=None) -> None:
        """Time every call of ``name`` as ``metric`` in each given module."""
        fn = getattr(modules[0], name)

        @wraps(fn)
        def traced(*args, **kwargs):
            self._adopt_process()
            if not self.enabled or metric in self.active:
                return fn(*args, **kwargs)
            self.active.add(metric)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                self.active.discard(metric)
            elapsed = time.perf_counter() - start
            self.record(metric, elapsed, **(count(args, kwargs, out) if count else {}))
            return out

        for module in modules:
            setattr(module, name, traced)


def _forward_counts(args, kwargs, out):
    model, obs = args[0], args[1]
    S, T = obs.shape
    return {"calls": 1, "steps": T, "cells": S * T * model.n ** 2}


def _em_counts(args, kwargs, out):
    sequences, config = args[0], args[2]
    iters = len(out[1])
    tokens = sum(len(s) for s in sequences)
    return {"iters": iters, "cells": iters * tokens * config.n_states ** 2}


def _train_jobs_counts(args, kwargs, out):
    workers = args[3] if len(args) > 3 else kwargs.get("n_workers", 1)
    return {"workers": max(1, int(workers))}


def _tokens(seqs) -> dict:
    return {"tokens": sum(len(s) for s in seqs)}


def _similarity_counts(args, kwargs, out):
    k = out.values.shape[0]
    return {"pairs": k * (k - 1) // 2}


def _mlp_counts(args, kwargs, out):
    return {"epochs": args[2].epochs}


def install(out_dir: str) -> Tracer:
    """Wrap the layer boundaries of an imported hmm_ensemble package."""
    from hmm_ensemble import cli, data, diversity, ensemble, hmm, metrics, mlp

    tracer = Tracer(out_dir)
    tracer.wrap([hmm, ensemble], "forward_batch", "hmm.forward", _forward_counts)
    tracer.wrap([hmm, ensemble], "baum_welch", "hmm.baum_welch", _em_counts)
    tracer.wrap([ensemble], "make_training_jobs", "ensemble.plan")
    tracer.wrap([ensemble], "train_jobs", "ensemble.train_jobs", _train_jobs_counts)
    tracer.wrap([ensemble], "log_likelihood_matrix", "ensemble.loglik_matrix")
    tracer.wrap([ensemble], "matchup_count", "ensemble.matchup")
    tracer.wrap([ensemble], "feature_vectors", "ensemble.features")
    tracer.wrap([ensemble], "choose_threshold", "ensemble.threshold")
    tracer.wrap([data], "load_csv", "data.load", lambda a, k, out: _tokens(out.sequences))
    tracer.wrap([data], "read_csv_rows", "data.load", lambda a, k, out: _tokens(out[0]))
    tracer.wrap([cli], "_load_corpus", "data.load", lambda a, k, out: _tokens(out[0]))
    tracer.wrap([diversity, cli], "similarity_matrix", "diversity.similarity", _similarity_counts)
    tracer.wrap([metrics], "roc_auc", "metrics.auc_ap")
    tracer.wrap([metrics], "average_precision", "metrics.auc_ap")
    tracer.wrap([mlp], "mlp_train", "mlp.train", _mlp_counts)
    tracer.wrap([mlp], "mlp_predict", "mlp.predict")
    tracer.wrap([cli], "_load_model", "cli.model_load")
    return tracer


def load(out_dir: str) -> dict[str, dict]:
    """Sum every field of every span under ``out_dir`` by metric."""
    totals: dict[str, dict] = {}
    for name in sorted(os.listdir(out_dir)):
        if not name.endswith(".jsonl"):
            continue
        with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
            for line in fh:
                rec = json.loads(line)
                acc = totals.setdefault(rec.pop("m"), {"n": 0})
                acc["n"] += 1
                for key, value in rec.items():
                    acc[key] = acc.get(key, 0) + value
    return totals
