"""Launch one hmm-ensemble subcommand the way the console script does.

Usage: python3 bench/clirun.py [--trace DIR] [--mark FILE | --setup-only FILE] \
           -- SUBCOMMAND ARGS...

--mark FILE writes the CLOCK_MONOTONIC time at which train_ensemble is
entered, which ends the train command's set-up. --setup-only FILE writes the
same time and then exits with code 0 instead of training. --trace DIR
installs the layer tracer and records how long importing hmm_ensemble.cli
took.
Needs hmm_ensemble on PYTHONPATH.
"""

import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--")
    opts, command = argv[:split], argv[split + 1 :]
    options = dict(zip(opts[::2], opts[1::2]))
    start = time.perf_counter()
    from hmm_ensemble import cli, ensemble

    imported = time.perf_counter() - start
    if "--trace" in options:
        import layertrace

        layertrace.install(options["--trace"]).record("cli.import", imported)
    mark = options.get("--mark") or options.get("--setup-only")
    if mark:
        train_ensemble = ensemble.train_ensemble

        def marked(*args, **kwargs):
            with open(mark, "w", encoding="utf-8") as fh:
                fh.write(repr(time.monotonic()))
            if "--setup-only" in options:
                raise SystemExit(0)
            return train_ensemble(*args, **kwargs)

        ensemble.train_ensemble = marked
    return cli.main(command)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
