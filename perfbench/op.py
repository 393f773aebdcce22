"""One benchmark operation in a fresh process: set up nlss, run the CLI.

    python3 op.py ROOT CONFIG RESULT T0 TRACE CLI ARGS...

T0 is the CLOCK_MONOTONIC reading taken by the parent just before it
started this process, so set-up time counts interpreter start-up too.
Set-up ends once nlss is imported, the config is parsed and the grid and
spectrum are built; the CLI then finds the spectrum in nlss's own cache.
The measurements go to RESULT as JSON.
"""

import json
import os
import resource
import sys
import time


def _cpu(ru):
    return ru.ru_utime + ru.ru_stime


def main():
    root, config_path, result_path, t0, trace = sys.argv[1:6]
    cli_args = sys.argv[6:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import nlss

    if not os.path.abspath(nlss.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"nlss imported from {nlss.__file__}, not from {src}")
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer().install()
        left = tracer.unwrapped()
        if left:
            sys.exit(f"tracer left originals in place: {left}")
    from nlss import cli, config, grids, spectral

    cfg = config.load_config(config_path)
    spectral.get_spectrum(grids.build_grid(cfg.domain))
    t_setup = time.monotonic()
    self0 = _cpu(resource.getrusage(resource.RUSAGE_SELF))
    kids0 = _cpu(resource.getrusage(resource.RUSAGE_CHILDREN))
    rc = cli.main(cli_args)
    wall = time.monotonic() - t_setup
    ru_self = resource.getrusage(resource.RUSAGE_SELF)
    ru_kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = dict(
        setup_s=t_setup - float(t0),
        rc=rc,
        wall_s=wall,
        cpu_s=_cpu(ru_self) - self0 + _cpu(ru_kids) - kids0,
        # ru_maxrss is in KiB; the largest worker stands for the pool
        peak_rss_mb=(ru_self.ru_maxrss + ru_kids.ru_maxrss) / 1024.0,
    )
    if tracer is not None:
        out["trace"] = tracer.snapshot()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
