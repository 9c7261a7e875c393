"""One benchmark study in a fresh interpreter.

    python3 perfbench/child.py RECORD MODE -- <dnc-lab arguments>

MODE is ``full`` (run the command to the end), ``setup`` (stop at the first
``convergence_study`` call) or ``traced`` (run to the end with the span
tracer installed).  The child notes, on the system-wide monotonic clock, when
the command first calls ``convergence_study``; the parent took the same clock
just before spawning, so the difference is the study's set-up time.  RECORD
receives that timestamp, the import time of ``dnclab.cli``, the exit code
and, when traced, the span table.
"""

from __future__ import annotations

import json
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class _SetupDone(Exception):
    """Raised at the first study call of a set-up-only probe."""


def main(argv: list[str]) -> int:
    record_path, mode, sep, *cli_args = argv
    if sep != "--" or mode not in ("full", "setup", "traced"):
        raise SystemExit("usage: child.py RECORD full|setup|traced -- ARGS...")
    record: dict = {"mode": mode}
    t0 = _now()
    import dnclab.cli as cli

    record["import_s"] = _now() - t0
    tracer = None
    if mode == "traced":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    study = cli.convergence_study

    def first_study_hook(*args, **kwargs):
        if "first_study_t" not in record:
            record["first_study_t"] = _now()
            if mode == "setup":
                raise _SetupDone
        return study(*args, **kwargs)

    cli.convergence_study = first_study_hook
    code = 1
    try:
        cli.main(args=cli_args, prog_name="dnc-lab")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except _SetupDone:
        code = 0
    finally:
        sys.stdout.flush()
        record["exit_code"] = code
        if tracer is not None:
            record["trace"] = tracer.dump()
        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
