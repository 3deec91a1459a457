"""Shared plumbing for the experiment benches.

Every bench regenerates one of the paper's tables or figures.  Besides
the pytest-benchmark timings, each bench *emits* its rendered artefact:
printed to stdout (visible with ``pytest -s``) and written to
``benchmarks/results/<name>.txt`` so a full ``pytest benchmarks/
--benchmark-only`` run leaves the reproduced tables on disk.

Every bench also passes its structured numbers as ``payload``, which
lands next to the text as ``benchmarks/results/<name>.json``.  The
payloads of the benches CI's bench-smoke job runs are committed and
hold only values a re-run reproduces exactly — counts, ratios of counts
and booleans, never a timing — so the job's ``git diff --exit-code``
over them is the results gate; to re-record, run the bench and commit
the file.
"""

from __future__ import annotations

import json
import os

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def emit(name: str, text: str, payload: object = None) -> str:
    """Print an artefact and persist it under benchmarks/results/.

    ``text`` goes to ``<name>.txt``; a non-None ``payload`` additionally
    goes to ``<name>.json`` (sorted keys, so the artefact is diffable).
    """
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(text + "\n")
    if payload is not None:
        with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"\n{'=' * 72}\n{name}\n{'=' * 72}\n{text}\n")
    return path
