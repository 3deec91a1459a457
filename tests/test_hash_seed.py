"""Stored bytes depend on the seed of the stream, not on the hash seed.

The paper's E1 table compares server versions that run the identical
seeded stream, so every file a run stores must be a function of that
seed alone.  The one ordering that can move between two interpreters
is a ``set`` (or ``dict`` built from one) of strings, whose iteration
order follows ``PYTHONHASHSEED``.  Each command below runs in its own
interpreter under two pinned, distinct hash seeds, and every file it
leaves must be byte-identical between the two.
"""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
HASH_SEEDS = ("1", "2")

#: (argv after ``python -m repro`` with ``{dir}`` for the run's
#: directory, the files the run must leave there)
COMMANDS = {
    "e1-stream": (
        ["run", "--server", "OStore", "--clones", "20", "--db-dir", "{dir}"],
        ["ostore.db", "ostore.db.meta"],
    ),
    "served-smoke": (
        ["serve", "{dir}/x.pages", "--smoke", "1", "--units", "48"],
        ["x.pages", "x.pages.meta"],
    ),
}


def _stored_files(argv, names, run_dir):
    files = {}
    for seed in HASH_SEEDS:
        seed_dir = os.path.join(run_dir, seed)
        os.makedirs(seed_dir)
        done = subprocess.run(
            [sys.executable, "-m", "repro",
             *(arg.replace("{dir}", seed_dir) for arg in argv)],
            env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert sorted(os.listdir(seed_dir)) == sorted(names)
        for name in names:
            with open(os.path.join(seed_dir, name), "rb") as handle:
                files[seed, name] = handle.read()
    return files


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_stored_files_are_identical_under_two_hash_seeds(command, tmp_path):
    argv, names = COMMANDS[command]
    files = _stored_files(argv, names, str(tmp_path))
    first, second = HASH_SEEDS
    differ = [name for name in names if files[first, name] != files[second, name]]
    assert not differ, f"{command}: {differ} differ between PYTHONHASHSEED {first} and {second}"
