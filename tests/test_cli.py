"""Tests for the command-line interface."""

import argparse
import json
import os
import re

import pytest

from repro.cli import build_parser, main
from repro.obs import Sample


def test_graph_prints_genome_workflow(capsys):
    assert main(["graph"]) == 0
    out = capsys.readouterr().out
    assert "labflow-1-genome-mapping" in out
    assert "determine_sequence" in out


def test_eer_prints_figure(capsys):
    assert main(["eer"]) == 0
    out = capsys.readouterr().out
    assert "involves" in out and "is-a" in out


def test_graph_from_dsl_file(tmp_path, capsys):
    workflow_file = tmp_path / "wf.txt"
    workflow_file.write_text("""
workflow custom
material m key m initial s
step go involves m
    attr x : integer
transition s -> t via go
terminal t
""")
    assert main(["graph", "--workflow", str(workflow_file)]) == 0
    out = capsys.readouterr().out
    assert "custom" in out and "s --[go]--> t" in out


def test_demo_persists_database(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    assert main(["demo", "--clones", "3", "--db", db_path]) == 0
    out = capsys.readouterr().out
    assert "workflow steps executed" in out
    assert os.path.exists(db_path)


def test_query_against_persisted_db(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "3", "--db", db_path])
    capsys.readouterr()
    assert main(["query", db_path, "class_count(clone, N)."]) == 0
    out = capsys.readouterr().out
    assert "N = " in out


def test_query_no_solutions_prints_no(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    assert main(["query", db_path, "state(M, never_used_state)."]) == 0
    assert "no" in capsys.readouterr().out


def test_query_limit(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "4", "--db", db_path])
    capsys.readouterr()
    assert main(["query", db_path, "material(C, K, M).", "--limit", "2"]) == 0
    out = capsys.readouterr().out
    assert "stopped at 2" in out


def test_query_error_reported(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    assert main(["query", db_path, "no_such_predicate(X)."]) == 0
    assert "error" in capsys.readouterr().err


def test_run_single_server(capsys, tmp_path):
    assert main(["run", "--server", "OStore-mm", "--clones", "3"]) == 0
    out = capsys.readouterr().out
    assert "OStore-mm" in out and "elapsed sec" in out


def test_compare_subset(capsys, tmp_path):
    assert main([
        "compare", "--clones", "3", "--db-dir", str(tmp_path),
        "--servers", "OStore", "Texas-mm",
    ]) == 0
    out = capsys.readouterr().out
    assert "Database Server Version" in out
    assert "OStore" in out and "Texas-mm" in out
    assert "Texas+TC" not in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_record_and_replay_round_trip(tmp_path, capsys):
    trace_path = os.path.join(tmp_path, "stream.trace")
    assert main(["record", trace_path, "--clones", "3"]) == 0
    out = capsys.readouterr().out
    assert "recorded" in out and os.path.exists(trace_path)
    assert main([
        "replay", trace_path, "--server", "OStore",
        "--db-dir", os.path.join(tmp_path, "dbs"),
    ]) == 0
    out = capsys.readouterr().out
    assert "replayed" in out and "size (bytes)" in out


def test_replay_onto_memory_server(tmp_path, capsys):
    trace_path = os.path.join(tmp_path, "stream.trace")
    main(["record", trace_path, "--clones", "2"])
    capsys.readouterr()
    assert main(["replay", trace_path, "--server", "Texas-mm"]) == 0
    assert "Texas-mm" in capsys.readouterr().out


def test_shell_runs_queries_and_quits(tmp_path, capsys, monkeypatch):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    lines = iter(["class_count(clone, N).", "", "bad syntax here", "quit."])
    monkeypatch.setattr("builtins.input", lambda prompt="": next(lines))
    assert main(["shell", db_path]) == 0
    captured = capsys.readouterr()
    assert "N = " in captured.out
    assert "error" in captured.err  # the bad query reported, shell kept going


def test_verify_clean_database(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    assert main(["verify", db_path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and "checked" in out


def _server_choices(command):
    parser = build_parser()
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    server = next(
        action for action in commands.choices[command]._actions
        if action.dest == "server"
    )
    return tuple(server.choices)


def test_verify_a_texas_file_and_the_server_choices(tmp_path, capsys):
    # The stream's Texas file, written by the harness as <name>.db.
    assert main(["run", "--server", "Texas", "--clones", "2",
                 "--db-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["verify", os.path.join(tmp_path, "texas.db"),
                 "--server", "Texas"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Texas: checked") and "state sets: OK" in out
    # verify/recover offer the persistent versions, serve the concurrent one.
    persistent = ("OStore", "Texas+TC", "Texas")
    assert _server_choices("verify") == persistent
    assert _server_choices("recover") == persistent
    assert _server_choices("serve") == ("OStore",)


def test_verify_then_recover_crashed_database(tmp_path, capsys):
    from repro.storage import ObjectStoreSM

    db_path = os.path.join(tmp_path, "crashed.db")
    sm = ObjectStoreSM(path=db_path, checkpoint_every=1)
    doomed = sm.allocate_write({"kept": False})
    sm.commit()
    sm.checkpoint_every = 0
    sm.delete(doomed)
    sm.commit()
    # crash: no close()
    assert main(["verify", db_path]) == 1
    out = capsys.readouterr().out
    assert "problem" in out and "recover" in out
    assert main(["recover", db_path]) == 0
    out = capsys.readouterr().out
    assert "consistent" in out
    assert main(["verify", db_path]) == 0


def test_verify_missing_file_does_not_create_one(tmp_path, capsys):
    db_path = os.path.join(tmp_path, "nope.db")
    assert main(["verify", db_path]) == 2
    assert "no such database" in capsys.readouterr().err
    assert not os.path.exists(db_path)  # a check must never create state
    assert main(["recover", db_path]) == 2
    assert not os.path.exists(db_path)


def test_verify_never_modifies_the_store(tmp_path, capsys):
    from repro.storage import ObjectStoreSM

    db_path = os.path.join(tmp_path, "frozen.db")
    sm = ObjectStoreSM(path=db_path, checkpoint_every=1)
    sm.allocate_write({"x": 1})
    sm.commit()
    sm.checkpoint_every = 0
    sm.allocate_write({"x": 2})
    sm.commit()  # crash follows: this commit is past the checkpoint
    before = open(db_path, "rb").read(), open(db_path + ".meta", "rb").read()
    main(["verify", db_path])
    capsys.readouterr()
    after = open(db_path, "rb").read(), open(db_path + ".meta", "rb").read()
    assert before == after


def test_verify_checks_state_sets_against_materials(tmp_path, capsys):
    from repro.labbase import LabBase
    from repro.storage import ObjectStoreSM

    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()
    before = open(db_path, "rb").read(), open(db_path + ".meta", "rb").read()
    assert main(["verify", db_path]) == 0
    assert "state sets: OK" in capsys.readouterr().out
    after = open(db_path, "rb").read(), open(db_path + ".meta", "rb").read()
    assert before == after  # looking through LabBase modifies nothing either

    # a set that lost a member its material still claims
    db = LabBase(ObjectStoreSM(path=db_path))
    done = db.in_state("clone_done")
    db.sets.remove_member("state:clone_done", done[0])
    db.storage.close()
    assert main(["verify", db_path]) == 1
    out = capsys.readouterr().out
    assert "'clone_done'" in out and "state sets: 2 problem(s) found" in out


def test_shell_handles_eof(tmp_path, capsys, monkeypatch):
    db_path = os.path.join(tmp_path, "demo.db")
    main(["demo", "--clones", "2", "--db", db_path])
    capsys.readouterr()

    def raise_eof(prompt=""):
        raise EOFError

    monkeypatch.setattr("builtins.input", raise_eof)
    assert main(["shell", db_path]) == 0


def test_serve_smoke_in_memory(capsys):
    assert main(["serve", "--smoke", "3", "--units", "8"]) == 0
    out = capsys.readouterr().out
    assert "serving <in-memory> [OStore] on 127.0.0.1:" in out
    assert "creates: 12" in out  # 3 clients x 4 mix materials
    assert "verify: OK" in out


def test_serve_smoke_persists_database(tmp_path, capsys):
    db_path = str(tmp_path / "served.pages")
    assert main([
        "serve", db_path, "--smoke", "2", "--units", "6", "--group-cap", "4",
    ]) == 0
    capsys.readouterr()
    assert os.path.exists(db_path)
    assert main(["verify", db_path]) == 0
    out = capsys.readouterr().out
    assert "OK" in out


def test_serve_trace_writes_one_event_per_line_for_every_unit(tmp_path, capsys):
    trace = tmp_path / "served.trace.jsonl"
    assert main([
        "serve", str(tmp_path / "x.pages"), "--smoke", "2", "--units", "12",
        "--trace", str(trace),
    ]) == 0
    out = capsys.readouterr().out
    assert "verify: OK" in out
    tally = {
        name: int(count)
        for name, count in re.findall(r"^  (\w+): (\d+)$", out, re.MULTILINE)
    }
    events = [json.loads(line) for line in trace.read_text().splitlines()]
    units = sum(tally[n] for n in ("creates", "steps", "state_sets", "queries"))
    assert units == 2 * (4 + 12) - tally["conflicts"]
    ends = [event for event in events if event["event"] == "unit_end"]
    assert len(ends) == units
    flushed = sum(event["units"] for event in events if event["event"] == "group_flush")
    assert flushed == tally["creates"] + tally["steps"] + tally["state_sets"]


def test_serve_sample_log_is_a_monotone_counter_stream(tmp_path, capsys):
    log = tmp_path / "samples.jsonl"
    assert main([
        "serve", "--smoke", "2", "--units", "24",
        "--sample-log", str(log), "--sample-interval", "0.01",
    ]) == 0
    assert "verify: OK" in capsys.readouterr().out
    samples = [Sample(**json.loads(line)) for line in log.read_text().splitlines()]
    assert samples
    assert [sample.seq for sample in samples] == list(range(len(samples)))
    for previous, sample in zip(samples, samples[1:]):
        assert set(sample.counters) == set(previous.counters)
        for name, count in sample.counters.items():
            assert count >= previous.counters[name], name
