"""The serving commands: serve-bench end to end and the shared flag list."""

from __future__ import annotations

import argparse
import json

import pytest

from repro.cli import _add_build_args, build_parser, main

SERVING_COMMANDS = ("serve-bench", "serve-http", "load-bench")


def _subparser(command: str) -> argparse.ArgumentParser:
    parser = build_parser()
    (sub,) = [
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    return sub.choices[command]


def _options(parser: argparse.ArgumentParser) -> list[str]:
    return [
        option for action in parser._actions for option in action.option_strings
    ]


def test_shared_build_flags_exist_once_with_one_default():
    reference = argparse.ArgumentParser()
    _add_build_args(reference)
    shared = [
        action for action in reference._actions if action.dest != "help"
    ]
    assert len(shared) >= 20
    for command in SERVING_COMMANDS:
        parser = _subparser(command)
        options = _options(parser)
        defaults = {
            action.option_strings[0]: action.default
            for action in parser._actions
            if action.option_strings
        }
        for action in shared:
            flag = action.option_strings[0]
            assert options.count(flag) == 1, (command, flag)
            assert defaults[flag] == action.default, (command, flag)


def test_hedge_flags_only_on_http_commands_and_writes_where_driven():
    assert "--hedge" not in _options(_subparser("serve-bench"))
    for command in ("serve-http", "load-bench"):
        assert _options(_subparser(command)).count("--hedge") == 1
    assert "--writes-per-sec" not in _options(_subparser("serve-http"))
    for command in ("serve-bench", "load-bench"):
        assert _options(_subparser(command)).count("--writes-per-sec") == 1


def test_serve_bench_single_box(tmp_path, capsys):
    report_path = tmp_path / "single.json"
    code = main([
        "serve-bench", "--scale", "1", "--workers", "2", "--requests", "8",
        "--json", str(report_path),
    ])
    assert code == 0
    assert "throughput_rps=" in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["errors"] == 0
    assert report["config"]["shards"] == 1
    assert report["cache"]["hits"] > 0
    assert "router" not in report
    assert "result_cache" not in report  # no policy: nothing cached


def test_serve_bench_two_shard_fleet(tmp_path):
    report_path = tmp_path / "fleet.json"
    code = main([
        "serve-bench", "--scale", "1", "--workers", "1", "--requests", "8",
        "--shards", "2", "--staleness", "strict", "--view-only",
        "--json", str(report_path),
    ])
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["errors"] == 0
    assert report["router"]["shard_count"] == 2
    assert report["staleness_policy"] == "strict"
    assert report["shutdown"] == {"leaked_connections": 0, "leaked_threads": 0}


@pytest.mark.parametrize("command", ["serve-bench", "load-bench"])
def test_fleet_without_staleness_is_a_usage_error(command, capsys):
    code = main([command, "--scale", "1", "--workers", "1", "--replicas", "1"])
    assert code != 0
    err = capsys.readouterr().err
    assert "needs a staleness policy" in err
