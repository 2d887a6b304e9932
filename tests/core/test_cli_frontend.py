"""Tests for the repro-fi command-line front-end."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _policy, build_parser, main
from repro.core.policy import RunPolicy
from repro.core.recording import RecordStore
from repro.errors import ReproError

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"
README = Path(__file__).resolve().parents[2] / "README.md"
SRC = Path(__file__).resolve().parents[2] / "src"

#: A config whose fault-model axis fans each seed into a two-member family.
FAMILY_CONFIG = (
    '[campaign]\nname = "family"\nintensity = "medium"\n'
    'tests = 1\nduration = 1.0\n'
    '[[target]]\nkind = "nonroot-trap"\n'
    '[[fault_model]]\nkind = "single-bit-flip"\n'
    '[[fault_model]]\nkind = "multi-register-bit-flip"\n'
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_repro(*argv) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "repro", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120)


def config_text(name: str, **keys) -> str:
    """A one-target medium-intensity config with extra ``[campaign]`` keys."""
    lines = [f'name = "{name}"', 'intensity = "medium"', "tests = 1",
             "duration = 1.0"]
    lines += [f"{key} = {value}" for key, value in keys.items()]
    return ("[campaign]\n" + "\n".join(lines)
            + '\n[[target]]\nkind = "nonroot-trap"\n')


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults_of_the_campaign_subcommand(self):
        args = build_parser().parse_args(["campaign"])
        assert args.intensity == "medium"
        assert args.handler == "arch_handle_trap"
        assert args.cpu == 1
        assert args.scenario == "steady-state"

    def test_unknown_choice_is_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["campaign", "--intensity", "extreme"])

    def test_check_subcommand_smoke(self, capsys):
        # The contract checker is part of the frontend: clean tree, exit 0.
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert "0 finding(s)" in out


class TestGolden:
    def test_golden_run_reports_handler_calls(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "--duration", "5")
        assert code == 0
        assert "handler calls" in out
        assert "arch_handle_trap" in out

    @pytest.mark.parametrize("argv, named", [
        (["--duration", "0"], "duration"),
        (["--duration", "-5"], "duration"),
        (["--duration", "nan"], "duration"),
        (["--duration", "inf"], "duration"),
        (["--seed", "-3"], "seed"),
    ], ids=["duration-0", "duration-negative", "duration-nan",
            "duration-inf", "seed-negative"])
    def test_a_run_that_cannot_give_a_verdict_is_refused(self, argv, named):
        # A window that never runs would print "outcome: correct"; the
        # others would end in numpy or float tracebacks.
        completed = run_repro("golden", *argv)
        assert completed.returncode != 0
        assert completed.stdout == ""
        lines = completed.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert named in lines[0]


class TestFig3AndCampaign:
    def test_fig3_prints_the_figure_and_saves_records(self, capsys, tmp_path):
        output = tmp_path / "fig3.jsonl"
        code, out, _ = run_cli(
            capsys, "fig3", "--tests", "3", "--duration", "5",
            "--output", str(output),
        )
        assert code == 0
        assert "Figure 3" in out
        assert "paper" in out
        assert len(RecordStore(output).load()) == 3

    def test_custom_campaign_runs_and_reports(self, capsys, tmp_path):
        output = tmp_path / "campaign.jsonl"
        code, out, _ = run_cli(
            capsys, "campaign", "--tests", "2", "--duration", "5",
            "--handler", "arch_handle_trap", "--cpu", "1",
            "--output", str(output), "--verbose",
        )
        assert code == 0
        assert "Campaign:" in out
        assert "outcomes" in out
        assert len(RecordStore(output).load()) == 2

    def test_negative_cpu_disables_the_filter(self, capsys):
        code, out, _ = run_cli(
            capsys, "campaign", "--tests", "2", "--duration", "3", "--cpu", "-1",
        )
        assert code == 0


class TestReportAndSeooc:
    @pytest.fixture
    def saved_records(self, capsys, tmp_path):
        output = tmp_path / "records.jsonl"
        run_cli(capsys, "fig3", "--tests", "3", "--duration", "5",
                "--output", str(output))
        return output

    def test_report_styles(self, capsys, saved_records):
        for style in ("distribution", "figure3", "management"):
            code, out, _ = run_cli(capsys, "report", str(saved_records),
                                   "--style", style)
            assert code == 0
            assert out.strip()

    def test_report_on_missing_file_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "report", str(tmp_path / "nope.jsonl"))
        assert code == 1
        assert "no records" in err

    def test_seooc_builds_an_evidence_report(self, capsys, saved_records):
        code, out, _ = run_cli(capsys, "seooc", str(saved_records))
        assert code in (0, 2)   # ready or not, depending on observed outcomes
        assert "SEooC assessment evidence" in out
        assert "Assumptions of use" in out

    def test_seooc_with_no_usable_files_fails(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "seooc", str(tmp_path / "empty.jsonl"))
        assert code == 1

    def test_seooc_with_one_missing_path_fails_naming_it(
            self, capsys, saved_records, tmp_path):
        """A typo'd path must never silently drop a campaign from the
        certification evidence: every bad path is a hard error."""
        missing = tmp_path / "typo.jsonl"
        code, out, err = run_cli(capsys, "seooc", str(saved_records),
                                 str(missing))
        assert code == 1
        assert str(missing) in err
        assert "SEooC assessment evidence" not in out

    def test_seooc_with_an_empty_file_fails_naming_it(
            self, capsys, saved_records, tmp_path):
        empty = tmp_path / "zero.jsonl"
        empty.write_text("")
        code, _, err = run_cli(capsys, "seooc", str(saved_records), str(empty))
        assert code == 1
        assert str(empty) in err

    def test_seooc_rejects_the_same_file_given_twice(
            self, capsys, saved_records):
        """The same campaign under two names would double-count every test
        in the certification evidence."""
        code, out, err = run_cli(capsys, "seooc", str(saved_records),
                                 str(saved_records))
        assert code == 1
        assert "more than once" in err
        assert "SEooC assessment evidence" not in out

    def test_analyze_matches_report_on_real_campaign_records(
            self, capsys, saved_records):
        code, report_out, _ = run_cli(capsys, "report", str(saved_records))
        assert code == 0
        code, analyze_out, _ = run_cli(capsys, "analyze", str(saved_records))
        assert code == 0
        assert analyze_out == report_out

    def test_analyze_group_by_and_json_on_real_records(
            self, capsys, saved_records):
        code, out, _ = run_cli(capsys, "analyze", str(saved_records),
                               "--group-by", "scenario")
        assert code == 0
        assert "grouped by scenario" in out
        code, out, _ = run_cli(capsys, "analyze", str(saved_records),
                               "--format", "json")
        assert code == 0
        import json
        assert json.loads(out)["total"] == 3

    def test_compare_two_real_campaigns(self, capsys, saved_records, tmp_path):
        other = tmp_path / "other.jsonl"
        run_cli(capsys, "fig3", "--tests", "2", "--duration", "5",
                "--seed", "11", "--output", str(other))
        code, out, _ = run_cli(capsys, "compare", str(saved_records),
                               str(other))
        assert code == 0
        assert "records" in out and "other" in out
        assert "per-outcome delta vs records" in out


class TestScenarios:
    def test_park_and_recover_is_reachable_from_the_cli(self, capsys):
        code, out, _ = run_cli(
            capsys, "campaign", "--scenario", "park-and-recover",
            "--tests", "1", "--duration", "3",
        )
        assert code == 0
        assert "Campaign:" in out

    def test_every_registered_scenario_is_a_parser_choice(self):
        from repro.core.registry import SCENARIOS
        args = build_parser().parse_args(
            ["campaign", "--scenario", "park-and-recover"])
        assert args.scenario == "park-and-recover"
        for key in SCENARIOS.keys():
            build_parser().parse_args(["campaign", "--scenario", key])


class TestSutSelection:
    @pytest.mark.parametrize("sut", ["jailhouse", "bao-like", "no-isolation"])
    def test_campaign_accepts_every_registered_sut(self, capsys, sut):
        code, out, _ = run_cli(
            capsys, "campaign", "--tests", "1", "--duration", "3",
            "--sut", sut,
        )
        assert code == 0

    def test_unknown_sut_fails_with_a_suggestion(self, capsys):
        code, _, err = run_cli(
            capsys, "campaign", "--tests", "1", "--duration", "3",
            "--sut", "jalhouse",
        )
        assert code == 2
        assert "jailhouse" in err

    def test_golden_runs_against_a_baseline_sut(self, capsys):
        code, out, _ = run_cli(capsys, "golden", "--duration", "3",
                               "--sut", "bao-like")
        assert code == 0
        assert "handler calls" in out


class TestRunAndList:
    def test_run_executes_a_toml_config(self, capsys, tmp_path):
        output = tmp_path / "run.jsonl"
        code, out, _ = run_cli(
            capsys, "run", str(EXAMPLES / "campaign_fig3.toml"),
            "--tests", "2", "--duration", "2", "--output", str(output),
        )
        assert code == 0
        assert "Campaign:" in out
        assert len(RecordStore(output).load()) == 2

    def test_run_executes_a_catalog_entry_by_name(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "fig3", "--tests", "1", "--duration", "2",
        )
        assert code == 0
        assert "Campaign:" in out

    def test_run_with_sut_override(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "fig3", "--tests", "1", "--duration", "2",
            "--sut", "no-isolation",
        )
        assert code == 0

    def test_run_rejects_unknown_config_with_catalog_hint(self, capsys):
        code, _, err = run_cli(capsys, "run", "fig33")
        assert code == 2
        assert "fig3" in err

    def test_run_config_with_bad_part_key_reports_suggestion(self, capsys, tmp_path):
        config = tmp_path / "bad.toml"
        config.write_text(
            '[campaign]\nname = "bad"\nintensity = "medium"\n'
            '[[target]]\nkind = "nonroot-trp"\n'
        )
        code, _, err = run_cli(capsys, "run", str(config),
                               "--tests", "1", "--duration", "2")
        assert code == 2
        assert "nonroot-trap" in err

    def test_fig3_checkpoint_resumes_under_run(self, capsys, tmp_path):
        """The acceptance scenario: a checkpoint written by ``fig3`` is
        resumed by ``run`` on the equivalent declarative config."""
        ck = tmp_path / "ck.jsonl"
        code, _, _ = run_cli(
            capsys, "fig3", "--tests", "2", "--duration", "2",
            "--resume", str(ck),
        )
        assert code == 0
        assert len(RecordStore(ck).load()) == 2
        before = ck.read_text()
        code, out, _ = run_cli(
            capsys, "run", str(EXAMPLES / "campaign_fig3.toml"),
            "--tests", "2", "--duration", "2", "--resume", str(ck),
        )
        assert code == 0
        # Every spec was restored from the checkpoint; nothing re-ran, so
        # the record file is byte-identical.
        assert ck.read_text() == before

    def test_run_tests_override_shrinks_a_random_sampling_config(
            self, capsys, tmp_path):
        output = tmp_path / "rnd.jsonl"
        code, _, _ = run_cli(
            capsys, "run", str(EXAMPLES / "campaign_random_sample.json"),
            "--tests", "1", "--duration", "2", "--output", str(output),
        )
        assert code == 0
        assert len(RecordStore(output).load()) == 1

    def test_run_rejects_duplicate_scenarios_without_a_traceback(
            self, capsys, tmp_path):
        config = tmp_path / "dup.toml"
        config.write_text(
            '[campaign]\nname = "dup"\nintensity = "medium"\n'
            'scenario = ["steady-state", "steady_state"]\n'
            '[[target]]\nkind = "nonroot-trap"\n'
        )
        code, _, err = run_cli(capsys, "run", str(config))
        assert code == 2
        assert "more than once" in err

    def test_list_shows_registries_and_catalog(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        for expected in ("fig3", "park-and-recover", "jailhouse", "bao-like",
                         "no-isolation", "single-bit-flip", "every-n-calls",
                         "nonroot-trap", "catalog", "linux", "freertos",
                         "paper"):
            assert expected in out


class TestPrefixCacheAndChunkSizeFlags:
    def test_prefix_cache_flag_reports_counters(self, capsys, tmp_path):
        # The counters print whenever a family forked from a snapshot.
        config = tmp_path / "family.toml"
        config.write_text(FAMILY_CONFIG)
        code, out, err = run_cli(capsys, "run", str(config))
        assert code == 0
        # Diagnostics live on stderr so stdout stays pipeable.
        assert "prefix cache: 1 hits / 1 misses" in err
        assert "prefix cache:" not in out
        # Singleton families run plain: nothing forked, nothing to report.
        code, _, err = run_cli(capsys, "campaign", "--tests", "2",
                               "--duration", "2")
        assert code == 0
        assert "prefix cache:" not in err

    @pytest.mark.parametrize("line", ["prefix_cache = true", "batch = true",
                                      "batch_size = 4", "chunk_size = 4"],
                             ids=["prefix_cache", "batch", "batch_size",
                                  "chunk_size"])
    def test_removed_engine_keys_are_unknown_config_keys(
            self, capsys, tmp_path, line):
        config = tmp_path / "removed.toml"
        config.write_text(FAMILY_CONFIG.replace(
            "duration = 1.0\n", f"duration = 1.0\n{line}\n"))
        code, _, err = run_cli(capsys, "run", str(config))
        assert code == 2
        assert "unknown [campaign] key(s)" in err

    def test_chunk_size_rejects_garbage_without_a_traceback(self, capsys):
        # There is no --chunk-size: argparse refuses it as an unknown flag
        # (usage error, exit 2) on every campaign subcommand.
        for argv in (["fig3"], ["campaign"], ["run", "fig3"],
                     ["fleet-worker", "http://127.0.0.1:1"]):
            with pytest.raises(SystemExit) as excinfo:
                main([*argv, "--chunk-size", "2"])
            assert excinfo.value.code == 2
            assert "unrecognized arguments: --chunk-size 2" in \
                capsys.readouterr().err

    def test_config_chunk_size_is_validated(self, capsys, tmp_path):
        config = tmp_path / "badchunk.toml"
        config.write_text(
            '[campaign]\nname = "badchunk"\nintensity = "medium"\n'
            'chunk_size = "sometimes"\n'
            '[[target]]\nkind = "nonroot-trap"\n'
        )
        code, _, err = run_cli(capsys, "run", str(config))
        assert code == 2
        assert "chunk_size" in err


class TestObservabilityFlags:
    def test_progress_goes_to_stderr_not_stdout(self, capsys):
        code, out, err = run_cli(
            capsys, "campaign", "--tests", "3", "--duration", "2",
            "--verbose",
        )
        assert code == 0
        assert "failure rate" in err          # live progress lines
        assert "tests/s" in err
        assert "[   1/3]" not in out          # no progress interleaved
        assert "Campaign:" in out             # the report stays on stdout

    def test_progress_interval_throttles_but_final_line_prints(self, capsys):
        code, _, err = run_cli(
            capsys, "campaign", "--tests", "4", "--duration", "2",
            "--verbose", "--progress-interval", "3600",
        )
        assert code == 0
        progress = [line for line in err.splitlines() if "tests/s" in line]
        # First completion opens the interval window; the final one always
        # prints; everything in between is throttled away.
        assert len(progress) == 2
        assert "[   4/4]" in progress[-1]

    def test_telemetry_flag_writes_a_valid_event_file(self, capsys, tmp_path):
        from repro.obs.telemetry import validate_events_file

        events = tmp_path / "events.jsonl"
        code, _, _ = run_cli(
            capsys, "campaign", "--tests", "3", "--duration", "2",
            "--jobs", "2", "--telemetry", str(events),
        )
        assert code == 0
        assert validate_events_file(events) == 3 + 2   # starts/ends bracket

    def test_watch_flag_announces_the_dashboard_url(self, capsys):
        import re

        code, _, err = run_cli(
            capsys, "fig3", "--tests", "2", "--duration", "2",
            "--watch", "--watch-linger", "0",
        )
        assert code == 0
        assert re.search(r"watch dashboard: http://127\.0\.0\.1:\d+", err)

    def test_watch_subcommand_tails_a_record_file(self, capsys, tmp_path):
        records = tmp_path / "records.jsonl"
        run_cli(capsys, "fig3", "--tests", "2", "--duration", "2",
                "--output", str(records))
        code, out, err = run_cli(
            capsys, "watch", str(records), "--total", "2", "--timeout", "10",
            "--poll", "0.05",
        )
        assert code == 0
        assert "watch dashboard:" in err
        assert "campaign: 2/" in out          # final summary on stdout

    def test_watch_subcommand_skips_a_line_that_is_not_utf8(self, capsys,
                                                            tmp_path):
        records = tmp_path / "records.jsonl"
        run_cli(capsys, "fig3", "--tests", "2", "--duration", "2",
                "--output", str(records))
        first, second = records.read_bytes().splitlines(keepends=True)
        records.write_bytes(first + b"\xff\xfe x\n" + second)
        code, out, err = run_cli(
            capsys, "watch", str(records), "--total", "2", "--timeout", "10",
            "--poll", "0.05",
        )
        assert code == 0
        assert "skipping malformed record line" in err
        assert "not valid UTF-8" in err
        assert "campaign: 2/" in out          # tailing went on past it

    def test_watch_subcommand_empty_file_fails(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "watch", str(tmp_path / "never.jsonl"),
            "--timeout", "0.2", "--poll", "0.05",
        )
        assert code == 1
        assert "no records observed" in err


class TestBenchHistoryCommand:
    @pytest.fixture
    def bench_root(self, tmp_path):
        import json
        (tmp_path / "BENCH_x.json").write_text(json.dumps({
            "schema": "bench_x/v1", "scale": "full",
            "metrics": {"campaign": {"wall_s": 2.0}},
        }))
        return tmp_path

    def test_text_output(self, capsys, bench_root):
        code, out, _ = run_cli(capsys, "bench-history",
                               "--root", str(bench_root), "--no-git")
        assert code == 0
        assert "BENCH_x.json" in out
        assert "metrics.campaign.wall_s" in out

    def test_json_output(self, capsys, bench_root):
        import json
        code, out, _ = run_cli(capsys, "bench-history",
                               "--root", str(bench_root), "--no-git",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["schema"] == "repro-bench-history/v1"

    def test_empty_root_is_a_clean_error(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bench-history",
                               "--root", str(tmp_path), "--no-git")
        assert code == 1
        assert "no benchmark reports" in err

    def test_repo_history_renders(self, capsys):
        # Against the real repo: three committed BENCH files.
        code, out, _ = run_cli(capsys, "bench-history",
                               "--root", str(EXAMPLES.parent))
        assert code == 0
        assert "BENCH_hotpath.json" in out


class TestSupervisionFlags:
    def test_engine_flags_parse(self):
        args = build_parser().parse_args([
            "fig3", "--tests", "2", "--timeout", "5.5", "--retries", "2",
            "--max-worker-restarts", "3",
        ])
        assert args.timeout == 5.5
        assert args.retries == 2
        assert args.max_worker_restarts == 3

    def test_supervision_flags_default_to_unset(self):
        args = build_parser().parse_args(["fig3", "--tests", "2"])
        assert args.timeout is None
        assert args.retries is None
        assert args.max_worker_restarts is None

    @pytest.mark.parametrize("line", [
        'tests = "abc"', "base_seed = [1]", 'duration = "long"',
        "settle_time = {}", "warmup_time = [0.5]", 'observe_time = "x"',
        'high_intensity_registers = "four"', 'sample_seed = 1.5e999',
        "timeout_s = [1, 2]", "timeout_s = -1", "retries = -1",
        'max_worker_restarts = "many"',
    ])
    def test_bad_config_values_exit_2_naming_the_key(self, capsys, tmp_path,
                                                    line):
        config = tmp_path / "bad.toml"
        config.write_text(
            f'[campaign]\nname = "bad"\nintensity = "medium"\n{line}\n'
            '[[target]]\nkind = "nonroot-trap"\n')
        code, _, err = run_cli(capsys, "run", str(config))
        assert code == 2
        assert f"[campaign] {line.split(' = ')[0]}" in err

    def test_flags_apply_over_the_base_policy(self):
        base = RunPolicy(timeout_s=30.0, retries=3)
        args = build_parser().parse_args(["run", "fig3", "--retries", "0"])
        assert _policy(args, base) == RunPolicy(timeout_s=30.0, retries=0)
        args = build_parser().parse_args(["fig3"])
        assert _policy(args) == RunPolicy()
        assert _policy(args, base) == base

    def test_fleet_worker_rejects_bad_flags_before_joining(self, capsys):
        code, _, err = run_cli(capsys, "fleet-worker", "http://127.0.0.1:1",
                               "--retries", "-1", "--offline-grace", "0")
        assert code == 1
        assert "retries must be >= 0" in err

    def test_fig3_runs_supervised_with_explicit_knobs(self, capsys, tmp_path):
        output = tmp_path / "records.jsonl"
        code = main(["fig3", "--tests", "2", "--duration", "2",
                     "--timeout", "30", "--retries", "1",
                     "--output", str(output)])
        assert code == 0
        assert len(RecordStore(output).load()) == 2


class TestTailLines:
    def _collect(self, generator, count):
        return [next(generator) for _ in range(count)]

    def test_yields_only_complete_lines(self, tmp_path):
        import time as _time
        from repro.cli import _tail_lines
        path = tmp_path / "records.jsonl"
        path.write_bytes(b"one\n\xff\xfe x\ntwo\npartial")
        lines = list(_tail_lines(path, poll_s=0.01,
                                 deadline=_time.monotonic()))
        # Bytes that are not UTF-8 still make a line, which from_json rejects.
        assert lines == ["one", "\udcff\udcfe x", "two"]

    def test_shrunk_file_reseeks_to_start_and_reports(self, tmp_path):
        import time as _time
        from repro.cli import _tail_lines
        path = tmp_path / "records.jsonl"
        path.write_text("one\ntwo\n")
        rotations = []
        stream = _tail_lines(path, poll_s=0.01,
                             deadline=_time.monotonic() + 10,
                             on_rotate=lambda offset, size:
                                 rotations.append((offset, size)))
        assert self._collect(stream, 2) == ["one", "two"]
        # The writer rotates: the file is replaced by a shorter one. The
        # tailer must notice the shrink, restart from offset 0, and report.
        path.write_text("new\n")
        assert next(stream) == "new"
        stream.close()
        assert rotations == [(8, 4)]

    def test_shrink_discards_the_partial_line_buffer(self, tmp_path):
        import time as _time
        from repro.cli import _tail_lines
        path = tmp_path / "records.jsonl"
        path.write_text("complete\ntorn-prefix")
        stream = _tail_lines(path, poll_s=0.01,
                             deadline=_time.monotonic() + 10)
        assert next(stream) == "complete"
        path.write_text("fresh\n")
        # The torn prefix of the old file must not be glued onto the new
        # file's first line.
        assert next(stream) == "fresh"
        stream.close()


class TestErrorFunnel:
    @pytest.mark.parametrize("argv", [
        ["campaign", "--tests", "0"],
        ["fig3", "--tests", "1", "--duration", "1", "--jobs", "-3"],
        ["fig3", "--tests", "1", "--duration", "1", "--timeout", "-1"],
    ])
    def test_invalid_engine_arguments_exit_without_a_traceback(self, argv):
        completed = run_repro(*argv)
        assert completed.returncode == 1
        assert "Traceback" not in completed.stderr
        lines = completed.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")

    @pytest.mark.parametrize("argv, config, named", [
        (["--duration", "0"], None, "duration"),
        (["--duration", "-1"], None, "duration"),
        (["--duration", "nan"], None, "duration"),
        (["--duration", "inf"], None, "duration"),
        (["--seed", "-5"], None, "seed"),
        ([], config_text("negative-base-seed", base_seed=-3), "seed"),
        ([], config_text("negative-times", scenario='"lifecycle"',
                         warmup_time=-1, observe_time=-5), "_time"),
        ([], config_text("negative-sample-seed", sampling='"random"',
                         sample_size=2, sample_seed=-1), "sample_seed"),
    ], ids=["duration-0", "duration-negative", "duration-nan",
            "duration-inf", "seed-negative", "base-seed-negative",
            "lifecycle-times-negative", "sample-seed-negative"])
    def test_specs_that_cannot_give_a_verdict_are_rejected(
            self, tmp_path, argv, config, named):
        # Run anyway, each would record a non-answer: a window that never
        # runs classifies as silent_failure, negative times skip the
        # injection, a negative seed quarantines every spec as infra_crash.
        if config is None:
            source = ["fig3", "--tests", "1", "--duration", "1"]
        else:
            (tmp_path / "bad.toml").write_text(config)
            source = [str(tmp_path / "bad.toml")]
        output = tmp_path / "records.jsonl"
        completed = run_repro("run", *source, *argv, "--output", str(output))
        assert completed.returncode != 0
        assert "Traceback" not in completed.stderr
        lines = completed.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert named in lines[0]
        assert not output.exists()

    @pytest.mark.parametrize("argv", [
        ["analyze", "{dir}"],
        ["report", "{dir}"],
        ["compare", "{dir}", "{dir}"],
        ["seooc", "{dir}"],
        ["watch", "{dir}"],
        ["merge", "{dir}", "-o", "{tmp}/merged.jsonl"],
        ["run", "fig3", "--tests", "1", "--duration", "1", "--resume",
         "{dir}"],
        ["run", "fig3", "--tests", "1", "--duration", "1", "--output",
         "{dir}"],
        ["fig3", "--tests", "1", "--duration", "1", "--output", "{dir}"],
        ["campaign", "--tests", "1", "--duration", "1", "--output", "{dir}"],
        # Nothing listens on the discard port: the directory must be
        # refused before the coordinator is contacted.
        ["submit", "http://127.0.0.1:9", "fig3", "--tests", "1",
         "--duration", "1", "--wait", "--output", "{dir}"],
    ], ids=["analyze", "report", "compare", "seooc", "watch", "merge",
            "run-resume", "run-output", "fig3-output", "campaign-output",
            "submit-output"])
    def test_a_directory_for_a_record_file_is_one_error_line(self, tmp_path,
                                                             argv):
        # Refused before any work starts: no campaign report, no dashboard
        # URL, no wait for a fleet.
        directory = tmp_path / "records"
        directory.mkdir()
        completed = run_repro(*(arg.format(dir=directory, tmp=tmp_path)
                                for arg in argv))
        assert completed.returncode == 1
        assert completed.stdout == ""
        lines = completed.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert str(directory) in lines[0]
        assert not (tmp_path / "merged.jsonl").exists()

    @pytest.mark.parametrize("argv, named", [
        (["serve", "--port", "99999", "--state-dir", "{tmp}/state"],
         "--port"),
        (["watch", "{tmp}/records.jsonl", "--port", "70000"], "--port"),
        (["fig3", "--tests", "1", "--duration", "1", "--watch", "99999",
          "--output", "{tmp}/records.jsonl"], "--watch"),
        (["run", "fig3", "--tests", "1", "--duration", "1", "--watch", "-5",
          "--output", "{tmp}/records.jsonl"], "--watch"),
        (["fleet-worker", "notaurl"], "url"),
        (["fleet-status", "http://[::1"], "url"),
        (["submit", "http://[::1", "fig3"], "url"),
        # Seconds must be finite and >= 0: a negative poll was a sleep()
        # traceback, and a NaN timeout or grace period never expired.
        (["watch", "{tmp}/records.jsonl", "--timeout", "1", "--poll", "-1"],
         "--poll"),
        (["watch", "{tmp}/records.jsonl", "--timeout", "nan", "--poll",
          "0.1"], "--timeout"),
        (["fleet-worker", "http://127.0.0.1:9", "--poll", "-1",
          "--offline-grace", "1", "--until-done"], "--poll"),
        (["fleet-worker", "http://127.0.0.1:9", "--poll", "0.1",
          "--offline-grace", "nan", "--until-done"], "--offline-grace"),
        (["submit", "http://127.0.0.1:9", "fig3", "--tests", "1",
          "--duration", "1", "--wait", "--poll", "-1"], "--poll"),
        # An infinite linger overflowed sleep() after the campaign ran and
        # before its records were saved; a negative one ended serve in a
        # traceback before its status lines; a NaN TTL or heartbeat made
        # every lease's expiry NaN, so no lease ever expired.
        (["fig3", "--tests", "1", "--duration", "1", "--watch", "0",
          "--watch-linger", "inf", "--output", "{tmp}/records.jsonl"],
         "--watch-linger"),
        (["run", "fig3", "--tests", "1", "--duration", "1", "--verbose",
          "--progress-interval", "nan", "--output", "{tmp}/records.jsonl"],
         "--progress-interval"),
        (["serve", "--until-done", "--linger", "-1", "--state-dir",
          "{tmp}/state"], "--linger"),
        (["serve", "--lease-ttl", "nan", "--state-dir", "{tmp}/state"],
         "--lease-ttl"),
        (["serve", "--heartbeat-interval", "nan", "--state-dir",
          "{tmp}/state"], "--heartbeat-interval"),
        (["serve", "--steal-after", "-1", "--state-dir", "{tmp}/state"],
         "--steal-after"),
    ], ids=["serve-port", "watch-port", "fig3-watch", "run-watch-negative",
            "fleet-worker-url", "fleet-status-url", "submit-url",
            "watch-poll-negative", "watch-timeout-nan",
            "fleet-worker-poll-negative", "fleet-worker-grace-nan",
            "submit-poll-negative", "fig3-watch-linger-inf",
            "run-progress-interval-nan", "serve-linger-negative",
            "serve-lease-ttl-nan", "serve-heartbeat-nan",
            "serve-steal-after-negative"])
    def test_a_bad_port_url_or_seconds_value_is_a_usage_error(self, tmp_path,
                                                              argv, named):
        # Refused by the parser: no server binds, no worker joins, no
        # campaign runs and nothing is written.
        completed = run_repro(*(arg.format(tmp=tmp_path) for arg in argv))
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stdout == ""
        last = completed.stderr.strip().splitlines()[-1]
        assert f"error: argument {named}:" in last
        assert list(tmp_path.iterdir()) == []

    def test_an_unknown_scenario_is_a_registry_error(self, tmp_path):
        # Checked against the registry before any experiment runs, with the
        # same suggestions as an unknown key in a config file.
        output = tmp_path / "records.jsonl"
        completed = run_repro("campaign", "--scenario", "steady-stat",
                              "--tests", "1", "--duration", "1",
                              "--output", str(output))
        assert completed.returncode == 2
        assert "Traceback" not in completed.stderr
        assert completed.stdout == ""
        lines = completed.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "'steady-stat'" in lines[0] and "steady-state" in lines[0]
        assert not output.exists()

    def test_the_readme_names_every_usage_error_class(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        usage = {cls.__name__ for cls in subclasses(ReproError)
                 if cls.exit_code == 2}
        section = README.read_text(encoding="utf-8").split(
            "\n## Exit codes\n", 1)[1].split("\n## ", 1)[0]
        row = next(line for line in section.splitlines()
                   if line.startswith("| `2` |"))
        assert usage and set(re.findall(r"`(\w+Error)`", row)) == usage
