"""One record-line rule for every reader: the store, ``watch`` and the fleet.

``record_lines`` splits at ``\\n`` only, strips JSON whitespace only and
skips blank lines. ``analyze`` (through ``RecordStore``), ``watch`` and the
fleet client's response parser must therefore agree on which lines are
records and which are malformed.
"""

import json

import pytest

from repro.cli import main
from repro.core.recording import ExperimentRecord, RecordStore, record_lines
from repro.errors import FleetProtocolError
from repro.fleet.protocol import parse_records


def record_line(seed: int) -> str:
    return ExperimentRecord(
        spec_name=f"lines-{seed}", outcome="correct", rationale="synthetic",
        injections=1, duration=1.0, seed=seed, scenario="steady-state",
        target="trap", fault_model="single-bit-flip", intensity="medium",
    ).to_json()


#: (line without its ``\n``, what every reader makes of it).
LINES = [
    (record_line(0) + "\x0c", "malformed"),       # form feed
    (record_line(1) + "\u0085", "malformed"),     # NEL
    (record_line(2) + "\u2028", "malformed"),     # line separator
    (record_line(3) + "\r", "record"),            # a \r\n line end
    ("\x0c", "malformed"),                        # only a form feed
    (" \t\r", "blank"),                           # only JSON whitespace
    (record_line(5) + "\r" + record_line(6), "malformed"),  # \r splits nothing
    (record_line(7), "record"),
]
RECORDS = sum(kind == "record" for _, kind in LINES)
MALFORMED = sum(kind == "malformed" for _, kind in LINES)


@pytest.fixture
def store_path(tmp_path):
    path = tmp_path / "lines.jsonl"
    path.write_bytes("".join(line + "\n" for line, _ in LINES).encode())
    return path


def run_cli(capsys, *argv):
    code = main([str(arg) for arg in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_record_lines_numbers_and_trims_only_json_whitespace():
    text = "".join(line + "\n" for line, _ in LINES)
    numbered = list(record_lines(text.split("\n")))
    assert [number for number, _ in numbered] == [
        number for number, (_, kind) in enumerate(LINES, 1) if kind != "blank"]
    assert numbered[0][1].endswith("}\x0c")
    assert numbered[3][1] == record_line(3)


def test_the_store_counts_every_non_blank_line(store_path):
    store = RecordStore(store_path)
    assert store.count() == RECORDS + MALFORMED
    assert len(list(store.iter_records(errors="skip"))) == RECORDS


def test_analyze_watch_and_the_fleet_parser_agree(capsys, store_path):
    code, out, err = run_cli(capsys, "analyze", store_path, "--skip-malformed",
                             "--format", "json")
    assert code == 0
    analysis = json.loads(out)
    assert (analysis["total"], analysis["skipped_lines"]) == (RECORDS, MALFORMED)

    code, _, err = run_cli(capsys, "analyze", store_path)
    assert code == 1
    assert err.startswith(f"error: {store_path}:1: malformed record line:")

    code, out, err = run_cli(capsys, "watch", store_path, "--total", RECORDS,
                             "--timeout", 10, "--poll", 0.05)
    assert code == 0
    assert f"campaign: {RECORDS}/{RECORDS} " in out
    warnings = [line for line in err.splitlines()
                if line.startswith("warning: skipping")]
    assert len(warnings) == MALFORMED
    # The prefix once: "malformed record line: Extra data: ...".
    assert all(line.count("malformed record line") == 1 for line in warnings)

    with pytest.raises(FleetProtocolError,
                       match="^records response line 1: malformed record"):
        parse_records(store_path.read_bytes())
    records = malformed = 0
    for line, _ in LINES:
        try:
            records += len(parse_records((line + "\n").encode()))
        except FleetProtocolError:
            malformed += 1
    assert (records, malformed) == (RECORDS, MALFORMED)
