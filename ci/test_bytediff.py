"""``bytediff`` reports exactly the runs whose bytes an edit moves."""

import shutil

import bytediff

MESSAGE = b"coherence needs a monopartite state"


def test_reports_exactly_the_runs_that_print_an_edited_message(tmp_path):
    # the base is this tree with one byte of one message changed
    base = tmp_path / "base"
    shutil.copytree(bytediff.HEAD / "src", base / "src", ignore=shutil.ignore_patterns("__pycache__"))
    cli = base / "src" / "permutwirl" / "cli.py"
    text = cli.read_bytes()
    assert text.count(MESSAGE) == 1
    cli.write_bytes(text.replace(MESSAGE, MESSAGE[:-1] + b"E"))

    results = bytediff.compare(base, tmp_path / "work")
    moved = {run.name for run, _, b, h in results if b != h}
    printing = {run.name for run, _, _, h in results if MESSAGE in h.stderr}
    assert len(printing) >= 2 and moved == printing
    for run, _, b, h in results:
        if run.name in moved:
            assert b.moved_parts(h) == ["stderr"], run.name
            assert b.stderr.replace(MESSAGE[:-1] + b"E", MESSAGE) == h.stderr

    lines = bytediff.report(results, "edited").splitlines()
    assert lines[0].endswith(f": {len(results)} runs, {len(results) - len(moved)} identical")
    rows = lines[4:]
    assert len(rows) == len(moved)
    assert {row.split("`")[1] for row in rows} == moved
