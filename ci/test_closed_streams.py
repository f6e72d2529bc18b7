"""A standard stream that the CLI's process begins with closed is one
``error:`` line and exit 1, for every command that reads or prints it."""

import numpy as np
import pytest

from permutwirl import statefile, states


@pytest.mark.parametrize(
    "closed, args",
    [
        ("stdin", ("twirl", "-")),
        ("stdin", ("coherence", "-")),
        ("stdout", ("twirl", "f.json")),
        ("stdout", ("twirl", "f.json", "--out", "-")),
        ("stdout", ("coherence", "f.json")),
        ("stdout", ("sweep-bell",)),
        ("stdout", ("sweep-qubit", "--out", "-")),
        ("stdout", ("verify",)),
    ],
)
def test_a_closed_stream_exits_1_with_one_line_naming_it(cli, tmp_path, closed, args):
    path = tmp_path / "f.json"
    statefile.save_state(path, states.random_density(3, np.random.default_rng(2)).mat, (3,))
    # stdin's bytes are offered, and the closed stream never reads them
    done = cli(*args, stdin=path.read_bytes(), closed=closed, status=1)
    direction = "input" if closed == "stdin" else "output"
    assert done.stderr == f"error: standard {direction} is closed\n".encode()


def test_a_closed_stdout_leaves_an_out_file_as_it_is(cli, tmp_path):
    cli("sweep-qubit", "--out", "closed.csv", closed="stdout")
    cli("sweep-qubit", "--out", "open.csv")
    assert (tmp_path / "closed.csv").read_bytes() == (tmp_path / "open.csv").read_bytes()
