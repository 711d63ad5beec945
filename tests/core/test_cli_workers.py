"""No command takes ``--workers``, and none builds a process pool.

The batch commands (``tables``, ``churn``) run their pipeline inline,
with zero workers, so they build no pool.  The streaming commands
(``stream``, ``serve``, ``chaos``) run every micro-batch inline too,
so they have no ``--workers`` to accept.  Pools are counted by
patching the process backend's executor class, as in
``tests/engine/test_pool_hoist.py``.
"""

import pytest

from repro.cli import main

from tests.engine.test_pool_hoist import counting  # noqa: F401 (fixture)

#: Small batch runs; ``tables`` at 8 agents x 2 days is 80 calls, more
#: than one 64-document runner batch.
BATCH_ARGV = {
    "tables": ["tables", "--agents", "8", "--days", "2", "--seed", "3"],
    "churn": ["churn", "--scale", "0.01", "--customers", "200",
              "--seed", "5"],
}


@pytest.mark.parametrize("command", sorted(BATCH_ARGV))
def test_zero_workers_build_no_pool(counting, command):
    assert main(BATCH_ARGV[command]) == 0
    assert counting.created == 0


@pytest.mark.parametrize("command", ["stream", "serve", "chaos"])
def test_streaming_commands_reject_workers(counting, command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--workers", "2"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --workers" in capsys.readouterr().err
    assert counting.created == 0
