"""The benchmark's seed-0 pins: each workload in perfbench/spec.json,
replayed once at seed 0 with the config that perfbench/run.py writes,
gives exactly the output files and sha256 digests that spec.json pins. An
output change to a benchmark workload fails here, not only in a
benchmark run."""

import contextlib
import importlib.util
import json
import socket
import sys
from pathlib import Path

import pytest

from terraforge.config import load_config
from terraforge.pipeline import run_pipeline

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
WORKLOADS = json.loads((PERFBENCH / "spec.json").read_text())["workloads"]


@pytest.fixture(scope="module")
def bench():
    """perfbench/run.py as a module; it imports tracing.py beside it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, run)  # its dataclasses look their module up
        spec.loader.exec_module(run)
        yield run


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed0_outputs_match_the_pins(bench, name, tmp_path):
    workload = WORKLOADS[name]
    with contextlib.ExitStack() as stack:
        endpoint = None
        if workload["telemetry"]:
            # a bound socket that nobody reads: the datagrams have a
            # destination, and the socket is closed on the way out
            sock = stack.enter_context(socket.socket(socket.AF_INET, socket.SOCK_DGRAM))
            sock.bind(("127.0.0.1", 0))
            endpoint = "127.0.0.1:%d" % sock.getsockname()[1]
        cfg = load_config(bench.config_text(workload, 0, endpoint), is_text=True)
        run_pipeline(cfg, tmp_path)
    assert bench.file_digests(tmp_path) == workload["pinned_sha256"]
