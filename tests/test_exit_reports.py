import json

import numpy as np

from isoreduce import GenerationError, VerificationReport
from isoreduce import bench
from isoreduce import io as iio
from isoreduce.bench import CheckResult
from isoreduce.cli import main


def test_verification_report_serializes_numpy_bools():
    report = VerificationReport((CheckResult("numpy-bool", np.True_, "x"),
                                 CheckResult("numpy-compare", np.float64(0.5) < 1, "y")))
    got = json.loads(iio.dumps(report.to_dict()))
    assert got["passed"] is True
    assert [c["passed"] for c in got["checks"]] == [True, True]


def test_cli_bench_exits_1_when_no_trial_completes(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise GenerationError("no strongly connected draw")

    monkeypatch.setattr(bench, "random_stochastic_graph", refuse)
    code = main(["bench", "--n", "8", "--trials", "2", "--seed", "3"])
    got = json.loads(capsys.readouterr().out)
    assert got["completed"] == 0
    assert got["failures"] == 2
    assert code == 1
