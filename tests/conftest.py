"""Fixtures shared by the test modules."""

import os
import sys

import pytest

from greedyreg.bench import ExperimentConfig, _prepare_cell, parse_method
from greedyreg.data import load_csv


@pytest.fixture(scope="session")
def benchmark_designs(tmp_path_factory):
    """The normalized designs of the sinc-greedy and csv-greedy benchmark cells (seed 1), with y."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, root)
    try:
        from perfbench.workloads import write_csv
    finally:
        sys.path.remove(root)
    path = tmp_path_factory.mktemp("csv") / "data.csv"
    write_csv(path, 1)
    sinc = ExperimentConfig(task="sinc", methods=[parse_method("ogl:max")], seeds=[1],
                            m_train=500, m_test=500, n=1000, eta=1.0, sigmas=[0.1])
    csv = ExperimentConfig(task="csv", methods=[parse_method("ogl:max")], seeds=[1],
                           csv_path=str(path))
    full = load_csv(str(path), "last", True)
    cells = [_prepare_cell(sinc, None, 0, 1), _prepare_cell(csv, full, 0, 1)]
    return [(cell.dm_fit, cell.y) for cell in cells]
