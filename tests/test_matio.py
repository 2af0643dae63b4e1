"""Tests for matrix and scaling input parsing."""

import io

import numpy as np
import pytest

from rollgap import matio
from rollgap.errors import InvalidInputError


def test_scaling_key_s_takes_positive_entries():
    S = matio.load_scaling(io.StringIO('{"s": [2.0, 1.0]}'))
    assert np.allclose(S.logs, [0.0, -np.log(2.0)])
    with pytest.raises(InvalidInputError):
        matio.load_scaling(io.StringIO('{"s": [2, -1]}'))


def test_scaling_bare_list_takes_positive_entries():
    S = matio.load_scaling(io.StringIO("[1.0, 4.0]"))
    assert np.allclose(S.logs, [0.0, np.log(4.0)])
    with pytest.raises(InvalidInputError):
        matio.load_scaling(io.StringIO("[2, -1]"))


def test_scaling_key_logs_is_shifted_not_exponentiated(tmp_path):
    path = tmp_path / "scaling.json"
    path.write_text('{"logs": [0.5, 1.0]}')
    S = matio.load_scaling(str(path))
    assert np.array_equal(S.logs, [0.0, 0.5])


def test_missing_matrix_file_is_reported():
    with pytest.raises(InvalidInputError, match="cannot read matrix file 'no_such_file.txt'"):
        matio.load_matrix("no_such_file.txt")
