"""Binary persistence: exact byte layout, round trips, corruption taxonomy."""

import struct

import numpy as np
import pytest

from topinf import (
    StorageFormatError,
    load_matrix,
    load_tensor,
    save_matrix,
    save_tensor,
)
from topinf.storage import MAGIC, VERSION


def test_matrix_byte_layout(tmp_path):
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    path = save_matrix(tmp_path / "a.tpoi", a)
    raw = path.read_bytes()
    expected = struct.pack("<4sIQQQ", b"TPOI", 2, 2, 2, 3)  # a matrix is a 2-axis record
    expected += struct.pack("<6d", 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)  # row-major
    assert raw == expected
    assert path.read_bytes() == save_tensor(tmp_path / "t.tpoi", a).read_bytes()


def test_tensor_byte_layout(tmp_path):
    t = np.arange(12, dtype=float).reshape(2, 3, 2)
    path = save_tensor(tmp_path / "t.tpoi", t)
    raw = path.read_bytes()
    expected = struct.pack("<4sIQQQQ", b"TPOI", 2, 3, 2, 3, 2)
    expected += struct.pack("<12d", *range(12))  # row-major: last index fastest
    assert raw == expected
    assert MAGIC == b"TPOI" and VERSION == 2
    assert load_tensor(path).flags.c_contiguous


def test_round_trips(tmp_path):
    rng = np.random.default_rng(901)
    for shape in ((3, 4), (1, 1), (5, 1), (0, 0), (0, 3)):
        a = rng.standard_normal(shape)
        out = load_matrix(save_matrix(tmp_path / "m.tpoi", a))
        np.testing.assert_array_equal(out, a)
        assert out.shape == shape
    for shape in ((4,), (2, 3), (2, 3, 4), (1, 2, 1, 2)):
        t = rng.standard_normal(shape)
        out = load_tensor(save_tensor(tmp_path / "t.tpoi", t))
        np.testing.assert_array_equal(out, t)
        assert out.shape == shape


def test_writes_are_byte_deterministic(tmp_path):
    rng = np.random.default_rng(902)
    a = rng.standard_normal((6, 5))
    p1 = save_matrix(tmp_path / "one.tpoi", a)
    p2 = save_matrix(tmp_path / "two.tpoi", a.copy(order="F"))
    assert p1.read_bytes() == p2.read_bytes()
    t = rng.standard_normal((3, 2, 4))
    q1 = save_tensor(tmp_path / "t1.tpoi", t)
    q2 = save_tensor(tmp_path / "t2.tpoi", np.ascontiguousarray(t))
    assert q1.read_bytes() == q2.read_bytes()


def test_writers_refuse_bad_input(tmp_path):
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "x.tpoi", np.zeros(3))
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "x.tpoi", np.array([[1.0, np.nan]]))
    with pytest.raises(ValueError):
        save_matrix(tmp_path / "x.tpoi", np.array([[np.inf]]))
    with pytest.raises(ValueError):
        save_tensor(tmp_path / "x.tpoi", np.float64(3.0))
    with pytest.raises(ValueError):
        save_tensor(tmp_path / "x.tpoi", np.array([1.0, np.nan]))


def corrupt(path, mutate):
    raw = bytearray(path.read_bytes())
    mutate(raw)
    path.write_bytes(bytes(raw))
    return path


def test_bad_magic_rejected(tmp_path):
    path = save_matrix(tmp_path / "m.tpoi", np.eye(2))
    corrupt(path, lambda raw: raw.__setitem__(slice(0, 4), b"XXXX"))
    with pytest.raises(StorageFormatError) as exc:
        load_matrix(path)
    assert exc.value.reason == "magic"
    tpath = save_tensor(tmp_path / "t.tpoi", np.ones(3))
    corrupt(tpath, lambda raw: raw.__setitem__(slice(0, 4), b"ABCD"))
    with pytest.raises(StorageFormatError) as exc:
        load_tensor(tpath)
    assert exc.value.reason == "magic"


def test_bad_version_rejected(tmp_path):
    path = save_matrix(tmp_path / "m.tpoi", np.eye(2))
    corrupt(path, lambda raw: raw.__setitem__(slice(4, 8), struct.pack("<I", 99)))
    with pytest.raises(StorageFormatError) as exc:
        load_matrix(path)
    assert exc.value.reason == "version"
    tpath = save_tensor(tmp_path / "t.tpoi", np.ones(3))
    corrupt(tpath, lambda raw: raw.__setitem__(slice(4, 8), struct.pack("<I", 0)))
    with pytest.raises(StorageFormatError) as exc:
        load_tensor(tpath)
    assert exc.value.reason == "version"


def test_implausible_axis_count_rejected(tmp_path):
    for ndim in (0, 33, 2**40):
        path = save_tensor(tmp_path / "t.tpoi", np.ones((2, 2)))
        corrupt(path, lambda raw: raw.__setitem__(slice(8, 16), struct.pack("<Q", ndim)))
        with pytest.raises(StorageFormatError) as exc:
            load_tensor(path)
        assert exc.value.reason == "header"


def test_truncation_rejected(tmp_path):
    matrix = save_matrix(tmp_path / "m.tpoi", np.ones((3, 3)))
    full = matrix.read_bytes()
    for cut in (4, 20, len(full) - 8):  # inside magic, inside header, inside payload
        matrix.write_bytes(full[:cut])
        with pytest.raises(StorageFormatError) as exc:
            load_matrix(matrix)
        assert exc.value.reason == "truncated"
    tensor = save_tensor(tmp_path / "t.tpoi", np.ones((2, 2, 2)))
    tfull = tensor.read_bytes()
    for cut in (6, 12, 24, len(tfull) - 1):  # magic, header, dims list, payload
        tensor.write_bytes(tfull[:cut])
        with pytest.raises(StorageFormatError) as exc:
            load_tensor(tensor)
        assert exc.value.reason == "truncated"


def test_excess_payload_rejected(tmp_path):
    matrix = save_matrix(tmp_path / "m.tpoi", np.ones((2, 2)))
    matrix.write_bytes(matrix.read_bytes() + b"\x00" * 8)
    with pytest.raises(StorageFormatError) as exc:
        load_matrix(matrix)
    assert exc.value.reason == "payload"
    tensor = save_tensor(tmp_path / "t.tpoi", np.ones(4))
    tensor.write_bytes(tensor.read_bytes() + b"junk")
    with pytest.raises(StorageFormatError) as exc:
        load_tensor(tensor)
    assert exc.value.reason == "payload"


def test_nonfinite_payload_rejected(tmp_path):
    nan_bytes = struct.pack("<d", np.nan)
    matrix = save_matrix(tmp_path / "m.tpoi", np.ones((2, 2)))
    corrupt(matrix, lambda raw: raw.__setitem__(slice(-8, None), nan_bytes))
    with pytest.raises(StorageFormatError) as exc:
        load_matrix(matrix)
    assert exc.value.reason == "payload"
    tensor = save_tensor(tmp_path / "t.tpoi", np.ones((3, 2)))
    corrupt(tensor, lambda raw: raw.__setitem__(slice(-8, None), struct.pack("<d", np.inf)))
    with pytest.raises(StorageFormatError) as exc:
        load_tensor(tensor)
    assert exc.value.reason == "payload"


def test_loaders_validate_across_formats(tmp_path):
    # load_matrix refuses a record of any other axis count
    for shape in ((2, 2, 2), (4,)):
        path = save_tensor(tmp_path / "t.tpoi", np.ones(shape))
        with pytest.raises(StorageFormatError) as exc:
            load_matrix(path)
        assert exc.value.reason == "header"
    # and either reader reads the other writer's two-axis record as written
    out = load_matrix(save_tensor(tmp_path / "t.tpoi", np.array([[7.0]])))
    assert out.shape == (1, 1)
    np.testing.assert_array_equal(out, [[7.0]])
    out = load_tensor(save_matrix(tmp_path / "m.tpoi", np.array([[1.0, 2.0, 3.0]])))
    assert out.shape == (1, 3)
    np.testing.assert_array_equal(out, [[1.0, 2.0, 3.0]])


def test_version_one_matrix_record_refused(tmp_path):
    # the former matrix record: no axis count, rows and cols after the version
    path = tmp_path / "old.tpoi"
    path.write_bytes(struct.pack("<4sIQQ", b"TPOI", 1, 2, 3) + struct.pack("<6d", *range(6)))
    for load in (load_matrix, load_tensor):
        with pytest.raises(StorageFormatError) as exc:
            load(path)
        assert exc.value.reason == "version"
