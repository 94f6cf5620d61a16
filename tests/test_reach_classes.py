"""The reach sweep's class table (``tools/reach.py``): how an unreached
function is sorted, and that every entry still names code in ``src/``."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_classify(reach):
    classify = reach.classify
    assert classify("src/repro/simmpi/faults.py", "corrupt_payload") == "failure"
    assert classify("src/repro/simmpi/faults.py", "FaultPlan.__repr__") == "cosmetic"
    # A qualified entry covers the functions nested in it.
    assert classify("src/repro/simmpi/des.py", "DesWorld._delayed_put.fire") == "failure"
    assert classify("src/repro/simmpi/des.py", "DesWorld._put") == "other"
    assert classify("src/repro/core/matrices.py", "dense_w_matrix") == "oracle"
    assert classify("src/repro/dft/backends.py", "_repro_ifft") == "other"


def test_every_entry_names_code_in_src(reach):
    functions = {(f["file"], f["name"]) for f in reach.functions()}
    files = {file for file, _ in functions}
    for key, cls in reach.CLASSES.items():
        assert cls in reach.CLASS_ORDER, key
        file, _, name = key.partition("::")
        if not name:
            assert file in files, key
        else:
            assert any(
                f == file and (n == name or n.startswith(name + "."))
                for f, n in functions
            ), key
