"""``open_output`` and ``read_input``, the one way the package writes a file
and the one way it reads one."""

import ast
import os
import stat
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from crowdscore.csvio import load_trajectory_csv, save_trajectory_csv
from crowdscore.keyvalue import open_output
from crowdscore.trajectory import derive_kinematics

SRC = Path(__file__).resolve().parent.parent / "src" / "crowdscore"
HELPER = ("keyvalue.py", "open_output")
READER = ("keyvalue.py", "read_input")


def test_shorter_output_over_a_longer_file_leaves_exactly_the_new_bytes(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old,row\n" * 200)
    inode = path.stat().st_ino
    with open_output(path) as fh:
        fh.write("a,b\r\n1,2\r\n")
    assert path.read_bytes() == b"a,b\r\n1,2\r\n"  # newline="": no translation
    assert path.stat().st_ino == inode


def test_longer_output_over_a_shorter_file_and_a_new_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"xy")
    with open_output(path) as fh:
        fh.write("k = é\n")
    assert path.read_bytes() == "k = é\n".encode("utf-8")
    fresh = tmp_path / "fresh.txt"
    with open_output(str(fresh)) as fh:
        fh.write("new\n")
    assert fresh.read_bytes() == b"new\n"


def test_a_failed_write_leaves_an_empty_file_and_propagates(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"z" * 1024)
    with pytest.raises(OSError) as info:
        with open_output(path) as fh:
            fh.write("abc")
            raise OSError(28, "No space left on device")
    assert info.value.errno == 28
    assert path.read_bytes() == b""


def test_existing_mode_is_kept(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n")
    path.chmod(0o640)
    with open_output(path) as fh:
        fh.write("new\n")
    assert stat.S_IMODE(path.stat().st_mode) == 0o640
    assert path.read_bytes() == b"new\n"


def test_a_symlink_is_written_through(tmp_path):
    target = tmp_path / "target.txt"
    target.write_bytes(b"a much longer old file\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with open_output(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_bytes() == b"new\n"


def test_devices_are_written_and_never_truncated():
    with open_output(os.devnull) as fh:
        fh.write("discarded\n")
    with pytest.raises(OSError) as info:  # the block's error, not one from truncating
        with open_output(os.devnull) as fh:
            raise OSError(28, "No space left on device")
    assert info.value.errno == 28


def test_a_pipe_is_written_and_never_truncated(tmp_path):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with open_output(fifo) as fh:
            fh.write("through the pipe\n")
        assert os.read(reader, 100) == b"through the pipe\n"
    finally:
        os.close(reader)


# --- keep every write on the one helper ---


def _is_write_mode(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(flag in node.value for flag in "wax"))


def _walk(source: str):
    """Each node of ``source`` with its enclosing top-level ``def``, or None."""

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            scope = function
            if function is None and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scope = child.name
            yield child, scope
            yield from visit(child, scope)

    return visit(ast.parse(source), None)


def _open_mode(call):
    """"w" for an ``open(`` or ``.open(`` call with a write mode, "r" for one
    without, None for any other call."""
    func, args = call.func, call.args
    mode = [kw.value for kw in call.keywords if kw.arg == "mode"]
    if isinstance(func, ast.Name) and func.id == "open":
        mode += args[1:2]
    elif isinstance(func, ast.Attribute) and func.attr == "open":
        mode += args[:1]
    else:
        return None
    return "w" if any(_is_write_mode(m) for m in mode) else "r"


def _method(call):
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


def _csv_writer(node) -> bool:
    """Whether ``node`` names ``csv.writer``, as an attribute or an import."""
    if isinstance(node, ast.Attribute):
        return node.attr == "writer" and getattr(node.value, "id", None) == "csv"
    return (isinstance(node, ast.ImportFrom) and node.module == "csv"
            and any(alias.name == "writer" for alias in node.names))


def _writes(source: str):
    """(line, function) of each call in ``source`` that opens a file for
    writing some other way than ``open_output``, and of each use of
    ``csv.writer``, which ``csvio.write_csv`` replaces; function is the
    enclosing top-level ``def`` or None."""
    found = []
    for node, scope in _walk(source):
        if isinstance(node, ast.Call) and (
            _open_mode(node) == "w" or _method(node) in ("write_text", "write_bytes")
        ) or _csv_writer(node):
            found.append((node.lineno, scope))
        if isinstance(node, (ast.Name, ast.Attribute)) and "O_TRUNC" in (
            getattr(node, "id", None), getattr(node, "attr", None)
        ):
            found.append((node.lineno, scope))
    return found


def _reads(source: str):
    """(line, function) of each call in ``source`` that opens a file for
    reading or reads one whole; an ``os.open`` with ``O_WRONLY`` is a write."""
    found = []
    for node, scope in _walk(source):
        if not isinstance(node, ast.Call):
            continue
        os_write = any(getattr(n, "attr", None) == "O_WRONLY" for n in ast.walk(node))
        if (_open_mode(node) == "r" and not os_write
                or _method(node) in ("read_text", "read_bytes")):
            found.append((node.lineno, scope))
    return found


def test_the_write_scan_finds_each_other_way_to_write():
    source = (
        "import csv, os\n"
        "from pathlib import Path\n"
        "def f(p):\n"
        "    open(p, 'w')\n"
        "    open(p, mode='a')\n"
        "    open(p, 'xb')\n"
        "    Path(p).open('w', newline='')\n"
        "    Path(p).write_text('x')\n"
        "    Path(p).write_bytes(b'x')\n"
        "    os.open(p, os.O_WRONLY | os.O_TRUNC)\n"
        "    csv.writer(p).writerow(['x'])\n"
        "    from csv import reader, writer\n"
        "    open(p)\n"
        "    open(p, 'r', encoding='utf-8')\n"
        "    Path(p).open(newline='')\n"
        "    csv.reader(p)\n"
        "    p.writer\n"
    )
    assert [line for line, _ in _writes(source)] == [4, 5, 6, 7, 8, 9, 10, 11, 12]


def test_every_package_write_goes_through_open_output():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += [(path.name, line, function)
                  for line, function in _writes(path.read_text(encoding="utf-8"))
                  if (path.name, function) != HELPER]
    assert found == []
    helper = (SRC / HELPER[0]).read_text(encoding="utf-8")
    assert [function for _, function in _writes(helper)] == [HELPER[1]]


def test_the_read_scan_finds_each_other_way_to_read():
    source = (
        "import os\n"
        "from pathlib import Path\n"
        "def f(p):\n"
        "    open(p)\n"
        "    open(p, 'rb')\n"
        "    open(p, mode='r', encoding='utf-8')\n"
        "    Path(p).open(newline='')\n"
        "    Path(p).read_text()\n"
        "    Path(p).read_bytes()\n"
        "    os.open(p, os.O_RDONLY)\n"
        "    open(p, 'w')\n"
        "    Path(p).open('a')\n"
        "    os.open(p, os.O_WRONLY | os.O_CREAT)\n"
    )
    assert [line for line, _ in _reads(source)] == [4, 5, 6, 7, 8, 9, 10]


def test_every_package_read_goes_through_read_input():
    found = [(path.name, function)
             for path in sorted(SRC.glob("*.py"))
             for _, function in _reads(path.read_text(encoding="utf-8"))]
    assert found == [READER]


def test_loading_a_csv_stays_within_two_and_a_half_times_its_size(tmp_path):
    # 150 random walkers over 300 steps, every column: about 5 MB of CSV.
    rng = np.random.default_rng(0)
    walk = rng.uniform(-20, 20, (150, 1, 2)) + np.cumsum(rng.normal(0, 0.1, (150, 300, 2)), axis=1)
    path = tmp_path / "long.csv"
    save_trajectory_csv(derive_kinematics(walk, 0.1), path)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        load_trajectory_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * size, f"peak {peak / size:.2f}x the {size} byte file"
